"""Micro-benchmarks of the tick loop, whole scenario runs and trace formatting.

    python -m pytest bench/test_pipeline.py --benchmark-json=out.json

The course is a fixed compact walk of the kind perfbench's `walk_long`
generates: five holes of every pothole grade under a 240 cm path, then a
toe step, a knee riser 25 cm beyond it, a waist block, a head-height
block, a wall and one block out of reach.  `test_sense` times one
`sense` over the middle hole, with the scene's face indexes and the
config's sound speeds already built, and `test_tick` times `tick`, the
stateful half, on what `sense` gave there, with a fresh `TickState` each
round.  `test_sense_dense` times one `sense` on `test_cli.py`'s dense
scene (300 boxes over 40 holes, the shape of a perfbench
`clutter_dense` job), standing over a hole, its indexes built first;
every channel echoes there.
`test_run_scenario` times `run_scenario` on each bundled scenario,
parsed outside the timing.  `test_run_back_and_forth` times
`run_scenario` on four back-and-forth walks over the course (3,000 ticks
at 376 distinct positions: each tick's x is the exact sum of its steps,
so the way back lands on the way out's positions), and
`test_format_trace` times `format_trace` on their frames.
`test_format_trace_distinct` times `format_trace` on a one-way walk of
3,000 ticks over the course, every tick at a new position, so no row
reuses a formatted lead.
"""

from pathlib import Path

import pytest

from ultranav.cli import format_trace, parse_scenario
from ultranav.geometry import GroundSegment, Rect, SagittalScene
from ultranav.pipeline import SimConfig, TickState, TrajectorySegment, run_scenario, sense, tick

from test_cli import CLUTTER_SCENARIO

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.scn"))

COURSE = SagittalScene(
    (
        Rect(240.0, 242.0, 0.0, 10.0),  # toe step
        Rect(265.0, 269.0, 40.0, 120.0),  # knee riser
        Rect(340.0, 350.0, 0.0, 120.0),  # waist block
        Rect(370.0, 380.0, 170.0, 200.0),  # head-height block
        Rect(460.0, 462.0, 0.0, 200.0),  # wall
        Rect(610.0, 620.0, 0.0, 80.0),  # out of reach
    ),
    (
        GroundSegment(30.0, 50.0, -5.0),
        GroundSegment(70.0, 95.0, -15.0),
        GroundSegment(120.0, 140.0, -22.0),
        GroundSegment(160.0, 180.0, -33.0),
        GroundSegment(200.0, 225.0, -50.0),
    ),
)

# 375 ticks out and 375 back, four times: 3,000 rows.
BACK_AND_FORTH = [TrajectorySegment(21.0, 11.25), TrajectorySegment(-21.0, 11.25)] * 4
# 3,000 ticks out, 0.21 cm each: from 0 to 630 cm, past the last block.
ONE_WAY = [TrajectorySegment(7.0, 90.0)]


def test_sense(benchmark):
    config = SimConfig()
    sense(COURSE, 130.0, config)  # build the face indexes
    sensed = benchmark(sense, COURSE, 130.0, config)
    assert sensed[4].brzP == 2


def test_sense_dense(benchmark):
    scene, _, config = parse_scenario(CLUTTER_SCENARIO)
    sense(scene, 81.0, config)  # build the face indexes
    sensed = benchmark(sense, scene, 81.0, config)
    assert None not in sensed[:4]


def test_tick(benchmark):
    config = SimConfig()
    sensed = sense(COURSE, 130.0, config)

    def fresh_state():
        return (TickState(), sensed, 130.0, 140.0, config.debounce_ticks), {}

    (row,) = benchmark.pedantic(tick, setup=fresh_state, rounds=2000)
    assert row.frame.brzP == 2


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_run_scenario(benchmark, path):
    frames = benchmark(run_scenario, *parse_scenario(path.read_text()))
    assert frames


def test_run_back_and_forth(benchmark):
    run_scenario(COURSE, BACK_AND_FORTH, SimConfig())  # build the face indexes
    frames = benchmark(run_scenario, COURSE, BACK_AND_FORTH, SimConfig())
    assert len(frames) == 3000
    assert len({frame.user_x for frame in frames}) == 376


def test_format_trace(benchmark):
    frames = run_scenario(COURSE, BACK_AND_FORTH, SimConfig())
    assert len(frames) == 3000
    trace = benchmark(format_trace, frames)
    assert trace.count("\n") == 3001


def test_format_trace_distinct(benchmark):
    frames = run_scenario(COURSE, ONE_WAY, SimConfig())
    assert len({frame.user_x for frame in frames}) == len(frames) == 3000
    trace = benchmark(format_trace, frames)
    assert trace.count("\n") == 3001
