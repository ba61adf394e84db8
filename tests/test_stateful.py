"""The stateful columns, `inferred` and `advisory`, against the reference in oracles.py.

`tick` is a tick's stateful half and runs on the tuple `sense` gives.
The sequence tests hand `tick` generated tuples directly, so they cast no
cone and run thousands of ticks cheaply.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultranav.classify import BuzzerFrame, classify_chest
from ultranav.cli import format_trace, parse_scenario
from ultranav.pipeline import TickFlags, TickState, run_scenario, tick, trajectory_ticks

from oracles import debounce_trace_problems, reference_candidate, reference_stateful

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GOLDENS = ["flat_walk", "wall_approach", "upstairs", "pothole_grades", "waist_probe"]


def printed(rows):
    """The (inferred, advisory) cells of FrameOutput rows, as the trace prints them."""
    return [
        ("-" if row.flags.inferred is None else row.flags.inferred.value, row.advisory.value)
        for row in rows
    ]


def walk_speeds(walk):
    """The speed of each tick of `walk`."""
    return [s.speed for s, count in zip(walk, trajectory_ticks(walk)) for _ in range(count)]


def check_rows(rows, speeds, debounce_ticks):
    """Each run row's stateful cells are the reference's for the rows' own stateless cells."""
    ticks = [
        (tuple(row.frame), *row.flags[:4], row.d_chest, speed)
        for row, speed in zip(rows, speeds)
    ]
    assert printed(rows) == reference_stateful(ticks, debounce_ticks)


def drive(sensed, speeds, debounce_ticks):
    """Rows of `tick` fed the given sensed tuples, one position each."""
    state = TickState()
    return [
        tick(state, s, float(i), speed, debounce_ticks, i)[0]
        for i, (s, speed) in enumerate(zip(sensed, speeds, strict=True))
    ]


_CHEST = (None, None, None, 3.0, 40.0, 40.5, 59.9, 60.0, 60.1, 86.9, 87.0, 87.1, 120.0, 150.0,
          150.1, 250.0)
# Stair outcomes (upstairs, knee bit, toe bit) with knee and toe readings
# that give them, so a trace of the rows passes the trace-level check.
_STAIRS = (
    ((False, 0, 0), None, 25.0), ((False, 1, 0), 35.0, None), ((False, 0, 1), 45.0, 15.0),
    ((False, 1, 1), 35.0, 15.0), ((True, 1, 1), 40.0, 15.0),
)
_SPEEDS = (-50.0, 0.0, 100.0, 140.0)


def random_ticks(rng):
    """Sensed tuples and speeds: stretches of ticks with equal inputs, so
    candidates are held, and step-back motifs (the chest active while
    advancing, a dropout while advancing, the chest active again while
    stepping back), so the upper-obstacle check arms and infers."""
    sensed, speeds = [], []
    for _ in range(rng.randint(1, 10)):
        chest = rng.choice(_CHEST) if rng.random() < 0.8 else rng.uniform(3.0, 300.0)
        if rng.random() < 0.3:
            steps = ((rng.choice(_CHEST[3:]), 100.0), (None, 100.0), (100.0, -50.0))
        else:
            steps = ((chest, rng.choice(_SPEEDS)),)
        for chest, speed in steps:
            frame = BuzzerFrame(classify_chest(chest), rng.choice((0, 0, 0, 1, 2, 3)),
                                rng.choice((0, 0, 0, 1, 2, 3)), rng.choice((0, 0, 0, 0, 0, 1, 2, 3)))
            (up, kb, tb), knee, toe = rng.choice(_STAIRS)
            flags = TickFlags(up, kb, tb, rng.random() < 0.3)
            repeat = rng.randint(1, 5)
            sensed += [(chest, knee, toe, 10.0, frame, flags)] * repeat
            speeds += [speed] * repeat
    return sensed, speeds


class TestReference:
    """The reference's own rules on hand-written sequences, each also run through `tick`."""

    def run_both(self, ticks, debounce_ticks=1):
        expected = reference_stateful(ticks, debounce_ticks)
        sensed = [
            (chest, None, None, None, BuzzerFrame(*levels), TickFlags(up, kb, tb, down))
            for levels, up, kb, tb, down, chest, _ in ticks
        ]
        rows = drive(sensed, [t[-1] for t in ticks], debounce_ticks)
        assert printed(rows) == expected
        return expected

    def chest(self, distance, speed):
        return ((classify_chest(distance), 0, 0, 0), False, 0, 0, False, distance, speed)

    def test_fuse_priority(self):
        findings = [
            (((0, 0, 0, 3), True, 1, 1, True, "Head"), "StopImmediately"),
            (((0, 0, 0, 2), True, 1, 1, True, "Head"), "AlternatePath"),
            (((1, 1, 1, 1), True, 1, 1, True, "Head"), "UpStairsAhead"),
            (((1, 1, 1, 1), False, 1, 1, True, "Head"), "UpperObstacle(Head)"),
            (((1, 1, 1, 1), False, 1, 1, True, "-"), "KneeObstacleAhead"),
            (((1, 1, 1, 1), False, 0, 1, True, "-"), "ToeObstacleAhead"),
            (((0, 0, 0, 1), False, 0, 0, False, "-"), "MoveForwardCaution"),
            (((0, 0, 0, 0), False, 0, 0, True, "-"), "MoveForwardCaution"),
            (((0, 0, 0, 0), False, 0, 0, False, "-"), "MoveForward"),
        ]
        for args, advisory in findings:
            assert reference_candidate(*args) == advisory

    KNEE = ((0, 1, 0, 0), False, 1, 0, False, None, 0.0)
    TOE = ((0, 0, 1, 0), False, 0, 1, False, None, 0.0)

    @pytest.mark.parametrize("debounce_ticks", [2, 3, 4])
    def test_commit_after_debounce_ticks_equal_candidates(self, debounce_ticks):
        # A run one tick short, broken by another candidate, commits nothing.
        ticks = [self.KNEE] * (debounce_ticks - 1) + [self.TOE] + [self.KNEE] * debounce_ticks
        advisories = [a for _, a in self.run_both(ticks, debounce_ticks)]
        assert advisories[-1] == "KneeObstacleAhead"
        assert advisories[:-1] == ["MoveForward"] * (2 * debounce_ticks - 1)

    def test_debounce_one_commits_each_candidate(self):
        advisories = [a for _, a in self.run_both([self.TOE, self.KNEE, self.TOE], 1)]
        assert advisories == ["ToeObstacleAhead", "KneeObstacleAhead", "ToeObstacleAhead"]

    def test_dropout_arms_and_step_back_infers(self):
        ticks = [self.chest(120.0, 100.0), self.chest(None, 100.0), self.chest(None, -50.0),
                 self.chest(130.0, -50.0), self.chest(70.0, -50.0)]
        inferred = [i for i, _ in self.run_both(ticks)]
        # The band comes from the armed 120 cm, not from the later readings.
        assert inferred == ["-", "-", "-", "Waist", "Waist"]

    @pytest.mark.parametrize(
        "distance,band",
        [(150.0, "Waist"), (87.0, "Head"), (60.0, "Chest"), (40.0, "Unknown"), (3.0, "Unknown")],
    )
    def test_band_of_the_armed_distance(self, distance, band):
        ticks = [self.chest(distance, 100.0), self.chest(None, 100.0), self.chest(100.0, -50.0)]
        assert self.run_both(ticks)[-1][0] == band

    def test_dropout_while_not_advancing_does_not_arm(self):
        for speed in (0.0, -50.0):
            ticks = [self.chest(120.0, 100.0), self.chest(None, speed), self.chest(100.0, -50.0)]
            assert [i for i, _ in self.run_both(ticks)] == ["-", "-", "-"]

    def test_reactivation_while_advancing_resets(self):
        ticks = [self.chest(120.0, 100.0), self.chest(None, 100.0), self.chest(100.0, -50.0),
                 self.chest(100.0, 0.0), self.chest(100.0, 100.0), self.chest(100.0, -50.0)]
        inferred = [i for i, _ in self.run_both(ticks)]
        assert inferred == ["-", "-", "Waist", "Waist", "-", "-"]


class TestAgainstReference:
    # Hypothesis draws only the seed: drawing every field through it cost
    # ten times as much per sequence.
    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=True), st.integers(1, 4))
    def test_generated_sequences(self, rng, debounce_ticks):
        sensed, speeds = random_ticks(rng)
        rows = drive(sensed, speeds, debounce_ticks)
        check_rows(rows, speeds, debounce_ticks)
        assert debounce_trace_problems(format_trace(rows), debounce_ticks) == []

    @pytest.mark.parametrize("name", GOLDENS)
    def test_bundled_scenarios(self, name):
        scene, walk, config = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
        rows = run_scenario(scene, walk, config)
        check_rows(rows, walk_speeds(walk), config.debounce_ticks)
        golden = (SCENARIOS / "golden" / f"{name}.trace.csv").read_text()
        assert debounce_trace_problems(golden, config.debounce_ticks) == []

    def test_trace_check_finds_a_premature_change(self):
        golden = (SCENARIOS / "golden" / "wall_approach.trace.csv").read_text()
        assert debounce_trace_problems(golden, 2) == []
        # With a longer debounce the golden's advisories change too soon.
        assert debounce_trace_problems(golden, 3)
        # A row whose advisory moves back early breaks it too.
        lines = golden.splitlines()
        changed = next(i for i in range(2, len(lines))
                       if lines[i].rsplit(",", 1)[1] != lines[i - 1].rsplit(",", 1)[1])
        early = lines[changed - 1].rsplit(",", 1)[0] + "," + lines[changed].rsplit(",", 1)[1]
        tampered = "\n".join(lines[:changed - 1] + [early] + lines[changed:]) + "\n"
        assert debounce_trace_problems(tampered, 2)
