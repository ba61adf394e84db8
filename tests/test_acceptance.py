"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import io
import random
from pathlib import Path

import pytest

from ultranav.classify import Advisory, classify_depth, is_downstep
from ultranav.cli import main
from ultranav.geometry import (
    Aim,
    GroundSegment,
    Rect,
    SagittalScene,
    cone_min_distance,
    overlap_distance,
)
from ultranav.classify import BuzzerFrame
from ultranav.pipeline import SimConfig, TickFlags, TrajectorySegment, fuse, run_scenario
from ultranav.sensing import SensorName, default_sensors, measure, sound_speed
from ultranav.tables import verify_tables

from oracles import dense_cone_min

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"

SPECS = {s.name: s for s in default_sensors()}


def report(ok: bool, label: str):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_1_overlap_reproduction():
    chest_knee = overlap_distance(150.0, 50.0)
    knee_toe = overlap_distance(50.0, 5.0)
    ok = abs(chest_knee - 186.6) <= 0.1 and abs(knee_toe - 84.0) <= 0.1
    report(ok, f"criterion 1: cone overlaps {chest_knee:.1f} / {knee_toe:.1f} cm")


def test_criterion_2_band_conformance():
    ok = verify_tables(io.StringIO())
    report(ok, "criterion 2: exhaustive band sweep conforms to decision tables")


def test_criterion_3_upstairs_scenario():
    scene = SagittalScene((Rect(15, 17, 0, 10), Rect(40, 42, 40, 120)), ())
    knee = measure(scene, SPECS[SensorName.KNEE], 0.0)
    toe = measure(scene, SPECS[SensorName.TOE], 0.0)
    knee_oracle = dense_cone_min(scene, (0.0, 50.0), Aim.FORWARD)
    toe_oracle = dense_cone_min(scene, (0.0, 5.0), Aim.FORWARD)
    frames = run_scenario(scene, [TrajectorySegment(0.0, 0.15)], SimConfig())
    debounce = SimConfig().debounce_ticks
    ok = (
        knee == pytest.approx(40.0, abs=1e-6)
        and toe == pytest.approx(15.0, abs=1e-6)
        and knee == pytest.approx(knee_oracle, abs=0.1)
        and toe == pytest.approx(toe_oracle, abs=0.1)
        and frames[0].flags.upstairs
        and frames[debounce].advisory == Advisory.UP_STAIRS_AHEAD
    )
    report(ok, f"criterion 3: up-stair scene knee={knee} toe={toe} -> UpStairsAhead")


def test_criterion_4_pothole_grading():
    expected = {
        5.0: (0, Advisory.MOVE_FORWARD),
        15.0: (1, Advisory.MOVE_FORWARD_CAUTION),
        30.0: (2, Advisory.ALTERNATE_PATH),
        50.0: (3, Advisory.STOP_IMMEDIATELY),
    }
    ok = all(
        classify_depth(d) == level and fuse(BuzzerFrame(brzP=level), TickFlags()) == advisory
        for d, (level, advisory) in expected.items()
    )
    # End-to-end: stand over each depth and check channel + settled advisory.
    for depth, (level, advisory) in expected.items():
        scene = SagittalScene((), (GroundSegment(-100, 100, -depth),))
        frames = run_scenario(scene, [TrajectorySegment(0.0, 0.15)], SimConfig())
        ok &= frames[0].frame.brzP == level and frames[-1].advisory == advisory
    # Down-step window is exactly 15..30 cm.
    for d in [x / 10.0 for x in range(0, 601)]:
        ok &= is_downstep(d) == (15.0 <= d <= 30.0)
    report(ok, "criterion 4: pothole depths 5/15/30/50 grade 0/1/2/3; down-step window 15-30")


def _random_forward_scene(rng):
    # Walls crossing the sensor axis height so the nearest echo is on the
    # axis, which the oracle fan samples exactly.
    oz = rng.choice([50.0, 150.0])
    obstacles = []
    for _ in range(rng.randint(1, 4)):
        x0 = rng.uniform(20.0, 280.0)
        x1 = x0 + rng.uniform(0.5, 30.0)
        z0 = rng.uniform(0.0, oz - 20.0)
        z1 = oz + rng.uniform(20.0, 120.0)
        obstacles.append(Rect(x0, x1, z0, z1))
    return SagittalScene(tuple(obstacles), ()), (0.0, oz), Aim.FORWARD


def _random_down_scene(rng):
    # The patch under the sensor axis is the highest surface around, so
    # the closest return is straight down, which the oracle fan samples exactly.
    oz = rng.uniform(20.0, 60.0)
    axis_raise = rng.uniform(0.0, 8.0)
    segments = [GroundSegment(-5.0, 5.0, axis_raise)]
    cursor = 5.0
    for _ in range(rng.randint(0, 3)):
        width = rng.uniform(5.0, 40.0)
        segments.append(GroundSegment(cursor, cursor + width, -rng.uniform(0.0, 60.0)))
        cursor += width
    return SagittalScene((), tuple(segments)), (0.0, oz), Aim.DOWN


def _random_off_axis_scene(rng):
    # Boxes (a quarter of them slats below the 0.3 cm floor) over a pothole
    # profile, seen from any mount: the nearest echo is usually off the
    # axis, at a face end or on a cone edge.  Down cones sit within a few
    # cm of a hole's rim, where the rim's lip is nearer than the floor.
    obstacles = []
    for _ in range(rng.randint(1, 6)):
        x0 = rng.uniform(-60.0, 280.0)
        if rng.random() < 0.25:
            width = rng.uniform(0.05, 0.28)
        else:
            width = rng.uniform(0.5, 30.0)
        z0 = rng.uniform(0.0, 190.0)
        obstacles.append(Rect(x0, x0 + width, z0, z0 + rng.uniform(1.0, 60.0)))
    ground = []
    cursor = rng.uniform(-60.0, 0.0)
    for _ in range(rng.randint(1, 4)):
        cursor += rng.uniform(1.0, 30.0)
        width = rng.uniform(3.0, 40.0)
        ground.append(GroundSegment(cursor, cursor + width, -rng.uniform(1.0, 60.0)))
        cursor += width
    scene = SagittalScene(tuple(obstacles), tuple(ground))
    if rng.random() < 0.5:
        origin = (rng.uniform(-30.0, 0.0), rng.choice([5.0, 50.0, 150.0]))
        return scene, origin, Aim.FORWARD
    rim = rng.choice(ground)
    origin = (rng.choice([rim.x0, rim.x1]) + rng.uniform(-4.0, 4.0), rng.uniform(5.0, 20.0))
    return scene, origin, Aim.DOWN


def test_criterion_5_raycast_oracle_equivalence():
    rng = random.Random(20260823)
    cases = [
        (_random_forward_scene(rng) if i % 2 == 0 else _random_down_scene(rng), 1001)
        for i in range(100)
    ]
    cases += [(_random_off_axis_scene(rng), 4001) for _ in range(100)]
    worst = 0.0
    ok = True
    for (scene, origin, aim), n_rays in cases:
        exact = cone_min_distance(scene, origin, aim)
        dense = dense_cone_min(scene, origin, aim, n_rays=n_rays)
        if exact is None or dense is None:
            ok &= exact == dense
        else:
            worst = max(worst, abs(exact - dense))
            ok &= abs(exact - dense) <= 0.1
    report(ok, f"criterion 5: exact cone vs dense-fan oracle, worst gap {worst:.4f} cm")


def test_criterion_6_refresh_latency():
    scene = SagittalScene((Rect(300, 302, 0, 200),), ())
    frames = run_scenario(scene, [TrajectorySegment(140.0, 2.1)], SimConfig())
    first_warn = next(f.tick for f in frames if f.frame.brzC >= 1)
    first_close = next(
        f.tick
        for f in frames
        if f.readings[SensorName.CHEST] is not None
        and f.readings[SensorName.CHEST] <= 40.0
    )
    ok = abs(first_warn - 36) <= 1 and (first_close - first_warn) >= 25
    report(
        ok,
        f"criterion 6: first warning at tick {first_warn}, "
        f"{first_close - first_warn} ticks before the innermost band",
    )


def test_criterion_7_thickness_floor():
    thin = SagittalScene((Rect(100.0, 100.2, 0, 200),), ())
    thick = SagittalScene((Rect(100.0, 100.3, 0, 200),), ())
    spec = SPECS[SensorName.CHEST]
    ok = (
        cone_min_distance(thin, (0.0, 150.0), Aim.FORWARD) is None
        and measure(thin, spec, 0.0) is None
        and cone_min_distance(thick, (0.0, 150.0), Aim.FORWARD) == pytest.approx(100.0)
        and measure(thick, spec, 0.0) == pytest.approx(100.0)
    )
    report(ok, "criterion 7: 0.2 cm obstacle invisible, 0.3 cm detected")


def test_criterion_8_temperature_property():
    scene = SagittalScene((Rect(150, 152, 0, 300),), ())
    spec = SPECS[SensorName.CHEST]
    matched = measure(scene, spec, 0.0, temp_actual=10.0, temp_cal=10.0)
    warmer = measure(scene, spec, 0.0, temp_actual=20.0, temp_cal=10.0)
    shortfall = 1.0 - warmer / 150.0
    expected = 1.0 - sound_speed(10.0) / sound_speed(20.0)
    readings = [
        measure(scene, spec, 0.0, temp_actual=t, temp_cal=10.0) for t in range(-10, 41, 5)
    ]
    monotone = all(a > b for a, b in zip(readings, readings[1:]))
    ok = (
        matched == pytest.approx(150.0, abs=1e-9)
        and shortfall == pytest.approx(expected, abs=1e-12)
        and shortfall == pytest.approx(0.0176, abs=0.0005)
        and monotone
    )
    report(
        ok,
        f"criterion 8: bias 1.000 matched, {shortfall * 100:.2f}% short at +10 C, monotone",
    )


def test_criterion_9_determinism(tmp_path):
    names = ["flat_walk", "wall_approach", "upstairs", "pothole_grades", "waist_probe"]
    ok = True
    for name in names:
        scn = str(SCENARIO_DIR / f"{name}.scn")
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        ok &= main(["run", scn, "--out", str(a)]) == 0
        ok &= main(["run", scn, "--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    report(ok, f"criterion 9: {len(names)} bundled scenarios byte-identical across runs")
