import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultranav.classify import (
    Advisory,
    BuzzerFrame,
    UpperLevel,
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
)
from ultranav.geometry import (
    Aim,
    GeometryError,
    GroundSegment,
    Rect,
    SagittalScene,
    cone_min_distance,
    overlap_distance,
)
from ultranav import pipeline
from ultranav.pipeline import (
    _MEMO_SIZE,
    MAX_TICKS,
    SENSOR_ORDER,
    TICK_MS,
    FrameOutput,
    PipelineError,
    SimConfig,
    TickFlags,
    TickState,
    TrajectorySegment,
    _frame,
    fuse,
    run_scenario,
    sense,
    tick,
    trajectory_ticks,
)
from ultranav.sensing import (
    MAX_RANGE_CM,
    MIN_RANGE_CM,
    Calibration,
    SensorName,
    default_sensors,
    measure,
    sound_speed,
)

from ultranav.cli import format_trace, parse_scenario

from test_geometry import _NUDGE, _obstacles, _positions, _profiles, _scene
from test_stateful import check_rows, walk_speeds


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def stand(seconds=0.15):
    return [TrajectorySegment(0.0, seconds)]


def tick_at(scene, x, config=SimConfig(), speed=0.0, tick_index=0):
    """The row of one tick at x from a fresh state: `sense`, then `tick` on what it sensed."""
    return tick(TickState(), sense(scene, x, config), x, speed, config.debounce_ticks,
                tick_index)[0]


class TestTick:
    def test_empty_scene_is_all_quiet(self):
        frame = tick_at(SagittalScene(), 0.0)
        assert frame.frame == BuzzerFrame()
        assert frame.advisory == Advisory.MOVE_FORWARD
        assert not frame.flags.upstairs and not frame.flags.downstep

    def test_wall_at_chest_band_one(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        frames = run_scenario(scene, stand(), SimConfig())
        last = frames[-1]
        assert last.frame.brzC == 1
        assert last.frame.brzK == 0  # wall is beyond the knee channel's 60 cm band
        assert last.frame.brzT == 0
        assert last.advisory == Advisory.MOVE_FORWARD_CAUTION

    def test_deep_pothole_stops_immediately(self):
        scene = SagittalScene((), (GroundSegment(-100, 100, -50.0),))
        frames = run_scenario(scene, stand(), SimConfig())
        assert frames[0].frame.brzP == 3
        assert frames[-1].advisory == Advisory.STOP_IMMEDIATELY

    def test_user_advances_by_speed_times_period(self):
        frames = run_scenario(SagittalScene(), [TrajectorySegment(140.0, 0.3)], SimConfig())
        assert frames[0].user_x == 0.0
        assert frames[1].user_x == pytest.approx(4.2)
        assert frames[5].user_x == pytest.approx(21.0)

    def test_downward_no_echo_reads_as_unbounded_hazard(self):
        scene = SagittalScene((), (GroundSegment(-100, 100, -400.0),))
        frame = tick_at(scene, 0.0)
        assert frame.readings[SensorName.ARCH] is None
        assert frame.frame.brzP == 3

    @pytest.mark.parametrize("x", [2e7, -2e7], ids=["2e7", "-2e7"])
    def test_far_start_stands_on_flat_ground(self, x):
        # Terrain outside the authored segments is flat ground without end,
        # however far from the origin the walker stands.
        frame = tick_at(SagittalScene(), x, speed=140.0)
        assert (frame.d_down, frame.frame.brzP, frame.advisory) == (10.0, 0, Advisory.MOVE_FORWARD)


# Firing order, written out rather than taken from the pipeline.
_ORDER = (SensorName.CHEST, SensorName.KNEE, SensorName.TOE, SensorName.ARCH)
_TEMPS = st.one_of(
    st.sampled_from([-90.0, -40.0, 0.0, 20.0, 20.0, 37.5, 60.0]),
    st.floats(-90.0, 60.0),
)
_CALIBRATIONS = st.one_of(
    st.just(Calibration()),
    st.builds(Calibration, gain=st.floats(0.5, 2.0), offset=st.floats(-5.0, 5.0)),
)


class TestLeanTick:
    """The tick's sensors in firing order and single terrain read give `measure`'s readings."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _profiles(), _obstacles(), _TEMPS, _TEMPS, _CALIBRATIONS)
    def test_each_distance_equals_measure(
        self, data, ground, obstacles, temp_actual, temp_cal, calib
    ):
        scene = _scene(ground, obstacles)
        xs, zs = _positions(ground, obstacles)
        x = data.draw(st.sampled_from(xs)) + data.draw(_NUDGE)
        # SENSOR overrides put mounts on, near and below faces and terrain.
        heights = st.builds(lambda z, n: z + n, st.sampled_from(zs), _NUDGE).filter(
            lambda h: h > 0.0
        )
        mounts = data.draw(st.dictionaries(st.sampled_from(_ORDER), heights))
        sensors = [
            spec._replace(mount_height=mounts.get(spec.name, spec.mount_height))
            for spec in default_sensors()
        ]
        config = SimConfig(
            sensors=tuple(data.draw(st.permutations(sensors))),
            temp_actual=temp_actual,
            temp_cal=temp_cal,
            calibration=calib,
        )
        expected = []
        for name, spec in zip(_ORDER, config.sensors):
            assert spec.name is name
            try:
                reading = measure(scene, spec, x, temp_actual, temp_cal, calib)
            except GeometryError as exc:
                with pytest.raises(GeometryError) as raised:
                    sense(scene, x, config)
                assert str(raised.value) == str(exc)
                return
            # The echo model written out, in the order the trace depends on.
            aim = Aim.DOWN if name is SensorName.ARCH else Aim.FORWARD
            true = cone_min_distance(scene, (x, spec.mount_height), aim)
            if true is None or true > MAX_RANGE_CM:
                assert reading is None
            else:
                raw = calib.gain * (true * sound_speed(temp_cal) / sound_speed(temp_actual))
                raw += calib.offset
                assert reading == min(max(raw, MIN_RANGE_CM), MAX_RANGE_CM)
            expected.append(reading)
        frame = tick_at(scene, x, config)
        assert [frame.d_chest, frame.d_knee, frame.d_toe, frame.d_down] == expected
        assert frame.readings == dict(zip(_ORDER, expected))

    def test_replace_resolves_its_own_sound_speeds(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        base = SimConfig()
        cold = tick_at(scene, 0.0, base)
        warm_config = base._replace(temp_actual=40.0)
        warm = tick_at(scene, 0.0, warm_config)
        chest = base.sensors[0]
        assert cold.d_chest == measure(scene, chest, 0.0) == 100.0
        assert warm.d_chest == measure(scene, chest, 0.0, temp_actual=40.0) < 100.0
        assert warm_config.sound_speeds == (sound_speed(20.0), sound_speed(40.0))

    @pytest.mark.parametrize(
        "step,toe_height,origin_z,aim",
        [
            (60.0, 5.0, 50.0, Aim.FORWARD),
            (12.0, 5.0, 5.0, Aim.FORWARD),
            (12.0, 20.0, 10.0, Aim.DOWN),
        ],
        ids=["knee-first", "toe-before-arch", "arch-only"],
    )
    def test_first_mount_below_ground_raises(self, step, toe_height, origin_z, aim):
        # Mounts are checked in firing order: chest, knee, toe, arch.
        scene = SagittalScene((), (GroundSegment(-10, 10, step),))
        sensors = tuple(
            s._replace(mount_height=toe_height) if s.name is SensorName.TOE else s
            for s in default_sensors()
        )
        with pytest.raises(GeometryError) as direct:
            cone_min_distance(scene, (0.0, origin_z), aim)
        with pytest.raises(GeometryError) as raised:
            sense(scene, 0.0, SimConfig(sensors=sensors))
        assert str(raised.value) == str(direct.value)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.floats(-60.0, 200.0))
    def test_first_mount_below_ground_raises_anywhere(self, data, step):
        # Mounts are checked in firing order: chest, knee, toe, arch.  The
        # heights cluster around the step, within and past _EPS of it.
        scene = SagittalScene((), (GroundSegment(-10, 10, step),))
        x = data.draw(st.sampled_from([-10.0, 0.0, 10.0])) + data.draw(_NUDGE)
        heights = st.one_of(
            st.builds(lambda n: step + n, _NUDGE | st.floats(-30.0, 30.0)), st.floats(0.1, 250.0)
        ).filter(lambda h: h > 0.0)
        sensors = [s._replace(mount_height=data.draw(heights)) for s in default_sensors()]
        config = SimConfig(sensors=tuple(data.draw(st.permutations(sensors))))
        for name, spec in zip(_ORDER, config.sensors):
            aim = Aim.DOWN if name is SensorName.ARCH else Aim.FORWARD
            try:
                cone_min_distance(scene, (x, spec.mount_height), aim)
            except GeometryError as exc:
                with pytest.raises(GeometryError) as raised:
                    sense(scene, x, config)
                assert str(raised.value) == str(exc)
                return
        sense(scene, x, config)


# Steps of 0.63, 3, 4.2 and 15 cm: only 3 and 15 are exact in binary.
_SPEEDS = st.sampled_from([21.0, 100.0, 140.0, 500.0])


@st.composite
def _revisiting_walks(draw):
    """Stands, forward-and-back pairs over the same number of ticks, and
    single segments, at mixed speeds in both directions."""
    walk = []
    for _ in range(draw(st.integers(1, 4))):
        speed = draw(_SPEEDS) * draw(st.sampled_from([1.0, -1.0]))
        duration = draw(st.integers(1, 12)) * TICK_MS / 1000.0
        kind = draw(st.sampled_from(["stand", "pair", "single"]))
        if kind == "stand":
            walk.append(TrajectorySegment(0.0, duration))
        elif kind == "pair":
            walk += [TrajectorySegment(speed, duration), TrajectorySegment(-speed, duration)]
        else:
            walk.append(TrajectorySegment(speed, duration))
    return walk


def _exact_positions(walk):
    """The exact position at each tick of `walk`: the sum of the steps before it."""
    positions, exact = [], Fraction(0)
    for segment, count in zip(walk, trajectory_ticks(walk)):
        for _ in range(count):
            positions.append(exact)
            exact += Fraction(segment.speed) * TICK_MS / 1000
    return positions


def _walk_positions(walk):
    """x at each tick of `walk`: the exact sum of the steps before it, rounded once."""
    return [float(exact) for exact in _exact_positions(walk)]


def _check_rows(scene, config, rows):
    """Each row's readings are `measure`'s at its x, and its levels the classifiers'."""
    for row in rows:
        readings = [
            measure(scene, spec, row.user_x, config.temp_actual, config.temp_cal,
                    config.calibration)
            for spec in config.sensors
        ]
        assert [row.d_chest, row.d_knee, row.d_toe, row.d_down] == readings
        chest, knee, toe, down = readings
        depth = math.inf if down is None else down - config.sensors[3].mount_height
        assert row.frame == (
            classify_chest(chest), classify_knee(knee), classify_toe(toe), classify_depth(depth)
        )


class TestSensingMemo:
    """A walk that revisits positions reads at each what a fresh sense would."""

    @settings(max_examples=150, deadline=None)
    @given(_profiles(), _obstacles(), _revisiting_walks(), _TEMPS, _CALIBRATIONS)
    def test_revisiting_walk_equals_measure(self, ground, obstacles, walk, temp_actual, calib):
        scene = _scene(ground, obstacles)
        config = SimConfig(temp_actual=temp_actual, calibration=calib)
        xs = _walk_positions(walk)
        for x in xs:
            try:
                for spec in config.sensors:
                    measure(scene, spec, x, temp_actual, config.temp_cal, calib)
            except GeometryError as exc:
                # The first position with a mount below ground stops the run.
                with pytest.raises(GeometryError) as raised:
                    run_scenario(scene, walk, config)
                assert str(raised.value) == str(exc)
                return
        rows = run_scenario(scene, walk, config)
        assert [row.user_x for row in rows] == xs
        _check_rows(scene, config, rows)
        check_rows(rows, walk_speeds(walk), config.debounce_ticks)

    @staticmethod
    def count_sense(monkeypatch):
        """The x of each `sense` call the run makes, in order."""
        calls = []

        def counting(scene, x, config):
            calls.append(x)
            return sense(scene, x, config)

        monkeypatch.setattr(pipeline, "sense", counting)
        return calls

    def test_back_and_forth_senses_each_position_once(self, monkeypatch):
        # 3 cm steps, exact in binary: each return lands on the same floats.
        scene = SagittalScene((Rect(100, 102, 0, 200),), (GroundSegment(30, 50, -5.0),))
        walk = [TrajectorySegment(100.0, 0.6), TrajectorySegment(-100.0, 0.6)] * 3
        calls = self.count_sense(monkeypatch)
        rows = run_scenario(scene, walk, SimConfig())
        assert len(rows) == 120
        assert len(calls) == len(set(calls)) == len({row.user_x for row in rows}) == 21

    def test_memo_is_bounded(self, monkeypatch):
        # Out over more distinct positions than the memo holds, then back
        # over positions it still holds and positions it has dropped, past
        # holes and head-height blocks all the way.
        scene = SagittalScene(
            tuple(Rect(x, x + 5, 160, 200) for x in range(90, 13000, 250)),
            tuple(GroundSegment(x, x + 20, -5.0 - x % 45) for x in range(40, 13000, 100)),
        )
        walk = [
            TrajectorySegment(100.0, (_MEMO_SIZE + 100) * TICK_MS / 1000.0),
            TrajectorySegment(-100.0, 200 * TICK_MS / 1000.0),
        ]
        config = SimConfig()
        rows = run_scenario(scene, walk, config)
        assert len({row.user_x for row in rows}) > _MEMO_SIZE
        assert len({row.d_chest for row in rows}) > 100
        _check_rows(scene, config, rows)
        check_rows(rows, walk_speeds(walk), config.debounce_ticks)
        # Each run senses what a dict cleared at _MEMO_SIZE positions misses.
        calls = self.count_sense(monkeypatch)
        assert run_scenario(scene, walk, config) == rows
        kept, misses = set(), []
        for row in rows:
            if row.user_x not in kept:
                if len(kept) >= _MEMO_SIZE:
                    kept.clear()
                kept.add(row.user_x)
                misses.append(row.user_x)
        assert calls == misses
        assert len(misses) > len({row.user_x for row in rows})


class TestPositions:
    """Each tick's x is the exact sum of the steps before it, rounded once."""

    def test_retraced_walk_lands_on_the_same_floats(self, monkeypatch):
        # 4.8387 cm steps, not exact in binary: summed tick by tick in
        # floats, the way back would miss the way out in the last bits.
        scene = SagittalScene((Rect(1200, 1202, 0, 200),), (GroundSegment(300, 340, -15.0),))
        n = 200
        walk = [TrajectorySegment(speed, n * TICK_MS / 1000) for speed in (161.29, -161.29)]
        calls = TestSensingMemo.count_sense(monkeypatch)
        rows = run_scenario(scene, walk, SimConfig())
        xs = [row.user_x.hex() for row in rows]
        assert xs[n + 1:] == xs[1:n][::-1]
        assert len(calls) == len(set(calls)) == n + 1
        assert [x.hex() for x in _walk_positions(walk)] == xs

    def test_long_segment_does_not_drift(self):
        walk = [TrajectorySegment(161.29, 10_000 * TICK_MS / 1000)]
        rows = run_scenario(SagittalScene(), walk, SimConfig())
        assert len(rows) == 10_000
        step = Fraction(161.29) * TICK_MS / 1000
        for k in (1, 999, 5_000, 9_999):
            assert rows[k].user_x == float(k * step)
        assert [row.user_x for row in rows] == _walk_positions(walk)

    def test_subnormal_and_full_speeds_mix_exactly(self):
        # The subnormal speed's denominator is 2**1074, so the position is
        # an int of about 1,100 bits; every x still comes out finite and exact.
        walk = [
            TrajectorySegment(5e-324, 0.09),
            TrajectorySegment(500.0, 0.09),
            TrajectorySegment(5e-324, 0.06),
            TrajectorySegment(-500.0, 0.15),
            TrajectorySegment(-5e-324, 0.03),
        ]
        rows = run_scenario(SagittalScene(), walk, SimConfig())
        xs = [row.user_x for row in rows]
        assert all(math.isfinite(x) for x in xs)
        assert [x.hex() for x in xs] == [x.hex() for x in _walk_positions(walk)]
        assert xs[3:6] == [0.0, 15.0, 30.0]
        assert xs[8:13] == [45.0, 30.0, 15.0, 0.0, -15.0]

    def test_subnormal_steps_are_each_sensed_once(self, monkeypatch):
        # A subnormal step moves the position but not its float: the memo
        # keeps each step count, so positions that round to one x are each
        # sensed once, and read alike.  The head-height block arms the
        # step-back check, the way back infers, and the subnormal advance
        # clears it.
        scene = SagittalScene((Rect(180, 190, 170, 200),), (GroundSegment(40, 50, -15.0),))
        walk = [
            TrajectorySegment(5e-324, 0.09),
            TrajectorySegment(500.0, 0.27),
            TrajectorySegment(-5e-324, 0.06),
            TrajectorySegment(-500.0, 0.15),
            TrajectorySegment(5e-324, 0.06),
            TrajectorySegment(500.0, 0.15),
        ]
        positions = _exact_positions(walk)
        calls = TestSensingMemo.count_sense(monkeypatch)
        config = SimConfig()
        rows = run_scenario(scene, walk, config)
        assert sorted(calls) == sorted(float(exact) for exact in set(positions))
        assert len(set(calls)) < len(calls)
        readings = {}
        for row in rows:
            assert readings.setdefault(row.user_x, row[3:8]) == row[3:8]
        assert {row.flags.inferred for row in rows} == {None, UpperLevel.HEAD}
        check_rows(rows, walk_speeds(walk), config.debounce_ticks)

    def test_speeds_of_other_number_types(self):
        # numpy's ints have no `as_integer_ratio`; the run takes each speed as a float.
        np = pytest.importorskip("numpy")
        walk = [TrajectorySegment(np.int64(100), 0.09), TrajectorySegment(np.float32(-50.5), 0.06)]
        rows = run_scenario(SagittalScene(), walk, SimConfig())
        assert [row.user_x for row in rows] == [0.0, 3.0, 6.0, 9.0, 7.485]


class TestSharedRows:
    """Rows are immutable named tuples; equal levels and flags share one object."""

    def test_equal_levels_share_frame_and_flags(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        a, b = run_scenario(scene, stand(0.06), SimConfig())
        (c,) = run_scenario(scene, stand(0.03), SimConfig(temp_actual=25.0))
        assert a.d_chest != c.d_chest
        assert a.frame is b.frame is c.frame
        assert a.flags is b.flags is c.flags
        assert a.frame == BuzzerFrame(brzC=1) and a.flags == TickFlags()

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_levels_and_flags_keep_their_types(self, path):
        # Cache keys that compare equal share an entry (True == 1), so a
        # level or bit built as a bool would be handed to later ticks.
        for f in run_scenario(*parse_scenario(path.read_text())):
            assert {type(level) for level in (f.frame.brzC, f.frame.brzK, f.frame.brzT, f.frame.brzP)} == {int}
            assert type(f.flags.upstairs) is bool and type(f.flags.downstep) is bool
            assert type(f.flags.knee_bit) is int and type(f.flags.toe_bit) is int

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_rows_carry_the_flags_sense_built(self, path):
        # A row with nothing inferred carries the very flags object `sense`
        # returned at its x; an inferred row keeps its first four fields.
        scene, walk, config = parse_scenario(path.read_text())
        rows = run_scenario(scene, walk, config)
        inferred = [row for row in rows if row.flags.inferred is not None]
        assert bool(inferred) == (path.stem == "waist_probe")
        for row in rows:
            flags = sense(scene, row.user_x, config)[5]
            assert flags.inferred is None
            if row.flags.inferred is None:
                assert row.flags is flags
            else:
                assert row.flags[:4] == flags[:4]

    def test_out_of_range_level_raises_on_every_call(self):
        size = _frame.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="brzC out of range: 5"):
                _frame(5, 0, 0, 0)
            with pytest.raises(ValueError, match="brzP out of range: -1"):
                _frame(0, 0, 0, -1)
        assert _frame.cache_info().currsize == size

    def test_rows_are_frame_outputs(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), (GroundSegment(-10, 10, -25.0),))
        row = tick_at(scene, 0.0, tick_index=3)
        for r in [row, *run_scenario(scene, stand(0.09), SimConfig())]:
            assert type(r) is FrameOutput and r._fields == FrameOutput._fields
            assert r == FrameOutput(*r)
            moved = r._replace(advisory=Advisory.STOP_IMMEDIATELY)
            assert type(moved) is FrameOutput
            assert moved[:8] == r[:8] and moved.flags is r.flags
            assert moved.advisory is Advisory.STOP_IMMEDIATELY
            assert r.readings == dict(zip(SENSOR_ORDER, r[3:7]))

    def test_rows_are_immutable(self):
        row = tick_at(SagittalScene(), 0.0)
        with pytest.raises(AttributeError):
            row.advisory = Advisory.STOP_IMMEDIATELY
        with pytest.raises(AttributeError):
            row.note = "extra"
        with pytest.raises(AttributeError):
            row.frame.brzC = 4
        with pytest.raises(AttributeError):
            row.flags.upstairs = True

    def test_fields_and_readings(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), (GroundSegment(-10, 10, -25.0),))
        row = tick_at(scene, 0.0, tick_index=3)
        assert row._fields == (
            "tick", "t_ms", "user_x", "d_chest", "d_knee", "d_toe", "d_down",
            "frame", "advisory", "flags",
        )
        assert (row.tick, row.t_ms, row.user_x) == (3, 90, 0.0)
        assert type(row.t_ms) is int
        assert row.readings == {
            SensorName.CHEST: 100.0,
            SensorName.KNEE: 100.0,
            SensorName.TOE: 100.0,
            SensorName.ARCH: 35.0,
        }
        assert list(row.readings) == list(_ORDER)


class TestFuse:
    def test_priority_order(self):
        quiet = TickFlags()
        assert fuse(BuzzerFrame(brzP=3), quiet._replace(upstairs=True)) == Advisory.STOP_IMMEDIATELY
        assert fuse(BuzzerFrame(brzP=2), quiet._replace(upstairs=True)) == Advisory.ALTERNATE_PATH
        assert fuse(BuzzerFrame(), quiet._replace(upstairs=True, knee_bit=1, toe_bit=1)) == Advisory.UP_STAIRS_AHEAD
        assert (
            fuse(BuzzerFrame(brzC=1), quiet._replace(inferred=UpperLevel.WAIST))
            == Advisory.UPPER_OBSTACLE_WAIST
        )
        assert fuse(BuzzerFrame(brzK=1), quiet._replace(knee_bit=1)) == Advisory.KNEE_OBSTACLE_AHEAD
        assert fuse(BuzzerFrame(brzT=1), quiet._replace(toe_bit=1)) == Advisory.TOE_OBSTACLE_AHEAD
        assert fuse(BuzzerFrame(brzC=1), quiet) == Advisory.MOVE_FORWARD_CAUTION
        assert fuse(BuzzerFrame(), quiet._replace(downstep=True)) == Advisory.MOVE_FORWARD_CAUTION
        assert fuse(BuzzerFrame(), quiet) == Advisory.MOVE_FORWARD

    def test_any_active_level_cautions(self):
        # A lone active level, on any channel, with no flag set.
        assert fuse(BuzzerFrame(), TickFlags()) == Advisory.MOVE_FORWARD
        for channel in BuzzerFrame._fields:
            frame = BuzzerFrame(**{channel: 1})
            assert fuse(frame, TickFlags()) == Advisory.MOVE_FORWARD_CAUTION

    def test_knee_beats_toe_when_both_flagged(self):
        flags = TickFlags(knee_bit=1, toe_bit=1, upstairs=False)
        assert fuse(BuzzerFrame(brzK=1, brzT=1), flags) == Advisory.KNEE_OBSTACLE_AHEAD

    def test_cached_verdict_is_the_uncached_one(self):
        # Every valid pair: 320 levels by 80 flags.
        frames = [BuzzerFrame(*levels)
                  for levels in itertools.product(range(5), range(4), range(4), range(4))]
        flags = [TickFlags(*values) for values in itertools.product(
            (False, True), (0, 1), (0, 1), (False, True), (None, *UpperLevel))]
        assert (len(frames), len(flags)) == (320, 80)
        for frame in frames:
            for f in flags:
                assert fuse(frame, f) is fuse.__wrapped__(frame, f)
        # Keys that compare equal share an entry, and a verdict.
        assert fuse(BuzzerFrame(True), TickFlags(1)) is fuse.__wrapped__(BuzzerFrame(1), TickFlags(True))


class TestDebounce:
    def test_advisory_waits_for_persistence(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        frames = run_scenario(scene, stand(), SimConfig(debounce_ticks=3))
        advisories = [f.advisory for f in frames]
        assert advisories[0] == Advisory.MOVE_FORWARD
        assert advisories[1] == Advisory.MOVE_FORWARD
        assert advisories[2] == Advisory.MOVE_FORWARD_CAUTION

    def test_raw_levels_are_never_debounced(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        frames = run_scenario(scene, stand(), SimConfig(debounce_ticks=5))
        assert frames[0].frame.brzC == 1

    def test_debounce_one_commits_immediately(self):
        scene = SagittalScene((Rect(100, 102, 0, 200),), ())
        frames = run_scenario(scene, stand(), SimConfig(debounce_ticks=1))
        assert frames[0].advisory == Advisory.MOVE_FORWARD_CAUTION


class TestScenarioRun:
    def test_single_tick_empty_scene(self):
        frames = run_scenario(SagittalScene(), [TrajectorySegment(0.0, 0.03)], SimConfig())
        assert len(frames) == 1
        assert frames[0].advisory == Advisory.MOVE_FORWARD

    def test_walk_toward_wall_first_warning_tick(self):
        scene = SagittalScene((Rect(300, 302, 0, 200),), ())
        frames = run_scenario(scene, [TrajectorySegment(140.0, 2.1)], SimConfig())
        first = next(f.tick for f in frames if f.frame.brzC >= 1)
        assert abs(first - 36) <= 1

    def test_determinism_bytes(self):
        scene = SagittalScene(
            (Rect(150, 152, 0, 200),), (GroundSegment(200, 260, -25.0),)
        )
        trajectory = [TrajectorySegment(120.0, 1.5), TrajectorySegment(-40.0, 0.5)]
        a = format_trace(run_scenario(scene, trajectory, SimConfig()))
        b = format_trace(run_scenario(scene, trajectory, SimConfig()))
        assert a.encode() == b.encode()

    def test_empty_trajectory_rejected(self):
        with pytest.raises(PipelineError):
            run_scenario(SagittalScene(), [], SimConfig())

    def test_latency_gives_warning_time(self):
        # At walking pace the chest channel's outer band buys >= 25 ticks
        # before an obstacle reaches the innermost band.
        for speed in (100.0, 120.0, 140.0):
            scene = SagittalScene((Rect(320, 322, 0, 220),), ())
            frames = run_scenario(scene, [TrajectorySegment(speed, 3.0)], SimConfig())
            first_warn = next(f.tick for f in frames if f.frame.brzC >= 1)
            first_close = next(
                f.tick
                for f in frames
                if f.readings[SensorName.CHEST] is not None
                and f.readings[SensorName.CHEST] <= 40.0
            )
            assert first_close - first_warn >= 25

    def test_chest_never_sees_below_knee_coverage_inside_band(self):
        # Objects entirely below the knee cone cannot trip the chest channel
        # within its 150 cm band: the cones only overlap past 186 cm.
        assert overlap_distance(150.0, 50.0) > 150.0
        low = SagittalScene((Rect(60, 70, 0, 45),), ())
        frames = run_scenario(low, stand(), SimConfig())
        assert all(f.frame.brzC == 0 for f in frames)


class TestDisambiguation:
    def scene(self):
        # Tall block whose top sits at 120 cm: the chest cone loses it on
        # approach and re-acquires it when stepping back.
        return SagittalScene((Rect(200, 210, 0, 120),), ())

    def test_waist_inference_on_move_back(self):
        trajectory = [TrajectorySegment(100.0, 1.05), TrajectorySegment(-50.0, 0.6)]
        frames = run_scenario(self.scene(), trajectory, SimConfig())
        inferred = [f.flags.inferred for f in frames if f.flags.inferred is not None]
        assert inferred and all(v == UpperLevel.WAIST for v in inferred)
        assert any(f.advisory == Advisory.UPPER_OBSTACLE_WAIST for f in frames)

    def test_no_reactivation_keeps_inferred_none(self):
        trajectory = [TrajectorySegment(100.0, 1.05)]
        frames = run_scenario(self.scene(), trajectory, SimConfig())
        assert all(f.flags.inferred is None for f in frames)

    def test_reset_when_reactivating_while_advancing(self):
        trajectory = [
            TrajectorySegment(100.0, 1.05),
            TrajectorySegment(-50.0, 0.6),
            TrajectorySegment(100.0, 0.6),
        ]
        frames = run_scenario(self.scene(), trajectory, SimConfig())
        assert frames[-1].flags.inferred is None


class TestConfigValidation:
    def test_duplicate_sensor_rejected(self):
        sensors = SimConfig().sensors
        with pytest.raises(PipelineError):
            SimConfig(sensors=(sensors[0],) * 4)

    def test_sensors_are_stored_in_firing_order(self):
        sensors = default_sensors()
        assert SENSOR_ORDER == _ORDER == tuple(s.name for s in sensors)
        for order in itertools.permutations(sensors):
            assert SimConfig(sensors=order).sensors == sensors
        assert SimConfig(sensors=list(reversed(sensors))).sensors == sensors

    def test_huge_int_settings_run(self):
        # An int is finite however large, even past the float range.
        config = SimConfig(debounce_ticks=10**400)
        frames = run_scenario(SagittalScene((Rect(100, 102, 0, 200),), ()), stand(), config)
        assert all(f.frame.brzC == 1 for f in frames)
        assert all(f.advisory == Advisory.MOVE_FORWARD for f in frames)

    @pytest.mark.parametrize(
        "value,shown",
        [(1.5, "1.5"), (2.0, "2.0"), (True, "True"), (False, "False"), ("2", "'2'"),
         pytest.param(-10**5000, "an int below -10**99", id="-10**5000")],
    )
    def test_debounce_ticks_is_an_int_of_at_least_one(self, value, shown):
        message = f"debounce_ticks must be an int >= 1, got {shown}"
        with pytest.raises(PipelineError, match=re.escape(message)):
            SimConfig(debounce_ticks=value)

    def test_speed_sanity_bound(self):
        for speed in (600.0, -501.0):
            with pytest.raises(PipelineError):
                TrajectorySegment(speed, 1.0)

    def test_total_ticks_bounds(self, monkeypatch):
        at_cap = [TrajectorySegment(100.0, 10000.0), TrajectorySegment(-100.0, 20000.0)]
        counts = trajectory_ticks(at_cap)
        assert counts == [333333, 666667] and sum(counts) == MAX_TICKS
        with pytest.raises(PipelineError, match="must last 1 to"):
            trajectory_ticks([TrajectorySegment(100.0, 30000.03)])
        # Each segment rounds to 0 ticks although together they last 1.2.
        short = [TrajectorySegment(100.0, 0.012)] * 3
        message = ("the walk rounds to 0 whole ticks of 30 ms, segment by segment;"
                   " it must last 1 to 1000000 ticks")
        with pytest.raises(PipelineError, match=re.escape(message)):
            trajectory_ticks(short)
        # 19 segments of 0.503 ticks, 9.57 in all, round to 19 whole ticks,
        # past a cap of 10.
        monkeypatch.setattr(pipeline, "MAX_TICKS", 10)
        assert trajectory_ticks([TrajectorySegment(1.0, 0.0151)] * 10) == [1] * 10
        with pytest.raises(PipelineError, match="rounds to 19 whole ticks .* 1 to 10 ticks$"):
            trajectory_ticks([TrajectorySegment(1.0, 0.0151)] * 19)

    @pytest.mark.parametrize("name", ["tick_ms", "start_x", "jitter_cm", "seed"])
    def test_removed_settings_are_unknown_keywords(self, name):
        with pytest.raises(TypeError, match=name):
            SimConfig(**{name: 1})

    @pytest.mark.parametrize(
        "speed,duration",
        [(math.nan, 0.09), (140.0, math.nan), pytest.param(0.0, 10**400, id="int-past-float")],
    )
    def test_nan_segment_rejected(self, speed, duration):
        with pytest.raises(PipelineError):
            TrajectorySegment(speed, duration)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            *(
                pytest.param(name, value, "must be finite", id=f"{name}-{value}")
                for name, value in (("temp_actual", math.inf), ("temp_cal", math.inf))
            ),
            # A count is an int, so a non-finite float fails as a non-int.
            *(
                pytest.param("debounce_ticks", value, f"must be an int >= 1, got {value}",
                             id=f"debounce_ticks-{value}")
                for value in (math.nan, math.inf)
            ),
            # An int past the float range in a setting read as a float.
            *(
                pytest.param(name, sign * 10**400, "must be finite", id=f"{name}-{sign_id}10**400")
                for name in ("temp_actual", "temp_cal")
                for sign, sign_id in ((1, ""), (-1, "-"))
            ),
            # A finite temperature past the air range.
            *(
                pytest.param(name, 1e308, "must be from -90 to 60 C", id=f"{name}-1e308")
                for name in ("temp_actual", "temp_cal")
            ),
        ],
    )
    def test_non_finite_settings_rejected(self, name, value, message):
        with pytest.raises(PipelineError, match=f"{name} {message}"):
            SimConfig(**{name: value})

