import math

import pytest
from hypothesis import example, given, strategies as st

from ultranav.geometry import Aim, Rect, SagittalScene
from ultranav.sensing import (
    MAX_RANGE_CM,
    MIN_RANGE_CM,
    Calibration,
    SensingError,
    SensorName,
    SensorSpec,
    correct,
    default_sensors,
    echo_reading,
    fit_calibration,
    measure,
    parse_calibration_text,
    sound_speed,
)


def spec_by_name(name):
    return {s.name: s for s in default_sensors()}[name]


def wall_scene(distance, thickness=2.0):
    return SagittalScene((Rect(distance, distance + thickness, 0, 300),), ())


class TestMeasure:
    def test_unbiased_wall(self):
        r = measure(wall_scene(100.0), spec_by_name(SensorName.CHEST), 0.0)
        assert r == pytest.approx(100.0)

    def test_temperature_bias(self):
        r = measure(
            wall_scene(150.0),
            spec_by_name(SensorName.CHEST),
            0.0,
            temp_actual=30.0,
            temp_cal=20.0,
        )
        assert r == pytest.approx(150.0 * sound_speed(20.0) / sound_speed(30.0), abs=1e-9)
        assert r == pytest.approx(147.4, abs=0.05)

    def test_beyond_max_range_is_no_echo(self):
        assert measure(wall_scene(350.0), spec_by_name(SensorName.CHEST), 0.0) is None

    def test_below_min_range_clamps(self):
        r = measure(wall_scene(1.0), spec_by_name(SensorName.CHEST), 0.0)
        assert r == pytest.approx(3.0)

    def test_empty_scene_forward_is_no_echo(self):
        for name in (SensorName.CHEST, SensorName.KNEE, SensorName.TOE):
            assert measure(SagittalScene(), spec_by_name(name), 0.0) is None

    def test_down_sensor_reads_mount_height_on_flat_ground(self):
        r = measure(SagittalScene(), spec_by_name(SensorName.ARCH), 0.0)
        assert r == pytest.approx(10.0)

    def test_monotone_in_obstacle_distance(self):
        spec = spec_by_name(SensorName.CHEST)
        readings = [measure(wall_scene(d), spec, 0.0) for d in (250, 180, 120, 60, 20)]
        assert all(a > b for a, b in zip(readings, readings[1:]))

    def test_bias_factor_is_one_at_matched_temperatures(self):
        spec = spec_by_name(SensorName.CHEST)
        for t in (-10.0, 0.0, 20.0, 35.0):
            r = measure(wall_scene(150.0), spec, 0.0, temp_actual=t, temp_cal=t)
            assert r == pytest.approx(150.0, abs=1e-12)

    def test_strictly_decreasing_in_actual_temperature(self):
        spec = spec_by_name(SensorName.CHEST)
        readings = [
            measure(wall_scene(150.0), spec, 0.0, temp_actual=t, temp_cal=20.0)
            for t in range(0, 45, 5)
        ]
        assert all(a > b for a, b in zip(readings, readings[1:]))

    def test_reading_within_range_bounds(self):
        spec = spec_by_name(SensorName.CHEST)
        calib = Calibration(gain=1.2, offset=5.0)
        for d in (2.0, 50.0, 150.0, 290.0):
            r = measure(wall_scene(d), spec, 0.0, calib=calib)
            assert MIN_RANGE_CM <= r <= MAX_RANGE_CM


def _min_max_reading(true, c_cal, c_actual, gain, offset):
    """`echo_reading` as it clamped with min and max."""
    if true is None or true > MAX_RANGE_CM:
        return None
    return min(max(gain * (true * c_cal / c_actual) + offset, MIN_RANGE_CM), MAX_RANGE_CM)


# Each range end and the floats either side of it.
_EDGE_RAWS = [
    raw
    for end in (MIN_RANGE_CM, MAX_RANGE_CM)
    for raw in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))
]


class TestEchoReading:
    @given(
        st.none() | st.floats(0.0, 2 * MAX_RANGE_CM),
        st.floats(30_000.0, 37_000.0),
        st.floats(30_000.0, 37_000.0),
        st.floats(0.01, 100.0),
        st.floats(-400.0, 400.0),
    )
    @example(MAX_RANGE_CM, 1.0, 1.0, 1.0, 0.0)
    @example(math.nextafter(MAX_RANGE_CM, math.inf), 1.0, 1.0, 1.0, 0.0)
    @example(0.0, 1.0, 1.0, 1.0, math.nextafter(MIN_RANGE_CM, -math.inf))
    @example(0.0, 1.0, 1.0, 1.0, MIN_RANGE_CM)
    @example(0.0, 1.0, 1.0, 1.0, math.nextafter(MIN_RANGE_CM, math.inf))
    @example(0.0, 1.0, 1.0, 1.0, math.nextafter(MAX_RANGE_CM, -math.inf))
    @example(0.0, 1.0, 1.0, 1.0, MAX_RANGE_CM)
    @example(0.0, 1.0, 1.0, 1.0, math.nextafter(MAX_RANGE_CM, math.inf))
    def test_equals_the_min_max_clamp(self, true, c_cal, c_actual, gain, offset):
        got = echo_reading(true, c_cal, c_actual, gain, offset)
        want = _min_max_reading(true, c_cal, c_actual, gain, offset)
        assert type(got) is type(want)
        assert want is None or got.hex() == want.hex()

    def test_edges_keep_or_clamp(self):
        # With a true distance of 0, unit sound speeds and gain, the raw
        # reading is the offset itself.
        readings = [echo_reading(0.0, 1.0, 1.0, 1.0, raw) for raw in _EDGE_RAWS]
        assert readings == [MIN_RANGE_CM, MIN_RANGE_CM, *_EDGE_RAWS[2:5], MAX_RANGE_CM]


class TestCalibration:
    def test_identity_fit(self):
        c = fit_calibration([(10, 10), (100, 100), (300, 300)])
        assert c.gain == pytest.approx(1.0, abs=1e-9)
        assert c.offset == pytest.approx(0.0, abs=1e-9)

    def test_constant_offset_fit(self):
        c = fit_calibration([(10, 12), (100, 102), (300, 302)])
        assert c.gain == pytest.approx(1.0, abs=1e-9)
        assert c.offset == pytest.approx(2.0, abs=1e-7)

    def test_gain_fit(self):
        c = fit_calibration([(10, 11), (20, 22), (30, 33)])
        assert c.gain == pytest.approx(1.1, abs=1e-9)
        assert c.offset == pytest.approx(0.0, abs=1e-7)
        assert correct(c, 33.0) == pytest.approx(30.0, abs=1e-7)

    def test_correct_examples(self):
        assert correct(Calibration(), 57.0) == 57.0
        assert correct(Calibration(1.0, 2.0), 102.0) == pytest.approx(100.0)

    def test_degenerate_fit(self):
        with pytest.raises(SensingError):
            fit_calibration([(50, 48), (50, 52)])
        with pytest.raises(SensingError):
            fit_calibration([(50, 48)])
        with pytest.raises(SensingError):
            fit_calibration([(10, float("nan")), (20, 22)])

    @pytest.mark.parametrize(
        "pairs",
        [[(1e200, 1e200), (-1e200, -1e200)], [(1e300, 1), (2, 2)]],
        ids=["squares-overflow", "one-huge-actual"],
    )
    def test_overflowing_fit_rejected(self, pairs):
        with pytest.raises(SensingError, match="calibration fit is not finite"):
            fit_calibration(pairs)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(SensingError):
            Calibration(gain=0.0)

    @pytest.mark.parametrize(
        "gain,offset",
        [
            (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
            pytest.param(10**400, 0.0, id="gain-int-past-float"),
            pytest.param(1.0, -(10**400), id="offset-int-past-float"),
        ],
    )
    def test_non_finite_calibration_rejected(self, gain, offset):
        with pytest.raises(SensingError):
            Calibration(gain=gain, offset=offset)

    @given(
        gain=st.floats(0.5, 2.0),
        offset=st.floats(-10.0, 10.0),
        x=st.floats(5.0, 295.0),
    )
    def test_correct_inverts_exact_line(self, gain, offset, x):
        pairs = [(a, gain * a + offset) for a in (10.0, 80.0, 160.0, 290.0)]
        c = fit_calibration(pairs)
        assert correct(c, gain * x + offset) == pytest.approx(x, abs=1e-6)

    def test_parse_calibration_text(self):
        text = "# bench data\n10 12\n100 102   # mid range\n\n300 302\n"
        c = parse_calibration_text(text)
        assert c.gain == pytest.approx(1.0, abs=1e-9)
        assert c.offset == pytest.approx(2.0, abs=1e-7)

    def test_parse_calibration_bad_line(self):
        with pytest.raises(SensingError, match="line 2"):
            parse_calibration_text("10 12\n100\n")


class TestSensorSpec:
    def test_defaults_are_valid_and_complete(self):
        specs = default_sensors()
        assert sorted(s.name.value for s in specs) == ["arch", "chest", "knee", "toe"]
        arch = spec_by_name(SensorName.ARCH)
        assert arch.aim is Aim.DOWN
        assert arch.sarl == 10.0

    def test_aim_follows_the_name(self):
        for spec in default_sensors():
            assert spec.aim is (Aim.DOWN if spec.name is SensorName.ARCH else Aim.FORWARD)
            assert spec._replace(mount_height=20.0).aim is spec.aim
        arch, chest = spec_by_name(SensorName.ARCH), spec_by_name(SensorName.CHEST)
        # aim is not a field: namedtuple's `_replace` rejects it with
        # ValueError, or with TypeError from Python 3.13.
        with pytest.raises((TypeError, ValueError), match="aim"):
            arch._replace(aim=Aim.FORWARD)
        with pytest.raises((TypeError, ValueError), match="aim"):
            chest._replace(aim=Aim.DOWN)

    @pytest.mark.parametrize(
        "name,height,sarl",
        [
            (SensorName.CHEST, math.inf, 150.0),
            (SensorName.ARCH, math.inf, 10.0),
            (SensorName.ARCH, 10.0, math.inf),
            (SensorName.CHEST, 10**400, 150.0),
            (SensorName.ARCH, 10.0, 10**400),
        ],
        ids=["chest-inf", "arch-inf", "arch-sarl-inf", "chest-int-past-float", "arch-sarl-int-past-float"],
    )
    def test_non_finite_mount_rejected(self, name, height, sarl):
        with pytest.raises(SensingError, match=f"{name.value}: (mount_height|sarl) must be finite"):
            SensorSpec(name, height, sarl)

    @pytest.mark.parametrize("name", ["aim", "half_angle", "min_range", "max_range"])
    def test_one_beam_and_range_for_every_sensor(self, name):
        with pytest.raises(TypeError, match=name):
            SensorSpec(SensorName.CHEST, 150.0, 150.0, **{name: 15.0})

    def test_forward_range_ordering_enforced(self):
        with pytest.raises(SensingError):
            SensorSpec(SensorName.CHEST, 150.0, sarl=400.0)
        with pytest.raises(SensingError):
            SensorSpec(SensorName.CHEST, 150.0, sarl=2.0)
