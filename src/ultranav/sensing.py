"""Sensor models: range gating, temperature bias, and linear calibration."""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from ._record import Record, check_finite
from .geometry import Aim, SagittalScene, cone_min_distance


class SensingError(ValueError):
    """Invalid sensor configuration or calibration data."""


class SensorName(Enum):
    CHEST = "chest"
    KNEE = "knee"
    TOE = "toe"
    ARCH = "arch"


# Speed of sound in air (cm/s) at 0 C, and its rise per degree C.
_SOUND_SPEED_0C = 33130.0
_SOUND_SPEED_PER_C = 60.6

# The air temperatures (C) the model takes, just past the recorded
# extremes of -89.2 and 56.7 C.
AIR_TEMP_RANGE_C = (-90.0, 60.0)


def sound_speed(temp_c: float) -> float:
    """Speed of sound in air, cm/s, linear in temperature."""
    return _SOUND_SPEED_0C + _SOUND_SPEED_PER_C * temp_c


class Calibration(Record, namedtuple("Calibration", "gain offset")):
    """Linear device response: measured = gain * actual + offset (cm)."""

    __slots__ = ()

    def __new__(cls, gain: float = 1.0, offset: float = 0.0):
        if not gain > 0.0:
            raise SensingError(f"calibration gain must be > 0, got {gain}")
        check_finite(SensingError, "calibration gain", gain)
        check_finite(SensingError, "calibration offset", offset)
        return tuple.__new__(cls, (gain, offset))


IDENTITY_CALIBRATION = Calibration()


# Every module's range (cm).
MIN_RANGE_CM = 3.0
MAX_RANGE_CM = 300.0


class SensorSpec(Record, namedtuple("SensorSpec", "name mount_height sarl")):
    """Where one module sits; every module has the same beam and range.

    `aim` follows from the name: the arch sensor faces down, the rest
    forward.  It is not a field, so `_replace(aim=...)` raises (ValueError,
    or TypeError from Python 3.13).
    `mount_height` must be finite and > 0.  `sarl` must be finite and is
    validated (MIN_RANGE_CM < sarl <= MAX_RANGE_CM for a forward sensor,
    > 0 for a down one) but read by nothing else: the buzzer bands are the
    fixed tables in `classify`.
    """

    __slots__ = ()

    def __new__(cls, name: SensorName, mount_height: float, sarl: float):
        if not isinstance(name, SensorName):
            raise SensingError(f"sensor name must be a SensorName, got {name!r}")
        if not mount_height > 0.0:
            raise SensingError(f"{name.value}: mount_height must be > 0, got {mount_height}")
        check_finite(SensingError, f"{name.value}: mount_height", mount_height)
        check_finite(SensingError, f"{name.value}: sarl", sarl)
        if name is not SensorName.ARCH and not MIN_RANGE_CM < sarl <= MAX_RANGE_CM:
            raise SensingError(f"{name.value}: need {MIN_RANGE_CM:g} < sarl <= {MAX_RANGE_CM:g}")
        if name is SensorName.ARCH and not sarl > 0.0:
            raise SensingError(f"{name.value}: sarl must be > 0")
        return tuple.__new__(cls, (name, mount_height, sarl))

    @property
    def aim(self) -> Aim:
        return Aim.DOWN if self.name is SensorName.ARCH else Aim.FORWARD


def default_sensors() -> tuple:
    """Default four-sensor rig for a 175 cm user.

    Mount heights chest=150, knee=50, toe=5, arch=10 cm reproduce the
    187 cm chest-knee and 84 cm knee-toe cone overlap distances under a
    30 degree divergence.
    """
    return (
        SensorSpec(SensorName.CHEST, 150.0, sarl=150.0),
        SensorSpec(SensorName.KNEE, 50.0, sarl=60.0),
        SensorSpec(SensorName.TOE, 5.0, sarl=40.0),
        SensorSpec(SensorName.ARCH, 10.0, sarl=10.0),
    )


def measure(
    scene: SagittalScene,
    spec: SensorSpec,
    user_x: float,
    temp_actual: float = 20.0,
    temp_cal: float = 20.0,
    calib: Calibration = IDENTITY_CALIBRATION,
) -> float | None:
    """One echo reading in cm, or None when nothing echoes in range.

    Casts the sensor's cone from (user_x, mount_height) and passes the
    true distance through `echo_reading`.
    """
    true = cone_min_distance(scene, (user_x, spec.mount_height), spec.aim)
    return echo_reading(
        true, sound_speed(temp_cal), sound_speed(temp_actual), calib.gain, calib.offset
    )


def echo_reading(
    true: float | None, c_cal: float, c_actual: float, gain: float, offset: float
) -> float | None:
    """The device's reading of a true echo distance (cm), or None.

    The distance is scaled by the temperature bias factor c_cal / c_actual
    (the device converts time-of-flight with the sound speed it was
    calibrated at), then distorted by the device's linear calibration
    response, gain * distance + offset.  True hits beyond MAX_RANGE_CM are lost; readings are
    clamped into [MIN_RANGE_CM, MAX_RANGE_CM] by two comparisons, which
    give the floats `min(max(...))` would at a fraction of its cost.  The
    product is taken before the quotient, as `true * c_cal / c_actual`: a
    precomputed ratio rounds differently and can move a trace digit.
    """
    if true is None or true > MAX_RANGE_CM:
        return None
    raw = gain * (true * c_cal / c_actual) + offset
    if raw < MIN_RANGE_CM:
        return MIN_RANGE_CM
    return MAX_RANGE_CM if raw > MAX_RANGE_CM else raw


def fit_calibration(pairs) -> Calibration:
    """Least-squares line measured = gain * actual + offset.

    Needs at least two pairs with distinct actual distances.
    """
    pairs = [(float(a), float(m)) for a, m in pairs]
    n = len(pairs)
    if n < 2 or len({a for a, _ in pairs}) < 2:
        raise SensingError(
            "calibration fit needs >= 2 pairs with distinct actual distances"
        )
    mean_a = sum(a for a, _ in pairs) / n
    mean_m = sum(m for _, m in pairs) / n
    try:
        sxx = sum((a - mean_a) ** 2 for a, _ in pairs)
    except OverflowError:  # float ** raises where * gives inf
        raise SensingError("calibration fit is not finite") from None
    sxy = sum((a - mean_a) * (m - mean_m) for a, m in pairs)
    gain = sxy / sxx if sxx > 0.0 else math.nan
    offset = mean_m - gain * mean_a
    if not (math.isfinite(gain) and math.isfinite(offset)):
        raise SensingError("calibration fit is not finite")
    return Calibration(gain=gain, offset=offset)


def correct(calib: Calibration, measured: float) -> float:
    """Invert the calibration line: recover actual from measured."""
    return (measured - calib.offset) / calib.gain


def parse_calibration_text(text: str) -> Calibration:
    """Fit a calibration from `actual_cm measured_cm` lines; '#' comments."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 2:
            raise SensingError(
                f"calibration line {lineno}: expected 'actual measured', got {body!r}"
            )
        try:
            pairs.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise SensingError(
                f"calibration line {lineno}: non-numeric value in {body!r}"
            ) from None
    return fit_calibration(pairs)


def load_calibration(path) -> Calibration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_calibration_text(fh.read())
