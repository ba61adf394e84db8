"""The 30 ms tick loop: fire sensors, classify, debounce, fuse advisories."""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, cached_property

from ._record import Record, as_record, check_finite
from .classify import (
    Advisory,
    BuzzerFrame,
    UPPER_OBSTACLE_ADVISORY,
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
    detect_upstairs,
    infer_upper_level,
    is_downstep,
)
from .geometry import SagittalScene
from .sensing import (
    AIR_TEMP_RANGE_C,
    Calibration,
    IDENTITY_CALIBRATION,
    SensorName,
    SensorSpec,
    default_sensors,
    echo_reading,
    sound_speed,
)

MAX_USER_SPEED_CM_S = 500.0

# The tick period (ms), an int so that every t_ms is exact.  Every walk
# starts at x = 0.
TICK_MS = 30

# Longest walk, in ticks before rounding to whole ticks per segment:
# about 8.3 h.
MAX_TICKS = 1_000_000

# Most positions a run keeps sensed readings for (about 0.5 MB); a
# compact course walked back and forth for 3,000 ticks (a perfbench
# `walk_long` job) visits 650 to 750.
_MEMO_SIZE = 4096

# The order the sensors fire in within a tick: SensorName is declared in it.
SENSOR_ORDER = tuple(SensorName)


class PipelineError(ValueError):
    """Invalid simulation configuration or trajectory."""


class TrajectorySegment(Record, namedtuple("TrajectorySegment", "speed duration_s")):
    """Constant-speed stretch of the walk: speed in cm/s (negative = stepping back)."""

    __slots__ = ()

    def __new__(cls, speed: float, duration_s: float):
        if not duration_s > 0.0:
            raise PipelineError("trajectory segment duration must be > 0")
        check_finite(PipelineError, "trajectory segment duration", duration_s)
        if not abs(speed) <= MAX_USER_SPEED_CM_S:
            raise PipelineError(f"|speed| must be <= {MAX_USER_SPEED_CM_S} cm/s")
        return tuple.__new__(cls, (speed, duration_s))


def check_setting(name: str, value) -> None:
    """Raise PipelineError unless `value` is valid for the SimConfig setting `name`.

    `debounce_ticks` is a count, valid as an int (not a bool) of any size
    >= 1.  A temperature must be finite and lie in AIR_TEMP_RANGE_C.
    """
    if name == "debounce_ticks":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            # An int of more than 4,300 digits has no str.
            huge = isinstance(value, int) and value < -10**99
            raise PipelineError("debounce_ticks must be an int >= 1, got "
                                + ("an int below -10**99" if huge else repr(value)))
        return
    check_finite(PipelineError, name, value)
    low, high = AIR_TEMP_RANGE_C
    if not low <= value <= high:
        raise PipelineError(f"{name} must be from {low:g} to {high:g} C, got {value}")


class SimConfig(
    Record,
    namedtuple("SimConfig", "sensors temp_actual temp_cal calibration debounce_ticks"),
):
    """Everything the tick loop needs besides the scene and trajectory.

    `sensors` is stored in SENSOR_ORDER, whatever order it is given in.
    A sensor or calibration that is not its record is built as one.
    The tick period (TICK_MS) and the start at x = 0 are fixed, and the
    readings carry no noise.  Declares no `__slots__`: the sound speeds
    and the mount heights are resolved on first use and cached in the
    instance dict (`sound_speeds`, `mounts`); `_replace` builds a new
    instance, which resolves its own.
    """

    def __new__(cls, sensors: tuple = default_sensors(), temp_actual: float = 20.0,
                temp_cal: float = 20.0, calibration: Calibration = IDENTITY_CALIBRATION,
                debounce_ticks: int = 2):
        check_setting("temp_actual", temp_actual)
        check_setting("temp_cal", temp_cal)
        check_setting("debounce_ticks", debounce_ticks)
        sensors = tuple(sorted((as_record(SensorSpec, s) for s in sensors),
                               key=lambda s: SENSOR_ORDER.index(s.name)))
        if tuple(s.name for s in sensors) != SENSOR_ORDER:
            raise PipelineError("config needs exactly one sensor per name")
        calibration = as_record(Calibration, calibration)
        return tuple.__new__(cls, (sensors, temp_actual, temp_cal, calibration, debounce_ticks))

    @cached_property
    def sound_speeds(self) -> tuple:
        """(c_cal, c_actual): the sound speeds at temp_cal and temp_actual."""
        return sound_speed(self.temp_cal), sound_speed(self.temp_actual)

    @cached_property
    def mounts(self) -> tuple:
        """The four mount heights in SENSOR_ORDER; each sensor's aim follows from its place."""
        return tuple(spec.mount_height for spec in self.sensors)


class TickFlags(namedtuple("TickFlags", "upstairs knee_bit toe_bit downstep inferred",
                           defaults=(False, 0, 0, False, None))):
    """Per-tick findings feeding advisory fusion.

    `upstairs` and `downstep` are bools, `knee_bit` and `toe_bit` ints,
    and `inferred` an UpperLevel, or None when nothing is inferred.
    """

    __slots__ = ()


# A tick's levels and flags take at most 320 and 80 distinct values, so
# each is built once per process and shared by every row that has it.
# `cache` keeps no call that raised: an out-of-range level raises on every
# call.  Call each with positional arguments of fixed types, since keys
# that compare equal (True == 1) share one entry.
_frame = cache(BuzzerFrame)
_flags = cache(TickFlags)


class FrameOutput(namedtuple("FrameOutput", "tick t_ms user_x d_chest d_knee d_toe d_down"
                             " frame advisory flags")):
    """One tick's full record: readings, levels, flags, advisory.

    Immutable.  `tick` is the int tick index and `t_ms` the int
    tick * TICK_MS; `user_x` is the float position (cm).  The four
    readings (float cm, None for no echo) are named after the trace's
    columns; d_down is the arch sensor's.  `frame` is a BuzzerFrame,
    `advisory` an Advisory and `flags` a TickFlags; rows with equal
    levels or flags share one `frame` or `flags` object.
    """

    __slots__ = ()

    @property
    def readings(self) -> dict:
        """The four readings keyed by SensorName, built on each access."""
        return dict(
            zip(SENSOR_ORDER, (self.d_chest, self.d_knee, self.d_toe, self.d_down))
        )


class TickState:
    """Mutable loop state: the step-back check and the debounce.

    `last_level` is the previous tick's chest level, 0 if the chest was
    quiet then.  A chest dropout while advancing arms it as `armed_level`
    (0: nothing armed); the chest active while stepping back infers the
    obstacle's height band from that, `inferred`, and while advancing
    clears both.  `candidate` is the previous tick's fused advisory (None
    before the first tick), `run` counts the ticks in a row it has been
    the candidate, and `advisory` takes it once `run` reaches debounce_ticks.
    """

    __slots__ = ("last_level", "armed_level", "inferred", "advisory", "candidate", "run")

    def __init__(self):
        self.last_level = self.armed_level = self.run = 0
        self.inferred = self.candidate = None
        self.advisory = Advisory.MOVE_FORWARD


@cache
def fuse(frame: BuzzerFrame, flags: TickFlags) -> Advisory:
    """Single verdict for the tick, most urgent finding first; `frame` is
    four int levels, so `any(frame)` tells whether any channel is active.
    Cached per pair: it only compares values, so keys that compare equal
    (level True and 1) share one verdict."""
    if frame.brzP == 3:
        return Advisory.STOP_IMMEDIATELY
    if frame.brzP == 2:
        return Advisory.ALTERNATE_PATH
    if flags.upstairs:
        return Advisory.UP_STAIRS_AHEAD
    if flags.inferred is not None:
        return UPPER_OBSTACLE_ADVISORY[flags.inferred]
    if flags.knee_bit:
        return Advisory.KNEE_OBSTACLE_AHEAD
    if flags.toe_bit:
        return Advisory.TOE_OBSTACLE_AHEAD
    if any(frame) or flags.downstep:
        return Advisory.MOVE_FORWARD_CAUTION
    return Advisory.MOVE_FORWARD


def sense(scene: SagittalScene, x: float, config: SimConfig) -> tuple:
    """The stateless half of a tick: what the sensors tell at position x.

    Returns (d_chest, d_knee, d_toe, d_down, frame, flags), a pure
    function of its arguments: scenes and configs are immutable, and
    `frame` and `flags` (nothing inferred) are shared `_frame` and
    `_flags` objects.  `scene.echoes` casts the four cones from the mount
    heights (`config.mounts`) in firing order (chest, knee, toe, arch),
    the first one below ground raising the GeometryError
    `cone_min_distance` would, so each reading equals `measure`'s.
    """
    c_cal, c_actual = config.sound_speeds
    gain, offset = config.calibration
    mounts = config.mounts
    e_chest, e_knee, e_toe, e_down = scene.echoes(x, mounts)
    d_chest = echo_reading(e_chest, c_cal, c_actual, gain, offset)
    d_knee = echo_reading(e_knee, c_cal, c_actual, gain, offset)
    d_toe = echo_reading(e_toe, c_cal, c_actual, gain, offset)
    d_down = echo_reading(e_down, c_cal, c_actual, gain, offset)

    # No downward echo means the drop exceeds the sensor's reach: treat as
    # an unbounded hazard depth.
    depth = math.inf if d_down is None else d_down - mounts[3]
    frame = _frame(classify_chest(d_chest), classify_knee(d_knee), classify_toe(d_toe),
                   classify_depth(depth))
    flags = _flags(*detect_upstairs(d_knee, d_toe), is_downstep(depth), None)
    return d_chest, d_knee, d_toe, d_down, frame, flags


def tick(state: TickState, sensed: tuple, x: float, speed: float, debounce_ticks: int,
         tick_index: int = 0) -> tuple:
    """The stateful half of a tick: the step-back check, fuse and debounce.

    `sensed` is what `sense` returned at position x; its `flags` go on
    the row unless an upper obstacle is inferred.  Returns (FrameOutput,),
    the row built by `tuple.__new__`; `state` is updated in place as
    TickState describes.
    """
    d_chest, d_knee, d_toe, d_down, frame, flags = sensed
    # The step-back check: arm on a chest dropout while advancing, infer
    # while stepping back, reset while advancing.
    if frame.brzC:
        if speed > 0:
            state.armed_level, state.inferred = 0, None
        elif speed < 0 and state.armed_level:
            state.inferred = infer_upper_level(state.armed_level)
    elif speed > 0 and state.last_level:
        state.armed_level = state.last_level
    state.last_level = frame.brzC
    if state.inferred is not None:
        flags = _flags(*flags[:4], state.inferred)

    # The candidate commits after debounce_ticks ticks in a row.
    candidate = fuse(frame, flags)
    if candidate == state.candidate:
        state.run += 1
    else:
        state.candidate, state.run = candidate, 1
    if state.run >= debounce_ticks:
        state.advisory = candidate
    # FrameOutput checks nothing, so the row skips its generated __new__.
    row = tuple.__new__(FrameOutput, (tick_index, tick_index * TICK_MS, x, d_chest, d_knee,
                                      d_toe, d_down, frame, state.advisory, flags))
    return (row,)


def trajectory_ticks(trajectory) -> list:
    """Whole ticks of each segment; raises PipelineError unless they total 1 to MAX_TICKS."""
    total = sum(segment.duration_s for segment in trajectory) * 1000.0 / TICK_MS
    # Bound the float total before rounding: rounding an infinite ratio
    # raises, and a huge finite one gives a loop that never ends.
    if total <= MAX_TICKS:
        counts = [int(round(s.duration_s * 1000.0 / TICK_MS)) for s in trajectory]
        whole = sum(counts)
        if 1 <= whole <= MAX_TICKS:
            return counts
        if total >= 1:  # only the rounding takes the walk out of range
            raise PipelineError(f"the walk rounds to {whole} whole ticks of {TICK_MS} ms,"
                                f" segment by segment; it must last 1 to {MAX_TICKS} ticks")
    raise PipelineError(
        f"the walk lasts {total:.4g} ticks of {TICK_MS} ms;"
        f" it must last 1 to {MAX_TICKS} ticks"
    )


def run_scenario(scene: SagittalScene, trajectory, config: SimConfig = None):
    """Run the tick loop over a piecewise-constant speed schedule from x = 0.

    Deterministic: identical inputs produce identical traces.  Returns the
    list of FrameOutput, one per tick.  A scene, config or segment that
    is not its record is built as one.

    Each tick's x is the exact sum of the steps taken before it, each
    speed * TICK_MS, rounded to a float once, so ground the walk revisits
    gives the very same float.  Every speed, as a float, is a ratio p/q of
    ints with q a power of two, so the position is kept as an int in units
    of 1/(Q * 1000) cm, Q the largest q, and int / int true division
    rounds it correctly.

    The scene and config are fixed for the run, so its memo keeps x and
    `sense`'s result per step count, cleared at _MEMO_SIZE entries: a walk
    that steps back over its ground senses each position once, and a
    revisit neither divides nor hashes a float.  Step counts that round to
    one x are each sensed, to the same readings.  A position whose
    sensing raises ends the run.
    """
    scene = as_record(SagittalScene, scene)
    config = as_record(SimConfig, config) if config is not None else SimConfig()
    trajectory = [as_record(TrajectorySegment, s) for s in trajectory]
    counts = trajectory_ticks(trajectory)

    frames, state, memo = [], TickState(), {}
    debounce_ticks = config.debounce_ticks
    ratios = [float(segment.speed).as_integer_ratio() for segment in trajectory]
    largest_q = max(q for _, q in ratios)
    unit, steps, index = largest_q * 1000, 0, 0
    for (p, q), segment, count in zip(ratios, trajectory, counts):
        step, speed = p * (largest_q // q) * TICK_MS, segment.speed
        for _ in range(count):
            kept = memo.get(steps)
            if kept is None:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                x = steps / unit
                kept = memo[steps] = (x, sense(scene, x, config))
            x, sensed = kept
            frames.append(tick(state, sensed, x, speed, debounce_ticks, index)[0])
            steps += step
            index += 1
    return frames
