"""Deterministic simulator for a four-sensor ultrasonic navigation aid.

A 2D sagittal-plane world (forward distance x height) is scanned by four
diverging ultrasonic cones mounted at chest, knee, toe, and foot-arch
level.  The library finds each cone's nearest echo in closed form,
models the sensor electronics, applies the proximity / stair / pothole
decision tables, and fuses the channels into a single per-tick advisory.
"""

from .classify import (
    Advisory,
    BuzzerFrame,
    StairCheck,
    UpperLevel,
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
    detect_upstairs,
    infer_upper_level,
    is_downstep,
)
from .geometry import (
    Aim,
    GeometryError,
    GroundSegment,
    Rect,
    SagittalScene,
    cone_min_distance,
    overlap_distance,
)
from .pipeline import (
    FrameOutput,
    PipelineError,
    SimConfig,
    TickFlags,
    TickState,
    TrajectorySegment,
    UserState,
    fuse,
    run_scenario,
    tick,
)
from .sensing import (
    Calibration,
    SensingError,
    SensorName,
    SensorSpec,
    correct,
    default_sensors,
    fit_calibration,
    load_calibration,
    measure,
    sound_speed,
)

__version__ = "0.1.0"

__all__ = [
    "Advisory",
    "Aim",
    "BuzzerFrame",
    "Calibration",
    "FrameOutput",
    "GeometryError",
    "GroundSegment",
    "PipelineError",
    "Rect",
    "SagittalScene",
    "SensingError",
    "SensorName",
    "SensorSpec",
    "SimConfig",
    "StairCheck",
    "TickFlags",
    "TickState",
    "TrajectorySegment",
    "UpperLevel",
    "UserState",
    "classify_chest",
    "classify_depth",
    "classify_knee",
    "classify_toe",
    "cone_min_distance",
    "correct",
    "default_sensors",
    "detect_upstairs",
    "fit_calibration",
    "fuse",
    "infer_upper_level",
    "is_downstep",
    "load_calibration",
    "measure",
    "overlap_distance",
    "run_scenario",
    "sound_speed",
    "tick",
]
