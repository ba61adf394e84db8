"""Deterministic simulator for a four-sensor ultrasonic navigation aid.

A 2D sagittal-plane world (forward distance x height) is scanned by four
diverging ultrasonic cones mounted at chest, knee, toe, and foot-arch
level.  The library finds each cone's nearest echo in closed form,
models the sensor electronics, applies the proximity / stair / pothole
decision tables, and fuses the channels into a single per-tick advisory.

The package root exports the quick-start names and the error types; every
other name is imported from its submodule (`ultranav.classify`,
`ultranav.geometry`, `ultranav.pipeline`, `ultranav.sensing`,
`ultranav.cli`).
"""

from .geometry import (
    GeometryError,
    GroundSegment,
    Rect,
    SagittalScene,
    overlap_distance,
)
from .pipeline import (
    PipelineError,
    SimConfig,
    TrajectorySegment,
    run_scenario,
)
from .sensing import (
    SensingError,
    SensorName,
    correct,
    default_sensors,
    fit_calibration,
    measure,
    sound_speed,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "GroundSegment",
    "PipelineError",
    "Rect",
    "SagittalScene",
    "SensingError",
    "SensorName",
    "SimConfig",
    "TrajectorySegment",
    "correct",
    "default_sensors",
    "fit_calibration",
    "measure",
    "overlap_distance",
    "run_scenario",
    "sound_speed",
]
