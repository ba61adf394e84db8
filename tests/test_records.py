"""Every way of building a checked value runs its constructor's checks, and
no built value can be changed."""

import copy
import pickle
import re

import pytest

from ultranav.classify import BuzzerFrame
from ultranav.geometry import GeometryError, GroundSegment, Rect, SagittalScene
from ultranav.pipeline import PipelineError, SimConfig, TrajectorySegment
from ultranav.sensing import Calibration, SensingError, SensorName, SensorSpec


RECORDS = pytest.mark.parametrize(
    "good,bad,error,message",
    [
        pytest.param(Rect(0, 1, 0, 1), {"x1": -5}, GeometryError, "rect needs x0 < x1", id="Rect"),
        pytest.param(
            GroundSegment(0, 1, -5.0), {"dz": float("nan")}, GeometryError,
            "ground segment needs a finite dz", id="GroundSegment",
        ),
        pytest.param(
            SagittalScene((), (GroundSegment(0, 10, -5.0),)),
            {"ground": (GroundSegment(0, 10, -5.0), GroundSegment(5, 20, 2.0))},
            GeometryError, "overlapping ground segments", id="SagittalScene",
        ),
        pytest.param(
            TrajectorySegment(100.0, 1.0), {"speed": 501.0}, PipelineError,
            "|speed| must be <= 500.0 cm/s", id="TrajectorySegment",
        ),
        pytest.param(
            SimConfig(), {"debounce_ticks": 0}, PipelineError, "debounce_ticks must be an int >= 1, got 0",
            id="SimConfig",
        ),
        pytest.param(
            Calibration(1.1, 2.0), {"gain": 0.0}, SensingError, "calibration gain must be > 0",
            id="Calibration",
        ),
        pytest.param(
            SensorSpec(SensorName.KNEE, 50.0, 60.0), {"mount_height": -1.0}, SensingError,
            "knee: mount_height must be > 0", id="SensorSpec",
        ),
        pytest.param(BuzzerFrame(1, 2, 3, 3), {"brzT": 4}, ValueError, "brzT out of range: 4", id="BuzzerFrame"),
    ],
)


@RECORDS
def test_every_build_path_checks(good, bad, error, message):
    cls, args = type(good), {**good._asdict(), **bad}
    for build in (lambda: cls(**args), lambda: good._replace(**bad), lambda: cls._make(args.values())):
        with pytest.raises(error, match=re.escape(message)):
            build()
    # copy and pickle rebuild through the constructor too, to an equal value
    assert copy.deepcopy(good) == pickle.loads(pickle.dumps(good)) == good


@RECORDS
def test_fields_and_attributes_cannot_be_assigned(good, bad, error, message):
    for name in (*bad, "extra"):
        with pytest.raises(AttributeError):
            setattr(good, name, 1)
