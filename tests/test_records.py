"""Every way of building a checked value runs its constructor's checks, and
no built value can be changed."""

import copy
import pickle
import re

import pytest

from ultranav.classify import Advisory, BuzzerFrame, UpperLevel
from ultranav.geometry import GeometryError, GroundSegment, Rect, SagittalScene
from ultranav.pipeline import (
    FrameOutput,
    PipelineError,
    SimConfig,
    TickFlags,
    TrajectorySegment,
    run_scenario,
)
from ultranav.sensing import Calibration, SensingError, SensorName, SensorSpec, default_sensors

NAN = float("nan")


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


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(TickFlags(True, 1, 0, False, UpperLevel.HEAD), id="TickFlags"),
        pytest.param(FrameOutput(3, 90, 12.5, 80.0, None, 30.0, 70.0, BuzzerFrame(2, 0, 1, 0),
                                 Advisory.TOE_OBSTACLE_AHEAD, TickFlags(toe_bit=1)),
                     id="FrameOutput"),
    ],
)
def test_unchecked_rows_have_no_instance_dict(row):
    # Each class and its namedtuple base declare empty __slots__.
    assert not hasattr(row, "__dict__")
    for name in (*row._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(row, name, 1)
    for rebuilt in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row)),
                    row._replace(), row._replace(**{row._fields[0]: 7})._replace(**row._asdict())):
        assert type(rebuilt) is type(row) and rebuilt == row


def test_unchecked_row_fields_and_defaults():
    assert TickFlags._fields == ("upstairs", "knee_bit", "toe_bit", "downstep", "inferred")
    assert TickFlags() == (False, 0, 0, False, None)
    assert FrameOutput._fields == ("tick", "t_ms", "user_x", "d_chest", "d_knee", "d_toe",
                                   "d_down", "frame", "advisory", "flags")
    assert FrameOutput._field_defaults == {}


@pytest.mark.parametrize(
    "build,error,message",
    [
        # A negative width or a NaN bound once read as a slat too thin to echo.
        pytest.param(lambda: run_scenario(SagittalScene([(300, 100, 0, 200)]), [(100, 0.3)]),
                     GeometryError, "rect needs x0 < x1, got [300.0, 100.0]",
                     id="box-negative-width"),
        pytest.param(lambda: SagittalScene([(100, 102, 0, NAN)]), GeometryError,
                     "rect needs z0 < z1, got [0.0, nan]", id="box-nan-bound"),
        pytest.param(lambda: SagittalScene((), [(100, 200, NAN)]), GeometryError,
                     "ground segment needs a finite dz, got nan", id="ground-nan-dz"),
        # Calibrations Calibration itself rejects once ran, reading 3.0 or nan.
        pytest.param(lambda: SimConfig(calibration=(0.0, 0.0)), SensingError,
                     "calibration gain must be > 0, got 0.0", id="calibration-zero-gain"),
        pytest.param(lambda: SimConfig(calibration=(1.0, NAN)), SensingError,
                     "calibration offset must be finite, got nan", id="calibration-nan-offset"),
        pytest.param(lambda: run_scenario(((), ()), [(100, 0.3)],
                                          (default_sensors(), 20, 20, (1, NAN), 2)),
                     SensingError, "calibration offset must be finite, got nan",
                     id="run-config-tuple"),
        pytest.param(lambda: SimConfig(sensors=[(1, 2, 3)] * 4), SensingError,
                     "sensor name must be a SensorName, got 1", id="sensor-int-name"),
        pytest.param(lambda: run_scenario(SagittalScene(), [(100, 0.0)]), PipelineError,
                     "trajectory segment duration must be > 0", id="segment-zero-duration"),
    ],
)
def test_containers_check_their_members(build, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        build()
    assert "\n" not in str(raised.value)


def test_containers_build_plain_tuples_into_records():
    box, hole = Rect(100, 102, 0, 200), GroundSegment(30, 50, -30)
    scene = SagittalScene([tuple(box)], [tuple(hole)])
    assert scene == SagittalScene((box,), (hole,))
    assert type(scene.obstacles[0]) is Rect and type(scene.ground[0]) is GroundSegment
    # A record passes through as itself.
    assert SagittalScene((box,), (hole,)).obstacles[0] is box
    config = SimConfig([tuple(s) for s in default_sensors()], calibration=(1.0, 0.5))
    assert config == SimConfig(default_sensors(), calibration=Calibration(1.0, 0.5))
    assert {type(s) for s in config.sensors} == {SensorSpec}
    assert type(config.calibration) is Calibration
    rows = run_scenario(scene, [TrajectorySegment(100, 0.3)], config)
    assert run_scenario(tuple(scene), [(100, 0.3)], tuple(config)) == rows
