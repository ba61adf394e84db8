"""Decision tables: proximity buzzer bands, stair detection, pothole grading.

All band boundaries are half-open with ties going to the nearer band
(higher alarm level), so a reading exactly on a boundary alarms at the
more urgent level.  A reading is an echo distance in cm, None for no echo.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from ._record import Record


class UpperLevel(Enum):
    HEAD = "Head"
    CHEST = "Chest"
    WAIST = "Waist"
    UNKNOWN = "Unknown"


class Advisory(Enum):
    MOVE_FORWARD = "MoveForward"
    MOVE_FORWARD_CAUTION = "MoveForwardCaution"
    UP_STAIRS_AHEAD = "UpStairsAhead"
    KNEE_OBSTACLE_AHEAD = "KneeObstacleAhead"
    TOE_OBSTACLE_AHEAD = "ToeObstacleAhead"
    ALTERNATE_PATH = "AlternatePath"
    STOP_IMMEDIATELY = "StopImmediately"
    UPPER_OBSTACLE_HEAD = "UpperObstacle(Head)"
    UPPER_OBSTACLE_CHEST = "UpperObstacle(Chest)"
    UPPER_OBSTACLE_WAIST = "UpperObstacle(Waist)"
    UPPER_OBSTACLE_UNKNOWN = "UpperObstacle(Unknown)"


UPPER_OBSTACLE_ADVISORY = {
    UpperLevel.HEAD: Advisory.UPPER_OBSTACLE_HEAD,
    UpperLevel.CHEST: Advisory.UPPER_OBSTACLE_CHEST,
    UpperLevel.WAIST: Advisory.UPPER_OBSTACLE_WAIST,
    UpperLevel.UNKNOWN: Advisory.UPPER_OBSTACLE_UNKNOWN,
}

# The height band of an upper obstacle by the chest level it last gave.
UPPER_LEVEL_BY_CHEST_LEVEL = {1: UpperLevel.WAIST, 2: UpperLevel.HEAD, 3: UpperLevel.CHEST}


class BuzzerFrame(Record, namedtuple("BuzzerFrame", "brzC brzK brzT brzP")):
    """Per-tick buzzer channel levels (0 = off)."""

    __slots__ = ()

    def __new__(cls, brzC: int = 0, brzK: int = 0, brzT: int = 0, brzP: int = 0):
        if not 0 <= brzC <= 4:
            raise ValueError(f"brzC out of range: {brzC}")
        for label, level in (("brzK", brzK), ("brzT", brzT), ("brzP", brzP)):
            if not 0 <= level <= 3:
                raise ValueError(f"{label} out of range: {level}")
        return tuple.__new__(cls, (brzC, brzK, brzT, brzP))


def classify_chest(r: float | None) -> int:
    """Chest channel level: bands 150/87/60/40 cm, innermost loudest."""
    if r is None or r > 150.0:
        return 0
    if r > 87.0:
        return 1
    if r > 60.0:
        return 2
    if r > 40.0:
        return 3
    return 4


def classify_knee(r: float | None) -> int:
    """Knee channel level: bands 60/30/10 cm."""
    if r is None or r > 60.0:
        return 0
    if r > 30.0:
        return 1
    if r > 10.0:
        return 2
    return 3


def classify_toe(r: float | None) -> int:
    """Toe channel level: bands 40/20/10 cm."""
    if r is None or r > 40.0:
        return 0
    if r > 20.0:
        return 1
    if r > 10.0:
        return 2
    return 3


def detect_upstairs(knee: float | None, toe: float | None) -> tuple:
    """Up-staircase truth table on gated knee (<=40 cm) and toe (<=20 cm) echoes.

    Returns (upstairs, knee_bit, toe_bit) as (bool, int, int).  Both
    echoes present with a knee-toe difference strictly inside (24, 26) cm
    reads as a stair step; a lone gated echo flags a knee-only or toe-only
    obstacle.  Both echoes outside the window are two independent
    obstacles, not stairs.
    """
    k = knee if (knee is not None and knee <= 40.0) else None
    t = toe if (toe is not None and toe <= 20.0) else None
    upstairs = k is not None and t is not None and 24.0 < (k - t) < 26.0
    return upstairs, int(k is not None), int(t is not None)


def classify_depth(depth: float) -> int:
    """Pothole channel level from depth below the foot arch: bands 10/20/40 cm.

    Levels 1-3 read as caution (possible down-stair), alternate path, and
    full stop; `pipeline.fuse` turns the level into that advisory.
    """
    if depth <= 10.0:
        return 0
    if depth <= 20.0:
        return 1
    if depth <= 40.0:
        return 2
    return 3


def is_downstep(depth: float) -> bool:
    """True when the depth reads as a descending stair step (15-30 cm)."""
    return 15.0 <= depth <= 30.0


def infer_upper_level(level: int) -> UpperLevel:
    """Height band of an upper obstacle from the chest level on its last active tick.

    When the chest buzzer goes quiet while advancing and reactivates while
    stepping back, the chest level on the last tick it was active places
    the obstacle at waist (1), head (2) or chest (3) height; any other
    level gives UNKNOWN.
    """
    return UPPER_LEVEL_BY_CHEST_LEVEL.get(level, UpperLevel.UNKNOWN)
