"""Sagittal-plane scene geometry and the exact ultrasonic cone minimum.

The world is a 2D vertical slice: x runs forward from the user (cm),
z runs upward from nominal ground level (cm).  Obstacles are axis-aligned
rectangles, terrain is a piecewise-constant elevation profile whose jumps
implicitly define vertical riser faces (stair fronts, pothole walls).
The profile covers the whole real line: terrain outside the authored
segments is flat at elevation 0 without end, and two authored boundaries
within _EPS (1e-9 cm) of each other are snapped to the earlier segment's
end, so every x lies in exactly one profile segment.

Echoes are only returned from faces hit near-perpendicularly, and a
face echoes only if it faces the module: obstacle fronts and step-up
risers forward, obstacle tops and terrain down.  An obstacle's far side,
a step down and an obstacle's bottom point away from every cone of
their aim and are not indexed.  Grazing hits on the other orientation
scatter away and produce no echo.  Obstacles thinner than
MIN_OBSTACLE_THICKNESS_CM along x have no faces, and a scene rejects an
obstacle that lies wholly below the terrain (`buried_obstacle`).
Every cone is the modules' one fixed beam, h = BEAM_HALF_ANGLE_DEG either
side of its aim.  A face the aim can see lies at depth L along that axis,
and the cone covers the cross-axis window [c - L tan h, c + L tan h]
around the origin's cross-axis coordinate c.  A face whose span meets
that window echoes at hypot(L, off), off being the gap from c to the
span (0 when the span holds c); a cone's echo is the least of these.

`SagittalScene.echoes` casts the four cones of one walker position: it
looks the terrain and the face indexes up once, rejects an origin more
than _EPS below the ground, and calls the two kernels, which check no
origin.  The tick's `sense` casts through it, and so does
`cone_min_distance`, which keeps one of the four.

Each scene builds its two face indexes together, in one pass over its
obstacles, on the first cone cast at it.  There is one kernel per aim.
The forward kernel `_forward` casts three heights from one x in one scan
of the vertical faces in order of x, from the first face at or past the
origin.  A height takes no face whose depth already reaches its best
echo, since no face can echo nearer than its own depth, and the scan
stops once every height has one.  The down kernel `_down` starts from
the echo of the terrain face under the walker, which is always in reach
straight down.  Any face that can beat that echo lies less deep, so its
span meets the cone's window at the seed depth: the horizontal faces are
sorted by their left end, the scan starts at the last face that begins
left of the window's right edge, and walks left until the running
maximum of the right ends falls short of the window's left edge.  Both
kernels' culls use the per-face test's own float expressions, so they
drop only faces that test would reject.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Optional

from ._record import Record, as_records

# Faces thinner than this (forward extent, cm) return no usable echo.
MIN_OBSTACLE_THICKNESS_CM = 0.3

# Half-angle (degrees) of every module's beam: the paper's 30 degree divergence.
BEAM_HALF_ANGLE_DEG = 15.0

# The beam's cross-axis half-width per cm of depth.
_TAN_BEAM = math.tan(math.radians(BEAM_HALF_ANGLE_DEG))

_EPS = 1e-9


class GeometryError(ValueError):
    """Invalid scene or sensor origin."""


class Aim(Enum):
    """Beam axis of a sensor: horizontal (forward) or straight down."""

    FORWARD = "forward"
    DOWN = "down"


class Rect(Record, namedtuple("Rect", "x0 x1 z0 z1")):
    """Axis-aligned obstacle body in the forward x height plane (cm).

    Bounds are stored as floats and may be infinite.
    """

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, z0: float, z1: float):
        try:
            x0, x1, z0, z1 = float(x0), float(x1), float(z0), float(z1)
        except OverflowError:
            raise GeometryError(
                "rect bounds must fit a float, got an int past the float range"
            ) from None
        if not x0 < x1:
            raise GeometryError(f"rect needs x0 < x1, got [{x0}, {x1}]")
        if not z0 < z1:
            raise GeometryError(f"rect needs z0 < z1, got [{z0}, {z1}]")
        return tuple.__new__(cls, (x0, x1, z0, z1))


class GroundSegment(Record, namedtuple("GroundSegment", "x0 x1 dz")):
    """Terrain span [x0, x1) at elevation dz relative to nominal ground.

    Values are stored as floats; x0 and x1 may be infinite.
    """

    __slots__ = ()

    def __new__(cls, x0: float, x1: float, dz: float):
        try:
            x0, x1, dz = float(x0), float(x1), float(dz)
        except OverflowError:
            raise GeometryError(
                "ground segment values must fit a float, got an int past the float range"
            ) from None
        if not x0 < x1:
            raise GeometryError(f"ground segment needs x0 < x1, got [{x0}, {x1}]")
        if not math.isfinite(dz):
            raise GeometryError(f"ground segment needs a finite dz, got {dz}")
        return tuple.__new__(cls, (x0, x1, dz))


def ground_overlap(ground) -> Optional[int]:
    """Index of a ground segment overlapping another, or None.

    Of the overlapping pair, the index is the one authored later.
    """
    order = sorted(range(len(ground)), key=lambda i: (ground[i].x0, ground[i].x1))
    for a, b in zip(order, order[1:]):
        if ground[b].x0 < ground[a].x1 - _EPS:
            return max(a, b)
    return None


def buried_obstacle(obstacles, profile) -> Optional[int]:
    """Index of the first obstacle whose top z1 is at or below the terrain
    at every x of its span [x0, x1], or None.

    `profile` is a scene's `ground_profile`.  Only an obstacle whose top
    is at or below the highest terrain is looked up in it.
    """
    high = max(map(itemgetter(2), profile))
    if not obstacles or min(map(itemgetter(3), obstacles)) > high:
        return None
    starts = [seg.x0 for seg in profile]
    for i, (x0, x1, _, z1) in enumerate(obstacles):
        if z1 <= high:
            span = profile[bisect_right(starts, x0) - 1:bisect_right(starts, x1)]
            if all(z1 <= dz for _, _, dz in span):
                return i
    return None


class SagittalScene(Record, namedtuple("SagittalScene", "obstacles ground")):
    """Immutable obstacle + terrain description of the vertical slice.

    A member that is not a Rect or GroundSegment is built as one, so its
    checks run.  An obstacle wholly below the terrain (`buried_obstacle`)
    is rejected.  Declares no `__slots__`: the face indexes below are
    cached in the instance dict.
    """

    def __new__(cls, obstacles: tuple = (), ground: tuple = ()):
        obstacles = as_records(Rect, obstacles)
        ground = as_records(GroundSegment, ground)
        self = tuple.__new__(cls, (obstacles, ground))
        buried = buried_obstacle(obstacles, self.ground_profile)  # validates terrain too
        if buried is not None:
            x0, x1, _, z1 = obstacles[buried]
            raise GeometryError(
                f"obstacle [{x0}, {x1}] lies wholly below the terrain (top z1={z1})"
            )
        return self

    @cached_property
    def ground_profile(self) -> tuple:
        """The real line as contiguous terrain segments, from -inf to +inf.

        Authored segments in order of x, each starting where the one before
        ends: a gap or overlap of at most _EPS moves the later start to the
        earlier end, so the earlier segment wins an overlap, and a segment
        the move leaves empty is dropped.  Wider gaps and both ends are
        filled with dz=0.  Segments made here skip the record's checks
        (`tuple.__new__`): their bounds are checked values, start below end.
        """
        overlap = ground_overlap(self.ground)
        if overlap is not None:
            raise GeometryError(
                f"overlapping ground segments at x={self.ground[overlap].x0}"
            )
        out = []
        cursor = -math.inf
        for seg in sorted(self.ground, key=lambda s: (s.x0, s.x1)):
            if seg.x0 > cursor + _EPS:
                out.append(tuple.__new__(GroundSegment, (cursor, seg.x0, 0.0)))
                cursor = seg.x0
            if cursor < seg.x1:
                out.append(seg if seg.x0 == cursor
                           else tuple.__new__(GroundSegment, (cursor, seg.x1, seg.dz)))
                cursor = seg.x1
        if cursor < math.inf:  # unless an authored segment runs to +inf
            out.append(tuple.__new__(GroundSegment, (cursor, math.inf, 0.0)))
        return tuple(out)

    @cached_property
    def _profile_starts(self) -> list:
        return [seg.x0 for seg in self.ground_profile]

    def elevation(self, x: float) -> float:
        """Terrain elevation at forward position x."""
        return self.ground_profile[bisect_right(self._profile_starts, x) - 1].dz

    @cached_property
    def _face_index(self) -> tuple:
        """Both face indexes, built in one pass over the obstacles thick enough
        to echo: ((faces, keys), (faces, keys, tops)).

        A face echoes only if it faces the module: obstacle fronts and
        step-up risers forward, obstacle tops and terrain down.  Forward
        beams see those vertical faces (x, z_lo, z_hi), sorted by x, whose
        x are the keys.  Downward beams see those horizontal faces
        (z, x_lo, x_hi), sorted by x_lo, whose x_lo are the keys; tops is
        the running max of x_hi.
        """
        vertical, horizontal = [], []
        for x0, x1, z0, z1 in self.obstacles:
            if (x1 - x0) >= MIN_OBSTACLE_THICKNESS_CM - _EPS:
                vertical.append((x0, z0, z1))
                horizontal.append((z1, x0, x1))
        # A riser wherever the profile steps up, and every terrain span.
        profile = self.ground_profile
        for (_, x, dz_left), (_, _, dz_right) in zip(profile, profile[1:]):
            if dz_left < dz_right:
                vertical.append((x, dz_left, dz_right))
        for x0, x1, dz in profile:
            horizontal.append((dz, x0, x1))
        vertical.sort(key=itemgetter(0))
        horizontal.sort(key=itemgetter(1))
        keys, tops, top = [], [], -math.inf
        for _, lo, hi in horizontal:
            keys.append(lo)
            if hi > top:
                top = hi
            tops.append(top)
        return (vertical, list(map(itemgetter(0), vertical))), (horizontal, keys, tops)

    def echoes(self, x: float, heights) -> tuple:
        """The true echoes (cm, None for no echo) at x: (chest, knee, toe, down).

        Forward cones are cast from heights[0:3], in one scan, and a down
        cone from heights[3].  Raises GeometryError for the first of the
        heights, in that order, more than _EPS below the terrain at x.
        """
        ground_z = self.elevation(x)
        floor = ground_z - _EPS
        for z in heights:
            if z < floor:
                raise GeometryError(f"sensor origin ({x}, {z}) is below the ground surface")
        (faces, keys), down_index = self._face_index
        chest_z, knee_z, toe_z, arch_z = heights
        chest, knee, toe = _forward(faces, bisect_left(keys, x), x, chest_z, knee_z, toe_z)
        return chest, knee, toe, _down(down_index, x, arch_z, ground_z)


def cone_min_distance(scene: SagittalScene, origin: tuple, aim: Aim) -> Optional[float]:
    """Nearest echo (cm) inside the beam cast from origin = (x, z) along
    aim, or None: the one of `scene.echoes` that aim picks.

    Raises GeometryError if the origin is more than _EPS below the terrain.
    """
    ox, oz = origin
    echoes = scene.echoes(ox, (oz,) * 4)
    return echoes[0] if aim is Aim.FORWARD else echoes[3]


def _forward(faces: list, start: int, ox: float, za: float, zb: float, zc: float) -> tuple:
    """Forward kernel: the nearest echoes (best_a, best_b, best_c) from
    (ox, za), (ox, zb) and (ox, zc) among the vertical faces, scanned
    once from faces[start], the first with x >= ox.

    Each height takes no face at or past its best; the scan stops once
    every height has one.  The window's half-width per cm of depth is
    _TAN_BEAM.
    """
    ba = bb = bc = None
    last = math.nan  # the largest best once all three are found; no depth reaches NaN
    for i in range(start, len(faces)):
        x, lo, hi = faces[i]
        depth = x - ox
        if depth <= _EPS:
            continue
        if depth >= last:
            break
        reach = depth * _TAN_BEAM
        if (ba is None or depth < ba) and not (lo > za + reach + _EPS or za - reach > hi + _EPS):
            d = math.hypot(depth, lo - za if lo > za else (za - hi if hi < za else 0.0))
            if ba is None or d < ba:
                ba = d
        if (bb is None or depth < bb) and not (lo > zb + reach + _EPS or zb - reach > hi + _EPS):
            d = math.hypot(depth, lo - zb if lo > zb else (zb - hi if hi < zb else 0.0))
            if bb is None or d < bb:
                bb = d
        if (bc is None or depth < bc) and not (lo > zc + reach + _EPS or zc - reach > hi + _EPS):
            d = math.hypot(depth, lo - zc if lo > zc else (zc - hi if hi < zc else 0.0))
            if bc is None or d < bc:
                bc = d
        if ba is not None and bb is not None and bc is not None:
            last = max(ba, bb, bc)
    return ba, bb, bc


def _down(index: tuple, ox: float, oz: float, ground_z: float) -> Optional[float]:
    """Down kernel: nearest echo from (ox, oz) in the horizontal index
    (faces, keys, tops), ground_z = scene.elevation(ox).

    An origin within _EPS of the ground has no seed: its window is
    unbounded and every face is visited.
    """
    faces, keys, tops = index
    best = None
    end, left = len(faces), -math.inf
    if oz - ground_z > _EPS:
        best = oz - ground_z
        window = best * _TAN_BEAM
        end, left = bisect_right(keys, ox + window + _EPS), ox - window
    for i in range(end - 1, -1, -1):
        # Every face from here back ends short of the window.
        if left > tops[i] + _EPS:
            break
        z, lo, hi = faces[i]
        depth = oz - z
        if depth <= _EPS or (best is not None and depth >= best):
            continue
        reach = depth * _TAN_BEAM
        if lo > ox + reach + _EPS or ox - reach > hi + _EPS:
            continue
        off = lo - ox if lo > ox else (ox - hi if hi < ox else 0.0)
        d = math.hypot(depth, off)
        if best is None or d < best:
            best = d
    return best


def overlap_distance(h_upper: float, h_lower: float) -> float:
    """Forward distance (cm) at which two stacked cones first intersect.

    Two sensors mounted at heights h_upper and h_lower, both aimed forward
    with the modules' fixed beam: the lower edge of the upper cone meets
    the upper edge of the lower cone at (h_upper - h_lower) / (2 tan h),
    h = BEAM_HALF_ANGLE_DEG.
    """
    if h_upper < h_lower:
        raise GeometryError("h_upper must be >= h_lower")
    return (h_upper - h_lower) / (2.0 * _TAN_BEAM)
