"""Independent oracles: brute-force geometry, and the stateful columns.

`echoing_faces` states the face model on its own: a face echoes only
if it faces the module, so each obstacle at least
MIN_OBSTACLE_THICKNESS_CM thick gives its front (forward) or its top
(down), and the terrain gives its step-up risers (forward) or its
segments (down).  It lists them in authored order and reads no face the
scene derives, so the oracles below also check the scene's face
extraction.

`full_scan_cone_min` is the exact cone minimum taken over every face
`echoing_faces` lists, with no index, early exit or seed: the reference
the indexed `cone_min_distance` must equal bit for bit.
`scan_elevation` is the matching linear lookup of the terrain profile.
Both take the terrain from `scene.ground_profile` as given, so they
check the cones and the faces against the profile, not the profile
against the authored segments.

`raycast` intersects one ray with the `echoing_faces`, and
`dense_cone_min` sweeps a fan of such rays across the cone: the sampled
reference for the closed-form `cone_min_distance`.

The marching oracle knows nothing about segment intersection: it samples
points along the ray, tests solid occupancy, bisects the first free to
occupied crossing, and classifies the local face orientation by probing
neighbouring points.  Forward beams accept vertical faces, downward beams
horizontal ones, mirroring the echo-incidence rule.

`reference_stateful` gives a run's `inferred` and `advisory` columns
from each tick's stateless inputs, a fold of `reference_step` over them,
and `debounce_trace_problems` checks a trace's advisory column against
`debounce_ticks` alone.  Both are written from the README and PAPER.md's
rules, not from `ultranav.pipeline`, which this module does not import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional

from ultranav.geometry import (
    Aim,
    GeometryError,
    MIN_OBSTACLE_THICKNESS_CM,
    SagittalScene,
)

_EPS = 1e-9


@dataclass(frozen=True)
class Ray:
    """Single ray: origin (x, z) and angle in radians off the aim axis."""

    x: float
    z: float
    angle: float = 0.0


def ray_direction(aim: Aim, angle: float) -> tuple:
    """Unit direction of a ray at `angle` radians off the aim axis."""
    if aim is Aim.FORWARD:
        return math.cos(angle), math.sin(angle)
    return math.sin(angle), -math.cos(angle)


def echoing_faces(scene: SagittalScene, aim: Aim) -> list:
    """The faces `aim` can echo off, in authored order.

    A face echoes only if it faces the module: obstacle fronts and
    step-up risers forward, obstacle tops and terrain down.  Forward:
    (x, z_lo, z_hi) for each echoing obstacle's front, then a riser
    wherever the profile's elevation steps up.  Down: (z, x_lo, x_hi)
    for each echoing obstacle's top, then each profile segment.
    """
    boxes = [r for r in scene.obstacles if r.x1 - r.x0 >= MIN_OBSTACLE_THICKNESS_CM - _EPS]
    profile = scene.ground_profile
    if aim is Aim.FORWARD:
        faces = [(r.x0, r.z0, r.z1) for r in boxes]
        for left, right in zip(profile, profile[1:]):
            if left.dz < right.dz:
                faces.append((left.x1, left.dz, right.dz))
        return faces
    faces = [(r.z1, r.x0, r.x1) for r in boxes]
    return faces + [(seg.dz, seg.x0, seg.x1) for seg in profile]


def raycast(scene: SagittalScene, ray: Ray, aim: Aim, faces=None) -> Optional[float]:
    """Distance (cm) to the nearest echoing face along the ray, or None.

    Forward beams echo off vertical faces only, downward beams off
    horizontal faces only; raises GeometryError if the ray starts below
    the local terrain.  `faces` is `echoing_faces(scene, aim)`, built
    here when not given.
    """
    if ray.z < scene.elevation(ray.x) - _EPS:
        raise GeometryError(
            f"ray origin ({ray.x}, {ray.z}) is below the ground surface"
        )
    if faces is None:
        faces = echoing_faces(scene, aim)
    dx, dz = ray_direction(aim, ray.angle)
    best = None
    if aim is Aim.FORWARD:
        for fx, zlo, zhi in faces:
            if abs(dx) < _EPS:
                continue
            t = (fx - ray.x) / dx
            if t <= _EPS:
                continue
            z_hit = ray.z + t * dz
            if zlo - _EPS <= z_hit <= zhi + _EPS:
                if best is None or t < best:
                    best = t
    else:
        for fz, xlo, xhi in faces:
            if abs(dz) < _EPS:
                continue
            t = (fz - ray.z) / dz
            if t <= _EPS:
                continue
            x_hit = ray.x + t * dx
            if xlo - _EPS <= x_hit <= xhi + _EPS:
                if best is None or t < best:
                    best = t
    return best


def scan_elevation(scene: SagittalScene, x: float) -> float:
    """Elevation of the first profile segment holding x, else 0."""
    for seg in scene.ground_profile:
        if seg.x0 <= x < seg.x1:
            return seg.dz
    return 0.0


def full_scan_cone_min(
    scene: SagittalScene,
    origin,
    aim: Aim,
    half_angle: float = 15.0,
) -> Optional[float]:
    """Exact cone minimum over all faces, tested one by one."""
    ox, oz = origin
    if oz < scan_elevation(scene, ox) - _EPS:
        raise GeometryError(f"sensor origin ({ox}, {oz}) is below the ground surface")
    if aim is Aim.FORWARD:
        along, across, sign = ox, oz, 1.0
    else:
        along, across, sign = oz, ox, -1.0
    tan_h = math.tan(math.radians(half_angle))
    best = None
    for pos, lo, hi in echoing_faces(scene, aim):
        depth = sign * (pos - along)
        if depth <= _EPS:
            continue
        reach = depth * tan_h
        lo = max(lo, across - reach)
        hi = min(hi, across + reach)
        if lo > hi + _EPS:
            continue
        off = lo - across if lo > across else (across - hi if hi < across else 0.0)
        d = math.hypot(depth, off)
        if best is None or d < best:
            best = d
    return best


def occupied(scene: SagittalScene, x: float, z: float) -> bool:
    """Point-in-solid test: inside an obstacle or at/below the terrain."""
    for r in scene.obstacles:
        if r.x0 <= x <= r.x1 and r.z0 <= z <= r.z1:
            return True
    return z <= scene.elevation(x)


def _grid_elevation(scene, x):
    """Elevation at x from the profile segment [x0, x1) holding it (the last, if several)."""
    elev = 0.0
    for seg in scene.ground_profile:
        if seg.x0 <= x < seg.x1:
            elev = seg.dz
    return elev


def march_raycast(
    scene: SagittalScene,
    ox: float,
    oz: float,
    aim: Aim,
    angle: float = 0.0,
    step: float = 0.01,
    max_dist: float = 310.0,
):
    """Ray-marching echo distance, or None.

    Walks the ray in `step` cm increments, refines each free->occupied
    crossing by bisection, and keeps the first crossing whose face
    orientation can echo back to the given aim.
    """
    dx, dz = ray_direction(aim, angle)
    prev_occ, prev_t = False, 0.0
    for k in range(1, int(max_dist / step)):
        t = k * step
        x, z = ox + t * dx, oz + t * dz
        occ = z <= _grid_elevation(scene, x) or any(
            r.x0 <= x <= r.x1 and r.z0 <= z <= r.z1 for r in scene.obstacles
        )
        crossing = occ and not prev_occ
        lo, hi = prev_t, t
        prev_occ, prev_t = occ, t
        if not crossing:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if occupied(scene, ox + mid * dx, oz + mid * dz):
                hi = mid
            else:
                lo = mid
        cx, cz = ox + hi * dx, oz + hi * dz
        delta = 1e-4
        vertical = occupied(scene, cx + delta, cz) != occupied(scene, cx - delta, cz)
        horizontal = occupied(scene, cx, cz + delta) != occupied(scene, cx, cz - delta)
        if aim is Aim.FORWARD and vertical:
            return hi
        if aim is Aim.DOWN and horizontal:
            return hi
    return None


def dense_cone_min(
    scene: SagittalScene,
    origin,
    aim: Aim,
    half_angle: float = 15.0,
    n_rays: int = 1001,
):
    """Angularly dense cone minimum, sharing only the per-ray caster."""
    ox, oz = origin
    half = math.radians(half_angle)
    faces = echoing_faces(scene, aim)
    hits = [
        raycast(scene, Ray(ox, oz, -half + 2 * half * i / (n_rays - 1)), aim, faces)
        for i in range(n_rays)
    ]
    hits = [h for h in hits if h is not None]
    return min(hits) if hits else None


# The stateful columns, as the trace prints them.  The upper obstacle's
# height band from the chest channel's last active distance (cm), with
# the chest buzzer table's half-open bands (lo, hi].
UPPER_LEVEL_BANDS = ((87.0, 150.0, "Waist"), (60.0, 87.0, "Head"), (40.0, 60.0, "Chest"))

# The gates of the stair check (cm): a knee or toe echo at or inside its
# gate sets that channel's bit.
KNEE_GATE_CM, TOE_GATE_CM = 40.0, 20.0


def reference_upper_level(distance) -> str:
    for lo, hi, name in UPPER_LEVEL_BANDS:
        if distance is not None and lo < distance <= hi:
            return name
    return "Unknown"


@cache
def reference_candidate(levels, upstairs, knee_bit, toe_bit, downstep, inferred) -> str:
    """The one advisory a tick's findings call for, the most urgent first.

    `levels` is (brzC, brzK, brzT, brzP); `inferred` is the trace's
    `inferred` cell ("-" when nothing is inferred).  Cached, since the
    exhaustive walk asks it about each of its few inputs many times.
    """
    brzC, brzK, brzT, brzP = levels
    rules = (
        (brzP == 3, "StopImmediately"),
        (brzP == 2, "AlternatePath"),
        (upstairs, "UpStairsAhead"),
        (inferred != "-", f"UpperObstacle({inferred})"),
        (knee_bit, "KneeObstacleAhead"),
        (toe_bit, "ToeObstacleAhead"),
        (brzC or brzK or brzT or brzP or downstep, "MoveForwardCaution"),
    )
    return next((advisory for fired, advisory in rules if fired), "MoveForward")


class ReferenceState(NamedTuple):
    """What the reference keeps between ticks.

    `armed` and `last_active` are chest readings (cm) or None; `inferred`
    and `advisory` are the cells of the row last printed; `run_length`
    counts the ticks in a row `run_of` has been the candidate.
    """

    armed: Optional[float] = None
    last_active: Optional[float] = None
    inferred: str = "-"
    advisory: str = "MoveForward"
    run_of: Optional[str] = None
    run_length: int = 0


def reference_step(state: ReferenceState, tick, debounce_ticks) -> ReferenceState:
    """The state after one tick; its `inferred` and `advisory` are that tick's cells.

    `tick` is (levels, upstairs, knee_bit, toe_bit, downstep, chest
    reading, speed); the chest reading is the one that set brzC, and speed
    is signed (cm/s).  The rules:

    - the step-back check: a chest dropout (active on the tick before,
      quiet now) while advancing arms the last active distance; while the
      chest is active and the walker steps back, an armed distance gives
      the inferred height band; the chest active while advancing resets
      the check;
    - the candidate advisory is `reference_candidate`;
    - the advisory starts as MoveForward and changes to a candidate once
      that candidate has been the candidate on `debounce_ticks`
      consecutive ticks.
    """
    armed, last_active, inferred, advisory, run_of, run_length = state
    levels, upstairs, knee_bit, toe_bit, downstep, chest, speed = tick
    active = levels[0] > 0
    if active and speed > 0:
        armed, inferred = None, "-"
    elif active and speed < 0 and armed is not None:
        inferred = reference_upper_level(armed)
    elif not active and speed > 0 and last_active is not None:
        armed = last_active

    candidate = reference_candidate(levels, upstairs, knee_bit, toe_bit, downstep, inferred)
    run_length = run_length + 1 if candidate == run_of else 1
    if run_length >= debounce_ticks:
        advisory = candidate
    return ReferenceState(armed, chest if active else None, inferred, advisory, candidate,
                          run_length)


def reference_stateful(ticks, debounce_ticks) -> list:
    """(inferred, advisory) per tick, as the trace prints them: `reference_step`
    folded over `ticks` from `ReferenceState()`."""
    rows, state = [], ReferenceState()
    for tick in ticks:
        state = reference_step(state, tick, debounce_ticks)
        rows.append((state.inferred, state.advisory))
    return rows


def _gate_bits(cell: str, gate: float) -> set:
    """The stair bits a printed reading allows: both when it prints as the gate itself."""
    if cell == "-":
        return {0}
    printed = float(cell)
    return {0, 1} if printed == gate else {int(printed < gate)}


def debounce_trace_problems(text: str, debounce_ticks) -> list:
    """Rows of a trace whose advisory breaks the debounce, as messages.

    Needs only the trace and `debounce_ticks`.  Each row's candidate is
    recomputed from its own cells; a knee or toe reading that prints as
    its gate may lie either side of it, so a row allows a set of
    candidates.  With k = debounce_ticks:

    - an advisory that changes at row t is a candidate on each of rows
      t-k+1 to t;
    - when rows t-k+1 to t each allow only the same candidate c, row t's
      advisory is c.
    """
    k = math.ceil(debounce_ticks)
    lines = text.splitlines()
    header = lines[0].split(",")
    allowed, advisories = [], []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        levels = tuple(int(row[name]) for name in ("brzC", "brzK", "brzT", "brzP"))
        allowed.append({
            reference_candidate(levels, row["upstairs"] == "1", knee_bit, toe_bit,
                                row["downstep"] == "1", row["inferred"])
            for knee_bit in _gate_bits(row["d_knee"], KNEE_GATE_CM)
            for toe_bit in _gate_bits(row["d_toe"], TOE_GATE_CM)
        })
        advisories.append(row["advisory"])
    problems = []
    before = "MoveForward"
    for t, advisory in enumerate(advisories):
        held = allowed[max(0, t - k + 1):t + 1]
        if advisory != before and (t + 1 < k or any(advisory not in c for c in held)):
            problems.append(f"row {t}: {advisory} was not the candidate for {k} ticks")
        if t + 1 >= k and all(c == held[0] and len(c) == 1 for c in held):
            (settled,) = held[0]
            if advisory != settled:
                problems.append(f"row {t}: {settled} held {k} ticks, advisory is {advisory}")
        before = advisory
    return problems
