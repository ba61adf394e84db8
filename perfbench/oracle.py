"""Independent reference model and trace checker for the benchmark.

Standard library only: nothing here imports `ultranav` or the test
suite, so the checks survive refactors of the program's geometry code.

The model restates PAPER.md:

* four cones with a 30 degree divergence (+-15 degrees about the aim);
  forward cones echo off vertical faces, the downward cone off
  horizontal faces; obstacles thinner than 0.3 cm are invisible;
* the exact cone minimum: for a face at perpendicular distance L whose
  span, clipped to the cone's reach at L, lies `off` away from the aim
  axis, the nearest echo is hypot(L, off);
* sensor electronics: true hits beyond 300 cm are lost, the distance is
  scaled by c(T_cal) / c(T) with c(T) = 33130 + 60.6 T cm/s, passed
  through a least-squares calibration line, and clamped to [3, 300] cm;
* the decision tables for the stateless trace columns.
"""

from __future__ import annotations

import math

HALF_ANGLE_DEG = 15.0
MIN_RANGE_CM = 3.0
MAX_RANGE_CM = 300.0
MIN_THICKNESS_CM = 0.3
CHANNELS = ("chest", "knee", "toe", "arch")
DEFAULT_MOUNTS = {"chest": 150.0, "knee": 50.0, "toe": 5.0, "arch": 10.0}
DEFAULT_SARL = {"chest": 150.0, "knee": 60.0, "toe": 40.0, "arch": 10.0}

HEADER = (
    "tick,t_ms,user_x,d_chest,d_knee,d_toe,d_down,"
    "brzC,brzK,brzT,brzP,upstairs,downstep,inferred,advisory"
)
DECISION_COLUMNS = slice(7, 15)  # levels, flags, inferred, advisory
INFERRED = {"-", "Head", "Chest", "Waist", "Unknown"}
ADVISORIES = {
    "MoveForward", "MoveForwardCaution", "UpStairsAhead", "KneeObstacleAhead",
    "ToeObstacleAhead", "AlternatePath", "StopImmediately",
    "UpperObstacle(Head)", "UpperObstacle(Chest)", "UpperObstacle(Waist)",
    "UpperObstacle(Unknown)",
}

# (upper bound inclusive, level), nearest band first.  Depth bands are the
# pothole grades, on the depth below the foot arch.
CHEST_BANDS = ((40.0, 4), (60.0, 3), (87.0, 2), (150.0, 1), (math.inf, 0))
KNEE_BANDS = ((10.0, 3), (30.0, 2), (60.0, 1), (math.inf, 0))
TOE_BANDS = ((10.0, 3), (20.0, 2), (40.0, 1), (math.inf, 0))
DEPTH_BANDS = ((10.0, 0), (20.0, 1), (40.0, 2), (math.inf, 3))

_TAN_H = math.tan(math.radians(HALF_ANGLE_DEG))
_EPS = 1e-9
_ROUND = 0.05 + 1e-7  # half a printed 0.1 cm step, plus float slack


class Faces:
    """Echoing faces of a scene: what each cone orientation can see."""

    def __init__(self, obstacles, ground):
        kept = [o for o in obstacles if o[1] - o[0] >= MIN_THICKNESS_CM - _EPS]
        self.vertical = []    # (x, z_lo, z_hi)
        self.horizontal = []  # (z, x_lo, x_hi)
        for x0, x1, z0, z1 in kept:
            self.vertical += [(x0, z0, z1), (x1, z0, z1)]
            self.horizontal += [(z1, x0, x1), (z0, x0, x1)]
        profile = []
        cursor = None
        for x0, x1, dz in sorted(ground):
            if cursor is not None and x0 > cursor:
                profile.append((cursor, x0, 0.0))
            profile.append((x0, x1, dz))
            cursor = x1
        if not profile:
            self.horizontal.append((0.0, -math.inf, math.inf))
            return
        self.horizontal.append((0.0, -math.inf, profile[0][0]))
        self.horizontal += [(dz, x0, x1) for x0, x1, dz in profile]
        self.horizontal.append((0.0, profile[-1][1], math.inf))
        levels = [0.0] + [dz for _, _, dz in profile] + [0.0]
        edges = [profile[0][0]] + [x1 for _, x1, _ in profile]
        for x, lo, hi in zip(edges, levels, levels[1:]):
            if lo != hi:
                self.vertical.append((x, min(lo, hi), max(lo, hi)))

    def for_channel(self, channel):
        return self.horizontal if channel == "arch" else self.vertical


def cone_distance(faces, channel, ox, oz):
    """Exact nearest echo (cm) of a channel's cone at (ox, oz), or None."""
    if channel == "arch":
        along, across, table = oz, ox, faces.horizontal
        sign = -1.0
    else:
        along, across, table = ox, oz, faces.vertical
        sign = 1.0
    best = None
    for pos, lo, hi in table:
        depth = sign * (pos - along)
        if depth <= _EPS:
            continue
        reach = depth * _TAN_H
        lo, hi = max(lo, across - reach), min(hi, across + reach)
        if lo > hi + _EPS:
            continue
        off = lo - across if lo > across else (across - hi if hi < across else 0.0)
        d = math.hypot(depth, off)
        if best is None or d < best:
            best = d
    return best


def faces_in_reach(faces, channel, ox, oz):
    """(faces a full scan tests, faces within MAX_RANGE and the cone's span)."""
    table = faces.for_channel(channel)
    in_reach = 0
    for pos, lo, hi in table:
        depth = (oz - pos) if channel == "arch" else (pos - ox)
        if depth <= _EPS or depth > MAX_RANGE_CM:
            continue
        across = ox if channel == "arch" else oz
        reach = depth * _TAN_H
        if max(lo, across - reach) <= min(hi, across + reach) + _EPS:
            in_reach += 1
    return len(table), in_reach


def sound_speed(temp_c):
    return 33130.0 + 60.6 * temp_c


def fit_line(pairs):
    """Least-squares (gain, offset) of measured = gain * actual + offset."""
    n = len(pairs)
    mx = sum(a for a, _ in pairs) / n
    my = sum(m for _, m in pairs) / n
    sxx = sum((a - mx) ** 2 for a, _ in pairs)
    sxy = sum((a - mx) * (m - my) for a, m in pairs)
    gain = sxy / sxx
    return gain, my - gain * mx


def sensed(true, temp, temp_cal, line):
    """Reading the device reports for a true distance (None = no echo)."""
    if true is None or true > MAX_RANGE_CM:
        return None
    gain, offset = line
    raw = gain * (true * sound_speed(temp_cal) / sound_speed(temp)) + offset
    return min(max(raw, MIN_RANGE_CM), MAX_RANGE_CM)


def positions(job):
    """Walker x at every tick, advanced the way the tick loop documents."""
    xs = []
    x = job["start_x"]
    tick_ms = job["tick_ms"]
    for speed, seconds in job["walks"]:
        for _ in range(int(round(seconds * 1000.0 / tick_ms))):
            xs.append(x)
            x = x + speed * tick_ms / 1000.0
    return xs


def _level(bands, r):
    for bound, level in bands:
        if r <= bound:
            return level
    raise AssertionError("bands end at infinity")


def _levels_between(bands, lo, hi):
    """Every level a true value in [lo, hi] can take."""
    points = [lo, hi]
    for bound, _ in bands:
        if lo <= bound <= hi:
            points += [bound, math.nextafter(bound, math.inf)]
    return {_level(bands, p) for p in points if lo <= p <= hi}


def _interval(printed):
    """True values that print as `printed` with one decimal."""
    return printed - _ROUND, printed + _ROUND


def _depth_levels(down, arch_h):
    """Possible (brzP, downstep) sets for a printed arch reading."""
    if down is None:
        return {3}, {False}
    lo, hi = (max(v - arch_h, 0.0) for v in _interval(down))
    levels = _levels_between(DEPTH_BANDS, lo, hi)
    steps = set()
    if lo <= 30.0 and hi >= 15.0:
        steps.add(True)
    if lo < 15.0 or hi > 30.0:
        steps.add(False)
    return levels, steps


def _stair_values(knee, toe):
    """Possible `upstairs` values for printed knee and toe readings."""
    if knee is None or toe is None:
        return {False}
    (klo, khi), (tlo, thi) = _interval(knee), _interval(toe)
    values = set()
    gk, gt = min(khi, 40.0), min(thi, 20.0)
    if klo <= gk and tlo <= gt and gk - tlo > 24.0 and klo - gt < 26.0:
        values.add(True)
    if khi > 40.0 or thi > 20.0 or klo - thi <= 24.0 or khi - tlo >= 26.0:
        values.add(False)
    return values


def _distance(field):
    if field == "-":
        return None
    whole, dot, frac = field.partition(".")
    if not (dot and whole.isdigit() and frac.isdigit() and len(frac) == 1):
        raise ValueError(f"bad distance {field!r}")
    return float(field)


def check_trace(text, job, max_samples=4000):
    """Check one trace against its job; returns a result dict.

    `error` is None for a valid trace, else the first problem found.
    Distances are compared with the exact oracle on up to `max_samples`
    evenly strided ticks.
    """
    result = {"error": None, "rows": 0, "err_max": 0.0, "mismatch": 0,
              "sampled": 0, "echoes": dict.fromkeys(CHANNELS, 0)}
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        result["error"] = "bad header or missing final newline"
        return result
    rows = lines[1:-1]
    xs = positions(job)
    result["rows"] = len(rows)
    if len(rows) != len(xs):
        result["error"] = f"{len(rows)} rows, expected {len(xs)}"
        return result
    mounts = job["mounts"]
    faces = Faces(job["obstacles"], job["ground"])
    line = fit_line(job["calib_pairs"]) if job["calib_pairs"] else (1.0, 0.0)
    stride = max(1, -(-len(rows) // max_samples))
    for i, (row, x) in enumerate(zip(rows, xs)):
        cols = row.split(",")
        try:
            if len(cols) != 15:
                raise ValueError(f"{len(cols)} columns")
            if cols[0] != str(i) or cols[1] != f"{i * job['tick_ms']:g}":
                raise ValueError("tick or t_ms out of sequence")
            if abs(float(cols[2]) - x) > _ROUND:
                raise ValueError(f"user_x {cols[2]} != {x:.3f}")
            d = dict(zip(CHANNELS, map(_distance, cols[3:7])))
            lv = [int(c) for c in cols[7:11]]
            up, down = cols[11], cols[12]
            if up not in ("0", "1") or down not in ("0", "1"):
                raise ValueError("flag column is not 0/1")
            if cols[13] not in INFERRED or cols[14] not in ADVISORIES:
                raise ValueError("unknown inferred or advisory value")
            for ch, bands, got in (("chest", CHEST_BANDS, lv[0]),
                                   ("knee", KNEE_BANDS, lv[1]),
                                   ("toe", TOE_BANDS, lv[2])):
                r = d[ch]
                ok = {0} if r is None else _levels_between(bands, *_interval(r))
                if got not in ok:
                    raise ValueError(f"brz {ch} level {got} contradicts {r}")
            p_levels, steps = _depth_levels(d["arch"], mounts["arch"])
            if lv[3] not in p_levels or (down == "1") not in steps:
                raise ValueError(f"brzP/downstep {lv[3]}/{down} contradict {d['arch']}")
            if (up == "1") not in _stair_values(d["knee"], d["toe"]):
                raise ValueError(f"upstairs {up} contradicts knee/toe readings")
        except ValueError as exc:
            result["error"] = f"row {i}: {exc}"
            return result
        for ch in CHANNELS:
            result["echoes"][ch] += d[ch] is not None
        if i % stride:
            continue
        for ch in CHANNELS:
            want = sensed(cone_distance(faces, ch, x, mounts[ch]),
                          job["temp"], job["temp_cal"], line)
            result["sampled"] += 1
            if (want is None) != (d[ch] is None):
                result["mismatch"] += 1
            elif want is not None:
                result["err_max"] = max(result["err_max"], abs(d[ch] - want))
    return result
