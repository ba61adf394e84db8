"""The `verify-tables` command: every channel's decision bands swept
against an independent statement of the paper's tables.

Only `verify-tables` imports this module, so a `run` does not compile
it.
"""

from __future__ import annotations

import math

from .classify import (
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
    detect_upstairs,
)

# Expected band maps, written out literally so the sweep checks the
# classifier implementations against an independent statement of the
# tables rather than against themselves.
CHEST_BANDS = ((0.0, 40.0, 4), (40.0, 60.0, 3), (60.0, 87.0, 2), (87.0, 150.0, 1), (150.0, math.inf, 0))
KNEE_BANDS = ((0.0, 10.0, 3), (10.0, 30.0, 2), (30.0, 60.0, 1), (60.0, math.inf, 0))
TOE_BANDS = ((0.0, 10.0, 3), (10.0, 20.0, 2), (20.0, 40.0, 1), (40.0, math.inf, 0))
DEPTH_BANDS = ((-math.inf, 10.0, 0), (10.0, 20.0, 1), (20.0, 40.0, 2), (40.0, math.inf, 3))

# (knee reading, toe reading) -> (upstairs, knee bit, toe bit)
STAIR_TRUTH_TABLE = (
    ((40.0, 15.0), (True, 1, 1)),   # diff 25, inside the (24, 26) window
    ((39.0, 15.0), (False, 1, 1)),  # diff 24, window is strict
    ((35.0, 15.0), (False, 1, 1)),  # two independent obstacles
    ((35.0, None), (False, 1, 0)),
    ((None, 15.0), (False, 0, 1)),
    ((None, None), (False, 0, 0)),
    ((45.0, 15.0), (False, 0, 1)),  # knee echo beyond its 40 cm gate
    ((35.0, 22.0), (False, 1, 0)),  # toe echo beyond its 20 cm gate
)


def _band_level(bands, d: float) -> int:
    for lo, hi, level in bands:
        if lo < d <= hi:
            return level
    raise AssertionError(f"no band covers {d}")


def _sweep(name, bands, classifier, out, lo=0.5, hi=300.0, step=0.5, no_echo=True) -> bool:
    ok = True
    prev = None
    d = lo
    while d <= hi + 1e-9:
        expected = _band_level(bands, d)
        got = classifier(d)
        if got != expected:
            out.write(f"{name}: MISMATCH at {d:.1f} cm: got {got}, want {expected}\n")
            ok = False
        if prev is not None and got != prev[1]:
            out.write(
                f"{name}: {prev[0]:.1f} -> level {prev[1]}, {d:.1f} -> level {got}\n"
            )
        prev = (d, got)
        d += step
    if no_echo and classifier(None) != 0:
        out.write(f"{name}: MISMATCH: no echo must be level 0\n")
        ok = False
    out.write(f"{name}: {'OK' if ok else 'FAILED'}\n")
    return ok


def verify_tables(out) -> bool:
    """Exhaustively sweep every channel's bands, reporting to `out`; True when all conform."""
    ok = True
    ok &= _sweep("chest", CHEST_BANDS, classify_chest, out)
    ok &= _sweep("knee", KNEE_BANDS, classify_knee, out)
    ok &= _sweep("toe", TOE_BANDS, classify_toe, out)
    ok &= _sweep("depth", DEPTH_BANDS, classify_depth, out, lo=0.0, hi=60.0, no_echo=False)
    stairs_ok = True
    for (knee, toe), expected in STAIR_TRUTH_TABLE:
        got = detect_upstairs(knee, toe)
        if got != expected:
            out.write(f"stairs: MISMATCH for knee={knee} toe={toe}: got {got}\n")
            stairs_ok = False
    out.write(f"stairs: {'OK' if stairs_ok else 'FAILED'}\n")
    ok &= stairs_ok
    out.write(f"verify-tables: {'PASS' if ok else 'FAIL'}\n")
    return bool(ok)
