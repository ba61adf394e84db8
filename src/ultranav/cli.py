"""Scenario files, trace emission, and band-table verification commands.

The command line is `run SCENARIO [--calib FILE] [--out FILE]` or
`verify-tables` (USAGE, read by `parse_args`).  Flags may come before or
after SCENARIO, as `--flag FILE` or `--flag=FILE`, spelt in full; a
repeated flag keeps its last value.  `-h` or `--help` anywhere prints
USAGE and exits 0.  A run's parameters come only from its scenario file
plus the optional `--calib` file; `run` takes no flag that overrides a
CONFIG line.  Bad arguments, like bad scenarios and an unwritable `--out`
file, give one 'ultranav: error:' line and exit 2.

`parse_scenario` reads a scenario file, plus the calibration file, in one
pass into `run_scenario`'s arguments (scene, trajectory, config).  Each
value is built at the line that sets it, and a rejected one is reported
with that line.

Scenario format: one directive per line, '#' starts a comment.

    CONFIG key value        debounce_ticks, temp, temp_cal
    SENSOR name height sarl chest|knee|toe|arch, lengths in cm
    OBSTACLE x0 x1 z0 z1    rectangle in the forward x height plane (cm)
    GROUND x0 x1 dz         terrain elevation patch (cm; negative = hole)
    WALK speed seconds      constant-speed stretch (cm/s, s)

The walk starts at x = 0 and is cut into ticks of 30 ms (TICK_MS).

Trace format: CSV with header
    tick,t_ms,user_x,d_chest,d_knee,d_toe,d_down,brzC,brzK,brzT,brzP,
    upstairs,downstep,inferred,advisory
Distances have one decimal place, no-echo prints as '-'.
"""

from __future__ import annotations

import math
import sys
from functools import partial

from .classify import (
    classify_chest,
    classify_depth,
    classify_knee,
    classify_toe,
    detect_upstairs,
)
from .geometry import GeometryError, GroundSegment, Rect, SagittalScene, ground_overlap
from .pipeline import PipelineError, SimConfig, TrajectorySegment, run_scenario
from .sensing import SensingError, SensorName, SensorSpec, default_sensors, load_calibration

TRACE_HEADER = (
    "tick,t_ms,user_x,d_chest,d_knee,d_toe,d_down,"
    "brzC,brzK,brzT,brzP,upstairs,downstep,inferred,advisory"
)

# CONFIG key -> (SimConfig field, value type)
_CONFIG_KEYS = {
    "debounce_ticks": ("debounce_ticks", int),
    "temp": ("temp_actual", float),
    "temp_cal": ("temp_cal", float),
}


class ScenarioError(ValueError):
    """Scenario file syntax or semantic error, with line number."""


def _numbers(fields, n, lineno, directive):
    if len(fields) != n:
        raise ScenarioError(
            f"line {lineno}: {directive} takes {n} values, got {len(fields)}"
        )
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ScenarioError(
            f"line {lineno}: non-numeric value in {directive} directive"
        ) from None
    if not all(map(math.isfinite, values)):
        raise ScenarioError(f"line {lineno}: non-finite value in {directive}")
    return values


def _build(kind, n, fields, lineno, directive):
    """kind(*values) from a directive's n numbers; a rejected value names its line."""
    values = _numbers(fields, n, lineno, directive)
    try:
        return kind(*values)
    except (GeometryError, PipelineError, SensingError) as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


def parse_scenario(text: str, calib=None):
    """Scenario text, plus an optional calibration file, as run_scenario's arguments.

    Returns (scene, trajectory, config).  Each directive's value is built
    at its line, and a value it rejects is reported with that line; so is
    a CONFIG value SimConfig rejects.  Settings the scenario leaves out
    keep their SimConfig defaults, and sensors it leaves out their
    `default_sensors` mounts.  Raises ScenarioError.
    """
    settings = {}
    lines = {}  # SimConfig field -> line of the CONFIG directive that last set it
    sensors = {spec.name: spec for spec in default_sensors()}
    obstacles, ground, ground_lines, walks = [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        directive, *fields = body.split()
        directive = directive.upper()
        if directive == "CONFIG":
            if len(fields) != 2:
                raise ScenarioError(f"line {lineno}: CONFIG takes 'key value'")
            key, value = fields
            if key not in _CONFIG_KEYS:
                raise ScenarioError(f"line {lineno}: unknown CONFIG key {key!r}")
            setting, kind = _CONFIG_KEYS[key]
            try:
                value = kind(value)
            except ValueError:
                raise ScenarioError(
                    f"line {lineno}: bad value {value!r} for CONFIG {key}"
                ) from None
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"line {lineno}: non-finite value in CONFIG")
            settings[setting] = value
            lines[setting] = lineno
        elif directive == "SENSOR":
            if len(fields) != 3:
                raise ScenarioError(f"line {lineno}: SENSOR takes 'name height sarl'")
            try:
                name = SensorName(fields[0].lower())
            except ValueError:
                raise ScenarioError(
                    f"line {lineno}: unknown sensor name {fields[0]!r}"
                ) from None
            sensors[name] = _build(partial(SensorSpec, name), 2, fields[1:], lineno, directive)
        elif directive == "OBSTACLE":
            obstacles.append(_build(Rect, 4, fields, lineno, directive))
        elif directive == "GROUND":
            ground.append(_build(GroundSegment, 3, fields, lineno, directive))
            ground_lines.append(lineno)
        elif directive == "WALK":
            walks.append(_build(TrajectorySegment, 2, fields, lineno, directive))
        else:
            raise ScenarioError(f"line {lineno}: unknown directive {directive!r}")

    overlap = ground_overlap(ground)
    if overlap is not None:
        raise ScenarioError(
            f"line {ground_lines[overlap]}: ground segment overlaps an earlier one"
        )
    if calib is not None:
        settings["calibration"] = load_calibration(calib)
    try:
        config = SimConfig(sensors=tuple(sensors.values()), **settings)
    except PipelineError as exc:
        raise ScenarioError(f"line {lines[exc.field]}: {exc}") from None
    if not walks:
        raise ScenarioError("scenario has no WALK directive")
    return SagittalScene(obstacles, ground), walks, config


def _fmt_distance(d) -> str:
    return "-" if d is None else f"{d:.1f}"


def format_trace(frames) -> str:
    """Byte-stable CSV trace for a frame list."""
    lines = [TRACE_HEADER]
    for f in frames:
        inferred = "-" if f.flags.inferred is None else f.flags.inferred.value
        lines.append(
            ",".join(
                [
                    str(f.tick),
                    f"{f.t_ms:g}",
                    f"{f.user_x:.1f}",
                    _fmt_distance(f.d_chest),
                    _fmt_distance(f.d_knee),
                    _fmt_distance(f.d_toe),
                    _fmt_distance(f.d_down),
                    str(f.frame.brzC),
                    str(f.frame.brzK),
                    str(f.frame.brzT),
                    str(f.frame.brzP),
                    str(int(f.flags.upstairs)),
                    str(int(f.flags.downstep)),
                    inferred,
                    f.advisory.value,
                ]
            )
        )
    return "\n".join(lines) + "\n"


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


def verify_tables(out=None) -> bool:
    """Exhaustively sweep every channel's bands; True when all conform."""
    out = out if out is not None else sys.stdout
    ok = True
    ok &= _sweep("chest", CHEST_BANDS, classify_chest, out)
    ok &= _sweep("knee", KNEE_BANDS, classify_knee, out)
    ok &= _sweep("toe", TOE_BANDS, classify_toe, out)
    ok &= _sweep("depth", DEPTH_BANDS, classify_depth, out, lo=0.0, hi=60.0, no_echo=False)
    stairs_ok = True
    for (knee, toe), (upstairs, kbit, tbit) in STAIR_TRUTH_TABLE:
        got = detect_upstairs(knee, toe)
        if (got.upstairs, got.knee_bit, got.toe_bit) != (upstairs, kbit, tbit):
            out.write(
                f"stairs: MISMATCH for knee={knee} toe={toe}: "
                f"got {(got.upstairs, got.knee_bit, got.toe_bit)}\n"
            )
            stairs_ok = False
    out.write(f"stairs: {'OK' if stairs_ok else 'FAILED'}\n")
    ok &= stairs_ok
    out.write(f"verify-tables: {'PASS' if ok else 'FAIL'}\n")
    return bool(ok)


USAGE = """\
usage: ultranav run SCENARIO [--calib FILE] [--out FILE]
       ultranav verify-tables

Deterministic simulator for a four-sensor ultrasonic navigation aid.

  run SCENARIO      run a scenario file and write its trace
    --calib FILE    calibration file (actual measured per line)
    --out FILE      trace output file (default stdout)
  verify-tables     sweep all decision bands and report
"""


class UsageError(ValueError):
    """Bad command-line arguments."""


def parse_args(argv):
    """(command, scenario, calib, out) read from argv; raises UsageError.

    command is "run", "verify-tables", or "help" when argv holds -h or
    --help anywhere; the other three are None unless `run` sets them.
    """
    if "-h" in argv or "--help" in argv:
        return "help", None, None, None
    if not argv:
        raise UsageError("no command given (choose from 'run', 'verify-tables')")
    command, *words = argv
    if command == "verify-tables":
        if words:
            raise UsageError(f"verify-tables takes no arguments, got {words[0]!r}")
        return command, None, None, None
    if command != "run":
        raise UsageError(
            f"unknown command {command!r} (choose from 'run', 'verify-tables')"
        )
    flags = {"--calib": None, "--out": None}
    scenario = None
    words = iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        if name in flags:
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    raise UsageError(f"{name} needs a file")
            flags[name] = value
        elif word.startswith("-"):
            raise UsageError(f"unknown flag {name!r}")
        elif scenario is None:
            scenario = word
        else:
            raise UsageError(f"run takes one scenario, got a second: {word!r}")
    if scenario is None:
        raise UsageError("run needs a scenario file")
    return command, scenario, flags["--calib"], flags["--out"]


def _error(message) -> int:
    print(f"ultranav: error: {message}", file=sys.stderr)
    return 2


def cmd_run(scenario, calib, out) -> int:
    """Run a scenario file and write its trace to `out` or stdout; the exit code.

    The output file is opened only after the run succeeds, so a rejected
    scenario leaves an existing one untouched.
    """
    try:
        with open(scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
        frames = run_scenario(*parse_scenario(text, calib))
    except (OSError, ValueError) as exc:
        return _error(exc)
    trace = format_trace(frames)
    if out is None:
        sys.stdout.write(trace)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(trace)
    except OSError as exc:
        return _error(exc)
    return 0


def main(argv=None) -> int:
    """The CLI's exit code for argv (default sys.argv[1:]); raises nothing for bad argv."""
    try:
        command, scenario, calib, out = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _error(exc)
    if command == "run":
        return cmd_run(scenario, calib, out)
    if command == "verify-tables":
        return 0 if verify_tables(sys.stdout) else 1
    sys.stdout.write(USAGE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
