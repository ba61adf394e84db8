"""Scenario files, trace emission, and the command line.

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
with that line.  OBSTACLE and GROUND fields go to `Rect` or `GroundSegment`,
which reads each with float() once.  A rejected line names the first check
it fails: value count, non-numeric, non-finite, then the record's own rule.

Scenario format: one directive per line, '#' starts a comment.

    CONFIG key value        debounce_ticks, temp, temp_cal
    SENSOR name height sarl chest|knee|toe|arch, lengths in cm
    OBSTACLE x0 x1 z0 z1    rectangle in the forward x height plane (cm)
    GROUND x0 x1 dz         terrain elevation patch (cm; negative = hole)
    WALK speed seconds      constant-speed stretch (cm/s, s)

The walk starts at x = 0 and is cut into ticks of 30 ms (TICK_MS).  Each
tick's user_x is the exact sum of the steps (speed * 30 ms) before it,
rounded to a float once.

Trace format: CSV with header
    tick,t_ms,user_x,d_chest,d_knee,d_toe,d_down,brzC,brzK,brzT,brzP,
    upstairs,downstep,inferred,advisory
t_ms is the whole number of ms, tick * 30.  Distances have one decimal
place, no-echo prints as '-'.
"""

from __future__ import annotations

import os
import sys
from functools import cache, partial
from math import isfinite

from .geometry import (GeometryError, GroundSegment, Rect, SagittalScene, buried_obstacle,
                       ground_overlap)
from .pipeline import (_MEMO_SIZE, PipelineError, SimConfig, TrajectorySegment, check_setting,
                       run_scenario)
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


# Each parse starts from a copy of these mounts, built once per process.
_DEFAULT_SENSORS = {spec.name: spec for spec in default_sensors()}


class ScenarioError(ValueError):
    """Scenario file syntax or semantic error, with line number."""


def _build(kind, n, fields, lineno, directive):
    """kind(*values) from a directive's n numbers; a rejected line names its first fault."""
    if len(fields) != n:
        raise ScenarioError(f"line {lineno}: {directive} takes {n} values, got {len(fields)}")
    try:
        values = list(map(float, fields))
    except ValueError:
        raise ScenarioError(f"line {lineno}: non-numeric value in {directive} directive") from None
    if not all(map(isfinite, values)):
        raise ScenarioError(f"line {lineno}: non-finite value in {directive}")
    try:
        return kind(*values)
    except (GeometryError, PipelineError, SensingError) as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


def _record(kind, n, fields, lineno, directive):
    """kind(*fields), whose record reads each field with float(), if it builds with a
    finite sum; else `_build`, which names the first fault or builds if the sum overflowed."""
    if len(fields) == n:
        try:
            if isfinite(sum(record := kind(*fields))):
                return record
        except ValueError:
            pass
    return _build(kind, n, fields, lineno, directive)


def parse_scenario(text: str, calib=None):
    """Scenario text, plus an optional calibration file, as run_scenario's arguments.

    Returns (scene, trajectory, config).  Each directive's value is built
    or checked at its line, and a value it rejects is reported with that
    line, even if a later line sets it again.  OBSTACLE and GROUND fields go
    to the record, which reads each with float(); a rejected line names its
    first fault: count, non-numeric, non-finite, the record's rule.  Settings
    the scenario leaves out keep their SimConfig defaults, and sensors it
    leaves out their `default_sensors` mounts.  Raises ScenarioError.
    """
    settings = {}
    sensors = dict(_DEFAULT_SENSORS)
    obstacles, obstacle_lines, ground, ground_lines, walks = [], [], [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
        directive = fields.pop(0)
        if directive != "OBSTACLE":
            directive = directive.upper()
        if directive == "OBSTACLE":
            obstacles.append(_record(Rect, 4, fields, lineno, directive))
            obstacle_lines.append(lineno)
        elif directive == "CONFIG":
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
            try:
                check_setting(setting, value)
            except PipelineError as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
            settings[setting] = value
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
        elif directive == "GROUND":
            ground.append(_record(GroundSegment, 3, fields, lineno, directive))
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
    config = SimConfig(sensors=tuple(sensors.values()), **settings)
    if not walks:
        raise ScenarioError("scenario has no WALK directive")
    try:
        scene = SagittalScene(obstacles, ground)
    except GeometryError as exc:  # the ground was checked above: a buried obstacle
        buried = buried_obstacle(obstacles, SagittalScene((), ground).ground_profile)
        raise ScenarioError(f"line {obstacle_lines[buried]}: {exc}") from None
    return scene, walks, config


def _format_lead(x, d_chest, d_knee, d_toe, d_down, frame) -> str:
    """A row's `user_x` to `brzP` columns and the comma after them."""
    # No echo prints as '-'; inline, as a call per reading costs as much as its format.
    return (
        f"{x:.1f},{'-' if d_chest is None else f'{d_chest:.1f}'},"
        f"{'-' if d_knee is None else f'{d_knee:.1f}'},"
        f"{'-' if d_toe is None else f'{d_toe:.1f}'},"
        f"{'-' if d_down is None else f'{d_down:.1f}'},"
        f"{frame.brzC},{frame.brzK},{frame.brzT},{frame.brzP},"
    )


@cache
def _format_tail(flags, advisory) -> str:
    """A row's `upstairs` to `advisory` columns and its newline, cached per pair.

    Each column prints int() of a flag or the `.value` of an enum member, so
    equal keys (True, 1, 1.0) print alike.  Pipeline rows give at most 80 flags
    values by 11 advisories; hand-built rows add one entry per distinct pair,
    as with `pipeline.fuse`.
    """
    inferred = "-" if flags.inferred is None else flags.inferred.value
    # The two flags are bools: int() prints them as 0 or 1, faster than a `:d` spec.
    return f"{int(flags.upstairs)},{int(flags.downstep)},{inferred},{advisory.value}\n"


def format_row(row) -> str:
    """One FrameOutput as a trace row, its newline included."""
    tick, t_ms, x, d_chest, d_knee, d_toe, d_down, frame, advisory, flags = row
    return (
        f"{tick},{t_ms},{_format_lead(x, d_chest, d_knee, d_toe, d_down, frame)}"
        f"{_format_tail(flags, advisory)}"
    )


def format_trace(frames) -> str:
    """Byte-stable CSV trace: TRACE_HEADER, then the format_row of each frame.

    A lead (`user_x` to `brzP`) is reused only with the very x, reading and
    `frame` objects it came from, as a run's revisits give them, since equal
    values can print apart (1, 1.0, True; 0.0, -0.0); leads are kept per call
    and clear at pipeline._MEMO_SIZE entries, as the run's memo does.  A tail
    (`upstairs` to `advisory`) is the row before's if the row has its very
    flags and advisory, else the cached `_format_tail`.
    """
    out, leads = [TRACE_HEADER + "\n"], {}
    last_flags = last_advisory = object()  # a sentinel: the first row looks its tail up
    for tick, t_ms, x, d_chest, d_knee, d_toe, d_down, frame, advisory, flags in frames:
        kept = leads.get(x)
        if (kept is not None and kept[0] is x and kept[1] is d_chest and kept[2] is d_knee
                and kept[3] is d_toe and kept[4] is d_down and kept[5] is frame):
            lead = kept[6]
        else:
            lead = _format_lead(x, d_chest, d_knee, d_toe, d_down, frame)
            if len(leads) >= _MEMO_SIZE:
                leads.clear()
            leads[x] = (x, d_chest, d_knee, d_toe, d_down, frame, lead)
        if flags is not last_flags or advisory is not last_advisory:
            last_flags, last_advisory = flags, advisory
            tail = _format_tail(flags, advisory)
        out.append(f"{tick},{t_ms},{lead}{tail}")
    return "".join(out)


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


def _drop_unwritten(stream) -> None:
    """Point a failed standard stream, if open, at os.devnull, or the flush at exit fails again."""
    if (stream is sys.__stdout__ or stream is sys.__stderr__) and not stream.closed:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _error(message) -> int:
    """Report `message` on stderr if it takes it; 2, the exit code, in any case."""
    if sys.stderr is not None:
        try:
            print(f"ultranav: error: {message}", file=sys.stderr, flush=True)
        except (OSError, ValueError):  # a closed file raises ValueError
            _drop_unwritten(sys.stderr)
    return 2


def cmd_run(scenario, calib, out) -> int:
    """Run a scenario file and write its trace to `out` or stdout; the exit code.

    The output file is opened only after the run succeeds, so a rejected
    scenario leaves an existing one untouched; `main` reports a failed write.
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
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(trace)
    return 0


def main(argv=None) -> int:
    """The exit code for argv (default sys.argv[1:]); bad argv and failed writes raise nothing."""
    try:
        command, scenario, calib, out = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _error(exc)
    if out is None and sys.stdout is None:
        # The interpreter sets sys.stdout to None when it starts with fd 1 closed.
        return _error("stdout is closed")
    try:
        if command == "run":
            code = cmd_run(scenario, calib, out)
        elif command == "verify-tables":
            from .tables import verify_tables
            code = 0 if verify_tables(sys.stdout) else 1
        else:
            sys.stdout.write(USAGE)
            code = 0
        if out is None:
            sys.stdout.flush()  # here, or a write that fails only at exit escapes the handler
    except (OSError, ValueError) as exc:
        # `_error` raises nothing and `cmd_run` maps its parse and run errors, so this
        # failure is the output's, stdout or --out (ValueError: closed, or a NUL in the path).
        if out is None:
            _drop_unwritten(sys.stdout)
        return _error(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
