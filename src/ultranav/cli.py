"""Scenario files, trace emission, and the command line.

The command line is `run SCENARIO [--calib FILE] [--out FILE]` or
`verify-tables` (USAGE, read by `parse_args`).  Flags may come before or
after SCENARIO, as `--flag FILE` or `--flag=FILE`, spelt in full; a
repeated flag keeps its last value.  `-h` or `--help` anywhere prints
USAGE and exits 0.  A run's parameters come only from its scenario file
plus the optional `--calib` file; `run` takes no flag that overrides a
CONFIG line.  Bad arguments, like bad scenarios and an unwritable `--out`
file, give one 'ultranav: error:' line and exit 2.

`parse_scenario` reads a scenario file, plus the calibration file, into `run_scenario`'s
arguments; a rejected value is reported with its line.  OBSTACLE, GROUND, SENSOR and WALK
fields go as text to their record, which reads each with float(); a rejected line names
its first fault: value count, non-numeric, non-finite, then the record's own rule.  Both
files are read by `_read`, past a leading byte-order mark, and split by `_lines`.

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
from io import StringIO
from itertools import compress, count
from math import isfinite

from .geometry import GeometryError, GroundSegment, Rect, SagittalScene
from .pipeline import (_MEMO_SIZE, PipelineError, SimConfig, TrajectorySegment, check_setting,
                       run_scenario)
from .sensing import SensingError, SensorName, SensorSpec, default_sensors, fit_calibration

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
    """Scenario file syntax or semantic error; `parse_scenario` adds a bad line's number."""


def _read(path) -> str:
    """The text of the file at `path`: UTF-8, past a leading byte-order mark."""
    with open(path, "rb") as fh:  # bytes, decoded at once: a text stream costs more to open
        return fh.read().decode("utf-8-sig")


def _lines(text):
    """(number, text before any '#', its fields) of each line of `text` that has a field."""
    heads = [raw.split("#", 1)[0] if "#" in raw else raw for raw in text.splitlines()]
    fields = list(map(str.split, heads))
    return compress(zip(count(1), heads, fields), fields)


def _record(kind, n, fields, directive, finite=False):
    """kind(*fields), a record that reads each field with float(), if it builds and its sum is
    finite (a `finite` record checks that itself); else the first fault, bare: value count,
    non-numeric, non-finite, then the record's own rule."""
    if len(fields) != n:
        raise ScenarioError(f"{directive} takes {n} values, got {len(fields)}")
    try:
        record = kind(*fields)
        if finite or isfinite(sum(record)):
            return record
    except ValueError:
        pass
    try:
        values = list(map(float, fields))
    except ValueError:
        raise ScenarioError(f"non-numeric value in {directive} directive") from None
    if not all(map(isfinite, values)):
        raise ScenarioError(f"non-finite value in {directive}")
    return kind(*values)  # the record's own fault, or a record whose sum overflowed


def parse_scenario(text: str, calib=None):
    """Scenario text, plus an optional calibration file, as run_scenario's arguments.

    Returns (scene, trajectory, config).  Each value is built or checked at its line, and one
    it rejects is reported with that line, even if a later line sets it again: the loop's
    one handler puts `line N:` before each fault a line raises, a record's message as it
    is.  OBSTACLE, GROUND, SENSOR and WALK lines go through `_record`.  Then the scene is
    built once, and a scene fault is reported with the line of the member
    `GeometryError.member` names; then the calibration file, then a missing WALK.  Settings
    and sensors the scenario leaves out keep their defaults.  Raises ScenarioError.
    """
    settings, sensors = {}, dict(_DEFAULT_SENSORS)
    obstacles, ground, walks = [], [], []
    for lineno, _, fields in _lines(text):
        directive = fields.pop(0)
        if directive != "OBSTACLE":
            directive = directive.upper()
        try:
            if directive == "OBSTACLE":
                obstacles.append(_record(Rect, 4, fields, directive))
            elif directive == "CONFIG":
                if len(fields) != 2:
                    raise ScenarioError("CONFIG takes 'key value'")
                key, value = fields
                if key not in _CONFIG_KEYS:
                    raise ScenarioError(f"unknown CONFIG key {key!r}")
                setting, kind = _CONFIG_KEYS[key]
                try:
                    value = kind(value)
                except ValueError:
                    raise ScenarioError(f"bad value {value!r} for CONFIG {key}") from None
                check_setting(setting, value)
                settings[setting] = value
            elif directive == "SENSOR":
                if len(fields) != 3:
                    raise ScenarioError("SENSOR takes 'name height sarl'")
                try:
                    name = SensorName(fields[0].lower())
                except ValueError:
                    raise ScenarioError(f"unknown sensor name {fields[0]!r}") from None
                # A SensorSpec holds its name, so its sum cannot be taken.
                sensors[name] = _record(partial(SensorSpec, name), 2, fields[1:], directive, True)
            elif directive == "GROUND":
                ground.append(_record(GroundSegment, 3, fields, directive))
            elif directive == "WALK":
                walks.append(_record(TrajectorySegment, 2, fields, directive))
            else:
                raise ScenarioError(f"unknown directive {directive!r}")
        except (ScenarioError, GeometryError, PipelineError, SensingError) as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None

    try:
        scene = SagittalScene(obstacles, ground)
    except GeometryError as exc:  # member i is the i-th line of its directive
        field, index = exc.member
        directive = {"obstacles": "OBSTACLE", "ground": "GROUND"}[field]
        lines = [n for n, _, fields in _lines(text) if fields[0].upper() == directive]
        raise ScenarioError(f"line {lines[index]}: {exc}") from None
    if calib is not None:
        settings["calibration"] = load_calibration(calib)
    config = SimConfig(sensors=tuple(sensors.values()), **settings)
    if not walks:
        raise ScenarioError("scenario has no WALK directive")
    return scene, walks, config


def parse_calibration_text(text: str):
    """The Calibration fitted to `actual_cm measured_cm` lines; raises SensingError."""
    pairs = []
    for lineno, head, fields in _lines(text):
        if len(fields) != 2:
            raise SensingError(f"calibration line {lineno}: expected 'actual measured', "
                               f"got {head.strip()!r}")
        try:
            pairs.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise SensingError(f"calibration line {lineno}: non-numeric value in "
                               f"{head.strip()!r}") from None
    return fit_calibration(pairs)


def load_calibration(path):
    return parse_calibration_text(_read(path))


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


def format_trace(frames) -> str:
    """Byte-stable CSV trace: TRACE_HEADER, then a row per frame, `tick,t_ms,`, lead and tail.

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


def main(argv=None) -> int:
    """The exit code for argv (default sys.argv[1:]); bad argv and failed writes raise nothing.

    Each command makes its whole text first, and one block writes it to stdout or `--out`.
    A rejected scenario or run is reported before the output file is opened, so it leaves
    an existing one untouched.
    """
    try:
        command, scenario, calib, out = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _error(exc)
    if out is None and sys.stdout is None:
        # The interpreter sets sys.stdout to None when it starts with fd 1 closed.
        return _error("stdout is closed")
    code = 0
    if command == "run":
        try:
            frames = run_scenario(*parse_scenario(_read(scenario), calib))
        except (OSError, ValueError) as exc:
            return _error(exc)
        text = format_trace(frames)
    elif command == "verify-tables":
        from .tables import verify_tables
        report = StringIO()
        code = 0 if verify_tables(report) else 1
        text = report.getvalue()
    else:
        text = USAGE
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # here, or a write that fails only at exit escapes the handler
        else:
            with open(out, "wb") as fh:  # bytes, as `_read` reads: a text stream costs more
                fh.write(text.encode())
    except (OSError, ValueError) as exc:  # ValueError: a closed stdout, or a NUL in the path
        if out is None:
            _drop_unwritten(sys.stdout)
        return _error(exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
