import errno
import io
import math
import os
import subprocess
import sys
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ultranav import cli
from ultranav.classify import Advisory, BuzzerFrame, UpperLevel
from ultranav.cli import (
    TRACE_HEADER,
    ScenarioError,
    _format_tail,
    format_trace,
    main,
    parse_args,
    parse_scenario,
)
from ultranav.geometry import GeometryError, GroundSegment, Rect, SagittalScene
from ultranav.pipeline import (
    _MEMO_SIZE,
    MAX_TICKS,
    FrameOutput,
    PipelineError,
    SimConfig,
    TickFlags,
    TickState,
    TrajectorySegment,
    run_scenario,
    sense,
    tick,
    trajectory_ticks,
)
from ultranav.sensing import (
    AIR_TEMP_RANGE_C,
    SensorName,
    SensorSpec,
    default_sensors,
    sound_speed,
)
from ultranav.tables import verify_tables

from oracles import reference_row

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = SCENARIO_DIR / "golden"
# The commands that write to stdout.
STDOUT_COMMANDS = [["run", str(SCENARIO_DIR / "flat_walk.scn")], ["verify-tables"], ["--help"]]
# Commands that fail with one error line on stderr; `{tmp}` is a fresh directory.
STDERR_FAILURES = [
    pytest.param(["run", "{tmp}/no/such.scn"], id="missing-scenario"),
    pytest.param(["bogus"], id="unknown-command"),
    pytest.param(["run", str(SCENARIO_DIR / "flat_walk.scn"), "--out", "{tmp}/no/such/dir/t.csv"],
                 id="unwritable-out"),
]


def run_cli(argv, prelude="", close_fd=None, then=""):
    """Run `main(argv)` in a fresh interpreter, which starts with fd `close_fd`
    closed if it is given, then the code `then`; returns the CompletedProcess."""
    code = (f"{prelude}\nimport sys\nfrom ultranav.cli import main\ncode = main({argv!r})\n"
            f"{then}\nsys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    # Block-buffered stdout, as a console script's is when redirected.
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=None if close_fd is None else lambda: os.close(close_fd),
    )


def check_exit_2(argv, named, capsys):
    """argv gives exit 2, empty stdout and one error line naming `named`, in a
    fresh interpreter and in process, where main returns rather than raises."""
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("ultranav: error:") and named in proc.stderr

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == proc.stderr


class TestParser:
    def test_run_flags(self):
        assert parse_args(["run", "walk.scn", "--calib", "cal.txt", "--out", "trace.csv"]) == (
            "run",
            "walk.scn",
            "cal.txt",
            "trace.csv",
        )
        assert parse_args(["run", "walk.scn"]) == ("run", "walk.scn", None, None)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--calib", "cal.txt", "--out", "trace.csv", "walk.scn"], id="before"),
            pytest.param(["--out", "trace.csv", "walk.scn", "--calib", "cal.txt"], id="around"),
            pytest.param(["walk.scn", "--out=trace.csv", "--calib=cal.txt"], id="equals"),
            pytest.param(
                ["--out", "old.csv", "walk.scn", "--calib=c0", "--calib", "cal.txt", "--out=trace.csv"],
                id="repeated",
            ),
        ],
    )
    def test_flag_spellings(self, argv):
        assert parse_args(["run", *argv]) == ("run", "walk.scn", "cal.txt", "trace.csv")

    def test_verify_tables_command(self):
        assert parse_args(["verify-tables"]) == ("verify-tables", None, None, None)

    def test_help_exits_zero(self):
        result = run_cli(["--help"])
        assert result.returncode == 0
        assert result.stdout.startswith("usage: ultranav")

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["run", "-h"], ["run", "walk.scn", "--help"], ["verify-tables", "-h"], ["walk", "-h"]],
        ids=" ".join,
    )
    def test_help_in_process(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ultranav run SCENARIO")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv,named",
        [
            pytest.param([], "no command given", id="no-command"),
            pytest.param(["walk", "x.scn"], "unknown command 'walk'", id="unknown-command"),
            pytest.param(["run"], "run needs a scenario file", id="no-scenario"),
            pytest.param(["verify-tables", "x"], "verify-tables takes no arguments", id="verify-arg"),
        ],
    )
    def test_malformed_exit_2(self, capsys, argv, named):
        check_exit_2(argv, named, capsys)


class TestParseScenario:
    def test_obstacle_directive(self):
        scene, _, _ = parse_scenario("OBSTACLE 100 102 0 200\nWALK 100 1\n")
        assert scene.obstacles == (Rect(100, 102, 0, 200),)

    def test_ground_directive(self):
        scene, _, _ = parse_scenario("GROUND 500 560 -30\nWALK 100 1\n")
        assert scene.ground == (GroundSegment(500, 560, -30),)

    def test_walk_tick_count(self):
        _, trajectory, _ = parse_scenario("WALK 140 3.0\n")
        assert trajectory == [TrajectorySegment(140.0, 3.0)]
        assert trajectory_ticks(trajectory) == [100]

    def test_comments_and_blank_lines(self):
        _, trajectory, _ = parse_scenario("# header\n\nWALK 100 1  # trailing\n")
        assert trajectory == [TrajectorySegment(100.0, 1.0)]

    def test_config_and_sensor(self):
        _, _, config = parse_scenario("CONFIG temp 25\nSENSOR chest 140 150\nWALK 100 1\n")
        assert config.temp_actual == 25.0
        assert config.sensors == (SensorSpec(SensorName.CHEST, 140.0, 150.0), *default_sensors()[1:])

    def test_unknown_directive(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("WALK 100 1\nJUMP 3\n")

    def test_unknown_config_key(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("CONFIG warp 9\n")

    def test_inverted_rect_reports_line(self):
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario("# c\nWALK 100 1\nOBSTACLE 10 5 0 10\n")

    def test_overlapping_ground_reports_line(self):
        for second, x in (("GROUND 40 90 -20", 40.0), ("GROUND 0 30 -20", 0.0)):
            with pytest.raises(ScenarioError) as raised:
                parse_scenario(f"GROUND 0 50 -10\n{second}\nWALK 100 1\n")
            assert str(raised.value) == f"line 2: overlapping ground segments at x={x}"

    @pytest.mark.parametrize("text,calib_text,message", [
        pytest.param("OBSTACLE 150 160 -40 -20\nGROUND 0 50 -10\nGROUND 40 90 -20\nWALK 100 1\n",
                     None, "line 3: overlapping ground segments at x=40.0",
                     id="overlap-before-buried"),
        pytest.param("OBSTACLE 150 160 -40 -20\nWALK 100 1\n", "20 21\nfar 300\n",
                     "line 1: obstacle [150.0, 160.0] lies wholly below the terrain (top z1=-20.0)",
                     id="buried-before-calib"),
        pytest.param("OBSTACLE 150 160 -40 -20\n", None,
                     "line 1: obstacle [150.0, 160.0] lies wholly below the terrain (top z1=-20.0)",
                     id="buried-before-missing-walk"),
        pytest.param("OBSTACLE 1 2 0 1\n", "20 21\nfar 300\n",
                     "calibration line 2: non-numeric value in 'far 300'",
                     id="calib-before-missing-walk"),
    ])
    def test_report_order(self, tmp_path, text, calib_text, message):
        # Line faults in line order, then scene faults, the calibration file
        # and a missing WALK.
        calib = None
        if calib_text is not None:
            calib = tmp_path / "cal.txt"
            calib.write_text(calib_text)
        with pytest.raises(ValueError) as raised:
            parse_scenario(text, calib)
        assert str(raised.value) == message

    def test_builds_the_scene_once(self, monkeypatch):
        built = []
        new = SagittalScene.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(SagittalScene, "__new__", staticmethod(counting))
        for text in ("OBSTACLE 1 2 0 1\nWALK 100 1\n", "GROUND 0 50 -10\nGROUND 40 90 -20\n",
                     "GROUND 0 50 -10\nOBSTACLE 1 2 -30 -20\nWALK 100 1\n"):
            built.clear()
            try:
                parse_scenario(text)
            except ScenarioError:
                pass
            assert len(built) == 1

    def test_sensor_override_applies(self):
        _, _, config = parse_scenario("SENSOR chest 140 150\nWALK 100 1\n")
        chest = config.sensors[0]
        assert chest.mount_height == 140.0

    def test_programming_error_escapes_unprefixed(self, monkeypatch):
        # Only the input's error types are named by their line: a plain
        # ValueError, as from a bug, shows as itself.
        def broken(name, value):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "check_setting", broken)
        with pytest.raises(ValueError) as raised:
            parse_scenario("CONFIG temp 20\nWALK 100 1\n")
        assert type(raised.value) is ValueError
        assert str(raised.value) == "bug"

    def test_missing_walk_rejected(self):
        with pytest.raises(ScenarioError, match="WALK"):
            parse_scenario("OBSTACLE 100 102 0 200\n")

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
    def test_returns_run_scenario_arguments(self, path):
        golden = GOLDEN_DIR / f"{path.stem}.trace.csv"
        frames = run_scenario(*parse_scenario(path.read_text()))
        assert format_trace(frames) == golden.read_text()

    @pytest.mark.parametrize("text,built", [
        ("OBSTACLE 100 102 0 200\nCONFIG temp 25\nWALK 100 1\n", 0),
        ("SENSOR knee 53.5 60\nWALK 100 1\n", 1),
        ("SENSOR knee 53.5 60\nSENSOR arch 9 10\nSENSOR knee 52 60\nWALK 100 1\n", 3),
    ])
    def test_builds_one_sensor_spec_per_sensor_line(self, monkeypatch, text, built):
        parse_scenario(text)  # builds whatever the loader keeps per process
        calls = []
        new = SensorSpec.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(SensorSpec, "__new__", staticmethod(counting))
        for _ in range(2):
            parse_scenario(text)
        assert len(calls) == 2 * built


# Bad OBSTACLE lines and the exact error each gives.
_BAD_OBSTACLES = [
    pytest.param("OBSTACLE 1 2 3", "OBSTACLE takes 4 values, got 3", id="three-values"),
    pytest.param("OBSTACLE 1 2 3 4 5", "OBSTACLE takes 4 values, got 5", id="five-values"),
    pytest.param("OBSTACLE", "OBSTACLE takes 4 values, got 0", id="no-values"),
    pytest.param("OBSTACLE a b c", "OBSTACLE takes 4 values, got 3", id="count-before-numbers"),
    pytest.param("OBSTACLE 1 2 x 4", "non-numeric value in OBSTACLE directive", id="non-numeric"),
    pytest.param("OBSTACLE 0x10 20 0 1", "non-numeric value in OBSTACLE directive", id="hex"),
    pytest.param("OBSTACLE nan 2 x 4", "non-numeric value in OBSTACLE directive",
                 id="non-numeric-before-non-finite"),
    pytest.param("OBSTACLE nan 2 0 4", "non-finite value in OBSTACLE", id="nan"),
    pytest.param("OBSTACLE 1 2 0 nan", "non-finite value in OBSTACLE", id="nan-last"),
    pytest.param("OBSTACLE 0 inf 0 4", "non-finite value in OBSTACLE", id="inf"),
    pytest.param("OBSTACLE -inf 2 0 4", "non-finite value in OBSTACLE", id="minus-inf"),
    pytest.param("OBSTACLE 1 1e400 0 4", "non-finite value in OBSTACLE", id="1e400"),
    pytest.param("OBSTACLE 5 1 inf 0", "non-finite value in OBSTACLE",
                 id="non-finite-before-inverted"),
    pytest.param("OBSTACLE 10 5 0 10", "rect needs x0 < x1, got [10.0, 5.0]", id="x-inverted"),
    pytest.param("OBSTACLE 5 5 0 10", "rect needs x0 < x1, got [5.0, 5.0]", id="x-equal"),
    pytest.param("OBSTACLE 0 1 7 -7", "rect needs z0 < z1, got [7.0, -7.0]", id="z-inverted"),
    pytest.param("OBSTACLE 0 1 7 7", "rect needs z0 < z1, got [7.0, 7.0]", id="z-equal"),
    pytest.param("OBSTACLE 1 0 1 0", "rect needs x0 < x1, got [1.0, 0.0]", id="x-before-z"),
    pytest.param("obstacle 1 2 3", "OBSTACLE takes 4 values, got 3", id="lowercase"),
    pytest.param("OBSTACLE 1 2 3 # 4", "OBSTACLE takes 4 values, got 3", id="commented-out"),
]

# OBSTACLE values that are accepted, each as float() reads it, and SENSOR values
# in the same spellings.
_GOOD_OBSTACLES = [
    pytest.param("OBSTACLE 1e308 1.7e308 0 1", id="bounds-sum-overflows"),
    pytest.param("OBSTACLE -1.7e308 -1e308 -1e308 1e308", id="bounds-sum-overflows-negative"),
    pytest.param("OBSTACLE -0 +5 -0.0 +1", id="signs"),
    pytest.param("OBSTACLE .5 5. 0 1", id="bare-points"),
    pytest.param("OBSTACLE 1_0 2_0 0 1", id="underscores"),
    pytest.param("OBSTACLE\t1\t2\t0\t1", id="tabs"),
    pytest.param("obstacle 1 2 0 1", id="lowercase"),
    pytest.param("  OBSTACLE 1 2 0 1  # a box", id="comment"),
    pytest.param("OBSTACLE 1e-320 2e-320 0 5e-324", id="subnormals"),
    pytest.param("SENSOR knee 5_0 6_0", id="sensor-underscores"),
    pytest.param("SENSOR knee .5 5.", id="sensor-bare-points"),
    pytest.param("SENSOR\tknee\t+50\t60", id="sensor-tabs-and-signs"),
    pytest.param("SENSOR arch 5e-324 1e-320", id="sensor-subnormals"),
    pytest.param("  sensor Toe 5 40  # a mount", id="sensor-mixed-case-comment"),
]

# Bad GROUND lines and the exact error each gives.
_BAD_GROUNDS = [
    pytest.param("GROUND 1 2", "GROUND takes 3 values, got 2", id="two-values"),
    pytest.param("GROUND 1 2 -3 4", "GROUND takes 3 values, got 4", id="four-values"),
    pytest.param("GROUND", "GROUND takes 3 values, got 0", id="no-values"),
    pytest.param("GROUND a b", "GROUND takes 3 values, got 2", id="count-before-numbers"),
    pytest.param("GROUND 1 2 x", "non-numeric value in GROUND directive", id="non-numeric"),
    pytest.param("GROUND 0x10 20 -3", "non-numeric value in GROUND directive", id="hex"),
    pytest.param("GROUND nan 2 x", "non-numeric value in GROUND directive",
                 id="non-numeric-before-non-finite"),
    *(pytest.param(" ".join(value if i == place else field
                            for i, field in enumerate(("GROUND", "1", "2", "-3"))),
                   "non-finite value in GROUND", id=f"{value}-at-{place}")
      for value, place in product(("nan", "inf", "-inf", "1e400"), range(1, 4))),
    pytest.param("GROUND inf 0 -5", "non-finite value in GROUND", id="non-finite-before-inverted"),
    pytest.param("GROUND 10 5 -5", "ground segment needs x0 < x1, got [10.0, 5.0]",
                 id="x-inverted"),
    pytest.param("GROUND 5 5 -5", "ground segment needs x0 < x1, got [5.0, 5.0]", id="x-equal"),
    pytest.param("ground 1 2", "GROUND takes 3 values, got 2", id="lowercase"),
    pytest.param("GROUND 1 2 # -3", "GROUND takes 3 values, got 2", id="commented-out"),
]

# GROUND values that are accepted, each as float() reads it, and WALK values in
# the same spellings.
_GOOD_GROUNDS = [
    pytest.param("GROUND 1e308 1.7e308 -5", id="values-sum-overflows"),
    pytest.param("GROUND -0 5 -0", id="minus-zero"),
    pytest.param("GROUND 1_0 2_0 -1_0", id="underscores"),
    pytest.param("GROUND\t1\t2\t-3", id="tabs"),
    pytest.param("Ground 1 2 -3", id="mixed-case"),
    pytest.param("  GROUND 1 2 -3  # a hole", id="comment"),
    pytest.param("WALK 1_0 1_0", id="walk-underscores"),
    pytest.param("WALK .5 5.", id="walk-bare-points"),
    pytest.param("WALK -0 +1", id="walk-signs"),
    pytest.param("WALK\t100\t1", id="walk-tabs"),
    pytest.param("WALK 5e-324 1e-320", id="walk-subnormals"),
    pytest.param("  walk 100 1  # a stretch", id="walk-lowercase-comment"),
]


def _parsed_and_reference(line):
    """The record parse_scenario builds from `line`, an OBSTACLE, GROUND, SENSOR or
    WALK line, and the record its class builds from float() of each value."""
    directive, *fields = line.split("#")[0].split()
    directive = directive.upper()
    scene, walks, config = parse_scenario(line if directive == "WALK" else f"{line}\nWALK 100 1\n")
    if directive == "SENSOR":
        name = SensorName(fields.pop(0).lower())
        (parsed,) = [spec for spec in config.sensors if spec.name is name]
        return parsed, SensorSpec(name, *map(float, fields))
    kind, (parsed,) = {"OBSTACLE": (Rect, scene.obstacles), "GROUND": (GroundSegment, scene.ground),
                       "WALK": (TrajectorySegment, walks)}[directive]
    return parsed, kind(*map(float, fields))


_NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-500, 500).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "x", "0x10", "1_0",
                     "1__0", "_1", "-0", "+5", ".5", "5.", "1e308", "1.7e308", "-1.7e308"]),
)


@st.composite
def _box_fields(draw):
    """Four values that mostly make a valid box, printed in a few spellings."""
    x0 = draw(st.floats(-1e4, 1e4))
    z0 = draw(st.floats(-1e3, 1e3))
    widths = st.floats(1.0, 1e3)
    values = [x0, x0 + draw(widths), z0, z0 + draw(widths)]
    if draw(st.integers(0, 15)) == 0:  # one pair of bounds the wrong way round
        i = draw(st.sampled_from([0, 2]))
        values[i], values[i + 1] = values[i + 1], values[i]
    spell = draw(st.sampled_from([repr, "{:.3f}".format, "{:g}".format]))
    return tuple(map(spell, values))


# Texts that are not a finite float.
_BAD_NUMBER_TEXTS = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "x", "0x10", "1__0", "_1"]


@st.composite
def _ground_fields(draw, i):
    """The values of a GROUND line in slot [-1000 - 10 i, -995 - 10 i), in a few
    spellings; sometimes with a bad count, a bad text or x0 >= x1.  A line the
    loader accepts stays in its slot, apart from every other GROUND line."""
    values = [-1000.0 - 10 * i, -995.0 - 10 * i, draw(st.floats(-100.0, 100.0))]
    if draw(st.integers(0, 7)) == 0:  # an empty or inverted span
        values[1] = draw(st.sampled_from([values[0], values[0] - 5.0]))
    spell = draw(st.sampled_from([repr, "{:g}".format, "{:_}".format]))
    fields = list(map(spell, values))
    for place in range(3):
        if draw(st.integers(0, 9)) == 0:  # any text for dz, only a bad one for x0 or x1
            fields[place] = draw(_NUMBER_TEXTS if place == 2 else st.sampled_from(_BAD_NUMBER_TEXTS))
    count = draw(st.sampled_from([2, 3, 3, 3, 3, 3, 4]))
    return tuple(fields[:count] + [draw(_NUMBER_TEXTS)] * (count - 3))


# Lines of the other directives, as (line, None), and bad ones, as (line, error),
# where `{n}` stands for the line number.
_OTHER_LINES = [
    ("CONFIG temp 25", None),
    ("SENSOR knee 53.5 60", None),
    ("WALK 100 1", None),
    ("# a comment", None),
    ("", None),
    ("  \t", None),
]
_BAD_OTHER_LINES = [
    ("WALK 600 1", "line {n}: |speed| must be <= 500.0 cm/s"),
    ("JUMP 3", "line {n}: unknown directive 'JUMP'"),
    ("CONFIG warp 9", "line {n}: unknown CONFIG key 'warp'"),
    ("GROUND 0 1 nan", "line {n}: non-finite value in GROUND"),
]


@st.composite
def _loader_lines(draw):
    """Scenario lines as (text, expected): for an OBSTACLE line or a wild GROUND
    line its fields, else None or the error the line gives."""
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["box"] * 12 + ["wild", "ground", "wild ground", "other",
                                                     "bad"]))
        if kind == "ground":  # apart from every other GROUND line
            lines.append((f"GROUND {-1000 - 10 * i} {-995 - 10 * i} -3", None))
            continue
        if kind in ("other", "bad"):
            lines.append(draw(st.sampled_from(_OTHER_LINES if kind == "other" else _BAD_OTHER_LINES)))
            continue
        count = st.sampled_from([3, 4, 4, 4, 4, 5])
        if kind == "wild ground":
            fields = draw(_ground_fields(i))
        else:
            fields = draw(_box_fields() if kind == "box" else count.flatmap(
                lambda n: st.lists(_NUMBER_TEXTS, min_size=n, max_size=n).map(tuple)))
        sep = st.sampled_from([" ", "\t", "  ", " \t "])
        name = "GROUND" if kind == "wild ground" else "OBSTACLE"
        text = draw(st.sampled_from([name, name.lower(), name.title()]))
        for field in fields:
            text += draw(sep) + field
        text += draw(st.sampled_from(["", " ", " # 1 2", "#"]))
        lines.append((draw(st.sampled_from(["", " "])) + text, fields))
    return lines


def _reference_obstacles(lines):
    """(obstacles, None), or (None, the first error), for `_loader_lines` lines, one at a time.

    Once every line is read, an obstacle whose top is at or below the
    terrain at every x of [x0, x1] is an error at its line.  The GROUND
    lines lie apart, so a span inside none of them also meets flat ground.
    """
    obstacles, obstacle_lines, holes = [], [], []
    for lineno, (text, expected) in enumerate(lines, start=1):
        if isinstance(expected, str):
            return None, expected.format(n=lineno)
        if expected is None:
            if text.startswith("GROUND"):
                holes.append(tuple(map(float, text.split()[1:])))
            continue
        directive = text.split()[0].upper()
        kind, n = (Rect, 4) if directive == "OBSTACLE" else (GroundSegment, 3)
        if len(expected) != n:
            return None, f"line {lineno}: {directive} takes {n} values, got {len(expected)}"
        try:
            values = [float(f) for f in expected]
        except ValueError:
            return None, f"line {lineno}: non-numeric value in {directive} directive"
        if not all(map(math.isfinite, values)):
            return None, f"line {lineno}: non-finite value in {directive}"
        try:
            record = kind(*values)
        except GeometryError as exc:
            return None, f"line {lineno}: {exc}"
        if kind is GroundSegment:
            holes.append(record)
            continue
        obstacles.append(record)
        obstacle_lines.append(lineno)
    for lineno, (x0, x1, _, z1) in zip(obstacle_lines, obstacles):
        levels = [dz for a, b, dz in holes if a <= x1 and x0 < b]
        if not any(a <= x0 and x1 < b for a, b, _ in holes):
            levels.append(0.0)
        if all(z1 <= dz for dz in levels):
            return None, (f"line {lineno}: obstacle [{x0}, {x1}] lies wholly below the terrain"
                          f" (top z1={z1})")
    return tuple(obstacles), None


class TestObstacleLoader:
    @pytest.mark.parametrize("line,message", _BAD_OBSTACLES)
    def test_error_names_its_line(self, line, message):
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(f"# header\nWALK 100 1\n{line}\nOBSTACLE 1 2 0 1\n")
        assert str(raised.value) == f"line 3: {message}"

    @pytest.mark.parametrize("line", _GOOD_OBSTACLES)
    def test_accepted_values(self, line):
        parsed, expected = _parsed_and_reference(line)
        assert type(parsed) is type(expected)
        assert list(map(repr, parsed)) == list(map(repr, expected))

    @pytest.mark.parametrize("text,message", [
        pytest.param("WALK 100 1\nOBSTACLE 5 1 0 1\nOBSTACLE 1 2 0 1\nWALK 600 1\n",
                     "line 2: rect needs x0 < x1, got [5.0, 1.0]", id="obstacle-first"),
        pytest.param("WALK 100 1\nWALK 600 1\nOBSTACLE 1 2 0 1\nOBSTACLE 5 1 0 1\n",
                     "line 2: |speed| must be <= 500.0 cm/s", id="walk-first"),
        pytest.param("OBSTACLE 1 2 0\nCONFIG warp 9\nWALK 100 1\n",
                     "line 1: OBSTACLE takes 4 values, got 3", id="obstacle-before-config"),
        pytest.param("GROUND 0 1 x\nOBSTACLE nan 2 0 1\nWALK 100 1\n",
                     "line 1: non-numeric value in GROUND directive", id="ground-first"),
        pytest.param("OBSTACLE 1 2 0 1\nGROUND 0 50 -10\nGROUND 40 90 -20\nOBSTACLE 2 1 0 1\n"
                     "WALK 100 1\n",
                     "line 4: rect needs x0 < x1, got [2.0, 1.0]", id="obstacle-before-overlap"),
    ])
    def test_first_error_wins(self, text, message):
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(text)
        assert str(raised.value) == message

    @settings(max_examples=150, deadline=None)
    @given(_loader_lines())
    def test_equals_per_line_reference(self, lines):
        text = "".join(line + "\n" for line, _ in lines) + "WALK 100 1\n"
        expected, message = _reference_obstacles(lines)
        if message is None:
            scene, _, _ = parse_scenario(text)
            assert all(type(rect) is Rect for rect in scene.obstacles)
            assert [list(map(repr, r)) for r in scene.obstacles] == [
                list(map(repr, r)) for r in expected]
        else:
            with pytest.raises(ScenarioError) as raised:
                parse_scenario(text)
            assert str(raised.value) == message


class TestGroundLoader:
    @pytest.mark.parametrize("line,message", _BAD_GROUNDS)
    def test_error_names_its_line(self, line, message):
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(f"# header\nWALK 100 1\n{line}\nGROUND 50 60 -1\n")
        assert str(raised.value) == f"line 3: {message}"

    @pytest.mark.parametrize("line", _GOOD_GROUNDS)
    def test_accepted_values(self, line):
        parsed, expected = _parsed_and_reference(line)
        assert type(parsed) is type(expected)
        assert list(map(repr, parsed)) == list(map(repr, expected))

    @pytest.mark.parametrize("text,message", [
        pytest.param("GROUND 0 1\nOBSTACLE nan 2 0 1\nWALK 100 1\n",
                     "line 1: GROUND takes 3 values, got 2", id="ground-count-first"),
        pytest.param("OBSTACLE 0 1 0 inf\nGROUND 0 1 nan\nWALK 100 1\n",
                     "line 1: non-finite value in OBSTACLE", id="obstacle-first"),
        pytest.param("GROUND 0 50 -10\nGROUND 40 90 -20\nGROUND 9 1 -5\nWALK 100 1\n",
                     "line 3: ground segment needs x0 < x1, got [9.0, 1.0]",
                     id="inverted-before-overlap"),
    ])
    def test_first_error_wins(self, text, message):
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(text)
        assert str(raised.value) == message


# Runs that share user_x with other readings: flat_walk and wall_approach
# walk at the same speed, and waist_probe steps back over its ground.
_RUNS = [
    run_scenario(*parse_scenario((SCENARIO_DIR / f"{name}.scn").read_text()))
    for name in ("flat_walk", "wall_approach", "waist_probe")
]
# Hand-built rows draw from these lists, so that rows repeat the very
# objects a run's rows share, and values that compare equal but print
# differently meet: 0.0 and -0.0, and levels 1, 1.0 and True.
_XS = [0.0, -0.0, 1, 1.0, True, 12.3, 12.25, 240.0]
_READINGS = [None, 0.0, -0.0, 3.0, 45.25, 87.0, 300.0]
_FRAMES = [
    BuzzerFrame(*levels)
    for levels in ((0, 0, 0, 0), (1, 0, 0, 0), (1.0, 0, 0, 0), (True, 0, 0, 0),
                   (4, 3, 3, 3), (0, 1, 2.0, False))
]
_FLAGS = st.builds(TickFlags, st.booleans(), st.integers(0, 1), st.integers(0, 1),
                   st.booleans(), st.none() | st.sampled_from(UpperLevel))


@st.composite
def _hand_rows(draw):
    """Rows that repeat a few leads (user_x and four readings drawn from a
    few values) with other frames, flags and advisories."""
    reading = st.sampled_from(draw(st.lists(st.sampled_from(_READINGS), min_size=1, max_size=2)))
    leads = draw(st.lists(st.tuples(st.sampled_from(_XS), reading, reading, reading, reading),
                          min_size=1, max_size=4))
    row = st.builds(
        lambda tick, lead, frame, advisory, flags: FrameOutput(
            tick, 30 * tick, *lead, frame, advisory, flags),
        st.integers(0, MAX_TICKS), st.sampled_from(leads), st.sampled_from(_FRAMES),
        st.sampled_from(Advisory), _FLAGS,
    )
    return draw(st.lists(row, max_size=30))


# Flags in pairs of equal values and distinct objects.
_TWIN_FLAGS = [
    TickFlags(*values)
    for values in ((False, 0, 0, False, None), (True, 1, 1, False, None),
                   (False, 1, 0, True, UpperLevel.WAIST))
    for _ in range(2)
]

# Flag values equal to True or False, of each type.
_BOOL_LOOKALIKES = st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0])

# Rows whose user_x, readings or levels compare equal but print apart.
_LOOKALIKES = [
    FrameOutput(0, 0, x, d, d, d, d, frame, Advisory.MOVE_FORWARD, TickFlags())
    for x in (0.0, -0.0, 1, 1.0, True)
    for d in (0.0, -0.0, 3.0)
    for frame in _FRAMES[1:4]
]
# More distinct leads than format_trace keeps, so its lead cache clears
# mid-trace.  Tails are cached per process, so each flags value here adds one.
_SPILL = [
    FrameOutput(i, 30 * i, 0.5 + i / 10, 45.25, None, 3.0, None, _FRAMES[i % 2],
                Advisory.MOVE_FORWARD, TickFlags(False, i, 0, False, None))
    for i in range(_MEMO_SIZE + 100)
]

_ROWS_TEXT = {id(part): "".join(map(reference_row, part)) for part in (*_RUNS, _SPILL)}


def _rows_text(part):
    """The reference_row of each row in part, joined: worked out once for the shared parts."""
    text = _ROWS_TEXT.get(id(part))
    return "".join(map(reference_row, part)) if text is None else text


class TestFormatTrace:
    def test_runs_share_user_x_with_other_readings(self):
        flat, wall, _ = _RUNS
        assert [row.user_x for row in flat] == [row.user_x for row in wall][:len(flat)]
        assert any(a.d_chest != b.d_chest for a, b in zip(flat, wall))

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(
        st.sampled_from(_RUNS) | _hand_rows() | st.permutations(_LOOKALIKES) | st.just(_SPILL),
        max_size=4,
    ))
    @example(parts=[_SPILL, _RUNS[1], _SPILL])
    @example(parts=[_LOOKALIKES])
    def test_equals_reference_row_of_each_frame(self, parts):
        frames = list(chain.from_iterable(parts))
        rows = "".join(map(_rows_text, parts))
        assert format_trace(frames) == TRACE_HEADER + "\n" + rows

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_TWIN_FLAGS) - 1), st.sampled_from(Advisory)),
                    max_size=30))
    @example([(0, Advisory.MOVE_FORWARD), (1, Advisory.MOVE_FORWARD),
              (1, Advisory.STOP_IMMEDIATELY), (0, Advisory.STOP_IMMEDIATELY),
              (0, Advisory.MOVE_FORWARD), (2, Advisory.MOVE_FORWARD), (3, Advisory.MOVE_FORWARD)])
    def test_tails_follow_flags_and_advisory(self, picks):
        # Equal flags of distinct objects and advisories that change
        # while the flags object stays.
        base = _RUNS[2]
        rows = [base[i % len(base)]._replace(flags=_TWIN_FLAGS[f], advisory=advisory)
                for i, (f, advisory) in enumerate(picks)]
        assert format_trace(rows) == TRACE_HEADER + "\n" + "".join(map(reference_row, rows))

    def test_fresh_equal_flags_with_alternating_advisories(self):
        # Every row gets a new flags object, made as the row is read, and
        # the advisory alternates.
        values = [tuple(flags) for flags in _TWIN_FLAGS]
        advisories = (Advisory.MOVE_FORWARD, Advisory.UP_STAIRS_AHEAD)
        rows = [row._replace(flags=TickFlags(*values[i // 2 % len(values)]),
                             advisory=advisories[i // 3 % 2])
                for i, row in enumerate(_RUNS[2])]
        made = (row._replace(flags=TickFlags(*row.flags)) for row in rows)
        assert format_trace(made) == TRACE_HEADER + "\n" + "".join(map(reference_row, rows))

    def test_cached_tail_is_the_uncached_one(self):
        # Every pair a run can give: 80 flags by 11 advisories.
        flags = [TickFlags(*values) for values in product(
            (False, True), (0, 1), (0, 1), (False, True), (None, *UpperLevel))]
        assert (len(flags), len(Advisory)) == (80, 11)
        for f, advisory in product(flags, Advisory):
            assert _format_tail(f, advisory) == _format_tail.__wrapped__(f, advisory)

    @given(_BOOL_LOOKALIKES, _BOOL_LOOKALIKES, st.none() | st.sampled_from(UpperLevel),
           st.sampled_from(Advisory))
    def test_equal_flags_of_other_types_print_as_bools(self, upstairs, downstep, inferred,
                                                       advisory):
        # A value key is exact: a flags value equal to its bool form, which
        # may have made the cache entry, prints as that form does.
        bools = TickFlags(bool(upstairs), 0, 0, bool(downstep), inferred)
        flags = TickFlags(upstairs, 0, 0, downstep, inferred)
        expected = _format_tail(bools, advisory)
        assert expected == _format_tail.__wrapped__(bools, advisory)
        assert _format_tail(flags, advisory) == expected
        assert _format_tail.__wrapped__(flags, advisory) == expected

    def test_walk_back_to_zero_reuses_its_lead(self, monkeypatch):
        # Out, back to x = 0 and out again: the run's memo hands the
        # revisits their position's very x, so each lead is formatted once.
        walk = [TrajectorySegment(100.0, 0.3), TrajectorySegment(-100.0, 0.3),
                TrajectorySegment(100.0, 0.3)]
        rows = run_scenario(SagittalScene([Rect(40.0, 42.0, 0.0, 200.0)]), walk)
        assert [row.user_x for row in rows].count(0.0) == 2
        expected = TRACE_HEADER + "\n" + "".join(map(reference_row, rows))
        calls, formatted = [], cli._format_lead
        monkeypatch.setattr(cli, "_format_lead",
                            lambda *lead: calls.append(lead) or formatted(*lead))
        assert format_trace(rows) == expected
        assert len(calls) == len({id(row.user_x) for row in rows}) < len(rows)

    def test_rows_from_a_generator(self):
        # Two positions in turn, each with its readings and a new frame that
        # nothing else keeps alive: a freed frame's id is soon another's.
        rows = [_RUNS[1][-1], _RUNS[1][-2]] * 30
        levels = [(i % 5, i % 4, 0, i % 3) for i in range(len(rows))]
        fresh = [row._replace(frame=BuzzerFrame(*frame)) for row, frame in zip(rows, levels)]
        made = (row._replace(frame=BuzzerFrame(*frame)) for row, frame in zip(rows, levels))
        assert format_trace(made) == TRACE_HEADER + "\n" + "".join(map(reference_row, fresh))


class TestRunCommand:
    def test_empty_scene_trace(self, tmp_path, capsys):
        scn = tmp_path / "flat.scn"
        scn.write_text("WALK 140 0.3\n")
        assert main(["run", str(scn)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("tick,t_ms,user_x")
        assert len(lines) == 11
        assert all(line.endswith("MoveForward") for line in lines[1:])

    @pytest.mark.parametrize("index", [33_333, 33_334, 333_334, 333_335, MAX_TICKS - 1])
    def test_t_ms_is_the_whole_tick_times_30(self, index):
        # Past tick 33,333 a float t_ms printed with `:g` took exponent
        # form, and past 333,333 it rounded.
        sensed = sense(SagittalScene(), 0.0, SimConfig())
        (row,) = tick(TickState(), sensed, 0.0, 0.0, 2, tick_index=index)
        assert row.t_ms == index * 30
        assert format_trace([row]).splitlines()[1].split(",")[:2] == [str(index), str(index * 30)]

    def test_tick_ms_column_step(self, tmp_path, capsys):
        scn = tmp_path / "flat.scn"
        scn.write_text("WALK 140 0.3\n")
        main(["run", str(scn)])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        ts = [float(line.split(",")[1]) for line in lines]
        assert ts == [30.0 * i for i in range(len(ts))]

    def test_out_file_and_exit_codes(self, tmp_path):
        scn = tmp_path / "flat.scn"
        scn.write_text("WALK 140 0.3\n")
        out = tmp_path / "trace.csv"
        assert main(["run", str(scn), "--out", str(out)]) == 0
        assert out.read_text().startswith("tick,t_ms")

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("JUMP 3\n")
        assert main(["run", str(scn)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.scn")]) == 2
        assert "error" in capsys.readouterr().err

    def test_calibration_flag(self, tmp_path, capsys):
        scn = tmp_path / "wall.scn"
        scn.write_text("OBSTACLE 100 102 0 200\nWALK 0 0.06\n")
        calib = tmp_path / "cal.txt"
        calib.write_text("10 12\n100 102\n300 302\n")
        main(["run", str(scn), "--calib", str(calib)])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        d_chest = float(lines[0].split(",")[3])
        assert d_chest == pytest.approx(102.0, abs=0.05)

    @pytest.mark.parametrize("marked", [["scenario"], ["calib"], ["scenario", "calib"]],
                             ids="-".join)
    def test_leading_byte_order_mark_is_read_past(self, tmp_path, capsys, marked):
        # Some editors start a UTF-8 file with U+FEFF; the trace is that of the file without it.
        texts = {"scenario": (SCENARIO_DIR / "wall_approach.scn").read_text(),
                 "calib": "# bench\n10 12\n100 102\n300 302\n"}
        traces = []
        for marks in ((), marked):
            for name, text in texts.items():
                (tmp_path / name).write_text("\ufeff" * (name in marks) + text, encoding="utf-8")
            assert main(["run", str(tmp_path / "scenario"), "--calib", str(tmp_path / "calib")]) == 0
            traces.append(capsys.readouterr().out)
        assert traces[0] == traces[1]

    @pytest.mark.parametrize(
        "scenario_text,flags,named",
        [
            pytest.param("CONFIG n_rays 31\nWALK 140 0.3\n", [], "n_rays", id="CONFIG-n_rays"),
            *(
                pytest.param(
                    f"WALK 140 0.3\nCONFIG {key} {value}\n",
                    [],
                    f"line 2: unknown CONFIG key {key!r}",
                    id=f"CONFIG-{key}",
                )
                for key, value in (("tick_ms", 30), ("start_x", 50), ("jitter", 1), ("seed", 3))
            ),
            pytest.param("WALK 140 0.3\n", ["--rays", "31"], "--rays", id="--rays"),
            pytest.param("WALK 140 0.3\n", ["--temp", "25"], "--temp", id="--temp"),
            pytest.param("WALK 140 0.3\n", ["--tick-ms", "30"], "--tick-ms", id="--tick-ms"),
            pytest.param("WALK 140 0.3\n", ["--temp-cal", "20"], "--temp-cal", id="--temp-cal"),
            pytest.param("WALK 140 0.3\n", ["--seed", "3"], "--seed", id="--seed"),
            pytest.param("WALK 140 0.3\n", ["--rays=31"], "unknown flag '--rays'", id="--rays="),
            pytest.param("WALK 140 0.3\n", ["--cal", "x"], "unknown flag '--cal'", id="--cal"),
            pytest.param("WALK 140 0.3\n", ["--o", "x"], "unknown flag '--o'", id="--o"),
            pytest.param("WALK 140 0.3\n", ["--", "x"], "unknown flag '--'", id="--"),
            pytest.param("WALK 140 0.3\n", ["--out"], "--out needs a file", id="--out-no-value"),
            pytest.param(
                "WALK 140 0.3\n", ["--calib", "--out", "t.csv"], "--calib needs a file",
                id="--calib-no-value",
            ),
            pytest.param(
                "WALK 140 0.3\n", ["b.scn"], "run takes one scenario, got a second: 'b.scn'",
                id="second-positional",
            ),
        ],
    )
    def test_removed_options_exit_2(self, tmp_path, capsys, scenario_text, flags, named):
        scn = tmp_path / "removed.scn"
        scn.write_text(scenario_text)
        check_exit_2(["run", str(scn), *flags], named, capsys)

    @pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect", "argparse", "gettext",
                                        "ultranav.tables"])
    def test_runs_without(self, tmp_path, module):
        # Blocking a module makes any import of it raise ImportError.
        calib = tmp_path / "cal.txt"
        calib.write_text("10 12\n100 102\n300 302\n")
        scn = str(SCENARIO_DIR / "wall_approach.scn")
        proc = run_cli(
            ["run", scn, "--calib", str(calib), "--out", str(tmp_path / "t.csv")],
            prelude=f"import sys; sys.modules[{module!r}] = None",
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_heavy_module(self):
        # -S runs no site hook, so no .pth file imports anything first; -I
        # keeps PYTHON* variables from loading modules of their own.
        heavy = ("typing", "re", "dataclasses", "argparse", "inspect", "numpy", "ultranav.tables")
        code = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport ultranav.cli\n"
                f"print(sorted(set({heavy!r}) & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(REPO_ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize(
        "target,named",
        [
            pytest.param("no/such/dir/t.csv", "No such file or directory", id="missing-dir"),
            pytest.param(".", "Is a directory", id="directory"),
            # open() raises ValueError for a path no file can have.
            pytest.param("t\x00.csv", "embedded null byte", id="null-byte"),
            # An absolute target replaces tmp_path: a device that takes no bytes.
            pytest.param("/dev/full", "No space left on device", id="full-device",
                         marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="needs /dev/full")),
        ],
    )
    def test_unwritable_out_exit_2(self, tmp_path, capsys, target, named):
        scn = str(SCENARIO_DIR / "flat_walk.scn")
        check_exit_2(["run", scn, "--out", str(tmp_path / target)], named, capsys)

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_failed_stdout_write_exit_2(self, monkeypatch, capsys, argv):
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ultranav: error:")

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_closed_stdout_object_exit_2(self, monkeypatch, capsys, argv):
        # A file object the caller closed raises ValueError, not OSError.
        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ultranav: error:")

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_closed_stdout_object_exit_2_in_fresh_interpreter(self, argv):
        # The interpreter's own sys.stdout, closed by the caller: nothing is
        # left to flush at exit, and fd 1 stays as it was.
        proc = run_cli(argv, prelude="import sys; sys.stdout.close()")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ultranav: error:")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_full_stdout_exit_2_in_fresh_interpreter(self, argv):
        # The bytes a failed write leaves buffered must not fail again in
        # the interpreter's flush at exit.
        proc = run_cli(argv, prelude="import os; os.dup2(os.open('/dev/full', os.O_WRONLY), 1)")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ultranav: error:")

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_closed_stdout_exit_2_in_fresh_interpreter(self, monkeypatch, argv):
        # Started with fd 1 closed, as by `ultranav --help >&-`, the
        # interpreter sets sys.stdout to None.
        proc = run_cli(argv, close_fd=1)
        assert proc.returncode == 2
        assert proc.stderr == "ultranav: error: stdout is closed\n"

        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", STDERR_FAILURES)
    def test_failed_stderr_write_exit_2(self, monkeypatch, capsys, tmp_path, argv):
        argv = [word.format(tmp=tmp_path) for word in argv]

        class FullStderr:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stderr", FullStderr())
        assert main(argv) == 2
        # A stderr that is None, as the interpreter sets it when it starts
        # with fd 2 closed, loses the message rather than print it to stdout.
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", STDERR_FAILURES)
    def test_closed_stderr_object_exit_2(self, monkeypatch, capsys, tmp_path, argv):
        # A file object the caller closed raises ValueError, not OSError.
        argv = [word.format(tmp=tmp_path) for word in argv]
        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(sys, "stderr", closed)
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", STDERR_FAILURES)
    @pytest.mark.parametrize("how", ["full", "closed-at-start", "closed-later", "closed-object"])
    def test_failed_stderr_exit_2_in_fresh_interpreter(self, tmp_path, argv, how):
        # fd 2 on /dev/full, closed before the interpreter starts (sys.stderr
        # is None), closed under a sys.stderr already made, or sys.stderr
        # closed by the caller.  stdout is not blamed: it still takes a line
        # after `main` returns.
        argv = [word.format(tmp=tmp_path) for word in argv]
        prelude = {
            "full": "import os; os.dup2(os.open('/dev/full', os.O_WRONLY), 2)",
            "closed-at-start": "",
            "closed-later": "import os; os.close(2)",
            "closed-object": "import sys; sys.stderr.close()",
        }[how]
        proc = run_cli(argv, prelude=prelude, close_fd=2 if how == "closed-at-start" else None,
                       then="print('stdout is open')")
        assert proc.returncode == 2
        assert proc.stdout == "stdout is open\n"

    def test_closed_stdout_run_with_out_file(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = run_cli(["run", str(SCENARIO_DIR / "upstairs.scn"), "--out", str(out)],
                       close_fd=1)
        assert proc.returncode == 0 and proc.stderr == ""
        assert out.read_bytes() == (GOLDEN_DIR / "upstairs.trace.csv").read_bytes()

    def test_failed_run_leaves_out_file_untouched(self, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text("JUMP 3\n")
        out = tmp_path / "t.csv"
        out.write_text("previous trace\n")
        assert main(["run", str(scn), "--out", str(out)]) == 2
        assert out.read_text() == "previous trace\n"


class TestInputBounds:
    """Out-of-range scenario numbers give exit 2 and one error line."""

    @pytest.mark.parametrize(
        "scenario_text,message",
        [
            pytest.param("WALK 140 inf\n", "line 1: non-finite value in WALK", id="walk-inf"),
            pytest.param("WALK nan 1\n", "line 1: non-finite value in WALK", id="walk-nan"),
            pytest.param(
                "GROUND 100 200 nan\nWALK 100 1\n",
                "line 1: non-finite value in GROUND",
                id="ground-nan",
            ),
            pytest.param(
                "SENSOR knee 1e999 60\nWALK 100 1\n",
                "line 1: non-finite value in SENSOR",
                id="sensor-overflow",
            ),
            pytest.param(
                "WALK 100 1\nCONFIG temp -inf\n",
                "line 2: temp_actual must be finite, got -inf",
                id="config-inf",
            ),
            pytest.param(
                "WALK 100 1\nCONFIG temp -547\n",
                "line 2: temp_actual must be from -90 to 60 C, got -547.0",
                id="temp-below-zero-sound-speed",
            ),
            pytest.param(
                "CONFIG temp_cal 20\nCONFIG temp_cal -547\nWALK 100 1\n",
                "line 2: temp_cal must be from -90 to 60 C, got -547.0",
                id="temp_cal-below-zero-sound-speed",
            ),
            pytest.param(
                "CONFIG temp 1e308\nWALK 100 1\n",
                "line 1: temp_actual must be from -90 to 60 C, got 1e+308",
                id="temp-sound-speed-overflow",
            ),
            pytest.param(
                "CONFIG temp 1e308\nCONFIG temp_cal 1e308\nWALK 100 1\n",
                "line 1: temp_actual must be from -90 to 60 C, got 1e+308",
                id="temp-and-temp_cal-sound-speed-overflow",
            ),
            pytest.param(
                "CONFIG temp_cal 2.97e306\nWALK 100 1\n",
                "line 1: temp_cal must be from -90 to 60 C, got 2.97e+306",
                id="temp_cal-sound-speed-overflow",
            ),
            # Temperatures the linear sound-speed model takes without
            # overflow, but no air has.
            pytest.param(
                "OBSTACLE 100 102 0 200\nCONFIG temp_cal 1e306\nWALK 0 0.06\n",
                "line 2: temp_cal must be from -90 to 60 C, got 1e+306",
                id="temp_cal-1e306",
            ),
            pytest.param(
                "OBSTACLE 100 102 0 200\nCONFIG temp 1e306\nWALK 0 0.06\n",
                "line 2: temp_actual must be from -90 to 60 C, got 1e+306",
                id="temp-1e306",
            ),
            pytest.param(
                "OBSTACLE 100 102 0 200\nCONFIG temp 500\nWALK 0 0.06\n",
                "line 2: temp_actual must be from -90 to 60 C, got 500.0",
                id="temp-500",
            ),
            pytest.param(
                "CONFIG debounce_ticks 0\nWALK 100 1\n",
                "line 1: debounce_ticks must be an int >= 1, got 0",
                id="debounce-zero",
            ),
            pytest.param(
                # A later CONFIG line for the same key does not hide a bad value.
                "CONFIG temp -600\nCONFIG temp 20\nWALK 100 1\n",
                "line 1: temp_actual must be from -90 to 60 C",
                id="config-set-again",
            ),
            pytest.param(
                # The first bad CONFIG line is named, whichever setting it sets.
                "CONFIG temp_cal -600\nCONFIG debounce_ticks 0\nWALK 100 1\n",
                "line 1: temp_cal must be from -90 to 60 C",
                id="config-first-bad-line",
            ),
            pytest.param(
                "WALK 100 1\nSENSOR arch 0 60\n",
                "line 2: arch: mount_height must be > 0, got 0.0",
                id="sensor-at-ground",
            ),
            pytest.param(
                "SENSOR knee -5 60\nWALK 100 1\n",
                "line 1: knee: mount_height must be > 0, got -5.0",
                id="sensor-below-ground",
            ),
            pytest.param(
                # A later SENSOR line for the same name does not hide a bad value.
                "SENSOR chest -5 150\nSENSOR chest 140 150\nWALK 100 0.1\n",
                "line 1: chest: mount_height must be > 0, got -5.0",
                id="sensor-set-again",
            ),
            pytest.param(
                "WALK 600 1\n", "line 1: |speed| must be <= 500.0 cm/s", id="walk-too-fast"
            ),
            pytest.param(
                "WALK 140 0\n",
                "line 1: trajectory segment duration must be > 0",
                id="walk-zero-duration",
            ),
            pytest.param(
                "WALK 140 1e306\n",
                "the walk lasts inf ticks of 30 ms; it must last 1 to 1000000 ticks",
                id="ticks-overflow",
            ),
            pytest.param(
                "WALK 140 1e12\n",
                "the walk lasts 3.333e+13 ticks of 30 ms; it must last 1 to 1000000 ticks",
                id="ticks-huge",
            ),
            pytest.param(
                "WALK 140 0.01\n",
                "the walk lasts 0.3333 ticks of 30 ms; it must last 1 to 1000000 ticks",
                id="ticks-below-one",
            ),
            pytest.param(
                # Wholly below flat ground: it would echo through the ground.
                "OBSTACLE 150 160 -40 -20\nWALK 100 1\n",
                "line 1: obstacle [150.0, 160.0] lies wholly below the terrain (top z1=-20.0)",
                id="obstacle-buried",
            ),
            pytest.param(
                # Named by its own line, after the ground it lies under.
                "GROUND 100 200 -30\nOBSTACLE 1 2 0 5\nOBSTACLE 120 130 -50 -30\nWALK 100 1\n",
                "line 3: obstacle [120.0, 130.0] lies wholly below the terrain (top z1=-30.0)",
                id="obstacle-buried-in-hole",
            ),
            pytest.param(
                "CONFIG temp\nWALK 100 1\n", "line 1: CONFIG takes 'key value'",
                id="config-one-field",
            ),
            pytest.param(
                "CONFIG temp warm\nWALK 100 1\n", "line 1: bad value 'warm' for CONFIG temp",
                id="config-bad-value",
            ),
            pytest.param(
                "SENSOR chest 150\nWALK 100 1\n", "line 1: SENSOR takes 'name height sarl'",
                id="sensor-two-fields",
            ),
            pytest.param(
                "SENSOR elbow 100 50\nWALK 100 1\n", "line 1: unknown sensor name 'elbow'",
                id="sensor-unknown-name",
            ),
            pytest.param(
                "SENSOR arch 10 0\nWALK 100 1\n", "line 1: arch: sarl must be > 0",
                id="sensor-arch-sarl-zero",
            ),
            pytest.param(
                "SENSOR chest 150 2\nWALK 100 1\n", "line 1: chest: need 3 < sarl <= 300",
                id="sensor-chest-sarl-below-range",
            ),
            pytest.param(
                "SENSOR knee 50 x\nWALK 100 1\n",
                "line 1: non-numeric value in SENSOR directive",
                id="sensor-non-numeric",
            ),
            pytest.param(
                "WALK 100\n", "line 1: WALK takes 2 values, got 1", id="walk-one-value"
            ),
            pytest.param(
                "WALK fast 1\n", "line 1: non-numeric value in WALK directive",
                id="walk-non-numeric",
            ),
            pytest.param(
                # Only a mark that starts the file is read past.
                "WALK 100 1\n\ufeffWALK 100 1\n", r"line 2: unknown directive '\ufeffWALK'",
                id="byte-order-mark-on-line-2",
            ),
            pytest.param(
                "WALK 100\ufeff 1\n", "line 1: non-numeric value in WALK directive",
                id="byte-order-mark-in-a-line",
            ),
            pytest.param(
                "WALK 100 0.012\nWALK 100 0.012\nWALK 100 0.012\n",
                "the walk rounds to 0 whole ticks of 30 ms, segment by segment;"
                " it must last 1 to 1000000 ticks",
                id="whole-ticks-zero",
            ),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, scenario_text, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(scenario_text, encoding="utf-8")
        assert main(["run", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ultranav: error: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "scenario_text,calib_text,message",
        [
            pytest.param(
                "WALK 100 1\n", "20 21\nfar 300\n",
                "calibration line 2: non-numeric value in 'far 300'", id="calib-non-numeric",
            ),
            pytest.param(
                "WALK 100 1\n", "10 12\n100\n",
                "calibration line 2: expected 'actual measured', got '100'", id="calib-one-value",
            ),
            pytest.param(
                # The line is quoted as written before any '#', whitespace runs included.
                "WALK 100 1\n", "10 12\n 100\t 102  7  # bench\n",
                r"calibration line 2: expected 'actual measured', got '100\t 102  7'",
                id="calib-whitespace-runs",
            ),
            pytest.param(
                # Only a mark that starts the file is read past.
                "WALK 100 1\n", "10 12\n\ufeff100 102\n",
                r"calibration line 2: non-numeric value in '\ufeff100 102'",
                id="calib-byte-order-mark-on-line-2",
            ),
        ],
    )
    def test_calibration_rejected_with_one_line(self, tmp_path, capsys, scenario_text,
                                                calib_text, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(scenario_text, encoding="utf-8")
        calib = tmp_path / "cal.txt"
        calib.write_text(calib_text, encoding="utf-8")
        assert main(["run", str(scn), "--calib", str(calib)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ultranav: error: {message}\n"

    def test_walk_into_raised_terrain_fails_with_one_line(self, tmp_path, capsys):
        # The step up is 20 cm high.  Tick 24, at x = 100.8, is the first
        # over it, where the toe mount at 5 cm is below ground: the run
        # stops there with nothing written.
        scn = tmp_path / "step.scn"
        scn.write_text("GROUND 100 200 20\nWALK 140 1.5\n")
        assert main(["run", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("ultranav: error: sensor origin (100.8")
        assert "is below the ground surface" in line

    def test_bounds_are_the_air_range(self):
        # The range holds the recorded extremes of air, -89.2 and 56.7 C.
        low, high = AIR_TEMP_RANGE_C
        assert (low, high) == (-90.0, 60.0)
        SimConfig(temp_actual=low, temp_cal=high)
        SimConfig(temp_actual=high, temp_cal=low)
        for name in ("temp_actual", "temp_cal"):
            for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
                with pytest.raises(PipelineError, match=f"{name} must be from -90 to 60 C"):
                    SimConfig(**{name: value})

    @pytest.mark.parametrize(
        "calib_text",
        [
            pytest.param("1e200 1e200\n-1e200 -1e200\n", id="squares-overflow"),
            pytest.param("1e300 1\n2 2\n", id="one-huge-actual"),
        ],
    )
    def test_overflowing_calibration_exit_2(self, tmp_path, capsys, calib_text):
        calib = tmp_path / "cal.txt"
        calib.write_text(calib_text)
        scn = str(SCENARIO_DIR / "flat_walk.scn")
        check_exit_2(["run", scn, "--calib", str(calib)], "calibration fit is not finite", capsys)


class TestConfigRoute:
    """CONFIG lines are the only way to set a run's parameters."""

    WALL = "OBSTACLE 100 102 0 200\n"

    def trace(self, tmp_path, capsys, text):
        scn = tmp_path / "config.scn"
        scn.write_text(text)
        assert main(["run", str(scn)]) == 0
        out = capsys.readouterr().out
        return out, [line.split(",") for line in out.strip().splitlines()[1:]]

    def test_temperature_scales_readings(self, tmp_path, capsys):
        _, base = self.trace(tmp_path, capsys, self.WALL + "WALK 0 0.06\n")
        _, warm = self.trace(
            tmp_path, capsys, self.WALL + "CONFIG temp 40\nCONFIG temp_cal 20\nWALK 0 0.06\n"
        )
        expected = float(base[0][3]) * sound_speed(20.0) / sound_speed(40.0)
        assert float(warm[0][3]) == pytest.approx(expected, abs=0.05)

    @pytest.mark.parametrize("key", ["debounce_ticks"])
    def test_huge_integer_runs(self, tmp_path, capsys, key):
        # An int is finite however large: 1 followed by 330 zeros is past
        # the float range, and is still a valid debounce count.
        _, rows = self.trace(tmp_path, capsys, f"CONFIG {key} 1{'0' * 330}\nWALK 100 0.1\n")
        assert len(rows) == 3


class TestVerifyTables:
    def test_passes_with_default_config(self):
        out = io.StringIO()
        assert verify_tables(out) is True
        assert out.getvalue().encode() == (REPO_ROOT / "tests" / "verify_tables.txt").read_bytes()

    def test_tables_module_is_imported_only_on_use(self):
        code = (
            "import sys, ultranav.cli\n"
            "assert 'ultranav.tables' not in sys.modules, 'imported with ultranav.cli'\n"
            "assert ultranav.cli.main(['verify-tables']) == 0\n"
            "assert 'ultranav.tables' in sys.modules, 'not imported by verify-tables'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cli.no_such_name

    def test_cli_exit_code(self, capsys):
        assert main(["verify-tables"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestGoldenTraces:
    @pytest.mark.parametrize(
        "name", ["flat_walk", "wall_approach", "upstairs", "pothole_grades", "waist_probe"]
    )
    def test_bundled_scenario_matches_golden(self, name, tmp_path):
        scn = SCENARIO_DIR / f"{name}.scn"
        golden = GOLDEN_DIR / f"{name}.trace.csv"
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", str(scn), "--out", str(out1)]) == 0
        assert main(["run", str(scn), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == golden.read_bytes()
