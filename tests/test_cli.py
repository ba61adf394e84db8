import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ultranav.cli import (
    ScenarioError,
    format_trace,
    main,
    parse_args,
    parse_scenario,
    verify_tables,
)
from ultranav.geometry import GroundSegment, Rect
from ultranav.pipeline import (
    PipelineError,
    SimConfig,
    TrajectorySegment,
    run_scenario,
    trajectory_ticks,
)
from ultranav.sensing import (
    ZERO_SOUND_SPEED_C,
    SensorName,
    SensorSpec,
    default_sensors,
    sound_speed,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = SCENARIO_DIR / "golden"


def run_cli(argv, prelude=""):
    """Run `main(argv)` in a fresh interpreter; returns the CompletedProcess."""
    code = f"{prelude}\nimport sys\nfrom ultranav.cli import main\nsys.exit(main({argv!r}))"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
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
        for second in ("GROUND 40 90 -20", "GROUND 0 30 -20"):
            with pytest.raises(ScenarioError, match="line 2"):
                parse_scenario(f"GROUND 0 50 -10\n{second}\nWALK 100 1\n")

    def test_sensor_override_applies(self):
        _, _, config = parse_scenario("SENSOR chest 140 150\nWALK 100 1\n")
        chest = config.sensors[0]
        assert chest.mount_height == 140.0

    def test_missing_walk_rejected(self):
        with pytest.raises(ScenarioError, match="WALK"):
            parse_scenario("OBSTACLE 100 102 0 200\n")

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
    def test_returns_run_scenario_arguments(self, path):
        golden = GOLDEN_DIR / f"{path.stem}.trace.csv"
        frames = run_scenario(*parse_scenario(path.read_text()))
        assert format_trace(frames) == golden.read_text()


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

    @pytest.mark.parametrize("module", ["numpy", "dataclasses", "inspect", "argparse", "gettext"])
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

    @pytest.mark.parametrize(
        "target,named",
        [
            pytest.param("no/such/dir/t.csv", "No such file or directory", id="missing-dir"),
            pytest.param(".", "Is a directory", id="directory"),
        ],
    )
    def test_unwritable_out_exit_2(self, tmp_path, capsys, target, named):
        scn = str(SCENARIO_DIR / "flat_walk.scn")
        check_exit_2(["run", scn, "--out", str(tmp_path / target)], named, capsys)

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
                "line 2: non-finite value in CONFIG",
                id="config-inf",
            ),
            pytest.param(
                "WALK 100 1\nCONFIG temp -547\n",
                "line 2: temp_actual must be above -546.7 C",
                id="temp-below-zero-sound-speed",
            ),
            pytest.param(
                "CONFIG temp_cal 20\nCONFIG temp_cal -547\nWALK 100 1\n",
                "line 2: temp_cal must be above -546.7 C",
                id="temp_cal-below-zero-sound-speed",
            ),
            pytest.param(
                "CONFIG debounce_ticks 0\nWALK 100 1\n",
                "line 1: debounce_ticks must be >= 1",
                id="debounce-zero",
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
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, scenario_text, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(scenario_text)
        assert main(["run", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ultranav: error: {message}")
        assert len(captured.err.splitlines()) == 1

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

    def test_bounds_are_the_sound_speed_zero(self):
        assert sound_speed(ZERO_SOUND_SPEED_C) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(PipelineError, match="temp_cal"):
            SimConfig(temp_cal=ZERO_SOUND_SPEED_C)
        SimConfig(temp_actual=-546.0, temp_cal=-546.0)


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
        report = out.getvalue()
        assert "chest: 150.0 -> level 1, 150.5 -> level 0" in report
        assert "depth: 40.0 -> level 2, 40.5 -> level 3" in report
        assert "verify-tables: PASS" in report

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
