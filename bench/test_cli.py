"""Micro-benchmarks of the command line: cold start as a subprocess, and one call in process.

    python -m pytest bench/test_cli.py --benchmark-json=out.json

`test_cli_run` times one `python -m ultranav.cli run
scenarios/wall_approach.scn --out <tmp>` from process start to exit: the
interpreter's own start, the imports, parsing, the run and writing the
trace.  One warm-up round writes the bytecode caches first, as any
second run of an installed program finds them.  The child runs with
bytecode writing on (`PYTHONDONTWRITEBYTECODE` removed) and its caches
under the test's own temporary directory (`PYTHONPYCACHEPREFIX`), so no
timed round compiles a module and the source tree gets no `__pycache__`.

`test_main_in_process` times `main(["run", scn, "--calib", cal, "--out",
out])` in an already warm interpreter, on an 8-tick scenario with CONFIG,
SENSOR and calibration lines like a perfbench `scene_churn` job: reading
the command line, parsing both files, the run, formatting and rewriting
the output file.
"""

import os
import subprocess
import sys
from pathlib import Path

from ultranav.cli import format_trace, main, parse_scenario
from ultranav.pipeline import run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "wall_approach.scn"
GOLDEN = ROOT / "scenarios" / "golden" / "wall_approach.trace.csv"

CHURN_SCENARIO = """\
CONFIG temp 31.5
CONFIG temp_cal 18.2
CONFIG debounce_ticks 2
SENSOR knee 53.5 60
OBSTACLE 61.3 72.8 0 64.1
OBSTACLE 140.2 141.0 96.4 180.0
OBSTACLE 233.7 251.2 0 35.5
GROUND 4.2 11.9 -21.4
GROUND 16.0 22.7 -6.3
WALK 250 0.12
WALK -250 0.12
"""
CHURN_CALIBRATION = "20 20.9\n60 62.1\n120 123.4\n200 205.2\n280 286.7\n"


def test_cli_run(benchmark, tmp_path):
    out = tmp_path / "wall_approach.csv"
    command = [sys.executable, "-m", "ultranav.cli", "run", str(SCENARIO), "--out", str(out)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))

    def run():
        return subprocess.run(command, env=env, capture_output=True, timeout=60)

    proc = benchmark.pedantic(run, rounds=30, warmup_rounds=1)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_main_in_process(benchmark, tmp_path):
    scn, cal, out = tmp_path / "churn.scn", tmp_path / "churn.cal", tmp_path / "churn.csv"
    scn.write_text(CHURN_SCENARIO)
    cal.write_text(CHURN_CALIBRATION)
    expected = format_trace(run_scenario(*parse_scenario(CHURN_SCENARIO, str(cal))))
    assert expected.count("\n") == 1 + 8

    code = benchmark(main, ["run", str(scn), "--calib", str(cal), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == expected.encode()
