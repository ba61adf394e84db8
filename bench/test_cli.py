"""Micro-benchmark of the command line's cold start, run as a subprocess.

    python -m pytest bench/test_cli.py --benchmark-json=out.json

`test_cli_run` times one `python -m ultranav.cli run
scenarios/wall_approach.scn --out <tmp>` from process start to exit: the
interpreter's own start, the imports, parsing, the run and writing the
trace.  One warm-up round writes the bytecode caches first, as any
second run of an installed program finds them.  The child runs with
bytecode writing on (`PYTHONDONTWRITEBYTECODE` removed) and its caches
under the test's own temporary directory (`PYTHONPYCACHEPREFIX`), so no
timed round compiles a module and the source tree gets no `__pycache__`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "wall_approach.scn"
GOLDEN = ROOT / "scenarios" / "golden" / "wall_approach.trace.csv"


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
