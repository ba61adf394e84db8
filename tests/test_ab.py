"""bench/ab.py, the in-process A/B harness, on one tiny perfbench job."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_head_against_itself():
    head = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=REPO_ROOT,
                          capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("needs a git checkout with a HEAD commit")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "ab.py"), "HEAD", "HEAD",
         "--workload", "scene_churn", "--jobs", "1", "--rounds", "3"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, traces, timing, parse = proc.stdout.splitlines()
    assert header == "base HEAD, head HEAD, seed 4, 3 rounds"
    assert traces == "scene_churn: traces equal in all 1 jobs"
    ratio = r"\d+\.\d{3}"
    for line, label in ((timing, "scene_churn:"), (parse, "scene_churn: parse_scenario")):
        assert re.fullmatch(
            rf"{label} head/base time ratio {ratio} \(quartiles {ratio} to {ratio}\), "
            rf"head faster in [0-3] of 3 rounds; per job {ratio} ms base, {ratio} ms head",
            line,
        )
