import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def readme_quick_start() -> str:
    """The first python block under the README's "Library quick start"."""
    section = (REPO_ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize(
    "demo",
    [pytest.param([str(demo)], id=demo.stem) for demo in DEMOS]
    + [pytest.param(["-c", readme_quick_start()], id="readme_quick_start")],
)
def test_demo_runs(demo):
    """Each demo and the README quick start import from the package, so
    this guards its exports and the README's use of the API."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *demo], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
