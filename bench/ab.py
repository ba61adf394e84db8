"""In-process A/B comparison of two trees of the program on perfbench's jobs.

    python3 bench/ab.py BASE [HEAD] [--workload NAME]... [--seed N] [--jobs N] [--rounds N]

BASE and HEAD are git revisions of this repository; without HEAD the
working tree's `src/ultranav` is the head side.  Each revision's
`src/ultranav` is taken with `git archive` into a temporary directory,
and both packages are loaded into this one process under two names, so
the two sides share the interpreter, its warm caches and the host's
speed at each moment.

The jobs are perfbench's, made by `perfbench/workloads.py` for each
workload (all three by default) at the seed (default 4); `--jobs` keeps
the first N of each.  Every job is run once per side with
`main(["run", scn, "--out", out])` (and `--calib` where it has one), and
the jobs whose trace bytes differ are listed: a named behaviour change
shows here.  Then each round runs every job on both sides, the side that
goes first alternating from job to job and round to round, and sums each
side's time.  For each workload it prints the median of the rounds'
head/base time ratios, their quartiles, and the number of rounds the
head was faster.  A ratio below 1 means the head is faster.  Three
more lines give the same figures for `parse_scenario`, `run_scenario`
and `format_trace` alone, timed inside those very calls of `main`: each
side's `cli.<name>` is wrapped to sum the time of its calls, so a change
to one stage shows where its gain is.

This does not replace perfbench or a BENCH pair: it gives the in-process
ratio beside them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import GENERATORS, generate  # noqa: E402

# The stages `cli.main` calls by their `cli` names, each timed on its own.
STAGES = ("parse_scenario", "run_scenario", "format_trace")


def extract(revision: str, into: Path) -> Path:
    """`src/ultranav` of `revision`, extracted under `into`; the package's directory."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", revision, "src/ultranav"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src" / "ultranav"


def load(package: Path, name: str):
    """The package at `package` imported as `name`; returns its `cli` module."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def job_argv(job, out: Path) -> list:
    """The `main` argv that runs `job`, writing its trace to `out`."""
    argv = ["run", job["scn"], "--out", str(out)]
    if job["calib"]:
        argv += ["--calib", job["calib"]]
    return argv


def timed(main, argv) -> float:
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"ab: {' '.join(argv)} exited {code}")
    return elapsed


def clock(module, name: str) -> list:
    """Replace `module.<name>` by a wrapper that adds each call's time to the returned cell."""
    func, spent = getattr(module, name), [0.0]

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        spent[0] += time.perf_counter() - start
        return result

    setattr(module, name, wrapper)
    return spent


def summary(label, totals) -> str:
    """The median head/base ratio of per-round totals, its quartiles, wins and per-job times."""
    ratios = [head / base for base, head in zip(totals["base"], totals["head"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(ratio < 1.0 for ratio in ratios)
    base_ms, head_ms = (statistics.median(totals[side]) * 1e3 for side in ("base", "head"))
    return (f"{label} head/base time ratio {median:.3f} (quartiles {q1:.3f} to {q3:.3f}), "
            f"head faster in {wins} of {len(ratios)} rounds; per job {base_ms:.3f} ms base, "
            f"{head_ms:.3f} ms head")


def compare(workload, jobs, mains, clocks, work: Path, rounds: int) -> None:
    """Print the trace check and the timing summaries of one workload.

    `clocks` maps each side to its `clock` cells, one per name in STAGES.
    """
    outs = {side: [work / f"{job['name']}.{side}.csv" for job in jobs] for side in mains}
    runs = {side: list(map(job_argv, jobs, outs[side])) for side in mains}
    differ = []
    for i, job in enumerate(jobs):
        for side, main in mains.items():
            timed(main, runs[side][i])
        if outs["base"][i].read_bytes() != outs["head"][i].read_bytes():
            differ.append(job["name"])
    if differ:
        print(f"{workload}: traces differ in {len(differ)} of {len(jobs)} jobs: "
              + ", ".join(differ))
    else:
        print(f"{workload}: traces equal in all {len(jobs)} jobs")

    totals = {side: [] for side in mains}
    stage_totals = {name: {side: [] for side in mains} for name in STAGES}
    for r in range(rounds):
        spent = dict.fromkeys(mains, 0.0)
        for cells in clocks.values():
            for cell in cells.values():
                cell[0] = 0.0
        gc.collect()
        for i in range(len(jobs)):
            order = list(mains) if (r + i) % 2 == 0 else list(mains)[::-1]
            for side in order:
                spent[side] += timed(mains[side], runs[side][i])
        for side in mains:
            totals[side].append(spent[side] / len(jobs))
            for name in STAGES:
                stage_totals[name][side].append(clocks[side][name][0] / len(jobs))
    print(summary(f"{workload}:", totals))
    for name in STAGES:
        print(summary(f"{workload}: {name}", stage_totals[name]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the base side")
    parser.add_argument("head", nargs="?", help="git revision of the head side "
                        "(default: the working tree)")
    parser.add_argument("--workload", action="append", choices=sorted(GENERATORS),
                        help="workload to run, repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=None, help="first N jobs of each workload")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ultranav-ab-") as tmp:
        tmp = Path(tmp)
        head = extract(args.head, tmp / "head") if args.head else ROOT / "src" / "ultranav"
        clis = {"base": load(extract(args.base, tmp / "base"), "_ab_base"),
                "head": load(head, "_ab_head")}
        mains = {side: cli.main for side, cli in clis.items()}
        clocks = {side: {name: clock(cli, name) for name in STAGES}
                  for side, cli in clis.items()}
        print(f"base {args.base}, head {args.head or 'working tree'}, seed {args.seed}, "
              f"{args.rounds} rounds")
        for workload in args.workload or sorted(GENERATORS):
            work = tmp / workload
            jobs = generate(workload, args.seed, str(work))["jobs"][:args.jobs]
            compare(workload, jobs, mains, clocks, work, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
