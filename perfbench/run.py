"""ultranav benchmark: scenario-job throughput, latency, memory and fidelity.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  See perfbench/README.md for the workloads and metrics.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
gives the per-layer metrics: an untraced client and a traced client each
get half of S, and their throughput ratio is the tracing overhead.  Every
job's trace is checked against the independent oracle in oracle.py and
the bundled goldens are replayed; the last line printed is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from oracle import CHANNELS, DECISION_COLUMNS, check_trace  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_RUNS = 15
IMPORTTIME_RUNS = 5
DEADLINE_S = 170  # every child is killed by then, so a run ends within 180 s
# A fresh process samples the host's speed around one `import ultranav.cli`;
# hostspeed imports nothing the program needs.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {here!r}); from hostspeed import chunk; "
    "c = [chunk() for _ in range(12)]; t = time.perf_counter(); import ultranav.cli; "
    "t = time.perf_counter() - t; c += [chunk() for _ in range(12)]; "
    "print(t, sum(c), len(c))"
).format(here=HERE)


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every process
    env.pop("PYTHONHOME", None)
    return env


_START = time.monotonic()


def _python(root, args):
    """Run a fresh interpreter on the checkout; raises if it fails or overruns."""
    timeout = max(DEADLINE_S - (time.monotonic() - _START), 1.0)
    return subprocess.run([sys.executable, *args], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=timeout, check=True)


def measure_setup(root):
    """Median seconds fresh processes take to `import ultranav.cli`: (scaled, raw)."""
    _python(root, ["-c", IMPORT_PROBE])  # first import also writes bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        seconds, chunk_s, chunks = map(float, _python(root, ["-c", IMPORT_PROBE]).stdout.split())
        scaled.append(seconds / hostspeed.slowness([(chunk_s, chunks)]))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def measure_importtime(root):
    """Median cumulative import seconds of ultranav.cli and of numpy (or None)."""
    cli, numpy = [], []
    for _ in range(IMPORTTIME_RUNS):
        err = _python(root, ["-X", "importtime", "-c", "import ultranav.cli"]).stderr
        cum = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        cli.append(cum.get("ultranav.cli", 0.0))
        if "numpy" in cum:
            numpy.append(cum["numpy"])
    return statistics.median(cli), statistics.median(numpy) if numpy else None


def run_worker(root, manifest_path, seconds, mode):
    result_path = os.path.join(os.path.dirname(manifest_path), f"result-{mode}.json")
    worker = os.path.join(HERE, "worker.py")
    _python(root, [worker, manifest_path, str(seconds), mode, result_path])
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_jobs(jobs, results):
    """Check every job's trace and every execution of it.

    Returns (attempted, failed, fidelity, stats, problems).  Each job's
    last trace is checked against the oracle; an execution fails if it
    errored or wrote different bytes from that checked trace.  Golden
    replays count as executions too.
    """
    fidelity = {"err_max": 0.0, "mismatch": 0, "sampled": 0}
    stats = {"rows": 0, "echoes": dict.fromkeys(CHANNELS, 0)}
    full, decision = hashlib.sha256(), hashlib.sha256()
    verdicts = []
    for job in jobs:
        try:
            with open(job["out"], "rb") as fh:
                data = fh.read()
        except OSError:
            verdicts.append((None, "no trace written"))
            continue
        text = data.decode("utf-8", errors="replace")
        checked = check_trace(text, job)
        full.update(data)
        for row in text.split("\n")[1:-1]:
            decision.update((",".join(row.split(",")[DECISION_COLUMNS]) + "\n").encode())
        stats["rows"] += checked["rows"]
        for ch in CHANNELS:
            stats["echoes"][ch] += checked["echoes"][ch]
        fidelity["err_max"] = max(fidelity["err_max"], checked["err_max"])
        fidelity["mismatch"] += checked["mismatch"]
        fidelity["sampled"] += checked["sampled"]
        verdicts.append((hashlib.sha256(data).hexdigest(), checked["error"]))
    stats["trace_sha256"] = full.hexdigest()
    stats["decision_sha256"] = decision.hexdigest()

    attempted = failed = 0
    problems = []
    for result in results:
        for index, _, error, sha, *_ in result["records"]:
            attempted += 1
            good_sha, check_error = verdicts[index]
            problem = error or check_error or (sha != good_sha and "nondeterministic trace")
            if problem:
                failed += 1
                problems.append(f"{jobs[index]['name']}: {problem}")
        for name, error in result["golden"]:
            attempted += 1
            if error:
                failed += 1
                problems.append(f"golden {name}: {error}")
    return attempted, failed, fidelity, stats, problems


def job_metrics(jobs, result):
    """Throughput, latency and memory of one client: (scaled, raw).

    Throughput is trace rows over job seconds across all job executions,
    scaled by the run's host slowness (hostspeed), a time average over
    the same run.  Latency percentiles are taken over job times each
    scaled by the reference block run right after that job.
    """
    records = result["records"]
    ms = sorted(r[1] * 1000.0 for r in records)
    scaled_ms = sorted(r[1] * 1000.0 / hostspeed.slowness([r[4:]]) for r in records)

    def p90(values):
        return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else None

    raw = {
        "ticks_per_s": sum(jobs[r[0]]["rows"] for r in records) / sum(r[1] for r in records),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": p90(ms),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    scaled = dict(raw, ticks_per_s=raw["ticks_per_s"] * result["slowness"],
                  job_ms_p50=statistics.median(scaled_ms), job_ms_p90=p90(scaled_ms))
    return scaled, raw


def declared_units(root, trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def environment():
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"numpy {numpy_version}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ultranav", "cli.py")):
        print("perfbench: run from the root of an ultranav checkout (no src/ultranav)",
              file=sys.stderr)
        return 2

    units = declared_units(root, args.trace)
    work = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, root, units, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, units, work):
    """Generate, run, check and report one workload; returns the exit code."""
    manifest = generate(args.workload, args.seed, work)
    jobs = manifest["jobs"]
    manifest_path = os.path.join(work, "manifest.json")
    print(f"workload {args.workload} seed {args.seed}: {manifest['why']}")
    print(f"environment: {environment()}")

    try:
        if args.trace:
            import_s, numpy_s = measure_importtime(root)
            plain = run_worker(root, manifest_path, args.seconds / 2, "timed")
            traced = run_worker(root, manifest_path, args.seconds / 2, "traced")
            results = [plain, traced]
        else:
            setup = measure_setup(root)
            timed = run_worker(root, manifest_path, args.seconds, "timed")
            results = [timed]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1

    attempted, failed, fidelity, stats, problems = check_jobs(jobs, results)
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    quality = {
        "cone_err_cm_max": (fidelity["err_max"], "cm"),
        "echo_mismatch_frac": (fidelity["mismatch"] / max(fidelity["sampled"], 1), "1"),
        "failed_frac": (failed / attempted, "1"),
    }
    print("stats: " + json.dumps(stats, sort_keys=True))

    if args.trace:
        plain_tps = job_metrics(jobs, plain)[0]["ticks_per_s"]
        traced_tps = job_metrics(jobs, traced)[0]["ticks_per_s"]
        metrics = {name: value / traced["slowness"] if units[name] in ("s", "us") else value
                   for name, value in traced["layers"].items()}
        metrics["cli.import_s"] = import_s
        if numpy_s is not None:
            metrics["cli.import.numpy_s"] = numpy_s
        metrics["trace.overhead_ratio"] = plain_tps / traced_tps
        absent = traced["absent"] + ([] if numpy_s is not None else ["cli.import.numpy_s"])
        print(f"traced passes: {traced['passes']}; absent: {absent or 'none'}; "
              f"names not found: {traced['missing'] or 'none'}")
        for name in absent:
            metrics[name] = 0.0
        metrics.update((name, value) for name, (value, _) in quality.items())
    else:
        metrics, raw = job_metrics(jobs, timed)
        (metrics["setup_s"], raw["setup_s"]) = setup
        parts = []
        for name, unit in dict(units, job_ms_p90="ms").items():
            scaled = metrics[name]
            if scaled is None:
                parts.append(f"{name} n/a (needs 100 jobs)")
            elif scaled == raw[name]:
                parts.append(f"{name} {scaled:.6g} {unit}")
            else:
                parts.append(f"{name} {scaled:.6g} {unit} (raw {raw[name]:.6g})")
        parts += [f"{k} {v:.6g} {u}" for k, (v, u) in quality.items()]
        print(f"end-to-end over {len(timed['records'])} jobs, host slowness "
              f"{timed['slowness']:.3f}: " + " | ".join(parts))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
