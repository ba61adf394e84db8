"""One benchmark client: runs a workload's jobs in process through the CLI.

    python3 perfbench/worker.py MANIFEST SECONDS {timed,traced} RESULT_JSON

A job is `ultranav.cli.main(["run", scn, ("--calib", cal,) "--out", csv])`.
Jobs run back to back, one at a time, in this single thread, cycling
through the workload for at least one full pass and until SECONDS have
passed (traced runs stop only at the end of a pass, so per-pass counts
are exact).  Afterwards the bundled scenarios are replayed through the
same entry and compared byte for byte with their goldens.  Results,
including the process's peak resident memory, go to RESULT_JSON.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from oracle import Faces, faces_in_reach  # noqa: E402


def _argv(job):
    argv = ["run", job["scn"], "--out", job["out"]]
    return argv + ["--calib", job["calib"]] if job["calib"] else argv


def _call(main, argv):
    """Run one CLI invocation; returns None or a one-line failure."""
    try:
        code = main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except Exception as exc:  # the client keeps going; the job is counted failed
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit code {code}"


def _sha(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_jobs(main, jobs, seconds, whole_passes, tracer=None):
    """Closed loop over the jobs; returns (records, passes).

    A record is [job index, seconds, error, trace sha256, reference
    seconds, reference chunks]: after each job, a reference block samples
    the host's speed.
    """
    argvs = [_argv(job) for job in jobs]
    records = []
    passes = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job
            t0 = clock()
            error = _call(main, argvs[index])
            elapsed = clock() - t0
            sha = None if error else _sha(job["out"])
            records.append([index, elapsed, error, sha, *hostspeed.block(elapsed)])
            done = clock() - start >= seconds
            if done and passes >= 1 and not whole_passes:
                return records, passes
        passes += 1
        if tracer is not None:
            tracer.record_cones = False
        if clock() - start >= seconds:
            return records, passes


def replay_goldens(main, root, scratch):
    """[name, error-or-None] for every bundled scenario with a golden."""
    out = []
    for scn in sorted(glob.glob(os.path.join(root, "scenarios", "*.scn"))):
        stem = os.path.splitext(os.path.basename(scn))[0]
        golden = os.path.join(root, "scenarios", "golden", stem + ".trace.csv")
        target = os.path.join(scratch, "golden-" + stem + ".trace.csv")
        error = _call(main, ["run", scn, "--out", target])
        if error is None:
            if not os.path.exists(golden):
                error = "no golden trace"
            elif _sha(golden) != _sha(target):
                error = "trace differs from golden"
        out.append([stem, error])
    return out


def cone_reach(tracer):
    """(faces tested, faces in reach) over the recorded first-pass cones."""
    tested = in_reach = 0
    faces = {}
    for job, origin, aim in tracer.cones:
        if job is None:
            continue
        key = id(job)
        if key not in faces:
            faces[key] = Faces(job["obstacles"], job["ground"])
        channel = "arch" if aim == "down" else "chest"
        n, k = faces_in_reach(faces[key], channel, origin[0], origin[1])
        tested += n
        in_reach += k
    return tested, in_reach


def main():
    manifest_path, seconds, mode, result_path = sys.argv[1:5]
    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ultranav.cli

    if not os.path.abspath(ultranav.cli.__file__).startswith(src + os.sep):
        sys.exit(f"ultranav imported from {ultranav.cli.__file__}, not {src}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    jobs = manifest["jobs"]

    tracer = None
    entry = ultranav.cli.main
    if mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli.main", entry)
    records, passes = run_jobs(entry, jobs, float(seconds), mode == "traced", tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": records, "passes": passes, "peak_rss_kb": peak_kb,
              "slowness": hostspeed.slowness([r[4:] for r in records])}
    if tracer is not None:
        tracer.uninstall()
        layer_values, absent = tracer.metrics(passes, cone_reach(tracer))
        result.update(layers=layer_values, absent=absent, missing=sorted(tracer.missing))
    result["golden"] = replay_goldens(ultranav.cli.main, root,
                                      os.path.dirname(manifest_path))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
