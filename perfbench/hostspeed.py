"""Host-speed reference for timings taken on a shared host.

The measured host is a small VM whose CPU speed drifts with its
neighbours' load, by up to 45% over minutes.  The client therefore
interleaves a fixed unit of interpreter work (`chunk`) with the jobs,
taking about REFERENCE_SHARE of the job time, and every time metric is
also reported scaled to a host on which one chunk takes
REFERENCE_CHUNK_S: divided by the slowness, a mean chunk time over
REFERENCE_CHUNK_S.  Throughput (total rows over total job seconds) is
scaled by the slowness of all the run's chunks, which tracked the host
best: over ten `walk_long` seeds its quartile spread was 0.031 scaled
this way, 0.075 with medians in place of the means, 0.137 raw.  A job's
latency is scaled by the block run right after it, before percentiles
are taken: over ten `scene_churn` seeds the median latency spread by
0.035 scaled this way, 0.141 scaled by the whole run, 0.229 raw.

This module imports nothing but `time`, so an import probe can load it
without pre-loading anything the program imports.
"""

import time

# Seconds one chunk takes on the reference host (a quiet 2-core x86_64
# Xeon VM, Python 3.11); only the unit of the scaled metrics depends on it.
REFERENCE_CHUNK_S = 0.0005
REFERENCE_SHARE = 0.1

_FACES = tuple((i * 7.3 % 400.0, i * 1.7 % 90.0, i * 1.7 % 90.0 + 25.0) for i in range(64))


def chunk():
    """Run one fixed unit of interpreter work; returns its duration in seconds."""
    start = time.perf_counter()
    for k in range(100):
        ox, oz, slope = k * 0.7, 50.0, (k % 25 - 12) * 0.02
        best = None
        for fx, lo, hi in _FACES:
            t = fx - ox
            if t <= 1e-9:
                continue
            z = oz + t * slope
            if lo <= z <= hi and (best is None or t < best):
                best = t
    return time.perf_counter() - start


def block(seconds):
    """Run chunks for about REFERENCE_SHARE * seconds; returns (seconds, chunks)."""
    total, count = chunk(), 1
    while total < REFERENCE_SHARE * seconds:
        total += chunk()
        count += 1
    return total, count


def slowness(blocks):
    """Mean chunk time of (seconds, chunks) blocks over REFERENCE_CHUNK_S."""
    seconds = sum(s for s, _ in blocks)
    chunks = sum(n for _, n in blocks)
    return seconds / chunks / REFERENCE_CHUNK_S
