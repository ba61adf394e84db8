"""Per-layer spans and counters, installed from outside the program.

Each wrapper replaces a public function in the namespace its caller looks
it up in (for example `ultranav.sensing.cone_min_distance`, which
`measure` calls), times it and counts it.  A name that no longer exists
is skipped and every metric that needs it is reported as absent, so the
traced run survives refactors that remove or move functions.

Self time is a span's duration minus the time covered by the spans it
encloses.  Bookkeeping done after a span closes (result hooks) lands in
the enclosing span's self time; `trace.overhead_ratio` bounds that cost.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span).  Several attributes may share one span.
WRAPPED = (
    ("ultranav.cli", "parse_scenario", "cli.parse"),
    ("ultranav.cli", "build_simulation", "cli.build"),
    ("ultranav.cli", "load_calibration", "cli.calib"),
    ("ultranav.cli", "SagittalScene", "geometry.scene"),
    ("ultranav.cli", "run_scenario", "pipeline.run"),
    ("ultranav.cli", "format_trace", "cli.format"),
    ("ultranav.pipeline", "tick", "pipeline.tick"),
    ("ultranav.pipeline", "measure", "sensing.measure"),
    ("ultranav.pipeline", "fuse", "pipeline.fuse"),
    ("ultranav.sensing", "cone_min_distance", "geometry.cone"),
    ("ultranav.pipeline", "classify_chest", "classify"),
    ("ultranav.pipeline", "classify_knee", "classify"),
    ("ultranav.pipeline", "classify_toe", "classify"),
    ("ultranav.pipeline", "classify_depth", "classify"),
    ("ultranav.pipeline", "detect_upstairs", "classify"),
    ("ultranav.pipeline", "is_downstep", "classify"),
    ("ultranav.pipeline", "infer_upper_level", "classify"),
)

# Metric -> spans it is derived from; absent when none of them could be
# wrapped.  Values are per pass of the workload.
SOURCES = {
    "cli.parse.self_s": ("cli.parse",),
    "cli.build.self_s": ("cli.build",),
    "cli.calib.busy_s": ("cli.calib",),
    "cli.main.self_s": ("cli.main",),
    "cli.format.busy_s": ("cli.format",),
    "cli.format.bytes": ("cli.format",),
    "geometry.scene.builds": ("geometry.scene",),
    "geometry.scene.build_s": ("geometry.scene",),
    "geometry.cone.calls": ("geometry.cone",),
    "geometry.cone.busy_s": ("geometry.cone",),
    "geometry.cone.faces_tested": ("geometry.cone",),
    "geometry.cone.faces_in_reach_ratio": ("geometry.cone",),
    "geometry.cone.echo_ratio": ("geometry.cone",),
    "geometry.cone.thin_rebuilds": ("geometry.cone",),
    "sensing.measure.self_s": ("sensing.measure",),
    "sensing.out_of_range": ("sensing.measure", "geometry.cone"),
    "sensing.clamped": ("sensing.measure",),
    "classify.calls": ("classify",),
    "classify.busy_s": ("classify",),
    "pipeline.tick.calls": ("pipeline.tick",),
    "pipeline.tick.self_s": ("pipeline.tick",),
    "pipeline.tick_us_p50": ("pipeline.tick",),
    "pipeline.tick_us_p99": ("pipeline.tick",),
    "pipeline.run.self_s": ("pipeline.run",),
    "pipeline.debounce_held_ratio": ("pipeline.tick", "pipeline.fuse"),
}


class Tracer:
    """Span stack plus the counters the per-layer metrics need."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.present = set()
        self.missing = set()
        self.counts = Counter()
        self.tick_s = []
        self.cones = []        # (job, origin, aim) of every cone, first pass
        self.record_cones = True
        self.job = None
        self._stack = [[0.0]]  # root frame collects unenclosed time
        self._saved = []
        self._cone = None
        self._candidate = None

    def span(self, name, fn, after=None):
        """Wrap fn in a timed span; `after(result, args)` runs once it closes."""
        calls, busy, own, stack = self.calls, self.busy, self.own, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                own[name] += elapsed - frame[0]
            if after is not None:
                after(result, args, elapsed)
            return result

        return wrapper

    def install(self):
        hooks = {
            "geometry.cone": self._after_cone,
            "sensing.measure": self._after_measure,
            "pipeline.fuse": self._after_fuse,
            "pipeline.tick": self._after_tick,
            "cli.format": self._after_format,
        }
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self.present.add(name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.span(name, fn, hooks.get(name)))
        self.present.add("cli.main")

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _after_cone(self, result, args, elapsed):
        self._cone = result
        self.counts["cone_echo"] += result is not None
        if self.job is not None and self.job.get("thin"):
            self.counts["thin_cones"] += 1
        if self.record_cones and len(args) >= 3:
            self.cones.append((self.job, args[1], getattr(args[2], "value", args[2])))

    def _after_measure(self, result, args, elapsed):
        if self._cone is not None and result is None:
            self.counts["out_of_range"] += 1
        spec = args[1] if len(args) > 1 else None
        if result is not None and result in (getattr(spec, "min_range", 3.0),
                                             getattr(spec, "max_range", 300.0)):
            self.counts["clamped"] += 1
        self._cone = None

    def _after_fuse(self, result, args, elapsed):
        self._candidate = result

    def _after_tick(self, result, args, elapsed):
        self.tick_s.append(elapsed)
        emitted = getattr(result[0], "advisory", None) if isinstance(result, tuple) else None
        if emitted is None or self._candidate is None:
            self.counts["debounce_unknown"] += 1
        elif emitted != self._candidate:
            self.counts["held"] += 1
        self._candidate = None

    def _after_format(self, result, args, elapsed):
        self.counts["format_bytes"] += len(result)

    def metrics(self, passes, reach):
        """Per-pass metric values; absent metrics are left out.

        `reach` is (faces tested, faces in reach) summed over the cones of
        the first pass, from the benchmark's own face model.
        """
        c, busy, own, n = self.calls, self.busy, self.own, self.counts
        ticks = c["pipeline.tick"]
        tick_us = sorted(t * 1e6 for t in self.tick_s)
        values = {
            "cli.parse.self_s": own["cli.parse"] / passes,
            "cli.build.self_s": own["cli.build"] / passes,
            "cli.calib.busy_s": busy["cli.calib"] / passes,
            "cli.main.self_s": own["cli.main"] / passes,
            "cli.format.busy_s": busy["cli.format"] / passes,
            "cli.format.bytes": n["format_bytes"] // passes,
            "geometry.scene.builds": c["geometry.scene"] // passes,
            "geometry.scene.build_s": busy["geometry.scene"] / passes,
            "geometry.cone.calls": c["geometry.cone"] // passes,
            "geometry.cone.busy_s": busy["geometry.cone"] / passes,
            "geometry.cone.faces_tested": reach[0],
            "geometry.cone.faces_in_reach_ratio": reach[1] / reach[0] if reach[0] else 0.0,
            "geometry.cone.echo_ratio": n["cone_echo"] / max(c["geometry.cone"], 1),
            "geometry.cone.thin_rebuilds": n["thin_cones"] // passes,
            "sensing.measure.self_s": own["sensing.measure"] / passes,
            "sensing.out_of_range": n["out_of_range"] // passes,
            "sensing.clamped": n["clamped"] // passes,
            "classify.calls": c["classify"] // passes,
            "classify.busy_s": busy["classify"] / passes,
            "pipeline.tick.calls": ticks // passes,
            "pipeline.tick.self_s": own["pipeline.tick"] / passes,
            "pipeline.tick_us_p50": statistics.median(tick_us) if tick_us else 0.0,
            "pipeline.tick_us_p99": tick_us[int(0.99 * (len(tick_us) - 1))] if tick_us else 0.0,
            "pipeline.run.self_s": own["pipeline.run"] / passes,
            "pipeline.debounce_held_ratio": n["held"] / max(ticks, 1),
        }
        absent = {m for m, spans in SOURCES.items() if not set(spans) <= self.present}
        if n["debounce_unknown"]:
            absent.add("pipeline.debounce_held_ratio")
        if self.cones == [] and c["geometry.cone"]:
            absent |= {"geometry.cone.faces_tested", "geometry.cone.faces_in_reach_ratio"}
        return {k: v for k, v in values.items() if k not in absent}, sorted(absent)
