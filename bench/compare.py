"""Print per-case medians of two pytest-benchmark runs side by side.

    python3 bench/compare.py BENCH_4.json             # its "before" and "after" runs
    python3 bench/compare.py before.json after.json   # two --benchmark-json files

A BENCH_<n>.json file holds {"before": run, "after": run}, each run the
output of `--benchmark-json` less its per-round samples; its commit and
machine information say what was measured where.  Cases present in only
one of the two runs are listed after the table.
"""

import json
import sys


def _runs(paths):
    loaded = [json.load(open(path, encoding="utf-8")) for path in paths]
    if len(loaded) == 1:
        return loaded[0]["before"], loaded[0]["after"]
    return loaded


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    before, after = (
        {b["name"]: b["stats"] for b in run["benchmarks"]} for run in _runs(argv)
    )
    print(f"{'case':32} {'before us':>12} {'IQR':>9} {'after us':>12} {'IQR':>9} {'ratio':>7}")
    for name in sorted(before.keys() & after.keys()):
        b, a = before[name], after[name]
        print(
            f"{name:32} {b['median'] * 1e6:12.1f} {b['iqr'] * 1e6:9.1f}"
            f" {a['median'] * 1e6:12.1f} {a['iqr'] * 1e6:9.1f} {b['median'] / a['median']:7.2f}"
        )
    for label, run, other in (("before", before, after), ("after", after, before)):
        for name in sorted(run.keys() - other.keys()):
            print(f"{name:32} only in the {label} run: {run[name]['median'] * 1e6:.1f} us")


if __name__ == "__main__":
    main(sys.argv[1:])
