"""Print per-case medians of pytest-benchmark runs side by side, pair by pair.

    python3 bench/compare.py BENCH_4.json             # its "before"/"after" pair and its "pairs"
    python3 bench/compare.py before.json after.json   # two --benchmark-json files

A BENCH_<n>.json file holds {"before": run, "after": run}, each run the
output of `--benchmark-json` less its per-round samples, and may hold
`pairs`, a list of further {"before", "after"} runs alternated with the
first; its commit and machine information say what was measured where.

Each case's line gives the first pair's medians and IQRs, the number of
pairs in which the after run's median is the lower, and the before/after
ratio of the medians in each pair, in order.  Cases present in only one
run of the first pair are listed after the table.
"""

import json
import sys


def _pairs(paths):
    """[(before, after)] runs: a BENCH file's first pair and its `pairs`, or two run files."""
    loaded = [json.load(open(path, encoding="utf-8")) for path in paths]
    if len(loaded) == 2:
        return [tuple(loaded)]
    record = loaded[0]
    return [(pair["before"], pair["after"]) for pair in [record, *record.get("pairs", ())]]


def _stats(run):
    return {b["name"]: b["stats"] for b in run["benchmarks"]}


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    pairs = [(_stats(before), _stats(after)) for before, after in _pairs(argv)]
    before, after = pairs[0]
    print(
        f"{'case':32} {'before us':>12} {'IQR':>9} {'after us':>12} {'IQR':>9}"
        f"  {'after faster':>18}  before/after per pair"
    )
    for name in sorted(before.keys() & after.keys()):
        b, a = before[name], after[name]
        ratios = [pb[name]["median"] / pa[name]["median"]
                  for pb, pa in pairs if name in pb and name in pa]
        faster = f"in {sum(r > 1.0 for r in ratios)} of {len(ratios)} pairs"
        print(
            f"{name:32} {b['median'] * 1e6:12.1f} {b['iqr'] * 1e6:9.1f}"
            f" {a['median'] * 1e6:12.1f} {a['iqr'] * 1e6:9.1f}  {faster:>18}  "
            + " ".join(f"{r:.2f}" for r in ratios)
        )
    for label, run, other in (("before", before, after), ("after", after, before)):
        for name in sorted(run.keys() - other.keys()):
            print(f"{name:32} only in the {label} run: {run[name]['median'] * 1e6:.1f} us")


if __name__ == "__main__":
    main(sys.argv[1:])
