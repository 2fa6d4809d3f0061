"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the records ``run.py`` writes to
``.perfbench/results/`` (copy that directory aside between commits).
For every workload, trace mode and metric present in both sets it
prints each set's median over runs and the relative change. It refuses
(exit 2) to compare sets whose ``NUMBA_ENABLED`` differs: the numba and
numpy kernel paths run different SVM algorithms.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if not os.path.basename(path).startswith("spans-"):
            with open(path) as fh:
                records.append(json.load(fh))
    return records


def medians(records):
    """{(workload, mode, metric): (median, runs, unit)}"""
    values = {}
    for r in records:
        mode = "trace" if r["trace"] else "e2e"
        for name, m in r["result"]["metrics"].items():
            if m["value"] is not None:
                key = (r["workload"], mode, name)
                values.setdefault(key, ([], m["unit"]))[0].append(m["value"])
    return {k: (statistics.median(v), len(v), unit)
            for k, (v, unit) in values.items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("both directories need result records", file=sys.stderr)
        return 2
    flags = {r["environment"]["numba_enabled"] for r in before + after}
    if len(flags) > 1:
        print("refusing to compare: NUMBA_ENABLED differs, and the two "
              "kernel paths run different SVM algorithms", file=sys.stderr)
        return 2
    a, b = medians(before), medians(after)
    print(f"{'workload':14} {'mode':5} {'metric':42} {'before':>12} "
          f"{'after':>12} {'change':>8}  runs")
    for key in sorted(set(a) & set(b)):
        (va, na, unit), (vb, nb, _) = a[key], b[key]
        change = f"{100.0 * (vb - va) / va:+.1f}%" if va else "n/a"
        print(f"{key[0]:14} {key[1]:5} {key[2]:42} {va:12.6g} {vb:12.6g} "
              f"{change:>8}  {na}/{nb} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
