"""Fast self-check of the benchmark harness on tiny cohorts.

    python3 perfbench/selfcheck.py

Run from the repository root. It runs every workload once untraced and
once traced on the ``--tiny`` cohorts, then checks that

* every metric of ``BENCHMARK.json`` is printed by name with its unit,
  and the result line carries exactly those metrics;
* the traced run's per-layer self times sum to no more than its wall;
* a corrupted output, and an output whose digest changes between runs,
  are each counted as a failed run.

Exits 1 after reporting every check that failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
from workloads import WORKLOADS

SEED = 3


def bench_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--tiny"], capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check_printed(workload, trace, code, lines):
    if not lines:
        return [f"run printed nothing (exit {code})"]
    problems = []
    units = run.declared_metrics(bool(trace))
    result = json.loads(lines[-1])
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"run failed (exit {code}): {lines[-6:-1]}")
    if set(result["metrics"]) != set(units):
        problems.append(f"result metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, unit in units.items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} lacks unit {unit} in the result line")
        if not any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                   for ln in lines[:-1]):
            problems.append(f"{name} is not printed with unit {unit}")
    return problems


def check_self_times(workload):
    """Self times from the newest traced record's spans vs its wall."""
    results = os.path.join(run.STATE, "results")
    names = [n for n in os.listdir(results)
             if n.startswith(f"{workload}-seed{SEED}-trace1-")]
    newest = max(names, key=lambda n: os.path.getmtime(
        os.path.join(results, n)))
    with open(os.path.join(results, newest)) as fh:
        record = json.load(fh)
    with open(os.path.join(results, "spans-" + newest)) as fh:
        spans = json.load(fh)["spans"]
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
    wall = next(s["wall_s"] for s in record["samples"] if s["traced"])
    if sum(self_s) > wall:
        return [f"self times sum to {sum(self_s)} s > traced wall {wall} s"]
    if min(self_s) < -1e-6:
        return [f"a span's self time is negative: {min(self_s)}"]
    return []


def _truncate_matrix(out_dir):
    path = os.path.join(out_dir, "rat3_post_wcoh.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _flip_overlay(out_dir):
    path = os.path.join(out_dir, "rat3_post_wcoh_overlay.csv")
    with open(path, "a") as fh:
        fh.write("\n")


def check_corruption():
    """Corrupt the outputs of the 2nd and 3rd runs; both must fail."""
    problems = []
    bench = run.Run(WORKLOADS["report"], SEED, tiny=True)
    try:
        bench.setup()
        bench.child(0)
        for tamper, what in ((_truncate_matrix, "a truncated matrix CSV"),
                             (_flip_overlay, "a changed overlay digest")):
            def evaluate(sample, out_dir, tamper=tamper):
                if sample.exit_code == 0:
                    tamper(out_dir)
                run.Run.evaluate(bench, sample, out_dir)
            bench.evaluate = evaluate
            if not bench.child(0).errors:
                problems.append(f"{what} was not flagged")
        attempted, failed = run.tally(bench.samples)
        if (attempted, failed) != (3, 2):
            problems.append(f"tally is {attempted} attempted, {failed} "
                            f"failed; expected 3 and 2")
    finally:
        bench.cleanup()
    return problems


def main():
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            code, lines = bench_run(name, trace)
            found = check_printed(name, trace, code, lines)
            if trace and not found:
                found = check_self_times(name)
            problems += [f"{name} trace={trace}: {p}" for p in found]
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}")
    found = check_corruption()
    problems += [f"corruption: {p}" for p in found]
    print(f"corrupted outputs counted as failed: "
          f"{'ok' if not found else 'FAILED'}")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
