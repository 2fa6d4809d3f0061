"""End-to-end benchmark of the ``wavescat`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``--workload all`` runs every workload in
turn. One run:

1. writes the workload's synthetic cohorts from ``--seed`` with
   ``wavescat.synth`` several times, in a child running
   ``perfbench/cohorts.py``, and reports the median as ``setup_s``;
2. runs the workload's command as fresh ``python -m wavescat.cli``
   children with ``PYTHONPATH=src``, one at a time (a closed loop with
   one client), cycling through the cohorts, for ``--seconds`` seconds
   and until some cohort has run twice. Each child's wall time counts
   interpreter start and imports, because users pay them on every run;
   its peak RSS and CPU time come from ``os.wait4``. This process never
   imports numpy, because a child's peak RSS cannot read below its
   parent's; a child that reads no higher is counted as failed. Every
   child's outputs are checked and digested, and every child must
   reproduce the digests of its cohort's first child;
3. with ``--trace 1``, spends half the time on untraced children and
   then runs the command once more under ``perfbench/traced.py``, which
   wraps each layer in-process and reports per-layer metrics. The traced
   run must produce the same digests and must record a call in every
   layer the workload is expected to reach.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units are those of
``BENCHMARK.json``. A run whose checks fail prints it with ``correct``
false and exits 1. The full record (environment, every sample, digests)
goes to ``.perfbench/results/``, the traced run's spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
CHILD_LIMIT_S = 170.0     # a child still running then is killed

# BLAS thread caps hold for this process too, so set them before numpy
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int
    cohort: int
    accuracy: float | None = None
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    traced: bool = False


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def spawn(argv, log_path, timeout):
    """Run one child to completion: (wall_s, exit_code, rusage)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen, so it neither polls nor warns
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def own_peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log_tail(path, lines=5):
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


class Run:
    """One benchmark run of one workload at one seed.

    A run writes ``workload.cohorts`` cohorts (one with ``tiny``, the
    self-check's smaller cohorts) and cycles its children
    through them, so the medians average over cohorts as well as over
    repeats; the cycle is at least one child longer than the cohort
    count, so at least one cohort runs twice and shows its determinism.
    """

    def __init__(self, workload, seed, tiny=False):
        from workloads import plan
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.cohort, self.count = plan(workload, tiny)
        self.work = os.path.join(
            STATE, f"work-{workload.name}-{seed}-{os.getpid()}")
        self.data = [os.path.join(self.work, f"data-{k}")
                     for k in range(self.count)]
        self.expected_rows = [None] * self.count
        self.reference = [None] * self.count     # first good digests
        self.accuracy = [None] * self.count
        self.samples: list[Sample] = []
        self.environment = None

    def setup(self):
        """Write the cohorts in a child; the median write in seconds."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        argv = [sys.executable, os.path.join(HERE, "cohorts.py"),
                self.workload.name, str(self.seed), self.work]
        if self.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_LIMIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"writing the cohorts failed: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["expected_rows"] is not None:
            self.expected_rows = result["expected_rows"]
        self.environment = result["environment"]
        return result["setup_s"]

    def cli_args(self, k, out_dir):
        args = list(self.workload.argv) + ["--data", self.data[k],
                                           "--out", out_dir]
        if self.workload.argv[0] != "report":    # report takes no --seed
            args += ["--seed", str(self.seed)]
        return args

    def evaluate(self, sample: Sample, out_dir):
        """Check one child's outputs and compare their digests."""
        from workloads import check_outputs, digests
        if sample.exit_code != 0:
            return
        k = sample.cohort
        sample.accuracy, errors = check_outputs(
            self.workload, self.cohort, out_dir, self.expected_rows[k])
        sample.errors += errors
        sample.digests = digests(out_dir)
        reference = self.reference[k]
        if reference is None:
            if not sample.errors:
                self.reference[k] = sample.digests
                self.accuracy[k] = sample.accuracy
        elif sample.digests != reference:
            changed = sorted(name for name in set(sample.digests)
                             | set(reference)
                             if sample.digests.get(name) != reference.get(name))
            sample.errors.append(f"outputs differ from the first run on "
                                 f"cohort {k}: {changed}")

    def child(self, k, traced_json=None) -> Sample:
        i = len(self.samples)
        out_dir = os.path.join(self.work, f"out-{i}")
        log = os.path.join(self.work, f"log-{i}.txt")
        prefix = [sys.executable]
        if traced_json:
            prefix += [os.path.join(HERE, "traced.py"), traced_json, "--"]
        else:
            prefix += ["-m", "wavescat.cli"]
        wall, code, usage = spawn(prefix + self.cli_args(k, out_dir), log,
                                  CHILD_LIMIT_S)
        sample = Sample(wall, usage.ru_maxrss / 1024.0,
                        usage.ru_utime + usage.ru_stime, code, k,
                        traced=bool(traced_json))
        if code != 0:
            sample.errors.append(f"exit {code}: {_log_tail(log)}")
        elif sample.rss_mb <= own_peak_mb():
            sample.errors.append(f"peak RSS {sample.rss_mb} MB is not above "
                                 f"this process's own {own_peak_mb()} MB")
        self.evaluate(sample, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.samples.append(sample)
        return sample

    def loop(self, seconds, minimum):
        """Closed loop: the next child starts when the last one exits,
        while another one still fits in the measuring time."""
        start = time.perf_counter()
        while True:
            self.child(len(self.samples) % self.count)
            walls = [s.wall_s for s in self.samples]
            elapsed = time.perf_counter() - start
            if (len(walls) >= minimum
                    and elapsed + statistics.median(walls) > seconds):
                return

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def tally(samples):
    """(attempted, failed): a run fails on a non-zero exit, a failed
    output check or a digest that differs from its cohort's first run."""
    return len(samples), sum(1 for s in samples if s.errors)


def untraced_metrics(run: Run, setup_s):
    accuracies = [a for a in run.accuracy if a is not None]
    return {
        "wall_s": statistics.median(s.wall_s for s in run.samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in run.samples),
        "setup_s": setup_s,
        "accuracy_pct": statistics.fmean(accuracies) if accuracies else 0.0,
    }


def traced_metrics(run: Run, traced: Sample, trace_json):
    """Per-layer metrics of the traced child, plus the checks on them.

    The overhead compares the traced child, less the seconds it spent
    calibrating the hot wrapper, with the untraced children of the same
    cohort."""
    if traced.exit_code != 0:
        return {}
    plain = [s for s in run.samples
             if not s.traced and s.cohort == traced.cohort]
    with open(trace_json) as fh:
        trace = json.load(fh)
    metrics = dict(trace["metrics"])
    metrics["process.cpu_s"] = statistics.median(s.cpu_s for s in plain)
    wall = traced.wall_s - trace["calibration_s"]
    metrics["trace.overhead_s"] = wall - statistics.median(
        s.wall_s for s in plain)
    silent = [layer for layer in run.workload.layers
              if trace["calls"].get(layer, 0) == 0]
    if silent:
        traced.errors.append(f"layers recorded no call: {silent}")
    if trace["self_sum_s"] > wall:
        traced.errors.append(f"self times sum to {trace['self_sum_s']} s, "
                             f"more than the traced wall {wall} s")
    return metrics


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def measure(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result line dict, full record)."""
    run = Run(workload, seed, tiny)
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    stamp = f"{workload.name}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    try:
        setup_s = run.setup()
        if trace:
            run.loop(seconds / 2.0, 1)
            trace_json = os.path.join(results, f"spans-{stamp}.json")
            traced = run.child(0, trace_json)
            values = traced_metrics(run, traced, trace_json)
        else:
            run.loop(seconds, run.count + 1)
            values = untraced_metrics(run, setup_s)
    finally:
        run.cleanup()
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    attempted, failed = tally(run.samples)
    correct = failed == 0 and not missing
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values.get(name), "unit": unit}
                        for name, unit in units.items()}}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "tiny": tiny, "cohort": vars(run.cohort),
              "environment": run.environment, "setup_s": setup_s,
              "harness_peak_rss_mb": own_peak_mb(),
              "samples": [vars(s) for s in run.samples], "result": line}
    if missing:
        record["missing_metrics"] = missing
    with open(os.path.join(results, f"{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def main(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="the self-check's smaller cohorts")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "wavescat", "cli.py")):
        print(f"no wavescat sources under {SRC}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        line, record = measure(WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), args.tiny)
        for s in record["samples"]:
            for err in s["errors"]:
                print(f"check failed: {err}")
        env = record["environment"]
        print(f"# {name} seed={args.seed}: {line['attempted']} runs, "
              f"numba={env['numba_enabled']} nproc={env['nproc']} "
              f"python={env['python']} numpy={env['numpy']}")
        for metric, m in line["metrics"].items():
            print(f"{metric} = {m['value']} {m['unit']}")
        print(json.dumps(line))
        correct = correct and line["correct"]
    return 0 if correct else 1

sys.path[:0] = [HERE, SRC]

if __name__ == "__main__":
    sys.exit(main())
