"""Write one benchmark run's cohorts and time the writing.

    PYTHONPATH=src python3 perfbench/cohorts.py WORKLOAD SEED WORK [--tiny]

``run.py`` runs this as a child of its own rather than in-process. On
Linux a child's ``ru_maxrss`` also counts the memory its parent held
when it was spawned, so the process that spawns the measured children
must stay small: it never imports numpy and never holds a cohort.

The cohorts go to WORK/data-0, WORK/data-1, ...; writing them is timed
SETUP_REPEATS times (the extra copies are deleted). The last stdout line
is a JSON object with ``setup_s`` (the median), ``expected_rows`` (the
joint confusion's segment count per cohort, else null) and
``environment``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPEATS = 21


def environment():
    import numpy
    import wavescat
    root = os.getcwd()
    commit = None                   # a plain checkout, not a repository
    if os.path.isdir(os.path.join(root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_enabled": bool(wavescat.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in os.environ.items()
                        if k.endswith("_THREADS")},
        "git_commit": commit,
        "machine": platform.machine(),
    }


def write(workload, seed, work, tiny):
    from wavescat.synth import generate_cohort
    cohort, count = workloads.plan(workload, tiny)
    specs = [workloads.synth_spec(cohort, workloads.cohort_seed(
        workload, cohort, seed * count + k)) for k in range(count)]
    times = []
    for i in range(SETUP_REPEATS):
        targets = [os.path.join(work, f"setup-{i}-{k}") for k in range(count)]
        start = time.perf_counter()
        for spec, target in zip(specs, targets):
            generate_cohort(spec, target)
        times.append(time.perf_counter() - start)
        for k, target in enumerate(targets):
            if i:
                shutil.rmtree(target)
            else:
                os.rename(target, os.path.join(work, f"data-{k}"))
    rows = None
    if workload.name == "joint":
        rows = [workloads.segment_count(os.path.join(work, f"data-{k}"))
                for k in range(count)]
    return {"setup_s": statistics.median(times), "expected_rows": rows,
            "environment": environment()}


def main(argv):
    name, seed, work = argv[0], int(argv[1]), argv[2]
    tiny = argv[3:] == ["--tiny"]
    print(json.dumps(write(workloads.WORKLOADS[name], seed, work, tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
