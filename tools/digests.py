"""Check that two source trees give byte-identical CLI results.

    python3 tools/digests.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``wavescat`` package (a
checkout's ``src``). With each tree, in a temporary directory, this
writes two small synthetic cohorts and runs the command list below as
``python -m wavescat.cli`` children. It prints the first 12 hex digits
of the SHA-256 of every bundle, every output file and every run's
stdout and stderr, with the run directory and the tree's ``src``
directory replaced by fixed tokens, as ``<run>: <name>  <old>  <new>``.
Every entry that differs, or exists on one side only, is named at the
end, and the exit status is 1 if there is any. Each tree takes about a
minute on two cores.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

# Cohort A has one rat per group at 1 kHz; cohort B has two food rats at
# 250 Hz, so per-rat folds have two rats to deal.
COHORTS = {
    "A": "--seed 6 --delta 0.9 --session-len 20 --rats-saline 1 "
         "--rats-morphine 1 --rats-food 1",
    "B": "--seed 5 --session-len 20 --fs 250 --rats-saline 1 "
         "--rats-morphine 1 --rats-food 2",
}

# (cohort, arguments); "{work}" is the tree's run directory, and each
# run writes to "{work}/run<i>" in list order. No pre session of cohort
# A visits every chamber, so its pre-phase run checks the exit 3 path.
RUNS = [
    ("A", "features cwt"),
    ("A", "features cwt --channel nac"),
    ("A", "features wcoh"),
    ("A", "features wcoh --window 0.7 --hop 0.3"),
    ("A", "features cwt --window 0.7 --hop 0.3"),
    ("A", "features scatter"),
    ("A", "chambers --seed 1 --group food --model dt --source all"),
    ("A", "chambers --seed 1 --group food --model mlp --source hip"),
    ("A", "chambers --seed 1 --group food --phase both --source wcoh"),
    ("A", "chambers --seed 1 --group food --source all --max-depth 6 "
          "--min-leaf 3"),
    ("A", "joint --seed 1"),
    ("A", "report"),
    ("B", "chambers --seed 3 --group food --k 2 --source hip --phase both "
          "--per-rat"),
    ("B", "chambers --seed 3 --group food --source all --phase both"),
    ("B", "features cwt --hop 0.004"),
    ("B", "features wcoh --hop 0.004"),
    ("A", "chambers --seed 1 --group food --model mlp --source wcoh "
          "--hidden 8,4 --epochs 50 --learning-rate 0.2"),
    ("B", "chambers --seed 3 --group food --k 2 --source hip --phase both "
          "--per-rat --model mlp"),
    ("A", "joint --seed 2 --c 0.5 --tol 0.01 --max-iter 50 --k 5"),
    (None, "joint --seed 1 --stats-from {work}/run10/joint_confusion.csv"),
    ("B", "features scatter"),
    ("A", "features scatter --window 0.7 --q1 4 --t 0.25"),
    ("A", "features wcoh --c-t 1.5 --c-s 0.8"),
    ("A", "report --c-t 1.5 --c-s 0.8 --threshold 0.3"),
    ("A", "chambers --seed 1 --phase pre --group morphine --source all"),
    ("B", "chambers --seed 3 --k 2 --phase both --group food --source wcoh "
          "--per-rat"),
    ("B", "chambers --seed 1 --phase pre --group food --source all"),
    # 27 of its 36 SVM machines meet tol early and 9 run to the limit
    ("A", "joint --seed 1 --tol 0.5 --max-iter 2000 --k 3"),
    ("A", "joint --seed 1 --shuffle-labels --k 3"),
    # stumps: every prediction is a one-step descent
    ("A", "chambers --seed 1 --group food --model dt --source hip "
          "--max-depth 1"),
    # refused after some results are computed: exit 3 and no file
    ("A", "report --c-t 0 --c-s 0"),
    ("A", "chambers --seed 1 --source hip"),
    # a negative seed is refused (exit 2); a session of 1.4 EiB a channel
    # runs out of memory at its first allocation (exit 3)
    (None, "synth --seed -1 --session-len 10"),
    (None, "synth --seed 1 --session-len 1e15 --fs 200"),
    # a scattering gamma of 0 is refused before any transform (exit 3)
    ("A", "joint --seed 1 --gamma 0"),
]

TOKEN = "<RUN>"
SRC_TOKEN = "<SRC>"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _run(src, work, label, argv, records):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wavescat.cli", *argv],
                          env=env, capture_output=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    records[(label, "exit")] = str(proc.returncode)
    for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        data = data.replace(work.encode(), TOKEN.encode()).replace(
            src.encode(), SRC_TOKEN.encode())
        records[(label, stream)] = _digest(data)


def _files(directory, label, records):
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            records[(label, name)] = _digest(fh.read())


def digests(src) -> dict:
    """(run label, entry name) -> digest, for every cohort and run."""
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for cohort, args in COHORTS.items():
            out = os.path.join(work, cohort)
            _run(src, work, f"synth {cohort}",
                 ["synth", "--out", out, *args.split()], records)
            _files(out, f"synth {cohort}", records)
        for i, (cohort, args) in enumerate(RUNS):
            out = os.path.join(work, f"run{i}")
            argv = args.format(work=work).split() + ["--out", out]
            if cohort:
                argv += ["--data", os.path.join(work, cohort)]
            label = f"{cohort or '-'}: {args.format(work=TOKEN)}"
            _run(src, work, label, argv, records)
            if os.path.isdir(out):
                _files(out, label, records)
    return records


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    for src in argv:
        if not os.path.isfile(os.path.join(src, "wavescat", "__init__.py")):
            sys.stderr.write(f"{src}: no wavescat package\n")
            return 2
    old, new = (digests(os.path.abspath(src)) for src in argv)
    keys = list(dict.fromkeys([*old, *new]))
    differing = []
    for key in keys:
        a, b = old.get(key, "-"), new.get(key, "-")
        print(f"{key[0]}: {key[1]}  {a}  {b}")
        if a != b:
            differing.append(key)
    for label, name in differing:
        print(f"DIFFERS {label}: {name}")
    print(f"{len(keys) - len(differing)} identical, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
