"""The benchmark's workloads: cohort shape, CLI command and output checks.

Every workload is a seeded synthetic cohort written with
``wavescat.synth`` plus one ``wavescat`` command run on it. The cohorts
are far smaller than the CLI's default 38 bundles x 60 s (a default
``chambers`` run takes about 110 s on 2 cores), so that one run of the
benchmark fits several whole CLI runs into its measuring time. Chamber
workloads use 250 Hz, which keeps the CLI's 1-100 Hz bank and the 1 s
windows but cuts every transform four-fold; ``joint`` keeps 1 kHz
because scattering's cost scales with samples per window, and
``report`` uses 500 Hz so that its 10 000-sample matrices span 20 s.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

# CLI defaults the checks rely on: 1 s windows on a 0.5 s hop, and a
# bank from 1 to 100 Hz at 10 voices per octave.
WINDOW_S = 1.0
HOP_S = 0.5
N_SCALES = int(math.floor(10 * math.log2(100.0 / 1.0))) + 1
GROUPS = ("food", "morphine", "saline")

# The joint confusion must clear this macro accuracy. Criterion 6 gates
# the 38-bundle default cohort at 90 %; on the benchmark's six-bundle
# 20 s cohort the same pipeline scores 84-92 % across seeds, so the gate
# here only asserts that the 12-way classifier works (chance is 8.3 %).
JOINT_MACRO_GATE = 75.0
# The food group's post sessions carry a shared 6 Hz component whose
# NAc copy lags HIP by a quarter period; the report's phase matrix
# should read +pi/2 there wherever coherence is high. The threshold is
# above the CLI's 0.5 overlay threshold because the short smoothing
# kernel lets pure-noise cells cross 0.5 with a random phase.
LAG_FREQ_HZ = 6.0
LAG_RAD = math.pi / 2
LAG_TOL_RAD = math.pi / 4
COHERENCE_THRESHOLD = 0.7
EDGE_S = 2.0


@dataclass(frozen=True)
class Cohort:
    rats: int            # per group; ids run saline, morphine, food
    session_len: float
    fs: float
    delta: float = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    cohort: Cohort
    tiny: Cohort                 # the self-check's cohort
    cohorts: int                 # cohorts per run, see run.Run
    argv: tuple
    layers: tuple                # traced layers that must record calls


WORKLOADS = {w.name: w for w in (
    Workload(
        "joint", Cohort(1, 20.0, 1000.0), Cohort(1, 20.0, 1000.0), 3,
        ("joint",),
        layers=("model.load_session", "model.segment_by_chamber",
                "morse.build_filterbank", "scattering.feature_matrix",
                "classify.svm.train_svm_ova", "kernels.svm_dual_solve",
                "classify.kfold.run_kfold", "classify.kfold.predict",
                "cli.write")),
    Workload(
        "chambers", Cohort(1, 40.0, 250.0), Cohort(1, 30.0, 250.0), 3,
        ("chambers", "--model", "dt", "--source", "all"),
        layers=("model.load_session", "morse.build_filterbank",
                "morse.efold_times", "cwt", "coherence",
                "kernels.boxcar_time", "kernels.boxcar_scale",
                "pipeline.cwt_table", "pipeline.wcoh_table",
                "classify.tree.train_tree", "kernels.best_split_column",
                "classify.kfold.run_kfold", "classify.kfold.predict",
                "cli.write")),
    Workload(
        "long_sessions", Cohort(1, 80.0, 250.0), Cohort(1, 40.0, 250.0), 2,
        ("chambers", "--model", "mlp", "--source", "wcoh"),
        layers=("model.load_session", "morse.build_filterbank",
                "morse.efold_times", "cwt", "coherence",
                "kernels.boxcar_time", "kernels.boxcar_scale",
                "pipeline.wcoh_table", "classify.mlp.train_mlp",
                "classify.mlp.loss_and_grad", "classify.kfold.run_kfold",
                "classify.kfold.predict", "cli.write")),
    Workload(
        "report", Cohort(1, 20.0, 500.0), Cohort(1, 20.0, 250.0), 3,
        # rat3 is the cohort's food rat, the group with the planted lag
        ("report", "--rat", "rat3"),
        layers=("model.load_session", "morse.build_filterbank",
                "morse.efold_times", "cwt", "coherence",
                "kernels.boxcar_time", "kernels.boxcar_scale",
                "coherence.phase_overlay", "netpbm.write_pgm",
                "cli.write")),
)}


def plan(workload: Workload, tiny: bool):
    """(cohort shape, cohorts per run) of a full or a self-check run."""
    return (workload.tiny, 1) if tiny else (workload.cohort, workload.cohorts)


def synth_spec(cohort: Cohort, seed: int):
    from wavescat.synth import SynthSpec
    return SynthSpec(rats_saline=cohort.rats, rats_morphine=cohort.rats,
                     rats_food=cohort.rats, session_len=cohort.session_len,
                     fs=cohort.fs, delta=cohort.delta, seed=seed)


def _shows_every_chamber(spec) -> bool:
    from wavescat.model import Phase, segment_by_chamber
    from wavescat.synth import generate_session
    seen = {}
    for rat_id, group in spec.rats():
        session = generate_session(spec, rat_id, group, Phase.POST)
        seen.setdefault(group, set()).update(
            s.chamber for s in segment_by_chamber(session, WINDOW_S, HOP_S))
    return all(len(chambers) == 3 for chambers in seen.values())


def cohort_seed(workload: Workload, cohort: Cohort, seed: int) -> int:
    """The synth seed for a benchmark seed.

    ``chambers`` refuses a group whose post sessions miss a chamber
    (exit 3), and with one rat per group most seeds miss one, because
    the synthetic animal dwells about 20 s per chamber. Chamber
    workloads therefore take the first of seed*1000, seed*1000+1, ...
    whose cohort lets every group visit all three chambers.
    """
    if workload.argv[0] != "chambers":
        return seed
    for candidate in range(seed * 1000, seed * 1000 + 1000):
        if _shows_every_chamber(synth_spec(cohort, candidate)):
            return candidate
    raise RuntimeError(f"no cohort near seed {seed} visits every chamber")


def segment_count(cohort_dir) -> int:
    """Joint's expected row total, counted apart from the CLI."""
    from wavescat.model import load_session, segment_by_chamber
    total = 0
    for name in sorted(os.listdir(cohort_dir)):
        session = load_session(os.path.join(cohort_dir, name))
        total += len(segment_by_chamber(session, WINDOW_S, HOP_S))
    return total


def digests(out_dir) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def _data_lines(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


def check_joint(out_dir, expected_rows: int):
    lines = _data_lines(os.path.join(out_dir, "joint_confusion.csv"))
    header = lines[0].split(",")
    classes = header[1:-2]
    if len(classes) != 12 or len(lines) != 14:
        return None, [f"confusion has {len(classes)} classes, "
                      f"{len(lines)} lines"]
    total = sum(int(c) for ln in lines[1:13]
                for c in ln.split(",")[1:13])
    footer = lines[13].split(",")
    if footer[2] != "macro_accuracy":
        return None, ["confusion footer lacks macro_accuracy"]
    macro = float(footer[3])
    errors = []
    if total != expected_rows:
        errors.append(f"confusion sums to {total}, "
                      f"segment_by_chamber gives {expected_rows}")
    if not macro >= JOINT_MACRO_GATE:
        errors.append(f"macro accuracy {macro} below {JOINT_MACRO_GATE}")
    return macro, errors


def check_chambers(out_dir, sources):
    lines = _data_lines(os.path.join(out_dir, "chambers_accuracy.csv"))
    if lines[0].split(",") != ["source", *GROUPS]:
        return None, [f"accuracy header is {lines[0]!r}"]
    if [ln.split(",")[0] for ln in lines[1:]] != list(sources):
        return None, [f"accuracy rows are {lines[1:]!r}"]
    cells = [float(c) for ln in lines[1:] for c in ln.split(",")[1:]]
    errors = [f"accuracy cell {c} outside [0, 100]" for c in cells
              if not (math.isfinite(c) and 0.0 <= c <= 100.0)]
    if len(cells) != len(sources) * len(GROUPS):
        errors.append(f"accuracy table has {len(cells)} cells")
    for source in sources:
        for group in GROUPS:
            name = f"confusion_{source}_{group}.csv"
            if not os.path.exists(os.path.join(out_dir, name)):
                errors.append(f"{name} missing")
    return (sum(cells) / len(cells) if cells else None), errors


def _matrix_shape(path):
    """(rows, columns) of a report CSV: header row = time axis."""
    with open(path) as fh:
        fh.readline()                       # config line
        width = fh.readline().count(",")
        rows = 0
        for line in fh:
            rows += 1
            if line.count(",") != width:
                return rows, -1
    return rows, width


def _pgm_shape(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        end = blob.index(b"\n", pos)
        line = blob[pos:end]
        pos = end + 1
        if not line.startswith(b"#"):
            fields += line.split()
    if fields[0] != b"P5" or fields[3] != b"255":
        return None
    width, height = int(fields[1]), int(fields[2])
    if len(blob) - pos != width * height:
        return None
    return height, width


def _lag_row(path, n_samples):
    """The time axis and the matrix row nearest LAG_FREQ_HZ."""
    with open(path) as fh:
        fh.readline()
        times = [float(v) for v in fh.readline().split(",")[1:]]
        best = None
        for line in fh:
            freq = float(line[:line.index(",")])
            if best is None or abs(freq - LAG_FREQ_HZ) < abs(best[0]
                                                             - LAG_FREQ_HZ):
                best = (freq, line)
    values = [float(v) for v in best[1].split(",")[1:]]
    return times, values if len(values) == n_samples else None


def check_report(out_dir, cohort: Cohort, stem="rat3_post"):
    n = int(round(cohort.session_len * cohort.fs))
    errors = []
    for base in (f"{stem}_hip_scalogram", f"{stem}_nac_scalogram",
                 f"{stem}_wcoh", f"{stem}_wcoh_phase"):
        path = os.path.join(out_dir, base + ".csv")
        if not os.path.exists(path):
            errors.append(f"{base}.csv missing")
        elif _matrix_shape(path) != (N_SCALES, n):
            errors.append(f"{base}.csv is {_matrix_shape(path)}, "
                          f"expected {(N_SCALES, n)}")
    for base in (f"{stem}_hip_scalogram", f"{stem}_nac_scalogram",
                 f"{stem}_wcoh"):
        path = os.path.join(out_dir, base + ".pgm")
        if not os.path.exists(path):
            errors.append(f"{base}.pgm missing")
        elif _pgm_shape(path) != (N_SCALES, n):
            errors.append(f"{base}.pgm is {_pgm_shape(path)}, "
                          f"expected {(N_SCALES, n)}")
    if not os.path.exists(os.path.join(out_dir, f"{stem}_wcoh_overlay.csv")):
        errors.append(f"{stem}_wcoh_overlay.csv missing")
    if errors:
        return None, errors
    times, coh = _lag_row(os.path.join(out_dir, f"{stem}_wcoh.csv"), n)
    _, phase = _lag_row(os.path.join(out_dir, f"{stem}_wcoh_phase.csv"), n)
    if coh is None or phase is None:
        return None, ["lag row has the wrong length"]
    hits = cells = 0
    for t, c, p in zip(times, coh, phase):
        if EDGE_S <= t <= times[-1] - EDGE_S and c > COHERENCE_THRESHOLD:
            cells += 1
            off = math.remainder(p - LAG_RAD, 2 * math.pi)
            hits += abs(off) <= LAG_TOL_RAD
    if cells == 0:
        return None, [f"no coherent cells near {LAG_FREQ_HZ} Hz"]
    return 100.0 * hits / cells, []


def check_outputs(workload: Workload, cohort: Cohort, out_dir,
                  expected_rows: int | None):
    """(accuracy_pct, errors) for one finished run's output directory."""
    try:
        if workload.name == "joint":
            return check_joint(out_dir, expected_rows)
        if workload.name == "report":
            return check_report(out_dir, cohort)
        source = workload.argv[workload.argv.index("--source") + 1]
        sources = ("hip", "nac", "wcoh") if source == "all" else (source,)
        return check_chambers(out_dir, sources)
    except (OSError, ValueError, IndexError) as exc:
        return None, [f"unreadable output: {exc!r}"]
