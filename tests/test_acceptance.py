"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; the end-to-end criterion drives the real CLI on full-scale
synthetic cohorts and takes several minutes.
"""

import hashlib
import itertools
import os
import time

import numpy as np
import pytest

from wavescat.classify import (ConfusionMatrix, Dataset, KFoldJob,
                               confusion_stats, loss_and_grad, predict_tree,
                               run_kfold, train_svm_ova, train_tree,
                               tree_complexity)
from wavescat.cli import main
from wavescat.coherence import SmoothingSpec, coherence_map
from wavescat.cwt import cwt
from wavescat.morse import MorseParams, build_filterbank, morse_hat, \
    peak_frequency
from wavescat.scattering import ScatteringParams, feature_matrix

from figdata import CLASS_NAMES, COUNTS, PRINTED_MACRO, PRINTED_TPR
from oracles import (direct_cwt, held_scalogram, layer_energies,
                     numeric_peak)

FS = 1000.0


def verdict(number, name, checks):
    failed = [key for key, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {number} [{name}]: {status}")
    assert not failed, f"criterion {number} failed: {failed}"


# ---------------------------------------------------------------------------
# 1. published confusion-chart arithmetic
# ---------------------------------------------------------------------------

def test_criterion_1_confusion_chart_arithmetic():
    start = time.time()
    stats = confusion_stats(ConfusionMatrix(COUNTS, CLASS_NAMES))
    checks = {
        "twelve_tprs_1e-6": bool(np.abs(stats["tpr"] - PRINTED_TPR).max()
                                 < 1e-6),
        "hip_post_food": abs(stats["tpr"][1] - 99.74576271) < 1e-6,
        "nac_post_morphine": abs(stats["tpr"][6] - 99.57501062) < 1e-6,
        "hip_post_morphine": abs(stats["tpr"][0] - 75.57544757) < 1e-6,
        "macro_1e-6": abs(stats["macro"] - PRINTED_MACRO) < 1e-6,
        "micro_79.82": abs(stats["micro"] - 79.82) < 0.01,
        "runtime_1s": time.time() - start < 1.0,
    }
    verdict(1, "confusion-chart arithmetic", checks)


# ---------------------------------------------------------------------------
# 2. Morse / CWT oracle suite
# ---------------------------------------------------------------------------

def test_criterion_2_morse_cwt_oracles():
    start = time.time()
    checks = {}

    worst_peak = 0.0
    for gamma in (1.5, 2.0, 3.0, 4.0):
        for tb in (3.0, 10.0, 27.0, 60.0, 120.0):
            params = MorseParams(gamma, tb)
            expected = (tb / gamma) ** (1.0 / gamma)
            found = numeric_peak(lambda w: morse_hat(w, params),
                                 expected / 8, expected * 8)
            worst_peak = max(worst_peak, abs(found - expected))
            assert peak_frequency(params) == pytest.approx(expected,
                                                           rel=1e-12)
    checks["peak_grid_1e-9"] = worst_peak < 1e-9

    worst_quad = 0.0
    rng = np.random.default_rng(2)
    for n in (256, 1024):
        bank = build_filterbank(n, FS, MorseParams(voices_per_octave=3,
                                                   fmin=4.0))
        x = rng.standard_normal(n)
        got = cwt(x, bank).coefficients
        ref = direct_cwt(x, bank.filters)
        for j in range(bank.n_scales):
            err = (np.linalg.norm(got[j] - ref[j])
                   / np.linalg.norm(ref[j]))
            worst_quad = max(worst_quad, err)
    checks["quadrature_1e-6"] = worst_quad < 1e-6

    bank = build_filterbank(512, FS, MorseParams(voices_per_octave=4,
                                                 fmin=4.0))
    x, y = rng.standard_normal(512), rng.standard_normal(512)
    lin_lhs = cwt(2.5 * x - 0.7 * y, bank).coefficients
    lin_rhs = 2.5 * cwt(x, bank).coefficients - 0.7 * cwt(y, bank).coefficients
    checks["linearity_1e-10"] = bool(
        np.linalg.norm(lin_lhs - lin_rhs) / np.linalg.norm(lin_rhs) < 1e-10)
    shifted = cwt(np.roll(x, 101), bank).coefficients
    rolled = np.roll(cwt(x, bank).coefficients, 101, axis=1)
    checks["shift_1e-10"] = bool(
        np.linalg.norm(shifted - rolled) / np.linalg.norm(rolled) < 1e-10)
    checks["runtime_30s"] = time.time() - start < 30.0
    verdict(2, "Morse/CWT oracles", checks)


# ---------------------------------------------------------------------------
# 3. coherence properties
# ---------------------------------------------------------------------------

def random_scalogram(rng, shape=(8, 64)):
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale_axis = 100.0 * 2.0 ** (-np.arange(shape[0]) / 4.0)
    return held_scalogram(coeff, scale_axis, FS)


def test_criterion_3_coherence_properties():
    start = time.time()
    checks = {}

    n = 1024
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=6, fmin=4.0))
    rng = np.random.default_rng(3)
    cx = cwt(rng.standard_normal(n), bank)
    cmap = coherence_map(cx, cx, SmoothingSpec())
    defined = cmap.coherence > 0
    checks["self_coherence_1e-9"] = bool(
        np.abs(cmap.coherence[defined] - 1.0).max() < 1e-9)

    lo, hi = np.inf, -np.inf
    for seed in range(1000):
        r = np.random.default_rng(seed)
        a, b = random_scalogram(r), random_scalogram(r)
        m = coherence_map(a, b, SmoothingSpec(c_t=0.7, c_s=0.75)).coherence
        lo, hi = min(lo, float(m.min())), max(hi, float(m.max()))
    checks["bounds_1000_fuzz"] = lo >= 0.0 and hi <= 1.0 + 1e-12

    big = build_filterbank(4096, FS, MorseParams())
    t = np.arange(4096) / FS
    clean = np.cos(2 * np.pi * 8.0 * t)
    delay = int(round(FS / 32.0))
    ok_phase = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = clean + 0.05 * r.standard_normal(4096)
        y = np.roll(clean, delay) + 0.05 * r.standard_normal(4096)
        cm = coherence_map(cwt(x, big), cwt(y, big), SmoothingSpec())
        j = int(np.argmin(np.abs(cm.scale_axis - 8.0)))
        phases = cm.phase[j, 1000:3000]
        mean_phase = np.arctan2(np.sin(phases).mean(),
                                np.cos(phases).mean())
        ok_phase &= abs(mean_phase - np.pi / 2) < 0.1
    checks["quarter_cycle_20_seeds"] = ok_phase

    means = []
    spec = SmoothingSpec(c_t=1.1, c_s=0.83)
    small = build_filterbank(1024, FS, MorseParams(voices_per_octave=6,
                                                   fmin=4.0))
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        ca = cwt(r.standard_normal(1024), small)
        cb = cwt(r.standard_normal(1024), small)
        cm = coherence_map(ca, cb, spec)
        means.append(float(cm.coherence[cm.valid_mask()].mean()))
    checks["noise_mean_below_0.5"] = float(np.mean(means)) < 0.5
    checks["runtime_2min"] = time.time() - start < 120.0
    verdict(3, "coherence properties", checks)


# ---------------------------------------------------------------------------
# 4. scattering properties
# ---------------------------------------------------------------------------

def test_criterion_4_scattering_properties():
    start = time.time()
    params = ScatteringParams(fs=FS)
    checks = {}

    values = feature_matrix([2.25 * np.ones(1000)], params)[0][0]
    checks["constant_s0"] = abs(values[0] - 2.25) < 1e-9
    checks["constant_higher_orders"] = bool(
        np.all(values[1:] < 1e-6 * 2.25 + 1e-9))

    monotone = True
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(1000)
        e_in, e1, e2 = layer_energies(x, params)
        monotone &= e_in >= e1 >= e2
    checks["energy_monotone_100"] = monotone

    t = np.arange(1000) / FS
    stable = True
    for seed in range(10):
        r = np.random.default_rng(seed)
        freqs = r.uniform(5.0, 50.0, 8)
        x = sum(np.cos(2 * np.pi * f * t + r.uniform(0, 2 * np.pi))
                for f in freqs)
        base = feature_matrix([x], params)[0][0]
        for tau in (20, int(params.t * FS / 8)):
            moved = feature_matrix([np.roll(x, tau)], params)[0][0]
            rel = np.linalg.norm(moved - base) / np.linalg.norm(base)
            stable &= rel < 0.1
    checks["shift_stability"] = stable

    am = np.cos(2 * np.pi * 32.0 * t) * (1 + 0.5 * np.cos(2 * np.pi * 4.0 * t))
    matrix, paths, _ = feature_matrix([am], params)
    first = [(i, p[0]) for i, p in enumerate(paths) if len(p) == 1]
    carrier = max(first, key=lambda ip: matrix[0, ip[0]])[1]
    seconds = [(i, p) for i, p in enumerate(paths)
               if len(p) == 2 and p[0] == carrier]
    best = max(seconds, key=lambda ip: matrix[0, ip[0]])[1][1]
    grid = sorted({p[1] for _, p in seconds})
    checks["am_ridge_at_modulation"] = best == min(
        grid, key=lambda f: abs(f - 4.0))
    checks["runtime_2min"] = time.time() - start < 120.0
    verdict(4, "scattering properties", checks)


# ---------------------------------------------------------------------------
# 5. classifier oracles
# ---------------------------------------------------------------------------

def enumerate_dual_exact(x_aug, y_signed, c):
    n = x_aug.shape[0]
    q = (y_signed[:, None] * x_aug) @ (y_signed[:, None] * x_aug).T
    best_obj, best_alpha = -np.inf, None
    for config in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(config) if s == 1]
        at_c = [i for i, s in enumerate(config) if s == 2]
        alpha = np.zeros(n)
        alpha[at_c] = c
        if free:
            rhs = np.ones(len(free))
            if at_c:
                rhs = rhs - q[np.ix_(free, at_c)] @ np.full(len(at_c), c)
            try:
                sol = np.linalg.solve(q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol < -1e-9) or np.any(sol > c + 1e-9):
                continue
            alpha[free] = np.clip(sol, 0.0, c)
        obj = alpha.sum() - 0.5 * alpha @ q @ alpha
        if obj > best_obj:
            best_obj, best_alpha = obj, alpha.copy()
    return x_aug.T @ (best_alpha * y_signed)


def test_criterion_5_classifier_oracles():
    start = time.time()
    checks = {}

    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    weights = [rng.standard_normal((4, 5)) * 0.5,
               rng.standard_normal((5, 3)) * 0.5]
    biases = [rng.standard_normal(5) * 0.1, rng.standard_normal(3) * 0.1]
    _, grads_w, grads_b = loss_and_grad(weights, biases, x, y)
    eps, worst = 1e-5, 0.0
    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for layer, grad in zip(params, grads):
            it = np.nditer(layer, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = layer[idx]
                layer[idx] = orig + eps
                up = loss_and_grad(weights, biases, x, y)[0]
                layer[idx] = orig - eps
                down = loss_and_grad(weights, biases, x, y)[0]
                layer[idx] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - grad[idx])
                            / max(abs(fd), abs(grad[idx]), 1e-8))
    checks["mlp_gradient_1e-5"] = worst < 1e-5

    pts = np.array([[-1.0, 10.0], [0.0, 9.0], [1.0, 10.0],
                    [-1.0, 8.0], [0.0, 8.0], [1.0, 8.0]])
    labels = np.array([1, 1, 1, 0, 0, 0])
    model = train_svm_ova(Dataset(pts, labels, ["a", "b"]),
                          c=10.0, tol=1e-10, max_iter=50_000)
    mean, std = pts.mean(axis=0), pts.std(axis=0)
    x_aug = np.hstack([(pts - mean) / std, np.ones((6, 1))])
    w_oracle = enumerate_dual_exact(x_aug, np.where(labels == 1, 1.0, -1.0),
                                    10.0)
    w_ours = np.concatenate([model.weights[1], [model.biases[1]]])
    cosine = (w_oracle @ w_ours
              / (np.linalg.norm(w_oracle) * np.linalg.norm(w_ours)))
    checks["svm_direction_cosine_1e-3"] = 1.0 - cosine < 1e-3

    xor = Dataset(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                  np.array([0, 1, 1, 0]), ["a", "b"])
    tree = train_tree(xor, max_depth=4)
    checks["xor_depth_and_accuracy"] = (
        tree_complexity(tree)["depth"] >= 2
        and bool((predict_tree(tree, xor.features) == xor.labels).all()))

    blob_rng = np.random.default_rng(8)
    features = np.vstack([8.0 * np.eye(3)[i] + blob_rng.standard_normal((30, 3))
                          for i in range(3)])
    blobs = Dataset(features, np.repeat(np.arange(3), 30),
                    ["a", "b", "c"])
    conserved = True
    for k in (2, 5, 10, 90):
        [result] = run_kfold([KFoldJob(blobs, lambda d, _: train_tree(d))],
                             k, seed=1)
        conserved &= result.matrix.total == 90
    checks["kfold_conservation"] = conserved
    checks["runtime_1min"] = time.time() - start < 60.0
    verdict(5, "classifier oracles", checks)


# ---------------------------------------------------------------------------
# 6. end-to-end synthetic
# ---------------------------------------------------------------------------

def read_confusion_stats_csv(path):
    lines = open(path).read().splitlines()
    footer = lines[-1].split(",")
    counts = np.array([[int(v) for v in line.split(",")[1:13]]
                       for line in lines[2:14]])
    return counts, float(footer[1]), float(footer[3])


def read_accuracy_table(path):
    lines = [l for l in open(path).read().splitlines()
             if not l.startswith("#")]
    groups = lines[0].split(",")[1:]
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        for group, value in zip(groups, cells[1:]):
            table[(cells[0], group)] = float(value)
    return table


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    specs = {"d08": "0.8", "d00": "0.0"}
    for name, delta in specs.items():
        out = base / name
        assert main(["synth", "--out", str(out), "--seed", "42",
                     "--delta", delta]) == 0
    out = base / "d10"
    assert main(["synth", "--out", str(out), "--seed", "42",
                 "--delta", "1.0", "--rats-saline", "1",
                 "--rats-morphine", "1"]) == 0
    return base


def test_criterion_6_end_to_end_synthetic(cohorts, tmp_path):
    start = time.time()
    checks = {}
    joint_args = ["--seed", "42", "--k", "10", "--max-iter", "200"]

    out = tmp_path / "joint08"
    assert main(["joint", "--data", str(cohorts / "d08"), "--out", str(out)]
                + joint_args) == 0
    counts, micro, macro = read_confusion_stats_csv(out / "joint_confusion.csv")
    n_total = counts.sum()
    checks["joint_macro_ge_90"] = macro >= 90.0

    chance = 100.0 / 12.0
    band = 300.0 * np.sqrt((1 / 12) * (11 / 12) / n_total)

    out = tmp_path / "joint00"
    assert main(["joint", "--data", str(cohorts / "d00"), "--out", str(out)]
                + joint_args) == 0
    _, micro0, _ = read_confusion_stats_csv(out / "joint_confusion.csv")
    checks["delta0_at_chance_3sigma"] = abs(micro0 - chance) <= band

    out = tmp_path / "shuffle"
    assert main(["joint", "--data", str(cohorts / "d08"), "--out", str(out),
                 "--shuffle-labels"] + joint_args) == 0
    _, micro_s, _ = read_confusion_stats_csv(out / "joint_confusion.csv")
    checks["label_shuffle_at_chance"] = abs(micro_s - chance) <= band

    acc = {}
    for source in ("hip", "nac"):
        out = tmp_path / f"chambers_{source}"
        assert main(["chambers", "--data", str(cohorts / "d08"),
                     "--out", str(out), "--seed", "42", "--model", "dt",
                     "--source", source]) == 0
        acc.update(read_accuracy_table(out / "chambers_accuracy.csv"))
    checks["food_hip_ge_nac"] = acc[("hip", "food")] >= acc[("nac", "food")]
    checks["morphine_nac_ge_hip"] = (acc[("nac", "morphine")]
                                     >= acc[("hip", "morphine")])

    out = tmp_path / "chambers_d1"
    assert main(["chambers", "--data", str(cohorts / "d10"),
                 "--out", str(out), "--seed", "42", "--model", "dt",
                 "--source", "hip", "--group", "food"]) == 0
    table = read_accuracy_table(out / "chambers_accuracy.csv")
    checks["delta1_food_hip_ge_95"] = table[("hip", "food")] >= 95.0

    out = tmp_path / "chambers_d0"
    assert main(["chambers", "--data", str(cohorts / "d00"),
                 "--out", str(out), "--seed", "42", "--model", "dt",
                 "--source", "hip", "--group", "food", "--hop", "1.0"]) == 0
    table = read_accuracy_table(out / "chambers_accuracy.csv")
    lines = open(out / "confusion_hip_food.csv").read().splitlines()
    n_ch = sum(int(v) for line in lines[2:5] for v in line.split(",")[1:4])
    band3 = 300.0 * np.sqrt((1 / 3) * (2 / 3) / n_ch)
    checks["delta0_chambers_at_chance"] = (
        abs(table[("hip", "food")] - 100.0 / 3.0) <= band3)

    checks["runtime_10min"] = time.time() - start < 600.0
    verdict(6, "end-to-end synthetic", checks)


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------

def _tree_digest(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            digest.update(name.encode())
            digest.update(open(os.path.join(base, name), "rb").read())
    return digest.hexdigest()


def test_criterion_7_byte_identical_reruns(tmp_path):
    start = time.time()
    checks = {}
    data = tmp_path / "data"
    synth_args = ["synth", "--seed", "6", "--delta", "0.9",
                  "--session-len", "20", "--rats-saline", "1",
                  "--rats-morphine", "1", "--rats-food", "1"]
    assert main(synth_args + ["--out", str(data)]) == 0
    rerun = tmp_path / "data2"
    assert main(synth_args + ["--out", str(rerun)]) == 0
    checks["synth"] = _tree_digest(data) == _tree_digest(rerun)

    commands = {
        "features": ["features", "scatter", "--data", str(data),
                     "--hop", "1.0"],
        "chambers": ["chambers", "--data", str(data), "--seed", "3",
                     "--k", "3", "--model", "dt", "--source", "hip",
                     "--group", "food", "--hop", "1.0", "--phase", "both"],
        "joint": ["joint", "--data", str(data), "--seed", "7", "--k", "3",
                  "--hop", "1.0", "--max-iter", "50"],
        "report": ["report", "--data", str(data), "--rat", "rat3"],
    }
    for name, args in commands.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        checks[name] = _tree_digest(a) == _tree_digest(b)
    checks["runtime"] = time.time() - start < 300.0
    verdict(7, "byte-identical re-runs", checks)
