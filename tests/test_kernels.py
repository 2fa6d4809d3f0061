"""Contracts of the smoothing, split-scan and SVM kernels."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavescat import _kernels
from wavescat._kernels import (best_split_column, boxcar_scale, boxcar_time,
                               svm_dual_solve)

from oracles import (boxcar_scale_concatenated, brute_force_smooth,
                     split_scan_by_column, svm_dual_solve_two_pass)


def random_complex(seed, shape=(7, 48)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def scale_smoothed(mat, width, block):
    """``boxcar_scale`` fed ``block`` rows of ``mat`` at a time, its
    output blocks put back together, each checked to start where the
    last ended."""
    feed = ((mat[a:a + block],) for a in range(0, len(mat), block))
    parts, row = [], 0
    for start, (part,) in boxcar_scale(feed, len(mat), width):
        assert start == row
        parts.append(part)
        row += len(part)
    assert row == len(mat)
    return np.concatenate(parts)


def test_numpy_boxcars_match_brute_force():
    mat = random_complex(0)
    widths = [1, 2, 3, 5, 7, 9, 48]
    got = scale_smoothed(boxcar_time(mat, np.array(widths)), 3, 2)
    expected = brute_force_smooth(mat, widths, 3)
    assert np.abs(got - expected).max() < 1e-12


def test_boxcar_real_matrices_too():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((5, 32))
    got = boxcar_time(mat, np.array([2, 3, 4, 5, 6]))
    expected = brute_force_smooth(mat, [2, 3, 4, 5, 6], 1)
    assert np.abs(got - expected).max() < 1e-12


def test_time_boxcar_wider_than_the_row_wraps_periodically():
    n = 16
    widths = [n, 2 * n + 1, 2 * n + 2, 5 * n]
    for mat in (random_complex(1, (4, n)), random_complex(2, (4, n)).real):
        got = boxcar_time(mat, np.array(widths))
        expected = brute_force_smooth(mat, widths, 1)
        assert np.abs(got - expected).max() < 1e-12


def test_time_boxcar_memory_does_not_grow_with_the_width():
    n = 2000
    mat = random_complex(5, (2, n))
    tracemalloc.start()
    try:
        boxcar_time(mat, np.array([1000 * n, 1000 * n + n // 3]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few row copies; padding to the full width would take 1000
    assert peak < 20 * mat[0].nbytes


def test_scale_boxcar_equals_concatenating_kernel_bitwise():
    """Streamed in blocks narrower and wider than the boxcar, every row
    equals the whole-matrix concatenating kernel's bit for bit."""
    m = 7
    for mat in (random_complex(3, (m, 40)), random_complex(4, (m, 40)).real):
        for width in range(1, m + 3):
            expected = boxcar_scale_concatenated(mat, width)
            for block in (1, 2, 3, m):
                got = scale_smoothed(mat, width, block)
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes()


def test_scale_boxcar_keeps_a_ring_of_width_plus_one_rows():
    """Fed one row at a time, the kernel holds its width + 1 cumulative
    rows, at most the width // 2 + 1 rows it finishes at the last input
    row, and a few row temporaries, however many of the 400 rows have
    passed through."""
    rng = np.random.default_rng(6)
    row = rng.standard_normal(4000)
    for width in (3, 9):
        tracemalloc.start()
        try:
            for _ in boxcar_scale(((row[None, :],) for _ in range(400)),
                                  400, width):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (width + 1 + width // 2 + 1 + 4) * row.nbytes


def test_split_respects_min_leaf():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    classes = np.array([0, 0, 0, 1, 1, 1])
    order = np.arange(6)[:, None]          # x is sorted already
    gain, thr, f = best_split_column(x, classes, 2, 1, order)
    assert f == 0 and thr == pytest.approx(2.5)
    gain, thr, f = best_split_column(x, classes, 2, 3, order)
    assert f == 0 and thr == pytest.approx(2.5)
    assert best_split_column(x, classes, 2, 4, order) == (-1.0, 0.0, -1)


@st.composite
def split_nodes(draw):
    """A node with heavily tied values, duplicated and constant columns."""
    n = draw(st.integers(2, 40))
    n_classes = draw(st.integers(2, 4))
    n_cols = draw(st.integers(1, 5))
    levels = draw(st.integers(1, 4))
    cells = st.integers(0, levels - 1)
    columns = [np.array(draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.float64) for _ in range(n_cols)]
    for _ in range(draw(st.integers(0, 2))):
        columns.append(columns[draw(st.integers(0, n_cols - 1))].copy())
    if draw(st.booleans()):
        columns.append(np.full(n, float(draw(cells))))
    order = draw(st.permutations(range(len(columns))))
    x = np.column_stack([columns[i] for i in order])
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n, max_size=n)), dtype=np.int64)
    return x, y, n_classes, draw(st.integers(1, 4)), draw(st.integers(1, 3))


@given(split_nodes())
@settings(max_examples=300, deadline=None)
def test_node_split_scan_equals_per_column_oracle(node):
    x, y, n_classes, min_leaf, block_width = node
    order = np.argsort(x, axis=0, kind="stable")
    got = best_split_column(x, y, n_classes, min_leaf, order)
    expected = split_scan_by_column(x, y, n_classes, min_leaf)
    assert got == expected
    assert type(got[2]) is int
    # a budget of block_width columns scans wider nodes in several blocks
    budget = 16 * x.shape[0] * n_classes * block_width
    with patch.object(_kernels, "SPLIT_SCAN_BYTES", budget):
        assert best_split_column(x, y, n_classes, min_leaf,
                                 order) == expected


def test_pg_solver_standalone_contract():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 3))
    y = np.where(x[:, 1] > 0, 1.0, -1.0)
    aug = np.hstack([x, np.ones((60, 1))])
    W, A, gaps, epochs = svm_dual_solve(aug, y[None], np.full(60, 1.0)[None],
                                        1e-8, 100_000)
    w, alpha, gap = W[0], A[0], gaps[0]
    assert gap <= 1e-8
    assert np.all(alpha >= 0) and np.all(alpha <= 1.0 + 1e-12)
    margins = y * (aug @ w)
    assert (margins > 0).mean() > 0.95


@st.composite
def svm_problems(draw):
    """Augmented features, +-1 labels, per-sample C and a stopping rule;
    loose tolerances stop after a few epochs, tight ones at the limit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(0, 5))
    x = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if draw(st.booleans()):
        x = np.round(x)                    # ties, zero rows, constant columns
    aug = np.hstack([x, np.ones((n, 1))])
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    c_i = np.full(n, draw(st.sampled_from([0.01, 1.0, 20.0])))
    tol = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.3, 0.9]))
    return aug, y, c_i, tol, draw(st.sampled_from([1, 2, 7, 60, 400]))


@given(svm_problems())
@settings(max_examples=200, deadline=None)
def test_pg_solver_equals_two_pass_oracle(problem):
    aug, y, c_i, tol, max_epochs = problem
    W, A, gaps, epochs = svm_dual_solve(aug, y[None], c_i[None], tol,
                                        max_epochs)
    got = W[0], A[0], float(gaps[0]), epochs
    expected = svm_dual_solve_two_pass(*problem)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert got[2:] == expected[2:]


@st.composite
def lockstep_problems(draw):
    """One augmented feature matrix shared by 2..12 machines, each with
    its own labels and per-sample C."""
    aug, _, _, tol, max_epochs = draw(svm_problems())
    n = aug.shape[0]
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
    C = rng.choice([0.01, 1.0, 20.0], size=(m, 1)) * np.where(
        Y > 0, 1.0, rng.choice([0.5, 1.0, 3.0], size=(m, 1)))
    return aug, Y, C, tol, max_epochs


@given(lockstep_problems())
@settings(max_examples=200, deadline=None)
def test_lockstep_rows_equal_two_pass_oracle(problem):
    """Each machine of a lockstep solve matches that machine solved alone;
    only the rounding of GEMM against GEMV may differ."""
    aug, Y, C, tol, max_epochs = problem
    expected = [svm_dual_solve_two_pass(aug, y, c, tol, max_epochs)
                for y, c in zip(Y, C)]
    # a gap this close to tol may cross it under different rounding
    assume(all(abs(e[2] - tol) > 1e-9 for e in expected))
    W, A, gaps, epochs = svm_dual_solve(aug, Y, C, tol, max_epochs)
    for w, alpha, (w_1, alpha_1, _, _) in zip(W, A, expected):
        assert np.abs(w - w_1).max() <= 1e-12 * max(1.0, np.abs(w_1).max())
        assert (np.abs(alpha - alpha_1).max()
                <= 1e-12 * max(1.0, np.abs(alpha_1).max()))
    assert epochs == sum(e[3] for e in expected)
    assert np.array_equal(gaps <= tol, [e[2] <= tol for e in expected])


def test_lockstep_machine_freezes_where_it_stops():
    """A machine that meets tol at epoch k keeps, bit for bit, the row a
    solve limited to k epochs gives it, while the other runs on."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 3))
    aug = np.hstack([x, np.ones((50, 1))])
    easy = np.where(x[:, 0] > 0, 1.0, -1.0)
    noisy = np.where(rng.random(50) < 0.5, -1.0, 1.0)
    Y = np.stack([easy, noisy])
    C = np.repeat([[0.1], [10.0]], 50, axis=1)
    tol, limit = 0.05, 400
    W, A, gaps, epochs = svm_dual_solve(aug, Y, C, tol, limit)
    assert gaps[0] <= tol < gaps[1]
    k = epochs - limit                    # the stopped machine's epochs
    assert 1 <= k < limit
    W_k, A_k, gaps_k, epochs_k = svm_dual_solve(aug, Y, C, tol, k)
    assert epochs_k == 2 * k
    assert np.array_equal(W[0], W_k[0])
    assert np.array_equal(A[0], A_k[0])
    assert gaps[0] == gaps_k[0]
