"""Independent numeric oracles shared by the unit and acceptance tests.

Nothing here reuses the library's transform paths: peaks come from a
bracketing search plus parabolic refinement, the reference CWT is a
direct O(N^2) DFT evaluation, smoothing is a literal double loop and
the CART split scan sorts and scores one feature column at a time and
the phase overlay tests one grid cell at a time. The window reductions
are the exception: they run the library's CWT and coherence, then test
each hop-grid start and reduce each window on its own, one Python
iteration per window.
"""

import numpy as np

from wavescat.coherence import coherence
from wavescat.cwt import cwt, scalogram_magnitude
from wavescat.errors import DataError
from wavescat.model import Chamber


def _parabolic_vertex(fn, w0, h):
    values = fn(w0 - h), fn(w0), fn(w0 + h)
    if min(values) <= 0.0:
        return w0
    lm, l0, lp = (np.log(v) for v in values)
    denom = lm - 2.0 * l0 + lp
    if denom >= 0.0:
        return w0
    return w0 + 0.5 * h * (lm - lp) / denom


def numeric_peak(fn, lo, hi):
    """Argmax of a smooth positive unimodal function to ~1e-10 absolute.

    A dense geometric pre-scan brackets the peak (very narrow peaks
    underflow to zero over most of a wide interval, which strands plain
    golden section), golden section tightens the bracket, and two
    parabolic fits of log fn at spacings h and 2h are Richardson-combined
    to cancel the h^2 vertex bias.
    """
    grid = np.geomspace(lo, hi, 4096)
    coarse = int(np.argmax([fn(g) for g in grid]))
    a = grid[max(0, coarse - 2)]
    b = grid[min(grid.size - 1, coarse + 2)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    while b - a > 1e-6:
        if fn(c) > fn(d):
            b = d
        else:
            a = c
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
    w0 = 0.5 * (a + b)
    h = 1e-4 * max(1.0, w0)
    v1 = _parabolic_vertex(fn, w0, h)
    v2 = _parabolic_vertex(fn, w0, 2.0 * h)
    return (4.0 * v1 - v2) / 3.0


def direct_dft_wavelets(filters):
    """Time-domain wavelets via an explicit inverse-DFT matrix product."""
    n = filters.shape[1]
    k = np.arange(n)
    basis = np.exp(2j * np.pi * np.outer(k, k) / n)
    return (filters @ basis.T) / n


def direct_cwt(x, filters):
    """O(N^2) circular correlation with the conjugate wavelets."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    psi = direct_dft_wavelets(filters)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n  # (m, t)
    out = np.empty((filters.shape[0], n), dtype=np.complex128)
    for j in range(filters.shape[0]):
        out[j] = x @ np.conj(psi[j][idx])
    return out


def brute_force_smooth(mat, time_widths, scale_width):
    """Literal double-loop boxcar smoothing: periodic along time, then a
    truncated renormalized boxcar across scales."""
    m, n = mat.shape
    stage1 = np.zeros_like(mat)
    for j in range(m):
        w = int(time_widths[j])
        lo = (w - 1) // 2
        for t in range(n):
            acc = mat[j, 0] * 0
            for off in range(-lo, w - lo):
                acc += mat[j, (t + off) % n]
            stage1[j, t] = acc / w
    out = np.zeros_like(mat)
    w = int(scale_width)
    lo = (w - 1) // 2
    hi = w // 2
    for j in range(m):
        a, b = max(0, j - lo), min(m, j + hi + 1)
        for t in range(n):
            acc = mat[0, 0] * 0
            for kk in range(a, b):
                acc += stage1[kk, t]
            out[j, t] = acc / (b - a)
    return out


def phase_overlay_by_cell(cmap, threshold):
    """Overlay records from a loop over every 16th-of-the-scales row and
    every 64th-of-the-times column."""
    n_s, n_t = cmap.coherence.shape
    records = []
    for j in range(0, n_s, max(1, n_s // 16)):
        for t in range(0, n_t, max(1, n_t // 64)):
            if cmap.coherence[j, t] > threshold and np.isfinite(cmap.phase[j, t]):
                records.append((float(cmap.time_axis[t]),
                                float(cmap.scale_axis[j]),
                                float(cmap.phase[j, t])))
    return records


def _split_sorted_column(values_sorted, classes_sorted, n_classes, min_leaf):
    """Best Gini split of one pre-sorted column: (gain, threshold, ok)."""
    n = values_sorted.shape[0]
    change = np.nonzero(values_sorted[:-1] != values_sorted[1:])[0]
    change = change[(change + 1 >= min_leaf) & (n - change - 1 >= min_leaf)]
    if change.size == 0:
        return -1.0, 0.0, False
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), classes_sorted] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[change]
    total = cum[-1]
    right = total - left
    n_left = (change + 1).astype(np.float64)
    n_right = n - n_left
    gini_left = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
    parent = 1.0 - np.sum((total / n) ** 2)
    gains = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
    best = int(np.argmax(gains))
    i = change[best]
    thr = 0.5 * (values_sorted[i] + values_sorted[i + 1])
    return float(gains[best]), float(thr), True


def split_scan_by_column(x, y, n_classes, min_leaf=1):
    """The CART split scan one column at a time: sort a column, score
    its midpoints, keep a strictly better gain. Same contract as
    ``_kernels.best_split_column``: (gain, threshold, feature), with
    (-1.0, 0.0, -1) when no column has a candidate."""
    best = (-1.0, 0.0, -1)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        gain, thr, ok = _split_sorted_column(x[order, f], y[order],
                                             n_classes, int(min_leaf))
        if ok and gain > best[0]:
            best = (gain, thr, f)
    return best


def chamber_windows_by_start(session, window_len, hop):
    """Window length in samples and the (start sample, chamber) of every
    chamber-constant window, testing one hop-grid start at a time."""
    if window_len <= 0 or hop <= 0:
        raise DataError("window_len and hop must be positive")
    if not session.track:
        raise DataError("track is empty")
    fs = session.fs
    win = int(round(window_len * fs))
    step = int(round(hop * fs))
    if win < 2:
        raise DataError("window shorter than two samples")
    if step < 1:
        raise DataError("hop shorter than one sample")
    n = session.hip.samples.size
    if win > n:
        raise DataError("window longer than the session")
    codes = session.chamber_per_sample()
    windows = []
    for start in range(0, n - win + 1, step):
        code = codes[start]
        if code >= 0 and not np.any(codes[start:start + win] != code):
            windows.append((start, Chamber(int(code))))
    return win, windows


def masked_window_stats(mag, valid, start, win):
    """Per-scale mean and variance over one window, COI cells preferred."""
    block = mag[:, start:start + win]
    mask = valid[:, start:start + win]
    counts = mask.sum(axis=1)
    sums = np.where(mask, block, 0.0).sum(axis=1)
    sq = np.where(mask, block ** 2, 0.0).sum(axis=1)
    mean_all = block.mean(axis=1)
    var_all = block.var(axis=1)
    ok = counts > 0
    mean = np.where(ok, sums / np.maximum(counts, 1), mean_all)
    var = np.where(ok, sq / np.maximum(counts, 1) - mean ** 2, var_all)
    return mean, np.maximum(var, 0.0)


def cwt_rows_by_window(session, channel, window_len, hop, bank):
    """One session's CWT feature rows, one window at a time, and the
    number of (scale, window) cells with no COI-reliable cell."""
    win, windows = chamber_windows_by_start(session, window_len, hop)
    scal = cwt(session.channel(channel), bank)
    mag = scalogram_magnitude(scal)
    valid = scal.valid_mask()
    rows, fallback = [], 0
    for start, chamber in windows:
        mean, var = masked_window_stats(mag, valid, start, win)
        rows.append(np.concatenate([mean, var]))
        fallback += int((valid[:, start:start + win].sum(axis=1) == 0).sum())
    return rows, fallback


def wcoh_rows_by_window(session, window_len, hop, bank, smoothing):
    """One session's coherence feature rows, one window at a time, and
    the number of (scale, window) cells with no COI-reliable cell."""
    win, windows = chamber_windows_by_start(session, window_len, hop)
    cmap = coherence(cwt(session.hip, bank), cwt(session.nac, bank),
                     smoothing)
    valid = cmap.valid_mask() & np.isfinite(cmap.phase)
    coh = cmap.coherence
    sin = np.where(valid, np.sin(cmap.phase), 0.0)
    cos = np.where(valid, np.cos(cmap.phase), 0.0)
    rows, fallback = [], 0
    for start, chamber in windows:
        sl = slice(start, start + win)
        mask = valid[:, sl]
        counts = mask.sum(axis=1)
        ok = counts > 0
        coh_mean = np.where(
            ok,
            np.where(mask, coh[:, sl], 0.0).sum(axis=1)
            / np.maximum(counts, 1),
            coh[:, sl].mean(axis=1))
        mean_sin = sin[:, sl].sum(axis=1)
        mean_cos = cos[:, sl].sum(axis=1)
        phase_mean = np.where(ok, np.arctan2(mean_sin, mean_cos), 0.0)
        rows.append(np.concatenate([coh_mean, phase_mean]))
        fallback += int((~ok).sum())
    return rows, fallback
