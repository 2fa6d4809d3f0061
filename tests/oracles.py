"""Independent numeric oracles shared by the unit and acceptance tests.

Nothing here reuses the library's transform paths: peaks come from a
bracketing search plus parabolic refinement, the reference CWT is a
direct O(N^2) DFT evaluation, smoothing is a literal double loop (the
scale boxcar also has the former kernel, which concatenates a zero row
to a separate cumulative sum), the CART split scan sorts and scores one
feature column at a time, a tree is descended one row at a time, the
phase overlay tests one grid cell at a time, a bundle's track records
are checked and a track held one record at a time, whole groups are
dealt into folds by a name-to-fold map, stratified folds are dealt one
item at a time, e-folding times are scanned one voice at a time, the
SVM solver computes ``X @ w`` twice per epoch and the sigmoid splits
its input by boolean masks. Three references are exceptions. The window
reductions run the library's CWT and coherence, then test each hop-grid
start and reduce each window on its own, one Python iteration per
window. The scattering reference builds the library's filter banks,
then transforms every layer at the full segment length. The layer
energies read the scattering engine's own plan (its grids and cropped
filters) and redo its layer transforms to sum each trajectory's energy.
"""

import numpy as np

from wavescat.coherence import coherence
from wavescat.cwt import cwt
from wavescat.errors import BundleFormatError, DataError
from wavescat.model import Chamber
from wavescat.morse import MorseParams, build_filterbank
from wavescat.scattering import ScatteringParams, _engine, _tb_for_q


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


def boxcar_scale_concatenated(mat, width):
    """Truncated moving average across rows, edge-renormalized."""
    w = int(width)
    if w <= 1:
        return mat.copy()
    m = mat.shape[0]
    lo = (w - 1) // 2
    hi = w // 2
    csum = np.concatenate([np.zeros((1,) + mat.shape[1:], mat.dtype),
                           np.cumsum(mat, axis=0)])
    out = np.empty_like(mat)
    for j in range(m):
        a = max(0, j - lo)
        b = min(m, j + hi + 1)
        out[j] = (csum[b] - csum[a]) / (b - a)
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


def split_scan_by_column(x, y, n_classes, min_leaf=1, order=None):
    """The CART split scan one column at a time: sort a column, score
    its midpoints, keep a strictly better gain. Same contract as
    ``_kernels.best_split_column``: (gain, threshold, feature), with
    (-1.0, 0.0, -1) when no column has a candidate. It sorts every
    column itself, so a carried ``order`` is ignored."""
    best = (-1.0, 0.0, -1)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        gain, thr, ok = _split_sorted_column(x[order, f], y[order],
                                             n_classes, int(min_leaf))
        if ok and gain > best[0]:
            best = (gain, thr, f)
    return best


def predict_tree_by_row(model, features):
    """Class ids of a ``DecisionTreeModel``, one row at a time: from the
    root, go left while the value is below the threshold (so NaN goes
    right) until a node with feature -1."""
    out = np.empty(len(features), dtype=np.int64)
    for i, row in enumerate(features):
        node = 0
        while model.feature[node] >= 0:
            below = row[model.feature[node]] < model.threshold[node]
            node = model.left[node] if below else model.right[node]
        out[i] = model.class_id[node]
    return out


def chamber_windows_by_start(session, window_len, hop):
    """Window length in samples and the (start sample, chamber) of every
    chamber-constant window, testing one hop-grid start at a time."""
    if window_len <= 0 or hop <= 0:
        raise DataError("window_len and hop must be positive")
    if len(session.track) == 0:
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
    mag = np.abs(scal.coefficients)
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


def track_by_record(rec, offset):
    """A bundle's track records checked one at a time: the (t, code)
    pairs, or the error of the first bad record. ``offset`` is the byte
    offset of record 0 in the file."""
    track = []
    for i in range(len(rec)):
        code = int(rec["c"][i])
        if code not in (0, 1, 2):
            raise BundleFormatError(
                f"unknown chamber code {code}",
                offset=offset + 9 * i + 8)
        t = float(rec["t"][i])
        if track and t <= track[-1][0]:
            raise BundleFormatError(
                f"non-monotone track time {t}",
                offset=offset + 9 * i)
        track.append((t, code))
    return track


def chamber_codes_by_fix(track, fs, n):
    """Zero-order-hold chamber code per sample, one fix at a time; -1
    before the first fix."""
    codes = np.full(n, -1, dtype=np.int8)
    times = np.array([t for t, _ in track])
    starts = np.minimum(np.ceil(times * fs).astype(np.int64), n)
    for i, (_, code) in enumerate(track):
        end = starts[i + 1] if i + 1 < len(track) else n
        codes[starts[i]:end] = code
    return codes


def deal_groups_by_name(groups, k, seed):
    """Deal whole groups (e.g. rats) into k folds after a seeded shuffle."""
    names = sorted(set(groups))
    if k > len(names):
        raise DataError(f"k={k} exceeds the number of groups ({len(names)})")
    order = np.array(names, dtype=object)
    np.random.default_rng(seed).shuffle(order)
    assignment = {g: i % k for i, g in enumerate(order)}
    folds = [[] for _ in range(k)]
    for i, g in enumerate(groups):
        folds[assignment[g]].append(i)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


class FullGridEngine:
    """Precomputed banks and low-pass for one (params, length) pair.

    Transforms run at the exact segment length (periodic boundary, the
    same convention as the CWT engine); a constant segment therefore
    stays a pure DC line, which every analytic wavelet maps to zero.
    """

    def __init__(self, params: ScatteringParams, n_sig: int):
        if n_sig < params.t * params.fs:
            raise DataError("segment shorter than the invariance scale T")
        self.params = params
        self.n_sig = n_sig
        self.n = n_sig
        fs = params.fs
        self.bank1 = build_filterbank(
            self.n, fs, MorseParams(params.gamma, _tb_for_q(params.q1, params.gamma)),
            voices_per_octave=params.q1, fmin=params.band_min, fmax=params.fmax)
        self.bank2 = build_filterbank(
            self.n, fs, MorseParams(params.gamma, _tb_for_q(params.q2, params.gamma)),
            voices_per_octave=params.q2, fmin=params.band_min, fmax=params.fmax)
        self.f1 = self.bank1.center_frequencies
        self.f2 = self.bank2.center_frequencies
        self.filters1 = self._frame_normalized(self.bank1.filters)
        self.filters2 = self._frame_normalized(self.bank2.filters)
        # Gaussian low-pass, unit DC gain
        sigma_samples = params.t * fs / 2.0
        k = np.arange(self.n)
        omega = 2.0 * np.pi * np.minimum(k, self.n - k) / self.n
        self.phi_hat = np.exp(-0.5 * (omega * sigma_samples) ** 2)
        guard = min(int(round(params.t * fs / 2.0)), (n_sig - 1) // 2)
        self.valid = slice(guard, n_sig - guard)
        # Averaging a smoothed trajectory over the valid window is one
        # fixed weighted sum: w[tau] = mean over valid t of phi[t - tau].
        indicator = np.zeros(self.n)
        indicator[self.valid] = 1.0
        self.avg_weights = (np.fft.ifft(np.fft.fft(indicator)
                                        * self.phi_hat).real
                            / indicator.sum())
        # second-order path table: (index into f1, index into f2)
        self.pairs = [(i, j)
                      for i in range(self.f1.size)
                      for j in range(self.f2.size)
                      if self.f2[j] < self.f1[i]]
        self.pair_i = np.array([i for i, _ in self.pairs], dtype=np.int64)
        self.pair_j = np.array([j for _, j in self.pairs], dtype=np.int64)
        self.paths: list[tuple] = [()]
        self.paths += [(float(f),) for f in self.f1]
        self.paths += [(float(self.f1[i]), float(self.f2[j]))
                       for i, j in self.pairs]

    @staticmethod
    def _frame_normalized(filters: np.ndarray) -> np.ndarray:
        frame = np.sum(filters ** 2, axis=0)
        bound = float(frame.max())
        return filters / np.sqrt(bound) if bound > 1.0 else filters.copy()

    def transform(self, x: np.ndarray, with_energies: bool = False):
        n = self.n
        spectrum = np.fft.fft(x)
        w = self.avg_weights

        s0 = float(x @ w)
        u1 = np.abs(np.fft.ifft(spectrum[None, :] * self.filters1, axis=1))
        s1 = u1 @ w
        if self.pairs:
            u1_hat = np.fft.fft(u1, axis=1)
            u2 = np.abs(np.fft.ifft(u1_hat[self.pair_i]
                                    * self.filters2[self.pair_j], axis=1))
            s2 = u2 @ w
        else:
            u2 = np.zeros((0, n))
            s2 = np.zeros(0)

        values = np.maximum(np.concatenate([[s0], s1, s2]), 0.0)
        if not with_energies:
            return values
        energies = (float(np.sum(np.asarray(x, dtype=np.float64) ** 2)),
                    float(np.sum(u1 ** 2)),
                    float(np.sum(u2 ** 2)))
        return values, energies



def full_grid_scatter(x, params: ScatteringParams, with_energies=False):
    """Scattering values (and layer energies) at the full segment length."""
    x = np.asarray(x, dtype=np.float64)
    return FullGridEngine(params, x.size).transform(x, with_energies)


def layer_energies(x, params: ScatteringParams) -> tuple[float, float, float]:
    """(input, layer-1, layer-2) energies of the un-averaged trajectories
    on the engine's decimated grids. An M-point inverse FFT returns |z|
    scaled by n/M, so the energy of the n-sample trajectory is M/n times
    its sum of squares."""
    x = np.asarray(x, dtype=np.float64)
    eng = _engine(params, x.size)
    spectrum = np.fft.rfft(x)
    u1_hat = np.zeros((eng.f1.size, eng.u1_bins), dtype=complex)
    e1 = 0.0
    for rows, m, filt, keep, _ in eng.layer1:
        z = np.zeros((rows.size, m), dtype=complex)
        z[:, :filt.shape[1]] = spectrum[:filt.shape[1]] * filt
        u1 = np.abs(np.fft.ifft(z, axis=1))
        if keep:
            u1_hat[rows, :keep] = np.fft.rfft(u1, axis=1)[:, :keep]
        e1 += (m / eng.n) * float(np.sum(u1 ** 2))
    e2 = 0.0
    for rows, _, m, filt, _ in eng.layer2:
        z = np.zeros((rows.size, m), dtype=complex)
        z[:, :filt.size] = u1_hat[rows, :filt.size] * filt
        u2 = np.abs(np.fft.ifft(z, axis=1))
        e2 += (m / eng.n) * float(np.sum(u2 ** 2))
    return float(np.sum(x ** 2)), e1, e2


def efold_times_by_voice(bank):
    """E-folding times, each voice's envelope rolled to centre its peak
    and scanned outward on its own."""
    env = np.abs(np.fft.ifft(bank.filters, axis=1))
    times = np.empty(bank.n_scales)
    half = bank.n // 2
    for j in range(bank.n_scales):
        row = np.roll(env[j], half)
        peak = row[half]
        below = np.nonzero(row[half:] < peak / np.e)[0]
        times[j] = (below[0] if below.size else half) / bank.fs
    return times


def stratified_folds_by_item(keys, k, seed):
    """Stratified folds dealt one item at a time into growing lists."""
    keys = list(keys)
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    offset = 0
    for key in sorted(by_key, key=lambda x: str(x)):
        idx = np.array(by_key[key], dtype=np.int64)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[(offset + j) % k].append(int(i))
        offset = (offset + idx.size) % k
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def svm_gap_two_pass(X, y, c_i, alpha, w):
    margins = 1.0 - y * (X @ w)
    hinge = np.where(margins > 0.0, margins, 0.0)
    wsq = float(w @ w)
    primal = 0.5 * wsq + float(c_i @ hinge)
    dual = float(alpha.sum()) - 0.5 * wsq
    return (primal - dual) / (1.0 + abs(primal))


def svm_dual_solve_two_pass(X, y, c_i, tol, max_epochs):
    """Projected-gradient SVM dual that recomputes X @ w for the gap and
    again for the next epoch's gradient; returns (w, alpha, gap, epochs)."""
    alpha = np.zeros(X.shape[0])
    w = np.zeros(X.shape[1])
    v = np.ones(X.shape[0])
    for _ in range(30):
        v = X @ (X.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v /= nv
    lip = float(np.linalg.norm(X @ (X.T @ v))) or 1.0
    step = 1.0 / lip
    epochs = 0
    gap = np.inf
    for _ in range(int(max_epochs)):
        epochs += 1
        grad = 1.0 - y * (X @ w)
        alpha = np.clip(alpha + step * grad, 0.0, c_i)
        w = X.T @ (alpha * y)
        gap = svm_gap_two_pass(X, y, c_i, alpha, w)
        if gap <= tol:
            break
    return w, alpha, float(gap), int(epochs)


def sigmoid_masked(z):
    """Logistic sigmoid evaluated separately on the z >= 0 and z < 0
    entries, selected by boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
