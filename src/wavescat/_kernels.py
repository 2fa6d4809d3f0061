"""Hot numeric kernels: coherence smoothing, the CART split scan and the
linear SVM dual solver, each one vectorized numpy implementation."""

import numpy as np


def _periodic_sums(row, lo, w):
    """Sum of the w periodic samples from t - lo, for every t; w <= n."""
    padded = np.pad(row, (lo, w - 1 - lo), mode="wrap")
    csum = np.cumsum(padded)
    return csum[w - 1:] - np.concatenate([[0], csum[:-w]])


def boxcar_time(mat, widths):
    """Per-row periodic moving average along axis 1. A width w above the
    row length n wraps around the row more than once: its window is
    q = w // n whole-row totals plus the r = w - q*n samples it starts
    with, so no row is padded by more than r."""
    widths = np.asarray(widths, dtype=np.int64)
    n = mat.shape[1]
    out = np.empty_like(mat)
    for j in range(mat.shape[0]):
        w = int(widths[j])
        lo = (w - 1) // 2
        if w <= 1:
            out[j] = mat[j]
        elif w <= n:
            out[j] = _periodic_sums(mat[j], lo, w) / w
        else:
            q, r = divmod(w, n)
            sums = q * mat[j].sum()
            if r:
                sums = sums + _periodic_sums(np.roll(mat[j], lo % n), 0, r)
            out[j] = sums / w
    return out


def boxcar_scale(blocks, n_rows, width):
    """Truncated moving average across rows, edge-renormalized, of
    matrices of ``n_rows`` rows that arrive a block of rows at a time.

    ``blocks`` yields, in row order, tuples of row blocks of equal row
    counts, one per matrix. Output row j is
    (csum[b] - csum[a]) / (b - a), with a = max(0, j - lo) and
    b = min(n_rows, j + hi + 1) for lo = (width - 1) // 2 and
    hi = width // 2, where csum[k] sums input rows 0..k-1 one row after
    another, as ``np.cumsum(axis=0)`` does, so every row equals the
    whole-matrix kernel's bit for bit. Only a ring of the last
    width + 1 cumulative rows per matrix is kept. Yields
    (first row, tuple of output blocks) as soon as rows are finished;
    if ``blocks`` stops early, the rows it leaves unfinished are not
    yielded.
    """
    w = int(width)
    if w <= 1:
        start = 0
        for block in blocks:
            yield start, block
            start += len(block[0])
        return
    lo, hi = (w - 1) // 2, w // 2
    size = min(w, n_rows) + 1
    rings = None
    seen = done = 0                 # rows summed; rows finished
    for block in blocks:
        if rings is None:
            rings = [np.zeros((size,) + mat.shape[1:], mat.dtype)
                     for mat in block]
        count = len(block[0])
        # row j is finished once csum[min(n_rows, j + hi + 1)] exists
        stop = (n_rows if seen + count == n_rows
                else max(done, seen + count - hi))
        outs = [np.empty((stop - done,) + ring.shape[1:], ring.dtype)
                for ring in rings]
        first = done
        for i in range(count):
            for ring, mat in zip(rings, block):
                if seen:
                    np.add(ring[seen % size], mat[i],
                           out=ring[(seen + 1) % size])
                else:
                    ring[1] = mat[i]
            seen += 1
            # each row as soon as it is finished, before the ring wraps
            while done < stop and (seen == n_rows or done + hi < seen):
                a, b = max(0, done - lo), min(n_rows, done + hi + 1)
                for out, ring in zip(outs, rings):
                    out[done - first] = ((ring[b % size] - ring[a % size])
                                         / (b - a))
                done += 1
        if stop > first:
            yield first, tuple(outs)


# bytes the split scan's two float64 (rows x columns x classes) class-count
# temporaries may take at once; wider nodes are scanned in column blocks
SPLIT_SCAN_BYTES = 8 << 20


def best_split_column(x, y, n_classes, min_leaf, order):
    """Best Gini split over every column of a node's feature matrix.

    Column j of ``order`` lists ``x``'s rows by ascending value of
    column j, ties by row, as ``np.argsort(x, axis=0, kind="stable")``
    does; ``train_tree`` sorts once per tree and carries the order down.
    Every midpoint between consecutive distinct sorted values that
    leaves at least ``min_leaf`` rows on each side is scored. Ties
    resolve to the lowest feature, then the lowest threshold. Returns
    (gain, threshold, feature), with (-1.0, 0.0, -1) when no column has
    a candidate. Columns are scored in blocks that keep the temporaries
    within ``SPLIT_SCAN_BYTES``.
    """
    min_leaf = int(min_leaf)
    n, n_features = x.shape
    best = (-1.0, 0.0, -1)                         # a Gini gain exceeds -1
    if n < 2 * min_leaf:
        return best
    width = max(1, SPLIT_SCAN_BYTES // (16 * n * n_classes))
    for lo in range(0, n_features, width):
        block = x[:, lo:lo + width]
        by_value = order[:, lo:lo + width]
        values = np.take_along_axis(block, by_value, axis=0)
        cum = np.cumsum(y[by_value][:, :, None] == np.arange(n_classes),
                        axis=0, dtype=np.float64)  # (n, columns, classes)
        total = cum[-1, 0]
        left = cum[:-1]                            # rows 0..i go left
        right = total - left
        n_left = np.arange(1, n, dtype=np.float64)[:, None]
        n_right = n - n_left
        left /= n_left[:, :, None]
        left **= 2
        right /= n_right[:, :, None]
        right **= 2
        gini_left = 1.0 - np.sum(left, axis=2)
        gini_right = 1.0 - np.sum(right, axis=2)
        del cum, left, right                       # freed before next block
        parent = 1.0 - np.sum((total / n) ** 2)
        gains = (parent - (n_left / n) * gini_left
                 - (n_right / n) * gini_right)
        candidate = ((values[:-1] != values[1:]) & (n_left >= min_leaf)
                     & (n_right >= min_leaf))
        gains[~candidate] = -np.inf
        rows = np.argmax(gains, axis=0)            # lowest threshold
        top = gains[rows, np.arange(block.shape[1])]
        f = int(np.argmax(top))                    # lowest feature
        if top[f] > best[0]:                       # ties keep earlier blocks
            i = rows[f]
            thr = 0.5 * (values[i, f] + values[i + 1, f])
            best = (float(top[f]), float(thr), lo + f)
    return best


def _svm_gaps(margins, C, A, W):
    """Each machine's relative duality gap; the per-row dot products are
    stacked matmuls, so one row reads exactly as its own 1-D dot."""
    hinge = np.where(margins > 0.0, margins, 0.0)
    wsq = np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0]
    primal = 0.5 * wsq + np.matmul(C[:, None, :], hinge[:, :, None])[:, 0, 0]
    dual = A.sum(axis=1) - 0.5 * wsq
    return (primal - dual) / (1.0 + np.abs(primal))


def svm_dual_solve(X, Y, C, tol, max_epochs):
    """Solve m soft-margin linear SVM duals on shared augmented features.

    ``X`` is (n, d) with the bias as its last, regularized column; ``Y``
    (+-1 labels) and ``C`` (per-sample penalties) are (m, n), one row
    per machine. Projected gradient on each box-constrained dual with
    one step of 1/L (L from a power iteration on ``X``, shared by every
    machine). The machines step in lockstep, so an epoch is one
    ``(A * Y) @ X`` and one ``W @ X.T`` over the still-active rows. A
    machine leaves the active set, its row frozen, once its relative
    duality gap is <= tol; the rest stop at the epoch limit. Returns
    (W (m, d), A (m, n), gaps (m,), epochs), with ``epochs`` the
    machines' summed epoch count.
    """
    m, n = Y.shape
    v = np.ones(n)
    for _ in range(30):
        v = X @ (X.T @ v)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        v /= nv
    lip = float(np.linalg.norm(X @ (X.T @ v))) or 1.0
    step = 1.0 / lip
    W = np.zeros((m, X.shape[1]))
    A = np.zeros((m, n))
    gaps = np.full(m, np.inf)
    epochs = 0
    rows = np.arange(m)                    # active machines
    y, c, alpha, w, gap = Y, C, A[rows], W[rows], gaps[rows]
    # 1 - y * (w @ X.T) is both the dual gradient and the hinge margin,
    # so one product per epoch serves this epoch's gap and the next step
    margins = 1.0 - y * (w @ X.T)
    for epoch in range(1, int(max_epochs) + 1):
        alpha = np.clip(alpha + step * margins, 0.0, c)
        w = (alpha * y) @ X
        margins = 1.0 - y * (w @ X.T)
        gap = _svm_gaps(margins, c, alpha, w)
        done = gap <= tol
        if done.any():
            stop = rows[done]
            W[stop], A[stop], gaps[stop] = w[done], alpha[done], gap[done]
            epochs += epoch * int(done.sum())
            keep = ~done
            rows, y, c, alpha, w, margins, gap = (
                rows[keep], y[keep], c[keep], alpha[keep], w[keep],
                margins[keep], gap[keep])
            if not rows.size:
                break
    else:
        W[rows], A[rows], gaps[rows] = w, alpha, gap
        epochs += int(max_epochs) * rows.size
    return W, A, gaps, int(epochs)
