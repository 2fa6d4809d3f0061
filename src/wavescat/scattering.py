"""Fixed-weight wavelet scattering features.

Three coefficient layers per segment:

* order 0: the signal low-passed by a unit-DC-gain Gaussian of standard
  deviation T/2 seconds;
* order 1: modulus of the Morse CWT at Q1 voices per octave, low-passed;
* order 2: modulus of a second, Q2-voice transform of each first-order
  envelope (only frequency-decreasing paths, f2 < f1), low-passed.

Each feature is the time average of its low-passed trajectory over the
segment interior (half the invariance scale is trimmed from each edge,
plus any zero-padding). The wavelet shape per layer is derived from its
voice density so adjacent voices overlap near half power, and each
bank is rescaled so its summed squared response stays below one -
that makes layer energies non-increasing order by order.

Filters are sampled on the segment's own DFT grid, but each layer is
inverse-transformed on a shorter grid sized to its band (Anden & Mallat
2014, "Deep Scattering Spectrum"): a power of two of at least 16x (layer
1) or 8x (layer 2) the highest bin it holds, or the segment length when
no shorter grid fits. Against the transform at the full segment length,
every value stays within 1e-4 times its layer's largest value and the
layer energies within a relative 1e-6.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import forked
from .cwt import next_pow2
from .errors import DataError
from .morse import MorseParams, build_filterbank

LN2 = float(np.log(2.0))
# a filter's support ends at its last bin above this fraction of its peak
SUPPORT_FLOOR = 1e-12
# each layer's grid is at least this many times the highest bin it holds
LAYER1_OVERSAMPLE = 16
LAYER2_OVERSAMPLE = 8
# Fewer segments are transformed in-process: forking a child costs about
# as much as transforming three segments, and a 2-CPU run of 6 was no
# faster than a 1-CPU run.
PARALLEL_SEGMENTS = 8


@dataclass(frozen=True)
class ScatteringParams:
    """Invariance scale T (seconds), per-layer voice counts, band."""

    t: float = 0.5
    q1: int = 8
    q2: int = 1
    fs: float = 1000.0
    fmax: float = 100.0
    gamma: float = 3.0

    def __post_init__(self):
        if not self.t > 0:
            raise DataError("invariance scale T must be positive")
        if not (self.q1 >= self.q2 >= 1):
            raise DataError("need Q1 >= Q2 >= 1")
        if not self.gamma > 0:
            raise DataError("gamma must be positive")

    @property
    def band_min(self) -> float:
        return 1.0 / self.t


@dataclass
class ScatteringFeatures:
    """Time-averaged coefficients plus their path metadata.

    Paths are () for order 0, (f1,) for order 1 and (f1, f2) for order
    2, ordered lexicographically by (order, f1 desc, f2 desc); the order
    is a pure function of the parameters, so rows from different
    segments align column for column.
    """

    values: np.ndarray
    paths: list[tuple]


def _support(row: np.ndarray, floor: float) -> int:
    """Last bin of ``row`` whose magnitude exceeds ``floor`` x its peak,
    -1 for a row that is zero on every bin."""
    mag = np.abs(row)
    above = np.flatnonzero(mag > floor * mag.max())
    return int(above[-1]) if above.size else -1


def _tb_for_q(q: int, gamma: float) -> float:
    # half-power width of the log-frequency response ~ 1/q octave
    return 8.0 * q * q / (gamma * LN2)


class _Engine:
    """Precomputed banks, grids and low-pass for one (params, length) pair.

    The filters live on the segment's length-n DFT grid (periodic
    boundary, the same convention as the CWT engine); a constant segment
    therefore stays a pure DC line, which every analytic wavelet maps to
    zero. Each layer then runs on a grid sized to its own band, of the
    same period: an M-point inverse FFT of a spectrum whose bins all lie
    below M returns the full-grid trajectory at M equally spaced times.
    Layer 1 inverts each group of f1 voices on a power-of-two grid of at
    least ``LAYER1_OVERSAMPLE`` x the highest bin the voice fills or its
    second-order paths and time average read from U1's spectrum; layer 2
    inverts each f2's paths on one grid of at least ``LAYER2_OVERSAMPLE``
    x that filter's support. A grid that would not be shorter than n is
    n itself, where the layer is the full-resolution transform.
    """

    def __init__(self, params: ScatteringParams, n: int):
        if n < params.t * params.fs:
            raise DataError("segment shorter than the invariance scale T")
        self.n = n
        fs = params.fs
        self.bank1 = build_filterbank(
            self.n, fs, MorseParams(params.gamma, _tb_for_q(params.q1, params.gamma)),
            voices_per_octave=params.q1, fmin=params.band_min, fmax=params.fmax)
        self.bank2 = build_filterbank(
            self.n, fs, MorseParams(params.gamma, _tb_for_q(params.q2, params.gamma)),
            voices_per_octave=params.q2, fmin=params.band_min, fmax=params.fmax)
        self.f1 = self.bank1.center_frequencies
        self.f2 = self.bank2.center_frequencies
        # Morse filters vanish at negative frequencies, so the rfft bins
        # 0..n//2 hold all of each filter; each keeps bins 0..support
        filters1 = self._frame_normalized(self.bank1.filters)[:, :n // 2 + 1]
        filters2 = self._frame_normalized(self.bank2.filters)[:, :n // 2 + 1]
        support1 = [_support(row, SUPPORT_FLOOR) for row in filters1]
        support2 = [_support(row, SUPPORT_FLOOR) for row in filters2]
        for layer, freqs, support in ((1, self.f1, support1),
                                      (2, self.f2, support2)):
            if -1 in support:
                raise DataError(
                    f"the layer-{layer} filter at "
                    f"{freqs[support.index(-1)]:.4g} Hz is zero on every "
                    f"bin of the {n}-point grid; use fewer voices or "
                    f"longer windows")
        # Gaussian low-pass, unit DC gain
        sigma_samples = params.t * fs / 2.0
        k = np.arange(self.n)
        omega = 2.0 * np.pi * np.minimum(k, self.n - k) / self.n
        self.phi_hat = np.exp(-0.5 * (omega * sigma_samples) ** 2)
        guard = min(int(round(params.t * fs / 2.0)), (n - 1) // 2)
        self.valid = slice(guard, n - guard)
        # Averaging a smoothed trajectory over the valid window is one
        # fixed weighted sum: w[tau] = mean over valid t of phi[t - tau].
        # w is a low-pass, so its few bins above rounding give it on any
        # grid.
        indicator = np.zeros(self.n)
        indicator[self.valid] = 1.0
        self._w_hat = np.fft.fft(indicator) * self.phi_hat / indicator.sum()
        self._w_bins = _support(self._w_hat[:n // 2 + 1], np.finfo(float).eps)
        self.avg_weights = self._weights_on(n)
        # second-order path table: (index into f1, index into f2)
        self.pairs = [(i, j)
                      for i in range(self.f1.size)
                      for j in range(self.f2.size)
                      if self.f2[j] < self.f1[i]]
        self.paths: list[tuple] = [()]
        self.paths += [(float(f),) for f in self.f1]
        self.paths += [(float(self.f1[i]), float(self.f2[j]))
                       for i, j in self.pairs]

        # highest bin of U1's spectrum that each f1's paths read, -1 if none
        read = [-1] * self.f1.size
        for i, j in self.pairs:
            read[i] = max(read[i], support2[j])
        grids1 = np.array([
            self._grid(LAYER1_OVERSAMPLE
                       * max(support1[i], read[i], self._w_bins))
            for i in range(self.f1.size)])
        self.u1_bins = max(read) + 1
        # (f1 rows, grid, filter bins, U1 spectrum bins kept, grid weights)
        self.layer1 = []
        for m in sorted(set(grids1.tolist()), reverse=True):
            rows = np.flatnonzero(grids1 == m)
            width = max(support1[i] for i in rows) + 1
            keep = max(read[i] for i in rows) + 1
            self.layer1.append((rows, m, filters1[rows, :width], keep,
                                self._weights_on(m)))
        # (f1 rows, positions in the path table, grid, filter, grid weights)
        self.layer2 = []
        for j in range(self.f2.size):
            group = [(p, i) for p, (i, jj) in enumerate(self.pairs) if jj == j]
            if not group:
                continue
            m = self._grid(LAYER2_OVERSAMPLE * max(support2[j], self._w_bins))
            self.layer2.append((np.array([i for _, i in group]),
                                np.array([p for p, _ in group]), m,
                                filters2[j, :support2[j] + 1],
                                self._weights_on(m)))

    @staticmethod
    def _frame_normalized(filters: np.ndarray) -> np.ndarray:
        frame = np.sum(filters ** 2, axis=0)
        bound = float(frame.max())
        return filters / np.sqrt(bound) if bound > 1.0 else filters.copy()

    def _grid(self, bins: int) -> int:
        """Smallest power of two >= bins, or n when that is not below n."""
        return min(next_pow2(bins), self.n)

    def _weights_on(self, m: int) -> np.ndarray:
        """w sampled at m equally spaced times of the segment's period."""
        kw, n = self._w_bins, self.n
        w_hat = np.zeros(m, dtype=complex)
        w_hat[:kw + 1] = self._w_hat[:kw + 1]
        w_hat[m - kw:] = self._w_hat[n - kw:]
        return np.fft.ifft(w_hat).real * (m / n)

    def transform(self, x: np.ndarray) -> np.ndarray:
        # On an M-point grid the inverse FFT returns |z| scaled by n/M, so
        # the rfft of that modulus is U's full-grid spectrum unchanged and
        # the time average is its dot product with w's samples.
        spectrum = np.fft.rfft(x)
        s0 = float(x @ self.avg_weights)

        s1 = np.empty(self.f1.size)
        u1_hat = np.zeros((self.f1.size, self.u1_bins), dtype=complex)
        for rows, m, filt, keep, w in self.layer1:
            z = np.zeros((rows.size, m), dtype=complex)
            z[:, :filt.shape[1]] = spectrum[:filt.shape[1]] * filt
            u1 = np.abs(np.fft.ifft(z, axis=1))
            s1[rows] = u1 @ w
            if keep:
                u1_hat[rows, :keep] = np.fft.rfft(u1, axis=1)[:, :keep]

        s2 = np.empty(len(self.pairs))
        for rows, positions, m, filt, w in self.layer2:
            z = np.zeros((rows.size, m), dtype=complex)
            z[:, :filt.size] = u1_hat[rows, :filt.size] * filt
            u2 = np.abs(np.fft.ifft(z, axis=1))
            s2[positions] = u2 @ w

        return np.maximum(np.concatenate([[s0], s1, s2]), 0.0)


@functools.lru_cache(maxsize=8)
def _engine(params: ScatteringParams, n_sig: int) -> _Engine:
    return _Engine(params, n_sig)


def scatter(x, params: ScatteringParams) -> ScatteringFeatures:
    """Scattering feature vector of one segment."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("segment must be 1-D")
    eng = _engine(params, x.size)
    return ScatteringFeatures(eng.transform(x), list(eng.paths))


def feature_matrix(segments, params: ScatteringParams):
    """Stack scatter() rows for equal-length segments.

    Returns (matrix, paths, segments); the row order equals the input
    order and each row is bit-identical to a standalone scatter() call.
    From ``PARALLEL_SEGMENTS`` segments on, they are split into one
    contiguous block per CPU: this process transforms the first block
    and forked children the others, with the same engine, so the rows
    do not depend on the CPU count.
    """
    segments = list(segments)
    if not segments:
        raise DataError("no segments given")
    lengths = {s.samples.size for s in segments}
    if len(lengths) != 1:
        raise DataError(f"ragged segment lengths: {sorted(lengths)}")
    # built here, before any fork, so no child builds a filter bank
    eng = _engine(params, lengths.pop())
    matrix = np.empty((len(segments), len(eng.paths)))

    def fill(start: int, stop: int) -> None:
        for i in range(start, stop):
            matrix[i] = eng.transform(segments[i].samples)

    def child(part, start: int, stop: int) -> None:
        fill(start, stop)
        part.write(matrix[start:stop].tobytes())

    def gather(part, start: int, stop: int) -> None:
        part.readinto(matrix[start:stop])

    forked.run_blocks(len(segments), fill, child, gather,
                      lambda start, stop: f"scattering rows {start}-{stop - 1}",
                      fork=len(segments) >= PARALLEL_SEGMENTS)
    return matrix, list(eng.paths), segments


def path_names(paths) -> list[str]:
    names = []
    for p in paths:
        if len(p) == 0:
            names.append("S0")
        elif len(p) == 1:
            names.append(f"S1[{p[0]:.4g}]")
        else:
            names.append(f"S2[{p[0]:.4g},{p[1]:.4g}]")
    return names
