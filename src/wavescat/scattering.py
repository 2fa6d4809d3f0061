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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .morse import MorseParams, build_filterbank

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class ScatteringParams:
    """Invariance scale T (seconds), per-layer voice counts, band."""

    t: float = 0.5
    q1: int = 8
    q2: int = 1
    fs: float = 1000.0
    fmin: float | None = None
    fmax: float = 100.0
    gamma: float = 3.0

    def __post_init__(self):
        if self.t <= 0:
            raise DataError("invariance scale T must be positive")
        if not (self.q1 >= self.q2 >= 1):
            raise DataError("need Q1 >= Q2 >= 1")

    @property
    def band_min(self) -> float:
        return self.fmin if self.fmin is not None else 1.0 / self.t


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


def _tb_for_q(q: int, gamma: float) -> float:
    # half-power width of the log-frequency response ~ 1/q octave
    return 8.0 * q * q / (gamma * LN2)


class _Engine:
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


def layer_energies(x, params: ScatteringParams) -> tuple[float, float, float]:
    """(input, layer-1, layer-2) energies of the un-averaged trajectories."""
    x = np.asarray(x, dtype=np.float64)
    eng = _engine(params, x.size)
    _, energies = eng.transform(x, with_energies=True)
    return energies


def feature_matrix(segments, params: ScatteringParams):
    """Stack scatter() rows for equal-length segments.

    Returns (matrix, paths, segments); the row order equals the input
    order and each row is bit-identical to a standalone scatter() call.
    """
    segments = list(segments)
    if not segments:
        raise DataError("no segments given")
    lengths = {s.samples.size for s in segments}
    if len(lengths) != 1:
        raise DataError(f"ragged segment lengths: {sorted(lengths)}")
    eng = _engine(params, lengths.pop())
    matrix = np.empty((len(segments), len(eng.paths)))
    for i, seg in enumerate(segments):
        matrix[i] = eng.transform(seg.samples)
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
