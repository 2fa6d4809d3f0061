"""Generalized Morse wavelets evaluated in the frequency domain.

The mother wavelet is the analytic bandpass

    psi_hat(w) = a * w**tb * exp(-w**gamma)        for w > 0, else 0
    a          = 2 * (e * gamma / tb)**(tb / gamma)

where ``tb`` is the time-bandwidth product and ``gamma`` the symmetry
parameter. The normalizing constant pins the peak value to exactly 2 at
w = (tb / gamma)**(1 / gamma), so the transform of a unit-amplitude
analytic sinusoid has ridge magnitude ~1. Everything is computed in
log space, and ``MorseParams`` refuses a shape that leaves float64 even
there, so the response of every accepted shape is finite.

One ``MorseParams`` describes a filter bank: dilations of the mother on
the DFT grid, center frequencies from ``fmax`` down to ``fmin`` spaced
by 2**(1/voices_per_octave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


# bytes one block of complex (scale rows x padded length) transform rows
# may take; the CWT, coherence and e-fold times run a block at a time
SCALE_BLOCK_BYTES = 2 << 20


def next_pow2(n: int) -> int:
    """Smallest power of two >= n, for n >= 1."""
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class MorseParams:
    """A filter bank: the wavelet's symmetry ``gamma`` and time-bandwidth
    product, its voices and band; it caches the banks ``bank`` builds."""

    gamma: float = 3.0
    time_bandwidth: float = 60.0
    voices_per_octave: int = 10
    fmin: float = 1.0
    fmax: float = 100.0
    _banks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        g, tb = float(self.gamma), float(self.time_bandwidth)
        if not (g > 0 and tb > 0):
            raise DataError("gamma and time_bandwidth must be positive")
        if not (0 < self.fmin < self.fmax):
            raise DataError("need 0 < fmin < fmax")
        if self.voices_per_octave < 1:
            raise DataError("voices_per_octave must be >= 1")
        # tb * log(w) must be finite at every positive float w (|log w|
        # < 745), and the peak's response 2 to 1e-6, not lost to rounding
        with np.errstate(all="ignore"):
            peak = morse_hat(np.exp(np.log(tb / g) / g), self)
        if not (math.isfinite(tb * 745.0)
                and math.isclose(peak, 2.0, rel_tol=1e-6)):
            raise DataError(f"gamma={g:g} and time_bandwidth={tb:g} leave "
                            f"floating-point range")

    def bank(self, n_samples: int, fs: float) -> FilterBank:
        """The bank for signals of ``n_samples`` at ``fs``, padded to the
        next power of two: built, with its e-fold times, on its first
        request, then shared."""
        n = next_pow2(n_samples)
        if (n, fs) not in self._banks:
            bank = build_filterbank(n, fs, self)
            bank.efold_times()
            self._banks[n, fs] = bank
        return self._banks[n, fs]


def morse_hat(omega, params: MorseParams):
    """Frequency response at radian frequency ``omega`` (0 for omega <= 0).

    Accepts scalars or arrays. The peak value is exactly 2 at
    ``peak_frequency(params)``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    tb = params.time_bandwidth
    g = params.gamma
    log_a = np.log(2.0) + (tb / g) * (1.0 + np.log(g) - np.log(tb))
    out = np.zeros_like(omega)
    pos = omega > 0
    if np.any(pos):
        w = omega[pos]
        out[pos] = np.exp(log_a + tb * np.log(w) - w ** g)
    return out if out.ndim else float(out)


def peak_frequency(params: MorseParams) -> float:
    """Radian frequency of the mother wavelet's maximum."""
    return (params.time_bandwidth / params.gamma) ** (1.0 / params.gamma)


@dataclass
class FilterBank:
    """Analytic Morse filters sampled on a length-N DFT grid.

    ``filters[j, k]`` is the response of voice j at DFT bin k; rows are
    ordered by descending center frequency and are zero at every
    strictly negative frequency bin.
    """

    params: MorseParams
    fs: float
    center_frequencies: np.ndarray
    filters: np.ndarray
    _efold_times: np.ndarray | None = field(default=None, init=False,
                                            repr=False)

    @property
    def voices_per_octave(self) -> int:
        return self.params.voices_per_octave

    @property
    def n(self) -> int:
        return self.filters.shape[1]

    @property
    def n_scales(self) -> int:
        return self.filters.shape[0]

    def row_blocks(self) -> list[tuple[int, int]]:
        """Consecutive (start, stop) ranges of voices, as many a block as
        fit their complex rows at the padded length into
        ``SCALE_BLOCK_BYTES``, and at least one."""
        step = max(1, SCALE_BLOCK_BYTES // (16 * self.n))
        return [(a, min(a + step, self.n_scales))
                for a in range(0, self.n_scales, step)]

    def efold_times(self) -> np.ndarray:
        """Envelope e-folding time per voice, in seconds.

        Found numerically: each filter row is brought to the time domain
        and the envelope is scanned forward from its lag-0 peak until it
        first drops below peak/e; a row that never does reads n//2. The
        rows go to the time domain one block of ``row_blocks`` at a time.
        """
        if self._efold_times is None:
            half = self.n // 2
            steps = np.empty(self.n_scales, np.int64)
            for a, b in self.row_blocks():
                env = np.abs(np.fft.ifft(self.filters[a:b], axis=1))
                below = env[:, :self.n - half] < env[:, :1] / np.e
                steps[a:b] = np.where(below.any(axis=1), below.argmax(axis=1),
                                      half)
            self._efold_times = steps / self.fs
        return self._efold_times


def build_filterbank(n: int, fs: float, params: MorseParams) -> FilterBank:
    """Build the bank ``params`` describes for signals of length ``n``.

    Center frequencies run from ``fmax`` downward by factors of
    2**(1/voices_per_octave); the first value below ``fmin`` is excluded.
    """
    if n < 4:
        raise DataError("n must be at least 4")
    voices, fmax = params.voices_per_octave, params.fmax
    if fmax > fs / 2:
        raise DataError(f"fmax={fmax} exceeds Nyquist {fs / 2}")
    n_scales = int(np.floor(voices * np.log2(fmax / params.fmin))) + 1
    # the largest array comes first: a bank too large for memory then
    # fails at once, before the per-voice arrays fill memory
    filters = np.empty((n_scales, n))
    centers = fmax * 2.0 ** (-np.arange(n_scales) / voices)
    omega_p = peak_frequency(params)
    # DFT grid in rad/sample; bins above n//2 are negative frequencies.
    k = np.arange(n)
    omega = 2.0 * np.pi * k / n
    omega[k > n // 2] = -1.0  # forced to the zero branch
    for j, fc in enumerate(centers):
        omega_j = 2.0 * np.pi * fc / fs
        filters[j] = morse_hat(omega * (omega_p / omega_j), params)
    return FilterBank(params, fs, centers, filters)
