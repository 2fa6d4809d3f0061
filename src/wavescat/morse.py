"""Generalized Morse wavelets evaluated in the frequency domain.

The mother wavelet is the analytic bandpass

    psi_hat(w) = a * w**tb * exp(-w**gamma)        for w > 0, else 0
    a          = 2 * (e * gamma / tb)**(tb / gamma)

where ``tb`` is the time-bandwidth product and ``gamma`` the symmetry
parameter. The normalizing constant pins the peak value to exactly 2 at
w = (tb / gamma)**(1 / gamma), so the transform of a unit-amplitude
analytic sinusoid has ridge magnitude ~1. Everything is computed in
log space; the closed form stays finite for any positive parameters.

A filter bank samples dilations of the mother on the DFT frequency grid,
with center frequencies geometrically spaced by 2**(1/voices_per_octave).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

DEFAULT_GAMMA = 3.0
DEFAULT_TIME_BANDWIDTH = 60.0
DEFAULT_VOICES = 10
DEFAULT_FMIN = 1.0
DEFAULT_FMAX = 100.0


@dataclass(frozen=True)
class MorseParams:
    """Wavelet shape: symmetry ``gamma`` and time-bandwidth product."""

    gamma: float = DEFAULT_GAMMA
    time_bandwidth: float = DEFAULT_TIME_BANDWIDTH

    def __post_init__(self):
        if not (self.gamma > 0 and self.time_bandwidth > 0):
            raise DataError("gamma and time_bandwidth must be positive")


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
    voices_per_octave: int
    center_frequencies: np.ndarray
    filters: np.ndarray
    _efold_times: np.ndarray | None = field(default=None, init=False,
                                            repr=False)

    @property
    def n(self) -> int:
        return self.filters.shape[1]

    @property
    def n_scales(self) -> int:
        return self.filters.shape[0]

    def efold_times(self) -> np.ndarray:
        """Envelope e-folding time per voice, in seconds.

        Found numerically: each filter row is brought to the time domain
        and the envelope is scanned forward from its lag-0 peak until it
        first drops below peak/e; a row that never does reads n//2.
        """
        if self._efold_times is None:
            env = np.abs(np.fft.ifft(self.filters, axis=1))
            half = self.n // 2
            below = env[:, :self.n - half] < env[:, :1] / np.e
            self._efold_times = np.where(
                below.any(axis=1), below.argmax(axis=1), half) / self.fs
        return self._efold_times


def build_filterbank(n: int, fs: float, params: MorseParams | None = None,
                     voices_per_octave: int = DEFAULT_VOICES,
                     fmin: float = DEFAULT_FMIN,
                     fmax: float = DEFAULT_FMAX) -> FilterBank:
    """Build the multi-voice bank for signals of length ``n``.

    Center frequencies run from ``fmax`` downward by factors of
    2**(1/voices_per_octave); the first value below ``fmin`` is excluded.
    """
    params = params or MorseParams()
    if n < 4:
        raise DataError("n must be at least 4")
    if not (0 < fmin < fmax):
        raise DataError("need 0 < fmin < fmax")
    if fmax > fs / 2:
        raise DataError(f"fmax={fmax} exceeds Nyquist {fs / 2}")
    if voices_per_octave < 1:
        raise DataError("voices_per_octave must be >= 1")
    n_scales = int(np.floor(voices_per_octave * np.log2(fmax / fmin))) + 1
    # the largest array comes first: a bank too large for memory then
    # fails at once, before the per-voice arrays fill memory
    filters = np.empty((n_scales, n))
    centers = fmax * 2.0 ** (-np.arange(n_scales) / voices_per_octave)
    omega_p = peak_frequency(params)
    # DFT grid in rad/sample; bins above n//2 are negative frequencies.
    k = np.arange(n)
    omega = 2.0 * np.pi * k / n
    omega[k > n // 2] = -1.0  # forced to the zero branch
    for j, fc in enumerate(centers):
        omega_j = 2.0 * np.pi * fc / fs
        filters[j] = morse_hat(omega * (omega_p / omega_j), params)
    return FilterBank(params, fs, voices_per_octave, centers, filters)
