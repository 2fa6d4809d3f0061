"""Continuous wavelet transform by frequency-domain multiplication.

Row j of the transform is ifft(fft(x) * filters[j]): the circular
correlation of the signal with the conjugate dilated analytic wavelet.
Boundary handling is the DFT's periodic extension plus a cone of
influence derived from each voice's envelope e-folding time. Signals
shorter than the bank length are zero-padded internally and the output
is truncated back, so the pad never appears in the scalogram; the
coefficients are then a compact copy, so the padded transform is freed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvfile import LazyRows, write_csv
from .errors import DataError
from .model import TimeSeries
from .morse import FilterBank


@dataclass
class Scalogram:
    """Complex CWT coefficients (scales x time) with COI metadata.

    ``coi`` holds, per time sample, the lowest center frequency whose
    e-folding time fits inside the distance to the nearer signal edge
    (+inf where no voice is trustworthy). A cell (j, t) is reliable iff
    ``scale_axis[j] >= coi[t]``; the boundary therefore peaks at the
    edges and falls toward the interior.
    """

    coefficients: np.ndarray
    scale_axis: np.ndarray
    time_axis: np.ndarray
    fs: float
    coi: np.ndarray

    def valid_mask(self) -> np.ndarray:
        """Boolean (scales x time) mask of COI-reliable cells."""
        return self.scale_axis[:, None] >= self.coi[None, :]


def _coi_curve(bank: FilterBank, n_sig: int) -> np.ndarray:
    efold = bank.efold_times()          # descending frequency -> ascending time
    centers = bank.center_frequencies
    t = np.arange(n_sig)
    dist = np.minimum(t, n_sig - 1 - t) / bank.fs
    # lowest trustworthy center frequency per time sample
    order = np.argsort(efold)
    sorted_efold = efold[order]
    sorted_centers = centers[order]
    idx = np.searchsorted(sorted_efold, dist, side="right") - 1
    coi = np.full(n_sig, np.inf)
    ok = idx >= 0
    # among trustworthy voices pick the slowest (min frequency)
    running_min = np.minimum.accumulate(sorted_centers)
    coi[ok] = running_min[idx[ok]]
    return coi


def cwt(x: TimeSeries | np.ndarray, bank: FilterBank) -> Scalogram:
    """Transform ``x`` against every voice of ``bank``."""
    if isinstance(x, TimeSeries):
        if x.fs != bank.fs:
            raise DataError("signal and bank sampling rates differ")
        data = x.samples
    else:
        data = np.asarray(x, dtype=np.float64)
    if data.ndim != 1:
        raise DataError("signal must be 1-D")
    if not np.all(np.isfinite(data)):
        raise DataError("signal contains non-finite values")
    n_sig = data.size
    if n_sig > bank.n:
        raise DataError(f"signal length {n_sig} exceeds bank length {bank.n}")
    if n_sig < bank.n:
        padded = np.zeros(bank.n)
        padded[:n_sig] = data
    else:
        padded = data
    spectrum = np.fft.fft(padded)
    coeff = np.fft.ifft(spectrum[None, :] * bank.filters, axis=1)
    if n_sig < bank.n:
        coeff = coeff[:, :n_sig].copy()   # frees the padded transform
    return Scalogram(
        coefficients=coeff,
        scale_axis=bank.center_frequencies.copy(),
        time_axis=np.arange(n_sig) / bank.fs,
        fs=bank.fs,
        coi=_coi_curve(bank, n_sig),
    )


def scalogram_to_csv(mag: np.ndarray, scale_axis, time_axis, path,
                     config_line: str = "") -> None:
    """Magnitudes as CSV: header row = time axis, first column = frequency."""
    header = ["freq_hz"] + np.asarray(time_axis).tolist()
    freqs = np.asarray(scale_axis).tolist()
    rows = LazyRows(len(freqs), lambda j: [freqs[j]] + mag[j].tolist())
    write_csv(path, header, rows, config_line)
