"""Continuous wavelet transform by frequency-domain multiplication.

Row j of the transform is ifft(fft(x) * filters[j]): the circular
correlation of the signal with the conjugate dilated analytic wavelet.
Boundary handling is the DFT's periodic extension plus a cone of
influence derived from each voice's envelope e-folding time. Signals
shorter than the bank length are zero-padded internally and the output
is truncated back, so the pad never appears in the scalogram. ``cwt``
takes the signal's ``fft`` once; the rows are then formed one block of
the bank's ``row_blocks`` at a time, each a compact copy, so no whole
scalogram or padded transform need be held.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .csvfile import LazyRows, write_csv
from .errors import DataError
from .model import TimeSeries
from .morse import FilterBank


@dataclass
class Scalogram:
    """Complex CWT coefficients (scales x time), formed on demand, with
    COI metadata.

    ``rows(a, b)`` returns scale rows a..b-1 of the coefficients, and
    ``blocks`` lists the (start, stop) row ranges that a consumer forms
    one at a time. ``coi`` holds, per time sample, the lowest center
    frequency whose e-folding time fits inside the distance to the
    nearer signal edge (+inf where no voice is trustworthy). A cell
    (j, t) is reliable iff ``scale_axis[j] >= coi[t]``; the boundary
    therefore peaks at the edges and falls toward the interior.
    """

    rows: Callable[[int, int], np.ndarray]
    scale_axis: np.ndarray
    time_axis: np.ndarray
    fs: float
    coi: np.ndarray
    blocks: list[tuple[int, int]]

    @property
    def coefficients(self) -> np.ndarray:
        """Every row at once, a new array on each access."""
        return self.rows(0, self.scale_axis.size)

    def valid_mask(self, rows=slice(None)) -> np.ndarray:
        """Boolean (scales x time) mask of COI-reliable cells, of the
        scale rows ``rows`` (all by default)."""
        return self.scale_axis[rows, None] >= self.coi[None, :]


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


def _transform_rows(spectrum, filters, n_sig, a, b):
    coeff = np.fft.ifft(spectrum[None, :] * filters[a:b], axis=1)
    if n_sig < filters.shape[1]:
        coeff = coeff[:, :n_sig].copy()   # frees the padded block
    return coeff


def cwt(x: TimeSeries | np.ndarray, bank: FilterBank) -> Scalogram:
    """Transform ``x`` against every voice of ``bank``: its spectrum now,
    its rows as they are asked for."""
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
    return Scalogram(
        rows=partial(_transform_rows, np.fft.fft(padded), bank.filters,
                     n_sig),
        scale_axis=bank.center_frequencies.copy(),
        time_axis=np.arange(n_sig) / bank.fs,
        fs=bank.fs,
        coi=_coi_curve(bank, n_sig),
        blocks=bank.row_blocks(),
    )


def scalogram_to_csv(mag: np.ndarray, scale_axis, time_axis, path,
                     config_line: str = "") -> None:
    """Magnitudes as CSV: header row = time axis, first column = frequency."""
    header = ["freq_hz"] + np.asarray(time_axis).tolist()
    freqs = np.asarray(scale_axis).tolist()
    rows = LazyRows(len(freqs), lambda j: [freqs[j]] + mag[j].tolist())
    write_csv(path, header, rows, config_line)
