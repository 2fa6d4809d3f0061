"""Smoothed wavelet cross-spectrum and coherence between two scalograms.

The smoothing operator is a per-scale periodic boxcar along time (width
proportional to the local period) followed by a truncated boxcar across
scales. Coherence is the normalized ratio

    |S(conj(Cx) * Cy)|^2 / (S(|Cx|^2) * S(|Cy|^2))

which lies in [0, 1] for any shared nonnegative kernel. The phase map
reports the lag of the second signal behind the first, so a copy of x
delayed by a quarter period shows +pi/2 at that frequency.

``coherence`` streams: it forms both scalograms a block of scale rows at
a time, smooths each block along time, and carries the scale boxcar's
running sum across blocks, so only a few blocks of rows are alive at
once. The one global step, the denominator floor
``EPS_DEN_REL * max(den)``, is applied once the maximum is known, by
forming again the few rows it changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .csvfile import write_csv
from .cwt import Scalogram
from .errors import DataError

EPS_DEN_REL = 1e-12


@dataclass(frozen=True)
class SmoothingSpec:
    """Boxcar widths: ~``c_t`` cycles along time, ``c_s`` octave across
    scale; both non-negative, and a width that rounds below one sample
    or voice is one. A width that int64 cannot hold is refused."""

    c_t: float = 2.0
    c_s: float = 0.6

    def __post_init__(self):
        for name in ("c_t", "c_s"):
            width = getattr(self, name)
            if not width >= 0.0:
                raise DataError(f"{name} must be non-negative, got {width}")

    def widths(self, scale_axis, fs, voices_per_octave):
        with np.errstate(over="ignore"):
            tw = np.round(self.c_t * fs / np.asarray(scale_axis))
            sw = np.round(self.c_s * voices_per_octave)
        for name, width in (("c_t", tw.max(initial=0.0)), ("c_s", sw)):
            if not width < 2.0 ** 63:
                raise DataError(f"{name}={getattr(self, name)} gives a "
                                f"smoothing width of {width:g}, too large "
                                f"for int64")
        return np.maximum(1, tw.astype(np.int64)), max(1, int(sw))


@dataclass
class CoherenceMap:
    coherence: np.ndarray
    phase: np.ndarray
    scale_axis: np.ndarray
    time_axis: np.ndarray
    coi: np.ndarray

    valid_mask = Scalogram.valid_mask


def _voices_per_octave(scale_axis) -> int:
    if len(scale_axis) < 2:
        return 1
    step = np.log2(scale_axis[0] / scale_axis[1])
    return max(1, int(round(1.0 / step)))


def _conj_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # conj(a) * b from explicit parts: hardware-FMA complex multiplies
    # round asymmetrically, which would break the exact-swap symmetry
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    return re + 1j * im


def _time_smoothed(cx, cy, time_widths, stop):
    """The time-smoothed conj(Cx)*Cy, |Cx|^2 and |Cy|^2 of each block of
    scale rows that starts below ``stop``."""
    for a, b in cx.blocks:
        if a >= stop:
            return
        x, y = cx.rows(a, b), cy.rows(a, b)
        widths = time_widths[a:b]
        yield (_kernels.boxcar_time(_conj_product(x, y), widths),
               _kernels.boxcar_time(np.abs(x) ** 2, widths),
               _kernels.boxcar_time(np.abs(y) ** 2, widths))


def _finished(cx, cy, tw, sw, floor, stop):
    """(first row, den, coherence, phase) of each block of rows below
    ``stop``, with cells whose den lies under ``floor`` undefined."""
    n_rows = cx.scale_axis.size
    # the scale boxcar needs hi = sw // 2 rows beyond the last one wanted
    smoothed = _time_smoothed(cx, cy, tw, min(n_rows, stop + sw // 2))
    for start, (sxy, sxx, syy) in _kernels.boxcar_scale(smoothed, n_rows,
                                                        sw):
        if start >= stop:
            return
        den = sxx * syy
        ok = den >= floor
        coh = np.zeros_like(den)
        np.divide(np.abs(sxy) ** 2, den, out=coh, where=ok)
        np.minimum(coh, 1.0, out=coh)  # Cauchy-Schwarz holds; trim roundoff
        phase = np.full(den.shape, np.nan)
        phase[ok] = -np.angle(sxy[ok])
        # map -pi to +pi so the range is (-pi, pi]
        phase[phase <= -np.pi] = np.pi
        yield start, den, coh, phase


def _stream(cx, cy, tw, sw):
    tiny = np.finfo(np.float64).tiny
    lows, tops = [], []
    for start, den, coh, phase in _finished(cx, cy, tw, sw, tiny,
                                            cx.scale_axis.size):
        lows.append(den.min(axis=1, initial=np.inf))
        tops.append(den.max(initial=-np.inf))
        yield start, coh, phase
    eps = EPS_DEN_REL * float(np.max(tops)) if cx.time_axis.size else 0.0
    floor = max(eps, tiny)
    if floor == tiny:
        return
    # rows with a den under the final floor are formed again under it
    redo = np.flatnonzero(~(np.concatenate(lows) >= floor))
    if not redo.size:
        return
    for start, den, coh, phase in _finished(cx, cy, tw, sw, floor,
                                            int(redo[-1]) + 1):
        if np.any((redo >= start) & (redo < start + len(den))):
            yield start, coh, phase


def coherence(cx: Scalogram, cy: Scalogram, spec: SmoothingSpec):
    """Smoothed coherence and phase of two scalograms on the same axes,
    as an iterator of (first scale row, coherence rows, phase rows)
    blocks in row order. A cell whose smoothed denominator lies under
    ``EPS_DEN_REL`` times the largest one (or the smallest normal
    float) has coherence 0 and phase NaN. That largest value is known
    only at the end, so the blocks holding rows that the final floor
    changes come once more, formed again under it, after the last row:
    a later block supersedes an earlier one. The time boxcar,
    round(c_t * fs / f) samples at center frequency f, wraps around the
    signal's period, so it may be wider than the signal. The arguments
    are checked before this returns."""
    if ((cx.scale_axis.size, cx.time_axis.size)
            != (cy.scale_axis.size, cy.time_axis.size)):
        raise DataError("scalogram shapes differ")
    if not np.array_equal(cx.scale_axis, cy.scale_axis) or cx.fs != cy.fs:
        raise DataError("scalogram axes differ")
    tw, sw = spec.widths(cx.scale_axis, cx.fs,
                         _voices_per_octave(cx.scale_axis))
    if int(tw.max()) <= 1 and sw <= 1:
        raise DataError("identity smoothing makes coherence trivially 1; "
                        "widen the time or scale kernel")
    return _stream(cx, cy, tw, sw)


def coherence_map(cx: Scalogram, cy: Scalogram,
                  spec: SmoothingSpec) -> CoherenceMap:
    """The whole coherence and phase matrices, filled from
    ``coherence``'s blocks."""
    blocks = coherence(cx, cy, spec)
    shape = (cx.scale_axis.size, cx.time_axis.size)
    coh, phase = np.empty(shape), np.empty(shape)
    for start, c, p in blocks:
        coh[start:start + len(c)] = c
        phase[start:start + len(p)] = p
    return CoherenceMap(
        coherence=coh,
        phase=phase,
        scale_axis=cx.scale_axis.copy(),
        time_axis=cx.time_axis.copy(),
        coi=np.maximum(cx.coi, cy.coi),
    )


def phase_overlay(cmap: CoherenceMap, threshold: float) -> list[tuple]:
    """(time, freq_hz, phase_rad) records where coherence > threshold on
    a grid of about 16 scales by 64 times, scale by scale."""
    if not (0.0 <= threshold <= 1.0):
        raise DataError(f"threshold must lie in [0, 1], got {threshold}")
    n_s, n_t = cmap.coherence.shape
    rows = slice(None, None, max(1, n_s // 16))
    cols = slice(None, None, max(1, n_t // 64))
    phase = cmap.phase[rows, cols]
    j, t = np.nonzero((cmap.coherence[rows, cols] > threshold)
                      & np.isfinite(phase))
    return list(zip(cmap.time_axis[cols][t].tolist(),
                    cmap.scale_axis[rows][j].tolist(), phase[j, t].tolist()))


def overlay_to_csv(records, path, config_line: str = "") -> None:
    write_csv(path, ["t", "freq_hz", "phase_rad"], records, config_line)
