"""Smoothed wavelet cross-spectrum and coherence between two scalograms.

The smoothing operator is a per-scale periodic boxcar along time (width
proportional to the local period) followed by a truncated boxcar across
scales. Coherence is the normalized ratio

    |S(conj(Cx) * Cy)|^2 / (S(|Cx|^2) * S(|Cy|^2))

which lies in [0, 1] for any shared nonnegative kernel. The phase map
reports the lag of the second signal behind the first, so a copy of x
delayed by a quarter period shows +pi/2 at that frequency.
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
    """Boxcar widths: ~``c_t`` cycles along time, ``c_s`` octave across scale.

    ``fixed(..)`` pins both widths directly (used by oracle tests).
    """

    c_t: float = 2.0
    c_s: float = 0.6
    fixed_time_width: int | None = None
    fixed_scale_width: int | None = None

    @classmethod
    def fixed(cls, time_width: int, scale_width: int) -> "SmoothingSpec":
        return cls(fixed_time_width=int(time_width),
                   fixed_scale_width=int(scale_width))

    def widths(self, scale_axis, fs, voices_per_octave):
        if self.fixed_time_width is not None:
            tw = np.full(len(scale_axis), max(1, self.fixed_time_width),
                         dtype=np.int64)
        else:
            tw = np.maximum(1, np.round(self.c_t * fs / np.asarray(scale_axis))
                            .astype(np.int64))
        if self.fixed_scale_width is not None:
            sw = max(1, self.fixed_scale_width)
        else:
            sw = max(1, int(round(self.c_s * voices_per_octave)))
        return tw, sw


@dataclass
class CoherenceMap:
    coherence: np.ndarray
    phase: np.ndarray
    scale_axis: np.ndarray
    time_axis: np.ndarray
    fs: float
    coi: np.ndarray

    def valid_mask(self) -> np.ndarray:
        return self.scale_axis[:, None] >= self.coi[None, :]


def _voices_per_octave(scale_axis) -> int:
    if len(scale_axis) < 2:
        return 1
    step = np.log2(scale_axis[0] / scale_axis[1])
    return max(1, int(round(1.0 / step)))


def _widths(cx: Scalogram, cy: Scalogram, spec: SmoothingSpec):
    """Smoothing widths for two scalograms on the same axes."""
    if cx.coefficients.shape != cy.coefficients.shape:
        raise DataError("scalogram shapes differ")
    if not np.array_equal(cx.scale_axis, cy.scale_axis) or cx.fs != cy.fs:
        raise DataError("scalogram axes differ")
    return spec.widths(cx.scale_axis, cx.fs, _voices_per_octave(cx.scale_axis))


def smooth(mat: np.ndarray, time_widths, scale_width: int) -> np.ndarray:
    """Apply the time boxcar then the scale boxcar."""
    out = _kernels.boxcar_time(mat, time_widths)
    return _kernels.boxcar_scale(out, scale_width)


def _conj_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # conj(a) * b from explicit parts: hardware-FMA complex multiplies
    # round asymmetrically, which would break the exact-swap symmetry
    re = a.real * b.real + a.imag * b.imag
    im = a.real * b.imag - a.imag * b.real
    return re + 1j * im


def cross_spectrum(cx: Scalogram, cy: Scalogram,
                   spec: SmoothingSpec) -> np.ndarray:
    """Smoothed cross-spectrum S(conj(Cx) * Cy)."""
    tw, sw = _widths(cx, cy, spec)
    return smooth(_conj_product(cx.coefficients, cy.coefficients), tw, sw)


def coherence(cx: Scalogram, cy: Scalogram, spec: SmoothingSpec) -> CoherenceMap:
    tw, sw = _widths(cx, cy, spec)
    if int(tw.max()) <= 1 and sw <= 1:
        raise DataError("identity smoothing makes coherence trivially 1; "
                        "widen the time or scale kernel")
    sxy = cross_spectrum(cx, cy, spec)
    sxx = smooth(np.abs(cx.coefficients) ** 2, tw, sw).real
    syy = smooth(np.abs(cy.coefficients) ** 2, tw, sw).real
    den = sxx * syy
    eps = EPS_DEN_REL * float(den.max()) if den.size else 0.0
    ok = den >= max(eps, np.finfo(np.float64).tiny)
    coh = np.zeros_like(den)
    np.divide(np.abs(sxy) ** 2, den, out=coh, where=ok)
    np.minimum(coh, 1.0, out=coh)  # Cauchy-Schwarz holds; trim roundoff
    phase = np.full(den.shape, np.nan)
    phase[ok] = -np.angle(sxy[ok])
    # map -pi to +pi so the range is (-pi, pi]
    phase[phase <= -np.pi] = np.pi
    return CoherenceMap(
        coherence=coh,
        phase=phase,
        scale_axis=cx.scale_axis.copy(),
        time_axis=cx.time_axis.copy(),
        fs=cx.fs,
        coi=np.maximum(cx.coi, cy.coi),
    )


def phase_overlay(cmap: CoherenceMap, threshold: float) -> list[tuple]:
    """(time, freq_hz, phase_rad) records where coherence > threshold on
    a grid of about 16 scales by 64 times, scale by scale."""
    if not (0.0 <= threshold <= 1.0):
        raise DataError("threshold must lie in [0, 1]")
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
