import numpy as np
import pytest

from wavescat.coherence import (SmoothingSpec, coherence,
                                cross_spectrum, overlay_to_csv, phase_overlay)
from wavescat.cwt import Scalogram, cwt
from wavescat.errors import DataError
from wavescat.morse import MorseParams, build_filterbank

from oracles import brute_force_smooth, phase_overlay_by_cell

FS = 1000.0


def make_scalogram(coeff, fs=FS, fmax=100.0, voices=4):
    n_scales, n = coeff.shape
    scale_axis = fmax * 2.0 ** (-np.arange(n_scales) / voices)
    return Scalogram(coefficients=coeff.astype(np.complex128),
                     scale_axis=scale_axis,
                     time_axis=np.arange(n) / fs, fs=fs,
                     coi=np.zeros(n))


def random_pair(seed, shape=(12, 128)):
    rng = np.random.default_rng(seed)
    cx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cy = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return make_scalogram(cx), make_scalogram(cy)


def test_self_cross_spectrum_real_nonnegative():
    cx, _ = random_pair(0)
    s = cross_spectrum(cx, cx, SmoothingSpec.fixed(5, 3))
    assert np.abs(s.imag).max() < 1e-12
    assert s.real.min() > -1e-12


def test_identity_smoothing_is_elementwise_product():
    cx, cy = random_pair(1)
    s = cross_spectrum(cx, cy, SmoothingSpec.fixed(1, 1))
    a, b = cx.coefficients, cy.coefficients
    expected = (a.real * b.real + a.imag * b.imag
                + 1j * (a.real * b.imag - a.imag * b.real))
    assert np.array_equal(s, expected)
    assert np.allclose(s, np.conj(a) * b, rtol=0, atol=1e-12)


def test_cross_spectrum_matches_brute_force():
    cx, cy = random_pair(2, shape=(9, 40))
    s = cross_spectrum(cx, cy, SmoothingSpec.fixed(5, 3))
    raw = np.conj(cx.coefficients) * cy.coefficients
    expected = brute_force_smooth(raw, [5] * 9, 3)
    assert np.abs(s - expected).max() < 1e-12


def test_per_scale_widths_follow_center_frequency():
    spec = SmoothingSpec(c_t=2.0, c_s=0.6)
    scale_axis = np.array([100.0, 10.0, 1.0])
    tw, sw = spec.widths(scale_axis, FS, 10)
    assert tw.tolist() == [20, 200, 2000]
    assert sw == 6


def test_self_coherence_is_one():
    rng = np.random.default_rng(3)
    n = 1024
    bank = build_filterbank(n, FS, MorseParams(), 6, 4.0, 100.0)
    cx = cwt(rng.standard_normal(n), bank)
    cmap = coherence(cx, cx, SmoothingSpec())
    defined = cmap.coherence > 0
    assert np.abs(cmap.coherence[defined] - 1.0).max() < 1e-9


def test_identity_smoothing_rejected():
    cx, cy = random_pair(4)
    with pytest.raises(DataError, match="identity smoothing"):
        coherence(cx, cy, SmoothingSpec.fixed(1, 1))


def test_bounds_under_fuzz():
    for seed in range(200):
        cx, cy = random_pair(seed, shape=(8, 64))
        cmap = coherence(cx, cy, SmoothingSpec.fixed(7, 3))
        assert cmap.coherence.min() >= 0.0
        assert cmap.coherence.max() <= 1.0 + 1e-12


def test_symmetry_and_antisymmetric_phase():
    cx, cy = random_pair(11)
    spec = SmoothingSpec.fixed(9, 3)
    ab = coherence(cx, cy, spec)
    ba = coherence(cy, cx, spec)
    assert np.array_equal(ab.coherence, ba.coherence)
    both = np.isfinite(ab.phase) & np.isfinite(ba.phase)
    interior = both & (np.abs(np.abs(ab.phase) - np.pi) > 1e-9)
    assert np.allclose(ab.phase[interior], -ba.phase[interior], atol=1e-12)


def test_amplitude_scale_invariance():
    cx, cy = random_pair(12)
    spec = SmoothingSpec.fixed(9, 3)
    base = coherence(cx, cy, spec).coherence
    scaled_cy = make_scalogram(cy.coefficients * 37.5)
    scaled = coherence(cx, scaled_cy, spec).coherence
    assert np.abs(base - scaled).max() < 1e-12


def delayed_pair(seed, f0=8.0, n=4096, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    clean = np.cos(2 * np.pi * f0 * t)
    delay = int(round(FS / (4 * f0)))
    x = clean + noise * rng.standard_normal(n)
    y = np.roll(clean, delay) + noise * rng.standard_normal(n)
    return x, y, delay


def test_quarter_cycle_delay_phase():
    n = 4096
    bank = build_filterbank(n, FS, MorseParams(), 10, 1.0, 100.0)
    for seed in range(3):
        x, y, delay = delayed_pair(seed)
        cmap = coherence(cwt(x, bank), cwt(y, bank), SmoothingSpec())
        j = int(np.argmin(np.abs(cmap.scale_axis - 8.0)))
        interior = slice(1000, 3000)
        phases = cmap.phase[j, interior]
        assert np.all(np.isfinite(phases))
        mean_phase = np.arctan2(np.sin(phases).mean(), np.cos(phases).mean())
        assert abs(mean_phase - np.pi / 2) < 0.1


def test_independent_noise_low_coherence():
    n = 1024
    bank = build_filterbank(n, FS, MorseParams(), 6, 4.0, 100.0)
    spec = SmoothingSpec.fixed(11, 5)
    values = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ca = cwt(rng.standard_normal(n), bank)
        cb = cwt(rng.standard_normal(n), bank)
        cmap = coherence(ca, cb, spec)
        interior = cmap.valid_mask()
        values.append(cmap.coherence[interior].mean())
    assert np.mean(values) < 0.5


def test_phase_overlay_thresholds():
    cx, noise = random_pair(20, shape=(40, 300))
    cy = make_scalogram(cx.coefficients + noise.coefficients)
    cmap = coherence(cx, cy, SmoothingSpec.fixed(5, 3))
    cmap.phase[::7, ::5] = np.nan   # hits kept cells: rows 0, 14, 28
    assert phase_overlay(cmap, 1.0) == []  # nothing exceeds 1.0
    records = phase_overlay(cmap, 0.5)
    assert records == phase_overlay_by_cell(cmap, 0.5)
    # every 2nd scale and 4th time; some cells below the threshold
    assert 0 < len(records) < 20 * 75
    assert {t for t, _, _ in records} <= set(cmap.time_axis[::4].tolist())
    with pytest.raises(DataError):
        phase_overlay(cmap, 1.5)


def test_quarter_cycle_overlay_phases_cluster():
    n = 4096
    bank = build_filterbank(n, FS, MorseParams(), 10, 1.0, 100.0)
    x, y, _ = delayed_pair(0)
    cmap = coherence(cwt(x, bank), cwt(y, bank), SmoothingSpec())
    records = phase_overlay(cmap, 0.5)
    near_8 = [p for (t, f, p) in records
              if abs(np.log2(f / 8.0)) < 0.05 and 1.0 < t < 3.0]
    assert near_8
    assert np.all(np.abs(np.array(near_8) - np.pi / 2) < 0.1)


def test_overlay_csv(tmp_path):
    out = tmp_path / "overlay.csv"
    overlay_to_csv([(0.5, 8.0, 1.57)], out, "cmd=test")
    lines = out.read_text().splitlines()
    assert lines[1] == "t,freq_hz,phase_rad"
    assert lines[2] == "0.5,8.0,1.57"


def test_axis_mismatch_rejected():
    cx, _ = random_pair(30, shape=(8, 64))
    cy, _ = random_pair(31, shape=(8, 32))
    with pytest.raises(DataError):
        cross_spectrum(cx, cy, SmoothingSpec.fixed(3, 1))
