import numpy as np
import pytest

from wavescat import morse
from wavescat.coherence import (SmoothingSpec, coherence, coherence_map,
                                overlay_to_csv, phase_overlay)
from wavescat.cwt import cwt
from wavescat.errors import DataError
from wavescat.morse import MorseParams, build_filterbank

from oracles import (brute_force_smooth, held_scalogram,
                     phase_overlay_by_cell, whole_coherence)

FS = 1000.0


def make_scalogram(coeff, fs=FS, fmax=100.0, voices=4, block=None):
    n_scales, n = coeff.shape
    scale_axis = fmax * 2.0 ** (-np.arange(n_scales) / voices)
    return held_scalogram(coeff.astype(np.complex128), scale_axis, fs,
                          block=block)


def random_pair(seed, shape=(12, 128)):
    rng = np.random.default_rng(seed)
    cx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cy = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return make_scalogram(cx), make_scalogram(cy)


def test_smoothing_widths_must_be_non_negative():
    for bad in ({"c_t": -4.0}, {"c_s": -0.1}, {"c_t": np.nan}):
        name = next(iter(bad))
        with pytest.raises(DataError, match=f"{name} must be non-negative"):
            SmoothingSpec(**bad)
    # zero keeps meaning a width of one sample and one voice
    tw, sw = SmoothingSpec(c_t=0.0, c_s=0.0).widths(np.array([50.0, 5.0]),
                                                    FS, 10)
    assert tw.tolist() == [1, 1] and sw == 1


def test_coherence_matches_brute_force():
    cx, cy = random_pair(2, shape=(9, 40))
    spec = SmoothingSpec(c_t=0.5, c_s=0.75)   # widths 5..20 and 3
    cmap = coherence_map(cx, cy, spec)
    widths = spec.widths(cx.scale_axis, FS, 4)
    a, b = cx.coefficients, cy.coefficients
    sxy = brute_force_smooth(np.conj(a) * b, *widths)
    sxx = brute_force_smooth(np.abs(a) ** 2, *widths)
    syy = brute_force_smooth(np.abs(b) ** 2, *widths)
    expected = np.minimum(np.abs(sxy) ** 2 / (sxx * syy), 1.0)
    assert np.abs(cmap.coherence - expected).max() < 1e-12
    lag = np.angle(np.exp(1j * (cmap.phase + np.angle(sxy))))
    assert np.abs(lag).max() < 1e-9


def test_per_scale_widths_follow_center_frequency():
    spec = SmoothingSpec(c_t=2.0, c_s=0.6)
    scale_axis = np.array([100.0, 10.0, 1.0])
    tw, sw = spec.widths(scale_axis, FS, 10)
    assert tw.tolist() == [20, 200, 2000]
    assert sw == 6


def test_self_coherence_is_one():
    rng = np.random.default_rng(3)
    n = 1024
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=6, fmin=4.0))
    cx = cwt(rng.standard_normal(n), bank)
    cmap = coherence_map(cx, cx, SmoothingSpec())
    defined = cmap.coherence > 0
    assert np.abs(cmap.coherence[defined] - 1.0).max() < 1e-9


def test_identity_smoothing_rejected():
    cx, cy = random_pair(4)
    with pytest.raises(DataError, match="identity smoothing"):
        coherence(cx, cy, SmoothingSpec(c_t=0.0, c_s=0.0))


def test_bounds_under_fuzz():
    for seed in range(200):
        cx, cy = random_pair(seed, shape=(8, 64))
        cmap = coherence_map(cx, cy, SmoothingSpec(c_t=0.7, c_s=0.75))
        assert cmap.coherence.min() >= 0.0
        assert cmap.coherence.max() <= 1.0 + 1e-12


def test_symmetry_and_antisymmetric_phase():
    cx, cy = random_pair(11)
    spec = SmoothingSpec(c_t=0.9, c_s=0.75)
    ab = coherence_map(cx, cy, spec)
    ba = coherence_map(cy, cx, spec)
    assert np.array_equal(ab.coherence, ba.coherence)
    both = np.isfinite(ab.phase) & np.isfinite(ba.phase)
    interior = both & (np.abs(np.abs(ab.phase) - np.pi) > 1e-9)
    assert np.allclose(ab.phase[interior], -ba.phase[interior], atol=1e-12)


def test_amplitude_scale_invariance():
    cx, cy = random_pair(12)
    spec = SmoothingSpec(c_t=0.9, c_s=0.75)
    base = coherence_map(cx, cy, spec).coherence
    scaled_cy = make_scalogram(cy.coefficients * 37.5)
    scaled = coherence_map(cx, scaled_cy, spec).coherence
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
    bank = build_filterbank(n, FS, MorseParams())
    for seed in range(3):
        x, y, delay = delayed_pair(seed)
        cmap = coherence_map(cwt(x, bank), cwt(y, bank), SmoothingSpec())
        j = int(np.argmin(np.abs(cmap.scale_axis - 8.0)))
        interior = slice(1000, 3000)
        phases = cmap.phase[j, interior]
        assert np.all(np.isfinite(phases))
        mean_phase = np.arctan2(np.sin(phases).mean(), np.cos(phases).mean())
        assert abs(mean_phase - np.pi / 2) < 0.1


def test_independent_noise_low_coherence():
    n = 1024
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=6, fmin=4.0))
    spec = SmoothingSpec(c_t=1.1, c_s=0.83)
    values = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ca = cwt(rng.standard_normal(n), bank)
        cb = cwt(rng.standard_normal(n), bank)
        cmap = coherence_map(ca, cb, spec)
        interior = cmap.valid_mask()
        values.append(cmap.coherence[interior].mean())
    assert np.mean(values) < 0.5


def test_phase_overlay_thresholds():
    cx, noise = random_pair(20, shape=(40, 300))
    cy = make_scalogram(cx.coefficients + noise.coefficients)
    # time widths 1..258 on 300 samples, scale width 3
    cmap = coherence_map(cx, cy, SmoothingSpec(c_t=0.03, c_s=0.75))
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
    bank = build_filterbank(n, FS, MorseParams())
    x, y, _ = delayed_pair(0)
    cmap = coherence_map(cwt(x, bank), cwt(y, bank), SmoothingSpec())
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
    with pytest.raises(DataError, match="scalogram shapes differ"):
        coherence(cx, cy, SmoothingSpec(c_t=0.3, c_s=0.25))


# 10 voices an octave: c_s = 3 gives a scale boxcar of 30 rows, wider
# than the 4-row blocks; c_s = 0.1 gives a width of one row
@pytest.mark.parametrize("c_s, width, block", [
    (0.75, 8, 1), (0.75, 8, 5), (3.0, 30, 4), (3.0, 30, 40), (0.1, 1, 3)])
def test_streamed_coherence_equals_whole_matrix_oracle_bitwise(c_s, width,
                                                               block):
    rng = np.random.default_rng(40)
    a, b = (rng.standard_normal((40, 96)) + 1j * rng.standard_normal((40, 96))
            for _ in range(2))
    cx = make_scalogram(a, voices=10, block=block)
    cy = make_scalogram(b, voices=10, block=block)
    spec = SmoothingSpec(c_t=0.5, c_s=c_s)
    assert spec.widths(cx.scale_axis, FS, 10)[1] == width
    got, expected = coherence_map(cx, cy, spec), whole_coherence(cx, cy, spec)
    assert got.coherence.tobytes() == expected.coherence.tobytes()
    assert got.phase.tobytes() == expected.phase.tobytes()
    # one pass: every row once, in order
    blocks = [(start, len(coh)) for start, coh, _ in coherence(cx, cy, spec)]
    assert [start for start, _ in blocks] == np.cumsum(
        [0] + [rows for _, rows in blocks[:-1]]).tolist()
    assert sum(rows for _, rows in blocks) == 40


def test_rows_under_the_final_floor_are_formed_again_exactly(monkeypatch):
    """A NAc channel with no power below 40 Hz: the smoothed denominator
    of its low rows falls under 1e-12 of the largest one, which only the
    last block reveals. The blocks holding those rows come again, formed
    under the final floor, and the result equals the whole-matrix oracle
    bit for bit."""
    fs, n = 250.0, 2048
    monkeypatch.setattr(morse, "SCALE_BLOCK_BYTES", 3 * 16 * n)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    spectrum[np.fft.rfftfreq(n, 1 / fs) < 40.0] = 0.0
    y = np.fft.irfft(spectrum, n)
    bank = build_filterbank(n, fs, MorseParams(voices_per_octave=4))
    cx, cy = cwt(x, bank), cwt(y, bank)
    assert len(cx.blocks) == 9
    spec = SmoothingSpec()
    blocks = list(coherence(cx, cy, spec))
    starts = [start for start, _, _ in blocks]
    again = next(i for i in range(1, len(starts))
                 if starts[i] <= starts[i - 1])
    first = {start: (coh, phase) for start, coh, phase in blocks[:again]}
    assert sum(len(coh) for _, coh, _ in blocks[:again]) == bank.n_scales
    assert 0 < len(blocks) - again < again          # only some blocks
    changed = [not np.array_equal(phase, first[start][1], equal_nan=True)
               for start, _, phase in blocks[again:]]
    assert any(changed)
    got, expected = coherence_map(cx, cy, spec), whole_coherence(cx, cy, spec)
    assert got.coherence.tobytes() == expected.coherence.tobytes()
    assert got.phase.tobytes() == expected.phase.tobytes()
