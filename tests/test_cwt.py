import numpy as np
import pytest

from wavescat import morse
from wavescat.cwt import cwt, scalogram_to_csv
from wavescat.errors import DataError
from wavescat.morse import MorseParams, build_filterbank, next_pow2

from oracles import direct_cwt, direct_dft_wavelets

FS = 1000.0


def small_bank(n=256, voices=4, fmin=8.0, fmax=100.0):
    return build_filterbank(n, FS, MorseParams(voices_per_octave=voices,
                                               fmin=fmin, fmax=fmax))


def test_zero_signal_gives_zero_coefficients():
    bank = small_bank()
    s = cwt(np.zeros(256), bank)
    assert np.all(s.coefficients == 0)


def test_impulse_response_is_reversed_conjugate_wavelet():
    n = 512
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=4, fmin=8.0))
    x = np.zeros(n)
    x[n // 2] = 1.0
    s = cwt(x, bank)
    psi = direct_dft_wavelets(bank.filters)
    idx = (n // 2 - np.arange(n)) % n
    for j in range(bank.n_scales):
        expected = np.conj(psi[j][idx])
        err = np.linalg.norm(s.coefficients[j] - expected)
        err /= np.linalg.norm(expected)
        assert err < 1e-6


@pytest.mark.parametrize("n", [256, 1024])
def test_fft_path_matches_direct_quadrature(n):
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=3, fmin=4.0))
    rng = np.random.default_rng(5)
    x = rng.standard_normal(n)
    s = cwt(x, bank)
    reference = direct_cwt(x, bank.filters)
    for j in range(bank.n_scales):
        err = np.linalg.norm(s.coefficients[j] - reference[j])
        err /= np.linalg.norm(reference[j])
        assert err < 1e-6


def test_sinusoid_ridge_location_and_height():
    n = 4096
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=20))
    t = np.arange(n) / FS
    s = cwt(np.cos(2 * np.pi * 8.0 * t), bank)
    mag = np.abs(s.coefficients)
    interior = np.nonzero(s.coi <= 4.0)[0]   # everything >= 4 Hz reliable
    assert interior.size > 1000
    ridge = mag[:, interior].argmax(axis=0)
    voice_ratio = 2.0 ** (1.0 / 20)
    for j in np.unique(ridge):
        assert s.scale_axis[j] / 8.0 < voice_ratio
        assert 8.0 / s.scale_axis[j] < voice_ratio
    heights = mag[:, interior].max(axis=0)
    assert np.all(np.abs(heights - 1.0) < 0.02)


def test_linearity():
    bank = small_bank()
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(256), rng.standard_normal(256)
    a, b = 1.7, -0.4
    lhs = cwt(a * x + b * y, bank).coefficients
    rhs = a * cwt(x, bank).coefficients + b * cwt(y, bank).coefficients
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_shift_covariance():
    bank = small_bank()
    rng = np.random.default_rng(8)
    x = rng.standard_normal(256)
    m = 37
    shifted = cwt(np.roll(x, m), bank).coefficients
    rolled = np.roll(cwt(x, bank).coefficients, m, axis=1)
    assert np.linalg.norm(shifted - rolled) / np.linalg.norm(rolled) < 1e-10


def test_magnitude_views():
    bank = small_bank()
    s = cwt(np.zeros(256), bank)
    coeff = s.coefficients
    assert np.all(np.abs(coeff) == 0)
    coeff[0, 0] = 3.0 + 4.0j
    assert np.abs(coeff)[0, 0] == pytest.approx(5.0)
    assert np.all(s.coefficients == 0)    # every access forms them anew


@pytest.mark.parametrize("n_sig", [200, 256])
def test_rows_in_blocks_equal_the_whole_transform_bitwise(monkeypatch,
                                                          n_sig):
    """Three voices a block, the rows equal one 2-D ifft of the padded
    spectrum against every filter, truncated to the signal."""
    monkeypatch.setattr(morse, "SCALE_BLOCK_BYTES", 3 * 16 * 256)
    bank = small_bank(n=256, voices=6)
    x = np.random.default_rng(9).standard_normal(n_sig)
    s = cwt(x, bank)
    assert s.blocks == bank.row_blocks()
    assert [b - a for a, b in s.blocks] == [3] * 7 + [1]
    padded = np.concatenate([x, np.zeros(256 - n_sig)])
    whole = np.fft.ifft(np.fft.fft(padded)[None, :] * bank.filters,
                        axis=1)[:, :n_sig]
    got = np.concatenate([s.rows(a, b) for a, b in s.blocks])
    assert got.tobytes() == whole.tobytes()


def test_impulse_row_l1_norm_matches_quadrature():
    n = 512
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=4, fmin=8.0))
    x = np.zeros(n)
    x[n // 2] = 1.0
    mag = np.abs(cwt(x, bank).coefficients)
    psi = direct_dft_wavelets(bank.filters)
    for j in range(bank.n_scales):
        got = mag[j].sum() / FS
        expected = np.abs(psi[j]).sum() / FS
        assert got == pytest.approx(expected, rel=1e-6)


def test_coi_shape_and_mask():
    n = 2048
    bank = build_filterbank(n, FS, MorseParams(voices_per_octave=8, fmin=2.0))
    s = cwt(np.zeros(n), bank)
    # boundary frequency falls from the edges toward the interior
    # (+inf right at the edges, where nothing is reliable)
    first = s.coi[:n // 2]
    second = s.coi[n // 2:]
    assert np.all(np.diff(first[np.isfinite(first)]) <= 0)
    assert np.all(np.diff(second[np.isfinite(second)]) >= 0)
    assert np.isinf(s.coi[0]) and np.isinf(s.coi[-1])
    assert s.coi[0] > s.coi[n // 2]
    mask = s.valid_mask()
    assert not mask[:, 0].any()                # nothing reliable at the edge
    assert mask[:, n // 2].any()
    # mask is exactly the comparison against the boundary curve
    assert np.array_equal(mask, s.scale_axis[:, None] >= s.coi[None, :])


def test_shorter_signal_zero_padded_and_truncated():
    bank = small_bank(n=256)
    s = cwt(np.ones(200), bank)
    assert s.coefficients.shape == (bank.n_scales, 200)
    assert s.time_axis[-1] == pytest.approx(199 / FS)


def test_padded_signal_gives_compact_coefficients():
    bank = small_bank(n=256)
    x = np.random.default_rng(5).standard_normal(200)
    s = cwt(x, bank)
    # a copy, not a view that keeps the padded transform alive
    assert s.coefficients.base is None
    assert s.coefficients.flags.c_contiguous
    full = cwt(np.concatenate([x, np.zeros(56)]), bank).coefficients
    assert s.coefficients.tobytes() == full[:, :200].tobytes()


def test_length_and_rate_validation(single_chamber_session):
    bank = small_bank(n=256)
    with pytest.raises(DataError, match="exceeds bank length"):
        cwt(np.zeros(300), bank)
    with pytest.raises(DataError, match="rates differ"):
        bad = build_filterbank(16384, 500.0, MorseParams(voices_per_octave=4,
                                                         fmin=8.0))
        cwt(single_chamber_session.hip, bad)


def test_next_pow2():
    assert [next_pow2(k) for k in (1, 2, 3, 1000, 1024, 1025)] == \
        [1, 2, 4, 1024, 1024, 2048]


def test_scalogram_csv(tmp_path):
    bank = small_bank(n=64, voices=1, fmin=50.0, fmax=100.0)
    s = cwt(np.ones(64), bank)
    out = tmp_path / "scal.csv"
    scalogram_to_csv(np.abs(s.coefficients), s.scale_axis, s.time_axis, out,
                     "cmd=test")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# wavescat-config:")
    assert lines[1].split(",")[0] == "freq_hz"
    assert len(lines) == 2 + bank.n_scales
    assert float(lines[2].split(",")[0]) == 100.0
