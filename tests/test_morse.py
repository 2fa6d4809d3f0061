import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavescat import morse
from wavescat.errors import DataError
from wavescat.morse import (MorseParams, build_filterbank, morse_hat,
                            peak_frequency)


from oracles import efold_times_by_voice, numeric_peak


def test_unit_step_and_origin():
    params = MorseParams(3.0, 27.0)
    assert morse_hat(-1.0, params) == 0.0
    assert morse_hat(0.0, params) == 0.0
    assert morse_hat(np.array([-2.0, -0.1]), params).tolist() == [0.0, 0.0]


def test_peak_location_and_value_example():
    params = MorseParams(3.0, 27.0)
    argmax = numeric_peak(lambda w: morse_hat(w, params), 0.1, 10.0)
    assert argmax == pytest.approx((27.0 / 3.0) ** (1.0 / 3.0), abs=1e-9)
    assert argmax == pytest.approx(2.0800838230519041, abs=1e-6)
    assert morse_hat(peak_frequency(params), params) == pytest.approx(
        2.0, abs=1e-12)


@pytest.mark.parametrize("gamma,tb,expected", [
    (3.0, 3.0, 1.0),
    (3.0, 60.0, 20.0 ** (1.0 / 3.0)),
    (2.0, 8.0, 2.0),
])
def test_peak_frequency_closed_form(gamma, tb, expected):
    params = MorseParams(gamma, tb)
    assert peak_frequency(params) == pytest.approx(expected, rel=1e-12)
    numeric = numeric_peak(lambda w: morse_hat(w, params), 0.05, 20.0)
    assert numeric == pytest.approx(expected, abs=1e-9)


def test_peak_grid_20_points():
    for gamma in (1.5, 2.0, 3.0, 4.0):
        for tb in (3.0, 10.0, 27.0, 60.0, 120.0):
            params = MorseParams(gamma, tb)
            expected = (tb / gamma) ** (1.0 / gamma)
            numeric = numeric_peak(lambda w: morse_hat(w, params),
                                   expected / 8, expected * 8)
            assert numeric == pytest.approx(expected, abs=1e-9)
            assert morse_hat(expected, params) == pytest.approx(2.0,
                                                                abs=1e-12)


def test_invalid_params_rejected():
    with pytest.raises(DataError):
        MorseParams(0.0, 10.0)
    with pytest.raises(DataError):
        MorseParams(3.0, -1.0)
    with pytest.raises(DataError):
        MorseParams(np.nan, 10.0)
    with pytest.raises(DataError):
        MorseParams(3.0, np.nan)
    with pytest.raises(DataError, match=r"need 0 < fmin < fmax"):
        MorseParams(fmin=50.0, fmax=10.0)
    with pytest.raises(DataError, match=r"need 0 < fmin < fmax"):
        MorseParams(fmin=0.0)
    with pytest.raises(DataError, match="voices_per_octave must be >= 1"):
        MorseParams(voices_per_octave=0)


def test_octave_center_frequencies():
    bank = build_filterbank(1024, 1000.0, MorseParams(voices_per_octave=1,
                                                      fmin=10.0, fmax=80.0))
    assert bank.center_frequencies.tolist() == [80.0, 40.0, 20.0, 10.0]


def test_scale_count_formula():
    bank = build_filterbank(1024, 1000.0, MorseParams(voices_per_octave=8))
    assert bank.n_scales == int(np.floor(8 * np.log2(100.0))) + 1 == 54
    assert bank.center_frequencies[0] == 100.0
    assert bank.center_frequencies[-1] >= 1.0


def test_analyticity_zero_at_negative_bins():
    bank = build_filterbank(256, 500.0, MorseParams(voices_per_octave=4,
                                                    fmin=2.0))
    negative = bank.filters[:, 256 // 2 + 1:]
    assert np.all(negative == 0.0)


def test_row_peak_within_one_bin_of_center():
    bank = build_filterbank(4096, 1000.0, MorseParams())
    bin_hz = 1000.0 / 4096
    for fc, row in zip(bank.center_frequencies, bank.filters):
        kmax = int(np.argmax(row))
        assert abs(kmax * bin_hz - fc) <= bin_hz + 1e-12


def test_sampled_peak_close_to_two_midband():
    bank = build_filterbank(4096, 1000.0, MorseParams())
    mid = (bank.center_frequencies >= 20.0) & (bank.center_frequencies <= 100.0)
    assert np.all(bank.filters[mid].max(axis=1) >= 1.99)
    assert np.all(bank.filters.max(axis=1) <= 2.0 + 1e-12)


def test_dilation_covariance():
    params = MorseParams(fmin=4.0)
    bank = build_filterbank(2048, 1000.0, params)
    omega_p = peak_frequency(params)
    j, k = 3, 17
    w = np.linspace(0.01, np.pi, 500)
    omega_j = 2 * np.pi * bank.center_frequencies[j] / 1000.0
    omega_k = 2 * np.pi * bank.center_frequencies[k] / 1000.0
    row_j = morse_hat(w * omega_p / omega_j, params)
    row_k = morse_hat(w * (omega_k / omega_j) * omega_p / omega_k, params)
    assert np.allclose(row_j, row_k, atol=1e-12, rtol=0)


def test_bank_validation():
    with pytest.raises(DataError, match="Nyquist"):
        build_filterbank(1024, 1000.0, MorseParams(fmax=600.0))
    with pytest.raises(DataError, match="n must be at least 4"):
        build_filterbank(2, 1000.0, MorseParams())


@pytest.mark.parametrize("gamma, tb", [
    (1e-5, 60.0),             # the peak frequency overflows
    (1e-300, 60.0),
    (3.0, 1e308),             # the normalizing constant overflows
    (1e-5, 8 * 64 / (1e-5 * np.log(2.0))),    # a scattering layer's shape
    (1e308, 1e308),           # tb * log(w) overflows above the peak
    (3.0, 1e14),              # the exponent's terms lose their digits
    (1e10, 1e-320),           # tb / gamma underflows
])
def test_shapes_that_leave_floating_point_range_are_refused(gamma, tb):
    with pytest.raises(DataError, match=r"^gamma=\S+ and time_bandwidth=\S+ "
                                        r"leave floating-point range$"):
        MorseParams(gamma, tb)


@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@settings(max_examples=300, deadline=None)
def test_an_accepted_shape_has_finite_filters(log_gamma, log_tb):
    try:
        params = MorseParams(10.0 ** log_gamma, 10.0 ** log_tb)
    except DataError:
        return
    with np.errstate(over="ignore"):      # w**gamma overflows to exp(-inf)
        bank = build_filterbank(256, 1000.0, params)
    assert np.all(np.isfinite(bank.filters))
    assert np.all(bank.filters <= 2.0 * (1 + 1e-6))


def test_a_bank_beyond_any_address_space_fails_at_its_filter_array():
    # 664 M voices of 32768 bins, 158 TiB: the filter array comes before
    # any per-voice array, so nothing fills memory first
    with pytest.raises(MemoryError, match=r"\(664385619, 32768\)"):
        build_filterbank(2 ** 15, 1000.0,
                         MorseParams(voices_per_octave=10 ** 8))


def test_efold_times_decrease_with_frequency():
    bank = build_filterbank(4096, 1000.0, MorseParams(voices_per_octave=6,
                                                      fmin=2.0))
    times = bank.efold_times()
    assert np.all(np.diff(times) >= 0)  # descending frequency axis
    assert times[-1] > times[0]


@pytest.mark.parametrize("n, fs, params, voices, fmin, fmax", [
    (4096, 1000.0, MorseParams(), 6, 2.0, 100.0),
    (1001, 1000.0, MorseParams(3.0, 27.0), 4, 5.0, 100.0),
    (2048, 200.0, MorseParams(), 10, 1.0, 100.0),
    # short grids: the lowest voices never drop below peak/e and read n//2
    (255, 250.0, MorseParams(), 10, 1.0, 100.0),
    (64, 1000.0, MorseParams(), 4, 1.0, 100.0),
])
def test_efold_times_equal_the_per_voice_scan_bitwise(n, fs, params, voices,
                                                      fmin, fmax):
    bank = build_filterbank(n, fs, MorseParams(
        params.gamma, params.time_bandwidth, voices, fmin, fmax))
    got, expected = bank.efold_times(), efold_times_by_voice(bank)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_efold_times_peak_memory_is_bounded():
    """The filters go to the time domain a block of rows at a time, so
    the e-fold scan's peak stays under 3 x ``SCALE_BLOCK_BYTES`` (a
    block's complex input and output and its magnitudes), about 0.3 of
    the 67 x 32768 filter array; one whole ifft took 4 filter arrays."""
    bank = build_filterbank(32768, 250.0, MorseParams())
    tracemalloc.start()
    try:
        bank.efold_times()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * morse.SCALE_BLOCK_BYTES
