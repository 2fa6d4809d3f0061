import os

import numpy as np
import pytest

from wavescat import forked, scattering
from wavescat.errors import BundleFormatError, DataError, NumericalError
from wavescat.model import (CHANNELS, JOINT_GROUPS, JOINT_PHASES, Chamber,
                            Group, Phase, label_dtype)
from wavescat.pipeline import FeatureTable, table_to_csv
from wavescat.scattering import ScatteringParams, feature_matrix, path_names

from conftest import assert_no_child_left
from oracles import full_grid_scatter, layer_energies

FS = 1000.0
PARAMS = ScatteringParams(t=0.5, q1=8, q2=1, fs=FS)


def tone(freq, n=1000, amp=1.0):
    return amp * np.cos(2 * np.pi * freq * np.arange(n) / FS)


def bandlimited_noise(seed, n=1000, lo=5.0, hi=50.0):
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    freqs = np.fft.rfftfreq(n, 1 / FS)
    band = (freqs >= lo) & (freqs <= hi)
    spectrum[band] = (rng.standard_normal(band.sum())
                      + 1j * rng.standard_normal(band.sum()))
    x = np.fft.irfft(spectrum, n=n)
    return x / x.std()


def order_of(path):
    return len(path)


def scatter_one(x, params=PARAMS):
    """The scattering row and paths of one window."""
    matrix, paths, _ = feature_matrix([x], params)
    return matrix[0], paths


def test_constant_input():
    values, _ = scatter_one(3.7 * np.ones(1000))
    assert values[0] == pytest.approx(3.7, abs=1e-9)
    higher = values[1:]
    assert np.all(higher < 1e-6 * 3.7 + 1e-9)


def test_path_ordering_contract():
    _, paths = scatter_one(np.zeros(1000))
    orders = [order_of(p) for p in paths]
    assert orders == sorted(orders)
    assert paths[0] == ()
    first = [p[0] for p in paths if order_of(p) == 1]
    assert first == sorted(first, reverse=True)
    seconds = [p for p in paths if order_of(p) == 2]
    assert all(p[1] < p[0] for p in seconds)
    for f1 in sorted({p[0] for p in seconds}, reverse=True):
        f2s = [p[1] for p in seconds if p[0] == f1]
        assert f2s == sorted(f2s, reverse=True)
    # stable across calls
    assert paths == scatter_one(np.ones(1000))[1]


def test_tone_first_order_ridge():
    values, paths = scatter_one(tone(32.0))
    first = [(i, p[0]) for i, p in enumerate(paths) if order_of(p) == 1]
    best_i, best_f = max(first, key=lambda ip: values[ip[0]])
    nearest = min(first, key=lambda ip: abs(ip[1] - 32.0))[1]
    assert best_f == nearest


def test_am_tone_second_order_ridge():
    x = tone(32.0) * (1.0 + 0.5 * tone(4.0))
    values, paths = scatter_one(x)
    first = [(i, p[0]) for i, p in enumerate(paths) if order_of(p) == 1]
    carrier = max(first, key=lambda ip: values[ip[0]])[1]
    seconds = [(i, p) for i, p in enumerate(paths)
               if order_of(p) == 2 and p[0] == carrier]
    best = max(seconds, key=lambda ip: values[ip[0]])[1]
    f2_grid = sorted({p[1] for _, p in seconds})
    nearest = min(f2_grid, key=lambda f: abs(f - 4.0))
    assert best[1] == nearest


def oracle_inputs(n, fs):
    """White noise, a tone near Nyquist plus noise, a random walk and a
    square wave, each n samples at rate fs."""
    rng = np.random.default_rng(n)
    t = np.arange(n) / fs
    return [rng.standard_normal(n),
            np.cos(2 * np.pi * 0.45 * fs * t) + 0.1 * rng.standard_normal(n),
            np.cumsum(rng.standard_normal(n)),
            np.where(np.sin(2 * np.pi * 3.3 * t) >= 0, 1.0, -1.0)]


# Each layer runs on its own decimated grid; the full-length transform is
# the reference. At 250 and 500 Hz the top voices reach Nyquist, so some
# grids cannot shrink. The bound is relative to each layer's largest
# value, because some S2 paths are at the oracle's own rounding level.
@pytest.mark.parametrize("params, n", [
    (ScatteringParams(), 1000),
    (ScatteringParams(), 700),
    (ScatteringParams(), 2000),
    (ScatteringParams(fs=250.0), 250),
    (ScatteringParams(fs=500.0), 500),
    (ScatteringParams(q1=4, t=0.25), 1000),
])
def test_decimated_layers_match_full_grid_oracle(params, n):
    for x in oracle_inputs(n, params.fs):
        values, paths = scatter_one(x, params)
        expected, expected_energies = full_grid_scatter(x, params, True)
        orders = np.array([len(p) for p in paths])
        for order in range(3):
            got, want = values[orders == order], expected[orders == order]
            if want.size:
                assert np.abs(got - want).max() <= 1e-4 * want.max()
        np.testing.assert_allclose(layer_energies(x, params),
                                   expected_energies, rtol=1e-6, atol=0.0)


def test_energy_dissipation():
    for seed in range(10):
        x = np.random.default_rng(seed).standard_normal(1000)
        e_in, e1, e2 = layer_energies(x, PARAMS)
        assert e_in >= e1 >= e2


def test_non_expansiveness():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(1000)
        y = rng.standard_normal(1000)
        fx = scatter_one(x)[0]
        fy = scatter_one(y)[0]
        assert (np.linalg.norm(fx - fy)
                <= 1.05 * np.linalg.norm(x - y))


def test_shift_stability():
    tau = int(PARAMS.t * FS / 8)
    for seed in range(5):
        x = bandlimited_noise(seed)
        fx = scatter_one(x)[0]
        fs_ = scatter_one(np.roll(x, tau))[0]
        rel = np.linalg.norm(fs_ - fx) / np.linalg.norm(fx)
        assert rel < 0.1


def test_determinism_bitwise():
    x = bandlimited_noise(3)
    a = scatter_one(x)[0]
    b = scatter_one(x.copy())[0]
    assert np.array_equal(a, b)


def test_feature_matrix_matches_scatter_bitwise():
    xs = [bandlimited_noise(s) for s in range(4)]
    matrix, paths, _ = feature_matrix(xs, PARAMS)
    for row, x in zip(matrix, xs):
        alone, alone_paths = scatter_one(x)
        assert np.array_equal(row, alone)
        assert paths == alone_paths


def test_feature_matrix_row_independence_under_permutation():
    xs = [bandlimited_noise(s) for s in range(5)]
    matrix, _, _ = feature_matrix(xs, PARAMS)
    perm = [3, 1, 4, 0, 2]
    permuted, _, _ = feature_matrix([xs[i] for i in perm], PARAMS)
    assert np.array_equal(permuted, matrix[perm])


@pytest.mark.parametrize("cpus", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_feature_matrix_rows_do_not_depend_on_the_cpu_count(
        monkeypatch, forks, n, cpus):
    """Split over forked children, the rows keep every bit of a one-CPU
    run, also with fewer segments than CPUs."""
    windows = [bandlimited_noise(s) for s in range(n)]
    monkeypatch.setattr(scattering, "PARALLEL_SEGMENTS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    serial, paths, _ = feature_matrix(windows, PARAMS)
    assert forks == []
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    matrix, block_paths, returned = feature_matrix(windows, PARAMS)
    assert len(forks) == min(cpus, n) - 1
    assert matrix.tobytes() == serial.tobytes()
    assert block_paths == paths
    assert all(a is b for a, b in zip(returned, windows, strict=True))
    assert_no_child_left()


@pytest.mark.parametrize("in_child, error, match", [
    (True, ChildProcessError, r"^scattering rows 2-3 failed: "
                              r"ValueError: no transform here$"),
    (False, ValueError, "no transform here"),
])
def test_a_failing_block_raises_once_every_child_has_exited(
        monkeypatch, in_child, error, match):
    """A child's failure names its rows; a failure in the parent's own
    block still waits for every child."""
    parent = os.getpid()
    transform = scattering._Engine.transform

    def failing(self, x):
        if (os.getpid() != parent) == in_child:
            raise ValueError("no transform here")
        return transform(self, x)

    monkeypatch.setattr(scattering._Engine, "transform", failing)
    monkeypatch.setattr(scattering, "PARALLEL_SEGMENTS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    with pytest.raises(error, match=match):
        feature_matrix([bandlimited_noise(s) for s in range(7)], PARAMS)
    assert_no_child_left()


@pytest.mark.parametrize("raised, error", [
    (DataError, DataError), (BundleFormatError, DataError),
    (NumericalError, NumericalError), (MemoryError, MemoryError),
])
def test_a_childs_data_numerical_or_memory_error_keeps_its_class(
        monkeypatch, raised, error):
    """Raised in a forked child, these reach the caller as their class
    (a subclass as its base) with the child's message, as on one CPU."""
    parent = os.getpid()
    transform = scattering._Engine.transform

    def failing(self, x):
        if os.getpid() != parent:
            raise raised("no transform here")
        return transform(self, x)

    monkeypatch.setattr(scattering._Engine, "transform", failing)
    monkeypatch.setattr(scattering, "PARALLEL_SEGMENTS", 1)
    monkeypatch.setattr(forked, "cpus", lambda: 3)
    with pytest.raises(error) as caught:
        feature_matrix([bandlimited_noise(s) for s in range(7)], PARAMS)
    assert type(caught.value) is error
    assert str(caught.value) == "no transform here"
    assert_no_child_left()


def test_fewer_segments_than_the_floor_fork_no_child(monkeypatch, forks):
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    xs = [bandlimited_noise(s) for s in range(scattering.PARALLEL_SEGMENTS)]
    feature_matrix(xs[1:], PARAMS)
    assert forks == []
    feature_matrix(xs, PARAMS)
    assert len(forks) == 1
    assert_no_child_left()


def test_feature_matrix_validation():
    with pytest.raises(DataError, match="no segments"):
        feature_matrix([], PARAMS)
    with pytest.raises(DataError, match="ragged"):
        feature_matrix([np.zeros(1000), np.zeros(900)], PARAMS)


def test_each_window_must_be_1d_and_may_be_a_list():
    # a 2-D window's len() is its row count, not its length
    with pytest.raises(DataError, match="segment must be 1-D"):
        feature_matrix([np.zeros((2, 1000))], PARAMS)
    x = bandlimited_noise(2)
    matrix, _, windows = feature_matrix([x.tolist()], PARAMS)
    assert np.array_equal(matrix[0], scatter_one(x)[0])
    assert windows[0].dtype == np.float64


def test_segment_shorter_than_t_rejected():
    with pytest.raises(DataError, match="invariance scale"):
        scatter_one(np.zeros(400))


def test_a_filter_zero_on_every_bin_is_a_data_error():
    # at 64 voices per octave, the layer-1 filters near 2.5 Hz are too
    # narrow to reach any bin of a 1 s, 1 kHz segment's 1 Hz grid
    with pytest.raises(DataError, match=r"layer-1 filter at 2\.544 Hz is "
                       r"zero on every bin of the 1000-point grid"):
        scatter_one(np.zeros(1000), ScatteringParams(q1=64, fs=FS))


def test_params_validation():
    for t in (-1.0, np.nan):
        with pytest.raises(DataError, match="invariance scale"):
            ScatteringParams(t=t)
    with pytest.raises(DataError):
        ScatteringParams(q1=1, q2=4)
    for gamma in (0.0, -3.0, np.nan):
        with pytest.raises(DataError, match="gamma must be positive"):
            ScatteringParams(gamma=gamma)


def test_band_defaults_follow_invariance_scale():
    assert PARAMS.band_min == pytest.approx(2.0)
    assert ScatteringParams(t=0.25).band_min == pytest.approx(4.0)


def test_features_csv(tmp_path):
    xs = [bandlimited_noise(0), bandlimited_noise(1)]
    labels = np.array(
        [(JOINT_GROUPS.index(Group.FOOD), JOINT_PHASES.index(Phase.POST),
          CHANNELS.index("HIP"), chamber.value, 0, "rat1")
         for chamber in (Chamber.REWARDED, Chamber.NULL)],
        label_dtype(["rat1"]))
    matrix, paths, _ = feature_matrix(xs, PARAMS)
    out = tmp_path / "features.csv"
    table_to_csv(FeatureTable(matrix, path_names(paths), labels), out,
                 "cmd=test")
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "S0"
    assert header[1].startswith("S1[")
    assert header[-4:] == ["group", "phase", "channel", "chamber"]
    assert len(lines) == 2 + 2
    row = lines[2].split(",")
    assert row[-4:] == ["food", "post", "HIP", "Rewarded"]
    assert float(row[0]) == matrix[0, 0]


def test_path_names_format():
    names = path_names([(), (8.123456,), (32.0, 4.0)])
    assert names == ["S0", "S1[8.123]", "S2[32,4]"]
