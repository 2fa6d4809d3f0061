import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescat import forked, morse, pipeline
from wavescat.coherence import SmoothingSpec
from wavescat.model import (CHANNELS, JOINT_GROUPS, JOINT_PHASES, Chamber,
                            Channel, Group, Phase, chamber_windows,
                            segment_by_chamber)
from wavescat.morse import MorseParams
from wavescat.pipeline import cwt_table, scatter_table, wcoh_table
from wavescat.scattering import ScatteringParams

from conftest import assert_no_child_left, make_session
from oracles import (chamber_windows_by_start, cwt_rows_by_window,
                     wcoh_rows_by_window)

# few voices keep each drawn example's transforms small
BANK = MorseParams(voices_per_octave=3)


def test_equal_length_sessions_share_one_filter_bank(monkeypatch):
    rng = np.random.default_rng(4)
    sessions = [make_session(rng.standard_normal(2000),
                             rng.standard_normal(2000), fs=250.0,
                             rat=f"rat{i}") for i in range(3)]
    builds = []
    original = morse.build_filterbank

    def counting_build(n, fs, *args):
        builds.append((n, fs))
        return original(n, fs, *args)

    monkeypatch.setattr(morse, "build_filterbank", counting_build)
    params = MorseParams()
    cwt_table(sessions, Channel.HIP, 1.0, 1.0, params)
    cwt_table(sessions, Channel.NAC, 1.0, 1.0, params)
    wcoh_table(sessions, 1.0, 1.0, params, SmoothingSpec())
    assert builds == [(2048, 250.0)]
    # the cache key is the padded length, so any length up to 2048 hits it
    bank = params.bank(1025, 250.0)
    assert bank is params.bank(2048, 250.0)
    assert builds == [(2048, 250.0)]
    assert bank.params is params and bank._efold_times is not None
    assert params == MorseParams()      # the cache takes no part in ==


@st.composite
def tracked_sessions(draw, min_s, max_s):
    """A 250 Hz session with a random track, whose first fix may come
    after t = 0, and a window and hop from one sample upward."""
    fs = 250.0
    n = int(draw(st.floats(min_s, max_s)) * fs)
    times = sorted(set(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                     max_size=6))))
    track = [(t / fs, draw(st.integers(0, 2))) for t in times]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    session = make_session(rng.standard_normal(n), rng.standard_normal(n),
                           fs=fs, track=track)
    window_len = draw(st.integers(2, min(n, 400))) / fs
    hop = draw(st.one_of(st.just(1), st.integers(1, 600))) / fs
    return session, window_len, hop


@given(tracked_sessions(0.1, 20.0))
@settings(max_examples=300, deadline=None)
def test_chamber_windows_equal_per_start_oracle(drawn):
    session, window_len, hop = drawn
    win, step, starts, codes = chamber_windows(session, window_len, hop)
    expected_win, expected = chamber_windows_by_start(session, window_len,
                                                      hop)
    assert win == expected_win
    # a hop longer than the session counts as the session length
    assert step == min(int(round(hop * session.fs)),
                       session.hip.samples.size)
    assert starts.tolist() == [start for start, _ in expected]
    assert [Chamber(c) for c in codes.tolist()] == [c for _, c in expected]


def _assert_rows_equal(table, rows):
    expected = np.array(rows)
    assert table.matrix.shape == expected.shape
    assert table.matrix.tobytes() == expected.tobytes()


# sessions under 4.8 s lie inside the lowest voice's cone of influence
# (its e-folding time is 2.45 s), so every window has fallback cells
@given(tracked_sessions(1.0, 4.8))
@settings(max_examples=40, deadline=None)
def test_cwt_table_equals_per_window_oracle(drawn):
    session, window_len, hop = drawn
    bank = BANK.bank(session.hip.samples.size, session.fs)
    rows, fallback = cwt_rows_by_window(session, Channel.NAC, window_len,
                                        hop, bank)
    if not rows:
        return
    assert fallback > 0
    _assert_rows_equal(cwt_table([session], Channel.NAC, window_len, hop,
                                 BANK), rows)


@given(tracked_sessions(1.0, 4.8))
@settings(max_examples=40, deadline=None)
def test_wcoh_table_equals_per_window_oracle(drawn):
    session, window_len, hop = drawn
    bank = BANK.bank(session.hip.samples.size, session.fs)
    rows, fallback = wcoh_rows_by_window(session, window_len, hop, bank,
                                         SmoothingSpec())
    if not rows:
        return
    assert fallback > 0
    _assert_rows_equal(wcoh_table([session], window_len, hop, BANK,
                                  SmoothingSpec()), rows)


def test_wcoh_table_peak_memory_is_bounded():
    """Two compact scalograms, the smoothing and the window sums of one
    session stay within 7.5 complex scalograms, which leaves no room for
    a padded transform or a second cumulative sum in the scale boxcar."""
    n, fs = 20_000, 250.0
    rng = np.random.default_rng(8)
    session = make_session(rng.standard_normal(n), rng.standard_normal(n),
                           fs=fs, track=[(0.0, 0), (30.0, 2)])
    params = MorseParams()
    bank = params.bank(n, fs)             # built before tracing
    scalogram_bytes = bank.n_scales * n * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        wcoh_table([session], 1.0, 0.5, params, SmoothingSpec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * scalogram_bytes


def _labels(table):
    """(group, phase, channel, chamber, start, rat id) of every table row."""
    return [(JOINT_GROUPS[g], JOINT_PHASES[p], CHANNELS[c], Chamber(ch), start,
             rat) for g, p, c, ch, start, rat in table.segments.tolist()]


def test_every_table_row_carries_its_window_labels():
    rng = np.random.default_rng(12)
    track = [(0.3, 1), (2.1, 2), (4.0, 0)]
    sessions = [make_session(rng.standard_normal(1500),
                             rng.standard_normal(1500), fs=250.0,
                             track=track, rat=rat, group=group, phase=phase)
                for rat, group, phase in [
                    ("r", Group.FOOD, Phase.POST),
                    ("rat-with-a-longer-id", Group.MORPHINE, Phase.PRE),
                    ("rat2", Group.SALINE, Phase.POST)]]
    windows = []                    # (session, start, chamber) per window
    for s in sessions:
        _, _, starts, codes = chamber_windows(s, 1.0, 0.5)
        windows += [(s, start, Chamber(code))
                    for start, code in zip(starts.tolist(), codes.tolist())]
    for table, channel in [
            (cwt_table(sessions, Channel.NAC, 1.0, 0.5, BANK), "NAc"),
            (wcoh_table(sessions, 1.0, 0.5, BANK, SmoothingSpec()),
             "HIP-NAc")]:
        assert len(table.segments) == table.matrix.shape[0]
        assert _labels(table) == [
            (s.group, s.phase, channel, chamber, start, s.rat_id)
            for s, start, chamber in windows]
    # every window twice, the HIP row then the NAc row
    table = scatter_table(sessions, 1.0, 0.5, ScatteringParams(fs=250.0))
    assert _labels(table) == [
        (s.group, s.phase, channel, chamber, start, s.rat_id)
        for s, start, chamber in windows for channel in ("HIP", "NAc")]
    assert table.segments.tolist() == [
        record for s in sessions
        for record in segment_by_chamber(s, 1.0, 0.5).tolist()]


def test_scatter_windows_are_views_of_the_session(monkeypatch,
                                                  single_chamber_session):
    session = single_chamber_session
    passed = []

    def capture(windows, params):
        passed.extend(windows)
        return np.zeros((len(windows), 1)), [()], windows

    monkeypatch.setattr(pipeline, "feature_matrix", capture)
    table = scatter_table([session], 1.0, 0.5, ScatteringParams())
    assert len(passed) == len(table.segments) == 38
    samples = (session.hip.samples, session.nac.samples)
    for window, label in zip(passed, table.segments.tolist()):
        channel, start = label[2], label[4]
        assert np.shares_memory(window, samples[channel])
        assert not np.shares_memory(window, samples[1 - channel])
        assert np.array_equal(window, samples[channel][start:start + 1000])


def test_table_labels_hold_a_few_bytes_a_row():
    """Beside its matrix, a table holds one fixed-width label record per
    row (28 bytes for four-character rat ids), not an object per row."""
    n, fs = 5000, 250.0
    rng = np.random.default_rng(9)
    sessions = [make_session(rng.standard_normal(n), rng.standard_normal(n),
                             fs=fs, track=[(0.0, 0), (10.0, 2)],
                             rat=f"rat{i}") for i in range(2)]
    # the bank and the modules numpy imports on first use, before tracing
    cwt_table(sessions, Channel.HIP, 1.0, 1.0, BANK)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        table = cwt_table(sessions, Channel.HIP, 1.0, 1 / fs, BANK)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = table.matrix.shape[0]
    assert rows > 9000
    assert held - table.matrix.nbytes <= 32 * rows


@pytest.mark.parametrize("cpus", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_tables_do_not_depend_on_the_cpu_count(monkeypatch, forks,
                                                       n, cpus):
    """Split over forked children by session, the CWT and coherence
    tables keep every bit of a one-CPU run, also with fewer sessions
    than CPUs."""
    rng = np.random.default_rng(8)
    sessions = [make_session(rng.standard_normal(1500 + 250 * i),
                             rng.standard_normal(1500 + 250 * i), fs=250.0,
                             track=[(0.0, i % 3), (3.1, (i + 1) % 3)],
                             rat=f"rat{i}") for i in range(n)]

    def tables():
        return [cwt_table(sessions, Channel.HIP, 1.0, 0.5, BANK),
                cwt_table(sessions, Channel.NAC, 1.0, 0.5, BANK),
                wcoh_table(sessions, 1.0, 0.5, BANK, SmoothingSpec())]

    monkeypatch.setattr(forked, "cpus", lambda: 1)
    serial = tables()
    assert forks == []
    monkeypatch.setattr(forked, "cpus", lambda: cpus)
    split = tables()
    assert len(forks) == 3 * (min(cpus, n) - 1)
    for got, expected in zip(split, serial, strict=True):
        assert got.matrix.tobytes() == expected.matrix.tobytes()
        assert got.segments.tobytes() == expected.segments.tobytes()
        assert got.columns == expected.columns
    assert_no_child_left()
