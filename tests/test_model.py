import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescat.errors import BundleFormatError, DataError
from wavescat.model import (Chamber, Channel, Group, Phase, PositionSample,
                            chamber_codes, load_session, save_session,
                            segment_by_chamber, stratified_folds)
from wavescat.synth import SynthSpec, generate_session

from conftest import make_session


# ---------------------------------------------------------------------------
# session bundle format
# ---------------------------------------------------------------------------

def test_minimal_bundle_roundtrip(tmp_path):
    session = make_session(np.arange(1000.0), np.arange(1000.0) * 2.0)
    path = tmp_path / "s.wscat"
    save_session(session, path)
    loaded = load_session(path)
    assert loaded.duration == pytest.approx(1.0)
    assert np.array_equal(loaded.hip.samples, session.hip.samples)
    assert np.array_equal(loaded.nac.samples, session.nac.samples)
    assert loaded.group is Group.FOOD and loaded.phase is Phase.POST
    assert loaded.track == session.track


def test_save_load_save_is_byte_identical(tmp_path):
    spec = SynthSpec(session_len=12.0, seed=42)
    session = generate_session(spec, "rat14", Group.FOOD, Phase.POST)
    p1, p2 = tmp_path / "a.wscat", tmp_path / "b.wscat"
    save_session(session, p1)
    save_session(load_session(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_channel_length_mismatch_reported(tmp_path):
    session = make_session(np.zeros(1000) + 0.5, np.zeros(1000) + 0.5)
    path = tmp_path / "s.wscat"
    save_session(session, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-9 - 8])  # drop one NAc sample + keep track short
    with pytest.raises(BundleFormatError, match="channel length mismatch"):
        load_session(path)


def test_header_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "s.wscat"
    path.write_bytes(b"NOTMAGIC\n")
    with pytest.raises(BundleFormatError, match="line 1"):
        load_session(path)
    session = make_session(np.zeros(10) + 1.0, np.zeros(10) + 1.0)
    save_session(session, path)
    blob = path.read_bytes().replace(b"group=food", b"group=tea")
    path.write_bytes(blob)
    with pytest.raises(BundleFormatError, match="unknown group token"):
        load_session(path)


def test_non_monotone_track_rejected(tmp_path):
    session = make_session(np.ones(100), np.ones(100), fs=100.0,
                           track=[PositionSample(0.0, Chamber.NULL),
                                  PositionSample(0.5, Chamber.REWARDED)])
    path = tmp_path / "s.wscat"
    save_session(session, path)
    blob = bytearray(path.read_bytes())
    # overwrite the second track time (t=0.5) with 0.0
    blob[-9:-1] = np.float64(0.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleFormatError, match="non-monotone"):
        load_session(path)


def test_unknown_chamber_code_offset(tmp_path):
    session = make_session(np.ones(100), np.ones(100), fs=100.0)
    path = tmp_path / "s.wscat"
    save_session(session, path)
    blob = bytearray(path.read_bytes())
    blob[-1] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleFormatError, match="unknown chamber code 9"):
        load_session(path)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_single_chamber_window_count(single_chamber_session):
    segments = segment_by_chamber(single_chamber_session, 1.0, 0.5)
    assert len(segments) == 19 * 2  # floor((10-1)/0.5)+1 windows x 2 channels
    assert {s.channel for s in segments} == {Channel.HIP, Channel.NAC}
    assert all(s.chamber is Chamber.REWARDED for s in segments)
    assert all(s.samples.size == 1000 for s in segments)


def test_transition_windows_dropped_against_bruteforce():
    track = [PositionSample(0.0, Chamber.REWARDED),
             PositionSample(5.0, Chamber.NULL)]
    session = make_session(np.zeros(10_000), np.zeros(10_000), track=track)
    segments = segment_by_chamber(session, 1.0, 1.0)
    hip_segs = [s for s in segments if s.channel is Channel.HIP]
    starts = {s.start_time: s.chamber for s in hip_segs}
    assert starts[4.0] is Chamber.REWARDED
    assert starts[5.0] is Chamber.NULL
    # brute force: per-sample scan of label constancy on the hop grid
    codes = session.chamber_per_sample()
    expected = sum(1 for start in range(0, 10_000 - 1000 + 1, 1000)
                   if len(set(codes[start:start + 1000])) == 1)
    assert len(hip_segs) == expected == 10


def test_all_three_chambers_appear():
    track = [PositionSample(0.0, Chamber.REWARDED),
             PositionSample(3.0, Chamber.NULL),
             PositionSample(6.0, Chamber.UNREWARDED)]
    session = make_session(np.zeros(9000), np.zeros(9000), track=track)
    segments = segment_by_chamber(session, 1.0, 0.5)
    assert ({s.chamber for s in segments}
            == {Chamber.REWARDED, Chamber.NULL, Chamber.UNREWARDED})


@given(st.integers(2, 40), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_segmentation_exhaustive_and_exclusive(n_changes, seed):
    rng = np.random.default_rng(seed)
    fs, dur = 100.0, 30.0
    times = np.sort(rng.uniform(0.0, dur - 0.2, n_changes - 1))
    track = [PositionSample(0.0, Chamber(int(rng.integers(0, 3))))]
    for t in times:
        if t > track[-1].t:
            track.append(PositionSample(float(t),
                                        Chamber(int(rng.integers(0, 3)))))
    session = make_session(np.zeros(int(dur * fs)), np.zeros(int(dur * fs)),
                           fs=fs, track=track)
    segments = segment_by_chamber(session, 1.0, 0.5)
    emitted = {s.start_time for s in segments if s.channel is Channel.HIP}
    codes = session.chamber_per_sample()
    win, hop = int(fs), int(0.5 * fs)
    expected = {start / fs for start in range(0, codes.size - win + 1, hop)
                if codes[start] >= 0
                and len(set(codes[start:start + win])) == 1}
    assert emitted == expected


def test_segmentation_errors(single_chamber_session):
    with pytest.raises(DataError):
        segment_by_chamber(single_chamber_session, 0.0, 0.5)
    with pytest.raises(DataError, match="two samples"):
        segment_by_chamber(single_chamber_session, 0.001, 0.5)
    with pytest.raises(DataError, match="longer than the session"):
        segment_by_chamber(single_chamber_session, 60.0, 0.5)


def test_chamber_codes_zero_order_hold():
    track = [PositionSample(0.5, Chamber.NULL)]
    codes = chamber_codes(track, 10.0, 20)
    assert np.all(codes[:5] == -1)
    assert np.all(codes[5:] == Chamber.NULL.value)


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def test_folds_exact_divisibility():
    folds = stratified_folds([0] * 100, 10, seed=1)
    assert sorted(len(f) for f in folds) == [10] * 10
    assert sorted(np.concatenate(folds).tolist()) == list(range(100))


def test_leave_one_out():
    folds = stratified_folds(list(range(7)), 7, seed=3)
    assert sorted(len(f) for f in folds) == [1] * 7


def test_stratified_55_45():
    keys = ["A"] * 55 + ["B"] * 45
    folds = stratified_folds(keys, 10, seed=9)
    for fold in folds:
        n_a = sum(1 for i in fold if keys[i] == "A")
        n_b = sum(1 for i in fold if keys[i] == "B")
        assert n_a in (5, 6) and n_b in (4, 5)


def test_fold_determinism_and_seed_sensitivity():
    keys = list("abcab" * 20)
    one = stratified_folds(keys, 5, seed=7)
    two = stratified_folds(keys, 5, seed=7)
    other = stratified_folds(keys, 5, seed=8)
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    assert any(not np.array_equal(a, b) for a, b in zip(one, other))


@given(st.integers(2, 12), st.integers(0, 2 ** 31), st.integers(20, 200))
@settings(max_examples=50, deadline=None)
def test_folds_partition_property(k, seed, n):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 4, n).tolist()
    folds = stratified_folds(keys, k, seed)
    merged = np.concatenate(folds)
    assert len(merged) == n
    assert len(set(merged.tolist())) == n
    for key in set(keys):
        sizes = [sum(1 for i in f if keys[i] == key) for f in folds]
        assert max(sizes) - min(sizes) <= 1


def test_fold_errors():
    with pytest.raises(DataError):
        stratified_folds([0, 1], 1, seed=0)
    with pytest.raises(DataError):
        stratified_folds([0, 1], 3, seed=0)
