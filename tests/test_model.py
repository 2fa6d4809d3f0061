import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavescat.errors import BundleFormatError, DataError
from wavescat.model import (CHANNELS, TRACK, Chamber, Channel, Group, Phase,
                            TimeSeries, chamber_codes, chamber_windows,
                            load_session, save_session, segment_by_chamber,
                            stratified_folds)
from wavescat.synth import SynthSpec, generate_session

from conftest import make_session
from oracles import (chamber_codes_by_fix, stratified_folds_by_item,
                     track_by_record)


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
    assert loaded.track.dtype == TRACK
    assert np.array_equal(loaded.track, session.track)


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


@pytest.mark.parametrize("rat", ["", ".", "..", "../escaped", "a/b",
                                 "a\\b"])
def test_rat_id_that_is_not_a_plain_file_name_is_refused(tmp_path, rat):
    path = tmp_path / "s.wscat"
    save_session(make_session(np.zeros(10) + 1.0, np.zeros(10) + 1.0,
                              rat=rat), path)
    with pytest.raises(BundleFormatError) as exc:
        load_session(path)
    assert str(exc.value) == f"bad rat id {rat!r} (line 3)"


def test_time_series_rate_must_be_positive_and_finite():
    for fs in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="fs must be positive and finite"):
            TimeSeries(np.ones(4), fs, Channel.HIP)


def test_non_monotone_track_rejected(tmp_path):
    session = make_session(np.ones(100), np.ones(100), fs=100.0,
                           track=[(0.0, Chamber.NULL.value),
                                  (0.5, Chamber.REWARDED.value)])
    path = tmp_path / "s.wscat"
    save_session(session, path)
    blob = bytearray(path.read_bytes())
    # overwrite the second track time (t=0.5) with 0.0
    blob[-9:-1] = np.float64(0.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleFormatError, match="non-monotone"):
        load_session(path)
    # a NaN time is neither nonnegative nor increasing
    blob[-9:-1] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleFormatError, match="strictly increasing"):
        load_session(path)
    with pytest.raises(DataError, match="strictly increasing"):
        make_session(np.ones(100), np.ones(100), fs=100.0,
                     track=[(0.0, 1), (np.nan, 2)])


def test_unknown_chamber_code_offset(tmp_path):
    session = make_session(np.ones(100), np.ones(100), fs=100.0)
    path = tmp_path / "s.wscat"
    save_session(session, path)
    blob = bytearray(path.read_bytes())
    blob[-1] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(BundleFormatError, match="unknown chamber code 9"):
        load_session(path)
    for track, message in (([(0.0, 1), (0.5, 3)], "unknown chamber code 3"),
                           ([], "track is empty"),
                           ([(0.0,)], r"\(t, code\) pairs"),
                           ([[0.0, 1]], r"\(t, code\) pairs"),
                           ([0.0], r"\(t, code\) pairs"),
                           ([(0.0, 1), 0.5], r"\(t, code\) pairs"),
                           ([(0.0, 1.7)], "unknown chamber code 1.7"),
                           ([(0.0, 2), (0.5, 0.5)],
                            "unknown chamber code 0.5")):
        with pytest.raises(DataError, match=message):
            make_session(np.ones(100), np.ones(100), fs=100.0, track=track)


@st.composite
def bundles_with_track_faults(draw):
    """A 100 Hz bundle's bytes, its track's byte offset and record count,
    with bad codes (3-255) and times that tie or undercut the previous
    record's, or land anywhere in the recording, written over random
    records; one record may take both faults."""
    fs, n = 100.0, draw(st.integers(10, 300))
    cells = sorted(set(draw(st.lists(st.integers(0, n), min_size=1,
                                     max_size=12))))
    rec = np.array([(c / fs, draw(st.integers(0, 2))) for c in cells],
                   dtype=TRACK)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, rec.size - 1))
        kind = draw(st.sampled_from(["code", "time", "both"]))
        if kind in ("code", "both"):
            rec["c"][i] = draw(st.integers(3, 255))
        if kind in ("time", "both"):
            before = rec["t"][i - 1] if i else 0.0
            rec["t"][i] = draw(st.one_of(st.just(before),
                                         st.floats(0.0, before),
                                         st.floats(0.0, n / fs)))
    header = f"WSCAT1\nfs=100\nrat=rat1\ngroup=food\nphase=post\n" \
        f"nsamples={n}\nntrack={rec.size}\n\n".encode()
    body = np.ones(2 * n).astype("<f8").tobytes() + rec.tobytes()
    return header + body, len(header) + 16 * n, rec.size


@given(bundles_with_track_faults())
@settings(max_examples=300, deadline=None)
def test_track_faults_match_per_record_oracle(tmp_path_factory, drawn):
    blob, offset, m = drawn
    path = tmp_path_factory.mktemp("faults") / "s.wscat"
    path.write_bytes(blob)
    rec = np.frombuffer(blob, dtype=TRACK, count=m, offset=offset)
    try:
        expected = track_by_record(rec, offset)
    except BundleFormatError as exc:
        with pytest.raises(BundleFormatError) as got:
            load_session(path)
        assert str(got.value) == str(exc)
        assert got.value.offset == exc.offset
    else:
        assert load_session(path).track.tolist() == expected


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def test_single_chamber_window_count(single_chamber_session):
    labels = segment_by_chamber(single_chamber_session, 1.0, 0.5)
    assert len(labels) == 19 * 2  # floor((10-1)/0.5)+1 windows x 2 channels
    # the HIP record then the NAc record of each window
    assert [CHANNELS[c] for c in labels.channel] == ["HIP", "NAc"] * 19
    assert labels.start.tolist() == [500 * (i // 2) for i in range(38)]
    assert all(s.chamber == Chamber.REWARDED.value for s in labels)
    win, step, _, _ = chamber_windows(single_chamber_session, 1.0, 0.5)
    assert (win, step) == (1000, 500)


def test_transition_windows_dropped_against_bruteforce():
    track = [(0.0, Chamber.REWARDED.value), (5.0, Chamber.NULL.value)]
    session = make_session(np.zeros(10_000), np.zeros(10_000), track=track)
    labels = segment_by_chamber(session, 1.0, 1.0)
    hip = labels[labels.channel == CHANNELS.index("HIP")]
    starts = dict(zip(hip.start.tolist(), hip.chamber.tolist()))
    assert starts[4000] == Chamber.REWARDED.value
    assert starts[5000] == Chamber.NULL.value
    # brute force: per-sample scan of label constancy on the hop grid
    codes = session.chamber_per_sample()
    expected = sum(1 for start in range(0, 10_000 - 1000 + 1, 1000)
                   if len(set(codes[start:start + 1000])) == 1)
    assert len(hip) == expected == 10


def test_all_three_chambers_appear():
    track = [(0.0, Chamber.REWARDED.value), (3.0, Chamber.NULL.value),
             (6.0, Chamber.UNREWARDED.value)]
    session = make_session(np.zeros(9000), np.zeros(9000), track=track)
    labels = segment_by_chamber(session, 1.0, 0.5)
    assert ({Chamber(s.chamber) for s in labels}
            == {Chamber.REWARDED, Chamber.NULL, Chamber.UNREWARDED})


@given(st.integers(2, 40), st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_segmentation_exhaustive_and_exclusive(n_changes, seed):
    rng = np.random.default_rng(seed)
    fs, dur = 100.0, 30.0
    times = np.sort(rng.uniform(0.0, dur - 0.2, n_changes - 1))
    track = [(0.0, int(rng.integers(0, 3)))]
    for t in times:
        if t > track[-1][0]:
            track.append((float(t), int(rng.integers(0, 3))))
    session = make_session(np.zeros(int(dur * fs)), np.zeros(int(dur * fs)),
                           fs=fs, track=track)
    labels = segment_by_chamber(session, 1.0, 0.5)
    emitted = set(labels.start[labels.channel == CHANNELS.index("HIP")]
                  .tolist())
    codes = session.chamber_per_sample()
    win, hop = int(fs), int(0.5 * fs)
    expected = {start for start in range(0, codes.size - win + 1, hop)
                if codes[start] >= 0
                and len(set(codes[start:start + win])) == 1}
    assert emitted == expected


def test_segmentation_errors(single_chamber_session):
    for window_len, hop in ((0.0, 0.5), (np.nan, 0.5), (1.0, np.nan)):
        with pytest.raises(DataError, match="must be positive"):
            segment_by_chamber(single_chamber_session, window_len, hop)
    with pytest.raises(DataError, match="two samples"):
        segment_by_chamber(single_chamber_session, 0.001, 0.5)
    with pytest.raises(DataError, match="longer than the session"):
        segment_by_chamber(single_chamber_session, 60.0, 0.5)


def test_chamber_codes_zero_order_hold():
    track = np.array([(0.5, Chamber.NULL.value)], dtype=TRACK)
    codes = chamber_codes(track, 10.0, 20)
    assert np.all(codes[:5] == -1)
    assert np.all(codes[5:] == Chamber.NULL.value)


@st.composite
def tracks(draw):
    """Sample count, rate and (t, code) fixes; a fix may fall anywhere in
    a sample, up to the recording's end."""
    n = draw(st.integers(1, 400))
    fs = draw(st.sampled_from([7.3, 30.0, 250.0, 1000.0]))
    times = {min(n / fs, (cell + frac) / fs) for cell, frac in draw(
        st.lists(st.tuples(st.integers(0, n),
                           st.sampled_from([0.0, 0.2, 0.5, 0.9])),
                 min_size=1, max_size=10))}
    return n, fs, [(t, draw(st.integers(0, 2))) for t in sorted(times)]


@given(tracks())
@example((20, 10.0, [(0.55, 1), (1.2, 2)]))           # first fix after t=0
@example((20, 10.0, [(0.0, 0), (0.52, 1), (0.58, 2)]))  # two in one sample
@example((20, 10.0, [(0.0, 2), (1.9, 1)]))             # at the last sample
@example((20, 10.0, [(0.0, 2), (2.0, 0)]))             # at the end
@settings(max_examples=300, deadline=None)
def test_chamber_codes_equal_per_fix_oracle(drawn):
    n, fs, track = drawn
    session = make_session(np.zeros(n), np.zeros(n), fs=fs, track=track)
    codes = session.chamber_per_sample()
    assert codes.dtype == np.int8
    assert codes.tolist() == chamber_codes_by_fix(track, fs, n).tolist()


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


@pytest.mark.parametrize("k", range(2, 13))
def test_folds_equal_the_per_item_dealing_bitwise(k):
    rng = np.random.default_rng(k)
    for seed, n, strata in ((k, 13 * k, 1), (k + 1, 200, 4), (k + 2, 97, 9)):
        keys = rng.integers(0, strata, n).tolist()
        got = stratified_folds(keys, k, seed)
        expected = stratified_folds_by_item(keys, k, seed)
        assert len(got) == len(expected) == k
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_fold_errors():
    with pytest.raises(DataError):
        stratified_folds([0, 1], 1, seed=0)
    with pytest.raises(DataError):
        stratified_folds([0, 1], 3, seed=0)
