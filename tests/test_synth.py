import numpy as np
import pytest

from wavescat.cwt import cwt
from wavescat.errors import DataError
from wavescat.model import (JOINT_GROUPS, JOINT_PHASES, Chamber, Group,
                            Phase, load_session, segment_by_chamber)
from wavescat.morse import MorseParams
from wavescat.synth import SynthSpec, generate_cohort, generate_session


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(delta=1.5)
    for session_len in (5.0, np.nan):
        with pytest.raises(DataError, match="session_len"):
            SynthSpec(session_len=session_len)
    for fs in (100.0, np.nan):
        with pytest.raises(DataError, match="fs must be"):
            SynthSpec(fs=fs)
    for size in ({"session_len": 1e308}, {"fs": 1e308},
                 {"session_len": 1e16}):
        with pytest.raises(DataError, match="too many for int64"):
            SynthSpec(**size)
    for name in ("rats_saline", "rats_morphine", "rats_food"):
        with pytest.raises(DataError, match=f"{name} must be non-negative"):
            SynthSpec(**{name: -2})
    assert [g for _, g in SynthSpec(rats_food=0).rats()].count(Group.FOOD) == 0
    with pytest.raises(DataError, match="at least one rat"):
        SynthSpec(rats_saline=0, rats_morphine=0, rats_food=0)


def test_cohort_layout_and_naming(tmp_path):
    spec = SynthSpec(session_len=10.0, seed=1)
    paths = generate_cohort(spec, tmp_path)
    assert len(paths) == 38  # (7 + 6 + 6) rats x 2 phases
    names = sorted(p.split("/")[-1] for p in paths)
    assert "rat1_saline_pre.wscat" in names
    assert "rat14_food_post.wscat" in names
    for path in paths:
        session = load_session(path)
        stem = path.split("/")[-1].removesuffix(".wscat")
        assert stem == (f"{session.rat_id}_{session.group.value}"
                        f"_{session.phase.value}")


def test_generation_deterministic_bytes(tmp_path):
    spec = SynthSpec(session_len=10.0, seed=7, rats_saline=1,
                     rats_morphine=1, rats_food=1)
    a = generate_cohort(spec, tmp_path / "a")
    b = generate_cohort(spec, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_sessions_independent_of_cohort_composition():
    big = SynthSpec(session_len=10.0, seed=3)
    small = SynthSpec(session_len=10.0, seed=3, rats_saline=1)
    a = generate_session(big, "rat9", Group.MORPHINE, Phase.POST)
    b = generate_session(small, "rat9", Group.MORPHINE, Phase.POST)
    assert np.array_equal(a.hip.samples, b.hip.samples)


def test_track_is_strictly_increasing_and_covers_start():
    spec = SynthSpec(session_len=60.0, seed=5)
    session = generate_session(spec, "rat2", Group.SALINE, Phase.PRE)
    times = session.track["t"].tolist()
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] <= spec.session_len


def test_all_chambers_visited_across_cohort():
    spec = SynthSpec(session_len=60.0, seed=11, rats_saline=1,
                     rats_morphine=1, rats_food=1)
    seen = set()
    for rid, group in spec.rats():
        session = generate_session(spec, rid, group, Phase.POST)
        seen |= {Chamber(c) for c in session.track["c"].tolist()}
    assert seen == {Chamber.REWARDED, Chamber.NULL, Chamber.UNREWARDED}


def band_power(session, fmin, fmax, sample_mask=None):
    bank = MorseParams().bank(session.hip.samples.size, session.fs)
    s = cwt(session.hip, bank)
    band = (s.scale_axis >= fmin) & (s.scale_axis <= fmax)
    mag = np.abs(s.coefficients[band])
    if sample_mask is not None:
        mag = mag[:, sample_mask]
    return float(mag.mean())


def test_delta_one_rewarded_theta_exceeds_pre():
    spec = SynthSpec(delta=1.0, seed=42)
    post = generate_session(spec, "rat14", Group.FOOD, Phase.POST)
    pre = generate_session(spec, "rat14", Group.FOOD, Phase.PRE)
    rewarded = post.chamber_per_sample() == Chamber.REWARDED.value
    ratio = band_power(post, 4.0, 12.0, rewarded) / band_power(pre, 4.0, 12.0)
    assert ratio >= 3.0


def test_delta_zero_sessions_statistically_flat():
    spec = SynthSpec(delta=0.0, session_len=30.0, seed=9)
    food = generate_session(spec, "rat14", Group.FOOD, Phase.POST)
    saline = generate_session(spec, "rat1", Group.SALINE, Phase.PRE)
    ratio = band_power(food, 4.0, 12.0) / band_power(saline, 4.0, 12.0)
    assert 0.5 < ratio < 2.0
    for session in (food, saline):
        assert session.hip.samples.std() == pytest.approx(1.0, rel=0.05)


def test_signature_power_scales_with_delta():
    powers = []
    for delta in (0.0, 0.5, 1.0):
        spec = SynthSpec(delta=delta, session_len=30.0, seed=13)
        session = generate_session(spec, "rat8", Group.MORPHINE, Phase.POST)
        powers.append(band_power(session, 50.0, 70.0))
    assert powers[0] < powers[1] < powers[2]


def test_segments_from_synth_sessions_carry_labels():
    spec = SynthSpec(session_len=30.0, seed=21)
    session = generate_session(spec, "rat15", Group.FOOD, Phase.PRE)
    labels = segment_by_chamber(session, 1.0, 0.5)
    assert len(labels)
    assert all(JOINT_GROUPS[s.group] is Group.FOOD
               and JOINT_PHASES[s.phase] is Phase.PRE for s in labels)
    assert all(s.rat == "rat15" for s in labels)


@pytest.mark.slow
def test_accuracy_monotone_in_delta():
    from wavescat.classify import (KFoldJob, confusion_stats, run_kfold,
                                   train_tree)
    from wavescat.model import Channel
    from wavescat.pipeline import cwt_table, joint_dataset

    accuracies = []
    for delta in (0.0, 0.5, 1.0):
        spec = SynthSpec(delta=delta, session_len=30.0, seed=17,
                         rats_saline=2, rats_morphine=2, rats_food=2)
        sessions = [generate_session(spec, rid, g, ph)
                    for rid, g in spec.rats()
                    for ph in (Phase.PRE, Phase.POST)]
        # non-overlapping hop: with hop < window, neighboring windows
        # share samples and a memorizing model lifts above chance at
        # delta=0 through fold leakage
        tables = [cwt_table(sessions, ch, 1.0, 1.0, MorseParams())
                  for ch in (Channel.HIP, Channel.NAC)]
        matrix = np.vstack([t.matrix for t in tables])
        segments = np.concatenate([t.segments for t in tables])
        from wavescat.pipeline import FeatureTable
        table = FeatureTable(matrix, tables[0].columns, segments)
        data = joint_dataset(table)
        [result] = run_kfold([KFoldJob(data, lambda d, _: train_tree(d))],
                             5, seed=17)
        accuracies.append(confusion_stats(result.matrix)["micro"])
    assert accuracies[0] < accuracies[1] + 3.0
    assert accuracies[1] < accuracies[2] + 3.0
    assert accuracies[2] > 80.0
    assert abs(accuracies[0] - 100.0 / 12) < 6.0
