import argparse
import hashlib
import inspect
import os
import re

import numpy as np
import pytest

from wavescat.classify import (ConfusionMatrix, confusion_to_csv, train_mlp,
                               train_svm_ova, train_tree)
from wavescat import cli
from wavescat.cli import OPTIONS, Config, build_parser, main
from wavescat.coherence import SmoothingSpec
from wavescat.model import (Chamber, Channel, PositionSample, load_session,
                            save_session)
from wavescat.pipeline import BankConfig, load_sessions
from wavescat.scattering import ScatteringParams, scatter
from wavescat.synth import SynthSpec

from conftest import make_session
from figdata import CLASS_NAMES, COUNTS, PRINTED_MACRO
from oracles import cwt_rows_by_window, wcoh_rows_by_window


def tree_digest(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(name.encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out", str(out), "--seed", "6",
                 "--delta", "0.9", "--session-len", "20",
                 "--rats-saline", "1", "--rats-morphine", "1",
                 "--rats-food", "1"]) == 0
    return out


def test_synth_missing_out_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1"])
    assert exc.value.code == 2


def test_seed_required_for_randomized_commands():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "/tmp/x"])
    assert exc.value.code == 2


def test_synth_writes_cohort_and_is_deterministic(tmp_path):
    args = ["synth", "--seed", "3", "--delta", "0.5", "--session-len", "10"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert len(list(a.glob("*.wscat"))) == 38
    assert tree_digest(a) == tree_digest(b)


def test_config_file_supplies_defaults_flags_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("delta=0.5\nsession-len=10\n")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", "--seed", "3", "--config", str(config),
                 "--out", str(a)]) == 0
    assert main(["synth", "--seed", "3", "--delta", "0.5",
                 "--session-len", "10", "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)
    # flag wins over config
    assert main(["synth", "--seed", "3", "--config", str(config),
                 "--delta", "0.1", "--session-len", "10",
                 "--out", str(c)]) == 0
    assert tree_digest(c) != tree_digest(a)


def test_features_cwt_row_count(tmp_path, single_chamber_session):
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    out = tmp_path / "out"
    assert main(["features", "cwt", "--data", str(data), "--out", str(out),
                 "--channel", "hip"]) == 0
    lines = (out / "features_cwt_hip.csv").read_text().splitlines()
    assert lines[0].startswith("# wavescat-config: cmd=features")
    assert len(lines) == 2 + 19  # config line + header + 19 windows
    header = lines[1].split(",")
    assert header[-4:] == ["group", "phase", "channel", "chamber"]


def test_features_wcoh_schema(tmp_path, single_chamber_session):
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    out = tmp_path / "out"
    assert main(["features", "wcoh", "--data", str(data),
                 "--out", str(out)]) == 0
    lines = (out / "features_wcoh.csv").read_text().splitlines()
    header = lines[1].split(",")
    n_scales = int(np.floor(10 * np.log2(100.0))) + 1
    assert len(header) == 2 * n_scales + 4
    assert header[0].startswith("coh_mean[")
    row = lines[2].split(",")
    assert row[-2] == "HIP-NAc"
    coh_values = [float(v) for v in row[:n_scales]]
    assert all(0.0 <= v <= 1.0 for v in coh_values)


def test_features_scatter_matches_library_bitwise(tmp_path,
                                                  single_chamber_session):
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    out = tmp_path / "out"
    assert main(["features", "scatter", "--data", str(data),
                 "--out", str(out)]) == 0
    lines = (out / "features_scatter.csv").read_text().splitlines()
    segments_in_order = []
    from wavescat.model import segment_by_chamber
    session = load_sessions([str(data / "rat1_food_post.wscat")])[0]
    segments_in_order = segment_by_chamber(session, 1.0, 0.5)
    params = ScatteringParams(fs=session.fs)
    for line, seg in zip(lines[2:], segments_in_order):
        got = np.array([float(v) for v in line.split(",")[:-4]])
        expected = scatter(seg.samples, params).values
        assert np.array_equal(got, expected)


def test_features_cwt_and_wcoh_match_per_window_oracle(tmp_path):
    rng = np.random.default_rng(21)
    track = [PositionSample(0.3, Chamber.NULL),
             PositionSample(4.1, Chamber.REWARDED),
             PositionSample(8.0, Chamber.UNREWARDED)]
    data = tmp_path / "data"
    data.mkdir()
    for rat in ("rat1", "rat2"):
        session = make_session(rng.standard_normal(3000),
                               rng.standard_normal(3000), fs=250.0,
                               track=track, rat=rat)
        save_session(session, data / f"{rat}_food_post.wscat")
    sessions = load_sessions(sorted(str(p) for p in data.iterdir()))
    bank = BankConfig().bank(4096, 250.0)
    runs = (("cwt", "features_cwt_hip.csv",
             lambda s: cwt_rows_by_window(s, Channel.HIP, 1.0, 0.5, bank)),
            ("wcoh", "features_wcoh.csv",
             lambda s: wcoh_rows_by_window(s, 1.0, 0.5, bank,
                                           SmoothingSpec())))
    for kind, name, oracle in runs:
        out = tmp_path / kind
        assert main(["features", kind, "--data", str(data),
                     "--out", str(out)]) == 0
        lines = (out / name).read_text().splitlines()[2:]
        rows, fallback = [], 0
        for session in sessions:
            session_rows, session_fallback = oracle(session)
            rows += session_rows
            fallback += session_fallback
        assert fallback > 0 and len(lines) == len(rows) > 0
        for line, row in zip(lines, rows):
            got = np.array([float(v) for v in line.split(",")[:-4]])
            assert got.tobytes() == row.tobytes()


def test_features_on_empty_dir_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    assert main(["features", "cwt", "--data", str(empty),
                 "--out", str(out)]) == 3
    assert "data error" in capsys.readouterr().err


def test_joint_stats_from_counts_reproduces_published_macro(tmp_path,
                                                            capsys):
    counts_csv = tmp_path / "counts.csv"
    confusion_to_csv(ConfusionMatrix(COUNTS, CLASS_NAMES), counts_csv)
    out = tmp_path / "out"
    assert main(["joint", "--stats-from", str(counts_csv), "--out", str(out),
                 "--seed", "0"]) == 0
    printed = capsys.readouterr().out
    assert f"macro_accuracy={PRINTED_MACRO:.8f}"[:24] in printed
    text = (out / "joint_stats.csv").read_text()
    footer = text.splitlines()[-1].split(",")
    assert abs(float(footer[3]) - PRINTED_MACRO) < 1e-6


def test_joint_end_to_end_small(tmp_path, small_cohort, capsys):
    out = tmp_path / "joint"
    code = main(["joint", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "7", "--k", "5", "--hop", "1.0",
                 "--max-iter", "100"])
    assert code == 0
    lines = (out / "joint_confusion.csv").read_text().splitlines()
    assert lines[1].split(",")[1:13] == CLASS_NAMES
    counts = np.array([[int(v) for v in line.split(",")[1:13]]
                       for line in lines[2:14]])
    emitted_tpr = np.array([float(line.split(",")[13])
                            for line in lines[2:14]])
    recomputed = 100.0 * np.diag(counts) / counts.sum(axis=1)
    assert np.allclose(recomputed, emitted_tpr, atol=1e-9)


def test_joint_missing_combinations_exits_3(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    spec = SynthSpec(session_len=10.0, seed=2, rats_saline=1,
                     rats_morphine=1, rats_food=1)
    from wavescat.model import Group, Phase
    from wavescat.synth import generate_session
    session = generate_session(spec, "rat20", Group.FOOD, Phase.POST)
    save_session(session, data / "rat20_food_post.wscat")
    out = tmp_path / "out"
    assert main(["joint", "--data", str(data), "--out", str(out),
                 "--seed", "1"]) == 3
    assert "combinations absent" in capsys.readouterr().err


def test_chambers_small_run(tmp_path, small_cohort, capsys):
    out = tmp_path / "chambers"
    code = main(["chambers", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "3", "--k", "3", "--model", "dt",
                 "--source", "hip", "--group", "food", "--hop", "1.0",
                 "--phase", "both"])
    assert code == 0
    table = (out / "chambers_accuracy.csv").read_text().splitlines()
    assert table[1] == "source,food"
    assert 0.0 <= float(table[2].split(",")[1]) <= 100.0
    assert (out / "confusion_hip_food.csv").exists()
    complexity = (out / "chambers_complexity.csv").read_text().splitlines()
    assert complexity[1] == "source,group,nodes,leaves,depth,grade"
    grade = complexity[2].split(",")[-1]
    assert grade in ("Low", "Mid", "High")


def test_report_outputs(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4000)
    session = make_session(x, x.copy(), track=[
        PositionSample(0.0, Chamber.REWARDED)])
    save_session(session, data / "rat1_food_post.wscat")
    out = tmp_path / "report"
    assert main(["report", "--data", str(data), "--out", str(out)]) == 0
    pgm = (out / "rat1_post_hip_scalogram.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")
    header = pgm.split(b"\n", 3)
    width, height = (int(v) for v in header[2].split())
    n_scales = int(np.floor(10 * np.log2(100.0))) + 1
    assert (width, height) == (4000, n_scales)
    # a self-coherent pair saturates the coherence image interior
    coh = (out / "rat1_post_wcoh.pgm").read_bytes()
    rows = np.frombuffer(coh.split(b"255\n", 1)[1], dtype=np.uint8)
    img = rows.reshape(n_scales, 4000)
    assert np.all(img[:, 1500:2500] == 255)
    assert (out / "rat1_post_wcoh_overlay.csv").exists()


def test_report_missing_rat_exits_3(tmp_path, small_cohort):
    out = tmp_path / "r"
    assert main(["report", "--data", str(small_cohort), "--out", str(out),
                 "--rat", "rat99"]) == 3


def test_chambers_mlp_model(tmp_path, small_cohort):
    out = tmp_path / "mlp"
    code = main(["chambers", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "3", "--k", "3", "--model", "mlp",
                 "--epochs", "30", "--hidden", "8", "--source", "hip",
                 "--group", "food", "--hop", "1.0", "--phase", "both"])
    assert code == 0
    assert (out / "chambers_accuracy.csv").exists()
    assert not (out / "chambers_complexity.csv").exists()  # dt only


def test_mlp_divergence_exits_4(tmp_path, small_cohort, capsys):
    out = tmp_path / "diverge"
    code = main(["chambers", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "3", "--k", "3", "--model", "mlp",
                 "--epochs", "200", "--learning-rate", "1e12",
                 "--source", "hip", "--group", "food", "--hop", "1.0",
                 "--phase", "both"])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["chambers", "--model", "mlp", "--hidden", "0", "--source", "hip",
      "--group", "food", "--phase", "both"], "hidden sizes"),
    (["chambers", "--model", "mlp", "--hidden", "-5", "--source", "hip",
      "--group", "food", "--phase", "both"], "hidden sizes"),
    (["joint", "--max-iter", "0"], "max_iter"),
])
def test_invalid_classifier_settings_exit_3(tmp_path, small_cohort, capsys,
                                            argv, message):
    out = tmp_path / "bad"
    code = main(argv + ["--data", str(small_cohort), "--out", str(out),
                        "--seed", "3", "--k", "3", "--hop", "1.0"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("row", ["a,3,x", "a,3"])
def test_bad_counts_row_exits_3_naming_the_line(tmp_path, capsys, row):
    counts = tmp_path / "counts.csv"
    counts.write_text(f"# hand-made\nclass,a,b\n{row}\nb,1,4\n")
    assert main(["joint", "--stats-from", str(counts),
                 "--out", str(tmp_path / "out"), "--seed", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "line 3" in err[0] and repr(row) in err[0]


def test_library_defaults_match_the_cli():
    """A default both OPTIONS and the library write down is one value."""
    args = build_parser().parse_args(["features", "scatter", "--data", "d",
                                      "--out", "o"])
    cfg = Config(args, {})
    assert cli._bank_config(cfg) == BankConfig()
    assert cli._smoothing(cfg) == SmoothingSpec()
    assert cli._scatter_params(cfg, ScatteringParams.fs) == ScatteringParams()
    checked = 0
    for train in (train_tree, train_mlp, train_svm_ova):
        for name, param in inspect.signature(train).parameters.items():
            if name in OPTIONS and name not in ("data", "seed"):
                default = OPTIONS[name].default
                if name == "hidden":
                    default = tuple(int(h) for h in default.split(","))
                assert param.default == default, (train.__name__, name)
                checked += 1
    assert checked == 8


def test_per_rat_needs_enough_rats(tmp_path, small_cohort, capsys):
    out = tmp_path / "perrat"
    code = main(["chambers", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "3", "--k", "3", "--model", "dt", "--per-rat",
                 "--source", "hip", "--group", "food", "--hop", "1.0",
                 "--phase", "both"])
    assert code == 3  # one food rat cannot fill three grouped folds
    assert "exceeds the number of groups" in capsys.readouterr().err


def test_session_order_is_canonical(small_cohort):
    paths = sorted(str(p) for p in small_cohort.glob("*.wscat"))
    forward = load_sessions(paths)
    backward = load_sessions(list(reversed(paths)))
    assert [s.rat_id for s in forward] == [s.rat_id for s in backward]
    assert [s.phase for s in forward] == [s.phase for s in backward]


def test_rerun_joint_byte_identical(tmp_path, small_cohort):
    args = ["joint", "--data", str(small_cohort), "--seed", "7", "--k", "3",
            "--hop", "1.0", "--max-iter", "50"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)


@pytest.mark.parametrize("kind", ["cwt", "scatter"])
def test_zero_hop_is_a_data_error(tmp_path, single_chamber_session, kind,
                                  capsys):
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    assert main(["features", kind, "--data", str(data),
                 "--out", str(tmp_path / "out"), "--hop", "0"]) == 3
    assert "hop must be positive" in capsys.readouterr().err


def test_window_longer_than_session_is_a_data_error(tmp_path,
                                                    single_chamber_session,
                                                    capsys):
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    assert main(["features", "wcoh", "--data", str(data),
                 "--out", str(tmp_path / "out"), "--window", "20"]) == 3
    assert "window longer than the session" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    (["synth", "--seed", "1"], "delta0.5\n", "expected key=value"),
    (["synth", "--seed", "1"], "delta=abc\n", "delta=abc"),
    (["synth", "--seed", "1"], "# typo\ndetla=0.5\n",
     "line 2: unknown key 'detla'"),
    (["chambers", "--seed", "1", "--data", "d"], "model=svm\n",
     "model=svm: not one of dt, mlp"),
    (["chambers", "--seed", "1", "--data", "d"], "per-rat=maybe\n",
     "per_rat=maybe"),
])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, command, text,
                                            message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out", str(tmp_path / "out"),
                        "--config", str(config)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert not (tmp_path / "out").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1", "--out", str(tmp_path / "out"),
              "--config", str(tmp_path / "absent.conf")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot read config file" in err


def test_config_keys_of_other_commands_are_allowed(tmp_path):
    config = tmp_path / "round_trip.conf"
    config.write_text("delta=0.5\nsession-len=10\nmodel=dt\nrat=rat14\n"
                      "max-iter=50\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--seed", "3", "--config", str(config),
                 "--out", str(a)]) == 0
    assert main(["synth", "--seed", "3", "--delta", "0.5",
                 "--session-len", "10", "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_required_options_may_come_from_the_config_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1"])
    assert exc.value.code == 2
    assert "--out is required" in capsys.readouterr().err
    config = tmp_path / "run.conf"
    out = tmp_path / "out"
    config.write_text(f"out={out}\nsession-len=10\nrats-saline=1\n"
                      "rats-morphine=1\nrats-food=1\n")
    assert main(["synth", "--seed", "1", "--config", str(config)]) == 0
    assert len(list(out.glob("*.wscat"))) == 6


def test_joint_without_data_or_stats_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["joint", "--seed", "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--data or --stats-from is required" in capsys.readouterr().err


def test_per_rat_from_config_matches_flag(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "5",
                 "--session-len", "20", "--fs", "250", "--rats-saline", "1",
                 "--rats-morphine", "1", "--rats-food", "2"]) == 0
    config = tmp_path / "run.conf"
    config.write_text("per-rat=true\n")
    args = ["chambers", "--data", str(data), "--seed", "3", "--k", "2",
            "--group", "food", "--source", "hip", "--phase", "both"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--per-rat", "--out", str(a)]) == 0
    assert main(args + ["--config", str(config), "--out", str(b)]) == 0
    assert tree_digest(a) == tree_digest(b)
    assert "per_rat=True" in (b / "chambers_accuracy.csv").read_text()


def help_defaults(command):
    """Option name -> the text in its --help brackets."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {}
    for action in sub.choices[command]._actions:
        match = re.search(r"\[([^\[\]]*)\]( \(required\))?$",
                          action.help or "")
        if match:
            found[action.dest] = match.group(1)
    return found


def config_values(out_dir):
    """Every key=value of the config lines written under ``out_dir``."""
    values = {}
    for path in out_dir.glob("*.csv"):
        first = path.read_text().splitlines()[0]
        assert first.startswith("# wavescat-config: ")
        for pair in first.split()[3:]:
            key, value = pair.split("=", 1)
            values[key] = value
    return values


@pytest.fixture(scope="module")
def every_chamber_cohort(tmp_path_factory):
    # chambers at its defaults needs the post sessions of every group to
    # visit all three chambers; with one 30 s rat per group this seed does
    out = tmp_path_factory.mktemp("every_chamber")
    assert main(["synth", "--out", str(out), "--seed", "73",
                 "--session-len", "30", "--fs", "250", "--rats-saline", "1",
                 "--rats-morphine", "1", "--rats-food", "1"]) == 0
    return out


@pytest.mark.parametrize("command, runs", [
    ("features", [["cwt"], ["wcoh"], ["scatter"]]),
    ("chambers", [["--seed", "1"],
                  ["--seed", "1", "--model", "mlp", "--source", "hip"]]),
    ("joint", [["--seed", "1"]]),
    ("report", [[]]),
])
def test_help_shows_the_defaults_used(tmp_path, every_chamber_cohort,
                                      command, runs):
    shown = help_defaults(command)
    checked = set()
    for i, extra in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main([command] + extra + ["--data", str(every_chamber_cohort),
                                         "--out", str(out)]) == 0
        for key, value in config_values(out).items():
            if f"--{key.replace('_', '-')}" in extra or key == "seed":
                continue
            assert shown[key] == value, key
            checked.add(key)
    # shuffle_labels is recorded only when set
    assert set(shown) - checked <= {"shuffle_labels"}


def test_synth_help_shows_the_defaults_used(tmp_path, monkeypatch):
    specs = []
    monkeypatch.setattr(cli, "generate_cohort",
                        lambda spec, out: specs.append(spec) or [])
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    shown = help_defaults("synth")
    assert set(shown) == {"delta", "session_len", "fs", "rats_saline",
                          "rats_morphine", "rats_food"}
    for key, value in shown.items():
        assert str(getattr(specs[0], key)) == value, key
