import argparse
import hashlib
import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wavescat.classify import (ConfusionMatrix, KFoldJob, confusion_stats,
                               confusion_to_csv, train_mlp, train_svm_ova,
                               train_tree)
from wavescat import cli, csvfile, forked, pipeline, scattering
from wavescat.cli import OPTIONS, Config, build_parser, main
from wavescat.coherence import SmoothingSpec
from wavescat.csvfile import write_csv
from wavescat.model import (Chamber, Channel, Group, Phase, save_session,
                            segment_by_chamber)
from wavescat.morse import MorseParams
from wavescat.pipeline import (chamber_dataset, cwt_table, load_sessions,
                               wcoh_table)
from wavescat.scattering import ScatteringParams, feature_matrix
from wavescat.synth import SynthSpec

from conftest import assert_no_child_left, make_session
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
    session = load_sessions([str(data / "rat1_food_post.wscat")])[0]
    labels = segment_by_chamber(session, 1.0, 0.5)
    assert len(lines[2:]) == len(labels)
    samples = (session.hip.samples, session.nac.samples)
    params = ScatteringParams(fs=session.fs)
    for line, label in zip(lines[2:], labels):
        got = np.array([float(v) for v in line.split(",")[:-4]])
        window = samples[label.channel][label.start:label.start + 1000]
        assert np.array_equal(got, feature_matrix([window], params)[0][0])


def test_features_cwt_and_wcoh_match_per_window_oracle(tmp_path):
    rng = np.random.default_rng(21)
    track = [(0.3, Chamber.NULL.value), (4.1, Chamber.REWARDED.value),
             (8.0, Chamber.UNREWARDED.value)]
    data = tmp_path / "data"
    data.mkdir()
    for rat in ("rat1", "rat2"):
        session = make_session(rng.standard_normal(3000),
                               rng.standard_normal(3000), fs=250.0,
                               track=track, rat=rat)
        save_session(session, data / f"{rat}_food_post.wscat")
    sessions = load_sessions(sorted(str(p) for p in data.iterdir()))
    bank = MorseParams().bank(4096, 250.0)
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


@pytest.mark.parametrize("argv", [["joint", "--seed", "1"],
                                  ["features", "scatter"]])
def test_a_scattering_gamma_of_zero_exits_3_with_one_line(
        tmp_path, small_cohort, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--data", str(small_cohort), "--out", str(out),
                 "--gamma", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: gamma must be positive"]
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [["joint", "--seed", "1"],
                                  ["features", "scatter", "--fmin", "1"]])
def test_a_scattering_band_below_one_over_t_exits_3_naming_fmax_and_t(
        tmp_path, small_cohort, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--data", str(small_cohort), "--out", str(out),
                 "--fmax", "1.5"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: --fmax 1.5 must exceed 1/T = 2 Hz, the "
                   "scattering band's lower edge (--t 0.5)"]
    assert not out.exists() or list(out.iterdir()) == []


def test_joint_stats_from_counts_reproduces_published_macro(tmp_path,
                                                            capsys):
    counts_csv = tmp_path / "counts.csv"
    matrix = ConfusionMatrix(COUNTS, CLASS_NAMES)
    confusion_to_csv(matrix, confusion_stats(matrix), counts_csv)
    out = tmp_path / "out"
    assert main(["joint", "--stats-from", str(counts_csv), "--out", str(out),
                 "--seed", "0"]) == 0
    printed = capsys.readouterr().out
    assert f"macro_accuracy={PRINTED_MACRO:.8f}"[:24] in printed
    text = (out / "joint_stats.csv").read_text()
    footer = text.splitlines()[-1].split(",")
    assert abs(float(footer[3]) - PRINTED_MACRO) < 1e-6


def test_joint_stats_warning_is_printed_once_as_one_line(tmp_path, capsys):
    """A class without test rows is warned about once per matrix, as one
    ``warning:`` line without Python's source location."""
    counts = np.array(COUNTS)
    counts[2] = 0
    counts_csv = tmp_path / "counts.csv"
    write_csv(counts_csv, ["class"] + CLASS_NAMES,
              [[name] + row for name, row in zip(CLASS_NAMES,
                                                 counts.tolist())])
    assert main(["joint", "--seed", "1", "--stats-from", str(counts_csv),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: classes without test rows excluded from macro accuracy: "
        f"{[CLASS_NAMES[2]]}"]


def test_joint_needs_a_seed_only_to_run_the_pipeline(tmp_path, small_cohort,
                                                      capsys):
    counts_csv = tmp_path / "counts.csv"
    matrix = ConfusionMatrix(COUNTS, CLASS_NAMES)
    confusion_to_csv(matrix, confusion_stats(matrix), counts_csv)
    out = tmp_path / "stats"
    assert main(["joint", "--stats-from", str(counts_csv),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    first = (out / "joint_stats.csv").read_text().splitlines()[0]
    assert "seed=" not in first
    with pytest.raises(SystemExit) as exc:
        main(["joint", "--data", str(small_cohort),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "wavescat joint: error: --seed is required"]
    assert not (tmp_path / "run").exists()


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


def test_joint_warns_once_when_machines_miss_tol(tmp_path, small_cohort,
                                                capsys):
    args = ["joint", "--data", str(small_cohort), "--seed", "7", "--k", "3",
            "--hop", "1.0", "--max-iter", "1"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"warning: [1-9]\d* of 36 SVM machines stopped above "
                        r"tol=0\.001 \(largest gap \S+\)", err[0])
    assert main(args + ["--out", str(tmp_path / "b"), "--tol", "1"]) == 0
    assert capsys.readouterr().err == ""


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
    session = make_session(x, x.copy(),
                           track=[(0.0, Chamber.REWARDED.value)])
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
    (["joint", "--tol", "-1"], "tol must be non-negative"),
])
def test_invalid_classifier_settings_exit_3(tmp_path, small_cohort, capsys,
                                            argv, message):
    out = tmp_path / "bad"
    code = main(argv + ["--data", str(small_cohort), "--out", str(out),
                        "--seed", "3", "--k", "3", "--hop", "1.0"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


IDENTITY = ("identity smoothing makes coherence trivially 1; widen the "
            "time or scale kernel")
MORSE_RANGE = "gamma=%s and time_bandwidth=%s leave floating-point range"


@pytest.mark.parametrize("argv, message", [
    (["synth", "--rats-food", "-2"], "rats_food must be non-negative, got -2"),
    (["features", "wcoh", "--c-t", "-4"],
     "c_t must be non-negative, got -4.0"),
    (["chambers", "--source", "wcoh", "--c-s", "-0.5"],
     "c_s must be non-negative, got -0.5"),
    (["report", "--c-t", "-4"], "c_t must be non-negative, got -4.0"),
    (["synth", "--rats-saline", "0", "--rats-morphine", "0",
      "--rats-food", "0"], "the cohort needs at least one rat"),
    (["chambers", "--source", "all", "--c-t", "-4"],
     "c_t must be non-negative, got -4.0"),
    (["report", "--threshold", "1.5"],
     "threshold must lie in [0, 1], got 1.5"),
    (["report", "--threshold", "-0.1"],
     "threshold must lie in [0, 1], got -0.1"),
    (["report", "--c-t", "0", "--c-s", "0"], IDENTITY),
    (["chambers", "--source", "all", "--group", "food", "--c-t", "0",
      "--c-s", "0"], IDENTITY),
    (["features", "wcoh", "--c-s", "1e308"],
     "c_s=1e+308 gives a smoothing width of inf, too large for int64"),
    (["report", "--c-t", "1e308"],
     "c_t=1e+308 gives a smoothing width of inf, too large for int64"),
    (["synth", "--session-len", "1e308"],
     "session_len * fs gives inf samples, too many for int64"),
    (["synth", "--fs", "1e308"],
     "session_len * fs gives inf samples, too many for int64"),
    # Morse shapes outside float64: the peak frequency overflows, then
    # the normalization; scattering derives each layer's tb from gamma
    (["features", "cwt", "--gamma", "1e-5"], MORSE_RANGE % ("1e-05", "60")),
    (["features", "cwt", "--tb", "1e308"], MORSE_RANGE % ("3", "1e+308")),
    (["chambers", "--group", "food", "--tb", "1e308"],
     MORSE_RANGE % ("3", "1e+308")),
    (["report", "--gamma", "1e-5"], MORSE_RANGE % ("1e-05", "60")),
    (["features", "scatter", "--gamma", "1e-5"],
     MORSE_RANGE % ("1e-05", "7.3866e+07")),
    (["features", "scatter", "--gamma", "1e-300"],
     MORSE_RANGE % ("1e-300", "7.3866e+302")),
])
def test_negative_counts_and_smoothing_exit_3(tmp_path, small_cohort, capsys,
                                             argv, message):
    """Each is refused before the command writes its first file."""
    data = [] if argv[0] == "synth" else ["--data", str(small_cohort)]
    out = tmp_path / "out"
    assert main(argv + data + ["--out", str(out), "--seed", "1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {message}"]
    assert not out.exists() or not any(out.iterdir())


def test_a_chambers_run_failing_on_its_second_group_writes_nothing(
        tmp_path, small_cohort, capsys):
    """Food is classified before morphine turns out to lack a chamber;
    its results are neither written nor printed."""
    out = tmp_path / "out"
    assert main(["chambers", "--data", str(small_cohort), "--out", str(out),
                 "--seed", "1", "--source", "hip"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "data error: chambers absent for group morphine")
    assert captured.out == ""
    assert list(out.iterdir()) == []


def config_lines(out_dir):
    """File name -> the config line of every output under ``out_dir``."""
    lines = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_bytes().decode(errors="replace").splitlines()
        # a CSV's first line, a PGM's header comment
        lines[path.name] = text[1 if path.suffix == ".pgm" else 0]
    return lines


@pytest.mark.parametrize("argv, files, pairs", [
    (["report", "--c-t", "1.5", "--threshold", "0.3"], 8,
     ["c_s=0.6", "c_t=1.5", "threshold=0.3"]),
    (["chambers", "--seed", "1", "--group", "food", "--source", "all"], 5,
     ["c_s=0.6", "c_t=2.0", "source=all"]),
])
def test_every_output_of_a_run_carries_one_config_line(
        tmp_path, small_cohort, argv, files, pairs):
    out = tmp_path / "out"
    assert main(argv + ["--data", str(small_cohort), "--out", str(out)]) == 0
    lines = config_lines(out)
    assert len(lines) == files
    assert len(set(lines.values())) == 1, lines
    line = next(iter(lines.values()))
    assert line.startswith(f"# wavescat-config: cmd={argv[0]} ")
    assert set(pairs) <= set(line.split()[3:])


def test_report_refuses_a_rat_id_that_leaves_out(tmp_path, capsys):
    """A bundle whose rat id holds a path exits 3 before any output, so
    nothing is written beside or above ``--out``."""
    data = tmp_path / "data"
    data.mkdir()
    save_session(make_session(np.zeros(1000) + 1.0, np.zeros(1000) + 1.0,
                              rat="../escaped", phase=Phase.PRE),
                 data / "escaped_food_pre.wscat")
    out = tmp_path / "out2" / "inner"
    assert main(["report", "--data", str(data), "--out", str(out),
                 "--phase", "pre"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["data error: bad rat id '../escaped' (line 3)"]
    assert not (tmp_path / "out2").exists()


def test_an_unwritable_out_exits_2_with_one_line(tmp_path, small_cohort,
                                                capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    with pytest.raises(SystemExit) as exc:
        main(["report", "--data", str(small_cohort), "--out", str(taken)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wavescat report: error: ")
    assert "File exists" in err[0] and str(taken) in err[0]


def test_a_failed_writer_child_exits_2_and_leaves_no_file(
        tmp_path, small_cohort, capsys, monkeypatch):
    """A forked writer that fails surfaces like any unwritable output:
    one stderr line, exit 2, no temp file and no child left behind."""
    parent = os.getpid()
    format_rows = csvfile._format

    def failing_in_children(rows, start, stop):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device")
        return format_rows(rows, start, stop)

    monkeypatch.setattr(csvfile, "_format", failing_in_children)
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["report", "--data", str(small_cohort), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "No space left on device" in err[0]
    assert err[0].startswith("wavescat report: error: formatting rows ")
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_scattering_child_exits_2_and_leaves_no_file(
        tmp_path, single_chamber_session, capsys, monkeypatch):
    """A forked scattering block that fails ends the run like a failed
    writer: one stderr line naming its rows, exit 2, no file and no
    child left behind."""
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    parent = os.getpid()
    transform = scattering._Engine.transform

    def failing_in_children(self, x):
        if os.getpid() != parent:
            raise ValueError("no transform here")
        return transform(self, x)

    monkeypatch.setattr(scattering._Engine, "transform", failing_in_children)
    monkeypatch.setattr(forked, "cpus", lambda: 2)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["features", "scatter", "--data", str(data), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["wavescat features: error: scattering rows 19-37 failed: "
                   "ValueError: no transform here"]
    assert list(out.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on_cpus(cpus, argv, code=0):
    """Run the CLI in a child pinned to the first ``cpus`` CPUs of this
    process, or to all of them for 0; check that it exits with ``code``
    and return its stderr."""
    run = ("import os, sys\n"
           "cpus = sorted(os.sched_getaffinity(0))\n"
           "os.sched_setaffinity(0, cpus[:int(sys.argv[1]) or None])\n"
           "from wavescat.cli import main\n"
           "sys.exit(main(sys.argv[2:]))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", run, str(cpus), *argv],
                          env=env, timeout=120, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    assert done.returncode == code, done.stderr
    return done.stderr


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_report_bytes_do_not_depend_on_the_cpu_count(tmp_path,
                                                     small_cohort):
    """``report`` pinned to one CPU and run on every CPU writes the same
    bytes; its CSVs are large enough to be split across CPUs."""
    for cpus in ("1", "0"):
        run_on_cpus(cpus, ["report", "--data", str(small_cohort),
                           "--voices", "4", "--out", str(tmp_path / cpus)])
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "0"))
    assert len([n for n in names if n.endswith(".csv")]) == 5
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "0")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_scatter_bytes_do_not_depend_on_the_cpu_count(tmp_path,
                                                      small_cohort):
    """``features scatter`` pinned to one CPU and run on every CPU, whose
    rows are split across CPUs, writes the same CSV bytes."""
    for cpus in ("1", "0"):
        run_on_cpus(cpus, ["features", "scatter", "--data",
                           str(small_cohort), "--out", str(tmp_path / cpus)])
    serial = (tmp_path / "1" / "features_scatter.csv").read_bytes()
    assert serial.count(b"\n") > 100
    assert (tmp_path / "0" / "features_scatter.csv").read_bytes() == serial


def test_per_rat_keeps_long_rat_ids_apart(tmp_path):
    """Two 40-character rat ids that differ only after the 30th character
    stay two rats: the run equals one under short ids of the same order."""
    rng = np.random.default_rng(30)
    signals = [rng.standard_normal((2, 5000)) for _ in range(2)]
    track = [(0.0, 0), (6.0, 1), (12.0, 2)]
    prefix = "rat-" + "0" * 26
    outputs = []
    for ids in ([prefix + "0000000001", prefix + "0000000002"],
                ["ratA", "ratB"]):
        data, out = tmp_path / ids[0], tmp_path / f"out_{ids[0]}"
        data.mkdir()
        for rat, (hip, nac) in zip(ids, signals):
            save_session(make_session(hip, nac, fs=250.0, track=track,
                                      rat=rat),
                         data / f"{rat}_food_post.wscat")
        assert main(["chambers", "--data", str(data), "--out", str(out),
                     "--seed", "3", "--k", "2", "--group", "food",
                     "--source", "hip", "--hop", "1.0", "--per-rat"]) == 0
        outputs.append(tree_digest(out))
    assert len(prefix + "0000000001") == 40
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("row", ["a,3,x", "a,3", "a,3.7,1", "a,-0.5,1",
                                 "a,1e30,1", "a,9223372036854775807,1"])
def test_bad_counts_row_exits_3_naming_the_line(tmp_path, capsys, row):
    counts = tmp_path / "counts.csv"
    counts.write_text(f"# hand-made\nclass,a,b\n{row}\nb,1,4\n")
    assert main(["joint", "--stats-from", str(counts),
                 "--out", str(tmp_path / "out"), "--seed", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "line 3" in err[0] and repr(row) in err[0]


@pytest.mark.parametrize("content", [None, b"class,a\n\xff\xfe,1\n"])
def test_unreadable_stats_file_exits_3_naming_it(tmp_path, capsys, content):
    counts = tmp_path / "counts.csv"
    if content is not None:
        counts.write_bytes(content)
    assert main(["joint", "--stats-from", str(counts),
                 "--out", str(tmp_path / "out"), "--seed", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(counts) in err[0]


def test_library_defaults_match_the_cli():
    """A default both OPTIONS and the library write down is one value."""
    args = build_parser().parse_args(["features", "scatter", "--data", "d",
                                      "--out", "o"])
    cfg = Config(args, {})
    assert cli._bank_config(cfg) == MorseParams()
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


@pytest.mark.parametrize("k", ["0", "1"])
def test_per_rat_k_below_two_exits_3(tmp_path, small_cohort, capsys, k):
    code = main(["chambers", "--data", str(small_cohort),
                 "--out", str(tmp_path / "perrat"), "--seed", "3", "--k", k,
                 "--model", "dt", "--per-rat", "--source", "hip",
                 "--group", "food", "--hop", "1.0", "--phase", "both"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "k must be at least 2" in err[0]


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


def test_an_overlong_window_or_hop_is_bounded_before_the_cast(
        tmp_path, single_chamber_session, capsys):
    """A 1e308 s window is longer than the session; a 1e308 s hop gives
    the one window at start 0 that a 100 s hop gives."""
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    args = ["features", "cwt", "--data", str(data)]
    assert main(args + ["--out", str(tmp_path / "w"),
                        "--window", "1e308"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "data error: window longer than the session"]
    tables = []
    for hop in ("100", "1e308"):
        out = tmp_path / hop
        assert main(args + ["--out", str(out), "--hop", hop]) == 0
        lines = (out / "features_cwt_hip.csv").read_text().splitlines()
        assert f"hop={float(hop)}" in lines[0]
        tables.append(lines[1:])
    assert len(tables[0]) == 2 and tables[0] == tables[1]


@pytest.mark.parametrize("command, text, message", [
    (["synth", "--seed", "1"], "delta0.5\n", "expected key=value"),
    (["synth", "--seed", "1"], "delta=abc\n", "delta=abc"),
    (["synth", "--seed", "1"], "# typo\ndetla=0.5\n",
     "line 2: unknown key 'detla'"),
    (["chambers", "--seed", "1", "--data", "d"], "model=svm\n",
     "model=svm: not one of dt, mlp"),
    (["chambers", "--seed", "1", "--data", "d"], "per-rat=maybe\n",
     "per_rat=maybe"),
    (["synth", "--seed", "1"], "session-len=nan\n",
     "session_len=nan: not a finite number"),
    (["synth", "--seed", "1"], "fs=inf\n", "fs=inf: not a finite number"),
    (["features", "cwt", "--data", "d"], "window=nan\n",
     "window=nan: not a finite number"),
    (["features", "cwt", "--data", "d"], "hop=-inf\n",
     "hop=-inf: not a finite number"),
    (["features", "wcoh", "--data", "d"], "c-s=NaN\n",
     "c_s=NaN: not a finite number"),
    (["joint", "--seed", "1", "--data", "d"], "c=nan\n",
     "c=nan: not a finite number"),
    (["synth"], "seed=-1\n", "seed=-1: not a non-negative integer: '-1'"),
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


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--seed", "1", "--session-len", "nan"], "--session-len"),
    (["synth", "--seed", "1", "--fs", "inf"], "--fs"),
    (["features", "cwt", "--data", "d", "--window", "nan"], "--window"),
    (["features", "cwt", "--data", "d", "--hop", "inf"], "--hop"),
    (["features", "wcoh", "--data", "d", "--c-s", "nan"], "--c-s"),
    (["joint", "--seed", "1", "--data", "d", "--c", "nan"], "--c"),
    (["report", "--data", "d", "--c-t=-inf"], "--c-t"),
])
def test_non_finite_flags_exit_2_naming_the_option(tmp_path, capsys, argv,
                                                   flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    value = argv[-1].rpartition("=")[2]
    # the caster's own message, as a config file would report it
    assert f"argument {flag}: not a finite number: {value!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["synth"], ["joint", "--data", "d"], ["chambers", "--data", "d"]])
def test_negative_seed_flag_exits_2_naming_the_option(tmp_path, capsys,
                                                      argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: not a non-negative integer: '-1'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_session_beyond_any_address_space_exits_3(tmp_path, capsys):
    # 2e17 samples, 1.4 EiB a channel: the first allocation fails at once
    out = tmp_path / "out"
    assert main(["synth", "--seed", "1", "--session-len", "1e15",
                 "--fs", "200", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory: ")
    assert len(err.splitlines()) == 1
    assert not out.exists() or not os.listdir(out)


def test_a_bank_beyond_any_address_space_exits_3(tmp_path, capsys):
    # 664 M voices of 32768 bins, 158 TiB: the filter array is allocated
    # first, so the bank fails at once
    data = tmp_path / "data"
    data.mkdir()
    save_session(make_session(np.ones(20_000), np.ones(20_000)),
                 data / "rat1_food_post.wscat")
    out = tmp_path / "out"
    assert main(["features", "cwt", "--voices", "100000000",
                 "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory: ")
    assert len(err.splitlines()) == 1
    assert not out.exists() or not os.listdir(out)


def test_malformed_sizes_flag_gives_the_caster_message(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chambers", "--seed", "1", "--data", "d", "--hidden", "x",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --hidden: not comma-separated integers: 'x'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, conf", [
    ([","], ""), ([""], ""), ([" , "], ""), ([], "hidden = ,\n"),
], ids=["comma", "empty", "spaced-comma", "config-file"])
def test_hidden_sizes_with_no_size_are_refused(tmp_path, capsys, flag,
                                               conf):
    # an MLP without a hidden layer would record "hidden=", a config
    # line that --config refuses
    config = tmp_path / "run.conf"
    config.write_text(conf)
    with pytest.raises(SystemExit) as exc:
        main(["chambers", "--seed", "1", "--data", "d", "--model", "mlp",
              "--config", str(config), "--out", str(tmp_path / "out")]
             + (["--hidden", *flag] if flag else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    value = flag[0] if flag else ","
    assert f"not comma-separated integers: {value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, conf", [
    ([" 8,4\n"], ""),        # a flag holding a space and a newline
    ([], "hidden= 08 , 4\n"),
], ids=["flag", "config-file"])
def test_hidden_sizes_are_recorded_in_one_form(tmp_path, small_cohort,
                                                flag, conf):
    config = tmp_path / "run.conf"
    config.write_text(conf)
    out = tmp_path / "out"
    argv = ["chambers", "--data", str(small_cohort), "--out", str(out),
            "--seed", "3", "--k", "3", "--model", "mlp", "--epochs", "5",
            "--source", "hip", "--group", "food", "--hop", "1.0",
            "--phase", "both", "--config", str(config)]
    assert main(argv + (["--hidden", *flag] if flag else [])) == 0
    for path in sorted(out.iterdir()):
        lines = path.read_text().splitlines()
        config_lines = [line for line in lines if line.startswith("#")]
        assert config_lines == [lines[0]], path.name
        assert " hidden=8,4 " in lines[0], path.name


@pytest.mark.parametrize("rate", [b"nan", b"inf"])
def test_non_finite_bundle_rate_exits_3_naming_it(tmp_path, capsys, rate):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "rat1_food_post.wscat"
    save_session(make_session(np.ones(2000), np.ones(2000)), path)
    blob = path.read_bytes()
    assert b"\nfs=1000\n" in blob
    path.write_bytes(blob.replace(b"\nfs=1000\n", b"\nfs=" + rate + b"\n", 1))
    assert main(["features", "cwt", "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    # line 2 is the fs header line, after the magic
    assert len(err) == 1
    assert f"fs must be positive and finite, got {rate.decode()} (line 2)" \
        in err[0]


def test_time_smoothing_wider_than_the_signal(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(1)
    session = make_session(rng.standard_normal(4000),
                           rng.standard_normal(4000))
    save_session(session, data / "rat1_food_post.wscat")
    # 100 cycles at 1 Hz span 100 000 samples, 25 times the signal
    for argv in (["report"], ["features", "wcoh"]):
        out = tmp_path / argv[-1]
        assert main(argv + ["--data", str(data), "--out", str(out),
                            "--c-t", "100"]) == 0
    lines = (tmp_path / "report" / "rat1_post_wcoh.csv").read_text()
    coh = np.array([row.split(",")[1:] for row in lines.splitlines()[2:]],
                   dtype=float)
    assert np.all((coh >= 0.0) & (coh <= 1.0))


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


@pytest.mark.parametrize("command, required", [
    ("joint", {"out": "(required)", "data": "(required unless --stats-from)",
               "seed": "(required unless --stats-from)"}),
    ("chambers", {"out": "(required)", "data": "(required)",
                  "seed": "(required)"}),
    ("report", {"out": "(required)", "data": "(required)"}),
])
def test_help_marks_what_a_command_needs(command, required):
    """Every option a command refuses to run without says so in its
    --help; joint's data and seed are needed only without a counts CSV."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    marks = {action.dest: re.search(r"\(required[^()]*\)$", action.help)
             for action in sub.choices[command]._actions if action.help}
    assert {dest: mark.group(0) for dest, mark in marks.items()
            if mark} == required


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


@pytest.fixture(scope="module")
def every_session_cohort(tmp_path_factory):
    # with one 60 s rat per group, every session of this seed, pre and
    # post, visits all three chambers
    out = tmp_path_factory.mktemp("every_session")
    assert main(["synth", "--out", str(out), "--seed", "16",
                 "--session-len", "60", "--fs", "250", "--rats-saline", "1",
                 "--rats-morphine", "1", "--rats-food", "1"]) == 0
    return out


@pytest.fixture(scope="module")
def every_session_tables(every_session_cohort):
    """Each chambers source's table over every session of the cohort."""
    sessions = load_sessions(sorted(str(p) for p in
                                    every_session_cohort.glob("*.wscat")))
    params = MorseParams()
    return sessions, [cwt_table(sessions, Channel.HIP, 1.0, 1.0, params),
                      cwt_table(sessions, Channel.NAC, 1.0, 1.0, params),
                      wcoh_table(sessions, 1.0, 1.0, params,
                                 SmoothingSpec())]


@pytest.mark.parametrize("group", ["food", "all"])
@pytest.mark.parametrize("phase", ["pre", "post", "both"])
def test_chambers_transforms_only_the_selected_sessions(
        tmp_path, every_session_cohort, every_session_tables, monkeypatch,
        phase, group):
    # cwt calls are recorded in this process, so none may run in a child
    monkeypatch.setattr(forked, "cpus", lambda: 1)
    transforms = []
    original_cwt = pipeline.cwt
    monkeypatch.setattr(pipeline, "cwt", lambda x, bank: (
        transforms.append(x) or original_cwt(x, bank)))
    folds = []
    original_kfold = cli.run_kfold

    def recording_kfold(jobs, *args, **kwargs):
        results = original_kfold(jobs, *args, **kwargs)
        folds.extend((job.data, result.matrix)
                     for job, result in zip(jobs, results))
        return results

    monkeypatch.setattr(cli, "run_kfold", recording_kfold)
    assert main(["chambers", "--data", str(every_session_cohort),
                 "--out", str(tmp_path / "out"), "--seed", "1", "--k", "3",
                 "--hop", "1.0", "--phase", phase, "--group", group]) == 0
    phases = {"pre": (Phase.PRE,), "post": (Phase.POST,),
              "both": (Phase.PRE, Phase.POST)}[phase]
    groups = ([Group.FOOD, Group.MORPHINE, Group.SALINE]
              if group == "all" else [Group.FOOD])
    sessions, tables = every_session_tables
    selected = [s for s in sessions if s.phase in phases and s.group in groups]
    assert len(transforms) == 4 * len(selected)
    # oracle: tables over every session, then filtered by chamber_dataset
    expected = [chamber_dataset(table, g, phases)
                for table in tables for g in groups]
    assert len(folds) == len(expected)
    fit = lambda data, seed: train_tree(data, 12, 1)
    for (data, matrix), oracle in zip(folds, expected):
        assert data.features.tobytes() == oracle.features.tobytes()
        assert data.labels.tolist() == oracle.labels.tolist()
        [result] = original_kfold([KFoldJob(oracle, fit)], 3, 1)
        assert np.array_equal(matrix.counts, result.matrix.counts)


@pytest.mark.parametrize("argv, group", [
    (["--phase", "pre", "--group", "food"], "food"),
    (["--group", "morphine"], "morphine"),
    (["--phase", "pre"], "food, morphine, saline"),
    (["--phase", "both", "--group", "saline"], "saline"),
])
def test_chambers_with_no_selected_session_exits_3(
        tmp_path, single_chamber_session, monkeypatch, capsys, argv, group):
    """The error names the phase selection and every selected group."""
    data = tmp_path / "data"
    data.mkdir()
    save_session(single_chamber_session, data / "rat1_food_post.wscat")
    monkeypatch.setattr(pipeline, "cwt", None)   # nothing is transformed
    assert main(["chambers", "--data", str(data), "--out",
                 str(tmp_path / "out"), "--seed", "1", *argv]) == 3
    err = capsys.readouterr().err.splitlines()
    phase = {"pre": "pre", "both": "pre or post"}.get(argv[1], "post")
    assert err == [f"data error: no {phase} sessions for the selected "
                   f"groups: {group}"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_chambers_bytes_do_not_depend_on_the_cpu_count(tmp_path,
                                                       every_chamber_cohort):
    """``chambers --model dt`` pinned to one CPU and run on every CPU,
    whose tables and tree cells are split across CPUs, writes the same
    bytes."""
    for cpus in ("1", "0"):
        run_on_cpus(cpus, ["chambers", "--data", str(every_chamber_cohort),
                           "--seed", "1", "--model", "dt", "--source", "all",
                           "--out", str(tmp_path / cpus)])
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "0"))
    assert len(names) == 11            # 9 confusions, accuracy, complexity
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "0")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_chambers_mlp_bytes_do_not_depend_on_the_cpu_count(
        tmp_path, every_chamber_cohort):
    """``chambers --model mlp``, whose folds are split across CPUs with
    the BLAS pool at one thread, writes the same bytes and stderr on one
    CPU and on every CPU."""
    errs = [run_on_cpus(cpus, ["chambers", "--data",
                               str(every_chamber_cohort), "--seed", "1",
                               "--model", "mlp", "--source", "all",
                               "--epochs", "100", "--out",
                               str(tmp_path / cpus)])
            for cpus in ("1", "0")]
    assert errs[0] == errs[1]
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "0"))
    assert len(names) == 10            # 9 confusions and the accuracy
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "0")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_joint_bytes_and_warning_do_not_depend_on_the_cpu_count(
        tmp_path, small_cohort):
    """``joint``'s SVM folds split across CPUs write the same bytes, and
    its gap warning counts the machines of every fold, forked or not."""
    errs = [run_on_cpus(cpus, ["joint", "--data", str(small_cohort),
                               "--seed", "1", "--out", str(tmp_path / cpus)])
            for cpus in ("1", "0")]
    assert errs[0] == errs[1]
    assert errs[0].startswith("warning: ")
    assert " of 120 SVM machines stopped above tol=0.001" in errs[0]
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "0")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare against one")
def test_mlp_divergence_does_not_depend_on_the_cpu_count(tmp_path,
                                                         small_cohort):
    """A diverging MLP fold ends the run with exit 4 and the same error
    line on one CPU and on every CPU, and writes nothing."""
    errs = [run_on_cpus(cpus, ["chambers", "--data", str(small_cohort),
                               "--seed", "1", "--group", "food", "--source",
                               "hip", "--hop", "1.0", "--model", "mlp",
                               "--epochs", "200", "--learning-rate", "1e12",
                               "--phase", "both", "--out",
                               str(tmp_path / cpus)], code=4)
            for cpus in ("1", "0")]
    assert errs[0] == errs[1]
    assert len(errs[0].splitlines()) == 1
    assert errs[0].startswith("numerical failure: ")
    assert list((tmp_path / "1").iterdir()) == []


@pytest.fixture(scope="module")
def two_food_rat_cohort(tmp_path_factory):
    # every post session visits all three chambers; food alone has two
    # rats and the most rows (57 at --hop 1.0, the others 27 or 28)
    out = tmp_path_factory.mktemp("two_food_rats")
    assert main(["synth", "--out", str(out), "--seed", "73",
                 "--session-len", "30", "--fs", "250", "--rats-saline", "1",
                 "--rats-morphine", "1", "--rats-food", "2"]) == 0
    return out


@pytest.mark.parametrize("cohort, argv, exit_code", [
    # food passes and a later cell fails before any fit, while the jobs
    # and their folds are dealt
    ("small_cohort", ["--source", "hip"], 3),   # morphine lacks a chamber
    ("two_food_rat_cohort", ["--source", "hip", "--hop", "1.0",
                             "--k", "50"], 3),
    ("two_food_rat_cohort", ["--source", "hip", "--hop", "1.0",
                             "--per-rat", "--k", "2"], 3),
    # every cell fails: while dealt, or in every block's first fit, which
    # is raised from this process
    ("small_cohort", ["--group", "food", "--source", "all", "--hop", "1.0",
                      "--k", "100000"], 3),
    ("small_cohort", ["--group", "food", "--source", "all", "--hop", "1.0",
                      "--per-rat", "--k", "5"], 3),
    ("small_cohort", ["--group", "food", "--source", "all", "--hop", "1.0",
                      "--max-depth", "0"], 3),
    ("small_cohort", ["--group", "food", "--source", "all", "--hop", "1.0",
                      "--min-leaf", "0"], 3),
    ("small_cohort", ["--group", "food", "--source", "hip", "--hop", "1.0",
                      "--model", "mlp", "--epochs", "200",
                      "--learning-rate", "1e12", "--phase", "both"], 4),
])
def test_chambers_failures_do_not_depend_on_the_cpu_count(
        tmp_path, request, capsys, monkeypatch, cohort, argv, exit_code):
    """A check that fires inside a fit, in this process or in a forked
    child, ends the run with the same exit code and error line on 1, 2
    or 3 CPUs, and writes nothing."""
    data = request.getfixturevalue(cohort)
    outcomes = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(forked, "cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        code = main(["chambers", "--data", str(data), "--out", str(out),
                     "--seed", "1", *argv])
        outcomes.append((code, capsys.readouterr().err))
        assert list(out.iterdir()) == []
        assert_no_child_left()
    assert outcomes[0][0] == exit_code
    assert len(outcomes[0][1].splitlines()) == 1
    assert outcomes[1:] == outcomes[:1] * 2
