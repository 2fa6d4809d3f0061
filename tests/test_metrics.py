import numpy as np
import pytest

from wavescat.classify import (ConfusionMatrix, confusion_from_counts_csv,
                               confusion_stats, confusion_to_csv)
from wavescat.errors import DataError

from figdata import CLASS_NAMES, COUNTS, PRINTED_MACRO, PRINTED_TPR


def test_published_chart_tpr_and_macro():
    stats = confusion_stats(ConfusionMatrix(COUNTS, CLASS_NAMES))
    assert np.abs(stats["tpr"] - PRINTED_TPR).max() < 1e-6
    assert stats["macro"] == pytest.approx(PRINTED_MACRO, abs=1e-6)
    assert stats["micro"] == pytest.approx(79.82, abs=0.01)
    # the macro number is the mean of the per-class rates, not trace/total
    assert abs(stats["macro"] - stats["micro"]) > 0.1


def test_fnr_complements_tpr():
    stats = confusion_stats(ConfusionMatrix(COUNTS, CLASS_NAMES))
    assert np.allclose(stats["fnr"], 100.0 - stats["tpr"], atol=1e-12)
    # spot values from the chart rows
    assert stats["tpr"][1] == pytest.approx(99.74576271, abs=1e-6)
    assert stats["tpr"][6] == pytest.approx(99.57501062, abs=1e-6)


def test_zero_row_flagged_and_excluded():
    counts = np.array([[5, 0, 0], [1, 4, 0], [0, 0, 0]])
    matrix = ConfusionMatrix(counts, ["a", "b", "ghost"])
    with pytest.warns(UserWarning, match="ghost"):
        stats = confusion_stats(matrix)
    assert np.isnan(stats["tpr"][2])
    assert stats["macro"] == pytest.approx((100.0 + 80.0) / 2)
    assert stats["micro"] == pytest.approx(90.0)


def test_all_zero_matrix_rejected():
    with pytest.raises(DataError):
        confusion_stats(ConfusionMatrix(np.zeros((2, 2), dtype=int),
                                        ["a", "b"]))


def test_invalid_shapes_rejected():
    with pytest.raises(DataError):
        ConfusionMatrix(np.zeros((2, 3), dtype=int), ["a", "b"])
    with pytest.raises(DataError):
        ConfusionMatrix(np.array([[1, -1], [0, 2]]), ["a", "b"])


def test_csv_roundtrip(tmp_path):
    matrix = ConfusionMatrix(COUNTS, CLASS_NAMES)
    out = tmp_path / "confusion.csv"
    confusion_to_csv(matrix, confusion_stats(matrix), out,
                     "cmd=test seed=1")
    text = out.read_text().splitlines()
    assert text[0] == "# wavescat-config: cmd=test seed=1"
    assert text[1].split(",")[1:13] == CLASS_NAMES
    assert text[-1].startswith("micro_accuracy,")
    again = confusion_from_counts_csv(out)
    assert np.array_equal(again.counts, COUNTS)
    assert again.class_names == CLASS_NAMES
    # stats recomputed from the counts match the emitted columns
    stats = confusion_stats(again)
    emitted_tpr = [float(line.split(",")[13]) for line in text[2:14]]
    assert np.allclose(stats["tpr"], emitted_tpr, atol=1e-9)


def test_whole_number_float_counts_are_read(tmp_path):
    counts = tmp_path / "counts.csv"
    counts.write_text("class,a,b\na,12.0,1\nb,1,4e0\n")
    assert confusion_from_counts_csv(counts).counts.tolist() == [[12, 1],
                                                                  [1, 4]]


def test_whole_number_counts_are_read_exactly(tmp_path):
    # 2**53 + 1 has no float64; a float parse would give 2**53
    counts = tmp_path / "counts.csv"
    counts.write_text("class,a,b\na,9007199254740993,1\nb,1,4\n")
    matrix = confusion_from_counts_csv(counts)
    assert matrix.counts.tolist() == [[9007199254740993, 1], [1, 4]]
    confusion_to_csv(matrix, confusion_stats(matrix),
                     tmp_path / "out.csv")
    assert "a,9007199254740993,1," in (tmp_path / "out.csv").read_text()
