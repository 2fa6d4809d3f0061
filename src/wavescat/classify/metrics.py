"""Confusion matrix accumulation and the derived rate statistics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..csvfile import write_csv
from ..errors import DataError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray           # (true x predicted), nonnegative ints
    class_names: list[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.class_names)
        if self.counts.shape != (k, k):
            raise DataError("counts must be square and match class_names")
        if np.any(self.counts < 0):
            raise DataError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_stats(m: ConfusionMatrix) -> dict:
    """Per-class TPR/FNR (percent) plus micro and macro accuracy.

    TPR_i = 100 * diagonal / row sum; macro accuracy is the mean TPR over
    classes that actually appear (zero rows are flagged NaN, warned about
    and excluded); micro accuracy is 100 * trace / total.
    """
    row_sums = m.counts.sum(axis=1)
    if not np.any(row_sums > 0):
        raise DataError("confusion matrix has no observations")
    tpr = np.full(len(m.class_names), np.nan)
    nonzero = row_sums > 0
    tpr[nonzero] = 100.0 * np.diag(m.counts)[nonzero] / row_sums[nonzero]
    if not np.all(nonzero):
        missing = [m.class_names[i] for i in np.nonzero(~nonzero)[0]]
        warnings.warn(f"classes without test rows excluded from macro "
                      f"accuracy: {missing}", stacklevel=2)
    fnr = 100.0 - tpr
    return {
        "tpr": tpr,
        "fnr": fnr,
        "micro": 100.0 * float(np.trace(m.counts)) / m.total,
        "macro": float(np.mean(tpr[nonzero])),
        "defined": nonzero,
    }


def confusion_to_csv(m: ConfusionMatrix, path, config_line: str = "") -> None:
    """Counts with class-name header row/column, TPR/FNR columns and a
    micro/macro footer row."""
    stats = confusion_stats(m)
    rows = [[name] + counts + [tpr, fnr] for name, counts, tpr, fnr in zip(
        m.class_names, m.counts.tolist(), stats["tpr"].tolist(),
        stats["fnr"].tolist())]
    rows.append(["micro_accuracy", stats["micro"],
                 "macro_accuracy", stats["macro"]])
    write_csv(path, ["class"] + m.class_names + ["tpr_pct", "fnr_pct"], rows,
              config_line)


def confusion_from_counts_csv(path) -> ConfusionMatrix:
    """Read a counts CSV: class-name header row, one named count row per
    class (extra columns beyond the counts are ignored)."""
    rows = []
    with open(path) as fh:
        lines = [(number, ln.rstrip("\n"))
                 for number, ln in enumerate(fh, start=1)
                 if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise DataError("empty counts CSV")
    header = lines[0][1].split(",")
    if header and header[0].lower() in ("class", "true_class", ""):
        names = [h for h in header[1:] if h and not h.endswith("_pct")]
    else:
        names = [h for h in header if h]
    k = len(names)
    for number, ln in lines[1:1 + k]:
        cells = ln.split(",")
        if cells[0] in names:
            cells = cells[1:]
        try:
            counts = [int(float(c)) for c in cells[:k]]
        except (ValueError, OverflowError):
            counts = []
        if len(counts) != k:
            raise DataError(f"{path} line {number}: expected {k} numeric "
                            f"counts, got {ln!r}")
        rows.append(counts)
    if len(rows) != k:
        raise DataError(f"expected {k} count rows, found {len(rows)}")
    return ConfusionMatrix(np.array(rows, dtype=np.int64), names)
