"""One-vs-all soft-margin linear SVM over standardized features.

Each class gets one hinge-loss, L2-regularized binary machine; the bias
rides along as a regularized constant column. The per-sample penalty
is class-balanced (C scaled by n / (2 * n_side)) so heavily uneven
one-vs-rest splits do not collapse onto the majority side; with equal
class sizes this reduces to plain C. Machines solve the dual to a
relative duality gap of ``tol`` or stop at the epoch limit, flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _kernels
from ..errors import DataError
from .data import Dataset


@dataclass
class OvaSvmModel:
    weights: np.ndarray          # (n_classes, n_kept) over standardized cols
    biases: np.ndarray           # (n_classes,)
    mean: np.ndarray
    std: np.ndarray
    kept_columns: np.ndarray
    dropped_columns: np.ndarray
    converged: np.ndarray        # bool per class
    gaps: np.ndarray
    n_features: int
    n_classes: int


def train_svm_ova(data: Dataset, c: float = 1.0, tol: float = 1e-3,
                  max_iter: int = 300) -> OvaSvmModel:
    if c <= 0:
        raise DataError("C must be positive")
    if max_iter < 1:
        raise DataError("max_iter must be at least 1")
    if data.n_classes < 2:
        raise DataError("need at least two classes")
    present = np.bincount(data.labels, minlength=data.n_classes)
    mean = data.features.mean(axis=0)
    std = data.features.std(axis=0)
    tiny = 1e-12 * np.maximum(1.0, np.abs(mean))
    kept = np.nonzero(std > tiny)[0]
    dropped = np.nonzero(std <= tiny)[0]
    x = (data.features[:, kept] - mean[kept]) / std[kept]
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    n = aug.shape[0]

    n_classes = data.n_classes
    weights = np.zeros((n_classes, kept.size))
    biases = np.zeros(n_classes)
    converged = np.zeros(n_classes, dtype=bool)
    gaps = np.zeros(n_classes)
    for cls in range(n_classes):
        y = np.where(data.labels == cls, 1.0, -1.0)
        n_pos = int(present[cls])
        if 0 < n_pos < n:
            c_i = np.where(y > 0, c * n / (2.0 * n_pos),
                           c * n / (2.0 * (n - n_pos)))
        else:
            c_i = np.full(n, c)
        w, _, gap, _ = _kernels.svm_dual_solve(aug, y, c_i, tol, max_iter)
        weights[cls] = w[:-1]
        biases[cls] = w[-1]
        gaps[cls] = gap
        converged[cls] = gap <= tol
    return OvaSvmModel(weights, biases, mean, std, kept, dropped,
                       converged, gaps, data.n_features, n_classes)


def decision_values_svm(model: OvaSvmModel, features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, "
                        f"got {features.shape[1]}")
    kept = model.kept_columns
    x = (features[:, kept] - model.mean[kept]) / model.std[kept]
    return x @ model.weights.T + model.biases


def predict_svm(model: OvaSvmModel, features: np.ndarray) -> np.ndarray:
    # argmax takes the lowest class id on ties
    return np.argmax(decision_values_svm(model, features), axis=1)
