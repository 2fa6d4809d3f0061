"""One-vs-all soft-margin linear SVM over standardized features.

Every column is kept, under the rule the MLP shares (``standardize_fit``):
a std at or below 1e-12 x max(1, |mean|) counts as one.

Each class gets one hinge-loss, L2-regularized binary machine; the bias
rides along as a regularized constant column. The per-sample penalty
is class-balanced (C scaled by n / (2 * n_side)) so heavily uneven
one-vs-rest splits do not collapse onto the majority side; with equal
class sizes this reduces to plain C. Machines solve the dual to a
relative duality gap of ``tol`` or stop at the epoch limit, flagged.

A fold's machines are solved together by one ``_kernels.svm_dual_solve``
call: its ``Y`` (+-1 labels) and ``C`` (penalties) are (classes, n),
one row per machine over the same augmented features, so each epoch
steps every still-active machine with two matrix products. A machine
that meets ``tol`` stops there while the others go on. A row matches
that machine solved alone up to the rounding of the matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _kernels
from ..errors import DataError
from .data import Dataset, standardize, standardize_fit


@dataclass
class OvaSvmModel:
    weights: np.ndarray          # (n_classes, n_features), standardized
    biases: np.ndarray           # (n_classes,)
    mean: np.ndarray
    std: np.ndarray
    converged: np.ndarray        # bool per class
    gaps: np.ndarray


def train_svm_ova(data: Dataset, c: float = 1.0, tol: float = 1e-3,
                  max_iter: int = 300) -> OvaSvmModel:
    if not c > 0:
        raise DataError("C must be positive")
    if not tol >= 0:
        raise DataError("tol must be non-negative")
    if max_iter < 1:
        raise DataError("max_iter must be at least 1")
    if data.n_classes < 2:
        raise DataError("need at least two classes")
    present = np.bincount(data.labels, minlength=data.n_classes)
    mean, std = standardize_fit(data.features)
    x = standardize(data.features, mean, std)
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    n = aug.shape[0]

    # one row per machine: +-1 labels and each sample's class-balanced C
    Y = np.where(data.labels == np.arange(data.n_classes)[:, None], 1.0, -1.0)
    n_pos = present[:, None]
    n_side = np.where(Y > 0, n_pos, n - n_pos)    # >= 1: the sample's side
    # a machine whose class is absent or is every sample gets plain C
    C = np.where((n_pos == 0) | (n_pos == n), c, c * n / (2.0 * n_side))
    W, _, gaps, _ = _kernels.svm_dual_solve(aug, Y, C, tol, max_iter)
    return OvaSvmModel(W[:, :-1].copy(), W[:, -1].copy(), mean, std,
                       gaps <= tol, gaps)


def decision_values_svm(model: OvaSvmModel, features: np.ndarray) -> np.ndarray:
    x = standardize(features, model.mean, model.std)
    return x @ model.weights.T + model.biases


def predict_svm(model: OvaSvmModel, features: np.ndarray) -> np.ndarray:
    # argmax takes the lowest class id on ties
    return np.argmax(decision_values_svm(model, features), axis=1)
