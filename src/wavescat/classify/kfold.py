"""Stratified k-fold harness shared by the three trainers."""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..model import stratified_folds
from .data import Dataset
from .metrics import ConfusionMatrix
from .mlp import MlpModel, predict_mlp
from .svm import OvaSvmModel, predict_svm
from .tree import DecisionTreeModel, predict_tree


def predict(model, features: np.ndarray) -> np.ndarray:
    """Class ids for feature rows, dispatched on the model type."""
    if isinstance(model, DecisionTreeModel):
        return predict_tree(model, features)
    if isinstance(model, MlpModel):
        return predict_mlp(model, features)
    if isinstance(model, OvaSvmModel):
        return predict_svm(model, features)
    raise DataError(f"unknown model type {type(model).__name__}")


def _grouped_folds(groups, k: int, seed: int):
    """Deal whole groups (e.g. rats) into k folds after a seeded shuffle."""
    names = sorted(set(groups))
    if k > len(names):
        raise DataError(f"k={k} exceeds the number of groups ({len(names)})")
    order = np.array(names, dtype=object)
    np.random.default_rng(seed).shuffle(order)
    assignment = {g: i % k for i, g in enumerate(order)}
    folds = [[] for _ in range(k)]
    for i, g in enumerate(groups):
        folds[assignment[g]].append(i)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def run_kfold(data: Dataset, k: int, fit, seed: int,
              groups=None) -> ConfusionMatrix:
    """Test each fold once against a model trained on the remainder.

    ``fit(train_subset, seed)`` returns a model that ``predict`` accepts;
    fold ``i`` trains with seed ``seed + i``. Folds are stratified by
    class label, or hold out whole groups when a per-sample ``groups``
    sequence (e.g. rat ids) is supplied.
    """
    counts = np.bincount(data.labels, minlength=data.n_classes)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        names = [data.class_names[i] for i in empty]
        raise DataError(f"classes without samples: {names}")
    if groups is not None:
        folds = _grouped_folds(list(groups), k, seed)
    else:
        folds = stratified_folds(data.labels.tolist(), k, seed)
    matrix = np.zeros((data.n_classes, data.n_classes), dtype=np.int64)
    all_idx = np.arange(data.n_samples)
    for fold_id, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, test_idx, assume_unique=True)
        model = fit(data.subset(train_idx), seed + fold_id)
        predicted = predict(model, data.features[test_idx])
        for truth, guess in zip(data.labels[test_idx], predicted):
            matrix[truth, guess] += 1
    return ConfusionMatrix(matrix, list(data.class_names))
