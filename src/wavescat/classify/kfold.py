"""Stratified k-fold harness shared by the three trainers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .. import forked
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


@dataclass(frozen=True)
class KFoldJob:
    """One dataset to score under k-fold.

    ``fit(train_subset, seed)`` returns a model that ``predict`` accepts.
    With ``groups``, one id per sample (e.g. rat ids), folds hold out
    whole groups instead of being stratified by class label.
    ``keep(model)`` of each fold's model, and ``full(model)`` of one more
    model fitted on all of ``data``, come back in the job's result; they
    may run in a forked child, so what they return must pickle.
    """

    data: Dataset
    fit: Callable
    groups: Sequence | None = None
    keep: Callable | None = None
    full: Callable | None = None


@dataclass(frozen=True)
class KFoldResult:
    matrix: ConfusionMatrix
    kept: list                   # keep(model) of each fold, in fold order
    full: object                 # full(model) of the all-data fit, or None


def run_kfold(jobs: Sequence[KFoldJob], k: int,
              seed: int) -> list[KFoldResult]:
    """Test each fold of each job once against a model trained on the
    remainder; one result per job, in job order.

    Fold ``i`` trains with seed ``seed + i``, and a job's ``full`` fit
    with ``seed``. Every job's folds are dealt before any fit runs, so a
    job that cannot be scored fails first. Each fold, and each ``full``
    fit, is one unit of ``forked.run_blocks``: a contiguous block of
    units per CPU, or all of them in this process where the BLAS pool
    cannot be capped at one thread (``forked.can_cap_blas``).
    """
    plans = [(job, _folds(job, k, seed)) for job in jobs]
    units = []
    for job, folds in plans:
        units += [partial(_score_fold, job, test_idx, seed + fold_id)
                  for fold_id, test_idx in enumerate(folds)]
        if job.full:
            units.append(partial(_fit_full, job, seed))
    blocks = forked.run_blocks(
        len(units), lambda start, stop: [unit() for unit in units[start:stop]],
        lambda start, stop: f"k-fold fits {start}-{stop - 1}",
        fork=forked.can_cap_blas())
    done = iter([result for block in blocks for result in block])
    results = []
    for job, folds in plans:
        scored = [next(done) for _ in folds]
        matrix = ConfusionMatrix(sum(counts for counts, _ in scored),
                                 list(job.data.class_names))
        results.append(KFoldResult(matrix, [kept for _, kept in scored],
                                   next(done) if job.full else None))
    return results


def _folds(job: KFoldJob, k: int, seed: int) -> list[np.ndarray]:
    """The test rows of each fold of ``job``."""
    data = job.data
    counts = np.bincount(data.labels, minlength=data.n_classes)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        names = [data.class_names[i] for i in empty]
        raise DataError(f"classes without samples: {names}")
    if job.groups is None:
        return stratified_folds(data.labels.tolist(), k, seed)
    # deal the sorted distinct groups as one stratum; rows follow
    names, group_of = np.unique(np.asarray(job.groups), return_inverse=True)
    if k > names.size:
        raise DataError(f"k={k} exceeds the number of groups ({names.size})")
    return [np.flatnonzero(np.isin(group_of, members))
            for members in stratified_folds([0] * names.size, k, seed)]


def _score_fold(job: KFoldJob, test_idx: np.ndarray, seed: int):
    """A fold's (true x predicted) counts and ``keep`` of its model."""
    data = job.data
    train_idx = np.setdiff1d(np.arange(data.n_samples), test_idx,
                             assume_unique=True)
    model = job.fit(data.subset(train_idx), seed)
    predicted = predict(model, data.features[test_idx])
    counts = np.zeros((data.n_classes, data.n_classes), dtype=np.int64)
    np.add.at(counts, (data.labels[test_idx], predicted), 1)
    return counts, job.keep(model) if job.keep else None


def _fit_full(job: KFoldJob, seed: int):
    return job.full(job.fit(job.data, seed))
