"""Tabular dataset container shared by all three classifiers, and the
one standardization rule of the SVM and the MLP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must align with feature rows")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or Inf")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.class_names)):
            raise DataError("label ids must index class_names")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx],
                       list(self.class_names))


def standardize_fit(features: np.ndarray):
    """Column means and stds on training data. A std at or below
    1e-12 x max(1, |mean|) becomes one, so a column that is constant up
    to rounding standardizes to about zero and carries no weight."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std > 1e-12 * np.maximum(1.0, np.abs(mean)), std, 1.0)
    return mean, std


def standardize(features, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Rows of ``features`` under a ``standardize_fit`` mean and std."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != mean.size:
        raise DataError(f"expected {mean.size} features, "
                        f"got {features.shape[1]}")
    return (features - mean) / std
