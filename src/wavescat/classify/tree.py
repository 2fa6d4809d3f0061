"""CART decision tree with Gini impurity.

Each node is split by one call of ``_kernels.best_split_column``, which
scans every midpoint of every feature of the node at once; ties resolve
to the lowest feature, then the lowest threshold. Each column is sorted
once per tree, at the root; every child takes its rows' sorted order
from its parent's (CART, Breiman et al. 1984).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _kernels
from ..errors import DataError
from .data import Dataset


@dataclass
class DecisionTreeModel:
    """Parallel node arrays, root first, children after their parent.

    Node ``i`` sends a row to ``left[i]`` when its value of
    ``feature[i]`` is below ``threshold[i]`` and to ``right[i]``
    otherwise, NaN included. A leaf has feature -1, is its own left and
    right child, and predicts ``class_id[i]``, the majority class of its
    training rows. ``depth[i]`` counts the edges from the root.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_id: np.ndarray
    depth: np.ndarray
    n_features: int


def train_tree(data: Dataset, max_depth: int = 12,
               min_leaf: int = 1) -> DecisionTreeModel:
    """Grow a CART classifier.

    Each node takes one split scan over all its features at once: every
    midpoint between consecutive distinct sorted values of every feature
    is scored, and ties resolve to the lowest feature index, then the
    lowest threshold, so the tree is fully deterministic.
    """
    if max_depth < 1:
        raise DataError("max_depth must be at least 1")
    if min_leaf < 1:
        raise DataError("min_leaf must be at least 1")
    if data.n_samples == 0:
        raise DataError("empty dataset")
    n_classes = data.n_classes
    nodes = []              # [feature, threshold, left, right, class, depth]

    def grow(x, y, order, depth):
        at = len(nodes)
        node = [-1, 0.0, at, at,
                int(np.argmax(np.bincount(y, minlength=n_classes))), depth]
        nodes.append(node)
        if depth < max_depth and y.size >= 2 * min_leaf and np.any(y != y[0]):
            _, thr, f = _kernels.best_split_column(x, y, n_classes, min_leaf,
                                                   order.T)
            if f >= 0:
                mask = x[:, f] < thr
                node[:4] = (f, thr,
                            grow(x[mask], y[mask], sorted_rows(order, mask),
                                 depth + 1),
                            grow(x[~mask], y[~mask], sorted_rows(order, ~mask),
                                 depth + 1))
        return at

    # one stable sort per column, as (features, rows), for the whole tree
    grow(data.features, data.labels,
         np.argsort(data.features.T, axis=1, kind="stable"), 0)
    return DecisionTreeModel(*map(np.array, zip(*nodes)), data.n_features)


def sorted_rows(order: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """A child's sort from its parent's: each row of ``order`` (one
    column's rows, by value) keeps the rows where ``keep`` holds, in the
    same order, renumbered as indices into those rows. A stable sort
    breaks ties by row, and so does this, because renumbering keeps the
    rows' order: it equals a fresh stable sort of the kept rows."""
    kept = order[keep[order]].reshape(order.shape[0], -1)
    return (np.cumsum(keep) - 1)[kept]


def predict_tree(model: DecisionTreeModel, features: np.ndarray) -> np.ndarray:
    """Move every row down one level per step; left when value < threshold.

    A row at a leaf stays there: it reads column -1, whatever its value,
    and both children are the leaf itself.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, "
                        f"got {features.shape[1]}")
    rows = np.arange(features.shape[0])
    node = np.zeros(features.shape[0], dtype=np.int64)
    for _ in range(model.depth.max()):
        below = features[rows, model.feature[node]] < model.threshold[node]
        node = np.where(below, model.left[node], model.right[node])
    return model.class_id[node]


def tree_complexity(model: DecisionTreeModel) -> dict:
    """Node/leaf/depth counts plus a Low/Mid/High grade by leaf count."""
    leaves = int(np.count_nonzero(model.feature < 0))
    grade = "Low" if leaves <= 8 else ("Mid" if leaves <= 32 else "High")
    return {"nodes": int(model.feature.size), "leaves": leaves,
            "depth": int(model.depth.max()), "grade": grade}
