"""CART decision tree with Gini impurity.

Each node is split by one call of ``_kernels.best_split_column``, which
scans every midpoint of every feature of the node at once; ties resolve
to the lowest feature, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import _kernels
from ..errors import DataError
from .data import Dataset


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class DecisionTreeModel:
    root: TreeNode
    n_features: int
    n_classes: int


def _majority(labels: np.ndarray, n_classes: int) -> int:
    return int(np.argmax(np.bincount(labels, minlength=n_classes)))


def _grow(x, y, n_classes, depth, max_depth, min_leaf):
    if depth >= max_depth or y.size < 2 * min_leaf or np.all(y == y[0]):
        return TreeNode(class_id=_majority(y, n_classes))
    _, thr, f = _kernels.best_split_column(x, y, n_classes, min_leaf)
    if f < 0:
        return TreeNode(class_id=_majority(y, n_classes))
    mask = x[:, f] < thr
    return TreeNode(
        feature=f,
        threshold=thr,
        left=_grow(x[mask], y[mask], n_classes, depth + 1, max_depth, min_leaf),
        right=_grow(x[~mask], y[~mask], n_classes, depth + 1, max_depth, min_leaf),
    )


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
    root = _grow(data.features, data.labels, data.n_classes, 0,
                 max_depth, min_leaf)
    return DecisionTreeModel(root, data.n_features, data.n_classes)


def predict_tree(model: DecisionTreeModel, features: np.ndarray) -> np.ndarray:
    """Route rows down the tree; left branch when value < threshold."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, "
                        f"got {features.shape[1]}")
    out = np.empty(features.shape[0], dtype=np.int64)
    for i, row in enumerate(features):
        node = model.root
        while not node.is_leaf:
            node = node.left if row[node.feature] < node.threshold else node.right
        out[i] = node.class_id
    return out


def tree_complexity(model: DecisionTreeModel) -> dict:
    """Node/leaf/depth counts plus a Low/Mid/High grade by leaf count."""
    nodes = leaves = 0
    max_depth = 0
    stack = [(model.root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        max_depth = max(max_depth, depth)
        if node.is_leaf:
            leaves += 1
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    grade = "Low" if leaves <= 8 else ("Mid" if leaves <= 32 else "High")
    return {"nodes": nodes, "leaves": leaves, "depth": max_depth,
            "grade": grade}
