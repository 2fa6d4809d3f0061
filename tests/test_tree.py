import numpy as np
import pytest

from wavescat import _kernels
from wavescat.classify import (Dataset, predict_tree, train_tree,
                               tree_complexity)
from wavescat.classify.tree import DecisionTreeModel, TreeNode
from wavescat.errors import DataError

from oracles import split_scan_by_column


def make(features, labels, names=("A", "B", "C")):
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    return Dataset(np.asarray(features, dtype=float), labels,
                   list(names)[:max(k, 2)])


def test_single_class_single_leaf():
    data = make([[0.0], [1.0], [2.0]], [1, 1, 1])
    model = train_tree(data, max_depth=5)
    assert model.root.is_leaf and model.root.class_id == 1
    assert (predict_tree(model, data.features) == 1).all()
    assert tree_complexity(model) == {"nodes": 1, "leaves": 1, "depth": 0,
                                      "grade": "Low"}


def test_xor_needs_depth_two():
    data = make([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                [0, 1, 1, 0])
    # exhaustive check: no single axis split separates XOR
    x, y = data.features, data.labels
    for f in range(2):
        for thr in (0.5,):
            left = y[x[:, f] < thr]
            right = y[x[:, f] >= thr]
            assert len(set(left.tolist())) == 2
            assert len(set(right.tolist())) == 2
    model = train_tree(data, max_depth=4)
    assert tree_complexity(model)["depth"] >= 2
    assert (predict_tree(model, x) == y).all()


def test_linearly_separable_single_split():
    data = make([[-1.0]] * 10 + [[1.0]] * 10, [0] * 10 + [1] * 10)
    model = train_tree(data, max_depth=6)
    assert not model.root.is_leaf
    assert model.root.feature == 0
    assert model.root.threshold == pytest.approx(0.0)
    assert model.root.left.is_leaf and model.root.right.is_leaf
    assert model.root.left.class_id == 0


def test_min_leaf_respected():
    rng = np.random.default_rng(0)
    data = make(rng.standard_normal((40, 3)), rng.integers(0, 2, 40),
                names=("A", "B"))
    model = train_tree(data, max_depth=10, min_leaf=5)

    def check(node, x_mask, features):
        if node.is_leaf:
            assert x_mask.sum() >= 5
            return
        left = x_mask & (features[:, node.feature] < node.threshold)
        right = x_mask & ~(features[:, node.feature] < node.threshold)
        check(node.left, left, features)
        check(node.right, right, features)

    check(model.root, np.ones(40, dtype=bool), data.features)


def leaf(cid):
    return TreeNode(class_id=cid)


def perfect_tree(depth, feature=0):
    if depth == 0:
        return leaf(0)
    return TreeNode(feature=feature, threshold=0.5,
                    left=perfect_tree(depth - 1), right=perfect_tree(depth - 1))


def test_complexity_grades():
    four = DecisionTreeModel(perfect_tree(4), 1, 2)
    assert tree_complexity(four) == {"nodes": 31, "leaves": 16, "depth": 4,
                                     "grade": "Mid"}
    six = DecisionTreeModel(perfect_tree(6), 1, 2)
    c = tree_complexity(six)
    assert c["leaves"] == 64 and c["grade"] == "High"
    shallow = DecisionTreeModel(perfect_tree(3), 1, 2)
    assert tree_complexity(shallow)["grade"] == "Low"


def test_predict_strict_less_goes_left():
    root = TreeNode(feature=0, threshold=0.5, left=leaf(1), right=leaf(0))
    model = DecisionTreeModel(root, 1, 2)
    assert predict_tree(model, [[0.4]])[0] == 1
    assert predict_tree(model, [[0.5]])[0] == 0
    assert predict_tree(model, [[0.6]])[0] == 0


def test_monotone_feature_transform_leaves_predictions_unchanged():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((60, 4))
    y = (x[:, 1] > 0.2).astype(int)
    data = make(x, y, names=("A", "B"))
    base = predict_tree(train_tree(data, 8), x)
    warped = x.copy()
    warped[:, 1] = np.exp(warped[:, 1])  # strictly monotone on column 1
    data_w = make(warped, y, names=("A", "B"))
    again = predict_tree(train_tree(data_w, 8), warped)
    assert np.array_equal(base, again)


def test_tie_break_prefers_lowest_feature():
    # identical duplicated columns: must split on the lowest index
    for copies in (2, 3):
        x = np.repeat([[0.0], [1.0], [2.0], [3.0]], copies, axis=1)
        data = make(x, [0, 0, 1, 1], names=("A", "B"))
        model = train_tree(data, 3)
        assert model.root.feature == 0


def nodes(node):
    """(feature, threshold, class_id) of every node, depth first."""
    out = [(node.feature, node.threshold, node.class_id)]
    if not node.is_leaf:
        out += nodes(node.left) + nodes(node.right)
    return out


def test_tree_equals_tree_grown_with_per_column_scan(monkeypatch):
    rng = np.random.default_rng(17)
    x = rng.integers(0, 5, (120, 6)).astype(float)
    x[:, 4] = x[:, 1]                    # a duplicated column
    x[:, 5] = 2.0                        # a constant column
    y = (x[:, 0] + x[:, 1] + rng.integers(0, 3, 120)) % 3
    data = make(x, y)
    got = train_tree(data, max_depth=8, min_leaf=3)
    monkeypatch.setattr(_kernels, "best_split_column", split_scan_by_column)
    expected = train_tree(data, max_depth=8, min_leaf=3)
    assert nodes(got.root) == nodes(expected.root)
    assert len(nodes(got.root)) > 7


def test_predict_width_mismatch():
    data = make([[-1.0], [1.0]], [0, 1], names=("A", "B"))
    model = train_tree(data, 2)
    with pytest.raises(DataError, match="expected 1 features"):
        predict_tree(model, [[1.0, 2.0]])


def test_invalid_hyperparameters():
    data = make([[-1.0], [1.0]], [0, 1], names=("A", "B"))
    with pytest.raises(DataError):
        train_tree(data, max_depth=0)
    with pytest.raises(DataError):
        train_tree(data, max_depth=2, min_leaf=0)
