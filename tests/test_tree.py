import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescat import _kernels
from wavescat.classify import (Dataset, predict_tree, train_tree,
                               tree_complexity)
from wavescat.classify.tree import DecisionTreeModel, sorted_rows
from wavescat.errors import DataError

from oracles import predict_tree_by_row, split_scan_by_column


def make(features, labels, names=("A", "B", "C")):
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    return Dataset(np.asarray(features, dtype=float), labels,
                   list(names)[:max(k, 2)])


def test_single_class_single_leaf():
    data = make([[0.0], [1.0], [2.0]], [1, 1, 1])
    model = train_tree(data, max_depth=5)
    assert model.feature[0] == -1 and model.class_id[0] == 1
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
    assert model.feature[0] != -1
    assert model.feature[0] == 0
    assert model.threshold[0] == pytest.approx(0.0)
    left, right = model.left[0], model.right[0]
    assert model.feature[left] == -1 and model.feature[right] == -1
    assert model.class_id[left] == 0


def test_min_leaf_respected():
    rng = np.random.default_rng(0)
    data = make(rng.standard_normal((40, 3)), rng.integers(0, 2, 40),
                names=("A", "B"))
    model = train_tree(data, max_depth=10, min_leaf=5)

    def check(i, x_mask, features):
        if model.feature[i] == -1:
            assert x_mask.sum() >= 5
            return
        below = features[:, model.feature[i]] < model.threshold[i]
        check(model.left[i], x_mask & below, features)
        check(model.right[i], x_mask & ~below, features)

    check(0, np.ones(40, dtype=bool), data.features)


def flat_tree(spec, n_features):
    """A model from a nested spec: a class id is a leaf, and
    (feature, threshold, left spec, right spec) a split. Nodes are laid
    out as ``train_tree`` lays them out: depth first, left before right,
    each leaf its own two children."""
    rows = []               # [feature, threshold, left, right, class, depth]

    def add(spec, depth):
        at = len(rows)
        rows.append([-1, 0.0, at, at, 0, depth])
        if isinstance(spec, tuple):
            f, thr, left, right = spec
            rows[at][:4] = f, thr, add(left, depth + 1), add(right, depth + 1)
        else:
            rows[at][4] = spec
        return at

    add(spec, 0)
    return DecisionTreeModel(*map(np.array, zip(*rows)), n_features)


def perfect_tree(depth, feature=0):
    if depth == 0:
        return 0
    return (feature, 0.5, perfect_tree(depth - 1), perfect_tree(depth - 1))


def test_complexity_grades():
    four = flat_tree(perfect_tree(4), 1)
    assert tree_complexity(four) == {"nodes": 31, "leaves": 16, "depth": 4,
                                     "grade": "Mid"}
    six = flat_tree(perfect_tree(6), 1)
    c = tree_complexity(six)
    assert c["leaves"] == 64 and c["grade"] == "High"
    shallow = flat_tree(perfect_tree(3), 1)
    assert tree_complexity(shallow)["grade"] == "Low"


def test_predict_strict_less_goes_left():
    model = flat_tree((0, 0.5, 1, 0), 1)
    assert predict_tree(model, [[0.4]])[0] == 1
    assert predict_tree(model, [[0.5]])[0] == 0
    assert predict_tree(model, [[0.6]])[0] == 0


LEVELS = (-1.0, 0.0, 0.5, 1.0)


@st.composite
def tree_specs(draw, n_features, depth=0):
    if depth == 6 or draw(st.booleans()):
        return draw(st.integers(0, 3))
    return (draw(st.integers(0, n_features - 1)),
            draw(st.sampled_from(LEVELS)),
            draw(tree_specs(n_features, depth + 1)),
            draw(tree_specs(n_features, depth + 1)))


@st.composite
def trees_and_rows(draw):
    """A random tree and rows whose values often equal a threshold or
    are NaN."""
    n_features = draw(st.integers(1, 4))
    model = flat_tree(draw(tree_specs(n_features)), n_features)
    n = draw(st.integers(0, 20))
    cells = draw(st.lists(st.sampled_from(LEVELS + (np.nan,)),
                          min_size=n * n_features, max_size=n * n_features))
    return model, np.array(cells, dtype=np.float64).reshape(n, n_features)


@given(trees_and_rows())
@settings(max_examples=300, deadline=None)
def test_predict_equals_per_row_descent(case):
    model, rows = case
    got = predict_tree(model, rows)
    assert got.dtype == np.int64
    assert np.array_equal(got, predict_tree_by_row(model, rows))


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
        assert model.feature[0] == 0


def nodes(model):
    """(feature, threshold, left, right, class_id, depth) of every node,
    in the model's order."""
    return list(zip(model.feature.tolist(), model.threshold.tolist(),
                    model.left.tolist(), model.right.tolist(),
                    model.class_id.tolist(), model.depth.tolist()))


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
    assert nodes(got) == nodes(expected)
    assert len(nodes(got)) > 7
    assert np.array_equal(predict_tree(got, x), predict_tree_by_row(got, x))


@given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_carried_order_equals_a_fresh_stable_sort(n, seed):
    """Two generations of partitions, each carried from its parent's
    order, read as a stable sort of the kept rows: with ties, NaN,
    signed zeros, a duplicated column and a constant column."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, np.nan], (n, 4))
    x = np.column_stack([x, x[:, 1], np.full(n, 3.0)])
    order = np.argsort(x.T, axis=1, kind="stable")
    for _ in range(2):
        keep = rng.random(x.shape[0]) < 0.6
        if not keep.any():
            break
        order, x = sorted_rows(order, keep), x[keep]
        assert np.array_equal(order,
                              np.argsort(x.T, axis=1, kind="stable"))


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
