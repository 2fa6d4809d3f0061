import itertools

import numpy as np
import pytest

from wavescat.classify import (Dataset, decision_values_svm, predict_svm,
                               train_svm_ova)
from wavescat.classify.svm import OvaSvmModel
from wavescat.errors import DataError


def enumerate_dual_exact(x_aug, y_signed, c):
    """Exact small-QP oracle: every {0, free, C} support configuration.

    The bias is regularized (augmented column), so the dual is the box
    problem max sum(a) - a' Q a / 2 with Q = (y x)(y x)'.
    """
    n = x_aug.shape[0]
    q = (y_signed[:, None] * x_aug) @ (y_signed[:, None] * x_aug).T
    best_obj, best_alpha = -np.inf, None
    for config in itertools.product((0, 1, 2), repeat=n):
        free = [i for i, s in enumerate(config) if s == 1]
        at_c = [i for i, s in enumerate(config) if s == 2]
        alpha = np.zeros(n)
        alpha[at_c] = c
        if free:
            rhs = np.ones(len(free))
            if at_c:
                rhs = rhs - q[np.ix_(free, at_c)] @ (np.full(len(at_c), c))
            try:
                sol = np.linalg.solve(q[np.ix_(free, free)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol < -1e-9) or np.any(sol > c + 1e-9):
                continue
            alpha[free] = np.clip(sol, 0.0, c)
        obj = alpha.sum() - 0.5 * alpha @ q @ alpha
        if obj > best_obj:
            best_obj, best_alpha = obj, alpha.copy()
    return x_aug.T @ (best_alpha * y_signed), best_obj


def test_separable_pair():
    data = Dataset(np.array([[-1.0], [1.0]]), np.array([0, 1]), ["A", "B"])
    model = train_svm_ova(data, c=10.0, tol=1e-8, max_iter=5000)
    values = decision_values_svm(model, data.features)
    assert (predict_svm(model, data.features) == data.labels).all()
    assert values[0, 0] > 0 > values[0, 1]
    assert values[1, 1] > 0 > values[1, 0]


def test_six_point_problem_matches_enumeration_oracle():
    pts = np.array([[-1.0, 10.0], [0.0, 9.0], [1.0, 10.0],
                    [-1.0, 8.0], [0.0, 8.0], [1.0, 8.0]])
    labels = np.array([1, 1, 1, 0, 0, 0])
    data = Dataset(pts, labels, ["low", "high"])
    model = train_svm_ova(data, c=10.0, tol=1e-10, max_iter=50_000)
    assert model.converged.all()

    mean, std = pts.mean(axis=0), pts.std(axis=0)
    x_aug = np.hstack([(pts - mean) / std, np.ones((6, 1))])
    for cls, sign_of in ((0, lambda l: np.where(l == 0, 1.0, -1.0)),
                         (1, lambda l: np.where(l == 1, 1.0, -1.0))):
        w_oracle, _ = enumerate_dual_exact(x_aug, sign_of(labels), 10.0)
        w_ours = np.concatenate([model.weights[cls], [model.biases[cls]]])
        cosine = (w_oracle @ w_ours
                  / (np.linalg.norm(w_oracle) * np.linalg.norm(w_ours)))
        assert 1.0 - cosine < 1e-3


def test_twelve_class_dataset_gets_twelve_machines():
    rng = np.random.default_rng(0)
    centers = 6.0 * np.eye(12)  # one axis per class: OVA-separable
    features = np.vstack([c + rng.standard_normal((20, 12)) for c in centers])
    labels = np.repeat(np.arange(12), 20)
    data = Dataset(features, labels, [f"c{i}" for i in range(12)])
    model = train_svm_ova(data, c=1.0, tol=1e-4, max_iter=300)
    assert model.weights.shape[0] == 12 and model.biases.shape == (12,)
    accuracy = (predict_svm(model, features) == labels).mean()
    assert accuracy > 0.95


def test_tie_break_lowest_class_id():
    model = OvaSvmModel(weights=np.zeros((3, 2)), biases=np.zeros(3),
                        mean=np.zeros(2), std=np.ones(2),
                        kept_columns=np.array([0, 1]),
                        dropped_columns=np.array([], dtype=int),
                        converged=np.ones(3, dtype=bool), gaps=np.zeros(3),
                        n_features=2, n_classes=3)
    assert predict_svm(model, [[1.0, -1.0]])[0] == 0


def test_constant_columns_dropped_and_recorded():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    x[:, 1] = 7.7
    labels = (x[:, 0] > 0).astype(int)
    data = Dataset(x, labels, ["a", "b"])
    model = train_svm_ova(data, c=1.0, tol=1e-6, max_iter=2000)
    assert model.dropped_columns.tolist() == [1]
    assert model.kept_columns.tolist() == [0, 2]
    assert (predict_svm(model, x) == labels).mean() > 0.9


def test_raw_feature_scaling_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 4))
    labels = (x @ np.array([1.0, -2.0, 0.5, 0.0]) > 0).astype(int)
    data = Dataset(x, labels, ["a", "b"])
    base = predict_svm(train_svm_ova(data, tol=1e-8, max_iter=20_000), x)
    scaled = Dataset(x * 1000.0, labels, ["a", "b"])
    again = predict_svm(train_svm_ova(scaled, tol=1e-8, max_iter=20_000),
                        x * 1000.0)
    assert np.array_equal(base, again)


def test_nonconvergence_flagged_not_raised():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((300, 4))
    x = np.hstack([base] * 30) + 1e-4 * rng.standard_normal((300, 120))
    labels = (base[:, 0] > 0).astype(int)
    data = Dataset(x, labels, ["a", "b"])
    model = train_svm_ova(data, c=100.0, tol=1e-12, max_iter=3)
    assert not model.converged.all()
    assert np.all(model.gaps >= 0)


def test_validation():
    data = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]), ["a", "b"])
    with pytest.raises(DataError):
        train_svm_ova(data, c=-1.0)
    for max_iter in (0, -1):
        with pytest.raises(DataError, match="max_iter"):
            train_svm_ova(data, max_iter=max_iter)
    model = train_svm_ova(Dataset(np.array([[-1.0], [1.0]]),
                                  np.array([0, 1]), ["a", "b"]))
    with pytest.raises(DataError, match="expected 1 features"):
        predict_svm(model, [[0.0, 1.0]])
