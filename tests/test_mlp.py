import numpy as np
import pytest

from wavescat.classify import Dataset, loss_and_grad, predict_mlp, train_mlp
from wavescat.classify.mlp import MlpModel, _sigmoid, decision_values_mlp
from wavescat.errors import DataError, NumericalError

from oracles import sigmoid_masked


def two_point_classes():
    x = np.array([[-1.0]] * 10 + [[1.0]] * 10)
    y = np.array([0] * 10 + [1] * 10)
    return Dataset(x, y, ["neg", "pos"])


def test_converges_on_separable_pair():
    data = two_point_classes()
    model = train_mlp(data, hidden=(4,), epochs=500, learning_rate=0.5,
                      seed=7)
    assert (predict_mlp(model, data.features) == data.labels).all()


def test_zero_weights_give_uniform_softmax_and_class_zero():
    model = MlpModel([np.zeros((1, 4)), np.zeros((4, 2))],
                     [np.zeros(4), np.zeros(2)],
                     mean=np.zeros(1), std=np.ones(1))
    probs = decision_values_mlp(model, [[0.3]])
    assert np.allclose(probs, 0.5)
    assert predict_mlp(model, [[0.3]])[0] == 0


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 4))
    y = rng.integers(0, 3, 12)
    weights = [rng.standard_normal((4, 5)) * 0.5,
               rng.standard_normal((5, 3)) * 0.5]
    biases = [rng.standard_normal(5) * 0.1, rng.standard_normal(3) * 0.1]
    _, grads_w, grads_b = loss_and_grad(weights, biases, x, y)
    eps = 1e-5
    worst = 0.0

    def loss_at():
        return loss_and_grad(weights, biases, x, y)[0]

    for params, grads in ((weights, grads_w), (biases, grads_b)):
        for layer, grad in zip(params, grads):
            it = np.nditer(layer, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = layer[idx]
                layer[idx] = orig + eps
                up = loss_at()
                layer[idx] = orig - eps
                down = loss_at()
                layer[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
                worst = max(worst, rel)
    assert worst < 1e-5


def test_divergence_raises_numerical_error():
    data = two_point_classes()
    with pytest.raises(NumericalError, match="learning rate"):
        train_mlp(data, hidden=(8,), epochs=5000, learning_rate=1e9, seed=0)


def test_determinism_given_seed():
    data = two_point_classes()
    a = train_mlp(data, hidden=(3,), epochs=20, learning_rate=0.1, seed=11)
    b = train_mlp(data, hidden=(3,), epochs=20, learning_rate=0.1, seed=11)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = train_mlp(data, hidden=(3,), epochs=20, learning_rate=0.1, seed=12)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


def test_init_range_follows_fan_in():
    data = Dataset(np.random.default_rng(0).standard_normal((30, 16)),
                   np.tile([0, 1], 15), ["a", "b"])
    model = train_mlp(data, hidden=(9,), epochs=1, learning_rate=1e-9, seed=4)
    assert np.abs(model.weights[0]).max() <= 1.0 / 4.0 + 1e-6  # 1/sqrt(16)
    assert np.abs(model.weights[1]).max() <= 1.0 / 3.0 + 1e-6  # 1/sqrt(9)


def test_validation_errors():
    data = two_point_classes()
    with pytest.raises(DataError):
        train_mlp(data, epochs=0)
    for rate in (0.0, np.nan):
        with pytest.raises(DataError, match="learning_rate"):
            train_mlp(data, learning_rate=rate)
    for hidden in ((0,), (-5,), (4, 0)):
        with pytest.raises(DataError, match="hidden sizes"):
            train_mlp(data, hidden=hidden)
    model = train_mlp(data, hidden=(2,), epochs=2, learning_rate=0.1, seed=0)
    with pytest.raises(DataError, match="expected 1 features"):
        predict_mlp(model, [[0.0, 1.0]])


def test_sigmoid_bits_equal_masked_oracle():
    rng = np.random.default_rng(4)
    extreme = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        np.finfo(float).max, -np.finfo(float).max,
                        np.finfo(float).tiny, -np.finfo(float).tiny,
                        5e-324, -5e-324, 36.0, -36.0, 745.2, -745.2])
    for z in (rng.standard_normal((131, 64)) * 8.0, extreme):
        got, expected = _sigmoid(z), sigmoid_masked(z)
        assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))
