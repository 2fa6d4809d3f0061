"""Multilayer perceptron: sigmoid hidden layers, softmax output,
full-batch gradient descent on cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericalError
from .data import Dataset, standardize_fit


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    mean: np.ndarray = field(default=None)
    std: np.ndarray = field(default=None)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grad(weights, biases, x, y, n_classes):
    """Mean cross-entropy and its gradients for one full batch."""
    activations = [x]
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = _sigmoid(a @ w + b)
        activations.append(a)
    probs = _softmax(a @ weights[-1] + biases[-1])
    n = x.shape[0]
    # log(0) = -inf is deliberate: assigning probability zero to a true
    # class is the divergence signal the trainer aborts on
    with np.errstate(divide="ignore"):
        loss = -np.mean(np.log(probs[np.arange(n), y]))

    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    delta = (probs - onehot) / n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = activations[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            a_prev = activations[layer]
            delta = (delta @ weights[layer].T) * a_prev * (1.0 - a_prev)
    return loss, grads_w, grads_b


def train_mlp(data: Dataset, hidden=(64,), epochs: int = 300,
              learning_rate: float = 0.1, seed: int = 0) -> MlpModel:
    """Deterministic full-batch training from a seeded uniform init."""
    if any(size < 1 for size in hidden):
        raise DataError("hidden sizes must be at least 1")
    if epochs < 1:
        raise DataError("epochs must be at least 1")
    if learning_rate <= 0:
        raise DataError("learning_rate must be positive")
    if data.n_classes < 2:
        raise DataError("need at least two classes")
    mean, std = standardize_fit(data.features)
    x = (data.features - mean) / std
    y = data.labels
    sizes = [data.n_features, *hidden, data.n_classes]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    for epoch in range(epochs):
        loss, gw, gb = loss_and_grad(weights, biases, x, y, data.n_classes)
        if not np.isfinite(loss):
            raise NumericalError(
                f"non-finite loss at epoch {epoch}; learning rate too high?")
        for layer in range(len(weights)):
            weights[layer] -= learning_rate * gw[layer]
            biases[layer] -= learning_rate * gb[layer]
    return MlpModel(sizes, weights, biases, mean, std)


def decision_values_mlp(model: MlpModel, features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if features.shape[1] != model.layer_sizes[0]:
        raise DataError(f"expected {model.layer_sizes[0]} features, "
                        f"got {features.shape[1]}")
    a = features
    if model.mean is not None:
        a = (a - model.mean) / model.std
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = _sigmoid(a @ w + b)
    return _softmax(a @ model.weights[-1] + model.biases[-1])


def predict_mlp(model: MlpModel, features: np.ndarray) -> np.ndarray:
    # argmax takes the lowest class id on ties
    return np.argmax(decision_values_mlp(model, features), axis=1)
