"""Multilayer perceptron: sigmoid hidden layers, softmax output,
full-batch gradient descent on cross-entropy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError
from .data import Dataset, standardize, standardize_fit


@dataclass
class MlpModel:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    mean: np.ndarray
    std: np.ndarray


def _sigmoid(z):
    # min(z, -z) is -z where z >= 0 and z elsewhere, so neither branch
    # can overflow; unlike -|z| it returns a NaN with its own sign bit
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(weights, biases, a):
    """Each layer's input activations, then the softmax output."""
    activations = [a]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = _sigmoid(a @ w + b)
        activations.append(a)
    return activations, _softmax(a @ weights[-1] + biases[-1])


def loss_and_grad(weights, biases, x, y):
    """Mean cross-entropy and its gradients for one full batch."""
    activations, probs = _forward(weights, biases, x)
    n = x.shape[0]
    rows = np.arange(n)
    # log(0) = -inf is deliberate: assigning probability zero to a true
    # class is the divergence signal the trainer aborts on
    with np.errstate(divide="ignore"):
        loss = -np.mean(np.log(probs[rows, y]))

    probs[rows, y] -= 1.0
    delta = probs / n
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
    if not learning_rate > 0:
        raise DataError("learning_rate must be positive")
    if data.n_classes < 2:
        raise DataError("need at least two classes")
    mean, std = standardize_fit(data.features)
    x = standardize(data.features, mean, std)
    y = data.labels
    sizes = [data.n_features, *hidden, data.n_classes]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-lim, lim, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    for epoch in range(epochs):
        loss, gw, gb = loss_and_grad(weights, biases, x, y)
        if not np.isfinite(loss):
            raise NumericalError(
                f"non-finite loss at epoch {epoch}; learning rate too high?")
        for layer in range(len(weights)):
            weights[layer] -= learning_rate * gw[layer]
            biases[layer] -= learning_rate * gb[layer]
    return MlpModel(weights, biases, mean, std)


def decision_values_mlp(model: MlpModel, features: np.ndarray) -> np.ndarray:
    return _forward(model.weights, model.biases,
                    standardize(features, model.mean, model.std))[1]


def predict_mlp(model: MlpModel, features: np.ndarray) -> np.ndarray:
    # argmax takes the lowest class id on ties
    return np.argmax(decision_values_mlp(model, features), axis=1)
