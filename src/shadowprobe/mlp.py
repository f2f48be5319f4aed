"""Multilayer perceptron with sigmoid units and backpropagation.

Every non-input unit applies the logistic sigmoid 1 / (1 + exp(-net))
to a linear combination of its inputs; each layer's weight matrix
carries the bias as column 0, with the corresponding input pinned to 1.
Training is per-presentation stochastic gradient descent on the squared
error E = 0.5 * ||target - output||^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, RandomSource


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(eq=False)
class Mlp:
    """weights[l] has shape (layer_sizes[l+1], layer_sizes[l] + 1)."""

    layer_sizes: tuple
    weights: list

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ContractError("layer_sizes needs >= 2 positive entries")
        if len(self.weights) != len(self.layer_sizes) - 1:
            raise ContractError("one weight matrix per layer transition required")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        for l, w in enumerate(self.weights):
            want = (self.layer_sizes[l + 1], self.layer_sizes[l] + 1)
            if w.shape != want:
                raise ContractError(f"weight matrix {l} has shape {w.shape}, expected {want}")

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, [w.copy() for w in self.weights])


def init_mlp(layer_sizes, rng: RandomSource) -> Mlp:
    """Weights drawn uniformly from [-0.5, 0.5]."""
    sizes = tuple(int(s) for s in layer_sizes)
    weights = [rng.uniform(-0.5, 0.5, size=(sizes[l + 1], sizes[l] + 1))
               for l in range(len(sizes) - 1)]
    return Mlp(sizes, weights)


def forward(net: Mlp, x) -> tuple[np.ndarray, list]:
    """Output vector plus the activation of every non-input layer."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.layer_sizes[0],):
        raise ContractError(f"input has shape {x.shape}, network expects ({net.layer_sizes[0]},)")
    activations = []
    a = x
    for w in net.weights:
        a = sigmoid(w @ np.concatenate(([1.0], a)))
        activations.append(a)
    return activations[-1], activations


def gradients(net: Mlp, x, target) -> list:
    """dE/dW per layer for E = 0.5 * ||target - output||^2."""
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (net.layer_sizes[-1],):
        raise ContractError(f"target has shape {target.shape}, network outputs ({net.layer_sizes[-1]},)")
    out, activations = forward(net, x)
    grads = [None] * len(net.weights)
    delta = (out - target) * out * (1.0 - out)
    for l in range(len(net.weights) - 1, -1, -1):
        below = x if l == 0 else activations[l - 1]
        grads[l] = np.outer(delta, np.concatenate(([1.0], below)))
        if l > 0:
            back = net.weights[l].T @ delta
            a = activations[l - 1]
            delta = a * (1.0 - a) * back[1:]  # drop the bias row
    return grads


def total_squared_error(net: Mlp, pairs) -> float:
    e = 0.0
    for x, t in pairs:
        out, _ = forward(net, x)
        d = np.asarray(t, dtype=np.float64) - out
        e += 0.5 * float(d @ d)
    return e


def backprop_train(net: Mlp, pairs, lr: float, epochs: int, rng: RandomSource) -> Mlp:
    """Per-presentation SGD; presentation order is reshuffled each epoch.

    Each presentation applies ``w -= lr * dE/dW`` with the gradients of
    that single pair (same math as :func:`gradients`, inlined for
    speed).
    """
    if lr <= 0:
        raise ContractError("learning rate must be positive")
    pairs = [(np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)) for x, t in pairs]
    for _, t in pairs:
        if np.any(t <= 0.0) or np.any(t >= 1.0):
            raise ContractError("targets must lie strictly inside (0, 1)")
    net = net.copy()
    weights = net.weights
    n_layers = len(weights)
    ext = [np.empty(w.shape[1]) for w in weights]  # [1, layer input] buffers
    for e in ext:
        e[0] = 1.0
    acts = [None] * n_layers
    for _ in range(epochs):
        for i in rng.permutation(len(pairs)):
            x, t = pairs[i]
            a = x
            for l, w in enumerate(weights):
                ext[l][1:] = a
                a = sigmoid(w @ ext[l])
                acts[l] = a
            delta = (a - t) * a * (1.0 - a)
            for l in range(n_layers - 1, 0, -1):
                back = weights[l].T @ delta
                weights[l] -= lr * np.outer(delta, ext[l])
                below = acts[l - 1]
                delta = below * (1.0 - below) * back[1:]
            weights[0] -= lr * np.outer(delta, ext[0])
    return net
