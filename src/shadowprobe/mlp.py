"""Multilayer perceptron with sigmoid units and backpropagation.

Every non-input unit applies the logistic sigmoid 1 / (1 + exp(-net))
to a linear combination of its inputs; each layer's weight matrix
carries the bias as column 0, with the corresponding input pinned to 1.
Training is per-presentation stochastic gradient descent on the squared
error E = 0.5 * ||target - output||^2; same-shaped nets train side by
side on stacked weights, each exactly as it would alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError, RandomSource


def sigmoid(z):
    """Logistic function; exp only ever sees -|z|, so it cannot overflow."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
            if not np.all(np.isfinite(w)):
                raise ContractError(f"weight matrix {l} has non-finite entries")


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
    return sum(0.5 * float(((forward(net, x)[0] - np.asarray(t, dtype=np.float64)) ** 2).sum())
               for x, t in pairs)


def _training_pairs(pairs, n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets as (pairs, n_in) and (pairs, n_out) arrays, validated."""
    xs, ts = np.empty((len(pairs), n_in)), np.empty((len(pairs), n_out))
    for i, (x, t) in enumerate(pairs):
        x, t = np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)
        if x.shape != (n_in,) or t.shape != (n_out,):
            raise ContractError(f"pair {i}: input {x.shape} and target {t.shape} do not fit "
                                f"a network of shape ({n_in},) -> ({n_out},)")
        if not np.all(np.isfinite(x)):
            raise ContractError(f"pair {i}: input must be finite")
        if not np.all((t > 0.0) & (t < 1.0)):
            raise ContractError(f"pair {i}: targets must lie strictly inside (0, 1)")
        xs[i], ts[i] = x, t
    return xs, ts


def backprop_train(nets, pairs, lr: float, epochs: int, rngs) -> list[Mlp]:
    """Per-presentation SGD of same-shaped nets, trained side by side.

    Each net draws a fresh presentation order from its own RandomSource
    every epoch, and each presentation applies ``w -= lr * dE/dW`` with
    the gradients of that single pair (same math as :func:`gradients`).
    Layer l of all nets is one ``(nets, out, in + 1)`` stack, so one
    presentation step is a handful of stacked numpy calls for every net;
    each net's products are the same matrix-vector products as when it
    trains alone, so a net's result does not depend on its stack mates.
    """
    nets = list(nets)
    if not nets:
        raise ContractError("backprop_train needs at least one net")
    sizes = nets[0].layer_sizes
    if any(net.layer_sizes != sizes for net in nets):
        raise ContractError("nets trained together must share layer_sizes")
    if len(rngs) != len(nets):
        raise ContractError(f"one RandomSource per net required: {len(nets)} nets, {len(rngs)} rngs")
    if not (lr > 0 and math.isfinite(lr)):
        raise ContractError(f"learning rate must be positive and finite, got {lr!r}")
    if epochs < 0:
        raise ContractError(f"epochs must be >= 0, got {epochs!r}")
    xs, ts = _training_pairs(pairs, sizes[0], sizes[-1])
    weights = [np.stack([net.weights[l] for net in nets]) for l in range(len(sizes) - 1)]
    n_layers = len(weights)
    ext = [np.empty((len(nets), w.shape[2])) for w in weights]  # [1, layer input] per net
    for e in ext:
        e[:, 0] = 1.0
    acts = [None] * n_layers
    for _ in range(epochs):
        orders = np.stack([rng.permutation(len(xs)) for rng in rngs], axis=1)
        for pick in orders:  # one pair index per net
            a = xs[pick]
            for l, w in enumerate(weights):
                ext[l][:, 1:] = a
                a = sigmoid((w @ ext[l][..., None])[..., 0])
                acts[l] = a
            delta = (a - ts[pick]) * a * (1.0 - a)
            for l in range(n_layers - 1, 0, -1):
                back = (weights[l].transpose(0, 2, 1) @ delta[..., None])[..., 0]
                weights[l] -= lr * (delta[..., None] * ext[l][..., None, :])
                below = acts[l - 1]
                delta = below * (1.0 - below) * back[:, 1:]  # drop the bias row
            weights[0] -= lr * (delta[..., None] * ext[0][..., None, :])
    return [Mlp(sizes, [w[s] for w in weights]) for s in range(len(nets))]
