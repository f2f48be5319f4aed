"""Multilayer perceptron with sigmoid units and backpropagation.

Every non-input unit applies the logistic sigmoid 1 / (1 + exp(-net))
to a linear combination of its inputs; each layer's weight matrix
carries the bias as column 0, with the corresponding input pinned to 1.
Training is per-presentation stochastic gradient descent on the squared
error E = 0.5 * ||target - output||^2; same-shaped nets train side by
side on stacked weights, each exactly as it would alone. One stacked
forward pass and one stacked backward pass serve the trainer, and
:func:`forward` and :func:`gradients` run them on a stack of one net.
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
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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


def _forward(weights: list, ext: list, a: np.ndarray) -> list:
    """Activations of every non-input layer of a stack of nets: weights[l]
    is (nets, out, in + 1), a is (nets, n_in), and ext[l], a (nets, in + 1)
    buffer with 1 in column 0, receives layer l's input."""
    acts = []
    for w, e in zip(weights, ext):
        e[:, 1:] = a
        a = sigmoid((w @ e[..., None])[..., 0])
        acts.append(a)
    return acts


def _backward(weights: list, ext: list, acts: list, target: np.ndarray) -> list:
    """dE/dW of every layer of a stack of nets after :func:`_forward`."""
    grads = [None] * len(weights)
    out = acts[-1]
    delta = (out - target) * out * (1.0 - out)
    for l in range(len(weights) - 1, -1, -1):
        grads[l] = delta[..., None] * ext[l][..., None, :]
        if l > 0:
            back = (weights[l].transpose(0, 2, 1) @ delta[..., None])[..., 0]
            below = acts[l - 1]
            delta = below * (1.0 - below) * back[:, 1:]  # drop the bias row
    return grads


def _forward_one(net: Mlp, x):
    """The stack of one net, its layer inputs and its forward pass on x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.layer_sizes[0],):
        raise ContractError(f"input has shape {x.shape}, network expects ({net.layer_sizes[0]},)")
    weights = [w[None] for w in net.weights]
    ext = [np.ones((1, w.shape[2])) for w in weights]
    return weights, ext, _forward(weights, ext, x[None])


def forward(net: Mlp, x) -> tuple[np.ndarray, list]:
    """Output vector plus the activation of every non-input layer."""
    activations = [a[0] for a in _forward_one(net, x)[2]]
    return activations[-1], activations


def gradients(net: Mlp, x, target) -> list:
    """dE/dW per layer for E = 0.5 * ||target - output||^2."""
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (net.layer_sizes[-1],):
        raise ContractError(f"target has shape {target.shape}, network outputs ({net.layer_sizes[-1]},)")
    return [g[0] for g in _backward(*_forward_one(net, x), target[None])]


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
    the gradients of that single pair (the same code as :func:`gradients`).
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
    ext = [np.ones((len(nets), w.shape[2])) for w in weights]
    for _ in range(epochs):
        orders = np.stack([rng.permutation(len(xs)) for rng in rngs], axis=1)
        for x, t in zip(xs[orders], ts[orders]):  # one pair per net
            acts = _forward(weights, ext, x)
            for w, g in zip(weights, _backward(weights, ext, acts, t)):
                g *= lr
                w -= g
    return [Mlp(sizes, [w[s] for w in weights]) for s in range(len(nets))]
