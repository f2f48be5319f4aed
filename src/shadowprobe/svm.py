"""Binary soft-margin SVM trained by simplified SMO.

Four kernels are supported: linear x.y, polynomial (gamma x.y + r)^d,
rbf exp(-gamma ||x - y||^2), and sigmoid tanh(gamma x.y + r). Training
follows the classic simplified SMO scheme: sweep the examples, and for
each multiplier violating its KKT condition within tolerance, pair it
with a random second multiplier and solve the two-variable subproblem
analytically. Each accepted pair update can only increase the dual
objective. Feature scaling is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, Dataset, RandomSource, numeric_matrix

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")
_DRAW_BLOCK = 1024  # second indices drawn per RandomSource call


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    gamma: float = 1.0
    r: float = 0.0
    degree: int = 3

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ContractError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("polynomial", "rbf") and self.gamma < 0:
            raise ContractError("gamma must be >= 0 for polynomial and rbf kernels")
        if self.degree < 1 or int(self.degree) != self.degree:
            raise ContractError("degree must be a positive integer")


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Gram matrix K[i, j] = K(X[i], Y[j]); used by training and decision."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ContractError("kernel operands must share dimension")
    if spec.kind == "linear":
        return X @ Y.T
    if spec.kind == "polynomial":
        return (spec.gamma * (X @ Y.T) + spec.r) ** spec.degree
    if spec.kind == "rbf":
        sq = (X * X).sum(1)[:, None] + (Y * Y).sum(1)[None, :] - 2.0 * (X @ Y.T)
        return np.exp(-spec.gamma * np.maximum(sq, 0.0))
    return np.tanh(spec.gamma * (X @ Y.T) + spec.r)


@dataclass(eq=False)
class SvmModel:
    """Dual-form model: only vectors with alpha > 0 are stored.

    ``sv_indices`` holds each support vector's position in the training
    dataset so serialization keeps training order and audits can
    reconstruct the full multiplier vector.
    """

    sv_indices: np.ndarray
    sv_y: np.ndarray
    sv_x: np.ndarray
    sv_alpha: np.ndarray
    bias: float
    kernel: KernelSpec
    C: float
    converged: bool
    label_map: dict | None = None     # {-1: label, +1: label} when trained on named labels

    @property
    def n_support(self) -> int:
        return len(self.sv_alpha)

    @property
    def dim(self) -> int:
        return self.sv_x.shape[1]


def _map_labels(labels):
    distinct = sorted(set(labels))
    if len(distinct) < 2:
        raise ContractError("training data contains a single class")
    if len(distinct) > 2:
        raise ContractError(f"binary SVM got {len(distinct)} classes: {distinct}")
    if set(distinct) == {-1.0, 1.0} or set(distinct) == {-1, 1}:
        return np.array([float(l) for l in labels]), None
    y = np.array([1.0 if l == distinct[1] else -1.0 for l in labels])
    return y, {-1: distinct[0], 1: distinct[1]}


def smo_train(ds: Dataset, kernel: KernelSpec, C: float = 1.0, tol: float = 1e-3,
              max_passes: int | None = None, rng: RandomSource | None = None) -> SvmModel:
    """Train by simplified SMO with random second-index selection.

    ``max_passes`` bounds the number of consecutive full sweeps that make
    no accepted pair update before training stops (default 10 * |ds|).
    A sweep that finds no KKT violation at all ends training with
    ``converged=True``; exhausting the quiet-sweep budget while
    violations remain returns the best model so far flagged
    ``converged=False``.

    The trainer owns ``rng``: it draws the random second indices in
    blocks of 1024 (the same stream as one draw per pair), so the
    generator's state after it returns is unspecified. Give each
    training its own source.
    """
    if rng is None:
        raise ContractError("smo_train requires a RandomSource")
    if C <= 0:
        raise ContractError("C must be positive")
    if tol <= 0:
        raise ContractError("tol must be positive")
    if not ds.fully_labeled:
        raise ContractError("training requires a fully labeled dataset")
    C, tol = float(C), float(tol)
    X = numeric_matrix(ds)
    y, label_map = _map_labels(ds.labels)
    n = len(y)
    if max_passes is None:
        max_passes = 10 * n

    K = kernel_matrix(kernel, X, X)
    b = 0.0
    f = np.zeros(n)  # f[i] = sum_j alpha_j y_j K[j, i] + b, kept incrementally
    # The pair updates run on Python floats. The sweep's vectorised KKT
    # scan flags i when y_i (f_i - y_i) < lower[i] or > upper[i]: the
    # bound is -tol (tol) while alpha_i < C (alpha_i > 0), else infinite.
    alpha = [0.0] * n
    lower = np.full(n, -tol)
    upper = np.full(n, np.inf)
    yl = y.tolist()
    kdiag = K.diagonal().tolist()
    snap = 1e-10 * C
    min_step = 1e-14 * max(1.0, C)
    draws, drawn = [], 0

    quiet = 0
    converged = False
    while quiet < max_passes:
        resid = y * (f - y)
        candidates = np.flatnonzero((resid < lower) | (resid > upper)).tolist()
        if not candidates:
            converged = True
            break
        changed = 0
        for i in candidates:
            y_i = yl[i]
            e_i = f.item(i) - y_i
            a_i_old = alpha[i]
            # Re-check: earlier updates in this sweep may have fixed i.
            if not ((y_i * e_i < -tol and a_i_old < C) or (y_i * e_i > tol and a_i_old > 0)):
                continue
            if drawn == len(draws):
                draws, drawn = rng.integers(0, n - 1, size=_DRAW_BLOCK).tolist(), 0
            j = draws[drawn]
            drawn += 1
            if j >= i:
                j += 1
            y_j = yl[j]
            e_j = f.item(j) - y_j
            a_j_old = alpha[j]
            if y_i != y_j:
                lo = max(0.0, a_j_old - a_i_old)
                hi = min(C, C + a_j_old - a_i_old)
            else:
                lo = max(0.0, a_i_old + a_j_old - C)
                hi = min(C, a_i_old + a_j_old)
            if lo >= hi:
                continue
            k_ij = K.item(i, j)
            eta = 2.0 * k_ij - kdiag[i] - kdiag[j]
            if eta >= 0:
                continue
            a_j = a_j_old - y_j * (e_i - e_j) / eta
            a_j = min(max(a_j, lo), hi)
            if abs(a_j - a_j_old) < min_step:
                continue
            a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
            # Snap float dust onto the exact box bounds; otherwise
            # near-zero residue keeps registering as a free vector.
            if a_i < snap:
                a_i = 0.0
            elif a_i > C - snap:
                a_i = C
            if a_j < snap:
                a_j = 0.0
            elif a_j > C - snap:
                a_j = C
            d_i, d_j = a_i - a_i_old, a_j - a_j_old
            b1 = b - e_i - y_i * d_i * kdiag[i] - y_j * d_j * k_ij
            b2 = b - e_j - y_i * d_i * k_ij - y_j * d_j * kdiag[j]
            if 0 < a_i < C:
                b_new = b1
            elif 0 < a_j < C:
                b_new = b2
            else:
                b_new = (b1 + b2) / 2.0
            alpha[i], alpha[j] = a_i, a_j
            lower[i] = -tol if a_i < C else -np.inf
            upper[i] = tol if a_i > 0 else np.inf
            lower[j] = -tol if a_j < C else -np.inf
            upper[j] = tol if a_j > 0 else np.inf
            f += y_i * d_i * K[i] + y_j * d_j * K[j] + (b_new - b)
            b = b_new
            changed += 1
        quiet = quiet + 1 if changed == 0 else 0

    alpha = np.array(alpha)
    sv = np.nonzero(alpha > 0)[0]
    return SvmModel(
        sv_indices=sv,
        sv_y=y[sv],
        sv_x=X[sv],
        sv_alpha=alpha[sv],
        bias=float(b),
        kernel=kernel,
        C=C,
        converged=converged,
        label_map=label_map,
    )


def svm_decision(model: SvmModel, x) -> float:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ContractError(f"probe has dimension {x.shape}, model expects {model.dim}")
    if model.n_support == 0:
        return float(model.bias)
    k = kernel_matrix(model.kernel, model.sv_x, x[None, :])[:, 0]
    return float((model.sv_alpha * model.sv_y) @ k + model.bias)


def svm_predict(model: SvmModel, x):
    """Predicted label: sign of the decision value, with sign(0) = +1."""
    s = 1 if svm_decision(model, x) >= 0 else -1
    if model.label_map is not None:
        return model.label_map[s]
    return s


def kkt_audit(model: SvmModel, ds: Dataset, tol: float) -> dict:
    """Check the trained multipliers against the KKT conditions.

    ``ds`` must be the dataset the model was trained on (same row
    order). For each example i with margin m_i = y_i f(x_i):
    alpha=0 requires m_i >= 1 - tol, 0<alpha<C requires |m_i - 1| <= tol,
    alpha=C requires m_i <= 1 + tol. Also reports the dual equality
    residual sum alpha_i y_i.
    """
    X = numeric_matrix(ds)
    y, _ = _map_labels(ds.labels)
    n = len(y)
    alpha = np.zeros(n)
    alpha[model.sv_indices] = model.sv_alpha
    if model.n_support:
        K = kernel_matrix(model.kernel, model.sv_x, X)
        fx = (model.sv_alpha * model.sv_y) @ K + model.bias
    else:
        fx = np.full(n, model.bias)
    margin = y * fx
    C = model.C
    free = (alpha > 0) & (alpha < C)
    viol_zero = np.where(alpha == 0, np.maximum(0.0, (1.0 - margin) - tol), 0.0)
    viol_free = np.where(free, np.maximum(0.0, np.abs(margin - 1.0) - tol), 0.0)
    viol_cap = np.where(alpha >= C, np.maximum(0.0, (margin - 1.0) - tol), 0.0)
    worst = float(np.max(viol_zero + viol_free + viol_cap))
    eq = float(np.abs((alpha * y).sum()))
    return {
        "passed": worst == 0.0 and eq <= 1e-8 * max(1.0, C * n),
        "max_violation": worst,
        "equality_residual": eq,
    }
