"""Binary soft-margin SVM trained by working-set SMO.

Four kernels are supported: linear x.y, polynomial (gamma x.y + r)^d,
rbf exp(-gamma ||x - y||^2), and sigmoid tanh(gamma x.y + r). Training
is the SMO decomposition of Fan, Chen & Lin (JMLR 2005), LIBSVM's
solver: each iteration pairs the multiplier that violates its KKT
condition most with the one of largest second-order gain, and solves
the two-variable subproblem analytically, clipped onto the box [0, C].
Training is deterministic and stops when the maximal-violating-pair gap
falls below ``tol``. Feature scaling is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractError, Dataset, numeric_matrix

KERNEL_KINDS = ("linear", "polynomial", "rbf", "sigmoid")
_TAU = 1e-12  # curvature used for pairs with K_ii + K_jj - 2 K_ij <= 0
# Iteration cap max(_MIN_ITERS, _ITERS_PER_EXAMPLE * n), as in LIBSVM.
_MIN_ITERS = 10_000_000
_ITERS_PER_EXAMPLE = 100


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


def smo_train(ds: Dataset, kernel: KernelSpec, C: float = 1.0, tol: float = 1e-3) -> SvmModel:
    """Train by SMO with second-order working-set selection.

    Minimises the dual a'Qa/2 - sum(a), Q_ij = y_i y_j K_ij, over
    0 <= a <= C, y'a = 0, keeping its gradient G = Qa - 1. Let F = -y G;
    I_up holds the t with y_t = +1 and a_t < C, or y_t = -1 and a_t > 0,
    and I_low the t with y_t = +1 and a_t > 0, or y_t = -1 and a_t < C.
    With m = max F over I_up and M = min F over I_low, a is optimal when
    m <= M. Each iteration takes i = argmax F over I_up and the j in
    I_low with F_j < m that maximises the second-order gain
    (m - F_j)^2 / a_ij, a_ij = K_ii + K_jj - 2 K_ij (floored at 1e-12, so
    the non-PSD sigmoid kernel still moves). Training stops with
    ``converged=True`` once m - M < tol, or with ``converged=False``
    after max(10^7, 100 |ds|) iterations.
    """
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

    K = kernel_matrix(kernel, X, X)
    kdiag = K.diagonal()
    pos = y > 0
    alpha = np.zeros(n)
    G = np.full(n, -1.0)
    cap = max(_MIN_ITERS, _ITERS_PER_EXAMPLE * n)
    iters = 0
    while True:
        F = -y * G
        above, below = alpha > 0, alpha < C
        F_up = np.where(np.where(pos, below, above), F, -np.inf)
        F_low = np.where(np.where(pos, above, below), F, np.inf)
        i = int(np.argmax(F_up))
        m, M = F_up[i], F_low.min()
        if m - M < tol or iters == cap:
            break
        iters += 1
        b = m - F_low  # > 0 exactly where j can pair with i
        a = kdiag[i] + kdiag - 2.0 * K[i]
        j = int(np.argmax(np.where(b > 0, b * b / np.where(a > 0, a, _TAU), -1.0)))

        # LIBSVM's analytic two-variable step, clipped onto the box.
        y_i, y_j = y.item(i), y.item(j)
        a_i, a_j = alpha.item(i), alpha.item(j)
        quad = a.item(j) if a.item(j) > 0 else _TAU
        if y_i != y_j:
            delta = (-G.item(i) - G.item(j)) / quad
            diff = a_i - a_j
            a_i, a_j = a_i + delta, a_j + delta
            if diff > 0:
                if a_j < 0:
                    a_i, a_j = diff, 0.0
                if a_i > C:
                    a_i, a_j = C, C - diff
            else:
                if a_i < 0:
                    a_i, a_j = 0.0, -diff
                if a_j > C:
                    a_i, a_j = C + diff, C
        else:
            delta = (G.item(i) - G.item(j)) / quad
            total = a_i + a_j
            a_i, a_j = a_i - delta, a_j + delta
            if total > C:
                if a_i > C:
                    a_i, a_j = C, total - C
                if a_j > C:
                    a_i, a_j = total - C, C
            else:
                if a_j < 0:
                    a_i, a_j = total, 0.0
                if a_i < 0:
                    a_i, a_j = 0.0, total
        G += y * ((y_i * (a_i - alpha.item(i))) * K[i] + (y_j * (a_j - alpha.item(j))) * K[j])
        alpha[i], alpha[j] = a_i, a_j

    # On a free vector y f(x) = 1 makes b = F; with none, LIBSVM's midpoint.
    free = (alpha > 0) & (alpha < C)
    bias = float(F[free].mean()) if free.any() else float(m + M) / 2.0
    sv = np.flatnonzero(alpha > 0)
    return SvmModel(
        sv_indices=sv,
        sv_y=y[sv],
        sv_x=X[sv],
        sv_alpha=alpha[sv],
        bias=bias,
        kernel=kernel,
        C=C,
        converged=bool(m - M < tol),
        label_map=label_map,
    )


def svm_decision(model: SvmModel, X) -> np.ndarray:
    """f(x) = sum_i alpha_i y_i K(x_i, x) + b for each row x of the
    ``(m, dim)`` batch ``X``; the predicted class is the sign, with
    sign(0) = +1 (``label_map[1]`` for named labels)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ContractError(f"probes have shape {X.shape}, model expects (m, {model.dim})")
    return (model.sv_alpha * model.sv_y) @ kernel_matrix(model.kernel, model.sv_x, X) + model.bias


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
    margin = y * svm_decision(model, X)
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
