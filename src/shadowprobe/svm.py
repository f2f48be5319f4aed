"""Binary soft-margin SVM trained by working-set SMO.

Four kernels are supported: linear x.y, polynomial (gamma x.y + r)^d,
rbf exp(-gamma ||x - y||^2), and sigmoid tanh(gamma x.y + r). Training
is the SMO decomposition of Fan, Chen & Lin (JMLR 2005), LIBSVM's
solver: each iteration pairs the multiplier that violates its KKT
condition most with the one of largest second-order gain, and solves
the two-variable subproblem analytically, clipped onto the box [0, C].
Training is deterministic and stops when the maximal-violating-pair gap
falls below ``tol``. The solver keeps its violation vector and the two
index-set penalties between iterations, so a step touches the whole
vector once and the penalties only at the pair it moved. It never holds
the n x n Gram matrix: as in LIBSVM
(Chang & Lin, ACM TIST 2011, section 4), each kernel column is computed
the first time an iteration touches it, and the diagonal comes from the
squared row norms. Feature scaling is the caller's responsibility.
"""

from __future__ import annotations

import math
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
            raise ContractError(f"kernel_kind: must be one of {KERNEL_KINDS} (got {self.kind!r})")
        if not (_is_finite_number(self.gamma) and _is_finite_number(self.r)):
            raise ContractError(f"gamma and r must be finite numbers ({self.gamma!r}, {self.r!r})")
        if self.kind in ("polynomial", "rbf") and self.gamma < 0:
            raise ContractError(f"gamma: must be >= 0 for polynomial and rbf kernels "
                                f"(got {self.gamma!r})")
        if type(self.degree) is not int or self.degree < 1:
            raise ContractError(f"degree: must be a positive integer (got {self.degree!r})")


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _kernel_values(spec: KernelSpec, dots, sq_x=None, sq_y=None):
    """Kernel values from dot products x.y; rbf also takes the squared
    norms |x|^2 and |y|^2, broadcast against ``dots``."""
    if spec.kind == "linear":
        return dots
    if spec.kind == "polynomial":
        return (spec.gamma * dots + spec.r) ** spec.degree
    if spec.kind == "rbf":
        return np.exp(-spec.gamma * np.maximum(sq_x + sq_y - 2.0 * dots, 0.0))
    return np.tanh(spec.gamma * dots + spec.r)


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Y[j]); training asks for one column
    at a time, decision for all support vectors against a probe batch."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape[1] != Y.shape[1]:
        raise ContractError("kernel operands must share dimension")
    if spec.kind != "rbf":
        return _kernel_values(spec, X @ Y.T)
    return _kernel_values(spec, X @ Y.T, (X * X).sum(1)[:, None], (Y * Y).sum(1)[None, :])


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

    def __post_init__(self):
        """Reject what smo_train never produces, naming the field."""
        C, n = self.C, len(self.sv_alpha)
        if not (_is_finite_number(C) and C > 0):
            raise ContractError(f"SvmModel C must be a finite number > 0, got {C!r}")
        rows = (("sv_indices", "iu", 1, "non-negative", lambda a: a >= 0),
                ("sv_y", "iuf", 1, "-1 or +1", lambda a: abs(a) == 1),
                ("sv_x", "iuf", 2, "finite", lambda a: np.isfinite(a).all(1)),
                ("sv_alpha", "iuf", 1, "in (0, C]", lambda a: (a > 0) & (a <= C)))
        for name, kinds, ndim, want, good in rows:
            a = getattr(self, name)
            if a.dtype.kind not in kinds or a.ndim != ndim or len(a) != n:
                raise ContractError(f"SvmModel {name} must be {ndim}-D with {n} rows of "
                                    f"{'integers' if kinds == 'iu' else 'numbers'}, got "
                                    f"{a.dtype} of shape {a.shape}")
            bad = np.flatnonzero(~good(a))
            if len(bad):
                raise ContractError(f"SvmModel {name} row {bad[0]} must be {want}, "
                                    f"got {a[bad[0]].tolist()!r}")
        if len(set(self.sv_indices.tolist())) != n:  # np.unique or np.sort raise peak RSS
            raise ContractError("SvmModel sv_indices must be distinct")
        if not _is_finite_number(self.bias):
            raise ContractError(f"SvmModel bias must be a finite number, got {self.bias!r}")
        if not isinstance(self.converged, bool):
            raise ContractError(f"SvmModel converged must be a bool, got {self.converged!r}")
        if self.label_map is not None and (not isinstance(self.label_map, dict)
                                           or set(self.label_map) != {-1, 1}):
            raise ContractError(f"SvmModel label_map must be None or have keys -1 and 1, "
                                f"got {self.label_map!r}")

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
    0 <= a <= C, y'a = 0, whose gradient is G = Qa - 1. Let F = -y G;
    I_up holds the t with y_t = +1 and a_t < C, or y_t = -1 and a_t > 0,
    and I_low the t with y_t = +1 and a_t > 0, or y_t = -1 and a_t < C.
    With m = max F over I_up and M = min F over I_low, a is optimal when
    m <= M. Each iteration takes i = argmax F over I_up and the j in
    I_low with F_j < m that maximises the second-order gain
    (m - F_j)^2 / a_ij, a_ij = K_ii + K_jj - 2 K_ij (floored at 1e-12, so
    the non-PSD sigmoid kernel still moves). Training stops with
    ``converged=True`` once m - M < tol, or with ``converged=False``
    after max(10^7, 100 |ds|) iterations.

    The solver keeps F rather than G, plus two penalty vectors: pen_up is
    0 on I_up and -inf off it, pen_low 0 on I_low and +inf off it, so
    the masked copies are F + pen_up and F + pen_low. A step that adds
    y u to G subtracts u from F, which is exact because y = +-1 (only a
    zero may change sign); only the penalties of i and j are rewritten,
    and G_i, G_j and the bias are read from F.

    K is never held whole: an iteration fetches column i before it
    chooses j and column j for the gradient update, and each column is
    computed once, so at most |ds| columns are computed and kept. A
    non-finite kernel value, such as an overflow from huge features, is
    a ``ContractError`` naming the example.
    """
    # A NaN or infinite C or tol would run the solve to its iteration cap.
    if not 0 < C < math.inf:
        raise ContractError(f"C must be positive and finite, got {C!r}")
    if not 0 < tol < math.inf:
        raise ContractError(f"tol must be positive and finite, got {tol!r}")
    if not ds.fully_labeled:
        raise ContractError("training requires a fully labeled dataset")
    C, tol = float(C), float(tol)
    X = numeric_matrix(ds)
    y, label_map = _map_labels(ds.labels)
    n = len(y)

    # Columns of K, each computed the first time an iteration touches it.
    columns = {}

    def column(t):
        col = columns.get(t)
        if col is None:
            with np.errstate(over="ignore", invalid="ignore"):
                col = kernel_matrix(kernel, X, X[t:t + 1])[:, 0]
            if not np.isfinite(col).all():
                raise ContractError(f"kernel column of example {t} is not finite")
            columns[t] = col
        return col

    with np.errstate(over="ignore", invalid="ignore"):
        sq = (X * X).sum(1)
        kdiag = _kernel_values(kernel, sq, sq, sq)
    if not np.isfinite(kdiag).all():
        t = int(np.flatnonzero(~np.isfinite(kdiag))[0])
        raise ContractError(f"kernel value K(x, x) of example {t} is not finite")
    # At alpha = 0, G = -1, so F = y, I_up = {y = +1} and I_low = {y = -1}.
    pos = y > 0
    alpha = np.zeros(n)
    F = y.copy()
    pen_up = np.where(pos, 0.0, -np.inf)
    pen_low = np.where(pos, np.inf, 0.0)
    F_up, F_low = np.empty(n), np.empty(n)
    cap = max(_MIN_ITERS, _ITERS_PER_EXAMPLE * n)
    iters = 0
    # A tiny a_ij makes the gain (m - F_j)^2 / a_ij overflow to inf, which
    # still ranks j first, so overflow is silenced for the whole solve:
    # one context here costs less than one per iteration.
    with np.errstate(over="ignore"):
        while True:
            np.add(F, pen_up, out=F_up)
            np.add(F, pen_low, out=F_low)
            i = int(F_up.argmax())
            m, M = F_up[i], np.minimum.reduce(F_low)
            if m - M < tol or iters == cap:
                break
            iters += 1
            # j maximises the gain (m - F_low)^2 / a over the t with F_low < m,
            # the ones that can pair with i. Clamping m - F_low at 0 scores the
            # rest 0; only if every gain is 0 (underflow) can one of them win,
            # and then j is the first t that can pair.
            K_i = column(i)
            a = kdiag[i] + kdiag
            a -= 2.0 * K_i
            a[~(a > 0)] = _TAU
            gain = m - F_low
            np.fmax(gain, 0.0, out=gain)
            gain *= gain
            gain /= a
            j = int(gain.argmax())
            if gain.item(j) == 0:
                j = int((F_low < m).argmax())

            # LIBSVM's analytic two-variable step, clipped onto the box.
            y_i, y_j = y.item(i), y.item(j)
            G_i, G_j = -y_i * F.item(i), -y_j * F.item(j)
            a_i, a_j = alpha.item(i), alpha.item(j)
            quad = a.item(j)
            if y_i != y_j:
                delta = (-G_i - G_j) / quad
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
                delta = (G_i - G_j) / quad
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
            # G += y u is F -= u, exactly: y = +-1, so -y fl(G + y u) = fl(F - u).
            F -= (y_i * (a_i - alpha.item(i))) * K_i + (y_j * (a_j - alpha.item(j))) * column(j)
            alpha[i], alpha[j] = a_i, a_j
            for t, y_t, a_t in ((i, y_i, a_i), (j, y_j, a_j)):
                up, low = (a_t < C, a_t > 0) if y_t > 0 else (a_t > 0, a_t < C)
                pen_up[t] = 0.0 if up else -np.inf
                pen_low[t] = 0.0 if low else np.inf

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
