"""Independent reference implementations used as test oracles.

Everything here deliberately recomputes results through a different
route than the library (exact rationals, exhaustive enumeration,
numerical quadrature, finite differences, or the plain scalar loops,
named ``*_reference``, that the library's batched code must match bit
for bit) and must stay free of library internals beyond plain data
types.
"""

from fractions import Fraction
import itertools
import math

import mpmath
import numpy as np
from scipy.integrate import quad

mpmath.mp.dps = 50


def entropy_bits_exact(counts):
    """-sum p log2 p with exact rationals, converted at the end."""
    total = sum(counts)
    h = mpmath.mpf(0)
    for c in counts:
        if c > 0:
            p = Fraction(c, total)
            mp = mpmath.mpf(p.numerator) / mpmath.mpf(p.denominator)
            h -= mp * mpmath.log(mp, 2)
    return float(h)


def info_gain_exact(labels, parts):
    """Gain of a partition of label list ``labels`` into ``parts`` (index lists)."""
    def ent(idx):
        counts = {}
        for i in idx:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        return entropy_bits_exact(list(counts.values()))

    n = len(labels)
    h = ent(range(n))
    return h - sum(len(p) / n * ent(p) for p in parts if p)


def greedy_tree_exact(rows, labels, min_leaf_size=1):
    """Independent greedy splitter over numeric attributes with exact
    gain comparison via Fractions; returns a predict(values) callable.

    Gains are compared as exact rationals of the form
    H = -sum (c/n) log2(c/n); since log2 is transcendental the
    comparison uses mpmath at 50 digits, which is exact for any
    realistic tie/non-tie gap except exact ties, resolved toward the
    lower attribute then lower threshold (evaluation order).
    """
    rows = [tuple(map(float, r)) for r in rows]
    d = len(rows[0])

    def ent(idx):
        counts = {}
        for i in idx:
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        return entropy_bits_exact(list(counts.values()))

    def majority(idx):
        counts = {}
        order = []
        for i in idx:
            if labels[i] not in counts:
                order.append(labels[i])
            counts[labels[i]] = counts.get(labels[i], 0) + 1
        best = max(counts.values())
        return [l for l in order if counts[l] == best][0]

    def build(idx):
        if len({labels[i] for i in idx}) == 1:
            return ("leaf", labels[idx[0]])
        if len(idx) < min_leaf_size:
            return ("leaf", majority(idx))
        best = None
        h = ent(idx)
        for a in range(d):
            vals = sorted({rows[i][a] for i in idx})
            for lo, hi in zip(vals, vals[1:]):
                t = (lo + hi) / 2
                left = [i for i in idx if rows[i][a] <= t]
                right = [i for i in idx if rows[i][a] > t]
                g = h - (len(left) / len(idx)) * ent(left) - (len(right) / len(idx)) * ent(right)
                if best is None or g > best[0] + 1e-30:
                    best = (g, a, t, left, right)
        if best is None:
            return ("leaf", majority(idx))
        _, a, t, left, right = best
        return ("node", a, t, build(left), build(right))

    tree = build(list(range(len(rows))))

    def predict(values):
        node = tree
        while node[0] == "node":
            _, a, t, lo, hi = node
            node = lo if values[a] <= t else hi
        return node[1]

    return predict


def svm_dual_objective(alpha, y, K):
    v = alpha * y
    return float(alpha.sum() - 0.5 * (v @ K @ v))


def svm_dual_pga(y, K, C, iters=200_000, seed=0):
    """Projected gradient ascent on the SVM dual, run to tight convergence.

    The feasible set {0 <= a <= C, sum a_i y_i = 0} is handled by exact
    Euclidean projection: alpha = clip(v - lam * y, 0, C) where the
    residual g(lam) = y . alpha is piecewise linear and non-increasing
    in lam, so its root is found exactly from the sorted breakpoints.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)

    def project(v):
        bps = np.concatenate([v / y, (v - C) / y])
        bps.sort()
        g = np.clip(v[None, :] - bps[:, None] * y[None, :], 0.0, C) @ y
        if g[0] <= 0.0:
            lam = bps[0] - 1.0  # root left of all breakpoints: g constant there
        elif g[-1] >= 0.0:
            lam = bps[-1] + 1.0
        else:
            j = int(np.searchsorted(-g, 0.0))  # first index with g <= 0
            lo, hi = bps[j - 1], bps[j]
            glo, ghi = g[j - 1], g[j]
            lam = lo if ghi == glo else lo + (hi - lo) * glo / (glo - ghi)
        return np.clip(v - lam * y, 0.0, C)

    lam_max = float(np.linalg.eigvalsh((y[:, None] * K * y[None, :])).max())
    step = 1.0 / max(lam_max, 1e-12)
    alpha = project(np.full(n, min(C / 2, 1.0)))
    for _ in range(iters):
        grad = 1.0 - (y * (K @ (alpha * y)))
        alpha = project(alpha + step * grad)
    return alpha


def enumerate_lr_paths(n_states, T):
    """All monotone state paths 0 -> n-1 with self-loop/advance steps."""
    paths = []
    for steps in itertools.product((0, 1), repeat=T - 1):
        s = 0
        path = [0]
        for adv in steps:
            s += adv
            if s >= n_states:
                break
            path.append(s)
        else:
            if path[-1] == n_states - 1:
                paths.append(path)
    return paths


def log_gauss_diag(x, mean, var):
    return float(-0.5 * np.sum(np.log(2 * np.pi * var) + (x - mean) ** 2 / var))


def hmm_path_logprob(trans, means, vars_, seq, path):
    lp = log_gauss_diag(seq[0], means[path[0]], vars_[path[0]])
    for t in range(1, len(path)):
        a = trans[path[t - 1], path[t]]
        if a == 0.0:
            return -np.inf
        lp += math.log(a) + log_gauss_diag(seq[t], means[path[t]], vars_[path[t]])
    return lp


def hmm_enumerate(trans, means, vars_, seq):
    """(best path, best logprob, total logprob, gamma, xi) by enumeration."""
    n = trans.shape[0]
    T = len(seq)
    paths = enumerate_lr_paths(n, T)
    scores = np.array([hmm_path_logprob(trans, means, vars_, seq, p) for p in paths])
    best = int(np.argmax(scores))
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return paths[best], -np.inf, -np.inf, None, None
    m = finite.max()
    total = m + math.log(np.sum(np.exp(scores[np.isfinite(scores)] - m)))
    w = np.exp(scores - total)
    gamma = np.zeros((T, n))
    xi = np.zeros((T - 1, n, n))
    for p, wi in zip(paths, w):
        if not np.isfinite(wi) or wi == 0:
            continue
        for t, s in enumerate(p):
            gamma[t, s] += wi
        for t in range(T - 1):
            xi[t, p[t], p[t + 1]] += wi
    return paths[best], float(scores[best]), float(total), gamma, xi


def kmeans_best_partition(points, k):
    """Exhaustive minimum of the within-cluster sum of squares."""
    n = len(points)
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) < k:
            continue
        obj = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assign[i] == c]]
            mu = members.mean(axis=0)
            obj += float(((members - mu) ** 2).sum())
        best = min(best, obj)
    return best


def kl_gaussian_numeric(mu1, v1, mu2, v2):
    """Quadrature of the density integral of D_KL(N(mu1,v1) || N(mu2,v2))."""
    s1 = math.sqrt(v1)

    def f(x):
        lp = -(x - mu1) ** 2 / (2 * v1) - 0.5 * math.log(2 * math.pi * v1)
        lq = -(x - mu2) ** 2 / (2 * v2) - 0.5 * math.log(2 * math.pi * v2)
        return math.exp(lp) * (lp - lq)

    val, _ = quad(f, mu1 - 40 * s1, mu1 + 40 * s1, limit=400)
    return val


def mlp_numeric_gradients(net_forward_error, weights, h=1e-5):
    """Central finite differences of a scalar error over weight matrices."""
    grads = []
    for w in weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            old = w[ix]
            w[ix] = old + h
            e_plus = net_forward_error()
            w[ix] = old - h
            e_minus = net_forward_error()
            w[ix] = old
            g[ix] = (e_plus - e_minus) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def _viterbi_reference(trans, means, vars_, seq):
    """Per-sequence, per-frame Viterbi: (path, logprob), or None if infeasible."""
    n, d = means.shape
    T = seq.shape[0]
    if T < n:
        return None
    const = -0.5 * (d * math.log(2.0 * math.pi) + np.log(vars_).sum(axis=1))
    diff = seq[:, None, :] - means[None, :, :]
    logb = const[None, :] + -0.5 * (diff * diff / vars_[None, :, :]).sum(axis=2)
    with np.errstate(divide="ignore"):
        lt = np.log(trans)
    stay = np.diag(lt).copy()
    adv = np.array([lt[s, s + 1] for s in range(n - 1)])
    delta = np.full((T, n), -np.inf)
    choice = np.zeros((T, n), dtype=np.int8)
    delta[0, 0] = logb[0, 0]
    for t in range(1, T):
        from_stay = delta[t - 1] + stay
        from_adv = np.full(n, -np.inf)
        from_adv[1:] = delta[t - 1, :-1] + adv
        choice[t] = from_adv > from_stay
        delta[t] = logb[t] + np.maximum(from_stay, from_adv)
    score = delta[T - 1, n - 1]
    if not np.isfinite(score):
        return None
    path = [n - 1]
    s = n - 1
    for t in range(T - 1, 0, -1):
        if choice[t, s]:
            s -= 1
        path.append(s)
    path.reverse()
    return path, float(score)


def viterbi_train_reference(trans, means, vars_, seqs, iters, var_floor=1e-4):
    """Hard-EM one model at a time, one sequence at a time, one frame at a
    time: the straightforward loop the library's lockstep trainer must
    reproduce bit for bit. Returns (trans, means, vars, totals) with the
    total Viterbi log-likelihood before each iteration and after the last.
    Raises ValueError for an infeasible sequence."""
    trans, means, vars_ = (np.array(a, dtype=float) for a in (trans, means, vars_))
    n, d = means.shape

    def align(seq):
        out = _viterbi_reference(trans, means, vars_, seq)
        if out is None:
            raise ValueError("infeasible sequence")
        return out

    totals = []
    for _ in range(iters):
        total = 0.0
        sums = np.zeros((n, d))
        sqs = np.zeros((n, d))
        counts = np.zeros(n)
        stay_counts = np.zeros(n)
        adv_counts = np.zeros(n - 1)
        for seq in seqs:
            path, score = align(seq)
            total += score
            p = np.array(path)
            np.add.at(sums, p, seq)
            np.add.at(sqs, p, seq * seq)
            np.add.at(counts, p, 1.0)
            moved = p[1:] != p[:-1]
            np.add.at(stay_counts, p[:-1][~moved], 1.0)
            np.add.at(adv_counts, p[:-1][moved], 1.0)
        totals.append(total)
        hit = counts > 0
        means = means.copy()
        vars_ = vars_.copy()
        means[hit] = sums[hit] / counts[hit, None]
        vars_[hit] = np.maximum(sqs[hit] / counts[hit, None] - means[hit] ** 2, var_floor)
        trans = trans.copy()
        for s in range(n):
            out = stay_counts[s] + (adv_counts[s] if s < n - 1 else 0.0)
            if out > 0:
                trans[s, :] = 0.0
                trans[s, s] = stay_counts[s] / out
                if s < n - 1:
                    trans[s, s + 1] = adv_counts[s] / out
    if iters > 0:
        totals.append(sum(align(s)[1] for s in seqs))
    return trans, means, vars_, totals


def kernel_eval(kind, x, y, gamma=1.0, r=0.0, degree=3):
    """One kernel value K(x, y) from its formula, vector by vector."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if kind == "linear":
        return float(x @ y)
    if kind == "polynomial":
        return float((gamma * (x @ y) + r) ** degree)
    if kind == "rbf":
        d = x - y
        return float(np.exp(-gamma * (d @ d)))
    return float(np.tanh(gamma * (x @ y) + r))


def _kmeans_distances_sq(points, centroids):
    diff = points[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2)


def kmeans_reference(points, k, max_iters, rng, sigma=None):
    """Lloyd iterations with boolean-mask means (or, when ``sigma`` is
    given, SuLQ sums of the points clamped to their own min/max by
    ``np.add.at`` plus Gaussian noise) and farthest-point reseeding of
    emptied clusters: the loop the library's k-means must reproduce bit
    for bit. Returns (centroids, converged, iterations, trace)."""
    points = np.asarray(points, dtype=np.float64)
    distinct = np.unique(points, axis=0)
    pool = distinct if len(distinct) >= k else points
    centroids = pool[rng.choice(len(pool), size=k, replace=False)].copy()
    if sigma is not None:
        low, high = points.min(axis=0), points.max(axis=0)
        clamped = np.clip(points, low, np.where(high > low, high, low + 1.0))
    trace = []
    assignment = None
    converged = False
    iterations = 0
    for _ in range(max_iters):
        new = np.argmin(_kmeans_distances_sq(points, centroids), axis=1)
        counts = np.bincount(new, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            far = int(np.argmax(_kmeans_distances_sq(points, centroids).min(axis=1)))
            centroids[c] = points[far]
            new = np.argmin(_kmeans_distances_sq(points, centroids), axis=1)
            counts = np.bincount(new, minlength=k)
        diff = points - centroids[new]
        trace.append(float((diff * diff).sum()))
        if assignment is not None and np.array_equal(new, assignment):
            converged = True
            break
        assignment = new
        iterations += 1
        if sigma is None:
            for c in range(k):
                centroids[c] = points[assignment == c].mean(axis=0)
        else:
            sums = np.zeros((k, points.shape[1]))
            np.add.at(sums, assignment, clamped)
            sums += rng.normal(0.0, sigma, size=(k, points.shape[1]))
            noisy_counts = np.maximum(counts + rng.normal(0.0, sigma, size=k), 1.0)
            centroids = sums / noisy_counts[:, None]
    return centroids, converged, iterations, trace
