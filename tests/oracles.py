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


def _entropy_from_count_matrix(counts):
    """Row-wise entropy in bits of a (rows, classes) count matrix."""
    totals = counts.sum(axis=1, keepdims=True).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        term = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -term.sum(axis=1)


def train_tree_reference(kinds, columns, labels, min_leaf_size, max_depth, rng):
    """Greedy information-gain tree grown one attribute at a time: each
    node re-sorts its rows per numeric attribute and scores that
    attribute's thresholds alone, and counts categorical values with
    ``np.add.at``. The library's presorted, batched split search must
    grow the same tree node for node. ``kinds`` are "numeric" or
    "categorical", ``columns`` one array per attribute. Nodes are tuples:
    ("leaf", label, count, tie_broken), ("numeric", attribute, threshold,
    count, low, high) and ("categorical", attribute, count,
    [(value, child), ...], fallback leaf)."""
    labels = list(labels)
    label_order = []
    seen = {}
    for l in labels:
        if l not in seen:
            seen[l] = len(label_order)
            label_order.append(l)
    codes = np.array([seen[l] for l in labels], dtype=np.int64)
    n_classes = len(label_order)
    num_cols = {j: np.asarray(c, dtype=np.float64) for j, c in enumerate(columns)
                if kinds[j] == "numeric"}
    cat_cols = {j: np.asarray(c, dtype=object) for j, c in enumerate(columns)
                if kinds[j] == "categorical"}

    def majority_leaf(idx):
        counts = np.bincount(codes[idx], minlength=n_classes)
        best = counts.max()
        tied = [c for c in range(n_classes) if counts[c] == best]
        tie = len(tied) > 1
        if tie:
            first_pos = {}
            for i in idx:
                c = codes[i]
                if c not in first_pos:
                    first_pos[c] = len(first_pos)
            tied.sort(key=lambda c: first_pos[c])
            pick = tied[rng.integers(0, len(tied))]
        else:
            pick = tied[0]
        return ("leaf", label_order[pick], int(len(idx)), tie)

    def numeric_candidates(j, idx):
        vals = num_cols[j][idx]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sc = codes[idx][order]
        change = np.nonzero(sv[:-1] != sv[1:])[0]
        if change.size == 0:
            return None
        n = len(idx)
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), sc] = 1
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[change]
        total = prefix[-1]
        right = total[None, :] - left
        nl = left.sum(axis=1).astype(np.float64)
        nr = n - nl
        h_parent = _entropy_from_count_matrix(total[None, :])[0]
        gains = h_parent - (nl / n) * _entropy_from_count_matrix(left) \
            - (nr / n) * _entropy_from_count_matrix(right)
        thresholds = (sv[change] + sv[change + 1]) / 2.0
        best_i = int(np.argmax(gains))
        return float(gains[best_i]), float(thresholds[best_i])

    def categorical_candidate(j, idx):
        vals = cat_cols[j][idx]
        uniq, inverse = np.unique(vals, return_inverse=True)
        if len(uniq) < 2:
            return None
        counts = np.zeros((len(uniq), n_classes), dtype=np.int64)
        np.add.at(counts, (inverse, codes[idx]), 1)
        n = len(idx)
        sizes = counts.sum(axis=1).astype(np.float64)
        h_parent = _entropy_from_count_matrix(counts.sum(axis=0)[None, :])[0]
        gain = h_parent - np.sum(sizes / n * _entropy_from_count_matrix(counts))
        return float(gain), [str(u) for u in uniq]

    def build(idx, used_cat, depth):
        node_codes = codes[idx]
        if (node_codes == node_codes[0]).all():
            return ("leaf", label_order[node_codes[0]], int(len(idx)), False)
        if len(idx) < min_leaf_size:
            return majority_leaf(idx)
        if max_depth is not None and depth >= max_depth:
            return majority_leaf(idx)
        best = None
        for j in range(len(kinds)):
            if j in num_cols:
                cand = numeric_candidates(j, idx)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = (cand[0], j, "numeric", cand[1])
            elif j not in used_cat:
                cand = categorical_candidate(j, idx)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = (cand[0], j, "categorical", cand[1])
        if best is None:
            return majority_leaf(idx)
        _, j, kind, payload = best
        if kind == "numeric":
            t = payload
            mask = num_cols[j][idx] <= t
            low = build(idx[mask], used_cat, depth + 1)
            high = build(idx[~mask], used_cat, depth + 1)
            return ("numeric", j, t, int(len(idx)), low, high)
        fallback = majority_leaf(idx)
        fallback = ("leaf", fallback[1], 0, fallback[3])
        col = cat_cols[j][idx]
        branches = [(v, build(idx[col == v], used_cat | {j}, depth + 1)) for v in payload]
        return ("categorical", j, int(len(idx)), branches, fallback)

    return build(np.arange(len(labels)), frozenset(), 0)


def svm_dual_objective(alpha, y, K):
    v = alpha * y
    return float(alpha.sum() - 0.5 * (v @ K @ v))


def svm_dual_pga(y, K, C, iters=200_000, seed=0):
    """Projected gradient ascent on the SVM dual, run until certified optimal.

    It stops once the duality gap of its iterate alpha is at most
    1e-10 * max(1, |D(alpha)|), and raises if ``iters`` iterations pass
    first. The gap is the primal value of w = sum_i alpha_i y_i phi(x_i)
    at the best bias, less D(alpha). The hinge sum is convex and piecewise
    linear in b, so its minimum lies at one of the n breakpoints
    b = y_i - f_i, where f = K (alpha * y). The primal bounds the optimum
    from above and D(alpha) from below, so the returned alpha is within
    the gap of the optimal dual objective.

    The feasible set {0 <= a <= C, sum a_i y_i = 0} is handled by exact
    Euclidean projection: alpha = clip(v - lam * y, 0, C) where the
    residual g(lam) = y . alpha is piecewise linear and non-increasing
    in lam, so its root is found exactly from the sorted breakpoints.
    The steps carry Nesterov momentum (Beck & Teboulle's FISTA), reset
    whenever the gradient opposes it (O'Donoghue & Candes 2015): plain
    steps at 1/L fell 1.5e-3 short of the optimum after 200,000
    iterations on an ill-conditioned degree-3 polynomial problem. Every
    iterate is a projection, so it is feasible and never exceeds the
    optimum.
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

    def certified(alpha):
        v = alpha * y
        f = K @ v
        quad = float(v @ f)
        dual = float(alpha.sum()) - 0.5 * quad
        hinge = np.maximum(0.0, 1.0 - y[None, :] * (f[None, :] + (y - f)[:, None])).sum(axis=1)
        return 0.5 * quad + C * float(hinge.min()) - dual <= 1e-10 * max(1.0, abs(dual))

    lam_max = float(np.linalg.eigvalsh((y[:, None] * K * y[None, :])).max())
    step = 1.0 / max(lam_max, 1e-12)
    alpha = project(np.full(n, min(C / 2, 1.0)))
    z, t = alpha, 1.0
    for _ in range(iters):
        if certified(alpha):
            return alpha
        grad = 1.0 - (y * (K @ (z * y)))
        nxt = project(z + step * grad)
        if grad @ (nxt - alpha) < 0:
            z, t = nxt, 1.0
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            z, t = nxt + ((t - 1.0) / t_next) * (nxt - alpha), t_next
        alpha = nxt
    if certified(alpha):
        return alpha
    raise AssertionError(f"PGA oracle not certified optimal after {iters} iterations")


def smo_train_reference(y, K, C, tol, max_iters=None):
    """Working-set SMO on a precomputed full Gram matrix ``K``, with the
    library's second-order pair selection, clipped analytic step and
    iteration cap; the library's solver, which computes kernel columns on
    demand, must reach an equally good solution. Returns (alpha, bias,
    converged)."""
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    kdiag = K.diagonal()
    pos = y > 0
    alpha = np.zeros(n)
    G = np.full(n, -1.0)
    cap = max(10_000_000, 100 * n) if max_iters is None else max_iters
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
        b = m - F_low
        a = kdiag[i] + kdiag - 2.0 * K[i]
        j = int(np.argmax(np.where(b > 0, b * b / np.where(a > 0, a, 1e-12), -1.0)))
        y_i, y_j = y[i], y[j]
        a_i, a_j = alpha[i], alpha[j]
        quad = a[j] if a[j] > 0 else 1e-12
        if y_i != y_j:
            delta = (-G[i] - G[j]) / quad
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
            delta = (G[i] - G[j]) / quad
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
        G += y * ((y_i * (a_i - alpha[i])) * K[i] + (y_j * (a_j - alpha[j])) * K[j])
        alpha[i], alpha[j] = a_i, a_j
    free = (alpha > 0) & (alpha < C)
    bias = float(F[free].mean()) if free.any() else float(m + M) / 2.0
    return alpha, bias, bool(m - M < tol)


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


def sigmoid_reference(z):
    """Logistic function with separate branches for z >= 0 and z < 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def backprop_train_reference(weights, pairs, lr, epochs, rng):
    """One net's per-presentation SGD, one pair at a time; new weight list."""
    pairs = [(np.asarray(x, dtype=np.float64), np.asarray(t, dtype=np.float64)) for x, t in pairs]
    weights = [np.array(w, dtype=np.float64) for w in weights]
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
                a = sigmoid_reference(w @ ext[l])
                acts[l] = a
            delta = (a - t) * a * (1.0 - a)
            for l in range(n_layers - 1, 0, -1):
                back = weights[l].T @ delta
                weights[l] -= lr * np.outer(delta, ext[l])
                below = acts[l - 1]
                delta = below * (1.0 - below) * back[1:]
            weights[0] -= lr * np.outer(delta, ext[0])
    return weights


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


def speech_corpus_reference(spec, with_property, n_sequences, rng):
    """The speech generator one state at a time: each state draws its
    duration, then its standard-normal frames, which it scales by its own
    sigmas and shifts by its own means. Fields are read off the spec; rng
    is used only through ``integers`` and ``normal``."""
    lo, hi = spec.frames_per_state
    corpus = {}
    for p, phoneme in enumerate(spec.phonemes):
        mu = spec.means[p]
        sd = spec.sigmas[p]
        if with_property:
            mu = mu + spec.mean_shift_sigmas[p] * sd
        seqs = []
        for _ in range(n_sequences):
            frames = []
            for s in range(spec.n_states):
                d = rng.integers(lo, hi + 1)
                frames.append(mu[s] + sd[s] * rng.normal(size=(d, spec.dim)))
            seqs.append(np.concatenate(frames, axis=0))
        corpus[phoneme] = seqs
    return corpus


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
    """Lloyd iterations from k distinct initial points with boolean-mask
    means (or, when ``sigma`` is given, SuLQ sums of the points clamped
    to their own min/max by ``np.add.at`` plus Gaussian noise) and
    farthest-point reseeding of emptied clusters, repeated until none is
    empty: the loop the library's
    k-means must reproduce bit for bit. The library sums the points
    unclamped, so matching it shows that the clamp changes no sum.
    Returns (centroids, converged, iterations, trace)."""
    points = np.asarray(points, dtype=np.float64)
    distinct = np.unique(points, axis=0)
    centroids = distinct[rng.choice(len(distinct), size=k, replace=False)]
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
        for _ in range(k):
            if not np.any(counts == 0):
                break
            for c in np.nonzero(counts == 0)[0]:
                far = int(np.argmax(_kmeans_distances_sq(points, centroids).min(axis=1)))
                centroids[c] = points[far]
                new = np.argmin(_kmeans_distances_sq(points, centroids), axis=1)
                counts = np.bincount(new, minlength=k)
        if np.any(counts == 0):
            raise ArithmeticError("clusters still empty after k reseeding passes")
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
