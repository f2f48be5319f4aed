"""Lloyd's k-means and a SuLQ-style differentially private variant.

The private variant (SuLQ) adds Gaussian noise of standard deviation
sigma to each update-step sum (per cluster and dimension) and count (per
cluster), and floors noisy counts at 1. The sums run over the points as
given: clamping each run's points to its own sample's min/max would
change none of them. Initial centroids are k distinct points, so k may
not exceed the number of distinct points. Assignment ties go to the
lowest centroid index. An emptied centroid is reseeded to the point
farthest from its nearest centroid, pass after pass until no cluster is
empty, so k never shrinks. Points must be finite, and so must every
centroid and within-cluster objective: one that overflows is a
ContractError naming the iteration. Plain Lloyd computes the objective
every iteration and checks that it never rises; SuLQ reads nothing from
it, so it computes it only where the bound n*d*(max|x| + max|c|)^2
cannot rule out overflow. k and max_iters are ints >= 1.

Each iteration works on the points' (d, n) columns. ``_assign`` picks
each point's nearest centroid from one matrix product and sends every
point its rounding-error bound cannot certify (ties, near-ties,
overflow) through the exact dimension-order pass (``_distances_sq``),
so no pick depends on the BLAS kernel or its thread count. The cluster
sums are one weighted bincount per column.
``tests/oracles.py::kmeans_reference`` checks whole fits bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ContractError, RandomSource


@dataclass(eq=False)
class KMeansModel:
    """A fit's centroids; its objective is checked, not kept."""

    centroids: np.ndarray
    converged: bool
    iterations_run: int

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ContractError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ContractError(f"point {bad[0]} is not finite: {pts[bad[0]].tolist()}")
    return pts


def _distances_sq(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(k, n) squared distances from the points' (d, n) columns.

    The terms are added in dimension order, which is how numpy's
    ``sum(axis=-1)`` adds up to 7 of them; for d >= 8 it pairs them
    instead, so results can differ from that formula in the last bit.
    """
    diff = cols[None, :, :] - centroids[:, :, None]   # (k, d, n)
    diff *= diff
    acc = diff[:, 0, :]
    for t in range(1, diff.shape[1]):
        acc += diff[:, t, :]
    return acc


def _nearest(dist: np.ndarray) -> np.ndarray:
    """Index of each column's smallest entry in a (k, n) distance array.

    A strict ``<`` keeps the first minimum, as ``np.argmin(dist, axis=0)``
    does. The two agree on every input without NaN, which finite
    centroids guarantee: a squared distance is then finite or +inf.
    """
    best = dist[0]
    nearest = np.zeros(dist.shape[1], dtype=np.intp)
    for c in range(1, len(dist)):
        np.putmask(nearest, dist[c] < best, c)
        best = np.minimum(best, dist[c])
    return nearest


_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1022  # smallest normal float64


def _assign(cols, centroids, twice_norms):
    """Nearest centroid of each of the points' (d, n) columns: the index
    ``_nearest(_distances_sq(cols, centroids))`` gives, found from one
    matrix product. ``twice_norms`` holds 2|x| for each point x.

    Let D_c be the exact squared distance from x to centroid c, S_c the
    value ``_distances_sq`` computes, R = |x| + max|c| (so D_c <= R^2)
    and u = 2^-53; the bounds hold to first order in u (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sections 2.2 and
    3.1). Each term (x_t - c_t)^2 of S_c carries a relative error of at
    most 3u and the dimension-order sum of d non-negative terms one of
    (d - 1)u, so |S_c - D_c| <= (d + 2)u R^2.

    The estimate leaves out |x|^2, the same for every c: one GEMM gives
    F_c = (-2c).x + |c|^2, exactly D_c - |x|^2 but for rounding. (-2c).x
    and |c|^2 are d-term sums within 2du |x||c| and du |c|^2 in whatever
    order BLAS adds (scaling by -2 is exact), and the last add costs
    u R^2, so F_c is within (d + 1)u R^2 of D_c - |x|^2. For the best
    estimate F_b and any other c, S_c - S_b >= F_c - F_b - (4d + 6)u R^2:
    if the runner-up estimate exceeds F_b by more than that, b is the
    unique exact minimum, the index ``_nearest`` picks.

    The check pads that margin to 32(d + 4)u R^2, with R from the computed
    norms, whose own rounding the padding absorbs. Underflow adds less
    than 4d * 2^-1022 to either error, even where a kernel flushes
    subnormal results to zero; the absolute term 32(d + 4) * 2^-1022
    covers it. The margin is built from (2R)^2, which overflows before
    any term of F_c can, so a finite margin means a finite, bounded
    estimate; an infinite margin or a NaN gap certifies nothing. With
    k = 1 the runner-up is +inf, so every point with a finite margin
    keeps index 0. Every point the check leaves unsure, ties and
    near-ties included, goes through the exact pass.
    """
    k, d = centroids.shape
    c_sq = (centroids * centroids).sum(axis=1)
    est = (-2.0 * centroids) @ cols
    est += c_sq[:, None]
    nearest = np.zeros(est.shape[1], dtype=np.intp)
    best = est[0]
    runner = np.full(est.shape[1], np.inf)
    for c in range(1, k):
        np.putmask(nearest, est[c] < best, c)
        np.minimum(runner, np.maximum(est[c], best), out=runner)
        best = np.minimum(best, est[c])
    margin = twice_norms + 2.0 * math.sqrt(c_sq.max())
    margin *= margin
    margin *= 8 * (d + 4) * _U
    margin += 32 * (d + 4) * _TINY
    runner -= best
    unsure = np.flatnonzero(~(runner > margin))
    if unsure.size:
        nearest[unsure] = _nearest(_distances_sq(cols[:, unsure], centroids))
    return nearest


def _cluster_sums(cols: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster sums of the points' (d, n) columns, one
    weighted bincount per column, each adding its points in row order.

    A boolean-mask ``mean(axis=0)`` adds in the same order for d >= 2;
    for d = 1 it pairs the terms, so those means can differ in the last bit.
    """
    sums = np.empty((k, len(cols)))
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(assignment, col, k)
    return sums


def within_cluster_ss(points: np.ndarray, centroids: np.ndarray,
                      assignment: np.ndarray) -> float:
    diff = np.take(centroids, assignment, axis=0)
    np.subtract(points, diff, out=diff)
    diff *= diff
    return float(diff.sum())


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of ``points`` in lexicographic order.

    These are the rows of ``np.unique(points, axis=0)``, up to the sign
    of a zero coordinate: of rows that differ only in 0.0 against -0.0
    this keeps the first in input order, ``np.unique`` an arbitrary one.
    No distance, sum or objective can tell the two apart.
    """
    rows = points[np.lexsort(points.T[::-1])]
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    return rows[new]


def _init_centroids(points: np.ndarray, k: int, rng: RandomSource) -> np.ndarray:
    distinct = _distinct_rows(points)
    if k > len(distinct):
        raise ContractError(f"k={k} exceeds the number of distinct points ({len(distinct)})")
    return distinct[rng.choice(len(distinct), size=k, replace=False)]


def _reseed_empty(cols, centroids, assignment, counts):
    """Move each empty cluster's centroid to the point farthest from its
    nearest centroid. A move can take another cluster's only member, so
    passes repeat until no cluster is empty, at most k of them."""
    k = len(centroids)
    for _ in range(k):
        empty = np.nonzero(counts == 0)[0]
        if empty.size == 0:
            return centroids, assignment, counts
        for c in empty:
            d = _distances_sq(cols, centroids).min(axis=0)
            far = int(np.argmax(d))
            centroids[c] = cols[:, far]
            assignment = _nearest(_distances_sq(cols, centroids))
            counts = np.bincount(assignment, minlength=k)
    if np.any(counts == 0):
        raise ArithmeticError(f"clusters {np.nonzero(counts == 0)[0].tolist()} "
                              f"still empty after {k} reseeding passes")
    return centroids, assignment, counts


def _lloyd(points, k, max_iters, rng, sigma=None):
    for name, value in (("k", k), ("max_iters", max_iters)):
        if type(value) is not int or value < 1:
            raise ContractError(f"{name} must be an int >= 1, got {value!r}")
    points = _as_points(points)
    centroids = _init_centroids(points, k, rng)
    cols = np.ascontiguousarray(points.T)
    # Below this max|c|, no objective can exceed DBL_MAX / 2.
    safe = math.sqrt(sys.float_info.max / (2 * cols.size)) - np.abs(cols).max()
    prev = math.inf
    assignment = None
    converged = False
    iterations = 0
    # Overflow shows as a non-finite objective or centroid, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        twice_norms = 2.0 * np.sqrt((cols * cols).sum(axis=0))
        for it in range(1, max_iters + 1):
            new_assignment = _assign(cols, centroids, twice_norms)
            counts = np.bincount(new_assignment, minlength=k)
            centroids, new_assignment, counts = _reseed_empty(cols, centroids, new_assignment,
                                                              counts)
            if sigma is None or not np.abs(centroids).max() < safe:
                obj = within_cluster_ss(points, centroids, new_assignment)
                if not math.isfinite(obj):
                    raise ContractError(f"within-cluster objective is not finite at iteration "
                                        f"{it}: {obj}")
                if sigma is None and obj > prev + 1e-8 * max(1.0, prev):
                    raise ArithmeticError(f"within-cluster objective increased: {prev} -> {obj}")
                prev = obj
            if assignment is not None and np.array_equal(new_assignment, assignment):
                converged = True
                break
            assignment = new_assignment
            iterations += 1
            centroids = _cluster_sums(cols, assignment, k)
            if sigma is not None:
                centroids += rng.normal(0.0, sigma, size=centroids.shape)
                counts = np.maximum(counts + rng.normal(0.0, sigma, size=k), 1.0)
            centroids /= counts[:, None]
            if not np.isfinite(centroids).all():
                c = int(np.flatnonzero(~np.isfinite(centroids).all(axis=1))[0])
                raise ContractError(f"centroid {c} is not finite after iteration {it}: "
                                    f"{centroids[c].tolist()}")
    return KMeansModel(centroids, converged, iterations)


def kmeans_train(points, k: int, max_iters: int, rng: RandomSource) -> KMeansModel:
    """Plain Lloyd iterations until assignments stabilize or max_iters.

    Initial centroids are k distinct points sampled uniformly without
    replacement. Every iteration checks that the within-cluster sum of
    squared distances is finite and not above the last, the only one kept.
    """
    return _lloyd(points, k, max_iters, rng)


def sulq_kmeans_train(points, k: int, max_iters: int, sigma: float,
                      rng: RandomSource) -> KMeansModel:
    """Lloyd iterations with N(0, sigma) noise on every update-step sum and count."""
    if isinstance(sigma, bool) or not 0.0 < sigma < np.inf:
        raise ContractError(f"sigma must be positive and finite, got {sigma!r}")
    return _lloyd(points, k, max_iters, rng, sigma)
