"""Lloyd's k-means and a SuLQ-style differentially private variant.

The private variant perturbs every training-set access made by the
update step: per-cluster per-dimension sums and per-cluster counts each
receive Gaussian noise N(0, sigma) (sigma is the standard deviation),
and noisy counts are floored at 1. The sums run over the points as
given: clamping each run's points to its own sample's min/max would
change none of them. Initial centroids are k distinct points, so k may
not exceed the number of distinct points. Assignment ties go to the
lowest centroid index. An emptied centroid is reseeded to the point
farthest from its nearest centroid, pass after pass until no cluster is
empty, so k never shrinks. Points must be finite, and so must every
centroid and objective value a fit computes: one that overflows is a
ContractError naming the iteration.

Each iteration works on the points' (d, n) columns: squared distances
come out as a (k, n) array, the nearest centroid of every point is
picked by k - 1 row comparisons (the index ``argmin`` would give), and
the cluster sums are one weighted bincount per column.
``tests/oracles.py::kmeans_reference`` checks whole fits bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ContractError, RandomSource


@dataclass(eq=False)
class KMeansModel:
    centroids: np.ndarray
    converged: bool
    iterations_run: int
    objective_trace: list

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


def _lloyd(points, k, max_iters, rng, noise=None):
    points = _as_points(points)
    if k < 1:
        raise ContractError("k must be >= 1")
    centroids = _init_centroids(points, k, rng)
    cols = np.ascontiguousarray(points.T)
    trace = []
    assignment = None
    converged = False
    iterations = 0
    # Overflow shows as a non-finite objective or centroid, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            new_assignment = _nearest(_distances_sq(cols, centroids))
            counts = np.bincount(new_assignment, minlength=k)
            centroids, new_assignment, counts = _reseed_empty(cols, centroids, new_assignment,
                                                              counts)
            obj = within_cluster_ss(points, centroids, new_assignment)
            if not math.isfinite(obj):
                raise ContractError(f"within-cluster objective is not finite at iteration {it}: "
                                    f"{obj}")
            if noise is None and trace and obj > trace[-1] + 1e-8 * max(1.0, trace[-1]):
                raise ArithmeticError(f"within-cluster objective increased: {trace[-1]} -> {obj}")
            trace.append(obj)
            if assignment is not None and np.array_equal(new_assignment, assignment):
                converged = True
                break
            assignment = new_assignment
            iterations += 1
            if noise is None:
                centroids = _cluster_sums(cols, assignment, k) / counts[:, None]
            else:
                centroids = noise(cols, assignment, counts)
            if not np.isfinite(centroids).all():
                c = int(np.flatnonzero(~np.isfinite(centroids).all(axis=1))[0])
                raise ContractError(f"centroid {c} is not finite after iteration {it}: "
                                    f"{centroids[c].tolist()}")
    return KMeansModel(centroids, converged, iterations, trace)


def kmeans_train(points, k: int, max_iters: int, rng: RandomSource) -> KMeansModel:
    """Plain Lloyd iterations until assignments stabilize or max_iters.

    Initial centroids are k distinct points sampled uniformly without
    replacement. The within-cluster sum of squared distances is recorded
    per iteration and checked to be non-increasing.
    """
    return _lloyd(points, k, max_iters, rng)


def sulq_kmeans_train(points, k: int, max_iters: int, sigma: float,
                      rng: RandomSource) -> KMeansModel:
    """Lloyd iterations with N(0, sigma) noise on every update-step sum and count."""
    if not 0.0 < sigma < np.inf:
        raise ContractError(f"sigma must be positive and finite, got {sigma!r}")

    def noisy_update(cols, assignment, counts):
        k_, d = len(counts), len(cols)
        sums = _cluster_sums(cols, assignment, k_)
        sums += rng.normal(0.0, sigma, size=(k_, d))
        noisy_counts = np.maximum(counts + rng.normal(0.0, sigma, size=k_), 1.0)
        return sums / noisy_counts[:, None]

    return _lloyd(points, k, max_iters, rng, noise=noisy_update)
