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
empty, so k never shrinks. Points must be finite.
"""

from __future__ import annotations

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
    def k(self) -> int:
        return self.centroids.shape[0]

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
    """(n, k) squared distances from the points' (d, n) columns.

    The terms are added in dimension order, which is how numpy's
    ``sum(axis=-1)`` adds up to 7 of them; for d >= 8 it pairs them
    instead, so results can differ from that formula in the last bit.
    """
    diff = cols[None, :, :] - centroids[:, :, None]   # (k, d, n)
    diff *= diff
    acc = diff[:, 0, :]
    for t in range(1, diff.shape[1]):
        acc += diff[:, t, :]
    return acc.T


def _cluster_sums(values: np.ndarray, assignment: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster column sums, adding points in row order.

    A boolean-mask ``mean(axis=0)`` adds in the same order for d >= 2;
    for d = 1 it pairs the terms, so those means can differ in the last bit.
    """
    d = values.shape[1]
    cells = ((assignment * d)[:, None] + np.arange(d)).ravel()
    return np.bincount(cells, weights=values.ravel(), minlength=k * d).reshape(k, d)


def within_cluster_ss(points: np.ndarray, centroids: np.ndarray,
                      assignment: np.ndarray) -> float:
    diff = points - centroids[assignment]
    return float((diff * diff).sum())


def _init_centroids(points: np.ndarray, k: int, rng: RandomSource) -> np.ndarray:
    distinct = np.unique(points, axis=0)
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
            d = _distances_sq(cols, centroids).min(axis=1)
            far = int(np.argmax(d))
            centroids[c] = cols[:, far]
            assignment = np.argmin(_distances_sq(cols, centroids), axis=1)
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
    for _ in range(max_iters):
        new_assignment = np.argmin(_distances_sq(cols, centroids), axis=1)
        counts = np.bincount(new_assignment, minlength=k)
        centroids, new_assignment, counts = _reseed_empty(cols, centroids, new_assignment, counts)
        obj = within_cluster_ss(points, centroids, new_assignment)
        if noise is None and trace and obj > trace[-1] + 1e-8 * max(1.0, trace[-1]):
            raise ArithmeticError(f"within-cluster objective increased: {trace[-1]} -> {obj}")
        trace.append(obj)
        if assignment is not None and np.array_equal(new_assignment, assignment):
            converged = True
            break
        assignment = new_assignment
        iterations += 1
        if noise is None:
            centroids = _cluster_sums(points, assignment, k) / counts[:, None]
        else:
            centroids = noise(points, assignment, counts)
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

    def noisy_update(pts, assignment, counts):
        k_, d = len(counts), pts.shape[1]
        sums = _cluster_sums(pts, assignment, k_)
        sums += rng.normal(0.0, sigma, size=(k_, d))
        noisy_counts = np.maximum(counts + rng.normal(0.0, sigma, size=k_), 1.0)
        return sums / noisy_counts[:, None]

    return _lloyd(points, k, max_iters, rng, noise=noisy_update)
