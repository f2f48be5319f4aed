import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadowprobe import kmeans
from shadowprobe.core import ContractError, RandomSource
from shadowprobe.kmeans import kmeans_train, sulq_kmeans_train, within_cluster_ss

from oracles import kmeans_best_partition, kmeans_reference


def two_blobs(n_per=50, seed=1, centers=((0.0, 0.0), (5.0, 5.0)), spread=0.3):
    rng = RandomSource(seed)
    blocks = [rng.normal(0, spread, size=(n_per, 2)) + np.array(c) for c in centers]
    return np.vstack(blocks)


def recording_objectives(train, *args):
    """``train(*args)`` and the objectives the fit computed, in order."""
    objectives = []
    within_cluster_ss = kmeans.within_cluster_ss

    def record(points, centroids, assignment):
        objectives.append(within_cluster_ss(points, centroids, assignment))
        return objectives[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmeans, "within_cluster_ss", record)
        return train(*args), objectives


class TestKMeansTrain:
    def test_k_equals_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        m, objectives = recording_objectives(kmeans_train, pts, 4, 100, RandomSource(2))
        assert m.centroids.shape[0] == 4
        assert objectives[-1] == 0.0

    def test_k_one_is_global_mean(self):
        pts = two_blobs()
        m = kmeans_train(pts, 1, 100, rng=RandomSource(3))
        assert np.allclose(m.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_eight_points_reach_enumeration_optimum(self):
        rng = RandomSource(4)
        pts = np.vstack([rng.normal(0, 0.5, size=(4, 2)),
                         rng.normal(4, 0.5, size=(4, 2))])
        best = kmeans_best_partition(pts, 2)
        found = []
        for seed in range(10):
            _, objectives = recording_objectives(kmeans_train, pts, 2, 100,
                                                 RandomSource(100 + seed))
            found.append(objectives[-1])
        assert min(found) <= best + 1e-9

    def test_objective_non_increasing(self):
        pts = two_blobs(seed=5)
        m, objectives = recording_objectives(kmeans_train, pts, 3, 100, RandomSource(6))
        assert len(objectives) == m.iterations_run + m.converged > 1
        for a, b in zip(objectives, objectives[1:]):
            assert b <= a + 1e-8 * max(1.0, a)

    def test_convergence_flags(self):
        pts = two_blobs(seed=7)
        m = kmeans_train(pts, 2, 100, rng=RandomSource(8))
        assert m.converged
        m2 = kmeans_train(pts, 2, max_iters=1, rng=RandomSource(8))
        assert not m2.converged
        assert m2.iterations_run <= 1

    def test_k_larger_than_n(self):
        with pytest.raises(ContractError):
            kmeans_train(np.zeros((3, 2)), 4, 100, rng=RandomSource(0))

    def test_deterministic(self):
        pts = two_blobs(seed=9)
        a = kmeans_train(pts, 2, 100, rng=RandomSource(10))
        b = kmeans_train(pts, 2, 100, rng=RandomSource(10))
        assert np.array_equal(a.centroids, b.centroids)


class TestSulq:
    def test_vanishing_noise_matches_plain(self):
        pts = two_blobs(seed=12)
        plain = kmeans_train(pts, 2, 100, rng=RandomSource(13))
        noisy = sulq_kmeans_train(pts, 2, 100, 1e-12, rng=RandomSource(13))
        assert np.max(np.abs(np.sort(plain.centroids, axis=0)
                             - np.sort(noisy.centroids, axis=0))) < 1e-6

    def test_same_seed_identical(self):
        pts = two_blobs(seed=14)
        a = sulq_kmeans_train(pts, 2, 100, 1.0, rng=RandomSource(15))
        b = sulq_kmeans_train(pts, 2, 100, 1.0, rng=RandomSource(15))
        assert np.array_equal(a.centroids, b.centroids)
        assert a.iterations_run == b.iterations_run

    def test_displacement_small_with_many_points(self):
        # Noise scale 1 against cluster counts of 500: the noisy
        # centroids should stay near the noiseless ones in nearly every
        # run (displacement per centroid is roughly sigma/count).
        pts = two_blobs(n_per=500, seed=16)
        hits = 0
        for seed in range(100):
            plain = kmeans_train(pts, 2, 100, rng=RandomSource(1000 + seed))
            noisy = sulq_kmeans_train(pts, 2, 100, 1.0,
                                      rng=RandomSource(1000 + seed))
            disp = np.linalg.norm(np.sort(noisy.centroids, axis=0)
                                  - np.sort(plain.centroids, axis=0), axis=1).max()
            hits += disp <= 0.5
        assert hits >= 95

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ContractError, match="sigma must be positive and finite"):
            sulq_kmeans_train(two_blobs(seed=17), 2, 100, sigma, rng=RandomSource(17))


@pytest.mark.parametrize("train", [
    lambda k, max_iters: kmeans_train(two_blobs(seed=21), k, max_iters, RandomSource(21)),
    lambda k, max_iters: sulq_kmeans_train(two_blobs(seed=21), k, max_iters, 1.0,
                                           RandomSource(21)),
], ids=["plain", "sulq"])
class TestArguments:
    # k=2.0 and k=True used to fail inside numpy with a TypeError, and
    # max_iters=-3 returned an untrained model with converged=False.
    @pytest.mark.parametrize("k", [2.0, True, 0, -1])
    def test_k_must_be_a_positive_int(self, train, k):
        with pytest.raises(ContractError, match=rf"k must be an int >= 1, got {k!r}"):
            train(k, 20)

    @pytest.mark.parametrize("max_iters", [-3, 0, 20.0, True])
    def test_max_iters_must_be_a_positive_int(self, train, max_iters):
        with pytest.raises(ContractError,
                           match=rf"max_iters must be an int >= 1, got {max_iters!r}"):
            train(2, max_iters)


class TestEmptyClusterHandling:
    def test_reseed_keeps_k_under_heavy_noise(self):
        pts = two_blobs(n_per=30, seed=18, spread=0.1)
        m = sulq_kmeans_train(pts, 4, 40, 50.0, rng=RandomSource(19))
        assert m.centroids.shape[0] == 4
        assert np.all(np.isfinite(m.centroids))

    def test_duplicate_points_k_equals_unique(self):
        pts = np.array([[0.0, 0.0]] * 5 + [[3.0, 3.0]] * 5)
        m = kmeans_train(pts, 2, 100, rng=RandomSource(20))
        assert sorted(m.centroids[:, 0].tolist()) == [0.0, 3.0]

    def test_reseed_refills_cluster_emptied_by_a_reseed(self):
        # Counts go [0, 2, 3] -> [2, 0, 3]: moving centroid 0 to the
        # farthest point takes centroid 1's only member, so a second pass
        # must reseed centroid 1 before the update divides by its count.
        points = np.array([[-1, -1], [4, 1], [0, -2], [-1, 0], [3, 1]], dtype=np.float64)
        m = fit_matches_reference(points, 3, 50, 66701)
        assert np.all(np.isfinite(m.centroids))

    @pytest.mark.parametrize("train", [
        lambda pts: kmeans_train(pts, 2, 10, RandomSource(0)),
        lambda pts: sulq_kmeans_train(pts, 2, 10, 1.0, RandomSource(0)),
    ], ids=["plain", "sulq"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_points_rejected(self, train, bad):
        with pytest.raises(ContractError, match=r"point 2 is not finite"):
            train([[0.0, 0.0], [1.0, 1.0], [bad, 0.0], [5.0, 5.0]])

    @pytest.mark.parametrize("train", [
        lambda pts, k: kmeans_train(pts, k, 20, RandomSource(0)),
        lambda pts, k: sulq_kmeans_train(pts, k, 20, 1.0, RandomSource(0)),
    ], ids=["plain", "sulq"])
    @pytest.mark.parametrize("points,k,match", [
        # Used to return converged=True after two infinite objectives.
        ([[1e308, 0], [1.5e308, 1], [-1e308, 2], [-1.7e308, 3]], 2,
         r"objective is not finite at iteration 1: inf"),
        ([[1e308, 0], [1e308, 1], [1e308, 2], [1e308, 3]], 1,
         r"centroid 0 is not finite after iteration 1: \[inf, "),
    ], ids=["objective", "centroid"])
    def test_overflow_rejected(self, train, points, k, match):
        with pytest.raises(ContractError, match=match):
            train(points, k)

    def test_wcss_helper(self):
        pts = np.array([[0.0], [2.0]])
        cents = np.array([[1.0]])
        assert within_cluster_ss(pts, cents, np.array([0, 0])) == 2.0


def fit_matches_reference(points, k, max_iters, seed, sigma=None):
    """Fit as the reference does and compare bit for bit: plain Lloyd must
    compute the reference's objectives, SuLQ at this scale none."""
    if sigma is None:
        model, objectives = recording_objectives(kmeans_train, points, k, max_iters,
                                                 RandomSource(seed))
    else:
        model, objectives = recording_objectives(sulq_kmeans_train, points, k, max_iters,
                                                 sigma, RandomSource(seed))
    c, converged, iterations, trace = kmeans_reference(points, k, max_iters,
                                                       RandomSource(seed), sigma=sigma)
    assert model.centroids.tobytes() == c.tobytes()
    assert objectives == (trace if sigma is None else [])
    assert model.iterations_run == iterations
    assert model.converged == converged
    return model


class TestMatchesReference:
    """Plain and SuLQ Lloyd against the boolean-mask / np.add.at loop, bit
    for bit. Dimensions 2..7 only: at d = 1 the reference's mask mean adds
    pairwise and can differ in the last bit (see ``kmeans._cluster_sums``)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), d=st.integers(2, 7),
           k=st.integers(1, 6), grid=st.booleans())
    def test_random_points(self, seed, n, d, k, grid):
        points = np.random.default_rng(seed).normal(0, 3, size=(n, d))
        if grid:
            points = np.round(points)  # repeated points and exact distance ties
        if k > len(np.unique(points, axis=0)):
            with pytest.raises(ContractError, match="exceeds the number of distinct points"):
                kmeans_train(points, k, 50, RandomSource(seed))
            with pytest.raises(ContractError, match="exceeds the number of distinct points"):
                sulq_kmeans_train(points, k, 20, 2.0, RandomSource(seed))
            return
        fit_matches_reference(points, k, 50, seed)
        fit_matches_reference(points, k, 20, seed, sigma=2.0)

    def test_k_above_distinct_points_rejected(self):
        # Five rounded points, two of them equal: initialization used to
        # fall back to duplicate points and end in a 0/0 centroid.
        points = np.round(np.random.default_rng(2).normal(0, 3, size=(5, 2)))
        assert len(np.unique(points, axis=0)) == 4
        with pytest.raises(ContractError, match=r"k=5 exceeds the number of distinct points \(4\)"):
            kmeans_train(points, 5, 50, RandomSource(2))
        with pytest.raises(ContractError, match=r"k=5 exceeds the number of distinct points \(4\)"):
            sulq_kmeans_train(points, 5, 20, 2.0, RandomSource(2))

    # Points from 2^500 to 2^top: a noisy count floored at 1 scales a
    # cluster sum up to n-fold, so the objective can overflow in a late
    # iteration while every centroid stays finite. SuLQ computes the
    # objective only where it cannot rule that out, and must still stop at
    # the first iteration whose reference objective is not finite.
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(2, 5),
           k=st.integers(1, 4), top=st.integers(500, 512), log_sigma=st.integers(0, 512))
    @example(seed=2255, n=22, d=2, k=2, top=509, log_sigma=43)  # iteration 14
    @example(seed=1331, n=13, d=4, k=1, top=500, log_sigma=512)  # iteration 2
    def test_sulq_overflow_at_reference_iteration(self, seed, n, d, k, top, log_sigma):
        rng = np.random.default_rng(seed)
        points = rng.normal(0, 1, size=(n, d)) * np.ldexp(1.0, rng.integers(500, top + 1,
                                                                            size=(n, 1)))
        if k > len(np.unique(points, axis=0)):
            return
        sigma = float(np.ldexp(1.0, log_sigma))
        with np.errstate(over="ignore", invalid="ignore"):
            c, converged, iterations, trace = kmeans_reference(points, k, 20, RandomSource(seed),
                                                               sigma=sigma)
        overflow = np.flatnonzero(~np.isfinite(trace))
        if overflow.size:
            with pytest.raises(ContractError, match=rf"objective is not finite at iteration "
                                                    rf"{overflow[0] + 1}: inf$"):
                sulq_kmeans_train(points, k, 20, sigma, RandomSource(seed))
        else:
            m = sulq_kmeans_train(points, k, 20, sigma, RandomSource(seed))
            assert m.centroids.tobytes() == c.tobytes()
            assert (m.iterations_run, m.converged) == (iterations, converged)

    def test_empty_cluster_reseed(self, monkeypatch):
        emptied = []
        reseed = kmeans._reseed_empty

        def spy(cols, centroids, assignment, counts):
            emptied.append(int((counts == 0).sum()))
            return reseed(cols, centroids, assignment, counts)

        monkeypatch.setattr(kmeans, "_reseed_empty", spy)
        pts = two_blobs(n_per=30, seed=18, spread=0.1)
        pts = np.hstack([pts, pts[:, :1] * 0.5, pts[:, 1:] - 2.0, pts[:, :1] ** 2,
                         pts[:, :1] * pts[:, 1:], np.abs(pts[:, 1:] - 1.0)])
        for d in range(2, 8):
            fit_matches_reference(pts[:, :d], 4, 40, 19, sigma=50.0)
        assert sum(emptied) > 0


def assign(cols, centroids):
    """``kmeans._assign`` with the per-fit norms ``_lloyd`` passes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        twice_norms = 2.0 * np.sqrt((cols * cols).sum(axis=0))
        return kmeans._assign(cols, centroids, twice_norms)


def exact(cols, centroids):
    with np.errstate(over="ignore", invalid="ignore"):
        return kmeans._nearest(kmeans._distances_sq(cols, centroids))


class TestKernels:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6), n=st.integers(1, 40),
           grid=st.booleans(), inf_share=st.sampled_from([0.0, 0.2, 1.0]))
    def test_nearest_is_first_argmin(self, seed, k, n, grid, inf_share):
        rng = np.random.default_rng(seed)
        dist = rng.exponential(2.0, size=(k, n))
        if grid:
            dist = np.round(dist)  # exact ties between centroids
        dist[rng.random((k, n)) < inf_share] = np.inf
        assert np.array_equal(kmeans._nearest(dist), np.argmin(dist, axis=0))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 7),
           scale=st.sampled_from([0.3, 1.0, 3.0]))
    def test_distinct_rows_match_unique(self, seed, n, d, scale):
        # Rounding repeats rows and mixes 0.0 with -0.0; == ignores the sign.
        points = np.round(np.random.default_rng(seed).normal(0, scale, size=(n, d)))
        distinct = kmeans._distinct_rows(points)
        expected = np.unique(points, axis=0)
        assert distinct.shape == expected.shape
        assert np.array_equal(distinct, expected)

    # ``_assign`` must give the exact pass's pick element for element,
    # also on inputs built to defeat its rounding-error bound. Power-of-two
    # scales keep ties exact: 2^-565 (about 1e-170) squares to zero,
    # 2^-530 and 2^-512 to subnormals, and squares at 2^515 (about 3e155)
    # overflow. Scaling by 1e-160 rounds ties into subnormal near-ties.
    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), d=st.integers(1, 8),
           n=st.integers(1, 40),
           layout=st.sampled_from(["normal", "grid", "bisector", "duplicates", "spread"]),
           scale=st.sampled_from([2.0 ** -565, 1e-160, 2.0 ** -530, 2.0 ** -512, 2.0 ** -330,
                                  1.0, 2.0 ** 330, 2.0 ** 500, 2.0 ** 515]))
    def test_matches_exact_pass(self, seed, k, d, n, layout, scale):
        rng = np.random.default_rng(seed)
        centroids = rng.normal(0, 3, size=(k, d))
        if layout == "spread":  # each point and centroid at its own scale
            centroids *= np.ldexp(1.0, rng.integers(-40, 41, size=(k, 1)))
            points = rng.normal(0, 3, size=(n, d)) * np.ldexp(1.0, rng.integers(-40, 41, size=(n, 1)))
        elif layout == "grid":  # exact distance ties
            centroids = np.round(centroids)
            points = np.round(rng.normal(0, 3, size=(n, d)))
        elif layout == "bisector":  # midpoints of two centroids, and 1 ulp either side
            a, b = np.round(centroids[0]), np.round(centroids[-1])
            centroids[0], centroids[-1] = a, b
            points = np.repeat(((a + b) / 2)[None, :], n, axis=0)
            step = rng.choice([-np.inf, 0.0, np.inf], size=points.shape)
            points = np.where(step == 0, points, np.nextafter(points, step))
        elif layout == "duplicates":
            points = np.repeat(rng.normal(0, 3, size=(n, d)), 3, axis=0)
        else:
            points = rng.normal(0, 3, size=(n, d))
        cols = np.ascontiguousarray(points.T) * scale
        centroids = centroids * scale
        assert np.array_equal(assign(cols, centroids), exact(cols, centroids))

    def test_ties_take_the_exact_pass(self, monkeypatch):
        exact_columns = []
        distances_sq = kmeans._distances_sq

        def spy(cols, centroids):
            exact_columns.append(cols.tolist())
            return distances_sq(cols, centroids)

        monkeypatch.setattr(kmeans, "_distances_sq", spy)
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        # Point 1 is equidistant from centroids 0 and 1, point 3 from
        # centroids 0 and 2; the first minimum goes to the lower index.
        cols = np.array([[0.1, 1.0, 2.2, 0.0], [0.0, 0.0, 0.1, 2.0]])
        assert assign(cols, centroids).tolist() == [0, 0, 1, 0]
        assert exact_columns == [[[1.0, 0.0], [0.0, 2.0]]]

    def test_clear_picks_skip_the_exact_pass(self, monkeypatch):
        monkeypatch.setattr(kmeans, "_distances_sq", None)
        pts = two_blobs(seed=22)
        cols = np.ascontiguousarray(pts.T)
        assert assign(cols, np.array([[0.0, 0.0], [5.0, 5.0]])).tolist() == [0] * 50 + [1] * 50
