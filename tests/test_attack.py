import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from shadowprobe.core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    DomainError,
    RandomSource,
    make_dataset,
    round_half_up,
)
from shadowprobe.attack import (
    NOT_P,
    P,
    build_meta_training_set,
    extract_features,
    holdout_attack,
    infer_property,
    judge,
    kl_divergence_scores,
    kl_filter,
    kl_gaussian,
    matched_displacement,
    run_dp_bypass,
    split_by_property,
    train_meta,
)
from shadowprobe import dtree
from shadowprobe.dtree import TreeParams
from shadowprobe.hmm import AcousticModel, GaussianHmm
from shadowprobe.kmeans import KMeansModel
from shadowprobe.mlp import init_mlp
from shadowprobe.svm import KernelSpec, SvmModel

from oracles import kl_gaussian_numeric


def svm_with(n_sv, dim, seed=0):
    rng = RandomSource(seed)
    return SvmModel(
        sv_indices=np.arange(n_sv),
        sv_y=np.where(rng.uniform(size=n_sv) > 0.5, 1.0, -1.0),
        sv_x=rng.normal(size=(n_sv, dim)),
        sv_alpha=rng.uniform(0.1, 1.0, size=n_sv),
        bias=0.1,
        kernel=KernelSpec("linear"),
        C=1.0,
        converged=True,
    )


def lr_trans(n):
    t = np.zeros((n, n))
    for s in range(n - 1):
        t[s, s] = 0.6
        t[s, s + 1] = 0.4
    t[n - 1, n - 1] = 1.0
    return t


def acoustic_with(phonemes, n_states, dim, seed=0, mean_shift=None):
    rng = RandomSource(seed)
    hmms = {}
    for ph in phonemes:
        means = rng.normal(size=(n_states, dim))
        if mean_shift and ph in mean_shift:
            means = means + mean_shift[ph]
        hmms[ph] = GaussianHmm(lr_trans(n_states), means,
                               rng.uniform(0.5, 1.5, size=(n_states, dim)))
    return AcousticModel(hmms)


class TestExtractFeatures:
    def test_svm_rows_and_schema(self):
        fv = extract_features(svm_with(7, 5))
        assert fv.source_kind == "svm"
        assert fv.data.n_rows == 7
        assert len(fv.data.schema) == 6
        assert all(k == NUMERIC for _, k in fv.data.schema)
        assert fv.data.columns[0][0] in (-1.0, 1.0)

    def test_acoustic_rows_and_schema(self):
        am = acoustic_with(["aa", "bb", "cc"], 5, 25)
        fv = extract_features(am)
        assert fv.source_kind == "hmm"
        assert fv.data.n_rows == 15  # 3 phonemes x 5 states
        assert len(fv.data.schema) == 51  # phoneme + 25 means + 25 vars
        assert fv.data.schema[0][1] == CATEGORICAL
        assert fv.data.columns[0].tolist() == ["aa"] * 5 + ["bb"] * 5 + ["cc"] * 5
        assert fv.data.columns[1][5] == am.hmms["bb"].means[0, 0]
        assert fv.data.columns[26][14] == am.hmms["cc"].vars[4, 0]

    def test_kmeans_rows(self):
        m = KMeansModel(np.arange(24, dtype=float).reshape(4, 6), True, 1, [0.0])
        fv = extract_features(m)
        assert fv.source_kind == "kmeans"
        assert fv.data.n_rows == 4
        assert len(fv.data.schema) == 6

    def test_mlp_first_hidden_layer(self):
        net = init_mlp((8, 3, 8), RandomSource(1))
        fv = extract_features(net)
        assert fv.source_kind == "mlp"
        assert fv.data.n_rows == 3
        assert len(fv.data.schema) == 9  # bias + 8 inputs
        assert [c[0] for c in fv.data.columns] == net.weights[0][0].tolist()

    def test_unsupported_kind(self):
        with pytest.raises(ContractError):
            extract_features("not a model")


class TestBuildMetaTrainingSet:
    def test_row_counts_and_labels(self):
        shadows = [(svm_with(3, 4, seed=1), P), (svm_with(4, 4, seed=2), NOT_P)]
        md = build_meta_training_set(shadows)
        assert md.data.n_rows == 7
        assert md.data.labels.tolist() == ["P"] * 3 + ["NotP"] * 4
        assert md.source_kind == "svm"

    def test_balance_many_shadows(self):
        shadows = [(svm_with(2, 3, seed=i), P if i < 35 else NOT_P) for i in range(70)]
        md = build_meta_training_set(shadows)
        labels = md.data.labels.tolist()
        assert labels.count("P") == labels.count("NotP") == 70

    def test_algorithm_fidelity_row_sum(self):
        shadows = [(svm_with(2 + i, 3, seed=i), P if i % 2 else NOT_P) for i in range(6)]
        md = build_meta_training_set(shadows)
        assert md.data.n_rows == sum(extract_features(m).data.n_rows for m, _ in shadows)
        # Every row's label equals its source shadow's label, in order.
        i = 0
        for m, pl in shadows:
            for _ in range(extract_features(m).data.n_rows):
                assert md.data.labels[i] == pl
                i += 1

    def test_mixed_kinds_rejected(self):
        shadows = [(svm_with(3, 4), P),
                   (KMeansModel(np.zeros((2, 4)), True, 1, [0.0]), NOT_P)]
        with pytest.raises(ContractError):
            build_meta_training_set(shadows)

    def test_single_label_rejected(self):
        with pytest.raises(ContractError):
            build_meta_training_set([(svm_with(3, 4, seed=1), P),
                                     (svm_with(3, 4, seed=2), P)])

    def test_stray_label_rejected(self):
        with pytest.raises(ContractError, match="got 'Maybe'"):
            build_meta_training_set([(svm_with(3, 4, seed=1), P),
                                     (svm_with(3, 4, seed=2), "Maybe")])


class TestTrainAndInfer:
    def separable_shadows(self, n=8):
        # One numeric column fully determines the property label.
        shadows = []
        for i in range(n):
            with_p = i < n // 2
            rng = RandomSource(50 + i)
            base = 5.0 if with_p else -5.0
            m = SvmModel(
                sv_indices=np.arange(4),
                sv_y=np.array([1.0, -1.0, 1.0, -1.0]),
                sv_x=rng.normal(base, 0.5, size=(4, 2)),
                sv_alpha=np.ones(4) * 0.5,
                bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True,
            )
            shadows.append((m, P if with_p else NOT_P))
        return shadows

    def test_separable_meta_is_perfect(self):
        md = build_meta_training_set(self.separable_shadows())
        mc = train_meta(md, TreeParams(min_leaf_size=1), RandomSource(0))
        assert mc.train_accuracy == 1.0

    def test_infer_unanimous(self):
        shadows = self.separable_shadows()
        md = build_meta_training_set(shadows)
        mc = train_meta(md, TreeParams(min_leaf_size=1), RandomSource(0))
        target, _ = shadows[0]
        v = infer_property(mc, target)
        assert v.label == P
        assert (v.votes_p, v.votes_notp) == (4, 0)
        assert not v.tie
        assert v.per_row == ["P"] * 4

    def test_tie_resolves_not_p(self):
        shadows = self.separable_shadows()
        md = build_meta_training_set(shadows)
        mc = train_meta(md, TreeParams(min_leaf_size=1), RandomSource(0))
        rng = RandomSource(99)
        target = SvmModel(
            sv_indices=np.arange(4),
            sv_y=np.array([1.0, -1.0, 1.0, -1.0]),
            sv_x=np.vstack([rng.normal(5, 0.5, size=(2, 2)),
                            rng.normal(-5, 0.5, size=(2, 2))]),
            sv_alpha=np.ones(4) * 0.5,
            bias=0.0, kernel=KernelSpec("linear"), C=1.0, converged=True,
        )
        v = infer_property(mc, target)
        assert v.tie
        assert v.label == NOT_P

    def test_no_rows_is_no_verdict(self):
        mc = train_meta(build_meta_training_set(self.separable_shadows()),
                        TreeParams(min_leaf_size=1), RandomSource(0))
        target = SvmModel(sv_indices=np.arange(0), sv_y=np.zeros(0), sv_x=np.zeros((0, 2)),
                          sv_alpha=np.zeros(0), bias=0.5, kernel=KernelSpec("linear"), C=1.0,
                          converged=True)
        with pytest.raises(ContractError, match="no feature rows"):
            infer_property(mc, target)

    def test_judge_matches_infer_property(self):
        mc = train_meta(build_meta_training_set(self.separable_shadows()),
                        TreeParams(min_leaf_size=1), RandomSource(0))
        models = [svm_with(n, 2, seed=n) for n in (3, 1, 5, 2)]
        labels = ["P", "NotP", "NotP", "P"]
        verdicts, truths, votes = judge(mc, models, labels)
        for model, label, entry in zip(models, labels, verdicts):
            v = infer_property(mc, model)
            assert entry == {"truth": label, "verdict": v.label, "votes_p": v.votes_p,
                             "votes_notp": v.votes_notp, "tie": v.tie}
        assert len(verdicts) == len(models)
        assert truths == [l for m, l in zip(models, labels) for _ in range(m.n_support)]
        assert votes == [vote for m in models
                         for vote in dtree.classify(mc.tree, extract_features(m).data)]

    def test_holdout_attack_judges_split_tail(self):
        models = [svm_with(2 + i, 2, seed=i) for i in range(8)]
        labels = ["P", "NotP"] * 4
        params = TreeParams(min_leaf_size=1)
        md, mc, *judged = holdout_attack(models, labels, 0.5, params, RandomSource(3))
        train_idx, hold_idx = split_by_property(labels, 0.5)
        want = build_meta_training_set(
            [(models[i], P if labels[i] == "P" else NOT_P) for i in train_idx])
        assert md.data.labels.tolist() == want.data.labels.tolist()
        assert [c.tolist() for c in md.data.columns] == [c.tolist() for c in want.data.columns]
        want_mc = train_meta(want, params, RandomSource(3))
        assert tuple(judged) == judge(want_mc, [models[i] for i in hold_idx],
                                      [labels[i] for i in hold_idx])

    def test_kind_mismatch_rejected(self):
        md = build_meta_training_set(self.separable_shadows())
        mc = train_meta(md, TreeParams(min_leaf_size=1), RandomSource(0))
        with pytest.raises(ContractError):
            infer_property(mc, KMeansModel(np.zeros((2, 2)), True, 1, [0.0]))

    def test_label_shuffle_gives_chance_accuracy(self):
        # Permutation null: with labels detached from the feature
        # distribution, held-out accuracy hovers around 0.5.
        accs = []
        for seed in range(20):
            rng = RandomSource(1000 + seed)
            rows = rng.normal(size=(120, 3)).tolist()
            labels = ["P" if rng.uniform() < 0.5 else "NotP" for _ in range(120)]
            if len(set(labels)) < 2:
                continue
            ds = make_dataset([(f"x{i}", NUMERIC) for i in range(3)], rows, labels)
            perm = rng.permutation(ds.n_rows)
            n_train = round_half_up(0.7 * ds.n_rows)
            train, test = ds.subset(perm[:n_train]), ds.subset(perm[n_train:])
            tree = dtree.train_tree(train, TreeParams(min_leaf_size=2), rng)
            acc = np.mean(np.array(dtree.classify(tree, test), dtype=object) == test.labels)
            accs.append(acc)
        assert 0.4 <= np.mean(accs) <= 0.6


class TestKlGaussian:
    def test_identical_is_zero(self):
        assert kl_gaussian((1.3, 0.7), (1.3, 0.7)) == 0.0

    def test_unit_variance_shift(self):
        got = kl_gaussian((0.0, 1.0), (1.0, 1.0))
        assert abs(got - 0.5) < 1e-12
        assert abs(got - kl_gaussian_numeric(0.0, 1.0, 1.0, 1.0)) < 1e-6

    def test_variance_ratio(self):
        got = kl_gaussian((0.0, 1.0), (0.0, 4.0))
        assert abs(got - kl_gaussian_numeric(0.0, 1.0, 0.0, 4.0)) < 1e-6

    def test_twenty_pairs_against_integration(self):
        # Random pairs drawn from the family where the implemented
        # formula coincides with the density integral: equal variances
        # or equal means (the formula's first term is normalized by the
        # first argument's variance, so mixed cases differ by design).
        rng = RandomSource(7)
        for i in range(20):
            if i % 2 == 0:
                v = float(rng.uniform(0.2, 3.0))
                p = (float(rng.normal(0, 2)), v)
                q = (float(rng.normal(0, 2)), v)
            else:
                mu = float(rng.normal(0, 2))
                p = (mu, float(rng.uniform(0.2, 3.0)))
                q = (mu, float(rng.uniform(0.2, 3.0)))
            assert abs(kl_gaussian(p, q) - kl_gaussian_numeric(*p, *q)) < 1e-6

    def test_nonpositive_variance(self):
        with pytest.raises(DomainError):
            kl_gaussian((0.0, 0.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            kl_gaussian((0.0, 1.0), (0.0, -2.0))


class TestKlFilter:
    def test_identical_models_zero_scores_name_order(self):
        am = acoustic_with(["cc", "aa", "bb"], 3, 4, seed=1)
        twin = acoustic_with(["cc", "aa", "bb"], 3, 4, seed=1)
        scores = kl_divergence_scores(am, [twin])
        assert all(v == 0.0 for v in scores.values())
        assert kl_filter(scores, 2) == ["aa", "bb"]

    def test_shifted_phoneme_ranks_first(self):
        phonemes = [f"p{i}" for i in range(8)]
        base = acoustic_with(phonemes, 3, 4, seed=2)
        shifted = acoustic_with(phonemes, 3, 4, seed=2, mean_shift={"p3": 5.0})
        top = kl_filter(kl_divergence_scores(shifted, [base]), 1)
        assert top == ["p3"]

    def test_scores_monotone_in_rank(self):
        phonemes = [f"p{i}" for i in range(10)]
        base = acoustic_with(phonemes, 3, 4, seed=3)
        ref = acoustic_with(phonemes, 3, 4, seed=4)
        scores = kl_divergence_scores(ref, [base])
        ranked = kl_filter(scores, 5)
        vals = [scores[ph] for ph in ranked]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_phoneme_set_mismatch(self):
        a = acoustic_with(["aa", "bb"], 3, 4)
        b = acoustic_with(["aa", "cc"], 3, 4)
        with pytest.raises(ContractError):
            kl_filter(kl_divergence_scores(a, [b]), 1)

    def test_top_k_bounds(self):
        a = acoustic_with(["aa", "bb"], 3, 4)
        with pytest.raises(ContractError):
            kl_filter(kl_divergence_scores(a, [a]), 3)

    def test_restricted_models_give_masked_meta_set(self):
        # The speech filter trains on models cut down to the selected
        # phonemes; their meta-set must equal the full one masked to them.
        phonemes = ["dd", "aa", "ee", "bb", "cc"]
        shadows = [(acoustic_with(phonemes, 3, 4, seed=i), P if i % 2 else NOT_P)
                   for i in range(6)]
        selected = ["ee", "bb"]  # in kl_filter's rank order, not by name
        full = build_meta_training_set(shadows).data
        masked = full.subset(np.isin(full.columns[0], selected))
        restricted = build_meta_training_set(
            [(AcousticModel({ph: m.hmms[ph] for ph in selected}), pl) for m, pl in shadows]).data
        assert restricted.schema == masked.schema
        assert restricted.labels.tolist() == masked.labels.tolist()
        assert [c.tolist() for c in restricted.columns] == [c.tolist() for c in masked.columns]
        assert [c.dtype for c in restricted.columns] == [c.dtype for c in masked.columns]


class TestSplitByProperty:
    def test_deterministic_tail_holdout(self):
        labels = ["P"] * 4 + ["NotP"] * 4
        train, hold = split_by_property(labels, 0.25)
        assert hold == [3, 7]
        assert train == [0, 1, 2, 4, 5, 6]

    def test_needs_both_sides(self):
        with pytest.raises(ContractError, match="need at least 2 models with label P"):
            split_by_property(["P", "NotP"], 0.9)

    def test_holdout_too_large(self):
        with pytest.raises(ContractError,
                           match="2 of 2 models with label P would be held out") as e:
            split_by_property(["P", "P", "NotP", "NotP"], 0.75)
        assert "need at least" not in str(e.value)


class TestMatchedDisplacement:
    def test_permutation_invariant(self):
        a = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        b = a[[2, 0, 1]] + 0.01
        assert matched_displacement(a, b) < 0.02

    def test_greedy_pairs_separated_centroids(self):
        # Well-separated sets of 8 centroids pair each centroid with its
        # own displaced copy.
        a = 10.0 * np.array([[i, (i * 3) % 8] for i in range(8)], dtype=float)
        offset = np.array([0.01, -0.01])
        b = a[RandomSource(4).permutation(8)] + offset
        assert matched_displacement(a, b) == pytest.approx(np.linalg.norm(offset))

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_never_below_optimum(self, seed):
        rng = RandomSource(seed)
        a, b = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        perms = np.array(list(itertools.permutations(range(7))))
        optimum = cost[np.arange(7), perms].sum(axis=1).min() / 7
        # The pairing never undercuts the brute-force optimum.
        assert matched_displacement(a, b) >= optimum - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), rounded=st.booleans())
    def test_matches_linear_sum_assignment(self, k, seed, rounded):
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=(k, 2)), gen.normal(size=(k, 2))
        if rounded:  # repeated points: tied pairings
            a, b = np.round(a), np.round(b)
        cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        want = float(sum(cost[i, cols[i]] for i in rows) / k)
        if rounded:
            # Tied pairings are equally good but may sum in another order.
            assert matched_displacement(a, b) == pytest.approx(want, rel=1e-12, abs=1e-15)
        else:
            assert matched_displacement(a, b) == want

    def test_non_finite_centroids_rejected(self):
        a = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ContractError, match="must be finite"):
            matched_displacement(a, np.zeros((2, 2)))


class TestRunDpBypass:
    def pools(self, seed=0):
        rng = RandomSource(seed)
        p = np.vstack([rng.normal(0, 0.3, size=(300, 2)),
                       rng.normal((0.0, 4.0), 0.3, size=(300, 2))])
        n = np.vstack([rng.normal(2.5, 0.3, size=(300, 2)),
                       rng.normal((2.5, 6.5), 0.3, size=(300, 2))])
        return p, n

    def test_report_shape_and_accuracy(self):
        p, n = self.pools()
        rep = run_dp_bypass(p, n, 2, 0.5, 12, 200, 0.3, TreeParams(min_leaf_size=2),
                            RandomSource(1))
        assert len(rep["clamp_low"]) == len(rep["clamp_high"]) == 2
        assert rep["noiseless"]["n_train_models"] + rep["noiseless"]["n_holdout_models"] == 12
        # 2 arms x 12 runs x k=2 centroids in the scatter
        assert len(rep["scatter"]) == 2 * 12 * 2
        assert rep["noiseless"]["verdict_accuracy"] >= 0.9
        assert rep["sulq"]["verdict_accuracy"] >= 0.9

    def test_vanishing_noise_equalizes_arms(self):
        p, n = self.pools(seed=2)
        rep = run_dp_bypass(p, n, 2, 1e-12, 8, 150, 0.3, TreeParams(min_leaf_size=2),
                            RandomSource(3))
        assert rep["noiseless"]["verdict_accuracy"] == rep["sulq"]["verdict_accuracy"]
        assert rep["noiseless"]["row_accuracy"] == rep["sulq"]["row_accuracy"]
        assert rep["centroid_displacement_mean"] < 1e-6

    def test_deterministic(self):
        p, n = self.pools(seed=4)
        a = run_dp_bypass(p, n, 2, 0.5, 8, 150, 0.3, TreeParams(min_leaf_size=2),
                          RandomSource(5))
        b = run_dp_bypass(p, n, 2, 0.5, 8, 150, 0.3, TreeParams(min_leaf_size=2),
                          RandomSource(5))
        assert a == b

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractError):
            run_dp_bypass(np.zeros((0, 2)), np.zeros((5, 2)), 2, 1.0, 8, 5, 0.3,
                          TreeParams(min_leaf_size=2), RandomSource(6))

    def test_sample_larger_than_pool_rejected(self):
        p, n = self.pools(seed=7)
        with pytest.raises(ContractError, match=r"sample_size must be in \[1, 600\]"):
            run_dp_bypass(p, n, 2, 1.0, 8, 601, 0.3, TreeParams(min_leaf_size=2),
                          RandomSource(8))
