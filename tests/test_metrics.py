import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowprobe import dtree
from shadowprobe.core import (
    NUMERIC,
    ContractError,
    DomainError,
    RandomSource,
    make_dataset,
)
from shadowprobe.dtree import TreeParams
from shadowprobe.metrics import k_fold_cross_validate, scores, stratified_fold_indices


class TestConfusionMatrix:
    def test_perfect_predictor_is_diagonal(self):
        m = scores(["a", "b", "a", "c"], ["a", "b", "a", "c"])
        assert m["confusion_matrix"] == np.diag([2, 1, 1]).tolist()

    def test_all_wrong_zero_diagonal(self):
        m = scores(["a", "b"], ["b", "a"])
        assert np.trace(m["confusion_matrix"]) == 0

    def test_row_is_truth(self):
        m = scores(["a", "a", "b"], ["b", "b", "b"])
        assert m["labels"] == ["a", "b"]
        assert m["confusion_matrix"][0][1] == 2  # true a predicted b

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            scores(["a"], ["a", "b"])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
                    min_size=1, max_size=30))
    def test_invariants(self, pairs):
        truths = [t for t, _ in pairs]
        preds = [p for _, p in pairs]
        m = scores(truths, preds)
        counts = np.array(m["confusion_matrix"])
        assert counts.sum() == len(pairs)
        assert np.all(counts >= 0)
        assert 0.0 <= m["accuracy"] <= 1.0
        for v in m["per_class"].values():
            assert 0.0 <= v["precision"] <= 1.0
            assert 0.0 <= v["recall"] <= 1.0


def scores_of_counts(labels, counts):
    """``scores`` of the predictions whose confusion matrix is ``counts``."""
    truths, preds = [], []
    for truth, row in zip(labels, counts):
        for pred, n in zip(labels, row):
            truths += [truth] * n
            preds += [pred] * n
    return scores(truths, preds)


class TestPrecisionRecall:
    def test_speech_case_study_matrix(self):
        # True Indian: 220 recognized, 22 missed; true NotIndian: 702
        # recognized, 72 taken for Indian.
        m = scores_of_counts(("Indian", "NotIndian"), [[220, 22], [72, 702]])
        assert abs(m["per_class"]["Indian"]["precision"] - 220 / 292) < 1e-12
        assert abs(m["per_class"]["Indian"]["recall"] - 220 / 242) < 1e-12
        assert abs(m["per_class"]["NotIndian"]["precision"] - 702 / 724) < 1e-12
        assert abs(m["per_class"]["NotIndian"]["recall"] - 702 / 774) < 1e-12
        assert round(m["per_class"]["Indian"]["precision"], 2) == 0.75
        assert round(m["per_class"]["NotIndian"]["precision"], 2) == 0.97
        assert round(m["per_class"]["Indian"]["recall"], 3) == 0.909
        assert round(m["per_class"]["NotIndian"]["recall"], 3) == 0.907

    def test_traffic_case_study_matrix(self):
        m = scores_of_counts(("Google", "NotGoogle"), [[2312, 101], [92, 2786]])
        assert abs(m["per_class"]["Google"]["precision"] - 2312 / 2404) < 1e-12
        assert abs(m["per_class"]["Google"]["recall"] - 2312 / 2413) < 1e-12

    def test_diagonal_all_ones(self):
        m = scores_of_counts(("a", "b"), [[3, 0], [0, 4]])
        assert m["accuracy"] == 1.0
        for v in m["per_class"].values():
            assert v["precision"] == 1.0 and v["recall"] == 1.0

    def test_empty_column_flagged_zero(self):
        m = scores_of_counts(("a", "b"), [[0, 2], [0, 3]])
        assert m["per_class"]["a"]["precision"] == 0.0
        assert m["per_class"]["a"]["empty_column"]

    def test_empty_matrix(self):
        with pytest.raises(DomainError):
            scores_of_counts(("a",), [[0]])


def labeled_dataset(n, rng, classes=("p", "q")):
    labels = [classes[i % len(classes)] for i in range(n)]
    rows = [(rng.uniform(), float(i)) for i in range(n)]
    return make_dataset([("a", NUMERIC), ("b", NUMERIC)], rows, labels)


class TestFolds:
    def test_partition_and_balance(self):
        rng = RandomSource(1)
        labels = ["p"] * 13 + ["q"] * 8
        folds = stratified_fold_indices(labels, 4, rng)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(21))
        # per-class allocation within one of proportional
        for f in folds:
            n_p = sum(labels[i] == "p" for i in f)
            assert abs(n_p - 13 / 4) <= 1.0

    def test_leave_one_out_structure(self):
        ds = labeled_dataset(6, RandomSource(2))
        result = k_fold_cross_validate(ds, 6, TreeParams(min_leaf_size=1), RandomSource(3))
        assert len(result["fold_accuracies"]) == 6
        assert np.sum(result["confusion_matrix"]) == 6

    def test_memorizing_trainer_on_duplicates(self):
        rows = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (2.0, 2.0),
                (3.0, 3.0), (3.0, 3.0)]
        labels = ["p", "p", "q", "q", "p", "p"]
        ds = make_dataset([("a", NUMERIC), ("b", NUMERIC)], rows, labels)
        result = k_fold_cross_validate(ds, 2, TreeParams(min_leaf_size=1), RandomSource(4))
        assert result["mean_accuracy"] == 1.0

    def test_k_out_of_range(self):
        ds = labeled_dataset(4, RandomSource(5))
        params = TreeParams(min_leaf_size=1)
        with pytest.raises(ContractError):
            k_fold_cross_validate(ds, 1, params, RandomSource(6))
        with pytest.raises(ContractError):
            k_fold_cross_validate(ds, 5, params, RandomSource(6))

    def test_cv_close_to_holdout_estimate(self):
        # Estimator consistency: 10-fold CV accuracy should sit near a
        # 70/30 holdout estimate, averaged over seeds, on a learnable
        # synthetic problem.
        from shadowprobe.core import round_half_up

        rng = RandomSource(7)
        rows, labels = [], []
        for i in range(200):
            x = rng.normal(0, 1, size=2)
            noisy = x[0] + rng.normal(0, 0.4)
            rows.append(tuple(x))
            labels.append("p" if noisy > 0 else "q")
        ds = make_dataset([("x", NUMERIC), ("y", NUMERIC)], rows, labels)

        params = TreeParams(min_leaf_size=5)
        cv_scores, ho_scores = [], []
        for seed in range(10):
            cv = k_fold_cross_validate(ds, 10, params, RandomSource(100 + seed))
            cv_scores.append(cv["mean_accuracy"])
            perm = RandomSource(200 + seed).permutation(ds.n_rows)
            n_train = round_half_up(0.7 * ds.n_rows)
            train, test = ds.subset(perm[:n_train]), ds.subset(perm[n_train:])
            tree = dtree.train_tree(train, params, RandomSource(300 + seed))
            ho = np.mean([p == l for p, l in zip(dtree.classify(tree, test), test.labels)])
            ho_scores.append(ho)
        assert abs(np.mean(cv_scores) - np.mean(ho_scores)) < 0.05
