"""Confusion matrices, precision/recall/accuracy, and k-fold CV of the decision tree.

Confusion matrices are oriented row = true label, column = predicted
label, with labels in sorted order. Folds are stratified: within each
class, rows are dealt round-robin with a pointer that carries across
classes, so overall fold sizes differ by at most one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dtree
from .core import ContractError, Dataset, DomainError, RandomSource


@dataclass(eq=False)
class ConfusionMatrix:
    labels: tuple
    counts: np.ndarray  # counts[i][j] = instances of true label i predicted as j

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        c = len(self.labels)
        if self.counts.shape != (c, c):
            raise ContractError(f"counts must be {c}x{c}, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ContractError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_lists(self) -> list:
        return self.counts.tolist()


def confusion_matrix(truths, preds) -> ConfusionMatrix:
    truths = list(truths)
    preds = list(preds)
    if len(truths) != len(preds):
        raise ContractError(f"{len(truths)} truths vs {len(preds)} predictions")
    labels = tuple(sorted(set(truths) | set(preds)))
    index = {l: i for i, l in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(truths, preds):
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(labels, counts)


def precision_recall_accuracy(cm: ConfusionMatrix) -> dict:
    """Per-class precision and recall plus overall accuracy.

    precision_c = TP_c / column-sum_c, defined as 0 with an
    ``empty_column`` flag when the class is never predicted;
    recall_c = TP_c / row-sum_c (0 with ``empty_row`` when the class
    never occurs); accuracy = trace / total.
    """
    if cm.total == 0:
        raise DomainError("metrics of an empty confusion matrix are undefined")
    col = cm.counts.sum(axis=0)
    row = cm.counts.sum(axis=1)
    per_class = {}
    for i, label in enumerate(cm.labels):
        tp = int(cm.counts[i, i])
        per_class[label] = {
            "precision": tp / col[i] if col[i] > 0 else 0.0,
            "recall": tp / row[i] if row[i] > 0 else 0.0,
            "empty_column": bool(col[i] == 0),
            "empty_row": bool(row[i] == 0),
        }
    return {
        "accuracy": float(np.trace(cm.counts)) / cm.total,
        "per_class": per_class,
    }


def stratified_fold_indices(labels, k: int, rng: RandomSource) -> list:
    """Partition row indices into k stratified folds (sizes within 1)."""
    groups = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, []).append(i)
    folds = [[] for _ in range(k)]
    ptr = 0
    for label in sorted(groups):
        idx = np.array(groups[label])
        idx = idx[rng.permutation(len(idx))]
        for i in idx:
            folds[ptr % k].append(int(i))
            ptr += 1
    return folds


@dataclass(eq=False)
class CrossValResult:
    fold_accuracies: list
    mean_accuracy: float
    pooled: ConfusionMatrix


def k_fold_cross_validate(ds: Dataset, k: int, params: dtree.TreeParams,
                          rng: RandomSource) -> CrossValResult:
    """Stratified k-fold cross-validation of the decision tree.

    Fold i grows a tree with ``params`` on the other folds, drawing from
    ``rng.child(i)``, and classifies its own rows. The reported accuracy
    is the mean of the per-fold accuracies; the pooled confusion matrix
    aggregates all test predictions.
    """
    if not ds.fully_labeled:
        raise ContractError("cross-validation requires a fully labeled dataset")
    if not 2 <= k <= ds.n_rows:
        raise ContractError(f"k must be in [2, {ds.n_rows}], got {k}")
    labels = ds.labels.tolist()
    folds = stratified_fold_indices(labels, k, rng)
    fold_accuracies = []
    truths, preds = [], []
    for fold_i, test_idx in enumerate(folds):
        train_idx = [i for f in folds if f is not test_idx for i in f]
        tree = dtree.train_tree(ds.subset(train_idx), params, rng.child(fold_i))
        fold_preds = dtree.classify(tree, ds.subset(test_idx))
        fold_truths = [labels[i] for i in test_idx]
        correct = sum(p == t for p, t in zip(fold_preds, fold_truths))
        truths += fold_truths
        preds += fold_preds
        fold_accuracies.append(correct / len(test_idx))
    pooled = confusion_matrix(truths, preds)
    return CrossValResult(fold_accuracies, float(np.mean(fold_accuracies)), pooled)
