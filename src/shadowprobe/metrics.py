"""Report scores of predictions, and k-fold CV of the decision tree.

A ``scores`` block orients its confusion matrix row = true label,
column = predicted label, with labels in sorted order. Folds are
stratified: within each class, rows are dealt round-robin with a pointer
that carries across classes, so overall fold sizes differ by at most one.
"""

from __future__ import annotations

import numpy as np

from . import dtree
from .core import ContractError, Dataset, DomainError, RandomSource


def scores(truths, preds) -> dict:
    """Report block: labels, confusion matrix, accuracy and per-class scores.

    precision_c = TP_c / column-sum_c, defined as 0 with an
    ``empty_column`` flag when the class is never predicted;
    recall_c = TP_c / row-sum_c (0 with ``empty_row`` when the class
    never occurs); accuracy = trace / total.
    """
    truths, preds = list(truths), list(preds)
    if len(truths) != len(preds):
        raise ContractError(f"{len(truths)} truths vs {len(preds)} predictions")
    if not truths:
        raise DomainError("scores of no predictions are undefined")
    labels = sorted(set(truths) | set(preds))
    index = {l: i for i, l in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for t, p in zip(truths, preds):
        counts[index[t]][index[p]] += 1
    per_class = {}
    for i, label in enumerate(labels):
        tp, col, row = counts[i][i], sum(r[i] for r in counts), sum(counts[i])
        per_class[label] = {"precision": tp / col if col else 0.0,
                            "recall": tp / row if row else 0.0,
                            "empty_column": col == 0, "empty_row": row == 0}
    return {"labels": labels, "confusion_matrix": counts,
            "accuracy": sum(counts[i][i] for i in range(len(labels))) / len(truths),
            "per_class": per_class}


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


def k_fold_cross_validate(ds: Dataset, k: int, params: dtree.TreeParams,
                          rng: RandomSource) -> dict:
    """Stratified k-fold cross-validation of the decision tree.

    Fold i grows a tree with ``params`` on the other folds, drawing from
    ``rng.child(i)``, and classifies its own rows. Returns the report
    block: each fold's accuracy, their mean, and the ``scores`` of all
    test predictions pooled.
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
        truths += fold_truths
        preds += fold_preds
        fold_accuracies.append(scores(fold_truths, fold_preds)["accuracy"])
    return {"fold_accuracies": fold_accuracies,
            "mean_accuracy": float(np.mean(fold_accuracies)), **scores(truths, preds)}
