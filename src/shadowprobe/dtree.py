"""ID3-style decision tree trained by greedy information-gain splits.

This is both a target classifier family and the engine behind the
meta-classifier. Numeric attributes use binary threshold tests
(<= t vs > t) with candidate thresholds at midpoints between consecutive
distinct sorted values. Categorical attributes split with one branch per
value observed at the node plus a fallback leaf for values unseen during
training; a categorical attribute is never reused further down the same
path (numeric attributes may recur with different thresholds).

Gain ties are broken deterministically: lowest attribute index first,
then lowest threshold. Leaf-label ties are broken by the caller-supplied
RandomSource and recorded on the leaf.

Training reads the Dataset's columns directly, and :func:`classify`
labels a whole Dataset in one descent. :func:`info_gain` is the scalar
reference that ``debug=True`` checks the vectorised gains against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    Dataset,
    DomainError,
    RandomSource,
)


@dataclass(frozen=True)
class TreeParams:
    """Growth limits standing in for post-hoc pruning."""

    min_leaf_size: int = 2
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_leaf_size < 1:
            raise ContractError("min_leaf_size must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ContractError("max_depth must be >= 1 when set")


@dataclass(frozen=True)
class NumericSplit:
    threshold: float


@dataclass(frozen=True)
class CategoricalSplit:
    """Partition by each observed value of the attribute."""


@dataclass(eq=False)
class Leaf:
    label: object
    count: int
    tie_broken: bool = False


@dataclass(eq=False)
class NumericNode:
    attribute: int
    threshold: float
    count: int
    low: object   # subtree for value <= threshold
    high: object  # subtree for value > threshold


@dataclass(eq=False)
class CategoricalNode:
    attribute: int
    count: int
    branches: dict  # observed value -> subtree
    fallback: Leaf  # taken by values unseen at training time (count 0)


@dataclass(eq=False)
class DecisionTree:
    root: object
    schema: tuple
    params: TreeParams

    @property
    def n_nodes(self) -> int:
        return _count_nodes(self.root)

    @property
    def n_leaves(self) -> int:
        return _count_leaves(self.root)


def _count_nodes(node) -> int:
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, NumericNode):
        return 1 + _count_nodes(node.low) + _count_nodes(node.high)
    return 1 + sum(_count_nodes(c) for c in node.branches.values()) + 1


def _count_leaves(node) -> int:
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, NumericNode):
        return _count_leaves(node.low) + _count_leaves(node.high)
    return sum(_count_leaves(c) for c in node.branches.values()) + 1


def entropy(label_counts) -> float:
    """Shannon entropy in bits of a label-count mapping.

    H = -sum p_i log2 p_i over classes with nonzero count.
    """
    counts = list(label_counts.values())
    if any(c < 0 for c in counts):
        raise DomainError("label counts must be non-negative")
    total = sum(counts)
    if total <= 0:
        raise DomainError("total count must be positive")
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def _entropy_of_labels(labels) -> float:
    counts = {}
    for l in labels:
        counts[l] = counts.get(l, 0) + 1
    return entropy(counts)


def info_gain(ds: Dataset, attribute: int, split) -> float:
    """Information gain of a split of ``ds`` on one attribute.

    Gain(S, A) = H(S) - sum_v (|S_v| / |S|) * H(S_v) over the branches
    of the split. Non-negative up to rounding.
    """
    if ds.n_rows == 0:
        raise DomainError("information gain of an empty dataset is undefined")
    if not ds.fully_labeled:
        raise ContractError("information gain requires a fully labeled dataset")
    kind = ds.attribute_kind(attribute)
    values = ds.columns[attribute].tolist()
    labels = ds.labels.tolist()
    if isinstance(split, NumericSplit):
        if kind != NUMERIC:
            raise ContractError(f"numeric split on categorical attribute {attribute}")
        low = [l for v, l in zip(values, labels) if v <= split.threshold]
        high = [l for v, l in zip(values, labels) if v > split.threshold]
        parts = [p for p in (low, high) if p]
    elif isinstance(split, CategoricalSplit):
        if kind != CATEGORICAL:
            raise ContractError(f"categorical split on numeric attribute {attribute}")
        groups = {}
        for v, l in zip(values, labels):
            groups.setdefault(v, []).append(l)
        parts = list(groups.values())
    else:
        raise ContractError(f"unknown split spec {split!r}")
    h_parent = _entropy_of_labels(labels)
    n = ds.n_rows
    h_children = sum(len(p) / n * _entropy_of_labels(p) for p in parts)
    return h_parent - h_children


def _entropy_from_count_matrix(counts: np.ndarray) -> np.ndarray:
    """Row-wise entropy in bits of a (rows, classes) count matrix."""
    totals = counts.sum(axis=1, keepdims=True).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / totals
        term = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -term.sum(axis=1)


class _Trainer:
    def __init__(self, ds: Dataset, params: TreeParams, rng: RandomSource, debug: bool):
        self.ds = ds
        self.params = params
        self.rng = rng
        self.debug = debug
        labels = ds.labels.tolist()
        # Label codes in first-occurrence order so relabeling by a
        # bijection leaves every decision (including tie-breaks) intact.
        self.label_order = []
        seen = {}
        for l in labels:
            if l not in seen:
                seen[l] = len(self.label_order)
                self.label_order.append(l)
        self.codes = np.array([seen[l] for l in labels], dtype=np.int64)
        self.n_classes = len(self.label_order)
        kinds = [kind for _, kind in ds.schema]
        self.num_cols = {j: c for j, c in enumerate(ds.columns) if kinds[j] == NUMERIC}
        self.cat_cols = {j: c for j, c in enumerate(ds.columns) if kinds[j] == CATEGORICAL}

    def majority_leaf(self, idx: np.ndarray) -> Leaf:
        counts = np.bincount(self.codes[idx], minlength=self.n_classes)
        best = counts.max()
        tied = [c for c in range(self.n_classes) if counts[c] == best]
        tie = len(tied) > 1
        if tie:
            # Order tied classes by first occurrence within this node so the
            # choice is independent of label values, then draw one.
            first_pos = {}
            for i in idx:
                c = self.codes[i]
                if c not in first_pos:
                    first_pos[c] = len(first_pos)
            tied.sort(key=lambda c: first_pos[c])
            pick = tied[self.rng.integers(0, len(tied))]
        else:
            pick = tied[0]
        return Leaf(self.label_order[pick], int(len(idx)), tie)

    def _numeric_candidates(self, j: int, idx: np.ndarray):
        """Best (gain, threshold) for attribute j at this node, or None."""
        vals = self.num_cols[j][idx]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sc = self.codes[idx][order]
        change = np.nonzero(sv[:-1] != sv[1:])[0]
        if change.size == 0:
            return None
        n = len(idx)
        onehot = np.zeros((n, self.n_classes), dtype=np.int64)
        onehot[np.arange(n), sc] = 1
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[change]                      # counts with value <= boundary
        total = prefix[-1]
        right = total[None, :] - left
        nl = left.sum(axis=1).astype(np.float64)
        nr = n - nl
        h_parent = _entropy_from_count_matrix(total[None, :])[0]
        gains = h_parent - (nl / n) * _entropy_from_count_matrix(left) \
            - (nr / n) * _entropy_from_count_matrix(right)
        thresholds = (sv[change] + sv[change + 1]) / 2.0
        # Thresholds ascend and argmax takes the first maximum: the lowest
        # threshold wins gain ties.
        best_i = int(np.argmax(gains))
        if self.debug:
            sub = self.ds.subset(idx)
            for g, t in zip(gains, thresholds):
                ref = info_gain(sub, j, NumericSplit(float(t)))
                if abs(g - ref) > 1e-9:
                    raise AssertionError(f"fast gain {g} != reference {ref} at threshold {t}")
                if g < -1e-12:
                    raise AssertionError(f"negative gain {g} at threshold {t}")
        return float(gains[best_i]), float(thresholds[best_i])

    def _categorical_candidate(self, j: int, idx: np.ndarray):
        vals = self.cat_cols[j][idx]
        uniq, inverse = np.unique(vals, return_inverse=True)
        if len(uniq) < 2:
            return None
        counts = np.zeros((len(uniq), self.n_classes), dtype=np.int64)
        np.add.at(counts, (inverse, self.codes[idx]), 1)
        n = len(idx)
        sizes = counts.sum(axis=1).astype(np.float64)
        h_parent = _entropy_from_count_matrix(counts.sum(axis=0)[None, :])[0]
        gain = h_parent - np.sum(sizes / n * _entropy_from_count_matrix(counts))
        if self.debug:
            ref = info_gain(self.ds.subset(idx), j, CategoricalSplit())
            if abs(gain - ref) > 1e-9:
                raise AssertionError(f"fast categorical gain {gain} != reference {ref}")
            if gain < -1e-12:
                raise AssertionError(f"negative categorical gain {gain}")
        return float(gain), [str(u) for u in uniq]

    def build(self, idx: np.ndarray, used_cat: frozenset, depth: int):
        node_codes = self.codes[idx]
        if (node_codes == node_codes[0]).all():
            return Leaf(self.label_order[node_codes[0]], int(len(idx)))
        if len(idx) < self.params.min_leaf_size:
            return self.majority_leaf(idx)
        if self.params.max_depth is not None and depth >= self.params.max_depth:
            return self.majority_leaf(idx)

        best = None  # (gain, attribute, kind, payload); strict > keeps earliest on ties
        for j in range(self.ds.n_attributes):
            if j in self.num_cols:
                cand = self._numeric_candidates(j, idx)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = (cand[0], j, NUMERIC, cand[1])
            elif j not in used_cat:
                cand = self._categorical_candidate(j, idx)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = (cand[0], j, CATEGORICAL, cand[1])
        if best is None:
            return self.majority_leaf(idx)

        _, j, kind, payload = best
        if kind == NUMERIC:
            t = payload
            mask = self.num_cols[j][idx] <= t
            low = self.build(idx[mask], used_cat, depth + 1)
            high = self.build(idx[~mask], used_cat, depth + 1)
            return NumericNode(j, t, int(len(idx)), low, high)
        values = payload
        fallback = self.majority_leaf(idx)
        fallback = Leaf(fallback.label, 0, fallback.tie_broken)
        branches = {}
        col = self.cat_cols[j][idx]
        for v in values:
            branches[v] = self.build(idx[col == v], used_cat | {j}, depth + 1)
        return CategoricalNode(j, int(len(idx)), branches, fallback)


def train_tree(ds: Dataset, params: TreeParams, rng: RandomSource,
               debug: bool = False) -> DecisionTree:
    """Grow a tree top-down, choosing the maximal-gain split at each node.

    Recursion stops when a node is pure, no candidate splits remain, the
    node is smaller than ``min_leaf_size``, or ``max_depth`` is reached.
    With ``debug=True`` every evaluated gain is cross-checked against the
    scalar :func:`info_gain` path and checked for non-negativity.
    """
    if ds.n_rows < 1:
        raise ContractError("cannot train on an empty dataset")
    if not ds.fully_labeled:
        raise ContractError("training requires a fully labeled dataset")
    trainer = _Trainer(ds, params, rng, debug)
    root = trainer.build(np.arange(ds.n_rows), frozenset(), 0)
    return DecisionTree(root, ds.schema, params)


def classify(tree: DecisionTree, ds: Dataset) -> list:
    """Labels of every row of ``ds``, in row order.

    All rows descend together: each node splits its rows' index array by
    its test. Unseen categorical values take the node's fallback leaf.
    """
    if ds.schema != tree.schema:
        raise ContractError("dataset schema does not match the tree's schema")
    out = np.empty(ds.n_rows, dtype=object)
    pending = [(tree.root, np.arange(ds.n_rows))]
    while pending:
        node, idx = pending.pop()
        if idx.size == 0:
            continue
        if isinstance(node, Leaf):
            out[idx] = node.label
            continue
        col = ds.columns[node.attribute][idx]
        if isinstance(node, NumericNode):
            low = col <= node.threshold
            pending += [(node.low, idx[low]), (node.high, idx[~low])]
        else:
            unseen = np.ones(idx.size, dtype=bool)
            for value, child in node.branches.items():
                hit = col == value
                unseen &= ~hit
                pending.append((child, idx[hit]))
            pending.append((node.fallback, idx[unseen]))
    return out.tolist()


def training_accuracy(tree: DecisionTree, ds: Dataset) -> float:
    if not ds.fully_labeled:
        raise ContractError("accuracy requires a fully labeled dataset")
    preds = classify(tree, ds)
    return sum(p == l for p, l in zip(preds, ds.labels.tolist())) / ds.n_rows
