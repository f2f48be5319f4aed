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

Numeric split search is presorted and batched (SLIQ-style; Mehta,
Agrawal & Rissanen 1996): the numeric columns are sorted once per tree,
each node's sort order is its parent's filtered to the node's rows, and
one search per node scores the thresholds of every numeric attribute at
once, a block of attributes at a time. :func:`classify` labels a whole
Dataset in one descent. :func:`entropy`, :func:`info_gain` and the
categorical split search share one entropy kernel and one gain formula.
"""

from __future__ import annotations

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

    min_leaf_size: int
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


def _entropy_rows(counts: np.ndarray, totals) -> np.ndarray:
    """Entropy in bits of each count row along the last (class) axis.

    ``totals`` holds the row sums as float64, shaped to broadcast
    against ``counts``.
    """
    p = counts / totals
    log_p = np.zeros_like(p)
    np.log2(p, out=log_p, where=p > 0)
    p *= log_p
    return -p.sum(axis=-1)


def _label_codes(labels: np.ndarray) -> tuple:
    """Each label's int code, numbered in first-occurrence order, and the
    distinct labels in that order."""
    seen = {}
    codes = np.array([seen.setdefault(l, len(seen)) for l in labels.tolist()], dtype=np.int64)
    return codes, list(seen)


def _split_gain(counts: np.ndarray) -> float:
    """Information gain of a split from its (branch, class) count table.

    Gain = H(parent) - sum_v (n_v / n) * H(branch v); every branch must
    be non-empty.
    """
    sizes = counts.sum(axis=1).astype(np.float64)
    n = sizes.sum()
    h_parent = _entropy_rows(counts.sum(axis=0), n)
    return float(h_parent - np.sum(sizes / n * _entropy_rows(counts, sizes[:, None])))


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
    return float(_entropy_rows(np.array(counts, dtype=np.float64), float(total)))


def info_gain(ds: Dataset, attribute: int, split) -> float:
    """Information gain of a split of ``ds`` on one attribute.

    Gain(S, A) = H(S) - sum_v (|S_v| / |S|) * H(S_v) over the non-empty
    branches of the split. Non-negative up to rounding.
    """
    if ds.n_rows == 0:
        raise DomainError("information gain of an empty dataset is undefined")
    if not ds.fully_labeled:
        raise ContractError("information gain requires a fully labeled dataset")
    kind = ds.attribute_kind(attribute)
    col = ds.columns[attribute]
    if isinstance(split, NumericSplit):
        if kind != NUMERIC:
            raise ContractError(f"numeric split on categorical attribute {attribute}")
        branch = (col > split.threshold).astype(np.int64)
    elif isinstance(split, CategoricalSplit):
        if kind != CATEGORICAL:
            raise ContractError(f"categorical split on numeric attribute {attribute}")
        branch = np.unique(col, return_inverse=True)[1]
    else:
        raise ContractError(f"unknown split spec {split!r}")
    codes, order = _label_codes(ds.labels)
    c = len(order)
    counts = np.bincount(branch * c + codes, minlength=(branch.max() + 1) * c).reshape(-1, c)
    return _split_gain(counts[counts.sum(axis=1) > 0])


# Numeric split search scores the attributes in blocks of at most this
# many (row, attribute) cells, which bounds its count arrays' memory.
_BLOCK_CELLS = 1 << 15


class _Trainer:
    def __init__(self, ds: Dataset, params: TreeParams, rng: RandomSource):
        self.ds = ds
        self.params = params
        self.rng = rng
        # Label codes in first-occurrence order so relabeling by a
        # bijection leaves every decision (including tie-breaks) intact.
        self.codes, self.label_order = _label_codes(ds.labels)
        self.n_classes = len(self.label_order)
        self.kinds = [kind for _, kind in ds.schema]
        num_attrs = [j for j, kind in enumerate(self.kinds) if kind == NUMERIC]
        # One (A, N) matrix of the numeric columns, sorted once: every
        # node's order array is this order restricted to the node's rows.
        self.num_matrix = np.array([ds.columns[j] for j in num_attrs],
                                   dtype=np.float64).reshape(len(num_attrs), ds.n_rows)
        self.root_order = np.argsort(self.num_matrix, axis=1, kind="stable")

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

    def _numeric_splits(self, idx: np.ndarray, order: np.ndarray) -> list:
        """Best (gain, threshold) of every numeric attribute at this node.

        ``order`` holds each attribute's node rows in ascending value order
        (ties by row index). Returns one entry per numeric attribute, None
        where its values do not vary.
        """
        n = len(idx)
        total = np.bincount(self.codes[idx], minlength=self.n_classes)
        h_parent = _entropy_rows(total, float(n))
        classes = np.arange(self.n_classes)
        # Sorted position i splits off the i + 1 lowest rows.
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        out = []
        step = max(1, _BLOCK_CELLS // n)
        for a0 in range(0, len(order), step):
            block = order[a0:a0 + step]
            sv = np.take_along_axis(self.num_matrix[a0:a0 + step], block, axis=1)
            # left[a, i] counts the classes of the i + 1 lowest rows: the
            # side with value <= the threshold after sorted position i.
            onehot = self.codes[block[:, :-1]][:, :, None] == classes
            left = np.cumsum(onehot, axis=1, dtype=np.int64)
            gains = h_parent - (nl / n) * _entropy_rows(left, nl[:, None]) \
                - (nr / n) * _entropy_rows(total - left, nr[:, None])
            boundary = sv[:, :-1] != sv[:, 1:]
            gains[~boundary] = -np.inf
            # Thresholds ascend and argmax takes the first maximum: the
            # lowest threshold wins gain ties.
            best = np.argmax(gains, axis=1)
            for a, i in enumerate(best.tolist()):
                if not boundary[a, i]:
                    out.append(None)
                    continue
                out.append((float(gains[a, i]), float((sv[a, i] + sv[a, i + 1]) / 2.0)))
        return out

    def _categorical_candidate(self, j: int, idx: np.ndarray):
        vals = self.ds.columns[j][idx]
        uniq, inverse = np.unique(vals, return_inverse=True)
        if len(uniq) < 2:
            return None
        c = self.n_classes
        counts = np.bincount(inverse.ravel() * c + self.codes[idx],
                             minlength=len(uniq) * c).reshape(len(uniq), c)
        return _split_gain(counts), [str(u) for u in uniq]

    def _restrict(self, order: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``order`` kept to ``rows``: a stable partition, never a new sort."""
        member = np.zeros(self.ds.n_rows, dtype=bool)
        member[rows] = True
        return order[member[order]].reshape(len(order), len(rows))

    def build(self, idx: np.ndarray, order: np.ndarray, used_cat: frozenset, depth: int):
        node_codes = self.codes[idx]
        if (node_codes == node_codes[0]).all():
            return Leaf(self.label_order[node_codes[0]], int(len(idx)))
        if len(idx) < self.params.min_leaf_size:
            return self.majority_leaf(idx)
        if self.params.max_depth is not None and depth >= self.params.max_depth:
            return self.majority_leaf(idx)

        numeric = iter(self._numeric_splits(idx, order))
        best = None  # (gain, attribute, payload); strict > keeps earliest on ties
        for j, kind in enumerate(self.kinds):
            if kind == NUMERIC:
                cand = next(numeric)
            elif j not in used_cat:
                cand = self._categorical_candidate(j, idx)
            else:
                continue
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (cand[0], j, cand[1])
        if best is None:
            return self.majority_leaf(idx)

        _, j, payload = best
        col = self.ds.columns[j][idx]
        if self.kinds[j] == NUMERIC:
            t = payload
            mask = col <= t
            low, high = idx[mask], idx[~mask]
            low = self.build(low, self._restrict(order, low), used_cat, depth + 1)
            high = self.build(high, self._restrict(order, high), used_cat, depth + 1)
            return NumericNode(j, t, int(len(idx)), low, high)
        values = payload
        fallback = self.majority_leaf(idx)
        fallback = Leaf(fallback.label, 0, fallback.tie_broken)
        branches = {}
        for v in values:
            rows = idx[col == v]
            branches[v] = self.build(rows, self._restrict(order, rows), used_cat | {j}, depth + 1)
        return CategoricalNode(j, int(len(idx)), branches, fallback)


def train_tree(ds: Dataset, params: TreeParams, rng: RandomSource) -> DecisionTree:
    """Grow a tree top-down, choosing the maximal-gain split at each node.

    Recursion stops when a node is pure, no candidate splits remain, the
    node is smaller than ``min_leaf_size``, or ``max_depth`` is reached.
    """
    if ds.n_rows < 1:
        raise ContractError("cannot train on an empty dataset")
    if not ds.fully_labeled:
        raise ContractError("training requires a fully labeled dataset")
    trainer = _Trainer(ds, params, rng)
    root = trainer.build(np.arange(ds.n_rows), trainer.root_order, frozenset(), 0)
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
