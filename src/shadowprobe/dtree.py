"""ID3-style decision tree trained by greedy information-gain splits.

This is both a target classifier family and the engine behind the
meta-classifier. Numeric attributes use binary threshold tests
(<= t vs > t) with candidate thresholds at midpoints between consecutive
distinct sorted values lo < hi, or at lo itself where the midpoint
rounds to hi or overflows. Categorical attributes split with one branch
per value observed at the node plus a fallback leaf for values unseen
during training; a categorical attribute is never reused further down
the same path (numeric attributes may recur with different thresholds).

Gain ties are broken deterministically: lowest attribute index first,
then lowest threshold. Leaf-label ties are broken by the caller-supplied
RandomSource and recorded on the leaf.

Numeric split search is presorted and batched (SLIQ-style; Mehta,
Agrawal & Rissanen 1996): the numeric columns are sorted once per tree,
each node's sort order is its parent's filtered to the node's rows, and
one search per node scores the thresholds of every numeric attribute at
once, a block of attributes at a time. :func:`classify` labels a whole
Dataset in one descent.

Growth runs in bounded memory. Besides the (A, N) float matrix of the
A numeric columns, the only sort orders alive are those of nodes not
yet grown, whose rows are disjoint, and the order of the node being
split while its children's orders are derived: at most twice the
root's A * N * 8 bytes. The split search adds one block's count array
and its entropy temporaries (see ``_BLOCK_CELLS``). So train_tree's
peak is about three times the root order's bytes on wide data, however
deep the tree grows (3.2x on a 6,000-row, 50-attribute meta-training
set). :func:`entropy`, :func:`info_gain` and the
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
        if type(self.min_leaf_size) is not int or self.min_leaf_size < 1:
            raise ContractError(f"min_leaf_size: must be an int >= 1 (got {self.min_leaf_size!r})")
        if self.max_depth is not None and (type(self.max_depth) is not int or self.max_depth < 1):
            raise ContractError(f"max_depth: must be None or an int >= 1 "
                                f"(got {self.max_depth!r})")


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
        return sum(1 for _ in self.nodes())

    @property
    def n_leaves(self) -> int:
        return sum(1 for _ in self.leaves())

    def nodes(self):
        """Every node of the tree, categorical fallbacks included."""
        pending = [self.root]
        while pending:
            node = pending.pop()
            yield node
            if isinstance(node, NumericNode):
                pending += [node.low, node.high]
            elif isinstance(node, CategoricalNode):
                pending += [*node.branches.values(), node.fallback]

    def leaves(self):
        """Every leaf of the tree, categorical fallbacks included."""
        return (node for node in self.nodes() if isinstance(node, Leaf))


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
# many (row, attribute) cells, or of one attribute at a node with more
# rows. A block keeps one int64 (cells, classes) count array alive, next
# to the two float arrays of the same shape of one entropy pass. Chosen by
# measurement: at 1 << 15 these arrays set the peak of a 1,200-row,
# 50-attribute meta-tree (3.6 MB, against 1.7 MB at 1 << 13 and 1.6 MB at
# 1 << 12), and every cap from 1 << 12 to 1 << 15 grew it in the same time.
_BLOCK_CELLS = 1 << 13


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
        # One (A, N) matrix of the numeric columns, sorted once by
        # train_tree: every node's order array is this order restricted to
        # the node's rows.
        self.num_matrix = np.array([ds.columns[j] for j in num_attrs],
                                   dtype=np.float64).reshape(len(num_attrs), ds.n_rows)

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
            # counts[a, i] holds the classes of the i + 1 lowest rows: the
            # side with value <= the threshold after sorted position i.
            counts = np.cumsum(self.codes[block[:, :-1]][:, :, None] == classes,
                               axis=1, dtype=np.int64)
            # gains = h_parent - (nl / n) * H(left) - (nr / n) * H(right),
            # built in place in that order; the right-hand counts reuse the
            # left-hand buffer once the left entropy is taken.
            gains = _entropy_rows(counts, nl[:, None])
            gains *= nl / n
            np.subtract(h_parent, gains, out=gains)
            np.subtract(total, counts, out=counts)
            h_right = _entropy_rows(counts, nr[:, None])
            del counts
            h_right *= nr / n
            gains -= h_right
            boundary = sv[:, :-1] != sv[:, 1:]
            gains[~boundary] = -np.inf
            # Thresholds ascend and argmax takes the first maximum: the
            # lowest threshold wins gain ties.
            best = np.argmax(gains, axis=1)
            for a, i in enumerate(best.tolist()):
                if not boundary[a, i]:
                    out.append(None)
                    continue
                # A midpoint that rounds to hi or overflows (a Python float
                # does so without a warning) would repeat the split forever.
                lo, hi = sv[a, i].item(), sv[a, i + 1].item()
                t = (lo + hi) / 2.0
                out.append((float(gains[a, i]), t if lo <= t < hi else lo))
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

    def _partition(self, idx: np.ndarray, j: int, payload) -> list:
        """The rows of each child of a split on attribute ``j``."""
        col = self.ds.columns[j][idx]
        if self.kinds[j] == NUMERIC:
            low = col <= payload
            return [idx[low], idx[~low]]
        return [idx[col == v] for v in payload]

    def _restrict(self, order: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``order`` kept to ``rows``: a stable partition, never a new sort."""
        member = np.zeros(self.ds.n_rows, dtype=bool)
        member[rows] = True
        return order[member[order]].reshape(len(order), len(rows))

    def build(self, pending: list, used_cat: frozenset, depth: int):
        """Grow the subtree of the (rows, order) pair at the end of ``pending``.

        The pair is popped, and the node pushes its children's pairs on a
        list of its own and drops its rows and order before the first child
        grows. So only pairs of nodes not yet grown are alive, and their
        rows are disjoint: growth holds at most one copy of the root's sort
        order besides the one being split.
        """
        idx, order = pending.pop()
        n = len(idx)
        first = self.codes[idx[0]]
        if (self.codes[idx] == first).all():
            return Leaf(self.label_order[first], n)
        if n < self.params.min_leaf_size:
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
        if self.kinds[j] == CATEGORICAL:
            # Drawn before the children, whose leaves may draw too.
            fallback = self.majority_leaf(idx)
            used_cat = used_cat | {j}
        # Pushed last child first, so the children pop in branch order.
        children = [(rows, self._restrict(order, rows))
                    for rows in reversed(self._partition(idx, j, payload))]
        del idx, order
        subtrees = [self.build(children, used_cat, depth + 1) for _ in range(len(children))]
        if self.kinds[j] == NUMERIC:
            return NumericNode(j, payload, n, *subtrees)
        return CategoricalNode(j, n, dict(zip(payload, subtrees)),
                               Leaf(fallback.label, 0, fallback.tie_broken))


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
    # Only the list refers to the root order, so the root drops it.
    root = trainer.build([(np.arange(ds.n_rows),
                           np.argsort(trainer.num_matrix, axis=1, kind="stable"))],
                         frozenset(), 0)
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
