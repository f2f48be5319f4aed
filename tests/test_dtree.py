import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowprobe import dtree
from shadowprobe.core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    DomainError,
    RandomSource,
    make_dataset,
)
from shadowprobe.dtree import (
    CategoricalNode,
    CategoricalSplit,
    Leaf,
    NumericNode,
    NumericSplit,
    TreeParams,
    classify,
    entropy,
    info_gain,
    train_tree,
    training_accuracy,
)

from oracles import entropy_bits_exact, greedy_tree_exact, info_gain_exact, train_tree_reference


class TestEntropy:
    def test_pure_set(self):
        assert entropy({"p": 4, "q": 0}) == 0.0

    def test_uniform_binary(self):
        assert entropy({"p": 1, "q": 1}) == 1.0

    def test_against_exact_oracle(self):
        # Frozen from the rational-arithmetic oracle below.
        expected = 0.940285958670631
        assert abs(entropy({"p": 9, "q": 5}) - expected) < 1e-12
        assert abs(entropy({"p": 9, "q": 5}) - entropy_bits_exact([9, 5])) < 1e-12

    def test_total_zero(self):
        with pytest.raises(DomainError):
            entropy({"p": 0})

    def test_negative_counts(self):
        with pytest.raises(DomainError):
            entropy({"p": -1, "q": 3})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(lambda c: sum(c) > 0))
    def test_bounds_and_oracle(self, counts):
        h = entropy({i: c for i, c in enumerate(counts)})
        k = sum(1 for c in counts if c > 0)
        assert -1e-12 <= h <= math.log2(max(k, 1)) + 1e-12
        assert abs(h - entropy_bits_exact(counts)) < 1e-12


# Two-class 14-row set: a numeric and a categorical attribute.
TOY_ROWS = [
    (85.0, "sunny"), (80.0, "sunny"), (83.0, "overcast"), (70.0, "rain"),
    (68.0, "rain"), (65.0, "rain"), (64.0, "overcast"), (72.0, "sunny"),
    (69.0, "sunny"), (75.0, "rain"), (75.0, "sunny"), (72.0, "overcast"),
    (81.0, "overcast"), (71.0, "rain"),
]
TOY_LABELS = ["n", "n", "y", "y", "y", "n", "y", "n", "y", "y", "y", "y", "y", "n"]


def toy_dataset():
    return make_dataset([("temp", NUMERIC), ("outlook", CATEGORICAL)], TOY_ROWS, TOY_LABELS)


class TestInfoGain:
    def test_single_class_any_split(self):
        ds = make_dataset([("x", NUMERIC)], [(1.0,), (2.0,), (3.0,)], ["a", "a", "a"])
        assert info_gain(ds, 0, NumericSplit(1.5)) == 0.0

    def test_perfect_split_equals_parent_entropy(self):
        ds = make_dataset([("x", NUMERIC)], [(1.0,), (2.0,), (3.0,), (4.0,)],
                          ["a", "a", "b", "b"])
        h = entropy({"a": 2, "b": 2})
        assert abs(info_gain(ds, 0, NumericSplit(2.5)) - h) < 1e-12

    def test_toy_numeric_against_oracle(self):
        ds = toy_dataset()
        for t in (66.5, 70.5, 73.5, 80.5):
            left = [i for i, r in enumerate(TOY_ROWS) if r[0] <= t]
            right = [i for i, r in enumerate(TOY_ROWS) if r[0] > t]
            expect = info_gain_exact(TOY_LABELS, [left, right])
            assert abs(info_gain(ds, 0, NumericSplit(t)) - expect) < 1e-12

    def test_toy_categorical_against_oracle(self):
        ds = toy_dataset()
        groups = {}
        for i, r in enumerate(TOY_ROWS):
            groups.setdefault(r[1], []).append(i)
        expect = info_gain_exact(TOY_LABELS, list(groups.values()))
        assert abs(info_gain(ds, 1, CategoricalSplit()) - expect) < 1e-12

    def test_empty_dataset(self):
        ds = make_dataset([("x", NUMERIC)], [])
        with pytest.raises(DomainError):
            info_gain(ds, 0, NumericSplit(0.0))

    def test_kind_mismatch(self):
        with pytest.raises(ContractError):
            info_gain(toy_dataset(), 1, NumericSplit(0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100, allow_nan=False),
                              st.sampled_from(["a", "b"])),
                    min_size=2, max_size=20),
           st.floats(-100, 100, allow_nan=False))
    def test_gain_non_negative(self, rows, t):
        ds = make_dataset([("x", NUMERIC)], [(v,) for v, _ in rows],
                          [l for _, l in rows])
        assert info_gain(ds, 0, NumericSplit(t)) >= -1e-12


class TestTrainTree:
    def test_perfect_categorical_predictor(self):
        ds = make_dataset(
            [("noise", NUMERIC), ("key", CATEGORICAL)],
            [(1.0, "u"), (2.0, "u"), (3.0, "v"), (4.0, "v"), (2.5, "w"), (0.5, "w")],
            ["a", "a", "b", "b", "c", "c"],
        )
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        assert_matches_reference(ds, TreeParams(min_leaf_size=1), 0)
        assert training_accuracy(tree, ds) == 1.0
        assert not isinstance(tree.root, Leaf)
        for child in tree.root.branches.values():
            assert isinstance(child, Leaf)

    def test_identical_rows_mixed_labels(self):
        ds = make_dataset([("x", NUMERIC)], [(1.0,)] * 5, ["a", "a", "a", "b", "b"])
        tree = train_tree(ds, TreeParams(min_leaf_size=2), RandomSource(0))
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == "a"
        assert tree.root.count == 5

    def test_predictions_match_exact_greedy_oracle(self):
        rng = RandomSource(99)
        rows = [tuple(rng.uniform(0, 10, size=2)) for _ in range(20)]
        labels = ["pos" if x + y > 10 else "neg" for x, y in rows]
        ds = make_dataset([("x", NUMERIC), ("y", NUMERIC)], rows, labels)
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(1))
        assert_matches_reference(ds, TreeParams(min_leaf_size=1), 1)
        oracle = greedy_tree_exact(rows, labels)
        assert classify(tree, ds) == [oracle(r) for r in rows]

    def test_leaf_counts_partition_dataset(self):
        ds = toy_dataset()
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(3))

        def leaf_sum(node):
            if isinstance(node, Leaf):
                return node.count
            if hasattr(node, "branches"):
                return sum(leaf_sum(c) for c in node.branches.values()) + node.fallback.count
            return leaf_sum(node.low) + leaf_sum(node.high)

        assert leaf_sum(tree.root) == ds.n_rows

    def test_child_counts_sum_to_parent(self):
        ds = toy_dataset()
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(3))

        def check(node):
            if isinstance(node, Leaf):
                return
            if hasattr(node, "branches"):
                kids = list(node.branches.values())
                assert sum(k.count for k in kids) + node.fallback.count == node.count
                for k in kids:
                    check(k)
            else:
                assert node.low.count + node.high.count == node.count
                check(node.low)
                check(node.high)

        check(tree.root)

    def test_label_permutation_equivariance(self):
        ds = toy_dataset()
        mapping = {"y": "YES", "n": "NO"}
        ds2 = make_dataset([("temp", NUMERIC), ("outlook", CATEGORICAL)],
                           TOY_ROWS, [mapping[l] for l in TOY_LABELS])
        t1 = train_tree(ds, TreeParams(min_leaf_size=2), RandomSource(5))
        t2 = train_tree(ds2, TreeParams(min_leaf_size=2), RandomSource(5))
        assert [mapping[p] for p in classify(t1, ds)] == classify(t2, ds2)
        assert t1.n_nodes == t2.n_nodes

    def test_max_depth_and_min_leaf(self):
        ds = toy_dataset()
        shallow = train_tree(ds, TreeParams(min_leaf_size=1, max_depth=1), RandomSource(0))
        deep = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        assert shallow.n_nodes <= deep.n_nodes

    def test_unlabeled_rejected(self):
        ds = make_dataset([("x", NUMERIC)], [(1.0,), (2.0,)])
        with pytest.raises(ContractError):
            train_tree(ds, TreeParams(min_leaf_size=2), RandomSource(0))
        tree = train_tree(make_dataset([("x", NUMERIC)], [(1.0,)], ["a"]),
                          TreeParams(min_leaf_size=2), RandomSource(0))
        with pytest.raises(ContractError):
            training_accuracy(tree, ds)


class TestMemoryBound:
    def test_deep_tree_peak_is_a_few_root_orders(self):
        # Each split can only peel one 10-row "q" group off the 1,700 "p"
        # rows, so the tree is a 30-level chain whose nodes keep nearly all
        # rows. Growth holds the numeric matrix, at most two root orders
        # and one split-search block: about 5x the root order here, where
        # one sort order per level along the path would be about 40x.
        groups, size, rest = 30, 10, 1700
        group = np.repeat(np.arange(groups + 1), [size] * groups + [rest])
        values = (group[:, None] == np.arange(groups)).astype(float)
        labels = np.where(group < groups, "q", "p")
        ds = make_dataset([(f"g{k}", NUMERIC) for k in range(groups)],
                          [tuple(r) for r in values.tolist()], labels.tolist())
        tracemalloc.start()
        try:
            tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        node, depth = tree.root, 0
        while isinstance(node, NumericNode):
            node, depth = node.low, depth + 1
        assert depth == groups
        assert peak < 7 * groups * ds.n_rows * 8


class TestClassify:
    def test_memorizes_training_rows(self):
        ds = toy_dataset()
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        assert classify(tree, ds) == TOY_LABELS

    def test_unseen_category_takes_fallback(self):
        ds = make_dataset([("c", CATEGORICAL)],
                          [("a",), ("a",), ("b",), ("b",), ("b",)],
                          ["p", "p", "q", "q", "q"])
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        unseen = make_dataset([("c", CATEGORICAL)], [("zzz",), ("a",), ("b",)])
        assert classify(tree, unseen) == ["q", "p", "q"]  # node majority for "zzz"

    def test_manual_trace_depth_two(self):
        rows = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        labels = ["a", "a", "b", "c"]
        ds = make_dataset([("x", NUMERIC), ("y", NUMERIC)], rows, labels)
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        # Hand trace: root splits x at 0.5 (gain 1.0 beats y's 0.5);
        # right child splits y at 0.5.
        probe = make_dataset([("x", NUMERIC), ("y", NUMERIC)],
                             [(0.2, 0.9), (0.7, 0.1), (0.7, 0.9)])
        assert classify(tree, probe) == ["a", "b", "c"]

    def test_schema_mismatch(self):
        tree = train_tree(toy_dataset(), TreeParams(min_leaf_size=2), RandomSource(0))
        with pytest.raises(ContractError):
            classify(tree, make_dataset([("temp", NUMERIC)], [(1.0,)]))
        with pytest.raises(ContractError):
            classify(tree, make_dataset([("temp", CATEGORICAL), ("outlook", CATEGORICAL)],
                                        [("not-a-number", "sunny")]))
        with pytest.raises(ContractError):
            classify(tree, make_dataset([("t", NUMERIC), ("outlook", CATEGORICAL)],
                                        [(1.0, "sunny")]))

    def test_empty_dataset(self):
        tree = train_tree(toy_dataset(), TreeParams(min_leaf_size=2), RandomSource(0))
        empty = make_dataset([("temp", NUMERIC), ("outlook", CATEGORICAL)], [])
        assert classify(tree, empty) == []


def descend(tree, values):
    """Reference descent of one row, as the tree's own rules state."""
    node = tree.root
    while not isinstance(node, Leaf):
        v = values[node.attribute]
        if isinstance(node, NumericNode):
            node = node.low if v <= node.threshold else node.high
        else:
            node = node.branches.get(v, node.fallback)
    return node.label


TRAIN_VALUES = [-1.0, 0.0, 0.5, 2.0, 3.25]


@st.composite
def mixed_train_and_probe(draw):
    kinds = draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), min_size=1, max_size=3))
    schema = [(f"a{j}", k) for j, k in enumerate(kinds)]
    cell = {NUMERIC: st.sampled_from(TRAIN_VALUES),
            CATEGORICAL: st.sampled_from(["u", "v", "w"])}
    # Probe rows may hold values never seen in training: new numbers,
    # every possible threshold (the midpoints), and the category "new",
    # which must take the fallback leaf.
    midpoints = sorted({(a + b) / 2 for a in TRAIN_VALUES for b in TRAIN_VALUES})
    probe_cell = {NUMERIC: st.one_of(st.sampled_from(midpoints),
                                     st.floats(-5, 5, allow_nan=False)),
                  CATEGORICAL: st.sampled_from(["u", "v", "w", "new"])}
    n = draw(st.integers(1, 30))
    rows = [tuple(draw(cell[k]) for k in kinds) for _ in range(n)]
    labels = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=n, max_size=n))
    probe = [tuple(draw(probe_cell[k]) for k in kinds)
             for _ in range(draw(st.integers(0, 30)))]
    return schema, rows, labels, probe


class TestBatchClassify:
    @settings(max_examples=80, deadline=None)
    @given(mixed_train_and_probe(), st.integers(1, 3))
    def test_matches_per_row_descent(self, case, min_leaf):
        schema, rows, labels, probe = case
        ds = make_dataset(schema, rows, labels)
        tree = train_tree(ds, TreeParams(min_leaf_size=min_leaf), RandomSource(4))
        assert_matches_reference(ds, TreeParams(min_leaf_size=min_leaf), 4)
        assert classify(tree, ds) == [descend(tree, r) for r in rows]
        probe_ds = make_dataset(schema, probe)
        assert classify(tree, probe_ds) == [descend(tree, r) for r in probe]

    def test_unseen_category_below_numeric_split(self):
        rows = [(0.0, "u"), (0.0, "v"), (1.0, "u"), (1.0, "v"), (1.0, "v")]
        ds = make_dataset([("x", NUMERIC), ("c", CATEGORICAL)], rows,
                          ["a", "a", "b", "c", "c"])
        tree = train_tree(ds, TreeParams(min_leaf_size=1), RandomSource(0))
        assert isinstance(tree.root, NumericNode)
        assert isinstance(tree.root.high, CategoricalNode)
        probe = [(1.0, "new"), (0.0, "new"), (1.0, "u"), (2.0, "v")]
        got = classify(tree, make_dataset([("x", NUMERIC), ("c", CATEGORICAL)], probe))
        assert got == [tree.root.high.fallback.label, "a", "b", "c"]

    def test_lowest_threshold_wins_gain_tie(self):
        # Splits at 0.5 and 2.5 have exactly equal gain; 0.5 must win.
        ds = make_dataset([("x", NUMERIC)], [(0.0,), (1.0,), (2.0,), (3.0,)],
                          ["a", "b", "b", "a"])
        tree = train_tree(ds, TreeParams(min_leaf_size=2), RandomSource(0))
        assert_matches_reference(ds, TreeParams(min_leaf_size=2), 0)
        assert isinstance(tree.root, NumericNode)
        assert tree.root.threshold == 0.5


def as_tuples(node):
    """A tree in ``train_tree_reference``'s tuple form, branch order kept."""
    if isinstance(node, Leaf):
        return ("leaf", node.label, node.count, node.tie_broken)
    if isinstance(node, NumericNode):
        return ("numeric", node.attribute, node.threshold, node.count,
                as_tuples(node.low), as_tuples(node.high))
    return ("categorical", node.attribute, node.count,
            [(v, as_tuples(c)) for v, c in node.branches.items()], as_tuples(node.fallback))


def assert_matches_reference(ds, params, seed):
    rng, ref_rng = RandomSource(seed), RandomSource(seed)
    tree = train_tree(ds, params, rng)
    ref = train_tree_reference([k for _, k in ds.schema], ds.columns, ds.labels,
                               params.min_leaf_size, params.max_depth, ref_rng)
    assert as_tuples(tree.root) == ref
    assert rng.integers(0, 2**31) == ref_rng.integers(0, 2**31)  # same tie draws


@st.composite
def mixed_dataset(draw):
    kinds = draw(st.lists(st.sampled_from([NUMERIC, NUMERIC, CATEGORICAL]),
                          min_size=1, max_size=8))
    n = draw(st.integers(10, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    n_classes = draw(st.integers(2, 4))
    columns = []
    for kind in kinds:
        # Few distinct values per column: many duplicates and gain ties.
        distinct = int(gen.integers(1, 9))
        if kind == NUMERIC:
            columns.append(np.round(gen.normal(0, 2, size=distinct), 1)[gen.integers(0, distinct, n)])
        else:
            columns.append(np.array(["u", "v", "w", "x", "y"], dtype=object)[
                gen.integers(0, min(distinct, 5), n)])
    # Labels follow a column's sort order on some rows and are random on
    # the rest, so trees grow several levels deep.
    codes = gen.integers(0, n_classes, n)
    if kinds[0] == NUMERIC:
        ranked = np.argsort(np.argsort(columns[0], kind="stable"), kind="stable")
        follow = gen.random(n) < 0.6
        codes[follow] = (ranked * n_classes // n)[follow]
    labels = np.array(["p", "q", "r", "s"], dtype=object)[codes]
    schema = [(f"a{j}", k) for j, k in enumerate(kinds)]
    rows = list(zip(*[c.tolist() for c in columns]))
    return make_dataset(schema, rows, labels.tolist())


class TestMatchesReference:
    """The presorted, batched split search against the per-attribute
    trainer it replaced, node for node."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_dataset(), st.integers(1, 6), st.sampled_from([None, 1, 2, 4]),
           st.sampled_from([1, 40, 300, 1 << 15]), st.integers(0, 2**32 - 1))
    def test_random_datasets(self, ds, min_leaf, max_depth, block_cells, seed):
        # Small block caps split even these datasets into several blocks.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dtree, "_BLOCK_CELLS", block_cells)
            assert_matches_reference(ds, TreeParams(min_leaf, max_depth), seed)

    def test_several_blocks_at_the_real_cap(self):
        # 700 rows x 120 numeric attributes is about 2.6 blocks at the root.
        gen = np.random.default_rng(7)
        n, a = 700, 120
        values = np.round(gen.normal(0, 1, size=(n, a)), 1)
        score = values[:, 0] + values[:, 50] - values[:, 110] + gen.normal(0, 0.5, n)
        labels = np.where(score > 0.8, "p", np.where(score < -0.8, "q", "r"))
        schema = [(f"a{j}", NUMERIC) for j in range(a)] + [("c", CATEGORICAL)]
        rows = [tuple(r) + (l if gen.random() < 0.3 else "z",)
                for r, l in zip(values.tolist(), labels.tolist())]
        ds = make_dataset(schema, rows, labels.tolist())
        assert n * a > 2 * dtree._BLOCK_CELLS
        assert_matches_reference(ds, TreeParams(min_leaf_size=3), 11)
