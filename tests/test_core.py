import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowprobe.core import (
    CATEGORICAL,
    NUMERIC,
    ContractError,
    Dataset,
    DomainError,
    Instance,
    RandomSource,
    StructuralError,
    load_dataset,
    make_dataset,
    numeric_matrix,
    round_half_up,
    save_dataset,
    split_dataset,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadDataset:
    def test_header_and_label_column(self, tmp_path):
        p = write(tmp_path, "a,b,y\n1,2,p\n3,4,q\n")
        ds = load_dataset(p, has_header=True, label_column=2)
        assert ds.n_rows == 2
        assert ds.schema == (("a", NUMERIC), ("b", NUMERIC))
        assert ds.label_domain == frozenset({"p", "q"})
        assert ds.rows[0].values == (1.0, 2.0)
        assert ds.rows[1].label == "q"

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "")
        with pytest.raises(StructuralError):
            load_dataset(p)

    def test_ragged_row_named(self, tmp_path):
        p = write(tmp_path, "1,2,3\n4,5\n", name="r.csv")
        with pytest.raises(StructuralError, match="row 2"):
            load_dataset(p, has_header=False)

    def test_kind_inference_mixed(self, tmp_path):
        p = write(tmp_path, "x,c\n1.5,red\n2.5,blue\n")
        ds = load_dataset(p)
        assert ds.schema == (("x", NUMERIC), ("c", CATEGORICAL))
        assert ds.rows[1].values == (2.5, "blue")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        p = write(tmp_path, f"x,y,label\n1,2,a\n3,{cell},b\n")
        with pytest.raises(StructuralError, match="row 2, column 1"):
            load_dataset(p, label_column=2)
        with pytest.raises(StructuralError, match="row 2, column 1"):
            load_dataset(p, label_column=2, schema=[("x", NUMERIC), ("y", NUMERIC)])

    def test_non_finite_text_in_categorical_column(self, tmp_path):
        p = write(tmp_path, "c\nnan\nred\n")
        assert load_dataset(p).rows[0].values == ("nan",)
        p = write(tmp_path, "c\ninf\n2\n", name="explicit.csv")
        assert load_dataset(p, schema=[("c", CATEGORICAL)]).rows[0].values == ("inf",)

    def test_explicit_schema_wins(self, tmp_path):
        p = write(tmp_path, "x\n1\n2\n")
        ds = load_dataset(p, schema=[("x", CATEGORICAL)])
        assert ds.rows[0].values == ("1",)


class TestSplitDataset:
    def ds(self, n):
        return make_dataset([("x", NUMERIC)], [(float(i),) for i in range(n)])

    def test_partition(self):
        ds = self.ds(10)
        a, b = split_dataset(ds, 0.5, RandomSource(1))
        assert a.n_rows == 5 and b.n_rows == 5
        seen = sorted(r.values[0] for r in a.rows + b.rows)
        assert seen == [float(i) for i in range(10)]

    def test_deterministic(self):
        ds = self.ds(10)
        a1, b1 = split_dataset(ds, 0.3, RandomSource(1))
        a2, b2 = split_dataset(ds, 0.3, RandomSource(1))
        assert [r.values for r in a1.rows] == [r.values for r in a2.rows]
        assert [r.values for r in b1.rows] == [r.values for r in b2.rows]

    def test_single_row(self):
        ds = self.ds(1)
        a, b = split_dataset(ds, 0.5, RandomSource(1))
        assert {a.n_rows, b.n_rows} == {0, 1}
        assert a.n_rows + b.n_rows == 1

    def test_rounding_rule_exhaustive(self):
        # Oracle: sizes must partition and the first part must match the
        # documented half-up rounding for every (n, fraction) pair.
        for n in range(1, 12):
            ds = self.ds(n)
            for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
                a, b = split_dataset(ds, frac, RandomSource(7))
                assert a.n_rows == math.floor(frac * n + 0.5)
                assert a.n_rows + b.n_rows == n

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            split_dataset(self.ds(3), 1.0, RandomSource(1))
        with pytest.raises(DomainError):
            split_dataset(self.ds(3), 0.0, RandomSource(1))

    def test_empty_dataset(self):
        ds = Dataset((("x", NUMERIC),), ())
        with pytest.raises(ContractError):
            split_dataset(ds, 0.5, RandomSource(1))


names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
cat_values = st.text(alphabet="xyz_", min_size=1, max_size=5)


@st.composite
def datasets(draw):
    n_cols = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from([NUMERIC, CATEGORICAL])) for _ in range(n_cols)]
    schema = [(f"c{i}", k) for i, k in enumerate(kinds)]
    n_rows = draw(st.integers(1, 8))
    rows = []
    for _ in range(n_rows):
        rows.append(tuple(
            draw(st.floats(-1e6, 1e6, allow_nan=False)) if k == NUMERIC else draw(cat_values)
            for k in kinds
        ))
    labels = draw(st.one_of(st.none(), st.lists(
        st.sampled_from(["p", "q"]), min_size=n_rows, max_size=n_rows)))
    return make_dataset(schema, rows, labels)


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_csv_round_trip_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    save_dataset(ds, path)
    has_labels = any(r.label is not None for r in ds.rows)
    back = load_dataset(
        path,
        has_header=True,
        label_column=len(ds.schema) if has_labels else None,
        schema=ds.schema,
    )
    assert back.schema == ds.schema
    assert [r.values for r in back.rows] == [r.values for r in ds.rows]
    if has_labels:
        assert back.labels() == ds.labels()


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = [RandomSource(42).uniform() for _ in range(3)]
        b = [RandomSource(42).uniform() for _ in range(3)]
        assert a == b

    def test_children_independent_and_deterministic(self):
        r = RandomSource(42)
        c1 = r.child(0)
        c2 = r.child(1)
        assert c1.seed != c2.seed
        assert RandomSource(42).child(0).seed == c1.seed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), low=st.integers(-5, 5),
           span=st.sampled_from([1, 2, 3, 999, 1999, 2**31, 2**40]), m=st.integers(0, 300))
    def test_block_draw_is_scalar_stream(self, seed, low, span, m):
        scalar, block = RandomSource(seed), RandomSource(seed)
        want = [scalar.integers(low, low + span) for _ in range(m)]
        got = block.integers(low, low + span, size=m)
        assert got.tolist() == want
        # Both sources are left at the same point of the stream.
        assert block.integers(0, 1 << 20) == scalar.integers(0, 1 << 20)
        assert block.uniform() == scalar.uniform()

    def test_seed_bounds(self):
        with pytest.raises(ContractError):
            RandomSource(-1)
        with pytest.raises(ContractError):
            RandomSource(1 << 64)

    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(1.49) == 1


class TestValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC), ("b", NUMERIC)), (Instance((1.0,)),))

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC),), (Instance(("oops",)),))

    def test_label_domain_enforced(self):
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC),), (Instance((1.0,), "z"),), frozenset({"p"}))

    def test_empty_instance_rejected(self):
        with pytest.raises(ContractError):
            Instance(())

    def test_numeric_matrix_requires_numeric(self):
        ds = make_dataset([("a", CATEGORICAL)], [("x",)])
        with pytest.raises(ContractError):
            numeric_matrix(ds)

    def test_numeric_matrix_values(self):
        ds = make_dataset([("a", NUMERIC), ("b", NUMERIC)], [(1, 2), (3, 4)])
        assert np.array_equal(numeric_matrix(ds), [[1.0, 2.0], [3.0, 4.0]])
