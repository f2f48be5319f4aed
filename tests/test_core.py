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
        assert ds.labels.tolist() == ["p", "q"]
        assert [c.tolist() for c in ds.columns] == [[1.0, 3.0], [2.0, 4.0]]
        assert all(c.dtype == np.float64 for c in ds.columns)

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
        assert ds.columns[0].tolist() == [1.5, 2.5]
        assert ds.columns[1].tolist() == ["red", "blue"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        p = write(tmp_path, f"x,y,label\n1,2,a\n3,{cell},b\n")
        with pytest.raises(StructuralError, match="row 2, column 1"):
            load_dataset(p, label_column=2)
        with pytest.raises(StructuralError, match="row 2, column 1"):
            load_dataset(p, label_column=2, schema=[("x", NUMERIC), ("y", NUMERIC)])

    def test_non_finite_text_in_categorical_column(self, tmp_path):
        p = write(tmp_path, "c\nnan\nred\n")
        assert load_dataset(p).columns[0].tolist() == ["nan", "red"]
        p = write(tmp_path, "c\ninf\n2\n", name="explicit.csv")
        assert load_dataset(p, schema=[("c", CATEGORICAL)]).columns[0].tolist() == ["inf", "2"]

    def test_explicit_schema_wins(self, tmp_path):
        p = write(tmp_path, "x\n1\n2\n")
        ds = load_dataset(p, schema=[("x", CATEGORICAL)])
        assert ds.columns[0].tolist() == ["1", "2"]


class TestSplitDataset:
    def ds(self, n):
        return make_dataset([("x", NUMERIC)], [(float(i),) for i in range(n)])

    def test_partition(self):
        ds = self.ds(10)
        a, b = split_dataset(ds, 0.5, RandomSource(1))
        assert a.n_rows == 5 and b.n_rows == 5
        seen = sorted(a.columns[0].tolist() + b.columns[0].tolist())
        assert seen == [float(i) for i in range(10)]

    def test_deterministic(self):
        ds = self.ds(10)
        a1, b1 = split_dataset(ds, 0.3, RandomSource(1))
        a2, b2 = split_dataset(ds, 0.3, RandomSource(1))
        assert a1.columns[0].tolist() == a2.columns[0].tolist()
        assert b1.columns[0].tolist() == b2.columns[0].tolist()

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
        ds = Dataset((("x", NUMERIC),), [[]])
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
    has_labels = ds.labels is not None
    back = load_dataset(
        path,
        has_header=True,
        label_column=len(ds.schema) if has_labels else None,
        schema=ds.schema,
    )
    assert back.schema == ds.schema
    assert [c.tolist() for c in back.columns] == [c.tolist() for c in ds.columns]
    if has_labels:
        assert back.labels.tolist() == ds.labels.tolist()


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
            Dataset((("a", NUMERIC), ("b", NUMERIC)), ([1.0, 2.0], [1.0]))
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC), ("b", NUMERIC)), ([1.0],))
        with pytest.raises(ContractError):
            make_dataset([("a", NUMERIC), ("b", NUMERIC)], [(1.0, 2.0), (1.0,)])
        with pytest.raises(ContractError, match="2 labels for 1 rows"):
            Dataset((("a", NUMERIC),), ([1.0],), ["p", "q"])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC),), (["oops"],))
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC),), ([1.0, None],))

    @pytest.mark.parametrize("cell", [1.5, 3, None, b"x"])
    def test_non_str_categorical_cell_rejected(self, cell):
        with pytest.raises(ContractError, match="'c', row 1"):
            Dataset((("c", CATEGORICAL),), (["x", cell],))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ContractError, match=f"'b', row 2: non-finite value {value!r}"):
            Dataset((("a", NUMERIC), ("b", NUMERIC)), ([1.0, 2.0, 3.0], [0.0, 1.0, value]))

    def test_columns_are_read_only_copies(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        ds = Dataset((("a", NUMERIC), ("b", NUMERIC)), values.T, ["p", "q"])
        values[0, 0] = 9.0
        assert ds.columns[0].tolist() == [1.0, 3.0]
        with pytest.raises(ValueError):
            ds.columns[0][0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = "q"

    def test_unknown_kind_and_missing_label_rejected(self):
        with pytest.raises(ContractError):
            Dataset((("a", "ordinal"),), ([1.0],))
        with pytest.raises(ContractError):
            Dataset((("a", NUMERIC),), ([1.0, 2.0],), ["p", None])
        with pytest.raises(ContractError):
            Dataset((), ())

    def test_subset_by_mask_and_index(self):
        ds = make_dataset([("a", NUMERIC), ("c", CATEGORICAL)],
                          [(1.0, "x"), (2.0, "y"), (3.0, "z")], ["p", "q", "p"])
        by_mask = ds.subset(ds.labels == "p")
        assert by_mask.columns[1].tolist() == ["x", "z"]
        by_index = ds.subset([2, 0])
        assert by_index.columns[0].tolist() == [3.0, 1.0]
        assert by_index.labels.tolist() == ["p", "p"]
        assert ds.subset([]).n_rows == 0

    def test_numeric_matrix_requires_numeric(self):
        ds = make_dataset([("a", CATEGORICAL)], [("x",)])
        with pytest.raises(ContractError):
            numeric_matrix(ds)

    def test_numeric_matrix_values(self):
        ds = make_dataset([("a", NUMERIC), ("b", NUMERIC)], [(1, 2), (3, 4)])
        assert np.array_equal(numeric_matrix(ds), [[1.0, 2.0], [3.0, 4.0]])
