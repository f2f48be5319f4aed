"""Shared dataset container, deterministic randomness, and CSV persistence.

A Dataset is columnar: one read-only array per attribute (float64 or
``str`` objects) plus an optional label array, validated whole at
construction, so it is immutable and safe for concurrent read-only use.
Every stochastic operation in the package takes an explicit
:class:`RandomSource`; nothing touches numpy's global RNG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
KINDS = (NUMERIC, CATEGORICAL)


class ShadowprobeError(Exception):
    """Base class for errors raised by this package."""


class ContractError(ShadowprobeError):
    """A caller violated a documented precondition."""


class DomainError(ShadowprobeError):
    """An input is outside the mathematical domain of an operation."""


class StructuralError(ShadowprobeError):
    """A file or payload is malformed (ragged rows, truncation, ...)."""


class InfeasiblePathError(ShadowprobeError):
    """No feasible state path exists for a sequence under an HMM topology."""


class FormatError(ShadowprobeError):
    """A serialized artifact has an unknown kind or format version."""


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One SplitMix64 mixing step (used to derive child seeds)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomSource:
    """Deterministic random source: numpy PCG64 seeded explicitly.

    The generator algorithm is pinned (PCG64, seeded directly with the
    64-bit seed) so an identical seed yields an identical draw sequence
    on a given build. A RandomSource is single-owner: callers that need
    parallel draws derive independently seeded children with
    :meth:`child` instead of sharing one instance.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed <= _MASK64:
            raise ContractError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.generator = np.random.Generator(np.random.PCG64(seed))

    def child(self, key: int) -> "RandomSource":
        """Independent stream keyed by an integer; derivation is SplitMix64."""
        return RandomSource(_splitmix64(self.seed ^ _splitmix64((int(key) + 1) & _MASK64)))

    # Thin passthroughs so call sites stay short.
    def integers(self, low: int, high: int) -> int:
        """One int in [low, high)."""
        return int(self.generator.integers(low, high))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self.generator.choice(n, size=size, replace=replace)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def round_half_up(x: float) -> int:
    """Deterministic rounding used for split sizes: halves round up."""
    return int(math.floor(x + 0.5))


def _column(name: str, kind: str, values) -> np.ndarray:
    """One attribute's values as a read-only array, validated whole."""
    if kind not in KINDS:
        raise ContractError(f"unknown attribute kind {kind!r} for {name!r}")
    col = np.array(values, dtype=object if kind == CATEGORICAL else None)
    if col.ndim != 1:
        raise ContractError(f"attribute {name!r}: values must form one column")
    if kind == NUMERIC:
        if col.dtype.kind not in "iuf":
            raise ContractError(f"attribute {name!r}: expected numeric values, got {col.dtype}")
        col = col.astype(np.float64, copy=False)
        bad = np.flatnonzero(~np.isfinite(col))
        what = "non-finite value"
    else:
        bad = [i for i, v in enumerate(col.tolist()) if not isinstance(v, str)]
        what = "not a str:"
    if len(bad):
        raise ContractError(f"attribute {name!r}, row {bad[0]}: {what} {col.tolist()[bad[0]]!r}")
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of attribute values under a shared schema, stored column-wise.

    ``schema`` is a tuple of ``(attribute name, kind)`` pairs where kind
    is ``"numeric"`` or ``"categorical"``. ``columns`` holds one
    read-only array per attribute: finite float64 for a numeric
    attribute, an object array of ``str`` for a categorical one.
    ``labels`` is a read-only object array with one label per row, or
    None for unlabeled data.
    """

    schema: tuple
    columns: tuple
    labels: np.ndarray | None = None

    def __post_init__(self):
        schema = tuple((str(n), str(k)) for n, k in self.schema)
        if not schema:
            raise ContractError("a dataset needs at least one attribute")
        if len(self.columns) != len(schema):
            raise ContractError(f"{len(self.columns)} columns for {len(schema)} attributes")
        columns = tuple(_column(n, k, c) for (n, k), c in zip(schema, self.columns))
        n_rows = len(columns[0])
        for (name, _), col in zip(schema, columns):
            if len(col) != n_rows:
                raise ContractError(f"attribute {name!r} has {len(col)} rows, "
                                    f"{schema[0][0]!r} has {n_rows}")
        labels = self.labels
        if labels is not None:
            labels = np.array(labels, dtype=object)
            if labels.shape != (n_rows,):
                raise ContractError(f"{labels.size} labels for {n_rows} rows")
            if np.equal(labels, None).any():
                raise ContractError("a label is None; give every row a label or pass labels=None")
            labels.flags.writeable = False
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def fully_labeled(self) -> bool:
        return self.labels is not None and self.n_rows > 0

    def attribute_kind(self, index: int) -> str:
        if not 0 <= index < len(self.schema):
            raise ContractError(f"attribute index {index} out of range")
        return self.schema[index][1]

    def subset(self, rows) -> "Dataset":
        """The rows picked by an index sequence or a boolean mask, in order."""
        rows = np.asarray(rows)
        if rows.dtype != bool:
            rows = rows.astype(np.intp)
        labels = None if self.labels is None else self.labels[rows]
        return Dataset(self.schema, [c[rows] for c in self.columns], labels)


def make_dataset(schema, values_rows, labels=None) -> Dataset:
    """Build a Dataset from rows of values (convenience factory).

    Numeric cells go through ``float`` and categorical cells through ``str``.
    """
    schema = tuple(schema)
    rows = [tuple(r) for r in values_rows]
    for i, r in enumerate(rows):
        if len(r) != len(schema):
            raise ContractError(f"row {i} has {len(r)} values, schema has {len(schema)}")
    columns = [[float(r[j]) if kind == NUMERIC else str(r[j]) for r in rows]
               for j, (_, kind) in enumerate(schema)]
    return Dataset(schema, columns, labels)


def numeric_matrix(ds: Dataset) -> np.ndarray:
    """All-numeric dataset as a (rows, attributes) float64 matrix."""
    for name, kind in ds.schema:
        if kind != NUMERIC:
            raise ContractError(f"attribute {name!r} is categorical; matrix view needs all-numeric data")
    return np.stack(ds.columns, axis=1)


def _parse_numeric(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def load_dataset(path, has_header: bool = True, label_column: int | None = None,
                 schema=None) -> Dataset:
    """Load a comma-separated UTF-8 file into a Dataset.

    Column kinds are inferred (numeric iff every cell parses as a
    decimal real, categorical otherwise) unless an explicit ``schema``
    is supplied, which wins over inference. ``label_column`` names the
    0-based column (counted before removal) whose cells become row
    labels rather than attribute values. A numeric cell that parses as
    a non-finite float (``nan``, ``inf``, ``1e999``) is a StructuralError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise StructuralError(f"{path}: empty file")
    header = None
    if has_header:
        header = raw[0]
        data = raw[1:]
    else:
        data = raw
    width = len(header) if header is not None else len(data[0])
    for i, row in enumerate(data, start=1):
        if len(row) != width:
            raise StructuralError(f"{path}: ragged row at row {i} ({len(row)} cells, expected {width})")
    if label_column is not None and not 0 <= label_column < width:
        raise ContractError(f"label column {label_column} out of range for width {width}")

    keep = [j for j in range(width) if j != label_column]
    labels = None
    if label_column is not None:
        labels = [row[label_column] for row in data]

    if schema is not None:
        schema = tuple((str(n), str(k)) for n, k in schema)
        if len(schema) != len(keep):
            raise ContractError(
                f"explicit schema has {len(schema)} attributes, file provides {len(keep)}"
            )
        kinds = [k for _, k in schema]
    else:
        kinds = []
        for j in keep:
            cells = [row[j] for row in data]
            is_num = len(cells) > 0 and all(_parse_numeric(c) is not None for c in cells)
            kinds.append(NUMERIC if is_num else CATEGORICAL)
        if header is not None:
            names = [header[j] for j in keep]
        else:
            names = [f"col{j}" for j in keep]
        schema = tuple(zip(names, kinds))

    columns = []
    for j, kind in zip(keep, kinds):
        cells = [row[j] for row in data]
        if kind == NUMERIC:
            values = [_parse_numeric(c) for c in cells]
            for i, v in enumerate(values, start=1):
                if v is None:
                    raise StructuralError(f"{path}: row {i}, column {j}: {cells[i - 1]!r} is not numeric")
                if not math.isfinite(v):
                    raise StructuralError(f"{path}: row {i}, column {j}: {cells[i - 1]!r} is not finite")
            columns.append(values)
        else:
            columns.append(cells)
    return Dataset(schema, columns, labels)


def save_dataset(ds: Dataset, path, include_header: bool = True) -> None:
    """Write a Dataset as CSV; floats use repr so values round-trip exactly.

    Row labels, when present, are appended as a final ``label`` column.
    """
    cells = [[repr(v) for v in col.tolist()] if kind == NUMERIC else col.tolist()
             for (_, kind), col in zip(ds.schema, ds.columns)]
    if ds.labels is not None:
        cells.append([str(l) for l in ds.labels.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if include_header:
            names = [n for n, _ in ds.schema]
            if ds.labels is not None:
                names.append("label")
            writer.writerow(names)
        writer.writerows(zip(*cells))


def split_dataset(ds: Dataset, fraction: float, rng: RandomSource) -> tuple[Dataset, Dataset]:
    """Disjoint random partition; the first part gets round(fraction * n) rows.

    Rounding is half-up. The shuffle is driven solely by ``rng``, so the
    same seed always produces the same split.
    """
    if ds.n_rows == 0:
        raise ContractError("cannot split an empty dataset")
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must be in (0, 1), got {fraction}")
    n1 = round_half_up(fraction * ds.n_rows)
    perm = rng.permutation(ds.n_rows)
    return ds.subset(perm[:n1]), ds.subset(perm[n1:])
