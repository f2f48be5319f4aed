"""Shared dataset container, deterministic randomness, and CSV persistence.

A Dataset is columnar: one read-only array per attribute (float64 or
``str`` objects) plus an optional label array, validated whole at
construction, so it is immutable and safe for concurrent read-only use.
A Dataset keeps, without copying, each column or label array that is
already a read-only ndarray of its dtype and whose bases are read-only
too; it copies any other input.
Every stochastic operation in the package takes an explicit
:class:`RandomSource`; nothing touches numpy's global RNG.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
KINDS = (NUMERIC, CATEGORICAL)

# Binary training-set property labels: held (P) or not held (NotP).
P = "P"
NOT_P = "NotP"


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
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ContractError(f"seed: must be an integer (got {seed!r})")
        if not 0 <= seed <= _MASK64:
            raise ContractError(f"seed: must be in [0, 2**64 - 1] (got {seed!r})")
        self.seed = int(seed)
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


def property_counts(n: int) -> tuple:
    """P and NotP counts of n shadows or runs (none if n < 0): the first
    round_half_up(n / 2) carry P."""
    n_p = round_half_up(max(n, 0) / 2)
    return n_p, max(n, 0) - n_p


def property_labels(n: int) -> list:
    """Labels of n shadows or runs, P first, in their ``property_counts``."""
    n_p, n_notp = property_counts(n)
    return [P] * n_p + [NOT_P] * n_notp


def shadow_tasks(n_shadows: int, rng: RandomSource):
    """Iterator over the (with_property, source) of each of n_shadows
    shadows, in order.

    Shadow i carries the property when ``property_labels(n_shadows)[i]``
    is P and draws from ``rng.child(i)``. Every source is seeded
    independently, so shadows can be generated and trained in any order
    and in any process. A source is made only when the iterator reaches
    it, so a serial caller holds one generator (about 40 KB) at a time.
    """
    if n_shadows < 2:
        raise ContractError("need at least 2 shadows")
    return ((label == P, rng.child(i)) for i, label in enumerate(property_labels(n_shadows)))


def _adoptable(values, dtype) -> bool:
    """Whether ``values`` is a read-only ndarray of ``dtype`` whose bases
    are all read-only too, so a Dataset may keep it without a copy."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype):
        return False
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None


def _column(name: str, kind: str, values) -> np.ndarray:
    """One attribute's values as a read-only array, validated whole."""
    if kind not in KINDS:
        raise ContractError(f"unknown attribute kind {kind!r} for {name!r}")
    col = values
    if not _adoptable(col, object if kind == CATEGORICAL else np.float64):
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
    None for unlabeled data. A column given as a read-only float64
    (numeric) or object (categorical) ndarray, or labels given as a
    read-only object ndarray, whose bases are all read-only is kept as
    is; every other input is copied. ``subset`` gathers each column once.
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
            if not _adoptable(labels, object):
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
        picked = [None if a is None else a[rows] for a in (*self.columns, self.labels)]
        for a in picked:
            if a is not None:
                a.flags.writeable = False
        return Dataset(self.schema, picked[:-1], picked[-1])


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


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings untranslated; other bytes are
    a StructuralError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise StructuralError(f"{path}: not UTF-8 text ({e})") from None


def load_dataset(path, label_column: int | None = None) -> Dataset:
    """Load a comma-separated UTF-8 file with a header line into a Dataset.

    Column kinds are inferred: numeric iff every cell parses as a
    decimal real, categorical otherwise. ``label_column`` names the
    0-based column (counted before removal) whose cells become row
    labels rather than attribute values. A numeric cell that parses as
    a non-finite float (``nan``, ``inf``, ``1e999``) is a StructuralError.
    """
    raw = list(csv.reader(io.StringIO(read_text(path), newline="")))
    if not raw:
        raise StructuralError(f"{path}: empty file")
    header, data = raw[0], raw[1:]
    width = len(header)
    for i, row in enumerate(data, start=1):
        if len(row) != width:
            raise StructuralError(f"{path}: ragged row at row {i} ({len(row)} cells, expected {width})")
    if label_column is not None and not 0 <= label_column < width:
        raise ContractError(f"label column {label_column} out of range for width {width}")

    keep = [j for j in range(width) if j != label_column]
    labels = None
    if label_column is not None:
        labels = [row[label_column] for row in data]

    schema, columns = [], []
    for j in keep:
        cells = [row[j] for row in data]
        values = [_parse_numeric(c) for c in cells]
        if not cells or None in values:
            schema.append((header[j], CATEGORICAL))
            columns.append(cells)
            continue
        for i, v in enumerate(values, start=1):
            if not math.isfinite(v):
                raise StructuralError(f"{path}: row {i}, column {j}: {cells[i - 1]!r} is not finite")
        schema.append((header[j], NUMERIC))
        columns.append(values)
    return Dataset(schema, columns, labels)


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV with a header line; floats use repr so values
    round-trip exactly.

    Row labels, when present, are appended as a final ``label`` column.
    """
    cells = [[repr(v) for v in col.tolist()] if kind == NUMERIC else col.tolist()
             for (_, kind), col in zip(ds.schema, ds.columns)]
    if ds.labels is not None:
        cells.append([str(l) for l in ds.labels.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        names = [n for n, _ in ds.schema]
        if ds.labels is not None:
            names.append("label")
        writer.writerow(names)
        writer.writerows(zip(*cells))
