"""Shared dataset container, deterministic randomness, and CSV persistence.

Datasets are immutable after construction and safe for concurrent
read-only use. Every stochastic operation in the package takes an
explicit :class:`RandomSource`; nothing touches numpy's global RNG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable

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
    def integers(self, low: int, high: int, size=None):
        """One int in [low, high), or an array of ``size`` of them: the
        same stream as that many scalar calls."""
        if size is None:
            return int(self.generator.integers(low, high))
        return self.generator.integers(low, high, size)

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


@dataclass(frozen=True)
class Instance:
    """One feature vector with an optional label.

    Numeric values are stored as Python floats, categorical values as
    interned strings.
    """

    values: tuple
    label: object = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise ContractError("instance must have at least one value")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of instances with a shared schema.

    ``schema`` is a tuple of ``(attribute name, kind)`` pairs where kind
    is ``"numeric"`` or ``"categorical"``. If ``label_domain`` is given,
    every non-None row label must be a member of it.
    """

    schema: tuple
    rows: tuple
    label_domain: frozenset | None = None

    def __post_init__(self):
        schema = tuple((str(n), str(k)) for n, k in self.schema)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.label_domain is not None:
            object.__setattr__(self, "label_domain", frozenset(self.label_domain))
        for name, kind in schema:
            if kind not in KINDS:
                raise ContractError(f"unknown attribute kind {kind!r} for {name!r}")
        width = len(schema)
        for i, row in enumerate(self.rows):
            if not isinstance(row, Instance):
                raise ContractError(f"row {i} is not an Instance")
            if len(row.values) != width:
                raise ContractError(
                    f"row {i} has {len(row.values)} values, schema has {width}"
                )
            for (name, kind), v in zip(schema, row.values):
                if kind == NUMERIC and not isinstance(v, (int, float)):
                    raise ContractError(f"row {i}, attribute {name!r}: expected numeric, got {type(v).__name__}")
                if kind == CATEGORICAL and not isinstance(v, str):
                    raise ContractError(f"row {i}, attribute {name!r}: expected categorical, got {type(v).__name__}")
            if self.label_domain is not None and row.label is not None:
                if row.label not in self.label_domain:
                    raise ContractError(f"row {i} label {row.label!r} not in label domain")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    @property
    def fully_labeled(self) -> bool:
        return len(self.rows) > 0 and all(r.label is not None for r in self.rows)

    def labels(self) -> list:
        return [r.label for r in self.rows]

    def column(self, index: int) -> list:
        if not 0 <= index < len(self.schema):
            raise ContractError(f"attribute index {index} out of range")
        return [r.values[index] for r in self.rows]

    def attribute_kind(self, index: int) -> str:
        if not 0 <= index < len(self.schema):
            raise ContractError(f"attribute index {index} out of range")
        return self.schema[index][1]

    def subset(self, indices: Iterable[int]) -> "Dataset":
        rows = tuple(self.rows[i] for i in indices)
        return Dataset(self.schema, rows, self.label_domain)


def make_dataset(schema, values_rows, labels=None, label_domain=None) -> Dataset:
    """Build a Dataset from plain value sequences (convenience factory)."""
    if labels is None:
        labels = [None] * len(values_rows)
    if len(labels) != len(values_rows):
        raise ContractError("labels and rows must have equal length")
    norm_rows = []
    kinds = [k for _, k in schema]
    for vals, lab in zip(values_rows, labels):
        norm = tuple(
            float(v) if k == NUMERIC else str(v) for v, k in zip(vals, kinds)
        )
        norm_rows.append(Instance(norm, lab))
    if label_domain is None and any(l is not None for l in labels):
        label_domain = frozenset(l for l in labels if l is not None)
    return Dataset(tuple(schema), tuple(norm_rows), label_domain)


def numeric_matrix(ds: Dataset) -> np.ndarray:
    """All-numeric dataset as a (rows, attributes) float64 matrix."""
    for name, kind in ds.schema:
        if kind != NUMERIC:
            raise ContractError(f"attribute {name!r} is categorical; matrix view needs all-numeric data")
    return np.array([r.values for r in ds.rows], dtype=np.float64).reshape(ds.n_rows, ds.n_attributes)


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

    rows = []
    for i, row in enumerate(data, start=1):
        vals = []
        for j, kind in zip(keep, kinds):
            if kind == NUMERIC:
                v = _parse_numeric(row[j])
                if v is None:
                    raise StructuralError(f"{path}: row {i}, column {j}: {row[j]!r} is not numeric")
                if not math.isfinite(v):
                    raise StructuralError(f"{path}: row {i}, column {j}: {row[j]!r} is not finite")
                vals.append(v)
            else:
                vals.append(row[j])
        rows.append(Instance(tuple(vals), labels[i - 1] if labels is not None else None))
    label_domain = frozenset(labels) if labels is not None else None
    return Dataset(schema, tuple(rows), label_domain)


def save_dataset(ds: Dataset, path, include_header: bool = True) -> None:
    """Write a Dataset as CSV; floats use repr so values round-trip exactly.

    Row labels, when present, are appended as a final ``label`` column.
    """
    has_labels = any(r.label is not None for r in ds.rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if include_header:
            names = [n for n, _ in ds.schema]
            if has_labels:
                names.append("label")
            writer.writerow(names)
        for row in ds.rows:
            cells = [repr(v) if isinstance(v, float) else str(v) for v in row.values]
            if has_labels:
                cells.append("" if row.label is None else str(row.label))
            writer.writerow(cells)


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
