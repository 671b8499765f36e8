"""Attribute schemas, dataset ingestion, normalization, and discretization.

Datasets are declared by a plain-text schema (one attribute per line) plus a
headerless CSV table. Numerical cells must be finite reals; categorical cells
are resolved to 1-based indices into the attribute's declared possible
values. Missing cells are rejected outright rather than imputed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AttributeKind",
    "AttributeSchema",
    "DatasetSchema",
    "Dataset",
    "DistinctRows",
    "OrdinalView",
    "SchemaError",
    "DataError",
    "parse_schema",
    "ingest_table",
    "normalize_numerical",
    "discretize_numerical",
    "default_bin_count",
    "schema_to_text",
    "dataset_to_text",
    "infer_schema",
]


class SchemaError(ValueError):
    """A schema declaration is malformed."""


class DataError(ValueError):
    """A data table does not conform to its schema."""


class AttributeKind(enum.Enum):
    """Attribute taxonomy: numerical, or categorical (nominal / ordinal)."""

    NUMERICAL = "num"
    NOMINAL = "nom"
    ORDINAL = "ord"

    @property
    def is_categorical(self) -> bool:
        return self is not AttributeKind.NUMERICAL


def _freeze(a: np.ndarray) -> np.ndarray:
    """Contiguous read-only array for the package's immutable records."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AttributeSchema:
    """One attribute: a name, a kind, and (if categorical) its value labels.

    For ordinal attributes the order of ``possible_values`` is the semantic
    rank, lowest first. Numerical attributes carry no value list.
    """

    name: str
    kind: AttributeKind
    possible_values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind.is_categorical:
            if len(self.possible_values) < 2:
                raise SchemaError(
                    f"attribute {self.name!r}: categorical attributes need at "
                    f"least 2 possible values, got {len(self.possible_values)}"
                )
            if len(set(self.possible_values)) != len(self.possible_values):
                raise SchemaError(f"attribute {self.name!r}: duplicate value labels")
        elif self.possible_values:
            raise SchemaError(
                f"attribute {self.name!r}: numerical attributes take no value list"
            )

    @property
    def v(self) -> int:
        """Number of possible values (0 for numerical attributes)."""
        return len(self.possible_values)


@dataclass(frozen=True)
class DatasetSchema:
    """An ordered list of attribute declarations with unique names."""

    attributes: tuple[AttributeSchema, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise SchemaError("schema must declare at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute name(s): {', '.join(dupes)}")

    @property
    def d(self) -> int:
        return len(self.attributes)

    @property
    def d_u(self) -> int:
        return sum(a.kind is AttributeKind.NUMERICAL for a in self.attributes)

    @property
    def d_n(self) -> int:
        return sum(a.kind is AttributeKind.NOMINAL for a in self.attributes)

    @property
    def d_o(self) -> int:
        return sum(a.kind is AttributeKind.ORDINAL for a in self.attributes)

    @property
    def d_c(self) -> int:
        return self.d_n + self.d_o

    def numerical_indices(self) -> tuple[int, ...]:
        return tuple(
            r for r, a in enumerate(self.attributes) if not a.kind.is_categorical
        )

    def categorical_indices(self) -> tuple[int, ...]:
        return tuple(
            r for r, a in enumerate(self.attributes) if a.kind.is_categorical
        )


@dataclass(frozen=True)
class DistinctRows:
    """The distinct rows of a cell table.

    ``first[j]`` is the lowest index of the objects holding distinct row j
    and ``inverse[i]`` is the distinct row of object i, so
    ``cells[first][inverse]`` equals ``cells``.
    """

    first: np.ndarray
    inverse: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", _freeze(self.first))
        object.__setattr__(self, "inverse", _freeze(self.inverse))

    @property
    def u(self) -> int:
        return self.first.shape[0]


def _distinct_rows(cells: np.ndarray) -> DistinctRows:
    n, d = cells.shape
    # lexsort is stable, so each run of equal rows opens with its lowest
    # object index. Rows are compared column by column: no n x d sorted copy.
    order = np.lexsort(cells.T[::-1])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for c in range(d):
        col = cells[order, c]
        new[1:] |= col[1:] != col[:-1]
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return DistinctRows(order[new], inverse)


@dataclass(frozen=True)
class Dataset:
    """An n x d cell table bound to its schema.

    Numerical cells are stored as floats, categorical cells as 1-based value
    indices (kept in the same float table for uniform slicing). ``numeric_min``
    and ``numeric_max`` record the observed range per numerical attribute (NaN
    for categorical ones). Instances are immutable and safe to share across
    concurrently executing runs.
    """

    schema: DatasetSchema
    cells: np.ndarray
    numeric_min: np.ndarray
    numeric_max: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=float)
        if cells.ndim != 2 or cells.shape[1] != self.schema.d:
            raise DataError(
                f"cell table must be n x {self.schema.d}, got shape {cells.shape}"
            )
        object.__setattr__(self, "cells", _freeze(cells))
        object.__setattr__(
            self, "numeric_min", _freeze(np.asarray(self.numeric_min, dtype=float))
        )
        object.__setattr__(
            self, "numeric_max", _freeze(np.asarray(self.numeric_max, dtype=float))
        )

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def distinct(self) -> DistinctRows:
        """The distinct rows of ``cells``, found once per dataset."""
        return _distinct_rows(self.cells)


@dataclass(frozen=True)
class OrdinalView:
    """Discretized view of a dataset: every attribute as 1-based codes.

    Numerical attributes are binned into ``bin_counts[r]`` equal-width bins
    over [0, 1]; categorical attributes pass through as their value indices
    (``bin_counts[r]`` is then the attribute's value count).
    """

    schema: DatasetSchema
    bin_counts: tuple[int, ...]
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "bin_counts", tuple(self.bin_counts))


def parse_schema(schema_text: str) -> DatasetSchema:
    """Parse the one-attribute-per-line schema format.

    Each line reads ``name,kind[,value1|value2|...]`` with kind one of
    ``num``, ``nom``, ``ord``; for ``ord`` the listed order is the rank order.
    Lines starting with ``#`` and blank lines are skipped.
    """
    attrs: list[AttributeSchema] = []
    for lineno, raw in enumerate(schema_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) < 2 or len(parts) > 3:
            raise SchemaError(
                f"schema line {lineno}: expected 'name,kind[,value1|value2|...]'"
            )
        name, kind_tag = parts[0], parts[1]
        if not name:
            raise SchemaError(f"schema line {lineno}: empty attribute name")
        try:
            kind = AttributeKind(kind_tag)
        except ValueError:
            raise SchemaError(
                f"schema line {lineno}: unknown kind {kind_tag!r} "
                "(expected num, nom, or ord)"
            ) from None
        values: tuple[str, ...] = ()
        if len(parts) == 3 and parts[2]:
            values = tuple(v.strip() for v in parts[2].split("|"))
        try:
            attrs.append(AttributeSchema(name, kind, values))
        except SchemaError as exc:
            raise SchemaError(f"schema line {lineno}: {exc}") from None
    return DatasetSchema(tuple(attrs))


# Cells parsed per chunk: the tokens of one chunk are held at a time.
_CHUNK_CELLS = 1 << 15


def ingest_table(data_text: str, schema: DatasetSchema) -> Dataset:
    """Parse a headerless CSV table against ``schema``.

    Categorical labels are resolved to 1-based value indices; numerical
    tokens must parse to finite reals. Empty cells are treated as missing
    data and rejected. Fully blank lines are skipped, but rows are numbered
    by physical line. The first bad cell in row-major order is reported.
    """
    # An empty token is a missing cell even where "" is a declared label.
    lookups = [
        {label: float(i + 1) for i, label in enumerate(a.possible_values) if label}
        if a.kind.is_categorical
        else None
        for a in schema.attributes
    ]
    lines = data_text.splitlines()
    kept = np.flatnonzero(list(map(len, map(str.strip, lines))))
    cells = np.empty((kept.size, schema.d))
    step = max(1, _CHUNK_CELLS // schema.d)
    for start in range(0, kept.size, step):
        rows = kept[start : start + step].tolist()
        chunk = [lines[i] for i in rows]
        bad = _parse_chunk(chunk, schema, lookups, cells[start : start + len(rows)])
        if bad is not None:
            raise _row_error(rows[bad] + 1, chunk[bad], schema, lookups)
    return Dataset(schema, cells, *_observed_range(schema, cells))


def _parse_chunk(
    chunk: list[str],
    schema: DatasetSchema,
    lookups: list[dict[str, float] | None],
    out: np.ndarray,
) -> int | None:
    """Parse the rows of ``chunk`` column by column into ``out``; return the
    index of the first bad row, or None when every row is good."""
    d = schema.d
    commas = list(map(str.count, chunk, itertools.repeat(",")))
    first_bad = None
    if commas.count(d - 1) != len(commas):
        first_bad = next(i for i, m in enumerate(commas) if m != d - 1)
        chunk = chunk[:first_bad]
    if not chunk:
        return first_bad
    # Every row left has d tokens, so column c is every d-th token from c.
    tokens = ",".join(chunk).split(",")
    for c, (attr, lookup) in enumerate(zip(schema.attributes, lookups)):
        toks = tokens[c::d]
        vals = _parse_column(toks, lookup)
        if vals is not None:
            out[: len(chunk), c] = vals
            continue
        bad = next(
            i for i, tok in enumerate(toks) if _cell_error(tok.strip(), attr, lookup)
        )
        if first_bad is None or bad < first_bad:
            first_bad = bad
    return first_bad


def _parse_column(
    toks: list[str], lookup: dict[str, float] | None
) -> np.ndarray | None:
    """The cell values of one column, or None if any token is bad.

    Categorical tokens map through ``lookup``; numerical ones (``lookup`` is
    None) must parse to finite floats.
    """
    stripped = map(str.strip, toks)
    try:
        if lookup is not None:
            return np.fromiter(map(lookup.__getitem__, stripped), float, len(toks))
        if "_" not in "".join(toks):  # float() would accept 1_000
            vals = np.fromiter(map(float, stripped), float, len(toks))
            if np.isfinite(vals).all():
                return vals
    except (KeyError, ValueError):
        pass
    return None


def _cell_error(
    tok: str, attr: AttributeSchema, lookup: dict[str, float] | None
) -> str | None:
    """What is wrong with one stripped token, or None if it is a good cell."""
    if tok == "":
        return "missing value (empty cell)"
    if lookup is not None:
        if tok in lookup:
            return None
        return f"unknown value {tok!r}; legal values: {', '.join(attr.possible_values)}"
    try:
        if "_" in tok:  # float() would accept 1_000
            raise ValueError
        x = float(tok)
    except ValueError:
        return f"not a number: {tok!r}"
    return None if math.isfinite(x) else f"non-finite value {tok!r}"


def _row_error(
    rowno: int, raw: str, schema: DatasetSchema, lookups: list[dict[str, float] | None]
) -> DataError:
    """The error for the first bad cell of a row the column pass flagged."""
    tokens = [t.strip() for t in raw.split(",")]
    if len(tokens) != schema.d:
        return DataError(f"row {rowno}: expected {schema.d} columns, got {len(tokens)}")
    for tok, attr, lookup in zip(tokens, schema.attributes, lookups):
        problem = _cell_error(tok, attr, lookup)
        if problem is not None:
            return DataError(f"row {rowno}, column {attr.name!r}: {problem}")
    raise AssertionError(f"row {rowno}: the column pass flagged a good row")


def _observed_range(
    schema: DatasetSchema, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    lo = np.full(schema.d, np.nan)
    hi = np.full(schema.d, np.nan)
    if cells.shape[0]:
        for r in schema.numerical_indices():
            lo[r] = cells[:, r].min()
            hi[r] = cells[:, r].max()
    return lo, hi


def normalize_numerical(dataset: Dataset) -> Dataset:
    """Min-max scale every numerical attribute to [0, 1].

    Constant attributes map to all zeros (they contribute zero distance
    everywhere); categorical cells are untouched. Idempotent.
    """
    if dataset.n < 1:
        raise DataError("cannot normalize an empty dataset")
    cells = dataset.cells.copy()
    for r in dataset.schema.numerical_indices():
        col = cells[:, r]
        lo, hi = col.min(), col.max()
        cells[:, r] = 0.0 if hi == lo else (col - lo) / (hi - lo)
    return Dataset(dataset.schema, cells, *_observed_range(dataset.schema, cells))


def default_bin_count(n: int) -> int:
    """Equal-width bin count for a numerical attribute: clamp ceil(log2 n) to [2, 8]."""
    if n < 1:
        raise ValueError("bin count needs at least one object")
    return min(8, max(2, math.ceil(math.log2(n))))


def discretize_numerical(dataset: Dataset, bins: int | None = None) -> OrdinalView:
    """Bin normalized numerical attributes into equal-width ordinal codes.

    Bins are half-open over [0, 1) with the last bin closed at 1, so bin
    indices are monotone in the underlying value. ``bins`` overrides the
    default per-attribute bin count. Categorical attributes pass through
    unchanged as their value indices.
    """
    if bins is not None and bins < 2:
        raise ValueError("bins override must be at least 2")
    n, d = dataset.cells.shape
    codes = np.empty((n, d), dtype=np.int64)
    bin_counts: list[int] = []
    for r, attr in enumerate(dataset.schema.attributes):
        col = dataset.cells[:, r]
        if attr.kind.is_categorical:
            codes[:, r] = col.astype(np.int64)
            bin_counts.append(attr.v)
        else:
            if n and (col.min() < 0.0 or col.max() > 1.0):
                raise DataError(
                    f"attribute {attr.name!r}: discretization requires a "
                    "normalized dataset (values in [0, 1])"
                )
            b = bins if bins is not None else default_bin_count(max(n, 1))
            idx = np.floor(col * b).astype(np.int64) + 1
            np.clip(idx, 1, b, out=idx)
            codes[:, r] = idx
            bin_counts.append(b)
    return OrdinalView(dataset.schema, tuple(bin_counts), codes)


def schema_to_text(schema: DatasetSchema) -> str:
    """Serialize a schema back to the one-attribute-per-line format."""
    lines = []
    for a in schema.attributes:
        if a.kind.is_categorical:
            lines.append(f"{a.name},{a.kind.value},{'|'.join(a.possible_values)}")
        else:
            lines.append(f"{a.name},{a.kind.value}")
    return "\n".join(lines) + "\n"


def dataset_to_text(dataset: Dataset) -> str:
    """Serialize the cell table to headerless CSV.

    Categorical cells reproduce their labels exactly; numerical cells are
    written with 12 significant digits.
    """
    attrs = dataset.schema.attributes
    lines = []
    for row in dataset.cells:
        toks = []
        for c, attr in enumerate(attrs):
            if attr.kind.is_categorical:
                toks.append(attr.possible_values[int(row[c]) - 1])
            else:
                toks.append(format(row[c], ".12g"))
        lines.append(",".join(toks))
    return "\n".join(lines) + ("\n" if lines else "")


def infer_schema(data_text: str, names: list[str] | None = None) -> DatasetSchema:
    """Convenience heuristic: columns that parse as numbers in every row are
    numerical, everything else nominal with values in order of appearance.

    Never used in benchmark mode; benchmark datasets declare explicit schemas.
    """
    rows = [
        [t.strip() for t in raw.split(",")]
        for raw in data_text.splitlines()
        if raw.strip()
    ]
    if not rows:
        raise DataError("cannot infer a schema from an empty table")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise DataError("cannot infer a schema: rows have differing arity")
    attrs = []
    for c in range(d):
        name = names[c] if names else f"attr{c + 1}"
        column = [r[c] for r in rows]
        try:
            for tok in column:
                float(tok)
        except ValueError:
            seen: dict[str, None] = {}
            for tok in column:
                seen.setdefault(tok, None)
            attrs.append(AttributeSchema(name, AttributeKind.NOMINAL, tuple(seen)))
        else:
            attrs.append(AttributeSchema(name, AttributeKind.NUMERICAL))
    return DatasetSchema(tuple(attrs))
