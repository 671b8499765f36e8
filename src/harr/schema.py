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
import os
import threading
from dataclasses import dataclass, fields
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
    a = np.asarray(a, order="C")
    a.flags.writeable = False
    return a


def _frozen(a, dtype=None) -> np.ndarray:
    """``a`` as a contiguous read-only array of ``dtype`` (if given); a
    writeable one is copied first, so a record never shares memory that its
    caller can still change."""
    a = np.asarray(a, dtype)
    return a if not a.flags.writeable and a.flags.c_contiguous else _freeze(a.copy())


def _label_array(x, k: int | None = None) -> np.ndarray:
    """The one label rule: labels as a frozen one-dimensional int64 array,
    each at least 1 and, when ``k`` is given, at most k. Every fault is a
    ValueError: a non-integral label raises rather than being truncated, and
    a label beyond int64 is out of bounds."""
    arr = np.asarray(x)
    if arr.dtype.kind == "f" and not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
        raise ValueError("labels must be integers")
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    bounds = "be positive integers (1-based)" if k is None else f"lie in [1, {k}]"
    try:
        labels = _frozen(arr, np.int64)
    except OverflowError:
        raise ValueError(f"labels must {bounds}") from None
    if labels.size and (labels.min() < 1 or (k is not None and labels.max() > k)):
        raise ValueError(f"labels must {bounds}")
    return labels


def _same(a, b) -> bool:
    """Arrays are equal by shape and value, tuples item by item."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b)
    return a == b


class _Record:
    """Base of every frozen dataclass that holds arrays, declared with
    ``eq=False``: records of one type are equal when every compared field
    is (``_same``), and unhashable. Arrays come in through ``_frozen``."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        compared = [f.name for f in fields(self) if f.compare]
        return all(_same(getattr(self, n), getattr(other, n)) for n in compared)

    __hash__ = None


def _read_text(path: str) -> str:
    """The text of a file harr reads: UTF-8 after one optional byte order
    mark, with ``\\r\\n`` and ``\\r`` line ends read as ``\\n``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> str:
    """Write ``text`` as UTF-8, creating the parent directory if needed."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


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


@dataclass(frozen=True, eq=False)
class DistinctRows(_Record):
    """The distinct rows of a cell table.

    ``first[j]`` is the lowest index of the objects holding distinct row j
    and ``inverse[i]`` is the distinct row of object i, so
    ``cells[first][inverse]`` equals ``cells``. ``sub[j]`` numbers distinct
    row j's categorical sub-row, its categorical cells: two distinct rows
    share a number exactly when those cells are equal, and the numbers never
    decrease over the distinct rows.
    """

    first: np.ndarray
    inverse: np.ndarray
    sub: np.ndarray

    def __post_init__(self) -> None:
        for name in ("first", "inverse", "sub"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def u(self) -> int:
        return self.first.shape[0]


def _run_starts(columns, order: np.ndarray) -> np.ndarray:
    """Where the rows listed in ``order`` open a run of equal cells in every
    one of ``columns``. Rows are compared column by column: no sorted copy
    of the table."""
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for col in columns:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    return new


def _packed_keys(cells: np.ndarray, schema: DatasetSchema) -> list[np.ndarray]:
    """The categorical columns packed into int64 keys, consecutive columns
    per key in radix v+1 while the product of the radices stays below 2**63.
    Codes lie in 1..v, so the keys order rows as their columns do."""
    keys: list[np.ndarray] = []
    span = 1  # the radix product of the last key's columns
    for c in schema.categorical_indices():
        radix = schema.attributes[c].v + 1
        col = cells[:, c].astype(np.int64)
        if keys and span * radix < 2**63:
            keys[-1] *= radix
            keys[-1] += col
            span *= radix
        else:
            keys.append(col)
            span = radix
    return keys


def _distinct_rows(cells: np.ndarray, schema: DatasetSchema) -> DistinctRows:
    keys = _packed_keys(cells, schema)
    numerical = [cells[:, c] for c in schema.numerical_indices()]
    # The categorical keys are the primary ones, so each categorical sub-row
    # is one run of distinct rows, opening wherever a key changes. lexsort is
    # stable, so each run of equal rows opens with its lowest object index.
    order = np.lexsort([*keys, *numerical][::-1])
    new_sub = _run_starts(keys, order)
    new = new_sub | _run_starts(numerical, order)
    inverse = np.empty(order.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    sub = np.cumsum(new_sub)[new] - 1
    return DistinctRows(_freeze(order[new]), _freeze(inverse), _freeze(sub))


@dataclass(frozen=True, eq=False)
class Dataset(_Record):
    """An n x d cell table bound to its schema.

    Numerical cells are stored as floats, categorical cells as 1-based value
    indices (kept in the same float table for uniform slicing). Every cell
    is checked here: a numerical cell must be finite and a categorical one an
    integer in 1..v. A writeable table is copied, so instances are immutable
    and safe to share across concurrently executing runs. ``numeric_min``
    and ``numeric_max``, the observed range per attribute, are derived from
    the cells on first use: NaN for categorical attributes and for an empty
    table. Parts that other layers derive from the dataset alone are kept
    on it too (``_part``).
    """

    schema: DatasetSchema
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = _frozen(self.cells, float)
        if cells.ndim != 2 or cells.shape[1] != self.schema.d:
            raise DataError(
                f"cell table must be n x {self.schema.d}, got shape {cells.shape}"
            )
        for r, attr in enumerate(self.schema.attributes):
            # one strided pass, then contiguous ones
            col = np.ascontiguousarray(cells[:, r])
            if not attr.kind.is_categorical:
                if not np.isfinite(col).all():
                    raise DataError(f"column {attr.name!r}: numerical cells must be finite")
            elif not ((col >= 1) & (col <= attr.v) & (col == np.trunc(col))).all():
                raise DataError(
                    f"column {attr.name!r}: categorical cells must be value "
                    f"indices in 1..{attr.v}"
                )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_parts", {})
        object.__setattr__(self, "_lock", threading.RLock())

    def _part(self, key, build):
        """The dataset's one copy of a part derived from it alone: ``build()``
        runs on first use, under the dataset's lock, so threads that ask at
        once share one build, and the part lives as long as the dataset."""
        with self._lock:
            if key not in self._parts:
                self._parts[key] = build()
            return self._parts[key]

    def _numeric_extreme(self, reduce) -> np.ndarray:
        out = np.full(self.schema.d, np.nan)
        if self.n:
            for r in self.schema.numerical_indices():
                out[r] = reduce(self.cells[:, r])
        return _freeze(out)

    @cached_property
    def numeric_min(self) -> np.ndarray:
        return self._numeric_extreme(np.min)

    @cached_property
    def numeric_max(self) -> np.ndarray:
        return self._numeric_extreme(np.max)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def distinct(self) -> DistinctRows:
        """The distinct rows of ``cells``, found once per dataset."""
        return _distinct_rows(self.cells, self.schema)


@dataclass(frozen=True, eq=False)
class OrdinalView(_Record):
    """Discretized view of a dataset: every attribute as 1-based codes.

    Numerical attributes are binned into ``bin_counts[r]`` equal-width bins
    over [0, 1]; categorical attributes pass through as their value indices
    (``bin_counts[r]`` is then the attribute's value count).
    """

    schema: DatasetSchema
    bin_counts: tuple[int, ...]
    codes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _frozen(self.codes, np.int64))
        object.__setattr__(self, "bin_counts", tuple(self.bin_counts))


def parse_schema(schema_text: str) -> DatasetSchema:
    """Parse the one-attribute-per-line schema format.

    Each line reads ``name,kind[,value1|value2|...]`` with kind one of
    ``num``, ``nom``, ``ord``; for ``ord`` the listed order is the rank order.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Lines starting with ``#``
    and blank lines are skipped.
    """
    attrs: list[AttributeSchema] = []
    for lineno, raw in enumerate(_physical_lines(schema_text), start=1):
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


# Cells per chunk of lines: the tokens of one chunk are held at a time.
_CHUNK_CELLS = 1 << 15


def ingest_table(data_text: str, schema: DatasetSchema) -> Dataset:
    """Parse a headerless CSV table against ``schema``.

    Categorical labels are resolved to 1-based value indices; numerical
    tokens must parse to finite reals. Empty cells are treated as missing
    data and rejected. Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as
    ``open()`` reads them. Fully blank lines are skipped, but rows are
    numbered by physical line. The first bad cell in row-major order is
    reported. The lines are read in chunks, and each distinct line of a
    chunk is parsed once.
    """
    # An empty token is a missing cell even where "" is a declared label.
    lookups = [
        {label: float(i + 1) for i, label in enumerate(a.possible_values) if label}
        if a.kind.is_categorical
        else None
        for a in schema.attributes
    ]
    lines = _physical_lines(data_text)
    cells = np.empty((len(lines), schema.d))
    n = 0  # rows written
    step = max(1, _CHUNK_CELLS // schema.d)
    for start in range(0, len(lines), step):
        chunk = lines[start : start + step]
        # Each distinct line maps to its row of ``parsed``; a blank one to -1.
        ids = dict.fromkeys(chunk, -1)
        good = list(filter(str.strip, ids))
        ids.update(zip(good, itertools.count()))
        parsed = np.empty((len(good), schema.d))
        if good and not _parse_chunk(good, lookups, parsed):
            errors = (
                _row_error(rowno, raw, schema, lookups)
                for rowno, raw in enumerate(chunk, start + 1)
                if raw.strip()
            )
            raise next(filter(None, errors))
        rows = np.fromiter(map(ids.__getitem__, chunk), np.intp, len(chunk))
        rows = rows[rows >= 0]
        np.take(parsed, rows, axis=0, out=cells[n : n + rows.size])
        n += rows.size
    if n < len(lines):  # free the rows left for skipped blank lines
        cells = cells[:n].copy()
    return Dataset(schema, _freeze(cells))


def _physical_lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r`` only, unlike
    ``str.splitlines``; a line end that closes the text opens no line."""
    if "\r" in text:  # a search for "\r\n" costs far more than one for "\r"
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _parse_chunk(
    chunk: list[str], lookups: list[dict[str, float] | None], out: np.ndarray
) -> bool:
    """Parse ``chunk`` column by column into ``out``; return whether it parsed."""
    d = len(lookups)
    commas = list(map(str.count, chunk, itertools.repeat(",")))
    if commas.count(d - 1) != len(commas):
        return False
    # Every row has d tokens, so column c is every d-th token from c.
    tokens = ",".join(chunk).split(",")
    for c, lookup in enumerate(lookups):
        vals = _parse_column(tokens[c::d], lookup)
        if vals is None:
            return False
        out[:, c] = vals
    return True


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
) -> DataError | None:
    """The error for the first bad cell of a row, or None for a good row."""
    tokens = [t.strip() for t in raw.split(",")]
    if len(tokens) != schema.d:
        return DataError(f"row {rowno}: expected {schema.d} columns, got {len(tokens)}")
    for tok, attr, lookup in zip(tokens, schema.attributes, lookups):
        problem = _cell_error(tok, attr, lookup)
        if problem is not None:
            return DataError(f"row {rowno}, column {attr.name!r}: {problem}")
    return None


def normalize_numerical(dataset: Dataset) -> Dataset:
    """Min-max scale every numerical attribute to [0, 1].

    Constant attributes map to all zeros (they contribute zero distance
    everywhere); categorical cells are untouched. Idempotent. A range wider
    than the largest float is scaled in halves, so every cell stays finite.
    """
    if dataset.n < 1:
        raise DataError("cannot normalize an empty dataset")
    cells = dataset.cells.copy()
    lo, hi = dataset.numeric_min.tolist(), dataset.numeric_max.tolist()
    for r in dataset.schema.numerical_indices():
        # Halving is exact for normal floats but drops a subnormal's last
        # bit, so a range that fits is scaled by 1.0, which is exact.
        half = 0.5 if math.isinf(hi[r] - lo[r]) else 1.0
        a, b = lo[r] * half, hi[r] * half
        cells[:, r] = 0.0 if a == b else (cells[:, r] * half - a) / (b - a)
    return Dataset(dataset.schema, _freeze(cells))


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
    return OrdinalView(dataset.schema, tuple(bin_counts), _freeze(codes))


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
