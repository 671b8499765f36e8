"""Clustering engine: weight-learning variants and classical baselines.

Every variant runs through one loop of epochs (``run_prepared``). Within
an epoch the weights are fixed: objects are assigned to their nearest
prototype under the variant's dissimilarity and prototypes are refit, until
an assignment repeats the previous partition (Q') or ``inner_cap``
assignments were made. HARR-V and HARR-M then refresh their attribute
weights from the ratio of inter- to intra-cluster average distance per
attribute and start the next epoch, until an epoch ends on the partition of
the last refresh (Q'') or ``outer_cap`` refreshes were made. HAR and the
baselines run a single epoch.

The score and refit steps come from the variant's model. Identical rows
score alike, so a model scores each distinct row of the dataset once; the
partition stays per object, and objects read their scores through the row
index that the dataset's shared columns hold (``_columns``). The
categorical part of a score depends only on the row's categorical cells, so
it is summed once per categorical sub-row and the numerical part is added
per distinct row. The column model keeps prototypes in the original
attribute space and refits them as per-cluster means (numerical attributes)
and modal values (categorical attributes); OHE+OC's point model, built from
the same parts, scores encoded points by squared Euclidean distance and
refits them as member means.

Variants:

==========  =================================================================
HARR-V      reconstructed sub-attributes, one learned weight per attribute
HARR-M      reconstructed sub-attributes, learned per-cluster weight rows
HAR         reconstructed sub-attributes, frozen uniform weights
BD          raw base distances replace 0/1 mismatch (no projection, no weights)
KMD         0/1 mismatch on categorical attributes (pure categorical data)
KPT         |x - m| on numerical plus 0/1 mismatch on categorical attributes
OHE+OC      k-means on one-hot nominal + rank-coded ordinal + numerical
==========  =================================================================
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .base_distance import BaseDistanceTable, build_base_distances
from .projection import ReconstructedSpace, reconstruct
from .schema import (
    AttributeKind,
    Dataset,
    DatasetSchema,
    _freeze,
    _frozen,
    _label_array,
    _Record,
    discretize_numerical,
)

__all__ = [
    "VARIANTS",
    "ConfigError",
    "RunConfig",
    "Partition",
    "Prototypes",
    "WeightVector",
    "WeightMatrix",
    "RunReport",
    "Prepared",
    "prepare",
    "run",
    "run_prepared",
    "assign",
    "update_prototypes",
    "update_weight_vector",
    "update_weight_matrix",
    "normalize_importances",
]

VARIANTS = ("HARR-V", "HARR-M", "HAR", "BD", "KMD", "KPT", "OHE+OC")

MONOTONE_TOLERANCE = 1e-9

# Added to each intra-cluster average distance before the weight refresh
# divides by it: a perfectly compact attribute legitimately averages zero.
EPSILON = 1e-12


class ConfigError(ValueError):
    """An invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single clustering run.

    ``inner_cap`` bounds assignment/refit rounds per weight epoch and
    ``outer_cap`` bounds weight refreshes. HARR itself takes no parameter:
    bin counts follow from n (``default_bin_count``) and the weight refresh
    guards its division with the constant ``EPSILON``.
    """

    k: int
    seed: int = 0
    variant: str = "HARR-M"
    inner_cap: int = 100
    outer_cap: int = 50

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.k < 2:
            raise ConfigError(
                "k must be at least 2 (weight learning is undefined for a "
                "single cluster)"
            )
        if self.inner_cap < 1 or self.outer_cap < 1:
            raise ConfigError("iteration caps must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Partition(_Record):
    """Crisp cluster labels in [1, k], one per object, as a frozen int64
    array."""

    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _label_array(self.labels, self.k))

    def to_zero_based(self) -> np.ndarray:
        return self.labels - 1


@dataclass(frozen=True, eq=False)
class Prototypes(_Record):
    """Per-cluster representatives in the original attribute space: means
    for numerical attributes, modal value indices for categorical ones."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values, float))

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class WeightVector(_Record):
    """Non-negative attribute weights summing to 1."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen(self.w, float)
        if w.ndim != 1:
            raise ValueError(f"a weight vector must be 1-D; got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class WeightMatrix(_Record):
    """One weight row per cluster, each on the simplex."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen(self.w, float)
        if w.ndim != 2:
            raise ValueError(f"a weight matrix must be 2-D; got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("every weight must be finite")
        if (w < 0).any() or (np.abs(w.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("every weight row must be non-negative and sum to 1")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class RunReport(_Record):
    """Everything produced by one seeded clustering run.

    Labels (in [1, k]) and weights are frozen arrays: ``weights`` holds one
    row of d_hat weights, ``weight_matrix`` one such row per cluster. The
    three traces hold one entry per assignment, plus a fixed-point entry for
    a converged run, so they have one length, at least 1. The run's counts
    and its monotonicity are properties derived from the traces, so no
    record can disagree with them. ``weights_s`` is the run's wall-clock
    time in weight refreshes and ``cluster_s`` the rest of its loop;
    neither takes part in equality.
    """

    variant: str
    k: int
    seed: int
    labels: np.ndarray
    weights: np.ndarray | None
    weight_matrix: np.ndarray | None
    trace_z: tuple[float, ...]
    trace_weights_updated: tuple[bool, ...]
    trace_reseeded: tuple[bool, ...]
    converged: bool
    ari: float | None = None
    ca: float | None = None
    cluster_s: float = field(default=0.0, compare=False)
    weights_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _label_array(self.labels, self.k))
        traces = self.trace_z, self.trace_weights_updated, self.trace_reseeded
        if len(set(map(len, traces))) > 1:
            raise ValueError(
                "trace_z, trace_weights_updated and trace_reseeded must have one "
                f"length, got {', '.join(str(len(t)) for t in traces)}"
            )
        if not self.trace_z:
            raise ValueError("the traces are empty, but every run makes an assignment")
        if self.weights is not None and self.weight_matrix is not None:
            raise ValueError("a run has a weight vector or a weight matrix, not both")
        for name, ndim in (("weights", 1), ("weight_matrix", 2)):
            w = getattr(self, name)
            if w is not None:
                w = _frozen(w, np.float64)
                if w.ndim != ndim or not np.isfinite(w).all():
                    raise ValueError(f"{name} must be {ndim}-dimensional and finite")
                object.__setattr__(self, name, w)

    @property
    def inner_iterations(self) -> int:
        """Assignments made: every trace entry but a converged run's last."""
        return len(self.trace_z) - self.converged

    @property
    def weight_updates(self) -> int:
        return sum(self.trace_weights_updated)

    @property
    def max_inner_increase(self) -> float:
        """The largest rise of the objective between consecutive assignments
        of one fixed-weight epoch, or 0.0; a pair that an empty-cluster
        re-seed interrupts is skipped."""
        z, updated, reseeded = self.trace_z, self.trace_weights_updated, self.trace_reseeded
        increase = 0.0
        for i in range(1, self.inner_iterations):
            if not (updated[i] or reseeded[i] or reseeded[i - 1]):
                increase = max(increase, z[i] - z[i - 1])
        return increase

    @property
    def inner_monotone(self) -> bool:
        return self.max_inner_increase <= MONOTONE_TOLERANCE


# ---------------------------------------------------------------------------
# Models. Each supplies the run loop's score and refit steps. Identical rows
# score alike, so scores are k x u, one contiguous row per cluster, with one
# column per distinct row that ``inverse`` reads per object. The partition,
# the re-seeds, the objective sum, the refits and the weight statistics stay
# per object. A score is its categorical part, summed at the s categorical
# sub-rows and repeated over each sub-row's run of distinct rows, plus its
# numerical gaps, added in attribute order. Every variant has one column
# layout (``_model``): the numerical columns first, in attribute order, then
# one contiguous group per categorical attribute, whose form (coordinates or
# a value-by-value table) is the variant's. The column model holds every
# variant's columns; OHE+OC's point model reads the same parts with its own
# geometry. Categorical distances depend only on the value index, so
# scoring gathers one (weighted) per-value total per source attribute.
# Within a fixed-weight epoch a total depends only on the prototype's value
# (and a weight matrix's row), so a run memoizes the (v,) totals per epoch.
# Each run builds every (gamma, v) distance block in one flat buffer of its
# own (``_block_buffer``) and never writes weights into it: a weighted total
# is one einsum pass that adds the weighted rows in row order, as weighting
# the block and then summing it would. A refit and a weight refresh group
# the partition's members once per step (``_Members``).


@dataclass(frozen=True, eq=False)
class _NumericCol(_Record):
    col: int  # column index; the numerical columns come first, in attribute order
    source: int  # original attribute index
    values: np.ndarray  # n, per object
    distinct: np.ndarray  # u, at the distinct rows (scores only)


@dataclass(frozen=True, eq=False)
class _CatGroup(_Record):
    """The contiguous columns of one source categorical attribute.

    Projected sub-attributes keep their line coordinates, and a value
    distance is a coordinate gap; OHE+OC keeps its encoded columns there
    (``_PointModel``). A one-column group whose distances are not
    coordinate gaps (BD base distances, 0/1 mismatch, the Hamming fallback)
    keeps a value-by-value table instead. ``sub`` and ``value_counts`` are
    the dataset's, shared by every variant's group of the attribute.
    """

    source: int
    cols: np.ndarray  # ascending column indices, after the numerical columns
    sub: np.ndarray  # s, 0-based value codes at the categorical sub-rows
    value_counts: np.ndarray  # (v,) occurrences over the whole dataset
    coords: np.ndarray | None = None  # (len(cols), v) line coordinates
    table: np.ndarray | None = None  # (v, v) distances of the only column

    def per_value(self, p: int, out: np.ndarray) -> np.ndarray:
        """(len(cols), v) distances to 0-based value ``p``, a view of ``out``."""
        rows = self.cols.size
        block = out[: rows * self.value_counts.size].reshape(rows, -1)
        if self.table is not None:
            block[0] = self.table[:, p]
        else:
            np.subtract(self.coords, self.coords[:, p, None], out=block)
            np.abs(block, out=block)
        return block

    def member_counts(self, sub_counts: np.ndarray) -> np.ndarray:
        """(k, v) occurrences of every value among each cluster's members,
        from the (k, s) member counts of the categorical sub-rows."""
        k, v = sub_counts.shape[0], self.value_counts.size
        keys = (np.arange(k)[:, None] * v + self.sub).ravel()
        # integer counts, so the float sums are exact in any order
        return np.bincount(keys, sub_counts.ravel(), minlength=k * v).reshape(k, v)


@dataclass(frozen=True, eq=False)
class _ColumnModel(_Record):
    dataset: Dataset
    m: int
    numeric: tuple[_NumericCol, ...]
    groups: tuple[_CatGroup, ...]
    inverse: np.ndarray  # n, distinct row of each object
    repeats: np.ndarray  # s, distinct rows per categorical sub-row
    sub_of: np.ndarray  # n, categorical sub-row of each object

    def at(self, objects: np.ndarray) -> np.ndarray:
        """Prototype-space rows of the given objects."""
        return self.dataset.cells[objects]

    def scores(
        self, proto_vals: np.ndarray, weights: np.ndarray | None, memo: dict, buf
    ) -> np.ndarray:
        """k x u weighted prototype-to-distinct-row dissimilarities.

        ``weights`` is a length-m vector, a k x m matrix (row per cluster),
        or None for an unweighted sum. ``proto_vals`` holds prototypes in
        the original attribute space. ``memo`` caches each categorical
        attribute's per-value totals and must be a fresh dict whenever
        ``weights`` change; ``buf`` is the run's block buffer.
        """
        k = proto_vals.shape[0]
        by_row = weights is not None and weights.ndim == 2
        rows = [weights[l] if by_row else weights for l in range(k)]
        cat = np.zeros((k, self.repeats.size))
        for l, w_l in enumerate(rows):
            for g in self.groups:
                p = int(proto_vals[l, g.source]) - 1
                key = (g.source, p, l) if by_row else (g.source, p)
                totals = memo.get(key)
                if totals is None:
                    # Summed row by row, in order, in one pass over the block:
                    # a BLAS product sums in another order and can flip ties.
                    block = g.per_value(p, buf)
                    if w_l is None:
                        totals = memo[key] = block.sum(axis=0)
                    else:
                        totals = memo[key] = np.einsum("jq,j->q", block, w_l[g.cols])
                cat[l] += totals[g.sub]
        scores = np.repeat(cat, self.repeats, axis=1)
        gap = np.empty(scores.shape[1])  # every numerical gap, in turn
        for l, w_l in enumerate(rows):
            for num in self.numeric:
                np.subtract(num.distinct, proto_vals[l, num.source], out=gap)
                np.abs(gap, out=gap)
                if w_l is not None:
                    np.multiply(w_l[num.col], gap, out=gap)
                scores[l] += gap
        return scores

    def refit(self, labels0: np.ndarray, k: int) -> np.ndarray:
        """Member means (numerical) and modal values (categorical, ties to
        the lowest value); a memberless cluster takes the dataset-wide
        mean or mode."""
        proto = np.empty((k, self.dataset.schema.d))
        members = _Members(self, labels0, k)
        empty = members.sizes == 0
        for num in self.numeric:
            by_cluster = num.values[members.order]
            for l in range(k):
                values = num.values if empty[l] else by_cluster[members.bounds(l)]
                proto[l, num.source] = values.mean()
        for g in self.groups:
            counts = g.member_counts(members.sub_counts)
            counts[empty] = g.value_counts
            proto[:, g.source] = counts.argmax(axis=1) + 1
        return _freeze(proto)


class _PointModel(_ColumnModel):
    """OHE+OC on the column model's parts, with its own geometry.

    Each categorical group's ``coords`` are its attribute's encoded columns,
    one per value: the one-hot rows of a nominal attribute, the rank row of
    an ordinal one. Prototypes are encoded centroids, scores are squared
    Euclidean distances and refits are member means."""

    def at(self, objects: np.ndarray) -> np.ndarray:
        """Encoded points of the given objects."""
        points = np.empty((objects.size, self.m))
        for g in self.groups:
            points[:, g.cols] = g.coords[:, g.sub[self.sub_of[objects]]].T
        for num in self.numeric:
            points[:, num.col] = num.values[objects]
        return points

    def scores(self, centroids: np.ndarray, weights: None, memo, buf) -> np.ndarray:
        """k x u squared Euclidean distances; OHE+OC is unweighted."""
        cat = np.zeros((centroids.shape[0], self.repeats.size))
        for l, c in enumerate(centroids):
            for g in self.groups:
                cat[l] += ((g.coords - c[g.cols, None]) ** 2).sum(axis=0)[g.sub]
        sq = np.repeat(cat, self.repeats, axis=1)
        gap = np.empty(sq.shape[1])  # every numerical gap, in turn
        for l, c in enumerate(centroids):
            for num in self.numeric:
                np.subtract(num.distinct, c[num.col], out=gap)
                sq[l] += np.square(gap, out=gap)
        return sq

    def refit(self, labels0: np.ndarray, k: int) -> np.ndarray:
        """Member means. A one-hot column's member sum is a count, read from
        the sub-row counts; a rank or numerical column is summed over the
        objects in object order."""
        sums = np.empty((k, self.m))
        members = _Members(self, labels0, k)
        attrs = self.dataset.schema.attributes
        for g in self.groups:
            if attrs[g.source].kind is AttributeKind.NOMINAL:
                sums[:, g.cols] = g.member_counts(members.sub_counts)
                continue
            for col, coord in zip(g.cols, g.coords):
                per_object = coord[g.sub][self.sub_of]
                sums[:, col] = np.bincount(labels0, per_object, minlength=k)
        for num in self.numeric:
            sums[:, num.col] = np.bincount(labels0, num.values, minlength=k)
        return sums / members.sizes[:, None]


class _Members:
    """A partition's members, grouped once for a refit or a weight refresh.

    ``order`` lists the objects by cluster, each cluster's in object order,
    so ``values[order][bounds(l)]`` holds cluster l's values in the order
    the mask ``values[labels0 == l]`` gathers them and their pairwise
    ``sum`` and ``mean`` are bitwise the same. ``sub_counts`` is the (k, s)
    count of each cluster's members at every categorical sub-row, no larger
    than the k x u scores. Both are built on first use, so data without
    numerical attributes is never sorted and data without categorical ones
    never counted.
    """

    def __init__(self, model: _ColumnModel, labels0: np.ndarray, k: int):
        self.model, self.labels0, self.k = model, labels0, k
        self.sizes = np.bincount(labels0, minlength=k)
        self.ends = np.cumsum(self.sizes)

    def bounds(self, l: int) -> slice:
        return slice(self.ends[l] - self.sizes[l], self.ends[l])

    @cached_property
    def order(self) -> np.ndarray:
        # a radix sort: the smallest unsigned label type, for k <= 65,536
        key = self.labels0.astype(np.min_scalar_type(self.k - 1))
        return np.argsort(key, kind="stable")

    @cached_property
    def sub_counts(self) -> np.ndarray:
        s = self.model.repeats.size
        counts = np.bincount(self.labels0 * s + self.model.sub_of, minlength=self.k * s)
        return counts.reshape(self.k, s)


def _block_buffer(model: _ColumnModel) -> np.ndarray:
    """Flat scratch for one categorical block at a time; one per run."""
    sizes = [g.cols.size * g.value_counts.size for g in model.groups]
    return np.empty(max(sizes, default=0))


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


def _columns(dataset: Dataset) -> tuple:
    """The row index and the columns every model of a dataset shares, built
    once per dataset: each object's distinct row, each categorical sub-row's
    count of distinct rows, each object's sub-row, the numerical columns in
    attribute order, and each categorical attribute's 0-based codes at the
    sub-rows and value counts, by source."""

    def build():
        cells, schema = dataset.cells, dataset.schema
        keys = _packed_keys(cells, schema)
        numerical = [cells[:, r] for r in schema.numerical_indices()]
        # The categorical keys are the primary ones, so each categorical
        # sub-row is one run of distinct rows, opening wherever a key
        # changes, and its scores expand with one np.repeat. lexsort is
        # stable, so each run of equal rows opens with its lowest object.
        order = np.lexsort([*keys, *numerical][::-1])
        new_sub = _run_starts(keys, order)
        new = new_sub | _run_starts(numerical, order)
        inverse = np.empty(order.shape[0], dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        sub = np.cumsum(new_sub) - 1  # the sub-row at each sorted position
        sub_of = np.empty(order.shape[0], dtype=np.int64)
        sub_of[order] = sub
        repeats = np.bincount(sub[new])
        first = order[new]  # the lowest object holding each distinct row
        numeric = []
        for col, r in enumerate(schema.numerical_indices()):
            values = _freeze(cells[:, r])
            numeric.append(_NumericCol(col, r, values, _freeze(values[first])))
        codes = {}
        for r in schema.categorical_indices():
            codes0 = cells[:, r].astype(np.int64) - 1
            counts = np.bincount(codes0, minlength=schema.attributes[r].v)
            codes[r] = _freeze(codes0[order[new_sub]]), _freeze(counts.astype(float))
        inverse, repeats, sub_of = map(_freeze, (inverse, repeats, sub_of))
        return inverse, repeats, sub_of, tuple(numeric), codes

    return dataset._part("columns", build)


def _model(dataset: Dataset, forms, cls=_ColumnModel) -> _ColumnModel:
    """A model on the dataset's shared columns: the numerical columns, then
    one contiguous group of columns per categorical form ``(source, coords,
    table)``, in the order given. A form with neither coordinates nor a
    table scores 0/1 mismatch."""
    inverse, repeats, sub_of, numeric, codes = _columns(dataset)
    groups, col = [], len(numeric)
    for source, coords, table in forms:
        if coords is None and table is None:
            table = 1.0 - np.eye(dataset.schema.attributes[source].v)
        width = 1 if coords is None else len(coords)
        groups.append(
            _CatGroup(
                source,
                _freeze(np.arange(col, col + width, dtype=np.int64)),
                *codes[source],
                None if coords is None else _freeze(coords),
                None if table is None else _freeze(table),
            )
        )
        col += width
    return cls(dataset, col, numeric, tuple(groups), inverse, repeats, sub_of)


def _space_forms(dataset: Dataset, space: ReconstructedSpace) -> list:
    """The forms of a reconstructed space of the dataset's schema: each
    block's line coordinates, or 0/1 mismatch for a Hamming fallback,
    whose coordinates are all zero. Any other block's frozen coordinates
    are shared, not copied."""
    if space.schema != dataset.schema:
        raise ValueError("the space was reconstructed for another schema")
    return [(b.source, None if b.is_fallback else b.coords, None) for b in space.blocks]


def _nearest(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's nearest row, ties to the lowest, and its score.

    The same as ``scores.argmin(axis=0)`` and ``scores.min(axis=0)`` for
    scores without NaN, but argmin reduces a k x u array down its short
    strided axis, while the minimum is one contiguous reduction and one pass
    per row then counts the rows before the first that reaches it.
    """
    best = scores.min(axis=0)
    nearest = np.zeros(scores.shape[1], dtype=np.intp)
    found = np.zeros(scores.shape[1], dtype=bool)
    for row in scores[:-1]:  # where no earlier row reaches it, the last does
        found |= row == best
        nearest += ~found
    return nearest, best


def _reseed_empty(
    labels0: np.ndarray, scores: np.ndarray, inverse: np.ndarray, k: int
) -> tuple[np.ndarray, bool]:
    """Move the worst-served object into each empty cluster.

    ``scores`` has one column per distinct row, read per object through
    ``inverse``. Candidates are objects whose current cluster keeps at least
    one other member; the one farthest from its assigned prototype wins, ties
    to the lowest object index, so one object moves even when others share
    its row. Empty clusters are filled in ascending index order.
    """
    reseeded = False
    for l in range(k):
        if (labels0 == l).any():
            continue
        if not reseeded:
            labels0 = labels0.copy()
            reseeded = True
        own = scores.ravel()[labels0 * scores.shape[1] + inverse]
        sizes = np.bincount(labels0, minlength=k)
        movable = sizes[labels0] > 1
        if not movable.any():
            break
        candidates = np.flatnonzero(movable)
        pick = candidates[int(np.argmax(own[candidates]))]
        labels0[pick] = l
    return labels0, reseeded


def normalize_importances(importances: np.ndarray) -> np.ndarray:
    """Scale per-attribute importances onto the simplex.

    Invariant under multiplication of all importances by a positive
    constant. All-zero importances fall back to uniform with a warning.
    """
    importances = np.asarray(importances, dtype=float)
    total = importances.sum()
    if total <= 0.0:
        warnings.warn(
            "all attribute importances are zero; falling back to uniform weights",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.full(importances.shape, 1.0 / importances.shape[-1])
    return importances / total


def _weight_stats(
    model: _ColumnModel, proto_vals: np.ndarray, labels0: np.ndarray, k: int, buf
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster member sums and all-object sums of per-column distances.

    The members are grouped once (``_Members``). A numerical column costs one
    pass over all objects per cluster, for its total, plus one pass over
    each cluster's own slice for its member sum. A categorical attribute
    aggregates through per-value occurrence counts: one count from the
    (k, s) sub-row counts per categorical attribute, then one (columns, v)
    block, built in the caller's ``buf``, per cluster.
    """
    member_sum = np.empty((k, model.m))
    total_sum = np.empty((k, model.m))
    members = _Members(model, labels0, k)
    for num in model.numeric:
        by_cluster = num.values[members.order]
        for l in range(k):
            p = proto_vals[l, num.source]
            total_sum[l, num.col] = np.abs(num.values - p).sum()
            member_sum[l, num.col] = np.abs(by_cluster[members.bounds(l)] - p).sum()
    for g in model.groups:
        counts = g.member_counts(members.sub_counts)
        for l in range(k):
            per_value = g.per_value(int(proto_vals[l, g.source]) - 1, buf)
            member_sum[l, g.cols] = per_value @ counts[l]
            total_sum[l, g.cols] = per_value @ g.value_counts
    return member_sum, total_sum, members.sizes.astype(float)


def _weight_vector_from_stats(
    member_sum: np.ndarray, total_sum: np.ndarray, sizes: np.ndarray, n: int
) -> np.ndarray:
    intra = member_sum.sum(axis=0) / n
    inter = (total_sum - member_sum).sum(axis=0) / (n * (sizes.size - 1))
    return _freeze(normalize_importances(inter / (intra + EPSILON)))


def _weight_matrix_from_stats(
    member_sum: np.ndarray, total_sum: np.ndarray, sizes: np.ndarray, n: int
) -> np.ndarray:
    k, m = member_sum.shape
    out = np.empty((k, m))
    for l in range(k):
        if sizes[l] in (0, n):
            # A cluster covering all n objects forces empty siblings, so both
            # degenerate cases resolve to a uniform row.
            what = "is empty" if sizes[l] == 0 else "covers every object"
            warnings.warn(
                f"cluster {l} {what}; its weight row is set uniform",
                RuntimeWarning,
                stacklevel=3,
            )
            out[l] = 1.0 / m
            continue
        intra = member_sum[l] / sizes[l]
        inter = (total_sum[l] - member_sum[l]) / (n - sizes[l])
        out[l] = normalize_importances(inter / (intra + EPSILON))
    return _freeze(out)


# ---------------------------------------------------------------------------
# Public single-step operations.


def _check_shape(name: str, a: np.ndarray, shape: tuple[int, ...]) -> None:
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}; got {a.shape}")


def _check_partition(dataset: Dataset, partition: Partition, k: int) -> None:
    """One label per object, none above ``k``."""
    _check_shape("partition labels", partition.labels, (dataset.n,))
    if partition.labels.size and partition.labels.max() > k:
        raise ValueError(f"partition has labels above k={k}")


def _check_prototypes(dataset: Dataset, protos: Prototypes) -> None:
    """Shape (k, d), every numerical value finite (a NaN score has no
    nearest prototype) and every categorical value an integer in [1, v]."""
    _check_shape("prototypes", protos.values, (protos.k, dataset.schema.d))
    for r, attr in enumerate(dataset.schema.attributes):
        col = protos.values[:, r]
        if not attr.kind.is_categorical:
            if not np.isfinite(col).all():
                raise ValueError(
                    f"prototype values of attribute {attr.name!r} must be finite"
                )
        elif not np.isin(col, np.arange(1, attr.v + 1)).all():
            raise ValueError(
                f"prototype values of attribute {attr.name!r} must be integers "
                f"in [1, {attr.v}]"
            )


def assign(
    dataset: Dataset,
    space: ReconstructedSpace,
    protos: Prototypes,
    weights: WeightVector | WeightMatrix | None,
) -> Partition:
    """Assign every object to its nearest prototype; ties break to the
    lowest cluster index. Shapes: prototypes (k, d), weights (d_hat,) or
    (k, d_hat)."""
    _check_prototypes(dataset, protos)
    model = _model(dataset, _space_forms(dataset, space))
    w = None if weights is None else weights.w
    if w is not None:
        _check_shape("weights", w, (protos.k, model.m) if w.ndim == 2 else (model.m,))
    nearest, _ = _nearest(model.scores(protos.values, w, {}, _block_buffer(model)))
    return Partition(nearest[model.inverse] + 1, protos.k)


def update_prototypes(dataset: Dataset, partition: Partition) -> Prototypes:
    """Refit prototypes: numerical attributes take the member mean,
    categorical attributes the most frequent value index (ties to the lowest
    index). A memberless cluster falls back to the dataset-wide mean/mode;
    the run loop re-seeds empty clusters before refitting, so the fallback
    only matters for direct calls."""
    _check_partition(dataset, partition, partition.k)
    labels0, k = partition.to_zero_based(), partition.k
    forms = [(r, None, None) for r in dataset.schema.categorical_indices()]
    return Prototypes(_model(dataset, forms).refit(labels0, k))


def _refresh_stats(dataset, space, partition, protos):
    """``_weight_stats`` for the public refresh calls, with a buffer of its own."""
    if protos.k < 2:
        raise ValueError("weight learning requires k >= 2")
    _check_prototypes(dataset, protos)
    _check_partition(dataset, partition, protos.k)
    model = _model(dataset, _space_forms(dataset, space))
    labels0, buf = partition.to_zero_based(), _block_buffer(model)
    return _weight_stats(model, protos.values, labels0, protos.k, buf)


def update_weight_vector(
    dataset: Dataset,
    space: ReconstructedSpace,
    partition: Partition,
    protos: Prototypes,
) -> WeightVector:
    """Refresh the shared attribute weight vector.

    Each attribute's importance is its average distance to other clusters'
    prototypes divided by its average distance to the assigned prototype
    (plus ``EPSILON``); importances are normalized onto the simplex.
    Requires k >= 2.
    """
    stats = _refresh_stats(dataset, space, partition, protos)
    return WeightVector(_weight_vector_from_stats(*stats, dataset.n))


def update_weight_matrix(
    dataset: Dataset,
    space: ReconstructedSpace,
    partition: Partition,
    protos: Prototypes,
) -> WeightMatrix:
    """Refresh per-cluster weight rows.

    Row l weighs each attribute by its average distance from non-members to
    prototype l over its average distance from members (plus ``EPSILON``).
    Degenerate clusters (no members, or covering every object) get a
    uniform row with a warning; the run loop re-seeds empty clusters so
    neither case arises there.
    """
    stats = _refresh_stats(dataset, space, partition, protos)
    return WeightMatrix(_weight_matrix_from_stats(*stats, dataset.n))


# ---------------------------------------------------------------------------
# The run loop.

# HAR keeps the uniform weight vector that HARR-V and HARR-M start from, so
# at one seed, k and inner cap the three run the same first epoch.
_UNIFORM_START = ("HARR-V", "HARR-M", "HAR")


@dataclass(frozen=True, eq=False)
class _Epoch(_Record):
    """What one fixed-weight epoch leaves: one trace entry per assignment,
    the last assignment (0-based), the prototypes it was made from, and
    whether it repeated the assignment before it (Q')."""

    trace_z: tuple[float, ...]
    trace_updated: tuple[bool, ...]
    trace_reseeded: tuple[bool, ...]
    labels0: np.ndarray
    proto_vals: np.ndarray
    stable: bool


class _FirstEpochs:
    """The first epochs of a dataset's HAR, HARR-V and HARR-M runs, keyed
    by (seed, k, inner cap).

    The first run to ask at a key computes the entry, and every later one
    continues from it. Each key has a lock of its own, held while its entry
    is computed: a second asker waits for that one computation, distinct
    keys never wait on each other, and if the computation fails, a waiter
    computes the entry itself. The dataset holds the store weakly, and the
    ``Prepared`` of those variants strongly, so it goes with the last of
    them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slots: dict = {}  # key -> [the key's lock, its _Epoch or None]

    def get(self, key, compute) -> tuple[_Epoch, bool]:
        """The entry at ``key`` and whether another run computed it."""
        with self._lock:
            slot = self._slots.setdefault(key, [threading.Lock(), None])
        with slot[0]:
            shared = slot[1] is not None
            if not shared:
                slot[1] = compute()
            return slot[1], shared


@dataclass(frozen=True)
class Prepared:
    """Variant-specific immutable inputs shared by every run on a dataset.
    ``reconstruct_s`` is the variant's ``prepare`` time: the set-up it did
    not find already built for the dataset (discretize, base distances,
    projection, shared columns) plus its own model build, so KPT's is
    nonzero too. It may overlap the runs of the variant before. HAR,
    HARR-V and HARR-M hold their dataset's store of first epochs."""

    variant: str
    model: _ColumnModel
    space: ReconstructedSpace | None
    reconstruct_s: float
    _first_epochs: _FirstEpochs | None = field(default=None, repr=False, compare=False)


def _check_variant(dataset: Dataset, variant: str) -> None:
    """Raise ConfigError unless ``variant`` can cluster ``dataset``."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "KMD" and dataset.schema.d_u > 0:
        raise ConfigError(
            "KMD handles pure categorical data only; use KPT for mixed data"
        )


def _base_distances(dataset: Dataset) -> BaseDistanceTable:
    """The dataset's base-distance table. The discretized view it is built
    from is not kept."""
    return dataset._part(
        "base_distances",
        lambda: build_base_distances(dataset, discretize_numerical(dataset)),
    )


def _space(dataset: Dataset) -> ReconstructedSpace:
    """The dataset's reconstructed space, which HARR-V, HARR-M and HAR share."""
    return dataset._part("space", lambda: reconstruct(dataset, _base_distances(dataset)))


def prepare(dataset: Dataset, variant: str) -> Prepared:
    """Build the representation a variant clusters on, timing the build.

    What belongs to the dataset rather than to the variant (the shared
    columns, the base-distance table and the reconstructed space) is
    built once per dataset and kept on it, so later variants find it; the
    model is built from those parts on each call, since a model refers to
    its dataset and a part must not. The result is immutable and safe to
    share across concurrent seeded runs.
    """
    _check_variant(dataset, variant)
    start = time.perf_counter()
    schema = dataset.schema
    space, cls, first_epochs = None, _ColumnModel, None
    if variant in _UNIFORM_START:
        space = _space(dataset)
        forms = _space_forms(dataset, space)
        first_epochs = dataset._part("first_epochs", _FirstEpochs, weak=True)
    elif variant == "BD":
        table = _base_distances(dataset)
        forms = [(r, None, table.matrices[r]) for r in schema.categorical_indices()]
    elif variant == "OHE+OC":
        # an ordinal attribute becomes its normalized rank (t-1)/(v-1), a
        # nominal one v one-hot columns, so two different values sit at
        # distance 2 in the squared-Euclidean geometry
        forms, cls = [], _PointModel
        for r in schema.categorical_indices():
            v = schema.attributes[r].v
            if schema.attributes[r].kind is AttributeKind.NOMINAL:
                forms.append((r, np.eye(v), None))
            else:
                forms.append((r, np.arange(v)[None] / (v - 1), None))
    else:  # KMD, KPT: 0/1 mismatch
        forms = [(r, None, None) for r in schema.categorical_indices()]
    model = _model(dataset, forms, cls)
    return Prepared(variant, model, space, time.perf_counter() - start, first_epochs)


def run(dataset: Dataset, config: RunConfig) -> RunReport:
    """Prepare the variant's representation and execute one seeded run."""
    return run_prepared(dataset, prepare(dataset, config.variant), config)


def _epoch(
    model: _ColumnModel, proto_vals, weights, labels0, refreshed: bool, k: int, inner_cap: int, buf
) -> _Epoch:
    """One fixed-weight epoch: assign and refit until an assignment repeats
    ``labels0``, the one before it (None before a run's first), or
    ``inner_cap`` assignments were made. ``refreshed`` marks an epoch that
    a weight refresh opened."""
    inverse = model.inverse
    memo: dict = {}  # per-value totals under this epoch's weights
    trace_z: list[float] = []
    trace_reseeded: list[bool] = []
    for inner in range(inner_cap):
        scores = model.scores(proto_vals, weights, memo, buf)
        nearest, best = _nearest(scores)
        new, reseeded = _reseed_empty(nearest[inverse], scores, inverse, k)
        # per-object values summed in object order; a re-seeded object no
        # longer sits at its row's minimum, so that step gathers its score
        if reseeded:
            own = scores.ravel()[new * scores.shape[1] + inverse]
        else:
            own = best[inverse]
        trace_z.append(float(own.sum()))
        del scores, nearest, best, own  # freed before the next score step
        trace_reseeded.append(reseeded)
        stable = labels0 is not None and np.array_equal(new, labels0)
        labels0 = new
        if stable:
            break
        if inner + 1 < inner_cap:
            proto_vals = model.refit(labels0, k)
    updated = (refreshed,) + (False,) * (len(trace_z) - 1)
    return _Epoch(tuple(trace_z), updated, tuple(trace_reseeded), labels0, proto_vals, stable)


def run_prepared(dataset: Dataset, prep: Prepared, config: RunConfig) -> RunReport:
    """Execute one seeded run on the representation ``prepare`` built for
    this dataset: the epochs the module docstring describes. A run
    converged when its last epoch ended on a repeat (Q') and no cap cut the
    run short. HAR, HARR-V and HARR-M take their first epoch from the
    dataset's store (``_FirstEpochs``); a run whose first epoch another run
    computed does not count that epoch in its ``cluster_s``."""
    if prep.variant != config.variant:
        raise ConfigError(
            f"prepared for {prep.variant!r} but config asks for {config.variant!r}"
        )
    if prep.model.dataset is not dataset:
        raise ConfigError("prepared for another dataset")
    if config.k > dataset.n:
        raise ConfigError(f"k={config.k} exceeds the {dataset.n} available objects")
    started = time.perf_counter()
    model = prep.model
    n, m, k = dataset.n, model.m, config.k
    # Weights start uniform and HARR-V and HARR-M learn them: one vector, or
    # one row per cluster. HAR keeps the uniform vector; the rest use none.
    learn = {
        "HARR-V": _weight_vector_from_stats,
        "HARR-M": _weight_matrix_from_stats,
    }.get(config.variant)
    weights = np.full(m, 1.0 / m) if config.variant in _UNIFORM_START else None
    buf = _block_buffer(model)  # this run's own; never shared across workers

    def first_epoch() -> _Epoch:
        rng = np.random.default_rng(config.seed)
        proto_vals = model.at(rng.choice(n, size=k, replace=False))
        epoch = _epoch(model, proto_vals, weights, None, False, k, config.inner_cap, buf)
        # kept while the store lives: the smallest unsigned label type
        labels0 = epoch.labels0.astype(np.min_scalar_type(k - 1))
        return replace(epoch, labels0=_freeze(labels0), proto_vals=_freeze(epoch.proto_vals))

    if prep._first_epochs is None:
        epoch = first_epoch()
    else:
        key = (config.seed, k, config.inner_cap)
        epoch, shared = prep._first_epochs.get(key, first_epoch)
        if shared:  # another run's loop counted the epoch
            started = time.perf_counter()
    weights_s = 0.0
    trace_z: list[float] = []
    trace_updated: list[bool] = []
    trace_reseeded: list[bool] = []
    refreshed = None  # the partition at the last weight refresh (Q'')
    updates = 0
    while True:
        trace_z += epoch.trace_z
        trace_updated += epoch.trace_updated
        trace_reseeded += epoch.trace_reseeded
        labels0 = epoch.labels0.astype(np.intp, copy=False)
        proto_vals, converged = epoch.proto_vals, epoch.stable
        if learn is None or (
            refreshed is not None and np.array_equal(labels0, refreshed)
        ):
            break
        if updates >= config.outer_cap:
            converged = False
            break
        refreshed = labels0
        t0 = time.perf_counter()
        stats = _weight_stats(model, proto_vals, labels0, k, buf)
        weights = learn(*stats, n)
        weights_s += time.perf_counter() - t0
        updates += 1
        epoch = _epoch(model, proto_vals, weights, labels0, True, k, config.inner_cap, buf)

    del refreshed  # released before the labels are built
    if converged:
        # terminal fixed-point entry: the stopping check re-evaluated an
        # unchanged state
        trace_z.append(trace_z[-1])
        trace_updated.append(False)
        trace_reseeded.append(False)

    cluster_s = time.perf_counter() - started - weights_s
    if weights is not None:
        weights = _freeze(weights)  # this run's own, so frozen without a copy
    matrix = weights is not None and weights.ndim == 2
    return RunReport(
        variant=config.variant,
        k=k,
        seed=config.seed,
        labels=_freeze(labels0 + 1),
        weights=None if matrix else weights,
        weight_matrix=weights if matrix else None,
        trace_z=tuple(trace_z),
        trace_weights_updated=tuple(trace_updated),
        trace_reseeded=tuple(trace_reseeded),
        converged=converged,
        cluster_s=cluster_s,
        weights_s=weights_s,
    )
