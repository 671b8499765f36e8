"""Clustering engine: weight-learning variants and classical baselines.

Every variant runs through one alternating loop: objects are assigned to
their nearest prototype under the variant's dissimilarity, prototypes are
refit, and the loop repeats until the partition stops changing. The
weight-learning variants then refresh attribute weights from the ratio of
inter- to intra-cluster average distance per attribute and resume, stopping
once the partition is stable across weight refreshes.

The score and refit steps come from the variant's model. Identical rows
score alike, so a model scores each distinct row of the dataset once; the
partition stays per object, and objects read their scores through the
dataset's distinct-row index. The column model keeps prototypes in the
original attribute space and refits them as per-cluster means (numerical
attributes) and modal values (categorical attributes); OHE+OC's point model
scores encoded points by squared Euclidean distance and refits them as
member means.

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

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .base_distance import BaseDistanceTable, build_base_distances
from .projection import (
    HAMMING_FALLBACK,
    ReconstructedSpace,
    reconstruct,
    value_distance,
)
from .schema import AttributeKind, Dataset, _freeze, discretize_numerical

__all__ = [
    "VARIANTS",
    "ConfigError",
    "RunConfig",
    "Partition",
    "Prototypes",
    "WeightVector",
    "WeightMatrix",
    "ObjectiveTrace",
    "PhaseTimings",
    "RunReport",
    "Prepared",
    "prepare",
    "run",
    "run_prepared",
    "weighted_distance",
    "assign",
    "update_prototypes",
    "update_weight_vector",
    "update_weight_matrix",
    "normalize_importances",
    "encode_ohe_oc",
]

VARIANTS = ("HARR-V", "HARR-M", "HAR", "BD", "KMD", "KPT", "OHE+OC")

MONOTONE_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """An invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single clustering run.

    ``inner_cap`` bounds assignment/refit rounds per weight epoch and
    ``outer_cap`` bounds weight refreshes; ``epsilon`` guards the division by
    intra-cluster distance, which is legitimately zero for a perfectly
    compact attribute. ``bins`` overrides the discretization bin count.
    """

    k: int
    seed: int = 0
    variant: str = "HARR-M"
    inner_cap: int = 100
    outer_cap: int = 50
    epsilon: float = 1e-12
    bins: int | None = None

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
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.bins is not None and self.bins < 2:
            raise ConfigError("bins override must be at least 2")


@dataclass(frozen=True)
class Partition:
    """Crisp cluster labels in [1, k], one per object."""

    labels: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        try:
            labels = np.asarray(self.labels, dtype=np.int64)
        except OverflowError:  # beyond int64, so outside [1, k]
            raise ValueError(f"labels must lie in [1, {self.k}]") from None
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if labels.size and (labels.min() < 1 or labels.max() > self.k):
            raise ValueError(f"labels must lie in [1, {self.k}]")
        object.__setattr__(self, "labels", tuple(labels.tolist()))

    def to_zero_based(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64) - 1


@dataclass(frozen=True)
class Prototypes:
    """Per-cluster representatives in the original attribute space: means
    for numerical attributes, modal value indices for categorical ones."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, float)))

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightVector:
    """Non-negative attribute weights summing to 1."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "w", _freeze(w))


@dataclass(frozen=True)
class WeightMatrix:
    """One weight row per cluster, each on the simplex."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if (w < 0).any() or (np.abs(w.sum(axis=1) - 1.0) > 1e-9).any():
            raise ValueError("every weight row must be non-negative and sum to 1")
        object.__setattr__(self, "w", _freeze(w))


@dataclass(frozen=True)
class ObjectiveTrace:
    """Objective value after each assignment, with markers for assignments
    that used freshly refreshed weights and for empty-cluster re-seeds.

    Converged runs close with one terminal entry repeating the fixed-point
    objective (the stopping check re-evaluates an unchanged state), so their
    final two values are equal.
    """

    z: tuple[float, ...]
    weights_updated: tuple[bool, ...]
    reseeded: tuple[bool, ...]


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock seconds per phase; excluded from report equality."""

    reconstruct_s: float = 0.0
    cluster_s: float = 0.0
    weights_s: float = 0.0


@dataclass(frozen=True)
class RunReport:
    """Everything produced by one seeded clustering run.

    ``inner_monotone`` records whether the objective was non-increasing
    (within tolerance) across consecutive assignments of every fixed-weight
    epoch, skipping pairs interrupted by an empty-cluster re-seed;
    ``max_inner_increase`` is the largest observed increase.
    """

    variant: str
    k: int
    seed: int
    labels: tuple[int, ...]
    weights: tuple[float, ...] | None
    weight_matrix: tuple[tuple[float, ...], ...] | None
    trace_z: tuple[float, ...]
    trace_weights_updated: tuple[bool, ...]
    trace_reseeded: tuple[bool, ...]
    inner_iterations: int
    weight_updates: int
    converged: bool
    inner_monotone: bool
    max_inner_increase: float
    ari: float | None = None
    ca: float | None = None
    timings: PhaseTimings = field(default=PhaseTimings(), compare=False)

    @property
    def trace(self) -> ObjectiveTrace:
        return ObjectiveTrace(
            self.trace_z, self.trace_weights_updated, self.trace_reseeded
        )

    @property
    def partition(self) -> Partition:
        return Partition(self.labels, self.k)


# ---------------------------------------------------------------------------
# Models. Each supplies the run loop's score and refit steps. Identical rows
# score alike, so scores are u x k, one row per distinct row of the dataset,
# and ``inverse`` reads them per object. The partition, the re-seeds, the
# objective sum, the refits and the weight statistics stay per object. The
# column model serves every variant but OHE+OC. Categorical distances depend
# only on the value index, so scoring builds each column's distances from
# every value to the prototype's value and gathers one per-value total per
# source attribute instead of touching per-row columns.


@dataclass(frozen=True)
class _NumericCol:
    col: int  # position in the expanded column order
    source: int  # original attribute index
    values: np.ndarray  # n, per object
    distinct: np.ndarray  # u, at the distinct rows (scores only)


@dataclass(frozen=True)
class _CatGroup:
    """All expanded columns of one source categorical attribute.

    Projected sub-attributes keep their line coordinates, and a value
    distance is a coordinate gap. A one-column group whose distances are not
    coordinate gaps (BD base distances, 0/1 mismatch, the Hamming fallback)
    keeps a value-by-value table instead.
    """

    source: int
    cols: np.ndarray  # positions in the expanded column order
    codes0: np.ndarray  # n, 0-based value codes per object
    distinct: np.ndarray  # u, 0-based value codes at the distinct rows
    value_counts: np.ndarray  # (v,) occurrences over the whole dataset
    coords: np.ndarray | None = None  # (len(cols), v) line coordinates
    table: np.ndarray | None = None  # (v, v) distances of the only column

    def per_value(self, p: int) -> np.ndarray:
        """(len(cols), v) distances from every value to 0-based value ``p``."""
        if self.table is not None:
            return self.table[None, :, p]
        return np.abs(self.coords - self.coords[:, p, None])

    def member_counts(self, labels0: np.ndarray, k: int) -> np.ndarray:
        """(k, v) occurrences of every value among each cluster's members."""
        v = self.value_counts.shape[0]
        counts = np.bincount(labels0 * v + self.codes0, minlength=k * v)
        return counts.reshape(k, v).astype(float)


@dataclass(frozen=True)
class _ColumnModel:
    dataset: Dataset
    m: int
    numeric: tuple[_NumericCol, ...]
    groups: tuple[_CatGroup, ...]

    @property
    def inverse(self) -> np.ndarray:
        return self.dataset.distinct.inverse

    def at(self, objects: np.ndarray) -> np.ndarray:
        """Prototype-space rows of the given objects."""
        return self.dataset.cells[objects]

    def scores(self, proto_vals: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        """u x k weighted distinct-row-to-prototype dissimilarities.

        ``weights`` is a length-m vector, a k x m matrix (row per cluster),
        or None for an unweighted sum. ``proto_vals`` holds prototypes in
        the original attribute space.
        """
        k = proto_vals.shape[0]
        scores = np.zeros((self.dataset.distinct.u, k))
        for l in range(k):
            w_l = weights[l] if weights is not None and weights.ndim == 2 else weights
            s = scores[:, l]
            for num in self.numeric:
                gap = np.abs(num.distinct - proto_vals[l, num.source])
                s += gap if w_l is None else w_l[num.col] * gap
            for g in self.groups:
                per_value = g.per_value(int(proto_vals[l, g.source]) - 1)
                if w_l is None:
                    totals = per_value.sum(axis=0)
                else:
                    # Summed column by column, in order: a BLAS product sums
                    # in another order and can flip exact ties in the argmin.
                    totals = (w_l[g.cols, None] * per_value).sum(axis=0)
                s += totals[g.distinct]
        return scores

    def refit(self, labels0: np.ndarray, k: int) -> np.ndarray:
        """Member means (numerical) and modal values (categorical, ties to
        the lowest value); a memberless cluster takes the dataset-wide
        mean or mode."""
        proto = np.empty((k, self.dataset.schema.d))
        empty = np.bincount(labels0, minlength=k) == 0
        for num in self.numeric:
            for l in range(k):
                members = num.values if empty[l] else num.values[labels0 == l]
                proto[l, num.source] = members.mean()
        for g in self.groups:
            counts = g.member_counts(labels0, k)
            counts[empty] = g.value_counts
            proto[:, g.source] = counts.argmax(axis=1) + 1
        return proto


@dataclass(frozen=True)
class _PointModel:
    """OHE+OC: encoded points, squared Euclidean scores, member-mean refits."""

    points: np.ndarray  # u x m, encode_ohe_oc at the distinct rows
    inverse: np.ndarray  # n, object -> distinct row

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def at(self, objects: np.ndarray) -> np.ndarray:
        return self.points[self.inverse[objects]]

    def scores(self, centroids: np.ndarray, weights: None) -> np.ndarray:
        """u x k squared Euclidean distances; OHE+OC is unweighted."""
        sq = np.empty((self.points.shape[0], centroids.shape[0]))
        for l in range(centroids.shape[0]):
            sq[:, l] = ((self.points - centroids[l]) ** 2).sum(axis=1)
        return sq

    def refit(self, labels0: np.ndarray, k: int) -> np.ndarray:
        # one row per member object, in object order, as the mean sums them
        return np.stack(
            [self.points[self.inverse[labels0 == l]].mean(axis=0) for l in range(k)]
        )


def _make_group(dataset, source, cols, v, coords=None, table=None) -> _CatGroup:
    codes0 = dataset.cells[:, source].astype(np.int64) - 1
    return _CatGroup(
        source,
        _freeze(np.asarray(cols, dtype=np.int64)),
        _freeze(codes0),
        _freeze(codes0[dataset.distinct.first]),
        _freeze(np.bincount(codes0, minlength=v).astype(float)),
        None if coords is None else _freeze(coords),
        None if table is None else _freeze(table),
    )


def _make_numeric(dataset: Dataset, col: int, source: int) -> _NumericCol:
    values = _freeze(dataset.cells[:, source])
    return _NumericCol(col, source, values, _freeze(values[dataset.distinct.first]))


def _mismatch_table(v: int) -> np.ndarray:
    return 1.0 - np.eye(v)


def _model_reconstructed(dataset: Dataset, space: ReconstructedSpace) -> _ColumnModel:
    numeric = []
    col = 0
    for r in space.numeric_attrs:
        numeric.append(_make_numeric(dataset, col, r))
        col += 1
    groups = []
    by_source: dict[int, list] = {}
    for sub in space.sub_attributes:
        by_source.setdefault(sub.source, []).append(sub)
    for source in sorted(by_source):
        subs = by_source[source]
        v = subs[0].v
        cols = range(col, col + len(subs))
        col += len(subs)
        if subs[0].span == HAMMING_FALLBACK:
            # reconstruct() emits the fallback as its attribute's only
            # column; its coordinates are all zero, so it needs the table
            group = _make_group(dataset, source, cols, v, table=_mismatch_table(v))
        else:
            coords = np.stack([sub.coords for sub in subs])
            group = _make_group(dataset, source, cols, v, coords=coords)
        groups.append(group)
    return _ColumnModel(dataset, col, tuple(numeric), tuple(groups))


def _model_original(
    dataset: Dataset, table: BaseDistanceTable | None = None
) -> _ColumnModel:
    """KMD/KPT columns (0/1 mismatch on categorical attributes), or the BD
    columns when a base-distance table is supplied."""
    numeric = []
    groups = []
    for r, attr in enumerate(dataset.schema.attributes):
        if not attr.kind.is_categorical:
            numeric.append(_make_numeric(dataset, r, r))
        else:
            dist = _mismatch_table(attr.v) if table is None else table.matrices[r]
            groups.append(_make_group(dataset, r, [r], attr.v, table=dist))
    return _ColumnModel(dataset, dataset.schema.d, tuple(numeric), tuple(groups))


def _reseed_empty(
    labels0: np.ndarray, scores: np.ndarray, inverse: np.ndarray, k: int
) -> tuple[np.ndarray, bool]:
    """Move the worst-served object into each empty cluster.

    ``scores`` has one row per distinct row, read per object through
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
        own = scores[inverse, labels0]
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
    model: _ColumnModel, proto_vals: np.ndarray, labels0: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster member sums and all-object sums of per-column distances.

    Categorical columns aggregate through per-value occurrence counts, so the
    cost is one pass over the numeric columns per cluster plus one count and
    O(columns x v) work per cluster per categorical attribute.
    """
    member_sum = np.empty((k, model.m))
    total_sum = np.empty((k, model.m))
    for num in model.numeric:
        for l in range(k):
            gap = np.abs(num.values - proto_vals[l, num.source])
            total_sum[l, num.col] = gap.sum()
            member_sum[l, num.col] = gap[labels0 == l].sum()
    for g in model.groups:
        counts = g.member_counts(labels0, k)
        for l in range(k):
            per_value = g.per_value(int(proto_vals[l, g.source]) - 1)
            member_sum[l, g.cols] = per_value @ counts[l]
            total_sum[l, g.cols] = per_value @ g.value_counts
    sizes = np.bincount(labels0, minlength=k).astype(float)
    return member_sum, total_sum, sizes


def _weight_vector_from_stats(
    member_sum: np.ndarray, total_sum: np.ndarray, n: int, k: int, epsilon: float
) -> np.ndarray:
    intra = member_sum.sum(axis=0) / n
    inter = (total_sum - member_sum).sum(axis=0) / (n * (k - 1))
    return normalize_importances(inter / (intra + epsilon))


def _weight_matrix_from_stats(
    member_sum: np.ndarray,
    total_sum: np.ndarray,
    sizes: np.ndarray,
    n: int,
    epsilon: float,
) -> np.ndarray:
    k, m = member_sum.shape
    out = np.empty((k, m))
    for l in range(k):
        if sizes[l] == 0:
            # A cluster covering all n objects forces empty siblings, so both
            # degenerate cases resolve to a uniform row.
            warnings.warn(
                f"cluster {l} is empty; its weight row is set uniform",
                RuntimeWarning,
                stacklevel=3,
            )
            out[l] = 1.0 / m
            continue
        if sizes[l] == n:
            warnings.warn(
                f"cluster {l} covers every object; its weight row is set uniform",
                RuntimeWarning,
                stacklevel=3,
            )
            out[l] = 1.0 / m
            continue
        intra = member_sum[l] / sizes[l]
        inter = (total_sum[l] - member_sum[l]) / (n - sizes[l])
        out[l] = normalize_importances(inter / (intra + epsilon))
    return out


# ---------------------------------------------------------------------------
# Public single-step operations.


def weighted_distance(
    dataset: Dataset,
    space: ReconstructedSpace,
    protos: Prototypes,
    weights: WeightVector | WeightMatrix | None,
    x: int,
    m: int,
) -> float:
    """Weighted dissimilarity between object ``x`` and prototype ``m``
    (both 0-based indices).

    Numerical pass-through attributes contribute |x - m|; sub-attributes
    contribute the coordinate gap between the object's and the prototype's
    value. With a weight matrix, row ``m`` applies. Reference implementation;
    the run loops use an equivalent vectorized path.
    """
    if isinstance(weights, WeightMatrix):
        w = weights.w[m]
    elif isinstance(weights, WeightVector):
        w = weights.w
    else:
        w = None
    total = 0.0
    j = 0
    for r in space.numeric_attrs:
        phi = abs(dataset.cells[x, r] - protos.values[m, r])
        total += phi * (w[j] if w is not None else 1.0)
        j += 1
    for sub in space.sub_attributes:
        u = int(dataset.cells[x, sub.source])
        f = int(protos.values[m, sub.source])
        phi = value_distance(sub, u, f)
        total += phi * (w[j] if w is not None else 1.0)
        j += 1
    return total


def assign(
    dataset: Dataset,
    space: ReconstructedSpace,
    protos: Prototypes,
    weights: WeightVector | WeightMatrix | None,
) -> Partition:
    """Assign every object to its nearest prototype; ties break to the
    lowest cluster index."""
    model = _model_reconstructed(dataset, space)
    w = None if weights is None else weights.w
    labels0 = model.scores(protos.values, w).argmin(axis=1)[model.inverse]
    return Partition(tuple((labels0 + 1).tolist()), protos.k)


def update_prototypes(dataset: Dataset, partition: Partition, k: int | None = None) -> Prototypes:
    """Refit prototypes: numerical attributes take the member mean,
    categorical attributes the most frequent value index (ties to the lowest
    index). A memberless cluster falls back to the dataset-wide mean/mode;
    the run loops re-seed empty clusters before refitting, so the fallback
    only matters for direct calls. ``k`` may exceed the partition's k to
    refit trailing memberless clusters, but no label may exceed it.
    """
    k = partition.k if k is None else k
    if partition.labels and max(partition.labels) > k:
        raise ValueError(f"partition has labels above k={k}")
    return Prototypes(_model_original(dataset).refit(partition.to_zero_based(), k))


def update_weight_vector(
    dataset: Dataset,
    space: ReconstructedSpace,
    partition: Partition,
    protos: Prototypes,
    epsilon: float = 1e-12,
) -> WeightVector:
    """Refresh the shared attribute weight vector.

    Each attribute's importance is its average distance to other clusters'
    prototypes divided by its average distance to the assigned prototype
    (guarded by ``epsilon``); importances are normalized onto the simplex.
    Requires k >= 2.
    """
    k = protos.k
    if k < 2:
        raise ValueError("weight learning requires k >= 2")
    model = _model_reconstructed(dataset, space)
    member_sum, total_sum, _ = _weight_stats(
        model, protos.values, partition.to_zero_based(), k
    )
    return WeightVector(
        _weight_vector_from_stats(member_sum, total_sum, dataset.n, k, epsilon)
    )


def update_weight_matrix(
    dataset: Dataset,
    space: ReconstructedSpace,
    partition: Partition,
    protos: Prototypes,
    epsilon: float = 1e-12,
) -> WeightMatrix:
    """Refresh per-cluster weight rows.

    Row l weighs each attribute by its average distance from non-members to
    prototype l over its average distance from members (guarded by
    ``epsilon``). Degenerate clusters (no members, or covering every object)
    get a uniform row with a warning; the run loops re-seed empty clusters
    so neither case arises there.
    """
    k = protos.k
    if k < 2:
        raise ValueError("weight learning requires k >= 2")
    model = _model_reconstructed(dataset, space)
    member_sum, total_sum, sizes = _weight_stats(
        model, protos.values, partition.to_zero_based(), k
    )
    return WeightMatrix(
        _weight_matrix_from_stats(member_sum, total_sum, sizes, dataset.n, epsilon)
    )


# ---------------------------------------------------------------------------
# Run loops.


@dataclass(frozen=True)
class Prepared:
    """Variant-specific immutable inputs shared by every run on a dataset."""

    variant: str
    model: _ColumnModel | _PointModel
    space: ReconstructedSpace | None
    reconstruct_s: float

    @property
    def width(self) -> int:
        """Columns the variant clusters on: d_hat for the reconstructed
        space, the encoded width for OHE+OC, d otherwise."""
        return self.model.m


def prepare(dataset: Dataset, variant: str, bins: int | None = None) -> Prepared:
    """Build the representation a variant clusters on, timing the build.

    The result is immutable and safe to share across concurrent seeded runs.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    start = time.perf_counter()
    space = None
    if variant in ("HARR-V", "HARR-M", "HAR"):
        view = discretize_numerical(dataset, bins=bins)
        table = build_base_distances(dataset, view)
        space = reconstruct(dataset, table)
        model = _model_reconstructed(dataset, space)
    elif variant == "BD":
        view = discretize_numerical(dataset, bins=bins)
        table = build_base_distances(dataset, view)
        model = _model_original(dataset, table)
    elif variant in ("KMD", "KPT"):
        if variant == "KMD" and dataset.schema.d_u > 0:
            raise ConfigError(
                "KMD handles pure categorical data only; use KPT for mixed data"
            )
        model = _model_original(dataset)
    else:  # OHE+OC
        rows = dataset.distinct
        distinct = Dataset(
            dataset.schema,
            dataset.cells[rows.first],
            dataset.numeric_min,
            dataset.numeric_max,
        )
        model = _PointModel(_freeze(encode_ohe_oc(distinct)), rows.inverse)
    return Prepared(variant, model, space, time.perf_counter() - start)


def run(dataset: Dataset, config: RunConfig) -> RunReport:
    """Prepare the variant's representation and execute one seeded run."""
    return run_prepared(dataset, prepare(dataset, config.variant, config.bins), config)


def run_prepared(dataset: Dataset, prep: Prepared, config: RunConfig) -> RunReport:
    """Execute one seeded run on an already-prepared representation."""
    if prep.variant != config.variant:
        raise ConfigError(
            f"prepared for {prep.variant!r} but config asks for {config.variant!r}"
        )
    if config.k > dataset.n:
        raise ConfigError(f"k={config.k} exceeds the {dataset.n} available objects")
    rng = np.random.default_rng(config.seed)
    weight_mode = {
        "HARR-V": "vector",
        "HARR-M": "matrix",
        "HAR": "frozen",
    }.get(config.variant, "none")
    return _run_alternating(dataset, prep, config, rng, weight_mode)


def _run_alternating(
    dataset: Dataset,
    prep: Prepared,
    config: RunConfig,
    rng: np.random.Generator,
    weight_mode: str,
) -> RunReport:
    model = prep.model
    inverse = model.inverse
    n, m = dataset.n, model.m
    k = config.k
    started = time.perf_counter()
    weights_s = 0.0

    proto_vals = model.at(rng.choice(n, size=k, replace=False))
    if weight_mode == "none":
        weights = None
    elif weight_mode == "matrix":
        weights = np.full((k, m), 1.0 / m)
    else:
        weights = np.full(m, 1.0 / m)

    trace_z: list[float] = []
    trace_updated: list[bool] = []
    trace_reseeded: list[bool] = []
    labels0 = None
    prev_inner: np.ndarray | None = None  # last partition seen (Q')
    prev_outer: np.ndarray | None = None  # partition at last weight refresh (Q'')
    inner_total = 0
    inner_count = 0
    updates = 0
    just_updated = False
    prev_z: float | None = None
    max_increase = 0.0
    converged = False
    inner_stable = False

    while True:
        scores = model.scores(proto_vals, weights)
        labels0 = scores.argmin(axis=1)[inverse]
        labels0, reseeded = _reseed_empty(labels0, scores, inverse, k)
        # per-object values summed in object order
        z = float(scores[inverse, labels0].sum())
        del scores  # freed before the next score step allocates its own
        if prev_z is not None and not just_updated:
            if not (reseeded or trace_reseeded[-1]):
                max_increase = max(max_increase, z - prev_z)
        trace_z.append(z)
        trace_updated.append(just_updated)
        trace_reseeded.append(reseeded)
        prev_z = z
        just_updated = False
        inner_total += 1
        inner_count += 1

        changed = prev_inner is None or not np.array_equal(labels0, prev_inner)
        if changed and inner_count < config.inner_cap:
            prev_inner = labels0
            proto_vals = model.refit(labels0, k)
            continue
        inner_stable = not changed
        if changed:
            prev_inner = labels0

        if weight_mode in ("none", "frozen"):
            converged = inner_stable
            break
        if prev_outer is not None and np.array_equal(labels0, prev_outer):
            converged = inner_stable
            break
        if updates >= config.outer_cap:
            converged = False
            break
        prev_outer = labels0
        t0 = time.perf_counter()
        member_sum, total_sum, sizes = _weight_stats(model, proto_vals, labels0, k)
        if weight_mode == "vector":
            weights = _weight_vector_from_stats(
                member_sum, total_sum, n, k, config.epsilon
            )
        else:
            weights = _weight_matrix_from_stats(
                member_sum, total_sum, sizes, n, config.epsilon
            )
        weights_s += time.perf_counter() - t0
        updates += 1
        just_updated = True
        inner_count = 0

    del prev_inner, prev_outer  # released before the labels tuple is built
    if converged:
        # terminal fixed-point entry: the stopping check re-evaluated an
        # unchanged state
        trace_z.append(trace_z[-1])
        trace_updated.append(False)
        trace_reseeded.append(False)

    cluster_s = time.perf_counter() - started - weights_s
    if weights is None:
        w_vec, w_mat = None, None
    elif weights.ndim == 1:
        w_vec, w_mat = tuple(float(x) for x in weights), None
    else:
        w_vec, w_mat = None, tuple(tuple(float(x) for x in row) for row in weights)
    return RunReport(
        variant=config.variant,
        k=k,
        seed=config.seed,
        labels=tuple((labels0 + 1).tolist()),
        weights=w_vec,
        weight_matrix=w_mat,
        trace_z=tuple(trace_z),
        trace_weights_updated=tuple(trace_updated),
        trace_reseeded=tuple(trace_reseeded),
        inner_iterations=inner_total,
        weight_updates=updates,
        converged=converged,
        inner_monotone=max_increase <= MONOTONE_TOLERANCE,
        max_inner_increase=max_increase,
        timings=PhaseTimings(prep.reconstruct_s, cluster_s, weights_s),
    )


def encode_ohe_oc(dataset: Dataset) -> np.ndarray:
    """Numeric encoding for the OHE+OC baseline: numerical attributes pass
    through, ordinal values become normalized ranks (t-1)/(v-1), nominal
    values become one-hot blocks (two different values sit at distance 2 in
    the squared-Euclidean geometry)."""
    cols: list[np.ndarray] = []
    for r, attr in enumerate(dataset.schema.attributes):
        col = dataset.cells[:, r]
        if attr.kind is AttributeKind.NUMERICAL:
            cols.append(col)
        elif attr.kind is AttributeKind.ORDINAL:
            cols.append((col - 1.0) / (attr.v - 1))
        else:
            onehot = np.zeros((dataset.n, attr.v))
            onehot[np.arange(dataset.n), col.astype(np.int64) - 1] = 1.0
            cols.extend(onehot.T)
    return np.column_stack(cols)
