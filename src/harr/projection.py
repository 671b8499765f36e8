"""Projection of categorical values onto one-dimensional coordinate spaces.

Every categorical attribute is rebuilt as a set of one-dimensional
sub-attributes. A nominal attribute with v values yields one sub-attribute
per unordered value pair: each value is projected onto the line through the
pair, its coordinate derived from the three pairwise base distances by the
Pythagorean relation. An ordinal attribute, whose values already sit on one
line, yields a single sub-attribute with coordinates accumulated along the
rank order. Each projection scales its coordinates per sub-attribute so the
largest value-level distance is 1, comparable to normalized numerical
attributes.

The sub-attributes of one source attribute are stored together as one
``ProjectedBlock``: row i of its (γ, v) coordinate array is sub-attribute i.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .base_distance import BaseDistanceTable
from .schema import (
    AttributeKind,
    Dataset,
    DatasetSchema,
    _freeze,
    _frozen,
    _Record,
)

__all__ = [
    "ORDINAL_LINE",
    "HAMMING_FALLBACK",
    "ProjectedBlock",
    "ReconstructedSpace",
    "project_nominal",
    "project_ordinal",
    "hamming_fallback",
    "reconstruct",
]

# Span markers for sub-attributes that are not spanned by a value pair.
ORDINAL_LINE = "ordinal-line"
HAMMING_FALLBACK = "hamming"


@dataclass(frozen=True, eq=False)
class ProjectedBlock(_Record):
    """Every sub-attribute of one source categorical attribute, as arrays.

    Row i is one sub-attribute: ``spans[i]`` is its spanning value pair or
    marker, ``coords[i, t]`` the coordinate of value t+1 and ``max_span[i]``
    the largest pairwise coordinate gap used to normalize it.
    """

    source: int
    spans: tuple[tuple[int, int] | str, ...]
    coords: np.ndarray  # (gamma, v)
    max_span: np.ndarray  # (gamma,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _frozen(self.coords, float))
        object.__setattr__(self, "max_span", _frozen(self.max_span, float))

    @property
    def gamma(self) -> int:
        return len(self.spans)

    @property
    def v(self) -> int:
        return self.coords.shape[1]

    @property
    def is_fallback(self) -> bool:
        return self.spans == (HAMMING_FALLBACK,)


@dataclass(frozen=True, eq=False)
class ReconstructedSpace(_Record):
    """The expanded attribute set: numerical pass-throughs plus one block of
    sub-attributes per categorical attribute, in a fixed order (pass-throughs
    first, then sub-attributes by source and spanning pair)."""

    schema: DatasetSchema
    blocks: tuple[ProjectedBlock, ...]

    @property
    def numeric_attrs(self) -> tuple[int, ...]:
        return self.schema.numerical_indices()

    @property
    def d_hat(self) -> int:
        return len(self.numeric_attrs) + sum(b.gamma for b in self.blocks)

    def gamma(self, r: int) -> int:
        """Sub-attribute count contributed by source attribute ``r``."""
        return sum(b.gamma for b in self.blocks if b.source == r)

    @property
    def sub_attributes(self) -> tuple[ProjectedBlock, ...]:
        """Every sub-attribute in column order as a one-row block whose arrays
        are views of its block's rows, not copies. It exists for perfbench's
        traced run, which reads ``len`` and each entry's ``v``; the engine and
        the tests read ``blocks``."""
        return tuple(
            ProjectedBlock(b.source, b.spans[row], b.coords[row], b.max_span[row])
            for b in self.blocks
            for row in map(slice, range(b.gamma), range(1, b.gamma + 1))
        )


def project_nominal(kappa: np.ndarray, source: int = 0) -> ProjectedBlock:
    """One unit-scale sub-attribute per unordered value pair with positive
    base distance.

    The coordinate of value t on the line through values (g, h) is its
    projection along that line, measured from g; it is signed, so values that
    project beyond g keep a consistent arrangement and any two spanning pairs
    of collinear configurations produce the same pairwise gaps. Each row is
    then divided by its largest pairwise gap, kept as ``max_span``. Spans
    whose spanning pair is at base distance zero are dropped with one
    warning, then rows whose coordinates are all equal with one warning
    each; an empty block signals that the caller should fall back to 0/1
    mismatch.
    """
    kappa = np.asarray(kappa, dtype=float)
    g, h = np.triu_indices(kappa.shape[0], 1)
    c = kappa[g, h]
    degenerate = c <= 0.0
    if degenerate.any():
        dropped = list(zip((g[degenerate] + 1).tolist(), (h[degenerate] + 1).tolist()))
        warnings.warn(
            f"attribute index {source}: dropped degenerate spans "
            f"{dropped} (zero base distance between the spanning pair)",
            RuntimeWarning,
            stacklevel=2,
        )
        g, h, c = g[~degenerate], h[~degenerate], c[~degenerate]
    sq = (kappa * kappa).T  # sq[g] is column g of the squared distances
    coords = sq[g]  # becomes the block: the arithmetic below works in place
    coords -= sq[h]
    coords += (c * c)[:, None]
    coords /= (2.0 * c)[:, None]
    spans = tuple(zip((g + 1).tolist(), (h + 1).tolist()))
    gaps = np.ptp(coords, axis=1)
    flat = gaps <= 0.0
    for i in np.flatnonzero(flat):
        warnings.warn(
            f"attribute index {source}, span {spans[i]}: all coordinates "
            "equal; sub-attribute dropped",
            RuntimeWarning,
            stacklevel=2,
        )
    if flat.any():
        spans = tuple(s for s, drop in zip(spans, flat) if not drop)
        coords, gaps = coords[~flat], gaps[~flat]
    coords /= gaps[:, None]
    return ProjectedBlock(source, spans, _freeze(coords), _freeze(gaps))


def project_ordinal(kappa: np.ndarray, source: int = 0) -> ProjectedBlock:
    """Single unit-scale line for an ordinal attribute: the coordinate of
    each value is its base distance from the lowest-ranked value, divided by
    the largest such distance (``max_span``).

    When the matrix is all zero (degenerate) the block is empty, as for a
    nominal attribute whose spans are all degenerate: the caller falls back
    to 0/1 mismatch.
    """
    coords = np.asarray(kappa, dtype=float)[None, :, 0]
    gap = np.ptp(coords, axis=1)
    if gap[0] <= 0.0:
        warnings.warn(
            f"attribute index {source}: ordinal base distances are all zero; "
            "projection is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
        return ProjectedBlock(source, (), coords[:0], gap[:0])
    return ProjectedBlock(source, (ORDINAL_LINE,), _freeze(coords / gap), _freeze(gap))


def hamming_fallback(v: int, source: int = 0) -> ProjectedBlock:
    """0/1 mismatch sub-attribute used when every span of an attribute is
    degenerate; keeps the attribute in play."""
    coords, gap = _freeze(np.zeros((1, v))), _freeze(np.ones(1))
    return ProjectedBlock(source, (HAMMING_FALLBACK,), coords, gap)


def reconstruct(dataset: Dataset, table: BaseDistanceTable) -> ReconstructedSpace:
    """Build the expanded attribute set from the base-distance table.

    Sub-attributes are ordered by source attribute, then by spanning pair, so
    weight vectors are reproducible across runs and platforms. An attribute
    whose spans are all degenerate falls back to a single 0/1 mismatch
    sub-attribute. Pure function of its inputs.
    """
    schema, matrices = dataset.schema, table.matrices
    blocks: list[ProjectedBlock] = []
    for r, attr in enumerate(schema.attributes):
        if not attr.kind.is_categorical:
            continue
        kappa = matrices[r] if len(matrices) == schema.d else None
        if kappa is None or kappa.shape != (attr.v, attr.v):
            raise ValueError(
                f"base-distance table ({len(matrices)} matrices, {schema.d} "
                f"attributes) has no ({attr.v}, {attr.v}) matrix for "
                f"categorical attribute {attr.name!r}"
            )
        if attr.kind is AttributeKind.ORDINAL:
            block = project_ordinal(kappa, source=r)
        else:
            block = project_nominal(kappa, source=r)
        if not block.spans:
            warnings.warn(
                f"attribute {attr.name!r}: every span degenerate; falling back "
                "to a single 0/1 mismatch sub-attribute",
                RuntimeWarning,
                stacklevel=2,
            )
            block = hamming_fallback(attr.v, source=r)
        blocks.append(block)
    return ReconstructedSpace(schema, tuple(blocks))
