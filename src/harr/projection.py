"""Projection of categorical values onto one-dimensional coordinate spaces.

Every categorical attribute is rebuilt as a set of one-dimensional
sub-attributes. A nominal attribute with v values yields one sub-attribute
per unordered value pair: each value is projected onto the line through the
pair, its coordinate derived from the three pairwise base distances by the
Pythagorean relation. An ordinal attribute, whose values already sit on one
line, yields a single sub-attribute with coordinates accumulated along the
rank order. Coordinates are then scaled per sub-attribute so the largest
value-level distance is 1, comparable to normalized numerical attributes.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .base_distance import BaseDistanceTable
from .schema import AttributeKind, Dataset, DatasetSchema, _freeze

__all__ = [
    "ORDINAL_LINE",
    "HAMMING_FALLBACK",
    "ProjectedAttribute",
    "ReconstructedSpace",
    "project_nominal",
    "project_ordinal",
    "normalize_projected",
    "hamming_fallback",
    "value_distance",
    "reconstruct",
    "dump_reconstruction",
]

# Span markers for sub-attributes that are not spanned by a value pair.
ORDINAL_LINE = "ordinal-line"
HAMMING_FALLBACK = "hamming"


@dataclass(frozen=True)
class ProjectedAttribute:
    """A one-dimensional sub-attribute of a source categorical attribute.

    ``span`` is the spanning value pair (1-based indices) for nominal
    projections, or one of the markers ``ORDINAL_LINE`` / ``HAMMING_FALLBACK``.
    ``coords[t]`` is the coordinate of value t+1 on the line; for the fallback
    marker the coordinates are unused and value distances are 0/1 mismatch.
    ``max_span`` is the largest pairwise coordinate gap used to normalize.
    """

    source: int
    span: tuple[int, int] | str
    coords: np.ndarray
    max_span: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _freeze(np.asarray(self.coords, float)))

    @property
    def v(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class ReconstructedSpace:
    """The expanded attribute set: numerical pass-throughs plus every
    sub-attribute of every categorical attribute, in a fixed order
    (pass-throughs first, then sub-attributes by source and spanning pair)."""

    schema: DatasetSchema
    numeric_attrs: tuple[int, ...]
    sub_attributes: tuple[ProjectedAttribute, ...]

    @property
    def d_hat(self) -> int:
        return len(self.numeric_attrs) + len(self.sub_attributes)

    def gamma(self, r: int) -> int:
        """Sub-attribute count contributed by source attribute ``r``."""
        return sum(a.source == r for a in self.sub_attributes)


def _span_gap(coords: np.ndarray) -> float:
    return float(coords.max() - coords.min()) if len(coords) else 0.0


def project_nominal(kappa: np.ndarray, source: int = 0) -> list[ProjectedAttribute]:
    """One sub-attribute per unordered value pair with positive base distance.

    The coordinate of value t on the line through values (g, h) is its
    projection along that line, measured from g; it is signed, so values that
    project beyond g keep a consistent arrangement and any two spanning pairs
    of collinear configurations produce the same pairwise gaps. Spans whose
    spanning pair is at base distance zero are dropped with a warning; an
    empty result signals that the caller should fall back to 0/1 mismatch.
    """
    kappa = np.asarray(kappa, dtype=float)
    v = kappa.shape[0]
    out: list[ProjectedAttribute] = []
    dropped: list[tuple[int, int]] = []
    sq = kappa * kappa
    for g in range(v - 1):
        for h in range(g + 1, v):
            c = kappa[g, h]
            if c <= 0.0:
                dropped.append((g + 1, h + 1))
                continue
            coords = (sq[:, g] - sq[:, h] + c * c) / (2.0 * c)
            out.append(
                ProjectedAttribute(source, (g + 1, h + 1), coords, _span_gap(coords))
            )
    if dropped:
        warnings.warn(
            f"attribute index {source}: dropped degenerate spans "
            f"{dropped} (zero base distance between the spanning pair)",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def project_ordinal(kappa: np.ndarray, source: int = 0) -> ProjectedAttribute | None:
    """Single line for an ordinal attribute: the coordinate of each value is
    its base distance from the lowest-ranked value.

    Returns None when the matrix is all zero (degenerate; callers fall back
    to 0/1 mismatch).
    """
    kappa = np.asarray(kappa, dtype=float)
    coords = kappa[:, 0].copy()
    gap = _span_gap(coords)
    if gap <= 0.0:
        warnings.warn(
            f"attribute index {source}: ordinal base distances are all zero; "
            "projection is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return ProjectedAttribute(source, ORDINAL_LINE, coords, gap)


def normalize_projected(attr: ProjectedAttribute) -> ProjectedAttribute | None:
    """Scale coordinates by the largest pairwise gap of this sub-attribute so
    its maximum value-level distance is 1.

    Returns None (attribute dropped) when the gap is zero. Fallback
    sub-attributes are already unit-scale and pass through unchanged.
    """
    if attr.span == HAMMING_FALLBACK:
        return attr
    gap = _span_gap(attr.coords)
    if gap <= 0.0:
        warnings.warn(
            f"attribute index {attr.source}, span {attr.span}: all coordinates "
            "equal; sub-attribute dropped",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return ProjectedAttribute(attr.source, attr.span, attr.coords / gap, gap)


def hamming_fallback(v: int, source: int = 0) -> ProjectedAttribute:
    """0/1 mismatch sub-attribute used when every span of an attribute is
    degenerate; keeps the attribute in play."""
    return ProjectedAttribute(source, HAMMING_FALLBACK, np.zeros(v), 1.0)


def value_distance(attr: ProjectedAttribute, u: int, f: int) -> float:
    """Distance between two values (1-based indices) under one sub-attribute."""
    if attr.span == HAMMING_FALLBACK:
        return float(u != f)
    return float(abs(attr.coords[u - 1] - attr.coords[f - 1]))


def reconstruct(dataset: Dataset, table: BaseDistanceTable) -> ReconstructedSpace:
    """Build the expanded attribute set from the base-distance table.

    Sub-attributes are ordered by source attribute, then by spanning pair, so
    weight vectors are reproducible across runs and platforms. An attribute
    whose spans are all degenerate falls back to a single 0/1 mismatch
    sub-attribute. Pure function of its inputs.
    """
    subs: list[ProjectedAttribute] = []
    for r, attr in enumerate(dataset.schema.attributes):
        if not attr.kind.is_categorical:
            continue
        kappa = table.matrices[r]
        if kappa is None:
            raise ValueError(
                f"base-distance table has no matrix for categorical "
                f"attribute {attr.name!r}"
            )
        if attr.kind is AttributeKind.ORDINAL:
            raw = project_ordinal(kappa, source=r)
            raws = [raw] if raw is not None else []
        else:
            raws = project_nominal(kappa, source=r)
        normed = [normalize_projected(a) for a in raws]
        kept = [a for a in normed if a is not None]
        if not kept:
            warnings.warn(
                f"attribute {attr.name!r}: every span degenerate; falling back "
                "to a single 0/1 mismatch sub-attribute",
                RuntimeWarning,
                stacklevel=2,
            )
            kept = [hamming_fallback(attr.v, source=r)]
        subs.extend(kept)
    return ReconstructedSpace(
        dataset.schema, dataset.schema.numerical_indices(), tuple(subs)
    )


def dump_reconstruction(space: ReconstructedSpace, path: str) -> str:
    """Dump the coordinate table: one row per sub-attribute
    (source name, span, normalized coordinates, 12 significant digits)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sub in space.sub_attributes:
            name = space.schema.attributes[sub.source].name
            span = (
                f"{sub.span[0]}-{sub.span[1]}"
                if isinstance(sub.span, tuple)
                else sub.span
            )
            coords = ",".join(format(x, ".12g") for x in sub.coords)
            fh.write(f"{name},{span},{coords}\n")
    return path
