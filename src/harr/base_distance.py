"""Base distances between categorical values via conditional distributions.

For every pair of possible values of a categorical attribute, the base
distance accumulates, over all attributes, the total-variation difference
between the conditional probability distributions observed given each value
of the pair. Numerical attributes contribute through their discretized
ordinal view; they never receive a distance matrix of their own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import (
    AttributeKind,
    AttributeSchema,
    DatasetSchema,
    OrdinalView,
    _freeze,
    _frozen,
    _Record,
)

__all__ = [
    "CpdTable",
    "BaseDistanceTable",
    "compute_cpd",
    "build_base_distances",
]


@dataclass(frozen=True, eq=False)
class CpdTable(_Record):
    """Conditional distribution of a context attribute given target values.

    ``probs[g, j]`` is the probability of the context attribute taking its
    j-th code among objects whose target attribute equals the g-th value.
    Rows conditioned on values that never occur are all zero and flagged
    through ``unobserved``.
    """

    target: int
    context: int
    probs: np.ndarray
    target_counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _frozen(self.probs))
        object.__setattr__(self, "target_counts", _frozen(self.target_counts))

    @property
    def unobserved(self) -> np.ndarray:
        return self.target_counts == 0


@dataclass(frozen=True, eq=False)
class BaseDistanceTable(_Record):
    """One symmetric, zero-diagonal distance matrix per categorical attribute
    of ``schema``.

    ``matrices[r]`` is None for a numerical attribute and a (v, v) matrix
    for a categorical one; any other table raises ValueError.
    """

    schema: DatasetSchema
    matrices: tuple[np.ndarray | None, ...]

    def __post_init__(self) -> None:
        matrices = tuple(None if m is None else _frozen(m) for m in self.matrices)
        d = self.schema.d
        fault = None if len(matrices) == d else "not one entry per attribute"
        for r, attr in enumerate(self.schema.attributes):
            kappa = matrices[r] if len(matrices) == d else None
            if attr.kind.is_categorical and (kappa is None or kappa.shape != (attr.v, attr.v)):
                fault = f"no ({attr.v}, {attr.v}) matrix for categorical attribute {attr.name!r}"
                break
            if not attr.kind.is_categorical and kappa is not None:
                fault = f"a matrix for numerical attribute {attr.name!r}"
                break
        if fault is not None:
            raise ValueError(
                f"base-distance table ({len(matrices)} matrices, {d} attributes) has {fault}"
            )
        object.__setattr__(self, "matrices", matrices)


def compute_cpd(view: OrdinalView, target: int, context: int) -> CpdTable:
    """Conditional distribution of attribute ``context`` given each value of
    the categorical attribute ``target``, over the objects of ``view``.

    Numerical context attributes enter through their ordinal-view bins. A
    target value with zero occurrences yields an all-zero row.
    """
    if not (attr := view.schema.attributes[target]).kind.is_categorical:
        raise ValueError(f"target attribute {attr.name!r} is not categorical")
    v_t, v_c = view.bin_counts[target], view.bin_counts[context]
    joint = _joint(view.codes[:, target] - 1, view.codes[:, context] - 1, v_t, v_c)
    probs, counts = _conditional(joint)
    return CpdTable(target, context, _freeze(probs), _freeze(counts))


def _joint(codes0_t: np.ndarray, codes0_c: np.ndarray, v_t: int, v_c: int) -> np.ndarray:
    """The v_t x v_c table counting each pair of 0-based codes, one object
    per pair."""
    pairs = np.multiply(codes0_t, v_c, dtype=np.intp)
    pairs += codes0_c
    return np.bincount(pairs, minlength=v_t * v_c).reshape(v_t, v_c)


def _conditional(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the integer count table ``joint`` over its total, as a
    C-ordered float array, and the row totals; a row without counts stays
    zero."""
    joint = joint.astype(float, order="C")
    counts = joint.sum(axis=1)
    probs = np.divide(
        joint, counts[:, None], out=np.zeros_like(joint), where=counts[:, None] > 0
    )
    return probs, counts


def _warn_unobserved(attr: AttributeSchema, counts: np.ndarray) -> None:
    """Warn about the declared values of ``attr`` with no occurrence."""
    if (counts == 0).any():
        missing = [attr.possible_values[i] for i in np.flatnonzero(counts == 0)]
        warnings.warn(
            f"attribute {attr.name!r}: declared values never observed: "
            f"{', '.join(missing)}; their distance rows are computed against "
            "all-zero conditional distributions",
            RuntimeWarning,
            stacklevel=3,
        )


def _kappa_nominal(per_context: list[np.ndarray]) -> np.ndarray:
    """A nominal attribute's κ from its distributions given each context
    attribute, itself included, so two distinct observed values are always
    at least 2 apart."""
    v = per_context[0].shape[0]
    kappa = np.zeros((v, v))
    for probs in per_context:
        kappa += _cityblock(probs)
    return kappa


def _cityblock(p: np.ndarray) -> np.ndarray:
    """L1 distances between the rows of ``p``.

    Each pair sums its column terms from zero in column order, as a
    pairwise cityblock routine does. Callers add the finished sum to their
    total: adding each term to the total directly moves the last bits.
    """
    dist = np.zeros((p.shape[0], p.shape[0]))
    for j in range(p.shape[1]):
        dist += np.abs(p[:, None, j] - p[None, :, j])
    return dist


def _kappa_ordinal(per_context: list[np.ndarray]) -> np.ndarray:
    """An ordinal attribute's κ: adjacent ranks get the total-variation
    construction, and other pairs sum the adjacent distances between them,
    so κ is additive along the rank order."""
    v = per_context[0].shape[0]
    adjacent = np.zeros(v - 1)
    for probs in per_context:
        adjacent += np.abs(np.diff(probs, axis=0)).sum(axis=1)
    kappa = np.zeros((v, v))
    for g in range(v - 1):
        for h in range(g + 1, v):
            kappa[g, h] = kappa[h, g] = math.fsum(adjacent[g:h])
    return kappa


def build_base_distances(view: OrdinalView) -> BaseDistanceTable:
    """One base-distance matrix per categorical attribute of the dataset
    that ``view`` discretizes.

    Nominal attributes use the full pairwise construction, ordinal attributes
    the additive-along-rank construction.

    Each unordered attribute pair's joint counts are taken once, from the
    0-based code columns: the reverse pair reads their transpose and an
    attribute paired with itself its value counts on the diagonal. The
    counts are exact integers, so every distribution is bitwise the one
    ``compute_cpd`` gives.
    """
    attrs, sizes = view.schema.attributes, view.bin_counts
    # each column in its smallest unsigned type: no second n x d int64 table
    codes0 = [
        (view.codes[:, s] - 1).astype(np.min_scalar_type(v - 1))
        for s, v in enumerate(sizes)
    ]
    later: dict[tuple[int, int], np.ndarray] = {}  # (r, s) counts that s reads
    matrices: list[np.ndarray | None] = []
    for r, attr in enumerate(attrs):
        if not attr.kind.is_categorical:
            matrices.append(None)
            continue
        counts = np.bincount(codes0[r], minlength=attr.v)
        _warn_unobserved(attr, counts)
        per_context = []
        for s, other in enumerate(attrs):
            if s == r:
                joint = np.diag(counts)
            elif (s, r) in later:
                joint = later.pop((s, r)).T
            else:
                joint = _joint(codes0[r], codes0[s], attr.v, sizes[s])
                if other.kind.is_categorical:
                    later[r, s] = joint
            per_context.append(_conditional(joint)[0])
        if attr.kind is AttributeKind.ORDINAL:
            matrices.append(_freeze(_kappa_ordinal(per_context)))
        else:
            matrices.append(_freeze(_kappa_nominal(per_context)))
    return BaseDistanceTable(view.schema, tuple(matrices))
