"""Base distances between categorical values via conditional distributions.

For every pair of possible values of a categorical attribute, the base
distance accumulates, over all attributes, the total-variation difference
between the conditional probability distributions observed given each value
of the pair. Numerical attributes contribute through their discretized
ordinal view; they never receive a distance matrix of their own.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import (
    AttributeKind,
    AttributeSchema,
    Dataset,
    OrdinalView,
    _freeze,
    _frozen,
    _Record,
    _write_text,
    discretize_numerical,
)

__all__ = [
    "CpdTable",
    "BaseDistanceTable",
    "compute_cpd",
    "base_distance_nominal",
    "base_distance_ordinal",
    "build_base_distances",
    "dump_base_distances",
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
    """One symmetric, zero-diagonal distance matrix per categorical attribute.

    ``matrices[r]`` is None for numerical attributes.
    """

    matrices: tuple[np.ndarray | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "matrices",
            tuple(None if m is None else _frozen(m) for m in self.matrices),
        )


def compute_cpd(
    dataset: Dataset, view: OrdinalView, target: int, context: int
) -> CpdTable:
    """Conditional distribution of attribute ``context`` given each value of
    the categorical attribute ``target``.

    Numerical context attributes enter through their ordinal-view bins. A
    target value with zero occurrences yields an all-zero row.
    """
    if not dataset.schema.attributes[target].kind.is_categorical:
        raise ValueError(
            f"target attribute {dataset.schema.attributes[target].name!r} "
            "is not categorical"
        )
    v_t = view.bin_counts[target]
    v_c = view.bin_counts[context]
    pairs = (view.codes[:, target] - 1) * v_c + (view.codes[:, context] - 1)
    joint = np.bincount(pairs, minlength=v_t * v_c).reshape(v_t, v_c)
    probs, counts = _conditional(joint)
    return CpdTable(target, context, _freeze(probs), _freeze(counts))


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


def _per_context(dataset: Dataset, view: OrdinalView, r: int) -> list[np.ndarray]:
    """Attribute ``r``'s conditional distributions, one per context attribute
    in order, after the unobserved-value warning."""
    attr = dataset.schema.attributes[r]
    if not attr.kind.is_categorical:
        raise ValueError(f"attribute {attr.name!r} is not categorical")
    _warn_unobserved(attr, np.bincount(view.codes[:, r] - 1, minlength=attr.v))
    return [compute_cpd(dataset, view, r, s).probs for s in range(dataset.schema.d)]


def base_distance_nominal(
    dataset: Dataset, view: OrdinalView, r: int
) -> np.ndarray:
    """Pairwise base distances for nominal attribute ``r``.

    Every attribute acts as context, the attribute itself included, so two
    distinct observed values are always at distance of at least 2.
    """
    return _kappa_nominal(_per_context(dataset, view, r))


def _kappa_nominal(per_context: list[np.ndarray]) -> np.ndarray:
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


def base_distance_ordinal(
    dataset: Dataset, view: OrdinalView, r: int
) -> np.ndarray:
    """Pairwise base distances for ordinal attribute ``r``.

    Adjacent ranks get the total-variation construction; non-adjacent pairs
    accumulate the adjacent distances along the rank order, so the matrix is
    additive along the order by construction.
    """
    return _kappa_ordinal(_per_context(dataset, view, r))


def _kappa_ordinal(per_context: list[np.ndarray]) -> np.ndarray:
    v = per_context[0].shape[0]
    adjacent = np.zeros(v - 1)
    for probs in per_context:
        adjacent += np.abs(np.diff(probs, axis=0)).sum(axis=1)
    kappa = np.zeros((v, v))
    for g in range(v - 1):
        for h in range(g + 1, v):
            kappa[g, h] = kappa[h, g] = math.fsum(adjacent[g:h])
    return kappa


def build_base_distances(
    dataset: Dataset, view: OrdinalView | None = None
) -> BaseDistanceTable:
    """One base-distance matrix per categorical attribute of ``dataset``.

    Nominal attributes use the full pairwise construction, ordinal attributes
    the additive-along-rank construction. The dataset must be normalized; the
    ordinal view is built on demand when not supplied.

    Each unordered attribute pair's joint counts are taken once, from the
    0-based code columns: the reverse pair reads their transpose and an
    attribute paired with itself its value counts on the diagonal. The
    counts are exact integers, so every distribution is bitwise the one
    ``compute_cpd`` gives.
    """
    if view is None:
        view = discretize_numerical(dataset)
    attrs, sizes = dataset.schema.attributes, view.bin_counts
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
                pairs = np.multiply(codes0[r], sizes[s], dtype=np.intp)
                pairs += codes0[s]
                joint = np.bincount(pairs, minlength=attr.v * sizes[s])
                joint = joint.reshape(attr.v, sizes[s])
                if other.kind.is_categorical:
                    later[r, s] = joint
            per_context.append(_conditional(joint)[0])
        if attr.kind is AttributeKind.ORDINAL:
            matrices.append(_freeze(_kappa_ordinal(per_context)))
        else:
            matrices.append(_freeze(_kappa_nominal(per_context)))
    return BaseDistanceTable(tuple(matrices))


def dump_base_distances(
    table: BaseDistanceTable, dataset: Dataset, out_dir: str
) -> list[str]:
    """Debug dump: one CSV per categorical attribute, 12 significant digits."""
    paths = []
    for r, mat in enumerate(table.matrices):
        if mat is None:
            continue
        name = dataset.schema.attributes[r].name
        text = "".join(",".join(format(x, ".12g") for x in row) + "\n" for row in mat)
        path = os.path.join(out_dir, f"base_distance_{name}.csv")
        paths.append(_write_text(path, text))
    return paths
