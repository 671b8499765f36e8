"""Partition quality scores and multi-run aggregation.

Two validity indices: the adjusted pair-counting agreement between a
predicted partition and ground-truth classes (range [-1, 1]), and the
accuracy under the optimal one-to-one cluster-to-class mapping (range
[0, 1]). Both are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cluster import Partition, RunReport

__all__ = [
    "contingency",
    "ari",
    "ca",
    "aggregate_runs",
    "RunSummary",
    "format_mean_std",
]


def _as_labels(x) -> np.ndarray:
    if isinstance(x, Partition):
        x = x.labels
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("labelings must be one-dimensional")
    if arr.size and arr.min() < 1:
        raise ValueError("labels must be positive integers (1-based)")
    return arr


def contingency(labels, pred) -> np.ndarray:
    """Co-occurrence counts between two labelings.

    Entry (a, b) counts the objects with class a+1 and cluster b+1; row sums
    are class sizes, column sums cluster sizes.
    """
    truth = _as_labels(labels)
    guess = _as_labels(pred)
    if truth.shape[0] != guess.shape[0]:
        raise ValueError(
            f"labelings must have equal length, got {truth.shape[0]} "
            f"and {guess.shape[0]}"
        )
    n_rows = int(truth.max()) if truth.size else 0
    n_cols = int(guess.max()) if guess.size else 0
    pairs = (truth - 1) * n_cols + (guess - 1)
    return np.bincount(pairs, minlength=n_rows * n_cols).reshape(n_rows, n_cols)


def _canonical(arr: np.ndarray) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(int(x), len(seen)) for x in arr)


def ari(labels, pred) -> float:
    """Adjusted pair-counting agreement from the contingency table.

    When the adjustment is degenerate (expected agreement equals the maximum,
    e.g. both partitions all-singletons or all-one-cluster) the convention is
    1 for structurally identical partitions and 0 otherwise, with a warning.
    """
    truth = _as_labels(labels)
    guess = _as_labels(pred)
    if truth.shape[0] < 2:
        raise ValueError("need at least two objects")
    table = contingency(truth, guess)

    def _pairs(x: np.ndarray) -> float:
        return float((x * (x - 1) // 2).sum())

    index = _pairs(table)
    row_pairs = _pairs(table.sum(axis=1))
    col_pairs = _pairs(table.sum(axis=0))
    total_pairs = truth.shape[0] * (truth.shape[0] - 1) // 2
    expected = row_pairs * col_pairs / total_pairs
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        warnings.warn(
            "degenerate adjustment (maximum equals expected agreement); "
            "returning 1 for identical partitions, 0 otherwise",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0 if _canonical(truth) == _canonical(guess) else 0.0
    return (index - expected) / (maximum - expected)


def ca(labels, pred) -> float:
    """Accuracy under the optimal one-to-one cluster-to-class mapping.

    The contingency table is zero-padded to square and the best mapping is
    found by the Hungarian method in exact integer arithmetic; the score is
    the matched count over n. Invariant under permutations of cluster
    indices.
    """
    truth = _as_labels(labels)
    guess = _as_labels(pred)
    table = contingency(truth, guess)
    if truth.shape[0] == 0:
        raise ValueError("need at least one object")
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    return float(_max_matching(padded)) / truth.shape[0]


def _max_matching(weights: np.ndarray) -> int:
    """Largest total weight of a perfect matching in a square integer table.

    The Hungarian method with row and column potentials, adding one row at a
    time along a shortest augmenting path; each step scans the columns with
    numpy. Integer costs keep every potential exact.
    """
    size = weights.shape[0]
    cost = -weights
    big = np.iinfo(np.int64).max
    u = np.zeros(size + 1, dtype=np.int64)
    v = np.zeros(size + 1, dtype=np.int64)
    # row_of[j]: the 1-based row matched to column j; column 0 is the root.
    row_of = np.zeros(size + 1, dtype=np.int64)
    for i in range(1, size + 1):
        row_of[0] = i
        prev = np.zeros(size + 1, dtype=np.int64)
        slack = np.full(size + 1, big)
        used = np.zeros(size + 1, dtype=bool)
        j0 = 0
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            closer = free[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            prev[1:][closer] = j0
            candidates = np.where(free, slack, big)
            j1 = int(candidates.argmin())
            delta = candidates[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            j0 = j1
        while j0:
            j1 = prev[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return int(weights[row_of[1:] - 1, np.arange(size)].sum())


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean:.4f}±{std:.4f}"


@dataclass(frozen=True)
class RunSummary:
    """Mean and (population) standard deviation of scores across runs."""

    variant: str
    runs: int
    ari_mean: float
    ari_std: float
    ca_mean: float
    ca_std: float

    @classmethod
    def from_scores(
        cls, variant: str, aris: Sequence[float], cas: Sequence[float]
    ) -> RunSummary:
        """Aggregate per-run scores given in run order."""
        aris = np.array(aris, dtype=float)
        cas = np.array(cas, dtype=float)
        return cls(
            variant=variant,
            runs=len(aris),
            ari_mean=float(aris.mean()),
            ari_std=float(aris.std(ddof=0)),
            ca_mean=float(cas.mean()),
            ca_std=float(cas.std(ddof=0)),
        )

    def format_scores(self) -> tuple[str, str]:
        return (
            format_mean_std(self.ari_mean, self.ari_std),
            format_mean_std(self.ca_mean, self.ca_std),
        )


def aggregate_runs(reports: Sequence[RunReport], labels) -> RunSummary:
    """Score every report's partition against the ground truth and aggregate.

    Standard deviation uses the population convention so a single run
    reports 0.
    """
    if not reports:
        raise ValueError("need at least one report")
    truth = _as_labels(labels)
    return RunSummary.from_scores(
        reports[0].variant,
        [ari(truth, r.labels) for r in reports],
        [ca(truth, r.labels) for r in reports],
    )
