"""Partition quality scores.

Two validity indices: the adjusted pair-counting agreement between a
predicted partition and ground-truth classes (range [-1, 1]), and the
accuracy under the optimal one-to-one cluster-to-class mapping (range
[0, 1]). Both are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import warnings

import numpy as np

from .schema import _label_array

__all__ = ["contingency", "ari", "ca"]


def _compact(labels: np.ndarray) -> np.ndarray:
    """``labels`` numbered 1..(distinct labels) when its largest label exceeds
    its length, so a score's table is bounded by the objects; ARI and CA do
    not change under relabeling. harr's own labels never exceed k <= n, so
    they skip the sort."""
    if labels.size and labels.max() > labels.size:
        return np.unique(labels, return_inverse=True)[1] + 1
    return labels


def contingency(labels, pred) -> np.ndarray:
    """Co-occurrence counts between two labelings.

    Entry (a, b) counts the objects with class a+1 and cluster b+1; row sums
    are class sizes, column sums cluster sizes.
    """
    truth = _label_array(labels)
    guess = _label_array(pred)
    if truth.shape[0] != guess.shape[0]:
        raise ValueError(
            f"labelings must have equal length, got {truth.shape[0]} "
            f"and {guess.shape[0]}"
        )
    n_rows = int(truth.max()) if truth.size else 0
    n_cols = int(guess.max()) if guess.size else 0
    pairs = (truth - 1) * n_cols + (guess - 1)
    return np.bincount(pairs, minlength=n_rows * n_cols).reshape(n_rows, n_cols)


def ari(labels, pred) -> float:
    """Adjusted pair-counting agreement from the contingency table.

    The adjustment is degenerate (expected agreement equals the maximum)
    exactly when both labelings are all singletons or both a single group;
    the score is then 1, with a warning.
    """
    truth = _compact(_label_array(labels))
    guess = _compact(_label_array(pred))
    if truth.shape[0] < 2:
        raise ValueError("need at least two objects")
    table = contingency(truth, guess)

    def _pairs(x: np.ndarray) -> int:
        return int((x * (x - 1) // 2).sum())

    index = _pairs(table)
    row_pairs = _pairs(table.sum(axis=1))
    col_pairs = _pairs(table.sum(axis=0))
    total_pairs = truth.shape[0] * (truth.shape[0] - 1) // 2
    # maximum == expected, decided in integers
    if 2 * row_pairs * col_pairs == total_pairs * (row_pairs + col_pairs):
        warnings.warn(
            "degenerate adjustment (maximum equals expected agreement); "
            "returning 1: both labelings are all singletons or both are a "
            "single group",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1.0
    expected = float(row_pairs) * float(col_pairs) / total_pairs
    maximum = (float(row_pairs) + float(col_pairs)) / 2.0
    return (float(index) - expected) / (maximum - expected)


def ca(labels, pred) -> float:
    """Accuracy under the optimal one-to-one cluster-to-class mapping.

    The contingency table is zero-padded to square and the best mapping is
    found by the Hungarian method in exact integer arithmetic; the score is
    the matched count over n. Invariant under permutations of cluster
    indices.
    """
    truth = _compact(_label_array(labels))
    guess = _compact(_label_array(pred))
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
