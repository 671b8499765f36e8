import itertools
import warnings

import numpy as np
import pytest

from harr.cluster import RunReport
from harr.evaluation import aggregate_runs, ari, ca, contingency, format_mean_std

from oracles import ari_paircount_oracle, ca_permutation_oracle


def _random_labelings(rng, n_max=30, k_max=5):
    n = int(rng.integers(2, n_max + 1))
    k1 = int(rng.integers(1, k_max + 1))
    k2 = int(rng.integers(1, k_max + 1))
    return (
        rng.integers(1, k1 + 1, size=n).tolist(),
        rng.integers(1, k2 + 1, size=n).tolist(),
    )


class TestContingency:
    def test_single_cluster(self):
        assert contingency([1] * 5, [1] * 5).tolist() == [[5]]

    def test_two_by_two(self):
        table = contingency([1, 1, 2, 2], [1, 2, 1, 2])
        assert table.tolist() == [[1, 1], [1, 1]]

    def test_total_is_n(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels, pred = _random_labelings(rng)
            assert contingency(labels, pred).sum() == len(labels)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            contingency([1, 2], [1])


class TestAri:
    def test_identical_is_one(self):
        assert ari([1, 2, 1, 3], [1, 2, 1, 3]) == pytest.approx(1.0)

    def test_crossed_two_by_two(self):
        # independently verified by pair counting: the value is -0.5
        got = ari([1, 1, 2, 2], [1, 2, 1, 2])
        assert got == pytest.approx(ari_paircount_oracle([1, 1, 2, 2], [1, 2, 1, 2]))
        assert got == pytest.approx(-0.5)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            labels, pred = _random_labelings(rng)
            want = ari_paircount_oracle(labels, pred)
            if (labels == pred) or want in (0.0, 1.0):
                pass
            assert ari(labels, pred) == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels, pred = _random_labelings(rng)
            assert ari(labels, pred) == pytest.approx(ari(pred, labels), abs=1e-12)
            relabeled = [x + 7 for x in pred]
            assert ari(labels, relabeled) == pytest.approx(
                ari(labels, pred), abs=1e-12
            )

    def test_degenerate_identical_singletons(self):
        labels = list(range(1, 6))
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert ari(labels, labels) == 1.0

    def test_degenerate_all_one_cluster_both(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert ari([1, 1, 1], [2, 2, 2]) == 1.0

    def test_trivial_mismatch_scores_zero_without_degeneracy(self):
        # one-cluster truth vs singleton prediction is not a degenerate
        # adjustment; the formula itself yields 0
        assert ari([1, 1, 1], [1, 2, 3]) == 0.0


def _ari_float_rule(labels, pred) -> tuple[float, bool]:
    """``ari`` as it was when it decided degeneracy by comparing floats and
    then scored 1 only for labelings identical up to relabeling; also
    whether it found the adjustment degenerate."""
    table = contingency(labels, pred)

    def _pairs(x):
        return float((x * (x - 1) // 2).sum())

    index = _pairs(table)
    row_pairs = _pairs(table.sum(axis=1))
    col_pairs = _pairs(table.sum(axis=0))
    total_pairs = len(labels) * (len(labels) - 1) // 2
    expected = row_pairs * col_pairs / total_pairs
    maximum = (row_pairs + col_pairs) / 2.0
    if maximum == expected:
        nonzero = table > 0
        same = max(nonzero.sum(axis=0).max(), nonzero.sum(axis=1).max()) <= 1
        return float(same), True
    return (index - expected) / (maximum - expected), False


def test_ari_equals_the_float_rule():
    # 20,000 random labelings, a quarter of them both all singletons and a
    # quarter both a single group, with labels spread up to 60 (sparse
    # labels leave empty rows and columns in the table): the integer test
    # finds the same degenerate cases, each scored 1, and every score is the
    # same float.
    rng = np.random.default_rng(17)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for trial in range(20_000):
            n = int(rng.integers(2, 13))
            shape = trial % 4
            if shape == 0:  # both all singletons
                labels, pred = (rng.choice(60, n, replace=False) + 1 for _ in range(2))
            elif shape == 1:  # both a single group
                labels, pred = (np.full(n, rng.integers(1, 61)) for _ in range(2))
            else:
                k1, k2 = rng.integers(1, n + 1, size=2)
                spread = 60 if shape == 3 else max(k1, k2)
                labels = rng.choice(spread, k1, replace=False)[rng.integers(0, k1, n)] + 1
                pred = rng.choice(spread, k2, replace=False)[rng.integers(0, k2, n)] + 1
            warned = len(caught)
            got = ari(labels, pred)
            warned = len(caught) > warned
            assert (got, warned) == _ari_float_rule(labels, pred), (labels, pred)
        degenerate = len(caught)
    assert degenerate >= 10_000


class TestCa:
    def test_identical_is_one(self):
        assert ca([1, 2, 1], [1, 2, 1]) == 1.0

    def test_permutation_invariance(self):
        labels = [1, 1, 2, 2, 3, 3]
        pred = [3, 3, 1, 1, 2, 2]
        assert ca(labels, pred) == 1.0

    def test_crossed_two_by_two(self):
        assert ca([1, 1, 2, 2], [1, 2, 1, 2]) == 0.5

    def test_matches_exhaustive_permutations(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            labels, pred = _random_labelings(rng, n_max=20, k_max=5)
            assert ca(labels, pred) == pytest.approx(
                ca_permutation_oracle(labels, pred), abs=1e-12
            )

    def test_rectangular_contingency(self):
        labels = [1, 1, 2, 2, 3, 3]
        pred = [1, 1, 1, 1, 2, 2]
        assert ca(labels, pred) == pytest.approx(
            ca_permutation_oracle(labels, pred), abs=1e-12
        )

    @pytest.mark.parametrize("top", [3, 1000])
    def test_matches_linear_sum_assignment(self, top):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(top)
        for _ in range(60):
            shape = rng.integers(1, 31, size=2)
            table = rng.integers(0, top, size=shape)
            table[0, 0] += 1  # at least one object
            rows, cols = np.nonzero(table)
            counts = table[rows, cols]
            labels = np.repeat(rows + 1, counts)
            pred = np.repeat(cols + 1, counts)
            side = max(labels.max(), pred.max())
            padded = np.zeros((side, side), dtype=np.int64)
            padded[: labels.max(), : pred.max()] = contingency(labels, pred)
            r, c = optimize.linear_sum_assignment(padded, maximize=True)
            assert ca(labels, pred) == float(padded[r, c].sum()) / labels.size

    def test_balanced_floor(self):
        rng = np.random.default_rng(6)
        k = 4
        labels = ([1] * 6 + [2] * 6 + [3] * 6 + [4] * 6)
        pred = rng.integers(1, k + 1, size=len(labels)).tolist()
        assert ca(labels, pred) >= 1.0 / k


def _report(labels, seed=0, ari_val=None, ca_val=None):
    return RunReport(
        variant="KPT",
        k=max(labels),
        seed=seed,
        labels=tuple(labels),
        weights=None,
        weight_matrix=None,
        trace_z=(1.0,),
        trace_weights_updated=(False,),
        trace_reseeded=(False,),
        converged=True,
        ari=ari_val,
        ca=ca_val,
    )


class TestAggregate:
    def test_single_run_zero_std(self):
        truth = [1, 1, 2, 2]
        summary = aggregate_runs([_report([1, 1, 2, 2])], truth)
        assert summary.ari_std == 0.0 and summary.ca_std == 0.0
        assert summary.ari_mean == pytest.approx(1.0)

    def test_two_run_mean(self):
        truth = [1, 1, 2, 2, 3, 3]
        r1 = _report([1, 1, 2, 2, 3, 3])
        r2 = _report([1, 1, 2, 2, 3, 1], seed=1)
        summary = aggregate_runs([r1, r2], truth)
        expected = (ari(truth, r1.labels) + ari(truth, r2.labels)) / 2
        assert summary.ari_mean == pytest.approx(expected, abs=1e-12)

    def test_formatting(self):
        assert format_mean_std(0.43672, 0.04949) == "0.4367±0.0495"

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        truth = rng.integers(1, 4, size=30).tolist()
        reports = [
            _report(rng.integers(1, 4, size=30).tolist(), seed=s) for s in range(5)
        ]
        s1 = aggregate_runs(reports, truth)
        s2 = aggregate_runs(reports, truth)
        assert s1 == s2


def test_assignment_beats_every_permutation_small():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(5, 15))
        labels = rng.integers(1, 4, size=n).tolist()
        pred = rng.integers(1, 4, size=n).tolist()
        table = contingency(labels, pred)
        side = max(table.shape)
        padded = np.zeros((side, side), dtype=int)
        padded[: table.shape[0], : table.shape[1]] = table
        best = max(
            sum(padded[perm[j], j] for j in range(side))
            for perm in itertools.permutations(range(side))
        )
        assert ca(labels, pred) == pytest.approx(best / n, abs=1e-12)


@pytest.mark.parametrize("score", [ari, ca, contingency])
def test_non_integral_labels_are_rejected(score):
    with pytest.raises(ValueError, match="^labels must be integers$"):
        score([1.9, 2, 1, 2], [1, 2, 1, 2])
    with pytest.raises(ValueError, match="^labels must be integers$"):
        score([1, 2, 1, 2], [1, 2, 1, 2.5])


@pytest.mark.parametrize("score", [ari, ca, contingency])
def test_labels_beyond_int64_are_rejected(score):
    message = r"^labels must be positive integers \(1-based\)$"
    with pytest.raises(ValueError, match=message):
        score([10**20, 1], [1, 1])
    with pytest.raises(ValueError, match=message):
        score([1, 1], [1, 2**70])


@pytest.mark.parametrize("score", [ari, ca])
def test_scores_are_sized_by_distinct_labels(score):
    # a table sized by the largest label would have 2**124 cells here
    small = [1, 2, 2, 1, 2], [2, 2, 1, 1, 2]
    big = [[2**62 if x == 2 else x for x in labels] for labels in small]
    assert score(*big) == score(*small)
