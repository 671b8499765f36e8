import itertools

import numpy as np
import pytest

from harr.cluster import PhaseTimings, RunReport
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
        inner_iterations=1,
        weight_updates=0,
        converged=True,
        inner_monotone=True,
        max_inner_increase=0.0,
        ari=ari_val,
        ca=ca_val,
        timings=PhaseTimings(),
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
