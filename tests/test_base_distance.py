import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from harr.base_distance import (
    _cityblock,
    _kappa_ordinal,
    build_base_distances,
    compute_cpd,
)
from harr.schema import (
    AttributeKind,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

from conftest import random_dataset
from oracles import base_distance_table_oracle, kappa_nominal_oracle


def _dataset(schema_text, data_text, bins=None):
    schema = parse_schema(schema_text)
    dataset = normalize_numerical(ingest_table(data_text, schema))
    return dataset, discretize_numerical(dataset, bins=bins)


def _kappas(dataset, view, kind=None):
    """(r, κ) for each categorical attribute, or each one of ``kind``."""
    table = build_base_distances(view)
    for r, attr in enumerate(dataset.schema.attributes):
        if attr.kind.is_categorical and kind in (None, attr.kind):
            yield r, table.matrices[r]


class TestCpd:
    def test_self_conditioning_is_one_hot(self):
        dataset, view = _dataset("c,nom,a|b|c\n", "a\nb\nc\na\nb")
        cpd = compute_cpd(view, 0, 0)
        assert np.array_equal(cpd.probs, np.eye(3))

    def test_perfect_correlation_gives_identity(self):
        dataset, view = _dataset("x,nom,a|b\ny,nom,p|q\n", "a,p\nb,q\na,p\nb,q")
        cpd = compute_cpd(view, 0, 1)
        assert np.array_equal(cpd.probs, np.eye(2))

    def test_six_row_counts(self):
        # counts: (a,x): 2, (a,y): 1, (b,x): 0, (b,y): 3
        dataset, view = _dataset(
            "t,nom,a|b\nc,nom,x|y\n", "a,x\na,x\na,y\nb,y\nb,y\nb,y"
        )
        cpd = compute_cpd(view, 0, 1)
        assert np.allclose(cpd.probs, [[2 / 3, 1 / 3], [0.0, 1.0]], atol=1e-15)

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            view = discretize_numerical(dataset)
            for target in dataset.schema.categorical_indices():
                for context in range(dataset.schema.d):
                    cpd = compute_cpd(view, target, context)
                    sums = cpd.probs.sum(axis=1)
                    observed = ~cpd.unobserved
                    assert np.allclose(sums[observed], 1.0, atol=1e-9)
                    assert np.all(sums[~observed] == 0.0)

    def test_numerical_target_rejected(self):
        dataset, view = _dataset("x,num\nc,nom,a|b\n", "0.1,a\n0.9,b")
        with pytest.raises(ValueError, match="not categorical"):
            compute_cpd(view, 0, 1)


class TestNominal:
    def test_single_attribute_hamming_like(self):
        # With only the self-attribute as context, rows are one-hot and the
        # total-variation gap between two observed values is exactly 2.
        dataset, view = _dataset("c,nom,a|b|c\n", "a\nb\nc\na")
        kappa = build_base_distances(view).matrices[0]
        off = kappa[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0, atol=1e-12)
        assert np.all(np.diag(kappa) == 0.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            view = discretize_numerical(dataset)
            for _, kappa in _kappas(dataset, view):
                assert np.array_equal(kappa, kappa.T)
                assert np.all(np.diag(kappa) == 0.0)
                assert np.all(kappa >= 0.0)
            for _, kappa in _kappas(dataset, view, AttributeKind.NOMINAL):
                assert kappa.max() <= 2.0 * dataset.schema.d + 1e-12

    def test_eight_row_toy_matches_oracle(self):
        dataset, view = _dataset(
            "u,nom,a|b|c\nw,nom,x|y\n",
            "a,x\na,y\nb,x\nb,x\nc,y\nc,y\na,x\nb,y",
        )
        kappa = build_base_distances(view).matrices[0]
        expected = kappa_nominal_oracle(view, 0)
        assert np.allclose(kappa, expected, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:attribute .* never observed")
    def test_bitwise_equal_to_cdist_reference(self):
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(30):
            dataset = random_dataset(rng, max_n=200, max_d=6, max_v=30, min_categorical=1)
            view = discretize_numerical(dataset)
            for r, kappa in _kappas(dataset, view, AttributeKind.NOMINAL):
                v = dataset.schema.attributes[r].v
                expected = np.zeros((v, v))
                for s in range(dataset.schema.d):
                    probs = compute_cpd(view, r, s).probs
                    expected += distance.cdist(probs, probs, metric="cityblock")
                assert kappa.tobytes() == expected.tobytes()
                checked += 1
        assert checked >= 10

    def test_unobserved_value_warns(self):
        dataset, view = _dataset("c,nom,a|b|zz\n", "a\nb\na\nb")
        with pytest.warns(RuntimeWarning, match="never observed: zz"):
            kappa = build_base_distances(view).matrices[0]
        # unobserved value: zero CPD rows still yield a finite distance
        assert kappa[0, 2] > 0.0


class TestOrdinal:
    def test_additivity_from_adjacent(self):
        dataset, view = _dataset(
            "g,ord,low|mid|high\nx,nom,p|q\n",
            "low,p\nlow,p\nmid,p\nmid,q\nhigh,q\nhigh,q\nlow,q\nhigh,p\nmid,p\nlow,p",
        )
        kappa = build_base_distances(view).matrices[0]
        assert kappa[0, 2] == math.fsum([kappa[0, 1], kappa[1, 2]])

    def test_two_values_match_nominal(self):
        # the same cells under two schemas: g ordinal, then g nominal
        cells = "lo,p\nhi,q\nlo,q\nhi,p"
        ordinal = build_base_distances(_dataset("g,ord,lo|hi\nx,nom,p|q\n", cells)[1])
        nominal = build_base_distances(_dataset("g,nom,lo|hi\nx,nom,p|q\n", cells)[1])
        assert np.allclose(ordinal.matrices[0], nominal.matrices[0], atol=1e-12)

    def test_ten_row_toy_matches_oracle(self):
        dataset, view = _dataset(
            "g,ord,low|mid|high\nx,nom,p|q\n",
            "low,p\nlow,p\nmid,q\nmid,p\nhigh,q\nhigh,q\nlow,p\nmid,q\nhigh,p\nlow,q",
        )
        kappa = build_base_distances(view).matrices[0]
        expected = base_distance_table_oracle(dataset, view)[0]
        assert np.allclose(kappa, expected, atol=1e-12)

    def test_ordered_triple_equality(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(15):
            dataset = random_dataset(rng, min_categorical=1)
            view = discretize_numerical(dataset)
            for _, kappa in _kappas(dataset, view, AttributeKind.ORDINAL):
                checked += 1
                v = kappa.shape[0]
                for g in range(v):
                    for s in range(g + 1, v):
                        for h in range(s + 1, v):
                            assert kappa[g, h] == pytest.approx(
                                kappa[g, s] + kappa[s, h], abs=1e-12
                            )
        assert checked >= 5


class TestBuildTable:
    def test_pure_numerical_empty(self):
        dataset, view = _dataset("x,num\ny,num\n", "0.1,0.4\n0.9,0.2\n0.5,0.8")
        table = build_base_distances(view)
        assert all(m is None for m in table.matrices)

    def test_ds_shape_five_binary_matrices(self):
        schema_text = "t,num\n" + "".join(
            f"b{i},nom,yes|no\n" for i in range(5)
        )
        rows = []
        for i in range(12):
            toks = ["%.3f" % (i / 11)] + ["yes" if (i >> j) & 1 else "no" for j in range(5)]
            rows.append(",".join(toks))
        dataset, view = _dataset(schema_text, "\n".join(rows))
        table = build_base_distances(view)
        assert table.matrices[0] is None
        assert all(m.shape == (2, 2) for m in table.matrices[1:])

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        dataset = random_dataset(rng, min_categorical=1)
        view = discretize_numerical(dataset)
        t1 = build_base_distances(view)
        t2 = build_base_distances(view)
        for m1, m2 in zip(t1.matrices, t2.matrices):
            assert (m1 is None) == (m2 is None)
            if m1 is not None:
                assert np.array_equal(m1, m2)

    def test_numerical_context_contributes(self):
        # same categorical column, numerical context correlated vs constant
        base = "c,nom,a|b\nx,num\n"
        _, correlated = _dataset(base, "a,0.0\na,0.1\nb,0.9\nb,1.0")
        _, flat = _dataset(base, "a,0.5\na,0.5\nb,0.5\nb,0.5")
        k_corr = build_base_distances(correlated).matrices[0]
        k_flat = build_base_distances(flat).matrices[0]
        assert k_corr[0, 1] > k_flat[0, 1]

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(1234)
        for _ in range(8):
            dataset = random_dataset(rng, max_n=30, max_d=4, max_v=5, min_categorical=1)
            view = discretize_numerical(dataset)
            table = build_base_distances(view)
            expected = base_distance_table_oracle(dataset, view)
            for got, want in zip(table.matrices, expected):
                if got is None:
                    assert want is None
                else:
                    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.filterwarnings("ignore:attribute .* never observed")
@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_table_bitwise_equals_per_pair_cpds(seed, max_v):
    """Joint counts taken once per attribute pair give the same bits as one
    ``compute_cpd`` per (target, context) pair."""
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, max_n=80, max_d=6, max_v=max_v, min_categorical=1)
    view = discretize_numerical(dataset)
    table = build_base_distances(view)
    for r, attr in enumerate(dataset.schema.attributes):
        if not attr.kind.is_categorical:
            assert table.matrices[r] is None
            continue
        if attr.kind is AttributeKind.ORDINAL:
            want = _kappa_ordinal(
                [compute_cpd(view, r, s).probs for s in range(dataset.schema.d)]
            )
        else:
            want = np.zeros((attr.v, attr.v))
            for s in range(dataset.schema.d):
                want += _cityblock(compute_cpd(view, r, s).probs)
        assert table.matrices[r].tobytes() == want.tobytes()
