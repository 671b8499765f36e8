import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harr.base_distance import build_base_distances
from harr.projection import (
    ORDINAL_LINE,
    dump_reconstruction,
    hamming_fallback,
    normalize_projected,
    project_nominal,
    project_ordinal,
    reconstruct,
    value_distance,
)
from harr.schema import discretize_numerical, ingest_table, normalize_numerical, parse_schema

from conftest import build_dataset, random_dataset

# Three-value configuration used across several cases below.
KAPPA_ABC = np.array(
    [
        [0.0, 2.0, 1.0],
        [2.0, 0.0, 1.5],
        [1.0, 1.5, 0.0],
    ]
)


def additive_kappa(gaps):
    """Ordinal matrix from strictly positive adjacent gaps."""
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    return np.abs(pos[:, None] - pos[None, :])


class TestProjectNominal:
    def test_four_values_give_six_spans(self):
        rng = np.random.default_rng(0)
        pts = rng.random((4, 2))
        kappa = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        subs = project_nominal(kappa)
        assert len(subs) == 6
        assert [s.span for s in subs] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_endpoints_project_to_themselves(self):
        subs = project_nominal(KAPPA_ABC)
        span_ab = subs[0]
        assert span_ab.span == (1, 2)
        assert span_ab.coords[0] == 0.0
        assert span_ab.coords[1] == pytest.approx(2.0, rel=1e-12)

    def test_hand_computed_third_point(self):
        # |kappa(c,a)^2 - kappa(c,b)^2 + kappa(a,b)^2| / (2 kappa(a,b))
        subs = project_nominal(KAPPA_ABC)
        assert subs[0].coords[2] == pytest.approx(0.6875, abs=1e-12)

    def test_degenerate_span_dropped_with_warning(self):
        kappa = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        with pytest.warns(RuntimeWarning, match="degenerate spans"):
            subs = project_nominal(kappa)
        assert [s.span for s in subs] == [(1, 3), (2, 3)]

    def test_all_degenerate_signals_fallback(self):
        with pytest.warns(RuntimeWarning):
            subs = project_nominal(np.zeros((3, 3)))
        assert subs == []


class TestProjectOrdinal:
    def test_coords_accumulate_from_lowest(self):
        kappa = additive_kappa([0.4, 0.6])
        sub = project_ordinal(kappa)
        assert sub.span == ORDINAL_LINE
        assert np.allclose(sub.coords, [0.0, 0.4, 1.0], atol=1e-12)

    def test_two_values(self):
        kappa = additive_kappa([0.7])
        sub = project_ordinal(kappa)
        assert np.allclose(sub.coords, [0.0, 0.7], atol=1e-12)

    def test_zero_matrix_degenerate(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            assert project_ordinal(np.zeros((3, 3))) is None

    def test_overlap_with_nominal_spans(self):
        # On an additive matrix every pair span reproduces the line's
        # pairwise distances after normalization.
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = int(rng.integers(2, 8))
            gaps = rng.uniform(0.1, 1.0, size=v - 1)
            kappa = additive_kappa(gaps)
            line = normalize_projected(project_ordinal(kappa))
            line_matrix = np.abs(line.coords[:, None] - line.coords[None, :])
            for sub in project_nominal(kappa):
                sub = normalize_projected(sub)
                got = np.abs(sub.coords[:, None] - sub.coords[None, :])
                assert np.allclose(got, line_matrix, atol=1e-9)


class TestNormalize:
    def test_identity_when_max_gap_one(self):
        sub = project_ordinal(additive_kappa([0.4, 0.6]))
        normed = normalize_projected(sub)
        assert np.allclose(normed.coords, [0.0, 0.4, 1.0], atol=1e-12)
        assert normed.max_span == pytest.approx(1.0)

    def test_scaling(self):
        sub = project_ordinal(additive_kappa([2.0, 1.0]))
        normed = normalize_projected(sub)
        assert np.allclose(normed.coords, [0.0, 2 / 3, 1.0], atol=1e-12)
        assert normed.max_span == pytest.approx(3.0)

    def test_all_equal_dropped(self):
        sub = project_ordinal(additive_kappa([1.0]))
        flat = type(sub)(sub.source, sub.span, np.array([0.3, 0.3]), 0.0)
        with pytest.warns(RuntimeWarning, match="dropped"):
            assert normalize_projected(flat) is None


class TestValueDistance:
    def test_identity(self):
        sub = normalize_projected(project_ordinal(additive_kappa([0.4, 0.6])))
        assert value_distance(sub, 2, 2) == 0.0

    def test_endpoint_gap(self):
        sub = normalize_projected(project_ordinal(additive_kappa([0.4, 0.6])))
        assert value_distance(sub, 1, 3) == pytest.approx(1.0)

    def test_hand_example_scaled(self):
        subs = project_nominal(KAPPA_ABC)
        span_ab = normalize_projected(subs[0])
        assert value_distance(span_ab, 3, 1) == pytest.approx(
            0.6875 / span_ab.max_span, rel=1e-12
        )

    def test_hamming_marker(self):
        sub = hamming_fallback(4)
        assert value_distance(sub, 1, 1) == 0.0
        assert value_distance(sub, 1, 3) == 1.0


class TestReconstruct:
    def _space(self, schema_text, data_text):
        schema = parse_schema(schema_text)
        dataset = normalize_numerical(ingest_table(data_text, schema))
        table = build_base_distances(dataset, discretize_numerical(dataset))
        return dataset, reconstruct(dataset, table)

    def test_mixed_width(self):
        # one numerical + nominal v=4 + ordinal v=3: 1 + 6 + 1 columns
        rows = []
        noms = ["a", "b", "c", "d"]
        ords_ = ["lo", "mid", "hi"]
        for i in range(24):
            rows.append(f"{i / 23:.4f},{noms[i % 4]},{ords_[i % 3]}")
        _, space = self._space(
            "x,num\nc,nom,a|b|c|d\ng,ord,lo|mid|hi\n", "\n".join(rows)
        )
        assert space.d_hat == 8
        assert space.gamma(1) == 6 and space.gamma(2) == 1

    def test_pure_numerical_passthrough(self):
        _, space = self._space("x,num\ny,num\n", "0.0,0.5\n1.0,0.25\n0.5,1.0")
        assert space.d_hat == 2
        assert space.sub_attributes == ()

    def test_deterministic(self):
        dataset, space1 = self._space("c,nom,a|b|c\nx,num\n", "a,0\nb,0.5\nc,1\na,0.2")
        table = build_base_distances(dataset, discretize_numerical(dataset))
        space2 = reconstruct(dataset, table)
        assert space1.d_hat == space2.d_hat
        for s1, s2 in zip(space1.sub_attributes, space2.sub_attributes):
            assert s1.span == s2.span and np.array_equal(s1.coords, s2.coords)

    def test_metric_axioms_per_subattribute(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            table = build_base_distances(dataset, discretize_numerical(dataset))
            space = reconstruct(dataset, table)
            for sub in space.sub_attributes:
                v = sub.v
                mat = np.array(
                    [[value_distance(sub, u, f) for f in range(1, v + 1)]
                     for u in range(1, v + 1)]
                )
                assert np.array_equal(mat, mat.T)
                assert np.all(np.diag(mat) == 0.0)
                assert np.all(mat >= 0.0)
                for u, f, t in itertools.product(range(v), repeat=3):
                    assert mat[u, f] <= mat[u, t] + mat[t, f] + 1e-9

    def test_distances_bounded_and_endpoints_faithful(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            table = build_base_distances(dataset, discretize_numerical(dataset))
            space = reconstruct(dataset, table)
            for sub in space.sub_attributes:
                pairs = [
                    value_distance(sub, u, f)
                    for u in range(1, sub.v + 1)
                    for f in range(1, sub.v + 1)
                ]
                assert 0.0 <= min(pairs) and max(pairs) <= 1.0 + 1e-12
                if isinstance(sub.span, tuple):
                    g, h = sub.span
                    kappa = table.matrices[sub.source]
                    assert value_distance(sub, g, h) == pytest.approx(
                        kappa[g - 1, h - 1] / sub.max_span, rel=1e-12
                    )


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=7))
def test_ordinal_line_normalized_gaps_bounded(gaps):
    sub = normalize_projected(project_ordinal(additive_kappa(gaps)))
    diffs = np.abs(sub.coords[:, None] - sub.coords[None, :])
    assert diffs.max() == pytest.approx(1.0, abs=1e-12)


def test_dump_reconstruction(tmp_path):
    schema = parse_schema("c,nom,a|b\nx,num\n")
    dataset = normalize_numerical(ingest_table("a,0\nb,1\na,0.3\nb,0.9", schema))
    space = reconstruct(dataset, build_base_distances(dataset))
    path = dump_reconstruction(space, str(tmp_path / "coords.csv"))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(space.sub_attributes)
    assert lines[0].startswith("c,1-2,")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_tiling_rows_keeps_distances_and_coordinates(seed):
    # CPDs are ratios of exact counts, and tiling scales every count by 3.
    # The bin count is fixed because the default rule depends on n.
    dataset = random_dataset(np.random.default_rng(seed), min_categorical=1)
    tiled = build_dataset(dataset.schema, np.tile(dataset.cells, (3, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = build_base_distances(dataset, bins=4)
        tiled_table = build_base_distances(tiled, bins=4)
        space = reconstruct(dataset, table)
        tiled_space = reconstruct(tiled, tiled_table)
    for a, b in zip(table.matrices, tiled_table.matrices, strict=True):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert len(space.sub_attributes) == len(tiled_space.sub_attributes)
    for a, b in zip(space.sub_attributes, tiled_space.sub_attributes):
        assert (a.source, a.span, a.max_span) == (b.source, b.span, b.max_span)
        assert a.coords.tobytes() == b.coords.tobytes()
