import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harr.base_distance import BaseDistanceTable, build_base_distances
from harr.projection import (
    ORDINAL_LINE,
    hamming_fallback,
    project_nominal,
    project_ordinal,
    reconstruct,
)
from harr.schema import (
    AttributeKind,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

from conftest import build_dataset, random_dataset
from oracles import _block_gaps, projection_oracle

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
        block = project_nominal(kappa)
        assert block.coords.shape == (6, 4)
        assert list(block.spans) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_endpoints_project_to_themselves(self):
        # The endpoints sit at 0 and kappa(a,b) = 2, the span's largest gap,
        # so on the unit scale they read 0 and 1.
        block = project_nominal(KAPPA_ABC)
        assert block.spans[0] == (1, 2)
        assert block.max_span[0] == 2.0
        assert block.coords[0, 0] == 0.0
        assert block.coords[0, 1] == 1.0

    def test_hand_computed_third_point(self):
        # |kappa(c,a)^2 - kappa(c,b)^2 + kappa(a,b)^2| / (2 kappa(a,b)) is
        # 0.6875, over the span's largest gap 2.
        block = project_nominal(KAPPA_ABC)
        assert block.coords[0, 2] == 0.34375

    def test_degenerate_span_dropped_with_warning(self):
        kappa = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        with pytest.warns(RuntimeWarning, match="degenerate spans"):
            block = project_nominal(kappa)
        assert list(block.spans) == [(1, 3), (2, 3)]

    def test_all_degenerate_signals_fallback(self):
        with pytest.warns(RuntimeWarning):
            block = project_nominal(np.zeros((3, 3)))
        assert block.spans == () and block.coords.shape == (0, 3)


class TestProjectOrdinal:
    def test_coords_accumulate_from_lowest(self):
        kappa = additive_kappa([0.4, 0.6])
        line = project_ordinal(kappa)
        assert line.spans == (ORDINAL_LINE,)
        assert np.allclose(line.coords[0], [0.0, 0.4, 1.0], atol=1e-12)

    def test_two_values(self):
        kappa = additive_kappa([0.7])
        line = project_ordinal(kappa)
        assert line.coords[0].tolist() == [0.0, 1.0]
        assert line.max_span[0] == 0.7

    def test_zero_matrix_degenerate(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            block = project_ordinal(np.zeros((3, 3)))
        assert block.spans == () and block.coords.shape == (0, 3)

    def test_overlap_with_nominal_spans(self):
        # On an additive matrix every pair span reproduces the line's
        # pairwise distances after normalization.
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = int(rng.integers(2, 8))
            gaps = rng.uniform(0.1, 1.0, size=v - 1)
            kappa = additive_kappa(gaps)
            line = project_ordinal(kappa).coords[0]
            line_matrix = np.abs(line[:, None] - line[None, :])
            for coords in project_nominal(kappa).coords:
                got = np.abs(coords[:, None] - coords[None, :])
                assert np.allclose(got, line_matrix, atol=1e-9)


class TestNormalize:
    """The projections return unit-scale rows and keep each row's scale."""

    def test_identity_when_max_gap_one(self):
        line = project_ordinal(additive_kappa([0.4, 0.6]))
        assert np.allclose(line.coords[0], [0.0, 0.4, 1.0], atol=1e-12)
        assert line.max_span[0] == pytest.approx(1.0)

    def test_scaling(self):
        line = project_ordinal(additive_kappa([2.0, 1.0]))
        assert np.allclose(line.coords[0], [0.0, 2 / 3, 1.0], atol=1e-12)
        assert line.max_span[0] == pytest.approx(3.0)


class TestValueDistance:
    """Value distances are coordinate gaps within a block's rows, and 0/1
    mismatch for the Hamming fallback."""

    def test_identity(self):
        line = project_ordinal(additive_kappa([0.4, 0.6]))
        assert _block_gaps(line, 2, 2) == [0.0]

    def test_endpoint_gap(self):
        line = project_ordinal(additive_kappa([0.4, 0.6]))
        assert _block_gaps(line, 1, 3) == [pytest.approx(1.0)]

    def test_hand_example_scaled(self):
        block = project_nominal(KAPPA_ABC)
        assert _block_gaps(block, 3, 1)[0] == pytest.approx(
            0.6875 / block.max_span[0], rel=1e-12
        )

    def test_hamming_marker(self):
        block = hamming_fallback(4)
        assert _block_gaps(block, 1, 1) == [0.0]
        assert _block_gaps(block, 1, 3) == [1.0]


class TestReconstruct:
    def _space(self, schema_text, data_text):
        schema = parse_schema(schema_text)
        dataset = normalize_numerical(ingest_table(data_text, schema))
        table = build_base_distances(discretize_numerical(dataset))
        return dataset, reconstruct(table)

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
        assert space.blocks == ()

    def test_deterministic(self):
        dataset, space1 = self._space("c,nom,a|b|c\nx,num\n", "a,0\nb,0.5\nc,1\na,0.2")
        table = build_base_distances(discretize_numerical(dataset))
        space2 = reconstruct(table)
        assert space1.d_hat == space2.d_hat
        for b1, b2 in zip(space1.blocks, space2.blocks, strict=True):
            assert b1.spans == b2.spans and np.array_equal(b1.coords, b2.coords)

    def test_sub_attributes_are_views_of_block_rows(self):
        ords_ = ["lo", "mid", "hi"]
        rows = [f"{i / 11:.3f},{'abcd'[i % 4]},{ords_[i % 3]}" for i in range(12)]
        _, space = self._space(
            "x,num\nc,nom,a|b|c|d\ng,ord,lo|mid|hi\n", "\n".join(rows)
        )
        subs = iter(space.sub_attributes)
        for block in space.blocks:
            for i in range(block.gamma):
                sub = next(subs)
                assert (sub.source, sub.v) == (block.source, block.v)
                assert sub.spans == (block.spans[i],)
                assert np.array_equal(sub.coords[0], block.coords[i])
                assert sub.max_span.tolist() == [block.max_span[i]]
                assert np.shares_memory(sub.coords, block.coords[i])
                assert np.shares_memory(sub.max_span, block.max_span[i : i + 1])
        assert next(subs, None) is None
        assert len(space.sub_attributes) == space.d_hat - len(space.numeric_attrs) == 7

    def test_metric_axioms_per_subattribute(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            table = build_base_distances(discretize_numerical(dataset))
            space = reconstruct(table)
            for block in space.blocks:
                v = block.v
                mats = np.array(
                    [[_block_gaps(block, u, f) for f in range(1, v + 1)]
                     for u in range(1, v + 1)]
                )
                for mat in np.moveaxis(mats, 2, 0):  # one (v, v) per row
                    assert np.array_equal(mat, mat.T)
                    assert np.all(np.diag(mat) == 0.0)
                    assert np.all(mat >= 0.0)
                    for u, f, t in itertools.product(range(v), repeat=3):
                        assert mat[u, f] <= mat[u, t] + mat[t, f] + 1e-9

    def test_distances_bounded_and_endpoints_faithful(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            dataset = random_dataset(rng, min_categorical=1)
            table = build_base_distances(discretize_numerical(dataset))
            space = reconstruct(table)
            for block in space.blocks:
                pairs = [
                    gap
                    for u in range(1, block.v + 1)
                    for f in range(1, block.v + 1)
                    for gap in _block_gaps(block, u, f)
                ]
                assert 0.0 <= min(pairs) and max(pairs) <= 1.0 + 1e-12
                kappa = table.matrices[block.source]
                for i, span in enumerate(block.spans):
                    if isinstance(span, tuple):
                        g, h = span
                        assert _block_gaps(block, g, h)[i] == pytest.approx(
                            kappa[g - 1, h - 1] / block.max_span[i], rel=1e-12
                        )

    def test_table_of_another_schema_is_rejected(self):
        # ``c`` has 3 values here and 4 in the matrices' dataset: the table
        # checks its matrices against its own schema.
        schema = parse_schema("c,nom,a|b|c\nd,nom,x|y\n")
        other = ingest_table("a,x\nd,y\nc,x", parse_schema("c,nom,a|b|c|d\nd,nom,x|y\n"))
        matrices = build_base_distances(discretize_numerical(other)).matrices
        message = r"no \(3, 3\) matrix for categorical attribute 'c'$"
        with pytest.raises(ValueError, match=message):
            BaseDistanceTable(schema, matrices)
        with pytest.raises(ValueError, match=r"a matrix for numerical attribute 'x'$"):
            BaseDistanceTable(parse_schema("x,num\n"), (np.zeros((2, 2)),))

    def test_table_of_another_width_is_rejected(self):
        dataset = ingest_table("a,x\nb,y\nc,x", parse_schema("c,nom,a|b|c\nd,nom,x|y\n"))
        matrices = build_base_distances(discretize_numerical(dataset)).matrices
        with pytest.raises(ValueError, match=r"\(1 matrices, 2 attributes\).*'c'$"):
            BaseDistanceTable(dataset.schema, matrices[:1])
        with pytest.raises(ValueError, match=r"\(2 matrices, 1 attributes\).*per attribute$"):
            BaseDistanceTable(parse_schema("x,num\n"), (None, None))

    def test_peak_memory_is_about_two_blocks(self):
        # One 150-valued nominal: 11,175 spans, a 13.4 MB block. The
        # projection holds the block and one gathered (γ, v) array at once.
        v = 150
        schema = parse_schema("c,nom," + "|".join(f"v{t}" for t in range(v)) + "\n")
        dataset = build_dataset(schema, (np.arange(v) + 1)[:, None])
        upper = np.triu(np.random.default_rng(3).uniform(0.5, 2.0, (v, v)), 1)
        table = BaseDistanceTable(schema, (upper + upper.T,))
        tracemalloc.start()
        try:
            space = reconstruct(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = space.blocks[0].coords
        assert block.shape == (v * (v - 1) // 2, v)
        assert peak < 2.5 * block.nbytes


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=7))
def test_ordinal_line_normalized_gaps_bounded(gaps):
    line = project_ordinal(additive_kappa(gaps)).coords[0]
    diffs = np.abs(line[:, None] - line[None, :])
    assert diffs.max() == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_tiling_rows_keeps_distances_and_coordinates(seed):
    # CPDs are ratios of exact counts, and tiling scales every count by 3.
    # The bin count is fixed because the default rule depends on n.
    dataset = random_dataset(np.random.default_rng(seed), min_categorical=1)
    tiled = build_dataset(dataset.schema, np.tile(dataset.cells, (3, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = build_base_distances(discretize_numerical(dataset, bins=4))
        tiled_table = build_base_distances(discretize_numerical(tiled, bins=4))
        space = reconstruct(table)
        tiled_space = reconstruct(tiled_table)
    for a, b in zip(table.matrices, tiled_table.matrices, strict=True):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert len(space.blocks) == len(tiled_space.blocks)
    for a, b in zip(space.blocks, tiled_space.blocks):
        assert (a.source, a.spans) == (b.source, b.spans)
        assert a.max_span.tolist() == b.max_span.tolist()
        assert a.coords.tobytes() == b.coords.tobytes()


def _recorded(fn, *args):
    """``fn(*args)`` and the (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


def _assert_block_is(block, rows):
    """``block`` holds exactly the oracle's (span, coords, max_span) rows."""
    assert block.spans == tuple(span for span, _, _ in rows)
    gaps = np.array([gap for _, _, gap in rows], dtype=float)
    assert block.max_span.tobytes() == gaps.tobytes()
    coords = np.array([c for _, c, _ in rows], dtype=float)
    assert block.coords.tobytes() == coords.reshape(len(rows), block.v).tobytes()


def _assert_matches_oracle(kappa, source):
    block, got = _recorded(project_nominal, kappa, source)
    (_, normalized), want = _recorded(projection_oracle, kappa, source)
    assert got == want
    _assert_block_is(block, normalized)
    return normalized


@st.composite
def kappa_matrices(draw):
    """Arbitrary base-distance matrices: zero entries drop spans, and small
    repeated values on a non-zero diagonal make some spans all-equal."""
    v = draw(st.integers(2, 7))
    entry = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(1e-3, 5.0))
    kappa = np.array(draw(st.lists(entry, min_size=v * v, max_size=v * v)))
    kappa = kappa.reshape(v, v)
    if draw(st.booleans()):
        kappa = np.triu(kappa, 1) + np.triu(kappa, 1).T
    return kappa


@settings(deadline=None, max_examples=300)
@given(kappa_matrices(), st.integers(0, 9))
@example(np.array([[1.0, 1.0], [0.0, 0.0]]), 0)  # its one span is all-equal
@example(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), 2)
def test_projection_matches_per_pair_oracle(kappa, source):
    _assert_matches_oracle(kappa, source)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_reconstructed_blocks_match_per_pair_oracle(seed):
    dataset = random_dataset(np.random.default_rng(seed), min_categorical=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = build_base_distances(discretize_numerical(dataset))
        space = reconstruct(table)
    blocks = {b.source: b for b in space.blocks}
    for r, attr in enumerate(dataset.schema.attributes):
        if attr.kind is not AttributeKind.NOMINAL:
            continue
        rows = _assert_matches_oracle(table.matrices[r], r)
        if rows:
            _assert_block_is(blocks[r], rows)
        else:
            assert blocks[r].is_fallback
