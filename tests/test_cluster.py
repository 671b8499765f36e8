import tracemalloc

import numpy as np
import pytest

from harr.base_distance import BaseDistanceTable, build_base_distances
from harr.cluster import (
    ConfigError,
    Partition,
    Prototypes,
    RunConfig,
    RunReport,
    WeightMatrix,
    WeightVector,
    assign,
    encode_ohe_oc,
    normalize_importances,
    prepare,
    run,
    run_prepared,
    update_prototypes,
    update_weight_matrix,
    update_weight_vector,
    weighted_distance,
)
from harr.projection import reconstruct
from harr.schema import (
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

from conftest import build_dataset, random_dataset
from oracles import (
    kmodes_with_table_oracle,
    lloyd_oracle,
    phi_tensor,
    weight_matrix_oracle,
    weight_vector_oracle,
)


def _mixed(schema_text, data_text):
    schema = parse_schema(schema_text)
    dataset = normalize_numerical(ingest_table(data_text, schema))
    space = reconstruct(dataset, build_base_distances(dataset))
    return dataset, space


def _numeric_space(cells):
    schema = parse_schema("\n".join(f"x{i},num" for i in range(cells.shape[1])))
    dataset = build_dataset(schema, cells)
    space = reconstruct(dataset, build_base_distances(dataset, discretize_numerical(dataset)))
    return dataset, space


class TestWeightedDistance:
    def test_zero_for_identical(self):
        dataset, space = _numeric_space(np.array([[0.2, 0.7], [0.9, 0.1]]))
        protos = Prototypes(np.array([[0.2, 0.7], [0.9, 0.1]]))
        w = WeightVector(np.array([0.5, 0.5]))
        assert weighted_distance(dataset, space, protos, w, 0, 0) == 0.0

    def test_convex_combination_of_unit_distances(self):
        dataset, space = _numeric_space(np.array([[1.0, 1.0], [0.0, 0.0]]))
        protos = Prototypes(np.array([[0.0, 0.0]]))
        w = WeightVector(np.array([0.5, 0.5]))
        assert weighted_distance(dataset, space, protos, w, 0, 0) == pytest.approx(1.0)

    def test_hand_weighted_sum(self):
        # per-attribute distances (0.5, 0.25) under weights (0.8, 0.2)
        dataset, space = _numeric_space(np.array([[0.5, 0.25], [0.0, 0.0]]))
        protos = Prototypes(np.array([[0.0, 0.0]]))
        w = WeightVector(np.array([0.8, 0.2]))
        assert weighted_distance(dataset, space, protos, w, 0, 0) == pytest.approx(0.45)

    def test_matrix_uses_cluster_row(self):
        dataset, space = _numeric_space(np.array([[0.5, 0.25], [0.0, 0.0]]))
        protos = Prototypes(np.array([[0.0, 0.0], [0.0, 0.0]]))
        wm = WeightMatrix(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert weighted_distance(dataset, space, protos, wm, 0, 0) == pytest.approx(0.45)
        assert weighted_distance(dataset, space, protos, wm, 0, 1) == pytest.approx(0.30)


class TestAssign:
    def test_tie_breaks_to_lowest_cluster(self):
        dataset, space = _numeric_space(np.array([[0.1], [0.9], [0.4]]))
        protos = Prototypes(np.array([[0.5], [0.5]]))
        part = assign(dataset, space, protos, None)
        assert part.labels == (1, 1, 1)

    def test_dominance(self):
        dataset, space = _numeric_space(np.array([[0.95], [0.05]]))
        protos = Prototypes(np.array([[0.0], [1.0]]))
        part = assign(dataset, space, protos, None)
        assert part.labels == (2, 1)

    def test_hamming_fallback_scores_as_mismatch(self):
        # every span is degenerate, so the attribute falls back to 0/1
        # mismatch; its all-zero coordinates would score every value alike
        schema = parse_schema("c,nom,a|b|c\n")
        dataset = ingest_table("a\nb\nc", schema)
        with pytest.warns(RuntimeWarning, match="falling back"):
            space = reconstruct(dataset, BaseDistanceTable((np.zeros((3, 3)),)))
        protos = Prototypes(np.array([[1.0], [2.0]]))
        assert assign(dataset, space, protos, None).labels == (1, 2, 1)

    def test_matches_naive_argmin(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            dataset = random_dataset(rng, max_n=20, min_categorical=1)
            space = reconstruct(
                dataset, build_base_distances(dataset, discretize_numerical(dataset))
            )
            k = 3 if dataset.n >= 3 else 2
            labels0 = rng.integers(0, k, size=dataset.n)
            labels0[:k] = np.arange(k)
            protos = update_prototypes(
                dataset, Partition(tuple(labels0 + 1), k)
            )
            w = WeightVector(rng.dirichlet(np.ones(space.d_hat)))
            got = assign(dataset, space, protos, w)
            phi = phi_tensor(dataset, space, protos)
            scores = (phi * np.asarray(w.w)[None, None, :]).sum(axis=2)
            assert got.labels == tuple(int(x) + 1 for x in scores.argmin(axis=1))


class TestUpdatePrototypes:
    def test_numerical_mean(self):
        dataset, _ = _numeric_space(np.array([[0.2], [0.4]]))
        protos = update_prototypes(dataset, Partition((1, 1), 1))
        assert protos.values[0, 0] == pytest.approx(0.3)

    def test_categorical_mode(self):
        schema = parse_schema("c,nom,a|b\n")
        dataset = ingest_table("a\na\nb", schema)
        protos = update_prototypes(dataset, Partition((1, 1, 1), 1))
        assert protos.values[0, 0] == 1.0

    def test_mode_tie_to_lowest_index(self):
        schema = parse_schema("c,nom,a|b\n")
        dataset = ingest_table("a\nb", schema)
        protos = update_prototypes(dataset, Partition((1, 1), 1))
        assert protos.values[0, 0] == 1.0


class TestUpdateWeightVector:
    def test_equal_intra_inter_gives_uniform(self):
        dataset, space = _numeric_space(np.array([[0.0, 0.0], [1.0, 1.0]]))
        protos = Prototypes(np.array([[0.5, 0.5], [0.5, 0.5]]))
        w = update_weight_vector(dataset, space, Partition((1, 2), 2), protos)
        assert np.allclose(w.w, [0.5, 0.5], atol=1e-9)

    def test_importance_ratio_preserved(self):
        dataset, space = _numeric_space(np.array([[0.0, 0.0], [1.0, 0.5]]))
        protos = Prototypes(np.array([[0.0, 0.0], [1.0, 0.5]]))
        w = update_weight_vector(dataset, space, Partition((1, 2), 2), protos)
        assert np.allclose(w.w, [2 / 3, 1 / 3], atol=1e-9)

    def test_matches_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            dataset = random_dataset(rng, max_n=25, min_categorical=1)
            space = reconstruct(
                dataset, build_base_distances(dataset, discretize_numerical(dataset))
            )
            k = 2 + int(rng.integers(0, 2))
            if dataset.n <= k:
                continue
            labels0 = rng.integers(0, k, size=dataset.n)
            labels0[:k] = np.arange(k)
            part = Partition(tuple(labels0 + 1), k)
            protos = update_prototypes(dataset, part)
            got = update_weight_vector(dataset, space, part, protos)
            expected = weight_vector_oracle(
                phi_tensor(dataset, space, protos), labels0, k, 1e-12
            )
            assert np.allclose(got.w, expected, atol=1e-10)
            assert got.w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_importance_warns_uniform(self):
        dataset, space = _numeric_space(np.array([[0.4, 0.4], [0.4, 0.4]]))
        protos = Prototypes(np.array([[0.4, 0.4], [0.4, 0.4]]))
        with pytest.warns(RuntimeWarning, match="uniform"):
            w = update_weight_vector(dataset, space, Partition((1, 2), 2), protos)
        assert np.allclose(w.w, [0.5, 0.5])


class TestUpdateWeightMatrix:
    def test_single_attribute_rows_are_one(self):
        dataset, space = _numeric_space(np.array([[0.0], [1.0]]))
        protos = Prototypes(np.array([[0.0], [1.0]]))
        wm = update_weight_matrix(dataset, space, Partition((1, 2), 2), protos)
        assert np.allclose(wm.w, 1.0)

    def test_collapse_to_vector_when_profiles_identical(self):
        dataset, space = _numeric_space(
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [1.0, 0.5]])
        )
        part = Partition((1, 1, 2, 2), 2)
        protos = update_prototypes(dataset, part)
        wm = update_weight_matrix(dataset, space, part, protos)
        wv = update_weight_vector(dataset, space, part, protos)
        assert np.allclose(wm.w[0], wm.w[1], atol=1e-12)
        assert np.allclose(wm.w[0], wv.w, atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            dataset = random_dataset(rng, max_n=25, min_categorical=1)
            space = reconstruct(
                dataset, build_base_distances(dataset, discretize_numerical(dataset))
            )
            k = 2
            labels0 = rng.integers(0, k, size=dataset.n)
            labels0[:k] = np.arange(k)
            part = Partition(tuple(labels0 + 1), k)
            protos = update_prototypes(dataset, part)
            got = update_weight_matrix(dataset, space, part, protos)
            expected = weight_matrix_oracle(
                phi_tensor(dataset, space, protos), labels0, k, 1e-12
            )
            assert np.allclose(got.w, expected, atol=1e-10)
            assert np.allclose(got.w.sum(axis=1), 1.0, atol=1e-9)

    def test_full_cluster_row_uniform_with_warning(self):
        dataset, space = _numeric_space(np.array([[0.0, 0.0], [1.0, 1.0]]))
        protos = Prototypes(np.array([[0.5, 0.5], [0.9, 0.9]]))
        with pytest.warns(RuntimeWarning, match="covers every object"):
            wm = update_weight_matrix(
                dataset, space, Partition((1, 1), 2), protos
            )
        assert np.allclose(wm.w[0], 0.5)

    def test_empty_cluster_row_uniform_with_warning(self):
        dataset, space = _numeric_space(np.array([[0.0, 0.0], [1.0, 1.0]]))
        protos = Prototypes(np.array([[0.5, 0.5], [0.9, 0.9]]))
        with pytest.warns(RuntimeWarning, match="empty"):
            wm = update_weight_matrix(dataset, space, Partition((1, 1), 2), protos)
        assert np.allclose(wm.w[1], 0.5)


def test_normalize_importances_scale_invariant():
    rng = np.random.default_rng(5)
    imp = rng.random(12) + 0.01
    base = normalize_importances(imp)
    scaled = normalize_importances(imp * 37.5)
    assert np.allclose(base, scaled, atol=1e-12)
    assert base.sum() == pytest.approx(1.0)


class TestRunConfig:
    def test_k_one_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            RunConfig(k=1)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            RunConfig(k=2, variant="KMEANS")

    def test_k_exceeding_n(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("0\n1", schema))
        with pytest.raises(ConfigError, match="exceeds"):
            run(dataset, RunConfig(k=3, variant="KPT"))


class TestRunHarrV:
    def test_duplicate_groups_found_exactly(self):
        schema = parse_schema("c,nom,a|b\ng,ord,lo|hi\nx,num\n")
        rows = ["a,lo,0.0"] * 5 + ["b,hi,1.0"] * 5
        dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
        report = run(dataset, RunConfig(k=2, seed=3, variant="HARR-V"))
        assert report.converged
        labels = np.array(report.labels)
        assert (labels[:5] == labels[0]).all() and (labels[5:] == labels[5]).all()
        assert labels[0] != labels[5]

    def test_same_seed_identical_report(self):
        rng = np.random.default_rng(8)
        dataset = random_dataset(rng, max_n=30, min_categorical=1)
        cfg = RunConfig(k=2, seed=11, variant="HARR-V")
        assert run(dataset, cfg) == run(dataset, cfg)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            dataset = random_dataset(rng, max_n=40, min_categorical=1)
            report = run(dataset, RunConfig(k=2, seed=0, variant="HARR-V"))
            assert sum(report.weights) == pytest.approx(1.0, abs=1e-9)
            assert min(report.weights) >= 0.0
            assert all(z >= 0.0 for z in report.trace_z)

    def test_terminates_within_caps(self):
        rng = np.random.default_rng(29)
        dataset = random_dataset(rng, max_n=50, min_categorical=1)
        cfg = RunConfig(k=3, seed=1, variant="HARR-V", inner_cap=4, outer_cap=2)
        report = run(dataset, cfg)
        assert report.inner_iterations <= 4 * (2 + 1)
        assert report.weight_updates <= 2


class TestRunHarrM:
    def test_collapse_rows_equal_vector_run(self):
        schema = parse_schema("c,nom,a|b\ng,nom,p|q\n")
        rows = ["a,p"] * 4 + ["b,q"] * 4
        dataset = ingest_table("\n".join(rows), schema)
        rep_m = run(dataset, RunConfig(k=2, seed=2, variant="HARR-M"))
        rep_v = run(dataset, RunConfig(k=2, seed=2, variant="HARR-V"))
        wm = np.array(rep_m.weight_matrix)
        assert np.allclose(wm[0], wm[1], atol=1e-9)
        assert np.allclose(wm[0], rep_v.weights, atol=1e-9)

    def test_same_seed_identical_report(self):
        rng = np.random.default_rng(9)
        dataset = random_dataset(rng, max_n=30, min_categorical=1)
        cfg = RunConfig(k=2, seed=5, variant="HARR-M")
        assert run(dataset, cfg) == run(dataset, cfg)

    def test_weight_rows_on_simplex(self):
        rng = np.random.default_rng(14)
        dataset = random_dataset(rng, max_n=40, min_categorical=1)
        report = run(dataset, RunConfig(k=3, seed=0, variant="HARR-M"))
        wm = np.array(report.weight_matrix)
        assert np.allclose(wm.sum(axis=1), 1.0, atol=1e-9)


class TestBaselines:
    def test_kmd_rejects_mixed_data(self):
        schema = parse_schema("x,num\nc,nom,a|b\n")
        dataset = normalize_numerical(ingest_table("0,a\n1,b", schema))
        with pytest.raises(ConfigError, match="use KPT"):
            run(dataset, RunConfig(k=2, variant="KMD"))

    def test_kmd_pure_categorical(self):
        schema = parse_schema("c,nom,a|b\ng,nom,p|q\n")
        rows = ["a,p"] * 4 + ["b,q"] * 4
        dataset = ingest_table("\n".join(rows), schema)
        report = run(dataset, RunConfig(k=2, seed=0, variant="KMD"))
        labels = np.array(report.labels)
        assert (labels[:4] == labels[0]).all() and (labels[4:] == labels[4]).all()
        assert labels[0] != labels[4]

    def test_ohe_encoding_geometry(self):
        schema = parse_schema("c,nom,a|b|c\ng,ord,lo|mid|hi\nx,num\n")
        dataset = normalize_numerical(
            ingest_table("a,lo,0.0\nb,hi,1.0\nc,mid,0.5", schema)
        )
        enc = encode_ohe_oc(dataset)
        # one-hot block: two different nominal values differ in 2 coordinates
        assert np.abs(enc[0, :3] - enc[1, :3]).sum() == 2.0
        # order coding: normalized ranks
        assert enc[:, 3].tolist() == [0.0, 1.0, 0.5]
        assert enc.shape == (3, 5)

    def test_ohe_oc_runs_deterministically(self):
        rng = np.random.default_rng(77)
        dataset = random_dataset(rng, max_n=30, min_categorical=1)
        cfg = RunConfig(k=2, seed=4, variant="OHE+OC")
        r1 = run(dataset, cfg)
        assert r1 == run(dataset, cfg)
        assert r1.weights is None and r1.weight_matrix is None

    def test_ohe_oc_matches_lloyd_replay(self):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(12):
            dataset = random_dataset(rng, max_n=30, min_categorical=1)
            k = 2 + int(rng.integers(0, 2))
            seed = int(rng.integers(0, 100))
            report = run(dataset, RunConfig(k=k, seed=seed, variant="OHE+OC"))
            if any(report.trace_reseeded) or not report.converged:
                continue  # the replay has no cap or re-seed handling
            init = np.random.default_rng(seed).choice(dataset.n, size=k, replace=False)
            labels, trace = lloyd_oracle(encode_ohe_oc(dataset), list(init))
            assert report.labels == tuple(label + 1 for label in labels)
            # converged runs close with a repeat of the fixed-point objective
            assert np.allclose(report.trace_z[:-1], trace, rtol=1e-12, atol=0.0)
            checked += 1
        assert checked >= 8

    def test_bd_matches_hand_loop(self):
        schema = parse_schema("u,nom,a|b|c\nw,nom,x|y\n")
        data = "a,x\na,y\nb,x\nb,x\nc,y\nc,y\na,x\nb,y"
        dataset = ingest_table(data, schema)
        table = build_base_distances(dataset, discretize_numerical(dataset))
        cfg = RunConfig(k=2, seed=1, variant="BD")
        report = run(dataset, cfg)
        assert not any(report.trace_reseeded)
        init = np.random.default_rng(1).choice(dataset.n, size=2, replace=False)
        expected, _, _ = kmodes_with_table_oracle(
            dataset.cells,
            ["cat", "cat"],
            [table.matrices[0], table.matrices[1]],
            list(init),
        )
        assert report.labels == tuple(int(x) + 1 for x in expected)

    def test_har_equals_uniform_weight_replay(self):
        # replay the frozen-weight loop through the public single-step
        # operations and compare with the packaged HAR run
        schema = parse_schema("c,nom,a|b|c\nx,num\n")
        rows = ["a,0.05", "a,0.1", "b,0.5", "b,0.55", "c,0.9", "c,1.0", "a,0.0", "b,0.45"]
        dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
        space = reconstruct(dataset, build_base_distances(dataset))
        cfg = RunConfig(k=3, seed=6, variant="HAR")
        report = run(dataset, cfg)

        rng = np.random.default_rng(6)
        proto_vals = dataset.cells[rng.choice(dataset.n, size=3, replace=False)]
        protos = Prototypes(proto_vals)
        w = WeightVector(np.full(space.d_hat, 1.0 / space.d_hat))
        prev = None
        for _ in range(100):
            part = assign(dataset, space, protos, w)
            if prev is not None and part.labels == prev:
                break
            prev = part.labels
            protos = update_prototypes(dataset, part)
        assert report.labels == prev

    def test_reseed_keeps_all_clusters_alive(self):
        schema = parse_schema("x,num\ny,num\n")
        rows = ["0,0"] * 4 + ["1,1"] * 2
        dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
        for seed in range(8):
            report = run(dataset, RunConfig(k=2, seed=seed, variant="KPT"))
            assert len(set(report.labels)) == 2
        assert any(
            any(run(dataset, RunConfig(k=2, seed=s, variant="KPT")).trace_reseeded)
            for s in range(8)
        )

    @pytest.mark.parametrize(
        "schema_text, rows, variant, kinds",
        [
            ("x,num\ny,num\n", ["0,0"] * 4 + ["1,1"] * 2, "KPT", ["num", "num"]),
            ("x,nom,a|b\ny,nom,a|b\n", ["a,a"] * 4 + ["b,b"] * 2, "KMD", ["cat", "cat"]),
        ],
        ids=["KPT", "KMD"],
    )
    def test_reseed_moves_one_object_of_a_shared_row(
        self, schema_text, rows, variant, kinds
    ):
        # Duplicate rows share one score row; a re-seed must still move the
        # single lowest-indexed farthest object, never its whole row.
        schema = parse_schema(schema_text)
        dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
        tables = [None if kind == "num" else 1.0 - np.eye(2) for kind in kinds]
        reseeding = 0
        for k in (2, 3):
            for seed in range(12):
                report = run(dataset, RunConfig(k=k, seed=seed, variant=variant))
                init = np.random.default_rng(seed).choice(dataset.n, size=k, replace=False)
                labels, trace_z, trace_reseeded = kmodes_with_table_oracle(
                    dataset.cells, kinds, tables, list(init)
                )
                assert report.labels == tuple(x + 1 for x in labels)
                assert report.trace_reseeded == tuple(trace_reseeded)
                assert report.trace_z == pytest.approx(trace_z, rel=1e-12, abs=1e-12)
                reseeding += any(trace_reseeded)
        assert reseeding >= 12  # every k=3 run: two distinct rows, three clusters


class TestPublicOpReplay:
    """The run loops must agree with a straight-line replay of the
    alternating scheme through the public single-step operations."""

    def _replay(self, dataset, space, k, seed, matrix):
        rng = np.random.default_rng(seed)
        protos = Prototypes(dataset.cells[rng.choice(dataset.n, size=k, replace=False)])
        d_hat = space.d_hat
        if matrix:
            weights = WeightMatrix(np.full((k, d_hat), 1.0 / d_hat))
        else:
            weights = WeightVector(np.full(d_hat, 1.0 / d_hat))
        q_prime = None
        q_dprime = None
        for _ in range(1000):
            part = assign(dataset, space, protos, weights)
            if q_prime is None or part.labels != q_prime:
                q_prime = part.labels
                protos = update_prototypes(dataset, part)
                continue
            if q_dprime is not None and part.labels == q_dprime:
                return part.labels, weights
            q_dprime = part.labels
            if matrix:
                weights = update_weight_matrix(dataset, space, part, protos)
            else:
                weights = update_weight_vector(dataset, space, part, protos)
        raise AssertionError("replay did not converge")

    @pytest.mark.parametrize("variant", ["HARR-V", "HARR-M"])
    def test_engine_matches_replay(self, variant):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(12):
            dataset = random_dataset(rng, max_n=40, min_categorical=1)
            prep = prepare(dataset, variant)
            report = run_prepared(
                dataset, prep, RunConfig(k=2, seed=int(rng.integers(0, 100)), variant=variant)
            )
            if not report.converged or any(report.trace_reseeded):
                continue  # replay has no cap/re-seed handling
            labels, weights = self._replay(
                dataset, prep.space, 2, report.seed, matrix=variant == "HARR-M"
            )
            assert labels == report.labels
            if variant == "HARR-M":
                assert np.allclose(weights.w, np.array(report.weight_matrix), atol=1e-12)
            else:
                assert np.allclose(weights.w, np.array(report.weights), atol=1e-12)
            checked += 1
        assert checked >= 6


def test_prepare_memory_linear_in_sub_attributes():
    # One 40-valued nominal yields 780 sub-attributes; value-by-value tables
    # for all of them would hold 780 * 40 * 40 floats (10 MB).
    schema = parse_schema("c,nom," + "|".join(f"v{t}" for t in range(40)) + "\n")
    dataset = build_dataset(schema, (np.arange(2000) % 40 + 1)[:, None])
    tracemalloc.start()
    try:
        prep = prepare(dataset, "HARR-M")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prep.space.d_hat == 780
    assert peak < 5_000_000


@pytest.mark.parametrize("variant", ["HARR-M", "OHE+OC"])
def test_run_memory_below_object_score_table(variant):
    # 200,000 objects on 10 distinct rows: scores are 10 x k, so a run never
    # holds the n x k table of per-object scores (8 MB here).
    n, k = 200_000, 5
    i = np.arange(n)
    schema = parse_schema("a,nom,p|q|r|s|t\nb,nom,x|y\n")
    dataset = build_dataset(schema, np.column_stack([i % 5 + 1, i % 2 + 1]))
    prep = prepare(dataset, variant)
    assert dataset.distinct.u == 10
    tracemalloc.start()
    try:
        run_prepared(dataset, prep, RunConfig(k=k, seed=0, variant=variant))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8


class TestPreparedSharing:
    def test_shared_prep_matches_fresh_run(self):
        rng = np.random.default_rng(55)
        dataset = random_dataset(rng, max_n=40, min_categorical=1)
        prep = prepare(dataset, "HARR-M")
        cfg = RunConfig(k=2, seed=9, variant="HARR-M")
        assert run_prepared(dataset, prep, cfg) == run(dataset, cfg)

    def test_prep_variant_mismatch(self):
        rng = np.random.default_rng(56)
        dataset = random_dataset(rng, max_n=20, min_categorical=1)
        prep = prepare(dataset, "KPT")
        with pytest.raises(ConfigError, match="prepared for"):
            run_prepared(dataset, prep, RunConfig(k=2, variant="BD"))


def test_report_equality_ignores_timings():
    kw = dict(
        variant="KPT",
        k=2,
        seed=0,
        labels=(1, 2),
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
    )
    from harr.cluster import PhaseTimings

    a = RunReport(**kw)
    b = RunReport(**kw, timings=PhaseTimings(1.0, 2.0, 3.0))
    assert a == b


@pytest.mark.parametrize(
    "labels",
    [
        np.array([1, 3, 2, 3], dtype=np.int32),
        tuple(np.array([1, 3, 2, 3], dtype=np.int64)),
        [np.uint8(1), np.int16(3), 2, np.int64(3)],
    ],
    ids=["int32-array", "tuple-of-int64", "mixed-scalars"],
)
def test_partition_accepts_numpy_integers(labels):
    part = Partition(labels, 3)
    assert part.labels == (1, 3, 2, 3)
    assert all(type(x) is int for x in part.labels)
    assert Partition(part.labels, 3) == part


@pytest.mark.parametrize("labels", [(1, 4), (0, 1), (-1,), (2**70,), np.array([5])])
def test_partition_rejects_out_of_range_labels(labels):
    with pytest.raises(ValueError, match=r"^labels must lie in \[1, 3\]$"):
        Partition(labels, 3)
