import gc
import re
import threading
import time
import tracemalloc
import warnings
import weakref
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harr import cluster
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
    normalize_importances,
    prepare,
    run,
    run_prepared,
    update_prototypes,
    update_weight_matrix,
    update_weight_vector,
)
from harr.projection import reconstruct
from harr.schema import (
    AttributeKind,
    AttributeSchema,
    Dataset,
    DatasetSchema,
    _freeze,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

from conftest import build_dataset, random_dataset
from oracles import (
    alternating_oracle,
    kmodes_with_table_oracle,
    lloyd_oracle,
    ohe_oc_oracle,
    phi_tensor,
    weight_matrix_oracle,
    weight_vector_oracle,
    weighted_distance,
)


def _mixed(schema_text, data_text):
    schema = parse_schema(schema_text)
    dataset = normalize_numerical(ingest_table(data_text, schema))
    space = reconstruct(build_base_distances(discretize_numerical(dataset)))
    return dataset, space


def _numeric_space(cells):
    schema = parse_schema("\n".join(f"x{i},num" for i in range(cells.shape[1])))
    dataset = build_dataset(schema, cells)
    space = reconstruct(build_base_distances(discretize_numerical(dataset)))
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
        assert part.labels.tolist() == [1, 1, 1]

    def test_dominance(self):
        dataset, space = _numeric_space(np.array([[0.95], [0.05]]))
        protos = Prototypes(np.array([[0.0], [1.0]]))
        part = assign(dataset, space, protos, None)
        assert part.labels.tolist() == [2, 1]

    def test_hamming_fallback_scores_as_mismatch(self):
        # every span is degenerate, so the attribute falls back to 0/1
        # mismatch; its all-zero coordinates would score every value alike
        schema = parse_schema("c,nom,a|b|c\n")
        dataset = ingest_table("a\nb\nc", schema)
        with pytest.warns(RuntimeWarning, match="falling back"):
            space = reconstruct(BaseDistanceTable(schema, (np.zeros((3, 3)),)))
        protos = Prototypes(np.array([[1.0], [2.0]]))
        assert assign(dataset, space, protos, None).labels.tolist() == [1, 2, 1]

    def test_matches_naive_argmin(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            dataset = random_dataset(rng, max_n=20, min_categorical=1)
            space = reconstruct(
                build_base_distances(discretize_numerical(dataset))
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
            assert got.labels.tolist() == [int(x) + 1 for x in scores.argmin(axis=1)]

    @pytest.mark.parametrize(
        "part, shape, expected",
        [
            ("weights", (7,), (4,)),
            ("weights", (3,), (4,)),
            ("weights", (3, 4), (2, 4)),
            ("weights", (1, 4), (2, 4)),
            ("weights", (2, 5), (2, 4)),
            ("prototypes", (2, 3), (2, 2)),
            ("prototypes", (2, 1), (2, 2)),
        ],
    )
    def test_rejects_wrong_shapes(self, part, shape, expected):
        # d = 2 attributes and d_hat = 4 columns (one numerical, three spans
        # of a 3-valued nominal); k = 2 unless the prototypes say otherwise
        dataset, space = _mixed("x,num\nc,nom,a|b|c\n", "0.0,a\n0.5,b\n1.0,c\n0.2,a")
        assert (dataset.schema.d, space.d_hat) == (2, 4)
        protos = Prototypes(np.ones(shape if part == "prototypes" else (2, 2)))
        if part == "prototypes":
            weights = None
        elif len(shape) == 1:
            weights = WeightVector(np.full(shape, 1.0 / shape[0]))
        else:
            weights = WeightMatrix(np.full(shape, 1.0 / shape[1]))
        message = f"{part} must have shape {expected}; got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            assign(dataset, space, protos, weights)


# d = 2 attributes (one numerical, one 3-valued nominal) and n = 4 objects
_STEP_DATA = ("x,num\nc,nom,a|b|c\n", "0.0,a\n0.5,b\n1.0,c\n0.2,a")


def _refit(dataset, space, partition, protos):
    return update_prototypes(dataset, partition)


def _assign(dataset, space, partition, protos):
    return assign(dataset, space, protos, None)


class TestStepInputs:
    """The single-step operations reject inputs that do not fit the dataset."""

    @pytest.mark.parametrize("step", [_refit, update_weight_vector, update_weight_matrix])
    def test_partition_of_another_length(self, step):
        dataset, space = _mixed(*_STEP_DATA)
        protos = Prototypes(np.ones((2, 2)))
        message = "partition labels must have shape (4,); got (3,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            step(dataset, space, Partition((1, 2, 1), 2), protos)

    @pytest.mark.parametrize("step", [update_weight_vector, update_weight_matrix])
    def test_prototypes_of_another_width(self, step):
        dataset, space = _mixed(*_STEP_DATA)
        protos = Prototypes(np.ones((2, 5)))
        message = "prototypes must have shape (2, 2); got (2, 5)"
        with pytest.raises(ValueError, match=re.escape(message)):
            step(dataset, space, Partition((1, 2, 2, 1), 2), protos)

    @pytest.mark.parametrize("step", [update_weight_vector, update_weight_matrix])
    def test_labels_above_the_prototype_count(self, step):
        dataset, space = _mixed(*_STEP_DATA)
        protos = Prototypes(np.ones((2, 2)))
        with pytest.raises(ValueError, match="^partition has labels above k=2$"):
            step(dataset, space, Partition((1, 2, 3, 1), 3), protos)

    @pytest.mark.parametrize("step", [_assign, update_weight_vector, update_weight_matrix])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_numerical_prototype_not_finite(self, step, value):
        # a NaN score has no nearest prototype
        dataset, space = _mixed(*_STEP_DATA)
        protos = Prototypes(np.array([[0.5, 1.0], [value, 2.0]]))
        message = "prototype values of attribute 'x' must be finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            step(dataset, space, Partition((1, 2, 2, 1), 2), protos)

    @pytest.mark.parametrize("step", [_assign, update_weight_vector, update_weight_matrix])
    @pytest.mark.parametrize("value", [0.0, 1.5, 4.0, 9.0, np.nan])
    def test_categorical_prototype_outside_the_values(self, step, value):
        dataset, space = _mixed(*_STEP_DATA)
        protos = Prototypes(np.array([[0.5, 1.0], [0.5, value]]))
        message = "prototype values of attribute 'c' must be integers in [1, 3]"
        with pytest.raises(ValueError, match=re.escape(message)):
            step(dataset, space, Partition((1, 2, 2, 1), 2), protos)


    def test_space_of_another_schema(self):
        # Refused before the dataset builds anything from it, so later runs
        # on the dataset still work. A space reconstructed from another
        # dataset of the same schema is accepted.
        rows = "a,x\nb,y\nc,x\na,y\nb,x\nc,y\na,x\nc,y"
        dataset = ingest_table(rows, parse_schema("c,nom,a|b|c\nd,nom,x|y\n"))
        other = ingest_table(rows, parse_schema("c,nom,a|b|c|e\nd,nom,x|y\n"))
        protos = Prototypes(np.array([[1.0, 1.0], [2.0, 2.0]]))
        partition = Partition((1, 2) * 4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            foreign = prepare(other, "HARR-V").space
            message = "^the space was reconstructed for another schema$"
            with pytest.raises(ValueError, match=message):
                assign(dataset, foreign, protos, None)
            for step in (update_weight_vector, update_weight_matrix):
                with pytest.raises(ValueError, match=message):
                    step(dataset, foreign, partition, protos)
            for variant in ("HARR-V", "KPT"):
                run(dataset, RunConfig(k=2, variant=variant))
            twin = build_dataset(dataset.schema, dataset.cells[:6])
            twin_space = prepare(twin, "HARR-V").space
        assert assign(dataset, twin_space, protos, None).labels.shape == (dataset.n,)


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
                build_base_distances(discretize_numerical(dataset))
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
                build_base_distances(discretize_numerical(dataset))
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
        enc = prepare(dataset, "OHE+OC").model.at(np.arange(dataset.n))
        # the numerical attribute comes first
        assert enc[:, 0].tolist() == [0.0, 1.0, 0.5]
        # one-hot block: two different nominal values differ in 2 coordinates
        assert np.abs(enc[0, 1:4] - enc[1, 1:4]).sum() == 2.0
        # order coding: normalized ranks
        assert enc[:, 4].tolist() == [0.0, 1.0, 0.5]
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
            labels, trace = lloyd_oracle(ohe_oc_oracle(dataset), list(init))
            assert report.labels.tolist() == [label + 1 for label in labels]
            # converged runs close with a repeat of the fixed-point objective
            assert np.allclose(report.trace_z[:-1], trace, rtol=1e-12, atol=0.0)
            checked += 1
        assert checked >= 8

    def test_bd_matches_hand_loop(self):
        schema = parse_schema("u,nom,a|b|c\nw,nom,x|y\n")
        data = "a,x\na,y\nb,x\nb,x\nc,y\nc,y\na,x\nb,y"
        dataset = ingest_table(data, schema)
        table = build_base_distances(discretize_numerical(dataset))
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
        assert report.labels.tolist() == [int(x) + 1 for x in expected]

    def test_har_equals_uniform_weight_replay(self):
        # replay the frozen-weight loop through the public single-step
        # operations and compare with the packaged HAR run
        schema = parse_schema("c,nom,a|b|c\nx,num\n")
        rows = ["a,0.05", "a,0.1", "b,0.5", "b,0.55", "c,0.9", "c,1.0", "a,0.0", "b,0.45"]
        dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
        space = reconstruct(build_base_distances(discretize_numerical(dataset)))
        cfg = RunConfig(k=3, seed=6, variant="HAR")
        report = run(dataset, cfg)

        rng = np.random.default_rng(6)
        proto_vals = dataset.cells[rng.choice(dataset.n, size=3, replace=False)]
        protos = Prototypes(proto_vals)
        w = WeightVector(np.full(space.d_hat, 1.0 / space.d_hat))
        prev = None
        for _ in range(100):
            part = assign(dataset, space, protos, w)
            if prev is not None and np.array_equal(part.labels, prev):
                break
            prev = part.labels
            protos = update_prototypes(dataset, part)
        assert np.array_equal(report.labels, prev)

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
                assert report.labels.tolist() == [x + 1 for x in labels]
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
            if q_prime is None or not np.array_equal(part.labels, q_prime):
                q_prime = part.labels
                protos = update_prototypes(dataset, part)
                continue
            if q_dprime is not None and np.array_equal(part.labels, q_dprime):
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
                prep, RunConfig(k=2, seed=int(rng.integers(0, 100)), variant=variant)
            )
            if not report.converged or any(report.trace_reseeded):
                continue  # replay has no cap/re-seed handling
            labels, weights = self._replay(
                dataset, prep.space, 2, report.seed, matrix=variant == "HARR-M"
            )
            assert np.array_equal(labels, report.labels)
            if variant == "HARR-M":
                assert np.allclose(weights.w, np.array(report.weight_matrix), atol=1e-12)
            else:
                assert np.allclose(weights.w, np.array(report.weights), atol=1e-12)
            checked += 1
        assert checked >= 6


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["HARR-V", "HARR-M", "HAR"]))
def test_run_matches_alternating_oracle(seed, variant):
    # Whole runs, caps, re-seeds and weight refreshes included: the engine's
    # labels, objective trace, weights and flags equal the per-object loop's
    # bit for bit. Up to 8 values give up to 28 sub-attributes per attribute.
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, max_n=40, max_v=8, min_categorical=1)
    config = RunConfig(
        k=int(rng.integers(2, 5)),
        seed=int(rng.integers(0, 1000)),
        variant=variant,
        inner_cap=int(rng.integers(1, 6)),
        outer_cap=int(rng.integers(1, 4)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        prep = prepare(dataset, variant)
        report = run_prepared(prep, config)
        expected = alternating_oracle(
            dataset,
            prep.space,
            variant,
            config.k,
            config.seed,
            config.inner_cap,
            config.outer_cap,
        )
    for name, value in expected.items():
        got = getattr(report, name)
        same = np.array_equal(got, value) if isinstance(got, np.ndarray) else got == value
        assert same, name


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["KPT", "KMD", "BD"]))
def test_capped_baseline_matches_table_oracle(seed, variant):
    # KPT, KMD and BD stop after inner_cap assignments; a run converged when
    # one more assignment would change nothing
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, max_n=30, min_categorical=5 if variant == "KMD" else 0)
    config = RunConfig(
        k=int(rng.integers(2, 5)),
        seed=int(rng.integers(0, 1000)),
        variant=variant,
        inner_cap=int(rng.integers(1, 6)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # unobserved values
        report = run(dataset, config)
        table = None
        if variant == "BD":
            table = build_base_distances(discretize_numerical(dataset))
    kinds, tables = [], []
    for r, attr in enumerate(dataset.schema.attributes):
        kinds.append("cat" if attr.kind.is_categorical else "num")
        if not attr.kind.is_categorical:
            tables.append(None)
        else:
            tables.append(1.0 - np.eye(attr.v) if table is None else table.matrices[r])
    init = list(np.random.default_rng(config.seed).choice(dataset.n, config.k, replace=False))

    def oracle(max_iter):
        return kmodes_with_table_oracle(dataset.cells, kinds, tables, init, max_iter)

    labels, trace_z, trace_reseeded = oracle(config.inner_cap)
    converged = oracle(config.inner_cap + 1)[1] == trace_z
    assert report.labels.tolist() == [x + 1 for x in labels]
    assert report.trace_reseeded == tuple(trace_reseeded)
    assert report.trace_z == pytest.approx(trace_z, rel=1e-12, abs=1e-12)
    assert report.converged == converged
    assert report.inner_iterations == len(trace_z) - converged


def _mixed_sample(rng):
    """A random dataset with numerical and categorical attributes whose rows
    are drawn with replacement, so objects share distinct rows and distinct
    rows share categorical sub-rows."""
    while True:
        base = random_dataset(rng, max_n=30, max_v=6, min_categorical=1)
        if base.schema.d_u:
            break
    return build_dataset(base.schema, base.cells[rng.integers(0, base.n, 2 * base.n)])


def _attributes(dataset, keep):
    """The dataset restricted to the attributes in ``keep``."""
    schema = DatasetSchema(tuple(dataset.schema.attributes[r] for r in keep))
    return build_dataset(schema, dataset.cells[:, list(keep)])


def _ohe_oc_columns(dataset):
    """``ohe_oc_oracle``'s columns in the column layout: the numerical
    attributes first, then each categorical attribute's columns."""
    schema = dataset.schema
    widths = [a.v if a.kind is AttributeKind.NOMINAL else 1 for a in schema.attributes]
    starts = np.cumsum([0, *widths])
    order = [starts[r] for r in schema.numerical_indices()]
    for r in schema.categorical_indices():
        order.extend(range(starts[r], starts[r + 1]))
    return ohe_oc_oracle(dataset)[:, order]


def _object_scores(dataset, variant, prep, protos, weights):
    """k x n dissimilarities recomputed object by object from their
    definitions, in the engine's order: each categorical attribute's terms
    summed and added as one total, then the numerical attributes' terms."""
    schema, cells = dataset.schema, dataset.cells
    m = prep.model.m
    tables = None
    if variant == "BD":
        tables = build_base_distances(discretize_numerical(dataset)).matrices
    enc = _ohe_oc_columns(dataset)
    d_u = schema.d_u
    # numerical pass-throughs, then each categorical attribute's columns
    numeric = list(enumerate(schema.numerical_indices()))

    def parts(i, l):
        """(one list of terms per categorical total, the numerical terms)"""
        if variant == "OHE+OC":
            sq = [(float(enc[i, j]) - float(protos[l, j])) ** 2 for j in range(m)]
            cat, col = [], d_u
            for r in schema.categorical_indices():
                attr = schema.attributes[r]
                width = attr.v if attr.kind is AttributeKind.NOMINAL else 1
                cat.append(sq[col : col + width])
                col += width
            return cat, sq[:d_u]
        w = np.ones(m) if weights is None else weights
        w = [float(x) for x in (w[l] if w.ndim == 2 else w)]
        x = [int(c) - 1 for c in cells[i]]
        p = [int(c) - 1 for c in protos[l]]
        if prep.space is None:  # one column per categorical attribute
            cat = []
            for col, r in enumerate(schema.categorical_indices(), d_u):
                phi = float(x[r] != p[r]) if tables is None else tables[r][x[r], p[r]]
                cat.append([w[col] * phi])
        else:  # each block's sub-attributes
            cat, col = [], d_u
            for b in prep.space.blocks:
                xb, pb = x[b.source], p[b.source]
                phi = [
                    float(xb != pb) if b.is_fallback
                    else abs(float(b.coords[c, xb]) - float(b.coords[c, pb]))
                    for c in range(b.gamma)
                ]
                cat.append([w[col + c] * phi[c] for c in range(b.gamma)])
                col += b.gamma
        gaps = [w[j] * abs(float(cells[i, r]) - float(protos[l, r])) for j, r in numeric]
        return cat, gaps

    out = np.empty((protos.shape[0], dataset.n))
    for l in range(protos.shape[0]):
        for i in range(dataset.n):
            cat, gaps = parts(i, l)
            total = 0.0
            for terms in cat:
                part = 0.0
                for t in terms:
                    part += t
                total += part
            for t in gaps:
                total += t
            out[l, i] = total
    return out


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.sampled_from(cluster.VARIANTS))
def test_score_step_matches_per_object_scores(seed, variant):
    # Scores sum their categorical part once per categorical sub-row, repeat
    # it over the sub-row's distinct rows and add the numerical gaps; read
    # per object they agree with a per-object recomputation, and so does
    # every object's nearest prototype. OHE+OC refits to its members' means.
    rng = np.random.default_rng(seed)
    dataset = _mixed_sample(rng)
    if variant == "KMD":  # pure categorical data only
        dataset = _attributes(dataset, dataset.schema.categorical_indices())
    k = int(rng.integers(2, 5))
    labels0 = rng.permutation(np.arange(dataset.n) % k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        prep = prepare(dataset, variant)
    model = prep.model
    protos = model.refit(labels0, k)
    weights = {
        "HARR-V": rng.dirichlet(np.ones(model.m)),
        "HARR-M": rng.dirichlet(np.ones(model.m), size=k),
        "HAR": np.full(model.m, 1.0 / model.m),
    }.get(variant)
    scores = model.scores(protos, weights, {}, cluster._block_buffer(model))
    assert scores.shape == (k, model.repeats.sum())  # one column per distinct row
    expected = _object_scores(dataset, variant, prep, protos, weights)
    got = scores[:, model.inverse]
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(got.argmin(axis=0), expected.argmin(axis=0))
    if variant == "OHE+OC":
        enc = _ohe_oc_columns(dataset)
        means = np.stack([enc[labels0 == l].mean(axis=0) for l in range(k)])
        assert protos.tobytes() == means.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    k=st.sampled_from([1, 2, 5, 300]),
    u=st.integers(1, 50),
    levels=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_is_the_first_column_minimum(k, u, levels, seed):
    # Quarter steps of either sign tie exactly, zeros as 0.0 and -0.0;
    # duplicated rows tie whole columns and one column ties every row. Each
    # column's nearest row is argmin's, ties to the lowest, and the minimum
    # is the column minimum bit for bit.
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels + 1, (k, u)) * rng.choice([-0.25, 0.25], (k, u))
    scores[rng.integers(0, k, k // 2)] = scores[rng.integers(0, k, k // 2)]
    scores[:, rng.integers(0, u)] = scores[0, 0]
    nearest, best = cluster._nearest(scores)
    assert nearest.dtype == np.intp
    assert np.array_equal(nearest, scores.argmin(axis=0))
    assert best.tobytes() == scores.min(axis=0).tobytes()


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["any", "no rows", "numerical only", "categorical only"]),
)
def test_encode_ohe_oc_matches_oracle(seed, shape):
    # The OHE+OC model's encoded points equal the attribute-by-attribute
    # encoding bit for bit, in shape and in column order.
    rng = np.random.default_rng(seed)
    if shape == "any":
        dataset = random_dataset(rng)
    elif shape == "no rows":
        base = random_dataset(rng)
        dataset = build_dataset(base.schema, base.cells[:0])
    else:
        base = _mixed_sample(rng)
        schema = base.schema
        keep = (
            schema.numerical_indices()
            if shape == "numerical only"
            else schema.categorical_indices()
        )
        dataset = _attributes(base, keep)
    got = prepare(dataset, "OHE+OC").model.at(np.arange(dataset.n))
    expected = _ohe_oc_columns(dataset)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _masked_counts(model, g, labels0, k):
    """(k, v) value counts of one categorical group, counted per object."""
    v = g.value_counts.size
    codes0 = model.dataset.cells[:, g.source].astype(np.int64) - 1
    return np.bincount(labels0 * v + codes0, minlength=k * v).reshape(k, v).astype(float)


def _masked_refit(model, labels0, k):
    """The column model's refit with one boolean mask per cluster and one
    per-object count per categorical attribute."""
    proto = np.empty((k, model.dataset.schema.d))
    empty = np.bincount(labels0, minlength=k) == 0
    for num in model.numeric:
        for l in range(k):
            members = num.values if empty[l] else num.values[labels0 == l]
            proto[l, num.source] = members.mean()
    for g in model.groups:
        counts = _masked_counts(model, g, labels0, k)
        counts[empty] = g.value_counts
        proto[:, g.source] = counts.argmax(axis=1) + 1
    return proto


def _masked_weight_stats(model, proto_vals, labels0, k):
    """``_weight_stats`` with one boolean mask per cluster and one
    per-object count per categorical attribute."""
    member_sum = np.empty((k, model.m))
    total_sum = np.empty((k, model.m))
    buf = cluster._block_buffer(model)
    for num in model.numeric:
        for l in range(k):
            gap = np.abs(num.values - proto_vals[l, num.source])
            total_sum[l, num.col] = gap.sum()
            member_sum[l, num.col] = gap[labels0 == l].sum()
    for g in model.groups:
        counts = _masked_counts(model, g, labels0, k)
        for l in range(k):
            per_value = g.per_value(int(proto_vals[l, g.source]) - 1, buf)
            member_sum[l, g.cols] = per_value @ counts[l]
            total_sum[l, g.cols] = per_value @ g.value_counts
    return member_sum, total_sum, np.bincount(labels0, minlength=k).astype(float)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(
        ["any", "empty clusters", "k = 300", "no numerical", "no categorical"]
    ),
    st.sampled_from(["HARR-M", "KPT", "BD"]),
)
def test_grouped_members_match_masked_reference(seed, shape, variant):
    # A refit and a weight refresh group the members once: a stable sort
    # of the labels gives each cluster a slice of every numerical column and
    # one sub-row count gives every categorical attribute's value counts.
    # Both match the per-cluster mask and per-object count bit for bit,
    # with empty clusters (the dataset-wide fallback) and with k = 300,
    # whose sort key is 16 bits wide.
    rng = np.random.default_rng(seed)
    dataset = _mixed_sample(rng)
    schema = dataset.schema
    if shape == "no numerical":
        dataset = _attributes(dataset, schema.categorical_indices())
    elif shape == "no categorical":
        dataset = _attributes(dataset, schema.numerical_indices())
    k = int(rng.integers(2, 6))
    labels0 = rng.integers(0, k, dataset.n)
    if shape == "k = 300":
        k = 300
        dataset = build_dataset(schema, dataset.cells[rng.integers(0, dataset.n, 3000)])
        labels0 = rng.integers(0, k, dataset.n)
    elif shape == "empty clusters":
        k += 2
        alive = rng.choice(k, size=int(rng.integers(1, k - 1)), replace=False)
        labels0 = alive[rng.integers(0, alive.size, dataset.n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = prepare(dataset, variant).model
    protos = model.refit(labels0, k)
    assert protos.tobytes() == _masked_refit(model, labels0, k).tobytes()
    stats = cluster._weight_stats(model, protos, labels0, k, cluster._block_buffer(model))
    expected = _masked_weight_stats(model, protos, labels0, k)
    for got, want in zip(stats, expected):
        assert got.tobytes() == want.tobytes()


def test_refit_without_numerical_attributes_sorts_nothing():
    # Five 5-valued nominals, 100,000 objects. Only numerical columns read
    # the labels' sort permutation (800 KB), so an all-categorical refit
    # never builds it: its largest array is the one n-length sub-row key.
    n, k = 100_000, 5
    schema = parse_schema("".join(f"a{r},nom,p|q|r|s|t\n" for r in range(5)))
    rng = np.random.default_rng(11)
    dataset = build_dataset(schema, rng.integers(1, 6, size=(n, 5)))
    labels0 = rng.integers(0, k, n)
    for variant in ("KMD", "HARR-M"):
        model = prepare(dataset, variant).model
        model.refit(labels0, k)
        tracemalloc.start()
        try:
            model.refit(labels0, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * 8, variant


def test_score_memo_builds_each_total_once_per_epoch(monkeypatch):
    # One 30-valued nominal has 435 sub-attributes, so every per-value build
    # is a (435, 30) array. Within a fixed-weight epoch, HARR-M builds each
    # (cluster row, prototype value) at most once across its score steps and
    # keeps only the (30,) totals between them.
    schema = parse_schema("c,nom," + "|".join(f"v{t}" for t in range(30)) + "\n")
    rng = np.random.default_rng(3)
    dataset = build_dataset(schema, rng.integers(1, 31, size=(600, 1)))
    epoch = 0
    in_scores = False
    rows = defaultdict(set)  # epoch -> {(cluster row, 0-based value)} scored
    builds = Counter()  # (epoch, 0-based value) -> per-value builds in scores
    scores, per_value, weight_stats = (
        cluster._ColumnModel.scores,
        cluster._CatGroup.per_value,
        cluster._weight_stats,
    )

    def counted_scores(self, proto_vals, weights, memo, buf):
        nonlocal in_scores
        rows[epoch].update((l, int(v) - 1) for l, v in enumerate(proto_vals[:, 0]))
        in_scores = True
        try:
            return scores(self, proto_vals, weights, memo, buf)
        finally:
            in_scores = False
            assert all(t.shape == (30,) for t in memo.values())
            assert not any(np.shares_memory(t, buf) for t in memo.values())

    def counted_per_value(self, p, out):
        if in_scores:
            builds[epoch, p] += 1
        return per_value(self, p, out)

    def counted_weight_stats(*args):
        nonlocal epoch
        epoch += 1
        return weight_stats(*args)

    monkeypatch.setattr(cluster._ColumnModel, "scores", counted_scores)
    monkeypatch.setattr(cluster._CatGroup, "per_value", counted_per_value)
    monkeypatch.setattr(cluster, "_weight_stats", counted_weight_stats)
    report = run(dataset, RunConfig(k=3, seed=0, variant="HARR-M", inner_cap=4))
    assert report.weight_updates >= 1
    assert report.inner_iterations > report.weight_updates + 1  # scores reused
    assert builds
    for (e, p), count in builds.items():
        assert count <= sum(1 for _, q in rows[e] if q == p), (e, p)


@settings(max_examples=80, deadline=None)
@given(
    v=st.integers(2, 12),
    table=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_per_value_builds_block_in_buffer(v, table, seed, data):
    # A block is a view of the front of ``out``, bit for bit equal to the
    # allocating formula; a table group copies its column and never writes
    # into the frozen table. The rest of ``out`` keeps its contents.
    rng = np.random.default_rng(seed)
    p = data.draw(st.integers(0, v - 1))
    rows = 1 if table else v * (v - 1) // 2
    values = rng.standard_normal((v, v) if table else (rows, v))
    kept = values.copy()
    group = cluster._CatGroup(
        source=0,
        cols=_freeze(np.arange(rows)),
        sub=_freeze(np.zeros(1, dtype=np.int64)),
        value_counts=_freeze(np.ones(v)),
        coords=None if table else _freeze(values),
        table=_freeze(values) if table else None,
    )
    out = np.full(rows * v + 7, np.nan)
    block = group.per_value(p, out)
    expected = kept[None, :, p] if table else np.abs(kept - kept[:, p, None])
    assert block.shape == (rows, v)
    assert block.ctypes.data == out.ctypes.data and np.shares_memory(block, out)
    assert block.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert values.tobytes() == kept.tobytes()
    assert np.isnan(out[rows * v :]).all()


def test_block_builds_allocate_no_block_arrays():
    # One 40-valued nominal: each (780, 40) distance block takes 250 KB.
    # Scoring and the weight refresh build every block in the caller's
    # buffer, so neither allocates anything near one block.
    schema = parse_schema("c,nom," + "|".join(f"v{t}" for t in range(40)) + "\n")
    rng = np.random.default_rng(5)
    dataset = build_dataset(schema, rng.integers(1, 41, size=(400, 1)))
    model = prepare(dataset, "HARR-M").model
    buf = cluster._block_buffer(model)
    assert buf.nbytes == 780 * 40 * 8
    k = 3
    proto_vals = model.at(np.arange(k))
    weights = np.full((k, model.m), 1.0 / model.m)
    labels0 = np.arange(dataset.n) % k
    tracemalloc.start()
    try:
        model.scores(proto_vals, weights, {}, buf)
        cluster._weight_stats(model, proto_vals, labels0, k, buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buf.nbytes / 2


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
    # 200,000 objects on 10 distinct rows: scores are k x 10, so a run never
    # holds the n x k table of per-object scores (8 MB here).
    n, k = 200_000, 5
    i = np.arange(n)
    schema = parse_schema("a,nom,p|q|r|s|t\nb,nom,x|y\n")
    dataset = build_dataset(schema, np.column_stack([i % 5 + 1, i % 2 + 1]))
    prep = prepare(dataset, variant)
    assert prep.model.repeats.sum() == 10  # distinct rows
    tracemalloc.start()
    try:
        run_prepared(prep, RunConfig(k=k, seed=0, variant=variant))
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
        assert run_prepared(prep, cfg) == run(dataset, cfg)

    def test_prep_variant_mismatch(self):
        rng = np.random.default_rng(56)
        dataset = random_dataset(rng, max_n=20, min_categorical=1)
        prep = prepare(dataset, "KPT")
        with pytest.raises(ConfigError, match="prepared for"):
            run_prepared(prep, RunConfig(k=2, variant="BD"))


def _variants_for(dataset):
    return [v for v in cluster.VARIANTS if v != "KMD" or not dataset.schema.d_u]


def _fresh(dataset):
    """An equal dataset that has built nothing yet."""
    return Dataset(dataset.schema, dataset.cells)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_prepare_gives_equal_models_in_any_variant_order(seed):
    # Set-up shared on one dataset gives every variant the model and space
    # it gets on a dataset of its own, whichever variant comes first.
    rng = np.random.default_rng(seed)
    dataset = _mixed_sample(rng)
    variants = _variants_for(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        shared = {v: prepare(dataset, v) for v in rng.permutation(variants)}
        for variant in variants:
            alone = prepare(_fresh(dataset), variant)
            assert shared[variant].model == alone.model, variant
            assert shared[variant].space == alone.space, variant
    # HARR-V, HARR-M and HAR build their own models on one space and one set
    # of columns
    first, *rest = (shared[v] for v in ("HARR-V", "HARR-M", "HAR"))
    for prep in rest:
        assert prep.space is first.space
        for g, h in zip(prep.model.groups, first.model.groups, strict=True):
            assert g.coords is h.coords and g.sub is h.sub
    # and every variant reads the dataset's one copy of each column
    first, *rest = (shared[v].model for v in variants)
    for model in rest:
        assert model.inverse is first.inverse and model.sub_of is first.sub_of
        for num, same in zip(model.numeric, first.numeric, strict=True):
            assert num.values is same.values and num.distinct is same.distinct
        for g, h in zip(model.groups, first.groups, strict=True):
            assert g.sub is h.sub and g.value_counts is h.value_counts


@pytest.mark.parametrize("variant", cluster.VARIANTS)
def test_every_variant_has_one_column_layout(variant):
    # The numerical columns come first, in attribute order, then one
    # contiguous group per categorical attribute, in attribute order, though
    # a numerical attribute follows a categorical one here.
    schema = parse_schema("c,nom,a|b|c|d\nx,num\ng,ord,lo|mid|hi\ny,num\n")
    rng = np.random.default_rng(17)
    cells = rng.random((60, 4))
    cells[:, 0] = rng.integers(1, 5, 60)
    cells[:, 2] = rng.integers(1, 4, 60)
    dataset = build_dataset(schema, cells)
    if variant == "KMD":  # pure categorical data only
        dataset = _attributes(dataset, schema.categorical_indices())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = prepare(dataset, variant).model
    numerical = dataset.schema.numerical_indices()
    assert [num.col for num in model.numeric] == list(range(len(numerical)))
    assert tuple(num.source for num in model.numeric) == numerical
    sources = tuple(g.source for g in model.groups)
    assert sources == dataset.schema.categorical_indices()
    col = len(numerical)
    for g in model.groups:
        assert g.cols.tolist() == list(range(col, col + g.cols.size))
        col += g.cols.size
    assert model.m == col


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_distinct_rows_record(seed, copies):
    rng = np.random.default_rng(seed)
    base = random_dataset(rng)
    # rows drawn with replacement, so repeats occur beside numeric columns too
    cells = base.cells[rng.integers(0, base.n, size=base.n * copies)]
    dataset = build_dataset(base.schema, cells)
    part = cluster._columns(dataset)
    inverse, repeats, sub_of, numeric, codes = part
    # Every distinct row is held by some object, and the part's values at the
    # distinct rows and at the sub-rows give back every object's cells.
    u = repeats.sum()
    assert (np.bincount(inverse, minlength=u) > 0).all() and inverse.max() < u
    for num in numeric:
        assert np.array_equal(num.distinct[inverse], cells[:, num.source])
    for r, (at_sub, _) in codes.items():
        assert np.array_equal(at_sub[sub_of] + 1, cells[:, r])
    same_id = inverse[:, None] == inverse[None, :]
    same_row = (cells[:, None, :] == cells[None, :, :]).all(axis=2)
    assert np.array_equal(same_id, same_row)
    # Categorical sub-rows: two objects share an id exactly when their
    # categorical cells are equal, and the ids count up from 0, never
    # decreasing over the distinct rows: sub-row j is the next repeats[j].
    cat = cells[:, list(base.schema.categorical_indices())]
    same_sub = sub_of[:, None] == sub_of[None, :]
    assert np.array_equal(same_sub, (cat[:, None, :] == cat[None, :, :]).all(axis=2))
    assert (repeats > 0).all()
    assert np.array_equal(np.repeat(np.arange(repeats.size), repeats)[inverse], sub_of)
    assert cluster._columns(dataset) is part


def _distinct_rows_reference(cells, schema):
    """Distinct rows from one lexsort over the raw columns, categorical
    columns first, and a row-by-row comparison of the sorted table: each
    distinct row's lowest object, each object's distinct row, and each
    distinct row's sub-row."""
    cat, num = list(schema.categorical_indices()), list(schema.numerical_indices())
    order = np.lexsort([cells[:, c] for c in (cat + num)[::-1]])
    ordered = cells[order]
    differs = np.ones(ordered.shape, dtype=bool)
    differs[1:] = ordered[1:] != ordered[:-1]
    new_sub = differs[:, cat].any(axis=1)
    new_sub[0] = True
    new = new_sub | differs[:, num].any(axis=1)
    inverse = np.empty(cells.shape[0], dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse, np.cumsum(new_sub)[new] - 1


def _assert_distinct_rows_match_reference(dataset):
    inverse, repeats, sub_of, numeric, codes = cluster._columns(dataset)
    first, ref_inverse, sub = _distinct_rows_reference(dataset.cells, dataset.schema)
    assert np.array_equal(inverse, ref_inverse)
    assert np.array_equal(sub_of, sub[ref_inverse])
    assert np.array_equal(repeats, np.bincount(sub))
    for num in numeric:
        assert np.array_equal(num.distinct, dataset.cells[first, num.source])
    held = first[np.cumsum(repeats) - repeats]  # the first distinct row's object
    for r, (at_sub, _) in codes.items():
        assert np.array_equal(at_sub + 1, dataset.cells[held, r])


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 70))
def test_packed_distinct_rows_match_lexsort_reference(seed, copies, max_v):
    rng = np.random.default_rng(seed)
    base = random_dataset(rng, max_d=8, max_v=max_v)
    cells = base.cells[rng.integers(0, base.n, size=base.n * copies)]
    _assert_distinct_rows_match_reference(build_dataset(base.schema, cells))


def test_packed_distinct_rows_split_keys_past_int64():
    # 61**12 exceeds 2**63, so the twelve columns need two packed keys
    attrs = [
        AttributeSchema(f"c{r}", AttributeKind.NOMINAL, tuple(map(str, range(60))))
        for r in range(12)
    ]
    schema = DatasetSchema((*attrs, AttributeSchema("x", AttributeKind.NUMERICAL)))
    rng = np.random.default_rng(5)
    cells = np.empty((400, 13))
    cells[:, :12] = rng.integers(1, 61, size=(400, 12))
    cells[:, :12][rng.random((400, 12)) < 0.9] = 60  # many shared sub-rows
    cells[:, 12] = rng.integers(0, 3, size=400) / 2
    cells = cells[rng.integers(0, 400, size=800)]
    dataset = build_dataset(schema, cells)
    assert len(cluster._packed_keys(cells, schema)) == 2
    _assert_distinct_rows_match_reference(dataset)


@pytest.mark.parametrize("variant", cluster.VARIANTS)
def test_prepared_dataset_is_freed_by_reference_counting(variant):
    # No part kept on a dataset refers back to it, so dropping the last
    # reference frees the dataset and its parts without the cyclic collector.
    dataset = _mixed_sample(np.random.default_rng(31))
    if variant == "KMD":
        dataset = _attributes(dataset, dataset.schema.categorical_indices())
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            prep = prepare(dataset, variant)
            run_prepared(prep, RunConfig(k=2, seed=0, variant=variant))
        alive = weakref.ref(dataset)
        del dataset, prep
        assert alive() is None
    finally:
        if gc_was_enabled:
            gc.enable()


def _count_calls(monkeypatch, *names):
    """Count the calls ``harr.cluster`` makes to each of ``names``."""
    calls = Counter()
    for name in names:
        def counted(*args, _fn=getattr(cluster, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cluster, name, counted)
    return calls


def test_prepare_builds_shared_parts_once_per_dataset(monkeypatch):
    calls = _count_calls(
        monkeypatch, "discretize_numerical", "build_base_distances", "reconstruct"
    )
    dataset = _mixed_sample(np.random.default_rng(8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for variant in _variants_for(dataset):
            prepare(dataset, variant)
        assert calls == {
            "discretize_numerical": 1, "build_base_distances": 1, "reconstruct": 1
        }
        prepare(_fresh(dataset), "HAR")
    assert calls == {
        "discretize_numerical": 2, "build_base_distances": 2, "reconstruct": 2
    }


def test_shared_set_up_warns_once_per_dataset():
    # 'yy' and 'zz' never occur: the base distances warn about both, and
    # their all-zero rows leave the span between them degenerate.
    schema = parse_schema("c,nom,a|b|yy|zz\nx,num\n")
    dataset = normalize_numerical(ingest_table("a,0.1\nb,0.9\na,0.2\nb,0.8", schema))

    def recorded(data, variants):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for variant in variants:
                prepare(data, variant)
        return Counter(str(w.message) for w in caught)

    once = recorded(dataset, ["HARR-V", "HARR-M", "HAR", "BD", "KPT", "OHE+OC"])
    assert any("never observed: yy, zz" in m for m in once)
    assert any("degenerate spans [(3, 4)]" in m for m in once)
    assert set(once.values()) == {1}
    assert recorded(dataset, ["HARR-V", "BD"]) == Counter()
    assert recorded(_fresh(dataset), ["HARR-M"]) == once


@pytest.mark.parametrize(
    "variants", [("HARR-V", "HARR-M"), ("BD", "HAR"), ("KPT", "OHE+OC")]
)
def test_threads_preparing_one_dataset_share_one_build(monkeypatch, variants):
    # Both threads ask for the dataset's parts at once: the row index and
    # columns (counted by their key packing) and, for every variant but KPT
    # and OHE+OC, the base distances are each built once.
    names = ("_packed_keys", "build_base_distances")
    calls = _count_calls(monkeypatch, *names)
    for name in names:
        # widen the window in which both threads ask
        def build(*args, _slow=getattr(cluster, name)):
            time.sleep(0.05)
            return _slow(*args)

        monkeypatch.setattr(cluster, name, build)
    dataset = _mixed_sample(np.random.default_rng(21))
    start = threading.Barrier(len(variants))
    got = {}

    def work(variant):
        start.wait()
        got[variant] = prepare(dataset, variant)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        threads = [threading.Thread(target=work, args=(v,)) for v in variants]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls["_packed_keys"] == 1
        assert calls["build_base_distances"] == (0 if "KPT" in variants else 1)
        for variant in variants:
            alone = prepare(_fresh(dataset), variant)
            assert got[variant].model == alone.model
            assert got[variant].space == alone.space


def test_parts_of_one_dataset_with_different_keys_build_at_once():
    # A build holds only its own key's lock: while one part's build is
    # blocked, another part of the same dataset is built and returned.
    dataset = _mixed_sample(np.random.default_rng(3))
    started, release = threading.Event(), threading.Event()

    def blocked():
        started.set()
        release.wait(5)
        return "slow"

    slow = threading.Thread(target=dataset._part, args=("slow", blocked))
    quick = threading.Thread(target=dataset._part, args=("quick", lambda: "quick"))
    slow.start()
    try:
        assert started.wait(5)
        quick.start()
        quick.join(2)
        assert not quick.is_alive() and slow.is_alive()
    finally:
        release.set()
        slow.join(5)
        quick.join(5)
    assert dataset._part("quick", None) == "quick" and dataset._part("slow", None) == "slow"


def test_a_part_whose_build_raises_is_built_by_the_next_asker():
    # A second asker waits for the one build; when that build raises, the
    # key stays empty and the waiter builds the part itself, once.
    dataset = _mixed_sample(np.random.default_rng(3))
    started, release = threading.Event(), threading.Event()
    failed, got = [], []

    def fails():
        started.set()
        release.wait(5)
        raise RuntimeError("the build failed")

    def first():
        with pytest.raises(RuntimeError, match="the build failed"):
            dataset._part("part", fails)
        failed.append(True)

    builder = threading.Thread(target=first)
    waiter = threading.Thread(target=lambda: got.append(dataset._part("part", lambda: "built")))
    builder.start()
    try:
        assert started.wait(5)
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive()  # waits for the build in progress
    finally:
        release.set()
        builder.join(5)
        waiter.join(5)
    assert failed == [True] and got == ["built"]
    assert dataset._part("part", fails) == "built"


_UNIFORM_START = ("HAR", "HARR-V", "HARR-M")


@pytest.mark.parametrize("workers", [1, 3])
def test_runs_that_start_alike_share_their_first_epoch(workers):
    # HAR, HARR-V and HARR-M prepared on one dataset give the reports each
    # run gives on a dataset of its own, whichever variant computes a first
    # epoch and whichever run continues from it. Seed 1 at k = 5 re-seeds in
    # its first epoch.
    dataset = _mixed_sample(np.random.default_rng(5))
    configs = [
        RunConfig(k=k, seed=seed, variant=variant, inner_cap=cap, outer_cap=3)
        for seed in (1, 2, 3)
        for k in (2, 5)
        for cap in (1, 2, 6)
        for variant in np.roll(_UNIFORM_START, seed + k + cap)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        preps = {v: prepare(dataset, v) for v in _UNIFORM_START}
        with ThreadPoolExecutor(workers) as pool:
            shared = list(pool.map(lambda c: run_prepared(preps[c.variant], c), configs))
        for config, report in zip(configs, shared):
            fresh = _fresh(dataset)
            assert report == run_prepared(prepare(fresh, config.variant), config), config
    slots = preps["HAR"]._first_epochs._slots
    assert len(slots) == 3 * 2 * 3  # one per (seed, k, inner cap)
    assert any(
        any(r.trace_reseeded) for r in shared if r.variant == "HAR" and r.seed == 1 and r.k == 5
    )
    for _, epoch in slots.values():
        assert epoch.labels0.dtype == np.uint8 and not epoch.labels0.flags.writeable


def test_first_epochs_go_with_the_last_prepared_that_shares_them():
    # The dataset holds the store weakly: the Prepared of HAR, HARR-V and
    # HARR-M hold it, and it is freed, without the cyclic collector, when
    # the last of them goes. A later prepare starts an empty store.
    dataset = _mixed_sample(np.random.default_rng(9))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            har, harr_m = prepare(dataset, "HAR"), prepare(dataset, "HARR-M")
            assert prepare(dataset, "KPT")._first_epochs is None
            store = weakref.ref(har._first_epochs)
            assert harr_m._first_epochs is store()
            run_prepared(har, RunConfig(k=2, seed=0, variant="HAR"))
            assert len(store()._slots) == 1
            del har
            assert store() is not None
            del harr_m
            assert store() is None
            assert prepare(dataset, "HARR-V")._first_epochs._slots == {}
    finally:
        if gc_was_enabled:
            gc.enable()


def test_a_first_epoch_is_computed_once_and_distinct_keys_do_not_wait(monkeypatch):
    # Each first-epoch computation waits, up to 5 s, until another has
    # started, so the runs at seeds 0 and 1 must compute at once. HARR-V
    # and HARR-M at seed 0 ask while that one is computing; they wait for
    # it, do not compute the epoch again, and do not count it in cluster_s.
    epoch, together = cluster._epoch, threading.Barrier(2, timeout=5)
    computed = Counter()

    def first_epoch_waits(model, proto_vals, weights, labels0, *rest):
        if labels0 is None:
            computed[threading.get_ident()] += 1
            together.wait()
            time.sleep(0.3)
        return epoch(model, proto_vals, weights, labels0, *rest)

    monkeypatch.setattr(cluster, "_epoch", first_epoch_waits)
    dataset = _mixed_sample(np.random.default_rng(5))
    configs = [
        RunConfig(k=3, seed=0, variant="HAR"),
        RunConfig(k=3, seed=1, variant="HAR"),
        RunConfig(k=3, seed=0, variant="HARR-V"),
        RunConfig(k=3, seed=0, variant="HARR-M"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        preps = {v: prepare(dataset, v) for v in _UNIFORM_START}
        with ThreadPoolExecutor(4) as pool:
            reports = list(pool.map(lambda c: run_prepared(preps[c.variant], c), configs))
    assert sum(computed.values()) == 2
    # whichever run at seed 0 asked first computed its epoch
    counted = [r.cluster_s >= 0.3 for r in reports]
    assert counted[1] and sum(counted) == 2


@settings(deadline=None, max_examples=60)
@given(
    v=st.integers(2, 12),
    ordinal=st.booleans(),
    k=st.integers(2, 4),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_total_is_the_weighted_block_summed(v, ordinal, k, zero_share, seed):
    # Each weighted per-value total the score step keeps is, bit for bit,
    # the block weighted row by row and summed down its columns: one row
    # for v = 2, up to 66 for a 12-valued nominal, and weights that may be 0.
    kind = AttributeKind.ORDINAL if ordinal else AttributeKind.NOMINAL
    schema = DatasetSchema(
        (AttributeSchema("c", kind, tuple(f"v{t}" for t in range(v))), AttributeSchema("x", AttributeKind.NUMERICAL))
    )
    rng = np.random.default_rng(seed)
    cells = np.column_stack([rng.integers(1, v + 1, 40), rng.random(40)])
    dataset = normalize_numerical(build_dataset(schema, cells))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = prepare(dataset, "HARR-M").model
    buf = cluster._block_buffer(model)
    proto_vals = model.at(rng.choice(dataset.n, size=k, replace=False))
    (g,) = model.groups
    for shape in ((model.m,), (k, model.m)):
        w = rng.random(shape) * (rng.random(shape) >= zero_share)
        memo = {}
        model.scores(proto_vals, w, memo, buf)
        assert memo
        for key, total in memo.items():
            w_l = w if len(shape) == 1 else w[key[2]]
            block = g.per_value(key[1], np.empty(buf.size))
            assert total.tobytes() == (w_l[g.cols][:, None] * block).sum(axis=0).tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_ohe_oc_refit_matches_per_object_sums(seed, k):
    # A one-hot column's member sum is an exact count, so reading it from the
    # sub-row counts gives the bits of the per-object sum; rank and numerical
    # columns keep the per-object sum.
    rng = np.random.default_rng(seed)
    schema = parse_schema(
        "x,num\nn1,nom,a|b|c\no1,ord,lo|mid|hi|top\nn2,nom,p|q\ny,num\n"
    )
    n = int(rng.integers(k, 200))
    cells = np.column_stack(
        [
            rng.integers(0, 4, n) / 3,
            rng.integers(1, 4, n),
            rng.integers(1, 5, n),
            rng.integers(1, 3, n),
            rng.random(n),
        ]
    )
    dataset = build_dataset(schema, cells)
    labels0 = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
    model = prepare(dataset, "OHE+OC").model
    points = model.at(np.arange(dataset.n))
    sums = np.empty((k, model.m))
    for j in range(model.m):
        sums[:, j] = np.bincount(labels0, points[:, j], minlength=k)
    want = sums / np.bincount(labels0, minlength=k)[:, None]
    assert model.refit(labels0, k).tobytes() == want.tobytes()


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
        converged=True,
    )
    a = RunReport(**kw)
    b = RunReport(**kw, cluster_s=2.0, weights_s=3.0)
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
    assert part.labels.tolist() == [1, 3, 2, 3]
    assert part.labels.dtype == np.int64 and not part.labels.flags.writeable
    assert Partition(part.labels, 3) == part


@pytest.mark.parametrize("labels", [(1, 4), (0, 1), (-1,), (2**70,), np.array([5])])
def test_partition_rejects_out_of_range_labels(labels):
    with pytest.raises(ValueError, match=r"^labels must lie in \[1, 3\]$"):
        Partition(labels, 3)


@pytest.mark.parametrize("labels", [(1.5, 2.7), (1.0, np.nan), np.array([2.0, np.inf])])
def test_partition_rejects_non_integral_labels(labels):
    with pytest.raises(ValueError, match="^labels must be integers$"):
        Partition(labels, 3)


def test_partition_accepts_integral_floats():
    assert Partition((1.0, 3.0), 3).labels.tolist() == [1, 3]


@pytest.mark.parametrize("w", [[np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]])
def test_weight_vector_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match="^weights must be finite$"):
        WeightVector(w)


@pytest.mark.parametrize("w", [[[np.nan, 1.0], [0.5, 0.5]], [[0.5, 0.5], [np.inf, 0.0]]])
def test_weight_matrix_rejects_non_finite_weights(w):
    with pytest.raises(ValueError, match="^every weight must be finite$"):
        WeightMatrix(w)


@pytest.mark.parametrize(
    "record, w",
    [
        (WeightVector, np.full((2, 2), 0.25)),
        (WeightVector, np.float64(1.0)),
        (WeightMatrix, np.array([0.5, 0.5])),
        (WeightMatrix, np.full((1, 2, 2), 0.5)),
    ],
)
def test_weight_records_reject_the_wrong_rank(record, w):
    rank = "a weight vector must be 1-D" if record is WeightVector else "a weight matrix must be 2-D"
    with pytest.raises(ValueError, match=f"^{rank}; got shape {re.escape(str(w.shape))}$"):
        record(w)


@pytest.mark.parametrize(
    "make, field, values",
    [
        (lambda a: Dataset(parse_schema("x,num\ny,num\n"), a), "cells", [[0.5, 1], [0, 2]]),
        (Prototypes, "values", [[0.5, 1.0], [0.0, 2.0]]),
        (WeightVector, "w", [0.25, 0.75]),
        (WeightMatrix, "w", [[0.25, 0.75], [0.5, 0.5]]),
    ],
)
def test_records_copy_a_writeable_array_and_share_a_frozen_one(make, field, values):
    given = np.array(values, dtype=float)
    kept = getattr(make(given), field)
    assert given.flags.writeable and not kept.flags.writeable
    given[...] = 0.0
    assert np.array_equal(kept, values)
    frozen = _freeze(np.array(values, dtype=float))
    assert getattr(make(frozen), field) is frozen
