"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 9 needs manually prepared public datasets
(see README) and skips when they are absent.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from harr.base_distance import build_base_distances
from harr.bench import BenchConfig, cmd_bench_time, cmd_cluster, cmd_trace_plot
from harr.cluster import (
    Partition,
    RunConfig,
    prepare,
    run_prepared,
    update_prototypes,
    update_weight_matrix,
    update_weight_vector,
)
from harr.evaluation import ari, ca
from harr.projection import (
    HAMMING_FALLBACK,
    project_nominal,
    project_ordinal,
    reconstruct,
)
from harr.schema import (
    AttributeKind,
    AttributeSchema,
    DatasetSchema,
    discretize_numerical,
    normalize_numerical,
)
from harr.synth import SyntheticSpec, write_synthetic

from conftest import build_dataset, random_dataset
from oracles import (
    ari_paircount_oracle,
    base_distance_table_oracle,
    ca_permutation_oracle,
    phi_tensor,
    weight_matrix_oracle,
    weight_vector_oracle,
)

SOYBEAN_VS = [7, 2, 3, 3, 2, 4, 4, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2,
              3, 2, 2, 4, 4, 2, 2, 2, 3, 2, 3, 4, 2, 2, 2, 2, 2, 3]

UCI_TARGETS = {
    "soybean": 0.4367,
    "solar_flare": 0.3254,
    "mushroom": 0.6122,
}


def _verdict(num: str, name: str, ok: bool | None, detail: str = "") -> None:
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


def _pairwise_object_distances(dataset, space, w):
    """Weighted pairwise object distances assembled directly from the
    sub-attribute coordinates (test-local path)."""
    n = dataset.n
    dist = np.zeros((n, n))
    j = 0
    for r in space.numeric_attrs:
        col = dataset.cells[:, r]
        dist += w[j] * np.abs(col[:, None] - col[None, :])
        j += 1
    for block in space.blocks:
        codes = dataset.cells[:, block.source].astype(np.int64)
        for span, coords in zip(block.spans, block.coords):
            if span == HAMMING_FALLBACK:
                dist += w[j] * (codes[:, None] != codes[None, :])
            else:
                col = coords[codes - 1]
                dist += w[j] * np.abs(col[:, None] - col[None, :])
            j += 1
    return dist


def test_c01_metric_axioms():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    value_failures = []
    object_failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for case in range(200):
            dataset = random_dataset(rng, max_n=60, max_d=5, max_v=6, min_categorical=1)
            space = reconstruct(
                dataset, build_base_distances(dataset, discretize_numerical(dataset))
            )
            for block in space.blocks:
                for span, coords in zip(block.spans, block.coords):
                    if span == HAMMING_FALLBACK:
                        mat = 1.0 - np.eye(block.v)
                    else:
                        mat = np.abs(coords[:, None] - coords[None, :])
                    if not (
                        np.array_equal(mat, mat.T)
                        and np.all(np.diag(mat) == 0.0)
                        and np.all(mat >= 0.0)
                        and np.all(
                            mat[:, None, :] <= mat[:, :, None] + mat[None, :, :] + 1e-9
                        )
                    ):
                        value_failures.append((case, block.source, span))
            w = rng.dirichlet(np.ones(space.d_hat))
            dist = _pairwise_object_distances(dataset, space, w)
            rows_equal = np.all(
                dataset.cells[:, None, :] == dataset.cells[None, :, :], axis=2
            )
            if not (
                np.array_equal(dist, dist.T)
                and np.all(dist >= 0.0)
                and np.array_equal(dist == 0.0, rows_equal)
                and np.all(
                    dist[:, None, :] <= dist[:, :, None] + dist[None, :, :] + 1e-9
                )
            ):
                object_failures.append(case)
    elapsed = time.perf_counter() - started
    ok = not value_failures and not object_failures and elapsed < 60.0
    _verdict(
        "1",
        "metric axioms over 200 random datasets",
        ok,
        f"{len(value_failures)} value-level / {len(object_failures)} "
        f"object-level failures, {elapsed:.1f}s",
    )
    assert not value_failures and not object_failures
    assert elapsed < 60.0


def test_c02_base_distance_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(100):
            dataset = random_dataset(rng, max_n=50, max_d=4, max_v=6, min_categorical=1)
            view = discretize_numerical(dataset)
            table = build_base_distances(dataset, view)
            expected = base_distance_table_oracle(dataset, view)
            for got, want in zip(table.matrices, expected):
                if got is not None:
                    worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    _verdict(
        "2",
        "base-distance equivalence with counting oracle",
        ok,
        f"max |diff| {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_c03_ordinal_overlap():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(2, 9))
        gaps = rng.uniform(0.05, 2.0, size=v - 1)
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        kappa = np.abs(pos[:, None] - pos[None, :])
        line = project_ordinal(kappa).coords[0]
        line_mat = np.abs(line[:, None] - line[None, :])
        spans = project_nominal(kappa)
        assert spans.gamma == v * (v - 1) // 2
        for coords in spans.coords:
            mat = np.abs(coords[:, None] - coords[None, :])
            worst = max(worst, float(np.abs(mat - line_mat).max()))
    ok = worst <= 1e-9
    _verdict("3", "ordinal spans overlap the single line", ok, f"max |diff| {worst:.2e}")
    assert worst <= 1e-9


def _observed_everywhere_dataset(v_list, d_u=0, rows=None):
    attrs = [AttributeSchema(f"n{i}", AttributeKind.NUMERICAL) for i in range(d_u)]
    attrs += [
        AttributeSchema(f"c{i}", AttributeKind.NOMINAL, tuple(f"v{t}" for t in range(v)))
        for i, v in enumerate(v_list)
    ]
    schema = DatasetSchema(tuple(attrs))
    n = rows or (2 * max(v_list) * 3)
    rng = np.random.default_rng(4)
    cells = np.empty((n, schema.d))
    for r in range(d_u):
        cells[:, r] = np.linspace(0.0, 1.0, n)
    for i, v in enumerate(v_list):
        col = np.array([t % v for t in range(n)]) + 1
        cells[:, d_u + i] = rng.permutation(col)
    return normalize_numerical(build_dataset(schema, cells))


def test_c04_expansion_arithmetic():
    four = _observed_everywhere_dataset([4])
    space4 = reconstruct(four, build_base_distances(four))
    ds = _observed_everywhere_dataset([2, 2, 2, 2, 2], d_u=1)
    space_ds = reconstruct(ds, build_base_distances(ds))
    sb = _observed_everywhere_dataset(SOYBEAN_VS, rows=84)
    space_sb = reconstruct(sb, build_base_distances(sb))
    expected_ds = 1 + sum(v * (v - 1) // 2 for v in [2, 2, 2, 2, 2])
    expected_sb = sum(v * (v - 1) // 2 for v in SOYBEAN_VS)
    ok = (
        space4.d_hat == 6
        and space_ds.d_hat == expected_ds
        and space_sb.d_hat == expected_sb
    )
    _verdict(
        "4",
        "expansion arithmetic",
        ok,
        f"v=4 -> {space4.d_hat} sub-attributes; DS width {space_ds.d_hat} "
        f"(want {expected_ds}); SB width {space_sb.d_hat} (want {expected_sb})",
    )
    assert space4.d_hat == 6
    assert space_ds.d_hat == expected_ds
    assert space_sb.d_hat == expected_sb


def _variant_sample_reports():
    rng = np.random.default_rng(505)
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(10):
            dataset = random_dataset(rng, max_n=50, max_d=5, max_v=5, min_categorical=1)
            pure = dataset.schema.d_u == 0
            variants = ["HARR-V", "HARR-M", "BD", "HAR", "OHE+OC"]
            variants.append("KMD" if pure else "KPT")
            for variant in variants:
                prep = prepare(dataset, variant)
                for seed in (0, 1):
                    reports.append(
                        run_prepared(
                            dataset, prep, RunConfig(k=2, seed=seed, variant=variant)
                        )
                    )
    return reports


def test_c05_termination_and_outer_convergence(planted_suite):
    _, _, planted_reports, _ = planted_suite
    sample = _variant_sample_reports()
    all_reports = sample + [r for rs in planted_reports.values() for r in rs]
    within_caps = all(
        r.inner_iterations <= 100 * 51 and r.weight_updates <= 50 for r in all_reports
    )
    planted_converged = all(
        r.converged and r.weight_updates <= 50
        for rs in planted_reports.values()
        for r in rs
    )
    max_updates = max(
        r.weight_updates for rs in planted_reports.values() for r in rs
    )
    ok = within_caps and planted_converged
    _verdict(
        "5",
        "termination within caps; planted outer convergence",
        ok,
        f"{len(all_reports)} runs, max weight refreshes on planted data: "
        f"{max_updates}",
    )
    assert within_caps
    assert planted_converged


def test_c05_inner_loop_monotonicity(planted_suite):
    # Stated invariant: with weights fixed, the objective never rises by
    # more than 1e-9 across consecutive assignments. The refit step pins
    # numerical prototypes to the member mean while distances are absolute
    # gaps, and the mean is not the minimizer of an absolute-gap objective,
    # so small rises do occur; see notes/decisions.md for the analysis.
    _, _, planted_reports, _ = planted_suite
    sample = _variant_sample_reports()
    all_reports = sample + [r for rs in planted_reports.values() for r in rs]
    violating = [r for r in all_reports if not r.inner_monotone]
    worst = max((r.max_inner_increase for r in all_reports), default=0.0)
    ok = not violating
    _verdict(
        "5",
        "fixed-weight inner-loop monotonicity at 1e-9",
        ok,
        f"{len(violating)}/{len(all_reports)} runs with a rise, worst {worst:.2e}",
    )
    assert not violating, (
        f"{len(violating)} of {len(all_reports)} runs raised the objective "
        f"within a fixed-weight epoch (worst rise {worst:.3e}); mean/modal "
        "prototype refits do not minimize the absolute-gap objective, so the "
        "stated invariant is unattainable as specified"
    )


def test_c06_weight_update_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_v = worst_m = 0.0
    simplex_ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(100):
            dataset = random_dataset(rng, max_n=25, max_d=4, max_v=5, min_categorical=1)
            k = 2 + int(rng.integers(0, 2))
            if dataset.n <= k + 1:
                continue
            space = reconstruct(
                dataset, build_base_distances(dataset, discretize_numerical(dataset))
            )
            labels0 = rng.integers(0, k, size=dataset.n)
            labels0[:k] = np.arange(k)
            part = Partition(tuple(labels0 + 1), k)
            protos = update_prototypes(dataset, part)
            phi = phi_tensor(dataset, space, protos)
            wv = update_weight_vector(dataset, space, part, protos)
            wm = update_weight_matrix(dataset, space, part, protos)
            worst_v = max(
                worst_v,
                float(np.abs(wv.w - weight_vector_oracle(phi, labels0, k, 1e-12)).max()),
            )
            worst_m = max(
                worst_m,
                float(np.abs(wm.w - weight_matrix_oracle(phi, labels0, k, 1e-12)).max()),
            )
            simplex_ok = simplex_ok and abs(wv.w.sum() - 1.0) <= 1e-9
            simplex_ok = simplex_ok and bool(
                np.all(np.abs(wm.w.sum(axis=1) - 1.0) <= 1e-9)
            )
    elapsed = time.perf_counter() - started
    ok = worst_v <= 1e-10 and worst_m <= 1e-10 and simplex_ok
    _verdict(
        "6",
        "weight updates match summation oracle",
        ok,
        f"max |diff| vector {worst_v:.2e} / matrix {worst_m:.2e}, {elapsed:.1f}s",
    )
    assert worst_v <= 1e-10
    assert worst_m <= 1e-10
    assert simplex_ok


def test_c07_evaluation_oracle():
    rng = np.random.default_rng(707)
    worst_ari = 0.0
    ca_exact = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        labels = rng.integers(1, int(rng.integers(2, 6)) + 1, size=n).tolist()
        pred = rng.integers(1, int(rng.integers(2, 6)) + 1, size=n).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            worst_ari = max(
                worst_ari, abs(ari(labels, pred) - ari_paircount_oracle(labels, pred))
            )
        ca_exact = ca_exact and ca(labels, pred) == pytest.approx(
            ca_permutation_oracle(labels, pred), abs=1e-12
        )
    identical = rng.integers(1, 4, size=20).tolist()
    identity_ok = ari(identical, identical) == pytest.approx(1.0) and ca(
        identical, identical
    ) == pytest.approx(1.0)
    ok = worst_ari <= 1e-12 and ca_exact and identity_ok
    _verdict(
        "7",
        "scores match pair-counting / permutation oracles",
        ok,
        f"max ARI diff {worst_ari:.2e}",
    )
    assert worst_ari <= 1e-12
    assert ca_exact
    assert identity_ok


def test_c08_planted_quality_ordering(planted_suite):
    _, labels, reports, elapsed = planted_suite
    means = {
        variant: float(np.mean([ari(labels, r.labels) for r in rs]))
        for variant, rs in reports.items()
    }
    # the 0.02 slack qualifies each step of the ordering chain
    chain_ok = (
        means["HARR-M"] >= 0.90
        and means["HARR-M"] >= means["HARR-V"] - 0.02
        and means["HARR-V"] >= means["KPT"] - 0.02
    )
    ok = chain_ok and elapsed < 120.0
    detail = ", ".join(f"{v} {means[v]:.4f}" for v in ("KPT", "HAR", "HARR-V", "HARR-M"))
    _verdict("8", "planted-cluster quality ordering", ok, f"{detail}; {elapsed:.1f}s")
    assert means["HARR-M"] >= 0.90
    assert means["HARR-M"] >= means["HARR-V"] - 0.02
    assert means["HARR-V"] >= means["KPT"] - 0.02
    assert elapsed < 120.0


@pytest.mark.parametrize("name", sorted(UCI_TARGETS))
def test_c09_uci_reproduction(name):
    base = os.path.join(os.path.dirname(__file__), "..", "data", "uci", name)
    schema_path = os.path.join(base, "schema.txt")
    data_path = os.path.join(base, "data.csv")
    labels_path = os.path.join(base, "labels.txt")
    if not all(os.path.exists(p) for p in (schema_path, data_path, labels_path)):
        _verdict("9", f"reproduction on {name}", None, "dataset not prepared")
        pytest.skip(f"{name}: prepare data/uci/{name}/ per README to enable")
    from harr.bench import load_dataset
    from harr.report import read_label_file

    dataset = load_dataset(schema_path, data_path)
    truth = read_label_file(labels_path)
    k = len(set(truth))
    prep = prepare(dataset, "HARR-M")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scores = [
            ari(
                truth,
                run_prepared(
                    dataset, prep, RunConfig(k=k, seed=s, variant="HARR-M")
                ).labels,
            )
            for s in range(20)
        ]
    mean = float(np.mean(scores))
    deviation = abs(mean - UCI_TARGETS[name])
    ok = deviation <= 0.15
    _verdict(
        "9",
        f"reproduction on {name}",
        ok,
        f"mean ARI {mean:.4f} vs {UCI_TARGETS[name]:.4f} (|dev| {deviation:.4f}; "
        f"<=0.10 reproduces, <=0.15 reported)",
    )
    assert deviation <= 0.15


def test_c10_scaling(tmp_path):
    # the timing-protocol shape: n=100000, five 5-valued nominal attributes,
    # five clusters
    spec = SyntheticSpec(n=100_000, k_true=5, d_n=5, values=5, separation=0.8, seed=0)
    paths = write_synthetic(spec, str(tmp_path / "synth"))
    cfg = BenchConfig(
        data=paths["data"],
        schema=paths["schema"],
        variants=("HARR-V", "HARR-M"),
        k=5,
        phis=(0.2, 1.0),
        repeats=3,
        out_dir=str(tmp_path / "bench"),
    )
    rows = cmd_bench_time(cfg)
    by_variant = {}
    for phi, _, variant, seconds in rows:
        by_variant.setdefault(variant, {})[phi] = seconds
    ratios = {
        variant: times[1.0] / times[0.2] for variant, times in by_variant.items()
    }
    monotone = all(times[1.0] >= times[0.2] for times in by_variant.values())
    ok = monotone and all(ratio <= 15.0 for ratio in ratios.values())
    detail = ", ".join(f"{v} x{r:.1f}" for v, r in sorted(ratios.items()))
    _verdict("10", "wall time grows at most linearly in n", ok, detail)
    assert monotone
    for variant, ratio in ratios.items():
        assert ratio <= 15.0, f"{variant}: time(phi=1)/time(phi=0.2) = {ratio:.2f}"


def test_c11_determinism(tmp_path):
    spec = SyntheticSpec(
        n=150, k_true=3, d_u=1, d_n=2, d_o=1, values=5, separation=0.8, seed=11
    )
    synth_a = write_synthetic(spec, str(tmp_path / "synth_a"))
    synth_b = write_synthetic(spec, str(tmp_path / "synth_b"))
    synth_same = all(
        Path(synth_a[key]).read_bytes() == Path(synth_b[key]).read_bytes()
        for key in synth_a
    )
    common = dict(
        data=synth_a["data"],
        schema=synth_a["schema"],
        labels=synth_a["labels"],
        variants=("KPT", "BD", "HAR", "HARR-V", "HARR-M"),
        k=3,
        runs=3,
        base_seed=2,
    )
    out_a = str(tmp_path / "runs_a")
    out_b = str(tmp_path / "runs_b")
    cmd_cluster(BenchConfig(out_dir=out_a, **common))
    cmd_cluster(BenchConfig(out_dir=out_b, **common))
    names = [
        "KPT.report.txt",
        "BD.report.txt",
        "HAR.report.txt",
        "HARR-V.report.txt",
        "HARR-M.report.txt",
        "summary.csv",
    ]
    reports_same = all(
        Path(out_a, name).read_bytes() == Path(out_b, name).read_bytes()
        for name in names
    )
    trace_a = cmd_trace_plot([f"{out_a}/HARR-V.report.txt"], str(tmp_path / "ta.csv"))
    trace_b = cmd_trace_plot([f"{out_b}/HARR-V.report.txt"], str(tmp_path / "tb.csv"))
    trace_same = Path(trace_a).read_bytes() == Path(trace_b).read_bytes()
    ok = synth_same and reports_same and trace_same
    _verdict(
        "11",
        "byte-identical reports across reruns",
        ok,
        "synthetic + 5 variant reports + summary + trace",
    )
    assert synth_same
    assert reports_same
    assert trace_same
