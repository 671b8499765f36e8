"""Run orchestration: multi-seed benchmarking, timing sweeps, persistence.

Seeds ladder from the base seed, one per run, and each run draws from its
own generator, so a report for seed s does not depend on how many other
seeds ran. Runs may fan out over a bounded worker pool; timing sweeps run
serially to avoid interference.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cluster import (
    ConfigError,
    Prepared,
    RunConfig,
    RunReport,
    prepare,
    run_prepared,
)
from .evaluation import RunSummary, ari, ca
from .report import (
    ReportFile,
    read_label_file,
    save_bench_time,
    save_report,
    save_summary,
    save_timings,
    save_trace,
    load_report,
    timings_from_reports,
    variant_slug,
)
from .schema import (
    DataError,
    Dataset,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

__all__ = ["BenchConfig", "load_dataset", "cmd_cluster", "cmd_bench_time", "cmd_trace_plot"]


@dataclass(frozen=True)
class BenchConfig:
    """Configuration shared by the benchmarking commands."""

    data: str
    schema: str
    labels: str | None = None
    variants: tuple[str, ...] = ("HARR-V", "HARR-M")
    k: int = 2
    runs: int = 20
    base_seed: int = 0
    bins: int | None = None
    inner_cap: int = 100
    outer_cap: int = 50
    out_dir: str = "harr-out"
    workers: int = 1
    phis: tuple[float, ...] = (0.001, 0.2, 0.4, 0.6, 0.8, 1.0)
    repeats: int = 3

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.bins is not None and self.bins < 2:
            raise ConfigError("bins override must be at least 2")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if any(not 0.0 < phi <= 1.0 for phi in self.phis):
            raise ConfigError("sampling rates must lie in (0, 1]")


def load_dataset(schema_path: str, data_path: str, normalize: bool = True) -> Dataset:
    """Parse schema and data files into a (normalized) dataset."""
    with open(schema_path, "r", encoding="utf-8") as fh:
        schema = parse_schema(fh.read())
    with open(data_path, "r", encoding="utf-8") as fh:
        dataset = ingest_table(fh.read(), schema)
    return normalize_numerical(dataset) if normalize else dataset


def _run_config(cfg: BenchConfig, variant: str, seed: int) -> RunConfig:
    return RunConfig(
        k=cfg.k,
        seed=seed,
        variant=variant,
        inner_cap=cfg.inner_cap,
        outer_cap=cfg.outer_cap,
        bins=cfg.bins,
    )


def _execute_runs(
    dataset: Dataset, prep: Prepared, configs: list[RunConfig], workers: int
) -> list[RunReport]:
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda c: run_prepared(dataset, prep, c), configs))
    return [run_prepared(dataset, prep, c) for c in configs]


def _scored(report: RunReport, labels: np.ndarray) -> RunReport:
    pred = np.asarray(report.labels, dtype=np.int64)
    return replace(report, ari=ari(labels, pred), ca=ca(labels, pred))


def cmd_cluster(cfg: BenchConfig) -> list[ReportFile]:
    """Run every variant ``cfg.runs`` times and persist reports.

    Writes one report file and one timings sidecar per variant, plus an
    aggregate summary table. Report files are byte-identical across reruns
    with the same configuration; only the timings sidecars vary.
    """
    dataset = load_dataset(cfg.schema, cfg.data)
    labels = (
        np.asarray(read_label_file(cfg.labels), dtype=np.int64) if cfg.labels else None
    )
    if labels is not None and len(labels) != dataset.n:
        raise DataError(
            f"label file has {len(labels)} entries but the dataset has "
            f"{dataset.n} objects"
        )
    out: list[ReportFile] = []
    summaries: list = []
    for variant in cfg.variants:
        prep = prepare(dataset, variant, cfg.bins)
        configs = [
            _run_config(cfg, variant, cfg.base_seed + i) for i in range(cfg.runs)
        ]
        reports = _execute_runs(dataset, prep, configs, cfg.workers)
        if labels is not None:
            reports = [_scored(r, labels) for r in reports]
            summary = RunSummary.from_scores(
                variant, [r.ari for r in reports], [r.ca for r in reports]
            )
            summaries.append(summary)
        else:
            summary = None
            summaries.append((variant, None))
        report_file = ReportFile(
            variant=variant,
            dataset=cfg.data,
            schema=cfg.schema,
            labels_file=cfg.labels,
            k=cfg.k,
            runs=cfg.runs,
            base_seed=cfg.base_seed,
            bins=cfg.bins,
            inner_cap=cfg.inner_cap,
            outer_cap=cfg.outer_cap,
            epsilon=configs[0].epsilon,
            d_hat=prep.width,
            ari_mean=summary.ari_mean if summary else None,
            ari_std=summary.ari_std if summary else None,
            ca_mean=summary.ca_mean if summary else None,
            ca_std=summary.ca_std if summary else None,
            run_reports=tuple(reports),
        )
        slug = variant_slug(variant)
        save_report(report_file, f"{cfg.out_dir}/{slug}.report.txt")
        save_timings(
            timings_from_reports(variant, tuple(reports), prep.reconstruct_s),
            f"{cfg.out_dir}/{slug}.timings.txt",
        )
        out.append(report_file)
        # Free this variant's model before prepare() builds the next one.
        del prep
    save_summary(summaries, f"{cfg.out_dir}/summary.csv")
    return out


def _subsample(dataset: Dataset, order: np.ndarray, n_sub: int) -> Dataset:
    cells = dataset.cells[order[:n_sub]]
    lo = np.full(dataset.schema.d, np.nan)
    hi = np.full(dataset.schema.d, np.nan)
    for r in dataset.schema.numerical_indices():
        lo[r] = cells[:, r].min()
        hi[r] = cells[:, r].max()
    return Dataset(dataset.schema, cells, lo, hi)


def cmd_bench_time(cfg: BenchConfig) -> list[tuple[float, int, str, float]]:
    """Time preparation plus one clustering run per variant at each sampling
    rate; file I/O is excluded from the measurement.

    Subsamples take the first ceil(phi * n) rows of the seed-shuffled
    dataset. Each measurement is the median of ``cfg.repeats`` repeats.
    """
    dataset = load_dataset(cfg.schema, cfg.data)
    order = np.random.default_rng(cfg.base_seed).permutation(dataset.n)
    rows: list[tuple[float, int, str, float]] = []
    for phi in cfg.phis:
        n_sub = math.ceil(phi * dataset.n)
        if n_sub < cfg.k:
            raise ConfigError(
                f"sampling rate {phi} keeps {n_sub} objects, fewer than k={cfg.k}"
            )
        sub = _subsample(dataset, order, n_sub)
        for variant in cfg.variants:
            times = []
            for _ in range(cfg.repeats):
                started = time.perf_counter()
                prep = prepare(sub, variant, cfg.bins)
                run_prepared(sub, prep, _run_config(cfg, variant, cfg.base_seed))
                times.append(time.perf_counter() - started)
            rows.append((phi, n_sub, variant, statistics.median(times)))
    save_bench_time(rows, f"{cfg.out_dir}/bench_time.csv")
    with open(f"{cfg.out_dir}/bench_time.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{'phi':>8} {'n':>9} {'variant':<10} {'seconds':>12}\n")
        for phi, n_sub, variant, seconds in rows:
            fh.write(f"{phi:>8g} {n_sub:>9d} {variant:<10} {seconds:>12.6f}\n")
    return rows


def cmd_trace_plot(report_paths: list[str], out_path: str) -> str:
    """Collect objective traces from one or more report files into a single
    plot-ready table; rejects reports with empty traces."""
    rows: list[tuple[str, int, int, float, bool]] = []
    for path in report_paths:
        report = load_report(path)
        for run in report.run_reports:
            if not run.trace_z:
                raise ValueError(f"{path}: run seed={run.seed} has an empty trace")
            for i, (z, updated) in enumerate(
                zip(run.trace_z, run.trace_weights_updated), start=1
            ):
                rows.append((report.variant, run.seed, i, z, updated))
    return save_trace(rows, out_path)
