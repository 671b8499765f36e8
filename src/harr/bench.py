"""Run orchestration: multi-seed benchmarking, timing sweeps, persistence.

Seeds ladder from the base seed, one per run, and each run draws from its
own generator, so a report for seed s does not depend on how many other
seeds ran. Runs may fan out over a bounded worker pool; timing sweeps run
serially to avoid interference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cluster import (
    EPSILON,
    ConfigError,
    Prepared,
    RunConfig,
    RunReport,
    _check_variant,
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
    _freeze,
    _read_text,
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
    inner_cap: int = RunConfig.inner_cap
    outer_cap: int = RunConfig.outer_cap
    out_dir: str = "harr-out"
    workers: int = 1
    phis: tuple[float, ...] = (0.001, 0.2, 0.4, 0.6, 0.8, 1.0)
    repeats: int = 3

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigError("at least one variant is required")
        for name, given in (("variant", self.variants), ("sampling rate", self.phis)):
            if len(set(given)) < len(given):
                raise ConfigError(f"each {name} may be given only once: {given}")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if any(not 0.0 < phi <= 1.0 for phi in self.phis):
            raise ConfigError("sampling rates must lie in (0, 1]")
        for variant in self.variants:  # RunConfig checks k and the caps
            _run_config(self, variant, self.base_seed)


def load_dataset(schema_path: str, data_path: str) -> Dataset:
    """Parse schema and data files into a normalized dataset."""
    schema = parse_schema(_read_text(schema_path))
    return normalize_numerical(ingest_table(_read_text(data_path), schema))


def _run_config(cfg: BenchConfig, variant: str, seed: int) -> RunConfig:
    return RunConfig(
        k=cfg.k,
        seed=seed,
        variant=variant,
        inner_cap=cfg.inner_cap,
        outer_cap=cfg.outer_cap,
    )


def _scored_run(
    dataset: Dataset, prep: Prepared, config: RunConfig, labels: np.ndarray | None
) -> RunReport:
    """One seeded run, scored against the ground truth when there is one."""
    report = run_prepared(dataset, prep, config)
    if labels is None:
        return report
    return replace(report, ari=ari(labels, report.labels), ca=ca(labels, report.labels))


def _load_checked(cfg: BenchConfig) -> Dataset:
    """Load the data and check that every variant can cluster it, before any
    run or file."""
    dataset = load_dataset(cfg.schema, cfg.data)
    for variant in cfg.variants:
        _check_variant(dataset, variant)
    return dataset


def cmd_cluster(cfg: BenchConfig) -> list[ReportFile]:
    """Run every variant ``cfg.runs`` times and persist reports.

    Writes one report file and one timings sidecar per variant, plus an
    aggregate summary table. Report files are byte-identical across reruns
    with the same configuration; only the timings sidecars vary.

    Every run goes to one pool of ``cfg.workers`` threads. While a
    variant's runs execute, this thread prepares and submits the next
    variant, then saves the one before: a failed run or prepare leaves the
    files of the variants before it and no summary, as when variants ran
    one after another.
    """
    paths = {"--data": cfg.data, "--schema": cfg.schema, "--labels": cfg.labels or ""}
    for option, path in paths.items():  # each is echoed on one report line
        if "\n" in path or "\r" in path:
            raise ConfigError(f"{option} {path!r}: a report line cannot hold a line break")
    dataset = _load_checked(cfg)
    if cfg.k > dataset.n:
        raise ConfigError(f"k={cfg.k} exceeds the {dataset.n} available objects")
    labels = read_label_file(cfg.labels) if cfg.labels else None
    if labels is not None and len(labels) != dataset.n:
        raise DataError(
            f"label file has {len(labels)} entries but the dataset has "
            f"{dataset.n} objects"
        )
    # imported here: importing the CLI alone never loads the pool or logging
    from concurrent.futures import ThreadPoolExecutor

    out: list[ReportFile] = []
    summaries: list = []
    pool = ThreadPoolExecutor(max_workers=cfg.workers)

    def submit(variant: str):
        prep = prepare(dataset, variant)
        configs = [_run_config(cfg, variant, cfg.base_seed + i) for i in range(cfg.runs)]
        futures = [pool.submit(_scored_run, dataset, prep, c, labels) for c in configs]
        # the pool's tasks hold the model, which goes with this variant's last run
        return variant, prep.model.m, prep.reconstruct_s, futures

    def save(variant: str, d_hat: int, reconstruct_s: float, futures) -> None:
        reports = tuple(f.result() for f in futures)
        summary = None
        if labels is not None:
            summary = RunSummary.from_scores(
                variant, [r.ari for r in reports], [r.ca for r in reports]
            )
        summaries.append((variant, None) if summary is None else summary)
        report_file = ReportFile(
            variant=variant,
            dataset=cfg.data,
            schema=cfg.schema,
            labels_file=cfg.labels,
            k=cfg.k,
            runs=cfg.runs,
            base_seed=cfg.base_seed,
            bins=None,
            inner_cap=cfg.inner_cap,
            outer_cap=cfg.outer_cap,
            epsilon=EPSILON,
            d_hat=d_hat,
            ari_mean=summary.ari_mean if summary else None,
            ari_std=summary.ari_std if summary else None,
            ca_mean=summary.ca_mean if summary else None,
            ca_std=summary.ca_std if summary else None,
            run_reports=reports,
        )
        slug = variant_slug(variant)
        save_report(report_file, f"{cfg.out_dir}/{slug}.report.txt")
        save_timings(
            timings_from_reports(variant, reports, reconstruct_s),
            f"{cfg.out_dir}/{slug}.timings.txt",
        )
        out.append(report_file)

    try:
        submitted = None
        for variant in cfg.variants:
            try:
                following = submit(variant)
            finally:  # the variant before is saved even if this one fails
                if submitted is not None:
                    save(*submitted)
            submitted = following
        save(*submitted)
    finally:
        pool.shutdown(cancel_futures=True)  # after a failure, drop unstarted runs
    save_summary(summaries, f"{cfg.out_dir}/summary.csv")
    return out


def _subsample(dataset: Dataset, order: np.ndarray, n_sub: int) -> Dataset:
    return Dataset(dataset.schema, _freeze(dataset.cells[order[:n_sub]]))


def cmd_bench_time(cfg: BenchConfig) -> list[tuple[float, int, str, float]]:
    """Time preparation plus one clustering run per variant at each sampling
    rate, as the recorded prepare, clustering and weight seconds, and write
    the rows to ``bench_time.csv``. The timed region does no file I/O.

    Subsamples take the first ceil(phi * n) rows of the seed-shuffled
    dataset. Each measurement is the median of ``cfg.repeats`` repeats.
    """
    dataset = _load_checked(cfg)
    smallest = min(cfg.phis)
    if (n_min := math.ceil(smallest * dataset.n)) < cfg.k:
        raise ConfigError(
            f"sampling rate {smallest} keeps {n_min} objects, fewer than k={cfg.k}"
        )
    order = np.random.default_rng(cfg.base_seed).permutation(dataset.n)
    rows: list[tuple[float, int, str, float]] = []
    for phi in cfg.phis:
        n_sub = math.ceil(phi * dataset.n)
        for variant in cfg.variants:
            config = _run_config(cfg, variant, cfg.base_seed)
            times = []
            for _ in range(cfg.repeats):
                # a fresh dataset, so no repeat finds another's set-up built
                sub = _subsample(dataset, order, n_sub)
                prep = prepare(sub, variant)
                report = run_prepared(sub, prep, config)
                times.append(prep.reconstruct_s + report.cluster_s + report.weights_s)
            rows.append((phi, n_sub, variant, float(np.median(times))))
    save_bench_time(rows, f"{cfg.out_dir}/bench_time.csv")
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
