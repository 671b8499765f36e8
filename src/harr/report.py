"""Plain-text report formats: diff-friendly, deterministic, re-loadable.

Every emitted file round-trips through its reader to an equal in-memory
value. Floats are written with ``repr`` so values reload exactly and reruns
with identical configuration produce byte-identical files. Wall-clock
timings are inherently non-reproducible and therefore live in a sidecar
timings file, never in the report itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import RunReport
from .evaluation import RunSummary
from .schema import DataError, _write_text

__all__ = [
    "ReportFile",
    "TimingsFile",
    "save_report",
    "load_report",
    "save_timings",
    "load_timings",
    "save_summary",
    "load_summary",
    "save_trace",
    "load_trace",
    "save_bench_time",
    "load_bench_time",
    "read_label_file",
    "write_label_file",
    "variant_slug",
]

_REPORT_FORMAT = "harr-report-v1"
_TIMINGS_FORMAT = "harr-timings-v1"
_SUMMARY_FORMAT = "harr-summary-v1"
_TRACE_FORMAT = "harr-trace-v1"
_BENCH_FORMAT = "harr-bench-time-v1"
_SUMMARY_HEADER = "variant,ari,ca"
_TRACE_HEADER = "variant,seed,iteration,z,weights_updated"
_BENCH_HEADER = "phi,n,variant,seconds"


def variant_slug(variant: str) -> str:
    """Filesystem-safe variant name (``OHE+OC`` -> ``OHE_OC``)."""
    return variant.replace("+", "_").replace("/", "_")


@dataclass(frozen=True)
class ReportFile:
    """One variant's report: configuration echo plus every seeded run."""

    variant: str
    dataset: str
    schema: str
    labels_file: str | None
    k: int
    runs: int
    base_seed: int
    bins: int | None
    inner_cap: int
    outer_cap: int
    epsilon: float
    d_hat: int
    ari_mean: float | None
    ari_std: float | None
    ca_mean: float | None
    ca_std: float | None
    run_reports: tuple[RunReport, ...]


@dataclass(frozen=True)
class TimingsFile:
    """Sidecar wall-clock timings: shared preparation time plus per-run
    clustering and weight-update seconds."""

    variant: str
    reconstruct_s: float
    runs: tuple[tuple[int, float, float], ...]  # (seed, cluster_s, weights_s)


def _opt(x) -> str:
    return "none" if x is None else repr(x)


def _parse_opt(tok: str, cast):
    return None if tok == "none" else cast(tok)


def _bools(bits) -> str:
    return " ".join("1" if b else "0" for b in bits)


def _parse_bools(tok: str) -> tuple[bool, ...]:
    return tuple(t == "1" for t in tok.split()) if tok else ()


def _floats(xs) -> str:
    return " ".join(repr(float(x)) for x in xs)


def _parse_floats(tok: str) -> tuple[float, ...]:
    return tuple(float(t) for t in tok.split()) if tok else ()


def _ints(xs) -> str:
    return " ".join(map(str, xs))


def _parse_ints(tok: str) -> tuple[int, ...]:
    return tuple(int(t) for t in tok.split()) if tok else ()


def save_report(report: ReportFile, path: str) -> str:
    lines = [
        f"format: {_REPORT_FORMAT}",
        f"variant: {report.variant}",
        f"dataset: {report.dataset}",
        f"schema: {report.schema}",
        f"labels_file: {report.labels_file if report.labels_file is not None else 'none'}",
        f"k: {report.k}",
        f"runs: {report.runs}",
        f"base_seed: {report.base_seed}",
        f"bins: {report.bins if report.bins is not None else 'none'}",
        f"inner_cap: {report.inner_cap}",
        f"outer_cap: {report.outer_cap}",
        f"epsilon: {report.epsilon!r}",
        f"d_hat: {report.d_hat}",
        f"ari_mean: {_opt(report.ari_mean)}",
        f"ari_std: {_opt(report.ari_std)}",
        f"ca_mean: {_opt(report.ca_mean)}",
        f"ca_std: {_opt(report.ca_std)}",
    ]
    for run in report.run_reports:
        lines.append("[run]")
        lines.append(f"seed: {run.seed}")
        lines.append(f"converged: {'true' if run.converged else 'false'}")
        lines.append(f"inner_iterations: {run.inner_iterations}")
        lines.append(f"weight_updates: {run.weight_updates}")
        lines.append(f"inner_monotone: {'true' if run.inner_monotone else 'false'}")
        lines.append(f"max_inner_increase: {run.max_inner_increase!r}")
        lines.append(f"ari: {_opt(run.ari)}")
        lines.append(f"ca: {_opt(run.ca)}")
        lines.append(f"labels: {_ints(run.labels)}")
        if run.weights is not None:
            lines.append(f"weights: {_floats(run.weights)}")
        if run.weight_matrix is not None:
            lines.append(f"weight_matrix: {len(run.weight_matrix)}")
            for row in run.weight_matrix:
                lines.append(f"row: {_floats(row)}")
        lines.append(f"trace_z: {_floats(run.trace_z)}")
        lines.append(f"trace_weights_updated: {_bools(run.trace_weights_updated)}")
        lines.append(f"trace_reseeded: {_bools(run.trace_reseeded)}")
        lines.append("[end]")
    return _write_text(path, "\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> str:
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, key: str) -> str:
        line = self.next()
        prefix = f"{key}:"
        if not line.startswith(prefix):
            raise ValueError(f"expected {key!r} line, got {line!r}")
        return line[len(prefix) :].strip()


def load_report(path: str) -> ReportFile:
    with open(path, "r", encoding="utf-8") as fh:
        reader = _LineReader(fh.read())
    if reader.expect("format") != _REPORT_FORMAT:
        raise ValueError(f"{path}: not a {_REPORT_FORMAT} file")
    variant = reader.expect("variant")
    dataset = reader.expect("dataset")
    schema = reader.expect("schema")
    labels_file = _parse_opt(reader.expect("labels_file"), str)
    k = int(reader.expect("k"))
    runs = int(reader.expect("runs"))
    base_seed = int(reader.expect("base_seed"))
    bins = _parse_opt(reader.expect("bins"), int)
    inner_cap = int(reader.expect("inner_cap"))
    outer_cap = int(reader.expect("outer_cap"))
    epsilon = float(reader.expect("epsilon"))
    d_hat = int(reader.expect("d_hat"))
    ari_mean = _parse_opt(reader.expect("ari_mean"), float)
    ari_std = _parse_opt(reader.expect("ari_std"), float)
    ca_mean = _parse_opt(reader.expect("ca_mean"), float)
    ca_std = _parse_opt(reader.expect("ca_std"), float)
    run_reports = []
    while reader.peek() == "[run]":
        reader.next()
        seed = int(reader.expect("seed"))
        converged = reader.expect("converged") == "true"
        inner_iterations = int(reader.expect("inner_iterations"))
        weight_updates = int(reader.expect("weight_updates"))
        inner_monotone = reader.expect("inner_monotone") == "true"
        max_inner_increase = float(reader.expect("max_inner_increase"))
        ari_v = _parse_opt(reader.expect("ari"), float)
        ca_v = _parse_opt(reader.expect("ca"), float)
        labels = _parse_ints(reader.expect("labels"))
        weights = None
        weight_matrix = None
        if reader.peek() is not None and reader.peek().startswith("weights:"):
            weights = _parse_floats(reader.expect("weights"))
        if reader.peek() is not None and reader.peek().startswith("weight_matrix:"):
            n_rows = int(reader.expect("weight_matrix"))
            weight_matrix = tuple(
                _parse_floats(reader.expect("row")) for _ in range(n_rows)
            )
        trace_z = _parse_floats(reader.expect("trace_z"))
        trace_updated = _parse_bools(reader.expect("trace_weights_updated"))
        trace_reseeded = _parse_bools(reader.expect("trace_reseeded"))
        if reader.next() != "[end]":
            raise ValueError(f"{path}: missing [end] marker")
        run_reports.append(
            RunReport(
                variant=variant,
                k=k,
                seed=seed,
                labels=labels,
                weights=weights,
                weight_matrix=weight_matrix,
                trace_z=trace_z,
                trace_weights_updated=trace_updated,
                trace_reseeded=trace_reseeded,
                inner_iterations=inner_iterations,
                weight_updates=weight_updates,
                converged=converged,
                inner_monotone=inner_monotone,
                max_inner_increase=max_inner_increase,
                ari=ari_v,
                ca=ca_v,
            )
        )
    return ReportFile(
        variant=variant,
        dataset=dataset,
        schema=schema,
        labels_file=labels_file,
        k=k,
        runs=runs,
        base_seed=base_seed,
        bins=bins,
        inner_cap=inner_cap,
        outer_cap=outer_cap,
        epsilon=epsilon,
        d_hat=d_hat,
        ari_mean=ari_mean,
        ari_std=ari_std,
        ca_mean=ca_mean,
        ca_std=ca_std,
        run_reports=tuple(run_reports),
    )


def save_timings(timings: TimingsFile, path: str) -> str:
    lines = [
        f"format: {_TIMINGS_FORMAT}",
        f"variant: {timings.variant}",
        f"reconstruct_s: {timings.reconstruct_s!r}",
    ]
    for seed, cluster_s, weights_s in timings.runs:
        lines.append("[run]")
        lines.append(f"seed: {seed}")
        lines.append(f"cluster_s: {cluster_s!r}")
        lines.append(f"weights_s: {weights_s!r}")
        lines.append("[end]")
    return _write_text(path, "\n".join(lines) + "\n")


def load_timings(path: str) -> TimingsFile:
    with open(path, "r", encoding="utf-8") as fh:
        reader = _LineReader(fh.read())
    if reader.expect("format") != _TIMINGS_FORMAT:
        raise ValueError(f"{path}: not a {_TIMINGS_FORMAT} file")
    variant = reader.expect("variant")
    reconstruct_s = float(reader.expect("reconstruct_s"))
    runs = []
    while reader.peek() == "[run]":
        reader.next()
        seed = int(reader.expect("seed"))
        cluster_s = float(reader.expect("cluster_s"))
        weights_s = float(reader.expect("weights_s"))
        if reader.next() != "[end]":
            raise ValueError(f"{path}: missing [end] marker")
        runs.append((seed, cluster_s, weights_s))
    return TimingsFile(variant, reconstruct_s, tuple(runs))


def timings_from_reports(
    variant: str, reports: tuple[RunReport, ...], reconstruct_s: float
) -> TimingsFile:
    return TimingsFile(
        variant,
        reconstruct_s,
        tuple((r.seed, r.timings.cluster_s, r.timings.weights_s) for r in reports),
    )


def save_summary(summaries: list[RunSummary | tuple[str, None]], path: str) -> str:
    """Aggregate table: one row per variant, mean and std of each score.

    A ``(variant, None)`` entry marks a variant run without ground truth.
    """
    lines = [f"# format: {_SUMMARY_FORMAT}", _SUMMARY_HEADER]
    for item in summaries:
        if isinstance(item, RunSummary):
            ari_s, ca_s = item.format_scores()
            lines.append(f"{item.variant},{ari_s},{ca_s}")
        else:
            lines.append(f"{item[0]},none,none")
    return _write_text(path, "\n".join(lines) + "\n")


def _read_table(path: str, fmt: str, header: str) -> list[str]:
    """Body lines of a ``# format:`` table after checking its two header
    lines."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# format: {fmt}":
        raise ValueError(f"{path}: not a {fmt} file")
    if len(lines) < 2 or lines[1] != header:
        raise ValueError(f"{path}: unexpected header")
    return lines[2:]


def load_summary(path: str) -> list[tuple[str, str, str]]:
    out = []
    for line in _read_table(path, _SUMMARY_FORMAT, _SUMMARY_HEADER):
        variant, ari_s, ca_s = line.split(",")
        out.append((variant, ari_s, ca_s))
    return out


def save_trace(
    rows: list[tuple[str, int, int, float, bool]], path: str
) -> str:
    """Plot-ready objective traces: variant, seed, iteration (1-based),
    objective value, and a weight-refresh marker column."""
    if not rows:
        raise ValueError("no trace rows to write")
    lines = [f"# format: {_TRACE_FORMAT}", _TRACE_HEADER]
    for variant, seed, iteration, z, updated in rows:
        lines.append(f"{variant},{seed},{iteration},{z!r},{1 if updated else 0}")
    return _write_text(path, "\n".join(lines) + "\n")


def load_trace(path: str) -> list[tuple[str, int, int, float, bool]]:
    out = []
    for line in _read_table(path, _TRACE_FORMAT, _TRACE_HEADER):
        variant, seed, iteration, z, updated = line.split(",")
        out.append((variant, int(seed), int(iteration), float(z), updated == "1"))
    return out


def save_bench_time(
    rows: list[tuple[float, int, str, float]], path: str
) -> str:
    """Timing-sweep table: sampling rate, subsample size, variant, seconds."""
    lines = [f"# format: {_BENCH_FORMAT}", _BENCH_HEADER]
    for phi, n, variant, seconds in rows:
        lines.append(f"{phi!r},{n},{variant},{seconds!r}")
    return _write_text(path, "\n".join(lines) + "\n")


def load_bench_time(path: str) -> list[tuple[float, int, str, float]]:
    out = []
    for line in _read_table(path, _BENCH_FORMAT, _BENCH_HEADER):
        phi, n, variant, seconds = line.split(",")
        out.append((float(phi), int(n), variant, float(seconds)))
    return out


def read_label_file(path: str) -> tuple[int, ...]:
    """Read ground-truth labels, one integer per line; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return tuple(int(line.strip()) for line in fh if line.strip())
        except ValueError:
            fh.seek(0)  # rescan only on failure, to name the first bad line
            for lineno, token in enumerate(map(str.strip, fh), 1):
                try:
                    int(token or "0")
                except ValueError:
                    msg = f"{path}, line {lineno}: label {token!r} is not an integer"
                    raise DataError(msg) from None
            raise


def write_label_file(labels, path: str) -> str:
    return _write_text(path, "".join(f"{int(x)}\n" for x in labels))
