"""Plain-text report formats: diff-friendly, deterministic, re-loadable.

Every emitted file round-trips through its reader to an equal in-memory
value. Floats are written with ``repr`` so values reload exactly and reruns
with identical configuration produce byte-identical files. Wall-clock
timings are inherently non-reproducible and therefore live in a sidecar
timings file, never in the report itself.

Each format is declared once, below: a (write, read) codec per value type,
a (key, codec) table per part of a line format, and a (format, header,
column codecs) triple per CSV table. One writer and one reader walk them.
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

# Codecs: a (write, read) pair per value type. ``write`` gives the text of a
# value; ``read`` parses it back to an equal value, or raises ValueError or
# KeyError.
_STR = (str, str)
_INT = (str, int)
_FLOAT = (lambda x: repr(float(x)), float)  # repr reloads every float exactly


def _word(false: str, true: str):
    """Codec of a bool written as one of two words."""
    words = {false: False, true: True}
    return (lambda b: true if b else false, words.__getitem__)


def _spaced(codec):
    """Codec of a tuple written as space-separated items."""
    write, read = codec
    return (
        lambda xs: " ".join(map(write, xs)),
        lambda text: tuple(map(read, text.split())),
    )


def _optional(codec):
    """Codec of a value that may be None, written ``none``."""
    write, read = codec
    return (
        lambda x: "none" if x is None else write(x),
        lambda text: None if text == "none" else read(text),
    )


_BOOL = _word("false", "true")
_BIT = _word("0", "1")
_FLOATS = _spaced(_FLOAT)
_BITS = _spaced(_BIT)

# Line formats: ``format: <name>``, one ``key: value`` line per header field,
# then one ``[run]`` ... ``[end]`` block per run. Keys are field names of the
# record they describe.
_REPORT = "harr-report-v1"
_REPORT_HEAD = (
    ("variant", _STR),
    ("dataset", _STR),
    ("schema", _STR),
    ("labels_file", _optional(_STR)),
    ("k", _INT),
    ("runs", _INT),
    ("base_seed", _INT),
    ("bins", _optional(_INT)),
    ("inner_cap", _INT),
    ("outer_cap", _INT),
    ("epsilon", _FLOAT),
    ("d_hat", _INT),
    ("ari_mean", _optional(_FLOAT)),
    ("ari_std", _optional(_FLOAT)),
    ("ca_mean", _optional(_FLOAT)),
    ("ca_std", _optional(_FLOAT)),
)
# A run's optional ``weights:`` or ``weight_matrix:`` + ``row:`` lines sit
# between its head and its tail.
_RUN_HEAD = (
    ("seed", _INT),
    ("converged", _BOOL),
    ("inner_iterations", _INT),
    ("weight_updates", _INT),
    ("inner_monotone", _BOOL),
    ("max_inner_increase", _FLOAT),
    ("ari", _optional(_FLOAT)),
    ("ca", _optional(_FLOAT)),
    ("labels", _spaced(_INT)),
)
_RUN_TAIL = (
    ("trace_z", _FLOATS),
    ("trace_weights_updated", _BITS),
    ("trace_reseeded", _BITS),
)
_TIMINGS = "harr-timings-v1"
_TIMINGS_HEAD = (("variant", _STR), ("reconstruct_s", _FLOAT))
_TIMINGS_RUN = (("seed", _INT), ("cluster_s", _FLOAT), ("weights_s", _FLOAT))

# Tables: ``# format: <name>``, a CSV header, then one row per record.
_SUMMARY = ("harr-summary-v1", "variant,ari,ca", (_STR, _STR, _STR))
_TRACE = (
    "harr-trace-v1",
    "variant,seed,iteration,z,weights_updated",
    (_STR, _INT, _INT, _FLOAT, _BIT),
)
_BENCH_TIME = (
    "harr-bench-time-v1",
    "phi,n,variant,seconds",
    (_FLOAT, _INT, _STR, _FLOAT),
)


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


def _fields(table, values) -> list[str]:
    """One ``key: value`` line per table entry, read from the mapping."""
    return [f"{key}: {write(values[key])}" for key, (write, _) in table]


def _save_lines(path: str, fmt: str, head: list[str], runs) -> str:
    lines = [f"format: {fmt}", *head]
    for run in runs:
        lines += ["[run]", *run, "[end]"]
    return _write_text(path, "\n".join(lines) + "\n")


class _Lines:
    """A file's lines, read in order after its format line; every fault
    names the path and the line."""

    def __init__(self, path: str, first: str, fmt: str):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.path = path
        self.pos = 0  # lines consumed
        if self.next() != first:
            raise ValueError(f"{path}: not a {fmt} file")

    def more(self) -> bool:
        return self.pos < len(self.lines)

    def error(self, what: str) -> ValueError:
        return ValueError(f"{self.path}, line {self.pos}: {what}")

    def next(self) -> str:
        if not self.more():
            raise ValueError(f"{self.path}: truncated at line {self.pos + 1}")
        self.pos += 1
        return self.lines[self.pos - 1]

    def decode(self, read, text: str):
        try:
            return read(text)
        except (KeyError, ValueError):
            raise self.error(f"cannot read {text[:60]!r}") from None

    def has(self, key: str) -> bool:
        return self.more() and self.lines[self.pos].startswith(f"{key}:")

    def field(self, key: str, read):
        line = self.next()
        if not line.startswith(f"{key}:"):
            raise self.error(f"expected {key!r} line, got {line[:60]!r}")
        return self.decode(read, line[len(key) + 1 :].strip())

    def fields(self, table) -> dict:
        return {key: self.field(key, read) for key, (_, read) in table}

    def blocks(self):
        """Yield once per ``[run]`` block, then check its ``[end]``."""
        while self.more():
            if (line := self.next()) != "[run]":
                raise self.error(f"expected [run], got {line[:60]!r}")
            yield
            if self.next() != "[end]":
                raise self.error("missing [end] marker")


def _run_lines(run: RunReport) -> list[str]:
    lines = _fields(_RUN_HEAD, vars(run))
    if run.weights is not None:
        lines.append(f"weights: {_FLOATS[0](run.weights)}")
    if run.weight_matrix is not None:
        lines.append(f"weight_matrix: {len(run.weight_matrix)}")
        lines += [f"row: {_FLOATS[0](row)}" for row in run.weight_matrix]
    return lines + _fields(_RUN_TAIL, vars(run))


def save_report(report: ReportFile, path: str) -> str:
    head = _fields(_REPORT_HEAD, vars(report))
    return _save_lines(path, _REPORT, head, map(_run_lines, report.run_reports))


def load_report(path: str) -> ReportFile:
    src = _Lines(path, f"format: {_REPORT}", _REPORT)
    head = src.fields(_REPORT_HEAD)
    read_floats = _FLOATS[1]
    runs = []
    for _ in src.blocks():
        run = src.fields(_RUN_HEAD)
        run["weights"] = run["weight_matrix"] = None
        if src.has("weights"):
            run["weights"] = src.field("weights", read_floats)
        if src.has("weight_matrix"):
            rows = range(src.field("weight_matrix", int))
            run["weight_matrix"] = tuple(src.field("row", read_floats) for _ in rows)
        run.update(src.fields(_RUN_TAIL))
        runs.append(RunReport(variant=head["variant"], k=head["k"], **run))
    if len(runs) != head["runs"]:
        raise src.error(f"{len(runs)} [run] blocks, but the header says {head['runs']}")
    return ReportFile(**head, run_reports=tuple(runs))


def save_timings(timings: TimingsFile, path: str) -> str:
    keys = [key for key, _ in _TIMINGS_RUN]
    runs = [_fields(_TIMINGS_RUN, dict(zip(keys, run))) for run in timings.runs]
    return _save_lines(path, _TIMINGS, _fields(_TIMINGS_HEAD, vars(timings)), runs)


def load_timings(path: str) -> TimingsFile:
    src = _Lines(path, f"format: {_TIMINGS}", _TIMINGS)
    head = src.fields(_TIMINGS_HEAD)
    runs = tuple(tuple(src.fields(_TIMINGS_RUN).values()) for _ in src.blocks())
    return TimingsFile(**head, runs=runs)


def timings_from_reports(
    variant: str, reports: tuple[RunReport, ...], reconstruct_s: float
) -> TimingsFile:
    return TimingsFile(
        variant,
        reconstruct_s,
        tuple((r.seed, r.timings.cluster_s, r.timings.weights_s) for r in reports),
    )


def _save_table(table, rows, path: str) -> str:
    fmt, header, codecs = table
    lines = [f"# format: {fmt}", header]
    for row in rows:
        lines.append(",".join(write(x) for (write, _), x in zip(codecs, row)))
    return _write_text(path, "\n".join(lines) + "\n")


def _load_table(table, path: str) -> list[tuple]:
    fmt, header, codecs = table
    src = _Lines(path, f"# format: {fmt}", fmt)
    if src.next() != header:
        raise src.error("unexpected header")
    rows = []
    while src.more():
        cells = src.next().split(",")
        if len(cells) != len(codecs):
            raise src.error(f"{len(cells)} fields, expected {len(codecs)}")
        rows.append(tuple(src.decode(read, x) for (_, read), x in zip(codecs, cells)))
    return rows


def save_summary(summaries: list[RunSummary | tuple[str, None]], path: str) -> str:
    """Aggregate table: one row per variant, mean and std of each score.

    A ``(variant, None)`` entry marks a variant run without ground truth.
    """
    rows = [
        (item.variant, *item.format_scores())
        if isinstance(item, RunSummary)
        else (item[0], "none", "none")
        for item in summaries
    ]
    return _save_table(_SUMMARY, rows, path)


def load_summary(path: str) -> list[tuple[str, str, str]]:
    return _load_table(_SUMMARY, path)


def save_trace(rows: list[tuple[str, int, int, float, bool]], path: str) -> str:
    """Plot-ready objective traces: variant, seed, iteration (1-based),
    objective value, and a weight-refresh marker column."""
    if not rows:
        raise ValueError("no trace rows to write")
    return _save_table(_TRACE, rows, path)


def load_trace(path: str) -> list[tuple[str, int, int, float, bool]]:
    return _load_table(_TRACE, path)


def save_bench_time(rows: list[tuple[float, int, str, float]], path: str) -> str:
    """Timing-sweep table: sampling rate, subsample size, variant, seconds."""
    return _save_table(_BENCH_TIME, rows, path)


def load_bench_time(path: str) -> list[tuple[float, int, str, float]]:
    return _load_table(_BENCH_TIME, path)


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
