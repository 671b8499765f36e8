"""Plain-text report formats: diff-friendly, deterministic, re-loadable.

Every emitted file round-trips through its reader to an equal in-memory
value, and reruns with identical configuration produce byte-identical files.
Labels are written as decimal digits and parsed back with numpy. Weights
are written as base64 of their little-endian float64 bytes, so they reload
exactly, next to a few derived fields a person can read; other floats are
written with ``repr``, which also reloads exactly. Wall-clock timings are
inherently non-reproducible and therefore live in a sidecar timings file,
never in the report itself.

Each format is declared once, below: a (write, read) codec per value type,
a (key, codec) table per part of a line format, and a (format, header,
column codecs) triple per CSV table. One writer and one reader walk them.
Each format is read in the one version that harr writes.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from .cluster import RunReport
from .evaluation import RunSummary
from .schema import (
    DataError,
    _freeze,
    _label_array,
    _physical_lines,
    _read_text,
    _write_text,
)

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


def _label_text(labels: np.ndarray, sep: str = " ") -> str:
    """Labels, each at least 1, as decimals with one ``sep`` between two."""
    if labels.size and labels.max() <= 9:  # one digit each
        buf = np.full(2 * labels.size - 1, ord(sep), np.uint8)
        buf[::2] = labels + ord("0")
        return buf.tobytes().decode("ascii")
    values, index = np.unique(labels, return_inverse=True)
    return sep.join(values.astype(str)[index].tolist())


def _read_labels(text: str, sep: str = " ") -> np.ndarray:
    """Decimals, one ``sep`` between two, to int64, parsed from the bytes
    with numpy. A fault is a ValueError whose message completes "label ..."."""
    raw = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    digit = raw != ord(sep)
    starts = np.flatnonzero(digit & np.r_[True, ~digit[:-1]])
    ends = np.flatnonzero(digit & np.r_[~digit[1:], True]) + 1
    if raw.size and starts.size != raw.size - digit.sum() + 1:
        raise ValueError(f"is not separated by a single {sep!r}")
    if ((raw < ord("0")) | (raw > ord("9")))[digit].any():
        raise ValueError("is not an integer")
    top = np.iinfo(np.int64).max
    labels = np.zeros(starts.size, np.int64)
    over = np.zeros(starts.size, bool)
    for j in range(int((ends - starts).max()) if starts.size else 0):
        live = starts + j < ends
        value, digits = labels[live], raw[starts[live] + j] - ord("0")
        over[live] |= (value > top // 10) | ((value == top // 10) & (digits > top % 10))
        labels[live] = value * 10 + digits
    if over.any():
        raise ValueError("does not fit in int64")
    return labels


def _b64_write(row: np.ndarray) -> str:
    return base64.b64encode(np.asarray(row, "<f8").tobytes()).decode("ascii")


def _b64_read(text: str) -> np.ndarray:
    raw = base64.b64decode(text, validate=True)
    if len(raw) % 8:
        raise ValueError("payload is not a whole number of float64 values")
    return np.frombuffer(raw, "<f8").astype(np.float64, copy=False)


_BOOL = _word("false", "true")
_BIT = _word("0", "1")
_FLOATS = _spaced(_FLOAT)
_BITS = _spaced(_BIT)
_LABELS = (_label_text, _read_labels)
_B64_ROW = (_b64_write, _b64_read)  # exact: the float64 bytes themselves

# Line formats: ``format: <name>``, one ``key: value`` line per header field,
# then one ``[run]`` ... ``[end]`` block per run. Keys are field names of the
# record they describe. A report's format line is followed by an
# ``extends: harr-report-v1`` line: v2 keeps every v1 field and changes only
# how a weight row is written, adding the summary lines below.
_REPORT_V1 = "harr-report-v1"
_REPORT_V2 = "harr-report-v2"
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
# between its head and its tail, each row in base64, and the summary of the
# rows follows them.
_RUN_HEAD = (
    ("seed", _INT),
    ("converged", _BOOL),
    ("inner_iterations", _INT),
    ("weight_updates", _INT),
    ("inner_monotone", _BOOL),
    ("max_inner_increase", _FLOAT),
    ("ari", _optional(_FLOAT)),
    ("ca", _optional(_FLOAT)),
    ("labels", _LABELS),
)
_RUN_TAIL = (
    ("trace_z", _FLOATS),
    ("trace_weights_updated", _BITS),
    ("trace_reseeded", _BITS),
)
# Derived from the rows, one entry per row, and checked against them on read:
# Shannon entropy in nats, the largest weight and its 0-based column.
_WEIGHT_SUMMARY = (
    ("weight_entropy", _spaced((lambda x: f"{x:.6f}", float))),
    ("weight_max", _FLOATS),
    ("weight_max_column", _spaced(_INT)),
)
_TIMINGS_V2 = "harr-timings-v2"  # v1 had no ``runs:`` count in the header
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
    clustering and weight-update seconds. ``reconstruct_s`` is the variant's
    ``prepare`` time: the set-up it did not find already built for the
    dataset by an earlier variant (discretization, base distances,
    projection) plus its model build, nonzero also for variants that
    reconstruct nothing. It may overlap earlier variants' runs."""

    variant: str
    reconstruct_s: float
    runs: tuple[tuple[int, float, float], ...]  # (seed, cluster_s, weights_s)


def _fields(table, values) -> list[str]:
    """One ``key: value`` line per table entry, read from the mapping."""
    return [f"{key}: {write(values[key])}" for key, (write, _) in table]


def _save_lines(path: str, head: list[str], runs) -> str:
    lines = list(head)
    for run in runs:
        lines += ["[run]", *run, "[end]"]
    return _write_text(path, "\n".join(lines) + "\n")


class _Lines:
    """A file's lines, read in order after its format line, which must be
    ``prefix`` + ``fmt``; every fault names the path and the line."""

    def __init__(self, path: str, prefix: str, fmt: str):
        self.lines = _physical_lines(_read_text(path))
        self.path = path
        self.pos = 0  # lines consumed
        if self.next() != prefix + fmt:
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
        return self.more() and self.lines[self.pos].startswith(f"{key}: ")

    def field(self, key: str, read):
        """The value of a ``key: value`` line as ``_fields`` wrote it, verbatim."""
        line = self.next()
        if not line.startswith(f"{key}: "):
            raise self.error(f"expected {key!r} line, got {line[:60]!r}")
        return self.decode(read, line[len(key) + 2 :])

    def fields(self, table) -> dict:
        return {key: self.field(key, read) for key, (_, read) in table}

    def blocks(self, declared: int):
        """Yield once per ``[run]`` block, then check its ``[end]``; at the
        end of the file, check the block count against the ``runs:`` header."""
        count = 0
        while self.more():
            if (line := self.next()) != "[run]":
                raise self.error(f"expected [run], got {line[:60]!r}")
            yield
            if self.next() != "[end]":
                raise self.error("missing [end] marker")
            count += 1
        if count != declared:
            raise self.error(f"{count} [run] blocks, but the header says {declared}")


def _weight_summary(rows: np.ndarray) -> dict:
    with np.errstate(over="ignore", invalid="ignore"):
        logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
        entropy = -(rows * logs).sum(axis=1)
    column = rows.argmax(axis=1)
    return {
        "weight_entropy": entropy.tolist(),
        "weight_max": rows[np.arange(len(rows)), column].tolist(),
        "weight_max_column": column.tolist(),
    }


def _run_lines(run: RunReport) -> list[str]:
    lines = _fields(_RUN_HEAD, vars(run))
    write = _B64_ROW[0]
    rows = run.weight_matrix if run.weights is None else run.weights[None]
    if run.weights is not None:
        lines.append(f"weights: {write(run.weights)}")
    elif rows is not None:
        lines.append(f"weight_matrix: {len(rows)}")
        lines += [f"row: {write(row)}" for row in rows]
    if rows is not None:
        lines += _fields(_WEIGHT_SUMMARY, _weight_summary(rows))
    return lines + _fields(_RUN_TAIL, vars(run))


def save_report(report: ReportFile, path: str) -> str:
    head = [f"format: {_REPORT_V2}", f"extends: {_REPORT_V1}"]
    head += _fields(_REPORT_HEAD, vars(report))
    return _save_lines(path, head, map(_run_lines, report.run_reports))


def _weight_row(src: _Lines, key: str, d_hat: int) -> np.ndarray:
    row = src.field(key, _B64_ROW[1])
    if row.size != d_hat:
        raise src.error(f"{row.size} weights, but d_hat is {d_hat}")
    if not np.isfinite(row).all():
        raise src.error("weights must be finite")
    return row


def _read_weights(src: _Lines, run: dict, k: int, d_hat: int) -> None:
    """Read a run's weight lines, if any, into ``run``."""
    run["weights"] = run["weight_matrix"] = rows = None
    if src.has("weights"):
        run["weights"] = _weight_row(src, "weights", d_hat)
        rows = run["weights"][None]
    elif src.has("weight_matrix"):
        if (count := src.field("weight_matrix", int)) != k or k < 1:
            raise src.error(f"{count} weight rows, but k is {k}")
        rows = _freeze(np.stack([_weight_row(src, "row", d_hat) for _ in range(k)]))
        run["weight_matrix"] = rows
    if rows is not None:
        for line in _fields(_WEIGHT_SUMMARY, _weight_summary(rows)):
            if (got := src.next()) != line:
                raise src.error(f"expected {line[:60]!r}, got {got[:60]!r}")


def load_report(path: str) -> ReportFile:
    """Read a v2 report; labels and weights come back as arrays."""
    src = _Lines(path, "format: ", _REPORT_V2)
    if src.field("extends", str) != _REPORT_V1:
        raise src.error(f"a {_REPORT_V2} file extends {_REPORT_V1}")
    head = src.fields(_REPORT_HEAD)
    k = head["k"]
    runs = []
    for _ in src.blocks(head["runs"]):
        run = src.fields(_RUN_HEAD)
        try:
            run["labels"] = _label_array(run["labels"], k)
        except ValueError as exc:
            raise src.error(str(exc)) from None
        _read_weights(src, run, k, head["d_hat"])
        run.update(src.fields(_RUN_TAIL))
        runs.append(RunReport(variant=head["variant"], k=k, **run))
    return ReportFile(**head, run_reports=tuple(runs))


def save_timings(timings: TimingsFile, path: str) -> str:
    head = [f"format: {_TIMINGS_V2}", *_fields(_TIMINGS_HEAD, vars(timings))]
    head.append(f"runs: {len(timings.runs)}")
    keys = [key for key, _ in _TIMINGS_RUN]
    runs = [_fields(_TIMINGS_RUN, dict(zip(keys, run))) for run in timings.runs]
    return _save_lines(path, head, runs)


def load_timings(path: str) -> TimingsFile:
    """Read a v2 timings sidecar."""
    src = _Lines(path, "format: ", _TIMINGS_V2)
    head = src.fields(_TIMINGS_HEAD)
    blocks = src.blocks(src.field("runs", int))
    runs = tuple(tuple(src.fields(_TIMINGS_RUN).values()) for _ in blocks)
    return TimingsFile(**head, runs=runs)


def timings_from_reports(
    variant: str, reports: tuple[RunReport, ...], reconstruct_s: float
) -> TimingsFile:
    return TimingsFile(
        variant,
        reconstruct_s,
        tuple((r.seed, r.cluster_s, r.weights_s) for r in reports),
    )


def _save_table(table, rows, path: str) -> str:
    fmt, header, codecs = table
    lines = [f"# format: {fmt}", header]
    for row in rows:
        lines.append(",".join(write(x) for (write, _), x in zip(codecs, row)))
    return _write_text(path, "\n".join(lines) + "\n")


def _load_table(table, path: str) -> list[tuple]:
    fmt, header, codecs = table
    src = _Lines(path, "# format: ", fmt)
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


def _labels_of(lines: list[str]) -> np.ndarray:
    """Labels of stripped lines under the label rule; blank lines are skipped."""
    labels = _read_labels("\n".join(filter(None, lines)), "\n")
    try:
        return _label_array(labels)
    except ValueError as exc:
        raise ValueError(f"is out of range: {exc}") from None


def read_label_file(path: str) -> np.ndarray:
    """Read labels, one positive decimal integer per line, as a frozen int64
    array; blanks and blank lines are skipped. A bad label's DataError names
    its line."""
    text = _read_text(path).rstrip("\n")
    try:
        return _labels_of([text])  # plain digit lines, in one pass
    except ValueError:
        lines = [line.strip() for line in text.split("\n")]
    try:
        return _labels_of(lines)
    except ValueError:
        lo, hi = 0, len(lines)  # lines[:lo] are good; lines[lo:hi] are not
        while lo < hi:  # bisect for the first bad line
            mid = max(lo + 1, (lo + hi) // 2)
            try:
                _labels_of(lines[lo:mid])
                lo = mid
            except ValueError as exc:
                if mid == lo + 1:
                    raise DataError(f"{path}, line {mid}: label {lines[lo]!r} {exc}") from None
                hi = mid
        raise


def write_label_file(labels, path: str) -> str:
    """Write labels, one per line, in the format ``read_label_file`` reads."""
    return _write_text(path, _label_text(_label_array(labels), "\n") + "\n")
