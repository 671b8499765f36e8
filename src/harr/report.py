"""Plain-text report formats: diff-friendly, deterministic, re-loadable.

A file loads only as harr writes it: each reader parses a file, builds
the value it holds, and compares the lines the writer makes of that value
with the lines it read. The first line that differs is a fault, so text
harr never writes (``seed: +7``, ``cluster_s: 1e0``, a doubled space) does
not load, and every file that loads re-saves to its own lines. Reruns with
identical configuration produce byte-identical files.
Labels are written as decimal digits and parsed back with numpy. Weights
are written as base64 of their little-endian float64 bytes, so they reload
exactly, next to a few derived fields a person can read; other floats are
written with ``repr``, which also reloads exactly. Wall-clock timings are
inherently non-reproducible and therefore live in a sidecar timings file,
never in the report itself.

Each format is declared once, below: a (write, read) codec per value type,
a (key, codec) table per part of a line format, and a (format, header,
column codecs) triple per CSV table. One line builder per format walks
them to write and to check a read; one reader walks them to parse. Each
format is read in the one version that harr writes.
"""

from __future__ import annotations

import base64
import math
import re
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import zip_longest

import numpy as np

from .cluster import RunConfig, RunReport
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


def _fixed(text: str):
    """Codec of a line that always holds ``text``: written as ``text`` for
    any value, so the read-back rule rejects any other text."""
    return (lambda _: text, str)


def _duration(x) -> float:
    """Seconds as a clock gives them: finite and non-negative."""
    seconds = float(x)
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"{x!r} seconds is no duration")
    return seconds


_MEAN_STD = re.compile(r"-?[0-9]+\.[0-9]{4}±[0-9]+\.[0-9]{4}")


def _mean_std(mean: float, std: float) -> str:
    """A summary score as ``save_summary`` writes it and ``_MEAN_STD`` reads
    it: mean±std to four decimals."""
    return f"{mean:.4f}±{std:.4f}"


def _score_cell(text: str) -> str:
    """A summary score cell as ``save_summary`` writes it: mean±std to four
    decimals, or ``none``."""
    if text != "none" and not _MEAN_STD.fullmatch(text):
        raise ValueError(f"{text!r} is not mean±std")
    return text


def _label_text(labels: np.ndarray, sep: str = " ") -> str:
    """Labels, each at least 1, as decimals with one ``sep`` between two."""
    if labels.size and labels.max() <= 9:  # one digit each
        buf = np.full(2 * labels.size - 1, ord(sep), np.uint8)
        buf[::2] = labels + ord("0")
        return buf.tobytes().decode("ascii")
    values, index = np.unique(labels, return_inverse=True)
    return sep.join(values.astype(str)[index].tolist())


def _read_labels(text: str, sep: str = " ") -> np.ndarray:
    """Decimals, one ``sep`` between two, to a frozen int64 array, parsed
    from the bytes with numpy. A fault is a ValueError whose message
    completes "label ..."."""
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
    return _freeze(labels)  # no one else holds it, so _frozen keeps it


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
_SECONDS = (_FLOAT[0], _duration)
_SCORES = (str, _score_cell)

# Line formats: ``format: <name>``, one ``key: value`` line per header field,
# then one ``[run]`` ... ``[end]`` block per run. Keys are names of the
# record they describe: a field, or a property the record derives from its
# fields. A report's header opens with ``extends: harr-report-v1``: v2
# keeps every v1 field and changes only how a weight row is written,
# adding the summary lines below. Its ``bins`` and ``epsilon`` lines echo
# settings that harr no longer has; they keep their one value, so reports
# keep their bytes, and no field holds them.
_REPORT_V1 = "harr-report-v1"
_REPORT_V2 = "harr-report-v2"
_REPORT_HEAD = (
    ("extends", _fixed(_REPORT_V1)),
    ("variant", _STR),
    ("dataset", _STR),
    ("schema", _STR),
    ("labels_file", _optional(_STR)),
    ("k", _INT),
    ("runs", _INT),
    ("base_seed", _INT),
    ("bins", _fixed("none")),
    ("inner_cap", _INT),
    ("outer_cap", _INT),
    ("epsilon", _fixed("1e-12")),
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
# Derived from the rows, one entry per row: Shannon entropy in nats, the
# largest weight and its 0-based column.
_WEIGHT_SUMMARY = (
    ("weight_entropy", _spaced((lambda x: f"{x:.6f}", float))),
    ("weight_max", _FLOATS),
    ("weight_max_column", _spaced(_INT)),
)
_TIMINGS_V2 = "harr-timings-v2"  # v1 had no ``runs:`` count in the header
_TIMINGS_HEAD = (("variant", _STR), ("reconstruct_s", _SECONDS))
_TIMINGS_RUN = (("seed", _INT), ("cluster_s", _SECONDS), ("weights_s", _SECONDS))

# Tables: ``# format: <name>``, a CSV header, then one row per record.
_SUMMARY = ("harr-summary-v1", "variant,ari,ca", (_STR, _SCORES, _SCORES))
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


def _summarized(index: int) -> property:
    """The ``ReportFile`` property that reads item ``index`` of its summary,
    or None when it has none."""
    return property(lambda report: None if (s := report.summary) is None else s[index])


@dataclass(frozen=True)
class ReportFile:
    """One variant's report: configuration echo plus every seeded run, each
    of the report's variant and k, with d_hat weights per row if it has
    weights. The echo follows ``RunConfig``'s rule. The run count and the
    score summary are derived from the runs."""

    variant: str
    dataset: str
    schema: str
    labels_file: str | None
    k: int
    base_seed: int
    inner_cap: int
    outer_cap: int
    d_hat: int
    run_reports: tuple[RunReport, ...]

    def __post_init__(self) -> None:
        RunConfig(self.k, self.base_seed, self.variant, self.inner_cap, self.outer_cap)
        for run in self.run_reports:
            self._check_run(run)

    def _check_run(self, run: RunReport) -> None:
        """Raise ValueError unless the report can hold ``run``: it writes
        only the header's variant and k."""
        if (run.variant, run.k) != (self.variant, self.k):
            raise ValueError(
                f"run seed={run.seed} is a {run.variant} run with k={run.k}, "
                f"but the report is {self.variant} with k={self.k}"
            )
        rows = run.weight_matrix if run.weights is None else run.weights[None]
        if rows is not None and rows.shape[1] != self.d_hat:
            raise ValueError(f"{rows.shape[1]} weights, but d_hat is {self.d_hat}")

    @property
    def runs(self) -> int:
        return len(self.run_reports)

    @property
    def summary(self) -> tuple[float, float, float, float] | None:
        """``(ari_mean, ari_std, ca_mean, ca_std)`` of the runs' scores, the
        std the population one, so a single run's is 0; None when there is
        no run or some run has no score."""
        aris = [run.ari for run in self.run_reports]
        cas = [run.ca for run in self.run_reports]
        if not aris or None in aris or None in cas:
            return None
        aris, cas = np.array(aris, float), np.array(cas, float)
        return float(aris.mean()), float(aris.std()), float(cas.mean()), float(cas.std())

    ari_mean, ari_std, ca_mean, ca_std = map(_summarized, range(4))


@dataclass(frozen=True)
class TimingsFile:
    """Sidecar wall-clock timings: shared preparation time plus per-run
    clustering and weight-update seconds. ``reconstruct_s`` is the variant's
    ``prepare`` time: the set-up it did not find already built for the
    dataset by an earlier variant (discretization, base distances,
    projection) plus its model build, nonzero also for variants that
    reconstruct nothing. It may overlap earlier variants' runs. Every
    value is a duration: finite and non-negative."""

    variant: str
    reconstruct_s: float
    runs: tuple[tuple[int, float, float], ...]  # (seed, cluster_s, weights_s)

    def __post_init__(self) -> None:
        for seconds in (self.reconstruct_s, *(s for _, *times in self.runs for s in times)):
            _duration(seconds)


def _fields(table, get) -> list[str]:
    """One ``key: value`` line per table entry, its value ``get(key)``."""
    return [f"{key}: {write(get(key))}" for key, (write, _) in table]


def _stored(kind, values: dict) -> dict:
    """The entries of ``values`` that are fields of the record ``kind``."""
    return {f.name: values[f.name] for f in fields(kind) if f.name in values}


def _block_lines(head: list[str], runs) -> list[str]:
    lines = list(head)
    for run in runs:
        lines += ["[run]", *run, "[end]"]
    return lines


def _save(lines: list[str], path: str) -> str:
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

    def check(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; a ValueError it raises names the path
        and the line where reading stopped."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc)) from None

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

    def same(self, written: list[str]) -> None:
        """The read-back rule: the lines read must be ``written``, the lines
        of the value read from them; the first line that differs is a fault."""
        for pos, (line, got) in enumerate(zip_longest(written, self.lines, fillvalue=""), 1):
            if line != got:
                raise ValueError(
                    f"{self.path}, line {pos}: expected {line[:60]!r}, got {got[:60]!r}"
                )

    def blocks(self):
        """Yield once per ``[run]`` block, then check its ``[end]``."""
        while self.more():
            if (line := self.next()) != "[run]":
                raise self.error(f"expected [run], got {line[:60]!r}")
            yield
            if self.next() != "[end]":
                raise self.error("missing [end] marker")


def _weight_summary(rows: np.ndarray) -> dict:
    """Rows on the simplex (``RunReport``), so no product overflows."""
    logs = np.log(rows, out=np.zeros_like(rows), where=rows > 0)
    entropy = -(rows * logs).sum(axis=1)
    column = rows.argmax(axis=1)
    return {
        "weight_entropy": entropy.tolist(),
        "weight_max": rows[np.arange(len(rows)), column].tolist(),
        "weight_max_column": column.tolist(),
    }


def _run_lines(run: RunReport) -> list[str]:
    lines = _fields(_RUN_HEAD, partial(getattr, run))
    write = _B64_ROW[0]
    rows = run.weight_matrix if run.weights is None else run.weights[None]
    if run.weights is not None:
        lines.append(f"weights: {write(run.weights)}")
    elif rows is not None:
        lines.append(f"weight_matrix: {len(rows)}")
        lines += [f"row: {write(row)}" for row in rows]
    if rows is not None:
        lines += _fields(_WEIGHT_SUMMARY, _weight_summary(rows).__getitem__)
    return lines + _fields(_RUN_TAIL, partial(getattr, run))


def _report_lines(report: ReportFile) -> list[str]:
    # ``extends``, ``bins`` and ``epsilon`` are no field: their codec writes one text
    head = _fields(_REPORT_HEAD, lambda key: getattr(report, key, None))
    return _block_lines([f"format: {_REPORT_V2}", *head], map(_run_lines, report.run_reports))


def save_report(report: ReportFile, path: str) -> str:
    return _save(_report_lines(report), path)


def _read_weights(src: _Lines, run: dict) -> None:
    """Read a run's weight lines, if any, into ``run``; ``RunReport`` and
    ``ReportFile`` check them."""
    run["weights"] = run["weight_matrix"] = None
    if src.has("weights"):
        run["weights"] = src.field("weights", _B64_ROW[1])
    elif src.has("weight_matrix"):
        rows = [src.field("row", _B64_ROW[1]) for _ in range(src.field("weight_matrix", int))]
        run["weight_matrix"] = _freeze(src.check(np.stack, rows))  # the one copy of the rows
    else:
        return
    src.fields(_WEIGHT_SUMMARY)  # derived from the rows, checked with every line


def load_report(path: str) -> ReportFile:
    """Read a v2 report; labels and weights come back as arrays. The
    records check what they hold as each is read: a fault names the line
    where reading stopped."""
    src = _Lines(path, "format: ", _REPORT_V2)
    head = _stored(ReportFile, src.fields(_REPORT_HEAD))
    report = src.check(ReportFile, **head, run_reports=())
    runs = []
    for _ in src.blocks():
        run = src.fields(_RUN_HEAD)
        run["labels"] = src.check(_label_array, run["labels"], report.k)
        _read_weights(src, run)
        run.update(src.fields(_RUN_TAIL))
        runs.append(src.check(RunReport, variant=report.variant, k=report.k, **_stored(RunReport, run)))
        src.check(report._check_run, runs[-1])
    report = replace(report, run_reports=tuple(runs))
    src.same(_report_lines(report))
    return report


def _timings_lines(timings: TimingsFile) -> list[str]:
    head = _fields(_TIMINGS_HEAD, partial(getattr, timings))
    keys = [key for key, _ in _TIMINGS_RUN]
    runs = [_fields(_TIMINGS_RUN, dict(zip(keys, run)).__getitem__) for run in timings.runs]
    return _block_lines([f"format: {_TIMINGS_V2}", *head, f"runs: {len(runs)}"], runs)


def save_timings(timings: TimingsFile, path: str) -> str:
    return _save(_timings_lines(timings), path)


def load_timings(path: str) -> TimingsFile:
    """Read a v2 timings sidecar."""
    src = _Lines(path, "format: ", _TIMINGS_V2)
    head = src.fields(_TIMINGS_HEAD)
    src.field("runs", str)  # the block count, checked with every line
    runs = tuple(tuple(src.fields(_TIMINGS_RUN).values()) for _ in src.blocks())
    timings = TimingsFile(**head, runs=runs)
    src.same(_timings_lines(timings))
    return timings


def timings_from_reports(
    variant: str, reports: tuple[RunReport, ...], reconstruct_s: float
) -> TimingsFile:
    return TimingsFile(
        variant,
        reconstruct_s,
        tuple((r.seed, r.cluster_s, r.weights_s) for r in reports),
    )


def _table_lines(table, rows) -> list[str]:
    fmt, header, codecs = table
    lines = [f"# format: {fmt}", header]
    for row in rows:
        lines.append(",".join(write(x) for (write, _), x in zip(codecs, row)))
    return lines


def _load_table(table, path: str) -> list[tuple]:
    fmt, _, codecs = table
    src = _Lines(path, "# format: ", fmt)
    src.next()  # the CSV header, checked with every line
    rows = []
    while src.more():
        cells = src.next().split(",")
        if len(cells) != len(codecs):
            raise src.error(f"{len(cells)} fields, expected {len(codecs)}")
        rows.append(tuple(src.decode(read, x) for (_, read), x in zip(codecs, cells)))
    src.same(_table_lines(table, rows))
    return rows


def save_summary(reports: list[ReportFile], path: str) -> str:
    """Aggregate table: one row per report, the mean±std of each score, or
    ``none`` twice for a report without a summary."""
    rows = []
    for report in reports:
        s = report.summary
        cells = ("none", "none") if s is None else (_mean_std(*s[:2]), _mean_std(*s[2:]))
        rows.append((report.variant, *cells))
    return _save(_table_lines(_SUMMARY, rows), path)


def load_summary(path: str) -> list[tuple[str, str, str]]:
    """Read the aggregate table: one row per variant, whose two score
    cells are both ``none`` or both scores."""
    rows = _load_table(_SUMMARY, path)
    seen = set()
    for line, (variant, ari, ca) in enumerate(rows, 3):  # after the format and header
        if (ari == "none") != (ca == "none"):
            raise ValueError(f"{path}, line {line}: one score cell is none, the other not")
        if variant in seen:
            raise ValueError(f"{path}, line {line}: variant {variant!r} is repeated")
        seen.add(variant)
    return rows


def save_trace(rows: list[tuple[str, int, int, float, bool]], path: str) -> str:
    """Plot-ready objective traces: variant, seed, iteration (1-based),
    objective value, and a weight-refresh marker column."""
    if not rows:
        raise ValueError("no trace rows to write")
    return _save(_table_lines(_TRACE, rows), path)


def load_trace(path: str) -> list[tuple[str, int, int, float, bool]]:
    return _load_table(_TRACE, path)


def save_bench_time(rows: list[tuple[float, int, str, float]], path: str) -> str:
    """Timing-sweep table: sampling rate, subsample size, variant, seconds."""
    return _save(_table_lines(_BENCH_TIME, rows), path)


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
