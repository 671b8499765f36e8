import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import harr
from harr import bench, cli
from harr.bench import BenchConfig, cmd_bench_time, cmd_cluster, cmd_trace_plot
from harr.cli import build_parser, main
from harr.cluster import ConfigError, RunReport
from harr.evaluation import ari, ca
from harr.report import (
    ReportFile,
    TimingsFile,
    load_bench_time,
    load_report,
    load_summary,
    load_timings,
    load_trace,
    read_label_file,
    save_bench_time,
    save_report,
    save_summary,
    save_timings,
    save_trace,
    variant_slug,
    write_label_file,
)
from harr.synth import SyntheticSpec, write_synthetic


def _run_report(variant="HARR-V", seed=0, weights=(0.25, 0.75), matrix=None):
    return RunReport(
        variant=variant,
        k=2,
        seed=seed,
        labels=(1, 2, 2, 1),
        weights=weights,
        weight_matrix=matrix,
        trace_z=(12.5, 3.25, 3.25),
        trace_weights_updated=(False, True, False),
        trace_reseeded=(False, False, False),
        converged=True,
        ari=0.5,
        ca=0.75,
        cluster_s=0.2,
        weights_s=0.05,
    )


def _report_file(runs, variant="HARR-V", k=2, d_hat=2):
    return ReportFile(
        variant=variant,
        dataset="data.csv",
        schema="schema.txt",
        labels_file="labels.txt",
        k=k,
        base_seed=0,
        inner_cap=100,
        outer_cap=50,
        d_hat=d_hat,  # the length of each weight row
        run_reports=tuple(runs),
    )


class TestReportRoundtrip:
    def test_vector_weights(self, tmp_path):
        report = _report_file([_run_report(seed=s) for s in range(2)])
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_matrix_weights(self, tmp_path):
        runs = [
            _run_report(
                variant="HARR-M",
                weights=None,
                matrix=((0.5, 0.5), (0.125, 0.875)),
            )
        ]
        report = _report_file(runs, variant="HARR-M")
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_no_weights_no_scores(self, tmp_path):
        run = RunReport(
            variant="KPT",
            k=2,
            seed=3,
            labels=(1, 2),
            weights=None,
            weight_matrix=None,
            trace_z=(0.5,),
            trace_weights_updated=(False,),
            trace_reseeded=(False,),
            converged=True,
        )
        report = ReportFile(
            variant="KPT",
            dataset="d",
            schema="s",
            labels_file=None,
            k=2,
            base_seed=3,
            inner_cap=10,
            outer_cap=5,
            d_hat=2,
            run_reports=(run,),
        )
        path = save_report(report, str(tmp_path / "r.txt"))
        assert load_report(path) == report

    def test_exact_float_reload(self, tmp_path):
        run = _run_report(weights=(1 / 3, 2 / 3))
        path = save_report(_report_file([run]), str(tmp_path / "r.txt"))
        loaded = load_report(path)
        assert loaded.run_reports[0].weights.tolist() == [1 / 3, 2 / 3]


def test_timings_roundtrip(tmp_path):
    timings = TimingsFile("HARR-V", 0.125, ((0, 0.5, 0.25), (1, 0.75, 0.1)))
    path = save_timings(timings, str(tmp_path / "t.txt"))
    assert load_timings(path) == timings


GOLDEN_REPORT_V2 = """\
format: harr-report-v2
extends: harr-report-v1
variant: HARR-M
dataset: data.csv
schema: schema.txt
labels_file: none
k: 2
runs: 3
base_seed: 7
bins: none
inner_cap: 100
outer_cap: 50
epsilon: 1e-12
d_hat: 2
ari_mean: none
ari_std: none
ca_mean: none
ca_std: none
[run]
seed: 7
converged: true
inner_iterations: 2
weight_updates: 1
inner_monotone: true
max_inner_increase: 0.0
ari: none
ca: none
labels: 1 2 2 1
weights: VVVVVVVV1T9VVVVVVVXlPw==
weight_entropy: 0.636514
weight_max: 0.6666666666666666
weight_max_column: 1
trace_z: 12.5 3.25 3.25
trace_weights_updated: 0 1 0
trace_reseeded: 0 0 1
[end]
[run]
seed: 8
converged: false
inner_iterations: 2
weight_updates: 0
inner_monotone: false
max_inner_increase: 0.24999
ari: none
ca: none
labels: 2 1 1 2
weight_matrix: 2
row: AAAAAAAA4D8AAAAAAADgPw==
row: AAAAAAAAwD8AAAAAAADsPw==
weight_entropy: 0.693147 0.376770
weight_max: 0.5 0.875
weight_max_column: 0 1
trace_z: 1e-05 0.25
trace_weights_updated: 0 0
trace_reseeded: 0 0
[end]
[run]
seed: 9
converged: false
inner_iterations: 1
weight_updates: 0
inner_monotone: true
max_inner_increase: 0.0
ari: none
ca: none
labels: 1 1 2 2
trace_z: 0.5
trace_weights_updated: 0
trace_reseeded: 0
[end]
"""

GOLDEN_TIMINGS_V2 = """\
format: harr-timings-v2
variant: HARR-M
reconstruct_s: 0.125
runs: 2
[run]
seed: 7
cluster_s: 0.5
weights_s: 0.25
[end]
[run]
seed: 8
cluster_s: 1.0
weights_s: 0.0
[end]
"""


def _golden_report() -> ReportFile:
    # Three runs: converged after a weight refresh, with a re-seed flag;
    # capped, with a rise of the objective in its one epoch; capped after
    # one assignment, without weights. No run has a score, so neither has
    # the header.
    first = replace(
        _run_report("HARR-M", seed=7, weights=(1 / 3, 2 / 3)),
        trace_reseeded=(False, False, True),
        ari=None,
        ca=None,
    )
    matrix = replace(
        first,
        seed=8,
        labels=(2, 1, 1, 2),
        weights=None,
        weight_matrix=((0.5, 0.5), (0.125, 0.875)),
        trace_z=(1e-05, 0.25),
        trace_weights_updated=(False, False),
        trace_reseeded=(False, False),
        converged=False,
    )
    unweighted = replace(
        matrix,
        seed=9,
        labels=(1, 1, 2, 2),
        weight_matrix=None,
        trace_z=(0.5,),
        trace_weights_updated=(False,),
        trace_reseeded=(False,),
    )
    return replace(
        _report_file([first, matrix, unweighted], variant="HARR-M"),
        labels_file=None,
        base_seed=7,
        d_hat=2,
    )


def test_golden_report_and_timings_bytes(tmp_path):
    report = _golden_report()
    path = save_report(report, str(tmp_path / "r.txt"))
    assert Path(path).read_text(encoding="utf-8") == GOLDEN_REPORT_V2
    assert load_report(path) == report
    timings = TimingsFile("HARR-M", 0.125, ((7, 0.5, 0.25), (8, 1.0, 0.0)))
    path = save_timings(timings, str(tmp_path / "t.txt"))
    assert Path(path).read_text(encoding="utf-8") == GOLDEN_TIMINGS_V2
    assert load_timings(path) == timings


def test_previous_format_versions_are_rejected(tmp_path):
    # harr-report-v1 wrote weights as decimals and harr-timings-v1 had no
    # runs count; nothing writes either any more.
    report = tmp_path / "r.txt"
    report.write_text(
        GOLDEN_REPORT_V2.replace("format: harr-report-v2\nextends: harr-report-v1\n",
                                 "format: harr-report-v1\n")
    )
    with pytest.raises(ValueError) as raised:
        load_report(str(report))
    assert str(raised.value) == f"{report}: not a harr-report-v2 file"
    timings = tmp_path / "t.txt"
    timings.write_text(
        GOLDEN_TIMINGS_V2.replace("harr-timings-v2", "harr-timings-v1").replace("runs: 2\n", "")
    )
    with pytest.raises(ValueError) as raised:
        load_timings(str(timings))
    assert str(raised.value) == f"{timings}: not a harr-timings-v2 file"


@pytest.mark.parametrize(
    "line, edited", [("bins: none", "bins: 4"), ("epsilon: 1e-12", "epsilon: 0.5")]
)
def test_report_with_another_bins_or_epsilon_is_rejected(tmp_path, line, edited):
    # These lines echo settings harr no longer has, so they hold one value.
    path = tmp_path / "r.txt"
    path.write_text(GOLDEN_REPORT_V2.replace(line, edited))
    lineno = GOLDEN_REPORT_V2.split("\n").index(line) + 1
    with pytest.raises(ValueError) as raised:
        load_report(str(path))
    assert str(raised.value) == f"{path}, line {lineno}: expected {line!r}, got {edited!r}"


def test_traces_of_one_run_have_one_length(tmp_path):
    run = _run_report()  # three entries in each trace
    with pytest.raises(ValueError, match=r"must have one length, got 3, 1, 3$"):
        replace(run, trace_weights_updated=(False,))
    # a report whose run holds 3 objective values but 1 and 2 markers: it
    # does not load, so `harr trace` cannot silently drop objective rows
    path = tmp_path / "r.txt"
    path.write_text(
        GOLDEN_REPORT_V2.replace("trace_weights_updated: 0 1 0", "trace_weights_updated: 0")
        .replace("trace_reseeded: 0 0 1", "trace_reseeded: 0 0")
    )
    lineno = GOLDEN_REPORT_V2.split("\n").index("trace_reseeded: 0 0 1") + 1
    where = rf"^{re.escape(str(path))}, line {lineno}: "
    message = where + ".* must have one length, got 3, 1, 2$"
    with pytest.raises(ValueError, match=message):
        load_report(str(path))
    with pytest.raises(ValueError, match=message):
        cmd_trace_plot([str(path)], str(tmp_path / "trace.csv"))
    assert not (tmp_path / "trace.csv").exists()


# Printable ASCII without surrounding blanks: a report reads each value back
# stripped, one value per line, and reads ``none`` as an absent labels file.
_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12).filter(
    lambda s: s == s.strip() and s != "none"
)
_float = st.floats(allow_nan=False)
# Weights are finite; the edge cases are drawn on purpose as well.
_weight = st.sampled_from([-0.0, 5e-324, 1e-310, 1e308, -1e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def _report_files(draw) -> ReportFile:
    # k up to 12 gives two-digit labels; every weight row has d_hat entries.
    variant, k, d_hat = draw(_text), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    rows = st.lists(st.lists(_weight, min_size=d_hat, max_size=d_hat), min_size=k, max_size=k)
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["none", "vector", "matrix"]))
        # one length for the three traces, and at least one assignment
        steps = dict.fromkeys(("min_size", "max_size"), draw(st.integers(1, 5)))
        runs.append(
            RunReport(
                variant=variant,
                k=k,
                seed=draw(st.integers()),
                labels=tuple(draw(st.lists(st.integers(1, k), max_size=8))),
                weights=draw(rows)[0] if kind == "vector" else None,
                weight_matrix=draw(rows) if kind == "matrix" else None,
                trace_z=tuple(draw(st.lists(_float, **steps))),
                trace_weights_updated=tuple(draw(st.lists(st.booleans(), **steps))),
                trace_reseeded=tuple(draw(st.lists(st.booleans(), **steps))),
                converged=draw(st.booleans()),
                ari=draw(st.none() | _float),
                ca=draw(st.none() | _float),
            )
        )
    return ReportFile(
        variant=variant,
        dataset=draw(_text),
        schema=draw(_text),
        labels_file=draw(st.none() | _text),
        k=k,
        base_seed=draw(st.integers()),
        inner_cap=draw(st.integers()),
        outer_cap=draw(st.integers()),
        d_hat=d_hat,
        run_reports=tuple(runs),
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_report_files())
def test_report_roundtrip_and_resave_bytes(tmp_path, report):
    first = save_report(report, str(tmp_path / "a.txt"))
    loaded = load_report(first)
    assert loaded == report
    for got, want in zip(loaded.run_reports, report.run_reports):
        for w, v in ((got.weights, want.weights), (got.weight_matrix, want.weight_matrix)):
            assert (w is None and v is None) or w.tobytes() == v.tobytes()  # -0.0 too
    second = save_report(loaded, str(tmp_path / "b.txt"))
    assert Path(first).read_bytes() == Path(second).read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**18 - 1) | st.integers(1, 12), max_size=40))
def test_label_codec_matches_python_decimals(labels):
    # The numpy writer and reader against str() and int(); one-digit label
    # sets take the writer's byte-buffer path, the rest its gather path.
    from harr.report import _label_text, _read_labels

    arr = np.array(labels, dtype=np.int64)
    text = _label_text(arr)
    assert text == " ".join(map(str, labels))
    assert _read_labels(text).tolist() == labels
    assert _read_labels("\n".join(map(str, labels)), "\n").tolist() == labels


def test_report_cut_at_every_line_is_a_data_error(synth_dir, tmp_path):
    cfg = BenchConfig(
        data=synth_dir["data"],
        schema=synth_dir["schema"],
        labels=synth_dir["labels"],
        variants=("HARR-V", "HARR-M"),
        k=3,
        runs=2,
        inner_cap=3,
        outer_cap=2,
        out_dir=str(tmp_path / "out"),
    )
    cmd_cluster(cfg)
    for variant in cfg.variants:
        lines = Path(f"{cfg.out_dir}/{variant}.report.txt").read_text().splitlines(True)
        cut = tmp_path / f"cut-{variant}.txt"
        for n in range(len(lines)):
            cut.write_text("".join(lines[:n]))
            with pytest.raises(ValueError) as raised:
                load_report(str(cut))
            assert str(raised.value).startswith(f"{cut}")
    cut.write_text("".join(lines[:20]))
    with pytest.raises(ValueError) as raised:
        load_report(str(cut))
    assert str(raised.value) == f"{cut}: truncated at line 21"
    assert main(["trace", "--report", str(cut), "--out", str(tmp_path / "t.csv")]) == 3


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[end]\n", "[end]\nextra\n", "line 71: expected [run], got 'extra'"),
        ("runs: 3", "runs: 4", "line 8: expected 'runs: 3', got 'runs: 4'"),
        ("seed: 8", "seed: x", "line 38: cannot read 'x'"),
        ("0\n[end]", "2\n[end]", "line 69: cannot read '2'"),
        ("[end]\n[run]\nseed: 9", "[run]\nseed: 9", "line 56: missing [end] marker"),
    ],
    ids=["after-last-end", "runs-header", "bad-int", "bad-bit", "missing-end"],
)
def test_malformed_report_names_path_and_line(tmp_path, old, new, message):
    path = tmp_path / "r.txt"
    # Edit the last occurrence, so that appending lands after the last [end].
    head, _, tail = GOLDEN_REPORT_V2.rpartition(old)
    path.write_text(head + new + tail)
    with pytest.raises(ValueError) as raised:
        load_report(str(path))
    assert str(raised.value) == f"{path}, {message}"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("VVVVVVVV1T9", "VVVV!VVV1T9", "line 29: cannot read 'VVVV!VVV1T9VVVVVVVXlPw=='"),
        ("VVVVVVVV1T9VVVVVVVXlPw==", "VVVVVVVV", "line 29: cannot read 'VVVVVVVV'"),
        ("VVVVVVVV1T9VVVVVVVXlPw==", "AAAAAAAA4D8=", "line 29: 1 weights, but d_hat is 2"),
        ("VVVVVVVV1T9VVVVVVVXlPw==", "AAAAAAAA+H8AAAAAAADgPw==", "line 29: weights must be finite"),
        ("labels: 1 2 2 1", "labels: 1 3 2 1", "line 28: labels must lie in [1, 2]"),
        (
            "weight_max: 0.6666666666666666",
            "weight_max: 0.7",
            "line 31: expected 'weight_max: 0.6666666666666666', got 'weight_max: 0.7'",
        ),
        ("weight_matrix: 2", "weight_matrix: 3", "line 47: 3 weight rows, but k is 2"),
        ("extends: harr-report-v1", "extends: harr-report-v0",
         "line 2: expected 'extends: harr-report-v1', got 'extends: harr-report-v0'"),
    ],
    ids=[
        "bad-base64", "partial-float", "payload-length", "nan-payload", "label-above-k",
        "summary-mismatch", "matrix-rows", "extends",
    ],
)
def test_malformed_v2_report_names_path_and_line(tmp_path, old, new, message):
    path = tmp_path / "r.txt"
    assert old in GOLDEN_REPORT_V2
    path.write_text(GOLDEN_REPORT_V2.replace(old, new, 1))
    with pytest.raises(ValueError) as raised:
        load_report(str(path))
    assert str(raised.value) == f"{path}, {message}"


@pytest.mark.parametrize(
    "old, new",
    [
        ("inner_iterations: 2\nweight_updates: 1", "inner_iterations: 99\nweight_updates: 7"),
        ("inner_iterations: 2", "inner_iterations: 3"),
        ("weight_updates: 1", "weight_updates: 0"),
        ("inner_monotone: false", "inner_monotone: true"),
        ("max_inner_increase: 0.0", "max_inner_increase: 0.1"),
        ("ari_mean: none", "ari_mean: 0.5"),
        ("ari_std: none", "ari_std: 0.0"),
        ("ca_mean: none", "ca_mean: 0.75"),
        ("ca_std: none", "ca_std: 0.0"),
    ],
    ids=[
        "counts-99-7", "inner_iterations", "weight_updates", "inner_monotone",
        "max_inner_increase", "ari_mean", "ari_std", "ca_mean", "ca_std",
    ],
)
def test_tampered_derived_line_names_path_and_line(tmp_path, old, new):
    # Each of these lines is derived from the run's traces or the runs'
    # scores, so an edited one disagrees with what the report reloads.
    path = tmp_path / "r.txt"
    path.write_text(GOLDEN_REPORT_V2.replace(old, new, 1))
    want, got = old.split("\n")[0], new.split("\n")[0]
    lineno = GOLDEN_REPORT_V2.split("\n").index(want) + 1
    with pytest.raises(ValueError) as raised:
        load_report(str(path))
    assert str(raised.value) == f"{path}, line {lineno}: expected {want!r}, got {got!r}"


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "trace_z: 0.5\ntrace_weights_updated: 0\ntrace_reseeded: 0\n",
            "trace_z: \ntrace_weights_updated: \ntrace_reseeded: \n",
            "the traces are empty, but every run makes an assignment",
        ),
        ("trace_z: 0.5\n", "trace_z: \n", ".* must have one length, got 0, 1, 1"),
    ],
    ids=["all-traces", "trace_z"],
)
def test_run_with_an_empty_trace_is_rejected(tmp_path, old, new, message):
    # Every run makes at least one assignment, so its traces hold an entry.
    with pytest.raises(ValueError, match="^the traces are empty, but every run makes an "):
        replace(_run_report(), trace_z=(), trace_weights_updated=(), trace_reseeded=())
    path = tmp_path / "r.txt"
    assert GOLDEN_REPORT_V2.count(old) == 1
    path.write_text(GOLDEN_REPORT_V2.replace(old, new))
    # the run's record is complete at its last trace line, before its [end]
    lines = GOLDEN_REPORT_V2.split("\n")
    lineno = lines.index("[end]", lines.index("seed: 9"))
    assert lines[lineno - 1] == "trace_reseeded: 0"
    where = rf"^{re.escape(str(path))}, line {lineno}: "
    with pytest.raises(ValueError, match=where + message + "$"):
        load_report(str(path))
    with pytest.raises(ValueError, match=where + message + "$"):
        cmd_trace_plot([str(path)], str(tmp_path / "trace.csv"))
    assert not (tmp_path / "trace.csv").exists()


def test_report_holds_runs_of_its_variant_and_k():
    # A report writes the header's variant and k only, so a run of another
    # would reload as a different run.
    run = _run_report()  # HARR-V, k = 2
    for other in (replace(run, variant="KPT"), replace(run, k=3)):
        message = (
            f"^run seed=0 is a {other.variant} run with k={other.k}, "
            "but the report is HARR-V with k=2$"
        )
        with pytest.raises(ValueError, match=message):
            _report_file([run, other])


_TRACE_CSV = (
    "# format: harr-trace-v1\nvariant,seed,iteration,z,weights_updated\nHARR-V,3,1,12.5,0\n"
)
_BENCH_CSV = "# format: harr-bench-time-v1\nphi,n,variant,seconds\n0.2,100,HARR-V,0.015\n"


@pytest.mark.parametrize(
    "load, text, line, edited",
    [
        (load_report, GOLDEN_REPORT_V2, "seed: 8", "seed: 0_8"),
        (load_report, GOLDEN_REPORT_V2, "base_seed: 7", "base_seed: +7"),
        (load_report, GOLDEN_REPORT_V2, "seed: 8", "seed:  8"),
        (load_report, GOLDEN_REPORT_V2, "seed: 8", "seed: 8 "),
        (load_report, GOLDEN_REPORT_V2, "trace_z: 0.5", "trace_z: 5e-1"),
        (load_report, GOLDEN_REPORT_V2, "trace_reseeded: 0 0 1", "trace_reseeded: 0  0 1"),
        (load_report, GOLDEN_REPORT_V2, "labels: 1 2 2 1", "labels: 01 2 2 1"),
        (load_timings, GOLDEN_TIMINGS_V2, "cluster_s: 1.0", "cluster_s: 1e0"),
        (load_timings, GOLDEN_TIMINGS_V2, "runs: 2", "runs: 02"),
        (load_trace, _TRACE_CSV, "HARR-V,3,1,12.5,0", "HARR-V,+3,1,12.5,0"),
        (load_bench_time, _BENCH_CSV, "0.2,100,HARR-V,0.015", "0.2,1_00,HARR-V,0.015"),
    ],
    ids=[
        "underscore", "plus-sign", "double-space", "trailing-space", "exponent",
        "spaced-bits", "zero-padded-label", "timings-exponent", "zero-padded-count",
        "trace-plus-sign", "bench-underscore",
    ],
)
def test_text_harr_does_not_write_is_rejected(tmp_path, load, text, line, edited):
    # A file loads only if writing the value it was read as gives back its
    # lines; each edit reads as the same value but is not how harr writes it.
    path = tmp_path / "f.txt"
    path.write_text(text)
    load(str(path))
    lines = text.split("\n")
    lineno = lines.index(line) + 1
    lines[lineno - 1] = edited
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError) as raised:
        load(str(path))
    assert str(raised.value) == f"{path}, line {lineno}: expected {line!r}, got {edited!r}"


def test_cut_timings_file_is_a_data_error(tmp_path):
    # A sidecar cut after a complete [run] block does not reload as a
    # shorter valid file.
    path = tmp_path / "t.txt"
    path.write_text("".join(GOLDEN_TIMINGS_V2.splitlines(True)[:9]))
    with pytest.raises(ValueError) as raised:
        load_timings(str(path))
    assert str(raised.value) == f"{path}, line 4: expected 'runs: 1', got 'runs: 2'"


def test_loaded_wide_matrix_report_holds_arrays(tmp_path):
    # Ten HARR-M runs, k = 5, d_hat = 7,081: 2.8 MB of float64 weights. As
    # Python floats in tuples the same weights took about 11 MB.
    k, d_hat, n = 5, 7081, 2000
    rng = np.random.default_rng(0)
    runs = [
        replace(
            _run_report("HARR-M", seed=s, weights=None, matrix=rng.dirichlet(np.ones(d_hat), k)),
            k=k,
            labels=rng.integers(1, k + 1, n),
        )
        for s in range(10)
    ]
    report = _report_file(runs, variant="HARR-M", k=k, d_hat=d_hat)
    path = save_report(report, str(tmp_path / "r.txt"))
    tracemalloc.start()
    try:
        loaded = load_report(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loaded == report
    assert held < 5_000_000


def test_table_row_with_wrong_field_count_names_path_and_line(tmp_path):
    path = save_bench_time([(0.2, 40, "HARR-V", 0.015)], str(tmp_path / "b.csv"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1.0,200,HARR-M\n")
    with pytest.raises(ValueError) as raised:
        load_bench_time(path)
    assert str(raised.value) == f"{path}, line 4: 3 fields, expected 4"


def test_summary_roundtrip(tmp_path):
    from harr.evaluation import RunSummary

    rows = [
        RunSummary("KPT", 20, 0.5, 0.1, 0.75, 0.05),
        ("BD", None),
    ]
    path = save_summary(rows, str(tmp_path / "summary.csv"))
    loaded = load_summary(path)
    assert loaded == [
        ("KPT", "0.5000±0.1000", "0.7500±0.0500"),
        ("BD", "none", "none"),
    ]


@pytest.mark.parametrize(
    "line, edited",
    [
        ("reconstruct_s: 0.125", "reconstruct_s: -5.0"),
        ("cluster_s: 0.5", "cluster_s: nan"),
        ("weights_s: 0.25", "weights_s: -inf"),
    ],
    ids=["negative", "nan", "minus-infinity"],
)
def test_timings_hold_only_durations_a_clock_gives(tmp_path, line, edited):
    lines = GOLDEN_TIMINGS_V2.split("\n")
    lineno = lines.index(line) + 1
    lines[lineno - 1] = edited
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines))
    value = edited.split(": ")[1]
    with pytest.raises(ValueError) as raised:
        load_timings(str(path))
    assert str(raised.value) == f"{path}, line {lineno}: cannot read {value!r}"
    with pytest.raises(ValueError, match="is no duration"):
        TimingsFile("HARR-M", float(value), ())
    with pytest.raises(ValueError, match="is no duration"):
        TimingsFile("HARR-M", 0.125, ((7, 0.5, float(value)),))


_SUMMARY_CSV = "# format: harr-summary-v1\nvariant,ari,ca\nKPT,0.5000±0.1000,0.7500±0.0500\n"


@pytest.mark.parametrize(
    "rows, lineno, message",
    [
        (["KPT,hello,0.5"], 3, "cannot read 'hello'"),
        (["KPT,0.5,0.7500±0.0500"], 3, "cannot read '0.5'"),
        (["KPT,0.5±0.1,0.7500±0.0500"], 3, "cannot read '0.5±0.1'"),
        (["KPT,0.5000±0.1000,none"], 3, "one score cell is none, the other not"),
        (["KPT,none,none", "BD,none,none", "KPT,none,none"], 5, "variant 'KPT' is repeated"),
    ],
    ids=["word", "bare-float", "two-decimals", "half-none", "repeated-variant"],
)
def test_summary_holds_only_rows_save_summary_writes(tmp_path, rows, lineno, message):
    path = tmp_path / "summary.csv"
    path.write_text(_SUMMARY_CSV)
    assert load_summary(str(path)) == [("KPT", "0.5000±0.1000", "0.7500±0.0500")]
    path.write_text("\n".join(["# format: harr-summary-v1", "variant,ari,ca", *rows]) + "\n")
    with pytest.raises(ValueError) as raised:
        load_summary(str(path))
    assert str(raised.value) == f"{path}, line {lineno}: {message}"


def test_trace_roundtrip_and_empty(tmp_path):
    rows = [("HARR-V", 0, 1, 12.5, False), ("HARR-V", 0, 2, 3.25, True)]
    path = save_trace(rows, str(tmp_path / "trace.csv"))
    assert load_trace(path) == rows
    with pytest.raises(ValueError, match="no trace rows"):
        save_trace([], str(tmp_path / "empty.csv"))


def test_bench_time_roundtrip(tmp_path):
    rows = [(0.2, 40, "HARR-V", 0.015), (1.0, 200, "HARR-M", 0.12)]
    path = save_bench_time(rows, str(tmp_path / "bench.csv"))
    assert load_bench_time(path) == rows


def test_label_file_roundtrip(tmp_path):
    top = 2**63 - 1
    path = write_label_file([1, 2, 3, 1, top], str(tmp_path / "labels.txt"))
    assert Path(path).read_text() == f"1\n2\n3\n1\n{top}\n"
    labels = read_label_file(path)
    assert labels.tolist() == [1, 2, 3, 1, top]
    assert labels.dtype == np.int64 and not labels.flags.writeable
    Path(path).write_text(f"\n 1\n\t2 \n\n  {top}  \n \n")
    assert read_label_file(path).tolist() == [1, 2, top]
    with pytest.raises(ValueError, match=r"^labels must be positive integers \(1-based\)$"):
        write_label_file([1, 0], path)


_LABEL_LINES = ["1", " 2 ", "", "10", "0", "x", "-3", "1_0", "9" * 19]


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(st.sampled_from(_LABEL_LINES), max_size=60))
def test_label_file_names_its_first_bad_line(tmp_path, lines):
    # Against a line-by-line reading with Python's own integers.
    def bad(token):
        return token and not (token.isdigit() and 1 <= int(token) < 2**63)

    path = tmp_path / "labels.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    first = next((i for i, line in enumerate(lines, 1) if bad(line.strip())), None)
    if first is None:
        want = [int(line) for line in lines if line.strip()]
        assert read_label_file(str(path)).tolist() == want
    else:
        with pytest.raises(ValueError, match=f", line {first}: label "):
            read_label_file(str(path))


def test_inputs_may_start_with_a_byte_order_mark(tmp_path):
    # One leading UTF-8 BOM is skipped in schema, data and label files; a
    # second one is still read as text.
    paths = write_synthetic(SyntheticSpec(n=30, k_true=2, d_u=1, d_n=2), str(tmp_path))
    marked = {}
    for kind in ("schema", "data", "labels"):
        text = Path(paths[kind]).read_text(encoding="utf-8")
        marked[kind] = tmp_path / f"bom-{kind}"
        marked[kind].write_text("\ufeff" + text, encoding="utf-8")
    plain = bench.load_dataset(paths["schema"], paths["data"])
    assert bench.load_dataset(str(marked["schema"]), str(marked["data"])) == plain
    labels = read_label_file(str(marked["labels"]))
    assert labels.tolist() == read_label_file(paths["labels"]).tolist()
    marked["labels"].write_text("\ufeff\ufeff1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=", line 1: label "):
        read_label_file(str(marked["labels"]))


def test_written_files_may_start_with_a_byte_order_mark(tmp_path):
    # harr reads reports through the reader of its inputs, so one leading
    # UTF-8 BOM is skipped there too
    report = _report_file([_run_report()])
    timings = TimingsFile("HARR-V", 0.125, ((0, 0.5, 0.25),))
    for load, path in [
        (load_report, save_report(report, str(tmp_path / "r.txt"))),
        (load_timings, save_timings(timings, str(tmp_path / "t.txt"))),
        (load_summary, save_summary([("BD", None)], str(tmp_path / "s.csv"))),
    ]:
        plain = load(path)
        Path(path).write_text("\ufeff" + Path(path).read_text(encoding="utf-8"), "utf-8")
        assert load(path) == plain


def test_variant_slug():
    assert variant_slug("OHE+OC") == "OHE_OC"
    assert variant_slug("HARR-V") == "HARR-V"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    spec = SyntheticSpec(
        n=120, k_true=3, d_u=1, d_n=2, d_o=1, values=5, separation=0.9, seed=0
    )
    return write_synthetic(spec, str(out))


class TestCmdCluster:
    def test_end_to_end_with_scores(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("KPT", "HARR-M"),
            k=3,
            runs=3,
            base_seed=0,
            out_dir=str(tmp_path / "out"),
        )
        reports = cmd_cluster(cfg)
        assert [r.variant for r in reports] == ["KPT", "HARR-M"]
        truth = read_label_file(synth_dir["labels"])
        for report in reports:
            loaded = load_report(
                f"{cfg.out_dir}/{variant_slug(report.variant)}.report.txt"
            )
            assert loaded == report
            # aggregate means equal arithmetic means of per-run scores
            aris = [ari(truth, run.labels) for run in report.run_reports]
            cas = [ca(truth, run.labels) for run in report.run_reports]
            assert report.ari_mean == pytest.approx(float(np.mean(aris)), abs=1e-12)
            assert report.ca_mean == pytest.approx(float(np.mean(cas)), abs=1e-12)
            timings = load_timings(
                f"{cfg.out_dir}/{variant_slug(report.variant)}.timings.txt"
            )
            assert len(timings.runs) == 3
        summary = load_summary(f"{cfg.out_dir}/summary.csv")
        assert [row[0] for row in summary] == ["KPT", "HARR-M"]

    @pytest.mark.parametrize(
        "relative",
        ["line\u2028sep/data.csv", "next\x85line/data.csv", "form\ffeed/data.csv", "data.csv "],
    )
    def test_report_reloads_the_data_path_verbatim(self, synth_dir, tmp_path, relative):
        # only \n, \r\n and \r end a report line, and a value is read
        # verbatim after its "key: ", so every other character reloads
        data = tmp_path / relative
        data.parent.mkdir(exist_ok=True)
        data.write_bytes(Path(synth_dir["data"]).read_bytes())
        out = tmp_path / "out"
        args = ["--data", str(data), "--schema", synth_dir["schema"], "--k", "3"]
        assert main(["cluster", *args, "--runs", "1", "--variant", "KPT", "--out", str(out)]) == 0
        assert load_report(str(out / "KPT.report.txt")).dataset == str(data)

    def test_single_run_zero_std(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("KPT",),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        report = cmd_cluster(cfg)[0]
        assert report.ari_std == 0.0 and report.ca_std == 0.0

    def test_reports_byte_identical_across_reruns(self, synth_dir, tmp_path):
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V", "OHE+OC"),
            k=3,
            runs=2,
            base_seed=5,
        )
        cfg_a = BenchConfig(out_dir=str(tmp_path / "a"), **common)
        cfg_b = BenchConfig(out_dir=str(tmp_path / "b"), **common)
        cmd_cluster(cfg_a)
        cmd_cluster(cfg_b)
        for name in ("HARR-V.report.txt", "OHE_OC.report.txt", "summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_workers_do_not_change_results(self, synth_dir, tmp_path):
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            # both engine models: the column model and OHE+OC's point model
            variants=("HARR-M", "KPT", "OHE+OC"),
            k=3,
            runs=4,
        )
        serial = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "s"), workers=1, **common)
        )
        parallel = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "p"), workers=3, **common)
        )
        assert serial == parallel
        names = sorted(p.name for p in (tmp_path / "s").glob("*.report.txt"))
        assert names == ["HARR-M.report.txt", "KPT.report.txt", "OHE_OC.report.txt"]
        for name in names + ["summary.csv"]:
            a = (tmp_path / "s" / name).read_bytes()
            b = (tmp_path / "p" / name).read_bytes()
            assert a == b

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "failing, step, written",
        [
            ("KPT", "prepare", []),
            ("HARR-V", "prepare", ["KPT"]),
            ("BD", "prepare", ["KPT", "HARR-V"]),
            ("KPT", "run_prepared", []),
            ("HARR-V", "run_prepared", ["KPT"]),
            ("BD", "run_prepared", ["KPT", "HARR-V"]),
        ],
    )
    def test_failure_leaves_the_variants_before_it(
        self, synth_dir, tmp_path, monkeypatch, workers, failing, step, written
    ):
        # The next variant is prepared while the runs of one execute, yet a
        # failed prepare or run leaves the files of exactly the variants
        # before it, and no summary, as when variants ran one at a time.
        real = getattr(bench, step)

        def fail(dataset, *args):
            variant = args[0] if step == "prepare" else args[0].variant
            if variant == failing:
                raise RuntimeError(f"{step} failed")
            return real(dataset, *args)

        monkeypatch.setattr(bench, step, fail)
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("KPT", "HARR-V", "BD"),
            k=3,
            runs=3,
            workers=workers,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(RuntimeError, match=f"{step} failed"):
            cmd_cluster(cfg)
        files = sorted(p.name for p in (tmp_path / "out").glob("*"))
        assert files == sorted(
            f"{v}.{kind}.txt" for v in written for kind in ("report", "timings")
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_epochs_are_shared_across_the_variants_between(
        self, synth_dir, tmp_path, monkeypatch, workers
    ):
        # HAR, HARR-V and HARR-M compute one first epoch per seed, though
        # OHE+OC and KPT run between them; the baselines compute their own.
        from harr import cluster

        epoch, first = cluster._epoch, []

        def counted(model, proto_vals, weights, labels0, *rest):
            if labels0 is None:
                first.append(weights is not None)
            return epoch(model, proto_vals, weights, labels0, *rest)

        monkeypatch.setattr(cluster, "_epoch", counted)
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HAR", "OHE+OC", "HARR-V", "KPT", "HARR-M"),
            k=3,
            runs=4,
            workers=workers,
            out_dir=str(tmp_path / "out"),
        )
        cmd_cluster(cfg)
        assert sorted(first) == [False] * 8 + [True] * 4

    def test_workers_do_not_change_wide_nominal_results(self, tmp_path):
        # A 24-valued nominal builds (276, 24) distance blocks; concurrent
        # runs must each build theirs in a buffer of their own.
        spec = SyntheticSpec(
            n=150, k_true=3, d_u=1, d_n=1, values=24, separation=0.9, seed=2
        )
        paths = write_synthetic(spec, str(tmp_path / "synth"))
        common = dict(
            data=paths["data"],
            schema=paths["schema"],
            labels=paths["labels"],
            variants=("HARR-V", "HARR-M"),
            k=3,
            runs=4,
        )
        serial = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "s"), workers=1, **common)
        )
        parallel = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "p"), workers=3, **common)
        )
        assert serial == parallel
        names = sorted(p.name for p in (tmp_path / "s").glob("*.report.txt"))
        assert names == ["HARR-M.report.txt", "HARR-V.report.txt"]
        for name in names + ["summary.csv"]:
            a = (tmp_path / "s" / name).read_bytes()
            b = (tmp_path / "p" / name).read_bytes()
            assert a == b

    def test_seed_ladder_independence(self, synth_dir, tmp_path):
        # the report for a given seed does not depend on how many other
        # seeds ran alongside it
        common = dict(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V",),
            k=3,
        )
        wide = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "w"), runs=4, base_seed=3, **common)
        )[0]
        narrow = cmd_cluster(
            BenchConfig(out_dir=str(tmp_path / "n"), runs=1, base_seed=5, **common)
        )[0]
        by_seed = {r.seed: r for r in wide.run_reports}
        assert narrow.run_reports[0] == by_seed[5]

    def test_ablation_table_structure(self, tmp_path):
        # pure categorical data supports the full five-variant ladder
        spec = SyntheticSpec(
            n=90, k_true=3, d_n=3, values=5, separation=0.9, seed=6
        )
        paths = write_synthetic(spec, str(tmp_path / "synth"))
        ladder = ("KMD", "BD", "HAR", "HARR-V", "HARR-M")
        cfg = BenchConfig(
            data=paths["data"],
            schema=paths["schema"],
            labels=paths["labels"],
            variants=ladder,
            k=3,
            runs=2,
            out_dir=str(tmp_path / "out"),
        )
        cmd_cluster(cfg)
        summary = load_summary(f"{cfg.out_dir}/summary.csv")
        assert [row[0] for row in summary] == list(ladder)
        assert all("±" in row[1] for row in summary)

    def test_label_length_mismatch(self, synth_dir, tmp_path):
        bad = tmp_path / "short.txt"
        bad.write_text("1\n2\n")
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=str(bad),
            variants=("KPT",),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        from harr.schema import DataError

        with pytest.raises(DataError, match="label file"):
            cmd_cluster(cfg)


class TestCmdBenchTime:
    def test_sweep_and_subsample_arithmetic(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("HARR-V",),
            k=3,
            phis=(0.05, 0.5, 1.0),
            repeats=1,
            out_dir=str(tmp_path / "out"),
        )
        rows = cmd_bench_time(cfg)
        assert [row[1] for row in rows] == [6, 60, 120]  # ceil(phi * 120)
        loaded = load_bench_time(f"{cfg.out_dir}/bench_time.csv")
        assert loaded == rows

    def test_writes_only_the_csv_table(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("KPT",),
            k=3,
            phis=(1.0,),
            repeats=1,
            out_dir=str(tmp_path / "out"),
        )
        cmd_bench_time(cfg)
        assert os.listdir(cfg.out_dir) == ["bench_time.csv"]

    def test_subsample_smaller_than_k(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("KPT",),
            k=3,
            phis=(0.01,),
            repeats=1,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ConfigError, match="fewer than k"):
            cmd_bench_time(cfg)


    def test_every_repeat_builds_its_variant_set_up(self, synth_dir, tmp_path, monkeypatch):
        # each repeat clusters a fresh subsample, so it times the variant's
        # whole prepare: no repeat finds the base distances already built
        from harr import cluster

        calls = []
        build = cluster.build_base_distances
        monkeypatch.setattr(
            cluster, "build_base_distances", lambda *a: calls.append(1) or build(*a)
        )
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            variants=("HARR-V", "HARR-M", "HAR", "BD", "KPT"),
            k=3,
            phis=(0.5, 1.0),
            repeats=2,
            inner_cap=2,
            outer_cap=1,
            out_dir=str(tmp_path / "out"),
        )
        cmd_bench_time(cfg)
        assert len(calls) == 4 * 2 * 2  # variants with base distances x phis x repeats


class TestCmdTrace:
    def test_collects_multiple_reports(self, synth_dir, tmp_path):
        cfg = BenchConfig(
            data=synth_dir["data"],
            schema=synth_dir["schema"],
            labels=synth_dir["labels"],
            variants=("HARR-V", "HARR-M"),
            k=3,
            runs=1,
            out_dir=str(tmp_path / "out"),
        )
        cmd_cluster(cfg)
        out = str(tmp_path / "trace.csv")
        cmd_trace_plot(
            [
                f"{cfg.out_dir}/HARR-V.report.txt",
                f"{cfg.out_dir}/HARR-M.report.txt",
            ],
            out,
        )
        rows = load_trace(out)
        variants = {row[0] for row in rows}
        assert variants == {"HARR-V", "HARR-M"}
        # converged runs end with two equal objective values
        v_rows = [row for row in rows if row[0] == "HARR-V"]
        assert v_rows[-1][3] == pytest.approx(v_rows[-2][3])


class TestCliMain:
    def test_full_pipeline(self, tmp_path, capsys):
        synth_out = str(tmp_path / "synth")
        assert (
            main(
                [
                    "synth",
                    "--n", "90",
                    "--k-true", "3",
                    "--d-u", "1",
                    "--d-n", "2",
                    "--d-o", "0",
                    "--values", "4",
                    "--separation", "0.9",
                    "--seed", "1",
                    "--out", synth_out,
                ]
            )
            == 0
        )
        run_out = str(tmp_path / "runs")
        assert (
            main(
                [
                    "cluster",
                    "--data", f"{synth_out}/data.csv",
                    "--schema", f"{synth_out}/schema.txt",
                    "--labels", f"{synth_out}/labels.txt",
                    "--k", "3",
                    "--variant", "HARR-M",
                    "--variant", "KPT",
                    "--runs", "2",
                    "--seed", "0",
                    "--out", run_out,
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "HARR-M" in captured and "ari" in captured
        # eval mode on the ground truth against itself
        assert (
            main(
                [
                    "eval",
                    "--labels", f"{synth_out}/labels.txt",
                    "--pred", f"{synth_out}/labels.txt",
                ]
            )
            == 0
        )
        assert "ARI: 1.000000" in capsys.readouterr().out
        assert (
            main(
                [
                    "trace",
                    "--report", f"{run_out}/HARR-M.report.txt",
                    "--out", str(tmp_path / "trace.csv"),
                ]
            )
            == 0
        )

    def test_config_error_exit_code(self, tmp_path):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "30", "--k-true", "2", "--d-n", "1", "--out", out])
        code = main(
            [
                "cluster",
                "--data", f"{out}/data.csv",
                "--schema", f"{out}/schema.txt",
                "--k", "1",
                "--runs", "1",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["cluster", "bench-time"])
    @pytest.mark.parametrize(
        "setting",
        [
            ["--k", "1"],
            ["--k", "2", "--inner-cap", "0"],
            ["--k", "2", "--outer-cap", "0"],
            ["--k", "2", "--seed", "-1"],
        ],
    )
    def test_bad_run_setting_fails_before_data_is_read(self, tmp_path, command, setting):
        # the data file is missing, so reading it would exit 3
        missing = ["--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "s")]
        assert main([command, *missing, *setting, "--out", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("option", ["--data", "--schema", "--labels"])
    @pytest.mark.parametrize("line_end", ["\n", "\r"])
    def test_path_with_a_line_end_fails_before_data_is_read(
        self, tmp_path, capsys, option, line_end
    ):
        # the report echoes each of these paths on one line, which could not reload
        paths = {"--data": "missing.csv", "--schema": "s", "--labels": "labels.txt"}
        paths[option] = f"odd{line_end}dir/file"
        args = [arg for key, name in paths.items() for arg in (key, str(tmp_path / name))]
        assert main(["cluster", *args, "--k", "2", "--out", str(tmp_path / "runs")]) == 2
        assert f"configuration error: {option} " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_labels_file_named_none_fails_before_data_is_read(self, tmp_path, capsys):
        # a report writes an absent labels file as ``none``, so a file of that
        # name would reload as no labels file
        missing = ["--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "s")]
        args = [*missing, "--labels", "none", "--k", "2", "--out", str(tmp_path / "runs")]
        assert main(["cluster", *args]) == 2
        assert "configuration error: --labels 'none': " in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("cluster", "--variant", "KPT"),
            ("bench-time", "--variant", "KPT"),
            ("bench-time", "--phi", "0.5"),
        ],
    )
    def test_repeated_variant_or_rate_fails_before_data_is_read(
        self, tmp_path, capsys, command, option, value
    ):
        # a repeat would run the same variant or rate twice and write its rows twice
        missing = ["--data", str(tmp_path / "missing.csv"), "--schema", str(tmp_path / "s")]
        args = [*missing, "--k", "2", option, value, option, value]
        assert main([command, *args, "--out", str(tmp_path / "runs")]) == 2
        assert "may be given only once" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "setting",
        [
            ["--n", "0"],
            ["--values", "1"],
            ["--separation", "2"],
            ["--k-true", "6", "--values", "4"],
            ["--seed", "-1"],
        ],
        ids=["n", "values", "separation", "k-true", "seed"],
    )
    def test_bad_synth_setting_is_a_config_error(self, tmp_path, capsys, setting):
        # Like every other bad option, and unlike bad input data, exits 2.
        out = tmp_path / "synth"
        assert main(["synth", *setting, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, handler", [("cluster", "cmd_cluster"), ("bench-time", "cmd_bench_time")]
    )
    def test_unset_options_take_config_defaults(self, monkeypatch, command, handler):
        seen = []
        monkeypatch.setattr(cli, handler, lambda cfg: seen.append(cfg) or [])
        assert main([command, "--data", "D", "--schema", "S", "--k", "3"]) == 0
        assert seen == [BenchConfig(data="D", schema="S", k=3)]

    @pytest.mark.parametrize("command", [["cluster"], ["bench-time", "--phi", "1"]])
    def test_variant_unfit_for_the_data_fails_before_any_run(
        self, tmp_path, monkeypatch, capsys, command
    ):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "200", "--d-u", "1", "--d-n", "2", "--out", out])
        monkeypatch.setattr(bench, "prepare", lambda *args: pytest.fail("prepared"))
        runs = tmp_path / "runs"
        args = ["--data", f"{out}/data.csv", "--schema", f"{out}/schema.txt", "--k", "2"]
        args += ["--variant", "HARR-V", "--variant", "KMD", "--out", str(runs)]
        capsys.readouterr()
        assert main([*command, *args]) == 2
        assert "KMD handles pure categorical data only" in capsys.readouterr().err
        assert not runs.exists()

    def test_k_above_n_fails_before_any_run(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "20", "--out", out])
        monkeypatch.setattr(bench, "prepare", lambda *args: pytest.fail("prepared"))
        runs = tmp_path / "runs"
        args = ["--data", f"{out}/data.csv", "--schema", f"{out}/schema.txt", "--k", "21"]
        capsys.readouterr()
        assert main(["cluster", *args, "--out", str(runs)]) == 2
        assert "k=21 exceeds the 20 available objects" in capsys.readouterr().err
        assert not runs.exists()

    def test_smallest_sampling_rate_below_k_fails_before_any_run(
        self, tmp_path, monkeypatch, capsys
    ):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "2000", "--out", out])
        monkeypatch.setattr(bench, "prepare", lambda *args: pytest.fail("prepared"))
        runs = tmp_path / "runs"
        args = ["--data", f"{out}/data.csv", "--schema", f"{out}/schema.txt", "--k", "500"]
        args += ["--phi", "1", "--phi", "0.1", "--out", str(runs)]
        capsys.readouterr()
        assert main(["bench-time", *args]) == 2
        assert "sampling rate 0.1 keeps 200 objects, fewer than k=500" in capsys.readouterr().err
        assert not runs.exists()

    def test_readme_synopsis_lists_every_option(self):
        # The README's "Command line" block is the one synopsis users read.
        readme = Path(__file__).parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## Command line")[1].split("```")[1]
        listed: dict[str, set[str]] = {}
        for line in filter(str.strip, block.splitlines()):
            if line.startswith("harr "):
                command = line.split()[1]
            listed.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
        (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
        options = {
            name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
            for name, parser in commands.items()
        }
        assert listed == options

    def test_options_and_config_fields_agree(self):
        # A knob dropped on one side only would be silently unreachable.
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions if a.dest == "command"]

        def dests(command):
            return {a.dest for a in commands[command]._actions} - {"help"}

        config_fields = {f.name for f in fields(BenchConfig)}
        for command in ("cluster", "bench-time"):
            assert dests(command) - {"strict"} <= config_fields, command
        assert {f.name for f in fields(SyntheticSpec)} <= dests("synth")

    def test_unset_synth_options_take_spec_defaults(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "write_synthetic", lambda *args: seen.append(args) or {})
        assert main(["synth"]) == 0
        assert seen == [(SyntheticSpec(), "harr-synth")]

    def test_data_error_exit_code(self, tmp_path):
        code = main(
            [
                "cluster",
                "--data", str(tmp_path / "missing.csv"),
                "--schema", str(tmp_path / "missing.txt"),
                "--k", "2",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_bad_label_names_file_and_line(self, tmp_path, monkeypatch, capsys, command):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "3", "--k-true", "2", "--d-n", "1", "--out", out])
        monkeypatch.setattr(bench, "prepare", lambda *args: pytest.fail("prepared"))
        runs = tmp_path / "runs"
        bad = tmp_path / "labels.txt"
        cases = [
            ("1\n2\nx\n", 3, "'x' is not an integer"),
            ("1\n0\n2\n", 2, "'0' is out of range: labels must be positive integers (1-based)"),
            ("-3\n1\n2\n", 1, "'-3' is not an integer"),
            ("1\n\n +2 \n2\n", 3, "'+2' is not an integer"),
            ("1\n2\n1_0\n", 3, "'1_0' is not an integer"),
        ]
        for text, line, problem in cases:
            bad.write_text(text)
            capsys.readouterr()
            if command == "cluster":
                args = ["--data", f"{out}/data.csv", "--schema", f"{out}/schema.txt"]
                args += ["--labels", str(bad), "--k", "2", "--out", str(runs)]
            else:
                args = ["--labels", f"{out}/labels.txt", "--pred", str(bad)]
            assert main([command] + args) == 3
            err = capsys.readouterr().err
            assert err == f"data error: {bad}, line {line}: label {problem}\n"
            assert not runs.exists()

    @pytest.mark.parametrize("command", ["cluster", "eval"])
    def test_label_beyond_int64_names_file_and_line(self, tmp_path, capsys, command):
        out = str(tmp_path / "synth")
        main(["synth", "--n", "3", "--k-true", "2", "--d-n", "1", "--out", out])
        bad = tmp_path / "labels.txt"
        bad.write_text("1\n99999999999999999999\n2\n")
        capsys.readouterr()
        if command == "cluster":
            args = ["--data", f"{out}/data.csv", "--schema", f"{out}/schema.txt"]
            args += ["--labels", str(bad), "--k", "2", "--out", str(tmp_path / "runs")]
        else:
            args = ["--labels", f"{out}/labels.txt", "--pred", str(bad)]
        assert main([command] + args) == 3
        err = capsys.readouterr().err
        assert err == (
            f"data error: {bad}, line 2: label '99999999999999999999' does not fit in int64\n"
        )

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        out = str(tmp_path / "synth")
        main(
            [
                "synth",
                "--n", "60",
                "--k-true", "3",
                "--d-n", "3",
                "--values", "5",
                "--separation", "0.2",
                "--seed", "4",
                "--out", out,
            ]
        )
        code = main(
            [
                "cluster",
                "--data", f"{out}/data.csv",
                "--schema", f"{out}/schema.txt",
                "--k", "3",
                "--variant", "KMD",
                "--runs", "1",
                "--inner-cap", "1",
                "--strict",
                "--out", str(tmp_path / "runs"),
            ]
        )
        assert code == 4


def _loaded_by_cli_import(*roots: str) -> list[str]:
    """Modules under the given top-level packages that a fresh
    ``import harr.cli`` leaves loaded."""
    src = str(Path(harr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, harr.cli; "
        f"print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.split()


def test_cli_import_loads_no_scipy():
    """``harr cluster`` pays for its imports in every process; scipy alone
    used to add more than half a second, so the CLI must not load it."""
    assert _loaded_by_cli_import("scipy") == []


def test_cli_import_loads_no_thread_pool():
    """``cmd_cluster`` imports the thread pool, which also pulls in
    ``logging``, when it runs; importing the CLI must not pay for either, so
    ``eval``, ``synth``, ``trace`` and ``bench-time`` never do. ``bench-time``
    takes its median with numpy: ``statistics`` would load ``decimal`` and
    ``fractions`` in every process too."""
    loaded = ("concurrent", "logging", "statistics", "decimal", "fractions")
    assert _loaded_by_cli_import(*loaded) == []
