"""Self-tests of the benchmark: span arithmetic, metric names, output check.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from check import adjusted_rand_index, check_outputs  # noqa: E402
from spans import Span, pool_concurrency, self_times  # noqa: E402

from harr.cli import main as harr_main  # noqa: E402
from harr.evaluation import ari  # noqa: E402
from harr.synth import SyntheticSpec, write_synthetic  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_self_times_nested_spans():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "b", 2.0, 3.0),
        Span(3, 0, "c", 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_times_split_overlapping_pool_spans():
    # d and e run on two pool threads under c; while both run they share
    # the time, so the self times still add up to the root's duration.
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "c", 5.0, 9.0),
        Span(2, 1, "d", 5.0, 8.0, thread=1),
        Span(3, 1, "e", 6.0, 9.0, thread=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 0.0, 2: 2.0, 3: 2.0})
    assert sum(own.values()) == pytest.approx(10.0)
    assert pool_concurrency(spans[2:], lambda s: "pool") == pytest.approx(6.0 / 4.0)


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_independent_ari_matches_harr():
    rng = np.random.default_rng(0)
    truth = rng.integers(1, 4, size=200)
    pred = np.where(rng.random(200) < 0.7, truth, rng.integers(1, 4, size=200))
    assert adjusted_rand_index(truth, pred) == pytest.approx(ari(truth, pred), abs=1e-12)


@pytest.fixture
def cluster_output(tmp_path):
    paths = write_synthetic(
        SyntheticSpec(n=80, k_true=3, d_u=1, d_n=2, values=4, seed=3), str(tmp_path / "data")
    )
    out = tmp_path / "out"
    argv = ["cluster", "--data", paths["data"], "--schema", paths["schema"]]
    argv += ["--labels", paths["labels"], "--k", "3", "--runs", "2", "--out", str(out)]
    assert harr_main(argv) == 0
    truth = np.loadtxt(paths["labels"], dtype=np.int64)
    return str(out), truth


def test_output_check_accepts_real_reports(cluster_output):
    out, truth = cluster_output
    outcome = check_outputs(out, ("HARR-V", "HARR-M"), 2, 3, truth)
    assert outcome.ok, outcome.problems
    assert len(outcome.digest) == 64


TAMPERS = {
    "label-out-of-range": lambda t: re.sub(r"labels: \d+", "labels: 4", t, count=1),
    "one-label-moved": lambda t: re.sub(
        r"labels: (\d+)", lambda m: f"labels: {int(m.group(1)) % 3 + 1}", t, count=1
    ),
    "label-missing": lambda t: re.sub(r"labels: \d+ ", "labels: ", t, count=1),
    "run-missing": lambda t: re.sub(r"\[run\]\n.*?\[end\]\n", "", t, count=1, flags=re.S),
    "runs-header": lambda t: t.replace("runs: 2", "runs: 3", 1),
    "ari_mean": lambda t: re.sub(r"ari_mean: \S+", "ari_mean: 0.123", t, count=1),
    "format": lambda t: t.replace("harr-report-v1", "harr-report-v0", 1),
}


@pytest.mark.parametrize("tamper", TAMPERS.values(), ids=TAMPERS.keys())
def test_output_check_flags_tampered_report(cluster_output, tamper):
    out, truth = cluster_output
    path = os.path.join(out, "HARR-V.report.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tampered = tamper(text)
    assert tampered != text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(tampered)
    assert not check_outputs(out, ("HARR-V", "HARR-M"), 2, 3, truth).ok


def test_output_check_flags_missing_summary(cluster_output):
    out, truth = cluster_output
    os.remove(os.path.join(out, "summary.csv"))
    assert not check_outputs(out, ("HARR-V", "HARR-M"), 2, 3, truth).ok
