"""Output check applied to every ``harr cluster`` invocation of the benchmark.

An invocation passes when every requested ``<variant>.report.txt`` reloads
through ``harr.report.load_report``, holds the requested number of runs,
each with one label in ``[1, k]`` per object, when every run's ARI agrees
with an ARI computed here from the ground truth, and when ``summary.csv``
exists. The digest of the report files lets the caller require identical
reports across repetitions of one workload at one seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from harr.report import load_report, variant_slug

ARI_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Outcome:
    problems: tuple[str, ...]
    digest: str
    ari_mean: dict  # variant -> the report's full-precision ari_mean
    reports: dict  # variant -> ReportFile

    @property
    def ok(self) -> bool:
        return not self.problems


def adjusted_rand_index(truth: np.ndarray, pred: np.ndarray) -> float:
    """ARI from the contingency table (Hubert and Arabie), written
    independently of ``harr.evaluation``."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.bincount(t * (p.max() + 1) + p).astype(float)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    n = truth.shape[0]
    index = pairs(table)
    rows = pairs(np.bincount(t).astype(float))
    cols = pairs(np.bincount(p).astype(float))
    expected = rows * cols / pairs(np.array([n], dtype=float))
    return (index - expected) / ((rows + cols) / 2 - expected)


def report_digest(out_dir: str, variants) -> str:
    h = hashlib.sha256()
    for variant in sorted(variants):
        name = f"{variant_slug(variant)}.report.txt"
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_outputs(
    out_dir: str, variants, runs: int, k: int, truth: np.ndarray
) -> Outcome:
    problems: list[str] = []
    ari_mean: dict = {}
    reports: dict = {}
    n = truth.shape[0]
    for variant in variants:
        path = os.path.join(out_dir, f"{variant_slug(variant)}.report.txt")
        try:
            report = load_report(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: does not reload: {exc}")
            continue
        reports[variant] = report
        if report.runs != runs or len(report.run_reports) != runs:
            problems.append(
                f"{path}: {len(report.run_reports)} runs (header {report.runs}), "
                f"expected {runs}"
            )
        aris = []
        for run in report.run_reports:
            labels = np.asarray(run.labels, dtype=np.int64)
            if labels.shape[0] != n:
                problems.append(f"{path}: seed {run.seed} has {labels.shape[0]} labels, expected {n}")
                continue
            if labels.min() < 1 or labels.max() > k:
                problems.append(f"{path}: seed {run.seed} has labels outside [1, {k}]")
                continue
            expected = adjusted_rand_index(truth, labels)
            if run.ari is None or abs(run.ari - expected) > ARI_TOLERANCE:
                problems.append(f"{path}: seed {run.seed} reports ARI {run.ari}, expected {expected}")
            aris.append(expected)
        if report.ari_mean is None or (
            aris and abs(report.ari_mean - float(np.mean(aris))) > ARI_TOLERANCE
        ):
            problems.append(f"{path}: ari_mean {report.ari_mean} does not match its runs")
        ari_mean[variant] = report.ari_mean
    if not os.path.isfile(os.path.join(out_dir, "summary.csv")):
        problems.append(f"{out_dir}/summary.csv is missing")
    digest = "" if problems else report_digest(out_dir, variants)
    return Outcome(tuple(problems), digest, ari_mean, reports)
