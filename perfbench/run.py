"""Benchmark of ``harr cluster``: CSV in, reports out, one process per call.

    python3 perfbench/run.py --workload c10-nominal --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload is a planted dataset written by
``harr.synth.write_synthetic`` from ``--seed`` before any timing starts;
the program only sees the CSV, schema and label files. The load is a closed
loop: one client, one ``harr cluster`` process at a time.

``--trace 0`` runs untraced ``harr cluster`` invocations for ``--seconds``,
cycling through a few ``--seed`` values so that the mean ARI covers enough
seeded runs, and the first few invocations are each followed by a fresh
set-up probe (``setup_probe.py``). It reports the end-to-end metrics: the
median wall time and peak RSS of the invocations, the median set-up time,
and each variant's mean ARI read from the reports. ``--trace 1`` alternates
untraced and traced invocations (``traced_cli.py``) at one ``--seed``,
then runs one step probe (``step_probe.py``), and reports the per-layer
metrics. Every invocation goes through the output check in
``check.py``, and invocations at the same ``--seed`` must write
byte-identical reports. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

K = 5
SEPARATION = 0.8
# Small iteration caps bound the work of a run: most runs stop at a cap, so
# wall time follows the cost of an iteration more than how many epochs a
# particular seed needs. With the default caps (100 and 50) the number of
# HARR-M weight epochs ranged from 1 to 50 across seeds.
INNER_CAP = 3
OUTER_CAP = 2
SETUP_PROBES = 3
# Untraced and traced invocations alternate this many times in a traced run.
TRACE_PAIRS = 2
# Stop starting repetitions, and kill a hung child, well before the
# 180-second limit of one run.
HARD_STOP_S = 120.0
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d_u: int
    d_n: int
    d_o: int
    values: int
    variants: tuple[str, ...]
    workers: int
    runs: int  # --runs of one invocation
    base_seeds: int  # distinct --seed values an untraced run cycles through


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's timing shape. Only 1.5% of the rows are distinct, so
        # ingest, engine iterations and per-object report I/O dominate; a
        # unique-row engine shows here.
        Workload("c10-nominal", 100_000, 0, 5, 0, 5, ("HARR-V", "HARR-M"), 1, 4, 6),
        # Continuous numerics leave 94% of rows distinct (a unique-row engine
        # is bypassed); covers numeric and ordinal paths, both column models,
        # the OHE+OC k-means loop and the two-thread pool.
        Workload(
            "mixed-all",
            100_000,
            2,
            3,
            2,
            5,
            ("KPT", "BD", "HAR", "OHE+OC", "HARR-V", "HARR-M"),
            2,
            6,
            4,
        ),
        # 60-valued nominals: 1,770 sub-attributes per attribute, d_hat 7,081.
        # Projection, the column-model build, wide weight refreshes and
        # weight-matrix report lines dominate; ingest is small.
        Workload("wide-nominal", 20_000, 1, 4, 0, 60, ("HARR-V", "HARR-M"), 1, 10, 3),
    )
}

# Variants every workload runs; their ARI and run times are the metrics.
COMMON_VARIANTS = ("HARR-V", "HARR-M")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ari.harr-v": "ARI",
    "ari.harr-m": "ARI",
}

# Layers whose self times, with other_s, add up to the traced wall time.
SELF_TIME_LAYERS = {
    "cli.import_s": ("cli.import",),
    "schema.ingest_s": ("bench.load_dataset", "schema.parse_schema", "schema.ingest_table"),
    "schema.normalize_s": ("schema.normalize_numerical",),
    "schema.discretize_s": ("schema.discretize_numerical",),
    "base_distance.build_s": ("base_distance.build_base_distances",),
    "projection.reconstruct_s": ("projection.reconstruct",),
    "cluster.prepare_self_s": ("cluster.prepare",),
    "cluster.run_self_s": ("cluster.run_prepared",),
    "evaluation.ari_s": ("evaluation.ari",),
    "evaluation.ca_s": ("evaluation.ca",),
    "evaluation.aggregate_s": ("evaluation.aggregate_runs",),
    "report.read_labels_s": ("report.read_label_file",),
    "report.save_s": (
        "report.timings_from_reports",
        "report.save_report",
        "report.save_timings",
        "report.save_summary",
    ),
}

PER_LAYER = {
    "workload.distinct_row_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{name: "s" for name in SELF_TIME_LAYERS},
    "other_s": "s",
    "base_distance.build_calls": "count",
    "projection.d_hat": "count",
    "projection.table_bytes": "bytes_computed",
    "cluster.prepare_peak_mb": "MB",
    "cluster.runs": "count",
    "cluster.run_s.harr-v": "s",
    "cluster.run_s.harr-m": "s",
    "cluster.s_per_iteration.harr-v": "s",
    "cluster.s_per_iteration.harr-m": "s",
    "cluster.cluster_s": "s",
    "cluster.weights_s": "s",
    "cluster.inner_iterations": "count",
    "cluster.weight_updates": "count",
    "cluster.capped_runs": "count",
    "cluster.reseeds": "count",
    "cluster.assign_s": "s",
    "cluster.refit_s": "s",
    "cluster.weight_refresh_s": "s",
    "report.bytes": "bytes",
    "bench.pool_concurrency": "ratio",
}


def slug(variant: str) -> str:
    from harr.report import variant_slug

    return variant_slug(variant).lower()


# ---------------------------------------------------------------------------
# Inputs and child processes.


@dataclass(frozen=True)
class Inputs:
    schema: str
    data: str
    labels: str
    truth: object  # numpy array of ground-truth labels
    distinct_row_share: float


def generate(workload: Workload, seed: int, work: str) -> Inputs:
    import numpy as np
    from harr.synth import SyntheticSpec, write_synthetic

    spec = SyntheticSpec(
        n=workload.n,
        k_true=K,
        d_u=workload.d_u,
        d_n=workload.d_n,
        d_o=workload.d_o,
        values=workload.values,
        separation=SEPARATION,
        seed=seed,
    )
    paths = write_synthetic(spec, os.path.join(work, "data"))
    with open(paths["data"], encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    truth = np.loadtxt(paths["labels"], dtype=np.int64)
    return Inputs(
        paths["schema"],
        paths["data"],
        paths["labels"],
        truth,
        len(set(rows)) / len(rows),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Finished:
    code: int
    start: float
    end: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(argv: list[str], log_prefix: str) -> Finished:
    """Run one process to completion; its wall time runs from just before
    it is started to just after it is reaped, and its peak RSS is its own
    (``wait4``), not that of earlier children."""
    with open(log_prefix + ".out", "w+") as out, open(log_prefix + ".err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode, start, end, usage.ru_maxrss * 1024 / 1e6, out.read(), err.read()
        )


def cluster_argv(workload: Workload, inputs: Inputs, base_seed: int, out_dir: str) -> list[str]:
    argv = [
        "cluster",
        "--data", inputs.data,
        "--schema", inputs.schema,
        "--labels", inputs.labels,
        "--k", str(K),
        "--runs", str(workload.runs),
        "--seed", str(base_seed),
        "--inner-cap", str(INNER_CAP),
        "--outer-cap", str(OUTER_CAP),
        "--workers", str(workload.workers),
        "--out", out_dir,
    ]
    for variant in workload.variants:
        argv += ["--variant", variant]
    return argv


@dataclass(frozen=True)
class Invocation:
    process: Finished
    outcome: object  # check.Outcome
    out_dir: str
    spans_path: str | None


class WorkloadRun:
    """One benchmark run of one workload: invocations, checks, tallies.

    The j-th untraced invocation passes ``--seed`` ``base_seed(j)``, which
    cycles through ``workload.base_seeds`` values derived from the workload
    seed, with disjoint ranges of run seeds. Reports written at the same
    ``--seed`` must be byte-identical.
    """

    def __init__(self, workload: Workload, seed: int, work: str, inputs: Inputs):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = {}
        self.outcomes: dict[int, object] = {}
        self.count = 0

    def base_seed(self, j: int) -> int:
        return self.seed * 1000 + (j % self.workload.base_seeds) * self.workload.runs

    def invoke(self, base_seed: int, traced: bool = False) -> Invocation | None:
        """One ``harr cluster`` invocation plus its output check; None when
        either fails."""
        from check import check_outputs

        self.count += 1
        tag = f"{'traced' if traced else 'run'}-{self.count}"
        out_dir = os.path.join(self.work, tag)
        argv = cluster_argv(self.workload, self.inputs, base_seed, out_dir)
        spans = os.path.join(self.work, tag + ".spans.json") if traced else None
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans] + argv
        else:
            cmd = [sys.executable, "-m", "harr.cli"] + argv
        self.attempted += 1
        done = run_child(cmd, os.path.join(self.work, tag))
        if done.code != 0:
            self.fail(f"{tag}: exit code {done.code}: {done.stderr.strip()[-500:]}")
            return None
        outcome = check_outputs(
            out_dir, self.workload.variants, self.workload.runs, K, self.inputs.truth
        )
        if not outcome.ok:
            self.fail(f"{tag}: " + "; ".join(outcome.problems[:5]))
            return None
        self.digests.setdefault(base_seed, set()).add(outcome.digest)
        self.outcomes[base_seed] = outcome
        return Invocation(done, outcome, out_dir, spans)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def probe(self, script: str, *args: str) -> dict:
        self.count += 1
        tag = os.path.join(self.work, f"{script}-{self.count}")
        done = run_child([sys.executable, os.path.join(HERE, script + ".py"), *args], tag)
        if done.code != 0:
            raise RuntimeError(f"{script} failed: {done.stderr.strip()[-500:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    @property
    def correct(self) -> bool:
        """No failure, and every ``--seed`` that ran twice or more wrote the
        same reports each time; at least one did."""
        repeated = self.attempted > len(self.digests)
        return self.failed == 0 and repeated and all(len(d) == 1 for d in self.digests.values())


# ---------------------------------------------------------------------------
# The two kinds of run.


def measure_end_to_end(wrun: WorkloadRun, seconds: float) -> dict:
    """Invocations cycle through the base seeds until ``seconds`` have
    passed and every base seed ran, plus one more so that the first repeats.
    The first invocations are each followed by a set-up probe."""
    inputs, workload = wrun.inputs, wrun.workload
    walls, rss, setups = [], [], []
    start = time.perf_counter()
    j = 0
    while True:
        began = time.perf_counter()
        result = wrun.invoke(wrun.base_seed(j))
        j += 1
        if result is not None:
            walls.append(result.process.wall_s)
            rss.append(result.process.peak_rss_mb)
        if len(setups) < SETUP_PROBES:
            setup = wrun.probe("setup_probe", inputs.schema, inputs.data, *workload.variants)
            setups.append(setup["setup_s"])
        now = time.perf_counter()
        elapsed, last = now - start, now - began
        if j > workload.base_seeds and elapsed + last > seconds:
            break
        if elapsed + last > HARD_STOP_S:
            break
    if not walls or len(wrun.outcomes) < workload.base_seeds:
        return {}
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"invocations {len(walls)}  wall_s {walls}  setup_s {setups}")
    for variant in workload.variants:
        # Every base seed adds the same number of runs, so the mean of the
        # reports' means is the mean ARI over all distinct runs.
        mean = statistics.fmean(o.ari_mean[variant] for o in wrun.outcomes.values())
        if variant in COMMON_VARIANTS:
            metrics[f"ari.{slug(variant)}"] = mean
        else:
            print(f"  ari.{slug(variant):<32} {mean:.6g} ARI (not in every workload)")
    return metrics


def measure_layers(wrun: WorkloadRun) -> dict:
    from harr.report import load_timings, variant_slug
    from spans import Span, pool_concurrency, self_times

    workload, inputs = wrun.workload, wrun.inputs
    untraced_walls, traced_walls = [], []
    for i in range(TRACE_PAIRS):
        # Alternate which goes first, so warm-up favours neither side.
        order = (False, True) if i % 2 == 0 else (True, False)
        for is_traced in order:
            result = wrun.invoke(wrun.base_seed(0), traced=is_traced)
            if result is None:
                return {}
            (traced_walls if is_traced else untraced_walls).append(result.process.wall_s)
            if is_traced:
                traced = result
    # Layers come from the last traced invocation.
    done, outcome, out_dir = traced.process, traced.outcome, traced.out_dir
    with open(traced.spans_path) as fh:
        raw = json.load(fh)
    spans = [Span(0, None, "process", done.start, done.end)]
    spans += [
        Span(s["id"], s["parent"], s["name"], s["start"], s["end"], s["thread"], s["attrs"])
        for s in raw
    ]
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + own[s.id]
    unaccounted = sum(by_name.values()) - done.wall_s
    if abs(unaccounted) > 1e-6:
        raise RuntimeError(f"self times miss the traced wall time by {unaccounted} s")

    def named(name):
        return [s for s in spans if s.name == name]

    metrics = {
        "workload.distinct_row_share": inputs.distinct_row_share,
        "trace.wall_s": done.wall_s,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    for layer, names in SELF_TIME_LAYERS.items():
        metrics[layer] = sum(by_name.get(name, 0.0) for name in names)
    metrics["other_s"] = done.wall_s - sum(metrics[layer] for layer in SELF_TIME_LAYERS)

    metrics["base_distance.build_calls"] = len(named("base_distance.build_base_distances"))
    reconstructs = named("projection.reconstruct")
    metrics["projection.d_hat"] = max(s.attrs["d_hat"] for s in reconstructs)
    metrics["projection.table_bytes"] = max(s.attrs["table_bytes"] for s in reconstructs)

    runs = named("cluster.run_prepared")
    metrics["cluster.runs"] = workload.runs
    per_variant = {}
    for variant in workload.variants:
        mine = [s for s in runs if s.attrs["variant"] == variant]
        iterations = sum(s.attrs["inner_iterations"] for s in mine)
        per_variant[variant] = (
            statistics.median(s.duration for s in mine),
            sum(s.duration for s in mine) / iterations,
        )
    for variant in COMMON_VARIANTS:
        metrics[f"cluster.run_s.{slug(variant)}"] = per_variant[variant][0]
        metrics[f"cluster.s_per_iteration.{slug(variant)}"] = per_variant[variant][1]

    sidecars = [
        load_timings(os.path.join(out_dir, f"{variant_slug(v)}.timings.txt"))
        for v in workload.variants
    ]
    metrics["cluster.cluster_s"] = sum(c for t in sidecars for _, c, _ in t.runs)
    metrics["cluster.weights_s"] = sum(w for t in sidecars for _, _, w in t.runs)
    reports = [r for report in outcome.reports.values() for r in report.run_reports]
    metrics["cluster.inner_iterations"] = sum(r.inner_iterations for r in reports)
    metrics["cluster.weight_updates"] = sum(r.weight_updates for r in reports)
    metrics["cluster.capped_runs"] = sum(not r.converged for r in reports)
    metrics["cluster.reseeds"] = sum(sum(r.trace_reseeded) for r in reports)

    steps = wrun.probe(
        "step_probe", inputs.schema, inputs.data, out_dir, *workload.variants
    )
    metrics["cluster.prepare_peak_mb"] = max(steps["prepare_peak_bytes"]) / 1e6
    metrics["cluster.assign_s"] = statistics.median(steps["assign"])
    metrics["cluster.refit_s"] = statistics.median(steps["refit"])
    metrics["cluster.weight_refresh_s"] = statistics.median(steps["weight_refresh"])

    metrics["report.bytes"] = sum(
        s.attrs["bytes"]
        for name in ("report.save_report", "report.save_timings", "report.save_summary")
        for s in named(name)
    )
    metrics["bench.pool_concurrency"] = pool_concurrency(runs, lambda s: s.attrs["variant"])

    print("self time by span (s):")
    for name, value in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {value:.6f}")
    for variant, (run_s, per_iter) in per_variant.items():
        print(f"  run_s.{slug(variant):<12} {run_s:.6f} s   s_per_iteration {per_iter:.6f} s")
    with open(os.path.join(wrun.work, "trace.json"), "w") as fh:
        json.dump([{**vars(s), "self_s": own[s.id]} for s in spans], fh)
    return metrics


# ---------------------------------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(OUT_ROOT, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = generate(workload, seed, work)
    wrun = WorkloadRun(workload, seed, work, inputs)
    if trace:
        metrics = measure_layers(wrun)
        units = PER_LAYER
    else:
        metrics = measure_end_to_end(wrun, seconds)
        units = END_TO_END
    print(f"workload {workload.name}  seed {seed}  distinct_row_share {inputs.distinct_row_share:.4f}")
    for base_seed, digests in sorted(wrun.digests.items()):
        print(f"report digest at --seed {base_seed}: {' '.join(sorted(digests))}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    return {
        "correct": wrun.correct and set(units) <= set(metrics),
        "attempted": wrun.attempted,
        "failed": wrun.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "harr")):
        print(f"no harr sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if not result["metrics"]:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
