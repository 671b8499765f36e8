"""Command-line surface.

Subcommands: ``cluster`` (multi-seed benchmark runs), ``eval`` (score two
label files), ``synth`` (generate a planted synthetic dataset),
``bench-time`` (timing sweep over sampling rates), and ``trace`` (export
plot-ready objective traces).

Exit codes: 0 success, 2 configuration error, 3 data error, 4 when
``--strict`` is set and any run hit its iteration caps.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, cmd_bench_time, cmd_cluster, cmd_trace_plot
from .cluster import VARIANTS, ConfigError
from .evaluation import ari, ca, format_mean_std
from .report import read_label_file
from .schema import DataError, SchemaError
from .synth import SyntheticSpec, write_synthetic

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harr",
        description="Mixed-data clustering benchmark: reconstruction-based "
        "weight-learning variants plus classical baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options left unset stay out of the namespace, so the defaults of
    # BenchConfig and SyntheticSpec apply; help texts quote BenchConfig's.
    unset = argparse.SUPPRESS
    cluster = sub.add_parser(
        "cluster", help="run variants over seeded repeats", argument_default=unset
    )
    evaluate = sub.add_parser("eval", help="score a predicted labeling")
    synth = sub.add_parser(
        "synth", help="generate a planted synthetic dataset", argument_default=unset
    )
    bench = sub.add_parser(
        "bench-time", help="timing sweep over sampling rates", argument_default=unset
    )
    trace = sub.add_parser("trace", help="export plot-ready objective traces")

    for command in (cluster, bench):
        command.add_argument("--data", required=True, help="headerless CSV data file")
        command.add_argument("--schema", required=True, help="schema file")
        command.add_argument("--k", type=int, required=True, help="cluster count")
        command.add_argument(
            "--variant",
            dest="variants",
            action="append",
            choices=VARIANTS,
            help="variant to run (repeatable; default "
            f"{' and '.join(BenchConfig.variants)})",
        )
        command.add_argument(
            "--seed",
            dest="base_seed",
            type=int,
            help=f"base seed (default {BenchConfig.base_seed})",
        )
        command.add_argument(
            "--inner-cap",
            type=int,
            help=f"assignments per weight epoch (default {BenchConfig.inner_cap})",
        )
        command.add_argument(
            "--outer-cap",
            type=int,
            help=f"weight refreshes per run (default {BenchConfig.outer_cap})",
        )
        command.add_argument(
            "--out",
            dest="out_dir",
            help=f"output directory (default {BenchConfig.out_dir})",
        )

    cluster.add_argument("--labels", help="ground-truth labels, one per line")
    cluster.add_argument(
        "--runs", type=int, help=f"seeded runs per variant (default {BenchConfig.runs})"
    )
    cluster.add_argument(
        "--workers", type=int, help=f"concurrent runs (default {BenchConfig.workers})"
    )
    cluster.add_argument(
        "--strict",
        action="store_true",
        default=False,
        help="exit 4 when any run hits its iteration caps",
    )

    evaluate.add_argument("--labels", required=True, help="ground-truth label file")
    evaluate.add_argument("--pred", required=True, help="predicted label file")

    synth.add_argument("--n", type=int)
    synth.add_argument("--k-true", type=int)
    synth.add_argument("--d-u", type=int)
    synth.add_argument("--d-n", type=int)
    synth.add_argument("--d-o", type=int)
    synth.add_argument("--values", type=int)
    synth.add_argument("--separation", type=float)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--out", default="harr-synth", help="output directory")

    bench.add_argument(
        "--phi",
        dest="phis",
        action="append",
        type=float,
        help="sampling rate in (0, 1] (repeatable; default "
        f"{' '.join(map(str, BenchConfig.phis))})",
    )
    bench.add_argument(
        "--repeats", type=int, help=f"timed repeats (default {BenchConfig.repeats})"
    )

    trace.add_argument(
        "--report", action="append", required=True, help="report file (repeatable)"
    )
    trace.add_argument("--out", required=True, help="output trace file")

    return parser


def _options(args: argparse.Namespace, *skip: str) -> dict:
    """The options given on the command line, repeated ones as tuples."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in vars(args).items()
        if key not in ("command", *skip)
    }


def _do_cluster(args: argparse.Namespace) -> int:
    cfg = BenchConfig(**_options(args, "strict"))
    reports = cmd_cluster(cfg)
    capped = False
    for report in reports:
        if report.ari_mean is not None:
            scores = (
                f"ari {format_mean_std(report.ari_mean, report.ari_std)}  "
                f"ca {format_mean_std(report.ca_mean, report.ca_std)}"
            )
        else:
            scores = "no ground truth"
        n_capped = sum(not r.converged for r in report.run_reports)
        capped = capped or n_capped > 0
        note = f"  ({n_capped} run(s) hit caps)" if n_capped else ""
        print(f"{report.variant:<8} runs={report.runs}  {scores}{note}")
    print(f"reports written to {cfg.out_dir}")
    if args.strict and capped:
        return 4
    return 0


def _do_eval(args: argparse.Namespace) -> int:
    truth = read_label_file(args.labels)
    pred = read_label_file(args.pred)
    print(f"ARI: {ari(truth, pred):.6f}")
    print(f"CA: {ca(truth, pred):.6f}")
    return 0


def _do_synth(args: argparse.Namespace) -> int:
    paths = write_synthetic(SyntheticSpec(**_options(args, "out")), args.out)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _do_bench_time(args: argparse.Namespace) -> int:
    cfg = BenchConfig(**_options(args))
    rows = cmd_bench_time(cfg)
    for phi, n_sub, variant, seconds in rows:
        print(f"phi={phi:g} n={n_sub} {variant}: {seconds:.6f}s")
    print(f"tables written to {cfg.out_dir}")
    return 0


def _do_trace(args: argparse.Namespace) -> int:
    path = cmd_trace_plot(args.report, args.out)
    print(f"trace written to {path}")
    return 0


_HANDLERS = {
    "cluster": _do_cluster,
    "eval": _do_eval,
    "synth": _do_synth,
    "bench-time": _do_bench_time,
    "trace": _do_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
