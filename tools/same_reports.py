"""Check that two source trees write the same reports on the benchmark shapes.

    python3 tools/same_reports.py PARENT_SRC CHANGE_SRC

Each argument is the directory that holds a tree's ``harr`` package (a
checkout's ``src``). For every workload of ``perfbench/run.py`` the planted
dataset is written once, by PARENT_SRC's ``harr``, from synth seed 1. Then
``harr cluster`` runs once per tree and ``--workers`` value (1 and 3), with
the benchmark's arguments and ``--seed 1000``. Every ``*.report.txt`` and
``summary.csv`` must be byte-identical between the two trees; the timings
sidecars hold wall-clock values and are not compared. Then every
``*.report.txt``, ``*.timings.txt`` and ``summary.csv`` that CHANGE_SRC
wrote must load with CHANGE_SRC's own ``load_report``, ``load_timings``
and ``load_summary``. One line is printed per workload and worker count.
Last, CHANGE_SRC runs each of HAR, HARR-V and HARR-M alone on the mixed-all
shape with ``--workers 1``: the three share their first epochs when they
run together, so each report must be byte-identical to the one written
beside the other variants. One line is printed per variant. The exit
status is 1 on any difference, failed run or file that does not load, 2 on
a bad argument.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYNTH_SEED = 1
BASE_SEED = 1000
WORKERS = (1, 3)
ALONE_WORKLOAD = "mixed-all"
ALONE = ("HAR", "HARR-V", "HARR-M")  # the variants that share first epochs


def compared(out_dir: str) -> set[str]:
    """The names of the files in ``out_dir`` that must match."""
    return {f for f in os.listdir(out_dir) if f.endswith(".report.txt") or f == "summary.csv"}


def differences(a: str, b: str, names=None) -> list[str]:
    """The compared files, or ``names``, that are missing from one
    directory or differ."""
    found = []
    for name in sorted(names or compared(a) | compared(b)):
        paths = os.path.join(a, name), os.path.join(b, name)
        if not all(map(os.path.isfile, paths)):
            found.append(f"{name} (missing from one tree)")
            continue
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            if fa.read() != fb.read():
                found.append(name)
    return found


# Loads each harr-written file of the directory argv[1]; prints one line per
# file that does not load.
RELOAD = """
import os, sys
from harr.report import load_report, load_summary, load_timings
out_dir = sys.argv[1]
for name in sorted(os.listdir(out_dir)):
    if name.endswith(".report.txt"):
        load = load_report
    elif name.endswith(".timings.txt"):
        load = load_timings
    elif name == "summary.csv":
        load = load_summary
    else:
        continue
    try:
        load(os.path.join(out_dir, name))
    except ValueError as exc:
        print(f"{name}: {exc}")
"""


def reload_failures(src: str, out_dir: str) -> list[str]:
    """The files of ``out_dir`` that ``src``'s loaders reject, one
    ``name: error`` entry each; a failed loader process is one entry too."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", RELOAD, out_dir]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    failures = done.stdout.splitlines()
    if done.returncode != 0:
        failures.append(f"loader exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return failures


def alone_argv(argv: list[str], variant: str) -> list[str]:
    """``harr cluster`` arguments ``argv`` with ``variant`` as the only
    variant and one worker."""
    pairs = dict(zip(argv[1::2], argv[2::2]))
    del pairs["--variant"]
    pairs.update({"--workers": "1", "--variant": variant})
    return [argv[0], *(item for pair in pairs.items() for item in pair)]


def cluster(src: str, argv: list[str]) -> None:
    """Run ``harr cluster`` from ``src``; raise with its error on failure."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "harr.cli", *argv]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{src}: exit {done.returncode}: {done.stderr.strip()[-500:]}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(os.path.join(s, "harr")) for s in args):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"parent": os.path.abspath(args[0]), "change": os.path.abspath(args[1])}
    sys.path[:0] = [trees["parent"], os.path.join(ROOT, "perfbench")]
    from run import WORKLOADS, cluster_argv, generate

    status = 0
    with tempfile.TemporaryDirectory(prefix="same-reports-") as work:
        for name, workload in WORKLOADS.items():
            os.makedirs(os.path.join(work, name))
            inputs = generate(workload, SYNTH_SEED, os.path.join(work, name))
            for workers in WORKERS:
                outs = {}
                for tree, src in trees.items():
                    outs[tree] = os.path.join(work, name, f"{tree}-w{workers}")
                    run_argv = cluster_argv(workload, inputs, BASE_SEED, outs[tree])
                    run_argv[run_argv.index("--workers") + 1] = str(workers)
                    try:
                        cluster(src, run_argv)
                    except RuntimeError as exc:
                        print(f"{name} --workers {workers}: FAILED {exc}")
                        return 1
                diff = differences(outs["parent"], outs["change"])
                count = len(compared(outs["parent"]) | compared(outs["change"]))
                failed = reload_failures(trees["change"], outs["change"])
                if diff:
                    status = 1
                    print(f"{name} --workers {workers}: DIFFERENT {', '.join(diff)}")
                if failed:
                    status = 1
                    print(f"{name} --workers {workers}: DOES NOT RELOAD {'; '.join(failed)}")
                if not diff and not failed:
                    print(
                        f"{name} --workers {workers}: {count} files byte-identical, "
                        "every written file reloads"
                    )
            if name != ALONE_WORKLOAD:
                continue
            beside = os.path.join(work, name, "change-w1")
            for variant in ALONE:
                out = os.path.join(work, name, f"alone-{variant}")
                argv = alone_argv(cluster_argv(workload, inputs, BASE_SEED, out), variant)
                try:
                    cluster(trees["change"], argv)
                except RuntimeError as exc:
                    print(f"{name} {variant} alone: FAILED {exc}")
                    return 1
                if differences(beside, out, [f"{variant}.report.txt"]):
                    status = 1
                    print(f"{name} {variant} alone: DIFFERENT from its report beside the others")
                else:
                    print(f"{name} {variant} alone: report byte-identical to the one beside the others")
    return status


if __name__ == "__main__":
    sys.exit(main())
