"""The benchmark's traced run and step probe read harr's public surface.

Both scripts under ``perfbench/`` run in subprocesses, as the benchmark
runs them, on a small planted dataset: a change to what they import or read
fails here instead of only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from harr.bench import load_dataset
from harr.cluster import prepare
from harr.synth import SyntheticSpec, write_synthetic

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("HARR-V", "HARR-M")


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "perfbench" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


def test_traced_cli_and_step_probe_run(tmp_path):
    spec = SyntheticSpec(n=300, k_true=3, d_u=1, d_n=2, d_o=1, values=6, seed=2)
    paths = write_synthetic(spec, str(tmp_path / "data"))
    out, spans = tmp_path / "out", tmp_path / "spans.json"
    argv = ["cluster", "--data", paths["data"], "--schema", paths["schema"]]
    argv += ["--labels", paths["labels"], "--k", "3", "--runs", "2", "--out", str(out)]
    for variant in VARIANTS:
        argv += ["--variant", variant]

    traced = _script("traced_cli.py", str(spans), *argv)
    assert traced.returncode == 0, traced.stderr
    recorded = json.loads(spans.read_text())
    # each set-up layer that perfbench times is seen once: HARR-M finds the
    # parts HARR-V built
    layers = ("schema.discretize_numerical", "base_distance.build_base_distances")
    names = Counter(span["name"] for span in recorded)
    assert [names[name] for name in (*layers, "projection.reconstruct")] == [1, 1, 1]
    described = [span["attrs"] for span in recorded if span["name"] == "projection.reconstruct"]
    space = prepare(load_dataset(paths["schema"], paths["data"]), "HARR-V").space
    table_bytes = sum(b.gamma * b.v * b.v * 8 for b in space.blocks)
    assert (space.d_hat, table_bytes) == (32, 8928)
    assert described and all(
        attrs == {"d_hat": space.d_hat, "table_bytes": table_bytes} for attrs in described
    )

    probe = _script("step_probe.py", paths["schema"], paths["data"], str(out), *VARIANTS)
    assert probe.returncode == 0, probe.stderr
    steps = json.loads(probe.stdout.strip().splitlines()[-1])
    assert len(steps["prepare_peak_bytes"]) == len(VARIANTS)
    runs = 2 * len(VARIANTS)  # every run of each report is refit, assigned, refreshed
    assert [len(steps[step]) for step in ("refit", "assign", "weight_refresh")] == [runs] * 3
