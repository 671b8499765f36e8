"""
The variant ladder on planted clusters
======================================

Seven variants share one alternating engine. The ladder below isolates each
ingredient: KPT uses 0/1 mismatch on categorical attributes, BD swaps in
base distances, HAR adds the projection (frozen uniform weights), HARR-V
learns one weight per expanded attribute, and HARR-M learns one weight row
per cluster. OHE+OC is the classical one-hot / rank-coding baseline.
"""

import numpy as np

from harr import (
    RunConfig,
    SyntheticSpec,
    ari,
    ca,
    generate_synthetic,
    normalize_numerical,
    prepare,
    run_prepared,
)

spec = SyntheticSpec(
    n=1000, k_true=3, d_u=2, d_n=3, d_o=1, values=5, separation=0.8, seed=42
)
dataset, labels = generate_synthetic(spec)
dataset = normalize_numerical(dataset)
print(f"planted data: n={dataset.n}, "
      f"{dataset.schema.d_u} numerical / {dataset.schema.d_n} nominal / "
      f"{dataset.schema.d_o} ordinal attributes, {spec.k_true} clusters\n")

print(f"{'variant':<8} {'ARI':>16} {'CA':>16}  converged")
for variant in ("OHE+OC", "KPT", "BD", "HAR", "HARR-V", "HARR-M"):
    prep = prepare(dataset, variant)
    reports = [
        run_prepared(prep, RunConfig(k=3, seed=s, variant=variant))
        for s in range(20)
    ]
    aris = [ari(labels, r.labels) for r in reports]
    cas = [ca(labels, r.labels) for r in reports]
    # mean and population std over the seeded runs
    ari_s, ca_s = (f"{np.mean(x):.4f}±{np.std(x):.4f}" for x in (aris, cas))
    conv = sum(r.converged for r in reports)
    print(f"{variant:<8} {ari_s:>16} {ca_s:>16}  {conv}/20")

print("\nweight learning adapts to where the signal lives; on this data the")
print("per-cluster rows of HARR-M give it the edge over the shared vector.")

# Determinism: a seed pins the whole run.
prep = prepare(dataset, "HARR-M")
a = run_prepared(prep, RunConfig(k=3, seed=7, variant="HARR-M"))
b = run_prepared(prep, RunConfig(k=3, seed=7, variant="HARR-M"))
print(f"\nsame seed, same report: {a == b}")
print(f"weight refreshes until stable: {a.weight_updates}, "
      f"assignments: {a.inner_iterations}")
