"""
Base distances between categorical values
=========================================

How far apart are ``red`` and ``green``? The base distance answers with
data statistics: condition on each value, collect the conditional
distributions of every other attribute (numerical ones through their
discretized bins), and accumulate the total-variation differences. Values
that co-occur with similar contexts end up close.
"""

import numpy as np

from harr import (
    build_base_distances,
    compute_cpd,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
)

schema = parse_schema(
    "species,nom,setosa|versi|virgi\n"
    "petal,num\n"
    "size,ord,small|medium|large\n"
)

# setosa pairs with small petals, virgi with large ones; versi sits between
rows = [
    "setosa,0.10,small",
    "setosa,0.15,small",
    "setosa,0.20,small",
    "versi,0.45,medium",
    "versi,0.55,medium",
    "versi,0.50,small",
    "virgi,0.80,large",
    "virgi,0.95,large",
    "virgi,0.90,medium",
]
dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
# Each stage takes the one before it: the dataset, its discretized view,
# then the base distances, which read the schema from the view.
view = discretize_numerical(dataset)

# Conditional distribution of size given each species
cpd = compute_cpd(view, target=0, context=2)
print("p(size | species):")
print(np.round(cpd.probs, 3))

table = build_base_distances(view)
print("\nbase distances between species values (symmetric, zero diagonal):")
print(np.round(table.matrices[0], 3))
print("-> setosa is farther from virgi than from versi, as the contexts say")

print("\nbase distances between size ranks (additive along the order):")
kappa = table.matrices[2]
print(np.round(kappa, 3))
print(
    f"additivity: d(small,large) = {kappa[0, 2]:.3f} = "
    f"{kappa[0, 1]:.3f} + {kappa[1, 2]:.3f}"
)

# Numerical attributes get no table of their own; they keep native gaps.
print("\ntable entry for the numerical attribute:", table.matrices[1])
