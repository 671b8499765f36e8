"""
Rebuilding categorical attributes as one-dimensional sub-attributes
===================================================================

A nominal attribute with v values lives in an implicit multidimensional
arrangement. Projecting all values onto the line through each value pair
(coordinates from the Pythagorean relation on base distances) yields
v(v-1)/2 one-dimensional sub-attributes that together preserve the
arrangement. Ordinal values already sit on one line, so a single
sub-attribute suffices, and every pair span reproduces it exactly.

All sub-attributes of one attribute are computed at once and kept together
as a block: a (γ, v) coordinate array with one row per span, each row
already scaled so that its largest value gap is 1.
"""

import numpy as np

from harr import (
    build_base_distances,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
    project_nominal,
    project_ordinal,
    reconstruct,
)

# A hand-made distance matrix over values a, b, c: think of a triangle
# with the long side a-b.
kappa = np.array([
    [0.0, 2.0, 1.0],
    [2.0, 0.0, 1.5],
    [1.0, 1.5, 0.0],
])

# Each sub-attribute (each row) is divided by its largest value gap, kept
# as max_span, so it is comparable to a normalized numerical attribute.
block = project_nominal(kappa)
print("spans and unit-scale coordinates for a 3-value nominal attribute:")
for span, coords, gap in zip(block.spans, block.coords, block.max_span):
    print(f"  span {span}: coords {np.round(coords, 4)} (max_span {gap:.4f})")
print("-> in span (1, 2), value 3 projects to "
      f"{block.coords[0, 2]:.4f} (between the endpoints)")

# The distance between two values under a sub-attribute is the gap between
# their coordinates in its row.
span_ab = block.coords[0]
print("\nvalue distances in span (1, 2):")
for u, f in [(1, 2), (1, 3), (2, 3)]:
    print(f"  d({u},{f}) = {abs(span_ab[u - 1] - span_ab[f - 1]):.4f}")

# Ordinal attributes: one line is enough. Every nominal-style span of an
# additive matrix reproduces the same pairwise distances.
gaps = np.array([0.4, 0.6])
pos = np.concatenate([[0.0], np.cumsum(gaps)])
additive = np.abs(pos[:, None] - pos[None, :])
line = project_ordinal(additive).coords[0]
print("\nordinal line coordinates:", np.round(line, 4))
spans = project_nominal(additive)
for span, coords in zip(spans.spans, spans.coords):
    mats_equal = np.allclose(
        np.abs(coords[:, None] - coords[None, :]),
        np.abs(line[:, None] - line[None, :]),
        atol=1e-12,
    )
    print(f"  span {span} overlaps the line: {mats_equal}")

# End to end: the expanded attribute set of a real mixed dataset.
schema = parse_schema("x,num\ncolor,nom,red|green|blue|grey\ngrade,ord,lo|mid|hi\n")
rows = []
colors = ["red", "green", "blue", "grey"]
grades = ["lo", "mid", "hi"]
for i in range(24):
    rows.append(f"{i / 23:.3f},{colors[i % 4]},{grades[i % 3]}")
dataset = normalize_numerical(ingest_table("\n".join(rows), schema))
space = reconstruct(build_base_distances(discretize_numerical(dataset)))
print(
    f"\nexpanded width: {space.d_hat} = 1 numerical pass-through "
    f"+ {space.gamma(1)} color spans + {space.gamma(2)} grade line"
)
