"""Seeded synthetic mixed-data generator with planted clusters.

Each cluster gets a center: evenly spread values in [0, 1] for numerical
attributes, and per categorical attribute a distinct preferred value sitting
on a latent one-dimensional arrangement of that attribute's values (hidden
behind a seeded permutation for nominal attributes, the rank order itself
for ordinal ones). Cells then follow a graded noise model controlled by
``separation`` s:

* numerical: with probability s the center value plus Gaussian jitter of
  scale (1 - s), clipped to [0, 1]; otherwise uniform on [0, 1];
* categorical: with probability s the preferred value; otherwise, with
  probability s, a latent-adjacent near-miss of the preferred value;
  otherwise uniform over all values.

Separation 1 therefore produces exact center copies, separation 0 carries
no cluster signal at all, and intermediate values yield the graded
value-level structure (near-miss values genuinely closer to their cluster
than far ones) that distinguishes informative distance metrics from plain
0/1 mismatch. Defaults match the timing-protocol shape (n=100000, five
5-valued nominal attributes, five clusters).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cluster import ConfigError
from .report import write_label_file
from .schema import (
    AttributeKind,
    AttributeSchema,
    Dataset,
    DatasetSchema,
    _freeze,
    _write_text,
    dataset_to_text,
    schema_to_text,
)

__all__ = ["SyntheticSpec", "generate_synthetic", "write_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and difficulty of a generated dataset."""

    n: int = 100_000
    k_true: int = 5
    d_u: int = 0
    d_n: int = 5
    d_o: int = 0
    values: int = 5
    separation: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.k_true < 1:
            raise ConfigError("k_true must be at least 1")
        if min(self.d_u, self.d_n, self.d_o) < 0 or self.d < 1:
            raise ConfigError("attribute counts must be non-negative with d >= 1")
        if not 0.0 <= self.separation <= 1.0:
            raise ConfigError("separation must lie in [0, 1]")
        if self.values < 2:
            raise ConfigError("categorical attributes need at least 2 values")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if (self.d_n or self.d_o) and self.k_true > self.values:
            raise ConfigError(
                f"k_true={self.k_true} exceeds the {self.values} distinct "
                "preferred values available per categorical attribute"
            )

    @property
    def d(self) -> int:
        return self.d_u + self.d_n + self.d_o


def _schema_for(spec: SyntheticSpec) -> DatasetSchema:
    value_labels = tuple(f"v{i + 1}" for i in range(spec.values))
    attrs = [
        AttributeSchema(f"num{i + 1}", AttributeKind.NUMERICAL)
        for i in range(spec.d_u)
    ]
    attrs += [
        AttributeSchema(f"nom{i + 1}", AttributeKind.NOMINAL, value_labels)
        for i in range(spec.d_n)
    ]
    attrs += [
        AttributeSchema(f"ord{i + 1}", AttributeKind.ORDINAL, value_labels)
        for i in range(spec.d_o)
    ]
    return DatasetSchema(tuple(attrs))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, tuple[int, ...]]:
    """Generate the dataset and its ground-truth labels (1-based)."""
    rng = np.random.default_rng(spec.seed)
    schema = _schema_for(spec)
    k, n, d, v = spec.k_true, spec.n, spec.d, spec.values
    sep = spec.separation

    labels0 = rng.integers(0, k, size=n)
    # Latent positions of the k preferred values on each attribute's line,
    # spread over 0..v-1; distinct because k <= v.
    positions = (
        np.round(np.linspace(0, v - 1, k)).astype(np.int64)
        if k > 1
        else np.array([(v - 1) // 2])
    )
    centers = np.empty((k, d))
    perms: dict[int, np.ndarray] = {}
    for r, attr in enumerate(schema.attributes):
        if attr.kind is AttributeKind.NUMERICAL:
            centers[:, r] = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.5])
        else:
            perm = (
                rng.permutation(v)
                if attr.kind is AttributeKind.NOMINAL
                else np.arange(v)
            )
            perms[r] = perm
            centers[:, r] = perm[positions] + 1

    cells = centers[labels0].copy()
    u_take = rng.random((n, d))
    u_kind = rng.random((n, d))
    for r, attr in enumerate(schema.attributes):
        take = u_take[:, r] < sep
        noisy = ~take
        if attr.kind is AttributeKind.NUMERICAL:
            jitter = rng.normal(0.0, 1.0 - sep, size=int(take.sum()))
            cells[take, r] = np.clip(cells[take, r] + jitter, 0.0, 1.0)
            cells[noisy, r] = rng.random(int(noisy.sum()))
        else:
            near = noisy & (u_kind[:, r] < sep)
            uniform = noisy & ~near
            if near.any():
                pos = positions[labels0[near]]
                step = np.where(
                    pos == 0,
                    1,
                    np.where(
                        pos == v - 1,
                        -1,
                        rng.choice([-1, 1], size=int(near.sum())),
                    ),
                )
                cells[near, r] = perms[r][pos + step] + 1
            if uniform.any():
                cells[uniform, r] = rng.integers(1, v + 1, size=int(uniform.sum()))

    return Dataset(schema, _freeze(cells)), tuple(int(x) + 1 for x in labels0)


def write_synthetic(spec: SyntheticSpec, out_dir: str) -> dict[str, str]:
    """Generate and write schema, data, and ground-truth label files."""
    dataset, labels = generate_synthetic(spec)

    def write(name: str, text: str) -> str:
        return _write_text(os.path.join(out_dir, name), text)

    # each text is built just before it is written and dropped right after
    return {
        "schema": write("schema.txt", schema_to_text(dataset.schema)),
        "data": write("data.csv", dataset_to_text(dataset)),
        "labels": write_label_file(labels, os.path.join(out_dir, "labels.txt")),
    }
