import time

import numpy as np
import pytest

from harr.cluster import RunConfig, prepare, run_prepared
from harr.schema import (
    AttributeKind,
    AttributeSchema,
    Dataset,
    DatasetSchema,
    normalize_numerical,
)
from harr.synth import SyntheticSpec, generate_synthetic

KINDS = (AttributeKind.NUMERICAL, AttributeKind.NOMINAL, AttributeKind.ORDINAL)


def build_dataset(schema: DatasetSchema, cells: np.ndarray) -> Dataset:
    """Dataset straight from arrays (tests bypass the text parser)."""
    return Dataset(schema, cells)


def random_dataset(
    rng: np.random.Generator,
    max_n: int = 60,
    max_d: int = 5,
    max_v: int = 6,
    min_categorical: int = 0,
) -> Dataset:
    """Random normalized mixed dataset for property and oracle tests."""
    n = int(rng.integers(4, max_n + 1))
    d = int(rng.integers(max(1, min_categorical), max_d + 1))
    while True:
        kinds = [KINDS[int(rng.integers(0, 3))] for _ in range(d)]
        if sum(k.is_categorical for k in kinds) >= min(min_categorical, d):
            break
    attrs = []
    for r, kind in enumerate(kinds):
        if kind is AttributeKind.NUMERICAL:
            attrs.append(AttributeSchema(f"a{r}", kind))
        else:
            v = int(rng.integers(2, max_v + 1))
            attrs.append(
                AttributeSchema(f"a{r}", kind, tuple(f"v{t}" for t in range(v)))
            )
    schema = DatasetSchema(tuple(attrs))
    cells = np.empty((n, d))
    for r, attr in enumerate(schema.attributes):
        if attr.kind.is_categorical:
            cells[:, r] = rng.integers(1, attr.v + 1, size=n)
        else:
            cells[:, r] = rng.random(n)
    return normalize_numerical(build_dataset(schema, cells))


PLANTED_SPEC = SyntheticSpec(
    n=1000, k_true=3, d_u=2, d_n=3, d_o=1, values=5, separation=0.8, seed=42
)
PLANTED_VARIANTS = ("KPT", "HAR", "HARR-V", "HARR-M")
PLANTED_SEEDS = range(20)


@pytest.fixture(scope="session")
def planted_suite():
    """20 seeded runs of each variant on the planted synthetic benchmark."""
    dataset, labels = generate_synthetic(PLANTED_SPEC)
    dataset = normalize_numerical(dataset)
    started = time.perf_counter()
    reports = {}
    for variant in PLANTED_VARIANTS:
        prep = prepare(dataset, variant)
        reports[variant] = [
            run_prepared(
                prep, RunConfig(k=PLANTED_SPEC.k_true, seed=s, variant=variant)
            )
            for s in PLANTED_SEEDS
        ]
    elapsed = time.perf_counter() - started
    return dataset, labels, reports, elapsed
