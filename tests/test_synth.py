from pathlib import Path

import numpy as np
import pytest

from harr.cluster import ConfigError, RunConfig, run
from harr.evaluation import ari
from harr.schema import (
    AttributeKind,
    ingest_table,
    normalize_numerical,
    parse_schema,
)
from harr.synth import SyntheticSpec, generate_synthetic, write_synthetic


class TestSpecValidation:
    def test_capacity_error(self):
        with pytest.raises(ConfigError, match="exceeds"):
            SyntheticSpec(n=10, k_true=6, d_n=1, values=4)

    def test_separation_range(self):
        with pytest.raises(ConfigError, match="separation"):
            SyntheticSpec(separation=1.5)

    def test_needs_attributes(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(d_u=0, d_n=0, d_o=0)

    def test_default_matches_timing_shape(self):
        spec = SyntheticSpec()
        assert (spec.n, spec.k_true, spec.d_n, spec.values) == (100_000, 5, 5, 5)


class TestGenerate:
    def test_shape_and_labels(self):
        spec = SyntheticSpec(n=200, k_true=4, d_u=1, d_n=2, d_o=1, values=5, seed=0)
        dataset, labels = generate_synthetic(spec)
        assert dataset.n == 200
        assert dataset.schema.d == 4
        assert dataset.schema.d_u == 1 and dataset.schema.d_n == 2
        assert set(labels) <= {1, 2, 3, 4}
        kinds = [a.kind for a in dataset.schema.attributes]
        assert kinds[0] is AttributeKind.NUMERICAL
        assert kinds[-1] is AttributeKind.ORDINAL

    def test_deterministic(self):
        spec = SyntheticSpec(n=100, k_true=3, d_n=3, values=5, seed=9)
        d1, l1 = generate_synthetic(spec)
        d2, l2 = generate_synthetic(spec)
        assert np.array_equal(d1.cells, d2.cells)
        assert l1 == l2

    def test_full_separation_exact_copies(self):
        spec = SyntheticSpec(
            n=150, k_true=3, d_u=1, d_n=2, d_o=1, values=5, separation=1.0, seed=3
        )
        dataset, labels = generate_synthetic(spec)
        # every object equals its cluster center, so any sane variant is exact
        report = run(
            normalize_numerical(dataset), RunConfig(k=3, seed=0, variant="KPT")
        )
        assert ari(labels, report.labels) == pytest.approx(1.0)

    def test_zero_separation_carries_no_signal(self):
        spec = SyntheticSpec(
            n=300, k_true=3, d_u=1, d_n=2, d_o=1, values=5, separation=0.0, seed=5
        )
        dataset, labels = generate_synthetic(spec)
        dataset = normalize_numerical(dataset)
        scores = [
            ari(labels, run(dataset, RunConfig(k=3, seed=s, variant="KPT")).labels)
            for s in range(10)
        ]
        assert abs(float(np.mean(scores))) < 0.05

    def test_categorical_centers_distinct(self):
        spec = SyntheticSpec(n=50, k_true=4, d_n=2, values=6, seed=1, separation=1.0)
        dataset, labels = generate_synthetic(spec)
        for r in dataset.schema.categorical_indices():
            by_cluster = {
                l: set(dataset.cells[np.array(labels) == l, r].tolist())
                for l in set(labels)
            }
            values = [next(iter(v)) for v in by_cluster.values()]
            assert len(set(values)) == len(values)


class TestWrite:
    def test_files_roundtrip(self, tmp_path):
        spec = SyntheticSpec(n=80, k_true=3, d_u=1, d_n=2, d_o=1, values=5, seed=2)
        paths = write_synthetic(spec, str(tmp_path))
        schema = parse_schema(Path(paths["schema"]).read_text(encoding="utf-8"))
        dataset = ingest_table(Path(paths["data"]).read_text(encoding="utf-8"), schema)
        labels = [
            int(line)
            for line in Path(paths["labels"]).read_text(encoding="utf-8").splitlines()
        ]
        assert dataset.n == 80 and len(labels) == 80
        direct, direct_labels = generate_synthetic(spec)
        assert list(direct_labels) == labels
        # categorical cells identical; numerical to 12 significant digits
        for r in schema.categorical_indices():
            assert np.array_equal(dataset.cells[:, r], direct.cells[:, r])
        for r in schema.numerical_indices():
            assert np.allclose(
                dataset.cells[:, r], direct.cells[:, r], rtol=5e-12, atol=5e-12
            )

    def test_write_deterministic(self, tmp_path):
        spec = SyntheticSpec(n=40, k_true=2, d_n=2, values=4, seed=8)
        p1 = write_synthetic(spec, str(tmp_path / "a"))
        p2 = write_synthetic(spec, str(tmp_path / "b"))
        for key in p1:
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()
