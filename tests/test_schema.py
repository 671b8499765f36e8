import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harr.schema import (
    AttributeKind,
    DataError,
    SchemaError,
    dataset_to_text,
    default_bin_count,
    discretize_numerical,
    infer_schema,
    ingest_table,
    normalize_numerical,
    parse_schema,
    schema_to_text,
)

from conftest import build_dataset, random_dataset

# Soybean-style declaration: 35 nominal attributes.
SOYBEAN_VS = [7, 2, 3, 3, 2, 4, 4, 3, 3, 3, 2, 2, 3, 3, 3, 2, 2,
              3, 2, 2, 4, 4, 2, 2, 2, 3, 2, 3, 4, 2, 2, 2, 2, 2, 3]

DS_SCHEMA_TEXT = (
    "temperature,num\n"
    "nausea,nom,yes|no\n"
    "lumbar_pain,nom,yes|no\n"
    "urine_pushing,nom,yes|no\n"
    "micturition_pains,nom,yes|no\n"
    "burning,nom,yes|no\n"
)


def soybean_schema_text():
    lines = [
        f"attr{i + 1},nom," + "|".join(f"v{t}" for t in range(v))
        for i, v in enumerate(SOYBEAN_VS)
    ]
    return "\n".join(lines)


class TestParseSchema:
    def test_soybean_counts(self):
        schema = parse_schema(soybean_schema_text())
        assert (schema.d, schema.d_u, schema.d_n, schema.d_o) == (35, 0, 35, 0)

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError, match="at least one attribute"):
            parse_schema("# only a comment\n")

    def test_mixed_counts(self):
        schema = parse_schema(DS_SCHEMA_TEXT)
        assert (schema.d, schema.d_u, schema.d_c) == (6, 1, 5)
        assert schema.d == schema.d_u + schema.d_n + schema.d_o

    def test_duplicate_name(self):
        with pytest.raises(SchemaError, match="duplicate attribute name"):
            parse_schema("x,num\nx,nom,a|b\n")

    def test_short_ordinal(self):
        with pytest.raises(SchemaError, match="at least 2"):
            parse_schema("x,ord,only\n")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            parse_schema("x,real\n")

    def test_duplicate_value_labels(self):
        with pytest.raises(SchemaError, match="duplicate value labels"):
            parse_schema("x,nom,a|a\n")

    def test_numerical_with_values_rejected(self):
        with pytest.raises(SchemaError, match="no value list"):
            parse_schema("x,num,a|b\n")

    def test_ordinal_order_preserved(self):
        schema = parse_schema("grade,ord,low|mid|high\n")
        assert schema.attributes[0].possible_values == ("low", "mid", "high")

    def test_comments_and_blanks_skipped(self):
        schema = parse_schema("# header\n\nx,num\n")
        assert schema.d == 1

    def test_roundtrip_through_text(self):
        schema = parse_schema(DS_SCHEMA_TEXT)
        assert parse_schema(schema_to_text(schema)) == schema


class TestIngest:
    def test_row_count(self):
        schema = parse_schema(DS_SCHEMA_TEXT)
        row = "37.5,yes,no,yes,no,yes"
        dataset = ingest_table("\n".join([row] * 120), schema)
        assert dataset.n == 120

    def test_missing_cell_names_row_and_column(self):
        schema = parse_schema(DS_SCHEMA_TEXT)
        bad = "37.5,yes,,yes,no,yes"
        with pytest.raises(DataError, match=r"row 1.*'lumbar_pain'.*missing"):
            ingest_table(bad, schema)

    def test_unknown_label_lists_legal_values(self):
        schema = parse_schema("color,nom,red|green\n")
        with pytest.raises(DataError, match=r"unknown value 'blue'.*red, green"):
            ingest_table("blue", schema)

    def test_arity_mismatch(self):
        schema = parse_schema(DS_SCHEMA_TEXT)
        with pytest.raises(DataError, match="expected 6 columns, got 2"):
            ingest_table("37.5,yes", schema)

    def test_non_numeric_token(self):
        schema = parse_schema("x,num\n")
        with pytest.raises(DataError, match="not a number"):
            ingest_table("abc", schema)

    def test_non_finite_rejected(self):
        schema = parse_schema("x,num\n")
        with pytest.raises(DataError, match="non-finite"):
            ingest_table("inf", schema)

    def test_digit_separators_rejected(self):
        schema = parse_schema("x,num\n")
        with pytest.raises(DataError, match="not a number"):
            ingest_table("1_000", schema)

    def test_categorical_resolved_to_indices(self):
        schema = parse_schema("color,nom,red|green|blue\n")
        dataset = ingest_table("green\nred\nblue", schema)
        assert dataset.cells[:, 0].tolist() == [2.0, 1.0, 3.0]

    def test_roundtrip_exact(self):
        schema = parse_schema("x,num\ncolor,nom,red|green\n")
        text = "0.123456789012345,red\n1.5,green\n"
        ds1 = ingest_table(text, schema)
        ds2 = ingest_table(dataset_to_text(ds1), schema)
        assert np.array_equal(ds1.cells[:, 1], ds2.cells[:, 1])
        # 12 significant digits => relative error below half an ulp of the
        # 12th digit
        assert np.allclose(ds1.cells[:, 0], ds2.cells[:, 0], rtol=5e-12, atol=0)


class TestNormalize:
    def test_affine_endpoints(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("2\n4\n6", schema))
        assert dataset.cells[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_maps_to_zero(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("5\n5\n5", schema))
        assert dataset.cells[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_already_normalized_unchanged(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("0\n1", schema))
        assert dataset.cells[:, 0].tolist() == [0.0, 1.0]

    def test_categorical_untouched(self):
        schema = parse_schema("x,num\ncolor,nom,red|green\n")
        dataset = normalize_numerical(ingest_table("2,red\n6,green", schema))
        assert dataset.cells[:, 1].tolist() == [1.0, 2.0]

    def test_empty_dataset_rejected(self):
        schema = parse_schema("x,num\n")
        with pytest.raises(DataError):
            normalize_numerical(ingest_table("", schema))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_idempotent(self, values):
        schema = parse_schema("x,num\n")
        text = "\n".join(format(v, ".12g") for v in values)
        once = normalize_numerical(ingest_table(text, schema))
        twice = normalize_numerical(once)
        assert np.array_equal(once.cells, twice.cells)
        assert once.cells[:, 0].min() >= 0.0 and once.cells[:, 0].max() <= 1.0


class TestDiscretize:
    def test_boundary_bins(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(
            ingest_table("\n".join(["0.0", "1.0"] * 60), schema)
        )
        view = discretize_numerical(dataset, bins=8)
        assert view.codes[0, 0] == 1 and view.codes[1, 0] == 8

    def test_half_open_convention(self):
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("0.0\n0.5\n1.0", schema))
        view = discretize_numerical(dataset, bins=8)
        assert view.codes[1, 0] == 5

    def test_pure_categorical_passthrough(self):
        schema = parse_schema("color,nom,red|green|blue\n")
        dataset = ingest_table("red\nblue\ngreen", schema)
        view = discretize_numerical(dataset)
        assert view.codes[:, 0].tolist() == [1, 3, 2]
        assert view.bin_counts == (3,)

    def test_default_bin_rule(self):
        assert default_bin_count(1) == 2
        assert default_bin_count(4) == 2
        assert default_bin_count(120) == 7
        assert default_bin_count(10_000) == 8

    def test_unnormalized_rejected(self):
        schema = parse_schema("x,num\n")
        dataset = ingest_table("2\n4\n6", schema)
        with pytest.raises(DataError, match="normalized"):
            discretize_numerical(dataset)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(
            st.floats(0, 1, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=40,
        ),
        st.integers(2, 8),
    )
    def test_bins_monotone_in_value(self, values, bins):
        schema = parse_schema("x,num\n")
        text = "\n".join(format(v, ".12g") for v in values)
        dataset = ingest_table(text, schema)
        view = discretize_numerical(dataset, bins=bins)
        order = np.argsort(dataset.cells[:, 0], kind="stable")
        codes = view.codes[order, 0]
        assert (np.diff(codes) >= 0).all()
        assert codes.min() >= 1 and codes.max() <= bins


class TestRandomSchemas:
    def test_count_identity_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            schema = random_dataset(rng).schema
            assert schema.d == schema.d_u + schema.d_n + schema.d_o
            assert schema.d_c == schema.d_n + schema.d_o


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_distinct_rows_record(seed, copies):
    rng = np.random.default_rng(seed)
    base = random_dataset(rng)
    # rows drawn with replacement, so repeats occur beside numeric columns too
    cells = base.cells[rng.integers(0, base.n, size=base.n * copies)]
    dataset = build_dataset(base.schema, cells)
    rows = dataset.distinct
    assert np.array_equal(cells[rows.first][rows.inverse], cells)
    assert (rows.first[rows.inverse] <= np.arange(dataset.n)).all()
    same_id = rows.inverse[:, None] == rows.inverse[None, :]
    same_row = (cells[:, None, :] == cells[None, :, :]).all(axis=2)
    assert np.array_equal(same_id, same_row)
    assert dataset.distinct is rows


def test_infer_schema_heuristic():
    schema = infer_schema("1.5,red\n2.5,green\n")
    assert schema.attributes[0].kind is AttributeKind.NUMERICAL
    assert schema.attributes[1].kind is AttributeKind.NOMINAL
    assert schema.attributes[1].possible_values == ("red", "green")


def test_numeric_range_recorded():
    schema = parse_schema("x,num\ncolor,nom,red|green\n")
    dataset = ingest_table("2,red\n6,green", schema)
    assert dataset.numeric_min[0] == 2.0 and dataset.numeric_max[0] == 6.0
    assert math.isnan(dataset.numeric_min[1])
