import importlib
import math
import pkgutil
import tracemalloc
from dataclasses import fields, is_dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harr
import harr.schema
from harr.base_distance import BaseDistanceTable, CpdTable
from harr.bench import _subsample
from harr.cluster import Prototypes, WeightMatrix, WeightVector, prepare
from harr.projection import ProjectedBlock, ReconstructedSpace
from harr.schema import (
    AttributeKind,
    AttributeSchema,
    DataError,
    Dataset,
    DatasetSchema,
    OrdinalView,
    SchemaError,
    _Record,
    dataset_to_text,
    default_bin_count,
    discretize_numerical,
    ingest_table,
    normalize_numerical,
    parse_schema,
    schema_to_text,
)

from conftest import build_dataset, random_dataset
from oracles import ingest_rowwise_oracle

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

    def test_range_wider_than_largest_float(self):
        # 1e308 - (-1e308) overflows; every cell is finite, and so is the result
        schema = parse_schema("x,num\n")
        dataset = normalize_numerical(ingest_table("-1e308\n1e308\n0", schema))
        assert dataset.cells[:, 0].tolist() == [0.0, 1.0, 0.5]

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_numerical_cells(bad):
    schema = parse_schema("x,num\ny,num\n")
    with pytest.raises(DataError, match="column 'x': numerical cells must be finite"):
        Dataset(schema, np.array([[bad, 1.0], [0.0, 2.0], [1.0, 3.0], [np.inf, 0.0]]))


@pytest.mark.parametrize("code", [7.0, 0.5, 0.0, -1.0, np.nan])
def test_dataset_rejects_categorical_cells_that_are_not_value_indices(code):
    schema = parse_schema("x,num\nc,nom,a|b\n")
    with pytest.raises(DataError, match=r"column 'c': .* value indices in 1\.\.2"):
        Dataset(schema, np.array([[0.0, 1.0], [1.0, code], [0.5, 2.0]]))


def test_ingest_keeps_its_row_and_column_message():
    schema = parse_schema("x,num\nc,nom,a|b\n")
    with pytest.raises(DataError, match="row 2, column 'x': non-finite value 'nan'"):
        ingest_table("1,a\nnan,b", schema)


def test_numeric_range_recorded():
    schema = parse_schema("x,num\ncolor,nom,red|green\n")
    dataset = ingest_table("2,red\n6,green", schema)
    assert dataset.numeric_min[0] == 2.0 and dataset.numeric_max[0] == 6.0
    assert math.isnan(dataset.numeric_min[1])


def _range_oracle(dataset):
    """Per-column min and max as Python floats; NaN where there is none."""
    lo, hi = [], []
    for r, attr in enumerate(dataset.schema.attributes):
        col = [float(x) for x in dataset.cells[:, r]]
        numeric = bool(col) and not attr.kind.is_categorical
        lo.append(min(col) if numeric else math.nan)
        hi.append(max(col) if numeric else math.nan)
    return lo, hi


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 1.0))
def test_numeric_range_matches_column_oracle(seed, categorical_only, share):
    rng = np.random.default_rng(seed)
    normalized = random_dataset(rng, min_categorical=5 if categorical_only else 0)
    cells = normalized.cells.copy()
    num = list(normalized.schema.numerical_indices())
    cells[:, num] = cells[:, num] * rng.uniform(0.5, 9.0) - rng.uniform(0.0, 4.0)
    raw = build_dataset(normalized.schema, cells)
    order = rng.permutation(raw.n)
    for dataset in (
        raw,
        normalize_numerical(raw),
        _subsample(raw, order, round(share * raw.n)),
        ingest_table("", raw.schema),
    ):
        lo, hi = _range_oracle(dataset)
        assert np.array_equal(dataset.numeric_min, lo, equal_nan=True)
        assert np.array_equal(dataset.numeric_max, hi, equal_nan=True)
        assert not dataset.numeric_min.flags.writeable


GOOD_NUMBERS = ("0", "-0", "1.5", "-2.25e3", "1e-300", "7", "+3.0", "١٢", ".5")
BAD_NUMBERS = ("", "1_000", "nan", "inf", "-inf", "abc", "0x10", "1.2.3", "--1")
PADDING = ("", " ", "\t", "\u3000")
BLANK_LINES = ("", "   ", "\t")


@st.composite
def csv_tables(draw):
    """A schema and a CSV text over it; with ``faulty`` set, cells may be
    empty, unknown or non-numeric, rows may have the wrong arity, and blank
    lines may sit anywhere. Lines often repeat an earlier line."""
    kinds = draw(
        st.lists(
            st.sampled_from(
                (AttributeKind.NUMERICAL, AttributeKind.NOMINAL, AttributeKind.ORDINAL)
            ),
            min_size=1,
            max_size=4,
        )
    )
    # Labels keep inner spaces; a blank one declares "" as a label.
    labels = st.text("abxyz 1", min_size=1, max_size=3).map(str.strip)
    attrs = []
    for r, kind in enumerate(kinds):
        if kind is AttributeKind.NUMERICAL:
            attrs.append(AttributeSchema(f"a{r}", kind))
        else:
            values = draw(st.lists(labels, min_size=2, max_size=4, unique=True))
            attrs.append(AttributeSchema(f"a{r}", kind, tuple(values)))
    faulty = draw(st.booleans())
    one_in = draw(st.sampled_from((4, 16, 64)))

    def cell(attr):
        bad = faulty and draw(st.integers(1, one_in)) == 1
        if attr.kind.is_categorical:
            pool = ("", "q", "A", "a b c") if bad else attr.possible_values
        else:
            pool = BAD_NUMBERS if bad else GOOD_NUMBERS
        return draw(st.sampled_from(PADDING)) + draw(st.sampled_from(pool)) + draw(
            st.sampled_from(PADDING)
        )

    lines = []
    repeat_one_in = draw(st.sampled_from((2, 4, 1_000)))
    for _ in range(draw(st.integers(0, 40))):
        if lines and draw(st.integers(1, repeat_one_in)) == 1:
            lines.append(draw(st.sampled_from(lines)))
            continue
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        cells = [cell(attr) for attr in attrs]
        if faulty and draw(st.integers(1, one_in)) == 1:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return DatasetSchema(tuple(attrs)), newline.join(lines)


@settings(deadline=None, max_examples=300)
@given(csv_tables(), st.integers(1, 12))
def test_ingest_matches_rowwise_oracle(table, chunk_cells):
    """Column-wise ingest equals the row-wise oracle: bitwise cells and
    ranges on valid tables, the same first error on invalid ones, for
    chunks of one row up to the whole table."""
    schema, text = table
    try:
        expected = ingest_rowwise_oracle(text, schema)
    except DataError as exc:
        with mock.patch.object(harr.schema, "_CHUNK_CELLS", chunk_cells):
            with pytest.raises(DataError) as info:
                ingest_table(text, schema)
        assert str(info.value) == str(exc)
        return
    with mock.patch.object(harr.schema, "_CHUNK_CELLS", chunk_cells):
        dataset = ingest_table(text, schema)
    cells, lo, hi = expected
    assert dataset.cells.shape == cells.shape
    assert dataset.cells.tobytes() == cells.tobytes()
    assert dataset.numeric_min.tobytes() == lo.tobytes()
    assert dataset.numeric_max.tobytes() == hi.tobytes()


def _chunked_table(rows: int) -> tuple[DatasetSchema, list[str]]:
    schema = parse_schema("x,num\ncolor,nom,red|green|blue\n")
    lines = [f"{i * 0.25},{('red', 'green', 'blue')[i % 3]}" for i in range(rows)]
    return schema, lines


@pytest.mark.parametrize(
    "later, earlier, message",
    [
        ("2.5,mauve", None, r"^row 20001, column 'color': unknown value 'mauve'"),
        ("2.5,red,1", None, r"^row 20001: expected 2 columns, got 3"),
        ("1_0,red", "1", r"^row 11: expected 2 columns, got 1"),
        ("1,blue,3", "nan,red", r"^row 11, column 'x': non-finite value 'nan'"),
    ],
)
def test_ingest_reports_first_bad_row_across_chunks(later, earlier, message):
    """A bad row past the first chunk is found with its physical row number,
    and an earlier bad row wins over a later one."""
    schema, lines = _chunked_table(40_000)
    step = harr.schema._CHUNK_CELLS // schema.d
    assert step < 20_000
    lines[20_000] = later
    if earlier is not None:
        lines[10] = earlier
    with pytest.raises(DataError, match=message):
        ingest_table("\n".join(lines), schema)


def test_ingest_memory_stays_below_all_tokens():
    """Ingest holds one chunk of tokens at a time: 200,000 rows of five
    nominal cells peak at about 26 MB (27.6 MB when every line was parsed),
    while holding all 1,000,000 tokens at once peaks near 100 MB."""
    schema = parse_schema(
        "\n".join(f"c{r},nom,v1|v2|v3|v4|v5" for r in range(5)) + "\n"
    )
    block = np.random.default_rng(3).integers(1, 6, size=(1_000, 5))
    codes = np.tile(block, (200, 1))
    text = "".join(",".join(f"v{c}" for c in row) + "\n" for row in block.tolist()) * 200
    tracemalloc.start()
    try:
        dataset = ingest_table(text, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(dataset.cells, codes)
    assert peak < 40e6, f"ingest peak {peak / 1e6:.1f} MB"


def test_ingest_memory_of_distinct_lines_stays_below_a_whole_file_index():
    """Lines are grouped one chunk at a time, so 100,000 distinct lines of
    two numerical and five nominal cells peak at about 19 MB, as when every
    line was parsed on its own. An index of every line of the file, with a
    second cell table for its distinct lines, peaks at about 31 MB."""
    schema = parse_schema(
        "x,num\ny,num\n" + "".join(f"c{r},nom,v1|v2|v3|v4|v5\n" for r in range(5))
    )
    rng = np.random.default_rng(7)
    nums = rng.random((100_000, 2))
    codes = rng.integers(1, 6, size=(100_000, 5))
    text = "".join(
        f"{a:.12g},{b:.12g}," + ",".join(f"v{c}" for c in row) + "\n"
        for (a, b), row in zip(nums.tolist(), codes.tolist())
    )
    tracemalloc.start()
    try:
        dataset = ingest_table(text, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prepare(dataset, "KPT").model.repeats.sum() == 100_000  # distinct rows
    assert np.array_equal(dataset.cells[:, 2:], codes)
    assert peak < 25e6, f"ingest peak {peak / 1e6:.1f} MB"


# Characters at which str.splitlines ends a line but open() does not.
NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_lines_end_only_where_open_ends_them(char):
    """Data and schema lines end at "\\n", "\\r\\n" and "\\r" only, so rows
    keep their physical line numbers and the character stays in its cell."""
    schema = parse_schema("a,nom,x|y\nb,nom,x|y\n")
    with pytest.raises(DataError, match=r"^row 1: expected 2 columns, got 3$"):
        ingest_table(f"x,y{char}x,y\nx,y\n", schema)
    with pytest.raises(DataError, match=r"^row 1, column 'b': unknown value"):
        ingest_table(f"x,y{char}y\nx,z\n", schema)
    # Stripped as padding, the character leaves a good cell on its own line.
    with pytest.raises(DataError, match=r"^row 3, column 'b': unknown value 'z'"):
        ingest_table(f"x,y{char}\nx,y\rx,z\r\n", schema)
    assert ingest_table(f"x,y{char}\r\ny,x", schema).n == 2
    with pytest.raises(SchemaError, match=r"^schema line 1: expected"):
        parse_schema(f"a,nom,x|y{char}b,nom,x|y\n")


@pytest.fixture(params=[None, 8], ids=["default-chunks", "chunks-of-4-lines"])
def chunk_cells(request):
    """Run a test at the default chunk size and at chunks of four lines of
    a two-column table."""
    if request.param is None:
        yield harr.schema._CHUNK_CELLS
        return
    with mock.patch.object(harr.schema, "_CHUNK_CELLS", request.param):
        yield request.param


COLOR_SCHEMA = "x,num\ncolor,nom,red|green|blue\n"


def test_repeated_bad_line_is_reported_at_its_first_copy(chunk_cells):
    lines = ["1,red", "2,blue", "1,red", "3,mauve", "2,blue", "3,mauve", "1,red"]
    with pytest.raises(DataError, match=r"^row 4, column 'color': unknown value 'mauve'"):
        ingest_table("\n".join(lines * 3), parse_schema(COLOR_SCHEMA))


@pytest.mark.parametrize("bad", ["2,mauve", "2", "nan,red"])
def test_bad_line_after_many_duplicates_is_found_in_its_chunk(chunk_cells, bad):
    step = chunk_cells // 2
    copies = 3 * step // 4  # the bad line lies inside the second chunk
    lines = ["1,red", "2.5,green"] * copies + [bad, "1,red", bad]
    with pytest.raises(DataError, match=rf"^row {2 * copies + 1}\b"):
        ingest_table("\n".join(lines), parse_schema(COLOR_SCHEMA))


def test_lines_that_differ_only_in_spelling_are_one_row(chunk_cells):
    lines = ["1,red", " 1.0 ,red", "1e0,\tred ", "+1.00,  red", "\u30001,red\u3000", "2,blue"]
    dataset = ingest_table("\n".join(lines * 3), parse_schema(COLOR_SCHEMA))
    assert dataset.cells.tolist() == ([[1.0, 1.0]] * 5 + [[2.0, 3.0]]) * 3
    model = prepare(dataset, "KPT").model
    assert model.repeats.sum() == 2  # distinct rows
    assert model.inverse.tolist() == ([0] * 5 + [1]) * 3


def test_blank_lines_between_duplicates_keep_the_line_numbers(chunk_cells):
    lines = ["1,red", "", "1,red", "   ", "1,red", "\t", "2,blue", "", "1,red"]
    schema = parse_schema(COLOR_SCHEMA)
    dataset = ingest_table("\n".join(lines), schema)
    assert dataset.cells.tolist() == [[1.0, 1.0]] * 3 + [[2.0, 3.0], [1.0, 1.0]]
    with pytest.raises(DataError, match=r"^row 11, column 'x': not a number: 'x'"):
        ingest_table("\n".join(lines + ["", "x,red", "1,red"]), schema)


def test_chunk_of_only_blank_lines_is_skipped(chunk_cells):
    step = chunk_cells // 2
    lines = ["1,red"] * step + ["", "  "] * step + ["2,blue"]
    schema = parse_schema(COLOR_SCHEMA)
    dataset = ingest_table("\n".join(lines), schema)
    assert dataset.cells.tolist() == [[1.0, 1.0]] * step + [[2.0, 3.0]]
    with pytest.raises(DataError, match=rf"^row {3 * step + 2}: expected 2 columns"):
        ingest_table("\n".join(lines + ["2,blue,3"]), schema)
    assert ingest_table("\n".join(["", " "] * step), schema).n == 0


def _harr_dataclasses():
    for info in pkgutil.iter_modules(harr.__path__):
        module = importlib.import_module(f"harr.{info.name}")
        for obj in vars(module).values():
            if is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_dataclass_holding_arrays_is_a_record():
    # An array field under the generated __eq__ makes == raise ValueError.
    holders = [
        cls
        for cls in _harr_dataclasses()
        if any("ndarray" in str(f.type) for f in fields(cls))
    ]
    assert {"Dataset", "RunReport", "BaseDistanceTable", "_CatGroup"} <= {
        cls.__name__ for cls in holders
    }
    for cls in holders:
        assert issubclass(cls, _Record), cls.__qualname__
        assert cls.__eq__ is _Record.__eq__, cls.__qualname__
        assert cls.__hash__ is None, cls.__qualname__


_TWO = parse_schema("x,num\nc,nom,a|b\n")


def _block(coords):
    return ProjectedBlock(1, ((1, 2),), coords, np.ones(1))


# (record, build from one array, that array, the array with entries changed)
ARRAY_RECORDS = [
    (
        "Dataset",
        lambda a: Dataset(_TWO, a),
        [[0.5, 1.0], [0.0, 2.0]],
        [[0.5, 1.0], [0.0, 1.0]],
    ),
    (
        "OrdinalView",
        lambda a: OrdinalView(_TWO, (2, 2), a),
        [[1, 2], [2, 1]],
        [[1, 2], [2, 2]],
    ),
    (
        "CpdTable",
        lambda a: CpdTable(1, 0, a, np.ones(2)),
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.5, 0.5]],
    ),
    (
        "BaseDistanceTable",
        lambda a: BaseDistanceTable(_TWO, (None, a)),
        [[0.0, 2.0], [2.0, 0.0]],
        [[0.0, 2.0], [2.0, 1.0]],
    ),
    ("ProjectedBlock", _block, [[0.0, 1.0]], [[0.0, 0.5]]),
    (
        "ReconstructedSpace",
        lambda a: ReconstructedSpace(_TWO, (_block(a),)),
        [[0.0, 1.0]],
        [[0.0, 0.5]],
    ),
    ("Prototypes", Prototypes, [[0.5, 1.0]], [[0.5, 2.0]]),
    # entries on the simplex cannot change one at a time
    ("WeightVector", WeightVector, [0.25, 0.75], [0.75, 0.25]),
    ("WeightMatrix", WeightMatrix, [[0.25, 0.75]], [[0.75, 0.25]]),
]


@pytest.mark.parametrize(
    "make, values, changed",
    [pytest.param(*case[1:], id=case[0]) for case in ARRAY_RECORDS],
)
def test_array_records_compare_by_value(make, values, changed):
    given = np.array(values)
    record = make(given)
    assert record == make(np.array(values))
    assert not record != make(np.array(values))
    assert record != make(np.array(changed))
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    assert given.flags.writeable


def test_ingested_datasets_compare_equal():
    schema = parse_schema("x,num\n")
    assert ingest_table("1\n2", schema) == ingest_table("1\n2", schema)
    assert ingest_table("1\n2", schema) != ingest_table("1\n3", schema)
