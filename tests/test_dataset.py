import csv
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import dataset
from flowlab.dataset import Dataset, class_codes, rows_fingerprint
from flowlab.errors import ConfigError, DataError
from oracles import dataset_csv_oracle


def _toy():
    rows = [{"x": 1.5, "y": 2, "proto": 6, "who": "a", "label": "HTTP"},
            {"x": 2.0, "y": 4, "proto": 17, "who": "b", "label": "DNS"},
            {"x": 0.5, "y": 8, "proto": 6, "who": "c", "label": "HTTP"}]
    kinds = {"x": "numeric", "y": "numeric", "proto": "categorical",
             "who": "metadata", "label": "label"}
    return Dataset.from_rows(rows, kinds)


def test_from_rows_types():
    ds = _toy()
    assert ds.data["x"].dtype == np.float64
    assert ds.data["proto"].dtype == object
    assert list(ds.row_ids) == [0, 1, 2]


def test_subset_preserves_row_ids():
    ds = _toy().subset([2, 0])
    assert list(ds.row_ids) == [2, 0]
    assert list(ds.data["who"]) == ["c", "a"]


@given(st.lists(st.one_of(st.text(max_size=3), st.integers(-3, 3)),
                max_size=30))
def test_class_codes_index_the_sorted_distinct_strings(values):
    classes, codes = class_codes(values)
    assert classes == sorted({str(v) for v in values})
    assert codes.dtype == np.int64
    assert [classes[c] for c in codes] == [str(v) for v in values]


@pytest.mark.parametrize("column, integral, message", [
    ("who", False, "column 'who', row_id 1: not a number: 'b'"),
    ("y", True, "column 'y', row_id 2: not an integer: 8.5"),
    ("proto", True, "column 'proto', row_id 0: not an integer: nan")])
def test_numbers_names_column_and_row(column, integral, message):
    ds = _toy()
    ds.data["who"][:] = ["1", "b", "3"]
    ds.data["y"][2] = 8.5
    ds.data["proto"][0] = "nan"
    with pytest.raises(DataError, match=message):
        ds.numbers(column, integral)


def test_numbers_reads_text_and_passes_numeric_through():
    ds = _toy()
    assert ds.numbers("proto", True).tolist() == [6.0, 17.0, 6.0]
    assert ds.numbers("x") is ds.data["x"]


def test_concat_appends_rows_and_partitions():
    a, b = _toy().subset([0, 1]), _toy().subset([2])
    a.partitions = np.asarray(["train", "val"], dtype=object)
    b.partitions = np.asarray(["test"], dtype=object)
    both = Dataset.concat(a, b)
    assert list(both.row_ids) == [0, 1, 2]
    assert list(both.partitions) == ["train", "val", "test"]
    assert list(both) == list(_toy())
    b.drop_columns(["who"])
    with pytest.raises(ConfigError):
        Dataset.concat(a, b)


def test_feature_matrix_rejects_unencoded_categorical():
    with pytest.raises(ConfigError, match="proto"):
        _toy().feature_matrix()


def test_feature_matrix_explicit_columns():
    X, names = _toy().feature_matrix(["y", "x"])
    assert names == ["y", "x"]
    assert X.tolist() == [[2.0, 1.5], [4.0, 2.0], [8.0, 0.5]]


def test_drop_refuses_label():
    ds = _toy()
    with pytest.raises(ConfigError):
        ds.drop_columns(["label"])
    ds.drop_columns(["y"])
    assert "y" not in ds.names


def test_iter_yields_row_tuples_in_names_order():
    assert list(_toy()) == [(1.5, 2.0, "6", "a", "HTTP"),
                            (2.0, 4.0, "17", "b", "DNS"),
                            (0.5, 8.0, "6", "c", "HTTP")]


def test_partitions_and_fingerprint():
    ds = _toy()
    ds.set_partitions({0: "train", 1: "test", 2: "train"})
    train = ds.partition_subset("train")
    assert list(train.row_ids) == [0, 2]
    assert train.fingerprint() == rows_fingerprint([2, 0])
    assert train.fingerprint() != ds.fingerprint()


def test_csv_round_trip(tmp_path):
    ds = _toy()
    ds.validity_links = {"x": "y"}
    ds.provenance = {"origin": "unit-test"}
    path = tmp_path / "ds.csv"
    ds.to_csv(path, config_hash="abc123")
    assert path.read_text().startswith("# config_hash: abc123\n")
    back = Dataset.from_csv(path)
    assert back.names == ds.names
    assert back.kinds == ds.kinds
    assert list(back.row_ids) == list(ds.row_ids)
    np.testing.assert_array_equal(back.data["x"], ds.data["x"])
    assert list(back.data["label"]) == list(ds.data["label"])
    assert back.validity_links == {"x": "y"}
    assert back.provenance == {"origin": "unit-test"}


def test_csv_numeric_formatting_lossless(tmp_path):
    rows = [{"v": 0.1}, {"v": 3.0}, {"v": 1e-17}, {"v": 12345678901234.0}]
    ds = Dataset.from_rows(rows, {"v": "numeric"})
    path = tmp_path / "v.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(back.data["v"], ds.data["v"])


def test_fingerprint_order_independent():
    a = _toy().subset([0, 2]).fingerprint()
    b = _toy().subset([2, 0]).fingerprint()
    assert a == b


def test_from_rows_single_numeric_column_and_no_rows():
    ds = Dataset.from_rows([{"v": 1}, {"v": 2.5}], {"v": "numeric"})
    assert ds.data["v"].tolist() == [1.0, 2.5]
    empty = Dataset.from_rows([], {"v": "numeric", "who": "metadata"})
    assert empty.names == ["v", "who"] and len(empty) == 0
    assert empty.data["v"].dtype == np.float64


def _one_column(values, tmp_path):
    ds = Dataset.from_rows([{"v": v} for v in values], {"v": "numeric"})
    path = tmp_path / "v.csv"
    ds.to_csv(path)
    return ds, path


def test_csv_non_finite_values(tmp_path):
    ds, path = _one_column([math.nan, math.inf, -math.inf, 2.0], tmp_path)
    assert path.read_text().splitlines() == [
        "row_id,v", "0,nan", "1,inf", "2,-inf", "3,2"]
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(back.data["v"], ds.data["v"])


def test_csv_negative_zero_written_as_zero(tmp_path):
    _, path = _one_column([-0.0, 0.0], tmp_path)
    assert path.read_text().splitlines() == ["row_id,v", "0,0", "1,0"]
    back = Dataset.from_csv(path)
    assert not np.signbit(back.data["v"]).any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_csv_signaling_nan_written_as_nan(tmp_path):
    snan = np.uint64(0x7FF0000000000001).view(np.float64)
    _, path = _one_column([1.0, snan, 2.5], tmp_path)
    assert path.read_text().splitlines() == [
        "row_id,v", "0,1", "1,nan", "2,2.5"]


@pytest.mark.parametrize("past, sorts", [(0, 0), (1, 1)])
def test_csv_integer_column_choice_follows_its_span(tmp_path, past, sorts):
    # three rows of integers: a span at the bound takes the offset table,
    # one past it sorts; the cells are the same either way
    span = dataset._SPAN_PER_ROW * 3 + past
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        _, path = _one_column([-0.0, float(span), 0.0], tmp_path)
    assert unique.call_count == sorts
    assert path.read_text().splitlines() == [
        "row_id,v", "0,0", f"1,{span}", "2,0"]


# numeric cells follow np.loadtxt's grammar, which float() exceeds: "_"
# separators and non-ASCII digits are rejected
@pytest.mark.parametrize("cell", ["", "abc", "1,5", "1_000", "\u0661\u0662",
                                  "\uff11"])
def test_csv_bad_numeric_cell_names_column_and_row(tmp_path, cell):
    ds = Dataset.from_rows([{"x": 1.0, "v": 1.0}, {"x": 2.0, "v": 2.0}],
                           {"x": "numeric", "v": "numeric"})
    ds.row_ids = np.asarray([7, 9])
    path = tmp_path / "v.csv"
    ds.to_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = "9,2," + (f'"{cell}"' if "," in cell else cell)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="'v', row_id 9"):
        Dataset.from_csv(path)


def test_csv_short_row_is_data_error(tmp_path):
    _, path = _one_column([1.0, 2.0], tmp_path)
    path.write_text("row_id,v\n0,1\n1\n")
    with pytest.raises(DataError, match="cells"):
        Dataset.from_csv(path)


@pytest.mark.parametrize("row", ["1,2,b,3,4", "1,2,b", "1,2"],
                         ids=["one_too_many", "one_too_few", "two_too_few"])
def test_csv_row_cell_count_is_data_error(tmp_path, row):
    # the numeric parse reads only the numeric columns, so the cell count of
    # every row is checked apart from it
    ds = Dataset.from_rows([{"x": 1.0, "who": "a", "v": 1.0}],
                           {"x": "numeric", "who": "metadata", "v": "numeric"})
    path = tmp_path / "v.csv"
    ds.to_csv(path)
    path.write_text(path.read_text() + row + "\r\n")
    with pytest.raises(DataError, match="data row 2 has"):
        Dataset.from_csv(path)


def test_csv_missing_table_is_data_error(tmp_path):
    _, path = _one_column([1.0], tmp_path)
    path.unlink()                     # its schema is still there
    with pytest.raises(DataError, match="v.csv"):
        Dataset.from_csv(path)


def test_csv_zero_rows_round_trip(tmp_path):
    kinds = {"v": "numeric", "who": "metadata", "label": "label"}
    ds = Dataset.from_rows([], kinds)
    path = tmp_path / "empty.csv"
    ds.to_csv(path, config_hash="h")
    back = Dataset.from_csv(path)
    assert back.names == ds.names and back.kinds == kinds
    assert len(back) == 0 and back.row_ids.dtype == np.int64
    assert back.data["v"].dtype == np.float64 and back.data["v"].shape == (0,)
    assert back.data["who"].dtype == object and back.data["who"].shape == (0,)


@pytest.fixture
def parses(monkeypatch):
    """The names of the tables Dataset.from_csv has parsed."""
    calls = []
    parse = dataset._parse_csv
    monkeypatch.setattr(dataset, "_parse_csv",
                        lambda *a: calls.append(a[0]) or parse(*a))
    return calls


def test_csv_memo_hit_is_an_independent_copy(tmp_path, parses):
    ds = _toy()
    ds.provenance = {"origin": "unit-test"}
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    first = Dataset.from_csv(path)
    first.data["x"][0] = 99.0
    first.data["who"][0] = "changed"
    first.row_ids[0] = 7
    first.drop_columns(["y"])
    first.kinds["proto"] = "metadata"
    first.provenance["origin"] = "changed"
    first.set_partitions({7: "train", 1: "test", 2: "train"})
    second = Dataset.from_csv(path)
    assert parses == []               # both served from the write
    assert second is not first
    assert second.names == ds.names and second.kinds == ds.kinds
    np.testing.assert_array_equal(second.data["x"], [1.5, 2.0, 0.5])
    np.testing.assert_array_equal(ds.data["x"], [1.5, 2.0, 0.5])
    assert list(second.data["who"]) == ["a", "b", "c"]
    assert list(second.row_ids) == [0, 1, 2]
    assert second.provenance == {"origin": "unit-test"}
    assert second.partitions is None
    # the written table shares its arrays with the memo, read-only
    with pytest.raises(ValueError, match="read-only"):
        ds.data["x"][0] = 3.0
    with pytest.raises(ValueError, match="read-only"):
        ds.data["who"][0] = "z"
    with pytest.raises(ValueError, match="read-only"):
        ds.row_ids[0] = 5
    assert Dataset.from_csv(path).data["x"].tolist() == [1.5, 2.0, 0.5]
    # bytes this process did not write are parsed, once
    (tmp_path / "other.csv").write_bytes(path.read_bytes())
    (tmp_path / "other.csv.schema.json").write_bytes(
        path.with_suffix(".csv.schema.json").read_bytes())
    third = Dataset.from_csv(tmp_path / "other.csv")
    third.data["x"][1] = -1.0
    fourth = Dataset.from_csv(tmp_path / "other.csv")
    assert parses == ["other.csv"]
    assert fourth.data["x"].tolist() == [1.5, 2.0, 0.5]


def test_csv_rewritten_at_same_path_is_parsed_again(tmp_path, parses):
    path = tmp_path / "ds.csv"
    _toy().to_csv(path)
    Dataset.from_csv(path)
    Dataset.from_csv(path)
    assert parses == []
    changed = _toy()
    changed.data["x"][1] = -4.0
    changed.to_csv(path)              # same schema, other cells
    assert Dataset.from_csv(path).data["x"].tolist() == [1.5, -4.0, 0.5]
    assert parses == []               # served from that write
    schema = path.with_suffix(".csv.schema.json")
    schema.write_text(schema.read_text().replace('"categorical"',
                                                 '"metadata"'))
    assert Dataset.from_csv(path).kinds["proto"] == "metadata"
    assert len(parses) == 1
    path.write_text(path.read_text().replace("-4", "-5"))
    assert Dataset.from_csv(path).data["x"].tolist() == [1.5, -5.0, 0.5]
    assert len(parses) == 2
    (tmp_path / "other.csv").write_bytes(path.read_bytes())
    (tmp_path / "other.csv.schema.json").write_bytes(schema.read_bytes())
    Dataset.from_csv(tmp_path / "other.csv")     # same bytes, other path
    assert len(parses) == 3


def test_csv_table_the_parse_would_not_give_is_parsed(tmp_path, parses):
    # a cell longer than csv.reader's field limit fails the parse, and a
    # short column is cut to its length in the file: neither is remembered
    path = tmp_path / "ds.csv"
    ds = _toy()
    ds.data["who"] = np.array(["a", "b" * 11, "c"], dtype=object)
    old_limit = csv.field_size_limit(10)
    try:
        ds.to_csv(path)
        with pytest.raises(DataError, match="field larger"):
            Dataset.from_csv(path)
    finally:
        csv.field_size_limit(old_limit)
    ds = _toy()
    ds.data["x"] = ds.data["x"][:2]
    ds.to_csv(path)
    assert len(Dataset.from_csv(path)) == 2
    assert parses == ["ds.csv", "ds.csv"]


@pytest.mark.parametrize("schema", [
    "{not json", '{"columns": 5}', '{"columns": [{"name": "v"}]}',
    '{"columns": []}', '{"columns": [{"name": "v", "kind": "bogus"}]}'])
def test_csv_malformed_schema_is_data_error(tmp_path, schema):
    _, path = _one_column([1.0, 2.0], tmp_path)
    path.with_suffix(".csv.schema.json").write_text(schema)
    with pytest.raises(DataError, match="schema"):
        Dataset.from_csv(path)


@pytest.mark.parametrize("key, value", [
    ("provenance", 5), ("provenance", [1]), ("validity_links", None),
    ("validity_links", {"v": 1})])
def test_csv_written_malformed_schema_is_data_error(tmp_path, parses, key,
                                                    value):
    # the table to_csv held is not served where the parse fails
    ds = _toy()
    setattr(ds, key, value)
    ds.to_csv(tmp_path / "ds.csv")
    with pytest.raises(DataError, match="malformed schema"):
        Dataset.from_csv(tmp_path / "ds.csv")
    assert parses == ["ds.csv"]


# float64 cells the writer must format like the per-cell oracle: non-finite
# values, signed zero, the 1e15 integer cut-off, huge and subnormal values
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e15 - 1, 1e15,
           1e15 + 1, -1e15 + 1, -1e15, 1e300, -1e300, 5e-324, 2.5e-310,
           0.1, 1.5, -7.0, 2.0 ** 53, 12345678901234.0]
cell_values = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                        st.integers(-2 ** 60, 2 ** 60).map(float))


@st.composite
def integer_cells(draw, n):
    """n integral floats, as counts and ports are: their span is below, at
    or one past the bound of the writer's offset table, they may be
    negative or near 1e15, and -0.0 stands next to 0."""
    bound = dataset._SPAN_PER_ROW * n
    span = draw(st.sampled_from([bound, bound + 1]) | st.integers(0, bound))
    lo = draw(st.integers(-span - 2, 2)
              | st.integers(-10 ** 15 + 1, 10 ** 15 - 1 - span))
    values = draw(st.lists(st.integers(lo, lo + span), min_size=n,
                           max_size=n))
    if n >= 2:
        values[:2] = [lo, lo + span]
    values = draw(st.permutations(values))
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [-0.0 if v == 0 and flip else float(v)
            for v, flip in zip(values, flips)]


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 25))
    row_ids = draw(st.lists(st.integers(0, 10 ** 12), min_size=n,
                            max_size=n, unique=True))
    kinds, rows = {}, [{} for _ in range(n)]
    for j in range(draw(st.integers(1, 4))):
        # a small pool per column repeats values, as a flow table does
        pool = draw(st.lists(cell_values, min_size=1, max_size=6))
        col = draw(integer_cells(n)
                   | st.lists(st.sampled_from(pool) | cell_values,
                              min_size=n, max_size=n))
        kinds[f"c{j}"] = "numeric"
        for row, v in zip(rows, col):
            row[f"c{j}"] = v
    # text that needs quoting (comma, quote, CR, LF) next to text that does
    # not, empty cells included; NEL, LINE SEPARATOR and FORM FEED are left
    # unquoted, and str.splitlines would break a line at each
    kinds["who"], kinds["tag"] = "metadata", "categorical"
    for row in rows:
        row["who"] = draw(st.text(alphabet='ab,"# 0\r\n\x85\u2028\x0c',
                                  max_size=4))
        row["tag"] = draw(st.text(alphabet="xy\n", max_size=2))
    ds = Dataset.from_rows(rows, kinds)
    ds.row_ids = np.asarray(row_ids, dtype=np.int64)
    return ds


@settings(max_examples=200, deadline=None)
@given(ds=datasets())
def test_csv_matches_per_cell_oracle(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds.to_csv(path)
    assert path.read_bytes() == dataset_csv_oracle(ds)


# the writer gathers and joins _BLOCK_ROWS rows at a time: blocks of 1 and
# 3 rows cut the drawn tables at every row and mid-table
@pytest.mark.parametrize("block", [1, 3])
@settings(max_examples=100, deadline=None)
@given(ds=datasets())
def test_csv_in_small_blocks_matches_per_cell_oracle(tmp_path_factory,
                                                     block, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    with mock.patch.object(dataset, "_BLOCK_ROWS", block):
        ds.to_csv(path)
    assert path.read_bytes() == dataset_csv_oracle(ds)


def test_csv_longer_than_a_block_matches_per_cell_oracle(tmp_path):
    # two and a half blocks: offset-table, np.unique and text columns
    n = 2 * dataset._BLOCK_ROWS + dataset._BLOCK_ROWS // 2
    rng = np.random.default_rng(8)
    rows = [{"count": float(c), "rate": r, "who": w}
            for c, r, w in zip(rng.integers(0, 50, n).tolist(),
                               rng.choice([0.5, math.nan, 1e300, -0.0,
                                           2.0 ** 60], n).tolist(),
                               rng.choice(["a", "b,c", 'd"', ""], n).tolist())]
    ds = Dataset.from_rows(rows, {"count": "numeric", "rate": "numeric",
                                  "who": "metadata"})
    ds.to_csv(tmp_path / "ds.csv")
    assert (tmp_path / "ds.csv").read_bytes() == dataset_csv_oracle(ds)


@pytest.mark.parametrize("distinct, width", [(1 << 16, np.uint16),
                                              ((1 << 16) + 1, np.int32)])
@pytest.mark.parametrize("offset", [True, False], ids=["offset", "unique"])
def test_csv_index_width(tmp_path, distinct, width, offset):
    # integers take the offset table, halves np.unique; a row of its own
    # for every distinct cell, shuffled, and one cell repeated
    values = np.arange(distinct) - 300.0 + (0.0 if offset else 0.5)
    values = np.random.default_rng(9).permutation(np.r_[values, values[:1]])
    cells, index = dataset._column_cells(values, "numeric")
    assert len(cells) == distinct and index.dtype == width
    ds = Dataset(names=["v"], kinds={"v": "numeric"}, data={"v": values},
                 row_ids=np.arange(len(values), dtype=np.int64))
    ds.to_csv(tmp_path / "ds.csv")
    assert (tmp_path / "ds.csv").read_bytes() == dataset_csv_oracle(ds)


@settings(max_examples=200, deadline=None)
@given(ds=datasets())
def test_csv_round_trip_exact(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds.to_csv(path, config_hash="h")
    back = Dataset.from_csv(path)
    assert back.names == ds.names
    np.testing.assert_array_equal(back.row_ids, ds.row_ids)
    for n in ds.names:
        # NaN equals NaN here; -0.0 comes back as 0.0, equal under ==
        np.testing.assert_array_equal(back.data[n], ds.data[n])


# NaNs whose sign or payload bits differ from np.nan's, and values near the
# integer cut-off of the writer and near 2**53
ODD_FLOATS = [np.uint64(b).view(np.float64).item() for b in (
    0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8000000000123,
    0xFFFFFFFFFFFFFFFF)] + [2.0 ** 53 - 1, 2.0 ** 53 + 2, -(2.0 ** 53),
                            1e15 - 0.5, 2.2250738585072014e-308]


@st.composite
def numeric_columns(draw, n):
    dtype = draw(st.sampled_from(["float64", "float32", "int64", "object",
                                  "integer_cells"]))
    if dtype == "integer_cells":
        return np.asarray(draw(integer_cells(n)), dtype=np.float64)
    if dtype == "float32":
        cells = st.floats(width=32)
    elif dtype == "int64":
        cells = st.integers(-2 ** 63, 2 ** 63 - 1)
    else:
        cells = st.sampled_from(SPECIAL + ODD_FLOATS) | cell_values
        if dtype == "object":
            cells = cells | st.integers(-2 ** 60, 2 ** 60) | st.booleans()
    values = draw(st.lists(cells, min_size=n, max_size=n))
    col = np.empty(n, dtype=dtype)
    col[:] = values
    return col


# text that needs quoting, text that str.splitlines would break, empty
# cells, and cells that are not str: the writer writes str() of each
text_cells = (st.text(alphabet='ab,"# \r\n\x85\u2028\x0c\x00é', max_size=5)
              | st.integers() | st.floats() | st.none() | st.booleans()
              | st.binary(max_size=2) | st.tuples(st.integers()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=False),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)


@st.composite
def written_tables(draw):
    n = draw(st.integers(0, 8))
    names = draw(st.lists(st.text(alphabet='ab,"\r\n \x85', max_size=3),
                          max_size=4, unique=True))
    kinds = {name: draw(st.sampled_from(dataset.KINDS)) for name in names}
    data = {}
    for name in names:
        if kinds[name] == "numeric":
            data[name] = draw(numeric_columns(n))
        else:
            data[name] = np.empty(n, dtype=object)
            data[name][:] = draw(st.lists(text_cells, min_size=n,
                                          max_size=n))
    row_ids = np.asarray(draw(st.lists(
        st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
        dtype=np.int64)
    links = draw(st.dictionaries(st.sampled_from(names or ["x"]),
                                 st.text(max_size=3), max_size=2))
    provenance = draw(st.dictionaries(st.text(max_size=3), json_values,
                                      max_size=3))
    config_hash = draw(st.none() | st.text(alphabet="0123456789abcdef#,",
                                           min_size=1, max_size=8))
    return (Dataset(names=names, kinds=kinds, data=data, row_ids=row_ids,
                    validity_links=links, provenance=provenance),
            config_hash)


@settings(max_examples=300, deadline=None)
@given(drawn=written_tables())
def test_csv_table_remembered_at_write_is_the_parse(tmp_path_factory,
                                                    drawn):
    ds, config_hash = drawn
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds.to_csv(path, config_hash=config_hash)
    raw = path.read_bytes()
    schema_raw = path.with_suffix(".csv.schema.json").read_bytes()
    parsed = dataset._parse_csv(path.name, raw, schema_raw)
    # the first from_csv reads the table back from what to_csv held
    with mock.patch.object(dataset, "_parse_csv", side_effect=AssertionError):
        Dataset.from_csv(path)
    key, held = dataset._last_read
    assert key == (path.resolve(), hashlib.sha256(raw).digest(),
                   hashlib.sha256(schema_raw).digest())
    assert held.names == parsed.names
    assert list(held.kinds.items()) == list(parsed.kinds.items())
    assert held.validity_links == parsed.validity_links
    assert held.provenance == parsed.provenance
    assert held.partitions is None and parsed.partitions is None
    assert held.row_ids.dtype == parsed.row_ids.dtype == np.int64
    assert held.row_ids.tobytes() == parsed.row_ids.tobytes()
    for name in ds.names:
        a, b = held.data[name], parsed.data[name]
        assert a.dtype == b.dtype and a.shape == b.shape
        if ds.kinds[name] == "numeric":
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()
        else:
            assert [type(v) for v in a] == [type(v) for v in b]
            assert a.tolist() == b.tolist()
