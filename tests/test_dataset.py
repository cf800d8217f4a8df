import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab.dataset import Dataset, rows_fingerprint
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


@pytest.mark.parametrize("cell", ["", "abc", "1,5"])
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


@pytest.mark.parametrize("schema", [
    "{not json", '{"columns": 5}', '{"columns": [{"name": "v"}]}',
    '{"columns": []}', '{"columns": [{"name": "v", "kind": "bogus"}]}'])
def test_csv_malformed_schema_is_data_error(tmp_path, schema):
    _, path = _one_column([1.0, 2.0], tmp_path)
    path.with_suffix(".csv.schema.json").write_text(schema)
    with pytest.raises(DataError, match="schema"):
        Dataset.from_csv(path)


# float64 cells the writer must format like the per-cell oracle: non-finite
# values, signed zero, the 1e15 integer cut-off, huge and subnormal values
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e15 - 1, 1e15,
           1e15 + 1, -1e15 + 1, -1e15, 1e300, -1e300, 5e-324, 2.5e-310,
           0.1, 1.5, -7.0, 2.0 ** 53, 12345678901234.0]
cell_values = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                        st.integers(-2 ** 60, 2 ** 60).map(float))


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 25))
    row_ids = draw(st.lists(st.integers(0, 10 ** 12), min_size=n,
                            max_size=n, unique=True))
    kinds, rows = {}, [{} for _ in range(n)]
    for j in range(draw(st.integers(1, 4))):
        # a small pool per column repeats values, as a flow table does
        pool = draw(st.lists(cell_values, min_size=1, max_size=6))
        col = draw(st.lists(st.sampled_from(pool) | cell_values,
                            min_size=n, max_size=n))
        kinds[f"c{j}"] = "numeric"
        for row, v in zip(rows, col):
            row[f"c{j}"] = v
    kinds["who"] = "metadata"
    for row in rows:
        row["who"] = draw(st.text(alphabet='ab,"# 0', max_size=4))
    ds = Dataset.from_rows(rows, kinds)
    ds.row_ids = np.asarray(row_ids, dtype=np.int64)
    return ds


@settings(max_examples=200, deadline=None)
@given(ds=datasets())
def test_csv_matches_per_cell_oracle(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds.to_csv(path)
    assert path.read_bytes() == dataset_csv_oracle(ds)


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
