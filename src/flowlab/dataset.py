"""Column-typed dataset container with CSV + sidecar-schema persistence.

Columns are numeric (float64), categorical (strings), metadata (strings,
never model features) or label. Every row carries a stable integer row id
assigned at creation and preserved through subsetting, so split assignments
and leakage fingerprints survive cleaning and transformation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError

KINDS = ("numeric", "categorical", "metadata", "label")
UNKNOWN_LABEL = "UNKNOWN"


def _column_text(values, kind: str) -> list[str]:
    """CSV cells of one column.

    A numeric column formats each distinct value once and gathers the
    strings by the inverse index: integral values below 1e15 in magnitude
    as integers (so -0.0 is "0"), every other value by repr ("nan", "inf",
    "1e+300").
    """
    if kind != "numeric":
        return list(map(str, values))
    uniq, inverse = np.unique(np.asarray(values, dtype=np.float64),
                              return_inverse=True)
    integral = (np.abs(uniq) < 1e15) & (uniq == np.trunc(uniq))
    text = np.empty(len(uniq), dtype=object)
    text[integral] = list(map(str, uniq[integral].astype(np.int64).tolist()))
    text[~integral] = list(map(repr, uniq[~integral].tolist()))
    return text[inverse].tolist()


def _parse_cells(vals: list[str], parse, dtype, where: str,
                 row_ids) -> np.ndarray:
    """One column of CSV cells through parse; a cell it rejects is a
    DataError naming where the column is and the row."""
    try:
        return np.asarray(list(map(parse, vals)), dtype=dtype)
    except (ValueError, OverflowError) as e:
        for rid, v in zip(row_ids, vals):
            try:
                parse(v)
            except ValueError:
                raise DataError(f"{where}, row_id {rid}: not a number: "
                                f"{v!r}") from None
        raise DataError(f"{where}: {e}") from None


@dataclass
class Dataset:
    names: list[str]
    kinds: dict[str, str]
    data: dict[str, np.ndarray]
    row_ids: np.ndarray
    partitions: Optional[np.ndarray] = None   # aligned tags or None
    validity_links: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[dict], kinds: dict[str, str],
                  validity_links: Optional[dict] = None,
                  provenance: Optional[dict] = None) -> "Dataset":
        if not rows:
            names = list(kinds)
        else:
            names = list(rows[0].keys())
        for n in names:
            if kinds.get(n) not in KINDS:
                raise ConfigError(f"column {n!r} has no valid kind")
        numeric = [n for n in names if kinds[n] == "numeric"]
        data = {}
        if numeric:
            # one tuple per row into one float64 block, transposed so that
            # each column is a contiguous row of it
            get = operator.itemgetter(*numeric)
            block = np.asarray(list(map(get, rows)), dtype=np.float64)
            block = np.ascontiguousarray(
                block.reshape(len(rows), len(numeric)).T)
            data = dict(zip(numeric, block))
        for n in names:
            if kinds[n] != "numeric":
                data[n] = np.asarray([str(r[n]) for r in rows], dtype=object)
        return cls(names=names, kinds=dict(kinds), data=data,
                   row_ids=np.arange(len(rows), dtype=np.int64),
                   validity_links=dict(validity_links or {}),
                   provenance=dict(provenance or {}))

    def __post_init__(self):
        n = len(self.row_ids)
        for name in self.names:
            if len(self.data[name]) != n:
                raise ShapeError(f"column {name!r} length mismatch")

    def __len__(self) -> int:
        return len(self.row_ids)

    # -- views -------------------------------------------------------------

    def copy(self) -> "Dataset":
        return Dataset(names=list(self.names), kinds=dict(self.kinds),
                       data={n: self.data[n].copy() for n in self.names},
                       row_ids=self.row_ids.copy(),
                       partitions=None if self.partitions is None
                       else self.partitions.copy(),
                       validity_links=dict(self.validity_links),
                       provenance=dict(self.provenance))

    def subset(self, mask_or_indices) -> "Dataset":
        idx = np.asarray(mask_or_indices)
        return Dataset(names=list(self.names), kinds=dict(self.kinds),
                       data={n: self.data[n][idx] for n in self.names},
                       row_ids=self.row_ids[idx],
                       partitions=None if self.partitions is None
                       else self.partitions[idx],
                       validity_links=dict(self.validity_links),
                       provenance=dict(self.provenance))

    def drop_columns(self, cols: Iterable[str]) -> None:
        drop = set(cols)
        if self.label_column in drop:
            raise ConfigError("refusing to drop the label column")
        self.names = [n for n in self.names if n not in drop]
        for c in drop:
            self.data.pop(c, None)
            self.kinds.pop(c, None)
            self.validity_links.pop(c, None)

    def add_column(self, name: str, kind: str, values) -> None:
        if name in self.data:
            raise ConfigError(f"column {name!r} already exists")
        if kind == "numeric":
            arr = np.asarray(values, dtype=np.float64)
        else:
            arr = np.asarray([str(v) for v in values], dtype=object)
        if len(arr) != len(self):
            raise ShapeError(f"column {name!r} length mismatch")
        self.names.append(name)
        self.kinds[name] = kind
        self.data[name] = arr

    # -- accessors ----------------------------------------------------------

    @property
    def label_column(self) -> Optional[str]:
        for n in self.names:
            if self.kinds[n] == "label":
                return n
        return None

    def labels(self) -> np.ndarray:
        col = self.label_column
        if col is None:
            raise ConfigError("dataset has no label column")
        return self.data[col]

    def feature_names(self, kinds: tuple = ("numeric", "categorical")) -> list[str]:
        return [n for n in self.names if self.kinds[n] in kinds]

    def numeric_feature_names(self) -> list[str]:
        return [n for n in self.names if self.kinds[n] == "numeric"]

    def feature_matrix(self, columns: Optional[Sequence[str]] = None
                       ) -> tuple[np.ndarray, list[str]]:
        """Numeric design matrix. Categorical features must be encoded first."""
        if columns is None:
            cats = [n for n in self.names if self.kinds[n] == "categorical"]
            if cats:
                raise ConfigError(
                    f"categorical columns not encoded: {', '.join(cats)}")
            columns = self.numeric_feature_names()
        cols = []
        for n in columns:
            if n not in self.data:
                raise ConfigError(f"unknown column {n!r}")
            if self.kinds[n] != "numeric":
                raise ConfigError(f"column {n!r} is not numeric")
            cols.append(self.data[n])
        if not cols:
            return np.empty((len(self), 0)), []
        return np.column_stack(cols), list(columns)

    def set_partitions(self, assignment: dict[int, str]) -> None:
        tags = []
        for rid in self.row_ids:
            tag = assignment.get(int(rid))
            if tag is None:
                raise ConfigError(f"row id {rid} missing from assignment")
            tags.append(tag)
        self.partitions = np.asarray(tags, dtype=object)

    def partition_subset(self, tag: str) -> "Dataset":
        if self.partitions is None:
            raise ConfigError("dataset carries no partition tags")
        return self.subset(self.partitions == tag)

    def fingerprint(self) -> str:
        """Hash of the row-id set; the unit of leakage accounting."""
        return rows_fingerprint(self.row_ids)

    # -- persistence ---------------------------------------------------------

    def to_csv(self, path, config_hash: Optional[str] = None) -> None:
        path = Path(path)
        with open(path, "w", newline="") as f:
            if config_hash:
                f.write(f"# config_hash: {config_hash}\n")
            w = csv.writer(f)
            w.writerow(["row_id"] + self.names)
            columns = [list(map(str, self.row_ids.tolist()))]
            columns += [_column_text(self.data[n], self.kinds[n])
                        for n in self.names]
            w.writerows(zip(*columns))
        schema = {
            "columns": [{"name": n, "kind": self.kinds[n]} for n in self.names],
            "validity_links": self.validity_links,
            "provenance": self.provenance,
        }
        with open(path.with_suffix(path.suffix + ".schema.json"), "w") as f:
            json.dump(schema, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        path = Path(path)
        schema_path = path.with_suffix(path.suffix + ".schema.json")
        if not schema_path.exists():
            raise ConfigError(f"missing sidecar schema {schema_path}")
        try:
            with open(schema_path) as f:
                schema = json.load(f)
            kinds = {c["name"]: c["kind"] for c in schema["columns"]}
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"{schema_path.name}: malformed schema: "
                            f"{type(e).__name__}: {e}") from None
        with open(path, newline="") as f:
            first = f.readline()
            if not first.startswith("#"):
                f.seek(0)
            reader = csv.reader(f)
            header = next(reader, None)
            rows = list(reader)
        if not header or header[0] != "row_id":
            raise ConfigError("dataset CSV must start with row_id column")
        names = header[1:]
        unknown = [n for n in names if kinds.get(n) not in KINDS]
        if unknown:
            raise DataError(f"{path.name}: no valid kind in the schema for "
                            f"column(s) {', '.join(unknown)}")
        for i, r in enumerate(rows, start=1):
            if len(r) != len(header):
                raise DataError(f"{path.name}: data row {i} has {len(r)} "
                                f"cells, the header {len(header)}")
        raw_ids = [r[0] for r in rows]
        row_ids = _parse_cells(raw_ids, int, np.int64,
                               f"{path.name} column 'row_id'", raw_ids)
        data = {}
        for j, n in enumerate(names, start=1):
            vals = [r[j] for r in rows]
            if kinds.get(n) == "numeric":
                data[n] = _parse_cells(vals, float, np.float64,
                                       f"{path.name} column {n!r}", raw_ids)
            else:
                data[n] = np.asarray(vals, dtype=object)
        ds = cls(names=names, kinds=kinds, data=data, row_ids=row_ids,
                 validity_links=schema.get("validity_links", {}),
                 provenance=schema.get("provenance", {}))
        return ds


def rows_fingerprint(row_ids: Iterable[int]) -> str:
    ids = ",".join(str(i) for i in sorted(int(r) for r in row_ids))
    return hashlib.sha256(ids.encode()).hexdigest()
