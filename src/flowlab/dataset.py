"""Column-typed dataset container with CSV + sidecar-schema persistence.

Columns are numeric (float64), categorical (strings), metadata (strings,
never model features) or label. Every row carries a stable integer row id
assigned at creation and preserved through subsetting, so split assignments
and leakage fingerprints survive cleaning and transformation.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import operator
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import read_digests, written_digests
from .errors import ConfigError, DataError, ShapeError, check

KINDS = ("numeric", "categorical", "metadata", "label")
UNKNOWN_LABEL = "UNKNOWN"
_QUOTE_CHARS = ',"\r\n'
_NEEDS_QUOTES = re.compile(f"[{_QUOTE_CHARS}]")
_SPAN_PER_ROW = 4       # widest integer column an offset table serves
# CSV rows gathered into cells and joined at once: a block of the 132-column
# meter table holds ~2.4 MB of cells, lists and text (4.6 MB at 1,024 rows)
_BLOCK_ROWS = 512


def _quoted(cell: str) -> str:
    """A text cell as csv's QUOTE_MINIMAL writes it."""
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column_cells(values, kind: str) -> tuple:
    """CSV cells of one column: one cell per row and None, its distinct
    cells and the index of each row's cell among them, as _narrow gives it,
    or None and its float64 values, which _csv_lines formats a block of rows
    at a time.

    A numeric cell is an integral value below 1e15 in magnitude as an
    integer (so -0.0 is "0"), any other value by repr ("nan", "inf",
    "1e+300"); no such cell needs quoting. A column of at most _BLOCK_ROWS
    rows is left to _csv_lines as it is. In a longer one, integers spanning
    at most _SPAN_PER_ROW per row are indexed by value - min in a table of
    that span, and any other values are left to _csv_lines. A text column
    holds exact str cells, quoted as csv's QUOTE_MINIMAL quotes a comma, a
    quote or a line break.
    """
    if kind != "numeric":
        text = list(values)
        joined = "".join(text)
        # a cell needs quoting for one character, so the joined column
        # holds one of them if any cell does
        if any(c in joined for c in _QUOTE_CHARS):
            text = list(map(_quoted, text))
        return text, None
    col = np.asarray(values, dtype=np.float64)
    if len(col) <= _BLOCK_ROWS:
        return None, col
    lo, hi = col.min(), col.max()
    # a NaN anywhere makes lo and hi NaN, which fails every comparison
    if -1e15 < lo and hi < 1e15 and hi - lo <= _SPAN_PER_ROW * len(col):
        ints = col.astype(np.int64)
        if (ints == col).all():
            offset = ints - int(lo)
            present = np.zeros(int(hi - lo) + 1, dtype=bool)
            present[offset] = True
            table = np.empty(len(present), dtype=object)
            table[present] = list(map(
                str, (np.flatnonzero(present) + int(lo)).tolist()))
            return table, _narrow(offset, len(table))
    return None, col


def _number_text(uniq: np.ndarray) -> np.ndarray:
    """The cells of float64 values, formatted as _column_cells says."""
    integral = np.abs(uniq) < 1e15      # so no NaN reaches the trunc
    integral[integral] = uniq[integral] == np.trunc(uniq[integral])
    text = np.empty(len(uniq), dtype=object)
    text[integral] = list(map(str, uniq[integral].astype(np.int64).tolist()))
    text[~integral] = list(map(repr, uniq[~integral].tolist()))
    return text


def _remembered_text(uniq: np.ndarray) -> np.ndarray:
    """_number_text of uniq, sorted distinct values, where values the last
    call held take their cells from it."""
    global _last_cells
    seen, seen_text = _last_cells
    text = np.empty(len(uniq), dtype=object)
    miss = np.ones(len(uniq), dtype=bool)
    if len(seen):
        # a cell depends on its value alone; NaN equals nothing, so a NaN
        # is formatted again
        at = np.minimum(np.searchsorted(seen, uniq), len(seen) - 1)
        miss = seen[at] != uniq
        text[~miss] = seen_text[at[~miss]]
    text[miss] = _number_text(uniq[miss])
    _last_cells = (uniq, text)
    return text


def _narrow(index: np.ndarray, size: int) -> np.ndarray:
    """index into size cells, as uint16 or int32 where size allows: a
    quarter or half the memory of the int64 index, or of a per-row list
    of the cells."""
    if size <= 1 << 16:
        return index.astype(np.uint16)
    return index.astype(np.int32) if size < 1 << 31 else index


def _csv_lines(columns: list) -> Iterator[str]:
    """The CSV lines of columns, pairs as _column_cells gives them,
    _BLOCK_ROWS lines per str. A block's cells are gathered just before it
    is joined, so no column's per-row cells exist all at once; the cells of
    the columns given as values are made then, from one np.unique and one
    _number_text of all their values in the block, so at most one block of
    them exists at a time. A table of one block takes the cells of values
    the last such table held from it. Rows stop at the shortest column, as
    zip stops.
    """
    rows = min(len(cells if index is None else index)
               for cells, index in columns)
    floats = [index for cells, index in columns if cells is None]
    one_block = rows <= _BLOCK_ROWS
    for start in range(0, rows, _BLOCK_ROWS):
        at = slice(start, min(start + _BLOCK_ROWS, rows))
        if floats:
            uniq, inverse = np.unique(np.concatenate([f[at] for f in floats]),
                                      return_inverse=True)
            text = (_remembered_text if one_block else _number_text)(uniq)
            made = iter(text[inverse].reshape(len(floats), -1).tolist())
        block = [cells[at] if index is None else next(made) if cells is None
                 else cells[index[at]].tolist() for cells, index in columns]
        yield "\r\n".join([*map(",".join, zip(*block)), ""])


def _number(cell: str) -> float:
    """float(cell) under np.loadtxt's grammar, which is stricter: no "_"
    separators and no non-ASCII digits."""
    stripped = cell.strip()
    if "_" in stripped or not stripped.isascii():
        raise ValueError(f"not a number: {cell!r}")
    return float(cell)


def class_codes(values) -> tuple[list[str], np.ndarray]:
    """The sorted distinct str values, and each value's index among them
    (int64): the one encoding of classes, vocabularies and groups."""
    text = list(map(str, values))
    classes = sorted(set(text))
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.fromiter(map(index.__getitem__, text), np.int64,
                                len(text))


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
    """Columns of one table by name and kind, with a stable id per row."""

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
        names = list(rows[0].keys()) if rows else list(kinds)
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

    def __iter__(self):
        """One tuple per row, its cells in ``names`` order."""
        return zip(*(self.data[n].tolist() for n in self.names))

    # -- views -------------------------------------------------------------

    def copy(self) -> "Dataset":
        return self.subset(None)

    def subset(self, mask_or_indices) -> "Dataset":
        """The rows mask_or_indices selects, every row if it is None; each
        column is a copy."""
        take = (np.ndarray.copy if mask_or_indices is None
                else operator.itemgetter(np.asarray(mask_or_indices)))
        return Dataset(names=list(self.names), kinds=dict(self.kinds),
                       data={n: take(self.data[n]) for n in self.names},
                       row_ids=take(self.row_ids),
                       partitions=None if self.partitions is None
                       else take(self.partitions),
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

    @classmethod
    def concat(cls, a: "Dataset", b: "Dataset") -> "Dataset":
        """The rows of a, then those of b, under a's schema."""
        if a.names != b.names:
            raise ConfigError("cannot concatenate datasets with different "
                              "columns")
        parts = None
        if a.partitions is not None and b.partitions is not None:
            parts = np.concatenate([a.partitions, b.partitions])
        return cls(names=list(a.names), kinds=dict(a.kinds),
                   data={n: np.concatenate([a.data[n], b.data[n]])
                         for n in a.names},
                   row_ids=np.concatenate([a.row_ids, b.row_ids]),
                   partitions=parts, validity_links=dict(a.validity_links),
                   provenance=dict(a.provenance))

    # -- accessors ----------------------------------------------------------

    @property
    def label_column(self) -> Optional[str]:
        return next((n for n in self.names if self.kinds[n] == "label"), None)

    def labels(self) -> np.ndarray:
        col = self.label_column
        if col is None:
            raise DataError("dataset has no column of kind 'label'")
        return self.data[col]

    def numbers(self, name: str, integral: bool = False) -> np.ndarray:
        """Column name as float64: a numeric column as it is, a text one
        parsed cell by cell. A cell that is not a number, or with integral
        not a whole number, is a DataError naming the column and the row."""
        where, col = f"column {name!r}", self.data[name]
        if self.kinds[name] != "numeric":
            col = _parse_cells(list(map(str, col)), _number, np.float64,
                               where, self.row_ids)
        if integral:
            bad = np.flatnonzero(~np.isfinite(col) | (col != np.trunc(col)))
            if len(bad):
                raise DataError(f"{where}, row_id {self.row_ids[bad[0]]}: "
                                f"not an integer: {col[bad[0]].item()!r}")
        return col

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
                raise DataError(
                    f"row_id {rid} missing from the split assignment")
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
        """Write the table to path as CSV, and its schema beside it.

        The bytes of both files are hashed as they are written, and the
        row ids and the columns, as str cells for text, are remembered made
        read-only under the key `from_csv` looks up: an in-place write to
        the table after to_csv raises instead of leaving the memo stale.
        The first `from_csv` of the file in this process reads the table
        back from them (`_read_back`); a process that never reads it does
        no more.
        """
        global _last_read
        _last_read = (None, None)
        path = Path(path)
        data = {n: self.data[n] if self.kinds[n] == "numeric"
                else _str_column(self.data[n]) for n in self.names}
        # the rows _csv_lines writes: the parse takes no file cut short
        n_rows = min(map(len, (self.row_ids, *data.values())))
        schema_text = json.dumps({
            "columns": [{"name": n, "kind": self.kinds[n]} for n in self.names],
            "validity_links": self.validity_links,
            "provenance": self.provenance,
            "rows": n_rows,
        }, indent=2, sort_keys=True) + "\n"
        header = io.StringIO()
        if config_hash:
            header.write(f"# config_hash: {config_hash}\n")
        csv.writer(header).writerow(["row_id"] + self.names)
        columns = [(list(map(str, self.row_ids.tolist())), None)]
        columns += [_column_cells(data[n], self.kinds[n]) for n in self.names]
        digest = write_text(path, itertools.chain(
            [header.getvalue()], _csv_lines(columns)), newline="")
        schema_path = path.with_suffix(path.suffix + ".schema.json")
        schema_digest = write_text(schema_path, [schema_text])
        rows = (len(self.row_ids),)
        # the parse gives back no ids of another dtype, no name but a str,
        # no column the writer's zip cut short, no line-breaking hash
        if (self.row_ids.dtype == np.int64 and self.row_ids.shape == rows
                and set(map(type, self.names)) <= {str}
                and {self.kinds[n] for n in self.names} <= set(KINDS)
                and all(col.shape == rows for col in data.values())
                and not (config_hash and _LINE_BREAK.search(config_hash))):
            for col in (self.row_ids, *data.values()):
                col.flags.writeable = False
            _last_read = ((path.resolve(), digest, schema_digest),
                          (list(self.names), data, self.row_ids, schema_text))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """The table `to_csv` wrote at path, with its sidecar schema.

        The last table parsed or written stays in a per-process memo keyed
        by the resolved path and the SHA-256 of the CSV's and the schema's
        bytes: a file this process wrote is not parsed at all, and one it
        did not write is parsed once however many stages read it. A file
        edited, cut short or rewritten elsewhere misses the memo and is
        parsed. Every call returns a copy of its own: stages change the
        table they are given.
        """
        global _last_read
        path = Path(path)
        schema_path = path.with_suffix(path.suffix + ".schema.json")
        if not schema_path.exists():
            raise DataError(f"{path.name}: missing sidecar schema "
                            f"{schema_path.name}")
        (raw, digest), (schema_raw, schema_digest) = map(
            _read_bytes, (path, schema_path))
        key = (path.resolve(), digest, schema_digest)
        held = _last_read[1] if _last_read[0] == key else None
        if isinstance(held, tuple):       # written here, not yet read
            held = _read_back(*held)
        if held is None:
            _last_read = (None, None)     # at most one table held at once
            held = _parse_csv(path.name, raw, schema_raw)
        _last_read = (key, held)
        return held.copy()


# the last table Dataset.from_csv parsed or read back, (key, Dataset), or
# the last one Dataset.to_csv wrote, (key, _read_back's arguments)
_last_read: tuple = (None, None)
# the sorted distinct values of the last table of one block of rows that
# _csv_lines wrote (_remembered_text), and their cells
_last_cells: tuple = (np.empty(0), np.empty(0, dtype=object))

_LINE_BREAK = re.compile("[\r\n]")
_NEG_ZERO = np.uint64(1 << 63)
_NAN_BITS = np.float64(np.nan).view(np.uint64)


def _read_back(names: list, data: dict, row_ids: np.ndarray,
               schema_text: str) -> Optional[Dataset]:
    """The Dataset `_parse_csv` gives for what Dataset.to_csv wrote of the
    columns data in names order, with row_ids and the schema document
    schema_text; None where that parse would fail."""
    try:
        kinds, links, provenance, _ = _schema_fields(schema_text)
    except TypeError:
        return None
    # csv.reader rejects a field longer than csv.field_size_limit()
    text = itertools.chain(names, *(data[n] for n in names
                                    if kinds[n] != "numeric"))
    if max(map(len, text), default=0) > csv.field_size_limit():
        return None
    # every numeric column at once, as the parse reads its cells back: -0.0
    # as 0.0, each NaN as np.nan. A float64 column holding neither is kept.
    numeric = [n for n in names if kinds[n] == "numeric"]
    block = np.array([data[n] for n in numeric], dtype=np.float64).reshape(
        len(numeric), len(row_ids))
    bits = block.view(np.uint64)
    odd = (bits == _NEG_ZERO) | (block != block) & (bits != _NAN_BITS)
    block[odd] = np.where(np.isnan(block[odd]), np.nan, 0.0)
    data = dict(data)
    for n, col, changed in zip(numeric, block, odd.any(axis=1)):
        if changed or data[n].dtype != np.float64:
            data[n] = col
    return Dataset(names=list(names), kinds=kinds, data=data,
                   row_ids=row_ids, validity_links=links,
                   provenance=provenance)


def _schema_fields(text) -> tuple[dict, dict, dict, int]:
    """The kind of each column, validity_links, provenance and data-row
    count of the schema in text; ValueError, KeyError or TypeError where
    it is malformed."""
    schema = json.loads(text)
    check(schema, {"columns": (list, dict), "validity_links": (dict, str),
                   "provenance": dict, "rows": int}, "schema", TypeError)
    kinds = {c["name"]: c["kind"] for c in schema["columns"]}
    return kinds, schema["validity_links"], schema["provenance"], \
        schema["rows"]


def _str_column(col: np.ndarray) -> np.ndarray:
    """The str cells to_csv writes for text column col: col if it holds
    only exact str."""
    if set(map(type, col)) <= {str}:
        return col
    return np.asarray(list(map(str, col)), dtype=object)


def write_text(path, lines: Iterable[str], newline=None) -> bytes:
    """Write lines to path as open(path, "w", newline=newline) writes them,
    whole or not at all: to ".<name>.part" beside path, renamed over path
    once complete, removed if the write raises. Every artifact is written
    here. The SHA-256 of the bytes, hashed as they go to the file; its hex
    goes to written_digests."""
    path = Path(path)
    part = path.with_name(f".{path.name}.part")
    try:
        with _HashedFile(part) as raw, io.TextIOWrapper(
                io.BufferedWriter(raw), newline=newline) as f:
            f.writelines(lines)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    written_digests[path] = raw.sha256.hexdigest()
    return raw.sha256.digest()


def write_json(path, doc) -> None:
    """Write doc as JSON: sorted keys, two-space indent, closing newline."""
    write_text(path, [json.dumps(doc, indent=2, sort_keys=True), "\n"])


def write_csv(path, rows: Iterable[Sequence], lineterminator="\r\n") -> None:
    """Write rows to path as csv.writer writes them."""
    text = io.StringIO()
    csv.writer(text, lineterminator=lineterminator).writerows(rows)
    write_text(path, [text.getvalue()], newline="")


def _read_bytes(path) -> tuple[bytes, bytes]:
    """The bytes of the file at path and their SHA-256, whose hex goes to
    read_digests; a DataError naming the file if it cannot be read."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path.name}: {e}") from None
    sha256 = hashlib.sha256(raw)
    read_digests[path] = sha256.hexdigest()
    return raw, sha256.digest()


def _decoded(name: str, raw: bytes) -> str:
    """raw decoded as open(path, newline="") decodes a file's bytes; a
    DataError naming the file called name if they do not decode."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), newline="").read()
    except UnicodeDecodeError as e:
        raise DataError(f"{name}: {e}") from None


def read_text(path) -> str:
    """The text of the file at path, read as open(path, newline="") reads
    it; a DataError naming the file if it cannot be read or decoded."""
    return _decoded(Path(path).name, _read_bytes(path)[0])


def read_csv(path) -> list[list[str]]:
    """The rows of the CSV file at path, as csv.reader reads them; a
    DataError naming the file if it cannot be read or parsed."""
    try:
        return list(csv.reader(io.StringIO(read_text(path), newline="")))
    except csv.Error as e:
        raise DataError(f"{Path(path).name}: {e}") from None


class _HashedFile(io.FileIO):
    """A file open for writing that hashes the bytes written to it."""

    def __init__(self, path):
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()

    def write(self, b) -> int:
        n = super().write(b)
        self.sha256.update(memoryview(b)[:n])
        return n


def _parse_csv(name: str, raw: bytes, schema_raw: bytes) -> Dataset:
    """The Dataset in the bytes of a CSV file called name and of its schema.

    Numeric columns are parsed in one np.loadtxt pass; row ids, text
    columns and the cell count of each row come from the csv module, which
    reads quoted commas and line breaks exactly as the writer wrote them.
    """
    try:
        kinds, links, provenance, n_rows = _schema_fields(schema_raw)
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{name}.schema.json: malformed schema: "
                        f"{type(e).__name__}: {e}") from None
    text = _decoded(name, raw)
    # never str.splitlines: it also breaks lines on characters such as
    # "\x85" and "\u2028", which the writer leaves unquoted in text cells
    buf = io.StringIO(text, newline="")
    if not buf.readline().startswith("#"):
        buf.seek(0)
    reader = csv.reader(buf)
    try:
        header = next(reader, None)
        body = buf.tell()
        rows = list(reader)
    except csv.Error as e:    # e.g. a stray '"' that swallows the file
        raise DataError(f"{name}: {e}") from None
    if not header or header[0] != "row_id":
        raise DataError(f"{name}: header must start with a row_id column")
    names = header[1:]
    unknown = [n for n in names if kinds.get(n) not in KINDS]
    if unknown:
        raise DataError(f"{name}: no valid kind in the schema for "
                        f"column(s) {', '.join(unknown)}")
    for i, r in enumerate(rows, start=1):
        if len(r) != len(header):
            raise DataError(f"{name}: data row {i} has {len(r)} "
                            f"cells, the header {len(header)}")
    if len(rows) != n_rows:
        raise DataError(f"{name}: {len(rows)} data rows, the schema {n_rows}")
    raw_ids = [r[0] for r in rows]
    row_ids = _parse_cells(raw_ids, int, np.int64,
                           f"{name} column 'row_id'", raw_ids)
    numeric = [j for j, n in enumerate(names, start=1)
               if kinds[n] == "numeric"]
    block = None
    if numeric and rows:
        buf.seek(body)
        try:
            block = np.loadtxt(buf, delimiter=",", usecols=numeric,
                               quotechar='"', comments=None, ndmin=2)
        except ValueError:
            pass
    if block is not None and block.shape == (len(rows), len(numeric)):
        block = np.ascontiguousarray(block.T)
    else:
        # the per-cell scan names the first bad cell's column and row
        block = [_parse_cells([r[j] for r in rows], _number, np.float64,
                              f"{name} column {names[j - 1]!r}", raw_ids)
                 for j in numeric]
    columns = dict(zip((names[j - 1] for j in numeric), block))
    data = {n: columns[n] if n in columns
            else np.asarray([r[j] for r in rows], dtype=object)
            for j, n in enumerate(names, start=1)}
    return Dataset(names=names, kinds=kinds, data=data, row_ids=row_ids,
                   validity_links=links, provenance=provenance)


def rows_fingerprint(row_ids: Iterable[int]) -> str:
    ids = ",".join(str(i) for i in sorted(int(r) for r in row_ids))
    return hashlib.sha256(ids.encode()).hexdigest()
