"""No damage to a file a stage reads lets an exception escape flowlab.

One tiny pipeline runs once; each example then damages one input file of
one stage and runs that stage alone, which must exit 0 or 2 (bad input),
or 1 only for a LeakageError: damaged lineage is leakage, and no damaged
input is a config error.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flowlab import cli, dataset, models
from flowlab.pcap import write_capture
from conftest import synth_capture


def _tables(*names):
    return [f for n in names for f in (n, n + ".schema.json")]


# the files each stage reads; "capture" is the pcap, the rest sit in the
# run directory
READS = {
    "meter": ["capture"],
    "diagnose": _tables("flows.csv"),
    "prepare": _tables("flows.csv"),
    "split": _tables("dataset.csv"),
    "transform": _tables("dataset.csv") + ["assignment.csv"],
    "train": _tables("transformed.csv") + [
        "assignment.csv", "transforms.json", "transform_manifest.json"],
    **{s: _tables("transformed.csv") + [
        "assignment.csv", "model.json", "train_manifest.json"]
       for s in ("evaluate", "explain")},
}
BYTE_MUTATIONS = ("delete", "truncate", "flip")
TEXT_MUTATIONS = {".json": ("swap_type", "drop_entry"),
                  ".csv": ("drop_column", "drop_line")}
CASES = [(stage, name, mutation)
         for stage, names in READS.items() for name in names
         for mutation in BYTE_MUTATIONS + TEXT_MUTATIONS.get(
             Path(name).suffix, ())]
OTHER_TYPES = [None, True, 0, -1, 1.5, "x", [], {}, [[1]], {"a": 1}]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The config of a tiny pipeline run, and every file that run read or
    wrote, by name, with its bytes."""
    tmp = tmp_path_factory.mktemp("fuzz")
    capture = tmp / "traffic.pcap"
    write_capture(capture, synth_capture(np.random.default_rng(3),
                                         n_flows=40, max_pkts=8))
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "capture": str(capture), "out_dir": str(tmp / "runs"),
        "model": {"params": {"n_trees": 2, "max_depth": 4}},
        "explain": {"repeats": 1}}))
    assert cli.run(["pipeline", "--config", str(config)]) == 0
    run_dir = cli.run_dir_for(*cli.load_config(config, []))
    files = {p.name: (p, p.read_bytes()) for p in run_dir.iterdir()}
    files["capture"] = (capture, capture.read_bytes())
    return config, files


def _json_paths(doc, path=()):
    """The key path of every value in a JSON document, its root first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _damage(raw: bytes, name: str, mutation: str, at: int, flip: int,
            value) -> bytes:
    """raw with one mutation applied; at picks the byte, JSON value, CSV
    column or line, modulo their number."""
    if mutation == "truncate":
        return raw[:at % len(raw)]
    if mutation == "flip":
        i = at % len(raw)
        return raw[:i] + bytes([raw[i] ^ flip]) + raw[i + 1:]
    if name.endswith(".json"):
        doc = json.loads(raw)
        paths = list(_json_paths(doc))
        if mutation == "drop_entry":
            paths = paths[1:]           # the root cannot be dropped
        path = paths[at % len(paths)]
        if not path:
            return json.dumps(value).encode()
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        if mutation == "drop_entry":
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        return json.dumps(doc).encode()
    lines = raw.decode().splitlines(keepends=True)
    if mutation == "drop_line":
        del lines[at % len(lines)]
        return "".join(lines).encode()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(io.StringIO(
        "".join(line for line in lines if not line.startswith("#")),
        newline="")))
    j = at % len(rows[0])
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n" if raw.endswith(b"\r\n") else "\n"
               ).writerows(r[:j] + r[j + 1:] for r in rows)
    return ("".join(comments) + out.getvalue()).encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), at=st.integers(0, 1 << 20),
       flip=st.integers(1, 255), value=st.sampled_from(OTHER_TYPES))
# a flow table without a column labeling reads escaped as a KeyError
@example(case=("prepare", "flows.csv", "drop_column"), at=9, flip=1,
         value=None)
@example(case=("prepare", "flows.csv", "drop_column"), at=2, flip=1,
         value=None)
# each of these exited 1, as a ConfigError: a missing schema, a header
# without row_id, a cut-short assignment, no label column, and no column a
# derived feature is computed from
@example(case=("split", "dataset.csv.schema.json", "delete"), at=0, flip=1,
         value=None)
@example(case=("split", "dataset.csv", "drop_column"), at=0, flip=1,
         value=None)
@example(case=("transform", "assignment.csv", "drop_line"), at=1, flip=1,
         value=None)
@example(case=("split", "dataset.csv", "drop_column"), at=85, flip=1,
         value=None)
@example(case=("prepare", "flows.csv", "drop_column"), at=10, flip=1,
         value=None)
def test_damaged_input_exits_0_1_or_2(pipeline, capsys, case, at, flip,
                                      value):
    config, files = pipeline
    for path, raw in files.values():
        path.write_bytes(raw)
    stage, name, mutation = case
    path, raw = files[name]
    if mutation == "delete":
        path.unlink()
    else:
        path.write_bytes(_damage(raw, name, mutation, at, flip, value))
    # the autouse fixture empties the memos once per test, not per example
    dataset._last_read, models._last_model = (None, None), (None, None)
    capsys.readouterr()
    code = cli.run([stage, "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2) or code == 1 and err.startswith("LeakageError"), err
