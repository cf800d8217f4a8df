"""No damage to a file a stage reads lets an exception escape flowlab.

One tiny pipeline runs once; each example then damages one input file of
one stage and runs that stage alone, which must exit 0 or 2 (bad input),
or 1 only for a LeakageError: damaged lineage is leakage, and no damaged
input is a config error. The config file, written out in full so that
every key can be swapped or dropped, is an input of every stage: damaged,
it may also exit 1, and the stage finds its other inputs in the run
directory the damaged config names. After each example the process's
file descriptors 0-2 are still open.
"""

import csv
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from flowlab import cli, dataset, models
from flowlab.pcap import write_capture
from conftest import synth_capture


def _tables(*names):
    return [f for n in names for f in (n, n + ".schema.json")]


# the files each stage reads; "capture" is the pcap and "config.json" the
# config, the rest sit in the run directory
READS = {stage: ["config.json"] + names for stage, names in {
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
}.items()}
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
    """The directory of a tiny pipeline run, its config, its run directory
    and every file that run read or wrote, by name, with its bytes. The
    config holds every key and names its paths relative to the
    directory."""
    tmp = tmp_path_factory.mktemp("fuzz")
    write_capture(tmp / "traffic.pcap", synth_capture(
        np.random.default_rng(3), n_flows=40, max_pkts=8))
    config = tmp / "config.json"
    config.write_text(json.dumps(cli._merge(cli.DEFAULT_CONFIG, {
        "capture": "traffic.pcap", "out_dir": "runs",
        "model": {"params": {"n_trees": 2, "max_depth": 4}},
        "explain": {"repeats": 1}}), indent=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        assert cli.run(["pipeline", "--config", str(config)]) == 0
        run_dir = tmp / cli.run_dir_for(*cli.load_config(config, []))
    files = {p.name: (p, p.read_bytes()) for p in run_dir.iterdir()}
    files["capture"] = (tmp / "traffic.pcap",
                        (tmp / "traffic.pcap").read_bytes())
    files["config.json"] = (config, config.read_bytes())
    return tmp, config, run_dir, files


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


def _inputs_moved_for(config: Path, tmp: Path, run_dir: Path) -> None:
    """Copy the pipeline's run directory to the one config names, if it
    loads. An example whose run directory lies outside tmp is rejected: the
    stage would write there."""
    try:
        cfg, config_hash = cli.load_config(config, [])
    except cli.ConfigError:
        return
    moved = tmp / cfg["out_dir"] / config_hash[:12]
    assume(tmp.resolve() in moved.resolve().parents)
    if moved.resolve() != run_dir.resolve():
        shutil.copytree(run_dir, moved, dirs_exist_ok=True)


CONFIG_PATHS = list(_json_paths(cli.DEFAULT_CONFIG))


@settings(max_examples=200, deadline=None,
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
# a dataset.csv cut on a line break parsed as a shorter table, and split
# exited 1 on a class it left too small to stratify
@example(case=("split", "dataset.csv", "truncate"), at=5621, flip=1,
         value=None)
# an int or a bool given as a path was opened as a file descriptor: flowlab
# closed its own stdout
@example(case=("meter", "config.json", "swap_type"),
         at=CONFIG_PATHS.index(("capture",)), flip=1, value=True)
@example(case=("prepare", "config.json", "swap_type"),
         at=CONFIG_PATHS.index(("labeling", "rule_file")), flip=1, value=True)
def test_damaged_input_exits_0_1_or_2(pipeline, capsys, monkeypatch, case,
                                      at, flip, value):
    tmp, config, run_dir, files = pipeline
    monkeypatch.chdir(tmp)
    for path, raw in files.values():
        path.write_bytes(raw)
    stage, name, mutation = case
    path, raw = files[name]
    if mutation == "delete":
        path.unlink()
    else:
        path.write_bytes(_damage(raw, name, mutation, at, flip, value))
    if name == "config.json":
        _inputs_moved_for(config, tmp, run_dir)
    # the autouse fixture empties the memos once per test, not per example
    dataset._last_read, models._last_model = (None, None), (None, None)
    capsys.readouterr()
    code = cli.run([stage, "--config", str(config)])
    err = capsys.readouterr().err
    for fd in (0, 1, 2):
        os.fstat(fd)
    assert code in (0, 2) or code == 1 and (
        name == "config.json" or err.startswith("LeakageError")), err
