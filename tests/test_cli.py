import csv
import dataclasses
import hashlib
import importlib
import io
import ipaddress
import json
import os
import pkgutil
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import flowlab
from flowlab import cli, dataset, meter, models
from flowlab.cli import (DEFAULT_CONFIG, STAGE_INPUTS, load_config, run,
                         run_dir_for, run_stage)
from flowlab.errors import ConfigError
from flowlab.meter import feature_column_names
from flowlab.pcap import make_packet, write_capture
from conftest import pcap_bytes, synth_capture


@pytest.fixture
def capture(tmp_path):
    pkts = synth_capture(np.random.default_rng(42), n_flows=60,
                         idle_gap_prob=0.2, max_pkts=15)
    path = tmp_path / "traffic.pcap"
    write_capture(path, pkts)
    return path


@pytest.fixture
def config(tmp_path, capture):
    cfg = {
        "capture": str(capture),
        "out_dir": str(tmp_path / "runs"),
        "model": {"kind": "forest", "params": {"n_trees": 5, "max_depth": 8}},
        "explain": {"repeats": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports this checkout's flowlab;
    fail with its stderr unless it exits 0."""
    src = str(Path(flowlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg, h = load_config(None, [])
        assert cfg == DEFAULT_CONFIG
        assert len(h) == 64

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"meter": {"idle_timeuot": 15}}')
        with pytest.raises(ConfigError, match="idle_timeuot"):
            load_config(p, [])

    def test_dotted_override(self):
        cfg, h1 = load_config(None, [("meter.idle_timeout", "15")])
        assert cfg["meter"]["idle_timeout"] == 15
        _, h2 = load_config(None, [])
        assert h1 != h2

    def test_dotted_override_unknown_path(self):
        with pytest.raises(ConfigError):
            load_config(None, [("meter.bogus", "1")])

    def test_env_var_config(self, config, monkeypatch, capsys):
        monkeypatch.setenv("FLOWLAB_CONFIG", str(config))
        assert run(["meter"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("flows.csv")

    def test_run_dir_uses_hash_prefix(self, tmp_path):
        cfg, h = load_config(None, [("out_dir", str(tmp_path / "r"))])
        d = run_dir_for(cfg, h)
        assert d.name == h[:12]
        assert d.is_dir()


class TestStages:
    def test_meter_outputs(self, config):
        assert run(["meter", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        run_dir = run_dir_for(cfg, h)
        assert (run_dir / "flows.csv").exists()
        assert (run_dir / "flows.csv.schema.json").exists()
        manifest = json.loads((run_dir / "meter_manifest.json").read_text())
        assert manifest["stage"] == "meter"
        assert manifest["flow_count"] > 0
        assert manifest["ingest_summary"]["decoded"] > 0
        assert manifest["inputs"]["capture"]  # hash of the pcap

    def test_explicit_drop_of_derived_column_holds(self, config):
        # the derived columns are built before cleaning, so none comes
        # back after an explicit drop
        drop = ("cleaning.drop_columns", '["packet_ratio"]')
        for stage in ("meter", "prepare"):
            assert run([stage, "--config", str(config),
                        f"--{drop[0]}", drop[1]]) == 0
        cfg, h = load_config(config, [drop])
        run_dir = run_dir_for(cfg, h)
        names = dataset.Dataset.from_csv(run_dir / "dataset.csv").names
        assert "packet_ratio" not in names and "byte_ratio" in names
        first = (run_dir / "audit.jsonl").read_text().splitlines()[0]
        assert json.loads(first) == {"rule": "explicit_drop", "count": 1,
                                     "columns": ["packet_ratio"]}

    def test_one_way_flows_run_through(self, tmp_path):
        # 120 UDP flows of three packets that get no reply: cleaning drops
        # the constant packet counts of both directions, after the derived
        # columns were built from them
        base = 1_700_000_000 * 10 ** 9
        pkts = [make_packet(base + i * 10 ** 9 + j * (i % 7 + 1) * 10 ** 7,
                            f"10.0.0.{i + 1}", "192.168.1.1", 40000 + i,
                            (53, 123)[i % 2], 17, payload_len=40 + i + j)
                for i in range(120) for j in range(3)]
        write_capture(tmp_path / "one_way.pcap", sorted(pkts,
                                                        key=lambda p: p.ts))
        pairs = [("capture", str(tmp_path / "one_way.pcap")),
                 ("out_dir", str(tmp_path / "runs"))]
        assert run(["pipeline"] + [a for k, v in pairs
                                   for a in (f"--{k}", v)]) == 0
        cfg, h = load_config(None, pairs)
        names = dataset.Dataset.from_csv(
            run_dir_for(cfg, h) / "dataset.csv").names
        assert "bwd_packet_count" not in names
        assert "fwd_packet_count" not in names and "byte_ratio" in names

    def test_pipeline_end_to_end(self, config):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        run_dir = run_dir_for(cfg, h)
        for name in ("flows.csv", "quality_report.json", "dataset.csv",
                     "assignment.csv", "transformed.csv", "transforms.json",
                     "model.json", "report.txt", "report.csv",
                     "confusion.csv", "importance.csv",
                     "gini_importance.csv"):
            assert (run_dir / name).exists(), name
        report = (run_dir / "report.txt").read_text()
        assert "macro-F1:" in report
        assert "partition: test" in report
        split_man = json.loads((run_dir / "split_manifest.json").read_text())
        assert set(split_man["fingerprints"]) == {"train", "val", "test"}

    def test_pipeline_rerun_byte_identical(self, config):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        run_dir = run_dir_for(cfg, h)
        names = ("flows.csv", "dataset.csv", "assignment.csv",
                 "transformed.csv", "model.json", "report.txt",
                 "importance.csv")
        first = {n: (run_dir / n).read_bytes() for n in names}
        assert run(["pipeline", "--config", str(config)]) == 0
        for n in names:
            assert (run_dir / n).read_bytes() == first[n], n

    def test_manifests_chain_every_stage_input(self, config):
        assert run(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_for(*load_config(config, []))
        for stage, names in STAGE_INPUTS.items():
            manifest = json.loads(
                (run_dir / f"{stage}_manifest.json").read_text())
            chained = {*manifest.get("inputs", {}).values(),
                       manifest.get("dataset_hash")}
            for name in names:
                digest = hashlib.sha256(
                    (run_dir / name).read_bytes()).hexdigest()
                assert digest in chained, (stage, name)

    def test_import_freezes_once_and_run_freezes_nothing(self, config):
        # in a fresh interpreter: pytest's own import of flowlab.cli froze
        # this process's objects long ago
        code = ("import gc\nimport flowlab.cli\n"
                "frozen = gc.get_freeze_count()\nassert frozen > 0\n"
                f"assert flowlab.cli.run(['meter', '--config', {str(config)!r}])"
                " == 0\nassert gc.get_freeze_count() == frozen\n")
        _run_fresh(code)

    def test_every_dataclass_has_a_docstring(self):
        # @dataclass builds a missing docstring from inspect.signature when
        # the module is imported, in every flowlab process
        classes = [c for m in pkgutil.iter_modules(flowlab.__path__)
                   for c in vars(importlib.import_module(
                       f"flowlab.{m.name}")).values()
                   if dataclasses.is_dataclass(c) and isinstance(c, type)
                   and c.__module__ == f"flowlab.{m.name}"]
        assert len(classes) >= 26
        assert [c.__name__ for c in classes
                if c.__doc__.startswith(f"{c.__name__}(")] == []

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir()
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="counts threads in /proc, on 2 CPUs or more")
    def test_cli_loads_numpy_with_one_blas_thread(self):
        # in fresh interpreters, where flowlab.cli loads numpy; a count the
        # caller set is kept, and OpenBLAS starts that many threads
        _run_fresh("import os\nos.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
                   "import flowlab.cli\n"
                   "assert len(os.listdir('/proc/self/task')) == 1\n"
                   "assert 'OPENBLAS_NUM_THREADS' not in os.environ\n")
        _run_fresh("import os\nos.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
                   "import flowlab.cli\n"
                   "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
                   "assert len(os.listdir('/proc/self/task')) == 2\n")

    def test_pipeline_parses_no_table_or_model(self, config, monkeypatch):
        # every table and model a stage reads was written earlier in the
        # same process; a lone stage reads what another process wrote
        tables, texts = [], []
        parse_csv, parse_model = dataset._parse_csv, models._parse_model
        monkeypatch.setattr(dataset, "_parse_csv",
                            lambda *a: tables.append(a[0]) or parse_csv(*a))
        monkeypatch.setattr(models, "_parse_model",
                            lambda t: texts.append(t) or parse_model(t))
        assert run(["pipeline", "--config", str(config)]) == 0
        assert tables == [] and texts == []
        dataset._last_read, models._last_model = (None, None), (None, None)
        assert run(["evaluate", "--config", str(config)]) == 0
        assert tables == ["transformed.csv"] and len(texts) == 1

    def test_meter_reads_nothing_back(self, config, monkeypatch):
        # a meter process never reads flows.csv, so the table to_csv holds
        # is turned into the parse only by a later from_csv, once
        read_backs, tables, written = [], [], []
        read_back, parse_csv = dataset._read_back, dataset._parse_csv
        to_csv = dataset.Dataset.to_csv
        monkeypatch.setattr(dataset, "_read_back",
                            lambda *a: read_backs.append(1) or read_back(*a))
        monkeypatch.setattr(dataset, "_parse_csv",
                            lambda *a: tables.append(a[0]) or parse_csv(*a))
        monkeypatch.setattr(dataset.Dataset, "to_csv",
                            lambda ds, *a, **k: written.append(ds)
                            or to_csv(ds, *a, **k))
        assert run(["meter", "--config", str(config)]) == 0
        assert read_backs == [] and tables == []
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / "flows.csv"
        first, second = (dataset.Dataset.from_csv(path) for _ in range(2))
        assert read_backs == [1] and tables == []
        parsed = parse_csv(path.name, path.read_bytes(),
                           path.with_suffix(".csv.schema.json").read_bytes())
        for table in (first, second):
            assert table.names == parsed.names
            assert table.kinds == parsed.kinds
            assert table.validity_links == parsed.validity_links
            assert table.provenance == parsed.provenance
            assert table.row_ids.tolist() == parsed.row_ids.tolist()
            for name in parsed.names:
                a, b = table.data[name], parsed.data[name]
                assert a.dtype == b.dtype, name
                if a.dtype == np.float64:      # bit for bit, NaN included
                    a, b = a.view(np.uint64), b.view(np.uint64)
                assert a.tolist() == b.tolist(), name
        (ds,) = written
        for name in ("src_ip", "fwd_packet_count"):
            with pytest.raises(ValueError, match="read-only"):
                ds.data[name][0] = ds.data[name][1]

    def test_meter_frees_each_form_of_the_flows(self, config, monkeypatch):
        # FlowCache and FlowTable take weak references (FlowRecord has
        # __slots__ and does not): the cache is gone when finalizing
        # starts, every table before the first column is built, and
        # neither lives on while the table is written
        refs, alive = {}, {}
        for cls in (meter.FlowCache, meter.FlowTable):
            monkeypatch.setattr(cls, "__init__", _tracked(
                cls.__init__, refs.setdefault(cls.__name__, [])))

        def counted(point, fn):
            def wrapper(*args, **kwargs):
                alive.setdefault(point, {
                    name: sum(r() is not None for r in rs)
                    for name, rs in refs.items()})
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "records_to_rows",
                            counted("finalize", cli.records_to_rows))
        monkeypatch.setattr(meter, "_ip_column",
                            counted("first column", meter._ip_column))
        monkeypatch.setattr(dataset.Dataset, "to_csv",
                            counted("to_csv", dataset.Dataset.to_csv))
        assert run(["meter", "--config", str(config)]) == 0
        assert {name: len(rs) for name, rs in refs.items()} \
            == {"FlowCache": 1, "FlowTable": 1}
        assert alive == {
            "finalize": {"FlowCache": 0, "FlowTable": 1},
            "first column": {"FlowCache": 0, "FlowTable": 0},
            "to_csv": {"FlowCache": 0, "FlowTable": 0}}

    def test_pipeline_leaves_numpy_ma_unloaded(self, config):
        # a plain np.unique imports numpy.ma, ~13 ms of a fresh process
        argv = ["pipeline", "--config", str(config),
                "--explain.pdp_features", '["flow_duration"]']
        code = ("import sys\nfrom flowlab.cli import run\n"
                f"assert run({argv!r}) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        _run_fresh(code)

    def test_manifest_counts_late_drops(self, tmp_path):
        # the third packet starts a new flow 1.5 s behind the newest packet,
        # beyond the 1 s reorder slack, so the meter drops it
        pkts = [make_packet(int(t * 1e9), src, "10.0.0.9", sport, 80, 6,
                            payload_len=10)
                for t, src, sport in ((10.0, "10.0.0.1", 1000),
                                      (12.0, "10.0.0.2", 1001),
                                      (10.5, "10.0.0.3", 1002))]
        capture = tmp_path / "late.pcap"
        write_capture(capture, pkts)
        assert run(["meter", "--capture", str(capture),
                    "--out_dir", str(tmp_path / "runs")]) == 0
        cfg, h = load_config(None, [("capture", str(capture)),
                                    ("out_dir", str(tmp_path / "runs"))])
        run_dir = run_dir_for(cfg, h)
        manifest = json.loads((run_dir / "meter_manifest.json").read_text())
        assert manifest["dropped_late"] == 1
        assert manifest["flow_count"] == 2

    def test_meter_without_ip_flows_writes_header_only(self, tmp_path):
        # one ARP frame: decoded as non-IP and skipped, so no flow at all
        capture = tmp_path / "arp.pcap"
        write_capture(capture, [])
        arp = bytes(12) + b"\x08\x06" + bytes(28)
        with open(capture, "ab") as f:
            f.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)) + arp)
        out = str(tmp_path / "runs")
        assert run(["meter", "--capture", str(capture), "--out_dir", out]) == 0
        cfg, h = load_config(None, [("capture", str(capture)),
                                    ("out_dir", out)])
        run_dir = run_dir_for(cfg, h)
        header = ",".join(["row_id"] + feature_column_names())
        assert (run_dir / "flows.csv").read_bytes() \
            == f"# config_hash: {h}\n{header}\r\n".encode()
        schema = json.loads((run_dir / "flows.csv.schema.json").read_text())
        assert [c["name"] for c in schema["columns"]] \
            == feature_column_names()
        manifest = json.loads((run_dir / "meter_manifest.json").read_text())
        assert manifest["flow_count"] == 0
        assert manifest["ingest_summary"]["skipped"] == 1

    def test_confusion_csv_quotes_class_names(self, tmp_path, config):
        labels = tmp_path / "labels.csv"
        labels.write_text('192.168.0.0/17,"Web, Inc",high\n')
        pairs = [("labeling.map_file", str(labels))]
        assert run(["pipeline", "--config", str(config),
                    "--labeling.map_file", str(labels)]) == 0
        cfg, h = load_config(config, pairs)
        with open(run_dir_for(cfg, h) / "confusion.csv", newline="") as f:
            text = f.read()
        rows = list(csv.reader(io.StringIO(text)))
        assert "\r" not in text and "Web, Inc" in rows[0]
        assert [r[0] for r in rows[1:]] == rows[0][1:]
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_override_changes_run_dir(self, config):
        assert run(["pipeline", "--config", str(config)]) == 0
        assert run(["meter", "--config", str(config),
                    "--meter.idle_timeout", "15"]) == 0
        cfg, h = load_config(config, [])
        cfg15, h15 = load_config(config, [("meter.idle_timeout", "15")])
        assert run_dir_for(cfg, h) != run_dir_for(cfg15, h15)


class TestExitCodes:
    def test_config_error_is_1(self, config):
        assert run(["meter", "--config", str(config),
                    "--meter.lookup", "cuckoo"]) == 1
        assert run(["meter", "--config", str(config), "--bogus.key", "1"]) == 1

    def test_data_error_is_2(self, tmp_path, config):
        bad = tmp_path / "not_a.pcap"
        bad.write_bytes(b"\x00" * 64)
        assert run(["meter", "--config", str(config),
                    "--capture", str(bad)]) == 2

    @pytest.mark.parametrize("name", ["missing.pcap", "."])
    def test_unreadable_capture_is_2(self, tmp_path, config, capsys, name):
        assert run(["meter", "--config", str(config),
                    "--capture", str(tmp_path / name)]) == 2
        assert "cannot read capture" in capsys.readouterr().err

    def test_emptied_numeric_cell_is_2(self, config, capsys):
        assert run(["meter", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        rid = _set_cell(run_dir_for(cfg, h) / "flows.csv", "fwd_byte_count",
                        "")
        capsys.readouterr()
        assert run(["diagnose", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'fwd_byte_count'" in err and f"row_id {rid}" in err

    # a port or protocol that is no whole number stops labeling
    @pytest.mark.parametrize("column, cell", [
        ("dst_port", "nan"), ("dst_port", "80.5"), ("proto", "tcp")])
    def test_unreadable_port_or_protocol_is_2(self, config, capsys, column,
                                              cell):
        assert run(["meter", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        rid = _set_cell(run_dir_for(cfg, h) / "flows.csv", column, cell)
        capsys.readouterr()
        assert run(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"column '{column}', row_id {rid}: not a" in err

    def test_port_out_of_range_is_2(self, config, capsys):
        assert run(["meter", "--config", str(config)]) == 0
        assert run(["prepare", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        rid = _set_cell(run_dir_for(cfg, h) / "dataset.csv", "dst_port",
                        "70000")
        assert run(["split", "--config", str(config)]) == 0
        capsys.readouterr()
        assert run(["transform", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"column 'dst_port', row_id {rid}: port 70000 out of" in err

    def test_temporal_split_on_text_column_is_2(self, config, capsys):
        assert run(["meter", "--config", str(config)]) == 0
        assert run(["prepare", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        dataset_csv = str(run_dir_for(cfg, h) / "dataset.csv")
        capsys.readouterr()
        assert run(["split", "--config", str(config), "--dataset",
                    dataset_csv, "--split.strategy", "temporal",
                    "--split.time_key", "src_ip"]) == 2
        assert re.search(r"column 'src_ip', row_id \d+: not a number",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("text", [None, "{bad", "[1]"],
                             ids=["missing", "not_json", "not_an_object"])
    def test_unreadable_config_file_is_1(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert run(["meter", "--config", str(path)]) == 1
        assert "ConfigError: config" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [
        ("meter.idle_timeout", '"x"'), ("ingest.sample_n", '"a"'),
        ("split.fractions", "5"), ("meter", "3"),
        ("ingest.filter", '{"prefixes": 5}'),
        ("transform.onehot", '"proto"'), ("model.params", '{"zz": 1}')])
    def test_mistyped_config_value_is_1(self, config, capsys, key, raw):
        assert run(["meter", "--config", str(config), f"--{key}", raw]) == 1
        assert key.rsplit(".", 1)[-1] in capsys.readouterr().err

    def test_mistyped_null_default_value_is_1(self, config):
        # in one fresh interpreter: an int or a bool given as a path was
        # opened as a file descriptor, closing one of the process's own
        # 0-2; every other case escaped as a raw exception
        cases = [("capture", raw) for raw in
                 ("true", "1", "2", "[1]", '{"a":1}', "1.5", "-1")]
        cases += [(key, raw) for key in ("labeling.rule_file",
                                         "labeling.map_file")
                  for raw in ("true", "1", "[1]", '{"a":1}', "1.5", "-1")]
        cases += [(key, raw) for key, values in (
            ("stateful.window", ('"x"', "[1]", '{"a":1}')),
            ("transform.pca_components", ('"x"', "[1]", '{"a":1}', "1.5")),
            ("transform.smote_k", ('"x"', "[1]", '{"a":1}', "1.5", "-1")),
            ("transform.undersample_ratio", ('"x"', "[1]", '{"a":1}')),
            ("transform.outlier_method", ("[1]", '{"a":1}')),
            ("model.params.max_depth", ('"x"', '{"a":1}')),
            ("model.grid", ("true", "1", '"x"', "[1]", '{"a":1}', "1.5",
                            "-1")),
            ("explain.group_threshold", ('"x"', '{"a":1}')))
            for raw in values]
        code = f"""
import contextlib, io, os
from flowlab.cli import run
for key, raw in {cases!r}:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \\
            contextlib.redirect_stdout(io.StringIO()):
        code = run(["pipeline", "--config", {str(config)!r}, "--" + key,
                    raw])
    for fd in (0, 1, 2):
        os.fstat(fd)
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1, (key, raw, code, lines)
    assert lines[0].startswith("ConfigError: "), (key, raw, lines)
    assert key.rsplit(".", 1)[-1] in lines[0], (key, raw, lines)
"""
        _run_fresh(code)

    def test_negative_seed_is_1(self, config, capsys):
        assert run(["split", "--config", str(config), "--seed", "-1"]) == 1
        assert "config.seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-1", "-2"])
    def test_negative_pca_components_is_1(self, config, capsys, raw):
        # -1 kept all but the last principal component
        assert run(["transform", "--config", str(config),
                    "--transform.pca_components", raw]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: config.transform.pca_components")
        assert load_config(config, [("transform.pca_components", "0")])

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_max_depth_below_one_is_1(self, config, capsys, raw):
        # 0 and -1 fitted single-leaf trees
        assert run(["train", "--config", str(config),
                    "--model.params.max_depth", raw]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: config.model.params.max_depth")
        assert load_config(config, [("model.params.max_depth", "null")])

    @pytest.mark.parametrize("raw", ["-1", "-0.5", "NaN", "Infinity",
                                     "-Infinity"])
    def test_bad_stateful_window_is_1(self, config, capsys, raw):
        # json.loads reads NaN and Infinity as floats, so the type check
        # passes them
        assert run(["prepare", "--config", str(config),
                    "--stateful.window", raw]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: config.stateful.window")
        for off in ("0", "0.0", "null"):
            assert load_config(config, [("stateful.window", off)])

    @pytest.mark.parametrize("key", ["labeling.rule_file",
                                     "labeling.map_file"])
    def test_missing_label_file_is_2(self, tmp_path, config, capsys, key):
        assert run(["meter", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        capsys.readouterr()
        assert run(["prepare", "--config", str(config), "--dataset",
                    str(run_dir_for(cfg, h) / "flows.csv"), f"--{key}",
                    str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_explain_repeats_below_one_is_1(self, config, capsys):
        overrides = ["--explain.repeats", "0"]
        assert run(["pipeline", "--config", str(config), *overrides]) == 1
        assert run(["explain", "--config", str(config), *overrides]) == 1
        assert "repeats 0 must be an integer >= 1" in capsys.readouterr().err
        cfg, h = load_config(config, [("explain.repeats", "0")])
        run_dir = run_dir_for(cfg, h)
        assert (run_dir / "report.txt").exists()
        assert not (run_dir / "importance.csv").exists()

    def test_tampered_assignment_is_leakage(self, config):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        run_dir = run_dir_for(cfg, h)
        path = run_dir / "assignment.csv"
        lines = path.read_text().splitlines()
        # move one training row into the validation partition
        for i, line in enumerate(lines[1:], start=1):
            if line.endswith(",train"):
                lines[i] = line.replace(",train", ",val")
                break
        path.write_text("\n".join(lines) + "\n")
        assert run(["train", "--config", str(config)]) == 1
        assert run(["evaluate", "--config", str(config)]) == 1

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["nodes"]["feature"].__setitem__(0, 10 ** 4),
        lambda doc: doc["nodes"]["probs"][0].append(0.5),
        lambda doc: doc["nodes"].pop("threshold"),
        lambda doc: doc.pop("classes"),
        None,
    ], ids=["feature_out_of_range", "probs_length", "missing_threshold",
            "missing_classes", "cut_short"])
    def test_corrupted_model_is_2(self, config, corrupt):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / "model.json"
        if corrupt is None:   # cut short
            path.write_text(path.read_text()[:100])
        else:
            doc = json.loads(path.read_text())
            corrupt(doc)
            path.write_text(json.dumps(doc))
        assert run(["evaluate", "--config", str(config)]) == 2
        assert run(["explain", "--config", str(config)]) == 2

    @pytest.mark.parametrize("row", [",train", "not_a_number,train",
                                     "1,train,extra", "7"],
                             ids=["empty_row_id", "bad_row_id", "three_cells",
                                  "one_cell"])
    def test_malformed_assignment_is_2(self, config, capsys, row):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / "assignment.csv"
        lines = path.read_text().splitlines()
        lines[1] = row
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["train", "--config", str(config)]) == 2
        assert run(["evaluate", "--config", str(config)]) == 2
        assert "assignment.csv, line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest, stages", [
        ("transform_manifest.json", ("train",)),
        ("train_manifest.json", ("evaluate", "explain"))],
        ids=["transform", "train"])
    def test_malformed_manifest_is_2(self, config, capsys, manifest, stages):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / manifest
        for text in ("{not json", "[]", "{}"):
            path.write_text(text)
            for stage in stages:
                capsys.readouterr()
                assert run([stage, "--config", str(config)]) == 2, text
                assert manifest in capsys.readouterr().err

    @pytest.mark.parametrize("table, stage", [
        ("flows.csv", "diagnose"), ("dataset.csv", "split"),
        ("transformed.csv", "train")])
    def test_schema_links_or_provenance_not_object_is_2(self, config, capsys,
                                                        table, stage):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / f"{table}.schema.json"
        schema = json.loads(path.read_text())
        for key, value in [(k, v) for k in ("validity_links", "provenance")
                           for v in (5, "s", None, [1, 2], [[1]])] \
                + [("validity_links", {"fwd_duration": 5})]:
            path.write_text(json.dumps({**schema, key: value}))
            capsys.readouterr()
            assert run([stage, "--config", str(config)]) == 2, (key, value)
            assert "malformed schema" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[{}]", "{}", "{not json", '[{"kind": "standard", "params": [], '
        '"fit_partition_fingerprint": "x", "columns": []}]'],
        ids=["empty_entry", "not_a_list", "not_json", "params_not_object"])
    def test_malformed_transforms_json_is_2(self, config, capsys, text):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        (run_dir_for(cfg, h) / "transforms.json").write_text(text)
        capsys.readouterr()
        assert run(["train", "--config", str(config)]) == 2
        assert "transforms.json" in capsys.readouterr().err

    # train writes model.json, and evaluate and explain never read
    # transforms.json, so each file is missing only for its readers
    @pytest.mark.parametrize("name, stages", [
        ("model.json", ("evaluate", "explain")),
        ("transforms.json", ("train",)),
        ("assignment.csv", ("transform", "train", "evaluate", "explain")),
        ("flows.csv.schema.json", ("diagnose", "prepare")),
        ("dataset.csv.schema.json", ("split", "transform")),
        ("transformed.csv.schema.json", ("train", "evaluate", "explain"))],
        ids=["model", "transforms", "assignment", "flows_schema",
             "dataset_schema", "transformed_schema"])
    def test_missing_file_is_2(self, config, capsys, name, stages):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        (run_dir_for(cfg, h) / name).unlink()
        for stage in stages:
            capsys.readouterr()
            assert run([stage, "--config", str(config)]) == 2
            assert name in capsys.readouterr().err

    # a table that lost a column its reader needs is bad input; the error
    # names the column
    @pytest.mark.parametrize("table, column, stage, overrides", [
        ("dataset.csv", "row_id", "split", []),
        ("dataset.csv", "label", "split", []),
        ("flows.csv", "fwd_packet_count", "prepare", []),
        ("flows.csv", "src_ip", "prepare", ["--stateful.window", "60"])],
        ids=["row_id", "label", "derived_source", "window_key"])
    def test_table_missing_a_column_is_2(self, config, capsys, table, column,
                                         stage, overrides):
        assert run(["pipeline", "--config", str(config)]) == 0
        path = run_dir_for(*load_config(config, [])) / table
        _drop_column(path, column)
        capsys.readouterr()
        assert run([stage, "--config", str(config), "--dataset", str(path),
                    *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("DataError") and column in err

    def test_table_without_label_column_is_2_at_its_first_reader(
            self, config, capsys):
        # transform names dataset.csv, and train, evaluate and explain
        # name transformed.csv, instead of a table the file name is lost in
        assert run(["pipeline", "--config", str(config)]) == 0
        run_dir = run_dir_for(*load_config(config, []))
        for table, stages in (("dataset.csv", ("transform",)),
                              ("transformed.csv", ("train", "evaluate",
                                                   "explain"))):
            _drop_column(run_dir / table, "label")
            for stage in stages:
                capsys.readouterr()
                assert run([stage, "--config", str(config)]) == 2
                assert capsys.readouterr().err == (
                    f"DataError: {table}: no column of kind 'label'\n")

    def test_cut_short_assignment_is_2(self, config, capsys):
        assert run(["pipeline", "--config", str(config)]) == 0
        path = run_dir_for(*load_config(config, [])) / "assignment.csv"
        *kept, last = path.read_text().splitlines(keepends=True)
        path.write_text("".join(kept))
        capsys.readouterr()
        assert run(["transform", "--config", str(config)]) == 2
        rid = last.split(",")[0]
        assert f"row_id {rid} missing" in capsys.readouterr().err

    @pytest.mark.parametrize("name, stages", [
        ("model.json", ("evaluate", "explain")),
        ("assignment.csv", ("transform", "train", "evaluate", "explain"))],
        ids=["model", "assignment"])
    def test_non_utf8_file_is_2(self, config, capsys, name, stages):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        path = run_dir_for(cfg, h) / name
        data = path.read_bytes()
        path.write_bytes(data[:20] + b"\xff" + data[21:])
        for stage in stages:
            capsys.readouterr()
            assert run([stage, "--config", str(config)]) == 2
            assert name in capsys.readouterr().err

    def test_runaway_quote_in_flows_csv_is_2(self, tmp_path, capsys):
        # a '"' flipped into a cell opens a quoted field that swallows the
        # rest of the file, past the csv module's field size limit
        capture = tmp_path / "big.pcap"
        write_capture(capture, synth_capture(np.random.default_rng(7),
                                             n_flows=300, max_pkts=6))
        pairs = [("capture", str(capture)), ("out_dir", str(tmp_path / "r"))]
        argv = [a for k, v in pairs for a in (f"--{k}", v)]
        assert run(["meter", *argv]) == 0
        cfg, h = load_config(None, pairs)
        path = run_dir_for(cfg, h) / "flows.csv"
        data = path.read_bytes()
        row = data.index(b"\r\n", data.index(b"row_id")) + 2
        assert len(data) - row > 131072
        path.write_bytes(data[:row] + b'"' + data[row + 1:])
        capsys.readouterr()
        assert run(["diagnose", *argv]) == 2
        assert "flows.csv" in capsys.readouterr().err


    def test_deep_tree_trains_evaluates_and_explains(self, config,
                                                      monkeypatch):
        # column 0 is 0..1399 with alternating labels: a tree 1399 levels
        # deep, past the nesting json can write
        assert run(["pipeline", "--config", str(config)]) == 0

        def deep(kind, X, y, params, seed):
            col = np.zeros((1400, X.shape[1]))
            col[:, 0] = np.arange(1400.0)
            return models.tree_fit(col, np.array(sorted(set(y))[:2] * 700))

        monkeypatch.setattr(models, "fit", deep)
        for stage in ("train", "evaluate", "explain"):
            assert run([stage, "--config", str(config)]) == 0
        path = run_dir_for(*load_config(config, [])) / "model.json"
        nodes = models.model_from_json(path.read_text()).nodes
        assert len(nodes) == 2 * 1399 + 1


def _tracked(init, refs: list):
    """init, also appending a weak reference to each new instance to
    refs."""
    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)
    return tracked


def _drop_column(path, column) -> None:
    """Remove column from every row of a table to_csv wrote."""
    comment, _, body = path.read_text().partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    j = rows[0].index(column)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r[:j] + r[j + 1:]
                                                   for r in rows)
    path.write_text(comment + "\n" + out.getvalue())


def _set_cell(path, column, cell) -> str:
    """Write cell into column of the second data row of a flows.csv; the
    row's id."""
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[1].split(",").index(column)] = cell
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return cells[0]


def _reference_packets():
    """A fixed capture: IPv4 TCP and UDP flows split by idle gaps, active
    timeouts and FINs, one IPv6 conversation and one ICMP packet."""
    pkts = synth_capture(np.random.default_rng(2026), n_flows=120,
                         idle_gap_prob=0.3, with_fin=True, max_pkts=30)
    t = pkts[0].ts
    pkts += [make_packet(t + i * 300_000_000, *ends, 17,
                         payload_len=40 + 7 * i)
             for i, ends in enumerate(
                 [("2001:db8::1", "2001:db8::2", 5353, 53),
                  ("2001:db8::2", "2001:db8::1", 53, 5353)] * 3)]
    pkts.append(make_packet(t + 5, "10.9.8.7", "10.9.8.6", 0, 0, 1,
                            payload_len=56))
    pkts.sort(key=lambda p: p.ts)
    return pkts


# SHA-256 of flows.csv after its config-hash line: a change to any byte of
# the flow table (header, row order, a cell) changes it
@pytest.mark.parametrize("overrides, digest", [
    ((), "975070abef73f4ad9877df998663a20e517f3668e940a5e6b20dd04d4fb0ca23"),
    ((("meter.splt_n", "3"), ("meter.anonymize", "truncate_v4_24")),
     "51347535b3e2d570c60caded64d36b4c787fcfd970f7e487a656d4ffbd16c66a"),
], ids=["default", "splt3_anonymized"])
def test_flows_csv_reference_digest(tmp_path, overrides, digest):
    capture = tmp_path / "reference.pcap"
    write_capture(capture, _reference_packets())
    pairs = [("capture", str(capture)), ("out_dir", str(tmp_path / "runs")),
             *overrides]
    assert run(["meter"] + [a for k, v in pairs for a in (f"--{k}", v)]) == 0
    cfg, h = load_config(None, pairs)
    head, body = (run_dir_for(cfg, h) / "flows.csv").read_bytes().split(
        b"\n", 1)
    assert head == f"# config_hash: {h}".encode()
    assert body.count(b"\r\n") == 252          # header and 251 flows
    assert hashlib.sha256(body).hexdigest() == digest


# Frames built field by field, so that a capture can hold what
# write_capture never writes: tags, options, fragments, cut or bad headers.
def _eth(ethertype, body, vlan=False):
    tag = struct.pack("!HH", 0x8100, 7) if vlan else b""
    return bytes(12) + tag + struct.pack("!H", ethertype) + body


def _ipv4(proto, src, dst, body, ihl=5, frag=0, total=None, version=4):
    total = 4 * ihl + len(body) if total is None else total
    return struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total, 0,
                       frag, 64, proto, 0, ipaddress.ip_address(src).packed,
                       ipaddress.ip_address(dst).packed) \
        + bytes(max(4 * ihl - 20, 0)) + body


def _ipv6(next_header, src, dst, body):
    return struct.pack("!IHBB16s16s", 6 << 28, len(body), next_header, 64,
                       ipaddress.ip_address(src).packed,
                       ipaddress.ip_address(dst).packed) + body


def _tcp(sport, dport, flags, payload=0, doff=5):
    return struct.pack("!HHIIBBHHH", sport, dport, 0, 0, doff << 4, flags,
                       65535, 0, 0) + bytes(max(4 * doff - 20, 0) + payload)


def _udp(sport, dport, payload=0):
    return struct.pack("!HHHH", sport, dport, 8 + payload, 0) + bytes(payload)


def _ethernet_frames():
    """Every outcome of an Ethernet frame: decoded (IPv4, IPv6, 802.1Q,
    options, a first fragment, ICMP, a super packet), skipped and cut
    inside each header. Addresses end in zero bytes on purpose."""
    a, b = "10.1.0.0", "192.168.0.10"
    v6a, v6b = "2001:db8::", "2001:db8::1:0"
    syn, ack, fin = 0x02, 0x10, 0x01
    tcp4 = _ipv4(6, a, b, _tcp(40000, 443, ack, 30))
    frames = [
        _eth(0x0800, _ipv4(6, a, b, _tcp(40000, 443, syn))),
        _eth(0x0800, _ipv4(6, b, a, _tcp(443, 40000, syn | ack))),
        _eth(0x0800, tcp4),
        _eth(0x0800, _ipv4(6, b, a, _tcp(443, 40000, ack, 1200))),
        _eth(0x0800, _ipv4(6, a, b, _tcp(40000, 443, fin | ack, 0, doff=8))),
        _eth(0x0800, _ipv4(17, "10.2.0.1", "10.2.0.0", _udp(5353, 53, 20)),
             vlan=True),
        _eth(0x0800, _ipv4(17, "10.2.0.0", "10.2.0.1", _udp(53, 5353, 90))),
        _eth(0x86DD, _ipv6(6, v6a, v6b, _tcp(40001, 443, syn))),
        _eth(0x86DD, _ipv6(6, v6b, v6a, _tcp(443, 40001, ack, 700))),
        _eth(0x86DD, _ipv6(17, "2001:db8::2", "2001:db8::3", _udp(123, 123, 48)),
             vlan=True),
        _eth(0x0800, _ipv4(1, "10.3.0.1", "10.3.0.2", bytes(64))),
        _eth(0x0800, _ipv4(17, "10.4.0.1", "10.4.0.2", _udp(9, 9, 12), ihl=7)),
        _eth(0x0800, _ipv4(17, "10.5.0.1", "10.5.0.2", _udp(7, 7, 40),
                           frag=0x2000)),
        # a jumbo datagram cut to its headers by the snap length
        _eth(0x0800, _ipv4(17, "10.6.0.1", "10.6.0.2", _udp(7, 7),
                           total=9000)),
        # skipped
        _eth(0x0806, bytes(28)),
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2, 8), frag=0x00B9)),
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2), version=6)),
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2), ihl=4)),
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2), total=19)),
        _eth(0x0800, _ipv4(6, a, b, _tcp(40000, 443, ack, 10, doff=4))),
        _eth(0x0800, _ipv4(6, a, b, _tcp(40000, 443, ack, doff=15),
                           total=50)),
        _eth(0x86DD, _ipv4(17, a, b, _udp(1, 2, 20))),
        # cut inside a header
        bytes(10),
        _eth(0x0800, b"", vlan=True)[:16],
        _eth(0x0800, tcp4)[:14 + 12],
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2), ihl=8))[:14 + 24],
        _eth(0x86DD, _ipv6(17, v6a, v6b, _udp(1, 2)))[:14 + 30],
        _eth(0x0800, tcp4)[:14 + 20 + 12],
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2)))[:14 + 20 + 4],
        _eth(0x0800, _ipv4(6, a, b, bytes(24), total=30)),
        _eth(0x0800, _ipv4(17, a, b, _udp(1, 2), total=25)),
    ]
    return [(1_700_000_000_000_000_000 + 1_000_003 * i, f)
            for i, f in enumerate(frames)]


def _raw_ip_frames():
    frames = [
        _ipv4(17, "10.7.0.1", "10.7.0.0", _udp(1000, 53, 33)),
        _ipv6(6, "2001:db8::7", "2001:db8::", _tcp(5000, 22, 0x02)),
        _ipv4(17, "10.7.0.0", "10.7.0.1", _udp(53, 1000, 80)),
        b"\x50" + bytes(40),                           # IP version 5
        b"",
        _ipv4(6, "10.7.0.1", "10.7.0.0", _tcp(1, 2, 0x10))[:30],
    ]
    return [(1_700_000_100_000_000_000 + 2_500_000 * i, f)
            for i, f in enumerate(frames)]


def _be_micro_frames():
    a, b = "172.16.0.0", "172.16.9.9"
    frames = [_eth(0x0800, _ipv4(6, a, b, _tcp(3333, 80, 0x02))),
              _eth(0x0800, _ipv4(6, b, a, _tcp(80, 3333, 0x12, 100))),
              _eth(0x0800, _ipv4(6, a, b, _tcp(3333, 80, 0x11)))]
    return [(1_700_000_200_123_456_000 + 1_250_000 * i, f)
            for i, f in enumerate(frames)]


# The flows.csv digest and ingest counts of hand-built captures: every
# outcome of the frame decoder, both link types and both byte orders
@pytest.mark.parametrize("capture, counts, digest", [
    (lambda: pcap_bytes(_ethernet_frames()), (31, 14, 8, 9),
     "7e17545b4011a54b0bc52b02eb054e2418e7e667bdcf8f030aa8add54a944aec"),
    (lambda: pcap_bytes(_raw_ip_frames(), linktype=101), (6, 3, 1, 2),
     "0baaa7a84bdf01614d4a714d7108cc1988362e4879f11ce45e05750e138875ee"),
    (lambda: pcap_bytes(_be_micro_frames(), big_endian=True,
                        nanosecond=False), (3, 3, 0, 0),
     "9dd0f2461ff62506cc35dafe59359f3095bb1fdfc9bdf96d53988ec2d41d0eee"),
], ids=["ethernet", "raw_ip", "big_endian_micro"])
def test_hand_built_capture_digest(tmp_path, capture, counts, digest):
    path = tmp_path / "hand.pcap"
    path.write_bytes(capture())
    pairs = [("capture", str(path)), ("out_dir", str(tmp_path / "runs"))]
    assert run(["meter"] + [a for k, v in pairs for a in (f"--{k}", v)]) == 0
    cfg, h = load_config(None, pairs)
    run_dir = run_dir_for(cfg, h)
    summary = json.loads(
        (run_dir / "meter_manifest.json").read_text())["ingest_summary"]
    assert (summary["total_frames"], summary["decoded"], summary["skipped"],
            summary["truncated"]) == counts
    assert summary["emitted"] == summary["decoded"]
    body = (run_dir / "flows.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == digest


# SHA-256 of the model, explanation and report artifacts of a pipeline run
# on the fixed capture. Relative paths keep the config hash, and so every
# byte, the same in any directory.
@pytest.mark.parametrize("overrides, digests", [
    ((), (
        "a44dc231c876c319ea998c90a98e74073ae47fc25bd9c1b22e632426088d7527",
        "0bbd4c8317a5838af2576f0cee14c2dc054dc1358446c893bdad0373a0c2cbc8",
        "3ee15e2eba8f95ddfb6824112572fc66ba0e03de5900d736612f588f5eaad6cf",
        "6d7d0ad94b6242eca648662488ff209adca5bdd719f20c1d5fcc2634cbd4bf63")),
    ((("explain.group_threshold", "0.9"), ("explain.repeats", "9"),
      ("model.params.n_trees", "7")), (
        "5398307b743749fd1bdc5b91a8526121c90c316f9cf005e56298bb6f6b03b0d6",
        "cf86be9ac94385804eeba68f8c540df47d5ba3d87c0697419b8651266fe4f995",
        "3ee15e2eba8f95ddfb6824112572fc66ba0e03de5900d736612f588f5eaad6cf",
        "d7e98fb695d48bfdb00c4a811d485ff31cd401fc7b3e67e8b7b0a8f02f1e71d0")),
], ids=["default", "grouped_9_repeats"])
def test_pipeline_reference_digest(tmp_path, monkeypatch, overrides,
                                   digests):
    monkeypatch.chdir(tmp_path)
    write_capture(tmp_path / "reference.pcap", _reference_packets())
    pairs = [("capture", "reference.pcap"), ("out_dir", "runs"), *overrides]
    assert run(["pipeline"]
               + [a for k, v in pairs for a in (f"--{k}", v)]) == 0
    cfg, h = load_config(None, pairs)
    run_dir = run_dir_for(cfg, h)
    names = ("importance.csv", "model.json", "quality_report.json",
             "report.txt")
    assert tuple(hashlib.sha256((run_dir / n).read_bytes()).hexdigest()
                 for n in names) == digests


# SHA-256 of every artifact of pipeline runs that set the options the
# default runs leave unset: the stateful window, PCA, outlier removal, both
# resamplers, grid search, a capture filter and 1-in-N sampling, the
# temporal, disjoint and OOD splits and the tree and kNN models. SMOTE runs
# on a larger capture, where every class has more than k train rows.
OPTION_ARTIFACTS = ("dataset.csv", "transformed.csv", "transforms.json",
                    "model.json", "importance.csv", "report.txt",
                    "quality_report.json", "audit.jsonl", "cv_table.json")
STATEFUL_TEMPORAL_KNN = (
    ("split.strategy", "temporal"),
    ("split.time_key", "flow_start"),
    ("stateful.window", "60"),
    ("transform.pca_components", "6"),
    ("model.kind", "knn"),
    ("explain.repeats", "2"),
)
SMOTE_GRID_PDP = (
    ("capture", "synth.pcap"),
    ("transform.scaler", "minmax"),
    ("transform.outlier_method", "iqr"),
    ("transform.smote_k", "2"),
    ("model.kind", "tree"),
    ("model.grid", '{"max_depth": [3, 5]}'),
    ("explain.pdp_features", '["flow_duration"]'),
)


@pytest.mark.parametrize("overrides, digests", [
    (STATEFUL_TEMPORAL_KNN, (
        "67153c725dfb7d1e095b9cd108cab52bddd4d646263bc557ac790735749aa43b",
        "958250094897dfed7d3d98817e38ca725e0955b1e82d30b3305543203d50142a",
        "d1034ffced0efb508afbce485111edb3e182aaf2835feba521135586707440ef",
        "6b11316706da0ec8d19f10c7924c7f4fc1aace93d453e9b50d638bed4dd1c131",
        "63909921faa33c9f3d7fd3813c5d1b21a8f18f6ce82a990af29941d3f98606c1",
        "98bfd4b230b65840903dc7d3a367c28845777aad894309b48851a2191c0ed8c5",
        "3ee15e2eba8f95ddfb6824112572fc66ba0e03de5900d736612f588f5eaad6cf",
        "c2a3d7f41fa0e93cd8756565eef87d2f3da782603c26680e8f25e4ec54a2db82",
    )),
    ((
        ("split.strategy", "disjoint"),
        ("split.group_key", "src_ip"),
        ("transform.outlier_method", "zscore"),
        ("transform.undersample_ratio", "1.5"),
        ("transform.scaler", "robust"),
        ("model.kind", "tree"),
        ("model.params.max_depth", "6"),
     ), (
        "a44ccb99e72516a1a3d16ad1f22cdc9771ffaf0543d8a01d849769d338b6705f",
        "949306b921d52d23543a7cb1234e23d1044abbb3c3c2df08a775dd9cedc9a94b",
        "df7a4298b051b763d2dba00952b8a39ecd533b3f68ac60cf2e7c903197cc6839",
        "2a65e7fa21105e2c6b9886c9a56be689ba049f2b2837d7a626bd1f8424449dc2",
        "7faab8d489b477ec808f07809823bbd83c60cb3fdf028496ebd1804bb8903a7a",
        "cee3dfed9aed2d59eb457a1b0e1205f0fafa8614011fbe3d34a02e5506cea384",
        "3ee15e2eba8f95ddfb6824112572fc66ba0e03de5900d736612f588f5eaad6cf",
        "c2a3d7f41fa0e93cd8756565eef87d2f3da782603c26680e8f25e4ec54a2db82",
    )),
    ((
        ("split.strategy", "ood"),
        ("split.held_out_classes", '["NTP"]'),
        ("ingest.filter", '{"protocols": [6, 17], '
         '"prefixes": ["10.0.0.0/8", "192.168.0.0/16"]}'),
        ("ingest.sample_n", "2"),
        ("model.params.n_trees", "5"),
     ), (
        "f8b1b380737373087ba695af5732b8cacbfc11c27c0a9d8c88a4ee78e04d379e",
        "52089593f6166a1871e3362b30c6bb9dd8daf43f4e4f920fa51a7c3f3935bc93",
        "5f75a0e0c6ddc60f1be1856e64b9727e9210a3c00a409a908b16a60f0a091ae1",
        "514a1ccb862beaf8ee52db434922a27e669ca33a4eae165500fa539ac4c9bd3d",
        "534cfc802e9517435d5e52320f29b431d680cc4267e28dffe70e4c7a574fef9b",
        "f99613a22cb0f86da8b00700a8caea07883847abc1966b2f6aa2be88793c6d9d",
        "4ba3a3caa3ee5664919726ba210e6b09c6ca34fb3bcfd9f903b774869fd7aad9",
        "6973c57c5dcf6e2c13a184f17c92f5bc4b564ea8e8d1691f3050f10789ebd656",
    )),
    (SMOTE_GRID_PDP, (
        "b8f6caa53f820938560a3948c94fa94a0d02555201c3960b47d95decce517d02",
        "79c16a321fbd2a4c02ecf6d90ed3fa4333e95ddef6a734c4a1bec867b7091de0",
        "f7366da99a094fdab4c530dfc79cbc14604e975b7ffc161f0af0e716096e3e74",
        "b6f0d2539da0b4b1d3859ad35c4687ef9f4bd8ed23a507a8def2b51e0e535d39",
        "60fa273bf7dbecd9840e4fd8e1267faff70ba19806ecdc5320631d1663fdce75",
        "e4109008366b1ceb61482c173722a9bf847c74e905b4501ea9f6bcdb35805e87",
        "832eb294434f86247b7c76c0f30c9536cd0713169674196ddfdc1c9b874cd1a1",
        "8e7e67e221095ff91998968e14774590ca47fd064064e60a34121fc6b2231b0c",
        "bfcc6aa2030edbe90555a7654297b9bcfa5dbf229c021cdb5e3caa072df9dbd2",
    )),
    ((
        ("model.grid", '{"n_trees": [3, 5]}'),
        ("model.cv_folds", "2"),
        ("explain.repeats", "2"),
     ), (
        "5c3b989b224e3848786b4b905537ddfe5c7ae2627952c3200dbb3f055613c807",
        "c866f7e73834735c6950d01b6b04827d62c7f612fe7b6e9dc4c79863671cf2b0",
        "16a381b99789449f7b3aa71469697b7899ed9bab9ff05c00a69320621e726e1b",
        "518e4ab4d6c6c4ed79385cd106095ef75fb230234116beb02e1b41b8cd860c4e",
        "c413b958c5fb613d6416ae6c33ff5d8258cce58e6557b62b96d6f8b89b671e04",
        "b7b84dc73bf925b75ebb3c5556232c3b96e9607adfaff895ae3e3a5879ebdafe",
        "3ee15e2eba8f95ddfb6824112572fc66ba0e03de5900d736612f588f5eaad6cf",
        "c2a3d7f41fa0e93cd8756565eef87d2f3da782603c26680e8f25e4ec54a2db82",
        "cc55088d22d9b3fbe59cc2d19bf49d29e383ad1a484a86be747dd6176c421409",
    )),
    ((
        ("ingest.filter", '{"ports": [22, 53, 80, 123, 443]}'),
        ("model.kind", "knn"),
        ("model.grid", '{"k": [3, 7]}'),
        ("transform.outlier_method", "zscore"),
        ("explain.repeats", "2"),
     ), (
        "16b770524f87b150a456155b48906833886e464a0057b018d8f4d5b1d58dbac5",
        "fa0748a535f2cf974c4afe11113a2a15f8ef923278289ef0578b27f224673688",
        "b849209ef4489edb936ba1f5dca4a7a7ab11b31c3552892c3e0fa028b5ddf494",
        "1f2fe2ecf2ed488b169084cca81c27b4623d5092e1bb613d268f3b17a77ae027",
        "3fb22e7e566f0c54ea67e5ea1be284f3d4d049d9c3b8e6653a9a6c9504dc7a0b",
        "839f2a50d7751bef1bf678451e5a35a1d98acd4c712b41b9d11b22178b16b85d",
        "df8295c8c0ef732321c38388f66fdda62029ddfecd42e1ca5af7e78ec8c5f4e4",
        "c2a3d7f41fa0e93cd8756565eef87d2f3da782603c26680e8f25e4ec54a2db82",
        "327799c304d35358986f86f80b99c0b234a017c2a31a3ef91596d9ad2cee3d6a",
    )),
], ids=["stateful_temporal_knn", "disjoint_zscore_undersample_tree",
        "ood_filter_sample", "smote_grid_pdp", "grid_forest",
        "filter_ports_knn_grid"])
def test_pipeline_option_digests(tmp_path, monkeypatch, overrides, digests):
    monkeypatch.chdir(tmp_path)
    write_capture(tmp_path / "reference.pcap", _reference_packets())
    write_capture(tmp_path / "synth.pcap",
                  synth_capture(np.random.default_rng(7), n_flows=300,
                                max_pkts=20))
    pairs = [("capture", "reference.pcap"), ("out_dir", "runs"), *overrides]
    assert run(["pipeline"]
               + [a for k, v in pairs for a in (f"--{k}", v)]) == 0
    run_dir = run_dir_for(*load_config(None, pairs))
    assert tuple(hashlib.sha256((run_dir / n).read_bytes()).hexdigest()
                 for n in OPTION_ARTIFACTS
                 if (run_dir / n).exists()) == digests


@pytest.mark.parametrize("overrides", [(), STATEFUL_TEMPORAL_KNN,
                                       SMOTE_GRID_PDP],
                         ids=["default", "stateful_temporal_knn",
                              "smote_grid_pdp"])
def test_pipeline_equals_stages_run_apart(tmp_path, monkeypatch, overrides):
    # a pipeline reads what it wrote from the memos; stages run one by one
    # on empty memos parse every input, and must write the same bytes
    packets = _reference_packets()
    synth = synth_capture(np.random.default_rng(7), n_flows=300, max_pkts=20)
    pairs = [("capture", "reference.pcap"), ("out_dir", "runs"), *overrides]
    argv = [a for k, v in pairs for a in (f"--{k}", v)]
    cfg, h = load_config(None, pairs)
    tables, texts = [], []
    parse_csv, parse_model = dataset._parse_csv, models._parse_model
    monkeypatch.setattr(dataset, "_parse_csv",
                        lambda *a: tables.append(a[0]) or parse_csv(*a))
    monkeypatch.setattr(models, "_parse_model",
                        lambda t: texts.append(t) or parse_model(t))
    artifacts = []
    for side in ("pipeline", "stages"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        write_capture("reference.pcap", packets)
        write_capture("synth.pcap", synth)
        if side == "pipeline":
            assert run(["pipeline"] + argv) == 0
        else:
            for cmd in STAGE_INPUTS:
                dataset._last_read = (None, None)
                models._last_model = (None, None)
                run_stage(cmd, cfg, h, run_dir_for(cfg, h))
        run_dir = run_dir_for(cfg, h)
        artifacts.append({p.name: p.read_bytes()
                          for p in sorted(run_dir.iterdir())})
    assert list(artifacts[0]) == list(artifacts[1])
    for name in artifacts[0]:
        assert artifacts[0][name] == artifacts[1][name], name
    assert tables == ["flows.csv"] * 2 + ["dataset.csv"] * 2 \
        + ["transformed.csv"] * 3
    assert len(texts) == 2
