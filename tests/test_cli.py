import hashlib
import json
import struct

import numpy as np
import pytest

from flowlab import dataset, models
from flowlab.cli import (DEFAULT_CONFIG, load_config, run, run_dir_for)
from flowlab.errors import ConfigError
from flowlab.meter import feature_column_names
from flowlab.pcap import make_packet, write_capture
from conftest import synth_capture


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

    def test_pipeline_parses_each_artifact_once(self, config, monkeypatch):
        # flows.csv, dataset.csv and transformed.csv are read by two, two
        # and three stages, model.json by two
        tables, texts = [], []
        parse_csv, parse_model = dataset._parse_csv, models._parse_model
        monkeypatch.setattr(dataset, "_last_read", (None, None))
        monkeypatch.setattr(models, "_last_model", (None, None))
        monkeypatch.setattr(dataset, "_parse_csv",
                            lambda *a: tables.append(a[0]) or parse_csv(*a))
        monkeypatch.setattr(models, "_parse_model",
                            lambda t: texts.append(t) or parse_model(t))
        assert run(["pipeline", "--config", str(config)]) == 0
        assert tables == ["flows.csv", "dataset.csv", "transformed.csv"]
        assert len(texts) == 1

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
        path = run_dir_for(cfg, h) / "flows.csv"
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
        col = header.index("fwd_byte_count")
        cells = lines[3].split(",")
        cells[col] = ""
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["diagnose", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'fwd_byte_count'" in err and f"row_id {cells[0]}" in err

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
        lambda doc: doc["trees"][0].update(feature=10 ** 4),
        lambda doc: doc["trees"][0]["probs"].append(0.5),
        lambda doc: doc["trees"][0].pop("threshold"),
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
        ("transforms.json", ("train",))], ids=["model", "transforms"])
    def test_missing_file_is_2(self, config, capsys, name, stages):
        assert run(["pipeline", "--config", str(config)]) == 0
        cfg, h = load_config(config, [])
        (run_dir_for(cfg, h) / name).unlink()
        for stage in stages:
            capsys.readouterr()
            assert run([stage, "--config", str(config)]) == 2
            assert name in capsys.readouterr().err


    def test_too_deep_tree_is_2(self, config, capsys, monkeypatch):
        # one column 0..1399 with alternating labels: a tree 1399 levels
        # deep, past the nesting json can write
        assert run(["pipeline", "--config", str(config)]) == 0
        deep = models.tree_fit(np.arange(1400.0)[:, None],
                               np.array(["a", "b"] * 700))
        monkeypatch.setattr(models, "fit", lambda *args: deep)
        capsys.readouterr()
        assert run(["train", "--config", str(config)]) == 2
        assert "a tree 1399 levels deep" in capsys.readouterr().err


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
