import json

import numpy as np
import pytest

from flowlab.dataset import Dataset
from flowlab.errors import ConfigError
from flowlab.prep import (CleaningConfig, clean, diagnose,
                          engineer_stateful, engineer_stateless,
                          write_audit_log)


def _base_rows(n=8):
    rows = []
    for i in range(n):
        rows.append({
            "src_ip": f"10.0.0.{i % 3}",
            "dst_ip": "192.168.1.1",
            "dst_port": 443.0,
            "proto": "6",
            "flow_start": float(100 + i * 5),
            "flow_end": float(100 + i * 5 + 1),
            "flow_duration": 1.0,
            "fwd_packet_count": float(4 + i),
            "bwd_packet_count": float(2 + i),
            "fwd_byte_count": float(400 + 10 * i),
            "bwd_byte_count": float(200 + 10 * i),
            "flag_syn_count": float(1 + i % 2),
            "total_packet_count": float(6 + 2 * i),
            "total_byte_count": float(600 + 20 * i),
            "fwd_size_max": 1500.0,
            "bwd_size_max": 1500.0,
            "label": "HTTPS",
        })
    return rows


_KINDS = {"src_ip": "metadata", "dst_ip": "metadata", "dst_port": "numeric",
          "proto": "categorical", "flow_start": "metadata",
          "flow_end": "metadata", "flow_duration": "numeric",
          "fwd_packet_count": "numeric", "bwd_packet_count": "numeric",
          "fwd_byte_count": "numeric", "bwd_byte_count": "numeric",
          "flag_syn_count": "numeric", "total_packet_count": "numeric",
          "total_byte_count": "numeric", "fwd_size_max": "numeric",
          "bwd_size_max": "numeric", "label": "label"}


def _ds(rows=None):
    return Dataset.from_rows(rows or _base_rows(), _KINDS)


class TestDiagnose:
    def test_counts(self):
        rep = diagnose(_ds())
        assert rep.rows == 8
        assert rep.duplicate_rows == 0
        assert rep.missing_fraction["flow_duration"] == 0.0
        assert rep.distinct_count["proto"] == 1
        assert all(v == 0 for v in rep.plausibility_violations.values())

    def test_missing_and_violations(self):
        rows = _base_rows()
        rows[0]["flow_duration"] = float("nan")
        rows[1]["flow_duration"] = -5.0
        rows[2]["fwd_size_max"] = 70000.0
        ds = _ds(rows)
        rep = diagnose(ds)
        assert rep.missing_fraction["flow_duration"] == pytest.approx(1 / 8)
        assert rep.plausibility_violations["negative_duration"] == 1
        assert rep.plausibility_violations["oversize_packet"] == 1

    def test_duplicates_ignore_metadata(self):
        rows = _base_rows(2)
        rows[1] = dict(rows[0])
        rows[1]["src_ip"] = "completely.different"  # metadata only
        rep = diagnose(_ds(rows))
        assert rep.duplicate_rows == 1


    def test_duplicate_key_semantics(self):
        # a row holding NaN is never a duplicate, -0.0 equals 0.0, and text
        # compares by value, not by object
        rows = _base_rows(6)
        rows[1] = dict(rows[0])
        rows[0]["flow_duration"] = rows[1]["flow_duration"] = float("nan")
        rows[3] = dict(rows[2])
        rows[2]["flow_duration"], rows[3]["flow_duration"] = -0.0, 0.0
        rows[5] = dict(rows[4])
        rows[4]["label"], rows[5]["label"] = "HTTPS", "".join(["HTT", "PS"])
        assert diagnose(_ds(rows)).duplicate_rows == 2
        out, audit = clean(_ds(rows))
        assert {"rule": "duplicate_rows", "count": 2} in audit
        assert out.row_ids.tolist() == [0, 1, 2, 4]


class TestClean:
    def test_drops_constant_and_duplicates(self):
        rows = _base_rows()
        rows[3] = dict(rows[2])
        ds = _ds(rows)
        out, audit = clean(ds)
        rules = [e["rule"] for e in audit]
        assert "duplicate_rows" in rules
        assert "near_zero_variance" in rules  # dst_port etc. are constant
        assert len(out) == 7
        assert "dst_port" not in out.names
        assert len(ds) == 8  # input untouched

    def test_idempotent(self):
        rows = _base_rows()
        rows[1]["flow_duration"] = -1.0
        rows[4] = dict(rows[5])
        once, _ = clean(_ds(rows))
        twice, audit = clean(once)
        assert not audit
        assert len(twice) == len(once)
        assert twice.names == once.names

    def test_tcp_short_handshake(self):
        rows = _base_rows()
        rows[0]["total_packet_count"] = 2.0
        out, audit = clean(_ds(rows))
        assert any(e["rule"] == "tcp_short_handshake" for e in audit)
        assert len(out) == 7

    def test_plausibility_row_drops(self):
        rows = _base_rows()
        rows[2]["flow_end"] = 50.0  # before flow_start
        out, audit = clean(_ds(rows))
        assert any(e["rule"] == "plausibility:end_before_start"
                   for e in audit)
        assert len(out) == 7

    def test_explicit_drop_refuses_label(self):
        with pytest.raises(ConfigError):
            clean(_ds(), CleaningConfig(drop_columns=("label",)))

    def test_missing_heavy_column_dropped(self):
        rows = _base_rows()
        for r in rows:
            r["mostly_nan"] = float("nan")
        kinds = dict(_KINDS, mostly_nan="numeric")
        ds = Dataset.from_rows(rows, kinds)
        out, audit = clean(ds)
        assert "mostly_nan" not in out.names
        assert any(e["rule"] == "missing_columns" for e in audit)

    def test_audit_log_jsonl(self, tmp_path):
        rows = _base_rows()
        rows[1] = dict(rows[0])
        _, audit = clean(_ds(rows))
        path = tmp_path / "audit.jsonl"
        write_audit_log(audit, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(audit)
        assert all(json.loads(line) for line in lines)


class TestStateless:
    def test_derivations(self):
        ds = _ds()
        ds.drop_columns(["total_packet_count", "total_byte_count"])
        out = engineer_stateless(ds)
        np.testing.assert_allclose(
            out.data["total_packet_count"],
            ds.data["fwd_packet_count"] + ds.data["bwd_packet_count"])
        np.testing.assert_allclose(
            out.data["packet_ratio"],
            ds.data["fwd_packet_count"] / ds.data["bwd_packet_count"])

    def test_zero_guards(self):
        rows = _base_rows(1)
        rows[0]["bwd_packet_count"] = 0.0
        rows[0]["bwd_byte_count"] = 0.0
        rows[0]["flow_duration"] = 0.0
        ds = _ds(rows)
        ds.drop_columns(["total_packet_count", "total_byte_count"])
        out = engineer_stateless(ds)
        assert out.data["packet_ratio"][0] == rows[0]["fwd_packet_count"]
        assert out.data["packets_per_second"][0] == 0.0

    def test_never_overwrites(self):
        ds = _ds()
        ds.data["total_packet_count"][:] = -1.0
        out = engineer_stateless(ds)
        assert (out.data["total_packet_count"] == -1.0).all()


class TestStateful:
    def _scan_rows(self):
        # one source opening flows to many ports at 1s spacing
        rows = []
        for i in range(10):
            r = _base_rows(1)[0]
            r["src_ip"] = "10.0.0.1"
            r["dst_ip"] = "192.168.1.1"
            r["dst_port"] = float(1000 + i)
            r["flow_start"] = float(100 + i)
            r["flow_end"] = float(101 + i)
            rows.append(r)
        return rows

    def test_window_counts(self):
        ds = _ds(self._scan_rows())
        out = engineer_stateful(ds, window=5.0)
        # row i sees rows max(0, i-5)..i-1 from the same source
        assert out.data["src_active_flows"][0] == 0
        assert out.data["src_active_flows"][3] == 3
        assert out.data["src_active_flows"][9] == 5
        assert out.data["src_distinct_dst_ports"][9] == 5
        assert out.data["src_new_flow_rate"][9] == pytest.approx(1.0)

    def test_no_lookahead(self):
        ds = _ds(self._scan_rows())
        out_all = engineer_stateful(ds, window=5.0)
        # recompute using only a prefix: earlier rows must be unchanged
        out_prefix = engineer_stateful(ds.subset(range(6)), window=5.0)
        np.testing.assert_array_equal(out_all.data["src_active_flows"][:6],
                                      out_prefix.data["src_active_flows"])

    def test_row_order_invariant(self, rng):
        ds = _ds(self._scan_rows())
        perm = rng.permutation(len(ds))
        shuffled = engineer_stateful(ds.subset(perm), window=5.0)
        straight = engineer_stateful(ds, window=5.0)
        back = {int(r): i for i, r in enumerate(shuffled.row_ids)}
        for i, rid in enumerate(straight.row_ids):
            assert shuffled.data["src_active_flows"][back[int(rid)]] \
                == straight.data["src_active_flows"][i]

    def test_dst_fan_in(self):
        rows = []
        for i in range(6):
            r = _base_rows(1)[0]
            r["src_ip"] = f"10.0.0.{i}"
            r["dst_ip"] = "192.168.1.1"
            r["dst_port"] = 443.0
            r["flow_start"] = float(100 + i)
            rows.append(r)
        out = engineer_stateful(_ds(rows), window=100.0)
        assert list(out.data["dst_unique_sources"]) == [0, 1, 2, 3, 4, 5]
