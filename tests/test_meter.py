import ipaddress
import math
import tracemalloc
from collections import OrderedDict
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import meter
from flowlab.errors import ConfigError
from flowlab.meter import (CanonicalKey, FlowCache, FlowKey, MeterConfig,
                           canonicalize, column_kinds, dual_hash,
                           feature_column_names, meter_stream,
                           records_to_rows, validity_links, _ip_column,
                           _seconds_column)
from flowlab.pcap import (TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN, Packet,
                          make_packet)
from conftest import synth_capture
from oracles import (_ip_text, _seconds_text, brute_force_flows,
                     finalize_oracle, flow_gaps_oracle, meter_export_oracle,
                     meter_records_summary, two_pass_moments)


def _pkt(ts_s, src, dst, sport, dport, proto=6, payload=100, flags=0):
    return make_packet(int(ts_s * 1e9), src, dst, sport, dport, proto,
                       payload_len=payload, tcp_flags=flags)


def _rows(records, **cfg) -> list[dict]:
    """The rows records_to_rows gives, as column name -> cell dicts."""
    ds = records_to_rows(records, MeterConfig(**cfg))
    return [dict(zip(ds.names, row)) for row in ds]


def _summary(records) -> list:
    return meter_records_summary(records, records_to_rows(records))


def _sized(ts_s, ip_len, fwd=True):
    src, dst = ("10.0.0.1", "10.0.0.2") if fwd else ("10.0.0.2", "10.0.0.1")
    sp, dp = (5000, 80) if fwd else (80, 5000)
    ip = ipaddress.ip_address
    return Packet(ts=int(ts_s * 1e9), src_ip=ip(src).packed,
                  dst_ip=ip(dst).packed, src_port=sp, dst_port=dp,
                  proto=6, ip_len=ip_len, payload_len=0, tcp_flags=TCP_ACK)


class TestKeys:
    def test_canonicalize_direction_free(self):
        k = FlowKey.of(_pkt(0, "10.0.0.9", "10.0.0.1", 40000, 80))
        ck_f, orient_f = canonicalize(k)
        ck_b, orient_b = canonicalize(k.reverse())
        assert ck_f == ck_b
        assert {orient_f, orient_b} == {"forward", "backward"}

    def test_canonical_ordering_by_ip_then_port(self):
        k = FlowKey.of(_pkt(0, "10.0.0.1", "10.0.0.1", 9000, 80))
        ck, orient = canonicalize(k)
        assert (ck.lo_ip, ck.lo_port) == (ipaddress.ip_address("10.0.0.1").packed, 80)
        assert orient == "backward"

    def test_dual_hash_swapped(self):
        k = FlowKey.of(_pkt(0, "1.2.3.4", "5.6.7.8", 1111, 443))
        f, r = dual_hash(k)
        rf, rr = dual_hash(k.reverse())
        assert (f, r) == (rr, rf)
        assert f != r

    def test_hash_stable_across_processes(self):
        # fixed-seed keyed hash: values must not drift between runs
        k = FlowKey.of(_pkt(0, "1.2.3.4", "5.6.7.8", 1111, 443))
        assert dual_hash(k) == dual_hash(k)


class TestFlowCache:
    def test_biflow_counts(self):
        # 4 client->server, 3 server->client packets of one conversation
        pkts = []
        for i, fwd in enumerate([True, False, True, False, True, False, True]):
            src, dst = ("10.0.0.1", "10.0.0.2") if fwd else ("10.0.0.2", "10.0.0.1")
            sp, dp = (5000, 80) if fwd else (80, 5000)
            pkts.append(_pkt(i * 0.1, src, dst, sp, dp))
        (rec,) = recs = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        (row,) = _rows(recs)
        assert row["fwd_packet_count"] == 4
        assert row["bwd_packet_count"] == 3
        assert row["total_packet_count"] == 7
        assert rec.export_reason == "end_of_input"

    def test_forward_is_initiator_not_canonical(self):
        # server (lower canonical endpoint) replies; initiator stays forward
        pkts = [_pkt(0.0, "10.9.9.9", "10.0.0.1", 40000, 80),
                _pkt(0.1, "10.0.0.1", "10.9.9.9", 80, 40000)]
        (rec,) = recs = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        (row,) = _rows(recs)
        assert rec.initiator.src_port == 40000
        assert row["fwd_packet_count"] == 1 and row["bwd_packet_count"] == 1

    def test_idle_split_segments(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80),
                _pkt(1.0, "10.0.0.2", "10.0.0.1", 80, 5000),
                _pkt(40.0, "10.0.0.1", "10.0.0.2", 5000, 80)]
        recs = meter_stream(pkts, MeterConfig(idle_timeout=30.0,
                                              honor_fin_rst=False))
        assert [(r.export_reason, r.segment_index, row["total_packet_count"])
                for r, row in zip(recs, _rows(recs))] \
            == [("idle", 0, 2), ("end_of_input", 1, 1)]

    def test_active_timeout_split(self):
        pkts = [_pkt(t, "10.0.0.1", "10.0.0.2", 5000, 80)
                for t in np.arange(0.0, 70.0, 10.0)]
        recs = meter_stream(pkts, MeterConfig(idle_timeout=15.0,
                                              active_timeout=60.0,
                                              honor_fin_rst=False))
        assert [r.export_reason for r in recs] == ["active", "end_of_input"]
        first, second = _rows(recs)
        assert first["total_packet_count"] == 6
        assert second["total_packet_count"] == 1

    def test_fin_export(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_SYN),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 5000, flags=TCP_ACK),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_FIN),
                _pkt(5.0, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_SYN)]
        recs = meter_stream(pkts, MeterConfig(honor_fin_rst=True))
        assert [r.export_reason for r in recs] == ["fin_rst", "end_of_input"]
        assert _rows(recs)[0]["total_packet_count"] == 3
        assert recs[1].segment_index == 1

    def test_rst_export(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 5000, flags=TCP_RST)]
        recs = meter_stream(pkts, MeterConfig(honor_fin_rst=True))
        assert [r.export_reason for r in recs] == ["fin_rst"]

    def test_udp_ignores_fin_config(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 53, proto=17),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 53, 5000, proto=17)]
        recs = meter_stream(pkts, MeterConfig(honor_fin_rst=True))
        assert [r.export_reason for r in recs] == ["end_of_input"]

    def test_pressure_eviction_lru(self):
        cfg = MeterConfig(max_flows=2, honor_fin_rst=False)
        cache = FlowCache(cfg)
        out = []
        out += cache.process_packet(_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80))
        out += cache.process_packet(_pkt(0.1, "10.0.0.3", "10.0.0.4", 2, 80))
        # touch flow 1 so flow 2 becomes least-recently-updated
        out += cache.process_packet(_pkt(0.2, "10.0.0.1", "10.0.0.2", 1, 80))
        out += cache.process_packet(_pkt(0.3, "10.0.0.5", "10.0.0.6", 3, 80))
        assert len(out) == 1
        assert out[0].export_reason == "pressure"
        assert out[0].initiator.src_ip == ipaddress.ip_address("10.0.0.3").packed
        assert len(cache) == 2

    def test_late_packet_dropped(self):
        cfg = MeterConfig(reorder_slack=1.0, honor_fin_rst=False)
        cache = FlowCache(cfg)
        cache.process_packet(_pkt(100.0, "10.0.0.1", "10.0.0.2", 1, 80))
        cache.process_packet(_pkt(50.0, "10.0.0.3", "10.0.0.4", 2, 80))
        assert cache.dropped_late == 1
        assert len(cache) == 1

    def test_slightly_out_of_order_within_slack(self):
        cfg = MeterConfig(reorder_slack=1.0, honor_fin_rst=False)
        recs = meter_stream([_pkt(10.0, "10.0.0.1", "10.0.0.2", 1, 80),
                             _pkt(9.5, "10.0.0.2", "10.0.0.1", 80, 1)], cfg)
        (row,) = _rows(recs)
        assert row["total_packet_count"] == 2
        assert (row["flow_start"], row["flow_end"]) == ("9.500000000",
                                                        "10.000000000")

    def test_flush_ordered_by_flow_start(self, rng):
        cfg = MeterConfig(honor_fin_rst=False)
        pkts = synth_capture(rng, n_flows=20, idle_gap_prob=0.0,
                             long_lived_prob=0.0)
        recs = meter_stream(pkts, cfg)
        starts = [Decimal(row["flow_start"]) for r, row in zip(recs, _rows(recs))
                  if r.export_reason == "end_of_input"]
        assert starts == sorted(starts)

    def test_splt_capped_and_first_gap_zero(self):
        cfg = MeterConfig(splt_n=4, honor_fin_rst=False)
        pkts = [_pkt(i * 0.5, "10.0.0.1", "10.0.0.2", 1, 80, payload=10 * i)
                for i in range(8)]
        (row,) = _rows(meter_stream(pkts, cfg), splt_n=4)
        assert row["splt_len"] == 4
        # 20 IP + 20 TCP, empty payload
        assert (row["splt_dir_0"], row["splt_size_0"],
                row["splt_piat_0"]) == (1, 40, 0.0)
        assert row["splt_piat_1"] == pytest.approx(0.5)

    def test_splt_columns_cut_or_padded_to_splt_n(self):
        pkts = [_pkt(i * 0.5, "10.0.0.1", "10.0.0.2", 1, 80, payload=10 * i)
                for i in range(4)]
        (rec,) = meter_stream(pkts, MeterConfig(splt_n=4,
                                                honor_fin_rst=False))
        (short,) = _rows([rec], splt_n=2)
        assert [k for k in short if k.startswith("splt_")] == [
            "splt_len", "splt_dir_0", "splt_size_0", "splt_piat_0",
            "splt_dir_1", "splt_size_1", "splt_piat_1"]
        assert short["splt_len"] == 4
        assert (short["splt_dir_1"], short["splt_size_1"]) == (1, 50)
        long = records_to_rows([rec], MeterConfig(splt_n=6))
        (row,) = [dict(zip(long.names, r)) for r in long]
        assert row["splt_len"] == 4
        assert (row["splt_dir_3"], row["splt_size_3"]) == (1, 70)
        assert [row[f"splt_{c}_5"] for c in ("dir", "size", "piat")] \
            == [0, 0, 0.0]
        assert long.data["splt_piat_5"].dtype == np.float64

    def test_splt_direction_signs(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 5000),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 5000, 80)]
        (row,) = _rows(meter_stream(pkts, MeterConfig(honor_fin_rst=False)))
        assert row["splt_len"] == 3
        assert [row[f"splt_dir_{i}"] for i in range(3)] == [1, -1, 1]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            MeterConfig(idle_timeout=300.0, active_timeout=30.0)
        with pytest.raises(ConfigError):
            MeterConfig(lookup="cuckoo")


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pkts = synth_capture(rng, n_flows=60, idle_gap_prob=0.4,
                             long_lived_prob=0.2, idle_timeout=30.0,
                             active_timeout=300.0)
        cfg = MeterConfig(idle_timeout=30.0, active_timeout=300.0,
                          honor_fin_rst=False)
        got = _summary(meter_stream(pkts, cfg))
        want = brute_force_flows(pkts, 30.0, 300.0, honor_fin_rst=False)
        assert got == want

    def test_matches_brute_force_with_fin(self, rng):
        pkts = synth_capture(rng, n_flows=40, with_fin=True)
        cfg = MeterConfig(honor_fin_rst=True)
        got = _summary(meter_stream(pkts, cfg))
        want = brute_force_flows(pkts, 30.0, 300.0, honor_fin_rst=True)
        assert got == want

    def test_packet_and_byte_conservation(self, rng):
        pkts = synth_capture(rng, n_flows=50, idle_gap_prob=0.5)
        table = records_to_rows(meter_stream(
            pkts, MeterConfig(honor_fin_rst=False))).data
        assert sum(table["total_packet_count"]) == len(pkts)
        assert sum(table["total_byte_count"]) == sum(p.ip_len for p in pkts)

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_vs_dual_hash_identical(self, seed):
        rng = np.random.default_rng(seed)
        pkts = synth_capture(rng, n_flows=80, idle_gap_prob=0.4)
        a = meter_stream(pkts, MeterConfig(lookup="canonical",
                                           honor_fin_rst=False))
        b = meter_stream(pkts, MeterConfig(lookup="dual_hash",
                                           honor_fin_rst=False))
        assert _summary(a) == _summary(b)

    @pytest.mark.parametrize("constant_ids", [False, True],
                             ids=["keyed", "one_chain"])
    def test_dual_hash_hashes_each_packet_once(self, monkeypatch,
                                               constant_ids):
        # one id per packet, plus the reverse id of each new flow; with
        # every id equal, all flows share one chain and key equality alone
        # tells them apart
        calls, real = [], meter._hash64
        monkeypatch.setattr(meter, "_hash64", lambda key: calls.append(key)
                            or (7 if constant_ids else real(key)))
        pkts = synth_capture(np.random.default_rng(3), n_flows=60,
                             idle_gap_prob=0.4)
        hashed = meter_stream(pkts, MeterConfig(lookup="dual_hash"))
        assert len(calls) == len(pkts) + len(hashed)
        assert _summary(hashed) == _summary(meter_stream(pkts))

    def test_periodic_scan_drains_idle_flows(self):
        # flow A goes idle, then >1024 packets of flow B arrive: A must be
        # exported by the scan even though its own key never recurs
        cfg = MeterConfig(idle_timeout=5.0, honor_fin_rst=False)
        cache = FlowCache(cfg)
        cache.process_packet(_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80))
        out = []
        for i in range(1200):
            out += cache.process_packet(
                _pkt(100.0 + i * 0.001, "10.0.0.3", "10.0.0.4", 2, 80))
        idle = [r for r in out if r.export_reason == "idle"]
        assert len(idle) == 1
        assert idle[0].initiator.src_port == 1


_UNIT = 250_000_000      # ns: timestamps on a quarter-second grid meet the
                         # timeouts and the slack exactly
_IP = {h: ipaddress.ip_address(h).packed
       for h in ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.9")}
# endpoint pairs; the first two recur most, so they live long enough for
# active timeouts; one pair shares an address, one is a single endpoint
_PAIRS = (("10.0.0.1", 5000, "10.0.0.2", 80),
          ("10.0.0.3", 5001, "10.0.0.2", 80),
          ("10.0.0.1", 5002, "10.0.0.1", 53),
          ("10.0.0.9", 7, "10.0.0.9", 7),
          ("10.0.0.9", 5000, "10.0.0.2", 443),
          ("10.0.0.2", 5003, "10.0.0.1", 80))
# one stream packet per drawn integer, scrambled by a multiplier prime to
# the code count so that small draws still vary every choice: its
# mixed-radix digits pick, in this order, the clock step and how far the
# packet is behind the clock (quarter seconds), a nudge off the grid (ns),
# the endpoint pair, the direction, the protocol and the TCP flags
_PACKET_CHOICES = (
    (0, 0, 1, 1, 2, 3, 6), (0, 0, 0, 0, 1, 2, 4, 8, 16), (0, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5), (True, False), (6, 6, 6, 17),
    (TCP_ACK, TCP_ACK, TCP_ACK | TCP_PSH, TCP_SYN, TCP_FIN | TCP_ACK,
     TCP_RST))
_PACKET_CODES = math.prod(len(c) for c in _PACKET_CHOICES)


def _stream_packet(ts, pair, forward, proto, flags, ip_len=60):
    src, sport, dst, dport = _PAIRS[pair]
    if not forward:
        src, sport, dst, dport = dst, dport, src, sport
    return Packet(ts=ts, src_ip=_IP[src], dst_ip=_IP[dst], src_port=sport,
                  dst_port=dport, proto=proto, ip_len=ip_len, payload_len=0,
                  tcp_flags=flags if proto == 6 else 0)


@st.composite
def _lifecycle_streams(draw):
    """Packets on a quarter-second grid, some nudged 1 ns off it; some
    arrive behind the newest one, within and beyond any reorder slack drawn
    below."""
    codes = draw(st.lists(st.integers(0, _PACKET_CODES - 1), min_size=30,
                          max_size=120))
    clock = 20 * _UNIT
    packets = []
    for code in codes:
        code = code * 100_003 % _PACKET_CODES
        picks = []
        for choices in _PACKET_CHOICES:
            code, i = divmod(code, len(choices))
            picks.append(choices[i])
        step, behind, nudge, pair, forward, proto, flags = picks
        clock += step * _UNIT
        packets.append(_stream_packet(clock - behind * _UNIT + nudge, pair,
                                      forward, proto, flags))
    return packets


def _ckey(c: CanonicalKey) -> tuple:
    return (c.lo_ip, c.lo_port, c.hi_ip, c.hi_port, c.proto)


def _exports(records) -> list:
    """(canonical 5-tuple, segment, reason) of each record, in order."""
    return [(_ckey(r.canonical), r.segment_index, r.export_reason)
            for r in records]


class TestExportOrder:
    @settings(max_examples=500, deadline=None)
    @given(packets=_lifecycle_streams(),
           idle=st.sampled_from((1.0, 1.5, 2.0, 3.0)),
           active_extra=st.sampled_from((0.25, 0.5, 1.0, 2.0, 5.0)),
           slack=st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)),
           max_flows=st.integers(1, 50), honor_fin_rst=st.booleans(),
           lookup=st.sampled_from(("canonical", "dual_hash")),
           scan_interval=st.sampled_from((1, 2, 3, 7, 16, 1024)))
    def test_matches_full_scan_oracle(self, packets, idle, active_extra,
                                      slack, max_flows, honor_fin_rst,
                                      lookup, scan_interval):
        active = idle + active_extra
        cfg = MeterConfig(idle_timeout=idle, active_timeout=active,
                          reorder_slack=slack, max_flows=max_flows,
                          honor_fin_rst=honor_fin_rst, lookup=lookup)
        cache = FlowCache(cfg)
        with mock.patch.object(meter, "SCAN_INTERVAL", scan_interval):
            records = cache.meter(packets)
        want, dropped, _ = meter_export_oracle(
            packets, idle, active, max_flows, slack, honor_fin_rst,
            scan_interval)
        assert _exports(records) == want
        assert cache.dropped_late == dropped
        assert len(cache) == 0

    @pytest.mark.parametrize("times, idle, active, slack, scan", [
        # flow 0 takes a packet exactly one slack behind the watermark; the
        # scan 1 ns past its idle timeout must still find it
        ([(10.0, 0), (9.0, 0), (11.000000001, 1)], 2.0, 10.0, 1.0, 1),
        # both flows pass their active timeout in one scan; creation order
        # (0, 1) differs from LRU order (1, 0), and LRU order wins
        ([(0.0, 0), (0.0, 1), (1.0, 1), (1.5, 0), (2.5, 0), (3.0, 2)],
         2.0, 3.0, 0.0, 6),
        # a late packet expires flow 0 and starts it again behind the
        # watermark; the next scan must find the new segment idle
        ([(0.0, 0), (5.0, 1), (2.5, 0), (5.0, 2)], 2.0, 10.0, 0.5, 4),
    ], ids=["idle_edge_one_ns", "active_in_lru_order", "late_created"])
    def test_scan_boundaries(self, times, idle, active, slack, scan):
        pkts = [_stream_packet(round(t * 1e9), pair, True, 17, 0)
                for t, pair in times]
        cache = FlowCache(MeterConfig(idle_timeout=idle, active_timeout=active,
                                      reorder_slack=slack))
        with mock.patch.object(meter, "SCAN_INTERVAL", scan):
            got = _exports(cache.meter(pkts))
        want, _, _ = meter_export_oracle(pkts, idle, active, 1 << 20, slack,
                                         True, scan)
        assert got == want
        assert want[0][2] in ("idle", "active")

    def test_oracle_stream_exercises_every_reason(self):
        # a hand-made stream for the oracle itself: idle, active, fin_rst,
        # pressure and end_of_input exports plus one late drop
        pkts = [_stream_packet(t * _UNIT, pair, True, 6, flags)
                for t, pair, flags in ((0, 0, TCP_ACK), (1, 1, TCP_ACK),
                                       (2, 0, TCP_ACK), (4, 0, TCP_ACK),
                                       (6, 0, TCP_ACK), (7, 2, TCP_FIN),
                                       (8, 3, TCP_ACK), (9, 4, TCP_ACK),
                                       (9, 1, TCP_ACK), (1, 5, TCP_ACK),
                                       (30, 4, TCP_ACK))]
        want, dropped, _ = meter_export_oracle(pkts, 1.0, 1.25, 3, 1.0, True,
                                               2)
        assert dropped == 1
        assert {reason for _, _, reason in want} == {
            "idle", "active", "fin_rst", "pressure", "end_of_input"}
        cache = FlowCache(MeterConfig(idle_timeout=1.0, active_timeout=1.25,
                                      max_flows=3, reorder_slack=1.0))
        with mock.patch.object(meter, "SCAN_INTERVAL", 2):
            got = _exports(cache.meter(pkts))
        assert got == want and cache.dropped_late == 1


class TestReorderedGaps:
    def test_gap_to_running_maximum_clamped_at_zero(self):
        pkts = [_sized(t, 60) for t in (10.0, 11.0, 10.5)]
        (row,) = _rows(meter_stream(pkts, MeterConfig(honor_fin_rst=False)))
        assert row["fwd_piat_min"] == 0.0
        assert row["fwd_piat_max"] == 1.0
        assert [row[f"splt_piat_{i}"] for i in range(3)] == [0.0, 1.0, 0.0]
        assert (row["flow_start"], row["flow_end"]) == ("10.000000000",
                                                        "11.000000000")

    @settings(max_examples=150, deadline=None)
    @given(slack_units=st.integers(1, 8), data=st.data())
    def test_matches_two_pass_oracle(self, slack_units, data):
        # each packet lands up to one slack after its slot, so the order is
        # shuffled within the slack but no packet is late
        slack_ns = slack_units * _UNIT
        steps = data.draw(st.lists(st.tuples(
            st.integers(0, 4), st.integers(0, slack_ns - 1),
            st.sampled_from((0, 1)), st.booleans(),
            st.integers(40, 1500)), min_size=2, max_size=40))
        clock, pkts = 0, []
        for step, jitter, pair, forward, size in steps:
            clock += step * _UNIT
            pkts.append(_stream_packet(clock + jitter, pair, forward, 17, 0,
                                       size))
        cfg = MeterConfig(idle_timeout=1000.0, active_timeout=2000.0,
                          reorder_slack=slack_units * _UNIT / 1e9,
                          honor_fin_rst=False)
        records = meter_stream(pkts, cfg)
        gaps = flow_gaps_oracle(pkts)
        assert len(records) == len(gaps)
        for rec, row in zip(records, _rows(records, splt_n=cfg.splt_n)):
            want = gaps[_ckey(rec.canonical)]
            for side in ("fwd", "bwd"):
                piat = [g / 1e9 for g in want[side]]
                mean, var, _, _ = two_pass_moments(piat)
                assert row[f"{side}_piat_min"] == (min(piat) if piat else 0.0)
                assert row[f"{side}_piat_max"] == (max(piat) if piat else 0.0)
                assert row[f"{side}_piat_mean"] == pytest.approx(mean,
                                                                 abs=1e-12)
                assert row[f"{side}_piat_var"] == pytest.approx(
                    var, rel=1e-9, abs=1e-12)
            splt = [0.0] + [g / 1e9 for g in want["all"]]
            n = min(len(splt), cfg.splt_n)
            assert row["splt_len"] == n
            assert [row[f"splt_piat_{i}"] for i in range(n)] == splt[:n]


class TestFinalize:
    def test_size_moments_textbook(self):
        sizes = [2, 4, 4, 4, 5, 5, 7, 9]
        pkts = [_sized(i * 0.1, s) for i, s in enumerate(sizes)]
        (row,) = _rows(meter_stream(pkts, MeterConfig(honor_fin_rst=False)))
        assert row["fwd_size_mean"] == pytest.approx(5.0)
        assert row["fwd_size_var"] == pytest.approx(4.0)
        assert row["fwd_size_min"] == 2 and row["fwd_size_max"] == 9
        assert row["fwd_size_mean_valid"] == 1
        assert row["fwd_size_var_valid"] == 1

    def test_undefined_moments_zero_with_flags(self):
        (row,) = _rows(meter_stream([_sized(0.0, 100)],
                                    MeterConfig(honor_fin_rst=False)))
        assert row["fwd_size_var"] == 0.0 and row["fwd_size_var_valid"] == 0
        assert row["fwd_piat_mean"] == 0.0 and row["fwd_piat_mean_valid"] == 0
        assert row["bwd_size_mean"] == 0.0 and row["bwd_size_mean_valid"] == 0
        assert row["fwd_duration"] == 0.0 and row["fwd_duration_valid"] == 0

    def test_ratios_guard_zero_denominator(self):
        (row,) = _rows(meter_stream([_sized(0.0, 100), _sized(0.5, 60)],
                                    MeterConfig(honor_fin_rst=False)))
        assert row["packet_ratio"] == 2.0      # 2 fwd / max(0 bwd, 1)
        assert row["byte_ratio"] == 160.0
        assert row["bytes_per_packet"] == 80.0
        assert row["packets_per_second"] == pytest.approx(4.0)

    def test_flag_counts(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80, flags=TCP_SYN),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 1,
                     flags=TCP_SYN | TCP_ACK),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 1, 80, flags=TCP_ACK)]
        (row,) = _rows(meter_stream(pkts, MeterConfig(honor_fin_rst=False)))
        assert row["flag_syn_count"] == 2
        assert row["flag_ack_count"] == 2
        assert row["flag_fin_count"] == 0

    def test_anonymize_truncates_v4(self):
        recs = meter_stream([_pkt(0.0, "10.1.2.3", "10.4.5.6", 1, 80)],
                            MeterConfig(honor_fin_rst=False))
        (row,) = _rows(recs, anonymize="truncate_v4_24")
        assert row["src_ip"] == "10.1.2.0"
        assert row["dst_ip"] == "10.4.5.0"

    def test_column_contract(self, rng):
        names = feature_column_names(splt_n=20)
        assert len(names) == len(set(names))
        pkts = synth_capture(rng, n_flows=10)
        ds = records_to_rows(meter_stream(pkts,
                                          MeterConfig(honor_fin_rst=False)))
        assert ds.names == names and len(ds) > 0
        assert all(len(row) == len(names) for row in ds)
        assert ds.kinds == column_kinds()
        assert ds.validity_links == validity_links()
        kinds = column_kinds()
        assert kinds["proto"] == "categorical"
        assert kinds["src_ip"] == "metadata"
        assert kinds["fwd_size_mean"] == "numeric"
        links = validity_links()
        assert links["fwd_size_skew"] == "fwd_size_shape_valid"
        assert all(v in names for v in links.values())

    def test_timestamp_decimal_exact(self):
        assert _seconds_column(np.array([1_700_000_000_123_456_789, 5])) \
            == ["1700000000.123456789", "0.000000005"]
        (rec,) = meter_stream([_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80)],
                              MeterConfig(honor_fin_rst=False))
        ds = records_to_rows([rec])
        assert list(ds.data["flow_start"]) == ["0.000000000"]


@settings(max_examples=200, deadline=None)
@given(ns=st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=20),
       ips=st.lists(st.binary(min_size=4, max_size=4)
                    | st.binary(min_size=16, max_size=16), max_size=20),
       anonymize=st.sampled_from(("none", "truncate_v4_24")))
def test_column_text_matches_oracle(ns, ips, anonymize):
    # whole columns of timestamps and addresses, as the oracle writes
    # each: negative ns, IPv4 next to IPv6, the truncated last octet
    assert _seconds_column(np.array(ns, dtype=np.int64)) \
        == list(map(_seconds_text, ns))
    assert _ip_column(ips, anonymize).tolist() \
        == [_ip_text(ip, anonymize) for ip in ips]


# endpoint pairs of the finalize property: IPv4 (one with high octets),
# IPv6 and an IPv4-mapped IPv6 address
_FINAL_PAIRS = tuple(
    (ipaddress.ip_address(a).packed, pa, ipaddress.ip_address(b).packed, pb)
    for a, pa, b, pb in (("10.0.0.1", 5000, "10.0.0.2", 80),
                         ("192.168.255.7", 40000, "10.200.0.2", 443),
                         ("2001:db8::1", 5353, "2001:db8::2", 53),
                         ("::ffff:10.0.0.1", 1, "fe80::1", 2)))


@st.composite
def _finalize_streams(draw):
    """(packets, reorder slack in s): packets on a quarter-second grid,
    most of them nudged off it, some behind the clock by up to the slack.
    Repeated sizes and steps give zero-variance flows; FIN/RST bytes and
    idle gaps give single-packet flows."""
    slack_units = draw(st.integers(0, 4))
    flags = st.sampled_from((TCP_ACK, TCP_ACK | TCP_PSH, TCP_SYN, 0xD0)) \
        | st.integers(0, 255)
    steps = draw(st.lists(st.tuples(
        st.sampled_from((0, 1, 1, 1, 2, 12)), st.integers(0, slack_units),
        st.sampled_from((0, 1)) | st.integers(0, _UNIT - 1),
        st.integers(0, len(_FINAL_PAIRS) - 1), st.booleans(),
        st.sampled_from((6, 6, 17)), flags,
        st.sampled_from((60, 60, 1500)) | st.integers(20, 65535)),
        min_size=10, max_size=80))
    clock, packets = 0, []
    for step, behind, nudge, pair, forward, proto, tcp_flags, size in steps:
        clock += step * _UNIT
        src, sport, dst, dport = _FINAL_PAIRS[pair]
        if not forward:
            src, sport, dst, dport = dst, dport, src, sport
        packets.append(Packet(
            ts=10 ** 18 + clock - behind * _UNIT + nudge, src_ip=src,
            dst_ip=dst, src_port=sport, dst_port=dport, proto=proto,
            ip_len=size, payload_len=max(size - 40, 0),
            tcp_flags=tcp_flags if proto == 6 else 0))
    return packets, slack_units * _UNIT / 1e9


def _oracle_rows(records, packets, cfg, splt_n, anonymize="none") -> list:
    """finalize_oracle's row of each record, built from the packets the
    export oracle gives its segment; the records must come out in the
    oracle's export order."""
    exports, _, segments = meter_export_oracle(
        packets, cfg.idle_timeout, cfg.active_timeout, cfg.max_flows,
        cfg.reorder_slack, cfg.honor_fin_rst)
    assert _exports(records) == exports
    return [finalize_oracle(pkts, reason, seg, cfg.splt_n, splt_n, anonymize)
            for (_, seg, reason), pkts in zip(exports, segments)]


def _assert_columns_match(ds, rows) -> None:
    """Every column of ds equals the oracle rows', numbers bit for bit."""
    assert len(ds) == len(rows)
    for name in ds.names:
        want = [row[name] for row in rows]
        if ds.kinds[name] == "numeric":
            assert [float(v).hex() for v in want] \
                == [v.hex() for v in ds.data[name].tolist()], name
        else:
            assert list(map(str, want)) == list(ds.data[name]), name


class TestFinalizeOracle:
    @settings(max_examples=200, deadline=None)
    @given(stream=_finalize_streams(), meter_splt=st.integers(0, 25),
           splt_n=st.integers(0, 25), honor_fin_rst=st.booleans(),
           anonymize=st.sampled_from(("none", "truncate_v4_24")))
    def test_rows_match_per_record_oracle(self, stream, meter_splt, splt_n,
                                          honor_fin_rst, anonymize):
        packets, slack = stream
        cfg = MeterConfig(idle_timeout=2.0, active_timeout=5.0,
                          reorder_slack=slack, splt_n=meter_splt,
                          honor_fin_rst=honor_fin_rst)
        records = meter_stream(packets, cfg)
        ds = records_to_rows(records, MeterConfig(splt_n=splt_n,
                                                  anonymize=anonymize))
        assert len(ds) == len(records)
        assert ds.names == feature_column_names(splt_n)
        rows = _oracle_rows(records, packets, cfg, splt_n, anonymize)
        for i, want in enumerate(rows):
            assert list(want) == ds.names
            for name, value in want.items():
                got = ds.data[name][i]
                if ds.kinds[name] == "numeric":
                    # bit for bit, so 0.0 and -0.0 differ
                    assert float(got).hex() == float(value).hex(), name
                else:
                    assert got == str(value), name

    def test_synthetic_capture_matches_oracle(self):
        # hundreds of multi-packet flows: thousands of shape-valid moments,
        # enough that a var ** 1.5 off in the last bit cannot hide
        pkts = synth_capture(np.random.default_rng(5), n_flows=300,
                             with_fin=True)
        cfg = MeterConfig(splt_n=8)
        records = meter_stream(pkts, cfg)
        ds = records_to_rows(records, MeterConfig(splt_n=12))
        _assert_columns_match(ds, _oracle_rows(records, pkts, cfg, 12))

    def test_records_of_two_caches_finalize_together(self):
        # each record reads its own cache's table, whatever the mix
        caps = [synth_capture(np.random.default_rng(seed), n_flows=8)
                for seed in (1, 2)]
        a, b = (meter_stream(pkts, MeterConfig(splt_n=6)) for pkts in caps)
        mixed = [r for pair in zip(a, b) for r in pair]
        assert len(a) > 1 and len(b) > 1
        assert _rows(mixed, splt_n=6) == [row for pair in zip(
            _rows(a, splt_n=6), _rows(b, splt_n=6)) for row in pair]

    def test_records_of_two_caches_finalize_in_the_order_given(self):
        # an uneven interleave of two caches' records, neither cache's in
        # export order: each row is the one its record gives alone
        caps = [synth_capture(np.random.default_rng(seed), n_flows=12)
                for seed in (3, 4)]
        a, b = (meter_stream(pkts, MeterConfig(splt_n=5)) for pkts in caps)
        alone = {id(r): row for recs in (a, b)
                 for r, row in zip(recs, _rows(recs, splt_n=7))}
        mixed = a + b
        mixed = [mixed[i] for i in np.random.default_rng(0).permutation(
            len(mixed))]
        assert len(a) > 1 and len(b) > 1 and mixed[:len(a)] != a
        assert _rows(iter(mixed), splt_n=7) == [alone[id(r)] for r in mixed]

    def test_one_table_gives_its_take_arrays_as_they_are(self, monkeypatch):
        records = meter_stream(synth_capture(np.random.default_rng(6),
                                             n_flows=10), MeterConfig())
        taken, take = [], meter.FlowTable.take
        monkeypatch.setattr(meter.FlowTable, "take",
                            lambda *a: taken.append(take(*a)) or taken[-1])
        stats = meter._flow_stats(records[::-1], 20)
        assert len(taken) == 1
        assert all(got is want for got, want in zip(stats, taken[0]))

    def test_no_records_give_an_empty_table(self):
        ds = records_to_rows([], MeterConfig(splt_n=3))
        assert len(ds) == 0 and list(ds) == []
        assert ds.names == feature_column_names(3)
        assert all(len(ds.data[n]) == 0 for n in ds.names)


def _splt_capture(seed: int) -> list:
    """synth_capture's flows plus one IPv6 flow of 65,575-byte packets
    (the largest IP length, past uint16) with a packet reordered within
    the default 1 s slack, so one SPLT gap is clamped at 0."""
    packets = synth_capture(np.random.default_rng(seed), n_flows=40,
                            with_fin=True)
    src, sport, dst, dport = _FINAL_PAIRS[2]
    arrivals = [(p.ts, p) for p in packets]
    for ms, forward, size in ((0, True, 65575), (500, False, 65575),
                              (300, True, 48), (900, True, 65575)):
        s, sp, d, dp = (src, sport, dst, dport) if forward \
            else (dst, dport, src, sport)
        pkt = Packet(ts=packets[0].ts + ms * 1_000_000, src_ip=s, dst_ip=d,
                     src_port=sp, dst_port=dp, proto=17, ip_len=size,
                     payload_len=size - 48, tcp_flags=0)
        # the 300 ms packet arrives after the 500 ms one
        arrivals.append((pkt.ts + (400_000_000 if ms == 300 else 0), pkt))
    return [p for _, p in sorted(arrivals, key=lambda a: a[0])]


class TestSpltGrid:
    """FlowTable.take's SPLT length and grid, and the rows built from them,
    against finalize_oracle, for each way the config's splt_n can relate
    to the metering one."""

    CASES = [(6, 3), (6, 6), (6, 9), (0, 0), (6, 0), (0, 4), (20, 20)]

    @pytest.mark.parametrize("meter_splt, splt_n", CASES)
    def test_take_matches_oracle(self, meter_splt, splt_n):
        packets = _splt_capture(3)
        cfg = MeterConfig(splt_n=meter_splt)
        records = meter_stream(packets, cfg)
        assert max((size.max() for *_, size in records[0].table.splt),
                   default=0) == (65575 if meter_splt else 0)
        flows = np.array([r.flow for r in records])
        ints, moments, splt_len, grid = records[0].table.take(flows, splt_n)
        assert grid.shape == (len(records), splt_n, 3)
        assert grid.dtype == np.float64
        for i, row in enumerate(_oracle_rows(records, packets, cfg, splt_n)):
            assert splt_len[i] == row["splt_len"]
            want = [[row[f"splt_{c}_{k}"] for c in ("dir", "size", "piat")]
                    for k in range(splt_n)]
            assert [[float(v).hex() for v in w] for w in want] \
                == [[v.hex() for v in g] for g in grid[i].tolist()]

    @pytest.mark.parametrize("meter_splt, splt_n", CASES)
    def test_rows_match_oracle(self, meter_splt, splt_n):
        packets = _splt_capture(4)
        cfg = MeterConfig(splt_n=meter_splt)
        records = meter_stream(packets, cfg)
        _assert_columns_match(records_to_rows(records, MeterConfig(
            splt_n=splt_n)), _oracle_rows(records, packets, cfg, splt_n))

    @pytest.mark.parametrize("meter_splt, splt_n", CASES)
    def test_rows_of_two_tables_match_oracle(self, meter_splt, splt_n):
        # the concatenate path of _flow_stats: the records of two caches
        cfg = MeterConfig(splt_n=meter_splt)
        captures = [_splt_capture(seed) for seed in (5, 6)]
        parts = [meter_stream(packets, cfg) for packets in captures]
        want = [row for packets, records in zip(captures, parts)
                for row in _oracle_rows(records, packets, cfg, splt_n)]
        assert parts[0][0].table is not parts[1][0].table
        _assert_columns_match(records_to_rows(
            parts[0] + parts[1], MeterConfig(splt_n=splt_n)), want)

    def test_take_of_a_flow_asked_twice_gives_it_twice(self):
        records = meter_stream(_splt_capture(8), MeterConfig(splt_n=6))
        table, flows = records[0].table, np.array([r.flow for r in records])
        twice = np.r_[flows, flows[::-1]]
        for once, both in zip(table.take(flows, 6), table.take(twice, 6)):
            assert np.array_equal(np.r_[once, once[::-1]], both)
        assert table.take(flows, 6)[3][:, 1:, 2].any()

    @pytest.mark.parametrize("splt_n", [20, 3])
    def test_table_holds_368_bytes_a_flow_and_25_a_splt_packet(self, splt_n):
        records = meter_stream(_splt_capture(7), MeterConfig(splt_n=splt_n))
        table = records[0].table
        assert len(table.ints) >= table.flows > 0
        packets = table.ints[:table.flows, :, 0].sum(axis=1)
        entries = sum(len(flow) for flow, *_ in table.splt)
        assert entries == np.minimum(packets, splt_n).sum() > table.flows
        assert sum(a.nbytes for a in table.arrays()) \
            + sum(a.nbytes for entry in table.splt for a in entry) \
            <= 368 * len(table.ints) + 25 * entries


def _elephant_capture() -> list:
    """One bidirectional 20,000-packet TCP flow among 500 short ones (1 to
    6 packets), every packet up to half a second after its slot, so the
    order is shuffled within a 1 s reorder slack but nothing is late."""
    rng = np.random.default_rng(11)
    slots = [(i * 1_000_000, 0, bool(rng.random() < 0.6))
             for i in range(20_000)]
    for flow in range(1, 501):
        t = int(rng.integers(0, 20_000_000_000))
        for _ in range(int(rng.integers(1, 7))):
            slots.append((t, flow, bool(rng.random() < 0.5)))
            t += int(rng.integers(0, 50_000_000))
    slots.sort(key=lambda slot: slot[0])
    ip = ipaddress.ip_address
    packets = []
    for t, flow, forward in slots:
        ends = [(ip("10.0.0.1").packed, 40000 + flow),
                (ip(f"10.1.{flow // 256}.{flow % 256}").packed, 443)]
        (src, sport), (dst, dport) = ends if forward else ends[::-1]
        size, tcp = int(rng.integers(40, 1500)), flow % 3 < 2
        packets.append(Packet(
            ts=t + int(rng.integers(0, 500_000_000)), src_ip=src, dst_ip=dst,
            src_port=sport, dst_port=dport, proto=6 if tcp else 17,
            ip_len=size, payload_len=size - 40,
            tcp_flags=int(rng.integers(0, 64)) if tcp else 0))
    return packets


class TestFold:
    @pytest.mark.parametrize("fold, vector_min", [
        (97, meter._VECTOR_MIN), (meter._FOLD, meter._VECTOR_MIN),
        (meter._FOLD, 1)], ids=["fold_97", "default", "all_vectorized"])
    def test_elephant_among_short_flows(self, fold, vector_min):
        packets = _elephant_capture()
        cfg = MeterConfig(honor_fin_rst=False)
        cache = FlowCache(cfg)
        records, logged = [], 0
        with mock.patch.object(meter, "_FOLD", fold), \
                mock.patch.object(meter, "_VECTOR_MIN", vector_min):
            for pkt in packets:
                records += cache.process_packet(pkt)
                logged = max(logged, len(cache.table.log) // 6)
            records += cache.flush()
        assert logged == fold - 1      # folded at every fold-th packet
        assert len(records) == 501
        ds = records_to_rows(records, cfg)
        assert max(ds.data["total_packet_count"]) == 20_000
        _assert_columns_match(ds, _oracle_rows(records, packets, cfg, 20))


class _CountedValues(OrderedDict):
    """An OrderedDict that counts the values its values() walks hand out."""

    visited = 0

    def values(self):
        for value in super().values():
            self.visited += 1
            yield value


class TestScanWork:
    def test_scans_skip_resident_flows(self):
        # 100k flows stay resident, none expires: the periodic scans must
        # look at a few entries each, not at every resident flow
        flows = 100_000
        cache = FlowCache(MeterConfig(idle_timeout=600.0,
                                      active_timeout=1200.0, splt_n=0,
                                      honor_fin_rst=False))
        cache._entries, cache._born = _CountedValues(), _CountedValues()
        for i in range(flows):
            pkt = _pkt(i * 0.0005, f"10.{i >> 16}.{i >> 8 & 255}.{i & 255}",
                       "10.200.0.1", 1024 + i % 50_000, 443)
            assert cache.process_packet(pkt) == []
        assert len(cache) == flows
        scans = flows // meter.SCAN_INTERVAL
        assert scans >= 90
        # each scan stops at the first entry of each walk
        assert cache._entries.visited + cache._born.visited <= 2 * scans


def test_finalize_and_write_stay_within_their_memory_peak(tmp_path):
    # a memory regression guard: the tracemalloc peak of records_to_rows
    # plus to_csv on 6,848 short flows (16,528 packets) was 14,826,554
    # bytes when set; 15% above it fails
    cfg = MeterConfig()
    records = FlowCache(cfg).meter(synth_capture(
        np.random.default_rng(0), n_flows=3000, max_pkts=8))
    assert len(records) == 6848
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        records_to_rows(iter(records), cfg).to_csv(tmp_path / "flows.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * 14_826_554
