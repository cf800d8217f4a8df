import ipaddress
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowlab import meter
from flowlab.errors import ConfigError
from flowlab.meter import (CanonicalKey, FlowCache, FlowKey, MeterConfig,
                           canonicalize, column_kinds, dual_hash,
                           feature_column_names, finalize_features,
                           meter_stream, records_to_rows, validity_links,
                           _ts_decimal)
from flowlab.pcap import (TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN, Packet,
                          make_packet)
from flowlab.stats import two_pass_moments
from conftest import synth_capture
from oracles import (brute_force_flows, flow_gaps_oracle, meter_export_oracle,
                     meter_records_summary)


def _pkt(ts_s, src, dst, sport, dport, proto=6, payload=100, flags=0):
    return make_packet(int(ts_s * 1e9), src, dst, sport, dport, proto,
                       payload_len=payload, tcp_flags=flags)


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
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        assert rec.fwd.pkt_count == 4
        assert rec.bwd.pkt_count == 3
        assert rec.total_packets == 7
        assert rec.export_reason == "end_of_input"

    def test_forward_is_initiator_not_canonical(self):
        # server (lower canonical endpoint) replies; initiator stays forward
        pkts = [_pkt(0.0, "10.9.9.9", "10.0.0.1", 40000, 80),
                _pkt(0.1, "10.0.0.1", "10.9.9.9", 80, 40000)]
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        assert rec.initiator.src_port == 40000
        assert rec.fwd.pkt_count == 1 and rec.bwd.pkt_count == 1

    def test_idle_split_segments(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80),
                _pkt(1.0, "10.0.0.2", "10.0.0.1", 80, 5000),
                _pkt(40.0, "10.0.0.1", "10.0.0.2", 5000, 80)]
        recs = meter_stream(pkts, MeterConfig(idle_timeout=30.0,
                                              honor_fin_rst=False))
        assert [(r.export_reason, r.segment_index, r.total_packets)
                for r in recs] == [("idle", 0, 2), ("end_of_input", 1, 1)]

    def test_active_timeout_split(self):
        pkts = [_pkt(t, "10.0.0.1", "10.0.0.2", 5000, 80)
                for t in np.arange(0.0, 70.0, 10.0)]
        recs = meter_stream(pkts, MeterConfig(idle_timeout=15.0,
                                              active_timeout=60.0,
                                              honor_fin_rst=False))
        assert [r.export_reason for r in recs] == ["active", "end_of_input"]
        assert recs[0].total_packets == 6 and recs[1].total_packets == 1

    def test_fin_export(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_SYN),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 5000, flags=TCP_ACK),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_FIN),
                _pkt(5.0, "10.0.0.1", "10.0.0.2", 5000, 80, flags=TCP_SYN)]
        recs = meter_stream(pkts, MeterConfig(honor_fin_rst=True))
        assert [r.export_reason for r in recs] == ["fin_rst", "end_of_input"]
        assert recs[0].total_packets == 3
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
        (rec,) = recs
        assert rec.total_packets == 2
        assert rec.flow_start == int(9.5e9) and rec.flow_end == int(10e9)

    def test_flush_ordered_by_flow_start(self, rng):
        cfg = MeterConfig(honor_fin_rst=False)
        pkts = synth_capture(rng, n_flows=20, idle_gap_prob=0.0,
                             long_lived_prob=0.0)
        recs = meter_stream(pkts, cfg)
        ends = [r for r in recs if r.export_reason == "end_of_input"]
        starts = [r.flow_start for r in ends]
        assert starts == sorted(starts)

    def test_splt_capped_and_first_gap_zero(self):
        cfg = MeterConfig(splt_n=4, honor_fin_rst=False)
        pkts = [_pkt(i * 0.5, "10.0.0.1", "10.0.0.2", 1, 80, payload=10 * i)
                for i in range(8)]
        (rec,) = meter_stream(pkts, cfg)
        assert len(rec.splt) == 4
        assert rec.splt[0] == (1, 40, 0.0)  # 20 IP + 20 TCP, empty payload
        assert rec.splt[1][2] == pytest.approx(0.5)

    def test_splt_columns_cut_or_padded_to_splt_n(self):
        pkts = [_pkt(i * 0.5, "10.0.0.1", "10.0.0.2", 1, 80, payload=10 * i)
                for i in range(4)]
        (rec,) = meter_stream(pkts, MeterConfig(splt_n=4,
                                                honor_fin_rst=False))
        short = finalize_features(rec, splt_n=2)
        assert [k for k in short if k.startswith("splt_")] == [
            "splt_len", "splt_dir_0", "splt_size_0", "splt_piat_0",
            "splt_dir_1", "splt_size_1", "splt_piat_1"]
        assert (short["splt_dir_1"], short["splt_size_1"]) == (1, 50)
        long = finalize_features(rec, splt_n=6)
        assert long["splt_len"] == 4
        assert (long["splt_dir_3"], long["splt_size_3"]) == (1, 70)
        assert [long[f"splt_{c}_5"] for c in ("dir", "size", "piat")] \
            == [0, 0, 0.0]
        assert type(long["splt_piat_5"]) is float

    def test_splt_direction_signs(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 5000, 80),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 5000),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 5000, 80)]
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        assert [d for d, _, _ in rec.splt] == [1, -1, 1]

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
        got = meter_records_summary(meter_stream(pkts, cfg))
        want = brute_force_flows(pkts, 30.0, 300.0, honor_fin_rst=False)
        assert got == want

    def test_matches_brute_force_with_fin(self, rng):
        pkts = synth_capture(rng, n_flows=40, with_fin=True)
        cfg = MeterConfig(honor_fin_rst=True)
        got = meter_records_summary(meter_stream(pkts, cfg))
        want = brute_force_flows(pkts, 30.0, 300.0, honor_fin_rst=True)
        assert got == want

    def test_packet_and_byte_conservation(self, rng):
        pkts = synth_capture(rng, n_flows=50, idle_gap_prob=0.5)
        recs = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        assert sum(r.total_packets for r in recs) == len(pkts)
        assert sum(r.total_bytes for r in recs) == sum(p.ip_len for p in pkts)

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_vs_dual_hash_identical(self, seed):
        rng = np.random.default_rng(seed)
        pkts = synth_capture(rng, n_flows=80, idle_gap_prob=0.4)
        a = meter_stream(pkts, MeterConfig(lookup="canonical",
                                           honor_fin_rst=False))
        b = meter_stream(pkts, MeterConfig(lookup="dual_hash",
                                           honor_fin_rst=False))
        assert meter_records_summary(a) == meter_records_summary(b)

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
        want, dropped = meter_export_oracle(
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
        want, _ = meter_export_oracle(pkts, idle, active, 1 << 20, slack,
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
        want, dropped = meter_export_oracle(pkts, 1.0, 1.25, 3, 1.0, True, 2)
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
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec)
        assert row["fwd_piat_min"] == 0.0
        assert row["fwd_piat_max"] == 1.0
        assert [gap for _, _, gap in rec.splt] == [0.0, 1.0, 0.0]
        assert (rec.flow_start, rec.flow_end) == (int(10e9), int(11e9))

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
        for rec in records:
            want = gaps[_ckey(rec.canonical)]
            row = finalize_features(rec, splt_n=cfg.splt_n)
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
            assert [gap for _, _, gap in rec.splt] == splt[:cfg.splt_n]


class TestFinalize:
    def test_size_moments_textbook(self):
        sizes = [2, 4, 4, 4, 5, 5, 7, 9]
        pkts = [_sized(i * 0.1, s) for i, s in enumerate(sizes)]
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec)
        assert row["fwd_size_mean"] == pytest.approx(5.0)
        assert row["fwd_size_var"] == pytest.approx(4.0)
        assert row["fwd_size_min"] == 2 and row["fwd_size_max"] == 9
        assert row["fwd_size_mean_valid"] == 1
        assert row["fwd_size_var_valid"] == 1

    def test_undefined_moments_zero_with_flags(self):
        (rec,) = meter_stream([_sized(0.0, 100)],
                              MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec)
        assert row["fwd_size_var"] == 0.0 and row["fwd_size_var_valid"] == 0
        assert row["fwd_piat_mean"] == 0.0 and row["fwd_piat_mean_valid"] == 0
        assert row["bwd_size_mean"] == 0.0 and row["bwd_size_mean_valid"] == 0
        assert row["fwd_duration"] == 0.0 and row["fwd_duration_valid"] == 0

    def test_ratios_guard_zero_denominator(self):
        (rec,) = meter_stream([_sized(0.0, 100), _sized(0.5, 60)],
                              MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec)
        assert row["packet_ratio"] == 2.0      # 2 fwd / max(0 bwd, 1)
        assert row["byte_ratio"] == 160.0
        assert row["bytes_per_packet"] == 80.0
        assert row["packets_per_second"] == pytest.approx(4.0)

    def test_flag_counts(self):
        pkts = [_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80, flags=TCP_SYN),
                _pkt(0.1, "10.0.0.2", "10.0.0.1", 80, 1,
                     flags=TCP_SYN | TCP_ACK),
                _pkt(0.2, "10.0.0.1", "10.0.0.2", 1, 80, flags=TCP_ACK)]
        (rec,) = meter_stream(pkts, MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec)
        assert row["flag_syn_count"] == 2
        assert row["flag_ack_count"] == 2
        assert row["flag_fin_count"] == 0

    def test_anonymize_truncates_v4(self):
        (rec,) = meter_stream([_pkt(0.0, "10.1.2.3", "10.4.5.6", 1, 80)],
                              MeterConfig(honor_fin_rst=False))
        row = finalize_features(rec, anonymize="truncate_v4_24")
        assert row["src_ip"] == "10.1.2.0"
        assert row["dst_ip"] == "10.4.5.0"

    def test_column_contract(self, rng):
        names = feature_column_names(splt_n=20)
        assert len(names) == len(set(names))
        pkts = synth_capture(rng, n_flows=10)
        for rec in meter_stream(pkts, MeterConfig(honor_fin_rst=False)):
            assert list(finalize_features(rec).keys()) == names
        kinds = column_kinds()
        assert kinds["proto"] == "categorical"
        assert kinds["src_ip"] == "metadata"
        assert kinds["fwd_size_mean"] == "numeric"
        links = validity_links()
        assert links["fwd_size_skew"] == "fwd_size_shape_valid"
        assert all(v in names for v in links.values())

    def test_timestamp_decimal_exact(self):
        assert _ts_decimal(1_700_000_000_123_456_789) \
            == "1700000000.123456789"
        assert _ts_decimal(5) == "0.000000005"
        (rec,) = meter_stream([_pkt(0.0, "10.0.0.1", "10.0.0.2", 1, 80)],
                              MeterConfig(honor_fin_rst=False))
        (row,) = records_to_rows([rec])
        assert row["flow_start"] == "0.000000000"
