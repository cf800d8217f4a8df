import gc
import ipaddress
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowlab.errors import (InvalidArgumentError, TruncatedCaptureError,
                            UnsupportedFormatError, UnsupportedLinkTypeError)
from flowlab.pcap import (FilterSpec, IngestConfig, Packet, NonIP,
                          build_frame, decode_frame, filter_stream,
                          ip_to_str, make_packet, parse_capture,
                          sample_stream, write_capture, TCP_SYN)


def _udp(ts_s, src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=53,
         payload=10):
    return make_packet(int(ts_s * 1e9), src, dst, sport, dport, 17,
                       payload_len=payload)


class TestParseCapture:
    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_capture(path, [])
        stream, summary = parse_capture(path)
        assert list(stream) == []
        assert summary.total_frames == 0
        assert summary.decoded == 0

    def test_nanosecond_timestamp(self, tmp_path):
        path = tmp_path / "one.pcap"
        write_capture(path, [make_packet(1_000_000_500, "10.0.0.1",
                                         "10.0.0.2", 1, 2, 17)],
                      nanosecond=True)
        stream, _ = parse_capture(path)
        (pkt,) = list(stream)
        assert pkt.ts == 1_000_000_500

    def test_non_ip_frames_skipped(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        write_capture(path, [make_packet(int(i * 1e9), "10.0.0.1",
                                         "10.0.0.2", 5, 80, 6)
                             for i in range(100)])
        # append 5 ARP frames by hand
        arp = bytes(12) + struct.pack("!H", 0x0806) + bytes(28)
        with open(path, "ab") as f:
            for i in range(5):
                f.write(struct.pack("<IIII", 200 + i, 0, len(arp), len(arp)))
                f.write(arp)
        stream, summary = parse_capture(path)
        pkts = list(stream)
        assert len(pkts) == 100
        assert summary.skipped == 5
        assert summary.total_frames == 105
        assert summary.decoded + summary.skipped + summary.truncated \
            == summary.total_frames

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(UnsupportedFormatError):
            parse_capture(path)

    def test_truncated_record_header_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_capture(path, [_udp(1)])
        data = path.read_bytes()
        path.write_bytes(data[:-len(build_frame(_udp(1))) - 8])
        stream, _ = parse_capture(path)
        with pytest.raises(TruncatedCaptureError) as exc:
            list(stream)
        assert exc.value.offset == 24

    def test_unknown_linktype(self, tmp_path):
        path = tmp_path / "lt.pcap"
        write_capture(path, [])
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", 113)  # SLL
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedLinkTypeError):
            parse_capture(path)

    def test_big_endian_microsecond(self, tmp_path):
        pkt = _udp(1.5)
        frame = build_frame(pkt)
        path = tmp_path / "be.pcap"
        with open(path, "wb") as f:
            f.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
            f.write(struct.pack(">IIII", 1, 500000, len(frame), len(frame)))
            f.write(frame)
        stream, _ = parse_capture(path)
        (got,) = list(stream)
        assert got.ts == 1_500_000_000

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_stream_opens_its_own_file(self, tmp_path, monkeypatch):
        # a ResourceWarning from a file closed by the collector is raised
        # in a destructor, where it reaches sys.unraisablehook
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        path = tmp_path / "two.pcap"
        write_capture(path, [_udp(1), _udp(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            stream, _ = parse_capture(path)      # never consumed
            del stream
            stream, _ = parse_capture(path)      # consumed in part
            assert next(stream) == _udp(1)
            stream.close()
            del stream
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_round_trip_random(self, tmp_path, rng):
        pkts = []
        for i in range(200):
            proto = int(rng.choice([6, 17, 1]))
            pkts.append(make_packet(
                int(rng.integers(0, 10 ** 12)),
                f"10.0.{rng.integers(256)}.{rng.integers(1, 255)}",
                f"10.1.{rng.integers(256)}.{rng.integers(1, 255)}",
                int(rng.integers(1, 65536)), int(rng.integers(1, 65536)),
                proto, payload_len=int(rng.integers(0, 1400)),
                tcp_flags=int(rng.integers(0, 64))))
        path = tmp_path / "rt.pcap"
        write_capture(path, pkts)
        stream, summary = parse_capture(path)
        got = list(stream)
        assert got == pkts
        assert summary.decoded == len(pkts)


class TestDecodeFrame:
    def test_minimal_tcp_syn(self):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 1234, 80, 6,
                          tcp_flags=TCP_SYN)
        decoded = decode_frame(build_frame(pkt), 1)
        assert decoded.proto == 6
        assert decoded.ip_len == 40
        assert decoded.payload_len == 0
        assert decoded.tcp_flags == TCP_SYN

    def test_super_packet_flagged(self):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 1, 2, 17,
                          payload_len=9000 - 28)
        decoded = decode_frame(build_frame(pkt), 1, mtu=1500)
        assert decoded.ip_len == 9000
        assert decoded.super_packet

    def test_vlan_tag_transparent(self):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 10, 20, 17, payload_len=4)
        frame = build_frame(pkt)
        tagged = frame[:12] + struct.pack("!HH", 0x8100, 100) + frame[12:]
        plain = decode_frame(frame, 1)
        via_tag = decode_frame(tagged, 1)
        assert (plain.src_ip, plain.dst_ip, plain.src_port, plain.dst_port,
                plain.proto) == (via_tag.src_ip, via_tag.dst_ip,
                                 via_tag.src_port, via_tag.dst_port,
                                 via_tag.proto)

    def test_ipv6_round_trip(self):
        pkt = make_packet(0, "2001:db8::1", "2001:db8::2", 40000, 443, 6,
                          payload_len=100)
        decoded = decode_frame(build_frame(pkt), 1)
        assert decoded == pkt

    def test_non_tcp_udp_ports_zero(self):
        pkt = make_packet(0, "1.1.1.1", "2.2.2.2", 0, 0, 1, payload_len=8)
        decoded = decode_frame(build_frame(pkt), 1)
        assert decoded.src_port == 0 and decoded.dst_port == 0

    def test_ipv4_fragment_skipped(self):
        frame = bytearray(build_frame(make_packet(0, "1.1.1.1", "2.2.2.2",
                                                  1, 2, 17, payload_len=8)))
        frame[14 + 6:14 + 8] = struct.pack("!H", 0x00FF)  # frag offset 255
        assert isinstance(decode_frame(bytes(frame), 1), NonIP)


class TestSampleStream:
    def test_identity(self):
        pkts = [_udp(i) for i in range(10)]
        assert list(sample_stream(iter(pkts), 1)) == pkts

    def test_one_in_three(self):
        pkts = [_udp(i) for i in range(10)]
        got = list(sample_stream(iter(pkts), 3))
        assert got == [pkts[0], pkts[3], pkts[6], pkts[9]]

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            list(sample_stream(iter([]), 0))

    def test_count_ceiling(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            size = int(rng.integers(0, 100))
            pkts = [_udp(i) for i in range(size)]
            assert len(list(sample_stream(iter(pkts), n))) == -(-size // n)

    def test_piat_inflation(self, rng):
        # 1-in-N sampling inflates mean inter-arrival times ~N-fold
        gaps = rng.exponential(1.0, 100_000)
        ts = np.cumsum(gaps)
        pkts = [_udp(t) for t in ts]
        sampled = list(sample_stream(iter(pkts), 4))
        sampled_ts = np.asarray([p.ts for p in sampled]) / 1e9
        mean_piat = np.diff(sampled_ts).mean()
        assert abs(mean_piat - 4.0) / 4.0 < 0.10


class TestFilterStream:
    def test_empty_predicate_identity(self):
        pkts = [_udp(i) for i in range(5)]
        assert list(filter_stream(iter(pkts), FilterSpec())) == pkts

    def test_proto_port(self):
        tcp443 = make_packet(0, "1.1.1.1", "2.2.2.2", 5, 443, 6)
        udp443 = make_packet(0, "1.1.1.1", "2.2.2.2", 5, 443, 17)
        tcp80 = make_packet(0, "1.1.1.1", "2.2.2.2", 5, 80, 6)
        spec = FilterSpec(protocols={6}, ports={443})
        got = list(filter_stream(iter([tcp443, udp443, tcp80]), spec))
        assert got == [tcp443]

    def test_prefix(self):
        inside = make_packet(0, "10.1.2.3", "172.16.0.1", 1, 2, 17)
        outside = make_packet(0, "192.168.0.1", "172.16.0.1", 1, 2, 17)
        spec = FilterSpec.from_dict({"prefixes": ["10.0.0.0/8"]})
        assert list(filter_stream(iter([inside, outside]), spec)) == [inside]

    def test_bad_prefix(self):
        with pytest.raises(InvalidArgumentError):
            FilterSpec.from_dict({"prefixes": ["10.0.0.0/99"]})

    def test_filter_sample_order_and_determinism(self, rng):
        pkts = [make_packet(int(i * 1e9), "10.0.0.1", "10.0.0.2", 5,
                            int(rng.choice([80, 443])), 6)
                for i in range(50)]
        spec = FilterSpec(ports={443})
        a = list(sample_stream(filter_stream(iter(pkts), spec), 2))
        b = list(sample_stream(filter_stream(iter(pkts), spec), 2))
        assert a == b
        c = list(filter_stream(sample_stream(iter(pkts), 2), spec))
        assert all(p.dst_port == 443 for p in a + c)


@given(ip=st.binary(min_size=4, max_size=4) | st.binary(min_size=16,
                                                        max_size=16))
def test_ip_to_str_matches_ipaddress(ip):
    assert ip_to_str(ip) == str(ipaddress.ip_address(ip))
