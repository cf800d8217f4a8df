import dataclasses
import gc
import hashlib
import ipaddress
import struct
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowlab
from flowlab import pcap
from flowlab.errors import (InvalidArgumentError, TruncatedCaptureError,
                            UnsupportedFormatError, UnsupportedLinkTypeError)
from flowlab.pcap import (FilterSpec, IngestConfig, Packet, build_frame,
                          filter_stream, ip_to_str, make_packet,
                          parse_capture, sample_stream, write_capture, TCP_SYN)
from conftest import pcap_bytes
from oracles import read_capture


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

    def test_huge_record_length_is_truncated_capture(self, tmp_path):
        # the claimed length is never allocated: the capture ends first
        path = tmp_path / "huge.pcap"
        path.write_bytes(pcap_bytes([])
                         + struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 0xFFFFFFF0)
                         + bytes(100))
        stream, _ = parse_capture(path)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedCaptureError) as exc:
                list(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.offset == 40
        assert peak < 4 * pcap.CHUNK_BYTES

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


def _parse_frames(tmp_path, frames, linktype=1, mtu=1500):
    """The packets and summary of a capture holding frames, all at ts 0."""
    path = tmp_path / "frames.pcap"
    path.write_bytes(pcap_bytes([(0, f) for f in frames], linktype))
    stream, summary = parse_capture(path, IngestConfig(mtu=mtu))
    return list(stream), summary


class TestDecodeFrame:
    def test_minimal_tcp_syn(self, tmp_path):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 1234, 80, 6,
                          tcp_flags=TCP_SYN)
        (decoded,), _ = _parse_frames(tmp_path, [build_frame(pkt)])
        assert decoded.proto == 6
        assert decoded.ip_len == 40
        assert decoded.payload_len == 0
        assert decoded.tcp_flags == TCP_SYN

    def test_super_packet_flagged(self, tmp_path):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 1, 2, 17,
                          payload_len=9000 - 28)
        (decoded,), _ = _parse_frames(tmp_path, [build_frame(pkt)], mtu=1500)
        assert decoded.ip_len == 9000
        assert decoded.super_packet

    def test_vlan_tag_transparent(self, tmp_path):
        pkt = make_packet(0, "1.2.3.4", "5.6.7.8", 10, 20, 17, payload_len=4)
        frame = build_frame(pkt)
        tagged = frame[:12] + struct.pack("!HH", 0x8100, 100) + frame[12:]
        (plain, via_tag), _ = _parse_frames(tmp_path, [frame, tagged])
        assert plain == via_tag == pkt

    def test_ipv6_round_trip(self, tmp_path):
        pkt = make_packet(0, "2001:db8::1", "2001:db8::2", 40000, 443, 6,
                          payload_len=100)
        (decoded,), _ = _parse_frames(tmp_path, [build_frame(pkt)])
        assert decoded == pkt

    def test_non_tcp_udp_ports_zero(self, tmp_path):
        pkt = make_packet(0, "1.1.1.1", "2.2.2.2", 0, 0, 1, payload_len=8)
        (decoded,), _ = _parse_frames(tmp_path, [build_frame(pkt)])
        assert decoded.src_port == 0 and decoded.dst_port == 0

    def test_ipv4_fragment_skipped(self, tmp_path):
        frame = bytearray(build_frame(make_packet(0, "1.1.1.1", "2.2.2.2",
                                                  1, 2, 17, payload_len=8)))
        frame[14 + 6:14 + 8] = struct.pack("!H", 0x00FF)  # frag offset 255
        pkts, summary = _parse_frames(tmp_path, [bytes(frame)])
        assert pkts == [] and summary.skipped == 1


@st.composite
def _frame(draw, linktype):
    """A frame of arbitrary bytes, or a valid one, maybe tagged, with a few
    bytes overwritten and maybe cut short."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    width = draw(st.sampled_from([4, 16]))
    src, dst = (str(ipaddress.ip_address(draw(st.binary(min_size=width,
                                                        max_size=width))))
                for _ in range(2))
    pkt = make_packet(0, src, dst, draw(st.integers(0, 65535)),
                      draw(st.integers(0, 65535)),
                      draw(st.sampled_from([6, 17, 1])),
                      payload_len=draw(st.integers(0, 24)),
                      tcp_flags=draw(st.integers(0, 0x3F)))
    frame = bytearray(build_frame(pkt))
    if linktype == 101:
        del frame[:14]
    elif draw(st.booleans()):
        frame[12:12] = struct.pack("!HH", 0x8100, 1)
    for _ in range(draw(st.integers(0, 3))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(
            st.integers(0, 255))
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(frame)


@st.composite
def _capture(draw, max_frames):
    """The bytes of a classic PCAP file of _frame records, and the file
    offset at which each record ends."""
    linktype = draw(st.sampled_from([1, 101]))
    frames = draw(st.lists(_frame(linktype), min_size=1, max_size=max_frames))
    data = pcap_bytes([(i * 1_000_003_000, f) for i, f in enumerate(frames)],
                      linktype, big_endian=draw(st.booleans()),
                      nanosecond=draw(st.booleans()))
    return data, 24 + np.cumsum([16 + len(f) for f in frames])


def _drain(path, mtu=1500):
    """(packet tuples, summary, TruncatedCaptureError or None) of a parse."""
    stream, summary = parse_capture(path, IngestConfig(mtu=mtu))
    got = []
    try:
        for pkt in stream:
            got.append(dataclasses.astuple(pkt))
    except TruncatedCaptureError as e:
        return got, summary, e
    return got, summary, None


def _same_as_oracle(path, data, mtu=1500):
    got, summary, error = _drain(path, mtu)
    packets, counts, cut = read_capture(data, mtu)
    assert got == packets
    assert {k: getattr(summary, k) for k in counts} == counts
    if cut is None:
        assert error is None
    else:
        assert error is not None
        assert (str(error), error.offset) == (f"{cut[0]} (offset {cut[1]})",
                                              cut[1])


# Both properties read in chunks of a few dozen bytes, so that records
# straddle chunks and a record can span several.
@settings(max_examples=300, deadline=None)
@given(capture=_capture(max_frames=8), tail=st.binary(max_size=40),
       mtu=st.integers(68, 1500), chunk=st.integers(1, 64))
def test_decode_matches_oracle(tmp_path_factory, capture, tail, mtu, chunk):
    # the tail's bytes make record headers that claim any length, so a
    # parse may also end in TruncatedCaptureError; any other exception fails
    data = capture[0] + tail
    path = tmp_path_factory.mktemp("decode") / "capture.pcap"
    path.write_bytes(data)
    with mock.patch.object(pcap, "CHUNK_BYTES", chunk):
        _same_as_oracle(path, data, mtu)


@settings(max_examples=25, deadline=None)
@given(capture=_capture(max_frames=4), chunk=st.integers(1, 64))
def test_every_cut_point(tmp_path_factory, capture, chunk):
    data, ends = capture
    path = tmp_path_factory.mktemp("cut") / "capture.pcap"
    with mock.patch.object(pcap, "CHUNK_BYTES", chunk):
        for cut in range(24, len(data) + 1):
            path.write_bytes(data[:cut])
            _same_as_oracle(path, data[:cut])
            if cut == 24 or cut in ends:    # a record boundary ends cleanly
                assert _drain(path)[2] is None


@settings(max_examples=50, deadline=None)
@given(capture=_capture(max_frames=6), chunk=st.integers(1, 64))
def test_decode_records_the_digest_of_what_it_read(tmp_path_factory, capture,
                                                   chunk):
    # the header and every chunk are hashed as they are read; a parse cut
    # short by a truncated record records nothing
    data = capture[0]
    path = tmp_path_factory.mktemp("digest") / "capture.pcap"
    for size in (len(data), len(data) - 1):
        path.write_bytes(data[:size])
        flowlab.read_digests.clear()
        with mock.patch.object(pcap, "CHUNK_BYTES", chunk):
            error = _drain(path)[2]
        assert (error is None) == (size == len(data))
        assert flowlab.read_digests == ({} if error else {
            path: hashlib.sha256(data).hexdigest()})


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.tuples(st.ip_addresses(v=4),
                                        st.integers(0, 32)),
                              st.tuples(st.ip_addresses(v=6),
                                        st.integers(0, 128))),
                    min_size=1, max_size=4), st.data())
    def test_prefix_matches_ipaddress_membership(self, prefixes, data):
        nets = [ipaddress.ip_network(f"{a}/{n}", strict=False)
                for a, n in prefixes]

        def near(net):
            # inside the prefix, or one bit outside its last prefix bit
            inside = st.integers(0, net.num_addresses - 1).map(
                lambda k: net.network_address + k)
            if not net.prefixlen:
                return inside
            flip = 1 << (net.max_prefixlen - net.prefixlen)
            return inside | st.just(type(net.network_address)(
                int(net.network_address) ^ flip))

        src, dst = (data.draw(st.sampled_from(nets).flatmap(near)
                              | st.ip_addresses()) for _ in range(2))
        pkt = Packet(ts=0, src_ip=src.packed, dst_ip=dst.packed,
                     src_port=1, dst_port=2, proto=17, ip_len=28,
                     payload_len=0)
        spec = FilterSpec.from_dict({"prefixes": [str(n) for n in nets]})
        assert spec.matches(pkt) == any(src in n or dst in n for n in nets)

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
