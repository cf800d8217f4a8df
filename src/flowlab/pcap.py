"""Classic PCAP reading, Ethernet/Raw-IP frame decoding, and a reference writer.

Supports both the microsecond (0xA1B2C3D4) and nanosecond (0xA1B23C4D)
magics in either byte order, and link types Ethernet (1) and Raw-IP (101).
PCAPNG, tunnels and reassembly are out of scope. A single 802.1Q tag is
stripped; anything else non-IP is counted and skipped. IPv4 fragments other
than the first are skipped (no reassembly).

Timestamps are normalized to integer nanoseconds since the epoch.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .errors import (
    DecodeError,
    InvalidArgumentError,
    TruncatedCaptureError,
    TruncatedFrameError,
    UnsupportedFormatError,
    UnsupportedLinkTypeError,
)

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

TCP_FLAG_NAMES = ("fin", "syn", "rst", "psh", "ack", "urg")
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10
TCP_URG = 0x20


@dataclass(slots=True)
class Packet:
    """One decoded IP packet. IPs are packed bytes (4 or 16)."""

    ts: int                 # nanoseconds since epoch
    src_ip: bytes
    dst_ip: bytes
    src_port: int           # 0 for non-TCP/UDP
    dst_port: int
    proto: int
    ip_len: int             # IP-layer length in bytes
    payload_len: int        # transport payload bytes
    tcp_flags: int = 0
    super_packet: bool = False


class NonIP:
    """Marker result for frames that carry no usable IP packet."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"NonIP({self.reason!r})"


@dataclass
class FilterSpec:
    """Conjunctive packet predicate: protocol set AND port set AND prefixes.

    Empty/None clauses match everything. The port clause matches either
    src or dst port; prefixes match either endpoint address.
    """

    protocols: Optional[set[int]] = None
    ports: Optional[set[int]] = None
    prefixes: Optional[list] = None  # list of ip_network

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        protos = set(int(p) for p in d.get("protocols", [])) or None
        ports = set(int(p) for p in d.get("ports", [])) or None
        prefixes = None
        if d.get("prefixes"):
            prefixes = []
            for s in d["prefixes"]:
                try:
                    prefixes.append(ipaddress.ip_network(s, strict=False))
                except ValueError as e:
                    raise InvalidArgumentError(f"bad prefix {s!r}: {e}") from e
        return cls(protocols=protos, ports=ports, prefixes=prefixes)

    def matches(self, pkt: Packet) -> bool:
        if self.protocols is not None and pkt.proto not in self.protocols:
            return False
        if self.ports is not None and (pkt.src_port not in self.ports
                                       and pkt.dst_port not in self.ports):
            return False
        if self.prefixes is not None:
            src = ipaddress.ip_address(pkt.src_ip)
            dst = ipaddress.ip_address(pkt.dst_ip)
            if not any(src in net or dst in net for net in self.prefixes):
                return False
        return True


@dataclass
class IngestConfig:
    sample_n: int = 1
    filter: Optional[FilterSpec] = None
    mtu: int = 1500

    def __post_init__(self):
        if self.sample_n < 1:
            raise InvalidArgumentError("sample_n must be >= 1")
        if self.mtu < 68:
            raise InvalidArgumentError("mtu must be >= 68")


@dataclass
class IngestSummary:
    total_frames: int = 0
    decoded: int = 0
    skipped: int = 0      # non-IP, fragments, undecodable
    truncated: int = 0    # snaplen-cut frames too short to decode
    emitted: int = 0      # after filter + sampling

    def as_dict(self) -> dict:
        return {
            "total_frames": self.total_frames,
            "decoded": self.decoded,
            "skipped": self.skipped,
            "truncated": self.truncated,
            "emitted": self.emitted,
        }


def decode_frame(data: bytes, linktype: int, mtu: int = 1500, ts: int = 0):
    """Decode one captured frame into a Packet, or NonIP if not plain IP.

    Raises DecodeError/TruncatedFrameError for frames that claim to be IP
    but are malformed or cut short.
    """
    if linktype == LINKTYPE_ETHERNET:
        if len(data) < 14:
            raise TruncatedFrameError("frame shorter than Ethernet header", 0)
        ethertype = struct.unpack_from("!H", data, 12)[0]
        off = 14
        if ethertype == 0x8100:  # single 802.1Q tag
            if len(data) < 18:
                raise TruncatedFrameError("frame shorter than 802.1Q header", 14)
            ethertype = struct.unpack_from("!H", data, 16)[0]
            off = 18
        if ethertype == 0x0800:
            return _decode_ipv4(data, off, mtu, ts)
        if ethertype == 0x86DD:
            return _decode_ipv6(data, off, mtu, ts)
        return NonIP(f"ethertype 0x{ethertype:04x}")
    if linktype == LINKTYPE_RAW_IP:
        if len(data) < 1:
            raise TruncatedFrameError("empty raw-IP frame", 0)
        version = data[0] >> 4
        if version == 4:
            return _decode_ipv4(data, 0, mtu, ts)
        if version == 6:
            return _decode_ipv6(data, 0, mtu, ts)
        raise DecodeError(f"raw-IP frame with IP version {version}", 0)
    raise UnsupportedLinkTypeError(f"unsupported link type {linktype}")


def _decode_ipv4(data: bytes, off: int, mtu: int, ts: int):
    if len(data) < off + 20:
        raise TruncatedFrameError("frame shorter than IPv4 header", off)
    vihl = data[off]
    if vihl >> 4 != 4:
        raise DecodeError(f"IPv4 version nibble {vihl >> 4}", off)
    ihl = (vihl & 0x0F) * 4
    if ihl < 20:
        raise DecodeError(f"IPv4 header length {ihl} < 20", off)
    if len(data) < off + ihl:
        raise TruncatedFrameError("frame shorter than declared IPv4 IHL", off)
    total_len = struct.unpack_from("!H", data, off + 2)[0]
    if total_len < ihl:
        raise DecodeError(f"IPv4 total length {total_len} < IHL {ihl}", off + 2)
    flags_frag = struct.unpack_from("!H", data, off + 6)[0]
    frag_offset = flags_frag & 0x1FFF
    if frag_offset != 0:
        return NonIP("ipv4-fragment")
    proto = data[off + 9]
    src = data[off + 12:off + 16]
    dst = data[off + 16:off + 20]
    return _finish_transport(data, off + ihl, ts, src, dst, proto,
                             ip_len=total_len,
                             transport_len=total_len - ihl, mtu=mtu)


def _decode_ipv6(data: bytes, off: int, mtu: int, ts: int):
    if len(data) < off + 40:
        raise TruncatedFrameError("frame shorter than IPv6 header", off)
    if data[off] >> 4 != 6:
        raise DecodeError(f"IPv6 version nibble {data[off] >> 4}", off)
    payload_len = struct.unpack_from("!H", data, off + 4)[0]
    next_header = data[off + 6]
    src = data[off + 8:off + 24]
    dst = data[off + 24:off + 40]
    # extension headers are not walked; treat them as opaque payload
    return _finish_transport(data, off + 40, ts, src, dst, next_header,
                             ip_len=40 + payload_len,
                             transport_len=payload_len, mtu=mtu)


def _finish_transport(data: bytes, toff: int, ts: int, src: bytes, dst: bytes,
                      proto: int, ip_len: int, transport_len: int, mtu: int):
    src_port = dst_port = 0
    tcp_flags = 0
    payload_len = transport_len
    if proto == 6:
        if len(data) < toff + 20 or transport_len < 20:
            raise TruncatedFrameError("frame shorter than TCP header", toff)
        src_port, dst_port = struct.unpack_from("!HH", data, toff)
        doff = (data[toff + 12] >> 4) * 4
        if doff < 20 or transport_len < doff:
            raise DecodeError(f"TCP data offset {doff} invalid", toff + 12)
        tcp_flags = data[toff + 13] & 0x3F
        payload_len = transport_len - doff
    elif proto == 17:
        if len(data) < toff + 8 or transport_len < 8:
            raise TruncatedFrameError("frame shorter than UDP header", toff)
        src_port, dst_port = struct.unpack_from("!HH", data, toff)
        payload_len = transport_len - 8
    return Packet(ts=ts, src_ip=src, dst_ip=dst, src_port=src_port,
                  dst_port=dst_port, proto=proto, ip_len=ip_len,
                  payload_len=payload_len, tcp_flags=tcp_flags,
                  super_packet=ip_len > mtu)


def parse_capture(path, cfg: Optional[IngestConfig] = None):
    """Open a classic PCAP file and return (packet iterator, summary).

    The summary object is updated while the iterator is consumed; its
    counts are final once the iterator is exhausted. The iterator applies
    cfg.filter first, then 1-in-N sampling on the filtered stream.
    """
    cfg = cfg or IngestConfig()
    with open(path, "rb") as f:
        header = f.read(24)
    if len(header) < 24:
        raise UnsupportedFormatError("file too short for PCAP global header")
    magic_be = struct.unpack(">I", header[:4])[0]
    magic_le = struct.unpack("<I", header[:4])[0]
    if magic_le in (MAGIC_MICRO, MAGIC_NANO):
        endian, magic = "<", magic_le
    elif magic_be in (MAGIC_MICRO, MAGIC_NANO):
        endian, magic = ">", magic_be
    else:
        raise UnsupportedFormatError(f"bad PCAP magic 0x{magic_be:08x}")
    subsec_scale = 1 if magic == MAGIC_NANO else 1000
    linktype = struct.unpack(endian + "I", header[20:24])[0]
    if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
        raise UnsupportedLinkTypeError(f"unsupported link type {linktype}")

    summary = IngestSummary()

    def frames() -> Iterator[Packet]:
        rec_hdr = struct.Struct(endian + "IIII")
        offset = 24
        # a handle of its own, opened on the first next(): a stream that is
        # never consumed holds no open file
        with open(path, "rb") as f:
            f.seek(offset)
            while True:
                hdr = f.read(16)
                if not hdr:
                    break
                if len(hdr) < 16:
                    raise TruncatedCaptureError("truncated record header", offset)
                ts_sec, ts_sub, incl_len, orig_len = rec_hdr.unpack(hdr)
                data = f.read(incl_len)
                if len(data) < incl_len:
                    raise TruncatedCaptureError("truncated record body", offset + 16)
                offset += 16 + incl_len
                summary.total_frames += 1
                ts = ts_sec * 1_000_000_000 + ts_sub * subsec_scale
                try:
                    result = decode_frame(data, linktype, cfg.mtu, ts)
                except TruncatedFrameError:
                    summary.truncated += 1
                    continue
                except DecodeError:
                    summary.skipped += 1
                    continue
                if isinstance(result, NonIP):
                    summary.skipped += 1
                    continue
                summary.decoded += 1
                yield result

    stream: Iterable[Packet] = frames()
    if cfg.filter is not None:
        stream = filter_stream(stream, cfg.filter)
    if cfg.sample_n > 1:
        stream = sample_stream(stream, cfg.sample_n)

    def counted():
        for pkt in stream:
            summary.emitted += 1
            yield pkt

    return counted(), summary


def sample_stream(stream: Iterable[Packet], n: int) -> Iterator[Packet]:
    """Deterministic 1-in-N systematic sampling (positions 0, n, 2n, ...)."""
    if n < 1:
        raise InvalidArgumentError("sample_n must be >= 1")
    for i, pkt in enumerate(stream):
        if i % n == 0:
            yield pkt


def filter_stream(stream: Iterable[Packet], spec: FilterSpec) -> Iterator[Packet]:
    """Emit exactly the packets matching the conjunctive spec, in order."""
    for pkt in stream:
        if spec.matches(pkt):
            yield pkt


# ---------------------------------------------------------------------------
# Reference writer (builds Ethernet frames back from Packet values)

def make_packet(ts_ns: int, src_ip: str, dst_ip: str, src_port: int,
                dst_port: int, proto: int, payload_len: int = 0,
                tcp_flags: int = 0, mtu: int = 1500) -> Packet:
    """Build a self-consistent Packet (ip_len derived from payload_len)."""
    src = ipaddress.ip_address(src_ip).packed
    dst = ipaddress.ip_address(dst_ip).packed
    if len(src) != len(dst):
        raise InvalidArgumentError("mixed IPv4/IPv6 endpoints")
    transport_hdr = 20 if proto == 6 else 8 if proto == 17 else 0
    ip_hdr = 20 if len(src) == 4 else 40
    ip_len = ip_hdr + transport_hdr + payload_len
    ports_ok = proto in (6, 17)
    return Packet(ts=ts_ns, src_ip=src, dst_ip=dst,
                  src_port=src_port if ports_ok else 0,
                  dst_port=dst_port if ports_ok else 0,
                  proto=proto, ip_len=ip_len, payload_len=payload_len,
                  tcp_flags=tcp_flags if proto == 6 else 0,
                  super_packet=ip_len > mtu)


def build_frame(pkt: Packet) -> bytes:
    """Serialize a Packet as an Ethernet frame (zero MACs, zero checksums)."""
    v6 = len(pkt.src_ip) == 16
    transport_hdr = 20 if pkt.proto == 6 else 8 if pkt.proto == 17 else 0
    if pkt.proto == 6:
        transport = struct.pack("!HHIIBBHHH", pkt.src_port, pkt.dst_port,
                                0, 0, 5 << 4, pkt.tcp_flags & 0x3F,
                                65535, 0, 0)
    elif pkt.proto == 17:
        transport = struct.pack("!HHHH", pkt.src_port, pkt.dst_port,
                                8 + pkt.payload_len, 0)
    else:
        transport = b""
    payload = bytes(pkt.payload_len)
    if v6:
        ip_payload_len = pkt.ip_len - 40
        ip = struct.pack("!IHBB", 6 << 28, ip_payload_len, pkt.proto, 64) \
            + pkt.src_ip + pkt.dst_ip
        ethertype = 0x86DD
    else:
        ip = struct.pack("!BBHHHBBH", 0x45, 0, pkt.ip_len, 0, 0, 64,
                         pkt.proto, 0) + pkt.src_ip + pkt.dst_ip
        ethertype = 0x0800
    expected = (40 if v6 else 20) + transport_hdr + pkt.payload_len
    if pkt.ip_len != expected:
        raise InvalidArgumentError(
            f"inconsistent Packet: ip_len {pkt.ip_len} != derived {expected}")
    eth = bytes(12) + struct.pack("!H", ethertype)
    return eth + ip + transport + payload


def write_capture(path, packets: Iterable[Packet], nanosecond: bool = True) -> int:
    """Write packets to a classic PCAP file (Ethernet, little-endian).

    Returns the number of records written. Used as the round-trip
    reference for the parser.
    """
    magic = MAGIC_NANO if nanosecond else MAGIC_MICRO
    scale = 1 if nanosecond else 1000
    count = 0
    with open(path, "wb") as f:
        f.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 262144,
                            LINKTYPE_ETHERNET))
        for pkt in packets:
            frame = build_frame(pkt)
            ts_sec, rem = divmod(pkt.ts, 1_000_000_000)
            f.write(struct.pack("<IIII", ts_sec, rem // scale,
                                len(frame), len(frame)))
            f.write(frame)
            count += 1
    return count


def ip_to_str(ip: bytes) -> str:
    if len(ip) == 4:    # the dotted quad ipaddress gives, without its cost
        return "%d.%d.%d.%d" % tuple(ip)
    return str(ipaddress.ip_address(ip))
