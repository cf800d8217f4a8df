"""Classic PCAP reading, Ethernet/Raw-IP frame decoding, and a reference writer.

Supports both the microsecond (0xA1B2C3D4) and nanosecond (0xA1B23C4D)
magics in either byte order, and link types Ethernet (1) and Raw-IP (101).
PCAPNG, tunnels and reassembly are out of scope. A single 802.1Q tag is
stripped; anything else non-IP is counted and skipped. IPv4 fragments other
than the first are skipped (no reassembly).

The capture is read in chunks of CHUNK_BYTES. A Python loop walks only the
16-byte record headers; the header fields of a chunk's frames are then
gathered by numpy index arithmetic, and one mask per check, in the order of
the checks, marks each frame decoded, skipped or truncated.

Timestamps are normalized to integer nanoseconds since the epoch.
"""

from __future__ import annotations

import ipaddress
import itertools
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DataError,
    InvalidArgumentError,
    TruncatedCaptureError,
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


@dataclass
class FilterSpec:
    """Conjunctive packet predicate: protocol set AND port set AND prefixes.

    Empty/None clauses match everything. The port clause matches either
    src or dst port; prefixes match either endpoint address.
    """

    protocols: Optional[set[int]] = None
    ports: Optional[set[int]] = None
    prefixes: Optional[list] = None  # (address bytes, network, mask) ints

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        """From {"protocols": [int], "ports": [int], "prefixes": [str]},
        each key optional; InvalidArgumentError on any other shape."""
        types = {"protocols": int, "ports": int, "prefixes": str}
        if not (isinstance(d, dict) and set(d) <= set(types) and all(
                isinstance(v, list) and all(type(x) is types[k] for x in v)
                for k, v in d.items())):
            raise InvalidArgumentError(
                f"bad filter {d!r}: protocols and ports take lists of "
                "ints, prefixes a list of strings")
        protos = set(d.get("protocols", [])) or None
        ports = set(d.get("ports", [])) or None
        prefixes = None
        if d.get("prefixes"):
            prefixes = []
            for s in d["prefixes"]:
                try:
                    net = ipaddress.ip_network(s, strict=False)
                except ValueError as e:
                    raise InvalidArgumentError(f"bad prefix {s!r}: {e}") from e
                prefixes.append((net.max_prefixlen // 8,
                                 int(net.network_address), int(net.netmask)))
        return cls(protocols=protos, ports=ports, prefixes=prefixes)

    def matches(self, pkt: Packet) -> bool:
        if self.protocols is not None and pkt.proto not in self.protocols:
            return False
        if self.ports is not None and (pkt.src_port not in self.ports
                                       and pkt.dst_port not in self.ports):
            return False
        if self.prefixes is not None:
            src, dst = pkt.src_ip, pkt.dst_ip
            a, b = int.from_bytes(src, "big"), int.from_bytes(dst, "big")
            for size, net, mask in self.prefixes:
                if ((len(src) == size and a & mask == net)
                        or (len(dst) == size and b & mask == net)):
                    return True
            return False
        return True


@dataclass
class IngestConfig:
    """Sampling, filter and MTU applied while reading a capture."""

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
    """Frame counts of one capture read, by outcome."""

    total_frames: int = 0
    decoded: int = 0
    skipped: int = 0      # non-IP, fragments, undecodable
    truncated: int = 0    # snaplen-cut frames too short to decode
    emitted: int = 0      # after filter + sampling

    def as_dict(self) -> dict:
        return asdict(self)


# Bytes read from the capture per step. The decoder holds one chunk plus
# the record that straddles its end, so memory does not grow with the file.
CHUNK_BYTES = 1 << 20

# A frame's fields are read at most 92 bytes past its start (802.1Q tag,
# 60-byte IPv4 header, TCP flags byte). With this much zero padding after a
# chunk, every read stays in bounds whatever the frames' lengths; the masks
# then discard what a short frame read past its end.
_PAD = bytes(96)

_TRUNCATED, _SKIPPED = 1, 2


def _open(path):
    try:
        return open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot read capture: {e}") from None


def parse_capture(path, cfg: Optional[IngestConfig] = None):
    """Open a classic PCAP file and return (packet iterator, summary).

    The summary object is updated while the iterator is consumed; its
    counts are final once the iterator is exhausted. The iterator applies
    cfg.filter first, then 1-in-N sampling on the filtered stream.
    """
    cfg = cfg or IngestConfig()
    with _open(path) as f:
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
        incl_len = struct.Struct(endian + "I").unpack_from
        buf = bytearray()       # one buffer, reused for every chunk
        offset, kept = 24, 0    # file offset of buf[0]; bytes carried over
        # a handle of its own, opened on the first next(): a stream that is
        # never consumed holds no open file
        with _open(path) as f:
            f.seek(offset)
            while True:
                stop = kept + CHUNK_BYTES
                if len(buf) < stop + len(_PAD):     # a record past a chunk
                    buf.extend(bytes(stop + len(_PAD) - len(buf)))
                with memoryview(buf) as view:
                    stop = kept + f.readinto(view[kept:stop])
                if stop == kept:
                    break
                buf[stop:stop + len(_PAD)] = _PAD
                # the record walk, in Python: only the record headers. The
                # padding keeps each read in bounds, and a record whose
                # header runs past stop also ends past it.
                starts, p = [], 0
                while (q := p + 16 + incl_len(buf, p + 8)[0]) <= stop:
                    starts.append(p)
                    p = q
                if starts:
                    columns, outcomes = _decode_records(
                        buf, starts, endian, subsec_scale, linktype, cfg.mtu)
                    decoded, truncated, skipped = outcomes
                    summary.total_frames += len(starts)
                    summary.decoded += decoded
                    summary.truncated += truncated
                    summary.skipped += skipped
                    yield from map(Packet, *columns)
                offset, kept = offset + p, stop - p
                if p:
                    buf[:kept] = buf[p:stop]
        if kept >= 16:
            raise TruncatedCaptureError("truncated record body", offset + 16)
        if kept:
            raise TruncatedCaptureError("truncated record header", offset)

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


def _uint(a: np.ndarray, pos: np.ndarray, width: int, endian: str = ">"):
    """The unsigned ints of width bytes at positions pos of a, as int64."""
    if width == 1:
        return a[pos].astype(np.int64)
    cells = a[pos[:, None] + np.arange(width)]
    return cells.view(f"{endian}u{width}")[:, 0].astype(np.int64)


def _addresses(a: np.ndarray, pos: np.ndarray, width: int) -> list:
    """The width-byte strings at positions pos of a. A void view, unlike a
    bytes ("S") one, keeps trailing zero bytes."""
    return a[pos[:, None] + np.arange(width)].view(f"V{width}")[:, 0].tolist()


def _decode_records(chunk: bytearray, starts: list, endian: str,
                    subsec_scale: int, linktype: int, mtu: int):
    """Decode the records whose headers start at offsets starts of chunk.

    Returns the Packet fields of the decoded frames as one list per field,
    in Packet's order, and the (decoded, truncated, skipped) counts. A
    frame is truncated when it is cut inside a header it claims, and
    skipped when it carries no plain IP packet: a non-IP ethertype, a bad
    IP version, IHL, total length or TCP data offset, or an IPv4 fragment
    other than the first. Each check marks only frames that passed every
    earlier one, so each frame gets the outcome of its first failed check.
    """
    a = np.frombuffer(chunk, np.uint8)
    hdr = np.asarray(starts, np.int64)
    ts = (_uint(a, hdr, 4, endian) * 1_000_000_000
          + _uint(a, hdr + 4, 4, endian) * subsec_scale)
    length = _uint(a, hdr + 8, 4, endian)
    s = hdr + 16                            # frame starts
    outcome = np.zeros(len(hdr), np.int8)   # 0: decoded

    def fail(mask, why):
        outcome[mask & (outcome == 0)] = why

    if linktype == LINKTYPE_ETHERNET:
        fail(length < 14, _TRUNCATED)
        ethertype = _uint(a, s + 12, 2)
        tagged = ethertype == 0x8100        # a single 802.1Q tag
        fail(tagged & (length < 18), _TRUNCATED)
        ethertype = np.where(tagged, _uint(a, s + 16, 2), ethertype)
        off = np.where(tagged, 18, 14)
        v4, v6 = ethertype == 0x0800, ethertype == 0x86DD
    else:
        fail(length < 1, _TRUNCATED)
        version = a[s] >> 4
        v4, v6 = version == 4, version == 6
        off = 0
    fail(~(v4 | v6), _SKIPPED)
    ip = s + off
    version = a[ip] >> 4
    fail(v4 & (length < off + 20) | v6 & (length < off + 40), _TRUNCATED)
    fail(v4 & (version != 4) | v6 & (version != 6), _SKIPPED)
    ihl = (_uint(a, ip, 1) & 0x0F) * 4
    fail(v4 & (ihl < 20), _SKIPPED)
    fail(v4 & (length < off + ihl), _TRUNCATED)
    total_len = _uint(a, ip + 2, 2)
    fail(v4 & (total_len < ihl), _SKIPPED)
    fail(v4 & (_uint(a, ip + 6, 2) & 0x1FFF != 0), _SKIPPED)  # fragment
    # extension headers are not walked; IPv6 treats them as opaque payload
    v6_payload = _uint(a, ip + 4, 2)
    proto = np.where(v4, a[ip + 9], a[ip + 6])
    ip_len = np.where(v4, total_len, 40 + v6_payload)
    transport_len = np.where(v4, total_len - ihl, v6_payload)
    toff = off + np.where(v4, ihl, 40)
    tcp, udp = proto == 6, proto == 17
    fail(tcp & ((length < toff + 20) | (transport_len < 20))
         | udp & ((length < toff + 8) | (transport_len < 8)), _TRUNCATED)
    doff = (_uint(a, s + toff + 12, 1) >> 4) * 4
    fail(tcp & ((doff < 20) | (transport_len < doff)), _SKIPPED)

    k = np.flatnonzero(outcome == 0)
    v4, tcp, udp, ip, ip_len = v4[k], tcp[k], udp[k], ip[k], ip_len[k]
    t = (s + toff)[k]
    ports = tcp | udp
    src, dst = np.empty(len(k), object), np.empty(len(k), object)
    for rows, at, width in ((v4, 12, 4), (~v4, 8, 16)):
        pos = ip[rows] + at
        src[rows] = _addresses(a, pos, width)
        dst[rows] = _addresses(a, pos + width, width)
    columns = (ts[k], src, dst,
               np.where(ports, _uint(a, t, 2), 0),
               np.where(ports, _uint(a, t + 2, 2), 0),
               proto[k], ip_len,
               transport_len[k] - np.where(tcp, doff[k], np.where(udp, 8, 0)),
               np.where(tcp, a[t + 13] & 0x3F, 0),
               ip_len > mtu)
    return ([c.tolist() for c in columns],
            np.bincount(outcome, minlength=3).tolist())


def sample_stream(stream: Iterable[Packet], n: int) -> Iterator[Packet]:
    """Deterministic 1-in-N systematic sampling (positions 0, n, 2n, ...)."""
    if n < 1:
        raise InvalidArgumentError("sample_n must be >= 1")
    return itertools.islice(stream, 0, None, n)


def filter_stream(stream: Iterable[Packet], spec: FilterSpec) -> Iterator[Packet]:
    """Emit exactly the packets matching the conjunctive spec, in order."""
    return filter(spec.matches, stream)


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
