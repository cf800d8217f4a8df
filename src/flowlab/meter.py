"""Bidirectional flow metering: hash-based flow cache, expiration lifecycle,
streaming per-direction statistics and feature finalization.

Virtual time only: every lifecycle decision is driven by packet timestamps,
so a capture replays to bit-identical flow records. Expiry is lazy (checked
when a flow's own key recurs) plus a periodic scan every SCAN_INTERVAL
processed packets so idle flows whose key never recurs still drain.

The scan costs O(expired), not O(resident), in the style of Varghese &
Lauck's timing wheels (SOSP 1987). Every entry remembers the watermark at
its last update (``wm``) and at its creation (``born``). A packet is late
when it is more than ``reorder_slack`` behind the watermark; any entry that
took a late packet is a straggler until it is exported. Every other entry
has ``last_pkt_ts >= wm - slack`` and ``flow_start >= born - slack``, and
the watermark never decreases, so ``wm`` grows along the LRU order and
``born`` along the creation order. The scan walks each order only up to the
first entry that cannot have expired, adds the stragglers, and exports in
LRU order with idle taking precedence over active, exactly as a full walk of
the resident flows would.

Forward direction of a record is the orientation of the first packet seen
for that segment (initiator-first), independent of the canonical key order.
Inter-arrival times are measured against the running maximum timestamp (of
the direction for PIAT, of the flow for the SPLT gap) and clamped at 0, so
packets reordered within the slack never give a negative gap.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import ConfigError
from .pcap import (Packet, TCP_FIN, TCP_RST, TCP_FLAG_NAMES, ip_to_str)
from .stats import Moments

SCAN_INTERVAL = 1024
_HASH_KEY = b"flowlab-dualhash"  # fixed seed: hashes are stable across runs

REASON_IDLE = "idle"
REASON_ACTIVE = "active"
REASON_FIN_RST = "fin_rst"
REASON_PRESSURE = "pressure"
REASON_END = "end_of_input"


class FlowKey(NamedTuple):
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    proto: int

    def reverse(self) -> "FlowKey":
        return FlowKey(self.dst_ip, self.src_ip, self.dst_port,
                       self.src_port, self.proto)

    @classmethod
    def of(cls, pkt: Packet) -> "FlowKey":
        return cls(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port,
                   pkt.proto)


class CanonicalKey(NamedTuple):
    """Direction-free 5-tuple: endpoints ordered by (ip bytes, port)."""

    lo_ip: bytes
    lo_port: int
    hi_ip: bytes
    hi_port: int
    proto: int


def canonicalize(key: FlowKey) -> tuple[CanonicalKey, str]:
    """Return the canonical key plus the key's orientation relative to it.

    "forward" means key.src is the lower-ordered endpoint.
    """
    a = (key.src_ip, key.src_port)
    b = (key.dst_ip, key.dst_port)
    if a <= b:
        return CanonicalKey(a[0], a[1], b[0], b[1], key.proto), "forward"
    return CanonicalKey(b[0], b[1], a[0], a[1], key.proto), "backward"


def _hash64(key: tuple) -> int:
    src_ip, dst_ip, src_port, dst_port, proto = key
    h = hashlib.blake2b(digest_size=8, key=_HASH_KEY)
    h.update(src_ip)
    h.update(dst_ip)
    h.update(struct.pack("!HHB", src_port, dst_port, proto))
    return int.from_bytes(h.digest(), "big")


def _reversed(key: tuple) -> tuple:
    return (key[1], key[0], key[3], key[2], key[4])


def dual_hash(key: FlowKey) -> tuple[int, int]:
    """(forward flow id, reverse flow id) under a fixed seeded 64-bit hash."""
    return _hash64(key), _hash64(_reversed(key))


@dataclass
class DirStats:
    pkt_count: int = 0
    byte_count: int = 0
    payload_bytes: int = 0
    first_ts: int = 0
    last_ts: int = 0            # running maximum timestamp
    size: Moments = field(default_factory=Moments)
    piat: Moments = field(default_factory=Moments)
    flags_seen: dict = field(default_factory=dict)  # raw tcp_flags -> packets

    def add(self, pkt: Packet) -> None:
        ts = pkt.ts
        if self.pkt_count == 0:
            self.first_ts = self.last_ts = ts
        else:
            gap = ts - self.last_ts
            if gap >= 0:
                self.piat.push(gap / 1e9)
                self.last_ts = ts
            else:
                self.piat.push(0.0)
                if ts < self.first_ts:
                    self.first_ts = ts
        self.pkt_count += 1
        self.byte_count += pkt.ip_len
        self.payload_bytes += pkt.payload_len
        self.size.push(float(pkt.ip_len))
        if pkt.proto == 6:
            seen = self.flags_seen
            flags = pkt.tcp_flags
            seen[flags] = seen.get(flags, 0) + 1


@dataclass
class FlowRecord:
    canonical: CanonicalKey
    initiator: FlowKey          # 5-tuple of the segment's first packet
    fwd: DirStats
    bwd: DirStats
    splt: list                  # (direction ±1, ip_len, gap seconds)
    export_reason: str
    segment_index: int

    @property
    def flow_start(self) -> int:
        if self.bwd.pkt_count == 0:
            return self.fwd.first_ts
        return min(self.fwd.first_ts, self.bwd.first_ts)

    @property
    def flow_end(self) -> int:
        if self.bwd.pkt_count == 0:
            return self.fwd.last_ts
        return max(self.fwd.last_ts, self.bwd.last_ts)

    @property
    def total_packets(self) -> int:
        return self.fwd.pkt_count + self.bwd.pkt_count

    @property
    def total_bytes(self) -> int:
        return self.fwd.byte_count + self.bwd.byte_count


@dataclass
class MeterConfig:
    idle_timeout: float = 30.0
    active_timeout: float = 300.0
    max_flows: int = 1 << 20
    lookup: str = "canonical"       # canonical | dual_hash
    splt_n: int = 20
    honor_fin_rst: bool = True
    anonymize: str = "none"         # none | truncate_v4_24
    reorder_slack: float = 1.0

    def __post_init__(self):
        if not (0 < self.idle_timeout < self.active_timeout):
            raise ConfigError("need 0 < idle_timeout < active_timeout")
        if self.max_flows < 1:
            raise ConfigError("max_flows must be >= 1")
        if self.splt_n < 0:
            raise ConfigError("splt_n must be >= 0")
        if self.lookup not in ("canonical", "dual_hash"):
            raise ConfigError(f"unknown lookup strategy {self.lookup!r}")
        if self.anonymize not in ("none", "truncate_v4_24"):
            raise ConfigError(f"unknown anonymize mode {self.anonymize!r}")


class _Entry:
    __slots__ = ("canonical", "initiator", "fwd", "bwd", "splt",
                 "segment_index", "flow_start", "last_pkt_ts", "wm", "born",
                 "seq")

    def __init__(self, canonical: CanonicalKey, initiator: FlowKey,
                 segment_index: int, ts: int, watermark: int):
        self.canonical = canonical
        self.initiator = initiator
        self.fwd = DirStats()
        self.bwd = DirStats()
        self.splt = []
        self.segment_index = segment_index
        self.flow_start = ts
        self.last_pkt_ts = ts
        self.wm = watermark         # watermark at the last update
        self.born = watermark       # watermark at creation
        self.seq = 0                # LRU rank: packets processed before it


class FlowCache:
    """Single-writer flow cache. process_packet/flush return exported records."""

    def __init__(self, cfg: Optional[MeterConfig] = None):
        self.cfg = cfg or MeterConfig()
        self._idle_ns = int(self.cfg.idle_timeout * 1e9)
        self._active_ns = int(self.cfg.active_timeout * 1e9)
        self._slack_ns = int(self.cfg.reorder_slack * 1e9)
        self._hashed = self.cfg.lookup == "dual_hash"
        # keyed by the canonical 5-tuple, least-recently-updated first
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._born: dict[tuple, _Entry] = {}    # the same, in creation order
        self._stragglers: dict[tuple, _Entry] = {}  # took a late packet
        # dual_hash strategy: 64-bit id -> list of canonical keys (chained)
        self._ids: dict[int, list[tuple]] = {}
        self._segments: dict[tuple, int] = {}
        self._watermark = 0
        self._processed = 0
        self.dropped_late = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup_ids(self, key: tuple) -> Optional[_Entry]:
        rev = _reversed(key)
        for fid in (_hash64(key), _hash64(rev)):
            for ckey in self._ids.get(fid, ()):
                entry = self._entries.get(ckey)
                if entry is not None and (entry.initiator == key
                                          or entry.initiator == rev):
                    return entry
        return None

    def _register(self, entry: _Entry) -> None:
        ckey = entry.canonical
        self._entries[ckey] = entry
        self._born[ckey] = entry
        if self._hashed:
            for fid in set(dual_hash(entry.initiator)):
                self._ids.setdefault(fid, []).append(ckey)

    def _export(self, entry: _Entry, reason: str) -> FlowRecord:
        ckey = entry.canonical
        del self._entries[ckey]
        del self._born[ckey]
        self._stragglers.pop(ckey, None)
        if self._hashed:
            for fid in set(dual_hash(entry.initiator)):
                keys = self._ids[fid]
                keys.remove(ckey)
                if not keys:
                    del self._ids[fid]
        return FlowRecord(canonical=ckey, initiator=entry.initiator,
                          fwd=entry.fwd, bwd=entry.bwd, splt=entry.splt,
                          export_reason=reason,
                          segment_index=entry.segment_index)

    def process_packet(self, pkt: Packet) -> list[FlowRecord]:
        cfg = self.cfg
        exported: list[FlowRecord] = []
        ts = pkt.ts
        src, dst, sport, dport = pkt.src_ip, pkt.dst_ip, pkt.src_port, \
            pkt.dst_port
        key = (src, dst, sport, dport, pkt.proto)
        if src < dst or (src == dst and sport <= dport):
            ckey = (src, sport, dst, dport, pkt.proto)
        else:
            ckey = (dst, dport, src, sport, pkt.proto)
        entries = self._entries
        entry = (self._lookup_ids(key) if self._hashed
                 else entries.get(ckey))

        late = ts < self._watermark - self._slack_ns
        if late and entry is None:
            self.dropped_late += 1
            return exported
        if ts > self._watermark:
            self._watermark = ts

        # lazy expiry of the matching entry before applying the packet
        if entry is not None:
            if ts - entry.last_pkt_ts > self._idle_ns:
                exported.append(self._export(entry, REASON_IDLE))
                entry = None
            elif ts - entry.flow_start >= self._active_ns:
                exported.append(self._export(entry, REASON_ACTIVE))
                entry = None
            else:
                entries.move_to_end(ckey)
                entry.wm = self._watermark

        if entry is None:
            if len(entries) >= cfg.max_flows:
                victim = next(iter(entries.values()))
                exported.append(self._export(victim, REASON_PRESSURE))
            seg = self._segments.get(ckey, 0)
            self._segments[ckey] = seg + 1
            entry = _Entry(CanonicalKey._make(ckey), FlowKey._make(key), seg,
                           ts, self._watermark)
            self._register(entry)
        if late:
            self._stragglers[ckey] = entry
        entry.seq = self._processed

        fwd, bwd = entry.fwd, entry.bwd
        forward = key == entry.initiator
        splt = entry.splt
        if len(splt) < cfg.splt_n:
            if splt:
                top = fwd.last_ts if bwd.pkt_count == 0 \
                    else max(fwd.last_ts, bwd.last_ts)
                gap = (ts - top) / 1e9 if ts > top else 0.0
            else:
                gap = 0.0
            splt.append((1 if forward else -1, pkt.ip_len, gap))
        (fwd if forward else bwd).add(pkt)
        entry.last_pkt_ts = ts

        if (cfg.honor_fin_rst and pkt.proto == 6
                and pkt.tcp_flags & (TCP_FIN | TCP_RST)):
            exported.append(self._export(entry, REASON_FIN_RST))

        self._processed += 1
        if self._processed % SCAN_INTERVAL == 0:
            exported.extend(self._scan())
        return exported

    def _scan(self) -> list[FlowRecord]:
        """Export every resident flow that is idle or past its active
        timeout at the watermark W, in LRU order, idle before active.

        A flow that took no late packet has ``last_pkt_ts >= wm - slack``
        and ``flow_start >= born - slack``; ``wm`` never decreases along the
        LRU order and ``born`` never decreases along the creation order. So
        no flow from the first LRU entry with ``wm - slack >= W - idle`` on
        can be idle, no flow from the first created entry with
        ``born - slack > W - active`` on can be past its active timeout, and
        only those prefixes plus the stragglers need a look. The cost is
        the flows that expire plus those updated within the last slack.
        """
        watermark, slack = self._watermark, self._slack_ns
        idle_edge = watermark - self._idle_ns
        active_edge = watermark - self._active_ns
        found = []
        for entry in self._entries.values():
            if entry.wm - slack >= idle_edge:
                break
            found.append(entry)
        more = []
        for entry in self._born.values():
            if entry.born - slack > active_edge:
                break
            more.append(entry)
        more.extend(self._stragglers.values())
        if more:
            found = sorted({e.canonical: e for e in found + more}.values(),
                           key=lambda e: e.seq)
        out = []
        for entry in found:
            if entry.last_pkt_ts < idle_edge:
                out.append(self._export(entry, REASON_IDLE))
            elif entry.flow_start <= active_edge:
                out.append(self._export(entry, REASON_ACTIVE))
        return out

    def flush(self, final_ts: Optional[int] = None) -> list[FlowRecord]:
        """Drain every resident flow (reason end_of_input), by flow_start."""
        entries = sorted(self._entries.values(), key=lambda e: e.flow_start)
        return [self._export(e, REASON_END) for e in entries]

    def meter(self, packets: Iterable[Packet]) -> list[FlowRecord]:
        """Process a packet stream to completion, including the final flush.

        The cache keeps its counters (``dropped_late``) for the caller."""
        records: list[FlowRecord] = []
        for pkt in packets:
            records.extend(self.process_packet(pkt))
        records.extend(self.flush())
        return records


def meter_stream(packets: Iterable[Packet],
                 cfg: Optional[MeterConfig] = None) -> list[FlowRecord]:
    """Meter an ordered packet stream to completion, including final flush."""
    return FlowCache(cfg).meter(packets)


# ---------------------------------------------------------------------------
# Feature finalization

_MOMENT_STATS = ("mean", "var", "skew", "kurt", "min", "max", "mean_valid",
                 "var_valid", "shape_valid")
_MOMENT_PREFIXES = ("fwd_size", "bwd_size", "fwd_piat", "bwd_piat")
_N_FLAGS = len(TCP_FLAG_NAMES)
# indices of the counted flags set in each value of the low six flag bits
_FLAG_INDICES = tuple(tuple(i for i in range(_N_FLAGS) if flags >> i & 1)
                      for flags in range(1 << _N_FLAGS))
_SPLT_PAD = (0, 0, 0.0)


@functools.lru_cache(maxsize=None)
def _column_names(splt_n: int) -> tuple:
    """Column names of a finalized row, in CSV order."""
    return (
        "src_ip", "dst_ip", "src_port", "flow_start", "flow_end",
        "export_reason", "segment_index", "proto", "dst_port",
        "fwd_packet_count", "bwd_packet_count", "total_packet_count",
        "fwd_byte_count", "bwd_byte_count", "total_byte_count",
        "fwd_payload_bytes", "bwd_payload_bytes",
        "fwd_duration", "fwd_duration_valid",
        "bwd_duration", "bwd_duration_valid", "flow_duration",
        *(f"{prefix}_{s}" for prefix in _MOMENT_PREFIXES
          for s in _MOMENT_STATS),
        "packet_ratio", "byte_ratio", "bytes_per_packet",
        "packets_per_second",
        *(f"flag_{n}_count" for n in TCP_FLAG_NAMES),
        "splt_len",
        *(name for i in range(splt_n)
          for name in (f"splt_dir_{i}", f"splt_size_{i}", f"splt_piat_{i}")))


def _moment_values(m: Moments) -> tuple:
    """Mean, variance, skewness, kurtosis, min, max and the three validity
    flags, by the same float expressions as the Moments properties."""
    n = m.n
    if n == 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
    if n == 1:
        return (m.m1, 0.0, 0.0, 0.0, m.min_value, m.max_value, 1, 0, 0)
    var = m.m2 / n
    if m.m2 > 0.0:
        skew = (m.m3 / n) / var ** 1.5
        kurt = (m.m4 / n) / (var * var) - 3.0
        shape_valid = 1
    else:
        skew = kurt = 0.0
        shape_valid = 0
    return (m.m1, var, skew, kurt, m.min_value, m.max_value, 1, 1,
            shape_valid)


def _flag_totals(fwd: DirStats, bwd: DirStats) -> list:
    """Packets of both directions carrying each flag, in TCP_FLAG_NAMES
    order."""
    totals = [0] * _N_FLAGS
    for seen in (fwd.flags_seen, bwd.flags_seen):
        for flags, count in seen.items():
            for i in _FLAG_INDICES[flags & 0x3F]:
                totals[i] += count
    return totals


def _anon_ip(ip: bytes, mode: str) -> str:
    if mode == "truncate_v4_24" and len(ip) == 4:
        ip = ip[:3] + b"\x00"
    return ip_to_str(ip)


def _duration(d: DirStats) -> float:
    return (d.last_ts - d.first_ts) / 1e9 if d.pkt_count >= 2 else 0.0


def finalize_features(rec: FlowRecord, splt_n: int = 20,
                      anonymize: str = "none") -> dict:
    """Flatten one exported FlowRecord into the fixed feature row."""
    init = rec.initiator
    fwd, bwd = rec.fwd, rec.bwd
    start, end = rec.flow_start, rec.flow_end
    packets = fwd.pkt_count + bwd.pkt_count
    total_bytes = fwd.byte_count + bwd.byte_count
    flow_duration = (end - start) / 1e9
    values = [
        _anon_ip(init.src_ip, anonymize), _anon_ip(init.dst_ip, anonymize),
        init.src_port, start / 1e9, end / 1e9, rec.export_reason,
        rec.segment_index, init.proto, init.dst_port,
        fwd.pkt_count, bwd.pkt_count, packets,
        fwd.byte_count, bwd.byte_count, total_bytes,
        fwd.payload_bytes, bwd.payload_bytes,
        _duration(fwd), int(fwd.pkt_count >= 2),
        _duration(bwd), int(bwd.pkt_count >= 2), flow_duration,
        *_moment_values(fwd.size), *_moment_values(bwd.size),
        *_moment_values(fwd.piat), *_moment_values(bwd.piat),
        fwd.pkt_count / max(bwd.pkt_count, 1),
        fwd.byte_count / max(bwd.byte_count, 1),
        total_bytes / packets,
        packets / flow_duration if flow_duration > 0 else 0.0,
        *_flag_totals(fwd, bwd),
        len(rec.splt),
    ]
    # (direction, size, gap) of the first splt_n packets, zero-padded; zip
    # drops the values past the last name
    values += itertools.chain.from_iterable(rec.splt)
    values += _SPLT_PAD * (splt_n - len(rec.splt))
    return dict(zip(_column_names(splt_n), values))


def _ts_decimal(ns: int) -> str:
    """Exact decimal seconds with 9 fractional digits from integer ns."""
    sign = "-" if ns < 0 else ""
    ns = abs(ns)
    return f"{sign}{ns // 1_000_000_000}.{ns % 1_000_000_000:09d}"


def records_to_rows(records: Iterable[FlowRecord],
                    cfg: Optional[MeterConfig] = None) -> list[dict]:
    """Finalize records into CSV-ready rows (timestamps as 9-digit strings)."""
    cfg = cfg or MeterConfig()
    rows = []
    for rec in records:
        row = finalize_features(rec, cfg.splt_n, cfg.anonymize)
        row["flow_start"] = _ts_decimal(rec.flow_start)
        row["flow_end"] = _ts_decimal(rec.flow_end)
        rows.append(row)
    return rows


METADATA_COLUMNS = ("src_ip", "dst_ip", "src_port", "flow_start", "flow_end",
                    "export_reason", "segment_index")
CATEGORICAL_COLUMNS = ("proto",)


def feature_column_names(splt_n: int = 20) -> list[str]:
    """Stable column order of the exported CSV (header contract)."""
    return list(_column_names(splt_n))


def column_kinds(splt_n: int = 20) -> dict[str, str]:
    kinds = {}
    for name in feature_column_names(splt_n):
        if name in METADATA_COLUMNS:
            kinds[name] = "metadata"
        elif name in CATEGORICAL_COLUMNS:
            kinds[name] = "categorical"
        else:
            kinds[name] = "numeric"
    return kinds


def validity_links(splt_n: int = 20) -> dict[str, str]:
    """Map feature column -> companion validity-flag column."""
    links = {}
    for fam in _MOMENT_PREFIXES:
        for stat, flag in (("mean", "mean_valid"), ("min", "mean_valid"),
                           ("max", "mean_valid"), ("var", "var_valid"),
                           ("skew", "shape_valid"), ("kurt", "shape_valid")):
            links[f"{fam}_{stat}"] = f"{fam}_{flag}"
    links["fwd_duration"] = "fwd_duration_valid"
    links["bwd_duration"] = "bwd_duration_valid"
    return links
