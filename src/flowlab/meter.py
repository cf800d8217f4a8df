"""Bidirectional flow metering: hash-based flow cache, expiration lifecycle,
streaming per-direction statistics and feature finalization.

Virtual time only: every lifecycle decision is driven by packet timestamps,
so a capture replays to bit-identical flow records. Expiry is lazy (checked
when a flow's own key recurs) plus a periodic scan every SCAN_INTERVAL
processed packets so idle flows whose key never recurs still drain.

Forward direction of a record is the orientation of the first packet seen
for that segment (initiator-first), independent of the canonical key order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional

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


@dataclass(frozen=True, slots=True)
class FlowKey:
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


@dataclass(frozen=True, slots=True)
class CanonicalKey:
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


def _hash64(key: FlowKey) -> int:
    h = hashlib.blake2b(digest_size=8, key=_HASH_KEY)
    h.update(key.src_ip)
    h.update(key.dst_ip)
    h.update(struct.pack("!HHB", key.src_port, key.dst_port, key.proto))
    return int.from_bytes(h.digest(), "big")


def dual_hash(key: FlowKey) -> tuple[int, int]:
    """(forward flow id, reverse flow id) under a fixed seeded 64-bit hash."""
    return _hash64(key), _hash64(key.reverse())


@dataclass
class DirStats:
    pkt_count: int = 0
    byte_count: int = 0
    payload_bytes: int = 0
    first_ts: int = 0
    last_ts: int = 0
    size: Moments = field(default_factory=Moments)
    piat: Moments = field(default_factory=Moments)
    flag_counts: dict = field(default_factory=lambda: {n: 0 for n in TCP_FLAG_NAMES})

    def add(self, pkt: Packet) -> None:
        if self.pkt_count == 0:
            self.first_ts = pkt.ts
        else:
            self.piat.push((pkt.ts - self.last_ts) / 1e9)
        self.last_ts = pkt.ts if self.pkt_count == 0 else max(self.last_ts, pkt.ts)
        self.first_ts = min(self.first_ts, pkt.ts)
        self.pkt_count += 1
        self.byte_count += pkt.ip_len
        self.payload_bytes += pkt.payload_len
        self.size.push(float(pkt.ip_len))
        if pkt.proto == 6:
            for i, name in enumerate(TCP_FLAG_NAMES):
                if pkt.tcp_flags & (1 << i):
                    self.flag_counts[name] += 1


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
                 "segment_index", "flow_start", "last_update", "last_pkt_ts")

    def __init__(self, canonical: CanonicalKey, initiator: FlowKey,
                 segment_index: int, ts: int):
        self.canonical = canonical
        self.initiator = initiator
        self.fwd = DirStats()
        self.bwd = DirStats()
        self.splt = []
        self.segment_index = segment_index
        self.flow_start = ts
        self.last_update = ts
        self.last_pkt_ts = ts


class FlowCache:
    """Single-writer flow cache. process_packet/flush return exported records."""

    def __init__(self, cfg: Optional[MeterConfig] = None):
        self.cfg = cfg or MeterConfig()
        self._idle_ns = int(self.cfg.idle_timeout * 1e9)
        self._active_ns = int(self.cfg.active_timeout * 1e9)
        self._slack_ns = int(self.cfg.reorder_slack * 1e9)
        # LRU order: least-recently-updated first
        self._entries: "OrderedDict[CanonicalKey, _Entry]" = OrderedDict()
        # dual_hash strategy: 64-bit id -> list of canonical keys (chained)
        self._ids: dict[int, list[CanonicalKey]] = {}
        self._segments: dict[CanonicalKey, int] = {}
        self._watermark = 0
        self._processed = 0
        self.dropped_late = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup(self, pkt_key: FlowKey) -> Optional[_Entry]:
        if self.cfg.lookup == "canonical":
            ckey, _ = canonicalize(pkt_key)
            return self._entries.get(ckey)
        fwd_id, rev_id = dual_hash(pkt_key)
        for fid in (fwd_id, rev_id):
            for ckey in self._ids.get(fid, ()):
                entry = self._entries.get(ckey)
                if entry is not None and (entry.initiator == pkt_key
                                          or entry.initiator == pkt_key.reverse()):
                    return entry
        return None

    def _register(self, entry: _Entry) -> None:
        self._entries[entry.canonical] = entry
        if self.cfg.lookup == "dual_hash":
            for fid in set(dual_hash(entry.initiator)):
                self._ids.setdefault(fid, []).append(entry.canonical)

    def _unregister(self, entry: _Entry) -> None:
        del self._entries[entry.canonical]
        if self.cfg.lookup == "dual_hash":
            for fid in set(dual_hash(entry.initiator)):
                keys = self._ids[fid]
                keys.remove(entry.canonical)
                if not keys:
                    del self._ids[fid]

    def _export(self, entry: _Entry, reason: str) -> FlowRecord:
        self._unregister(entry)
        return FlowRecord(canonical=entry.canonical, initiator=entry.initiator,
                          fwd=entry.fwd, bwd=entry.bwd, splt=entry.splt,
                          export_reason=reason,
                          segment_index=entry.segment_index)

    def process_packet(self, pkt: Packet) -> list[FlowRecord]:
        cfg = self.cfg
        exported: list[FlowRecord] = []
        pkt_key = FlowKey.of(pkt)
        entry = self._lookup(pkt_key)

        late = pkt.ts < self._watermark - self._slack_ns
        if late and entry is None:
            self.dropped_late += 1
            return exported
        self._watermark = max(self._watermark, pkt.ts)

        # lazy expiry of the matching entry before applying the packet
        if entry is not None:
            if (pkt.ts - entry.last_pkt_ts > self._idle_ns):
                exported.append(self._export(entry, REASON_IDLE))
                entry = None
            elif (pkt.ts - entry.flow_start >= self._active_ns):
                exported.append(self._export(entry, REASON_ACTIVE))
                entry = None

        if entry is None:
            ckey, _ = canonicalize(pkt_key)
            if len(self._entries) >= cfg.max_flows:
                victim = next(iter(self._entries.values()))
                exported.append(self._export(victim, REASON_PRESSURE))
            seg = self._segments.get(ckey, 0)
            self._segments[ckey] = seg + 1
            entry = _Entry(ckey, pkt_key, seg, pkt.ts)
            self._register(entry)

        direction = 1 if pkt_key == entry.initiator else -1
        stats = entry.fwd if direction == 1 else entry.bwd
        if len(entry.splt) < cfg.splt_n:
            gap = 0.0 if entry.fwd.pkt_count + entry.bwd.pkt_count == 0 \
                else (pkt.ts - entry.last_pkt_ts) / 1e9
            entry.splt.append((direction, pkt.ip_len, gap))
        stats.add(pkt)
        entry.last_pkt_ts = pkt.ts
        entry.last_update = pkt.ts
        self._entries.move_to_end(entry.canonical)

        if (cfg.honor_fin_rst and pkt.proto == 6
                and pkt.tcp_flags & (TCP_FIN | TCP_RST)):
            exported.append(self._export(entry, REASON_FIN_RST))

        self._processed += 1
        if self._processed % SCAN_INTERVAL == 0:
            exported.extend(self._scan())
        return exported

    def _scan(self) -> list[FlowRecord]:
        out = []
        for entry in list(self._entries.values()):
            if self._watermark - entry.last_pkt_ts > self._idle_ns:
                out.append(self._export(entry, REASON_IDLE))
            elif self._watermark - entry.flow_start >= self._active_ns:
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

def _ns_to_s(ns: int) -> float:
    return ns / 1e9


# column names are built once per module, not once per record
_MOMENT_STATS = ("mean", "var", "skew", "kurt", "min", "max", "mean_valid",
                 "var_valid", "shape_valid")
_MOMENT_NAMES = {prefix: tuple(f"{prefix}_{s}" for s in _MOMENT_STATS)
                 for prefix in ("fwd_size", "bwd_size", "fwd_piat",
                                "bwd_piat")}
_FLAG_COLUMNS = tuple((f"flag_{n}_count", n) for n in TCP_FLAG_NAMES)
_SPLT_PAD = (0, 0, 0.0)


@functools.lru_cache(maxsize=None)
def _splt_names(splt_n: int) -> tuple:
    return tuple(name for i in range(splt_n)
                 for name in (f"splt_dir_{i}", f"splt_size_{i}",
                              f"splt_piat_{i}"))


def _moment_cols(cols: dict, prefix: str, m: Moments) -> None:
    cols.update(zip(_MOMENT_NAMES[prefix], (
        m.mean, m.variance, m.skewness, m.kurtosis, m.minimum, m.maximum,
        int(m.mean_defined), int(m.variance_defined), int(m.shape_defined))))


def _anon_ip(ip: bytes, mode: str) -> str:
    if mode == "truncate_v4_24" and len(ip) == 4:
        ip = ip[:3] + b"\x00"
    return ip_to_str(ip)


def finalize_features(rec: FlowRecord, splt_n: int = 20,
                      anonymize: str = "none") -> dict:
    """Flatten one exported FlowRecord into the fixed feature row."""
    cols: dict = {}
    cols["src_ip"] = _anon_ip(rec.initiator.src_ip, anonymize)
    cols["dst_ip"] = _anon_ip(rec.initiator.dst_ip, anonymize)
    cols["src_port"] = rec.initiator.src_port
    cols["flow_start"] = _ns_to_s(rec.flow_start)
    cols["flow_end"] = _ns_to_s(rec.flow_end)
    cols["export_reason"] = rec.export_reason
    cols["segment_index"] = rec.segment_index

    cols["proto"] = rec.initiator.proto
    cols["dst_port"] = rec.initiator.dst_port
    fwd, bwd = rec.fwd, rec.bwd
    cols["fwd_packet_count"] = fwd.pkt_count
    cols["bwd_packet_count"] = bwd.pkt_count
    cols["total_packet_count"] = rec.total_packets
    cols["fwd_byte_count"] = fwd.byte_count
    cols["bwd_byte_count"] = bwd.byte_count
    cols["total_byte_count"] = rec.total_bytes
    cols["fwd_payload_bytes"] = fwd.payload_bytes
    cols["bwd_payload_bytes"] = bwd.payload_bytes

    for col, valid_col, d in (("fwd_duration", "fwd_duration_valid", fwd),
                              ("bwd_duration", "bwd_duration_valid", bwd)):
        dur = _ns_to_s(d.last_ts - d.first_ts) if d.pkt_count >= 2 else 0.0
        cols[col] = dur
        cols[valid_col] = int(d.pkt_count >= 2)
    flow_duration = _ns_to_s(rec.flow_end - rec.flow_start)
    cols["flow_duration"] = flow_duration

    _moment_cols(cols, "fwd_size", fwd.size)
    _moment_cols(cols, "bwd_size", bwd.size)
    _moment_cols(cols, "fwd_piat", fwd.piat)
    _moment_cols(cols, "bwd_piat", bwd.piat)

    cols["packet_ratio"] = fwd.pkt_count / max(bwd.pkt_count, 1)
    cols["byte_ratio"] = fwd.byte_count / max(bwd.byte_count, 1)
    cols["bytes_per_packet"] = rec.total_bytes / rec.total_packets
    cols["packets_per_second"] = (rec.total_packets / flow_duration
                                  if flow_duration > 0 else 0.0)

    fwd_flags, bwd_flags = fwd.flag_counts, bwd.flag_counts
    for col, name in _FLAG_COLUMNS:
        cols[col] = fwd_flags[name] + bwd_flags[name]

    splt = rec.splt
    cols["splt_len"] = len(splt)
    # (direction, size, gap) of the first splt_n packets, zero-padded
    values = list(itertools.chain.from_iterable(splt))
    values += _SPLT_PAD * (splt_n - len(splt))
    cols.update(zip(_splt_names(splt_n), values))
    return cols


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
    dummy = FlowRecord(
        canonical=CanonicalKey(b"\0" * 4, 0, b"\0" * 4, 0, 17),
        initiator=FlowKey(b"\0" * 4, b"\0" * 4, 0, 0, 17),
        fwd=DirStats(pkt_count=1, byte_count=1, first_ts=0, last_ts=0),
        bwd=DirStats(), splt=[], export_reason=REASON_END, segment_index=0)
    dummy.fwd.size.push(1.0)
    return list(finalize_features(dummy, splt_n).keys())


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
    for fam in ("fwd_size", "bwd_size", "fwd_piat", "bwd_piat"):
        for stat, flag in (("mean", "mean_valid"), ("min", "mean_valid"),
                           ("max", "mean_valid"), ("var", "var_valid"),
                           ("skew", "shape_valid"), ("kurt", "shape_valid")):
            links[f"{fam}_{stat}"] = f"{fam}_{flag}"
    links["fwd_duration"] = "fwd_duration_valid"
    links["bwd_duration"] = "bwd_duration_valid"
    return links
