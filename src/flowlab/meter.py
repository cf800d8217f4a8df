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
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .dataset import Dataset
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
        """Drain every resident flow (reason end_of_input), by flow_start.

        ``final_ts`` is unused; it stays only because ``bench/spans.py``
        passes it through."""
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
# row k: which of the TCP_FLAG_NAMES flags the low six flag bits k carry
_FLAG_BITS = (np.arange(1 << len(TCP_FLAG_NAMES))[:, None]
              >> np.arange(len(TCP_FLAG_NAMES)) & 1)
_DIR_FIELDS = operator.attrgetter("pkt_count", "byte_count", "payload_bytes",
                                  "first_ts", "last_ts")
_MOMENT_FIELDS = operator.attrgetter("n", "m1", "m2", "m3", "m4",
                                     "min_value", "max_value")


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


def _anon_ip(ip: bytes, mode: str) -> str:
    if mode == "truncate_v4_24" and len(ip) == 4:
        ip = ip[:3] + b"\x00"
    return ip_to_str(ip)


def _ts_decimal(ns: int) -> str:
    """Exact decimal seconds with 9 fractional digits from integer ns."""
    sign = "-" if ns < 0 else ""
    ns = abs(ns)
    return f"{sign}{ns // 1_000_000_000}.{ns % 1_000_000_000:09d}"


def _gather(rows: Iterable[tuple], dtype, width: int) -> np.ndarray:
    """The equal-length tuples of rows as one (len(rows), width) array."""
    return np.fromiter(itertools.chain.from_iterable(rows),
                       dtype=dtype).reshape(-1, width)


def _moment_columns(prefix: str, m: np.ndarray) -> dict:
    """The nine columns of one Moments family from its (n, m1, m2, m3, m4,
    min, max) rows, by the float operations of the Moments properties.
    ``var ** 1.5`` stays Python's pow: numpy's differs in the last bit."""
    n, m1, m2, m3, m4, lo, hi = m.T
    seen, two = n >= 1, n >= 2
    var = np.where(two, m2 / np.maximum(n, 1), 0.0)
    shape = two & (m2 > 0.0)
    skew, kurt = np.zeros(len(n)), np.zeros(len(n))
    v, nv = var[shape], n[shape]
    skew[shape] = (m3[shape] / nv) / np.array([x ** 1.5 for x in v.tolist()])
    kurt[shape] = (m4[shape] / nv) / (v * v) - 3.0
    cols = (np.where(seen, m1, 0.0), var, skew, kurt, np.where(seen, lo, 0.0),
            np.where(seen, hi, 0.0), seen, two, shape)
    return {f"{prefix}_{s}": c for s, c in zip(_MOMENT_STATS, cols)}


def records_to_rows(records: Iterable[FlowRecord],
                    cfg: Optional[MeterConfig] = None) -> Dataset:
    """Finalize exported records into the flow table, one row per record
    in export order, built a column at a time.

    Each raw field is gathered once into an array and the derived features
    follow with numpy, by the float operations of a per-record finalize:
    durations from integer ns, ratios guarded against zero denominators,
    moments as the Moments properties give them. Timestamps are exact
    9-digit decimal strings. ``splt_len`` is the record's SPLT length; its
    first ``cfg.splt_n`` entries fill the SPLT columns, zero-padded.
    (``bench/spans.py`` traces this function by name and iterates the
    result row by row.)
    """
    cfg = cfg or MeterConfig()
    records = list(records)
    count, splt_n = len(records), cfg.splt_n

    (fpk, fby, fpay, ffirst, flast, bpk, bby, bpay, bfirst, blast,
     sport, dport, proto, segment, splt_len) = _gather(
        (_DIR_FIELDS(r.fwd) + _DIR_FIELDS(r.bwd)
         + (r.initiator.src_port, r.initiator.dst_port, r.initiator.proto,
            r.segment_index, len(r.splt)) for r in records),
        np.int64, 15).T
    moments = _gather(
        (_MOMENT_FIELDS(r.fwd.size) + _MOMENT_FIELDS(r.bwd.size)
         + _MOMENT_FIELDS(r.fwd.piat) + _MOMENT_FIELDS(r.bwd.piat)
         for r in records), np.float64, 28).reshape(count, 4, 7)

    one_way = bpk == 0
    start = np.where(one_way, ffirst, np.minimum(ffirst, bfirst))
    end = np.where(one_way, flast, np.maximum(flast, blast))
    packets, total_bytes = fpk + bpk, fby + bby
    flow_duration = (end - start) / 1e9
    moving = flow_duration > 0

    mode = cfg.anonymize
    data = {
        "src_ip": [_anon_ip(r.initiator.src_ip, mode) for r in records],
        "dst_ip": [_anon_ip(r.initiator.dst_ip, mode) for r in records],
        "src_port": list(map(str, sport.tolist())),
        "flow_start": list(map(_ts_decimal, start.tolist())),
        "flow_end": list(map(_ts_decimal, end.tolist())),
        "export_reason": [r.export_reason for r in records],
        "segment_index": list(map(str, segment.tolist())),
        "proto": list(map(str, proto.tolist())),
        "dst_port": dport,
        "fwd_packet_count": fpk, "bwd_packet_count": bpk,
        "total_packet_count": packets,
        "fwd_byte_count": fby, "bwd_byte_count": bby,
        "total_byte_count": total_bytes,
        "fwd_payload_bytes": fpay, "bwd_payload_bytes": bpay,
        "fwd_duration": np.where(fpk >= 2, (flast - ffirst) / 1e9, 0.0),
        "fwd_duration_valid": fpk >= 2,
        "bwd_duration": np.where(bpk >= 2, (blast - bfirst) / 1e9, 0.0),
        "bwd_duration_valid": bpk >= 2,
        "flow_duration": flow_duration,
        "packet_ratio": fpk / np.maximum(bpk, 1),
        "byte_ratio": fby / np.maximum(bby, 1),
        "bytes_per_packet": total_bytes / packets,
        "packets_per_second": np.where(
            moving, packets / np.where(moving, flow_duration, 1.0), 0.0),
        "splt_len": splt_len,
    }
    for j, prefix in enumerate(_MOMENT_PREFIXES):
        data.update(_moment_columns(prefix, moments[:, j]))

    # packets per raw flag byte, summed over both directions, times the
    # flags each byte carries
    seen = _gather(((i, flags, n) for i, r in enumerate(records)
                    for d in (r.fwd, r.bwd)
                    for flags, n in d.flags_seen.items()), np.int64, 3)
    per_byte = np.zeros((count, len(_FLAG_BITS)), dtype=np.int64)
    np.add.at(per_byte, (seen[:, 0], seen[:, 1] & 0x3F), seen[:, 2])
    flag_counts = per_byte @ _FLAG_BITS
    for i, name in enumerate(TCP_FLAG_NAMES):
        data[f"flag_{name}_count"] = flag_counts[:, i]

    # the first splt_n (direction, size, gap) triples of every record, one
    # flat array scattered into a zero-padded (position, field, row) grid
    taken = np.minimum(splt_len, splt_n)
    flat = _gather((e for r in records for e in r.splt[:splt_n]),
                   np.float64, 3)
    first = np.repeat(np.cumsum(taken) - taken, taken)  # row's first triple
    grid = np.zeros((splt_n, 3, count))
    grid[np.arange(len(flat)) - first, :,
         np.repeat(np.arange(count), taken)] = flat
    for i in range(splt_n):
        data[f"splt_dir_{i}"], data[f"splt_size_{i}"], \
            data[f"splt_piat_{i}"] = grid[i]

    kinds = column_kinds(splt_n)
    return Dataset(
        names=feature_column_names(splt_n), kinds=kinds,
        data={n: (np.asarray(v, dtype=np.float64) if kinds[n] == "numeric"
                  else np.asarray(v, dtype=object)) for n, v in data.items()},
        row_ids=np.arange(count, dtype=np.int64),
        validity_links=validity_links(splt_n))


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
