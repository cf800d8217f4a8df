"""Bidirectional flow metering in two layers: a packet loop that keeps only
each flow's lifecycle, and a columnar fold of every per-flow statistic.

``FlowCache`` keeps per resident flow its keys, segment, timestamps, LRU
bookkeeping and a flow number, and logs six ints per applied packet.
Packet timestamps drive every lifecycle decision, so a capture replays to
bit-identical records. Expiry is lazy (when a flow's own key recurs) plus a
scan every SCAN_INTERVAL packets that costs O(expired), not O(resident), in
the style of Varghese & Lauck's timing wheels (SOSP 1987; see ``_scan``).

``FlowTable.fold`` turns the log into per-flow numpy accumulators every
_FOLD packets and before any read, so memory is O(flows + _FOLD). Moments
follow the Welford/Pebay update (Pebay, SAND2008-6212): one vectorized step
per packet position across every (flow, direction) group, in each group's
packet order, and ``Moments.push`` for the tails once fewer than
_VECTOR_MIN groups remain. Exported records are handles on their table row.

Forward is the orientation of a segment's first packet. Inter-arrival times
are measured against the running maximum timestamp (of the direction for
PIAT, of the flow for the SPLT gap) and clamped at 0, so packets reordered
within ``reorder_slack`` never give a negative gap.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .pcap import (Packet, TCP_FIN, TCP_RST, TCP_FLAG_NAMES, ip_to_str)
from .prep import derived_features
from .stats import Moments

SCAN_INTERVAL = 1024
_FOLD = 8192            # applied packets logged between two folds
_VECTOR_MIN = 64        # fewer groups at a packet position: fold one by one
_OCTETS = np.array(list(map(str, range(256))), dtype=object)  # IPv4 text
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
        return FlowKey(*_reversed(self))

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
class MeterConfig:
    """How flows are keyed, expired, anonymized and cut."""

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


def _push(acc: np.ndarray, n1: np.ndarray, x: np.ndarray) -> None:
    """Moments.push of x[j] into column j of acc, whose rows are m1, m2, m3,
    m4, min and max; n1 holds the columns' counts before."""
    m = Moments(n1, *acc)
    m.update(x)
    np.minimum(m.min_value, x, out=m.min_value)
    np.maximum(m.max_value, x, out=m.max_value)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in sorted keys."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return starts, np.diff(np.r_[starts, len(keys)])


class FlowTable:
    """The statistics of one cache's flows, one row per flow number.

    ``ints[flow, direction]`` (0 is forward): packets, bytes, payload bytes,
    packets per TCP flag bit, lowest and highest timestamp; ``moments[flow,
    direction, family]``: size (0) and inter-arrival (1) m1..m4, min, max;
    a row of both takes 368 bytes. ``splt``: one entry per packet among its
    flow's first splt_n, a tuple of arrays per fold, ordered by position:
    flow, position, timestamp, direction (+1/-1) and IP length (int32: an
    IPv6 length reaches 65,575), 25 bytes an entry, so a flow holds SPLT
    only for the packets it has. The log: flow, direction, ts, IP length,
    payload length and TCP flags of each applied packet.
    """

    def __init__(self, splt_n: int):
        self.splt_n = splt_n
        self.log: list = []
        self.flows = 0                  # flow numbers handed out
        self.ints = np.zeros((0, 2, 11), dtype=np.int64)
        self.moments = np.zeros((0, 2, 2, 6))
        self.splt: list = []

    def arrays(self) -> tuple:
        """The per-flow arrays, one row per flow of capacity."""
        return self.ints, self.moments

    def fold(self) -> None:
        """Fold the logged packets, in the order they were applied, into
        the per-flow statistics, and clear the log."""
        if self.flows > len(self.ints):     # room for every flow, doubling
            old = len(self.ints)
            more = max(self.flows, 2 * old, 64) - old
            self.ints, self.moments = (
                np.concatenate((a, np.zeros((more,) + a.shape[1:], a.dtype)))
                for a in self.arrays())
            self.ints[old:, :, 9:] = np.iinfo(np.int64).max, \
                np.iinfo(np.int64).min
            self.moments[old:, :, :, 4:] = np.inf, -np.inf
        if not self.log:
            return
        flow, back, ts, size, payload, flags = np.fromiter(
            self.log, np.int64, len(self.log)).reshape(-1, 6).T
        self.log.clear()
        if self.splt_n:         # the packets among their flows' first splt_n
            order = np.argsort(flow, kind="stable")
            starts, lens = _runs(flow[order])
            done = self.ints[flow[order[starts]], :, 0].sum(axis=1)
            pos = np.arange(len(flow)) - np.repeat(starts - done, lens)
            by_pos = np.argsort(pos, kind="stable")
            by_pos = by_pos[pos[by_pos] < self.splt_n]
            keep = order[by_pos]
            if len(keep):
                self.splt.append((flow[keep], pos[by_pos].astype(np.int32),
                                  ts[keep], (1 - 2 * back[keep]).astype(
                                      np.int8), size[keep].astype(np.int32)))
        g = 2 * flow + back                     # (flow, direction) group
        order = np.argsort(g, kind="stable")
        starts, lens = _runs(g[order])
        groups = g[order[starts]]
        ts = ts[order]
        ints = self.ints.reshape(-1, 11)
        before = ints[groups]
        self._fold_moments(groups, before, starts, lens, ts, size[order])
        bits = flags[order, None] >> np.arange(len(TCP_FLAG_NAMES)) & 1
        ints[groups, :9] += np.add.reduceat(np.column_stack(
            (np.ones_like(ts), size[order], payload[order], bits)), starts)
        ints[groups, 9] = np.minimum(before[:, 9],
                                     np.minimum.reduceat(ts, starts))
        ints[groups, 10] = np.maximum(before[:, 10],
                                      np.maximum.reduceat(ts, starts))

    def _fold_moments(self, groups, before, starts, lens, ts, size) -> None:
        """Push each group's sizes, and gaps to its running maximum ts, into
        its accumulators in packet order. Longest groups first, those with a
        packet at position k are a prefix: one step per position while it
        holds _VECTOR_MIN groups, then Moments.push one packet at a time."""
        moments = self.moments.reshape(-1, 2, 6)
        rank = np.argsort(-lens, kind="stable")
        first, count = starts[rank], before[rank, 0]
        top = np.where(count > 0, before[rank, 10], ts[first])
        acc = moments[groups[rank]].transpose(1, 2, 0).copy()
        sizes, piats = acc                      # (stat, group) each
        active = len(lens) - np.cumsum(np.bincount(lens))[:-1]
        steps = int(np.count_nonzero(active >= _VECTOR_MIN))
        for k in range(steps):
            n = active[k]
            x, t = size[first[:n] + k].astype(np.float64), ts[first[:n] + k]
            _push(sizes[:, :n], count[:n] + k, x)
            gap = np.maximum(t - top[:n], 0) / 1e9
            np.maximum(top[:n], t, out=top[:n])
            if k:
                _push(piats[:, :n], count[:n] + k - 1, gap)
            else:                       # a flow's first packet has no gap
                old = np.flatnonzero(count[:n])
                part = piats[:, old]
                _push(part, count[old] - 1, gap[old])
                piats[:, old] = part
        for j in range(active[steps] if steps < len(active) else 0):
            s = Moments(int(count[j]) + steps, *sizes[:, j].tolist())
            p = Moments(max(s.n - 1, 0), *piats[:, j].tolist())
            high = int(top[j])
            at = slice(first[j] + steps, first[j] + lens[rank[j]])
            for x, t in zip(size[at].tolist(), ts[at].tolist()):
                s.push(float(x))
                if s.n > 1:
                    p.push(max(t - high, 0) / 1e9)
                high = max(high, t)
            sizes[:, j] = (s.m1, s.m2, s.m3, s.m4, s.min_value, s.max_value)
            piats[:, j] = (p.m1, p.m2, p.m3, p.m4, p.min_value, p.max_value)
        moments[groups[rank]] = acc.transpose(2, 0, 1)

    def take(self, flows: np.ndarray, splt_n: int) -> tuple:
        """(ints, moments, SPLT length, SPLT grid) of the given flows, after
        a fold. The SPLT length counts up to the table's own splt_n; the
        grid holds direction, size and gap of the first splt_n packets,
        zero-padded, each gap to the flow's running maximum timestamp.

        The SPLT entries are scattered into the grid a fold at a time, and
        the gaps taken position by position within each fold: a flow's
        entries then come in packet order, so one running maximum per flow
        serves, with no dense copy of the timestamps."""
        self.fold()
        ints = self.ints[flows]
        splt_len = np.minimum(ints[:, 0, 0] + ints[:, 1, 0], self.splt_n)
        width = min(splt_n, self.splt_n)
        grid = np.zeros((len(flows), splt_n, 3))
        rows = np.arange(len(flows))
        row = np.full(len(self.ints), -1)
        row[flows] = rows           # a flow asked twice: its last row
        top = np.full(len(flows), np.iinfo(np.int64).min)
        for flow, pos, ts, direction, size in self.splt:
            r = row[flow]
            at = np.flatnonzero((pos < width) & (r >= 0))
            r, pos, ts = r[at], pos[at], ts[at]
            grid[r, pos, 0], grid[r, pos, 1] = direction[at], size[at]
            edges = np.searchsorted(pos, np.arange(width + 1)).tolist()
            for p, start, end in zip(range(width), edges, edges[1:]):
                i, t = r[start:end], ts[start:end]
                if p:           # a flow's first packet has no gap
                    grid[i, p, 2] = np.maximum(t - top[i], 0) / 1e9
                top[i] = np.maximum(top[i], t)
        again = np.flatnonzero(row[flows] != rows)
        grid[again] = grid[row[flows[again]]]
        return ints, self.moments[flows], splt_len, grid


class FlowRecord:
    """One flow segment: lifecycle state while resident, then the exported
    record, a handle on row ``flow`` of ``table`` (see records_to_rows).

    ``ckey`` is the canonical 5-tuple and ``key`` the first packet's;
    ``opened`` and ``last_pkt_ts`` are the first and the latest packet's
    timestamp; ``wm`` and ``born`` the watermark at the last update and at
    creation; ``seq`` the LRU rank, the packets processed before the last;
    ``ids`` the flow's ids in both orientations (``lookup="dual_hash"``).
    """

    __slots__ = ("ckey", "key", "segment_index", "export_reason", "flow",
                 "table", "opened", "last_pkt_ts", "wm", "born", "seq", "ids")

    def __init__(self, ckey: tuple, key: tuple, segment_index: int,
                 flow: int, table: "FlowTable", ts: int, watermark: int):
        self.ckey, self.key, self.segment_index = ckey, key, segment_index
        self.flow, self.table, self.export_reason = flow, table, ""
        self.opened = self.last_pkt_ts = ts
        self.wm = self.born = watermark
        self.seq = 0

    @property
    def canonical(self) -> CanonicalKey:
        return CanonicalKey._make(self.ckey)

    @property
    def initiator(self) -> FlowKey:
        return FlowKey._make(self.key)


class FlowCache:
    """Single-writer flow cache. process_packet/flush return exported records."""

    def __init__(self, cfg: Optional[MeterConfig] = None):
        self.cfg = cfg or MeterConfig()
        self._idle_ns = int(self.cfg.idle_timeout * 1e9)
        self._active_ns = int(self.cfg.active_timeout * 1e9)
        self._slack_ns = int(self.cfg.reorder_slack * 1e9)
        self._hashed = self.cfg.lookup == "dual_hash"
        self.table = FlowTable(self.cfg.splt_n)
        self._log = self.table.log
        # keyed by the canonical 5-tuple, least-recently-updated first
        self._entries: "OrderedDict[tuple, FlowRecord]" = OrderedDict()
        self._born: dict[tuple, FlowRecord] = {}    # the same, by creation
        self._stragglers: dict[tuple, FlowRecord] = {}  # took a late packet
        # dual_hash strategy: 64-bit id -> list of canonical keys (chained)
        self._ids: dict[int, list[tuple]] = {}
        self._segments: dict[tuple, int] = {}
        self._watermark = 0
        self._processed = 0
        self.dropped_late = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _lookup_ids(self, key: tuple, fid: int) -> Optional[FlowRecord]:
        """The resident flow of a packet with this key and id. Each flow is
        indexed under both orientations' ids, so the packet's own id finds
        it whichever way the packet goes."""
        rev = _reversed(key)
        for ckey in self._ids.get(fid, ()):
            entry = self._entries[ckey]
            if entry.key == key or entry.key == rev:
                return entry
        return None

    def _register(self, entry: FlowRecord, fid: Optional[int]) -> None:
        """Make entry resident; fid is its key's id under dual_hash."""
        ckey = entry.ckey
        self._entries[ckey] = entry
        self._born[ckey] = entry
        if fid is not None:
            entry.ids = {fid, _hash64(_reversed(entry.key))}
            for i in entry.ids:
                self._ids.setdefault(i, []).append(ckey)

    def _export(self, entry: FlowRecord, reason: str) -> FlowRecord:
        ckey = entry.ckey
        del self._entries[ckey]
        del self._born[ckey]
        self._stragglers.pop(ckey, None)
        if self._hashed:
            for fid in entry.ids:
                keys = self._ids[fid]
                keys.remove(ckey)
                if not keys:
                    del self._ids[fid]
        entry.export_reason = reason
        return entry

    def process_packet(self, pkt: Packet) -> list[FlowRecord]:
        cfg = self.cfg
        exported: list[FlowRecord] = []
        ts = pkt.ts
        src, dst, sport, dport, proto = pkt.src_ip, pkt.dst_ip, \
            pkt.src_port, pkt.dst_port, pkt.proto
        key = (src, dst, sport, dport, proto)
        if src < dst or (src == dst and sport <= dport):
            ckey = (src, sport, dst, dport, proto)
        else:
            ckey = (dst, dport, src, sport, proto)
        entries = self._entries
        fid = _hash64(key) if self._hashed else None
        entry = (entries.get(ckey) if fid is None
                 else self._lookup_ids(key, fid))

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
            elif ts - entry.opened >= self._active_ns:
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
            table = self.table
            entry = FlowRecord(ckey, key, seg, table.flows, table, ts,
                               self._watermark)
            table.flows += 1
            self._register(entry, fid)
        if late:
            self._stragglers[ckey] = entry
        entry.seq = self._processed
        entry.last_pkt_ts = ts
        flags = pkt.tcp_flags
        self._log.extend((entry.flow, key != entry.key, ts, pkt.ip_len,
                          pkt.payload_len, flags))

        if cfg.honor_fin_rst and proto == 6 and flags & (TCP_FIN | TCP_RST):
            exported.append(self._export(entry, REASON_FIN_RST))

        self._processed += 1
        if self._processed % SCAN_INTERVAL == 0:
            exported.extend(self._scan())
        if self._processed % _FOLD == 0:
            self.table.fold()
        return exported

    def _scan(self) -> list[FlowRecord]:
        """Export every resident flow that is idle or past its active
        timeout at the watermark W, in LRU order, idle before active.

        A packet more than the slack behind the watermark is late; a flow
        that took one is a straggler until it leaves. Any other flow has
        ``last_pkt_ts >= wm - slack`` and ``opened >= born - slack`` (the
        watermark at its last update and at its creation), and ``wm`` and
        ``born`` never decrease along the LRU and the creation order. So
        no flow from the first LRU entry with ``wm - slack >= W - idle`` on
        can be idle, no flow from the first created entry with
        ``born - slack > W - active`` on can be past its active timeout, and
        only those prefixes plus the stragglers need a look: the flows that
        expire plus those updated within the last slack.
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
            found = sorted({e.ckey: e for e in found + more}.values(),
                           key=lambda e: e.seq)
        out = []
        for entry in found:
            if entry.last_pkt_ts < idle_edge:
                out.append(self._export(entry, REASON_IDLE))
            elif entry.opened <= active_edge:
                out.append(self._export(entry, REASON_ACTIVE))
        return out

    def flush(self, final_ts: Optional[int] = None) -> list[FlowRecord]:
        """Drain every resident flow (reason end_of_input), by flow start,
        and fold the packet log.

        ``final_ts`` is unused; it stays only because ``bench/spans.py``
        passes it through."""
        entries = sorted(self._entries.values(), key=lambda e: e.opened)
        out = [self._export(e, REASON_END) for e in entries]
        self.table.fold()
        return out

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


def _ip_column(ips: list, mode: str) -> np.ndarray:
    """The text of each address in ips: a dotted quad from the octet
    table, its last octet 0 under truncate_v4_24, or ip_to_str's IPv6."""
    ips = np.asarray(ips, dtype=object)
    v4 = np.fromiter(map(len, ips), np.int64, len(ips)) == 4
    quads = np.frombuffer(b"".join(ips[v4]), np.uint8).reshape(-1, 4)
    quads = quads * np.array([1, 1, 1, mode != "truncate_v4_24"], np.uint8)
    text = np.empty(len(ips), dtype=object)
    text[v4] = list(map(".".join, _OCTETS[quads].tolist()))
    text[~v4] = list(map(ip_to_str, ips[~v4]))
    return text


def _int_text(values: np.ndarray) -> np.ndarray:
    """str of each int, the shared _OCTETS str for one in 0..255 rather
    than a new str a row."""
    small = (values >= 0) & (values < 256)
    text = np.empty(len(values), dtype=object)
    text[small] = _OCTETS[values[small]]
    text[~small] = list(map(str, values[~small].tolist()))
    return text


def _seconds_column(ns: np.ndarray) -> list[str]:
    """Exact decimal seconds with 9 fractional digits from int64 ns."""
    sec, frac = np.divmod(np.abs(ns), 1_000_000_000)
    return list(map("%s%d.%09d".__mod__, zip(
        np.where(ns < 0, "-", "").tolist(), sec.tolist(), frac.tolist())))


def _moment_columns(prefix: str, n: np.ndarray, m: np.ndarray) -> dict:
    """The nine columns of one Moments family from its counts n and its
    (m1, m2, m3, m4, min, max) rows, by the float operations of the Moments
    properties. ``var ** 1.5`` stays Python's pow: numpy's differs in the
    last bit."""
    m1, m2, m3, m4, lo, hi = m.T
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


def _flow_stats(records: list, splt_n: int) -> tuple:
    """``FlowTable.take`` of every record, in record order, from whichever
    tables the records point into: one table's arrays as take gives them,
    with no copy."""
    flows = np.fromiter(map(operator.attrgetter("flow"), records), np.int64,
                        len(records))
    owners = list(map(operator.attrgetter("table"), records))
    tables = list(dict.fromkeys(owners)) or [FlowTable(0)]
    if len(tables) == 1:
        return tables[0].take(flows, splt_n)
    at = [np.flatnonzero([o is t for o in owners]) for t in tables]
    parts = zip(*(t.take(flows[i], splt_n) for t, i in zip(tables, at)))
    back = np.argsort(np.concatenate(at))
    return tuple(np.concatenate(part)[back] for part in parts)


def records_to_rows(records: Iterable[FlowRecord],
                    cfg: Optional[MeterConfig] = None) -> Dataset:
    """Finalize exported records into the flow table, one row per record
    in export order, a column at a time from the records' table rows: the
    float operations of a per-record finalize (durations from integer ns,
    guarded ratios, moments as the Moments properties give them), exact
    9-digit decimal timestamps, ``splt_len`` up to the metering ``splt_n``
    and ``cfg.splt_n`` zero-padded SPLT columns. (``bench/spans.py`` traces
    this function by name and iterates the result row by row.)

    The records are read once, up front, and dropped before any column is
    built: given an iterator that holds the only reference to them, the
    records and their tables are freed by then.
    """
    cfg = cfg or MeterConfig()
    records = list(records)
    count, splt_n = len(records), cfg.splt_n
    keys, segment, reasons = (list(map(operator.attrgetter(a), records))
                              for a in ("key", "segment_index",
                                        "export_reason"))
    ints, moments, splt_len, grid = _flow_stats(records, splt_n)
    del records
    fwd, bwd = ints.transpose(1, 2, 0)
    (fpk, fby, fpay), (ffirst, flast) = fwd[:3], fwd[9:]
    (bpk, bby, bpay), (bfirst, blast) = bwd[:3], bwd[9:]
    sport, dport, proto = np.fromiter(itertools.chain.from_iterable(
        map(operator.itemgetter(2, 3, 4), keys)), np.int64, 3 * count
    ).reshape(-1, 3).T

    start, end = np.minimum(ffirst, bfirst), np.maximum(flast, blast)
    flow_duration = (end - start) / 1e9

    mode = cfg.anonymize
    data = {
        "src_ip": _ip_column(list(map(operator.itemgetter(0), keys)), mode),
        "dst_ip": _ip_column(list(map(operator.itemgetter(1), keys)), mode),
        "src_port": list(map(str, sport.tolist())),
        "flow_start": _seconds_column(start),
        "flow_end": _seconds_column(end),
        "export_reason": reasons,
        "segment_index": _int_text(np.array(segment, dtype=np.int64)),
        "proto": _int_text(proto),
        "dst_port": dport,
        "fwd_packet_count": fpk, "bwd_packet_count": bpk,
        "fwd_byte_count": fby, "bwd_byte_count": bby,
        "fwd_payload_bytes": fpay, "bwd_payload_bytes": bpay,
        "fwd_duration": np.where(fpk >= 2, (flast - ffirst) / 1e9, 0.0),
        "fwd_duration_valid": fpk >= 2,
        "bwd_duration": np.where(bpk >= 2, (blast - bfirst) / 1e9, 0.0),
        "bwd_duration_valid": bpk >= 2,
        "flow_duration": flow_duration,
        **derived_features(fpk, bpk, fby, bby, flow_duration),
        "splt_len": splt_len,
    }
    for j, prefix in enumerate(_MOMENT_PREFIXES):
        direction, family = j % 2, j // 2
        n = (fpk, bpk)[direction]
        data.update(_moment_columns(prefix, np.maximum(n - family, 0),
                                    moments[:, direction, family]))
    del moments                 # gone before the columns are converted
    tcp = (fwd[3:9] + bwd[3:9]) * (proto == 6)  # flags count on TCP only
    for i, name in enumerate(TCP_FLAG_NAMES):
        data[f"flag_{name}_count"] = tcp[i]
    for i in range(splt_n):
        data[f"splt_dir_{i}"], data[f"splt_size_{i}"], \
            data[f"splt_piat_{i}"] = grid[:, i].T

    kinds = column_kinds(splt_n)
    for n, v in data.items():   # in place: each column's first form goes
        data[n] = (np.asarray(v, dtype=np.float64) if kinds[n] == "numeric"
                   else np.asarray(v, dtype=object))
    return Dataset(
        names=feature_column_names(splt_n), kinds=kinds, data=data,
        row_ids=np.arange(count, dtype=np.int64),
        validity_links=validity_links(splt_n))


METADATA_COLUMNS = ("src_ip", "dst_ip", "src_port", "flow_start", "flow_end",
                    "export_reason", "segment_index")
CATEGORICAL_COLUMNS = ("proto",)


def feature_column_names(splt_n: int = 20) -> list[str]:
    """Stable column order of the exported CSV (header contract)."""
    return list(_column_names(splt_n))


def column_kinds(splt_n: int = 20) -> dict[str, str]:
    return {name: "metadata" if name in METADATA_COLUMNS else "categorical"
            if name in CATEGORICAL_COLUMNS else "numeric"
            for name in feature_column_names(splt_n)}


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
