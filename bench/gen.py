"""Seeded synthetic captures for the benchmark workloads.

Every workload fixes its packet and flow counts; the seed varies only the
content (addresses, ports, sizes and timing). Run time therefore depends on
the code under test, not on how large one seed's capture happened to be.

Captures are built with ``flowlab.pcap.make_packet`` and
``flowlab.pcap.write_capture`` only, and cached per (workload, seed, scale)
next to a JSON file that records what was generated.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# bump when the generation logic changes; together with the workload's
# Shape it keys the cache, so a stale capture is never reused
GEN_VERSION = 3

# (proto, server port); the ports match flowlab's default labeling rules
SERVICES = ((6, 443), (17, 53), (6, 22), (6, 80), (17, 123))
# mean payload bytes per service: the ranges overlap, so the classes are
# only partly learnable and unbounded-depth trees grow deep
PAYLOAD_MEAN = {443: 600, 80: 500, 22: 400, 53: 300, 123: 250}
BASE_TS = 1_700_000_000
IDLE_TIMEOUT = 30.0          # flowlab's default meter.idle_timeout
TCP_SYN, TCP_PSH, TCP_ACK, TCP_FIN = 0x02, 0x08, 0x10, 0x01


@dataclass(frozen=True)
class Shape:
    """How one workload's capture is built."""

    packets: int                 # exact packet count
    flows: int                   # exact connection count
    min_pkts: int                # packets per connection, at least
    start_window: float          # connections start in [0, start_window) s
    gap_mean: tuple              # per-connection mean gap range, seconds
    fin_share: float = 0.0       # TCP connections that end with FIN


SHAPES = {
    # many short flows that linger until the idle scan expires them
    "ingest-churn": Shape(packets=30_000, flows=12_000, min_pkts=1,
                          start_window=36.0, gap_mean=(0.05, 0.5)),
    # two hundred labelled flows for the default 20-tree forest
    "pipeline-forest": Shape(packets=2_400, flows=200, min_pkts=4,
                             start_window=60.0, gap_mean=(0.05, 2.0),
                             fin_share=0.3),
}


def scaled(shape: Shape, scale: float) -> Shape:
    """The same shape with fewer packets and flows (for quick self-tests)."""
    if scale == 1.0:
        return shape
    flows = max(60, int(shape.flows * scale))
    packets = max(flows * shape.min_pkts, int(shape.packets * scale))
    return Shape(**{**shape.__dict__, "packets": packets, "flows": flows})


def _plan(rng: np.random.Generator, shape: Shape):
    """Yield (timestamps_ns, proto, dport, client, server, sport, fin)."""
    extra = shape.packets - shape.flows * shape.min_pkts
    if extra < 0:
        raise ValueError("packets < flows * min_pkts")
    # flat Dirichlet shares: flow sizes spread out as in real traffic
    counts = shape.min_pkts + rng.multinomial(
        extra, rng.dirichlet(np.ones(shape.flows)))
    for i, n in enumerate(counts):
        proto, dport = SERVICES[int(rng.integers(len(SERVICES)))]
        client = f"10.{(i >> 16) & 255}.{(i >> 8) & 255}.{i & 255}"
        server = (f"192.168.{int(rng.integers(256))}."
                  f"{int(rng.integers(1, 255))}")
        sport = int(rng.integers(1024, 65536))
        mean_gap = float(rng.uniform(*shape.gap_mean))
        gaps = rng.uniform(0.0, 2.0 * mean_gap, size=int(n) - 1)
        start = float(rng.uniform(0.0, shape.start_window))
        ts = BASE_TS + start + np.concatenate(([0.0], np.cumsum(gaps)))
        ts_ns = (ts * 1e9).astype(np.int64)
        fin = proto == 6 and n > 1 and rng.random() < shape.fin_share
        yield ts_ns, proto, dport, client, server, sport, fin


def build(workload: str, seed: int, scale: float = 1.0):
    """Return (packets sorted by time, metadata dict) for one workload."""
    from flowlab.pcap import make_packet

    shape = scaled(SHAPES[workload], scale)
    rng = np.random.default_rng([GEN_VERSION, seed % (1 << 64),
                                 sorted(SHAPES).index(workload)])
    packets, spans = [], []
    for ts_ns, proto, dport, client, server, sport, fin in _plan(rng, shape):
        n = len(ts_ns)
        fwd = rng.random(n) < 0.6
        fwd[0] = True
        payload = rng.integers(0, 2 * PAYLOAD_MEAN[dport], size=n)
        psh = rng.random(n) < 0.3
        for j in range(n):
            flags = 0
            if proto == 6:
                flags = (TCP_SYN if j == 0
                         else TCP_ACK | (TCP_PSH if psh[j] else 0))
                if fin and j == n - 1:
                    flags |= TCP_FIN
            if fwd[j]:
                src, dst, sp, dp = client, server, sport, dport
            else:
                src, dst, sp, dp = server, client, dport, sport
            packets.append(make_packet(int(ts_ns[j]), src, dst, sp, dp,
                                       proto, payload_len=int(payload[j]),
                                       tcp_flags=flags))
        spans.append((int(ts_ns[0]), int(ts_ns[-1])))
    packets.sort(key=lambda p: p.ts)
    meta = {"workload": workload, "seed": seed, "scale": scale,
            "generator_version": GEN_VERSION, "packets": len(packets),
            "flows": shape.flows,
            "peak_resident_flows": _peak_resident(spans)}
    return packets, meta


def _peak_resident(spans) -> int:
    """Most connections alive at once, each held idle_timeout past its end.

    This mirrors how long the meter keeps a flow resident when nothing
    else expires it earlier (FIN, active timeout, a pause).
    """
    hold = int(IDLE_TIMEOUT * 1e9)
    events = sorted([(a, 1) for a, _ in spans]
                    + [(b + hold, -1) for _, b in spans])
    live = peak = 0
    for _, step in events:
        live += step
        peak = max(peak, live)
    return peak


def capture_for(cache_dir: Path, workload: str, seed: int,
                scale: float = 1.0) -> tuple[Path, dict]:
    """Path of the cached capture plus its metadata, generating on a miss.

    The metadata gains ``generate_s``: the time spent generating (0.0 when
    the capture came from the cache). It counts toward no metric.
    """
    from flowlab.pcap import write_capture

    cache_dir.mkdir(parents=True, exist_ok=True)
    shape = scaled(SHAPES[workload], scale)
    key = hashlib.sha256(repr((GEN_VERSION, shape)).encode()).hexdigest()
    stem = f"{workload}-s{seed}-{key[:12]}"
    pcap, meta_path = cache_dir / f"{stem}.pcap", cache_dir / f"{stem}.json"
    if pcap.exists() and meta_path.exists():
        meta = json.loads(meta_path.read_text())
        meta["generate_s"] = 0.0
        return pcap, meta
    t0 = time.perf_counter()
    packets, meta = build(workload, seed, scale)
    tmp = pcap.with_suffix(f".tmp{os.getpid()}")
    write_capture(tmp, packets)
    os.replace(tmp, pcap)
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    meta["generate_s"] = time.perf_counter() - t0
    return pcap, meta
