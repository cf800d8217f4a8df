"""Dataset quality diagnosis, universal cleaning, and feature engineering.

Cleaning applies split-independent rules in a fixed order so that a second
application is a no-op: explicit column drops, missing-heavy columns,
near-constant columns, exact duplicate rows, plausibility violations, and
the TCP minimal-handshake rule. Every drop is written to an audit log.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import ConfigError

MISSING_TOKENS = {"", "nan", "NaN", "None"}


@dataclass
class QualityReport:
    rows: int
    columns: int
    missing_fraction: dict[str, float]
    distinct_count: dict[str, int]
    variance: dict[str, float]
    duplicate_rows: int
    plausibility_violations: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CleaningConfig:
    drop_columns: tuple = ()
    missing_drop_threshold: float = 0.95
    variance_epsilon: float = 1e-12
    min_tcp_packets: int = 3


def _missing(ds: Dataset, name: str) -> np.ndarray:
    """The cells of a column that are NaN, or a missing token as text."""
    col = ds.data[name]
    if ds.kinds[name] == "numeric":
        return np.isnan(col)
    return np.asarray([str(v) in MISSING_TOKENS for v in col], dtype=bool)


def _fraction(mask: np.ndarray) -> float:
    return float(np.mean(mask)) if len(mask) else 0.0


def _non_metadata_row_tuples(ds: Dataset) -> list[tuple]:
    cols = [n for n in ds.names if ds.kinds[n] != "metadata"]
    # NaN is never equal to NaN, so a row holding one is never a duplicate;
    # -0.0 equals 0.0, and text compares by value
    if not cols:
        return [()] * len(ds)
    return list(zip(*(ds.data[n].tolist() for n in cols)))


def _plausibility_masks(ds: Dataset) -> dict[str, np.ndarray]:
    """Rule id -> boolean mask of violating rows."""
    n = len(ds)
    masks: dict[str, np.ndarray] = {}

    def col(name):
        if name in ds.data and ds.kinds[name] == "numeric":
            return ds.data[name]
        return None

    dur = col("flow_duration")
    if dur is not None:
        masks["negative_duration"] = dur < 0
    pkts = col("total_packet_count")
    bytes_ = col("total_byte_count")
    if pkts is not None and bytes_ is not None:
        masks["zero_packets_nonzero_bytes"] = (pkts == 0) & (bytes_ > 0)
    for name in ("fwd_size_max", "bwd_size_max"):
        c = col(name)
        if c is not None:
            masks.setdefault("oversize_packet", np.zeros(n, dtype=bool))
            masks["oversize_packet"] |= c > 65535
    start, end = None, None
    if "flow_start" in ds.data and "flow_end" in ds.data:
        try:
            start = np.asarray([float(v) for v in ds.data["flow_start"]])
            end = np.asarray([float(v) for v in ds.data["flow_end"]])
        except ValueError:
            start = end = None
    if start is not None:
        masks["end_before_start"] = end < start
    return masks


def diagnose(ds: Dataset) -> QualityReport:
    """Compute the quality report without mutating the dataset."""
    missing, distinct, variance = {}, {}, {}
    for name in ds.names:
        col, miss = ds.data[name], _missing(ds, name)
        if ds.kinds[name] == "numeric":
            vals = col[~miss]
            variance[name] = float(np.var(vals)) if len(vals) else 0.0
            distinct[name] = int(len(np.unique(vals)))
        else:
            distinct[name] = len({str(v) for v in col[~miss]})
        missing[name] = _fraction(miss)
    tuples = _non_metadata_row_tuples(ds)
    duplicates = len(tuples) - len(set(tuples))
    violations = {rule: int(mask.sum())
                  for rule, mask in _plausibility_masks(ds).items()}
    return QualityReport(rows=len(ds), columns=len(ds.names),
                         missing_fraction=missing, distinct_count=distinct,
                         variance=variance, duplicate_rows=duplicates,
                         plausibility_violations=violations)


def clean(ds: Dataset, rules: Optional[CleaningConfig] = None
          ) -> tuple[Dataset, list[dict]]:
    """Apply universal cleaning rules; returns (dataset, audit log).

    The rule sequence runs to a fixpoint (row drops can make a column
    constant), which is what makes a second clean() call a guaranteed no-op.
    """
    rules = rules or CleaningConfig()
    audit: list[dict] = []
    out = ds.copy()
    while True:
        out, events = _clean_pass(out, rules)
        audit.extend(events)
        if not events:
            return out, audit


def _clean_pass(ds: Dataset, rules: CleaningConfig
                ) -> tuple[Dataset, list[dict]]:
    audit: list[dict] = []
    out = ds

    label = out.label_column
    explicit = [c for c in rules.drop_columns if c in out.names]
    if label is not None and label in explicit:
        raise ConfigError("cleaning config would drop the label column")
    if explicit:
        out.drop_columns(explicit)
        audit.append({"rule": "explicit_drop", "columns": explicit,
                      "count": len(explicit)})

    miss_drop = [n for n in out.names
                 if out.kinds[n] not in ("label", "metadata")
                 and _fraction(_missing(out, n)) > rules.missing_drop_threshold]
    if miss_drop:
        out.drop_columns(miss_drop)
        audit.append({"rule": "missing_columns", "columns": miss_drop,
                      "count": len(miss_drop)})

    const_drop = [n for n in out.names
                  if out.kinds[n] == "numeric"
                  and float(np.var(out.data[n][~np.isnan(out.data[n])]
                                   if np.isnan(out.data[n]).any()
                                   else out.data[n])) <= rules.variance_epsilon]
    if const_drop:
        out.drop_columns(const_drop)
        audit.append({"rule": "near_zero_variance", "columns": const_drop,
                      "count": len(const_drop)})

    tuples = _non_metadata_row_tuples(out)
    seen: set = set()
    keep = np.ones(len(out), dtype=bool)
    for i, t in enumerate(tuples):
        if t in seen:
            keep[i] = False
        else:
            seen.add(t)
    if not keep.all():
        audit.append({"rule": "duplicate_rows", "count": int((~keep).sum())})
        out = out.subset(keep)

    bad = np.zeros(len(out), dtype=bool)
    for rule, mask in _plausibility_masks(out).items():
        if mask.any():
            audit.append({"rule": f"plausibility:{rule}",
                          "count": int(mask.sum())})
            bad |= mask
    if bad.any():
        out = out.subset(~bad)

    # TCP flows showing a SYN but fewer packets than a minimal handshake
    if ("proto" in out.data and "flag_syn_count" in out.data
            and "total_packet_count" in out.data):
        protos = np.asarray([float(v) for v in out.data["proto"]])
        syn = out.data["flag_syn_count"]
        pkts = out.data["total_packet_count"]
        short = (protos == 6) & (syn >= 1) & (pkts < rules.min_tcp_packets)
        if short.any():
            audit.append({"rule": "tcp_short_handshake",
                          "count": int(short.sum())})
            out = out.subset(~short)

    return out, audit


def write_audit_log(audit: list[dict], path) -> None:
    with open(path, "w") as f:
        for event in audit:
            f.write(json.dumps(event, sort_keys=True) + "\n")


STATELESS_SOURCES = ("fwd_packet_count", "bwd_packet_count",
                     "fwd_byte_count", "bwd_byte_count", "flow_duration")


def engineer_stateless(ds: Dataset) -> Dataset:
    """Add directional-aggregation features where absent; never overwrites."""
    for src in STATELESS_SOURCES:
        if src not in ds.data:
            raise ConfigError(f"missing source column {src!r}")
    out = ds.copy()
    fp = out.data["fwd_packet_count"]
    bp = out.data["bwd_packet_count"]
    fb = out.data["fwd_byte_count"]
    bb = out.data["bwd_byte_count"]
    dur = out.data["flow_duration"]
    derived = {
        "total_packet_count": fp + bp,
        "total_byte_count": fb + bb,
        "packet_ratio": fp / np.maximum(bp, 1.0),
        "byte_ratio": fb / np.maximum(bb, 1.0),
        "bytes_per_packet": (fb + bb) / np.maximum(fp + bp, 1.0),
        "packets_per_second": np.where(dur > 0, (fp + bp) / np.where(dur > 0, dur, 1.0), 0.0),
    }
    for name, values in derived.items():
        if name not in out.data:
            out.add_column(name, "numeric", values)
    return out


def engineer_stateful(ds: Dataset, window: float,
                      src_key: str = "src_ip",
                      time_key: str = "flow_start",
                      dst_keys: tuple = ("dst_ip", "dst_port")) -> Dataset:
    """Windowed host-centric features, lookahead-free.

    For each row, counts use only rows whose start time is strictly earlier
    and within [t - window, t). Also adds the service-centric fan-in count
    keyed by (dst_ip, dst_port).
    """
    for k in (src_key, time_key):
        if k not in ds.data:
            raise ConfigError(f"missing metadata column {k!r}")
    out = ds.copy()
    n = len(out)
    times = np.asarray([float(v) for v in out.data[time_key]])
    order = np.lexsort((out.row_ids, times))  # stable, permutation-invariant

    srcs = out.data[src_key]
    dsts = [tuple(str(out.data[k][i]) for k in dst_keys) for i in range(n)]

    src_active = np.zeros(n)
    src_rate = np.zeros(n)
    src_ports = np.zeros(n)
    svc_fanin = np.zeros(n)

    from collections import defaultdict, deque
    src_hist: dict = defaultdict(deque)   # src -> deque[(t, dst_port)]
    svc_hist: dict = defaultdict(deque)   # (dst_ip,dst_port) -> deque[(t, src)]

    for i in order:
        t = times[i]
        s = str(srcs[i])
        dq = src_hist[s]
        while dq and dq[0][0] < t - window:
            dq.popleft()
        live = [e for e in dq if e[0] < t]
        src_active[i] = len(live)
        src_rate[i] = len(live) / window
        src_ports[i] = len({p for _, p in live})
        vq = svc_hist[dsts[i]]
        while vq and vq[0][0] < t - window:
            vq.popleft()
        svc_fanin[i] = len({src for tt, src in vq if tt < t})

        port = out.data["dst_port"][i] if "dst_port" in out.data else 0
        dq.append((t, float(port)))
        vq.append((t, s))

    out.add_column("src_active_flows", "numeric", src_active)
    out.add_column("src_new_flow_rate", "numeric", src_rate)
    out.add_column("src_distinct_dst_ports", "numeric", src_ports)
    out.add_column("dst_unique_sources", "numeric", svc_fanin)
    return out
