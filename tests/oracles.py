"""Independent brute-force references used to check the fast paths.

These deliberately share no code with the implementations they verify:
a captured frame is decoded one header at a time with struct, flow grouping is a sort + group-by + greedy split, the meter's export order
comes from a full walk of every resident flow, k-NN is a literal O(n^2)
scan, AUC is the Mann-Whitney rank statistic, the dataset CSV is written
one cell at a time, a flow segment is finalized from its own packets,
permutation importance predicts every shuffled matrix in full and scores
labels pair by pair, correlation groups link columns pair by pair, and
moments come from two passes over the values.
The only names taken from flowlab are constants (see
tests/test_oracles.py).
"""

from __future__ import annotations

import csv
import decimal
import io
import ipaddress
import math
import struct

import numpy as np

from flowlab.pcap import TCP_FIN, TCP_RST


def decode_frame(data: bytes, linktype: int, mtu: int = 1500, ts: int = 0):
    """Decode one captured frame, one header at a time.

    Returns the Packet fields (ts, src_ip, dst_ip, src_port, dst_port,
    proto, ip_len, payload_len, tcp_flags, super_packet) as a tuple,
    "skipped" for a frame that carries no plain IP packet or a malformed
    one, and "truncated" for a frame cut inside a header it claims.
    linktype is 1 (Ethernet) or 101 (raw IP).
    """
    if linktype == 1:
        if len(data) < 14:
            return "truncated"
        ethertype = struct.unpack_from("!H", data, 12)[0]
        off = 14
        if ethertype == 0x8100:  # single 802.1Q tag
            if len(data) < 18:
                return "truncated"
            ethertype = struct.unpack_from("!H", data, 16)[0]
            off = 18
        if ethertype == 0x0800:
            return _decode_ipv4(data, off, mtu, ts)
        if ethertype == 0x86DD:
            return _decode_ipv6(data, off, mtu, ts)
        return "skipped"
    if len(data) < 1:
        return "truncated"
    version = data[0] >> 4
    if version == 4:
        return _decode_ipv4(data, 0, mtu, ts)
    if version == 6:
        return _decode_ipv6(data, 0, mtu, ts)
    return "skipped"


def _decode_ipv4(data: bytes, off: int, mtu: int, ts: int):
    if len(data) < off + 20:
        return "truncated"
    vihl = data[off]
    if vihl >> 4 != 4:
        return "skipped"
    ihl = (vihl & 0x0F) * 4
    if ihl < 20:
        return "skipped"
    if len(data) < off + ihl:
        return "truncated"
    total_len = struct.unpack_from("!H", data, off + 2)[0]
    if total_len < ihl:
        return "skipped"
    flags_frag = struct.unpack_from("!H", data, off + 6)[0]
    if flags_frag & 0x1FFF != 0:    # a fragment other than the first
        return "skipped"
    return _finish_transport(data, off + ihl, ts, data[off + 12:off + 16],
                             data[off + 16:off + 20], data[off + 9],
                             total_len, total_len - ihl, mtu)


def _decode_ipv6(data: bytes, off: int, mtu: int, ts: int):
    if len(data) < off + 40:
        return "truncated"
    if data[off] >> 4 != 6:
        return "skipped"
    payload_len = struct.unpack_from("!H", data, off + 4)[0]
    # extension headers are not walked; they count as opaque payload
    return _finish_transport(data, off + 40, ts, data[off + 8:off + 24],
                             data[off + 24:off + 40], data[off + 6],
                             40 + payload_len, payload_len, mtu)


def _finish_transport(data: bytes, toff: int, ts: int, src: bytes,
                      dst: bytes, proto: int, ip_len: int,
                      transport_len: int, mtu: int):
    src_port = dst_port = tcp_flags = 0
    payload_len = transport_len
    if proto == 6:
        if len(data) < toff + 20 or transport_len < 20:
            return "truncated"
        src_port, dst_port = struct.unpack_from("!HH", data, toff)
        doff = (data[toff + 12] >> 4) * 4
        if doff < 20 or transport_len < doff:
            return "skipped"
        tcp_flags = data[toff + 13] & 0x3F
        payload_len = transport_len - doff
    elif proto == 17:
        if len(data) < toff + 8 or transport_len < 8:
            return "truncated"
        src_port, dst_port = struct.unpack_from("!HH", data, toff)
        payload_len = transport_len - 8
    return (ts, src, dst, src_port, dst_port, proto, ip_len, payload_len,
            tcp_flags, ip_len > mtu)


def read_capture(data: bytes, mtu: int = 1500):
    """Walk the records of a classic PCAP file's bytes one at a time.

    Returns (packets, counts, cut): the decode_frame tuples of the decoded
    frames in order, {"total_frames", "decoded", "skipped", "truncated"},
    and (message, offset) of the record cut short at the end of data, or
    None. The global header must be valid.
    """
    e = "<" if data[:4] in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1") else ">"
    subsec_ns = 1 if struct.unpack(e + "I", data[:4])[0] == 0xA1B23C4D \
        else 1000
    linktype = struct.unpack_from(e + "I", data, 20)[0]
    packets = []
    counts = dict.fromkeys(("total_frames", "decoded", "skipped",
                            "truncated"), 0)
    off = 24
    while off < len(data):
        if len(data) < off + 16:
            return packets, counts, ("truncated record header", off)
        sec, sub, incl_len, _ = struct.unpack_from(e + "IIII", data, off)
        if len(data) < off + 16 + incl_len:
            return packets, counts, ("truncated record body", off + 16)
        got = decode_frame(data[off + 16:off + 16 + incl_len], linktype, mtu,
                           sec * 1_000_000_000 + sub * subsec_ns)
        counts["total_frames"] += 1
        if isinstance(got, tuple):
            counts["decoded"] += 1
            packets.append(got)
        else:
            counts[got] += 1
        off += 16 + incl_len
    return packets, counts, None


def _five_tuple(pkt) -> tuple:
    return (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto)


def _canonical(pkt) -> tuple:
    """(lo_ip, lo_port, hi_ip, hi_port, proto): the two endpoints ordered
    by (ip bytes, port)."""
    lo, hi = sorted([(pkt.src_ip, pkt.src_port), (pkt.dst_ip, pkt.dst_port)])
    return (*lo, *hi, pkt.proto)


def brute_force_flows(packets, idle_timeout: float, active_timeout: float,
                      honor_fin_rst: bool = False):
    """Greedy reference segmentation over time-sorted packets.

    Returns a sorted list of tuples
    (canonical key tuple, segment, fwd_pkts, bwd_pkts, fwd_bytes, bwd_bytes,
     flow_start_ns, flow_end_ns).
    """
    idle_ns = int(idle_timeout * 1e9)
    active_ns = int(active_timeout * 1e9)
    by_key: dict = {}
    for i, pkt in enumerate(sorted(packets, key=lambda p: p.ts)):
        by_key.setdefault(_canonical(pkt), []).append(pkt)

    out = []
    for ckey, pkts in by_key.items():
        segment = 0
        seg = []
        closed = False

        def close(seg, segment):
            initiator = _five_tuple(seg[0])
            fwd = [p for p in seg if _five_tuple(p) == initiator]
            bwd = [p for p in seg if _five_tuple(p) != initiator]
            out.append((
                ckey,
                segment,
                len(fwd), len(bwd),
                sum(p.ip_len for p in fwd), sum(p.ip_len for p in bwd),
                min(p.ts for p in seg), max(p.ts for p in seg),
            ))

        for pkt in pkts:
            if seg and (pkt.ts - seg[-1].ts > idle_ns
                        or pkt.ts - seg[0].ts >= active_ns):
                close(seg, segment)
                segment += 1
                seg = []
            seg.append(pkt)
            if honor_fin_rst and pkt.proto == 6 \
                    and pkt.tcp_flags & (TCP_FIN | TCP_RST):
                close(seg, segment)
                segment += 1
                seg = []
        if seg:
            close(seg, segment)
    return sorted(out)


def _ns(text: str) -> int:
    """Decimal seconds text as integer ns."""
    return int(decimal.Decimal(text).scaleb(9))


def meter_records_summary(records, table):
    """Project exported records and their rows of the flow table ``table``
    (what records_to_rows gave for them) onto the oracle tuple shape."""
    cols = table.data
    out = []
    for i, r in enumerate(records):
        c = r.canonical
        out.append((
            (c.lo_ip, c.lo_port, c.hi_ip, c.hi_port, c.proto),
            r.segment_index,
            int(cols["fwd_packet_count"][i]), int(cols["bwd_packet_count"][i]),
            int(cols["fwd_byte_count"][i]), int(cols["bwd_byte_count"][i]),
            _ns(cols["flow_start"][i]), _ns(cols["flow_end"][i]),
        ))
    return sorted(out)


def meter_export_oracle(packets, idle_timeout: float, active_timeout: float,
                        max_flows: int, reorder_slack: float,
                        honor_fin_rst: bool, scan_interval: int = 1024):
    """The flow cache's lifecycle with a scan that walks every resident flow.

    Flows live in a dict in least-recently-updated order (an update pops
    and re-inserts). A packet more than the slack behind the highest
    timestamp seen is dropped unless its flow is resident. Before a packet
    is applied its own flow expires if idle or past its active timeout; a
    new flow first evicts the least recent one when the cache is full; a
    TCP FIN or RST closes the flow; every scan_interval applied packets
    all resident flows are checked in LRU order, idle before active; the
    rest leave at the end by flow start (ties in LRU order).

    Returns ([(canonical tuple, segment, reason) in export order],
    dropped late packets, [the applied packets of each export, in order]).
    """
    idle_ns = int(idle_timeout * 1e9)
    active_ns = int(active_timeout * 1e9)
    slack_ns = int(reorder_slack * 1e9)
    live: dict = {}    # canonical -> [flow start, last ts, seg, packets]
    segments: dict = {}
    out, packets_out = [], []
    watermark = applied = dropped = 0

    def close(ckey, reason):
        flow = live.pop(ckey)
        out.append((ckey, flow[2], reason))
        packets_out.append(flow[3])

    def expired(flow, now):
        if now - flow[1] > idle_ns:
            return "idle"
        if now - flow[0] >= active_ns:
            return "active"
        return None

    for pkt in packets:
        ckey = _canonical(pkt)
        if ckey not in live and pkt.ts < watermark - slack_ns:
            dropped += 1
            continue
        watermark = max(watermark, pkt.ts)
        if ckey in live:
            reason = expired(live[ckey], pkt.ts)
            if reason:
                close(ckey, reason)
        if ckey in live:
            flow = live.pop(ckey)
            flow[1] = pkt.ts
        else:
            if len(live) >= max_flows:
                close(next(iter(live)), "pressure")
            flow = [pkt.ts, pkt.ts, segments.get(ckey, 0), []]
            segments[ckey] = flow[2] + 1
        flow[3].append(pkt)
        live[ckey] = flow
        if honor_fin_rst and pkt.proto == 6 \
                and pkt.tcp_flags & (TCP_FIN | TCP_RST):
            close(ckey, "fin_rst")
        applied += 1
        if applied % scan_interval == 0:
            for ckey in list(live):
                reason = expired(live[ckey], watermark)
                if reason:
                    close(ckey, reason)
    for ckey in sorted(live, key=lambda k: live[k][0]):
        close(ckey, "end_of_input")
    return out, dropped, packets_out


_FLAG_NAMES = ("fin", "syn", "rst", "psh", "ack", "urg")
_STATS = ("mean", "var", "skew", "kurt", "min", "max", "mean_valid",
          "var_valid", "shape_valid")


def _ip_text(ip: bytes, anonymize: str) -> str:
    if len(ip) == 4:
        octets = list(ip)
        if anonymize == "truncate_v4_24":
            octets[3] = 0
        return ".".join(str(o) for o in octets)
    return str(ipaddress.IPv6Address(ip))


def _seconds_text(ns: int) -> str:
    """Integer ns as decimal seconds with exactly nine fractional digits."""
    return format(decimal.Decimal(ns).scaleb(-9), ".9f")


def _gaps(ts) -> list:
    """Each timestamp after the first minus the highest one before it, in
    ns, and 0 when it is not later."""
    out = []
    for i, t in enumerate(ts):
        if i:
            out.append(max(0, t - top))
            top = max(top, t)
        else:
            top = t
    return out


def _moments_oracle(values) -> list:
    """mean, var, skew, kurt, min, max and the mean, var and shape validity
    flags of values pushed one at a time through the single-pass
    Welford/Pebay update, by its float operations in its order."""
    n, m1, m2, m3, m4 = 0, 0.0, 0.0, 0.0, 0.0
    for x in values:
        n1, n = n, n + 1
        delta = x - m1
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        m1 += delta_n
        m4 += (term1 * delta_n2 * (n * n - 3 * n + 3)
               + 6 * delta_n2 * m2 - 4 * delta_n * m3)
        m3 += term1 * delta_n * (n - 2) - 3 * delta_n * m2
        m2 += term1
    if n == 0:
        return [0.0] * 6 + [0, 0, 0]
    if n == 1:
        return [m1, 0.0, 0.0, 0.0, min(values), max(values), 1, 0, 0]
    var = m2 / n
    if m2 > 0.0:
        return [m1, var, (m3 / n) / var ** 1.5,
                (m4 / n) / (var * var) - 3.0, min(values), max(values),
                1, 1, 1]
    return [m1, var, 0.0, 0.0, min(values), max(values), 1, 1, 0]


def finalize_oracle(packets, reason: str, segment: int, meter_splt_n: int,
                    splt_n: int, anonymize: str) -> dict:
    """The flow-table row of one exported segment, from its own applied
    packets in arrival order (see meter_export_oracle): column name ->
    value, the timestamps as decimal strings, the rest of the numbers as
    ints or floats, one value at a time. The SPLT length counts up to the
    metering splt_n, the SPLT columns up to splt_n."""
    init = _five_tuple(packets[0])
    sides = {"fwd": [p for p in packets if _five_tuple(p) == init],
             "bwd": [p for p in packets if _five_tuple(p) != init]}
    fwd, bwd = sides["fwd"], sides["bwd"]
    ts = [p.ts for p in packets]
    start, end = min(ts), max(ts)
    total_bytes = sum(p.ip_len for p in packets)
    duration = (end - start) / 1e9
    row = {
        "src_ip": _ip_text(init[0], anonymize),
        "dst_ip": _ip_text(init[1], anonymize),
        "src_port": init[2],
        "flow_start": _seconds_text(start), "flow_end": _seconds_text(end),
        "export_reason": reason,
        "segment_index": segment,
        "proto": init[4], "dst_port": init[3],
        "fwd_packet_count": len(fwd), "bwd_packet_count": len(bwd),
        "total_packet_count": len(packets),
        "fwd_byte_count": sum(p.ip_len for p in fwd),
        "bwd_byte_count": sum(p.ip_len for p in bwd),
        "total_byte_count": total_bytes,
        "fwd_payload_bytes": sum(p.payload_len for p in fwd),
        "bwd_payload_bytes": sum(p.payload_len for p in bwd),
    }
    for side, d in sides.items():
        d_ts = [p.ts for p in d]
        row[f"{side}_duration"] = ((max(d_ts) - min(d_ts)) / 1e9
                                   if len(d) >= 2 else 0.0)
        row[f"{side}_duration_valid"] = int(len(d) >= 2)
    row["flow_duration"] = duration
    for side, d in sides.items():
        row.update(zip((f"{side}_size_{s}" for s in _STATS),
                       _moments_oracle([float(p.ip_len) for p in d])))
    for side, d in sides.items():
        row.update(zip((f"{side}_piat_{s}" for s in _STATS), _moments_oracle(
            [g / 1e9 for g in _gaps([p.ts for p in d])])))
    row["packet_ratio"] = len(fwd) / max(len(bwd), 1)
    row["byte_ratio"] = row["fwd_byte_count"] / max(row["bwd_byte_count"], 1)
    row["bytes_per_packet"] = total_bytes / len(packets)
    row["packets_per_second"] = (len(packets) / duration if duration > 0
                                 else 0.0)
    for bit, name in enumerate(_FLAG_NAMES):
        row[f"flag_{name}_count"] = sum(p.tcp_flags >> bit & 1
                                        for p in packets if p.proto == 6)
    splt = [(1 if _five_tuple(p) == init else -1, p.ip_len, gap / 1e9)
            for p, gap in zip(packets[:meter_splt_n], [0] + _gaps(ts))]
    row["splt_len"] = len(splt)
    for i in range(splt_n):
        d, size, gap = splt[i] if i < len(splt) else (0, 0, 0.0)
        row.update({f"splt_dir_{i}": d, f"splt_size_{i}": size,
                    f"splt_piat_{i}": gap})
    return row


def two_pass_moments(values) -> tuple[float, float, float, float]:
    """Reference two-pass mean/variance/skewness/kurtosis, in the
    conventions of flowlab.stats.Moments."""
    xs = list(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs)
    m3 = sum((x - mean) ** 3 for x in xs)
    m4 = sum((x - mean) ** 4 for x in xs)
    var = m2 / n if n >= 2 else 0.0
    if n >= 2 and m2 > 0.0:
        skew = (m3 / n) / (m2 / n) ** 1.5
        kurt = (m4 / n) / (m2 / n) ** 2 - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    return mean, var, skew, kurt


def flow_gaps_oracle(packets):
    """Per canonical key, in arrival order: the forward and backward
    inter-arrival gaps and the flow-wide gaps, in ns.

    A gap is measured from the highest earlier timestamp (of the direction,
    or of the flow) and is 0 when the packet is not later than it. The
    forward direction is the first packet's. Meant for one flow per key:
    no timeout, FIN or late drop splits it.
    """
    flows: dict = {}
    for pkt in packets:
        flow = flows.setdefault(_canonical(pkt), {
            "initiator": _five_tuple(pkt), "fwd": [], "bwd": [], "all": []})
        side = "fwd" if _five_tuple(pkt) == flow["initiator"] else "bwd"
        flow[side].append(pkt.ts)
        flow["all"].append(pkt.ts)

    def gaps(ts):
        return [max(0, t - max(ts[:i])) for i, t in enumerate(ts) if i]

    return {ckey: {"fwd": gaps(f["fwd"]), "bwd": gaps(f["bwd"]),
                   "all": gaps(f["all"])}
            for ckey, f in flows.items()}


def knn_oracle(train_X, train_y, query, k):
    """Literal nearest-neighbor vote with the same tie-break rules."""
    dists = [(float(np.sum((np.asarray(x) - np.asarray(query)) ** 2)), i)
             for i, x in enumerate(train_X)]
    dists.sort()   # distance, then train index
    votes = {}
    for _, i in dists[:k]:
        votes[train_y[i]] = votes.get(train_y[i], 0) + 1
    best = max(votes.values())
    classes = sorted(set(train_y))
    for c in classes:
        if votes.get(c, 0) == best:
            return c
    raise AssertionError("unreachable")


def mann_whitney_auc(scores, labels) -> float:
    """AUC as U / (n_pos * n_neg) with midranks for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=float)
    s = scores[order]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0   # midrank, 1-based
        i = j
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# -- CART reference: scalar split scan, recursive grow, per-row walk ----------

def _labels_oracle(y):
    classes = sorted({str(v) for v in y})
    return np.asarray([classes.index(str(v)) for v in y]), classes


def _gini_oracle(counts) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p ** 2).sum())


def _split_oracle(X, y, n_classes, feature_ids):
    """Sample-by-sample scan of every feature in ascending order; a cut
    replaces the best only if it beats it by more than 1e-15."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_imp = _gini_oracle(parent_counts)
    best = None
    for f in sorted(feature_ids):
        xs = X[:, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[order]
        left = np.zeros(n_classes)
        right = parent_counts.astype(np.float64).copy()
        for i in range(n - 1):
            c = ys_sorted[i]
            left[c] += 1
            right[c] -= 1
            if xs_sorted[i] == xs_sorted[i + 1] or (
                    np.isnan(xs_sorted[i]) and np.isnan(xs_sorted[i + 1])):
                continue
            nl = i + 1
            nr = n - nl
            dec = parent_imp - (nl * _gini_oracle(left)
                                + nr * _gini_oracle(right)) / n
            thr = (xs_sorted[i] + xs_sorted[i + 1]) / 2.0
            if not thr < xs_sorted[i + 1]:
                thr = xs_sorted[i]   # the midpoint rounded up to the right
            if best is None or dec > best[0] + 1e-15:
                best = (float(dec), int(f), float(thr))
    return best


def _grow_oracle(X, y, n_classes, depth, params, n_total, rng, m) -> dict:
    counts = np.bincount(y, minlength=n_classes)
    node = {"impurity": _gini_oracle(counts), "n": len(y),
            "probs": (counts / len(y)).tolist()}
    if (node["impurity"] == 0.0 or len(y) < params["min_samples_split"]
            or (params["max_depth"] is not None
                and depth >= params["max_depth"])):
        return node
    if m is not None:
        feature_ids = np.sort(rng.permutation(X.shape[1])[:m])
    else:
        feature_ids = range(X.shape[1])
    found = _split_oracle(X, y, n_classes, feature_ids)
    if found is None:
        return node
    dec, f, thr = found
    if dec <= 0.0 or dec < params["min_impurity_decrease"]:
        return node
    mask = X[:, f] <= thr
    node.update(feature=f, threshold=thr, importance=(len(y) / n_total) * dec,
                left=_grow_oracle(X[mask], y[mask], n_classes, depth + 1,
                                  params, n_total, rng, m),
                right=_grow_oracle(X[~mask], y[~mask], n_classes, depth + 1,
                                   params, n_total, rng, m))
    return node


def tree_oracle(X, y, max_depth=None, min_samples_split=2,
                min_impurity_decrease=0.0) -> dict:
    """`tree_fit`'s tree as a nested document: each node a dict, a split's
    children under "left" and "right" (`flat_doc` gives the layout
    `model_to_json` writes)."""
    X = np.asarray(X, dtype=np.float64)
    y_enc, classes = _labels_oracle(y)
    params = {"max_depth": max_depth, "min_samples_split": min_samples_split,
              "min_impurity_decrease": min_impurity_decrease}
    root = _grow_oracle(X, y_enc, len(classes), 0, params, len(y_enc), None,
                        None)
    return {"kind": "tree", "classes": classes, "n_features": X.shape[1],
            "root": root}


def forest_oracle(X, y, n_trees, seed, m=None, max_depth=None,
                  min_samples_split=2) -> dict:
    """`forest_fit`'s trees as a nested document, as in `tree_oracle`: one
    seed per tree drawn from the forest seed, then the tree's bootstrap
    rows and per-node feature samples from that tree's generator."""
    X = np.asarray(X, dtype=np.float64)
    y_enc, classes = _labels_oracle(y)
    n, d = X.shape
    m = m if m is not None else max(1, int(np.ceil(np.sqrt(d))))
    params = {"max_depth": max_depth, "min_samples_split": min_samples_split,
              "min_impurity_decrease": 0.0}
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(2 ** 63))
        idx = tree_rng.integers(0, n, size=n)
        trees.append(_grow_oracle(X[idx], y_enc[idx], len(classes), 0, params,
                                  n, tree_rng, m if m < d else None))
    return {"kind": "forest", "classes": classes, "n_features": d, "m": m,
            "seed": seed, "trees": trees}


def correlation_groups_oracle(X, threshold: float) -> list[tuple]:
    """Connected components of the graph that links two columns when
    neither is constant and their two-column |np.corrcoef| is at least the
    threshold, found by depth-first search."""
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    varies = [len(set(X[:, j].tolist())) > 1 for j in range(d)]
    links = {j: [] for j in range(d)}
    for i in range(d):
        for j in range(i + 1, d):
            if not (varies[i] and varies[j]):
                continue
            # subnormal cells: the variance underflows to 0 and r is clipped
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.corrcoef(X[:, i], X[:, j])[0, 1]
            if abs(r) >= threshold:
                links[i].append(j)
                links[j].append(i)
    seen, groups = set(), []
    for s in range(d):
        if s in seen:
            continue
        seen.add(s)
        todo, group = [s], []
        while todo:
            v = todo.pop()
            group.append(v)
            for w in links[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        groups.append(tuple(sorted(group)))
    return sorted(groups)


NODE_FIELDS = ("feature", "threshold", "left", "right", "probs", "impurity",
               "n_samples", "importance")


def _flatten(node: dict, cols: dict) -> int:
    """Append node, then its left subtree, then its right subtree to the
    columns; the node's index."""
    i = len(cols["feature"])
    for name, value in (("feature", node.get("feature", -1)),
                        ("threshold", node.get("threshold", 0.0)),
                        ("left", i), ("right", i), ("probs", node["probs"]),
                        ("impurity", node["impurity"]),
                        ("n_samples", node["n"]),
                        ("importance", node.get("importance", 0.0))):
        cols[name].append(value)
    if "feature" in node:
        cols["left"][i] = _flatten(node["left"], cols)
        cols["right"][i] = _flatten(node["right"], cols)
    return i


def flat_doc(doc: dict) -> dict:
    """A nested `tree_oracle` or `forest_oracle` document in the layout
    `model_to_json` writes: every tree's nodes in preorder, one list per
    field under "nodes" (a leaf has feature -1, threshold and importance
    0.0 and is its own child), and each tree's first node under "roots"."""
    cols = {name: [] for name in NODE_FIELDS}
    trees = doc["trees"] if doc["kind"] == "forest" else [doc["root"]]
    out = {k: v for k, v in doc.items() if k not in ("root", "trees")}
    out["roots"] = [_flatten(root, cols) for root in trees]
    out["nodes"] = cols
    return out


def tree_proba_oracle(doc: dict, X) -> np.ndarray:
    """Walk each row down each tree, of a nested or a flat document; average
    the leaves in tree order."""
    X = np.asarray(X, dtype=np.float64)
    acc = np.zeros((len(X), len(doc["classes"])))
    if "nodes" in doc:
        nodes = doc["nodes"]
        for root in doc["roots"]:
            for i, x in enumerate(X):
                j = root
                while nodes["feature"][j] >= 0:
                    j = nodes["left"][j] \
                        if x[nodes["feature"][j]] <= nodes["threshold"][j] \
                        else nodes["right"][j]
                acc[i] += np.asarray(nodes["probs"][j])
        return acc / len(doc["roots"])
    trees = doc["trees"] if doc["kind"] == "forest" else [doc["root"]]
    for root in trees:
        for i, x in enumerate(X):
            node = root
            while "feature" in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] \
                    else node["right"]
            acc[i] += np.asarray(node["probs"])
    return acc / len(trees)


def _score_oracle(metric: str, actual, predicted) -> float:
    """Accuracy, or macro-F1 over the labels seen in either list (a class
    with no prediction or no instance scores 0 precision or recall)."""
    pairs = list(zip(actual, predicted))
    if metric == "accuracy":
        return sum(a == p for a, p in pairs) / len(pairs)
    f1 = []
    for c in sorted(set(actual) | set(predicted)):
        tp = sum(a == c and p == c for a, p in pairs)
        fp = sum(a != c and p == c for a, p in pairs)
        fn = sum(a == c and p != c for a, p in pairs)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1.append(2.0 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
    return float(np.mean(f1))


def permutation_importance_oracle(doc: dict, X, y, metric: str,
                                  repeats: int, groups, seed: int) -> list:
    """[(mean drop, std of drops)] per group: every repeat shuffles the
    group's columns with one permutation drawn from one generator, predicts
    the whole shuffled matrix with tree_proba_oracle and scores the labels.
    """
    X = np.asarray(X, dtype=np.float64)
    actual = [str(v) for v in y]

    def score(M):
        probs = tree_proba_oracle(doc, M)
        predicted = [doc["classes"][int(np.argmax(p))] for p in probs]
        return _score_oracle(metric, actual, predicted)

    baseline = score(X)
    rng = np.random.default_rng(seed)
    out = []
    for group in groups:
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(X))
            Xp = X.copy()
            for col in group:
                Xp[:, col] = X[perm, col]
            drops.append(baseline - score(Xp))
        out.append((float(np.mean(drops)), float(np.std(drops))))
    return out


def dataset_csv_oracle(ds) -> bytes:
    """A dataset's CSV bytes (no config-hash line), formatted cell by cell.

    A numeric cell is an integer when the value is finite, integral and
    below 1e15 in magnitude (so -0.0 is "0"), otherwise repr of the float
    ("nan", "inf", "1e+300"); any other cell is str of the value.
    """
    def cell(v, kind):
        if kind != "numeric":
            return str(v)
        f = float(v)
        if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
            return str(int(f))
        return repr(f)

    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["row_id"] + list(ds.names))
    for i in range(len(ds.row_ids)):
        w.writerow([str(int(ds.row_ids[i]))]
                   + [cell(ds.data[n][i], ds.kinds[n]) for n in ds.names])
    return buf.getvalue().encode()
