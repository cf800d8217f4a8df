import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowlab import dataset, models
from flowlab.pcap import TCP_ACK, TCP_PSH, TCP_SYN, make_packet


# (proto, server port) pools for synthetic traffic; port choices line up
# with the default labeling rules so pipeline tests get >= 3 classes
SERVICES = [(6, 443), (17, 53), (6, 22), (6, 80), (17, 123)]


def synth_capture(rng, n_flows=40, base_ts=1_700_000_000,
                  idle_gap_prob=0.3, long_lived_prob=0.1,
                  idle_timeout=30.0, active_timeout=300.0,
                  with_fin=False, max_pkts=40):
    """Randomized, time-sorted packet list with idle gaps and long flows."""
    packets = []
    for _ in range(n_flows):
        proto, dport = SERVICES[int(rng.integers(len(SERVICES)))]
        client = f"10.{rng.integers(256)}.{rng.integers(256)}.{rng.integers(1, 255)}"
        server = f"192.168.{rng.integers(256)}.{rng.integers(1, 255)}"
        sport = int(rng.integers(1024, 65536))
        t = base_ts + float(rng.random() * 60.0)
        n_pkts = int(rng.integers(4, max_pkts))
        long_lived = rng.random() < long_lived_prob
        for i in range(n_pkts):
            fwd = rng.random() < 0.6 or i == 0
            flags = 0
            if proto == 6:
                flags = TCP_SYN if i == 0 else (TCP_ACK | (TCP_PSH if rng.random() < 0.3 else 0))
                if with_fin and i == n_pkts - 1:
                    flags |= 0x01  # FIN
            src, dst = (client, server) if fwd else (server, client)
            sp, dp = (sport, dport) if fwd else (dport, sport)
            packets.append(make_packet(
                int(t * 1e9), src, dst, sp, dp, proto,
                payload_len=int(rng.integers(0, 1200)), tcp_flags=flags))
            if rng.random() < idle_gap_prob / max(n_pkts - 1, 1) * 3:
                t += idle_timeout + 1.0 + float(rng.random() * 20)
            elif long_lived:
                t += active_timeout / n_pkts * 1.2
            else:
                t += float(rng.random() * 2.0)
    packets.sort(key=lambda p: p.ts)
    return packets


def pcap_bytes(frames, linktype=1, big_endian=False, nanosecond=True):
    """A classic PCAP file holding frames, a list of (ts_ns, frame bytes).

    Unlike write_capture, the frames are any bytes at all."""
    e = ">" if big_endian else "<"
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = [struct.pack(e + "IHHiIII", magic, 2, 4, 0, 0, 262144, linktype)]
    for ts, frame in frames:
        sec, sub = divmod(ts, 1_000_000_000)
        out.append(struct.pack(e + "IIII", sec,
                               sub if nanosecond else sub // 1000,
                               len(frame), len(frame)) + frame)
    return b"".join(out)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts with empty table and model memos: each to_csv and
    model.json write fills them, so otherwise the order of the tests could
    decide whether a file is parsed."""
    dataset._last_read = (None, None)
    models._last_model = (None, None)
