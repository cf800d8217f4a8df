"""Ground-truth labeling via port rules and endpoint mapping files.

Port rules give a low-confidence baseline for a handful of legacy services;
mapping files (endpoint -> label) are the plug-in point for any external
intelligence source. Outcomes from several sources are combined by strict
precedence, never by voting.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .dataset import UNKNOWN_LABEL as UNKNOWN
from .errors import ConfigError, DataError

CONFIDENCES = ("low", "high")


@dataclass(frozen=True)
class LabelOutcome:
    """A flow's label, its source and how far to trust it."""

    label: str = UNKNOWN
    source: str = "none"        # port | map | none
    confidence: str = "low"

    @property
    def is_known(self) -> bool:
        return self.source != "none"


@dataclass(frozen=True)
class PortRule:
    """A label for traffic to one (destination port, protocol)."""

    dst_port: int
    proto: int
    label: str
    confidence: str = "low"
    priority: int = 0


# Legacy well-known services; deliberately low confidence (port labels are
# unreliable for modern traffic).
DEFAULT_PORT_RULES = (
    PortRule(22, 6, "SSH", "low", 10),
    PortRule(25, 6, "SMTP", "low", 20),
    PortRule(53, 17, "DNS", "low", 30),
    PortRule(53, 6, "DNS", "low", 31),
    PortRule(80, 6, "HTTP", "low", 40),
    PortRule(443, 6, "HTTPS", "low", 50),
    PortRule(443, 17, "QUIC", "low", 51),
    PortRule(123, 17, "NTP", "low", 60),
    PortRule(143, 6, "IMAP", "low", 70),
    PortRule(3389, 6, "RDP", "low", 80),
)


def validate_rules(rules: Sequence[PortRule]) -> None:
    prios = [r.priority for r in rules]
    if len(set(prios)) != len(prios):
        raise ConfigError("port rule priorities must be unique")
    for r in rules:
        if r.confidence not in CONFIDENCES:
            raise ConfigError(f"bad confidence {r.confidence!r}")


def label_by_port(dst_port: int, proto: int,
                  rules: Sequence[PortRule] = DEFAULT_PORT_RULES) -> LabelOutcome:
    """Highest-priority (lowest number) matching (dst_port, proto) rule."""
    best = min((r for r in rules if r.dst_port == dst_port
                and r.proto == proto), key=lambda r: r.priority, default=None)
    if best is None:
        return LabelOutcome()
    return LabelOutcome(best.label, "port", best.confidence)


@dataclass
class EndpointMap:
    """Labels by exact address, else by the longest matching prefix."""

    exact: dict[str, tuple[str, str]] = field(default_factory=dict)
    prefixes: list = field(default_factory=list)  # (network, label, confidence)

    def add(self, ip_or_prefix: str, label: str, confidence: str = "high") -> None:
        if confidence not in CONFIDENCES:
            raise ConfigError(f"bad confidence {confidence!r}")
        if "/" in ip_or_prefix:
            net = ipaddress.ip_network(ip_or_prefix, strict=False)
            self.prefixes.append((net, label, confidence))
        else:
            self.exact[str(ipaddress.ip_address(ip_or_prefix))] = (label, confidence)

    def lookup(self, ip: str) -> LabelOutcome:
        """Exact match first, then longest matching prefix."""
        if ip in self.exact:
            label, conf = self.exact[ip]
            return LabelOutcome(label, "map", conf)
        addr = ipaddress.ip_address(ip)
        best = max((p for p in self.prefixes if addr in p[0]),
                   key=lambda p: p[0].prefixlen, default=None)
        if best is None:
            return LabelOutcome()
        return LabelOutcome(best[1], "map", best[2])


def label_by_map(dst_ip: str, emap: EndpointMap) -> LabelOutcome:
    return emap.lookup(dst_ip)


_PRECEDENCE = {
    ("map", "high"): 4,
    ("port", "high"): 3,
    ("map", "low"): 2,
    ("port", "low"): 1,
}


class ConflictCounter:
    def __init__(self):
        self.count = 0


def resolve(outcomes: Sequence[LabelOutcome],
            conflicts: Optional[ConflictCounter] = None) -> LabelOutcome:
    """Combine outcomes by precedence: high map > high port > low map > low port.

    Disagreement at the winning precedence level yields UNKNOWN and bumps
    the conflict counter.
    """
    if not outcomes:
        raise ConfigError("resolve needs at least one outcome")
    known = [o for o in outcomes if o.is_known]
    if not known:
        return LabelOutcome()
    top = max(_PRECEDENCE[(o.source, o.confidence)] for o in known)
    winners = {o.label for o in known
               if _PRECEDENCE[(o.source, o.confidence)] == top}
    if len(winners) > 1:
        if conflicts is not None:
            conflicts.count += 1
        return LabelOutcome()
    return next(o for o in known
                if _PRECEDENCE[(o.source, o.confidence)] == top)


# ---------------------------------------------------------------------------
# File formats: rule CSV `matcher_type,matcher_value,label,confidence,priority`
# and map CSV `ip_or_prefix,label,confidence`.

def _file_rows(path) -> list[tuple[int, list[str]]]:
    """The numbered rows of a CSV file but blank and "#" comment rows; a
    file that cannot be read is a DataError naming it."""
    try:
        with open(path, newline="") as f:
            rows = list(enumerate(csv.reader(f), start=1))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: {e}") from None
    return [(i, row) for i, row in rows if row and not row[0].startswith("#")]


def load_rule_file(path) -> list[PortRule]:
    rules = []
    for lineno, row in _file_rows(path):
        try:
            mtype, mvalue, label, confidence, priority = row
            if mtype != "port_proto":
                raise ValueError(f"unsupported matcher type {mtype!r}")
            port_s, proto_s = mvalue.split(":")
            rules.append(PortRule(int(port_s), int(proto_s), label,
                                  confidence, int(priority)))
        except (ValueError, IndexError) as e:
            raise DataError(f"{path}:{lineno}: bad rule line: {e}") from e
    validate_rules(rules)
    return rules


def load_map_file(path) -> EndpointMap:
    emap = EndpointMap()
    for lineno, row in _file_rows(path):
        try:
            ip_or_prefix, label, confidence = row
            emap.add(ip_or_prefix, label, confidence)
        except (ValueError, ConfigError, IndexError) as e:
            raise DataError(f"{path}:{lineno}: bad map line: {e}") from e
    return emap


def label_dataset(ds, rules: Sequence[PortRule] = DEFAULT_PORT_RULES,
                  emap: Optional[EndpointMap] = None,
                  column: str = "label") -> ConflictCounter:
    """Attach label/label_source/label_confidence columns to a flow dataset."""
    missing = [c for c in ("dst_port", "proto", "dst_ip") if c not in ds.data]
    if missing:
        raise DataError(f"flow table lacks column(s) {', '.join(missing)}")
    conflicts = ConflictCounter()
    labels, sources, confs = [], [], []
    ports = list(map(int, ds.numbers("dst_port", True).tolist()))
    protos = list(map(int, ds.numbers("proto", True).tolist()))
    dst_ips = ds.data["dst_ip"]
    for i in range(len(ds)):
        outcomes = [label_by_port(ports[i], protos[i], rules)]
        if emap is not None:
            outcomes.append(label_by_map(str(dst_ips[i]), emap))
        out = resolve(outcomes, conflicts)
        labels.append(out.label)
        sources.append(out.source)
        confs.append(out.confidence if out.is_known else "none")
    ds.add_column(column, "label", labels)
    ds.add_column("label_source", "metadata", sources)
    ds.add_column("label_confidence", "metadata", confs)
    return conflicts
