"""Leakage-resistant train/validation/test splitting and k-fold assignment.

Four strategies: random stratified, temporal, group-disjoint and OOD
(held-out classes). Assignments map row ids to partition tags and carry a
manifest with the realized counts; downstream commands consume the
assignment file and never re-split.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, UNKNOWN_LABEL, rows_fingerprint
from .errors import ConfigError, DataError, LeakageError, StratificationError

TAGS = ("train", "val", "test")


@dataclass
class SplitSpec:
    strategy: str
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0
    group_key: Optional[str] = None
    time_key: Optional[str] = None
    held_out_classes: tuple = ()

    def __post_init__(self):
        if self.strategy not in ("random_stratified", "temporal",
                                 "disjoint", "ood"):
            raise ConfigError(f"unknown split strategy {self.strategy!r}")
        if any(not (0 < f < 1) for f in self.fractions):
            raise ConfigError("each split fraction must be in (0,1)")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if self.strategy == "temporal" and not self.time_key:
            raise ConfigError("temporal split needs time_key")
        if self.strategy == "disjoint" and not self.group_key:
            raise ConfigError("disjoint split needs group_key")
        if self.strategy == "ood" and not self.held_out_classes:
            raise ConfigError("ood split needs held_out_classes")


@dataclass
class SplitAssignment:
    tags: dict[int, str]                    # row id -> train/val/test
    manifest: dict = field(default_factory=dict)

    def ids(self, tag: str) -> list[int]:
        return sorted(r for r, t in self.tags.items() if t == tag)

    def fingerprint(self, tag: str) -> str:
        return rows_fingerprint(self.ids(tag))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["row_id", "partition"])
            for rid in sorted(self.tags):
                w.writerow([rid, self.tags[rid]])

    @classmethod
    def from_csv(cls, path, manifest: Optional[dict] = None) -> "SplitAssignment":
        """The assignment `to_csv` wrote; DataError naming the file and
        line on malformed input."""
        name = Path(path).name
        tags = {}
        with open(path, newline="") as f:
            reader = csv.reader(f)
            if next(reader, None) is None:
                raise DataError(f"{name}: empty file, no header")
            for line, row in enumerate(reader, start=2):
                try:
                    rid, tag = row
                    tags[int(rid)] = tag
                except ValueError:
                    raise DataError(f"{name}, line {line}: expected "
                                    f"row_id,partition, got {row!r}") from None
        return cls(tags=tags, manifest=manifest or {})

    def write_manifest(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.manifest, f, indent=2, sort_keys=True)
            f.write("\n")


def _largest_remainder(n: int, fractions: Sequence[float]) -> list[int]:
    """Allocate n items to len(fractions) buckets, remainders break ties."""
    exact = [n * f for f in fractions]
    base = [int(e) for e in exact]
    shortfall = n - sum(base)
    order = sorted(range(len(fractions)),
                   key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:shortfall]:
        base[i] += 1
    return base


def _manifest(spec: SplitSpec, ds: Dataset, tags: dict[int, str]) -> dict:
    counts = {t: 0 for t in TAGS}
    class_dist: dict[str, dict[str, int]] = {t: {} for t in TAGS}
    label_col = ds.label_column
    labels = ds.data[label_col] if label_col else None
    for i, rid in enumerate(ds.row_ids):
        t = tags[int(rid)]
        counts[t] += 1
        if labels is not None:
            lbl = str(labels[i])
            class_dist[t][lbl] = class_dist[t].get(lbl, 0) + 1
    return {
        "strategy": spec.strategy,
        "fractions": list(spec.fractions),
        "seed": spec.seed,
        "counts": counts,
        "class_distribution": class_dist,
        "fingerprints": {t: rows_fingerprint(r for r, tg in tags.items()
                                             if tg == t) for t in TAGS},
    }


def split_random_stratified(ds: Dataset, spec: SplitSpec) -> SplitAssignment:
    labels = ds.labels()
    if any(str(v) == UNKNOWN_LABEL for v in labels):
        raise ConfigError("dataset contains UNKNOWN-labeled rows")
    rng = np.random.default_rng(spec.seed)
    tags: dict[int, str] = {}
    for cls in sorted({str(v) for v in labels}):
        idx = np.flatnonzero(np.asarray([str(v) == cls for v in labels]))
        if len(idx) < 3:
            raise StratificationError(
                f"class {cls!r} has {len(idx)} rows; need >= 3 to stratify")
        idx = idx[rng.permutation(len(idx))]
        n_train, n_val, n_test = _largest_remainder(len(idx), spec.fractions)
        for pos, i in enumerate(idx):
            if pos < n_train:
                tag = "train"
            elif pos < n_train + n_val:
                tag = "val"
            else:
                tag = "test"
            tags[int(ds.row_ids[i])] = tag
    return SplitAssignment(tags, _manifest(spec, ds, tags))


def split_temporal(ds: Dataset, spec: SplitSpec) -> SplitAssignment:
    if spec.time_key not in ds.data:
        raise ConfigError(f"missing time_key column {spec.time_key!r}")
    times = np.asarray([float(v) for v in ds.data[spec.time_key]])
    order = np.lexsort((np.arange(len(ds)), times))  # stable tie-break
    n_train, n_val, n_test = _largest_remainder(len(ds), spec.fractions)
    tags: dict[int, str] = {}
    for pos, i in enumerate(order):
        if pos < n_train:
            tag = "train"
        elif pos < n_train + n_val:
            tag = "val"
        else:
            tag = "test"
        tags[int(ds.row_ids[i])] = tag
    return SplitAssignment(tags, _manifest(spec, ds, tags))


def split_disjoint(ds: Dataset, spec: SplitSpec) -> SplitAssignment:
    if spec.group_key not in ds.data:
        raise ConfigError(f"missing group_key column {spec.group_key!r}")
    groups = [str(v) for v in ds.data[spec.group_key]]
    distinct = sorted(set(groups))
    if len(distinct) < 3:
        raise ConfigError("disjoint split needs at least 3 distinct groups")
    rng = np.random.default_rng(spec.seed)
    shuffled = [distinct[i] for i in rng.permutation(len(distinct))]
    mass = {g: 0 for g in distinct}
    for g in groups:
        mass[g] += 1
    # greedy: largest group first, into the partition furthest below target
    ordered = sorted(shuffled, key=lambda g: -mass[g])
    total = len(ds)
    targets = [f * total for f in spec.fractions]
    filled = [0.0, 0.0, 0.0]
    group_tag: dict[str, str] = {}
    for g in ordered:
        deficits = [(targets[j] - filled[j]) / max(targets[j], 1e-12)
                    for j in range(3)]
        j = max(range(3), key=lambda j: (deficits[j], -j))
        group_tag[g] = TAGS[j]
        filled[j] += mass[g]
    tags = {int(ds.row_ids[i]): group_tag[groups[i]] for i in range(len(ds))}
    man = _manifest(spec, ds, tags)
    man["group_key"] = spec.group_key
    man["realized_fractions"] = [filled[j] / total for j in range(3)]
    return SplitAssignment(tags, man)


def split_ood(ds: Dataset, spec: SplitSpec) -> SplitAssignment:
    labels = [str(v) for v in ds.labels()]
    held = set(spec.held_out_classes)
    present = set(labels)
    missing = held - present
    if missing:
        raise ConfigError(f"held-out classes not in dataset: {sorted(missing)}")
    if held >= present:
        raise ConfigError("held-out classes cover every class")
    held_mask = np.asarray([l in held for l in labels])
    known = ds.subset(~held_mask)
    known_spec = SplitSpec("random_stratified", spec.fractions, spec.seed)
    base = split_random_stratified(known, known_spec)
    tags = dict(base.tags)
    for i in np.flatnonzero(held_mask):
        tags[int(ds.row_ids[i])] = "test"
    man = _manifest(spec, ds, tags)
    man["held_out_classes"] = sorted(held)
    man["test_unseen_rows"] = int(held_mask.sum())
    man["test_known_rows"] = man["counts"]["test"] - int(held_mask.sum())
    return SplitAssignment(tags, man)


def split(ds: Dataset, spec: SplitSpec) -> SplitAssignment:
    fn = {"random_stratified": split_random_stratified,
          "temporal": split_temporal,
          "disjoint": split_disjoint,
          "ood": split_ood}[spec.strategy]
    return fn(ds, spec)


def kfold(ds_design: Dataset, k: int, seed: int = 0,
          allow_temporal_override: bool = False
          ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold over the design (train+val) rows.

    Returns k (train_indices, val_indices) pairs of positional indices into
    ds_design. Refuses datasets that still carry test-tagged rows.
    """
    if k < 2:
        raise ConfigError("k must be >= 2")
    if ds_design.partitions is not None and \
            (ds_design.partitions == "test").any():
        raise LeakageError("design set contains test-tagged rows")
    if (not allow_temporal_override
            and ds_design.provenance.get("split_strategy") == "temporal"):
        raise ConfigError(
            "random k-fold on a temporal design set breaks chronological "
            "order; pass allow_temporal_override=True to proceed")
    n = len(ds_design)
    if n < k:
        raise ConfigError(f"need at least k={k} rows, got {n}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    label_col = ds_design.label_column
    if label_col is not None:
        labels = [str(v) for v in ds_design.data[label_col]]
        counter = 0
        for cls in sorted(set(labels)):
            idx = np.flatnonzero(np.asarray([l == cls for l in labels]))
            idx = idx[rng.permutation(len(idx))]
            for i in idx:
                fold_of[i] = counter % k
                counter += 1
    else:
        perm = rng.permutation(n)
        for pos, i in enumerate(perm):
            fold_of[i] = pos % k
    folds = []
    for f in range(k):
        val_idx = np.flatnonzero(fold_of == f)
        train_idx = np.flatnonzero(fold_of != f)
        folds.append((train_idx, val_idx))
    return folds
