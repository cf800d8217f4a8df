"""Fit-on-train-only feature transforms with hard leakage guards.

Every fit records the fingerprint of the row-id set it saw. Fitting on a
dataset that carries any val/test partition tag raises LeakageError, and a
fitted transform refuses to be trusted by the CLI unless its fingerprint
matches the split's train set. Applies are pure.

PCA decomposes the covariance with `np.linalg.eigh`, then orders the
components by a stable descending sort of the eigenvalues and signs each
so its largest-magnitude entry is positive. Quartiles use linear
interpolation on order statistics (h = (n-1)p) so robust/IQR outputs are
bit-comparable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, class_codes
from .errors import (ConfigError, DataError, InvalidArgumentError,
                     LeakageError, TransformMismatchError)


@dataclass
class FittedTransform:
    """A transform's parameters, fitted on one partition."""

    kind: str
    params: dict
    fit_partition_fingerprint: str
    columns: list[str]
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "columns": self.columns,
            "params": self.params,
            "fit_partition_fingerprint": self.fit_partition_fingerprint,
            "warnings": self.warnings,
            "tool": "flowlab-0.1.0",
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FittedTransform":
        """The transform `to_json` wrote; DataError on malformed input."""
        try:
            d = json.loads(text)
            t = cls(kind=d["kind"], params=d["params"],
                    fit_partition_fingerprint=d["fit_partition_fingerprint"],
                    columns=d["columns"], warnings=d.get("warnings", []))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed transform JSON: {type(e).__name__}: "
                            f"{e}") from None
        if not (isinstance(t.kind, str) and isinstance(t.params, dict)
                and isinstance(t.fit_partition_fingerprint, str)
                and isinstance(t.columns, list)
                and all(isinstance(c, str) for c in t.columns)
                and isinstance(t.warnings, list)):
            raise DataError("malformed transform JSON: kind, params, "
                            "fit_partition_fingerprint, columns or warnings "
                            "has the wrong type")
        return t


def _guard_fit(ds: Dataset) -> None:
    if ds.partitions is not None:
        bad = {str(t) for t in ds.partitions} - {"train"}
        if bad:
            raise LeakageError(
                f"fit on rows tagged {sorted(bad)}; transforms are "
                "fitted on the training partition only")


def _numeric_columns(ds: Dataset, columns: Optional[Sequence[str]]) -> list[str]:
    if columns is None:
        columns = ds.numeric_feature_names()
    for c in columns:
        if c not in ds.data:
            raise ConfigError(f"unknown column {c!r}")
        if ds.kinds[c] != "numeric":
            raise ConfigError(f"column {c!r} is not numeric")
    return list(columns)


def _check_apply(ds: Dataset, fitted: FittedTransform) -> None:
    missing = [c for c in fitted.columns if c not in ds.data]
    if missing:
        raise TransformMismatchError(
            f"columns missing from dataset: {', '.join(missing)}")


def quantile(values: np.ndarray, p: float) -> float:
    """Linear interpolation between order statistics at h = (n-1)p."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise InvalidArgumentError("quantile of empty data")
    h = (n - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, n - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def _moments(x) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mu = float(np.mean(x))
    return mu, float(np.sqrt(np.mean((x - mu) ** 2)))


def _quartiles(x) -> tuple[float, float, float]:
    return quantile(x, 0.25), quantile(x, 0.50), quantile(x, 0.75)


def _fit(kind: str, train: Dataset, columns: Optional[Sequence[str]], stat,
         params, degenerate=None, warning: str = "") -> FittedTransform:
    """kind fitted on train: params(*stat(x)) of each numeric column x; a
    column whose stat is degenerate gets the warning."""
    _guard_fit(train)
    columns = _numeric_columns(train, columns)
    stats = {c: stat(train.data[c]) for c in columns}
    return FittedTransform(
        kind, {c: params(*v) for c, v in stats.items()}, train.fingerprint(),
        columns, [f"{c}: {warning}" for c, v in stats.items()
                  if degenerate is not None and degenerate(*v)])


# -- scalers -----------------------------------------------------------------

def fit_standard(train: Dataset,
                 columns: Optional[Sequence[str]] = None) -> FittedTransform:
    return _fit("standard", train, columns, _moments,
                lambda mu, sigma: {"mu": mu, "sigma": sigma},
                lambda mu, sigma: sigma == 0.0,
                "sigma=0, column passes through unchanged")


def fit_minmax(train: Dataset,
               columns: Optional[Sequence[str]] = None) -> FittedTransform:
    return _fit("minmax", train, columns,
                lambda x: (float(np.min(x)), float(np.max(x))),
                lambda lo, hi: {"min": lo, "max": hi},
                lambda lo, hi: hi == lo, "max=min, outputs 0")


def fit_robust(train: Dataset,
               columns: Optional[Sequence[str]] = None) -> FittedTransform:
    return _fit("robust", train, columns, _quartiles,
                lambda q1, q2, q3: {"q1": q1, "q2": q2, "q3": q3},
                lambda q1, q2, q3: q3 == q1,
                "IQR=0, column passes through unchanged")


def apply_scaler(ds: Dataset, fitted: FittedTransform) -> Dataset:
    _check_apply(ds, fitted)
    out = ds.copy()
    for c in fitted.columns:
        p = fitted.params[c]
        x = out.data[c]
        if fitted.kind == "standard":
            if p["sigma"] != 0.0:
                out.data[c] = (x - p["mu"]) / p["sigma"]
        elif fitted.kind == "minmax":
            span = p["max"] - p["min"]
            out.data[c] = ((x - p["min"]) / span if span != 0.0
                           else np.zeros_like(x))
        elif fitted.kind == "robust":
            iqr = p["q3"] - p["q1"]
            if iqr != 0.0:
                out.data[c] = (x - p["q2"]) / iqr
        else:
            raise TransformMismatchError(f"not a scaler: {fitted.kind}")
    return out


# -- categorical encoding ------------------------------------------------------

def fit_onehot(train: Dataset, column: str) -> FittedTransform:
    _guard_fit(train)
    if column not in train.data:
        raise ConfigError(f"unknown column {column!r}")
    vocab = class_codes(train.data[column])[0]
    return FittedTransform("onehot", {"vocabulary": vocab},
                           train.fingerprint(), [column])


def apply_onehot(ds: Dataset, fitted: FittedTransform) -> tuple[Dataset, int]:
    """Replace the column with 0/1 vocabulary columns; unseen -> all zeros.

    Returns (dataset, unseen count).
    """
    _check_apply(ds, fitted)
    column = fitted.columns[0]
    vocab = fitted.params["vocabulary"]
    out = ds.copy()
    index = {entry: i for i, entry in enumerate(vocab)}
    codes = np.fromiter((index.get(str(v), -1) for v in out.data[column]),
                        np.int64, len(out))
    for i, entry in enumerate(vocab):
        out.add_column(f"{column}={entry}", "numeric", codes == i)
    unseen = int((codes < 0).sum())
    out.kinds[column] = "metadata"  # original kept for audit, out of features
    return out, unseen


PORT_BINS = (("well_known", 0, 1023),
             ("registered", 1024, 49151),
             ("dynamic", 49152, 65535))


def bin_port(port: int) -> str:
    if not (0 <= port <= 65535):
        raise InvalidArgumentError(f"port {port} out of [0, 65535]")
    for name, lo, hi in PORT_BINS:
        if lo <= port <= hi:
            return name
    raise AssertionError("unreachable")


def bin_ports(ds: Dataset, column: str = "dst_port",
              out_column: Optional[str] = None) -> Dataset:
    """Add a categorical port-range column (well_known/registered/dynamic)."""
    if column not in ds.data:
        raise ConfigError(f"unknown column {column!r}")
    out = ds.copy()
    ports = out.numbers(column, True)
    bad = np.flatnonzero((ports < 0) | (ports > 65535))
    if len(bad):
        raise DataError(f"column {column!r}, row_id {out.row_ids[bad[0]]}: "
                        f"port {int(ports[bad[0]])} out of [0, 65535]")
    bins = [bin_port(int(p)) for p in ports.tolist()]
    out.add_column(out_column or f"{column}_bin", "categorical", bins)
    return out


# -- outlier removal (train only) ---------------------------------------------

def outlier_bounds_zscore(train: Dataset, columns: Optional[Sequence[str]] = None,
                          t: float = 3.0) -> FittedTransform:
    return _fit("zscore_outlier", train, columns, _moments,
                lambda mu, sigma: {"lo": mu - t * sigma, "hi": mu + t * sigma})


def outlier_bounds_iqr(train: Dataset, columns: Optional[Sequence[str]] = None,
                       m: float = 1.5) -> FittedTransform:
    return _fit("iqr_outlier", train, columns, _quartiles,
                lambda q1, q2, q3: {"lo": q1 - m * (q3 - q1),
                                    "hi": q3 + m * (q3 - q1)})


def remove_outliers(train: Dataset, fitted: FittedTransform
                    ) -> tuple[Dataset, int]:
    """Drop training rows outside the fitted bounds in any flagged column."""
    _guard_fit(train)  # removal is a train-only operation
    _check_apply(train, fitted)
    keep = np.ones(len(train), dtype=bool)
    for c in fitted.columns:
        b = fitted.params[c]
        x = train.data[c]
        keep &= (x >= b["lo"]) & (x <= b["hi"])
    removed = int((~keep).sum())
    return train.subset(keep), removed


# -- resampling (train only) ----------------------------------------------------

def undersample(train: Dataset, ratio: float = 1.0,
                seed: int = 0) -> Dataset:
    """Downsample majority classes to at most ratio x minority count."""
    _guard_fit(train)
    if ratio < 1.0:
        raise ConfigError("undersample ratio must be >= 1")
    codes = class_codes(train.labels())[1]
    counts = np.bincount(codes)
    cap = int(round(ratio * int(counts.min())))
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(train), dtype=bool)
    for c in range(len(counts)):
        idx = np.flatnonzero(codes == c)
        if len(idx) > cap:
            idx = np.sort(idx[rng.permutation(len(idx))[:cap]])
        keep[idx] = True
    return train.subset(keep)


def smote(train: Dataset, k: int = 5, seed: int = 0,
          columns: Optional[Sequence[str]] = None) -> Dataset:
    """Equalize class counts with synthetic minority interpolation.

    Each synthetic row is x + lam * (x_nn - x) on the numeric feature
    columns (lam uniform in [0,1], x_nn one of x's k nearest same-class
    neighbors); every other column is copied from the seed sample x.
    """
    if k < 1:
        raise ConfigError(f"smote_k {k} must be an integer >= 1")
    _guard_fit(train)
    columns = _numeric_columns(train, columns)
    classes, codes = class_codes(train.labels())
    counts = np.bincount(codes).tolist()
    majority = max(counts)
    rng = np.random.default_rng(seed)

    X = np.column_stack([train.data[c] for c in columns])
    seeds, synth = [], []
    for c, cls in enumerate(classes):
        need = majority - counts[c]
        if need == 0:
            continue
        if counts[c] <= k:
            raise ConfigError(
                f"class {cls!r} has {counts[c]} rows <= k={k}; "
                "use a smaller k")
        idx = np.flatnonzero(codes == c)
        Xc = X[idx]
        d2 = ((Xc[:, None, :] - Xc[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
        for _ in range(need):
            a = int(rng.integers(len(idx)))
            b = int(nn[a][int(rng.integers(k))])
            lam = float(rng.random())
            synth.append(Xc[a] + lam * (Xc[b] - Xc[a]))
            seeds.append(idx[a])

    if not seeds:
        return train.copy()
    # the seed rows' cells, with interpolated numeric features and new ids
    new = train.subset(np.asarray(seeds))
    new.data.update(zip(columns, np.asarray(synth).T))
    start = int(train.row_ids.max()) + 1
    new.row_ids = np.arange(start, start + len(seeds))
    return Dataset.concat(train, new)


# -- PCA ------------------------------------------------------------------------

def pca_fit(train: Dataset, n_components: int,
            columns: Optional[Sequence[str]] = None) -> FittedTransform:
    _guard_fit(train)
    columns = _numeric_columns(train, columns)
    if n_components > len(columns):
        raise ConfigError(
            f"n_components={n_components} > {len(columns)} columns")
    X = np.column_stack([train.data[c] for c in columns])
    mean = X.mean(axis=0)
    Xc = X - mean
    # einsum's own loops, not BLAS, whose sums depend on its thread count
    cov = np.einsum("ij,ik->jk", Xc, Xc) / len(X)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    # sign convention: largest-magnitude entry of each component positive
    for j in range(eigvecs.shape[1]):
        i = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[i, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = float(eigvals.sum())
    params = {
        "mean": mean.tolist(),
        "basis": eigvecs[:, :n_components].tolist(),   # columns = components
        "eigenvalues": eigvals[:n_components].tolist(),
        "all_eigenvalues": eigvals.tolist(),
        "explained_variance_fraction": [
            (float(l) / total if total > 0 else 0.0)
            for l in eigvals[:n_components]],
        "n_components": n_components,
    }
    return FittedTransform("pca", params, train.fingerprint(), columns)


def pca_transform(ds: Dataset, fitted: FittedTransform) -> Dataset:
    """Project numeric columns onto the fitted basis (pc_0..pc_{m-1})."""
    _check_apply(ds, fitted)
    mean = np.asarray(fitted.params["mean"])
    basis = np.asarray(fitted.params["basis"])
    X = np.column_stack([ds.data[c] for c in fitted.columns])
    Z = (X - mean) @ basis
    out = ds.copy()
    for c in fitted.columns:
        out.kinds[c] = "metadata"
    for j in range(Z.shape[1]):
        out.add_column(f"pc_{j}", "numeric", Z[:, j])
    return out
