"""Global model explanation: Gini (mean-decrease-impurity) importance,
permutation importance with optional correlated-feature grouping, and
partial dependence profiles.

Correlated features let a model compensate when only one of them is
shuffled, hiding their joint contribution; grouped permutation shuffles the
whole group with one permutation and is the recommended default when
correlations are strong.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .evaluation import METRICS
from .models import ForestModel, Nodes, TreeModel


@dataclass
class ImportanceRow:
    feature: str              # single feature or "a+b" group
    members: tuple
    importance: float
    std: float
    rank: int = 0


@dataclass
class ImportanceTable:
    method: str
    repeats: int
    rows: list[ImportanceRow] = field(default_factory=list)

    def ranked(self) -> list[ImportanceRow]:
        ordered = sorted(self.rows, key=lambda r: (-r.importance, r.feature))
        for i, r in enumerate(ordered, start=1):
            r.rank = i
        return ordered

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["rank", "feature", "importance", "std", "method",
                        "repeats"])
            for r in self.ranked():
                w.writerow([r.rank, r.feature, repr(r.importance),
                            repr(r.std), self.method, self.repeats])


def _tree_importances(nodes: Nodes, n_features: int) -> np.ndarray:
    # bincount adds the weights in preorder, as a walk of the tree would
    internal = nodes.feature >= 0
    imp = np.bincount(nodes.feature[internal],
                      weights=nodes.importance[internal],
                      minlength=n_features)
    total = imp.sum()
    return imp / total if total > 0 else imp


def gini_importance(model, feature_names: Sequence[str]) -> ImportanceTable:
    """Normalized total impurity decrease per feature; forest = tree mean."""
    if isinstance(model, TreeModel):
        values = _tree_importances(model.nodes, model.n_features)
    elif isinstance(model, ForestModel):
        per_tree = [_tree_importances(t.nodes, model.n_features)
                    for t in model.trees]
        values = np.mean(per_tree, axis=0)
    else:
        raise ConfigError(
            f"{type(model).__name__} has no impurity bookkeeping")
    table = ImportanceTable(method="gini", repeats=1)
    for i, name in enumerate(feature_names):
        table.rows.append(ImportanceRow(feature=name, members=(name,),
                                        importance=float(values[i]), std=0.0))
    return table


def correlation_groups(X: np.ndarray, threshold: float = 0.9) -> list[tuple]:
    """Single-linkage groups of features with |Pearson r| >= threshold."""
    n = X.shape[1]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    std = X.std(axis=0)
    for i in range(n):
        for j in range(i + 1, n):
            if std[i] == 0 or std[j] == 0:
                continue
            r = np.corrcoef(X[:, i], X[:, j])[0, 1]
            if abs(r) >= threshold:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


def permutation_importance(model, X: np.ndarray, y, metric: str = "accuracy",
                           repeats: int = 10,
                           feature_names: Optional[Sequence[str]] = None,
                           groups: Optional[list[tuple]] = None,
                           group_threshold: Optional[float] = None,
                           seed: int = 0) -> ImportanceTable:
    """Mean score drop over repeats when a feature (or group) is shuffled.

    All columns of a group are shuffled with the same permutation. Use the
    validation set during development, never test.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    score_fn = METRICS[metric]
    X = np.asarray(X, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    if groups is None:
        if group_threshold is not None:
            groups = correlation_groups(X, group_threshold)
        else:
            groups = [(i,) for i in range(X.shape[1])]
    baseline = score_fn(y, model.predict(X))
    rng = np.random.default_rng(seed)
    table = ImportanceTable(method=f"permutation:{metric}", repeats=repeats)
    for group in groups:
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(X))
            Xp = X.copy()
            for col in group:
                Xp[:, col] = X[perm, col]
            drops.append(baseline - score_fn(y, model.predict(Xp)))
        name = "+".join(feature_names[i] for i in group)
        table.rows.append(ImportanceRow(
            feature=name, members=tuple(feature_names[i] for i in group),
            importance=float(np.mean(drops)), std=float(np.std(drops))))
    return table


def partial_dependence(model, X: np.ndarray, feature: int,
                       grid: Optional[Sequence[float]] = None,
                       grid_points: int = 20
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(grid values, mean predicted class probabilities per grid value).

    The returned matrix is (len(grid), n_classes), one curve per class.
    Default grid: equally-spaced quantiles of the feature's distribution.
    """
    X = np.asarray(X, dtype=np.float64)
    if not (0 <= feature < X.shape[1]):
        raise ConfigError(f"feature index {feature} out of range")
    if grid is None:
        qs = np.linspace(0.0, 1.0, grid_points)
        col = np.sort(X[:, feature])
        grid = np.unique([col[min(int(q * (len(col) - 1) + 0.5),
                                  len(col) - 1)] for q in qs])
    grid = np.asarray(grid, dtype=np.float64)
    curves = []
    for v in grid:
        Xv = X.copy()
        Xv[:, feature] = v
        curves.append(model.predict_proba(Xv).mean(axis=0))
    return grid, np.asarray(curves)


def write_pdp_csv(grid: np.ndarray, curves: np.ndarray,
                  classes: Sequence[str], feature_name: str, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([feature_name] + [f"p({c})" for c in classes])
        for v, row in zip(grid, curves):
            w.writerow([repr(float(v))] + [repr(float(p)) for p in row])
