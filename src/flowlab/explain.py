"""Global model explanation: Gini (mean-decrease-impurity) importance,
permutation importance with optional correlated-feature grouping, and
partial dependence profiles.

Correlated features let a model compensate when only one of them is
shuffled, hiding their joint contribution; grouped permutation shuffles the
whole group with one permutation and is the recommended default when
correlations are strong.

Both permutation importance and partial dependence ask how the predictions
change when some columns are moved: shuffled, or set to a grid value. For
a tree or forest the unmoved matrix is walked once (`models.walk`),
keeping each (tree, row) pair's leaf and the features split on along its
path. A pair whose path reads none of the moved columns reaches the same
leaf, so only the other pairs are walked again, all repeats of one group
(or all grid values) in one batch. The result is bit-identical to a full
predict of each moved matrix: each pair reaches the leaf a full walk would
reach, the leaves are added up in tree order and divided by the tree count
as `predict_proba` does, and the permutations are drawn from the generator
in the same order, group by group, repeat by repeat. A k-NN model has no
paths and predicts each moved matrix in full. Scores come from class codes
(`evaluation.code_scorer`), with the same confusion counts as labels give.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .evaluation import METRICS, code_scorer
from .models import ForestModel, TreeModel, mean_leaf_probs, walk


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


def gini_importance(model, feature_names: Sequence[str]) -> ImportanceTable:
    """Each tree's total impurity decrease per feature, normalized to sum
    to 1 (a tree without splits stays 0), then the mean over the trees."""
    if not isinstance(model, (TreeModel, ForestModel)):
        raise ConfigError(
            f"{type(model).__name__} has no impurity bookkeeping")
    nodes, d, trees = model.nodes, model.n_features, len(model.roots)
    tree = np.repeat(np.arange(trees),
                     np.diff([*model.roots.tolist(), len(nodes)]))
    internal = nodes.feature >= 0
    # bincount adds each tree's weights in preorder, as a walk of it would
    imp = np.bincount(tree[internal] * d + nodes.feature[internal],
                      weights=nodes.importance[internal],
                      minlength=trees * d).reshape(trees, d)
    total = imp.sum(axis=1, keepdims=True)
    values = np.mean(imp / np.where(total > 0, total, 1.0), axis=0)
    table = ImportanceTable(method="gini", repeats=1)
    for i, name in enumerate(feature_names):
        table.rows.append(ImportanceRow(feature=name, members=(name,),
                                        importance=float(values[i]), std=0.0))
    return table


def correlation_groups(X: np.ndarray, threshold: float = 0.9) -> list[tuple]:
    """Single-linkage groups of features with |Pearson r| >= threshold.

    Every pair's r comes from one correlation matrix. Its rounding can
    differ in the last bits from a two-column `np.corrcoef`, so a pair
    within 1e-12 of the threshold is decided by the two-column value.
    Constant columns (every cell equal) stay alone.
    """
    n = X.shape[1]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    live = np.flatnonzero((X != X[:1]).any(axis=0))
    if len(live) > 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(np.corrcoef(X[:, live], rowvar=False))
        near = np.abs(r - threshold) < 1e-12
        for a, b in zip(*np.nonzero(np.triu((r >= threshold) | near, 1))):
            i, j = int(live[a]), int(live[b])
            if (not near[a, b]
                    or abs(np.corrcoef(X[:, i], X[:, j])[0, 1]) >= threshold):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


class _PairWalk:
    """Every (tree, row) pair of a tree or forest on X, walked once: the
    leaf each pair reaches and, as a (features, pairs) bool array, the
    features split on along its path."""

    def __init__(self, model, X: np.ndarray):
        X = model._rows(X)
        self.nodes, self.n, self.trees = model.nodes, len(X), len(model.roots)
        self.start = np.repeat(model.roots, self.n)
        self.rows = np.tile(np.arange(self.n), self.trees)
        self.on_path = np.zeros((X.shape[1], len(self.start)), dtype=bool)
        self.leaves = walk(self.nodes, self.start, X, self.rows,
                           on_path=self.on_path)
        self.probs = mean_leaf_probs(
            self.nodes.probs, self.leaves.reshape(self.trees, self.n))

    def moved_probs(self, Xs: np.ndarray, features: Sequence[int],
                    src: np.ndarray) -> np.ndarray:
        """(batch, rows, classes) probabilities: in batch b, row r reads
        the columns `features` from row src[b, r] of Xs, whose first rows
        are X. Only the pairs whose path splits on one of them walk again.
        """
        b = len(src)
        out = np.tile(self.probs, (b, 1, 1))
        pairs = np.flatnonzero(self.on_path[list(features)].any(axis=0))
        if not pairs.size:
            return out
        rows = self.rows[pairs]
        mask = np.zeros(Xs.shape[1], dtype=bool)
        mask[list(features)] = True
        leaves = np.tile(self.leaves, (b, 1))
        leaves[:, pairs] = walk(
            self.nodes, np.tile(self.start[pairs], b), Xs, np.tile(rows, b),
            moved=(mask, src[:, rows].ravel())).reshape(b, len(pairs))
        hit = np.unique(rows)
        out[:, hit] = mean_leaf_probs(
            self.nodes.probs, leaves.reshape(b, self.trees, self.n)[..., hit])
        return out


class _FullPredict:
    """The same questions for a model without paths: predict in full."""

    def __init__(self, model, X: np.ndarray):
        self.model, self.X = model, X

    @cached_property
    def probs(self) -> np.ndarray:
        return self.model.predict_proba(self.X)

    def moved_probs(self, Xs: np.ndarray, features: Sequence[int],
                    src: np.ndarray) -> np.ndarray:
        cols = list(features)
        out = []
        for s in src:
            Xp = self.X.copy()
            Xp[:, cols] = Xs[np.ix_(s, cols)]
            out.append(self.model.predict_proba(Xp))
        return np.asarray(out).reshape(len(src), len(self.X),
                                        len(self.model.classes))


def _explainer(model, X: np.ndarray):
    if isinstance(model, (TreeModel, ForestModel)):
        return _PairWalk(model, X)
    return _FullPredict(model, X)


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
    if not isinstance(repeats, int) or repeats < 1:
        raise ConfigError(f"repeats {repeats!r} must be an integer >= 1")
    X = np.asarray(X, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(X.shape[1])]
    if groups is None:
        if group_threshold is not None:
            groups = correlation_groups(X, group_threshold)
        else:
            groups = [(i,) for i in range(X.shape[1])]
    explainer = _explainer(model, X)
    score = code_scorer(metric, model.classes, y)
    base = explainer.probs.argmax(axis=1)
    baseline = score(base)
    rng = np.random.default_rng(seed)
    table = ImportanceTable(method=f"permutation:{metric}", repeats=repeats)
    for group in groups:
        perms = np.array([rng.permutation(len(X)) for _ in range(repeats)],
                         dtype=np.int64).reshape(repeats, len(X))
        predicted = explainer.moved_probs(X, group, perms).argmax(axis=2)
        # unchanged predictions score the baseline: their drop is 0.0
        drops = [0.0 if (p == base).all() else baseline - score(p)
                 for p in predicted]
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
    # row len(X) + g holds grid value g in every column
    Xs = np.vstack([X, np.repeat(grid[:, None], X.shape[1], axis=1)])
    src = np.repeat(len(X) + np.arange(len(grid))[:, None], len(X), axis=1)
    probs = _explainer(model, X).moved_probs(Xs, (feature,), src)
    return grid, np.asarray([p.mean(axis=0) for p in probs])


def write_pdp_csv(grid: np.ndarray, curves: np.ndarray,
                  classes: Sequence[str], feature_name: str, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([feature_name] + [f"p({c})" for c in classes])
        for v, row in zip(grid, curves):
            w.writerow([repr(float(v))] + [repr(float(p)) for p in row])
