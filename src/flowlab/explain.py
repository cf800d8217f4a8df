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
keeping each (tree, row) pair's leaf and the first node of its path that
splits on each feature. A pair whose path reads none of the moved columns
reaches the same leaf; the others walk again from their first moved split,
in one walk per block: whole groups x repeats (or all grid values), at most
_MOVE_BLOCK batch rows x pairs, which bounds memory. The result is
bit-identical to a full predict of each moved matrix: each pair reaches
the leaf a full walk would reach, the leaves are added up in tree order and
divided by the tree count as `predict_proba` does, and the permutations
come from one generator, group by group, repeat by repeat. A k-NN model
has no paths and predicts each moved matrix in full. Scores come from
class codes (`evaluation.code_scorer`), each distinct prediction scored
once, with the same confusion counts as labels give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .dataset import write_csv
from .errors import ConfigError
from .evaluation import METRICS, code_scorer
from .models import ForestModel, TreeModel, mean_leaf_probs, walk

_MOVE_BLOCK = 1 << 16     # batch rows x pairs; a block holds >= 1 group


@dataclass
class ImportanceRow:
    """Permutation importance of one feature or correlated group."""

    feature: str              # single feature or "a+b" group
    members: tuple
    importance: float
    std: float
    rank: int = 0


@dataclass
class ImportanceTable:
    """The importance rows of one method and repeat count."""

    method: str
    repeats: int
    rows: list[ImportanceRow] = field(default_factory=list)

    def ranked(self) -> list[ImportanceRow]:
        ordered = sorted(self.rows, key=lambda r: (-r.importance, r.feature))
        for i, r in enumerate(ordered, start=1):
            r.rank = i
        return ordered

    def to_csv(self, path) -> None:
        write_csv(path, [
            ("rank", "feature", "importance", "std", "method", "repeats"),
            *((r.rank, r.feature, repr(r.importance), repr(r.std),
               self.method, self.repeats) for r in self.ranked())])


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
    # one row (where NaN != NaN makes a column look live) has no r, and
    # np.corrcoef warns of zero degrees of freedom
    if len(live) > 1 and len(X) > 1:
        # a live column of subnormal cells has a variance that underflows
        # to 0: np.corrcoef divides by it and clips the r it gets to +-1
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(np.corrcoef(X[:, live], rowvar=False))
            near = np.abs(r - threshold) < 1e-12
            for a, b in zip(*np.nonzero(np.triu((r >= threshold) | near, 1))):
                i, j = int(live[a]), int(live[b])
                if (not near[a, b] or abs(np.corrcoef(X[:, i], X[:, j])[0, 1])
                        >= threshold):
                    parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(sorted(g)) for g in sorted(groups.values())]


class _PairWalk:
    """Every (tree, row) pair of a tree or forest on X, walked once: the
    leaf each pair reaches and, as a (features, pairs) array, the first
    node of its path that splits on each feature (len(nodes) if none)."""

    def __init__(self, model, X: np.ndarray):
        X = model._rows(X)
        self.nodes, self.n, self.trees = model.nodes, len(X), len(model.roots)
        self.start = np.repeat(model.roots, self.n)
        self.rows = np.tile(np.arange(self.n), self.trees)
        self.width = len(self.start)
        self.first = np.full((X.shape[1], self.width), len(self.nodes),
                             dtype=np.int32)
        self.leaves = walk(self.nodes, self.start, X, self.rows,
                           first=self.first)
        self.probs = mean_leaf_probs(
            self.nodes.probs, self.leaves.reshape(self.trees, self.n))

    def moved_probs(self, Xs: np.ndarray, masks: np.ndarray,
                    src: np.ndarray) -> np.ndarray:
        """(batch, rows, classes) probabilities: in batch b, row r reads
        every feature f with masks[b, f] from row src[b, r] of Xs, whose
        first rows are X. Only the pairs whose path splits on one walk
        again, from that split on, every batch row's in one walk."""
        b, n, none = len(src), self.n, len(self.nodes)
        # a caller's equal masks come in runs: one start row per run
        fresh = np.r_[True, (masks[1:] != masks[:-1]).any(axis=1)][:b]
        distinct, inverse = masks[fresh], np.cumsum(fresh) - 1
        starts = np.empty((len(distinct), self.width), dtype=np.int32)
        for m, row in zip(distinct, starts):
            row[:] = self.first[m].min(axis=0, initial=none)
        batch, pairs = np.nonzero(starts[inverse] < none)
        rows = self.rows[pairs]
        # the (batch, row) cells a moved pair reaches, and their leaves
        touched = np.zeros(b * n, dtype=bool)
        touched[batch * n + rows] = True
        cells = np.flatnonzero(touched)
        leaves = self.leaves.reshape(self.trees, n)[:, cells % n]
        leaves[pairs // n, (np.cumsum(touched) - 1)[batch * n + rows]] = walk(
            self.nodes, starts[inverse[batch], pairs], Xs, rows,
            moved=(masks, batch, src[batch, rows]))
        out = np.tile(self.probs, (b, 1, 1))
        out.reshape(b * n, out.shape[2])[cells] = mean_leaf_probs(
            self.nodes.probs, leaves)
        return out


class _FullPredict:
    """The same questions for a model without paths: predict in full."""

    def __init__(self, model, X: np.ndarray):
        self.model, self.X, self.width = model, X, len(X)

    @cached_property
    def probs(self) -> np.ndarray:
        return self.model.predict_proba(self.X)

    def moved_probs(self, Xs: np.ndarray, masks: np.ndarray,
                    src: np.ndarray) -> np.ndarray:
        out = []
        for m, s in zip(masks, src):
            Xp = self.X.copy()
            Xp[:, m] = Xs[s][:, m]
            out.append(self.model.predict_proba(Xp))
        return np.asarray(out).reshape(len(src), len(self.X),
                                        len(self.model.classes))


def _explainer(model, X: np.ndarray):
    paths = isinstance(model, (TreeModel, ForestModel))
    return (_PairWalk if paths else _FullPredict)(model, X)


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
    n, d = X.shape
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    if groups is None:
        groups = ([(i,) for i in range(d)] if group_threshold is None
                  else correlation_groups(X, group_threshold))
    explainer = _explainer(model, X)
    score = code_scorer(metric, model.classes, y)
    base = explainer.probs.argmax(axis=1)
    baseline = score(base)
    # each distinct prediction is scored once; an unchanged one drops 0.0
    scores = {base.tobytes(): baseline}
    masks = np.zeros((len(groups) * repeats, d), dtype=bool)
    for i, group in enumerate(groups):
        masks[i * repeats:(i + 1) * repeats, list(group)] = True
    drops = np.empty((len(groups), repeats))
    rng = np.random.default_rng(seed)
    step = repeats * max(1, _MOVE_BLOCK // max(1, repeats * explainer.width))
    for a in range(0, len(masks), step):
        block = masks[a:a + step]
        # row k is the k-th draw of rng.permutation(n), group by group
        perms = rng.permuted(np.tile(np.arange(n), (len(block), 1)), axis=1)
        moved = explainer.moved_probs(X, block, perms)
        for k, p in enumerate(moved.argmax(axis=2), start=a):
            if p.tobytes() not in scores:
                scores[p.tobytes()] = score(p)
            drops.flat[k] = baseline - scores[p.tobytes()]
    table = ImportanceTable(method=f"permutation:{metric}", repeats=repeats)
    for group, mean, std in zip(groups, np.mean(drops, axis=1),
                                np.std(drops, axis=1)):
        table.rows.append(ImportanceRow(
            feature="+".join(feature_names[i] for i in group),
            members=tuple(feature_names[i] for i in group),
            importance=float(mean), std=float(std)))
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
        at = [min(int(q * (len(col) - 1) + 0.5), len(col) - 1) for q in qs]
        # return_counts keeps numpy.ma, which a plain np.unique imports, out
        grid = np.unique(col[at], return_counts=True)[0]
    grid = np.asarray(grid, dtype=np.float64)
    # row len(X) + g holds grid value g in every column
    Xs = np.vstack([X, np.repeat(grid[:, None], X.shape[1], axis=1)])
    src = np.repeat(len(X) + np.arange(len(grid))[:, None], len(X), axis=1)
    masks = np.zeros((len(grid), X.shape[1]), dtype=bool)
    masks[:, feature] = True
    probs = _explainer(model, X).moved_probs(Xs, masks, src)
    return grid, np.asarray([p.mean(axis=0) for p in probs])


def write_pdp_csv(grid: np.ndarray, curves: np.ndarray,
                  classes: Sequence[str], feature_name: str, path) -> None:
    write_csv(path, [[feature_name, *(f"p({c})" for c in classes)],
                     *([repr(float(v)), *(repr(float(p)) for p in row)]
                       for v, row in zip(grid, curves))])
