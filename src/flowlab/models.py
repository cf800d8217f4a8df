"""From-scratch supervised baselines: CART decision tree, bagged random
forest, and brute-force k-NN, plus exhaustive grid search over k-fold CV.

A tree is a set of flat per-node arrays (`Nodes`) in preorder: a node, then
its whole left subtree, then its right subtree. A leaf has feature -1 and
its `left`/`right` point to itself. A forest concatenates its trees' nodes
and records where each tree's root is; predict moves every (tree, row)
pair down one level per numpy step (`walk`), and a pair leaves the walk at
its leaf.

Split search (Gini decrease, Breiman et al., CART): cuts between distinct
values are scanned feature by feature in ascending id, then by ascending
threshold, and a cut replaces the best so far only if its decrease is
larger by more than 1e-15: ties within 1e-15 go to the lowest feature,
then the lowest threshold. The threshold is the midpoint of the two values
a cut separates, or the lower one where the midpoint rounds up to the
higher.

All trees of a fit grow in lockstep (`_grow_trees`), and each step scores
a batch of nodes in one search (`_best_splits`). Each column's values are
ranked once per fit, NaN as one value ranked last, as in the presorting
of SPRINT (Shafer, Agrawal & Mehta, VLDB 1996). Every (node, sampled
feature, row) cell of the batch gets an integer key (node, feature, value
rank, class), and one 1-D sort orders them all.
Rows of one value form a group, whose order inside cannot change a fit.
Prefix sums of the groups' class counts give the counts left of each cut
between distinct values, and the Gini decrease is computed there only,
with the same float operations as a scalar per-cut scan. A cut that does
not beat every earlier cut of its node cannot pass the 1e-15 rule, so only
the others go through it in order. The winning cut's prefix counts are the
children's class counts. Node rows are index ranges of one array per
tree, which each split partitions stably.

Distance ties break on the lowest train row index, vote ties on the lowest
class index, and all randomness flows from explicit seeds.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .dataset import class_codes
from .errors import (ConfigError, DataError, FitError, LeakageError,
                     ShapeError, check)
from . import evaluation
from .partition import kfold

# cells x classes per block of the batched split search (bounds its memory)
_SPLIT_BLOCK = 1 << 18
_ROOT = np.zeros(1, dtype=np.int64)


class _Classifier:
    """Shape check and predict() shared by every model."""

    def _rows(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeError(f"expected {self.n_features} features, "
                             f"got shape {X.shape}")
        return X

    def predict(self, X) -> np.ndarray:
        """The most probable class per row (lowest class index on ties)."""
        probs = self.predict_proba(X)
        return np.asarray(self.classes, dtype=object)[probs.argmax(axis=1)]


@dataclass
class Nodes:
    """The nodes of one tree, or of a forest's trees one after another."""
    feature: np.ndarray      # int64; -1 at leaves
    threshold: np.ndarray    # rows with x[feature] <= threshold go left
    left: np.ndarray         # int64 node index; a leaf points to itself
    right: np.ndarray
    probs: np.ndarray        # (nodes, classes) class frequencies
    impurity: np.ndarray
    n_samples: np.ndarray
    importance: np.ndarray   # sample-weighted impurity decrease of the split

    def __len__(self) -> int:
        return len(self.feature)

    def slice(self, a: int, b: int) -> "Nodes":
        """Nodes a..b-1 as a tree of their own (child indices shifted)."""
        cols = {f.name: getattr(self, f.name)[a:b] for f in fields(self)}
        cols["left"] = cols["left"] - a
        cols["right"] = cols["right"] - a
        return Nodes(**cols)


def walk(nodes: Nodes, start: np.ndarray, X: np.ndarray, rows: np.ndarray,
         moved: Optional[tuple] = None,
         first: Optional[np.ndarray] = None) -> np.ndarray:
    """The leaf each (start node, row) pair reaches. Pair i starts at node
    start[i] and reads row rows[i] of X; all pairs step down one level per
    numpy step, and a pair leaves the walk once it reaches a leaf.

    moved=(masks, batch, src): pair i reads every feature f with
    masks[batch[i], f] from row src[i] of X instead. first: (features,
    pairs) node numbers, each lowered to the nodes where pair i splits on f.
    """
    d = X.shape[1]
    cells = X.ravel()
    # children[2i] is node i's right child, children[2i + 1] its left
    children = np.stack([nodes.right, nodes.left], axis=1).ravel()
    leaf = np.array(start, dtype=np.int64)
    pos = np.flatnonzero(nodes.feature[leaf] >= 0)
    node, at = leaf[pos], rows[pos] * d
    if moved is not None:
        masks, batch, src = moved
        flags, key, alt = masks.ravel(), batch[pos] * d, src[pos] * d
    while pos.size:
        f = nodes.feature[node]
        if first is not None:
            first[f, pos] = np.minimum(first[f, pos], node)
        row = at if moved is None else np.where(flags[key + f], alt, at)
        node = children[2 * node + (cells[row + f] <= nodes.threshold[node])]
        inner = nodes.feature[node] >= 0
        keep = np.flatnonzero(inner)
        if len(keep) < len(pos):
            done = np.flatnonzero(~inner)
            leaf[pos[done]] = node[done]
            pos, node, at = pos[keep], node[keep], at[keep]
            if moved is not None:
                key, alt = key[keep], alt[keep]
    return leaf


def mean_leaf_probs(probs: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Average over trees the class probabilities of leaves (..., trees,
    rows), adding them up in tree order; the result is (..., rows, classes).
    """
    trees = leaves.shape[-2]
    acc = np.zeros(leaves.shape[:-2] + (leaves.shape[-1], probs.shape[1]))
    for t in range(trees):
        acc += probs[leaves[..., t, :]]
    return acc / trees


def _predict_proba(nodes: Nodes, roots: np.ndarray, X: np.ndarray
                   ) -> np.ndarray:
    n = len(X)
    leaves = walk(nodes, np.repeat(roots, n), X, np.tile(np.arange(n),
                                                         len(roots)))
    return mean_leaf_probs(nodes.probs, leaves.reshape(len(roots), n))


class NodeView(NamedTuple):
    """One node of a tree, for code that walks a tree node by node."""
    nodes: Nodes
    index: int

    @property
    def is_leaf(self) -> bool:
        return bool(self.nodes.left[self.index] == self.index)

    @property
    def left(self) -> "NodeView":
        return NodeView(self.nodes, int(self.nodes.left[self.index]))

    @property
    def right(self) -> "NodeView":
        return NodeView(self.nodes, int(self.nodes.right[self.index]))


@dataclass
class TreeParams:
    """How far a CART tree may grow."""

    max_depth: Optional[int] = None
    min_samples_split: int = 2


@dataclass
class TreeModel(_Classifier):
    """A fitted CART tree over flat node arrays."""

    nodes: Nodes
    classes: list[str]
    n_features: int

    @property
    def root(self) -> NodeView:
        return NodeView(self.nodes, 0)

    @property
    def roots(self) -> np.ndarray:
        return _ROOT

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _predict_proba(self.nodes, _ROOT, self._rows(X))


class _Ranked(NamedTuple):
    """A training matrix prepared once per fit for the split search."""
    X: np.ndarray
    cells: np.ndarray    # cells[f * n + i]: rank * classes + class of row i
    values: np.ndarray   # values[f, r]: a value of rank r in column f


def _rank(X: np.ndarray, y: np.ndarray, n_classes: int) -> _Ranked:
    """Dense ranks of each column's distinct values, NaN one value ranked
    last, folded with the class codes y."""
    n, d = X.shape
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    new = np.ones((n, d), dtype=bool)
    new[1:] = (xs[1:] != xs[:-1]) & ~(np.isnan(xs[1:]) & np.isnan(xs[:-1]))
    sorted_ranks = np.cumsum(new, axis=0) - 1
    ranks = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(ranks, order, sorted_ranks, axis=0)
    values = np.zeros((d, int(sorted_ranks.max(initial=0)) + 1))
    values[np.arange(d), sorted_ranks] = xs
    return _Ranked(X, (ranks * n_classes + y[:, None]).T.ravel(), values)


def _best_splits(table: _Ranked, perm: np.ndarray, lo: np.ndarray,
                 size: np.ndarray, feats: np.ndarray, counts: np.ndarray,
                 parent: np.ndarray) -> list:
    """The best cut of each node of a batch, or None. Node b holds the rows
    perm[lo[b]:lo[b] + size[b]] of table.X, its candidate features are
    feats[b] (ascending), its class counts counts[b] and its Gini impurity
    parent[b]. A cut is (decrease, feature, threshold, class counts left
    of the cut).

    The (node, feature) segments are searched in blocks of at most
    _SPLIT_BLOCK cells x classes; a node's best cut so far carries over
    from one block to the next.
    """
    n = len(table.X)
    B, k = feats.shape
    C, R = counts.shape[1], table.values.shape[1]
    # segment s is (node s // k, feature seg_feat[s]); its cells end at
    # seg_end[s]
    seg_len = np.repeat(size, k)
    seg_end = np.cumsum(seg_len)
    seg_node = np.repeat(np.arange(B), k)
    seg_at = np.repeat(lo, k)
    seg_feat = feats.ravel()
    blocks, s = [], 0
    while s < B * k:
        limit = seg_end[s] - seg_len[s] + max(1, _SPLIT_BLOCK // C)
        blocks.append((s, max(s + 1, int(np.searchsorted(seg_end, limit,
                                                         "right")))))
        s = blocks[-1][1]
    best, won = [None] * B, [None] * B
    for s0, s1 in blocks:
        lens = seg_len[s0:s1]
        start = seg_end[s0:s1] - lens - (seg_end[s0] - lens[0])
        seg = np.repeat(np.arange(s1 - s0), lens)
        rows = perm[np.arange(len(seg)) + (seg_at[s0:s1] - start)[seg]]
        key = np.sort(table.cells[seg_feat[s0:s1][seg] * n + rows]
                      + seg * (R * C))
        group = key // C
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(group[1:], group[:-1], out=head[1:])
        gid = np.cumsum(head) - 1
        n_groups = int(gid[-1]) + 1
        cum = np.zeros((n_groups + 1, C), dtype=np.int64)
        np.cumsum(np.bincount(gid * C + key % C, minlength=n_groups * C)
                  .reshape(-1, C), axis=0, out=cum[1:])
        first = np.flatnonzero(head)            # each group's first cell
        gseg, grank = np.divmod(group[first], R)
        cut = np.flatnonzero(gseg[1:] == gseg[:-1])   # after group cut[j]
        if not len(cut):
            continue
        sc = gseg[cut]
        left = cum[cut + 1] - cum[np.searchsorted(gseg, sc)]
        nl = (first[cut + 1] - start[sc]).astype(np.float64)[:, None]
        node = seg_node[s0:s1][sc]
        nr = size[node][:, None] - nl
        gl = 1.0 - ((left / nl) ** 2).sum(axis=1)
        gr = 1.0 - (((counts[node] - left) / nr) ** 2).sum(axis=1)
        dec = parent[node] - (nl[:, 0] * gl + nr[:, 0] * gr) / size[node]
        # the cuts that beat every earlier cut of their node in this block
        ends = (np.flatnonzero(node[1:] != node[:-1]) + 1).tolist()
        run = np.empty_like(dec)
        for a, b in zip([0, *ends], [*ends, len(dec)]):
            np.maximum.accumulate(dec[a:b], out=run[a:b])
        record = np.empty(len(dec), dtype=bool)
        record[0] = True
        np.greater(dec[1:], run[:-1], out=record[1:])
        record[ends] = True
        rec = np.flatnonzero(record)
        moved = {}
        for j, b, v in zip(rec.tolist(), node[rec].tolist(),
                           dec[rec].tolist()):
            if best[b] is None or v > best[b] + 1e-15:
                best[b] = v
                moved[b] = j
        if moved:
            j = np.fromiter(moved.values(), dtype=np.int64, count=len(moved))
            for b, f, ra, rb, lc in zip(
                    moved, seg_feat[s0:s1][sc[j]].tolist(),
                    grank[cut[j]].tolist(), grank[cut[j] + 1].tolist(),
                    left[j]):
                won[b] = (f, ra, rb, lc)
    out = []
    for b, v in enumerate(best):
        if v is None:
            out.append(None)
            continue
        f, ra, rb, lc = won[b]
        a, c = float(table.values[f, ra]), float(table.values[f, rb])
        mid = (a + c) / 2.0      # may round up to c: then use a
        if not mid < c and a == 0.0:
            # +0.0 and -0.0 are one value: a stable sort of the node's rows
            # puts the last of them (in row order) left of the cut
            x = table.X[perm[lo[b]:lo[b] + size[b]], f]
            a = float(x[np.flatnonzero(x == 0.0)[-1]])
        out.append((v, f, mid if mid < c else a, lc))
    return out


def _grow_trees(X: np.ndarray, y: np.ndarray, n_classes: int,
                samples: list, params: TreeParams,
                rngs: Optional[list] = None,
                m: Optional[int] = None) -> tuple[Nodes, np.ndarray]:
    """Grow one tree on each row sample (an index array into X) and return
    their nodes, in tree order, with each tree's root index.

    The trees grow in lockstep, each from a stack of its pending nodes.
    If rngs (one per tree) is given and m < d, a node's m features are
    drawn from its tree's generator when it is popped; then each step pops
    from every tree the next node that needs a split, so the draws come in
    preorder, as for a tree grown alone. Otherwise the order does not
    matter, and a step pops every pending node. One batched split search
    serves every node of a step; the nodes are put in preorder at the end.
    """
    n, d = X.shape
    draw = rngs is not None and m is not None and m < d
    table = _rank(X, y, n_classes)
    perm = np.concatenate(samples)
    n_tree = [len(s) for s in samples]
    # per node, in creation order; children's counts come from their cut
    tree, lo, size, depth, counts, impurity, needs = ([] for _ in range(7))
    feature, threshold, importance, left, right = ([] for _ in range(5))

    def add(trees, starts, sizes, depths, cnt) -> list:
        ids = list(range(len(tree), len(tree) + len(trees)))
        imp = 1.0 - ((cnt / sizes[:, None]) ** 2).sum(axis=1)
        ok = (imp != 0.0) & (sizes >= params.min_samples_split)
        if params.max_depth is not None:
            ok &= depths < params.max_depth
        for col, v in ((tree, trees), (lo, starts), (size, sizes),
                       (depth, depths), (impurity, imp), (needs, ok)):
            col.extend(v.tolist())
        counts.extend(cnt)
        feature.extend([-1] * len(ids))
        threshold.extend([0.0] * len(ids))
        importance.extend([0.0] * len(ids))
        left.extend(ids)
        right.extend(ids)
        return ids

    T = len(samples)
    at = np.repeat(np.arange(T), n_tree)
    roots = add(np.arange(T), np.cumsum([0, *n_tree[:-1]]),
                np.asarray(n_tree), np.zeros(T, dtype=np.int64),
                np.bincount(at * n_classes + y[perm], minlength=T * n_classes
                            ).reshape(T, n_classes))
    stacks = [[r] for r in roots]
    while True:
        batch, feats = [], []
        for t, stack in enumerate(stacks):
            while stack:
                i = stack.pop()
                if needs[i]:
                    batch.append(i)
                    if draw:
                        feats.append(rngs[t].permutation(d)[:m])
                        break
        if not batch:
            break
        feats = (np.sort(feats, axis=1) if draw
                 else np.broadcast_to(np.arange(d), (len(batch), d)))
        found = _best_splits(
            table, perm, np.asarray([lo[i] for i in batch]),
            np.asarray([size[i] for i in batch]), feats,
            np.asarray([counts[i] for i in batch]),
            np.asarray([impurity[i] for i in batch]))
        split = [(i, *hit) for i, hit in zip(batch, found)
                 if hit is not None and not hit[0] <= 0.0]
        if not split:
            continue
        parents, decs, fs, thrs, lcs = zip(*split)
        p_lo = np.asarray([lo[i] for i in parents])
        p_size = np.asarray([size[i] for i in parents])
        lc = np.asarray(lcs)
        nl = lc.sum(axis=1)
        _partition(perm, X, p_lo, p_size, np.asarray(fs), np.asarray(thrs),
                   nl)
        t = np.asarray([tree[i] for i in parents])
        dp = np.asarray([depth[i] for i in parents]) + 1
        p_counts = np.asarray([counts[i] for i in parents])
        kids = add(np.concatenate([t, t]), np.concatenate([p_lo, p_lo + nl]),
                   np.concatenate([nl, p_size - nl]), np.concatenate([dp, dp]),
                   np.concatenate([lc, p_counts - lc]))
        for i, dec, f, thr, a, b in zip(parents, decs, fs, thrs, kids,
                                         kids[len(parents):]):
            feature[i], threshold[i], left[i], right[i] = f, thr, a, b
            importance[i] = (size[i] / n_tree[tree[i]]) * dec
            stacks[tree[i]] += (b, a)
    # preorder: a node, its left subtree, then its right subtree
    order, tree_roots = [], []
    for r in roots:
        tree_roots.append(len(order))
        stack = [r]
        while stack:
            i = stack.pop()
            order.append(i)
            if feature[i] >= 0:
                stack += (right[i], left[i])
    order = np.asarray(order)
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order))
    n_samples = np.asarray(size)[order]
    nodes = Nodes(feature=np.asarray(feature)[order],
                  threshold=np.asarray(threshold)[order],
                  left=pos[np.asarray(left)[order]],
                  right=pos[np.asarray(right)[order]],
                  probs=np.asarray(counts)[order] / n_samples[:, None],
                  impurity=np.asarray(impurity)[order], n_samples=n_samples,
                  importance=np.asarray(importance)[order])
    return nodes, np.asarray(tree_roots, dtype=np.int64)


def _partition(perm: np.ndarray, X: np.ndarray, lo: np.ndarray,
               size: np.ndarray, f: np.ndarray, thr: np.ndarray,
               nl: np.ndarray) -> None:
    """Stably partition each range perm[lo:lo + size] in place: the nl rows
    with X[row, f] <= thr first, then the rest."""
    seg = np.repeat(np.arange(len(lo)), size)
    start = np.cumsum(size) - size
    pos = np.arange(len(seg)) + (lo - start)[seg]
    rows = perm[pos]
    go = X[rows, f[seg]] <= thr[seg]
    lefts = np.cumsum(go) - go              # left rows before, all ranges
    lefts -= lefts[start][seg]
    ahead = pos - lo[seg]                   # rows before, in the range
    perm[np.where(go, lo[seg] + lefts, (lo + nl)[seg] + ahead - lefts)] = rows


def _check_fit(X, y) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise FitError("empty or non-2D training matrix")
    if len(X) != len(y):
        raise ShapeError("X and y length mismatch")
    return X


def tree_fit(X: np.ndarray, y, params: Optional[TreeParams] = None
             ) -> TreeModel:
    """Greedy CART with Gini decrease; thresholds at midpoints."""
    X = _check_fit(X, y)
    classes, y_enc = class_codes(y)
    nodes, _ = _grow_trees(X, y_enc, len(classes), [np.arange(len(X))],
                           params or TreeParams())
    return TreeModel(nodes=nodes, classes=classes, n_features=X.shape[1])


@dataclass
class ForestModel(_Classifier):
    """A fitted random forest, its trees' nodes in one array set."""

    nodes: Nodes             # every tree's nodes, in tree order
    roots: np.ndarray        # index of each tree's root in nodes
    classes: list[str]
    n_features: int
    m: int
    seed: int

    @property
    def trees(self) -> list[TreeModel]:
        """Each tree as a model of its own, in tree order."""
        ends = [*self.roots[1:].tolist(), len(self.nodes)]
        return [TreeModel(self.nodes.slice(a, b), self.classes,
                          self.n_features)
                for a, b in zip(self.roots.tolist(), ends)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _predict_proba(self.nodes, self.roots, self._rows(X))


@dataclass
class ForestParams:
    """Tree count, features per split and tree limits."""

    n_trees: int = 50
    m: Optional[int] = None          # features per split; default ceil(sqrt)
    tree: TreeParams = field(default_factory=TreeParams)


def forest_fit(X: np.ndarray, y, params: Optional[ForestParams] = None,
               seed: int = 0) -> ForestModel:
    """Bagged CART (Breiman, Random Forests, 2001): each tree's generator
    is seeded from the forest's, and draws the tree's bootstrap sample of
    n rows, then its m features per split."""
    params = params or ForestParams()
    X = _check_fit(X, y)
    classes, y_enc = class_codes(y)
    n, d = X.shape
    m = params.m if params.m is not None else max(1, math.ceil(math.sqrt(d)))
    if not (1 <= m <= d):
        raise ConfigError(f"m={m} out of [1, {d}]")
    if params.n_trees < 1:
        raise ConfigError(f"n_trees={params.n_trees} must be at least 1")
    rng = np.random.default_rng(seed)
    rngs = [np.random.default_rng(rng.integers(2 ** 63))
            for _ in range(params.n_trees)]
    samples = [tree_rng.integers(0, n, size=n) for tree_rng in rngs]
    nodes, roots = _grow_trees(X, y_enc, len(classes), samples, params.tree,
                               rngs, m)
    return ForestModel(nodes=nodes, roots=roots, classes=classes,
                       n_features=d, m=m, seed=seed)


@dataclass
class KnnModel(_Classifier):
    """The training rows a k-nearest-neighbour classifier votes with."""

    X: np.ndarray
    y: np.ndarray           # encoded
    classes: list[str]
    k: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def predict_proba(self, Q: np.ndarray) -> np.ndarray:
        Q = self._rows(Q)
        out = np.empty((len(Q), len(self.classes)))
        for i, q in enumerate(Q):
            d2 = ((self.X - q) ** 2).sum(axis=1)
            # stable sort: equal distances resolved by lower train index
            nn = np.argsort(d2, kind="stable")[:self.k]
            votes = np.bincount(self.y[nn], minlength=len(self.classes))
            out[i] = votes / self.k
        return out


def knn_fit(X: np.ndarray, y, k: int) -> KnnModel:
    X = _check_fit(X, y)
    if k < 1 or k > len(X):
        raise ConfigError(f"k={k} out of [1, {len(X)}]")
    classes, y_enc = class_codes(y)
    return KnnModel(X=X, y=y_enc, classes=classes, k=k)


# -- serialization ----------------------------------------------------------------

_INT_FIELDS = ("feature", "left", "right", "n_samples")
# each kind's model.json document, as errors.check reads a shape
_TREE_SHAPE = {"classes": (list, str), "n_features": int,
               "roots": (list, int), "nodes": {
                   f.name: (list, int if f.name in _INT_FIELDS
                            else list if f.name == "probs" else float)
                   for f in fields(Nodes)}}
_MODEL_SHAPES = {"tree": _TREE_SHAPE,
                 "forest": {**_TREE_SHAPE, "m": int, "seed": int},
                 "knn": {"classes": (list, str), "k": int, "X": (list, list),
                         "y": (list, int)}}


def model_to_json(model) -> str:
    """The model as JSON. A tree or forest is written as it is held: one
    list per `Nodes` field under "nodes", and each tree's root index under
    "roots"."""
    if isinstance(model, KnnModel):
        d = {"kind": "knn", "classes": model.classes, "k": model.k,
             "X": model.X.tolist(), "y": model.y.tolist()}
    elif isinstance(model, (TreeModel, ForestModel)):
        d = {"kind": "tree", "classes": model.classes,
             "n_features": model.n_features, "roots": model.roots.tolist(),
             "nodes": {f.name: getattr(model.nodes, f.name).tolist()
                       for f in fields(Nodes)}}
        if isinstance(model, ForestModel):
            d.update(kind="forest", m=model.m, seed=model.seed)
    else:
        raise ConfigError(f"unknown model type {type(model).__name__}")
    return json.dumps(d, sort_keys=True)


def _parse_nodes(d: dict, n_features: int, n_classes: int
                 ) -> tuple[Nodes, np.ndarray]:
    """The nodes and root indices of a tree or forest document. The checks
    make every step of `walk` go to a higher node of the same tree: a leaf
    points to itself, a split's left child is the next node, and its right
    child lies past that, before the next tree's root."""
    cols = d["nodes"]
    names = [f.name for f in fields(Nodes)]
    if set(cols) != set(names):
        raise DataError(f"nodes must hold exactly the fields {names}")
    n = len(cols["feature"])
    arrays = {}
    for name in names:
        if len(cols[name]) != n:
            raise DataError(f"nodes field {name!r} is not {n} entries")
        arrays[name] = np.asarray(
            cols[name], dtype=np.int64 if name in _INT_FIELDS else np.float64)
    nodes = Nodes(**arrays)
    if nodes.probs.shape != (n, n_classes):
        raise DataError(f"probs must be {n} nodes x {n_classes} classes")
    roots = np.asarray(d["roots"], dtype=np.int64)
    if (not len(roots) or roots[0] != 0 or (np.diff(roots) <= 0).any()
            or roots[-1] >= n):
        raise DataError(f"roots must rise strictly from 0 to below {n}")
    f, i = nodes.feature, np.arange(n)
    if ((f < -1) | (f >= n_features)).any():
        raise DataError(f"a split feature is not in [-1, {n_features})")
    end = np.repeat(np.append(roots[1:], n), np.diff(np.append(roots, n)))
    ok = np.where(f < 0, (nodes.left == i) & (nodes.right == i),
                  (nodes.left == i + 1) & (i + 1 < nodes.right)
                  & (nodes.right < end))
    if not ok.all():
        raise DataError(f"node {np.flatnonzero(~ok)[0]} has a child outside "
                        "the preorder layout of its tree")
    return nodes, roots


def model_from_json(text: str):
    """The model `model_to_json` wrote; DataError on malformed input.

    The last model parsed or remembered at its write (`remember_model`)
    stays in a per-process memo keyed by the SHA-256 of the text, so
    evaluate and explain parse no model.json that train wrote in the same
    process, and any other one once; each call returns a copy of its own.
    """
    global _last_model
    key = _text_key(text)
    if _last_model[0] != key:
        _last_model = (None, None)
        _last_model = (key, _parse_model(text))
    return copy.deepcopy(_last_model[1])


def remember_model(text: str, model) -> None:
    """Fill the model_from_json memo at the write of text, which is
    model_to_json(model), of a model fitted here, with any whitespace
    after it. A copy of model is held where it is what the parse of text
    gives: integer arrays int64, the others float64 without NaN (JSON
    keeps no NaN bits), plain int scalars and a list of str classes; for
    any other model the memo is emptied."""
    global _last_model
    _last_model = (None, None)
    if isinstance(model, KnnModel):
        ints, floats, scalars = [model.y], [model.X], [model.k]
    else:
        cols = {f.name: getattr(model.nodes, f.name) for f in fields(Nodes)}
        ints = [cols.pop(name) for name in _INT_FIELDS] + [model.roots]
        floats, scalars = list(cols.values()), [model.n_features]
        if isinstance(model, ForestModel):
            scalars += [model.m, model.seed]
    if (all(a.dtype == np.int64 for a in ints)
            and all(a.dtype == np.float64 and not np.isnan(a).any()
                    for a in floats)
            and all(type(v) is int for v in scalars)
            and type(model.classes) is list
            and all(type(c) is str for c in model.classes)):
        _last_model = (_text_key(text), copy.deepcopy(model))


def _text_key(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()


# the last model model_from_json parsed or remember_model held: (key, model)
_last_model: tuple = (None, None)


def _parse_model(text: str):
    try:
        d = json.loads(text)
        kind = d["kind"]
        if kind not in _MODEL_SHAPES:
            raise DataError(f"unknown model kind {kind!r}")
        check(d, _MODEL_SHAPES[kind], "model.json", DataError)
        classes = d["classes"]
        if not classes:
            raise DataError("classes must be a nonempty list of strings")
        if kind == "knn":
            X = np.asarray(d["X"], dtype=np.float64)
            y = np.asarray(d["y"], dtype=np.int64)
            k = d["k"]
            if (X.ndim != 2 or not len(X) or y.shape != (len(X),)
                    or not ((0 <= y) & (y < len(classes))).all()
                    or not 1 <= k <= len(X)):
                raise DataError("knn model needs rows X, class indices y "
                                "and k in [1, rows]")
            return KnnModel(X=X, y=y, classes=classes, k=k)
        n_features = d["n_features"]
        if n_features < 1:
            raise DataError(f"n_features {n_features} is not positive")
        nodes, roots = _parse_nodes(d, n_features, len(classes))
        if kind == "tree":
            if len(roots) != 1:
                raise DataError(f"a tree has one root, not {len(roots)}")
            return TreeModel(nodes=nodes, classes=classes,
                             n_features=n_features)
        return ForestModel(nodes=nodes, roots=roots, classes=classes,
                           n_features=n_features, m=d["m"], seed=d["seed"])
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as e:
        raise DataError(f"malformed model JSON: {type(e).__name__}: {e}"
                        ) from None


# -- grid search ----------------------------------------------------------------

@dataclass
class HyperGrid:
    """Candidate values per parameter, scored by cross-validation."""

    values: dict[str, list]            # param name -> candidate values
    metric: str = "accuracy"
    cv_folds: int = 3

    def __post_init__(self):
        if not self.values or any(not v for v in self.values.values()):
            raise ConfigError("grid must be nonempty")
        if self.metric not in evaluation.METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; known: "
                              f"{sorted(evaluation.METRICS)}")


def fit(kind: str, X, y, params: dict, seed: int):
    """A "tree", "forest" or "knn" model fitted with params, keyed as the
    config's model.params; each kind reads only its own keys. knn needs k;
    a key a tree or forest lacks keeps its TreeParams or ForestParams
    default. The CLI gives every key."""
    if kind == "knn":
        return knn_fit(X, y, params["k"])
    own = lambda cls: {f.name: params[f.name] for f in fields(cls)
                       if f.name in params}
    tree = TreeParams(**own(TreeParams))
    if kind == "tree":
        return tree_fit(X, y, tree)
    if kind == "forest":
        return forest_fit(X, y, ForestParams(**{**own(ForestParams),
                                                "tree": tree}), seed=seed)
    raise ConfigError(f"unknown model kind {kind!r}")


def _simplicity(kind: str, params: dict) -> tuple:
    # tie-break toward the simpler model
    return (params.get("n_trees", 0), params.get("max_depth") or 0,
            params.get("k", 0),
            tuple(sorted(params.items(), key=lambda kv: kv[0])).__repr__())


def grid_search(design, grid: HyperGrid, model_kind: str, seed: int = 0,
                params: Optional[dict] = None) -> tuple[dict, list[dict]]:
    """Exhaustive k-fold CV over the grid on the design (train+val) set.

    `design` is a Dataset that must carry no test-tagged rows. Each
    combination of grid values is fitted over params, as `fit` takes them.
    Returns (best entry, full cv table), each entry's params its combination;
    the best entry carries the model refit on the whole design set.
    """
    if design.partitions is not None and (design.partitions == "test").any():
        raise LeakageError("grid search design set contains test rows")
    score_fn = evaluation.METRICS[grid.metric]
    folds = kfold(design, grid.cv_folds, seed=seed,
                  allow_temporal_override=True)
    table = []
    names = sorted(grid.values)
    for combo in itertools.product(*(grid.values[n] for n in names)):
        combo = dict(zip(names, combo))
        scores = []
        for train_idx, val_idx in folds:
            tr = design.subset(train_idx)
            va = design.subset(val_idx)
            Xtr, _ = tr.feature_matrix()
            Xva, _ = va.feature_matrix()
            model = fit(model_kind, Xtr, tr.labels(),
                        {**(params or {}), **combo}, seed)
            pred = model.predict(Xva)
            scores.append(score_fn(va.labels(), pred))
        mean = float(np.mean(scores))
        std = float(np.std(scores))
        table.append({"params": combo, "mean_score": mean,
                      "std_score": std, "fold_scores": scores})
    best = min(table, key=lambda e: (-e["mean_score"],
                                     _simplicity(model_kind, e["params"])))
    Xd, _ = design.feature_matrix()
    best = dict(best)
    best["model"] = fit(model_kind, Xd, design.labels(),
                        {**(params or {}), **best["params"]}, seed)
    return best, table
