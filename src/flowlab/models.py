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

from .errors import ConfigError, DataError, FitError, LeakageError, ShapeError
from . import evaluation
from .partition import kfold

# cells x classes per block of the batched split search (bounds its memory)
_SPLIT_BLOCK = 1 << 18
_ROOT = np.zeros(1, dtype=np.int64)


def _encode_labels(y) -> tuple[np.ndarray, list[str]]:
    classes = sorted({str(v) for v in y})
    index = {c: i for i, c in enumerate(classes)}
    return np.asarray([index[str(v)] for v in y], dtype=np.int64), classes


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
        return np.asarray([self.classes[i] for i in probs.argmax(axis=1)],
                          dtype=object)


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
         on_path: Optional[np.ndarray] = None) -> np.ndarray:
    """The leaf each (start node, row) pair reaches. Pair i starts at node
    start[i] and reads row rows[i] of X; all pairs step down one level per
    numpy step, and a pair leaves the walk once it reaches a leaf.

    moved=(features, src): pair i reads every feature f with features[f]
    True from row src[i] of X instead. on_path: a (features, pairs) bool
    array; every split pair i passes on feature f sets on_path[f, i].
    """
    d = X.shape[1]
    cells = X.ravel()
    # children[2i] is node i's right child, children[2i + 1] its left
    children = np.stack([nodes.right, nodes.left], axis=1).ravel()
    leaf = np.array(start, dtype=np.int64)
    pos = np.flatnonzero(nodes.feature[leaf] >= 0)
    node, at = leaf[pos], rows[pos] * d
    if moved is not None:
        features, src = moved
        alt = src[pos] * d
    while pos.size:
        f = nodes.feature[node]
        if on_path is not None:
            on_path[f, pos] = True
        row = at if moved is None else np.where(features[f], alt, at)
        node = children[2 * node + (cells[row + f] <= nodes.threshold[node])]
        inner = nodes.feature[node] >= 0
        keep = np.flatnonzero(inner)
        if len(keep) < len(pos):
            done = np.flatnonzero(~inner)
            leaf[pos[done]] = node[done]
            pos, node, at = pos[keep], node[keep], at[keep]
            if moved is not None:
                alt = alt[keep]
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
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_impurity_decrease: float = 0.0


@dataclass
class TreeModel(_Classifier):
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
                 if hit is not None and not (
                     hit[0] <= 0.0 or hit[0] < params.min_impurity_decrease)]
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
    y_enc, classes = _encode_labels(y)
    nodes, _ = _grow_trees(X, y_enc, len(classes), [np.arange(len(X))],
                           params or TreeParams())
    return TreeModel(nodes=nodes, classes=classes, n_features=X.shape[1])


@dataclass
class ForestModel(_Classifier):
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
    y_enc, classes = _encode_labels(y)
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
    y_enc, classes = _encode_labels(y)
    return KnnModel(X=X, y=y_enc, classes=classes, k=k)


# -- serialization ----------------------------------------------------------------

def _tree_to_dict(nodes: Nodes) -> dict:
    """The nested JSON form of one tree, built from the last node back so
    that both children exist before their parent."""
    cols = {f.name: getattr(nodes, f.name).tolist() for f in fields(nodes)}
    out = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        d = {"impurity": cols["impurity"][i], "n": cols["n_samples"][i],
             "probs": cols["probs"][i]}
        if cols["feature"][i] >= 0:
            d.update(feature=cols["feature"][i],
                     threshold=cols["threshold"][i],
                     importance=cols["importance"][i],
                     left=out[cols["left"][i]], right=out[cols["right"][i]])
        out[i] = d
    return out[0]


def model_to_json(model) -> str:
    if isinstance(model, TreeModel):
        d = {"kind": "tree", "classes": model.classes,
             "n_features": model.n_features,
             "root": _tree_to_dict(model.nodes)}
    elif isinstance(model, ForestModel):
        d = {"kind": "forest", "classes": model.classes,
             "n_features": model.n_features, "m": model.m,
             "seed": model.seed,
             "trees": [_tree_to_dict(t.nodes) for t in model.trees]}
    elif isinstance(model, KnnModel):
        d = {"kind": "knn", "classes": model.classes, "k": model.k,
             "X": model.X.tolist(), "y": model.y.tolist()}
    else:
        raise ConfigError(f"unknown model type {type(model).__name__}")
    try:
        return json.dumps(d, sort_keys=True)
    except RecursionError:      # json nests one level per tree level
        raise DataError(f"a tree {_depth(model.nodes)} levels deep is too "
                        "deep to write as nested JSON") from None


def _depth(nodes: Nodes) -> int:
    """The most splits on a path from a root to a leaf, in preorder nodes."""
    left, right = nodes.left.tolist(), nodes.right.tolist()
    depth = [0] * len(nodes)
    for i, feature in enumerate(nodes.feature.tolist()):
        if feature >= 0:
            depth[left[i]] = depth[right[i]] = depth[i] + 1
    return max(depth)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_trees(tree_dicts: list, n_features: int, n_classes: int
                 ) -> tuple[Nodes, np.ndarray]:
    """The nodes of nested JSON trees, appended in preorder straight into
    their columns, and each tree's root index. A split's left child is the
    next node; its right child is set when the walk reaches it."""
    feature, threshold, left, right, importance = [], [], [], [], []
    probs, impurity, n_samples, roots = [], [], [], []
    for root in tree_dicts:
        roots.append(len(feature))
        stack = [(root, -1)]
        while stack:
            d, parent = stack.pop()
            i = len(feature)
            if parent >= 0:
                right[parent] = i
            p = [float(v) for v in d["probs"]]
            if len(p) != n_classes:
                raise DataError(f"node has {len(p)} class probabilities, "
                                f"the model has {n_classes} classes")
            probs.append(p)
            impurity.append(float(d["impurity"]))
            n_samples.append(int(d["n"]))
            right.append(i)
            if "feature" in d:
                f = d["feature"]
                if not _is_int(f) or not 0 <= f < n_features:
                    raise DataError(f"split feature {f!r} not in "
                                    f"[0, {n_features})")
                feature.append(f)
                threshold.append(float(d["threshold"]))
                importance.append(float(d["importance"]))
                left.append(i + 1)
                stack += [(d["right"], i), (d["left"], -1)]
            else:
                feature.append(-1)
                threshold.append(0.0)
                importance.append(0.0)
                left.append(i)
    i64 = np.int64
    nodes = Nodes(feature=np.asarray(feature, i64),
                  threshold=np.asarray(threshold), left=np.asarray(left, i64),
                  right=np.asarray(right, i64), probs=np.asarray(probs),
                  impurity=np.asarray(impurity),
                  n_samples=np.asarray(n_samples, i64),
                  importance=np.asarray(importance))
    return nodes, np.asarray(roots, i64)


def model_from_json(text: str):
    """The model `model_to_json` wrote; DataError on malformed input.

    The last model parsed stays in a per-process memo keyed by the SHA-256
    of the text, so evaluate and explain parse one model.json once; each
    call returns a copy of its own.
    """
    global _last_model
    key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
    if _last_model[0] != key:
        _last_model = (None, None)
        _last_model = (key, _parse_model(text))
    return copy.deepcopy(_last_model[1])


# the last model model_from_json parsed: (key, model)
_last_model: tuple = (None, None)


def _parse_model(text: str):
    try:
        d = json.loads(text)
        kind, classes = d["kind"], d["classes"]
        if (not isinstance(classes, list) or not classes
                or not all(isinstance(c, str) for c in classes)):
            raise DataError("classes must be a nonempty list of strings")
        if kind == "knn":
            X = np.asarray(d["X"], dtype=np.float64)
            y = np.asarray(d["y"])
            k = d["k"]
            if (X.ndim != 2 or not len(X) or y.shape != (len(X),)
                    or y.dtype.kind != "i"
                    or not ((0 <= y) & (y < len(classes))).all()
                    or not _is_int(k) or not 1 <= k <= len(X)):
                raise DataError("knn model needs rows X, class indices y "
                                "and k in [1, rows]")
            return KnnModel(X=X, y=y.astype(np.int64), classes=classes, k=k)
        if kind not in ("tree", "forest"):
            raise DataError(f"unknown model kind {kind!r}")
        n_features = d["n_features"]
        if not _is_int(n_features) or n_features < 1:
            raise DataError(f"n_features {n_features!r} is not a positive "
                            "integer")
        tree_dicts = [d["root"]] if kind == "tree" else d["trees"]
        if not isinstance(tree_dicts, list) or not tree_dicts:
            raise DataError("trees must be a nonempty list")
        nodes, roots = _parse_trees(tree_dicts, n_features, len(classes))
        if kind == "tree":
            return TreeModel(nodes=nodes, classes=classes,
                             n_features=n_features)
        m, seed = d["m"], d["seed"]
        if not _is_int(m) or not _is_int(seed):
            raise DataError("forest m and seed must be integers")
        return ForestModel(nodes=nodes, roots=roots, classes=classes,
                           n_features=n_features, m=m, seed=seed)
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as e:
        raise DataError(f"malformed model JSON: {type(e).__name__}: {e}"
                        ) from None


# -- grid search ----------------------------------------------------------------

@dataclass
class HyperGrid:
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
    """A "tree", "forest" or "knn" model fitted with the config's params;
    each kind reads only its own keys, and a missing key is its default."""
    if kind == "knn":
        return knn_fit(X, y, params.get("k", 5))
    tree = TreeParams(
        max_depth=params.get("max_depth"),
        min_samples_split=params.get("min_samples_split", 2),
        min_impurity_decrease=params.get("min_impurity_decrease", 0.0))
    if kind == "tree":
        return tree_fit(X, y, tree)
    if kind == "forest":
        return forest_fit(X, y, ForestParams(
            n_trees=params.get("n_trees", 50), m=params.get("m"), tree=tree),
            seed=seed)
    raise ConfigError(f"unknown model kind {kind!r}")


def _simplicity(kind: str, params: dict) -> tuple:
    # tie-break toward the simpler model
    return (params.get("n_trees", 0), params.get("max_depth") or 0,
            params.get("k", 0),
            tuple(sorted(params.items(), key=lambda kv: kv[0])).__repr__())


def grid_search(design, grid: HyperGrid, model_kind: str, seed: int = 0,
                preprocess=None) -> tuple[dict, list[dict]]:
    """Exhaustive k-fold CV over the grid on the design (train+val) set.

    `design` is a Dataset that must carry no test-tagged rows. `preprocess`,
    if given, is called per fold as preprocess(train_ds, val_ds) ->
    (train_ds, val_ds) so fold-local transforms are refit each time.
    Returns (best entry, full cv table); the best entry carries the model
    refit on the whole design set.
    """
    if design.partitions is not None and (design.partitions == "test").any():
        raise LeakageError("grid search design set contains test rows")
    score_fn = evaluation.METRICS[grid.metric]
    folds = kfold(design, grid.cv_folds, seed=seed,
                  allow_temporal_override=True)
    table = []
    names = sorted(grid.values)
    for combo in itertools.product(*(grid.values[n] for n in names)):
        params = dict(zip(names, combo))
        scores = []
        for train_idx, val_idx in folds:
            tr = design.subset(train_idx)
            va = design.subset(val_idx)
            if preprocess is not None:
                tr, va = preprocess(tr, va)
            Xtr, _ = tr.feature_matrix()
            Xva, _ = va.feature_matrix()
            model = fit(model_kind, Xtr, tr.labels(), params, seed)
            pred = model.predict(Xva)
            scores.append(score_fn(va.labels(), pred))
        mean = float(np.mean(scores))
        std = float(np.std(scores))
        table.append({"params": params, "mean_score": mean,
                      "std_score": std, "fold_scores": scores})
    best = min(table, key=lambda e: (-e["mean_score"],
                                     _simplicity(model_kind, e["params"])))
    full = design if preprocess is None else preprocess(design, design)[0]
    Xd, _ = full.feature_matrix()
    best = dict(best)
    best["model"] = fit(model_kind, Xd, full.labels(), best["params"], seed)
    return best, table
