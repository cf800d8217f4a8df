"""From-scratch supervised baselines: CART decision tree, bagged random
forest, and brute-force k-NN, plus exhaustive grid search over k-fold CV.

A tree is a set of flat per-node arrays (`Nodes`) in preorder: a node, then
its whole left subtree, then its right subtree. A leaf has feature -1 and
its `left`/`right` point to itself. A forest concatenates its trees' nodes
and records where each tree's root is; predict moves every (tree, row)
pair down one level per numpy step (`walk`), and a pair leaves the walk at
its leaf.

Split search (Gini decrease, Breiman et al., CART): for each sampled
feature the node's rows are sorted stably, and prefix sums of one-hot
labels give the class counts left of every cut between distinct values.
Cuts are scanned feature by feature in ascending id, then by ascending
threshold, and a cut replaces the best so far only if its decrease is
larger by more than 1e-15: ties within 1e-15 go to the lowest feature,
then the lowest threshold. The threshold is the midpoint of the two values
a cut separates, or the lower one where the midpoint rounds up to the
higher.

Distance ties break on the lowest train row index, vote ties on the lowest
class index, and all randomness flows from explicit seeds.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DataError, FitError, LeakageError, ShapeError
from . import evaluation
from .partition import kfold

# floats per block of prefix class counts in _best_split (bounds its memory)
_SPLIT_BLOCK = 1 << 18
_ROOT = np.zeros(1, dtype=np.int64)


def _encode_labels(y) -> tuple[np.ndarray, list[str]]:
    classes = sorted({str(v) for v in y})
    index = {c: i for i, c in enumerate(classes)}
    return np.asarray([index[str(v)] for v in y], dtype=np.int64), classes


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p ** 2).sum())


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


class _Builder:
    """Appends nodes in preorder; `finish` freezes them into Nodes."""

    def __init__(self):
        self.cols = {f.name: [] for f in fields(Nodes)}

    def __len__(self) -> int:
        return len(self.cols["feature"])

    def leaf(self, parent: int, side: str, probs, impurity: float,
             n: int) -> int:
        """Add a leaf as parent's `side` ("left"/"right") child; its index."""
        i = len(self)
        if parent >= 0:
            self.cols[side][parent] = i
        for name, value in (("feature", -1), ("threshold", 0.0), ("left", i),
                            ("right", i), ("probs", probs),
                            ("impurity", impurity), ("n_samples", n),
                            ("importance", 0.0)):
            self.cols[name].append(value)
        return i

    def split(self, i: int, feature: int, threshold: float,
              importance: float) -> None:
        self.cols["feature"][i] = feature
        self.cols["threshold"][i] = threshold
        self.cols["importance"][i] = importance

    def finish(self, n_classes: int) -> Nodes:
        ints = ("feature", "left", "right", "n_samples")
        cols = {name: np.asarray(values, dtype=np.int64 if name in ints
                                 else np.float64)
                for name, values in self.cols.items()}
        cols["probs"] = cols["probs"].reshape(-1, n_classes)
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


def _best_split(Xf: np.ndarray, onehot: np.ndarray, counts: np.ndarray,
                parent: float) -> Optional[tuple]:
    """(weighted-impurity decrease, column, threshold) of the best cut of a
    node, or None. Xf holds the node's rows in the candidate features'
    columns, by ascending feature id; onehot its one-hot labels; counts and
    parent its class counts and Gini impurity.

    Every cut's decrease is computed at once, with the same float
    operations as a scalar per-cut Gini. Only a cut whose decrease beats
    every earlier cut of its column can pass the sequential
    `dec > best + 1e-15` rule, so only those go through it.
    """
    n, k = Xf.shape
    if n < 2:
        return None
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    best = None
    step = max(1, _SPLIT_BLOCK // (n * onehot.shape[1]))
    for lo in range(0, k, step):
        cols = Xf[:, lo:lo + step]
        order = np.argsort(cols, axis=0, kind="stable")
        xs = np.take_along_axis(cols, order, axis=0)
        left = np.cumsum(onehot[order[:-1]], axis=0)
        gl = 1.0 - ((left / nl[..., None]) ** 2).sum(axis=2)
        gr = 1.0 - (((counts - left) / nr[..., None]) ** 2).sum(axis=2)
        dec = parent - (nl * gl + nr * gr) / n
        # no cut between equal values; NaN (sorted last) counts as one value
        same = (xs[:-1] == xs[1:]) | (np.isnan(xs[:-1]) & np.isnan(xs[1:]))
        dec[same] = -np.inf
        record = dec > -np.inf
        record[1:] &= dec[1:] > np.maximum.accumulate(dec, axis=0)[:-1]
        for j, i in zip(*np.nonzero(record.T)):
            if best is None or dec[i, j] > best[0] + 1e-15:
                a, b = xs[i, j], xs[i + 1, j]
                mid = (a + b) / 2.0   # may round up to b: then use a
                best = (float(dec[i, j]), lo + int(j),
                        float(mid if mid < b else a))
    return best


def _grow(tree: _Builder, X: np.ndarray, y: np.ndarray, n_classes: int,
          params: TreeParams, rng: Optional[np.random.Generator],
          m: Optional[int]) -> None:
    """Grow one tree on (X, y) into `tree`, node by node in preorder, so
    the feature samples are drawn from rng in preorder."""
    n_total, d = X.shape
    onehot = np.eye(n_classes)[y]
    stack = [(np.arange(n_total), 0, -1, "")]
    while stack:
        rows, depth, parent, side = stack.pop()
        counts = np.bincount(y[rows], minlength=n_classes)
        impurity = _gini(counts)
        i = tree.leaf(parent, side, counts / len(rows), impurity, len(rows))
        if (impurity == 0.0
                or len(rows) < params.min_samples_split
                or (params.max_depth is not None
                    and depth >= params.max_depth)):
            continue
        if m is not None and rng is not None and m < d:
            feature_ids = np.sort(rng.permutation(d)[:m])
        else:
            feature_ids = np.arange(d)
        found = _best_split(X[np.ix_(rows, feature_ids)], onehot[rows],
                            counts, impurity)
        if found is None:
            continue
        dec, j, thr = found
        if dec <= 0.0 or dec < params.min_impurity_decrease:
            continue
        f = int(feature_ids[j])
        mask = X[rows, f] <= thr
        tree.split(i, f, thr, (len(rows) / n_total) * dec)
        stack.append((rows[~mask], depth + 1, i, "right"))
        stack.append((rows[mask], depth + 1, i, "left"))


def tree_fit(X: np.ndarray, y, params: Optional[TreeParams] = None
             ) -> TreeModel:
    """Greedy CART with Gini decrease; thresholds at midpoints."""
    params = params or TreeParams()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise FitError("empty or non-2D training matrix")
    if len(X) != len(y):
        raise ShapeError("X and y length mismatch")
    y_enc, classes = _encode_labels(y)
    tree = _Builder()
    _grow(tree, X, y_enc, len(classes), params, None, None)
    return TreeModel(nodes=tree.finish(len(classes)), classes=classes,
                     n_features=X.shape[1])


@dataclass
class ForestModel(_Classifier):
    nodes: Nodes             # every tree's nodes, in tree order
    roots: np.ndarray        # index of each tree's root in nodes
    classes: list[str]
    n_features: int
    m: int
    seed: int
    oob_masks: list[np.ndarray] = field(default_factory=list)

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
    bootstrap: bool = True


def forest_fit(X: np.ndarray, y, params: Optional[ForestParams] = None,
               seed: int = 0) -> ForestModel:
    params = params or ForestParams()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise FitError("empty or non-2D training matrix")
    y_enc, classes = _encode_labels(y)
    n, d = X.shape
    m = params.m if params.m is not None else max(1, math.ceil(math.sqrt(d)))
    if not (1 <= m <= d):
        raise ConfigError(f"m={m} out of [1, {d}]")
    if params.n_trees < 1:
        raise ConfigError(f"n_trees={params.n_trees} must be at least 1")
    rng = np.random.default_rng(seed)
    forest, roots, oob = _Builder(), [], []
    for _ in range(params.n_trees):
        tree_rng = np.random.default_rng(rng.integers(2 ** 63))
        if params.bootstrap:
            idx = tree_rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        mask = np.ones(n, dtype=bool)
        mask[np.unique(idx)] = False
        roots.append(len(forest))
        _grow(forest, X[idx], y_enc[idx], len(classes), params.tree,
              tree_rng, m if m < d else None)
        oob.append(mask)
    return ForestModel(nodes=forest.finish(len(classes)),
                       roots=np.asarray(roots, dtype=np.int64),
                       classes=classes, n_features=d, m=m, seed=seed,
                       oob_masks=oob)


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
    X = np.asarray(X, dtype=np.float64)
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
    return json.dumps(d, sort_keys=True)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _add_tree(tree: _Builder, root: dict, n_features: int,
              n_classes: int) -> None:
    """Append one nested JSON tree to `tree` in preorder."""
    stack = [(root, -1, "")]
    while stack:
        d, parent, side = stack.pop()
        probs = [float(p) for p in d["probs"]]
        if len(probs) != n_classes:
            raise DataError(f"node has {len(probs)} class probabilities, "
                            f"the model has {n_classes} classes")
        i = tree.leaf(parent, side, probs, float(d["impurity"]),
                      int(d["n"]))
        if "feature" in d:
            f = d["feature"]
            if not _is_int(f) or not 0 <= f < n_features:
                raise DataError(f"split feature {f!r} not in "
                                f"[0, {n_features})")
            tree.split(i, f, float(d["threshold"]), float(d["importance"]))
            stack += [(d["right"], i, "right"), (d["left"], i, "left")]


def model_from_json(text: str):
    """The model `model_to_json` wrote; DataError on malformed input."""
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
        nodes, roots = _Builder(), []
        for root in tree_dicts:
            roots.append(len(nodes))
            _add_tree(nodes, root, n_features, len(classes))
        frozen = nodes.finish(len(classes))
        if kind == "tree":
            return TreeModel(nodes=frozen, classes=classes,
                             n_features=n_features)
        m, seed = d["m"], d["seed"]
        if not _is_int(m) or not _is_int(seed):
            raise DataError("forest m and seed must be integers")
        return ForestModel(nodes=frozen, roots=np.asarray(roots,
                                                          dtype=np.int64),
                           classes=classes, n_features=n_features, m=m,
                           seed=seed)
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


def _fit_by_kind(kind: str, X, y, params: dict, seed: int):
    if kind == "tree":
        return tree_fit(X, y, TreeParams(
            max_depth=params.get("max_depth"),
            min_samples_split=params.get("min_samples_split", 2),
            min_impurity_decrease=params.get("min_impurity_decrease", 0.0)))
    if kind == "forest":
        return forest_fit(X, y, ForestParams(
            n_trees=params.get("n_trees", 50),
            m=params.get("m"),
            tree=TreeParams(
                max_depth=params.get("max_depth"),
                min_samples_split=params.get("min_samples_split", 2),
                min_impurity_decrease=params.get("min_impurity_decrease", 0.0))),
            seed=seed)
    if kind == "knn":
        return knn_fit(X, y, params.get("k", 5))
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
            model = _fit_by_kind(model_kind, Xtr, tr.labels(), params, seed)
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
    best["model"] = _fit_by_kind(model_kind, Xd, full.labels(),
                                 best["params"], seed)
    return best, table
