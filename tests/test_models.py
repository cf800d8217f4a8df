import functools
import json
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowlab import models
from flowlab.dataset import Dataset
from flowlab.errors import (ConfigError, DataError, FitError, LeakageError,
                            ShapeError)
from flowlab.models import (ForestParams, HyperGrid, Nodes, TreeParams,
                            forest_fit, grid_search, knn_fit, model_from_json,
                            model_to_json, tree_fit)
from oracles import (flat_doc, forest_oracle, knn_oracle, tree_oracle,
                     tree_proba_oracle)


def _is_leaf(nodes, i):
    return nodes.left[i] == i and nodes.right[i] == i


def _blobs(rng, n_per=60, centers=((0, 0), (4, 4), (0, 6)), spread=0.7):
    X, y = [], []
    for ci, (cx, cy) in enumerate(centers):
        X.append(rng.normal((cx, cy), spread, size=(n_per, 2)))
        y += [f"C{ci}"] * n_per
    return np.vstack(X), np.asarray(y, dtype=object)


class TestTree:
    def test_memorizes_separable_data(self, rng):
        X, y = _blobs(rng, spread=0.3)
        model = tree_fit(X, y)
        pred, probs = model.predict(X), model.predict_proba(X)
        assert (pred == y).all()
        assert probs.shape == (len(X), 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_single_split_midpoint_threshold(self):
        X = np.asarray([[1.0], [2.0], [10.0], [11.0]])
        y = ["A", "A", "B", "B"]
        model = tree_fit(X, y)
        nodes = model.nodes
        assert nodes.feature[0] == 0
        assert nodes.threshold[0] == 6.0
        assert _is_leaf(nodes, nodes.left[0])
        assert _is_leaf(nodes, nodes.right[0])

    def test_tie_breaks_lowest_feature(self):
        # both features separate perfectly; feature 0 must be chosen
        X = np.asarray([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = ["A", "A", "B", "B"]
        assert tree_fit(X, y).nodes.feature[0] == 0

    def test_max_depth_and_min_split(self, rng):
        X, y = _blobs(rng)
        stump = tree_fit(X, y, TreeParams(max_depth=1))
        assert _is_leaf(stump.nodes, stump.nodes.left[0])
        assert _is_leaf(stump.nodes, stump.nodes.right[0])
        blocked = tree_fit(X, y, TreeParams(min_samples_split=10 ** 6))
        assert _is_leaf(blocked.nodes, 0)

    def test_pure_node_stops(self):
        model = tree_fit(np.asarray([[1.0], [2.0]]), ["A", "A"])
        assert _is_leaf(model.nodes, 0)
        assert model.nodes.impurity[0] == 0.0

    def test_shape_check(self, rng):
        X, y = _blobs(rng)
        model = tree_fit(X, y)
        with pytest.raises(ShapeError):
            model.predict(np.zeros((3, 5)))
        with pytest.raises(FitError):
            tree_fit(np.zeros((0, 2)), [])
        for fit in (tree_fit, forest_fit):
            for y_len in (3, 5):
                with pytest.raises(ShapeError):
                    fit(np.zeros((4, 2)), ["A", "B", "A", "B", "A"][:y_len])

    def test_deterministic(self, rng):
        X, y = _blobs(rng)
        a = model_to_json(tree_fit(X, y))
        b = model_to_json(tree_fit(X, y))
        assert a == b

    def test_json_round_trip(self, rng):
        X, y = _blobs(rng)
        model = tree_fit(X, y, TreeParams(max_depth=4))
        back = model_from_json(model_to_json(model))
        np.testing.assert_array_equal(back.predict(X), model.predict(X))

    def test_threshold_between_adjacent_doubles(self):
        # the midpoint of a and b rounds up to b; a threshold of b would
        # send every row left and split the same node forever
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        model = tree_fit([[a], [b], [a], [b]], ["x", "y", "x", "y"])
        nodes = model.nodes
        assert nodes.threshold[0] == a
        assert list(nodes.n_samples) == [4, 2, 2]
        assert list(model.predict([[a], [b]])) == ["x", "y"]

    def test_nan_cells_split_as_one_value(self):
        # NaN sorts last and never equals itself; a cut between two NaNs
        # would send every row right
        X = np.asarray([[np.nan, 1.0], [np.nan, 0.0], [1.0, 1.0],
                        [2.0, 0.0], [np.nan, 3.0]])
        model = tree_fit(X, ["a", "b", "c", "a", "b"])
        assert (model.nodes.n_samples > 0).all()
        assert list(model.predict(X)) == ["a", "b", "c", "a", "b"]

    def test_decrease_within_1e15_keeps_earlier_feature(self):
        # feature 1's best cut beats feature 0's by 5.6e-17 only
        X = np.asarray([[0, 1], [2, 2], [0, 0], [1, 1], [0, 2], [2, 0],
                        [2, 1], [1, 0], [2, 2]], dtype=np.float64)
        y = ["a", "a", "a", "a", "a", "b", "a", "b", "b"]
        model = tree_fit(X, y, TreeParams(max_depth=1))
        assert model.nodes.feature[0] == 0
        assert model.nodes.threshold[0] == 0.5

    def test_arrays_are_preorder(self, rng):
        X, y = _blobs(rng, spread=1.5)
        nodes = tree_fit(X, y).nodes
        internal = np.flatnonzero(nodes.feature >= 0)
        # left child right after its parent, right child after the left
        # subtree; children split their parent's samples
        np.testing.assert_array_equal(nodes.left[internal], internal + 1)
        assert (nodes.right[internal] > nodes.left[internal]).all()
        np.testing.assert_array_equal(
            nodes.n_samples[nodes.left[internal]]
            + nodes.n_samples[nodes.right[internal]],
            nodes.n_samples[internal])
        assert (nodes.n_samples > 0).all()
        leaves = np.flatnonzero(nodes.feature < 0)
        np.testing.assert_array_equal(nodes.left[leaves], leaves)
        np.testing.assert_array_equal(nodes.right[leaves], leaves)


class TestForest:
    def test_blobs_accuracy(self, rng):
        X, y = _blobs(rng)
        model = forest_fit(X, y, ForestParams(n_trees=30), seed=5)
        test_X, test_y = _blobs(np.random.default_rng(999))
        pred = model.predict(test_X)
        assert (pred == test_y).mean() >= 0.95

    def test_default_m_is_ceil_sqrt(self, rng):
        X = rng.normal(size=(30, 5))
        y = ["A"] * 15 + ["B"] * 15
        assert forest_fit(X, y, ForestParams(n_trees=3)).m == 3

    def test_needs_a_tree(self, rng):
        # a forest of no trees averages nothing: NaN probabilities, and a
        # model.json that loading rejects
        with pytest.raises(ConfigError):
            forest_fit(rng.normal(size=(6, 2)), ["A", "B"] * 3,
                       ForestParams(n_trees=0))

    def test_seed_reproducible(self, rng):
        X, y = _blobs(rng, n_per=30)
        a = model_to_json(forest_fit(X, y, ForestParams(n_trees=10), seed=7))
        b = model_to_json(forest_fit(X, y, ForestParams(n_trees=10), seed=7))
        c = model_to_json(forest_fit(X, y, ForestParams(n_trees=10), seed=8))
        assert a == b
        assert a != c

    def test_json_round_trip(self, rng):
        X, y = _blobs(rng, n_per=20)
        model = forest_fit(X, y, ForestParams(n_trees=5), seed=2)
        back = model_from_json(model_to_json(model))
        np.testing.assert_array_equal(back.predict(X), model.predict(X))

    def test_no_empty_node_at_adjacent_doubles(self):
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        X = np.asarray([[a, 0.0], [b, 1.0]] * 6)
        y = ["x", "y"] * 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = forest_fit(X, y, ForestParams(n_trees=10, m=1), seed=3)
            probs = model.predict_proba(X)
        assert (model.nodes.n_samples > 0).all()
        assert np.isfinite(probs).all()

    def test_trees_view_matches_forest(self, rng):
        X, y = _blobs(rng, n_per=20)
        model = forest_fit(X, y, ForestParams(n_trees=4), seed=2)
        trees = model.trees
        assert len(trees) == 4
        acc = np.zeros((len(X), 3))
        for tree in trees:
            acc += tree.predict_proba(X)
        np.testing.assert_array_equal(acc / 4, model.predict_proba(X))


class TestKnn:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_oracle(self, rng, k):
        X, y = _blobs(rng, n_per=40, spread=1.5)
        model = knn_fit(X, y, k)
        queries = rng.normal(2, 3, size=(200, 2))
        pred = model.predict(queries)
        for q, p in zip(queries, pred):
            assert p == knn_oracle(X, list(y), q, k)

    def test_distance_tie_lower_train_index(self):
        X = np.asarray([[0.0], [2.0]])  # both at distance 1 from query
        model = knn_fit(X, ["A", "B"], 1)
        pred = model.predict(np.asarray([[1.0]]))
        assert pred[0] == "A"

    def test_vote_tie_lowest_class_index(self):
        X = np.asarray([[0.0], [1.0], [10.0], [11.0]])
        model = knn_fit(X, ["B", "B", "A", "A"], 4)
        pred = model.predict(np.asarray([[5.5]]))
        assert pred[0] == "A"   # 2-2 vote, class index of "A" is lower

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            knn_fit(np.zeros((3, 1)), ["A", "A", "B"], 4)
        with pytest.raises(ConfigError):
            knn_fit(np.zeros((3, 1)), ["A", "A", "B"], 0)

    def test_input_checked_as_for_trees(self):
        # fewer labels than rows failed only at predict, more fitted
        # silently, and a 1-D matrix failed at predict
        X = np.zeros((5, 2))
        for labels in (["A"] * 3, ["A"] * 7):
            with pytest.raises(ShapeError):
                knn_fit(X, labels, 1)
        with pytest.raises(FitError):
            knn_fit(np.zeros(5), ["A"] * 5, 1)

    def test_json_round_trip(self, rng):
        X, y = _blobs(rng, n_per=10)
        model = knn_fit(X, y, 3)
        back = model_from_json(model_to_json(model))
        q = rng.normal(size=(5, 2))
        np.testing.assert_array_equal(back.predict(q), model.predict(q))


class TestGridSearch:
    def _design(self, rng, n_per=30):
        X, y = _blobs(rng, n_per=n_per)
        rows = [{"f0": float(a), "f1": float(b), "label": l}
                for (a, b), l in zip(X, y)]
        return Dataset.from_rows(rows, {"f0": "numeric", "f1": "numeric",
                                        "label": "label"})

    def test_exhaustive_table(self, rng):
        design = self._design(rng)
        grid = HyperGrid({"max_depth": [1, 3, 5],
                          "min_samples_split": [2, 10]},
                         metric="macro_f1", cv_folds=3)
        best, table = grid_search(design, grid, "tree", seed=0)
        assert len(table) == 6
        assert best["mean_score"] == max(e["mean_score"] for e in table)
        assert "model" in best and best["model"].predict is not None
        assert all(len(e["fold_scores"]) == 3 for e in table)

    def test_tie_prefers_simpler(self, rng):
        design = self._design(rng)
        # blobs are separable: depth 3 and 8 both score ~1.0
        grid = HyperGrid({"max_depth": [8, 3]}, metric="accuracy",
                         cv_folds=3)
        best, table = grid_search(design, grid, "tree", seed=0)
        scores = {e["params"]["max_depth"]: e["mean_score"] for e in table}
        if scores[3] == scores[8]:
            assert best["params"]["max_depth"] == 3

    def test_refuses_test_rows(self, rng):
        design = self._design(rng)
        design.partitions = np.asarray(
            ["train"] * (len(design) - 1) + ["test"], dtype=object)
        grid = HyperGrid({"k": [1]}, cv_folds=2)
        with pytest.raises(LeakageError):
            grid_search(design, grid, "knn")

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            HyperGrid({"k": [1]}, metric="bogus")

    def test_deterministic(self, rng):
        design = self._design(rng)
        grid = HyperGrid({"max_depth": [2, 4]}, cv_folds=3)
        _, t1 = grid_search(design, grid, "tree", seed=3)
        _, t2 = grid_search(design, grid, "tree", seed=3)
        assert [e["fold_scores"] for e in t1] == \
            [e["fold_scores"] for e in t2]


@st.composite
def tied_problems(draw):
    """Small integer-valued matrices with duplicated columns (equal Gini
    decreases across features), optionally with NaN cells and mapped onto
    adjacent doubles."""
    n = draw(st.integers(1, 60))
    base = draw(arrays(np.int64, (n, draw(st.integers(1, 4))),
                       elements=st.integers(0, 3)))
    dup = draw(st.lists(st.integers(0, base.shape[1] - 1), max_size=3))
    X = np.hstack([base, base[:, dup]]).astype(np.float64)
    if draw(st.booleans()):
        X[X == 3.0] = np.nan
    if draw(st.booleans()):
        X = 1.0 + X * np.finfo(np.float64).eps
    n_classes = draw(st.integers(1, 5))
    y = draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                      max_size=n))
    return X, [f"c{v}" for v in y]


def _queries(X):
    return np.vstack([X, X + 0.5, X - 0.5, np.nextafter(X, 9.0)])


class TestTreeOracle:
    @settings(max_examples=150, deadline=None)
    @given(tied_problems(), st.sampled_from([None, 1, 2]))
    def test_tree_matches_oracle(self, problem, max_depth):
        X, y = problem
        model = tree_fit(X, y, TreeParams(max_depth=max_depth))
        doc = tree_oracle(X, y, max_depth=max_depth)
        assert model_to_json(model) == json.dumps(flat_doc(doc),
                                                  sort_keys=True)
        Q = _queries(X)
        np.testing.assert_array_equal(model.predict_proba(Q),
                                      tree_proba_oracle(doc, Q))

    @settings(max_examples=100, deadline=None)
    @given(tied_problems(), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 4))
    def test_forest_matches_oracle(self, problem, seed, n_trees):
        X, y = problem
        model = forest_fit(X, y, ForestParams(n_trees=n_trees), seed=seed)
        doc = forest_oracle(X, y, n_trees, seed)
        assert model_to_json(model) == json.dumps(flat_doc(doc),
                                                  sort_keys=True)
        Q = _queries(X)
        np.testing.assert_array_equal(model.predict_proba(Q),
                                      tree_proba_oracle(doc, Q))


class TestLockstepGrowth:
    @settings(max_examples=120, deadline=None)
    @given(tied_problems(), st.data())
    def test_forest_matches_oracle(self, problem, data):
        # trees of one forest need different numbers of steps; +0.0 and
        # -0.0 are one value, and a cut above it keeps the node's last one
        X, y = problem
        if data.draw(st.booleans(), label="signed_zeros"):
            X = data.draw(arrays(np.float64, X.shape, elements=st.sampled_from(
                [0.0, -0.0, np.nan, np.inf, 1.0])), label="X")
        d = X.shape[1]
        kw = dict(n_trees=data.draw(st.integers(1, 8), label="n_trees"),
                  seed=data.draw(st.integers(0, 2 ** 32 - 1), label="seed"),
                  m=data.draw(st.sampled_from([1, d]), label="m"),
                  max_depth=data.draw(st.sampled_from([None, 1, 3]),
                                      label="max_depth"),
                  min_samples_split=data.draw(st.sampled_from([2, 3, 6]),
                                              label="min_samples_split"))
        model = forest_fit(X, y, ForestParams(
            n_trees=kw["n_trees"], m=kw["m"],
            tree=TreeParams(max_depth=kw["max_depth"],
                            min_samples_split=kw["min_samples_split"])),
            seed=kw["seed"])
        doc = forest_oracle(X, y, **kw)
        text = model_to_json(model)
        assert text == json.dumps(flat_doc(doc), sort_keys=True)
        assert model_to_json(model_from_json(text)) == text

    def test_blocked_search_is_byte_identical(self, rng, monkeypatch):
        X, y = _blobs(rng, n_per=40)
        X = np.hstack([X, rng.integers(0, 3, (len(X), 4)).astype(float)])
        X[rng.random(X.shape) < 0.1] = np.nan
        params = ForestParams(n_trees=6, m=3)

        def fits():
            return (model_to_json(forest_fit(X, y, params, seed=5)),
                    model_to_json(tree_fit(X, y)))

        default = fits()
        cells = []
        search = models._best_splits

        def counted(table, perm, lo, size, feats, counts, parent):
            cells.append(int(size.sum()) * feats.shape[1])
            return search(table, perm, lo, size, feats, counts, parent)

        monkeypatch.setattr(models, "_best_splits", counted)
        monkeypatch.setattr(models, "_SPLIT_BLOCK", 64)
        assert fits() == default
        # a block holds 64 // 3 cells of 3 classes: batches span blocks
        assert max(cells) > 64 // 3


def _tree_doc():
    # nodes 0 (split on feature 0), 1 and 2 (leaves)
    X = np.asarray([[1.0, 0.0], [2.0, 0.0], [10.0, 1.0], [11.0, 1.0]])
    return json.loads(model_to_json(tree_fit(X, ["A", "A", "B", "B"])))


def _forest_doc():
    """Two copies of _tree_doc's tree as a forest: roots 0 and 3."""
    doc = _tree_doc()
    nodes = doc["nodes"]
    for name in nodes:
        shift = 3 if name in ("left", "right") else 0
        nodes[name] += [v + shift if shift else v for v in nodes[name]]
    doc.update(kind="forest", m=1, seed=0, roots=[0, 3])
    return doc


def _corrupt(edit, doc=_tree_doc):
    def make():
        d = doc()
        edit(d)
        return json.dumps(d)
    return make


def _set(column, i, value, doc=_tree_doc):
    return _corrupt(lambda d: d["nodes"][column].__setitem__(i, value), doc)


# the nested layout model.json had before the Nodes columns
_NESTED = {"kind": "tree", "classes": ["A", "B"], "n_features": 2, "root": {
    "feature": 0, "threshold": 6.0, "importance": 0.5, "impurity": 0.5,
    "n": 4, "probs": [0.5, 0.5],
    "left": {"impurity": 0.0, "n": 2, "probs": [1.0, 0.0]},
    "right": {"impurity": 0.0, "n": 2, "probs": [0.0, 1.0]}}}


@functools.lru_cache(maxsize=None)
def _fitted_forest():
    X, y = _blobs(np.random.default_rng(5), n_per=15)
    return X, model_to_json(forest_fit(X, y, ForestParams(n_trees=4),
                                       seed=1))


class TestModelFromJson:
    @pytest.mark.parametrize("make", [
        lambda: "{not json",
        lambda: "[" * 100000,
        lambda: json.dumps({"kind": "svm", "classes": ["A"]}),
        _corrupt(lambda d: d.pop("classes")),
        _corrupt(lambda d: d.pop("n_features")),
        _corrupt(lambda d: d["nodes"].pop("threshold")),
        _corrupt(lambda d: d["nodes"].pop("probs")),
        _set("feature", 0, 2),
        _set("feature", 0, -2),
        _set("feature", 0, 0.5),
        # a child given as a node object, as the nested layout held it
        _set("left", 0, {"impurity": 0.0, "n": 2, "probs": [1.0, 0.0]}),
        _set("probs", 2, [1.0]),
        _corrupt(lambda d: d.update(classes=[])),
        _corrupt(lambda d: d.update(kind="forest", m=1, seed=0, roots=[])),
        lambda: json.dumps({"kind": "knn", "classes": ["A"], "k": 3,
                            "X": [[0.0]], "y": [0]}),
        lambda: json.dumps({"kind": "knn", "classes": ["A"], "k": 1,
                            "X": [[0.0]], "y": [1]}),
        lambda: json.dumps(_NESTED),
        _corrupt(lambda d: d.update(nodes=list(d["nodes"].values()))),
        _corrupt(lambda d: d["nodes"].update(depth=[0, 1, 1])),
        _corrupt(lambda d: d["nodes"]["impurity"].pop()),
        _set("feature", 0, True),
        _set("feature", 0, 2 ** 70),
        _set("right", 0, 2.0),
        _set("n_samples", 1, "2"),
        _corrupt(lambda d: d["nodes"].update(
            probs=sum(d["nodes"]["probs"], []))),
        _corrupt(lambda d: d.update(roots=[1])),
        _corrupt(lambda d: d.update(roots=[0, 1])),
        _corrupt(lambda d: d.update(roots=[0, 4, 3]), _forest_doc),
        _corrupt(lambda d: d.update(roots=[0, 0, 3]), _forest_doc),
        _corrupt(lambda d: d.update(roots=[0, 3.0]), _forest_doc),
        _corrupt(lambda d: d.update(roots=[0, 6]), _forest_doc),
        _corrupt(lambda d: d.update(seed="0"), _forest_doc),
        _set("right", 0, 0),
        _set("right", 3, 0, _forest_doc),
        _set("right", 0, 4, _forest_doc),
        _set("right", 0, 1),
        _set("left", 0, 2),
        _set("left", 1, 2),
        _set("right", 2, 0),
    ], ids=["not_json", "nested_too_deep", "unknown_kind", "no_classes",
            "no_n_features", "no_threshold", "no_probs", "feature_too_high",
            "feature_negative", "feature_not_int", "child_not_object",
            "probs_length", "empty_classes", "forest_without_trees",
            "knn_k_above_rows", "knn_class_out_of_range",
            "old_nested_layout", "nodes_not_object", "extra_field",
            "column_short", "feature_true", "int_too_large", "right_float",
            "n_samples_text", "probs_not_rows", "roots_not_from_zero",
            "tree_with_two_roots", "roots_unordered",
            "roots_repeated", "roots_not_int", "roots_past_end",
            "seed_not_int", "cycle_to_root", "right_into_earlier_tree",
            "right_outside_tree", "right_is_left", "left_not_next",
            "leaf_left_not_itself", "leaf_right_not_itself"])
    def test_malformed_is_data_error(self, make):
        with pytest.raises(DataError):
            model_from_json(make())

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["feature", "left", "right", "roots"]), st.data())
    def test_edited_forest_is_rejected_or_walks(self, column, data):
        # with one entry set or dropped, loading fails with a DataError or
        # gives a model whose every walk ends
        X, text = _fitted_forest()
        doc = json.loads(text)
        col = doc["roots"] if column == "roots" else doc["nodes"][column]
        i = data.draw(st.integers(0, len(col) - 1), label="index")
        if data.draw(st.booleans(), label="drop"):
            del col[i]
        else:
            col[i] = data.draw(st.integers(-2, len(doc["nodes"]["left"]) + 1),
                               label="value")
        try:
            model = model_from_json(json.dumps(doc))
        except DataError:
            return
        assert model.predict_proba(X).shape == (len(X), 3)

    def test_reload_writes_the_same_text(self, rng):
        # each tree of a forest is parsed after the last one's nodes,
        # also after a tree that is a single leaf
        X, y = _blobs(rng, n_per=20)
        stump = forest_fit([[0.0], [1.0]], ["A", "B"],
                           ForestParams(n_trees=6), seed=0)
        assert {len(t.nodes) for t in stump.trees} == {1, 3}
        for model in (tree_fit(X, y), stump,
                      forest_fit(X, y, ForestParams(n_trees=5), seed=4)):
            text = model_to_json(model)
            back = model_from_json(text)
            assert model_to_json(back) == text
            for f in fields(Nodes):
                a, b = getattr(model.nodes, f.name), getattr(back.nodes, f.name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert back.roots.tobytes() == model.roots.tobytes()

    def test_valid_document_loads(self):
        for doc in (_tree_doc(), _forest_doc()):
            model = model_from_json(json.dumps(doc))
            assert list(model.predict([[1.5, 0.0], [10.5, 1.0]])) == ["A", "B"]

    def test_memo_parses_once_and_returns_copies(self, rng, monkeypatch):
        X, y = _blobs(rng, n_per=20)
        text = model_to_json(forest_fit(X, y, ForestParams(n_trees=3)))
        calls = []
        parse = models._parse_model
        monkeypatch.setattr(models, "_last_model", (None, None))
        monkeypatch.setattr(models, "_parse_model",
                            lambda t: calls.append(t) or parse(t))
        first = model_from_json(text)
        expected = first.predict_proba(X)
        first.nodes.threshold[:] = 0.0
        first.classes.append("bogus")
        second = model_from_json(text)
        assert len(calls) == 1 and second is not first
        np.testing.assert_array_equal(second.predict_proba(X), expected)
        assert model_to_json(second) == text
        model_from_json(model_to_json(tree_fit(X, y)))
        model_from_json(text)
        assert len(calls) == 3
