import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowlab.errors import ConfigError
from flowlab.evaluation import METRICS
from flowlab.explain import (correlation_groups, gini_importance,
                             partial_dependence, permutation_importance,
                             write_pdp_csv)
from flowlab.models import (ForestParams, forest_fit, knn_fit, model_to_json,
                            tree_fit)
from oracles import permutation_importance_oracle, tree_proba_oracle


def _data(rng, n=200):
    """Feature 0 drives the label; feature 1 is pure noise."""
    x0 = rng.normal(0, 1, n)
    x1 = rng.normal(0, 1, n)
    y = np.asarray(["HI" if v > 0 else "LO" for v in x0], dtype=object)
    return np.column_stack([x0, x1]), y


class TestGini:
    def test_unused_feature_zero(self, rng):
        X, y = _data(rng)
        model = tree_fit(X, y)
        table = gini_importance(model, ["signal", "noise"])
        vals = {r.feature: r.importance for r in table.rows}
        assert vals["signal"] > 0.95
        assert sum(vals.values()) == pytest.approx(1.0)

    def test_forest_mean_normalized(self, rng):
        X, y = _data(rng)
        model = forest_fit(X, y, ForestParams(n_trees=15), seed=0)
        table = gini_importance(model, ["signal", "noise"])
        vals = {r.feature: r.importance for r in table.rows}
        assert vals["signal"] > vals["noise"]
        assert sum(vals.values()) == pytest.approx(1.0)

    def test_knn_rejected(self, rng):
        X, y = _data(rng)
        with pytest.raises(ConfigError):
            gini_importance(knn_fit(X, y, 3), ["a", "b"])

    def test_ranking_and_csv(self, rng, tmp_path):
        X, y = _data(rng)
        table = gini_importance(tree_fit(X, y), ["signal", "noise"])
        ranked = table.ranked()
        assert ranked[0].feature == "signal" and ranked[0].rank == 1
        path = tmp_path / "imp.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,feature,importance,std,method,repeats"
        assert lines[1].startswith("1,signal,")


class TestCorrelationGroups:
    def test_duplicated_column_grouped(self, rng):
        a = rng.normal(0, 1, 300)
        b = rng.normal(0, 1, 300)
        X = np.column_stack([a, a + rng.normal(0, 0.01, 300), b])
        groups = correlation_groups(X, threshold=0.9)
        assert (0, 1) in groups and (2,) in groups

    def test_anticorrelation_counts(self, rng):
        a = rng.normal(0, 1, 300)
        X = np.column_stack([a, -a])
        assert correlation_groups(X, threshold=0.9) == [(0, 1)]

    def test_independent_stay_single(self, rng):
        X = rng.normal(0, 1, (300, 4))
        assert correlation_groups(X, threshold=0.9) == \
            [(0,), (1,), (2,), (3,)]

    def test_constant_column_isolated(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(0, 1, 50)])
        assert correlation_groups(X, threshold=0.9) == [(0,), (1,)]


@st.composite
def shuffle_problems(draw):
    """A tree or forest of unbounded depth fit on a small matrix of tied
    cells (duplicated columns, optionally NaN) plus one all-zero column;
    the matrix to explain gives that column distinct values, so shuffling
    it moves cells no tree splits on. The labels to score may hold one the
    model never saw, in place of one row's label or of a whole class.
    Returns (model, X, y, seed)."""
    n = draw(st.integers(2, 40))
    base = draw(arrays(np.float64, (n, draw(st.integers(1, 3))),
                       elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    if draw(st.booleans()):
        base[base == 3.0] = np.nan
    dup = draw(st.lists(st.integers(0, base.shape[1] - 1), max_size=2))
    X = np.hstack([base, base[:, dup], np.zeros((n, 1))])
    y = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n,
                      max_size=n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_trees = draw(st.sampled_from([0, 1, 4, 8]))
    model = (tree_fit(X, y) if n_trees == 0 else
             forest_fit(X, y, ForestParams(n_trees=n_trees), seed=seed))
    X[:, -1] = np.arange(n)
    relabel = draw(st.sampled_from(["none", "row", "class"]))
    if relabel == "row":
        y[draw(st.integers(0, n - 1))] = "unseen"
    elif relabel == "class":      # a class the model knows may go unused
        gone = draw(st.sampled_from(sorted(set(y))))
        y = ["unseen" if v == gone else v for v in y]
    return model, X, y, seed


class TestPermutation:
    def test_signal_beats_noise(self, rng):
        X, y = _data(rng)
        model = tree_fit(X, y)
        table = permutation_importance(model, X, y, repeats=10, seed=1,
                                       feature_names=["signal", "noise"])
        vals = {r.feature: r.importance for r in table.rows}
        assert vals["signal"] > 0.3
        assert abs(vals["noise"]) < 0.05

    @pytest.mark.parametrize("repeats", [0, -1, 1.5])
    def test_repeats_must_be_a_positive_integer(self, rng, repeats):
        X, y = _data(rng, n=20)
        with pytest.raises(ConfigError, match="repeats"):
            permutation_importance(tree_fit(X, y), X, y, repeats=repeats)

    def test_grouped_exceeds_individual(self, rng):
        # two near-duplicates of the signal: shuffling one alone lets the
        # model fall back on the other, hiding their joint contribution
        x0 = rng.normal(0, 1, 400)
        X = np.column_stack([x0, x0 + rng.normal(0, 0.01, 400),
                             rng.normal(0, 1, 400)])
        y = np.asarray(["HI" if v > 0 else "LO" for v in x0], dtype=object)
        # m=1 forces splits to spread across the duplicates so the model
        # genuinely relies on both
        model = forest_fit(X, y, ForestParams(n_trees=30, m=1), seed=3)
        solo = permutation_importance(model, X, y, repeats=10, seed=0)
        solo_vals = {r.feature: r.importance for r in solo.rows}
        grouped = permutation_importance(model, X, y, repeats=10, seed=0,
                                         group_threshold=0.9)
        grp_vals = {r.feature: r.importance for r in grouped.rows}
        assert "f0+f1" in grp_vals
        assert grp_vals["f0+f1"] > max(solo_vals["f0"], solo_vals["f1"]) + 0.1

    def test_deterministic(self, rng):
        X, y = _data(rng)
        model = tree_fit(X, y)
        a = permutation_importance(model, X, y, repeats=5, seed=9)
        b = permutation_importance(model, X, y, repeats=5, seed=9)
        assert [r.importance for r in a.rows] == \
            [r.importance for r in b.rows]

    def test_unknown_metric(self, rng):
        X, y = _data(rng)
        with pytest.raises(ConfigError):
            permutation_importance(tree_fit(X, y), X, y, metric="bogus")

    @settings(max_examples=80, deadline=None)
    @given(shuffle_problems(), st.sampled_from(["accuracy", "macro_f1"]),
           st.sampled_from([None, 0.5]), st.integers(1, 3))
    def test_matches_full_predict_oracle(self, problem, metric,
                                         group_threshold, repeats):
        model, X, y, seed = problem
        table = permutation_importance(model, X, y, metric=metric,
                                       repeats=repeats, seed=seed,
                                       group_threshold=group_threshold)
        groups = ([(i,) for i in range(X.shape[1])]
                  if group_threshold is None
                  else correlation_groups(X, group_threshold))
        expected = permutation_importance_oracle(
            json.loads(model_to_json(model)), X, y, metric, repeats, groups,
            seed)
        assert [(repr(r.importance), repr(r.std)) for r in table.rows] == \
            [(repr(i), repr(s)) for i, s in expected]
        # the last column varies but no tree splits on it
        unused = f"f{X.shape[1] - 1}"
        for r in table.rows:
            if r.members == (unused,):
                assert (repr(r.importance), repr(r.std)) == ("0.0", "0.0")

    def test_knn_matches_label_scoring(self, rng):
        # k-NN predicts every shuffled matrix in full; score it by labels
        X, y = _data(rng, n=60)
        model = knn_fit(X, y, 3)
        table = permutation_importance(model, X, y, repeats=3, seed=2,
                                       metric="macro_f1")
        score = METRICS["macro_f1"]
        baseline = score(y, model.predict(X))
        draws = np.random.default_rng(2)
        for col, row in enumerate(table.rows):
            drops = []
            for _ in range(3):
                Xp = X.copy()
                Xp[:, col] = X[draws.permutation(len(X)), col]
                drops.append(baseline - score(y, model.predict(Xp)))
            assert (row.importance, row.std) == \
                (float(np.mean(drops)), float(np.std(drops)))
        assert table.rows[0].importance > table.rows[1].importance


class TestPartialDependence:
    def test_flat_for_unused_feature(self, rng):
        X, y = _data(rng)
        model = tree_fit(X, y)
        grid, curves = partial_dependence(model, X, feature=1)
        assert curves.shape == (len(grid), 2)
        assert np.ptp(curves[:, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_signal(self, rng):
        X, y = _data(rng)
        X[::9, 1] = np.nan      # NaN cells on paths through the noise
        for model in (tree_fit(X, y),
                      forest_fit(X, y, ForestParams(n_trees=7), seed=4)):
            grid, curves = partial_dependence(model, X, feature=0)
            hi = model.classes.index("HI")
            assert curves[0, hi] < 0.2 and curves[-1, hi] > 0.8
            doc = json.loads(model_to_json(model))
            for v, curve in zip(grid, curves):
                Xv = X.copy()
                Xv[:, 0] = v
                assert curve.tobytes() == \
                    tree_proba_oracle(doc, Xv).mean(axis=0).tobytes()

    def test_explicit_grid(self, rng):
        X, y = _data(rng)
        model = tree_fit(X, y)
        grid, curves = partial_dependence(model, X, 0, grid=[-2.0, 0.0, 2.0])
        assert list(grid) == [-2.0, 0.0, 2.0]
        np.testing.assert_allclose(curves.sum(axis=1), 1.0)

    def test_empty_grid(self, rng):
        X, y = _data(rng, n=30)
        for model in (tree_fit(X, y), knn_fit(X, y, 3)):
            grid, curves = partial_dependence(model, X, 0, grid=[])
            assert grid.shape == curves.shape == (0,)

    def test_bad_feature_index(self, rng):
        X, y = _data(rng)
        with pytest.raises(ConfigError):
            partial_dependence(tree_fit(X, y), X, feature=5)

    def test_csv(self, rng, tmp_path):
        X, y = _data(rng)
        model = tree_fit(X, y)
        grid, curves = partial_dependence(model, X, 0, grid=[0.0, 1.0])
        path = tmp_path / "pdp.csv"
        write_pdp_csv(grid, curves, model.classes, "signal", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "signal,p(HI),p(LO)"
        assert len(lines) == 3
