"""Acceptance gate: one numbered criterion per test, one printed verdict per
criterion. Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from flowlab import cli, transforms
from flowlab.dataset import Dataset
from flowlab.errors import LeakageError
from flowlab.evaluation import (ConfusionMatrix, accuracy, aggregate,
                                binary_metrics, roc_auc)
from flowlab.explain import (partial_dependence, permutation_importance)
from flowlab.meter import MeterConfig, meter_stream, records_to_rows
from flowlab.models import (ForestParams, HyperGrid, TreeParams, forest_fit,
                            grid_search, knn_fit, tree_fit)
from flowlab.pcap import make_packet, write_capture
from flowlab.stats import Moments
from conftest import synth_capture
from oracles import (brute_force_flows, knn_oracle, mann_whitney_auc,
                     meter_records_summary, two_pass_moments)


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {title}")
        raise
    print(f"criterion {num:02d}: PASS  {title}")


def test_01_metering_oracle_equivalence():
    with criterion(1, "meter matches brute-force reference on 50 captures"):
        start = time.monotonic()
        cfg = MeterConfig(idle_timeout=30.0, active_timeout=300.0,
                          honor_fin_rst=False)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pkts = synth_capture(rng, n_flows=int(rng.integers(20, 150)),
                                 idle_gap_prob=0.4, long_lived_prob=0.2,
                                 max_pkts=60)
            assert len(pkts) <= 10_000
            recs = meter_stream(pkts, cfg)
            got = meter_records_summary(recs, records_to_rows(recs, cfg))
            want = brute_force_flows(pkts, 30.0, 300.0)
            assert got == want, f"capture seed {seed}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_02_packet_conservation():
    with criterion(2, "exported packet counts conserve decoded packets"):
        cfg = MeterConfig(honor_fin_rst=False)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            pkts = synth_capture(rng, n_flows=int(rng.integers(10, 120)),
                                 idle_gap_prob=0.5)
            table = records_to_rows(meter_stream(pkts, cfg), cfg).data
            assert sum(table["total_packet_count"]) == len(pkts)
            assert sum(table["total_byte_count"]) \
                == sum(p.ip_len for p in pkts)


def test_03_idle_timeout_splitting_scenario():
    with criterion(3, "0,1,2,42s packets with 30s idle split into 2 segments"):
        pkts = [make_packet(int(t * 1e9), "10.0.0.1", "10.0.0.2",
                            5000, 80, 6, payload_len=100)
                for t in (0.0, 1.0, 2.0, 42.0)]
        recs = meter_stream(pkts, MeterConfig(idle_timeout=30.0,
                                              honor_fin_rst=False))
        assert len(recs) == 2
        assert [r.segment_index for r in recs] == [0, 1]
        assert [r.export_reason for r in recs] == ["idle", "end_of_input"]
        assert list(records_to_rows(recs).data["total_packet_count"]) \
            == [3, 1]


def test_04_streaming_moments_vs_two_pass():
    with criterion(4, "streaming moments within 1e-9 of two-pass reference"):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 1001))
            xs = rng.exponential(rng.uniform(0.5, 50.0), n) \
                + rng.uniform(-100, 100)
            m = Moments()
            for x in xs:
                m.push(float(x))
            ref = two_pass_moments(xs)
            got = (m.mean, m.variance, m.skewness, m.kurtosis)
            for a, b, defined in zip(
                    got, ref, (True, m.variance_defined,
                               m.shape_defined, m.shape_defined)):
                if not defined:
                    continue
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                worst = max(worst, rel)
        assert worst < 1e-9, worst


def test_05_metric_identities():
    with criterion(5, "micro-F1=accuracy, 0.990 majority, F2, AUC=U-stat"):
        rng = np.random.default_rng(11)
        for _ in range(20):
            actual = [str(c) for c in rng.integers(0, 5, 200)]
            predicted = [str(c) for c in rng.integers(0, 5, 200)]
            cm = ConfusionMatrix.from_labels(actual, predicted)
            assert aggregate(cm, "fbeta", "micro") == accuracy(cm)
        cm = ConfusionMatrix.from_labels(["neg"] * 990 + ["pos"] * 10,
                                         ["neg"] * 1000)
        assert accuracy(cm) == 0.990
        cm = ConfusionMatrix.from_labels(["P", "P", "N"], ["P", "N", "N"])
        m = binary_metrics(cm, "P", beta=2.0)
        assert m["precision"] == 1.0 and m["recall"] == 0.5
        assert abs(m["fbeta"] - 0.5556) <= 1e-4
        scores = np.round(rng.random(10_000), 2)   # heavy ties
        labels = rng.integers(0, 2, 10_000)
        _, auc = roc_auc(scores, labels)
        assert abs(auc - mann_whitney_auc(scores, labels)) < 1e-9


def test_06_split_properties():
    from flowlab.partition import SplitSpec, kfold, split

    with criterion(6, "split invariants hold on 1000 randomized datasets"):
        start = time.monotonic()
        rng = np.random.default_rng(23)
        for trial in range(1000):
            n_classes = int(rng.integers(2, 5))
            counts = rng.integers(4, 20, n_classes)
            labels = [f"C{c}" for c in range(n_classes)
                      for _ in range(counts[c])]
            n = len(labels)
            # first rows pin down >= 3 distinct groups for the disjoint split
            rows = [{"x": float(rng.random()),
                     "t": float(rng.random() * 1e4),
                     "g": f"g{i % 4 if i < 4 else rng.integers(4)}",
                     "label": labels[i]} for i in range(n)]
            ds = Dataset.from_rows(rows, {"x": "numeric", "t": "numeric",
                                          "g": "metadata", "label": "label"})
            seed = trial
            specs = [SplitSpec("random_stratified", seed=seed),
                     SplitSpec("temporal", time_key="t", seed=seed),
                     SplitSpec("disjoint", group_key="g", seed=seed),
                     SplitSpec("ood", held_out_classes=("C0",), seed=seed)]
            for spec in specs:
                a = split(ds, spec)
                # disjoint + exhaustive
                ids = a.ids("train") + a.ids("val") + a.ids("test")
                assert sorted(ids) == sorted(int(r) for r in ds.row_ids)
                assert len(ids) == len(set(ids))
                if spec.strategy == "temporal":
                    t = {tag: [rows[i]["t"] for i in range(n)
                               if a.tags[i] == tag]
                         for tag in ("train", "val", "test")}
                    assert max(t["train"]) <= min(t["val"] + t["test"])
                    assert max(t["train"] + t["val"]) <= min(t["test"])
                if spec.strategy == "disjoint":
                    seen = {}
                    for i in range(n):
                        g = rows[i]["g"]
                        assert seen.setdefault(g, a.tags[i]) == a.tags[i]
                if spec.strategy == "ood":
                    for tag in ("train", "val"):
                        assert a.manifest["class_distribution"][tag].get(
                            "C0", 0) == 0
            if trial % 10 == 0:
                folds = kfold(ds, 3, seed=seed)
                seen = np.concatenate([v for _, v in folds])
                assert sorted(seen) == list(range(n))
        elapsed = time.monotonic() - start
        assert elapsed < 20.0, f"{elapsed:.1f}s"


def test_07_leakage_guards():
    with criterion(7, "fits and grid search refuse test-tainted row sets"):
        rng = np.random.default_rng(31)
        rows = [{"x": float(v), "label": "A" if v > 0 else "B"}
                for v in rng.normal(0, 1, 60)]
        ds = Dataset.from_rows(rows, {"x": "numeric", "label": "label"})
        ds.partitions = np.asarray(["train"] * 50 + ["test"] * 10,
                                   dtype=object)
        for fit in (transforms.fit_standard, transforms.fit_minmax,
                    transforms.fit_robust,
                    lambda d: transforms.fit_onehot(d, "label"),
                    lambda d: transforms.pca_fit(d, 1),
                    transforms.outlier_bounds_zscore,
                    transforms.outlier_bounds_iqr,
                    lambda d: transforms.undersample(d),
                    lambda d: transforms.smote(d, k=3)):
            with pytest.raises(LeakageError):
                fit(ds)
        with pytest.raises(LeakageError):
            grid_search(ds, HyperGrid({"k": [1]}, cv_folds=2), "knn")
        # the clean train-only subset passes the same guards
        assert transforms.fit_standard(ds.partition_subset("train"))


def test_08_scaler_contracts():
    with criterion(8, "scaler train statistics and robust worked example"):
        rng = np.random.default_rng(41)
        rows = [{"x": float(v)} for v in rng.lognormal(1, 1, 500)]
        train = Dataset.from_rows(rows, {"x": "numeric"})
        std = transforms.apply_scaler(train, transforms.fit_standard(train))
        assert abs(std.data["x"].mean()) < 1e-9
        assert abs(np.sqrt((std.data["x"] ** 2).mean()) - 1.0) < 1e-9
        mm = transforms.apply_scaler(train, transforms.fit_minmax(train))
        assert abs(mm.data["x"].min()) < 1e-9
        assert abs(mm.data["x"].max() - 1.0) < 1e-9
        rb = transforms.apply_scaler(train, transforms.fit_robust(train))
        assert abs(transforms.quantile(rb.data["x"], 0.5)) < 1e-9
        example = Dataset.from_rows([{"x": float(v)}
                                     for v in (1, 2, 3, 4, 100)],
                                    {"x": "numeric"})
        fitted = transforms.fit_robust(example)
        out = transforms.apply_scaler(example, fitted)
        assert out.data["x"][-1] == 48.5


def test_09_smote_convexity_and_balance():
    with criterion(9, "SMOTE rows are convex combinations; classes equal"):
        rng = np.random.default_rng(53)
        n_major, n_minor = 60, 12
        rows = []
        for i in range(n_major + n_minor):
            rows.append({"a": float(rng.normal(0 if i < n_major else 6, 1)),
                         "b": float(rng.normal(0 if i < n_major else 6, 1)),
                         "label": "BIG" if i < n_major else "SMALL"})
        ds = Dataset.from_rows(rows, {"a": "numeric", "b": "numeric",
                                      "label": "label"})
        out = transforms.smote(ds, k=5, seed=3)
        labels = list(out.labels())
        assert labels.count("BIG") == labels.count("SMALL") == n_major
        minority = np.column_stack(
            [ds.data["a"][n_major:], ds.data["b"][n_major:]])
        synth = np.column_stack([out.data["a"][len(ds):],
                                 out.data["b"][len(ds):]])
        for s in synth:
            best = np.inf
            for i in range(len(minority)):
                for j in range(len(minority)):
                    if i == j:
                        continue
                    d = minority[j] - minority[i]
                    denom = float(d @ d)
                    if denom == 0.0:
                        continue
                    lam = float((s - minority[i]) @ d) / denom
                    if not (0.0 <= lam <= 1.0):
                        continue
                    best = min(best, float(np.linalg.norm(
                        s - minority[i] - lam * d)))
            assert best < 1e-10, best


def test_10_pca_contracts():
    with criterion(10, "PCA orthonormal, ordered, exact on a line, invertible"):
        rng = np.random.default_rng(61)
        rows = [{"a": float(rng.normal()), "b": float(rng.normal()),
                 "c": float(rng.normal()), "d": float(rng.normal())}
                for _ in range(300)]
        ds = Dataset.from_rows(rows, {k: "numeric" for k in "abcd"})
        f = transforms.pca_fit(ds, 4)
        B = np.asarray(f.params["basis"])
        assert np.abs(B.T @ B - np.eye(4)).max() < 1e-9
        ev = f.params["all_eigenvalues"]
        assert all(ev[i] >= ev[i + 1] - 1e-9 for i in range(3))
        X = np.column_stack([ds.data[c] for c in "abcd"])
        mean = np.asarray(f.params["mean"])
        Z = (X - mean) @ B
        assert np.abs(Z @ B.T + mean - X).max() < 1e-9
        # y = x line: one component carries all the variance
        t = rng.normal(0, 2, 200)
        line = Dataset.from_rows([{"x": float(v), "y": float(v)} for v in t],
                                 {"x": "numeric", "y": "numeric"})
        lf = transforms.pca_fit(line, 1)
        assert lf.params["explained_variance_fraction"][0] >= 1 - 1e-9


def test_11_model_sanity():
    with criterion(11, "kNN oracle-exact, tree memorizes, forest >= 0.95"):
        start = time.monotonic()
        rng = np.random.default_rng(71)
        X = rng.normal(0, 2, (200, 3))
        y = [f"C{int(v) % 3}" for v in rng.integers(0, 3, 200)]
        for k in (1, 5):
            model = knn_fit(X, y, k)
            queries = rng.normal(0, 2, (200, 3))
            pred = model.predict(queries)
            for q, p in zip(queries, pred):
                assert p == knn_oracle(X, y, q, k)
        # conflict-free data (all rows distinct): tree memorizes
        Xt = rng.normal(0, 1, (300, 2))
        yt = [str(c) for c in rng.integers(0, 3, 300)]
        tree = tree_fit(Xt, yt)
        assert (tree.predict(Xt) == np.asarray(yt, dtype=object)).all()
        # 3-class Gaussian blobs, n=3000 train
        centers = np.asarray([[0, 0], [5, 5], [0, 7]])
        def blobs(r, n_per):
            Xs = np.vstack([r.normal(c, 0.9, (n_per, 2)) for c in centers])
            ys = np.asarray([f"B{i}" for i in range(3)
                             for _ in range(n_per)], dtype=object)
            return Xs, ys
        Xtr, ytr = blobs(np.random.default_rng(72), 1000)
        Xte, yte = blobs(np.random.default_rng(73), 200)
        forest = forest_fit(Xtr, ytr,
                            ForestParams(n_trees=30,
                                         tree=TreeParams(max_depth=10)),
                            seed=7)
        assert (forest.predict(Xte) == yte).mean() >= 0.95
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_12_explainability_properties():
    with criterion(12, "unused feature 0, grouped > individual, flat PDP"):
        rng = np.random.default_rng(83)
        x0 = rng.normal(0, 1, 400)
        noise = rng.normal(0, 1, 400)
        y = np.asarray(["HI" if v > 0 else "LO" for v in x0], dtype=object)
        X = np.column_stack([x0, noise])
        model = tree_fit(X, y)
        table = permutation_importance(model, X, y, repeats=10, seed=0)
        vals = {r.feature: r.importance for r in table.rows}
        assert vals["f1"] == 0.0        # feature untouched by the tree
        grid, curves = partial_dependence(model, X, feature=1)
        assert np.ptp(curves, axis=0).max() < 1e-12
        # near-duplicate signal columns hide each other unless grouped
        Xd = np.column_stack([x0, x0 + rng.normal(0, 0.01, 400), noise])
        dup_model = forest_fit(Xd, y, ForestParams(n_trees=30, m=1), seed=3)
        solo = permutation_importance(dup_model, Xd, y, repeats=10, seed=0)
        solo_vals = {r.feature: r.importance for r in solo.rows}
        grouped = permutation_importance(dup_model, Xd, y, repeats=10,
                                         seed=0, group_threshold=0.9)
        grp_vals = {r.feature: r.importance for r in grouped.rows}
        assert grp_vals["f0+f1"] > max(solo_vals["f0"], solo_vals["f1"])


def test_13_end_to_end_determinism(tmp_path):
    with criterion(13, "pipeline rerun is byte-identical"):
        start = time.monotonic()
        pkts = synth_capture(np.random.default_rng(2026), n_flows=60,
                             idle_gap_prob=0.2, max_pkts=15)
        capture = tmp_path / "synthetic.pcap"
        write_capture(capture, pkts)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "capture": str(capture),
            "out_dir": str(tmp_path / "runs"),
            "model": {"kind": "forest",
                      "params": {"n_trees": 5, "max_depth": 8}},
            "explain": {"repeats": 2},
        }))
        assert cli.run(["pipeline", "--config", str(config)]) == 0
        cfg, h = cli.load_config(config, [])
        run_dir = cli.run_dir_for(cfg, h)
        names = ("dataset.csv", "assignment.csv", "transformed.csv",
                 "model.json", "report.csv", "report.txt",
                 "importance.csv", "confusion.csv")
        first = {n: (run_dir / n).read_bytes() for n in names}
        assert cli.run(["pipeline", "--config", str(config)]) == 0
        for n in names:
            assert (run_dir / n).read_bytes() == first[n], n
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"{elapsed:.1f}s"
