import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowlab
from flowlab.dataset import Dataset
from flowlab.errors import (ConfigError, InvalidArgumentError, LeakageError,
                            TransformMismatchError)
from flowlab.transforms import (FittedTransform, apply_onehot, apply_scaler,
                                bin_port, bin_ports, fit_minmax, fit_onehot,
                                fit_robust, fit_standard, outlier_bounds_iqr,
                                outlier_bounds_zscore, pca_fit, pca_transform,
                                quantile, remove_outliers, smote, undersample)


def _num_ds(values, name="x", labels=None):
    rows = [{name: float(v)} for v in values]
    kinds = {name: "numeric"}
    if labels is not None:
        for r, l in zip(rows, labels):
            r["label"] = l
        kinds["label"] = "label"
    return Dataset.from_rows(rows, kinds)


def _tagged(ds, tag):
    ds = ds.copy()
    ds.partitions = np.asarray([tag] * len(ds), dtype=object)
    return ds


class TestQuantile:
    def test_interpolated_order_statistics(self):
        xs = np.asarray([1.0, 2.0, 3.0, 4.0, 100.0])
        assert quantile(xs, 0.25) == 2.0
        assert quantile(xs, 0.50) == 3.0
        assert quantile(xs, 0.75) == 4.0
        assert quantile(np.asarray([1.0, 2.0]), 0.5) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            quantile(np.asarray([]), 0.5)


class TestScalers:
    def test_standard(self):
        train = _num_ds([2, 4, 4, 4, 5, 5, 7, 9])
        f = fit_standard(train)
        out = apply_scaler(train, f)
        assert f.params["x"] == {"mu": 5.0, "sigma": 2.0}
        assert out.data["x"].mean() == pytest.approx(0.0, abs=1e-12)
        assert np.sqrt((out.data["x"] ** 2).mean()) == pytest.approx(1.0)

    def test_minmax_range_and_extrapolation(self):
        train = _num_ds([10, 20, 30])
        f = fit_minmax(train)
        out = apply_scaler(_num_ds([10, 30, 40]), f)
        np.testing.assert_allclose(out.data["x"], [0.0, 1.0, 1.5])

    def test_robust_example(self):
        train = _num_ds([1, 2, 3, 4, 100])
        f = fit_robust(train)
        p = f.params["x"]
        assert (p["q1"], p["q2"], p["q3"]) == (2.0, 3.0, 4.0)
        out = apply_scaler(_num_ds([100]), f)
        assert out.data["x"][0] == pytest.approx(48.5)

    def test_degenerate_columns(self):
        train = _num_ds([5, 5, 5])
        std = fit_standard(train)
        assert std.warnings
        assert list(apply_scaler(train, std).data["x"]) == [5, 5, 5]
        mm = fit_minmax(train)
        assert list(apply_scaler(train, mm).data["x"]) == [0, 0, 0]

    def test_fit_on_tagged_rows_raises(self):
        train = _tagged(_num_ds([1, 2, 3]), "test")
        with pytest.raises(LeakageError):
            fit_standard(train)
        mixed = _num_ds([1, 2, 3])
        mixed.partitions = np.asarray(["train", "train", "val"], dtype=object)
        with pytest.raises(LeakageError):
            fit_minmax(mixed)
        assert fit_standard(_tagged(_num_ds([1, 2, 3]), "train"))

    def test_apply_missing_column(self):
        f = fit_standard(_num_ds([1, 2, 3]))
        with pytest.raises(TransformMismatchError):
            apply_scaler(_num_ds([1], name="y"), f)

    def test_json_round_trip(self):
        f = fit_robust(_num_ds([1, 2, 3, 4, 100]))
        back = FittedTransform.from_json(json.loads(json.dumps(f.as_dict())))
        assert back.kind == "robust"
        assert back.params == f.params
        assert back.fit_partition_fingerprint == f.fit_partition_fingerprint


class TestOnehot:
    def _cat_ds(self, values):
        return Dataset.from_rows([{"proto": v} for v in values],
                                 {"proto": "categorical"})

    def test_encoding(self):
        train = self._cat_ds(["6", "17", "6"])
        f = fit_onehot(train, "proto")
        assert f.params["vocabulary"] == ["17", "6"]
        out, unseen = apply_onehot(train, f)
        assert unseen == 0
        assert list(out.data["proto=6"]) == [1.0, 0.0, 1.0]
        assert out.kinds["proto"] == "metadata"
        assert out.numeric_feature_names() == ["proto=17", "proto=6"]

    def test_unseen_category_all_zeros(self):
        f = fit_onehot(self._cat_ds(["6", "17"]), "proto")
        out, unseen = apply_onehot(self._cat_ds(["1"]), f)
        assert unseen == 1
        assert out.data["proto=6"][0] == 0.0
        assert out.data["proto=17"][0] == 0.0


class TestPortBins:
    def test_boundaries(self):
        assert bin_port(0) == "well_known"
        assert bin_port(1023) == "well_known"
        assert bin_port(1024) == "registered"
        assert bin_port(49151) == "registered"
        assert bin_port(49152) == "dynamic"
        assert bin_port(65535) == "dynamic"

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            bin_port(65536)

    def test_dataset_column(self):
        ds = Dataset.from_rows([{"dst_port": 443.0}, {"dst_port": 50000.0}],
                               {"dst_port": "numeric"})
        out = bin_ports(ds)
        assert list(out.data["dst_port_bin"]) == ["well_known", "dynamic"]
        assert out.kinds["dst_port_bin"] == "categorical"


class TestOutliers:
    def test_zscore_bounds(self):
        train = _num_ds([2, 4, 4, 4, 5, 5, 7, 9])  # mu 5, sigma 2
        f = outlier_bounds_zscore(train, t=3.0)
        assert f.params["x"] == {"lo": -1.0, "hi": 11.0}

    def test_iqr_removal(self):
        train = _num_ds([1, 2, 3, 4, 100])
        f = outlier_bounds_iqr(train, m=1.5)
        kept, removed = remove_outliers(train, f)
        assert removed == 1
        assert 100.0 not in kept.data["x"]

    def test_removal_refuses_nontrain(self):
        train = _num_ds([1, 2, 3, 4, 100])
        f = outlier_bounds_iqr(train)
        with pytest.raises(LeakageError):
            remove_outliers(_tagged(train, "val"), f)


class TestResampling:
    def _imbalanced(self, rng, n_major=40, n_minor=8):
        xs = np.concatenate([rng.normal(0, 1, n_major),
                             rng.normal(5, 1, n_minor)])
        labels = ["BIG"] * n_major + ["SMALL"] * n_minor
        return _num_ds(xs, labels=labels)

    def test_undersample_equalizes(self, rng):
        ds = self._imbalanced(rng)
        out = undersample(ds, ratio=1.0, seed=0)
        labels = list(out.labels())
        assert labels.count("BIG") == labels.count("SMALL") == 8
        assert set(out.row_ids) <= set(ds.row_ids)

    def test_undersample_ratio(self, rng):
        out = undersample(self._imbalanced(rng), ratio=2.0, seed=0)
        labels = list(out.labels())
        assert labels.count("BIG") == 16 and labels.count("SMALL") == 8

    def test_smote_counts_and_ids(self, rng):
        ds = self._imbalanced(rng)
        out = smote(ds, k=5, seed=1)
        labels = list(out.labels())
        assert labels.count("BIG") == labels.count("SMALL") == 40
        assert len(set(int(r) for r in out.row_ids)) == len(out)
        assert set(int(r) for r in ds.row_ids) <= {int(r) for r in out.row_ids}

    def test_smote_synthetic_in_convex_hull(self, rng):
        ds = self._imbalanced(rng)
        out = smote(ds, k=3, seed=2)
        small = [float(out.data["x"][i]) for i in range(len(out))
                 if out.labels()[i] == "SMALL"]
        orig = [float(ds.data["x"][i]) for i in range(len(ds))
                if ds.labels()[i] == "SMALL"]
        assert min(small) >= min(orig) - 1e-12
        assert max(small) <= max(orig) + 1e-12

    def test_smote_small_class_rejected(self, rng):
        ds = self._imbalanced(rng, n_minor=4)
        with pytest.raises(ConfigError):
            smote(ds, k=5)

    def test_smote_deterministic(self, rng):
        ds = self._imbalanced(rng)
        a = smote(ds, seed=7)
        b = smote(ds, seed=7)
        np.testing.assert_array_equal(a.data["x"], b.data["x"])


class TestPca:
    def _xy(self, rng, n=200):
        # strongly correlated pair plus noise dimension
        t = rng.normal(0, 3, n)
        rows = [{"a": float(t[i] + rng.normal(0, 0.1)),
                 "b": float(t[i] + rng.normal(0, 0.1)),
                 "c": float(rng.normal(0, 0.5))} for i in range(n)]
        return Dataset.from_rows(rows, {"a": "numeric", "b": "numeric",
                                        "c": "numeric"})

    def test_matches_numpy_eigh(self, rng):
        ds = self._xy(rng)
        f = pca_fit(ds, 3)
        X = np.column_stack([ds.data[c] for c in ("a", "b", "c")])
        Xc = X - X.mean(axis=0)
        ref = np.sort(np.linalg.eigvalsh(Xc.T @ Xc / len(X)))[::-1]
        np.testing.assert_allclose(f.params["all_eigenvalues"], ref,
                                   rtol=1e-9, atol=1e-12)

    def test_basis_orthonormal(self, rng):
        f = pca_fit(self._xy(rng), 3)
        B = np.asarray(f.params["basis"])
        np.testing.assert_allclose(B.T @ B, np.eye(3), atol=1e-9)

    def test_explained_variance_and_projection(self, rng):
        ds = self._xy(rng)
        f = pca_fit(ds, 2)
        evf = f.params["explained_variance_fraction"]
        assert evf[0] > 0.9 and evf[0] >= evf[1]
        out = pca_transform(ds, f)
        assert out.numeric_feature_names() == ["pc_0", "pc_1"]
        assert out.kinds["a"] == "metadata"
        # projection variance equals the eigenvalue
        assert np.var(out.data["pc_0"]) == pytest.approx(
            f.params["eigenvalues"][0])

    def test_full_rank_reconstruction(self, rng):
        ds = self._xy(rng, n=80)
        f = pca_fit(ds, 3)
        X = np.column_stack([ds.data[c] for c in ("a", "b", "c")])
        B = np.asarray(f.params["basis"])
        mean = np.asarray(f.params["mean"])
        Z = (X - mean) @ B
        np.testing.assert_allclose(Z @ B.T + mean, X, atol=1e-8)

    def test_sign_deterministic(self, rng):
        ds = self._xy(rng)
        f = pca_fit(ds, 1)
        col = np.asarray(f.params["basis"])[:, 0]
        assert col[int(np.argmax(np.abs(col)))] > 0

    def test_too_many_components(self, rng):
        with pytest.raises(ConfigError):
            pca_fit(self._xy(rng), 4)

    def test_fit_guard(self, rng):
        with pytest.raises(LeakageError):
            pca_fit(_tagged(self._xy(rng), "test"), 2)

    def test_bits_do_not_depend_on_blas_threads(self):
        # a BLAS Gram of a matrix this size sums in an order that depends
        # on OpenBLAS's thread count; each child fits and applies a PCA
        code = """if True:
            import hashlib
            import json
            import numpy as np
            from flowlab.dataset import Dataset
            from flowlab.transforms import pca_fit, pca_transform
            rng = np.random.default_rng(0)
            X = rng.lognormal(size=(1000, 115)) * rng.integers(1, 1000, 115)
            names = [f"c{j}" for j in range(115)]
            ds = Dataset(names=names, kinds=dict.fromkeys(names, "numeric"),
                         data=dict(zip(names, X.T.copy())),
                         row_ids=np.arange(1000))
            fit = pca_fit(ds, 6)
            out = pca_transform(ds, fit)
            h = hashlib.sha256(json.dumps(fit.as_dict()).encode())
            for name in out.numeric_feature_names():
                h.update(out.data[name].tobytes())
            print(h.hexdigest())
        """
        src = str(Path(flowlab.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]
