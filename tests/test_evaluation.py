import numpy as np
import pytest

from flowlab.errors import ShapeError, UndefinedMetricError
from flowlab.evaluation import (METRICS, ConfusionMatrix, accuracy, aggregate,
                                binary_metrics, code_scorer, render_text,
                                report, roc_auc, write_report_csv,
                                write_roc_csv)
from oracles import mann_whitney_auc


def _cm(actual, predicted):
    return ConfusionMatrix.from_labels(actual, predicted)


class TestConfusionMatrix:
    def test_counts_actual_by_predicted(self):
        cm = _cm(["A", "A", "B"], ["A", "B", "B"])
        assert cm.classes == ["A", "B"]
        assert cm.counts.tolist() == [[1, 1], [0, 1]]
        assert cm.total == 3
        assert cm.support("A") == 2

    def test_class_union(self):
        cm = _cm(["A", "A"], ["B", "A"])
        assert cm.classes == ["A", "B"]
        assert cm.counts[1].sum() == 0  # B never actually occurs

    def test_one_vs_rest(self):
        cm = _cm(["A", "A", "B", "C"], ["A", "B", "B", "B"])
        tp, fp, fn, tn = cm.one_vs_rest("B")
        assert (tp, fp, fn, tn) == (1, 2, 0, 1)
        assert sum(cm.one_vs_rest("A")) == cm.total

    def test_validation(self):
        with pytest.raises(ShapeError):
            ConfusionMatrix.from_labels(["A"], [])
        with pytest.raises(ShapeError):
            ConfusionMatrix.from_labels([], [])

    def test_from_codes_drops_unused_classes(self):
        # "B" is neither an actual nor a predicted label
        cm = ConfusionMatrix.from_codes(np.asarray([0, 2, 2]),
                                        np.asarray([2, 2, 0]),
                                        ["A", "B", "C"])
        assert cm.classes == ["A", "C"]
        assert cm.counts.tolist() == [[0, 1], [1, 1]]
        assert cm.one_vs_rest("C") == (1, 1, 1, 0)

    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_code_scorer_equals_labels(self, metric):
        # the model knows "D", which neither list holds; "Z" is unknown to it
        classes = ["A", "B", "C", "D"]
        actual = ["A", "B", "Z", "C", "A", "Z"]
        predicted = np.asarray([0, 1, 1, 2, 2, 0])
        score = code_scorer(metric, classes, actual)
        assert repr(score(predicted)) == repr(METRICS[metric](
            actual, [classes[i] for i in predicted]))


class TestBinaryMetrics:
    def test_accuracy_hides_minority(self):
        # 99% majority: predicting the majority class scores 0.99 accuracy
        # while completely missing the class of interest
        actual = ["neg"] * 99 + ["pos"]
        predicted = ["neg"] * 100
        cm = _cm(actual, predicted)
        assert accuracy(cm) == pytest.approx(0.99)
        m = binary_metrics(cm, "pos")
        assert m["recall"] == 0.0
        assert m["precision"] == 0.0  # 0/0 convention
        assert m["support"] == 1

    def test_f2_weights_recall(self):
        # precision 1.0, recall 0.5
        cm = _cm(["P", "P", "N"], ["P", "N", "N"])
        m1 = binary_metrics(cm, "P", beta=1.0)
        m2 = binary_metrics(cm, "P", beta=2.0)
        assert m1["fbeta"] == pytest.approx(2 / 3)
        assert m2["fbeta"] == pytest.approx(0.5556, abs=1e-4)
        assert m2["fbeta"] < m1["fbeta"]

    def test_fpr(self):
        cm = _cm(["P", "N", "N", "N"], ["P", "P", "N", "N"])
        assert binary_metrics(cm, "P")["fpr"] == pytest.approx(1 / 3)


class TestAggregation:
    def _three_class(self):
        # counts[actual][pred] = [[5,0,0],[0,0,5],[0,0,5]]
        actual = ["A"] * 5 + ["B"] * 5 + ["C"] * 5
        predicted = ["A"] * 5 + ["C"] * 5 + ["C"] * 5
        return _cm(actual, predicted)

    def test_macro_f1_hand_computed(self):
        cm = self._three_class()
        # per-class F1: A=1, B=0 (by convention), C=2/3
        assert aggregate(cm, "fbeta", "macro") == pytest.approx(5 / 9)

    def test_weighted_equals_macro_when_balanced(self):
        cm = self._three_class()
        assert aggregate(cm, "fbeta", "weighted") == \
            pytest.approx(aggregate(cm, "fbeta", "macro"))

    def test_micro_f1_equals_accuracy(self, rng):
        for _ in range(10):
            actual = [str(c) for c in rng.integers(0, 4, 60)]
            predicted = [str(c) for c in rng.integers(0, 4, 60)]
            cm = _cm(actual, predicted)
            assert aggregate(cm, "fbeta", "micro") == \
                pytest.approx(accuracy(cm))

    def test_unknown_mode(self):
        with pytest.raises(UndefinedMetricError):
            aggregate(self._three_class(), "fbeta", "median")

    def test_registry(self):
        actual = ["A", "A", "B", "B"]
        predicted = ["A", "B", "B", "B"]
        assert METRICS["accuracy"](actual, predicted) == 0.75
        assert METRICS["micro_f1"](actual, predicted) == pytest.approx(0.75)
        assert set(METRICS) >= {"accuracy", "macro_f1", "weighted_f1",
                                "micro_f1", "macro_precision",
                                "macro_recall"}


class TestRoc:
    def test_perfect_separation(self):
        points, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0
        assert points[0] == (float("inf"), 0.0, 0.0)
        assert points[-1][1:] == (1.0, 1.0)

    def test_random_scores_near_half(self, rng):
        scores = rng.random(2000)
        labels = rng.integers(0, 2, 2000)
        _, auc = roc_auc(scores, labels)
        assert abs(auc - 0.5) < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_mann_whitney_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        # coarse quantization forces heavy score ties
        scores = np.round(rng.random(300), 1)
        labels = rng.integers(0, 2, 300)
        _, auc = roc_auc(scores, labels)
        assert auc == pytest.approx(mann_whitney_auc(scores, labels),
                                    abs=1e-12)

    def test_tied_scores_single_point(self):
        points, _ = roc_auc([0.5, 0.5, 0.5, 0.1], [1, 0, 1, 0])
        thresholds = [p[0] for p in points]
        assert thresholds == [float("inf"), 0.5, 0.1]

    def test_monotone_transform_invariant(self, rng):
        scores = rng.random(100)
        labels = rng.integers(0, 2, 100)
        _, a = roc_auc(scores, labels)
        _, b = roc_auc(np.exp(5 * scores), labels)
        assert a == pytest.approx(b, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.5, 0.6], [1, 1])


class TestReport:
    def _rep(self):
        actual = ["A"] * 5 + ["B"] * 5 + ["C"] * 5
        predicted = ["A"] * 5 + ["C"] * 4 + ["A"] + ["C"] * 5
        cm = _cm(actual, predicted)
        return report(cm, beta=1.0, top_n=2), cm

    def test_top_misclassified(self):
        rep, _ = self._rep()
        assert rep.top_misclassified[0] == ("B", "C", 4)
        assert len(rep.top_misclassified) == 2

    def test_notes_record_convention(self):
        rep, _ = self._rep()
        assert any("0/0" in n for n in rep.notes)

    def test_render_text(self):
        rep, cm = self._rep()
        text = render_text(rep, cm)
        assert "accuracy:" in text
        assert "macro" in text and "micro" in text
        assert "B -> C: 4" in text

    def test_csv_outputs(self, tmp_path):
        rep, cm = self._rep()
        rp = tmp_path / "report.csv"
        write_report_csv(rep, cm, rp)
        lines = rp.read_text().splitlines()
        assert lines[0].startswith("scope,class,precision")
        assert any(line.startswith("accuracy,") for line in lines)
        points, _ = roc_auc([0.9, 0.1], [1, 0])
        rocp = tmp_path / "roc.csv"
        write_roc_csv(points, rocp)
        assert rocp.read_text().splitlines()[0] == "threshold,fpr,tpr"
