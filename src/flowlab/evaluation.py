"""Confusion matrices and classification metrics: precision/recall/F-beta,
macro/weighted/micro aggregation, ROC curves and trapezoidal AUC.

0/0 cases follow the "0 with warning" convention; every report records it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import class_codes
from .errors import ShapeError, UndefinedMetricError

ZERO_DIV_NOTE = "0/0 metric values reported as 0 by convention"


@dataclass
class ConfusionMatrix:
    """Counts of each (actual, predicted) class pair."""

    classes: list[str]
    counts: np.ndarray        # counts[actual][predicted]

    def __post_init__(self):
        # row and column sums, read by every per-class metric
        self._index = {c: i for i, c in enumerate(self.classes)}
        self._actual = self.counts.sum(axis=1).tolist()
        self._predicted = self.counts.sum(axis=0).tolist()
        self._total = sum(self._actual)

    @classmethod
    def from_labels(cls, actual, predicted) -> "ConfusionMatrix":
        """Over the classes that occur in either label list, sorted."""
        classes, codes = class_codes([*actual, *predicted])
        return cls.from_codes(codes[:len(actual)], codes[len(actual):],
                              classes)

    @classmethod
    def from_codes(cls, actual: np.ndarray, predicted: np.ndarray,
                   classes: Sequence[str]) -> "ConfusionMatrix":
        """From class indices into classes; a class that is neither an
        actual nor a predicted label is left out."""
        if len(actual) != len(predicted):
            raise ShapeError(f"{len(actual)} actual vs "
                             f"{len(predicted)} predicted labels")
        if len(actual) == 0:
            raise ShapeError("need at least one labeled sample")
        k = len(classes)
        counts = np.bincount(actual * k + predicted,
                             minlength=k * k).reshape(k, k)
        seen = counts.any(axis=0) | counts.any(axis=1)
        return cls(classes=[c for c, s in zip(classes, seen) if s],
                   counts=counts[seen][:, seen])

    @property
    def total(self) -> int:
        return self._total

    def support(self, cls_name: str) -> int:
        return self._actual[self._index[cls_name]]

    def one_vs_rest(self, cls_name: str) -> tuple[int, int, int, int]:
        """(TP, FP, FN, TN) reducing this class against the rest."""
        i = self._index[cls_name]
        tp = int(self.counts[i, i])
        fp = self._predicted[i] - tp
        fn = self._actual[i] - tp
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn


def _safe_div(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    return float(np.trace(cm.counts)) / cm.total


def binary_metrics(cm: ConfusionMatrix, positive: str,
                   beta: float = 1.0) -> dict:
    tp, fp, fn, tn = cm.one_vs_rest(positive)
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    b2 = beta * beta
    fbeta = _safe_div((1 + b2) * precision * recall, b2 * precision + recall)
    return {
        "precision": precision,
        "recall": recall,
        "fbeta": fbeta,
        "accuracy": _safe_div(tp + tn, tp + fp + fn + tn),
        "fpr": _safe_div(fp, fp + tn),
        "support": tp + fn,
    }


def aggregate(cm: ConfusionMatrix, metric: str = "fbeta",
              mode: str = "macro", beta: float = 1.0) -> float:
    """One-vs-rest per class, then macro/weighted/micro combine."""
    if mode == "micro":
        tp = fp = fn = 0
        for c in cm.classes:
            t, f, n, _ = cm.one_vs_rest(c)
            tp, fp, fn = tp + t, fp + f, fn + n
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        if metric == "precision":
            return precision
        if metric == "recall":
            return recall
        if precision == recall:
            return precision  # F-beta collapses to the common value
        b2 = beta * beta
        return _safe_div((1 + b2) * precision * recall,
                         b2 * precision + recall)
    per_class = [binary_metrics(cm, c, beta)[metric] for c in cm.classes]
    if mode == "macro":
        return float(np.mean(per_class))
    if mode == "weighted":
        weights = np.asarray([cm.support(c) for c in cm.classes], dtype=float)
        return float(np.dot(per_class, weights) / weights.sum())
    raise UndefinedMetricError(f"unknown aggregation mode {mode!r}")


def roc_auc(scores, actual, positive=1) -> tuple[list[tuple], float]:
    """ROC curve over all distinct thresholds (descending) plus trapezoid AUC.

    Curve points are (threshold, fpr, tpr) from (inf,0,0) to (min,1,1);
    tied scores produce one point per distinct score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray([1 if str(a) == str(positive) else 0 for a in actual])
    if len(scores) != len(truth):
        raise ShapeError("scores and labels length mismatch")
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truth[order]
    points = [(float("inf"), 0.0, 0.0)]
    tp = fp = 0
    auc = 0.0
    prev_fpr, prev_tpr = 0.0, 0.0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            tp += t[j]
            fp += 1 - t[j]
            j += 1
        fpr = fp / n_neg
        tpr = tp / n_pos
        points.append((float(s[i]), fpr, tpr))
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_fpr, prev_tpr = fpr, tpr
        i = j
    return points, float(auc)


@dataclass
class MetricReport:
    """Accuracy and per-class, macro, weighted and micro scores."""

    beta: float
    accuracy: float
    per_class: dict[str, dict]
    macro: dict[str, float]
    weighted: dict[str, float]
    micro: dict[str, float]
    top_misclassified: list[tuple[str, str, int]]
    notes: list[str] = field(default_factory=lambda: [ZERO_DIV_NOTE])


def report(cm: ConfusionMatrix, beta: float = 1.0,
           top_n: int = 10) -> MetricReport:
    per_class = {c: binary_metrics(cm, c, beta) for c in cm.classes}
    agg = {}
    for mode in ("macro", "weighted", "micro"):
        agg[mode] = {m: aggregate(cm, m, mode, beta)
                     for m in ("precision", "recall", "fbeta")}
    pairs = []
    for i, a in enumerate(cm.classes):
        for j, p in enumerate(cm.classes):
            if i != j and cm.counts[i, j] > 0:
                pairs.append((a, p, int(cm.counts[i, j])))
    pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    return MetricReport(beta=beta, accuracy=accuracy(cm),
                        per_class=per_class, macro=agg["macro"],
                        weighted=agg["weighted"], micro=agg["micro"],
                        top_misclassified=pairs[:top_n])


def render_text(rep: MetricReport, cm: ConfusionMatrix) -> str:
    out = io.StringIO()
    out.write(f"accuracy: {rep.accuracy:.6f}\n")
    out.write(f"beta: {rep.beta}\n\n")
    out.write("class               precision  recall     f-beta     support\n")
    for c in cm.classes:
        m = rep.per_class[c]
        out.write(f"{c:<18}  {m['precision']:<9.6f}  {m['recall']:<9.6f}  "
                  f"{m['fbeta']:<9.6f}  {m['support']}\n")
    for mode in ("macro", "weighted", "micro"):
        m = getattr(rep, mode)
        out.write(f"{mode:<18}  {m['precision']:<9.6f}  {m['recall']:<9.6f}  "
                  f"{m['fbeta']:<9.6f}  {cm.total}\n")
    if rep.top_misclassified:
        out.write("\ntop misclassifications (actual -> predicted: count)\n")
        for a, p, n in rep.top_misclassified:
            out.write(f"  {a} -> {p}: {n}\n")
    for note in rep.notes:
        out.write(f"\nnote: {note}\n")
    return out.getvalue()


def write_report_csv(rep: MetricReport, cm: ConfusionMatrix, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scope", "class", "precision", "recall", "fbeta",
                    "support"])
        for c in cm.classes:
            m = rep.per_class[c]
            w.writerow(["class", c, repr(m["precision"]), repr(m["recall"]),
                        repr(m["fbeta"]), m["support"]])
        for mode in ("macro", "weighted", "micro"):
            m = getattr(rep, mode)
            w.writerow([mode, "", repr(m["precision"]), repr(m["recall"]),
                        repr(m["fbeta"]), cm.total])
        w.writerow(["accuracy", "", repr(rep.accuracy), "", "", cm.total])


def write_roc_csv(points, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["threshold", "fpr", "tpr"])
        for thr, fpr, tpr in points:
            w.writerow([repr(thr), repr(fpr), repr(tpr)])


# metric registries: name -> fn(confusion matrix) -> float, and
# name -> fn(actual labels, predicted labels) -> float

SCORES = {
    "accuracy": accuracy,
    "macro_f1": lambda cm: aggregate(cm, "fbeta", "macro"),
    "weighted_f1": lambda cm: aggregate(cm, "fbeta", "weighted"),
    "micro_f1": lambda cm: aggregate(cm, "fbeta", "micro"),
    "macro_precision": lambda cm: aggregate(cm, "precision", "macro"),
    "macro_recall": lambda cm: aggregate(cm, "recall", "macro"),
}


def _by_labels(score):
    return lambda actual, predicted: score(
        ConfusionMatrix.from_labels(actual, predicted))


METRICS = {name: _by_labels(score) for name, score in SCORES.items()}


def code_scorer(metric: str, classes: Sequence[str], actual):
    """fn(predicted indices into classes) -> the metric against the labels
    `actual`, equal to METRICS[metric] on the predicted class names. The
    labels are encoded once, over the union of classes and actual."""
    union, codes = class_codes([*classes, *actual])
    to_union, codes = codes[:len(classes)], codes[len(classes):]
    score = SCORES[metric]
    return lambda predicted: score(
        ConfusionMatrix.from_codes(codes, to_union[predicted], union))
