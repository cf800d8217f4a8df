"""Tracing for the benchmark's traced run, from outside flowlab.

``install`` wraps flowlab's public functions in the benchmark's own process,
patching each name where flowlab looks it up (``flowlab.cli.parse_capture``,
``flowlab.cli.split``, class attributes such as
``FlowCache.process_packet``), and returns a function that undoes every
patch. Each call becomes a span with an id, the id of its parent span, a
name, a start and a duration. The per-packet paths (decoding the capture and
``FlowCache.process_packet``) are recorded as one aggregate span per parent
that sums its calls, so tracing them allocates nothing per packet.

A call nested inside a span of the same name is not counted again, so
``ForestModel.predict_proba`` calling each tree's ``predict_proba`` is one
``models.predict`` call. Spans stay in memory until ``Tracer.write``.
"""

from __future__ import annotations

import functools
import heapq
import json
from collections import Counter
from time import perf_counter

STAGES = ("meter", "diagnose", "prepare", "split", "transform", "train",
          "evaluate", "explain")
REASONS = ("idle", "active", "fin_rst", "pressure", "end_of_input")

# spans each CLI command must fire; any other traced span must not fire
INGEST_SPANS = ("cli.meter", "pcap.decode", "meter.process",
                "meter.finalize", "dataset.to_csv")
PIPELINE_SPANS = INGEST_SPANS + tuple(f"cli.{s}" for s in STAGES[1:]) + (
    "dataset.from_csv", "labeling.label", "prep.diagnose", "prep.clean",
    "prep.engineer", "partition.split", "transforms.fit",
    "transforms.apply", "models.fit", "models.predict", "evaluation.score",
    "explain.permutation", "explain.gini")
EXPECTED_SPANS = {"meter": INGEST_SPANS, "pipeline": PIPELINE_SPANS}

# per-layer metric -> (unit, better, end-to-end metric it should move,
#                      workloads where it should move)
LAYERS = {
    **{f"cli.{s}_s": ("s", "lower", "wall_s",
                      "ingest-churn pipeline-forest"
                      if s == "meter" else "pipeline-forest")
       for s in STAGES},
    "pcap.decode_s": ("s", "lower", "pkts_per_s", "ingest-churn"),
    "pcap.pkts_per_s": ("1/s", "higher", "pkts_per_s", "ingest-churn"),
    "pcap.frames": ("count", "higher", "pkts_per_s", "ingest-churn"),
    "pcap.skipped": ("count", "lower", "pkts_per_s", "ingest-churn"),
    "pcap.truncated": ("count", "lower", "pkts_per_s", "ingest-churn"),
    "meter.process_s": ("s", "lower", "pkts_per_s", "ingest-churn"),
    "meter.pkts_per_s": ("1/s", "higher", "pkts_per_s", "ingest-churn"),
    "meter.slowest_calls_s": ("s", "lower", "pkts_per_s", "ingest-churn"),
    "meter.peak_resident_flows": ("count", "lower", "peak_rss_mb",
                                  "ingest-churn"),
    "meter.flows": ("count", "higher", "peak_rss_mb", "ingest-churn"),
    **{f"meter.exports.{r}": ("count", "higher", "peak_rss_mb",
                              "ingest-churn") for r in REASONS},
    "meter.dropped_late": ("count", "lower", "peak_rss_mb", "ingest-churn"),
    "meter.dual_hash_s": ("s", "lower", "none", "ingest-churn"),
    "meter.finalize_s": ("s", "lower", "wall_s", "ingest-churn"),
    "meter.finalize_rows_per_s": ("1/s", "higher", "wall_s",
                                  "ingest-churn"),
    "dataset.to_csv_s": ("s", "lower", "wall_s", "ingest-churn"),
    "dataset.from_csv_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "dataset.csv_rows": ("count", "higher", "wall_s",
                         "ingest-churn pipeline-forest"),
    "dataset.csv_rows_per_s": ("1/s", "higher", "wall_s",
                               "ingest-churn pipeline-forest"),
    "labeling.label_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "prep.diagnose_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "prep.clean_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "prep.engineer_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "partition.split_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "transforms.fit_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "transforms.apply_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "models.fit_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "models.trees": ("count", "higher", "wall_s", "pipeline-forest"),
    "models.nodes": ("count", "lower", "wall_s", "pipeline-forest"),
    "models.max_depth": ("count", "lower", "wall_s", "pipeline-forest"),
    "models.predict_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "models.predict_calls": ("count", "lower", "wall_s", "pipeline-forest"),
    "models.predict_rows": ("count", "lower", "wall_s", "pipeline-forest"),
    "models.predict_rows_per_s": ("1/s", "higher", "wall_s",
                                  "pipeline-forest"),
    "evaluation.score_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "evaluation.score_calls": ("count", "lower", "wall_s",
                               "pipeline-forest"),
    "explain.permutation_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "explain.permutation_self_s": ("s", "lower", "wall_s",
                                   "pipeline-forest"),
    "explain.predict_share": ("ratio", "lower", "wall_s",
                              "pipeline-forest"),
    "explain.gini_s": ("s", "lower", "wall_s", "pipeline-forest"),
    "trace.overhead_s": ("s", "lower", "none",
                         "ingest-churn pipeline-forest"),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.packet_call_s: list[float] = []   # each process_packet call
        self.summaries: list = []              # IngestSummary per capture
        self.rows: list = []                   # records_to_rows output
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._aggregates: dict = {}

    def _new_span(self, name: str) -> dict:
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": perf_counter(), "dur": 0.0,
                "calls": 0}
        self.spans.append(span)
        return span

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name (not nested in itself)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        span = self._new_span(name)
        self._stack.append(span["id"])
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            span["dur"] = perf_counter() - span["start"]
            span["calls"] = 1
            self._stack.pop()
            self._open[name] -= 1

    def aggregate(self, name: str) -> dict:
        """The span under the current parent that sums many short calls."""
        key = (name, self._stack[-1] if self._stack else None)
        span = self._aggregates.get(key)
        if span is None:
            span = self._aggregates[key] = self._new_span(name)
        return span

    def total(self, name: str) -> float:
        return sum(s["dur"] for s in self.spans if s["name"] == name)

    def fired(self) -> set:
        return {s["name"] for s in self.spans if s["calls"]}

    def self_times(self) -> dict:
        """Span id -> its duration minus the durations of its children."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["dur"]
        return {s["id"]: s["dur"] - child[s["id"]] for s in self.spans}

    def write(self, path) -> None:
        selfs = self.self_times()
        out = [{**s, "self": selfs[s["id"]]} for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": out, "counts": dict(self.counts)}, f,
                      indent=1, sort_keys=True)
            f.write("\n")


class _Patches:
    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer):
    """Wrap flowlab's public functions for tracer; return the undo function."""
    import flowlab.cli as cli
    from flowlab import evaluation, explain, labeling, models, prep, transforms
    from flowlab.dataset import Dataset
    from flowlab.meter import FlowCache

    patches = _Patches()

    def spanned(owner, attr, name, after=None):
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not tracer.is_open(name)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None and outer:
                after(args, result)
            return result

        patches.set(owner, attr, classmethod(wrapper)
                    if isinstance(raw, classmethod) else wrapper)

    for stage in STAGES:
        spanned(cli, f"stage_{stage}", f"cli.{stage}")

    parse_capture = cli.parse_capture

    def traced_parse_capture(path, cfg=None):
        stream, summary = parse_capture(path, cfg)
        tracer.summaries.append(summary)
        return _timed_stream(tracer, stream), summary

    patches.set(cli, "parse_capture", traced_parse_capture)

    process_packet, flush = FlowCache.process_packet, FlowCache.flush
    counts, call_s = tracer.counts, tracer.packet_call_s

    def traced_process_packet(cache, pkt):
        span = tracer.aggregate("meter.process")
        t0 = perf_counter()
        out = process_packet(cache, pkt)
        dt = perf_counter() - t0
        span["dur"] += dt
        span["calls"] += 1
        call_s.append(dt)
        counts["meter.packets"] += 1
        resident = len(cache)
        if resident > counts["meter.peak_resident_flows"]:
            counts["meter.peak_resident_flows"] = resident
        for rec in out:
            counts[f"meter.exports.{rec.export_reason}"] += 1
        return out

    def traced_flush(cache, final_ts=None):
        span = tracer.aggregate("meter.process")
        t0 = perf_counter()
        out = flush(cache, final_ts)
        span["dur"] += perf_counter() - t0
        span["calls"] += 1
        for rec in out:
            counts[f"meter.exports.{rec.export_reason}"] += 1
        counts["meter.dropped_late"] += cache.dropped_late
        return out

    patches.set(FlowCache, "process_packet", traced_process_packet)
    patches.set(FlowCache, "flush", traced_flush)

    def keep_rows(args, rows):
        counts["meter.rows"] += len(rows)
        tracer.rows.extend(rows)

    spanned(cli, "records_to_rows", "meter.finalize", keep_rows)
    spanned(Dataset, "to_csv", "dataset.to_csv",
            lambda args, _: counts.update({"dataset.rows_written":
                                           len(args[0])}))
    spanned(Dataset, "from_csv", "dataset.from_csv",
            lambda _, ds: counts.update({"dataset.rows_read": len(ds)}))
    spanned(labeling, "label_dataset", "labeling.label")
    spanned(prep, "diagnose", "prep.diagnose")
    spanned(prep, "clean", "prep.clean")
    spanned(prep, "engineer_stateless", "prep.engineer")
    spanned(prep, "engineer_stateful", "prep.engineer")
    spanned(cli, "split", "partition.split")
    for name in ("fit_standard", "fit_minmax", "fit_robust", "fit_onehot",
                 "pca_fit", "outlier_bounds_zscore", "outlier_bounds_iqr"):
        spanned(transforms, name, "transforms.fit")
    for name in ("apply_scaler", "apply_onehot", "bin_ports",
                 "pca_transform", "remove_outliers", "undersample", "smote"):
        spanned(transforms, name, "transforms.apply")

    def walk_model(_, model):
        trees = [t.root for t in getattr(model, "trees", ())]
        if hasattr(model, "root"):
            trees = [model.root]
        counts["models.trees"] += len(trees)
        for root in trees:
            stack = [(root, 0)]
            while stack:
                node, depth = stack.pop()
                counts["models.nodes"] += 1
                if depth > counts["models.max_depth"]:
                    counts["models.max_depth"] = depth
                if not node.is_leaf:
                    stack += [(node.left, depth + 1), (node.right, depth + 1)]

    for name in ("forest_fit", "tree_fit", "knn_fit"):
        spanned(models, name, "models.fit", walk_model)

    def count_predict(args, _):
        counts["models.predict_calls"] += 1
        counts["models.predict_rows"] += len(args[1])

    for cls in (models.TreeModel, models.ForestModel, models.KnnModel):
        spanned(cls, "predict_proba", "models.predict", count_predict)
    spanned(evaluation.ConfusionMatrix, "from_labels", "evaluation.score",
            lambda *_: counts.update({"evaluation.score_calls": 1}))
    spanned(explain, "permutation_importance", "explain.permutation")
    spanned(explain, "gini_importance", "explain.gini")
    return patches.restore


def _timed_stream(tracer: Tracer, stream):
    """Yield from stream, adding the time spent in each next() to a span."""
    span = None
    while True:
        t0 = perf_counter()
        try:
            pkt = next(stream)
        except StopIteration:
            if span is not None:
                span["dur"] += perf_counter() - t0
            return
        dt = perf_counter() - t0
        if span is None:
            span = tracer.aggregate("pcap.decode")
        span["dur"] += dt
        span["calls"] += 1
        yield pkt


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced run (all of LAYERS but the two that
    need other runs: meter.dual_hash_s and trace.overhead_s)."""
    c = tracer.counts
    m = {f"cli.{s}_s": tracer.total(f"cli.{s}") for s in STAGES}
    decode_s = tracer.total("pcap.decode")
    decoded = sum(s.decoded for s in tracer.summaries)
    m.update({
        "pcap.decode_s": decode_s,
        "pcap.pkts_per_s": _rate(decoded, decode_s),
        "pcap.frames": sum(s.total_frames for s in tracer.summaries),
        "pcap.skipped": sum(s.skipped for s in tracer.summaries),
        "pcap.truncated": sum(s.truncated for s in tracer.summaries),
    })
    process_s = tracer.total("meter.process")
    slowest = max(1, len(tracer.packet_call_s) // 1000)
    flows = sum(c[f"meter.exports.{r}"] for r in REASONS)
    m.update({
        "meter.process_s": process_s,
        "meter.pkts_per_s": _rate(c["meter.packets"], process_s),
        "meter.slowest_calls_s": sum(heapq.nlargest(slowest,
                                                    tracer.packet_call_s)),
        "meter.peak_resident_flows": c["meter.peak_resident_flows"],
        "meter.flows": flows,
        **{f"meter.exports.{r}": c[f"meter.exports.{r}"] for r in REASONS},
        "meter.dropped_late": c["meter.dropped_late"],
    })
    finalize_s = tracer.total("meter.finalize")
    to_csv_s = tracer.total("dataset.to_csv")
    from_csv_s = tracer.total("dataset.from_csv")
    csv_rows = c["dataset.rows_written"] + c["dataset.rows_read"]
    m.update({
        "meter.finalize_s": finalize_s,
        "meter.finalize_rows_per_s": _rate(c["meter.rows"], finalize_s),
        "dataset.to_csv_s": to_csv_s,
        "dataset.from_csv_s": from_csv_s,
        "dataset.csv_rows": csv_rows,
        "dataset.csv_rows_per_s": _rate(csv_rows, to_csv_s + from_csv_s),
    })
    for metric, span in (("labeling.label_s", "labeling.label"),
                         ("prep.diagnose_s", "prep.diagnose"),
                         ("prep.clean_s", "prep.clean"),
                         ("prep.engineer_s", "prep.engineer"),
                         ("partition.split_s", "partition.split"),
                         ("transforms.fit_s", "transforms.fit"),
                         ("transforms.apply_s", "transforms.apply"),
                         ("models.fit_s", "models.fit"),
                         ("evaluation.score_s", "evaluation.score"),
                         ("explain.gini_s", "explain.gini")):
        m[metric] = tracer.total(span)
    predict_s = tracer.total("models.predict")
    m.update({
        "models.trees": c["models.trees"],
        "models.nodes": c["models.nodes"],
        "models.max_depth": c["models.max_depth"],
        "models.predict_s": predict_s,
        "models.predict_calls": c["models.predict_calls"],
        "models.predict_rows": c["models.predict_rows"],
        "models.predict_rows_per_s": _rate(c["models.predict_rows"],
                                           predict_s),
        "evaluation.score_calls": c["evaluation.score_calls"],
    })
    perm = [s for s in tracer.spans if s["name"] == "explain.permutation"]
    perm_ids = {s["id"] for s in perm}
    perm_s = sum(s["dur"] for s in perm)
    selfs = tracer.self_times()
    under_perm = [s for s in tracer.spans if s["parent"] in perm_ids]
    m.update({
        "explain.permutation_s": perm_s,
        "explain.permutation_self_s": sum(selfs[i] for i in perm_ids),
        "explain.predict_share": _rate(
            sum(s["dur"] for s in under_perm
                if s["name"] == "models.predict"), perm_s),
    })
    return m


def check_spans(tracer: Tracer, command: str) -> list[str]:
    """Problems with which spans fired, for a run of one CLI command."""
    fired = tracer.fired()
    expected = set(EXPECTED_SPANS[command])
    problems = [f"span {name!r} never fired"
                for name in sorted(expected - fired)]
    problems += [f"span {name!r} fired but {command!r} should not run it"
                 for name in sorted(fired - expected)]
    return problems
