"""Subcommand front-end orchestrating the pipeline with reproducible manifests.

One JSON config drives every stage; any leaf can be overridden on the
command line with a dotted flag (e.g. ``--meter.idle_timeout 15``). Outputs
land in a run directory named by a prefix of the config hash, and every
stage manifest chains the hashes of its inputs so lineage (and leakage)
is checkable after the fact.

Exit codes: 0 success, 1 validation/configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import sys
from pathlib import Path

# OpenBLAS starts its thread pool as numpy loads: on a 2-CPU machine that is
# ~50 ms of a fresh process's set-up (`python -X importtime`: numpy's
# _multiarray_umath 113 ms, 61 ms with one thread), and no stage makes a
# BLAS call large enough to use a second thread. So the CLI loads numpy with
# one thread, unless numpy is loaded already or the caller chose a count,
# and removes the variable again: child processes inherit nothing, and code
# importing flowlab's modules as a library keeps its pool.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import evaluation, explain, labeling, models, prep, transforms
from .dataset import Dataset, UNKNOWN_LABEL
from .errors import ConfigError, DataError, FlowlabError, LeakageError
from .meter import (FlowCache, MeterConfig, feature_column_names,
                    records_to_rows)
from .partition import SplitAssignment, SplitSpec, split
from .pcap import FilterSpec, IngestConfig, parse_capture

ENV_CONFIG = "FLOWLAB_CONFIG"

DEFAULT_CONFIG = {
    "seed": 0,
    "capture": None,
    "out_dir": "runs",
    "ingest": {"sample_n": 1, "mtu": 1500, "filter": None},
    "meter": {"idle_timeout": 30.0, "active_timeout": 300.0,
              "max_flows": 1 << 20, "lookup": "canonical", "splt_n": 20,
              "honor_fin_rst": True, "anonymize": "none",
              "reorder_slack": 1.0},
    "labeling": {"rule_file": None, "map_file": None, "drop_unknown": True},
    "cleaning": {"drop_columns": [], "missing_drop_threshold": 0.95,
                 "variance_epsilon": 1e-12, "min_tcp_packets": 3},
    "stateful": {"window": None},
    "split": {"strategy": "random_stratified",
              "fractions": [0.6, 0.2, 0.2], "group_key": None,
              "time_key": None, "held_out_classes": []},
    "transform": {"scaler": "standard", "bin_ports": True,
                  "onehot": ["proto"], "pca_components": None,
                  "smote_k": None, "undersample_ratio": None,
                  "outlier_method": None},
    "model": {"kind": "forest",
              "params": {"n_trees": 20, "max_depth": None,
                         "min_samples_split": 2, "k": 5},
              "grid": None, "cv_folds": 3, "metric": "macro_f1"},
    "evaluate": {"beta": 1.0, "top_n": 10, "partition": "test"},
    "explain": {"metric": "macro_f1", "repeats": 5,
                "group_threshold": None, "pdp_features": []},
}


# what DEFAULT_CONFIG's values cannot tell: the type of each key whose
# default is null, and as (list or dict, item type) the type of each list
# item or dict value; float takes an int too
VALUE_TYPES = {
    "capture": str, "ingest.filter": dict, "labeling.rule_file": str,
    "labeling.map_file": str, "stateful.window": float,
    "split.group_key": str, "split.time_key": str,
    "transform.pca_components": int, "transform.smote_k": int,
    "transform.undersample_ratio": float, "transform.outlier_method": str,
    "model.params.max_depth": int, "model.grid": (dict, list),
    "explain.group_threshold": float,
    "cleaning.drop_columns": (list, str), "split.fractions": (list, float),
    "split.held_out_classes": (list, str), "transform.onehot": (list, str),
    "explain.pdp_features": (list, str),
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    if not isinstance(override, dict):
        raise ConfigError(f"config {path or 'file'} must be a JSON object")
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _set_dotted(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError(f"unknown config path {dotted!r}")
        node = node[p]
    key = parts[-1]
    if key not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    # an object given for a section sets its keys, as in the config file
    node[key] = (_merge(node[key], value, dotted)
                 if isinstance(node[key], dict) and isinstance(value, dict)
                 else value)


def _is(value, kind: type) -> bool:
    """value is a JSON value of kind: an int is a float too, and a bool
    neither an int nor a float."""
    return type(value) is kind or kind is float and type(value) is int


def _check_types(value, default, where: str = "config") -> None:
    """value has the type of default, or the one VALUE_TYPES gives for
    where, a dict key by key; a None default also takes None."""
    if isinstance(default, dict) and isinstance(value, dict):
        for key, v in value.items():
            _check_types(v, default.get(key), f"{where}.{key}")
        return
    if value is None and default is None:
        return
    kind = VALUE_TYPES.get(where.partition(".")[2], type(default))
    kind, item = kind if isinstance(kind, tuple) else (kind, None)
    if not _is(value, kind):
        raise ConfigError(f"{where} must be a {kind.__name__}, "
                          f"got {value!r}")
    if item is not None:
        for v in (value.values() if kind is dict else value):
            if not _is(v, item):
                raise ConfigError(f"{where} must hold only "
                                  f"{item.__name__}s, got {v!r}")


def _check_ranges(cfg: dict) -> None:
    """Values of the right type that no stage could read as meant: a
    negative seed (numpy's generators take none), a negative PCA size or
    stateful window (null and 0 switch either off), a non-finite window
    and a tree depth below 1 (null leaves it unbounded)."""
    window = cfg["stateful"]["window"]
    pca = cfg["transform"]["pca_components"]
    depth = cfg["model"]["params"]["max_depth"]
    for where, value, ok, want in (
            ("seed", cfg["seed"], cfg["seed"] >= 0, ">= 0"),
            ("transform.pca_components", pca, pca is None or pca >= 0,
             ">= 0 or null"),
            ("model.params.max_depth", depth, depth is None or depth >= 1,
             ">= 1 or null"),
            ("stateful.window", window,
             window is None or 0 <= window < math.inf,
             "finite and >= 0, or null")):
        if not ok:
            raise ConfigError(f"config.{where} must be {want}, got {value!r}")


def load_config(path, overrides) -> tuple[dict, str]:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path:
        try:
            with open(path) as f:
                user = json.load(f)
        except (OSError, ValueError) as e:
            raise ConfigError(f"config file {path}: {e}") from None
        cfg = _merge(cfg, user)
    for dotted, raw in overrides:
        _set_dotted(cfg, dotted, raw)
    _check_types(cfg, DEFAULT_CONFIG)
    _check_ranges(cfg)
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return cfg, hashlib.sha256(canonical.encode()).hexdigest()


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(run_dir: Path, stage: str, config_hash: str,
                    inputs: dict, extra: dict) -> None:
    manifest = {"stage": stage, "config_hash": config_hash,
                "inputs": {k: _file_hash(v) if Path(v).exists() else None
                           for k, v in inputs.items()},
                **extra}
    with open(run_dir / f"{stage}_manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def run_dir_for(cfg: dict, config_hash: str) -> Path:
    d = Path(cfg["out_dir"]) / config_hash[:12]
    d.mkdir(parents=True, exist_ok=True)
    return d


# -- stages --------------------------------------------------------------------


def stage_meter(cfg, config_hash, run_dir: Path) -> Path:
    if not cfg["capture"]:
        raise ConfigError("config.capture is required for metering")
    ic = dict(cfg["ingest"])
    filt = FilterSpec.from_dict(ic["filter"]) if ic.get("filter") else None
    ingest = IngestConfig(sample_n=ic["sample_n"], filter=filt,
                          mtu=ic["mtu"])
    meter_cfg = MeterConfig(**cfg["meter"])
    stream, summary = parse_capture(cfg["capture"], ingest)
    cache = FlowCache(meter_cfg)
    # each form of the flows is freed once the next exists: the cache
    # here, the records and their table inside records_to_rows, which the
    # iterator leaves the only reference to them
    records = iter(cache.meter(stream))
    dropped_late = cache.dropped_late
    del cache
    ds = records_to_rows(records, meter_cfg)
    ds.provenance = {"capture": str(cfg["capture"]),
                     "config_hash": config_hash}
    out = run_dir / "flows.csv"
    ds.to_csv(out, config_hash=config_hash)
    _write_manifest(run_dir, "meter", config_hash,
                    {"capture": cfg["capture"]},
                    {"ingest_summary": summary.as_dict(),
                     "meter_config": cfg["meter"],
                     "sample_n": ic["sample_n"],
                     "flow_count": len(ds),
                     "dropped_late": dropped_late,
                     "columns": feature_column_names(meter_cfg.splt_n)})
    return out


def stage_diagnose(cfg, config_hash, run_dir: Path, dataset_path) -> Path:
    ds = Dataset.from_csv(dataset_path)
    report = prep.diagnose(ds)
    out = run_dir / "quality_report.json"
    with open(out, "w") as f:
        json.dump(report.as_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    _write_manifest(run_dir, "diagnose", config_hash,
                    {"dataset": dataset_path}, {})
    return out


def stage_prepare(cfg, config_hash, run_dir: Path, flows_path) -> Path:
    ds = Dataset.from_csv(flows_path)
    lab = cfg["labeling"]
    rules = (labeling.load_rule_file(lab["rule_file"]) if lab["rule_file"]
             else labeling.DEFAULT_PORT_RULES)
    emap = labeling.load_map_file(lab["map_file"]) if lab["map_file"] else None
    conflicts = labeling.label_dataset(ds, rules, emap)
    if lab["drop_unknown"]:
        ds = ds.subset(ds.data["label"] != UNKNOWN_LABEL)
    # derived columns first: cleaning may then drop any of them, and their
    # sources once they are constant
    prepared, audit = prep.clean(prep.engineer_stateless(ds),
                                 prep.CleaningConfig(**cfg["cleaning"]))
    if cfg["stateful"]["window"]:
        prepared = prep.engineer_stateful(prepared, cfg["stateful"]["window"])
    out = run_dir / "dataset.csv"
    prepared.to_csv(out, config_hash=config_hash)
    prep.write_audit_log(audit, run_dir / "audit.jsonl")
    _write_manifest(run_dir, "prepare", config_hash,
                    {"flows": flows_path},
                    {"label_conflicts": conflicts.count,
                     "rows": len(prepared),
                     "audit_events": len(audit)})
    return out


def stage_split(cfg, config_hash, run_dir: Path, dataset_path) -> Path:
    ds = Dataset.from_csv(dataset_path)
    sc = cfg["split"]
    spec = SplitSpec(strategy=sc["strategy"],
                     fractions=tuple(sc["fractions"]),
                     seed=cfg["seed"],
                     group_key=sc["group_key"], time_key=sc["time_key"],
                     held_out_classes=tuple(sc["held_out_classes"]))
    assignment = split(ds, spec)
    out = run_dir / "assignment.csv"
    assignment.to_csv(out)
    assignment.manifest["config_hash"] = config_hash
    assignment.manifest["dataset_hash"] = _file_hash(dataset_path)
    assignment.write_manifest(run_dir / "split_manifest.json")
    return out


def _encode_features(train: Dataset, full: Dataset, tcfg: dict
                     ) -> tuple[Dataset, Dataset, list]:
    """Fit categorical encoders and scaler on train; apply to both."""
    fitted = []
    if tcfg["bin_ports"] and "dst_port" in full.data:
        train = transforms.bin_ports(train)
        full = transforms.bin_ports(full)
        train.kinds["dst_port"] = "metadata"
        full.kinds["dst_port"] = "metadata"
    cat_cols = list(tcfg["onehot"] or [])
    if tcfg["bin_ports"] and "dst_port_bin" in full.data:
        cat_cols.append("dst_port_bin")
    for col in cat_cols:
        if col not in full.data:
            continue
        enc = transforms.fit_onehot(train, col)
        train, _ = transforms.apply_onehot(train, enc)
        full, _ = transforms.apply_onehot(full, enc)
        fitted.append(enc)
    if tcfg["scaler"]:
        fit_fn = {"standard": transforms.fit_standard,
                  "minmax": transforms.fit_minmax,
                  "robust": transforms.fit_robust}.get(tcfg["scaler"])
        if fit_fn is None:
            raise ConfigError(f"unknown scaler {tcfg['scaler']!r}")
        scaler = fit_fn(train)
        train = transforms.apply_scaler(train, scaler)
        full = transforms.apply_scaler(full, scaler)
        fitted.append(scaler)
    if tcfg["pca_components"]:
        pca = transforms.pca_fit(train, tcfg["pca_components"])
        train = transforms.pca_transform(train, pca)
        full = transforms.pca_transform(full, pca)
        fitted.append(pca)
    return train, full, fitted


def _labelled_table(path) -> Dataset:
    """The table at path; a DataError naming the file if it has no label
    column, which every stage from transform on needs."""
    ds = Dataset.from_csv(path)
    if ds.label_column is None:
        raise DataError(f"{Path(path).name}: no column of kind 'label'")
    return ds


def stage_transform(cfg, config_hash, run_dir: Path, dataset_path,
                    assignment_path) -> Path:
    ds = _labelled_table(dataset_path)
    assignment = SplitAssignment.from_csv(assignment_path)
    ds.set_partitions(assignment.tags)
    train = ds.partition_subset("train")
    tcfg = cfg["transform"]

    if tcfg["outlier_method"]:
        bounds_fn = {"zscore": transforms.outlier_bounds_zscore,
                     "iqr": transforms.outlier_bounds_iqr}.get(
                         tcfg["outlier_method"])
        if bounds_fn is None:
            raise ConfigError(
                f"unknown outlier method {tcfg['outlier_method']!r}")
        bounds = bounds_fn(train)
        train, _removed = transforms.remove_outliers(train, bounds)
    if tcfg["undersample_ratio"]:
        train = transforms.undersample(train, tcfg["undersample_ratio"],
                                       seed=cfg["seed"])
    if tcfg["smote_k"]:
        train = transforms.smote(train, k=tcfg["smote_k"], seed=cfg["seed"])

    train_t, full_t, fitted = _encode_features(train, ds, tcfg)

    # exported table: transformed non-train rows + (possibly resampled) train
    non_train = full_t.subset(full_t.partitions != "train")
    out_ds = Dataset.concat(train_t, non_train)
    out = run_dir / "transformed.csv"
    out_ds.to_csv(out, config_hash=config_hash)
    with open(run_dir / "transforms.json", "w") as f:
        json.dump([json.loads(t.to_json()) for t in fitted], f, indent=2,
                  sort_keys=True)
        f.write("\n")
    _write_manifest(run_dir, "transform", config_hash,
                    {"dataset": dataset_path, "assignment": assignment_path},
                    {"fit_fingerprint": fitted[0].fit_partition_fingerprint
                     if fitted else train.fingerprint(),
                     "assignment_train_fingerprint":
                        assignment.fingerprint("train"),
                     "train_rows": len(train_t)})
    return out


def _load_transforms(path: Path) -> list:
    """The fitted transforms stage_transform wrote; DataError naming the
    file on malformed input."""
    try:
        with open(path) as f:
            docs = json.load(f)
        if not isinstance(docs, list):
            raise DataError("expected a list of transforms")
        return [transforms.FittedTransform.from_json(json.dumps(d))
                for d in docs]
    except (OSError, ValueError, DataError) as e:
        raise DataError(f"{path.name}: {e}") from None


def _load_manifest(path: Path, *keys: str) -> dict:
    """A stage manifest holding keys; DataError naming the file when it is
    unreadable, not a JSON object or lacks one of them."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise DataError(f"{path.name}: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path.name}: expected a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise DataError(f"{path.name}: missing {', '.join(missing)}")
    return doc


def stage_train(cfg, config_hash, run_dir: Path, dataset_path,
                assignment_path) -> Path:
    ds, assignment = _load_partitioned(dataset_path, assignment_path)
    fitted = _load_transforms(run_dir / "transforms.json")
    tmanifest = _load_manifest(run_dir / "transform_manifest.json",
                               "assignment_train_fingerprint",
                               "fit_fingerprint")
    train_fp = assignment.fingerprint("train")
    if tmanifest["assignment_train_fingerprint"] != train_fp:
        raise LeakageError(
            "transform lineage mismatch: transforms were fitted against a "
            "different training partition than this assignment")
    for t in fitted:
        if t.fit_partition_fingerprint != tmanifest["fit_fingerprint"]:
            raise LeakageError(
                f"transform {t.kind!r} fingerprint does not match the "
                "recorded fit fingerprint")

    mcfg = cfg["model"]
    train_ds = ds.partition_subset("train")
    if mcfg["grid"]:
        design = ds.subset(ds.partitions != "test")
        grid = models.HyperGrid(values=mcfg["grid"], metric=mcfg["metric"],
                                cv_folds=mcfg["cv_folds"])
        best, table = models.grid_search(design, grid, mcfg["kind"],
                                         seed=cfg["seed"])
        model = best["model"]
        with open(run_dir / "cv_table.json", "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        chosen = best["params"]
    else:
        X, _ = train_ds.feature_matrix()
        model = models.fit(mcfg["kind"], X, train_ds.labels(),
                           mcfg["params"], cfg["seed"])
        chosen = mcfg["params"]
    out = run_dir / "model.json"
    text = models.model_to_json(model) + "\n"
    with open(out, "w") as f:
        f.write(text)
    models.remember_model(text, model)
    _write_manifest(run_dir, "train", config_hash,
                    {"dataset": dataset_path, "assignment": assignment_path,
                     "transforms": run_dir / "transforms.json"},
                    {"model_kind": mcfg["kind"], "params": chosen,
                     "transform_fingerprint": train_fp,
                     "split_fingerprints": {
                         t: assignment.fingerprint(t)
                         for t in ("train", "val", "test")}})
    return out


def _load_partitioned(dataset_path, assignment_path):
    ds = _labelled_table(dataset_path)
    assignment = SplitAssignment.from_csv(assignment_path)
    tags = dict(assignment.tags)
    for rid in ds.row_ids:       # synthetic SMOTE rows are train rows
        tags.setdefault(int(rid), "train")
    ds.set_partitions(tags)
    return ds, assignment


def _load_model_chain(cfg, run_dir: Path, dataset_path, assignment_path):
    ds, assignment = _load_partitioned(dataset_path, assignment_path)
    try:
        with open(run_dir / "model.json") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"model.json: {e}") from None
    model = models.model_from_json(text)
    train_manifest = _load_manifest(run_dir / "train_manifest.json",
                                    "transform_fingerprint")
    train_fp = assignment.fingerprint("train")
    if train_manifest["transform_fingerprint"] != train_fp:
        raise LeakageError(
            "model lineage mismatch: the model was trained against a "
            "different training-partition fingerprint")
    return ds, assignment, model


def stage_evaluate(cfg, config_hash, run_dir: Path, dataset_path,
                   assignment_path) -> Path:
    ds, assignment, model = _load_model_chain(cfg, run_dir, dataset_path,
                                              assignment_path)
    part = cfg["evaluate"]["partition"]
    eval_ds = ds.partition_subset(part)
    X, _ = eval_ds.feature_matrix()
    pred = model.predict(X)
    cm = evaluation.ConfusionMatrix.from_labels(eval_ds.labels(), pred)
    rep = evaluation.report(cm, beta=cfg["evaluate"]["beta"],
                            top_n=cfg["evaluate"]["top_n"])
    out = run_dir / "report.txt"
    with open(out, "w") as f:
        f.write(f"partition: {part}\n")
        f.write(f"macro-F1: {rep.macro['fbeta']:.6f}\n\n")
        f.write(evaluation.render_text(rep, cm))
    evaluation.write_report_csv(rep, cm, run_dir / "report.csv")
    with open(run_dir / "confusion.csv", "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["actual\\predicted", *cm.classes])
        w.writerows([c, *row] for c, row in zip(cm.classes,
                                                cm.counts.tolist()))
    _write_manifest(run_dir, "evaluate", config_hash,
                    {"dataset": dataset_path, "assignment": assignment_path,
                     "model": run_dir / "model.json"},
                    {"partition": part, "accuracy": rep.accuracy,
                     "macro_f1": rep.macro["fbeta"]})
    return out


def stage_explain(cfg, config_hash, run_dir: Path, dataset_path,
                  assignment_path) -> Path:
    ds, assignment, model = _load_model_chain(cfg, run_dir, dataset_path,
                                              assignment_path)
    val_ds = ds.partition_subset("val")
    X, names = val_ds.feature_matrix()
    ecfg = cfg["explain"]
    table = explain.permutation_importance(
        model, X, val_ds.labels(), metric=ecfg["metric"],
        repeats=ecfg["repeats"], feature_names=names,
        group_threshold=ecfg["group_threshold"], seed=cfg["seed"])
    out = run_dir / "importance.csv"
    table.to_csv(out)
    if isinstance(model, (models.TreeModel, models.ForestModel)):
        explain.gini_importance(model, names).to_csv(
            run_dir / "gini_importance.csv")
    for feat in ecfg["pdp_features"]:
        if feat not in names:
            raise ConfigError(f"pdp feature {feat!r} not in feature matrix")
        grid, curves = explain.partial_dependence(model, X,
                                                  names.index(feat))
        explain.write_pdp_csv(grid, curves, model.classes, feat,
                              run_dir / f"pdp_{feat}.csv")
    _write_manifest(run_dir, "explain", config_hash,
                    {"dataset": dataset_path, "assignment": assignment_path,
                     "model": run_dir / "model.json"},
                    {"metric": ecfg["metric"], "repeats": ecfg["repeats"]})
    return out


# each stage's inputs in the run directory, in argument order; --dataset and
# --assignment stand in for the first and the second
STAGE_INPUTS = {"meter": (), "diagnose": ("flows.csv",),
                "prepare": ("flows.csv",), "split": ("dataset.csv",),
                "transform": ("dataset.csv", "assignment.csv"),
                **{s: ("transformed.csv", "assignment.csv")
                   for s in ("train", "evaluate", "explain")}}


def run_stage(cmd, cfg, config_hash, run_dir: Path, *given) -> Path:
    """Run one stage (looked up by name when called) on its inputs."""
    inputs = [g or run_dir / name for g, name in
              zip((*given, None, None), STAGE_INPUTS[cmd])]
    return globals()[f"stage_{cmd}"](cfg, config_hash, run_dir, *inputs)


def run_pipeline(cfg, config_hash, run_dir: Path) -> Path:
    """Every stage in order on the run directory's files; the report."""
    return {cmd: run_stage(cmd, cfg, config_hash, run_dir)
            for cmd in STAGE_INPUTS}["evaluate"]


# -- entry point ----------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="offline flow metering and traffic classification")
    parser.add_argument("command", choices=[*STAGE_INPUTS, "pipeline"])
    parser.add_argument("--config",
                        default=os.environ.get(ENV_CONFIG),
                        help="JSON config file (or $FLOWLAB_CONFIG)")
    parser.add_argument("--dataset", help="input dataset CSV (stage input)")
    parser.add_argument("--assignment", help="split assignment CSV")
    known, rest = parser.parse_known_args(argv)
    overrides, rest = [], iter(rest)
    for arg in rest:
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}")
        key, eq, raw = arg[2:].partition("=")
        if not eq and (raw := next(rest, None)) is None:
            raise ConfigError(f"flag {arg} needs a value")
        overrides.append((key, raw))
    return known, overrides


def run(argv) -> int:
    try:
        args, overrides = _parse_args(argv)
        cfg, config_hash = load_config(args.config, overrides)
        run_dir = run_dir_for(cfg, config_hash)
        if args.command == "pipeline":
            out = run_pipeline(cfg, config_hash, run_dir)
        else:
            out = run_stage(args.command, cfg, config_hash, run_dir,
                            args.dataset, args.assignment)
        print(out)
        return 0
    except (ConfigError, LeakageError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except FlowlabError as e:       # DataError and the rest: bad input
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


# The ~22k GC-tracked objects that exist once numpy, the stdlib and flowlab
# are imported live until the process exits. Frozen, they are no longer
# rescanned by each full collection, nor collected one by one as the
# interpreter exits (the OS reclaims them). This runs at import, not in
# run(): a caller running run() many times in one process would otherwise
# freeze each call's leftover garbage for good.
gc.freeze()

if __name__ == "__main__":
    main()
