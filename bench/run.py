"""flowlab benchmark: one client in a closed loop, one fresh CLI process per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds its inputs under
``bench/.cache`` and runs flowlab from the checkout's ``src``.

``--trace 0`` runs the ``flowlab`` CLI on the workload's capture in fresh
processes, one after another, for about ``--seconds`` seconds, and reports
medians of the end-to-end metrics: ``setup_s``, ``wall_s``, ``pkts_per_s``
and ``peak_rss_mb``. The first run is a warm-up that counts toward no
timing or memory metric. The host's speed swings by up to half for minutes
at a time, so each process's times are scaled to a fixed speed: a
reference loop that runs none of flowlab's code is timed just before the
process, and its times are multiplied by ``REF_S`` over the loop's time.
Both the measured and the scaled times are printed. ``--trace 1`` spends
half the time on such runs, then runs the CLI twice inside this process
with flowlab's public functions wrapped (``bench/spans.py``) and reports
the per-layer metrics, which are not scaled.

Every run is checked: the exit code is 0, the packets in ``flows.csv`` add
up to the packets generated, and the SHA-256 digest of the byte-identical
artifacts is the same for every run of the same code and seed. The last
line on stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"

COMMANDS = {"ingest-churn": "meter", "pipeline-forest": "pipeline"}
# the artifacts a rerun must reproduce byte for byte, whichever are written
ARTIFACTS = ("flows.csv", "dataset.csv", "assignment.csv", "transformed.csv",
             "model.json", "report.txt", "report.csv", "importance.csv",
             "confusion.csv")
END_TO_END = {"setup_s": "s", "wall_s": "s", "pkts_per_s": "1/s",
              "peak_rss_mb": "MiB"}
SETUP_PROBES = 3        # set-up-only processes per run, besides CLI runs
MIN_RUNS = 3            # timed CLI runs per measurement, however long
                        # they take, after one warm-up run
CHILD_TIMEOUT_S = 150
# seconds of reference_loop that every reported time is scaled to; near its
# median on the reference machine (bench/README.md)
REF_S = 0.25


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work is of the kinds flowlab's CLI does (dict lookups, list appends,
    float arithmetic, formatting and joining text, an integer loop) but runs
    none of flowlab's code, so no change to flowlab can move it: only the
    speed the shared host gives this machine at that moment does.
    """
    t0 = perf_counter()
    table = {}
    for i in range(200_000):
        key = i * 2654435761 % 9973
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [i, 0, 0.0, []]
        entry[1] += 1
        entry[2] += i * 0.37
        entry[3].append((i & 7, i * 1.5))
    "\n".join(",".join(repr(v) for v in (k, e[0], e[1], e[2], len(e[3])))
              for k, e in table.items())
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t0


@dataclass
class Sample:
    """One fresh process: a CLI run, or a set-up probe (no wall_s)."""

    setup_s: float
    wall_s: float = 0.0
    rss_mb: float = 0.0
    error: str = ""
    scale: float = 1.0      # REF_S / reference_loop seconds just before


class Workload:
    def __init__(self, name: str, seed: int, scale: float):
        self.name, self.seed = name, seed
        self.command = COMMANDS[name]
        self.capture, self.meta = gen.capture_for(CACHE, name, seed, scale)
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.out_dir = self.work / "out"
        # relative paths keep the config hash, and so the artifacts, the
        # same in every checkout
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps({
            "capture": str(self.capture.relative_to(ROOT)),
            "out_dir": str(self.out_dir.relative_to(ROOT))}) + "\n")
        self.argv = [self.command, "--config",
                     str(self.config.relative_to(ROOT))]
        digest_key = f"{self.capture.stem}-{_code_fingerprint()[:16]}"
        self.digest_file = CACHE / f"{digest_key}.digest"
        self.digest = (self.digest_file.read_text().strip()
                       if self.digest_file.exists() else "")

    def check_outputs(self) -> str:
        """What is wrong with the run in self.out_dir, or ""."""
        run_dirs = list(self.out_dir.iterdir()) if self.out_dir.exists() \
            else []
        if len(run_dirs) != 1:
            return f"expected one run directory, found {len(run_dirs)}"
        run_dir = run_dirs[0]
        packets = _flow_table_packets(run_dir / "flows.csv")
        if packets != self.meta["packets"]:
            return (f"conservation: flows.csv holds {packets} packets, "
                    f"{self.meta['packets']} were generated")
        h = hashlib.sha256()
        for name in ARTIFACTS:
            path = run_dir / name
            if path.exists():
                data = path.read_bytes()
                h.update(f"{name}\0{len(data)}\0".encode())
                h.update(data)
        digest = h.hexdigest()
        if not self.digest:
            self.digest = digest
            self.digest_file.write_text(digest + "\n")
        if digest != self.digest:
            return (f"artifact digest {digest[:16]} differs from "
                    f"{self.digest[:16]} of earlier runs")
        return ""


def _code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "flowlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _flow_table_packets(path: Path) -> int:
    with open(path, newline="") as f:
        first = f.readline()
        if not first.startswith("#"):
            f.seek(0)
        reader = csv.reader(f)
        col = next(reader).index("total_packet_count")
        return sum(int(row[col]) for row in reader)


def _spawn(args: list, work: Path):
    """Run child.py with args; return (exit code, t0, ready, t1, rusage)."""
    stamp, err_path = work / "stamp", work / "stderr.txt"
    stamp.unlink(missing_ok=True)
    with open(err_path, "wb") as err:
        t0 = mono()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(stamp), *args],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = mono()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready = float(stamp.read_text()) if stamp.exists() else None
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()
        sys.stderr.write(f"run exited {proc.returncode}: "
                         f"{tail[-1] if tail else ''}\n")
    return proc.returncode, t0, ready, t1, usage


def setup_probe(w: Workload) -> Sample:
    rc, t0, ready, _, _ = _spawn([], w.work)
    if rc != 0 or ready is None:
        raise SystemExit(f"set-up probe failed with exit code {rc}")
    return Sample(setup_s=ready - t0)


def cli_run(w: Workload) -> Sample:
    shutil.rmtree(w.out_dir, ignore_errors=True)
    rc, t0, ready, t1, usage = _spawn(w.argv, w.work)
    ready = t0 if ready is None else ready
    sample = Sample(setup_s=ready - t0, wall_s=t1 - ready,
                    rss_mb=usage.ru_maxrss / 1024)
    if rc != 0:
        sample.error = f"exit code {rc}"
    else:
        sample.error = w.check_outputs()
    return sample


def measure(w: Workload, budget_s: float) -> tuple[list, list, list]:
    """Set-up probes, then CLI runs until the next would pass budget_s.

    reference_loop runs just before each process, whose times are then
    scaled by REF_S over the loop's time. The first CLI run is a warm-up:
    it is checked like the others, but its wall time and memory count
    toward no metric. Returns (probes, CLI runs, reference loop seconds).
    """
    start = mono()
    refs = []

    def scaled(run) -> Sample:
        refs.append(reference_loop())
        sample = run()
        sample.scale = REF_S / refs[-1]
        return sample

    probes = [scaled(lambda: setup_probe(w)) for _ in range(SETUP_PROBES)]
    samples, lap = [], []
    while True:
        t = mono()
        samples.append(scaled(lambda: cli_run(w)))
        lap.append(mono() - t)
        if len(samples) > MIN_RUNS and (
                mono() - start + statistics.median(lap) > budget_s):
            return probes, samples, refs


def timed_runs(samples: list) -> list:
    """The CLI runs that count: all but the warm-up, and only the passing
    ones unless none passed."""
    timed = samples[1:]
    return [s for s in timed if not s.error] or timed


def end_to_end(w: Workload, probes: list, samples: list) -> dict:
    ok = timed_runs(samples)
    wall = statistics.median(s.wall_s * s.scale for s in ok)
    return {
        "setup_s": statistics.median(s.setup_s * s.scale
                                     for s in probes + samples),
        "wall_s": wall,
        "pkts_per_s": w.meta["packets"] / wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in ok),
    }


def report_samples(probes: list, samples: list, refs: list) -> None:
    for s in samples:
        if s.error:
            print(f"FAILED run: {s.error}")
    timed = samples[1:]
    for name, values in (
            ("reference_loop_s", refs),
            ("measured setup_s", [s.setup_s for s in probes + samples]),
            ("measured wall_s", [s.wall_s for s in timed]),
            ("scaled setup_s", [s.setup_s * s.scale
                                for s in probes + samples]),
            ("scaled wall_s", [s.wall_s * s.scale for s in timed]),
            ("peak_rss_mb", [s.rss_mb for s in timed])):
        print(f"{name}: median {statistics.median(values):.4f} "
              f"min {min(values):.4f} max {max(values):.4f} "
              f"n={len(values)} all "
              + " ".join(f"{v:.4f}" for v in values))


def traced_run(w: Workload, index: int):
    """One in-process traced CLI run: (tracer, wall seconds, problems)."""
    import flowlab.cli

    shutil.rmtree(w.out_dir, ignore_errors=True)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc = flowlab.cli.run(list(w.argv))
            wall = perf_counter() - t0
    finally:
        undo()
    tracer.write(w.work / f"spans-{index}.json")
    problems = [f"traced run {index} exited {rc}"] if rc != 0 else []
    if not problems:
        error = w.check_outputs()
        problems += [f"traced run {index}: {error}"] if error else []
    return tracer, wall, problems


def dual_hash_check(w: Workload, canonical_rows: list) -> tuple[float, str]:
    """Meter the capture with lookup=dual_hash: (seconds, problem or "")."""
    from flowlab.cli import DEFAULT_CONFIG
    from flowlab.meter import MeterConfig, meter_stream, records_to_rows
    from flowlab.pcap import parse_capture

    stream, _ = parse_capture(w.capture)
    packets = list(stream)
    cfg = MeterConfig(**{**DEFAULT_CONFIG["meter"], "lookup": "dual_hash"})
    t0 = perf_counter()
    records = meter_stream(packets, cfg)
    seconds = perf_counter() - t0
    rows = records_to_rows(records, cfg)
    same = len(rows) == len(canonical_rows) and all(
        repr(a) == repr(b) for a, b in zip(rows, canonical_rows))
    return seconds, "" if same else "dual_hash records differ from canonical"


def per_layer(w: Workload, wall_s: float) -> tuple[dict, list, int, int]:
    """(per-layer metrics, problems, runs attempted, runs failed) of the
    two traced runs and the dual_hash run."""
    runs = [traced_run(w, i) for i in (1, 2)]
    problems = [p for _, _, ps in runs for p in ps]
    failed = {i for i, (_, _, ps) in enumerate(runs) if ps}
    loud = spans.check_spans(runs[0][0], w.command)
    if loud:
        raise SystemExit("traced run: " + "; ".join(loud))
    first, second = (spans.layer_metrics(t) for t, _, _ in runs)
    metrics = {}
    for name, (unit, *_rest) in spans.LAYERS.items():
        if name not in first:
            continue
        if unit == "count":
            if first[name] != second[name]:
                problems.append(f"count {name} differs between traced runs:"
                                f" {first[name]} vs {second[name]}")
                failed.add(1)
            metrics[name] = first[name]
        else:
            metrics[name] = (first[name] + second[name]) / 2
    metrics["meter.dual_hash_s"], problem = dual_hash_check(
        w, runs[0][0].rows)
    if problem:
        problems.append(problem)
        failed.add(2)
    traced_wall = statistics.fmean(wall for _, wall, _ in runs)
    metrics["trace.overhead_s"] = traced_wall - wall_s
    stage_sum = sum(metrics[f"cli.{s}_s"] for s in spans.STAGES)
    print(f"stage spans sum {stage_sum:.4f} s, traced wall "
          f"{traced_wall:.4f} s, untraced measured wall {wall_s:.4f} s")
    if stage_sum > 0:
        share = (metrics["cli.train_s"] + metrics["cli.explain_s"]) \
            / stage_sum
        print(f"train + explain share of stage total: {share:.3f}")
    return metrics, problems, len(runs) + 1, len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the capture (self-tests use 0.02)")
    args = parser.parse_args(argv)
    if not (SRC / "flowlab" / "cli.py").is_file():
        print(f"no flowlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    print(f"machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    w = Workload(args.workload, args.seed, args.scale)
    meta = w.meta
    print(f"capture: {w.name} seed={w.seed} packets={meta['packets']} "
          f"flows={meta['flows']} "
          f"peak_resident_flows={meta['peak_resident_flows']} "
          f"generate_s={meta['generate_s']:.3f}")

    budget = args.seconds / 2 if args.trace else args.seconds
    probes, samples, refs = measure(w, budget)
    report_samples(probes, samples, refs)
    failed = sum(1 for s in samples if s.error)
    attempted = len(samples)
    e2e = end_to_end(w, probes, samples)
    problems = []
    if args.trace:
        values, problems, traced, traced_failed = per_layer(
            w, statistics.median(s.wall_s for s in timed_runs(samples)))
        attempted += traced
        failed += traced_failed
        units = {name: unit for name, (unit, *_r) in spans.LAYERS.items()}
    else:
        values, units = e2e, END_TO_END
    for p in problems:
        print(f"FAILED check: {p}")
    print(f"digest: {w.name} seed={w.seed} {w.digest}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
