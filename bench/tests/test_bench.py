"""Self-test of the benchmark: every workload runs on a tiny capture, prints
every metric named in BENCHMARK.json with its unit, and passes its checks.

    python3 -m pytest -p no:cacheprovider bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert f"digest: {workload} seed=7 " in out.stdout


def test_spec_matches_layer_table():
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.LAYERS)
    for m in SPEC["per_layer"]:
        unit, better = spans.LAYERS[m["name"]][:2]
        assert (m["unit"], m["better"]) == (unit, better), m["name"]
    assert {w["name"] for w in SPEC["workloads"]} == {
        w for _, _, _, on in spans.LAYERS.values() for w in on.split()}


def test_refuses_without_flowlab_sources():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    out = run_bench(bare, "ingest-churn", 0)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert "correct" not in out.stdout
