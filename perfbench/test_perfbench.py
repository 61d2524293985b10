"""Self-check of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

It runs every workload (several minutes), so it is not part of the
package's test suite.  It checks that every metric is emitted with its
unit, that traced self times add up, that no op fails at seed 0 and at a
held-out seed, and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 23

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "ops": "count", "ops_failed": "count"}
NAMED = {
    "example_sweep": {"rows_per_s": "rows/s", "scenario_s_p50": "s"},
    "sd_decode": {"tokens_per_s": "tok/s", "sd_step_ms_p50": "ms", "sd_step_ms_p95": "ms"},
    "trace_replay": {"accesses_per_s": "accesses/s"},
}
# Layers each workload never reaches: their counts must stay 0.
BYPASSED = {
    "example_sweep": ["expert_cache.powerlaw_calls"],
    "sd_decode": ["runner.scenario_s", "expert_cache.unique_experts_calls",
                  "expert_cache.lru_calls", "hwmodel.step_cost_calls"],
    "trace_replay": ["runner.scenario_s", "toymoe.step_calls.int8_full",
                     "bitnest.surrogate_calls", "hwmodel.step_cost_calls"],
}


def bench(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report), json.loads(result)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_failed_ops(workload, seed):
    seconds = SPEC["run_seconds"] if seed == 0 else 1
    report, result = parsed(bench(workload, seed, seconds, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert units(report["metrics"]) == {**COMMON, **NAMED[workload]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["metrics"]["ops_failed"]["value"] == 0
    assert report["metrics"]["ops"]["value"] == result["attempted"]
    env = report["env"]
    assert env["seed"] == seed and env["workload"] == workload
    for key in ("git_rev", "git_dirty", "python", "numpy", "scipy", "nproc", "loadavg_start"):
        assert key in env
    if workload == "sd_decode" and seed == 0:
        # p95 needs at least 10 samples beyond it.
        assert report["requests"] >= 200


def self_times(spans):
    """Independent of perfbench.spans: duration minus the union of the
    children's intervals."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, hi = 0.0, s["start"]
        for a, b in sorted(kids.get(s["id"], [])):
            a, b = max(a, hi), min(b, s["end"])
            if b > a:
                covered += b - a
                hi = b
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    report, result = parsed(bench(workload, 0, 1, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for name in BYPASSED[workload]:
        assert metrics[name] == 0, name

    lines = (ROOT / report["spans"]).read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    (root,) = [s for s in spans if s["parent"] is None]
    wall = root["end"] - root["start"]
    selfs = self_times(spans)
    assert min(selfs.values()) >= -1e-9
    # Every workload runs one request at a time, so self times partition
    # the pass: the layers' self times plus the root's own time are its wall.
    assert sum(selfs.values()) == pytest.approx(wall, abs=1e-6)
    if workload == "example_sweep":
        assert metrics["expert_cache.unique_experts_s"] >= 0.9 * wall
    assert "trace.overhead_share" in metrics


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
