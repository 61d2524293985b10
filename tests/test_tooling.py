"""Checks on the test and benchmark tooling around the package."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from elasticmoe import expert_cache, runner, toymoe

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
import pytest
from hypothesis import given, settings, strategies as st

{marks}
@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''
# The two marks tests/test_toymoe.py puts on its warning-free properties.
ERROR_MARKS = """
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
@pytest.mark.filterwarnings("error")"""


def _assert_failure_reported(tmp_path, marks):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY.format(marks=marks))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_prop.py"),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "Falsifying example" in proc.stdout, out
    assert "INTERNALERROR" not in out


def test_bench_files_collect():
    # The pytest-benchmark files are outside tier-1; collecting them
    # imports them and their perfbench constants, so an API change that
    # breaks either fails here.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
            "tests/bench_lru.py", "tests/bench_step.py",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # Reporting a hypothesis failure imports libcst, which trips a
    # DeprecationWarning; under the repo's warning filters that must not
    # abort the run.
    _assert_failure_reported(tmp_path, marks="")


def test_failing_property_under_error_mark_is_reported(tmp_path):
    # A test's own "error" mark overrides pyproject's ignore; the ignore
    # repeated above the mark keeps the report from aborting the run.
    _assert_failure_reported(tmp_path, marks=ERROR_MARKS)


PERFBENCH_MODULES = ("layers", "spans", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's layers and spans modules, imported fresh and dropped
    afterwards (with its workloads module, when a test imports it)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in PERFBENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield importlib.import_module("layers"), importlib.import_module("spans")
    finally:
        for name in PERFBENCH_MODULES:
            sys.modules.pop(name, None)


def test_perfbench_hooks_exist(perfbench):
    # perfbench/run.py --trace 1 wraps these attributes, reading each from
    # its owner's own __dict__ (Tracer.patched), and reads step's mode as
    # its fourth positional argument; an API change that breaks either
    # fails here.
    layers, _ = perfbench
    for point in layers.ALL_POINTS:
        assert point.attr in vars(point.owner), point.name
    assert list(inspect.signature(toymoe.step).parameters)[3] == "mode"


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_perfbench_workloads_pass_their_checks(perfbench, tmp_path):
    # perfbench/test_perfbench.py is not tier-1 and takes minutes; this
    # builds every benchmark workload at seed 0 against its recorded
    # references and checks one untraced pass, so a package change that
    # breaks a workload's calls or outputs fails here.
    _, spans = perfbench
    workloads = importlib.import_module("workloads")
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    assert set(workloads.WORKLOADS) == {"example_sweep", "sd_decode", "trace_replay"}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        wl = cls(0, workloads.Context(ROOT, references.get(name, {}), workdir))
        assert wl.expected is not None, name
        out = wl.run_pass(spans.Tracer())
        assert wl.items(out) > 0, name
        assert wl.check(out) == 0, name


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_perfbench_hooks_read_real_results(perfbench, tmp_path):
    # Every timed pass runs these hooks on the package's own results (a
    # session step, an LRU replay, a unique-expert estimate's arguments),
    # so a field they read that the package drops would fail every
    # benchmark run.  A tiny scenario reaches every patch point but the
    # ones the runner never calls, which run here directly.  Its fast
    # links and external memory and no KV let the SD step beat AR, so the
    # runner draws the verify unique-expert estimate beside the AR one.
    layers, spans = perfbench
    cfg = runner.scenario_from_dict({
        "scenario_id": "tiny",
        "model": {"d_model": 32, "d_ff": 32, "n_experts": 4, "top_k": 2,
                  "n_layers": 1, "vocab": 8},
        "hw": {"aggr_link_bw_gbps": 1e5, "streamline_bw_gbps": 1e5, "ext_bw_gbps": 1e4},
        "batch_sizes": [1],
        "trace": {"n_tokens": 8},
        "sd": {"pool_capacity": 2},
        "run": {"n_new_tokens": 3, "seq_len": 0},
    })
    tracer = spans.Tracer()
    with tracer.patched(layers.ALL_POINTS):
        runner.run_scenario(cfg)
        model = toymoe.gen_model(cfg.shape, seed=0)
        toymoe.greedy_decode(model, [1], 2, toymoe.PrecisionMode.INT8_FULL)
        trace = expert_cache.decisions_to_trace([(0, [(0, 1), (0, 2)])], "full")
        expert_cache.write_trace(trace, tmp_path / "trace.csv")
        expert_cache.read_trace(tmp_path / "trace.csv")
        expert_cache.powerlaw_lru_hitrate(4, 1.0, 2.0)
    assert {sp.name for sp in tracer.spans} == {p.name for p in layers.ALL_POINTS}
    assert {sp.request for sp in tracer.spans} == {"tiny", None}
    m = layers.layer_metrics(tracer.spans, 1.0, 1.0, 0)
    assert m["elastic_sd.session_steps"] >= 1
    assert m["elastic_sd.verify_tokens_per_step"] == 1 + 2 * 3
    assert m["expert_cache.lru_accesses"] > 0
    assert m["expert_cache.unique_experts_distinct"] >= 2
    assert m["expert_cache.trace_csv_mb"] > 0
