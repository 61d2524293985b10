"""Layer bench of toymoe.step and SdSession.step (pytest-benchmark).

The file name does not match test_*.py, so the tier-1 run does not collect
it.  Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_step.py

step runs at T = 1 and 2 (draft levels of independent tokens) and T = 7
(a width-2, depth-3 verify tree), in both precisions, with and without an
8-expert pool; the session step is one draft/verify step of perfbench's
sd_decode geometry.  Each case reports min and median host time per call.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from elasticmoe.elastic_sd import SdConfig, SdSession, select_pool
from elasticmoe.toymoe import PrecisionMode, gen_model, prefill, step

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SD_PROMPT_LEN, SD_SHAPE  # noqa: E402

# Each token's source: a state or an earlier token of the call.
SOURCES = {1: [None], 2: [None, None], 7: [None, 0, 0, 1, 2, 3, 4]}


@pytest.fixture(scope="module")
def model():
    return gen_model(SD_SHAPE, seed=0)


@pytest.mark.parametrize("pooled", [False, True], ids=["free", "pool"])
@pytest.mark.parametrize("mode", list(PrecisionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n_tokens", sorted(SOURCES))
def test_step(benchmark, model, n_tokens, mode, pooled):
    root = prefill(model, [1, 2, 3], PrecisionMode.INT8_FULL)[0]
    sources = [root if src is None else src for src in SOURCES[n_tokens]]
    tokens = list(range(3, 3 + n_tokens))
    hotness = np.random.default_rng(0).random((SD_SHAPE.n_layers, SD_SHAPE.n_experts))
    permitted = select_pool(hotness, 8, SD_SHAPE.top_k).experts if pooled else None
    outs = benchmark(step, model, sources, tokens, mode, permitted)
    assert len(outs.states) == n_tokens


def test_session_step(benchmark, model):
    # One step of a fresh session, as sd_decode configures it.
    cfg = SdConfig(width=2, depth=3, pool_capacity=8, hotness_decay=0.5)
    prompt = list(range(1, 1 + SD_PROMPT_LEN))
    res = benchmark.pedantic(
        SdSession.step,
        setup=lambda: ((SdSession(model, cfg, prompt),), {}),
        rounds=300,
        warmup_rounds=5,
    )
    assert res.emitted
