"""Layer bench of toymoe.step and SdSession.step (pytest-benchmark).

The file name does not match test_*.py, so the tier-1 run does not collect
it.  Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_step.py

step runs at T = 1 and 2 (draft levels of independent tokens), T = 7
(a width-2, depth-3 verify tree) and T = 14 (two such trees from two
roots: the bundled example's verify call, its largest step call), in
both precisions, with and without an 8-expert pool; the expert kernel
toymoe._experts runs alone on the same T rows' layer-0 routing, on the
stored codes (FULL) and the draft's LSB_AUGMENT code set; the session
step is one draft/verify step of perfbench's sd_decode geometry, alone
and for two sessions stepped together.  Each case reports min and median
host time per call.  Only the expert kernel cases:

    PYTHONPATH=src python -m pytest tests/bench_step.py -k experts
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from elasticmoe import toymoe
from elasticmoe.bitnest import ReconstructMode
from elasticmoe.elastic_sd import SdConfig, SdSession, run_sessions, select_pool
from elasticmoe.toymoe import PrecisionMode, gen_model, prefill, step

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import SD_PROMPT_LEN, SD_SHAPE  # noqa: E402

# Each token's source: a state or an earlier token of the call.
SOURCES = {
    1: [None],
    2: [None, None],
    7: [None, 0, 0, 1, 2, 3, 4],
    14: [None, 0, 0, 1, 2, 3, 4, None, 7, 7, 8, 9, 10, 11],
}


@pytest.fixture(scope="module")
def model():
    return gen_model(SD_SHAPE, seed=0)


def step_inputs(model, n_tokens):
    # The sources and tokens of a T-token call from a 3-token prompt.
    root = prefill(model, [1, 2, 3], PrecisionMode.INT8_FULL)[0]
    sources = [root if src is None else src for src in SOURCES[n_tokens]]
    return sources, list(range(3, 3 + n_tokens))


@pytest.mark.parametrize("pooled", [False, True], ids=["free", "pool"])
@pytest.mark.parametrize("mode", list(PrecisionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n_tokens", sorted(SOURCES))
def test_step(benchmark, model, n_tokens, mode, pooled):
    sources, tokens = step_inputs(model, n_tokens)
    hotness = np.random.default_rng(0).random((SD_SHAPE.n_layers, SD_SHAPE.n_experts))
    pool = select_pool(hotness, 8, SD_SHAPE.top_k)
    permitted = np.repeat(pool[None], n_tokens, axis=0) if pooled else None
    outs = benchmark(step, model, sources, tokens, mode, permitted)
    assert len(outs.states) == n_tokens


@pytest.mark.parametrize(
    "rec", [ReconstructMode.FULL, ReconstructMode.LSB_AUGMENT], ids=lambda m: m.value
)
@pytest.mark.parametrize("n_tokens", sorted(SOURCES))
def test_experts(benchmark, model, n_tokens, rec):
    # The T tokens' layer-0 expert ids, on random rows of the kernel's
    # width; one untimed call builds the routed experts' code sets.
    ids = step(model, *step_inputs(model, n_tokens), PrecisionMode.INT8_FULL).selected[:, 0]
    x = np.random.default_rng(0).normal(size=(n_tokens, SD_SHAPE.d_model))
    args = (x, ids, model.experts[0], model.expert_scales[0], rec)
    toymoe._experts(*args)
    out = benchmark(toymoe._experts, *args)
    assert out.shape == (n_tokens, SD_SHAPE.top_k, SD_SHAPE.d_model)


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


def test_sessions_step_together(benchmark, model):
    # One lockstep round of two fresh sessions with different prompts: every
    # session emits at least one token per step, so run_sessions(..., 1)
    # steps each once, with one step call per draft depth and one verify.
    cfg = SdConfig(width=2, depth=3, pool_capacity=8, hotness_decay=0.5)
    prompts = [list(range(1, 1 + SD_PROMPT_LEN)), list(range(11, 11 + SD_PROMPT_LEN))]
    runs = benchmark.pedantic(
        run_sessions,
        setup=lambda: (([SdSession(model, cfg, p) for p in prompts], 1), {}),
        rounds=300,
        warmup_rounds=5,
    )
    assert [len(run.steps) for run in runs] == [1, 1]
