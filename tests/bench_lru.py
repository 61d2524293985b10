"""Layer bench of expert_cache.simulate_lru (pytest-benchmark).

The file name does not match test_*.py, so the tier-1 run does not collect
it.  Run it from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_lru.py

Each case replays perfbench's trace_replay trace (400k sticky Zipf
accesses, seed 0) with its draft/verify phase map at one of the three
capacities.  "shared" replays one trace object whose key links an earlier
replay built; "fresh" replays a new trace each round, so it also pays the
key sort.  Each case reports min and median host time per replay.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from elasticmoe.expert_cache import SLICE_KINDS, AccessTrace, CacheConfig, simulate_lru

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import (  # noqa: E402
    TR_CAPACITIES, TR_EXPERTS, TR_ITEM_BYTES, TR_LAYERS, TR_STEPS, TR_STICK, TR_TOP_K,
    TR_ZIPF, sticky_zipf_selections,
)

PHASE_MAP = {s: "verify" if s % 4 == 3 else "draft" for s in range(TR_STEPS)}


@pytest.fixture(scope="module")
def columns():
    # The (step, layer, slot) order decisions_to_trace gives the workload.
    experts = sticky_zipf_selections(np.random.default_rng(0), TR_STEPS, TR_LAYERS,
                                     TR_EXPERTS, TR_TOP_K, TR_ZIPF, TR_STICK)
    step, layer, _ = np.indices(experts.shape).reshape(3, -1)
    kind = np.full(experts.size, SLICE_KINDS.index("full"))
    return layer, experts.ravel(), kind, step


@pytest.mark.parametrize("label", list(TR_CAPACITIES))
def test_replay_shared(benchmark, columns, label):
    config = CacheConfig(TR_CAPACITIES[label] * TR_ITEM_BYTES["full"], TR_ITEM_BYTES)
    trace = AccessTrace.from_columns(*columns)
    simulate_lru(trace, config, phase_map=PHASE_MAP)
    res = benchmark.pedantic(simulate_lru, (trace, config, PHASE_MAP), rounds=10)
    assert res.accesses == len(trace)


@pytest.mark.parametrize("label", list(TR_CAPACITIES))
def test_replay_fresh(benchmark, columns, label):
    config = CacheConfig(TR_CAPACITIES[label] * TR_ITEM_BYTES["full"], TR_ITEM_BYTES)
    res = benchmark.pedantic(
        simulate_lru,
        setup=lambda: ((AccessTrace.from_columns(*columns), config, PHASE_MAP), {}),
        rounds=10,
    )
    assert res.accesses == TR_STEPS * TR_LAYERS * TR_TOP_K
