"""
Elastic drafting with a pinned expert pool
==========================================

The toy mixture-of-experts model drafts a token tree using only a small
pool of hot experts at 4-bit precision, then verifies the tree at full
precision.  Greedy verification makes the emitted stream identical to
plain autoregressive decoding; the pool only changes how many draft
tokens survive per step.
"""

import numpy as np

from elasticmoe.toymoe import (
    MoEShape,
    PrecisionMode,
    gen_model,
    gen_routing_trace,
    greedy_decode,
    trace_scores,
)
from elasticmoe.elastic_sd import SdConfig, SdSession, sd_speedup

shape = MoEShape(d_model=32, d_ff=64, n_experts=8, top_k=2, n_layers=2, vocab=32)
model = gen_model(shape, seed=8)

# A sticky synthetic routing trace plays the role of real prompt data.
layer_traces = [
    gen_routing_trace(120, shape.n_experts, shape.top_k, 1.0, 0.85, seed=44 + i)
    for i in range(shape.n_layers)
]
traces = trace_scores(layer_traces)

cfg = SdConfig(width=2, depth=3, pool_capacity=4, seed=0)
session = SdSession(model, cfg, prompt=[3, 1], score_traces=traces)
run = session.run(30)

ar_tokens, _ = greedy_decode(model, [3, 1], 30, PrecisionMode.INT8_FULL, score_traces=traces)
print("draft/verify stream:", list(run.tokens)[:12], "...")
print("greedy stream:      ", ar_tokens[:12], "...")
assert list(run.tokens) == ar_tokens

print("\naccept length per step:", list(run.accept_lengths))
print("mean accept length:", run.mean_accept_length)

# The pool follows expert hotness; transfers stage next step's pool.
first, last = run.steps[0], run.steps[-1]
print("\npool at first step:", [np.flatnonzero(row).tolist() for row in first.pool])
print("pool at last step: ", [np.flatnonzero(row).tolist() for row in last.pool])
print("pieces transferred on step 0:", list(first.transfers))

# Feed the measured accept length into the closed-form speedup: a step
# costs depth drafts plus one verify instead of one decode per token.
speedup = sd_speedup(run.mean_accept_length, 1.0, cfg.depth, 0.15, 1.3)
print(f"\nprojected speedup at toy costs: {speedup:.2f}x")
