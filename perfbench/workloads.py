"""The benchmark workloads.

Each workload is a closed loop: one caller starts the next pass only after
the previous one finished.  Constructing a workload is its set-up (inputs
from the seed, untimed reference outputs); ``run_pass`` is the timed
work; ``check`` compares a pass's outputs with the reference afterwards,
outside the timed region, and returns how many ops failed.

Seed 0 reproduces the bundled inputs exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from elasticmoe import elastic_sd, expert_cache, runner, toymoe
from elasticmoe.bitnest import ReconstructMode
from elasticmoe.toymoe import MoEShape, PrecisionMode

import layers


@dataclasses.dataclass(frozen=True)
class Context:
    """What set-up may read and write: the checkout root, this workload's
    recorded reference digests (seed -> op -> sha256) and a scratch dir."""

    root: Path
    references: dict
    workdir: Path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reseeded(cfg: runner.ScenarioConfig, seed: int) -> runner.ScenarioConfig:
    """Offset the scenario's trace and draft-pool seeds by the workload seed."""
    return dataclasses.replace(
        cfg,
        trace=dataclasses.replace(cfg.trace, seed=cfg.trace.seed + seed),
        sd=dataclasses.replace(cfg.sd, seed=cfg.sd.seed + seed),
    )


class ExampleSweep:
    """The bundled configs/example.json through runner.run_scenarios: 1
    scenario, 6 schemes, batch 1/4/16, 18 rows, run sequentially.  Nearly
    all of a pass is the Monte Carlo unique-expert estimate at batch 4 and
    16; op = scenario, item = result row."""

    name = "example_sweep"
    item = "rows"
    timed_points = [layers.SCENARIO, layers.UNIQUE]
    request = layers.SCENARIO.name
    reference = "recorded digests"

    def __init__(self, seed: int, ctx: Context):
        self.configs = [_reseeded(c, seed)
                        for c in runner.load_config(runner.example_config_path())]
        self.expected = ctx.references.get(str(seed))
        self.golden = None
        if seed == 0:
            self.golden = (ctx.root / "tests" / "golden" / "example_sweep.csv").read_bytes()
            self.reference = "golden CSV and recorded digests"

    def run_pass(self, tracer) -> list[runner.ResultRow]:
        return runner.run_scenarios(self.configs)

    def op_digests(self, rows) -> dict[str, str]:
        by_id: dict[str, list] = {}
        for row in rows:
            by_id.setdefault(row.scenario_id, []).append(row)
        return {sid: digest(runner.render_csv(rs)) for sid, rs in by_id.items()}

    def ops(self) -> int:
        return len(self.configs)

    def items(self, rows) -> int:
        return len(rows)

    def check(self, rows) -> int:
        if self.golden is not None and runner.render_csv(rows).encode() != self.golden:
            return self.ops()
        got = self.op_digests(rows)
        return sum(got.get(c.scenario_id) != self.expected[c.scenario_id]
                   for c in self.configs)


# Example model shape and draft geometry for the SD sessions.
SD_SHAPE = MoEShape(d_model=64, d_ff=128, n_experts=16, top_k=2, n_layers=2, vocab=64)
SD_SESSIONS = 12
SD_NEW_TOKENS = 48
SD_PROMPT_LEN = 4


class SdDecode:
    """Back-to-back SdSession decodes; op = session, request = SD step,
    item = token.  Odd sessions route with injected Zipf traces like the
    sweep, even ones with the model's own router.  Bypasses runner,
    expert_cache and hwmodel."""

    name = "sd_decode"
    item = "tokens"
    timed_points = [layers.SD_STEP]
    request = layers.SD_STEP.name
    reference = "greedy_decode"

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        self.model = toymoe.gen_model(SD_SHAPE, seed=0)
        self.config = elastic_sd.SdConfig(
            width=2, depth=3, pool_capacity=8, hotness_decay=0.5,
            draft_reconstruct=ReconstructMode.LSB_AUGMENT, seed=seed,
        )
        self.sessions = []
        for i in range(SD_SESSIONS):
            prompt = rng.integers(0, SD_SHAPE.vocab, size=SD_PROMPT_LEN).tolist()
            traces = None
            if i % 2:
                trace_seed = int(rng.integers(0, 2**31))
                traces = toymoe.trace_scores([
                    toymoe.gen_routing_trace(160, SD_SHAPE.n_experts, SD_SHAPE.top_k,
                                             1.0, 0.8, trace_seed + 17 * layer)
                    for layer in range(SD_SHAPE.n_layers)
                ])
            self.sessions.append((prompt, traces))
        self.expected = [
            toymoe.greedy_decode(self.model, prompt, SD_NEW_TOKENS,
                                 PrecisionMode.INT8_FULL, score_traces=traces)[0]
            for prompt, traces in self.sessions
        ]

    def run_pass(self, tracer) -> list[list[int]]:
        streams = []
        for i, (prompt, traces) in enumerate(self.sessions):
            with tracer.span("elastic_sd.session", request=f"session{i}"):
                session = elastic_sd.SdSession(self.model, self.config, prompt,
                                               score_traces=traces)
                tokens: list[int] = []
                while len(tokens) < SD_NEW_TOKENS:
                    tokens.extend(session.step().emitted)
            streams.append(tokens[:SD_NEW_TOKENS])
        return streams

    def ops(self) -> int:
        return SD_SESSIONS

    def items(self, streams) -> int:
        return sum(len(s) for s in streams)

    def check(self, streams) -> int:
        return sum(s != e for s, e in zip(streams, self.expected))


# Trace geometry: 4 layers x 64 experts, top-2, 50k steps = 400k accesses.
TR_STEPS = 50_000
TR_LAYERS = 4
TR_EXPERTS = 64
TR_TOP_K = 2
TR_ZIPF = 0.8
TR_STICK = 0.3
TR_ITEM_BYTES = {"full": 1000, "msb": 500}
# Capacities in full items, for hit rates near 0.5, 0.85 and 1: below the
# hot set, near it, and above all 256 items.
TR_CAPACITIES = {"below": 8, "near": 32, "above": 256}


def sticky_zipf_selections(rng, n_steps, n_layers, n_experts, top_k, zipf, stick):
    """(steps, layers, top_k) expert ids: each (step, layer) either keeps the
    previous step's experts (probability ``stick``) or draws fresh top-k
    winners of an exponential race over Zipf popularities."""
    p = 1.0 / np.arange(1, n_experts + 1, dtype=np.float64) ** zipf
    p /= p.sum()
    fresh = np.empty((n_steps, n_layers, top_k), dtype=np.int64)
    for lo in range(0, n_steps, 8192):
        hi = min(lo + 8192, n_steps)
        scores = p * rng.exponential(1.0, size=(hi - lo, n_layers, n_experts))
        fresh[lo:hi] = np.argpartition(-scores, top_k - 1, axis=-1)[..., :top_k]
    fresh.sort(axis=-1)
    keep = rng.random((n_steps, n_layers)) < stick
    keep[0] = False
    source = np.where(keep, 0, np.arange(n_steps)[:, None])
    source = np.maximum.accumulate(source, axis=0)
    return np.take_along_axis(fresh, source[:, :, None], axis=0)


class TraceReplay:
    """A long sticky Zipf access trace through decisions_to_trace,
    write_trace, read_trace, then simulate_lru with a draft/verify phase
    map at three capacities, plus the closed-form hit rate at each;
    op = one LRU replay, item = access replayed."""

    name = "trace_replay"
    item = "accesses"
    timed_points = [layers.LRU]
    request = layers.LRU.name
    reference = "round trip and recorded digests"

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        sel = sticky_zipf_selections(rng, TR_STEPS, TR_LAYERS, TR_EXPERTS,
                                     TR_TOP_K, TR_ZIPF, TR_STICK).tolist()
        self.records = [
            (step, [(layer, e) for layer, experts in enumerate(row) for e in experts])
            for step, row in enumerate(sel)
        ]
        # Depth-3 drafting: three draft steps, then one verify.
        self.phase_map = {s: "verify" if s % 4 == 3 else "draft" for s in range(TR_STEPS)}
        self.path = ctx.workdir / "trace.csv"
        self.expected = ctx.references.get(str(seed))

    def run_pass(self, tracer) -> dict:
        trace = expert_cache.decisions_to_trace(self.records, "full")
        expert_cache.write_trace(trace, self.path)
        back = expert_cache.read_trace(self.path)
        out = {"roundtrip": back == trace, "replays": {}}
        for label, items in TR_CAPACITIES.items():
            config = expert_cache.CacheConfig(
                capacity_bytes=items * TR_ITEM_BYTES["full"], item_bytes=TR_ITEM_BYTES
            )
            res = expert_cache.simulate_lru(back, config, phase_map=self.phase_map)
            closed = expert_cache.powerlaw_lru_hitrate(
                TR_EXPERTS, TR_ZIPF, items / TR_LAYERS
            )
            out["replays"][label] = (res, closed)
        return out

    def op_digests(self, out) -> dict[str, str]:
        return {
            label: digest(json.dumps([
                res.hit_rate, res.accesses, res.hits, res.miss_bytes,
                sorted(res.miss_bytes_by_phase.items()), closed,
            ]))
            for label, (res, closed) in out["replays"].items()
        }

    def ops(self) -> int:
        return len(TR_CAPACITIES)

    def items(self, out) -> int:
        return sum(res.accesses for res, _ in out["replays"].values())

    def check(self, out) -> int:
        if not out["roundtrip"]:
            return self.ops()
        got = self.op_digests(out)
        return sum(got.get(label) != self.expected[label] for label in TR_CAPACITIES)


WORKLOADS = {w.name: w for w in (ExampleSweep, SdDecode, TraceReplay)}
