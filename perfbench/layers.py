"""Where the traced run hooks into elasticmoe, and the per-layer metrics it
derives from the spans.

Each patch point is a module attribute one layer calls another through.
``slicemac`` has none on purpose: nothing in the package calls it (it is
the datapath oracle the tests use), so it is left unmeasured.
"""

from __future__ import annotations

import inspect
import os
import statistics

import numpy as np

from elasticmoe import elastic_sd, expert_cache, hwmodel, runner, toymoe

from spans import PatchPoint, Span, self_times


def _step_mode(model, state, token, mode, *args, **kwargs) -> dict:
    return {"mode": mode.value}


def _step_result(res, *args, **kwargs) -> dict:
    return {
        "accept_length": res.accept_length,
        "verify_tokens": res.verify_token_count,
        "draft_calls": res.draft_step_calls,
        "transfers": len(res.transfers),
    }


_UNIQUE_SIG = inspect.signature(expert_cache.expected_unique_experts)


def _unique_key(*args, **kwargs) -> dict:
    bound = _UNIQUE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = dict(bound.arguments)
    if a["popularity"] is not None:
        a["popularity"] = np.asarray(a["popularity"], dtype=np.float64).tobytes().hex()
    return {"key": repr(sorted(a.items()))}


def _lru_result(res, *args, **kwargs) -> dict:
    return {"accesses": res.accesses, "hits": res.hits}


def _written_bytes(res, trace, path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Boundaries timed in every pass, traced or not: each workload's request
# (scenario, SD step, LRU replay), plus the Monte Carlo calls that are
# nearly all of a sweep's scenario.  One wrapper per timed call.
SCENARIO = PatchPoint(runner, "run_scenario", "runner.run_scenario",
                      request=lambda cfg: cfg.scenario_id)
UNIQUE = PatchPoint(expert_cache, "expected_unique_experts",
                    "expert_cache.expected_unique_experts", before=_unique_key)
SD_STEP = PatchPoint(elastic_sd.SdSession, "step", "elastic_sd.SdSession.step",
                     after=_step_result)
LRU = PatchPoint(expert_cache, "simulate_lru", "expert_cache.simulate_lru",
                 after=_lru_result)

# Everything the traced pass records.
ALL_POINTS = [
    SCENARIO,
    UNIQUE,
    SD_STEP,
    LRU,
    PatchPoint(toymoe, "gen_model", "toymoe.gen_model"),
    PatchPoint(toymoe, "greedy_decode", "toymoe.greedy_decode"),
    PatchPoint(toymoe, "step", "toymoe.step", before=_step_mode),
    PatchPoint(elastic_sd, "step", "toymoe.step", before=_step_mode),
    PatchPoint(toymoe, "surrogate_codes", "bitnest.surrogate_codes"),
    PatchPoint(elastic_sd, "draft_phase", "elastic_sd.draft_phase"),
    PatchPoint(elastic_sd, "verify_phase", "elastic_sd.verify_phase"),
    PatchPoint(expert_cache, "decisions_to_trace", "expert_cache.decisions_to_trace"),
    PatchPoint(expert_cache, "write_trace", "expert_cache.write_trace",
               after=_written_bytes),
    PatchPoint(expert_cache, "read_trace", "expert_cache.read_trace"),
    PatchPoint(expert_cache, "powerlaw_lru_hitrate", "expert_cache.powerlaw_lru_hitrate"),
    PatchPoint(hwmodel, "build_workloads", "hwmodel.build_workloads"),
    PatchPoint(hwmodel, "step_cost", "hwmodel.step_cost"),
]

MODES = ("int8_full", "msb4_draft")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], traced_wall: float, untraced_wall: float, comm_warnings: int
) -> dict[str, float]:
    """Per-layer counts and host times of one traced pass.  Times named
    ``*_s`` are inclusive span time unless the name says ``self``."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(sp.duration for sp in of(name))

    def self_sum(prefix):
        return sum(selfs[sp.span_id] for sp in spans if sp.name.startswith(prefix))

    m: dict[str, float] = {}
    m["runner.scenario_s"] = total("runner.run_scenario")
    m["runner.self_s"] = self_sum("runner.")

    m["toymoe.gen_model_calls"] = len(of("toymoe.gen_model"))
    m["toymoe.gen_model_s"] = total("toymoe.gen_model")
    m["toymoe.greedy_decode_calls"] = len(of("toymoe.greedy_decode"))
    m["toymoe.greedy_decode_s"] = total("toymoe.greedy_decode")
    for mode in MODES:
        steps = [sp for sp in of("toymoe.step") if sp.attrs["mode"] == mode]
        m[f"toymoe.step_calls.{mode}"] = len(steps)
        m[f"toymoe.step_s.{mode}"] = sum(sp.duration for sp in steps)
        m[f"toymoe.step_us_p50.{mode}"] = 1e6 * _p50([sp.duration for sp in steps])

    m["bitnest.surrogate_calls"] = len(of("bitnest.surrogate_codes"))
    m["bitnest.surrogate_s"] = total("bitnest.surrogate_codes")

    sd_steps = [sp.attrs for sp in of("elastic_sd.SdSession.step")]
    n = len(sd_steps)
    m["elastic_sd.session_steps"] = n
    m["elastic_sd.step_s"] = total("elastic_sd.SdSession.step")
    m["elastic_sd.draft_phase_s"] = total("elastic_sd.draft_phase")
    m["elastic_sd.verify_phase_s"] = total("elastic_sd.verify_phase")
    m["elastic_sd.session_self_s"] = self_sum("elastic_sd.")
    accepted = sum(a["accept_length"] for a in sd_steps)
    verified = sum(a["verify_tokens"] for a in sd_steps)
    m["elastic_sd.accept_length_mean"] = _ratio(accepted, n)
    m["elastic_sd.verify_tokens_per_step"] = _ratio(verified, n)
    m["elastic_sd.draft_calls_per_step"] = _ratio(sum(a["draft_calls"] for a in sd_steps), n)
    m["elastic_sd.accepted_per_verified"] = _ratio(accepted, verified)
    m["elastic_sd.transfers_per_step"] = _ratio(sum(a["transfers"] for a in sd_steps), n)

    unique = of("expert_cache.expected_unique_experts")
    m["expert_cache.unique_experts_calls"] = len(unique)
    m["expert_cache.unique_experts_distinct"] = len({sp.attrs["key"] for sp in unique})
    m["expert_cache.unique_experts_s"] = total("expert_cache.expected_unique_experts")
    m["expert_cache.unique_experts_ms_p50"] = 1e3 * _p50([sp.duration for sp in unique])
    lru = of("expert_cache.simulate_lru")
    lru_accesses = sum(sp.attrs["accesses"] for sp in lru)
    m["expert_cache.lru_calls"] = len(lru)
    m["expert_cache.lru_accesses"] = lru_accesses
    m["expert_cache.lru_hit_rate"] = _ratio(sum(sp.attrs["hits"] for sp in lru), lru_accesses)
    m["expert_cache.lru_s"] = total("expert_cache.simulate_lru")
    m["expert_cache.lru_accesses_per_s"] = _ratio(lru_accesses, m["expert_cache.lru_s"])
    m["expert_cache.trace_build_s"] = total("expert_cache.decisions_to_trace")
    m["expert_cache.trace_write_s"] = total("expert_cache.write_trace")
    m["expert_cache.trace_read_s"] = total("expert_cache.read_trace")
    m["expert_cache.trace_csv_mb"] = sum(
        sp.attrs["bytes"] for sp in of("expert_cache.write_trace")
    ) / 1e6
    m["expert_cache.powerlaw_calls"] = len(of("expert_cache.powerlaw_lru_hitrate"))
    m["expert_cache.powerlaw_s"] = total("expert_cache.powerlaw_lru_hitrate")

    m["hwmodel.build_workloads_calls"] = len(of("hwmodel.build_workloads"))
    m["hwmodel.step_cost_calls"] = len(of("hwmodel.step_cost"))
    m["hwmodel.s"] = self_sum("hwmodel.")
    m["hwmodel.comm_overlap_warnings"] = comm_warnings

    m["trace.overhead_share"] = _ratio(traced_wall - untraced_wall, untraced_wall)
    return m
