"""Experiment orchestration: config files, scenario sweeps, CSV/JSON output.

A scenario bundles a toy model, a routing trace, a hardware config, and a
list of decoding schemes priced over a list of batch sizes.  One pass
evaluates it.  It builds the model, routing traces and prompt, and reads
the AR decode's routing off the traces (no AR token is decoded).  It runs
each functional SD scheme's SdSession once, all of them in lockstep
through elastic_sd.run_sessions (accept lengths, verify routing, pool
transfers), and makes one Monte Carlo unique-expert estimate for the AR
step at every batch size.  Then, per batch size, it prices the
XPU baseline and the AR step at each cache footprint the schemes use,
through the cache simulator and the hardware model, and a floor on each
session's SD step (hwmodel.sd_latency_floor: its price at 0 verify unique
experts, less the pool-update stall).  The floor is at most the SD step's
per-token latency at any expert count, bit for bit, so where it does not
beat the AR step mode_select would pick AR, and that row needs no verify
estimate and no SD price.  One more estimate covers the draw counts and
sessions of the rows whose floor does beat AR, and their SD steps are
priced; each entry equals the estimate for its own count and session
alone.

ar_only reports the AR step.  The other schemes report whichever is
faster per token, the AR step or their SD step: the functional schemes'
SD step is the one their session measured, and the analytic schemes' is
scaled from the AR step by their configured accept length and
draft/verify cost ratios (defaults are illustrative) at their configured
cache footprint.

Everything is deterministic given the config file: seeds are explicit,
scenario evaluation is pure, and rows are sorted before emission so
sequential and concurrent sweeps produce byte-identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import elastic_sd, expert_cache, hwmodel, toymoe
from .bitnest import ReconstructMode
from .hwmodel import Arch, HwConfig
from .toymoe import MoEShape


class ConfigError(Exception):
    """Bad config file: unparseable, unknown key, or invalid value."""


class RunnerError(Exception):
    """Scenario execution failed; message carries the scenario id."""


FUNCTIONAL_SCHEMES = ("ar_only", "elastic_sd", "random_pool_sd")
ANALYTIC_SCHEMES = ("eagle_sd", "slm_sd", "quant_sd")
ALL_SCHEMES = FUNCTIONAL_SCHEMES + ANALYTIC_SCHEMES

# Upper bounds on the fields that size a scenario's work, so that a
# scenario at all of them still runs in seconds.  A verify call steps
# 1 + width * depth tokens, a draft call width tokens and a prefill
# prompt_len tokens; a session runs at most n_new_tokens steps; the trace
# generator blends its n_tokens rows one by one; and the verify
# unique-expert estimate, where some SD step can beat AR, draws one stream
# of 4,000 Monte Carlo samples of the largest such batch * verify tokens
# routings (up to 64 * 65), each of n_experts exponentials, which serves
# every batch size and SD scheme that needs it.
# Each token steps n_layers layers of top_k d_model x d_ff experts and a
# d_model x vocab head.  The model highs keep the bundled example's width
# (d_model 64, d_ff 128, vocab 64) and allow 3 layers and 24 experts:
# experts cost most, through the estimate's draws, and at 32 the bounds
# scenario took 5.7-6.4 s against 5.0-5.6 s at 24 (2-vCPU x86_64 VM).
MAX_SD_WIDTH = 8
MAX_SD_DEPTH = 8
MAX_PROMPT_LEN = 256
MAX_NEW_TOKENS = 256
MAX_TRACE_TOKENS = 4096
MAX_BATCH = 64
MAX_EXPERTS = 24

# (section, key) -> inclusive (low, high) of every numeric config value
# outside the hw section, checked as the config is read.  model.top_k is
# bounded by model.n_experts, which MoEShape checks.  A Zipf exponent of
# at most 16 keeps each expert's popularity rank**-z far from float
# underflow for any expert count that fits in memory, so no routing score
# is 0.  The KV traffic a step prices grows with seq_len * kv_coeff, so
# both are bounded to keep latencies and energies finite.
RANGES = {
    ("model", "d_model"): (1, 64),
    ("model", "d_ff"): (1, 128),
    ("model", "n_experts"): (1, MAX_EXPERTS),
    ("model", "top_k"): (1, MAX_EXPERTS),
    ("model", "n_layers"): (1, 3),
    ("model", "vocab"): (1, 64),
    ("scenario", "batch_sizes"): (1, MAX_BATCH),
    ("trace", "n_tokens"): (1, MAX_TRACE_TOKENS),
    ("trace", "zipf_exponent"): (0, 16),
    ("trace", "correlation"): (0, 1),
    ("trace", "seed"): (0, math.inf),
    ("sd", "width"): (1, MAX_SD_WIDTH),
    ("sd", "depth"): (0, MAX_SD_DEPTH),
    ("sd", "pool_capacity"): (1, math.inf),
    ("sd", "hotness_decay_factor"): (0, 1),
    ("sd", "seed"): (0, math.inf),
    ("run", "prompt_len"): (1, MAX_PROMPT_LEN),
    ("run", "n_new_tokens"): (1, MAX_NEW_TOKENS),
    ("run", "seq_len"): (0, 2**20),
    ("run", "kv_coeff"): (0, 1e12),
    ("run", "model_seed"): (0, math.inf),
    ("analytic", "mean_accept"): (0, math.inf),
    ("analytic", "draft_cost_ratio"): (0, math.inf),
    ("analytic", "verify_cost_ratio"): (hwmodel.MIN_POSITIVE, math.inf),
    ("analytic", "depth"): (0, MAX_SD_DEPTH),
    ("analytic", "footprint_multiplier"): (1, math.inf),
}


@dataclass(frozen=True)
class TraceParams:
    """Synthetic routing-trace generator knobs; `RANGES` bounds each."""

    n_tokens: int = 160
    zipf_exponent: float = 1.0
    correlation: float = 0.8
    seed: int = 7


@dataclass(frozen=True)
class SdSchemeParams:
    """Speculative-decoding knobs for the functional schemes; `RANGES`
    bounds the numeric ones."""

    width: int = 2
    depth: int = 3
    pool_capacity: int = 8
    hotness_decay_factor: float = 0.5
    draft_reconstruct: str = "lsb_augment"
    seed: int = 0

    def __post_init__(self):
        # A draft reads the MSB slice, so FULL is no draft mode.
        drafts = [m.value for m in ReconstructMode if m is not ReconstructMode.FULL]
        if self.draft_reconstruct not in drafts:
            raise ConfigError(f"sd.draft_reconstruct must be one of {sorted(drafts)}")


@dataclass(frozen=True)
class RunParams:
    """Decode-run shape shared by every scheme in the scenario; `RANGES`
    bounds each field."""

    prompt_len: int = 4
    n_new_tokens: int = 24
    seq_len: int = 64
    kv_coeff: float = 2.0
    model_seed: int = 0


@dataclass(frozen=True)
class AnalyticParams:
    """Parameterized comparison scheme: costs relative to one AR step.

    Defaults are illustrative orderings, not measurements: the external
    drafter is cheap per call, the small standalone draft model costs
    more, and the re-quantized draft doubles the per-expert cache
    footprint.
    """

    mean_accept: float
    draft_cost_ratio: float
    verify_cost_ratio: float
    depth: int
    footprint_multiplier: float


_ANALYTIC_DEFAULTS = {
    "eagle_sd": AnalyticParams(
        mean_accept=2.8, draft_cost_ratio=0.10, verify_cost_ratio=1.6,
        depth=4, footprint_multiplier=1.1,
    ),
    "slm_sd": AnalyticParams(
        mean_accept=2.2, draft_cost_ratio=0.25, verify_cost_ratio=1.6,
        depth=4, footprint_multiplier=1.3,
    ),
    "quant_sd": AnalyticParams(
        mean_accept=2.4, draft_cost_ratio=0.50, verify_cost_ratio=1.6,
        depth=4, footprint_multiplier=2.0,
    ),
}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_id: str
    shape: MoEShape
    hw: HwConfig
    arch: Arch
    schemes: tuple[str, ...]
    batch_sizes: tuple[int, ...]
    trace: TraceParams
    sd: SdSchemeParams
    run: RunParams
    analytic: dict[str, AnalyticParams] = field(hash=False)

    def __post_init__(self):
        if not self.scenario_id:
            raise ConfigError("scenario_id must be a nonempty string")
        for s in self.schemes:
            if s not in ALL_SCHEMES:
                raise ConfigError(f"schemes: unknown scheme {s!r}")
        if not self.schemes:
            raise ConfigError("schemes must be nonempty")
        if not self.batch_sizes:
            raise ConfigError("batch_sizes must be nonempty")
        if not self.shape.top_k <= self.sd.pool_capacity <= self.shape.n_experts:
            raise ConfigError(
                "sd.pool_capacity must be in [model.top_k, model.n_experts] = "
                f"[{self.shape.top_k}, {self.shape.n_experts}]"
            )
        for name, params in self.analytic.items():
            # A tree step accepts at most depth draft tokens.
            if params.mean_accept > params.depth:
                raise ConfigError(
                    f"analytic.{name}.mean_accept must be at most "
                    f"analytic.{name}.depth = {params.depth}"
                )
        needs_ours = set(self.schemes) - {"ar_only"}
        if needs_ours and self.arch is not Arch.OURS:
            raise ConfigError(
                f"schemes {sorted(needs_ours)} require arch 'ours', got "
                f"{self.arch.value!r}"
            )
        if self.arch.has_hb:
            # Run prices every batch with dense weights, KV and, for a
            # functional SD scheme, the pinned draft pool in HB; the
            # largest batch needs the most.
            sd_listed = {"elastic_sd", "random_pool_sd"} & set(self.schemes)
            batch = max(self.batch_sizes)
            try:
                hwmodel.hb_headroom_bytes(
                    self.hw, self.shape, batch, self.run.seq_len, self.run.kv_coeff,
                    self.sd.pool_capacity if sd_listed else 0,
                )
            except (ValueError, OverflowError) as exc:
                msg = f"hw.hb_capacity_gib at batch {batch}: {exc}"
                raise ConfigError(msg) from None


@dataclass(frozen=True)
class ResultRow:
    """One (scenario, scheme, batch) outcome; floats are rounded to 9
    significant digits before storage so CSV and JSON agree exactly."""

    scenario_id: str
    scheme: str
    arch: str
    batch: int
    mode: str
    accept_length_mean: Optional[float]
    ar_hit_rate: float
    verify_msb_hit_rate: Optional[float]
    per_token_latency_s: float
    per_token_energy_j: float
    energy_compute_j: float
    energy_hb_mem_j: float
    energy_ext_mem_j: float
    energy_comm_j: float
    energy_static_j: float
    speedup_vs_xpu: float


CSV_COLUMNS = [f.name for f in dataclasses.fields(ResultRow)]


def _round9(x: float) -> float:
    return float(format(float(x), ".9g"))


def _opt_round9(x: Optional[float]) -> Optional[float]:
    return None if x is None else _round9(x)


# ---------------------------------------------------------------------------
# Config ingestion


_HW_TYPES = typing.get_type_hints(HwConfig)
# Config-file key -> HwConfig field.
_HW_FIELD_OF_KEY = {key: name for name, (key, *_) in hwmodel.HW_FIELDS.items()}


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown key {sorted(unknown)[0]!r}")


def _sub(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


def _check_number(label: str, value, typ, bounds=None) -> None:
    """int fields take an int, float fields an int or float; a bool is
    neither, though Python counts it as an int.  Either must be finite and
    within float range (NaN fails the comparison), and within the inclusive
    (low, high) bounds if given."""
    kinds, kind = ((int,), "an integer") if typ is int else ((int, float), "a number")
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"{label} must be {kind}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{label} must be finite and within float range")
    if bounds and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"{label} must be in [{bounds[0]:.12g}, {bounds[1]:.12g}]")


def _build_dataclass(section: str, cls, data: dict):
    """Build cls from a config section, checking keys, and the type and
    `RANGES` row of every int or float field, first.  An analytic.<scheme>
    section reads the analytic rows."""
    types = typing.get_type_hints(cls)
    _check_keys(section, data, types)
    for key, value in data.items():
        if types[key] in (int, float):
            row = RANGES.get((section.split(".")[0], key))
            _check_number(f"{section}.{key}", value, types[key], row)
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _hw_from_dict(data: dict) -> HwConfig:
    _check_keys("hw", data, _HW_FIELD_OF_KEY)
    kwargs = {}
    for key, raw in data.items():
        fname = _HW_FIELD_OF_KEY[key]
        typ, scale = _HW_TYPES[fname], hwmodel.HW_FIELDS[fname][1]
        _check_number(f"hw.{key}", raw, typ)
        kwargs[fname] = raw if typ is int else float(raw) * scale
        _check_number(f"hw.{key}", kwargs[fname], typ)
    try:
        return HwConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"hw: {exc}") from exc


_SCENARIO_KEYS = (
    "scenario_id", "model", "hw", "arch", "schemes", "batch_sizes",
    "trace", "sd", "run", "analytic",
)

_MODEL_DEFAULTS = dict(
    d_model=64, d_ff=128, n_experts=16, top_k=2, n_layers=2, vocab=64
)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build one validated scenario; every omitted key gets its default."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be an object")
    _check_keys("scenario", data, _SCENARIO_KEYS)
    if "scenario_id" not in data or not isinstance(data["scenario_id"], str):
        raise ConfigError("scenario_id is required and must be a string")
    shape = _build_dataclass(
        "model", MoEShape, {**_MODEL_DEFAULTS, **_sub(data, "model")}
    )
    arch_name = data.get("arch", "ours")
    try:
        arch = Arch(arch_name)
    except ValueError:
        raise ConfigError(
            f"arch: unknown architecture {arch_name!r}; expected one of "
            f"{[a.value for a in Arch]}"
        ) from None
    schemes = data.get("schemes", ["ar_only", "elastic_sd"])
    if not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes):
        raise ConfigError("schemes must be a list of strings")
    batches = data.get("batch_sizes", [1, 2, 4, 8])
    if not isinstance(batches, list):
        raise ConfigError("batch_sizes must be a list of integers")
    for b in batches:
        _check_number("batch_sizes", b, int, RANGES["scenario", "batch_sizes"])
    analytic = dict(_ANALYTIC_DEFAULTS)
    analytic_data = _sub(data, "analytic")
    _check_keys("analytic", analytic_data, ANALYTIC_SCHEMES)
    for name, params in analytic_data.items():
        if not isinstance(params, dict):
            raise ConfigError(f"analytic.{name} must be an object")
        merged = dataclasses.asdict(_ANALYTIC_DEFAULTS[name])
        _check_keys(f"analytic.{name}", params, merged)
        merged.update(params)
        analytic[name] = _build_dataclass(f"analytic.{name}", AnalyticParams, merged)
    return ScenarioConfig(
        scenario_id=data["scenario_id"],
        shape=shape,
        hw=_hw_from_dict(_sub(data, "hw")),
        arch=arch,
        schemes=tuple(schemes),
        batch_sizes=tuple(batches),
        trace=_build_dataclass("trace", TraceParams, _sub(data, "trace")),
        sd=_build_dataclass("sd", SdSchemeParams, _sub(data, "sd")),
        run=_build_dataclass("run", RunParams, _sub(data, "run")),
        analytic=analytic,
    )


def parse_config_text(text: str) -> list[ScenarioConfig]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(data, dict) and "scenarios" in data:
        _check_keys("top level", data, ("scenarios",))
        raw_list = data["scenarios"]
        if not isinstance(raw_list, list) or not raw_list:
            raise ConfigError("scenarios must be a nonempty list")
    elif isinstance(data, dict):
        raw_list = [data]
    else:
        raise ConfigError("config root must be an object")
    configs = [scenario_from_dict(item) for item in raw_list]
    ids = [c.scenario_id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("scenario_id values must be unique within a file")
    return configs


def example_config_path() -> str:
    """Filesystem path of the bundled example sweep config."""
    return str(resources.files("elasticmoe").joinpath("configs/example.json"))


def load_config(path: str) -> list[ScenarioConfig]:
    """Read and validate a JSON config file (one scenario object, or
    {"scenarios": [...]}); unknown keys anywhere are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Scenario execution


def _make_prompt(cfg: ScenarioConfig) -> list[int]:
    rng = np.random.default_rng(cfg.trace.seed + 1_000_003)
    return [int(t) for t in rng.integers(0, cfg.shape.vocab, size=cfg.run.prompt_len)]


def _popularity(trace: expert_cache.AccessTrace, n_experts: int) -> np.ndarray:
    """Each expert's share of a trace's accesses, summed over layers."""
    return np.bincount(trace.expert, minlength=n_experts) / len(trace)


def _access_trace(selected: np.ndarray, slice_kind: str) -> expert_cache.AccessTrace:
    """One slice_kind access per selected expert of (tokens, n_layers,
    top_k) expert ids, in token, layer, slot order, with no step ids: the
    runner replays its traces without a phase map."""
    _, n_layers, k = selected.shape
    return expert_cache.AccessTrace.from_columns(
        np.tile(np.repeat(np.arange(n_layers), k), len(selected)),
        selected.ravel(),
        np.full(selected.size, expert_cache.SLICE_KINDS.index(slice_kind)),
    )


def _lru_hit_rate(
    trace: expert_cache.AccessTrace,
    slice_kind: str,
    item_bytes: float,
    capacity_bytes: float,
) -> float:
    """Weighted LRU hit rate of a slice_kind access trace, every access one
    item of item_bytes; a capacity below one item means nothing is
    cacheable."""
    if not trace or capacity_bytes < item_bytes:
        return 0.0
    config = expert_cache.CacheConfig(
        capacity_bytes=capacity_bytes, item_bytes={slice_kind: item_bytes}
    )
    return expert_cache.simulate_lru(trace, config).hit_rate


def _footprint(cfg: ScenarioConfig, scheme: str) -> float:
    """Per-expert cache footprint relative to one full INT8 expert."""
    if scheme in ANALYTIC_SCHEMES:
        return cfg.analytic[scheme].footprint_multiplier
    return 1.0


def _decode_inputs(
    cfg: ScenarioConfig,
) -> tuple[toymoe.MoEModel, np.ndarray, list[int], np.ndarray]:
    """The scenario's model, routing-trace scores and prompt, and the
    (positions, n_layers, top_k) expert ids the AR decode routes to:
    position p of the prompt and new tokens routes on trace row p modulo
    the trace length, as greedy_decode would, so no AR token is decoded."""
    model = toymoe.gen_model(cfg.shape, seed=cfg.run.model_seed)
    traces = toymoe.trace_scores([
        toymoe.gen_routing_trace(
            cfg.trace.n_tokens,
            cfg.shape.n_experts,
            cfg.shape.top_k,
            cfg.trace.zipf_exponent,
            cfg.trace.correlation,
            cfg.trace.seed + 17 * layer,
        )
        for layer in range(cfg.shape.n_layers)
    ])
    rows = traces[np.arange(cfg.run.prompt_len + cfg.run.n_new_tokens) % len(traces)]
    ar_ids, _ = toymoe._select(rows.reshape(-1, cfg.shape.n_experts), cfg.shape.top_k)
    return model, traces, _make_prompt(cfg), ar_ids.reshape(len(rows), cfg.shape.n_layers, -1)


def _sd_sessions(
    cfg: ScenarioConfig,
    model: toymoe.MoEModel,
    prompt: list[int],
    traces: np.ndarray,
    schemes: list[str],
) -> dict[str, tuple[hwmodel.SdParams, expert_cache.AccessTrace]]:
    """Run each scheme's speculative session once, all of them in lockstep
    (elastic_sd.run_sessions; they differ only in pool strategy).  Returns
    each scheme's SD step parameters and its verified tokens' routing as
    an MSB access trace."""
    sessions = [
        elastic_sd.SdSession(model, elastic_sd.SdConfig(
            width=cfg.sd.width,
            depth=cfg.sd.depth,
            pool_capacity=cfg.sd.pool_capacity,
            hotness_decay=cfg.sd.hotness_decay_factor,
            draft_reconstruct=ReconstructMode(cfg.sd.draft_reconstruct),
            pool_strategy="random" if scheme == "random_pool_sd" else "hotness",
            seed=cfg.sd.seed,
        ), prompt, score_traces=traces)
        for scheme in schemes
    ]
    measured = {}
    for scheme, run in zip(schemes, elastic_sd.run_sessions(sessions, cfg.run.n_new_tokens)):
        sd = hwmodel.SdParams(
            width=cfg.sd.width,
            depth=cfg.sd.depth,
            verify_tokens=float(np.mean([s.verify_token_count for s in run.steps])),
            pool_size=cfg.sd.pool_capacity,
            mean_accept=run.mean_accept_length,
            transfer_pieces_per_step=float(np.mean([len(s.transfers) for s in run.steps])),
        )
        verify = np.concatenate([s.verify_selected for s in run.steps])
        measured[scheme] = sd, _access_trace(verify, "msb")
    return measured


def _workloads(
    cfg: ScenarioConfig,
    arch: Arch,
    batch: int,
    ar_hit: float,
    ar_unique: float,
    sd: Optional[hwmodel.SdParams] = None,
    verify_hit: float = 0.0,
    verify_unique: float = 0.0,
) -> dict[str, hwmodel.PhaseWorkload]:
    """Phase tallies of one AR step on arch, and of one SD step when sd is
    given."""
    return hwmodel.build_workloads(
        cfg.hw, arch, cfg.shape, batch,
        seq_len=cfg.run.seq_len,
        ar_hit_rate=ar_hit,
        ar_unique_experts=ar_unique,
        sd=sd,
        verify_msb_hit_rate=verify_hit,
        verify_unique_experts=verify_unique,
        kv_coeff=cfg.run.kv_coeff,
    )


def _step_cost(
    cfg: ScenarioConfig,
    arch: Arch,
    batch: int,
    ar_hit: float,
    ar_unique: float,
    sd: Optional[hwmodel.SdParams] = None,
    verify_hit: float = 0.0,
    verify_unique: float = 0.0,
) -> hwmodel.StepCost:
    """Cost of one AR step on arch, or of one SD step when sd is given."""
    wl = _workloads(cfg, arch, batch, ar_hit, ar_unique, sd, verify_hit, verify_unique)
    return hwmodel.step_cost(cfg.hw, arch, wl, "ar" if sd is None else "sd", batch, sd=sd)


def _scenario_rows(cfg: ScenarioConfig) -> list[ResultRow]:
    """Every scheme's rows, ordered by (scheme, batch) as configured, from
    one pass over the scenario (see the module docstring)."""
    model, traces, prompt, ar_selected = _decode_inputs(cfg)
    ar_trace = _access_trace(ar_selected, "full")
    ar_unique = expert_cache.expected_unique_experts(
        cfg.batch_sizes, cfg.shape.top_k, cfg.shape.n_experts,
        popularity=_popularity(ar_trace, cfg.shape.n_experts), seed=cfg.trace.seed,
    ).tolist()
    schemes = dict.fromkeys(cfg.schemes)  # a scheme listed twice is evaluated once
    sessions = _sd_sessions(
        cfg, model, prompt, traces,
        [s for s in schemes if s in FUNCTIONAL_SCHEMES and s != "ar_only"],
    )
    full_item = hwmodel.expert_bytes_full(cfg.shape)
    msb_item = hwmodel.expert_bytes_msb(cfg.shape)
    footprints = sorted({_footprint(cfg, s) for s in schemes})
    # Per batch (by index): the XPU step's per-token latency, the AR hit
    # rate and step per cache footprint, and, for each session whose SD
    # step's floor beats the AR step, its verify tokens routed: batch *
    # mean verify tokens per step.
    xpu, ar, draws = [], {}, {}
    for i, batch in enumerate(cfg.batch_sizes):
        xpu.append(_step_cost(cfg, Arch.XPU, batch, 0.0, ar_unique[i]).per_token_latency)
        capacity = hwmodel.hb_headroom_bytes(
            cfg.hw, cfg.shape, batch, cfg.run.seq_len, cfg.run.kv_coeff
        ) if cfg.arch.has_hb else 0.0
        for footprint in footprints:
            hit = _lru_hit_rate(ar_trace, "full", full_item * footprint, capacity)
            ar[i, footprint] = hit, _step_cost(cfg, cfg.arch, batch, hit, ar_unique[i])
        for s, (sd, _) in sessions.items():
            # Where the floor does not beat AR, neither does the SD step
            # at any verify unique-expert count, so mode_select picks AR
            # and the estimate is not drawn.
            ar_hit, ar_cost = ar[i, _footprint(cfg, s)]
            wl = _workloads(cfg, cfg.arch, batch, ar_hit, ar_unique[i], sd, verify_unique=0.0)
            if hwmodel.sd_latency_floor(cfg.hw, wl, batch, sd) < ar_cost.per_token_latency:
                draws[s, i] = max(1, int(round(batch * sd.verify_tokens)))
    # One verify estimate over the draw counts and popularities those steps
    # need; each entry equals the call for its own count and row alone.
    needing = list(dict.fromkeys(s for s, _ in draws))
    all_draws = sorted(set(draws.values()))
    estimates = expert_cache.expected_unique_experts(
        all_draws, cfg.shape.top_k, cfg.shape.n_experts,
        popularity=[_popularity(sessions[s][1], cfg.shape.n_experts) for s in needing],
        seed=cfg.trace.seed + 1,
    ).tolist() if draws else []
    estimate_of = dict(zip(needing, estimates))
    rows = {s: [] for s in schemes}
    for i, batch in enumerate(cfg.batch_sizes):
        sd_capacity = hwmodel.hb_headroom_bytes(
            cfg.hw, cfg.shape, batch, cfg.run.seq_len, cfg.run.kv_coeff,
            cfg.sd.pool_capacity,
        ) if sessions else 0.0
        for scheme in schemes:
            ar_hit, ar_cost = ar[i, _footprint(cfg, scheme)]
            accept = verify_hit = sd_cost = None
            if scheme in sessions:
                sd, verify_trace = sessions[scheme]
                accept = sd.mean_accept
                verify_hit = _lru_hit_rate(verify_trace, "msb", msb_item, sd_capacity)
                if (scheme, i) in draws:
                    verify_unique = estimate_of[scheme][all_draws.index(draws[scheme, i])]
                    sd_cost = _step_cost(
                        cfg, cfg.arch, batch, ar_hit, ar_unique[i], sd, verify_hit,
                        verify_unique,
                    )
            elif scheme in ANALYTIC_SCHEMES:
                params = cfg.analytic[scheme]
                accept = params.mean_accept
                scale = params.depth * params.draft_cost_ratio + params.verify_cost_ratio
                sd_cost = hwmodel.StepCost(
                    latency=ar_cost.latency * scale,
                    tokens=batch * (1.0 + accept),
                    energy={k: v * scale for k, v in ar_cost.energy.items()},
                )
            mode, chosen = (
                ("ar", ar_cost) if sd_cost is None
                else hwmodel.mode_select(ar_cost, sd_cost)
            )
            energy = {k: _round9(v / chosen.tokens) for k, v in chosen.energy.items()}
            rows[scheme].append(ResultRow(
                scenario_id=cfg.scenario_id,
                scheme=scheme,
                arch=cfg.arch.value,
                batch=batch,
                mode=mode,
                accept_length_mean=_opt_round9(accept),
                ar_hit_rate=_round9(ar_hit),
                verify_msb_hit_rate=_opt_round9(verify_hit),
                per_token_latency_s=_round9(chosen.per_token_latency),
                per_token_energy_j=_round9(chosen.per_token_energy),
                energy_compute_j=energy["compute"],
                energy_hb_mem_j=energy["hb_mem"],
                energy_ext_mem_j=energy["ext_mem"],
                energy_comm_j=energy["comm"],
                energy_static_j=energy["static"],
                speedup_vs_xpu=_round9(xpu[i] / chosen.per_token_latency),
            ))
    return [row for scheme in cfg.schemes for row in rows[scheme]]


def run_scenario(cfg: ScenarioConfig) -> list[ResultRow]:
    """All rows for one scenario, ordered by (scheme, batch) as configured;
    a float that is not finite in any row is a RunnerError."""
    try:
        rows = _scenario_rows(cfg)
        for row in rows:
            for name, value in vars(row).items():
                if isinstance(value, float) and not math.isfinite(value):
                    where = f"{row.scheme} batch {row.batch}"
                    raise ArithmeticError(f"{where}: {name} is {value}")
        return rows
    except (ValueError, KeyError, ArithmeticError, MemoryError) as exc:
        detail = str(exc) or type(exc).__name__
        raise RunnerError(f"scenario {cfg.scenario_id!r}: {detail}") from exc


def run_scenarios(
    configs: list[ScenarioConfig], max_workers: Optional[int] = None
) -> list[ResultRow]:
    """Evaluate scenarios (concurrently when max_workers > 1) and return
    rows sorted by scenario id so output never depends on schedule."""
    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            per_scenario = list(pool.map(run_scenario, configs))
    else:
        per_scenario = [run_scenario(c) for c in configs]
    order = sorted(range(len(configs)), key=lambda i: configs[i].scenario_id)
    rows: list[ResultRow] = []
    for i in order:
        rows.extend(per_scenario[i])
    return rows


# ---------------------------------------------------------------------------
# Emission


def render_csv(rows: list[ResultRow]) -> str:
    if not rows:
        raise RunnerError("no result rows to emit")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        record = dataclasses.asdict(row)
        line = []
        for col in CSV_COLUMNS:
            value = record[col]
            if value is None:
                line.append("")
            elif isinstance(value, float):
                line.append(format(value, ".9g"))
            else:
                line.append(str(value))
        writer.writerow(line)
    return out.getvalue()


def render_json(rows: list[ResultRow]) -> str:
    if not rows:
        raise RunnerError("no result rows to emit")
    return json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n"


def emit(rows: list[ResultRow], fmt: str, path: str) -> None:
    """Write rows to path ("-" for stdout) as csv or json; empty results
    are an error."""
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = render_json(rows)
    else:
        raise RunnerError(f"unknown output format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Ablation suites


ABLATION_SUITES = ("hotness_vs_random", "bit_axis", "cache_capacity")


def _ablation_configs(which: str) -> list[ScenarioConfig]:
    base = {
        "model": {"n_experts": 16, "top_k": 2},
        "hw": {"hb_capacity_gib": 0.001},
        "batch_sizes": [1],
        "trace": {"correlation": 0.9, "zipf_exponent": 1.0, "n_tokens": 160},
        "run": {"n_new_tokens": 30},
        "sd": {"pool_capacity": 6},
    }
    if which == "hotness_vs_random":
        configs = []
        for seed in range(6):
            d = json.loads(json.dumps(base))
            d["scenario_id"] = f"hotness_vs_random/seed{seed}"
            d["schemes"] = ["elastic_sd", "random_pool_sd"]
            d["trace"]["seed"] = 100 + seed
            d["sd"]["seed"] = seed
            configs.append(scenario_from_dict(d))
        return configs
    if which == "bit_axis":
        configs = []
        for axis in ("truncate", "lsb_augment", "msb_round"):
            for seed in range(4):
                d = json.loads(json.dumps(base))
                d["scenario_id"] = f"bit_axis/{axis}/seed{seed}"
                d["schemes"] = ["elastic_sd"]
                d["trace"]["seed"] = 200 + seed
                d["sd"]["seed"] = seed
                d["sd"]["draft_reconstruct"] = axis
                d["sd"]["pool_capacity"] = 16
                configs.append(scenario_from_dict(d))
        return configs
    if which == "cache_capacity":
        configs = []
        for i, gib in enumerate((0.0003, 0.0005, 0.001, 0.002, 0.004)):
            d = json.loads(json.dumps(base))
            d["scenario_id"] = f"cache_capacity/{i}_{gib:g}gib"
            d["schemes"] = ["ar_only", "elastic_sd"]
            d["hw"]["hb_capacity_gib"] = gib
            # Flat, weakly sticky routing so the working set exceeds the
            # smallest capacities and the sweep actually bites.
            d["trace"]["zipf_exponent"] = 0.5
            d["trace"]["correlation"] = 0.3
            d["run"]["n_new_tokens"] = 60
            configs.append(scenario_from_dict(d))
        return configs
    raise ConfigError(
        f"unknown ablation suite {which!r}; expected one of {list(ABLATION_SUITES)}"
    )


def ablation_suite(which: str, max_workers: Optional[int] = None) -> list[ResultRow]:
    """Run one bundled paired-comparison suite and return its rows."""
    return run_scenarios(_ablation_configs(which), max_workers=max_workers)
