"""Analytical latency and energy model for tiered-memory MoE decoding.

Every phase is priced by one full-overlap roofline (`phase_latency`): its
latency is the largest of four resource times, namely reads from the
stacked high-bandwidth (HB) tier, reads from external memory, compute, and
link traffic.  Each tier's usable bandwidth is its raw bandwidth less a
fixed utilization derate.  Architectures with the HB tier (`Arch.has_hb`)
compute at the PE array's peak rate; the plain xPU reads everything from
external memory and computes at its own rate.  The in/near-memory
baselines get an internal tier instead, with expert work split between
that tier and the host so that step latency is minimized
(`offload_split`).

Workload tallies count weight traffic in code bytes (scale metadata is
excluded, so an MSB slice is exactly half an expert) and compute in
full-precision MAC units (a 4-bit draft MAC counts half, since the sliced
datapath retires two per unit).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Optional

from .toymoe import MoEShape

GIB = 1024**3
PSUM_BYTES = 4
# Least value of a positive hw field: products of a few such rates and
# multipliers stay far from 0, so step latencies stay finite.
MIN_POSITIVE = 1e-30
# Greatest value of any hw field.  At the runner's size bounds a step moves
# under 1e25 bytes and 1e11 MACs (KV: kv_coeff 1e12 x 64 * 65 verify tokens
# x seq_len 2**20 x 3 layers x d_model 64, and at most 8 draft phases), and
# every rate it is priced at is above 1e-91: the slowest is an NMP tier's
# share of 1e-30 of 1e-30 B/s times a multiplier of 1e-30, and the external
# rate left to a pool transfer is at least an ulp of a usable rate of over
# 1e-47.  So a step takes under 1e116 s, and powers and per-bit or per-MAC
# energies of at most this keep every energy under 1e147 J.  The fastest
# read is 1e60 B/s (1e30 banks of 1e30 B/s), so a step, which reads at
# least 4 dense bytes, scaled by an analytic cost ratio of 1e-30 and split
# over 64 * 9 tokens, takes over 1e-93 s a token, and every speedup is
# under 1e209.
MAX_VALUE = 1e30

# HwConfig field -> (config-file key, unit scale from the key's unit to the
# field's, least and greatest accepted field values).  Rates, capacities,
# counts and multipliers must be positive; energies and derates may be 0,
# and a derate must stay below 1.
HW_FIELDS = {
    "hb_banks": ("hb_banks", 1, MIN_POSITIVE, MAX_VALUE),
    "hb_bw_per_bank": ("hb_bw_per_bank_gbps", 1e9, MIN_POSITIVE, MAX_VALUE),
    "hb_capacity_bytes": ("hb_capacity_gib", GIB, MIN_POSITIVE, MAX_VALUE),
    "ext_bw": ("ext_bw_gbps", 1e9, MIN_POSITIVE, MAX_VALUE),
    "macs_per_pe_per_cycle": ("macs_per_pe_per_cycle", 1, MIN_POSITIVE, MAX_VALUE),
    "clock_hz": ("clock_ghz", 1e9, MIN_POSITIVE, MAX_VALUE),
    "aggr_link_bw": ("aggr_link_bw_gbps", 1e9, MIN_POSITIVE, MAX_VALUE),
    "streamline_bw": ("streamline_bw_gbps", 1e9, MIN_POSITIVE, MAX_VALUE),
    "hb_energy_per_bit": ("hb_energy_pj_per_bit", 1e-12, 0, MAX_VALUE),
    "ext_energy_per_bit": ("ext_energy_pj_per_bit", 1e-12, 0, MAX_VALUE),
    "comm_energy_per_bit": ("comm_energy_pj_per_bit", 1e-12, 0, MAX_VALUE),
    "compute_energy_per_mac": ("compute_energy_pj_per_mac", 1e-12, 0, MAX_VALUE),
    "static_power_w": ("static_power_w", 1, 0, MAX_VALUE),
    "hb_derate": ("hb_derate", 1, 0, 1),
    "ext_derate": ("ext_derate", 1, 0, 1),
    "xpu_compute_macs": ("xpu_compute_tmacs", 1e12, MIN_POSITIVE, MAX_VALUE),
    "pim_compute_macs": ("pim_compute_tmacs", 1e12, MIN_POSITIVE, MAX_VALUE),
    "pim_bw_multiplier": ("pim_bw_multiplier", 1, MIN_POSITIVE, MAX_VALUE),
    "logic_pim_bw_multiplier": ("logic_pim_bw_multiplier", 1, MIN_POSITIVE, MAX_VALUE),
    "logic_pim_compute_multiplier": (
        "logic_pim_compute_multiplier", 1, MIN_POSITIVE, MAX_VALUE
    ),
    "nmp_channels": ("nmp_channels", 1, 1, MAX_VALUE),
    "total_channels": ("total_channels", 1, 2, MAX_VALUE),
    "nmp_compute_macs": ("nmp_compute_tmacs", 1e12, MIN_POSITIVE, MAX_VALUE),
    "nmp_internal_multiplier": ("nmp_internal_multiplier", 1, MIN_POSITIVE, MAX_VALUE),
}


class Arch(enum.Enum):
    XPU = "xpu"
    XPU_PIM = "xpu_pim"
    XPU_LOGIC_PIM = "xpu_logic_pim"
    XPU_NMP = "xpu_nmp"
    HB_XPU = "hb_xpu"
    OURS = "ours"

    @property
    def has_hb(self) -> bool:
        """Whether the architecture has the stacked high-bandwidth tier."""
        return self in (Arch.HB_XPU, Arch.OURS)


class CommOverlapWarning(UserWarning):
    """Communication takes longer than the external fetch it should hide
    under."""


@dataclass(frozen=True)
class HwConfig:
    """System parameters; defaults describe the 32-bank configuration.

    Memory bandwidths and capacities are bytes/s and bytes.  Compute is
    full-precision MACs/s (one PE per HB bank).  The energy constants for
    compute, communication, and static power are illustrative placeholders
    chosen so every decomposition component is visible in plots; the two
    memory energies are per-bit access costs.
    """

    hb_banks: int = 32
    hb_bw_per_bank: float = 51.2e9
    hb_capacity_bytes: float = 8 * GIB
    ext_bw: float = 102.4e9
    macs_per_pe_per_cycle: int = 16 * 32 * 32
    clock_hz: float = 1.0e9
    aggr_link_bw: float = 32.0e9
    streamline_bw: float = 128.0e9
    hb_energy_per_bit: float = 0.43e-12
    ext_energy_per_bit: float = 3.88e-12
    comm_energy_per_bit: float = 0.8e-12
    compute_energy_per_mac: float = 0.5e-12
    static_power_w: float = 5.0
    hb_derate: float = 0.03
    ext_derate: float = 0.01
    xpu_compute_macs: float = 262.144e12
    pim_compute_macs: float = 1.64e12
    pim_bw_multiplier: float = 8.0
    logic_pim_bw_multiplier: float = 4.0
    logic_pim_compute_multiplier: float = 4.0
    nmp_channels: int = 2
    total_channels: int = 8
    nmp_compute_macs: float = 13.1e12
    nmp_internal_multiplier: float = 8.0

    def __post_init__(self):
        for name, (_, _, low, high) in HW_FIELDS.items():
            if not low <= getattr(self, name) <= high:
                raise ValueError(f"{name} must be in [{low:g}, {high:g}]")
        if not (self.hb_derate < 1 and self.ext_derate < 1):
            raise ValueError("derates must be in [0, 1)")
        if not self.nmp_channels < self.total_channels:
            raise ValueError("nmp_channels must leave the host at least one channel")
        if not min(self.nmp_share, 1 - self.nmp_share) >= MIN_POSITIVE:
            raise ValueError(
                f"nmp_channels / total_channels and the host's share must each be "
                f"at least {MIN_POSITIVE:g}"
            )

    @property
    def nmp_share(self) -> float:
        """Share of the external channels the NMP tier reserves."""
        return self.nmp_channels / self.total_channels

    @property
    def peak_compute_macs(self) -> float:
        """One PE per bank: banks * per-PE MAC rate * clock."""
        return self.hb_banks * self.macs_per_pe_per_cycle * self.clock_hz

    @property
    def usable_hb_bw(self) -> float:
        """All banks' bandwidth less the HB derate."""
        return self.hb_banks * self.hb_bw_per_bank * (1 - self.hb_derate)

    @property
    def usable_ext_bw(self) -> float:
        """External bandwidth less the external derate."""
        return self.ext_bw * (1 - self.ext_derate)


@dataclass(frozen=True)
class InternalTier:
    """Bandwidth and compute of a baseline's in/near-memory tier, and the
    external bandwidth that remains to the host."""

    internal_bw: float
    internal_compute: float
    host_ext_bw: float


def internal_tier(arch: Arch, cfg: HwConfig) -> Optional[InternalTier]:
    """Internal-tier parameters for the in/near-memory baselines, None for
    architectures without one.

    The bank-level variants multiply external bandwidth while exposing a
    modest MAC rate; the channel-level variant reserves part of the
    channels (shrinking what the host keeps) and sees rank-level
    parallelism on its share via the internal multiplier.
    """
    if arch is Arch.XPU_PIM:
        return InternalTier(
            internal_bw=cfg.pim_bw_multiplier * cfg.ext_bw,
            internal_compute=cfg.pim_compute_macs,
            host_ext_bw=cfg.ext_bw,
        )
    if arch is Arch.XPU_LOGIC_PIM:
        return InternalTier(
            internal_bw=cfg.logic_pim_bw_multiplier * cfg.ext_bw,
            internal_compute=cfg.logic_pim_compute_multiplier * cfg.pim_compute_macs,
            host_ext_bw=cfg.ext_bw,
        )
    if arch is Arch.XPU_NMP:
        share = cfg.nmp_share
        return InternalTier(
            internal_bw=share * cfg.ext_bw * cfg.nmp_internal_multiplier,
            internal_compute=cfg.nmp_compute_macs,
            host_ext_bw=(1 - share) * cfg.ext_bw,
        )
    return None


@dataclass(frozen=True)
class PhaseWorkload:
    """Byte/MAC/communication tallies for one execution phase.

    offload_expert_bytes/macs mark the portion of ext_bytes/macs that an
    internal-tier baseline may execute in memory; both stay zero for
    architectures that run everything in place.
    """

    name: str
    hb_bytes: float = 0.0
    ext_bytes: float = 0.0
    macs: float = 0.0
    comm_bytes_aggr: float = 0.0
    comm_bytes_streamline: float = 0.0
    offload_expert_bytes: float = 0.0
    offload_expert_macs: float = 0.0

    def __post_init__(self):
        for f_name in (
            "hb_bytes",
            "ext_bytes",
            "macs",
            "comm_bytes_aggr",
            "comm_bytes_streamline",
            "offload_expert_bytes",
            "offload_expert_macs",
        ):
            if getattr(self, f_name) < 0:
                raise ValueError(f"{f_name} must be nonnegative")
        if self.offload_expert_bytes > self.ext_bytes:
            raise ValueError("offloadable bytes exceed external bytes")
        if self.offload_expert_macs > self.macs:
            raise ValueError("offloadable MACs exceed total MACs")


def phase_latency(cfg: HwConfig, workload: PhaseWorkload, compute_macs: float) -> float:
    """Full-overlap phase latency: the largest of the HB read, external read,
    compute (at compute_macs MACs/s) and link times.  Warns with
    CommOverlapWarning when the phase reads external memory and its link
    time exceeds that read, which the links should hide under."""
    w = workload
    hb_time = w.hb_bytes / cfg.usable_hb_bw
    ext_time = w.ext_bytes / cfg.usable_ext_bw
    link_time = max(
        w.comm_bytes_aggr / cfg.aggr_link_bw,
        w.comm_bytes_streamline / cfg.streamline_bw,
    )
    if w.ext_bytes > 0 and link_time > ext_time:
        warnings.warn(
            f"{w.name}: communication time {link_time:.3e}s exceeds the "
            f"external fetch time {ext_time:.3e}s it should hide under",
            CommOverlapWarning,
            stacklevel=2,
        )
    return max(hb_time, ext_time, w.macs / compute_macs, link_time)


def expert_bytes_full(shape: MoEShape) -> float:
    """INT8 code bytes of one expert's three projections."""
    return 3.0 * shape.d_model * shape.d_ff


def expert_bytes_msb(shape: MoEShape) -> float:
    """4 of 8 bits: exactly half the full expert."""
    return expert_bytes_full(shape) / 2.0


def dense_bytes(shape: MoEShape) -> float:
    """Non-expert weight bytes read once per step: context map, router,
    embedding and output head, one byte per parameter."""
    s = shape
    return float(
        s.n_layers * s.d_model * s.d_model
        + s.n_layers * s.n_experts * s.d_model
        + 2 * s.vocab * s.d_model
    )


def dense_macs_per_token(shape: MoEShape) -> float:
    """Context map, router, and output head MACs for one token (the
    embedding is a lookup)."""
    s = shape
    return float(
        s.n_layers * s.d_model * s.d_model
        + s.n_layers * s.n_experts * s.d_model
        + s.vocab * s.d_model
    )


def expert_macs_per_token(shape: MoEShape) -> float:
    """Routed-expert MACs for one token at full precision."""
    return float(shape.n_layers * shape.top_k * 3 * shape.d_model * shape.d_ff)


def kv_bytes(shape: MoEShape, tokens: float, seq_len: int, kv_coeff: float = 2.0) -> float:
    """Attention-state traffic: kv_coeff bytes per (position, layer, model
    dim) read for each token processed."""
    return kv_coeff * tokens * seq_len * shape.n_layers * shape.d_model


def psum_bytes(shape: MoEShape, tokens: float) -> float:
    """Partial-sum bytes the PEs exchange to combine their results: one
    vector per projection boundary, per token, layer and routed expert,
    independent of weight size (aggregation link)."""
    per_token_layer = shape.top_k * (2 * shape.d_ff + shape.d_model) * PSUM_BYTES
    return float(tokens * shape.n_layers * per_token_layer)


def scatter_bytes(shape: MoEShape, batch_tokens: int) -> float:
    """Activation redistribution bytes for one phase (streamline link)."""
    return float(batch_tokens * shape.n_layers * shape.d_model * PSUM_BYTES)


@dataclass(frozen=True)
class SdParams:
    """What the cost model needs to know about a speculative step.

    verify_tokens may be fractional: it is typically a measured mean of
    target-model token evaluations per step.
    """

    width: int
    depth: int
    verify_tokens: float
    pool_size: int
    mean_accept: float
    transfer_pieces_per_step: float = 0.0

    def __post_init__(self):
        if self.width < 1 or self.depth < 0 or self.verify_tokens < 1:
            raise ValueError("invalid speculative-step geometry")
        if self.mean_accept < 0 or self.pool_size < 1:
            raise ValueError("invalid speculative-step statistics")
        if self.transfer_pieces_per_step < 0:
            raise ValueError("transfer_pieces_per_step must be nonnegative")


def hb_headroom_bytes(
    cfg: HwConfig,
    shape: MoEShape,
    batch: int,
    seq_len: int,
    kv_coeff: float = 2.0,
    pool_size: int = 0,
) -> float:
    """HB bytes left for the expert cache after static dense weights, the
    KV footprint, and the pinned draft pool, in that order.  Raises when
    the pool no longer fits."""
    used = dense_bytes(shape) + kv_bytes(shape, batch, seq_len, kv_coeff)
    used += pool_size * shape.n_layers * expert_bytes_msb(shape)
    headroom = cfg.hb_capacity_bytes - used
    if headroom < 0:
        raise ValueError(
            f"HB capacity {cfg.hb_capacity_bytes:.4g} B cannot hold dense + KV "
            f"+ draft pool ({used:.4g} B)"
        )
    return headroom


def build_workloads(
    cfg: HwConfig,
    arch: Arch,
    shape: MoEShape,
    batch: int,
    *,
    seq_len: int,
    ar_hit_rate: float,
    ar_unique_experts: float,
    sd: Optional[SdParams] = None,
    verify_msb_hit_rate: float = 0.0,
    verify_unique_experts: float = 0.0,
    kv_coeff: float = 2.0,
) -> dict[str, PhaseWorkload]:
    """Per-phase byte/MAC/communication tallies for one decoding step.

    ar_step: the unique activated experts' full weights split between HB
    and EXT by the cache hit rate (architectures without an HB tier read
    everything from their primary tier), plus dense weights and KV.
    draft_step: pool MSB slices and all state from HB only; expert MACs
    count half.  verify: MSB from HB at its own hit rate, missed MSB plus
    all LSB from EXT, partial sums on the links.  pool_update: the MSB
    pieces the next pool still needs, from EXT.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if seq_len < 0:
        raise ValueError("seq_len must be nonnegative")
    if not 0 <= ar_hit_rate <= 1 or not 0 <= verify_msb_hit_rate <= 1:
        raise ValueError("hit rates must be in [0, 1]")
    if not 0 <= ar_unique_experts <= shape.n_experts:
        raise ValueError("ar_unique_experts out of range")
    if not 0 <= verify_unique_experts <= shape.n_experts:
        raise ValueError("verify_unique_experts out of range")
    d_bytes = dense_bytes(shape)
    expert_total = shape.n_layers * ar_unique_experts * expert_bytes_full(shape)
    msb = expert_bytes_msb(shape)

    def stacked(name, tokens, hb_expert, ext_expert, expert_share=1.0):
        """A stacked-tier phase that steps tokens: its expert bytes, dense
        weights once, and KV, MACs, partial sums and scatter per token."""
        return PhaseWorkload(
            name=name,
            hb_bytes=hb_expert + d_bytes + kv_bytes(shape, tokens, seq_len, kv_coeff),
            ext_bytes=ext_expert,
            macs=expert_share * tokens * expert_macs_per_token(shape)
            + tokens * dense_macs_per_token(shape),
            comm_bytes_aggr=psum_bytes(shape, tokens),
            comm_bytes_streamline=scatter_bytes(shape, tokens),
        )

    if arch.has_hb:
        hb_headroom_bytes(cfg, shape, batch, seq_len, kv_coeff, sd.pool_size if sd else 0)
        ar = stacked(
            "ar_step", batch, ar_hit_rate * expert_total, (1 - ar_hit_rate) * expert_total
        )
    else:
        offloadable = internal_tier(arch, cfg) is not None
        e_macs = batch * expert_macs_per_token(shape)
        ar = PhaseWorkload(
            name="ar_step",
            hb_bytes=0.0,
            ext_bytes=expert_total + d_bytes + kv_bytes(shape, batch, seq_len, kv_coeff),
            macs=batch * dense_macs_per_token(shape) + e_macs,
            offload_expert_bytes=expert_total if offloadable else 0.0,
            offload_expert_macs=e_macs if offloadable else 0.0,
        )
    workloads = {"ar_step": ar}
    if sd is None:
        return workloads
    if arch is not Arch.OURS:
        raise ValueError("speculative phases are only modeled for the OURS arch")
    workloads["draft_step"] = stacked(
        "draft_step", batch * sd.width, shape.n_layers * sd.pool_size * msb, 0.0, 0.5
    )
    verify_expert_msb = shape.n_layers * verify_unique_experts * msb
    workloads["verify"] = stacked(
        "verify",
        batch * sd.verify_tokens,
        verify_msb_hit_rate * verify_expert_msb,
        (1 - verify_msb_hit_rate) * verify_expert_msb + verify_expert_msb,
    )
    workloads["pool_update"] = PhaseWorkload(
        name="pool_update",
        ext_bytes=sd.transfer_pieces_per_step * msb,
    )
    return workloads


def pool_update_overlap(
    cfg: HwConfig,
    verify_latency: float,
    transfer_bytes: float,
    verify_ext_bytes: float = 0.0,
) -> float:
    """Stall added by fetching the next pool during verification.

    The transfer rides the external bandwidth left after the verify
    phase's own external demand; if nothing is left it serializes after
    verification at full external bandwidth.
    """
    if verify_latency < 0 or transfer_bytes < 0 or verify_ext_bytes < 0:
        raise ValueError("inputs must be nonnegative")
    if transfer_bytes == 0:
        return 0.0
    ext_bw = cfg.usable_ext_bw
    if verify_latency == 0:
        return transfer_bytes / ext_bw
    residual = ext_bw - verify_ext_bytes / verify_latency
    if residual <= 0:
        return transfer_bytes / ext_bw
    return max(0.0, transfer_bytes / residual - verify_latency)


@dataclass(frozen=True)
class StepCost:
    """Latency and decomposed energy for one decoding step."""

    latency: float
    tokens: float
    energy: dict[str, float] = field(compare=False)

    @property
    def energy_total(self) -> float:
        return sum(self.energy.values())

    @property
    def per_token_latency(self) -> float:
        return self.latency / self.tokens

    @property
    def per_token_energy(self) -> float:
        return self.energy_total / self.tokens


def offload_split(
    cfg: HwConfig,
    tier: InternalTier,
    expert_bytes_total: float,
    expert_macs: float,
    host_bytes: float,
    host_macs: float,
) -> tuple[float, float]:
    """Latency-minimizing fraction of expert work placed on the internal
    tier, the host stream carrying the rest plus its own traffic.

    Returns (latency, internal_fraction).  Each resource time is linear in
    the fraction x and the objective is their max (convex piecewise
    linear), so the optimum sits at an endpoint or a pairwise crossing and
    every candidate is evaluated exactly.  With memory-bound work on both
    sides this reduces to x* = B / (A + B) for internal full-work time A
    and host full-work time B, giving latency A*B / (A + B).
    """
    if min(expert_bytes_total, expert_macs, host_bytes, host_macs) < 0:
        raise ValueError("work tallies must be nonnegative")
    host_bw = tier.host_ext_bw * (1 - cfg.ext_derate)
    lines = [
        ((host_bytes + expert_bytes_total) / host_bw, -expert_bytes_total / host_bw),
        (0.0, expert_bytes_total / tier.internal_bw),
        (0.0, expert_macs / tier.internal_compute),
        (
            (expert_macs + host_macs) / cfg.xpu_compute_macs,
            -expert_macs / cfg.xpu_compute_macs,
        ),
    ]

    def lat(x: float) -> float:
        return max(a + b * x for a, b in lines)

    candidates = {0.0, 1.0}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1 = lines[i]
            a2, b2 = lines[j]
            if b1 != b2:
                x = (a2 - a1) / (b1 - b2)
                if 0.0 < x < 1.0:
                    candidates.add(x)
    best_x = min(sorted(candidates), key=lat)
    return lat(best_x), best_x


def step_cost(
    cfg: HwConfig,
    arch: Arch,
    workloads: dict[str, PhaseWorkload],
    mode: str,
    batch: int,
    sd: Optional[SdParams] = None,
) -> StepCost:
    """Latency and decomposed energy for one decoding step.

    AR is the single ar_step phase; SD is depth draft phases, one verify,
    and whatever stall the pool transfer could not hide under
    verification.  Energy sums tier bytes times per-bit cost, MACs times
    per-MAC cost, link bytes times per-bit cost, and static power over the
    step latency.  Tokens per step: batch for AR, batch * (1 + mean
    accepted length) for SD.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if mode == "ar":
        w = workloads["ar_step"]
        tier = internal_tier(arch, cfg)
        if tier is None:
            compute = cfg.peak_compute_macs if arch.has_hb else cfg.xpu_compute_macs
            latency = phase_latency(cfg, w, compute)
        else:
            latency, _ = offload_split(
                cfg,
                tier,
                w.offload_expert_bytes,
                w.offload_expert_macs,
                w.ext_bytes - w.offload_expert_bytes,
                w.macs - w.offload_expert_macs,
            )
        return StepCost(
            latency=latency,
            tokens=float(batch),
            energy=_energy(cfg, [(w, 1.0)], latency),
        )
    if mode == "sd":
        if sd is None:
            raise ValueError("sd mode needs SdParams")
        if arch is not Arch.OURS:
            raise ValueError("speculative stepping is only modeled for OURS")
        draft = workloads["draft_step"]
        verify = workloads["verify"]
        pool = workloads["pool_update"]
        draft_lat = phase_latency(cfg, draft, cfg.peak_compute_macs)
        verify_lat = phase_latency(cfg, verify, cfg.peak_compute_macs)
        stall = pool_update_overlap(cfg, verify_lat, pool.ext_bytes, verify.ext_bytes)
        latency = sd.depth * draft_lat + verify_lat + stall
        phases = [(draft, float(sd.depth)), (verify, 1.0), (pool, 1.0)]
        return StepCost(
            latency=latency,
            tokens=batch * (1.0 + sd.mean_accept),
            energy=_energy(cfg, phases, latency),
        )
    raise ValueError(f"unknown mode {mode!r}")


def sd_latency_floor(
    cfg: HwConfig, workloads: dict[str, PhaseWorkload], batch: int, sd: SdParams
) -> float:
    """A floor on the SD step's per-token latency at every verify
    unique-expert count, from workloads built at verify_unique_experts=0:
    step_cost's SD price with the pool-update stall left out.

    The verify phase's HB and external byte tallies are non-decreasing in
    the expert count, and IEEE rounding is monotone, so its latency and
    every sum and quotient step_cost forms from it are too; the stall is
    at least 0.  So the floor is at most step_cost(..., "sd").per_token_latency
    at any count, bit for bit.  The stall itself is not monotone in the
    count: it grows without bound as verify's external demand nears the
    usable bandwidth, drops to transfer / ext_bw once that binds, and
    shrinks as verify's latency grows.  Its value at 0 experts plus
    verify's latency there bounds their sum at any count only in exact
    arithmetic; rounded, a price that keeps it can land an ulp above.
    """
    still = {**workloads, "pool_update": PhaseWorkload(name="pool_update")}
    return step_cost(cfg, Arch.OURS, still, "sd", batch, sd=sd).per_token_latency


def _energy(
    cfg: HwConfig, phases: list[tuple[PhaseWorkload, float]], latency: float
) -> dict[str, float]:
    hb_b = sum(w.hb_bytes * c for w, c in phases)
    ext_b = sum(w.ext_bytes * c for w, c in phases)
    macs = sum(w.macs * c for w, c in phases)
    comm_b = sum((w.comm_bytes_aggr + w.comm_bytes_streamline) * c for w, c in phases)
    return {
        "compute": macs * cfg.compute_energy_per_mac,
        "hb_mem": hb_b * 8 * cfg.hb_energy_per_bit,
        "ext_mem": ext_b * 8 * cfg.ext_energy_per_bit,
        "comm": comm_b * 8 * cfg.comm_energy_per_bit,
        "static": cfg.static_power_w * latency,
    }


def mode_select(ar_cost: StepCost, sd_cost: StepCost) -> tuple[str, StepCost]:
    """Pick the mode with lower per-token latency; ties go to AR."""
    if sd_cost.per_token_latency < ar_cost.per_token_latency:
        return "sd", sd_cost
    return "ar", ar_cost
