import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from elasticmoe.hwmodel import (
    Arch,
    CommOverlapWarning,
    GIB,
    HwConfig,
    PhaseWorkload,
    SdParams,
    StepCost,
    build_workloads,
    dense_bytes,
    dense_macs_per_token,
    expert_bytes_full,
    expert_bytes_msb,
    expert_macs_per_token,
    hb_headroom_bytes,
    internal_tier,
    kv_bytes,
    mode_select,
    offload_split,
    phase_latency,
    pool_update_overlap,
    psum_bytes,
    scatter_bytes,
    step_cost,
)
from elasticmoe.runner import ConfigError, scenario_from_dict
from elasticmoe.toymoe import MoEShape

CFG = HwConfig()
CFG16 = HwConfig(hb_banks=16, hb_capacity_bytes=4 * GIB)
SHAPE = MoEShape(d_model=64, d_ff=128, n_experts=8, top_k=2, n_layers=2, vocab=32)


def test_coupled_roofline_32_banks():
    # HB bandwidth and compute both scale with the bank count.
    assert CFG.usable_hb_bw == pytest.approx(1589.248e9, rel=1e-12)
    assert CFG.peak_compute_macs == pytest.approx(32 * 16384 * 1e9, rel=1e-12)


def test_coupled_roofline_16_banks():
    assert CFG16.usable_hb_bw == pytest.approx(794.624e9, rel=1e-12)
    assert CFG16.peak_compute_macs == pytest.approx(16 * 16384 * 1e9, rel=1e-12)


def test_decoupled_roofline_flat_bandwidth():
    # External bandwidth does not depend on the bank count.
    assert CFG.usable_ext_bw == pytest.approx(101.376e9, rel=1e-12)
    assert CFG16.usable_ext_bw == CFG.usable_ext_bw


def test_arch_has_hb():
    assert {a for a in Arch if a.has_hb} == {Arch.HB_XPU, Arch.OURS}


def test_hwconfig_validation():
    with pytest.raises(ValueError):
        HwConfig(hb_banks=0)
    with pytest.raises(ValueError):
        HwConfig(hb_derate=1.0)
    with pytest.raises(ValueError):
        HwConfig(nmp_channels=8, total_channels=8)
    for name in (
        "pim_bw_multiplier",
        "logic_pim_bw_multiplier",
        "logic_pim_compute_multiplier",
        "nmp_internal_multiplier",
    ):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=name):
                HwConfig(**{name: bad})
    for name in (
        "hb_energy_per_bit",
        "ext_energy_per_bit",
        "comm_energy_per_bit",
        "compute_energy_per_mac",
        "static_power_w",
    ):
        HwConfig(**{name: 0.0})
        for bad in (-1e-12, math.nan):
            with pytest.raises(ValueError, match=name):
                HwConfig(**{name: bad})


def test_phase_latency_hb_bandwidth_bound():
    w = PhaseWorkload(name="p", hb_bytes=1.589248e12, macs=1.0)
    got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_phase_latency_compute_bound():
    w = PhaseWorkload(name="p", hb_bytes=1.0, macs=2 * 32 * 16384 * 1e9)
    got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_phase_latency_ext_only():
    w = PhaseWorkload(name="p", ext_bytes=101.376e9)
    got = phase_latency(CFG, w, CFG.xpu_compute_macs)
    assert got == pytest.approx(1.0, rel=1e-12)
    # Compute is timed at the rate the caller passes.
    w = PhaseWorkload(name="p", macs=3 * CFG.xpu_compute_macs)
    got = phase_latency(CFG, w, CFG.xpu_compute_macs)
    assert got == pytest.approx(3.0, rel=1e-12)


def test_phase_latency_mixed_takes_max():
    w = PhaseWorkload(name="p", hb_bytes=1.589248e12, ext_bytes=2 * 101.376e9)
    got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_phase_latency_warns_when_comm_uncovered():
    w = PhaseWorkload(
        name="p",
        hb_bytes=1.0,
        ext_bytes=CFG.aggr_link_bw / 100,
        comm_bytes_aggr=CFG.aggr_link_bw,
    )
    with pytest.warns(CommOverlapWarning):
        got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(1.0, rel=1e-9)


def test_phase_latency_no_warning_when_comm_hidden():
    w = PhaseWorkload(
        name="p",
        hb_bytes=1.0,
        ext_bytes=101.376e9,
        comm_bytes_aggr=CFG.aggr_link_bw / 2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_phase_latency_no_warning_without_external_read():
    # Link time is then bound only against HB reads and compute.
    w = PhaseWorkload(name="p", hb_bytes=1.0, comm_bytes_aggr=CFG.aggr_link_bw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phase_latency(CFG, w, CFG.peak_compute_macs)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_internal_tier_parameters():
    pim = internal_tier(Arch.XPU_PIM, CFG)
    assert pim.internal_bw == pytest.approx(8 * 102.4e9, rel=1e-12)
    assert pim.internal_compute == pytest.approx(1.64e12, rel=1e-12)
    logic = internal_tier(Arch.XPU_LOGIC_PIM, CFG)
    assert logic.internal_bw == pytest.approx(4 * 102.4e9, rel=1e-12)
    assert logic.internal_compute == pytest.approx(4 * 1.64e12, rel=1e-12)
    nmp = internal_tier(Arch.XPU_NMP, CFG)
    assert nmp.internal_capacity == pytest.approx(16 * GIB, rel=1e-12)
    assert nmp.internal_compute == pytest.approx(13.1e12, rel=1e-12)
    assert nmp.host_ext_bw == pytest.approx(0.75 * 102.4e9, rel=1e-12)
    assert internal_tier(Arch.XPU, CFG) is None
    assert internal_tier(Arch.OURS, CFG) is None


def test_expert_byte_accounting():
    assert expert_bytes_full(SHAPE) == 3 * 64 * 128
    assert expert_bytes_msb(SHAPE) == expert_bytes_full(SHAPE) / 2


def test_dense_and_kv_accounting():
    assert dense_bytes(SHAPE) == 2 * 64 * 64 + 2 * 8 * 64 + 2 * 32 * 64
    assert kv_bytes(SHAPE, tokens=3, seq_len=10) == 2.0 * 3 * 10 * 2 * 64
    assert dense_macs_per_token(SHAPE) == 2 * 64 * 64 + 2 * 8 * 64 + 32 * 64
    assert expert_macs_per_token(SHAPE) == 2 * 2 * 3 * 64 * 128


def test_comm_cost_batch_scaling():
    one = psum_bytes(SHAPE, 4)
    assert one == 4 * 2 * 2 * (2 * 128 + 64) * 4
    assert psum_bytes(SHAPE, 8) == 2 * one


def test_hb_headroom_ordering_and_error():
    free = hb_headroom_bytes(CFG, SHAPE, batch=2, seq_len=100, pool_size=3)
    expected = (
        CFG.hb_capacity_bytes
        - dense_bytes(SHAPE)
        - kv_bytes(SHAPE, 2, 100)
        - 3 * SHAPE.n_layers * expert_bytes_msb(SHAPE)
    )
    assert free == pytest.approx(expected, rel=1e-12)
    tiny = HwConfig(hb_capacity_bytes=1024.0)
    with pytest.raises(ValueError):
        hb_headroom_bytes(tiny, SHAPE, batch=1, seq_len=100, pool_size=3)


SD = SdParams(
    width=2, depth=3, verify_tokens=7, pool_size=3, mean_accept=1.5,
    transfer_pieces_per_step=2.0,
)


def full_workloads(arch=Arch.OURS, batch=2, **kw):
    args = dict(
        seq_len=50,
        ar_hit_rate=0.8,
        ar_unique_experts=4.0,
        sd=SD,
        verify_msb_hit_rate=0.6,
        verify_unique_experts=5.0,
    )
    args.update(kw)
    return build_workloads(CFG, arch, SHAPE, batch, **args)


def test_build_workloads_draft_never_touches_ext():
    for batch in (1, 4, 16):
        wl = full_workloads(batch=batch)
        assert wl["draft_step"].ext_bytes == 0.0


def test_build_workloads_ar_split_by_hit_rate():
    wl = full_workloads()
    expert_total = SHAPE.n_layers * 4.0 * expert_bytes_full(SHAPE)
    ar = wl["ar_step"]
    assert ar.ext_bytes == pytest.approx(0.2 * expert_total, rel=1e-12)
    expected_hb = 0.8 * expert_total + dense_bytes(SHAPE) + kv_bytes(SHAPE, 2, 50)
    assert ar.hb_bytes == pytest.approx(expected_hb, rel=1e-12)


def test_build_workloads_verify_msb_accounting():
    wl = full_workloads()
    msb_all = SHAPE.n_layers * 5.0 * expert_bytes_msb(SHAPE)
    verify = wl["verify"]
    # Missed MSB plus the whole LSB half comes from external memory.
    assert verify.ext_bytes == pytest.approx(0.4 * msb_all + msb_all, rel=1e-12)
    hb_weights = verify.hb_bytes - dense_bytes(SHAPE) - kv_bytes(SHAPE, 2 * 7, 50)
    assert hb_weights == pytest.approx(0.6 * msb_all, rel=1e-12)


def test_build_workloads_draft_macs_count_half():
    wl = full_workloads()
    draft_tokens = 2 * SD.width
    expected = 0.5 * draft_tokens * expert_macs_per_token(SHAPE) + draft_tokens * (
        dense_macs_per_token(SHAPE)
    )
    assert wl["draft_step"].macs == pytest.approx(expected, rel=1e-12)


def test_build_workloads_draft_reads_pool_msb_only():
    wl = full_workloads()
    weights = wl["draft_step"].hb_bytes - dense_bytes(SHAPE) - kv_bytes(SHAPE, 4, 50)
    assert weights == pytest.approx(
        SD.pool_size * SHAPE.n_layers * expert_bytes_msb(SHAPE), rel=1e-12
    )


def test_build_workloads_pool_update_bytes():
    wl = full_workloads()
    assert wl["pool_update"].ext_bytes == pytest.approx(
        2.0 * expert_bytes_msb(SHAPE), rel=1e-12
    )


def test_build_workloads_xpu_all_external():
    wl = build_workloads(
        CFG, Arch.XPU, SHAPE, 2, seq_len=50, ar_hit_rate=0.0, ar_unique_experts=4.0
    )
    ar = wl["ar_step"]
    assert ar.hb_bytes == 0.0
    total = (
        SHAPE.n_layers * 4.0 * expert_bytes_full(SHAPE)
        + dense_bytes(SHAPE)
        + kv_bytes(SHAPE, 2, 50)
    )
    assert ar.ext_bytes == pytest.approx(total, rel=1e-12)
    assert ar.offload_expert_bytes == 0.0


def test_build_workloads_pim_marks_offloadable_work():
    wl = build_workloads(
        CFG, Arch.XPU_PIM, SHAPE, 2, seq_len=50, ar_hit_rate=0.0, ar_unique_experts=4.0
    )
    ar = wl["ar_step"]
    assert ar.offload_expert_bytes == pytest.approx(
        SHAPE.n_layers * 4.0 * expert_bytes_full(SHAPE), rel=1e-12
    )
    assert ar.offload_expert_macs == pytest.approx(
        2 * expert_macs_per_token(SHAPE), rel=1e-12
    )


def test_build_workloads_rejects_sd_on_baselines():
    with pytest.raises(ValueError):
        full_workloads(arch=Arch.XPU_PIM)


def test_build_workloads_rejects_oversized_pool():
    tiny = HwConfig(hb_capacity_bytes=float(dense_bytes(SHAPE)) + 100.0)
    with pytest.raises(ValueError):
        build_workloads(
            tiny, Arch.OURS, SHAPE, 1,
            seq_len=50, ar_hit_rate=0.5, ar_unique_experts=4.0, sd=SD,
            verify_msb_hit_rate=0.5, verify_unique_experts=4.0,
        )


def test_build_workloads_validation():
    with pytest.raises(ValueError):
        full_workloads(ar_hit_rate=1.5)
    with pytest.raises(ValueError):
        full_workloads(ar_unique_experts=100.0)
    with pytest.raises(ValueError):
        full_workloads(batch=0)


def test_pool_update_overlap_worked_example():
    # Residual bandwidth pinned at 10 GB/s: verify consumes all but that.
    verify_lat = 0.05
    verify_ext = (101.376e9 - 10e9) * verify_lat
    stall = pool_update_overlap(CFG, verify_lat, 1e9, verify_ext)
    assert stall == pytest.approx(0.05, rel=1e-9)


def test_pool_update_overlap_fully_hidden():
    assert pool_update_overlap(CFG, 10.0, 1e9, 0.0) == 0.0


def test_pool_update_overlap_zero_transfer():
    assert pool_update_overlap(CFG, 0.05, 0.0, 1e12) == 0.0


def test_pool_update_overlap_saturated_link_serializes():
    verify_lat = 0.05
    verify_ext = 2 * 101.376e9 * verify_lat
    stall = pool_update_overlap(CFG, verify_lat, 1e9, verify_ext)
    assert stall == pytest.approx(1e9 / 101.376e9, rel=1e-12)


def test_pool_update_overlap_zero_verify_latency():
    stall = pool_update_overlap(CFG, 0.0, 101.376e9, 0.0)
    assert stall == pytest.approx(1.0, rel=1e-12)


def test_offload_split_memory_bound_closed_form():
    tier = internal_tier(Arch.XPU_PIM, CFG)
    w_bytes = 1e9
    lat, x = offload_split(CFG, tier, w_bytes, 0.0, 0.0, 0.0)
    host_bw = tier.host_ext_bw * (1 - CFG.ext_derate)
    expected = w_bytes / (tier.internal_bw + host_bw)
    assert lat == pytest.approx(expected, rel=1e-12)
    assert x == pytest.approx(tier.internal_bw / (tier.internal_bw + host_bw), rel=1e-9)


def test_offload_split_degrades_when_compute_saturates():
    tier = internal_tier(Arch.XPU_PIM, CFG)
    w_bytes = 1e9
    host_bw = tier.host_ext_bw * (1 - CFG.ext_derate)
    memory_only = w_bytes / (tier.internal_bw + host_bw)
    # MAC demand far beyond the internal tier's rate.
    heavy_macs = 100 * tier.internal_compute * memory_only
    lat_heavy, _ = offload_split(CFG, tier, w_bytes, heavy_macs, 0.0, 0.0)
    assert lat_heavy > memory_only * 1.5


def test_offload_split_no_expert_work_runs_on_host():
    tier = internal_tier(Arch.XPU_PIM, CFG)
    lat, x = offload_split(CFG, tier, 0.0, 0.0, 5e9, 0.0)
    host_bw = tier.host_ext_bw * (1 - CFG.ext_derate)
    assert lat == pytest.approx(5e9 / host_bw, rel=1e-12)


def test_step_cost_ar_ours_matches_phase_latency():
    wl = full_workloads()
    cost = step_cost(CFG, Arch.OURS, wl, "ar", batch=2)
    assert cost.latency == pytest.approx(
        phase_latency(CFG, wl["ar_step"], CFG.peak_compute_macs), rel=1e-12
    )
    assert cost.tokens == 2.0
    assert cost.per_token_latency == pytest.approx(cost.latency / 2, rel=1e-12)


def test_step_cost_sd_composition():
    wl = full_workloads()
    cost = step_cost(CFG, Arch.OURS, wl, "sd", batch=2, sd=SD)
    draft_lat = phase_latency(CFG, wl["draft_step"], CFG.peak_compute_macs)
    verify_lat = phase_latency(CFG, wl["verify"], CFG.peak_compute_macs)
    stall = pool_update_overlap(
        CFG, verify_lat, wl["pool_update"].ext_bytes, wl["verify"].ext_bytes
    )
    assert cost.latency == pytest.approx(
        SD.depth * draft_lat + verify_lat + stall, rel=1e-12
    )
    assert cost.tokens == pytest.approx(2 * (1 + SD.mean_accept), rel=1e-12)


def test_step_cost_energy_decomposition_closure():
    wl = full_workloads()
    cost = step_cost(CFG, Arch.OURS, wl, "sd", batch=2, sd=SD)
    assert set(cost.energy) == {"compute", "hb_mem", "ext_mem", "comm", "static"}
    assert cost.energy_total == pytest.approx(sum(cost.energy.values()), rel=1e-15)
    hb_total = SD.depth * wl["draft_step"].hb_bytes + wl["verify"].hb_bytes
    ext_total = wl["verify"].ext_bytes + wl["pool_update"].ext_bytes
    assert cost.energy["hb_mem"] == pytest.approx(
        hb_total * 8 * 0.43e-12, rel=1e-12
    )
    assert cost.energy["ext_mem"] == pytest.approx(
        ext_total * 8 * 3.88e-12, rel=1e-12
    )
    assert cost.energy["static"] == pytest.approx(
        CFG.static_power_w * cost.latency, rel=1e-12
    )


def test_step_cost_ar_energy_matches_tallies():
    wl = full_workloads()
    cost = step_cost(CFG, Arch.OURS, wl, "ar", batch=2)
    ar = wl["ar_step"]
    assert cost.energy["hb_mem"] == pytest.approx(ar.hb_bytes * 8 * 0.43e-12, rel=1e-12)
    assert cost.energy["ext_mem"] == pytest.approx(ar.ext_bytes * 8 * 3.88e-12, rel=1e-12)
    assert cost.energy["compute"] == pytest.approx(
        ar.macs * CFG.compute_energy_per_mac, rel=1e-12
    )


def test_step_cost_baseline_uses_offload_split():
    wl = build_workloads(
        CFG, Arch.XPU_PIM, SHAPE, 2, seq_len=50, ar_hit_rate=0.0, ar_unique_experts=4.0
    )
    cost = step_cost(CFG, Arch.XPU_PIM, wl, "ar", batch=2)
    ar = wl["ar_step"]
    tier = internal_tier(Arch.XPU_PIM, CFG)
    expected, _ = offload_split(
        CFG,
        tier,
        ar.offload_expert_bytes,
        ar.offload_expert_macs,
        ar.ext_bytes - ar.offload_expert_bytes,
        ar.macs - ar.offload_expert_macs,
    )
    assert cost.latency == pytest.approx(expected, rel=1e-12)


def test_step_cost_rejects_bad_mode_and_missing_sd():
    wl = full_workloads()
    with pytest.raises(ValueError):
        step_cost(CFG, Arch.OURS, wl, "warp", batch=2)
    with pytest.raises(ValueError):
        step_cost(CFG, Arch.OURS, wl, "sd", batch=2)


def test_mode_select_tie_goes_to_ar():
    a = StepCost(latency=1.0, tokens=1.0, energy={})
    s = StepCost(latency=2.0, tokens=2.0, energy={})
    assert mode_select(a, s)[0] == "ar"
    s_fast = StepCost(latency=1.0, tokens=4.0, energy={})
    assert mode_select(a, s_fast)[0] == "sd"


def test_sdparams_validation():
    with pytest.raises(ValueError):
        SdParams(width=0, depth=1, verify_tokens=1, pool_size=1, mean_accept=0.0)
    with pytest.raises(ValueError):
        SdParams(width=1, depth=1, verify_tokens=1, pool_size=1, mean_accept=-0.1)


def test_phase_workload_validation():
    with pytest.raises(ValueError):
        PhaseWorkload(name="p", hb_bytes=-1.0)
    with pytest.raises(ValueError):
        PhaseWorkload(name="p", ext_bytes=1.0, offload_expert_bytes=2.0)


def test_hb_cached_ar_beats_ext_only_at_high_hit_rate():
    # Same work, one arch with the HB tier at 0.9 hit rate, one without.
    big = MoEShape(d_model=1024, d_ff=2048, n_experts=32, top_k=4, n_layers=8, vocab=32000)
    wl_hb = build_workloads(
        CFG, Arch.HB_XPU, big, 1, seq_len=512, ar_hit_rate=0.9,
        ar_unique_experts=4.0,
    )
    wl_x = build_workloads(
        CFG, Arch.XPU, big, 1, seq_len=512, ar_hit_rate=0.0, ar_unique_experts=4.0
    )
    hb = step_cost(CFG, Arch.HB_XPU, wl_hb, "ar", batch=1)
    x = step_cost(CFG, Arch.XPU, wl_x, "ar", batch=1)
    assert x.per_token_latency / hb.per_token_latency >= 2.0


def test_step_cost_xpu_computes_at_xpu_rate():
    wl = build_workloads(
        CFG, Arch.XPU, SHAPE, 2, seq_len=50, ar_hit_rate=0.0, ar_unique_experts=4.0
    )
    cost = step_cost(CFG, Arch.XPU, wl, "ar", batch=2)
    assert cost.latency == phase_latency(CFG, wl["ar_step"], CFG.xpu_compute_macs)


# An hw section of ordinary values with up to two keys overwritten by a
# draw that may be zero, negative or non-finite.
_SCALAR_KEYS = (
    "pim_bw_multiplier",
    "logic_pim_bw_multiplier",
    "logic_pim_compute_multiplier",
    "nmp_internal_multiplier",
    "hb_energy_pj_per_bit",
    "ext_energy_pj_per_bit",
    "comm_energy_pj_per_bit",
    "compute_energy_pj_per_mac",
    "static_power_w",
    "hb_bw_per_bank_gbps",
    "ext_bw_gbps",
    "pim_compute_tmacs",
    "nmp_compute_tmacs",
    "xpu_compute_tmacs",
)
_ORDINARY = {key: st.floats(0.5, 64.0) for key in _SCALAR_KEYS} | {
    "hb_derate": st.floats(0.0, 0.5),
    "ext_derate": st.floats(0.0, 0.5),
    "hb_banks": st.integers(1, 64),
    "nmp_channels": st.integers(1, 3),
    "total_channels": st.integers(4, 9),
}
_ODD = st.one_of(
    st.sampled_from([0, -1, -0.5, math.nan, math.inf]),
    st.floats(-2.0, 64.0),
    st.integers(-2, 64),
)
_HW_SECTION = st.builds(
    lambda ordinary, odd: ordinary | odd,
    st.fixed_dictionaries({}, optional=_ORDINARY),
    st.dictionaries(st.sampled_from(sorted(_ORDINARY)), _ODD, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(hw=_HW_SECTION, hit=st.floats(0.0, 1.0))
def test_accepted_hw_prices_finite_positive_steps(hw, hit):
    try:
        cfg = scenario_from_dict({"scenario_id": "p", "hw": hw}).hw
    except ConfigError:
        return
    kw = dict(seq_len=50, ar_hit_rate=hit, ar_unique_experts=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CommOverlapWarning)
        costs = [
            step_cost(cfg, arch, build_workloads(cfg, arch, SHAPE, 2, **kw), "ar", 2)
            for arch in Arch
        ]
        wl = build_workloads(
            cfg, Arch.OURS, SHAPE, 2, sd=SD,
            verify_msb_hit_rate=hit, verify_unique_experts=5.0, **kw,
        )
        costs.append(step_cost(cfg, Arch.OURS, wl, "sd", 2, sd=SD))
    for cost in costs:
        assert math.isfinite(cost.latency) and cost.latency > 0
        assert all(v >= 0 for v in cost.energy.values())
