"""Release acceptance gate: one test per numbered criterion.

Each test prints a single ``[criterion N] label: PASS|FAIL`` line so the
gate can be read off the log at a glance.  Tolerances are part of the
criteria and are pinned here, not in helper code.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from elasticmoe.bitnest import ReconstructMode, split_slices, reconstruct
from elasticmoe.slicemac import SliceMode, sliced_dot
from elasticmoe.elastic_sd import SdConfig, SdSession, sd_speedup
from elasticmoe.expert_cache import (
    AccessTrace,
    CacheConfig,
    expected_unique_experts,
    powerlaw_lru_hitrate,
    simulate_lru,
    zipf_popularity,
)
from elasticmoe.toymoe import (
    MoEShape,
    PrecisionMode,
    gen_model,
    gen_routing_trace,
    greedy_decode,
    trace_scores,
)
from elasticmoe.hwmodel import (
    Arch,
    HwConfig,
    SdParams,
    build_workloads,
    expert_bytes_full,
    expert_bytes_msb,
    hb_headroom_bytes,
    internal_tier,
    offload_split,
    step_cost,
)
from elasticmoe import runner

CODES = list(range(-127, 128))

# Small shape shared by the stream-equality and throttling runs.
TOY = MoEShape(d_model=32, d_ff=64, n_experts=8, top_k=2, n_layers=2, vocab=32)


def _report(n: int, label: str, ok: bool) -> None:
    print(f"[criterion {n}] {label}: {'PASS' if ok else 'FAIL'}")


def _toy_traces(seed: int, n_tokens: int = 80):
    layer_traces = [
        gen_routing_trace(n_tokens, TOY.n_experts, TOY.top_k, 1.0, 0.8, seed=seed + i)
        for i in range(TOY.n_layers)
    ]
    return trace_scores(layer_traces)


def _seeded_runs():
    """20 paired (speculative stream, greedy stream, step results) runs."""
    out = []
    for s in range(20):
        model = gen_model(TOY, seed=100 + s)
        traces = _toy_traces(300 + 11 * s)
        prompt = [1 + (s % 5), 2 + (s % 3)]
        cfg = SdConfig(
            width=2 + (s % 2),
            depth=2 + (s % 2),
            pool_capacity=4,
            seed=s,
        )
        run = SdSession(model, cfg, prompt=prompt, score_traces=traces).run(24)
        ar, _ = greedy_decode(
            model, prompt, 24, PrecisionMode.INT8_FULL, score_traces=traces
        )
        out.append((run, ar))
    return out


@pytest.fixture(scope="module")
def seeded_runs():
    return _seeded_runs()


def test_criterion_1_sliced_dot_matches_direct_int8_exhaustively():
    ok = False
    try:
        pairs = [split_slices(c) for c in CODES]
        t0 = time.perf_counter()
        for a in CODES:
            acts = [a]
            for pair, w in zip(pairs, CODES):
                assert sliced_dot(acts, [pair], SliceMode.FULL_PRECISION) == a * w
            # Accumulation across all 255 weights in one call.
            assert sliced_dot([a] * 255, pairs, SliceMode.FULL_PRECISION) == a * sum(
                CODES
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        ok = True
    finally:
        _report(1, "full-precision sliced dot equals direct int8 product", ok)


def test_criterion_2_reconstruction_residual_bounds():
    ok = False
    try:
        total_aug = 0
        for c in CODES:
            pair = split_slices(c)
            r_trunc = c - reconstruct(pair, ReconstructMode.TRUNCATE)
            r_aug = c - reconstruct(pair, ReconstructMode.LSB_AUGMENT)
            assert 0 <= r_trunc <= 15
            assert r_trunc == pair.lsb
            assert -8 <= r_aug <= 7
            total_aug += r_aug
        # Any window covering each low nibble once averages exactly -1/2.
        for window in (range(0, 16), range(-16, 0), range(-64, -48)):
            res = [c - reconstruct(split_slices(c), ReconstructMode.LSB_AUGMENT) for c in window]
            assert sum(res) * 2 == -len(res)
        # The full asymmetric code range [-127, 127] averages -8/17.
        assert total_aug * 17 == -8 * len(CODES)
        ok = True
    finally:
        _report(2, "truncation in [0,15], augmented in [-8,7] mean -0.5", ok)


def test_criterion_3_speedup_formula_oracles():
    ok = False
    try:
        got = sd_speedup(3, 10, 4, 1, 12)
        assert got == pytest.approx(2.5, rel=1e-12)
        # Break-even: (1+1)*2 draft/verify cost == 2*1 + 2.
        assert sd_speedup(1, 2.0, 2, 1.0, 2.0) == 1.0
        ok = True
    finally:
        _report(3, "speedup formula worked example 2.5, break-even 1.0", ok)


def test_criterion_4_hitrate_model_tracks_lru_simulation():
    ok = False
    try:
        t0 = time.perf_counter()
        n_accesses = 150_000
        worst = 0.0
        for s in (0.8, 1.0, 1.2):
            for n in (64, 128, 256):
                pop = zipf_popularity(n, s)
                rng = np.random.default_rng(11_000 + int(10 * s) * 100 + n)
                seq = rng.choice(n, size=n_accesses, p=pop)
                trace = AccessTrace(entries=tuple((0, int(e), "full") for e in seq))
                for ratio in np.arange(0.1, 0.95, 0.1):
                    cap = int(round(ratio * n))
                    sim = simulate_lru(
                        trace, CacheConfig(capacity_bytes=cap, item_bytes={"full": 1})
                    ).hit_rate
                    model = powerlaw_lru_hitrate(n, s, float(cap))
                    worst = max(worst, abs(sim - model))
        elapsed = time.perf_counter() - t0
        assert worst <= 0.05
        assert elapsed < 60.0
        ok = True
    finally:
        _report(4, "analytic hit rate within 0.05 of LRU simulation", ok)


def test_criterion_5_speculative_stream_equals_greedy(seeded_runs):
    ok = False
    try:
        assert len(seeded_runs) == 20
        for run, ar in seeded_runs:
            assert list(run.tokens) == list(ar)
        ok = True
    finally:
        _report(5, "20 seeded speculative streams match greedy decoding", ok)


def test_criterion_6_draft_routing_never_leaves_pool(seeded_runs):
    ok = False
    try:
        checked = 0
        violations = 0

        def audit(run):
            nonlocal checked, violations
            for step_res in run.steps:
                for layer, experts in enumerate(step_res.pool.experts):
                    for ids in step_res.draft_selected[:, layer].tolist():
                        checked += 1
                        if not set(ids) <= experts:
                            violations += 1

        for run, _ in seeded_runs:
            audit(run)
        # Dedicated sweep over geometry, pool policy, and slice handling.
        for seed in range(3):
            model = gen_model(TOY, seed=400 + seed)
            traces = _toy_traces(500 + 13 * seed)
            for width in (1, 2):
                for depth in (1, 3):
                    for strategy in ("hotness", "random"):
                        for mode in ReconstructMode:
                            if mode is ReconstructMode.FULL:
                                continue
                            cfg = SdConfig(
                                width=width,
                                depth=depth,
                                pool_capacity=4,
                                pool_strategy=strategy,
                                draft_reconstruct=mode,
                                seed=seed,
                            )
                            run = SdSession(
                                model, cfg, prompt=[3, 1], score_traces=traces
                            ).run(12)
                            audit(run)
        assert checked > 1000
        assert violations == 0
        ok = True
    finally:
        _report(6, "zero draft routing decisions outside the active pool", ok)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_criterion_7_ablation_directions():
    ok = False
    try:
        # (a) hotness-ranked pools beat random pools by at least 5 percent.
        rows = runner.ablation_suite("hotness_vs_random")
        hot = [r.accept_length_mean for r in rows if r.scheme == "elastic_sd"]
        rnd = [r.accept_length_mean for r in rows if r.scheme == "random_pool_sd"]
        assert np.mean(hot) >= 1.05 * np.mean(rnd)

        # (b) midpoint augmentation strictly beats truncation and lands
        # within 10 percent relative of the rounding reference.
        rows = runner.ablation_suite("bit_axis")
        by_axis = {}
        for r in rows:
            by_axis.setdefault(r.scenario_id.split("/")[1], []).append(
                r.accept_length_mean
            )
        trunc = np.mean(by_axis["truncate"])
        aug = np.mean(by_axis["lsb_augment"])
        rnd_ref = np.mean(by_axis["msb_round"])
        assert aug > trunc
        assert abs(aug - rnd_ref) <= 0.10 * rnd_ref

        # (c) full-precision drafting with every expert pooled accepts the
        # whole draft depth every step.
        model = gen_model(TOY, seed=600)
        cfg = SdConfig(
            width=2,
            depth=3,
            pool_capacity=TOY.n_experts,
            draft_mode=PrecisionMode.INT8_FULL,
        )
        run = SdSession(model, cfg, prompt=[2, 5], score_traces=_toy_traces(700)).run(20)
        assert run.steps
        for step_res in run.steps:
            assert step_res.accept_length == cfg.depth
        ok = True
    finally:
        _report(7, "pool policy, slice handling, and ceiling ablations", ok)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_criterion_8_system_cost_trends():
    ok = False
    try:
        cfg = HwConfig()

        # (a) Speculation overtakes plain decoding at some batch size in
        # [1, 16] and keeps its advantage from there on.  Hit rates come
        # from the analytic cache model under growing KV pressure; unique
        # expert counts from the closed-form activation model.
        shape = MoEShape(
            d_model=2048, d_ff=4096, n_experts=64, top_k=4, n_layers=16, vocab=32000
        )
        seq_len, pool = 6144, 8
        width, depth = 2, 3
        verify_tokens = float(width * depth + 1)
        sd = SdParams(width, depth, verify_tokens, pool, mean_accept=2.5,
                      transfer_pieces_per_step=2.0)
        full = expert_bytes_full(shape)
        msb = expert_bytes_msb(shape)
        n_items = shape.n_layers * shape.n_experts
        advantage = []
        for b in range(1, 17):
            ar_cap = min(hb_headroom_bytes(cfg, shape, b, seq_len) / full, n_items)
            sd_cap = min(
                hb_headroom_bytes(cfg, shape, b, seq_len, pool_size=pool) / msb,
                n_items,
            )
            ar_hit = powerlaw_lru_hitrate(n_items, 1.0, ar_cap)
            v_hit = powerlaw_lru_hitrate(n_items, 1.0, sd_cap)
            ar_uni = expected_unique_experts(b, shape.top_k, shape.n_experts)
            v_uni = expected_unique_experts(
                round(b * verify_tokens), shape.top_k, shape.n_experts
            )
            if b == 1:
                assert v_uni > ar_uni
            wl = build_workloads(
                cfg, Arch.OURS, shape, b, seq_len=seq_len,
                ar_hit_rate=ar_hit, ar_unique_experts=ar_uni, sd=sd,
                verify_msb_hit_rate=v_hit, verify_unique_experts=v_uni,
            )
            ar_pt = step_cost(cfg, Arch.OURS, wl, "ar", b).per_token_latency
            sd_pt = step_cost(cfg, Arch.OURS, wl, "sd", b, sd=sd).per_token_latency
            advantage.append(ar_pt / sd_pt)
        crossover = next((i for i, adv in enumerate(advantage) if adv > 1.0), None)
        assert crossover is not None
        for i in range(crossover + 1, 16):
            assert advantage[i] >= advantage[i - 1] - 1e-9

        # (b) a stacked cache at 0.9 hit rate is at least 2x faster than a
        # device reading every expert from external memory.
        big = MoEShape(
            d_model=1024, d_ff=2048, n_experts=32, top_k=4, n_layers=8, vocab=32000
        )
        wl_hb = build_workloads(
            cfg, Arch.HB_XPU, big, 1, seq_len=512, ar_hit_rate=0.9,
            ar_unique_experts=4.0,
        )
        wl_x = build_workloads(
            cfg, Arch.XPU, big, 1, seq_len=512, ar_hit_rate=0.0,
            ar_unique_experts=4.0,
        )
        hb_pt = step_cost(cfg, Arch.HB_XPU, wl_hb, "ar", 1).per_token_latency
        x_pt = step_cost(cfg, Arch.XPU, wl_x, "ar", 1).per_token_latency
        assert x_pt / hb_pt >= 2.0

        # (c) the in-memory tier degrades against its pure-bandwidth
        # extrapolation once demanded MACs outrun its 1.64 TMAC/s rate.
        tier = internal_tier(Arch.XPU_PIM, cfg)
        assert cfg.pim_compute_macs == 1.64e12
        w_bytes = 1e9
        host_bw = tier.host_ext_bw * (1 - cfg.ext_derate)
        bandwidth_only = w_bytes / (tier.internal_bw + host_bw)
        light_macs = 0.5 * tier.internal_compute * bandwidth_only
        lat_light, _ = offload_split(cfg, tier, w_bytes, light_macs, 0.0, 0.0)
        assert lat_light == pytest.approx(bandwidth_only, rel=1e-9)
        heavy_macs = 3.0 * tier.internal_compute * bandwidth_only
        assert heavy_macs / bandwidth_only > cfg.pim_compute_macs
        lat_heavy, _ = offload_split(cfg, tier, w_bytes, heavy_macs, 0.0, 0.0)
        assert lat_heavy > bandwidth_only * 1.05

        # (d) energy parts sum exactly and byte costs sit at 0.43 vs 3.88
        # pJ/bit for the stacked and external tiers.
        assert cfg.hb_energy_per_bit == pytest.approx(0.43e-12, rel=1e-12)
        assert cfg.ext_energy_per_bit == pytest.approx(3.88e-12, rel=1e-12)
        b = 4
        wl = build_workloads(
            cfg, Arch.OURS, shape, b, seq_len=seq_len,
            ar_hit_rate=0.7, ar_unique_experts=20.0, sd=sd,
            verify_msb_hit_rate=0.6, verify_unique_experts=40.0,
        )
        cost = step_cost(cfg, Arch.OURS, wl, "sd", b, sd=sd)
        parts = ("compute", "hb_mem", "ext_mem", "comm", "static")
        assert set(cost.energy) == set(parts)
        assert cost.energy_total == sum(cost.energy[p] for p in parts)
        hb_bytes = (
            sd.depth * wl["draft_step"].hb_bytes
            + wl["verify"].hb_bytes
            + wl["pool_update"].hb_bytes
        )
        ext_bytes = (
            sd.depth * wl["draft_step"].ext_bytes
            + wl["verify"].ext_bytes
            + wl["pool_update"].ext_bytes
        )
        assert cost.energy["hb_mem"] == pytest.approx(
            hb_bytes * 8 * cfg.hb_energy_per_bit, rel=1e-12
        )
        assert cost.energy["ext_mem"] == pytest.approx(
            ext_bytes * 8 * cfg.ext_energy_per_bit, rel=1e-12
        )
        ok = True
    finally:
        _report(8, "crossover, cache advantage, offload limit, energy", ok)


@pytest.mark.filterwarnings("ignore::elasticmoe.hwmodel.CommOverlapWarning")
def test_criterion_9_example_sweep_is_deterministic(tmp_path):
    ok = False
    try:
        configs = runner.load_config(runner.example_config_path())
        first = runner.render_csv(runner.run_scenarios(configs))
        second = runner.render_csv(runner.run_scenarios(configs))
        concurrent = runner.render_csv(runner.run_scenarios(configs, max_workers=4))
        assert first.encode() == second.encode()
        assert first.encode() == concurrent.encode()
        golden = Path(__file__).with_name("golden") / "example_sweep.csv"
        assert first.encode() == golden.read_bytes()
        ok = True
    finally:
        _report(9, "example sweep emits byte-identical CSV", ok)
