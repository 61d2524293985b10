import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from elasticmoe.expert_cache import (
    AccessTrace,
    CacheConfig,
    decisions_to_trace,
    expected_unique_experts,
    powerlaw_lru_hitrate,
    read_trace,
    simulate_lru,
    write_trace,
    zipf_popularity,
)


def full_trace(ids, step_ids=None):
    entries = tuple((0, int(e), "full") for e in ids)
    steps = tuple(step_ids) if step_ids is not None else ()
    return AccessTrace(entries=entries, steps=steps)


def _unique_experts_reference(batch, top_k, n_experts, popularity, mc_samples, seed):
    """The one-sample-at-a-time Monte Carlo loop the blocked estimate
    must reproduce exactly."""
    p = np.asarray(popularity, dtype=np.float64)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(mc_samples):
        seen: set[int] = set()
        scores = p * rng.exponential(1.0, size=(batch, n_experts))
        for row in scores:
            top = np.argpartition(-row, top_k - 1)[:top_k]
            seen.update(top.tolist())
        total += len(seen)
    return total / mc_samples


class TestSimulateLru:
    def test_cold_misses_only(self):
        cfg = CacheConfig(capacity_bytes=100, item_bytes={"full": 10})
        res = simulate_lru(full_trace([1, 2, 1, 2]), cfg)
        assert res.hit_rate == 0.5
        assert res.hits == 2
        assert res.miss_bytes == 20

    def test_thrash_pattern(self):
        cfg = CacheConfig(capacity_bytes=10, item_bytes={"full": 10})
        res = simulate_lru(full_trace([1, 2, 1, 2]), cfg)
        assert res.hit_rate == 0.0
        assert res.miss_bytes == 40

    def test_empty_trace(self):
        cfg = CacheConfig(capacity_bytes=10, item_bytes={"full": 10})
        res = simulate_lru(AccessTrace(entries=()), cfg)
        assert res.hit_rate == 1.0
        assert res.accesses == 0
        assert res.miss_bytes == 0

    def test_weighted_eviction_hand_sim(self):
        # capacity 100; full 80, msb 40.
        cfg = CacheConfig(capacity_bytes=100, item_bytes={"full": 80, "msb": 40})
        trace = AccessTrace(
            entries=(
                (0, 1, "full"),  # miss, used 80
                (0, 2, "msb"),   # miss, 120 > 100 evicts expert-1 full, used 40
                (0, 3, "msb"),   # miss, used 80
                (0, 1, "full"),  # miss again (was evicted), evicts 2 then 3
                (0, 3, "msb"),   # miss (evicted above)
            ),
            steps=(),
        )
        res = simulate_lru(trace, cfg)
        assert res.hits == 0
        assert res.miss_bytes == 80 + 40 + 40 + 80 + 40

    def test_msb_and_full_are_distinct_items(self):
        cfg = CacheConfig(capacity_bytes=200, item_bytes={"full": 80, "msb": 40})
        trace = AccessTrace(entries=((0, 1, "full"), (0, 1, "msb"), (0, 1, "full")))
        res = simulate_lru(trace, cfg)
        assert res.hits == 1  # only the second full access hits

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(12)
        ids = rng.choice(32, size=5000, p=zipf_popularity(32, 1.0)).tolist()
        trace = full_trace(ids)
        rates = []
        for cap in range(1, 33, 3):
            cfg = CacheConfig(capacity_bytes=cap, item_bytes={"full": 1})
            rates.append(simulate_lru(trace, cfg).hit_rate)
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_sliced_entries_dominate_at_equal_capacity(self):
        # Same msb-only request stream: storing half-size slices never hits
        # less than storing the same pieces at full footprint.
        rng = np.random.default_rng(13)
        ids = rng.choice(64, size=8000, p=zipf_popularity(64, 0.9)).tolist()
        entries = tuple((0, int(e), "msb") for e in ids)
        trace = AccessTrace(entries=entries)
        for cap_items in (4, 8, 16, 32):
            sliced = simulate_lru(
                trace,
                CacheConfig(capacity_bytes=cap_items * 8, item_bytes={"msb": 4}),
            )
            whole = simulate_lru(
                trace,
                CacheConfig(capacity_bytes=cap_items * 8, item_bytes={"msb": 8}),
            )
            assert sliced.hit_rate >= whole.hit_rate

    def test_phase_breakdown(self):
        cfg = CacheConfig(capacity_bytes=10, item_bytes={"full": 10})
        trace = full_trace([1, 2, 1, 2], step_ids=[0, 0, 1, 1])
        res = simulate_lru(trace, cfg, phase_map={0: "draft", 1: "verify"})
        assert res.miss_bytes_by_phase == {"draft": 20, "verify": 20}
        assert sum(res.miss_bytes_by_phase.values()) == res.miss_bytes

    def test_phase_map_requires_steps(self):
        cfg = CacheConfig(capacity_bytes=10, item_bytes={"full": 10})
        with pytest.raises(ValueError):
            simulate_lru(full_trace([1]), cfg, phase_map={0: "x"})

    def test_item_larger_than_capacity_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_bytes=5, item_bytes={"full": 10})

    def test_bad_slice_kind_rejected(self):
        with pytest.raises(ValueError):
            AccessTrace(entries=((0, 1, "lsb"),))


class TestPowerlawApproximation:
    def test_full_residency(self):
        assert powerlaw_lru_hitrate(64, 1.0, 64) == 1.0

    def test_zero_capacity(self):
        assert powerlaw_lru_hitrate(64, 1.0, 0) == 0.0

    def test_monotone_in_capacity(self):
        vals = [powerlaw_lru_hitrate(64, 1.0, c) for c in range(0, 65, 8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_against_simulation_spot_check(self):
        rng = np.random.default_rng(21)
        n, zipf, cap = 64, 1.0, 16
        ids = rng.choice(n, size=200_000, p=zipf_popularity(n, zipf)).tolist()
        cfg = CacheConfig(capacity_bytes=cap, item_bytes={"full": 1})
        sim = simulate_lru(full_trace(ids), cfg).hit_rate
        approx = powerlaw_lru_hitrate(n, zipf, cap)
        assert abs(approx - sim) <= 0.05

    def test_fractional_capacity_allowed(self):
        a = powerlaw_lru_hitrate(64, 1.0, 15.5)
        b = powerlaw_lru_hitrate(64, 1.0, 16.0)
        assert 0 < a <= b < 1

    def test_capacity_below_bracket_start(self):
        # T for these capacities lies below 1e-12, where the bracket of
        # larger capacities starts.
        tiny = [powerlaw_lru_hitrate(64, 1.0, c) for c in (5e-324, 1e-13, 9e-13)]
        assert 0.0 <= tiny[0] <= tiny[1] <= tiny[2] < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            powerlaw_lru_hitrate(0, 1.0, 0)
        with pytest.raises(ValueError):
            powerlaw_lru_hitrate(8, 1.0, 9)
        with pytest.raises(ValueError):
            powerlaw_lru_hitrate(8, -0.5, 4)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 64),
    zipf=st.floats(0.0, 3.0),
    fractions=st.lists(
        st.floats(0.0, 1.0) | st.floats(-15.0, 0.0).map(lambda e: 10.0**e),
        min_size=2,
        max_size=2,
    ),
)
@example(n=64, zipf=1.0, fractions=[9e-13 / 64, 1e-12 / 64])
@example(n=21, zipf=1.0, fractions=[0.0, 0.9999999999999999])
def test_powerlaw_hitrate_bounded_and_monotone(n, zipf, fractions):
    low, high = sorted(min(f * n, n) for f in fractions)
    a = powerlaw_lru_hitrate(n, zipf, low)
    b = powerlaw_lru_hitrate(n, zipf, high)
    assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
    # The root solve leaves 1-ulp inversions between close capacities.
    assert a <= b + 1e-12


class TestExpectedUnique:
    def test_batch_one_is_topk(self):
        assert expected_unique_experts(1, 8, 64) == 8.0

    def test_uniform_closed_form(self):
        assert expected_unique_experts(2, 8, 64) == 15.0

    def test_saturation(self):
        assert expected_unique_experts(3000, 2, 16) > 15.999

    def test_monotone_in_batch(self):
        vals = [expected_unique_experts(b, 4, 32) for b in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 32

    def test_mc_matches_closed_form_on_flat_popularity(self):
        got = expected_unique_experts(4, 4, 16, popularity=[1.0] * 16, seed=3)
        ref = expected_unique_experts(4, 4, 16)
        assert abs(got - ref) < 0.2

    def test_mc_deterministic_per_seed(self):
        pop = zipf_popularity(16, 1.0)
        a = expected_unique_experts(4, 2, 16, popularity=pop, seed=9)
        b = expected_unique_experts(4, 2, 16, popularity=pop, seed=9)
        assert a == b

    def test_skewed_popularity_reduces_unique_count(self):
        pop = zipf_popularity(32, 1.5)
        skewed = expected_unique_experts(8, 4, 32, popularity=pop, seed=5)
        flat = expected_unique_experts(8, 4, 32)
        assert skewed < flat

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mc_matches_per_sample_loop(self, data):
        n = data.draw(st.integers(1, 24), label="n_experts")
        top_k = data.draw(st.integers(1, n), label="top_k")
        batch = data.draw(st.integers(1, 200), label="batch")
        # Zero weights tie at score 0, so the top-k choice among them has
        # to match the per-row argpartition too.
        pop = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
            .filter(lambda p: sum(p) > 0),
            label="popularity",
        )
        mc = data.draw(st.integers(1, 40), label="mc_samples")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = expected_unique_experts(
            batch, top_k, n, popularity=pop, mc_samples=mc, seed=seed
        )
        assert got == _unique_experts_reference(batch, top_k, n, pop, mc, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_unique_experts(0, 4, 32)
        with pytest.raises(ValueError):
            expected_unique_experts(2, 33, 32)
        with pytest.raises(ValueError):
            expected_unique_experts(2, 4, 32, popularity=[1.0] * 3)


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        trace = AccessTrace(
            entries=((0, 3, "msb"), (1, 5, "full"), (0, 3, "msb")),
            steps=(0, 0, 1),
        )
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back == trace

    def test_default_steps_are_indices(self, tmp_path):
        trace = AccessTrace(entries=((0, 1, "full"), (0, 2, "full")))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.steps == (0, 1)
        assert back.entries == trace.entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,full\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_decisions_to_trace(self):
        trace = decisions_to_trace(
            [(0, [(0, 2), (1, 5)]), (1, [(0, 2)])], slice_kind="msb"
        )
        assert trace.entries == ((0, 2, "msb"), (1, 5, "msb"), (0, 2, "msb"))
        assert trace.steps == (0, 0, 1)
