import csv
import io
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad_vec

from elasticmoe import expert_cache
from elasticmoe.expert_cache import (
    ID_LIMIT,
    SLICE_KINDS,
    AccessTrace,
    CacheConfig,
    LruResult,
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


def _lru_reference(entries, steps, config, phase_map=None):
    """The tuple-keyed OrderedDict replay simulate_lru must reproduce field
    for field: entries are (layer, expert, kind name) tuples, and the bytes
    used are an exact Fraction compared exactly with the capacity."""
    if phase_map is not None and not steps:
        raise ValueError("phase_map given but trace carries no step ids")
    sizes = dict(config.item_bytes)
    cache = OrderedDict()
    used = Fraction(0)
    hits = 0
    miss_bytes = 0
    by_phase = {}
    for i, entry in enumerate(entries):
        size = sizes[entry[2]]
        if entry in cache:
            hits += 1
            cache.move_to_end(entry)
            continue
        miss_bytes += size
        if phase_map is not None:
            phase = phase_map.get(steps[i], "other")
            by_phase[phase] = by_phase.get(phase, 0) + size
        cache[entry] = size
        used += Fraction(size)
        while used > config.capacity_bytes:
            _, evicted = cache.popitem(last=False)
            used -= Fraction(evicted)
    accesses = len(entries)
    return LruResult(
        hit_rate=hits / accesses if accesses else 1.0,
        accesses=accesses,
        hits=hits,
        miss_bytes=miss_bytes,
        miss_bytes_by_phase=by_phase,
    )


def _csv_writer_bytes(entries, steps):
    """What csv.writer writes for a trace: the format write_trace keeps."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["step", "layer", "expert", "slice_kind"])
    for step_id, (layer, expert, kind) in zip(steps or range(len(entries)), entries):
        writer.writerow([step_id, layer, expert, kind])
    return buf.getvalue().encode()


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


def _none_selected(top_k, popularity, groups):
    """Per row of a boolean (rows, n) member mask, the chance that one
    token's top_k selection (the largest popularity * Exp(1) scores, as
    expected_unique_experts draws them) holds none of the members: that at
    least top_k other experts score above the members' best score M.  It
    is the integral over M's density of a Poisson-binomial tail, expert c
    scoring above t with chance exp(-t / p_c)."""
    p = np.asarray(popularity, dtype=np.float64)
    p = p / p.sum()
    n = len(p)
    not_self = ~np.eye(n, dtype=bool)

    def integrand(t):
        above = np.exp(-t / p)
        cdf = np.where(groups, 1.0 - above, 1.0)
        density = np.where(groups, above / p, 0.0)
        # M's density: one member's density times the others' CDFs.
        others_cdf = np.where(not_self, cdf[:, None, :], 1.0).prod(axis=2)
        m_density = (density * others_cdf).sum(axis=1)
        # P(count of non-members above t <= c) for c < top_k, expert by expert.
        dist = np.zeros((len(groups), top_k))
        dist[:, 0] = 1.0
        for c in range(n):
            q = np.where(groups[:, c], 0.0, above[c])[:, None]
            dist[:, 1:] = dist[:, 1:] * (1.0 - q) + dist[:, :-1] * q
            dist[:, 0] *= 1.0 - q[:, 0]
        return m_density * (1.0 - dist.sum(axis=1))

    return quad_vec(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-11)[0]


def _exact_unique_experts(batch, top_k, popularity):
    """Exact mean and variance of the distinct experts a batch of
    independent tokens selects, and each expert's selection chance pi_i.
    With m_i the chance that a token misses expert i and m_ij that it
    misses both i and j (m_ii = m_i): mean n - sum_i m_i^B and variance
    sum_ij m_ij^B - (sum_i m_i^B)^2."""
    n = len(popularity)
    eye = np.eye(n, dtype=bool)
    pairs = [eye[i] | eye[j] for i, j in itertools.combinations(range(n), 2)]
    miss = _none_selected(top_k, popularity, np.array(list(eye) + pairs))
    miss_b = miss ** batch
    joint = np.diag(miss_b[:n])
    upper = np.triu_indices(n, 1)
    joint[upper] = joint[upper[::-1]] = miss_b[n:]
    var = joint.sum() - miss_b[:n].sum() ** 2
    return n - miss_b[:n].sum(), var, 1.0 - miss[:n]


class TestSimulateLru:
    def test_exact_multiple_of_a_float_size_fills_the_cache(self):
        # Ten 0.03-byte items are exactly 0.3 bytes, though their float sum
        # is 0.30000000000000004: cycled ten times, each misses once.
        # Three 0.1-byte items exceed 0.3 exactly (by 2**-55) and thrash;
        # the float product 3 * 0.1 holds them, as 3 bytes hold three 1s.
        def cycled(n_keys, item, capacity):
            entries = tuple((0, e, "msb") for _ in range(10) for e in range(n_keys))
            cfg = CacheConfig(capacity_bytes=capacity, item_bytes={"msb": item})
            return simulate_lru(AccessTrace(entries=entries), cfg).hit_rate

        assert cycled(10, 0.03, 0.3) == 0.9
        assert cycled(3, 0.1, 3 * 0.1) == 0.9
        assert cycled(3, 1, 3) == 0.9
        assert cycled(3, 0.1, 0.3) == 0.0

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

    @pytest.mark.parametrize("phased", [False, True])
    def test_replay_memory_is_bounded(self, phased):
        # One 200k-access replay measured 6.7 MB either way; Python lists
        # of the trace's columns alone would take 9.2 MB, 15.2 MB with steps.
        n = 200_000
        rng = np.random.default_rng(5)
        trace = AccessTrace.from_columns(
            rng.integers(0, 4, n), rng.integers(0, 64, n), np.ones(n, dtype=np.int64),
            np.arange(n) // 8,
        )
        phase_map = {s: "verify" if s % 4 == 3 else "draft" for s in range(n // 8)}
        cfg = CacheConfig(capacity_bytes=32, item_bytes={"full": 1})
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                simulate_lru(trace, cfg, phase_map=phase_map if phased else None)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] < 8 * 2**20
        # The second replay reuses the first one's key links: no key sort.
        assert peaks[1] < peaks[0]

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

    def test_kind_without_item_size_raises_key_error(self):
        cfg = CacheConfig(capacity_bytes=10, item_bytes={"full": 10})
        trace = AccessTrace(entries=((0, 1, "full"), (0, 1, "msb")))
        with pytest.raises(KeyError):
            simulate_lru(trace, cfg)


def _sticky_columns(n, seed):
    """Columns of an n-access trace that mostly reuses recent keys, with
    both slice kinds and a step id per four accesses."""
    rng = np.random.default_rng(seed)
    pick = np.where(rng.random(n) < 0.7, np.maximum(np.arange(n) - rng.integers(1, 9, n), 0),
                    np.arange(n))
    keys = rng.integers(0, 24, n)[pick]
    return keys // 8, keys % 8 * 3, keys % 2, np.arange(n) // 4


class TestReplayLinks:
    """simulate_lru keeps a trace's key links from its first replay on."""

    CAPACITIES = [2.0, 3.5, 6.0, 11.0, 40.0]
    ITEM_BYTES = {"msb": 1.0, "full": 2}
    PHASES = {s: "verify" if s % 4 == 3 else "draft" for s in range(0, 150, 2)}

    @pytest.mark.parametrize("phased", [False, True], ids=["plain", "phased"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    def test_replays_of_one_trace_equal_fresh_replays(self, order, phased):
        columns = _sticky_columns(600, seed=3)
        trace = AccessTrace.from_columns(*columns)
        entries = [(int(l), int(e), SLICE_KINDS[k]) for l, e, k in zip(*columns[:3])]
        steps = tuple(columns[3].tolist())
        capacities = {
            "ascending": self.CAPACITIES,
            "descending": self.CAPACITIES[::-1],
            "repeated": [6.0, 2.0, 6.0, 6.0, 40.0, 2.0],
        }[order]
        phase_map = self.PHASES if phased else None
        for capacity in capacities:
            cfg = CacheConfig(capacity_bytes=capacity, item_bytes=self.ITEM_BYTES)
            got = simulate_lru(trace, cfg, phase_map=phase_map)
            fresh = simulate_lru(AccessTrace.from_columns(*columns), cfg, phase_map=phase_map)
            assert got == fresh == _lru_reference(entries, steps, cfg, phase_map)
            assert list(got.miss_bytes_by_phase) == list(fresh.miss_bytes_by_phase)

    def test_replayed_trace_keeps_its_equality(self):
        columns = _sticky_columns(200, seed=4)
        trace = AccessTrace.from_columns(*columns)
        simulate_lru(trace, CacheConfig(capacity_bytes=4, item_bytes=self.ITEM_BYTES))
        assert trace == AccessTrace.from_columns(*columns)
        assert AccessTrace.from_columns(*columns) == trace
        for i in range(4):
            changed = [col.copy() for col in columns]
            changed[i][7] ^= 1
            assert trace != AccessTrace.from_columns(*changed)
        assert trace != AccessTrace.from_columns(*columns[:3])

    def test_one_key_sort_per_trace(self, monkeypatch):
        built = []

        def counting(trace):
            built.append(trace)
            return key_links(trace)

        key_links = expert_cache._key_links
        monkeypatch.setattr(expert_cache, "_key_links", counting)
        columns = _sticky_columns(300, seed=5)
        trace = AccessTrace.from_columns(*columns)
        for capacity in (2, 40, 6):
            cfg = CacheConfig(capacity_bytes=capacity, item_bytes=self.ITEM_BYTES)
            simulate_lru(trace, cfg, phase_map=self.PHASES)
        assert len(built) == 1 and built[0] is trace
        other = AccessTrace.from_columns(*columns)
        simulate_lru(other, CacheConfig(capacity_bytes=6, item_bytes=self.ITEM_BYTES))
        assert len(built) == 2 and built[1] is other


# Few layers and a hot core of experts, so most evictions skip accesses
# that later hits replaced; experts 127 and 128 and the largest ids cross
# the widths a packed key fits in.
_accesses = st.tuples(
    st.integers(0, 3) | st.just(ID_LIMIT - 1),
    st.integers(0, 3) | st.integers(0, 40) | st.sampled_from([127, 128, ID_LIMIT - 1]),
    st.sampled_from(SLICE_KINDS),
)
_MAX_ACCESSES = 300


def _full(*experts):
    return [(0, e, "full") for e in experts]


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(_accesses, max_size=_MAX_ACCESSES),
    with_steps=st.booleans(),
    step_ids=st.lists(st.integers(-3, 12), min_size=_MAX_ACCESSES, max_size=_MAX_ACCESSES),
    sizes=st.sampled_from(["int", "float", "mixed"]),
    size_draw=st.tuples(st.integers(1, 9), st.floats(0.1, 9.0), st.floats(0.1, 9.0)),
    capacity_items=st.floats(1.0, 12.0),
    phases=st.none() | st.dictionaries(
        st.integers(-3, 12), st.sampled_from(["draft", "verify", "other"]), max_size=8
    ),
)
@example(entries=[(0, 1, "full"), (0, 2, "msb")], with_steps=False,
         step_ids=[0] * _MAX_ACCESSES, sizes="int", size_draw=(4, 1.0, 1.0),
         capacity_items=1.0, phases=None)
# A B A C B with room for two: A's first access is replaced, so C evicts
# B, and B misses again.
@example(entries=_full(1, 2, 1, 3, 2), with_steps=False,
         step_ids=[0] * _MAX_ACCESSES, sizes="int", size_draw=(4, 1.0, 1.0),
         capacity_items=2.0, phases=None)
# Six 1.0 slices fill capacity 6; after a hit on slice 1, one full item
# of 3 evicts slices 0, 2 and 3 at once.
@example(entries=[(0, e, "msb") for e in (0, 1, 2, 3, 4, 5, 1)] + _full(9) + [(0, 1, "msb")],
         with_steps=True, step_ids=list(range(_MAX_ACCESSES)), sizes="mixed",
         size_draw=(3, 1.0, 1.0), capacity_items=2.0, phases={7: "verify"})
# Three 0.1 slices exceed capacity 0.3 exactly (by 2**-55), so the third
# evicts the first; the 0.3 item then evicts the rest and fits exactly, so
# its second access hits (with float sums it evicted itself).
@example(entries=[(0, e, "msb") for e in range(3)] + _full(7, 7, 0),
         with_steps=False, step_ids=[0] * _MAX_ACCESSES, sizes="float",
         size_draw=(1, 0.1, 0.3), capacity_items=1.0, phases=None)
# Capacity 6 is four 1.5 slices or two full items of 3.
@example(entries=[(0, e, "msb") for e in range(5)] + _full(1, 2) + [(0, 4, "msb")] * 2,
         with_steps=False, step_ids=[0] * _MAX_ACCESSES, sizes="mixed",
         size_draw=(3, 1.5, 1.0), capacity_items=2.0, phases=None)
# A B C A with room for two: the second A lies fit + 1 = 3 accesses
# after the first, so the replay must visit it, and it misses.
@example(entries=_full(1, 2, 3, 1), with_steps=False, step_ids=[0] * _MAX_ACCESSES,
         sizes="int", size_draw=(4, 1.0, 1.0), capacity_items=2.0, phases=None)
# Slices of 1 and full items of 3 in capacity 6: fit is 6 // 3 = 2, not
# 6 // 1, so full 1's reuse three accesses later is visited, and misses.
@example(entries=_full(1) + [(0, 5, "msb")] + _full(2, 1), with_steps=False,
         step_ids=[0] * _MAX_ACCESSES, sizes="mixed", size_draw=(3, 1.0, 1.0),
         capacity_items=2.0, phases=None)
# Expert 128 packs to key 257, past a uint8 key's range.
@example(entries=_full(128, 0, 128), with_steps=False, step_ids=[0] * _MAX_ACCESSES,
         sizes="int", size_draw=(1, 1.0, 1.0), capacity_items=4.0, phases=None)
def test_simulate_lru_equals_tuple_reference(
    entries, with_steps, step_ids, sizes, size_draw, capacity_items, phases
):
    whole, float_a, float_b = size_draw
    item_bytes = {
        "int": {"msb": whole, "full": 2 * whole},
        "float": {"msb": float_a, "full": float_b},
        "mixed": {"msb": float_a, "full": whole},
    }[sizes]
    config = CacheConfig(
        capacity_bytes=capacity_items * max(item_bytes.values()), item_bytes=item_bytes
    )
    steps = tuple(step_ids[: len(entries)]) if with_steps else ()
    trace = AccessTrace(entries=tuple(entries), steps=steps)
    try:
        want = _lru_reference(entries, steps, config, phases)
    except ValueError:
        with pytest.raises(ValueError):
            simulate_lru(trace, config, phase_map=phases)
        return
    got = simulate_lru(trace, config, phase_map=phases)
    assert got == want
    # Same types and phase order too: an int sum stays an int.
    assert type(got.miss_bytes) is type(want.miss_bytes)
    assert [(k, type(v)) for k, v in got.miss_bytes_by_phase.items()] == [
        (k, type(v)) for k, v in want.miss_bytes_by_phase.items()
    ]


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

    def test_cli_import_does_not_load_the_root_finder(self):
        # A fresh interpreter, since this one has imported scipy already.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, elasticmoe.cli; print('scipy.optimize' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

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
        # Python's float power, which numpy's misses by an ulp here.
        want = [6 * (1.0 - (1.0 - 1 / 6) ** 3), 6 * (1.0 - (1.0 - 1 / 6) ** 4)]
        assert want[0] != 6 * (1.0 - (1.0 - 1 / 6) ** np.int64(3))
        assert expected_unique_experts(3, 1, 6) == want[0]
        assert expected_unique_experts([3, 4], 1, 6).tolist() == want

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

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_ranking_resolves_ties_as_per_row_argpartition(self, top_k):
        # Hand-built draws whose scores p * e tie: positive ties at and
        # above the k-th score, and weighted experts drawing 0, so that
        # zero-weight experts tie with them at 0.  Zero-weight columns sit
        # before and between the weighted ones, where argpartition picks
        # them from a tie at 0.
        p = np.array([0.0, 0.5, 0.0, 0.25, 0.25])
        weighted_draws = np.array([
            [[1, 2, 2], [2, 4, 1], [0, 0, 3]],
            [[1, 0, 0], [0, 0, 0], [1, 3, 2]],
            [[2, 1, 0], [1, 1, 1], [2, 1, 1]],
        ], dtype=np.float64)
        e = np.full((weighted_draws.size // 3, len(p)), 7.0)
        e[:, np.flatnonzero(p)] = weighted_draws.reshape(-1, 3)
        want = np.zeros(e.shape, dtype=bool)
        for token, row in enumerate(p * e):
            want[token, np.argpartition(-row, top_k - 1)[:top_k]] = True
        cols, mask = expert_cache._selected(e, p, top_k)
        got = np.zeros(e.shape, dtype=bool)
        got[:, cols] = mask.T
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "popularity",
        [
            [8, 4, 0, 2, 0, 1] + [0] * 10,  # ranked: 4 weighted experts
            zipf_popularity(16, 1.0),  # argpartitioned: every expert weighted
            [0, 0, 1] + [0] * 13,  # argpartitioned: fewer than top_k weighted
        ],
    )
    def test_mc_over_several_blocks_matches_per_sample_loop(self, popularity):
        # The largest batch's stream is three whole Monte Carlo blocks and
        # a partial fourth.  128's samples end on block edges; the others
        # straddle them, and 45's stream ends in the second block.
        batches, top_k, n = [112, 128, 45, 7, 45], 2, 16
        block = expert_cache._MC_BLOCK_ELEMENTS // n
        mc = 7 * block // (2 * max(batches))
        assert 3 * block < mc * max(batches) <= 7 * block // 2
        assert [block % b == 0 for b in batches] == [False, True, False, False, False]
        got = expected_unique_experts(
            batches, top_k, n, popularity=popularity, mc_samples=mc, seed=11
        )
        want = [_unique_experts_reference(b, top_k, n, popularity, mc, 11) for b in batches]
        assert got.tolist() == want

    def test_count_does_not_depend_on_the_selected_columns(self, monkeypatch):
        # A block with a tied token reports every column, the others only
        # the weighted ones, so a sample that a block edge cuts can carry
        # from one column set to the other.  Widening every other block's
        # mask to all columns must not change any count.
        pop = [8, 4, 0, 2, 0, 1] + [0] * 10
        batches = [112, 45, 7]
        want = expected_unique_experts(batches, 2, 16, popularity=pop, mc_samples=80)
        selected = expert_cache._selected
        blocks = itertools.count()

        def every_other_widened(e, p, top_k):
            cols, mask = selected(e, p, top_k)
            if next(blocks) % 2:
                return cols, mask
            wide = np.zeros((len(p), len(e)), dtype=bool)
            wide[cols] = mask
            return np.arange(len(p)), wide

        monkeypatch.setattr(expert_cache, "_selected", every_other_widened)
        got = expected_unique_experts(batches, 2, 16, popularity=pop, mc_samples=80)
        assert next(blocks) > 3
        assert got.tolist() == want.tolist()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_broadcast_equals_scalar_calls(self, data):
        # Past 64 experts, so that no bit-packed shortcut goes unchecked;
        # rows with fewer than top_k weighted experts are argpartitioned,
        # and so are rows with more than _MC_RANK_MAX_EXPERTS.
        n = data.draw(st.integers(1, 80), label="n_experts")
        top_k = data.draw(st.integers(1, n), label="top_k")
        batches = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=5),
                            label="batch")
        rows = []
        for _ in range(data.draw(st.integers(1, 3), label="rows")):
            weighted = data.draw(st.integers(1, n), label="weighted")
            where = data.draw(st.permutations(range(n)), label="where")[:weighted]
            row = np.zeros(n)
            row[where] = data.draw(st.lists(
                st.sampled_from([0.5, 1.0, 3.0]), min_size=weighted, max_size=weighted
            ), label="weights")
            rows.append(row)
        mc = data.draw(st.integers(1, 40), label="mc_samples")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        got = expected_unique_experts(
            batches, top_k, n, popularity=rows, mc_samples=mc, seed=seed
        )
        assert got.shape == (len(rows), len(batches))
        for row, got_row in zip(rows, got.tolist()):
            assert got_row == [
                expected_unique_experts(b, top_k, n, popularity=row, mc_samples=mc, seed=seed)
                for b in batches
            ]
        # The closed form, with Python's float power as the scalar call had.
        uniform = [n * (1.0 - (1.0 - top_k / n) ** b) for b in batches]
        assert expected_unique_experts(batches, top_k, n).tolist() == uniform
        assert [expected_unique_experts(b, top_k, n) for b in batches] == uniform
        assert got[0].tolist() == expected_unique_experts(
            batches, top_k, n, popularity=rows[0], mc_samples=mc, seed=seed
        ).tolist()

    @pytest.mark.parametrize("weighted", [4, 12, 16])
    def test_mc_block_memory_is_bounded(self, weighted):
        # A verify estimate at the runner's size bounds: 64 * 65 tokens of
        # 16 experts per sample, which spans blocks, so the peak is one
        # block's.  Measured 0.4 MB ranked (4 weighted experts) and 0.8 MB
        # ranked (12) or argpartitioned (16).
        pop = np.zeros(16)
        pop[:weighted] = zipf_popularity(weighted, 1.0)
        tracemalloc.start()
        try:
            expected_unique_experts(64 * 65, 2, 16, popularity=pop, mc_samples=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_mc_memory_is_bounded_for_two_popularity_rows(self):
        # The runner's verify call at its size bounds: 64 * 65 tokens of
        # 24 experts, one popularity row per functional SD scheme.
        # Measured 0.8 MB.
        pop = np.stack([zipf_popularity(24, 1.0), np.r_[zipf_popularity(4, 1.0), [0] * 20]])
        tracemalloc.start()
        try:
            expected_unique_experts([64 * 65, 64], 2, 24, popularity=pop, mc_samples=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mc_within_five_standard_errors_of_exact(self, data):
        n = data.draw(st.integers(1, 12), label="n_experts")
        top_k = data.draw(st.integers(1, n), label="top_k")
        batch = data.draw(st.integers(1, 40), label="batch")
        pop = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), label="popularity"
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        mean, var, pi = _exact_unique_experts(batch, top_k, pop)
        # A token selects exactly top_k experts, which checks the integral.
        assert pi.sum() == pytest.approx(top_k, abs=1e-9)
        mc = 4000
        got = expected_unique_experts(
            batch, top_k, n, popularity=pop, mc_samples=mc, seed=seed
        )
        assert abs(got - mean) <= 5.0 * np.sqrt(max(var, 0.0) / mc) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_unique_experts(0, 4, 32)
        with pytest.raises(ValueError):
            expected_unique_experts(2, 33, 32)
        with pytest.raises(ValueError):
            expected_unique_experts(2, 4, 32, popularity=[1.0] * 3)

    @pytest.mark.parametrize(
        "batch, popularity",
        [
            (2, [np.nan] + [1.0] * 15),  # returned 2.0
            (2, [np.inf] + [1.0] * 15),  # warned, returned garbage
            (2, [1e308] * 16),  # the sum overflowed: warned, returned garbage
            (2, [[1.0] * 16, [0.0] * 16]),  # one row of a stack sums to 0
            (4.5, None),  # returned 7.23
            (4.5, [1.0] * 16),  # numpy's TypeError
            (True, None),
            ([2, 0], None),
            ([], None),
        ],
    )
    def test_rejects_bad_batch_or_popularity(self, batch, popularity):
        # pyproject turns numpy's RuntimeWarning into an error, so a
        # warning here fails the test instead of raising ValueError.
        with pytest.raises(ValueError, match="batch|popularity"):
            expected_unique_experts(batch, 2, 16, popularity=popularity)

    def test_rejects_draw_counts_above_the_bound(self, monkeypatch):
        # 4,000 samples of 10**8 tokens of 16 experts would draw for hours.
        with pytest.raises(ValueError, match="draws"):
            expected_unique_experts(10**8, 2, 16, popularity=[1.0] * 16)
        expected_unique_experts(10**8, 2, 16)  # the closed form draws nothing
        # The bound is inclusive and counts the largest batch.
        monkeypatch.setattr(expert_cache, "_MC_MAX_DRAWS", 4 * 3 * 5)
        expected_unique_experts([1, 3], 2, 5, popularity=[1.0] * 5, mc_samples=4)
        with pytest.raises(ValueError, match="draws"):
            expected_unique_experts([4, 1], 2, 5, popularity=[1.0] * 5, mc_samples=4)

    @pytest.mark.parametrize("mc_samples", [0, -3])
    def test_rejects_mc_samples_below_one(self, mc_samples):
        # 0 divided by zero and -3 returned -0.0 before the check.
        for pop in (None, zipf_popularity(32, 1.0)):
            with pytest.raises(ValueError, match="mc_samples"):
                expected_unique_experts(2, 4, 32, popularity=pop, mc_samples=mc_samples)


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
        assert back.step.tolist() == [0, 1]
        assert back == AccessTrace(entries=((0, 1, "full"), (0, 2, "full")), steps=(0, 1))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,0,0,full\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_decisions_to_trace(self):
        trace = decisions_to_trace(
            [(0, [(0, 2), (1, 5)]), (1, [(0, 2)])], slice_kind="msb"
        )
        assert trace == AccessTrace(
            entries=((0, 2, "msb"), (1, 5, "msb"), (0, 2, "msb")), steps=(0, 0, 1)
        )
        assert trace.layer.tolist() == [0, 1, 0]
        assert trace.expert.tolist() == [2, 5, 2]
        assert trace.kind.tolist() == [SLICE_KINDS.index("msb")] * 3
        assert trace.step.tolist() == [0, 0, 1]

    def test_decisions_to_trace_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            decisions_to_trace([(0, [(0, 2, 1)])], slice_kind="msb")
        # A short and a long selection whose lengths add up to two pairs.
        with pytest.raises(ValueError):
            decisions_to_trace([(0, [(0,), (1, 2, 3)])], slice_kind="msb")
        with pytest.raises(ValueError):
            decisions_to_trace([(0, [(0,)]), (1, [(1, 2, 3)])], slice_kind="msb")
        with pytest.raises(ValueError):
            decisions_to_trace([(0, [(0, 2)])], slice_kind="lsb")

    def test_empty_trace_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace(AccessTrace(), path)
        assert path.read_bytes() == b"step,layer,expert,slice_kind\r\n"
        assert read_trace(path) == AccessTrace()
        assert decisions_to_trace([], "full") == AccessTrace()

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, ID_LIMIT - 1),
                st.integers(0, 70) | st.integers(0, ID_LIMIT - 1),
                st.sampled_from(SLICE_KINDS),
            ),
            max_size=40,
        ),
        step_ids=st.lists(
            st.integers(-(2**63), 2**63 - 1) | st.integers(-12, 1200),
            min_size=40,
            max_size=40,
        ),
        with_steps=st.booleans(),
    )
    def test_write_matches_csv_writer_and_reads_back(
        self, tmp_path_factory, entries, step_ids, with_steps
    ):
        steps = tuple(step_ids[: len(entries)]) if with_steps else ()
        trace = AccessTrace(entries=tuple(entries), steps=steps)
        legacy = _csv_writer_bytes(entries, steps)
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        write_trace(trace, path)
        assert path.read_bytes() == legacy
        back = AccessTrace(entries=tuple(entries), steps=steps or range(len(entries)))
        assert read_trace(path) == back
        # The same rows with LF line ends read back equal too.
        path.write_bytes(legacy.replace(b"\r\n", b"\n"))
        assert read_trace(path) == back

    def test_long_trace_spans_write_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 150_000
        trace = AccessTrace.from_columns(
            rng.integers(0, 4, n), rng.integers(0, 300, n), rng.integers(0, 2, n),
            np.repeat(np.arange(n // 3), 3),
        )
        path = tmp_path / "long.csv"
        write_trace(trace, path)
        entries = [
            (layer, expert, SLICE_KINDS[kind])
            for layer, expert, kind in zip(
                trace.layer.tolist(), trace.expert.tolist(), trace.kind.tolist()
            )
        ]
        assert path.read_bytes() == _csv_writer_bytes(entries, trace.step.tolist())
        assert read_trace(path) == trace

    @pytest.mark.parametrize(
        "body",
        [
            b"0,0,3\r\n",
            b"0,0,3,full,1\r\n",
            b"0,0,1.5,full\r\n",
            b"0,x,3,full\r\n",
            b"0,,3,full\r\n",
            b"0,99999999999999999999,3,full\r\n",
            b"0,0,3,lsb\r\n",
            b"0,0,3,fullx\r\n",
            b'0,0,3,"full"\r\n',
            b"0,0,3,0\r\n",
            b"0,0,3,full\x00\r\n",
            b"0,-1,3,full\r\n",
            b"0,0,-3,full\r\n",
            b"0,%d,3,full\r\n" % ID_LIMIT,
            b"0,0,3,full\r\n\r\n1,0,3,full\r\n",
            b"0,0,3,full\n\n",
            b"0,0,3,full\r\n1,0,3,full",
            b"0,0,3,full\r\n1,0,3,fu",
        ],
        ids=[
            "3_fields", "5_fields", "float_id", "text_id", "empty_id", "huge_id",
            "unknown_kind", "long_kind", "quoted_kind", "numeric_kind", "nul_kind",
            "negative_layer", "negative_expert", "id_at_limit", "blank_row",
            "blank_row_lf", "missing_final_newline", "cut_inside_row",
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"step,layer,expert,slice_kind\r\n" + body)
        with pytest.raises(ValueError):
            read_trace(path)

    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize(
        "body",
        [b"0,0,1.5,full\r\n", b"1e3,0,3,full\r\n", b"nan,0,3,full\r\n"],
        ids=["float_id", "exponent_step", "nan_step"],
    )
    def test_non_integer_ids_rejected_without_warning_filter(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"step,layer,expert,slice_kind\r\n" + body)
        with pytest.raises(ValueError):
            read_trace(path)

    @pytest.mark.filterwarnings("default")
    def test_parser_deprecation_warning_is_value_error(self, tmp_path, monkeypatch):
        # numpy releases before 2.x parse a non-integer id as a float and
        # only warn; read_trace must turn that warning into ValueError.
        real_loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "t.csv"
        write_trace(AccessTrace(entries=((0, 1, "full"),)), path)
        with pytest.raises(ValueError):
            read_trace(path)

    @pytest.mark.parametrize(
        "data",
        [b"", b"step,layer,expert,slice_kind", b"\r\n0,0,3,full\r\n"],
        ids=["empty_file", "header_without_newline", "blank_header"],
    )
    def test_truncated_files_rejected(self, tmp_path, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError):
            read_trace(path)


class TestAccessTraceColumns:
    def test_columns_are_read_only_and_trace_immutable(self):
        trace = AccessTrace(entries=((0, 1, "full"), (2, 3, "msb")), steps=(4, 5))
        for col in (trace.layer, trace.expert, trace.kind, trace.step):
            assert not col.flags.writeable
        with pytest.raises(AttributeError):
            trace.layer = np.zeros(2, dtype=np.int64)

    def test_from_columns_copies_its_inputs(self):
        layer = np.array([0, 1])
        trace = AccessTrace.from_columns(layer, [2, 3], [1, 0])
        layer[0] = 7
        assert trace.layer.tolist() == [0, 1]
        assert trace == AccessTrace(entries=((0, 2, "full"), (1, 3, "msb")))

    def test_equality_sees_steps_and_kinds(self):
        base = AccessTrace(entries=((0, 1, "full"),), steps=(3,))
        assert base == AccessTrace(entries=((0, 1, "full"),), steps=(3,))
        assert base != AccessTrace(entries=((0, 1, "full"),))
        assert base != AccessTrace(entries=((0, 1, "full"),), steps=(4,))
        assert base != AccessTrace(entries=((0, 1, "msb"),), steps=(3,))
        assert base != AccessTrace(entries=((0, 1, "full"), (0, 1, "full")), steps=(3, 3))
        assert len(base) == 1 and not AccessTrace()

    @pytest.mark.parametrize(
        "columns",
        [
            ([0, 1], [2], [1, 1], None),
            ([0], [2], [2], None),
            ([0], [2], [-1], None),
            ([-1], [2], [0], None),
            ([0], [ID_LIMIT], [0], None),
            ([0.5], [2], [0], None),
            ([[0]], [[2]], [[0]], None),
            ([0, 1], [2, 3], [0, 0], [1, 2, 3]),
            ([0], [2], [0], [1.5]),
        ],
        ids=[
            "ragged", "kind_code_too_big", "kind_code_negative", "negative_layer",
            "expert_at_limit", "float_layer", "two_dimensional", "step_length",
            "float_step",
        ],
    )
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(ValueError):
            AccessTrace.from_columns(*columns)

    @pytest.mark.parametrize(
        "entries",
        [((0, 1),), ((0, 1, "full", 2),), ((0, 1, "full"), (0, 1, "full", 2)), ((0, -1, "msb"),)],
        ids=["two_fields", "four_fields", "mixed_lengths", "negative_expert"],
    )
    def test_bad_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            AccessTrace(entries=entries)
