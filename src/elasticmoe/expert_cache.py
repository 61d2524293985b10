"""Expert cache behavior: exact LRU simulation and analytic approximations.

Cache items are (layer, expert, slice-kind) pieces with kind-dependent byte
footprints (an MSB slice is half of a full expert).  A trace-driven weighted
LRU gives exact hit rates and miss bytes; a characteristic-time
approximation predicts hit rates for Zipf-popular items without a trace;
and an expected-unique-expert count turns batched top-k routing into the
per-step activated-expert figure the hardware model consumes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import csv

import numpy as np
from scipy.optimize import brentq

SLICE_KINDS = ("msb", "full")

# Exponential draws per Monte Carlo block in expected_unique_experts.  The
# Generator fills draws in order, so the estimate does not depend on it;
# it only bounds the memory a block holds.
_MC_BLOCK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class AccessTrace:
    """Ordered (layer, expert, slice-kind) accesses, optionally tagged with
    the decode step each access belongs to."""

    entries: tuple[tuple[int, int, str], ...]
    steps: tuple[int, ...] = ()

    def __post_init__(self):
        for layer, expert, kind in self.entries:
            if layer < 0 or expert < 0:
                raise ValueError("layer and expert ids must be nonnegative")
            if kind not in SLICE_KINDS:
                raise ValueError(f"slice kind {kind!r} not in {SLICE_KINDS}")
        if self.steps and len(self.steps) != len(self.entries):
            raise ValueError("steps must be empty or parallel to entries")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CacheConfig:
    """Byte capacity plus per-slice-kind item footprints; policy is LRU."""

    capacity_bytes: int
    item_bytes: Mapping[str, int]

    def __post_init__(self):
        if self.capacity_bytes < 0:
            raise ValueError("capacity must be nonnegative")
        for kind, size in self.item_bytes.items():
            if kind not in SLICE_KINDS:
                raise ValueError(f"unknown slice kind {kind!r}")
            if size <= 0:
                raise ValueError("item bytes must be positive")
            if size > self.capacity_bytes:
                raise ValueError(
                    f"{kind} item ({size} B) larger than capacity "
                    f"({self.capacity_bytes} B)"
                )


@dataclass(frozen=True)
class LruResult:
    hit_rate: float
    accesses: int
    hits: int
    miss_bytes: int
    miss_bytes_by_phase: dict[str, int]


def simulate_lru(
    trace: AccessTrace,
    config: CacheConfig,
    phase_map: Optional[Mapping[int, str]] = None,
) -> LruResult:
    """Exact weighted LRU: whole items evict in recency order until the new
    item fits.  An empty trace reports hit_rate 1.0 with accesses 0.

    phase_map labels each step id with a phase name; miss bytes then also
    come back grouped per phase (unlabeled steps under "other").
    """
    if phase_map is not None and not trace.steps:
        raise ValueError("phase_map given but trace carries no step ids")
    sizes = dict(config.item_bytes)
    cache: OrderedDict = OrderedDict()
    used = 0
    hits = 0
    miss_bytes = 0
    by_phase: dict[str, int] = {}
    steps = trace.steps
    for i, entry in enumerate(trace.entries):
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
        used += size
        while used > config.capacity_bytes:
            _, evicted = cache.popitem(last=False)
            used -= evicted
    accesses = len(trace.entries)
    rate = hits / accesses if accesses else 1.0
    return LruResult(
        hit_rate=rate,
        accesses=accesses,
        hits=hits,
        miss_bytes=miss_bytes,
        miss_bytes_by_phase=by_phase,
    )


def zipf_popularity(n_items: int, zipf_exponent: float) -> np.ndarray:
    """Normalized popularity 1/rank^s over ranks 1..n."""
    if n_items < 1:
        raise ValueError("n_items must be >= 1")
    if zipf_exponent < 0:
        raise ValueError("zipf_exponent must be >= 0")
    p = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** zipf_exponent
    return p / p.sum()


def powerlaw_lru_hitrate(
    n_items: int, zipf_exponent: float, capacity_items: float
) -> float:
    """Characteristic-time LRU approximation under Zipf popularity.

    Solves sum_i(1 - exp(-p_i T)) = C for the characteristic time T, then
    returns hit = sum_i p_i (1 - exp(-p_i T)).  Monotone in capacity.
    """
    p = zipf_popularity(n_items, zipf_exponent)
    if not 0 <= capacity_items <= n_items:
        raise ValueError("capacity_items must be in [0, n_items]")
    if capacity_items == 0:
        return 0.0
    if capacity_items == n_items:
        return 1.0

    def occupancy_gap(t: float) -> float:
        return float(np.sum(-np.expm1(-p * t)) - capacity_items)

    # A capacity so small that T lies below 1e-12 brackets from 0 instead.
    lo, hi = 1e-12, float(capacity_items) + 1.0
    if occupancy_gap(lo) > 0.0:
        lo = 0.0
    while occupancy_gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise RuntimeError("characteristic time bracket failed")
    t = brentq(occupancy_gap, lo, hi, xtol=1e-12, rtol=1e-12)
    return float(np.sum(p * -np.expm1(-p * t)))


def expected_unique_experts(
    batch: int,
    top_k: int,
    n_experts: int,
    popularity: Optional[Sequence[float]] = None,
    mc_samples: int = 4000,
    seed: int = 0,
) -> float:
    """Expected distinct experts activated by a batch of top-k routings.

    Uniform popularity has the closed form n*(1 - (1 - k/n)^batch); a
    popularity vector switches to a seeded Monte Carlo estimate where each
    token selects the top-k winners of an exponential race weighted by
    popularity (the same selection model as the synthetic routing traces).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if not 1 <= top_k <= n_experts:
        raise ValueError("need 1 <= top_k <= n_experts")
    if popularity is None:
        return n_experts * (1.0 - (1.0 - top_k / n_experts) ** batch)
    p = np.asarray(popularity, dtype=np.float64)
    if p.shape != (n_experts,) or np.any(p < 0) or p.sum() <= 0:
        raise ValueError("popularity must be n_experts nonnegative weights")
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    per_block = max(1, _MC_BLOCK_ELEMENTS // (batch * n_experts))
    total = 0
    for start in range(0, mc_samples, per_block):
        m = min(per_block, mc_samples - start)
        scores = p * rng.exponential(1.0, size=(m, batch, n_experts))
        top = np.argpartition(-scores, top_k - 1, axis=-1)[..., :top_k]
        seen = np.zeros((m, n_experts), dtype=bool)
        seen[np.arange(m)[:, None], top.reshape(m, -1)] = True
        total += int(seen.sum())
    return total / mc_samples


def write_trace(trace: AccessTrace, path) -> None:
    """Write one access per line as step,layer,expert,slice_kind (with a
    header row).  Missing step ids default to the access index."""
    steps = trace.steps if trace.steps else tuple(range(len(trace.entries)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "layer", "expert", "slice_kind"])
        for step_id, (layer, expert, kind) in zip(steps, trace.entries):
            writer.writerow([step_id, layer, expert, kind])


def read_trace(path) -> AccessTrace:
    """Read a trace written by write_trace."""
    entries = []
    steps = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["step", "layer", "expert", "slice_kind"]:
            raise ValueError(f"unexpected trace header {header!r} in {path}")
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed trace row {row!r} in {path}")
            steps.append(int(row[0]))
            entries.append((int(row[1]), int(row[2]), row[3]))
    return AccessTrace(entries=tuple(entries), steps=tuple(steps))


def decisions_to_trace(
    step_decisions: Sequence[tuple[int, Sequence[tuple[int, int]]]],
    slice_kind: str,
) -> AccessTrace:
    """Build a trace from (step id, [(layer, expert), ...]) records, one
    access per selected expert, all with the same slice kind."""
    if slice_kind not in SLICE_KINDS:
        raise ValueError(f"slice kind {slice_kind!r} not in {SLICE_KINDS}")
    entries = []
    steps = []
    for step_id, pairs in step_decisions:
        for layer, expert in pairs:
            entries.append((layer, expert, slice_kind))
            steps.append(step_id)
    return AccessTrace(entries=tuple(entries), steps=tuple(steps))
