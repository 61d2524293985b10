"""Expert cache behavior: exact LRU simulation and analytic approximations.

Cache items are (layer, expert, slice-kind) pieces with kind-dependent byte
footprints (an MSB slice is half of a full expert).  A trace-driven weighted
LRU gives exact hit rates and miss bytes; a characteristic-time
approximation predicts hit rates for Zipf-popular items without a trace;
and an expected-unique-expert count turns batched top-k routing into the
per-step activated-expert figure the hardware model consumes.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

SLICE_KINDS = ("msb", "full")
# Layer and expert ids lie below this, so one access's (layer, expert,
# kind) packs into a single int64 cache key.
ID_LIMIT = 1 << 31

# Exponential draws per Monte Carlo block in expected_unique_experts, in
# whole token rows (at least one).  The Generator fills draws in order, so
# the estimate does not depend on it.  It bounds the memory a block holds
# (one reused buffer of this many float64 draws) and sets how many numpy
# calls a block's work takes.  Against 2**15, 2**16 took the same time on
# the bundled example's two estimates (sweep medians 0.18-0.25 s either
# way) and 1.35x as long on an argpartitioned 24-expert verify estimate
# at the runner's size bounds (2-vCPU x86_64 VM).
_MC_BLOCK_ELEMENTS = 1 << 15
# Most weighted (nonzero-popularity) experts that expected_unique_experts
# ranks pairwise, c**2 comparisons a token; with more it argpartitions
# every token's full row.  The crossover, measured with every expert
# weighted (2 and 8 of 8-16 experts selected, batches 1-112, 4,000
# samples): ranking took 0.6-0.9x argpartition's time up to 10 weighted
# experts, about 1x at 11-13 and 0.8-1.4x at 16, and 2x at 32.
_MC_RANK_MAX_EXPERTS = 12
# Most exponential draws (mc_samples * max(batch) * n_experts) one Monte
# Carlo estimate may take.  The runner's largest call, 4,000 samples of 64
# * 65 verify tokens of 24 experts, takes about 4.0e8 draws and 4 s at the
# runner's size bounds (2-vCPU x86_64 VM); this is 25 times that, so a
# direct call fails at once instead of drawing for hours.
_MC_MAX_DRAWS = 10**10


class AccessTrace:
    """Ordered (layer, expert, slice-kind) accesses, optionally tagged with
    the decode step each access belongs to, stored as integer columns.

    layer and expert hold ids in [0, ID_LIMIT), kind holds indices into
    SLICE_KINDS, and step holds step ids, or is None when the trace carries
    none (an empty trace never does).  The columns are read-only arrays of
    one length.  AccessTrace(entries=((layer, expert, kind name), ...),
    steps=(...)) builds one from tuples; from_columns from arrays.
    """

    _COLUMNS = ("layer", "expert", "kind", "step")
    __slots__ = (*_COLUMNS, "_links")  # _links: see simulate_lru

    def __init__(
        self, entries: Sequence[tuple[int, int, str]] = (), steps: Sequence[int] = ()
    ):
        entries = tuple(entries)
        layer, expert, names = zip(*entries) if entries else ((), (), ())
        if sum(map(len, entries)) != 3 * len(entries):
            raise ValueError("each entry must be (layer, expert, slice kind)")
        unknown = set(names).difference(SLICE_KINDS)
        if unknown:
            raise ValueError(f"slice kind {unknown.pop()!r} not in {SLICE_KINDS}")
        kind = [SLICE_KINDS.index(name) for name in names]
        self._set_columns(layer, expert, kind, steps)

    @classmethod
    def from_columns(cls, layer, expert, kind, step=None) -> "AccessTrace":
        trace = cls.__new__(cls)
        trace._set_columns(layer, expert, kind, step)
        return trace

    def _set_columns(self, layer, expert, kind, step) -> None:
        layer, expert, kind = _int_column(layer), _int_column(expert), _int_column(kind)
        n = len(layer)
        if len(expert) != n or len(kind) != n:
            raise ValueError("layer, expert and kind columns differ in length")
        if n and min(layer.min(), expert.min()) < 0:
            raise ValueError("layer and expert ids must be nonnegative")
        if n and max(layer.max(), expert.max()) >= ID_LIMIT:
            raise ValueError(f"layer and expert ids must be below {ID_LIMIT}")
        if n and (kind.min() < 0 or kind.max() >= len(SLICE_KINDS)):
            raise ValueError(f"slice kind codes must index {SLICE_KINDS}")
        kind = kind.astype(np.int8)
        step = None if step is None or len(step) == 0 else _int_column(step)
        if step is not None and len(step) != n:
            raise ValueError("steps must be empty or parallel to entries")
        for name, col in (("layer", layer), ("expert", expert), ("kind", kind),
                          ("step", step)):
            if col is not None:
                col.flags.writeable = False
            object.__setattr__(self, name, col)
        object.__setattr__(self, "_links", None)

    def __setattr__(self, name, value):
        raise AttributeError("AccessTrace is immutable")

    def __len__(self) -> int:
        return len(self.layer)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessTrace):
            return NotImplemented
        # A missing step column (None) equals only another missing one.
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self._COLUMNS
        )


def _int_column(values) -> np.ndarray:
    """A fresh 1-D int64 copy of integer values; anything else raises
    ValueError."""
    col = np.asarray(values)
    if col.size == 0:
        return np.zeros(0, dtype=np.int64)
    if col.ndim != 1 or col.dtype.kind not in "iu" or not np.can_cast(col.dtype, np.int64):
        raise ValueError("trace columns must be 1-D integers within int64")
    return col.astype(np.int64)


@dataclass(frozen=True)
class CacheConfig:
    """Byte capacity plus per-slice-kind item footprints (int or float
    bytes); policy is LRU."""

    capacity_bytes: float
    item_bytes: Mapping[str, float]

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
    miss_bytes: float
    miss_bytes_by_phase: dict[str, float]


def simulate_lru(
    trace: AccessTrace,
    config: CacheConfig,
    phase_map: Optional[Mapping[int, str]] = None,
) -> LruResult:
    """Exact weighted LRU: whole items evict in recency order until the new
    item fits.  An empty trace reports hit_rate 1.0 with accesses 0.

    phase_map labels each step id with a phase name; miss bytes then also
    come back grouped per phase (unlabeled steps under "other").

    LRU caches a prefix of the recency order: the keys whose latest access
    lies at or after a watermark, one past the last evicted access.  So an
    access hits exactly when its key's previous access lies there, and a
    hit moves nothing.  A miss adds its size to the bytes used; while they
    exceed the capacity, the watermark steps over accesses that a later
    access of their key has replaced and evicts the key of the next one.
    Those are the evictions a recency-ordered dict makes from its front,
    in the same order.  Bytes used are compared with the capacity exactly
    (ten 0.03-byte items fill a 0.3-byte cache, though their float sum
    exceeds it); miss bytes are float sums in access order.

    A trace keeps each access's previous and next access to its key from
    its first replay on.  The loop visits only first accesses and reuses
    more than fit = capacity // largest item size accesses apart.  The
    others hit: until then the cache holds their key and at most fit - 1
    keys used since, at most capacity bytes, so it cannot evict the key.
    """
    if phase_map is not None and trace.step is None:
        raise ValueError("phase_map given but trace carries no step ids")
    size_of = [config.item_bytes.get(kind) for kind in SLICE_KINDS]
    for code in np.flatnonzero(np.bincount(trace.kind, minlength=len(SLICE_KINDS))):
        if size_of[code] is None:
            raise KeyError(SLICE_KINDS[code])
    if trace._links is None:
        object.__setattr__(trace, "_links", _key_links(trace))
    prev, nxt = trace._links
    # Every finite float is a dyadic rational, so the sizes and the capacity
    # scaled by their largest power-of-two denominator are Python ints with
    # exact sums; the scale is 1 for integer sizes.
    def exact(x):  # None, inf and NaN stay as they are
        if isinstance(x, int):
            return Fraction(x)
        return x if x is None or not math.isfinite(x) else Fraction(float(x))

    fracs = [exact(x) for x in (*size_of, config.capacity_bytes)]
    scale = max((f.denominator for f in fracs if isinstance(f, Fraction)), default=1)
    *unit_of, capacity = (int(f * scale) if isinstance(f, Fraction) else f for f in fracs)
    # An inf or NaN capacity, or a NaN-sized item once cached, never evicts.
    n = len(trace)
    ints = [unit for unit in unit_of if isinstance(unit, int)]
    fit = min(n, capacity // max(ints)) if isinstance(capacity, int) and ints else n
    visit = np.flatnonzero(prev < np.arange(-fit, n - fit))
    visit, prev, nxt, kinds = map(memoryview, (visit, prev, nxt, trace.kind))
    steps = memoryview(trace.step) if phase_map is not None else None
    lru = used = misses = miss_bytes = 0
    by_phase: dict[str, float] = {}
    for t in visit:
        if prev[t] >= lru:
            continue
        kind = kinds[t]
        size = size_of[kind]
        misses += 1
        miss_bytes += size
        if steps is not None:
            phase = phase_map.get(steps[t], "other")
            by_phase[phase] = by_phase.get(phase, 0) + size
        used += unit_of[kind]
        while used > capacity:
            while nxt[lru] <= t:
                lru += 1
            used -= unit_of[kinds[lru]]
            lru += 1
    return LruResult(
        hit_rate=(n - misses) / n if n else 1.0,
        accesses=n,
        hits=n - misses,
        miss_bytes=miss_bytes,
        miss_bytes_by_phase=by_phase,
    )


def _key_links(trace: AccessTrace) -> tuple[np.ndarray, np.ndarray]:
    """Each access's previous and next access to its key, read-only; a
    first access's previous is -n - 1 and a last one's next is n.  One
    stable sort of the keys in the narrowest unsigned dtype finds them:
    numpy radix-sorts 16-bit keys, about ten times faster than int64."""
    n = len(trace)
    keys = trace.layer * (int(trace.expert.max(initial=0)) + 1) + trace.expert
    keys = keys * len(SLICE_KINDS) + trace.kind
    keys = keys.astype(np.min_scalar_type(keys.max(initial=0)))
    order = np.argsort(keys, kind="stable")
    repeat = keys[order[1:]] == keys[order[:-1]]
    prev, nxt = np.full(n, -n - 1), np.full(n, n)
    prev[order[1:]] = np.where(repeat, order[:-1], -n - 1)
    nxt[order[:-1]] = np.where(repeat, order[1:], n)
    prev.flags.writeable = nxt.flags.writeable = False
    return prev, nxt


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
    # Imported here, not at module level: loading scipy.optimize takes
    # most of the package's import time and memory, and no sweep calls
    # this function.
    from scipy.optimize import brentq

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
    # Near full capacity the rounded sum can land an ulp above 1.
    return min(1.0, float(np.sum(p * -np.expm1(-p * t))))


def expected_unique_experts(
    batch: int | Sequence[int],
    top_k: int,
    n_experts: int,
    popularity: Optional[Sequence[float] | Sequence[Sequence[float]]] = None,
    mc_samples: int = 4000,
    seed: int = 0,
) -> float | np.ndarray:
    """Expected distinct experts activated by a batch of top-k routings.

    Uniform popularity has the closed form n*(1 - (1 - k/n)^batch); a
    popularity vector switches to a seeded Monte Carlo estimate where each
    token selects the top-k winners of an exponential race weighted by
    popularity (the same selection model as the synthetic routing traces):
    the top_k largest of p * Exp(1) scores, picked as np.argpartition picks
    them from one token's row, ties included (see _selected).  Sample i
    is tokens i*batch to (i+1)*batch - 1 of a seeded stream of token rows
    of n_experts exponentials each.

    batch may be a sequence of batch sizes and popularity a stack of rows;
    the result then has shape np.shape(popularity)[:-1] + np.shape(batch)
    (a float when that shape is ()).  Each entry equals the call with that
    one batch size and popularity row, bit for bit: batch b's
    mc_samples * b token rows are a prefix of the largest batch's stream,
    and every popularity row scores the same draws, so one stream serves
    them all.  It is drawn in blocks; each batch size ORs runs of b
    tokens' selections into samples, and carries a sample that a block
    edge cuts into the next block.
    """
    b = np.asarray(batch)
    if b.dtype.kind not in "iu" or b.ndim > 1 or not b.size or np.any(b < 1):
        raise ValueError("batch must be an int >= 1 or a sequence of them")
    sizes = b.ravel().tolist()
    if not 1 <= top_k <= n_experts:
        raise ValueError("need 1 <= top_k <= n_experts")
    if mc_samples < 1:
        raise ValueError("mc_samples must be >= 1")
    if popularity is None:
        # Python's float power: numpy's differs in the last bit for some.
        miss = 1.0 - top_k / n_experts
        uniform = [n_experts * (1.0 - miss**size) for size in sizes]
        return _scalar_or_array(np.reshape(uniform, b.shape))
    p = np.asarray(popularity, dtype=np.float64)
    with np.errstate(over="ignore"):
        sums = p.sum(axis=-1, keepdims=True)
    # A NaN or inf weight makes its row's sum NaN or inf.
    if (p.ndim not in (1, 2) or p.shape[-1] != n_experts or not p.size
            or np.any(p < 0) or not np.all(np.isfinite(sums) & (sums > 0))):
        raise ValueError(
            "popularity must be rows of n_experts finite nonnegative weights "
            "with a positive finite sum"
        )
    rows = (p / sums).reshape(-1, n_experts)
    tokens = mc_samples * max(sizes)
    if tokens * n_experts > _MC_MAX_DRAWS:
        raise ValueError(
            f"mc_samples * max(batch) * n_experts = {tokens * n_experts} draws "
            f"exceeds {_MC_MAX_DRAWS}"
        )
    block = max(1, _MC_BLOCK_ELEMENTS // n_experts)
    draws = np.empty((min(block, tokens), n_experts))
    totals = np.zeros((len(rows), len(sizes)), dtype=np.int64)
    # The selections of a sample that the last block edge cut, per row and size.
    carry = np.zeros((len(rows), len(sizes), n_experts), dtype=bool)
    rng = np.random.default_rng(seed)
    for lo in range(0, tokens, block):
        e = draws[: min(block, tokens - lo)]
        rng.standard_exponential(out=e)
        for r, p_row in enumerate(rows):
            cols, selected = _selected(e, p_row, top_k)
            for j, size in enumerate(sizes):
                stop = min(len(e), mc_samples * size - lo)
                if stop <= 0:
                    continue
                starts = np.maximum(np.arange(-(lo % size), stop, size), 0)
                # (len(cols), samples): the first continues the carried one,
                # and the last is cut unless the block ends on a sample edge.
                seen = np.logical_or.reduceat(selected[:, :stop], starts, axis=1)
                carried = carry[r, j]
                carried[cols] |= seen[:, 0]
                cut = (lo + stop) % size != 0
                done = len(starts) - cut
                if done:
                    totals[r, j] += np.count_nonzero(carried)
                    totals[r, j] += np.count_nonzero(seen[:, 1:done])
                    carried[:] = False
                    if cut:
                        carried[cols] = seen[:, -1]
    return _scalar_or_array((totals / mc_samples).reshape(p.shape[:-1] + b.shape))


def _scalar_or_array(values: np.ndarray) -> float | np.ndarray:
    return float(values) if values.shape == () else values


def _selected(e, p, top_k) -> tuple[np.ndarray, np.ndarray]:
    """The experts each token row of e's (tokens, n) draws selects: the
    top_k largest scores p * e, as np.argpartition picks them from the
    row.  Returns (cols, mask) with mask[i, t] true when token t selects
    expert cols[i]; no token selects an expert outside cols.

    A token picks an expert when fewer than top_k experts outscore it.  A
    zero-weight expert scores 0, so while top_k weighted experts score
    above 0 the picks lie among the weighted ones, and only those columns
    need comparing.  A row where that rule does not pick exactly top_k
    positive scores has a tie at the k-th score (or a weighted score of
    0); it goes to the per-row argpartition, so the mask equals the
    per-row selection in every case.  With fewer than top_k weighted
    experts, or more than _MC_RANK_MAX_EXPERTS of them, every row is
    argpartitioned.
    """
    weighted = np.flatnonzero(p)
    ranked = top_k <= len(weighted) <= _MC_RANK_MAX_EXPERTS
    tied = slice(None)
    if ranked:
        # One contiguous row of scores per weighted expert, tokens along it.
        scores = e.T[weighted]
        scores *= p[weighted, None]
        outscored_by = np.add.reduce(scores[:, None] > scores, axis=0, dtype=np.uint8)
        picked = (outscored_by < top_k) & (scores > 0)
        tied = np.flatnonzero(np.add.reduce(picked, axis=0, dtype=np.uint8) != top_k)
        if not len(tied):
            return weighted, picked
    mask = np.zeros(e.shape[::-1], dtype=bool)
    if ranked:
        mask[weighted] = picked
        mask[:, tied] = False
    top = np.argpartition(-(p * e[tied]), top_k - 1, axis=-1)[:, :top_k]
    mask[top, np.arange(len(e))[tied, None]] = True
    return np.arange(len(p)), mask


_TRACE_HEADER = b"step,layer,expert,slice_kind"
# Rows formatted per block in write_trace; bounds its scratch arrays.
_WRITE_BLOCK_ROWS = 1 << 16
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# Row tails, slice kind name and CRLF, as NUL-padded bytes by kind code.
_KIND_TAILS = np.array([f"{name}\r\n".encode() for name in SLICE_KINDS])
_KIND_TAILS = _KIND_TAILS.view(np.uint8).reshape(len(SLICE_KINDS), -1)


def _ascii_ints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each int64 value spelled as str() spells it: ASCII bytes
    right-aligned in the rows of a (N, width) block, and a mask of the
    bytes each row uses."""
    neg = values < 0
    mag = values.astype(np.uint64)
    mag[neg] = -mag[neg]  # wraps to |value|, -2**63 included
    lengths = np.searchsorted(_POW10, mag, side="right") + 1 + neg
    width = int(lengths.max(initial=1))
    chars = np.empty((len(values), width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        mag, chars[:, j] = np.divmod(mag, 10)
    chars += ord("0")
    signed = np.flatnonzero(neg)
    chars[signed, width - lengths[signed]] = ord("-")
    return chars, np.arange(width) >= width - lengths[:, None]


def _csv_block(step, layer, expert, kind) -> np.ndarray:
    """One block of CSV rows, step,layer,expert,slice_kind and CRLF, as bytes."""
    n = len(step)
    comma = (np.full((n, 1), ord(","), dtype=np.uint8), np.ones((n, 1), dtype=bool))
    tails = _KIND_TAILS[kind]
    parts = [
        _ascii_ints(step), comma, _ascii_ints(layer), comma, _ascii_ints(expert),
        comma, (tails, tails != 0),
    ]
    chars = np.concatenate([c for c, _ in parts], axis=1)
    used = np.concatenate([u for _, u in parts], axis=1)
    return chars[used]


def write_trace(trace: AccessTrace, path) -> None:
    """Write one access per line as step,layer,expert,slice_kind (with a
    header row), byte for byte as csv.writer writes them: comma-separated,
    CRLF line ends.  Missing step ids default to the access index."""
    n = len(trace)
    step = trace.step if trace.step is not None else np.arange(n)
    with open(path, "wb") as fh:
        fh.write(_TRACE_HEADER + b"\r\n")
        for lo in range(0, n, _WRITE_BLOCK_ROWS):
            block = slice(lo, lo + _WRITE_BLOCK_ROWS)
            fh.write(_csv_block(step[block], trace.layer[block],
                                trace.expert[block], trace.kind[block]))


def read_trace(path) -> AccessTrace:
    """Read a trace written by write_trace, with CRLF or LF line ends.
    A file that is not a header and complete rows of four fields (integer
    ids, a known slice kind, a final line end) raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, body = data.partition(b"\n")
    if header.removesuffix(b"\r") != _TRACE_HEADER:
        raise ValueError(f"unexpected trace header {header[:80]!r} in {path}")
    if not data.endswith(b"\n"):
        raise ValueError(f"trace {path} ends inside a row")
    if b"\0" in data:
        raise ValueError(f"NUL byte in trace {path}")
    n = body.count(b"\n")
    # One byte past the longest name, so a longer name reads as unknown.
    name_bytes = max(map(len, SLICE_KINDS)) + 1
    dtype = np.dtype([("ids", np.int64, 3), ("kind", f"S{name_bytes}")])
    try:
        with warnings.catch_warnings():
            # numpy before 2.x parses a non-integer id via float and only warns.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",",
                              comments=None, skiprows=1, ndmin=1) if n else np.zeros(0, dtype)
    except (ValueError, DeprecationWarning) as exc:
        raise ValueError(f"malformed trace {path}: {exc}") from None
    if len(rows) != n:
        raise ValueError(f"malformed trace {path}: blank rows")
    kind = np.full(n, len(SLICE_KINDS))
    for code, name in enumerate(SLICE_KINDS):
        kind[rows["kind"] == name.encode()] = code
    unknown = rows["kind"][kind == len(SLICE_KINDS)]
    if len(unknown):
        raise ValueError(f"slice kind {unknown[0]!r} not in {SLICE_KINDS} in {path}")
    ids = rows["ids"]
    return AccessTrace.from_columns(ids[:, 1], ids[:, 2], kind, ids[:, 0])


def decisions_to_trace(
    step_decisions: Sequence[tuple[int, Sequence[tuple[int, int]]]],
    slice_kind: str,
) -> AccessTrace:
    """Build a trace from (step id, [(layer, expert), ...]) records, one
    access per selected expert, all with the same slice kind."""
    if slice_kind not in SLICE_KINDS:
        raise ValueError(f"slice kind {slice_kind!r} not in {SLICE_KINDS}")
    groups = [pairs for _, pairs in step_decisions]
    counts = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    if set(map(len, chain.from_iterable(groups))) - {2}:
        raise ValueError("each selection must be a (layer, expert) pair")
    ids = np.fromiter(chain.from_iterable(chain.from_iterable(groups)), dtype=np.int64)
    ids = ids.reshape(-1, 2)
    return AccessTrace.from_columns(
        ids[:, 0],
        ids[:, 1],
        np.full(len(ids), SLICE_KINDS.index(slice_kind)),
        np.repeat([step for step, _ in step_decisions], counts),
    )
