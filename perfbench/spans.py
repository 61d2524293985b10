"""In-memory span recording around the calls one elasticmoe layer makes
into another.

A ``Tracer`` replaces module attributes (``toymoe.step``,
``expert_cache.simulate_lru``, ...) with timing wrappers for the length of
a ``with tracer.patched(points):`` block and restores them afterwards.  The
package itself is never edited: each layer looks these names up at call
time, so the wrappers see every cross-module call.  Spans stay in memory
and are written out once, at the end of a run.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    request: Optional[str]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PatchPoint:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    ``request`` maps the call's arguments to a request id that the span and
    its descendants carry; ``before``/``after`` add attributes from the
    arguments and from the result.
    """

    owner: object
    attr: str
    name: str
    request: Optional[Callable] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Tracer:
    """Records spans of one thread: the workloads call the package from
    one thread, one request at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs):
        stack = self._stack
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        sp = Span(
            span_id=next(self._ids),
            parent=parent.span_id if parent else None,
            name=name,
            request=request,
            start=time.perf_counter(),
            attrs=attrs,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    def _wrap(self, point: PatchPoint, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = point.request(*args, **kwargs) if point.request else None
            attrs = point.before(*args, **kwargs) if point.before else {}
            with self.span(point.name, request, **attrs) as sp:
                result = fn(*args, **kwargs)
                if point.after:
                    sp.attrs.update(point.after(result, *args, **kwargs))
                return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, points: list[PatchPoint]):
        saved = []
        try:
            for p in points:
                original = p.owner.__dict__[p.attr]
                saved.append((p.owner, p.attr, original))
                setattr(p.owner, p.attr, self._wrap(p, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps({
                    "id": sp.span_id,
                    "parent": sp.parent,
                    "name": sp.name,
                    "request": sp.request,
                    "start": sp.start,
                    "end": sp.end,
                    "attrs": sp.attrs,
                }, default=str) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {
        sp.span_id: sp.duration - covered(children.get(sp.span_id, []), sp.start, sp.end)
        for sp in spans
    }


def best_durations(passes: list[list[Span]]) -> list[tuple[str, float]]:
    """Least-disturbed duration of each span position across repeated
    passes of the same deterministic work.

    Spans are aligned by start order; each position's best self time is
    its minimum over the passes, and a span's best duration is its best
    self time plus its children's best durations.  Returned in start
    order, so the pass root comes first.
    """
    ordered = [sorted(p, key=lambda sp: (sp.start, sp.span_id)) for p in passes]
    names = [sp.name for sp in ordered[0]]
    if any([sp.name for sp in p] != names for p in ordered[1:]):
        raise ValueError("passes differ in span structure")
    per_pass = []
    for p in ordered:
        selfs = self_times(p)
        per_pass.append([selfs[sp.span_id] for sp in p])
    best = [min(column) for column in zip(*per_pass)]
    position = {sp.span_id: i for i, sp in enumerate(ordered[0])}
    for i in range(len(best) - 1, 0, -1):
        best[position[ordered[0][i].parent]] += best[i]
    return list(zip(names, best))
