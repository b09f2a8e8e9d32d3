"""Spans timed from outside the library, and the statistics the benchmark reports.

The benchmark never edits `src/`. To see where an op's time goes it replaces
public functions with timing wrappers at the module attribute through which
the library (or the benchmark itself) looks them up, and puts the originals
back afterwards. A wrapper records a span only while an op is open, so the
result checks that run between ops are never counted.

A span is `[name, start, end, parent]`, where `parent` is the index of the
enclosing span in the op's span list and the op itself is span 0.
"""
from __future__ import annotations

import math
import time

TAIL = 10  # samples that must lie beyond a reported percentile


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of `samples`.

    Refuses a quantile with fewer than TAIL samples beyond it: such a value
    is set by a handful of ops and does not repeat from run to run.
    """
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < TAIL:
        raise ValueError(f"p{round(q * 100)} of {len(xs)} samples has "
                         f"{len(xs) - rank} beyond it, fewer than {TAIL}")
    return xs[rank - 1]


def fold_spans(spans) -> dict:
    """Per-name [calls, busy_s, self_s] of one op's span list.

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out


def span_problems(spans) -> list:
    """Ways in which a span list is not a tree of nested intervals whose
    self times add up to the op's wall time (span 0)."""
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if i == 0:
            continue
        if not 0 <= parent < i:
            problems.append(f"span {i} ({name}) has parent {parent}")
            continue
        p = spans[parent]
        if start < p[1] or end > p[2]:
            problems.append(f"span {i} ({name}) leaves its parent {p[0]}")
    if not problems:
        wall = spans[0][2] - spans[0][1]
        total = sum(row[2] for row in fold_spans(spans).values())
        if abs(total - wall) > 1e-9 * len(spans) + 1e-12:
            problems.append(f"self times add up to {total!r}, op wall {wall!r}")
    return problems


class Tracer:
    """Collects the spans of the open op and the counts recorded beside them."""

    def __init__(self):
        self.spans = None  # None while no op is open
        self.stack = []
        self.counts = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def open_op(self) -> None:
        self.spans = [["op", 0.0, 0.0, -1]]
        self.stack = [0]
        self.spans[0][1] = time.perf_counter()

    def close_op(self) -> list:
        self.spans[0][2] = time.perf_counter()
        spans, self.spans, self.stack = self.spans, None, []
        return spans

    def wrap(self, name: str, fn, on_result=None):
        """`fn` timed as span `name`; `on_result(tracer, result)` records counts."""

        def wrapper(*args, **kwargs):
            spans = self.spans
            if spans is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1]]
            self.stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Patches:
    """Module attributes replaced by tracer wrappers; restored on exit."""

    def __init__(self, tracer: Tracer, sites):
        # sites: (owner, attribute, span name, on_result or None)
        self.tracer = tracer
        self.sites = sites
        self.saved = []

    def __enter__(self):
        for owner, attr, name, on_result in self.sites:
            fn = getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.tracer.wrap(name, fn, on_result))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved = []
        return False
