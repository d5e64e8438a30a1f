"""Spans, self time and the latency-percentile rule of the benchmark.

A span records one call into the program from the benchmark's own code:
its name (``<module>.<function>``, the naming a stage() helper inside the
program can reuse), start and end in nanoseconds of a monotonic clock, the
index of the enclosing span, the op it belongs to and a few attributes such
as the cutoff.  Spans stay in memory until the run ends.  Standard library
only.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

# The percentiles considered for a tail latency, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Collects spans when enabled; when disabled, ``span`` is a shared
    no-op context manager."""

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return self._NULL
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        index = len(self.spans)
        span = {"name": name, "start_ns": 0, "end_ns": 0,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "attrs": attrs}
        self.spans.append(span)
        self._stack.append(index)
        span["start_ns"] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._stack.pop()


def self_times_ns(spans: list[dict]) -> list[int]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for a, b in sorted(children[i]):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def tail_percentile(samples) -> dict | None:
    """The highest of TAIL_PERCENTILES that leaves at least TAIL_MIN_BEYOND
    samples above it, by the nearest-rank rule; None when even the median
    leaves fewer.  Returns the percentile, its value and the sample count."""
    values = sorted(samples)
    n = len(values)
    chosen = None
    for p in TAIL_PERCENTILES:
        # Nearest rank, ceil(p n / 100); rounding first keeps 99.9 * 1000 / 100
        # from landing just above an integer.
        rank = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - rank >= TAIL_MIN_BEYOND:
            chosen = {"percentile": p, "value": values[rank - 1], "samples": n}
    return chosen
