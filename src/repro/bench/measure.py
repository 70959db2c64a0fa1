"""Span-based measurement: one timing code path for every benchmark.

Both the bench scenarios (:mod:`repro.bench.scenarios`) and the tier-2
component benchmarks (``benchmarks/test_component_performance.py``)
time work by opening a :class:`~repro.obs.tracing.Tracer` span around
it and reading the span's duration back — not by sprinkling ad-hoc
``time.perf_counter()`` pairs.  Measuring through the tracer means the
numbers in ``BENCH_*.json`` baselines, in exported Chrome traces and
in pytest-benchmark output all come from the same clock discipline and
can be compared against each other.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List

from repro.obs.tracing import Span, Tracer


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unknown).

    ``ru_maxrss`` is a high-water mark, so deltas between readings are
    only meaningful upward; baselines record it as context, the gate
    never fails on it.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class SpanTimer:
    """Times callables through a private tracer (the obs code path).

    >>> timer = SpanTimer()
    >>> parse_timed = timer.wrap("cir.parse", parse)
    >>> unit = parse_timed(source)       # records one "cir.parse" span
    >>> timer.total_s("cir.parse") > 0
    True
    """

    def __init__(self) -> None:
        self.tracer = Tracer()

    def wrap(self, name: str, fn: Callable, **attributes: object) -> Callable:
        """A callable that runs ``fn`` inside a span named ``name``."""

        def timed(*args, **kwargs):
            with self.tracer.span(name, **attributes):
                return fn(*args, **kwargs)

        return timed

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under a span; return its result."""
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    # -- reading the recorded timings -----------------------------------------

    def spans(self, name: str) -> List[Span]:
        return self.tracer.find(name)

    def durations_s(self, name: str) -> List[float]:
        return [span.duration_s for span in self.tracer.find(name)]

    def total_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def count(self, name: str) -> int:
        return len(self.tracer.find(name))

    def totals(self) -> Dict[str, float]:
        """Per-span-name total seconds (insertion-ordered)."""
        totals: Dict[str, float] = {}
        for span in self.tracer.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
        return totals

    def clear(self) -> None:
        self.tracer.clear()
