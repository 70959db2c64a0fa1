"""Hierarchical span tracing for the SOCRATES pipeline.

A *span* is one timed region of work (a toolflow stage, an engine
evaluation batch, a MAPE-K iteration).  Spans nest: entering a span
while another is open makes the new span its child, so a full build
yields a tree ``build → stage:profile → engine.evaluate →
backend.run_truths → truth:...``.

Timestamps come from a monotonic clock (``time.perf_counter`` by
default; injectable for tests), so spans order and nest correctly but
carry no wall-clock meaning — every exported trace is re-based to
start at zero.

The tracer records every span on the main *track*; a span built with
another ``track`` exports as its own Chrome trace thread (see
:mod:`repro.obs.export`).

When observability is disabled, the :data:`NULL_TRACER` singleton
makes every instrumentation point a no-op: ``span()`` returns a shared
context manager that does nothing, records nothing, and allocates
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Track name of spans recorded in the main process.
MAIN_TRACK = "main"


@dataclass
class Span:
    """One timed, attributed region of work."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float = 0.0
    ok: bool = True
    track: str = MAIN_TRACK
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "ok": self.ok,
            "track": self.track,
            "attributes": dict(self.attributes),
        }


class _SpanContext:
    """Context manager opened by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.ok = False
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects a tree of :class:`Span` records."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child span of the current span (or a root span)."""
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_s=self._clock(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        # close abandoned descendants too (defensive: a generator-based
        # caller that never unwound its inner span)
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        span.end_s = self._clock()
        self._spans.append(span)

    def annotate(self, **attributes: object) -> None:
        """Attach attributes to the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    # -- inspection -----------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        return list(self._spans)

    def children(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def clear(self) -> None:
        self._spans.clear()


class _NullSpanContext:
    """Shared do-nothing context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer(Tracer):
    """Tracer that records nothing; every call is allocation-free."""

    enabled = False

    def __init__(self) -> None:  # no state at all
        pass

    def span(self, name: str, **attributes: object) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_CONTEXT

    def annotate(self, **attributes: object) -> None:
        return None

    @property
    def current(self) -> None:
        return None

    @property
    def spans(self) -> List[Span]:
        return []

    def children(self, span: Span) -> List[Span]:
        return []

    def find(self, name: str) -> List[Span]:
        return []

    def clear(self) -> None:
        return None


#: Process-wide disabled tracer (safe to share: it holds no state).
NULL_TRACER = NullTracer()
