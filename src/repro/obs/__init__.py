"""`repro.obs` — the unified observability subsystem.

One :class:`Observability` object bundles the three pillars that the
rest of the codebase is instrumented against:

* :attr:`Observability.tracer` — hierarchical span tracing
  (:mod:`repro.obs.tracing`), threaded through the toolflow stages,
  engine evaluations, DSE sweeps, COBAYN training and the adaptive
  runtime's MAPE-K iterations;
* :attr:`Observability.metrics` — the counter/gauge/histogram registry
  (:mod:`repro.obs.metrics`) that absorbs the engine counters and the
  mARGOt monitor statistics;
* :attr:`Observability.audit` — the adaptation audit log
  (:mod:`repro.obs.audit`) explaining every operating-point switch.

The disabled instance :data:`NULL_OBS` is what every component gets by
default: its tracer and registry are shared no-op singletons and its
audit is ``None``, so instrumentation costs one attribute lookup and
one no-op call on hot paths, and **seeded runs are byte-identical with
observability on or off** (instrumentation never touches any random
stream).

Exports (:mod:`repro.obs.export`) cover a JSONL event stream, Chrome
``trace_event`` JSON for Perfetto/``chrome://tracing``, and a
Prometheus-style text dump; :mod:`repro.obs.validate` checks each
format, and the ``socrates obs`` CLI wires both up.

:mod:`repro.obs.energy` builds on all three pillars: the virtual-RAPL
energy observatory reconstructs per-domain power(t) timelines from
runtime traces, books joules onto operating points in an
:class:`~repro.obs.energy.EnergyLedger`, and watches declared
power/energy budgets (``socrates energy report|timeline|slo``).

:mod:`repro.obs.profile` reconstructs virtual-time flame graphs from
the same span traces and joins them with the energy ledger
(``socrates obs flame|whatif``).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.audit import (
    AdaptationAuditLog,
    AdaptationEntry,
    CandidateTrace,
    CheckTrace,
    ConstraintTrace,
    SloTrace,
    compose_reason,
    describe_rank,
)
from repro.obs.energy import (
    BudgetVerdict,
    EnergyBudget,
    EnergyLedger,
    EnergySample,
    EnergyTimeline,
    LedgerConservationError,
    attribute_record,
    build_timeline,
    check_budgets,
)
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.profile import (
    FlameProfile,
    ProfileNode,
    StackDiff,
    WhatIfReport,
    attribute_energy,
    build_tree,
    diff_flame,
    load_chrome_trace,
    profile_vs_baseline,
    render_svg,
    rescale_tree,
    total_virtual_s,
    whatif,
)
from repro.obs.tracing import MAIN_TRACK, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "AdaptationAuditLog",
    "AdaptationEntry",
    "BudgetVerdict",
    "CandidateTrace",
    "CheckTrace",
    "ConstraintTrace",
    "Counter",
    "EnergyBudget",
    "EnergyLedger",
    "EnergySample",
    "EnergyTimeline",
    "LedgerConservationError",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MAIN_TRACK",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_OBS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Observability",
    "SloTrace",
    "Span",
    "Tracer",
    "attribute_record",
    "FlameProfile",
    "ProfileNode",
    "StackDiff",
    "WhatIfReport",
    "attribute_energy",
    "build_timeline",
    "build_tree",
    "check_budgets",
    "compose_reason",
    "describe_rank",
    "diff_flame",
    "load_chrome_trace",
    "profile_vs_baseline",
    "render_svg",
    "rescale_tree",
    "total_virtual_s",
    "whatif",
]


class Observability:
    """Tracer + metrics registry + adaptation audit log, as one handle."""

    def __init__(self, enabled: bool = True, max_audit_candidates: int = 5) -> None:
        self.enabled = enabled
        if enabled:
            self.tracer: Tracer = Tracer()
            self.metrics: MetricsRegistry = MetricsRegistry()
            self.audit: Optional[AdaptationAuditLog] = AdaptationAuditLog(
                max_candidates=max_audit_candidates
            )
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS
            self.audit = None

    # -- snapshots of legacy instrumentation ----------------------------------

    def absorb_engine(self, engine) -> None:
        """Mirror an engine's cache/evaluation counters into the registry."""
        self.metrics.absorb_engine_counters(engine.counters)

    def absorb_monitors(self, monitors: Mapping[str, object]) -> None:
        """Mirror mARGOt monitor statistics into the registry."""
        self.metrics.absorb_monitors(monitors)

    def __repr__(self) -> str:
        if not self.enabled:
            return "Observability(enabled=False)"
        return (
            f"Observability(spans={len(self.tracer.spans)}, "
            f"metrics={len(self.metrics)}, "
            f"audit_entries={len(self.audit) if self.audit else 0})"
        )


#: Process-wide disabled observability (the default everywhere).
NULL_OBS = Observability(enabled=False)
