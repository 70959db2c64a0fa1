"""`repro.analysis` — the ``socrates check`` static-analysis framework.

Built on the dataflow layer of :mod:`repro.cir.dataflow`, this package
provides:

* the **OpenMP data-race detector** (:mod:`repro.analysis.races`) —
  flags shared scalars/arrays written inside ``parallel for`` bodies
  without a ``private``/``reduction`` clause or an induction-indexed
  subscript (rules ``OMP001``-``OMP004``);
* the **weave verifier** (:mod:`repro.analysis.weavecheck`) — checks
  every :class:`~repro.lara.weaver.Weaver` output against its
  :class:`~repro.lara.weaver.WeavePlan`: dispatch coverage, safe
  default arm, clone pragma consistency, call-site rewriting, control
  variables and the mARGOt weave points (rules ``WV101``-``WV106``);
* structured diagnostics with JSON and SARIF 2.1.0 renderings and the
  0/2/3 exit-code contract (:mod:`repro.analysis.diagnostics`);
* the checker front end (:mod:`repro.analysis.checker`) with
  ``#pragma socrates suppress(RULE, ...)`` support;
* the **flag-safety rule family** ``FPS201``-``FPS204``
  (:mod:`repro.analysis.flagsafety`), with call-graph construction
  (:mod:`repro.analysis.interproc`) for the interprocedural rules.

The toolflow runs :func:`verify_weave` as a post-weave gate; the
``socrates check`` CLI lints pristine and woven Polybench sources.
The rule catalogue is documented in ``docs/static_analysis.md``.
"""

from repro.analysis.checker import (
    apply_suppressions,
    check_app,
    check_apps,
    check_source_text,
    check_unit,
    collect_suppressions,
    parse_suppress_pragma,
)
from repro.analysis.diagnostics import (
    EXIT_CLEAN,
    EXIT_ERRORS,
    EXIT_WARNINGS,
    CheckReport,
    Diagnostic,
    Severity,
)
from repro.analysis.flagsafety import (
    FlagSafetyVerdict,
    check_unit_flag_safety,
    flag_safety_verdict,
)
from repro.analysis.interproc import CallGraph, build_call_graph
from repro.analysis.races import (
    check_function_races,
    check_region_races,
    check_unit_races,
)
from repro.analysis.rules import RULES, Rule
from repro.analysis.weavecheck import verify_weave

__all__ = [
    "CallGraph",
    "CheckReport",
    "Diagnostic",
    "EXIT_CLEAN",
    "EXIT_ERRORS",
    "EXIT_WARNINGS",
    "FlagSafetyVerdict",
    "RULES",
    "Rule",
    "Severity",
    "apply_suppressions",
    "build_call_graph",
    "check_app",
    "check_apps",
    "check_function_races",
    "check_region_races",
    "check_source_text",
    "check_unit",
    "check_unit_flag_safety",
    "check_unit_races",
    "collect_suppressions",
    "flag_safety_verdict",
    "parse_suppress_pragma",
    "verify_weave",
]
