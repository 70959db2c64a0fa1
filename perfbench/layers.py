"""Per-layer attribution, measured from outside the program.

:class:`SpanLog` records spans (name, start, end, parent span, request id)
in memory.  :func:`instrument` wraps public functions of each ``repro``
layer with timing or counting wrappers, patched at the import site each
caller uses, and undoes every patch on exit.  :func:`layer_metrics` turns
the spans of one traced pass into the per-layer metrics.

A request id is the app name for spans inside a ``build()`` and the
invocation index for spans inside a ``run_once()``, so build-time and
run-time work of one layer (``OpenMPRuntime.place`` serves both) are
reported apart.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (module, function, span name): module-level functions, timed.
TIMED_FUNCTIONS = (
    ("repro.cobayn.corpus", "build_corpus", "cobayn.corpus"),
    ("repro.lara.metrics", "weave_benchmark", "lara.weave"),
    ("repro.analysis.checker", "check_unit", "analysis.check"),
    ("repro.cir.parser", "parse", "cir.parse"),
    ("repro.cir.printer", "to_source", "cir.print"),
    ("repro.cir.printer", "to_source_with_map", "cir.print"),
    ("repro.milepost.features", "extract_features", "milepost.features"),
)
#: (module, class, method, span name): methods, timed.
TIMED_METHODS = (
    ("repro.cobayn.autotuner", "CobaynAutotuner", "train", "cobayn.train"),
    ("repro.cobayn.autotuner", "CobaynAutotuner", "predict", "cobayn.predict"),
    ("repro.engine.core", "EvaluationEngine", "evaluate", "engine.evaluate"),
    ("repro.gcc.compiler", "Compiler", "compile", "gcc.compile"),
    ("repro.machine.executor", "MachineExecutor", "evaluate", "machine.evaluate"),
    ("repro.machine.executor", "MachineExecutor", "run", "machine.run"),
    ("repro.dse.explorer", "DesignSpaceExplorer", "explore", "dse.explore"),
    ("repro.margot.manager", "MargotManager", "update", "margot.update"),
    ("repro.margot.manager", "MargotManager", "start_monitor", "margot.monitor"),
    ("repro.margot.manager", "MargotManager", "stop_monitor", "margot.monitor"),
    ("repro.margot.manager", "MargotManager", "log", "margot.monitor"),
    ("repro.machine.openmp", "OpenMPRuntime", "place", "machine.place"),
    ("repro.machine.power", "RaplMeter", "measure", "machine.meter"),
)
#: Called too often for a span each: counted only.
COUNTED_FUNCTIONS = (("repro.cir.visitor", "iter_child_nodes", "cir.child_visits"),)
COUNTED_METHODS = (
    ("repro.cir.ast", "Node", "clone", "cir.clones"),
    ("repro.cobayn.bn", "DiscreteBayesianNetwork", "bic_score", "cobayn.bic_score_calls"),
    ("repro.cobayn.bn", "DiscreteBayesianNetwork", "posterior", "cobayn.posterior_calls"),
)


class SpanLog:
    """In-memory spans plus counters, filled by the wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[object] = []
        # False when a span of the same name encloses this one, so
        # recursive and re-entrant calls are not counted twice
        self.outermost: List[bool] = []
        self.counts: Counter = Counter()
        self.request: object = None
        self._stack: List[int] = []
        self._depth: Counter = Counter()

    def call(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so each call records one span named ``name``."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        requests, outermost, stack, depth = self.requests, self.outermost, self._stack, self._depth
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            outermost.append(depth[name] == 0)
            ends.append(0.0)
            depth[name] += 1
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                name, start, end, parent, request = row
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module that imported it, including the defining module (which serves
    function-local imports)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def instrument(log: SpanLog) -> Iterator[SpanLog]:
    """Install every wrapper for the duration of the block."""
    undo: list = []

    def count_diagnostics(diagnostics) -> None:
        log.counts["analysis.diagnostics"] += len(diagnostics)

    def count_knowledge(exploration) -> None:
        log.counts["dse.knowledge_points"] += len(exploration.knowledge)

    on_result = {"analysis.check": count_diagnostics, "dse.explore": count_knowledge}

    def timed(name, original):
        return log.call(name, original, on_result.get(name))

    try:
        for functions, wrap in ((TIMED_FUNCTIONS, timed), (COUNTED_FUNCTIONS, log.counted)):
            for module, attr, name in functions:
                original = getattr(importlib.import_module(module), attr)
                _patch_everywhere(original, wrap(name, original), undo)
        for methods, wrap in ((TIMED_METHODS, timed), (COUNTED_METHODS, log.counted)):
            for module, cls_name, attr, name in methods:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, wrap(name, original))
        yield log
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------

#: metric -> span name: build-time layers, seconds summed over the pass.
BUILD_TIMES = {
    "cobayn.corpus_s": "cobayn.corpus",
    "cobayn.train_s": "cobayn.train",
    "cobayn.predict_s": "cobayn.predict",
    "lara.weave_s": "lara.weave",
    "analysis.check_s": "analysis.check",
    "cir.parse_s": "cir.parse",
    "cir.print_s": "cir.print",
    "milepost.features_s": "milepost.features",
    "engine.evaluate_s": "engine.evaluate",
    "gcc.compile_s": "gcc.compile",
    "machine.evaluate_s": "machine.evaluate",
    "dse.explore_s": "dse.explore",
}
#: metric -> span name: run-time layers, microseconds per invocation.
INVOCATION_TIMES = {
    "margot.update_us": "margot.update",
    "margot.monitor_us": "margot.monitor",
    "machine.run_us": "machine.run",
    "machine.place_us": "machine.place",
    "machine.meter_us": "machine.meter",
}
#: Metrics read straight from the counters.
COUNTS = (
    "cobayn.bic_score_calls",
    "cobayn.posterior_calls",
    "cir.child_visits",
    "cir.clones",
    "analysis.diagnostics",
    "dse.knowledge_points",
)


def layer_metrics(log: SpanLog) -> Dict[str, Tuple[float, str]]:
    """Per-layer time and work of one traced pass, as ``name -> (value, unit)``.

    A layer's time is the summed duration of its outermost spans; a span's
    self time is its duration minus the time its direct children cover.
    """
    durations = np.array(log.ends) - np.array(log.starts)
    parents = np.array(log.parents, dtype=np.int64)
    covered = np.zeros(len(durations))
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    self_time = durations - covered

    build_total: Dict[str, float] = defaultdict(float)
    run_total: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    build_self = invocation_self = 0.0
    invocations = 0
    for index, (name, request) in enumerate(zip(log.names, log.requests)):
        at_run_time = isinstance(request, int)
        if name == "core.build":
            build_self += self_time[index]
        elif name == "core.run_once":
            invocation_self += self_time[index]
            invocations += 1
        if not log.outermost[index]:
            continue
        (run_total if at_run_time else build_total)[name] += durations[index]
        if at_run_time:
            calls[name] += 1

    per_invocation = 1e6 / max(1, invocations)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, span in BUILD_TIMES.items():
        metrics[metric] = (build_total[span], "s")
    for metric, span in INVOCATION_TIMES.items():
        metrics[metric] = (run_total[span] * per_invocation, "us")
    for metric in COUNTS:
        metrics[metric] = (float(log.counts[metric]), "count")
    metrics["margot.update_calls"] = (float(calls["margot.update"]), "count")
    metrics["core.build_unattributed_s"] = (build_self, "s")
    metrics["core.invocation_unattributed_us"] = (invocation_self * per_invocation, "us")
    metrics["trace.spans"] = (float(len(log.names)), "count")
    return metrics
