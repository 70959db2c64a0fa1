"""Correctness oracles.  They run outside every timed interval.

* :class:`BuildOracle` checks a build without the GCC or machine models:
  the woven unit plus its generated ``margot.h``, interpreted at tiny sizes,
  must compute the same global arrays as the original source; the knowledge
  base must cover the full factorial space; COBAYN must have returned
  ``cobayn_k`` distinct configurations.
* :class:`SelectionOracle` recomputes, by brute force over the knowledge
  base, the operating point each invocation should have run, from the
  state's rank, the power cap and the AS-RTM's public ``adjustment()``
  factors (fixed between one ``update`` and the next).

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cir import Decl, DeclGroup, parse
from repro.cir.interp import Interpreter
from repro.margot.state import RankComposition, RankDirection

from perfbench.workloads import ADJUSTED_METRICS, Build, Deployment

#: Relative slack on rank values: the oracle's vectorized ``pow`` may round
#: differently from the interpreter's scalar one in the last bit.
RANK_TOLERANCE = 1e-9
BINDINGS = ("close", "spread")


def tiny_sizes(sizes: Dict[str, int]) -> Dict[str, int]:
    """Distinct small dataset sizes (so swapped dimensions show)."""
    return {
        name: 2 if name.startswith("TSTEPS") else 5 + index
        for index, name in enumerate(sizes)
    }


def global_names(unit) -> List[str]:
    names = []
    for decl in unit.decls:
        group = decl.decls if isinstance(decl, DeclGroup) else [decl]
        names.extend(d.name for d in group if isinstance(d, Decl))
    return names


def interpret(units, sizes: Dict[str, int]) -> Interpreter:
    interp = Interpreter(units, macro_overrides=sizes)
    interp.run_main()
    return interp


def arrays(interp: Interpreter, names: Sequence[str]) -> Dict[str, np.ndarray]:
    return {name: np.array(interp.global_value(name), copy=True) for name in names}


class BuildOracle:
    """Checks built applications; original outputs are computed once per app."""

    def __init__(self) -> None:
        self._original: Dict[str, Tuple[Dict[str, int], List[str], Dict[str, np.ndarray]]] = {}

    def check(self, build: Build, toolflow, states) -> List[str]:
        if build.result is None:
            return [f"{build.app}: build failed: {build.error}"]
        result = build.result
        failures = self._check_output(result, states)
        failures += check_knowledge(result, toolflow)
        failures += check_cobayn(result, toolflow)
        return [f"{build.app}: {message}" for message in failures]

    def _original_outputs(self, app):
        if app.name not in self._original:
            unit = app.parse()
            sizes = tiny_sizes(app.sizes)
            names = global_names(unit)
            self._original[app.name] = (sizes, names, arrays(interpret([unit], sizes), names))
        return self._original[app.name]

    def _check_output(self, result, states) -> List[str]:
        sizes, names, expected = self._original_outputs(result.app)
        header = parse(result.margot_header(list(states.values())), name="margot.h")
        try:
            interp = interpret([header, result.weaver.unit], sizes)
        except Exception as exc:  # an interpreter error is a wrong program
            return [f"woven program failed to run: {type(exc).__name__}: {exc}"]
        woven = arrays(interp, names)
        failures = [
            f"woven output {name!r} differs from the original"
            for name in names
            if not np.array_equal(woven[name], expected[name])
        ]
        version = interp.global_value("__socrates_version")
        if version not in range(len(result.adaptive.versions)):
            failures.append(f"margot.h selected version {version!r}, not a built version")
        return failures


def check_knowledge(result, toolflow) -> List[str]:
    """The knowledge base is the full CF x TN x BP (x cluster) factorial."""
    machine = toolflow.machine
    threads = toolflow.run_identity()["thread_counts"]
    if machine.is_homogeneous:
        pins = [(None, max(threads))]
    else:
        pins = [(name, machine.cluster_logical_cpus(name)) for name in machine.cluster_names()]
    expected = {
        (config.label, count, binding, pin)
        for config in result.compiler_configs
        for count in threads
        for binding in BINDINGS
        for pin, capacity in pins
        if count <= capacity
    }
    points = result.exploration.knowledge.points()
    found = [
        (p.knobs["compiler"], p.knobs["threads"], p.knobs["binding"], p.knobs.get("cluster"))
        for p in points
    ]
    failures = []
    if len(found) != len(set(found)) or set(found) != expected:
        failures.append(
            f"knowledge base has {len(set(found))} distinct of {len(found)} points, "
            f"expected the {len(expected)}-point factorial space"
        )
    for point in points:
        values = [point.metric(m).mean for m in ADJUSTED_METRICS]
        if not all(math.isfinite(v) and v > 0 for v in values):
            failures.append(f"operating point {point.key} has metrics {values}")
            break
    return failures


def check_cobayn(result, toolflow) -> List[str]:
    k = toolflow.run_identity()["cobayn_k"]
    labels = [config.label for config in result.custom_flags]
    if len(labels) != k or len(set(labels)) != k:
        return [f"COBAYN returned {labels}, expected {k} distinct configurations"]
    return []


class SelectionOracle:
    """Brute-force best operating point for each invocation of one binary."""

    def __init__(self, deployment: Deployment) -> None:
        points = deployment.built.exploration.knowledge.points()
        self._index = {
            (p.knobs["compiler"], p.knobs["threads"], p.knobs["binding"], p.knobs.get("cluster")): i
            for i, p in enumerate(points)
        }
        # columns in ADJUSTED_METRICS order, one row per operating point
        self._means = np.array(
            [[p.metric(m).mean for m in ADJUSTED_METRICS] for p in points], dtype=np.float64
        )
        self._deployment = deployment

    def check(self, chunk: int = 512) -> List[str]:
        """One entry per wrong invocation, plus each abandoned binary."""
        deployment = self._deployment
        failures = list(deployment.errors)
        rows = deployment.invocations
        for begin in range(0, len(rows), chunk):
            failures += self._check_rows(rows[begin : begin + chunk], begin)
        return failures

    def _check_rows(self, rows, offset: int) -> List[str]:
        failures = []
        selected = np.array(
            [
                self._index.get(
                    (r.record.compiler, r.record.threads, r.record.binding, r.record.cluster or None), -1
                )
                for r in rows
            ]
        )
        adjust = np.array([r.adjustment for r in rows], dtype=np.float64)
        # adjusted expectation of each metric: rows x points
        values = {
            metric: np.outer(adjust[:, col], self._means[:, col])
            for col, metric in enumerate(ADJUSTED_METRICS)
        }
        for state_name in {r.state for r in rows}:
            rank = self._deployment.states[state_name].rank
            mask = np.array([r.state == state_name for r in rows])
            caps = np.array([np.inf if r.cap is None else r.cap for r in rows])[mask]
            subset = {metric: array[mask] for metric, array in values.items()}
            allowed = survivors(subset["power"], caps)
            scores = rank_values(rank, subset)
            maximize = rank.direction is RankDirection.MAXIMIZE
            masked = np.where(allowed, scores, -np.inf if maximize else np.inf)
            best = masked.max(axis=1) if maximize else masked.min(axis=1)
            for row, index in enumerate(np.flatnonzero(mask)):
                chosen = selected[index]
                where = offset + index
                if chosen < 0:
                    failures.append(f"invocation {where}: ran a point not in the knowledge base")
                elif not allowed[row, chosen]:
                    failures.append(f"invocation {where}: violated power <= {caps[row]:.6g}")
                elif not within(scores[row, chosen], best[row], maximize):
                    failures.append(
                        f"invocation {where}: rank {scores[row, chosen]!r}, best {best[row]!r}"
                    )
        return failures


def survivors(power: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """mARGOt's constraint filter on ``power <= cap``: the feasible points,
    or, where none is feasible, the points of least normalized violation."""
    feasible = power <= caps[:, None]
    scale = np.maximum(np.abs(caps), 1e-12)[:, None]
    with np.errstate(invalid="ignore"):  # inf / inf on uncapped rows, never used
        distance = np.abs(power - caps[:, None]) / scale
    violation = np.where(feasible, 0.0, np.maximum(distance, 1e-15))
    relaxed = violation <= violation.min(axis=1, keepdims=True) + 1e-12
    return np.where(feasible.any(axis=1, keepdims=True), feasible, relaxed)


def rank_values(rank, values: Dict[str, np.ndarray]) -> np.ndarray:
    if rank.composition is RankComposition.LINEAR:
        total: Optional[np.ndarray] = None
        for term in rank.fields:
            part = term.coefficient * values[term.metric]
            total = part if total is None else total + part
        return total
    result = np.ones_like(values["time"])
    for term in rank.fields:
        base = np.where(values[term.metric] <= 0, 1e-30, values[term.metric])
        result = result * np.power(base, term.coefficient)
    return result


def within(value: float, best: float, maximize: bool) -> bool:
    slack = RANK_TOLERANCE * abs(best)
    return value >= best - slack if maximize else value <= best + slack
