"""Property-based tests (hypothesis) on core data structures and
invariants: printer/parser round trips, Pareto laws, Bayesian-network
probability axioms, monitor statistics, OpenMP placement invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cir import parse, to_source
from repro.cir.printer import expr_to_source
from repro.dse.pareto import pareto_filter
from repro.machine.openmp import BindingPolicy, OpenMPRuntime
from repro.machine.topology import default_machine
from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.knowledge import MetricStats, OperatingPoint
from repro.margot.monitor import Monitor

# ---------------------------------------------------------------------------
# expression grammar for printer/parser round trips
# ---------------------------------------------------------------------------

_identifiers = st.sampled_from(["a", "b", "c", "x", "n", "alpha"])
_int_literals = st.integers(min_value=0, max_value=999).map(str)
_binops = st.sampled_from(["+", "-", "*", "/", "%", "<", ">", "==", "&&", "||"])


def _expressions(depth=3):
    if depth == 0:
        return st.one_of(_identifiers, _int_literals)
    sub = _expressions(depth - 1)
    return st.one_of(
        _identifiers,
        _int_literals,
        st.tuples(sub, _binops, sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(_identifiers, sub).map(lambda t: f"{t[0]}[{t[1]}]"),
        st.tuples(_identifiers, sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda e: f"-({e})"),
        st.tuples(sub, sub, sub).map(lambda t: f"(({t[0]}) ? ({t[1]}) : ({t[2]}))"),
    )


class TestPrinterRoundTrip:
    @given(_expressions())
    @settings(max_examples=120, deadline=None)
    def test_expression_round_trip_is_fixed_point(self, text):
        """parse -> print -> parse -> print must be a fixed point."""
        unit1 = parse(f"void f(void) {{ x = {text}; }}")
        printed1 = to_source(unit1)
        unit2 = parse(printed1)
        assert to_source(unit2) == printed1

    @given(_expressions())
    @settings(max_examples=60, deadline=None)
    def test_expression_semantics_preserved(self, text):
        """Printed expressions keep the same tree shape when reparsed."""
        expr1 = parse(f"void f(void) {{ x = {text}; }}").function("f").body.stmts[0].expr.rhs
        printed = expr_to_source(expr1)
        expr2 = parse(f"void f(void) {{ x = {printed}; }}").function("f").body.stmts[0].expr.rhs
        assert expr_to_source(expr2) == printed

    @given(
        st.lists(
            st.sampled_from(["x = 1;", "y += 2;", "if (a) b = 1;", "for (i = 0; i < 9; i++) s += i;", "break;"]),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_statement_sequences_round_trip(self, stmts):
        body = "\n".join(stmts)
        source = f"void f(int a, int i, int s) {{ for (;;) {{ {body} }} }}"
        printed = to_source(parse(source))
        assert to_source(parse(printed)) == printed


# ---------------------------------------------------------------------------
# pragma round trips: woven pragma text must survive print -> lex -> parse
# ---------------------------------------------------------------------------

_omp_clauses = st.lists(
    st.sampled_from(
        [
            "private(i, j)",
            "firstprivate(a)",
            "lastprivate(b)",
            "shared(A)",
            "reduction(+:s)",
            "reduction(*:p)",
            "num_threads(__socrates_num_threads)",
            "proc_bind(close)",
            "proc_bind(spread)",
            "schedule(static)",
        ]
    ),
    max_size=4,
    unique=True,
)


def _pragma_texts(unit):
    from repro.cir import ast as cir_ast
    from repro.cir.visitor import walk

    texts = []
    for decl in unit.decls:
        if isinstance(decl, cir_ast.FunctionDef):
            texts.extend(p.text for p in decl.pragmas)
            texts.extend(
                n.text for n in walk(decl.body) if isinstance(n, cir_ast.Pragma)
            )
    return texts


class TestPragmaRoundTrip:
    @given(_omp_clauses)
    @settings(max_examples=60, deadline=None)
    def test_omp_pragma_clauses_survive_reparsing(self, clauses):
        pragma = " ".join(["omp parallel for"] + clauses)
        source = (
            f"void f(int n) {{\n"
            f"  int i;\n"
            f"  #pragma {pragma}\n"
            f"  for (i = 0; i < n; i++)\n"
            f"    g(i);\n"
            f"}}\n"
        )
        unit = parse(source)
        assert _pragma_texts(unit) == [pragma]
        reparsed = parse(to_source(unit))
        assert _pragma_texts(reparsed) == [pragma]
        assert to_source(reparsed) == to_source(unit)

    @pytest.mark.parametrize("name", ["mvt", "atax"])
    def test_woven_pragmas_survive_reparsing(self, name):
        """The weaver's pragmas (GCC optimize, num_threads/proc_bind
        clauses) are printable and re-parse to the identical text."""
        from repro.gcc.flags import paper_custom_flags, standard_levels
        from repro.lara.metrics import weave_benchmark
        from repro.polybench.suite import load

        configs = standard_levels() + paper_custom_flags()
        _, weaver = weave_benchmark(load(name), configs)
        printed = to_source(weaver.unit)
        reparsed = parse(printed)
        original_texts = sorted(_pragma_texts(weaver.unit))
        reparsed_texts = sorted(_pragma_texts(reparsed))
        assert original_texts == reparsed_texts
        assert any("num_threads(__socrates_num_threads)" in t for t in reparsed_texts)
        assert any("proc_bind(" in t for t in reparsed_texts)
        assert any(t.startswith("GCC optimize") for t in reparsed_texts)
        # and printing is a fixed point
        assert to_source(reparsed) == printed


# ---------------------------------------------------------------------------
# Pareto laws
# ---------------------------------------------------------------------------

_metric_points = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=1.0, max_value=200, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


def _as_ops(pairs):
    return [
        OperatingPoint(
            knobs={"id": index},
            metrics={"time": MetricStats(t), "power": MetricStats(p)},
        )
        for index, (t, p) in enumerate(pairs)
    ]


class TestParetoProperties:
    OBJECTIVES = [("time", False), ("power", False)]

    @given(_metric_points)
    @settings(max_examples=80, deadline=None)
    def test_front_nonempty_and_subset(self, pairs):
        points = _as_ops(pairs)
        front = pareto_filter(points, self.OBJECTIVES)
        assert front
        assert all(point in points for point in front)

    @given(_metric_points)
    @settings(max_examples=80, deadline=None)
    def test_front_is_idempotent(self, pairs):
        points = _as_ops(pairs)
        once = pareto_filter(points, self.OBJECTIVES)
        twice = pareto_filter(once, self.OBJECTIVES)
        assert [p.knobs["id"] for p in once] == [p.knobs["id"] for p in twice]

    @given(_metric_points)
    @settings(max_examples=80, deadline=None)
    def test_no_member_dominates_another(self, pairs):
        front = pareto_filter(_as_ops(pairs), self.OBJECTIVES)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    a.metric("time").mean <= b.metric("time").mean
                    and a.metric("power").mean <= b.metric("power").mean
                    and (
                        a.metric("time").mean < b.metric("time").mean
                        or a.metric("power").mean < b.metric("power").mean
                    )
                )
                assert not dominates

    @given(_metric_points)
    @settings(max_examples=60, deadline=None)
    def test_global_minima_always_on_front(self, pairs):
        points = _as_ops(pairs)
        front = pareto_filter(points, self.OBJECTIVES)
        fastest = min(points, key=lambda p: (p.metric("time").mean, p.metric("power").mean))
        front_keys = {
            (p.metric("time").mean, p.metric("power").mean) for p in front
        }
        assert (
            fastest.metric("time").mean,
            fastest.metric("power").mean,
        ) in front_keys


# ---------------------------------------------------------------------------
# monitor statistics
# ---------------------------------------------------------------------------


class TestMonitorProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_stats_match_numpy_on_window(self, values, window):
        monitor = Monitor("m", window_size=window)
        for value in values:
            monitor.push(value)
        tail = values[-window:]
        assert monitor.average() == pytest.approx(np.mean(tail), rel=1e-9, abs=1e-9)
        assert monitor.max() == max(tail)
        assert monitor.min() == min(tail)
        assert len(monitor) == len(tail)

    @given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_stddev_non_negative(self, values):
        monitor = Monitor("m", window_size=64)
        for value in values:
            monitor.push(value)
        assert monitor.stddev() >= 0.0


# ---------------------------------------------------------------------------
# OpenMP placement invariants
# ---------------------------------------------------------------------------


class TestPlacementProperties:
    @given(
        st.integers(min_value=1, max_value=32),
        st.sampled_from([BindingPolicy.CLOSE, BindingPolicy.SPREAD]),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_thread_assigned_to_valid_place(self, threads, policy):
        omp = OpenMPRuntime(default_machine())
        placement = omp.place(threads, policy)
        assert placement.num_threads == threads
        valid = set(default_machine().core_places())
        assert all(place in valid for place in placement.assignments)

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_no_core_oversubscribed_within_capacity(self, threads):
        omp = OpenMPRuntime(default_machine())
        for policy in BindingPolicy:
            placement = omp.place(threads, policy)
            per_core = {}
            for place in placement.assignments:
                per_core[place] = per_core.get(place, 0) + 1
            assert max(per_core.values()) <= 1  # <=16 threads: no SMT doubling

    @given(st.integers(min_value=17, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_smt_never_exceeds_two_per_core(self, threads):
        omp = OpenMPRuntime(default_machine())
        for policy in BindingPolicy:
            placement = omp.place(threads, policy)
            per_core = {}
            for place in placement.assignments:
                per_core[place] = per_core.get(place, 0) + 1
            assert max(per_core.values()) <= 2

    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_spread_socket_balance(self, threads):
        omp = OpenMPRuntime(default_machine())
        placement = omp.place(threads, BindingPolicy.SPREAD)
        per_socket = placement.occupancy
        assert abs(per_socket[0].threads - per_socket[1].threads) <= 1


# ---------------------------------------------------------------------------
# goals
# ---------------------------------------------------------------------------


class TestGoalProperties:
    @given(
        st.sampled_from(list(ComparisonFunction)),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_violation_zero_iff_satisfied(self, comparison, target, observed):
        goal = Goal("m", comparison, target)
        if goal.check(observed):
            assert goal.violation(observed) == 0.0
        else:
            assert goal.violation(observed) > 0.0
