"""Unit tests for the CIR static analyses."""

import pytest

from repro.cir import (
    census,
    collect_loops,
    eval_const,
    macro_environment,
    max_loop_depth,
    omp_parallel_loops,
    parse,
)
from repro.cir.analysis import LoopInfo


def loops_of(source, func="f"):
    unit = parse(source)
    return collect_loops(unit.function(func).body)


TRIPLE_NEST = """
#define N 100
void f(int n) {
  int i, j, k;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      for (k = 0; k < n; k++)
        x += 1;
}
"""


class TestEvalConst:
    def test_literal(self):
        unit = parse("#define N 4\n")
        env = macro_environment(unit)
        assert env["N"] == 4

    @pytest.mark.parametrize(
        "text,expected",
        [("1 + 2", 3), ("2 * 3", 6), ("7 - 2", 5), ("9 / 2", 4), ("9 % 4", 1), ("-3", -3)],
    )
    def test_arithmetic(self, text, expected):
        unit = parse(f"void f(void) {{ x = {text}; }}")
        expr = unit.function("f").body.stmts[0].expr.rhs
        assert eval_const(expr) == expected

    def test_identifier_from_env(self):
        unit = parse("void f(void) { x = N - 1; }")
        expr = unit.function("f").body.stmts[0].expr.rhs
        assert eval_const(expr, {"N": 10}) == 9
        assert eval_const(expr, {}) is None

    @pytest.mark.parametrize(
        "text,expected",
        [
            # C division/modulo truncate toward zero / follow the dividend
            ("-7 / 2", -3),
            ("7 / -2", -3),
            ("-7 % 2", -1),
            ("7 % -2", 1),
            ("-(3 + 4)", -7),
            ("+5", 5),
            ("-(-5)", 5),
        ],
    )
    def test_signed_division_and_unary(self, text, expected):
        unit = parse(f"void f(void) {{ x = {text}; }}")
        expr = unit.function("f").body.stmts[0].expr.rhs
        assert eval_const(expr) == expected

    @pytest.mark.parametrize("text", ["1 / 0", "1 % 0", "-UNKNOWN", "UNKNOWN + 1"])
    def test_unresolvable_returns_none(self, text):
        unit = parse(f"void f(void) {{ x = {text}; }}")
        expr = unit.function("f").body.stmts[0].expr.rhs
        assert eval_const(expr) is None

    def test_env_resolves_through_unary_minus(self):
        unit = parse("void f(void) { x = -M; }")
        expr = unit.function("f").body.stmts[0].expr.rhs
        assert eval_const(expr, {"M": 6}) == -6


class TestLoopCollection:
    def test_nesting_depths(self):
        loops = loops_of(TRIPLE_NEST)
        assert [l.depth for l in loops] == [0, 1, 2]

    def test_parent_child_links(self):
        loops = loops_of(TRIPLE_NEST)
        assert loops[1].parent is loops[0]
        assert loops[0].children == [loops[1]]
        assert not loops[2].children

    def test_induction_variables(self):
        loops = loops_of(TRIPLE_NEST)
        assert [l.induction_variable for l in loops] == ["i", "j", "k"]

    def test_max_depth(self):
        unit = parse(TRIPLE_NEST)
        assert max_loop_depth(unit.function("f")) == 3

    def test_sibling_loops_same_depth(self):
        source = """
void f(int n) {
  int i;
  for (i = 0; i < n; i++) x = 1;
  for (i = 0; i < n; i++) x = 2;
}
"""
        loops = loops_of(source)
        assert [l.depth for l in loops] == [0, 0]

    def test_declaration_init_induction_variable(self):
        loops = loops_of("void f(int n) { for (int i = 0; i < n; i++) x = 1; }")
        assert loops[0].induction_variable == "i"


class TestTripCount:
    def test_simple_upward(self):
        loops = loops_of(TRIPLE_NEST)
        assert loops[0].trip_count({"n": 100}) == 100

    def test_inclusive_bound(self):
        loops = loops_of("void f(int n) { int i; for (i = 0; i <= n; i++) x = 1; }")
        assert loops[0].trip_count({"n": 10}) == 11

    def test_downward_loop(self):
        loops = loops_of("void f(int n) { int i; for (i = n - 1; i >= 0; i--) x = 1; }")
        assert loops[0].trip_count({"n": 8}) == 8

    def test_strict_downward(self):
        loops = loops_of("void f(int n) { int i; for (i = n; i > 0; i--) x = 1; }")
        assert loops[0].trip_count({"n": 8}) == 8

    def test_stride_two(self):
        loops = loops_of("void f(int n) { int i; for (i = 0; i < n; i += 2) x = 1; }")
        assert loops[0].trip_count({"n": 9}) == 5

    def test_nonconstant_bound_returns_none(self):
        loops = loops_of("void f(int n) { int i; for (i = 0; i < m; i++) x = 1; }")
        assert loops[0].trip_count({"n": 4}) is None

    def test_zero_span(self):
        loops = loops_of("void f(void) { int i; for (i = 5; i < 5; i++) x = 1; }")
        assert loops[0].trip_count() == 0

    def test_bounds_and_midpoint(self):
        loops = loops_of("void f(int n) { int i; for (i = 2; i < 10; i++) x = 1; }")
        assert loops[0].bounds() == (2, 10)
        assert loops[0].midpoint() == 6

    def test_stride_two_inclusive(self):
        loops = loops_of("void f(int n) { int i; for (i = 0; i <= n; i += 2) x = 1; }")
        assert loops[0].trip_count({"n": 8}) == 5

    def test_downward_stride_two(self):
        loops = loops_of("void f(int n) { int i; for (i = n; i > 0; i -= 2) x = 1; }")
        assert loops[0].trip_count({"n": 8}) == 4

    def test_assign_form_step(self):
        loops = loops_of(
            "void f(int n) { int i; for (i = 0; i < n; i = i + 3) x = 1; }"
        )
        assert loops[0].trip_count({"n": 10}) == 4

    def test_assign_form_downward(self):
        loops = loops_of(
            "void f(int n) { int i; for (i = n; i > 0; i = i - 3) x = 1; }"
        )
        assert loops[0].trip_count({"n": 9}) == 3

    def test_direction_mismatch_returns_none(self):
        # counts away from the bound: non-terminating, not a trip count
        loops = loops_of("void f(int n) { int i; for (i = 0; i < n; i -= 1) x = 1; }")
        assert loops[0].trip_count({"n": 10}) is None
        loops = loops_of("void f(int n) { int i; for (i = n; i > 0; i += 1) x = 1; }")
        assert loops[0].trip_count({"n": 10}) is None

    def test_zero_step_returns_none(self):
        loops = loops_of("void f(int n) { int i; for (i = 0; i < n; i += 0) x = 1; }")
        assert loops[0].trip_count({"n": 10}) is None

    def test_macro_valued_step(self):
        loops = loops_of(
            "void f(int n) { int i; for (i = 0; i < n; i += S) x = 1; }"
        )
        assert loops[0].trip_count({"n": 10, "S": 5}) == 2
        assert loops[0].trip_count({"n": 10}) is None

    def test_empty_init_with_step_recovers_induction(self):
        # an empty init clause no longer defeats the analysis: the
        # step expression identifies the induction variable
        loops = loops_of("void f(int n) { int i; i = 0; for (; i < n; i++) x = 1; }")
        assert loops[0].induction_variable == "i"


class TestCensus:
    def test_counts_fp_and_int(self):
        source = """
#define N 4
void f(int n, double A[N]) {
  int i;
  for (i = 0; i < n; i++)
    A[i] = A[i] * 2.0 + 1.0;
}
"""
        stats = census(parse(source).function("f"))
        assert stats.binary_fp_ops == 2  # * and +
        assert stats.array_stores == 1
        assert stats.array_loads == 1
        assert stats.comparisons == 1

    def test_counts_calls_and_math(self):
        source = "void f(double x) { y = sqrt(x) + helper(x); }"
        stats = census(parse(source).function("f"))
        assert stats.calls == 2
        assert stats.math_calls == 1

    def test_counts_branches(self):
        source = "void f(int a) { if (a) x = 1; y = a > 0 ? 1 : 2; }"
        stats = census(parse(source).function("f"))
        assert stats.branches == 2

    def test_divisions(self):
        source = "void f(double a, double b) { x = a / b; }"
        stats = census(parse(source).function("f"))
        assert stats.divisions == 1

    def test_memory_ops_property(self):
        source = "#define N 4\nvoid f(double A[N]) { A[0] = A[1] + A[2]; }"
        stats = census(parse(source).function("f"))
        assert stats.memory_ops == stats.array_loads + stats.array_stores == 3


class TestOmpQueries:
    def test_omp_parallel_loops_found(self):
        source = (
            "void f(int n) {\n"
            "  int i;\n"
            "#pragma omp parallel for\n"
            "  for (i = 0; i < n; i++)\n"
            "    x = i;\n"
            "}\n"
        )
        unit = parse(source)
        pragmas = omp_parallel_loops(unit.function("f"))
        assert len(pragmas) == 1

    def test_non_omp_pragma_ignored(self):
        source = "void f(void) {\n#pragma scop\n x = 1;\n}\n"
        unit = parse(source)
        assert omp_parallel_loops(unit.function("f")) == []

    def test_macro_environment_skips_non_numeric(self):
        unit = parse("#define DATA_TYPE double\n#define N 16\n")
        env = macro_environment(unit)
        assert env == {"N": 16}
