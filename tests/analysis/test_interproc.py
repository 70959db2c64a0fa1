"""Tests for call-graph construction and bottom-up ordering."""

from repro.analysis.interproc import build_call_graph
from repro.cir import parse

_TWO_LEVEL = """
double A[100];
void leaf(void) {
  int i;
  for (i = 0; i < 100; i++)
    A[i] = A[i] + 1.0;
}
void driver(void) {
  int t;
  for (t = 0; t < 10; t++)
    leaf();
}
"""


class TestCallGraph:
    def test_edges_and_callers(self):
        graph = build_call_graph(parse(_TWO_LEVEL))
        assert graph.nodes == ("leaf", "driver")
        assert graph.callees("driver") == ("leaf",)
        assert graph.callees("leaf") == ()
        assert graph.callers("leaf") == ("driver",)

    def test_external_callees_are_separated(self):
        unit = parse(
            """
            double y;
            void k(double x) { y = sqrt(x); }
            """
        )
        graph = build_call_graph(unit)
        assert graph.callees("k") == ()
        assert graph.external_callees("k") == ("sqrt",)

    def test_bottom_up_orders_callees_first(self):
        graph = build_call_graph(parse(_TWO_LEVEL))
        order = graph.bottom_up()
        assert order.index("leaf") < order.index("driver")

    def test_recursion_is_detected(self):
        unit = parse(
            """
            int f(int n) { return f(n - 1); }
            int g(int n) { return h(n); }
            int h(int n) { return g(n); }
            int pure(int n) { return n; }
            """
        )
        graph = build_call_graph(unit)
        assert graph.recursive_functions() == frozenset({"f", "g", "h"})
        # cycle members still appear in the order, after acyclic ones
        assert set(graph.bottom_up()) == {"f", "g", "h", "pure"}

