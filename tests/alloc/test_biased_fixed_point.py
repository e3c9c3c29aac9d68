"""Tests for the BL, FPL and BFPL allocators (paper Section 4.1/4.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc.biased import BiasedLayeredAllocator, bias_weights
from repro.alloc.fixed_point import BiasedFixedPointLayeredAllocator, FixedPointLayeredAllocator
from repro.alloc.layered import LayeredOptimalAllocator
from repro.alloc.optimal import OptimalAllocator
from repro.alloc.problem import AllocationProblem
from repro.check import allocation_diagnostics
from repro.graphs.generators import random_chordal_graph
from repro.graphs.graph import Graph


def make_problem(graph, registers):
    return AllocationProblem(graph=graph, num_registers=registers)


# ---------------------------------------------------------------------- #
# bias_weights
# ---------------------------------------------------------------------- #
def test_bias_weights_formula(figure4_graph):
    biased = bias_weights(figure4_graph)
    n = len(figure4_graph)
    for vertex in figure4_graph.vertices():
        expected = figure4_graph.weight(vertex) * n + figure4_graph.degree(vertex)
        assert biased[vertex] == expected


def test_bias_preserves_strict_weight_order(figure4_graph):
    """Paper property: w(u) < w(v) implies w'(u) < w'(v)."""
    biased = bias_weights(figure4_graph)
    vertices = figure4_graph.vertices()
    for u in vertices:
        for v in vertices:
            if figure4_graph.weight(u) < figure4_graph.weight(v):
                assert biased[u] < biased[v]


def test_bias_breaks_ties_by_degree(figure4_graph):
    """Paper property: equal weights are ordered by degree."""
    biased = bias_weights(figure4_graph)
    vertices = figure4_graph.vertices()
    for u in vertices:
        for v in vertices:
            if (
                figure4_graph.weight(u) == figure4_graph.weight(v)
                and figure4_graph.degree(u) <= figure4_graph.degree(v)
            ):
                assert biased[u] <= biased[v]


def test_bias_weights_with_custom_base_weights(figure4_graph):
    biased = bias_weights(figure4_graph, weights={v: 1.0 for v in figure4_graph.vertices()})
    # With uniform weights the bias is exactly |V| + degree.
    n = len(figure4_graph)
    for vertex in figure4_graph.vertices():
        assert biased[vertex] == n + figure4_graph.degree(vertex)


# ---------------------------------------------------------------------- #
# BL: the biasing makes the better tie-break on the paper's Figure 6 graph
# ---------------------------------------------------------------------- #
def test_bl_prefers_higher_degree_stable_set_on_figure6(figure4_graph):
    """Among the two weight-8 stable sets {b,f} and {c,f}, BL must pick {c,f}.

    c has one more neighbour than b, so allocating c removes more
    interference — the whole point of the biasing (paper Figure 6).
    """
    problem = make_problem(figure4_graph, 1)
    result = BiasedLayeredAllocator().allocate(problem)
    assert result.allocated == frozenset({"c", "f"})


def test_bl_reported_cost_uses_true_weights(figure4_graph):
    problem = make_problem(figure4_graph, 1)
    result = BiasedLayeredAllocator().allocate(problem)
    assert result.spill_cost == pytest.approx(
        figure4_graph.total_weight() - figure4_graph.total_weight(result.allocated)
    )


def test_bl_not_worse_than_nl_on_figure6_graph(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    nl_cost = LayeredOptimalAllocator().allocate(problem).spill_cost
    bl_cost = BiasedLayeredAllocator().allocate(problem).spill_cost
    optimal_cost = OptimalAllocator().allocate(problem).spill_cost
    assert bl_cost <= nl_cost
    assert bl_cost >= optimal_cost - 1e-9


def test_bl_allocations_are_feasible(figure4_graph, figure7_graph):
    for graph in (figure4_graph, figure7_graph):
        for registers in (1, 2, 3):
            problem = make_problem(graph, registers)
            result = BiasedLayeredAllocator().allocate(problem)
            assert allocation_diagnostics(problem, result) == []


# ---------------------------------------------------------------------- #
# FPL / BFPL
# ---------------------------------------------------------------------- #
def test_fpl_never_worse_than_nl(figure4_graph, figure7_graph, figure2_graph):
    for graph in (figure4_graph, figure7_graph, figure2_graph):
        for registers in (1, 2, 3):
            problem = make_problem(graph, registers)
            nl = LayeredOptimalAllocator().allocate(problem)
            fpl = FixedPointLayeredAllocator().allocate(problem)
            assert fpl.spill_cost <= nl.spill_cost + 1e-9
            # FPL extends NL's allocation, it never drops anything.
            assert nl.allocated <= fpl.allocated
            assert allocation_diagnostics(problem, fpl) == []


def test_fpl_allocates_beyond_r_layers_when_possible():
    """A case where the fixed-point phase genuinely improves on NL (Figure 7 idea).

    A heavy triangle {h1, h2, h3} next to a light path y - x - h2.  With two
    registers the two greedy layers pick {h1, y} then {h2}: vertex x loses
    both rounds (it always competes against a heavier neighbourless pick),
    yet none of its cliques is saturated, so the fixed-point phase can still
    allocate it — exactly the situation of the paper's Figure 7 where naive
    layered allocation stops too early.
    """
    graph = Graph()
    graph.add_vertex("h1", 100)
    graph.add_vertex("h2", 90)
    graph.add_vertex("h3", 80)
    for u, v in [("h1", "h2"), ("h1", "h3"), ("h2", "h3")]:
        graph.add_edge(u, v)
    graph.add_vertex("x", 1)
    graph.add_vertex("y", 2)
    graph.add_edge("x", "y")
    graph.add_edge("x", "h2")

    problem = make_problem(graph, 2)
    nl = LayeredOptimalAllocator().allocate(problem)
    fpl = FixedPointLayeredAllocator().allocate(problem)
    assert allocation_diagnostics(problem, fpl) == []
    # NL misses x (spills {h3, x}); FPL recovers it (spills only {h3}).
    assert nl.spilled == frozenset({"h3", "x"})
    assert fpl.spilled == frozenset({"h3"})
    assert fpl.spill_cost < nl.spill_cost
    # FPL matches the optimum here.
    optimal = OptimalAllocator().allocate(problem)
    assert fpl.spill_cost == pytest.approx(optimal.spill_cost)


def test_fpl_stats_report_saturated_cliques(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    result = FixedPointLayeredAllocator().allocate(problem)
    assert result.stats["total_cliques"] == len(problem.cliques)
    assert 0 <= result.stats["saturated_cliques"] <= result.stats["total_cliques"]


def test_bfpl_combines_bias_and_fixed_point(figure4_graph):
    problem = make_problem(figure4_graph, 2)
    bfpl = BiasedFixedPointLayeredAllocator().allocate(problem)
    optimal = OptimalAllocator().allocate(problem)
    assert allocation_diagnostics(problem, bfpl) == []
    assert bfpl.spill_cost >= optimal.spill_cost - 1e-9
    # On this small example BFPL reaches the optimum.
    assert bfpl.spill_cost == pytest.approx(optimal.spill_cost)


def test_fpl_zero_registers(figure4_graph):
    result = FixedPointLayeredAllocator().allocate(make_problem(figure4_graph, 0))
    assert result.allocated == frozenset()


def test_fpl_terminates_with_zero_weight_vertices():
    graph = Graph()
    graph.add_vertex("a", 0.0)
    graph.add_vertex("b", 0.0)
    graph.add_edge("a", "b")
    result = FixedPointLayeredAllocator().allocate(make_problem(graph, 1))
    # Nothing has positive weight; the allocator must still terminate.
    assert result.spill_cost == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 35), registers=st.integers(1, 5))
def test_fpl_and_bfpl_property_feasible_and_no_worse_than_nl(seed, n, registers):
    graph = random_chordal_graph(n, rng=seed)
    problem = make_problem(graph, registers)
    nl = LayeredOptimalAllocator().allocate(problem)
    for allocator in (FixedPointLayeredAllocator(), BiasedFixedPointLayeredAllocator()):
        result = allocator.allocate(problem)
        assert allocation_diagnostics(problem, result) == []
    fpl = FixedPointLayeredAllocator().allocate(problem)
    assert fpl.spill_cost <= nl.spill_cost + 1e-9
