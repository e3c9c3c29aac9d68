"""Masked dense kernels: MCS, PEO check and coloring of an induced subgraph.

The bit-level MCS and PEO kernels run on a ``keep`` mask, and
``dense_induced_coloring`` built on them, must answer exactly what the
set-based reference answers on ``graph.subgraph(keep)``; the ``assign`` and
``verify`` stages rely on that to color the allocated set in place.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.alloc.assignment import assign_registers
from repro.alloc.problem import AllocationProblem
from repro.alloc.base import get_allocator
from repro.check.allocation import (
    allocation_report_and_diagnostics,
    assignment_diagnostics,
    is_allocation_feasible,
)
from repro.graphs import dense
from repro.graphs.chordal import (
    is_chordal,
    is_perfect_elimination_order,
    maximum_cardinality_search,
)
from repro.graphs.coloring import chordal_coloring, induced_chordal_coloring
from repro.graphs.dense import DenseGraph, dense_induced_coloring
from repro.graphs.generators import (
    cycle_graph,
    random_chordal_graph,
    random_general_graph,
    random_interval_graph,
)
from repro.graphs.graph import Graph


def _graph(kind: str, n: int, seed: int) -> Graph:
    if kind == "chordal":
        return random_chordal_graph(n, rng=seed, extra_edge_prob=0.4)
    return random_general_graph(n, rng=seed, edge_prob=0.25)


def _keep(graph: Graph, shape: str, seed: int) -> list:
    vertices = graph.vertices()
    rng = random.Random(seed)
    if shape == "empty" or not vertices:
        return []
    if shape == "singleton":
        return [rng.choice(vertices)]
    if shape == "full":
        return vertices
    return [v for v in vertices if rng.random() < 0.6]


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["chordal", "general"]),
    n=st.integers(0, 40),
    seed=st.integers(0, 100_000),
    shape=st.sampled_from(["empty", "singleton", "full", "random"]),
)
def test_masked_kernels_match_reference_on_induced_subgraph(kind, n, seed, shape):
    graph = _graph(kind, n, seed)
    keep = _keep(graph, shape, seed)
    d = DenseGraph.from_graph(graph)
    mask = d.mask_of(keep)
    induced = graph.subgraph(keep)

    rows = d.dense_rows()
    order = d.vertex_order()
    bits = {v: i for i, v in enumerate(order)}

    visit = maximum_cardinality_search(induced)
    assert [order[i] for i in dense._mcs_bits(rows, mask)] == visit
    peo = visit[::-1]
    assert dense._is_peo_bits(rows, [bits[v] for v in peo]) == (
        is_perfect_elimination_order(induced, peo)
    )
    shuffled = list(peo)
    random.Random(seed).shuffle(shuffled)
    assert dense._is_peo_bits(rows, [bits[v] for v in shuffled]) == (
        is_perfect_elimination_order(induced, shuffled)
    )

    coloring = dense_induced_coloring(d, mask)
    if is_chordal(induced):
        # Same colors *and* the same dict order: assign hands out names in it.
        assert coloring is not None
        assert list(coloring.items()) == list(chordal_coloring(induced).items())
    else:
        assert coloring is None
    assert d.dense_rows() is not None and not d._adj  # nothing materialized


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["chordal", "general"]),
    n=st.integers(0, 30),
    seed=st.integers(0, 100_000),
    shape=st.sampled_from(["empty", "singleton", "full", "random"]),
)
def test_induced_chordal_coloring_dense_matches_set_path(kind, n, seed, shape):
    graph = _graph(kind, n, seed)
    keep = _keep(graph, shape, seed)
    coloring, induced = induced_chordal_coloring(DenseGraph.from_graph(graph), keep)
    ref_coloring, ref_induced = induced_chordal_coloring(graph, keep)
    assert (coloring is None) == (ref_coloring is None)
    if coloring is not None:
        assert list(coloring.items()) == list(ref_coloring.items())
        assert induced is None and ref_induced is None
    else:
        assert induced.vertices() == ref_induced.vertices()
        assert sorted(map(sorted, induced.edges())) == sorted(map(sorted, ref_induced.edges()))


# ---------------------------------------------------------------------- #
# assign + verify on a live DenseGraph
# ---------------------------------------------------------------------- #
def _counting(monkeypatch):
    calls = {"subgraph": 0, "mcs": 0}
    original_subgraph = Graph.subgraph
    original_mcs = dense._mcs_bits

    def counting_subgraph(self, keep):
        calls["subgraph"] += 1
        return original_subgraph(self, keep)

    def counting_mcs(*args, **kwargs):
        calls["mcs"] += 1
        return original_mcs(*args, **kwargs)

    monkeypatch.setattr(Graph, "subgraph", counting_subgraph)
    monkeypatch.setattr(dense, "_mcs_bits", counting_mcs)
    return calls


def test_assign_and_verify_never_materialize_adjacency_sets(monkeypatch):
    """Acceptance: one masked MCS per stage, no subgraph copy, no adjacency set."""
    graph, _ = random_interval_graph(200, rng=5, span=200, max_length=40)
    d = DenseGraph.from_graph(graph)
    problem = AllocationProblem(graph=d, num_registers=12)
    assert problem.max_pressure > problem.num_registers  # a real allocation
    result = get_allocator("NL").allocate(problem)
    assert result.spilled and not d._adj

    calls = _counting(monkeypatch)
    assignment = assign_registers(d, result.allocated, problem.num_registers)
    assert calls == {"subgraph": 0, "mcs": 1}
    report, diagnostics = allocation_report_and_diagnostics(problem, result)
    diagnostics += assignment_diagnostics(problem, result, assignment)
    assert calls == {"subgraph": 0, "mcs": 2}
    assert not d._adj and d.dense_rows() is not None
    assert diagnostics == []

    # The set-based reference agrees byte for byte.
    assert list(assignment.items()) == list(
        assign_registers(graph, result.allocated, problem.num_registers).items()
    )
    assert report == is_allocation_feasible(graph, result.allocated, 12)


def test_non_chordal_allocation_falls_back_to_set_path():
    graph = cycle_graph(6)  # C6: not chordal, 2-colorable
    d = DenseGraph.from_graph(graph)
    allocated = graph.vertices()
    assert assign_registers(d, allocated, 2) == assign_registers(graph, allocated, 2)
    assert is_allocation_feasible(d, allocated, 2) == is_allocation_feasible(graph, allocated, 2)
    assert is_allocation_feasible(d, allocated, 1) == is_allocation_feasible(graph, allocated, 1)


def test_degraded_dense_graph_takes_the_set_path(monkeypatch):
    graph = random_chordal_graph(25, rng=6)
    d = DenseGraph.from_graph(graph)
    graph.add_edge("v0", "extra")
    d.add_edge("v0", "extra")  # structural mutation: the rows are gone
    assert d.dense_rows() is None
    allocated = graph.vertices()[::2]
    calls = _counting(monkeypatch)
    assert list(assign_registers(d, allocated, 25).items()) == list(
        assign_registers(graph, allocated, 25).items()
    )
    assert is_allocation_feasible(d, allocated, 3) == is_allocation_feasible(graph, allocated, 3)
    assert calls == {"subgraph": 4, "mcs": 0}


def test_empty_and_registerless_reports_match_reference():
    graph = random_chordal_graph(10, rng=4)
    d = DenseGraph.from_graph(graph)
    for allocated, registers in (([], 4), ([], 0), (graph.vertices(), 0), (["ghost"], 2)):
        assert is_allocation_feasible(d, allocated, registers) == is_allocation_feasible(
            graph, allocated, registers
        )
    assert assign_registers(d, [], 4) == {} == assign_registers(d, ["ghost"], 4)


def test_register_clash_screen_reports_what_the_enumeration_reports():
    graph = random_chordal_graph(30, rng=9, extra_edge_prob=0.5)
    d = DenseGraph.from_graph(graph)
    problem = AllocationProblem(graph=d, num_registers=4)
    reference = AllocationProblem(graph=graph, num_registers=4)
    result = get_allocator("NL").allocate(problem)
    assignment = assign_registers(d, result.allocated, 4)
    # Force clashes: every allocated variable onto its neighbour's register.
    clashing = dict(assignment)
    for u, v in graph.edges():
        if u in clashing and v in clashing:
            clashing[v] = clashing[u]
    diags = assignment_diagnostics(problem, result, clashing)
    assert any(d.code == "ALLOC007" for d in diags)
    assert diags == assignment_diagnostics(reference, result, clashing)
    assert assignment_diagnostics(problem, result, assignment) == []
