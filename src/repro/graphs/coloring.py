"""Graph colorings used for register assignment and verification.

In the decoupled approach the *assignment* phase is easy: a chordal graph with
clique number ``ω`` is colorable with exactly ``ω`` colors by a greedy scan of
the reverse perfect elimination order (the "tree-scan" of Colombet et al.).
These routines are used to (a) turn an allocation into an actual register
assignment and (b) verify that the allocated sub-graph is R-colorable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.chordal import is_chordal, perfect_elimination_order
from repro.graphs.dense import dense_induced_coloring, dense_rows_of
from repro.graphs.graph import Graph, Vertex

Coloring = Dict[Vertex, int]


def greedy_coloring(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> Coloring:
    """Color ``graph`` greedily in ``order`` with the lowest available color.

    When no order is given the vertices are taken in descending degree, a
    common heuristic for general graphs.  The result is a proper coloring;
    the number of distinct colors depends on the order.
    """
    if order is None:
        order = sorted(graph.vertices(), key=lambda v: -graph.degree(v))
    elif set(order) != set(graph.vertices()):
        raise GraphError("coloring order must cover exactly the graph's vertices")
    colors: Coloring = {}
    for v in order:
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        color = 0
        while color in used:
            color += 1
        colors[v] = color
    return colors


def chordal_coloring(graph: Graph, peo: Optional[Sequence[Vertex]] = None) -> Coloring:
    """Optimally color a chordal graph.

    Greedy coloring along the *reverse* of a perfect elimination order uses
    exactly ``ω(G)`` colors (the clique number), which is optimal.
    """
    if len(graph) == 0:
        return {}
    if peo is None:
        peo = perfect_elimination_order(graph)
    return greedy_coloring(graph, list(reversed(peo)))


def induced_chordal_coloring(
    graph: Graph, keep: Iterable[Vertex]
) -> Tuple[Optional[Coloring], Optional[Graph]]:
    """Tree-scan coloring of the subgraph of ``graph`` induced by ``keep``.

    Returns ``(chordal_coloring(induced), None)`` when the induced subgraph
    is chordal and ``(None, induced)`` when it is not, handing the built
    subgraph to the caller's general-graph fallback.  A live
    :class:`~repro.graphs.dense.DenseGraph` colors ``keep`` in place with
    :func:`~repro.graphs.dense.dense_induced_coloring` and builds the
    subgraph only when it is not chordal; other graphs take the set-based
    path (``subgraph`` + ``is_chordal`` + ``chordal_coloring``).
    """
    if dense_rows_of(graph) is not None:
        mask = graph.mask_of(keep)
        coloring = dense_induced_coloring(graph, mask)
        if coloring is not None:
            return coloring, None
        return None, graph.subgraph(graph.vertices_in(mask))
    induced = graph.subgraph(keep)
    if is_chordal(induced):
        return chordal_coloring(induced), None
    return None, induced


def chromatic_number_chordal(graph: Graph, peo: Optional[Sequence[Vertex]] = None) -> int:
    """Return the chromatic number (= clique number) of a chordal graph."""
    coloring = chordal_coloring(graph, peo)
    return (max(coloring.values()) + 1) if coloring else 0


def is_valid_coloring(graph: Graph, coloring: Coloring, num_colors: Optional[int] = None) -> bool:
    """Check a coloring: every vertex colored, adjacent vertices differ.

    When ``num_colors`` is given, also check that every color is in
    ``range(num_colors)`` — i.e. the assignment fits in the register file.
    """
    for v in graph:
        if v not in coloring:
            return False
        if num_colors is not None and not (0 <= coloring[v] < num_colors):
            return False
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            return False
    return True


def color_classes(coloring: Coloring) -> List[List[Vertex]]:
    """Group vertices by color, ordered by color index."""
    if not coloring:
        return []
    classes: List[List[Vertex]] = [[] for _ in range(max(coloring.values()) + 1)]
    for v, c in coloring.items():
        classes[c].append(v)
    return classes
