"""Dense adjacency-bitmask graphs.

A :class:`DenseGraph` stores the adjacency of every vertex as one arbitrary-
width Python integer (bit ``j`` of row ``i`` set iff vertex ``i`` and vertex
``j`` interfere).  Bit indices follow vertex insertion order, so a
``DenseGraph`` is interchangeable with the :class:`~repro.graphs.graph.Graph`
it mirrors: same vertices in the same order, same edges, same weights — and
it *is* a ``Graph`` subclass, so every consumer of the read API keeps
working.  Adjacency *sets* are materialized lazily, in one pass, only when a
consumer actually asks for them (``neighbors``/``subgraph``/``copy``);
mask-level queries (``has_edge``, ``degree``, ``edges``, the dense kernels
below) never build a set.

The payoff is in the kernels: :func:`dense_mcs`,
:func:`dense_is_perfect_elimination_order`,
:func:`dense_chordal_clique_masks` and :func:`dense_frank` are exact
replicas of their set-based counterparts in :mod:`repro.graphs.chordal`,
:mod:`repro.graphs.cliques` and :mod:`repro.graphs.stable_set` — same
results, same orders, same tie-breaking — operating on int masks instead of
hash sets.  The set-based implementations remain in-tree as the reference
oracle; the property suite pins the equivalence.

:func:`dense_induced_coloring` runs the same MCS and PEO kernels on a
``keep`` mask: the tree-scan coloring of the subgraph induced by ``keep``
(what ``chordal_coloring(graph.subgraph(keep))`` returns), or ``None`` when
that subgraph is not chordal — the ``assign`` and ``verify`` stages color
the allocated set in place with it.

Mutation contract: structural mutations (``add_edge``, ``remove_vertex``,
...) first materialize the adjacency sets, then *degrade* the instance to
plain set-backed behaviour (``dense_rows()`` returns ``None`` afterwards and
every dense dispatch falls back to the reference path).  Weight updates keep
the dense rows valid — masks do not encode weights.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex

#: Bit-extraction chunk width.  Extraction jumps to the lowest set bit,
#: word-aligns, and peels one ``_CHUNK``-bit window at a time, so sparse
#: high-offset masks (the common shape: SSA live ranges cluster) cost
#: O(set bits) small-int operations plus a few big-int slices.
_CHUNK = 512
_CHUNK_MASK = (1 << _CHUNK) - 1


def bit_indices(mask: int) -> List[int]:
    """Return the indices of the set bits of ``mask``, ascending."""
    out: List[int] = []
    append = out.append
    while mask:
        base = ((mask & -mask).bit_length() - 1) & -_CHUNK
        word = (mask >> base) & _CHUNK_MASK
        mask ^= word << base
        while word:
            lsb = word & -word
            append(base + lsb.bit_length() - 1)
            word ^= lsb
    return out


class DenseGraph(Graph):
    """A :class:`Graph` whose adjacency lives in per-vertex bitmask rows.

    Construct with :meth:`from_graph` (convert an existing graph) or
    :meth:`from_rows` (adopt prebuilt symmetric rows, e.g. from the dense
    interference builder).  Vertex ``i`` is ``vertex_order[i]``; rows must
    be symmetric with zero diagonal.
    """

    __slots__ = ("_order", "_index", "_rows")

    def __init__(self) -> None:
        super().__init__()
        #: vertices in insertion order (bit index -> vertex); None = degraded.
        self._order: Optional[List[Vertex]] = None
        self._index: Optional[Dict[Vertex, int]] = None
        self._rows: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(
        cls,
        vertex_order: Sequence[Vertex],
        rows: Sequence[int],
        weights: Sequence[float],
    ) -> "DenseGraph":
        """Adopt prebuilt symmetric adjacency rows (not copied)."""
        if not (len(vertex_order) == len(rows) == len(weights)):
            raise GraphError(
                f"mismatched dense graph inputs: {len(vertex_order)} vertices, "
                f"{len(rows)} rows, {len(weights)} weights"
            )
        g = cls()
        g._order = list(vertex_order)
        g._index = {v: i for i, v in enumerate(g._order)}
        if len(g._index) != len(g._order):
            raise GraphError("duplicate vertices in dense graph order")
        g._rows = list(rows)
        for v, w in zip(g._order, weights):
            if w < 0:
                raise GraphError(f"vertex {v!r} has negative weight {w}")
            g._weights[v] = float(w)
        g._mutations = 1
        return g

    @classmethod
    def from_graph(cls, graph: Graph) -> "DenseGraph":
        """Convert ``graph`` (same vertices, order, edges and weights)."""
        order = graph.vertices()
        index = {v: i for i, v in enumerate(order)}
        rows = [0] * len(order)
        for i, v in enumerate(order):
            m = 0
            for u in graph.neighbors(v):
                m |= 1 << index[u]
            rows[i] = m
        return cls.from_rows(order, rows, [graph.weight(v) for v in order])

    # ------------------------------------------------------------------ #
    # dense surface
    # ------------------------------------------------------------------ #
    def dense_rows(self) -> Optional[List[int]]:
        """The symmetric adjacency rows, or ``None`` once degraded.

        Callers must treat the rows (and the list) as read-only.
        """
        return self._rows

    def vertex_order(self) -> List[Vertex]:
        """Vertices in bit-index order (== insertion order)."""
        if self._order is None:
            return super().vertices()
        return list(self._order)

    def index_of(self, v: Vertex) -> int:
        """Bit index of vertex ``v``."""
        if self._index is None:
            raise GraphError("dense index unavailable: graph was mutated")
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def mask_of(self, vertices: Iterable[Vertex]) -> int:
        """Membership mask of ``vertices`` (unknown vertices ignored)."""
        if self._index is None:
            raise GraphError("dense index unavailable: graph was mutated")
        index = self._index
        m = 0
        for v in vertices:
            i = index.get(v)
            if i is not None:
                m |= 1 << i
        return m

    def vertices_in(self, mask: int) -> List[Vertex]:
        """Vertices whose bits are set in ``mask``, in bit order."""
        if self._order is None:
            raise GraphError("dense order unavailable: graph was mutated")
        order = self._order
        return [order[i] for i in bit_indices(mask)]

    # ------------------------------------------------------------------ #
    # lazy set materialization / degradation
    # ------------------------------------------------------------------ #
    def _materialize(self) -> None:
        """Fill the inherited adjacency sets from the rows (one pass)."""
        if self._rows is None or self._adj:
            return
        order = self._order
        adj: Dict[Vertex, set] = {v: set() for v in order}
        for i, row in enumerate(self._rows):
            if row:
                adj[order[i]] = {order[j] for j in bit_indices(row)}
        self._adj = adj

    def _degrade(self) -> None:
        """Switch to plain set-backed behaviour before a structural mutation."""
        self._materialize()
        self._order = None
        self._index = None
        self._rows = None

    # ------------------------------------------------------------------ #
    # Graph API overrides: reads answered from the dense side
    # ------------------------------------------------------------------ #
    def __contains__(self, v: Vertex) -> bool:
        if self._index is None:
            return super().__contains__(v)
        return v in self._index

    def __len__(self) -> int:
        if self._order is None:
            return super().__len__()
        return len(self._order)

    def __iter__(self):
        if self._order is None:
            return super().__iter__()
        return iter(self._order)

    def vertices(self) -> List[Vertex]:
        if self._order is None:
            return super().vertices()
        return list(self._order)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if self._index is None or self._rows is None:
            return super().has_edge(u, v)
        i = self._index.get(u)
        j = self._index.get(v)
        if i is None or j is None:
            return False
        return bool(self._rows[i] >> j & 1)

    def degree(self, v: Vertex) -> int:
        if self._rows is None:
            return super().degree(v)
        return self._rows[self.index_of(v)].bit_count()

    def num_edges(self) -> int:
        if self._rows is None:
            return super().num_edges()
        return sum(row.bit_count() for row in self._rows) // 2

    def edges(self) -> List[Tuple[Vertex, Vertex]]:
        if self._rows is None or self._order is None:
            return super().edges()
        order = self._order
        out: List[Tuple[Vertex, Vertex]] = []
        for i, row in enumerate(self._rows):
            high = row >> (i + 1)
            if high:
                u = order[i]
                out.extend((u, order[i + 1 + j]) for j in bit_indices(high))
        return out

    def neighbors(self, v: Vertex):
        if self._rows is not None:
            if self._index is not None and v not in self._index:
                raise GraphError(f"unknown vertex {v!r}")
            self._materialize()
        return super().neighbors(v)

    def copy(self) -> Graph:
        """A mutable, plain set-backed deep copy."""
        self._materialize()
        return super().copy()

    def subgraph(self, keep: Iterable[Vertex]) -> Graph:
        self._materialize()
        return super().subgraph(keep)

    def without(self, drop: Iterable[Vertex]) -> Graph:
        # Materialize *before* the base implementation captures an iterator
        # over the (possibly still empty) adjacency dict.
        self._materialize()
        return super().without(drop)

    # ------------------------------------------------------------------ #
    # Graph API overrides: structural mutations degrade first
    # ------------------------------------------------------------------ #
    def add_vertex(self, v: Vertex, weight: float = 1.0) -> None:
        if self._index is not None and v in self._index:
            # Weight-only update: rows stay valid, Graph handles the rest.
            if weight < 0:
                raise GraphError(f"vertex {v!r} has negative weight {weight}")
            self._weights[v] = float(weight)
            self._mutations += 1
            return
        if self._rows is not None:
            self._degrade()
        super().add_vertex(v, weight)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().add_edge(u, v)

    def remove_vertex(self, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().remove_vertex(v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        if self._rows is not None:
            self._degrade()
        super().remove_edge(u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "dense" if self._rows is not None else "degraded"
        return f"DenseGraph(|V|={len(self)}, |E|={self.num_edges()}, {mode})"


def dense_rows_of(graph: Graph) -> Optional[List[int]]:
    """The dense rows of ``graph`` when it is a live :class:`DenseGraph`.

    The single dispatch predicate used by the chordal/clique/stable-set
    kernels: ``None`` means "use the set-based reference path".
    """
    if isinstance(graph, DenseGraph):
        return graph.dense_rows()
    return None


# ---------------------------------------------------------------------- #
# dense kernels — exact replicas of the set-based reference algorithms
# ---------------------------------------------------------------------- #
def _mcs_bits(
    rows: Sequence[int], keep: int, start_bit: Optional[int] = None
) -> List[int]:
    """MCS visit order, as bit indices, of the subgraph induced by ``keep``.

    The one MCS kernel behind :func:`dense_mcs` (``keep`` = every bit) and
    :func:`dense_induced_coloring`.  Ties break by bit index, which is the
    induced subgraph's insertion order too, so the order equals the
    reference search on ``graph.subgraph(keep)``.
    """
    n = len(rows)
    # Priority (count desc, tie asc) packed into one int:
    # key = (n - count) * (n + 1) + (tie + 1), tie == bit index == insertion
    # order.  The reference's optional (count 0, tie -1) start seed packs
    # collision-free as tie+1 == 0; a min-heap of these ints pops exactly
    # what the reference's (-count, tie, vertex) tuple heap pops.
    width = n + 1
    members = bit_indices(keep)
    heap: List[int] = [n * width + v + 1 for v in members]
    if start_bit is not None:
        heap.append(n * width)
    heapq.heapify(heap)
    counts = [0] * n
    unvisited = keep
    order_out: List[int] = []
    while len(order_out) < len(members):
        while True:
            key = heapq.heappop(heap)
            tie = key % width
            v = start_bit if tie == 0 else tie - 1  # type: ignore[assignment]
            count = n - key // width
            if (unvisited >> v) & 1 and counts[v] == count:
                break
        unvisited ^= 1 << v
        order_out.append(v)
        for u in bit_indices(rows[v] & unvisited):
            c = counts[u] + 1
            counts[u] = c
            heapq.heappush(heap, (n - c) * width + u + 1)
    return order_out


def _is_peo_bits(rows: Sequence[int], peo_bits: Sequence[int]) -> bool:
    """Whether ``peo_bits`` (distinct bit indices) is a PEO of the subgraph
    they induce.

    Golumbic's earliest-later-neighbour criterion with mask arithmetic: the
    "is every other later neighbour adjacent to the pivot" test becomes one
    AND-NOT against the pivot's row.  Later-neighbour masks only hold bits of
    ``peo_bits``, so the rows need no masking.
    """
    position = [0] * len(rows)
    for p, v in enumerate(peo_bits):
        position[v] = p
    later = 0
    for v in reversed(peo_bits):
        m = rows[v] & later
        later |= 1 << v
        if not m or not m & (m - 1):
            continue
        pivot = min(bit_indices(m), key=position.__getitem__)
        if (m ^ (1 << pivot)) & ~rows[pivot]:
            return False
    return True


def dense_mcs(graph: DenseGraph, start: Optional[Vertex] = None) -> List[Vertex]:
    """Maximum cardinality search on bitmask rows.

    Replicates :func:`repro.graphs.chordal.maximum_cardinality_search`
    bit-for-bit: same (visited-neighbour count, insertion-order tie) priority,
    same lazy-heap semantics, hence the same visit order — the heap entries
    are just packed into single ints.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_mcs requires a live DenseGraph"
    n = len(rows)
    if n == 0:
        return []
    if start is not None and start not in graph:
        raise GraphError(f"unknown start vertex {start!r}")
    start_bit = None if start is None else graph.index_of(start)
    order = graph.vertex_order()
    return [order[i] for i in _mcs_bits(rows, (1 << n) - 1, start_bit)]


def dense_is_peo(graph: DenseGraph, order: Sequence[Vertex]) -> bool:
    """Perfect-elimination-order check on bitmask rows.

    Replicates :func:`repro.graphs.chordal.is_perfect_elimination_order`
    (Golumbic's earliest-later-neighbour criterion).
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_is_peo requires a live DenseGraph"
    n = len(rows)
    if len(order) != n:
        return False
    index = graph._index
    assert index is not None
    try:
        peo_bits = [index[v] for v in order]
    except (KeyError, TypeError):
        return False
    if len(set(peo_bits)) != n:
        return False
    return _is_peo_bits(rows, peo_bits)


def dense_induced_coloring(graph: DenseGraph, keep: int) -> Optional[Dict[Vertex, int]]:
    """Tree-scan coloring of the subgraph induced by ``keep``, or ``None``.

    Equals :func:`repro.graphs.coloring.chordal_coloring` of
    ``graph.subgraph(keep)`` — the greedy lowest-free coloring along the
    subgraph's MCS visit order, same dict order — when that order reversed
    is a perfect elimination order, and ``None`` (the subgraph is not
    chordal) otherwise.  One masked MCS, one PEO check; each vertex's lowest
    free color is found against per-color class masks, so no adjacency set
    or subgraph is built.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_induced_coloring requires a live DenseGraph"
    visit = _mcs_bits(rows, keep)
    if not _is_peo_bits(rows, visit[::-1]):
        return None
    classes: List[int] = []
    colors: List[int] = []
    colored = 0
    for v in visit:
        taken = rows[v] & colored
        color = 0
        if taken:
            while color < len(classes) and classes[color] & taken:
                color += 1
        bit = 1 << v
        if color == len(classes):
            classes.append(bit)
        else:
            classes[color] |= bit
        colors.append(color)
        colored |= bit
    order = graph._order
    assert order is not None
    return {order[v]: c for v, c in zip(visit, colors)}


def dense_chordal_clique_masks(
    graph: DenseGraph, peo: Sequence[Vertex]
) -> List[int]:
    """Candidate-clique masks ``{v} | later-neighbours(v)`` for each PEO vertex."""
    rows = graph.dense_rows()
    assert rows is not None, "dense_chordal_clique_masks requires a live DenseGraph"
    index = graph._index
    assert index is not None
    peo_bits = [index[v] for v in peo]
    later_of: Dict[int, int] = {}
    later = 0
    for v in reversed(peo_bits):
        later_of[v] = later
        later |= 1 << v
    return [(1 << v) | (rows[v] & later_of[v]) for v in peo_bits]


def dense_frank(
    graph: DenseGraph,
    weights: Dict[Vertex, float],
    peo: Sequence[Vertex],
    candidates: int,
) -> List[Vertex]:
    """Frank's maximum weighted stable set on bitmask rows.

    Replicates the marking/selection phases of
    :func:`repro.graphs.stable_set.maximum_weighted_stable_set` exactly
    (same PEO walk, same residual-weight updates, same reverse-marking
    greedy selection), with candidate filtering and the adjacency tests as
    mask operations.  ``candidates`` is a membership mask over the graph's
    bit order; ``peo`` may cover more vertices than the candidates, exactly
    like the reference.
    """
    rows = graph.dense_rows()
    assert rows is not None, "dense_frank requires a live DenseGraph"
    index = graph._index
    order = graph._order
    assert index is not None and order is not None

    peo_bits = [b for b in (index.get(v) for v in peo) if b is not None]
    covered = 0
    for b in peo_bits:
        covered |= 1 << b
    missing = candidates & ~covered
    if missing:
        absent = [order[i] for i in bit_indices(missing)]
        raise GraphError(f"peo missing candidate vertices: {absent!r}")

    later_of = [0] * len(rows)
    later = 0
    for b in reversed(peo_bits):
        later_of[b] = later
        later |= 1 << b

    residual = [0.0] * len(rows)
    for i in bit_indices(candidates):
        v = order[i]
        try:
            residual[i] = float(weights[v])
        except KeyError:
            raise GraphError(f"weights missing for vertices: {[order[i]]!r}") from None

    # Marking phase: vertices with positive residual, in PEO order; each
    # marked vertex's residual is subtracted (clamped at zero) from its
    # not-yet-processed candidate neighbours.  ``positive`` prunes neighbour
    # extraction to vertices whose residual can still change — residuals at
    # zero stay at zero under the reference's max(0, r - amount) update.
    marked: List[int] = []
    positive = candidates
    for v in peo_bits:
        if not (candidates >> v) & 1:
            continue
        amount = residual[v]
        if amount <= 0:
            continue
        marked.append(v)
        for u in bit_indices(rows[v] & later_of[v] & positive):
            x = residual[u] - amount
            if x > 0.0:
                residual[u] = x
            else:
                residual[u] = 0.0
                positive ^= 1 << u
        residual[v] = 0.0
        positive &= ~(1 << v)

    # Selection phase: reverse marking order, keep what is non-adjacent to
    # the kept set.
    chosen: List[Vertex] = []
    chosen_mask = 0
    for v in reversed(marked):
        if not (rows[v] & chosen_mask):
            chosen.append(order[v])
            chosen_mask |= 1 << v
    return chosen
