"""Finite connected simple graphs and their structural data.

Vertices are dense integer indices ``0..n-1``.  Everything here is immutable
after construction: graphs are hashable value objects, matrices are returned
as read-only numpy arrays, and all operations are pure functions.

Beyond validation this module provides single-source distance rows and the
shortest-path metric stacked from them, the bipartite 2-coloring, a canonical
BFS spanning tree with its leaf-distance rank ``r``, the r-monotone vertex
ordering used by the tree-based transport algorithm, the integer 1-Lipschitz
vertex functions (the corners of the transport dual), and exhaustive
enumeration of small labeled connected graphs.
All of the traversal behind them is one breadth-first search, :func:`_bfs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyVertexSetError,
    GraphFormatError,
    InvalidVertexError,
    LimitExceededError,
    SelfLoopError,
)

ENUMERATION_MAX_VERTICES = 6


@dataclass(frozen=True)
class Graph:
    """Validated finite connected simple graph.

    ``adjacency[i]`` is the sorted tuple of neighbors of ``i``; ``edges``
    lists each unordered pair once as ``(i, j)`` with ``i < j``.  Derived
    structure (``metric``, ``bipartite``, ``corners`` and each row of
    :meth:`distances_from`) is computed on first use and kept on the
    instance, so it lives exactly as long as the graph.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def metric(self) -> Metric:
        return all_pairs_distances(self)

    def distances_from(self, v: int) -> np.ndarray:
        """Read-only int64 hop distances from v to every vertex (one BFS, kept)."""
        rows = self._distance_rows
        if v not in rows:
            if not 0 <= v < self.n:
                raise InvalidVertexError(f"vertex {v} outside 0..{self.n - 1}")
            rows[v] = _frozen_array(np.array(_bfs(self.adjacency, [v])[1], dtype=np.int64))
        return rows[v]

    @cached_property
    def _distance_rows(self) -> dict[int, np.ndarray]:
        return {}

    @cached_property
    def bipartite(self) -> BipartiteStructure:
        return bipartite_decompose(self)

    @cached_property
    def corners(self) -> np.ndarray:
        """Read-only (count, n) matrix of :func:`integer_lipschitz_functions`."""
        return integer_lipschitz_functions(self)

    @cached_property
    def arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``arcs[a]`` pairs each neighbor b of a with the id of the arc a -> b.

        Edge ``edges[e]`` gives arc ``2e`` from its smaller end and arc
        ``2e + 1`` back, so ``id ^ 1`` is the opposite arc.
        """
        index = {edge: 2 * e for e, edge in enumerate(self.edges)}
        return tuple(
            tuple((b, index[(a, b)] if a < b else index[(b, a)] + 1) for b in ns)
            for a, ns in enumerate(self.adjacency)
        )

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True, eq=False)
class Metric:
    """All-pairs shortest-path distances; ``dist`` is a read-only (n, n) int array."""

    dist: np.ndarray

    def d(self, a: int, b: int) -> int:
        return int(self.dist[a, b])


@dataclass(frozen=True)
class BipartiteStructure:
    """2-coloring of a bipartite graph; ``side`` is None when not bipartite.

    When bipartite, ``side[v]`` is 0 or 1, every edge joins side 0 to side 1,
    and ``side[0] == 0``.
    """

    is_bipartite: bool
    side: tuple[int, ...] | None

    def vertices_on_side(self, s: int) -> tuple[int, ...]:
        if self.side is None:
            raise ValueError("graph is not bipartite")
        return tuple(v for v, lab in enumerate(self.side) if lab == s)


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree with its leaves and the leaf-distance rank ``r``.

    ``r[w]`` is the shortest-path distance (in the full graph) from ``w`` to
    the nearest tree leaf.  A single-vertex graph has no tree edges; its lone
    vertex is treated as a leaf with r = 0.
    """

    tree_edges: tuple[tuple[int, int], ...]
    leaves: tuple[int, ...]
    r: tuple[int, ...]


@dataclass(frozen=True)
class ROrdering:
    """Vertex permutation sorted by nondecreasing leaf-distance rank."""

    order: tuple[int, ...]

    def positions(self) -> tuple[int, ...]:
        """Inverse permutation: ``positions()[v]`` is the 0-based index of v."""
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return tuple(pos)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_graph(edge_list, n: int) -> Graph:
    """Validate an edge list and return a canonical :class:`Graph`.

    Pairs may be given in either orientation.  Raises on self-loops,
    duplicate edges, out-of-range indices, an empty vertex set, or a
    disconnected result.
    """
    if n < 1:
        raise EmptyVertexSetError(f"need at least one vertex, got n={n}")
    seen: set[tuple[int, int]] = set()
    for a, b in edge_list:
        if not (0 <= a < n) or not (0 <= b < n):
            raise InvalidVertexError(f"edge ({a}, {b}) outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"self-loop at vertex {a}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
    edges = tuple(sorted(seen))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    if len(_bfs(adjacency, [0])[0]) != n:
        raise DisconnectedError("graph is not connected")
    return Graph(n=n, adjacency=adjacency, edges=edges)


def _bfs(adjacency, sources) -> tuple[list[int], list[int]]:
    """Breadth-first visit order from ``sources`` and each vertex's hop distance
    to the nearest source (-1 when unreached).  Neighbors are visited in
    adjacency order, so the order is deterministic."""
    dist = [-1] * len(adjacency)
    for s in sources:
        dist[s] = 0
    order = list(sources)
    for v in order:  # the list grows while it is read: a FIFO queue
        dv = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = dv
                order.append(w)
    return order, dist


def all_pairs_distances(graph: Graph) -> Metric:
    """Exact integer shortest-path distances: the rows of :meth:`Graph.distances_from`."""
    rows = [graph.distances_from(s) for s in range(graph.n)]
    return Metric(dist=_frozen_array(np.stack(rows)))


def bipartite_decompose(graph: Graph) -> BipartiteStructure:
    """2-coloring by BFS depth parity from vertex 0, so vertex 0 lies on side 0.

    The graph is bipartite iff no edge joins two vertices of equal parity.
    """
    side = tuple(d & 1 for d in _bfs(graph.adjacency, [0])[1])
    if any(side[a] == side[b] for a, b in graph.edges):
        return BipartiteStructure(is_bipartite=False, side=None)
    return BipartiteStructure(is_bipartite=True, side=side)


def spanning_tree(graph: Graph) -> SpanningTree:
    """Canonical BFS spanning tree rooted at vertex 0.

    Each vertex hangs from its earliest-visited neighbor one level up: the
    parent a FIFO queue visiting neighbors in ascending order assigns.
    Leaves are the tree-degree-1 vertices and ``r`` is the graph-metric
    distance to the nearest leaf.
    """
    n = graph.n
    if n == 1:
        return SpanningTree(tree_edges=(), leaves=(0,), r=(0,))
    order, depth = _bfs(graph.adjacency, [0])
    visited = {v: i for i, v in enumerate(order)}
    tree_edges = []
    tree_deg = [0] * n
    for w in order[1:]:
        up = [x for x in graph.adjacency[w] if depth[x] == depth[w] - 1]
        v = min(up, key=visited.__getitem__)
        tree_edges.append((v, w) if v < w else (w, v))
        tree_deg[v] += 1
        tree_deg[w] += 1
    leaves = tuple(v for v in range(n) if tree_deg[v] == 1)
    r = _bfs(graph.adjacency, leaves)[1]
    return SpanningTree(tree_edges=tuple(sorted(tree_edges)), leaves=leaves, r=tuple(r))


def integer_lipschitz_functions(graph: Graph) -> np.ndarray:
    """All integer vertex functions with ell[0] = 0 and edge steps <= 1.

    These are the corners of the Kantorovich-Rubinstein dual polytope (its
    constraint matrix is a graph incidence matrix, hence totally unimodular),
    so the Wasserstein distance of a zero-sum xi is the largest ``ell . xi``
    over the rows.  At most 3^(n-1) rows: exponential in n.

    Vertices are placed in BFS order, so each new one has an earlier neighbor:
    every row is extended by that neighbor's value -1, 0 and +1, and the
    extensions within 1 of every earlier neighbor are kept.  Rows come out in
    lexicographic order of their values along the BFS order.
    """
    order, _ = _bfs(graph.adjacency, [0])
    placed = [False] * graph.n
    placed[0] = True
    rows = np.zeros((1, graph.n))
    for v in order[1:]:
        earlier = [w for w in graph.adjacency[v] if placed[w]]
        rows = np.repeat(rows, 3, axis=0)
        rows[:, v] = rows[:, earlier[0]] + np.tile([-1.0, 0.0, 1.0], len(rows) // 3)
        rows = rows[(np.abs(rows[:, earlier] - rows[:, [v]]) <= 1.0).all(axis=1)]
        placed[v] = True
    return _frozen_array(rows)


def r_monotone_ordering(tree: SpanningTree) -> ROrdering:
    """Vertices sorted by rank ``r``, ties broken by ascending index."""
    order = sorted(range(len(tree.r)), key=lambda v: (tree.r[v], v))
    return ROrdering(order=tuple(order))


def check_enumeration_limit(n_max: int) -> None:
    """Raise :class:`LimitExceededError` unless 1 <= n_max <= ENUMERATION_MAX_VERTICES."""
    if not (1 <= n_max <= ENUMERATION_MAX_VERTICES):
        raise LimitExceededError(
            f"enumeration supports 1..{ENUMERATION_MAX_VERTICES} vertices, got {n_max}"
        )


def enumerate_connected_graphs(n_max: int) -> Iterator[Graph]:
    """Yield every labeled connected simple graph with 1..n_max vertices.

    Enumeration is over all edge subsets per vertex count, filtered for
    connectivity, so each labeled graph appears exactly once.  Bounded to
    n_max <= 6 (26704 graphs at n = 6).
    """
    check_enumeration_limit(n_max)
    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        m = len(pairs)
        for mask in range(1 << m):
            if mask.bit_count() < n - 1:
                continue
            neighbors: list[list[int]] = [[] for _ in range(n)]
            edges = []
            for idx in range(m):
                if mask >> idx & 1:
                    a, b = pairs[idx]
                    neighbors[a].append(b)
                    neighbors[b].append(a)
                    edges.append(pairs[idx])
            adjacency = tuple(tuple(ns) for ns in neighbors)
            if len(_bfs(adjacency, [0])[0]) == n:
                yield Graph(n=n, adjacency=adjacency, edges=tuple(edges))


# -- text format ---------------------------------------------------------------
#
# First line: "n m".  Then m lines "i j" with 0 <= i < j < n.  Blank lines and
# lines starting with '#' are ignored.

def parse_graph_text(text: str) -> Graph:
    """Parse the documented graph text format into a validated Graph."""
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"edge line must be 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {line!r}") from exc
        if not (0 <= i < j < n):
            raise GraphFormatError(
                f"edge ({i}, {j}) must satisfy 0 <= i < j < n = {n}"
            )
        edges.append((i, j))
    return build_graph(edges, n)


def load_graph_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def graph_to_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{a} {b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"


# -- common families (test and CLI convenience) ---------------------------------

def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def cycle_graph(n: int) -> Graph:
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def complete_graph(n: int) -> Graph:
    return build_graph(list(combinations(range(n), 2)), n)


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph; vertices 0..a-1 on one side, a..a+b-1 on the other."""
    return build_graph([(i, a + j) for i in range(a) for j in range(b)], a + b)
