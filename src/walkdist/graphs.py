"""Finite connected simple graphs and their structural data.

Vertices are dense integer indices ``0..n-1``.  Everything here is immutable
after construction: graphs are hashable value objects, matrices are returned
as read-only numpy arrays, and all operations are pure functions.

Beyond validation this module provides the shortest-path metric, the
bipartite 2-coloring, a canonical BFS spanning tree with its leaf-distance
rank ``r``, the r-monotone vertex ordering used by the tree-based transport
algorithm, the integer 1-Lipschitz vertex functions (the corners of the
transport dual), and exhaustive enumeration of small labeled connected graphs.
"""

from __future__ import annotations

from collections import deque
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
    structure (``metric``, ``bipartite``, ``corners``) is computed on first
    use and kept on the instance, so it lives exactly as long as the graph.
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
    graph = Graph(n=n, adjacency=adjacency, edges=edges)
    if _bfs_reach_count(adjacency, n) != n:
        raise DisconnectedError("graph is not connected")
    return graph


def _bfs_reach_count(adjacency, n: int) -> int:
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count


def all_pairs_distances(graph: Graph) -> Metric:
    """Exact integer shortest-path distances via BFS from every vertex."""
    n = graph.n
    rows = []
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        order = [s]
        for v in order:  # the list grows while it is read: a BFS queue
            dv = row[v] + 1
            for w in graph.adjacency[v]:
                if row[w] < 0:
                    row[w] = dv
                    order.append(w)
        rows.append(row)
    return Metric(dist=_frozen_array(np.array(rows, dtype=np.int64)))


def bipartite_decompose(graph: Graph) -> BipartiteStructure:
    """BFS 2-coloring; detects an odd cycle when none exists.

    Side labels are normalized so vertex 0 lies on side 0.
    """
    side = [-1] * graph.n
    side[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if side[w] < 0:
                side[w] = 1 - side[v]
                queue.append(w)
            elif side[w] == side[v]:
                return BipartiteStructure(is_bipartite=False, side=None)
    return BipartiteStructure(is_bipartite=True, side=tuple(side))


def spanning_tree(graph: Graph) -> SpanningTree:
    """Canonical BFS spanning tree rooted at vertex 0.

    The queue visits neighbors in ascending index order, so the tree is
    deterministic.  Leaves are the tree-degree-1 vertices and ``r`` is the
    graph-metric distance to the nearest leaf.
    """
    n = graph.n
    if n == 1:
        return SpanningTree(tree_edges=(), leaves=(0,), r=(0,))
    parent = [-1] * n
    visited = [False] * n
    visited[0] = True
    queue = deque([0])
    tree_edges = []
    tree_deg = [0] * n
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                tree_edges.append((v, w) if v < w else (w, v))
                tree_deg[v] += 1
                tree_deg[w] += 1
                queue.append(w)
    leaves = tuple(v for v in range(n) if tree_deg[v] == 1)
    # multi-source BFS in the full graph from the leaf set
    r = [-1] * n
    queue = deque()
    for leaf in leaves:
        r[leaf] = 0
        queue.append(leaf)
    while queue:
        v = queue.popleft()
        for w in graph.adjacency[v]:
            if r[w] < 0:
                r[w] = r[v] + 1
                queue.append(w)
    return SpanningTree(tree_edges=tuple(sorted(tree_edges)), leaves=leaves, r=tuple(r))


def integer_lipschitz_functions(graph: Graph) -> np.ndarray:
    """All integer vertex functions with ell[0] = 0 and edge steps <= 1.

    These are the corners of the Kantorovich-Rubinstein dual polytope (its
    constraint matrix is a graph incidence matrix, hence totally unimodular),
    so the Wasserstein distance of a zero-sum xi is the largest ``ell . xi``
    over the rows.  At most 3^(n-1) rows: exponential in n.
    """
    n = graph.n
    bound = n - 1
    # assign vertices in BFS order so each new vertex sees an assigned neighbor
    order: list[int] = [0]
    seen = {0}
    for v in order:
        for w in graph.adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    assigned_before: list[frozenset[int]] = []
    placed: set[int] = set()
    for v in order:
        assigned_before.append(frozenset(placed))
        placed.add(v)

    rows: list[tuple[int, ...]] = []
    assignment = [0] * n

    def assign(idx: int) -> None:
        if idx == n:
            rows.append(tuple(assignment))
            return
        v = order[idx]
        lo, hi = -bound, bound
        for w in graph.adjacency[v]:
            if w in assigned_before[idx]:
                lo = max(lo, assignment[w] - 1)
                hi = min(hi, assignment[w] + 1)
        for val in range(lo, hi + 1):
            assignment[v] = val
            assign(idx + 1)

    if n == 1:
        rows.append((0,))
    else:
        assign(1)
    return _frozen_array(np.array(rows, dtype=float))


def r_monotone_ordering(tree: SpanningTree) -> ROrdering:
    """Vertices sorted by rank ``r``, ties broken by ascending index."""
    order = sorted(range(len(tree.r)), key=lambda v: (tree.r[v], v))
    return ROrdering(order=tuple(order))


def enumerate_connected_graphs(n_max: int) -> Iterator[Graph]:
    """Yield every labeled connected simple graph with 1..n_max vertices.

    Enumeration is over all edge subsets per vertex count, filtered for
    connectivity, so each labeled graph appears exactly once.  Bounded to
    n_max <= 6 (26704 graphs at n = 6).
    """
    if not (1 <= n_max <= ENUMERATION_MAX_VERTICES):
        raise LimitExceededError(
            f"enumeration supports 1..{ENUMERATION_MAX_VERTICES} vertices, got {n_max}"
        )
    for n in range(1, n_max + 1):
        if n == 1:
            yield Graph(n=1, adjacency=((),), edges=())
            continue
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
            if _bfs_reach_count(adjacency, n) == n:
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
