"""Graph construction, metric, bipartite structure, trees, enumeration."""

from itertools import combinations, product

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, shortest_path

from walkdist import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyVertexSetError,
    GraphFormatError,
    InvalidVertexError,
    LimitExceededError,
    SelfLoopError,
    all_pairs_distances,
    bipartite_decompose,
    build_graph,
    cycle_graph,
    enumerate_connected_graphs,
    graph_to_text,
    parse_graph_text,
    path_graph,
    r_monotone_ordering,
    spanning_tree,
    star_graph,
)


# -- build_graph ---------------------------------------------------------------

def test_build_p2():
    g = build_graph([(0, 1)], 2)
    assert g.edges == ((0, 1),)
    assert g.adjacency == ((1,), (0,))


def test_build_p3():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_build_normalizes_orientation():
    g = build_graph([(1, 0), (2, 1)], 3)
    assert g.edges == ((0, 1), (1, 2))


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 1), (1, 2), (0, 0)], 3)


def test_build_rejects_duplicate():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (1, 0)], 2)


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        build_graph([(0, 1), (2, 3)], 4)


def test_build_rejects_empty():
    with pytest.raises(EmptyVertexSetError):
        build_graph([], 0)


def test_build_rejects_out_of_range():
    with pytest.raises(InvalidVertexError):
        build_graph([(0, 5)], 3)


# -- metric ----------------------------------------------------------------------

def test_distances_examples(p3, c4, k3):
    assert all_pairs_distances(p3).d(0, 2) == 2
    assert all_pairs_distances(c4).d(0, 2) == 2
    dk = all_pairs_distances(k3).dist
    assert all(dk[i, j] == 1 for i in range(3) for j in range(3) if i != j)


def test_metric_axioms_exhaustive():
    # identity, symmetry, triangle inequality, and edge <=> distance 1
    for g in enumerate_connected_graphs(6):
        d = all_pairs_distances(g).dist
        assert (np.diag(d) == 0).all()
        assert (d == d.T).all()
        assert (d[:, :, None] + d[None, :, :] >= d[:, None, :]).all()
        edge_set = set(g.edges)
        ones = {(i, j) for i in range(g.n) for j in range(i + 1, g.n) if d[i, j] == 1}
        assert ones == edge_set


def test_distance_rows_match_metric_exhaustive():
    for g in enumerate_connected_graphs(5):
        for v in range(g.n):
            row = g.distances_from(v)
            assert row is g.distances_from(v)
            assert row.dtype == np.int64 and not row.flags.writeable
            assert np.array_equal(row, g.metric.dist[v])
    with pytest.raises(InvalidVertexError):
        path_graph(3).distances_from(3)


def test_graph_context_is_computed_once(c4):
    assert c4.metric is c4.metric
    assert np.array_equal(c4.metric.dist, all_pairs_distances(c4).dist)
    assert c4.bipartite is c4.bipartite
    assert c4.bipartite == bipartite_decompose(c4)
    assert c4.corners is c4.corners
    assert c4 == cycle_graph(4) and hash(c4) == hash(cycle_graph(4))


def test_corners_are_the_integer_lipschitz_functions(p3, c4):
    # a tree has 3^(n-1) of them; every row is 0 at vertex 0 and 1-Lipschitz
    assert p3.corners.shape == (9, 3)
    for g in (p3, c4):
        rows = {tuple(r) for r in g.corners}
        assert len(rows) == len(g.corners)
        for r in g.corners:
            assert r[0] == 0
            assert all(abs(r[a] - r[b]) <= 1 for a, b in g.edges)
    assert not c4.corners.flags.writeable


# -- bipartite --------------------------------------------------------------------

def test_bipartite_examples(c4, k3, p3):
    b = bipartite_decompose(c4)
    assert b.is_bipartite and b.vertices_on_side(0) == (0, 2)
    assert not bipartite_decompose(k3).is_bipartite
    b3 = bipartite_decompose(p3)
    assert b3.is_bipartite and b3.vertices_on_side(1) == (1,)


def _has_odd_closed_walk(g, max_len):
    # independent oracle: trace of adjacency powers
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1
    power = np.eye(g.n, dtype=np.int64)
    for length in range(1, max_len + 1):
        power = power @ a
        if length % 2 == 1 and np.trace(power) > 0:
            return True
    return False


def test_bipartite_iff_no_odd_closed_walk():
    for g in enumerate_connected_graphs(5):
        expected = not _has_odd_closed_walk(g, 2 * g.n + 1)
        assert bipartite_decompose(g).is_bipartite == expected


def test_side_zero_normalized():
    for g in enumerate_connected_graphs(4):
        b = bipartite_decompose(g)
        if b.is_bipartite:
            assert b.side[0] == 0
            for i, j in g.edges:
                assert b.side[i] != b.side[j]


# -- spanning trees -----------------------------------------------------------------

def _is_spanning_acyclic(g, edges):
    # union-find oracle
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len({find(v) for v in range(g.n)}) == 1


def test_tree_of_a_tree_is_itself(p4, k13):
    for g in (p4, k13):
        t = spanning_tree(g)
        assert set(t.tree_edges) == set(g.edges)
        assert set(t.leaves) == {v for v in range(g.n) if g.degree(v) == 1}


def test_c4_tree_is_path(c4):
    t = spanning_tree(c4)
    assert _is_spanning_acyclic(c4, t.tree_edges)
    assert len(t.tree_edges) == 3
    assert set(t.leaves) == {2, 3}


def test_p3_rank(p3):
    assert spanning_tree(p3).r == (0, 1, 0)


def test_trees_exhaustive():
    for g in enumerate_connected_graphs(5):
        t = spanning_tree(g)
        assert len(t.tree_edges) == g.n - 1
        assert _is_spanning_acyclic(g, t.tree_edges) or g.n == 1


# -- ordering ------------------------------------------------------------------------

def test_ordering_examples(p3, p2, k13):
    assert r_monotone_ordering(spanning_tree(p3)).order == (0, 2, 1)
    assert r_monotone_ordering(spanning_tree(p2)).order == (0, 1)
    assert r_monotone_ordering(spanning_tree(k13)).order == (1, 2, 3, 0)


def test_ordering_nondecreasing_exhaustive():
    for g in enumerate_connected_graphs(6):
        t = spanning_tree(g)
        order = r_monotone_ordering(t).order
        ranks = [t.r[v] for v in order]
        assert all(ranks[i] <= ranks[i + 1] for i in range(len(ranks) - 1))


def test_positions_inverse(c4):
    o = r_monotone_ordering(spanning_tree(c4))
    pos = o.positions()
    assert all(o.order[pos[v]] == v for v in range(4))


# -- enumeration ----------------------------------------------------------------------

def _count_connected_brute(n):
    # independent oracle: all edge subsets, reachability by set expansion
    pairs = list(combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        adj = {v: set() for v in range(n)}
        for idx, (a, b) in enumerate(pairs):
            if mask >> idx & 1:
                adj[a].add(b)
                adj[b].add(a)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) == n:
            count += 1
    return count


def test_enumeration_counts():
    got = {}
    for g in enumerate_connected_graphs(4):
        got[g.n] = got.get(g.n, 0) + 1
    assert got[2] == 1
    assert got[3] == _count_connected_brute(3) == 4
    assert got[4] == _count_connected_brute(4) == 38


def test_enumeration_unique_and_valid():
    seen = set()
    for g in enumerate_connected_graphs(4):
        key = (g.n, g.edges)
        assert key not in seen
        seen.add(key)
        assert _is_spanning_acyclic(g, spanning_tree(g).tree_edges) or g.n == 1


def test_enumeration_limit():
    with pytest.raises(LimitExceededError):
        list(enumerate_connected_graphs(7))


def test_structure_matches_independent_oracles_exhaustive():
    # every connected labeled graph with n <= 5: scipy's unweighted shortest
    # paths, scipy's BFS tree (first discoverer as parent, neighbors ascending),
    # and the corners as the brute-force integer functions with ell[0] = 0,
    # entries in [-(n-1), n-1] and steps <= 1 across every edge, in
    # lexicographic order of their values along the BFS order
    functions = {}  # n -> every integer function with ell[0] = 0 in range
    for g in enumerate_connected_graphs(5):
        n = g.n
        rows, cols = zip(*g.edges) if g.edges else ((), ())
        adj = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        adj.sort_indices()
        assert np.array_equal(g.metric.dist, shortest_path(adj, unweighted=True))
        order, pred = breadth_first_order(adj, 0, directed=False, return_predecessors=True)
        tree = tuple(sorted((min(w, p), max(w, p)) for w, p in enumerate(pred) if p >= 0))
        assert spanning_tree(g).tree_edges == tree
        if n not in functions:
            values = np.array(list(product(range(-(n - 1), n), repeat=n - 1)), dtype=int)
            functions[n] = np.hstack([np.zeros((len(values), 1), dtype=int), values])
        brute = functions[n]
        if g.edges:
            a, b = np.array(g.edges).T
            brute = brute[(np.abs(brute[:, a] - brute[:, b]) <= 1).all(axis=1)]
        assert {tuple(r) for r in g.corners} == {tuple(r) for r in brute}
        assert len(g.corners) == len(brute)
        keys = [tuple(r) for r in g.corners[:, order]]
        assert keys == sorted(keys)


# -- text format ----------------------------------------------------------------------

def test_text_round_trip(c4):
    assert parse_graph_text(graph_to_text(c4)).edges == c4.edges


def test_text_comments_and_blanks():
    text = "# a square\n4 4\n\n0 1\n1 2\n2 3\n# last\n0 3\n"
    assert parse_graph_text(text).edges == cycle_graph(4).edges


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n1 2\n",
        "3 2\n0 1\n",
        "3 2\n0 1\n2 1\n",  # needs i < j
        "3 2\n0 1\n1 5\n",
        "3 2\n0 1\nx y\n",
    ],
)
def test_text_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph_text(text)


def test_family_helpers():
    assert star_graph(3).degrees == (3, 1, 1, 1)
    assert path_graph(5).edge_count == 4
    assert cycle_graph(5).degrees == (2,) * 5
