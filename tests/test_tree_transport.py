"""Settling algorithm: validity, linearity, inequalities, cost conclusions."""

import numpy as np
import pytest

from walkdist import (
    NoLaterNeighborError,
    ROrdering,
    all_pairs_distances,
    bipartite_decompose,
    check_inequalities,
    cost_of_plan,
    enumerate_connected_graphs,
    epsilon_bound,
    half_l1,
    path_graph,
    r_monotone_ordering,
    run_tree_transport,
    signed_distribution,
    spanning_tree,
    trace_to_jsonable,
    wasserstein,
    zero_distribution,
)


def _setup(g):
    return r_monotone_ordering(spanning_tree(g))


def _side_signed(g):
    """deg(w)/|E| signed by side: the distribution the sign-persistence bound covers."""
    bip = bipartite_decompose(g)
    vals = np.array(
        [
            (1.0 if bip.side[w] == 0 else -1.0) * g.degree(w) / g.edge_count
            for w in range(g.n)
        ]
    )
    return signed_distribution(vals)


# -- running the algorithm -------------------------------------------------------

def test_zero_input_gives_zero_trace(c4):
    order = _setup(c4)
    tr = run_tree_transport(c4, order, zero_distribution(4))
    assert all(np.allclose(s, 0.0) for s in tr.states)
    assert tr.plan.moves == ()
    assert tr.total_moved == 0.0


def test_p2_single_move(p2):
    order = _setup(p2)
    tr = run_tree_transport(p2, order, signed_distribution([1.0, -1.0]))
    assert tr.moves == (((0, 1, 1.0),),)
    assert tr.plan.moves == ((0, 1, 1.0),)
    assert cost_of_plan(tr.plan, all_pairs_distances(p2)) == pytest.approx(1.0)


def test_c4_trace_frozen_states(c4):
    # hand-simulated run for xi = (1/2, -1/2, 1/2, -1/2) with ordering (2, 3, 0, 1)
    order = _setup(c4)
    assert order.order == (2, 3, 0, 1)
    tr = run_tree_transport(c4, order, signed_distribution([0.5, -0.5, 0.5, -0.5]))
    expected_states = [
        [0.5, -0.5, 0.5, -0.5],
        [0.5, -0.25, 0.0, -0.25],
        [0.25, -0.25, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
    for got, want in zip(tr.states, expected_states):
        assert np.allclose(got, want, atol=1e-15)
    assert tr.moves == (
        ((2, 1, 0.25), (2, 3, 0.25)),
        ((0, 3, 0.25),),
        ((0, 1, 0.25),),
    )
    # the side-pattern bound: every later vertex keeps magnitude >= 1/|E|
    bound = 1.0 / c4.edge_count
    for i in range(c4.n - 1):
        for p in range(i, c4.n):
            assert abs(tr.states[i][order.order[p]]) >= bound - 1e-12


def test_validity_exhaustive_random():
    rng = np.random.default_rng(2)
    for g in enumerate_connected_graphs(5):
        if g.n == 1:
            continue
        order = _setup(g)
        for _ in range(3):
            v = rng.normal(size=g.n)
            v -= v.mean()
            xi = signed_distribution(v)
            tr = run_tree_transport(g, order, xi)
            assert np.abs(tr.states[-1]).max() <= 1e-9
            pos = np.maximum(v, 0)
            neg = np.maximum(-v, 0)
            assert np.abs(tr.plan.row_marginals(g.n) - pos).max() <= 1e-9
            assert np.abs(tr.plan.column_marginals(g.n) - neg).max() <= 1e-9


def test_linearity_exhaustive():
    rng = np.random.default_rng(4)
    for g in enumerate_connected_graphs(5):
        if g.n == 1:
            continue
        order = _setup(g)
        a = rng.normal(size=g.n)
        a -= a.mean()
        b = rng.normal(size=g.n)
        b -= b.mean()
        tr_a = run_tree_transport(g, order, signed_distribution(a))
        tr_b = run_tree_transport(g, order, signed_distribution(b))
        tr_ab = run_tree_transport(g, order, signed_distribution(a + b))
        for i in range(g.n):
            assert np.abs(tr_ab.states[i] - (tr_a.states[i] + tr_b.states[i])).max() <= 1e-9


def test_states_zero_prefix(c6):
    rng = np.random.default_rng(9)
    order = _setup(c6)
    v = rng.normal(size=6)
    v -= v.mean()
    tr = run_tree_transport(c6, order, signed_distribution(v))
    for i in range(6):
        for p in range(i):
            assert tr.states[i][order.order[p]] == 0.0


def test_no_later_neighbor():
    # handcrafted ordering on P3 strands mass at an endpoint
    g = path_graph(3)
    order = ROrdering(order=(1, 0, 2))
    with pytest.raises(NoLaterNeighborError) as exc:
        run_tree_transport(g, order, signed_distribution([1.0, 0.0, -1.0]))
    assert exc.value.step == 2
    assert exc.value.vertex == 0


# -- inequalities -------------------------------------------------------------------

def test_inequalities_hold_on_side_pattern(c4):
    order = _setup(c4)
    xi = _side_signed(c4)
    tr = run_tree_transport(c4, order, xi)
    assert check_inequalities(c4, order, xi, tr).holds


def test_adjacent_same_sign_violates_i2(p4):
    order = _setup(p4)
    xi = signed_distribution([0.5, 0.5, -0.5, -0.5])
    tr = run_tree_transport(p4, order, xi)
    rep = check_inequalities(p4, order, xi, tr)
    assert not rep.holds
    if rep.first_violation.inequality == "I2":
        assert rep.first_violation.vertices in {(0, 1), (2, 3)}


def test_zero_distribution_violates_i1(c4):
    order = _setup(c4)
    xi = zero_distribution(4)
    tr = run_tree_transport(c4, order, xi)
    rep = check_inequalities(c4, order, xi, tr)
    assert not rep.holds
    assert rep.first_violation.inequality == "I1"


def test_sign_pattern_bound_bipartite():
    # |A_i(xi)(w_j)| >= 1/|E| for the degree-by-side distribution
    for g in enumerate_connected_graphs(5):
        if g.n == 1 or not bipartite_decompose(g).is_bipartite:
            continue
        order = _setup(g)
        xi = _side_signed(g)
        tr = run_tree_transport(g, order, xi)
        bound = 1.0 / g.edge_count
        bip = bipartite_decompose(g)
        for i in range(g.n - 1):
            for p in range(i, g.n):
                w = order.order[p]
                value = tr.states[i][w]
                assert abs(value) >= bound - 1e-12
                expected_sign = 1.0 if bip.side[w] == 0 else -1.0
                assert np.sign(value) == expected_sign


def test_stability_radius():
    # perturbations within the radius keep the inequalities satisfied
    rng = np.random.default_rng(8)
    for g in enumerate_connected_graphs(5):
        if g.n < 2 or not bipartite_decompose(g).is_bipartite:
            continue
        order = _setup(g)
        base = _side_signed(g).values
        eps = epsilon_bound(g)
        for _ in range(4):
            delta = rng.normal(size=g.n)
            delta -= delta.mean()
            scale = np.abs(delta).max()
            if scale > 0:
                delta *= 0.9 * eps / scale
            xi = signed_distribution(base + delta)
            tr = run_tree_transport(g, order, xi)
            assert check_inequalities(g, order, xi, tr).holds


def test_cost_equals_half_l1_when_inequalities_hold():
    rng = np.random.default_rng(6)
    checked_positive = 0
    for g in enumerate_connected_graphs(5):
        if g.n < 2:
            continue
        metric = all_pairs_distances(g)
        order = _setup(g)
        candidates = []
        if bipartite_decompose(g).is_bipartite:
            candidates.append(_side_signed(g).values)
        for _ in range(3):
            v = rng.normal(size=g.n)
            v -= v.mean()
            candidates.append(v)
        for v in candidates:
            xi = signed_distribution(v)
            tr = run_tree_transport(g, order, xi)
            if check_inequalities(g, order, xi, tr).holds:
                checked_positive += 1
                target = half_l1(xi)
                assert cost_of_plan(tr.plan, metric) == pytest.approx(target, abs=1e-9)
                assert wasserstein(xi, g).value == pytest.approx(target, abs=1e-9)
    assert checked_positive > 50  # the bipartite side patterns alone guarantee plenty


# -- scalars and serialization ----------------------------------------------------------

def test_half_l1_examples(c4):
    assert half_l1(signed_distribution([1.0, -1.0])) == pytest.approx(1.0)
    assert half_l1(_side_signed(c4)) == pytest.approx(1.0)
    assert half_l1(zero_distribution(3)) == 0.0


def test_epsilon_examples(p2, c4, k13):
    assert epsilon_bound(p2) == pytest.approx(0.5)
    assert epsilon_bound(c4) == pytest.approx(1 / 16)
    assert epsilon_bound(k13) == pytest.approx(1 / 12)


def test_trace_jsonable(c4):
    order = _setup(c4)
    xi = _side_signed(c4)
    tr = run_tree_transport(c4, order, xi)
    payload = trace_to_jsonable(tr)
    assert len(payload["states"]) == 4
    assert payload["total_moved"] == pytest.approx(tr.total_moved)
    assert all(len(move) == 3 for step in payload["moves"] for move in step)
