"""Wasserstein solver, duality certificates, oracle agreement, serialization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from walkdist.tolerances import DUST
from walkdist.transport import _decompose_flows, _min_cost_flow, _point_sided
from walkdist import (
    Distribution,
    DualPotential,
    NotLipschitzError,
    TooLargeError,
    TransportPlan,
    UnbalancedMassError,
    all_pairs_distances,
    build_graph,
    cost_of_plan,
    cycle_graph,
    distribution_from_csv,
    dual_value,
    enumerate_connected_graphs,
    path_graph,
    plan_to_csv,
    point_mass,
    potential_to_csv,
    signed_distribution,
    stationary_pi,
    tau_distributions,
    wasserstein,
    wasserstein_between,
    wasserstein_oracle,
    zero_distribution,
)


def _random_signed(rng, n):
    v = rng.normal(size=n)
    v -= v.mean()
    return signed_distribution(v)


# -- wasserstein ------------------------------------------------------------------

def test_zero_distribution_shortcut(c4):
    res = wasserstein(zero_distribution(4), c4)
    assert res.value == 0.0
    assert res.plan.moves == ()


def test_p3_endpoints(p3):
    res = wasserstein(signed_distribution([1, 0, -1]), p3)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_c4_side_limits_distance_one(c4):
    # moving the side-0 limit to the side-1 limit costs exactly 1
    t0, t1 = tau_distributions(c4)
    res = wasserstein_between(t0, t1, c4)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_c4_pi_to_side_limit_half(c4):
    t0, _ = tau_distributions(c4)
    res = wasserstein_between(stationary_pi(c4), t0, c4)
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_unbalanced_rejected(c4):
    with pytest.raises(UnbalancedMassError):
        wasserstein(Distribution(values=np.array([1.0, 0, 0, 0])), c4)
    with pytest.raises(UnbalancedMassError):
        wasserstein_between(
            point_mass(4, 0),
            Distribution(values=np.array([0.5, 0, 0, 0])),
            c4,
        )


def test_point_masses_give_distance(c5):
    metric = all_pairs_distances(c5)
    for u in range(5):
        for v in range(5):
            res = wasserstein_between(point_mass(5, u), point_mass(5, v), c5)
            assert res.value == pytest.approx(metric.d(u, v), abs=1e-12)


def test_dust_sized_demand_is_decomposed():
    # vertex 1 absorbs 5e-13: routed by the solver (above its dust level),
    # so the decomposition must treat it as a sink too
    g = build_graph([(0, 1), (0, 2)], 3)
    xi = signed_distribution([1.0, -5e-13, -(1.0 - 5e-13)])
    res = wasserstein(xi, g)
    assert res.value == pytest.approx(1.0, abs=1e-15)
    assert cost_of_plan(res.plan, all_pairs_distances(g)) == pytest.approx(1.0, abs=1e-15)
    assert np.abs(res.plan.row_marginals(3) - np.maximum(xi.values, 0)).max() <= 1e-15
    assert np.abs(res.plan.column_marginals(3) - np.maximum(-xi.values, 0)).max() <= 1e-15
    assert abs(res.value - dual_value(res.potential, xi, g)) <= 1e-15


def test_decomposition_reads_supplies_from_the_flow():
    # the plan follows the arc flows' divergence, whatever vector it came from
    plan = _decompose_flows(3, {(0, 1): 0.5, (1, 2): 0.25})
    assert plan.as_dict() == {(0, 1): 0.25, (0, 2): 0.25}


def test_decomposition_drops_dust_split_supply():
    # 1.2e-13 leaves vertex 0 over two arcs of 6e-14, each below the dust level
    assert _decompose_flows(3, {(0, 1): 6e-14, (0, 2): 6e-14}).moves == ()


def test_decomposition_drops_dust_residue_at_dead_end():
    # 2.5e-13 - 1.5e-13 rounds above the dust level, so vertex 2 is a source
    # whose only arc is already used up; the residue is dropped, not routed
    flows = {(0, 1): 1.5e-13, (0, 2): 2.5e-13, (1, 5): 0.3, (2, 3): 1.5e-13,
             (3, 5): 3e-13, (4, 5): 1.5e-13}
    plan = _decompose_flows(6, flows)
    divergence = np.zeros(6)
    for (a, b), f in flows.items():
        divergence[a] += f
        divergence[b] -= f
    marginals = plan.row_marginals(6) - plan.column_marginals(6)
    assert np.abs(marginals - divergence).max() <= 2e-13


def _assert_warm_start_agrees(g, xi, start, tol=1e-12):
    """A solve started from the potential start is certified by its plan and
    dual (edge steps checked by dual_value) and equals the cold solve."""
    flows, pot = _min_cost_flow(g, xi.values, start)
    value = float(sum(map(abs, flows)))
    plan = _decompose_flows(g.n, dict(zip(g.edges, flows)))
    assert np.abs(plan.row_marginals(g.n) - np.maximum(xi.values, 0)).max() <= 1e-9
    assert np.abs(plan.column_marginals(g.n) - np.maximum(-xi.values, 0)).max() <= 1e-9
    assert abs(cost_of_plan(plan, g.metric) - value) <= 1e-9
    ell = -np.array(pot, dtype=float)
    assert abs(dual_value(DualPotential(ell=ell), xi, g) - value) <= 1e-9
    assert abs(value - wasserstein(xi, g).value) <= tol


def test_any_lipschitz_start_gives_the_cold_value():
    rng = np.random.default_rng(13)
    for g in enumerate_connected_graphs(4):
        for _ in range(3):
            xi = _random_signed(rng, g.n)
            for corner in g.corners:
                _assert_warm_start_agrees(g, xi, -corner)


def test_point_sided_closed_form_is_certified():
    # one source or one sink: the exact value, and a potential that is a
    # zero-gap 1-Lipschitz dual and a valid warm start
    rng = np.random.default_rng(17)
    for g in enumerate_connected_graphs(5):
        point = int(rng.integers(g.n))
        mass = rng.uniform(0.05, 1.0, size=g.n) * (rng.random(g.n) < 0.7)
        mass[point] = 0.0
        if not mass.any():
            continue
        for sign in (1.0, -1.0):
            values = sign * mass
            values[point] = -sign * mass.sum()
            xi = signed_distribution(values)
            value, pot = _point_sided(g, xi.values)
            assert abs(value - wasserstein_oracle(xi, g)) <= 1e-12
            ell = -np.array(pot, dtype=float)
            assert abs(dual_value(DualPotential(ell=ell), xi, g) - value) <= 1e-12
            _assert_warm_start_agrees(g, xi, pot)


def test_point_pair_potential_is_the_cold_solve_potential():
    for g in enumerate_connected_graphs(5):
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    supply = np.eye(g.n)[u] - np.eye(g.n)[v]
                    assert _point_sided(g, supply)[1].tolist() == _min_cost_flow(g, supply)[1]


def test_point_sided_needs_one_source_or_sink(c4):
    assert _point_sided(c4, np.array([0.5, -0.5, 0.5, -0.5])) is None
    value, pot = _point_sided(c4, np.zeros(4))
    assert value == 0.0 and not pot.any()
    assert _point_sided(c4, np.array([0.25, -1.0, 0.5, 0.25]))[0] == 1.25


@pytest.mark.parametrize(
    "values", [[0.5 + 5e-10, 0, 0, 0, 0, -0.5], [0.5, 0, 0, 0, 0, -0.5 - 5e-10]]
)
def test_imbalance_within_mass_tol_is_left_unrouted(values):
    res = wasserstein(signed_distribution(values), path_graph(6))
    assert res.value == 2.5
    assert res.plan.moves == ((0, 5, 0.5),)


# -- plan and dual -----------------------------------------------------------------

def test_cost_of_plan_examples(c4):
    metric = all_pairs_distances(c4)
    assert cost_of_plan(TransportPlan(moves=()), metric) == 0.0
    assert cost_of_plan(TransportPlan(moves=((0, 2, 0.5),)), metric) == pytest.approx(1.0)
    two = TransportPlan(moves=((0, 1, 0.5), (2, 3, 0.5)))
    assert cost_of_plan(two, metric) == pytest.approx(1.0)


def test_dual_value_examples(p3):
    xi = signed_distribution([1, 0, -1])
    const = DualPotential(ell=np.array([2.0, 2.0, 2.0]))
    assert dual_value(const, xi, p3) == pytest.approx(0.0, abs=1e-15)
    best = DualPotential(ell=np.array([2.0, 1.0, 0.0]))
    assert dual_value(best, xi, p3) == pytest.approx(2.0)


def test_dual_value_rejects_steep(p3):
    with pytest.raises(NotLipschitzError):
        dual_value(DualPotential(ell=np.array([0.0, 2.0, 0.0])), signed_distribution([1, 0, -1]), p3)


def test_certificates_on_random_instances():
    rng = np.random.default_rng(7)
    for g in enumerate_connected_graphs(4):
        metric = all_pairs_distances(g)
        for _ in range(10):
            xi = _random_signed(rng, g.n)
            res = wasserstein(xi, g)
            # primal-dual agreement and edge-Lipschitz certificate
            assert abs(res.value - dual_value(res.potential, xi, g)) <= 1e-9
            assert abs(cost_of_plan(res.plan, metric) - res.value) <= 1e-9
            for a, b in g.edges:
                assert abs(res.potential.ell[a] - res.potential.ell[b]) <= 1 + 1e-12
            # marginals match the positive and negative parts
            pos = np.maximum(xi.values, 0)
            neg = np.maximum(-xi.values, 0)
            assert np.abs(res.plan.row_marginals(g.n) - pos).max() <= 1e-9
            assert np.abs(res.plan.column_marginals(g.n) - neg).max() <= 1e-9


# -- oracle -------------------------------------------------------------------------

def test_oracle_examples(p3):
    assert wasserstein_oracle(zero_distribution(3), p3) == 0.0
    assert wasserstein_oracle(signed_distribution([1, 0, -1]), p3) == pytest.approx(2.0)


def test_oracle_too_large():
    g = cycle_graph(9)
    with pytest.raises(TooLargeError):
        wasserstein_oracle(zero_distribution(9), g)


def test_oracle_agrees_with_solver_quick():
    rng = np.random.default_rng(3)
    for g in enumerate_connected_graphs(4):
        for _ in range(10):
            xi = _random_signed(rng, g.n)
            assert abs(
                wasserstein(xi, g).value - wasserstein_oracle(xi, g)
            ) <= 1e-9


# -- HiGHS oracle ----------------------------------------------------------------------

def _highs_value(graph, xi: np.ndarray) -> float:
    """Min-cost flow of supplies xi over unit-cost arcs, solved by scipy's HiGHS LP.

    HiGHS's feasibility tolerances are absolute, so it may leave supplies
    below 1e-10 unrouted: it solves xi scaled to unit positive mass (and
    re-zeroed, since the scaled sum may drift), and the value is scaled back.
    """
    scale = float(np.maximum(xi, 0.0).sum())
    if scale == 0.0:
        return 0.0
    unit = xi / scale
    unit -= unit.mean()
    edges = np.array(graph.edges)
    m = len(edges)
    heads = np.concatenate([edges[:, 0], edges[:, 1]])
    tails = np.concatenate([edges[:, 1], edges[:, 0]])
    arcs = np.arange(2 * m)
    a_eq = sparse.csr_matrix(
        (np.concatenate([np.ones(2 * m), -np.ones(2 * m)]),
         (np.concatenate([heads, tails]), np.concatenate([arcs, arcs]))),
        shape=(graph.n, 2 * m),
    )
    res = linprog(
        np.ones(2 * m), A_eq=a_eq, b_eq=unit, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun) * scale


@st.composite
def _graph_and_masses(draw):
    """A connected graph on at most 60 vertices (a random tree plus chords) and
    two distributions whose masses span 10^-13 to 1 before normalisation."""
    n = draw(st.integers(2, 60))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    exponents = st.lists(st.floats(-13, 0), min_size=n, max_size=n)
    mu, nu = (10.0 ** np.array(draw(exponents)) for _ in range(2))
    return build_graph(sorted(edges), n), mu / mu.sum(), nu / nu.sum()


def _star_with_dust_sources():
    """The star K1,31 with 9.37e-11 more mass on each of vertices 0..30 under
    mu than under nu, all owed to the leaf 31: W = 9.37e-11 * (1 + 30 * 2)."""
    xi = np.full(32, 9.37e-11)
    xi[31] = -31 * 9.37e-11
    mu = np.full(32, 1 / 32)
    return build_graph([(0, i) for i in range(1, 32)], 32), mu, mu - xi


@given(case=_graph_and_masses())
@example(case=_star_with_dust_sources())
@settings(max_examples=150, deadline=None)
def test_wasserstein_certified_and_matches_highs(case):
    g, mu, nu = case
    xi = signed_distribution(mu - nu)
    res = wasserstein(xi, g)
    assert np.abs(res.plan.row_marginals(g.n) - np.maximum(xi.values, 0)).max() <= 1e-9
    assert np.abs(res.plan.column_marginals(g.n) - np.maximum(-xi.values, 0)).max() <= 1e-9
    assert abs(cost_of_plan(res.plan, g.metric) - res.value) <= 1e-9
    assert abs(dual_value(res.potential, xi, g) - res.value) <= 1e-9
    assert abs(_highs_value(g, xi.values) - res.value) <= 1e-9


@given(case=_graph_and_masses(), root=st.integers(0, 59))
@settings(max_examples=100, deadline=None)
def test_warm_start_from_distances_gives_the_cold_value(case, root):
    g, mu, nu = case
    # Each solve may leave up to DUST unrouted at any vertex, and which dust
    # is left depends on the route taken, so the two values may differ by
    # that much mass moved across the graph.
    dust_budget = 2 * g.n * DUST * g.metric.dist.max()
    _assert_warm_start_agrees(
        g, signed_distribution(mu - nu), g.metric.dist[root % g.n], 1e-12 + dust_budget
    )


# -- metric axioms of W ----------------------------------------------------------------

def test_w_metric_axioms_random_triples():
    rng = np.random.default_rng(11)
    for g in enumerate_connected_graphs(5):
        if g.n < 2 or rng.random() < 0.8:
            continue  # seeded subsample across the family
        mu, nu, kappa = (np.abs(rng.normal(size=g.n)) for _ in range(3))
        mu, nu, kappa = (x / x.sum() for x in (mu, nu, kappa))
        def dist(x, y):
            return wasserstein(signed_distribution(x - y), g).value
        assert dist(mu, nu) >= -1e-12
        assert abs(dist(mu, nu) - dist(nu, mu)) <= 1e-9
        assert dist(mu, kappa) <= dist(mu, nu) + dist(nu, kappa) + 1e-9


@given(data=st.lists(st.floats(-5, 5), min_size=5, max_size=5), scale=st.floats(0.1, 4))
@settings(max_examples=60, deadline=None)
def test_w_scaling_and_negation(data, scale):
    g = cycle_graph(5)
    v = np.array(data)
    v -= v.mean()
    base = wasserstein(signed_distribution(v), g).value
    neg = wasserstein(signed_distribution(-v), g).value
    scaled = wasserstein(signed_distribution(scale * v), g).value
    assert abs(base - neg) <= 1e-9
    assert abs(scaled - scale * base) <= 1e-9 * max(1.0, scale)


def test_translation_invariance(c5):
    rng = np.random.default_rng(5)
    for _ in range(25):
        mu = np.abs(rng.normal(size=5))
        nu = np.abs(rng.normal(size=5))
        nu *= mu.sum() / nu.sum()
        psi = np.abs(rng.normal(size=5))
        base = wasserstein_between(
            Distribution(values=mu),
            Distribution(values=nu),
            c5,
        ).value
        shifted = wasserstein_between(
            Distribution(values=mu + psi),
            Distribution(values=nu + psi),
            c5,
        ).value
        assert abs(base - shifted) <= 1e-12 * max(1.0, base)


# -- serialization ------------------------------------------------------------------------

def test_plan_csv_round_trip(p4):
    res = wasserstein(signed_distribution([0.75, -0.25, -0.25, -0.25]), p4)
    text = plan_to_csv(res.plan)
    lines = text.strip().splitlines()
    assert lines[0] == "source,target,mass"
    parsed = [tuple(line.split(",")) for line in lines[1:]]
    total = sum(float(m) for _, _, m in parsed)
    assert total == pytest.approx(0.75, abs=1e-9)


def test_potential_csv(p4):
    text = potential_to_csv(DualPotential(ell=np.array([0.0, 1.0, 2.0, 3.0])))
    assert text.splitlines()[0] == "vertex,ell"
    assert text.splitlines()[2] == "1,1"


def test_distribution_from_csv(p4):
    d = distribution_from_csv("vertex,mass\n0,0.5\n3,-0.5\n", 4)
    assert np.array_equal(d.values, [0.5, 0, 0, -0.5])
    distribution_from_csv("0,0.5\n1,0.5\n", 4)
    with pytest.raises(ValueError):
        distribution_from_csv("0,0.5\n9,0.5\n", 4)


def test_distribution_from_csv_header_after_comment():
    d = distribution_from_csv("# mu\n\nvertex,mass\n0,1\n", 2)
    assert np.array_equal(d.values, [1.0, 0.0])
    with pytest.raises(ValueError):  # only the first row may be a header
        distribution_from_csv("# mu\n0,1\nvertex,mass\n", 2)
