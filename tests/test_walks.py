"""Transition matrices, k-step evolution, limits, the two-state chain."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkdist import (
    Distribution,
    Guvab,
    InvalidDistributionError,
    InvalidVertexError,
    LazinessOrderError,
    LazinessOutOfRangeError,
    NotBipartiteError,
    all_pairs_distances,
    bipartite_decompose,
    enumerate_connected_graphs,
    graph_to_text,
    k_step,
    limit_xi,
    load_guvab_config,
    point_mass,
    probability_distribution,
    signed_distribution,
    stationary_pi,
    tau_distributions,
    transition_matrix,
    two_state_closed_form,
    xi_k,
)

GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


# -- distributions -----------------------------------------------------------------

def test_distribution_validation():
    probability_distribution([0.5, 0.5])
    signed_distribution([0.25, -0.25])
    with pytest.raises(InvalidDistributionError):
        probability_distribution([0.7, 0.7])
    with pytest.raises(InvalidDistributionError):
        probability_distribution([-0.1, 1.1])
    with pytest.raises(InvalidDistributionError):
        signed_distribution([0.5, 0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_distribution_rejects_non_finite(bad):
    for kind in ("probability", "signed"):
        with pytest.raises(InvalidDistributionError, match="non-finite"):
            Distribution(values=[0.5, bad], kind=kind)
    with pytest.raises(InvalidDistributionError):
        signed_distribution([bad, 0.0])


def test_guvab_validation(c4):
    with pytest.raises(LazinessOrderError):
        Guvab(c4, 0, 1, 0.7, 0.3)
    with pytest.raises(InvalidVertexError):
        Guvab(c4, 0, 9, 0.0, 0.5)
    with pytest.raises(LazinessOutOfRangeError):
        Guvab(c4, 0, 1, -0.2, 0.5)


# -- transition matrices --------------------------------------------------------------

def test_transition_examples(p2, p3, c4):
    assert np.array_equal(transition_matrix(p2, 0.0).entries, [[0, 1], [1, 0]])
    assert np.array_equal(transition_matrix(c4, 1.0).entries, np.eye(4))
    center_row = transition_matrix(p3, 1 / 3).entries[1]
    assert np.allclose(center_row, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_transition_rejects_bad_laziness(p2):
    with pytest.raises(LazinessOutOfRangeError):
        transition_matrix(p2, 1.5)


def test_transition_structure():
    for g in enumerate_connected_graphs(4):
        for a in (0.0, 0.3, 1.0):
            m = transition_matrix(g, a).entries
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
            if g.n > 1:
                assert np.allclose(np.diag(m), a, atol=1e-15)


# -- k_step ---------------------------------------------------------------------------

def test_k_step_examples(p2, c4):
    mu = point_mass(2, 0)
    assert np.array_equal(k_step(mu, transition_matrix(p2, 0.3), 0).values, mu.values)
    hop = k_step(mu, transition_matrix(p2, 0.0), 1)
    assert np.array_equal(hop.values, [0.0, 1.0])


def test_k_step_c4_two_steps_matches_walk_enumeration(c4):
    # oracle: enumerate all 2-step neighbor choices from vertex 0
    counts = np.zeros(4)
    for first in c4.adjacency[0]:
        for second in c4.adjacency[first]:
            counts[second] += 1.0
    oracle = counts / counts.sum()
    got = k_step(point_mass(4, 0), transition_matrix(c4, 0.0), 2).values
    assert np.allclose(got, oracle, atol=1e-15)
    assert np.allclose(got, [0.5, 0.0, 0.5, 0.0], atol=1e-15)


def test_k_step_requires_probability(p2):
    with pytest.raises(InvalidDistributionError):
        k_step(signed_distribution([0.5, -0.5]), transition_matrix(p2, 0.0), 1)


def test_row_stochasticity_preserved_small_graphs():
    # all starts at once: evolve the full matrix power and check row sums
    for g in enumerate_connected_graphs(5):
        m = transition_matrix(g, 1 / 3).entries
        power = np.eye(g.n)
        for _ in range(200):
            power = power @ m
            assert np.abs(power.sum(axis=1) - 1.0).max() < 1e-9


def test_row_stochasticity_preserved_n6_sample():
    graphs = [g for g in enumerate_connected_graphs(6) if g.n == 6]
    for g in graphs[:: max(1, len(graphs) // 250)]:
        m = transition_matrix(g, 0.25).entries
        power = np.eye(6)
        for _ in range(200):
            power = power @ m
        assert np.abs(power.sum(axis=1) - 1.0).max() < 1e-9


# -- xi_k ------------------------------------------------------------------------------

def test_xi_examples(c4):
    assert np.allclose(xi_k(Guvab(c4, 2, 2, 0.3, 0.3), 5).values, 0.0, atol=1e-15)
    assert np.array_equal(xi_k(Guvab(c4, 0, 1, 0.0, 0.5), 0).values, [1, -1, 0, 0])
    one = xi_k(Guvab(c4, 0, 1, 0.0, 0.0), 1)
    assert np.allclose(one.values, [-0.5, 0.5, -0.5, 0.5], atol=1e-15)


# -- stationary and side-limit distributions -----------------------------------------------

def test_stationary_examples(p3, c4, k13):
    assert np.allclose(stationary_pi(p3).values, [0.25, 0.5, 0.25], atol=1e-15)
    assert np.allclose(stationary_pi(c4).values, 0.25, atol=1e-15)
    assert np.allclose(stationary_pi(k13).values, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)


def test_tau_examples(c4, p2, k13):
    t0, t1 = tau_distributions(c4)
    assert np.allclose(t0.values, [0.5, 0, 0.5, 0], atol=1e-15)
    assert np.allclose(t1.values, [0, 0.5, 0, 0.5], atol=1e-15)
    t0, t1 = tau_distributions(p2)
    assert np.array_equal(t0.values, [1, 0])
    assert np.array_equal(t1.values, [0, 1])
    t0, t1 = tau_distributions(k13)
    assert np.allclose(t0.values, [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(t1.values, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert abs(t0.values.sum() - 1) < 1e-12 and abs(t1.values.sum() - 1) < 1e-12


def test_tau_rejects_non_bipartite(k3):
    with pytest.raises(NotBipartiteError):
        tau_distributions(k3)


# -- limit_xi -----------------------------------------------------------------------------

def test_limit_xi_examples(c4):
    even, odd = limit_xi(Guvab(c4, 0, 3, 0.25, 0.75))
    assert np.allclose(even.values, 0.0, atol=1e-15)
    assert np.allclose(odd.values, 0.0, atol=1e-15)
    even, _ = limit_xi(Guvab(c4, 0, 1, 0.0, 0.5))
    assert np.allclose(even.values, [0.25, -0.25, 0.25, -0.25], atol=1e-15)
    even, odd = limit_xi(Guvab(c4, 0, 1, 1.0, 1.0))
    assert np.array_equal(even.values, [1, -1, 0, 0])
    assert np.array_equal(odd.values, [1, -1, 0, 0])


def test_limit_xi_matches_iteration_exhaustively():
    # every pair on every connected graph with n <= 5, grid lazinesses:
    # xi_800/xi_801 from matrix powers stay within 1e-6 of the closed forms
    for g in enumerate_connected_graphs(5):
        powers = {}
        for a in GRID:
            m = transition_matrix(g, a).entries
            p800 = np.linalg.matrix_power(m, 800)
            powers[a] = (p800, p800 @ m)
        for ia, a in enumerate(GRID):
            for b in GRID[ia:]:
                for u in range(g.n):
                    for v in range(g.n):
                        guvab = Guvab(g, u, v, a, b)
                        even, odd = limit_xi(guvab)
                        sim_even = powers[a][0][u] - powers[b][0][v]
                        sim_odd = powers[a][1][u] - powers[b][1][v]
                        assert np.abs(sim_even - even.values).max() < 1e-6
                        assert np.abs(sim_odd - odd.values).max() < 1e-6


# -- two-state chain ------------------------------------------------------------------------

def _two_state_oracle(a, k):
    m = np.array([[a, 1 - a], [1 - a, a]])
    v = np.array([1.0, 0.0])
    for _ in range(k):
        v = v @ m
    return v


def test_two_state_examples():
    start = two_state_closed_form(0.7, 0)
    assert (start.p0, start.p1) == (1.0, 0.0)
    for k in (1, 5, 20):
        ts = two_state_closed_form(0.5, k)
        assert (ts.p0, ts.p1) == pytest.approx((0.5, 0.5))
    ts = two_state_closed_form(0.3, 2)
    assert (ts.p0, ts.p1) == pytest.approx((0.58, 0.42), abs=1e-12)


@given(
    a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    k=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_two_state_matches_iteration(a, k):
    oracle = _two_state_oracle(a, k)
    ts = two_state_closed_form(a, k)
    assert abs(ts.p0 - oracle[0]) < 1e-12
    assert abs(ts.p1 - oracle[1]) < 1e-12


def test_side_mass_follows_two_state_chain():
    # bipartite graphs: mass on the start side equals the two-state closed form
    for g in enumerate_connected_graphs(5):
        bip = bipartite_decompose(g)
        if not bip.is_bipartite or g.n == 1:
            continue
        side0 = [v for v in range(g.n) if bip.side[v] == 0]
        for beta in (0.0, 0.3, 0.75):
            m = transition_matrix(g, beta).entries
            power = np.eye(g.n)
            for k in range(0, 41):
                for start in range(g.n):
                    mass0 = power[start, side0].sum()
                    expected = two_state_closed_form(beta, k)
                    want = expected.p0 if bip.side[start] == 0 else expected.p1
                    assert abs(mass0 - want) < 1e-12
                power = power @ m


# -- config files ------------------------------------------------------------------------------

def test_guvab_config_round_trip(tmp_path, c4):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(graph_to_text(c4))
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"graph": str(gpath), "u": 0, "v": 1, "alpha": 0.0, "beta": 0.5, "tol_gap": 1e-10}
        )
    )
    guvab, tols = load_guvab_config(cfg)
    assert (guvab.u, guvab.v, guvab.alpha, guvab.beta) == (0, 1, 0.0, 0.5)
    assert guvab.graph.edges == c4.edges
    assert tols == {"tol_gap": 1e-10}


def test_guvab_config_missing_key(tmp_path, c4):
    gpath = tmp_path / "c4.txt"
    gpath.write_text(graph_to_text(c4))
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"graph": str(gpath), "u": 0}))
    with pytest.raises(KeyError):
        load_guvab_config(cfg)
