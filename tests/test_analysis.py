"""Classification, constancy, spectra, constancy-onset bounds, rate fits."""

import math
from itertools import islice

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from walkdist import (
    BetaOneError,
    Category,
    EventuallyConstantError,
    Guvab,
    LazinessOutOfRangeError,
    TooFewPointsError,
    WrongCategoryError,
    all_pairs_distances,
    build_graph,
    classify,
    complete_graph,
    cycle_graph,
    detect_gluvab,
    divergence_sum,
    enumerate_connected_graphs,
    fit_rate,
    one_step_constancy_check,
    parity_asymptotics,
    parity_expansion,
    path_graph,
    predict_constancy,
    rate_fit_window,
    rho_bounds,
    spectral_data,
    spectrum,
    star_graph,
    transition_matrix,
    walk_states,
    wk_series,
    xi_k,
)
from walkdist.tolerances import W_TOL
from walkdist.transport import corner_values
from walkdist.walks import xi_series


# -- classify ---------------------------------------------------------------------

def test_classify_w1(c4):
    r = classify(Guvab(c4, 0, 1, 0.0, 0.0))
    assert r.category is Category.W1
    assert r.converges and r.limit == 1.0
    assert r.constancy_predicted is True


def test_classify_w0(k3):
    r = classify(Guvab(k3, 0, 1, 0.0, 0.0))
    assert r.category is Category.W0
    assert r.limit == 0.0


def test_classify_w_half(c4):
    r = classify(Guvab(c4, 0, 1, 0.0, 0.3))
    assert r.category is Category.W_HALF
    assert r.limit == 0.5
    assert r.constancy_predicted is False


def test_classify_beta1_divergent(k13):
    r = classify(Guvab(k13, 1, 2, 0.0, 1.0))
    assert r.category is Category.BETA1
    assert not r.converges and r.limit is None
    assert r.divergence_sum == pytest.approx(1.0)
    assert abs(r.limit_even - r.limit_odd) > 1e-3
    assert sorted((r.limit_even, r.limit_odd)) == pytest.approx([1.0, 4 / 3])


def test_classify_beta1_frozen(c5):
    r = classify(Guvab(c5, 0, 2, 1.0, 1.0))
    assert r.category is Category.BETA1
    assert r.limit == 2.0
    assert r.constancy_predicted is True


def test_classify_beta1_mixing(k3):
    # 0 < alpha < 1, frozen target: limit is the mean distance under pi
    r = classify(Guvab(k3, 0, 1, 0.5, 1.0))
    assert r.category is Category.BETA1
    assert r.limit == pytest.approx(2 / 3)
    assert r.constancy_predicted is None


# -- divergence_sum -------------------------------------------------------------------

def test_divergence_examples(p2, c4, k13):
    assert divergence_sum(p2, 0) == pytest.approx(-1.0)
    for v in range(4):
        assert divergence_sum(c4, v) == pytest.approx(0.0)
    assert divergence_sum(k13, 1) == pytest.approx(1.0)


def test_divergence_matches_limit_gap():
    # |limit_even - limit_odd| = (2 / sum deg) * |divergence sum| for frozen pairs
    for g in (star_graph(3), path_graph(4), cycle_graph(6)):
        for v in range(g.n):
            r = classify(Guvab(g, 0, v, 0.0, 1.0))
            gap = abs(r.limit_even - r.limit_odd)
            expected = abs(divergence_sum(g, v)) / g.edge_count
            assert gap == pytest.approx(expected, abs=1e-12)


def test_nonconvergence_iff_divergence_sum():
    # frozen-target pairs diverge exactly when bipartite, alpha = 0, and the
    # signed degree-distance sum at v is nonzero
    from walkdist import bipartite_decompose, enumerate_connected_graphs

    for g in enumerate_connected_graphs(4):
        bip = bipartite_decompose(g)
        for u in range(g.n):
            for v in range(g.n):
                for alpha in (0.0, 0.5, 1.0):
                    r = classify(Guvab(g, u, v, alpha, 1.0))
                    expect_diverge = (
                        g.n > 1
                        and bip.is_bipartite
                        and alpha == 0.0
                        and abs(divergence_sum(g, v)) > 1e-9
                    )
                    assert r.converges == (not expect_diverge)
                    if expect_diverge:
                        assert abs(r.limit_even - r.limit_odd) > 1e-3


# -- predict_constancy ------------------------------------------------------------------

def test_predict_examples(c4):
    assert predict_constancy(Guvab(c4, 0, 2, 0.0, 0.0))[0] is True
    assert predict_constancy(Guvab(c4, 0, 1, 0.0, 0.5))[0] is True
    assert predict_constancy(Guvab(c4, 0, 1, 0.3, 0.4)) == (False, None)


def test_predict_shared_neighborhood_clauses(k3, k4):
    flag, reason = predict_constancy(Guvab(k3, 0, 1, 1 / 3, 1 / 3))
    assert flag and "1/(deg u + 1)" in reason
    assert predict_constancy(Guvab(k4, 0, 1, 0.25, 0.25))[0] is True
    assert predict_constancy(Guvab(k4, 0, 1, 0.3, 0.3))[0] is False


def test_predict_odd_distance_clause_matches_metric_parity():
    # the clause reads the 2-coloring; on connected graphs that is d(u, v) odd
    for g in enumerate_connected_graphs(5):
        dist = all_pairs_distances(g).dist
        for u in range(g.n):
            for v in range(g.n):
                flag, reason = predict_constancy(Guvab(g, u, v, 0.0, 0.0))
                odd = g.bipartite.is_bipartite and dist[u, v] % 2 == 1
                assert flag == (odd or g.adjacency[u] == g.adjacency[v])
                assert (reason == "lazinesses 0 on a bipartite graph with odd u-v distance") == odd


def test_predict_rejects_beta_one(c4):
    with pytest.raises(BetaOneError):
        predict_constancy(Guvab(c4, 0, 1, 0.0, 1.0))


def test_near_boundary_laziness_gives_one_verdict(c4):
    # alpha within 1e-12 of 0 is stored as 0: classify and predict_constancy agree
    pair = Guvab(c4, 0, 1, 1e-13, 0.5)
    assert pair.alpha == 0.0
    r = classify(pair)
    assert r.category is Category.W_HALF and r.limit == 0.5
    assert r.constancy_predicted is True
    assert predict_constancy(pair) == (True, "laziness pair (0, 1/2) on a bipartite graph")
    frozen = Guvab(c4, 0, 1, 0.5, 1.0 - 1e-13)
    assert frozen.beta == 1.0
    assert classify(frozen).category is Category.BETA1


# -- gluvab ------------------------------------------------------------------------------

def test_gluvab_p3(p3):
    # the degree-2 vertex must carry the moving walk; the frozen walk sits at
    # an endpoint exactly half the eccentricity away
    assert detect_gluvab(Guvab(p3, 1, 2, 1 / 3, 1.0)) is True
    assert detect_gluvab(Guvab(p3, 1, 0, 0.5, 1.0)) is True
    assert detect_gluvab(Guvab(p3, 0, 1, 1 / 3, 1.0)) is False
    assert detect_gluvab(Guvab(p3, 1, 2, 1 / 3, 0.9)) is False


def test_gluvab_p5():
    g = path_graph(5)
    assert detect_gluvab(Guvab(g, 2, 4, 0.25, 1.0)) is True
    assert detect_gluvab(Guvab(g, 1, 4, 0.25, 1.0)) is False


def test_gluvab_implies_constant_distance():
    # soundness of the detector against the distance series itself
    found = 0
    for g in (path_graph(3), path_graph(4), path_graph(5), cycle_graph(4), star_graph(3)):
        metric = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                for alpha in (0.0, 0.25, 0.5):
                    guvab = Guvab(g, u, v, alpha, 1.0)
                    if detect_gluvab(guvab):
                        found += 1
                        w0 = float(metric.d(u, v))
                        for _, w in wk_series(guvab, 30):
                            assert abs(w - w0) <= 1e-12
    assert found >= 3


def test_analysis_builds_each_distance_row_once(monkeypatch):
    from walkdist import graphs

    metric_calls, bfs_sources = [], []
    build = graphs.all_pairs_distances
    monkeypatch.setattr(graphs, "all_pairs_distances", lambda g: metric_calls.append(g) or build(g))
    g = cycle_graph(4)
    bfs = graphs._bfs
    monkeypatch.setattr(graphs, "_bfs", lambda adj, src: bfs_sources.append(list(src)) or bfs(adj, src))
    classify(Guvab(g, 0, 1, 0.0, 1.0))
    detect_gluvab(Guvab(g, 0, 1, 0.0, 1.0))
    divergence_sum(g, 1)
    rho_bounds(Guvab(g, 0, 1, 0.0, 0.0))
    assert metric_calls == []
    # the bipartition from vertex 0, the row of v = 1, and the row of u = 0 for
    # W_0 of the W1 series
    assert sorted(bfs_sources) == [[0], [0], [1]]


# -- spectrum ------------------------------------------------------------------------------

def test_spectrum_examples(c4):
    assert np.allclose(spectrum(c4, 0.0), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(spectrum(c4, 1.0), np.ones(4), atol=1e-15)
    assert np.allclose(spectrum(c4, 0.5), [0.0, 0.5, 0.5, 1.0], atol=1e-12)


def test_spectrum_checks_laziness_on_a_single_vertex():
    with pytest.raises(LazinessOutOfRangeError):
        spectrum(path_graph(2), 1.5)
    with pytest.raises(LazinessOutOfRangeError):
        spectrum(build_graph([], 1), 1.5)
    assert spectrum(build_graph([], 1), 0.5).tolist() == [1.0]


def test_spectrum_matches_direct_eigensolve():
    # oracle: eigenvalues of the (non-symmetric) walk matrix itself
    for g in (path_graph(4), cycle_graph(5), star_graph(3), complete_graph(4)):
        for a in (0.0, 0.3, 0.8):
            direct = np.sort(np.linalg.eigvals(transition_matrix(g, a)).real)
            assert np.allclose(spectrum(g, a), direct, atol=1e-9)


def test_spectral_data_lambda_max(c6):
    sd = spectral_data(Guvab(c6, 0, 1, 0.0, 0.0))
    assert sd.lambda_max == pytest.approx(0.5, abs=1e-12)
    sd = spectral_data(Guvab(c6, 0, 1, 1.0, 1.0))
    assert sd.lambda_max == 0.0


def test_spectral_reconstruction():
    # xi_k rebuilt from eigenvalue powers: solve for coefficients on the first
    # n' values, then predict through k = 100
    cases = [
        Guvab(cycle_graph(4), 0, 1, 0.0, 0.25),
        Guvab(path_graph(4), 0, 3, 0.25, 0.75),
        Guvab(complete_graph(3), 0, 1, 0.2, 0.6),
    ]
    for guvab in cases:
        sd = spectral_data(guvab)
        eigs = np.concatenate([sd.eigs_alpha, sd.eigs_beta])
        distinct = []
        for lam in eigs:
            if not any(abs(lam - mu) <= 1e-9 for mu in distinct):
                distinct.append(float(lam))
        m = len(distinct)
        xis = {k: xi_k(guvab, k).values for k in range(1, 101)}
        vander = np.array([[lam**k for lam in distinct] for k in range(1, m + 1)])
        coeffs = np.linalg.solve(vander, np.array([xis[k] for k in range(1, m + 1)]))
        for k in range(1, 101):
            powers = np.array([lam**k for lam in distinct])
            rebuilt = powers @ coeffs
            assert np.abs(rebuilt - xis[k]).max() <= 1e-9


# -- parity expansion ------------------------------------------------------------------------

def _asymptotics(graph, u, v, alpha, beta):
    limit, rate = parity_asymptotics(*parity_expansion(graph, alpha, beta))
    return limit[:, u, v], rate[:, u, v]


def test_parity_asymptotics_readme_rate():
    # two decay modes interfere here (0.857 and 0.827), so a fitted rate misses
    graph = build_graph([(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)], 5)
    _, rate = _asymptotics(graph, 2, 2, 0.0, 0.5)
    assert rate == pytest.approx([0.856568326584] * 2, abs=1e-12)
    moduli = np.abs(np.concatenate([spectrum(graph, 0.0), spectrum(graph, 0.5)]))
    assert np.abs(moduli - rate[0]).min() <= 1e-12


@pytest.mark.parametrize(
    "graph, u, v, alpha, beta, limits, rates",
    [
        (cycle_graph(4), 0, 1, 0.0, 0.3, (0.5, 0.5), (0.4, 0.4)),
        (cycle_graph(4), 0, 1, 0.0, 0.5, (0.5, 0.5), (0.0, 0.0)),
        # r = 1/3 + (2/3)(-1/2) = 0 comes out of float arithmetic as ~1e-16
        (complete_graph(3), 0, 1, 1 / 3, 1 / 3, (0.0, 0.0), (0.0, 0.0)),
        # different parity limits, no rate: oscillates forever, not constant
        (path_graph(2), 0, 1, 0.0, 1.0, (1.0, 0.0), (0.0, 0.0)),
    ],
    ids=["c4-w-half", "c4-half-constant", "k3-zero-base", "p2-oscillating"],
)
def test_parity_asymptotics_verdicts(graph, u, v, alpha, beta, limits, rates):
    limit, rate = _asymptotics(graph, u, v, alpha, beta)
    assert limit == pytest.approx(limits, abs=1e-12)
    assert rate == pytest.approx(rates, abs=1e-12)


def _random_connected_graph(rng, n):
    """A random tree (each vertex joins an earlier one) plus a few chords."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(n))):
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    return build_graph(sorted(edges), n)


def test_parity_expansion_matches_flow_solver_beyond_enumeration():
    rng = np.random.default_rng(5)
    grid = (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0)
    for n in (5, 6, 7) * 3:
        graph = _random_connected_graph(rng, n)
        u, v = (int(x) for x in rng.integers(n, size=2))
        for alpha, beta in ((a, b) for a in grid for b in grid if a <= b):
            bases, coef = parity_expansion(graph, alpha, beta)
            guvab = Guvab(graph, u, v, alpha, beta)
            for k, w in wk_series(guvab, 30):
                j, p = divmod(k, 2)
                assert abs((bases**j @ coef[p, u, v]).max() - w) <= 1e-9, (graph, u, v, k)
            limit, _ = parity_asymptotics(bases, coef)
            report = classify(guvab)
            assert abs(limit[0, u, v] - report.limit_even) <= W_TOL
            assert abs(limit[1, u, v] - report.limit_odd) <= W_TOL


def test_parity_expansion_single_vertex():
    bases, coef = parity_expansion(path_graph(1), 0.0, 0.5)
    limit, rate = parity_asymptotics(bases, coef)
    assert bases.tolist() == [1.0] and not coef.any()
    assert not limit.any() and not rate.any()


# -- rho bounds ------------------------------------------------------------------------------

def test_rho_p2(p2):
    g = Guvab(p2, 0, 1, 0.0, 0.0)
    rb = rho_bounds(g)
    assert rb.empirical == 0
    assert rb.lower <= 0 <= rb.upper


def test_rho_p4(p4):
    g = Guvab(p4, 0, 3, 0.0, 0.0)
    rb = rho_bounds(g)
    assert rb.lower == pytest.approx(0.5)
    assert rb.empirical == 1
    assert rb.lower <= rb.empirical <= rb.upper


def test_rho_wrong_category(k3):
    g = Guvab(k3, 0, 1, 0.0, 0.0)
    with pytest.raises(WrongCategoryError):
        rho_bounds(g)


def test_rho_sandwich_sampled():
    # every laziness-0 odd-distance pair on a seeded sample of bipartite graphs
    from walkdist import bipartite_decompose, enumerate_connected_graphs

    rng = np.random.default_rng(12)
    graphs = [
        g
        for g in enumerate_connected_graphs(5)
        if g.n >= 2 and bipartite_decompose(g).is_bipartite
    ]
    sample = [graphs[i] for i in rng.choice(len(graphs), size=25, replace=False)]
    checked = 0
    for g in sample:
        metric = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                if metric.d(u, v) % 2 == 0:
                    continue
                guvab = Guvab(g, u, v, 0.0, 0.0)
                rb = rho_bounds(guvab)
                assert rb.empirical is not None
                assert rb.lower <= rb.empirical <= rb.upper
                checked += 1
    assert checked > 50


# -- wk_series -----------------------------------------------------------------------------

def test_wk_series_identical_walks(c4):
    assert all(w == 0.0 for _, w in wk_series(Guvab(c4, 1, 1, 0.3, 0.3), 20))


def test_wk_series_starts_at_distance(c6):
    metric = all_pairs_distances(c6)
    series = wk_series(Guvab(c6, 0, 3, 0.2, 0.7), 0)
    assert series == [(0, pytest.approx(float(metric.d(0, 3))))]


def test_wk_series_matches_corner_maximum():
    # each warm-started solve of the series equals the brute-force dual maximum
    for g in enumerate_connected_graphs(5):
        u, v = 0, g.n - 1
        for alpha, beta in ((0.0, 0.5), (1 / 3, 1.0), (0.0, 0.0), (0.25, 0.75)):
            states = zip(
                walk_states(transition_matrix(g, alpha), np.eye(g.n)[u]),
                walk_states(transition_matrix(g, beta), np.eye(g.n)[v]),
            )
            xis = np.array([mu - nu for mu, nu in islice(states, 31)])
            series = [w for _, w in wk_series(Guvab(g, u, v, alpha, beta), 30)]
            assert np.abs(np.array(series) - corner_values(xis, g.corners)).max() <= 1e-12


def test_frozen_target_series_matches_corner_maximum_exhaustive():
    for g in enumerate_connected_graphs(4):
        for u in range(g.n):
            for v in range(g.n):
                for alpha in (0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0):
                    guvab = Guvab(g, u, v, alpha, 1.0)
                    xis = np.array(list(islice(xi_series(guvab), 31)))
                    series = np.array([w for _, w in wk_series(guvab, 30)])
                    assert np.abs(series - corner_values(xis, g.corners)).max() <= 1e-12


def _chorded_ring(n, rng):
    """A cycle on n vertices plus n // 12 random chords."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + n // 12:
        a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    return build_graph(sorted(edges), n)


def test_frozen_target_series_is_exact_on_rings():
    # W_k = sum_x mu_k(x) d(x, v): the walk stepped here by its own matrix and
    # the distances from scipy, summed with math.fsum
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = _chorded_ring(int(rng.integers(110, 131)), rng)
        adjacency = np.zeros((g.n, g.n))
        for a, b in g.edges:
            adjacency[a, b] = adjacency[b, a] = 1.0
        u, v = (int(x) for x in rng.integers(g.n, size=2))
        dist_v = shortest_path(adjacency, unweighted=True)[:, v]
        alpha = round(float(rng.uniform(0.0, 0.9)), 4)
        step = alpha * np.eye(g.n) + (1 - alpha) * adjacency / adjacency.sum(axis=1)[:, None]
        mu = np.eye(g.n)[u]
        for k, w in wk_series(Guvab(g, u, v, alpha, 1.0), 60):
            ref = math.fsum((mu * dist_v).tolist())
            assert abs(w - ref) <= 1e-13 * max(1.0, ref), (g.n, u, v, alpha, k)
            mu = mu @ step


def test_wk_series_w_half_closed_form(c4):
    # |W_k - 1/2| = 0.5 * 0.4^k for the (0, 0.3) pair on the 4-cycle
    for k, w in wk_series(Guvab(c4, 0, 1, 0.0, 0.3), 40):
        assert abs(abs(w - 0.5) - 0.5 * 0.4**k) <= 1e-9


# -- one-step constancy ----------------------------------------------------------------------

def test_one_step_examples(c4, k3, p3):
    assert one_step_constancy_check(Guvab(c4, 0, 2, 0.0, 0.0)) is True
    assert one_step_constancy_check(Guvab(k3, 0, 1, 0.2, 0.2)) is False
    assert one_step_constancy_check(Guvab(p3, 1, 2, 1 / 3, 1.0)) is True


def test_one_step_wrong_category(c4):
    with pytest.raises(WrongCategoryError):
        one_step_constancy_check(Guvab(c4, 0, 1, 0.0, 0.0))  # W1


# -- rate fitting ------------------------------------------------------------------------------

def test_fit_rate_w_half(c4):
    series = wk_series(Guvab(c4, 0, 1, 0.0, 0.3), 70)
    for parity in ("even", "odd"):
        est = fit_rate(rate_fit_window(series, 0.5, parity), 0.5, parity)
        assert est.lam == pytest.approx(0.4, abs=1e-3)


def test_fit_rate_k3_exact(k3):
    series = wk_series(Guvab(k3, 0, 1, 0.2, 0.2), 40)
    est = fit_rate(rate_fit_window(series, 0.0, "even"), 0.0, "even")
    assert est.lam == pytest.approx(0.2, abs=1e-6)
    moduli = np.abs(spectrum(k3, 0.2))
    assert np.min(np.abs(moduli - est.lam)) <= 1e-3


def test_fit_rate_constant_series():
    series = [(k, 1.0) for k in range(30)]
    with pytest.raises(EventuallyConstantError):
        fit_rate(series, 1.0, "even")


def test_fit_rate_too_few_points():
    series = [(k, 1.0 + 0.5**k) for k in range(5)]
    with pytest.raises(TooFewPointsError):
        fit_rate(series, 1.0, "even")
