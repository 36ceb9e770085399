"""Classification, constancy, spectra, constancy-onset bounds, rate fits."""

import numpy as np
import pytest

from walkdist import (
    BetaOneError,
    Category,
    EventuallyConstantError,
    Guvab,
    TooFewPointsError,
    WrongCategoryError,
    all_pairs_distances,
    classify,
    complete_graph,
    cycle_graph,
    detect_gluvab,
    divergence_sum,
    fit_rate,
    one_step_constancy_check,
    path_graph,
    predict_constancy,
    rate_fit_window,
    rho_bounds,
    spectral_data,
    spectrum,
    star_graph,
    transition_matrix,
    wk_series,
    xi_k,
)


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


def test_metric_built_once_per_graph(monkeypatch):
    from walkdist import graphs

    calls = []
    build = graphs.all_pairs_distances
    monkeypatch.setattr(graphs, "all_pairs_distances", lambda g: calls.append(g) or build(g))
    g = cycle_graph(4)
    classify(Guvab(g, 0, 1, 0.0, 1.0))
    detect_gluvab(Guvab(g, 0, 1, 0.0, 1.0))
    divergence_sum(g, 1)
    rho_bounds(Guvab(g, 0, 1, 0.0, 0.0))
    assert len(calls) == 1


# -- spectrum ------------------------------------------------------------------------------

def test_spectrum_examples(c4):
    assert np.allclose(spectrum(c4, 0.0), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(spectrum(c4, 1.0), np.ones(4), atol=1e-15)
    assert np.allclose(spectrum(c4, 0.5), [0.0, 0.5, 0.5, 1.0], atol=1e-12)


def test_spectrum_matches_direct_eigensolve():
    # oracle: eigenvalues of the (non-symmetric) walk matrix itself
    for g in (path_graph(4), cycle_graph(5), star_graph(3), complete_graph(4)):
        for a in (0.0, 0.3, 0.8):
            direct = np.sort(np.linalg.eigvals(transition_matrix(g, a).entries).real)
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
