"""Acceptance criteria: theorem-reproduction checks at pinned tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  Criteria 4
and 5 cover every labeled connected graph with n <= 4 by default; set
WALKDIST_SLOW=1 to extend both to n <= 5.
"""

import os

import numpy as np
import pytest

from walkdist import (
    Category,
    Guvab,
    all_pairs_distances,
    bipartite_decompose,
    check_inequalities,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cost_of_plan,
    cycle_graph,
    detect_gluvab,
    divergence_sum,
    dual_value,
    enumerate_connected_graphs,
    fit_rate,
    half_l1,
    one_step_constancy_check,
    path_graph,
    predict_constancy,
    r_monotone_ordering,
    rate_fit_window,
    rho_bounds,
    run_tree_transport,
    signed_distribution,
    spanning_tree,
    spectrum,
    star_graph,
    transition_matrix,
    two_state_closed_form,
    wasserstein,
    wasserstein_oracle,
    wk_series,
)

GRID = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
N_TOP = 5 if os.environ.get("WALKDIST_SLOW") == "1" else 4


def _report(num: int, desc: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {status} {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_exact_half_rate():
    # |W_k - 1/2| = 0.5 |1 - 2 beta|^k from some N <= 20 through k = 60
    failures = []
    for graph, name in ((cycle_graph(4), "C4"), (cycle_graph(6), "C6")):
        for beta in (0.2, 0.3, 0.7):
            series = wk_series(Guvab(graph, 0, 1, 0.0, beta), 60)
            ratio = abs(1 - 2 * beta)
            dev = [abs(abs(w - 0.5) - 0.5 * ratio**k) for k, w in series]
            onset = max((k for k, d in enumerate(dev) if d > 1e-9), default=-1) + 1
            if onset > 20:
                failures.append(f"{name} beta={beta}: onset {onset} > 20")
    _report(1, "exact 1/2-limit rate on even cycles", failures)


def test_criterion_02_w1_constancy_and_rho_sandwich():
    failures = []
    cases = [
        (path_graph(4), 0, 3, "P4 ends"),
        (cycle_graph(6), 0, 1, "C6 adjacent"),
        (complete_bipartite_graph(2, 3), 0, 2, "K23 opposite"),
    ]
    for graph, u, v, name in cases:
        guvab = Guvab(graph, u, v, 0.0, 0.0)
        bounds = rho_bounds(guvab)
        if bounds.empirical is None:
            failures.append(f"{name}: no constancy onset found")
            continue
        if not bounds.lower <= bounds.empirical <= bounds.upper:
            failures.append(f"{name}: rho {bounds.empirical} outside "
                            f"[{bounds.lower}, {bounds.upper}]")
        for k, w in wk_series(guvab, 200):
            if k >= bounds.empirical and abs(w - 1.0) > 1e-9:
                failures.append(f"{name}: W_{k} = {w} != 1")
                break
    _report(2, "distance-1 constancy with onset bounds", failures)


def test_criterion_03_divergence_criterion():
    failures = []
    star = star_graph(3)
    v = 1  # a leaf
    dsum = divergence_sum(star, v)
    if abs(dsum - 1.0) > 1e-12:
        failures.append(f"divergence sum {dsum} != 1")
    guvab = Guvab(star, 0, v, 0.0, 1.0)
    report = classify(guvab)
    series = dict(wk_series(guvab, 401))
    if abs(series[400] - report.limit_even) > 1e-6:
        failures.append(f"even limit: sim {series[400]} vs {report.limit_even}")
    if abs(series[401] - report.limit_odd) > 1e-6:
        failures.append(f"odd limit: sim {series[401]} vs {report.limit_odd}")
    if abs(series[400] - series[401]) <= 1e-3:
        failures.append("even and odd limits should differ by > 1e-3")
    if report.converges:
        failures.append("classify should report non-convergence")
    _report(3, "oscillating limits for the frozen-target star pair", failures)


def _family(n_top):
    for graph in enumerate_connected_graphs(n_top):
        yield graph


def test_criterion_04_exhaustive_classification():
    # value-only solver entry point; same flow core the public API certifies
    from walkdist.transport import _flow_value

    failures = []
    checked = 0
    for graph in _family(N_TOP):
        powers = {}
        for a in GRID:
            m = transition_matrix(graph, a).entries
            p400 = np.linalg.matrix_power(m, 400)
            powers[a] = (p400, p400 @ m)
        for ia, a in enumerate(GRID):
            for b in GRID[ia:]:
                for u in range(graph.n):
                    for v in range(graph.n):
                        guvab = Guvab(graph, u, v, a, b)
                        report = classify(guvab)
                        sim_even = _flow_value(graph, powers[a][0][u] - powers[b][0][v])
                        sim_odd = _flow_value(graph, powers[a][1][u] - powers[b][1][v])
                        checked += 1
                        if abs(sim_even - report.limit_even) > 1e-5:
                            failures.append(
                                f"{graph.edges} u={u} v={v} a={a} b={b}: "
                                f"even {sim_even} vs {report.limit_even}"
                            )
                        if abs(sim_odd - report.limit_odd) > 1e-5:
                            failures.append(
                                f"{graph.edges} u={u} v={v} a={a} b={b}: "
                                f"odd {sim_odd} vs {report.limit_odd}"
                            )
    print(f"  (criterion 4 checked {checked} walk pairs, n <= {N_TOP})")
    _report(4, "closed-form limits match late simulation exhaustively", failures)


def test_criterion_05_constancy_characterization():
    failures = []
    checked = 0
    for graph in _family(N_TOP):
        for ia, a in enumerate(GRID):
            for b in GRID[ia:]:
                if b == 1.0:
                    continue
                for u in range(graph.n):
                    for v in range(graph.n):
                        guvab = Guvab(graph, u, v, a, b)
                        predicted, _ = predict_constancy(guvab)
                        report = classify(guvab)
                        if report.category is Category.W1:
                            empirical = True  # eventually constant with finite onset
                        elif report.category is Category.W_HALF:
                            empirical = abs(b - 0.5) <= 1e-12
                        else:
                            empirical = one_step_constancy_check(guvab, k_max=40)
                        checked += 1
                        if predicted != empirical:
                            failures.append(
                                f"{graph.edges} u={u} v={v} a={a} b={b}: "
                                f"predicted {predicted} vs empirical {empirical}"
                            )
    print(f"  (criterion 5 checked {checked} walk pairs, n <= {N_TOP})")
    _report(5, "constancy characterization agrees with the decidable check", failures)


def test_criterion_06_duality_and_oracle():
    failures = []
    rng = np.random.default_rng(0)
    for graph in enumerate_connected_graphs(5):
        for _ in range(100):
            raw = rng.normal(size=graph.n)
            raw -= raw.mean()
            xi = signed_distribution(raw)
            result = wasserstein(xi, graph)
            oracle = wasserstein_oracle(xi, graph)
            if abs(result.value - oracle) > 1e-9:
                failures.append(f"{graph.edges}: flow {result.value} vs oracle {oracle}")
                break
            ell = result.potential.ell
            if any(abs(ell[a] - ell[b]) > 1 + 1e-12 for a, b in graph.edges):
                failures.append(f"{graph.edges}: potential not edge-Lipschitz")
                break
            gap = abs(result.value - dual_value(result.potential, xi))
            if gap > 1e-9:
                failures.append(f"{graph.edges}: duality gap {gap}")
                break
    _report(6, "flow value equals oracle with tight dual certificates", failures)


def test_criterion_07_tree_transport_theorems():
    failures = []
    rng = np.random.default_rng(1)
    for graph in enumerate_connected_graphs(5):
        if graph.n == 1:
            continue
        tree = spanning_tree(graph)
        ordering = r_monotone_ordering(tree)
        metric = all_pairs_distances(graph)
        bip = bipartite_decompose(graph)
        # linearity on random pairs
        x = rng.normal(size=graph.n)
        x -= x.mean()
        y = rng.normal(size=graph.n)
        y -= y.mean()
        tr_x = run_tree_transport(graph, ordering, signed_distribution(x))
        tr_y = run_tree_transport(graph, ordering, signed_distribution(y))
        tr_xy = run_tree_transport(graph, ordering, signed_distribution(x + y))
        for i in range(graph.n):
            err = np.abs(tr_xy.states[i] - tr_x.states[i] - tr_y.states[i]).max()
            if err > 1e-9:
                failures.append(f"{graph.edges}: linearity error {err}")
                break
        # cost conclusion whenever the inequalities hold, plus the sign bound
        candidates = [x, y]
        if bip.is_bipartite:
            pattern = np.array(
                [
                    (1.0 if bip.side[w] == 0 else -1.0) * graph.degree(w) / graph.edge_count
                    for w in range(graph.n)
                ]
            )
            candidates.append(pattern)
            tr = run_tree_transport(graph, ordering, signed_distribution(pattern))
            bound = 1.0 / graph.edge_count
            for i in range(graph.n - 1):
                for p in range(i, graph.n):
                    if abs(tr.states[i][ordering.order[p]]) < bound - 1e-12:
                        failures.append(f"{graph.edges}: sign-pattern bound broken")
                        break
        for vals in candidates:
            xi = signed_distribution(vals)
            tr = run_tree_transport(graph, ordering, xi)
            if check_inequalities(graph, ordering, xi, tr).holds:
                target = half_l1(xi)
                if abs(cost_of_plan(tr.plan, metric) - target) > 1e-9:
                    failures.append(f"{graph.edges}: plan cost != half L1")
                if abs(wasserstein(xi, graph).value - target) > 1e-9:
                    failures.append(f"{graph.edges}: W != half L1")
    _report(7, "settling-algorithm linearity, sign bound, and cost identity", failures)


def _conditioned_w0_pairs(graph, rng, count):
    """Distinct 0 < alpha < beta < 1 with a clear gap between the top two
    distinct eigenvalue moduli, so the late-window fit isolates one rate."""
    pairs = []
    while len(pairs) < count:
        a = float(np.round(rng.uniform(0.05, 0.45), 3))
        b = float(np.round(rng.uniform(a + 0.15, 0.95), 3))
        if not a < b < 1.0:
            continue
        moduli = np.abs(np.concatenate([spectrum(graph, a), spectrum(graph, b)]))
        below = np.sort(moduli[moduli < 1.0 - 1e-9])[::-1]
        lam = below[0]
        runners = below[below < lam - 1e-9]
        runner = runners[0] if runners.size else 0.0
        if 0.2 <= lam <= 0.8 and runner <= 0.7 * lam:
            pairs.append((a, b))
    return pairs


def test_criterion_08_spectral_rate_membership():
    failures = []
    rng = np.random.default_rng(2)
    cases = []
    for graph in (complete_graph(3), cycle_graph(5)):
        for a, b in _conditioned_w0_pairs(graph, rng, 10):
            cases.append(Guvab(graph, 0, 1, a, b))
    assert len(cases) == 20
    for guvab in cases:
        report = classify(guvab)
        if report.category is not Category.W0:
            failures.append(f"{guvab.alpha},{guvab.beta}: expected W0")
            continue
        if one_step_constancy_check(guvab, k_max=6):
            failures.append(f"{guvab.alpha},{guvab.beta}: unexpectedly constant")
            continue
        series = wk_series(guvab, 140)
        moduli = np.abs(
            np.concatenate(
                [spectrum(guvab.graph, guvab.alpha), spectrum(guvab.graph, guvab.beta)]
            )
        )
        for parity in ("even", "odd"):
            est = fit_rate(rate_fit_window(series, 0.0, parity), 0.0, parity)
            if np.min(np.abs(moduli - est.lam)) > 1e-3:
                failures.append(
                    f"graph n={guvab.graph.n} a={guvab.alpha} b={guvab.beta} "
                    f"{parity}: lam {est.lam} matches no eigenvalue"
                )
    _report(8, "fitted decay rates are eigenvalue moduli", failures)


def test_criterion_09_gluvab():
    failures = []
    p3 = path_graph(3)
    # the degree-2 vertex carries the moving walk; the frozen walk sits at an
    # endpoint, half the farthest distance from it
    guvab = Guvab(p3, 1, 2, 1.0 / 3.0, 1.0)
    if not detect_gluvab(guvab):
        failures.append("distance-level-symmetric pair not detected")
    for k, w in wk_series(guvab, 100):
        if abs(w - 1.0) > 1e-12:
            failures.append(f"W_{k} = {w} != 1")
            break
    if detect_gluvab(Guvab(p3, 1, 2, 1.0 / 3.0, 0.9)):
        failures.append("beta = 0.9 should not be detected")
    _report(9, "distance-level symmetry detection and constant distance", failures)


def test_criterion_10_two_state_closed_form():
    failures = []
    for step in range(21):
        a = step * 0.05
        m = np.array([[a, 1 - a], [1 - a, a]])
        v = np.array([1.0, 0.0])
        for k in range(61):
            ts = two_state_closed_form(a, k)
            if abs(ts.p0 - v[0]) > 1e-12 or abs(ts.p1 - v[1]) > 1e-12:
                failures.append(f"a={a} k={k}: ({ts.p0}, {ts.p1}) vs {v}")
                break
            v = v @ m
    _report(10, "two-state chain closed form equals matrix iteration", failures)
