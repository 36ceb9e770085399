"""Output checks, run after the timed region.

Every check recomputes what it needs from the inputs the benchmark made,
read back from the files it wrote, with its own code: closed-form limits from breadth-first distances, walk
distributions from its own transition matrices, and exact transport values
from scipy's HiGHS linear-programming solver.  A check returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import shortest_path

from workloads import (
    SimpleGraph, bfs_dist, connected_graphs, read_graph, read_masses, two_coloring,
)

TOL = 1e-9  # every value is printed to 12 significant digits
CLASS_SIM_TOL = 1e-5  # the sweep's own limit-vs-simulation tolerance
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def check(op, rc: int, stdout: str) -> str | None:
    if rc != 0:  # code -1 is a raised exception: its traceback's last line says which
        last = stdout.strip().splitlines()[-1:] if rc == -1 else []
        return f"exit code {rc}" + "".join(f": {line}" for line in last)
    try:
        with open(op.out, "r", encoding="utf-8") as fh:
            text = fh.read()
        return CHECKS[op.argv[0]](op, text, stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _num(s) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {s!r}")
    return x


def closed_form(graph: SimpleGraph, u: int, v: int, alpha: float, beta: float):
    """(category, even limit, odd limit) of W_k for the walk pair."""
    if graph.n == 1:
        return ("BETA1" if beta == 1.0 else "W0"), 0.0, 0.0
    adj = graph.adjacency
    side = two_coloring(adj)
    dv = bfs_dist(adj, v)
    deg = [len(ns) for ns in adj]
    two_m = 2.0 * len(graph.edges)
    if beta == 1.0:
        if alpha == 1.0:
            return "BETA1", float(dv[u]), float(dv[u])
        if alpha == 0.0 and side is not None:
            def side_limit(s: int) -> float:
                return 2.0 * sum(dv[w] * deg[w] for w in range(graph.n) if side[w] == s) / two_m

            return "BETA1", side_limit(side[u]), side_limit(1 - side[u])
        pi_dist = sum(deg[w] * dv[w] for w in range(graph.n)) / two_m
        return "BETA1", pi_dist, pi_dist
    if alpha > 0.0 or side is None or (beta == 0.0 and side[u] == side[v]):
        return "W0", 0.0, 0.0
    if beta == 0.0:
        return "W1", 1.0, 1.0
    return "W_HALF", 0.5, 0.5


# -- sweep -------------------------------------------------------------------

SWEEP_HEADER = (
    "graph,n,u,v,alpha,beta,category,limit_even,limit_odd,converges,"
    "constancy_predicted,constancy_check,constancy_agree,"
    "lambda_even,lambda_odd,rate_match,err_even,err_odd"
)


def check_sweep(op, text: str, stdout: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return "sweep: bad header"
    rows = [line for line in lines[1:] if not line.startswith("#")]
    if lines[-1] != "# discrepancies=0":
        return f"sweep: footer {lines[-1]!r}"
    if "0 discrepancies" not in stdout:
        return "sweep: summary line does not report 0 discrepancies"
    if len(rows) != op.work:
        return f"sweep: {len(rows)} rows, expected {op.work}"
    values = sorted(set(op.expect["grid"]))
    pairs = [(a, b) for a in values for b in values if a <= b]
    it = iter(rows)
    for graph in connected_graphs(op.expect["nmax"]):
        gid = ";".join(f"{a}-{b}" for a, b in graph.edges) or "none"
        for a, b in pairs:
            for u in range(graph.n):
                for v in range(graph.n):
                    cols = next(it).split(",")
                    key = [gid, str(graph.n), str(u), str(v), _fmt(a), _fmt(b)]
                    if cols[:6] != key or len(cols) != 18:
                        return f"sweep: row {cols[:6]} where {key} was expected"
                    category, even, odd = closed_form(graph, u, v, a, b)
                    if cols[6] != category:
                        return f"sweep: {key} category {cols[6]}, closed form {category}"
                    if abs(_num(cols[7]) - even) > TOL or abs(_num(cols[8]) - odd) > TOL:
                        return f"sweep: {key} limits {cols[7:9]}, closed form {even}, {odd}"
                    if cols[12] != "true" or cols[15] not in ("", "true"):
                        return f"sweep: {key} constancy_agree={cols[12]} rate_match={cols[15]}"
                    if max(_num(cols[16]), _num(cols[17])) > CLASS_SIM_TOL:
                        return f"sweep: {key} limit-vs-simulation errors {cols[16:18]}"
    return None


# -- trace -------------------------------------------------------------------


def transition(graph: SimpleGraph, laziness: float) -> np.ndarray:
    mat = np.zeros((graph.n, graph.n))
    for i, ns in enumerate(graph.adjacency):
        mat[i, i] = laziness
        mat[i, ns] = (1.0 - laziness) / len(ns)
    return mat


def highs_value(graph: SimpleGraph, xi: np.ndarray) -> float:
    """Min-cost flow of supplies xi over unit-cost edges, by HiGHS."""
    m = len(graph.edges)
    heads = np.array([a for a, _ in graph.edges] + [b for _, b in graph.edges])
    tails = np.array([b for _, b in graph.edges] + [a for a, _ in graph.edges])
    cols = np.concatenate([np.arange(2 * m), np.arange(2 * m)])
    data = np.concatenate([np.ones(2 * m), -np.ones(2 * m)])
    a_eq = sparse.csr_matrix((data, (np.concatenate([heads, tails]), cols)), shape=(graph.n, 2 * m))
    res = linprog(
        np.ones(2 * m), A_eq=a_eq, b_eq=xi, bounds=(0, None), method="highs",
        options=HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise ValueError(f"HiGHS: {res.message}")
    return float(res.fun)


def check_trace(op, text: str, stdout: str) -> str | None:
    e = op.expect
    lines = text.splitlines()
    if not lines or lines[0] != "k,W_k,abs_error_vs_limit":
        return "trace: bad header"
    if not lines[-1].startswith("# "):
        return "trace: no footer"
    footer = json.loads(lines[-1][2:], parse_constant=_reject)
    if not isinstance(footer, dict) or set(footer) != {"rate_even", "rate_odd"}:
        return f"trace: footer {lines[-1]!r}"
    rows = [line.split(",") for line in lines[1:-1]]
    if [r[0] for r in rows] != [str(k) for k in range(op.work)]:
        return f"trace: {len(rows)} rows, expected k = 0..{op.work - 1}"
    graph = read_graph(e["graph_file"])
    category, even, odd = closed_form(graph, e["u"], e["v"], e["alpha"], e["beta"])
    if category != e["category"]:
        return f"trace: input meant as {e['category']} is {category}"
    ws = [_num(r[1]) for r in rows]
    for k, (w, r) in enumerate(zip(ws, rows)):
        if abs(_num(r[2]) - abs(w - (even, odd)[k % 2])) > TOL:
            return f"trace: k={k} error column {r[2]} does not match W_k={r[1]}"
    mu = np.zeros(graph.n)
    nu = np.zeros(graph.n)
    mu[e["u"]] = nu[e["v"]] = 1.0
    p_a, p_b = transition(graph, e["alpha"]), transition(graph, e["beta"])
    for k in range(max(e["ks"]) + 1):
        if k in e["ks"]:
            ref = highs_value(graph, mu - nu)
            if abs(ref - ws[k]) > TOL:
                return f"trace: W_{k}={ws[k]!r}, HiGHS {ref!r}"
        mu, nu = mu @ p_a, nu @ p_b
    return None


# -- distance ----------------------------------------------------------------


def _reject(token: str):
    raise ValueError(f"JSON holds {token}")


def check_distance(op, text: str, stdout: str) -> str | None:
    e = op.expect
    graph = read_graph(e["graph_file"])
    n = graph.n
    payload = json.loads(text, parse_constant=_reject)
    value = _num(payload["value"])
    xi = np.array(read_masses(e["mu_file"], n)) - np.array(read_masses(e["nu_file"], n))
    plan = np.array(payload["plan"], dtype=float).reshape(-1, 3)
    ell = np.array(payload["potential"], dtype=float)
    if not (np.isfinite(plan).all() and np.isfinite(ell).all() and ell.shape == (n,)):
        return "distance: non-finite or misshapen plan or potential"
    src, dst, mass = plan[:, 0].astype(int), plan[:, 1].astype(int), plan[:, 2]
    if (mass < 0).any():
        return "distance: negative plan mass"
    rows = np.bincount(src, weights=mass, minlength=n)
    cols = np.bincount(dst, weights=mass, minlength=n)
    if max(np.abs(rows - np.maximum(xi, 0)).max(), np.abs(cols - np.maximum(-xi, 0)).max()) > TOL:
        return "distance: plan marginals differ from the parts of mu - nu"
    edges = np.array(graph.edges)
    adj = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    cost = 0.0
    if len(src):
        sources = np.unique(src)
        dist = shortest_path(adj, directed=False, unweighted=True, indices=sources)
        cost = float(np.sum(mass * dist[np.searchsorted(sources, src), dst]))
    if abs(cost - value) > TOL:
        return f"distance: plan cost {cost!r} but value {value!r}"
    if np.abs(ell[edges[:, 0]] - ell[edges[:, 1]]).max() > 1.0 + TOL:
        return "distance: potential is not 1-Lipschitz on an edge"
    dual = float(ell @ xi)
    if abs(value - dual) > TOL:
        return f"distance: value {value!r} but dual {dual!r}"
    ref = highs_value(graph, xi)
    if abs(ref - value) > TOL:
        return f"distance: value {value!r}, HiGHS {ref!r}"
    return None


CHECKS = {"sweep": check_sweep, "trace": check_trace, "distance": check_distance}
