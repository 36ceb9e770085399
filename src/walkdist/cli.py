"""Command-line front end.

Subcommands:

* ``classify``       - closed-form limit category and constancy verdict (JSON)
* ``trace``          - W_k series with per-parity error column (CSV, JSON footer)
* ``sweep``          - exhaustive small-graph validation harness (CSV summary)
* ``tree-transport`` - run the settling algorithm on xi_k and report (JSON)
* ``distance``       - one-shot Wasserstein between two distribution files

Exit codes: 0 ok, 2 invalid input, 3 theorem-check discrepancy (sweep),
4 algorithm precondition failure (tree-transport).  Output is deterministic:
floats are printed with 12 significant digits and rows in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import analysis, transport, tree_transport, walks
from .analysis import Category
from .errors import NoLaterNeighborError, WalkdistError
from .graphs import (
    enumerate_connected_graphs,
    load_graph_file,
    r_monotone_ordering,
    spanning_tree,
)
from .walks import Guvab, transition_matrix

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_DISCREPANCY = 3
EXIT_PRECONDITION = 4

CLASS_SIM_TOL = 1e-5  # closed-form limit vs late simulation
RATE_MATCH_TOL = 1e-3  # fitted decay factor vs eigenvalue modulus
FIT_RESIDUAL_TOL = 1e-3  # log-RMS residual above which a fit is not trusted
SPOT_CHECK_TOL = 1e-9  # sweep's corner-dual W_k vs an independent flow solve
SWEEP_GRID = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)  # default sweep lazinesses
SWEEP_TABLE_K = 100  # last step of the W_k table each sweep row slices its series from


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    """Normalize floats to 12 significant digits inside a JSON-able tree."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated single-run configuration."""

    guvab: Guvab
    k_max: int
    tol_mass: float
    tol_gap: float
    out: str | None
    fmt: str


def _add_common_flags(
    p: argparse.ArgumentParser, formats: tuple[str, ...], with_kmax: bool = True
) -> None:
    p.add_argument("--config", help="JSON config file (graph, u, v, alpha, beta)")
    p.add_argument("--graph", help="graph text file ('n m' header then edge lines)")
    p.add_argument("--u", type=int, help="start vertex of the alpha walk")
    p.add_argument("--v", type=int, help="start vertex of the beta walk")
    p.add_argument("--alpha", type=float, help="laziness of the u walk")
    p.add_argument("--beta", type=float, help="laziness of the v walk")
    if with_kmax:
        p.add_argument("--kmax", type=int, default=60, help="last step index")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", dest="fmt", choices=formats, default=None)


def _build_config(args, default_fmt: str) -> RunConfig:
    tol_mass = getattr(args, "tol_mass", walks.DEFAULT_TOL_MASS)
    tol_gap = getattr(args, "tol_gap", transport.DEFAULT_TOL_GAP)
    if args.config:
        guvab, tols = walks.load_guvab_config(args.config)
        tol_mass = tols.get("tol_mass", tol_mass)
        tol_gap = tols.get("tol_gap", tol_gap)
        # explicit flags override config values
        if any(x is not None for x in (args.graph, args.u, args.v, args.alpha, args.beta)):
            graph = load_graph_file(args.graph) if args.graph else guvab.graph
            guvab = Guvab(
                graph=graph,
                u=guvab.u if args.u is None else args.u,
                v=guvab.v if args.v is None else args.v,
                alpha=guvab.alpha if args.alpha is None else args.alpha,
                beta=guvab.beta if args.beta is None else args.beta,
            )
    else:
        missing = [
            name
            for name, val in (
                ("--graph", args.graph),
                ("--u", args.u),
                ("--v", args.v),
                ("--alpha", args.alpha),
                ("--beta", args.beta),
            )
            if val is None
        ]
        if missing:
            raise ValueError(f"missing required flags: {', '.join(missing)}")
        graph = load_graph_file(args.graph)
        guvab = Guvab(graph=graph, u=args.u, v=args.v, alpha=args.alpha, beta=args.beta)
    k_max = getattr(args, "kmax", 0)
    if k_max is None or k_max < 0:
        raise ValueError(f"--kmax must be nonnegative, got {k_max}")
    return RunConfig(
        guvab=guvab,
        k_max=k_max,
        tol_mass=tol_mass,
        tol_gap=tol_gap,
        out=args.out,
        fmt=args.fmt or default_fmt,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- classify -------------------------------------------------------------------

def cmd_classify(cfg: RunConfig) -> int:
    report = analysis.classify(cfg.guvab, tol_gap=cfg.tol_gap)
    _emit(_dump_json(report.to_jsonable()), cfg.out)
    return EXIT_OK


# -- trace ----------------------------------------------------------------------

def _fit(series, limit: float, parity: str) -> analysis.RateEstimate | None:
    """Late-window rate fit of one parity class; None when no fit exists."""
    window = analysis.rate_fit_window(series, limit, parity)
    try:
        return analysis.fit_rate(window, limit, parity)
    except WalkdistError:
        return None


def cmd_trace(cfg: RunConfig) -> int:
    report = analysis.classify(cfg.guvab, tol_gap=cfg.tol_gap)
    series = analysis.wk_series(cfg.guvab, cfg.k_max)
    limits = (report.limit_even, report.limit_odd)
    rows = [(k, w, abs(w - limits[k % 2])) for k, w in series]
    rates = {}
    for parity, limit in zip(("even", "odd"), limits):
        est = _fit(series, limit, parity)
        rates[f"rate_{parity}"] = None if est is None else {
            "c": est.c, "lambda": est.lam, "parity": est.parity, "residual": est.residual
        }
    if cfg.fmt == "json":
        payload = {
            "series": [[k, w, e] for k, w, e in rows],
            "report": report.to_jsonable(),
            **rates,
        }
        _emit(_dump_json(payload), cfg.out)
        return EXIT_OK
    lines = ["k,W_k,abs_error_vs_limit"]
    lines.extend(f"{k},{_fmt(w)},{_fmt(e)}" for k, w, e in rows)
    footer = json.dumps(_round12(rates), sort_keys=True)
    lines.append(f"# {footer}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


# -- tree-transport ---------------------------------------------------------------

def cmd_tree_transport(cfg: RunConfig, k: int) -> int:
    graph = cfg.guvab.graph
    ordering = r_monotone_ordering(spanning_tree(graph))
    xi = walks.xi_k(cfg.guvab, k)
    trace = tree_transport.run_tree_transport(graph, ordering, xi, cfg.tol_mass)
    report = tree_transport.check_inequalities(graph, ordering, xi, trace)
    result = transport.wasserstein(xi, graph, tol_mass=cfg.tol_mass)
    payload = {
        "k": k,
        "xi": [float(x) for x in xi.values],
        "trace": tree_transport.trace_to_jsonable(trace),
        "inequalities": {
            "holds": report.holds,
            "first_violation": None
            if report.first_violation is None
            else {
                "inequality": report.first_violation.inequality,
                "state_index": report.first_violation.state_index,
                "vertices": list(report.first_violation.vertices),
            },
        },
        "cost": transport.cost_of_plan(trace.plan, graph.metric),
        "half_l1": tree_transport.half_l1(xi),
        "wasserstein": result.value,
    }
    _emit(_dump_json(payload), cfg.out)
    return EXIT_OK


# -- distance ----------------------------------------------------------------------

def cmd_distance(args) -> int:
    graph = load_graph_file(args.graph)
    with open(args.mu, "r", encoding="utf-8") as fh:
        mu = transport.distribution_from_csv(fh.read(), graph.n)
    with open(args.nu, "r", encoding="utf-8") as fh:
        nu = transport.distribution_from_csv(fh.read(), graph.n)
    result = transport.wasserstein_between(mu, nu, graph, tol_mass=args.tol_mass)
    xi = walks.signed_distribution(mu.values - nu.values, tol_mass=args.tol_mass)
    dual = transport.dual_value(result.potential, xi, graph)
    fmt = args.fmt or "json"
    if fmt == "csv":
        out = args.out
        if not out:
            raise ValueError("--format csv requires --out for the plan file")
        _emit(transport.plan_to_csv(result.plan), out)
        _emit(transport.potential_to_csv(result.potential), out + ".potential.csv")
        sys.stdout.write(f"{_fmt(result.value)}\n")
        return EXIT_OK
    payload = {
        "value": result.value,
        "plan": [[s, t, m] for s, t, m in result.plan.moves],
        "potential": [float(x) for x in result.potential.ell],
        "dual_value": dual,
        "duality_gap": abs(result.value - dual),
    }
    _emit(_dump_json(payload), args.out)
    return EXIT_OK


# -- sweep -------------------------------------------------------------------------

def _sweep_series(graph, p_a: np.ndarray, p_b: np.ndarray, k_max: int):
    """xi_k and W_k for every start pair (u, v) and k = 0..k_max at once.

    Returns (xi, table): ``xi[k, u, v]`` is mu_k - nu_k for walks started at
    u and v, and ``table[k, u, v]`` its Wasserstein distance, the largest
    dual objective over the graph's integer 1-Lipschitz corners.
    """
    eye = np.eye(graph.n)
    states = islice(walks.pair_states(p_a, p_b, eye, eye), k_max + 1)
    mu, nu = map(np.array, zip(*states))
    xi = mu[:, :, None, :] - nu[:, None, :, :]
    return xi, transport.corner_values(xi, graph.corners)


def _settled_prefix(ws: list[float], limits: tuple[float, float]):
    """(k, W_k) up to the adaptive stop: past the constancy window and until
    both parity errors die, or the whole table."""
    series = [(0, ws[0])]
    dead_run = 0
    for k in range(1, len(ws)):
        w = ws[k]
        series.append((k, w))
        dead_run = dead_run + 1 if abs(w - limits[k % 2]) < 1e-12 else 0
        if k > 41 and dead_run >= 2:
            break
    return series


def run_sweep(
    n_max: int,
    grid: list[float],
    k_max: int,
    tol_gap: float = transport.DEFAULT_TOL_GAP,
):
    """Validate closed-form predictions against simulation on every labeled
    connected graph up to n_max vertices.

    Returns (csv text, discrepancy count, skipped alpha>beta pair count).
    """
    values = sorted(set(grid))
    pairs = [(a, b) for a in values for b in values if a <= b]
    skipped = len(values) * len(values) - len(pairs)
    header = (
        "graph,n,u,v,alpha,beta,category,limit_even,limit_odd,converges,"
        "constancy_predicted,constancy_check,constancy_agree,"
        "lambda_even,lambda_odd,rate_match,err_even,err_odd"
    )
    lines = [header]
    discrepancies = 0
    for graph in enumerate_connected_graphs(n_max):
        gid = ";".join(f"{a}-{b}" for a, b in graph.edges) or "none"
        moduli_cache: dict[float, np.ndarray] = {}

        def moduli(laziness: float) -> np.ndarray:
            if laziness not in moduli_cache:
                moduli_cache[laziness] = np.abs(analysis.spectrum(graph, laziness))
            return moduli_cache[laziness]

        for a, b in pairs:
            p_a = transition_matrix(graph, a).entries
            p_b = transition_matrix(graph, b).entries
            xi, table = _sweep_series(graph, p_a, p_b, SWEEP_TABLE_K)
            by_start = table.transpose(1, 2, 0).tolist()  # [u][v] -> W_0..W_SWEEP_TABLE_K
            k_hi = k_max if k_max % 2 == 0 else k_max + 1
            pow_a = np.linalg.matrix_power(p_a, k_hi)
            pow_b = np.linalg.matrix_power(p_b, k_hi)
            pow_a1 = pow_a @ p_a
            pow_b1 = pow_b @ p_b
            sims_even = transport.corner_values(
                pow_a[:, None, :] - pow_b[None, :, :], graph.corners
            )
            sims_odd = transport.corner_values(
                pow_a1[:, None, :] - pow_b1[None, :, :], graph.corners
            )
            union_moduli = np.concatenate([moduli(a), moduli(b)])
            for u in range(graph.n):
                for v in range(graph.n):
                    guvab = Guvab(graph=graph, u=u, v=v, alpha=a, beta=b)
                    report = analysis.classify(guvab, tol_gap=tol_gap)
                    err_even = abs(float(sims_even[u, v]) - report.limit_even)
                    err_odd = abs(float(sims_odd[u, v]) - report.limit_odd)
                    if err_even > CLASS_SIM_TOL or err_odd > CLASS_SIM_TOL:
                        discrepancies += 1
                    limits = (report.limit_even, report.limit_odd)
                    series = _settled_prefix(by_start[u][v], limits)
                    # independent check of the corner table: one flow solve per row
                    k_spot = 1 + (len(lines) - 1) % 40
                    w_flow = transport._flow_value(graph, xi[k_spot, u, v])
                    if abs(w_flow - by_start[u][v][k_spot]) > SPOT_CHECK_TOL:
                        discrepancies += 1
                    if report.category is Category.W1:
                        check = True
                    elif report.category is Category.W_HALF:
                        check = abs(b - 0.5) <= 1e-12
                    else:
                        w1 = series[1][1]
                        check = all(
                            abs(w - w1) <= tol_gap for k, w in series[2:41] if k <= 40
                        )
                    predicted = report.constancy_predicted
                    agree = predicted is None or predicted == check
                    if not agree:
                        discrepancies += 1
                    fits = {}
                    for parity, limit in zip(("even", "odd"), limits):
                        est = _fit(series, limit, parity)
                        trusted = est is not None and (
                            est.residual <= FIT_RESIDUAL_TOL and 0.0 < est.lam < 1.0
                        )
                        fits[parity] = est if trusted else None
                    match_flags = []
                    for est in fits.values():
                        if est is None:
                            continue
                        ok = bool(
                            np.min(np.abs(union_moduli - est.lam)) <= RATE_MATCH_TOL
                        )
                        match_flags.append(ok)
                        if not ok:
                            discrepancies += 1
                    rate_match = (
                        "" if not match_flags else str(all(match_flags)).lower()
                    )
                    lines.append(
                        ",".join(
                            [
                                gid,
                                str(graph.n),
                                str(u),
                                str(v),
                                _fmt(a),
                                _fmt(b),
                                report.category.value,
                                _fmt(report.limit_even),
                                _fmt(report.limit_odd),
                                str(report.converges).lower(),
                                ""
                                if predicted is None
                                else str(predicted).lower(),
                                str(check).lower(),
                                str(agree).lower(),
                                "" if fits["even"] is None else _fmt(fits["even"].lam),
                                "" if fits["odd"] is None else _fmt(fits["odd"].lam),
                                rate_match,
                                _fmt(err_even),
                                _fmt(err_odd),
                            ]
                        )
                    )
    lines.append(f"# skipped_alpha_gt_beta_pairs={skipped}")
    lines.append(f"# discrepancies={discrepancies}")
    return "\n".join(lines) + "\n", discrepancies, skipped


def cmd_sweep(args) -> int:
    grid = [float(x) for x in args.grid.split(",")] if args.grid else list(SWEEP_GRID)
    text, discrepancies, skipped = run_sweep(
        args.nmax, grid, args.kmax, tol_gap=args.tol_gap
    )
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(
            f"sweep: n<={args.nmax}, {skipped} alpha>beta pairs skipped, "
            f"{discrepancies} discrepancies\n"
        )
    return EXIT_DISCREPANCY if discrepancies else EXIT_OK


# -- entry point --------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkdist",
        description="Wasserstein distances between k-step distributions of "
        "paired lazy random walks on finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="limit category and constancy verdict")
    _add_common_flags(p, ("json",), with_kmax=False)
    p.add_argument("--tol-gap", type=float, default=transport.DEFAULT_TOL_GAP)

    p = sub.add_parser("trace", help="W_k series with error column")
    _add_common_flags(p, ("csv", "json"))
    p.add_argument("--tol-gap", type=float, default=transport.DEFAULT_TOL_GAP)

    p = sub.add_parser("tree-transport", help="run the settling algorithm on xi_k")
    _add_common_flags(p, ("json",), with_kmax=False)
    p.add_argument("--k", type=int, default=0, help="step index of xi to transport")
    p.add_argument("--tol-mass", type=float, default=walks.DEFAULT_TOL_MASS)

    p = sub.add_parser("distance", help="Wasserstein between two distribution files")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu", required=True, help="CSV file 'vertex,mass'")
    p.add_argument("--nu", required=True, help="CSV file 'vertex,mass'")
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p.add_argument("--tol-mass", type=float, default=walks.DEFAULT_TOL_MASS)

    p = sub.add_parser("sweep", help="exhaustive validation over small graphs")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--grid", help="comma-separated laziness values")
    p.add_argument("--kmax", type=int, default=400)
    p.add_argument("--out")
    p.add_argument("--tol-gap", type=float, default=transport.DEFAULT_TOL_GAP)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(_build_config(args, default_fmt="json"))
        if args.command == "trace":
            return cmd_trace(_build_config(args, default_fmt="csv"))
        if args.command == "tree-transport":
            cfg = _build_config(args, default_fmt="json")
            if args.k < 0:
                raise ValueError(f"--k must be nonnegative, got {args.k}")
            return cmd_tree_transport(cfg, args.k)
        if args.command == "distance":
            return cmd_distance(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover
    except NoLaterNeighborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (WalkdistError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
