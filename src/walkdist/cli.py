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
import time
from dataclasses import dataclass
from itertools import groupby, islice
from operator import attrgetter
from typing import TextIO

import numpy as np

from . import analysis, transport, tree_transport, walks
from .errors import NoLaterNeighborError, WalkdistError
from .graphs import (
    check_enumeration_limit,
    enumerate_connected_graphs,
    load_graph_file,
    r_monotone_ordering,
    spanning_tree,
)
from .tolerances import W_TOL
from .walks import Guvab, transition_matrix

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_DISCREPANCY = 3
EXIT_PRECONDITION = 4

SWEEP_GRID = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)  # default sweep lazinesses
SWEEP_TABLE_K = 100  # last step of the stepped W_k table the parity expansion must reproduce


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _flag(verdict) -> str:
    """CSV cell of a verdict: true, false, or empty when undecided."""
    return "" if verdict is None else str(bool(verdict)).lower()


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
    if args.config:
        guvab = walks.load_guvab_config(args.config)
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
    return RunConfig(guvab=guvab, k_max=k_max, out=args.out, fmt=args.fmt or default_fmt)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- classify -------------------------------------------------------------------

def cmd_classify(cfg: RunConfig) -> int:
    report = analysis.classify(cfg.guvab)
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
    report = analysis.classify(cfg.guvab)
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
    trace = tree_transport.run_tree_transport(graph, ordering, xi)
    report = tree_transport.check_inequalities(graph, ordering, xi, trace)
    result = transport.wasserstein(xi, graph)
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
    result = transport.wasserstein_between(mu, nu, graph)
    xi = walks.signed_distribution(mu.values - nu.values)
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

def _sweep_series(graph, lazinesses, k_max: int) -> np.ndarray:
    """k-step distributions of every walk the sweep compares, k = 0..k_max.

    ``mu[k, l, u]`` is the distribution of the walk with laziness
    ``lazinesses[l]`` started at u: the identity stepped by all transition
    matrices at once, one stacked product per step.
    """
    steps = np.stack([transition_matrix(graph, a) for a in lazinesses])
    start = np.broadcast_to(np.eye(graph.n), steps.shape)
    return np.array(list(islice(walks.walk_states(steps, start), k_max + 1)))


def _pair_table(graph, mu: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """xi_k and W_k of the walk pair (i, j) of ``mu`` for every start pair at once.

    Returns (xi, table): ``xi[k, u, v] = mu[k, i, u] - mu[k, j, v]`` and
    ``table[k, u, v]`` its Wasserstein distance, the largest dual objective
    over the graph's integer 1-Lipschitz corners.
    """
    xi = mu[:, i, :, None, :] - mu[:, j, None, :, :]
    return xi, transport.corner_values(xi, graph.corners)


def _reproduces(bases: np.ndarray, coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """[u, v]: the parity expansion gives every W_k of ``table`` within ``W_TOL``."""
    powers = bases ** np.arange(len(table[0::2]))[:, None]
    ok = np.ones(table.shape[1:], dtype=bool)
    for p in (0, 1):
        steps = table[p::2]
        values = np.tensordot(coef[p], powers[: len(steps)], axes=(2, 1)).max(axis=2)  # [u, v, j]
        ok &= (np.abs(values - steps.transpose(1, 2, 0)) <= W_TOL).all(axis=-1)
    return ok


def run_sweep(n_max: int, grid: list[float], out: TextIO) -> tuple[int, int]:
    """Validate closed-form predictions against the exact parity expansion on
    every labeled connected graph up to n_max vertices.

    Writes the CSV to ``out`` row by row.  Each failed check of a row is a
    discrepancy, named on stderr with the row's key; after each vertex count
    one stderr line gives its graphs, rows and CPU seconds.  Returns
    (discrepancy count, skipped alpha>beta pair count).
    """
    values = sorted(set(grid))
    pairs = [(i, j) for i in range(len(values)) for j in range(i, len(values))]
    skipped = len(values) * len(values) - len(pairs)
    header = (
        "graph,n,u,v,alpha,beta,category,limit_even,limit_odd,converges,"
        "constancy_predicted,constancy_check,constancy_agree,"
        "lambda_even,lambda_odd,rate_match,err_even,err_odd"
    )
    out.write(header + "\n")
    rows = discrepancies = 0
    for n, graphs in groupby(enumerate_connected_graphs(n_max), key=attrgetter("n")):
        cpu, first_row, graph_count = time.process_time(), rows, 0
        for graph in graphs:
            graph_count += 1
            gid = ";".join(f"{a}-{b}" for a, b in graph.edges) or "none"
            mu = _sweep_series(graph, values, SWEEP_TABLE_K)
            for i, j in pairs:
                a, b = values[i], values[j]
                xi, table = _pair_table(graph, mu, i, j)
                bases, coef = analysis.parity_expansion(graph, a, b)
                limits, rates = (x.tolist() for x in analysis.parity_asymptotics(bases, coef))
                match = _reproduces(bases, coef, table).tolist()
                fa, fb = _fmt(a), _fmt(b)
                for u in range(n):
                    for v in range(n):
                        report = analysis.classify(Guvab(graph=graph, u=u, v=v, alpha=a, beta=b))
                        limit_even, limit_odd = limits[0][u][v], limits[1][u][v]
                        errs = (abs(limit_even - report.limit_even), abs(limit_odd - report.limit_odd))
                        lams = (rates[0][u][v], rates[1][u][v])
                        check = lams == (0.0, 0.0) and abs(limit_even - limit_odd) <= W_TOL
                        predicted = report.constancy_predicted
                        agree = predicted is None or predicted == check
                        # independent check of the corner table: one flow solve per row
                        k_spot = 1 + rows % 40
                        w_flow = transport._flow_value(graph, xi[k_spot, u, v])
                        checks = {
                            "limit": max(errs) <= W_TOL,
                            "constancy": agree,
                            "expansion": match[u][v],
                            "flow_sample": abs(w_flow - table[k_spot, u, v]) <= W_TOL,
                        }
                        failed = [name for name, ok in checks.items() if not ok]
                        if failed:
                            discrepancies += len(failed)
                            print(
                                f"sweep: {', '.join(failed)} failed at graph {gid}, u {u}, v {v}, "
                                f"alpha {fa}, beta {fb}",
                                file=sys.stderr,
                            )
                        cells = [
                            report.category.value, _fmt(report.limit_even), _fmt(report.limit_odd),
                            _flag(report.converges), _flag(predicted), _flag(check), _flag(agree),
                            *("" if lam == 0.0 else _fmt(lam) for lam in lams),
                            _flag(match[u][v]), *(_fmt(e) for e in errs),
                        ]
                        out.write(f"{gid},{n},{u},{v},{fa},{fb},{','.join(cells)}\n")
                        rows += 1
        print(
            f"sweep: n {n}: {graph_count} graphs, {rows - first_row} rows, "
            f"{time.process_time() - cpu:.2f} s CPU",
            file=sys.stderr,
        )
    out.write(f"# skipped_alpha_gt_beta_pairs={skipped}\n")
    out.write(f"# discrepancies={discrepancies}\n")
    return discrepancies, skipped


def cmd_sweep(args) -> int:
    grid = [float(x) for x in args.grid.split(",")] if args.grid else list(SWEEP_GRID)
    check_enumeration_limit(args.nmax)  # before the CSV header or the --out file is written
    for a in sorted(set(grid)):
        walks.check_laziness(a)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            discrepancies, skipped = run_sweep(args.nmax, grid, fh)
        sys.stdout.write(
            f"sweep: n<={args.nmax}, {skipped} alpha>beta pairs skipped, "
            f"{discrepancies} discrepancies\n"
        )
    else:
        discrepancies, _ = run_sweep(args.nmax, grid, sys.stdout)
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

    p = sub.add_parser("trace", help="W_k series with error column")
    _add_common_flags(p, ("csv", "json"))

    p = sub.add_parser("tree-transport", help="run the settling algorithm on xi_k")
    _add_common_flags(p, ("json",), with_kmax=False)
    p.add_argument("--k", type=int, default=0, help="step index of xi to transport")

    p = sub.add_parser("distance", help="Wasserstein between two distribution files")
    p.add_argument("--graph", required=True)
    p.add_argument("--mu", required=True, help="CSV file 'vertex,mass'")
    p.add_argument("--nu", required=True, help="CSV file 'vertex,mass'")
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)

    p = sub.add_parser("sweep", help="exhaustive validation over small graphs")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--grid", help="comma-separated laziness values")
    p.add_argument("--out")
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
