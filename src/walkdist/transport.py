"""Exact Wasserstein-1 distance on a graph via min-cost flow.

The cost of moving one unit of mass across one edge is 1, and the transport
cost between vertices is the shortest-path distance.  Because that distance
IS the path metric, the transportation problem is equivalent to a min-cost
flow on the graph itself: every undirected edge becomes two unit-cost arcs of
unbounded capacity, and the signed distribution xi provides the supplies.

The solver is successive shortest paths with node potentials.  Real-valued
supplies are fine: each augmentation zeroes the residual imbalance of its
source or target, or saturates a flow-cancelling residual arc, and the
shortest-path rule keeps the run short.  The final node potentials give a
1-Lipschitz dual certificate with zero duality gap up to floating point, and
the optimal arc flows decompose into a sparse source-to-target plan whose
paths are all geodesics.

An independent brute-force oracle maximizes the dual objective over every
integer-valued vertex function that changes by at most 1 across each edge.
The feasible polytope has integral corners (its constraint matrix is a graph
incidence matrix), so the integer maximum equals the true distance; the
oracle shares no code with the flow solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import NotLipschitzError, TooLargeError, UnbalancedMassError
from .graphs import Graph, Metric
from .walks import DEFAULT_TOL_MASS, Distribution

DEFAULT_TOL_GAP = 1e-9
ORACLE_MAX_VERTICES = 8

# Mass below this is treated as numerical dust by the solver internals.
_DUST = 1e-13


@dataclass(frozen=True)
class TransportPlan:
    """Sparse transport plan: (source, target) -> nonnegative mass."""

    moves: tuple[tuple[int, int, float], ...]

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {(s, t): m for s, t, m in self.moves}

    def row_marginals(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for s, _, m in self.moves:
            out[s] += m
        return out

    def column_marginals(self, n: int) -> np.ndarray:
        out = np.zeros(n)
        for _, t, m in self.moves:
            out[t] += m
        return out


@dataclass(frozen=True, eq=False)
class DualPotential:
    """Vertex potential; 1-Lipschitz across every edge when valid."""

    ell: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.ell, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "ell", v)


@dataclass(frozen=True, eq=False)
class TransportResult:
    """Optimal value with a primal plan and a dual certificate."""

    value: float
    plan: TransportPlan
    potential: DualPotential


def _require_zero_sum(values: np.ndarray, tol_mass: float) -> None:
    total = float(values.sum())
    if abs(total) > tol_mass:
        raise UnbalancedMassError(f"mass imbalance {total!r} exceeds {tol_mass!r}")


def _flow_value(graph: Graph, supply: np.ndarray) -> float:
    """Optimal transport value only (no plan or dual extraction)."""
    flows, _ = _min_cost_flow(graph, supply)
    return float(sum(abs(f) for f in flows.values()))


def _min_cost_flow(graph: Graph, supply: np.ndarray):
    """Successive shortest paths; returns (net edge flows, node potentials).

    Flows are keyed by the ordered edge (a, b) with a < b; positive means
    a -> b.  Every edge offers a unit-cost arc each way plus, when it already
    carries flow, a cost -1 cancel arc capped by the flow it undoes; each
    augmentation therefore zeroes its source's or target's imbalance or
    saturates a cancel arc.  Dijkstra runs on reduced costs with (cost, hops)
    keys, so zero-cost phases use fewest-hop paths and the run is bounded.
    Potentials stay integer-valued because all arc costs are +-1, making the
    dual certificate exact up to the float sums in the objective.
    """
    n = graph.n
    adjacency = graph.adjacency
    balance = [float(x) for x in supply]
    pot = [0.0] * n
    flow: dict[tuple[int, int], float] = {}
    inf = float("inf")

    def signed_flow(a: int, b: int) -> float:
        """Net flow currently moving a -> b (negative if it moves b -> a)."""
        return flow.get((a, b), 0.0) if a < b else -flow.get((b, a), 0.0)

    guard = 10 * n * n * (graph.edge_count + 1) + 100
    for _ in range(guard):
        src = next((i for i in range(n) if balance[i] > _DUST), -1)
        if src < 0:
            return flow, pot
        dist = [(inf, 0)] * n
        prev = [-1] * n
        dist[src] = (0.0, 0)
        heap: list[tuple[float, int, int]] = [(0.0, 0, src)]
        done = [False] * n
        while heap:
            d, hops, a = heappop(heap)
            if done[a]:
                continue
            done[a] = True
            for b in adjacency[a]:
                if done[b]:
                    continue
                # moving a -> b cancels opposing flow at cost -1, else costs 1
                cost = -1.0 if signed_flow(b, a) > _DUST else 1.0
                nd = (d + cost + pot[a] - pot[b], hops + 1)
                if nd < dist[b]:
                    dist[b] = nd
                    prev[b] = a
                    heappush(heap, (nd[0], nd[1], b))
        tgt = -1
        best = (inf, 0)
        for i in range(n):
            if balance[i] < -_DUST and dist[i] < best:
                best = dist[i]
                tgt = i
        if tgt < 0:
            return flow, pot
        best_cost = best[0]
        for i in range(n):
            pot[i] += dist[i][0] if dist[i][0] < best_cost else best_cost
        # bottleneck: supplies and any cancel arcs along the path
        amount = min(balance[src], -balance[tgt])
        v = tgt
        while v != src:
            a = prev[v]
            opposing = signed_flow(v, a)
            if opposing > _DUST:
                amount = min(amount, opposing)
            v = a
        v = tgt
        while v != src:
            a = prev[v]
            key = (a, v) if a < v else (v, a)
            delta = amount if a < v else -amount
            flow[key] = flow.get(key, 0.0) + delta
            v = a
        balance[src] -= amount
        balance[tgt] += amount
    raise RuntimeError("min-cost flow failed to settle supplies")  # pragma: no cover


def _decompose_flows(n: int, arc_flows: dict[tuple[int, int], float]) -> TransportPlan:
    """Path-decompose acyclic arc flows into a (source, target) plan.

    Works for any arc flow whose positive-flow arcs contain no directed
    cycle; both the min-cost solver and the tree-based transport algorithm
    produce such flows.  Arcs carrying at most ``_DUST`` are dropped, and
    supplies and demands are the divergence of the arcs that are kept.  A
    path that reaches a dead end (what is left there is split over arcs that
    each carry dust) drops that residue instead of routing it, so a vertex's
    marginals differ from the flow's divergence by dust only.
    """
    remaining: dict[tuple[int, int], float] = {}
    for (a, b), f in arc_flows.items():
        if f > _DUST:
            remaining[(a, b)] = f
        elif f < -_DUST:
            remaining[(b, a)] = -f
    divergence = [0.0] * n
    for (a, b), f in remaining.items():
        divergence[a] += f
        divergence[b] -= f
    out: dict[int, list[int]] = {}
    for a, b in sorted(remaining):
        out.setdefault(a, []).append(b)
    supply_rem = [max(x, 0.0) for x in divergence]
    demand_rem = [max(-x, 0.0) for x in divergence]
    moves: dict[tuple[int, int], float] = {}
    # each pass zeroes an arc, a supply, or a demand, bounding the loop
    for _ in range(len(remaining) + 2 * n + 4):
        src = next((i for i, s in enumerate(supply_rem) if s > _DUST), -1)
        if src < 0:
            break
        path = [src]
        v = src
        while v == src or demand_rem[v] <= _DUST:
            v = next(
                (w for w in out.get(v, ()) if remaining.get((v, w), 0.0) > _DUST), -1
            )
            if v < 0:
                break
            path.append(v)
        if v < 0:
            if len(path) == 1:
                supply_rem[src] = 0.0
            else:
                remaining[(path[-2], path[-1])] = 0.0
            continue
        amount = min(
            supply_rem[src],
            demand_rem[v],
            min(remaining[(path[i], path[i + 1])] for i in range(len(path) - 1)),
        )
        for i in range(len(path) - 1):
            remaining[(path[i], path[i + 1])] -= amount
        supply_rem[src] -= amount
        demand_rem[v] -= amount
        key = (src, v)
        moves[key] = moves.get(key, 0.0) + amount
    return TransportPlan(moves=tuple((s, t, m) for (s, t), m in sorted(moves.items())))


def wasserstein(
    xi: Distribution, graph: Graph, tol_mass: float = DEFAULT_TOL_MASS
) -> TransportResult:
    """Exact Wasserstein distance from xi to the zero distribution.

    Returns the optimal value together with a sparse plan (row marginals the
    positive part of xi, column marginals the negative part) and a
    1-Lipschitz dual potential achieving the same objective.  The positive
    part is transported to the negative part directly, so no nonnegative
    shift is ever materialized.
    """
    values = np.asarray(xi.values, dtype=float)
    _require_zero_sum(values, tol_mass)
    n = graph.n
    if float(np.abs(values).max(initial=0.0)) <= _DUST:
        return TransportResult(
            value=0.0,
            plan=TransportPlan(moves=()),
            potential=DualPotential(ell=np.zeros(n)),
        )
    flows, pot = _min_cost_flow(graph, values)
    value = float(sum(abs(f) for f in flows.values()))
    plan = _decompose_flows(n, flows)
    ell = -np.array(pot)
    anchor = int(np.argmax(values))
    ell -= ell[anchor]
    return TransportResult(value=value, plan=plan, potential=DualPotential(ell=ell))


def wasserstein_between(
    mu: Distribution,
    nu: Distribution,
    graph: Graph,
    tol_mass: float = DEFAULT_TOL_MASS,
) -> TransportResult:
    """Wasserstein distance between two equal-mass distributions.

    Reduces to the signed problem on mu - nu; shifting both inputs by the
    same distribution leaves the answer unchanged.
    """
    total_mu = float(mu.values.sum())
    total_nu = float(nu.values.sum())
    if abs(total_mu - total_nu) > tol_mass:
        raise UnbalancedMassError(
            f"mass mismatch: sum(mu)={total_mu!r} vs sum(nu)={total_nu!r}"
        )
    diff = Distribution(values=mu.values - nu.values, kind="signed")
    return wasserstein(diff, graph, tol_mass=tol_mass)


def cost_of_plan(plan: TransportPlan, metric: Metric) -> float:
    """Total mass-weighted distance of a plan."""
    return float(sum(m * metric.dist[s, t] for s, t, m in plan.moves))


def dual_value(
    potential: DualPotential,
    xi: Distribution,
    graph: Graph | None = None,
    lipschitz_tol: float = 1e-12,
) -> float:
    """Dual objective sum(ell * xi); validates edge constraints when a graph is given."""
    ell = potential.ell
    if graph is not None:
        for a, b in graph.edges:
            gap = abs(float(ell[a] - ell[b]))
            if gap > 1.0 + lipschitz_tol:
                raise NotLipschitzError(
                    f"|ell[{a}] - ell[{b}]| = {gap!r} exceeds 1 on an edge"
                )
    return float(np.dot(ell, xi.values))


def wasserstein_oracle(
    xi: Distribution, graph: Graph, tol_mass: float = DEFAULT_TOL_MASS
) -> float:
    """Brute-force dual maximum over integer edge-Lipschitz vertex functions.

    Enumerates every integer vector with value 0 at vertex 0, entries within
    +-(n-1), and steps of at most 1 across each edge; the maximum of
    sum(ell * xi) over that finite set equals the Wasserstein distance.
    Exponential in n, usable only as an independent correctness oracle.
    """
    if graph.n > ORACLE_MAX_VERTICES:
        raise TooLargeError(
            f"oracle enumeration limited to n <= {ORACLE_MAX_VERTICES}, got {graph.n}"
        )
    values = np.asarray(xi.values, dtype=float)
    _require_zero_sum(values, tol_mass)
    return float(corner_values(values, graph.corners))


def corner_values(xi: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Wasserstein distance of each zero-sum vector along xi's last axis.

    ``max over corners ell of ell . xi``, with ``corners`` from
    :attr:`Graph.corners`.  Batched over any leading axes; the dot products
    are taken with xi itself (not as a difference of two dot products), so a
    small distance keeps its relative accuracy.
    """
    return (xi @ corners.T).max(axis=-1)


# -- CSV serialization ---------------------------------------------------------

def plan_to_csv(plan: TransportPlan) -> str:
    lines = ["source,target,mass"]
    lines.extend(f"{s},{t},{m:.12g}" for s, t, m in plan.moves)
    return "\n".join(lines) + "\n"


def potential_to_csv(potential: DualPotential) -> str:
    lines = ["vertex,ell"]
    lines.extend(f"{v},{x:.12g}" for v, x in enumerate(potential.ell))
    return "\n".join(lines) + "\n"


def distribution_from_csv(text: str, n: int) -> Distribution:
    """Parse 'vertex,mass' CSV rows (header optional) into a Distribution.

    Any real masses are accepted; the result is tagged signed when the total
    is (numerically) zero and probability otherwise.  Mass-balance
    preconditions are enforced by the transport operations, not here.
    """
    values = np.zeros(n)
    for line_no, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {line_no + 1}: expected 'vertex,mass', got {line!r}")
        if line_no == 0 and not parts[0].strip().lstrip("-").isdigit():
            continue  # header row
        vtx = int(parts[0])
        if not 0 <= vtx < n:
            raise ValueError(f"line {line_no + 1}: vertex {vtx} outside 0..{n - 1}")
        values[vtx] += float(parts[1])
    kind = "signed" if abs(float(values.sum())) <= DEFAULT_TOL_MASS else "probability"
    return Distribution(values=values, kind=kind)
