"""Exact Wasserstein-1 distance on a graph via min-cost flow.

The cost of moving one unit of mass across one edge is 1, and the transport
cost between vertices is the shortest-path distance.  Because that distance
IS the path metric, the transportation problem is equivalent to a min-cost
flow on the graph itself: every undirected edge becomes two unit-cost arcs of
unbounded capacity, and the signed distribution xi provides the supplies.

The solver is primal-dual (Ahuja, Magnanti & Orlin, *Network Flows*, ch. 9).
Integer node potentials keep every residual arc's reduced cost nonnegative.
A phase runs one Dijkstra from all sources at once and raises the potentials
so the shortest paths to the nearest sink cost 0; blocking flows (BFS levels,
then depth-first search with current-arc pointers, as in Dinic's max-flow)
then route all they can along zero-reduced-cost arcs before the next phase.
With costs of +-1 there are about as many phases as the graph's diameter
(Essid & Solomon, SIAM J. Sci. Comput. 2018), not one shortest-path search
per augmentation.  Real-valued supplies are fine: each augmentation empties
a source, fills a sink or cancels an arc's flow exactly.

A solve may start from any integer potential that steps by at most 1 across
each edge, and the final potential of every solve is one.  Along a W_k
series the potential of the solve two steps back is nearly optimal already,
since each parity subsequence converges, so a series solve
(``_series_flow_values``) mostly skips straight to its blocking flows.

A series step with one source or one sink needs no solve: all mass must
travel from that source or to that sink, so the value is a sum of masses
times distances from one vertex, taken with ``math.fsum``.  Such values are
exact up to the rounding of each product: the solver's dust rule (``DUST``)
strands no mass in them.  Every step of a frozen-target series (beta = 1,
so nu_k is a point mass) is of this kind.

The final potentials give a 1-Lipschitz dual certificate with zero duality
gap up to floating point, and the optimal arc flows, which are acyclic,
decompose into a sparse source-to-target plan whose paths are all geodesics.

An independent brute-force oracle maximizes the dual objective over every
integer-valued vertex function that changes by at most 1 across each edge.
The feasible polytope has integral corners (its constraint matrix is a graph
incidence matrix), so the integer maximum equals the true distance; the
oracle shares no code with the flow solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotLipschitzError, TooLargeError, UnbalancedMassError
from .graphs import Graph, Metric
from .tolerances import DUST, LIPSCHITZ_TOL, MASS_TOL
from .walks import Distribution

ORACLE_MAX_VERTICES = 8


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


def _require_zero_sum(values: np.ndarray) -> None:
    total = float(values.sum())
    if abs(total) > MASS_TOL:
        raise UnbalancedMassError(f"mass imbalance {total!r} exceeds {MASS_TOL!r}")


def _flow_value(graph: Graph, supply: np.ndarray) -> float:
    """Optimal transport value only (no plan or dual extraction)."""
    flows, _ = _min_cost_flow(graph, supply)
    return float(sum(map(abs, flows)))


def _point_sided(graph: Graph, supply: np.ndarray):
    """(value, optimal potential) of a supply with one source or one sink, else None.

    With one source u (the only entry above 0) all mass must travel from u,
    so the value is ``sum_x max(-supply[x], 0) * d(x, u)``.  The dual
    ``ell = -min(d(., u), r)``, with r the distance from u to its farthest
    sink, reaches the same objective: a zero gap.  For ``delta_u - delta_v``
    it is the potential a cold flow solve ends with, so the solve two steps
    later starts where it would have.  One sink v mirrors this with
    ``ell = min(d(., v), r)``.  A supply without a source or a sink moves
    nothing.
    """
    sources = np.flatnonzero(supply > 0.0)
    sinks = np.flatnonzero(supply < 0.0)
    if not (len(sources) and len(sinks)):
        return 0.0, np.zeros(graph.n, dtype=np.int64)
    if len(sources) == 1:
        point, far, sign = sources[0], sinks, -1
    elif len(sinks) == 1:
        point, far, sign = sinks[0], sources, 1
    else:
        return None
    row = graph.distances_from(int(point))
    value = math.fsum((np.maximum(sign * supply, 0.0) * row).tolist())
    return value, -sign * np.minimum(row, row[far].max())


def _series_flow_values(graph: Graph, supplies):
    """Optimal values of a series of supplies on one graph, in order.

    A supply with one sink or one source takes the closed form of
    :func:`_point_sided`; every other one is a flow solve that starts from
    the optimal potential of the supply two steps back: along a converging
    W_k series xi_k is close to xi_{k-2}, while one step back can sit on the
    other side of a bipartite graph when alpha = 0.
    """
    starts = [None, None]
    for i, supply in enumerate(supplies):
        closed = _point_sided(graph, supply)
        if closed is None:
            flows, starts[i % 2] = _min_cost_flow(graph, supply, starts[i % 2])
            yield float(sum(map(abs, flows)))
        else:
            value, starts[i % 2] = closed
            yield value


def _min_cost_flow(graph: Graph, supply: np.ndarray, start=None):
    """Primal-dual min-cost flow; returns (net edge flows, node potentials).

    ``flows[e]`` is the net flow on ``graph.edges[e] = (a, b)``, positive
    when it moves a -> b.  Every edge offers a unit-cost arc each way and,
    against flow above ``DUST``, a cost -1 arc capped by the flow it cancels.
    Reduced costs ``cost + pot[a] - pot[b]`` stay nonnegative throughout, so
    every arc carrying flow is tight and the flow stays acyclic.

    Each phase runs one Dijkstra on reduced costs from every source (balance
    above ``DUST``), stopped at the nearest sink (balance below ``-DUST``) at
    distance D, and raises each potential by its distance capped at D.
    Blocking flows then route supply along zero-reduced-cost arcs until the
    sources are empty or cut off from the sinks; only then does the next
    phase run.  Costs are +-1, so potentials stay integers and "reduced cost
    0" is an exact test.  The run stops when no source is left or no sink
    can be reached.

    ``start`` is an integer potential that steps by at most 1 across every
    edge (default all 0): with no flow yet every arc costs +1, so these are
    exactly the potentials that keep every reduced cost nonnegative.  The
    final potential of any solve qualifies, since both arcs of every edge
    have nonnegative reduced cost when it returns.
    """
    n = graph.n
    arcs = graph.arcs
    balance = np.asarray(supply, dtype=float).tolist()
    pot = [0] * n if start is None else [int(p) for p in start]
    flow = [0.0] * (2 * graph.edge_count)  # by arc id; flow[2e + 1] == -flow[2e]
    sources = [v for v in range(n) if balance[v] > DUST]
    new_phase = True
    for _ in range(10 * n * n + 100):
        if not sources:
            return flow[0::2], pot
        if new_phase:
            dist, reach = _nearest_sink(arcs, flow, balance, pot, sources)
            if reach < 0:
                return flow[0::2], pot
            if reach:
                pot = [p + (d if d < reach else reach) for p, d in zip(pot, dist)]
        new_phase = not _blocking_flow(arcs, flow, balance, pot, sources)
        sources = [v for v in sources if balance[v] > DUST]
    raise RuntimeError("min-cost flow failed to settle supplies")  # pragma: no cover


def _nearest_sink(arcs, flow, balance, pot, sources):
    """Dijkstra on reduced costs from every source, stopped at the nearest
    sink; returns (distances, that sink's distance, or -1 if none is reached).

    Reduced costs are 0, 1 or 2, so a list of buckets serves as the queue.
    Every vertex closer than the sink is settled when the search stops, and
    the others hold a distance at least the sink's.
    """
    far = 3 * len(pot)  # beyond any reduced distance
    dist = [far] * len(pot)
    for s in sources:
        dist[s] = 0
    buckets = [list(sources)]
    d = 0
    while d < len(buckets):
        for a in buckets[d]:
            if dist[a] != d:
                continue  # settled earlier at a smaller distance
            if balance[a] < -DUST:
                return dist, d
            base = d + 1 + pot[a]
            for b, arc in arcs[a]:
                # an arc cancelling flow is tight: its reduced cost is 0
                nd = d if flow[arc] < -DUST else base - pot[b]
                if nd < dist[b]:
                    dist[b] = nd
                    while len(buckets) <= nd:
                        buckets.append([])
                    buckets[nd].append(b)
        d += 1
    return dist, -1


def _blocking_flow(arcs, flow, balance, pot, sources) -> bool:
    """Route supply along zero-reduced-cost arcs until every such path from
    a source to a sink in the BFS level graph is cut (Dinic); returns False
    when the level graph reaches no sink.

    An arc is admissible when it cancels flow (such arcs are tight) or
    raises the potential by exactly 1.  Each augmentation empties a source,
    fills a sink or cancels an arc's flow, each exactly, so pushing a
    rounded amount leaves no residue behind.
    """
    level = [-1] * len(pot)
    for s in sources:
        level[s] = 0
    queue = list(sources)
    reached = False
    for a in queue:
        up = pot[a] + 1
        next_level = level[a] + 1
        for b, arc in arcs[a]:
            if level[b] < 0 and (flow[arc] < -DUST or pot[b] == up):
                level[b] = next_level
                queue.append(b)
                reached = reached or balance[b] < -DUST
    if not reached:
        return False
    ptr = [0] * len(pot)  # current arc of each vertex
    for src in sources:
        while balance[src] > DUST:
            found = _level_path(arcs, flow, balance, pot, level, ptr, src)
            if found is None:
                break
            sink, used = found
            amount = min(balance[src], -balance[sink])
            for arc in used:
                if flow[arc] < -DUST and -flow[arc] < amount:
                    amount = -flow[arc]
            for arc in used:
                flow[arc] += amount
                flow[arc ^ 1] -= amount
            balance[src] -= amount
            balance[sink] += amount
    return True


def _level_path(arcs, flow, balance, pot, level, ptr, src):
    """Depth-first search from src along admissible arcs that go one level
    deeper, to the first sink; returns (sink, arc ids) or None.

    Vertices found to be dead ends leave the level graph, and ``ptr`` keeps
    each vertex's scan position across the searches of one blocking flow.
    """
    path = [src]
    used: list[int] = []
    v = src
    while balance[v] >= -DUST:
        out = arcs[v]
        i = ptr[v]
        up = pot[v] + 1
        deeper = level[v] + 1
        while i < len(out):
            b, arc = out[i]
            if level[b] == deeper and (flow[arc] < -DUST or pot[b] == up):
                break
            i += 1
        ptr[v] = i
        if i < len(out):
            path.append(b)
            used.append(arc)
            v = b
            continue
        level[v] = -1
        if v == src:
            return None
        path.pop()
        used.pop()
        v = path[-1]
    return v, used


def _decompose_flows(n: int, arc_flows: dict[tuple[int, int], float]) -> TransportPlan:
    """Path-decompose acyclic arc flows into a (source, target) plan.

    Works for any arc flow whose positive-flow arcs contain no directed
    cycle; both the min-cost solver and the tree-based transport algorithm
    produce such flows.  Arcs carrying at most ``DUST`` are dropped, and
    supplies and demands are the divergence of the arcs that are kept.  A
    path that reaches a dead end (what is left there is split over arcs that
    each carry dust) drops that residue instead of routing it, so a vertex's
    marginals differ from the flow's divergence by dust only.
    """
    remaining: dict[tuple[int, int], float] = {}
    for (a, b), f in arc_flows.items():
        if f > DUST:
            remaining[(a, b)] = f
        elif f < -DUST:
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
        src = next((i for i, s in enumerate(supply_rem) if s > DUST), -1)
        if src < 0:
            break
        path = [src]
        v = src
        while v == src or demand_rem[v] <= DUST:
            v = next(
                (w for w in out.get(v, ()) if remaining.get((v, w), 0.0) > DUST), -1
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


def wasserstein(xi: Distribution, graph: Graph) -> TransportResult:
    """Exact Wasserstein distance from xi to the zero distribution.

    Returns the optimal value together with a sparse plan (row marginals the
    positive part of xi, column marginals the negative part) and a
    1-Lipschitz dual potential achieving the same objective.  The positive
    part is transported to the negative part directly, so no nonnegative
    shift is ever materialized.
    """
    values = np.asarray(xi.values, dtype=float)
    _require_zero_sum(values)
    n = graph.n
    if float(np.abs(values).max(initial=0.0)) <= DUST:
        return TransportResult(
            value=0.0,
            plan=TransportPlan(moves=()),
            potential=DualPotential(ell=np.zeros(n)),
        )
    flows, pot = _min_cost_flow(graph, values)
    value = float(sum(map(abs, flows)))
    plan = _decompose_flows(n, dict(zip(graph.edges, flows)))
    ell = -np.array(pot)
    anchor = int(np.argmax(values))
    ell -= ell[anchor]
    return TransportResult(value=value, plan=plan, potential=DualPotential(ell=ell))


def wasserstein_between(mu: Distribution, nu: Distribution, graph: Graph) -> TransportResult:
    """Wasserstein distance between two equal-mass distributions.

    Reduces to the signed problem on mu - nu; shifting both inputs by the
    same distribution leaves the answer unchanged.
    """
    total_mu = float(mu.values.sum())
    total_nu = float(nu.values.sum())
    if abs(total_mu - total_nu) > MASS_TOL:
        raise UnbalancedMassError(
            f"mass mismatch: sum(mu)={total_mu!r} vs sum(nu)={total_nu!r}"
        )
    diff = Distribution(values=mu.values - nu.values)
    return wasserstein(diff, graph)


def cost_of_plan(plan: TransportPlan, metric: Metric) -> float:
    """Total mass-weighted distance of a plan."""
    return float(sum(m * metric.dist[s, t] for s, t, m in plan.moves))


def dual_value(potential: DualPotential, xi: Distribution, graph: Graph | None = None) -> float:
    """Dual objective sum(ell * xi); validates edge constraints when a graph is given."""
    ell = potential.ell
    if graph is not None:
        for a, b in graph.edges:
            gap = abs(float(ell[a] - ell[b]))
            if gap > 1.0 + LIPSCHITZ_TOL:
                raise NotLipschitzError(
                    f"|ell[{a}] - ell[{b}]| = {gap!r} exceeds 1 on an edge"
                )
    return float(np.dot(ell, xi.values))


def wasserstein_oracle(xi: Distribution, graph: Graph) -> float:
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
    _require_zero_sum(values)
    return float(corner_values(values, graph.corners))


def corner_values(xi: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Wasserstein distance of each zero-sum vector along xi's last axis.

    ``max over corners ell of ell . xi``, with ``corners`` from
    :attr:`Graph.corners`.  Batched over any leading axes; the dot products
    are taken with xi itself (not as a difference of two dot products), so a
    small distance keeps its relative accuracy.
    """
    flat = np.reshape(xi, (-1, xi.shape[-1]))
    # corners first: the max then runs across rows, far faster than along a short last axis
    return (corners @ flat.T).max(axis=0).reshape(xi.shape[:-1])


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
    """Parse 'vertex,mass' CSV rows into a Distribution.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line may be a header.

    Any finite real masses are accepted.  Mass-balance preconditions are
    enforced by the transport operations, not here.
    """
    values = np.zeros(n)
    first = True
    for line_no, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {line_no + 1}: expected 'vertex,mass', got {line!r}")
        if first:
            first = False
            if not parts[0].strip().lstrip("-").isdigit():
                continue  # header row
        vtx = int(parts[0])
        if not 0 <= vtx < n:
            raise ValueError(f"line {line_no + 1}: vertex {vtx} outside 0..{n - 1}")
        values[vtx] += float(parts[1])
    return Distribution(values=values)
