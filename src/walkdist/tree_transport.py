"""Tree-ordered mass-settling transport and its optimality inequalities.

Given a spanning tree and the resulting r-monotone vertex ordering
(w_1, ..., w_n), the algorithm settles a zero-sum distribution to zero in
n - 1 steps: step i zeroes w_i, either spreading its nonnegative mass evenly
over graph neighbors with later ordering index or pulling equal shares from
those neighbors when the mass is negative.  Neighbors are taken in the full
graph; the tree only determines the ordering.

Two families of strict inequalities certify optimality of the produced plan:
every later vertex must keep the sign it started with throughout the run
(I1), and adjacent vertices must start with opposite signs (I2).  When both
hold, every unit of mass moves exactly once, so the plan cost equals half
the L1 norm of the input and that value is the exact Wasserstein distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoLaterNeighborError
from .graphs import Graph, ROrdering
from .transport import TransportPlan, _decompose_flows, _require_zero_sum
from .tolerances import STRICT_TOL, ZERO_MASS
from .walks import Distribution


@dataclass(frozen=True)
class Violation:
    """First failing inequality: which family, which step, which vertices."""

    inequality: str  # "I1" or "I2"
    state_index: int | None  # step index i for I1, None for I2
    vertices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class AlgorithmTrace:
    """Full run record: per-step states, per-step transfers, accumulated plan.

    ``states[i]`` is the distribution after i steps (``states[0]`` is the
    input, ``states[n-1]`` is zero).  ``moves[i]`` lists the step's transfers
    as (source, target, mass) with nonnegative mass in the direction mass
    actually moved.  ``plan`` is the path decomposition of all transfers into
    a source-to-target transport plan.
    """

    states: tuple[np.ndarray, ...]
    moves: tuple[tuple[tuple[int, int, float], ...], ...]
    plan: TransportPlan

    @property
    def total_moved(self) -> float:
        """Total mass-distance of the raw transfers (each crosses one edge)."""
        return float(sum(m for step in self.moves for _, _, m in step))


@dataclass(frozen=True)
class InequalityReport:
    holds: bool
    first_violation: Violation | None


def run_tree_transport(graph: Graph, ordering: ROrdering, xi: Distribution) -> AlgorithmTrace:
    """Run the settling algorithm and record every state and transfer.

    Raises :class:`NoLaterNeighborError` if a vertex still holding mass has
    no graph neighbor with a later ordering index; canonical orderings from
    BFS spanning trees are not known to trigger this, but arbitrary orderings
    can.  A vertex holding at most ``ZERO_MASS`` is already settled, so float
    dust triggers no moves while linearity stays intact at test scale.
    """
    values = np.asarray(xi.values, dtype=float)
    _require_zero_sum(values)
    n = graph.n
    order = ordering.order
    pos = ordering.positions()
    state = values.copy()
    states = [state.copy()]
    all_moves: list[tuple[tuple[int, int, float], ...]] = []
    arc_flows: dict[tuple[int, int], float] = {}
    for i in range(n - 1):
        w = order[i]
        mass = float(state[w])
        step_moves: list[tuple[int, int, float]] = []
        if abs(mass) > ZERO_MASS:
            later = [t for t in graph.adjacency[w] if pos[t] > i]
            if not later:
                raise NoLaterNeighborError(step=i + 1, vertex=w)
            share = mass / len(later)
            for t in later:
                state[t] += share
                if share >= 0.0:
                    step_moves.append((w, t, share))
                    _accumulate(arc_flows, w, t, share)
                else:
                    step_moves.append((t, w, -share))
                    _accumulate(arc_flows, t, w, -share)
            state[w] = 0.0
        all_moves.append(tuple(step_moves))
        states.append(state.copy())
    plan = _decompose_flows(n, arc_flows)
    return AlgorithmTrace(states=tuple(states), moves=tuple(all_moves), plan=plan)


def _accumulate(arc_flows: dict[tuple[int, int], float], a: int, b: int, m: float):
    # net signed flow keyed by ordered pair, positive means low -> high
    if a < b:
        arc_flows[(a, b)] = arc_flows.get((a, b), 0.0) + m
    else:
        arc_flows[(b, a)] = arc_flows.get((b, a), 0.0) - m


def check_inequalities(
    graph: Graph, ordering: ROrdering, xi: Distribution, trace: AlgorithmTrace
) -> InequalityReport:
    """Evaluate the optimality inequalities on a recorded run.

    I1 requires xi(w_j) * A_i(xi)(w_j) > 0 for every state index
    i <= n - 2 and every ordering position j > i; I2 requires
    xi(s) * xi(t) < 0 across every edge.  Both are strict: products within
    ``STRICT_TOL`` of zero count as violations.
    """
    values = np.asarray(xi.values, dtype=float)
    order = ordering.order
    n = graph.n
    for i in range(n - 1):
        state = trace.states[i]
        for p in range(i, n):
            w = order[p]
            if values[w] * state[w] <= STRICT_TOL:
                return InequalityReport(
                    holds=False,
                    first_violation=Violation(
                        inequality="I1", state_index=i, vertices=(w,)
                    ),
                )
    for a, b in graph.edges:
        if values[a] * values[b] >= -STRICT_TOL:
            return InequalityReport(
                holds=False,
                first_violation=Violation(
                    inequality="I2", state_index=None, vertices=(a, b)
                ),
            )
    return InequalityReport(holds=True, first_violation=None)


def half_l1(xi: Distribution) -> float:
    """Half the L1 norm of a zero-sum distribution (its total positive mass)."""
    values = np.asarray(xi.values, dtype=float)
    _require_zero_sum(values)
    return 0.5 * float(np.abs(values).sum())


def epsilon_bound(graph: Graph) -> float:
    """Perturbation radius 1/(|V| |E|) inside which the inequalities persist."""
    if graph.edge_count == 0:
        raise ValueError("perturbation radius needs at least one edge")
    return 1.0 / (graph.n * graph.edge_count)


def trace_to_jsonable(trace: AlgorithmTrace) -> dict:
    """Plain-python form of a trace for JSON output."""
    return {
        "states": [[float(x) for x in state] for state in trace.states],
        "moves": [
            [[s, t, float(m)] for s, t, m in step] for step in trace.moves
        ],
        "plan": [[s, t, float(m)] for s, t, m in trace.plan.moves],
        "total_moved": trace.total_moved,
    }
