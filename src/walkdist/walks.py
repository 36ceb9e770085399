"""Lazy random walks: transition matrices, k-step evolution, and limits.

A walk with laziness ``a`` stays put with probability ``a`` and otherwise
moves to a uniformly random neighbor.  A :class:`Guvab` names a pair of such
walks on one graph: start vertices ``u``, ``v`` and lazinesses
``alpha <= beta``.  The central signed quantity is the difference
``xi_k = mu_k - nu_k`` between the two k-step distributions.

Limiting distributions are computed in closed form: the degree-proportional
stationary distribution for mixing walks, the side-supported alternating
limits for laziness-0 walks on bipartite graphs, and frozen point masses for
laziness 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import (
    InvalidDistributionError,
    InvalidVertexError,
    LazinessOrderError,
    LazinessOutOfRangeError,
    NotBipartiteError,
)
from .graphs import Graph, load_graph_file

DEFAULT_TOL_MASS = 1e-9

# Lazinesses within this of 0 or 1 are snapped to exactly 0 or 1 by Guvab, and
# knife-edge comparisons (alpha = beta, beta = 1/2, ...) use the same width.
PARAM_TOL = 1e-12

PROBABILITY = "probability"
SIGNED = "signed"


@dataclass(frozen=True, eq=False)
class Distribution:
    """Real-valued vector over vertices, tagged probability or signed.

    Probability distributions are nonnegative and sum to 1; signed
    distributions sum to 0.  Both checks use a mass tolerance.  Every value
    must be finite, whatever the kind.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if not np.isfinite(v).all():
            raise InvalidDistributionError("distribution has a non-finite mass")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __neg__(self) -> "Distribution":
        return signed_distribution(-self.values)


def probability_distribution(values, tol_mass: float = DEFAULT_TOL_MASS) -> Distribution:
    v = np.asarray(values, dtype=float)
    if v.min(initial=0.0) < -tol_mass:
        raise InvalidDistributionError("probability distribution has negative mass")
    if abs(v.sum() - 1.0) > tol_mass:
        raise InvalidDistributionError(
            f"probability mass sums to {v.sum()!r}, expected 1"
        )
    return Distribution(values=v, kind=PROBABILITY)


def signed_distribution(values, tol_mass: float = DEFAULT_TOL_MASS) -> Distribution:
    v = np.asarray(values, dtype=float)
    if abs(v.sum()) > tol_mass:
        raise InvalidDistributionError(f"signed mass sums to {v.sum()!r}, expected 0")
    return Distribution(values=v, kind=SIGNED)


def point_mass(n: int, vertex: int) -> Distribution:
    if not 0 <= vertex < n:
        raise InvalidVertexError(f"vertex {vertex} outside 0..{n - 1}")
    v = np.zeros(n)
    v[vertex] = 1.0
    return Distribution(values=v, kind=PROBABILITY)


def zero_distribution(n: int) -> Distribution:
    return Distribution(values=np.zeros(n), kind=SIGNED)


@dataclass(frozen=True, eq=False)
class Guvab:
    """A pair of lazy walks on one graph: (graph, u, v, alpha, beta).

    The u-walk has laziness alpha, the v-walk laziness beta, normalized so
    that alpha <= beta.  The ordering is enforced at construction rather than
    silently swapped, keeping the (u, alpha) and (v, beta) pairings fixed.
    A laziness within ``PARAM_TOL`` of 0 or 1 is stored as exactly 0 or 1, so
    every test of a boundary laziness gives one verdict.
    """

    graph: Graph
    u: int
    v: int
    alpha: float
    beta: float

    def __post_init__(self):
        n = self.graph.n
        for name, vtx in (("u", self.u), ("v", self.v)):
            if not 0 <= vtx < n:
                raise InvalidVertexError(f"{name}={vtx} outside 0..{n - 1}")
        for name, laz in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 <= laz <= 1.0:
                raise LazinessOutOfRangeError(f"{name}={laz} outside [0, 1]")
        if self.alpha > self.beta:
            raise LazinessOrderError(
                f"alpha={self.alpha} > beta={self.beta}; walk pairs require alpha <= beta"
            )
        for name in ("alpha", "beta"):
            laz = getattr(self, name)
            if abs(laz) <= PARAM_TOL:
                object.__setattr__(self, name, 0.0)
            elif abs(laz - 1.0) <= PARAM_TOL:
                object.__setattr__(self, name, 1.0)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic one-step matrix of a lazy walk.

    Diagonal entries equal the laziness; each off-diagonal entry is
    (1 - laziness)/deg(i) toward every neighbor.  A single-vertex graph has
    nowhere to move, so its matrix is the 1x1 identity for any laziness.
    """

    entries: np.ndarray
    laziness: float


@dataclass(frozen=True)
class TwoStateDist:
    """Distribution of the two-state side-switching chain."""

    p0: float
    p1: float


def transition_matrix(graph: Graph, laziness: float) -> TransitionMatrix:
    if not 0.0 <= laziness <= 1.0:
        raise LazinessOutOfRangeError(f"laziness={laziness} outside [0, 1]")
    n = graph.n
    mat = np.zeros((n, n))
    for i in range(n):
        deg = graph.degree(i)
        if deg == 0:  # only the single-vertex graph
            mat[i, i] = 1.0
            continue
        mat[i, i] = laziness
        share = (1.0 - laziness) / deg
        for j in graph.adjacency[i]:
            mat[i, j] = share
    mat.setflags(write=False)
    return TransitionMatrix(entries=mat, laziness=laziness)


def k_step(initial: Distribution, matrix: TransitionMatrix, k: int) -> Distribution:
    """Evolve a probability distribution k steps (row-vector convention).

    Uses iterated vector-matrix products rather than matrix powering; O(k n^2)
    and numerically stable at desk scale.
    """
    if initial.kind != PROBABILITY:
        raise InvalidDistributionError("k_step requires a probability distribution")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    v = initial.values
    for _ in range(k):
        v = v @ matrix.entries
    return Distribution(values=v, kind=PROBABILITY)


def pair_states(
    p_alpha: np.ndarray, p_beta: np.ndarray, mu0: np.ndarray, nu0: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (mu_k, nu_k) for k = 0, 1, 2, ... without end, one product per step.

    Starts may be row vectors or stacks of rows (``np.eye(n)`` steps every
    start vertex at once); the two shapes round differently.
    """
    mu, nu = mu0, nu0
    while True:
        yield mu, nu
        mu = mu @ p_alpha
        nu = nu @ p_beta


def xi_k(guvab: Guvab, k: int) -> Distribution:
    """Signed difference mu_k - nu_k of the two walks' k-step distributions."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    graph = guvab.graph
    states = pair_states(
        transition_matrix(graph, guvab.alpha).entries,
        transition_matrix(graph, guvab.beta).entries,
        point_mass(graph.n, guvab.u).values,
        point_mass(graph.n, guvab.v).values,
    )
    mu, nu = next(islice(states, k, None))
    return signed_distribution(mu - nu)


def stationary_pi(graph: Graph) -> Distribution:
    """Degree-proportional stationary distribution."""
    if graph.n == 1:
        return Distribution(values=np.ones(1), kind=PROBABILITY)
    deg = np.array(graph.degrees, dtype=float)
    return Distribution(values=deg / deg.sum(), kind=PROBABILITY)


def tau_distributions(graph: Graph) -> tuple[Distribution, Distribution]:
    """Side-supported limiting distributions of a laziness-0 walk.

    Each vertex on a side carries 2*deg(w)/sum(deg); the pair is returned as
    (side-0 supported, side-1 supported).
    """
    bipartite = graph.bipartite
    if not bipartite.is_bipartite:
        raise NotBipartiteError("tau distributions require a bipartite graph")
    if graph.n == 1:
        raise ValueError("side-limit distributions need at least one edge")
    deg = np.array(graph.degrees, dtype=float)
    weight = 2.0 * deg / deg.sum()
    side = np.array(bipartite.side)
    tau0 = np.where(side == 0, weight, 0.0)
    tau1 = np.where(side == 1, weight, 0.0)
    return (
        Distribution(values=tau0, kind=PROBABILITY),
        Distribution(values=tau1, kind=PROBABILITY),
    )


def walk_parity_limits(
    graph: Graph, start: int, laziness: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (even, odd) limits of a single walk's k-step distribution.

    Laziness 0 on a bipartite graph alternates between the two side-supported
    limits; laziness 1 stays frozen at the start; every other case mixes to
    the stationary distribution.  A single-vertex graph is frozen regardless.
    """
    n = graph.n
    if n == 1 or laziness == 1.0:
        frozen = point_mass(n, start).values
        return frozen, frozen
    if laziness == 0.0 and graph.bipartite.is_bipartite:
        tau0, tau1 = tau_distributions(graph)
        taus = (tau0.values, tau1.values)
        s = graph.bipartite.side[start]
        return taus[s], taus[1 - s]
    pi = stationary_pi(graph).values
    return pi, pi


def limit_xi(guvab: Guvab) -> tuple[Distribution, Distribution]:
    """Closed-form limits of xi along even and odd steps.

    Exact up to formula arithmetic; iteration is only ever used as a
    cross-check, never to produce these values.
    """
    mu_even, mu_odd = walk_parity_limits(guvab.graph, guvab.u, guvab.alpha)
    nu_even, nu_odd = walk_parity_limits(guvab.graph, guvab.v, guvab.beta)
    return (
        signed_distribution(mu_even - nu_even),
        signed_distribution(mu_odd - nu_odd),
    )


def two_state_closed_form(laziness: float, k: int) -> TwoStateDist:
    """Exact distribution of the two-state chain after k steps.

    p0 = 0.5 + 0.5*(2a - 1)^k, started in state 0 with stay-probability a.
    """
    if not 0.0 <= laziness <= 1.0:
        raise LazinessOutOfRangeError(f"laziness={laziness} outside [0, 1]")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    term = 0.5 * (2.0 * laziness - 1.0) ** k
    return TwoStateDist(p0=0.5 + term, p1=0.5 - term)


# -- walk-pair config files -------------------------------------------------------
#
# JSON object with keys: graph (path to a graph text file), u, v, alpha, beta;
# optional tol_mass and tol_gap.

def load_guvab_config(path) -> tuple[Guvab, dict]:
    """Load a walk-pair config file; returns (Guvab, tolerance overrides)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    missing = [key for key in ("graph", "u", "v", "alpha", "beta") if key not in raw]
    if missing:
        raise KeyError(f"config missing keys: {', '.join(missing)}")
    graph = load_graph_file(raw["graph"])
    guvab = Guvab(
        graph=graph,
        u=int(raw["u"]),
        v=int(raw["v"]),
        alpha=float(raw["alpha"]),
        beta=float(raw["beta"]),
    )
    tols = {key: float(raw[key]) for key in ("tol_mass", "tol_gap") if key in raw}
    return guvab, tols
