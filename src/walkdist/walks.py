"""Lazy random walks: transition matrices, the one stepper, and limits.

A walk with laziness ``a`` stays put with probability ``a`` and otherwise
moves to a uniformly random neighbor.  A :class:`Guvab` names a pair of such
walks on one graph: start vertices ``u``, ``v`` and lazinesses
``alpha <= beta``.  The central signed quantity is the difference
``xi_k = mu_k - nu_k`` between the two k-step distributions.  Every walk is
stepped by :func:`walk_states`, one walk or a stack of them at once.

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
from .tolerances import MASS_TOL, PARAM_TOL


@dataclass(frozen=True, eq=False)
class Distribution:
    """Read-only real-valued vector over vertices; every value must be finite.

    :func:`probability_distribution` also checks that the values are
    nonnegative and sum to 1, :func:`signed_distribution` that they sum to 0,
    both within ``MASS_TOL``.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if not np.isfinite(v).all():
            raise InvalidDistributionError("distribution has a non-finite mass")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def probability_distribution(values) -> Distribution:
    v = np.asarray(values, dtype=float)
    if v.min(initial=0.0) < -MASS_TOL:
        raise InvalidDistributionError("probability distribution has negative mass")
    if abs(v.sum() - 1.0) > MASS_TOL:
        raise InvalidDistributionError(
            f"probability mass sums to {v.sum()!r}, expected 1"
        )
    return Distribution(values=v)


def signed_distribution(values) -> Distribution:
    v = np.asarray(values, dtype=float)
    if abs(v.sum()) > MASS_TOL:
        raise InvalidDistributionError(f"signed mass sums to {v.sum()!r}, expected 0")
    return Distribution(values=v)


def point_mass(n: int, vertex: int) -> Distribution:
    if not 0 <= vertex < n:
        raise InvalidVertexError(f"vertex {vertex} outside 0..{n - 1}")
    v = np.zeros(n)
    v[vertex] = 1.0
    return Distribution(values=v)


def zero_distribution(n: int) -> Distribution:
    return Distribution(values=np.zeros(n))


def check_laziness(laziness: float, name: str = "laziness") -> None:
    """Raise :class:`LazinessOutOfRangeError` unless 0 <= laziness <= 1 (NaN fails)."""
    if not 0.0 <= laziness <= 1.0:
        raise LazinessOutOfRangeError(f"{name}={laziness} outside [0, 1]")


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
        check_laziness(self.alpha, "alpha")
        check_laziness(self.beta, "beta")
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


@dataclass(frozen=True)
class TwoStateDist:
    """Distribution of the two-state side-switching chain."""

    p0: float
    p1: float


def transition_matrix(graph: Graph, laziness: float) -> np.ndarray:
    """Read-only row-stochastic one-step matrix of a lazy walk.

    Diagonal entries equal the laziness; each off-diagonal entry is
    (1 - laziness)/deg(i) toward every neighbor.  A single-vertex graph has
    nowhere to move, so its matrix is the 1x1 identity for any laziness.
    """
    check_laziness(laziness)
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
    return mat


def walk_states(p: np.ndarray, start: np.ndarray) -> Iterator[np.ndarray]:
    """Yield start @ p^k for k = 0, 1, 2, ... without end, one product per step.

    ``start`` may be a row vector or a stack of rows (``np.eye(n)`` steps every
    start vertex at once), and ``p`` a stack of transition matrices stepping a
    matching stack of starts; the shapes round differently.
    """
    state = start
    while True:
        yield state
        state = state @ p


def xi_series(guvab: Guvab) -> Iterator[np.ndarray]:
    """Yield xi_k = mu_k - nu_k for k = 0, 1, 2, ... of walks started at u and v."""
    graph = guvab.graph
    mus = walk_states(transition_matrix(graph, guvab.alpha), point_mass(graph.n, guvab.u).values)
    nus = walk_states(transition_matrix(graph, guvab.beta), point_mass(graph.n, guvab.v).values)
    return (mu - nu for mu, nu in zip(mus, nus))


def xi_k(guvab: Guvab, k: int) -> Distribution:
    """Signed difference mu_k - nu_k of the two walks' k-step distributions."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return signed_distribution(next(islice(xi_series(guvab), k, None)))


def stationary_pi(graph: Graph) -> Distribution:
    """Degree-proportional stationary distribution."""
    if graph.n == 1:
        return Distribution(values=np.ones(1))
    deg = np.array(graph.degrees, dtype=float)
    return Distribution(values=deg / deg.sum())


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
    return Distribution(values=tau0), Distribution(values=tau1)


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
    check_laziness(laziness)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    term = 0.5 * (2.0 * laziness - 1.0) ** k
    return TwoStateDist(p0=0.5 + term, p1=0.5 - term)


# -- walk-pair config files -------------------------------------------------------
#
# JSON object with exactly the keys graph (path to a graph text file), u, v,
# alpha and beta.

_CONFIG_KEYS = ("graph", "u", "v", "alpha", "beta")


def load_guvab_config(path) -> Guvab:
    """Load a walk-pair config file.

    A missing or unknown key raises KeyError.  A top level that is not an
    object, a graph path that is not a string, a u or v that is not a JSON
    integer, or an alpha or beta that is not a JSON number raises ValueError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    missing = [key for key in _CONFIG_KEYS if key not in raw]
    if missing:
        raise KeyError(f"config missing keys: {', '.join(missing)}")
    unknown = sorted(key for key in raw if key not in _CONFIG_KEYS)
    if unknown:
        raise KeyError(f"config has unknown keys: {', '.join(unknown)}")
    if not isinstance(raw["graph"], str):
        raise ValueError(f"config graph must be a file path, got {raw['graph']!r}")
    for key in ("u", "v"):
        if isinstance(raw[key], bool) or not isinstance(raw[key], int):
            raise ValueError(f"config {key} must be an integer, got {raw[key]!r}")
    for key in ("alpha", "beta"):
        if isinstance(raw[key], bool) or not isinstance(raw[key], (int, float)):
            raise ValueError(f"config {key} must be a number, got {raw[key]!r}")
    return Guvab(
        graph=load_graph_file(raw["graph"]),
        u=int(raw["u"]),
        v=int(raw["v"]),
        alpha=float(raw["alpha"]),
        beta=float(raw["beta"]),
    )
