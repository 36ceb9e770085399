"""Limit classification, constancy prediction, spectra, and rate fitting.

Every walk pair falls into exactly one of four limit categories:

* ``W1``    - both lazinesses 0 on a bipartite graph with u, v at odd
              distance; the distance converges to 1 and is eventually
              constant.
* ``W_HALF`` - laziness pair (0, beta) with 0 < beta < 1 on a bipartite
              graph; the distance converges to 1/2 at rate |1 - 2 beta|.
* ``W0``    - the walks mix to a common limit; the distance converges to 0.
* ``BETA1`` - the second walk is frozen (beta = 1); the distance can
              converge to any constant, or oscillate between two values
              when the graph is bipartite, alpha = 0, and the signed
              degree-distance sum at v is nonzero.

All limits are computed in closed form; simulation is used only to
cross-check.  The parity expansion writes every dual corner's objective
along each parity of k as an exact sum of powers of squared eigenvalues of
the two transition matrices, so the limits, the per-step decay rates (each
an eigenvalue modulus) and eventual constancy can be read from it exactly.
It needs the graph's corners, so it serves small graphs; on larger ones a
least-squares fit of |W_k - limit| on one parity class estimates the rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BetaOneError,
    EventuallyConstantError,
    TooFewPointsError,
    WrongCategoryError,
)
from .graphs import Graph
from .tolerances import (
    PARAM_TOL, RATE_FLOOR, RATE_WINDOW_HIGH, RATE_WINDOW_LOW, UNIT_MODULUS_TOL, W_TOL
)
from .transport import _series_flow_values
from .walks import Guvab, check_laziness, stationary_pi, xi_series

RHO_CONFIRM_K = 50  # steps W_k must stay at 1 past the onset rho_bounds reports
RHO_MAX_K = 400  # last step rho_bounds computes
RATE_WINDOW_POINTS = 12  # latest in-window points rate_fit_window keeps


class Category(enum.Enum):
    W1 = "W1"
    W_HALF = "W_HALF"
    W0 = "W0"
    BETA1 = "BETA1"


@dataclass(frozen=True)
class ClassificationReport:
    """Predicted limiting behavior of a walk pair.

    ``constancy_predicted`` is None when beta = 1 and no decidable criterion
    applies (frozen pairs and distance-level-symmetric pairs are recognized;
    anything else is left undecided rather than guessed).
    """

    category: Category
    converges: bool
    limit_even: float
    limit_odd: float
    limit: float | None
    constancy_predicted: bool | None
    constancy_reason: str | None
    divergence_sum: float | None

    def to_jsonable(self) -> dict:
        return {
            "category": self.category.value,
            "converges": self.converges,
            "limit_even": self.limit_even,
            "limit_odd": self.limit_odd,
            "limit": self.limit,
            "constancy_predicted": self.constancy_predicted,
            "constancy_reason": self.constancy_reason,
            "divergence_sum": self.divergence_sum,
        }


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigenvalues of both transition matrices and their sub-unit radius."""

    eigs_alpha: np.ndarray
    eigs_beta: np.ndarray
    lambda_max: float


@dataclass(frozen=True)
class RhoBounds:
    """Bounds on the first index from which the distance is constantly 1."""

    lower: float
    upper: float
    empirical: int | None


@dataclass(frozen=True)
class RateEstimate:
    """Fitted exponential |W_k - limit| ~ c * lam^k on one parity class."""

    c: float
    lam: float
    parity: str  # "even" or "odd"
    residual: float


def _near(x: float, y: float) -> bool:
    return abs(x - y) <= PARAM_TOL


def divergence_sum(graph: Graph, v: int) -> float:
    """Signed degree-distance sum at v: sum over w of (-1)^d(v,w) d(v,w) deg(w).

    Nonzero exactly when a frozen-walk pair with alpha = 0 on a bipartite
    graph has different even and odd limits.
    """
    total = 0.0
    for w, d in enumerate(graph.distances_from(v).tolist()):
        total += (-1.0 if d % 2 else 1.0) * d * graph.degree(w)
    return total


def _point_to_side_limit(graph: Graph, v: int, side: int) -> float:
    """Distance from a point mass at v to the side-supported limit: all of the
    side's mass must travel to v, so the value is (2/sum deg) * sum of
    d(v, w) deg(w) over the side."""
    deg_sum = 2.0 * graph.edge_count
    dist_v = graph.distances_from(v)
    total = sum(
        dist_v[w] * graph.degree(w)
        for w in range(graph.n)
        if graph.bipartite.side[w] == side
    )
    return float(2.0 * total / deg_sum)


def _point_to_pi_limit(graph: Graph, v: int) -> float:
    """Distance from the stationary distribution to a point mass at v."""
    pi = stationary_pi(graph).values
    return float(np.dot(pi, graph.distances_from(v)))


def _converges_to_zero(graph: Graph, u: int, v: int, alpha: float, beta: float) -> bool:
    """Does the distance converge to 0 (beta < 1 cases)?"""
    bip = graph.bipartite
    if 0.0 < alpha <= beta < 1.0:
        return True
    if not bip.is_bipartite and alpha == 0.0 and beta < 1.0:
        return True
    if alpha == 0.0 and beta == 0.0:
        # an even-length u-v path exists iff same side (or any odd cycle)
        return not bip.is_bipartite or bip.side[u] == bip.side[v]
    return False


def classify(guvab: Guvab) -> ClassificationReport:
    """Closed-form category, parity limits, and constancy verdict.

    Single-vertex graphs are frozen by structure and classified directly;
    the general criteria assume walks that can actually move.
    """
    graph, u, v = guvab.graph, guvab.u, guvab.v
    alpha, beta = guvab.alpha, guvab.beta
    bip = graph.bipartite
    div_sum: float | None = None

    if graph.n == 1:
        category = Category.BETA1 if beta == 1.0 else Category.W0
        limit_even = limit_odd = 0.0
    elif beta == 1.0:
        category = Category.BETA1
        if alpha == 1.0:
            limit_even = limit_odd = float(graph.distances_from(v)[u])
        elif alpha == 0.0 and bip.is_bipartite:
            s = bip.side[u]
            limit_even = _point_to_side_limit(graph, v, s)
            limit_odd = _point_to_side_limit(graph, v, 1 - s)
            div_sum = divergence_sum(graph, v)
        else:
            limit_even = limit_odd = _point_to_pi_limit(graph, v)
    elif _converges_to_zero(graph, u, v, alpha, beta):
        category = Category.W0
        limit_even = limit_odd = 0.0
    elif alpha == 0.0 and beta == 0.0:
        # bipartite with u, v on opposite sides, i.e. odd distance
        category = Category.W1
        limit_even = limit_odd = 1.0
    else:
        # 0 = alpha < beta < 1 on a bipartite graph
        category = Category.W_HALF
        limit_even = limit_odd = 0.5

    converges = abs(limit_even - limit_odd) <= W_TOL
    limit = limit_even if converges else None

    if graph.n == 1:
        predicted, reason = True, "single-vertex graph: both walks are frozen"
    elif beta < 1.0:
        predicted, reason = predict_constancy(guvab)
    elif alpha == 1.0:
        predicted, reason = True, "both walks frozen: distance is d(u, v) forever"
    elif detect_gluvab(guvab):
        predicted, reason = True, "distance-level symmetry about u keeps the mean fixed"
    else:
        predicted, reason = None, "no decidable constancy criterion for beta = 1"

    return ClassificationReport(
        category=category,
        converges=converges,
        limit_even=float(limit_even),
        limit_odd=float(limit_odd),
        limit=None if limit is None else float(limit),
        constancy_predicted=predicted,
        constancy_reason=reason,
        divergence_sum=div_sum,
    )


def predict_constancy(guvab: Guvab) -> tuple[bool, str | None]:
    """Exact characterization of eventual constancy for beta < 1.

    Returns (flag, matched clause).  The five clauses are mutually
    complementary over the three beta < 1 categories; beta = 1 raises since
    no full characterization exists there.
    """
    if guvab.beta == 1.0:
        raise BetaOneError("constancy characterization requires beta < 1")
    graph, u, v = guvab.graph, guvab.u, guvab.v
    alpha, beta = guvab.alpha, guvab.beta
    if graph.n == 1:
        return True, "single-vertex graph: both walks are frozen"
    bip = graph.bipartite
    if alpha == 0.0 and beta == 0.0:
        # on a connected bipartite graph d(u, v) is odd iff u and v lie on opposite sides
        if bip.is_bipartite and bip.side[u] != bip.side[v]:
            return True, "lazinesses 0 on a bipartite graph with odd u-v distance"
        if graph.adjacency[u] == graph.adjacency[v]:
            return True, "lazinesses 0 with identical neighborhoods"
    if alpha == 0.0 and _near(beta, 0.5) and bip.is_bipartite:
        return True, "laziness pair (0, 1/2) on a bipartite graph"
    share = 1.0 / (graph.degree(u) + 1)
    if (
        _near(alpha, beta)
        and _near(alpha, share)
        and v in graph.adjacency[u]
        and set(graph.adjacency[u]) - {v} == set(graph.adjacency[v]) - {u}
    ):
        return True, "laziness 1/(deg u + 1) on an edge with shared other neighbors"
    if _near(alpha, beta) and u == v:
        return True, "identical walks"
    return False, None


def detect_gluvab(guvab: Guvab) -> bool:
    """Frozen-target pairs whose distance levels around v are symmetric.

    Requires beta = 1; u exactly halfway to the farthest vertex from v;
    every farthest vertex with all neighbors strictly closer; and every
    intermediate vertex with exactly half its neighbors closer and half
    farther.  Such pairs keep W_k constant from k = 0.
    """
    if guvab.beta != 1.0:
        return False
    graph, u, v = guvab.graph, guvab.u, guvab.v
    dist_v = graph.distances_from(v)
    radius = int(dist_v.max())
    if 2 * int(dist_v[u]) != radius:
        return False
    for x in range(graph.n):
        d = int(dist_v[x])
        neighbor_ds = [int(dist_v[w]) for w in graph.adjacency[x]]
        if d == radius and d > 0:
            if any(nd >= d for nd in neighbor_ds):
                return False
        elif 0 < d < radius:
            closer = sum(1 for nd in neighbor_ds if nd < d)
            farther = sum(1 for nd in neighbor_ds if nd > d)
            if closer != farther or closer + farther != len(neighbor_ds):
                return False
    return True


def _normalized_adjacency(graph: Graph) -> np.ndarray:
    """D^{-1/2} A D^{-1/2}: symmetric, and similar to the walk matrix D^{-1} A."""
    deg = np.array(graph.degrees, dtype=float)
    adj = np.zeros((graph.n, graph.n))
    for a, b in graph.edges:
        adj[a, b] = adj[b, a] = 1.0
    return adj / np.sqrt(np.outer(deg, deg))


def spectrum(graph: Graph, laziness: float) -> np.ndarray:
    """Eigenvalues of the lazy transition matrix, ascending.

    The walk matrix is similar to the symmetric matrix
    D^{-1/2} A D^{-1/2}, so its spectrum is real; laziness rescales it
    affinely to a + (1 - a) * eig.
    """
    check_laziness(laziness)
    if graph.n == 1:
        return np.array([1.0])
    base = np.linalg.eigvalsh(_normalized_adjacency(graph))
    return np.sort(laziness + (1.0 - laziness) * base)


def parity_expansion(graph: Graph, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact expansion of every corner's dual objective along each parity.

    With D^{-1/2} A D^{-1/2} = Q diag(lam) Q^T, L = D^{-1/2} Q, R = D^{1/2} Q
    and r = a + (1 - a) lam, a walk from u has mu_k = sum_i L[u, i] r_i^k R[:, i].
    So for the alpha walk from u, the beta walk from v, the corners C
    (``graph.corners``) and k = 2j + p,
    ``<C[c], xi_k> = sum_g coef[p, u, v, g, c] * bases[g]**j``.  The bases are
    both walks' squares r^2, descending from ``bases[0] = 1``; squares within
    ``UNIT_MODULUS_TOL`` are one base, and a zero base is kept so that the
    expansion also reproduces k = 0.
    """
    corners = graph.corners
    if graph.n == 1:
        return np.ones(1), np.zeros((2, 1, 1, 1, len(corners)))
    lam, q = np.linalg.eigh(_normalized_adjacency(graph))
    root = np.sqrt(np.array(graph.degrees, dtype=float))
    laz = np.array([[alpha], [beta]])
    r = laz + (1.0 - laz) * lam  # [walk, i]
    squares = r.ravel() ** 2
    bases: list[float] = []
    group = np.empty(squares.size, dtype=int)
    for i in np.argsort(-squares, kind="stable"):
        if not bases or bases[-1] - squares[i] > UNIT_MODULUS_TOL:
            bases.append(float(squares[i]))
        group[i] = len(bases) - 1
    bases[0] = 1.0
    if bases[-1] <= UNIT_MODULUS_TOL:
        bases[-1] = 0.0
    onehot = np.eye(len(bases))[group].reshape(2, graph.n, len(bases))  # [walk, i, g]
    powers = np.stack([np.ones_like(r), r], axis=1)  # [walk, p, i]: r^0 and r^1
    left = powers[:, :, None, :] * (q / root[:, None])  # [walk, p, u, i]
    right = corners @ (q * root[:, None])
    walk = [np.einsum("pui,ig,ci->pugc", left[w], onehot[w], right) for w in (0, 1)]
    return np.array(bases), walk[0][:, :, None] - walk[1][:, None, :]


def parity_asymptotics(bases: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Limit and per-step decay rate of W along each parity, indexed [p, u, v].

    ``W_{2j+p} = max over corners of sum_g coef[p, u, v, g, c] * bases[g]**j``
    is eventually the corner whose coefficient vector is lexicographically
    largest, largest base first; its constant term is the parity limit, and
    its first nonzero later term gives the rate sqrt(bases[g]).  Rate 0 means
    no such term: the subsequence is eventually constant.  Ties and zeros
    are decided at ``W_TOL``; zero bases only show at k = 0 and are skipped.
    """
    alive = np.ones(coef.shape[:3] + coef.shape[4:], dtype=bool)
    rate = np.zeros(coef.shape[:3])
    for g in np.flatnonzero(bases > 0.0):
        terms = np.where(alive, coef[..., g, :], -np.inf)
        top = terms.max(axis=-1)
        if g == 0:
            limit = top
        else:
            rate[(rate == 0.0) & (np.abs(top) > W_TOL)] = math.sqrt(bases[g])
        alive &= terms >= top[..., None] - W_TOL
    return limit, rate


def spectral_data(guvab: Guvab) -> SpectralData:
    """Spectra of both walk matrices and the largest sub-unit modulus."""
    eigs_a = spectrum(guvab.graph, guvab.alpha)
    eigs_b = spectrum(guvab.graph, guvab.beta)
    moduli = np.abs(np.concatenate([eigs_a, eigs_b]))
    below_one = moduli[moduli < 1.0 - UNIT_MODULUS_TOL]
    lam = float(below_one.max()) if below_one.size else 0.0
    return SpectralData(eigs_alpha=eigs_a, eigs_beta=eigs_b, lambda_max=lam)


def rho_bounds(guvab: Guvab) -> RhoBounds:
    """Bounds and empirical value of the constancy onset in the W1 category.

    Lower bound d(u,v)/2 - 1 (mass supports too far apart earlier); upper
    bound 10 ln|V| / (1 - lambda_max^2) from the mixing rate.  The empirical
    value is the first index N with W_k = 1 (within ``W_TOL``) for every
    sampled k in [N, N + RHO_CONFIRM_K]; None if no such window fits within
    ``RHO_MAX_K`` steps.
    """
    report = classify(guvab)
    if report.category is not Category.W1:
        raise WrongCategoryError(
            f"constancy-onset bounds need category W1, got {report.category.value}"
        )
    lower = float(guvab.graph.distances_from(guvab.v)[guvab.u]) / 2.0 - 1.0
    lambda_max = spectral_data(guvab).lambda_max
    upper = 10.0 * math.log(guvab.graph.n) / (1.0 - lambda_max**2)
    horizon = min(RHO_MAX_K, int(math.ceil(upper)) + RHO_CONFIRM_K + 2)
    series = wk_series(guvab, horizon)
    flat = [abs(w - 1.0) <= W_TOL for _, w in series]
    empirical: int | None = None
    idx = len(flat)
    while idx > 0 and flat[idx - 1]:
        idx -= 1
    if idx + RHO_CONFIRM_K <= horizon:
        empirical = idx
    return RhoBounds(lower=lower, upper=upper, empirical=empirical)


def wk_series(guvab: Guvab, k_max: int) -> list[tuple[int, float]]:
    """Wasserstein distance between the two walks' distributions for k = 0..k_max."""
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    ws = _series_flow_values(guvab.graph, islice(xi_series(guvab), k_max + 1))
    return list(enumerate(ws))


def one_step_constancy_check(guvab: Guvab, k_max: int = 40) -> bool:
    """Decidable constancy test for the W0 and BETA1 categories.

    In these categories an eventually constant distance is constant already
    from k = 1, so equality of W_1..W_{k_max} decides constancy in both
    directions (a decaying sequence cannot stay within ``W_TOL`` that long).
    """
    report = classify(guvab)
    if report.category not in (Category.W0, Category.BETA1):
        raise WrongCategoryError(
            f"one-step constancy check needs W0 or BETA1, got {report.category.value}"
        )
    ws = _series_flow_values(guvab.graph, islice(xi_series(guvab), 1, max(k_max, 1) + 1))
    w1 = next(ws)
    return all(abs(w - w1) <= W_TOL for w in ws)


def fit_rate(series: list[tuple[int, float]], limit: float, parity: str) -> RateEstimate:
    """Least-squares exponential fit of |W_k - limit| on one parity class.

    Fits log-error against k over the points above ``RATE_FLOOR``;
    returns the per-step factor lam = exp(slope), prefactor c =
    exp(intercept), and the RMS log-residual.  Raises EventuallyConstant when
    every residual sits below the floor and TooFewPoints below 6 usable
    points.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    want = 0 if parity == "even" else 1
    pts = [(k, abs(w - limit)) for k, w in series if k >= 1 and k % 2 == want]
    usable = [(k, e) for k, e in pts if e > RATE_FLOOR]
    if pts and not usable:
        raise EventuallyConstantError(
            "all residuals below the numerical floor; no rate to fit"
        )
    if len(usable) < 6:
        raise TooFewPointsError(f"need at least 6 usable points, got {len(usable)}")
    ks = np.array([k for k, _ in usable], dtype=float)
    log_err = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(ks, log_err, 1)
    fitted = slope * ks + intercept
    residual = float(np.sqrt(np.mean((log_err - fitted) ** 2)))
    return RateEstimate(
        c=float(np.exp(intercept)),
        lam=float(np.exp(slope)),
        parity=parity,
        residual=residual,
    )


def rate_fit_window(
    series: list[tuple[int, float]], limit: float, parity: str
) -> list[tuple[int, float]]:
    """Late-window subseries for a trustworthy rate fit.

    Keeps the last ``RATE_WINDOW_POINTS`` parity-matching points whose error
    lies in [RATE_WINDOW_LOW, RATE_WINDOW_HIGH]: late points minimize
    contamination from faster-decaying spectral modes, while the floor stays
    well above the absolute float noise accumulated by the step iteration.
    """
    want = 0 if parity == "even" else 1
    window = [
        (k, w)
        for k, w in series
        if k >= 1 and k % 2 == want and RATE_WINDOW_LOW <= abs(w - limit) <= RATE_WINDOW_HIGH
    ]
    return window[-RATE_WINDOW_POINTS:]
