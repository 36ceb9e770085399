"""Seeded inputs for the benchmark workloads.

A workload run is a sequence of rounds.  A round holds one op for each slot
of the workload's template, in a seeded order, so every run holds the same
mix of op kinds whatever its seed.  Each slot is one stratum of op cost; the
benchmark takes the median op time per slot, so no median sits in the gap
between two strata.  Inputs for round ``r`` come from generators seeded with
the workload, the seed and ``r`` alone, so the same seed always gives the
same inputs and the program sees only the files and flags made
here.  Everything in this module is pure Python: generating inputs imports
nothing from the program and no numerical library.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import deque
from dataclasses import dataclass, field

# Three cost tiers of pairs a < b from the default laziness grid of
# `walkdist sweep` (0, 1/4, 1/3, 1/2, 3/4, 1).  A round takes one pair from
# each tier, cycling through a seeded order of the tier, so every run holds
# the same mix of cheap, middle and dear ops.  The pairs of a tier cost
# nearly the same (host-scaled means of three timings of
# `sweep --nmax 4 --grid a,b` on the seed code: 2.58-2.63 s, 3.22-3.28 s and
# 4.21-4.51 s on a 2-core Xeon), so a run's slot medians hardly depend on
# which pairs its seed draws.  The six other pairs sit between the tiers and
# are left out: with two or three rounds a run, they made the median of a
# tier move by up to 10% with the seed.
_T = 1.0 / 3.0
SWEEP_TIERS = (
    ((_T, 1.0), (0.25, 1.0), (0.0, 1.0)),
    ((0.5, 1.0), (_T, 0.5), (0.0, _T)),
    ((0.0, 0.75), (0.75, 1.0), (0.25, 0.75)),
)
SWEEP_NMAX = 4

TRACE_KMAX = 60
TRACE_SLOTS = ("W1", "W_HALF", "W0", "BETA1")
GRID_SHAPES = ((10, 10), (9, 11), (11, 9), (8, 12), (12, 8))
RING_N, RING_HALF_RANGE = 120, 10  # rings of 110..130 vertices

DISTANCE_SLOTS = ("dense", "dense_spread", "sparse", "sparse_b")
DISTANCE_N, DISTANCE_HALF_RANGE = 250, 50  # small worlds of 200..300 vertices

WORKLOADS = ("sweep_n4_pairs", "trace_series", "distance_oneshot")
SLOTS = {
    "sweep_n4_pairs": tuple(f"tier{i}" for i in range(len(SWEEP_TIERS))),
    "trace_series": TRACE_SLOTS,
    "distance_oneshot": DISTANCE_SLOTS,
}
WORK_UNITS = {
    "sweep_n4_pairs": "rows",
    "trace_series": "W_k values",
    "distance_oneshot": "solves",
}


@dataclass
class Op:
    """One CLI invocation and what its output check needs.

    ``expect`` names input files rather than holding graphs and masses, so
    a run's memory does not grow with its op count and ``peak_rss_mb``
    measures the program, not the ops the benchmark keeps for checking."""

    kind: str
    slot: str
    argv: list[str]
    out: str
    work: int
    expect: dict = field(default_factory=dict)


# -- graphs ------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def text(self) -> str:
        lines = [f"{self.n} {len(self.edges)}"]
        lines.extend(f"{a} {b}" for a, b in self.edges)
        return "\n".join(lines) + "\n"


def bfs_dist(adj: list[list[int]], s: int) -> list[int]:
    """Hop distances from s (-1 where unreachable)."""
    dist = [-1] * len(adj)
    dist[s] = 0
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def two_coloring(adj: list[list[int]]) -> list[int] | None:
    """Side of each vertex in a proper 2-coloring, or None with an odd cycle."""
    side = [d % 2 for d in bfs_dist(adj, 0)]
    for v, ns in enumerate(adj):
        if any(side[w] == side[v] for w in ns):
            return None
    return side


def read_graph(path: str) -> SimpleGraph:
    """A graph file a plan wrote, read back for the output checks."""
    with open(path, encoding="utf-8") as fh:
        n, _ = map(int, fh.readline().split())
        edges = tuple((int(a), int(b)) for a, b in (line.split() for line in fh))
    return SimpleGraph(n, edges)


def read_masses(path: str, n: int) -> list[float]:
    """A mass CSV file a plan wrote, read back as n values."""
    values = [0.0] * n
    with open(path, encoding="utf-8") as fh:
        next(fh)  # header
        for line in fh:
            vertex, mass = line.split(",")
            values[int(vertex)] = float(mass)
    return values


def grid_graph(rows: int, cols: int) -> SimpleGraph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return SimpleGraph(rows * cols, tuple(sorted(edges)))


def _with_chords(n: int, edges: set, chords: int, rng: random.Random) -> set:
    target = len(edges) + chords
    while len(edges) < target:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return edges


def ring_with_chords(n: int, rng: random.Random) -> SimpleGraph:
    """Cycle plus n // 12 random chords, made non-bipartite if need be."""
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges = _with_chords(n, edges, n // 12, rng)
    graph = SimpleGraph(n, tuple(sorted(edges)))
    side = two_coloring(graph.adjacency)
    if side is not None:  # join two same-side vertices: an odd cycle
        same = [v for v in range(2, n) if side[v] == 0 and (0, v) not in edges]
        edges.add((0, rng.choice(same)))
        graph = SimpleGraph(n, tuple(sorted(edges)))
    return graph


def small_world(n: int, rng: random.Random) -> SimpleGraph:
    """Ring lattice joining each vertex to the next two, plus n // 10 chords."""
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)}
    return SimpleGraph(n, tuple(sorted(_with_chords(n, edges, n // 10, rng))))


def connected_graphs(n_max: int):
    """Every labeled connected graph on 1..n_max vertices, with its edge list
    in the order `walkdist sweep` names it."""
    from itertools import combinations

    for n in range(1, n_max + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            graph = SimpleGraph(n, edges)
            if min(bfs_dist(graph.adjacency, 0)) >= 0:
                yield graph


# -- plans -------------------------------------------------------------------


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


class Plan:
    """Seeded op source for one workload; files go under ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.slots = SLOTS[workload]
        self.seed = seed
        self.workdir = workdir
        self._count = 0
        self._digest = hashlib.sha256()
        os.makedirs(workdir, exist_ok=True)

    @property
    def digest(self) -> str:
        """sha256 over every input made so far, paths left out."""
        return self._digest.hexdigest()

    def _path(self, name: str) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"{self._count:05d}-{name}")

    def _write(self, name: str, text: str) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self._digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        return path

    def _op(self, kind, slot, argv, out, work, expect) -> Op:
        flags = [a for a in argv if not a.startswith(self.workdir)]
        self._digest.update(("\0".join([kind, *flags]) + "\n").encode())
        return Op(kind, slot, argv, out, work, expect)

    def warmup(self) -> Op:
        """A small fixed op, the same for every seed, that runs the code paths
        of the workload's ops once, so set-up cost is comparable across runs."""
        rng = _rng(self.workload, -1, "warmup")
        if self.workload == "sweep_n4_pairs":
            return self._sweep((0.0, 1.0), "warmup", nmax=3)
        if self.workload == "trace_series":
            return self._trace(rng, "W1", 0, shape=(4, 4))
        return self._distance(rng, "dense", 30)

    def round(self, r: int) -> list[Op]:
        """The ops of round r, one per slot, in a seeded order.

        Graph sizes come in antithetic pairs about the middle of their range
        (one slot gets mid + d, its partner mid - d), so every round holds the
        same spread of sizes whatever d the seed draws.  A trace op's cost
        grows steeply with the ring's size, so its rings are also paired
        across rounds: rounds 2k and 2k + 1 use d and -d, and the median of
        a ring slot stays near the middle size.
        """
        rng = _rng(self.workload, self.seed, r)
        if self.workload == "sweep_n4_pairs":
            perm = _rng(self.workload, self.seed, "tiers")
            ops = [self._sweep(perm.sample(tier, len(tier))[r % len(tier)], f"tier{i}")
                   for i, tier in enumerate(SWEEP_TIERS)]
        elif self.workload == "trace_series":
            d = _rng(self.workload, self.seed, f"ring{r // 2}").randint(
                -RING_HALF_RANGE, RING_HALF_RANGE)
            d = -d if r % 2 else d
            sizes = {"W1": 0, "W_HALF": 0, "W0": RING_N + d, "BETA1": RING_N - d}
            ops = [self._trace(rng, slot, sizes[slot]) for slot in TRACE_SLOTS]
        else:
            d1, d2 = (rng.randint(-DISTANCE_HALF_RANGE, DISTANCE_HALF_RANGE) for _ in range(2))
            sizes = {"dense": d1, "dense_spread": -d1, "sparse": d2, "sparse_b": -d2}
            ops = [self._distance(rng, slot, DISTANCE_N + sizes[slot]) for slot in DISTANCE_SLOTS]
        rng.shuffle(ops)
        return ops

    def _sweep(self, pair: tuple[float, float], slot: str, nmax: int = SWEEP_NMAX) -> Op:
        a, b = pair
        out = self._path("sweep.csv")
        argv = ["sweep", "--nmax", str(nmax), "--grid", f"{a!r},{b!r}", "--out", out]
        # two grid values give 3 laziness pairs, each with n^2 start pairs per graph
        rows = 3 * sum(g.n * g.n for g in connected_graphs(nmax))
        expect = {"grid": (a, b), "nmax": nmax}
        return self._op(f"{a:.3g},{b:.3g}", slot, argv, out, rows, expect)

    def _trace(self, rng, slot: str, ring_n: int, shape=None) -> Op:
        if slot in ("W1", "W_HALF"):
            graph = grid_graph(*(shape or rng.choice(GRID_SHAPES)))
            side = two_coloring(graph.adjacency)
            u = rng.randrange(graph.n)
            if slot == "W1":
                v = rng.choice([w for w in range(graph.n) if side[w] != side[u]])
                alpha, beta = 0.0, 0.0
            else:
                v = rng.randrange(graph.n)
                alpha, beta = 0.0, round(rng.uniform(0.2, 0.8), 4)
        else:
            graph = ring_with_chords(ring_n, rng)
            u, v = rng.randrange(graph.n), rng.randrange(graph.n)
            if slot == "W0":  # alpha = 0: the walk oscillates on an odd-cycle graph
                alpha, beta = 0.0, round(rng.uniform(0.1, 0.9), 4)
            else:
                alpha, beta = round(rng.uniform(0.0, 0.9), 4), 1.0
        gpath = self._write("graph.txt", graph.text())
        out = self._path("trace.csv")
        argv = [
            "trace", "--graph", gpath, "--u", str(u), "--v", str(v),
            "--alpha", repr(alpha), "--beta", repr(beta),
            "--kmax", str(TRACE_KMAX), "--out", out,
        ]
        expect = {
            "graph_file": gpath, "u": u, "v": v, "alpha": alpha, "beta": beta,
            "category": slot, "ks": sorted(rng.sample(range(TRACE_KMAX + 1), 3)),
        }
        return self._op(slot, slot, argv, out, TRACE_KMAX + 1, expect)

    def _distance(self, rng: random.Random, slot: str, n: int) -> Op:
        graph = small_world(n, rng)

        def masses() -> list[float]:
            if slot.startswith("dense"):
                support = list(range(n))
            else:
                support = sorted(rng.sample(range(n), rng.randint(10, 40)))
            if slot == "dense_spread":
                raw = [10.0 ** rng.uniform(-9.0, 0.0) for _ in support]
            else:
                raw = [rng.uniform(0.05, 1.0) for _ in support]
            total = sum(raw)
            values = [0.0] * n
            for vtx, m in zip(support, raw):
                values[vtx] = m / total
            return values

        mu, nu = masses(), masses()
        paths = [self._write("graph.txt", graph.text())]
        for name, values in (("mu.csv", mu), ("nu.csv", nu)):
            rows = ["vertex,mass"] + [f"{i},{m!r}" for i, m in enumerate(values) if m]
            paths.append(self._write(name, "\n".join(rows) + "\n"))
        out = self._path("distance.json")
        argv = ["distance", "--graph", paths[0], "--mu", paths[1], "--nu", paths[2], "--out", out]
        expect = {"graph_file": paths[0], "mu_file": paths[1], "nu_file": paths[2]}
        return self._op(slot, slot, argv, out, 1, expect)
