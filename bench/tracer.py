"""Per-layer spans recorded from outside the program.

Each span wraps one or more functions of ``walkdist``.  A wrapper replaces
the function at every module attribute of the package bound to it (for
example ``_flow_value`` lives in ``walkdist.transport`` and is imported into
``walkdist.analysis``), so a call is timed however it is reached.  Spans nest
through a stack: busy time is a span's wall time, self time is busy time minus
the busy time of spans it called.  Per op only counters are kept (calls,
successful calls, busy and self seconds), so memory stays bounded however
many solves an op makes.

A function that no longer exists leaves its span ``absent``: its metrics read
0 and the run record names it, so the program can change without the
benchmark failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# span -> functions it wraps, as (home module, attribute)
SPANS = {
    "transport.flow_solve": [("walkdist.transport", "_min_cost_flow")],
    "transport.value_only": [("walkdist.transport", "_flow_value")],
    "transport.wasserstein": [("walkdist.transport", "wasserstein")],
    "transport.decompose": [("walkdist.transport", "_decompose_flows")],
    "transport.dual_check": [("walkdist.transport", "dual_value")],
    "transport.csv_in": [("walkdist.transport", "distribution_from_csv")],
    "graphs.metric": [("walkdist.graphs", "all_pairs_distances")],
    "graphs.bipartite": [("walkdist.graphs", "bipartite_decompose")],
    "graphs.enumerate": [("walkdist.graphs", "enumerate_connected_graphs")],
    "walks.transition": [("walkdist.walks", "transition_matrix")],
    "walks.step": [("walkdist.analysis", "wk_series"), ("walkdist.cli", "_sweep_series")],
    "analysis.classify": [("walkdist.analysis", "classify")],
    "analysis.rate_fit": [("walkdist.analysis", "fit_rate")],
    "analysis.spectrum": [("walkdist.analysis", "spectrum")],
    "cli.sweep_harness": [("walkdist.cli", "run_sweep")],
    "cli.format": [("walkdist.cli", "_dump_json"), ("walkdist.cli", "_emit")],
}
ROOT = "op.unattributed"

# span -> reported stats; each becomes the metric "<span>.<stat>"
STATS = {
    "transport.flow_solve": ("calls", "busy_s", "mean_us"),
    "transport.value_only": ("calls",),
    "transport.wasserstein": ("calls", "self_s"),
    "transport.decompose": ("calls", "busy_s"),
    "transport.dual_check": ("busy_s",),
    "transport.csv_in": ("busy_s",),
    "graphs.metric": ("calls", "busy_s"),
    "graphs.bipartite": ("calls", "busy_s"),
    "graphs.enumerate": ("calls", "busy_s"),
    "walks.transition": ("calls", "busy_s"),
    "walks.step": ("self_s",),
    "analysis.classify": ("calls", "self_s"),
    "analysis.rate_fit": ("calls", "busy_s", "useful_ratio"),
    "analysis.spectrum": ("calls", "busy_s"),
    "cli.sweep_harness": ("self_s",),
    "cli.format": ("busy_s",),
    ROOT: ("self_s",),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "mean_us": "us", "useful_ratio": "ratio"}

CALLS, OK, BUSY, SELF = range(4)


class Tracer:
    """Installs the span wrappers and accumulates per-op counters."""

    def __init__(self):
        self.totals = {name: [0, 0, 0.0, 0.0] for name in STATS}
        self.ops = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        for span, targets in SPANS.items():
            for modname, attr in targets:
                fn = getattr(importlib.import_module(modname), attr, None)
                if fn is None:
                    self.absent.append(f"{span}:{modname}.{attr}")
                else:
                    self._wrappers.append((fn, self._wrap(span, fn)))

    def _wrap(self, span: str, fn):
        counters = self.totals[span]
        stack = self._stack

        def enter():
            stack.append([0.0])
            return perf_counter()

        def leave(t0: float, ok: bool):
            dt = perf_counter() - t0
            child = stack.pop()[0]
            stack[-1][0] += dt
            counters[BUSY] += dt
            counters[SELF] += dt - child
            counters[OK] += ok

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counters[CALLS] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(t0, True)
                        return
                    except BaseException:
                        leave(t0, False)
                        raise
                    leave(t0, False)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[CALLS] += 1
            t0 = enter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                leave(t0, ok)

        return wrapper

    def install(self) -> None:
        """Bind every wrapper at every package attribute holding its function."""
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "walkdist" or name.startswith("walkdist.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def run_op(self, call):
        """Run call() as one traced op; returns (result, seconds)."""
        root = self.totals[ROOT]
        self._stack.append([0.0])
        t0 = perf_counter()
        try:
            result = call()
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()[0]
            root[CALLS] += 1
            root[BUSY] += dt
            root[SELF] += dt - child
            self.ops += 1
        return result, dt

    def metrics(self) -> dict:
        """Per-op means of every span stat, as {name: (value, unit)}."""
        ops = max(self.ops, 1)
        out = {}
        for span, stats in STATS.items():
            calls, ok, busy, self_s = self.totals[span]
            values = {
                "calls": calls / ops,
                "busy_s": busy / ops,
                "self_s": self_s / ops,
                "mean_us": busy / calls * 1e6 if calls else 0.0,
                "useful_ratio": ok / calls if calls else 0.0,
            }
            for stat in stats:
                out[f"{span}.{stat}"] = (values[stat], UNITS[stat])
        return out

    def top_self(self) -> str:
        """Span with the largest self time: where the op spent most of its time."""
        return max(STATS, key=lambda s: self.totals[s][SELF])

