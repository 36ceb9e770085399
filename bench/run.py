"""Benchmark of the walkdist command line, run in-process.

    python3 bench/run.py --workload sweep_n4_pairs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process runs one workload: it makes the seeded inputs, imports walkdist
from ``src/``, runs a warm-up op, then runs rounds of ops through
``walkdist.cli.main`` in a closed loop (one client, no concurrency) until
``--seconds`` have passed, finishing the round in progress.  Outputs are
checked after the timed region; an op that fails its check, the warm-up op
included, counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, starting with ``record``, holds sample counts, raw timings,
host-drift diagnostics and the environment.

Op times are the process's CPU time over the op.  The program is
single-threaded (BLAS pinned to one thread), so on an idle host this is its
latency; on a shared host it leaves out the time other guests held the CPU.
The speed of the CPU still drifts by tens of percent within seconds, so
while an op runs ``HostSampler`` times a fixed probe that uses nothing from
walkdist every 50 ms, and the op's CPU time (less the probe's) is scaled by
``REF_PROBE_MS`` over the mean probe time: op times are reported in ms of a
reference host on which one probe takes ``REF_PROBE_MS``.  A program change
moves them as it moves the raw times, which the record keeps (wall clock);
host drift cancels.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``op_p50_ms``   median op time per slot of the workload's round (each
                  slot is one stratum of op cost), geometric mean over slots;
* ``work_per_s``  work units of one op per slot (sweep rows, W_k values or
                  solves) over the sum of the slot medians;
* ``setup_s``     median over five processes (this one and four set-up
                  probes) of the CPU time from process start to the first
                  timed op: starting Python, importing walkdist and a small
                  fixed warm-up op, input generation left out; scaled to
                  the reference host like the ops;
* ``peak_rss_mb`` peak resident memory of this process, before the checks.

A metric whose inputs are missing (every op of a slot failed) is left out;
the run then reports ``correct: false``.  With ``--trace 1`` each op runs
twice, untraced and traced in alternating order, and the metrics are the
per-layer spans of ``tracer.py`` (per-op means over the traced runs) plus
the tracing overhead, from raw times: the host sampler is off, since its
probe would land inside the spans.  ``--workload all`` runs every workload,
each in its own process, and prints a table.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402

# One BLAS thread: a run is a single closed-loop client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import WORK_UNITS, WORKLOADS, Plan  # noqa: E402

SETUP_RUNS = 5  # this process and four set-up probe processes
SETUP_TIMEOUT_S = 60
P90_MIN_OPS = 100
SAMPLE_INTERVAL_S = 0.05  # host probe every 50 ms of an op, ~3% of its time
REF_PROBE_MS = 1.5  # op times are scaled to a host where the probe takes this


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "walkdist", "cli.py")):
        raise SystemExit(f"error: no walkdist sources under {SRC}")
    sys.path.insert(0, SRC)
    from walkdist import cli

    return cli


def run_cli(cli, argv):
    """One op: (exit code, captured stdout); a raised exception is code -1."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except Exception:  # the op fails; the run goes on
        return -1, traceback.format_exc(limit=3)
    return rc, buf.getvalue()


def measure_setup(plan: Plan, sampler):
    """Import walkdist and run the warm-up op; returns ((CPU s, host probe
    ms, wall s), cli, op, rc, out).  The set-up time runs from process start
    and leaves out the warm-up input's generation and, with a sampler, the
    probe's own time."""
    t, c = perf_counter(), time.process_time()
    warm = plan.warmup()
    gen_s, gen_cpu = perf_counter() - t, time.process_time() - c
    if sampler is not None:
        sampler.start()
    try:
        cli = _import_cli()
        rc, out = run_cli(cli, warm.argv)
        wall, cpu = perf_counter() - T_START - gen_s, time.process_time() - gen_cpu
    finally:
        spent, host_ms = sampler.stop() if sampler is not None else (0.0, None)
    return (cpu - spent, host_ms, wall - spent), cli, warm, rc, out


def _probe_setup(workload: str, seed: int) -> tuple[float, float, float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


# -- host diagnostics --------------------------------------------------------


class HostSampler:
    """Samples the host's speed while an op runs.

    A SIGALRM timer fires every SAMPLE_INTERVAL_S of wall time; its handler,
    which Python runs in the main thread between bytecodes, times a fixed
    probe in CPU time: a pure-Python Dijkstra run on a 30x30 grid (heap,
    dict and list traffic like the flow solver's), ~1.5 ms, using nothing
    from walkdist.  On a shared 2-core Xeon VM the probe's time varied by up
    to 1.9x within one run, and op times with it; scaling each op by its
    mean probe time cut the run-to-run spread of op_p50_ms over ten seeds
    (quartile distance over median) from 0.09-0.37 raw to 0.02-0.07.
    """

    def __init__(self):
        side = 30
        n = side * side
        self._adj = [
            [w for w in (v - side, v + side) if 0 <= w < n]
            + [w for w in (v - 1, v + 1) if 0 <= w < n and w // side == v // side]
            for v in range(n)
        ]
        self._samples: list[float] = []
        self._spent = 0.0

    def probe_ms(self) -> float:
        adj = self._adj
        far = len(adj) * 4
        t = time.process_time()
        dist = {0: 0}
        heap = [(0, 0)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w in adj[v]:
                nd = d + 1 + (v * w) % 3
                if nd < dist.get(w, far):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
        return (time.process_time() - t) * 1e3

    def _tick(self, signum=None, frame=None) -> None:
        t = time.process_time()
        self._samples.append(self.probe_ms())
        self._spent += time.process_time() - t

    def start(self) -> None:
        self._samples.clear()
        self._spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Stops sampling; returns (CPU seconds spent in the probe, mean probe ms)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self._spent
        if not self._samples:  # shorter than one interval: probe once after
            self._tick()
        return spent, statistics.fmean(self._samples)


def steal_s() -> float | None:
    """Machine-wide CPU steal so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(seed: int, digest: str) -> dict:
    from importlib import metadata

    import numpy as np

    loc = 0
    for base, _, files in os.walk(os.path.join(SRC, "walkdist")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    loc += sum(1 for _ in fh)
    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "src_loc": loc,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "input_digest": digest,
    }


# -- the run -----------------------------------------------------------------


def run(args) -> int:
    workroot = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)  # only once no other run uses it


def _timed_loop(plan: Plan, cli, seconds: float, tracer, sampler):
    """Rounds of ops until `seconds` have passed; returns (results, rounds).
    Each result is (op, exit code, stdout, wall s, CPU s, traced, host probe
    ms), the times without the probe's own CPU time and the probe time None
    without a sampler."""
    results = []
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds:
        for op in plan.round(rounds):
            runs = [(op, False)]
            if tracer is not None:
                traced = replace(op, argv=[a + ".traced" if a == op.out else a for a in op.argv],
                                 out=op.out + ".traced")
                runs.append((traced, True))
                if len(results) % 4:  # every other op runs traced first
                    runs.reverse()
            for run_op, traced in runs:
                gc.collect()
                spent, host_ms = 0.0, None
                if traced:
                    tracer.install()
                    try:
                        (rc, out), dt = tracer.run_op(lambda: run_cli(cli, run_op.argv))
                    finally:
                        tracer.uninstall()
                    cpu = dt
                else:
                    if sampler is not None:
                        sampler.start()
                    t, c = perf_counter(), time.process_time()
                    try:
                        rc, out = run_cli(cli, run_op.argv)
                        dt, cpu = perf_counter() - t, time.process_time() - c
                    finally:
                        if sampler is not None:
                            spent, host_ms = sampler.stop()
                results.append((run_op, rc, out, dt - spent, cpu - spent, traced, host_ms))
        rounds += 1
    return results, rounds


def slot_p50(samples) -> dict:
    """{slot: (median seconds, median work)} over (op, seconds) samples."""
    by_slot = {}
    for op, dt in samples:
        by_slot.setdefault(op.slot, []).append((dt, op.work))
    return {
        slot: (statistics.median(dt for dt, _ in v), statistics.median(w for _, w in v))
        for slot, v in sorted(by_slot.items())
    }


def typical_ms(p50: dict) -> float:
    """Geometric mean over slots of the per-slot median op time, in ms."""
    return math.exp(statistics.fmean(math.log(t) for t, _ in p50.values())) * 1e3


def _run(args, workdir: str) -> int:
    plan = Plan(args.workload, args.seed, workdir)
    sampler = None if args.trace else HostSampler()
    setup, cli, warm, warm_rc, warm_out = measure_setup(plan, sampler)
    if args.setup_probe:  # the main process checks the warm-up output
        print(json.dumps(setup))
        return 0
    setups = [setup]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:  # set-up time is reported only with --trace 0
        setups += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]

    steal_before = steal_s()
    cpu_before = time.process_time()
    wall_before = perf_counter()
    results, rounds = _timed_loop(plan, cli, args.seconds, tracer, sampler)
    wall = perf_counter() - wall_before
    cpu = time.process_time() - cpu_before
    steal_after = steal_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    failures = []
    warm_reason = checks.check(warm, warm_rc, warm_out)
    if warm_reason:
        failures.append(("warmup", warm.kind, warm_reason))
    ok = []  # (op, wall s, s on the reference host, traced)
    for i, (op, rc, out, dt, op_cpu, traced, host_ms) in enumerate(results):
        reason = checks.check(op, rc, out)
        if reason:
            failures.append((i, op.kind, reason))
        else:
            ok.append((op, dt, op_cpu * REF_PROBE_MS / host_ms if host_ms else dt, traced))

    plain = [(op, dt) for op, dt, _, traced in ok if not traced]
    complete = {op.slot for op, _ in plain} == set(plan.slots)
    metrics = {}
    if tracer is not None:
        complete = complete and {op.slot for op, _, _, tr in ok if tr} == set(plan.slots)
    if tracer is None:
        norm = slot_p50((op, ndt) for op, _, ndt, _ in ok)
        if complete:  # else a slot lost every op and has no latency
            metrics["op_p50_ms"] = (typical_ms(norm), "ms")
            metrics["work_per_s"] = (
                sum(w for _, w in norm.values()) / sum(t for t, _ in norm.values()), "1/s")
        metrics["setup_s"] = (statistics.median(s * REF_PROBE_MS / h for s, h, _ in setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        samples = {"op_p50_ms": len(plain), "work_per_s": len(plain), "setup_s": len(setups),
                   "peak_rss_mb": 1}
        raw = [dt for _, dt in plain]
        hosts = [h for *_, h in results] or [math.nan]
        extra = {
            "work_unit": WORK_UNITS[args.workload],
            "slot_p50_ms": {slot: t * 1e3 for slot, (t, _) in norm.items()},
            "raw": {
                "op_p50_ms": statistics.median(raw) * 1e3 if raw else None,
                "slot_p50_ms": {slot: t * 1e3 for slot, (t, _) in slot_p50(plain).items()},
                "setup_wall_s": [w for *_, w in setups],
                "setup_cpu_s": [s for s, *_ in setups],
            },
            "host": {
                "host_ref_ms_before": hosts[0],
                "host_ref_ms_after": hosts[-1],
                "host_ref_ms_median": statistics.median(hosts),
                "host_ref_ms_range": [min(hosts), max(hosts)],
                "setup_host_ms": [h for _, h, _ in setups],
            },
        }
        if len(raw) >= P90_MIN_OPS:
            extra["raw"]["op_p90_ms"] = statistics.quantiles(raw, n=10)[-1] * 1e3
    else:
        traced = [(op, dt) for op, dt, _, tr in ok if tr]
        metrics.update(tracer.metrics())
        if complete:
            untraced_ms, traced_ms = typical_ms(slot_p50(plain)), typical_ms(slot_p50(traced))
            metrics["trace.untraced_op_p50_ms"] = (untraced_ms, "ms")
            metrics["trace.traced_op_p50_ms"] = (traced_ms, "ms")
            metrics["trace.overhead_ratio"] = (traced_ms / untraced_ms, "ratio")
        samples = {"traced_ops": len(traced), "untraced_ops": len(plain)}
        extra = {"top_self_span": tracer.top_self(), "absent_spans": tracer.absent, "host": {}}

    by_kind = {}
    for op, dt, ndt, traced in ok:
        if not traced:
            by_kind.setdefault(op.kind, []).append(ndt)
    extra["host"].update({
        "steal_s": None if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "cpu_s": cpu,
        "wall_s": wall,
    })
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": rounds,
        "samples": samples,
        "slot_ops": {slot: sum(op.slot == slot for op, _ in plain) for slot in plan.slots},
        **extra,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(by_kind.items())},
        "env": environment(args.seed, plan.digest),
        "failures": failures[:5],
    }
    for where, kind, reason in failures:
        print(f"failed op {where} ({kind}): {reason}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures and complete,
        "attempted": len(results) + 1,  # the warm-up op counts too
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


# -- all workloads -----------------------------------------------------------


def run_all(args) -> int:
    rows = []
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        record = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        print(lines[-2])
        print(json.dumps({"workload": workload, **result}))
        status |= not result["correct"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"], record["samples"].get(name, "")))
        rows.append((workload, "failed_ops", result["failed"], "count", result["attempted"]))
    print(f"{'workload':18} {'metric':36} {'value':>14} {'unit':8} samples (ops attempted)")
    for workload, name, value, unit, n in rows:
        print(f"{workload:18} {name:36} {value:14.6g} {unit:8} {n}")
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
