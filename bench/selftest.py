"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that the same seed gives identical inputs and another seed different
ones; that the output checks pass real outputs and fail corrupted ones (a W
off by 1e-6, a NaN, a truncated sweep CSV, a nonzero exit code); and that a short run prints every
metric BENCHMARK.json names, with its unit; that a wrapped function that
no longer exists leaves its span absent; and that a run whose ops all fail
still prints a result that counts them.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import run
from workloads import WORKLOADS, Op, Plan


def _same_inputs(workload: str, seed_a: int, seed_b: int) -> bool:
    digests = []
    for seed in (seed_a, seed_b):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            plan = Plan(workload, seed, os.path.join(tmp, "w"))
            for r in range(2):
                plan.round(r)
            digests.append(plan.digest)
    return digests[0] == digests[1]


def _corruptions(op: Op):
    """(description, edit of the output text) pairs the check must reject."""
    kind = op.argv[0]
    if kind == "sweep":
        return [("truncated sweep CSV", lambda t: "\n".join(t.splitlines()[:-6]) + "\n")]
    if kind == "trace":
        def bump(text: str) -> str:
            lines = text.splitlines()
            k, w, err = lines[8].split(",")
            lines[8] = f"{k},{float(w) + 1e-6!r},{err}"
            return "\n".join(lines) + "\n"

        return [("trace W_k off by 1e-6", bump)]

    def edit(fn):
        def apply(text: str) -> str:
            payload = json.loads(text)
            fn(payload)
            return json.dumps(payload)

        return apply

    return [
        ("distance value off by 1e-6", edit(lambda p: p.update(value=p["value"] + 1e-6))),
        ("distance value NaN", edit(lambda p: p.update(value=float("nan")))),
    ]


def test_checks() -> None:
    import checks

    cli = run._import_cli()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        # each workload's warm-up op is small: sweep --nmax 3, a 4x4 grid trace,
        # a 30-vertex distance
        for op in (Plan(w, 0, os.path.join(tmp, w)).warmup() for w in WORKLOADS):
            rc, out = run.run_cli(cli, op.argv)
            reason = checks.check(op, rc, out)
            _expect(reason is None, f"{op.argv[0]}: real output rejected: {reason}")
            with open(op.out, encoding="utf-8") as fh:
                good = fh.read()
            for what, corrupt in _corruptions(op):
                with open(op.out, "w", encoding="utf-8") as fh:
                    fh.write(corrupt(good))
                _expect(checks.check(op, rc, out) is not None, f"{what} passed the check")
                print(f"ok  {what} counts as failed")
            _expect(checks.check(op, 1, out) is not None, "exit code 1 passed the check")


def test_seeds() -> None:
    for workload in WORKLOADS:
        _expect(_same_inputs(workload, 7, 7), f"{workload}: same seed, different inputs")
        _expect(not _same_inputs(workload, 7, 8), f"{workload}: seeds 7 and 8 gave equal inputs")
        print(f"ok  {workload}: inputs follow the seed")


def test_absent_span() -> None:
    from tracer import Tracer

    cli = run._import_cli()
    saved = cli._sweep_series
    del cli._sweep_series
    try:
        tracer = Tracer()
    finally:
        cli._sweep_series = saved
    _expect(tracer.absent == ["walks.step:walkdist.cli._sweep_series"], f"absent {tracer.absent}")
    _expect(tracer.metrics()["walks.step.self_s"] == (0.0, "s"), "absent span metric")
    print("ok  a missing function leaves its span absent")


def test_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "distance_oneshot",
               "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=170)
        _expect(proc.returncode == 0, f"run failed: {proc.stderr[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        _expect(result["correct"] and result["failed"] == 0, f"failed ops: {proc.stdout[-800:]}")
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        _expect(got == want, f"{group}: metrics {sorted(got.items())} != {sorted(want.items())}")
        print(f"ok  --trace {trace} prints every {group} metric with its unit")


def test_all_ops_fail() -> None:
    """A run in which every op fails still prints its result line."""
    saved = run.run_cli
    run.run_cli = lambda cli, argv: (-1, "injected failure")
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", "trace_series", "--seed", "3", "--seconds", "0.1",
                           "--trace", "0"])
    finally:
        run.run_cli = saved
    result = json.loads(buf.getvalue().splitlines()[-1])
    _expect(rc == 0 and not result["correct"], f"all-failed run: rc {rc}, {result}")
    _expect(result["failed"] == result["attempted"] > 1, f"failed ops not counted: {result}")
    _expect("op_p50_ms" not in result["metrics"] and "setup_s" in result["metrics"],
            f"all-failed run metrics: {sorted(result['metrics'])}")
    print("ok  a run whose ops all fail reports them, warm-up included, and no latency")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL {message}")
        sys.exit(1)


if __name__ == "__main__":
    test_seeds()
    test_checks()
    test_absent_span()
    test_all_ops_fail()
    test_metrics()
    print("selftest passed")
