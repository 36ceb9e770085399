"""The benchmark's per-layer spans still bind to functions of walkdist.

A span whose function was renamed or removed reads 0 in every traced run
rather than failing, so a rename must update ``bench/tracer.py`` with it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = [
        f"{span}: {module}.{attr}"
        for span, targets in tracer.SPANS.items()
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.SPANS and unbound == []
