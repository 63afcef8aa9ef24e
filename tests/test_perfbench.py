"""The benchmark's span tracer still finds every library function that
``BENCHMARK.json`` names a per-layer metric after.

Renaming, moving or hiding such a function otherwise shows up only in a
``perfbench/run.py --trace 1`` run, as ``error: metrics not measured``.
Nothing under ``perfbench/`` is changed here; the tracer is installed and
uninstalled without recording a span.
"""

import importlib.util
import json
from pathlib import Path

from exocone import algebra

ROOT = Path(__file__).resolve().parent.parent

# computed by perfbench/run.py from its timed passes, not by the tracer
RUN_METRICS = {
    "bench.untraced_ops_per_s",
    "bench.traced_ops_per_s",
    "bench.trace_overhead",
}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_every_declared_layer_metric_is_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    rank = algebra.rank
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert algebra.rank is rank
    assert sorted(declared - RUN_METRICS - set(tracer.layer_metrics())) == []
