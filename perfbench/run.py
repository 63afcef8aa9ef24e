"""Benchmark of the exocone library.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 27 --trace 0

Runs one seeded workload (``classify``, ``polys``, ``fields`` or ``cli``;
see ``workloads.py``) from the repository root, in one process with one
closed-loop client: each operation starts when the previous one is checked.
Inputs are generated from the seed before timing; the timed phase repeats
whole passes over them for at least ``--seconds`` of pass time and at least
``MIN_PASSES`` passes.  Every output is checked by an independent route.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; ``setup_s`` is the median over fresh processes started between
the passes (at least ``SETUP_RUNS``).  With
``--trace 1`` one untraced and one traced pass give the per-layer metrics
and the tracing overhead, and the spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify", "polys", "fields", "cli")
SETUP_RUNS = 5
MIN_PASSES = 3
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
CHILD_TIMEOUT_S = 60


def _import_library():
    """Import exocone from this checkout's ``src`` and nowhere else."""
    package = SRC / "exocone"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no exocone package at {package}")
    sys.path.insert(0, str(SRC))
    import exocone

    if Path(exocone.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported exocone from {exocone.__file__}")
    import workloads

    return workloads


def _declared_metrics(key: str) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def setup_child(workload: str) -> None:
    """One fresh-process set-up: import exocone and fill the workload's
    caches; prints the seconds taken."""
    t0 = perf_counter()
    workloads = _import_library()
    workloads.SETUP[workload]()
    print(perf_counter() - t0)


def setup_once(workload: str) -> float:
    """Seconds one fresh process takes to set up (see setup_child)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.split()[-1])


class Run:
    """Latencies and outcomes per operation, over whole passes."""

    def __init__(self, ops):
        self.ops = ops
        self.latency = [[] for _ in ops]
        self.ok = 0
        self.failed = 0  # wrong result or unexpected exception
        self.probe_failed = 0  # known contract breaks (see workloads.Op)
        self.why_failed: dict[str, str] = {}  # label -> its first failure
        self.passes = 0

    def one_pass(self) -> float:
        t_pass = perf_counter()
        for op, lat in zip(self.ops, self.latency):
            t0 = perf_counter()
            try:
                out, raised = op.call(), None
            except Exception as exc:
                raised = exc
            lat.append(perf_counter() - t0)
            if raised is None:
                try:
                    if op.check(out):
                        self.ok += 1
                        continue
                    why = f"wrong result {out!r}"
                except Exception as exc:
                    why = f"check raised {exc!r} on {out!r}"
            else:
                why = f"raised {raised!r}"
            self.why_failed.setdefault(op.label, why[:300])
            if op.probe:
                self.probe_failed += 1
            else:
                self.failed += 1
        self.passes += 1
        return perf_counter() - t_pass

    def report_failures(self) -> None:
        kinds = {op.label: "contract probe" if op.probe else "FAILED" for op in self.ops}
        for label, why in self.why_failed.items():
            print(f"  {kinds[label]}: {label}: {why}")

    @property
    def attempted(self) -> int:
        return self.passes * len(self.ops)

    def samples(self) -> list[float]:
        return [t for lat in self.latency for t in lat]

    def ops_per_s(self) -> float:
        """Checked operations per second of time spent in the library,
        over all timed passes."""
        return self.attempted / sum(map(sum, self.latency))


def timed(ops, seconds: float, workload: str) -> tuple[Run, list[float]]:
    """Whole passes for at least ``seconds`` of pass time, with one fresh
    set-up process after each pass (and at least SETUP_RUNS in all), so
    that the set-up samples are spread over the run like the passes."""
    run = Run(ops)
    setups = []
    busy = 0.0
    while run.passes < MIN_PASSES or run.attempted < MIN_SAMPLES or busy < seconds:
        busy += run.one_pass()
        setups.append(setup_once(workload))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once(workload))
    return run, setups


def end_to_end(workload: str, seed: int, seconds: float, workloads) -> tuple[Run, dict]:
    workloads.SETUP[workload]()
    ops = workloads.GENERATE[workload](random.Random(f"{workload}/{seed}"))
    run, setups = timed(ops, seconds, workload)
    samples = run.samples()
    p90 = statistics.quantiles(samples, n=10)[8]
    beyond = sum(t > p90 for t in samples)
    print(
        f"{workload} seed={seed}: {len(ops)} ops x {run.passes} passes,"
        f" {len(samples)} samples, {beyond} beyond p90,"
        f" fail_frac={1 - run.ok / run.attempted:.4f}"
        f" ({run.failed} wrong, {run.probe_failed} contract probes)"
    )
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p90")
    return run, {
        "setup_s": statistics.median(setups),
        "ops_per_s": run.ops_per_s(),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ok_frac": run.ok / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload: str, seed: int, workloads) -> tuple[Run, dict]:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    workloads.SETUP[workload]()
    tracer.uninstall()
    ops = workloads.GENERATE[workload](random.Random(f"{workload}/{seed}"))
    run = Run(ops)
    plain_s = run.one_pass()
    tracer.install()
    try:
        traced_s = run.one_pass()
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.tsv"
    tracer.write(path)
    metrics = tracer.layer_metrics()
    metrics["bench.untraced_ops_per_s"] = len(ops) / plain_s
    metrics["bench.traced_ops_per_s"] = len(ops) / traced_s
    metrics["bench.trace_overhead"] = traced_s / plain_s
    print(
        f"{workload} seed={seed}: {len(ops)} ops, untraced pass {plain_s:.3f} s,"
        f" traced pass {traced_s:.3f} s (x{traced_s / plain_s:.2f}),"
        f" {metrics['bench.spans']} spans in {path.relative_to(ROOT)}"
    )
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    workloads = _import_library()
    if args.trace:
        run, values = per_layer(args.workload, args.seed, workloads)
    else:
        run, values = end_to_end(args.workload, args.seed, args.seconds, workloads)
    run.report_failures()
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    metrics = {}
    for name, unit in declared.items():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
