"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload classify --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles and the interquartile distance
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound in ``BENCHMARK.json``.  ``--json FILE`` also writes the
raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for chunk in text.split(","):
        lo, _, hi = chunk.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    walls = []
    for seed in _seeds(args.seeds):
        t0 = perf_counter()
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        walls.append(perf_counter() - t0)
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(
            f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
            + f" wall={walls[-1]:.1f}s",
            flush=True,
        )
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(
            f"{m['name']:>12}: median {med:.5g} {m['unit']}  quartiles {q1:.5g}..{q3:.5g}"
            f"  spread {spread:.4f}  bound {m['bound']}"
        )
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.json:
        args.json.write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
