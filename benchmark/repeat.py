"""Repeat the benchmark over seeds and summarize each metric.

    python3 benchmark/repeat.py --seeds 1-10 --trace 0

Runs ``run.py`` once per seed and workload, one run at a time, and prints a
markdown table per workload: median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median of
every metric, with the operations attempted and failed. This is how the
reference figures in README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat the benchmark over seeds")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        ops, walls = [], []
        for seed in seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True, cwd=RUN.parent.parent,
            )
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ops.append((result["correct"], result["attempted"], result["failed"]))
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
        print(f"\n{name}, seeds {args.seeds}, trace {args.trace}: "
              f"correct {all(c for c, _, _ in ops)}, attempted {sorted({a for _, a, _ in ops})}, "
              f"failed {sorted({f for _, _, f in ops})}, run wall {min(walls):.0f}-{max(walls):.0f} s\n")
        print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
        print("|---|---|---|---|---|---|")
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = f"{(q3 - q1) / med:.3f}" if med else "-"
            print(f"| {key} | {units[key]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
