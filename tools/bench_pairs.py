"""Alternating parent/change pairs of the repository benchmark, written to a
``BENCH_<n>.json`` file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload case-study --workload large-n --seeds 61-70 \\
        --claim case-study:peak_rss_mb --out BENCH_22.json

Each side runs from a ``git archive`` of its revision, extracted under
``--work`` (default: a new temporary directory), through its own
``benchmark/run.py``. Seed N runs once per side and workload, one run at a
time: odd seeds run the parent first, even seeds the change first. The
output file is rewritten after every pair, so a run that is stopped keeps
the pairs it finished.

The summary of each workload gives, per metric, the median and quartiles
(inclusive method) of each side, ``change_wins`` (pairs in which the change
is better, in the direction ``BENCHMARK.json`` gives), ``median_drop`` (how
much better the change's median is) and ``parent_iqr``. A claimed metric
holds when the change wins at least 9 pairs in 10 and its median drop is
larger than the parent's interquartile range; the verdict is printed.
A metric with a ``bound`` in ``BENCHMARK.json`` also gets ``worsening``,
how much worse the change's median is relative to the parent's (the
relative form in which ``benchmark/README.md`` states spreads; negative
when it is better), and ``bound``. A workload's "no regression" holds when
no such metric's worsening exceeds its bound; one line per workload says
whether it holds.

Before the pairs, the file records the machine's floor: the median wall
time of ``FLOOR_SPAWNS`` sequential spawns of each of ``python -c pass``,
``python -S -c pass`` and ``python -c "import numpy"``, and the caller's
``PYTHONDONTWRITEBYTECODE`` and ``OPENBLAS_NUM_THREADS``, and
``src_lines``: the total line count of ``src/rigidkit/*.py`` in each
extracted tree, as ``wc -l`` gives it. Every timed call
pays the floor, and with ``PYTHONDONTWRITEBYTECODE`` set each call compiles
rigidkit from source, so its time and peak memory move with the source.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = "python3 benchmark/run.py --workload {workload} --seed N --seconds {seconds} --trace {trace}"
FLOOR = {"python -c pass": ["-c", "pass"], "python -S -c pass": ["-S", "-c", "pass"],
         'python -c "import numpy"': ["-c", "import numpy"]}
FLOOR_SPAWNS = 11


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` as ``git archive`` gives it, written to ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def src_lines(tree: Path) -> int:
    """Lines of ``src/rigidkit/*.py`` in ``tree``, summed: newlines, as ``wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "rigidkit").glob("*.py"))


def seeds(text: str) -> list[int]:
    """``61-70`` or ``61,63,65``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_one(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result that ``benchmark/run.py`` prints last."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def worsening(drop: float, parent_median: float) -> float:
    """How much worse the change's median is, relative to the parent's."""
    if parent_median:
        return -drop / abs(parent_median)
    return 0.0 if drop >= 0 else math.inf


def summarize(runs: list[dict], spec: dict[str, dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: {r["seed"]: r["result"] for r in runs if r["workload"] == workload and r["side"] == side}
                 for side in ("parent", "change")}
        paired = sorted(set(sides["parent"]) & set(sides["change"]))
        results = [sides[side][seed] for side in sides for seed in paired]
        if not paired:
            continue
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = {side: [sides[side][seed]["metrics"][name]["value"] for seed in paired] for side in sides}
            sign = -1.0 if spec.get(name, {}).get("better", "lower") == "lower" else 1.0
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            drop = sign * (change["median"] - parent["median"])
            metrics[name] = {
                "unit": first["unit"],
                "parent": parent,
                "change": change,
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
                "median_drop": drop,
                "parent_iqr": parent["q3"] - parent["q1"],
            }
            if "bound" in spec.get(name, {}):
                metrics[name]["worsening"] = worsening(drop, parent["median"])
                metrics[name]["bound"] = spec[name]["bound"]
        summary[workload] = {
            "pairs": len(paired),
            "correct": all(r["correct"] for r in results),
            "failed": sorted({r["failed"] for r in results}),
            "attempted": sorted({r["attempted"] for r in results}),
            "metrics": metrics,
        }
    return summary


def no_regression(entry: dict) -> bool:
    """No bounded metric's median is worse than the parent's beyond its bound."""
    return all(m["worsening"] <= m["bound"] for m in entry["metrics"].values() if "bound" in m)


def holds(metric: dict, pairs: int) -> bool:
    """At least 9 wins in 10 pairs, and a median drop above the parent IQR."""
    return metric["change_wins"] >= math.ceil(0.9 * pairs) and metric["median_drop"] > metric["parent_iqr"]


def floor() -> dict[str, float]:
    """Median wall time, in seconds, of ``FLOOR_SPAWNS`` sequential spawns of
    each ``FLOOR`` command."""
    medians = {}
    for name, args in FLOOR.items():
        times = []
        for _ in range(FLOOR_SPAWNS):
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], check=True)
            times.append(time.perf_counter() - start)
        medians[name] = statistics.median(times)
    return medians


def numpy_version() -> str:
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="change revision")
    parser.add_argument("--workload", action="append", required=True, help="repeat for each workload")
    parser.add_argument("--seeds", type=seeds, required=True, help="61-70, or 61,63,65")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", action="append", default=[], help="workload:metric, repeatable")
    parser.add_argument("--description", default="")
    parser.add_argument("--work", type=Path, default=None, help="where the two trees are extracted")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    work = args.work or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    revs = {side: git("rev-parse", "--short", getattr(args, side)).decode().strip() for side in ("parent", "change")}
    trees = {side: work / f"{side}-{rev}" for side, rev in revs.items()}
    for side, tree in trees.items():
        if not tree.exists():
            extract(revs[side], tree)
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"]}

    report = {
        "description": args.description,
        "command": RUN.format(workload="{" + ",".join(args.workload) + "}", seconds=f"{args.seconds:g}",
                              trace=args.trace),
        "parent": revs["parent"],
        "change": revs["change"],
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "machine": f"{os.cpu_count()}-core {platform.system()}, Python {platform.python_version()}, "
                   f"numpy {numpy_version()}",
        "pairing": f"seed N runs once per side and workload; odd seeds run the parent first, even seeds the "
                   f"change first; seeds {args.seeds[0]}-{args.seeds[-1]}. Each side ran from a git archive "
                   f"of its revision, through its own benchmark/.",
        "floor_s": floor(),
        "environment": {name: os.environ.get(name) for name in ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")},
        "runs": [],
        "summary": {},
    }
    for seed in args.seeds:
        for workload in args.workload:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_one(trees[side], workload, seed, args.seconds, args.trace)
                report["runs"].append({"side": side, "workload": workload, "seed": seed,
                                       "trace": args.trace, "result": result})
                print(f"seed {seed} {workload} {side}: peak {result['metrics']['peak_rss_mb']['value']:.2f} MB, "
                      f"correct {result['correct']}, failed {result['failed']}", flush=True)
            report["summary"] = summarize(report["runs"], metric_spec)
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for workload, entry in report["summary"].items():
        print(f"\n{workload}: {entry['pairs']} pairs, correct {entry['correct']}, failed {entry['failed']}")
        for name, m in entry["metrics"].items():
            bounded = f"  worse {m['worsening']:+.3f} (bound {m['bound']:g})" if "bound" in m else ""
            print(f"  {name:12} parent {m['parent']['median']:9.4f}  change {m['change']['median']:9.4f}  "
                  f"wins {m['change_wins']:2}  drop {m['median_drop']:+.4f}  parent IQR {m['parent_iqr']:.4f}"
                  f"{bounded}")
        print(f"  no regression: {'holds' if no_regression(entry) else 'fails'} "
              f"(no median worse than the parent's by more than its bound)")
    verdicts = []
    for claim in args.claim:
        workload, name = claim.split(":")
        entry = report["summary"][workload]
        verdicts.append(holds(entry["metrics"][name], entry["pairs"]))
        print(f"claim {claim}: {'holds' if verdicts[-1] else 'does not hold'} "
              f"(at least {math.ceil(0.9 * entry['pairs'])} wins in {entry['pairs']} pairs, "
              f"and a median drop above the parent IQR)")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
