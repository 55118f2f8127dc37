"""End-to-end benchmark of the rigidkit CLI.

    python3 benchmark/run.py --workload case-study --seed 1 --seconds 60 --trace 0

Run from a source checkout. With ``--trace 0`` every CLI call is a fresh
``python -m rigidkit.cli`` process started from ``src/``, one at a time (a
closed loop with one client). A pass sends every scenario of the workload
through ``analyze``, ``modes``, ``dichotomy`` and ``plotdata``, then through
``--check`` of each. A timed round repeats the calls of a pass (``ROUNDS``
says how often, per workload and command), spread over the round, so that
each metric rests on several calls; rounds repeat while another fits in
``--seconds``. Each metric is a per-pass total: the sum over the pass's
calls of each call's median time over the run. Every artifact is checked
against ``oracle.py``. With ``--trace 1`` the calls of one pass go through
``rigidkit.cli.main`` in-process with the layers traced (``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. One operation is one CLI call plus
the check of its output; an operation fails when the call exits non-zero or
writes a traceback, and ``correct`` turns false when the output of a call
that did not fail is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
TMP = WORK / "tmp"  # --check writes its fresh copy here, inside the checkout
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
COMMANDS = ("analyze", "modes", "dichotomy", "plotdata")
# workload -> calls per timed round: how often each write command runs, and
# "check", how often the --check calls of a pass run. The machine's speed
# drifts by tens of per cent over seconds, so a metric that rests on a few
# seconds of calls spreads widely from run to run: each metric gets 6 to 25
# seconds of calls per round, and a round (40-55 s) fits in a 60 s run.
ROUNDS = {
    "case-study": {"analyze": 3, "modes": 3, "dichotomy": 2, "plotdata": 3, "check": 1},
    "large-n": {"analyze": 3, "modes": 3, "dichotomy": 3, "plotdata": 3, "check": 2},
    "long-horizon": {"analyze": 6, "modes": 6, "dichotomy": 3, "plotdata": 4, "check": 1},
}

END_TO_END = {
    "setup_s": "s", "workload_s": "s", "analyze_s": "s", "modes_s": "s",
    "dichotomy_s": "s", "plotdata_s": "s", "check_s": "s", "peak_rss_mb": "MB",
}


@dataclass
class Call:
    command: str
    check: bool
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mb: float = 0.0


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    env.pop("RIGIDKIT_OUT", None)
    return env


class Spawner:
    """The small process that starts every CLI call of a run (see spawn.py)."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     cwd=ROOT, env=cli_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> Call:
        """One CLI process; wall time from spawn to reaping, peak RSS from wait4."""
        out, err = self.logs / "stdout", self.logs / "stderr"
        request = {"argv": [sys.executable, "-m", "rigidkit.cli", *args], "cwd": str(ROOT),
                   "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Call(args[0], "--check" in args, reply["returncode"], out.read_text(encoding="utf-8"),
                    err.read_text(encoding="utf-8"), reply["seconds"], reply["maxrss_kb"] / 1024.0)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_inprocess(main, args: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            code = 1
    return Call(args[0], "--check" in args, code, out.getvalue(), err.getvalue(),
                time.perf_counter() - start)


def write_argvs(sc: workloads.Scenario, scenario_dir: Path, out_root: Path) -> dict[str, list[str]]:
    out = str(out_root / sc.name)
    path = str(scenario_dir / f"{sc.name}.json")
    return {
        "analyze": ["analyze", path, "--out", out],
        "modes": ["modes", path, "--out", out],
        "dichotomy": ["dichotomy", path, *sc.dichotomy_flags, "--out", out],
        "plotdata": ["plotdata", out],
    }


def pass_calls(workload: workloads.Workload, scenario_dir: Path, out_root: Path):
    """(scenario, argv) for every call of one pass, in order."""
    for sc in workload.scenarios:
        argvs = list(write_argvs(sc, scenario_dir, out_root).values())
        for argv in argvs + [a + ["--check"] for a in argvs]:
            yield sc, argv


def round_calls(workload: workloads.Workload, scenario_dir: Path, out_root: Path):
    """(scenario, argv) for every call of one timed round, in order.

    The round is a number of sweeps over the scenarios. A write command
    repeated k times runs in k sweeps spread from the first to the last, so
    every command runs in the first sweep and each call finds the files it
    reads. The ``--check`` calls of a pass run after k sweeps spread evenly
    over the round.
    """
    repeats = ROUNDS[workload.name]
    sweeps = max(repeats.values())
    runs_in = {c: {round(j * (sweeps - 1) / max(k - 1, 1)) for j in range(k)}
               for c, k in repeats.items() if c != "check"}
    checks_after = [(2 * j + 1) * sweeps // (2 * repeats["check"]) for j in range(repeats["check"])]
    for sweep in range(sweeps):
        for sc in workload.scenarios:
            for command, argv in write_argvs(sc, scenario_dir, out_root).items():
                if sweep in runs_in[command]:
                    yield sc, argv
        for _ in range(checks_after.count(sweep)):
            for sc in workload.scenarios:
                for argv in write_argvs(sc, scenario_dir, out_root).values():
                    yield sc, argv + ["--check"]


class Tally:
    """Operations attempted and failed, plus the checks that found wrong output.

    A write call whose files are byte for byte those of an earlier call that
    passed every check (same scenario and command) passes; any other output
    goes through the oracle's checks.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: dict[str, str] = {}
        self.accepted: dict[tuple[str, str], str] = {}

    def add(self, case: oracle.Case, out: Path, call: Call) -> None:
        self.attempted += 1
        status = oracle.Failures()
        oracle.check_call(call, status, call.check)
        if "call.status" in status.found:
            self.failed += 1
            print(f"failed: {call.command}{' --check' if call.check else ''} on "
                  f"{case.scenario.name}: {call.stderr.strip()[-300:]}", file=sys.stderr)
            return
        if not call.check:
            key = (case.scenario.name, call.command)
            digest = output_digest(case, out, call.command)
            if digest is None or self.accepted.get(key) != digest:
                oracle.ARTIFACT_CHECKS[call.command](case, out, status)
                if not status.found and digest is not None:
                    self.accepted[key] = digest
        for name, detail in status.found.items():
            key = f"{case.scenario.name}/{call.command}/{name}"
            if key not in self.wrong:
                self.wrong[key] = detail
                print(f"wrong output: {key}: {detail}", file=sys.stderr)


def output_digest(case: oracle.Case, out: Path, command: str) -> str | None:
    """SHA-256 of a write call's manifest entry and files; None if one is missing."""
    h = hashlib.sha256()
    try:
        h.update(json.dumps(json.loads((out / "manifest.json").read_text())["runs"][command]).encode())
        for name, flag in oracle.WRITES[command].items():
            if flag is None or getattr(case.scenario, flag):
                h.update(name.encode() + b"\0" + (out / name).read_bytes())
    except (OSError, KeyError, ValueError):
        return None
    return h.hexdigest()


def run_pass(workload, scenario_dir: Path, out_root: Path, invoke) -> list[tuple]:
    """Every call of one pass, in order: (scenario, Call). Checks nothing."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    return [(sc, invoke(argv)) for sc, argv in pass_calls(workload, scenario_dir, out_root)]


def check_pass(calls: list[tuple], cases, out_root: Path, tally: Tally) -> list[Call]:
    for sc, call in calls:
        tally.add(cases[sc.name], out_root / sc.name, call)
    return [call for _, call in calls]


def pass_metrics(calls: list[Call]) -> dict[str, float]:
    m = {f"{c}_s": sum(x.seconds for x in calls if x.command == c and not x.check) for c in COMMANDS}
    m["check_s"] = sum(x.seconds for x in calls if x.check)
    m["workload_s"] = sum(x.seconds for x in calls)
    m["peak_rss_mb"] = max(x.peak_rss_mb for x in calls)
    return m


def median_call(calls: list[Call]) -> Call:
    """One call of the pass, with the median time and peak RSS of its repeats."""
    c = calls[0]
    return Call(c.command, c.check, c.returncode, c.stdout, c.stderr,
                statistics.median(x.seconds for x in calls), statistics.median(x.peak_rss_mb for x in calls))


def artifact_bytes(out_root: Path) -> int:
    return sum(p.stat().st_size for p in out_root.rglob("*") if p.is_file())


def setup(name: str, seed: int, work: Path):
    """Generate and write the scenario files; returns (workload, scenario dir)."""
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(name, seed)
    scenario_dir = work / "scenarios"
    scenario_dir.mkdir(parents=True)
    for sc in workload.scenarios:
        (scenario_dir / f"{sc.name}.json").write_text(json.dumps(sc.payload, indent=1), encoding="utf-8")
    return workload, scenario_dir


def measure(name: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, float]:
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(logs)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload, scenario_dir = setup(name, seed, work)
            first = scenario_dir / f"{workload.scenarios[0].name}.json"
            spawner.run(["analyze", str(first), "--out", str(work / "warmup")])
            setups.append(time.perf_counter() - start)
        cases = {sc.name: oracle.Case(sc) for sc in workload.scenarios}

        samples: dict[tuple, list[Call]] = {}  # (scenario, argv) -> its calls, in order
        out_root = work / "pass"
        start, longest, rounds = time.perf_counter(), 0.0, 0
        while True:
            begun = time.perf_counter()
            shutil.rmtree(out_root, ignore_errors=True)
            out_root.mkdir(parents=True)
            for sc, argv in round_calls(workload, scenario_dir, out_root):
                call = spawner.run(argv)
                tally.add(cases[sc.name], out_root / sc.name, call)  # before a repeat rewrites the files
                samples.setdefault((sc.name, tuple(argv)), []).append(call)
            rounds += 1
            longest = max(longest, time.perf_counter() - begun)
            if time.perf_counter() - start + longest > seconds:
                break
    finally:
        spawner.close()
    metrics = pass_metrics([median_call(calls) for calls in samples.values()])
    metrics["setup_s"] = statistics.median(setups)
    print(f"{rounds} round(s), {tally.attempted} operations", file=sys.stderr)
    return metrics


def measure_traced(name: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict[str, float]:
    workload, scenario_dir = setup(name, seed, work)
    cases = {sc.name: oracle.Case(sc) for sc in workload.scenarios}
    imports = [tracing.import_times(ROOT, cli_env()) for _ in range(IMPORT_REPEATS)]
    cli = tracing.import_rigidkit(SRC)
    out_root = work / "pass"

    def one_pass(tracer=None) -> float:
        if tracer is not None:
            tracer.install()
        try:
            calls = run_pass(workload, scenario_dir, out_root, lambda a: run_inprocess(cli.main, a))
        finally:
            if tracer is not None:
                tracer.uninstall()
        # checked untraced, so the oracle's own numpy calls stay out of the counts
        return sum(c.seconds for c in check_pass(calls, cases, out_root, tally))

    # untraced first: it also takes the first-call costs, so they do not count as overhead
    plain, walls, layers = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(one_pass())
        tracer = tracing.Tracer()
        walls.append(one_pass(tracer))
        layers.append({**tracer.values, "cli.artifact_bytes": artifact_bytes(out_root)})
        if time.perf_counter() - start + (time.perf_counter() - begun) > seconds:
            break
    tracer.dump(work / "spans.json")
    metrics = {}
    for key in tracing.PER_LAYER:
        if key.startswith("import."):
            metrics[key] = statistics.median(i[key] for i in imports)
        elif key != "trace.overhead_s":
            metrics[key] = statistics.median(v.get(key, 0.0) for v in layers)
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rigidkit" / "cli.py").is_file():
        print(f"error: no rigidkit source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    work = WORK / args.workload
    TMP.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(TMP)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(args.workload, args.seed, args.seconds, work, tally)
        units = tracing.PER_LAYER
    else:
        metrics = measure(args.workload, args.seed, args.seconds, work, tally)
        units = END_TO_END
    for key, unit in units.items():
        print(f"{key:32s} {metrics[key]:14.6f} {unit}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}, "
          f"wrong outputs {len(tally.wrong)}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
