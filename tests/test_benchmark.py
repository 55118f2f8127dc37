"""One pass of the benchmark's workloads, checked by its independent oracle.

``benchmark/oracle.py`` recomputes every artifact with numpy alone (the
closed-form Jacobian, PBH and Kalman counts, the rotation theorems, the
closed-form RK4 rows and sweep tails, the nonlinear steps). This runs the
calls of one pass in-process, as ``benchmark/run.py --trace 1`` does, and
requires every call to succeed and every output to pass those checks.
"""

import importlib
import sys
import warnings
from pathlib import Path

import pytest

from rigidkit import cli

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture(scope="module")
def bench():
    """``benchmark/run.py``, which imports its sibling modules by name."""
    sys.path.insert(0, str(BENCHMARK))
    try:
        return importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCHMARK))


@pytest.mark.parametrize("workload", ["case-study", "large-n"])
def test_one_benchmark_pass_passes_the_oracle(tmp_path, bench, workload):
    load, scenario_dir = bench.setup(workload, 1, tmp_path / "work")
    out_root = tmp_path / "pass"
    # the CLI runs with Python's default warning filters; the flexible
    # framework notice is a warning, not a failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        calls = bench.run_pass(load, scenario_dir, out_root, lambda argv: bench.run_inprocess(cli.main, argv))
    cases = {sc.name: bench.oracle.Case(sc) for sc in load.scenarios}
    tally = bench.Tally()
    bench.check_pass(calls, cases, out_root, tally)
    assert tally.attempted == len(calls) == 8 * len(load.scenarios)
    assert tally.failed == 0
    assert tally.wrong == {}
