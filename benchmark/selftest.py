"""Self-test of the output checks in ``oracle.py``.

    python3 benchmark/selftest.py

Runs one pass of ``case-study`` and ``long-horizon`` through the CLI
in-process and requires every check to pass on the program's real output.
Then, for every check in ``oracle.CHECKS``, it corrupts one artifact (or one
call result) in a copy of the run and requires that check to fail. Exits 1
if the clean run fails a check, a corruption goes unnoticed, or a check has
no corruption.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
import run
import tracing

WORK = run.WORK / "selftest"
SEED = 1


def edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    fn(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def edit_csv(path: Path, fn) -> None:
    header, data = oracle.read_csv(path)
    fn(data)
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bump(value: float, by: float = 1e-6) -> float:
    return value + by


def _flip_verdict(d):
    d["outcome"]["verdict"] = {"recovery": "distortion"}.get(d["outcome"]["verdict"], "recovery")


def _add(key_path: list[str], by):
    def fn(d):
        for k in key_path[:-1]:
            d = d[k]
        d[key_path[-1]] = by(d[key_path[-1]])
    return fn


def _rbm_dim_two(d):
    split = d["checks"]["uncontrollable_split"]
    split["rbm_component_dim"] += 1
    split["deformation_component_dim"] -= 1


def _perturb(row: int, col: int, by: float = 1e-6):
    def fn(a):
        a[row, col] += by
    return fn


def _raise_potential(a):
    a[10, -1] = a[9, -1] * 1.5


# check name -> (workload, scenario, file or None for a call result, mutation, what it does)
CORRUPTIONS = {
    "manifest": ("case-study", "triangle", "manifest.json",
                 lambda d: d["runs"]["analyze"]["files"].pop(), "drop a file from the analyze entry"),
    "analyze.jacobian": ("case-study", "triangle", "rigidity_matrix.csv", _perturb(0, 0), "perturb one entry"),
    "analyze.report": ("case-study", "square_diagonal", "report.json",
                       _add(["rank"], lambda v: v + 1), "alter the rank"),
    "analyze.flex": ("case-study", "four_cycle", "subspaces.json",
                     lambda d: d["flex"][3].__setitem__(0, _bump(d["flex"][3][0])), "perturb a flex entry"),
    "analyze.self_stress": ("case-study", "triangle", "subspaces.json",
                            lambda d: d["self_stress"].append([1.0, 0.0, 0.0]), "add a self-stress"),
    "analyze.deformation": ("case-study", "triangle", "subspaces.json",
                            lambda d: d["deformation"][0].__setitem__(1, _bump(d["deformation"][0][1])),
                            "perturb a deformation entry"),
    "analyze.rbm": ("case-study", "triangle", "subspaces.json",
                    lambda d: d["rbm_rotations"][0].__setitem__(0, _bump(d["rbm_rotations"][0][0])),
                    "perturb the rotation mode"),
    "modes.spectrum": ("case-study", "square_diagonal", "modes.json",
                       lambda d: d["mode_report"]["eigenvalues"][0].__setitem__(
                           "value", d["mode_report"]["eigenvalues"][0]["value"] * 1.001),
                       "scale one eigenvalue"),
    "modes.pbh": ("case-study", "triangle", "modes.json",
                  _add(["uncontrollable_dim"], lambda v: v + 1), "alter the uncontrollable dim"),
    "modes.krylov": ("case-study", "four_cycle", "modes.json",
                     _add(["unobservable_dim"], lambda v: v - 1), "alter the unobservable dim"),
    "modes.four_way": ("case-study", "four_cycle", "modes.json",
                       _add(["mode_report", "four_way", "controllable_observable"], lambda v: v - 1),
                       "alter the four-way total"),
    "modes.split": ("case-study", "square_diagonal", "modes.json",
                    _add(["checks", "uncontrollable_split", "direct_sum_holds"], lambda v: False),
                    "deny the direct sum"),
    "theorem.rbm_rotation": ("long-horizon", "case4_default_sim", "modes.json", _rbm_dim_two,
                             "claim two hidden rigid-body modes"),
    "theorem.existence": ("case-study", "triangle", "modes.json",
                          _add(["checks", "existence_bound", "holds"], lambda v: False), "deny the bound"),
    "theorem.characterization": ("case-study", "square_diagonal", "modes.json",
                                 _add(["checks", "rotation_characterization", "matches"], lambda v: False),
                                 "deny the characterization"),
    "theorem.inclusion": ("case-study", "four_cycle", "modes.json",
                          _add(["checks", "rotation_inclusion", "holds"], lambda v: False), "deny R_i in T_i"),
    "dichotomy.verdict": ("case-study", "square_diagonal", "outcome.json", _flip_verdict, "flip the verdict"),
    "dichotomy.alignment": ("case-study", "triangle", "outcome.json",
                            _add(["outcome", "alignment"], lambda v: v + 1e-3), "alter the alignment"),
    "dichotomy.steady_state": ("case-study", "four_cycle", "outcome.json",
                               lambda d: d["outcome"]["steady_state"].__setitem__(
                                   0, _bump(d["outcome"]["steady_state"][0])), "perturb the steady state"),
    "dichotomy.final": ("case-study", "triangle", "outcome.json",
                        lambda d: d["outcome"]["simulated_edge_sq_lengths"].__setitem__(
                            0, _bump(d["outcome"]["simulated_edge_sq_lengths"][0])),
                        "perturb a final edge length"),
    "dichotomy.converged": ("long-horizon", "case4_default_sim", "outcome.json",
                            _add(["outcome", "coefficients", "c_r"], lambda v: v * 1.001), "scale c_r"),
    "trajectory.rows": ("case-study", "square_diagonal", "trajectory.csv", _perturb(10, 1),
                        "perturb a trajectory row"),
    "trajectory.columns": ("long-horizon", "case4_default_sim", "trajectory.csv", _perturb(100, -1),
                           "perturb the potential column"),
    "sweep": ("long-horizon", "case4_default_sim", "sweep.csv", _perturb(7, 3), "perturb a sweep row"),
    "nonlinear.steps": ("case-study", "triangle", "trajectory_nonlinear.csv", _perturb(50, 2),
                        "perturb a nonlinear row"),
    "nonlinear.potential": ("case-study", "four_cycle", "trajectory_nonlinear.csv", _raise_potential,
                            "raise the potential"),
    "plotdata.arrows_Ri": ("case-study", "square_diagonal", "arrows_Ri.csv",
                           lambda a: a.__setitem__((1, 4), -a[1, 4]), "flip one arrow"),
    "plotdata.arrows_Ti": ("case-study", "triangle", "arrows_Ti.csv", _perturb(0, 4), "perturb a tangent"),
    "plotdata.edge_errors": ("long-horizon", "case4_default_sim", "edge_errors.csv", _perturb(3, 2),
                             "perturb an edge error"),
    "plotdata.plane": ("case-study", "triangle", "plane.json",
                       lambda d: d["recovery_line"].__setitem__(2, 1e-6), "tilt the recovery line"),
    "call.status": ("case-study", "triangle", None,
                    run.Call("modes", False, 3, "", "numerical failure: x", 0.0), "exit code 3"),
    "check.passed": ("case-study", "triangle", None,
                     run.Call("modes", True, 0, "", "", 0.0), "no 'check passed' line"),
}

# the command whose check reads each file; every command updates manifest.json,
# and its analyze entry is the one corrupted
COMMAND_OF = {name: command for command, files in oracle.WRITES.items() for name in files}
COMMAND_OF["manifest.json"] = "analyze"


def main() -> int:
    if not (run.SRC / "rigidkit" / "cli.py").is_file():
        print(f"error: no rigidkit source tree at {run.SRC}", file=sys.stderr)
        return 2
    run.TMP.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(run.TMP)
    cli = tracing.import_rigidkit(run.SRC)
    cases, outs, ok = {}, {}, True
    for name in {w for w, *_ in CORRUPTIONS.values()}:
        workload, scenario_dir = run.setup(name, SEED, WORK / name)
        tally = run.Tally()
        cs = {sc.name: oracle.Case(sc) for sc in workload.scenarios}
        calls = run.run_pass(workload, scenario_dir, WORK / name / "pass",
                             lambda a: run.run_inprocess(cli.main, a))
        run.check_pass(calls, cs, WORK / name / "pass", tally)
        clean = tally.failed == 0 and not tally.wrong
        ok &= clean
        print(f"{'ok ' if clean else 'BAD'} clean {name}: {tally.attempted} operations, "
              f"{tally.failed} failed, {len(tally.wrong)} wrong")
        for sc in workload.scenarios:
            cases[sc.name] = cs[sc.name]
            outs[sc.name] = WORK / name / "pass" / sc.name

    for check, (_, scenario, artifact, mutate, what) in CORRUPTIONS.items():
        found = oracle.Failures()
        if artifact is None:
            oracle.check_call(mutate, found, mutate.check)
        else:
            copy = WORK / "corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(outs[scenario], copy)
            (edit_csv if artifact.endswith(".csv") else edit_json)(copy / artifact, mutate)
            oracle.ARTIFACT_CHECKS[COMMAND_OF[artifact]](cases[scenario], copy, found)
        hit = check in found.found
        ok &= hit
        others = sorted(set(found.found) - {check})
        print(f"{'ok ' if hit else 'BAD'} {check:26s} {scenario}/{artifact or 'call'}: {what}"
              + (f" (also {', '.join(others)})" if others else ""))
    missing = sorted(set(oracle.CHECKS) - set(CORRUPTIONS))
    if missing:
        ok = False
        print(f"BAD checks without a corruption: {', '.join(missing)}")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
