"""Command-line runner: artifacts, exit codes, determinism, --check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigidkit as rk
from rigidkit.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from rigidkit.jsonio import load_json

from conftest import case_study_scenario_dict, triangle_scenario_dict, write_scenario


def run(args):
    return main([str(a) for a in args])


def run_python(*args):
    """A fresh interpreter that imports the rigidkit under test."""
    paths = [str(Path(rk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.fixture()
def triangle_file(tmp_path):
    return write_scenario(tmp_path / "triangle.json", triangle_scenario_dict())


@pytest.fixture()
def case_file(tmp_path):
    return write_scenario(tmp_path / "case.json", case_study_scenario_dict())


def test_analyze_triangle(tmp_path, triangle_file):
    out = tmp_path / "run"
    assert run(["analyze", triangle_file, "--out", out]) == EXIT_OK
    report = load_json(out / "report.json")
    assert report["classification"] == "minimally_rigid"
    assert report["rank"] == 3
    assert report["dims"]["flex"] == 3
    for name in ["report.json", "rigidity_matrix.csv", "subspaces.json", "scenario.json"]:
        assert (out / name).exists()
    manifest = load_json(out / "manifest.json")
    assert "report.json" in manifest["runs"]["analyze"]["files"]


def test_analyze_flexible_cycle(tmp_path):
    data = triangle_scenario_dict(
        n=4,
        edges=[[1, 2], [2, 3], [3, 4], [1, 4]],
        positions=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        sensor=3,
    )
    path = write_scenario(tmp_path / "cycle.json", data)
    out = tmp_path / "run"
    assert run(["analyze", path, "--out", out]) == EXIT_OK
    report = load_json(out / "report.json")
    assert report["classification"] == "flexible"
    assert report["dims"]["flex"] == 4


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert run(["analyze", bad, "--out", tmp_path / "run"]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"edges": [["one", 2], [1, 3], [2, 3]]}, "edges"),
        ({"sim": {"dt": "x"}}, "sim.dt"),
        ({"w0": "ab"}, "w0"),
        ({"sim": [1]}, "sim"),
        ({"tol": [1]}, "tol"),
        ({"edges": [1, 2]}, "edges"),
        ({"actuator": 1.7}, "actuator"),
        ({"n": True}, "n"),
    ],
    ids=["string-edge-index", "string-dt", "string-w0", "sim-list", "tol-list", "edges-flat",
         "fractional-actuator", "bool-n"],
)
def test_malformed_field_exits_2(tmp_path, capsys, overrides, field):
    path = write_scenario(tmp_path / "bad.json", triangle_scenario_dict(**overrides))
    assert run(["analyze", path, "--out", tmp_path / "run"]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}: expected")


@pytest.mark.parametrize("scenario", [triangle_scenario_dict, case_study_scenario_dict])
def test_decompositions_computed_once_per_run(tmp_path, monkeypatch, scenario):
    """``modes`` runs one eigh of A; ``analyze`` one SVD each of R and R^T
    and one of the rigid-body rotation generators; ``dichotomy`` with a
    sweep and the nonlinear run builds R once and runs one eigh of A."""
    counts = {"eigh": 0, "svd": 0, "rigidity_matrix": 0}

    def count(owner, name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("eigh", "svd"):
        count(np.linalg, name, getattr(np.linalg, name))
    build = rk.rigidity.rigidity_matrix
    for module in list(sys.modules.values()):
        if module.__name__.startswith("rigidkit") and getattr(module, "rigidity_matrix", None) is build:
            count(module, "rigidity_matrix", build)
    path = write_scenario(tmp_path / "s.json", scenario())

    def counted_run(*args):
        counts.update(eigh=0, svd=0, rigidity_matrix=0)
        assert run([args[0], path, "--out", tmp_path / "run", *args[1:]]) == EXIT_OK
        return dict(counts)

    modes = counted_run("modes")
    assert modes["eigh"] == 1 and modes["rigidity_matrix"] == 1
    assert counted_run("analyze") == {"eigh": 0, "svd": 3, "rigidity_matrix": 1}
    dichotomy = counted_run("dichotomy", "--sweep", 8, "--nonlinear", "--t-end", 2)
    assert dichotomy["eigh"] == 1 and dichotomy["rigidity_matrix"] == 1


def test_invariant_violation_exits_2(tmp_path, capsys):
    data = triangle_scenario_dict(edges=[[1, 1], [1, 3], [2, 3]])
    path = write_scenario(tmp_path / "selfloop.json", data)
    assert run(["analyze", path, "--out", tmp_path / "run"]) == EXIT_INPUT
    assert "self-loop" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path):
    assert run(["analyze", tmp_path / "nope.json", "--out", tmp_path]) == EXIT_INPUT


def test_modes_triangle(tmp_path, triangle_file):
    out = tmp_path / "run"
    assert run(["modes", triangle_file, "--out", out]) == EXIT_OK
    modes = load_json(out / "modes.json")
    assert modes["uncontrollable_dim"] == 1
    assert sum(modes["mode_report"]["four_way"].values()) == 6
    checks = modes["checks"]
    assert checks["rotation_inclusion"]["holds"]
    assert checks["uncontrollable_split"]["direct_sum_holds"]
    assert checks["existence_bound"]["holds"]
    assert checks["specializations"]["complete_graph"]["applicable"]  # K3 is complete


def test_modes_same_node_records_coincidence(tmp_path):
    path = write_scenario(tmp_path / "same.json", triangle_scenario_dict(sensor=1))
    out = tmp_path / "run"
    assert run(["modes", path, "--out", out]) == EXIT_OK
    modes = load_json(out / "modes.json")
    assert modes["actuator_equals_sensor"]
    assert modes["uncontrollable_equals_unobservable"]


def test_modes_complete_graph_gating(tmp_path, case_file):
    out = tmp_path / "run"
    assert run(["modes", case_file, "--out", out]) == EXIT_OK
    section = load_json(out / "modes.json")["checks"]["specializations"]["complete_graph"]
    assert not section["applicable"]
    assert "complete" in section["reason"]


def test_dichotomy_recovery_artifacts(tmp_path, case_file):
    out = tmp_path / "run"
    assert run(["dichotomy", case_file, "--out", out, "--dt", 0.02, "--t-end", 10]) == EXIT_OK
    outcome = load_json(out / "outcome.json")["outcome"]
    assert outcome["verdict"] == "recovery"
    assert max(abs(e) for e in outcome["simulated_final_edge_errors"]) < 1e-6
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + int(round(10 / 0.02)) + 1  # header + samples
    assert lines[0].startswith("t,p_1x,p_1y,")
    assert lines[0].endswith(",e_5,V")


def test_dichotomy_rejects_non_planar(tmp_path, capsys):
    data = {
        "n": 4,
        "d": 3,
        "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
        "positions": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "actuator": 1,
        "sensor": 2,
        "w0": [1.0, 0.0, 0.0],
        "sim": {"dt": 0.01, "t_end": 1.0, "method": "rk4"},
    }
    path = write_scenario(tmp_path / "three_d.json", data)
    assert run(["dichotomy", path, "--out", tmp_path / "run"]) == EXIT_INPUT
    assert "d=2" in capsys.readouterr().err


def test_dichotomy_nonlinear_flag(tmp_path, case_file):
    out = tmp_path / "run"
    rc = run(["dichotomy", case_file, "--out", out, "--nonlinear", "--dt", 0.02, "--t-end", 5])
    assert rc == EXIT_OK
    assert (out / "trajectory_nonlinear.csv").exists()
    assert "trajectory_nonlinear.csv" in load_json(out / "manifest.json")["runs"]["dichotomy"]["files"]


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_dichotomy_sweep(tmp_path, case_file):
    out = tmp_path / "run"
    assert run(["dichotomy", case_file, "--out", out, "--sweep", 360]) == EXIT_OK
    header, table = read_csv(out / "sweep.csv")
    assert header == ["angle", "alignment", "c_r", "max_final_edge_error"]
    assert table.shape == (360, 4)

    fw = rk.load_scenario(case_file).framework
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    # a linear functional on the circle vanishes at exactly two grid angles
    threshold = np.sin(np.deg2rad(0.5)) * np.linalg.norm(r_i)
    near_zero = np.abs(table[:, 1]) < threshold
    assert near_zero.sum() == 2
    assert table[near_zero, 3].max() < 1e-6

    # at the most aligned angle the error matches the rotation prediction
    worst = int(np.argmax(np.abs(table[:, 1])))
    c_r = table[worst, 2]
    centered = fw.points - fw.points.mean(axis=0)
    rotation_scale = np.sqrt(np.einsum("kd,kd->", centered, centered))
    angle_coef = c_r / rotation_scale
    edge_sq = rk.rigidity_function(fw, fw.positions)
    predicted_max = (angle_coef**2) * edge_sq.max()  # |Omega x| = |x| in the plane
    assert abs(table[worst, 3] - predicted_max) / predicted_max < 0.01


def test_plotdata_artifacts(tmp_path, case_file):
    out = tmp_path / "run"
    assert run(["dichotomy", case_file, "--out", out, "--dt", 0.02, "--t-end", 5]) == EXIT_OK
    assert run(["plotdata", out]) == EXIT_OK

    header, arrows = read_csv(out / "arrows_Ri.csv")
    assert header == ["node", "x", "y", "dx", "dy"]
    actuated = arrows[arrows[:, 0] == 1.0][0]
    assert actuated[3] == 0.0 and actuated[4] == 0.0  # pinned at the actuator

    fw = rk.load_scenario(case_file).framework
    _, tau = read_csv(out / "arrows_Ti.csv")
    assert tau.shape[0] == len(fw.neighbors(0))
    for node, x, y, dx, dy in tau:
        edge = fw.points[int(node) - 1] - fw.points[0]
        assert abs(edge @ [dx, dy]) < 1e-12

    _, errors = read_csv(out / "edge_errors.csv")
    _, traj = read_csv(out / "trajectory.csv")
    assert errors.shape[0] == traj.shape[0]

    plane = load_json(out / "plane.json")
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    assert np.allclose(plane["n_c"], [-r_i[0], -r_i[1], 1.0])


def test_plotdata_missing_run_exits_2(tmp_path, capsys):
    assert run(["plotdata", tmp_path]) == EXIT_INPUT
    assert "missing" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path, case_file):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        assert (
            run(["dichotomy", case_file, "--out", out, "--sweep", 24, "--dt", 0.02, "--t-end", 5])
            == EXIT_OK
        )
        assert run(["analyze", case_file, "--out", out]) == EXIT_OK
    for name in [
        "report.json",
        "rigidity_matrix.csv",
        "subspaces.json",
        "outcome.json",
        "trajectory.csv",
        "sweep.csv",
        "scenario.json",
        "manifest.json",
    ]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_check_mode(tmp_path, triangle_file, capsys):
    out = tmp_path / "run"
    assert run(["analyze", triangle_file, "--out", out]) == EXIT_OK
    assert run(["analyze", triangle_file, "--out", out, "--check"]) == EXIT_OK

    report = (out / "report.json").read_text()
    (out / "report.json").write_text(report.replace('"rank": 3', '"rank": 4'))
    assert run(["analyze", triangle_file, "--out", out, "--check"]) == EXIT_NUMERICAL
    assert "differs" in capsys.readouterr().err

    (out / "report.json").unlink()
    assert run(["analyze", triangle_file, "--out", out, "--check"]) == EXIT_INPUT


def test_divergent_simulation_exits_3(tmp_path, case_file, capsys):
    rc = run(["dichotomy", case_file, "--out", tmp_path / "run", "--dt", 10, "--t-end", 2000])
    assert rc == EXIT_NUMERICAL
    assert "numerical" in capsys.readouterr().err


def test_tolerance_flags_echoed(tmp_path, triangle_file):
    out = tmp_path / "run"
    rc = run(["analyze", triangle_file, "--out", out, "--tol-rank", 1e-9, "--tol-subspace", 1e-7])
    assert rc == EXIT_OK
    report = load_json(out / "report.json")
    assert report["tolerances"] == {"rank": 1e-9, "subspace": 1e-7}


def test_env_var_output_dir(tmp_path, triangle_file, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("RIGIDKIT_OUT", str(target))
    assert run(["analyze", triangle_file]) == EXIT_OK
    assert (target / "report.json").exists()


def test_module_entry_point(tmp_path, triangle_file):
    proc = run_python("-m", "rigidkit.cli", "analyze", str(triangle_file), "--out", str(tmp_path / "run"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "report.json").exists()


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_scipy():
    code = "import sys, rigidkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SHORT_SIM = {"dichotomy": ["--dt", 0.02, "--t-end", 2]}


def record_and_check(case_file, out, command, edit):
    """Record ``command``'s artifacts, apply ``edit`` to them, then --check."""
    extra = SHORT_SIM.get(command, [])
    assert run([command, case_file, "--out", out, *extra]) == EXIT_OK
    edit(out)
    return run([command, case_file, "--out", out, "--check", *extra])


def edit_csv(name, row, col, edit):
    def apply(out):
        path = out / name
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return apply


def scale_cell(factor):
    return lambda cell: format(float(cell) * factor, ".17g")


def edit_json(name, *keys, value=None, factor=None):
    """Set, or scale by ``factor``, the value at ``keys`` inside a JSON artifact."""
    def apply(out):
        data = load_json(out / name)
        parent = data
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = parent[keys[-1]] * factor if factor is not None else value
        (out / name).write_text(json.dumps(data))
    return apply


def drop_last_row(name):
    def apply(out):
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join(lines[:-1]) + "\n")
    return apply


WITHIN = 1 + 5e-10  # inside the 1e-9 relative tolerance
BEYOND = 1 + 1e-7


@pytest.mark.parametrize(
    "command, edit",
    [
        ("analyze", edit_csv("rigidity_matrix.csv", 1, 2, scale_cell(WITHIN))),
        ("analyze", edit_json("subspaces.json", "flex", 0, 0, factor=WITHIN)),
        ("modes", edit_json("modes.json", "checks", "uncontrollable_split", "component_principal_angles", 0, factor=WITHIN)),
        ("dichotomy", edit_csv("trajectory.csv", 3, 1, scale_cell(WITHIN))),
    ],
    ids=["csv-cell", "json-nested", "json-deep-angle", "csv-trajectory-cell"],
)
def test_check_accepts_perturbation_within_tolerance(tmp_path, case_file, command, edit):
    assert record_and_check(case_file, tmp_path / "run", command, edit) == EXIT_OK


@pytest.mark.parametrize(
    "command, name, edit",
    [
        ("analyze", "rigidity_matrix.csv", edit_csv("rigidity_matrix.csv", 1, 2, scale_cell(BEYOND))),
        ("analyze", "rigidity_matrix.csv", edit_csv("rigidity_matrix.csv", 0, 0, lambda cell: "p_1X")),
        ("analyze", "report.json", edit_json("report.json", "dims", "flex", value=4)),
        ("analyze", "subspaces.json", edit_json("subspaces.json", "flex", 0, 0, factor=BEYOND)),
        ("modes", "modes.json", edit_json("modes.json", "actuator_equals_sensor", value=True)),
        ("modes", "modes.json", edit_json("modes.json", "checks", "rotation_inclusion", "holds", value=False)),
        ("modes", "modes.json", edit_json("modes.json", "checks", "uncontrollable_split", "component_principal_angles", 0, factor=BEYOND)),
        ("dichotomy", "trajectory.csv", edit_csv("trajectory.csv", 3, 1, scale_cell(BEYOND))),
        ("dichotomy", "trajectory.csv", drop_last_row("trajectory.csv")),
    ],
    ids=["csv-cell", "csv-header", "json-int", "json-nested", "json-bool", "json-nested-bool",
         "json-deep-angle", "csv-trajectory-cell", "csv-row-dropped"],
)
def test_check_rejects_changes_beyond_tolerance(tmp_path, case_file, capsys, command, name, edit):
    assert record_and_check(case_file, tmp_path / "run", command, edit) == EXIT_NUMERICAL
    assert f"{name} differs" in capsys.readouterr().err
