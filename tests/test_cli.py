"""Command-line runner: artifacts, exit codes, determinism, --check."""

import ast
import contextlib
import filecmp
import importlib
import io
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import rigidkit as rk
from rigidkit import cli, jsonio
from rigidkit.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, main
from rigidkit.jsonio import NonFiniteError, dump_json, dumps_json, format_float, load_json

from conftest import (
    case_study_scenario_dict,
    lattice_scenario_dict,
    system_of,
    triangle_scenario_dict,
    whole_table,
    write_scenario,
)


def run(args):
    return main([str(a) for a in args])


def python_env(**overrides):
    """The environment of a fresh interpreter that imports the rigidkit under
    test; each keyword sets a variable, or removes it when ``None``."""
    paths = [str(Path(rk.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_python(*args, **env):
    """A fresh interpreter that imports the rigidkit under test, with the
    environment changes of :func:`python_env`."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env(**env))


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


@pytest.mark.parametrize("scenario", [triangle_scenario_dict, case_study_scenario_dict, lattice_scenario_dict])
def test_decompositions_computed_once_per_run(tmp_path, monkeypatch, scenario):
    """``modes`` runs no eigh (A's eigenpairs come from the SVD of R) and
    builds R, R_i, T_i and the classification once each, and fewer than 50
    subspaces in all (none per eigenvalue group: the n = 120 lattice has 238
    groups) and, on that lattice, whose actuator is its sensor, fewer than
    300 SVDs: one pinning per group, not one per group for each of the node
    sets (i,) and (i, i); ``analyze`` one SVD of R, which gives the
    self-stresses too, and one of the rigid-body rotation generators;
    ``dichotomy`` with a sweep and the nonlinear run builds R once, runs no
    eigh, one SVD of R and one of the rotation generators.

    Every rigidkit module is imported before anything is patched: a module
    first imported under the patch would keep the counting wrapper of this
    case after ``monkeypatch`` undoes it, and a later case would count into
    a stale dict."""
    for info in pkgutil.iter_modules(rk.__path__):
        importlib.import_module(f"rigidkit.{info.name}")
    built = ("rigidity_matrix", "classify_rigidity", "global_rotation_subspace", "local_rotation_subspace")
    counts = dict.fromkeys(("eigh", "svd", *built), 0)
    subspaces = []  # one entry per Subspace built
    post_init = rk.Subspace.__post_init__

    def counted_post_init(self):
        subspaces.append(1)
        post_init(self)

    monkeypatch.setattr(rk.Subspace, "__post_init__", counted_post_init)

    def count(owner, name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("eigh", "svd"):
        count(np.linalg, name, getattr(np.linalg, name))
    for name in built:
        fn = getattr(rk, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("rigidkit") and getattr(module, name, None) is fn:
                count(module, name, fn)
    path = write_scenario(tmp_path / "s.json", scenario())

    def counted_run(*args):
        counts.update(dict.fromkeys(counts, 0))
        subspaces.clear()
        assert run([args[0], path, "--out", tmp_path / "run", *args[1:]]) == EXIT_OK
        return dict(counts)

    modes = counted_run("modes")
    assert modes["eigh"] == 0 and all(modes[name] == 1 for name in built), modes
    if scenario is lattice_scenario_dict:
        assert modes["svd"] < 300, modes
    assert len(subspaces) < 50, len(subspaces)
    no_rotations = {"classify_rigidity": 1, "global_rotation_subspace": 0, "local_rotation_subspace": 0}
    assert counted_run("analyze") == {"eigh": 0, "svd": 2, "rigidity_matrix": 1, **no_rotations}
    dichotomy = counted_run("dichotomy", "--sweep", 8, "--nonlinear", "--t-end", 2)
    assert dichotomy == {"eigh": 0, "svd": 2, "rigidity_matrix": 1, **no_rotations}


def test_invariant_violation_exits_2(tmp_path, capsys):
    data = triangle_scenario_dict(edges=[[1, 1], [1, 3], [2, 3]])
    path = write_scenario(tmp_path / "selfloop.json", data)
    assert run(["analyze", path, "--out", tmp_path / "run"]) == EXIT_INPUT
    assert "self-loop" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path):
    assert run(["analyze", tmp_path / "nope.json", "--out", tmp_path]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["analyze", "modes"])
@pytest.mark.parametrize("flag", ["--dt", "--t-end"])
def test_sim_flags_refused_where_nothing_simulates(tmp_path, capsys, triangle_file, command, flag):
    """Only ``dichotomy`` simulates, so only it takes ``--dt`` and ``--t-end``;
    elsewhere argparse refuses them with exit 2 and writes nothing."""
    with pytest.raises(SystemExit) as exc:
        run([command, triangle_file, "--out", tmp_path / "run", flag, 0.1])
    assert exc.value.code == EXIT_INPUT
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"unrecognized arguments: {flag} 0.1")
    assert not (tmp_path / "run").exists()


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


def refused_dichotomy(capsys, case_file, out, *flags):
    """Exit code and the one stderr line of a dichotomy call."""
    capsys.readouterr()
    code = run(["dichotomy", case_file, "--out", out, *flags])
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return code, line


@pytest.mark.parametrize(
    "flags, what",
    [
        (["--sweep", 1_000_000_000_000], "sweep: 1000000000000 x 8 floats take 64000000000000 bytes"),
        (["--t-end", 1e9, "--dt", 1e-3], "trajectory: 1000000000001 x 8 floats take 64000000000064 bytes"),
    ],
)
def test_dichotomy_refuses_tables_over_the_budget_before_any_write(tmp_path, capsys, case_file, flags, what):
    """Sizes that would take terabytes are refused from the scenario's
    shape alone: nothing is allocated, and the output directory is never
    made."""
    out = tmp_path / "run"
    code, line = refused_dichotomy(capsys, case_file, out, *flags)
    assert (code, line) == (EXIT_INPUT, f"error: {what}, over the budget of {cli.ARRAY_BUDGET_BYTES}")
    assert not out.exists()


def test_dichotomy_budget_admits_its_exact_size(tmp_path, capsys, case_file, monkeypatch):
    """The case study with dt 0.02 to t 2 steps 100 times: its trajectory is
    101 x 8 floats and a sweep of 12 angles 12 x 8 (its 5 edges are fewer
    than its 8 coordinates)."""
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 101 * 8 * 8 - 1)
    code, line = refused_dichotomy(capsys, case_file, out, "--dt", 0.02, "--t-end", 2)
    assert (code, line) == (EXIT_INPUT, "error: trajectory: 101 x 8 floats take 6464 bytes, over the budget of 6463")
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 101 * 8 * 8)
    assert run(["dichotomy", case_file, "--out", out, "--dt", 0.02, "--t-end", 2, "--sweep", 12]) == EXIT_OK
    code, line = refused_dichotomy(capsys, case_file, out, "--dt", 0.02, "--t-end", 2, "--sweep", 102)
    assert (code, line) == (EXIT_INPUT, "error: sweep: 102 x 8 floats take 6528 bytes, over the budget of 6464")


def test_dichotomy_negative_sweep_leaves_the_run_untouched(tmp_path, capsys, case_file):
    out = tmp_path / "run"
    assert run(["dichotomy", case_file, "--out", out, "--dt", 0.02, "--t-end", 2]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for flags in (["--sweep", -3], ["--sweep", -3, "--check"]):
        code, line = refused_dichotomy(capsys, case_file, out, "--dt", 0.05, "--t-end", 1, *flags)
        assert (code, line) == (EXIT_INPUT, "error: --sweep: the number of angles must be 0 or positive, got -3")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before



def test_dichotomy_budget_counts_edge_errors_in_the_sweep_only(tmp_path, capsys, monkeypatch):
    """K6 in the plane has 15 edges against 12 coordinates. Its trajectory
    (dt 0.02 to t 2) keeps 101 x 12 states, and its exact edge errors go out
    a block of rows at a time, so the trajectory's table is 101 x 12 floats.
    The sweep holds the edge errors of every angle at once: 16 angles take
    16 x 15 floats."""
    angles = np.arange(6) * np.pi / 3
    k6 = write_scenario(
        tmp_path / "k6.json",
        triangle_scenario_dict(
            n=6,
            edges=[[i, j] for i in range(1, 7) for j in range(i + 1, 7)],
            positions=np.column_stack([np.cos(angles), np.sin(angles)]).tolist(),
        ),
    )
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 101 * 12 * 8 - 1)
    code, line = refused_dichotomy(capsys, k6, out, "--dt", 0.02, "--t-end", 2)
    assert (code, line) == (EXIT_INPUT, "error: trajectory: 101 x 12 floats take 9696 bytes, over the budget of 9695")
    assert not out.exists()
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 101 * 12 * 8)
    assert run(["dichotomy", k6, "--out", out, "--dt", 0.02, "--t-end", 2]) == EXIT_OK
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 16 * 15 * 8 - 1)
    code, line = refused_dichotomy(capsys, k6, out, "--dt", 0.2, "--t-end", 0.2, "--sweep", 16)
    assert (code, line) == (EXIT_INPUT, "error: sweep: 16 x 15 floats take 1920 bytes, over the budget of 1919")
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 16 * 15 * 8)
    assert run(["dichotomy", k6, "--out", out, "--dt", 0.2, "--t-end", 0.2, "--sweep", 16]) == EXIT_OK


@pytest.mark.parametrize("command", ["analyze", "modes", "dichotomy"])
def test_rigidity_svd_over_the_budget_is_refused_before_any_write(tmp_path, capsys, monkeypatch, triangle_file, command):
    """The triangle's R is 3 x 6 and its SVD holds U (3 x 3) and V^T (6 x 6):
    the bound max(m, nd)^2 is 36 floats, 288 bytes, over a budget of 287."""
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 287)
    capsys.readouterr()
    code = run([command, triangle_file, "--out", out])
    (line,) = capsys.readouterr().err.splitlines()
    assert (code, line) == (EXIT_INPUT, "error: rigidity matrix SVD: 6 x 6 floats take 288 bytes, over the budget of 287")
    assert not out.exists()


def test_rigidity_svd_budget_admits_its_exact_size(tmp_path, monkeypatch, triangle_file):
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "ARRAY_BUDGET_BYTES", 288)
    assert run(["analyze", triangle_file, "--out", out]) == EXIT_OK
    assert run(["modes", triangle_file, "--out", out]) == EXIT_OK

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


def test_plotdata_of_isolated_actuator_writes_header_only_arrows(tmp_path):
    """An actuator with no incident edge has no T_i arrow: ``arrows_Ti.csv``
    is its header line alone, with no blank row, and ``--check`` passes."""
    data = case_study_scenario_dict(edges=[[2, 3], [3, 4], [2, 4]])
    path = write_scenario(tmp_path / "isolated.json", data)
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="flexible"):
        assert run(["dichotomy", path, "--out", out, *SHORT_SIM["dichotomy"]]) == EXIT_OK
    assert run(["plotdata", out]) == EXIT_OK
    assert (out / "arrows_Ti.csv").read_bytes() == b"node,x,y,dx,dy\n"
    assert run(["plotdata", out, "--check"]) == EXIT_OK


def test_recorded_scenario_symlink_is_replaced_not_written_through(tmp_path):
    """``scenario.json`` goes through the atomic writer like every artifact:
    a symlink there is replaced by a regular file, and its target is left
    byte for byte."""
    source = tmp_path / "input.json"
    source.write_text(json.dumps(triangle_scenario_dict()), encoding="utf-8")
    before = source.read_bytes()
    out = tmp_path / "run"
    out.mkdir()
    (out / "scenario.json").symlink_to(Path("..") / "input.json")
    assert run(["analyze", source, "--out", out]) == EXIT_OK
    assert source.read_bytes() == before
    link = out / "scenario.json"
    assert link.is_file() and not link.is_symlink()
    assert link.read_text(encoding="utf-8") == dumps_json(rk.scenario_to_dict(rk.load_scenario(source)))


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


def test_rank_cutoff_governs_zero_eigenspace(tmp_path):
    """With a rank cutoff above the smallest nonzero singular value of R,
    the zero eigenspace of A is the flex space at that cutoff, and the
    rigid-body part of the uncontrollable split agrees with the existence
    bound, which reads the same flex space."""
    path = DEMO_SCENARIOS / "square_diagonal.json"
    sc = rk.load_scenario(path)
    r = rk.rigidity_matrix(sc.framework).entries
    nullity = r.shape[1] - int(np.sum(np.linalg.svd(r, compute_uv=False) > 1.77))
    assert nullity == 4
    for flags, multiplicity in (([], 3), (["--tol-rank", 1.77], nullity)):
        out = tmp_path / str(multiplicity)
        assert run(["modes", path, "--out", out, *flags]) == EXIT_OK
        modes = load_json(out / "modes.json")
        assert modes["mode_report"]["eigenvalues"][-1]["multiplicity"] == multiplicity
        checks = modes["checks"]
        assert (
            checks["uncontrollable_split"]["rbm_component_dim"]
            == checks["existence_bound"]["uncontrollable_rbm_dim"]
        )


def test_subspace_dims_add_up_at_every_singular_value_cutoff(tmp_path):
    """A rank cutoff equal to a singular value of R counts that value as
    zero in every subspace at once: rank + self-stresses = m and flexes +
    deformations = nd, with the rank that ``report.json`` records."""
    path = DEMO_SCENARIOS / "square_diagonal.json"
    rm = rk.rigidity_matrix(rk.load_scenario(path).framework)
    for k, cutoff in enumerate(rm.svd[0].tolist()):
        out = tmp_path / str(k)
        assert run(["analyze", path, "--out", out, "--tol-rank", repr(cutoff)]) == EXIT_OK
        report = load_json(out / "report.json")
        dims = report["dims"]
        assert report["rank"] + dims["self_stress"] == report["edge_count"], (cutoff, report)
        assert dims["flex"] + dims["deformation"] == report["state_dim"], (cutoff, report)
        assert report["rank"] == dims["deformation"], (cutoff, report)


@pytest.mark.parametrize("route", ["flag", "scenario"])
@pytest.mark.parametrize("command", ["analyze", "modes", "dichotomy"])
def test_rank_cutoff_below_rounding_exits_2(tmp_path, capsys, command, route):
    """The d translations of a framework are exact flexes, so its rank is at
    most nd - d. A planar K5 (rank 7, m = 10 edges) under a cutoff of 1e-300
    counts the rounding noise of R as rank 10: every command refuses it with
    one line naming ``tol.rank``, from the flag as from the scenario."""
    angles = 2 * np.pi * np.arange(5) / 5
    data = triangle_scenario_dict(
        n=5,
        positions=np.column_stack([np.cos(angles), np.sin(angles) + 0.1 * angles]).tolist(),
        edges=[[i, j] for i in range(1, 6) for j in range(i + 1, 6)],
    )
    flags = ["--tol-rank", 1e-300] if route == "flag" else []
    if route == "scenario":
        data["tol"] = {"rank": 1e-300}
    path = write_scenario(tmp_path / "k5.json", data)
    assert run([command, path, "--out", tmp_path / "run", *flags]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tol.rank: "), err


@pytest.mark.parametrize(
    "overrides, flags, field",
    [
        ({"impulse": math.inf}, [], "impulse"),
        ({"sim": {"dt": math.inf, "t_end": 10.0}}, [], "sim.dt"),
        ({"tol": {"rank": math.inf}}, [], "tol.rank"),
        ({"tol": {"subspace": math.inf}}, [], "tol.subspace"),
        ({}, ["--dt", "inf"], "sim.dt"),
    ],
    ids=["impulse", "sim-dt", "tol-rank", "tol-subspace", "dt-flag"],
)
def test_non_finite_scenario_number_exits_2(tmp_path, capsys, overrides, flags, field):
    """JSON reads 1e400 and Infinity as inf, which is positive but no
    number to run with: one line names the field. The file is written with
    ``json.dumps``, since ``dump_json`` refuses inf."""
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(triangle_scenario_dict(**overrides)), encoding="utf-8")
    assert run(["dichotomy", path, "--out", tmp_path / "run", *flags]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}: "), err
    assert err[0].endswith("must be positive and finite, got inf"), err


def test_env_var_output_dir(tmp_path, triangle_file, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("RIGIDKIT_OUT", str(target))
    assert run(["analyze", triangle_file]) == EXIT_OK
    assert (target / "report.json").exists()


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def run_module(*args):
    """``python -m rigidkit.cli`` in a fresh interpreter, which ends through
    ``cli.entry``: returncode, stdout and stderr."""
    proc = run_python("-m", "rigidkit.cli", *map(str, args))
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point(tmp_path, triangle_file):
    out = tmp_path / "run"
    files = "report.json, rigidity_matrix.csv, scenario.json, subspaces.json"
    assert run_module("analyze", triangle_file, "--out", out) == (
        EXIT_OK, f"analyze: wrote {files} to {out}\n", ""
    )
    assert (out / "report.json").exists()
    assert run_module("analyze", triangle_file, "--out", out, "--check") == (
        EXIT_OK, "check passed for analyze: 4 files match\n", ""
    )
    report = load_json(out / "report.json")
    dump_json(dict(report, rank=report["rank"] + 1), out / "report.json")
    assert run_module("analyze", triangle_file, "--out", out, "--check") == (
        EXIT_NUMERICAL, "", "check: report.json differs from the recorded run\n"
    )
    missing = tmp_path / "missing.json"
    assert run_module("analyze", missing) == (
        EXIT_INPUT, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    code, stdout, stderr = run_module()  # argparse's SystemExit
    assert (code, stdout) == (EXIT_INPUT, "")
    assert stderr.splitlines()[-1] == "rigidkit: error: the following arguments are required: command"


def test_module_entry_point_reports_flexible_warning(tmp_path):
    # four_cycle is flexible: the verdict is withheld with a warning on stderr
    out = tmp_path / "run"
    assert run_module(
        "dichotomy", DEMO_SCENARIOS / "four_cycle.json", "--out", out, "--dt", 0.02, "--t-end", 2
    ) == (
        EXIT_OK,
        f"dichotomy: wrote outcome.json, scenario.json, trajectory.csv to {out}\n",
        "warning: framework is flexible: the recovery/distortion verdict is withheld\n",
    )
    assert load_json(out / "outcome.json")["outcome"]["verdict"] == "withheld"


@pytest.mark.parametrize(
    "overrides, flags, line",
    [
        ({}, ["--dt", 1e300, "--t-end", 1e300], "non-finite state at step 1 (t=1e+300)"),
        ({"impulse": 1e300}, [], "non-finite value in JSON output: inf"),
    ],
    ids=["overflowing-step", "overflowing-impulse"],
)
def test_overflow_exits_3_with_one_line(tmp_path, capsys, overrides, flags, line):
    """An overflow is reported by its one ``numerical failure`` line alone,
    with no numpy warning before it: in-process, under the suite's
    warnings-as-errors, and from a fresh interpreter."""
    path = write_scenario(tmp_path / "big.json", triangle_scenario_dict(**overrides))
    assert run(["dichotomy", path, "--out", tmp_path / "run", *flags]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {line}\n"
    assert run_module("dichotomy", path, "--out", tmp_path / "run", *flags) == (
        EXIT_NUMERICAL, "", f"numerical failure: {line}\n"
    )


def test_dichotomy_of_a_single_agent_prints_one_line(tmp_path):
    """A single agent has no rotation: the run is refused before the
    flexible-framework warning is printed."""
    data = triangle_scenario_dict(n=1, edges=[], positions=[[0.0, 0.0]], sensor=1)
    path = write_scenario(tmp_path / "one.json", data)
    assert run_module("dichotomy", path, "--out", tmp_path / "run") == (
        EXIT_INPUT, "", "error: degenerate configuration: all agents sit at the center of mass\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_module_entry_point_failed_flush_exits_120(tmp_path, triangle_file):
    # stdout block-buffered, so the report line is written only at the final flush
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "rigidkit.cli", "analyze", str(triangle_file), "--out", str(tmp_path)],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 120
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "OSError: [Errno 28] No space left on device"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_quick_start_runs():
    """The README's python block runs as written in a fresh interpreter."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def per_cell_csv(header, rows) -> str:
    """CSV text as the writer that ``_write_csv`` replaced made it, one
    ``format_float`` call per field; kept as its oracle."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def two_pass_json(obj, level: int = 0) -> str:
    """JSON text of parsed JSON as the encoder that formatted a scalar list
    twice made it (once flat, once one item per line); kept as the oracle
    of ``dumps_json``'s layout."""
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {two_pass_json(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if not any(isinstance(v, (dict, list)) for v in obj):
            flat = "[" + ", ".join(two_pass_json(v, level + 1) for v in obj) + "]"
            if len(flat) <= 100:
                return flat
        parts = [f"{inner}{two_pass_json(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    return jsonio._encode(obj, level)


CSV_FIELDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
)


@st.composite
def csv_tables(draw):
    """Tables whose rows often repeat the previous row after the first
    field, exactly or with the sign of a zero flipped."""
    width = draw(st.integers(1, 5))
    fields = st.lists(CSV_FIELDS, min_size=width, max_size=width)
    rows = [draw(fields)]
    for _ in range(draw(st.integers(0, 11))):
        kind = draw(st.sampled_from(["fresh", "repeat", "repeat", "flip zeros"]))
        prev = rows[-1][1:]
        if kind == "fresh":
            rows.append(draw(fields))
        elif kind == "repeat":
            rows.append([draw(CSV_FIELDS)] + prev)
        else:
            rows.append([draw(CSV_FIELDS)] + [-v if v == 0.0 else v for v in prev])
    return np.array(rows)


def written_csv(header, rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, header, rows)
        return path.read_text(encoding="utf-8")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(table=csv_tables(), chunk=st.sampled_from([1, 2, 3, 5, 8, cli.CSV_CHUNK_CELLS]))
@example(table=np.array([[0.5, -0.0, 5e-324, -1e308]]), chunk=1)
@example(table=np.array([[-0.0], [0.0], [0.0], [-0.0]]), chunk=2)
@example(table=np.array([[0.0, -0.0], [1.0, 0.0], [2.0, 0.0], [3.0, -0.0]]), chunk=2)
def test_csv_writer_matches_per_cell_writer(table, chunk):
    """Byte-equal text for any table and any chunk size, so also when a
    repeated row starts a new chunk."""
    header = [f"c{k}" for k in range(table.shape[1])]
    with mock.patch.object(cli, "CSV_CHUNK_CELLS", chunk):
        assert written_csv(header, table) == per_cell_csv(header, table)


@pytest.mark.parametrize("rows", [np.empty((0, 3)), np.array([]), np.empty((2, 0))], ids=["no rows", "empty", "no columns"])
def test_csv_writer_matches_per_cell_writer_on_empty_tables(rows):
    header = [f"c{k}" for k in range(np.atleast_2d(rows).shape[1])]
    assert written_csv(header, rows) == per_cell_csv(header, rows)


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_demo_artifacts_match_per_cell_writer_and_two_pass_json(tmp_path, name):
    """Every CSV artifact of a demo run is the per-cell writer's text for
    the numbers it holds, and every JSON artifact is the two-pass
    encoder's text for its parsed content."""
    path = DEMO_SCENARIOS / f"{name}.json"
    out = tmp_path / "run"
    flexible = pytest.warns(UserWarning, match="flexible") if name == "four_cycle" else contextlib.nullcontext()
    assert run(["analyze", path, "--out", out]) == EXIT_OK
    assert run(["modes", path, "--out", out]) == EXIT_OK
    with flexible:
        assert run(["dichotomy", path, "--sweep", 64, "--nonlinear", "--out", out]) == EXIT_OK
    assert run(["plotdata", out]) == EXIT_OK
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == sorted(
        ["rigidity_matrix.csv", "trajectory.csv", "trajectory_nonlinear.csv", "sweep.csv",
         "arrows_Ri.csv", "arrows_Ti.csv", "edge_errors.csv"]
    )
    for csv in csvs:
        text = (out / csv).read_text(encoding="utf-8")
        header, *lines = text.splitlines()
        table = np.array([line.split(",") for line in lines], dtype=float)
        assert text == per_cell_csv(header.split(","), table), csv
    for artifact in sorted(out.glob("*.json")):
        text = artifact.read_text(encoding="utf-8")
        # "-0" is a float written without a point; json reads it as the int 0
        data = json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
        assert dumps_json(data) == two_pass_json(data) + "\n" == text, artifact.name


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, 1e308])
)


def json_payloads():
    """Nested JSON values; a dict value may also be a 2-D float array, as
    the subspace matrices are."""
    arrays = st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 2, 5, 33, 34, 40])).flatmap(
        lambda shape: st.lists(CSV_FIELDS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda values: np.array(values, dtype=float).reshape(shape)
        )
    )
    return st.recursive(
        JSON_SCALARS | st.lists(CSV_FIELDS, max_size=40),
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner | arrays, max_size=5),
        max_leaves=30,
    )


def plain(obj):
    """``obj`` with every array turned into nested lists."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(payload=json_payloads())
@example(payload={"fits": [0.0] * 33, "too long": [0.0] * 34, "rows": np.zeros((2, 33))})
def test_streamed_json_matches_two_pass_encoder(payload):
    """The file ``dump_json`` streams out, and ``dumps_json``'s text, are
    the two-pass encoder's text of the same values with arrays as lists.
    33 one-character floats are the longest list that fits on one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        dump_json(payload, path)
        text = path.read_text(encoding="utf-8")
    assert text == dumps_json(payload) == two_pass_json(plain(payload)) + "\n"


def test_dump_json_leaves_previous_file_when_a_value_is_not_finite(tmp_path):
    """The last float is NaN, after more text than one write buffer holds:
    the call raises and the previous file stays byte for byte, with no
    temporary file left behind."""
    path = tmp_path / "subspaces.json"
    dump_json({"flex": np.eye(3)}, path)
    before = path.read_bytes()
    payload = {"deformation": np.full((200, 240), 0.1), "last": [1.0, float("nan")]}
    with pytest.raises(NonFiniteError):
        dump_json(payload, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_csv_blocks_leave_previous_file_when_a_value_is_not_finite(tmp_path):
    path = tmp_path / "trajectory.csv"
    cli._write_csv(path, ["t", "x"], np.ones((2, 2)))
    before = path.read_bytes()
    blocks = [np.ones((5000, 2)), np.array([[1.0, np.inf]])]
    with pytest.raises(rk.NumericalError):
        cli._write_csv_blocks(path, ["t", "x"], iter(blocks))
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def text_parse(path: Path) -> tuple[list[str], np.ndarray]:
    """A recorded CSV parsed as before numpy's C reader: every line split
    into Python strings and converted by ``float``; kept as the oracle of
    ``_read_table``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    values = np.array(",".join(lines[1:]).split(","), dtype=float)
    return lines[0].split(","), values.reshape(len(lines) - 1, -1)


def assert_read_as_text_parse(path: Path) -> None:
    header, *blocks = cli._read_table(path)
    data = np.concatenate(blocks)
    want_header, want = text_parse(path)
    assert header == want_header
    assert data.shape == want.shape and data.tobytes() == want.tobytes(), path.name


@pytest.fixture(scope="module")
def lattice_run(tmp_path_factory):
    """A dichotomy run directory of the seeded n = 120 lattice."""
    tmp = tmp_path_factory.mktemp("lattice")
    scenario = write_scenario(tmp / "lattice.json", lattice_scenario_dict())
    assert run(["dichotomy", scenario, "--out", tmp / "run"]) == EXIT_OK
    return scenario, tmp / "run"


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_trajectory_reader_matches_text_parse_on_demo_runs(tmp_path, name):
    out = tmp_path / "run"
    flexible = pytest.warns(UserWarning, match="flexible") if name == "four_cycle" else contextlib.nullcontext()
    with flexible:
        assert run(["dichotomy", DEMO_SCENARIOS / f"{name}.json", "--nonlinear", "--out", out]) == EXIT_OK
    for csv in ["trajectory.csv", "trajectory_nonlinear.csv"]:
        assert_read_as_text_parse(out / csv)


def test_trajectory_reader_matches_text_parse_on_lattice_run(lattice_run):
    assert_read_as_text_parse(lattice_run[1] / "trajectory.csv")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=csv_tables())
def test_trajectory_reader_matches_text_parse_on_written_tables(table):
    """Bit for bit, subnormals, signed zeros and +-1e308 included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        cli._write_csv(path, [f"c{k}" for k in range(table.shape[1])], table)
        assert_read_as_text_parse(path)


def traced_peak(fn) -> int:
    """Peak bytes that Python and numpy allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plotdata_memory_stays_bounded_on_large_run(lattice_run, tmp_path):
    """Reading the 301 x 559 trajectory makes no Python object per field
    and holds one block of rows at a time: the whole call peaks under 1 MB
    (it was 19 MB with the text parse, under 6 MB with the whole table)."""
    peak = traced_peak(lambda: run(["plotdata", lattice_run[1], "--out", tmp_path]))
    assert (tmp_path / "edge_errors.csv").is_file()
    assert peak < 2**20, peak


def test_dichotomy_memory_grows_by_its_tail_rows_only(tmp_path):
    """``dichotomy --nonlinear`` of the square makes both trajectories a
    block of rows at a time and keeps only their tail rows, which the final
    means read; edge errors, potentials and CSV text go in blocks of rows
    too. So 7 200 more steps raise the whole call's peak by at most the
    growth of the tail rows of 8 floats, plus 256 KB (it grew by the two
    whole state tables before)."""
    square = DEMO_SCENARIOS / "square_diagonal.json"

    def peak(steps: int) -> int:
        argv = ["dichotomy", square, "--nonlinear", "--dt", 0.005, "--t-end", steps * 0.005,
                "--out", tmp_path / str(steps)]
        codes = []
        result = traced_peak(lambda: codes.append(run(argv)))
        assert codes == [EXIT_OK]
        return result

    def tail_rows(steps: int) -> int:
        tail = rk.dynamics._tail(steps + 1)
        return tail.stop - tail.start

    peak(800)  # imports and first-call caches stay out of the comparison
    small, large = peak(800), peak(8000)
    assert large - small <= 8 * 8 * (tail_rows(8000) - tail_rows(800)) + 256 * 2**10, (small, large)


def test_dichotomy_nonlinear_makes_the_linearized_blocks_once_and_steps_the_flow_once(tmp_path):
    """One ``dichotomy --nonlinear`` call makes the linearized blocks once,
    for the CSV, and steps the flow once, as it is written: the linearized
    final state is the closed-form tail mean, and the nonlinear final mean
    reads the flow's kept tail."""
    calls = {"_lti_blocks": 0, "_integrate": 0}

    def counted(name):
        original = getattr(rk.dynamics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return mock.patch.object(rk.dynamics, name, wrapper)

    square = DEMO_SCENARIOS / "square_diagonal.json"
    with counted("_lti_blocks"), counted("_integrate"):
        assert run(["dichotomy", square, "--nonlinear", "--out", tmp_path]) == EXIT_OK
    assert calls == {"_lti_blocks": 1, "_integrate": 1}


def test_library_flow_tail_is_bounded_and_matches_the_cli(tmp_path):
    """On the default-horizon square (50 001 steps), the flow that
    ``shape_recovery_experiment`` returns gives its final edge errors while
    holding its tail rows only: ``tail_edge_errors()`` peaks under 1.25 MiB,
    where the whole 50 001 x 8 table takes 3.2 MB. Its bits are those that
    ``dichotomy --nonlinear`` writes."""
    square = DEMO_SCENARIOS / "square_diagonal.json"
    scenario = replace(rk.load_scenario(square), sim=rk.SimSettings())
    _, _, flow = rk.shape_recovery_experiment(scenario, system_of(scenario))
    finals = []
    peak = traced_peak(lambda: finals.append(flow.tail_edge_errors()))
    assert peak < 1.25 * 2**20, peak
    argv = ["dichotomy", square, "--nonlinear", "--dt", 1e-3, "--t-end", 50, "--out", tmp_path]
    assert run(argv) == EXIT_OK
    written = load_json(tmp_path / "outcome.json")["outcome"]["nonlinear_final_edge_errors"]
    assert np.array(written).tobytes() == finals[0].tobytes()


def test_dichotomy_nonlinear_overflow_leaves_an_earlier_run_as_it_was(tmp_path, capsys):
    """The nonlinear flow is written first and as it is stepped: a flow that
    overflows after some blocks went to disk exits 3 with the step's line
    and leaves every file of an earlier run as it was."""
    out = tmp_path / "run"
    assert run(["dichotomy", DEMO_SCENARIOS / "square_diagonal.json", "--nonlinear", "--out", out]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    data = load_json(DEMO_SCENARIOS / "square_diagonal.json")
    data["impulse"] = 10.0  # the linearized model stays finite; the flow overflows at step 3
    scenario = write_scenario(tmp_path / "kick.json", data)
    capsys.readouterr()
    with mock.patch.object(rk.dynamics, "EDGE_BLOCK_CELLS", 32):  # blocks of two rows
        assert run(["dichotomy", scenario, "--nonlinear", "--out", out]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: non-finite state at step 3 (t=0.015)\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_plotdata_memory_does_not_grow_with_the_trajectory(tmp_path):
    """``plotdata`` reads ``trajectory.csv`` and writes ``edge_errors.csv``
    a block of rows at a time: on 20 001 rows it peaks within 256 KB of its
    peak on 2 001 rows."""
    square = DEMO_SCENARIOS / "square_diagonal.json"
    peaks = []
    for steps in (2000, 2000, 20000):  # the first call takes the imports
        out = tmp_path / str(steps)
        assert run(["dichotomy", square, "--dt", 0.005, "--t-end", steps * 0.005, "--out", out]) == EXIT_OK
        codes = []
        peaks.append(traced_peak(lambda: codes.append(run(["plotdata", out]))))
        assert codes == [EXIT_OK]
    assert len((tmp_path / "20000" / "edge_errors.csv").read_text().splitlines()) == 20002
    assert peaks[2] - peaks[1] <= 256 * 2**10, peaks


def test_subspaces_json_streams_without_building_its_text(lattice_run, tmp_path):
    """``dump_json`` of the n = 120 ``subspaces.json`` payload (2.4 MB of
    text) adds under 1 MB to what the payload holds."""
    payloads = {}
    real = cli.dump_json

    def spy(obj, path):
        payloads[Path(path).name] = obj
        real(obj, path)

    with mock.patch.object(cli, "dump_json", spy):
        assert run(["analyze", lattice_run[0], "--out", tmp_path / "run"]) == EXIT_OK
    payload = payloads["subspaces.json"]
    peak = traced_peak(lambda: dump_json(payload, tmp_path / "subspaces.json"))
    assert (tmp_path / "subspaces.json").read_bytes() == (tmp_path / "run" / "subspaces.json").read_bytes()
    assert peak < 2**20, peak


def whole_trajectory_table(scenario, traj) -> np.ndarray:
    """The trajectory table as ``_write_trajectory_csv`` built it before it
    wrote in row blocks: all columns stacked at once, the exact edge errors
    one ``rigidity_function`` call per row. Kept as its oracle."""
    fw = scenario.framework
    table = whole_table(traj)
    positions = table.states + fw.positions if traj.kind == "lti" else table.states
    r_star = rk.rigidity_function(fw, fw.positions)
    # column-major like the trajectory's, so each row of the potential sums in the same order
    errors = np.array([rk.rigidity_function(fw, row) - r_star for row in positions], order="F")
    potential = 0.5 * np.einsum("tk,tk->t", errors, errors)
    return np.column_stack([table.times, positions, errors, potential])


@pytest.mark.parametrize("chunk", [1, 40, 333, 1 << 14, cli.CSV_CHUNK_CELLS])
def test_trajectory_csv_in_row_blocks_matches_whole_table(tmp_path, chunk):
    """Blocks of 1, 2, 22, 1092 and (at the default 4096 cells) 273 rows
    of 15 fields over 801 rows (so a last block of 1 row at 40 cells), for
    both kinds of trajectory."""
    scenario = rk.load_scenario(DEMO_SCENARIOS / "square_diagonal.json")
    scenario = replace(scenario, sim=replace(scenario.sim, dt=0.01, t_end=8.0))
    fw = scenario.framework
    _, *trajectories = rk.shape_recovery_experiment(scenario, system_of(scenario))
    header = ["t"] + cli._coord_headers(fw.n, fw.d) + [f"e_{k + 1}" for k in range(fw.m)] + ["V"]
    for traj in trajectories:
        with mock.patch.object(cli, "CSV_CHUNK_CELLS", chunk):
            cli._write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        text = (tmp_path / "trajectory.csv").read_text(encoding="utf-8")
        assert text == per_cell_csv(header, whole_trajectory_table(scenario, traj)), traj.kind


def test_cli_import_loads_no_scipy():
    code = "import sys, rigidkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_hashlib():
    code = "import sys, rigidkit.cli; print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_import_loads_no_submodule():
    code = "import sys, rigidkit; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'rigidkit')))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['rigidkit']"


def rigidkit_modules_loaded(*args):
    """The ``rigidkit.*`` modules a fresh ``python -m rigidkit.cli`` process imports."""
    proc = run_python("-X", "importtime", "-m", "rigidkit.cli", *map(str, args))
    assert proc.returncode == 0, proc.stderr
    names = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return {name for name in names if name.startswith("rigidkit.")}


def test_each_command_imports_only_the_modules_it_runs(tmp_path, triangle_file):
    out = tmp_path / "run"
    for extra in ([], ["--check"]):
        loaded = rigidkit_modules_loaded("analyze", triangle_file, "--out", out, *extra)
        assert "rigidkit.rigidity" in loaded
        assert not loaded & {"rigidkit.dynamics", "rigidkit.modes"}, extra
    loaded = rigidkit_modules_loaded("modes", triangle_file, "--out", out)
    assert "rigidkit.modes" in loaded
    assert "rigidkit.dynamics" not in loaded
    assert run(["dichotomy", triangle_file, "--out", out]) == EXIT_OK
    loaded = rigidkit_modules_loaded("plotdata", out)
    assert "rigidkit.modes" in loaded
    assert "rigidkit.dynamics" not in loaded


def test_cli_imports_no_private_name_of_dynamics_or_modes():
    """``cli`` reaches ``dynamics`` and ``modes`` through their public names
    only, whether imported by name or read off the module."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {"dynamics", "modes", "rigidkit.dynamics", "rigidkit.modes"}
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in modules
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in {"dynamics", "modes"} and node.attr.startswith("_")
    ]
    assert private == []


def environment_writes(tree: ast.Module) -> list[ast.AST]:
    """The nodes of ``tree`` that assign to ``os.environ``: an assignment or
    ``del`` of ``os.environ`` or an item of it, a call of one of its
    mutating methods, or of ``os.putenv``/``os.unsetenv``."""
    def is_environ(node):
        return ast.unparse(node) in ("os.environ", "environ")

    writes = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(is_environ(t.value if isinstance(t, ast.Subscript) else t) for t in targets):
            writes.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            is_environ(node.func.value)
            and node.func.attr in {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}
            or ast.unparse(node.func) in ("os.putenv", "os.unsetenv")
        ):
            writes.append(node)
    return writes


def test_blas_thread_pin_precedes_numpy_and_is_the_only_environment_write():
    """``cli`` sets ``OPENBLAS_NUM_THREADS`` in a module-level statement that
    runs before ``numpy`` or any rigidkit module is imported (OpenBLAS reads
    the variable once, as numpy loads), and no other module of the package
    writes to the process environment."""
    source = Path(cli.__file__)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    (pin,) = environment_writes(tree)
    assert ast.unparse(pin) == "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"
    (statement,) = [s for s in tree.body if pin in ast.walk(s)]
    assert isinstance(statement, ast.Expr) and statement.value is pin

    def loads_numpy_or_package(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "numpy" for a in node.names)
        return isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] in ("numpy", "rigidkit"))

    first = next(i for i, s in enumerate(tree.body) if any(map(loads_numpy_or_package, ast.walk(s))))
    assert tree.body.index(statement) < first
    others = {
        path.name: [ast.unparse(node) for node in environment_writes(ast.parse(path.read_text(encoding="utf-8")))]
        for path in sorted(source.parent.glob("*.py"))
        if path != source
    }
    assert others == {name: [] for name in others}


def test_environment_writes_finds_each_form():
    """The lint above sees every way a module can change the environment."""
    forms = [
        "os.environ['X'] = '1'", "os.environ.setdefault('X', '1')", "os.environ.update(X='1')",
        "del os.environ['X']", "os.environ.pop('X')", "os.putenv('X', '1')", "environ['X'] = '1'",
        "os.environ = {}",
    ]
    for form in forms:
        assert len(environment_writes(ast.parse(form))) == 1, form
    assert environment_writes(ast.parse("x = os.environ.get('X')\ny = os.environ['X']")) == []


def blas_threads_after(code: str, **env) -> list[str]:
    """What a fresh interpreter prints after running ``code`` and then
    printing its ``OPENBLAS_NUM_THREADS``."""
    proc = run_python("-c", f"{code}\nimport os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))", **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_runs_blas_on_one_thread():
    assert blas_threads_after("import rigidkit.cli", OPENBLAS_NUM_THREADS=None) == ["1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_process_starts_no_blas_thread():
    code = "import os, rigidkit.cli\nprint(len(os.listdir('/proc/self/task')))"
    proc = run_python("-c", code, OPENBLAS_NUM_THREADS=None)
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


def test_callers_blas_thread_count_is_kept():
    assert blas_threads_after("import rigidkit.cli", OPENBLAS_NUM_THREADS="2") == ["2"]


def test_library_import_leaves_blas_threads_unset():
    code = "import rigidkit, rigidkit.modes, rigidkit.dynamics"
    assert blas_threads_after(code, OPENBLAS_NUM_THREADS=None) == ["None"]


def test_analyze_record_does_not_depend_on_the_callers_blas_threads(tmp_path):
    """A record of the 120-agent lattice made with the caller's default BLAS
    threads passes ``--check`` on one thread, and a record made on one
    thread has the same bytes, file by file."""
    path = write_scenario(tmp_path / "lattice.json", lattice_scenario_dict())
    runs = {"default": None, "single": "1"}
    for name, threads in runs.items():
        proc = run_python("-m", "rigidkit.cli", "analyze", str(path), "--out", str(tmp_path / name),
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == EXIT_OK, proc.stderr
    proc = run_python("-m", "rigidkit.cli", "analyze", str(path), "--out", str(tmp_path / "default"), "--check",
                      OPENBLAS_NUM_THREADS="1")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "single").iterdir())
    for name in names:
        assert filecmp.cmp(tmp_path / "default" / name, tmp_path / "single" / name, shallow=False), name


# the names ``rigidkit/__init__.py`` imported eagerly from its modules
PACKAGE_EXPORTS = """
    controllable_plane rbm_coefficients
    shape_recovery_experiment simulate_lti simulate_nonlinear steady_state sweep_impulse_angles
    Framework Scenario ScenarioParseError SimSettings ToleranceOverrides ValidationError block
    load_scenario save_scenario scenario_to_dict
    LinearizedSystem classify_modes eigenspaces elementary_rotations global_rotation_subspace
    hidden_mode_checks linearize local_rotation_subspace
    FLEXIBLE INFINITESIMALLY_RIGID MINIMALLY_RIGID RIGID_WITH_REDUNDANCY RigidityMatrix
    classify_rigidity deformation_space flex_space rbm_basis rigidity_function rigidity_matrix
    self_stress_space
    DEFAULT_TOL NumericalError Subspace contains direct_sum_check orthonormalize principal_angles
    project
""".split()


def test_package_exports_resolve_on_first_lookup():
    # each way of looking a name up, in an interpreter where it is not yet loaded
    by_attribute = (
        "import rigidkit, sys\n"
        f"names = {PACKAGE_EXPORTS!r}\n"
        "print([n for n in names if n not in dir(rigidkit)])\n"
        "print(rigidkit.modes.__name__)\n"  # a submodule nothing has imported yet
        "values = [getattr(rigidkit, n) for n in names]\n"
        "print(all(getattr(sys.modules[v.__module__], n) is v for n, v in zip(names, values) if hasattr(v, '__module__')))"
    )
    proc = run_python("-c", by_attribute)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "rigidkit.modes", "True"]
    proc = run_python("-c", f"from rigidkit import {', '.join(PACKAGE_EXPORTS)}")
    assert proc.returncode == 0, proc.stderr
    proc = run_python("-c", f"from rigidkit import *\nprint([n for n in {PACKAGE_EXPORTS!r} if n not in globals()])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        rk.not_a_name


def test_every_export_list_names_what_its_module_defines():
    """Each name in a rigidkit module's ``__all__`` is defined there, so
    ``from rigidkit.<module> import *`` works and a tool that wraps every
    name in ``__all__`` misses none; each package export is in its module's
    ``__all__``."""
    modules = {info.name: importlib.import_module(f"rigidkit.{info.name}") for info in pkgutil.iter_modules(rk.__path__)}
    stale = [(name, n) for name, mod in modules.items() for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert stale == []
    assert [n for n, module in rk._EXPORTS.items() if n not in modules[module].__all__] == []


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


def edit_every_row(name, col, edit):
    """Apply ``edit`` to field ``col`` of every row of a recorded CSV."""
    def apply(out):
        header, *rows = (out / name).read_text().splitlines()
        lines = [header]
        for row in rows:
            cells = row.split(",")
            cells[col] = edit(cells[col])
            lines.append(",".join(cells))
        (out / name).write_text("\n".join(lines) + "\n")
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
        ("dichotomy", edit_every_row("trajectory.csv", -1, scale_cell(WITHIN))),
    ],
    ids=["csv-cell", "json-nested", "json-deep-angle", "csv-trajectory-cell", "csv-trajectory-every-row"],
)
def test_check_accepts_perturbation_within_tolerance(tmp_path, case_file, command, edit):
    assert record_and_check(case_file, tmp_path / "run", command, edit) == EXIT_OK


def test_check_memory_stays_bounded_when_every_row_differs(lattice_run, tmp_path):
    """``--check`` of the recorded n = 120 trajectory (301 x 559) whose every
    row differs within tolerance reads both tables with numpy's C reader,
    a block of rows at a time: the whole call peaks under 5 MB (31 MB with
    a Python string per field, under 10 MB with both tables whole)."""
    scenario, recorded = lattice_run
    out = shutil.copytree(recorded, tmp_path / "run")
    edit_every_row("trajectory.csv", -1, scale_cell(1 + 1e-12))(out)
    before = (recorded / "trajectory.csv").read_text().splitlines()
    after = (out / "trajectory.csv").read_text().splitlines()
    assert len(before) == len(after) and all(a != b for a, b in zip(before[1:], after[1:]))
    codes = []
    peak = traced_peak(lambda: codes.append(run(["dichotomy", scenario, "--out", out, "--check"])))
    assert codes == [EXIT_OK]
    assert peak < 5 * 2**20, peak


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


# ------------------------------------------------- fuzzed scenario files

FUZZ_BASES = {
    "triangle": triangle_scenario_dict(),
    "case": case_study_scenario_dict(sim={"dt": 0.02, "t_end": 10.0, "method": "rk4"}),
    "k4_3d": triangle_scenario_dict(
        n=4,
        d=3,
        edges=[[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
        positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        w0=[1.0, 0.0, 0.0],
    ),
}
FUZZ_MAX_STEPS = 2000
FUZZ_MAX_N = 12
# keys a scenario may carry beyond those of the bases
OPTIONAL_PATHS = [("impulse",), ("sim", "method"), ("tol",), ("tol", "rank"), ("tol", "subspace")]
# number fields a mutation keeps the type of, so that more cases get past the loader
NUMBER_PATHS = [("impulse",), ("sim", "dt"), ("sim", "t_end"), ("tol", "rank"), ("tol", "subspace")]

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, FUZZ_MAX_N),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "rk4", "euler", "x"]),
)
numbers = st.one_of(
    st.integers(-2, FUZZ_MAX_N),
    st.floats(-1e3, 1e3),
    st.floats(1e-15, 10.0),
    st.sampled_from([0.0, 1e-12, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dt", "t_end", "method", "rank", "subspace"]), inner, max_size=3),
    max_leaves=8,
)


def paths_of(obj, prefix=()):
    """Every key and index path inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(paths_of(value, prefix + (key,)))
    return out


def get_path(data, path):
    for key in path:
        data = data[key]
    return data


def mutate(data, path, value, delete):
    """Set or delete ``path`` in ``data``; a path an earlier edit removed is skipped."""
    with contextlib.suppress(KeyError, IndexError, TypeError):
        parent = get_path(data, path[:-1])
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value


def fuzz_steps_bounded(data) -> bool:
    """False when the mutated scenario would step more than FUZZ_MAX_STEPS;
    True when it is short or rejected before any simulation."""
    sim = data.get("sim") if isinstance(data, dict) else None
    sim = sim if isinstance(sim, dict) else {}
    dt, t_end = sim.get("dt", rk.SimSettings.dt), sim.get("t_end", rk.SimSettings.t_end)
    if type(dt) not in (int, float) or type(t_end) not in (int, float):
        return True  # a field of the wrong type is rejected on load
    if not (dt > 0 and t_end > 0 and t_end / dt <= 2.0**53):
        return True  # rejected by SimSettings
    return t_end / dt <= FUZZ_MAX_STEPS


@st.composite
def fuzzed_scenarios(draw):
    data = json.loads(json.dumps(FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]))
    paths = paths_of(data) + OPTIONAL_PATHS
    floats = [p for p in paths_of(data) if type(get_path(data, p)) is float] + NUMBER_PATHS
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["number", "number", "any", "delete"]))
        path = draw(st.sampled_from(floats if kind == "number" else paths))
        mutate(data, path, draw(numbers if kind == "number" else json_values), kind == "delete")
    if draw(st.integers(0, 9)) == 0:  # a document that is not a scenario object
        data = draw(st.sampled_from([[], "", None, 1]))
    return data


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=fuzzed_scenarios(), command=st.sampled_from(["analyze", "modes", "dichotomy"]))
# a far agent: max |lambda| about 1.7e6 and a slowest deformation close to
# ker R, which exited 3 when the eigenvectors of A came from an eigh of A
@example(data=case_study_scenario_dict(positions=[[0.0, 0.0], [1.0, 0.0], [323.0, 1.0], [0.0, 1.0]]), command="modes")
@example(data=triangle_scenario_dict(sim={"dt": 0.01, "t_end": math.inf}), command="dichotomy")
@example(data=triangle_scenario_dict(sim={"dt": 1e-3, "t_end": 1e300}), command="dichotomy")
@example(data=triangle_scenario_dict(w0=[1e300, 0.0]), command="dichotomy")
def test_fuzzed_scenario_exits_cleanly(data, command):
    """A mutated scenario file ends in exit 0, 2 or 3 with at most one line
    on stderr, never in an exception. Step counts stay at most
    FUZZ_MAX_STEPS, so no case allocates much."""
    assume(fuzz_steps_bounded(data))
    extra = ["--sweep", 4, "--nonlinear"] if command == "dichotomy" else []
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        # the CLI runs with Python's default warning filters; the flexible
        # framework notice is a warning, not a failure
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            rc = run([command, path, "--out", Path(tmp) / "run", *extra])
    event(f"exit {rc}")
    assert rc in (EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL)
    lines = err.getvalue().splitlines()
    assert len(lines) == (0 if rc == EXIT_OK else 1), lines


def test_plotdata_refusing_a_late_row_leaves_every_file(tmp_path, case_file):
    """``plotdata`` writes ``edge_errors.csv`` while it reads the 8 001 rows
    of ``trajectory.csv`` in blocks; a field refused in the last row leaves
    every file of the run directory as it was, with no temporary file."""
    out = tmp_path / "run"
    assert run(["dichotomy", case_file, "--out", out]) == EXIT_OK
    assert run(["plotdata", out]) == EXIT_OK
    edit_csv("trajectory.csv", -1, 1, lambda cell: "1_0")(out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert run(["plotdata", out]) == EXIT_INPUT
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


HUGE_SCENARIOS = {
    "w0": triangle_scenario_dict(w0=[1e300, 0.0]),
    "positions": triangle_scenario_dict(positions=[[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]]),
}


@pytest.mark.parametrize(
    "scenario, command, code, line",
    [
        ("w0", "dichotomy", EXIT_NUMERICAL, "numerical failure: non-finite value in JSON output: inf"),
        ("positions", "analyze", EXIT_OK, None),
        ("positions", "modes", EXIT_NUMERICAL, "numerical failure: eigenvalues of A overflow: "),
        ("positions", "dichotomy", EXIT_NUMERICAL, "numerical failure: eigenvalues of A overflow: "),
    ],
)
def test_huge_values_end_without_numpy_warnings(tmp_path, capsys, scenario, command, code, line):
    """A ``w0`` whose square overflows, and coordinates near 1e200, end in
    their exit code with at most one stderr line. In-process the suite
    turns any numpy warning into an error; in a fresh process, with the
    default warning filters, stderr holds that line alone."""
    path = write_scenario(tmp_path / "huge.json", HUGE_SCENARIOS[scenario])
    assert run([command, path, "--out", tmp_path / "run"]) == code
    proc = run_python("-m", "rigidkit.cli", command, path, "--out", str(tmp_path / "fresh"))
    assert proc.returncode == code
    for err in (capsys.readouterr().err, proc.stderr):
        lines = err.splitlines()
        if line is None:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith(line), lines


# ------------------------------------------------- broken run directories


def rewrite(name, edit):
    """Replace a recorded file's bytes by ``edit`` of them."""
    def apply(out):
        (out / name).write_bytes(edit((out / name).read_bytes()))
    return apply


def drop_last_field(name, row):
    def apply(out):
        lines = (out / name).read_text().splitlines()
        lines[row] = lines[row].rsplit(",", 1)[0]
        (out / name).write_text("\n".join(lines) + "\n")
    return apply


def edit_lines(name, edit):
    """Replace a recorded text file's lines by ``edit`` of them."""
    def apply(out):
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("".join(line + "\n" for line in edit(lines)))
    return apply


def make_directory(name):
    """Replace the file ``name`` (relative to the run directory) by an empty directory."""
    def apply(out):
        (out / name).unlink()
        (out / name).mkdir()
    return apply


def replace_run_directory_by_file(out):
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    out.write_text("")


@pytest.mark.parametrize(
    "argv, edit, code, message",
    [
        (["plotdata"], edit_csv("trajectory.csv", 2, 1, lambda cell: "abc"), EXIT_INPUT, "trajectory.csv"),
        (["plotdata"], drop_last_field("trajectory.csv", 2), EXIT_INPUT, "trajectory.csv"),
        (["plotdata"], rewrite("trajectory.csv", lambda data: b""), EXIT_INPUT, "trajectory.csv"),
        (["modes", "--check"], rewrite("modes.json", lambda data: data[: len(data) // 2]),
         EXIT_NUMERICAL, "modes.json differs from the recorded run"),
        (["dichotomy", "--check"], rewrite("trajectory.csv", lambda data: b"\xff" + data),
         EXIT_NUMERICAL, "trajectory.csv differs from the recorded run"),
        (["modes", "--check"],
         rewrite("modes.json", lambda data: data.replace(b'"state_dim": 8', b'"state_dim": 8' + b"0" * 400)),
         EXIT_NUMERICAL, "modes.json differs from the recorded run"),
        (["analyze"], rewrite("manifest.json", lambda data: b"{oops"), EXIT_OK, None),
        # numpy's reader skips blank lines and warns on no rows; both are refused
        (["plotdata"], edit_lines("trajectory.csv", lambda lines: lines[:3] + [""] + lines[3:]),
         EXIT_INPUT, "trajectory.csv"),
        (["plotdata"], edit_lines("trajectory.csv", lambda lines: lines[:1]), EXIT_INPUT, "trajectory.csv"),
        (["plotdata"], edit_csv("trajectory.csv", 2, 1, lambda cell: "#" + cell), EXIT_INPUT, "trajectory.csv"),
        # float() reads "1_0" as 10; the trajectory reader refuses it
        (["plotdata"], edit_csv("trajectory.csv", 2, 0, lambda cell: "1_0"), EXIT_INPUT, "trajectory.csv"),
        (["analyze", "--check"], make_directory("subspaces.json"), EXIT_INPUT, "{tmp}/run/subspaces.json"),
        (["plotdata"], make_directory("trajectory.csv"), EXIT_INPUT, "{tmp}/run/trajectory.csv"),
        (["plotdata"], make_directory("scenario.json"), EXIT_INPUT, "{tmp}/run/scenario.json"),
        (["analyze"], make_directory("manifest.json"), EXIT_INPUT, "{tmp}/run/manifest.json"),
        (["modes"], make_directory("../case.json"), EXIT_INPUT, "{tmp}/case.json"),
        (["modes"], replace_run_directory_by_file, EXIT_INPUT, "{tmp}/run"),
        # --check reads a differing CSV as plotdata does
        (["dichotomy", "--check"], edit_lines("trajectory.csv", lambda lines: lines[:3] + [""] + lines[3:]),
         EXIT_NUMERICAL, "trajectory.csv differs from the recorded run"),
        (["dichotomy", "--check"], edit_lines("trajectory.csv", lambda lines: lines[:1]),
         EXIT_NUMERICAL, "trajectory.csv differs from the recorded run"),
    ],
    ids=["trajectory-non-numeric", "trajectory-missing-field", "trajectory-empty",
         "check-json-unparsable", "check-csv-not-utf8", "check-json-int-beyond-float", "manifest-not-json",
         "trajectory-blank-line", "trajectory-header-only", "trajectory-hash-field",
         "trajectory-underscore-digits", "check-json-is-directory", "trajectory-is-directory",
         "run-scenario-is-directory", "manifest-is-directory", "scenario-path-is-directory",
         "out-is-file", "check-csv-blank-line", "check-csv-header-only"],
)
def test_broken_run_directory_exits_cleanly(tmp_path, case_file, capsys, argv, edit, code, message):
    """A corrupted file in a run directory, or a path that is not a plain
    file where one belongs, ends in its exit code with at most one line on
    stderr, naming the file, never in an exception; a manifest that is not
    JSON is replaced."""
    out = tmp_path / "run"
    # a short sim in the file itself, so every run records the same scenario.json
    write_scenario(case_file, case_study_scenario_dict(sim={"dt": 0.02, "t_end": 2.0, "method": "rk4"}))
    assert run(["analyze", case_file, "--out", out]) == EXIT_OK
    assert run(["dichotomy", case_file, "--out", out]) == EXIT_OK
    assert run(["modes", case_file, "--out", out]) == EXIT_OK
    edit(out)
    capsys.readouterr()
    command, *flags = argv
    target = [out] if command == "plotdata" else [case_file, "--out", out]
    assert run([command, *target, *flags]) == code
    err = capsys.readouterr().err.splitlines()
    if message is None:
        assert err == []
        assert list(load_json(out / "manifest.json")["runs"]) == [command]
    else:
        assert len(err) == 1 and message.format(tmp=tmp_path) in err[0], err
