"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

import time

import numpy as np

import rigidkit as rk

from conftest import (
    complete_k4,
    four_cycle,
    intersect,
    random_rigid_framework,
    square_with_diagonal,
    system_of,
    triangle,
    whole_table,
    whole_table_tail,
)
from test_rigidity import fd_jacobian


def _ok(num: int, text: str) -> None:
    print(f"[PASS] criterion {num:02d}: {text}")


def _case_scenario(w0, dt=0.005, t_end=40.0) -> rk.Scenario:
    return rk.Scenario(
        framework=square_with_diagonal(),
        actuator=0,
        sensor=2,
        w0=np.asarray(w0, dtype=float),
        sim=rk.SimSettings(dt=dt, t_end=t_end),
    )


def _rotation_block(fw: rk.Framework, node: int) -> np.ndarray:
    return rk.block(rk.rbm_basis(fw).v_r, node, 2)


def test_criterion_01_rigidity_pipeline():
    start = time.perf_counter()
    fw = square_with_diagonal()
    rm = rk.rigidity_matrix(fw)
    rank = rm.rank
    classification = rk.classify_rigidity(rm)
    elapsed = time.perf_counter() - start
    assert rank == 5 == 2 * fw.n - 3
    assert classification == rk.MINIMALLY_RIGID
    assert elapsed < 1.0
    _ok(1, f"4-agent case framework minimally rigid with rank 5 ({elapsed:.3f}s)")


def test_criterion_02_jacobian_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked = 0
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(d + 1, 9))
        fw = random_rigid_framework(rng, n, d)
        p = fw.positions + 0.05 * rng.normal(size=fw.positions.size)
        rm = rk.rigidity_matrix(fw, p)
        scale = max(1.0, np.abs(rm.entries).max())
        assert np.abs(rm.entries - fd_jacobian(fw, p)).max() / scale < 1e-6
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 100
    assert elapsed < 10.0
    _ok(2, f"rigidity matrix matches central differences on 100 frameworks ({elapsed:.2f}s)")


def test_criterion_03_hidden_rbm_existence(rigid_frameworks_2d, rigid_frameworks_3d):
    rng = np.random.default_rng(2)
    for fw_list, bound in ((rigid_frameworks_2d, 1), (rigid_frameworks_3d, 3)):
        for fw in fw_list:
            node = int(rng.integers(fw.n))
            sys = rk.linearize(fw, node, 0)
            rm = rk.rigidity_matrix(fw)
            hidden_rbm = intersect(
                sys.uncontrollable, rk.flex_space(rm)
            )
            assert hidden_rbm.dim >= bound
    _ok(3, "uncontrollable rigid-body modes exist: dim >= 1 (d=2) and >= 3 (d=3)")


def test_criterion_04_rotation_characterization(rigid_frameworks_2d, rigid_frameworks_3d):
    rng = np.random.default_rng(3)
    for fw in rigid_frameworks_2d + rigid_frameworks_3d:
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, 0)
        pipeline = intersect(
            sys.uncontrollable, rk.flex_space(rk.rigidity_matrix(fw))
        )
        geometric = rk.global_rotation_subspace(fw, node)
        assert pipeline.dim == geometric.dim
        assert rk.principal_angles(pipeline, geometric).max() < 1e-8
    _ok(4, "PBH pipeline equals the pure-rotation construction on every rigid framework")


def test_criterion_05_rotation_inclusion(assorted_frameworks):
    rng = np.random.default_rng(4)
    for fw in assorted_frameworks:
        node = int(rng.integers(fw.n))
        local = rk.local_rotation_subspace(fw, node)
        global_rot = rk.global_rotation_subspace(fw, node)
        assert rk.contains(local, global_rot)
    _ok(5, "rotations about the node lie inside the local rotation subspace everywhere")


def test_criterion_06_uncontrollable_decomposition(assorted_frameworks):
    rng = np.random.default_rng(5)
    for fw in assorted_frameworks:
        node = int(rng.integers(fw.n))
        rep = rk.hidden_mode_checks(rk.linearize(fw, node, 0))["uncontrollable_split"]
        assert rep["direct_sum_holds"]
        assert (
            rep["rbm_component_dim"] + rep["deformation_component_dim"]
            == rep["uncontrollable_dim"]
        )
    _ok(6, "uncontrollable subspace splits into rigid-body and deforming parts everywhere")


def test_criterion_07_recovery_branch():
    start = time.perf_counter()
    fw = square_with_diagonal()
    r_i = _rotation_block(fw, 0)
    sc = _case_scenario([r_i[1], -r_i[0]])
    out, trajectory, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    elapsed = time.perf_counter() - start
    assert out["verdict"] == "recovery"
    assert np.abs(out["simulated_final_edge_errors"]).max() < 1e-6
    tail = whole_table_tail(trajectory).reshape(fw.n, 2)
    assert np.abs(tail - tail[0]).max() < 1e-8  # pure translation
    assert elapsed < 5.0
    _ok(7, f"orthogonal impulse: zero final edge error, pure translation ({elapsed:.2f}s)")


def test_criterion_08_distortion_branch():
    fw = square_with_diagonal()
    r_i = _rotation_block(fw, 0)
    sc = _case_scenario(r_i / np.linalg.norm(r_i))
    out, _, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out["verdict"] == "distortion"
    r_star = rk.rigidity_function(fw, fw.positions)
    predicted_change = out["predicted_edge_sq_lengths"] - r_star
    assert np.all(predicted_change > 0)
    rel = np.abs(out["simulated_final_edge_errors"] - predicted_change) / predicted_change
    assert rel.max() < 0.01
    _ok(8, "aligned impulse: per-edge squared-length change matches the rotation prediction")


def test_criterion_09_steady_state_projection(rigid_frameworks_2d):
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    for fw in rigid_frameworks_2d:
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, 0)
        w0 = rng.normal(size=2)
        w0 /= np.linalg.norm(w0)
        lam = np.abs(np.linalg.eigvalsh(sys.A))
        slowest = lam[lam > 1e-9 * lam.max()].min()
        settings = rk.SimSettings(dt=min(2.0 / lam.max(), 0.05), t_end=20.0 / slowest)
        traj = rk.simulate_lti(sys, sys.B @ w0, settings)
        assert np.linalg.norm(whole_table_tail(traj) - rk.steady_state(sys, w0)) <= 1e-6
    elapsed = time.perf_counter() - start
    _ok(9, f"simulated tails match the flex-space projection on 50 frameworks ({elapsed:.2f}s)")


def test_criterion_10_controllable_plane():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    plane = rk.controllable_plane(rbm, 0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        w0 = rng.normal(size=2)
        assert abs(np.array([*w0, plane["rotation_at_node"] @ w0]) @ plane["n_c"]) <= 1e-12
    n_c = plane["n_c"]
    motion = np.tile(n_c[:2], fw.n) + n_c[2] * rbm.v_r
    assert np.linalg.norm(rk.block(motion, 0, 2)) <= 1e-12
    _ok(10, "reachable coordinates stay on the plane; its normal rebuilds a pinned motion")


def test_criterion_11_nonlinear_sanity():
    start = time.perf_counter()
    fw = square_with_diagonal()
    rng = np.random.default_rng(8)
    bump = rng.normal(size=fw.positions.size)
    bump *= 1e-2 / np.linalg.norm(bump)
    traj = whole_table(rk.simulate_nonlinear(fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=10.0)))
    elapsed = time.perf_counter() - start
    assert np.all(np.diff(traj.potential) <= 1e-12)
    assert np.abs(traj.edge_errors[-1]).max() < 1e-8
    assert elapsed < 10.0
    _ok(11, f"gradient flow: monotone potential, shape recovered to 1e-8 ({elapsed:.2f}s)")


def test_criterion_12_reporting_checks():
    cases = {
        "triangle": triangle(),
        "complete_k4": complete_k4(),
        "case_study": square_with_diagonal(),
        "flexible_cycle": four_cycle(),
    }
    for name, fw in cases.items():
        sys = rk.linearize(fw, 0, min(1, fw.n - 1))
        checks = rk.hidden_mode_checks(sys)
        relation = checks["uncontrollable_vs_local_rotation"]
        assert {"uncontrollable_dim", "local_rotation_dim", "principal_angles"} <= set(relation)
        # verdicts must agree with the asserted criteria: inclusion always,
        # the rotation characterization whenever the framework is rigid
        assert checks["rotation_inclusion"]["holds"], name
        if checks["classification"] != rk.FLEXIBLE:
            assert checks["rotation_characterization"]["matches"], name
        # equality of the uncontrollable and local rotation subspaces is
        # recorded, never asserted
        assert isinstance(relation["equal"], bool)
        sections = checks["specializations"]
        assert sections["complete_graph"]["applicable"] == (fw.is_complete() and fw.n >= fw.d + 1)
    _ok(12, "subspace-relation and specialization reports complete with consistent verdicts")
