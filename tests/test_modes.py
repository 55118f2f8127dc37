"""Hidden-mode geometry: pinning analysis, rotation subspaces, reports."""

import numpy as np
import pytest

import rigidkit as rk

from conftest import (
    complete_k4,
    four_cycle,
    no_edges,
    random_rigid_framework,
    square_with_diagonal,
    triangle,
)


def krylov_hidden(A, B):
    """Independent oracle: nullspace of the transposed Krylov matrix
    [B, AB, ..., A^(nd-1) B], with per-power column normalization to keep
    the scales sane. (A, B) gives the uncontrollable subspace and, A being
    symmetric, (A, C^T) the unobservable one."""
    blocks = []
    power = B.copy()
    for _ in range(A.shape[0]):
        blocks.append(power / max(np.linalg.norm(power), 1e-300))
        power = A @ power
    return rk.nullspace(np.hstack(blocks).T)


def local_rotation_constraints(fw, node):
    """Independent oracle: stacked constraint matrix whose nullspace is the
    local rotation subspace, d rows pinning the node plus one row per
    incident edge."""
    n, d = fw.n, fw.d
    pts = fw.points
    rows = [np.zeros(n * d) for _ in range(d)]
    for a in range(d):
        rows[a][node * d + a] = 1.0
    for k in fw.neighbors(node):
        row = np.zeros(n * d)
        row[k * d : (k + 1) * d] = pts[k] - pts[node]
        rows.append(row)
    return np.vstack(rows)


def test_linearize_two_node_example():
    fw = rk.Framework.from_points([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    sys = rk.linearize(fw, 0, 1)
    expected = np.array(
        [
            [-4.0, 0.0, 4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [4.0, 0.0, -4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(sys.A, expected)


def test_linearize_selectors_and_symmetry():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    assert np.array_equal(sys.A, sys.A.T)
    v = np.zeros(8)
    v[:2] = [1.0, 2.0]
    assert np.array_equal(sys.B.T @ v, [1.0, 2.0])
    v2 = np.zeros(8)
    v2[4:6] = [3.0, 4.0]
    assert np.array_equal(sys.C @ v2, [3.0, 4.0])
    with pytest.raises(rk.ValidationError):
        rk.linearize(fw, 9, 0)


def test_stiffness_kernel_contains_rigid_motions():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    rbm = rk.rbm_basis(fw)
    assert np.abs(sys.A @ rbm.matrix).max() < 1e-12 * np.abs(sys.A).max()


def test_stiffness_kernel_matches_flex_space():
    for fw in [triangle(), square_with_diagonal(), four_cycle()]:
        sys = rk.linearize(fw, 0, 0)
        lam = np.linalg.eigvalsh(sys.A)
        zero_dim = int(np.sum(np.abs(lam) <= 1e-10 * max(1.0, np.abs(lam).max())))
        assert zero_dim == rk.flex_space(rk.rigidity_matrix(fw)).dim
        assert lam.max() <= 1e-10 * max(1.0, abs(lam.min()))  # negative semidefinite


def test_eigenvalue_grouping_square():
    fw = square_with_diagonal()
    groups = rk.linearize(fw, 0, 2).eigen_groups
    assert [basis.shape[1] for _, basis in groups] == [1, 3, 1, 3]


def test_zero_group_follows_rigidity_rank():
    """On an ill-conditioned rigid lattice the three slowest deformation
    eigenvalues lie within the grouping gap of zero; the zero group must
    still hold exactly the nd - rank(R) rigid-body modes, and the split and
    the rotation characterization must agree on one hidden rotation."""
    fw = random_rigid_framework(np.random.default_rng(0), 60, 2, ratio=0.0)
    sys = rk.linearize(fw, 0, 30)
    assert rk.rigidity_rank(sys.rigidity) == 2 * fw.n - 3
    assert sys.eigen_groups[-1][1].shape[1] == 3
    checks = rk.hidden_mode_checks(sys)
    split = checks["uncontrollable_split"]
    assert split["rbm_component_dim"] == 1
    assert split["direct_sum_holds"]
    assert checks["rotation_characterization"]["uncontrollable_rbm_dim"] == 1
    assert checks["rotation_characterization"]["matches"]
    assert checks["existence_bound"]["holds"]


def test_uncontrollable_triangle_is_rotation_about_actuator():
    fw = triangle()
    sys = rk.linearize(fw, 0, 1)
    u = rk.uncontrollable_subspace(sys)
    assert u.dim == 1
    rot = rk.global_rotation_subspace(fw, 0)
    assert rk.principal_angles(u, rot).max() < 1e-8


def test_uncontrollable_matches_krylov_oracle():
    rng = np.random.default_rng(41)
    frameworks = [triangle(), square_with_diagonal()]
    frameworks += [random_rigid_framework(rng, n, 2) for n in range(4, 9) for _ in range(2)]
    for fw in frameworks:
        for node in range(fw.n):
            sensor = (node + 1) % fw.n
            sys = rk.linearize(fw, node, sensor)
            for hidden, oracle in [
                (rk.uncontrollable_subspace(sys), krylov_hidden(sys.A, sys.B)),
                (rk.unobservable_subspace(sys), krylov_hidden(sys.A, sys.C.T)),
            ]:
                assert hidden.dim == oracle.dim
                if hidden.dim:
                    assert rk.principal_angles(hidden, oracle).max() < 1e-7


def test_uncontrollable_no_edges():
    fw = no_edges(3)
    sys = rk.linearize(fw, 0, 1)
    u = rk.uncontrollable_subspace(sys)
    assert u.dim == fw.d * (fw.n - 1)
    for col in u.basis.T:
        assert np.linalg.norm(rk.block(col, 0, fw.d)) <= 1e-8


def test_pinning_soundness():
    rng = np.random.default_rng(77)
    for _ in range(10):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, node)
        u = rk.uncontrollable_subspace(sys)
        for col in u.basis.T:
            assert np.linalg.norm(rk.block(col, node, 2)) <= 1e-8


def test_unobservable_duality():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 3)
    unobs = rk.unobservable_subspace(sys)
    swapped = rk.uncontrollable_subspace(rk.linearize(fw, 3, 0))
    assert unobs.dim == swapped.dim
    assert rk.principal_angles(unobs, swapped).max() < 1e-10


def test_unobservable_isolated_sensor():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
    fw = rk.Framework.from_points(pts, [(0, 1), (0, 2), (1, 2)])  # node 3 isolated
    sys = rk.linearize(fw, 0, 3)
    unobs = rk.unobservable_subspace(sys)
    pinned = rk.orthonormalize(np.eye(8)[:, :6])  # everything supported off node 3
    assert unobs.dim == 6
    assert rk.contains(unobs, pinned) and rk.contains(pinned, unobs)


def test_global_rotation_subspace_triangle():
    fw = triangle()
    rot = rk.global_rotation_subspace(fw, 0)
    assert rot.dim == 1
    direction = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert abs(abs(direction @ rot.basis[:, 0]) - 1.0) < 1e-12


def test_global_rotation_zero_block_at_center_node():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        fw = random_rigid_framework(rng, 5, d)
        rot = rk.global_rotation_subspace(fw, 2)
        assert rot.dim == d * (d - 1) // 2
        for col in rot.basis.T:
            assert np.linalg.norm(rk.block(col, 2, d)) < 1e-14


def test_local_rotation_subspace_dimensions():
    fw = triangle()
    t = rk.local_rotation_subspace(fw, 0)
    assert t.dim == 2  # d (n-1) - deg = 4 - 2
    sq = square_with_diagonal()
    assert rk.local_rotation_subspace(sq, 1).dim == 4  # 2*3 - 2


def test_local_rotation_matches_constraint_nullspace(assorted_frameworks):
    rng = np.random.default_rng(99)
    for fw in assorted_frameworks:
        node = int(rng.integers(fw.n))
        t = rk.local_rotation_subspace(fw, node)
        oracle = rk.nullspace(local_rotation_constraints(fw, node))
        assert t.dim == oracle.dim
        if t.dim:
            assert rk.principal_angles(t, oracle).max() < 1e-10
        deg = len(fw.neighbors(node))
        assert t.dim == fw.d * (fw.n - 1) - deg  # generic positions


def test_elementary_rotation_triangle():
    fw = triangle()
    tau = rk.elementary_rotations(fw, 0, 1)[:, 0]
    expected = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.allclose(tau / np.linalg.norm(tau), expected)


def test_local_rotation_blocks_orthogonal_to_edges():
    fw = square_with_diagonal()
    node = 0
    t = rk.local_rotation_subspace(fw, node)
    for nbr in fw.neighbors(node):
        edge = fw.points[nbr] - fw.points[node]
        for col in t.basis.T:
            assert abs(edge @ rk.block(col, nbr, 2)) < 1e-12


def test_rbm_deformation_split_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    rep = rk.rbm_deformation_split_report(sys)
    assert rep["direct_sum_holds"]
    assert (rep["rbm_component_dim"], rep["deformation_component_dim"]) == (1, 0)
    assert rep["uncontrollable_dim"] == 1
    # the plain set intersection mixes eigenspaces and is strictly larger here
    assert rep["ambient_deformation_intersection_dim"] == 1


def test_rbm_deformation_split_flexible_cycle():
    sys = rk.linearize(four_cycle(), 0, 2)
    rep = rk.rbm_deformation_split_report(sys)
    assert rep["direct_sum_holds"]
    assert rep["rbm_component_dim"] + rep["deformation_component_dim"] == rep["uncontrollable_dim"]
    assert rep["rbm_component_dim"] > 1  # flex component beyond the pure rotation


def test_rbm_deformation_split_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        sys = rk.linearize(fw, int(rng.integers(fw.n)), 0)
        rep = rk.rbm_deformation_split_report(sys)
        assert rep["direct_sum_holds"]
        assert (
            rep["rbm_component_dim"] + rep["deformation_component_dim"]
            == rep["uncontrollable_dim"]
        )


def test_local_rotation_report_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    rep = rk.local_rotation_report(sys)
    assert rep["uncontrollable_dim"] == 1 and rep["local_rotation_dim"] == 2
    assert rep["local_contains_uncontrollable"]
    assert not rep["uncontrollable_contains_local"]
    assert not rep["equal"]


def test_rotation_inclusion_everywhere():
    rng = np.random.default_rng(17)
    frameworks = [triangle(), square_with_diagonal(), complete_k4(), four_cycle(), no_edges()]
    frameworks += [random_rigid_framework(rng, int(rng.integers(4, 8)), 2) for _ in range(10)]
    for fw in frameworks:
        node = int(rng.integers(fw.n))
        t = rk.local_rotation_subspace(fw, node)
        rot = rk.global_rotation_subspace(fw, node)
        assert rk.contains(t, rot)


def test_specialization_report_triangle():
    rep = rk.specialization_report(rk.linearize(triangle(), 0, 0))
    assert rep["rigid"]["applicable"]
    assert rep["rigid"]["components_orthogonal"]
    assert rep["complete_graph"]["applicable"]  # K3 is complete
    assert rep["complete_graph"]["global_rotation_dim"] == 1
    assert rep["complete_graph"]["local_rotation_dim"] == 2


def test_specialization_report_gating():
    rep = rk.specialization_report(rk.linearize(square_with_diagonal(), 0, 0))
    assert not rep["complete_graph"]["applicable"]
    assert "complete" in rep["complete_graph"]["reason"]
    flex = rk.specialization_report(rk.linearize(four_cycle(), 0, 0))
    assert not flex["rigid"]["applicable"]


def test_classify_modes_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    report = rk.classify_modes(sys)
    assert report.state_dim == 6
    assert sum(report.four_way.values()) == 6
    assert report.four_way == {
        "controllable_observable": 4,
        "uncontrollable_observable": 1,
        "controllable_unobservable": 1,
        "uncontrollable_unobservable": 0,
    }
    # the rotation about the actuator is uncontrollable yet visible at the
    # sensor: it must land in the uncontrollable-but-observable part
    rot = rk.global_rotation_subspace(sys.framework, 0)
    zero_group = report.groups[-1]
    assert rk.contains(zero_group.uncontrollable_observable, rot)


def test_classify_modes_same_node():
    sys = rk.linearize(square_with_diagonal(), 0, 0)
    report = rk.classify_modes(sys)
    assert report.four_way["uncontrollable_observable"] == 0
    assert report.four_way["controllable_unobservable"] == 0
    unctrl = rk.uncontrollable_subspace(sys)
    unobs = rk.unobservable_subspace(sys)
    assert rk.contains(unctrl, unobs) and rk.contains(unobs, unctrl)
    assert report.four_way["uncontrollable_unobservable"] == unctrl.dim


def test_classify_modes_dimensions_tile_random():
    rng = np.random.default_rng(23)
    for _ in range(8):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        i, j = rng.integers(fw.n, size=2)
        report = rk.classify_modes(rk.linearize(fw, int(i), int(j)))
        assert sum(report.four_way.values()) == fw.n * fw.d


def test_mode_report_serializable():
    report = rk.classify_modes(rk.linearize(triangle(), 0, 1))
    payload = report.to_dict()
    assert payload["actuator"] == 1 and payload["sensor"] == 2  # 1-based exterior
    assert sum(payload["four_way"].values()) == 6
    from rigidkit.jsonio import dumps_json

    assert "eigenvalues" in payload and dumps_json(payload)


def test_hidden_mode_checks_complete_on_examples():
    for fw in [triangle(), complete_k4(), square_with_diagonal(), four_cycle()]:
        sys = rk.linearize(fw, 0, min(1, fw.n - 1))
        checks = rk.hidden_mode_checks(sys)
        assert checks["rotation_inclusion"]["holds"]
        assert checks["uncontrollable_split"]["direct_sum_holds"]
        if checks["classification"] != rk.FLEXIBLE:
            assert checks["existence_bound"]["holds"]
            assert checks["rotation_characterization"]["matches"]
