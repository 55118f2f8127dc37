"""Rigidity function/matrix, rigid-body basis, and the derived subspaces."""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit.rigidity import rigid_motion_dim

from conftest import (
    collinear_path,
    complete_k4,
    four_cycle,
    lattice_scenario_dict,
    no_edges,
    nullspace,
    random_rigid_framework,
    square_with_diagonal,
    triangle,
    two_nodes,
)


def fd_jacobian(fw, p, eps=1e-6):
    """Central-difference Jacobian of the rigidity function (independent oracle)."""
    p = np.asarray(p, float)
    out = np.zeros((fw.m, p.size))
    for c in range(p.size):
        e = np.zeros(p.size)
        e[c] = eps
        out[:, c] = (rk.rigidity_function(fw, p + e) - rk.rigidity_function(fw, p - e)) / (2 * eps)
    return out


def test_rigidity_function_triangle():
    fw = triangle()
    assert np.allclose(rk.rigidity_function(fw, fw.positions), [1.0, 1.0, 2.0])


def test_rigidity_function_square_with_diagonal():
    fw = square_with_diagonal()
    # independent oracle: direct norm evaluation edge by edge
    expected = [
        float(np.sum((fw.points[i] - fw.points[j]) ** 2)) for i, j in fw.edges
    ]
    assert expected == [1.0, 2.0, 1.0, 1.0, 1.0]
    assert np.allclose(rk.rigidity_function(fw, fw.positions), expected)


def test_rigidity_function_coincident_configuration():
    fw = triangle()
    p = np.tile([0.3, 0.7], fw.n)
    assert np.array_equal(rk.rigidity_function(fw, p), np.zeros(fw.m))


def test_rigidity_function_length_mismatch():
    with pytest.raises(rk.ValidationError, match="length"):
        rk.rigidity_function(triangle(), np.zeros(5))


def loop_rigidity_matrix(fw, p):
    """Reference: the rigidity matrix assembled edge by edge."""
    pts = np.asarray(p, float).reshape(fw.n, fw.d)
    d = fw.d
    out = np.zeros((fw.m, fw.n * d))
    for k, (i, j) in enumerate(fw.edges):
        row = 2.0 * (pts[i] - pts[j])
        out[k, i * d : (i + 1) * d] = row
        out[k, j * d : (j + 1) * d] = -row
    return out


def test_rigidity_matrix_equals_edge_loop(assorted_frameworks):
    rng = np.random.default_rng(29)
    for fw in assorted_frameworks:
        assert np.array_equal(rk.rigidity_matrix(fw).entries, loop_rigidity_matrix(fw, fw.positions))
        p = fw.positions + rng.normal(size=fw.positions.size)
        assert np.array_equal(rk.rigidity_matrix(fw, p).entries, loop_rigidity_matrix(fw, p))


def test_rigidity_matrix_row_structure():
    fw = triangle()
    rm = rk.rigidity_matrix(fw)
    assert np.array_equal(rm.entries[0], [-2.0, 0.0, 2.0, 0.0, 0.0, 0.0])  # edge (0, 1)


def test_rigidity_matrix_matches_finite_differences():
    rng = np.random.default_rng(0)
    for fw in [triangle(), square_with_diagonal(), complete_k4(), four_cycle()]:
        p = fw.positions + 0.1 * rng.normal(size=fw.positions.size)
        rm = rk.rigidity_matrix(fw, p)
        scale = max(1.0, np.abs(rm.entries).max())
        assert np.abs(rm.entries - fd_jacobian(fw, p)).max() / scale < 1e-6


def test_rigidity_matrix_directional_derivative():
    fw = square_with_diagonal()
    rng = np.random.default_rng(1)
    rm = rk.rigidity_matrix(fw)
    for _ in range(5):
        v = rng.normal(size=fw.positions.size)
        eps = 1e-6
        fd = (
            rk.rigidity_function(fw, fw.positions + eps * v)
            - rk.rigidity_function(fw, fw.positions - eps * v)
        ) / (2 * eps)
        assert np.abs(rm.entries @ v - fd).max() < 1e-6


def test_rigidity_matrix_scales_linearly():
    fw = triangle()
    doubled = rk.rigidity_matrix(fw, 2.0 * fw.positions)
    assert np.allclose(doubled.entries, 2.0 * rk.rigidity_matrix(fw).entries)


def test_rbm_basis_translation_example():
    fw = triangle()
    rbm = rk.rbm_basis(fw)
    assert np.allclose(rbm.v_x, np.array([1, 0, 1, 0, 1, 0]) / np.sqrt(3))
    assert np.allclose(rbm.v_y, np.array([0, 1, 0, 1, 0, 1]) / np.sqrt(3))


def test_rbm_basis_rotation_blocks():
    fw = triangle()
    rbm = rk.rbm_basis(fw)
    assert np.allclose(rbm.center, [1 / 3, 1 / 3])
    raw = np.array([1 / 3, -1 / 3, 1 / 3, 2 / 3, -2 / 3, -1 / 3])  # Omega (p_k - center)
    assert np.allclose(rbm.v_r, raw / np.linalg.norm(raw))


def test_rbm_basis_orthonormal_and_in_kernel():
    for fw in [triangle(), square_with_diagonal(), complete_k4()]:
        rbm = rk.rbm_basis(fw)
        mat = rbm.matrix
        assert np.allclose(mat.T @ mat, np.eye(mat.shape[1]), atol=1e-12)
        r = rk.rigidity_matrix(fw).entries
        scale = np.linalg.norm(r)
        assert np.abs(r @ mat).max() <= 1e-10 * scale


def test_rbm_basis_degenerate_configuration():
    fw = rk.Framework(n=1, d=2, edges=(), positions=np.array([2.0, 3.0]))
    with pytest.raises(rk.ValidationError, match="center of mass"):
        rk.rbm_basis(fw)


def test_rbm_residual_square_with_diagonal():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r = rk.rigidity_matrix(fw).entries
    assert np.linalg.norm(r @ rbm.v_r) < 1e-10


def test_flex_space_dimensions():
    # oracle: numerical rank through numpy's independent rank routine
    for fw, expected in [(triangle(), 3), (two_nodes(), 3), (collinear_path(), 4)]:
        rm = rk.rigidity_matrix(fw)
        rank = np.linalg.matrix_rank(rm.entries)
        assert fw.n * fw.d - rank == expected
        assert rk.flex_space(rm).dim == expected


def test_self_stress_dimensions():
    assert rk.self_stress_space(rk.rigidity_matrix(square_with_diagonal())).dim == 0
    assert rk.self_stress_space(rk.rigidity_matrix(complete_k4())).dim == 1
    assert rk.self_stress_space(rk.rigidity_matrix(two_nodes())).dim == 0


def test_deformation_space_dimensions():
    assert rk.deformation_space(rk.rigidity_matrix(triangle())).dim == 3
    assert rk.deformation_space(rk.rigidity_matrix(square_with_diagonal())).dim == 5


def test_flex_and_deformation_fill_the_state_space():
    for fw in [triangle(), square_with_diagonal(), four_cycle(), complete_k4()]:
        rm = rk.rigidity_matrix(fw)
        whole = rk.orthonormalize(np.eye(fw.n * fw.d))
        assert rk.direct_sum_check(rk.flex_space(rm), rk.deformation_space(rm), whole)


def test_dimension_accounting_random_frameworks():
    rng = np.random.default_rng(42)
    frameworks = [random_rigid_framework(rng, int(rng.integers(4, 8)), 2) for _ in range(20)]
    frameworks += [four_cycle(), collinear_path(), complete_k4(), no_edges()]
    for fw in frameworks:
        rm = rk.rigidity_matrix(fw)
        rank = rm.rank
        assert rk.flex_space(rm).dim + rank == fw.n * fw.d
        assert rk.self_stress_space(rm).dim + rank == fw.m


def test_rigid_motion_invariance():
    fw = square_with_diagonal()
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = (fw.points @ q.T + np.array([3.0, -2.0])).ravel()
    base = rk.rigidity_function(fw, fw.positions)
    assert np.abs(rk.rigidity_function(fw, moved) - base).max() < 1e-12


def test_classification_examples():
    def classify(fw):
        return rk.classify_rigidity(rk.rigidity_matrix(fw))

    assert classify(triangle()) == rk.MINIMALLY_RIGID
    assert classify(square_with_diagonal()) == rk.MINIMALLY_RIGID
    assert classify(complete_k4()) == rk.RIGID_WITH_REDUNDANCY
    assert classify(four_cycle()) == rk.FLEXIBLE
    assert classify(collinear_path()) == rk.FLEXIBLE
    assert classify(two_nodes()) == rk.MINIMALLY_RIGID
    assert classify(no_edges()) == rk.FLEXIBLE


def test_is_infinitesimally_rigid():
    """A framework is infinitesimally rigid exactly when it does not classify
    as flexible: its flex space holds only the rigid-body motions."""
    rigid, flexible = rk.rigidity_matrix(triangle()), rk.rigidity_matrix(four_cycle())
    assert rk.classify_rigidity(rigid) != rk.FLEXIBLE
    assert rk.flex_space(rigid).dim == rigid_motion_dim(2)
    assert rk.classify_rigidity(flexible) == rk.FLEXIBLE
    assert rk.flex_space(flexible).dim > rigid_motion_dim(2)


def test_flex_and_deformation_spaces_complement(assorted_frameworks):
    """The flex, deformation and self-stress spaces come from the one cached
    SVD; the oracles are separate nullspace SVDs of R and R^T and an
    orthonormal basis of the columns of R^T."""
    for fw in assorted_frameworks:
        rm = rk.rigidity_matrix(fw)
        flex, deform, stress = rk.flex_space(rm), rk.deformation_space(rm), rk.self_stress_space(rm)
        nd = fw.n * fw.d
        scale = np.abs(rm.entries).max(initial=1.0)
        assert flex.dim + deform.dim == nd
        assert deform.dim == rm.rank
        assert np.linalg.norm(rm.entries @ flex.basis) <= 1e-10 * scale
        assert stress.dim == fw.m - rm.rank
        assert np.linalg.norm(rm.entries.T @ stress.basis) <= 1e-10 * scale
        oracle_stress = nullspace(rm.entries.T)
        assert rk.contains(stress, oracle_stress) and rk.contains(oracle_stress, stress)
        assert rk.direct_sum_check(flex, deform, rk.orthonormalize(np.eye(nd)))
        oracle_flex = nullspace(rm.entries)
        assert rk.contains(flex, oracle_flex) and rk.contains(oracle_flex, flex)
        if deform.dim:
            oracle_deform = rk.orthonormalize(rm.entries.T, tol=1e-10)
            assert oracle_deform.dim == deform.dim
            assert rk.contains(oracle_deform, deform) and rk.contains(deform, oracle_deform)
        assert rm.svd is rm.svd  # computed once
        with pytest.raises(ValueError):
            rm.svd[1][0, 0] = 1.0


def complete_graph(n: int) -> rk.Framework:
    """K_n at random planar positions: m = n(n-1)/2 edges, far more than nd."""
    rng = np.random.default_rng(n)
    return rk.Framework.from_points(rng.uniform(-1, 1, size=(n, 2)), [(i, j) for i in range(n) for j in range(i + 1, n)])


def lattice120() -> rk.Framework:
    data = lattice_scenario_dict()
    return rk.Framework.from_points(data["positions"], [(i - 1, j - 1) for i, j in data["edges"]])


@pytest.mark.parametrize(
    "make, m, nd",
    [(four_cycle, 4, 8), (square_with_diagonal, 5, 8), (lattice120, 317, 240), (lambda: complete_graph(20), 190, 40)],
    ids=["flexible", "minimally-rigid", "lattice120", "k20"],
)
def test_cached_svd_is_numpys_full_svd_without_u(make, m, nd):
    """``rm.svd`` holds the singular values, V^T and U's columns past the
    rank of numpy's full SVD of the entries, bit for bit, and no m x m
    factor: the U block is a copy, not a view that keeps all of U alive."""
    fw = make()
    rm = rk.rigidity_matrix(fw)
    assert (fw.m, fw.n * fw.d) == (m, nd)
    u, s, vt = np.linalg.svd(rm.entries, full_matrices=True)
    assert [f.shape for f in rm.svd] == [(min(m, nd),), (nd, nd), (m, m - rm.rank)]
    assert np.array_equal(rm.svd[0], s) and np.array_equal(rm.svd[1], vt)
    assert np.array_equal(rm.svd[2], u[:, rm.rank :]) and rm.svd[2].base is None
    assert not any(f.flags.writeable for f in rm.svd)
    assert rk.self_stress_space(rm).basis.base is None


def test_jacobian_oracle_random_frameworks_both_dimensions():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(d + 1, 9))
        fw = random_rigid_framework(rng, n, d)
        p = fw.positions + 0.05 * rng.normal(size=fw.positions.size)
        rm = rk.rigidity_matrix(fw, p)
        scale = max(1.0, np.abs(rm.entries).max())
        assert np.abs(rm.entries - fd_jacobian(fw, p)).max() / scale < 1e-6
