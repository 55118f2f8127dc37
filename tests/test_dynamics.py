"""Gradient flow, linearized simulation, impulse steady states, dichotomy."""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit.dynamics import _gradient_rhs

from conftest import (
    complete_k4,
    four_cycle,
    no_edges,
    random_rigid_framework,
    square_with_diagonal,
    system_of,
    triangle,
)


def spectral_settings(sys, horizon_folds=20.0):
    """Step/horizon adapted to the stiffness spectrum (oracle-side choice)."""
    lam = np.abs(np.linalg.eigvalsh(sys.A))
    lmax = lam.max()
    lnz = lam[lam > 1e-9 * lmax].min()
    return rk.SimSettings(dt=min(2.0 / lmax, 0.05), t_end=horizon_folds / lnz)


def recovery_scenario(**kwargs):
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    w0 = np.array([r_i[1], -r_i[0]])
    w0 /= np.linalg.norm(w0)
    defaults = dict(
        framework=fw,
        actuator=0,
        sensor=2,
        w0=w0,
        sim=rk.SimSettings(dt=0.005, t_end=40.0),
    )
    defaults.update(kwargs)
    return rk.Scenario(**defaults)


def test_gradient_rhs_matches_matrix_form():
    fw = square_with_diagonal()
    r_star = rk.rigidity_function(fw, fw.positions)
    rhs = _gradient_rhs(fw, r_star)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = fw.positions + 0.3 * rng.normal(size=fw.positions.size)
        explicit = -rk.rigidity_matrix(fw, p).entries.T @ (
            rk.rigidity_function(fw, p) - r_star
        )
        assert np.allclose(rhs(p), explicit, atol=1e-12)


def test_nonlinear_equilibrium_is_stationary():
    fw = square_with_diagonal()
    traj = rk.simulate_nonlinear(fw, fw.positions, rk.SimSettings(dt=0.01, t_end=1.0))
    assert np.array_equal(traj.states[-1], fw.positions)
    assert np.abs(traj.edge_errors).max() == 0.0


def test_nonlinear_rotated_reference_is_equilibrium():
    fw = square_with_diagonal()
    theta = np.deg2rad(10.0)
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    center = fw.points.mean(axis=0)
    rotated = ((fw.points - center) @ q.T + center).ravel()
    traj = rk.simulate_nonlinear(fw, rotated, rk.SimSettings(dt=0.01, t_end=1.0))
    assert np.abs(traj.edge_errors).max() < 1e-12


def test_gradient_flow_recovers_shape():
    fw = square_with_diagonal()
    rng = np.random.default_rng(3)
    bump = rng.normal(size=fw.positions.size)
    bump *= 1e-2 / np.linalg.norm(bump)
    traj = rk.simulate_nonlinear(fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=10.0))
    assert np.all(np.diff(traj.potential) <= 1e-12)
    assert np.abs(traj.edge_errors[-1]).max() < 1e-8


def test_euler_method_also_converges():
    fw = triangle()
    bump = np.array([0.01, -0.004, 0.0, 0.006, -0.008, 0.0])
    traj = rk.simulate_nonlinear(
        fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=10.0, method="euler")
    )
    assert np.abs(traj.edge_errors[-1]).max() < 1e-6


def test_rk4_order_of_accuracy():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    dp0 = rk.deformation_space(rk.rigidity_matrix(fw)).basis[:, 0]
    final = {}
    for dt in (0.02, 0.01, 0.0025):
        final[dt] = rk.simulate_lti(sys, dp0, rk.SimSettings(dt=dt, t_end=1.0)).states[-1]
    e_coarse = np.linalg.norm(final[0.02] - final[0.0025])
    e_fine = np.linalg.norm(final[0.01] - final[0.0025])
    assert 10.0 < e_coarse / e_fine < 25.0  # fourth order: about 16x per halving


def test_lti_kernel_states_are_constant():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    v = rk.rbm_basis(fw).v_x
    traj = rk.simulate_lti(sys, v, rk.SimSettings(dt=0.01, t_end=5.0))
    assert np.abs(traj.states - v).max() < 1e-10


def test_lti_eigenvector_decays_exponentially():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    lam, vec = np.linalg.eigh(sys.A)
    traj = rk.simulate_lti(sys, vec[:, 0], rk.SimSettings(dt=1e-3, t_end=1.0))
    expected = np.exp(lam[0] * 1.0)
    assert abs(np.linalg.norm(traj.states[-1]) - expected) / expected < 1e-6


def test_lti_tail_converges_to_flex_projection():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    rng = np.random.default_rng(8)
    dp0 = rng.normal(size=8)
    traj = rk.simulate_lti(sys, dp0, spectral_settings(sys))
    flex = rk.flex_space(rk.rigidity_matrix(fw))
    assert np.linalg.norm(traj.tail_state() - rk.project(flex, dp0)) < 1e-6


def test_non_finite_state_reports_step():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    with pytest.raises(rk.NumericalError, match="step"):
        rk.simulate_lti(sys, sys.B @ np.array([1.0, 0.0]), rk.SimSettings(dt=10.0, t_end=2000.0))
    sc = recovery_scenario(sim=rk.SimSettings(dt=10.0, t_end=2000.0))
    with pytest.raises(rk.NumericalError, match="non-finite state at step 40 "):
        rk.sweep_impulse_angles(sc, system_of(sc), 8)


def stepped_lti(a, y0, settings):
    """Reference for the closed-form iterate: the method stepped on x' = A x,
    one matrix-vector product at a time; ``y0`` may hold one state per
    column."""
    h = settings.dt
    y = np.array(y0, dtype=float)
    states = [y]
    for _ in range(max(1, int(round(settings.t_end / h)))):
        if settings.method == "euler":
            y = y + h * (a @ y)
        else:
            k1 = a @ y
            k2 = a @ (y + 0.5 * h * k1)
            k3 = a @ (y + 0.5 * h * k2)
            k4 = a @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return np.array(states)


def oracle_frameworks():
    rng = np.random.default_rng(31)
    canned = [triangle(), square_with_diagonal(), complete_k4(), four_cycle(), no_edges()]
    drawn = [random_rigid_framework(rng, n, 2) for n in range(4, 9) for _ in range(2)]
    ill_conditioned = random_rigid_framework(np.random.default_rng(0), 60, 2, ratio=0.0)
    return canned + drawn + [ill_conditioned]


ORACLE_ATOL = 1e-11


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_lti_matches_stepped_reference(method):
    rng = np.random.default_rng(32)
    settings = rk.SimSettings(dt=0.01, t_end=10.0, method=method)
    for fw in oracle_frameworks():
        sys = rk.linearize(fw, 0, fw.n - 1)
        dp0 = rng.normal(size=sys.dim)
        traj = rk.simulate_lti(sys, dp0, settings)
        expected = stepped_lti(sys.A, dp0, settings)
        assert traj.states.shape == expected.shape
        assert np.abs(traj.states - expected).max() <= ORACLE_ATOL, (fw.n, method)
        assert np.array_equal(traj.times, np.arange(len(expected)) * settings.dt)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_sweep_tail_matches_stepped_reference(method):
    rng = np.random.default_rng(33)
    n_angles = 8
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    directions = np.vstack([np.cos(angles), np.sin(angles)])
    for fw in oracle_frameworks():
        sc = rk.Scenario(
            framework=fw,
            actuator=int(rng.integers(fw.n)),
            sensor=0,
            w0=np.array([1.0, 0.0]),
            impulse=0.7,
            sim=rk.SimSettings(dt=0.01, t_end=10.0, method=method),
        )
        sys = system_of(sc)
        states = stepped_lti(sys.A, sys.B @ directions * sc.impulse, sc.sim)
        k = max(1, int(round(rk.dynamics.TAIL_FRACTION * len(states))))
        tails = states[-k:].mean(axis=0)  # (nd, N)
        r_star = rk.rigidity_function(fw, fw.positions)
        expected = [
            np.abs(rk.rigidity_function(fw, fw.positions + tails[:, j]) - r_star).max(initial=0.0)
            for j in range(n_angles)
        ]
        table = rk.sweep_impulse_angles(sc, sys, n_angles)
        assert np.abs(table[:, 3] - expected).max() <= ORACLE_ATOL, (fw.n, method)


def test_experiment_and_sweep_reject_another_system():
    sc = recovery_scenario()
    others = (
        rk.linearize(sc.framework, 1, 2),
        rk.linearize(complete_k4(), 0, 2),
        rk.linearize(sc.framework, sc.actuator, sc.sensor, rk.ToleranceOverrides(subspace=1e-7)),
    )
    for other in others:
        with pytest.raises(rk.ValidationError, match="another framework, nodes or tolerances"):
            rk.shape_recovery_experiment(sc, other)
        with pytest.raises(rk.ValidationError, match="another framework, nodes or tolerances"):
            rk.sweep_impulse_angles(sc, other, 4)


def test_edgeless_framework_runs_every_simulation():
    fw = no_edges(3)
    settings = rk.SimSettings(dt=0.01, t_end=1.0)
    bump = np.linspace(-0.3, 0.2, fw.n * fw.d)
    nonlinear = rk.simulate_nonlinear(fw, fw.positions + bump, settings)
    assert nonlinear.edge_errors.shape == (101, 0)
    assert np.array_equal(nonlinear.states, np.tile(fw.positions + bump, (101, 1)))

    sc = rk.Scenario(framework=fw, actuator=1, sensor=0, w0=np.array([0.6, 0.8]), sim=settings)
    sys = system_of(sc)
    lti = rk.simulate_lti(sys, bump, settings)
    assert lti.edge_errors.shape == (101, 0)
    assert np.array_equal(lti.states, np.tile(bump, (101, 1)))

    with pytest.warns(UserWarning, match="flexible"):
        out = rk.shape_recovery_experiment(sc, sys, nonlinear=True)
    assert out.verdict == "withheld"
    assert out.predicted_edge_sq_lengths.shape == (0,)
    assert out.nonlinear_final_edge_errors.shape == (0,)
    assert np.array_equal(out.steady_state, sys.B @ sc.w0)

    table = rk.sweep_impulse_angles(sc, sys, 4)
    assert np.array_equal(table[:, 3], np.zeros(4))


def test_steady_state_examples():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    assert np.array_equal(rk.steady_state(sys, [0.0, 0.0]), np.zeros(8))

    free = no_edges(3)
    sys_free = rk.linearize(free, 1, 0)
    w0 = np.array([0.3, -0.7])
    assert np.allclose(rk.steady_state(sys_free, w0), sys_free.B @ w0, atol=1e-12)


def test_steady_state_matches_simulation_tail():
    rng = np.random.default_rng(21)
    for _ in range(5):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, 0)
        w0 = rng.normal(size=2)
        traj = rk.simulate_lti(sys, sys.B @ w0, spectral_settings(sys))
        assert np.linalg.norm(traj.tail_state() - rk.steady_state(sys, w0)) < 1e-6


def test_rbm_coefficients_examples():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    w_orth = np.array([r_i[1], -r_i[0]])
    # orthogonal input: the rotational coefficient vanishes to rounding level
    assert abs(rk.rbm_coefficients(rbm, 0, w_orth)[2]) < 1e-16
    assert abs(rk.rbm_coefficients(rbm, 0, w_orth / np.linalg.norm(w_orth))[2]) < 1e-15
    w_par = r_i / np.linalg.norm(r_i)
    c_r = rk.rbm_coefficients(rbm, 0, w_par)[2]
    assert abs(c_r - np.linalg.norm(r_i)) < 1e-14


def test_rbm_coefficients_reconstruct_steady_state():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    sys = rk.linearize(fw, 0, 2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        w0 = rng.normal(size=2)
        c_x, c_y, c_r = rk.rbm_coefficients(rbm, 0, w0)
        combo = c_x * rbm.v_x + c_y * rbm.v_y + c_r * rbm.v_r
        assert np.linalg.norm(combo - rk.steady_state(sys, w0)) < 1e-10


def test_rbm_coefficients_rejects_other_dimensions():
    rng = np.random.default_rng(6)
    fw3 = random_rigid_framework(rng, 4, 3)
    with pytest.raises(rk.ValidationError, match="d=2"):
        rk.rbm_coefficients(rk.rbm_basis(fw3), 0, [1.0, 0.0])


def test_recovery_branch():
    sc = recovery_scenario()
    out = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out.verdict == "recovery"
    assert abs(out.alignment) < 1e-12
    assert np.abs(out.simulated_final_edge_errors).max() < 1e-6
    disp = out.steady_state.reshape(4, 2)
    assert np.abs(disp - disp[0]).max() < 1e-8  # pure translation


def test_distortion_branch_matches_prediction():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    sc = recovery_scenario(w0=r_i / np.linalg.norm(r_i))
    out = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out.verdict == "distortion"
    r_star = rk.rigidity_function(fw, fw.positions)
    predicted_change = out.predicted_edge_sq_lengths - r_star
    assert np.all(predicted_change > 0)
    rel = np.abs(out.simulated_final_edge_errors - predicted_change) / predicted_change.max()
    assert rel.max() < 0.01


def test_predicted_lengths_use_squared_rotation_gain():
    # planar identity: the rotated edge has the same length, so the predicted
    # squared length is (1 + angle^2) times the original
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    sc = recovery_scenario(w0=r_i / np.linalg.norm(r_i))
    out = rk.shape_recovery_experiment(sc, system_of(sc))
    r_star = rk.rigidity_function(fw, fw.positions)
    expected = (1.0 + out.rotation_angle**2) * r_star
    assert np.allclose(out.predicted_edge_sq_lengths, expected, rtol=1e-12)


def test_flexible_framework_withholds_verdict():
    sc = rk.Scenario(
        framework=four_cycle(),
        actuator=0,
        sensor=2,
        w0=np.array([1.0, 0.0]),
        sim=rk.SimSettings(dt=0.005, t_end=10.0),
    )
    with pytest.warns(UserWarning, match="flexible"):
        out = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out.verdict == "withheld"
    assert out.flex_excitation is not None and out.flex_excitation > 0


def test_nonlinear_comparison_run():
    sc = recovery_scenario()
    out = rk.shape_recovery_experiment(sc, system_of(sc), nonlinear=True)
    assert out.nonlinear_trajectory is not None
    assert out.nonlinear_final_edge_errors is not None
    # the nonlinear flow also recovers shape for an orthogonal input
    assert np.abs(out.nonlinear_final_edge_errors).max() < 1e-6


def test_requires_planar_framework():
    rng = np.random.default_rng(9)
    fw3 = random_rigid_framework(rng, 4, 3)
    sc = rk.Scenario(framework=fw3, actuator=0, sensor=1, w0=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(rk.ValidationError, match="d=2"):
        rk.shape_recovery_experiment(sc, system_of(sc))


def test_controllable_plane_normal_formula():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    plane = rk.controllable_plane(rbm, 0)
    r_i = rk.block(rbm.v_r, 0, 2)
    assert np.array_equal(plane.normal, [-r_i[0], -r_i[1], 1.0])
    assert np.allclose(plane.plane_basis.T @ plane.normal, 0.0, atol=1e-12)
    assert abs(np.linalg.norm(plane.recovery_line) - 1.0) < 1e-12
    assert abs(plane.recovery_line @ plane.normal) < 1e-12
    assert plane.recovery_line[2] == 0.0


def test_controllable_plane_orthogonality_random_inputs():
    fw = square_with_diagonal()
    plane = rk.controllable_plane(rk.rbm_basis(fw), 0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        w0 = rng.normal(size=2)
        assert abs(plane.coords(w0) @ plane.normal) <= 1e-12


def test_uncontrollable_coordinates_reconstruct_pinned_motion():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    plane = rk.controllable_plane(rbm, 0)
    motion = rk.rbm_motion_from_coords(rbm, plane.normal)
    assert np.linalg.norm(rk.block(motion, 0, 2)) <= 1e-12
    rot = rk.global_rotation_subspace(fw, 0)
    assert rk.principal_angles(rk.orthonormalize([motion]), rot).max() < 1e-10


def test_edge_error_series_equilibrium_and_translation():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    hold = rk.simulate_lti(sys, np.zeros(8), rk.SimSettings(dt=0.01, t_end=0.5))
    series = rk.edge_error_series(fw, hold)
    assert np.abs(series.exact).max() == 0.0
    assert np.abs(series.linearized).max() == 0.0

    # dyadic translation: exact cancellation in floating point
    translation = np.tile([0.5, 0.25], 4)
    errors = rk.rigidity_function(fw, fw.positions + translation) - rk.rigidity_function(
        fw, fw.positions
    )
    assert np.abs(errors).max() == 0.0


def test_edge_error_series_rotational_state():
    fw = square_with_diagonal()
    angle = 0.3
    centered = fw.points - fw.points.mean(axis=0)
    omega = rk.rotation_2d()
    dp = angle * (centered @ omega.T).ravel()
    r_star = rk.rigidity_function(fw, fw.positions)
    exact = rk.rigidity_function(fw, fw.positions + dp) - r_star
    idx_i = [i for i, _ in fw.edges]
    idx_j = [j for _, j in fw.edges]
    rotated = (fw.points[idx_i] - fw.points[idx_j]) @ omega.T
    predicted = angle**2 * np.einsum("kd,kd->k", rotated, rotated)
    assert np.abs(exact - predicted).max() < 1e-12


def test_edge_error_series_checks_provenance():
    fw = square_with_diagonal()
    other = triangle()
    traj = rk.simulate_nonlinear(fw, fw.positions, rk.SimSettings(dt=0.01, t_end=0.1))
    with pytest.raises(rk.ValidationError, match="different framework"):
        rk.edge_error_series(other, traj)


def test_lyapunov_monotonicity_random_perturbations():
    rng = np.random.default_rng(14)
    for _ in range(5):
        fw = random_rigid_framework(rng, int(rng.integers(4, 7)), 2)
        bump = rng.normal(size=fw.positions.size)
        bump *= 1e-2 / np.linalg.norm(bump)
        traj = rk.simulate_nonlinear(fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=2.0))
        assert np.all(np.diff(traj.potential) <= 1e-12)


def test_dichotomy_soundness_of_the_projection():
    """Orthogonal inputs leave exactly-translational steady states; inputs
    with a sizable aligned component stretch every edge by the rotation
    prediction."""
    rng = np.random.default_rng(18)
    for _ in range(10):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, 0)
        rbm = rk.rbm_basis(fw)
        r_i = rk.block(rbm.v_r, node, 2)
        r_star = rk.rigidity_function(fw, fw.positions)

        w_orth = np.array([r_i[1], -r_i[0]])
        steady = rk.steady_state(sys, w_orth)
        errors = rk.rigidity_function(fw, fw.positions + steady) - r_star
        assert np.abs(errors).max() <= 1e-12

        w_aligned = r_i * (0.2 / (r_i @ r_i))  # alignment exactly 0.2-ish
        c_r = rk.rbm_coefficients(rbm, node, w_aligned)[2]
        assert abs(c_r) > 0.1
        centered = fw.points - rbm.center
        angle = c_r / np.sqrt(np.einsum("kd,kd->", centered, centered))
        steady = rk.steady_state(sys, w_aligned)
        errors = rk.rigidity_function(fw, fw.positions + steady) - r_star
        idx_i = [i for i, _ in fw.edges]
        idx_j = [j for _, j in fw.edges]
        rotated = (fw.points[idx_i] - fw.points[idx_j]) @ rk.rotation_2d().T
        predicted = angle**2 * np.einsum("kd,kd->k", rotated, rotated)
        assert np.any(errors >= 0.9 * predicted)


def test_sweep_rows_and_recovery_angle():
    sc = recovery_scenario(sim=rk.SimSettings(dt=0.005, t_end=40.0))
    table = rk.sweep_impulse_angles(sc, system_of(sc), 8)
    assert table.shape == (8, 4)
    rbm = rk.rbm_basis(sc.framework)
    r_i = rk.block(rbm.v_r, 0, 2)
    for angle, alignment, c_r, max_err in table:
        w = np.array([np.cos(angle), np.sin(angle)])
        assert abs(alignment - r_i @ w) < 1e-14
        assert abs(c_r - sc.impulse * alignment) < 1e-14
    # the 45 degree grid hits the exact recovery direction of this framework
    recovery_row = table[1]
    assert abs(recovery_row[1]) < 1e-14
    assert recovery_row[3] < 1e-6


def test_sweep_matches_single_experiment():
    sc = recovery_scenario()
    table = rk.sweep_impulse_angles(sc, system_of(sc), 4)
    aligned = rk.Scenario(
        framework=sc.framework,
        actuator=sc.actuator,
        sensor=sc.sensor,
        w0=np.array([1.0, 0.0]),
        sim=sc.sim,
    )
    out = rk.shape_recovery_experiment(aligned, system_of(aligned))
    assert abs(table[0, 3] - np.abs(out.simulated_final_edge_errors).max()) < 1e-9
