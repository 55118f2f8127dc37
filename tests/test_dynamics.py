"""Gradient flow, linearized simulation, impulse steady states, dichotomy."""

import itertools
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import rigidkit as rk
from rigidkit import dynamics
from rigidkit.dynamics import _gradient_rhs

from conftest import (
    complete_k4,
    four_cycle,
    frameworks_with_node,
    lattice_scenario_dict,
    no_edges,
    random_rigid_framework,
    square_with_diagonal,
    system_of,
    triangle,
    whole_table,
    whole_table_tail,
    write_scenario,
)

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
OMEGA = np.array([[0.0, -1.0], [1.0, 0.0]])  # the planar infinitesimal rotation (x, y) -> (-y, x)


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


def gathered_edge_errors(fw, states, r_star):
    """Exact edge errors from the whole (T, m, d) stack of edge vectors, the
    form that the blocked ``_edge_errors_of_states`` replaced; kept as its
    oracle."""
    idx_i, idx_j = fw.edge_ends.T
    pts = states.reshape(states.shape[0], fw.n, fw.d)
    diff = pts[:, idx_i, :] - pts[:, idx_j, :]
    return np.einsum("tkd,tkd->tk", diff, diff) - r_star


@pytest.mark.parametrize("cells", [1, 7, 100, dynamics.EDGE_BLOCK_CELLS])
def test_blocked_edge_errors_match_gathered_form_bit_for_bit(cells):
    """Same bits and same memory order for any block size and dimension, so
    the potential summed over each row has the same bits too."""
    rng = np.random.default_rng(5)
    with mock.patch.object(dynamics, "EDGE_BLOCK_CELLS", cells):
        for d, n, steps in itertools.product([2, 3, 4, 7], [3, 6, 11], [2, 7, 300]):
            fw = rk.Framework.from_points(rng.normal(size=(n, d)), list(itertools.combinations(range(n), 2)))
            states = rng.normal(size=(steps, n * d)) * 10.0 ** rng.uniform(-3, 3, size=(steps, n * d))
            r_star = rng.normal(size=fw.m)
            want = gathered_edge_errors(fw, states, r_star)
            got = dynamics._edge_errors_of_states(fw, states, r_star)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides, (d, n, steps)
            potential = np.einsum("tk,tk->t", got, got)
            assert potential.tobytes() == np.einsum("tk,tk->t", want, want).tobytes(), (d, n, steps)


def whole_table_rows(traj):
    """Configurations, edge errors and potential of a trajectory built whole,
    as ``Trajectory`` held them before it computed them per block of rows:
    the errors column-major from the whole stack, the potential one
    ``einsum`` over them. Kept as the oracle of ``Trajectory.values``."""
    fw = traj.framework
    states = whole_table(traj).states
    configurations = states + fw.positions if traj.kind == "lti" else states
    errors = np.asfortranarray(gathered_edge_errors(fw, configurations, traj.r_star))
    return configurations, errors, 0.5 * np.einsum("tk,tk->t", errors, errors)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    case=frameworks_with_node(),
    kind=st.sampled_from(["lti", "nonlinear"]),
    count=st.integers(2, 90),
    height=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(rk.Framework.from_points(np.eye(3)[:, :2], [(0, 1), (0, 2), (1, 2)]), 0),
         kind="lti", count=31, height=15, seed=1)  # a last block of one row
def test_trajectory_rows_in_blocks_match_whole_table_bit_for_bit(case, kind, count, height, seed):
    """Edge errors and potential of every block height (a last block of one
    row included) and the nonlinear tail mean of the errors have the bits of
    the whole-table forms."""
    fw, _ = case
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(count, fw.n * fw.d)) * 10.0 ** rng.uniform(-3, 3, size=(count, fw.n * fw.d))
    r_star = rk.rigidity_function(fw, fw.positions)
    traj = dynamics.Trajectory(kind, fw, r_star, 0.1, count, lambda: (states,))
    want = whole_table_rows(traj)
    blocks = [traj.values(states[lo : lo + height]) for lo in range(0, count, height)]
    event("last block of one row" if count % height == 1 else "other last block")
    for got, expected in zip(zip(*blocks), want):
        assert same_bits(np.concatenate(got), expected)
    table = whole_table(traj)
    assert same_bits(table.edge_errors, want[1]) and same_layout(table.edge_errors, want[1])
    assert same_bits(table.potential, want[2])
    k = max(1, int(round(dynamics.TAIL_FRACTION * count)))
    tail = traj.values(states[dynamics._tail(count)])[1].mean(axis=0)
    assert same_bits(tail, want[1][-k:].mean(axis=0))


@pytest.mark.parametrize("source", ["triangle", "square_diagonal", "lattice 6x10", "lattice 10x12"])
def test_lti_blocks_match_whole_table_matmul_bit_for_bit(tmp_path, source):
    """Every matmul of the linearized trajectory has one height H, the last
    one ending at the final step, so the rows have the bits of the whole
    table's ``modal @ vec.T`` (the form the blocks replaced) for nd = 6, 8,
    120 and 240 and step counts around H."""
    if source.startswith("lattice"):
        rows, cols = map(int, source.split()[1].split("x"))
        path = write_scenario(tmp_path / "lattice.json", lattice_scenario_dict(rows=rows, cols=cols))
    else:
        path = DEMO_SCENARIOS / f"{source}.json"
    sc = rk.load_scenario(path)
    sys = system_of(sc)
    height = dynamics._block_height(10**9, sys.dim)
    dp0 = sys.B @ sc.w0 * sc.impulse
    vec = sys.spectrum[1]
    for steps in (1, 2, height - 1, height, height + 1, 8001):
        settings = replace(sc.sim, t_end=steps * sc.sim.dt)
        assert settings.samples == steps + 1
        modal = dynamics._modal_powers(dynamics._growth(sys, settings), 0, steps + 1)
        modal *= vec.T @ dp0
        traj = rk.simulate_lti(sys, dp0, settings)
        sizes = [len(block) for block in traj.blocks()]
        assert sizes[:-1] == [height] * (len(sizes) - 1) and sum(sizes) == steps + 1, (steps, sizes)
        assert same_bits(whole_table(traj).states, modal @ vec.T), (sys.dim, steps)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    log_dt=st.floats(-4.0, 1.0),
    steps=st.integers(1, 3000),
    method=st.sampled_from(["rk4", "euler"]),
)
@example(log_dt=-0.5, steps=2000, method="euler")  # |g| > 1: non-finite from a middle step on
@example(log_dt=0.0, steps=2, method="euler")  # a tail of one row, g**2: x * x is 1 ulp off pow there
def test_sweep_tail_and_first_non_finite_step_match_whole_table(log_dt, steps, method):
    """The sweep and the impulse experiment build only the tail rows of
    ``g**k``: their mean has the bits of the whole table's tail mean, and
    where the table has a row that is not finite both name the same first
    step."""
    dt = 10.0**log_dt
    sc = recovery_scenario(sim=rk.SimSettings(dt=dt, t_end=steps * dt, method=method))
    sys = system_of(sc)
    steps = sc.sim.samples - 1
    growth = dynamics._growth(sys, sc.sim)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = growth ** np.arange(steps + 1)[:, None]
    bad = np.flatnonzero(~np.isfinite(whole).all(axis=1))
    if bad.size:
        event("non-finite")
        message = f"non-finite state at step {bad[0]} (t={bad[0] * sc.sim.dt:.6g})"
        for run in (lambda: rk.sweep_impulse_angles(sc, sys, 4), lambda: rk.shape_recovery_experiment(sc, sys)):
            with pytest.raises(rk.NumericalError) as info:
                run()
            assert str(info.value) == message
        return
    tail = dynamics._tail(steps + 1)
    k = max(1, int(round(dynamics.TAIL_FRACTION * (steps + 1))))
    got = dynamics._modal_powers(growth, tail.start, tail.stop).mean(axis=0)
    assert same_bits(got, whole[-k:].mean(axis=0))
    # the experiment's final state is the same closed form, from its one jump
    dp0, vec = sys.B @ sc.w0 * sc.impulse, sys.spectrum[1]
    final = (vec @ (whole[-k:].mean(axis=0)[:, None] * (vec.T @ dp0[:, None])))[:, 0]
    outcome = rk.shape_recovery_experiment(sc, sys)[0]
    assert same_bits(outcome["linearized_final_edge_errors"], sys.rigidity.entries @ final)
    states = np.concatenate(list(rk.simulate_lti(sys, dp0, sc.sim).blocks()))
    assert np.allclose(final, states[tail].mean(axis=0), rtol=1e-9, atol=1e-12 * np.abs(states).max())
    # the rest of the sweep as it was, on the whole table's tail mean
    fw = sc.framework
    angles = 2.0 * np.pi * np.arange(4) / 4
    jumps = sys.B @ np.vstack([np.cos(angles), np.sin(angles)]) * sc.impulse
    tails = vec @ (whole[-k:].mean(axis=0)[:, None] * (vec.T @ jumps))
    finals = gathered_edge_errors(fw, tails.T + fw.positions, rk.rigidity_function(fw, fw.positions))
    assert same_bits(rk.sweep_impulse_angles(sc, sys, 4)[:, 3], np.abs(finals).max(axis=1))


def add_at_rhs(fw, r_star):
    """The gradient-flow right-hand side as two ``np.add.at`` scatters, the
    form that ``_gradient_rhs`` replaced; kept as its oracle."""
    idx_i, idx_j = fw.edge_ends.T

    def rhs(p):
        pts = p.reshape(fw.n, fw.d)
        diff = pts[idx_i] - pts[idx_j]
        err = np.einsum("kd,kd->k", diff, diff) - r_star
        pull = 2.0 * err[:, None] * diff
        out = np.zeros((fw.n, fw.d))
        np.add.at(out, idx_i, -pull)
        np.add.at(out, idx_j, pull)
        return out.ravel()

    return rhs


def same_layout(a, b):
    """Equal strides on every axis longer than one: numpy sets a length-one
    axis's stride as it likes, and no element is read along it."""
    return [s for s, n in zip(a.strides, a.shape) if n > 1] == [s for s, n in zip(b.strides, b.shape) if n > 1]


def same_bits(a, b):
    """Equal shapes and values, and equal signs of zeros: ``np.array_equal``
    alone takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_gradient_rhs_matches_add_at_form():
    rng = np.random.default_rng(40)
    frameworks = [triangle(), square_with_diagonal(), complete_k4(), four_cycle(), no_edges()]
    frameworks += [random_rigid_framework(rng, n, d) for n in (5, 9) for d in (2, 3)]
    for fw in frameworks:
        r_star = rk.rigidity_function(fw, fw.positions)
        fast, slow = _gradient_rhs(fw, r_star), add_at_rhs(fw, r_star)
        for scale in (0.0, 1e-3, 0.3, 10.0):
            p = fw.positions + scale * rng.normal(size=fw.positions.size)
            assert same_bits(fast(p), slow(p)), (fw.n, fw.d, scale)


def stepped_nonlinear(fw, p0, settings):
    """Reference for :func:`simulate_nonlinear`: the method stepped for every
    one of the run's steps on the ``np.add.at`` right-hand side, with no
    early exit; rows after an overflow stay non-finite."""
    rhs = add_at_rhs(fw, rk.rigidity_function(fw, fw.positions))
    h = settings.dt
    y = np.array(p0, dtype=float)
    states = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max(1, int(round(settings.t_end / h)))):
            if settings.method == "euler":
                y = y + h * rhs(y)
            else:
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states.append(y)
    return np.array(states)


@pytest.mark.parametrize("d", [2, 3])
def test_gradient_rhs_of_edgeless_framework_is_float_zero(d):
    """``bincount`` of no weights gives int64 zeros; the right-hand side is
    float64 zeros all the same, so an in-place float step can take it."""
    fw = rk.Framework.from_points(np.arange(3.0 * d).reshape(3, d), [])
    p = fw.positions + 0.5
    out = _gradient_rhs(fw, np.zeros(0))(p)
    assert out.dtype == np.float64
    assert same_bits(out, add_at_rhs(fw, np.zeros(0))(p))
    assert same_bits(out, np.zeros(3 * d))


def flow_case(points, edges, seed, scale, method, dt, steps):
    """(framework, start, settings) of one nonlinear flow: the points
    displaced by ``scale`` times a seeded normal draw."""
    fw = rk.Framework.from_points(points, edges)
    p0 = fw.positions + scale * np.random.default_rng(seed).normal(size=fw.positions.size)
    return fw, p0, rk.SimSettings(dt=dt, t_end=steps * dt, method=method)


@st.composite
def random_frameworks(draw, size=1.0):
    """d in {2, 3}, n <= 8, any set of edges (none and one included), the
    points a seeded normal draw times ``size``; and the seed."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return size * np.random.default_rng([seed, 1]).normal(size=(n, d)), edges, seed


@st.composite
def flow_cases(draw):
    points, edges, seed = draw(random_frameworks())
    return flow_case(
        points,
        edges,
        seed,
        draw(st.sampled_from([0.0, 1e-3, 0.3])),
        draw(st.sampled_from(["rk4", "euler"])),
        draw(st.sampled_from([0.01, 0.05, 0.1])),
        draw(st.integers(1, 80)),
    )


# one stiff edge: the flow reaches a bitwise fixed point at step 40 of 80
SETTLING_FLOW = flow_case([[0.0, 0.0], [1.0, 0.0]], [(0, 1)], 0, 1e-3, "rk4", 0.1, 80)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flow_cases())
@example(flow_case(np.arange(6.0).reshape(3, 2), [], 1, 0.3, "rk4", 0.05, 10))
@example(flow_case([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5]], [(0, 1)], 2, 0.3, "euler", 0.05, 20))
@example(SETTLING_FLOW)
def test_simulate_nonlinear_matches_stepped_oracle(flow):
    """Same bits as the method stepped on the ``np.add.at`` right-hand side,
    for every step count, start and method, with or without edges; a run
    that overflows names the oracle's first non-finite step."""
    fw, p0, settings = flow
    expected = stepped_nonlinear(fw, p0, settings)
    bad = np.flatnonzero(~np.isfinite(expected).all(axis=1))
    if bad.size:
        event("overflow")
        traj = rk.simulate_nonlinear(fw, p0, settings)
        with pytest.raises(rk.NumericalError, match=rf"^non-finite state at step {bad[0]} "):
            whole_table(traj)
        return
    event("stationary tail" if expected[-1].tobytes() == expected[-2].tobytes() else "moving")
    assert same_bits(whole_table(rk.simulate_nonlinear(fw, p0, settings)).states, expected)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1.0, 1e-103, 1e100]).flatmap(random_frameworks), st.sampled_from([0.0, 1e-3, 0.3]))
def test_gradient_rhs_matches_add_at_form_at_any_size(case, scale):
    """Same bits as the ``np.add.at`` form at any scale: with points at
    1e-103 the pulls are subnormal, where a product taken in another order,
    ``2.0 * (err * diff)`` say, rounds differently; at 1e100 they near the
    top of the float range."""
    points, edges, seed = case
    fw = rk.Framework.from_points(points, edges)
    r_star = rk.rigidity_function(fw, fw.positions)
    p = fw.positions * (1.0 + scale * np.random.default_rng(seed).normal(size=fw.positions.size))
    assert same_bits(_gradient_rhs(fw, r_star)(p), add_at_rhs(fw, r_star)(p))


def test_settling_flow_reaches_its_stationary_tail():
    """The example above does exercise the copied tail."""
    fw, p0, settings = SETTLING_FLOW
    states = stepped_nonlinear(fw, p0, settings)
    assert states[40].tobytes() == states[-1].tobytes() != states[39].tobytes()


def counted_simulation(monkeypatch, fw, p0, settings):
    """The whole table of ``simulate_nonlinear``, with the right-hand-side
    calls of its one pass counted."""
    calls = []
    make = rk.dynamics._gradient_rhs

    def counting(*args):
        rhs = make(*args)
        return lambda p: calls.append(1) or rhs(p)

    monkeypatch.setattr(rk.dynamics, "_gradient_rhs", counting)
    table = whole_table(rk.simulate_nonlinear(fw, p0, settings))
    return table, len(calls)


def assert_matches_stepped(traj, fw, p0, settings):
    expected = stepped_nonlinear(fw, p0, settings)
    r_star = rk.rigidity_function(fw, fw.positions)
    errors = np.array([rk.rigidity_function(fw, row) - r_star for row in expected])
    assert same_bits(traj.states, expected)
    assert same_bits(traj.times, np.arange(len(expected)) * settings.dt)
    assert same_bits(traj.edge_errors, errors)


def demo_impulse_start(name):
    sc = rk.load_scenario(DEMO_SCENARIOS / f"{name}.json")
    sys = system_of(sc)
    return sc, sc.framework.positions + sys.B @ sc.w0 * sc.impulse


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_nonlinear_settled_run_matches_stepped_reference(monkeypatch, name):
    """Long enough that every demo reaches an exact fixed point of the
    step map, after which the run stops stepping and copies the row."""
    sc, p0 = demo_impulse_start(name)
    settings = replace(sc.sim, t_end=25.0)
    traj, calls = counted_simulation(monkeypatch, sc.framework, p0, settings)
    assert_matches_stepped(traj, sc.framework, p0, settings)
    steps = len(traj.times) - 1
    assert calls < 4 * steps
    # the copied tail is the fixed point: the last stepped row, repeated
    assert np.all(traj.states[calls // 4 :] == traj.states[-1])


@pytest.mark.parametrize("name", ["triangle", "four_cycle"])
def test_nonlinear_unsettled_run_matches_stepped_reference(monkeypatch, name):
    """At their own horizons these demos never reach a fixed point, so
    every step is stepped."""
    sc, p0 = demo_impulse_start(name)
    traj, calls = counted_simulation(monkeypatch, sc.framework, p0, sc.sim)
    assert calls == 4 * (len(traj.times) - 1)
    assert_matches_stepped(traj, sc.framework, p0, sc.sim)


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_nonlinear_start_at_equilibrium_is_fixed_at_once(monkeypatch, method):
    fw = square_with_diagonal()
    settings = rk.SimSettings(dt=0.01, t_end=5.0, method=method)
    traj, calls = counted_simulation(monkeypatch, fw, fw.positions, settings)
    assert calls == (4 if method == "rk4" else 1)
    assert_matches_stepped(traj, fw, fw.positions, settings)


def test_integrate_stops_only_at_a_bitwise_fixed_point():
    """A step that only flips the sign of a zero compares equal to its input
    but is no fixed point when the next step reads that sign."""

    def rhs(y):
        return np.array([0.0, 0.0 if np.signbit(y[0]) else 1.0])

    settings = rk.SimSettings(dt=0.5, t_end=2.0, method="euler")
    states = np.concatenate(list(rk.dynamics._integrate(rhs, np.array([-0.0, 0.0]), settings)))
    assert np.array_equal(states[1], states[0])
    assert same_bits(states, [[-0.0, 0.0], [0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.0, 1.5]])


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_nonlinear_overflow_reports_the_stepped_reference_step(method):
    fw = square_with_diagonal()
    settings = rk.SimSettings(dt=10.0, t_end=100.0, method=method)
    p0 = fw.positions + 0.1 * np.random.default_rng(41).normal(size=fw.positions.size)
    expected = stepped_nonlinear(fw, p0, settings)
    bad = np.flatnonzero(~np.isfinite(expected).all(axis=1))
    assert 0 < bad[0] < len(expected) - 1
    message = f"non-finite state at step {bad[0]} (t={bad[0] * settings.dt:.6g})"
    traj = rk.simulate_nonlinear(fw, p0, settings)
    with pytest.raises(rk.NumericalError) as info:
        whole_table(traj)
    assert str(info.value) == message


def test_nonlinear_equilibrium_is_stationary():
    fw = square_with_diagonal()
    traj = whole_table(rk.simulate_nonlinear(fw, fw.positions, rk.SimSettings(dt=0.01, t_end=1.0)))
    assert np.array_equal(traj.states[-1], fw.positions)
    assert np.abs(traj.edge_errors).max() == 0.0


def test_nonlinear_rotated_reference_is_equilibrium():
    fw = square_with_diagonal()
    theta = np.deg2rad(10.0)
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    center = fw.points.mean(axis=0)
    rotated = ((fw.points - center) @ q.T + center).ravel()
    traj = whole_table(rk.simulate_nonlinear(fw, rotated, rk.SimSettings(dt=0.01, t_end=1.0)))
    assert np.abs(traj.edge_errors).max() < 1e-12


def test_gradient_flow_recovers_shape():
    fw = square_with_diagonal()
    rng = np.random.default_rng(3)
    bump = rng.normal(size=fw.positions.size)
    bump *= 1e-2 / np.linalg.norm(bump)
    traj = whole_table(rk.simulate_nonlinear(fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=10.0)))
    assert np.all(np.diff(traj.potential) <= 1e-12)
    assert np.abs(traj.edge_errors[-1]).max() < 1e-8


def test_euler_method_also_converges():
    fw = triangle()
    bump = np.array([0.01, -0.004, 0.0, 0.006, -0.008, 0.0])
    traj = whole_table(rk.simulate_nonlinear(
        fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=10.0, method="euler")
    ))
    assert np.abs(traj.edge_errors[-1]).max() < 1e-6


def test_rk4_order_of_accuracy():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    dp0 = rk.deformation_space(rk.rigidity_matrix(fw)).basis[:, 0]
    final = {}
    for dt in (0.02, 0.01, 0.0025):
        final[dt] = whole_table(rk.simulate_lti(sys, dp0, rk.SimSettings(dt=dt, t_end=1.0))).states[-1]
    e_coarse = np.linalg.norm(final[0.02] - final[0.0025])
    e_fine = np.linalg.norm(final[0.01] - final[0.0025])
    assert 10.0 < e_coarse / e_fine < 25.0  # fourth order: about 16x per halving


def test_lti_kernel_states_are_constant():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    v = rk.rbm_basis(fw).v_x
    traj = whole_table(rk.simulate_lti(sys, v, rk.SimSettings(dt=0.01, t_end=5.0)))
    assert np.abs(traj.states - v).max() < 1e-10


def test_lti_eigenvector_decays_exponentially():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    lam, vec = np.linalg.eigh(sys.A)
    traj = whole_table(rk.simulate_lti(sys, vec[:, 0], rk.SimSettings(dt=1e-3, t_end=1.0)))
    expected = np.exp(lam[0] * 1.0)
    assert abs(np.linalg.norm(traj.states[-1]) - expected) / expected < 1e-6


def test_lti_tail_converges_to_flex_projection():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    rng = np.random.default_rng(8)
    dp0 = rng.normal(size=8)
    traj = rk.simulate_lti(sys, dp0, spectral_settings(sys))
    flex = rk.flex_space(rk.rigidity_matrix(fw))
    assert np.linalg.norm(whole_table_tail(traj) - rk.project(flex, dp0)) < 1e-6


def test_non_finite_state_reports_step():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    traj = rk.simulate_lti(sys, sys.B @ np.array([1.0, 0.0]), rk.SimSettings(dt=10.0, t_end=2000.0))
    with pytest.raises(rk.NumericalError, match="step"):
        whole_table(traj)
    sc = recovery_scenario(sim=rk.SimSettings(dt=10.0, t_end=2000.0))
    with pytest.raises(rk.NumericalError, match="non-finite state at step 40 "):
        rk.sweep_impulse_angles(sc, system_of(sc), 8)
    # Every g**k finite, but rows past the largest float on the square at
    # dt = 2.9 / max|lam|: at impulse 1e300 the tail mean overflows too, at
    # 1e279 only the last rows do and the tail mean stays finite. The
    # experiment names the first such row, as a pass over the table does.
    square = rk.load_scenario(DEMO_SCENARIOS / "square_diagonal.json")
    dt = 2.9 / np.abs(system_of(square).spectrum[0]).max()
    for impulse, tail_finite in ((1e300, False), (1e279, True)):
        sc = replace(square, impulse=impulse, sim=rk.SimSettings(dt=dt, t_end=400 * dt))
        sys = system_of(sc)
        dp0 = sys.B @ sc.w0 * sc.impulse
        assert np.isfinite(dynamics._tail_mean(sys, sc.sim, dp0[:, None])).all() == tail_finite
        with pytest.raises(rk.NumericalError, match="non-finite state at step") as table:
            whole_table(rk.simulate_lti(sys, dp0, sc.sim))
        with pytest.raises(rk.NumericalError) as experiment:
            rk.shape_recovery_experiment(sc, sys)
        assert str(experiment.value) == str(table.value)


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
        traj = whole_table(rk.simulate_lti(sys, dp0, settings))
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
    nonlinear = whole_table(rk.simulate_nonlinear(fw, fw.positions + bump, settings))
    assert nonlinear.edge_errors.shape == (101, 0)
    assert np.array_equal(nonlinear.states, np.tile(fw.positions + bump, (101, 1)))

    sc = rk.Scenario(framework=fw, actuator=1, sensor=0, w0=np.array([0.6, 0.8]), sim=settings)
    sys = system_of(sc)
    lti = whole_table(rk.simulate_lti(sys, bump, settings))
    assert lti.edge_errors.shape == (101, 0)
    assert np.array_equal(lti.states, np.tile(bump, (101, 1)))

    with pytest.warns(UserWarning, match="flexible"):
        out, _, flow = rk.shape_recovery_experiment(sc, sys)
    assert out["verdict"] == "withheld"
    assert out["predicted_edge_sq_lengths"].shape == (0,)
    assert flow.tail_edge_errors().shape == (0,)
    assert np.array_equal(out["steady_state"], sys.B @ sc.w0)

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
        assert np.linalg.norm(whole_table_tail(traj) - rk.steady_state(sys, w0)) < 1e-6


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
    out, _, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out["verdict"] == "recovery"
    assert abs(out["alignment"]) < 1e-12
    assert np.abs(out["simulated_final_edge_errors"]).max() < 1e-6
    disp = out["steady_state"].reshape(4, 2)
    assert np.abs(disp - disp[0]).max() < 1e-8  # pure translation


def test_distortion_branch_matches_prediction():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    sc = recovery_scenario(w0=r_i / np.linalg.norm(r_i))
    out, _, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out["verdict"] == "distortion"
    r_star = rk.rigidity_function(fw, fw.positions)
    predicted_change = out["predicted_edge_sq_lengths"] - r_star
    assert np.all(predicted_change > 0)
    rel = np.abs(out["simulated_final_edge_errors"] - predicted_change) / predicted_change.max()
    assert rel.max() < 0.01


def test_predicted_lengths_use_squared_rotation_gain():
    # each edge rotated by the steady-state angle gains angle^2 |Omega e_k|^2;
    # planar identity: the rotated edge has the same length, so the predicted
    # squared length is (1 + angle^2) times the original
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    r_i = rk.block(rbm.v_r, 0, 2)
    sc = recovery_scenario(w0=r_i / np.linalg.norm(r_i))
    out, _, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    r_star = rk.rigidity_function(fw, fw.positions)
    idx_i, idx_j = fw.edge_ends.T
    rotated = (fw.points[idx_i] - fw.points[idx_j]) @ OMEGA.T
    gain = out["rotation_angle"] ** 2 * np.einsum("kd,kd->k", rotated, rotated)
    assert np.allclose(out["predicted_edge_sq_lengths"], r_star + gain, rtol=1e-12)
    expected = (1.0 + out["rotation_angle"] ** 2) * r_star
    assert np.allclose(out["predicted_edge_sq_lengths"], expected, rtol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=frameworks_with_node(dims=(2,), kinds=("minimal", "redundant")))
def test_shape_recovery_follows_the_alignment_with_the_rotation(case):
    """The paper's shape-recovery result on random rigid planar frameworks.
    An input orthogonal to the rotation block r_i at the actuator settles on
    a pure translation, so the exact final edge errors vanish; an input
    along r_i turns the formation by the steady-state angle, and every edge
    error is that angle squared times r*. The step resolves the fastest
    mode and the horizon is 20 time constants of the slowest one."""
    fw, node = case
    sys = rk.linearize(fw, node, 0)
    assert rk.classify_rigidity(sys.rigidity) != rk.FLEXIBLE
    lam = -sys.spectrum[0][: sys.rigidity.rank]
    sim = rk.SimSettings(dt=min(2.0 / lam.max(), 0.05), t_end=20.0 / lam.min())
    r_i = rk.block(sys.rbm.v_r, node, 2)
    r_star = rk.rigidity_function(fw, fw.positions)
    for w0, verdict in ((np.array([-r_i[1], r_i[0]]), "recovery"), (r_i, "distortion")):
        sc = rk.Scenario(framework=fw, actuator=node, sensor=0, w0=w0 / np.linalg.norm(w0), sim=sim)
        out, _, _ = rk.shape_recovery_experiment(sc, sys)
        assert out["verdict"] == verdict
        errors = out["simulated_final_edge_errors"]
        if verdict == "recovery":
            assert np.abs(errors).max() <= 1e-7 * r_star.max()
        else:
            stretch = out["rotation_angle"] ** 2 * r_star
            assert np.all(np.abs(errors - stretch) <= 1e-6 * stretch)


def test_flexible_framework_withholds_verdict():
    sc = rk.Scenario(
        framework=four_cycle(),
        actuator=0,
        sensor=2,
        w0=np.array([1.0, 0.0]),
        sim=rk.SimSettings(dt=0.005, t_end=10.0),
    )
    with pytest.warns(UserWarning, match="flexible"):
        out, _, _ = rk.shape_recovery_experiment(sc, system_of(sc))
    assert out["verdict"] == "withheld"
    assert out["flex_excitation"] is not None and out["flex_excitation"] > 0


def test_nonlinear_comparison_run():
    sc = recovery_scenario()
    out, _, nonlinear = rk.shape_recovery_experiment(sc, system_of(sc))
    assert nonlinear.kind == "nonlinear"
    assert "nonlinear_final_edge_errors" not in out
    final = nonlinear.tail_edge_errors()
    assert final.shape == (sc.framework.m,)
    # the nonlinear flow also recovers shape for an orthogonal input
    assert np.abs(final).max() < 1e-6


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
    assert np.array_equal(plane["n_c"], [-r_i[0], -r_i[1], 1.0])
    assert np.allclose(plane["plane_basis"] @ plane["n_c"], 0.0, atol=1e-12)
    assert abs(np.linalg.norm(plane["recovery_line"]) - 1.0) < 1e-12
    assert abs(plane["recovery_line"] @ plane["n_c"]) < 1e-12
    assert plane["recovery_line"][2] == 0.0


def test_controllable_plane_orthogonality_random_inputs():
    fw = square_with_diagonal()
    plane = rk.controllable_plane(rk.rbm_basis(fw), 0)
    rng = np.random.default_rng(12)
    for _ in range(100):
        w0 = rng.normal(size=2)
        assert abs(np.array([*w0, plane["rotation_at_node"] @ w0]) @ plane["n_c"]) <= 1e-12


def test_uncontrollable_coordinates_reconstruct_pinned_motion():
    fw = square_with_diagonal()
    rbm = rk.rbm_basis(fw)
    plane = rk.controllable_plane(rbm, 0)
    n_c = plane["n_c"]
    motion = np.tile(n_c[:2], fw.n) + n_c[2] * rbm.v_r
    assert np.linalg.norm(rk.block(motion, 0, 2)) <= 1e-12
    rot = rk.global_rotation_subspace(fw, 0)
    assert rk.principal_angles(rk.orthonormalize(motion[:, None]), rot).max() < 1e-10


def exact_edge_errors(fw, configurations):
    """Squared-length errors of each absolute configuration, one
    ``rigidity_function`` call per row."""
    r_star = rk.rigidity_function(fw, fw.positions)
    return np.array([rk.rigidity_function(fw, row) - r_star for row in configurations])


def test_edge_error_series_equilibrium_and_translation():
    """The edge errors of a linearized trajectory are the exact ones of the
    absolute configurations: zero at rest, and zero for a dyadic translation,
    whose squared edge lengths cancel exactly in floating point."""
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    settings = rk.SimSettings(dt=0.01, t_end=0.5)
    hold = whole_table(rk.simulate_lti(sys, np.zeros(8), settings))
    assert np.abs(hold.edge_errors).max() == 0.0
    assert np.abs(hold.potential).max() == 0.0

    translation = np.tile([0.5, 0.25], 4)
    assert np.abs(exact_edge_errors(fw, [fw.positions + translation])).max() == 0.0
    bump = np.array([0.01, -0.02, 0.0, 0.03, -0.01, 0.0, 0.02, 0.01])
    traj = whole_table(rk.simulate_lti(sys, bump, settings))
    assert same_bits(traj.edge_errors, exact_edge_errors(fw, traj.states + fw.positions))
    assert np.allclose(traj.potential, 0.5 * (traj.edge_errors**2).sum(axis=1), rtol=1e-15, atol=0.0)


def test_edge_error_series_rotational_state():
    """A small rotation is a flex, so the linearized trajectory rests there
    and its first-order errors ``R @ dp`` vanish; the trajectory reports the
    exact errors, which grow as the square of the angle."""
    fw = square_with_diagonal()
    angle = 0.3
    centered = fw.points - fw.points.mean(axis=0)
    dp = angle * (centered @ OMEGA.T).ravel()
    r_star = rk.rigidity_function(fw, fw.positions)
    exact = rk.rigidity_function(fw, fw.positions + dp) - r_star
    idx_i = [i for i, _ in fw.edges]
    idx_j = [j for _, j in fw.edges]
    rotated = (fw.points[idx_i] - fw.points[idx_j]) @ OMEGA.T
    predicted = angle**2 * np.einsum("kd,kd->k", rotated, rotated)
    assert np.abs(exact - predicted).max() < 1e-12

    sys = rk.linearize(fw, 0, 2)
    assert np.abs(sys.rigidity.entries @ dp).max() < 1e-12
    traj = whole_table(rk.simulate_lti(sys, dp, rk.SimSettings(dt=0.01, t_end=0.5)))
    assert np.abs(traj.edge_errors - predicted).max() < 1e-12


def test_lyapunov_monotonicity_random_perturbations():
    rng = np.random.default_rng(14)
    for _ in range(5):
        fw = random_rigid_framework(rng, int(rng.integers(4, 7)), 2)
        bump = rng.normal(size=fw.positions.size)
        bump *= 1e-2 / np.linalg.norm(bump)
        traj = whole_table(rk.simulate_nonlinear(fw, fw.positions + bump, rk.SimSettings(dt=1e-3, t_end=2.0)))
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
        rotated = (fw.points[idx_i] - fw.points[idx_j]) @ OMEGA.T
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
    out, _, _ = rk.shape_recovery_experiment(aligned, system_of(aligned))
    assert abs(table[0, 3] - np.abs(out["simulated_final_edge_errors"]).max()) < 1e-9
