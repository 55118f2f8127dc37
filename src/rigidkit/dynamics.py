"""Gradient-flow and linearized simulations, impulse steady states, and the
shape-recovery analysis.

The nonlinear closed loop descends the squared-edge-length error potential;
the linearized model evolves a deviation state under the stiffness matrix.
An impulsive input enters the linear model as an instantaneous state jump
(exact for an LTI system), and its steady state is the projection of that
jump onto the flex space. Whether the formation recovers its shape is
decided by the alignment of the input direction with the rotational
rigid-body mode's local velocity at the actuated node.

The recovery/distortion verdict is a first-order statement and is produced
from the linearized model; a nonlinear comparison run is available behind
a flag and reported without being asserted against.

Only the nonlinear flow is stepped. ``A`` is symmetric, so a fixed-step
method applied to ``x' = A x`` acts mode by mode: step k maps ``x0`` to
``V diag(g**k) V^T x0``, where ``A = V diag(lam) V^T`` and ``g`` is the
method's growth factor per step at ``dt * lam`` (its stability function;
Hairer & Wanner, Solving ODEs II, IV.2). The linearized trajectory and the
angle sweep both read this closed-form iterate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .framework import Framework, Scenario, SimSettings, ValidationError, block
from .modes import LinearizedSystem
from .rigidity import (
    FLEXIBLE,
    RbmBasis,
    classify_rigidity,
    flex_space,
    rigidity_function,
    rotation_2d,
)
from .subspaces import NumericalError, project

TAIL_FRACTION = 0.05

__all__ = [
    "Trajectory",
    "EdgeErrorSeries",
    "ImpulseOutcome",
    "ControllablePlane",
    "simulate_nonlinear",
    "simulate_lti",
    "steady_state",
    "rbm_coefficients",
    "rbm_motion_from_coords",
    "shape_recovery_experiment",
    "controllable_plane",
    "edge_error_series",
    "sweep_impulse_angles",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states of one simulation run.

    ``states`` holds absolute configurations for the nonlinear flow and
    deviations from the reference for the linearized model; ``edge_errors``
    holds the matching notion of edge error (exact squared-length errors,
    or the linearized ``R @ deviation``).
    """

    kind: str  # "nonlinear" | "lti"
    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, n*d)
    edge_errors: np.ndarray  # (T, m)
    potential: np.ndarray  # (T,)
    framework_hash: str

    def tail_state(self) -> np.ndarray:
        """Mean state over the trailing ``TAIL_FRACTION`` of samples."""
        return _tail_mean(self.states)


def _tail_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the trailing ``TAIL_FRACTION`` of the rows, at least one."""
    k = max(1, int(round(TAIL_FRACTION * len(rows))))
    return rows[-k:].mean(axis=0)


@dataclass(frozen=True)
class EdgeErrorSeries:
    """Exact and (when available) linearized edge-error time series."""

    exact: np.ndarray
    linearized: np.ndarray | None


def _edge_errors_of_states(fw: Framework, states: np.ndarray, r_star: np.ndarray) -> np.ndarray:
    """Exact squared-length errors for a (T, n*d) stack of configurations."""
    idx_i, idx_j = fw.edge_ends.T
    pts = states.reshape(states.shape[0], fw.n, fw.d)
    diff = pts[:, idx_i, :] - pts[:, idx_j, :]
    return np.einsum("tkd,tkd->tk", diff, diff) - r_star


def _stepper(rhs, dt: float, method: str):
    """One step of ``method`` ("rk4" or "euler", checked by SimSettings)."""
    if method == "euler":
        return lambda y: y + dt * rhs(y)

    def step(y):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _steps(settings: SimSettings) -> int:
    return max(1, int(round(settings.t_end / settings.dt)))


def _raise_if_non_finite(rows: np.ndarray, settings: SimSettings) -> None:
    """NumericalError naming the first step whose row is not finite."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise NumericalError(f"non-finite state at step {bad[0]} (t={bad[0] * settings.dt:.6g})")


def _integrate(rhs, y0: np.ndarray, settings: SimSettings) -> np.ndarray:
    """The one stepping loop, used by the nonlinear flow."""
    states = np.empty((_steps(settings) + 1, y0.size))
    states[0] = y0
    step = _stepper(rhs, settings.dt, settings.method)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(states)):
            if not np.isfinite(states[k - 1]).all():
                break  # the rows left unset follow the first non-finite one
            states[k] = step(states[k - 1])
    _raise_if_non_finite(states, settings)
    return states


def _trajectory(kind: str, fw: Framework, states, errors, settings: SimSettings) -> Trajectory:
    return Trajectory(
        kind=kind,
        times=np.arange(len(states)) * settings.dt,
        states=states,
        edge_errors=errors,
        potential=0.5 * np.einsum("tk,tk->t", errors, errors),
        framework_hash=fw.content_hash(),
    )


def _gradient_rhs(fw: Framework, r_star: np.ndarray):
    """Right-hand side of the gradient flow, assembled edge by edge.

    Algebraically identical to ``-R(p)^T (r(p) - r_star)``; the test suite
    checks the two forms against each other.
    """
    idx_i, idx_j = fw.edge_ends.T
    n, d = fw.n, fw.d

    def rhs(p):
        pts = p.reshape(n, d)
        diff = pts[idx_i] - pts[idx_j]
        err = np.einsum("kd,kd->k", diff, diff) - r_star
        pull = 2.0 * err[:, None] * diff
        out = np.zeros((n, d))
        np.add.at(out, idx_i, -pull)
        np.add.at(out, idx_j, pull)
        return out.ravel()

    return rhs


def simulate_nonlinear(fw: Framework, p0, settings: SimSettings = SimSettings()) -> Trajectory:
    """Integrate the nonlinear gradient flow from an absolute configuration."""
    start = np.asarray(p0, dtype=float).ravel()
    if start.size != fw.n * fw.d:
        raise ValidationError(f"state length: expected {fw.n * fw.d}, got {start.size}")
    r_star = rigidity_function(fw, fw.positions)
    states = _integrate(_gradient_rhs(fw, r_star), start, settings)
    return _trajectory("nonlinear", fw, states, _edge_errors_of_states(fw, states, r_star), settings)


def _modal_powers(sys: LinearizedSystem, settings: SimSettings) -> np.ndarray:
    """(steps + 1, nd) table of ``g**k``, with ``g`` one step of ``y' = lam * y``
    from ``y = 1`` for every eigenvalue ``lam`` of ``A`` at once."""
    lam = sys.spectrum[0]
    growth = _stepper(lambda y: lam * y, settings.dt, settings.method)(np.ones_like(lam))
    with np.errstate(over="ignore", invalid="ignore"):
        return growth ** np.arange(_steps(settings) + 1)[:, None]


def simulate_lti(sys: LinearizedSystem, dp0, settings: SimSettings = SimSettings()) -> Trajectory:
    """The method's iterates on the linearized model from a deviation
    state, in closed form: row k is ``V diag(g**k) V^T dp0``.

    An impulse of direction ``w0`` and magnitude ``s`` corresponds to the
    initial deviation ``B @ w0 * s``. Edge errors along the trajectory are
    the linearized ones; :func:`edge_error_series` also provides the exact
    variant.
    """
    start = np.asarray(dp0, dtype=float).ravel()
    if start.size != sys.dim:
        raise ValidationError(f"state length: expected {sys.dim}, got {start.size}")
    vec = sys.spectrum[1]
    modal = _modal_powers(sys, settings)
    with np.errstate(over="ignore", invalid="ignore"):
        modal *= vec.T @ start
        states = modal @ vec.T
    _raise_if_non_finite(states, settings)
    return _trajectory("lti", sys.framework, states, states @ sys.rigidity.entries.T, settings)


def edge_error_series(fw: Framework, traj: Trajectory) -> EdgeErrorSeries:
    """Exact (and for linearized runs also first-order) edge-error series."""
    if traj.framework_hash != fw.content_hash():
        raise ValidationError("trajectory was produced by a different framework")
    if traj.kind == "nonlinear":
        return EdgeErrorSeries(exact=traj.edge_errors, linearized=None)
    r_star = rigidity_function(fw, fw.positions)
    exact = _edge_errors_of_states(fw, traj.states + fw.positions, r_star)
    return EdgeErrorSeries(exact=exact, linearized=traj.edge_errors)


def steady_state(sys: LinearizedSystem, w0, magnitude: float = 1.0) -> np.ndarray:
    """Limit deviation after an impulse: projection of the initial jump onto
    the flex space."""
    w = np.asarray(w0, dtype=float).ravel()
    if w.size != sys.framework.d:
        raise ValidationError(f"w0: expected {sys.framework.d} entries, got {w.size}")
    return project(flex_space(sys.rigidity), sys.B @ w * magnitude)


def rbm_coefficients(rbm: RbmBasis, node: int, w0) -> tuple[float, float, float]:
    """Coefficients (c_x, c_y, c_r) excited by an input at one node.

    Uses the orthonormal rigid-body basis, so each coefficient is the inner
    product of the basis vector's block at the node with the input.
    Planar only.
    """
    d = rbm.translations.shape[1]
    if d != 2:
        raise ValidationError(f"rbm_coefficients is defined for d=2, got d={d}")
    w = np.asarray(w0, dtype=float).ravel()
    if w.size != 2:
        raise ValidationError(f"w0: expected 2 entries, got {w.size}")
    c_x = float(block(rbm.v_x, node, 2) @ w)
    c_y = float(block(rbm.v_y, node, 2) @ w)
    c_r = float(block(rbm.v_r, node, 2) @ w)
    return (c_x, c_y, c_r)


def rbm_motion_from_coords(rbm: RbmBasis, coords) -> np.ndarray:
    """Stacked motion for rigid-body coordinates (c_x, c_y, c_r).

    Coordinates are taken in the node-normalized convention: unit-block
    translations (every agent moves by (c_x, c_y)) plus the orthonormal
    rotation mode scaled by c_r.
    """
    d = rbm.translations.shape[1]
    if d != 2:
        raise ValidationError(f"rbm_motion_from_coords is defined for d=2, got d={d}")
    c = np.asarray(coords, dtype=float).ravel()
    if c.size != 3:
        raise ValidationError(f"coords: expected 3 entries, got {c.size}")
    nd = rbm.translations.shape[0]
    motion = np.zeros(nd)
    motion[0::2] = c[0]
    motion[1::2] = c[1]
    return motion + c[2] * rbm.v_r


@dataclass(frozen=True)
class ControllablePlane:
    """Geometry of the reachable rigid-body coordinates for one actuator.

    ``normal`` is the coordinate vector of the rigid-body motion that the
    actuator cannot excite: (-r_x, -r_y, 1) where (r_x, r_y) is the
    rotational mode's local velocity at the node. Every reachable
    coordinate vector (input direction paired with its rotational
    alignment) is orthogonal to it. ``recovery_line`` spans the plane's
    intersection with the pure-translation coordinates c_r = 0.
    """

    node: int
    rotation_at_node: np.ndarray  # (2,)
    normal: np.ndarray  # (3,)
    plane_basis: np.ndarray  # (3, 2), orthonormal
    recovery_line: np.ndarray  # (3,), unit

    def coords(self, w0) -> np.ndarray:
        """Rigid-body coordinates reached by an input direction."""
        w = np.asarray(w0, dtype=float).ravel()
        if w.size != 2:
            raise ValidationError(f"w0: expected 2 entries, got {w.size}")
        return np.array([w[0], w[1], float(self.rotation_at_node @ w)])

    def to_dict(self) -> dict:
        return {
            "node": self.node + 1,
            "rotation_at_node": list(self.rotation_at_node),
            "n_c": list(self.normal),
            "plane_basis": [list(col) for col in self.plane_basis.T],
            "recovery_line": list(self.recovery_line),
        }


def controllable_plane(rbm: RbmBasis, node: int) -> ControllablePlane:
    """Plane of rigid-body coordinates reachable from a single actuator."""
    d = rbm.translations.shape[1]
    if d != 2:
        raise ValidationError(f"controllable_plane is defined for d=2, got d={d}")
    r_i = np.array(block(rbm.v_r, node, 2))
    normal = np.array([-r_i[0], -r_i[1], 1.0])
    u, _, _ = np.linalg.svd(normal.reshape(-1, 1), full_matrices=True)
    plane_basis = u[:, 1:]
    nrm = float(np.hypot(r_i[0], r_i[1]))
    if nrm > 0.0:
        recovery_line = np.array([-r_i[1], r_i[0], 0.0]) / nrm
    else:
        recovery_line = np.array([1.0, 0.0, 0.0])
    return ControllablePlane(
        node=node,
        rotation_at_node=r_i,
        normal=normal,
        plane_basis=plane_basis,
        recovery_line=recovery_line,
    )


@dataclass(frozen=True)
class ImpulseOutcome:
    """Everything measured and predicted for one impulse experiment."""

    w0: np.ndarray
    magnitude: float
    w0_is_unit: bool
    alignment: float  # <rotation block at actuator, w0>
    coefficients: tuple[float, float, float]
    rotation_angle: float  # steady-state rotation angle: c_r over the rotation field norm
    steady_state: np.ndarray
    predicted_edge_sq_lengths: np.ndarray
    simulated_edge_sq_lengths: np.ndarray
    simulated_final_edge_errors: np.ndarray
    linearized_final_edge_errors: np.ndarray
    verdict: str  # "recovery" | "distortion" | "withheld"
    classification: str
    flex_excitation: float | None
    trajectory: Trajectory
    nonlinear_trajectory: Trajectory | None = None
    nonlinear_final_edge_errors: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "w0": list(self.w0),
            "magnitude": self.magnitude,
            "w0_is_unit": self.w0_is_unit,
            "alignment": self.alignment,
            "coefficients": {
                "c_x": self.coefficients[0],
                "c_y": self.coefficients[1],
                "c_r": self.coefficients[2],
            },
            "rotation_angle": self.rotation_angle,
            "steady_state": list(self.steady_state),
            "predicted_edge_sq_lengths": list(self.predicted_edge_sq_lengths),
            "simulated_edge_sq_lengths": list(self.simulated_edge_sq_lengths),
            "simulated_final_edge_errors": list(self.simulated_final_edge_errors),
            "linearized_final_edge_errors": list(self.linearized_final_edge_errors),
            "verdict": self.verdict,
            "classification": self.classification,
            "flex_excitation": self.flex_excitation,
        }
        if self.nonlinear_final_edge_errors is not None:
            out["nonlinear_final_edge_errors"] = list(self.nonlinear_final_edge_errors)
        return out


def _check_planar_system(scenario: Scenario, sys: LinearizedSystem, what: str) -> None:
    if scenario.framework.d != 2:
        raise ValidationError(f"{what} requires d=2, got d={scenario.framework.d}")
    key = (scenario.framework.content_hash(), scenario.actuator, scenario.sensor, scenario.tol)
    if (sys.framework.content_hash(), sys.actuator, sys.sensor, sys.rigidity.tol) != key:
        raise ValidationError(
            f"{what}: the linearized system belongs to another framework, nodes or tolerances"
        )


def shape_recovery_experiment(
    scenario: Scenario, sys: LinearizedSystem, nonlinear: bool = False
) -> ImpulseOutcome:
    """Run one impulse experiment on ``sys``, the scenario's linearized
    system, and decide recovery vs distortion.

    The verdict is "recovery" when the input direction is orthogonal to the
    rotational mode's local velocity at the actuated node (within the
    subspace tolerance), "distortion" otherwise, and "withheld" for
    flexible frameworks, where the impulse also excites non-rigid flexes
    and the rigid-body reasoning does not apply; the flex excitation
    magnitude is reported instead.
    """
    _check_planar_system(scenario, sys, "shape recovery experiment")
    fw = scenario.framework
    classification = classify_rigidity(sys.rigidity)
    if classification == FLEXIBLE:
        warnings.warn("framework is flexible: the recovery/distortion verdict is withheld", stacklevel=2)

    rbm = sys.rbm
    r_i = block(rbm.v_r, scenario.actuator, 2)
    alignment = float(r_i @ scenario.w0)

    dp0 = sys.B @ scenario.w0 * scenario.impulse
    traj = simulate_lti(sys, dp0, scenario.sim)
    tail = traj.tail_state()

    r_star = rigidity_function(fw, fw.positions)
    simulated_sq = _edge_errors_of_states(fw, (fw.positions + tail)[None, :], r_star)[0] + r_star
    simulated_err = simulated_sq - r_star
    linearized_err = sys.rigidity.entries @ tail

    # the jump is supported on the actuated block, so its coefficients are
    # inner products of the basis blocks there with w0 * impulse
    coeffs = rbm_coefficients(rbm, scenario.actuator, scenario.w0 * scenario.impulse)
    # the steady state rotates every agent by this angle about the center of
    # mass: the orthonormal-basis coefficient divided by the norm of the raw
    # rotation field stack(Omega (p_k - p_cm))
    centered = fw.points - rbm.center
    # a numpy float, so that its square overflows to inf instead of raising
    rotation_angle = coeffs[2] / np.sqrt(np.einsum("kd,kd->", centered, centered))
    idx_i, idx_j = fw.edge_ends.T
    rotated = (fw.points[idx_i] - fw.points[idx_j]) @ rotation_2d().T
    predicted = r_star + rotation_angle**2 * np.einsum("kd,kd->k", rotated, rotated)

    steady = steady_state(sys, scenario.w0, scenario.impulse)

    flex_excitation = None
    if classification == FLEXIBLE:
        verdict = "withheld"
        rbm_part = rbm.matrix @ (rbm.matrix.T @ dp0)
        flex_excitation = float(np.linalg.norm(steady - rbm_part))
    elif abs(alignment) <= sys.rigidity.subspace_tol:
        verdict = "recovery"
    else:
        verdict = "distortion"

    nl_traj = simulate_nonlinear(fw, fw.positions + dp0, scenario.sim) if nonlinear else None

    return ImpulseOutcome(
        w0=np.array(scenario.w0),
        magnitude=scenario.impulse,
        w0_is_unit=bool(abs(np.linalg.norm(scenario.w0) - 1.0) <= 1e-12),
        alignment=alignment,
        coefficients=coeffs,
        rotation_angle=rotation_angle,
        steady_state=steady,
        predicted_edge_sq_lengths=predicted,
        simulated_edge_sq_lengths=simulated_sq,
        simulated_final_edge_errors=simulated_err,
        linearized_final_edge_errors=linearized_err,
        verdict=verdict,
        classification=classification,
        flex_excitation=flex_excitation,
        trajectory=traj,
        nonlinear_trajectory=nl_traj,
        nonlinear_final_edge_errors=None if nl_traj is None else _tail_mean(nl_traj.edge_errors),
    )


def sweep_impulse_angles(scenario: Scenario, sys: LinearizedSystem, n_angles: int) -> np.ndarray:
    """Impulse responses for input directions swept around the circle, on
    ``sys``, the scenario's linearized system.

    Returns one row per angle: (angle, alignment, c_r, max final exact edge
    error). The final state of every angle at once is the tail mean of the
    closed-form iterate, ``V diag(mean of g**k) V^T B w0``.
    """
    _check_planar_system(scenario, sys, "angle sweep")
    if n_angles < 1:
        raise ValidationError(f"sweep size must be positive, got {n_angles}")
    fw = scenario.framework

    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    directions = np.vstack([np.cos(angles), np.sin(angles)])  # (2, N)

    r_i = block(sys.rbm.v_r, scenario.actuator, 2)
    alignments = r_i @ directions
    c_r = alignments * scenario.impulse

    modal = _modal_powers(sys, scenario.sim)
    # a row of g**k that is not finite leaves every state at that step non-finite
    _raise_if_non_finite(modal, scenario.sim)
    vec = sys.spectrum[1]
    jumps = sys.B @ directions * scenario.impulse  # (nd, N)
    tails = vec @ (_tail_mean(modal)[:, None] * (vec.T @ jumps))  # (nd, N)

    r_star = rigidity_function(fw, fw.positions)
    finals = _edge_errors_of_states(fw, tails.T + fw.positions, r_star)
    max_err = np.abs(finals).max(axis=1) if fw.m else np.zeros(n_angles)
    return np.column_stack([angles, alignments, c_r, max_err])
