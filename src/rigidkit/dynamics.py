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
from the linearized model; the experiment also returns the nonlinear flow
from the same jump, not yet stepped, which ``dichotomy --nonlinear`` reports
without asserting against it. The experiment returns the dict that
``outcome.json`` holds.

Only the nonlinear flow is stepped. ``A`` is symmetric, so a fixed-step
method applied to ``x' = A x`` acts mode by mode: step k maps ``x0`` to
``V diag(g**k) V^T x0``, where ``A = V diag(lam) V^T`` and ``g`` is the
method's growth factor per step at ``dt * lam`` (its stability function;
Hairer & Wanner, Solving ODEs II, IV.2). The linearized trajectory and the
angle sweep both read this closed-form iterate.

The nonlinear flow stops stepping at the first step that returns its input
bit for bit: the step map is a pure function of the state, so every later
row equals that one and is copied, and the trajectory is the one a full
stepped run gives.

A trajectory is made a block of rows at a time and keeps no table whose
size grows with the step count: ``dichotomy`` writes each block and drops
it, and the trajectory keeps only the tail rows of its first pass that
ends, which the final means read. The linearized
model's blocks are rows of ``V diag(g**k) V^T x0``, all of one height, the
last one ending at the final step and overlapping the one before it. With
numpy's OpenBLAS such a matmul gives the whole table's rows bit for bit at
every width up to 192 on one thread, as the CLI runs, and up to 128 on two,
and at the multiples of 8 above those (as measured, widths 2-299); a
shorter block may round differently, and so may other widths. The angle
sweep builds only the tail rows it averages, and scans every row in
blocks only when the last one is not finite.

The nonlinear step makes few numpy calls, since at small n their fixed
cost is the step's cost: the edge vectors are gathered straight from the
flat state, the pulls go into one reused weights buffer for one
``bincount``, and the RK4 stages are summed in place. Its bits are those of
the plain expressions (``pts[i] - pts[j]``, ``concatenate([-pull, pull])``,
``y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``): it makes the same
IEEE operations on the same operands in the same order, a doubling made as
``k + k`` being ``2.0 * k`` exactly. The squared edge lengths stay an
``einsum``, whose sums round differently from ``(diff * diff).sum(1)`` for
d >= 3 and from ``vecdot`` and matmul for any d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .framework import Framework, Scenario, SimSettings, ValidationError, block
from .modes import LinearizedSystem
from .rigidity import (
    FLEXIBLE,
    RbmBasis,
    classify_rigidity,
    flex_space,
    rigidity_function,
)
from .subspaces import NumericalError, project

TAIL_FRACTION = 0.05
# gathered edge-vector coordinates per block of the exact edge errors, and
# the cells of a linearized trajectory block's two tables (_block_height)
EDGE_BLOCK_CELLS = 1 << 15

__all__ = [
    "Trajectory",
    "simulate_nonlinear",
    "simulate_lti",
    "steady_state",
    "rbm_coefficients",
    "shape_recovery_experiment",
    "sweep_impulse_angles",
]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states of one simulation run, ``count`` rows ``dt``
    apart.

    ``make_blocks()`` makes the states a block of rows at a time, afresh on
    every call: absolute configurations for the nonlinear flow and
    deviations from the reference for the linearized model. :meth:`blocks`
    is one pass over them, and the one way to read every row. The first
    pass that runs to the end keeps the state rows of the trailing
    ``TAIL_FRACTION``, which :meth:`tail_state` and
    :meth:`tail_edge_errors` read; a later pass makes the same bits and
    keeps nothing. :meth:`values` computes, for a block of state rows, the
    absolute configurations, their exact squared-length errors against
    ``r_star`` and the potential, half the errors' squared norm per row.
    """

    kind: str  # "nonlinear" | "lti"
    framework: Framework
    r_star: np.ndarray  # (m,) squared edge lengths of the reference
    dt: float
    count: int
    make_blocks: Callable[[], Iterable[np.ndarray]]  # (rows, n*d) blocks of the states
    _tail_rows: list = field(default_factory=list, init=False, repr=False, compare=False)

    def blocks(self) -> Iterator[np.ndarray]:
        """The blocks of one pass; the first pass that ends keeps its rows
        of ``_tail(count)``."""
        start, lo, tail = _tail(self.count).start, 0, []
        for block in self.make_blocks():
            if not self._tail_rows and lo + len(block) > start:
                tail.append(block[max(0, start - lo) :])
            lo += len(block)
            yield block
        if not self._tail_rows:
            self._tail_rows.append(np.concatenate(tail))

    def values(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Absolute configurations, exact edge errors and potential of a block
        of state rows, each row's values bit for bit those of every other
        block height."""
        configurations = states + self.framework.positions if self.kind == "lti" else states
        errors = _edge_errors_of_states(self.framework, configurations, self.r_star)
        return configurations, errors, _potential(errors)

    def _tail_states(self) -> np.ndarray:
        """The kept tail rows, after one pass if no pass has ended."""
        if not self._tail_rows:
            for _ in self.blocks():
                pass
        return self._tail_rows[0]

    def tail_state(self) -> np.ndarray:
        """Mean state over the trailing ``TAIL_FRACTION`` of samples."""
        return self._tail_states().mean(axis=0)

    def tail_edge_errors(self) -> np.ndarray:
        """Mean exact edge errors over the trailing ``TAIL_FRACTION`` of samples."""
        return self.values(self._tail_states())[1].mean(axis=0)


def _tail(count: int) -> slice:
    """The trailing ``TAIL_FRACTION`` of ``count`` rows, at least one."""
    return slice(count - max(1, int(round(TAIL_FRACTION * count))), count)


def _block_height(count: int, width: int) -> int:
    """Rows per block of a trajectory of ``count`` rows of ``width`` floats,
    two at least: a linearized block's matmul holds two such tables, its
    ``g**k`` rows and its states, of about ``EDGE_BLOCK_CELLS`` cells in
    all."""
    return min(count, max(2, EDGE_BLOCK_CELLS // (2 * width)))


def _edge_errors_of_states(fw: Framework, states: np.ndarray, r_star: np.ndarray) -> np.ndarray:
    """Exact squared-length errors for a (T, n*d) stack of configurations.

    Works through blocks of about ``EDGE_BLOCK_CELLS`` gathered coordinates,
    so the (T, m, d) edge vectors are never built whole. Each row's sum is
    the one ``einsum`` makes for the whole stack, bit for bit, and the
    result is column-major like that one's, so a mean over its rows adds in
    the same order too.
    """
    idx_i, idx_j = fw.edge_ends.T
    pts = states.reshape(states.shape[0], fw.n, fw.d)
    out = np.empty((states.shape[0], fw.m), order="F")
    step = max(1, EDGE_BLOCK_CELLS // max(1, fw.m * fw.d))
    for lo in range(0, pts.shape[0], step):
        diff = pts[lo : lo + step, idx_i] - pts[lo : lo + step, idx_j]
        np.einsum("tkd,tkd->tk", diff, diff, out=out[lo : lo + step])
    out -= r_star
    return out


def _potential(errors: np.ndarray) -> np.ndarray:
    """Half the squared norm of each row of ``errors``, its terms added left
    to right. Those are the bits of ``0.5 * einsum("tk,tk->t")`` over a
    column-major table of two rows or more, whatever the block's height:
    on one contiguous row that ``einsum`` adds in another order."""
    if not errors.shape[1]:
        return np.zeros(len(errors))
    return 0.5 * np.cumsum(errors * errors, axis=1)[:, -1]


def _stepper(rhs, dt: float, method: str):
    """One step of ``method`` ("rk4" or "euler", checked by SimSettings).

    The RK4 stages are summed in place, in the order of
    ``y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)`` and with its bits;
    ``k + k`` is ``2.0 * k`` exactly. ``rhs`` must return a new array.
    """
    if method == "euler":
        return lambda y: y + dt * rhs(y)
    half, sixth = 0.5 * dt, dt / 6.0

    def step(y):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        k2 += k2
        k1 += k2
        k3 += k3
        k1 += k3
        k1 += k4
        k1 *= sixth
        return y + k1

    return step


def _raise_if_non_finite(rows: np.ndarray, settings: SimSettings, first_step: int = 0) -> None:
    """NumericalError naming the first step whose row is not finite; row 0
    of ``rows`` is step ``first_step``."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        step = first_step + bad[0]
        raise NumericalError(f"non-finite state at step {step} (t={step * settings.dt:.6g})")


def _integrate(rhs, y0: np.ndarray, settings: SimSettings):
    """The one stepping loop, used by the nonlinear flow: yields the rows,
    from ``y0`` on, in blocks of ``_block_height`` rows.

    The step map is a pure function of the row, so once a step returns its
    input bit for bit every later row is that row too: the loop fills them
    and stops stepping. The comparison is on the bytes, not the values,
    because ``-0.0 == 0.0`` and the next step may tell them apart.
    """
    count = settings.samples
    height = _block_height(count, y0.size)
    step = _stepper(rhs, settings.dt, settings.method)
    y, bits, moving = y0, y0.tobytes(), True
    for lo in range(0, count, height):
        block = np.empty((min(height, count - lo), y0.size))
        block[:] = y  # row 0 of the first block, and every row once at rest
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1 if lo == 0 else 0, len(block) if moving else 0):
                block[i] = y = step(y)
                new_bits = y.tobytes()
                if new_bits == bits:
                    block[i + 1 :] = y
                    moving = False
                    break
                bits = new_bits
        _raise_if_non_finite(block, settings, lo)
        yield block


def _gradient_rhs(fw: Framework, r_star: np.ndarray):
    """Right-hand side of the gradient flow, assembled edge by edge.

    Algebraically identical to ``-R(p)^T (r(p) - r_star)``; the test suite
    checks the two forms against each other. The edge vectors are gathered
    straight from the flat state through precomputed coordinate indices,
    and the pulls are written into one reused weights buffer, ``-pull`` at
    the edges' first ends, then ``pull`` at their second ends, which one
    ``bincount`` adds into each coordinate in that order. The pull is
    ``(2.0 * err) * diff``: ``2.0 * (err * diff)`` rounds differently where
    the product is subnormal. The result is float64 even without edges,
    where ``bincount`` gives int64 zeros.
    """
    n, d, m = fw.n, fw.d, fw.m
    ends = fw.edge_ends.T[:, :, None] * d + np.arange(d)  # (2, m, d) flat coordinates
    at_i, at_j = ends
    slots = ends.ravel()
    weights = np.empty((2, m, d))
    neg_pull, pull = weights
    flat_weights = weights.ravel()

    def rhs(p):
        diff = p.take(at_i) - p.take(at_j)
        err = np.einsum("kd,kd->k", diff, diff) - r_star
        np.multiply((2.0 * err)[:, None], diff, out=pull)
        np.negative(pull, out=neg_pull)
        return np.bincount(slots, flat_weights, minlength=n * d).astype(float, copy=False)

    return rhs


def simulate_nonlinear(fw: Framework, p0, settings: SimSettings = SimSettings()) -> Trajectory:
    """The nonlinear gradient flow from an absolute configuration, stepped
    afresh on every pass over its blocks; a pass raises ``NumericalError``
    at the first block with a state that is not finite."""
    start = np.asarray(p0, dtype=float).ravel()
    if start.size != fw.n * fw.d:
        raise ValidationError(f"state length: expected {fw.n * fw.d}, got {start.size}")
    r_star = rigidity_function(fw, fw.positions)
    rhs = _gradient_rhs(fw, r_star)
    return Trajectory("nonlinear", fw, r_star, settings.dt, settings.samples, lambda: _integrate(rhs, start, settings))


def _growth(sys: LinearizedSystem, settings: SimSettings) -> np.ndarray:
    """``g``, one step of ``y' = lam * y`` from ``y = 1``, for every
    eigenvalue ``lam`` of ``A`` at once."""
    lam = sys.spectrum[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _stepper(lambda y: lam * y, settings.dt, settings.method)(np.ones_like(lam))


def _modal_powers(growth: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, nd) table of ``g**k`` for the steps ``lo <= k < hi``, each
    row with the bits it has in the table from step 0.

    The power is taken entry by entry, but for a table of one row numpy
    sees one exponent for the whole row and may take another path (``x * x``
    for ``x**2``, 1 ulp away from its vector ``pow``), so such a table is
    built as two rows.
    """
    first = max(0, min(lo, hi - 2))
    with np.errstate(over="ignore", invalid="ignore"):
        return (growth ** np.arange(first, hi)[:, None])[lo - first :]


def _lti_blocks(sys: LinearizedSystem, start: np.ndarray, settings: SimSettings):
    """Rows of ``V diag(g**k) V^T start``, in blocks of ``_block_height``
    rows: the last matmul ends at the final step and overlaps the one
    before it, and yields only its new rows."""
    vec = sys.spectrum[1]
    growth = _growth(sys, settings)
    count = settings.samples
    height = _block_height(count, start.size)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = vec.T @ start
    for lo in range(0, count, height):
        first = min(lo, count - height)
        modal = _modal_powers(growth, first, first + height)
        with np.errstate(over="ignore", invalid="ignore"):
            modal *= coeffs
            rows = (modal @ vec.T)[lo - first :]
        _raise_if_non_finite(rows, settings, lo)
        yield rows


def simulate_lti(sys: LinearizedSystem, dp0, settings: SimSettings = SimSettings()) -> Trajectory:
    """The method's iterates on the linearized model from a deviation
    state, in closed form: row k is ``V diag(g**k) V^T dp0``.

    An impulse of direction ``w0`` and magnitude ``s`` corresponds to the
    initial deviation ``B @ w0 * s``. Edge errors along the trajectory are
    the exact ones of the absolute configurations ``reference + deviation``.
    Nothing is computed here: a pass over the blocks makes the rows, and
    raises ``NumericalError`` at the first block with a row that is not
    finite.
    """
    start = np.asarray(dp0, dtype=float).ravel()
    if start.size != sys.dim:
        raise ValidationError(f"state length: expected {sys.dim}, got {start.size}")
    fw = sys.framework
    return Trajectory(
        "lti", fw, rigidity_function(fw, fw.positions), settings.dt, settings.samples,
        lambda: _lti_blocks(sys, start, settings),
    )


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


def _check_planar_system(scenario: Scenario, sys: LinearizedSystem, what: str) -> None:
    if scenario.framework.d != 2:
        raise ValidationError(f"{what} requires d=2, got d={scenario.framework.d}")
    key = (scenario.framework.content_key(), scenario.actuator, scenario.sensor, scenario.tol)
    if (sys.framework.content_key(), sys.actuator, sys.sensor, sys.rigidity.tol) != key:
        raise ValidationError(
            f"{what}: the linearized system belongs to another framework, nodes or tolerances"
        )


def shape_recovery_experiment(scenario: Scenario, sys: LinearizedSystem) -> tuple[dict, Trajectory, Trajectory]:
    """Run one impulse experiment on ``sys``, the scenario's linearized
    system, and decide recovery vs distortion.

    Returns the outcome, the linearized trajectory, stepped once with its
    tail kept (a row that is not finite raises there, before the outcome is
    built), and the nonlinear flow from the reference plus the same jump,
    not yet stepped: a pass over its blocks steps it, and
    ``tail_edge_errors()`` gives its final edge errors, which
    ``dichotomy --nonlinear`` writes as ``nonlinear_final_edge_errors``.
    The outcome is the dict written under
    ``"outcome"`` in ``outcome.json``: the input (``w0``, ``magnitude``,
    ``w0_is_unit``), its ``alignment`` with the rotation block at the
    actuator, the rigid-body ``coefficients`` it excites, the steady-state
    ``rotation_angle`` (c_r over the norm of the rotation field), the
    ``steady_state``, the predicted and simulated final squared edge
    lengths, the exact and linearized final edge errors, the ``verdict``,
    the ``classification`` and ``flex_excitation``.

    The verdict is "recovery" when the input direction is orthogonal to the
    rotational mode's local velocity at the actuated node (within the
    subspace tolerance), "distortion" otherwise, and "withheld" for
    flexible frameworks, where the impulse also excites non-rigid flexes
    and the rigid-body reasoning does not apply; the flex excitation
    magnitude is reported instead.
    """
    _check_planar_system(scenario, sys, "shape recovery experiment")
    fw = scenario.framework
    classification = classify_rigidity(sys.rigidity)  # R's SVD first, while little else is held
    rbm = sys.rbm  # a degenerate framework is refused before any warning
    if classification == FLEXIBLE:
        warnings.warn("framework is flexible: the recovery/distortion verdict is withheld", stacklevel=2)

    r_i = block(rbm.v_r, scenario.actuator, 2)
    alignment = float(r_i @ scenario.w0)

    dp0 = sys.B @ scenario.w0 * scenario.impulse
    traj = simulate_lti(sys, dp0, scenario.sim)
    tail = traj.tail_state()

    r_star = traj.r_star
    simulated_sq = _edge_errors_of_states(fw, (fw.positions + tail)[None, :], r_star)[0] + r_star

    # the jump is supported on the actuated block, so its coefficients are
    # inner products of the basis blocks there with w0 * impulse
    c_x, c_y, c_r = rbm_coefficients(rbm, scenario.actuator, scenario.w0 * scenario.impulse)
    # the steady state rotates every agent by this angle about the center of
    # mass: the orthonormal-basis coefficient divided by the norm of the raw
    # rotation field stack(Omega (p_k - p_cm))
    centered = fw.points - rbm.center
    # a numpy float, so that its square overflows to inf instead of raising
    rotation_angle = c_r / np.sqrt(np.einsum("kd,kd->", centered, centered))
    with np.errstate(over="ignore"):
        angle_sq = rotation_angle**2

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

    outcome = {
        "w0": scenario.w0,
        "magnitude": scenario.impulse,
        "w0_is_unit": abs(math.hypot(*scenario.w0) - 1.0) <= 1e-12,  # hypot scales, so 1e300 cannot overflow
        "alignment": alignment,
        "coefficients": {"c_x": c_x, "c_y": c_y, "c_r": c_r},
        "rotation_angle": rotation_angle,
        "steady_state": steady,
        # a planar rotation keeps every edge length: |Omega e_k|^2 = |e_k|^2
        "predicted_edge_sq_lengths": r_star + angle_sq * r_star,
        "simulated_edge_sq_lengths": simulated_sq,
        "simulated_final_edge_errors": simulated_sq - r_star,
        "linearized_final_edge_errors": sys.rigidity.entries @ tail,
        "verdict": verdict,
        "classification": classification,
        "flex_excitation": flex_excitation,
    }
    return outcome, traj, simulate_nonlinear(fw, fw.positions + dp0, scenario.sim)


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

    growth = _growth(sys, scenario.sim)
    count = scenario.sim.samples
    tail = _tail(count)
    powers = _modal_powers(growth, tail.start, tail.stop)
    # A row of g**k that is not finite leaves every state at that step
    # non-finite. |g**k| does not fall as k grows where |g| > 1, and NaN or
    # inf in g fills every row after the first, so a non-finite row leaves
    # the last one non-finite: only then are the rows scanned, in blocks.
    if not np.isfinite(powers[-1]).all():
        height = _block_height(count, growth.size)
        for lo in range(0, count, height):
            _raise_if_non_finite(_modal_powers(growth, lo, min(lo + height, count)), scenario.sim, lo)
    vec = sys.spectrum[1]
    jumps = sys.B @ directions * scenario.impulse  # (nd, N)
    tails = vec @ (powers.mean(axis=0)[:, None] * (vec.T @ jumps))  # (nd, N)

    r_star = rigidity_function(fw, fw.positions)
    finals = _edge_errors_of_states(fw, tails.T + fw.positions, r_star)
    max_err = np.abs(finals).max(axis=1) if fw.m else np.zeros(n_angles)
    return np.column_stack([angles, alignments, c_r, max_err])
