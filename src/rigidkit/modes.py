"""Linearized input-output model and the geometry of its hidden modes.

The linearized gradient dynamics around the reference configuration have
system matrix ``A = -R^T R`` (a configuration-weighted graph Laplacian),
single-node input selector ``B = e_i (x) I_d`` and output selector
``C = e_j^T (x) I_d``. An eigenvector is uncontrollable exactly when its
block at the actuated node vanishes, and unobservable exactly when its
block at the measured node vanishes, so every construction here reduces to
"pinning" eigenspaces at a node.

Subspace relations that are expected to be exact are asserted by the test
suite; relations whose status depends on the framework (equality of the
uncontrollable subspace with the local rotation subspace, the complete
graph specialization) are only *reported*, with dimensions and principal
angles, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .framework import Framework, ToleranceOverrides, ValidationError
from .rigidity import (
    FLEXIBLE,
    RbmBasis,
    RigidityMatrix,
    classify_rigidity,
    deformation_space,
    flex_space,
    rbm_basis,
    rigid_motion_dim,
    rigidity_matrix,
    skew_generators,
)
from .subspaces import (
    DEFAULT_TOL,
    NumericalError,
    Subspace,
    contains,
    direct_sum_check,
    intersect,
    orthonormalize,
    principal_angles,
)

EIG_GROUP_RTOL = 1e-7

__all__ = [
    "EIG_GROUP_RTOL",
    "LinearizedSystem",
    "EigenspaceModes",
    "ModeReport",
    "linearize",
    "eigenspaces",
    "uncontrollable_subspace",
    "unobservable_subspace",
    "global_rotation_subspace",
    "local_rotation_subspace",
    "elementary_rotations",
    "rbm_deformation_split_report",
    "local_rotation_report",
    "specialization_report",
    "classify_modes",
    "hidden_mode_checks",
]


@dataclass(frozen=True)
class LinearizedSystem:
    """LTI model of the gradient dynamics around the reference configuration.

    Owns the one eigendecomposition of ``A``, which the simulations and
    every hidden-mode report read, the reports' pinned coefficients and
    the rigid-body basis. Its tolerances are those of ``rigidity``.
    """

    rigidity: RigidityMatrix
    actuator: int
    sensor: int
    A: np.ndarray  # (nd, nd), symmetric negative semidefinite
    B: np.ndarray  # (nd, d)
    C: np.ndarray  # (d, nd)
    _pinned: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def framework(self) -> Framework:
        return self.rigidity.framework

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``eigh`` of ``A`` (ascending eigenvalues, eigenvectors), computed once."""
        lam, vec = np.linalg.eigh(self.A)
        lam.setflags(write=False)
        vec.setflags(write=False)
        return lam, vec

    @cached_property
    def eigen_groups(self) -> tuple[tuple[float, np.ndarray], ...]:
        """Eigenvalue groups of ``A`` (see :func:`eigenspaces`), computed once;
        the zero group is the flex space at the system's rank cutoff."""
        return tuple(eigenspaces(*self.spectrum, flex_space(self.rigidity).basis))

    @cached_property
    def rbm(self) -> RbmBasis:
        """Rigid-body basis of the framework (see :func:`rbm_basis`), computed once."""
        return rbm_basis(self.framework)

    def pinned_coeffs(self, nodes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Per eigenvalue group, the coefficients c whose combination
        ``basis @ c`` vanishes at every node in ``nodes`` (up to the subspace
        tolerance); computed once per ``nodes``."""
        if nodes not in self._pinned:
            d = self.framework.d
            tol = self.rigidity.subspace_tol
            rows = np.concatenate([np.arange(k * d, (k + 1) * d) for k in nodes])
            coeffs = tuple(_pinned_coeffs(basis, rows, tol) for _, basis in self.eigen_groups)
            for c in coeffs:
                c.setflags(write=False)
            self._pinned[nodes] = coeffs
        return self._pinned[nodes]


def linearize(
    fw: Framework, actuator: int, sensor: int, tol: ToleranceOverrides = ToleranceOverrides()
) -> LinearizedSystem:
    """Stiffness matrix ``-R^T R`` with input/output selectors at two nodes;
    every report on the system uses the tolerances ``tol``."""
    for node, name in ((actuator, "actuator"), (sensor, "sensor")):
        if not (0 <= node < fw.n):
            raise ValidationError(f"{name}: node index {node} out of range for n={fw.n}")
    rm = rigidity_matrix(fw, tol=tol)
    gram = rm.entries.T @ rm.entries
    a = -0.5 * (gram + gram.T)  # symmetrize so A == A.T holds exactly
    d = fw.d
    b = np.zeros((fw.n * d, d))
    b[actuator * d : (actuator + 1) * d, :] = np.eye(d)
    c = np.zeros((d, fw.n * d))
    c[:, sensor * d : (sensor + 1) * d] = np.eye(d)
    return LinearizedSystem(rigidity=rm, actuator=actuator, sensor=sensor, A=a, B=b, C=c)


def eigenspaces(lam: np.ndarray, vec: np.ndarray, flex: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue groups of the stiffness matrix ``A = -R^T R``, ascending,
    from its ``eigh`` (``lam``, ``vec``).

    The last group is the zero eigenspace ker R, spanned by the orthonormal
    ``flex`` from the SVD of R: ``eigh`` resolves eigenvectors only to about
    ``eps * max|lambda|`` over their eigenvalue gap, too coarsely to keep
    the slowest deformations of an ill-conditioned framework apart from the
    rigid-body motions. The other eigenvectors are projected off ``flex``,
    and consecutive eigenvalues among them closer than
    ``EIG_GROUP_RTOL * max|lambda|`` share one eigenspace, since the pinning
    analysis must act on whole eigenspaces.
    """
    nonzero = lam.size - flex.shape[1]
    vec = vec[:, :nonzero]
    vec = vec - flex @ (flex.T @ vec)
    vec.setflags(write=False)
    gap = EIG_GROUP_RTOL * float(np.abs(lam).max())
    groups = []
    start = 0
    for k in range(1, nonzero + 1):
        if k == nonzero or lam[k] - lam[k - 1] > gap:
            groups.append((float(lam[start:k].mean()), vec[:, start:k]))
            start = k
    groups.append((float(lam[nonzero:].mean()), flex))
    return groups


def _block_rows(node: int, d: int) -> slice:
    return slice(node * d, (node + 1) * d)


def _pinned_coeffs(basis: np.ndarray, rows: np.ndarray, tol: float) -> np.ndarray:
    """Coefficient vectors c with ``basis @ c`` vanishing on the given rows."""
    _, s, vt = np.linalg.svd(basis[rows, :], full_matrices=True)
    # directions beyond the row count have no singular value: pinned as well
    mask = np.concatenate([s <= tol, np.ones(basis.shape[1] - s.size, dtype=bool)])
    return vt[mask].T


def _complement_coeffs(sub: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal complement of a coefficient subspace inside R^r."""
    if sub.shape[1] == 0:
        return np.eye(r)
    u, s, _ = np.linalg.svd(sub, full_matrices=True)
    rank = int(np.sum(s > 1e-12))
    return u[:, rank:]


def _pinned_pieces(sys: LinearizedSystem, node: int) -> list[np.ndarray]:
    """Per eigenvalue group, the part of the eigenspace whose block at
    ``node`` vanishes; the pieces are mutually orthogonal."""
    coeffs = sys.pinned_coeffs((node,))
    return [basis @ c for (_, basis), c in zip(sys.eigen_groups, coeffs)]


def uncontrollable_subspace(sys: LinearizedSystem) -> Subspace:
    """Modes that no input at the actuated node can reach.

    Per eigenvalue group, keeps the part of the eigenspace whose block at
    the actuator vanishes, then sums the (mutually orthogonal) pieces.
    """
    return orthonormalize(np.hstack(_pinned_pieces(sys, sys.actuator)), tol=sys.rigidity.subspace_tol)


def unobservable_subspace(sys: LinearizedSystem) -> Subspace:
    """Modes invisible at the measured node; dual of the uncontrollable case."""
    return orthonormalize(np.hstack(_pinned_pieces(sys, sys.sensor)), tol=sys.rigidity.subspace_tol)


def global_rotation_subspace(fw: Framework, node: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Pure rotations of the whole framework about one node.

    Spanned by the stacked vectors with blocks ``S (p_k - p_node)`` for each
    elementary skew generator S; every member has a zero block at ``node``.
    """
    if not (0 <= node < fw.n):
        raise IndexError(f"node index {node} out of range for n={fw.n}")
    offsets = fw.points - fw.points[node]
    cols = [(offsets @ gen.T).ravel() for gen in skew_generators(fw.d)]
    stacked = np.column_stack(cols)
    if np.linalg.norm(stacked, axis=0).max() == 0.0:
        raise ValidationError(f"all agents coincide with node {node}: rotation subspace is zero")
    return orthonormalize(stacked, tol=tol)


def _orthogonal_complement_of_vector(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the directions orthogonal to a nonzero vector."""
    u, _, _ = np.linalg.svd(x.reshape(-1, 1), full_matrices=True)
    return u[:, 1:]


def local_rotation_subspace(fw: Framework, node: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Motions that fix ``node`` and preserve its incident edge lengths to
    first order.

    Built block by block: each neighbor contributes the d-1 directions
    orthogonal to its edge vector, every non-neighbor moves freely, and the
    fixed node contributes nothing. The blocks are disjoint, so the basis
    is orthonormal by construction; dimension d(n-1) - deg(node)
    for generic positions.
    """
    if not (0 <= node < fw.n):
        raise IndexError(f"node index {node} out of range for n={fw.n}")
    n, d = fw.n, fw.d
    pts = fw.points
    nbrs = set(fw.neighbors(node))
    cols = []
    for k in range(n):
        if k == node:
            continue
        rows = _block_rows(k, d)
        if k in nbrs:
            local = _orthogonal_complement_of_vector(pts[k] - pts[node])
        else:
            local = np.eye(d)
        for col in local.T:
            v = np.zeros(n * d)
            v[rows] = col
            cols.append(v)
    if not cols:
        return Subspace.zero(n * d, tol)
    return Subspace(basis=np.column_stack(cols), tol=tol)


def elementary_rotations(fw: Framework, node: int, neighbor: int) -> np.ndarray:
    """Single-neighbor rotations about a fixed node, one column per skew
    generator: block at ``neighbor`` is ``S (p_neighbor - p_node)``, all
    other blocks zero. For d=2 this is one column."""
    pts = fw.points
    x = pts[neighbor] - pts[node]
    cols = []
    for gen in skew_generators(fw.d):
        v = np.zeros(fw.n * fw.d)
        v[_block_rows(neighbor, fw.d)] = gen @ x
        cols.append(v)
    return np.column_stack(cols)


def _angles_list(s1: Subspace, s2: Subspace) -> list[float]:
    if s1.dim == 0 or s2.dim == 0:
        return []
    return [float(a) for a in principal_angles(s1, s2)]


def rbm_deformation_split_report(sys: LinearizedSystem) -> dict:
    """Split the uncontrollable subspace into its rigid-body and deforming
    parts, eigenspace by eigenspace.

    The rigid-body part is the pinned portion of the zero eigenspace; the
    deforming part sums the pinned portions of all decaying eigenspaces.
    The two are orthogonal and together give the whole uncontrollable
    subspace, which the report verifies. The plain set intersection of the
    deformation space with the pinned ambient subspace is also reported:
    it can be strictly larger because it may mix eigenspaces.
    """
    tol = sys.rigidity.subspace_tol
    pieces = _pinned_pieces(sys, sys.actuator)
    # the zero eigenspace of the negative semidefinite A is the last group
    rbm_part = orthonormalize(pieces[-1], tol=tol, ambient_dim=sys.dim)
    def_part = orthonormalize([v for p in pieces[:-1] for v in p.T], tol=tol, ambient_dim=sys.dim)
    total = uncontrollable_subspace(sys)

    # every stacked vector whose block at the actuator vanishes
    pinned_ambient = np.delete(np.eye(sys.dim), _block_rows(sys.actuator, sys.framework.d), axis=1)
    raw = intersect(deformation_space(sys.rigidity), Subspace(pinned_ambient, tol))

    return {
        "uncontrollable_dim": total.dim,
        "rbm_component_dim": rbm_part.dim,
        "deformation_component_dim": def_part.dim,
        "direct_sum_holds": direct_sum_check(rbm_part, def_part, total),
        "component_principal_angles": _angles_list(rbm_part, def_part),
        "ambient_deformation_intersection_dim": raw.dim,
    }


def local_rotation_report(sys: LinearizedSystem) -> dict:
    """Compare the uncontrollable subspace with the local rotation subspace.

    Both containment directions are reported with principal angles; no
    equality is asserted, because for generic sparse frameworks the two
    need not coincide.
    """
    u = uncontrollable_subspace(sys)
    t = local_rotation_subspace(sys.framework, sys.actuator, sys.rigidity.subspace_tol)
    local_contains = contains(t, u)
    reverse = contains(u, t)
    return {
        "uncontrollable_dim": u.dim,
        "local_rotation_dim": t.dim,
        "local_contains_uncontrollable": local_contains,
        "uncontrollable_contains_local": reverse,
        "equal": local_contains and reverse,
        "principal_angles": _angles_list(u, t),
    }


def specialization_report(sys: LinearizedSystem) -> dict:
    """Specialized decompositions for rigid frameworks and complete graphs,
    about the actuated node.

    For a rigid framework: checks whether the uncontrollable subspace
    splits as the rotation about the node plus the deforming part of the
    local rotation subspace. For a complete graph with n >= d+1: compares
    the local and global rotation subspaces. Verdicts are recorded, not
    asserted.
    """
    fw, node, tol = sys.framework, sys.actuator, sys.rigidity.subspace_tol
    classification = classify_rigidity(sys.rigidity)
    r_g = global_rotation_subspace(fw, node, tol)
    t = local_rotation_subspace(fw, node, tol)

    rigid: dict = {"applicable": classification != FLEXIBLE, "classification": classification}
    if rigid["applicable"]:
        u = uncontrollable_subspace(sys)
        t_def = intersect(t, deformation_space(sys.rigidity))
        overlap = 0.0
        if r_g.dim and t_def.dim:
            overlap = float(np.linalg.svd(r_g.basis.T @ t_def.basis, compute_uv=False).max())
        rigid.update(
            {
                "global_rotation_dim": r_g.dim,
                "local_deformation_dim": t_def.dim,
                "uncontrollable_dim": u.dim,
                "components_orthogonal": overlap <= tol,
                "decomposition_holds": direct_sum_check(r_g, t_def, u),
            }
        )

    complete: dict = {"applicable": fw.is_complete() and fw.n >= fw.d + 1}
    if complete["applicable"]:
        local_contains = contains(t, r_g)
        reverse = contains(r_g, t)
        complete.update(
            {
                "local_rotation_dim": t.dim,
                "global_rotation_dim": r_g.dim,
                "equal": local_contains and reverse,
                "principal_angles": _angles_list(t, r_g),
            }
        )
    else:
        complete["reason"] = (
            "graph is not complete" if not fw.is_complete() else f"needs n >= d+1, got n={fw.n}"
        )

    return {"rigid": rigid, "complete_graph": complete}


@dataclass(frozen=True)
class EigenspaceModes:
    """Four-way controllability/observability split of one eigenspace.

    The doubly hidden part collects eigenvectors pinned at both nodes; the
    "uncontrollable but observable" part is its orthogonal complement
    inside the pinned-at-actuator part (dually for the sensor), and the
    rest of the eigenspace is controllable and observable. The four
    dimensions always add up to the eigenspace dimension.
    """

    eigenvalue: float
    multiplicity: int
    controllable_observable: Subspace
    uncontrollable_observable: Subspace
    controllable_unobservable: Subspace
    uncontrollable_unobservable: Subspace

    def dims(self) -> dict:
        return {
            "controllable_observable": self.controllable_observable.dim,
            "uncontrollable_observable": self.uncontrollable_observable.dim,
            "controllable_unobservable": self.controllable_unobservable.dim,
            "uncontrollable_unobservable": self.uncontrollable_unobservable.dim,
        }


@dataclass(frozen=True)
class ModeReport:
    """Eigenvalues of the linearized system with their hidden-mode split."""

    actuator: int
    sensor: int
    groups: tuple[EigenspaceModes, ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([g.eigenvalue for g in self.groups])

    @property
    def four_way(self) -> dict:
        totals = {
            "controllable_observable": 0,
            "uncontrollable_observable": 0,
            "controllable_unobservable": 0,
            "uncontrollable_unobservable": 0,
        }
        for g in self.groups:
            for key, val in g.dims().items():
                totals[key] += val
        return totals

    @property
    def state_dim(self) -> int:
        return sum(g.multiplicity for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "actuator": self.actuator + 1,
            "sensor": self.sensor + 1,
            "eigenvalues": [
                {"value": g.eigenvalue, "multiplicity": g.multiplicity, "dims": g.dims()}
                for g in self.groups
            ],
            "four_way": self.four_way,
            "state_dim": self.state_dim,
        }


def classify_modes(sys: LinearizedSystem) -> ModeReport:
    """Split every eigenspace into the four controllability/observability
    categories by pinning at the actuator and sensor nodes."""
    tol = sys.rigidity.subspace_tol
    groups = []
    for (lam, basis), nc, no, nh in zip(
        sys.eigen_groups,
        sys.pinned_coeffs((sys.actuator,)),
        sys.pinned_coeffs((sys.sensor,)),
        sys.pinned_coeffs((sys.actuator, sys.sensor)),
    ):
        r = basis.shape[1]

        def _sub(coeffs: np.ndarray) -> Subspace:
            if coeffs.shape[1] == 0:
                return Subspace.zero(sys.dim, tol)
            try:
                return Subspace(basis=basis @ coeffs, tol=tol)
            except ValueError as exc:  # eigh leaked too much of ker R into this eigenspace
                raise NumericalError(f"eigenvalue {lam:.6g}: {exc}") from exc

        # complement of the doubly hidden part inside each pinned part
        beta_c = nc.T @ nh
        co_coeffs = nc @ _complement_coeffs(beta_c, nc.shape[1]) if nc.shape[1] else nc
        beta_o = no.T @ nh
        ob_coeffs = no @ _complement_coeffs(beta_o, no.shape[1]) if no.shape[1] else no
        both = np.hstack([nc, no]) if (nc.shape[1] or no.shape[1]) else np.zeros((r, 0))
        visible = _complement_coeffs(orthonormalize(both, ambient_dim=r).basis, r)

        groups.append(
            EigenspaceModes(
                eigenvalue=lam,
                multiplicity=r,
                controllable_observable=_sub(visible),
                uncontrollable_observable=_sub(co_coeffs),
                controllable_unobservable=_sub(ob_coeffs),
                uncontrollable_unobservable=_sub(nh),
            )
        )
    return ModeReport(actuator=sys.actuator, sensor=sys.sensor, groups=tuple(groups))


def hidden_mode_checks(sys: LinearizedSystem) -> dict:
    """Run every subspace-relation check for one system and collect the
    verdicts into a JSON-ready report."""
    fw, tol = sys.framework, sys.rigidity.subspace_tol
    flex = flex_space(sys.rigidity)
    u = uncontrollable_subspace(sys)
    r_g = global_rotation_subspace(fw, sys.actuator, tol)
    t = local_rotation_subspace(fw, sys.actuator, tol)
    u_rbm = intersect(u, flex)
    classification = classify_rigidity(sys.rigidity)
    rigid = classification != FLEXIBLE

    bound = rigid_motion_dim(fw.d) - fw.d  # d(d+1)/2 - d = d(d-1)/2
    char_angles = _angles_list(u_rbm, r_g)
    char_matches = (
        u_rbm.dim == r_g.dim and (not char_angles or max(char_angles) < tol)
    )
    return {
        "classification": classification,
        "existence_bound": {
            "applicable": rigid,
            "uncontrollable_rbm_dim": u_rbm.dim,
            "lower_bound": bound,
            "holds": (not rigid) or u_rbm.dim >= bound,
        },
        "rotation_characterization": {
            "applicable": rigid,
            "uncontrollable_rbm_dim": u_rbm.dim,
            "global_rotation_dim": r_g.dim,
            "max_principal_angle": max(char_angles) if char_angles else 0.0,
            "matches": (not rigid) or char_matches,
        },
        "rotation_inclusion": {
            "global_rotation_dim": r_g.dim,
            "local_rotation_dim": t.dim,
            "holds": contains(t, r_g),
        },
        "uncontrollable_split": rbm_deformation_split_report(sys),
        "uncontrollable_vs_local_rotation": local_rotation_report(sys),
        "specializations": specialization_report(sys),
    }
