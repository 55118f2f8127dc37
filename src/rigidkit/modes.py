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
    Subspace,
    contains,
    direct_sum_check,
    orthonormalize,
    principal_angles,
)

EIG_GROUP_RTOL = 1e-7

__all__ = [
    "EIG_GROUP_RTOL",
    "LinearizedSystem",
    "linearize",
    "eigenspaces",
    "global_rotation_subspace",
    "local_rotation_subspace",
    "elementary_rotations",
    "classify_modes",
    "hidden_mode_checks",
]


@dataclass(frozen=True)
class LinearizedSystem:
    """LTI model of the gradient dynamics around the reference configuration.

    Reads the eigenpairs of ``A = -R^T R`` off the one SVD of ``R`` that
    ``rigidity`` caches; the simulations and every hidden-mode report read
    them, the reports' pinned coefficients and the rigid-body basis. ``A``
    itself is built only when read. Its tolerances are those of ``rigidity``.
    """

    rigidity: RigidityMatrix
    actuator: int
    sensor: int
    B: np.ndarray  # (nd, d)
    C: np.ndarray  # (d, nd)
    _pinned: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def framework(self) -> Framework:
        return self.rigidity.framework

    @property
    def dim(self) -> int:
        return self.rigidity.shape[1]

    @cached_property
    def A(self) -> np.ndarray:
        """Stiffness matrix ``-R^T R``, (nd, nd), symmetric negative semidefinite."""
        gram = self.rigidity.entries.T @ self.rigidity.entries
        return -0.5 * (gram + gram.T)  # symmetrize so A == A.T holds exactly

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of ``A`` ascending and their orthonormal eigenvectors,
        read-only: with ``R = U diag(s) V^T``, ``-s**2`` padded with zeros to
        nd, and the columns of ``V``."""
        _, s, vt = self.rigidity.svd
        lam = np.zeros(self.dim)
        lam[: s.size] = -(s**2)
        lam.setflags(write=False)
        return lam, vt.T

    @cached_property
    def eigen_groups(self) -> tuple[tuple[float, np.ndarray], ...]:
        """Eigenvalue groups of ``A`` (see :func:`eigenspaces`), computed once;
        the zero group is the flex space at the system's rank cutoff."""
        return tuple(eigenspaces(*self.spectrum, self.rigidity.rank))

    @cached_property
    def rbm(self) -> RbmBasis:
        """Rigid-body basis of the framework (see :func:`rbm_basis`), computed once."""
        return rbm_basis(self.framework)

    def pinned_coeffs(self, nodes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Per eigenvalue group, the coefficients c whose combination
        ``basis @ c`` vanishes at every node in ``nodes`` (up to the subspace
        tolerance); computed once per set of nodes, so pinning at ``(i, i)``
        is pinning at ``(i,)``."""
        nodes = tuple(sorted(set(nodes)))
        if nodes not in self._pinned:
            d = self.framework.d
            tol = self.rigidity.subspace_tol
            rows = np.concatenate([np.arange(k * d, (k + 1) * d) for k in nodes])
            coeffs = tuple(_null_coeffs(basis[rows, :], tol) for _, basis in self.eigen_groups)
            for c in coeffs:
                c.setflags(write=False)
            self._pinned[nodes] = coeffs
        return self._pinned[nodes]

    def _pinned_pieces(self, node: int) -> list[np.ndarray]:
        """Per eigenvalue group, the part of the eigenspace whose block at
        ``node`` vanishes; the pieces are mutually orthogonal."""
        coeffs = self.pinned_coeffs((node,))
        return [basis @ c for (_, basis), c in zip(self.eigen_groups, coeffs)]

    @cached_property
    def uncontrollable(self) -> Subspace:
        """Modes that no input at the actuated node can reach, computed once.

        Per eigenvalue group, keeps the part of the eigenspace whose block at
        the actuator vanishes. The pieces are orthonormal and mutually
        orthogonal, so their columns, in group order, are the basis: the
        pinned part of the zero eigenspace comes last.
        """
        return Subspace(np.hstack(self._pinned_pieces(self.actuator)), self.rigidity.subspace_tol)

    @cached_property
    def unobservable(self) -> Subspace:
        """Modes invisible at the measured node, computed once; dual of
        :attr:`uncontrollable`."""
        return Subspace(np.hstack(self._pinned_pieces(self.sensor)), self.rigidity.subspace_tol)


def linearize(
    fw: Framework, actuator: int, sensor: int, tol: ToleranceOverrides = ToleranceOverrides()
) -> LinearizedSystem:
    """Stiffness model ``-R^T R`` with input/output selectors at two nodes;
    every report on the system uses the tolerances ``tol``."""
    for node, name in ((actuator, "actuator"), (sensor, "sensor")):
        if not (0 <= node < fw.n):
            raise ValidationError(f"{name}: node index {node} out of range for n={fw.n}")
    rm = rigidity_matrix(fw, tol=tol)
    d = fw.d
    b = np.zeros((fw.n * d, d))
    b[actuator * d : (actuator + 1) * d, :] = np.eye(d)
    c = np.zeros((d, fw.n * d))
    c[:, sensor * d : (sensor + 1) * d] = np.eye(d)
    return LinearizedSystem(rigidity=rm, actuator=actuator, sensor=sensor, B=b, C=c)


def eigenspaces(lam: np.ndarray, vec: np.ndarray, rank: int) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue groups of the stiffness matrix ``A = -R^T R``, ascending,
    from its eigenpairs (``lam``, ``vec``) as :attr:`LinearizedSystem.spectrum`
    reads them off the SVD of R.

    Among the first ``rank`` eigenvalues, consecutive ones closer than
    ``EIG_GROUP_RTOL * max|lambda|`` share one eigenspace, since the pinning
    analysis must act on whole eigenspaces. The last group is the zero
    eigenspace ker R, the remaining columns of ``vec``: the flex space at
    the rank cutoff. Every group is a slice of the orthonormal ``vec``.
    """
    gap = EIG_GROUP_RTOL * float(np.abs(lam).max())
    groups = []
    start = 0
    for k in range(1, rank + 1):
        if k == rank or lam[k] - lam[k - 1] > gap:
            groups.append((float(lam[start:k].mean()), vec[:, start:k]))
            start = k
    groups.append((float(lam[rank:].mean()), vec[:, rank:]))
    return groups


def _block_rows(node: int, d: int) -> slice:
    return slice(node * d, (node + 1) * d)


def _null_coeffs(m: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal coefficient vectors c with ``|m @ c| <= tol``: the right
    singular vectors of ``m`` whose singular value is at most ``tol``."""
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    # directions beyond the row count have no singular value: in the kernel as well
    mask = np.concatenate([s <= tol, np.ones(m.shape[1] - s.size, dtype=bool)])
    return vt[mask].T


def _rank(m: np.ndarray, cutoff: float, relative: bool = False) -> int:
    """Count of singular values of ``m`` above ``cutoff`` (times the largest
    one when ``relative``); zero for an empty matrix."""
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    if relative and s.size:
        cutoff *= s[0]
    return int(np.sum(s > cutoff))


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

    The basis is one ``(nd, d(n-1) - deg(node))`` array, filled node block
    by node block in node order: the d-1 directions orthogonal to the edge
    for each neighbor, the identity for every other node, no column for the
    fixed node. The blocks are disjoint, so the basis is orthonormal by
    construction.
    """
    if not (0 <= node < fw.n):
        raise IndexError(f"node index {node} out of range for n={fw.n}")
    n, d = fw.n, fw.d
    pts = fw.points
    nbrs = set(fw.neighbors(node))
    basis = np.zeros((n * d, d * (n - 1) - len(nbrs)))
    col = 0
    for k in range(n):
        if k == node:
            continue
        local = _orthogonal_complement_of_vector(pts[k] - pts[node]) if k in nbrs else np.eye(d)
        basis[_block_rows(k, d), col : col + local.shape[1]] = local
        col += local.shape[1]
    return Subspace(basis=basis, tol=tol)


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


def classify_modes(sys: LinearizedSystem) -> dict:
    """Split every eigenspace into the four controllability/observability
    categories by pinning at the actuator and sensor nodes; the JSON-ready
    ``mode_report`` of ``modes.json``, nodes 1-based.

    The doubly hidden part of an eigenspace collects the eigenvectors pinned
    at both nodes; the uncontrollable-but-observable part is its orthogonal
    complement inside the part pinned at the actuator (dually for the
    sensor), and the rest is controllable and observable. Each dimension is
    a rank in the eigenspace's orthonormal coefficients: a pinned part minus
    its overlap with the doubly hidden part, and the visible part is what
    the two pinned parts together leave of the eigenspace (rank counted as
    :func:`orthonormalize` counts it). The four dimensions of an eigenspace
    add up to its multiplicity, and ``four_way`` sums them over all."""
    groups = []
    for (lam, basis), nc, no, nh in zip(
        sys.eigen_groups,
        sys.pinned_coeffs((sys.actuator,)),
        sys.pinned_coeffs((sys.sensor,)),
        sys.pinned_coeffs((sys.actuator, sys.sensor)),
    ):
        r = basis.shape[1]
        dims = {
            "controllable_observable": r - _rank(np.hstack([nc, no]), DEFAULT_TOL, relative=True),
            "uncontrollable_observable": nc.shape[1] - _rank(nc.T @ nh, 1e-12),
            "controllable_unobservable": no.shape[1] - _rank(no.T @ nh, 1e-12),
            "uncontrollable_unobservable": nh.shape[1],
        }
        groups.append({"value": lam, "multiplicity": r, "dims": dims})
    # the zero eigenspace is always a group, possibly of multiplicity 0
    return {
        "actuator": sys.actuator + 1,
        "sensor": sys.sensor + 1,
        "eigenvalues": groups,
        "four_way": {key: sum(g["dims"][key] for g in groups) for key in groups[0]["dims"]},
        "state_dim": sum(g["multiplicity"] for g in groups),
    }


def _uncontrollable_parts(sys: LinearizedSystem) -> tuple[Subspace, Subspace]:
    """The deforming and rigid-body parts of the uncontrollable subspace U,
    read off its columns: the leading ones are the pinned pieces of the
    decaying eigenspaces, the trailing ``k0`` ones the pinned piece of the
    zero eigenspace, ``k0`` being that group's pinned count. The second part
    is U ∩ ker R."""
    u, tol = sys.uncontrollable, sys.rigidity.subspace_tol
    split = u.dim - sys.pinned_coeffs((sys.actuator,))[-1].shape[1]
    return Subspace(u.basis[:, :split], tol), Subspace(u.basis[:, split:], tol)


def _split_section(sys: LinearizedSystem, u_def: Subspace, u_rbm: Subspace, deform: Subspace) -> dict:
    """Report the split of the uncontrollable subspace U into its deforming
    part ``u_def`` and its rigid-body part ``u_rbm`` (see
    :func:`_uncontrollable_parts`).

    The two are orthogonal and together give U, which the section verifies.
    The plain set intersection of the deformation space ``deform`` with the
    pinned ambient subspace is also reported: it can be strictly larger
    because it may mix eigenspaces. A unit vector ``deform.basis @ c`` lies
    within ``|block @ c|`` of the pinned subspace, ``block`` being the basis
    rows at the actuator, so the intersection has dimension
    ``deform.dim - rank(block)``.
    """
    u = sys.uncontrollable
    block = deform.basis[_block_rows(sys.actuator, sys.framework.d)]
    return {
        "uncontrollable_dim": u.dim,
        "rbm_component_dim": u_rbm.dim,
        "deformation_component_dim": u_def.dim,
        "direct_sum_holds": direct_sum_check(u_rbm, u_def, u),
        "component_principal_angles": _angles_list(u_rbm, u_def),
        "ambient_deformation_intersection_dim": deform.dim - _rank(block, sys.rigidity.subspace_tol),
    }


def _specializations(
    fw: Framework,
    classification: str,
    u: Subspace,
    r_g: Subspace,
    t: Subspace,
    rotation_in_local: bool,
    flex: Subspace,
    tol: float,
) -> dict:
    """Specialized decompositions for rigid frameworks and complete graphs,
    about the actuated node.

    For a rigid framework: checks whether the uncontrollable subspace ``u``
    splits as the rotation ``r_g`` about the node plus the deforming part
    of the local rotation subspace ``t``, its intersection with the
    deformation space: the ``t.basis @ c`` with ``flex.basis.T @ t.basis @ c``
    zero, since the deformation space is the complement of ``flex``. For a
    complete graph with n >= d+1: compares the local and global rotation
    subspaces, given whether ``t`` contains ``r_g``. Verdicts are recorded,
    not asserted.
    """
    rigid: dict = {"applicable": classification != FLEXIBLE, "classification": classification}
    if rigid["applicable"]:
        t_def = Subspace(t.basis @ _null_coeffs(flex.basis.T @ t.basis, tol), tol)
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
        complete.update(
            {
                "local_rotation_dim": t.dim,
                "global_rotation_dim": r_g.dim,
                "equal": rotation_in_local and contains(r_g, t),
                "principal_angles": _angles_list(t, r_g),
            }
        )
    else:
        complete["reason"] = (
            "graph is not complete" if not fw.is_complete() else f"needs n >= d+1, got n={fw.n}"
        )

    return {"rigid": rigid, "complete_graph": complete}


def hidden_mode_checks(sys: LinearizedSystem) -> dict:
    """Run every subspace-relation check for one system and collect the
    verdicts into a JSON-ready report.

    Each object is built once and read by every section: the uncontrollable
    subspace U (cached on ``sys``) and its rigid-body part U ∩ ker R and
    deforming part, both slices of U's columns; the rotation subspace R_i
    and the local rotation subspace T_i about the actuated node, and whether
    T_i contains R_i; the classification; and the flex and deformation
    spaces. The comparison of U with T_i reports both containment directions
    with principal angles; no equality is asserted, because for generic
    sparse frameworks the two need not coincide.
    """
    fw, tol = sys.framework, sys.rigidity.subspace_tol
    flex = flex_space(sys.rigidity)
    deform = deformation_space(sys.rigidity)
    u = sys.uncontrollable
    u_def, u_rbm = _uncontrollable_parts(sys)
    r_g = global_rotation_subspace(fw, sys.actuator, tol)
    t = local_rotation_subspace(fw, sys.actuator, tol)
    rotation_in_local = contains(t, r_g)
    classification = classify_rigidity(sys.rigidity)
    rigid = classification != FLEXIBLE

    bound = rigid_motion_dim(fw.d) - fw.d  # d(d+1)/2 - d = d(d-1)/2
    char_angles = _angles_list(u_rbm, r_g)
    char_matches = (
        u_rbm.dim == r_g.dim and (not char_angles or max(char_angles) < tol)
    )
    local_contains = contains(t, u)
    reverse = contains(u, t)
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
            "holds": rotation_in_local,
        },
        "uncontrollable_split": _split_section(sys, u_def, u_rbm, deform),
        "uncontrollable_vs_local_rotation": {
            "uncontrollable_dim": u.dim,
            "local_rotation_dim": t.dim,
            "local_contains_uncontrollable": local_contains,
            "uncontrollable_contains_local": reverse,
            "equal": local_contains and reverse,
            "principal_angles": _angles_list(u, t),
        },
        "specializations": _specializations(fw, classification, u, r_g, t, rotation_in_local, flex, tol),
    }
