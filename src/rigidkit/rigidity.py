"""Rigidity function, rigidity matrix, and the fundamental rigidity subspaces.

The rigidity function maps a stacked configuration to the vector of squared
edge lengths (canonical edge order). Its Jacobian, the rigidity matrix,
carries rows ``2 (p_i - p_j)^T`` in the incident agent blocks; the factor 2
is kept exactly so the stiffness matrix ``-R^T R`` built downstream matches
the gradient dynamics without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .framework import Framework, ValidationError
from .subspaces import DEFAULT_TOL, Subspace, _default_rank_tol, nullspace, orthonormalize

FLEXIBLE = "flexible"
INFINITESIMALLY_RIGID = "infinitesimally_rigid"
MINIMALLY_RIGID = "minimally_rigid"
RIGID_WITH_REDUNDANCY = "rigid_with_redundancy"

__all__ = [
    "FLEXIBLE",
    "INFINITESIMALLY_RIGID",
    "MINIMALLY_RIGID",
    "RIGID_WITH_REDUNDANCY",
    "RigidityMatrix",
    "RbmBasis",
    "rigidity_function",
    "rigidity_matrix",
    "rigidity_rank",
    "skew_generators",
    "rotation_2d",
    "rbm_basis",
    "flex_space",
    "self_stress_space",
    "deformation_space",
    "rigid_motion_dim",
    "classify_rigidity",
]


@dataclass(frozen=True)
class RigidityMatrix:
    """Jacobian of the rigidity function at a configuration.

    Owns the one SVD of its entries that the rank, the flex space, the
    deformation space and the classification all read.
    """

    entries: np.ndarray  # (m, n*d)
    framework: Framework

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return self.entries.shape

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD ``(U, s, Vt)`` of the entries, computed once, read-only."""
        factors = np.linalg.svd(self.entries, full_matrices=True)
        for f in factors:
            f.setflags(write=False)
        return tuple(factors)


def _check_state(fw: Framework, p) -> np.ndarray:
    vec = np.asarray(p, dtype=float).ravel()
    if vec.size != fw.n * fw.d:
        raise ValidationError(
            f"state length: expected {fw.n * fw.d} entries, got {vec.size}"
        )
    return vec


def rigidity_function(fw: Framework, p) -> np.ndarray:
    """Squared length of every edge at configuration ``p``, canonical order."""
    vec = _check_state(fw, p)
    pts = vec.reshape(fw.n, fw.d)
    diff = pts[fw.edge_ends[:, 0]] - pts[fw.edge_ends[:, 1]]
    return np.einsum("kd,kd->k", diff, diff)


def rigidity_matrix(fw: Framework, p=None) -> RigidityMatrix:
    """Jacobian of :func:`rigidity_function` at ``p`` (reference by default)."""
    vec = fw.positions if p is None else _check_state(fw, p)
    pts = vec.reshape(fw.n, fw.d)
    i, j = fw.edge_ends[:, 0], fw.edge_ends[:, 1]
    rows = 2.0 * (pts[i] - pts[j])
    entries = np.zeros((fw.m, fw.n, fw.d))
    k = np.arange(fw.m)
    entries[k, i] = rows
    entries[k, j] = -rows
    return RigidityMatrix(entries=entries.reshape(fw.m, fw.n * fw.d), framework=fw)


def rigidity_rank(rm: RigidityMatrix, rank_tol: float | None = None) -> int:
    """Numerical rank of the rigidity matrix."""
    s = rm.svd[1]
    cutoff = _default_rank_tol(s, rm.shape) if rank_tol is None else rank_tol
    return int(np.sum(s > cutoff))


def rotation_2d() -> np.ndarray:
    """The planar infinitesimal rotation (x, y) -> (-y, x)."""
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def skew_generators(d: int) -> list[np.ndarray]:
    """Elementary skew-symmetric matrices, one per coordinate plane (a < b)."""
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            s = np.zeros((d, d))
            s[a, b] = -1.0
            s[b, a] = 1.0
            gens.append(s)
    return gens


@dataclass(frozen=True)
class RbmBasis:
    """Orthonormal basis of the rigid-body motions: translations and
    rotations about the center of mass.

    Translations and centered rotations are automatically orthogonal; the
    rotation generators are orthonormalized among themselves, so for a
    degenerate configuration (for example collinear points in 3-D) the
    rotation count can fall below d(d-1)/2.
    """

    translations: np.ndarray  # (n*d, d)
    rotations: np.ndarray  # (n*d, q)
    center: np.ndarray  # (d,)

    @property
    def matrix(self) -> np.ndarray:
        return np.hstack([self.translations, self.rotations])

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def subspace(self, tol: float = DEFAULT_TOL) -> Subspace:
        return Subspace(basis=self.matrix, tol=tol)

    def _axis(self, a: int) -> np.ndarray:
        return self.translations[:, a]

    @property
    def v_x(self) -> np.ndarray:
        return self._axis(0)

    @property
    def v_y(self) -> np.ndarray:
        return self._axis(1)

    @property
    def v_r(self) -> np.ndarray:
        if self.rotations.shape[1] != 1:
            raise ValueError(
                f"v_r is defined for a single rotation mode, found {self.rotations.shape[1]}"
            )
        return self.rotations[:, 0]


def rbm_basis(fw: Framework) -> RbmBasis:
    """Orthonormal translations plus centered rotations for a framework."""
    n, d = fw.n, fw.d
    pts = fw.points
    center = pts.mean(axis=0)
    translations = np.zeros((n * d, d))
    for a in range(d):
        translations[a::d, a] = 1.0 / np.sqrt(n)
    centered = pts - center
    cols = [(centered @ gen.T).ravel() for gen in skew_generators(d)]
    stacked = np.column_stack(cols)
    norms = np.linalg.norm(stacked, axis=0)
    if norms.max() == 0.0:
        raise ValidationError("degenerate configuration: all agents sit at the center of mass")
    rot = orthonormalize(stacked, tol=1e-12)
    return RbmBasis(translations=translations, rotations=rot.basis, center=center)


def flex_space(rm: RigidityMatrix, rank_tol: float | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Infinitesimal flexes: the numerical nullspace of the rigidity matrix."""
    return Subspace(basis=rm.svd[2][rigidity_rank(rm, rank_tol) :].T, tol=tol)


def self_stress_space(rm: RigidityMatrix, rank_tol: float | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Self-stresses: the numerical nullspace of the transposed rigidity
    matrix, from an SVD of its own (the cached U spans it in another basis)."""
    return nullspace(rm.entries.T, rank_tol=rank_tol, tol=tol)


def deformation_space(rm: RigidityMatrix, rank_tol: float | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Infinitesimal deformations: the row space of the rigidity matrix."""
    return Subspace(basis=rm.svd[2][: rigidity_rank(rm, rank_tol)].T, tol=tol)


def rigid_motion_dim(d: int) -> int:
    """Dimension of the rigid-body motions of a generic configuration in R^d."""
    return d * (d + 1) // 2


def classify_rigidity(rm: RigidityMatrix, rank_tol: float | None = None) -> str:
    """Classify a framework from the numerical rank of its rigidity matrix.

    ``infinitesimally_rigid`` requires the flex space to contain nothing
    beyond the d(d+1)/2 rigid-body motions; the minimal edge count then
    separates ``minimally_rigid`` from ``rigid_with_redundancy``. Anything
    else (including degenerate small configurations) reports ``flexible``.
    """
    fw = rm.framework
    rank = rigidity_rank(rm, rank_tol)
    flex_dim = fw.n * fw.d - rank
    rbm_dim = rigid_motion_dim(fw.d)
    if flex_dim != rbm_dim:
        return FLEXIBLE
    minimal_edges = fw.n * fw.d - rbm_dim
    if fw.m == minimal_edges:
        return MINIMALLY_RIGID
    if fw.m > minimal_edges:
        return RIGID_WITH_REDUNDANCY
    return INFINITESIMALLY_RIGID
