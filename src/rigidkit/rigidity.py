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

from .framework import Framework, ToleranceOverrides, ValidationError
from .subspaces import DEFAULT_TOL, Subspace, orthonormalize

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
    "skew_generators",
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

    Owns the one SVD of its entries, kept as the factors a run reads (the
    singular values and ``V^T``, which give the eigenpairs of ``A = -R^T R``,
    and U's columns past the rank; not all of U), and the run's tolerances:
    the rank at the cutoff ``tol.rank`` (scale-aware by default), which the
    flex space, the deformation space, the classification, the self-stresses
    and the zero eigenspace of ``A`` all read, and ``subspace_tol``.
    """

    entries: np.ndarray  # (m, n*d)
    framework: Framework
    tol: ToleranceOverrides = ToleranceOverrides()

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def shape(self):
        return self.entries.shape

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Singular values ``s``, the full ``Vt`` (nd x nd) and a copy of U's
        columns past the rank cutoff (m x (m - rank)) of the entries, computed
        once, read-only; the m x m U is dropped as soon as the call returns.
        The d translations are exact flexes, so a ``tol.rank`` that gives a
        rank above ``nd - d`` counts rounding noise and is refused."""
        u, s, vt = np.linalg.svd(self.entries, full_matrices=True)
        cutoff = self.tol.rank
        if cutoff is None:  # scale-aware, max(shape) * sigma_max * eps; zero for an empty matrix
            cutoff = max(self.shape) * float(s[0]) * np.finfo(float).eps if s.size else 0.0
        rank, most = int(np.sum(s > cutoff)), self.shape[1] - self.framework.d
        if self.tol.rank is not None and rank > most:
            raise ValidationError(f"tol.rank: cutoff {cutoff!r} gives rank {rank}, above nd - d = {most}")
        u_null = u[:, rank:].copy()
        for f in (s, vt, u_null):
            f.setflags(write=False)
        return s, vt, u_null

    @property
    def rank(self) -> int:
        """m less the width of U's columns past the rank cutoff in :attr:`svd`."""
        return self.shape[0] - self.svd[2].shape[1]

    @property
    def subspace_tol(self) -> float:
        """``tol.subspace``, or ``DEFAULT_TOL`` when the scenario sets none."""
        return DEFAULT_TOL if self.tol.subspace is None else self.tol.subspace


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


def rigidity_matrix(fw: Framework, p=None, tol: ToleranceOverrides = ToleranceOverrides()) -> RigidityMatrix:
    """Jacobian of :func:`rigidity_function` at ``p`` (reference by default),
    carrying the run's tolerances ``tol``."""
    vec = fw.positions if p is None else _check_state(fw, p)
    pts = vec.reshape(fw.n, fw.d)
    i, j = fw.edge_ends[:, 0], fw.edge_ends[:, 1]
    rows = 2.0 * (pts[i] - pts[j])
    entries = np.zeros((fw.m, fw.n, fw.d))
    k = np.arange(fw.m)
    entries[k, i] = rows
    entries[k, j] = -rows
    return RigidityMatrix(entries=entries.reshape(fw.m, fw.n * fw.d), framework=fw, tol=tol)


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
    if not stacked.any():  # tested without squaring, which overflows for coordinates near 1e200
        raise ValidationError("degenerate configuration: all agents sit at the center of mass")
    rot = orthonormalize(stacked, tol=1e-12)
    return RbmBasis(translations=translations, rotations=rot.basis, center=center)


def flex_space(rm: RigidityMatrix) -> Subspace:
    """Infinitesimal flexes: the numerical nullspace of the rigidity matrix."""
    return Subspace(basis=rm.svd[1][rm.rank :].T, tol=rm.subspace_tol)


def self_stress_space(rm: RigidityMatrix) -> Subspace:
    """Self-stresses: the nullspace of the transposed rigidity matrix at the
    run's rank cutoff, U's columns past the rank in the cached SVD."""
    return Subspace(basis=rm.svd[2], tol=rm.subspace_tol)


def deformation_space(rm: RigidityMatrix) -> Subspace:
    """Infinitesimal deformations: the row space of the rigidity matrix."""
    return Subspace(basis=rm.svd[1][: rm.rank].T, tol=rm.subspace_tol)


def rigid_motion_dim(d: int) -> int:
    """Dimension of the rigid-body motions of a generic configuration in R^d."""
    return d * (d + 1) // 2


def classify_rigidity(rm: RigidityMatrix) -> str:
    """Classify a framework from the numerical rank of its rigidity matrix.

    ``infinitesimally_rigid`` requires the flex space to contain nothing
    beyond the d(d+1)/2 rigid-body motions; the minimal edge count then
    separates ``minimally_rigid`` from ``rigid_with_redundancy``. Anything
    else (including degenerate small configurations) reports ``flexible``.
    """
    fw = rm.framework
    flex_dim = fw.n * fw.d - rm.rank
    rbm_dim = rigid_motion_dim(fw.d)
    if flex_dim != rbm_dim:
        return FLEXIBLE
    minimal_edges = fw.n * fw.d - rbm_dim
    if fw.m == minimal_edges:
        return MINIMALLY_RIGID
    if fw.m > minimal_edges:
        return RIGID_WITH_REDUNDANCY
    return INFINITESIMALLY_RIGID
