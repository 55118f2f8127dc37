"""Dense subspace arithmetic.

Every geometric claim in this package reduces to statements about
subspaces: containment, orthogonality, principal angles. A
:class:`Subspace` is an orthonormal basis matrix plus the comparison
tolerance ``tol`` (default ``1e-8``) used for residuals and angles when it
is tested against other subspaces. Small principal angles cannot be
resolved through ``arccos`` of a cosine in double precision, so all
near-zero-angle tests here are residual (sine) based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-8
_ORTHO_CHECK = 1e-12

__all__ = [
    "DEFAULT_TOL",
    "NumericalError",
    "Subspace",
    "orthonormalize",
    "project",
    "principal_angles",
    "contains",
    "direct_sum_check",
]


class NumericalError(RuntimeError):
    """A computation produced a non-finite value or lost the accuracy its
    result needs."""


@dataclass(frozen=True)
class Subspace:
    """A linear subspace represented by a matrix with orthonormal columns."""

    basis: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {b.shape}")
        if b.shape[1] > b.shape[0]:
            raise ValueError(f"more basis vectors ({b.shape[1]}) than ambient dimension ({b.shape[0]})")
        if b.shape[1]:
            # |b^T b - I| in place, in the one (k, k) Gram matrix
            gram = b.T @ b
            gram.flat[:: b.shape[1] + 1] -= 1.0
            dev = np.abs(gram, out=gram).max()
            if dev > _ORTHO_CHECK:
                raise ValueError(f"basis columns are not orthonormal (deviation {dev:.3e})")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def zero(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(basis=np.zeros((ambient_dim, 0)), tol=tol)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def orthonormalize(vectors: np.ndarray, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the span of the columns of the 2-D array
    ``vectors``; near-dependent directions are dropped.

    Directions whose singular value falls at or below ``tol * sigma_max``
    do not contribute to the span.
    """
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        raise ValueError(f"expected a 2-D array of columns, got {getattr(vectors, 'shape', type(vectors).__name__)}")
    if vectors.shape[1] == 0:
        return Subspace.zero(vectors.shape[0], tol)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace.zero(vectors.shape[0], tol)
    r = int(np.sum(s > tol * s[0]))
    return Subspace(basis=u[:, :r], tol=tol)


def project(s: Subspace, v) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the subspace."""
    vec = np.asarray(v, dtype=float).ravel()
    if vec.size != s.ambient_dim:
        raise ValueError(f"vector length {vec.size} does not match ambient dimension {s.ambient_dim}")
    if s.dim == 0:
        return np.zeros(s.ambient_dim)
    return s.basis @ (s.basis.T @ vec)


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def principal_angles(s1: Subspace, s2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in radians.

    The cosine/sine split of Bjorck & Golub (1973) in the form of Knyazev &
    Argentati (SIAM J. Sci. Comput. 23, 2002): the singular values of
    ``Q1^T Q2`` are the cosines, and those of the residual of the smaller
    basis against the larger one are the sines. An angle whose cosine
    squared is at least 1/2 is taken from its sine, the others from their
    cosine, so angles near 0 and near pi/2 both keep full precision.
    """
    _check_same_ambient(s1, s2)
    if s1.dim == 0 or s2.dim == 0:
        raise ValueError("principal angles are undefined for a zero-dimensional subspace")
    q1, q2 = s1.basis, s2.basis
    cross = q1.T @ q2
    cosines = np.linalg.svd(cross, compute_uv=False)  # descending: angles ascending
    small = cosines**2 >= 0.5
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    if small.any():
        resid = q2 - q1 @ cross if q1.shape[1] >= q2.shape[1] else q1 - q2 @ cross.T
        sines = np.linalg.svd(resid, compute_uv=False)[::-1]  # ascending, like the angles
        angles = np.where(small, np.arcsin(np.clip(sines, -1.0, 1.0)), angles)
    return np.sort(angles)


def contains(s1: Subspace, s2: Subspace) -> bool:
    """True when every basis vector of ``s2`` lies in ``s1`` up to tolerance."""
    _check_same_ambient(s1, s2)
    if s2.dim == 0:
        return True
    if s1.dim == 0:
        return False
    tol = max(s1.tol, s2.tol)
    resid = s2.basis - s1.basis @ (s1.basis.T @ s2.basis)
    return bool(np.linalg.norm(resid, axis=0).max() <= tol)


def direct_sum_check(s1: Subspace, s2: Subspace, whole: Subspace) -> bool:
    """True when ``s1`` and ``s2`` are orthogonal and together fill ``whole``."""
    _check_same_ambient(s1, s2)
    _check_same_ambient(s1, whole)
    tol = max(s1.tol, s2.tol, whole.tol)
    if s1.dim and s2.dim:
        overlap = np.linalg.svd(s1.basis.T @ s2.basis, compute_uv=False)
        if overlap.size and overlap[0] > tol:
            return False
    if s1.dim + s2.dim != whole.dim:
        return False
    return contains(whole, s1) and contains(whole, s2)
