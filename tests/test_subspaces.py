"""Subspace arithmetic: orthonormalization, projection, angles, and the
intersection and nullspace oracles of ``conftest``."""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit import Subspace

from conftest import intersect, nullspace


def span(*vectors):
    return rk.orthonormalize(np.column_stack([np.asarray(v, float) for v in vectors]))


E1 = [1.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0]
E3 = [0.0, 0.0, 1.0]


def test_orthonormalize_drops_dependent_directions():
    s = span([1.0, 0.0], [2.0, 0.0])
    assert s.dim == 1


def test_orthonormalize_keeps_independent_directions():
    s = span([1.0, 0.0], [0.0, 1.0])
    assert s.dim == 2
    assert np.allclose(s.basis.T @ s.basis, np.eye(2))


def test_orthonormalize_empty_input():
    s = rk.orthonormalize(np.zeros((4, 0)))
    assert s.dim == 0 and s.ambient_dim == 4


def test_orthonormalize_takes_only_a_2d_array():
    for bad in (np.ones(3), np.ones((2, 2, 2)), [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="expected a 2-D array of columns"):
            rk.orthonormalize(bad)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_subspace_check_matches_gram_minus_identity():
    # the deviation |b^T b - I| as it was computed before the in-place form, kept as the oracle
    from rigidkit.subspaces import _ORTHO_CHECK

    rng = np.random.default_rng(7)
    verdicts = set()
    for trial in range(400):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, n + 1))
        q = np.linalg.qr(rng.standard_normal((n, k)))[0]
        b = q + rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-14.5, -11.5)
        dev = np.abs(b.T @ b - np.eye(k)).max()
        if dev > _ORTHO_CHECK:
            with pytest.raises(ValueError, match=rf"\(deviation {dev:.3e}\)"):
                Subspace(b)
        else:
            assert Subspace(b).basis.tobytes() == b.tobytes()
        verdicts.add(bool(dev > _ORTHO_CHECK))
    assert verdicts == {True, False}


def test_project_examples():
    s = span([1.0, 0.0])
    assert np.allclose(rk.project(s, [3.0, 4.0]), [3.0, 0.0])
    inside = np.array([0.25, 0.0])
    assert np.linalg.norm(rk.project(s, inside) - inside) <= 1e-12
    zero = Subspace.zero(2)
    assert np.array_equal(rk.project(zero, [3.0, 4.0]), [0.0, 0.0])
    with pytest.raises(ValueError, match="ambient"):
        rk.project(s, [1.0, 2.0, 3.0])


def test_project_idempotent_and_self_adjoint():
    rng = np.random.default_rng(7)
    s = rk.orthonormalize(rng.normal(size=(6, 3)))
    for _ in range(20):
        v = rng.normal(size=6)
        w = rng.normal(size=6)
        pv = rk.project(s, v)
        assert np.linalg.norm(rk.project(s, pv) - pv) <= 1e-12
        assert abs(pv @ w - v @ rk.project(s, w)) <= 1e-12


def test_intersect_examples():
    s12 = span(E1, E2)
    s23 = span(E2, E3)
    meet = intersect(s12, s23)
    assert meet.dim == 1
    assert rk.contains(span(E2), meet)

    assert intersect(span(E1), span(E2)).dim == 0

    same = intersect(s12, s12)
    assert same.dim == s12.dim
    assert np.allclose(rk.principal_angles(same, s12), 0.0)


def test_intersect_contained_in_both_operands():
    rng = np.random.default_rng(11)
    for _ in range(10):
        shared = rng.normal(size=(8, 2))
        a = rk.orthonormalize(np.hstack([shared, rng.normal(size=(8, 2))]))
        b = rk.orthonormalize(np.hstack([shared, rng.normal(size=(8, 2))]))
        meet = intersect(a, b)
        assert meet.dim >= 2
        assert rk.contains(a, meet) and rk.contains(b, meet)


def test_principal_angles_examples():
    s = span(E1, E2)
    assert np.allclose(rk.principal_angles(s, s), 0.0)
    assert np.allclose(rk.principal_angles(span(E1), span(E2)), np.pi / 2)
    diag = span([1.0, 1.0, 0.0])
    assert np.allclose(rk.principal_angles(span(E1), diag), np.pi / 4)
    with pytest.raises(ValueError, match="zero-dimensional"):
        rk.principal_angles(span(E1), Subspace.zero(3))


def test_principal_angles_ascending():
    rng = np.random.default_rng(3)
    a = rk.orthonormalize(rng.normal(size=(7, 3)))
    b = rk.orthonormalize(rng.normal(size=(7, 3)))
    angles = rk.principal_angles(a, b)
    assert np.all(np.diff(angles) >= 0)


def pair_with_angles(rng, ambient, dim1, angles):
    """Two subspaces whose principal angles are exactly ``angles``: the first
    spans ``dim1`` columns of a random rotation, the second tilts one of
    them towards a column outside the first by each angle."""
    q, _ = np.linalg.qr(rng.normal(size=(ambient, ambient)))
    k = len(angles)
    tilted = np.cos(angles) * q[:, :k] + np.sin(angles) * q[:, dim1 : dim1 + k]
    return Subspace(basis=q[:, :dim1]), Subspace(basis=tilted)


def draw_pair(rng, low, high):
    dim2 = int(rng.integers(1, 5))
    dim1 = dim2 + int(rng.integers(1, 4))
    angles = np.sort(np.exp(rng.uniform(np.log(low), np.log(high), dim2)))
    return pair_with_angles(rng, dim1 + dim2 + int(rng.integers(0, 3)), dim1, angles), angles


def test_principal_angles_match_scipy_oracle():
    """scipy's subspace_angles is exact when every angle of a pair lies on
    the same side of pi/4, so pairs are drawn from [1e-12, 0.7] or from
    [0.9, pi/2]; together they cover the whole range."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2002)
    for _ in range(100):
        for low, high in ((1e-12, 0.7), (0.9, np.pi / 2)):
            (a, b), angles = draw_pair(rng, low, high)
            oracle = np.sort(scipy_linalg.subspace_angles(a.basis, b.basis))
            assert np.abs(rk.principal_angles(a, b) - oracle).max() <= 1e-12
            assert np.abs(rk.principal_angles(b, a) - oracle).max() <= 1e-12
            assert np.abs(oracle - angles).max() <= 1e-12


def test_principal_angles_resolve_small_next_to_large():
    """A tiny angle next to one beyond pi/4 keeps full precision: each angle
    is taken from its own sine or cosine."""
    rng = np.random.default_rng(1973)
    for _ in range(100):
        count = int(rng.integers(1, 4))
        small = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), count))
        large = np.pi / 2 - np.exp(rng.uniform(np.log(1e-12), np.log(0.6), count))
        angles = np.sort(np.concatenate([small, large]))
        dim1 = angles.size + int(rng.integers(1, 3))
        a, b = pair_with_angles(rng, dim1 + angles.size, dim1, angles)
        assert np.abs(rk.principal_angles(a, b) - angles).max() <= 1e-12
        assert np.abs(rk.principal_angles(b, a) - angles).max() <= 1e-12


def test_contains_examples():
    assert rk.contains(span(E1, E2), span(E1))
    assert not rk.contains(span(E1, E2), span(E3))
    assert rk.contains(span(E1), Subspace.zero(3))
    assert not rk.contains(Subspace.zero(3), span(E1))


def test_mutual_containment_is_equality():
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(6, 3))
    a = rk.orthonormalize(cols)
    b = rk.orthonormalize(cols @ rng.normal(size=(3, 3)))  # same span, mixed basis
    assert rk.contains(a, b) and rk.contains(b, a)
    assert a.dim == b.dim
    assert rk.principal_angles(a, b).max() < a.tol


def test_direct_sum_check_examples():
    whole = span(E1, E2)
    assert rk.direct_sum_check(span(E1), span(E2), whole)
    slanted = span([1.0, 1.0, 0.0])
    assert not rk.direct_sum_check(span(E1), slanted, whole)
    assert rk.direct_sum_check(span(E1), Subspace.zero(3), span(E1))


def test_direct_sum_requires_containment():
    # orthogonal pieces with matching dimensions but outside the whole
    assert not rk.direct_sum_check(span(E1), span(E3), span(E1, E2))


def test_nullspace_of_empty_matrix_is_everything():
    null = nullspace(np.zeros((0, 5)))
    assert null.dim == 5
