"""Rigidity basics: frameworks, the rigidity matrix, and its four subspaces.

Walks through three frameworks on the same four corners: a square with a
diagonal (minimally rigid), the complete graph (rigid with a redundant
edge and hence a self-stress), and the bare square (flexible).
"""

import numpy as np

import rigidkit as rk

np.set_printoptions(precision=4, suppress=True)

corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]

frameworks = {
    "square + diagonal": rk.Framework.from_points(
        corners, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    ),
    "complete K4": rk.Framework.from_points(
        corners, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    ),
    "bare square": rk.Framework.from_points(corners, [(0, 1), (1, 2), (2, 3), (0, 3)]),
}

# ------------------------------------------------ squared edge lengths and R

fw = frameworks["square + diagonal"]
print("edges (canonical order):", fw.edges)
print("squared edge lengths:", rk.rigidity_function(fw, fw.positions))

rm = rk.rigidity_matrix(fw)
print("\nrigidity matrix (rows 2(p_i - p_j)^T in the incident blocks):")
print(rm.entries)

# ------------------------------------------------ classification and subspaces

print("\nframework        rank  flex  stress  deform  class")
for name, f in frameworks.items():
    r = rk.rigidity_matrix(f)
    print(
        f"{name:16s} {r.rank:4d}"
        f"  {rk.flex_space(r).dim:4d}"
        f"  {rk.self_stress_space(r).dim:6d}"
        f"  {rk.deformation_space(r).dim:6d}"
        f"  {rk.classify_rigidity(r)}"
    )

# A rigid framework keeps exactly the three planar rigid-body motions as
# flexes: two translations and the rotation about the center of mass.
rbm = rk.rbm_basis(fw)
print("\nrigid-body basis is orthonormal and sits in ker R:")
print("  ||R v|| per basis vector:", np.linalg.norm(rm.entries @ rbm.matrix, axis=0))

# The flexible square has one extra flex beyond the rigid-body motions: the
# familiar shear. Project out the rigid motions to display it.
loose = frameworks["bare square"]
flex = rk.flex_space(rk.rigidity_matrix(loose))
shear = flex.basis - rk.rbm_basis(loose).matrix @ (
    rk.rbm_basis(loose).matrix.T @ flex.basis
)
shear_dir = rk.orthonormalize(shear).basis[:, 0]
print("\nshear flex of the bare square (per-agent velocities):")
print(shear_dir.reshape(4, 2))
