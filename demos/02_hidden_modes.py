"""Hidden modes of the linearized formation dynamics.

Linearizing the gradient controller around the target shape gives
x' = A x + B u with A = -R^T R, actuated at a single node. An eigenvector
is unreachable from that node exactly when its block there vanishes, which
pins the center of any unreachable rigid-body rotation to the actuated
node. This script computes those subspaces and every structural report.
"""

import numpy as np

import rigidkit as rk

np.set_printoptions(precision=4, suppress=True)

fw = rk.Framework.from_points(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
)
actuator, sensor = 0, 2
sys = rk.linearize(fw, actuator, sensor)

print("stiffness spectrum:", np.linalg.eigvalsh(sys.A))

# ------------------------------------------------------- pinned mode analysis

unctrl = sys.uncontrollable  # built once, cached on the system
unobs = sys.unobservable
print(f"\nuncontrollable dim (input at node {actuator + 1}):", unctrl.dim)
print(f"unobservable dim (output at node {sensor + 1}):", unobs.dim)
print("uncontrollable basis blocks (note the zero row at the actuated node):")
print(unctrl.basis[:, 0].reshape(fw.n, 2))

# The unreachable rigid-body motion is a pure rotation about the actuator.
rotation = rk.global_rotation_subspace(fw, actuator)
print(
    "angle to the rotation-about-actuator construction:",
    rk.principal_angles(unctrl, rotation),
)

# The local rotation subspace adds the motions that bend the rest of the
# framework while leaving the actuator's own edge lengths unchanged.
local = rk.local_rotation_subspace(fw, actuator)
print("local rotation subspace dim:", local.dim)
for nbr in fw.neighbors(actuator):
    tau = rk.elementary_rotations(fw, actuator, nbr)[:, 0]
    print(f"  neighbor {nbr + 1} elementary rotation:", tau.reshape(fw.n, 2)[nbr])

# ------------------------------------------------------------- full reports

report = rk.classify_modes(sys)
print("\nfour-way mode split:", report["four_way"])

checks = rk.hidden_mode_checks(sys)
print("existence bound:", checks["existence_bound"])
print("rotation characterization:", checks["rotation_characterization"])
print("rigid-body vs deforming split:", checks["uncontrollable_split"])
print("uncontrollable vs local rotation:", checks["uncontrollable_vs_local_rotation"])
print("specializations:", checks["specializations"])
