"""The shape-recovery dichotomy under an impulsive disturbance.

An impulse at one node settles onto the rigid-body motions. If its
direction is orthogonal to the rotational mode's local velocity at that
node, the formation only translates and the shape survives; any aligned
component excites the rotation and permanently stretches every edge.
"""

import numpy as np

import rigidkit as rk

np.set_printoptions(precision=5, suppress=True)

fw = rk.Framework.from_points(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
)
actuator = 0
rbm = rk.rbm_basis(fw)
r_i = rk.block(rbm.v_r, actuator, 2)
print("rotational mode velocity at the actuated node:", r_i)

# every experiment below shares one linearized system (and the SVD of R behind it)
sys = rk.linearize(fw, actuator, sensor=2)
sim = rk.SimSettings(dt=0.005, t_end=40.0)


def experiment(label, w0):
    sc = rk.Scenario(framework=fw, actuator=actuator, sensor=2, w0=np.asarray(w0), sim=sim)
    out, _, _ = rk.shape_recovery_experiment(sc, sys)
    print(f"\n--- {label} ---")
    print("alignment <r_i, w0>:", out["alignment"])
    print("verdict:", out["verdict"])
    print("steady-state blocks (one row per agent):")
    print(out["steady_state"].reshape(fw.n, 2))
    print("final exact edge errors:", out["simulated_final_edge_errors"])
    print("predicted squared lengths:", out["predicted_edge_sq_lengths"])
    return out


# orthogonal input: every agent ends up with the same displacement
experiment("orthogonal impulse (recovery)", [r_i[1], -r_i[0]])

# aligned input: the rotation is excited and the shape never comes back
out = experiment("aligned impulse (distortion)", r_i / np.linalg.norm(r_i))
r_star = rk.rigidity_function(fw, fw.positions)
print("\nper-edge squared-length change vs rotation-angle prediction:")
print(np.column_stack([out["simulated_edge_sq_lengths"] - r_star, out["predicted_edge_sq_lengths"] - r_star]))

# the nonlinear flow tells a different long-run story for the aligned case:
# the gradient controller pulls the shape back onto the target manifold
sc = rk.Scenario(
    framework=fw, actuator=actuator, sensor=2,
    w0=r_i / np.linalg.norm(r_i), sim=rk.SimSettings(dt=0.002, t_end=40.0),
)
nl, _, flow = rk.shape_recovery_experiment(sc, sys)
print("\nnonlinear comparison, aligned impulse:")
print("  linearized final edge error:", np.abs(nl["simulated_final_edge_errors"]).max())
print("  nonlinear final edge error: ", np.abs(flow.tail_edge_errors()).max())
