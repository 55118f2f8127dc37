"""The controllable plane of rigid-body coordinates, plus the CLI pipeline.

The map from a planar input direction to the excited rigid-body
coordinates (c_x, c_y, c_r) lands on a fixed plane whose normal encodes
the one rigid-body motion the actuator can never reach. The second half of
the script drives the command-line runner end to end on the bundled
scenario and lists the artifacts it writes.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import rigidkit as rk

np.set_printoptions(precision=5, suppress=True)

fw = rk.Framework.from_points(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
)
rbm = rk.rbm_basis(fw)
plane = rk.controllable_plane(rbm, 0)

print("plane normal n_c:", plane["n_c"])
print("plane basis:\n", plane["plane_basis"])
print("recovery line (pure translations reachable without rotation):", plane["recovery_line"])

print("\nsampled inputs stay on the plane:")
rng = np.random.default_rng(0)
for _ in range(5):
    w0 = rng.normal(size=2)
    c = np.array([*w0, plane["rotation_at_node"] @ w0])
    print(f"  w0={w0}  coords={c}  <c, n_c>={c @ plane['n_c']:+.2e}")

# the normal's coordinates rebuild the motion the input can never excite,
# every agent translated by (c_x, c_y) plus c_r times the orthonormal
# rotation mode: a rotation about the actuated node (zero block there)
n_c = plane["n_c"]
motion = np.tile(n_c[:2], fw.n) + n_c[2] * rbm.v_r
print("\nunreachable rigid-body motion (blocks):")
print(motion.reshape(fw.n, 2))

# ----------------------------------------------------------------- CLI run

scenario = Path(__file__).parent / "scenarios" / "square_diagonal.json"
with tempfile.TemporaryDirectory() as tmp:
    for command in (
        ["analyze", str(scenario)],
        ["modes", str(scenario)],
        ["dichotomy", str(scenario), "--sweep", "72"],
        ["plotdata", tmp],
    ):
        argv = [sys.executable, "-m", "rigidkit.cli", *command, "--out", tmp]
        print("\n$ rigidkit " + " ".join(command))
        subprocess.run(argv, check=True)
    print("\nartifacts:")
    for path in sorted(Path(tmp).iterdir()):
        print(f"  {path.name:28s} {path.stat().st_size:8d} bytes")
