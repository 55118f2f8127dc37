"""Independent checks of every rigidkit CLI artifact, numpy only.

Nothing here imports rigidkit or reads a recorded copy of its output. Each
expected value comes from a closed form or a computation of this module:

* the rigidity matrix from its rows 2(p_i - p_j), and the flex space,
  self-stresses and deformations from this module's own SVD;
* hidden-mode counts from a PBH test on this module's own ``eigh`` of
  A = -R^T R and, for n <= 8, from the rank of the Kalman-Krylov matrix;
* the theorem properties: a rigid framework's hidden rigid-body modes are the
  one rotation about the actuated node, which lies in the local rotation
  subspace;
* the verdict from the sign-free test |r_i . w0| <= tol;
* every linear trajectory row and sweep tail from the closed-form RK4 iterate
  x_k = V diag(R(h lambda)^k) V^T x0, with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24;
* each nonlinear row as one RK4 step of the gradient flow from the row before.

Every check has a name in ``CHECKS``; ``selftest.py`` corrupts one artifact
per name and shows that the check fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

OMEGA = np.array([[0.0, -1.0], [1.0, 0.0]])
SUBSPACE_TOL = 1e-8  # rigidkit's default tol.subspace: the recovery and pinning threshold
PIN_TOL = SUBSPACE_TOL
EIG_GROUP_RTOL = 1e-6  # this module's own eigenvalue grouping, looser than rigidkit's 1e-7
ZERO_EIG_RTOL = 1e-9
KRYLOV_MAX_N = 8
TAIL_FRACTION = 0.05
DEFAULT_SIM = {"dt": 1e-3, "t_end": 50.0}
TRAJ_ATOL = 1e-8  # stepped RK4 against the closed form, after up to 50k steps
TIGHT = 1e-10

CHECKS = {
    "call.status": "every CLI call exits 0 and writes no traceback",
    "check.passed": "every --check call reports that all files match",
    "manifest": "manifest.json lists each command's files",
    "analyze.jacobian": "rigidity_matrix.csv equals the rows 2(p_i - p_j)",
    "analyze.report": "classification, rank and dimensions match the construction",
    "analyze.flex": "flex basis: orthonormal, dim n*d - rank, R F = 0",
    "analyze.self_stress": "self-stress basis: orthonormal, dim m - rank, R^T S = 0",
    "analyze.deformation": "deformation basis: orthonormal, dim rank, orthogonal to the flexes",
    "analyze.rbm": "rigid-body basis: translations e/sqrt(n), rotation Omega(p - c) normalized",
    "modes.spectrum": "eigenvalues and multiplicities match this module's eigh",
    "modes.pbh": "uncontrollable and unobservable dims equal the PBH count",
    "modes.krylov": "uncontrollable and unobservable dims equal the Kalman-Krylov count (n <= 8)",
    "modes.four_way": "four-way split equals the PBH counts, per eigenspace and in total",
    "modes.split": "rigid-body plus deforming parts fill the uncontrollable subspace",
    "theorem.rbm_rotation": "rigid: exactly one hidden rigid-body mode, in every report",
    "theorem.existence": "rigid: the existence bound d(d-1)/2 holds",
    "theorem.characterization": "rigid: hidden rigid-body modes are the rotation about node i",
    "theorem.inclusion": "R_i lies in T_i, with dim T_i = d(n-1) - deg(i)",
    "dichotomy.verdict": "verdict follows |r_i . w0| <= tol and the construction",
    "dichotomy.alignment": "alignment, coefficients and rotation angle match r_i and w0",
    "dichotomy.steady_state": "steady state is the flex projection of B w0 g",
    "dichotomy.final": "final edge lengths and errors match the closed-form tail",
    "dichotomy.converged": "long horizon: final edge errors equal theta^2 |e_k|^2",
    "trajectory.rows": "every row matches the closed-form RK4 iterate",
    "trajectory.columns": "edge-error and potential columns match the position columns",
    "sweep": "sweep rows match the angles, r_i and the closed-form tails",
    "nonlinear.steps": "each nonlinear row is one RK4 gradient-flow step from the previous",
    "nonlinear.potential": "nonlinear potential is non-increasing",
    "plotdata.arrows_Ri": "arrows_Ri.csv is the normalized rotation about node i",
    "plotdata.arrows_Ti": "arrows_Ti.csv holds the unit tangents at each neighbor",
    "plotdata.edge_errors": "edge_errors.csv equals the trajectory's edge-error columns",
    "plotdata.plane": "plane.json: r_i, normal (-r_i, 1), orthonormal plane, recovery line",
}

# command -> {file it writes: None, or the Scenario field that must be set for it to be written}
WRITES = {
    "analyze": dict.fromkeys(["report.json", "rigidity_matrix.csv", "scenario.json", "subspaces.json"]),
    "modes": dict.fromkeys(["modes.json", "scenario.json"]),
    "dichotomy": {"outcome.json": None, "scenario.json": None, "trajectory.csv": None,
                  "trajectory_nonlinear.csv": "nonlinear", "sweep.csv": "sweep"},
    "plotdata": dict.fromkeys(["arrows_Ri.csv", "arrows_Ti.csv", "edge_errors.csv", "plane.json"]),
}


class Failures:
    """Failed checks of one operation: check name -> first detail seen."""

    def __init__(self):
        self.found: dict[str, str] = {}

    def expect(self, name: str, ok, detail: str = "") -> bool:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
        if not ok:
            self.found.setdefault(name, detail or CHECKS[name])
        return bool(ok)

    def run(self, name: str, fn, *args) -> None:
        """Run a check body; a missing or malformed artifact fails that check."""
        try:
            fn(*args)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            self.expect(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- geometry


def rigidity_matrix(pts: np.ndarray, edges) -> np.ndarray:
    n = len(pts)
    r = np.zeros((len(edges), 2 * n))
    for k, (i, j) in enumerate(edges):
        row = 2.0 * (pts[i] - pts[j])
        r[k, 2 * i : 2 * i + 2] = row
        r[k, 2 * j : 2 * j + 2] = -row
    return r


def rotation_field(pts: np.ndarray) -> np.ndarray:
    """Rows Omega (p_k - c): the raw rotation about the center of mass."""
    return (pts - pts.mean(axis=0)) @ OMEGA.T


def rotation_at_node(pts: np.ndarray, node: int) -> np.ndarray:
    """r_i: the normalized rotational rigid-body mode's block at ``node``."""
    field = rotation_field(pts)
    return field[node] / np.linalg.norm(field)


def eigen_groups(lam: np.ndarray, vec: np.ndarray) -> list[np.ndarray]:
    """Eigenvector blocks of ascending eigenvalues closer than the group gap."""
    gap = EIG_GROUP_RTOL * np.abs(lam).max()
    cuts = [0] + [k for k in range(1, lam.size) if lam[k] - lam[k - 1] > gap] + [lam.size]
    return [vec[:, a:b] for a, b in zip(cuts, cuts[1:])]


def _hidden_count(group: np.ndarray, rows: np.ndarray) -> int:
    s = np.linalg.svd(group[rows], compute_uv=False)
    return group.shape[1] - int(np.sum(s > PIN_TOL))


def _orth(m: np.ndarray) -> np.ndarray:
    if m.shape[1] == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > 1e-10 * max(1.0, s[0])]


def krylov_rank(a: np.ndarray, b: np.ndarray) -> int:
    """Rank of the Kalman matrix [b, a b, a^2 b, ...], orthonormalizing each
    block so high powers of a do not swamp the rank test."""
    basis = _orth(b)
    for _ in range(a.shape[0]):
        grown = _orth(np.hstack([basis, a @ basis]))
        if grown.shape[1] == basis.shape[1]:
            break
        basis = grown
    return basis.shape[1]


def rk4_factor(z: np.ndarray) -> np.ndarray:
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def edge_errors(states: np.ndarray, edges, r_star: np.ndarray) -> np.ndarray:
    """Exact squared-length errors for a (T, 2n) stack of absolute positions."""
    ii = np.array([i for i, _ in edges])
    jj = np.array([j for _, j in edges])
    pts = states.reshape(states.shape[0], -1, 2)
    diff = pts[:, ii] - pts[:, jj]
    return np.einsum("tkd,tkd->tk", diff, diff) - r_star


def gradient_rk4_step(states: np.ndarray, edges, r_star: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of p' = -R(p)^T (r(p) - r*) for every row of ``states``."""
    ii = np.array([i for i, _ in edges])
    jj = np.array([j for _, j in edges])
    n = states.shape[1] // 2
    inc = np.zeros((len(edges), n))
    inc[np.arange(len(edges)), ii] = 1.0
    inc[np.arange(len(edges)), jj] = -1.0

    def rhs(p):
        pts = p.reshape(p.shape[0], n, 2)
        diff = pts[:, ii] - pts[:, jj]
        err = np.einsum("tkd,tkd->tk", diff, diff) - r_star
        force = -2.0 * err[:, :, None] * diff  # acts on p_i; the opposite on p_j
        return np.einsum("kn,tkd->tnd", inc, force).reshape(p.shape)

    k1 = rhs(states)
    k2 = rhs(states + 0.5 * dt * k1)
    k3 = rhs(states + 0.5 * dt * k2)
    k4 = rhs(states + dt * k3)
    return states + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    head, _, body = text.partition("\n")
    header = head.split(",")
    rows = body.count("\n")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    return header, values.reshape(rows, len(header))


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, atol: float, rtol: float = 0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _close_up_to_sign(a, b, atol: float) -> bool:
    return _close(a, b, atol) or _close(a, -np.asarray(b, dtype=float), atol)


def _orthonormal(cols: np.ndarray) -> bool:
    return cols.shape[1] == 0 or _close(cols.T @ cols, np.eye(cols.shape[1]), 1e-10)


def _columns(data, rows: int) -> np.ndarray:
    return np.array(data, dtype=float).reshape(-1, rows).T if data else np.zeros((rows, 0))


# ---------------------------------------------------------- expected values


class Case:
    """Everything the checks expect for one generated scenario, computed once
    from its payload."""

    def __init__(self, scenario):
        self.scenario = scenario
        p = scenario.payload
        self.pts = np.array(p["positions"], dtype=float)
        self.n = len(self.pts)
        self.nd = 2 * self.n
        self.edges = sorted((min(i, j) - 1, max(i, j) - 1) for i, j in p["edges"])
        self.m = len(self.edges)
        self.actuator = p["actuator"] - 1
        self.sensor = p["sensor"] - 1
        self.w0 = np.array(p["w0"], dtype=float)
        self.g = float(p.get("impulse", 1.0))
        sim = p.get("sim", DEFAULT_SIM)
        self.dt = float(sim["dt"])
        self.steps = max(1, int(round(float(sim["t_end"]) / self.dt)))
        self.rigid = scenario.classification != "flexible"

        self.r = rigidity_matrix(self.pts, self.edges)
        self.r_star = edge_errors(self.pts.reshape(1, -1), self.edges, 0.0)[0]
        _, s, vt = np.linalg.svd(self.r, full_matrices=True)
        rank = int(np.sum(s > max(self.r.shape) * s[0] * np.finfo(float).eps))
        self.flex = vt[rank:].T
        self.a = -self.r.T @ self.r
        self.lam, self.vec = np.linalg.eigh(self.a)
        groups = eigen_groups(self.lam, self.vec)
        i, j = self.actuator, self.sensor
        # PBH counts: per eigenspace, the dimension pinned at the nodes
        self.hidden = {
            "uncontrollable": [_hidden_count(gr, self.rows(i)) for gr in groups],
            "unobservable": [_hidden_count(gr, self.rows(j)) for gr in groups],
            "both": [_hidden_count(gr, self.rows(i, j)) for gr in groups],
        }

        self.rot_field = rotation_field(self.pts)
        self.r_i = rotation_at_node(self.pts, self.actuator)
        self.theta_scale = 1.0 / float(np.linalg.norm(self.rot_field))  # raw angle per unit c_r
        self.x0 = np.zeros(self.nd)
        self.x0[2 * i : 2 * i + 2] = self.w0 * self.g
        count = max(1, int(round(TAIL_FRACTION * (self.steps + 1))))
        self.tail_ks = np.arange(self.steps + 1 - count, self.steps + 1)

    @staticmethod
    def rows(*nodes: int) -> np.ndarray:
        return np.concatenate([np.arange(2 * k, 2 * k + 2) for k in nodes])

    def rk4_powers(self, ks: np.ndarray) -> np.ndarray:
        """R(h lambda)^k for each k (rows) and eigenvalue (columns)."""
        return rk4_factor(self.dt * self.lam)[None, :] ** ks[:, None]

    def tails(self, x0: np.ndarray) -> np.ndarray:
        """Mean deviation over the trailing samples, closed form; x0 is (nd, N)."""
        mean = self.rk4_powers(self.tail_ks).mean(axis=0)
        return self.vec @ (mean[:, None] * (self.vec.T @ x0))


# --------------------------------------------------------------- the checks


def check_call(result, f: Failures, check: bool) -> None:
    f.expect("call.status", result.returncode == 0, f"exit code {result.returncode}")
    f.expect("call.status", "Traceback" not in result.stderr, "traceback on stderr")
    if check:
        f.expect("check.passed", "check passed" in result.stdout, result.stderr.strip()[-200:])


def _manifest(case: Case, out: Path, command: str, f: Failures) -> None:
    files = [name for name, flag in WRITES[command].items() if flag is None or getattr(case.scenario, flag)]
    runs = _load(out / "manifest.json")["runs"]
    f.expect("manifest", runs[command]["files"] == sorted(files), f"{command} files")
    for name in files:
        f.expect("manifest", (out / name).is_file(), f"missing {name}")


def _jacobian(case: Case, out: Path, f: Failures) -> None:
    header, r = read_csv(out / "rigidity_matrix.csv")
    names = [f"p_{k + 1}{ax}" for k in range(case.n) for ax in "xy"]
    f.expect("analyze.jacobian", header == names, "header")
    f.expect("analyze.jacobian", _close(r, case.r, 1e-12), "entries")


def _report(case: Case, out: Path, f: Failures) -> None:
    rep = _load(out / "report.json")
    rank = case.scenario.rank
    expected = {
        "classification": case.scenario.classification,
        "rank": rank,
        "edge_count": case.m,
        "state_dim": case.nd,
        "dims": {"flex": case.nd - rank, "self_stress": case.m - rank, "deformation": rank, "rbm": 3},
    }
    for key, want in expected.items():
        f.expect("analyze.report", rep[key] == want, f"{key}: {rep[key]!r} != {want!r}")
    f.expect("analyze.report", case.flex.shape[1] == case.nd - rank, "own SVD rank")


def _subspaces(case: Case, out: Path, f: Failures) -> None:
    sub = _load(out / "subspaces.json")
    rank, nd = case.scenario.rank, case.nd
    f.expect("analyze.report", sub["ambient_dim"] == nd, "ambient_dim")
    scale = float(np.linalg.norm(case.r))
    flex = _columns(sub["flex"], nd)
    f.expect("analyze.flex", flex.shape[1] == nd - rank, f"dim {flex.shape[1]}")
    f.expect("analyze.flex", _orthonormal(flex), "not orthonormal")
    f.expect("analyze.flex", np.abs(case.r @ flex).max(initial=0.0) <= TIGHT * scale, "R F != 0")
    stress = _columns(sub["self_stress"], case.m)
    f.expect("analyze.self_stress", stress.shape[1] == case.m - rank, f"dim {stress.shape[1]}")
    f.expect("analyze.self_stress", _orthonormal(stress), "not orthonormal")
    f.expect("analyze.self_stress",
             np.abs(case.r.T @ stress).max(initial=0.0) <= TIGHT * scale, "R^T S != 0")
    deform = _columns(sub["deformation"], nd)
    f.expect("analyze.deformation", deform.shape[1] == rank, f"dim {deform.shape[1]}")
    f.expect("analyze.deformation", _orthonormal(deform), "not orthonormal")
    f.expect("analyze.deformation",
             np.abs(case.flex.T @ deform).max(initial=0.0) <= TIGHT, "not orthogonal to flexes")
    trans = np.zeros((nd, 2))
    trans[0::2, 0] = trans[1::2, 1] = 1.0 / np.sqrt(case.n)
    f.expect("analyze.rbm", _close(_columns(sub["rbm_translations"], nd), trans, TIGHT), "translations")
    rot = case.rot_field.ravel() / np.linalg.norm(case.rot_field)
    f.expect("analyze.rbm",
             _close_up_to_sign(_columns(sub["rbm_rotations"], nd), rot[:, None], TIGHT), "rotation")


def check_analyze(case: Case, out: Path, f: Failures) -> None:
    f.run("manifest", _manifest, case, out, "analyze", f)
    f.run("analyze.jacobian", _jacobian, case, out, f)
    f.run("analyze.report", _report, case, out, f)
    f.run("analyze.flex", _subspaces, case, out, f)


def _modes_dims(case: Case, mo: dict, f: Failures) -> None:
    hid = case.hidden
    unc, unobs, both = (sum(hid[k]) for k in ("uncontrollable", "unobservable", "both"))
    f.expect("modes.pbh", mo["uncontrollable_dim"] == unc, f"uncontrollable {mo['uncontrollable_dim']} != {unc}")
    f.expect("modes.pbh", mo["unobservable_dim"] == unobs, f"unobservable {mo['unobservable_dim']} != {unobs}")
    same = case.actuator == case.sensor
    f.expect("modes.pbh", mo["actuator_equals_sensor"] == same, "actuator_equals_sensor")
    if same:
        f.expect("modes.pbh", mo["uncontrollable_equals_unobservable"] is True, "U != O at one node")
    if case.n <= KRYLOV_MAX_N:
        b = np.eye(case.nd)[:, case.rows(case.actuator)]
        c = np.eye(case.nd)[:, case.rows(case.sensor)]
        f.expect("modes.krylov", mo["uncontrollable_dim"] == case.nd - krylov_rank(case.a, b), "uncontrollable")
        f.expect("modes.krylov", mo["unobservable_dim"] == case.nd - krylov_rank(case.a, c), "unobservable")

    rep = mo["mode_report"]
    lam = case.lam
    listed = np.concatenate([[e["value"]] * e["multiplicity"] for e in rep["eigenvalues"]])
    scale = np.abs(lam).max()
    f.expect("modes.spectrum", rep["state_dim"] == case.nd, "state_dim")
    f.expect("modes.spectrum", _close(np.sort(listed), lam, 1e-9 * scale), "eigenvalues")
    f.expect("modes.spectrum", [rep["actuator"], rep["sensor"]] == [case.actuator + 1, case.sensor + 1], "nodes")
    for e in rep["eigenvalues"]:
        f.expect("modes.four_way", sum(e["dims"].values()) == e["multiplicity"], f"group {e['value']}")
    want = {
        "uncontrollable_unobservable": both,
        "uncontrollable_observable": unc - both,
        "controllable_unobservable": unobs - both,
        "controllable_observable": case.nd - unc - unobs + both,
    }
    f.expect("modes.four_way", rep["four_way"] == want, f"{rep['four_way']} != {want}")

    checks = mo["checks"]
    zero_hidden = hid["uncontrollable"][-1]  # the zero eigenspace is the last group of -R^T R
    split = checks["uncontrollable_split"]
    f.expect("modes.split", split["uncontrollable_dim"] == unc, "uncontrollable_dim")
    f.expect("modes.split", split["rbm_component_dim"] + split["deformation_component_dim"] == unc, "sum")
    f.expect("modes.split", split["direct_sum_holds"] is True, "direct sum")
    f.expect("modes.split", checks["classification"] == case.scenario.classification, "classification")
    local = checks["uncontrollable_vs_local_rotation"]
    t_dim = 2 * (case.n - 1) - sum(case.actuator in e for e in case.edges)
    f.expect("modes.split", local["uncontrollable_dim"] == unc, "local report uncontrollable_dim")
    f.expect("theorem.inclusion", local["local_rotation_dim"] == t_dim, "local_rotation_dim")

    inc = checks["rotation_inclusion"]
    f.expect("theorem.inclusion", inc["holds"] is True, "R_i not in T_i")
    f.expect("theorem.inclusion", [inc["global_rotation_dim"], inc["local_rotation_dim"]] == [1, t_dim], "dims")

    ex, char = checks["existence_bound"], checks["rotation_characterization"]
    f.expect("theorem.existence", ex["applicable"] == case.rigid, "applicable")
    f.expect("theorem.existence", ex["lower_bound"] == 1 and ex["holds"] is True, "bound")
    f.expect("theorem.characterization", char["applicable"] == case.rigid, "applicable")
    f.expect("theorem.characterization", char["global_rotation_dim"] == 1, "global_rotation_dim")
    f.expect("theorem.characterization", char["matches"] is True, "matches")
    if case.rigid:
        f.expect("theorem.characterization", char["max_principal_angle"] <= SUBSPACE_TOL, "angle")
        dims = [split["rbm_component_dim"], char["uncontrollable_rbm_dim"], ex["uncontrollable_rbm_dim"], zero_hidden]
        f.expect("theorem.rbm_rotation", dims == [1, 1, 1, 1], f"hidden rigid-body dims {dims}")
    else:
        f.expect("theorem.rbm_rotation", split["rbm_component_dim"] == zero_hidden, "zero-eigenspace count")


def check_modes(case: Case, out: Path, f: Failures) -> None:
    f.run("manifest", _manifest, case, out, "modes", f)
    f.run("modes.pbh", lambda: _modes_dims(case, _load(out / "modes.json"), f))


def _outcome(case: Case, oc: dict, f: Failures) -> None:
    align = float(case.r_i @ case.w0)
    branch = "withheld" if not case.rigid else (
        "recovery" if abs(align) <= SUBSPACE_TOL else "distortion")
    f.expect("dichotomy.verdict", branch == case.scenario.branch, f"construction gives {branch}")
    f.expect("dichotomy.verdict", oc["verdict"] == branch, f"{oc['verdict']} != {branch}")
    f.expect("dichotomy.verdict", oc["classification"] == case.scenario.classification, "classification")

    f.expect("dichotomy.alignment", abs(abs(oc["alignment"]) - abs(align)) <= TIGHT, "|alignment|")
    co = oc["coefficients"]
    f.expect("dichotomy.alignment",
             _close([co["c_x"], co["c_y"]], case.w0 * case.g / np.sqrt(case.n), TIGHT), "c_x, c_y")
    f.expect("dichotomy.alignment", abs(co["c_r"] - oc["alignment"] * case.g) <= TIGHT, "c_r")
    f.expect("dichotomy.alignment",
             abs(oc["rotation_angle"] - co["c_r"] * case.theta_scale) <= TIGHT, "rotation_angle")
    f.expect("dichotomy.alignment", _close(oc["w0"], case.w0, 0.0) and oc["magnitude"] == case.g, "input")
    f.expect("dichotomy.alignment",
             oc["w0_is_unit"] == bool(abs(np.linalg.norm(case.w0) - 1.0) <= 1e-12), "w0_is_unit")

    steady = case.flex @ (case.flex.T @ case.x0)
    f.expect("dichotomy.steady_state", _close(oc["steady_state"], steady, TIGHT), "flex projection")
    if case.rigid:
        f.expect("dichotomy.steady_state", oc["flex_excitation"] is None, "flex_excitation")
    else:
        rbm = np.column_stack([np.tile([1.0, 0.0], case.n), np.tile([0.0, 1.0], case.n), case.rot_field.ravel()])
        q, _ = np.linalg.qr(rbm)
        excite = float(np.linalg.norm(steady - q @ (q.T @ case.x0)))
        f.expect("dichotomy.steady_state", abs(oc["flex_excitation"] - excite) <= TIGHT, "flex_excitation")

    tail = case.tails(case.x0[:, None])[:, 0]
    sq = edge_errors((case.pts.ravel() + tail)[None, :], case.edges, 0.0)[0]
    f.expect("dichotomy.final", _close(oc["simulated_edge_sq_lengths"], sq, TRAJ_ATOL), "squared lengths")
    f.expect("dichotomy.final", _close(oc["simulated_final_edge_errors"], sq - case.r_star, TRAJ_ATOL), "errors")
    f.expect("dichotomy.final", _close(oc["linearized_final_edge_errors"], case.r @ tail, TRAJ_ATOL), "R tail")
    theta2 = oc["rotation_angle"] ** 2
    f.expect("dichotomy.final",
             _close(oc["predicted_edge_sq_lengths"], case.r_star * (1.0 + theta2), TIGHT), "predicted")
    if case.scenario.converged:
        want = (co["c_r"] * case.theta_scale) ** 2 * case.r_star
        f.expect("dichotomy.converged",
                 _close(oc["simulated_final_edge_errors"], want, 1e-12, rtol=1e-6), "theta^2 |e|^2")


def _trajectory(case: Case, path: Path, f: Failures) -> np.ndarray:
    header, data = read_csv(path)
    names = (["t"] + [f"p_{k + 1}{ax}" for k in range(case.n) for ax in "xy"]
             + [f"e_{k + 1}" for k in range(case.m)] + ["V"])
    f.expect("trajectory.columns", header == names, "header")
    pos = data[:, 1 : 1 + case.nd]
    err = data[:, 1 + case.nd : 1 + case.nd + case.m]
    f.expect("trajectory.columns", _close(err, edge_errors(pos, case.edges, case.r_star), 1e-10), "edge errors")
    f.expect("trajectory.columns", _close(data[:, -1], 0.5 * (err**2).sum(axis=1), 1e-300, rtol=1e-9), "V")
    ks = np.arange(case.steps + 1)
    f.expect("trajectory.rows", data.shape[0] == ks.size, f"{data.shape[0]} rows")
    f.expect("trajectory.rows", _close(data[:, 0], ks * case.dt, 1e-9), "times")
    return data


def _linear_rows(case: Case, path: Path, f: Failures) -> None:
    data = _trajectory(case, path, f)
    vec = case.vec
    coeff = vec.T @ case.x0
    states = (case.rk4_powers(np.arange(case.steps + 1)) * coeff) @ vec.T
    f.expect("trajectory.rows", _close(data[:, 1 : 1 + case.nd], states + case.pts.ravel(), TRAJ_ATOL),
             "rows differ from the closed-form RK4 iterate")


def _nonlinear_rows(case: Case, path: Path, oc: dict, f: Failures) -> None:
    data = _trajectory(case, path, f)
    pos = data[:, 1 : 1 + case.nd]
    f.expect("nonlinear.steps", _close(pos[0], case.pts.ravel() + case.x0, 1e-12), "first row")
    stepped = gradient_rk4_step(pos[:-1], case.edges, case.r_star, case.dt)
    f.expect("nonlinear.steps", _close(pos[1:], stepped, 1e-11), "row is not one RK4 step")
    err = data[:, 1 + case.nd : 1 + case.nd + case.m]
    tail = err[-max(1, int(round(TAIL_FRACTION * len(err)))) :].mean(axis=0)
    f.expect("nonlinear.steps", _close(oc["nonlinear_final_edge_errors"], tail, 1e-12), "tail errors")
    v = data[:, -1]
    f.expect("nonlinear.potential", bool(np.all(np.diff(v) <= 1e-12 * v[0])), "potential increases")


def _sweep(case: Case, path: Path, count: int, f: Failures) -> None:
    header, data = read_csv(path)
    f.expect("sweep", header == ["angle", "alignment", "c_r", "max_final_edge_error"], "header")
    angles = 2.0 * np.pi * np.arange(count) / count
    dirs = np.vstack([np.cos(angles), np.sin(angles)])
    f.expect("sweep", data.shape == (count, 4), f"shape {data.shape}")
    f.expect("sweep", _close(data[:, 0], angles, 1e-12), "angles")
    align = case.r_i @ dirs
    f.expect("sweep", _close_up_to_sign(data[:, 1], align, TIGHT), "alignment")
    f.expect("sweep", _close(data[:, 2], data[:, 1] * case.g, TIGHT), "c_r")
    x0 = np.zeros((case.nd, count))
    x0[2 * case.actuator : 2 * case.actuator + 2] = dirs * case.g
    finals = edge_errors(case.tails(x0).T + case.pts.ravel(), case.edges, case.r_star)
    f.expect("sweep", _close(data[:, 3], np.abs(finals).max(axis=1), TRAJ_ATOL), "max final edge error")
    if case.scenario.converged:
        want = (align * case.g * case.theta_scale) ** 2 * case.r_star.max()
        f.expect("dichotomy.converged", _close(data[:, 3], want, 1e-12, rtol=1e-6), "sweep theta^2 |e|^2")


def check_dichotomy(case: Case, out: Path, f: Failures) -> None:
    f.run("manifest", _manifest, case, out, "dichotomy", f)
    oc = {}
    try:
        oc = _load(out / "outcome.json")["outcome"]
    except (OSError, KeyError, ValueError) as exc:
        f.expect("dichotomy.verdict", False, f"outcome.json: {exc}")
    f.run("dichotomy.verdict", _outcome, case, oc, f)
    f.run("trajectory.rows", _linear_rows, case, out / "trajectory.csv", f)
    if case.scenario.nonlinear:
        f.run("nonlinear.steps", _nonlinear_rows, case, out / "trajectory_nonlinear.csv", oc, f)
    if case.scenario.sweep:
        f.run("sweep", _sweep, case, out / "sweep.csv", case.scenario.sweep, f)


def _arrows(case: Case, out: Path, f: Failures) -> None:
    header, ri = read_csv(out / "arrows_Ri.csv")
    f.expect("plotdata.arrows_Ri", header == ["node", "x", "y", "dx", "dy"], "header")
    about = (case.pts - case.pts[case.actuator]) @ OMEGA.T
    f.expect("plotdata.arrows_Ri", _close(ri[:, :3], np.column_stack([np.arange(1, case.n + 1), case.pts]), 0.0),
             "nodes and positions")
    f.expect("plotdata.arrows_Ri", _close_up_to_sign(ri[:, 3:], about / np.linalg.norm(about), TIGHT), "arrows")

    header, ti = read_csv(out / "arrows_Ti.csv")
    f.expect("plotdata.arrows_Ti", header == ["node", "x", "y", "dx", "dy"], "header")
    nbrs = sorted({j for e in case.edges if case.actuator in e for j in e} - {case.actuator})
    f.expect("plotdata.arrows_Ti", ti.shape[0] == len(nbrs), f"{ti.shape[0]} rows")
    f.expect("plotdata.arrows_Ti", _close(ti[:, 0], np.array(nbrs) + 1.0, 0.0), "neighbors")
    f.expect("plotdata.arrows_Ti", _close(ti[:, 1:3], case.pts[nbrs], 0.0), "positions")
    tangents = about[nbrs] / np.linalg.norm(about[nbrs], axis=1, keepdims=True)
    ok = [_close_up_to_sign(row, want, TIGHT) for row, want in zip(ti[:, 3:], tangents)]
    f.expect("plotdata.arrows_Ti", all(ok), "unit tangents")


def _edge_csv(case: Case, out: Path, f: Failures) -> None:
    header, data = read_csv(out / "edge_errors.csv")
    th, traj = read_csv(out / "trajectory.csv")
    keep = [0] + [k for k, name in enumerate(th) if name.startswith("e_")]
    f.expect("plotdata.edge_errors", header == [th[k] for k in keep], "header")
    f.expect("plotdata.edge_errors", _close(data, traj[:, keep], 1e-300, rtol=1e-15), "columns")


def _plane(case: Case, out: Path, f: Failures) -> None:
    pl = _load(out / "plane.json")
    r = np.array(pl["rotation_at_node"], dtype=float)
    f.expect("plotdata.plane", pl["node"] == case.actuator + 1, "node")
    f.expect("plotdata.plane", _close_up_to_sign(r, case.r_i, TIGHT), "rotation_at_node")
    normal = np.array([-r[0], -r[1], 1.0])
    f.expect("plotdata.plane", _close(pl["n_c"], normal, TIGHT), "n_c")
    basis = np.array(pl["plane_basis"], dtype=float).T
    f.expect("plotdata.plane", basis.shape == (3, 2) and _orthonormal(basis), "plane basis")
    f.expect("plotdata.plane", np.abs(normal @ basis).max() <= TIGHT, "plane basis not normal to n_c")
    line = np.array([-r[1], r[0], 0.0]) / np.linalg.norm(r)
    f.expect("plotdata.plane", _close(pl["recovery_line"], line, TIGHT), "recovery_line")


def check_plotdata(case: Case, out: Path, f: Failures) -> None:
    f.run("manifest", _manifest, case, out, "plotdata", f)
    f.run("plotdata.arrows_Ri", _arrows, case, out, f)
    f.run("plotdata.edge_errors", _edge_csv, case, out, f)
    f.run("plotdata.plane", _plane, case, out, f)


ARTIFACT_CHECKS = {
    "analyze": check_analyze,
    "modes": check_modes,
    "dichotomy": check_dichotomy,
    "plotdata": check_plotdata,
}
