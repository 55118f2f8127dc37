"""Seeded scenario generator for the three benchmark workloads.

Each scenario is a scenario-file payload for the rigidkit CLI plus the facts
its construction guarantees (classification, rank, branch), which the oracle
checks the program's outputs against. Only the payload is written to disk and
handed to the program. The same seed always gives the same payloads.

Inputs are derived from the geometry, never from rigidkit:

* recovery inputs are unit vectors orthogonal to r_i, the rotational
  rigid-body mode's velocity at the actuated node;
* distortion inputs are unit vectors whose alignment with r_i is at least
  ``MIN_ALIGNMENT_SHARE`` of |r_i|, far above the 1e-8 recovery tolerance.

Run ``python3 benchmark/workloads.py`` to print every scenario's numerical
margins (see ``margins``), worst case over ``MARGIN_SEEDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracle

MIN_ALIGNMENT_SHARE = 0.25
LATTICE_JITTER = 0.1  # share of the lattice spacing
# draws whose margins fall below these are redrawn from the same seeded stream
MIN_REL_EIG_GAP = 1e-5  # rigidkit groups eigenvalues closer than 1e-7 * max|lambda|, zero included
REPEAT_RTOL = 1e-12  # eigenvalues closer than this share of max|lambda| are one repeated eigenvalue
MIN_VISIBLE_BLOCK = 1e-6  # rigidkit pins modes whose actuator block is below 1e-8
MIN_ROTATION_AT_NODE = 1e-2  # share of the largest |r_k|: keeps the actuator off the center

MARGIN_SEEDS = range(1, 11)  # the seeds of the reference figures in README.md

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
SQUARE_DIAGONAL_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]


@dataclass(frozen=True)
class Scenario:
    """One generated scenario: its file payload and what the construction fixes."""

    name: str
    payload: dict
    classification: str
    rank: int
    branch: str  # "recovery" | "distortion" | "withheld"
    converged: bool = False  # horizon long enough for the rigid-body limit
    nonlinear: bool = False
    sweep: int = 0

    @property
    def dichotomy_flags(self) -> list[str]:
        flags = ["--sweep", str(self.sweep)] if self.sweep else []
        return flags + (["--nonlinear"] if self.nonlinear else [])


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[Scenario, ...]


def _payload(points, edges, actuator, sensor, w0, impulse, sim=None) -> dict:
    """Scenario-file payload; node indices become 1-based."""
    data = {
        "n": len(points),
        "d": 2,
        "edges": [[i + 1, j + 1] for i, j in edges],
        "positions": [[float(x), float(y)] for x, y in points],
        "actuator": actuator + 1,
        "sensor": sensor + 1,
        "w0": [float(w0[0]), float(w0[1])],
        "impulse": float(impulse),
    }
    if sim is not None:
        data["sim"] = sim
    return data


def _recovery_input(rng, points, node) -> np.ndarray:
    r = oracle.rotation_at_node(np.asarray(points, float), node)
    w = oracle.OMEGA @ r / np.linalg.norm(r)
    return w if rng.random() < 0.5 else -w


def _distortion_input(rng, points, node) -> np.ndarray:
    r = oracle.rotation_at_node(np.asarray(points, float), node)
    while True:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        w = np.array([np.cos(angle), np.sin(angle)])
        if abs(r @ w) >= MIN_ALIGNMENT_SHARE * np.linalg.norm(r):
            return w


def _free_input(rng) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([np.cos(angle), np.sin(angle)])


def triangular_lattice(rows: int, cols: int, rng) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Jittered triangular lattice: every interior node has six neighbors, so
    the framework is rigid with redundancy (rank 2n - 3)."""
    index = {}
    pts = []
    for r in range(rows):
        for c in range(cols):
            index[r, c] = len(pts)
            pts.append([c + 0.5 * (r % 2), r * np.sqrt(3.0) / 2.0])
    pts = np.array(pts) + LATTICE_JITTER * rng.uniform(-1.0, 1.0, size=(len(pts), 2))
    edges = []
    for (r, c), a in index.items():
        shift = c - 1 if r % 2 == 0 else c
        for q in ((r, c + 1), (r + 1, shift), (r + 1, shift + 1)):
            if q in index:
                edges.append((a, index[q]))
    return pts, sorted(edges)


def margins(points, edges, actuator, sensor, w0) -> dict:
    """How far each verdict sits from rigidkit's tolerances.

    ``rel_zero_gap``: smallest |lambda| of a nonzero eigenvalue of A = -R^T R
    over max|lambda|: the gap between the zero group and the slowest
    deformation.
    ``rel_eig_gap``: smallest gap between consecutive nonzero eigenvalues that
    are not one repeated eigenvalue (closer than ``REPEAT_RTOL``), over
    max|lambda|.
    ``min_visible_block``: smallest nonzero singular value of an eigenspace's
    block at the actuator or sensor (modes that are not hidden).
    ``max_hidden_block``: largest such singular value of a hidden mode.
    ``alignment``: |r_i . w0|, against the 1e-8 recovery tolerance.
    """
    pts = np.asarray(points, float)
    r = oracle.rigidity_matrix(pts, edges)
    lam, vec = np.linalg.eigh(-r.T @ r)
    scale = np.abs(lam).max()
    nonzero = lam[lam < -oracle.ZERO_EIG_RTOL * scale]
    gaps = np.diff(nonzero)
    distinct = gaps[gaps > REPEAT_RTOL * scale]
    visible, hidden = [], []
    for group in oracle.eigen_groups(lam, vec):
        for node in (actuator, sensor):
            s = np.linalg.svd(group[2 * node : 2 * node + 2], compute_uv=False)
            s = np.concatenate([s, np.zeros(group.shape[1] - s.size)]) if s.size < group.shape[1] else s
            visible.extend(s[s > oracle.PIN_TOL])
            hidden.extend(s[s <= oracle.PIN_TOL])
    return {
        "rel_zero_gap": float(np.abs(nonzero).min() / scale),
        "rel_eig_gap": float(distinct.min() / scale) if distinct.size else float("inf"),
        "min_visible_block": float(min(visible)),
        "max_hidden_block": float(max(hidden)) if hidden else 0.0,
        "alignment": float(abs(oracle.rotation_at_node(pts, actuator) @ np.asarray(w0))),
    }


def _lattice_scenario(rng, name, rows, cols, actuator_rc, sensor_rc, branch) -> Scenario:
    for _ in range(50):
        pts, edges = triangular_lattice(rows, cols, rng)
        actuator = actuator_rc[0] * cols + actuator_rc[1]
        sensor = sensor_rc[0] * cols + sensor_rc[1]
        rot = np.linalg.norm(oracle.rotation_field(pts), axis=1)
        if np.linalg.norm(oracle.rotation_at_node(pts, actuator)) < MIN_ROTATION_AT_NODE * rot.max():
            continue
        pick = _recovery_input if branch == "recovery" else _distortion_input
        w0 = pick(rng, pts, actuator)
        m = margins(pts, edges, actuator, sensor, w0)
        if min(m["rel_zero_gap"], m["rel_eig_gap"]) >= MIN_REL_EIG_GAP \
                and m["min_visible_block"] >= MIN_VISIBLE_BLOCK:
            break
    else:
        raise RuntimeError(f"{name}: no lattice draw met the margins")
    n = len(pts)
    payload = _payload(
        pts, edges, actuator, sensor, w0, rng.uniform(0.5, 1.0),
        sim={"dt": 0.01, "t_end": 3.0, "method": "rk4"},
    )
    return Scenario(
        name=name, payload=payload, classification="rigid_with_redundancy",
        rank=2 * n - 3, branch=branch, sweep=64,
    )


def case_study(rng) -> Workload:
    """The three demo scenarios with seeded inputs and their own short sims."""
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    triangle = Scenario(
        name="triangle",
        payload=_payload(tri, [(0, 1), (0, 2), (1, 2)], 0, 1, _distortion_input(rng, tri, 0),
                         rng.uniform(0.5, 1.0), sim={"dt": 0.01, "t_end": 20.0, "method": "rk4"}),
        classification="minimally_rigid", rank=3, branch="distortion", nonlinear=True, sweep=64,
    )
    square = Scenario(
        name="square_diagonal",
        payload=_payload(SQUARE, SQUARE_DIAGONAL_EDGES, 0, 2, _recovery_input(rng, SQUARE, 0),
                         rng.uniform(0.5, 1.0), sim={"dt": 0.005, "t_end": 40.0, "method": "rk4"}),
        classification="minimally_rigid", rank=5, branch="recovery", nonlinear=True, sweep=64,
    )
    cycle = Scenario(
        name="four_cycle",
        payload=_payload(SQUARE, [(0, 1), (1, 2), (2, 3), (0, 3)], 0, 2, _free_input(rng),
                         rng.uniform(0.5, 1.0), sim={"dt": 0.005, "t_end": 20.0, "method": "rk4"}),
        classification="flexible", rank=4, branch="withheld", nonlinear=True, sweep=64,
    )
    return Workload("case-study", (triangle, square, cycle))


def large_n(rng) -> Workload:
    """Triangular lattices with n = 60 (actuator at a corner, recovery input)
    and n = 120 (actuator at an interior node, distortion input, sensor at
    the actuator), over a 300-step horizon."""
    small = _lattice_scenario(rng, "lattice60_corner", 6, 10, (0, 0), (5, 9), "recovery")
    big = _lattice_scenario(rng, "lattice120_interior", 10, 12, (2, 3), (2, 3), "distortion")
    return Workload("large-n", (small, big))


def long_horizon(rng) -> Workload:
    """The 4-agent case framework with default sim settings (dt 1e-3, t_end 50,
    RK4): 50k steps, long enough that every deformation has decayed."""
    payload = _payload(SQUARE, SQUARE_DIAGONAL_EDGES, 0, 2, _distortion_input(rng, SQUARE, 0),
                       rng.uniform(0.5, 1.0))
    scenario = Scenario(
        name="case4_default_sim", payload=payload, classification="minimally_rigid", rank=5,
        branch="distortion", converged=True, sweep=256,
    )
    return Workload("long-horizon", (scenario,))


WORKLOADS = {"case-study": case_study, "large-n": large_n, "long-horizon": long_horizon}


def build(name: str, seed: int) -> Workload:
    # one stream per workload, so adding a workload never shifts another's inputs
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]))


def main() -> None:
    worst: dict = {}
    for seed in MARGIN_SEEDS:
        for name in WORKLOADS:
            for sc in build(name, seed).scenarios:
                p = sc.payload
                m = margins(p["positions"], [(i - 1, j - 1) for i, j in p["edges"]],
                            p["actuator"] - 1, p["sensor"] - 1, p["w0"])
                w = worst.setdefault((name, sc.name, sc.branch), {k: [] for k in m})
                for k, v in m.items():
                    w[k].append(v)
    print("| workload | scenario | branch | min rel. zero gap | min rel. eigen gap | min visible block | "
          "max hidden block | alignment range |")
    print("|---|---|---|---|---|---|---|---|")
    for (name, sc, branch), w in worst.items():
        print(f"| {name} | {sc} | {branch} | {min(w['rel_zero_gap']):.2e} | {min(w['rel_eig_gap']):.2e} | "
              f"{min(w['min_visible_block']):.2e} | {max(w['max_hidden_block']):.1e} | "
              f"{min(w['alignment']):.1e} .. {max(w['alignment']):.1e} |")


if __name__ == "__main__":
    main()
