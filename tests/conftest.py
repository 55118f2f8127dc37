"""Shared frameworks, random framework generators, scenario helpers, the
ambient subspace oracles, and whole trajectory tables."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import event
from hypothesis import strategies as st

import rigidkit as rk


# ---------------------------------------------------------------- canned cases

def triangle() -> rk.Framework:
    return rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (0, 2), (1, 2)]
    )


def square_with_diagonal() -> rk.Framework:
    """Minimally rigid 4-agent case: unit square plus the (0, 2) diagonal."""
    return rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )


def complete_k4() -> rk.Framework:
    return rk.Framework.from_points(
        [[0.0, 0.0], [1.1, 0.1], [0.9, 1.2], [-0.2, 0.8]],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )


def four_cycle() -> rk.Framework:
    return rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )


def collinear_path() -> rk.Framework:
    return rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [(0, 1), (1, 2)]
    )


def two_nodes() -> rk.Framework:
    return rk.Framework.from_points([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])


def no_edges(n: int = 3) -> rk.Framework:
    pts = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return rk.Framework.from_points(pts, [])


# ------------------------------------------------- ambient subspace oracles
#
# The paper states its results as subspace relations (R_i in T_i, U meet
# ker R = R_i). rigidkit computes them in eigenspace coefficients; these two
# ambient constructions, which it once used itself, are the tests' oracles.


def nullspace(matrix, rank_tol: float | None = None, tol: float = rk.DEFAULT_TOL) -> rk.Subspace:
    """Orthonormal basis of ker(matrix) via singular value decomposition.
    ``rank_tol`` is the absolute singular-value cutoff; ``None`` selects the
    scale-aware ``max(shape) * sigma_max * eps``."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    if rank_tol is not None:
        cutoff = float(rank_tol)
    else:
        cutoff = max(a.shape) * float(s[0]) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return rk.Subspace(basis=vt[rank:].T, tol=tol)


def intersect(s1: rk.Subspace, s2: rk.Subspace) -> rk.Subspace:
    """Intersection, via principal vectors whose angle falls below tolerance.

    The selection threshold acts on the angle's sine (the residual after
    projecting one principal vector onto the other subspace), which stays
    meaningful for angles far below the resolution of ``arccos``.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")
    tol = max(s1.tol, s2.tol)
    if s1.dim == 0 or s2.dim == 0:
        return rk.Subspace.zero(s1.ambient_dim, tol)
    m = s1.basis.T @ s2.basis
    _, _, vt = np.linalg.svd(m)
    candidates = s2.basis @ vt.T  # principal vectors inside s2
    resid = candidates - s1.basis @ (s1.basis.T @ candidates)
    keep = np.linalg.norm(resid, axis=0) <= tol
    if not np.any(keep):
        return rk.Subspace.zero(s1.ambient_dim, tol)
    return rk.orthonormalize(candidates[:, keep], tol=tol)


# ----------------------------------------------------- random rigid frameworks

def _min_rank(n: int, d: int) -> int:
    return n * d - d * (d + 1) // 2


def _well_conditioned(fw: rk.Framework, ratio: float = 0.03) -> bool:
    s = np.linalg.svd(rk.rigidity_matrix(fw).entries, compute_uv=False)
    target = _min_rank(fw.n, fw.d)
    return s.size >= target and s[target - 1] / s[0] >= ratio


def henneberg_edges(rng: np.random.Generator, n: int, d: int) -> list[tuple[int, int]]:
    """Vertex-addition construction: start from a complete graph on d nodes,
    attach every further node to d distinct earlier ones. Generic positions
    then give a minimally rigid framework."""
    edges = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for new in range(d, n):
        picks = rng.choice(new, size=d, replace=False)
        edges.extend((int(p), new) for p in picks)
    return edges


def random_rigid_framework(
    rng: np.random.Generator, n: int, d: int = 2, ratio: float = 0.03
) -> rk.Framework:
    """Random minimally rigid framework with a rejection loop on conditioning.

    The singular-value ratio floor keeps the stiffness spectrum reasonably
    conditioned so simulation horizons stay short; draws are redrawn (new
    positions and edges) until the floor is met.
    """
    assert n >= d + 1
    for _ in range(500):
        edges = henneberg_edges(rng, n, d)
        if d == 2:
            angles = 2.0 * np.pi * (np.arange(n) + 0.3 * rng.uniform(-1, 1, n)) / n
            radii = 1.0 + 0.2 * rng.uniform(-1, 1, n)
            pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        else:
            pts = rng.uniform(0.0, 1.0, size=(n, d))
        fw = rk.Framework.from_points(pts, edges)
        if _well_conditioned(fw, ratio):
            return fw
    raise RuntimeError(f"could not draw a well-conditioned rigid framework (n={n}, d={d})")


@st.composite
def frameworks_with_node(draw, dims=(2, 2, 3), kinds=("minimal", "redundant", "flexible")):
    """A random minimally rigid framework in one of ``dims``, kept as it is,
    with extra edges (redundant) or with edges removed (flexible), as
    ``kinds`` allows, and a node."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(d + 1, 8))
    fw = random_rigid_framework(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, d)
    edges = list(fw.edges)
    kind = draw(st.sampled_from(kinds))
    if kind == "redundant":
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
        if missing:
            edges += draw(st.lists(st.sampled_from(missing), min_size=1, max_size=3, unique=True))
    elif kind == "flexible":
        drop = draw(st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=3, unique=True))
        edges = [e for k, e in enumerate(edges) if k not in drop]
    event(kind)
    return rk.Framework.from_points(fw.points, edges), draw(st.integers(0, n - 1))


@pytest.fixture(scope="session")
def rigid_frameworks_2d() -> list[rk.Framework]:
    rng = np.random.default_rng(20240817)
    return [random_rigid_framework(rng, int(rng.integers(4, 9)), 2) for _ in range(50)]


@pytest.fixture(scope="session")
def rigid_frameworks_3d() -> list[rk.Framework]:
    rng = np.random.default_rng(911)
    return [random_rigid_framework(rng, int(rng.integers(4, 8)), 3) for _ in range(20)]


@pytest.fixture(scope="session")
def assorted_frameworks(rigid_frameworks_2d, rigid_frameworks_3d) -> list[rk.Framework]:
    """Rigid random draws plus the canned flexible and redundant cases."""
    return (
        rigid_frameworks_2d
        + rigid_frameworks_3d
        + [triangle(), square_with_diagonal(), complete_k4(), four_cycle(), collinear_path(), no_edges()]
    )


# ------------------------------------------------------------ scenario helpers

def case_study_scenario_dict(**overrides) -> dict:
    """Scenario file payload for the 4-agent case framework.

    The default input direction is orthogonal to the rotational mode's
    local velocity at the actuated corner, so the stock scenario lands on
    the recovery branch.
    """
    data = {
        "n": 4,
        "d": 2,
        "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]],
        "positions": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        "actuator": 1,
        "sensor": 3,
        "w0": [0.7071067811865476, 0.7071067811865476],
        "impulse": 1.0,
        "sim": {"dt": 0.005, "t_end": 40.0, "method": "rk4"},
    }
    data.update(overrides)
    return data


def triangle_scenario_dict(**overrides) -> dict:
    data = {
        "n": 3,
        "d": 2,
        "edges": [[1, 2], [1, 3], [2, 3]],
        "positions": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "actuator": 1,
        "sensor": 2,
        "w0": [1.0, 0.0],
        "sim": {"dt": 0.01, "t_end": 10.0, "method": "rk4"},
    }
    data.update(overrides)
    return data


def lattice_scenario_dict(seed: int = 1, rows: int = 10, cols: int = 12) -> dict:
    """Jittered triangular lattice of ``rows * cols`` agents (rigid with
    redundancy), actuated and measured at an interior node, over a 300-step
    horizon: the shape of the large frameworks the CLI is sized for."""
    rng = np.random.default_rng(seed)
    positions = [
        [c + 0.5 * (r % 2) + 0.1 * rng.uniform(-1, 1), r * np.sqrt(3) / 2 + 0.1 * rng.uniform(-1, 1)]
        for r in range(rows)
        for c in range(cols)
    ]
    edges = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c + 1
            if c + 1 < cols:
                edges.append([k, k + 1])
            if r + 1 < rows:
                edges.append([k, k + cols])
                diagonal = c - 1 if r % 2 == 0 else c + 1
                if 0 <= diagonal < cols:
                    edges.append([k, (r + 1) * cols + diagonal + 1])
    node = 2 * cols + 4
    return {
        "n": rows * cols,
        "d": 2,
        "edges": edges,
        "positions": positions,
        "actuator": node,
        "sensor": node,
        "w0": [0.6, 0.8],
        "impulse": 0.8,
        "sim": {"dt": 0.01, "t_end": 3.0, "method": "rk4"},
    }


def system_of(sc: rk.Scenario) -> rk.LinearizedSystem:
    """The scenario's linearized system, as the CLI builds it."""
    return rk.linearize(sc.framework, sc.actuator, sc.sensor, sc.tol)


def write_scenario(path, data: dict) -> str:
    from rigidkit.jsonio import dump_json

    dump_json(data, path)
    return str(path)


# --------------------------------------------------------------- trajectories


class WholeTable(NamedTuple):
    times: np.ndarray  # (count,)
    states: np.ndarray  # (count, n*d), as the blocks give them
    edge_errors: np.ndarray  # (count, m), column-major
    potential: np.ndarray  # (count,)


def whole_table(traj) -> WholeTable:
    """Every row of one pass over ``traj.blocks()`` as one table, with the
    sample times and the exact edge errors and potential of the whole stack.
    The library reads trajectories only in blocks; the tests read them
    whole."""
    states = np.concatenate(list(traj.blocks()))
    _, errors, potential = traj.values(states)
    return WholeTable(np.arange(traj.count) * traj.dt, states, errors, potential)


def whole_table_tail(traj) -> np.ndarray:
    """Mean of the whole table's state rows over the trailing
    ``TAIL_FRACTION`` of samples: the oracle of the closed-form tail mean
    that the impulse experiment reads."""
    return whole_table(traj).states[rk.dynamics._tail(traj.count)].mean(axis=0)
