"""Shared frameworks, random framework generators, and scenario helpers."""

import numpy as np
import pytest

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


def system_of(sc: rk.Scenario) -> rk.LinearizedSystem:
    """The scenario's linearized system, as the CLI builds it."""
    return rk.linearize(sc.framework, sc.actuator, sc.sensor, sc.tol)


def write_scenario(path, data: dict) -> str:
    from rigidkit.jsonio import dump_json

    dump_json(data, path)
    return str(path)
