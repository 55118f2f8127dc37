"""Formation frameworks: a sensing graph plus a reference configuration.

Node indices are 0-based everywhere in code. Scenario files use 1-based
node numbering; :func:`load_scenario` and :func:`save_scenario` convert.
Edges are kept in canonical order (each pair as ``(i, j)`` with ``i < j``,
the list sorted lexicographically), which fixes the row order of every
edge-indexed vector and matrix derived from a framework.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .jsonio import dump_json, load_json

__all__ = [
    "Framework",
    "Scenario",
    "SimSettings",
    "ToleranceOverrides",
    "ValidationError",
    "ScenarioParseError",
    "load_scenario",
    "save_scenario",
    "scenario_to_dict",
    "block",
]


class ValidationError(ValueError):
    """An invariant of a framework or scenario does not hold."""


class ScenarioParseError(ValueError):
    """A scenario file is malformed or does not match the schema."""


def _canonical_edges(edges, n: int) -> tuple[tuple[int, int], ...]:
    """Reorder pairs to i < j, sort lexicographically, reject bad input."""
    out = []
    for e in edges:
        pair = tuple(int(x) for x in e)
        if len(pair) != 2:
            raise ValidationError(f"edges: expected a pair, got {list(e)!r}")
        i, j = pair
        if i == j:
            raise ValidationError(f"edges: self-loop at node {i}")
        if not (0 <= i < n) or not (0 <= j < n):
            raise ValidationError(f"edges: node index out of range in ({i}, {j})")
        out.append((min(i, j), max(i, j)))
    out.sort()
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValidationError(f"edges: duplicate edge {a}")
    return tuple(out)


@dataclass(frozen=True)
class Framework:
    """Undirected graph with a stacked reference configuration in R^(n*d).

    ``positions`` stacks agent coordinates agent-by-agent, so agent ``k``
    occupies entries ``k*d : (k+1)*d``. Instances are immutable after
    construction and safe to share between concurrent runs.
    """

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]
    positions: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n: must be at least 1, got {self.n}")
        if self.d < 2:
            raise ValidationError(f"d: ambient dimension must be at least 2, got {self.d}")
        pos = np.array(self.positions, dtype=float).ravel()
        if pos.size != self.n * self.d:
            raise ValidationError(
                f"positions length: expected {self.n * self.d} entries, got {pos.size}"
            )
        if not np.all(np.isfinite(pos)):
            raise ValidationError("positions: entries must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        edges = _canonical_edges(self.edges, self.n)
        object.__setattr__(self, "edges", edges)
        ends = np.array(edges, dtype=np.intp).reshape(len(edges), 2)
        ends.setflags(write=False)
        object.__setattr__(self, "_edge_ends", ends)
        pts = self.points
        zero = np.flatnonzero(np.all(pts[ends[:, 0]] == pts[ends[:, 1]], axis=1))
        if zero.size:
            i, j = edges[zero[0]]
            raise ValidationError(f"edges: zero-length edge ({i}, {j})")

    @classmethod
    def from_points(cls, points, edges) -> "Framework":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("positions: expected an (n, d) array of points")
        return cls(n=pts.shape[0], d=pts.shape[1], edges=tuple(edges), positions=pts.ravel())

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def points(self) -> np.ndarray:
        return self.positions.reshape(self.n, self.d)

    def neighbors(self, node: int) -> tuple[int, ...]:
        if not (0 <= node < self.n):
            raise IndexError(f"node index {node} out of range for n={self.n}")
        out = []
        for i, j in self.edges:
            if i == node:
                out.append(j)
            elif j == node:
                out.append(i)
        return tuple(sorted(out))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    @property
    def edge_ends(self) -> np.ndarray:
        """Read-only (m, 2) array of the canonical edges' endpoints."""
        return self._edge_ends

    def content_key(self) -> bytes:
        """n, d, the edges and the position bytes, which tell whether a result
        was computed for this framework."""
        return f"{self.n}:{self.d}:{self.edges}".encode() + self.positions.tobytes()


@dataclass(frozen=True)
class SimSettings:
    """Fixed-step integrator settings."""

    dt: float = 1e-3
    t_end: float = 50.0
    method: str = "rk4"  # "rk4" | "euler"

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValidationError(f"sim.dt: step size must be positive and finite, got {self.dt}")
        if not self.t_end > 0:
            raise ValidationError(f"sim.t_end: horizon must be positive, got {self.t_end}")
        # beyond 2**53 steps the sample times k * dt are no longer distinct floats
        if not self.t_end / self.dt <= 2.0**53:
            raise ValidationError(f"sim.t_end: {self.t_end / self.dt:.6g} steps of dt, more than 2**53")
        if self.method not in ("rk4", "euler"):
            raise ValidationError(f"sim.method: expected 'rk4' or 'euler', got {self.method!r}")

    @property
    def samples(self) -> int:
        """Rows of a run: step 0, then ``round(t_end / dt)`` steps, one at least."""
        return max(1, round(self.t_end / self.dt)) + 1


@dataclass(frozen=True)
class ToleranceOverrides:
    """Optional overrides for the rank and subspace comparison tolerances."""

    rank: float | None = None
    subspace: float | None = None

    def __post_init__(self):
        if self.rank is not None and not 0 < self.rank < np.inf:
            raise ValidationError(f"tol.rank: must be positive and finite, got {self.rank}")
        if self.subspace is not None and not 0 < self.subspace < np.inf:
            raise ValidationError(f"tol.subspace: must be positive and finite, got {self.subspace}")


@dataclass(frozen=True)
class Scenario:
    """A framework plus the actuation, measurement and simulation choices."""

    framework: Framework
    actuator: int
    sensor: int
    w0: np.ndarray
    impulse: float = 1.0
    sim: SimSettings = SimSettings()
    tol: ToleranceOverrides = ToleranceOverrides()

    def __post_init__(self):
        fw = self.framework
        if not (0 <= self.actuator < fw.n):
            raise ValidationError(f"actuator: node index {self.actuator} out of range")
        if not (0 <= self.sensor < fw.n):
            raise ValidationError(f"sensor: node index {self.sensor} out of range")
        w = np.array(self.w0, dtype=float).ravel()
        if w.size != fw.d:
            raise ValidationError(f"w0: expected {fw.d} entries, got {w.size}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("w0: entries must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "w0", w)
        if not 0 < self.impulse < np.inf:
            raise ValidationError(f"impulse: must be positive and finite, got {self.impulse}")


def _is_int(v) -> bool:
    return type(v) is int  # JSON true and false load as bool, which is rejected


def _is_number(v) -> bool:
    return type(v) in (int, float)  # a bool is not a number


def _list_of(test):
    return lambda v: type(v) is list and all(map(test, v))


def _or_null(test):
    return lambda v: v is None or test(v)


_REQUIRED = ("n", "d", "edges", "positions", "actuator", "sensor", "w0")
# field -> (test of the loaded JSON value, what it must be); "sim." and "tol." name nested fields
_FIELDS = {
    "n": (_is_int, "an integer"),
    "d": (_is_int, "an integer"),
    "edges": (_list_of(lambda e: _list_of(_is_int)(e) and len(e) == 2), "a list of [i, j] integer pairs"),
    "positions": (_list_of(_list_of(_is_number)), "a list of coordinate lists"),
    "actuator": (_is_int, "an integer"),
    "sensor": (_is_int, "an integer"),
    "w0": (_list_of(_is_number), "a list of numbers"),
    "impulse": (_is_number, "a number"),
    "sim": (_or_null(lambda v: type(v) is dict), "an object"),
    "tol": (_or_null(lambda v: type(v) is dict), "an object"),
    "sim.dt": (_is_number, "a number"),
    "sim.t_end": (_is_number, "a number"),
    "tol.rank": (_or_null(_is_number), "a number or null"),
    "tol.subspace": (_or_null(_is_number), "a number or null"),
}


def _check_fields(data: dict, prefix: str = "") -> None:
    """Reject a field of the wrong JSON type, naming it."""
    for key, value in data.items():
        test, expected = _FIELDS.get(prefix + key, (None, None))
        if test is not None and not test(value):
            raise ScenarioParseError(f"{prefix}{key}: expected {expected}")


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file (JSON, 1-based node indices)."""
    try:
        data = load_json(path)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario file must hold a JSON object")
    for key in _REQUIRED:
        if key not in data:
            raise ScenarioParseError(f"missing key {key!r} in scenario file")
    _check_fields(data)
    sim_data = data.get("sim") or {}
    tol_data = data.get("tol") or {}
    _check_fields(sim_data, "sim.")
    _check_fields(tol_data, "tol.")

    n, d = data["n"], data["d"]
    edges = []
    for pair in data["edges"]:
        for x in pair:
            if not (1 <= x <= n):
                raise ValidationError(f"edges: node index {x} out of range [1, {n}]")
        edges.append((pair[0] - 1, pair[1] - 1))

    try:
        positions = np.asarray(data["positions"], dtype=float)
    except ValueError as exc:
        raise ValidationError(f"positions length: expected {n} rows of {d} floats ({exc})") from exc
    if positions.ndim != 2 or positions.shape != (n, d):
        raise ValidationError(
            f"positions length: expected {n} rows of {d} floats, "
            f"got shape {positions.shape}"
        )
    actuator, sensor = data["actuator"], data["sensor"]
    for node, name in ((actuator, "actuator"), (sensor, "sensor")):
        if not (1 <= node <= n):
            raise ValidationError(f"{name}: node index {node} out of range [1, {n}]")

    sim = SimSettings(
        dt=float(sim_data.get("dt", SimSettings.dt)),
        t_end=float(sim_data.get("t_end", SimSettings.t_end)),
        method=sim_data.get("method", SimSettings.method),
    )
    tol = ToleranceOverrides(
        rank=None if tol_data.get("rank") is None else float(tol_data["rank"]),
        subspace=None if tol_data.get("subspace") is None else float(tol_data["subspace"]),
    )

    framework = Framework(n=n, d=d, edges=tuple(edges), positions=positions.ravel())
    return Scenario(
        framework=framework,
        actuator=actuator - 1,
        sensor=sensor - 1,
        w0=np.asarray(data["w0"], dtype=float),
        impulse=float(data.get("impulse", 1.0)),
        sim=sim,
        tol=tol,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical file representation of a scenario (1-based node indices)."""
    fw = scenario.framework
    tol = {}
    if scenario.tol.rank is not None:
        tol["rank"] = scenario.tol.rank
    if scenario.tol.subspace is not None:
        tol["subspace"] = scenario.tol.subspace
    return {
        "n": fw.n,
        "d": fw.d,
        "edges": [[i + 1, j + 1] for i, j in fw.edges],
        "positions": [list(row) for row in fw.points],
        "actuator": scenario.actuator + 1,
        "sensor": scenario.sensor + 1,
        "w0": list(scenario.w0),
        "impulse": scenario.impulse,
        "sim": {
            "dt": scenario.sim.dt,
            "t_end": scenario.sim.t_end,
            "method": scenario.sim.method,
        },
        "tol": tol,
    }


def save_scenario(scenario: Scenario, path) -> None:
    dump_json(scenario_to_dict(scenario), path)


def block(v, node: int, d: int) -> np.ndarray:
    """Entries of agent ``node`` inside a stacked vector of d-blocks."""
    vec = np.asarray(v, dtype=float).ravel()
    if d < 1 or vec.size % d != 0:
        raise ValidationError(f"block: vector of length {vec.size} is not a stack of {d}-blocks")
    n = vec.size // d
    if not (0 <= node < n):
        raise IndexError(f"block: node index {node} out of range for n={n}")
    return vec[node * d : (node + 1) * d]
