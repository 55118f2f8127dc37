"""Framework and scenario model: canonicalization, validation, file I/O."""

import numpy as np
import pytest

import rigidkit as rk
from rigidkit.jsonio import dumps_json

from conftest import triangle, triangle_scenario_dict, write_scenario


def test_edges_canonicalized_sorted():
    fw = rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(1, 0), (2, 1), (0, 2)]
    )
    assert fw.edges == ((0, 1), (0, 2), (1, 2))


def test_scenario_file_edges_canonicalized(tmp_path):
    data = triangle_scenario_dict(edges=[[2, 1], [1, 3], [3, 2]])
    sc = rk.load_scenario(write_scenario(tmp_path / "s.json", data))
    assert sc.framework.edges == ((0, 1), (0, 2), (1, 2))


def test_self_loop_rejected(tmp_path):
    data = triangle_scenario_dict(edges=[[1, 1], [1, 3], [2, 3]])
    with pytest.raises(rk.ValidationError, match="self-loop"):
        rk.load_scenario(write_scenario(tmp_path / "s.json", data))


def test_duplicate_edge_rejected():
    with pytest.raises(rk.ValidationError, match="duplicate"):
        rk.Framework.from_points(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1), (1, 0), (1, 2)]
        )


def test_positions_length_mismatch(tmp_path):
    data = triangle_scenario_dict(n=4, edges=[[1, 2]], positions=[[0, 0], [1, 0], [1, 1], [0]])
    data["actuator"] = 1
    data["sensor"] = 2
    with pytest.raises(rk.ValidationError, match="positions length"):
        rk.load_scenario(write_scenario(tmp_path / "s.json", data))
    with pytest.raises(rk.ValidationError, match="positions length"):
        rk.Framework(n=4, d=2, edges=((0, 1),), positions=np.zeros(7))


def test_zero_length_edge_rejected():
    with pytest.raises(rk.ValidationError, match="zero-length"):
        rk.Framework.from_points([[0.0, 0.0], [0.0, 0.0]], [(0, 1)])


def test_edge_index_out_of_range():
    with pytest.raises(rk.ValidationError, match="out of range"):
        rk.Framework.from_points([[0.0, 0.0], [1.0, 0.0]], [(0, 2)])


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(rk.ScenarioParseError):
        rk.load_scenario(path)


def test_missing_key_is_parse_error(tmp_path):
    data = triangle_scenario_dict()
    del data["w0"]
    with pytest.raises(rk.ScenarioParseError, match="w0"):
        rk.load_scenario(write_scenario(tmp_path / "s.json", data))


def test_scenario_node_indices_are_converted(tmp_path):
    sc = rk.load_scenario(write_scenario(tmp_path / "s.json", triangle_scenario_dict()))
    assert sc.actuator == 0 and sc.sensor == 1  # 1-based in the file


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"actuator": 5}, "actuator"),
        ({"sensor": 0}, "sensor"),
        ({"impulse": -1.0}, "impulse"),
        ({"sim": {"dt": 0.0, "t_end": 1.0, "method": "rk4"}}, "sim.dt"),
        ({"sim": {"dt": 0.1, "t_end": -1.0, "method": "rk4"}}, "sim.t_end"),
        ({"sim": {"dt": 0.1, "t_end": 1.0, "method": "leapfrog"}}, "sim.method"),
        ({"w0": [1.0, 0.0, 0.0]}, "w0"),
    ],
)
def test_scenario_invariants_name_the_field(tmp_path, overrides, field):
    data = triangle_scenario_dict(**overrides)
    with pytest.raises(rk.ValidationError, match=field.split(".")[-1]):
        rk.load_scenario(write_scenario(tmp_path / "s.json", data))


@pytest.mark.parametrize("t_end", [float("inf"), 1e300])
def test_sim_step_count_is_bounded(t_end):
    """Rejected before anything is allocated: no sample times beyond 2**53 steps."""
    with pytest.raises(rk.ValidationError, match="t_end"):
        rk.SimSettings(dt=1e-3, t_end=t_end)


def test_roundtrip_serialization_idempotent(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    write_scenario(tmp_path / "orig.json", triangle_scenario_dict(edges=[[2, 1], [1, 3], [3, 2]]))
    sc = rk.load_scenario(tmp_path / "orig.json")
    rk.save_scenario(sc, first)
    sc2 = rk.load_scenario(first)
    rk.save_scenario(sc2, second)
    assert first.read_bytes() == second.read_bytes()


def test_tolerance_overrides_roundtrip(tmp_path):
    data = triangle_scenario_dict(tol={"rank": 1e-9, "subspace": 1e-7})
    sc = rk.load_scenario(write_scenario(tmp_path / "s.json", data))
    assert sc.tol.rank == 1e-9 and sc.tol.subspace == 1e-7
    echo = rk.scenario_to_dict(sc)
    assert echo["tol"] == {"rank": 1e-9, "subspace": 1e-7}


def edge_vector(fw, k):
    """Relative position p_i - p_j of edge k, from its canonical endpoints."""
    i, j = fw.edge_ends[k]
    return fw.points[i] - fw.points[j]


def test_edge_vector_examples():
    fw = triangle()
    assert np.array_equal(edge_vector(fw, 0), [-1.0, 0.0])  # p1 - p2
    assert np.array_equal(edge_vector(fw, 1), [0.0, -1.0])  # p1 - p3
    with pytest.raises(IndexError):
        edge_vector(fw, fw.m)


def test_block_examples():
    assert np.array_equal(rk.block([1.0, 2.0, 3.0, 4.0], 1, 2), [3.0, 4.0])
    assert np.array_equal(rk.block(np.zeros(6), 0, 2), [0.0, 0.0])
    with pytest.raises(IndexError):
        rk.block([1.0, 2.0, 3.0, 4.0], 3, 2)
    with pytest.raises(rk.ValidationError):
        rk.block([1.0, 2.0, 3.0], 0, 2)


def test_edge_vector_matches_blocks():
    fw = triangle()
    for k, (i, j) in enumerate(fw.edges):
        expected = rk.block(fw.positions, i, fw.d) - rk.block(fw.positions, j, fw.d)
        assert np.array_equal(edge_vector(fw, k), expected)


def test_neighbors_and_completeness():
    fw = triangle()
    assert fw.neighbors(0) == (1, 2)
    assert fw.is_complete()
    assert not rk.Framework.from_points(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [(0, 1)]
    ).is_complete()


def test_framework_immutable():
    fw = triangle()
    with pytest.raises(ValueError):
        fw.positions[0] = 5.0


def test_content_hash_tracks_content():
    fw = triangle()
    other = rk.Framework.from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.1]], fw.edges)
    assert fw.content_hash() == triangle().content_hash()
    assert fw.content_hash() != other.content_hash()


def test_scenario_defaults(tmp_path):
    data = triangle_scenario_dict()
    del data["sim"]
    sc = rk.load_scenario(write_scenario(tmp_path / "s.json", data))
    assert sc.sim.dt == 1e-3 and sc.sim.t_end == 50.0 and sc.sim.method == "rk4"
    assert sc.impulse == 1.0
    assert sc.tol.rank is None and sc.tol.subspace is None


def test_json_float_formatting_roundtrips():
    payload = {"a": 0.1 + 0.2, "b": [1.0, 1e-17]}
    text = dumps_json(payload)
    import json

    again = json.loads(text)
    assert again["a"] == 0.1 + 0.2
    assert again["b"][1] == 1e-17
