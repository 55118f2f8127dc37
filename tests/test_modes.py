"""Hidden-mode geometry: pinning analysis, rotation subspaces, reports."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import rigidkit as rk
from rigidkit.cli import EXIT_OK, main
from rigidkit.modes import _uncontrollable_parts

from conftest import (
    complete_k4,
    four_cycle,
    lattice_scenario_dict,
    no_edges,
    random_rigid_framework,
    square_with_diagonal,
    system_of,
    triangle,
    write_scenario,
)

DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def krylov_hidden(A, B):
    """Independent oracle: nullspace of the transposed Krylov matrix
    [B, AB, ..., A^(nd-1) B], with per-power column normalization to keep
    the scales sane. (A, B) gives the uncontrollable subspace and, A being
    symmetric, (A, C^T) the unobservable one."""
    blocks = []
    power = B.copy()
    for _ in range(A.shape[0]):
        blocks.append(power / max(np.linalg.norm(power), 1e-300))
        power = A @ power
    return rk.nullspace(np.hstack(blocks).T)


def local_rotation_constraints(fw, node):
    """Independent oracle: stacked constraint matrix whose nullspace is the
    local rotation subspace, d rows pinning the node plus one row per
    incident edge."""
    n, d = fw.n, fw.d
    pts = fw.points
    rows = [np.zeros(n * d) for _ in range(d)]
    for a in range(d):
        rows[a][node * d + a] = 1.0
    for k in fw.neighbors(node):
        row = np.zeros(n * d)
        row[k * d : (k + 1) * d] = pts[k] - pts[node]
        rows.append(row)
    return np.vstack(rows)


def test_linearize_two_node_example():
    fw = rk.Framework.from_points([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    sys = rk.linearize(fw, 0, 1)
    expected = np.array(
        [
            [-4.0, 0.0, 4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [4.0, 0.0, -4.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.array_equal(sys.A, expected)


def test_linearize_selectors_and_symmetry():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    assert np.array_equal(sys.A, sys.A.T)
    v = np.zeros(8)
    v[:2] = [1.0, 2.0]
    assert np.array_equal(sys.B.T @ v, [1.0, 2.0])
    v2 = np.zeros(8)
    v2[4:6] = [3.0, 4.0]
    assert np.array_equal(sys.C @ v2, [3.0, 4.0])
    with pytest.raises(rk.ValidationError):
        rk.linearize(fw, 9, 0)


def test_stiffness_kernel_contains_rigid_motions():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 2)
    rbm = rk.rbm_basis(fw)
    assert np.abs(sys.A @ rbm.matrix).max() < 1e-12 * np.abs(sys.A).max()


def test_stiffness_kernel_matches_flex_space():
    for fw in [triangle(), square_with_diagonal(), four_cycle()]:
        sys = rk.linearize(fw, 0, 0)
        lam = np.linalg.eigvalsh(sys.A)
        zero_dim = int(np.sum(np.abs(lam) <= 1e-10 * max(1.0, np.abs(lam).max())))
        assert zero_dim == rk.flex_space(rk.rigidity_matrix(fw)).dim
        assert lam.max() <= 1e-10 * max(1.0, abs(lam.min()))  # negative semidefinite


def test_eigenvalue_grouping_square():
    fw = square_with_diagonal()
    groups = rk.linearize(fw, 0, 2).eigen_groups
    assert [basis.shape[1] for _, basis in groups] == [1, 3, 1, 3]


def test_zero_group_follows_rigidity_rank():
    """On an ill-conditioned rigid lattice the three slowest deformation
    eigenvalues lie within the grouping gap of zero; the zero group must
    still hold exactly the nd - rank(R) rigid-body modes, and the split and
    the rotation characterization must agree on one hidden rotation."""
    fw = random_rigid_framework(np.random.default_rng(0), 60, 2, ratio=0.0)
    sys = rk.linearize(fw, 0, 30)
    assert rk.rigidity_rank(sys.rigidity) == 2 * fw.n - 3
    assert sys.eigen_groups[-1][1].shape[1] == 3
    checks = rk.hidden_mode_checks(sys)
    split = checks["uncontrollable_split"]
    assert split["rbm_component_dim"] == 1
    assert split["direct_sum_holds"]
    assert checks["rotation_characterization"]["uncontrollable_rbm_dim"] == 1
    assert checks["rotation_characterization"]["matches"]
    assert checks["existence_bound"]["holds"]


def test_uncontrollable_triangle_is_rotation_about_actuator():
    fw = triangle()
    sys = rk.linearize(fw, 0, 1)
    u = sys.uncontrollable
    assert u.dim == 1
    rot = rk.global_rotation_subspace(fw, 0)
    assert rk.principal_angles(u, rot).max() < 1e-8


def test_uncontrollable_matches_krylov_oracle():
    rng = np.random.default_rng(41)
    frameworks = [triangle(), square_with_diagonal()]
    frameworks += [random_rigid_framework(rng, n, 2) for n in range(4, 9) for _ in range(2)]
    for fw in frameworks:
        for node in range(fw.n):
            sensor = (node + 1) % fw.n
            sys = rk.linearize(fw, node, sensor)
            for hidden, oracle in [
                (sys.uncontrollable, krylov_hidden(sys.A, sys.B)),
                (sys.unobservable, krylov_hidden(sys.A, sys.C.T)),
            ]:
                assert hidden.dim == oracle.dim
                if hidden.dim:
                    assert rk.principal_angles(hidden, oracle).max() < 1e-7


def test_uncontrollable_no_edges():
    fw = no_edges(3)
    sys = rk.linearize(fw, 0, 1)
    u = sys.uncontrollable
    assert u.dim == fw.d * (fw.n - 1)
    for col in u.basis.T:
        assert np.linalg.norm(rk.block(col, 0, fw.d)) <= 1e-8


def test_pinning_soundness():
    rng = np.random.default_rng(77)
    for _ in range(10):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        node = int(rng.integers(fw.n))
        sys = rk.linearize(fw, node, node)
        u = sys.uncontrollable
        for col in u.basis.T:
            assert np.linalg.norm(rk.block(col, node, 2)) <= 1e-8


def test_unobservable_duality():
    fw = square_with_diagonal()
    sys = rk.linearize(fw, 0, 3)
    unobs = sys.unobservable
    swapped = rk.linearize(fw, 3, 0).uncontrollable
    assert unobs.dim == swapped.dim
    assert rk.principal_angles(unobs, swapped).max() < 1e-10


def test_unobservable_isolated_sensor():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
    fw = rk.Framework.from_points(pts, [(0, 1), (0, 2), (1, 2)])  # node 3 isolated
    sys = rk.linearize(fw, 0, 3)
    unobs = sys.unobservable
    pinned = rk.orthonormalize(np.eye(8)[:, :6])  # everything supported off node 3
    assert unobs.dim == 6
    assert rk.contains(unobs, pinned) and rk.contains(pinned, unobs)


def test_global_rotation_subspace_triangle():
    fw = triangle()
    rot = rk.global_rotation_subspace(fw, 0)
    assert rot.dim == 1
    direction = np.array([0.0, 0.0, 0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert abs(abs(direction @ rot.basis[:, 0]) - 1.0) < 1e-12


def test_global_rotation_zero_block_at_center_node():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        fw = random_rigid_framework(rng, 5, d)
        rot = rk.global_rotation_subspace(fw, 2)
        assert rot.dim == d * (d - 1) // 2
        for col in rot.basis.T:
            assert np.linalg.norm(rk.block(col, 2, d)) < 1e-14


def test_local_rotation_subspace_dimensions():
    fw = triangle()
    t = rk.local_rotation_subspace(fw, 0)
    assert t.dim == 2  # d (n-1) - deg = 4 - 2
    sq = square_with_diagonal()
    assert rk.local_rotation_subspace(sq, 1).dim == 4  # 2*3 - 2


def test_local_rotation_matches_constraint_nullspace(assorted_frameworks):
    rng = np.random.default_rng(99)
    for fw in assorted_frameworks:
        node = int(rng.integers(fw.n))
        t = rk.local_rotation_subspace(fw, node)
        oracle = rk.nullspace(local_rotation_constraints(fw, node))
        assert t.dim == oracle.dim
        if t.dim:
            assert rk.principal_angles(t, oracle).max() < 1e-10
        deg = len(fw.neighbors(node))
        assert t.dim == fw.d * (fw.n - 1) - deg  # generic positions


def test_elementary_rotation_triangle():
    fw = triangle()
    tau = rk.elementary_rotations(fw, 0, 1)[:, 0]
    expected = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    assert np.allclose(tau / np.linalg.norm(tau), expected)


def test_local_rotation_blocks_orthogonal_to_edges():
    fw = square_with_diagonal()
    node = 0
    t = rk.local_rotation_subspace(fw, node)
    for nbr in fw.neighbors(node):
        edge = fw.points[nbr] - fw.points[node]
        for col in t.basis.T:
            assert abs(edge @ rk.block(col, nbr, 2)) < 1e-12


def test_rbm_deformation_split_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    rep = rk.hidden_mode_checks(sys)["uncontrollable_split"]
    assert rep["direct_sum_holds"]
    assert (rep["rbm_component_dim"], rep["deformation_component_dim"]) == (1, 0)
    assert rep["uncontrollable_dim"] == 1
    # the plain set intersection mixes eigenspaces and is strictly larger here
    assert rep["ambient_deformation_intersection_dim"] == 1


def test_rbm_deformation_split_flexible_cycle():
    sys = rk.linearize(four_cycle(), 0, 2)
    rep = rk.hidden_mode_checks(sys)["uncontrollable_split"]
    assert rep["direct_sum_holds"]
    assert rep["rbm_component_dim"] + rep["deformation_component_dim"] == rep["uncontrollable_dim"]
    assert rep["rbm_component_dim"] > 1  # flex component beyond the pure rotation


def test_rbm_deformation_split_random():
    rng = np.random.default_rng(31)
    for _ in range(10):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        sys = rk.linearize(fw, int(rng.integers(fw.n)), 0)
        rep = rk.hidden_mode_checks(sys)["uncontrollable_split"]
        assert rep["direct_sum_holds"]
        assert (
            rep["rbm_component_dim"] + rep["deformation_component_dim"]
            == rep["uncontrollable_dim"]
        )


def test_local_rotation_report_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    rep = rk.hidden_mode_checks(sys)["uncontrollable_vs_local_rotation"]
    assert rep["uncontrollable_dim"] == 1 and rep["local_rotation_dim"] == 2
    assert rep["local_contains_uncontrollable"]
    assert not rep["uncontrollable_contains_local"]
    assert not rep["equal"]


def test_rotation_inclusion_everywhere():
    rng = np.random.default_rng(17)
    frameworks = [triangle(), square_with_diagonal(), complete_k4(), four_cycle(), no_edges()]
    frameworks += [random_rigid_framework(rng, int(rng.integers(4, 8)), 2) for _ in range(10)]
    for fw in frameworks:
        node = int(rng.integers(fw.n))
        t = rk.local_rotation_subspace(fw, node)
        rot = rk.global_rotation_subspace(fw, node)
        assert rk.contains(t, rot)


def test_specialization_report_triangle():
    rep = rk.hidden_mode_checks(rk.linearize(triangle(), 0, 0))["specializations"]
    assert rep["rigid"]["applicable"]
    assert rep["rigid"]["components_orthogonal"]
    assert rep["complete_graph"]["applicable"]  # K3 is complete
    assert rep["complete_graph"]["global_rotation_dim"] == 1
    assert rep["complete_graph"]["local_rotation_dim"] == 2


def test_specialization_report_gating():
    rep = rk.hidden_mode_checks(rk.linearize(square_with_diagonal(), 0, 0))["specializations"]
    assert not rep["complete_graph"]["applicable"]
    assert "complete" in rep["complete_graph"]["reason"]
    flex = rk.hidden_mode_checks(rk.linearize(four_cycle(), 0, 0))["specializations"]
    assert not flex["rigid"]["applicable"]


def test_classify_modes_triangle():
    sys = rk.linearize(triangle(), 0, 1)
    report = rk.classify_modes(sys)
    assert report["state_dim"] == 6
    assert sum(report["four_way"].values()) == 6
    assert report["four_way"] == {
        "controllable_observable": 4,
        "uncontrollable_observable": 1,
        "controllable_unobservable": 1,
        "uncontrollable_unobservable": 0,
    }
    # the rotation about the actuator is uncontrollable yet visible at the
    # sensor: it must land in the uncontrollable-but-observable part, which
    # the ambient reference builds as a subspace
    rot = rk.global_rotation_subspace(sys.framework, 0)
    zero_group = ambient_four_way(sys)[-1]
    assert rk.contains(zero_group["uncontrollable_observable"], rot)


def test_classify_modes_same_node():
    sys = rk.linearize(square_with_diagonal(), 0, 0)
    report = rk.classify_modes(sys)
    assert report["four_way"]["uncontrollable_observable"] == 0
    assert report["four_way"]["controllable_unobservable"] == 0
    unctrl = sys.uncontrollable
    unobs = sys.unobservable
    assert rk.contains(unctrl, unobs) and rk.contains(unobs, unctrl)
    assert report["four_way"]["uncontrollable_unobservable"] == unctrl.dim


def test_classify_modes_dimensions_tile_random():
    rng = np.random.default_rng(23)
    for _ in range(8):
        fw = random_rigid_framework(rng, int(rng.integers(4, 8)), 2)
        i, j = rng.integers(fw.n, size=2)
        report = rk.classify_modes(rk.linearize(fw, int(i), int(j)))
        assert sum(report["four_way"].values()) == fw.n * fw.d


def test_mode_report_serializable():
    payload = rk.classify_modes(rk.linearize(triangle(), 0, 1))
    assert payload["actuator"] == 1 and payload["sensor"] == 2  # 1-based exterior
    assert sum(payload["four_way"].values()) == 6
    from rigidkit.jsonio import dumps_json

    assert "eigenvalues" in payload and dumps_json(payload)


def far_agent_square() -> dict:
    """The demo square with agent 3 far out at (323, 1): max |lambda| is
    about 1.7e6, so the slowest deformation lies close to ker R."""
    data = json.loads((DEMO_SCENARIOS / "square_diagonal.json").read_text(encoding="utf-8"))
    data["positions"][2] = [323.0, 1.0]
    return data


def test_ill_conditioned_square_completes(tmp_path):
    """With agent 3 far out at (323, 1), max |lambda| is about 1.7e6. An
    ``eigh`` of the formed A would leak about 1e-6 of ker R into the slowest
    deformation; the eigenvectors read off the SVD of R keep the two apart,
    and the analysis completes."""
    path = write_scenario(tmp_path / "far.json", far_agent_square())
    assert main(["modes", path, "--out", str(tmp_path / "run")]) == EXIT_OK
    scenario = rk.load_scenario(path)
    fw, sys = scenario.framework, system_of(scenario)
    assert sum(rk.classify_modes(sys)["four_way"].values()) == fw.n * fw.d == 8
    rot = rk.global_rotation_subspace(fw, sys.actuator)
    assert sys.uncontrollable.dim == rot.dim
    assert rk.principal_angles(sys.uncontrollable, rot).max() < 1e-8
    swapped = rk.linearize(fw, sys.sensor, sys.actuator, scenario.tol).uncontrollable
    assert sys.unobservable.dim == swapped.dim
    assert rk.principal_angles(sys.unobservable, swapped).max() < 1e-10


def test_hidden_mode_checks_complete_on_examples():
    for fw in [triangle(), complete_k4(), square_with_diagonal(), four_cycle()]:
        sys = rk.linearize(fw, 0, min(1, fw.n - 1))
        checks = rk.hidden_mode_checks(sys)
        assert checks["rotation_inclusion"]["holds"]
        assert checks["uncontrollable_split"]["direct_sum_holds"]
        if checks["classification"] != rk.FLEXIBLE:
            assert checks["existence_bound"]["holds"]
            assert checks["rotation_characterization"]["matches"]


# ------------------------------------------- node-block forms vs intersections


def intersection_verdicts(sys) -> dict:
    """The verdicts that the node-block forms replaced, made as before from
    ambient intersections: the deformation space with every vector pinned
    at the actuator, and the local rotation subspace with the deformation
    space. Kept as their oracle."""
    fw, tol, node = sys.framework, sys.rigidity.subspace_tol, sys.actuator
    deform = rk.deformation_space(sys.rigidity)
    pinned = np.delete(np.eye(sys.dim), slice(node * fw.d, (node + 1) * fw.d), axis=1)
    verdicts = {"ambient_deformation_intersection_dim": rk.intersect(deform, rk.Subspace(pinned, tol)).dim}
    if rk.classify_rigidity(sys.rigidity) != rk.FLEXIBLE:
        r_g = rk.global_rotation_subspace(fw, node, tol)
        t_def = rk.intersect(rk.local_rotation_subspace(fw, node, tol), deform)
        overlap = 0.0
        if r_g.dim and t_def.dim:
            overlap = float(np.linalg.svd(r_g.basis.T @ t_def.basis, compute_uv=False).max())
        verdicts.update(
            local_deformation_dim=t_def.dim,
            components_orthogonal=overlap <= tol,
            decomposition_holds=rk.direct_sum_check(r_g, t_def, sys.uncontrollable),
        )
    return verdicts


def node_block_verdicts(sys) -> dict:
    checks = rk.hidden_mode_checks(sys)
    verdicts = {
        "ambient_deformation_intersection_dim": checks["uncontrollable_split"]["ambient_deformation_intersection_dim"]
    }
    rigid = checks["specializations"]["rigid"]
    if rigid["applicable"]:
        verdicts.update({k: rigid[k] for k in ["local_deformation_dim", "components_orthogonal", "decomposition_holds"]})
    return verdicts


@st.composite
def frameworks_with_node(draw):
    """A random minimally rigid framework in 2-D or 3-D, kept as it is, with
    extra edges (redundant) or with edges removed (flexible), and a node."""
    d = draw(st.sampled_from([2, 2, 3]))
    n = draw(st.integers(d + 1, 8))
    fw = random_rigid_framework(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, d)
    edges = list(fw.edges)
    kind = draw(st.sampled_from(["minimal", "redundant", "flexible"]))
    if kind == "redundant":
        missing = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
        if missing:
            edges += draw(st.lists(st.sampled_from(missing), min_size=1, max_size=3, unique=True))
    elif kind == "flexible":
        drop = draw(st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=3, unique=True))
        edges = [e for k, e in enumerate(edges) if k not in drop]
    event(kind)
    return rk.Framework.from_points(fw.points, edges), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=frameworks_with_node())
def test_node_block_forms_match_intersections(case):
    fw, node = case
    sys = rk.linearize(fw, node, 0)
    assert node_block_verdicts(sys) == intersection_verdicts(sys)


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_node_block_forms_match_intersections_on_demos(name):
    scenario = rk.load_scenario(DEMO_SCENARIOS / f"{name}.json")
    for node in range(scenario.framework.n):
        sys = rk.linearize(scenario.framework, node, scenario.sensor, scenario.tol)
        assert node_block_verdicts(sys) == intersection_verdicts(sys)


def test_node_block_forms_match_intersections_on_lattice(tmp_path):
    scenario = rk.load_scenario(write_scenario(tmp_path / "lattice.json", lattice_scenario_dict()))
    sys = system_of(scenario)
    assert node_block_verdicts(sys) == intersection_verdicts(sys)


# ------------------------------------------ SVD-derived spectrum vs eigh of A


def assert_spectrum_matches_eigh(sys):
    """The eigenpairs of A read off the SVD of R, against ``eigh`` of the
    formed A: eigenvalues within 1e-12 max|lambda|; each group's basis
    orthonormal to 1e-13; and, for a group whose eigenvalues stand more than
    1e-6 max|lambda| from the rest, its orthogonal projector equal to that of
    eigh's columns within the sin-theta bound of Davis & Kahan (1970): both
    decompositions are backward stable, so the two subspaces differ by about
    nd eps max|lambda| over the gap."""
    lam = sys.spectrum[0]
    ref_lam, ref_vec = np.linalg.eigh(sys.A)
    scale = np.abs(ref_lam).max()
    assert np.abs(lam - ref_lam).max() <= 1e-12 * scale
    start = 0
    for _, basis in sys.eigen_groups:
        stop = start + basis.shape[1]
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-13
        gaps = []  # to the neighbouring eigenvalues outside the group
        if start > 0:
            gaps.append(lam[start] - lam[start - 1])
        if stop < lam.size:
            gaps.append(lam[stop] - lam[stop - 1])
        gap = min(gaps, default=np.inf)
        if gap > 1e-6 * scale:
            ref = ref_vec[:, start:stop]
            bound = 4 * lam.size * np.finfo(float).eps * max(1.0, scale / gap)
            assert np.abs(basis @ basis.T - ref @ ref.T).max() <= bound, (start, stop, gap / scale)
        start = stop
    assert start == lam.size


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=frameworks_with_node())
def test_spectrum_matches_eigh(case):
    fw, node = case
    event(f"d={fw.d}")
    assert_spectrum_matches_eigh(rk.linearize(fw, node, 0))


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal", "lattice", "far_agent"])
def test_spectrum_matches_eigh_on_examples(tmp_path, name):
    if name in ("lattice", "far_agent"):
        data = lattice_scenario_dict() if name == "lattice" else far_agent_square()
        path = write_scenario(tmp_path / f"{name}.json", data)
    else:
        path = DEMO_SCENARIOS / f"{name}.json"
    assert_spectrum_matches_eigh(system_of(rk.load_scenario(path)))


# --------------------------------------- coefficient ranks vs ambient subspaces


def _complement_coeffs(sub: np.ndarray, r: int) -> np.ndarray:
    """Orthonormal complement of a coefficient subspace inside R^r."""
    if sub.shape[1] == 0:
        return np.eye(r)
    u, s, _ = np.linalg.svd(sub, full_matrices=True)
    return u[:, int(np.sum(s > 1e-12)):]


def ambient_four_way(sys) -> list[dict]:
    """The four-way split that the coefficient ranks of ``classify_modes``
    replaced, made as before: per eigenvalue group, each part as the ambient
    subspace ``basis @ coeffs``. Kept as their oracle."""
    tol = sys.rigidity.subspace_tol
    groups = []
    for (_, basis), nc, no, nh in zip(
        sys.eigen_groups,
        sys.pinned_coeffs((sys.actuator,)),
        sys.pinned_coeffs((sys.sensor,)),
        sys.pinned_coeffs((sys.actuator, sys.sensor)),
    ):
        r = basis.shape[1]
        both = np.hstack([nc, no]) if (nc.shape[1] or no.shape[1]) else np.zeros((r, 0))
        coeffs = {
            "controllable_observable": _complement_coeffs(rk.orthonormalize(both, ambient_dim=r).basis, r),
            "uncontrollable_observable": nc @ _complement_coeffs(nc.T @ nh, nc.shape[1]) if nc.shape[1] else nc,
            "controllable_unobservable": no @ _complement_coeffs(no.T @ nh, no.shape[1]) if no.shape[1] else no,
            "uncontrollable_unobservable": nh,
        }
        groups.append({name: rk.Subspace(basis @ c, tol) for name, c in coeffs.items()})
    return groups


def assert_four_way_matches_ambient(sys):
    dims = [g["dims"] for g in rk.classify_modes(sys)["eigenvalues"]]
    assert dims == [{name: sub.dim for name, sub in g.items()} for g in ambient_four_way(sys)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=frameworks_with_node())
def test_coefficient_ranks_match_ambient_split(case):
    fw, node = case
    assert_four_way_matches_ambient(rk.linearize(fw, node, 0))


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_coefficient_ranks_match_ambient_split_on_demos(name):
    scenario = rk.load_scenario(DEMO_SCENARIOS / f"{name}.json")
    for node in range(scenario.framework.n):
        assert_four_way_matches_ambient(rk.linearize(scenario.framework, node, scenario.sensor, scenario.tol))


def test_coefficient_ranks_match_ambient_split_on_lattice(tmp_path):
    scenario = rk.load_scenario(write_scenario(tmp_path / "lattice.json", lattice_scenario_dict()))
    assert_four_way_matches_ambient(system_of(scenario))


# ------------------------------- U's column slices vs ambient constructions


def ambient_uncontrollable_parts(sys) -> dict:
    """U and its parts made as before U's column slices replaced them: U
    orthonormalized from the pinned pieces, U ∩ ker R as an ambient
    intersection with the flex space, and the rigid-body and deforming parts
    each orthonormalized from their pieces. Kept as their oracle."""
    tol = sys.rigidity.subspace_tol
    pieces = sys._pinned_pieces(sys.actuator)
    u = rk.orthonormalize(np.hstack(pieces), tol=tol)
    return {
        "u": u,
        "u_cap_ker_r": rk.intersect(u, rk.flex_space(sys.rigidity)),
        "rbm": rk.orthonormalize(pieces[-1], tol=tol, ambient_dim=sys.dim),
        "deforming": rk.orthonormalize([v for p in pieces[:-1] for v in p.T], tol=tol, ambient_dim=sys.dim),
    }


def assert_parts_match_ambient(sys):
    """Each part has the dimension of its reference and the two contain each
    other within ``tol.subspace``; the report's dimensions are those parts'."""
    u_def, u_rbm = _uncontrollable_parts(sys)
    ref = ambient_uncontrollable_parts(sys)
    for new, old in [(sys.uncontrollable, "u"), (u_rbm, "u_cap_ker_r"), (u_rbm, "rbm"), (u_def, "deforming")]:
        assert new.dim == ref[old].dim, old
        assert rk.contains(new, ref[old]) and rk.contains(ref[old], new), old
    checks = rk.hidden_mode_checks(sys)
    split = checks["uncontrollable_split"]
    assert split["uncontrollable_dim"] == split["rbm_component_dim"] + split["deformation_component_dim"]
    assert (split["rbm_component_dim"], split["deformation_component_dim"]) == (u_rbm.dim, u_def.dim)
    assert checks["existence_bound"]["uncontrollable_rbm_dim"] == ref["u_cap_ker_r"].dim


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=frameworks_with_node())
def test_uncontrollable_parts_match_ambient(case):
    fw, node = case
    event(f"d={fw.d}")
    assert_parts_match_ambient(rk.linearize(fw, node, 0))


@pytest.mark.parametrize("name", ["triangle", "four_cycle", "square_diagonal"])
def test_uncontrollable_parts_match_ambient_on_demos(name):
    scenario = rk.load_scenario(DEMO_SCENARIOS / f"{name}.json")
    for node in range(scenario.framework.n):
        assert_parts_match_ambient(rk.linearize(scenario.framework, node, scenario.sensor, scenario.tol))


@pytest.mark.parametrize("name", ["lattice", "far_agent"])
def test_uncontrollable_parts_match_ambient_on_examples(tmp_path, name):
    data = lattice_scenario_dict() if name == "lattice" else far_agent_square()
    path = write_scenario(tmp_path / f"{name}.json", data)
    assert_parts_match_ambient(system_of(rk.load_scenario(path)))
