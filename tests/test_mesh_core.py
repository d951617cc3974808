import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrecon.errors import MeshError, NonManifoldError
from fluxrecon.fixtures import box_mesh
from fluxrecon.mesh_core import (
    SerialMesh,
    build_dual_graph,
    build_face_list,
    corner_orientation,
    face_keys,
    match_local_faces,
    orientation_permutation,
)
from fluxrecon.operators import build_reference_element, compute_geometry
from fluxrecon.physics import GasModel
from fluxrecon.pipeline import SolverOptions, SolverRank
from fluxrecon.prep import prepare_shards

from oracles import brute_force_match, internal_keys, twisted_hex_box


def hex_cells(*rows):
    return np.array(rows or [range(8)], dtype=np.int64)


def face_key(cells, lf):
    """Key of local face ``lf`` of the first cell, from the face table."""
    faces = build_face_list(cells)
    L = (faces.shape[1] - 2) // 2
    row = faces[(faces[:, 0] == 0) & (faces[:, 1] == lf)][0]
    return tuple(row[2 + L:].tolist())


def test_canonical_face_key_hex_bottom_sorts():
    assert face_key(hex_cells(), 0) == (0, 1, 2, 3)


def test_canonical_face_key_quad_edge():
    # local edge 1 runs between the 2nd and 3rd vertices
    assert face_key(np.array([[9, 4, 7, 2]]), 1) == (4, 7)


def test_canonical_face_key_sorts_arbitrary_ids():
    assert face_key(hex_cells((12, 5, 33, 8, 40, 41, 42, 43)), 0) == (5, 8, 12, 33)
    alias = np.arange(50)
    alias[33] = 1
    assert tuple(face_keys(np.array([12, 5, 33, 8]), alias).tolist()) == (1, 5, 8, 12)


def test_invalid_local_face_rejected():
    gas = GasModel(gamma=1.4, R=1.0)
    for mesh, bad in ((box_mesh(2, 1, 1), 6), (box_mesh(2, 1), 4)):
        shard = prepare_shards(mesh, np.zeros(2, np.int64), 1)[0]
        shard.internal_rows = shard.internal_rows.copy()
        shard.internal_rows[0, 1] = bad
        with pytest.raises(MeshError, match="local faces"):
            SolverRank(shard, gas, SolverOptions(p=1))


def test_cell_validation():
    verts = np.zeros((8, 3))
    with pytest.raises(MeshError):
        SerialMesh(3, verts, np.array([[0, 1, 2, 3]]))
    with pytest.raises(MeshError, match="repeated vertex ids"):
        SerialMesh(2, verts[:, :2], np.array([[0, 1, 1, 2]]))
    with pytest.raises(MeshError):
        SerialMesh(4, np.zeros((16, 4)), np.array([range(16)]))
    with pytest.raises(MeshError):
        build_face_list(np.array([[0, 1, 2]]))


def test_single_hex_face_list():
    faces = build_face_list(hex_cells())
    assert len(faces) == 6
    internal, uncoupled = match_local_faces(faces)
    assert len(internal) == 0 and len(uncoupled) == 6


def test_two_hexes_share_one_face():
    cells = hex_cells((0, 1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8, 9, 10, 11))
    faces = build_face_list(cells)
    assert len(faces) == 12
    keys = [tuple(k) for k in faces[:, 6:].tolist()]
    # the shared top/bottom key appears as an adjacent duplicate pair
    shared = tuple(sorted((4, 5, 6, 7)))
    idx = keys.index(shared)
    assert keys[idx + 1] == shared
    internal, uncoupled = match_local_faces(faces)
    assert len(internal) == 1 and len(uncoupled) == 10
    assert tuple(internal[0, :2]) == (0, 1) and tuple(internal[0, 2:4]) == (1, 0)


def test_box_4x4x4_counts():
    mesh = box_mesh(4, 4, 4)
    faces = build_face_list(mesh.cells)
    assert len({tuple(k) for k in faces[:, 6:].tolist()}) == 240
    internal, uncoupled = match_local_faces(faces)
    assert len(internal) == 144
    assert len(uncoupled) == 96
    assert 2 * len(internal) + len(uncoupled) == 6 * mesh.num_cells


def test_match_equals_brute_force_oracle():
    for mesh in (box_mesh(3, 4, 2), box_mesh(5, 3),
                 box_mesh(3, 3, 3, periodic=(True, False, True))):
        L = 2 ** (mesh.dim - 1)
        faces = build_face_list(mesh.cells, mesh.vertex_alias)
        internal, uncoupled = match_local_faces(faces, mesh.vertex_alias)
        ref_internal, ref_uncoupled = brute_force_match(mesh.cells, mesh.vertex_alias)
        assert internal_keys(internal, mesh.vertex_alias) == {k for k, _ in ref_internal}
        assert {tuple(f[2 + L:]) for f in uncoupled.tolist()} == {k for k, _ in ref_uncoupled}
        keys = face_keys(internal[:, 5:5 + L], mesh.vertex_alias).tolist()
        got_pairs = {tuple(k): tuple(sorted((tuple(f[:2]), tuple(f[2:4]))))
                     for k, f in zip(keys, internal.tolist())}
        for key, owners in ref_internal:
            assert got_pairs[key] == owners


def test_non_manifold_detected():
    cells = hex_cells(
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 8, 9, 10, 11),
        (0, 1, 2, 3, 12, 13, 14, 15),
    )
    faces = build_face_list(cells)
    with pytest.raises(NonManifoldError, match=r"\(0, 1, 2, 3\) owned by 3 cells: "
                                               r"\[\(0, 0\), \(1, 0\), \(2, 0\)\]"):
        match_local_faces(faces)


def test_determinism_byte_for_byte():
    mesh = box_mesh(3, 3, 3, perturb=0.2, seed=5)
    a = build_face_list(mesh.cells)
    b = build_face_list(mesh.cells)
    assert a.tobytes() == b.tobytes()
    ia, ua = match_local_faces(a)
    ib, ub = match_local_faces(b)
    assert ia.tobytes() == ib.tobytes() and ua.tobytes() == ub.tobytes()


def test_face_order_is_key_then_owner():
    """Rows sort by key, ties by (gid, local face), as a Python sort of
    (key, (gid, lf)) tuples would order them."""
    mesh = box_mesh(3, 3, 2, periodic=(True, True, False), perturb=0.1, seed=2)
    faces = build_face_list(mesh.cells, mesh.vertex_alias)
    rows = [(tuple(f[6:]), tuple(f[:2])) for f in faces.tolist()]
    assert rows == sorted(rows)


def test_dual_graph_two_hexes():
    cells = hex_cells((0, 1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8, 9, 10, 11))
    internal, _ = match_local_faces(build_face_list(cells))
    g = build_dual_graph(cells, internal)
    assert g.adjacency == {0: [1], 1: [0]}
    assert g.weights == {0: 1, 1: 1}


def test_dual_graph_chain_p4():
    mesh = box_mesh(4, 1, 1)
    internal, _ = match_local_faces(build_face_list(mesh.cells))
    g = build_dual_graph(mesh.cells, internal)
    assert g.adjacency == {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}


def test_dual_graph_box_lattice():
    mesh = box_mesh(4, 4, 4)
    internal, _ = match_local_faces(build_face_list(mesh.cells))
    g = build_dual_graph(mesh.cells, internal)
    assert g.num_edges() == 144
    for c, neigh in g.adjacency.items():
        for nb in neigh:
            assert c in g.adjacency[nb]
            assert nb != c


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_face_census_roundtrip(nx, ny, nz):
    mesh = box_mesh(nx, ny, nz)
    internal, uncoupled = match_local_faces(build_face_list(mesh.cells))
    assert 2 * len(internal) + len(uncoupled) == 6 * mesh.num_cells


@pytest.mark.parametrize("dim,kind,p", [(3, "hex", 2), (3, "hex", 3), (2, "quad", 3)])
def test_orientation_linear_field_continuity(dim, kind, p):
    if dim == 3:
        mesh = box_mesh(3, 3, 3, perturb=0.3, seed=1)
    else:
        mesh = box_mesh(4, 3, perturb=0.3, seed=2)
    ref = build_reference_element(kind, p)
    internal, _ = match_local_faces(build_face_list(mesh.cells))
    coef = np.arange(1, dim + 1, dtype=float)
    g = compute_geometry(mesh.vertices[mesh.cells], ref, np.arange(mesh.num_cells))

    def side_vals(gid, lf):
        vals = ref.interp_to_faces @ (g.coords_upts[gid] @ coef)
        return vals[ref.face_slice(lf)]

    for f in internal.tolist():
        vl = side_vals(*f[:2])
        vr = side_vals(*f[2:4])
        perm = orientation_permutation(dim, f[4], ref.points_1d)
        rel = np.abs(vl - vr[perm]).max() / max(np.abs(vl).max(), 1)
        assert rel < 1e-12


def test_orientation_involution():
    # the permutation of B relative to A inverts the one of A relative to B
    base = (10, 11, 12, 13)
    pts = build_reference_element("hex", 3).points_1d
    for k in range(4):
        for flip in (1, -1):
            other = tuple(base[(k + flip * m) % 4] for m in range(4))
            o_ab = corner_orientation(base, other)
            o_ba = corner_orientation(other, base)
            p_ab = orientation_permutation(3, o_ab, pts)
            p_ba = orientation_permutation(3, o_ba, pts)
            assert np.array_equal(p_ab[p_ba], np.arange(pts.size ** 2))


def test_corner_orientation_rejects_mismatched():
    with pytest.raises(MeshError):
        corner_orientation((0, 1, 2, 3), (0, 1, 2, 9))
    with pytest.raises(MeshError):
        corner_orientation((0, 1, 2, 3), (0, 2, 1, 3))


def _scalar_orientation(left, right):
    """The orientation code by its definition, one face at a time."""
    if len(left) == 2:
        return 0 if tuple(right) == tuple(left) else 1
    for code in range(8):
        k, s = code // 2, 1 if code % 2 == 0 else -1
        if all(right[m] == left[(k + s * m) % 4] for m in range(4)):
            return code
    raise AssertionError("no code")


def test_array_orientation_codes_match_scalar():
    """All 8 rotations and flips of a hex face and both edge directions,
    as one table and one row at a time."""
    base = (10, 11, 12, 13)
    rights = [tuple(base[(k + s * m) % 4] for m in range(4))
              for k in range(4) for s in (1, -1)]
    codes = corner_orientation(np.array([base] * 8), np.array(rights))
    assert codes.tolist() == list(range(8))
    for right, code in zip(rights, codes.tolist()):
        assert corner_orientation(base, right) == code == _scalar_orientation(base, right)
    edges = corner_orientation(np.array([(3, 7), (3, 7)]), np.array([(3, 7), (7, 3)]))
    assert edges.tolist() == [0, 1]
    assert [corner_orientation((3, 7), r) for r in ((3, 7), (7, 3))] == [0, 1]


def test_array_orientation_of_matched_faces_match_scalar():
    """Internal faces of a twisted periodic box of renumbered hexes."""
    mesh = twisted_hex_box(lambda gid: (7 * gid + 2) % 24)
    internal, _ = match_local_faces(build_face_list(mesh.cells, mesh.vertex_alias),
                                    mesh.vertex_alias)
    alias = mesh.vertex_alias
    want = [_scalar_orientation(alias[f[5:9]].tolist(), alias[f[9:13]].tolist())
            for f in internal]
    assert internal[:, 4].tolist() == want
    assert len(set(want)) == 8


def test_incompatible_corner_cycles_rejected_in_tables():
    left = np.array([(0, 1, 2, 3), (0, 1, 2, 3)])
    right = np.array([(1, 2, 3, 0), (0, 2, 1, 3)])
    with pytest.raises(MeshError, match="corner cycles incompatible"):
        corner_orientation(left, right)
