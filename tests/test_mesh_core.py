import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrecon.errors import MeshError, NonManifoldError
from fluxrecon.fixtures import box_mesh_2d, box_mesh_3d
from fluxrecon.mesh_core import (
    Cell,
    build_dual_graph,
    build_face_list,
    canonical_face_key,
    corner_orientation,
    face_census,
    local_face_corners,
    match_local_faces,
    orientation_permutation,
)
from fluxrecon.operators import build_reference_element, compute_geometry

from oracles import brute_force_match


def hex_cell(cid=0, verts=range(8)):
    return Cell(id=cid, kind="hex", vertex_ids=tuple(verts))


def test_canonical_face_key_hex_bottom_sorts():
    cell = hex_cell()
    assert canonical_face_key(cell, 0) == (0, 1, 2, 3)


def test_canonical_face_key_quad_edge():
    cell = Cell(id=0, kind="quad", vertex_ids=(9, 4, 7, 2))
    # local edge 1 runs between the 2nd and 3rd vertices
    assert canonical_face_key(cell, 1) == (4, 7)


def test_canonical_face_key_sorts_arbitrary_ids():
    cell = hex_cell(verts=(12, 5, 33, 8, 40, 41, 42, 43))
    assert canonical_face_key(cell, 0) == (5, 8, 12, 33)


def test_invalid_local_face_rejected():
    with pytest.raises(MeshError):
        canonical_face_key(hex_cell(), 6)
    with pytest.raises(MeshError):
        local_face_corners(Cell(id=0, kind="quad", vertex_ids=(0, 1, 2, 3)), 4)


def test_cell_validation():
    with pytest.raises(MeshError):
        Cell(id=0, kind="hex", vertex_ids=(0, 1, 2, 3))
    with pytest.raises(MeshError):
        Cell(id=0, kind="quad", vertex_ids=(0, 1, 1, 2))
    with pytest.raises(MeshError):
        Cell(id=0, kind="tet", vertex_ids=(0, 1, 2, 3))


def test_single_hex_face_list():
    faces = build_face_list([hex_cell()])
    assert len(faces) == 6
    internal, uncoupled = match_local_faces(faces)
    assert internal == [] and len(uncoupled) == 6


def test_two_hexes_share_one_face():
    a = hex_cell(0, (0, 1, 2, 3, 4, 5, 6, 7))
    b = hex_cell(1, (4, 5, 6, 7, 8, 9, 10, 11))
    faces = build_face_list([a, b])
    assert len(faces) == 12
    keys = [f.key for f in faces]
    # the shared top/bottom key appears as an adjacent duplicate pair
    shared = tuple(sorted((4, 5, 6, 7)))
    idx = keys.index(shared)
    assert keys[idx + 1] == shared
    internal, uncoupled = match_local_faces(faces)
    assert len(internal) == 1 and len(uncoupled) == 10
    assert internal[0].left == (0, 1) and internal[0].right == (1, 0)


def test_box_4x4x4_counts():
    mesh = box_mesh_3d(4, 4, 4)
    faces = build_face_list(mesh.cells)
    assert len({f.key for f in faces}) == 240
    internal, uncoupled = match_local_faces(faces)
    assert len(internal) == 144
    assert len(uncoupled) == 96
    assert face_census(mesh.cells, internal, uncoupled)


def test_match_equals_brute_force_oracle():
    for mesh in (box_mesh_3d(3, 4, 2), box_mesh_2d(5, 3),
                 box_mesh_3d(3, 3, 3, periodic=(True, False, True))):
        faces = build_face_list(mesh.cells, mesh.vertex_alias)
        internal, uncoupled = match_local_faces(faces, mesh.vertex_alias)
        ref_internal, ref_uncoupled = brute_force_match(mesh.cells, mesh.vertex_alias)
        assert {f.key for f in internal} == {k for k, _ in ref_internal}
        assert {f.key for f in uncoupled} == {k for k, _ in ref_uncoupled}
        got_pairs = {f.key: tuple(sorted((f.left, f.right))) for f in internal}
        for key, owners in ref_internal:
            assert got_pairs[key] == owners


def test_non_manifold_detected():
    cells = [
        hex_cell(0, (0, 1, 2, 3, 4, 5, 6, 7)),
        hex_cell(1, (0, 1, 2, 3, 8, 9, 10, 11)),
        hex_cell(2, (0, 1, 2, 3, 12, 13, 14, 15)),
    ]
    faces = build_face_list(cells)
    with pytest.raises(NonManifoldError):
        match_local_faces(faces)


def test_determinism_byte_for_byte():
    mesh = box_mesh_3d(3, 3, 3, perturb=0.2, seed=5)
    a = build_face_list(mesh.cells)
    b = build_face_list(mesh.cells)
    assert [(f.key, f.left) for f in a] == [(f.key, f.left) for f in b]
    ia, ua = match_local_faces(a)
    ib, ub = match_local_faces(b)
    assert [(f.key, f.left, f.right, f.orientation) for f in ia] == \
           [(f.key, f.left, f.right, f.orientation) for f in ib]


def test_dual_graph_two_hexes():
    a = hex_cell(0, (0, 1, 2, 3, 4, 5, 6, 7))
    b = hex_cell(1, (4, 5, 6, 7, 8, 9, 10, 11))
    internal, _ = match_local_faces(build_face_list([a, b]))
    g = build_dual_graph([a, b], internal)
    assert g.adjacency == {0: [1], 1: [0]}
    assert g.weights == {0: 1, 1: 1}


def test_dual_graph_chain_p4():
    mesh = box_mesh_3d(4, 1, 1)
    internal, _ = match_local_faces(build_face_list(mesh.cells))
    g = build_dual_graph(mesh.cells, internal)
    assert g.adjacency == {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}


def test_dual_graph_box_lattice():
    mesh = box_mesh_3d(4, 4, 4)
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
    mesh = box_mesh_3d(nx, ny, nz)
    internal, uncoupled = match_local_faces(build_face_list(mesh.cells))
    assert 2 * len(internal) + len(uncoupled) == 6 * len(mesh.cells)


@pytest.mark.parametrize("dim,kind,p", [(3, "hex", 2), (3, "hex", 3), (2, "quad", 3)])
def test_orientation_linear_field_continuity(dim, kind, p):
    if dim == 3:
        mesh = box_mesh_3d(3, 3, 3, perturb=0.3, seed=1)
    else:
        mesh = box_mesh_2d(4, 3, perturb=0.3, seed=2)
    ref = build_reference_element(kind, p)
    cells = {c.id: c for c in mesh.cells}
    internal, _ = match_local_faces(build_face_list(mesh.cells))
    coef = np.arange(1, dim + 1, dtype=float)
    g = compute_geometry(np.array([mesh.vertices[list(c.vertex_ids)] for c in cells.values()]),
                         ref, list(cells))
    row = {cid: i for i, cid in enumerate(cells)}

    def side_vals(gid, lf):
        vals = ref.interp_to_faces @ (g.coords_upts[row[gid]] @ coef)
        return vals[ref.face_slice(lf)]

    for f in internal:
        vl = side_vals(*f.left)
        vr = side_vals(*f.right)
        perm = orientation_permutation(dim, f.orientation, ref.points_1d)
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
