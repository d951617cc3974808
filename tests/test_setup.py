"""Batched solver set-up against the per-cell and per-face loops it
replaced (kept in ``oracles``): element geometry, face geometry, interface
pairs and the halo plan."""

import numpy as np
import pytest

from fluxrecon.errors import InvertedElementError
from fluxrecon.fixtures import box_mesh_2d, box_mesh_3d
from fluxrecon.mesh_core import Cell, HEX_FACES, QUAD_EDGES
from fluxrecon.operators import _REF_CORNERS, build_reference_element, compute_geometry, face_geometry
from fluxrecon.physics import BoundarySpec, GasModel
from fluxrecon.pipeline import SolverOptions, SolverRank
from fluxrecon.prep import prepare_shards

from oracles import face_geometry_one, geometry_one, interfaces_per_face, random_partition

# the sums behind coords_upts, volume, face_areas and h_min run in another
# order than the loop's BLAS products
ULP8 = 8 * np.finfo(float).eps
BITWISE = ("jac_upts", "det_upts", "adj_upts", "inv_t_upts",
           "normals_fpts", "area_fpts", "coords_fpts")
CLOSE = ("coords_upts", "volume", "face_areas", "h_min")


def _cube_rotations():
    """Vertex permutations of the 24 proper rotations of the reference hex:
    new vertex k is old vertex perm[k]."""
    corners = _REF_CORNERS["hex"]
    gens = (np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
            np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]))
    found, todo = {}, [np.eye(3, dtype=int)]
    while todo:
        R = todo.pop()
        perm = tuple(int(np.flatnonzero((corners == r).all(axis=1))[0]) for r in corners @ R.T)
        if perm not in found:
            found[perm] = R
            todo += [G @ R for G in gens]
    assert len(found) == 24
    return sorted(found)


def _renumber(mesh, rng):
    """Start every hex at a random corner (a random rotation of its local
    numbering), so its faces meet in many orientations."""
    rots = _cube_rotations()
    mesh.cells = [Cell(c.id, c.kind, tuple(c.vertex_ids[k] for k in rots[rng.integers(24)]))
                  for c in mesh.cells]
    return mesh


def _perturbed_meshes():
    rng = np.random.default_rng(11)
    quad = box_mesh_2d(7, 5, perturb=0.3, seed=5)
    quad.vertices = quad.vertices + 0.02 * (rng.random(quad.vertices.shape) - 0.5)
    hexm = _renumber(box_mesh_3d(3, 3, 2, perturb=0.3, seed=6), rng)
    hexm.vertices = hexm.vertices + 0.02 * (rng.random(hexm.vertices.shape) - 0.5)
    return {"quad": quad, "hex": hexm}


MESHES = _perturbed_meshes()


def _stack(mesh):
    coords = np.array([mesh.vertices[list(c.vertex_ids)] for c in mesh.cells])
    return coords, np.array([c.id for c in mesh.cells], dtype=np.int64)


class TestBatchedGeometry:
    @pytest.mark.parametrize("kind", ["quad", "hex"])
    @pytest.mark.parametrize("p", [1, 3])
    def test_matches_per_cell_loop(self, kind, p):
        ref = build_reference_element(kind, p)
        coords, ids = _stack(MESHES[kind])
        batch = compute_geometry(coords, ref, ids)
        for i, (c, cid) in enumerate(zip(coords, ids)):
            one = geometry_one(c, ref, cid)
            for name in BITWISE:
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)), (name, i)
            for name in CLOSE:
                got, want = getattr(batch, name)[i], np.asarray(getattr(one, name))
                assert np.all(np.abs(got - want) <= ULP8 * np.abs(want).max()), (name, i)

    @pytest.mark.parametrize("kind", ["quad", "hex"])
    def test_subset_equals_rows_of_full_batch(self, kind, rng):
        ref = build_reference_element(kind, 2)
        coords, ids = _stack(MESHES[kind])
        full = compute_geometry(coords, ref, ids)
        for size in (1, 2, 7):
            rows = rng.choice(len(ids), size=size, replace=False)
            part = compute_geometry(coords[rows], ref, ids[rows])
            for name in BITWISE + CLOSE:
                assert np.array_equal(getattr(part, name), getattr(full, name)[rows]), name

    @pytest.mark.parametrize("kind", ["quad", "hex"])
    def test_face_stack_matches_single_faces(self, kind):
        ref = build_reference_element(kind, 3)
        coords, _ = _stack(MESHES[kind])
        cycles = np.array(HEX_FACES if kind == "hex" else QUAD_EDGES)
        corners = coords[:, cycles]  # (ne, nfaces, ncorners, d)
        x, n, a = face_geometry(corners, ref.points_1d)
        for e in range(coords.shape[0]):
            for f in range(len(cycles)):
                x1, n1, a1 = face_geometry_one(corners[e, f], ref.points_1d)
                assert np.array_equal(x[e, f], x1)
                assert np.array_equal(n[e, f], n1)
                assert np.array_equal(a[e, f], a1)

    @pytest.mark.parametrize("kind", ["quad", "hex"])
    def test_inverted_cell_named_by_its_own_id(self, kind):
        ref = build_reference_element(kind, 1)
        coords, ids = _stack(MESHES[kind])
        ids = ids + 100
        bad = coords.copy()
        bad[5, [0, 1]] = bad[5, [1, 0]]
        bad[9, [0, 1]] = bad[9, [1, 0]]
        with pytest.raises(InvertedElementError) as err:
            compute_geometry(bad, ref, ids)
        assert err.value.cell_id == ids[5]


def _assert_interfaces_match_loop(s):
    want = interfaces_per_face(s)
    assert np.array_equal(s.iface.e, want["own"][0])
    assert np.array_equal(s.iface.p, want["own"][1])
    assert np.array_equal(s.loc_r.e, want["loc_r"][0])
    assert np.array_equal(s.loc_r.p, want["loc_r"][1])
    assert np.array_equal(s.iface_flip, want["flip"])
    assert np.array_equal(s.iface_n.T, want["normal"])
    assert np.array_equal(s.iface_a, want["area"])
    assert np.array_equal(s.iface_tau, want["tau"])
    assert s.halo.neighbors == want["neighbors"]
    assert s.halo.num_ghost_points == len(s.shard.remote_faces) * s.ref.num_face_points
    for rank in want["neighbors"]:
        assert np.array_equal(s.halo.pack[rank][0], want["pack"][rank][0])
        assert np.array_equal(s.halo.pack[rank][1], want["pack"][rank][1])
        assert np.array_equal(s.halo.rows[rank], want["rows"][rank])
    assert [(spec, lo, hi) for spec, lo, hi in s.boundary_spans] == want["spans"]


class TestBatchedInterfaces:
    GAS = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1e-2)

    def test_walls_2d_three_ranks(self):
        mesh = box_mesh_2d(6, 5, perturb=0.2, seed=4)
        bcs = {
            "xmin": BoundarySpec("xmin", "riemann-inflow", total_temperature=1.02,
                                 total_pressure=1.06, direction=np.array([1.0, 0.1])),
            "xmax": BoundarySpec("xmax", "outflow", static_pressure=0.98),
            "ymin": BoundarySpec("ymin", "adiabatic"),
            "ymax": BoundarySpec("ymax", "noslip-isothermal", wall_temperature=1.05),
        }
        shards = prepare_shards(mesh, random_partition(np.random.default_rng(3), 30, 3), 3)
        for shard in shards:
            s = SolverRank(shard, self.GAS, SolverOptions(p=2, viscous=True),
                           boundary_specs=bcs)
            assert s.halo.neighbors and s.boundary_spans
            _assert_interfaces_match_loop(s)

    def test_hex_all_orientation_codes_two_ranks(self):
        """Random local numberings give the odd codes; a mirrored periodic
        pairing in x (z -> nz - z) makes the winding agree and gives the
        even ones."""
        rng = np.random.default_rng(4)
        nx, ny, nz = 3, 2, 2
        mesh = box_mesh_3d(nx, ny, nz, periodic=(True, False, False), perturb=0.2, seed=3)
        nvx, nvy = nx + 1, ny + 1
        for k in range(nz + 1):
            for j in range(nvy):
                mesh.vertex_alias[nx + nvx * (j + nvy * k)] = nvx * (j + nvy * (nz - k))
        mesh = _renumber(mesh, rng)
        shards = prepare_shards(mesh, random_partition(rng, len(mesh.cells), 2), 2)
        codes = {f.orientation for sh in shards for f in sh.internal_faces}
        codes |= {c.orientation for sh in shards for _, c in sh.remote_faces}
        assert codes == set(range(8))
        bcs = {name: BoundarySpec(name, "slip") for name in ("ymin", "ymax", "zmin", "zmax")}
        for shard in shards:
            s = SolverRank(shard, self.GAS, SolverOptions(p=3, viscous=True),
                           boundary_specs=bcs)
            assert s.halo.neighbors and s.boundary_spans
            _assert_interfaces_match_loop(s)
