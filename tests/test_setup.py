"""Batched solver set-up against the per-cell and per-face loops it
replaced (kept in ``oracles``): element geometry, face geometry, interface
pairs and their per-peer halo spans."""

import warnings

import numpy as np
import pytest

from fluxrecon.errors import InvertedElementError, MeshError
from fluxrecon.fixtures import box_mesh
from fluxrecon.mesh_core import HEX_FACES, QUAD_EDGES, orientation_permutation
from fluxrecon.operators import (_tensor_shape, build_reference_element, compute_geometry,
                                 face_geometry, gauss_legendre_points, lagrange_diff_matrix)
from fluxrecon.physics import BoundarySpec, GasModel, conserved
from fluxrecon.pipeline import SolverOptions, SolverRank, solver as solver_module
from fluxrecon.prep import SimCluster, prepare_shards

from oracles import (correction_matrix_loop, cube_rotations, face_geometry_one, geometry_one,
                     interfaces_per_face, lagrange_diff_matrix_loop, orientation_permutation_loop,
                     random_partition, tensor_basis_loop)

# the sums behind coords_upts, volume, face_areas and h_min run in another
# order than the loop's BLAS products
ULP8 = 8 * np.finfo(float).eps
BITWISE = ("jac_upts", "det_upts", "adj_upts", "inv_t_upts",
           "normals_fpts", "area_fpts", "coords_fpts")
CLOSE = ("coords_upts", "volume", "face_areas", "h_min")


def _renumber(mesh, rng):
    """Start every hex at a random corner (a random rotation of its local
    numbering), so its faces meet in many orientations."""
    rots = np.array(cube_rotations())
    picks = rots[[rng.integers(24) for _ in range(mesh.num_cells)]]
    mesh.cells = np.take_along_axis(mesh.cells, picks, axis=1)
    return mesh


def _perturbed_meshes():
    rng = np.random.default_rng(11)
    quad = box_mesh(7, 5, perturb=0.3, seed=5)
    quad.vertices = quad.vertices + 0.02 * (rng.random(quad.vertices.shape) - 0.5)
    hexm = _renumber(box_mesh(3, 3, 2, perturb=0.3, seed=6), rng)
    hexm.vertices = hexm.vertices + 0.02 * (rng.random(hexm.vertices.shape) - 0.5)
    return {"quad": quad, "hex": hexm}


MESHES = _perturbed_meshes()


def _stack(mesh):
    return mesh.vertices[mesh.cells], np.arange(mesh.num_cells)


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


class TestArrayForms:
    """The whole-array reference element, geometry rows and face-point
    permutations equal the loops they replaced (kept in ``oracles``) bit
    for bit, and bad cells are named."""

    @pytest.mark.parametrize("kind", ["quad", "hex"])
    @pytest.mark.parametrize("p", range(7))
    def test_reference_element_matches_loops(self, kind, p):
        ref = build_reference_element(kind, p)
        assert np.array_equal(ref.correction_matrix, correction_matrix_loop(ref))
        assert np.array_equal(ref.interp_to_faces,
                              tensor_basis_loop(ref.points_1d, ref.flux_points))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_diff_matrix_matches_loop(self, n):
        pts = gauss_legendre_points(n)[0]
        assert lagrange_diff_matrix(pts).tobytes() == lagrange_diff_matrix_loop(pts).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", range(7))
    def test_orientation_permutation_matches_loop(self, dim, p):
        pts = gauss_legendre_points(p + 1)[0]
        for code in range(2 if dim == 2 else 8):
            assert np.array_equal(orientation_permutation(dim, code, pts),
                                  orientation_permutation_loop(dim, code, pts)), code

    @pytest.mark.parametrize("kind", ["quad", "hex"])
    def test_component_rows(self, kind):
        """Metric terms and coordinates are views of C-contiguous component
        rows, and the coordinates are the corner sums the batched
        ``einsum`` gives."""
        ref = build_reference_element(kind, 3)
        coords, ids = _stack(MESHES[kind])
        g = compute_geometry(coords, ref, ids)
        for name in ("jac_upts", "adj_upts", "inv_t_upts"):
            assert getattr(g, name).transpose(2, 3, 0, 1).flags.c_contiguous, name
        for name in ("coords_upts", "normals_fpts", "coords_fpts"):
            assert getattr(g, name).transpose(2, 0, 1).flags.c_contiguous, name
        shape = _tensor_shape(kind, ref.solution_points)
        assert np.array_equal(g.coords_upts, np.einsum("pi,eia->epa", shape, coords))

    def test_nan_vertex_names_its_cell(self):
        ref = build_reference_element("quad", 3)
        mesh = box_mesh(3, 3)
        coords = mesh.vertices[mesh.cells]
        coords[4, 2, 0] = np.nan
        with pytest.raises(InvertedElementError) as err:
            compute_geometry(coords, ref, np.arange(mesh.num_cells))
        assert err.value.cell_id == 4

    def test_collapsed_edge_names_its_cell(self):
        """|J| stays positive at every solution point, but the collapsed
        edge has zero length: a MeshError naming the cell, not NaN normals
        and a divide warning."""
        ref = build_reference_element("quad", 3)
        mesh = box_mesh(3, 3)
        coords = mesh.vertices[mesh.cells]
        coords[4, 1] = coords[4, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="cell 4") as err:
                compute_geometry(coords, ref, np.arange(mesh.num_cells))
        assert not isinstance(err.value, InvertedElementError)


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
    # each peer's halo is one span of the pair list, the spans back to back
    # from the local pairs to the boundary pairs
    assert [rank for rank, _, _ in s.halo_spans] == want["neighbors"]
    ends = [s.loc_r.size] + [hi for _, _, hi in s.halo_spans]
    assert [lo for _, lo, _ in s.halo_spans] == ends[:-1]
    assert ends[-1] == s.n_face_pairs
    assert s.n_face_pairs - s.loc_r.size == len(s.shard.remote_faces) * s.ref.num_face_points
    assert s.ghost_Q.shape[1] == s.iface.size - s.loc_r.size
    for rank, lo, hi in s.halo_spans:
        assert np.array_equal(s.iface.e[lo:hi], want["pack"][rank][0])
        assert np.array_equal(s.iface.p[lo:hi], want["pack"][rank][1])
    assert [(spec, lo, hi) for spec, lo, hi in s.boundary_spans] == want["spans"]


class TestBatchedInterfaces:
    GAS = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1e-2)

    def test_walls_2d_three_ranks(self):
        mesh = box_mesh(6, 5, perturb=0.2, seed=4)
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
            assert s.halo_spans and s.boundary_spans
            _assert_interfaces_match_loop(s)

    def test_hex_all_orientation_codes_two_ranks(self):
        """Random local numberings give the odd codes; a mirrored periodic
        pairing in x (z -> nz - z) makes the winding agree and gives the
        even ones."""
        rng = np.random.default_rng(4)
        nx, ny, nz = 3, 2, 2
        mesh = box_mesh(nx, ny, nz, periodic=(True, False, False), perturb=0.2, seed=3)
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
            assert s.halo_spans and s.boundary_spans
            _assert_interfaces_match_loop(s)

    @pytest.mark.parametrize("viscous", [False, True])
    def test_halo_messages_are_canonical_point_major(self, viscous, monkeypatch):
        """On 2 ranks, each halo message holds the sender's values at the
        peer's shared slots in canonical order (faces by owner gid and
        owner local face, points in canonical point order), one point's
        values after another: for Q, and for the gradient when viscous."""
        mesh = box_mesh(6, 5, periodic=(True, False), perturb=0.2, seed=4)
        bcs = {"ymin": BoundarySpec("ymin", "adiabatic"),
               "ymax": BoundarySpec("ymax", "noslip-isothermal", wall_temperature=1.05)}
        shards = prepare_shards(mesh, random_partition(np.random.default_rng(5), 30, 2), 2)
        sent = {0: [], 1: []}
        real = solver_module.nbx_exchange

        def record(ctx, sbuf):
            sent[ctx.rank].append(dict(sbuf))
            return real(ctx, sbuf)

        monkeypatch.setattr(solver_module, "nbx_exchange", record)

        def field(x):
            rho = 1.0 + 0.1 * np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
            vel = np.stack([0.3 + 0.1 * x[:, 1], 0.05 * np.sin(x[:, 0])], axis=1)
            return conserved(rho, vel, 1.0 + 0.05 * x[:, 0] * x[:, 1], self.GAS)

        def prog(ctx):
            s = SolverRank(shards[ctx.rank], self.GAS, SolverOptions(p=2, viscous=viscous),
                           boundary_specs=bcs, ctx=ctx)
            s.set_state(field)
            s.compute_residual(s.Q_upts)
            pack = interfaces_per_face(s)["pack"]
            fields = [s.Q_fpts] + ([s.grad_fpts] if viscous else [])
            want = [{rank: np.ascontiguousarray(np.moveaxis(f[..., e, p], -1, 0)).tobytes()
                     for rank, (e, p) in pack.items()} for f in fields]
            return sent[ctx.rank], want

        for got, want in SimCluster(2, seed=0).run(prog):
            assert want[0]
            assert got == want
