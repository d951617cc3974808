import numpy as np
import pytest

from fluxrecon.errors import InvertedElementError, MeshError
from fluxrecon.operators import (
    ElementGeometry,
    build_reference_element,
    compute_geometry,
    dg_correction_derivative,
    face_geometry,
    gauss_legendre_points,
    interpolation_matrix,
    lagrange_diff_matrix,
    transform_flux,
)

UNIT_CUBE = np.array(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
     [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=float)


def geometry_of(coords, ref, cell_id):
    """compute_geometry on a batch of one cell, element axis dropped."""
    g = compute_geometry(np.asarray(coords)[None], ref, [cell_id])
    return ElementGeometry(**{k: v[0] for k, v in vars(g).items()})


class TestGaussLegendre:
    def test_n1_midpoint(self):
        x, w = gauss_legendre_points(1)
        assert x[0] == 0.0 and w[0] == 2.0

    def test_n2_textbook(self):
        x, w = gauss_legendre_points(2)
        assert np.allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert np.allclose(w, [1.0, 1.0], atol=1e-15)

    def test_weights_sum_to_two(self):
        for n in range(1, 13):
            _, w = gauss_legendre_points(n)
            assert abs(w.sum() - 2.0) < 1e-14

    def test_exactness_x8_with_n5(self):
        x, w = gauss_legendre_points(5)
        assert abs(w @ x ** 8 - 2.0 / 9.0) < 1e-13

    def test_monomial_exactness_to_2n_minus_1(self):
        for n in (3, 6, 9):
            x, w = gauss_legendre_points(n)
            for k in range(2 * n):
                exact = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(w @ x ** k - exact) < 1e-13

    def test_out_of_range(self):
        with pytest.raises(MeshError):
            gauss_legendre_points(0)
        with pytest.raises(MeshError):
            gauss_legendre_points(13)

    def test_bitwise_symmetry(self):
        for n in range(1, 13):
            x, _ = gauss_legendre_points(n)
            assert all(-x[i] == x[n - 1 - i] for i in range(n))


class TestReferenceElement:
    def test_p0_quad_counts(self):
        ref = build_reference_element("quad", 0)
        assert ref.num_solution_points == 1
        assert ref.num_faces == 4
        assert ref.num_face_points == 1

    def test_p7_hex_matches_headline_dof_arithmetic(self):
        ref = build_reference_element("hex", 7)
        assert ref.num_solution_points == 512
        assert 1.689e9 * ref.num_solution_points == pytest.approx(8.649e11, rel=1e-3)

    def test_constant_interpolation_exact(self):
        for kind, p in (("quad", 0), ("quad", 4), ("hex", 3)):
            ref = build_reference_element(kind, p)
            rows = ref.interp_to_faces.sum(axis=1)
            assert np.abs(rows - 1).max() < 1e-13

    def test_constant_divergence_zero(self):
        for kind, p in (("quad", 3), ("hex", 2)):
            ref = build_reference_element(kind, p)
            const = np.ones(ref.num_solution_points)
            for ax in range(ref.dim):
                assert np.abs(ref.div_operators[ax] @ const).max() < 1e-13

    def test_zero_jump_zero_correction(self):
        ref = build_reference_element("hex", 3)
        z = np.zeros(ref.num_faces * ref.num_face_points)
        assert np.all(ref.correction_matrix @ z == 0)

    def test_divergence_of_polynomial_flux(self):
        # F = (x^3 y^2, x y^3) handled exactly at p=3
        ref = build_reference_element("quad", 3)
        x = ref.solution_points[:, 0]
        y = ref.solution_points[:, 1]
        Fx, Fy = x ** 3 * y ** 2, x * y ** 3
        div = ref.div_operators[0] @ Fx + ref.div_operators[1] @ Fy
        exact = 3 * x ** 2 * y ** 2 + 3 * x * y ** 2
        assert np.abs(div - exact).max() < 1e-11

    def test_polynomial_interpolation_exactness(self):
        ref = build_reference_element("quad", 4)
        x, y = ref.solution_points.T
        vals = 1.5 - x + 2 * y + x * y ** 3 - x ** 4
        fx, fy = ref.flux_points.T
        exact = 1.5 - fx + 2 * fy + fx * fy ** 3 - fx ** 4
        assert np.abs(ref.interp_to_faces @ vals - exact).max() < 1e-12

    def test_degree_cap(self):
        with pytest.raises(MeshError):
            build_reference_element("quad", 9)
        with pytest.raises(MeshError):
            build_reference_element("tri", 2)
        with pytest.raises(MeshError):
            build_reference_element("quad", 2, correction="sd")

    def test_correction_function_is_radau_derivative(self):
        # g_L(-1) = 1, g_L(1) = 0 recovered by integrating its derivative
        for p in range(0, 6):
            nodes, w = gauss_legendre_points(p + 1)
            gL, gR = dg_correction_derivative(p, nodes)
            assert abs(w @ gL - (-1.0)) < 1e-13  # integral = g(1)-g(-1) = -1
            assert abs(w @ gR - 1.0) < 1e-13


class TestGeometry:
    def test_unit_cube(self):
        ref = build_reference_element("hex", 2)
        g = geometry_of(UNIT_CUBE, ref, 0)
        assert np.abs(g.det_upts - 0.125).max() < 1e-14
        assert abs(g.volume - 1.0) < 1e-12
        assert abs(g.h_min - 1.0) < 1e-12

    def test_stretched_box_det(self):
        ref = build_reference_element("hex", 2)
        g = geometry_of(UNIT_CUBE * np.array([2.0, 3.0, 4.0]), ref, 0)
        assert np.abs(g.det_upts - 3.0).max() < 1e-12
        assert abs(g.h_min - 2.0) < 1e-10

    def test_adjugate_identity_on_random_hex(self, rng):
        ref = build_reference_element("hex", 3)
        coords = UNIT_CUBE + 0.15 * rng.random((8, 3))
        g = geometry_of(coords, ref, 7)
        lhs = np.einsum("pab,pbc->pac", g.adj_upts, g.jac_upts)
        rhs = g.det_upts[:, None, None] * np.eye(3)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_outward_normals(self, rng):
        ref = build_reference_element("hex", 2)
        coords = UNIT_CUBE + 0.1 * rng.random((8, 3))
        g = geometry_of(coords, ref, 0)
        centroid = coords.mean(axis=0)
        dots = np.einsum("fd,fd->f", g.coords_fpts - centroid, g.normals_fpts)
        assert dots.min() > 0

    def test_inverted_element_reported_with_cell_id(self):
        bad = UNIT_CUBE.copy()
        bad[[0, 1]] = bad[[1, 0]]
        ref = build_reference_element("hex", 1)
        with pytest.raises(InvertedElementError) as err:
            geometry_of(bad, ref, 42)
        assert err.value.cell_id == 42

    def test_affine_jacobian_constant(self):
        ref = build_reference_element("quad", 4)
        coords = np.array([[0, 0], [2, 0], [2, 3], [0, 3]], dtype=float)
        g = geometry_of(coords, ref, 0)
        assert np.ptp(g.det_upts) < 1e-13


class TestTransformFlux:
    def test_identity_mapping(self, rng):
        ref = build_reference_element("quad", 2)
        coords = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        g = geometry_of(coords, ref, 0)
        F = rng.standard_normal((ref.num_solution_points, 2, 4))
        Fh = transform_flux(F, g.adj_upts)
        assert np.abs(Fh - F).max() < 1e-14

    def test_isotropic_scaling(self, rng):
        # uniform scaling by h in d dims multiplies the flux by h^(d-1)
        h = 0.37
        ref = build_reference_element("hex", 1)
        coords = UNIT_CUBE * h * 2  # reference cube scaled by h
        g = geometry_of(coords, ref, 0)
        F = rng.standard_normal((ref.num_solution_points, 3, 5))
        Fh = transform_flux(F, g.adj_upts)
        assert np.abs(Fh - h ** 2 * F).max() < 1e-13

    def test_rotation_preserves_zero_divergence(self):
        # divergence-free field stays divergence-free under rotation map
        th = 0.4
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        square = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        coords = square @ R.T
        ref = build_reference_element("quad", 3)
        g = geometry_of(coords, ref, 0)
        x = g.coords_upts
        # F = (y, -x): divergence-free, linear
        F = np.stack([np.stack([x[:, 1], -x[:, 0]], axis=1)], axis=2)
        Fh = transform_flux(F.reshape(-1, 2, 1), g.adj_upts)
        div = (ref.div_operators[0] @ Fh[:, 0, 0]
               + ref.div_operators[1] @ Fh[:, 1, 0])
        assert np.abs(div).max() < 1e-12


class TestDGEquivalence:
    def test_fr_equals_collocation_dg_p1_advection(self):
        """Update matrix of 1-D upwind advection through the FR operators
        equals the independently assembled collocation-DG matrix."""
        p, K, a = 1, 4, 1.0
        nodes, w = gauss_legendre_points(p + 1)
        D = lagrange_diff_matrix(nodes)
        gL, gR = dg_correction_derivative(p, nodes)
        from fluxrecon.operators import lagrange_eval

        lm = lagrange_eval(nodes, np.array([-1.0]))[0]
        lp = lagrange_eval(nodes, np.array([1.0]))[0]
        n = p + 1

        # FR side: du/dt = -[D u + gL (f*_L - f(-1)) + gR (f*_R - f(+1))]/1
        A_fr = np.zeros((K * n, K * n))
        for e in range(K):
            up = (e - 1) % K  # upwind neighbor for a > 0
            A_fr[e * n:(e + 1) * n, e * n:(e + 1) * n] -= a * D
            # f*_L = a * u_upwind(+1); own trace a*u(-1)
            A_fr[e * n:(e + 1) * n, up * n:(up + 1) * n] -= np.outer(gL, a * lp)
            A_fr[e * n:(e + 1) * n, e * n:(e + 1) * n] += np.outer(gL, a * lm)
            # f*_R = a * u_self(+1) (upwind): jump at right face is zero
            A_fr[e * n:(e + 1) * n, e * n:(e + 1) * n] += 0.0

        # DG side (collocation): M du/dt = S^T f - [phi f*] with M = diag(w)
        A_dg = np.zeros((K * n, K * n))
        Minv = np.diag(1.0 / w)
        S = (np.diag(w) @ D)  # integral of phi_i dphi_j via exact quadrature
        for e in range(K):
            up = (e - 1) % K
            A_dg[e * n:(e + 1) * n, e * n:(e + 1) * n] += Minv @ S.T * a
            A_dg[e * n:(e + 1) * n, e * n:(e + 1) * n] -= Minv @ np.outer(lp, lp) * a
            A_dg[e * n:(e + 1) * n, up * n:(up + 1) * n] += Minv @ np.outer(lm, lp) * a
        assert np.abs(A_fr - A_dg).max() < 1e-12


def test_face_geometry_matches_element_geometry(rng):
    from fluxrecon.mesh_core import HEX_FACES

    ref = build_reference_element("hex", 2)
    coords = UNIT_CUBE + 0.2 * rng.random((8, 3))
    g = geometry_of(coords, ref, 0)
    for f, cyc in enumerate(HEX_FACES):
        x, n, a = face_geometry(coords[list(cyc)], ref.points_1d)
        sl = ref.face_slice(f)
        assert np.array_equal(n, g.normals_fpts[sl])
        assert np.array_equal(a, g.area_fpts[sl])
        assert np.array_equal(x, g.coords_fpts[sl])


def test_interpolation_matrix_between_degrees(rng):
    r2 = build_reference_element("quad", 2)
    r4 = build_reference_element("quad", 4)
    x, y = r2.solution_points.T
    vals = 0.3 + x - y + x * y + 0.5 * x ** 2
    M = interpolation_matrix(r2, r4)
    fx, fy = r4.solution_points.T
    exact = 0.3 + fx - fy + fx * fy + 0.5 * fx ** 2
    assert np.abs(M @ vals - exact).max() < 1e-12


def test_free_stream_on_perturbed_meshes(gas):
    import numpy as np

    from fluxrecon.fixtures import box_mesh
    from fluxrecon.physics import conserved
    from fluxrecon.pipeline import SolverOptions, SolverRank
    from fluxrecon.prep import prepare_shards

    for mesh, p in ((box_mesh(4, 4, periodic=(True, True), perturb=0.25, seed=3), 3),
                    (box_mesh(3, 3, 3, periodic=(True,) * 3, perturb=0.2, seed=5), 2)):
        shards = prepare_shards(mesh, np.zeros(len(mesh.cells), np.int64), 1)
        s = SolverRank(shards[0], gas, SolverOptions(p=p))
        d = mesh.dim

        def uniform(x):
            n = x.shape[0]
            return conserved(np.ones(n), np.tile([0.3, -0.2, 0.1][:d], (n, 1)),
                             np.ones(n), gas)

        s.set_state(uniform)
        assert np.abs(s.compute_residual(s.Q_upts)).max() < 1e-11
