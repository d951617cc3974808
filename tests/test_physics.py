import numpy as np
import pytest
import sympy as sp

from fluxrecon import physics
from fluxrecon.errors import ConfigError, PositivityError
from fluxrecon.physics import (
    BoundarySpec,
    GasModel,
    SpongeZone,
    apply_boundary,
    conserved,
    hllc_flux,
    inviscid_flux,
    isentropic_mach,
    ldg_interface,
    normal_flux,
    pressure,
    riemann_flux,
    rusanov_flux,
    sponge_source,
    viscous_flux,
)


def state(gas, rho=1.0, vel=(0.0, 0.0), p=1.0):
    return conserved(np.atleast_1d(rho), np.atleast_2d(vel), np.atleast_1d(p), gas)


class TestInviscidFlux:
    def test_stagnant_gas(self, gas):
        Q = state(gas)
        F = inviscid_flux(Q, 2, gas)[0]
        assert np.allclose(F[:, 0], 0)          # mass flux zero
        assert np.allclose(F[0, 1:3], [1.0, 0.0])  # pressure on the diagonal
        assert np.allclose(F[1, 1:3], [0.0, 1.0])
        assert np.allclose(F[:, 3], 0)          # energy flux zero

    def test_mach_one_mass_flux(self, gas):
        # p = 1/gamma and rho = 1 give c = 1, so u = (1,0) is Mach 1
        Q = state(gas, vel=(1.0, 0.0), p=1.0 / gas.gamma)
        F = inviscid_flux(Q, 2, gas)[0]
        assert np.allclose(F[0, 0], 1.0)
        assert np.allclose(F[1, 0], 0.0)

    def test_flux_jacobian_against_finite_differences(self, gas, rng):
        Q = state(gas, rho=1.3, vel=(0.4, -0.2), p=0.8)[0]
        d = rng.standard_normal(4)
        d /= np.linalg.norm(d)
        eps = 1e-7
        Fp = inviscid_flux(Q + eps * d, 2, gas)
        Fm = inviscid_flux(Q - eps * d, 2, gas)
        fd = (Fp - Fm) / (2 * eps)
        h = 1e-5  # analytic action via a tighter stencil as the oracle
        Fp2 = inviscid_flux(Q + h * d, 2, gas)
        Fm2 = inviscid_flux(Q - h * d, 2, gas)
        richardson = (Fp2 - Fm2) / (2 * h)
        assert np.abs(fd - richardson).max() / np.abs(richardson).max() < 1e-6

    def test_positivity_check(self, gas):
        Q = state(gas, rho=-1.0)
        with pytest.raises(PositivityError):
            physics.check_positivity(Q, 2, gas)


class TestRiemann:
    def test_consistency_both_solvers(self, gas):
        Q = state(gas, rho=1.2, vel=(0.3, -0.1), p=0.9)
        n = np.array([[0.6, 0.8]])
        for solver in ("rusanov", "hllc"):
            F = riemann_flux(Q, Q, n, 2, gas, solver)
            assert np.abs(F - normal_flux(Q, n, 2, gas)).max() < 1e-13

    def test_stagnant_interface_pressure_only(self, gas):
        Q = state(gas)
        n = np.array([[1.0, 0.0]])
        F = riemann_flux(Q, Q, n, 2, gas)
        assert np.allclose(F[0], [0.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_sod_states_match_hand_formula(self, gas):
        QL = state(gas, rho=1.0, vel=(0.0, 0.0), p=1.0)
        QR = state(gas, rho=0.125, vel=(0.0, 0.0), p=0.1)
        n = np.array([[1.0, 0.0]])
        F = rusanov_flux(QL, QR, n, 2, gas)
        cl = np.sqrt(1.4 * 1.0 / 1.0)
        cr = np.sqrt(1.4 * 0.1 / 0.125)
        lam = max(cl, cr)
        FL = normal_flux(QL, n, 2, gas)
        FR = normal_flux(QR, n, 2, gas)
        expect = 0.5 * (FL + FR) - 0.5 * lam * (QR - QL)
        assert np.abs(F - expect).max() < 1e-14

    def test_conservation_antisymmetry(self, gas, rng):
        for solver in ("rusanov", "hllc"):
            QL = state(gas, rho=1.0 + 0.3 * rng.random(),
                       vel=rng.standard_normal(2) * 0.4,
                       p=0.8 + 0.4 * rng.random())
            QR = state(gas, rho=1.0 + 0.3 * rng.random(),
                       vel=rng.standard_normal(2) * 0.4,
                       p=0.8 + 0.4 * rng.random())
            n = rng.standard_normal(2)
            n = (n / np.linalg.norm(n))[None, :]
            F1 = riemann_flux(QL, QR, n, 2, gas, solver)
            F2 = riemann_flux(QR, QL, -n, 2, gas, solver)
            assert np.abs(F1 + F2).max() < 1e-12

    def test_rotational_invariance_rusanov(self, gas):
        QL = state(gas, rho=1.1, vel=(0.5, 0.2), p=1.0)
        QR = state(gas, rho=0.9, vel=(-0.1, 0.4), p=1.2)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        n = np.array([[1.0, 0.0]])

        def rot(Q):
            out = Q.copy()
            out[:, 1:3] = Q[:, 1:3] @ R.T
            return out

        F = rusanov_flux(QL, QR, n, 2, gas)
        Frot = rusanov_flux(rot(QL), rot(QR), n @ R.T, 2, gas)
        assert np.abs(rot(F) - Frot).max() < 1e-12

    def test_hllc_supersonic_limits(self, gas):
        QL = state(gas, rho=1.0, vel=(3.0, 0.0), p=1.0)  # supersonic to the right
        QR = state(gas, rho=0.5, vel=(3.0, 0.0), p=0.5)
        n = np.array([[1.0, 0.0]])
        F = hllc_flux(QL, QR, n, 2, gas)
        assert np.abs(F - normal_flux(QL, n, 2, gas)).max() < 1e-13

    def test_unknown_solver(self, gas):
        Q = state(gas)
        with pytest.raises(ConfigError):
            riemann_flux(Q, Q, np.array([[1.0, 0.0]]), 2, gas, "roe")

    def test_galilean_sanity_rusanov(self, gas):
        # consistency + antisymmetry survive a uniform velocity boost
        boost = np.array([2.0, -1.0])
        QL = state(gas, rho=1.2, vel=(0.2, 0.1), p=1.0)
        QR = state(gas, rho=0.8, vel=(-0.3, 0.4), p=1.1)

        def boosted(Q):
            rho = Q[:, 0]
            v = Q[:, 1:3] / rho[:, None]
            p = pressure(Q, 2, gas)
            return conserved(rho, v + boost, p, gas)

        n = np.array([[0.0, 1.0]])
        F1 = rusanov_flux(boosted(QL), boosted(QR), n, 2, gas)
        F2 = rusanov_flux(boosted(QR), boosted(QL), -n, 2, gas)
        assert np.abs(F1 + F2).max() < 1e-12
        Fc = rusanov_flux(boosted(QL), boosted(QL), n, 2, gas)
        assert np.abs(Fc - normal_flux(boosted(QL), n, 2, gas)).max() < 1e-12


class TestViscous:
    def test_zero_gradient_zero_flux(self, gas):
        gasv = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1.0)
        Q = state(gasv, rho=1.0, vel=(0.5, 0.2), p=1.0)
        G = viscous_flux(Q, np.zeros((1, 2, 4)), 2, gasv)
        assert np.abs(G).max() < 1e-14

    def test_couette_shear(self):
        # du/dy = 1 with mu = 1 gives tau_xy = 1
        gasv = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1.0)
        rho, u = 1.0, 0.3
        Q = state(gasv, rho=rho, vel=(u, 0.0), p=1.0)
        grad = np.zeros((1, 2, 4))
        grad[0, 1, 1] = rho * 1.0       # d(rho u)/dy, constant rho
        grad[0, 1, 3] = rho * u * 1.0   # isothermal Couette: dE/dy = rho u du/dy
        G = viscous_flux(Q, grad, 2, gasv)[0]
        assert abs(G[1, 1] - 1.0) < 1e-13  # tau_xy seen in the y-flux of x-mom
        assert abs(G[0, 2] - 1.0) < 1e-13  # symmetric entry
        # energy flux carries the shear work tau_xy * u
        assert abs(G[1, 3] - u) < 1e-12

    def test_heat_flux_against_sympy(self):
        gasv = GasModel(gamma=1.4, R=2.0, Pr=0.6, mu=0.7)
        x, y = sp.symbols("x y")
        rho_s = 1 + sp.Rational(1, 10) * x + sp.Rational(1, 20) * y ** 2
        u_s = sp.Rational(1, 5) * x * y
        v_s = -sp.Rational(1, 10) * x ** 2
        p_s = 1 + sp.Rational(1, 10) * x ** 2 * y
        gamma, R, Pr, mu = sp.Rational(7, 5), 2, sp.Rational(3, 5), sp.Rational(7, 10)
        E_s = p_s / (gamma - 1) + rho_s * (u_s ** 2 + v_s ** 2) / 2
        T_s = p_s / (rho_s * R)
        cp = gamma * R / (gamma - 1)
        k = mu * cp / Pr
        # symbolic viscous flux components
        tau_xx = mu * (2 * sp.diff(u_s, x)) - sp.Rational(2, 3) * mu * (sp.diff(u_s, x) + sp.diff(v_s, y))
        tau_xy = mu * (sp.diff(u_s, y) + sp.diff(v_s, x))
        tau_yy = mu * (2 * sp.diff(v_s, y)) - sp.Rational(2, 3) * mu * (sp.diff(u_s, x) + sp.diff(v_s, y))
        Gx_E = tau_xx * u_s + tau_xy * v_s + k * sp.diff(T_s, x)
        Gy_E = tau_xy * u_s + tau_yy * v_s + k * sp.diff(T_s, y)

        pt = {x: sp.Rational(3, 10), y: sp.Rational(-1, 5)}
        consv = [rho_s, rho_s * u_s, rho_s * v_s, E_s]
        Q = np.array([[float(c.subs(pt)) for c in consv]])
        grad = np.zeros((1, 2, 4))
        for j, var in enumerate((x, y)):
            for i, c in enumerate(consv):
                grad[0, j, i] = float(sp.diff(c, var).subs(pt))
        G = viscous_flux(Q, grad, 2, gasv)[0]
        assert abs(G[0, 3] - float(Gx_E.subs(pt))) < 1e-10
        assert abs(G[1, 3] - float(Gy_E.subs(pt))) < 1e-10
        assert abs(G[0, 1] - float(tau_xx.subs(pt))) < 1e-10
        assert abs(G[1, 1] - float(tau_xy.subs(pt))) < 1e-10

    def test_sutherland_law(self):
        gasv = GasModel(gamma=1.4, R=287.0, mu=0.0, sutherland=True,
                        mu_ref=1.716e-5, T_ref=273.15, S=110.4)
        assert gasv.viscosity(273.15) == pytest.approx(1.716e-5, rel=1e-12)
        assert gasv.viscosity(400.0) > gasv.viscosity(300.0)


class TestLDG:
    def test_equal_states_consistency(self, gas):
        gasv = GasModel(gamma=1.4, R=1.0, mu=0.1)
        Q = state(gasv, rho=1.0, vel=(0.2, 0.1), p=1.0)
        g = np.zeros((1, 2, 4))
        g[0, 0, 0] = 0.3
        n = np.array([[1.0, 0.0]])
        Qs, Gs = ldg_interface(Q, Q, g, g, n, 0.5, 1.0, 2, gasv)
        assert np.abs(Qs - Q).max() < 1e-14
        Gn = np.sum(viscous_flux(Q, g, 2, gasv) * n[..., None], axis=-2)
        assert np.abs(Gs - Gn).max() < 1e-13

    def test_beta_zero_centers_both_stages(self, gas):
        gasv = GasModel(gamma=1.4, R=1.0, mu=0.1)
        QL = state(gasv, rho=1.0, vel=(0.2, 0.0), p=1.0)
        QR = state(gasv, rho=1.2, vel=(0.1, 0.1), p=1.1)
        gL = np.zeros((1, 2, 4))
        gR = np.ones((1, 2, 4)) * 0.1
        n = np.array([[0.0, 1.0]])
        Qs, Gs = ldg_interface(QL, QR, gL, gR, n, 0.0, 0.0, 2, gasv)
        assert np.abs(Qs - 0.5 * (QL + QR)).max() < 1e-14
        GLn = np.sum(viscous_flux(QL, gL, 2, gasv) * n[..., None], axis=-2)
        GRn = np.sum(viscous_flux(QR, gR, 2, gasv) * n[..., None], axis=-2)
        assert np.abs(Gs - 0.5 * (GLn + GRn)).max() < 1e-13

    def test_diffusion_patch_operator_is_dissipative(self):
        """1-D heat-equation patch: assemble the dense LDG update operator
        on a 4-quad strip and check its symmetric part is negative
        semi-definite (energy decays)."""
        from fluxrecon.fixtures import box_mesh_2d
        from fluxrecon.pipeline import SolverOptions, SolverRank
        from fluxrecon.prep import prepare_shards

        gasv = GasModel(gamma=1.4, R=1.0, Pr=1.0, mu=0.05)
        mesh = box_mesh_2d(4, 1, lengths=(4.0, 1.0), periodic=(True, True))
        shards = prepare_shards(mesh, np.zeros(4, np.int64), 1)
        opts = SolverOptions(p=2, viscous=True, fusion=False)
        s = SolverRank(shards[0], gasv, opts)

        # linearize the energy equation around rest: perturb E only
        base_T = 1.0
        rho0 = 1.0
        p0 = rho0 * gasv.R * base_T

        def base(x):
            n = x.shape[0]
            return conserved(np.full(n, rho0), np.zeros((n, 2)), np.full(n, p0), gasv)

        s.set_state(base)
        Q0 = s.Q_upts.copy()
        r0 = s.compute_residual(Q0.copy())
        ndof = Q0[:, 3, :].size
        A = np.zeros((ndof, ndof))
        eps = 1e-6
        for k in range(ndof):
            Q = Q0.copy()
            Q[:, 3, :].reshape(-1)[k] += eps
            r = s.compute_residual(Q)
            A[:, k] = ((r - r0)[:, 3, :].reshape(-1)) / eps
        sym = 0.5 * (A + A.T)
        eig = np.linalg.eigvalsh(sym)
        assert eig.max() < 1e-6  # NSD up to finite-difference noise


class TestBoundary:
    def test_slip_wall_reflects_normal_velocity(self, gas):
        Q = state(gas, rho=1.0, vel=(0.3, 0.4), p=1.0)
        n = np.array([[1.0, 0.0]])
        ghost = apply_boundary(BoundarySpec("w", "slip"), Q, n, 2, gas)
        gv = ghost[0, 1:3] / ghost[0, 0]
        assert abs(gv[0] - (-0.3)) < 1e-14
        assert abs(gv[1] - 0.4) < 1e-14

    def test_riemann_inflow_recovers_total_conditions(self):
        """Table-4 style total conditions are recovered at the face to
        0.1% for subsonic interior states."""
        gash = GasModel(gamma=1.4, R=287.0)
        T0, p0 = 709.0, 3.4474e5
        # interior at Mach 0.1 consistent with those totals
        M = 0.1
        T = T0 / (1 + 0.2 * M * M)
        p = p0 / (1 + 0.2 * M * M) ** 3.5
        rho = p / (287.0 * T)
        u = M * np.sqrt(1.4 * 287.0 * T)
        Q = conserved(np.array([rho]), np.array([[u, 0.0]]), np.array([p]), gash)
        n = np.array([[-1.0, 0.0]])  # inflow face: outward normal upstream
        spec = BoundarySpec("in", "riemann-inflow", total_temperature=T0,
                            total_pressure=p0, direction=np.array([1.0, 0.0]))
        ghost = apply_boundary(spec, Q, n, 2, gash)
        rg = ghost[0, 0]
        vg = ghost[0, 1:3] / rg
        pg = pressure(ghost, 2, gash)[0]
        Tg = pg / (rg * 287.0)
        Mg = np.linalg.norm(vg) / np.sqrt(1.4 * 287.0 * Tg)
        T0g = Tg * (1 + 0.2 * Mg ** 2)
        p0g = pg * (1 + 0.2 * Mg ** 2) ** 3.5
        assert abs(T0g - T0) / T0 < 1e-3
        assert abs(p0g - p0) / p0 < 1e-3

    def test_outflow_prescribes_back_pressure(self, gas):
        Q = state(gas, rho=1.0, vel=(0.3, 0.0), p=1.0)
        spec = BoundarySpec("out", "outflow", static_pressure=0.9)
        ghost = apply_boundary(spec, Q, np.array([[1.0, 0.0]]), 2, gas)
        assert abs(pressure(ghost, 2, gas)[0] - 0.9) < 1e-13

    def test_outflow_supersonic_extrapolates(self, gas):
        Q = state(gas, rho=1.0, vel=(3.0, 0.0), p=1.0)
        spec = BoundarySpec("out", "outflow", static_pressure=0.9)
        ghost = apply_boundary(spec, Q, np.array([[1.0, 0.0]]), 2, gas)
        assert np.abs(ghost - Q).max() < 1e-13

    def test_noslip_isothermal_wall(self):
        gash = GasModel(gamma=1.4, R=287.0)
        T_int = 300.0
        p = 101325.0
        rho = p / (287.0 * T_int)
        Q = conserved(np.array([rho]), np.array([[10.0, 5.0]]), np.array([p]), gash)
        spec = BoundarySpec("w", "noslip-isothermal", wall_temperature=320.0)
        ghost = apply_boundary(spec, Q, np.array([[0.0, 1.0]]), 2, gash)
        vg = ghost[0, 1:3] / ghost[0, 0]
        assert np.allclose(vg, [-10.0, -5.0], atol=1e-12)
        Tg = pressure(ghost, 2, gash)[0] / (ghost[0, 0] * 287.0)
        assert abs(0.5 * (Tg + T_int) - 320.0) < 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            BoundarySpec("w", "mystery")

    def test_periodic_ghost_equals_partner_interior(self, gas):
        """Through the aliased pairing, a periodic face exchanges the
        partner's interior values exactly."""
        from fluxrecon.fixtures import box_mesh_2d
        from fluxrecon.pipeline import SolverOptions, SolverRank
        from fluxrecon.prep import prepare_shards

        mesh = box_mesh_2d(3, 3, periodic=(True, False))
        shards = prepare_shards(mesh, np.zeros(9, np.int64), 1)
        bcs = {"ymin": BoundarySpec("ymin", "slip"),
               "ymax": BoundarySpec("ymax", "slip")}
        s = SolverRank(shards[0], gas, SolverOptions(p=2), boundary_specs=bcs)

        def field(x):
            # constant along the wrap direction, exactly representable in y
            rho = 1.0 + 0.05 * x[:, 1] + 0.02 * x[:, 1] ** 2
            return conserved(rho, np.zeros((x.shape[0], 2)), np.ones_like(rho), gas)

        s.set_state(field)
        s.compute_residual(s.Q_upts)
        pl, pr = s.loc_l, s.loc_r
        QL = s.Q_fpts[pl.e, :, pl.p]
        QR = s.Q_fpts[pr.e, :, pr.p]
        wrap = np.abs(s.x_fpts[pl.e, pl.p][:, 0] - s.x_fpts[pr.e, pr.p][:, 0]) > 0.5
        assert wrap.any()
        # the gathered partner values are exactly the partner's own
        # interpolated interior state (ghost = partner interior)
        partner_vals = s.Q_fpts[pr.e[wrap], :, pr.p[wrap]]
        assert np.array_equal(QR[wrap], partner_vals)
        # and for a periodic-representable field the two sides coincide
        assert np.abs(QL[wrap] - QR[wrap]).max() < 1e-12


class TestSponge:
    def zone(self):
        return SpongeZone(axis=0, lo=1.0, hi=2.0, ramp_width=0.5, strength=3.0,
                          reference_state=np.array([1.0, 0.0, 0.0, 2.5]))

    def test_outside_slab_zero(self, gas):
        z = self.zone()
        Q = state(gas, rho=1.4, vel=(0.2, 0.0), p=1.1)
        S = sponge_source(Q, z, np.array([[0.5, 0.0]]))
        assert np.all(S == 0)

    def test_reference_state_zero(self, gas):
        z = self.zone()
        Q = z.reference_state[None, :]
        S = sponge_source(Q, z, np.array([[1.8, 0.0]]))
        assert np.all(S == 0)

    def test_ramp_shape_and_bounds(self):
        z = self.zone()
        x = np.linspace(0.8, 2.2, 200)[:, None]
        x = np.concatenate([x, np.zeros_like(x)], axis=1)
        sig = z.sigma(x)
        assert sig.min() >= 0 and sig.max() <= 3.0 + 1e-12
        inside = (x[:, 0] >= 1.0) & (x[:, 0] <= 2.0)
        assert np.all(sig[~inside] == 0)
        assert np.all(np.diff(sig[inside]) >= -1e-12)

    def test_exponential_decay_matches_ode(self, gas):
        """A state fully inside the sponge at full strength decays like
        exp(-sigma t) through the RK integrator to its order."""
        from fluxrecon.fixtures import box_mesh_2d
        from fluxrecon.pipeline import SolverOptions, SolverRank
        from fluxrecon.prep import prepare_shards

        sigma0 = 2.0
        ref = conserved(np.array([1.0]), np.array([[0.0, 0.0]]),
                        np.array([1.0]), gas)[0]
        zone = SpongeZone(axis=0, lo=-10.0, hi=10.0, ramp_width=1e-6,
                          strength=sigma0, reference_state=ref)
        mesh = box_mesh_2d(3, 3, lengths=(1.0, 1.0), periodic=(True, True))
        shards = prepare_shards(mesh, np.zeros(9, np.int64), 1)
        s = SolverRank(shards[0], gas, SolverOptions(p=1), sponge_zones=[zone])

        def init(x):
            n = x.shape[0]
            return conserved(np.full(n, 1.2), np.zeros((n, 2)), np.ones(n), gas)

        s.set_state(init)
        dt = 0.01
        s.step_in_place(dt)
        # rho is spatially uniform: the PDE terms vanish and each point obeys
        # d(rho)/dt = -sigma (rho - 1)
        drho0 = 0.2
        z = sigma0 * dt
        rk3 = 1 - z + z ** 2 / 2 - z ** 3 / 6
        expect = 1.0 + drho0 * rk3
        got = s.Q_upts[:, 0, :]
        assert np.abs(got - expect).max() < 1e-12
        assert abs(expect - (1.0 + drho0 * np.exp(-z))) < drho0 * z ** 4 / 6


def _point_last(a):
    """The values of ``a`` (npts, ...) as a view of a C-ordered buffer whose
    point axis is last, as the solver passes its variable-major buffers."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def _is_point_last(a):
    return np.moveaxis(a, 0, -1).flags.c_contiguous


class TestLayoutIndependence:
    """Each point-wise function gives bitwise the same values for C-ordered
    (npts, nv) inputs and for the same data as transposed views of
    variable-major buffers; with no ``out=`` its result follows the layout
    of its input."""

    N = 211

    def _case(self, dim, seed=0):
        rng = np.random.default_rng(seed + dim)
        gas = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=2e-2)
        n = self.N

        def states(scale):
            vel = scale * rng.standard_normal((n, dim))
            return conserved(1.0 + 0.5 * rng.random(n), vel, 0.8 + 0.5 * rng.random(n), gas)

        nrm = rng.standard_normal((n, dim))
        nrm /= np.sqrt(np.sum(nrm * nrm, axis=-1))[:, None]
        return gas, {
            "QL": states(1.5), "QR": states(1.5), "n": nrm,
            "gL": 0.3 * rng.standard_normal((n, dim, dim + 2)),
            "gR": 0.3 * rng.standard_normal((n, dim, dim + 2)),
            "x": rng.random((n, dim)),
        }

    def _both(self, data, fn):
        """fn on the C-ordered inputs and on point-last views of them."""
        c = fn({k: np.ascontiguousarray(v) for k, v in data.items()})
        v = fn({k: _point_last(v) for k, v in data.items()})
        return c, v

    def _assert_same(self, c, v):
        assert c.shape == v.shape
        assert np.array_equal(c, v)
        assert _is_point_last(v) and not _is_point_last(c)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_inviscid_flux(self, dim):
        gas, data = self._case(dim)
        self._assert_same(*self._both(data, lambda a: inviscid_flux(a["QL"], dim, gas)))
        ref = inviscid_flux(data["QL"], dim, gas)
        for out in (np.full(ref.shape, np.nan), _point_last(np.full(ref.shape, np.nan))):
            Q = _point_last(data["QL"]) if _is_point_last(out) else data["QL"]
            assert inviscid_flux(Q, dim, gas, out=out) is out
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("solver", ["rusanov", "hllc"])
    def test_riemann_flux(self, dim, solver):
        gas, data = self._case(dim)
        diags = []

        def run(a):
            diags.append(physics.RiemannDiagnostics())
            return riemann_flux(a["QL"], a["QR"], a["n"], dim, gas, solver, diags[-1])

        self._assert_same(*self._both(data, run))
        assert diags[0].hllc_fallbacks == diags[1].hllc_fallbacks

    @pytest.mark.parametrize("dim", [2, 3])
    def test_viscous_flux(self, dim):
        gas, data = self._case(dim)
        self._assert_same(*self._both(
            data, lambda a: viscous_flux(a["QL"], a["gL"], dim, gas)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ldg_interface(self, dim):
        gas, data = self._case(dim)
        tau = np.linspace(0.5, 2.0, self.N)
        sw = physics.ldg_switch(data["n"])
        c, v = self._both(data, lambda a: ldg_interface(
            a["QL"], a["QR"], a["gL"], a["gR"], a["n"], 0.5, tau, dim, gas, switch=sw))
        for qc, qv in zip(c, v):
            self._assert_same(qc, qv)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["riemann-inflow", "outflow", "noslip-isothermal",
                                      "adiabatic", "slip", "sponge-ref", "prescribed"])
    def test_apply_boundary(self, dim, kind):
        gas, data = self._case(dim)
        ref_state = conserved(np.array([1.1]), np.full((1, dim), 0.2), np.array([0.9]), gas)[0]
        spec = BoundarySpec(
            "b", kind, total_temperature=1.05, total_pressure=1.3,
            direction=np.array([1.0, 0.3, -0.2][:dim]), static_pressure=0.95,
            wall_temperature=1.1, wall_velocity=np.array([0.1, -0.05, 0.02][:dim]),
            reference_state=ref_state,
            state_fn=lambda x: conserved(1.0 + 0.1 * x[..., 0], 0.1 * x,
                                         1.0 + 0.05 * x[..., 1], gas))
        diags = []

        def run(a):
            diags.append(physics.BoundaryDiagnostics())
            return apply_boundary(spec, a["QL"], a["n"], dim, gas, x=a["x"], diag=diags[-1])

        c, v = self._both(data, run)
        assert c.shape == v.shape and np.array_equal(c, v)
        assert diags[0].reversed_supersonic_inflow == diags[1].reversed_supersonic_inflow

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sponge_source(self, dim):
        gas, data = self._case(dim)
        zone = SpongeZone(axis=dim - 1, lo=0.4, hi=1.0, ramp_width=0.3, strength=3.0,
                          reference_state=data["QR"][0].copy())
        self._assert_same(*self._both(data, lambda a: sponge_source(a["QL"], zone, a["x"])))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sound_speed(self, dim):
        gas, data = self._case(dim)
        c, v = self._both(data, lambda a: physics.sound_speed(a["QL"], dim, gas))
        assert np.array_equal(c, v)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_check_positivity_names_same_cell_and_point(self, dim):
        gas, data = self._case(dim)
        Q = data["QL"].copy()
        Q[150, 0] = -1.0
        Q[97, -1] = 0.0  # the first bad point: zero energy, negative pressure
        messages = []
        for arr in (Q, _point_last(Q)):
            with pytest.raises(PositivityError) as err:
                physics.check_positivity(arr, dim, gas, cell_of_point=lambda i: 1000 + i // 4)
            messages.append((err.value.cell_id, str(err.value)))
        assert messages[0] == messages[1]
        assert messages[0][0] == 1000 + 97 // 4 and "point 97" in messages[0][1]


def test_isentropic_mach_roundtrip(gas):
    p0 = 2.0
    M = 0.7
    p = p0 / (1 + 0.2 * M * M) ** 3.5
    assert abs(isentropic_mach(np.array([p]), p0, gas)[0] - M) < 1e-12
