import warnings
from dataclasses import replace

import numpy as np
import pytest

from fluxrecon.errors import ConfigError, PositivityError
from fluxrecon.fixtures import (
    box_mesh,
    sod_mesh,
    sod_state,
    taylor_green_mesh,
    taylor_green_state,
    vortex_mesh,
    vortex_state,
)
from fluxrecon.perf import POINTWISE_COSTS
from fluxrecon.physics import BoundarySpec, GasModel, SpongeZone, conserved, sponge_source
from fluxrecon.pipeline import (
    SolverOptions,
    SolverRank,
    interpolate_state,
)
from fluxrecon.prep import SimCluster, prepare_shards
from fluxrecon.prep.transport import RankContext

from oracles import (
    GatherSpongeSolver,
    random_partition,
    reference_residual,
    unfused_step,
)


def serial_solver(mesh, gas, opts, **kw):
    shards = prepare_shards(mesh, np.zeros(len(mesh.cells), np.int64), 1)
    return SolverRank(shards[0], gas, opts, **kw)


class TestResidual:
    def test_uniform_flow_periodic_box(self, gas):
        mesh = box_mesh(4, 4, periodic=(True, True), perturb=0.2, seed=2)
        s = serial_solver(mesh, gas, SolverOptions(p=3))

        def uniform(x):
            n = x.shape[0]
            return conserved(np.ones(n), np.tile([0.4, -0.3], (n, 1)),
                             np.full(n, 0.8), gas)

        s.set_state(uniform)
        assert np.abs(s.compute_residual(s.Q_upts)).max() < 1e-11

    @pytest.mark.parametrize("dim,p", [(2, 3), (2, 4), (3, 2)])
    def test_matches_dense_reference(self, dim, p, gas):
        if dim == 2:
            mesh = box_mesh(4, 4, lengths=(16.0, 16.0), origin=(-8, -8),
                            periodic=(True, True), perturb=0.2, seed=1)
            init = lambda x: vortex_state(x, 0.0, gas)
        else:
            mesh = box_mesh(3, 3, 3, lengths=(2 * np.pi,) * 3,
                            periodic=(True,) * 3, perturb=0.2, seed=7)
            init = lambda x: taylor_green_state(x, gas)
        s = serial_solver(mesh, gas, SolverOptions(p=p))
        s.set_state(init)
        r = s.compute_residual(s.Q_upts)
        ref = reference_residual(mesh, s.Q_upts, p, gas)
        rel = np.abs(r - ref).max() / np.abs(ref).max()
        assert rel < 1e-12

    def test_manufactured_solution_forcing(self, gas):
        """Single element with prescribed-state boundaries: polynomial
        fields whose fluxes stay in the basis make residual + source = 0."""
        import sympy as sp

        x, y = sp.symbols("x y")
        gamma = sp.Rational(7, 5)
        rho_s = sp.Integer(1)
        u_s = sp.Rational(1, 5) + sp.Rational(1, 10) * x + sp.Rational(1, 20) * y
        v_s = sp.Rational(-1, 10) + sp.Rational(1, 15) * x
        p_s = 1 + sp.Rational(1, 10) * x
        E_s = p_s / (gamma - 1) + rho_s * (u_s ** 2 + v_s ** 2) / 2
        cons = [rho_s, rho_s * u_s, rho_s * v_s, E_s]
        Fx = [rho_s * u_s, rho_s * u_s ** 2 + p_s, rho_s * u_s * v_s, u_s * (E_s + p_s)]
        Fy = [rho_s * v_s, rho_s * u_s * v_s, rho_s * v_s ** 2 + p_s, v_s * (E_s + p_s)]
        source = [sp.lambdify((x, y), sp.diff(fx, x) + sp.diff(fy, y))
                  for fx, fy in zip(Fx, Fy)]
        exact = [sp.lambdify((x, y), c) for c in cons]

        def exact_fn(pts):
            return np.stack([f(pts[..., 0], pts[..., 1]) * np.ones(pts.shape[:-1])
                             for f in exact], axis=-1)

        mesh = box_mesh(1, 1)
        spec = BoundarySpec("d", "prescribed", state_fn=exact_fn)
        bcs = {name: BoundarySpec(name, "prescribed", state_fn=exact_fn)
               for name in ("xmin", "xmax", "ymin", "ymax")}
        s = serial_solver(mesh, gas, SolverOptions(p=3), boundary_specs=bcs)
        s.set_state(exact_fn)
        r = s.compute_residual(s.Q_upts)
        xs = s.x_upts.reshape(-1, 2)
        S = np.stack([f(xs[:, 0], xs[:, 1]) * np.ones(xs.shape[0])
                      for f in source], axis=-1)
        total = r + np.moveaxis(S.reshape(1, -1, 4), 1, 2)
        assert np.abs(total).max() < 1e-10

    def test_positivity_failure_names_cell(self, gas):
        """A negative density fails the residual before any kernel takes
        the square root of its negative gamma p / rho: no warning is
        raised on the way."""
        mesh = box_mesh(3, 3, periodic=(True, True))
        s = serial_solver(mesh, gas, SolverOptions(p=1))
        s.set_state(lambda x: conserved(np.ones(x.shape[0]),
                                        np.zeros((x.shape[0], 2)),
                                        np.ones(x.shape[0]), gas))
        s.Q_upts[4, 0, :] = -1.0
        with pytest.raises(PositivityError) as err, warnings.catch_warnings():
            warnings.simplefilter("error")
            s.compute_residual(s.Q_upts)
        assert err.value.cell_id == 4


class TestVolumeSweep:
    """The inviscid residual forms each block's primitives once, in the
    volume pass, for the flux, the positivity check and, in the first
    stage of a step, the signal speeds of the CFL dt."""

    @pytest.mark.parametrize("dim, block_kb", [(2, 4), (3, 35)])
    @pytest.mark.parametrize("viscous", [False, True])
    def test_block_plan_counts_the_block_scratch(self, dim, block_kb, viscous):
        """``bytes_per_element`` is the per-element size of every buffer
        the solver allocates one block deep (block axis before the point
        axis), quad and hex, inviscid and viscous: one transformed-flux
        buffer either way, so the same budget gives the same blocks."""
        gasv = GasModel(gamma=1.4, R=1.0, mu=1e-3 if viscous else 0.0)
        s = serial_solver(box_mesh(*(5,) * dim, periodic=(True,) * dim), gasv,
                          SolverOptions(p=2, viscous=viscous, block_kb=block_kb))
        nb = s.block_plan.block_elements
        assert nb == (7 if dim == 2 else 11) < s.ne
        scratch = {name: a for name, a in vars(s).items()
                   if isinstance(a, np.ndarray) and a.ndim >= 2 and a.shape[-2] == nb}
        assert list(scratch) == ["Fhat_upts"]
        assert sum(a.nbytes for a in scratch.values()) == nb * s.block_plan.bytes_per_element
        assert s.block_plan.bytes_per_element == s.dim * s.nv * s.Ns * 8

    def test_primitives_once_per_block_and_never_on_the_full_state(self, gas, monkeypatch):
        """One step of run_steps (its CFL dt included) calls
        ``physics.primitives`` on solution-point states once per block in
        each of its three residuals, and never on the whole state."""
        from fluxrecon import physics

        s = serial_solver(vortex_mesh(6), gas, SolverOptions(p=3, block_kb=8))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        blocks = [hi - lo for lo, hi in s.block_plan.blocks()]
        assert blocks == [8, 8, 8, 8, 4]
        rows = []
        primitives = physics.primitives

        def spy(Q, dim, gas):
            if Q.shape[-2:] == (s.Ns, s.nv):  # solution points (n, Ns, nv)
                rows.append(Q.shape[0])
            return primitives(Q, dim, gas)

        monkeypatch.setattr(physics, "primitives", spy)
        s.run_steps(1)
        assert rows == blocks * 3

    def test_run_steps_takes_the_dt_of_compute_dt(self, gas, tmp_path):
        """The dt a step of run_steps forms from its first residual is
        compute_dt's, bit for bit: vortex, viscous TGV and the cascade on
        two ranks, with its sponges and boundaries."""
        from fluxrecon import driver
        from fluxrecon.fixtures import make_fixture
        from fluxrecon.io.config import RunConfig

        def dts(s):
            out = []
            for _ in range(2):
                expect = s.compute_dt(s.Q_upts)
                out.append((s.run_steps(1), expect))
            return out

        def build(case, size, nranks):
            mesh_path, cfg_path = make_fixture(case, str(tmp_path / case), size=size)
            cfg = RunConfig.load(cfg_path)
            mesh = driver.load_mesh(mesh_path, cfg)
            shards = prepare_shards(mesh, np.repeat(np.arange(nranks), len(mesh.cells)
                                                    // nranks), nranks)

            def prog(ctx):
                s = driver.build_solver(shards[ctx.rank], cfg, ctx=ctx)
                driver.initialize(s, cfg)
                return dts(s)
            if nranks == 1:
                return [prog(RankContext(0, 1, None))]
            return SimCluster(nranks, seed=0).run(prog)

        got = build("vortex", 6, 1) + build("tgv", 3, 1) + build("ls89-2d", 24, 2)
        assert all(a == b and b > 0 for rank in got for a, b in rank)

    @pytest.mark.parametrize("viscous", [False, True])
    def test_first_stage_failure_fails_every_rank_without_warnings(self, viscous):
        """A negative density on rank 1 fails run_steps on both ranks with
        warnings as errors: every rank enters the dt reduction, rank 1
        names the cell and rank 0 reports cell -1."""
        gasv = GasModel(gamma=1.4, R=1.0, mu=1e-3 if viscous else 0.0)
        mesh = box_mesh(4, 3, periodic=(True, True))
        shards = prepare_shards(mesh, np.repeat(np.arange(2), 6), 2)

        def prog(ctx):
            s = SolverRank(shards[ctx.rank], gasv, SolverOptions(p=1, viscous=viscous),
                           ctx=ctx)
            s.set_state(lambda x: vortex_state(x, 0.0, gasv))
            if ctx.rank == 1:
                s.Q_upts[2, 0, :] = -1.0
            try:
                s.run_steps(1)
            except PositivityError as exc:
                return exc.cell_id, int(s.gids[2])
            return None

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (cell0, _), (cell1, gid) = SimCluster(2, seed=0).run(prog)
        assert cell0 == -1 and cell1 == gid


class TestFoldedOperator:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_fold_equals_the_trace_sequence(self, gas, dim, p):
        """The folded divergence ``sum_ax F[ax] fold_T[ax]`` plus the
        correction of the common flux equals the unfolded sequence:
        interpolate each flux row to the flux points, take the outward
        normal trace (the row of each face's normal axis times its side),
        subtract it from the common flux, then divergence plus correction
        of that jump."""
        s = serial_solver(box_mesh(*(3,) * dim, periodic=(True,) * dim), gas,
                          SolverOptions(p=p))
        ref = s.ref
        rng = np.random.default_rng(10 * dim + p)
        F = rng.standard_normal((dim, 12, s.Ns))
        Fc = rng.standard_normal((12, s.nf))
        trace = np.full((12, s.nf), np.nan)
        for f, info in enumerate(ref.face_info):
            sl = ref.face_slice(f)
            trace[:, sl] = info.side * (F[info.normal_axis] @ ref.interp_to_faces.T)[:, sl]
        expect = (sum(F[ax] @ ref.div_operators[ax].T for ax in range(dim))
                  + (Fc - trace) @ ref.correction_matrix.T)
        got = sum(F[ax] @ s.fold_T[ax] for ax in range(dim)) + Fc @ s.corr_T
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestTimeStepping:
    def test_zero_residual_keeps_state(self, gas):
        mesh = box_mesh(3, 3, periodic=(True, True))
        s = serial_solver(mesh, gas, SolverOptions(p=2))
        s.set_state(lambda x: conserved(np.ones(x.shape[0]),
                                        np.zeros((x.shape[0], 2)),
                                        np.ones(x.shape[0]), gas))
        q0 = s.Q_upts.copy()
        s.step_in_place(0.05)
        assert np.abs(s.Q_upts - q0).max() < 1e-13

    def test_ssprk3_scalar_decay_polynomial(self):
        """One step of dy/dt = -y matches the stability polynomial
        1 - z + z^2/2 - z^3/6 exactly; its distance to exp(-z) is the
        scheme's own O(z^4) truncation (4.09e-6 at z = 0.1).  The step's
        stages are its coefficients and ``shu_osher_stage`` on R(u) = -u."""
        from types import SimpleNamespace

        from fluxrecon.pipeline.solver import shu_osher_stage

        def compute_residual(U, stage):
            Q, dt, coeffs = stage
            decay.last_dt = dt
            return shu_osher_stage(-U, Q, U, dt, coeffs)

        dt = 0.1
        decay = SimpleNamespace(compute_residual=compute_residual)
        y1 = SolverRank.advance_step(decay, np.array([1.0]), dt)[0]
        poly = 1 - dt + dt ** 2 / 2 - dt ** 3 / 6
        assert abs(y1 - poly) < 1e-15
        assert abs(y1 - np.exp(-dt)) < 5e-6  # oracle value 4.0873e-06

    def test_third_order_convergence_on_linear_system(self, gas):
        """Halving dt cuts the time-integration error by ~8; measured
        against a tiny-dt reference run so spatial error cancels."""
        mesh = box_mesh(6, 6, lengths=(2.0, 2.0), periodic=(True, True))
        T = 0.2

        def march(dt):
            s = serial_solver(mesh, gas, SolverOptions(p=4))
            s.set_state(lambda x: _wave(x, 0.0, gas))
            t = 0.0
            while t < T - 1e-12:
                step = min(dt, T - t)
                s.step_in_place(step)
                t += step
            return s.Q_upts

        ref = march(2.5e-4)
        e1 = np.abs(march(4e-3) - ref).max()
        e2 = np.abs(march(2e-3) - ref).max()
        ratio = e1 / e2
        assert 8 * 0.8 < ratio < 8 * 1.25

    def test_step_is_the_written_out_ssprk3_combination(self, gas):
        """advance_step gives bitwise the SSP-RK3 stages written out:
        u1 = dt R(u0) + u0, u2 = (dt/4) R(u1) + 3/4 u0 + 1/4 u1 and
        u3 = (2 dt/3) R(u2) + 1/3 u0 + 2/3 u2, each summed left to right."""
        s = serial_solver(vortex_mesh(6), gas, SolverOptions(p=3, block_kb=8))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        u0, dt = s.Q_upts.copy(), 0.003
        R = s.compute_residual
        u1 = (1.0 * dt) * R(u0) + 1.0 * u0
        u2 = (0.25 * dt) * R(u1) + 0.75 * u0 + 0.25 * u1
        u3 = (2.0 / 3.0 * dt) * R(u2) + 1.0 / 3.0 * u0 + 2.0 / 3.0 * u2
        got = s.advance_step(u0, dt)
        assert np.array_equal(got, u3)
        assert np.array_equal(s.Q_upts, u0)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_step_rejects_dt_that_is_not_finite_and_positive(self, gas, dt):
        s = serial_solver(vortex_mesh(3), gas, SolverOptions(p=1))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        with pytest.raises(ConfigError, match="dt must be finite and positive"):
            s.advance_step(s.Q_upts, dt)

    @pytest.mark.parametrize("cfl", [float("nan"), float("inf"), 0.0, -0.5])
    def test_options_reject_cfl_that_is_not_finite_and_positive(self, cfl):
        with pytest.raises(ConfigError, match="solver.cfl"):
            SolverOptions(cfl=cfl)

    @pytest.mark.parametrize("p", [-1, 9, 2.5, True, "3"])
    def test_options_reject_p_that_is_not_an_integer_in_0_to_8(self, p):
        with pytest.raises(ConfigError, match="solver.p"):
            SolverOptions(p=p)

    @pytest.mark.parametrize("p", [-1, 9, 2.5, True, "3"])
    def test_options_reject_startup_p_that_is_not_an_integer_in_0_to_8(self, p):
        with pytest.raises(ConfigError, match="solver.startup_p"):
            SolverOptions(startup_p=p)

    @pytest.mark.parametrize("steps", [-1, 2.5, True])
    def test_options_reject_startup_steps_that_is_not_a_non_negative_integer(self, steps):
        with pytest.raises(ConfigError, match="solver.startup_steps"):
            SolverOptions(startup_steps=steps)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1])
    def test_options_reject_ldg_tau_scale_that_is_not_finite_and_non_negative(self, tau):
        with pytest.raises(ConfigError, match="solver.ldg_tau_scale"):
            SolverOptions(ldg_tau_scale=tau)

    def test_options_reject_unknown_riemann_solver(self):
        with pytest.raises(ConfigError, match="solver.riemann"):
            SolverOptions(riemann="roe")

    def test_dt_formula_unit_cube(self, gas):
        mesh = box_mesh(1, 1, 1)
        bcs = {n: BoundarySpec(n, "slip")
               for n in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")}
        # stagnant state with c = 1: rho = 1.4, p = 1 under gamma = 1.4
        for p, expect in ((0, 1.0), (1, 1.0 / 3.0)):
            s = serial_solver(mesh, gas, SolverOptions(p=p, cfl=1.0),
                              boundary_specs=bcs)
            s.set_state(lambda x: conserved(np.full(x.shape[0], 1.4),
                                            np.zeros((x.shape[0], 3)),
                                            np.ones(x.shape[0]), gas))
            assert s.compute_dt(s.Q_upts) == pytest.approx(expect, rel=1e-12)

    def test_dt_equals_bruteforce_reduction(self, gas, rng):
        mesh = box_mesh(5, 4, periodic=(True, True), perturb=0.2, seed=3)
        s = serial_solver(mesh, gas, SolverOptions(p=2, cfl=0.8))
        s.set_state(lambda x: vortex_state(x * 0.5, 0.0, gas))
        dt = s.compute_dt(s.Q_upts)
        best = np.inf
        Qp = np.moveaxis(s.Q_upts, 1, 2)
        for e in range(s.ne):
            rho = Qp[e, :, 0]
            vel = Qp[e, :, 1:3] / rho[:, None]
            pr = 0.4 * (Qp[e, :, 3] - 0.5 * rho * np.sum(vel ** 2, axis=1))
            sig = (np.sqrt(np.sum(vel ** 2, axis=1)) + np.sqrt(1.4 * pr / rho)).max()
            best = min(best, s.h_min[e] / (sig * 5))
        assert dt == pytest.approx(0.8 * best, rel=1e-13)

    def test_dt_rejects_nan_on_every_rank(self, gas):
        """A NaN on one rank fails compute_dt on both, after the reduction,
        so neither rank is left waiting in the collective; the rank holding
        the NaN names its cell."""
        mesh = box_mesh(4, 3, periodic=(True, True))
        shards = prepare_shards(mesh, np.repeat(np.arange(2), 6), 2)

        def prog(ctx):
            s = SolverRank(shards[ctx.rank], gas, SolverOptions(p=1), ctx=ctx)
            s.set_state(lambda x: vortex_state(x, 0.0, gas))
            if ctx.rank == 1:
                s.Q_upts[2, 1, 0] = np.nan
            try:
                s.compute_dt(s.Q_upts)
            except PositivityError as exc:
                return exc.cell_id, int(s.gids[2])
            return None

        (cell0, _), (cell1, gid) = SimCluster(2, seed=0).run(prog)
        assert cell0 == -1 and cell1 == gid

    def test_startup_order_switch(self, gas):
        Q = np.zeros((2, 4, 4))
        Q[:, 0, :] = np.arange(4)
        out = interpolate_state(Q, "quad", 1, 3)
        assert out.shape == (2, 4, 16)
        # constant-per-variable fields transfer exactly
        Qc = np.ones((2, 4, 4))
        assert np.abs(interpolate_state(Qc, "quad", 1, 3) - 1).max() < 1e-13


class TestFusedStage:
    """advance_step forms each RK stage in the last block loop of its
    residual, bit for bit the unfused Shu-Osher step
    (``oracles.unfused_step``), with the CFL dt and with a fixed dt."""

    @staticmethod
    def _check(s, fixed):
        Q = s.Q_upts
        kept = Q.copy()
        dt = 0.5 * s.compute_dt(Q) if fixed else None
        expect, expect_dt = unfused_step(s, Q, dt)
        got = s.advance_step(Q, dt)
        assert np.array_equal(got, expect) and s.last_dt == expect_dt
        assert np.array_equal(Q, kept)
        assert not np.array_equal(got, Q)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_vortex(self, gas, fixed):
        s = serial_solver(vortex_mesh(6), gas, SolverOptions(p=3, block_kb=8))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        assert len(s.block_plan.blocks()) > 1
        self._check(s, fixed)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_viscous_walls(self, fixed):
        """The viscous wall box at CFL 0.3 (its CFL-1 dt is too long for
        the LDG penalty, see ROADMAP item 1)."""
        s = serial_solver(_wall_mesh(), WALL_GAS,
                          SolverOptions(p=2, viscous=True, block_kb=7, cfl=0.3),
                          boundary_specs=WALL_BCS)
        s.set_state(_wall_field)
        assert len(s.block_plan.blocks()) > 1
        self._check(s, fixed)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_cascade_two_ranks(self, tmp_path, fixed):
        from fluxrecon import driver

        def prog(shard, cfg, ctx):
            s = driver.build_solver(shard, cfg, ctx=ctx,
                                    options=replace(cfg.solver_options(), block_kb=8))
            driver.initialize(s, cfg)
            s.set_state(_perturbed(s.Q_upts))
            assert len(s.block_plan.blocks()) > 1 and s.sponge_runs
            self._check(s, fixed)

        _on_cascade(tmp_path, prog)

    def test_step_allocates_no_full_state_temporary(self, gas):
        """Under tracemalloc one step's peak above the memory it starts
        with is at most a bare residual's peak (its output included) plus
        one state, the register of the stage before: no full-state
        temporary is formed beside the stage registers.  The state (1.2 MB)
        is larger than a pair chunk's temporaries and spans 37 blocks, so
        one more full state would break the bound."""
        import tracemalloc

        s = serial_solver(vortex_mesh(64), gas, SolverOptions(p=2, block_kb=64))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        assert len(s.block_plan.blocks()) == 37
        Q, dt = s.Q_upts, 1e-3
        state = Q.nbytes
        s.advance_step(Q, dt)  # the first call's ledger entries and caches
        tracemalloc.start()
        try:
            def peak(run):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base

            residual = peak(lambda: s.compute_residual(Q))
            step = peak(lambda: s.advance_step(Q, dt))
        finally:
            tracemalloc.stop()
        assert state < residual < 2 * state
        assert step <= residual + state


def _perturbed(Q):
    """A state function for ``set_state`` that ripples Q point by point
    (the cascade starts from the uniform stream its sponges hold)."""
    rows = np.ascontiguousarray(Q).transpose(0, 2, 1).reshape(-1, Q.shape[1])
    ripple = 1.0 + 0.02 * np.sin(np.arange(rows.shape[0]) * 0.37)[:, None]
    return lambda x: rows * ripple


def _on_cascade(tmp_path, prog):
    """``prog(shard, cfg, ctx)`` on each rank of the cascade fixture (24 x 8
    quads) split over two simulated ranks; returns the ranks' results."""
    from fluxrecon import driver
    from fluxrecon.fixtures import make_fixture
    from fluxrecon.io.config import RunConfig

    mesh_path, cfg_path = make_fixture("ls89-2d", str(tmp_path / "ls89-2d"), size=24)
    cfg = RunConfig.load(cfg_path)
    mesh = driver.load_mesh(mesh_path, cfg)
    shards = prepare_shards(mesh, np.repeat(np.arange(2), len(mesh.cells) // 2), 2)
    return SimCluster(2, seed=0).run(lambda ctx: prog(shards[ctx.rank], cfg, ctx))


def _wave(x, t, gas):
    rho = 1.0 + 0.01 * np.sin(2 * np.pi * (x[..., 0] - t) / 2.0)
    vel = np.stack([np.ones_like(rho), np.zeros_like(rho)], axis=-1)
    return conserved(rho, vel, np.ones_like(rho), gas)


class TestConservation:
    def test_periodic_conservation_2d(self, gas):
        mesh = vortex_mesh(8)
        s = serial_solver(mesh, gas, SolverOptions(p=3, cfl=0.4,
                                                   deterministic=True))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        m0 = s.integrate_conserved()
        s.run_steps(20)
        m1 = s.integrate_conserved()
        rel = np.abs(m1 - m0) / np.maximum(np.abs(m0), 1e-30)
        assert rel.max() < 1e-12

    def test_viscous_conservation(self):
        gasv = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1e-3)
        mesh = box_mesh(6, 6, lengths=(16.0, 16.0), origin=(-8, -8),
                        periodic=(True, True))
        s = serial_solver(mesh, gasv, SolverOptions(p=2, cfl=0.3, viscous=True))
        s.set_state(lambda x: vortex_state(x, 0.0, gasv))
        m0 = s.integrate_conserved()
        s.run_steps(10)
        m1 = s.integrate_conserved()
        rel = np.abs(m1 - m0) / np.maximum(np.abs(m0), 1e-30)
        assert rel.max() < 1e-12


class TestFusion:
    def build_pair(self, gas, viscous=False):
        gasx = GasModel(gamma=1.4, R=1.0, mu=1e-3 if viscous else 0.0)
        mesh = vortex_mesh(8)
        on = serial_solver(mesh, gasx, SolverOptions(p=3, fusion=True,
                                                     viscous=viscous, block_kb=64))
        off = serial_solver(mesh, gasx, SolverOptions(p=3, fusion=False,
                                                      viscous=viscous, block_kb=64))
        return on, off

    def random_state(self, s, gas, seed):
        rng = np.random.default_rng(seed)
        Q = vortex_state(s.x_upts.reshape(-1, 2), 0.0, gas)
        Q = Q * (1 + 0.02 * rng.standard_normal(Q.shape))
        return np.ascontiguousarray(np.moveaxis(Q.reshape(s.ne, -1, 4), 1, 2))

    def test_bitwise_identical_and_less_traffic(self, gas):
        on, off = self.build_pair(gas)
        for seed in range(10):
            Q = self.random_state(on, gas, seed)
            r_on = on.compute_residual(Q.copy())
            r_off = off.compute_residual(Q.copy())
            assert np.array_equal(r_on, r_off)  # <= 2 ULP trivially
        assert on.ledger.total_bytes < off.ledger.total_bytes
        assert on.ledger.total_flops == off.ledger.total_flops

    def test_traffic_matches_analytic_model(self, gas):
        """Fusing drops exactly the intermediate's write+read: the physical
        flux in the volume group."""
        on, off = self.build_pair(gas)
        Q = self.random_state(on, gas, 0)
        on.compute_residual(Q.copy())
        off.compute_residual(Q.copy())
        d, nv = 2, 4
        Ns = on.ref.num_solution_points
        per_elem = (d * nv * Ns) * 2 * 8
        expect = off.ledger.total_bytes - on.ne * per_elem
        got = on.ledger.total_bytes
        assert abs(got - expect) / expect < 0.05

    def test_viscous_fusion_equivalence(self, gas):
        on, off = self.build_pair(gas, viscous=True)
        Q = self.random_state(on, gas, 3)
        assert np.array_equal(on.compute_residual(Q.copy()),
                              off.compute_residual(Q.copy()))


class TestDoubleBuffering:
    def test_block_plan_respects_budget(self):
        from fluxrecon.pipeline import BlockPlan

        plan = BlockPlan(num_elements=100, bytes_per_element=1000,
                         budget_bytes=256 * 1024)
        assert plan.block_elements == 100
        plan = BlockPlan(num_elements=100, bytes_per_element=64 * 1024,
                         budget_bytes=256 * 1024)
        assert plan.block_elements == 4
        blocks = plan.blocks()
        assert blocks[0] == (0, 4) and blocks[-1][1] == 100

    def test_deterministic_mode_block_invariance(self, gas):
        """Blocks of 12 and 1 elements, and 8-element blocks with a
        partial last block (36 = 4 * 8 + 4), give the single-block bits."""
        mesh = vortex_mesh(6)
        a = serial_solver(mesh, gas, SolverOptions(p=3, deterministic=True))
        a.set_state(lambda x: vortex_state(x, 0.0, gas))
        assert a.block_plan.blocks() == [(0, 36)]
        ref = a.compute_residual(a.Q_upts)
        for block_kb, last in ((12, 12), (1, 1), (8, 4)):
            b = serial_solver(mesh, gas, SolverOptions(p=3, deterministic=True,
                                                       block_kb=block_kb))
            b.set_state(lambda x: vortex_state(x, 0.0, gas))
            lo, hi = b.block_plan.blocks()[-1]
            assert hi - lo == last
            assert np.array_equal(b.compute_residual(b.Q_upts), ref)


class TestBlockScratch:
    @pytest.mark.parametrize("viscous", [False, True])
    def test_scratch_is_one_block_deep(self, viscous, gas):
        s = serial_solver(vortex_mesh(6), gas,
                          SolverOptions(p=3, viscous=viscous, block_kb=8))
        nb = s.block_plan.block_elements
        assert nb == 8 < s.ne
        # the block axis is the one before the point axis
        assert s.Fhat_upts.shape[-2] == nb
        for name in ("F_upts", "Fown_fpts", "Fhat_fpts", "jump_fpts", "dQdt",
                     "divF_upts", "G_upts", "slot_normal", "slot_area"):
            assert not hasattr(s, name), name

    def test_residual_is_a_new_array_each_call(self, gas):
        s = serial_solver(vortex_mesh(6), gas, SolverOptions(p=3, block_kb=8))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        Q = s.Q_upts.copy()
        first = s.compute_residual(Q)
        kept = first.copy()
        second = s.compute_residual(1.01 * Q)
        assert second is not first and not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("viscous", [False, True])
    def test_dropped_solver_is_freed_without_the_cycle_collector(self, viscous, gas):
        """A solver holds no reference cycle, so deleting its last
        reference frees it and its arrays at once."""
        import gc
        import weakref

        s = serial_solver(vortex_mesh(4), gas, SolverOptions(p=2, viscous=viscous))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        gc.disable()
        try:
            s.run_steps(1)
            ref = weakref.ref(s)
            del s
            assert ref() is None
        finally:
            gc.enable()


# a perturbed 6x5 box with inflow, outflow and two kinds of wall
WALL_GAS = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1e-2)
WALL_BCS = {
    "xmin": BoundarySpec("xmin", "riemann-inflow", total_temperature=1.02,
                         total_pressure=1.06, direction=np.array([1.0, 0.1])),
    "xmax": BoundarySpec("xmax", "outflow", static_pressure=0.98),
    "ymin": BoundarySpec("ymin", "adiabatic"),
    "ymax": BoundarySpec("ymax", "noslip-isothermal", wall_temperature=1.05),
}


def _wall_mesh():
    return box_mesh(6, 5, perturb=0.2, seed=4)


def _wall_field(x):
    rho = 1.0 + 0.05 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    vel = np.stack([0.3 + 0.05 * x[:, 1], 0.04 * np.sin(4.0 * x[:, 0])], axis=-1)
    return conserved(rho, vel, 1.0 + 0.02 * x[:, 0], WALL_GAS)


def _walled_solver(viscous, riemann="rusanov"):
    """The wall box on one rank, in element blocks of 12 with a partial last
    block (30 = 2 * 12 + 6)."""
    s = serial_solver(_wall_mesh(), WALL_GAS,
                      SolverOptions(p=2, viscous=viscous, riemann=riemann,
                                    block_kb=7),
                      boundary_specs=WALL_BCS)
    s.set_state(_wall_field)
    return s


class TestVariableMajor:
    @staticmethod
    def _is_variable_major(a):
        return a.transpose(1, 0, 2).flags.c_contiguous

    def test_state_and_residual_keep_the_layout(self):
        s = _walled_solver(viscous=True)
        assert s.Q_upts.shape == (s.ne, s.nv, s.Ns)
        assert self._is_variable_major(s.Q_upts)
        r = s.compute_residual(s.Q_upts)
        assert r.shape == s.Q_upts.shape and self._is_variable_major(r)
        s.step_in_place(1e-3)
        assert self._is_variable_major(s.Q_upts)

    @pytest.mark.parametrize("viscous", [False, True])
    def test_c_ordered_state_gives_the_same_bits(self, viscous):
        s = _walled_solver(viscous)
        Q = s.Q_upts
        C = np.ascontiguousarray(Q)
        assert C.flags.c_contiguous and not Q.flags.c_contiguous
        a = s.compute_residual(Q)
        b = s.compute_residual(C)
        assert np.array_equal(a, b)
        assert self._is_variable_major(b)

    def test_residual_leaves_the_state_alone(self):
        s = _walled_solver(viscous=True)
        Q = s.Q_upts
        kept = Q.copy()
        s.compute_residual(1.01 * Q)
        assert s.Q_upts is Q
        assert np.array_equal(s.Q_upts, kept)
        # a step too long for this state fails in the third stage's
        # residual, and the state is still the one before the step
        residual, stages = s.compute_residual, []
        s.compute_residual = lambda *args: stages.append(args) or residual(*args)
        with pytest.raises(PositivityError), np.errstate(invalid="ignore"):
            s.step_in_place(0.015)
        assert len(stages) == 3
        assert s.Q_upts is Q
        assert np.array_equal(s.Q_upts, kept)

    @pytest.mark.parametrize("riemann", ["rusanov", "hllc"])
    def test_physics_kernels_get_contiguous_component_rows(self, riemann, monkeypatch):
        """Every state, flux, gradient, normal and metric component that a
        residual hands a physics kernel is one C-contiguous row."""
        from fluxrecon import physics

        def rows(a, axes):
            """Components of ``a`` over its last ``axes`` axes."""
            return [a[(...,) + i] for i in np.ndindex(*a.shape[a.ndim - axes:])]

        # kernel -> [(argument index or name, number of component axes)]
        specs = {
            "transformed_flux": [(0, 1), ("out", 2), ("grad", 2)],
            "viscous_flux": [(0, 1), (1, 2), ("out", 2)],
            "riemann_flux": [(0, 1), (1, 1), (2, 1)],
            "ldg_interface": [(0, 1), (1, 2), (2, 1), (3, 1), (4, 1)],
            "wall_flux": [(0, 1), (1, 1), (2, 2), (3, 1)],
            "apply_boundary": [(1, 1), (2, 1)],
        }
        seen = {name: 0 for name in [*specs, "transform"]}

        def guard(name, fn):
            def wrapper(*args, **kwargs):
                for key, axes in specs[name]:
                    arg = kwargs.get(key) if isinstance(key, str) else args[key]
                    if arg is not None:
                        assert all(r.flags.c_contiguous for r in rows(arg, axes)), (name, key)
                if name == "transformed_flux":
                    # metric entries M[k][l]
                    assert all(entry.flags.c_contiguous for row in args[1] for entry in row)
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def guard_transform(fn):
            def wrapper(M, v):
                # matrix entries M[k][l] and vector components v[l][i]
                assert all(entry.flags.c_contiguous for row in M for entry in row), "M"
                assert all(c.flags.c_contiguous for x in v for c in x), "v"
                seen["transform"] += 1
                return fn(M, v)
            return wrapper

        for name in specs:
            monkeypatch.setattr(physics, name, guard(name, getattr(physics, name)))
        monkeypatch.setattr(physics, "transform", guard_transform(physics.transform))
        for viscous in (False, True):
            s = _walled_solver(viscous=viscous, riemann=riemann)
            s.compute_residual(s.Q_upts)
        assert all(seen.values()), seen


class TestOneSidedLDG:
    """The one-sided LDG flux and the gathered common solution against the
    two-sided formulas at beta = 1/2 (``oracles.TwoSidedLDGSolver``)."""

    TGV_GAS = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=2e-2)

    def _tgv(self, cls, **kw):
        mesh = box_mesh(3, 3, 3, lengths=(2 * np.pi,) * 3, periodic=(True,) * 3,
                        perturb=0.2, seed=7)
        shards = prepare_shards(mesh, np.zeros(27, np.int64), 1)
        s = cls(shards[0], self.TGV_GAS, SolverOptions(p=2, viscous=True), **kw)
        s.set_state(lambda x: taylor_green_state(x, self.TGV_GAS))
        return s

    def _wall(self, cls, **kw):
        shards = prepare_shards(_wall_mesh(), np.zeros(30, np.int64), 1)
        s = cls(shards[0], WALL_GAS, SolverOptions(p=2, viscous=True),
                boundary_specs=WALL_BCS, **kw)
        s.set_state(_wall_field)
        return s

    @pytest.mark.parametrize("case", ["tgv", "wall"])
    def test_residual_matches_the_two_sided_formula(self, case):
        """The residual equals the two-sided one at beta = 1/2 to round-off,
        while beta = -1/2, which takes the other side of every face pair,
        is far from it."""
        from oracles import TwoSidedLDGSolver

        build = self._tgv if case == "tgv" else self._wall
        s = build(SolverRank)
        r = s.compute_residual(s.Q_upts)
        ref = build(TwoSidedLDGSolver)
        expect = ref.compute_residual(ref.Q_upts)
        scale = np.abs(expect).max()
        assert np.abs(r - expect).max() <= 1e-12 * scale
        other = build(TwoSidedLDGSolver, beta=-0.5)
        assert np.abs(other.compute_residual(other.Q_upts) - expect).max() > 1e-6 * scale

    @pytest.mark.parametrize("case", ["tgv", "wall"])
    def test_common_solution_is_the_two_sided_solution(self, case):
        """``Qc_fpts`` holds, at both slots of each face pair, the beta = 1/2
        common solution of its left and right states, and at boundary slots
        the mean of the interior and ghost states.  The periodic box has
        pairs of both switch signs (its wrap faces point against the switch
        vector), the wall box boundary slots."""
        from oracles import ldg_solution, pair_sides

        s = (self._tgv if case == "tgv" else self._wall)(SolverRank)
        s.compute_residual(s.Q_upts)
        QL, QR = (q.T for q in pair_sides(s, s._rows(s.Q_fpts), s.ghost_Q, 0, s.iface.size))
        nfc, nl = s.n_face_pairs, s.loc_r.size
        sw = s.iface_sw[:nfc]
        if case == "tgv":
            assert (sw > 0).any() and (sw < 0).any() and nfc == s.iface.size
        else:
            assert nfc < s.iface.size
        expect = np.concatenate([ldg_solution(QL[:nfc], QR[:nfc], 0.5, sw),
                                 0.5 * (QL[nfc:] + QR[nfc:])])
        Qc = s._rows(s.Qc_fpts)
        scale = np.abs(expect).max()
        assert np.abs(Qc[:, s.iface.slot].T - expect).max() <= 1e-14 * scale
        assert np.abs(Qc[:, s.loc_r.slot].T - expect[:nl]).max() <= 1e-14 * scale


def _sponge_state(x, gas):
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])
    vel = np.stack([0.3 + 0.1 * np.cos(2 * np.pi * x[:, 1]),
                    -0.2 + 0.1 * np.sin(2 * np.pi * x[:, 0])], axis=1)
    p = 1.0 + 0.1 * np.cos(2 * np.pi * (x[:, 0] + x[:, 1]))
    return conserved(rho, vel, p, gas)


class TestSpongeResidual:
    """Sponge sources on a periodic unit box: two zones that overlap in a
    corner and a third beyond the box that reaches no element."""

    def mesh(self):
        return box_mesh(6, 6, periodic=(True, True), perturb=0.2, seed=3)

    def zones(self, gas):
        ref_a = conserved(np.array([1.1]), np.array([[0.2, -0.1]]), np.array([0.9]), gas)[0]
        ref_b = conserved(np.array([0.9]), np.array([[0.4, 0.0]]), np.array([1.2]), gas)[0]
        return [
            SpongeZone(axis=0, lo=0.5, hi=1.0, ramp_width=0.25, strength=4.0,
                       reference_state=ref_a, from_side="lo"),
            SpongeZone(axis=1, lo=0.0, hi=0.4, ramp_width=0.3, strength=2.5,
                       reference_state=ref_b, from_side="hi"),
            SpongeZone(axis=0, lo=3.0, hi=4.0, ramp_width=0.5, strength=9.0,
                       reference_state=ref_a),
        ]

    @pytest.mark.parametrize("block_kb", [8, 64, SolverOptions().block_kb])
    def test_residual_bitwise_per_element_reference(self, block_kb, gas):
        """Residual = the sponge-free residual plus, per element, the zones'
        ``sponge_source`` summed in config order, bit for bit."""
        mesh, zones = self.mesh(), self.zones(gas)
        opts = SolverOptions(p=3, block_kb=block_kb)
        s = serial_solver(mesh, gas, opts, sponge_zones=zones)
        plain = serial_solver(mesh, gas, opts)
        s.set_state(lambda x: _sponge_state(x, gas))
        Q = s.Q_upts.copy()
        hit = [(z.sigma(s.x_upts) > 0).any(axis=1) for z in zones]
        assert (hit[0] & hit[1]).any() and not hit[2].any()
        assert not (hit[0] | hit[1]).all()

        expect = plain.compute_residual(Q)
        for e in range(s.ne):
            S = np.zeros((s.Ns, s.nv))
            for zone in zones:
                S = S + sponge_source(Q[e].T, zone, s.x_upts[e])
            expect[e] += S.T
        got = s.compute_residual(Q)
        assert np.array_equal(got, expect)
        dense = reference_residual(mesh, Q, 3, gas, sponges=zones)
        assert np.abs(got - dense).max() / np.abs(dense).max() < 1e-12

    def test_ledger_charges_each_zone_on_sponge_points(self, gas):
        """One sponge_source per zone on each point of the elements it
        reaches, and only there: a block no zone reaches gets no entry, and
        scale_residual alone runs on every point."""
        mesh, zones = self.mesh(), self.zones(gas)
        s = serial_solver(mesh, gas, SolverOptions(p=3, block_kb=2), sponge_zones=zones)
        s.set_state(lambda x: _sponge_state(x, gas))
        s.ledger.reset_counters()
        s.compute_residual(s.Q_upts)
        reach = [(z.sigma(s.x_upts) != 0).any(axis=1) for z in zones]
        blocks = s.block_plan.blocks()
        assert [hi - lo for lo, hi in blocks] == [2] * 18
        touched = [any(r[lo:hi].any() for r in reach) for lo, hi in blocks]
        assert not all(touched)
        sponge = s.ledger.kernels["sponge_source"]
        assert sponge.invocations == sum(touched)
        per_zone = sum(int(r.sum()) for r in reach)
        assert sponge.flops == POINTWISE_COSTS[("sponge_source", 2)] * s.Ns * per_zone
        # each zone on its own elements, not on every element some zone reaches
        assert per_zone < len(zones) * int(np.logical_or.reduce(reach).sum())
        scale = s.ledger.kernels["scale_residual"]
        assert scale.flops == POINTWISE_COSTS[("scale_residual", 2)] * s.ne * s.Ns

        plain = serial_solver(mesh, gas, SolverOptions(p=3, block_kb=2))
        plain.compute_residual(s.Q_upts)
        assert "sponge_source" not in plain.ledger.kernels

    def test_deterministic_rank_invariance(self, gas):
        mesh, zones = self.mesh(), self.zones(gas)
        opts = SolverOptions(p=3, deterministic=True)

        def run(nranks):
            assignment = random_partition(np.random.default_rng(5), len(mesh.cells), nranks)
            shards = prepare_shards(mesh, assignment, nranks)

            def prog(ctx):
                s = SolverRank(shards[ctx.rank], gas, opts, sponge_zones=zones, ctx=ctx)
                s.set_state(lambda x: _sponge_state(x, gas))
                for _ in range(3):
                    s.step_in_place(0.005)
                return s.gids, s.Q_upts

            if nranks == 1:
                return [prog(RankContext(0, 1, None))]
            return SimCluster(nranks, seed=2).run(prog)

        def by_gid(results):
            return {int(g): Q[i] for gids, Q in results for i, g in enumerate(gids)}

        one, three = by_gid(run(1)), by_gid(run(3))
        assert one.keys() == three.keys()
        assert all(np.array_equal(one[g], three[g]) for g in one)


class TestSpongeRuns:
    """The sponge sources act on runs of consecutive elements, slices of
    the state, bit for bit the gather form that groups the reached
    elements by their set of zones (``oracles.GatherSpongeSolver``)."""

    @staticmethod
    def _check_runs(s):
        """Runs are disjoint, in element order, cover exactly the reached
        elements, and list the zones that reach them in config order."""
        neg = [-z.sigma(s.x_upts) for z in s.sponge_zones]
        reach = [(n != 0).any(axis=1) for n in neg]
        covered = np.zeros(s.ne, dtype=bool)
        end = 0
        for e0, e1, factors in s.sponge_runs:
            assert end <= e0 < e1 and not covered[e0:e1].any()
            covered[e0:e1], end = True, e1
            zones = [z for z, r in enumerate(reach) if r[e0]]
            assert all(r[e0:e1].all() == r[e0] for r in reach)
            assert len(factors) == len(zones)
            for z, (sig, ref) in zip(zones, factors):
                assert np.array_equal(sig, neg[z][e0:e1]) and sig.base is None
                assert np.array_equal(ref[:, 0, 0], s.sponge_zones[z].reference_state)
        assert np.array_equal(covered, np.logical_or.reduce(reach))

    @pytest.mark.parametrize("block_kb", [2, SolverOptions().block_kb])
    def test_overlapping_zones_in_config_order(self, block_kb, gas):
        """The two zones that overlap in a corner, summed in config order,
        in two-element blocks and in one block."""
        t = TestSpongeResidual()
        mesh, zones = t.mesh(), t.zones(gas)
        opts = SolverOptions(p=3, block_kb=block_kb)
        shard = prepare_shards(mesh, np.zeros(len(mesh.cells), np.int64), 1)[0]
        s = SolverRank(shard, gas, opts, sponge_zones=zones)
        gather = GatherSpongeSolver(shard, gas, opts, sponge_zones=zones)
        self._check_runs(s)
        assert any(len(factors) == 2 for _, _, factors in s.sponge_runs)
        s.set_state(lambda x: _sponge_state(x, gas))
        Q = s.Q_upts
        assert np.array_equal(s.compute_residual(Q), gather.compute_residual(Q))

    def test_cascade_two_ranks(self, tmp_path, monkeypatch):
        """Both ranks of the cascade, with its inlet and outlet sponges."""
        from fluxrecon import driver

        def prog(shard, cfg, ctx):
            s = driver.build_solver(shard, cfg, ctx=ctx)
            driver.initialize(s, cfg)
            s.set_state(_perturbed(s.Q_upts))
            self._check_runs(s)
            with monkeypatch.context() as m:
                m.setattr(driver, "SolverRank", GatherSpongeSolver)
                gather = driver.build_solver(shard, cfg, ctx=ctx)
            Q = s.Q_upts
            return s.sponge_runs, s.compute_residual(Q), gather.compute_residual(Q)

        for runs, got, expect in _on_cascade(tmp_path, prog):
            assert runs and np.array_equal(got, expect)


class TestHaloAndRankInvariance:
    def run_case(self, mesh, nranks, steps, gas, assignment=None, seed=1):
        ncells = len(mesh.cells)
        if assignment is None:
            from oracles import random_partition

            assignment = random_partition(np.random.default_rng(seed), ncells, nranks)
        shards = prepare_shards(mesh, assignment, nranks)
        opts = SolverOptions(p=2, deterministic=True)

        def prog(ctx):
            s = SolverRank(shards[ctx.rank], gas, opts, ctx=ctx)
            s.set_state(lambda x: vortex_state(x, 0.0, gas))
            for _ in range(steps):
                s.step_in_place(0.01)
            return s.gids, s.Q_upts

        if nranks == 1:
            return [prog(RankContext(0, 1, None))]
        return SimCluster(nranks, seed=seed).run(prog)

    def test_halo_two_rank_strip_linear_field_bitwise(self, gas):
        mesh = box_mesh(4, 3, periodic=(True, False))
        shards = prepare_shards(mesh, np.array([0, 0, 1, 1] * 3), 2)
        bcs = {"ymin": BoundarySpec("ymin", "slip"), "ymax": BoundarySpec("ymax", "slip")}

        def field(x):
            rho = 1.0 + 0.05 * x[:, 1]
            return conserved(rho, np.zeros((x.shape[0], 2)), np.ones_like(rho), gas)

        serial = SolverRank(prepare_shards(mesh, np.zeros(12, np.int64), 1)[0],
                            gas, SolverOptions(p=2), boundary_specs=bcs)
        serial.set_state(field)
        serial.compute_residual(serial.Q_upts)
        serial_fpts = {int(g): serial.Q_fpts[:, i] for i, g in enumerate(serial.gids)}

        def prog(ctx):
            s = SolverRank(shards[ctx.rank], gas, SolverOptions(p=2),
                           boundary_specs=bcs, ctx=ctx)
            s.set_state(field)
            s.compute_residual(s.Q_upts)
            # each remote face's ghost columns, keyed by the face that the
            # pair list puts there
            ghost, nl, nfp = {}, s.loc_r.size, s.ref.num_face_points
            for i in range(nl, s.n_face_pairs, nfp):
                key = (int(s.gids[s.iface.e[i]]), int(s.iface.p[i]) // nfp)
                ghost[key] = s.ghost_Q[:, i - nl:i - nl + nfp].T
            return s.gids, s.Q_fpts, ghost, s.shard.remote_faces, s.ref

        for gids, qf, ghost, remotes, ref in SimCluster(2, seed=0).run(prog):
            for face, cpl in remotes:
                got = ghost[(cpl.local_gid, cpl.local_face)]
                # reconstruct the expected ghost: the peer's interpolated
                # values at the shared face in canonical order
                peer_gid, peer_lf = cpl.remote_tag[2], cpl.remote_tag[3]
                peer_vals = serial_fpts[peer_gid][:,
                    peer_lf * ref.num_face_points:(peer_lf + 1) * ref.num_face_points]
                got_set = {tuple(np.round(row, 12)) for row in got}
                exp_set = {tuple(np.round(row, 12)) for row in peer_vals.T}
                assert got_set == exp_set

    def test_rank_without_halo_joins_each_exchange(self, gas):
        """Two disjoint periodic boxes on 3 ranks, rank 2 owning one whole
        box: it has no peer, yet the halo exchange is collective, so it
        must join every one for the others to finish; the step gives the
        serial bits."""
        from fluxrecon.mesh_core import SerialMesh

        a = box_mesh(4, 4, periodic=(True, True))
        b = box_mesh(4, 4, origin=(2.0, 0.0), periodic=(True, True))
        nv = a.vertices.shape[0]
        mesh = SerialMesh(2, np.concatenate([a.vertices, b.vertices]),
                          np.concatenate([a.cells, b.cells + nv]), [],
                          np.concatenate([a.vertex_alias, b.vertex_alias + nv]))
        assignment = np.array([0] * 8 + [1] * 8 + [2] * 16)
        assert not prepare_shards(mesh, assignment, 3)[2].remote_rows.size
        [(gids, Q)] = self.run_case(mesh, 1, 1, gas, assignment=np.zeros(32, np.int64))
        serial = {int(g): q for g, q in zip(gids, Q)}
        for gids, Q in self.run_case(mesh, 3, 1, gas, assignment=assignment):
            assert all(np.array_equal(q, serial[int(g)]) for g, q in zip(gids, Q))

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_rank_invariance_bitwise(self, nranks, gas):
        mesh = vortex_mesh(6)
        ref = {}
        for gids, Q in self.run_case(mesh, 1, 3, gas):
            for i, g in enumerate(gids):
                ref[int(g)] = Q[i]
        out = {}
        for gids, Q in self.run_case(mesh, nranks, 3, gas):
            for i, g in enumerate(gids):
                out[int(g)] = Q[i]
        assert all(np.array_equal(out[g], ref[g]) for g in ref)

    def test_viscous_walls_rank_invariance_bitwise(self):
        """Remote LDG faces and every viscous boundary closure (inflow,
        outflow, adiabatic and isothermal walls) give the serial bits on
        any random partition."""
        from oracles import random_partition

        mesh = _wall_mesh()
        opts = SolverOptions(p=2, viscous=True, deterministic=True)

        def states(nranks):
            assignment = random_partition(np.random.default_rng(nranks), 30, nranks)
            shards = prepare_shards(mesh, assignment, nranks)

            def prog(ctx):
                s = SolverRank(shards[ctx.rank], WALL_GAS, opts, boundary_specs=WALL_BCS,
                               ctx=ctx)
                s.set_state(_wall_field)
                for _ in range(3):
                    s.step_in_place(2e-3)
                return {int(g): s.Q_upts[i] for i, g in enumerate(s.gids)}

            if nranks == 1:
                parts = [prog(RankContext(0, 1, None))]
            else:
                parts = SimCluster(nranks, seed=nranks).run(prog)
            return {g: q for part in parts for g, q in part.items()}

        ref = states(1)
        assert np.isfinite(np.stack(list(ref.values()))).all()
        for nranks in (2, 3, 4):
            out = states(nranks)
            assert sorted(out) == sorted(ref)
            assert all(np.array_equal(out[g], ref[g]) for g in ref), nranks


class TestStability:
    def test_sod_runs_stable(self, gas):
        mesh = sod_mesh(100)
        bcs = {"xmin": BoundarySpec("xmin", "slip"),
               "xmax": BoundarySpec("xmax", "slip")}
        s = serial_solver(mesh, gas, SolverOptions(p=2, cfl=0.4),
                          boundary_specs=bcs)
        s.set_state(lambda x: sod_state(x, gas))
        t = 0.0
        while t < 0.1:
            dt = min(s.compute_dt(s.Q_upts), 0.1 - t)
            s.step_in_place(dt)
            t += dt
        assert np.isfinite(s.Q_upts).all()

    @pytest.mark.slow
    def test_taylor_green_1000_steps_cfl1(self):
        """Smooth periodic 3-D field, p=3, CFL=1, 1000 steps, bounded
        kinetic energy.  The pinned dt formula at CFL=1 exceeds the
        explicit RK3 stability bound of this discretization in 3-D, so
        this is expected to fail; the CFL=0.3 variant below carries the
        content."""
        gasv = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1.0 / 1600.0)
        mesh = taylor_green_mesh(4)
        s = serial_solver(mesh, gasv, SolverOptions(p=3, cfl=1.0, viscous=True))
        s.set_state(lambda x: taylor_green_state(x, gasv))
        try:
            s.run_steps(1000)
            stable = bool(np.isfinite(s.Q_upts).all())
        except PositivityError:
            stable = False
        if not stable:
            pytest.xfail("CFL=1 sits beyond the explicit RK3 stability "
                         "limit of the pinned dt formula in 3-D")

    @pytest.mark.slow
    def test_taylor_green_1000_steps_cfl03(self):
        gasv = GasModel(gamma=1.4, R=1.0, Pr=0.72, mu=1.0 / 1600.0)
        mesh = taylor_green_mesh(4)
        s = serial_solver(mesh, gasv, SolverOptions(p=3, cfl=0.3, viscous=True))
        s.set_state(lambda x: taylor_green_state(x, gasv))
        ke0 = _kinetic_energy(s)
        s.run_steps(1000)
        assert np.isfinite(s.Q_upts).all()
        assert _kinetic_energy(s) < 2.0 * ke0


def _kinetic_energy(s):
    Qp = np.moveaxis(s.Q_upts, 1, 2)
    rho = Qp[..., 0]
    ke = 0.5 * np.sum(Qp[..., 1:1 + s.dim] ** 2, axis=-1) / rho
    return float(np.einsum("s,es,es->", s.ref.solution_weights, s.det_upts, ke))


class TestOrderOfAccuracy:
    def test_vortex_observed_orders_smoke(self, gas):
        """Small version of the acceptance study: p = 2 on two meshes."""
        errs = []
        for n in (8, 16):
            mesh = vortex_mesh(n)
            s = serial_solver(mesh, gas, SolverOptions(p=2, cfl=0.4))
            s.set_state(lambda x: vortex_state(x, 0.0, gas))
            t = 0.0
            while t < 0.25 - 1e-12:
                dt = min(s.compute_dt(s.Q_upts), 0.25 - t)
                s.step_in_place(dt)
                t += dt
            errs.append(s.l2_error(lambda x: vortex_state(x, 0.25, gas))[0])
        assert np.log2(errs[0] / errs[1]) > 2.0
