"""Per-rank execution engine: residual kernel graph, halo exchange,
time-step control, and SSP Runge-Kutta advance.

State is physical conserved variables Q with layout
``(elements, variables, points)``, point index contiguous.  One residual
evaluation runs:

1. interpolate Q to flux points (GEMM), exchange halos;
2. (viscous) common solutions, corrected gradients, gradient halos;
3. point-wise flux at solution points, transform to the reference frame;
4. Riemann/LDG common interface fluxes over one pair list (local pairs,
   then remote pairs against halo ghosts, then boundary pairs against
   boundary ghosts), scaled to outward transformed normal fluxes per
   flux-point slot;
5. interpolate the transformed flux polynomial to faces and take its
   outward normal trace (the discontinuous interface flux);
6. divergence GEMM + correction GEMM on the flux jumps, scale by 1/|J|,
   add sponge sources.

Buffer layouts (C-ordered; every buffer has the point axis last and
contiguous, so each variable is one contiguous row):

* ``Q_upts``, ``divF_upts``, ``dQdt`` ``(ne, nv, Ns)``;
  ``F_upts``, ``Fhat_upts``, ``grad_upts`` ``(ne, d, nv, Ns)``;
* ``Q_fpts``, ``Fown_fpts``, ``Fc_fpts``, ``jump_fpts``, ``jumpQ_fpts``
  ``(ne, nv, nf)``; ``Fhat_fpts``, ``grad_fpts`` ``(ne, d, nv, nf)``;
* per interface pair: ``ghost_Q (nv, npairs - nloc)`` (one column per
  halo point, then per boundary point), ``ghost_grad (d * nv, nhalo)``,
  ``iface_n (d, npairs)``, and ``iface_a``, ``iface_sw``, ``iface_tau``,
  ``iface_flip`` ``(npairs,)``.

Interface kernels gather states as ``(nv, m)`` with ``ndarray.take`` at
flat offsets ``e * nv * nf + p + k * nf`` (variable k of a pair's own slot,
or of a local pair's other slot, in an ``(ne, nv, nf)`` buffer) and
scatter with ``ndarray.put``; the volume kernels hand the physics
``transpose`` views of their block (``(n, Ns, nv)``).  The physics indexes
``(..., nv)`` and works per component, so every component it touches is a
contiguous row (see :mod:`fluxrecon.physics`).

The discontinuous interface flux comes from the same flux polynomial the
divergence acts on, so interface corrections telescope and conservation
holds to round-off.  Interface common fluxes are evaluated in the face's
canonical frame (owner with the smaller global cell id), making interface
numbers bit-identical under any partitioning in deterministic mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigError, MeshError, PositivityError
from ..mesh_core import orientation_permutation
from ..operators import (
    _shape_gradients, _tensor_shape, build_reference_element, compute_geometry,
    face_geometry, face_integrals, gauss_legendre_points, tensor_rule,
)
from .. import physics
from ..physics import BoundarySpec, GasModel, RiemannDiagnostics, SpongeZone
from ..perf import PerfLedger, flops_pointwise, monotonic_time
from ..prep.distribute import allreduce_min, allreduce_sum, nbx_exchange
from ..prep.matching import MeshShard
from .halo import HaloPlan
from .kernels import BlockPlan, FusionPlan, Kernel, KernelGraph

ITEM = 8


@dataclass(frozen=True)
class RKScheme:
    """Convex-combination SSP Runge-Kutta stage table.

    Stage i computes u_i = sum_j alphas[j] u_j + beta dt L(u_{i-1}).
    """

    name: str
    stages: tuple

    def __post_init__(self):
        for alphas, beta in self.stages:
            if beta < 0 or any(a < 0 for a in alphas):
                raise ConfigError("RK coefficients must be nonnegative")
            if abs(sum(alphas) - 1.0) > 1e-14:
                raise ConfigError("RK convex combination must sum to 1")


SSP_RK3 = RKScheme(
    "ssp3",
    (
        ((1.0,), 1.0),
        ((0.75, 0.25), 0.25),
        ((1.0 / 3.0, 0.0, 2.0 / 3.0), 2.0 / 3.0),
    ),
)

RK_SCHEMES = {"ssp3": SSP_RK3}


@dataclass
class SolverOptions:
    p: int = 3
    cfl: float = 1.0
    rk: str = "ssp3"
    riemann: str = "rusanov"
    fusion: bool = True
    block_kb: int = 256
    deterministic: bool = False
    viscous: bool = False
    ldg_beta: float = 0.5
    ldg_tau_scale: float = 0.1
    startup_steps: int = 0
    startup_p: int = 0


@dataclass
class PointList:
    """Flux-point index set as (element, point-slot) index pairs."""

    e: np.ndarray
    p: np.ndarray

    @property
    def size(self) -> int:
        return self.e.size


def _positions(keys: np.ndarray, values, what: str) -> np.ndarray:
    """Index into ``keys`` (unique ids) of every id in ``values``."""
    values = np.asarray(values, dtype=np.int64)
    order = np.argsort(keys)
    pos = order[np.searchsorted(keys, values, sorter=order).clip(0, keys.size - 1)]
    if not np.array_equal(keys[pos], values):
        raise MeshError(f"shard references a {what} id it does not hold")
    return pos


def _gemm(X: np.ndarray, M: np.ndarray, deterministic: bool) -> np.ndarray:
    """X @ M; deterministic mode uses a fixed-order k accumulation whose
    result is independent of row blocking."""
    if not deterministic:
        return X @ M
    out = X[:, 0:1] * M[0:1, :]
    for k in range(1, M.shape[0]):
        out += X[:, k:k + 1] * M[k:k + 1, :]
    return out


class SolverRank:
    """Solver state and kernels for one mesh shard."""

    def __init__(
        self,
        shard: MeshShard,
        gas: GasModel,
        options: SolverOptions,
        boundary_specs: Optional[Dict[str, BoundarySpec]] = None,
        sponge_zones: Optional[Sequence[SpongeZone]] = None,
        ctx=None,
        ledger: Optional[PerfLedger] = None,
    ):
        self.shard = shard
        self.gas = gas
        self.opt = options
        self.ctx = ctx
        self.dim = shard.dim
        self.nv = self.dim + 2
        kind = "hex" if self.dim == 3 else "quad"
        self.ref = build_reference_element(kind, options.p)
        if options.rk not in RK_SCHEMES:
            raise ConfigError(f"unknown RK scheme {options.rk!r}")
        self.rk = RK_SCHEMES[options.rk]
        self.ledger = ledger if ledger is not None else PerfLedger()
        self.riemann_diag = RiemannDiagnostics()
        self.boundary_diag = physics.BoundaryDiagnostics()
        self.sponge_zones = list(sponge_zones or [])
        self.boundary_specs = dict(boundary_specs or {})

        self.ne = len(shard.cells)
        self.gids = np.array([c.id for c in shard.cells], dtype=np.int64)
        vids = np.array([c.vertex_ids for c in shard.cells], dtype=np.int64)
        self.cell_coords = self._vertex_coords(vids)  # (ne, nverts, d)

        self._build_geometry()
        self._build_interfaces()
        self._build_arrays()
        self._build_graph()

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _vertex_coords(self, vids: np.ndarray) -> np.ndarray:
        """Coordinates of global vertex ids, any shape -> shape + (d,)."""
        return self.shard.vertex_coords[_positions(self.shard.vertex_ids, vids, "vertex")]

    def _slots(self, gids, lfaces, perm) -> PointList:
        """Flux-point slots of faces (one row of nfp points per face), in
        the point order ``perm`` gives per face: (nfp,) or (nfaces, nfp)."""
        nfp = self.ref.num_face_points
        e = np.repeat(_positions(self.gids, gids, "cell"), nfp)
        return PointList(e, (lfaces[:, None] * nfp + perm).reshape(-1))

    def _set_face_geometry(self, corner_vids: np.ndarray, *sides: PointList):
        """Overwrite the slots of both sides of faces with the normal and
        area computed once from one corner order per face."""
        _, n_c, a_c = face_geometry(self._vertex_coords(corner_vids), self.ref.points_1d)
        for q in sides:
            self.slot_normal[q.e, q.p] = n_c.reshape(-1, self.dim)
            self.slot_area[q.e, q.p] = a_c.reshape(-1)

    def _build_geometry(self):
        ref, nfp = self.ref, self.ref.num_face_points
        g = compute_geometry(self.cell_coords, ref, self.gids)
        self.det_upts = g.det_upts
        self.adj_upts = g.adj_upts
        self.invT_upts = g.inv_t_upts
        self.x_upts = g.coords_upts
        self.x_fpts = g.coords_fpts
        self.slot_normal = g.normals_fpts
        self.slot_area = g.area_fpts
        self.h_min = g.h_min
        # reference outward normal of every flux-point slot: axis, side
        self.slot_ref_axis = np.repeat([info.normal_axis for info in ref.face_info], nfp)
        self.slot_ref_side = np.repeat([float(info.side) for info in ref.face_info], nfp)

    def _build_interfaces(self):
        """One list of interface flux-point pairs: local, remote, boundary.

        Each pair is this rank's own slot (``iface``) plus the other side's
        state: the ``loc_r`` slot of a local pair, else column ``i - loc_r.size``
        of ``ghost_Q`` (halo values for remote pairs, ghost states for
        boundary pairs).  Normal, signed area, LDG switch and penalty come
        from the own slot; ``iface_flip`` marks remote pairs whose own side
        is the right side of the canonical frame.
        """
        ref, d, shard = self.ref, self.dim, self.shard
        nfp, ncorners = ref.num_face_points, 2 ** (d - 1)
        ident = np.arange(nfp)
        perms = np.stack([orientation_permutation(d, o, ref.points_1d)
                          for o in range(2 if d == 2 else 8)])

        faces = shard.internal_faces
        loc = np.array([(*f.left, *f.right, f.orientation) for f in faces],
                       dtype=np.int64).reshape(-1, 5)
        self.loc_l = self._slots(loc[:, 0], loc[:, 1], ident)
        self.loc_r = self._slots(loc[:, 2], loc[:, 3], perms[loc[:, 4]])
        self._set_face_geometry(np.array([f.left_corners for f in faces], dtype=np.int64)
                                .reshape(-1, ncorners), self.loc_l, self.loc_r)

        # columns: local gid, local face, orientation, canonical, peer rank,
        # canonical key (owner gid, owner local face)
        cpls = [cpl for _, cpl in shard.remote_faces]
        rem = np.array([(c.local_gid, c.local_face, c.orientation, c.canonical, c.remote_rank,
                         *((c.local_gid, c.local_face) if c.canonical else c.remote_tag[2:4]))
                        for c in cpls], dtype=np.int64).reshape(-1, 7)
        rm = self._slots(rem[:, 0], rem[:, 1], perms[rem[:, 2]])
        self._set_face_geometry(np.array([c.canonical_corners for c in cpls], dtype=np.int64)
                                .reshape(-1, ncorners), rm)
        # halo order: per peer rank, faces by canonical key
        order = np.lexsort((rem[:, 6], rem[:, 5], rem[:, 4]))
        face_e, face_p = rm.e.reshape(-1, nfp), rm.p.reshape(-1, nfp)
        face_rows = np.arange(len(cpls) * nfp).reshape(-1, nfp)
        neighbors = [int(r) for r in np.unique(rem[:, 4])]
        pack, rows = {}, {}
        for rank in neighbors:
            sel = order[rem[order, 4] == rank]
            pack[rank] = (face_e[sel].reshape(-1), face_p[sel].reshape(-1))
            rows[rank] = face_rows[sel].reshape(-1)
        self.halo = HaloPlan(neighbors, pack, rows, len(cpls) * nfp)

        bnd = np.array([(*f.left, f.patch_id) for f in shard.boundary_faces],
                       dtype=np.int64).reshape(-1, 3)
        self.boundary_groups = []
        for pid in (int(v) for v in np.unique(bnd[:, 2])):
            name = shard.patch_names.get(pid, str(pid))
            spec = self.boundary_specs.get(name)
            if spec is None:
                raise ConfigError(f"no boundary condition for patch {name!r}")
            if spec.kind == "periodic":
                raise ConfigError(
                    f"patch {name!r} declared periodic but carries boundary faces; "
                    "periodic pairing happens during mesh import"
                )
            sel = bnd[:, 2] == pid
            self.boundary_groups.append((spec, self._slots(bnd[sel, 0], bnd[sel, 1], ident)))

        parts = [self.loc_l, rm] + [pl for _, pl in self.boundary_groups]
        self.iface = PointList(np.concatenate([q.e for q in parts]),
                               np.concatenate([q.p for q in parts]))
        nl = self.loc_r.size
        self.n_face_pairs = nl + self.halo.num_ghost_points
        self.iface_flip = np.zeros(self.iface.size, dtype=bool)
        self.iface_flip[nl:self.n_face_pairs] = np.repeat(rem[:, 3] == 0, nfp)
        self.boundary_spans = []
        lo = self.n_face_pairs
        for spec, pl in self.boundary_groups:
            self.boundary_spans.append((spec, lo, lo + pl.size))
            lo += pl.size

        e, p = self.iface.e, self.iface.p
        self.nf = ref.num_faces * nfp
        self.iface_n = np.ascontiguousarray(self.slot_normal[e, p].T)
        area = self.slot_area[e, p]
        self.iface_a = np.where(self.iface_flip, -area, area)
        self.iface_sw = physics.ldg_switch(self.iface_n.T)
        self.iface_sw[self.n_face_pairs:] = 0.0
        area_face = face_integrals(self.slot_area, ref)
        h_face = area_face if d == 2 else np.sqrt(area_face)
        tau = self.opt.ldg_tau_scale * (self.opt.p + 1) ** 2 / h_face
        self.iface_tau = tau[e, p // nfp]

    def _build_arrays(self):
        ne, nv, d = self.ne, self.nv, self.dim
        Ns = self.ref.num_solution_points
        nf = self.ref.num_faces * self.ref.num_face_points
        self.Q_upts = np.zeros((ne, nv, Ns))
        self.Q_fpts = np.zeros((ne, nv, nf))
        self.F_upts = np.zeros((ne, d, nv, Ns))
        self.Fhat_upts = np.zeros((ne, d, nv, Ns))
        self.Fhat_fpts = np.zeros((ne, d, nv, nf))
        self.Fown_fpts = np.zeros((ne, nv, nf))
        self.Fc_fpts = np.zeros((ne, nv, nf))
        self.jump_fpts = np.zeros((ne, nv, nf))
        self.divF_upts = np.zeros((ne, nv, Ns))
        self.dQdt = np.zeros((ne, nv, Ns))
        self.ghost_Q = np.zeros((nv, self.iface.size - self.loc_r.size))
        if self.opt.viscous:
            self.jumpQ_fpts = np.zeros((ne, nv, nf))
            self.grad_upts = np.zeros((ne, d, nv, Ns))
            self.grad_fpts = np.zeros((ne, d, nv, nf))
            self.ghost_grad = np.zeros((d * nv, self.halo.num_ghost_points))
        ref = self.ref
        self.gcorr = np.zeros((d, Ns, nf))
        for f, info in enumerate(ref.face_info):
            sl = ref.face_slice(f)
            self.gcorr[info.normal_axis][:, sl] = ref.correction_matrix[:, sl] * info.side

    # ------------------------------------------------------------------
    # kernels: volume
    # ------------------------------------------------------------------

    def _traffic_elem(self, doubles_in: int, doubles_out: int):
        def model(lo, hi):
            n = hi - lo
            return (doubles_in * n * ITEM, doubles_out * n * ITEM)
        return model

    def _kernel_interp(self):
        ref, nv = self.ref, self.nv
        Ns = ref.num_solution_points
        nf = ref.num_faces * ref.num_face_points
        MT = ref.interp_to_faces.T.copy()

        def run(lo, hi):
            X = self.Q_upts[lo:hi].reshape(-1, Ns)
            out = _gemm(X, MT, self.opt.deterministic)
            self.Q_fpts[lo:hi] = out.reshape(hi - lo, nv, nf)
            self.ledger.add_gemm("interp_to_faces", X.shape[0], nf, Ns,
                                 X.nbytes, out.nbytes)

        return Kernel("interp_to_faces", "gemm", ("Q_upts",), ("Q_fpts",),
                      "elements", run, lambda lo, hi: (0, 0))

    def _phys_flux_body(self, lo, hi):
        d = self.dim
        Q = self.Q_upts[lo:hi].transpose(0, 2, 1)          # (n, Ns, nv) view
        F = self.F_upts[lo:hi].transpose(0, 3, 1, 2)       # (n, Ns, d, nv) view
        physics.inviscid_flux(Q, d, self.gas, out=F)
        if self.opt.viscous:
            grad = self.grad_upts[lo:hi].transpose(0, 3, 1, 2)
            F -= physics.viscous_flux(Q, grad, d, self.gas)

    def _transform_body(self, lo, hi):
        F = self.F_upts[lo:hi]          # (n, d, nv, Ns)
        adj = self.adj_upts[lo:hi]      # (n, Ns, d, d)
        out = self.Fhat_upts[lo:hi]
        d = self.dim
        for k in range(d):
            acc = adj[:, :, k, 0][:, None, :] * F[:, 0]
            for l in range(1, d):
                acc = acc + adj[:, :, k, l][:, None, :] * F[:, l]
            out[:, k] = acc

    def _kernel_phys_flux(self):
        Ns = self.ref.num_solution_points
        members = ("phys_flux", "viscous_flux") if self.opt.viscous else None
        return Kernel(
            "phys_flux", "pd", ("Q_upts",), ("F_upts",), "elements",
            self._phys_flux_body,
            self._traffic_elem(
                (self.nv + (self.dim * self.nv if self.opt.viscous else 0)) * Ns,
                self.dim * self.nv * Ns),
            cost=None if self.opt.viscous else "phys_flux",
            points_of=lambda lo, hi: (hi - lo) * Ns,
            members=members,
        )

    def _kernel_transform(self):
        Ns = self.ref.num_solution_points
        return Kernel(
            "transform_flux", "pd", ("F_upts",), ("Fhat_upts",), "elements",
            self._transform_body,
            self._traffic_elem((self.dim * self.nv + self.dim * self.dim) * Ns,
                               self.dim * self.nv * Ns),
            cost="transform_flux",
            points_of=lambda lo, hi: (hi - lo) * Ns,
        )

    def _fused_volume_flux(self):
        Ns = self.ref.num_solution_points
        members = ["phys_flux", "transform_flux"]
        if self.opt.viscous:
            members.insert(1, "viscous_flux")

        def run(lo, hi):
            self._phys_flux_body(lo, hi)
            self._transform_body(lo, hi)

        return Kernel(
            "phys_flux+transform_flux", "pd", ("Q_upts",), ("Fhat_upts",),
            "elements", run,
            self._traffic_elem(
                (self.nv + self.dim * self.dim
                 + (self.dim * self.nv if self.opt.viscous else 0)) * Ns,
                self.dim * self.nv * Ns),
            cost=None, points_of=lambda lo, hi: (hi - lo) * Ns,
            members=tuple(members),
        )

    def _kernel_interp_flux(self):
        ref, nv, d = self.ref, self.nv, self.dim
        Ns = ref.num_solution_points
        nf = ref.num_faces * ref.num_face_points
        MT = ref.interp_to_faces.T.copy()

        def run(lo, hi):
            for ax in range(d):
                X = self.Fhat_upts[lo:hi, ax].reshape(-1, Ns)
                out = _gemm(X, MT, self.opt.deterministic)
                self.Fhat_fpts[lo:hi, ax] = out.reshape(hi - lo, nv, nf)
                self.ledger.add_gemm("interp_flux", X.shape[0], nf, Ns,
                                     X.nbytes, out.nbytes)

        return Kernel("interp_flux", "gemm", ("Fhat_upts",), ("Fhat_fpts",),
                      "elements", run, lambda lo, hi: (0, 0))

    def _own_trace_body(self, lo, hi):
        # outward normal trace of the transformed flux polynomial
        d = self.dim
        Ff = self.Fhat_fpts[lo:hi]
        acc = None
        for ax in range(d):
            mask = (self.slot_ref_axis == ax)
            term = Ff[:, ax] * (self.slot_ref_side * mask)
            acc = term if acc is None else acc + term
        self.Fown_fpts[lo:hi] = acc

    def _jump_body(self, lo, hi):
        self.jump_fpts[lo:hi] = self.Fc_fpts[lo:hi] - self.Fown_fpts[lo:hi]

    def _kernel_own_trace(self):
        nv = self.nv
        nf = self.ref.num_faces * self.ref.num_face_points
        return Kernel(
            "own_trace", "pd", ("Fhat_fpts",), ("Fown_fpts",), "elements",
            self._own_trace_body,
            self._traffic_elem((self.dim * nv + 1) * nf, nv * nf),
            cost="own_trace",
            points_of=lambda lo, hi: (hi - lo) * nf,
        )

    def _kernel_flux_jump(self):
        nv = self.nv
        nf = self.ref.num_faces * self.ref.num_face_points
        return Kernel(
            "flux_jump", "pd", ("Fc_fpts", "Fown_fpts"), ("jump_fpts",),
            "elements", self._jump_body,
            self._traffic_elem(2 * nv * nf, nv * nf),
            cost="flux_jump",
            points_of=lambda lo, hi: (hi - lo) * nf,
        )

    def _fused_trace_jump(self):
        nv = self.nv
        nf = self.ref.num_faces * self.ref.num_face_points

        def run(lo, hi):
            self._own_trace_body(lo, hi)
            self._jump_body(lo, hi)

        return Kernel(
            "own_trace+flux_jump", "pd", ("Fhat_fpts", "Fc_fpts"),
            ("jump_fpts",), "elements", run,
            self._traffic_elem((self.dim * nv + 1 + nv) * nf, nv * nf),
            cost=None, points_of=lambda lo, hi: (hi - lo) * nf,
            members=("own_trace", "flux_jump"),
        )

    def _kernel_div(self):
        ref, nv = self.ref, self.nv
        Ns = ref.num_solution_points
        DT = [ref.div_operators[ax].T.copy() for ax in range(self.dim)]

        def run(lo, hi):
            X = self.Fhat_upts[lo:hi, 0].reshape(-1, Ns)
            acc = _gemm(X, DT[0], self.opt.deterministic)
            self.ledger.add_gemm("divergence", X.shape[0], Ns, Ns, X.nbytes, acc.nbytes)
            for ax in range(1, self.dim):
                X = self.Fhat_upts[lo:hi, ax].reshape(-1, Ns)
                acc += _gemm(X, DT[ax], self.opt.deterministic)
                self.ledger.add_gemm("divergence", X.shape[0], Ns, Ns, X.nbytes, 0)
            self.divF_upts[lo:hi] = acc.reshape(hi - lo, nv, Ns)

        return Kernel("divergence", "gemm", ("Fhat_upts",), ("divF_upts",),
                      "elements", run, lambda lo, hi: (0, 0))

    def _kernel_corr(self):
        ref, nv = self.ref, self.nv
        Ns = ref.num_solution_points
        nf = ref.num_faces * ref.num_face_points
        CT = ref.correction_matrix.T.copy()

        def run(lo, hi):
            X = self.jump_fpts[lo:hi].reshape(-1, nf)
            out = _gemm(X, CT, self.opt.deterministic)
            self.divF_upts[lo:hi] += out.reshape(hi - lo, nv, Ns)
            self.ledger.add_gemm("correction", X.shape[0], Ns, nf, X.nbytes, out.nbytes)

        return Kernel("correction", "gemm", ("jump_fpts", "divF_upts"),
                      ("divF_upts",), "elements", run, lambda lo, hi: (0, 0))

    def _kernel_scale(self):
        nv, Ns = self.nv, self.ref.num_solution_points

        def run(lo, hi):
            out = -self.divF_upts[lo:hi] / self.det_upts[lo:hi][:, None, :]
            if self.sponge_zones:
                Q = self.Q_upts[lo:hi].transpose(0, 2, 1)  # (n, Ns, nv) view
                x = self.x_upts[lo:hi]
                S = np.zeros_like(Q)
                for zone in self.sponge_zones:
                    S = S + physics.sponge_source(Q, zone, x)
                out += S.transpose(0, 2, 1)
            self.dQdt[lo:hi] = out

        members = ("scale_residual", "sponge_source") if self.sponge_zones else None
        return Kernel(
            "scale_residual", "pd", ("divF_upts", "Q_upts"), ("dQdt",),
            "elements", run,
            self._traffic_elem((nv + 1) * Ns, nv * Ns),
            cost="scale_residual", points_of=lambda lo, hi: (hi - lo) * Ns,
            members=members,
        )

    # ------------------------------------------------------------------
    # kernels: interface pairs
    # ------------------------------------------------------------------

    def _offsets(self, rows, lo, hi):
        """Flat indices ``(rows, .)`` of the own slots of pairs [lo, hi)
        and of the other slots of its local pairs in a C-ordered flux-point
        field with ``rows`` rows per element (nv, or d * nv for the
        gradient)."""
        m, s = min(hi, self.loc_r.size), rows * self.nf
        own = self.iface.e[lo:hi] * s + self.iface.p[lo:hi]
        loc = self.loc_r.e[lo:m] * s + self.loc_r.p[lo:m]
        step = np.arange(rows)[:, None] * self.nf
        return own + step, loc + step

    def _own_other(self, fpts, ghost, lo, hi):
        """Own and other-side values, ``(rows, hi - lo)`` each, of pairs
        [lo, hi) of a flux-point field and its ghost columns."""
        nl = self.loc_r.size
        own, loc = self._offsets(ghost.shape[0], lo, hi)
        own, other = fpts.take(own), fpts.take(loc)
        if hi > nl:
            other = np.concatenate([other, ghost[:, max(lo, nl) - nl:hi - nl]], axis=1)
        return own, other

    def _scatter(self, fpts, own, other, lo, hi):
        """Write ``own`` (nv, hi - lo) to the own slots of pairs [lo, hi)
        and ``other`` to the other slots of its local pairs of an
        (ne, nv, nf) field."""
        own_i, loc_i = self._offsets(self.nv, lo, hi)
        fpts.put(own_i, own)
        fpts.put(loc_i, other)

    def _left_right(self, own, other, lo, hi):
        """Order (own, other) as (left, right) of the canonical frame."""
        flip = self.iface_flip[lo:hi]
        if not flip.any():
            return own, other
        return np.where(flip, other, own), np.where(flip, own, other)

    def _pair_tally(self, key):
        # the common values of a remote pair are computed on both ranks;
        # only the canonical side logs them so totals stay partition-invariant
        def tally(lo, hi):
            n = hi - lo - int(np.count_nonzero(self.iface_flip[lo:hi]))
            return [(k, n) for k in key]
        return tally

    def _pair_traffic(self, doubles_read):
        # one value per pair to the own slot, one more to a local pair's loc_r
        def model(lo, hi):
            nloc = max(0, min(hi, self.loc_r.size) - lo)
            return ((hi - lo) * doubles_read * ITEM,
                    (hi - lo + nloc) * self.nv * ITEM)
        return model

    def _boundary_ghosts(self):
        """Ghost states of the boundary pairs into their ghost_Q columns;
        runs once per residual, after the halo exchange of Q."""
        nl = self.loc_r.size
        for spec, lo, hi in self.boundary_spans:
            e, p = self.iface.e[lo:hi], self.iface.p[lo:hi]
            Q = self.Q_fpts.take(self._offsets(self.nv, lo, hi)[0])
            self.ghost_Q[:, lo - nl:hi - nl] = physics.apply_boundary(
                spec, Q.T, self.iface_n[:, lo:hi].T, self.dim,
                self.gas, x=self.x_fpts[e, p], diag=self.boundary_diag).T
        nb = self.iface.size - self.n_face_pairs
        if nb:
            self.ledger.add_pointwise("boundary_ghost", self.dim, nb,
                                      nb * (self.nv + self.dim) * ITEM,
                                      nb * self.nv * ITEM)

    def _by_point(self, grad):
        """(m, d, nv) view of variable-major gradient rows (d * nv, m)."""
        return grad.reshape(self.dim, self.nv, -1).transpose(2, 0, 1)

    def _wall_flux(self, spec, Q, ghost, lo, hi):
        """Viscous normal flux (nv, hi - lo) of boundary pairs [lo, hi)
        from interior and ghost states (nv, hi - lo): the physical flux at
        their mean (on adiabatic walls the energy flux is the stress work
        alone), plus the penalty."""
        d = self.dim
        grad = self.grad_fpts.take(self._offsets(d * self.nv, lo, hi)[0])
        Qb = (0.5 * (Q + ghost)).T
        Fv = physics.viscous_flux(Qb, self._by_point(grad), d, self.gas)
        Gn = physics.normal_component(Fv, list(self.iface_n[:, lo:hi]))
        if spec.kind == "adiabatic":
            _, vel, _ = physics.split_state(Qb, d)
            Gn[..., 1 + d] = physics.dot(physics.components(Gn[..., 1:], d), vel)
        return Gn.T + self.iface_tau[lo:hi] * (ghost - Q)

    def _kernel_riemann_common(self):
        nv, d = self.nv, self.dim
        visc = self.opt.viscous

        def run(lo, hi):
            # states (nv, m); the physics sees (m, nv) views of them
            QL, QR = self._left_right(
                *self._own_other(self.Q_fpts, self.ghost_Q, lo, hi), lo, hi)
            n = self.iface_n[:, lo:hi].T
            F = physics.riemann_flux(QL.T, QR.T, n, d, self.gas,
                                     self.opt.riemann, self.riemann_diag).T
            if visc:
                m = min(hi, self.n_face_pairs)
                if m > lo:
                    k = m - lo
                    gL, gR = self._left_right(
                        *self._own_other(self.grad_fpts, self.ghost_grad, lo, m), lo, m)
                    _, Gn = physics.ldg_interface(
                        QL[:, :k].T, QR[:, :k].T, self._by_point(gL), self._by_point(gR),
                        n[:k], self.opt.ldg_beta, self.iface_tau[lo:m], d, self.gas,
                        switch=self.iface_sw[lo:m])
                    F[:, :k] -= Gn.T
                for spec, blo, bhi in self.boundary_spans:
                    a, b = max(lo, blo), min(hi, bhi)
                    if a < b and spec.kind != "slip":
                        F[:, a - lo:b - lo] -= self._wall_flux(
                            spec, QL[:, a - lo:b - lo], QR[:, a - lo:b - lo], a, b)
            out = F * self.iface_a[lo:hi]
            k = max(0, min(hi, self.loc_r.size) - lo)
            self._scatter(self.Fc_fpts, out, -out[:, :k], lo, hi)

        key = [f"riemann_{self.opt.riemann}", "flux_scale"]
        if visc:
            key.append("viscous_interface")
        read = 2 * nv + d + 1 + (2 * d * nv + 2 if visc else 0)
        return Kernel(
            "riemann_common", "pi", ("Q_fpts", "ghost_Q"), ("Fc_fpts",),
            "interfaces", run, self._pair_traffic(read),
            tally=self._pair_tally(key),
        )

    # viscous auxiliary passes ---------------------------------------------

    def _kernel_common_solution(self):
        def run(lo, hi):
            own, other = self._own_other(self.Q_fpts, self.ghost_Q, lo, hi)
            QL, QR = self._left_right(own, other, lo, hi)
            Qs = 0.5 * (QL + QR) - self.opt.ldg_beta * self.iface_sw[lo:hi] * (QR - QL)
            k = max(0, min(hi, self.loc_r.size) - lo)
            self._scatter(self.jumpQ_fpts, Qs - own, Qs[:, :k] - other[:, :k], lo, hi)

        return Kernel(
            "common_solution", "pi", ("Q_fpts", "ghost_Q"), ("jumpQ_fpts",),
            "interfaces", run, self._pair_traffic(2 * self.nv + 1),
            tally=self._pair_tally(["common_solution"]),
        )

    def _kernel_gradient(self):
        ref, nv, d = self.ref, self.nv, self.dim
        Ns = ref.num_solution_points
        nf = ref.num_faces * ref.num_face_points
        DT = [ref.div_operators[ax].T.copy() for ax in range(d)]
        GT = [self.gcorr[ax].T.copy() for ax in range(d)]

        def run(lo, hi):
            Xq = self.Q_upts[lo:hi].reshape(-1, Ns)
            Xj = self.jumpQ_fpts[lo:hi].reshape(-1, nf)
            for ax in range(d):
                g = _gemm(Xq, DT[ax], self.opt.deterministic)
                g += _gemm(Xj, GT[ax], self.opt.deterministic)
                self.grad_upts[lo:hi, ax] = g.reshape(hi - lo, nv, Ns)
                self.ledger.add_gemm("gradient", Xq.shape[0], Ns, Ns,
                                     Xq.nbytes, g.nbytes)
                self.ledger.add_gemm("gradient_corr", Xj.shape[0], Ns, nf,
                                     Xj.nbytes, 0)

        return Kernel("gradient", "gemm", ("Q_upts", "jumpQ_fpts"),
                      ("grad_upts",), "elements", run, lambda lo, hi: (0, 0))

    def _kernel_grad_transform(self):
        Ns = self.ref.num_solution_points
        d, nv = self.dim, self.nv

        def run(lo, hi):
            g = self.grad_upts[lo:hi]
            invT = self.invT_upts[lo:hi]
            out = np.empty_like(g)
            for k in range(d):
                acc = invT[:, :, k, 0][:, None, :] * g[:, 0]
                for l in range(1, d):
                    acc = acc + invT[:, :, k, l][:, None, :] * g[:, l]
                out[:, k] = acc
            self.grad_upts[lo:hi] = out

        return Kernel(
            "grad_transform", "pd", ("grad_upts",), ("grad_upts",),
            "elements", run,
            self._traffic_elem((d * nv + d * d) * Ns, d * nv * Ns),
            cost="grad_transform", points_of=lambda lo, hi: (hi - lo) * Ns,
        )

    def _kernel_interp_grad(self):
        ref, nv, d = self.ref, self.nv, self.dim
        Ns = ref.num_solution_points
        nf = ref.num_faces * ref.num_face_points
        MT = ref.interp_to_faces.T.copy()

        def run(lo, hi):
            for ax in range(d):
                X = self.grad_upts[lo:hi, ax].reshape(-1, Ns)
                out = _gemm(X, MT, self.opt.deterministic)
                self.grad_fpts[lo:hi, ax] = out.reshape(hi - lo, nv, nf)
                self.ledger.add_gemm("interp_grad", X.shape[0], nf, Ns,
                                     X.nbytes, out.nbytes)

        return Kernel("interp_grad", "gemm", ("grad_upts",), ("grad_fpts",),
                      "elements", run, lambda lo, hi: (0, 0))

    # ------------------------------------------------------------------
    # graph and execution
    # ------------------------------------------------------------------

    def _build_graph(self):
        nv, Ns = self.nv, self.ref.num_solution_points
        nf = self.ref.num_faces * self.ref.num_face_points
        doubles_per_elem = (2 * nv * Ns + 2 * self.dim * nv * Ns + 4 * nv * nf)
        self.block_plan = BlockPlan(
            num_elements=self.ne,
            bytes_per_element=doubles_per_elem * ITEM,
            budget_bytes=self.opt.block_kb * 1024,
            fixed_block=32 if self.opt.deterministic else None,
        )

        kernels = [
            self._kernel_interp(),
            self._kernel_riemann_common(),
            self._kernel_phys_flux(),
            self._kernel_transform(),
            self._kernel_interp_flux(),
            self._kernel_own_trace(),
            self._kernel_flux_jump(),
            self._kernel_div(),
            self._kernel_corr(),
            self._kernel_scale(),
        ]
        inputs = ["Q_upts", "ghost_Q"]
        if self.opt.viscous:
            inputs += ["grad_upts", "grad_fpts", "ghost_grad"]
        self.graph = KernelGraph(kernels, inputs, fused_runners={
            "phys_flux+transform_flux": self._fused_volume_flux(),
            "own_trace+flux_jump": self._fused_trace_jump(),
        })
        self.fusion_plan = FusionPlan([
            ["phys_flux", "transform_flux"],
            ["own_trace", "flux_jump"],
        ])
        # passes in graph order: interp_to_faces, riemann_common, then the
        # element-block volume passes
        self.interp_pass, self.riemann_pass, *self.volume_passes = self.graph.passes(
            self.fusion_plan if self.opt.fusion else None)
        if self.opt.viscous:
            self.visc_kernels = {
                "common_solution": self._kernel_common_solution(),
                "gradient": self._kernel_gradient(),
                "grad_transform": self._kernel_grad_transform(),
                "interp_grad": self._kernel_interp_grad(),
            }
        self.iface_chunk = 65536

    def _account(self, k: Kernel, lo: int, hi: int):
        if k.kind == "gemm":
            return  # gemm runners self-report with exact m, n, k
        br, bw = k.traffic(lo, hi)
        if k.tally is not None:
            s = self.ledger.stat(k.name)
            for key, npts in k.tally(lo, hi):
                s.flops += flops_pointwise(key, self.dim, npts)
            s.bytes_read += br
            s.bytes_written += bw
            s.invocations += 1
            return
        npts = k.points_of(lo, hi) if k.points_of else (hi - lo)
        members = k.members if k.members else ((k.cost,) if k.cost else None)
        self.ledger.add_pointwise(k.name, self.dim, npts, br, bw,
                                  members=members)

    def _run_kernel(self, k: Kernel):
        """Run one interface kernel over the pair list in chunks."""
        for lo in range(0, self.iface.size, self.iface_chunk):
            hi = min(lo + self.iface_chunk, self.iface.size)
            k.run(lo, hi)
            self._account(k, lo, hi)

    def _run_elem_kernels(self, kernels):
        """Element-block loop: every kernel runs on one block before the
        next block starts."""
        for lo, hi in self.block_plan.blocks():
            for k in kernels:
                k.run(lo, hi)
                self._account(k, lo, hi)

    def _exchange(self, fpts: np.ndarray, ghost: np.ndarray):
        """Send this rank's remote-face values of a flux-point field in
        canonical order; unpack the peers' values into the ghost columns
        (message bytes are point-major, one point's values after another)."""
        if self.ctx is None or self.ctx.nranks == 1 or self.halo.empty():
            return
        width = ghost.shape[0]
        sbuf = {}
        for rank in self.halo.neighbors:
            e, p = self.halo.pack[rank]
            sbuf[rank] = np.ascontiguousarray(fpts[e, ..., p]).tobytes()
        recv = nbx_exchange(self.ctx, sbuf)
        for rank in self.halo.neighbors:
            vals = np.frombuffer(recv[rank], dtype=np.float64).reshape(-1, width)
            ghost[:, self.halo.rows[rank]] = vals.T

    def halo_exchange_q(self):
        """Fill the halo columns of ghost_Q with the peers' face values."""
        self._exchange(self.Q_fpts, self.ghost_Q)

    def halo_exchange_grad(self):
        """Fill ghost_grad with the peers' face gradients."""
        self._exchange(self.grad_fpts, self.ghost_grad)

    def compute_residual(self, Q: np.ndarray, check: bool = True) -> np.ndarray:
        """dQ/dt for the given state (halo exchanges included)."""
        if check:
            self._check_positivity(Q)
        self.Q_upts = np.ascontiguousarray(Q)
        self._run_elem_kernels([self.interp_pass])
        self.halo_exchange_q()
        self._boundary_ghosts()

        if self.opt.viscous:
            vk = self.visc_kernels
            self._run_kernel(vk["common_solution"])
            self._run_elem_kernels([vk["gradient"], vk["grad_transform"],
                                    vk["interp_grad"]])
            self.halo_exchange_grad()

        self._run_kernel(self.riemann_pass)
        self._run_elem_kernels(self.volume_passes)
        return self.dQdt.copy()

    def _check_positivity(self, Q: np.ndarray):
        Ns = self.ref.num_solution_points
        physics.check_positivity(
            Q.transpose(0, 2, 1), self.dim, self.gas,
            cell_of_point=lambda i: self.gids[i // Ns],
        )

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------

    def compute_dt(self, Q: np.ndarray, cfl: Optional[float] = None) -> float:
        """CFL dt: min over elements of h_min / ((|u|+c)(2p+1))."""
        cfl = self.opt.cfl if cfl is None else cfl
        Qp = Q.transpose(0, 2, 1)  # (ne, Ns, nv) view
        _, vel, _ = physics.split_state(Qp, self.dim)
        umag = np.sqrt(physics.dot(vel, vel))
        c = physics.sound_speed(Qp, self.dim, self.gas)
        sig = (umag + c).max(axis=1)
        local = float(np.min(self.h_min / (sig * (2 * self.opt.p + 1))))
        if self.ctx is not None and self.ctx.nranks > 1:
            local = allreduce_min(self.ctx, local)
        return cfl * local

    def advance_step(self, Q: np.ndarray, dt: float) -> np.ndarray:
        """One SSP-RK step (convex combination of Euler stages)."""
        if dt <= 0:
            raise ConfigError("dt must be positive")
        states = [Q]
        for alphas, beta in self.rk.stages:
            r = self.compute_residual(states[-1])
            new = beta * dt * r
            for a, u in zip(alphas, states):
                if a:
                    new += a * u
            states.append(new)
        return states[-1]

    def step_in_place(self, dt: float):
        self.Q_upts = self.advance_step(self.Q_upts, dt)

    def run_steps(self, nsteps: int, dt: Optional[float] = None,
                  time_steps: bool = True) -> float:
        """March nsteps (CFL-adaptive dt unless fixed); returns simulated
        time covered."""
        t = 0.0
        for _ in range(nsteps):
            step_dt = dt if dt is not None else self.compute_dt(self.Q_upts)
            t0 = monotonic_time()
            self.step_in_place(step_dt)
            if time_steps:
                self.ledger.step_times.append(monotonic_time() - t0)
            t += step_dt
        return t

    # ------------------------------------------------------------------
    # init, integrals, interpolation
    # ------------------------------------------------------------------

    def set_state(self, fn) -> None:
        """Initialize Q from fn(x) -> conserved rows; x is (npts, dim)."""
        ne, Ns = self.ne, self.ref.num_solution_points
        vals = fn(self.x_upts.reshape(-1, self.dim))
        self.Q_upts = np.ascontiguousarray(
            np.moveaxis(np.asarray(vals, dtype=float).reshape(ne, Ns, self.nv), 1, 2)
        )

    def integrate_conserved(self, Q: Optional[np.ndarray] = None) -> np.ndarray:
        """Global integrals of the conserved variables (rank-ordered sum)."""
        if Q is None:
            Q = self.Q_upts
        w = self.ref.solution_weights
        mass = np.einsum("s,es,evs->v", w, self.det_upts, Q)
        if self.ctx is not None and self.ctx.nranks > 1:
            mass = allreduce_sum(self.ctx, mass)
        return np.asarray(mass)

    def l2_error(self, exact_fn) -> np.ndarray:
        """Over-integrated L2 norm of Q - exact per variable (global).

        Uses a quadrature two orders finer than the solution points so the
        norm is not blind to error between collocation points.
        """
        d, X = self.dim, self.cell_coords
        pts, wq = tensor_rule(*gauss_legendre_points(min(self.opt.p + 3, 12)), d)
        M = self.ref.basis_at(pts)  # (m, Ns)
        Qq = np.einsum("ms,evs->emv", M, self.Q_upts)
        xq = np.einsum("mi,eia->ema", _tensor_shape(self.ref.kind, pts), X)
        det = np.linalg.det(np.einsum("eia,mib->emab", X, _shape_gradients(self.ref.kind, pts)))
        exact = np.asarray(exact_fn(xq.reshape(-1, d))).reshape(Qq.shape)
        tot = np.einsum("m,em,emv->v", wq, det, (Qq - exact) ** 2)
        vol = float(np.einsum("m,em->", wq, det))
        if self.ctx is not None and self.ctx.nranks > 1:
            tot = allreduce_sum(self.ctx, tot)
            vol = float(allreduce_sum(self.ctx, vol))
        return np.sqrt(tot / vol)

    def sample_solution(self, order: Optional[int] = None):
        """Interpolate Q to a per-element plot grid; returns (coords, vals).

        coords: (ne, m, dim); vals: (ne, m, nv) with m = (order+1)^dim
        equispaced points per element.
        """
        n1 = (self.opt.p if order is None else order) + 1
        lin = np.linspace(-1.0, 1.0, n1) if n1 > 1 else np.zeros(1)
        pts, _ = tensor_rule(lin, np.ones(n1), self.dim)
        vals = np.einsum("ms,evs->emv", self.ref.basis_at(pts), self.Q_upts)
        coords = np.einsum("mi,eia->ema", _tensor_shape(self.ref.kind, pts), self.cell_coords)
        return coords, vals


def interpolate_state(Q: np.ndarray, kind: str, p_from: int, p_to: int) -> np.ndarray:
    """Transfer states between polynomial degrees (start-up order switch)."""
    if p_from == p_to:
        return Q.copy()
    rf = build_reference_element(kind, p_from)
    rt = build_reference_element(kind, p_to)
    M = rf.basis_at(rt.solution_points)  # (Ns_to, Ns_from)
    return np.einsum("ts,evs->evt", M, Q)
