"""Per-rank execution engine: residual passes, halo exchange, time-step
control, and the SSP-RK3 time step in Shu-Osher form.

State is physical conserved variables Q, indexed ``(elements, variables,
points)`` and stored variable-major (see the buffer layouts below).  An
inviscid residual evaluation runs three sweeps:

1. the volume sweep, one block loop: interpolate Q to the flux points
   (GEMM); split the block's state once (``physics.primitives``), check
   its positivity and, in the first stage of a CFL step, take each
   element's signal speed max(|u| + c); form the transformed flux in one
   kernel (``physics.transformed_flux``) and write its divergence into the
   residual.  The divergence GEMM has the face trace folded in,
   ``fold_T[ax] = div_T[ax] - T_ax corr_T``, with ``T_ax`` the outward
   normal trace of flux row ax (its interpolation to the flux points of
   the faces whose normal axis is ax, times each face's side).  The FR
   correction is linear in the flux jump, so the discontinuous interface
   flux is never formed.  A first stage then reduces the CFL dt over the
   ranks;
2. the halo exchange of Q, the boundary ghosts, and the Riemann common
   fluxes over one pair list (local pairs, then remote pairs against halo
   ghosts, then boundary pairs against boundary ghosts), scaled to outward
   transformed normal fluxes per flux-point slot;
3. one block loop: the correction GEMM on the common fluxes, added to the
   residual, the scale by -1/|J| and the sponge sources.  The sponge ramps
   do not change in time: each zone's ``-sigma`` is evaluated once at
   build time on the elements it reaches, and an element sums the zones
   that reach it in config order.

A viscous residual's first block loop only interpolates and checks (and
takes the signal speeds).  The halo and the ghosts are followed by the LDG
common solutions (one gather), the gradients ``Q fold_T[ax] + Qc
gcorr_T[ax]`` (folded like the divergence) with their transform and
interpolation, and the gradient halos.  After the pair pass (Riemann and
LDG fluxes), the last block loop forms the volume flux (the same kernel,
which also subtracts the transformed viscous flux of the gradients), its
divergence, the correction and the scale.  Either way a bad state fails
in the first block loop, before any ghost, Riemann or dt kernel sees it,
and a step's CFL dt is bitwise that of :meth:`SolverRank.compute_dt`,
which runs the same sweep alone.

Each step is a pass ``run(lo, hi)`` over an element block or a chunk of
the pair list that logs its own ledger entry: GEMM passes through
``_gemm_pass`` and ``PerfLedger.add_gemm`` with their exact shapes,
point-wise passes through ``PerfLedger.add_pointwise``.  A point-wise
pass's arithmetic is one :mod:`fluxrecon.physics` function, the one the
FLOP census runs for its ledger kernel: ``physics.transformed_flux`` for
``transformed_flux`` and, with the gradients, ``transformed_ns_flux``,
``physics.transform`` for ``grad_transform``, ``physics.sponge_sum`` on
the build-time ``(-sigma, Q_ref)`` pairs for ``sponge_source``, and so on
(see :mod:`fluxrecon.physics`).  ``flux_scale`` (common flux times signed
area) and ``scale_residual`` are one operator each; the positivity check
and the signal speeds are not booked.  The volume flux and its transform
run as one kernel.  ``SolverOptions.fusion`` only selects how the ledger
books it: fused, as one entry ``phys_flux+transform_flux``, whose
intermediate (the physical flux) is not charged as memory traffic;
unfused, as its two member entries ``phys_flux`` and ``transform_flux``,
which charge that intermediate's write and read.  The unfused booking puts
all of the kernel's flops (``transformed_flux``, or ``transformed_ns_flux``
when viscous) on ``phys_flux`` and none on ``transform_flux``.  Results
are therefore bitwise equal under both settings.  GEMMs are never fused,
and fusion changes modelled bytes but never flops: a fused entry's flops
are the sum of its members'.

Buffer layouts.  Every buffer is variable-major: C-ordered with the
element axis just before the point axis, so each variable (and each flux
or gradient axis of it) is one contiguous row over the mesh or a block.
Full-mesh buffers, which pair passes or later block loops read:

* ``Q_upts`` ``(ne, nv, Ns)``, a ``transpose(1, 0, 2)`` view of
  ``(nv, ne, Ns)`` memory, as are the residual and, being element-wise
  combinations, the RK stages; ``compute_residual`` accepts a C-ordered
  state too.  Output and diagnostic einsums read a C-ordered copy, so
  their bits do not depend on the layout;
* ``Q_fpts``, ``Fc_fpts``, ``Qc_fpts`` ``(nv, ne, nf)``; ``grad_upts``
  ``(d, nv, ne, Ns)``, ``grad_fpts`` ``(d, nv, ne, nf)``, the first
  ``ne * nf`` columns of ``Q_cols`` and ``grad_cols``, whose other columns
  are ``ghost_Q`` and ``ghost_grad``;
* the metric terms ``adj_rows`` (``|J| J^-1``) and, when viscous,
  ``invT_rows`` (``J^-T``) ``(d, d, ne, Ns)``, one row per entry, as
  :func:`~fluxrecon.operators.compute_geometry` forms them (no copy);
* per interface pair: ``ghost_Q (nv, npairs - nloc)`` (one column per
  halo point, then per boundary point), ``ghost_grad (d * nv, nhalo)``,
  ``iface_n (d, npairs)``, and ``iface_a``, ``iface_sw``, ``iface_tau``,
  ``iface_flip`` ``(npairs,)``.

Block scratch, one element block deep (``nb = block_plan.block_elements``),
which the volume pass uses as a view ``[..., :hi - lo, :]``: ``Fhat_upts``
``(d, nv, nb, Ns)``, the transformed flux, inviscid or viscous.  The
block plan's ``bytes_per_element`` is its size per element.  The
divergence and the correction write the residual's own rows.  A GEMM
reads a block's
``(..., n, k)`` rows and writes its ``(..., n, m)`` rows in place as a
stack of row blocks, whatever their strides, so no block of a full-mesh
buffer is copied.

The volume kernels hand the physics ``(n, Ns, nv)`` views of a block,
whose components are contiguous ``(n, Ns)`` rows.  The pair passes view a
flux-point field as ``(rows, ne * nf)`` (``rows`` = nv, or d * nv for the
gradient), one column per flux-point slot ``e * nf + p``.  The pair lists
hold these columns (``iface.slot`` of each pair's own slot, ``loc_r.slot``
of a local pair's other slot), so a pass gathers ``(rows, m)`` values with
``take(slot, axis=1)``, scatters by assigning to ``row[slot]``, and hands
the physics ``(m, nv)`` views of the gathered rows.  Either way every
component the physics touches is one contiguous row (see
:mod:`fluxrecon.physics`).

The pair list ``iface`` is the one description of a rank's interfaces.
Its local pairs ``[0, nl)`` (``nl = loc_r.size``) come first, then the
remote pairs ``[nl, n_face_pairs)``, then the boundary pairs.  Remote pairs
run by peer rank, then by their face's canonical key (owner gid, owner
local face), each face's points in canonical point order, so each peer's
halo is one span ``(rank, lo, hi)`` of ``halo_spans`` with ghost columns
``[lo - nl, hi - nl)``.  Both sides of a coupling order their shared points
this way, so a message unpacks positionally with no further permutation.
Boundary pairs run by patch id, each patch one span ``(spec, lo, hi)`` of
``boundary_spans``.  ``_sides`` gives each pair's left and right column of
the canonical frame in ``Q_cols``: a slot, or ``ne * nf`` plus its ghost
column, so one ``take`` gathers a side of pairs of any kind.

LDG at beta = 1/2 is one-sided (Cockburn & Shu, SINUM 35, 1998): where the
switch ``iface_sw`` of the canonical normal is positive, a face pair's
viscous flux is the right side's and its common solution the left side's
state, elsewhere the reverse, on every rank alike.  ``qc_col`` holds the
common solution's column per slot; boundary slots take the mean of the
interior and ghost states as their common solution.

The discontinuous interface flux is the trace of the same flux polynomial
the divergence acts on (folded into ``fold_T``), so interface corrections
telescope and conservation holds to round-off.  Interface common fluxes
are evaluated in the face's canonical frame (owner with the smaller global
cell id), making interface numbers bit-identical under any partitioning in
deterministic mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigError, MeshError, PositivityError, check_range
from ..mesh_core import orientation_permutation
from ..operators import (
    _shape_gradients, _tensor_shape, build_reference_element, compute_geometry,
    face_geometry, face_integrals, gauss_legendre_points, interpolation_matrix,
    tensor_rule,
)
from .. import physics
from ..physics import BoundarySpec, GasModel, RiemannDiagnostics, SpongeZone
from ..perf import PerfLedger
from ..prep.distribute import allreduce_min, allreduce_sum, nbx_exchange
from ..prep.matching import MeshShard
from .kernels import BlockPlan

ITEM = 8


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class SolverOptions:
    p: int = 3
    cfl: float = 1.0
    riemann: str = "rusanov"
    fusion: bool = True
    block_kb: int = 1024
    deterministic: bool = False
    viscous: bool = False
    ldg_tau_scale: float = 0.1
    startup_steps: int = 0
    startup_p: int = 0

    def __post_init__(self):
        for key, p in (("p", self.p), ("startup_p", self.startup_p)):
            if not (_is_int(p) and 0 <= p <= 8):
                raise ConfigError(f"solver.{key} must be an integer in [0, 8], got {p!r}")
        if not (_is_int(self.startup_steps) and self.startup_steps >= 0):
            raise ConfigError(f"solver.startup_steps must be a non-negative integer, "
                              f"got {self.startup_steps!r}")
        check_range("solver.ldg_tau_scale", self.ldg_tau_scale, strict=False)
        check_range("solver.block_kb", self.block_kb, 1, strict=False)
        check_range("solver.cfl", self.cfl)
        if self.riemann not in physics.RIEMANN_SOLVERS:
            raise ConfigError(f"solver.riemann must be one of {physics.RIEMANN_SOLVERS}, "
                              f"got {self.riemann!r}")


@dataclass
class PointList:
    """Flux-point index set: one flat slot ``e * nf + p`` per point, the
    column of element e's point slot p in a ``(rows, ne * nf)`` view of a
    flux-point field."""

    slot: np.ndarray
    nf: int

    @property
    def e(self) -> np.ndarray:
        return self.slot // self.nf

    @property
    def p(self) -> np.ndarray:
        return self.slot % self.nf

    @property
    def size(self) -> int:
        return self.slot.size


def _positions(keys: np.ndarray, values, what: str) -> np.ndarray:
    """Index into ``keys`` (unique ids) of every id in ``values``."""
    values = np.asarray(values, dtype=np.int64)
    order = np.argsort(keys)
    pos = order[np.searchsorted(keys, values, sorter=order).clip(0, keys.size - 1)]
    if not np.array_equal(keys[pos], values):
        raise MeshError(f"shard references a {what} id it does not hold")
    return pos


def _spans(keys: np.ndarray, start: int, width: int) -> list:
    """``(key, lo, hi)`` per run of equal values of sorted ``keys``, whose
    rows are ``width`` pairs each from pair ``start`` on."""
    vals = np.unique(keys)
    lo = start + width * np.searchsorted(keys, vals, "left")
    hi = start + width * np.searchsorted(keys, vals, "right")
    return [(int(v), int(a), int(b)) for v, a, b in zip(vals, lo, hi)]


def _gemm(X: np.ndarray, M: np.ndarray, deterministic: bool, out=None) -> np.ndarray:
    """X @ M over the last two axes of X (a stack of row blocks of any
    strides), into ``out`` if given; deterministic mode uses a fixed-order k
    accumulation whose result is independent of row blocking."""
    if not deterministic:
        return np.matmul(X, M, out=out)
    Y = X[..., 0:1] * M[0:1, :]
    for k in range(1, M.shape[0]):
        Y += X[..., k:k + 1] * M[k:k + 1, :]
    if out is not None:
        out[...] = Y
    return Y


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
        self.Ns = self.ref.num_solution_points
        self.ledger = ledger if ledger is not None else PerfLedger()
        self.last_dt: Optional[float] = None  # the dt of the last step
        self.riemann_diag = RiemannDiagnostics()
        self.boundary_diag = physics.BoundaryDiagnostics()
        self.sponge_zones = list(sponge_zones or [])
        self.boundary_specs = dict(boundary_specs or {})

        self.ne = shard.cell_rows.shape[0]
        self.gids = np.array(shard.cell_rows[:, 0])
        self.cell_coords = self._vertex_coords(shard.cell_rows[:, 1:])  # (ne, nverts, d)

        slot_normal, slot_area = self._build_geometry()
        self._build_sponges()
        self._build_interfaces(slot_normal, slot_area)
        self._build_operators()
        self._build_arrays()

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
        if lfaces.size and not 0 <= lfaces.min() <= lfaces.max() < self.ref.num_faces:
            raise MeshError(f"shard names local faces {lfaces.min()}..{lfaces.max()}; "
                            f"a {self.ref.kind} has {self.ref.num_faces}")
        e = _positions(self.gids, gids, "cell")[:, None] * self.nf
        return PointList((e + lfaces[:, None] * nfp + perm).reshape(-1), self.nf)

    def _set_face_geometry(self, normal, area, corner_vids: np.ndarray, *sides: PointList):
        """Overwrite the slots of both sides of faces in the per-slot
        ``normal`` rows and ``area`` with the values computed once from one
        corner order per face."""
        _, n_c, a_c = face_geometry(self._vertex_coords(corner_vids), self.ref.points_1d)
        n_c = np.moveaxis(n_c, -1, 0).reshape(self.dim, -1)
        for q in sides:
            normal[:, q.slot] = n_c
            area[q.slot] = a_c.reshape(-1)

    def _build_geometry(self):
        """Element geometry; returns the per-slot face normal rows (d, ne * nf)
        and areas (ne * nf,), which only the interface set-up reads."""
        g = compute_geometry(self.cell_coords, self.ref, self.gids)
        self.det_upts = g.det_upts
        # (d, d, ne, Ns): each metric entry one row over the mesh, the rows
        # compute_geometry forms; only the viscous gradient reads J^-T
        self.adj_rows = g.adj_upts.transpose(2, 3, 0, 1)
        if self.opt.viscous:
            self.invT_rows = g.inv_t_upts.transpose(2, 3, 0, 1)
        self.x_upts = g.coords_upts
        self.x_fpts = g.coords_fpts
        self.h_min = g.h_min
        return np.moveaxis(g.normals_fpts, -1, 0).reshape(self.dim, -1), g.area_fpts.reshape(-1)

    def _build_sponges(self):
        """Check the zones against the mesh, then group the elements some
        zone reaches by the set of zones that reach them.  Each group is
        ``(elems, factors)``: the sorted ids of its elements and, per zone
        of the set in config order, ``(-sigma, Q_ref)`` with ``-sigma``
        ``(m, Ns)`` at the solution points of ``elems`` and the reference
        state an ``(nv, 1, 1)`` column.  So a zone's source is evaluated
        only where it reaches, and each element sums its zones in config
        order."""
        for zone in self.sponge_zones:
            if not 0 <= zone.axis < self.dim:
                raise ConfigError(f"sponge zone axis {zone.axis} is not an axis of "
                                  f"a {self.dim}-D mesh")
            if np.shape(zone.reference_state) != (self.nv,):
                raise ConfigError(f"sponge reference state has shape "
                                  f"{np.shape(zone.reference_state)}, expected ({self.nv},)")
        neg = [-zone.sigma(self.x_upts) for zone in self.sponge_zones]  # (ne, Ns)
        refs = [np.asarray(zone.reference_state, dtype=float)[:, None, None]
                for zone in self.sponge_zones]
        self.sponge_groups = []
        if not neg or self.ne == 0:
            return
        reach = np.array([(s != 0).any(axis=1) for s in neg])  # (zones, ne)
        # elements ordered by the set of zones that reach them (a stable
        # sort, so each set's elements stay in element order), cut where
        # the set changes
        order = np.lexsort(reach)
        cuts = np.flatnonzero((reach[:, order[1:]] != reach[:, order[:-1]]).any(axis=0)) + 1
        for elems in np.split(order, cuts):
            zset = np.flatnonzero(reach[:, elems[0]])
            if zset.size:
                self.sponge_groups.append(
                    (elems, [(neg[z][elems], refs[z]) for z in zset]))

    def _build_interfaces(self, slot_normal, slot_area):
        """One list of interface flux-point pairs: local, remote, boundary.

        Each pair is this rank's own slot (``iface``) plus the other side's
        state: the ``loc_r`` slot of a local pair, else column ``i - loc_r.size``
        of ``ghost_Q`` (halo values for remote pairs, ghost states for
        boundary pairs).  Remote pairs run by peer rank, then by canonical
        key, so each peer's halo is one span of ``halo_spans``; boundary
        pairs run by patch id, each patch one span of ``boundary_spans``.
        Normal, signed area, LDG switch and penalty come from the own slot;
        ``iface_flip`` marks remote pairs whose own side is the right side
        of the canonical frame.
        """
        ref, d, shard = self.ref, self.dim, self.shard
        nfp, ncorners = ref.num_face_points, 2 ** (d - 1)
        self.nf = ref.num_faces * nfp
        ident = np.arange(nfp)
        perms = np.stack([orientation_permutation(d, o, ref.points_1d)
                          for o in range(2 if d == 2 else 8)])

        loc = shard.internal_rows
        loc_l = self._slots(loc[:, 0], loc[:, 1], ident)
        self.loc_r = self._slots(loc[:, 2], loc[:, 3], perms[loc[:, 4]])
        self._set_face_geometry(slot_normal, slot_area, loc[:, 5:5 + ncorners],
                                loc_l, self.loc_r)

        # remote faces by peer rank, then canonical key (owner gid, owner
        # local face), with their points in canonical point order
        rem = shard.remote_rows
        key = np.where(rem[:, 4:5] != 0, rem[:, 0:2], rem[:, 7:9])
        rem = rem[np.lexsort((key[:, 1], key[:, 0], rem[:, 2]))]
        rm = self._slots(rem[:, 0], rem[:, 1], perms[rem[:, 3]])
        self._set_face_geometry(slot_normal, slot_area, rem[:, 9:9 + ncorners], rm)

        bnd = shard.boundary_rows
        bnd = bnd[np.argsort(bnd[:, 2], kind="stable")]
        bd = self._slots(bnd[:, 0], bnd[:, 1], ident)

        self.iface = PointList(np.concatenate([loc_l.slot, rm.slot, bd.slot]), self.nf)
        nl = self.loc_r.size
        self.n_face_pairs = nl + rm.size
        self.iface_flip = np.zeros(self.iface.size, dtype=bool)
        self.iface_flip[nl:self.n_face_pairs] = np.repeat(rem[:, 4] == 0, nfp)
        self.halo_spans = _spans(rem[:, 2], nl, nfp)
        self.boundary_spans = []
        for pid, lo, hi in _spans(bnd[:, 2], self.n_face_pairs, nfp):
            name = shard.patch_names.get(pid, str(pid))
            spec = self.boundary_specs.get(name)
            if spec is None:
                raise ConfigError(f"no boundary condition for patch {name!r}")
            if spec.kind == "periodic":
                raise ConfigError(
                    f"patch {name!r} declared periodic but carries boundary faces; "
                    "periodic pairing happens during mesh import"
                )
            self.boundary_spans.append((spec, lo, hi))

        self.iface_n = slot_normal.take(self.iface.slot, axis=1)
        area = slot_area[self.iface.slot]
        self.iface_a = np.where(self.iface_flip, -area, area)
        self.iface_sw = physics.ldg_switch(self.iface_n.T)
        self.iface_sw[self.n_face_pairs:] = 0.0
        area_face = face_integrals(slot_area.reshape(self.ne, -1), ref)
        h_face = area_face if d == 2 else np.sqrt(area_face)
        tau = self.opt.ldg_tau_scale * (self.opt.p + 1) ** 2 / h_face
        self.iface_tau = tau.reshape(-1)[self.iface.slot // nfp]

        if self.opt.viscous:
            nfc = self.n_face_pairs
            L, R = self._sides(0, nfc)
            self.qc_col = np.arange(self.ne * self.nf)  # boundary slots: their own state
            self.qc_col[self.iface.slot[:nfc]] = np.where(self.iface_sw[:nfc] > 0, L, R)
            self.qc_col[self.loc_r.slot] = self.qc_col[loc_l.slot]

    def _build_arrays(self):
        """Full-mesh buffers, which pair passes or later block loops read,
        and the volume passes' scratch, one element block deep."""
        ne, nv, d, Ns, nf = self.ne, self.nv, self.dim, self.Ns, self.nf
        nslot, nl = ne * nf, self.loc_r.size
        self.Q_upts = np.zeros((nv, ne, Ns)).transpose(1, 0, 2)
        self.Q_cols = np.zeros((nv, nslot + self.iface.size - nl))
        self.Q_fpts = self.Q_cols[:, :nslot].reshape(nv, ne, nf)
        self.ghost_Q = self.Q_cols[:, nslot:]
        self.Fc_fpts = np.zeros((nv, ne, nf))
        if self.opt.viscous:
            self.Qc_fpts = np.zeros((nv, ne, nf))
            self.grad_upts = np.zeros((d, nv, ne, Ns))
            self.grad_cols = np.zeros((d * nv, nslot + self.n_face_pairs - nl))
            self.grad_fpts = self.grad_cols[:, :nslot].reshape(d, nv, ne, nf)
            self.ghost_grad = self.grad_cols[:, nslot:]
        self.Fhat_upts = np.zeros((d, nv, self.block_plan.block_elements, Ns))
        # while a residual runs: its input and output as (nv, ne, Ns) views;
        # while a dt is formed, each element's max(|u| + c)
        self._Qv = self._dQv = self._sig = None

    # ------------------------------------------------------------------
    # passes over element blocks
    # ------------------------------------------------------------------

    def _log_block(self, name, lo, hi, npts, doubles_in, doubles_out, members=None):
        """Ledger entry of a point-wise pass over elements [lo, hi) with
        ``npts`` points per element, each reading ``doubles_in`` and writing
        ``doubles_out`` doubles."""
        n = (hi - lo) * npts
        self.ledger.add_pointwise(name, self.dim, n, doubles_in * n * ITEM,
                                  doubles_out * n * ITEM, members=members)

    def _gemm_pass(self, dst, terms, add=False):
        """``dst = sum src @ M`` over ``terms`` ``[(name, src, M)]`` in order
        (``dst +=`` when ``add``), with ``src`` a block's ``(..., n, k)`` rows
        and ``dst`` its ``(..., n, m)`` rows, read and written in place
        whatever their strides.  Each GEMM logs its ledger entry; only the
        first is charged for writing ``dst``, the others add to it."""
        for i, (name, src, M) in enumerate(terms):
            if add or i:
                dst += _gemm(src, M, self.opt.deterministic)
            else:
                _gemm(src, M, self.opt.deterministic, out=dst)
            self.ledger.add_gemm(name, src.size // M.shape[0], M.shape[1], M.shape[0],
                                 src.nbytes, 0 if i else dst.nbytes)

    def _interp_to_faces(self, lo, hi):
        self._gemm_pass(self.Q_fpts[:, lo:hi],
                        [("interp_to_faces", self._Qv[:, lo:hi], self.interp_T)])

    def _primitives(self, lo, hi):
        """The state of elements [lo, hi) as an ``(n, Ns, nv)`` view and its
        primitives, once its positivity is checked; while a dt is formed,
        each element's max(|u| + c) goes to ``_sig[lo:hi]``."""
        Q = self._Qv[:, lo:hi].transpose(1, 2, 0)
        prim = physics.primitives(Q, self.dim, self.gas)
        Ns = self.Ns
        physics.check_positivity(Q, self.dim, self.gas, prim=prim,
                                 cell_of_point=lambda i: self.gids[lo + i // Ns])
        if self._sig is not None:
            self._sig[lo:hi] = physics.signal_speed(prim, self.gas).max(axis=1)
        return Q, prim

    def _volume_flux(self, lo, hi):
        """The transformed flux of elements [lo, hi) into the block's
        Fhat_upts, one kernel on the primitives that the positivity check
        and the signal speeds share; when viscous it reads the gradients
        too.  The module docstring says how the ledger books it."""
        d, nv = self.dim, self.nv
        Q, prim = self._primitives(lo, hi)
        grad = self.grad_upts[:, :, lo:hi].transpose(2, 3, 0, 1) if self.opt.viscous else None
        physics.transformed_flux(Q, self.adj_rows[:, :, lo:hi], d, self.gas,
                                 out=self.Fhat_upts[:, :, :hi - lo].transpose(2, 3, 0, 1),
                                 prim=prim, grad=grad)
        kernel = ("transformed_ns_flux" if self.opt.viscous else "transformed_flux",)
        if self.opt.fusion:
            self._log_block("phys_flux+transform_flux", lo, hi, self.Ns,
                            nv + d * d + self.grad_rows, d * nv, members=kernel)
        else:
            self._log_block("phys_flux", lo, hi, self.Ns, nv + self.grad_rows,
                            d * nv, members=kernel)
            self._log_block("transform_flux", lo, hi, self.Ns, d * nv + d * d, d * nv,
                            members=())

    def _divergence(self, lo, hi):
        """The flux divergence with the correction of the flux's own face
        trace folded in (``fold_T``), into the residual's rows."""
        n = hi - lo
        self._gemm_pass(self._dQv[:, lo:hi],
                        [("divergence", self.Fhat_upts[ax, :, :n], self.fold_T[ax])
                         for ax in range(self.dim)])

    def _correction(self, lo, hi):
        """The correction of the common interface flux, added to the
        residual's rows."""
        self._gemm_pass(self._dQv[:, lo:hi],
                        [("correction", self.Fc_fpts[:, lo:hi], self.corr_T)], add=True)

    def _scale_residual(self, lo, hi):
        """dQ/dt of elements [lo, hi) in place: -div F / |J| plus the
        sponge sources."""
        nv = self.nv
        out = self._dQv[:, lo:hi]                          # (nv, n, Ns) view
        np.negative(out, out=out)
        np.divide(out, self.det_upts[lo:hi], out=out)
        # S = -sigma (Q - Q_ref) summed over the zones that reach an
        # element, in config order; the ledger charges one sponge_source
        # per zone on each point it reaches
        reached = 0
        for elems, factors in self.sponge_groups:
            a, b = np.searchsorted(elems, (lo, hi))
            if b > a:
                sel = elems[a:b]
                out[:, sel - lo] += physics.sponge_sum(
                    self._Qv[:, sel], [(s[a:b], ref) for s, ref in factors])
                reached += (b - a) * len(factors)
        if reached:
            self._log_block("sponge_source", 0, reached, self.Ns, nv + 1, nv)
        self._log_block("scale_residual", lo, hi, self.Ns, nv + 1, nv)

    # viscous gradient passes ----------------------------------------------

    def _gradient(self, lo, hi):
        """The reference gradient with the correction of Q's own face trace
        folded in: ``Q fold_T[ax] + Qc gcorr_T[ax]``."""
        Q, Qc = self._Qv[:, lo:hi], self.Qc_fpts[:, lo:hi]
        for ax in range(self.dim):
            self._gemm_pass(self.grad_upts[ax, :, lo:hi],
                            [("gradient", Q, self.fold_T[ax]),
                             ("gradient_corr", Qc, self.gcorr_T[ax])])

    def _grad_transform(self, lo, hi):
        """The reference gradients of elements [lo, hi) times ``J^-T``, in
        place."""
        d, nv = self.dim, self.nv
        g = self.grad_upts[:, :, lo:hi]
        for k, row in enumerate(physics.transform(self.invT_rows[:, :, lo:hi], g)):
            g[k] = row
        self._log_block("grad_transform", lo, hi, self.Ns, d * nv + d * d, d * nv)

    def _interp_grad(self, lo, hi):
        for ax in range(self.dim):
            self._gemm_pass(self.grad_fpts[ax, :, lo:hi],
                            [("interp_grad", self.grad_upts[ax, :, lo:hi], self.interp_T)])

    # ------------------------------------------------------------------
    # passes over interface pairs
    # ------------------------------------------------------------------

    def _rows(self, fpts):
        """A flux-point field ``(..., ne, nf)`` as ``(rows, ne * nf)``, one
        row per variable (and gradient axis), one column per slot."""
        return fpts.reshape(-1, self.ne * self.nf)

    def _sides(self, lo, hi):
        """Left and right columns in the ``*_cols`` buffers of pairs [lo, hi)
        (a slot, or ``ne * nf`` plus the pair's ghost column)."""
        nl = self.loc_r.size
        own, flip = self.iface.slot[lo:hi], self.iface_flip[lo:hi]
        other = np.concatenate([self.loc_r.slot[lo:hi],
                                self.ne * self.nf - nl + np.arange(max(lo, nl), max(hi, nl))])
        return np.where(flip, other, own), np.where(flip, own, other)

    def _scatter(self, F, lo, hi):
        """Write the common fluxes ``F`` (nv, hi - lo) of pairs [lo, hi) to
        their own slots of ``Fc_fpts`` and ``-F`` to the other slots of the
        local pairs among them."""
        own_i, loc_i = self.iface.slot[lo:hi], self.loc_r.slot[lo:hi]
        # one variable row at a time: a 1-D indexed assignment is about
        # twice as fast as the 2-D ``[:, slot]`` one
        for row, f, g in zip(self._rows(self.Fc_fpts), F, -F[:, :loc_i.size]):
            row[own_i] = f
            row[loc_i] = g

    def _canonical(self, lo, hi):
        """Number of pairs in [lo, hi) whose own side is the canonical left
        side.  The common values of a remote pair are computed on both
        ranks; only the canonical side counts their flops, so totals stay
        partition-invariant."""
        return max(0, hi - lo) - int(np.count_nonzero(self.iface_flip[lo:hi]))

    def _log_pairs(self, name, lo, hi, doubles_read, members):
        """Ledger entry of a pair pass over pairs [lo, hi), charging
        ``members`` on its canonical pairs.  Each pair writes one value to
        its own slot, and a local pair one more to its ``loc_r`` slot."""
        nloc = max(0, min(hi, self.loc_r.size) - lo)
        self.ledger.add_pointwise(name, self.dim, self._canonical(lo, hi),
                                  (hi - lo) * doubles_read * ITEM,
                                  (hi - lo + nloc) * self.nv * ITEM, members=members)

    def _boundary_ghosts(self):
        """Ghost states of the boundary pairs into their ghost_Q columns;
        runs once per residual, after the halo exchange of Q."""
        nl = self.loc_r.size
        for spec, lo, hi in self.boundary_spans:
            e, p = np.divmod(self.iface.slot[lo:hi], self.nf)
            Q = self.Q_cols.take(self.iface.slot[lo:hi], axis=1)
            self.ghost_Q[:, lo - nl:hi - nl] = physics.apply_boundary(
                spec, Q.T, self.iface_n[:, lo:hi].T, self.dim,
                self.gas, x=self.x_fpts[e, p], diag=self.boundary_diag).T
        nb = self.iface.size - self.n_face_pairs
        if nb:
            self.ledger.add_pointwise("boundary_ghost", self.dim, nb,
                                      nb * (self.nv + self.dim) * ITEM,
                                      nb * self.nv * ITEM,
                                      [(f"ghost_{spec.kind}", hi - lo)
                                       for spec, lo, hi in self.boundary_spans])

    def _by_point(self, grad):
        """(m, d, nv) view of variable-major gradient rows (d * nv, m)."""
        return grad.reshape(self.dim, self.nv, -1).transpose(2, 0, 1)

    def _riemann_common(self, lo, hi):
        nv, d = self.nv, self.dim
        visc = self.opt.viscous
        # states (nv, m); the physics sees (m, nv) views of them
        L, R = self._sides(lo, hi)
        QL, QR = self.Q_cols.take(L, axis=1), self.Q_cols.take(R, axis=1)
        n = self.iface_n[:, lo:hi].T
        F = physics.riemann_flux(QL.T, QR.T, n, d, self.gas,
                                 self.opt.riemann, self.riemann_diag).T
        members = [f"riemann_{self.opt.riemann}", "flux_scale"]
        if visc:
            # face pairs run the LDG flux, slip pairs no viscous flux, and
            # the other boundary pairs the wall flux
            m = min(hi, self.n_face_pairs)
            members.append(("viscous_interface", self._canonical(lo, m)))
            if m > lo:
                k = m - lo
                col = np.where(self.iface_sw[lo:m] > 0, R[:k], L[:k])
                Gn = physics.ldg_interface(
                    self.Q_cols.take(col, axis=1).T,
                    self._by_point(self.grad_cols.take(col, axis=1)),
                    QL[:, :k].T, QR[:, :k].T, n[:k], self.iface_tau[lo:m], d, self.gas)
                F[:, :k] -= Gn.T
            for spec, blo, bhi in self.boundary_spans:
                a, b = max(lo, blo), min(hi, bhi)
                if a < b and spec.kind != "slip":
                    j = slice(a - lo, b - lo)
                    grad = self._by_point(self.grad_cols.take(self.iface.slot[a:b], axis=1))
                    F[:, j] -= physics.wall_flux(
                        QL[:, j].T, QR[:, j].T, grad, n[j], self.iface_tau[a:b],
                        d, self.gas, adiabatic=spec.kind == "adiabatic").T
                    members.append(("viscous_wall", b - a))
        F *= self.iface_a[lo:hi]
        self._scatter(F, lo, hi)
        self._log_pairs("riemann_common", lo, hi,
                        2 * nv + d + 1 + (d * nv + 1 if visc else 0), members)

    def _common_solution(self):
        """The LDG common solution at every flux-point slot: the solution
        side's state of each face pair (one static gather), and on boundary
        slots the mean of the interior and ghost states."""
        Qc = self._rows(self.Qc_fpts)
        np.take(self.Q_cols, self.qc_col, axis=1, out=Qc, mode="clip")  # "raise" buffers out
        b = self.iface.slot[self.n_face_pairs:]
        Qc[:, b] = 0.5 * (Qc[:, b] + self.ghost_Q[:, self.n_face_pairs - self.loc_r.size:])
        self.ledger.add_pointwise("common_solution", self.dim, b.size,
                                  (Qc.size + b.size * self.nv) * ITEM, Qc.nbytes)

    # ------------------------------------------------------------------
    # operators and execution
    # ------------------------------------------------------------------

    def _build_operators(self):
        """Block plan, transposed operators and per-pass constants."""
        ref, nv, d, Ns, nf = self.ref, self.nv, self.dim, self.Ns, self.nf
        # the block scratch that _build_arrays allocates: Fhat_upts
        self.block_plan = BlockPlan(
            num_elements=self.ne,
            bytes_per_element=d * nv * Ns * ITEM,
            budget_bytes=self.opt.block_kb * 1024,
        )
        self.interp_T = ref.interp_to_faces.T.copy()
        div_T = [ref.div_operators[ax].T for ax in range(d)]
        self.corr_T = ref.correction_matrix.T.copy()
        # gcorr[ax]: the correction columns of the faces whose normal axis
        # is ax, times each face's side (+-1)
        gcorr = np.zeros((d, Ns, nf))
        for f, info in enumerate(ref.face_info):
            sl = ref.face_slice(f)
            gcorr[info.normal_axis][:, sl] = ref.correction_matrix[:, sl] * info.side
        self.gcorr_T = [gcorr[ax].T.copy() for ax in range(d)]
        # fold_T[ax] = div_T[ax] - T_ax corr_T with the trace T_ax =
        # interp_T S_ax, S_ax the diagonal of sides that gcorr[ax] applies,
        # so that S_ax corr_T = gcorr_T[ax]; the gradient uses it too
        self.fold_T = [div_T[ax] - self.interp_T @ self.gcorr_T[ax] for ax in range(d)]
        # the volume flux reads the gradient too when viscous
        self.grad_rows = d * nv if self.opt.viscous else 0
        # pair passes run in chunks small enough that their temporaries are
        # reused from the heap rather than page-faulted in afresh each step
        self.iface_chunk = 4096

    def _run_pairs(self, run):
        """Run one interface pass over the pair list in chunks."""
        for lo in range(0, self.iface.size, self.iface_chunk):
            run(lo, min(lo + self.iface_chunk, self.iface.size))

    def _run_blocks(self, *passes):
        """Element-block loop: every pass runs on one block before the next
        block starts."""
        for lo, hi in self.block_plan.blocks():
            for run in passes:
                run(lo, hi)

    def _exchange(self, cols: np.ndarray, ghost: np.ndarray):
        """Send each peer the values of its span of a ``*_cols`` buffer;
        unpack the peer's message into the span's ghost columns (message
        bytes are point-major, one point's values after another).  The
        exchange is collective: a rank without peers joins it too."""
        if self.ctx is None or self.ctx.nranks == 1:
            return
        nl, width = self.loc_r.size, ghost.shape[0]
        recv = nbx_exchange(self.ctx, {
            rank: cols.take(self.iface.slot[lo:hi], axis=1).T.tobytes()
            for rank, lo, hi in self.halo_spans})
        for rank, lo, hi in self.halo_spans:
            vals = np.frombuffer(recv[rank], dtype=np.float64).reshape(-1, width)
            ghost[:, lo - nl:hi - nl] = vals.T

    def halo_exchange_q(self):
        """Fill the halo columns of ghost_Q with the peers' face values."""
        self._exchange(self.Q_cols, self.ghost_Q)

    def halo_exchange_grad(self):
        """Fill ghost_grad with the peers' face gradients."""
        self._exchange(self.grad_cols, self.ghost_grad)

    def compute_residual(self, Q: np.ndarray) -> np.ndarray:
        """dQ/dt ``(ne, nv, Ns)``, stored variable-major, for the state Q
        ``(ne, nv, Ns)`` of either layout (halo exchanges included).  Q is
        only read: ``Q_upts`` is left as it was."""
        return self._residual(Q, cfl_dt=False)[0]

    def _residual(self, Q: np.ndarray, cfl_dt: bool):
        """``(dQ/dt, dt)``: the residual of Q and, when ``cfl_dt``, the CFL
        dt that :meth:`compute_dt` gives for Q, formed from the primitives
        of the residual's first block loop (else None).  That loop checks
        positivity, so a bad state fails before any ghost, Riemann or dt
        kernel sees it.  Inviscid, it also forms the volume flux and its
        divergence; viscous, those wait for the gradients, and dQ/dt is
        allocated only then."""
        self._Qv = Q.transpose(1, 0, 2)
        try:
            if self.opt.viscous:
                dt = self._sweep([self._interp_to_faces, self._primitives], cfl_dt)
                self.halo_exchange_q()
                self._boundary_ghosts()
                self._common_solution()
                self._run_blocks(self._gradient, self._grad_transform, self._interp_grad)
                self.halo_exchange_grad()
                self._run_pairs(self._riemann_common)
                dQdt = self._new_residual()
                self._run_blocks(self._volume_flux, self._divergence, self._correction,
                                 self._scale_residual)
            else:
                dQdt = self._new_residual()
                dt = self._sweep([self._interp_to_faces, self._volume_flux,
                                  self._divergence], cfl_dt)
                self.halo_exchange_q()
                self._boundary_ghosts()
                self._run_pairs(self._riemann_common)
                self._run_blocks(self._correction, self._scale_residual)
        finally:
            self._Qv = self._dQv = None
        return dQdt, dt

    def _new_residual(self) -> np.ndarray:
        """A fresh ``(ne, nv, Ns)`` residual, stored variable-major, whose
        ``(nv, ne, Ns)`` view the passes write."""
        dQdt = np.empty((self.nv, self.ne, self.Ns)).transpose(1, 0, 2)
        self._dQv = dQdt.transpose(1, 0, 2)
        return dQdt

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------

    def _sweep(self, passes, cfl_dt: bool):
        """The block loop of ``passes``, one of which checks positivity
        (``_primitives``).  With ``cfl_dt`` it also forms each element's
        signal speed and returns the CFL dt, reduced over the ranks.  Every
        rank enters that reduction, one whose state failed the check too:
        the reduction propagates its NaN, so all ranks raise together, the
        failing rank naming its cell and the others cell -1."""
        if not cfl_dt:
            self._run_blocks(*passes)
            return None
        failure = None
        self._sig = np.empty(self.ne)
        try:
            self._run_blocks(*passes)
            local = float(np.min(self.h_min / (self._sig * (2 * self.opt.p + 1))))
        except PositivityError as exc:
            failure, local = exc, np.nan
        finally:
            self._sig = None
        if self.ctx is not None and self.ctx.nranks > 1:
            local = allreduce_min(self.ctx, local)
        if not local > 0.0 or not np.isfinite(local):
            raise failure or PositivityError(
                -1, f"time step {local!r} is not finite and positive")
        return self.opt.cfl * local

    def compute_dt(self, Q: np.ndarray) -> float:
        """CFL dt: cfl times the min over elements of h_min / ((|u|+c)(2p+1)),
        bit for bit the dt that a step of :meth:`run_steps` takes from its
        first residual."""
        self._Qv = Q.transpose(1, 0, 2)
        try:
            return self._sweep([self._primitives], cfl_dt=True)
        finally:
            self._Qv = None

    def advance_step(self, Q: np.ndarray, dt: Optional[float]) -> np.ndarray:
        """One SSP-RK3 step in Shu-Osher form (Shu & Osher, JCP 77, 1988):
        u1 = Q + dt R(Q), u2 = 3/4 Q + 1/4 u1 + 1/4 dt R(u1) and
        u3 = 1/3 Q + 2/3 u2 + 2/3 dt R(u2), each its residual scaled in place
        plus the earlier stages in that order; u1 is freed before R(u2).
        With ``dt`` None the step takes the CFL dt of Q (:meth:`compute_dt`),
        formed in R(Q) from its primitives.  The dt taken is kept as
        ``last_dt``."""
        if dt is None:
            u1, dt = self._residual(Q, cfl_dt=True)
        elif not (dt > 0 and np.isfinite(dt)):
            raise ConfigError(f"dt must be finite and positive, got {dt!r}")
        else:
            u1 = self.compute_residual(Q)
        self.last_dt = dt
        u1 *= dt
        u1 += Q
        u2 = self.compute_residual(u1)
        u2 *= 0.25 * dt
        u2 += 0.75 * Q
        u2 += 0.25 * u1
        del u1
        u3 = self.compute_residual(u2)
        u3 *= 2.0 / 3.0 * dt
        u3 += 1.0 / 3.0 * Q
        u3 += 2.0 / 3.0 * u2
        return u3

    def step_in_place(self, dt: float):
        self.Q_upts = self.advance_step(self.Q_upts, dt)

    def run_steps(self, nsteps: int, dt: Optional[float] = None) -> float:
        """March nsteps (CFL-adaptive dt unless fixed); returns simulated
        time covered."""
        t = 0.0
        for _ in range(nsteps):
            t0 = time.perf_counter()
            self.Q_upts = self.advance_step(self.Q_upts, dt)
            self.ledger.step_times.append(time.perf_counter() - t0)
            t += self.last_dt
        return t

    # ------------------------------------------------------------------
    # init, integrals, interpolation
    # ------------------------------------------------------------------

    def set_state(self, fn) -> None:
        """Initialize Q from fn(x) -> conserved rows; x is (npts, dim)."""
        ne, Ns = self.ne, self.ref.num_solution_points
        vals = np.asarray(fn(self.x_upts.reshape(-1, self.dim)), dtype=float)
        self.Q_upts = np.ascontiguousarray(
            vals.reshape(ne, Ns, self.nv).transpose(2, 0, 1)).transpose(1, 0, 2)

    def integrate_conserved(self, Q: Optional[np.ndarray] = None) -> np.ndarray:
        """Global integrals of the conserved variables (rank-ordered sum)."""
        if Q is None:
            Q = self.Q_upts
        w = self.ref.solution_weights
        # C-ordered, so the sum's order and bits do not depend on the layout
        mass = np.einsum("s,es,evs->v", w, self.det_upts, np.ascontiguousarray(Q))
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
        Qq = np.einsum("ms,evs->emv", M, np.ascontiguousarray(self.Q_upts))
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
        vals = np.einsum("ms,evs->emv", self.ref.basis_at(pts),
                         np.ascontiguousarray(self.Q_upts))
        coords = np.einsum("mi,eia->ema", _tensor_shape(self.ref.kind, pts), self.cell_coords)
        return coords, vals


def interpolate_state(Q: np.ndarray, kind: str, p_from: int, p_to: int) -> np.ndarray:
    """Transfer states between polynomial degrees (start-up order switch)."""
    if p_from == p_to:
        return Q.copy()
    M = interpolation_matrix(build_reference_element(kind, p_from),
                             build_reference_element(kind, p_to))  # (Ns_to, Ns_from)
    return np.einsum("ts,evs->evt", M, np.ascontiguousarray(Q))
