"""Solution output: VTK legacy ASCII unstructured grids and boundary-surface
CSV extracts."""

from __future__ import annotations

import csv
from typing import Optional

import numpy as np

from .. import physics
from ..errors import ConfigError
from ..operators import tensor_rule


def _subcell_connectivity(dim: int, k: int):
    """Connectivity of the (k+1)^dim plot grid into VTK quads/hexes."""
    n1 = k + 1
    cells = []
    if dim == 2:
        def vid(i, j):
            return j * n1 + i
        for j in range(k):
            for i in range(k):
                cells.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    else:
        def vid3(i, j, m):
            return (m * n1 + j) * n1 + i
        for m in range(k):
            for j in range(k):
                for i in range(k):
                    cells.append((
                        vid3(i, j, m), vid3(i + 1, j, m), vid3(i + 1, j + 1, m),
                        vid3(i, j + 1, m), vid3(i, j, m + 1), vid3(i + 1, j, m + 1),
                        vid3(i + 1, j + 1, m + 1), vid3(i, j + 1, m + 1),
                    ))
    return cells


def write_vtk(path: str, solver, order: Optional[int] = None,
              q_criterion: bool = False):
    """Point-interpolated fields on a per-element plot grid, VTK legacy
    ASCII unstructured grid (rho, velocity, p, T, optional Q-criterion)."""
    dim = solver.dim
    k = solver.opt.p if order is None else order
    k = max(k, 1)
    coords, vals = solver.sample_solution(order=k)
    ne, m = coords.shape[0], coords.shape[1]
    gas = solver.gas
    rho = vals[..., 0]
    vel = vals[..., 1:1 + dim] / rho[..., None]
    p = physics.pressure(vals, dim, gas)
    T = p / (rho * gas.R)

    qcrit = _plot_velocity_gradient(solver, k) if q_criterion else None

    npts = ne * m
    sub = _subcell_connectivity(dim, k)
    cell_type = 9 if dim == 2 else 12
    nodes_per = 4 if dim == 2 else 8

    vector = " ".join(["%.12g"] * dim + ["0"] * (3 - dim)) + "\n"  # z = 0 in 2-D
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("flow solution\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {npts} double\n")
        _write_rows(fh, coords.reshape(-1, dim), vector)
        ncell = ne * len(sub)
        fh.write(f"CELLS {ncell} {ncell * (nodes_per + 1)}\n")
        conn = (m * np.arange(ne)[:, None, None] + np.array(sub)).reshape(-1, nodes_per)
        _write_rows(fh, conn, f"{nodes_per}" + " %d" * nodes_per + "\n")
        fh.write(f"CELL_TYPES {ncell}\n")
        fh.write(f"{cell_type}\n" * ncell)
        fh.write(f"POINT_DATA {npts}\n")
        fh.write("SCALARS rho double\nLOOKUP_TABLE default\n")
        _write_rows(fh, rho.reshape(-1, 1), "%.12g\n")
        fh.write("VECTORS velocity double\n")
        _write_rows(fh, vel.reshape(-1, dim), vector)
        for name, arr in (("p", p), ("T", T)):
            fh.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            _write_rows(fh, arr.reshape(-1, 1), "%.12g\n")
        if qcrit is not None:
            fh.write("SCALARS qcriterion double\nLOOKUP_TABLE default\n")
            _write_rows(fh, qcrit.reshape(-1, 1), "%.12g\n")


def _write_rows(fh, rows: np.ndarray, fmt: str, chunk: int = 64):
    """Write the rows of a 2-D array, each with the %-format ``fmt``: one
    format call and one write per ``chunk`` rows.  A small chunk keeps each
    call's float objects and strings to a few kB, which the interpreter's
    free memory already holds; chunks of 128 to 4096 rows wrote no faster
    and left the vortex benchmark's peak RSS 5 MB higher in some runs."""
    for lo in range(0, rows.shape[0], chunk):
        block = rows[lo:lo + chunk]
        fh.write((fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _plot_velocity_gradient(solver, k: int):
    """Q-criterion on the plot grid: physical gradients computed at the
    solution points (chain rule), then interpolated."""
    dim = solver.dim
    n1 = k + 1
    pts, _ = tensor_rule(np.linspace(-1.0, 1.0, n1), np.ones(n1), dim)
    ref = solver.ref
    # C-ordered operands: the einsums' summation order, and so the output
    # bytes, do not depend on the solver's variable-major layout
    Q = np.ascontiguousarray(solver.Q_upts)
    # J^-T = adj^T / |J| as compute_geometry forms it (the solver keeps its
    # rows only when viscous)
    adj = solver.adj_rows.transpose(2, 3, 0, 1)  # (ne, Ns, d, d)
    invT = np.ascontiguousarray(np.swapaxes(adj, -1, -2)) / solver.det_upts[..., None, None]
    grads_ref = np.empty((solver.ne, dim, dim + 2, ref.num_solution_points))
    for ax in range(dim):
        grads_ref[:, ax] = np.einsum("ts,evs->evt", ref.div_operators[ax], Q)
    phys = np.einsum("eskl,elvs->ekvs", invT, grads_ref)
    M = ref.basis_at(pts)
    gq = np.einsum("ms,ekvs->ekmv", M, phys)  # (ne, dim, m, nv)
    vals = np.einsum("ms,evs->emv", M, Q)
    rho, vel, _ = physics.split_state(vals.reshape(-1, dim + 2), dim)
    dudx = physics.velocity_gradient(
        rho, vel, np.moveaxis(gq, 1, 2).reshape(-1, dim, dim + 2))
    q = physics.q_criterion(dudx, dim).reshape(solver.ne, n1 ** dim)
    return q


def write_surface_csv(path: str, solver, patch: str, p0_ref: float):
    """Boundary-surface rows (x, y, z, p, T, isentropic Mach) for one patch.

    A patch of the mesh that has no face on this rank gives a file that
    holds only the header; a name that is no patch of the mesh raises."""
    if patch not in solver.shard.patch_names.values():
        raise ConfigError(f"unknown patch {patch!r}")
    gas = solver.gas
    dim = solver.dim
    rows = []
    for spec, lo, hi in solver.boundary_spans:
        if spec.patch != patch:
            continue
        e, pt = np.divmod(solver.iface.slot[lo:hi], solver.nf)
        Q = solver.Q_fpts[:, e, pt].T  # (m, nv)
        x = solver.x_fpts[e, pt]
        p = physics.pressure(Q, dim, gas)
        T = p / (Q[..., 0] * gas.R)
        mis = physics.isentropic_mach(p, p0_ref, gas)
        for i in range(hi - lo):
            xyz = list(x[i]) + [0.0] * (3 - dim)
            rows.append([xyz[0], xyz[1], xyz[2], p[i], T[i], mis[i]])
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z", "p", "T", "mach_is"])
        for row in rows:
            w.writerow([f"{v:.12g}" for v in row])
