"""Correctness checks computed without fluxrecon.

Everything here uses numpy and the standard library only: its own Gmsh
and config readers, its own periodic vertex pairing and face dictionary,
its own quadrature and closed-form solutions.  Each ``check_*`` function
returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict

import numpy as np

# volume element faces as vertex-index sets (the order does not matter here)
_FACES = {
    2: ((0, 1), (1, 2), (2, 3), (3, 0)),
    3: ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)),
}


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def read_config(path):
    """Flat ``key = value`` file; ``#`` starts a comment; the last key wins."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                out[key.strip()] = value.strip()
    return out


def read_gmsh(path):
    """Gmsh 2.2 ASCII: node coordinates, volume cells and named boundaries.

    Cells are numbered in file order and nodes by their position in the
    node list, both from 0.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names, node_ids, coords, elems = {}, [], [], []
    i = 0
    while i < len(lines):
        tag = lines[i].strip()
        if tag in ("$PhysicalNames", "$Nodes", "$Elements"):
            count = int(lines[i + 1])
            body = lines[i + 2:i + 2 + count]
            if tag == "$PhysicalNames":
                for row in body:
                    _, num, name = row.split(maxsplit=2)
                    names[int(num)] = name.strip().strip('"')
            elif tag == "$Nodes":
                for row in body:
                    parts = row.split()
                    node_ids.append(int(parts[0]))
                    coords.append([float(v) for v in parts[1:4]])
            else:
                for row in body:
                    parts = [int(v) for v in row.split()]
                    ntags = parts[2]
                    elems.append((parts[1], parts[3] if ntags else 0, parts[3 + ntags:]))
            i += 2 + count
        i += 1
    index = {nid: k for k, nid in enumerate(node_ids)}
    dim = 3 if any(etype == 5 for etype, _, _ in elems) else 2
    volume_type, face_type = (5, 3) if dim == 3 else (3, 1)
    cells, boundary = [], defaultdict(list)
    for etype, phys, nodes in elems:
        verts = tuple(index[v] for v in nodes)
        if etype == volume_type:
            cells.append(verts)
        elif etype == face_type:
            boundary[names.get(phys, f"patch{phys}")].append(verts)
    return {"dim": dim, "coords": np.array(coords)[:, :dim], "cells": cells,
            "boundary": dict(boundary)}


def read_vtk(path):
    """Legacy ASCII unstructured grid: point coordinates and the rho field."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = {}
    for i, line in enumerate(lines):
        if line.startswith("POINTS "):
            n = int(line.split()[1])
            out["points"] = np.array(" ".join(lines[i + 1:i + 1 + n]).split(),
                                     dtype=float).reshape(n, 3)
        elif line.startswith("SCALARS rho "):
            n = out["points"].shape[0]
            out["rho"] = np.array(lines[i + 2:i + 2 + n], dtype=float)
    return out


# ---------------------------------------------------------------------------
# mesh: periodic pairing and the face dictionary
# ---------------------------------------------------------------------------


def periodic_classes(mesh, config):
    """Vertex -> representative, joining the vertices of each periodic pair.

    For ``bc.B.kind = periodic`` with ``partner = A`` and ``translation = t``
    every vertex of B sits at a vertex of A plus t.
    """
    coords = mesh["coords"]
    parent = list(range(coords.shape[0]))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    extent = float(np.max(coords.max(axis=0) - coords.min(axis=0)))
    tol = 1e-7 * max(extent, 1.0)
    periodic = [k.split(".")[1] for k, v in config.items()
                if k.startswith("bc.") and k.endswith(".kind") and v == "periodic"]
    for name in sorted(periodic):
        partner = config[f"bc.{name}.partner"]
        shift = np.array([float(v) for v in config[f"bc.{name}.translation"].split()])
        grid = {}
        for rec in mesh["boundary"][partner]:
            for v in rec:
                grid[tuple(np.round(coords[v] / tol).astype(np.int64))] = v
        for rec in mesh["boundary"][name]:
            for v in rec:
                key = np.round((coords[v] - shift[:coords.shape[1]]) / tol).astype(np.int64)
                hit = None
                for off in np.ndindex(*(3,) * key.size):
                    hit = grid.get(tuple(key + np.array(off) - 1))
                    if hit is not None:
                        break
                if hit is None:
                    raise ValueError(f"periodic vertex {v} of {name} has no partner")
                parent[find(v)] = find(hit)
    return [find(v) for v in range(len(parent))], set(periodic)


def face_dictionary(mesh, config):
    """Face key -> owning cells, and boundary face key -> patch name."""
    rep, periodic = periodic_classes(mesh, config)

    def key(verts):
        return frozenset(rep[v] for v in verts)

    owners = defaultdict(list)
    for cid, cell in enumerate(mesh["cells"]):
        for face in _FACES[mesh["dim"]]:
            owners[key(cell[i] for i in face)].append(cid)
    patches = {}
    for name, records in mesh["boundary"].items():
        if name in periodic:
            continue
        for rec in records:
            patches[key(rec)] = name
    return owners, patches, key


def check_shards(mesh, config, shards):
    """Each cell in one shard, each interior face coupled once, each
    boundary record on its patch.

    ``shards`` are the per-rank mesh pieces the solver was built from; only
    their public attributes are read.
    """
    owners, patches, key = face_dictionary(mesh, config)
    errors = []
    rank_of = {}
    for sh in shards:
        for cell in sh.cells:
            if cell.id in rank_of:
                errors.append(f"cell {cell.id} in shards {rank_of[cell.id]} and {sh.rank}")
            rank_of[cell.id] = sh.rank
            if cell.id >= len(mesh["cells"]) or tuple(cell.vertex_ids) != mesh["cells"][cell.id]:
                errors.append(f"cell {cell.id} has vertices {cell.vertex_ids} not in the mesh file")
    missing = set(range(len(mesh["cells"]))) - set(rank_of)
    if missing:
        errors.append(f"{len(missing)} cells in no shard, e.g. {sorted(missing)[:3]}")

    coupled = Counter()
    halves = defaultdict(list)
    landed = Counter()
    for sh in shards:
        for f in sh.internal_faces:
            k = key(f.left_corners)
            pair = sorted((f.left[0], f.right[0]))
            if key(f.right_corners) != k or sorted(owners.get(k, [])) != pair:
                errors.append(f"rank {sh.rank}: internal face {f.left}-{f.right} "
                              "does not join the cells that share it")
            elif rank_of.get(pair[0]) != sh.rank or rank_of.get(pair[1]) != sh.rank:
                errors.append(f"rank {sh.rank}: internal face {f.left}-{f.right} "
                              "names a cell of another shard")
            coupled[k] += 1
        for face, cpl in sh.remote_faces:
            k = key(face.left_corners)
            peer = cpl.remote_tag[2]
            if sorted(owners.get(k, [])) != sorted((cpl.local_gid, peer)):
                errors.append(f"rank {sh.rank}: remote face of cell {cpl.local_gid} "
                              f"names cell {peer}, which does not share it")
            elif rank_of.get(peer) != cpl.remote_rank or rank_of.get(cpl.local_gid) != sh.rank:
                errors.append(f"rank {sh.rank}: remote face of cell {cpl.local_gid} "
                              f"points at rank {cpl.remote_rank}, not the owner of {peer}")
            halves[k].append((sh.rank, cpl.local_gid, cpl.remote_rank, peer))
        for f in sh.boundary_faces:
            k = key(f.left_corners)
            name = sh.patch_names.get(f.patch_id)
            if patches.get(k) != name or owners.get(k) != [f.left[0]]:
                errors.append(f"rank {sh.rank}: boundary face {f.left} on patch {name!r}, "
                              f"its record is on {patches.get(k)!r}")
            landed[k] += 1
    for k, sides in halves.items():
        a = sides[0]
        if len(sides) == 2 and sides[1] == (a[2], a[3], a[0], a[1]):
            coupled[k] += 1
        else:
            errors.append(f"remote face of cells {sorted(owners.get(k, []))} has "
                          f"{len(sides)} unmatched sides")
    for k, cells in owners.items():
        if len(cells) == 2 and coupled[k] != 1:
            errors.append(f"interior face of cells {sorted(cells)} coupled {coupled[k]} times")
        elif len(cells) == 1 and k not in patches:
            errors.append(f"face of cell {cells[0]} has no partner and no boundary record")
        elif len(cells) > 2:
            errors.append(f"face shared by {len(cells)} cells")
    for k, name in patches.items():
        if landed[k] != 1:
            errors.append(f"boundary record on {name!r} landed {landed[k]} times")
    return errors[:20]


# ---------------------------------------------------------------------------
# quadrature and totals
# ---------------------------------------------------------------------------


def tensor_weights(w1, dim):
    """Tensor-product weights for the flattened tensor point set."""
    n = len(w1)
    return np.array([math.prod(w1[(s // n ** ax) % n] for ax in range(dim))
                     for s in range(n ** dim)])


def box_volumes(mesh, cell_ids):
    """Volume of each axis-aligned box cell, in the given cell order."""
    out = np.empty(len(cell_ids))
    for i, cid in enumerate(cell_ids):
        xyz = mesh["coords"][list(mesh["cells"][cid])]
        out[i] = np.prod(xyz.max(axis=0) - xyz.min(axis=0))
    return out


def gauss_totals(Q, volumes, p, dim):
    """Integrals of each variable of Q (elements, variables, points) at
    Gauss-Legendre solution points; exact for the degree-p polynomial."""
    _, w1 = np.polynomial.legendre.leggauss(p + 1)
    w = tensor_weights(w1, dim) / 2.0 ** dim
    return np.einsum("e,s,evs->v", volumes, w, Q)


def kinetic_energy(Q, volumes, p, dim):
    """Integral of |m|^2 / (2 rho) at the solution points."""
    _, w1 = np.polynomial.legendre.leggauss(p + 1)
    w = tensor_weights(w1, dim) / 2.0 ** dim
    ke = 0.5 * np.sum(Q[:, 1:1 + dim] ** 2, axis=1) / Q[:, 0]
    return float(np.einsum("e,s,es->", volumes, w, ke))


def check_drift(before, after, scale, tol=1e-12, names=None):
    errors = []
    for i, (a, b, s) in enumerate(zip(before, after, np.broadcast_to(scale, before.shape))):
        drift = abs(b - a) / abs(s)
        if not drift <= tol:
            label = names[i] if names else f"variable {i}"
            errors.append(f"{label} drifted by {drift:.3e} > {tol:g}")
    return errors


# ---------------------------------------------------------------------------
# vortex2d: the advected isentropic vortex
# ---------------------------------------------------------------------------


def vortex_rho(xy, t, beta, box=16.0, gamma=1.4, velocity=(1.0, 1.0)):
    """Density of the isentropic vortex carried by the stream for time t
    on a periodic box centred on the origin (rho_inf = p_inf = 1)."""
    half = box / 2.0
    x = (xy[:, 0] - velocity[0] * t + half) % box - half
    y = (xy[:, 1] - velocity[1] * t + half) % box - half
    r2 = x * x + y * y
    temp = 1.0 - (gamma - 1.0) * beta ** 2 / (8.0 * gamma * math.pi ** 2) * np.exp(1.0 - r2)
    return temp ** (1.0 / (gamma - 1.0))


def newton_cotes(n):
    """Closed Newton-Cotes weights on n equispaced points of [-1, 1]."""
    x = np.linspace(-1.0, 1.0, n)
    moments = np.array([(1.0 - (-1.0) ** (k + 1)) / (k + 1) for k in range(n)])
    return np.linalg.solve(np.vander(x, increasing=True).T, moments)


def vortex_errors(vtk, t, beta, order):
    """L2(rho) of the output against the moved vortex and against the
    unmoved one, by Newton-Cotes quadrature on each element's plot grid."""
    n1 = order + 1
    m = n1 * n1
    pts = vtk["points"][:, :2].reshape(-1, m, 2)
    rho = vtk["rho"].reshape(-1, m)
    e1 = pts[:, n1 - 1] - pts[:, 0]
    e2 = pts[:, n1 * (n1 - 1)] - pts[:, 0]
    det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) / 4.0
    w = det[:, None] * tensor_weights(newton_cotes(n1), 2)[None, :]
    flat = pts.reshape(-1, 2)
    exact = vortex_rho(flat, t, beta).reshape(rho.shape)
    still = vortex_rho(flat, 0.0, beta).reshape(rho.shape)
    area = w.sum()
    err = math.sqrt(float(np.sum(w * (rho - exact) ** 2)) / area)
    unmoved = math.sqrt(float(np.sum(w * (still - exact) ** 2)) / area)
    return err, unmoved


def check_vortex(vtk, t, beta, order, totals0, totals1):
    errors = []
    err, unmoved = vortex_errors(vtk, t, beta, order)
    if not err * 1000.0 <= unmoved:
        errors.append(f"L2(rho) {err:.3e} is not 1000x below the unmoved error {unmoved:.3e}")
    errors += check_drift(totals0, totals1, totals0, names=("mass", "x-momentum",
                                                            "y-momentum", "energy"))
    return errors, {"l2_rho": err, "l2_unmoved": unmoved}


# ---------------------------------------------------------------------------
# tgv3d: viscous Taylor-Green decay
# ---------------------------------------------------------------------------


def tgv_decay_rate(times, energies):
    """-dK/dt at t = 0 from a least-squares quadratic through K(t)."""
    coeffs = np.polynomial.polynomial.polyfit(np.asarray(times), np.asarray(energies), 2)
    return -float(coeffs[1])


def check_tgv(times, energies, mu, volume, totals0, totals1, tol=0.02):
    """Totals conserved, K falling every step, and the early decay rate
    equal to 2 mu <S:S> V = 3 mu V / 4 for the initial field (rho = 1)."""
    errors = check_drift(totals0, totals1, totals0[-1],
                         names=("mass", "x-momentum", "y-momentum", "z-momentum", "energy"))
    rises = [i for i in range(1, len(energies)) if not energies[i] < energies[i - 1]]
    if rises:
        errors.append(f"kinetic energy did not fall at steps {rises[:5]}")
    rate = tgv_decay_rate(times, energies)
    expect = 0.75 * mu * volume
    rel = abs(rate - expect) / expect
    if not rel <= tol:
        errors.append(f"decay rate {rate:.6e} differs from 3*mu*V/4 = {expect:.6e} by {rel:.2%}")
    return errors, {"decay_rate_rel_err": rel}


# ---------------------------------------------------------------------------
# cascade2d: uniform stream along the stagger direction
# ---------------------------------------------------------------------------


def stream_state(mach, t0, p, angle_deg, gamma, gas_r):
    """Conserved state and total pressure of a uniform stream."""
    fac = 1.0 + 0.5 * (gamma - 1.0) * mach * mach
    temp = t0 / fac
    rho = p / (gas_r * temp)
    speed = mach * math.sqrt(gamma * gas_r * temp)
    a = math.radians(angle_deg)
    u, v = speed * math.cos(a), speed * math.sin(a)
    energy = p / (gamma - 1.0) + 0.5 * rho * speed * speed
    p0 = p * fac ** (gamma / (gamma - 1.0))
    return np.array([rho, rho * u, rho * v, energy]), p0


def check_stream(states, q_stream, tol=1e-10):
    """Each rank's state equals the stream, relative to each variable."""
    errors, worst = [], 0.0
    for rank, Q in enumerate(states):
        dev = float(np.max(np.abs(Q - q_stream[None, :, None]) / np.abs(q_stream)[None, :, None]))
        worst = max(worst, dev)
        if not dev <= tol:
            errors.append(f"rank {rank}: stream changed by {dev:.3e} > {tol:g}")
    return errors, {"stream_dev": worst}


def isentropic_mach(p, p0, gamma):
    return np.sqrt(2.0 / (gamma - 1.0) * ((p0 / p) ** ((gamma - 1.0) / gamma) - 1.0))


def check_surface(paths, p0, mach, gamma, expected_rows, tol=1e-9):
    """Every surface row's isentropic Mach, from its pressure, is the
    stream Mach, and the rows cover the whole patch."""
    ps = []
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            ps += [float(row["p"]) for row in csv.DictReader(fh)]
    errors = []
    if len(ps) != expected_rows:
        errors.append(f"{len(ps)} surface rows, expected {expected_rows}")
    if ps:
        dev = float(np.max(np.abs(isentropic_mach(np.array(ps), p0, gamma) - mach)))
        if not dev <= tol:
            errors.append(f"isentropic Mach off the stream Mach {mach} by {dev:.3e}")
    else:
        dev = float("nan")
    return errors, {"mach_dev": dev}
