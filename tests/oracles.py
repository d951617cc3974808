"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (per-element
and per-face loops, no kernel machinery) so it exercises none of the
production code paths it is checking.  Only ``interfaces_per_face`` uses
canonical frames, because the halo order it reproduces is defined by them.
``TwoSidedLDGSolver`` is the one exception to the rule: it is the solver
with only its LDG passes replaced by the two-sided formulas, so that a test
compares those passes and nothing else.
"""

from __future__ import annotations

import numpy as np

from fluxrecon import physics
from fluxrecon.errors import InvertedElementError, MeshError
from fluxrecon.mesh_core import (
    HEX_FACES,
    QUAD_EDGES,
    build_face_list,
    match_local_faces,
    orientation_permutation,
)
from fluxrecon.operators import (
    _REF_CORNERS,
    ElementGeometry,
    _adjugate,
    _shape_gradients,
    _tensor_shape,
    build_reference_element,
    dg_correction_derivative,
    lagrange_eval,
)
from fluxrecon.pipeline import SolverRank


def random_partition(rng, ncells, nranks):
    """Random cell->rank assignment with every rank guaranteed nonempty."""
    a = rng.integers(0, nranks, ncells).astype(np.int64)
    idx = rng.choice(ncells, size=nranks, replace=False)
    a[idx] = np.arange(nranks)
    return a


def list_frontier_partition(adjacency, weights, nparts, seed=0):
    """The greedy graph growing and boundary refinement that
    ``partition_mesh`` implements, written on dicts with a list frontier
    (``pop(0)``, a linear membership scan) and per-cell loops."""
    import random

    cells = sorted(adjacency)
    n = len(cells)
    w = [weights[c] for c in cells]
    rng = random.Random(seed)
    part = [-1] * n
    unassigned = set(range(n))
    remaining = sum(w)
    for p in range(nparts):
        target = remaining / (nparts - p)
        frontier = [min(unassigned)]
        load = 0
        while frontier and (load + w[frontier[0]] <= target or load == 0):
            cur = frontier.pop(0)
            part[cur] = p
            load += w[cur]
            unassigned.discard(cur)
            for nb in adjacency[cur]:
                if part[nb] == -1 and nb not in frontier:
                    frontier.append(nb)
            if load >= target and p < nparts - 1:
                break
        remaining -= load
        if p == nparts - 1:
            for i in sorted(unassigned):
                part[i] = p
    loads = [0] * nparts
    for i in range(n):
        loads[part[i]] += w[i]
    mean = sum(loads) / nparts
    for _ in range(8):
        worst = loads.index(max(loads))
        if loads[worst] / mean <= 1.05:
            break
        boundary = [(i, q) for i in range(n) if part[i] == worst
                    for q in sorted({part[nb] for nb in adjacency[i]} - {worst})]
        rng.shuffle(boundary)
        boundary.sort(key=lambda iq: loads[iq[1]])
        for i, q in boundary:
            if loads[worst] - w[i] >= w[i] and loads[q] + w[i] < loads[worst]:
                part[i] = q
                loads[worst] -= w[i]
                loads[q] += w[i]
                break
        else:
            break
    return part


def cube_rotations():
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


def twisted_hex_box(rotation):
    """A 3x2x2 hex box, periodic in x with the wrap mirrored in z
    (z -> nz - z), and the local numbering of hex ``g`` turned by the
    cube rotation ``rotation(g)``: its faces meet in all 8 orientations."""
    from fluxrecon.fixtures import box_mesh

    nx, ny, nz = 3, 2, 2
    mesh = box_mesh(nx, ny, nz, periodic=(True, False, False), perturb=0.2, seed=3)
    nvx, nvy = nx + 1, ny + 1
    for k in range(nz + 1):
        for j in range(nvy):
            mesh.vertex_alias[nx + nvx * (j + nvy * k)] = nvx * (j + nvy * (nz - k))
    rots = np.array(cube_rotations())
    picks = rots[[rotation(g) for g in range(mesh.num_cells)]]
    mesh.cells = np.take_along_axis(mesh.cells, picks, axis=1)
    return mesh


def brute_force_match(cells, alias=None):
    """O(n^2)-flavored matcher: group every (cell, face) of a cell table by
    key via a dict."""
    groups = {}
    for gid, row in enumerate(np.asarray(cells).tolist()):
        for lf, cyc in enumerate(HEX_FACES if len(row) == 8 else QUAD_EDGES):
            vids = [row[i] for i in cyc]
            key = tuple(sorted(vids if alias is None else (int(alias[v]) for v in vids)))
            groups.setdefault(key, []).append((gid, lf))
    internal, uncoupled = [], []
    for key, owners in sorted(groups.items()):
        if len(owners) == 1:
            uncoupled.append((key, owners[0]))
        elif len(owners) == 2:
            internal.append((key, tuple(sorted(owners))))
        else:
            raise AssertionError(f"non-manifold key {key}")
    return internal, uncoupled


def internal_keys(internal, alias=None):
    """Face keys (sorted aliased left corners) of an internal-face table."""
    L = (internal.shape[1] - 5) // 2
    return {tuple(sorted(v if alias is None else int(alias[v]) for v in row[5:5 + L]))
            for row in internal.tolist()}


def lagrange_diff_matrix_loop(nodes):
    """D[a, b] = l_b'(nodes[a]) from barycentric weights, one entry at a
    time."""
    n = nodes.size
    w = np.ones(n)
    for b in range(n):
        for m in range(n):
            if m != b:
                w[b] /= nodes[b] - nodes[m]
    D = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                D[a, b] = (w[b] / w[a]) / (nodes[a] - nodes[b])
        D[a, a] = -np.sum(D[a, :])
    return D


def tensor_basis_loop(nodes, points):
    """Tensor Lagrange basis values at ``points`` (npts, dim), one solution
    point (flattened x-fastest) at a time."""
    dim = points.shape[1]
    n = nodes.size
    per_axis = [lagrange_eval(nodes, points[:, ax]) for ax in range(dim)]
    out = np.ones((points.shape[0], n ** dim))
    for s in range(n ** dim):
        idx = [(s // n ** ax) % n for ax in range(dim)]
        col = np.ones(points.shape[0])
        for ax in range(dim):
            col = col * per_axis[ax][:, idx[ax]]
        out[:, s] = col
    return out


def correction_matrix_loop(ref):
    """The DG correction matrix of a reference element, one (flux point,
    solution point) pair at a time: a solution point on the normal line of
    a flux point gets ``side * g'`` at its normal-axis index."""
    n, dim = ref.n, ref.dim
    nfp = ref.num_face_points
    gL, gR = dg_correction_derivative(ref.p, ref.points_1d)
    corr = np.zeros((n ** dim, ref.num_faces * nfp))
    for f, info in enumerate(ref.face_info):
        gn = gR if info.side > 0 else gL
        for fp in range(nfp):
            # tangential 1-D indices of this flux point, honoring direction
            tidx = {}
            rem = fp
            for (ax, sg) in zip(info.tan_axes, info.tan_signs):
                i = rem % n
                rem //= n
                tidx[ax] = i if sg > 0 else n - 1 - i
            col = f * nfp + fp
            for s in range(n ** dim):
                ok = all((s // n ** ax) % n == i for ax, i in tidx.items())
                if ok:
                    a = (s // n ** info.normal_axis) % n
                    corr[s, col] = info.side * gn[a]
    return corr


def orientation_permutation_loop(dim, orientation, points_1d):
    """Face-point permutation of an orientation code, one right-side point
    at a time: map it through the corner cycle into the left face's
    parameters and look up the nearest left point."""
    pts = np.asarray(points_1d, dtype=float)
    n = pts.size
    if dim == 2:
        return np.arange(n) if orientation == 0 else np.arange(n)[::-1].copy()
    k, s = orientation // 2, 1 if orientation % 2 == 0 else -1
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    corner_params = square[[(k + s * m) % 4 for m in range(4)]]
    perm = np.empty(n * n, dtype=np.int64)
    for jr in range(n):
        for ir in range(n):
            u, v = pts[ir], pts[jr]
            w = 0.25 * np.array(
                [(1 - u) * (1 - v), (1 + u) * (1 - v), (1 + u) * (1 + v), (1 - u) * (1 + v)]
            )
            ul, vl = w @ corner_params
            il = int(np.argmin(np.abs(pts - ul)))
            jl = int(np.argmin(np.abs(pts - vl)))
            if abs(pts[il] - ul) > 1e-9 or abs(pts[jl] - vl) > 1e-9:
                raise MeshError("face point set is not closed under the face symmetry")
            perm[jl * n + il] = jr * n + ir
    return perm


def face_geometry_one(corners, points_1d):
    """Coordinates, unit outward normals and area scales of one face's
    points from its (ncorners, d) corner coordinates."""
    pts = np.asarray(points_1d, dtype=float)
    if corners.shape[0] == 2:
        u = pts[:, None]
        x = 0.5 * (1 - u) * corners[0] + 0.5 * (1 + u) * corners[1]
        t = np.broadcast_to(0.5 * (corners[1] - corners[0]), x.shape)
        normal = np.stack([t[:, 1], -t[:, 0]], axis=1)
    else:
        uu, vv = np.meshgrid(pts, pts, indexing="xy")
        u = uu.reshape(-1, 1)
        v = vv.reshape(-1, 1)
        x = (0.25 * (1 - u) * (1 - v) * corners[0]
             + 0.25 * (1 + u) * (1 - v) * corners[1]
             + 0.25 * (1 + u) * (1 + v) * corners[2]
             + 0.25 * (1 - u) * (1 + v) * corners[3])
        xu = (0.25 * (-(1 - v)) * corners[0] + 0.25 * (1 - v) * corners[1]
              + 0.25 * (1 + v) * corners[2] - 0.25 * (1 + v) * corners[3])
        xv = (0.25 * (-(1 - u)) * corners[0] - 0.25 * (1 + u) * corners[1]
              + 0.25 * (1 + u) * corners[2] + 0.25 * (1 - u) * corners[3])
        normal = np.cross(xu, xv)
    area = np.linalg.norm(normal, axis=1)
    return x, normal / area[:, None], area


def geometry_one(coords, ref, cell_id):
    """One cell's geometry, face by face; fields without the element axis
    (``volume`` and ``h_min`` are floats)."""
    coords = np.asarray(coords, dtype=float)
    grads = _shape_gradients(ref.kind, ref.solution_points)
    jac = np.einsum("ia,pib->pab", coords, grads)
    det = np.linalg.det(jac)
    if np.any(det <= 0):
        raise InvertedElementError(cell_id, f"min |J| = {det.min():.3e}")
    adj = _adjugate(jac)
    nfp = ref.num_face_points
    faces = HEX_FACES if ref.kind == "hex" else QUAD_EDGES
    x_f = np.empty((ref.num_faces * nfp, ref.dim))
    normals = np.empty_like(x_f)
    areas = np.empty(ref.num_faces * nfp)
    for f, cyc in enumerate(faces):
        sl = ref.face_slice(f)
        x_f[sl], normals[sl], areas[sl] = face_geometry_one(coords[list(cyc)], ref.points_1d)
    volume = float(ref.solution_weights @ det)
    face_areas = np.array([float(ref.face_weights @ areas[ref.face_slice(f)])
                           for f in range(ref.num_faces)])
    return ElementGeometry(
        jac_upts=jac, det_upts=det, adj_upts=adj,
        inv_t_upts=np.transpose(adj, (0, 2, 1)) / det[:, None, None],
        normals_fpts=normals, area_fpts=areas,
        coords_upts=_tensor_shape(ref.kind, ref.solution_points) @ coords,
        coords_fpts=x_f, volume=volume, face_areas=face_areas,
        h_min=volume / face_areas.max(),
    )


def interfaces_per_face(solver):
    """A solver's interface pair list, pair normals, signed areas, LDG
    penalties, per-peer halo packs and boundary spans, rebuilt face by face
    from its shard: one orientation permutation and one face geometry per
    face."""
    shard, ref, d = solver.shard, solver.ref, solver.dim
    nfp, pts = ref.num_face_points, ref.points_1d
    ident = np.arange(nfp)
    xyz = {int(v): shard.vertex_coords[i] for i, v in enumerate(shard.vertex_ids)}
    lid = {c.id: i for i, c in enumerate(shard.cells)}
    geoms = [geometry_one(np.array([xyz[v] for v in c.vertex_ids]), ref, c.id)
             for c in shard.cells]
    normal = np.stack([g.normals_fpts for g in geoms])
    area = np.stack([g.area_fpts for g in geoms])

    def slots(gid, lf, perm):
        return [(lid[gid], lf * nfp + int(k)) for k in perm]

    def set_geometry(corner_vids, *sides):
        _, n_c, a_c = face_geometry_one(np.array([xyz[v] for v in corner_vids]), pts)
        for side in sides:
            for (e, p), n, a in zip(side, n_c, a_c):
                normal[e, p], area[e, p] = n, a

    own, loc_r, flip = [], [], []
    for f in shard.internal_faces:
        left = slots(*f.left, ident)
        right = slots(*f.right, orientation_permutation(d, f.orientation, pts))
        set_geometry(f.left_corners, left, right)
        own += left
        loc_r += right
    halo = {}
    for _, cpl in shard.remote_faces:
        side = slots(cpl.local_gid, cpl.local_face,
                     orientation_permutation(d, cpl.orientation, pts))
        set_geometry(cpl.canonical_corners, side)
        key = ((cpl.local_gid, cpl.local_face) if cpl.canonical
               else (cpl.remote_tag[2], cpl.remote_tag[3]))
        halo.setdefault(cpl.remote_rank, []).append((key, side, not cpl.canonical))
    # remote entries by (peer rank, canonical key)
    pack = {}
    for rank in sorted(halo):
        entries = sorted(halo[rank])
        pack[rank] = [slot for _, side, _ in entries for slot in side]
        own += pack[rank]
        flip += [f for _, _, f in entries for _ in range(nfp)]
    spans, lo = [], len(own)
    for pid in sorted({f.patch_id for f in shard.boundary_faces}):
        faces = [f for f in shard.boundary_faces if f.patch_id == pid]
        for f in faces:
            own += slots(*f.left, ident)
        name = shard.patch_names.get(pid, str(pid))
        spans.append((solver.boundary_specs[name], lo, lo + nfp * len(faces)))
        lo += nfp * len(faces)
    flip = [False] * len(loc_r) + flip + [False] * (len(own) - len(loc_r) - len(flip))

    e, p = np.array(own, dtype=np.int64).reshape(-1, 2).T
    h = np.array([[sum(w * a for w, a in zip(ref.face_weights, area[i, ref.face_slice(f)]))
                   for f in range(ref.num_faces)] for i in range(len(shard.cells))])
    tau = solver.opt.ldg_tau_scale * (solver.opt.p + 1) ** 2 / (h if d == 2 else np.sqrt(h))
    return {
        "own": (e, p),
        "loc_r": tuple(np.array(loc_r, dtype=np.int64).reshape(-1, 2).T),
        "flip": np.array(flip, dtype=bool),
        "normal": normal[e, p],
        "area": np.where(flip, -area[e, p], area[e, p]),
        "tau": tau[e, p // nfp],
        "neighbors": sorted(halo),
        "pack": {r: tuple(np.array(v, dtype=np.int64).reshape(-1, 2).T)
                 for r, v in pack.items()},
        "spans": spans,
    }


def reference_residual(mesh, Q, p, gas, riemann="rusanov", sponges=()):
    """Plain dense evaluation of the corrected-divergence update of the
    inviscid (Euler) equations; viscous terms are outside this oracle's
    scope (see :class:`TwoSidedLDGSolver`).

    Q has layout (ne, nvars, Ns).  Periodic-only meshes (every face pairs
    up); boundary conditions are outside this oracle's scope.
    """
    dim = mesh.dim
    nv = dim + 2
    kind = "hex" if dim == 3 else "quad"
    ref = build_reference_element(kind, p)
    ne = mesh.num_cells
    Ns = ref.num_solution_points
    nfp = ref.num_face_points
    nf = ref.num_faces * nfp

    geoms = [geometry_one(mesh.vertices[row], ref, gid)
             for gid, row in enumerate(mesh.cells)]

    # discontinuous transformed flux at solution points and its interpolant
    Fhat = np.zeros((ne, dim, nv, Ns))
    for e in range(ne):
        Qp = Q[e].T  # (Ns, nv)
        F = physics.inviscid_flux(Qp, dim, gas)  # (Ns, dim, nv)
        for s in range(Ns):
            Fhat[e, :, :, s] = geoms[e].adj_upts[s] @ F[s]
    Fhat_f = np.einsum("fs,edvs->edvf", ref.interp_to_faces, Fhat)
    Q_f = np.einsum("fs,evs->evf", ref.interp_to_faces, Q)

    # outward trace of the flux interpolant
    own = np.zeros((ne, nv, nf))
    for f, info in enumerate(ref.face_info):
        sl = ref.face_slice(f)
        own[:, :, sl] = info.side * Fhat_f[:, info.normal_axis][:, :, sl]

    # common fluxes, one pass per internal face
    faces = build_face_list(mesh.cells, mesh.vertex_alias)
    internal, uncoupled = match_local_faces(faces, mesh.vertex_alias)
    assert not len(uncoupled), "reference_residual expects a fully periodic mesh"
    common = np.zeros((ne, nv, nf))
    for face in internal.tolist():
        gl, lfl, gr, lfr, orientation = face[:5]
        perm = orientation_permutation(dim, orientation, ref.points_1d)
        lsl = np.arange(lfl * nfp, (lfl + 1) * nfp)
        rsl = lfr * nfp + perm
        corners = np.array([mesh.vertices[v] for v in face[5:5 + 2 ** (dim - 1)]])
        _, n_c, a_c = face_geometry_one(corners, ref.points_1d)
        QL = Q_f[gl, :, lsl]   # (nfp, nv)
        QR = Q_f[gr, :, rsl]
        Fc = physics.riemann_flux(QL, QR, n_c, dim, gas, riemann)
        common[gl, :, lsl] = a_c[:, None] * Fc
        common[gr, :, rsl] = -a_c[:, None] * Fc

    out = np.zeros_like(Q)
    for e in range(ne):
        div = np.zeros((nv, Ns))
        for ax in range(dim):
            div += Fhat[e, ax] @ ref.div_operators[ax].T
        div += (common[e] - own[e]) @ ref.correction_matrix.T
        out[e] = -div / geoms[e].det_upts[None, :]
    for zone in sponges:
        for e in range(ne):
            S = physics.sponge_source(Q[e].T, zone, geoms[e].coords_upts)
            out[e] += S.T
    return out


def _dot_in_order(a, b):
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s = s + a[i] * b[i]
    return s


def wave_speed(Q, n, dim, gas):
    """|u.n| + c of conserved states (..., nv) along normals (..., dim),
    with u, p and c each computed from Q on their own."""
    rho = Q[..., 0]
    vel = [Q[..., 1 + i] / rho for i in range(dim)]
    un = _dot_in_order(vel, [n[..., i] for i in range(dim)])
    c = np.sqrt(gas.gamma * physics.pressure(Q, dim, gas) / rho)
    return np.abs(un) + c


def rusanov_flux(QL, QR, n, dim, gas):
    """Local Lax-Friedrichs flux from two ``physics.normal_flux`` calls and
    the larger of the two sides' wave speeds."""
    half_lam = 0.5 * np.maximum(wave_speed(QL, n, dim, gas), wave_speed(QR, n, dim, gas))
    FL = physics.normal_flux(QL, n, dim, gas)
    FR = physics.normal_flux(QR, n, dim, gas)
    return 0.5 * (FL + FR) - half_lam[..., None] * (QR - QL)


def hllc_flux(QL, QR, n, dim, gas):
    """HLLC with Davis wave speeds, written per side from the conserved
    states, with ``physics.normal_flux`` as the side fluxes and this
    module's :func:`rusanov_flux` where the star states degenerate.
    Returns the flux and the number of fallback points."""
    nc = [n[..., i] for i in range(dim)]
    side = []
    for Q in (QL, QR):
        rho = Q[..., 0]
        vel = [Q[..., 1 + i] / rho for i in range(dim)]
        p = physics.pressure(Q, dim, gas)
        side.append((rho, vel, Q[..., 1 + dim], p, np.sqrt(gas.gamma * p / rho),
                     _dot_in_order(vel, nc)))
    (rhoL, velL, EL, pL, cL, unL), (rhoR, velR, ER, pR, cR, unR) = side
    SL = np.minimum(unL - cL, unR - cR)
    SR = np.maximum(unL + cL, unR + cR)
    dL = rhoL * (SL - unL)
    dR = rhoR * (SR - unR)
    denom = dL - dR
    safe = np.abs(denom) > 1e-12 * (np.abs(dL) + np.abs(dR) + 1e-300)
    Sstar = np.where(safe, (pR - pL + unL * dL - unR * dR) / np.where(safe, denom, 1.0), 0.0)

    def star(Q, rho, vel, E, p, un, S, d):
        fac = d / np.where(np.abs(S - Sstar) > 1e-300, S - Sstar, 1.0)
        rows = [fac] + [fac * (vel[i] + (Sstar - un) * nc[i]) for i in range(dim)]
        rows.append(fac * (E / rho + (Sstar - un) * (Sstar + p / d)))
        return np.stack(rows, axis=-1)

    QsL = star(QL, rhoL, velL, EL, pL, unL, SL, dL)
    QsR = star(QR, rhoR, velR, ER, pR, unR, SR, dR)
    FL = physics.normal_flux(QL, n, dim, gas)
    FR = physics.normal_flux(QR, n, dim, gas)
    F = np.where((SL >= 0.0)[..., None], FL,
                 np.where((SR <= 0.0)[..., None], FR,
                          np.where((Sstar >= 0.0)[..., None],
                                   FL + SL[..., None] * (QsL - QL),
                                   FR + SR[..., None] * (QsR - QR))))
    bad = ~safe | (QsL[..., 0] <= 0.0) | (QsR[..., 0] <= 0.0)
    F[bad] = rusanov_flux(QL, QR, n, dim, gas)[bad]
    return F, int(bad.sum())


def inviscid_flux(Q, dim, gas):
    """Euler flux (..., dim, nv): row k is ``physics.normal_flux`` along
    the k-th unit vector."""
    return np.stack([physics.normal_flux(Q, np.eye(dim)[k], dim, gas) for k in range(dim)],
                    axis=-2)


def exact_riemann_sod(x, t, gas, left=(1.0, 0.0, 1.0), right=(0.125, 0.0, 0.1),
                      x0=0.5):
    """Exact solution of the Sod shock tube (classic pressure iteration).

    Returns (rho, u, p) arrays at positions x and time t.
    """
    g = gas.gamma
    rl, ul, pl = left
    rr, ur, pr = right
    cl = np.sqrt(g * pl / rl)
    cr = np.sqrt(g * pr / rr)

    def f_side(p, rk, pk, ck):
        if p > pk:  # shock
            ak = 2.0 / ((g + 1.0) * rk)
            bk = (g - 1.0) / (g + 1.0) * pk
            return (p - pk) * np.sqrt(ak / (p + bk))
        # rarefaction
        return 2.0 * ck / (g - 1.0) * ((p / pk) ** ((g - 1.0) / (2 * g)) - 1.0)

    def fp_side(p, rk, pk, ck):
        if p > pk:
            ak = 2.0 / ((g + 1.0) * rk)
            bk = (g - 1.0) / (g + 1.0) * pk
            sq = np.sqrt(ak / (p + bk))
            return sq * (1.0 - 0.5 * (p - pk) / (p + bk))
        return 1.0 / (rk * ck) * (p / pk) ** (-(g + 1.0) / (2 * g))

    p_star = 0.5 * (pl + pr)
    for _ in range(60):
        f = f_side(p_star, rl, pl, cl) + f_side(p_star, rr, pr, cr) + (ur - ul)
        df = fp_side(p_star, rl, pl, cl) + fp_side(p_star, rr, pr, cr)
        dp = f / df
        p_star = max(p_star - dp, 1e-12)
        if abs(dp) < 1e-14:
            break
    u_star = 0.5 * (ul + ur) + 0.5 * (f_side(p_star, rr, pr, cr)
                                      - f_side(p_star, rl, pl, cl))

    xi = (np.asarray(x) - x0) / max(t, 1e-300)
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)
    for i, s in enumerate(xi):
        if s <= u_star:  # left of contact
            if p_star > pl:  # left shock
                sl = ul - cl * np.sqrt((g + 1.0) / (2 * g) * p_star / pl
                                       + (g - 1.0) / (2 * g))
                if s < sl:
                    rho[i], u[i], p[i] = rl, ul, pl
                else:
                    r = rl * ((p_star / pl + (g - 1.0) / (g + 1.0))
                              / ((g - 1.0) / (g + 1.0) * p_star / pl + 1.0))
                    rho[i], u[i], p[i] = r, u_star, p_star
            else:  # left rarefaction
                shl = ul - cl
                c_star = cl * (p_star / pl) ** ((g - 1.0) / (2 * g))
                stl = u_star - c_star
                if s < shl:
                    rho[i], u[i], p[i] = rl, ul, pl
                elif s > stl:
                    r = rl * (p_star / pl) ** (1.0 / g)
                    rho[i], u[i], p[i] = r, u_star, p_star
                else:
                    uu = 2.0 / (g + 1.0) * (cl + (g - 1.0) / 2.0 * ul + s)
                    cc = uu - s
                    rho[i] = rl * (cc / cl) ** (2.0 / (g - 1.0))
                    u[i] = uu
                    p[i] = pl * (cc / cl) ** (2 * g / (g - 1.0))
        else:  # right of contact
            if p_star > pr:  # right shock
                sr = ur + cr * np.sqrt((g + 1.0) / (2 * g) * p_star / pr
                                       + (g - 1.0) / (2 * g))
                if s > sr:
                    rho[i], u[i], p[i] = rr, ur, pr
                else:
                    r = rr * ((p_star / pr + (g - 1.0) / (g + 1.0))
                              / ((g - 1.0) / (g + 1.0) * p_star / pr + 1.0))
                    rho[i], u[i], p[i] = r, u_star, p_star
            else:  # right rarefaction
                shr = ur + cr
                c_star = cr * (p_star / pr) ** ((g - 1.0) / (2 * g))
                str_ = u_star + c_star
                if s > shr:
                    rho[i], u[i], p[i] = rr, ur, pr
                elif s < str_:
                    r = rr * (p_star / pr) ** (1.0 / g)
                    rho[i], u[i], p[i] = r, u_star, p_star
                else:
                    uu = 2.0 / (g + 1.0) * (-cr + (g - 1.0) / 2.0 * ur + s)
                    cc = s - uu
                    rho[i] = rr * (cc / cr) ** (2.0 / (g - 1.0))
                    u[i] = uu
                    p[i] = pr * (cc / cr) ** (2 * g / (g - 1.0))
    return rho, u, p


def viscous_flux(Q, grad_Q, dim, gas):
    """Physical viscous flux (..., dim, nv), each stress entry formed per
    use (``tau_ik`` and ``tau_ki`` separately) and the zero mass flux as
    ``0.0 * rho``."""
    rho, vel, E, p = physics.primitives(Q, dim, gas)
    T = p / (rho * gas.R)
    mu = gas.viscosity(T)
    k_cond = mu * gas.cp / gas.Pr
    dudx = physics.velocity_gradient(rho, vel, grad_Q)
    divu = dudx[..., 0, 0]
    for i in range(1, dim):
        divu = divu + dudx[..., i, i]
    u2 = _dot_in_order(vel, vel)
    G = np.empty(Q.shape[:-1] + (dim, dim + 2))
    for kdir in range(dim):
        ke_grad = -0.5 * u2 * grad_Q[..., kdir, 0]
        for i in range(dim):
            ke_grad = ke_grad + vel[i] * grad_Q[..., kdir, 1 + i]
        dp = (gas.gamma - 1.0) * (grad_Q[..., kdir, 1 + dim] - ke_grad)
        dT = (dp * rho - p * grad_Q[..., kdir, 0]) / (rho * rho * gas.R)
        G[..., kdir, 0] = 0.0 * rho
        tau = []
        for i in range(dim):
            t = mu * (dudx[..., i, kdir] + dudx[..., kdir, i])
            if i == kdir:
                t = t - (2.0 / 3.0) * mu * divu
            G[..., kdir, 1 + i] = t
            tau.append(t)
        G[..., kdir, 1 + dim] = _dot_in_order(tau, vel) + k_cond * dT
    return G


def ldg_solution(QL, QR, beta, switch):
    """Two-sided LDG common solution of any beta: the mean state upwinded by
    beta toward the switch side.  States (m, nv), switch (m,)."""
    bsw = beta * np.asarray(switch, dtype=float)
    return 0.5 * (QL + QR) - bsw[:, None] * (QR - QL)


def ldg_interface(QL, QR, grad_L, grad_R, n, beta, tau, dim, gas, switch):
    """Two-sided LDG common normal viscous flux of any beta: both sides'
    normal viscous fluxes, downwinded by beta against :func:`ldg_solution`,
    plus the penalty tau*(QR - QL).  States (m, nv), gradients
    (m, dim, nv), normals (m, dim), tau and switch (m,) or scalars."""
    GLn = np.einsum("mdv,md->mv", physics.viscous_flux(QL, grad_L, dim, gas), n)
    GRn = np.einsum("mdv,md->mv", physics.viscous_flux(QR, grad_R, dim, gas), n)
    bsw = beta * np.broadcast_to(np.asarray(switch, dtype=float), QL.shape[:1])[:, None]
    taup = np.broadcast_to(np.asarray(tau, dtype=float), QL.shape[:1])[:, None]
    return 0.5 * (GLn + GRn) + bsw * (GRn - GLn) + taup * (QR - QL)


def pair_sides(solver, rows, ghost, lo, hi):
    """Left and right values (rows, hi - lo) of a solver's pairs [lo, hi):
    own slot and other side (a local pair's other slot, else its ghost
    column), swapped where the own side is the canonical right side."""
    nl = solver.loc_r.size
    own = rows[:, solver.iface.slot[lo:hi]]
    other = np.concatenate([rows[:, solver.loc_r.slot[lo:hi]],
                            ghost[:, max(lo, nl) - nl:max(hi, nl) - nl]], axis=1)
    flip = solver.iface_flip[lo:hi]
    return np.where(flip, other, own), np.where(flip, own, other)


class TwoSidedLDGSolver(SolverRank):
    """The solver with the two-sided LDG of :func:`ldg_solution` and
    :func:`ldg_interface` at a given beta (default 1/2): both sides' viscous
    fluxes at every face pair, the common solution as a weighted mean, and
    the gradient corrected by the jump of the common solution against each
    slot's own state, ``Q div_T[ax] + (Qc - Q_f) gcorr_T[ax]``, with the
    unfolded divergence operator.  Everything else is the solver's own."""

    def __init__(self, *args, beta=0.5, **kwargs):
        self.beta = beta
        super().__init__(*args, **kwargs)

    def _common_solution(self):
        rows = self._rows(self.Q_fpts)
        QL, QR = pair_sides(self, rows, self.ghost_Q, 0, self.iface.size)
        Qs = ldg_solution(QL.T, QR.T, self.beta, self.iface_sw).T
        own = self.iface.slot
        jump = np.zeros_like(rows)
        jump[:, own] = Qs - rows[:, own]
        nl = self.loc_r.size
        jump[:, self.loc_r.slot] = Qs[:, :nl] - rows[:, self.loc_r.slot]
        self.jump_fpts = jump.reshape(self.Q_fpts.shape)

    def _gradient(self, lo, hi):
        for ax in range(self.dim):
            self.grad_upts[ax, :, lo:hi] = (
                self._Qv[:, lo:hi] @ self.ref.div_operators[ax].T
                + self.jump_fpts[:, lo:hi] @ self.gcorr_T[ax])

    def _riemann_common(self, lo, hi):
        d, nfc = self.dim, self.n_face_pairs
        QL, QR = pair_sides(self, self._rows(self.Q_fpts), self.ghost_Q, lo, hi)
        n = self.iface_n[:, lo:hi].T
        F = physics.riemann_flux(QL.T, QR.T, n, d, self.gas, self.opt.riemann).T
        m = min(hi, nfc)
        if m > lo:
            gL, gR = pair_sides(self, self._rows(self.grad_fpts), self.ghost_grad, lo, m)
            F[:, :m - lo] -= ldg_interface(
                QL[:, :m - lo].T, QR[:, :m - lo].T, self._by_point(gL), self._by_point(gR),
                n[:m - lo], self.beta, self.iface_tau[lo:m], d, self.gas,
                self.iface_sw[lo:m]).T
        for spec, blo, bhi in self.boundary_spans:
            a, b = max(lo, blo), min(hi, bhi)
            if a < b and spec.kind != "slip":
                grad = self._rows(self.grad_fpts)[:, self.iface.slot[a:b]]
                F[:, a - lo:b - lo] -= physics.wall_flux(
                    QL[:, a - lo:b - lo].T, QR[:, a - lo:b - lo].T, self._by_point(grad),
                    n[a - lo:b - lo], self.iface_tau[a:b], d, self.gas,
                    adiabatic=spec.kind == "adiabatic").T
        F *= self.iface_a[lo:hi]
        self._scatter(F, lo, hi)
