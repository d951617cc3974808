"""Reference-element machinery for tensor-product flux reconstruction.

Solution and flux points are Gauss-Legendre; the correction function is
the Radau-derivative member that recovers a nodal collocated DG scheme.
All operators are dense matrices acting on point-value vectors.

Face parameterization matches :mod:`fluxrecon.mesh_core`: a face with
corner cycle (c0..c3) maps (u, v) in [-1,1]^2 with c0 at (-1,-1), u
running c0->c1, v running c0->c3; flux points are tensor GL points
flattened u-fastest.  Face normals follow the outward winding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvertedElementError, MeshError
from .mesh_core import HEX_FACES, QUAD_EDGES

_REF_CORNERS = {
    "quad": np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float),
    "hex": np.array(
        [
            [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
            [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
        ],
        dtype=float,
    ),
}
_KIND_DIM = {"quad": 2, "hex": 3}
_KIND_FACES = {"quad": QUAD_EDGES, "hex": HEX_FACES}


def gauss_legendre_points(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Supports 1 <= n <= 12; nodes are exactly symmetric about 0.
    """
    if not 1 <= n <= 12:
        raise MeshError(f"gauss_legendre_points: n={n} outside [1, 12]")
    x, w = npleg.leggauss(n)
    return x, w


def lagrange_eval(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix L with L[a, b] = l_b(x[a]) for the Lagrange basis on nodes."""
    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = nodes.size
    L = np.ones((x.size, n))
    for b in range(n):
        for m in range(n):
            if m != b:
                L[:, b] *= (x - nodes[m]) / (nodes[b] - nodes[m])
    return L


def lagrange_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """D[a, b] = l_b'(nodes[a]), via barycentric weights."""
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes + np.eye(nodes.size)  # 1 on the diagonal
    w = np.ones(nodes.size)
    for m in range(nodes.size):
        w /= diff[:, m]
    D = w / w[:, None] / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def dg_correction_derivative(p: int, nodes: np.ndarray):
    """(g_L', g_R') at the 1-D nodes for the DG-recovering correction.

    g_L = (-1)^(p+1)/2 (P_{p+1} - P_p), so g_L(-1)=1, g_L(+1)=0;
    g_R(x) = g_L(-x).
    """
    cL = np.zeros(p + 2)
    cL[p + 1] = 1.0
    cL[p] = -1.0
    cL *= 0.5 * (-1.0) ** (p + 1)
    dL = npleg.legder(cL)
    gL = npleg.legval(nodes, dL)
    # reflection: g_R'(x) = -g_L'(-x)
    gR = -npleg.legval(-np.asarray(nodes, dtype=float), dL)
    return gL, gR


@dataclass(frozen=True)
class FaceInfo:
    """Static description of one reference face."""

    normal_axis: int
    side: int            # -1 or +1 in the normal axis
    tan_axes: tuple      # element axes for (u, v); (u,) for edges
    tan_signs: tuple     # +1/-1: does u increase along the axis


@dataclass
class ReferenceElement:
    """Point sets and dense operators for one (kind, degree)."""

    kind: str
    p: int
    dim: int
    n: int                      # p + 1
    num_solution_points: int    # n^dim
    num_faces: int
    num_face_points: int        # n^(dim-1)
    points_1d: np.ndarray
    weights_1d: np.ndarray
    solution_points: np.ndarray     # (N_s, dim)
    solution_weights: np.ndarray    # (N_s,) tensor quadrature weights
    flux_points: np.ndarray         # (N_I * N_Fi, dim) reference coords
    interp_to_faces: np.ndarray     # (N_I*N_Fi, N_s)
    div_operators: np.ndarray       # (dim, N_s, N_s)
    correction_matrix: np.ndarray   # (N_s, N_I*N_Fi), holds div g per column
    face_info: tuple                # FaceInfo per face
    face_weights: np.ndarray        # (N_Fi,) quadrature weights on a face

    def face_slice(self, f: int) -> slice:
        nf = self.num_face_points
        return slice(f * nf, (f + 1) * nf)

    def basis_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the solution basis at reference points: (npts, N_s)."""
        return _tensor_basis(self.points_1d, np.atleast_2d(points))


def tensor_rule(x: np.ndarray, w: np.ndarray, dim: int):
    """Tensor product of a 1-D rule: points (n^dim, dim), flattened with
    axis 0 fastest, and weights (n^dim,)."""
    n = len(x)
    idx = (np.arange(n ** dim)[:, None] // n ** np.arange(dim)) % n
    wq = np.ones(n ** dim)
    for ax in range(dim):
        wq *= w[idx[:, ax]]
    return x[idx], wq


def _tensor_basis(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Tensor Lagrange basis values; solution index flattened x-fastest.
    Each column is the product of its per-axis factors in axis order."""
    # the tensor points of the 1-D index set are the points' 1-D indices
    idx = tensor_rule(np.arange(nodes.size), np.ones(nodes.size), points.shape[1])[0]
    out = np.ones((points.shape[0], idx.shape[0]))
    for ax in range(points.shape[1]):
        out *= lagrange_eval(nodes, points[:, ax])[:, idx[:, ax]]
    return out


def _derive_face_info(corners: np.ndarray) -> FaceInfo:
    dim = corners.shape[1]
    span = corners.max(axis=0) - corners.min(axis=0)
    normal_axis = int(np.argmin(span))
    side = int(np.sign(corners[0, normal_axis]))
    du = 0.5 * (corners[1] - corners[0])
    axes = [int(np.argmax(np.abs(du)))]
    signs = [int(np.sign(du[axes[0]]))]
    if corners.shape[0] == 4:
        dv = 0.5 * (corners[3] - corners[0])
        axes.append(int(np.argmax(np.abs(dv))))
        signs.append(int(np.sign(dv[axes[1]])))
    return FaceInfo(normal_axis, side, tuple(axes), tuple(signs))


def build_reference_element(kind: str, p: int, correction: str = "dg") -> ReferenceElement:
    """Construct the operator set for one element kind and degree."""
    if kind not in _KIND_DIM:
        raise MeshError(f"unsupported element kind {kind!r}")
    if not 0 <= p <= 8:
        raise MeshError(f"degree p={p} outside [0, 8]")
    if correction != "dg":
        raise MeshError(f"unsupported correction family {correction!r}")
    dim = _KIND_DIM[kind]
    n = p + 1
    pts, wts = gauss_legendre_points(n)

    sol, wq = tensor_rule(pts, wts, dim)

    faces = _KIND_FACES[kind]
    nfp = n ** (dim - 1)
    corners = _REF_CORNERS[kind][np.array(faces)]
    fpts = np.ascontiguousarray(face_geometry(corners, pts)[0]).reshape(-1, dim)
    infos = [_derive_face_info(c) for c in corners]

    interp = _tensor_basis(pts, fpts)

    d1 = lagrange_diff_matrix(pts)
    eye = np.eye(n)
    div = np.zeros((dim, n ** dim, n ** dim))
    for ax in range(dim):
        mats = [d1 if a == ax else eye for a in range(dim)]
        # kron with axis0 fastest: index s = sum_ax idx[ax] * n^ax
        M = mats[-1]
        for m in reversed(mats[:-1]):
            M = np.kron(M, m)
        div[ax] = M

    # column f * nfp + fp: side * g' on the normal line of solution points
    # through flux point fp of face f (u fastest, in each axis's direction)
    gL, gR = dg_correction_derivative(p, pts)
    corr = np.zeros((n ** dim, len(faces) * nfp))
    fp = np.arange(nfp)
    for f, info in enumerate(infos):
        s = np.zeros(nfp, dtype=np.int64)
        for k, (ax, sg) in enumerate(zip(info.tan_axes, info.tan_signs)):
            i = fp // n ** k % n
            s += (i if sg > 0 else n - 1 - i) * n ** ax
        line = s[:, None] + np.arange(n) * n ** info.normal_axis
        corr[line, f * nfp + fp[:, None]] = info.side * (gR if info.side > 0 else gL)

    face_wq = tensor_rule(pts, wts, dim - 1)[1]

    return ReferenceElement(
        kind=kind,
        p=p,
        dim=dim,
        n=n,
        num_solution_points=n ** dim,
        num_faces=len(faces),
        num_face_points=nfp,
        points_1d=pts,
        weights_1d=wts,
        solution_points=sol,
        solution_weights=wq,
        flux_points=fpts,
        interp_to_faces=interp,
        div_operators=div,
        correction_matrix=corr,
        face_info=tuple(infos),
        face_weights=face_wq,
    )


def _shape_gradients(kind: str, points: np.ndarray) -> np.ndarray:
    """d(shape_i)/d(xi_b) at reference points: (npts, nverts, dim)."""
    signs = _REF_CORNERS[kind]
    factors = 0.5 * (1.0 + signs * points[:, None, :])  # (npts, nverts, dim)
    out = np.empty(factors.shape)
    for b in range(signs.shape[1]):
        out[..., b] = 0.5 * signs[:, b]
        for ax in range(signs.shape[1]):
            if ax != b:
                out[..., b] *= factors[..., ax]
    return out


def _adjugate(J: np.ndarray) -> np.ndarray:
    """Adjugate (= det(J) J^-1) of stacked 2x2 or 3x3 matrices, laid out as ``J``."""
    d = J.shape[-1]
    A = np.empty_like(J)
    if d == 2:
        A[..., 0, 0] = J[..., 1, 1]
        A[..., 0, 1] = -J[..., 0, 1]
        A[..., 1, 0] = -J[..., 1, 0]
        A[..., 1, 1] = J[..., 0, 0]
        return A
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            m = (J[..., r[0], c[0]] * J[..., r[1], c[1]]
                 - J[..., r[0], c[1]] * J[..., r[1], c[0]])
            A[..., i, j] = m * (-1.0) ** (i + j)
    return A


@dataclass
class ElementGeometry:
    """Mapping data at the solution and flux points of a batch of elements.

    Every array has a leading element axis of length ne.  The point fields
    are views of C-contiguous component rows: ``(d, d, ne, N_s)`` for the
    (d, d) tensors (``adj_upts.transpose(2, 3, 0, 1)`` is the rows) and
    ``(d, ne, N_s | N_I*N_Fi)`` for the coordinates and normals.
    """

    jac_upts: np.ndarray       # (ne, N_s, d, d)
    det_upts: np.ndarray       # (ne, N_s)
    adj_upts: np.ndarray       # (ne, N_s, d, d)  |J| J^-1
    inv_t_upts: np.ndarray     # (ne, N_s, d, d)  J^-T, for chain-rule gradients
    normals_fpts: np.ndarray   # (ne, N_I*N_Fi, d) unit outward
    area_fpts: np.ndarray      # (ne, N_I*N_Fi) transformed-normal magnitude
    coords_upts: np.ndarray    # (ne, N_s, d) physical solution points
    coords_fpts: np.ndarray    # (ne, N_I*N_Fi, d)
    volume: np.ndarray         # (ne,)
    face_areas: np.ndarray     # (ne, N_I)
    h_min: np.ndarray          # (ne,)


def _dot(a, b, out=None) -> np.ndarray:
    """sum_k a[k] * b[k], accumulated in index order (into ``out`` if
    given), so each result depends on its own entries alone."""
    out = np.multiply(a[0], b[0], out=out)
    term = np.empty_like(out)
    for k in range(1, len(b)):
        out += np.multiply(a[k], b[k], out=term)
    return out


def face_geometry(corner_coords: np.ndarray, points_1d: np.ndarray):
    """Unit outward normal, area scale, and coordinates of face points.

    ``corner_coords`` stacks faces as (..., ncorners, d); the results are
    (..., nfp, d) views of ``(d, ..., nfp)`` rows, (..., nfp, d) likewise,
    and (..., nfp).  Every value is an elementwise expression of one face's
    corners, so both owners of an interface compute bit-identical values
    when handed the same corner order, whatever else is in their batches.
    A zero area gives a NaN normal, which :func:`compute_geometry` rejects.
    """
    corners = np.asarray(corner_coords, dtype=float)
    pts = np.asarray(points_1d, dtype=float)
    c = np.moveaxis(corners, (-1, -2), (0, 1))[..., None]  # c[a][k]: (..., 1)
    if c.shape[1] == 2:
        w = 0.5 * (1 + np.array([[-1.0], [1.0]]) * pts)
        t = [0.5 * (ca[1] - ca[0]) for ca in c]
        normal = [t[1], -t[0]]
    else:
        su, sv = _REF_CORNERS["quad"].T[..., None]  # corner signs in (u, v)
        u, v = (uv.reshape(-1) for uv in np.meshgrid(pts, pts, indexing="xy"))
        w = 0.25 * (1 + su * u) * (1 + sv * v)
        xu = [_dot(ca, 0.25 * (su * (1 + sv * v))) for ca in c]
        xv = [_dot(ca, 0.25 * (sv * (1 + su * u))) for ca in c]
        normal = [xu[1] * xv[2] - xu[2] * xv[1],
                  xu[2] * xv[0] - xu[0] * xv[2],
                  xu[0] * xv[1] - xu[1] * xv[0]]
    x = np.empty((len(c),) + corners.shape[:-2] + (w[0].size,))
    for a, ca in enumerate(c):
        _dot(ca, w, out=x[a])
    normal = np.broadcast_arrays(*normal, x[0])[:-1]
    area = np.sqrt(_dot(normal, normal))
    unit = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, nk in enumerate(normal):
            np.divide(nk, area, out=unit[a])
    return np.moveaxis(x, 0, -1), np.moveaxis(unit, 0, -1), area


def face_integrals(area_fpts: np.ndarray, ref: ReferenceElement) -> np.ndarray:
    """Quadrature of a flux-point field over each face: (..., N_I*N_Fi)
    -> (..., N_I)."""
    per_face = area_fpts.reshape(area_fpts.shape[:-1] + (ref.num_faces, ref.num_face_points))
    return _dot(ref.face_weights, np.moveaxis(per_face, -1, 0))


def compute_geometry(
    vertex_coords: np.ndarray, ref: ReferenceElement, cell_ids: np.ndarray
) -> ElementGeometry:
    """Jacobians, adjugates, normals and length scales of a batch of cells.

    ``vertex_coords`` is (ne, nverts, d); ``cell_ids`` holds the cells'
    global ids, used in error messages.  Each Jacobian entry and coordinate
    is one ``(ne, N_s)`` row (see :class:`ElementGeometry`) summed over the
    corners in index order, so a cell's numbers do not depend on which
    other cells share its batch.  A cell whose ``|J|`` is not > 0 at a
    solution point or whose face area is not > 0 at a face point is named.
    """
    coords = np.asarray(vertex_coords, dtype=float)
    cell_ids = np.asarray(cell_ids)
    dim = ref.dim
    nverts = _REF_CORNERS[ref.kind].shape[0]
    if coords.ndim != 3 or coords.shape[1:] != (nverts, dim):
        raise MeshError(
            f"vertex array shape {coords.shape} invalid for {ref.kind} (ne, {nverts}, {dim})"
        )
    if cell_ids.shape != coords.shape[:1]:
        raise MeshError(f"{cell_ids.size} cell ids for {coords.shape[0]} cells")
    ne, Ns, nf = coords.shape[0], ref.num_solution_points, ref.num_faces * ref.num_face_points

    corner = coords.transpose(2, 1, 0)[..., None]  # corner[a][i]: (ne, 1)
    grads = _shape_gradients(ref.kind, ref.solution_points).T  # (d, nverts, Ns)
    jac = np.empty((dim, dim, ne, Ns))
    for a, b in np.ndindex(dim, dim):
        _dot(corner[a], grads[b], out=jac[a, b])
    jac_upts = jac.transpose(2, 3, 0, 1)
    with np.errstate(invalid="ignore"):  # NaN coordinates, rejected next
        det = np.linalg.det(jac_upts)
    bad = np.flatnonzero(~(det > 0).all(axis=1))
    if bad.size:
        i = bad[0]
        raise InvertedElementError(int(cell_ids[i]), f"min |J| = {det[i].min():.3e}")
    adj = _adjugate(jac_upts)  # rows like jac's
    inv_t = np.empty_like(jac)
    np.divide(adj.transpose(3, 2, 0, 1), det, out=inv_t)

    faces = np.array(_KIND_FACES[ref.kind])
    coords_f, normals, areas = face_geometry(coords[:, faces], ref.points_1d)
    areas = areas.reshape(ne, nf)
    bad = np.flatnonzero(~(areas > 0).all(axis=1))
    if bad.size:
        raise MeshError(f"cell {int(cell_ids[bad[0]])}: zero face area (a collapsed edge or face)")
    x = np.empty((dim, ne, Ns))
    shape_vals = _tensor_shape(ref.kind, ref.solution_points).T  # (nverts, Ns)
    for a in range(dim):
        _dot(corner[a], shape_vals, out=x[a])
    volume = _dot(ref.solution_weights, det.T)
    face_areas = face_integrals(areas, ref)

    return ElementGeometry(
        jac_upts=jac_upts,
        det_upts=det,
        adj_upts=adj,
        inv_t_upts=inv_t.transpose(2, 3, 0, 1),
        normals_fpts=normals.reshape(ne, nf, dim),
        area_fpts=areas,
        coords_upts=x.transpose(1, 2, 0),
        coords_fpts=coords_f.reshape(ne, nf, dim),
        volume=volume,
        face_areas=face_areas,
        h_min=volume / face_areas.max(axis=1),
    )


def _tensor_shape(kind: str, points: np.ndarray) -> np.ndarray:
    """Multilinear shape function values: (npts, nverts)."""
    factors = 0.5 * (1.0 + _REF_CORNERS[kind] * points[:, None, :])
    out = np.ones(factors.shape[:2])
    for ax in range(factors.shape[2]):
        out *= factors[..., ax]
    return out


def transform_flux(F: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Reference-frame flux |J| J^-1 . F.

    F has shape (..., d, nvars) per point, adj (..., d, d); returns the
    same shape as F.
    """
    return np.einsum("...kl,...lv->...kv", adj, F)


def interpolation_matrix(ref_from: ReferenceElement, ref_to: ReferenceElement) -> np.ndarray:
    """Transfer matrix between two degrees of the same kind (order switch)."""
    if ref_from.kind != ref_to.kind:
        raise MeshError("interpolation between different element kinds")
    return ref_from.basis_at(ref_to.solution_points)
