"""Serial unstructured-mesh data model as int64 tables.

Supports hexahedra (3-D) and quadrilaterals (2-D).  A mesh is held as
tables, never as one Python object per cell or face:

* cells ``(ncells, nverts)``: row ``g`` holds the ordered vertex ids of
  global cell ``g``; the kind follows from the width (4 quad, 8 hex);
* faces (:func:`build_face_list`) ``(nfaces, 2 + 2L)``: gid, local face,
  the L corner ids wound outward, then the key (the sorted, aliased
  corners), with ``L = 2`` (edge) or ``4`` (quad face);
* internal faces (:func:`match_local_faces`) ``(n, 5 + 2L)``: left gid,
  left local face, right gid, right local face, orientation, left corners,
  right corners.  The shard files store this layout (:mod:`fluxrecon.io.shards`);
* the dual graph (:func:`build_dual_graph`) in CSR form: ``ptr``
  ``(ncells + 1,)`` and ``dst`` give each cell's neighbours, ``weight``
  its partition weight.

No ``Cell`` or ``Face`` object is built on the way from mesh import to the
solver; the object views of a shard (:class:`fluxrecon.prep.matching.MeshShard`)
exist only for readers outside the package.

Periodic boundaries are handled through an optional vertex-alias map: face
keys are built from aliased vertex ids so a periodic face pair carries one
key and matches through the exact same machinery as any interior face.

Local face numbering and winding (outward normals) must stay in sync with
the reference-element face parameterization in :mod:`fluxrecon.operators`:
a face with corners (c0, c1, c2, c3) is parameterized by (u, v) in
[-1, 1]^2 with c0 at (-1,-1), c1 at (1,-1), c2 at (1,1), c3 at (-1,1);
an edge (c0, c1) by u with c0 at -1.  Flux points are tensor points in
that frame, flattened u-fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MeshError, NonManifoldError

# Face corner cycles, wound so the right-hand rule gives the outward normal.
HEX_FACES = (
    (0, 3, 2, 1),  # bottom, -zeta
    (4, 5, 6, 7),  # top, +zeta
    (0, 1, 5, 4),  # front, -eta
    (1, 2, 6, 5),  # right, +xi
    (2, 3, 7, 6),  # back, +eta
    (3, 0, 4, 7),  # left, -xi
)
QUAD_EDGES = (
    (0, 1),  # -eta
    (1, 2),  # +xi
    (2, 3),  # +eta
    (3, 0),  # -xi
)

# cell width (vertices per cell) -> local face corner table
_FACE_TABLES = {4: np.array(QUAD_EDGES), 8: np.array(HEX_FACES)}


@dataclass
class DualGraph:
    """Cell adjacency through shared faces, in CSR form, plus partition
    weights.

    The neighbours of cell ``c`` are ``dst[ptr[c]:ptr[c + 1]]``, ascending;
    ``weight[c]`` is its partition weight.  ``adjacency`` and ``weights``
    give the same content as dicts (cell -> neighbour list, cell ->
    weight) for readers outside the package; they are built on access.
    """

    ptr: np.ndarray     # (ncells + 1,) int64
    dst: np.ndarray     # (ptr[-1],) int64
    weight: np.ndarray  # (ncells,) int64

    @property
    def adjacency(self) -> dict:
        ptr, dst = self.ptr.tolist(), self.dst.tolist()
        return {c: dst[ptr[c]:ptr[c + 1]] for c in range(len(ptr) - 1)}

    @property
    def weights(self) -> dict:
        return dict(enumerate(self.weight.tolist()))

    def num_edges(self) -> int:
        return self.dst.size // 2


@dataclass
class BoundarySection:
    """One boundary patch: id, name, and its face connectivity records."""

    patch_id: int
    name: str
    records: list  # list of vertex-id tuples (true ids, owner winding free)


@dataclass
class SerialMesh:
    """Whole mesh on one rank: vertices, cell table, boundary sections, alias."""

    dim: int
    vertices: np.ndarray  # (nverts, dim) float64, row index = vertex id
    cells: np.ndarray     # (ncells, 2 ** dim) int64, row index = cell id
    boundary_sections: list = field(default_factory=list)
    vertex_alias: Optional[np.ndarray] = None  # periodic canonical map

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int64)
        if cells.ndim != 2 or self.dim not in (2, 3) or cells.shape[1] != 2 ** self.dim:
            raise MeshError(f"a {self.dim}-D mesh needs cells of {2 ** self.dim} vertices, "
                            f"got a table of shape {cells.shape}")
        srt = np.sort(cells, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad.size:
            raise MeshError(f"cell {bad[0]}: repeated vertex ids {cells[bad[0]].tolist()}")
        self.cells = cells

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]


def aliased(vids: np.ndarray, alias: Optional[np.ndarray] = None) -> np.ndarray:
    """Vertex ids through the periodic alias map, if there is one."""
    return vids if alias is None else alias[vids]


def face_keys(corners: np.ndarray, alias: Optional[np.ndarray] = None) -> np.ndarray:
    """Sorted (aliased) corner ids of faces ``(..., L)``: the key that
    identifies a face geometrically."""
    return np.sort(aliased(np.asarray(corners, dtype=np.int64), alias), axis=-1)


def build_face_list(cells, alias: Optional[np.ndarray] = None,
                    gids: Optional[np.ndarray] = None) -> np.ndarray:
    """Every (cell, local face) as one row of the face table, sorted by key.

    ``cells`` is a cell table; ``gids`` the global ids of its rows (default
    the row index).  Columns: gid, local face, corners (L), key (L).
    Sorting places coupled faces next to each other; ties break on
    (gid, local face), so the order is deterministic.
    """
    cells = np.asarray(cells, dtype=np.int64)
    if cells.shape[0] == 0:
        raise MeshError("build_face_list: empty cell list")
    if cells.ndim != 2 or cells.shape[1] not in _FACE_TABLES:
        raise MeshError(f"unsupported cell table of shape {cells.shape}")
    table = _FACE_TABLES[cells.shape[1]]
    nfaces, L = table.shape
    gids = np.arange(cells.shape[0]) if gids is None else np.asarray(gids, dtype=np.int64)
    corners = cells[:, table].reshape(-1, L)
    keys = face_keys(corners, alias)
    gid = np.repeat(gids, nfaces)
    lf = np.tile(np.arange(nfaces), cells.shape[0])
    order = np.lexsort((lf, gid) + tuple(keys[:, m] for m in range(L - 1, -1, -1)))
    return np.column_stack([gid, lf, corners, keys])[order]


def corner_orientation(left, right):
    """Orientation code of right face windings relative to left ones.

    ``left`` and ``right`` are corner ids ``(..., L)`` of faces with the
    same vertex set; a single face gives an int.  Quad faces: one of 8
    (rotation k in 0..3, flip bit), with right[m] == left[(k + s*m) % 4],
    s = +1 for even codes, -1 for odd.  Edges: 0 same direction, 1 reversed.
    """
    left, right = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
    single = left.ndim == 1
    left, right = np.atleast_2d(left), np.atleast_2d(right)
    L = left.shape[-1]
    if right.shape != left.shape or not np.array_equal(np.sort(left, axis=-1),
                                                       np.sort(right, axis=-1)):
        raise MeshError(f"faces do not share a vertex set: {left.tolist()} vs {right.tolist()}")
    if L == 2:
        code = (right[:, 0] != left[:, 0]).astype(np.int64)
    else:
        k = np.argmax(left == right[:, :1], axis=1)
        m = np.arange(4)
        rows = np.arange(left.shape[0])[:, None]
        fwd = (right == left[rows, (k[:, None] + m) % 4]).all(axis=1)
        back = (right == left[rows, (k[:, None] - m) % 4]).all(axis=1)
        bad = np.flatnonzero(~(fwd | back))
        if bad.size:
            i = bad[0]
            raise MeshError(f"corner cycles incompatible: {left[i].tolist()} vs "
                            f"{right[i].tolist()}")
        code = 2 * k + np.where(fwd, 0, 1)
    return int(code[0]) if single else code


_SQUARE_CORNER_PARAMS = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
)


def orientation_permutation(dim: int, orientation: int, points_1d: np.ndarray) -> np.ndarray:
    """Index permutation aligning right-side face points to left-side ones.

    Returns ``perm`` with left point i coinciding physically with right
    point ``perm[i]``.  ``points_1d`` is the 1-D face point set (symmetric
    about 0), tensor-flattened u-fastest on quad faces.
    """
    pts = np.asarray(points_1d, dtype=float)
    n = pts.size
    if dim == 2:
        if orientation == 0:
            return np.arange(n)
        if orientation == 1:
            return np.arange(n)[::-1].copy()
        raise MeshError(f"edge orientation {orientation} out of range")
    if not 0 <= orientation < 8:
        raise MeshError(f"quad-face orientation {orientation} out of range")
    k, s = orientation // 2, 1 if orientation % 2 == 0 else -1
    sigma = [(k + s * m) % 4 for m in range(4)]
    corner_params = _SQUARE_CORNER_PARAMS[sigma]  # right corner m in left params
    # right point jr * n + ir, at (pts[ir], pts[jr]), in left params, and
    # the nearest left point (il, jl) along them
    u, v = pts[np.arange(n * n) % n, None], pts[np.arange(n * n) // n, None]
    su, sv = _SQUARE_CORNER_PARAMS.T
    uv = (0.25 * (1 + su * u) * (1 + sv * v)) @ corner_params
    near = np.abs(pts - uv[..., None]).argmin(axis=-1)
    if (np.abs(pts[near] - uv) > 1e-9).any():
        raise MeshError("face point set is not closed under the face symmetry")
    perm = np.empty(n * n, dtype=np.int64)
    perm[near[:, 1] * n + near[:, 0]] = np.arange(n * n)
    return perm


def key_runs(keys: np.ndarray):
    """Start and length of every run of equal rows in key-sorted ``keys``."""
    if keys.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, keys.shape[0]))


def match_local_faces(faces: np.ndarray, alias: Optional[np.ndarray] = None):
    """Couple equal-key neighbours of a face table (:func:`build_face_list`).

    Returns (internal, uncoupled): the internal-face table and the face
    rows no other local face shares, both in key order.  The lower
    (gid, local face) owner of a pair becomes the left side.  A key held by
    more than two owners is non-manifold.
    """
    L = (faces.shape[1] - 2) // 2
    starts, sizes = key_runs(faces[:, 2 + L:])
    if (sizes > 2).any():
        i = int(np.flatnonzero(sizes > 2)[0])
        group = faces[starts[i]:starts[i] + sizes[i]]
        owners = [tuple(r) for r in group[:, :2].tolist()]
        raise NonManifoldError(
            f"face key {tuple(group[0, 2 + L:].tolist())} owned by {len(owners)} "
            f"cells: {owners}")
    a = starts[sizes == 2]
    left, right = faces[a], faces[a + 1]
    lc, rc = left[:, 2:2 + L], right[:, 2:2 + L]
    orientation = corner_orientation(aliased(lc, alias), aliased(rc, alias))
    internal = np.column_stack([left[:, :2], right[:, :2], orientation, lc, rc])
    return internal, faces[starts[sizes == 1]]


def build_dual_graph(cells: np.ndarray, internal: np.ndarray) -> DualGraph:
    """Cell-cell adjacency (CSR) through internal faces; every cell weighs 1."""
    n = cells.shape[0]
    a, b = internal[:, 0], internal[:, 2]
    keep = a != b  # a self-periodic face makes no dual-graph self loop
    a, b = a[keep], b[keep]
    edges = np.sort(np.concatenate([a * n + b, b * n + a]))
    edges = edges[np.diff(edges, prepend=-1) != 0]  # two faces, one edge
    ptr = np.searchsorted(edges // n, np.arange(n + 1))
    return DualGraph(ptr=ptr, dst=edges % n, weight=np.ones(n, dtype=np.int64))
