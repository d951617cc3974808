"""Serial unstructured-mesh data model.

Cells, canonical faces, local face matching, dual graph.  Supports
hexahedra (3-D) and quadrilaterals (2-D).  Periodic boundaries are handled
through an optional vertex-alias map: face keys are built from aliased
vertex ids so a periodic face pair carries one key and matches through the
exact same machinery as any interior face.

Local face numbering and winding (outward normals) must stay in sync with
the reference-element face parameterization in :mod:`fluxrecon.operators`:
a face with corners (c0, c1, c2, c3) is parameterized by (u, v) in
[-1, 1]^2 with c0 at (-1,-1), c1 at (1,-1), c2 at (1,1), c3 at (-1,1);
an edge (c0, c1) by u with c0 at -1.  Flux points are tensor points in
that frame, flattened u-fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MeshError, NonManifoldError

FaceKey = tuple  # sorted tuple of (aliased) vertex ids

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

_KIND_VERTS = {"hex": 8, "quad": 4}
_KIND_FACES = {"hex": HEX_FACES, "quad": QUAD_EDGES}


@dataclass(slots=True)
class Cell:
    """One element: global id, kind, ordered global vertex ids."""

    id: int
    kind: str
    vertex_ids: tuple

    def __post_init__(self):
        if self.kind not in _KIND_VERTS:
            raise MeshError(f"unsupported element kind {self.kind!r}")
        self.vertex_ids = tuple(int(v) for v in self.vertex_ids)
        if len(self.vertex_ids) != _KIND_VERTS[self.kind]:
            raise MeshError(
                f"cell {self.id}: {self.kind} needs {_KIND_VERTS[self.kind]} "
                f"vertices, got {len(self.vertex_ids)}"
            )
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise MeshError(f"cell {self.id}: repeated vertex ids")

    @property
    def num_faces(self) -> int:
        return len(_KIND_FACES[self.kind])


@dataclass(slots=True)
class Face:
    """A mesh face with its owner(s).

    ``left``/``right`` are (cell id, local face index) pairs; ``right`` is
    None for an unmatched face.  Corner tuples keep each owner's winding
    (true vertex ids); orientation maps right-side flux points onto
    left-side ones (see :func:`orientation_permutation`).
    """

    key: FaceKey
    left: tuple
    left_corners: tuple
    right: Optional[tuple] = None
    right_corners: Optional[tuple] = None
    orientation: int = 0
    patch_id: Optional[int] = None


@dataclass
class DualGraph:
    """Cell adjacency through shared faces plus partition weights."""

    adjacency: dict
    weights: dict

    def num_edges(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2


@dataclass
class BoundarySection:
    """One boundary patch: id, name, and its face connectivity records."""

    patch_id: int
    name: str
    records: list  # list of vertex-id tuples (true ids, owner winding free)


@dataclass
class SerialMesh:
    """Whole mesh on one rank: vertices, cells, boundary sections, alias."""

    dim: int
    vertices: np.ndarray  # (nverts, dim) float64, row index = vertex id
    cells: list
    boundary_sections: list = field(default_factory=list)
    vertex_alias: Optional[np.ndarray] = None  # periodic canonical map

    @property
    def num_cells(self) -> int:
        return len(self.cells)


def local_face_corners(cell: Cell, local_face: int) -> tuple:
    """Corner vertex ids of a local face, wound outward."""
    faces = _KIND_FACES[cell.kind]
    if not 0 <= local_face < len(faces):
        raise MeshError(
            f"cell {cell.id}: local face {local_face} out of range for {cell.kind}"
        )
    return tuple(cell.vertex_ids[i] for i in faces[local_face])


def canonical_face_key(
    cell: Cell, local_face: int, alias: Optional[Mapping] = None
) -> FaceKey:
    """Sorted (aliased) vertex tuple identifying a face geometrically."""
    corners = local_face_corners(cell, local_face)
    if alias is not None:
        corners = tuple(int(alias[v]) for v in corners)
    return tuple(sorted(corners))


def build_face_list(
    cells: Sequence[Cell], alias: Optional[Mapping] = None
) -> list:
    """All (cell, local face) entries as Faces, sorted by key.

    Sorting places coupled faces next to each other; ties break on
    (cell id, local face) so output is deterministic byte-for-byte.
    """
    if not cells:
        raise MeshError("build_face_list: empty cell list")
    raw = []
    for cell in cells:
        for lf in range(cell.num_faces):
            key = canonical_face_key(cell, lf, alias)
            raw.append(
                Face(
                    key=key,
                    left=(cell.id, lf),
                    left_corners=local_face_corners(cell, lf),
                )
            )
    raw.sort(key=lambda f: (f.key, f.left))
    return raw


def _aliased(corners: Iterable, alias: Optional[Mapping]) -> tuple:
    if alias is None:
        return tuple(corners)
    return tuple(int(alias[v]) for v in corners)


def corner_orientation(left_corners: Sequence, right_corners: Sequence) -> int:
    """Orientation index of a right face winding relative to the left one.

    Quad faces: one of 8 (rotation k in 0..3, flip bit), with
    right[m] == left[(k + s*m) % 4], s = +1 for even codes, -1 for odd.
    Edges: 0 same direction, 1 reversed.
    """
    left = tuple(left_corners)
    right = tuple(right_corners)
    if len(left) != len(right) or set(left) != set(right):
        raise MeshError(
            f"faces do not share a vertex set: {left} vs {right}"
        )
    if len(left) == 2:
        return 0 if right == left else 1
    k = left.index(right[0])
    if right[1] == left[(k + 1) % 4]:
        s = 1
    elif right[1] == left[(k - 1) % 4]:
        s = -1
    else:
        raise MeshError(f"corner cycles incompatible: {left} vs {right}")
    for m in range(4):
        if right[m] != left[(k + s * m) % 4]:
            raise MeshError(f"corner cycles incompatible: {left} vs {right}")
    return 2 * k + (0 if s == 1 else 1)


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


def match_local_faces(faces: Sequence[Face], alias: Optional[Mapping] = None):
    """Couple equal-key neighbours in a key-sorted face list.

    Returns (internal, uncoupled).  The lower (cell id, local face) owner
    of a pair becomes the left side.  A key held by more than two owners
    is non-manifold.
    """
    internal, uncoupled = [], []
    i, nfaces = 0, len(faces)
    while i < nfaces:
        j = i + 1
        while j < nfaces and faces[j].key == faces[i].key:
            j += 1
        group = faces[i:j]
        if len(group) == 1:
            uncoupled.append(group[0])
        elif len(group) == 2:
            a, b = group  # already ordered by (key, left)
            left_aliased = _aliased(a.left_corners, alias)
            right_aliased = _aliased(b.left_corners, alias)
            internal.append(
                Face(
                    key=a.key,
                    left=a.left,
                    left_corners=a.left_corners,
                    right=b.left,
                    right_corners=b.left_corners,
                    orientation=corner_orientation(left_aliased, right_aliased),
                )
            )
        else:
            owners = [f.left for f in group]
            raise NonManifoldError(
                f"face key {faces[i].key} owned by {len(group)} cells: {owners}"
            )
        i = j
    return internal, uncoupled


DEFAULT_PARTITION_WEIGHTS = {"hex": 1, "quad": 1}


def build_dual_graph(
    cells: Sequence[Cell],
    internal_faces: Sequence[Face],
    kind_weights: Optional[Mapping] = None,
) -> DualGraph:
    """Cell-cell adjacency through internal faces, with partition weights."""
    kind_weights = dict(DEFAULT_PARTITION_WEIGHTS, **(kind_weights or {}))
    adjacency = {cell.id: set() for cell in cells}
    for face in internal_faces:
        a, b = face.left[0], face.right[0]
        if a == b:
            continue  # self-periodic face, no dual-graph self loop
        adjacency[a].add(b)
        adjacency[b].add(a)
    weights = {cell.id: int(kind_weights[cell.kind]) for cell in cells}
    return DualGraph(
        adjacency={cid: sorted(neigh) for cid, neigh in adjacency.items()},
        weights=weights,
    )


def face_census(cells: Sequence[Cell], internal, uncoupled) -> bool:
    """Round-trip check: 2*internal + uncoupled covers every cell face."""
    total = sum(c.num_faces for c in cells)
    return 2 * len(internal) + len(uncoupled) == total
