"""Distributed face matching and shard assembly.

Preparation takes three NBX exchanges per rank: one moves cells to their
partition owners, and two resolve the faces that no local cell couples.
The latter is a rendezvous on an assumed partition (Baker, Falgout & Yang,
Parallel Computing 32, 2006): each uncoupled face and each boundary record
is routed by the leading (minimum, aliased) vertex id of its key, so every
copy of a face and its record meet on one home rank.  There a face with a
record gets the record's patch, two faces become a coupling for both
owners, and anything else is a mesh error; the second round returns the
results to the owners.  Rows travel as fixed-width little-endian int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    DanglingBoundaryError,
    MeshError,
    MeshHoleError,
    NonManifoldError,
)
from ..mesh_core import (
    SerialMesh,
    aliased,
    build_face_list,
    corner_orientation,
    face_keys,
    key_runs,
    match_local_faces,
)
from .distribute import distribute_entities, nbx_exchange
from .transport import RankContext


@dataclass(frozen=True)
class RemoteCoupling:
    """One side of a cross-rank face pairing (a view of one remote row).

    ``orientation`` maps canonical-order flux points onto this side's own
    order (identity when this side is canonical); the two sides' couplings
    are mutual inverses.  ``canonical_corners`` holds the canonical owner's
    true corner vertex ids, so both ranks can compute bit-identical face
    geometry.
    """

    local_gid: int
    local_face: int
    remote_rank: int
    remote_tag: tuple  # (key hash, remote rank, remote gid, remote local face)
    orientation: int
    canonical: bool
    canonical_corners: tuple


@dataclass(slots=True)
class Cell:
    """View of one cell row: global id and ordered vertex ids."""

    id: int
    vertex_ids: tuple


@dataclass(slots=True)
class Face:
    """View of one face row.  ``left``/``right`` are (gid, local face)
    pairs; ``right`` is None for a face without a local partner."""

    key: tuple
    left: tuple
    left_corners: tuple
    right: Optional[tuple] = None
    right_corners: Optional[tuple] = None
    orientation: int = 0
    patch_id: Optional[int] = None


@dataclass
class MeshShard:
    """Per-rank mesh piece plus couplings back into the global mesh.

    The mesh is held in the int64 tables the shard file stores
    (:mod:`fluxrecon.io.shards`), with L corners per face:

    * ``cell_rows`` ``(n, 1 + nverts)``: gid, vertex ids;
    * ``internal_rows`` ``(n, 5 + 2L)``: the internal-face table of
      :mod:`fluxrecon.mesh_core`;
    * ``boundary_rows`` ``(n, 3 + L)``: gid, local face, patch id, corners;
    * ``remote_rows`` ``(n, 9 + 2L)``: gid, local face, peer rank,
      orientation, canonical flag, remote tag (key hash, peer rank, peer
      gid, peer local face), canonical corners, own corners.

    ``cells``, ``internal_faces``, ``boundary_faces`` and ``remote_faces``
    are object views of these tables, built on first access and cached
    (changes to them persist but do not reach the tables).  They exist only
    for readers outside the package; nothing in it reads them.
    """

    rank: int
    nranks: int
    dim: int
    cell_rows: np.ndarray
    vertex_ids: np.ndarray
    vertex_coords: np.ndarray
    internal_rows: np.ndarray
    boundary_rows: np.ndarray
    remote_rows: np.ndarray
    num_global_cells: int
    num_global_vertices: int
    vertex_alias: Optional[np.ndarray] = None
    patch_names: dict = field(default_factory=dict)
    seed: int = 0
    routing: str = "modulo"

    def _keys(self, corners: np.ndarray) -> list:
        return [tuple(k) for k in face_keys(corners, self.vertex_alias).tolist()]

    @cached_property
    def cells(self) -> list:
        return [Cell(r[0], tuple(r[1:])) for r in self.cell_rows.tolist()]

    @cached_property
    def internal_faces(self) -> list:
        L = 2 ** (self.dim - 1)
        keys = self._keys(self.internal_rows[:, 5:5 + L])
        return [Face(k, tuple(r[:2]), tuple(r[5:5 + L]), tuple(r[2:4]), tuple(r[5 + L:]), r[4])
                for k, r in zip(keys, self.internal_rows.tolist())]

    @cached_property
    def boundary_faces(self) -> list:
        keys = self._keys(self.boundary_rows[:, 3:])
        return [Face(k, tuple(r[:2]), tuple(r[3:]), patch_id=r[2])
                for k, r in zip(keys, self.boundary_rows.tolist())]

    @cached_property
    def remote_faces(self) -> list:
        """(Face, RemoteCoupling) per remote row."""
        L = 2 ** (self.dim - 1)
        keys = self._keys(self.remote_rows[:, 9 + L:])
        return [(Face(k, tuple(r[:2]), tuple(r[9 + L:])),
                 RemoteCoupling(r[0], r[1], r[2], tuple(r[5:9]), r[3], bool(r[4]),
                                tuple(r[9:9 + L])))
                for k, r in zip(keys, self.remote_rows.tolist())]


def _by_dest(rows: np.ndarray, dest: np.ndarray) -> Dict[int, bytes]:
    """Rows grouped into one int64 message per destination rank, in row order."""
    return {int(d): rows[dest == d].tobytes() for d in np.unique(dest)}


def _gather(recv: Dict[int, bytes], width: int) -> np.ndarray:
    """Received messages of int64 rows, stacked in source-rank order."""
    parts = []
    for src in sorted(recv):
        arr = np.frombuffer(recv[src], dtype=np.int64)
        if arr.size % width:
            raise MeshError("corrupt exchange payload")
        parts.append(arr.reshape(-1, width))
    return np.concatenate(parts) if parts else np.zeros((0, width), dtype=np.int64)


def _route(lead: np.ndarray, nranks: int, routing: str, nverts: int) -> np.ndarray:
    if routing == "modulo":
        return lead % nranks
    if routing == "block":
        return np.minimum(lead * nranks // max(nverts, 1), nranks - 1)
    raise MeshError(f"unknown routing mode {routing!r}")


def _raise_for_group(group: np.ndarray, L: int):
    """The mesh error of one key's rows at its home rank (key, corners,
    owner rank or -1, gid or patch id, local face)."""
    key = tuple(group[0, :L].tolist())
    faces = group[group[:, 2 * L] >= 0]
    patches = sorted(set(group[group[:, 2 * L] < 0, 2 * L + 1].tolist()))
    owners = [tuple(r) for r in faces[:, 2 * L:].tolist()]
    if patches:
        if not owners:
            raise DanglingBoundaryError(
                f"boundary record {key} (patch {patches[0]}) owns no face")
        if len(owners) > 1:
            raise MeshError(f"boundary record {key} names a two-owner (internal) face")
        raise MeshError(f"face {owners[0][1:]} assigned to patches {patches}")
    if len(owners) == 1:
        raise MeshHoleError(
            f"face {owners[0][1:]} on rank {owners[0][0]} has neither partner "
            f"nor boundary record")
    raise NonManifoldError(f"face key {key} claimed by {len(owners)} owners: {owners}")


def match_uncoupled_faces(
    ctx: RankContext,
    uncoupled: np.ndarray,
    records: np.ndarray,
    alias: Optional[np.ndarray],
    arity: int,
    routing: str = "modulo",
    nverts: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Give every locally uncoupled face a boundary patch or a remote partner.

    ``uncoupled`` holds rows of the face table (:func:`build_face_list`);
    ``records`` is the complete global boundary record table (patch id,
    vertex ids), of which this rank only sends its cumulative-storage chunk.
    ``arity`` is the vertex count of a face key, the same on every rank.
    Every rank enters both rounds, also with nothing to send.  Returns the
    shard's boundary and remote rows (:class:`MeshShard`), sorted by
    (gid, local face).
    """
    L = arity
    width = 2 * L + 3

    # round 1: faces and records to the home rank of their key, as rows
    # (key, corners, owner rank or -1, gid or patch id, local face)
    erange = distribute_entities(records.shape[0], ctx.nranks, ctx.rank)
    mine = records[erange.begin:erange.end]
    nu, nr = uncoupled.shape[0], mine.shape[0]
    rows = np.concatenate([
        np.column_stack([uncoupled[:, 2 + L:], uncoupled[:, 2:2 + L],
                         np.full(nu, ctx.rank), uncoupled[:, :2]]),
        np.column_stack([face_keys(mine[:, 1:], alias), mine[:, 1:],
                         np.full(nr, -1), mine[:, 0], np.zeros(nr, dtype=np.int64)]),
    ])
    recv = nbx_exchange(ctx, _by_dest(rows, _route(rows[:, 0], ctx.nranks, routing, nverts)))

    # at the home rank: one run of rows per key
    rows = _gather(recv, width)
    rows = rows[np.lexsort(rows.T[::-1])]
    starts, sizes = key_runs(rows[:, :L])
    is_face = rows[:, 2 * L] >= 0
    patch = rows[:, 2 * L + 1]
    nface = np.add.reduceat(is_face.astype(np.int64), starts)
    pmin = np.minimum.reduceat(np.where(is_face, np.iinfo(np.int64).max, patch), starts)
    pmax = np.maximum.reduceat(np.where(is_face, -1, patch), starts)
    has_rec = nface < sizes
    bad = np.flatnonzero(np.where(has_rec, (nface != 1) | (pmin != pmax), nface != 2))
    if bad.size:
        _raise_for_group(rows[starts[bad[0]]:starts[bad[0]] + sizes[bad[0]]], L)

    # replies (gid, local face, peer rank or -1, peer gid or patch id,
    # peer local face, peer corners) to the owners
    group = np.repeat(np.arange(starts.size), sizes)
    owner = rows[is_face & has_rec[group]]
    pat = np.column_stack([owner[:, 2 * L + 1:], np.full(owner.shape[0], -1),
                           pmin[has_rec], np.zeros((owner.shape[0], 1 + L), dtype=np.int64)])
    a = starts[~has_rec]
    fa, fb = rows[a], rows[a + 1]
    cpl = np.concatenate([
        np.column_stack([fa[:, 2 * L + 1:], fb[:, 2 * L:], fb[:, L:2 * L]]),
        np.column_stack([fb[:, 2 * L + 1:], fa[:, 2 * L:], fa[:, L:2 * L]]),
    ])
    replies = np.concatenate([pat, cpl])
    dest = np.concatenate([owner[:, 2 * L], fa[:, 2 * L], fb[:, 2 * L]])

    # round 2: patches and partners back to the owners
    got = _gather(nbx_exchange(ctx, _by_dest(replies, dest)), 5 + L)
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    # rows of uncoupled by (gid, local face); local face ids are below 8
    code = uncoupled[:, 0] * 8 + uncoupled[:, 1]
    order = np.argsort(code)
    pos = order[np.searchsorted(code[order], got[:, 0] * 8 + got[:, 1])]
    corners = uncoupled[pos, 2:2 + L]
    is_patch = got[:, 2] < 0
    boundary = np.column_stack([got[is_patch, :2], got[is_patch, 3], corners[is_patch]])

    c, own = got[~is_patch], corners[~is_patch]
    canonical = c[:, 0] < c[:, 3]
    canon = np.where(canonical[:, None], own, c[:, 5:])
    orientation = corner_orientation(aliased(canon, alias), aliased(own, alias))
    key_hash = np.array([hash(tuple(k)) for k in uncoupled[pos[~is_patch], 2 + L:].tolist()],
                        dtype=np.int64)
    remote = np.column_stack([c[:, :3], orientation, canonical, key_hash, c[:, 2:5],
                              canon, own])
    return boundary, remote


def flatten_boundary_records(mesh: SerialMesh) -> np.ndarray:
    """The boundary record table: patch id, vertex ids (one row per record)."""
    L = 2 ** (mesh.dim - 1)
    rows = [(sect.patch_id,) + tuple(vids) for sect in mesh.boundary_sections
            for vids in sect.records]
    bad = next((r for r in rows if len(r) != 1 + L), None)
    if bad is not None:
        raise MeshError(f"boundary record arity {len(bad) - 1} != face arity {L}")
    return np.array(rows, dtype=np.int64).reshape(-1, 1 + L)


def shard_program(ctx: RankContext, mesh: SerialMesh, assignment: np.ndarray,
                  routing: str, seed: int) -> MeshShard:
    """Per-rank body of the mesh preparation pipeline.

    Reads a cumulative chunk of cells, redistributes them to partition
    owners, matches local faces, then resolves the uncoupled ones into
    boundary patches and remote couplings.
    """
    nvw = mesh.cells.shape[1]
    alias = mesh.vertex_alias
    nverts = mesh.vertices.shape[0]
    arity = 2 ** (mesh.dim - 1)  # vertices of a quad edge or a hex face

    erange = distribute_entities(mesh.num_cells, ctx.nranks, ctx.rank)
    gids = np.arange(erange.begin, erange.end, dtype=np.int64)
    chunk = np.column_stack([gids, mesh.cells[erange.begin:erange.end]])
    rows = _gather(nbx_exchange(ctx, _by_dest(chunk, assignment[gids])), 1 + nvw)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if not rows.shape[0]:
        raise MeshError(f"rank {ctx.rank} received no cells; lower nranks")

    faces = build_face_list(rows[:, 1:], alias, gids=rows[:, 0])
    internal, uncoupled = match_local_faces(faces, alias)
    boundary, remote = match_uncoupled_faces(
        ctx, uncoupled, flatten_boundary_records(mesh), alias, arity, routing, nverts)

    # sorted distinct ids by a sort and an adjacent-difference mask: numpy
    # 2's np.unique hashes, which is several times slower on these arrays
    vertex_ids = np.sort(np.concatenate([rows[:, 1:].ravel(), remote[:, 9:9 + arity].ravel()]))
    vertex_ids = vertex_ids[np.diff(vertex_ids, prepend=-1) != 0]
    return MeshShard(
        rank=ctx.rank,
        nranks=ctx.nranks,
        dim=mesh.dim,
        cell_rows=rows,
        vertex_ids=vertex_ids,
        vertex_coords=mesh.vertices[vertex_ids],
        internal_rows=internal,
        boundary_rows=boundary,
        remote_rows=remote,
        num_global_cells=mesh.num_cells,
        num_global_vertices=nverts,
        vertex_alias=alias,
        patch_names={s.patch_id: s.name for s in mesh.boundary_sections},
        seed=seed,
        routing=routing,
    )


def prepare_shards(mesh: SerialMesh, assignment, nranks: int, seed: int = 0,
                   routing: str = "modulo", sim_seed: int = 0) -> List[MeshShard]:
    """Run the preparation pipeline on a simulated cluster."""
    from .transport import SimCluster

    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape[0] != mesh.num_cells:
        raise MeshError("assignment length != cell count")
    if assignment.min() < 0 or assignment.max() >= nranks:
        raise MeshError("assignment names an invalid rank")
    cluster = SimCluster(nranks, seed=sim_seed)
    return cluster.run(shard_program, mesh, assignment, routing, seed)
