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
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    DanglingBoundaryError,
    MeshError,
    MeshHoleError,
    NonManifoldError,
)
from ..mesh_core import (
    Cell,
    Face,
    SerialMesh,
    build_face_list,
    corner_orientation,
    match_local_faces,
)
from .distribute import EntityRange, distribute_entities, nbx_exchange
from .transport import RankContext


@dataclass(frozen=True)
class RemoteCoupling:
    """One side of a cross-rank face pairing.

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


@dataclass
class MeshShard:
    """Per-rank mesh piece plus couplings back into the global mesh."""

    rank: int
    nranks: int
    dim: int
    cells: list
    vertex_ids: np.ndarray
    vertex_coords: np.ndarray
    internal_faces: list
    boundary_faces: list
    remote_faces: list  # list of (Face, RemoteCoupling)
    num_global_cells: int
    num_global_vertices: int
    vertex_alias: Optional[np.ndarray] = None
    patch_names: dict = field(default_factory=dict)
    seed: int = 0
    routing: str = "modulo"


def _encode(rows: Sequence[Sequence[int]]) -> bytes:
    if not rows:
        return b""
    return np.asarray(rows, dtype=np.int64).tobytes()


def _decode(buf: bytes, width: int) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=np.int64)
    if arr.size % width:
        raise MeshError("corrupt exchange payload")
    return arr.reshape(-1, width)


def _route(lead: int, nranks: int, routing: str, nverts: int) -> int:
    if routing == "modulo":
        return int(lead) % nranks
    if routing == "block":
        return min(int(lead) * nranks // max(nverts, 1), nranks - 1)
    raise MeshError(f"unknown routing mode {routing!r}")


def _alias_tuple(vids, alias) -> tuple:
    if alias is None:
        return tuple(int(v) for v in vids)
    return tuple(int(alias[v]) for v in vids)


def match_uncoupled_faces(
    ctx: RankContext,
    uncoupled: Sequence[Face],
    boundary_records: Sequence[Tuple[int, tuple]],
    alias: Optional[np.ndarray],
    arity: int,
    routing: str = "modulo",
    nverts: int = 0,
) -> Tuple[Dict[tuple, int], List[RemoteCoupling]]:
    """Give every locally uncoupled face a boundary patch or a remote partner.

    ``boundary_records`` is the complete global list of (patch id, vertex
    ids); this rank only sends its cumulative-storage chunk of it.
    ``arity`` is the vertex count of a face key, the same on every rank.
    Every rank enters both rounds, also with nothing to send.
    Returns ({(gid, local_face): patch_id}, couplings sorted by local face).
    """
    L = arity
    width = 2 * L + 3

    # round 1: faces and records to the home rank of their key
    rows: Dict[int, list] = {}
    for f in uncoupled:
        gid, lf = f.left
        dest = _route(f.key[0], ctx.nranks, routing, nverts)
        rows.setdefault(dest, []).append(list(f.key) + list(f.left_corners) + [ctx.rank, gid, lf])
    erange = distribute_entities(len(boundary_records), ctx.nranks, ctx.rank)
    for patch_id, vids in boundary_records[erange.begin:erange.end]:
        key = tuple(sorted(_alias_tuple(vids, alias)))
        if len(key) != L:
            raise MeshError(f"boundary record arity {len(key)} != face arity {L}")
        dest = _route(key[0], ctx.nranks, routing, nverts)
        rows.setdefault(dest, []).append(list(key) + list(vids) + [-1, patch_id, 0])
    recv = nbx_exchange(ctx, {d: _encode(r) for d, r in rows.items()})

    # at the home rank: one group of rows per key
    received = sorted(row for src in sorted(recv) for row in _decode(recv[src], width).tolist())
    replies: Dict[int, list] = {}
    for key, group in groupby(received, key=lambda r: tuple(r[:L])):
        group = list(group)
        faces = [r for r in group if r[2 * L] >= 0]
        patches = {r[2 * L + 1] for r in group if r[2 * L] < 0}
        owners = [tuple(r[2 * L:]) for r in faces]
        if patches:
            if not faces:
                raise DanglingBoundaryError(
                    f"boundary record {key} (patch {min(patches)}) owns no face")
            if len(faces) > 1:
                raise MeshError(f"boundary record {key} names a two-owner (internal) face")
            if len(patches) > 1:
                raise MeshError(f"face {owners[0][1:]} assigned to patches {sorted(patches)}")
            rank, gid, lf = owners[0]
            replies.setdefault(rank, []).append([gid, lf, -1, patches.pop(), 0] + [0] * L)
        elif len(faces) == 2:
            for mine, peer in ((faces[0], faces[1]), (faces[1], faces[0])):
                rank, gid, lf = mine[2 * L:]
                replies.setdefault(rank, []).append([gid, lf] + peer[2 * L:] + peer[L:2 * L])
        elif len(faces) == 1:
            raise MeshHoleError(
                f"face {owners[0][1:]} on rank {owners[0][0]} has neither partner "
                f"nor boundary record")
        else:
            raise NonManifoldError(f"face key {key} claimed by {len(faces)} owners: {owners}")

    # round 2: patches and partners back to the owners
    recv = nbx_exchange(ctx, {d: _encode(r) for d, r in replies.items()})
    by_face = {f.left: f for f in uncoupled}
    patch_by_face: Dict[tuple, int] = {}
    couplings = []
    for src in sorted(recv):
        for row in _decode(recv[src], 5 + L).tolist():
            gid, lf, prank, pgid, plf = row[:5]
            if prank < 0:
                patch_by_face[(gid, lf)] = pgid
                continue
            face = by_face[(gid, lf)]
            peer_corners = tuple(row[5:])
            canonical = gid < pgid
            canon_true = tuple(face.left_corners) if canonical else peer_corners
            orientation = corner_orientation(_alias_tuple(canon_true, alias),
                                             _alias_tuple(face.left_corners, alias))
            couplings.append(RemoteCoupling(
                local_gid=gid,
                local_face=lf,
                remote_rank=prank,
                remote_tag=(hash(face.key), prank, pgid, plf),
                orientation=orientation,
                canonical=canonical,
                canonical_corners=canon_true,
            ))
    couplings.sort(key=lambda c: (c.local_gid, c.local_face))
    return patch_by_face, couplings


def flatten_boundary_records(mesh: SerialMesh) -> List[Tuple[int, tuple]]:
    records = []
    for sect in mesh.boundary_sections:
        for vids in sect.records:
            records.append((sect.patch_id, tuple(vids)))
    return records


def _cells_from_rows(rows, kind: str) -> list:
    return [Cell(id=int(r[0]), kind=kind, vertex_ids=tuple(r[1:])) for r in rows]


def shard_program(ctx: RankContext, mesh: SerialMesh, assignment: np.ndarray,
                  routing: str, seed: int) -> MeshShard:
    """Per-rank body of the mesh preparation pipeline.

    Reads a cumulative chunk of cells, redistributes them to partition
    owners, matches local faces, then resolves the uncoupled ones into
    boundary patches and remote couplings.
    """
    nranks = ctx.nranks
    kind = mesh.cells[0].kind
    nvw = len(mesh.cells[0].vertex_ids)
    alias = mesh.vertex_alias
    nverts = mesh.vertices.shape[0]
    arity = 2 ** (mesh.dim - 1)  # vertices of a quad edge or a hex face

    erange = distribute_entities(mesh.num_cells, nranks, ctx.rank)
    chunk = mesh.cells[erange.begin:erange.end]

    dest_rows: Dict[int, list] = {}
    for c in chunk:
        dest_rows.setdefault(int(assignment[c.id]), []).append([c.id] + list(c.vertex_ids))
    recv = nbx_exchange(ctx, {d: _encode(r) for d, r in dest_rows.items()})
    rows = []
    for src in sorted(recv):
        rows.extend(_decode(recv[src], 1 + nvw).tolist())
    rows.sort()
    my_cells = _cells_from_rows(rows, kind)
    if not my_cells:
        raise MeshError(f"rank {ctx.rank} received no cells; lower nranks")

    faces = build_face_list(my_cells, alias)
    internal, uncoupled = match_local_faces(faces, alias)

    patch_by_face, couplings = match_uncoupled_faces(
        ctx, uncoupled, flatten_boundary_records(mesh), alias, arity, routing, nverts
    )
    for f in uncoupled:
        f.patch_id = patch_by_face.get(f.left)
    boundary_faces = sorted((f for f in uncoupled if f.patch_id is not None),
                            key=lambda f: f.left)
    by_face = {f.left: f for f in uncoupled}
    remote_faces = [(by_face[(c.local_gid, c.local_face)], c) for c in couplings]

    vid_set = set()
    for c in my_cells:
        vid_set.update(c.vertex_ids)
    for _, cpl in remote_faces:
        vid_set.update(cpl.canonical_corners)
    vertex_ids = np.array(sorted(vid_set), dtype=np.int64)
    vertex_coords = mesh.vertices[vertex_ids]

    return MeshShard(
        rank=ctx.rank,
        nranks=nranks,
        dim=mesh.dim,
        cells=my_cells,
        vertex_ids=vertex_ids,
        vertex_coords=vertex_coords,
        internal_faces=internal,
        boundary_faces=boundary_faces,
        remote_faces=remote_faces,
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
