"""Distributed face matching and shard assembly.

Implements the two pre-processing exchanges over the NBX transport:

* boundary-face resolution: three rounds (route uncoupled volume faces by
  leading vertex id, route boundary records the same way, return matched
  patch assignments to the owners);
* remote internal-face matching: two rounds (route uncoupled faces, return
  couplings to both owners).

Both rely on the same-destination property: a face key's leading (minimum,
aliased) vertex id routes both copies of a coupled face to one rank.
Records travel as fixed-width little-endian int64 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    diagnostics: dict = field(default_factory=dict)


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


def match_remote_faces(
    ctx: RankContext,
    uncoupled: Sequence[Face],
    alias: Optional[np.ndarray],
    arity: int,
    routing: str = "modulo",
    nverts: int = 0,
) -> Tuple[List[RemoteCoupling], List[Face]]:
    """Find cross-rank partners for locally unmatched faces.

    ``arity`` is the vertex count of a face key, the same on every rank.
    Returns (couplings, unmatched).  Unmatched faces are reported, not
    fatal here: the caller decides whether they are holes.
    """
    L = arity
    width = 2 * L + 3

    by_face = {}
    sbuf_rows: Dict[int, list] = {}
    for f in uncoupled:
        gid, lf = f.left
        by_face[(gid, lf)] = f
        row = list(f.key) + list(f.left_corners) + [ctx.rank, gid, lf]
        dest = _route(f.key[0], ctx.nranks, routing, nverts)
        sbuf_rows.setdefault(dest, []).append(row)

    recv = nbx_exchange(ctx, {d: _encode(r) for d, r in sbuf_rows.items()})

    rows = []
    for src in sorted(recv):
        rows.extend(_decode(recv[src], width).tolist())
    rows.sort()

    replies: Dict[int, list] = {}
    i = 0
    reply_width = 5 + L
    while i < len(rows):
        j = i + 1
        while j < len(rows) and rows[j][:L] == rows[i][:L]:
            j += 1
        group = rows[i:j]
        if len(group) == 2:
            a, b = group
            for mine, peer in ((a, b), (b, a)):
                rank, gid, lf = mine[2 * L], mine[2 * L + 1], mine[2 * L + 2]
                prank, pgid, plf = peer[2 * L], peer[2 * L + 1], peer[2 * L + 2]
                reply = [gid, lf, prank, pgid, plf] + peer[L:2 * L]
                replies.setdefault(rank, []).append(reply)
        elif len(group) > 2:
            owners = [tuple(g[2 * L:]) for g in group]
            raise NonManifoldError(
                f"face key {tuple(rows[i][:L])} claimed by {len(group)} owners: {owners}"
            )
        i = j

    recv2 = nbx_exchange(ctx, {d: _encode(r) for d, r in replies.items()})

    couplings = []
    matched = set()
    for src in sorted(recv2):
        for row in _decode(recv2[src], reply_width).tolist():
            gid, lf, prank, pgid, plf = row[:5]
            peer_corners = tuple(row[5:5 + L])
            face = by_face[(gid, lf)]
            matched.add((gid, lf))
            my_aliased = _alias_tuple(face.left_corners, alias)
            peer_aliased = _alias_tuple(peer_corners, alias)
            canonical = gid < pgid
            if canonical:
                canon_aliased, canon_true = my_aliased, tuple(face.left_corners)
            else:
                canon_aliased, canon_true = peer_aliased, peer_corners
            orientation = corner_orientation(canon_aliased, my_aliased)
            couplings.append(
                RemoteCoupling(
                    local_gid=int(gid),
                    local_face=int(lf),
                    remote_rank=int(prank),
                    remote_tag=(hash(face.key), int(prank), int(pgid), int(plf)),
                    orientation=orientation,
                    canonical=canonical,
                    canonical_corners=canon_true,
                )
            )
    couplings.sort(key=lambda c: (c.local_gid, c.local_face))
    unmatched = [f for key, f in by_face.items() if key not in matched]
    return couplings, unmatched


def resolve_boundary_faces(
    ctx: RankContext,
    uncoupled: Sequence[Face],
    boundary_records: Sequence[Tuple[int, tuple]],
    alias: Optional[np.ndarray],
    arity: int,
    routing: str = "modulo",
    nverts: int = 0,
) -> Tuple[Dict[tuple, int], dict]:
    """Assign boundary patches to uncoupled faces (three-round exchange).

    ``boundary_records`` is the complete global list of (patch id, vertex
    ids); this rank only reads its cumulative-storage chunk of it.
    ``arity`` is the vertex count of a face key.  Every rank enters all
    three rounds, also with nothing to send.
    Returns ({(gid, local_face): patch_id}, diagnostics).
    """
    L = arity
    fwidth = 2 * L + 3

    # round 1: uncoupled volume faces by leading vertex
    sbuf_rows: Dict[int, list] = {}
    for f in uncoupled:
        gid, lf = f.left
        row = list(f.key) + list(f.left_corners) + [ctx.rank, gid, lf]
        dest = _route(f.key[0], ctx.nranks, routing, nverts)
        sbuf_rows.setdefault(dest, []).append(row)
    recv_faces = nbx_exchange(ctx, {d: _encode(r) for d, r in sbuf_rows.items()})

    # round 2: this rank's chunk of boundary records, routed the same way
    erange = distribute_entities(len(boundary_records), ctx.nranks, ctx.rank)
    brow_buf: Dict[int, list] = {}
    for idx in range(erange.begin, erange.end):
        patch_id, vids = boundary_records[idx]
        key = tuple(sorted(_alias_tuple(vids, alias)))
        if len(key) != L:
            raise MeshError(f"boundary record arity {len(key)} != face arity {L}")
        dest = _route(key[0], ctx.nranks, routing, nverts)
        brow_buf.setdefault(dest, []).append(list(key) + [patch_id])
    recv_brec = nbx_exchange(ctx, {d: _encode(r) for d, r in brow_buf.items()})

    face_rows = []
    for src in sorted(recv_faces):
        face_rows.extend(_decode(recv_faces[src], fwidth).tolist())
    face_rows.sort()
    ndup = 0
    deduped = []
    for row in face_rows:
        sig = tuple(row[:L]) + tuple(row[2 * L:])
        if deduped and deduped[-1][0] == sig:
            ndup += 1
            continue
        deduped.append((sig, row))
    face_rows = [row for _, row in deduped]

    brec_rows = []
    for src in sorted(recv_brec):
        brec_rows.extend(_decode(recv_brec[src], L + 1).tolist())
    brec_rows.sort()

    # match bface records with face records (both sorted by key)
    replies: Dict[int, list] = {}
    fi = 0
    for brow in brec_rows:
        bkey = brow[:L]
        while fi < len(face_rows) and face_rows[fi][:L] < bkey:
            fi += 1
        group = []
        fj = fi
        while fj < len(face_rows) and face_rows[fj][:L] == bkey:
            group.append(face_rows[fj])
            fj += 1
        if not group:
            raise DanglingBoundaryError(
                f"boundary record {tuple(bkey)} (patch {brow[L]}) owns no face"
            )
        owners = {(r[2 * L + 1], r[2 * L + 2]) for r in group}
        if len(owners) > 1:
            raise MeshError(
                f"boundary record {tuple(bkey)} names a two-owner (internal) face"
            )
        row = group[0]
        rank, gid, lf = row[2 * L], row[2 * L + 1], row[2 * L + 2]
        replies.setdefault(rank, []).append([gid, lf, brow[L]])

    recv_assign = nbx_exchange(ctx, {d: _encode(r) for d, r in replies.items()})

    assignments: Dict[tuple, int] = {}
    for src in sorted(recv_assign):
        for gid, lf, patch in _decode(recv_assign[src], 3).tolist():
            key = (int(gid), int(lf))
            if key in assignments and assignments[key] != patch:
                raise MeshError(f"face {key} assigned to two patches")
            assignments[key] = int(patch)
    return assignments, {"duplicate_face_records": ndup}


def flatten_boundary_records(mesh: SerialMesh) -> List[Tuple[int, tuple]]:
    records = []
    for sect in mesh.boundary_sections:
        for vids in sect.records:
            records.append((sect.patch_id, tuple(vids)))
    return records


def _cell_rows(cells: Sequence[Cell]) -> list:
    return [[c.id] + list(c.vertex_ids) for c in cells]


def _cells_from_rows(rows, kind: str) -> list:
    return [Cell(id=int(r[0]), kind=kind, vertex_ids=tuple(r[1:])) for r in rows]


def shard_program(ctx: RankContext, mesh: SerialMesh, assignment: np.ndarray,
                  routing: str, seed: int) -> MeshShard:
    """Per-rank body of the mesh preparation pipeline.

    Reads a cumulative chunk of cells, redistributes them to partition
    owners, matches local faces, resolves boundary patches, and couples
    remote faces.
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

    records = flatten_boundary_records(mesh)
    assignments, diag = resolve_boundary_faces(
        ctx, uncoupled, records, alias, arity, routing, nverts
    )
    boundary_faces = []
    remaining = []
    for f in uncoupled:
        patch = assignments.get(f.left)
        if patch is None:
            remaining.append(f)
        else:
            f.patch_id = patch
            boundary_faces.append(f)

    couplings, unmatched = match_remote_faces(
        ctx, remaining, alias, arity, routing, nverts
    )
    if unmatched:
        locs = [f.left for f in unmatched[:5]]
        raise MeshHoleError(
            f"rank {ctx.rank}: {len(unmatched)} faces have neither partner "
            f"nor boundary record, e.g. {locs}"
        )
    by_face = {f.left: f for f in remaining}
    remote_faces = [(by_face[(c.local_gid, c.local_face)], c) for c in couplings]

    vid_set = set()
    for c in my_cells:
        vid_set.update(c.vertex_ids)
    for _, cpl in remote_faces:
        vid_set.update(cpl.canonical_corners)
    vertex_ids = np.array(sorted(vid_set), dtype=np.int64)
    vertex_coords = mesh.vertices[vertex_ids]

    boundary_faces.sort(key=lambda f: f.left)
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
        diagnostics=diag,
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
