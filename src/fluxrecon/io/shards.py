"""Binary shard files (magic "ZFRM"): per-rank mesh pieces plus couplings.

Layout: a fixed header (magic, version, little-endian u64 counts) followed
by int64/float64 payload sections.  The header is validated before any
payload is trusted; a truncated or inconsistent file raises FormatError
without side effects.
"""

from __future__ import annotations

import json
import os
import struct
from typing import List, Optional

import numpy as np

from ..errors import FormatError
from ..mesh_core import Cell, Face
from ..prep.matching import MeshShard, RemoteCoupling

MAGIC = b"ZFRM"
VERSION = 1
_HEADER = struct.Struct("<4sI")
_COUNTS = 14  # u64 fields after the magic/version

_KIND_CODE = {"quad": 2, "hex": 3}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}
_ROUTING_CODE = {"modulo": 0, "block": 1}
_CODE_ROUTING = {v: k for k, v in _ROUTING_CODE.items()}


def _corners_per_face(dim: int) -> int:
    return 4 if dim == 3 else 2


def write_shard(shard: MeshShard, path: str):
    dim = shard.dim
    nc = _corners_per_face(dim)
    kind = shard.cells[0].kind
    nvpc = len(shard.cells[0].vertex_ids)
    has_alias = shard.vertex_alias is not None

    counts = [
        dim,
        shard.rank,
        shard.nranks,
        shard.vertex_ids.size,
        len(shard.cells),
        len(shard.internal_faces),
        len(shard.boundary_faces),
        len(shard.remote_faces),
        shard.num_global_cells,
        shard.num_global_vertices,
        (shard.num_global_vertices if has_alias else 0),
        _KIND_CODE[kind],
        _ROUTING_CODE[shard.routing],
        shard.seed,
    ]

    blobs = [
        _HEADER.pack(MAGIC, VERSION),
        np.asarray(counts, dtype="<u8").tobytes(),
        np.asarray(shard.vertex_ids, dtype="<i8").tobytes(),
        np.asarray(shard.vertex_coords, dtype="<f8").tobytes(),
    ]
    cell_rows = [[c.id] + list(c.vertex_ids) for c in shard.cells]
    blobs.append(np.asarray(cell_rows, dtype="<i8").tobytes())

    int_rows = []
    for f in shard.internal_faces:
        int_rows.append([f.left[0], f.left[1], f.right[0], f.right[1],
                         f.orientation] + list(f.left_corners) + list(f.right_corners))
    blobs.append(np.asarray(int_rows, dtype="<i8").tobytes() if int_rows else b"")

    bnd_rows = []
    for f in shard.boundary_faces:
        bnd_rows.append([f.left[0], f.left[1], f.patch_id] + list(f.left_corners))
    blobs.append(np.asarray(bnd_rows, dtype="<i8").tobytes() if bnd_rows else b"")

    rem_rows = []
    for face, c in shard.remote_faces:
        rem_rows.append(
            [c.local_gid, c.local_face, c.remote_rank, c.orientation,
             1 if c.canonical else 0]
            + list(c.remote_tag)
            + list(c.canonical_corners)
            + list(face.left_corners)
        )
    blobs.append(np.asarray(rem_rows, dtype="<i8").tobytes() if rem_rows else b"")

    if has_alias:
        blobs.append(np.asarray(shard.vertex_alias, dtype="<i8").tobytes())

    patch_meta = json.dumps(
        {str(k): v for k, v in sorted(shard.patch_names.items())},
        sort_keys=True).encode()
    blobs.append(struct.pack("<Q", len(patch_meta)))
    blobs.append(patch_meta)

    with open(path, "wb") as fh:
        for b in blobs:
            fh.write(b)


def read_shard(path: str) -> MeshShard:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + 8 * _COUNTS:
        raise FormatError(f"{path}: truncated header")
    magic, version = _HEADER.unpack(raw[:_HEADER.size])
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = _HEADER.size
    counts = np.frombuffer(raw, dtype="<u8", count=_COUNTS, offset=off)
    off += 8 * _COUNTS
    (dim, rank, nranks, nverts, ncells, nint, nbnd, nrem, ncells_g, nverts_g,
     nalias, kind_code, routing_code, seed) = (int(v) for v in counts)
    if dim not in (2, 3) or kind_code not in _CODE_KIND:
        raise FormatError(f"{path}: inconsistent header fields")
    kind = _CODE_KIND[kind_code]
    nvpc = 8 if kind == "hex" else 4
    nc = _corners_per_face(dim)

    int_w = 5 + 2 * nc
    bnd_w = 3 + nc
    rem_w = 9 + 2 * nc
    need = (nverts * 8 + nverts * dim * 8 + ncells * (1 + nvpc) * 8
            + nint * int_w * 8 + nbnd * bnd_w * 8 + nrem * rem_w * 8
            + nalias * 8 + 8)
    if len(raw) < off + need:
        raise FormatError(f"{path}: payload shorter than header counts imply")

    def take_i(n, w=None):
        nonlocal off
        cnt = n * (w or 1)
        arr = np.frombuffer(raw, dtype="<i8", count=cnt, offset=off).copy()
        off += 8 * cnt
        return arr.reshape(n, w) if w else arr

    vertex_ids = take_i(nverts)
    vertex_coords = np.frombuffer(raw, dtype="<f8", count=nverts * dim,
                                  offset=off).copy().reshape(nverts, dim)
    off += 8 * nverts * dim
    cell_rows = take_i(ncells, 1 + nvpc)
    cells = [Cell(id=int(r[0]), kind=kind, vertex_ids=tuple(int(v) for v in r[1:]))
             for r in cell_rows]

    int_rows = take_i(nint, int_w)
    bnd_rows = take_i(nbnd, bnd_w)
    rem_rows = take_i(nrem, rem_w)
    alias = take_i(nalias) if nalias else None

    def key(corners):
        # faces are keyed by aliased corners, as in preparation
        return tuple(sorted(int(v) for v in (corners if alias is None else alias[corners])))

    internal = []
    for r in int_rows:
        internal.append(Face(
            key=key(r[5:5 + nc]),
            left=(int(r[0]), int(r[1])),
            left_corners=tuple(int(v) for v in r[5:5 + nc]),
            right=(int(r[2]), int(r[3])),
            right_corners=tuple(int(v) for v in r[5 + nc:5 + 2 * nc]),
            orientation=int(r[4]),
        ))
    boundary = []
    for r in bnd_rows:
        boundary.append(Face(
            key=key(r[3:3 + nc]),
            left=(int(r[0]), int(r[1])),
            left_corners=tuple(int(v) for v in r[3:3 + nc]),
            patch_id=int(r[2]),
        ))
    remote = []
    for r in rem_rows:
        cpl = RemoteCoupling(
            local_gid=int(r[0]),
            local_face=int(r[1]),
            remote_rank=int(r[2]),
            remote_tag=tuple(int(v) for v in r[5:9]),
            orientation=int(r[3]),
            canonical=bool(r[4]),
            canonical_corners=tuple(int(v) for v in r[9:9 + nc]),
        )
        face = Face(
            key=key(r[9 + nc:9 + 2 * nc]),
            left=(int(r[0]), int(r[1])),
            left_corners=tuple(int(v) for v in r[9 + nc:9 + 2 * nc]),
        )
        remote.append((face, cpl))

    (meta_len,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if len(raw) < off + meta_len:
        raise FormatError(f"{path}: truncated patch table")
    patch_names = {int(k): v for k, v in json.loads(raw[off:off + meta_len]).items()}

    return MeshShard(
        rank=rank, nranks=nranks, dim=dim, cells=cells,
        vertex_ids=vertex_ids, vertex_coords=vertex_coords,
        internal_faces=internal, boundary_faces=boundary, remote_faces=remote,
        num_global_cells=ncells_g, num_global_vertices=nverts_g,
        vertex_alias=alias, patch_names=patch_names,
        seed=seed, routing=_CODE_ROUTING[routing_code],
    )


def write_shards(shards: List[MeshShard], outdir: str):
    """Per-rank shard files plus index.zfri written once (rank-0 duty)."""
    os.makedirs(outdir, exist_ok=True)
    for shard in shards:
        write_shard(shard, os.path.join(outdir, f"shard_{shard.rank:04d}.zfrm"))
    sh0 = shards[0]
    with open(os.path.join(outdir, "index.zfri"), "w", encoding="utf-8") as fh:
        fh.write(f"nranks = {sh0.nranks}\n")
        fh.write(f"dim = {sh0.dim}\n")
        fh.write(f"global_cells = {sh0.num_global_cells}\n")
        fh.write(f"global_vertices = {sh0.num_global_vertices}\n")
        fh.write(f"seed = {sh0.seed}\n")
        fh.write(f"routing = {sh0.routing}\n")


def read_shards(outdir: str, ranks: Optional[List[int]] = None) -> List[MeshShard]:
    index = os.path.join(outdir, "index.zfri")
    if not os.path.exists(index):
        raise FormatError(f"{outdir}: missing index.zfri")
    meta = {}
    with open(index, "r", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                meta[k.strip()] = v.strip()
    nranks = int(meta.get("nranks", "0"))
    if nranks < 1:
        raise FormatError(f"{index}: bad nranks")
    ranks = list(range(nranks)) if ranks is None else ranks
    return [read_shard(os.path.join(outdir, f"shard_{r:04d}.zfrm")) for r in ranks]
