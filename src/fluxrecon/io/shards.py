"""Binary shard files (magic "ZFRM"): per-rank mesh pieces plus couplings.

Layout: a fixed header (magic, version, 14 little-endian u64 counts: dim,
rank, nranks, vertices, cells, internal, boundary and remote faces, global
cells, global vertices, alias length, kind code, routing code, seed)
followed by the payload sections, each a C-ordered little-endian table:

* vertex ids ``(nverts,)`` int64 and coordinates ``(nverts, dim)`` float64;
* cells ``(ncells, 1 + nverts_per_cell)`` int64: gid, vertex ids;
* internal faces ``(nint, 5 + 2L)``: left gid, left local face, right gid,
  right local face, orientation, left corners, right corners;
* boundary faces ``(nbnd, 3 + L)``: gid, local face, patch id, corners;
* remote faces ``(nrem, 9 + 2L)``: gid, local face, peer rank,
  orientation, canonical flag, remote tag (key hash, peer rank, peer gid,
  peer local face), canonical corners, own corners;
* the vertex alias ``(nalias,)`` int64, if any;
* the patch-name table as u64 length plus JSON.

L is 2 in 2-D and 4 in 3-D.  These are the tables of
:class:`fluxrecon.prep.matching.MeshShard`, so writing is ``tobytes`` and
reading is ``np.frombuffer`` (read-only views of the file bytes); the
shard's object views (``cells``, ``internal_faces``, ...) exist only for
readers outside the package.  The header is validated before any payload
is trusted; a truncated or inconsistent file raises FormatError without
side effects.
"""

from __future__ import annotations

import json
import os
import struct
from typing import List, Optional

import numpy as np

from ..errors import FormatError
from ..prep.matching import MeshShard

MAGIC = b"ZFRM"
VERSION = 1
_HEADER = struct.Struct("<4sI")
_COUNTS = 14  # u64 fields after the magic/version

_KIND_CODE = {4: 2, 8: 3}  # vertices per cell (quad, hex) -> kind code
_CODE_NVERTS = {v: k for k, v in _KIND_CODE.items()}
_ROUTING_CODE = {"modulo": 0, "block": 1}
_CODE_ROUTING = {v: k for k, v in _ROUTING_CODE.items()}


def write_shard(shard: MeshShard, path: str):
    has_alias = shard.vertex_alias is not None
    counts = [
        shard.dim,
        shard.rank,
        shard.nranks,
        shard.vertex_ids.size,
        shard.cell_rows.shape[0],
        shard.internal_rows.shape[0],
        shard.boundary_rows.shape[0],
        shard.remote_rows.shape[0],
        shard.num_global_cells,
        shard.num_global_vertices,
        (shard.num_global_vertices if has_alias else 0),
        _KIND_CODE[shard.cell_rows.shape[1] - 1],
        _ROUTING_CODE[shard.routing],
        shard.seed,
    ]
    tables = [shard.vertex_ids, shard.cell_rows, shard.internal_rows,
              shard.boundary_rows, shard.remote_rows]
    if has_alias:
        tables.append(shard.vertex_alias)
    patch_meta = json.dumps(
        {str(k): v for k, v in sorted(shard.patch_names.items())},
        sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION))
        fh.write(np.asarray(counts, dtype="<u8").tobytes())
        fh.write(np.asarray(tables[0], dtype="<i8").tobytes())
        fh.write(np.asarray(shard.vertex_coords, dtype="<f8").tobytes())
        for table in tables[1:]:
            fh.write(np.asarray(table, dtype="<i8").tobytes())
        fh.write(struct.pack("<Q", len(patch_meta)))
        fh.write(patch_meta)


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
    if dim not in (2, 3) or kind_code not in _CODE_NVERTS:
        raise FormatError(f"{path}: inconsistent header fields")
    nvpc = _CODE_NVERTS[kind_code]
    nc = 2 ** (dim - 1)

    int_w = 5 + 2 * nc
    bnd_w = 3 + nc
    rem_w = 9 + 2 * nc
    need = (nverts * 8 + nverts * dim * 8 + ncells * (1 + nvpc) * 8
            + nint * int_w * 8 + nbnd * bnd_w * 8 + nrem * rem_w * 8
            + nalias * 8 + 8)
    if len(raw) < off + need:
        raise FormatError(f"{path}: payload shorter than header counts imply")

    def take(n, w=None, dtype="<i8"):
        nonlocal off
        cnt = n * (w or 1)
        arr = np.frombuffer(raw, dtype=dtype, count=cnt, offset=off)
        off += 8 * cnt
        return arr.reshape(n, w) if w else arr

    vertex_ids = take(nverts)
    vertex_coords = take(nverts, dim, "<f8")
    cell_rows = take(ncells, 1 + nvpc)
    int_rows = take(nint, int_w)
    bnd_rows = take(nbnd, bnd_w)
    rem_rows = take(nrem, rem_w)
    alias = take(nalias) if nalias else None

    (meta_len,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if len(raw) < off + meta_len:
        raise FormatError(f"{path}: truncated patch table")
    patch_names = {int(k): v for k, v in json.loads(raw[off:off + meta_len]).items()}

    return MeshShard(
        rank=rank, nranks=nranks, dim=dim, cell_rows=cell_rows,
        vertex_ids=vertex_ids, vertex_coords=vertex_coords,
        internal_rows=int_rows, boundary_rows=bnd_rows, remote_rows=rem_rows,
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
