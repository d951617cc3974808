"""Gmsh ASCII v2.2 subset reader/writer.

Supported element types: 1 (2-node line, 2-D boundary), 3 (4-node quad:
volume cell in 2-D, boundary face in 3-D), 5 (8-node hexahedron).  Physical
names become boundary patches.  Anything else is rejected by type number.

The reader parses each ``$Nodes`` and ``$Elements`` block with whole-block
numpy calls: one ``np.fromstring`` for the numbers and a byte scan for the
token count of every record.  Records are then validated with array masks,
and an error names the ``path:line`` of the first bad record.
"""

from __future__ import annotations

import warnings
from typing import Dict

import numpy as np

from ..errors import FormatError, MeshError
from ..mesh_core import BoundarySection, SerialMesh, key_runs

_SUPPORTED = {1: 2, 3: 4, 5: 8}


def _numbers(lines, dtype):
    """All whitespace-separated numbers of ``lines`` and the count per
    line, or None if a token does not parse as ``dtype``."""
    text = "\n".join(lines)
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    gap = raw <= 32  # blanks, tabs and the joining newlines
    head = ~gap
    head[1:] &= gap[:-1]
    ends = np.concatenate([[0], np.flatnonzero(raw == 10) + 1, [raw.size]])
    ntok = np.diff(np.searchsorted(np.flatnonzero(head), ends))
    try:
        with warnings.catch_warnings():
            # numpy < 2 only warns where a token does not parse
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, dtype=dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    return (values, ntok) if values.size == ntok.sum() else None


def _read_records(lines, first, count, dtype):
    """Parse the records ``lines[first:first + count]`` in one pass.

    Returns (values, start, ntok, stop): the numbers of the readable
    records, the offset of each record's first number in ``values``, each
    record's token count, and the line index of the first record that is
    missing or holds a token that does not parse (None if there is none).
    Only the records before ``stop`` are returned, so the caller checks
    them first and reports ``stop`` after them, in file order.
    """
    block = lines[first:first + count]
    stop = first + len(block) if len(block) < count else None
    parsed = _numbers(block, dtype)
    if parsed is None:
        k = next(k for k, line in enumerate(block) if _numbers([line], dtype) is None)
        stop, block = first + k, block[:k]
        parsed = _numbers(block, dtype)
    values, ntok = parsed if block else (np.zeros(0, dtype), np.zeros(0, np.int64))
    return values, np.cumsum(ntok) - ntok, ntok, stop


def import_gmsh_ascii(path: str) -> SerialMesh:
    """Parse a Gmsh v2.2 ASCII file into the serial mesh model."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    i = 0
    n = len(lines)
    phys_names: Dict[int, str] = {}
    node_blocks = []     # (file ids, xyz) per $Nodes section
    element_blocks = []  # (types, physical tags, numbers, first node offsets)

    def fail(msg, lineno):
        raise FormatError(f"{path}:{lineno + 1}: {msg}")

    def check(bad, stop, what, message=None):
        """Fail at the first record flagged in ``bad`` (with ``message`` of
        its index, if given), else at the unreadable record ``stop``."""
        if bad.any():
            k = int(np.argmax(bad))
            fail(message(k) if message else f"malformed {what} record", i + 2 + k)
        if stop is not None:
            fail(f"malformed {what} record", stop)

    def section_count(name):
        try:
            count = int(lines[i + 1])
        except (IndexError, ValueError):
            count = -1
        if count < 0:
            fail(f"malformed {name} count", i + 1)
        return count

    while i < n:
        line = lines[i].strip()
        if line == "$MeshFormat":
            if i + 1 >= n:
                fail("truncated $MeshFormat", i)
            parts = lines[i + 1].split()
            if not parts or not parts[0].startswith("2."):
                fail(f"unsupported mesh format version {parts[0] if parts else '?'}", i + 1)
            i += 2
            if i >= n or lines[i].strip() != "$EndMeshFormat":
                fail("missing $EndMeshFormat", i)
        elif line == "$PhysicalNames":
            count = section_count("$PhysicalNames")
            for k in range(count):
                parts = lines[i + 2 + k].split(maxsplit=2)
                if len(parts) < 3:
                    fail("malformed physical name record", i + 2 + k)
                phys_names[int(parts[1])] = parts[2].strip().strip('"')
            i += 2 + count
            if i >= n or lines[i].strip() != "$EndPhysicalNames":
                fail("missing $EndPhysicalNames", i)
        elif line == "$Nodes":
            count = section_count("$Nodes")
            values, start, ntok, stop = _read_records(lines, i + 2, count, np.float64)
            ids = np.concatenate([values, [0.0]])[start]
            check((ntok < 4) | (ids != np.floor(ids)), stop, "node")
            node_blocks.append((ids.astype(np.int64), values[start[:, None] + np.arange(1, 4)]))
            i += 2 + count
            if i >= n or lines[i].strip() != "$EndNodes":
                fail("missing $EndNodes", i)
        elif line == "$Elements":
            count = section_count("$Elements")
            values, start, ntok, stop = _read_records(lines, i + 2, count, np.int64)
            padded = np.concatenate([values, np.zeros(4, np.int64)])
            etype, ntags = padded[start + 1], padded[start + 2]
            width = np.select([etype == t for t in _SUPPORTED], list(_SUPPORTED.values()), 0)
            malformed = (ntok < 3) | (ntags < 0)
            unsupported = ~malformed & (width == 0)
            wrong_count = ~malformed & ~unsupported & (ntok - 3 - ntags != width)
            check(malformed | unsupported | wrong_count, stop, "element", lambda k: (
                "malformed element record" if malformed[k] else
                f"unsupported element type {etype[k]}" if unsupported[k] else
                f"element type {etype[k]} expects {width[k]} nodes"))
            phys = np.where(ntags >= 1, padded[start + 3], 0)
            element_blocks.append((etype, phys, values, start + 3 + ntags))
            i += 2 + count
            if i >= n or lines[i].strip() != "$EndElements":
                fail("missing $EndElements", i)
        elif line.startswith("$"):
            # skip unknown section conservatively
            end = "$End" + line[1:]
            j = i + 1
            while j < n and lines[j].strip() != end:
                j += 1
            if j >= n:
                fail(f"unterminated section {line}", i)
            i = j
        i += 1

    if not sum(len(ids) for ids, _ in node_blocks):
        raise FormatError(f"{path}: no $Nodes section")
    types = np.concatenate([b[0] for b in element_blocks]) if element_blocks else []
    if not len(types):
        raise FormatError(f"{path}: no $Elements section")

    dim = 3 if (types == 5).any() else 2
    volume_type = 5 if dim == 3 else 3
    boundary_type = 3 if dim == 3 else 1

    coords = np.concatenate([xyz for _, xyz in node_blocks])[:, :dim]
    file_ids = np.concatenate([ids for ids, _ in node_blocks])
    sorter = np.argsort(file_ids, kind="stable")
    if np.any(np.diff(file_ids[sorter]) == 0):
        raise FormatError(f"{path}: repeated node ids in $Nodes")

    def vertex_rows(etype):
        """Node ids of the file's elements of one type, in file order ->
        vertex ids (row index of ``coords``), and their physical tags."""
        width = _SUPPORTED[etype]
        nodes = np.concatenate([values[offset[et == etype, None] + np.arange(width)]
                                for et, _, values, offset in element_blocks])
        phys = np.concatenate([ph[et == etype] for et, ph, _, _ in element_blocks])
        pos = sorter[np.searchsorted(file_ids, nodes, sorter=sorter).clip(0, len(sorter) - 1)]
        bad = np.argwhere(file_ids[pos] != nodes)
        if bad.size:
            raise MeshError(f"{path}: element names node {int(nodes[tuple(bad[0])])}, "
                            f"which $Nodes does not define")
        return pos, phys

    wrong = ~np.isin(types, (volume_type, boundary_type))
    if wrong.any():
        raise FormatError(
            f"{path}: element type {types[np.argmax(wrong)]} has the wrong dimension for this mesh"
        )
    cells, _ = vertex_rows(volume_type)
    records, phys = vertex_rows(boundary_type)
    tags, first = np.unique(phys, return_index=True)
    sections = []
    for tag in tags[np.argsort(first)].tolist():
        rows = records[phys == tag].tolist()
        sections.append(BoundarySection(len(sections), phys_names.get(tag, f"patch{tag}"),
                                        list(map(tuple, rows))))

    return SerialMesh(
        dim=dim,
        vertices=coords,
        cells=cells,
        boundary_sections=sections,
        vertex_alias=None,
    )


def write_gmsh_ascii(mesh: SerialMesh, path: str):
    """Emit the serial mesh in the same v2.2 subset the importer reads."""
    dim = mesh.dim
    volume_type = 5 if dim == 3 else 3
    boundary_type = 3 if dim == 3 else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        if mesh.boundary_sections:
            fh.write("$PhysicalNames\n")
            fh.write(f"{len(mesh.boundary_sections) + 1}\n")
            for sect in mesh.boundary_sections:
                fh.write(f'{dim - 1} {sect.patch_id + 1} "{sect.name}"\n')
            fh.write(f'{dim} {len(mesh.boundary_sections) + 1} "fluid"\n')
            fh.write("$EndPhysicalNames\n")
        fh.write("$Nodes\n")
        fh.write(f"{mesh.vertices.shape[0]}\n")
        for i, row in enumerate(mesh.vertices):
            xyz = list(row) + [0.0] * (3 - dim)
            fh.write(f"{i + 1} {xyz[0]:.17g} {xyz[1]:.17g} {xyz[2]:.17g}\n")
        fh.write("$EndNodes\n")
        fh.write("$Elements\n")
        nbound = sum(len(s.records) for s in mesh.boundary_sections)
        fh.write(f"{nbound + len(mesh.cells)}\n")
        eid = 1
        for sect in mesh.boundary_sections:
            for rec in sect.records:
                nodes = " ".join(str(v + 1) for v in rec)
                fh.write(f"{eid} {boundary_type} 2 {sect.patch_id + 1} "
                         f"{sect.patch_id + 1} {nodes}\n")
                eid += 1
        fluid_tag = len(mesh.boundary_sections) + 1
        for cell in mesh.cells.tolist():
            nodes = " ".join(str(v + 1) for v in cell)
            fh.write(f"{eid} {volume_type} 2 {fluid_tag} {fluid_tag} {nodes}\n")
            eid += 1
        fh.write("$EndElements\n")


def apply_periodic(mesh: SerialMesh, pairs) -> SerialMesh:
    """Alias periodic patch pairs: (patch_a, patch_b, translation).

    Vertices of patch_b map onto patch_a vertices at position minus the
    translation (b = a + translation); the two patches leave the boundary
    section list.  Matching tolerance is 1e-10 of the mesh extent: both
    sides are rounded to integer keys in units of the tolerance, matched by
    one lexicographic sort, and a key that misses tries its 2 * dim neighbour keys (axis 0
    down, axis 0 up, axis 1 down, ...), which tolerates half-ulp rounding
    straddles.  Where several patch_a vertices share a key, the highest id
    is the partner.
    """
    names = {s.name: s for s in mesh.boundary_sections}
    alias = (mesh.vertex_alias.copy() if mesh.vertex_alias is not None
             else np.arange(mesh.vertices.shape[0], dtype=np.int64))
    extent = float(np.max(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
    tol = 1e-10 * max(extent, 1.0)
    dim = mesh.dim
    steps = np.zeros((1 + 2 * dim, dim), dtype=np.int64)  # the exact key first
    for ax in range(dim):
        steps[1 + 2 * ax, ax], steps[2 + 2 * ax, ax] = -1, 1
    consumed = set()
    for name_a, name_b, translation in pairs:
        if name_a not in names or name_b not in names:
            raise MeshError(f"periodic pair names unknown patch: {name_a}/{name_b}")
        translation = np.asarray(translation, dtype=float)[:dim]
        averts = np.unique(np.asarray(names[name_a].records, dtype=np.int64))
        bverts = np.asarray(names[name_b].records, dtype=np.int64).reshape(-1)
        akeys = np.round(mesh.vertices[averts] / tol).astype(np.int64)
        bkeys = np.round((mesh.vertices[bverts] - translation) / tol).astype(np.int64)
        tries = (bkeys[:, None, :] + steps).reshape(-1, dim)
        # one id per distinct key, for patch_a's keys and every try
        keys = np.concatenate([akeys, tries])
        order = np.lexsort(keys.T[::-1])
        _, sizes = key_runs(keys[order])
        ids = np.empty(len(keys), dtype=np.int64)
        ids[order] = np.repeat(np.arange(sizes.size), sizes)
        partner = np.full(ids.size, -1, dtype=np.int64)
        np.maximum.at(partner, ids[:averts.size], averts)
        hits = partner[ids[averts.size:]].reshape(bverts.size, steps.shape[0])
        found = hits >= 0
        if not found.any(axis=1).all():
            v = bverts[np.argmin(found.any(axis=1))]
            raise MeshError(f"periodic vertex {v} of {name_b} has no partner on {name_a}")
        alias[bverts] = alias[hits[np.arange(bverts.size), np.argmax(found, axis=1)]]
        consumed.update((name_a, name_b))
    while True:  # close chains from corners shared by two periodic pairs
        nxt = alias[alias]
        if np.array_equal(nxt, alias):
            break
        alias = nxt
    sections = [s for s in mesh.boundary_sections if s.name not in consumed]
    return SerialMesh(
        dim=mesh.dim,
        vertices=mesh.vertices,
        cells=mesh.cells,
        boundary_sections=sections,
        vertex_alias=alias,
    )
