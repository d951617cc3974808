"""Gmsh ASCII v2.2 subset reader/writer.

Supported element types: 1 (2-node line, 2-D boundary), 3 (4-node quad:
volume cell in 2-D, boundary face in 3-D), 5 (8-node hexahedron).  Physical
names become boundary patches.  Anything else is rejected by type number.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..errors import FormatError, MeshError
from ..mesh_core import BoundarySection, SerialMesh

_SUPPORTED = {1: 2, 3: 4, 5: 8}
_GMSH_NODE_COUNT = {1: 2, 2: 3, 3: 4, 4: 4, 5: 8, 6: 6, 7: 5, 15: 1}


def import_gmsh_ascii(path: str) -> SerialMesh:
    """Parse a Gmsh v2.2 ASCII file into the serial mesh model."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    i = 0
    n = len(lines)
    phys_names: Dict[int, str] = {}
    node_ids: List[int] = []
    node_xyz: List[tuple] = []
    elements: List[tuple] = []  # (etype, phys_tag, node_ids)

    def fail(msg, lineno):
        raise FormatError(f"{path}:{lineno + 1}: {msg}")

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
            try:
                count = int(lines[i + 1])
            except (IndexError, ValueError):
                fail("malformed $PhysicalNames count", i + 1)
            for k in range(count):
                parts = lines[i + 2 + k].split(maxsplit=2)
                if len(parts) < 3:
                    fail("malformed physical name record", i + 2 + k)
                phys_names[int(parts[1])] = parts[2].strip().strip('"')
            i += 2 + count
            if i >= n or lines[i].strip() != "$EndPhysicalNames":
                fail("missing $EndPhysicalNames", i)
        elif line == "$Nodes":
            try:
                count = int(lines[i + 1])
            except (IndexError, ValueError):
                fail("malformed $Nodes count", i + 1)
            for k in range(count):
                parts = lines[i + 2 + k].split()
                if len(parts) < 4:
                    fail("malformed node record", i + 2 + k)
                node_ids.append(int(parts[0]))
                node_xyz.append((float(parts[1]), float(parts[2]), float(parts[3])))
            i += 2 + count
            if i >= n or lines[i].strip() != "$EndNodes":
                fail("missing $EndNodes", i)
        elif line == "$Elements":
            try:
                count = int(lines[i + 1])
            except (IndexError, ValueError):
                fail("malformed $Elements count", i + 1)
            for k in range(count):
                parts = lines[i + 2 + k].split()
                if len(parts) < 3:
                    fail("malformed element record", i + 2 + k)
                etype = int(parts[1])
                ntags = int(parts[2])
                if etype not in _SUPPORTED:
                    fail(f"unsupported element type {etype}", i + 2 + k)
                nodes = [int(v) for v in parts[3 + ntags:]]
                if len(nodes) != _SUPPORTED[etype]:
                    fail(f"element type {etype} expects {_SUPPORTED[etype]} nodes", i + 2 + k)
                phys = int(parts[3]) if ntags >= 1 else 0
                elements.append((etype, phys, nodes))
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

    if not node_ids:
        raise FormatError(f"{path}: no $Nodes section")
    if not elements:
        raise FormatError(f"{path}: no $Elements section")

    has_hex = any(et == 5 for et, _, _ in elements)
    dim = 3 if has_hex else 2
    volume_type = 5 if dim == 3 else 3
    boundary_type = 3 if dim == 3 else 1

    coords = np.array(node_xyz, dtype=float)[:, :dim]
    file_ids = np.array(node_ids, dtype=np.int64)
    sorter = np.argsort(file_ids, kind="stable")
    if np.any(np.diff(file_ids[sorter]) == 0):
        raise FormatError(f"{path}: repeated node ids in $Nodes")

    def vertex_rows(nodes, width):
        """Node ids of the file -> vertex ids (row index of ``coords``)."""
        nodes = np.array(nodes, dtype=np.int64).reshape(-1, width)
        pos = sorter[np.searchsorted(file_ids, nodes, sorter=sorter).clip(0, len(sorter) - 1)]
        bad = np.argwhere(file_ids[pos] != nodes)
        if bad.size:
            raise MeshError(f"{path}: element names node {int(nodes[tuple(bad[0])])}, "
                            f"which $Nodes does not define")
        return pos

    for etype, _, _ in elements:
        if etype not in (volume_type, boundary_type):
            raise FormatError(
                f"{path}: element type {etype} has the wrong dimension for this mesh"
            )
    cells = vertex_rows([nodes for et, _, nodes in elements if et == volume_type],
                        _SUPPORTED[volume_type])
    bnd = [(phys, nodes) for et, phys, nodes in elements if et == boundary_type]
    records = vertex_rows([nodes for _, nodes in bnd], _SUPPORTED[boundary_type]).tolist()
    sections: Dict[int, BoundarySection] = {}
    for (phys, _), rec in zip(bnd, records):
        if phys not in sections:
            sections[phys] = BoundarySection(len(sections), phys_names.get(phys, f"patch{phys}"), [])
        sections[phys].records.append(tuple(rec))

    return SerialMesh(
        dim=dim,
        vertices=coords,
        cells=cells,
        boundary_sections=list(sections.values()),
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
    section list.  Matching tolerance is 1e-10 of the mesh extent.
    """
    names = {s.name: s for s in mesh.boundary_sections}
    alias = (mesh.vertex_alias.copy() if mesh.vertex_alias is not None
             else np.arange(mesh.vertices.shape[0], dtype=np.int64))
    extent = float(np.max(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))
    tol = 1e-10 * max(extent, 1.0)
    consumed = set()
    for name_a, name_b, translation in pairs:
        if name_a not in names or name_b not in names:
            raise MeshError(f"periodic pair names unknown patch: {name_a}/{name_b}")
        translation = np.asarray(translation, dtype=float)[: mesh.dim]
        averts = sorted({v for rec in names[name_a].records for v in rec})
        index = {}
        for v in averts:
            key = tuple(np.round(mesh.vertices[v] / tol).astype(np.int64))
            index[key] = v
        for rec in names[name_b].records:
            for v in rec:
                target = mesh.vertices[v] - translation
                key = tuple(np.round(target / tol).astype(np.int64))
                hit = index.get(key)
                if hit is None:
                    # tolerate half-ulp rounding straddles
                    for dkey in _neighbor_keys(key):
                        hit = index.get(dkey)
                        if hit is not None:
                            break
                if hit is None:
                    raise MeshError(
                        f"periodic vertex {v} of {name_b} has no partner on {name_a}"
                    )
                alias[v] = alias[hit]
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


def _neighbor_keys(key):
    out = []
    for ax in range(len(key)):
        for dv in (-1, 1):
            k = list(key)
            k[ax] += dv
            out.append(tuple(k))
    return out
