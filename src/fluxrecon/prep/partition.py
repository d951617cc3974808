"""Weighted graph partitioner: deterministic greedy graph growing plus a
boundary-refinement pass.  Stands in for an external graph partitioner at
desk scale.

Parts grow breadth-first on the CSR dual graph (:class:`DualGraph`) from a
``collections.deque`` frontier with a "queued" mask, as in greedy graph
growing (Karypis & Kumar, SIAM J. Sci. Comput. 20, 1998); loads and the
refinement's boundary list are whole-array operations."""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from ..errors import MeshError
from ..mesh_core import DualGraph


def partition_mesh(graph: DualGraph, nparts: int, seed: int = 0) -> np.ndarray:
    """Cell -> part assignment, balanced by per-cell weights.

    Grows connected parts from seeded frontiers, then moves boundary cells
    to trim the weighted imbalance.  Deterministic for a given seed.
    """
    w = np.asarray(graph.weight).astype(np.int64)
    ncells = w.size
    if nparts < 1:
        raise MeshError("nparts must be >= 1")
    if nparts > ncells:
        raise MeshError(f"nparts={nparts} exceeds {ncells} cells")
    if (w <= 0).any():
        raise MeshError("partition weights must be positive")
    if nparts == 1:
        return np.zeros(ncells, dtype=np.int64)

    part = _grow(graph.ptr.tolist(), graph.dst.tolist(), w.tolist(), nparts)
    loads = np.bincount(part, weights=w, minlength=nparts).astype(np.int64)
    _refine(graph, w, part, loads, nparts, random.Random(seed))
    return part


def _grow(ptr, dst, w, nparts):
    """Parts 0..nparts-2 grow breadth-first from the lowest unassigned
    cell until they reach the mean of the weight left; the last part takes
    every cell that is left, and there must be one.  Every part grows at
    least its first cell, so no part is empty."""
    ncells = len(w)
    part = np.full(ncells, nparts - 1, dtype=np.int64)
    queued = [False] * ncells  # assigned, or in the current frontier
    remaining = sum(w)
    first = 0
    for p in range(nparts - 1):
        while first < ncells and queued[first]:
            first += 1
        if first == ncells:
            break
        target = remaining / (nparts - p)
        frontier = deque([first])
        queued[first] = True
        grown = []
        load = 0
        while frontier and (load == 0 or load + w[frontier[0]] <= target):
            cur = frontier.popleft()
            grown.append(cur)
            load += w[cur]
            for nb in dst[ptr[cur]:ptr[cur + 1]]:
                if not queued[nb]:
                    queued[nb] = True
                    frontier.append(nb)
            if load >= target:
                break
        for c in frontier:  # left unassigned: free for the next part
            queued[c] = False
        part[grown] = p
        remaining -= load
    if all(queued):
        raise MeshError(f"no cell is left for the last of {nparts} parts: "
                        "the cell weights are too uneven")
    return part


def _refine(graph, w, part, loads, nparts, rng, sweeps: int = 8):
    """Greedy boundary moves lowering max(load)/mean(load)."""
    mean = loads.sum() / nparts
    src = None
    for _ in range(sweeps):
        worst = int(np.argmax(loads))
        if loads[worst] / mean <= 1.05:
            return
        if src is None:
            src = np.repeat(np.arange(w.size), np.diff(graph.ptr))
        # (cell, neighbouring part) of the worst part's cells, ascending
        q = part[graph.dst]
        cross = (part[src] == worst) & (q != worst)
        pairs = np.unique(src[cross] * nparts + q[cross])
        boundary = list(zip((pairs // nparts).tolist(), (pairs % nparts).tolist()))
        rng.shuffle(boundary)
        boundary.sort(key=lambda iq: loads[iq[1]])
        moved = False
        for i, q in boundary:
            if loads[worst] - w[i] < w[i]:
                continue  # never empty a part
            if loads[q] + w[i] < loads[worst]:
                part[i] = q
                loads[worst] -= w[i]
                loads[q] += w[i]
                moved = True
                break
        if not moved:
            return
