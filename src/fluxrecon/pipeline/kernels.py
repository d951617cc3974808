"""Element blocking."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BlockPlan:
    """Element blocking driven by a memory budget.

    ``block_elements`` is the largest element count whose block scratch
    fits the budget; blocks never split an element.  The budget counts
    exactly the scratch the solver allocates ``block_elements`` deep, which
    ``bytes_per_element`` gives per element (the one block buffer, the
    transformed flux: ``d * nv * Ns`` doubles, inviscid or viscous); the
    numpy temporaries a pass makes per block scale with the block too but
    are not counted.  Too small a block, and
    the per-call overhead of many short passes dominates; too large, and
    the scratch and the temporaries fall out of cache.  Blocking stays
    because the fused passes run on one block at a time, which is what the
    ledger's fused traffic model describes; that model does not depend on
    the block size.  Deterministic mode needs no fixed size: its GEMMs
    accumulate each row in a fixed order, so results do not depend on the
    blocking.
    """

    num_elements: int
    bytes_per_element: int
    budget_bytes: int

    @property
    def block_elements(self) -> int:
        return max(1, min(max(self.num_elements, 1),
                          self.budget_bytes // max(self.bytes_per_element, 1)))

    def blocks(self):
        b = self.block_elements
        return [(lo, min(lo + b, self.num_elements))
                for lo in range(0, self.num_elements, b)]
