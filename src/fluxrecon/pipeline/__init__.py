from .kernels import BlockPlan
from .solver import (
    SolverOptions,
    SolverRank,
    interpolate_state,
)

__all__ = [
    "BlockPlan",
    "SolverOptions",
    "SolverRank",
    "interpolate_state",
]
