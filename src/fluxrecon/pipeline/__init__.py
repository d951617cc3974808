from .kernels import BlockPlan
from .solver import (
    RKScheme,
    SSP_RK3,
    SolverOptions,
    SolverRank,
    interpolate_state,
)

__all__ = [
    "BlockPlan",
    "RKScheme",
    "SSP_RK3",
    "SolverOptions",
    "SolverRank",
    "interpolate_state",
]
