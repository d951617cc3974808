from .kernels import BlockPlan
from .halo import HaloPlan
from .solver import (
    RKScheme,
    SSP_RK3,
    SolverOptions,
    SolverRank,
    interpolate_state,
)

__all__ = [
    "BlockPlan",
    "HaloPlan",
    "RKScheme",
    "SSP_RK3",
    "SolverOptions",
    "SolverRank",
    "interpolate_state",
]
