"""Exception types shared across the package, and the range check of
configuration values."""

import math


class FluxReconError(Exception):
    """Base class for all package errors."""


class MeshError(FluxReconError):
    """Invalid mesh topology or geometry."""


class NonManifoldError(MeshError):
    """A face key is shared by more than two cells."""


class InvertedElementError(MeshError):
    """Jacobian determinant is non-positive somewhere in a cell."""

    def __init__(self, cell_id: int, detail: str = ""):
        self.cell_id = cell_id
        msg = f"inverted element: cell {cell_id}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DanglingBoundaryError(MeshError):
    """A boundary record matched no uncoupled volume face."""


class MeshHoleError(MeshError):
    """An uncoupled face has neither a remote partner nor a boundary record."""


class PositivityError(FluxReconError):
    """Density or internal energy became non-positive."""

    def __init__(self, cell_id: int, detail: str = ""):
        self.cell_id = cell_id
        msg = f"positivity violation in cell {cell_id}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TransportError(FluxReconError):
    """Message transport failure."""


class ConfigError(FluxReconError):
    """Bad or missing run-configuration content."""


class FormatError(FluxReconError):
    """Malformed mesh/shard/solution file."""


def check_range(key: str, value, lo: float = 0.0, strict: bool = True):
    """Raise ConfigError naming ``key`` and ``value`` unless the value is
    finite and above ``lo`` (at least ``lo`` unless ``strict``)."""
    if not (math.isfinite(value) and (value > lo if strict else value >= lo)):
        raise ConfigError(f"{key} must be finite and {'above' if strict else 'at least'} "
                          f"{lo}, got {value!r}")
