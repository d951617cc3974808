"""FLOP accounting, byte-traffic counters, step timing, and scaling
reports.

GEMM work is counted as 2mnk.  Point-wise kernels carry a per-point cost
table; the census (:func:`census_pointwise`) cross-checks it by running, on
one point of instrumented scalars (:class:`CountingFloat`), the function
that each kernel's solver pass calls.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import physics
from .errors import ConfigError


def dof_count(elements: float, p: int, dim: int, nvars: int = 1) -> float:
    """Solution points per element times elements (times variables)."""
    return float(elements) * (p + 1) ** dim * nvars


def flops_gemm(m: int, n: int, k: int) -> int:
    """Matrix-multiply operation count, 2mnk."""
    if m <= 0 or n <= 0 or k <= 0:
        raise ConfigError("gemm dims must be positive")
    return 2 * m * n * k


# ---------------------------------------------------------------------------
# Point-wise operation table
# ---------------------------------------------------------------------------
# Double-precision ops per point of each point-wise kernel (adds/subs, muls,
# divs, sqrt/pow; negations and comparisons free).  The census re-measures
# each entry by running its solver pass's own function and must agree
# within 10%.
POINTWISE_COSTS: Dict[tuple, int] = {
    ("transformed_flux", 2): 32,
    ("transformed_flux", 3): 61,
    ("transformed_ns_flux", 2): 120,
    ("transformed_ns_flux", 3): 252,
    ("riemann_rusanov", 2): 71,
    ("riemann_rusanov", 3): 92,
    ("riemann_hllc", 2): 126,
    ("riemann_hllc", 3): 156,
    ("flux_scale", 2): 4,
    ("flux_scale", 3): 5,
    # boundary ghost states, one entry per patch kind (physics.apply_boundary
    # with the solver's diagnostics; a prescribed state function's own work
    # is not modelled)
    ("ghost_slip", 2): 28,
    ("ghost_slip", 3): 39,
    ("ghost_noslip-isothermal", 2): 27,
    ("ghost_noslip-isothermal", 3): 35,
    ("ghost_adiabatic", 2): 26,
    ("ghost_adiabatic", 3): 34,
    ("ghost_outflow", 2): 26,
    ("ghost_outflow", 3): 35,
    ("ghost_riemann-inflow", 2): 43,
    ("ghost_riemann-inflow", 3): 53,
    ("ghost_sponge-ref", 2): 0,
    ("ghost_sponge-ref", 3): 0,
    ("ghost_prescribed", 2): 0,
    ("ghost_prescribed", 3): 0,
    ("scale_residual", 2): 4,
    ("scale_residual", 3): 5,
    ("sponge_source", 2): 12,
    ("sponge_source", 3): 15,
    ("common_solution", 2): 8,
    ("common_solution", 3): 10,
    ("grad_transform", 2): 24,
    ("grad_transform", 3): 75,
    ("viscous_interface", 2): 97,
    ("viscous_interface", 3): 171,
    ("viscous_wall", 2): 105,
    ("viscous_wall", 3): 181,
}


def flops_pointwise(kernel: str, dim: int, npoints: int) -> int:
    """Table cost times points for one point-wise kernel invocation."""
    if npoints < 0:
        raise ConfigError("npoints must be nonnegative")
    key = (kernel, dim)
    if key not in POINTWISE_COSTS:
        raise ConfigError(f"kernel {kernel!r} (dim {dim}) not in the cost table")
    return POINTWISE_COSTS[key] * npoints


@dataclass
class KernelStats:
    flops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    invocations: int = 0


@dataclass
class PerfLedger:
    """Per-kernel counters plus per-step aggregates for one run."""

    kernels: Dict[str, KernelStats] = field(default_factory=dict)
    step_times: List[float] = field(default_factory=list)
    prefetches: int = 0

    def stat(self, name: str) -> KernelStats:
        if name not in self.kernels:
            self.kernels[name] = KernelStats()
        return self.kernels[name]

    def add_gemm(self, name: str, m: int, n: int, k: int,
                 bytes_read: int, bytes_written: int):
        s = self.stat(name)
        s.flops += flops_gemm(m, n, k)
        s.bytes_read += bytes_read
        s.bytes_written += bytes_written
        s.invocations += 1

    def add_pointwise(self, name: str, dim: int, npoints: int,
                      bytes_read: int, bytes_written: int,
                      members: Optional[Sequence] = None):
        """Charge each kernel of ``members`` (default: ``name``; none if
        empty) on ``npoints`` points; a member given as ``(kernel, n)`` is
        charged on its own ``n`` points."""
        s = self.stat(name)
        for m in (name,) if members is None else members:
            kernel, n = (m, npoints) if isinstance(m, str) else m
            s.flops += flops_pointwise(kernel, dim, n)
        s.bytes_read += bytes_read
        s.bytes_written += bytes_written
        s.invocations += 1

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.kernels.values())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_read + s.bytes_written for s in self.kernels.values())

    def merge(self, other: "PerfLedger"):
        for name, s in other.kernels.items():
            mine = self.stat(name)
            mine.flops += s.flops
            mine.bytes_read += s.bytes_read
            mine.bytes_written += s.bytes_written
            mine.invocations += s.invocations
        self.prefetches += other.prefetches

    def reset_counters(self):
        self.kernels.clear()
        self.step_times.clear()
        self.prefetches = 0


# ---------------------------------------------------------------------------
# Instrumented scalar for the operation census
# ---------------------------------------------------------------------------


class OpCounter:
    """Operations counted so far, each add, sub, mul, div, sqrt or pow
    one."""

    def __init__(self):
        self.total = 0


class CountingFloat:
    """Float stand-in that tallies arithmetic into a shared OpCounter.

    Comparisons are free (they select, not compute); numpy object arrays
    route np.sqrt/np.abs to the methods below.
    """

    __slots__ = ("v", "c")

    def __init__(self, v, c: OpCounter):
        self.v = float(v)
        self.c = c

    def _lift(self, other):
        if isinstance(other, CountingFloat):
            return other.v
        if isinstance(other, (int, float, np.integer, np.floating)):
            return float(other)
        return None  # arrays: let numpy broadcast element-wise

    def __add__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(self.v + v, self.c)

    __radd__ = __add__

    def __sub__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(self.v - v, self.c)

    def __rsub__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(v - self.v, self.c)

    def __mul__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(self.v * v, self.c)

    __rmul__ = __mul__

    def __truediv__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(self.v / v, self.c)

    def __rtruediv__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(v / self.v, self.c)

    def __pow__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.total += 1
        return CountingFloat(self.v ** v, self.c)

    def __neg__(self):
        return CountingFloat(-self.v, self.c)

    def __abs__(self):
        return CountingFloat(abs(self.v), self.c)

    def sqrt(self):
        self.c.total += 1
        return CountingFloat(self.v ** 0.5, self.c)

    def __lt__(self, o):
        return self.v < self._lift(o)

    def __le__(self, o):
        return self.v <= self._lift(o)

    def __gt__(self, o):
        return self.v > self._lift(o)

    def __ge__(self, o):
        return self.v >= self._lift(o)

    def __eq__(self, o):
        return self.v == self._lift(o)

    def __ne__(self, o):
        return self.v != self._lift(o)

    def __float__(self):
        return self.v

    def __repr__(self):
        return f"CF({self.v})"


def counting_array(values: np.ndarray, counter: OpCounter) -> np.ndarray:
    flat = [CountingFloat(v, counter) for v in np.asarray(values, dtype=float).reshape(-1)]
    return np.array(flat, dtype=object).reshape(np.shape(values))


# ---------------------------------------------------------------------------
# Census: each kernel maps to the function its solver pass calls and to a
# builder of that function's arguments at one point.  Kernels whose pass is
# one operator (flux_scale, scale_residual) run the pass's own expression.
# So does common_solution, which the solver charges on boundary pairs only:
# elsewhere the LDG common solution is one side's state, gathered at no
# flops.  viscous_interface is the one-sided LDG flux: one side's viscous
# flux and the penalty.  The face traces of the flux and of the state and
# their jumps against the common values have no entry: the solver folds
# them into the divergence and gradient GEMMs.
# ---------------------------------------------------------------------------

_GAS = physics.GasModel(gamma=1.4, R=1.0)


def _state(dim, c, shift=0.0):
    """One conserved state ``(1, nv)``."""
    vel = [0.3 - 0.1 * k + shift for k in range(dim)]
    Q = physics.conserved(np.array(1.1 + shift), np.array(vel), np.array(0.9 + shift), _GAS)
    return counting_array(Q, c)[None, :]


def _pair(dim, c):
    return _state(dim, c), _state(dim, c, shift=0.05)


def _normal(dim, c):
    return counting_array(np.array([0.6, 0.8] if dim == 2 else [0.48, 0.6, 0.64]), c)[None, :]


def _random(shape, c, seed, scale=1.0):
    return counting_array(scale * np.random.default_rng(seed).standard_normal(shape), c)


def _grad(dim, c, seed=3):
    return _random((1, dim, dim + 2), c, seed, scale=0.1)


_CENSUS = {
    "transformed_flux": (physics.transformed_flux, lambda d, c: (
        _state(d, c), _random((d, d), c, 0), d, _GAS)),
    "transformed_ns_flux": (physics.transformed_flux, lambda d, c: (
        _state(d, c), _random((d, d), c, 0), d, _GAS, None, None, _grad(d, c))),
    "grad_transform": (physics.transform, lambda d, c: (
        _random((d, d), c, 0), list(_random((d, d + 2), c, 2)))),
    "riemann_rusanov": (physics.riemann_flux, lambda d, c: (
        *_pair(d, c), _normal(d, c), d, _GAS, "rusanov")),
    "riemann_hllc": (physics.riemann_flux, lambda d, c: (
        *_pair(d, c), _normal(d, c), d, _GAS, "hllc")),
    "flux_scale": (operator.mul, lambda d, c: (_state(d, c), CountingFloat(0.7, c))),
    "scale_residual": (lambda r, det: -r / det,
                       lambda d, c: (_state(d, c), CountingFloat(0.5, c))),
    "sponge_source": (physics.sponge_sum, lambda d, c: (
        _state(d, c), [(CountingFloat(-2.0, c), counting_array(np.ones(d + 2), c))])),
    "common_solution": (lambda QL, QR: 0.5 * (QL + QR), _pair),
    "viscous_interface": (physics.ldg_interface, lambda d, c: (
        _state(d, c, shift=0.05), _grad(d, c), *_pair(d, c), _normal(d, c),
        CountingFloat(1.0, c), d, _GAS)),
    "viscous_wall": (physics.wall_flux, lambda d, c: (
        *_pair(d, c), _grad(d, c), _normal(d, c), CountingFloat(1.0, c), d, _GAS)),
}


def _ghost(kind):
    """``apply_boundary`` on one point of a ``kind`` patch, with a
    diagnostics object as the solver passes; the spec holds plain floats."""
    def build(d, c):
        spec = physics.BoundarySpec(
            "w", kind, total_temperature=1.2, total_pressure=1.5, direction=np.eye(d)[0],
            static_pressure=0.8, wall_temperature=0.9, reference_state=np.ones(d + 2),
            state_fn=lambda x: np.ones((len(x), d + 2)))
        return (spec, _state(d, c), _normal(d, c), d, _GAS, np.zeros((1, d)),
                physics.BoundaryDiagnostics())
    return physics.apply_boundary, build


_CENSUS.update({kernel: _ghost(kernel[len("ghost_"):])
                for kernel, _ in POINTWISE_COSTS if kernel.startswith("ghost_")})


def census_pointwise(kernel: str, dim: int) -> int:
    """Operation count of one point of ``kernel``, measured by running its
    solver pass's function on instrumented scalars."""
    if kernel not in _CENSUS:
        raise ConfigError(f"no census body for kernel {kernel!r}")
    fn, build = _CENSUS[kernel]
    c = OpCounter()
    args = build(dim, c)
    before = c.total
    fn(*args)
    return c.total - before


def census_table(dim: int) -> Dict[str, int]:
    """Instrumented counts for every kernel in the cost table."""
    out = {}
    for (kernel, d) in POINTWISE_COSTS:
        if d == dim:
            out[kernel] = census_pointwise(kernel, dim)
    return out


# ---------------------------------------------------------------------------
# Scaling records
# ---------------------------------------------------------------------------


@dataclass
class ScalingRecord:
    mode: str
    resources: List[int]
    mean_step_s: List[float]
    speedup: List[float]
    efficiency: List[float]
    superlinear: bool

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["resources", "mean_step_s", "speedup", "efficiency"])
        for row in zip(self.resources, self.mean_step_s, self.speedup, self.efficiency):
            w.writerow([row[0], f"{row[1]:.9g}", f"{row[2]:.6g}", f"{row[3]:.6g}"])
        return buf.getvalue()


def scaling_report(resources: Sequence[int], mean_times: Sequence[float],
                   mode: str = "strong") -> ScalingRecord:
    """Speedup and efficiency against the smallest resource count."""
    if len(resources) < 2 or len(resources) != len(mean_times):
        raise ConfigError("scaling report needs >= 2 consistent (resources, time) pairs")
    order = np.argsort(resources)
    res = [int(resources[i]) for i in order]
    ts = [float(mean_times[i]) for i in order]
    if len(set(res)) != len(res):
        raise ConfigError("duplicate resource counts in scaling series")
    base_r, base_t = res[0], ts[0]
    speedup, eff = [], []
    superlinear = False
    for r, t in zip(res, ts):
        if mode == "strong":
            s = base_t / t
            e = s / (r / base_r)
        elif mode == "weak":
            s = base_t / t  # time ratio vs baseline; ideal = 1
            e = s
        else:
            raise ConfigError(f"unknown scaling mode {mode!r}")
        if e > 1.05:
            raise ConfigError(
                f"efficiency {e:.3f} at {r} resources exceeds 1.05: inconsistent series"
            )
        if e > 1.0:
            superlinear = True
        speedup.append(s)
        eff.append(e)
    return ScalingRecord(mode, res, ts, speedup, eff, superlinear)


BENCH_CSV_COLUMNS = ["ranks", "workers", "elements", "p", "fusion",
                     "mean_step_s", "flops", "gflops_rate", "bytes_moved"]


def bench_csv_row(meta: dict, mean_step: float, flops: int, bytes_moved: int,
                  steps: int) -> list:
    """One row in the bench schema from the totals of ``steps`` steps."""
    flops_per_step = flops / max(steps, 1)
    return [
        meta.get("ranks", 1),
        meta.get("workers", meta.get("ranks", 1)),
        meta.get("elements", 0),
        meta.get("p", 0),
        "on" if meta.get("fusion", True) else "off",
        f"{mean_step:.9g}",
        int(flops),
        f"{flops_per_step / mean_step / 1e9:.6g}",
        int(bytes_moved),
    ]


def summarize_steps(step_times: Sequence[float], warmup: int = 3) -> dict:
    """Mean/median/min step time excluding warm-up steps."""
    ts = list(step_times)
    if len(ts) <= warmup:
        raise ConfigError(f"need more than {warmup} timed steps, got {len(ts)}")
    body = np.array(ts[warmup:])
    return {
        "mean": float(body.mean()),
        "median": float(np.median(body)),
        "min": float(body.min()),
        "steps": len(body),
    }
