"""FLOP accounting, byte-traffic counters, step timing, and scaling
reports.

GEMM work is counted as 2mnk.  Point-wise kernels carry a per-point cost
table derived from the implemented formulas; an instrumented scalar type
(:class:`CountingFloat`) re-runs the same kernels on tiny object arrays to
cross-check the table.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

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
# Cost per point of each point-wise kernel, tallied by hand from the
# vectorized formulas in fluxrecon.physics / pipeline.  The census test
# re-derives these with CountingFloat and requires agreement within 10%.

_DIV_COST = 1
_SQRT_COST = 1


def _flux_cost(d):
    # pressure: ke (2d flops: d mul + d-1 add + 1 mul) + sub + mul => 2d+3
    # velocities: d divs
    # flux: per dir: mass 1; momentum d muls + ... tallied from inviscid_flux
    return {2: 27, 3: 46}[d]


# Scheme-count table: double-precision ops per point, tallied by hand from
# the implemented formulas (adds/subs, muls, divs, sqrt/pow; negations and
# comparisons free).  The instrumented census re-measures the same bodies
# at runtime and must agree within 10%.
POINTWISE_COSTS: Dict[tuple, int] = {
    ("phys_flux", 2): 26,
    ("phys_flux", 3): 45,
    ("transform_flux", 2): 24,
    ("transform_flux", 3): 75,
    ("own_trace", 2): 12,
    ("own_trace", 3): 25,
    ("riemann_rusanov", 2): 105,
    ("riemann_rusanov", 3): 140,
    ("riemann_hllc", 2): 160,
    ("riemann_hllc", 3): 205,
    ("flux_scale", 2): 9,
    ("flux_scale", 3): 11,
    ("flux_jump", 2): 4,
    ("flux_jump", 3): 5,
    ("boundary_ghost", 2): 19,
    ("boundary_ghost", 3): 27,
    ("scale_residual", 2): 4,
    ("scale_residual", 3): 5,
    ("sponge_source", 2): 19,
    ("sponge_source", 3): 21,
    ("common_solution", 2): 29,
    ("common_solution", 3): 36,
    ("grad_transform", 2): 24,
    ("grad_transform", 3): 75,
    ("viscous_flux", 2): 82,
    ("viscous_flux", 3): 150,
    ("viscous_interface", 2): 223,
    ("viscous_interface", 3): 391,
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

    meta: dict = field(default_factory=dict)
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
                      members: Optional[Sequence[str]] = None):
        s = self.stat(name)
        if members:
            for m in members:
                s.flops += flops_pointwise(m, dim, npoints)
        else:
            s.flops += flops_pointwise(name, dim, npoints)
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
    def __init__(self):
        self.adds = 0
        self.muls = 0
        self.divs = 0
        self.sqrts = 0
        self.pows = 0

    @property
    def total(self) -> int:
        return self.adds + self.muls + self.divs + self.sqrts + self.pows


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
        self.c.adds += 1
        return CountingFloat(self.v + v, self.c)

    __radd__ = __add__

    def __sub__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.adds += 1
        return CountingFloat(self.v - v, self.c)

    def __rsub__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.adds += 1
        return CountingFloat(v - self.v, self.c)

    def __mul__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.muls += 1
        return CountingFloat(self.v * v, self.c)

    __rmul__ = __mul__

    def __truediv__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.divs += 1
        return CountingFloat(self.v / v, self.c)

    def __rtruediv__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.divs += 1
        return CountingFloat(v / self.v, self.c)

    def __pow__(self, o):
        v = self._lift(o)
        if v is None:
            return NotImplemented
        self.c.pows += 1
        return CountingFloat(self.v ** v, self.c)

    def __neg__(self):
        return CountingFloat(-self.v, self.c)

    def __abs__(self):
        return CountingFloat(abs(self.v), self.c)

    def sqrt(self):
        self.c.sqrts += 1
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
# Census bodies: the per-point arithmetic of each point-wise kernel, run on
# instrumented scalars.  These mirror the vectorized kernel formulas.
# ---------------------------------------------------------------------------


def _census_state(dim, c, shift=0.0):
    from .physics import conserved, GasModel

    gas = GasModel(gamma=1.4, R=1.0)
    rho = 1.1 + shift
    vel = [0.3 - 0.1 * k + shift for k in range(dim)]
    p = 0.9 + shift
    Q = conserved(np.array(rho), np.array(vel), np.array(p), gas)
    return counting_array(Q, c)[None, :], gas


def _census_normal(dim, c):
    n = np.array([0.6, 0.8] if dim == 2 else [0.48, 0.6, 0.64])
    return counting_array(n, c)[None, :]


def _census_grad(dim, c, seed=3):
    rng = np.random.default_rng(seed)
    return counting_array(0.1 * rng.standard_normal((1, dim, dim + 2)), c)


def census_pointwise(kernel: str, dim: int) -> int:
    """Operation count of one point of ``kernel``, measured by running the
    implemented formula on instrumented scalars."""
    from . import physics

    c = OpCounter()
    if kernel == "phys_flux":
        Q, gas = _census_state(dim, c)
        physics.inviscid_flux(Q, dim, gas)
    elif kernel == "transform_flux" or kernel == "grad_transform":
        rng = np.random.default_rng(0)
        F = counting_array(rng.standard_normal((dim, dim + 2)), c)
        adj = counting_array(rng.standard_normal((dim, dim)), c)
        for k in range(dim):
            acc = adj[k, 0] * F[0]
            for l in range(1, dim):
                acc = acc + adj[k, l] * F[l]
    elif kernel == "own_trace":
        rng = np.random.default_rng(1)
        Ff = counting_array(rng.standard_normal((dim, dim + 2)), c)
        side_mask = counting_array(np.eye(dim)[0] * -1.0, c)
        acc = None
        for ax in range(dim):
            term = Ff[ax] * side_mask[ax]
            acc = term if acc is None else acc + term
    elif kernel in ("riemann_rusanov", "riemann_hllc"):
        QL, gas = _census_state(dim, c)
        QR, _ = _census_state(dim, c, shift=0.05)
        n = _census_normal(dim, c)
        if kernel == "riemann_rusanov":
            physics.rusanov_flux(QL, QR, n, dim, gas)
        else:
            physics.hllc_flux(QL, QR, n, dim, gas)
    elif kernel == "flux_scale":
        Q, gas = _census_state(dim, c)
        Fc = Q  # any nv-vector stands in for the common flux
        sign = CountingFloat(1.0, c)
        area = CountingFloat(0.7, c)
        A = sign * area
        _ = A * Fc
        _ = -A * Fc
    elif kernel == "flux_jump":
        Q, gas = _census_state(dim, c)
        Q2, _ = _census_state(dim, c, shift=0.1)
        _ = Q - Q2
    elif kernel == "scale_residual":
        Q, gas = _census_state(dim, c)
        det = CountingFloat(0.5, c)
        _ = -Q / det
    elif kernel == "sponge_source":
        from .physics import SpongeZone

        Q, gas = _census_state(dim, c)
        ref = counting_array(np.ones(dim + 2), c)
        zone = SpongeZone(axis=0, lo=0.0, hi=1.0, ramp_width=0.5, strength=2.0,
                          reference_state=ref)
        x = counting_array(np.full((1, dim), 0.25), c)
        physics.sponge_source(Q, zone, x)
    elif kernel == "common_solution":
        QL, gas = _census_state(dim, c)
        QR, _ = _census_state(dim, c, shift=0.05)
        sw = CountingFloat(1.0, c)
        Qs = 0.5 * (QL + QR) - 0.5 * sw * (QR - QL)
        _ = Qs - QL
        _ = Qs - QR
    elif kernel == "viscous_flux":
        Q, gas = _census_state(dim, c)
        g = _census_grad(dim, c)
        physics.viscous_flux(Q, g, dim, gas)
    elif kernel == "viscous_interface":
        QL, gas = _census_state(dim, c)
        QR, _ = _census_state(dim, c, shift=0.05)
        gL, gR = _census_grad(dim, c), _census_grad(dim, c, seed=5)
        n = _census_normal(dim, c)
        physics.ldg_interface(QL, QR, gL, gR, n, 0.5,
                              CountingFloat(1.0, c), dim, gas,
                              switch=CountingFloat(1.0, c))
    elif kernel == "boundary_ghost":
        from .physics import BoundarySpec

        Q, gas = _census_state(dim, c)
        n = _census_normal(dim, c)
        spec = BoundarySpec("w", "slip")
        physics.apply_boundary(spec, Q, n, dim, gas)
    else:
        raise ConfigError(f"no census body for kernel {kernel!r}")
    return c.total


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


def bench_csv_row(meta: dict, mean_step: float, ledger: PerfLedger) -> list:
    flops_per_step = ledger.total_flops / max(len(ledger.step_times), 1)
    return [
        meta.get("ranks", 1),
        meta.get("workers", meta.get("ranks", 1)),
        meta.get("elements", 0),
        meta.get("p", 0),
        "on" if meta.get("fusion", True) else "off",
        f"{mean_step:.9g}",
        int(ledger.total_flops),
        f"{flops_per_step / mean_step / 1e9:.6g}",
        int(ledger.total_bytes),
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


def monotonic_time() -> float:
    return time.perf_counter()
