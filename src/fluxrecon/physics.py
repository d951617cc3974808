"""Compressible Navier-Stokes physics: fluxes, Riemann solvers, LDG
interface treatment, boundary ghost states, and sponge-zone sources.

All point-wise kernels are written with element-wise numpy operations only
(no BLAS/einsum), so they run unchanged on object arrays of instrumented
scalars for operation-census purposes.  State vectors are ordered
``[rho, rho*u_0 .. rho*u_{d-1}, E]``.

Layout contract.  Every function indexes its arrays as ``(..., nv)``
(fluxes ``(..., d, nv)``, normals ``(..., d)``) and accepts any strides.
The bodies work one component at a time (``Q[..., k]``) and never on
whole ``(..., nv)`` blocks, so when the caller passes a transposed view of
a variable-major buffer (one contiguous row per variable, as the solver
does) each component is a contiguous row and no strided column or
transposing copy is made.  Outputs follow the input's layout: a
variable-major input gives a variable-major result (see ``_like``).
``inviscid_flux`` also takes ``out=``, a buffer of any strides to write
the flux into.  The solver passes a view of its ``F_upts`` block (and then
subtracts the viscous flux in place), so the volume flux is written where
the next kernel reads it instead of being built C-ordered and copied back.  Component sums run in
index order (``(a0 + a1) + a2``), the order numpy's sum over a length-d
axis uses, so results do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, PositivityError

# fixed LDG side-switch direction; any vector not orthogonal to mesh faces
LDG_SWITCH_VECTOR = np.array([1.0, 0.7071067811865476, 0.5773502691896258])


@dataclass(frozen=True)
class GasModel:
    """Perfect-gas constants and a viscosity law."""

    gamma: float = 1.4
    R: float = 287.0
    Pr: float = 0.72
    mu: float = 0.0
    sutherland: bool = False
    mu_ref: float = 1.716e-5
    T_ref: float = 273.15
    S: float = 110.4

    def __post_init__(self):
        if self.gamma <= 1.0 or self.Pr <= 0.0 or self.mu < 0.0:
            raise ConfigError("gas model requires gamma > 1, Pr > 0, mu >= 0")

    @property
    def cp(self) -> float:
        return self.gamma * self.R / (self.gamma - 1.0)

    def viscosity(self, T):
        if not self.sutherland:
            return self.mu if np.isscalar(T) else np.full_like(T, self.mu)
        return self.mu_ref * (T / self.T_ref) ** 1.5 * (self.T_ref + self.S) / (T + self.S)


def _vmax(a, b):
    return np.where(a > b, a, b)


def _vmin(a, b):
    return np.where(a < b, a, b)


def _like(Q: np.ndarray, *inner: int) -> np.ndarray:
    """Uninitialised array of shape ``Q.shape[:-1] + inner`` laid out like
    ``Q``: the ``inner`` axes outermost in memory when Q's variable axis is
    (a transposed view of a variable-major buffer), else C-ordered."""
    lead = Q.shape[:-1]
    if Q.ndim > 1 and abs(Q.strides[-1]) > abs(Q.strides[-2]):
        k = len(inner)
        return np.moveaxis(np.empty(inner + lead, dtype=Q.dtype),
                           tuple(range(k)), tuple(range(-k, 0)))
    return np.empty(lead + inner, dtype=Q.dtype)


def components(a: np.ndarray, dim: int) -> list:
    """The first ``dim`` components ``a[..., i]`` of a vector field."""
    return [a[..., i] for i in range(dim)]


def dot(a, b):
    """Sum of ``a[i] * b[i]`` over two sequences of components, in index
    order."""
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s = s + a[i] * b[i]
    return s


def normal_component(F: np.ndarray, n) -> np.ndarray:
    """``sum_j F[..., j, :] * n[j]`` of a flux ``(..., d, nv)`` and normal
    components ``n``; laid out like ``F[..., 0, :]``."""
    out = np.empty_like(F[..., 0, :])
    for k in range(F.shape[-1]):
        out[..., k] = dot([F[..., j, k] for j in range(len(n))], n)
    return out


def split_state(Q: np.ndarray, dim: int):
    """rho, the velocity components ``[u_0 .. u_{d-1}]`` and E from
    conserved variables."""
    rho = Q[..., 0]
    return rho, [Q[..., 1 + i] / rho for i in range(dim)], Q[..., 1 + dim]


def pressure(Q: np.ndarray, dim: int, gas: GasModel):
    rho, vel, E = split_state(Q, dim)
    ke = 0.5 * rho * dot(vel, vel)
    return (gas.gamma - 1.0) * (E - ke)


def temperature(Q: np.ndarray, dim: int, gas: GasModel):
    return pressure(Q, dim, gas) / (Q[..., 0] * gas.R)


def sound_speed(Q: np.ndarray, dim: int, gas: GasModel):
    return np.sqrt(gas.gamma * pressure(Q, dim, gas) / Q[..., 0])


def check_positivity(Q: np.ndarray, dim: int, gas: GasModel, cell_of_point=None):
    """Raise PositivityError naming the first offending cell, if any."""
    rho = Q[..., 0]
    p = pressure(Q, dim, gas)
    bad = np.asarray((rho <= 0.0) | (p <= 0.0))
    if bad.any():
        idx = int(np.argmax(bad.reshape(-1)))
        cell = -1 if cell_of_point is None else int(cell_of_point(idx))
        raise PositivityError(cell, f"rho or p non-positive at point {idx}")


def conserved(rho, vel, p, gas: GasModel) -> np.ndarray:
    """Assemble conserved variables from primitives."""
    rho = np.asarray(rho, dtype=float)
    vel = np.asarray(vel, dtype=float)
    p = np.asarray(p, dtype=float)
    E = p / (gas.gamma - 1.0) + 0.5 * rho * np.sum(vel * vel, axis=-1)
    return np.concatenate(
        [rho[..., None], rho[..., None] * vel, E[..., None]], axis=-1
    )


def inviscid_flux(Q: np.ndarray, dim: int, gas: GasModel,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Euler flux: shape (..., dim, nvars), written into ``out`` if given."""
    rho, vel, E = split_state(Q, dim)
    p = pressure(Q, dim, gas)
    F = _like(Q, dim, dim + 2) if out is None else out
    for k in range(dim):
        uk = vel[k]
        F[..., k, 0] = rho * uk
        for i in range(dim):
            m = rho * uk * vel[i]
            F[..., k, 1 + i] = m + p if i == k else m
        F[..., k, 1 + dim] = uk * (E + p)
    return F


def normal_flux(Q: np.ndarray, n: np.ndarray, dim: int, gas: GasModel) -> np.ndarray:
    """Euler flux dotted with a unit normal: shape (..., nvars)."""
    rho, vel, E = split_state(Q, dim)
    p = pressure(Q, dim, gas)
    nc = components(n, dim)
    un = dot(vel, nc)
    out = np.empty_like(Q)
    out[..., 0] = rho * un
    for i in range(dim):
        out[..., 1 + i] = rho * un * vel[i] + p * nc[i]
    out[..., 1 + dim] = un * (E + p)
    return out


def wave_speed(Q: np.ndarray, n: np.ndarray, dim: int, gas: GasModel):
    """|u.n| + c, the rusanov/CFL signal speed."""
    rho, vel, _ = split_state(Q, dim)
    un = dot(vel, components(n, dim))
    c = np.sqrt(gas.gamma * pressure(Q, dim, gas) / rho)
    return np.abs(un) + c


class RiemannDiagnostics:
    """Counts HLLC fallbacks to rusanov."""

    def __init__(self):
        self.hllc_fallbacks = 0


def rusanov_flux(QL, QR, n, dim: int, gas: GasModel):
    lam = _vmax(wave_speed(QL, n, dim, gas), wave_speed(QR, n, dim, gas))
    F = normal_flux(QL, n, dim, gas)  # overwritten by the common flux
    FR = normal_flux(QR, n, dim, gas)
    half_lam = 0.5 * lam
    for k in range(dim + 2):
        F[..., k] = 0.5 * (F[..., k] + FR[..., k]) - half_lam * (QR[..., k] - QL[..., k])
    return F


def hllc_flux(QL, QR, n, dim: int, gas: GasModel,
              diag: Optional[RiemannDiagnostics] = None):
    """HLLC with Davis wave-speed estimates; falls back to rusanov where
    the star-region construction degenerates."""
    rhoL, velL, EL = split_state(QL, dim)
    rhoR, velR, ER = split_state(QR, dim)
    pL = pressure(QL, dim, gas)
    pR = pressure(QR, dim, gas)
    cL = np.sqrt(gas.gamma * pL / rhoL)
    cR = np.sqrt(gas.gamma * pR / rhoR)
    nc = components(n, dim)
    unL = dot(velL, nc)
    unR = dot(velR, nc)

    SL = _vmin(unL - cL, unR - cR)
    SR = _vmax(unL + cL, unR + cR)
    dL = rhoL * (SL - unL)
    dR = rhoR * (SR - unR)
    denom = dL - dR
    tiny = 1e-300
    safe = np.abs(denom) > 1e-12 * (np.abs(dL) + np.abs(dR) + tiny)
    Sstar = np.where(safe, (pR - pL + unL * dL - unR * dR) / np.where(safe, denom, 1.0), 0.0)

    FL = normal_flux(QL, n, dim, gas)
    FR = normal_flux(QR, n, dim, gas)

    def star_state(Q, rho, vel, E, p, un, S, d):
        fac = d / np.where(np.abs(S - Sstar) > tiny, S - Sstar, 1.0)
        Qs = np.empty_like(Q)
        Qs[..., 0] = fac
        for i in range(dim):
            Qs[..., 1 + i] = fac * (vel[i] + (Sstar - un) * nc[i])
        Qs[..., 1 + dim] = fac * (E / rho + (Sstar - un) * (Sstar + p / d))
        return Qs

    QsL = star_state(QL, rhoL, velL, EL, pL, unL, SL, dL)
    QsR = star_state(QR, rhoR, velR, ER, pR, unR, SR, dR)

    upwind_L, upwind_R, star_L = SL >= 0.0, SR <= 0.0, Sstar >= 0.0
    F = np.empty_like(QL)
    for k in range(dim + 2):
        F[..., k] = np.where(upwind_L, FL[..., k],
            np.where(upwind_R, FR[..., k],
            np.where(star_L,
                     FL[..., k] + SL * (QsL[..., k] - QL[..., k]),
                     FR[..., k] + SR * (QsR[..., k] - QR[..., k]))))

    degenerate = np.asarray((~safe) | (QsL[..., 0] <= 0.0) | (QsR[..., 0] <= 0.0))
    if degenerate.any():
        if diag is not None:
            diag.hllc_fallbacks += int(np.sum(degenerate))
        F[degenerate] = rusanov_flux(QL, QR, n, dim, gas)[degenerate]
    return F


def riemann_flux(QL, QR, n, dim: int, gas: GasModel, solver: str = "rusanov",
                 diag: Optional[RiemannDiagnostics] = None):
    """Common normal flux from two interface states and a unit normal."""
    if solver == "rusanov":
        return rusanov_flux(QL, QR, n, dim, gas)
    if solver == "hllc":
        return hllc_flux(QL, QR, n, dim, gas, diag)
    raise ConfigError(f"unknown riemann solver {solver!r}")


def velocity_gradient(Q: np.ndarray, grad_Q: np.ndarray, dim: int):
    """du_i/dx_j from conserved gradients; grad_Q shape (..., dim, nvars)."""
    rho, vel, _ = split_state(Q, dim)
    dudx = _like(Q, dim, dim)
    for i in range(dim):
        for j in range(dim):
            dudx[..., i, j] = (grad_Q[..., j, 1 + i] - vel[i] * grad_Q[..., j, 0]) / rho
    return dudx


def viscous_flux(Q: np.ndarray, grad_Q: np.ndarray, dim: int, gas: GasModel) -> np.ndarray:
    """Physical viscous flux (Newtonian stress, Stokes hypothesis, Fourier
    heat flux); shape (..., dim, nvars).

    The residual subtracts it from the inviscid flux, so the momentum
    component here is the stress tensor tau itself.
    """
    rho, vel, E = split_state(Q, dim)
    p = pressure(Q, dim, gas)
    T = p / (rho * gas.R)
    mu = gas.viscosity(T)
    k_cond = mu * gas.cp / gas.Pr

    dudx = velocity_gradient(Q, grad_Q, dim)
    divu = dudx[..., 0, 0]
    for i in range(1, dim):
        divu = divu + dudx[..., i, i]

    u2 = dot(vel, vel)
    G = _like(Q, dim, dim + 2)
    for kdir in range(dim):
        # dT/dx_k via chain rule on p = (gamma-1)(E - 0.5 rho |u|^2)
        ke_grad = -0.5 * u2 * grad_Q[..., kdir, 0]
        for i in range(dim):
            ke_grad = ke_grad + vel[i] * grad_Q[..., kdir, 1 + i]
        dp = (gas.gamma - 1.0) * (grad_Q[..., kdir, 1 + dim] - ke_grad)
        dT = (dp * rho - p * grad_Q[..., kdir, 0]) / (rho * rho * gas.R)
        G[..., kdir, 0] = 0.0 * rho
        tau = []
        for i in range(dim):
            t = mu * (dudx[..., i, kdir] + dudx[..., kdir, i])
            if i == kdir:
                t = t - (2.0 / 3.0) * mu * divu
            G[..., kdir, 1 + i] = t
            tau.append(t)
        G[..., kdir, 1 + dim] = dot(tau, vel) + k_cond * dT
    return G


def ldg_switch(n: np.ndarray) -> np.ndarray:
    """Fixed global upwind side for LDG: sign of n . g, ties toward +1."""
    g = LDG_SWITCH_VECTOR[: n.shape[-1]]
    s = np.sum(n * g, axis=-1)
    return np.where(s >= 0.0, 1.0, -1.0)


def _per_point(value, like: np.ndarray):
    """Normalize a scalar / (n,) / (n,1) coefficient to broadcast with one
    component ``like[..., k]`` of a (n, nvars) state array."""
    v = np.asarray(value)
    return v[..., 0] if v.ndim == like.ndim else v


def ldg_interface(QL, QR, grad_L, grad_R, n, beta: float, tau,
                  dim: int, gas: GasModel, switch=None):
    """LDG common solution and common normal viscous flux.

    The common solution upwinds by beta toward the switch side; the viscous
    flux downwinds by the same amount and adds the penalty tau*(QR - QL)
    (dissipative with the residual's sign convention).
    """
    if switch is None:
        switch = ldg_switch(n)
    sw = _per_point(switch, QL)
    taup = _per_point(tau, QL)
    nc = components(n, dim)
    GLn = normal_component(viscous_flux(QL, grad_L, dim, gas), nc)
    GRn = normal_component(viscous_flux(QR, grad_R, dim, gas), nc)
    Qstar, Gstar = np.empty_like(QL), np.empty_like(QL)
    bsw = beta * sw
    for k in range(dim + 2):
        Qstar[..., k] = 0.5 * (QL[..., k] + QR[..., k]) - bsw * (QR[..., k] - QL[..., k])
        Gstar[..., k] = (0.5 * (GLn[..., k] + GRn[..., k]) + bsw * (GRn[..., k] - GLn[..., k])
                         + taup * (QR[..., k] - QL[..., k]))
    return Qstar, Gstar


@dataclass
class BoundarySpec:
    """One boundary patch treatment."""

    patch: str
    kind: str  # riemann-inflow|outflow|noslip-isothermal|adiabatic|slip|periodic|sponge-ref|prescribed
    total_temperature: float = 0.0
    total_pressure: float = 0.0
    direction: Optional[np.ndarray] = None
    static_pressure: float = 0.0
    wall_temperature: float = 0.0
    wall_velocity: Optional[np.ndarray] = None
    translation: Optional[np.ndarray] = None
    partner: str = ""
    reference_state: Optional[np.ndarray] = None
    state_fn: Optional[Callable] = None  # prescribed: x -> Q

    def __post_init__(self):
        kinds = {"riemann-inflow", "outflow", "noslip-isothermal", "adiabatic",
                 "slip", "periodic", "sponge-ref", "prescribed"}
        if self.kind not in kinds:
            raise ConfigError(f"unknown boundary kind {self.kind!r}")


class BoundaryDiagnostics:
    """Flags raised while applying boundary conditions."""

    def __init__(self):
        self.reversed_supersonic_inflow = 0


def apply_boundary(spec: BoundarySpec, Q_int: np.ndarray, n: np.ndarray,
                   dim: int, gas: GasModel, x: Optional[np.ndarray] = None,
                   diag: Optional[BoundaryDiagnostics] = None) -> np.ndarray:
    """Ghost state enforcing the condition weakly through the interface
    flux.  ``n`` is the outward unit normal of the interior element."""
    rho, vel, E = split_state(Q_int, dim)
    p = pressure(Q_int, dim, gas)
    nc = components(n, dim)
    kind = spec.kind

    if kind == "slip":
        un2 = 2.0 * dot(vel, nc)
        return conserved(rho, np.stack([u - un2 * ni for u, ni in zip(vel, nc)], axis=-1),
                         p, gas)

    if kind in ("noslip-isothermal", "adiabatic"):
        wall_v = spec.wall_velocity if spec.wall_velocity is not None else np.zeros(dim)
        vg = np.stack([w - u for w, u in zip(2.0 * wall_v, vel)], axis=-1)
        T_int = p / (rho * gas.R)
        if kind == "noslip-isothermal":
            Tg = _vmax(2.0 * spec.wall_temperature - T_int, 0.05 * spec.wall_temperature)
        else:
            Tg = T_int
        rg = p / (gas.R * Tg)
        return conserved(rg, vg, p, gas)

    if kind == "outflow":
        c = np.sqrt(gas.gamma * p / rho)
        un = dot(vel, nc)
        supersonic = un / c >= 1.0
        pg = np.where(supersonic, p, spec.static_pressure)
        return conserved(rho, np.stack(vel, axis=-1), pg, gas)

    if kind == "riemann-inflow":
        d = np.asarray(spec.direction, dtype=float)
        d = d / np.sqrt(np.sum(d * d))
        gamma = gas.gamma
        ratio = spec.total_pressure / _vmax(p, 1e-12 * spec.total_pressure)
        m2 = (ratio ** ((gamma - 1.0) / gamma) - 1.0) * 2.0 / (gamma - 1.0)
        m2 = _vmax(m2, 0.0)
        if diag is not None:
            un = dot(vel, nc)
            c = np.sqrt(gamma * p / rho)
            rev = np.asarray((un / c) < -1.0)
            diag.reversed_supersonic_inflow += int(np.sum(rev))
        T = spec.total_temperature / (1.0 + 0.5 * (gamma - 1.0) * m2)
        c = np.sqrt(gamma * gas.R * T)
        speed = np.sqrt(m2) * c
        vg = speed[..., None] * d
        rg = p / (gas.R * T)
        return conserved(rg, vg, p, gas)

    if kind == "sponge-ref":
        ref = np.asarray(spec.reference_state, dtype=float)
        return np.broadcast_to(ref, Q_int.shape).copy()

    if kind == "prescribed":
        if spec.state_fn is None or x is None:
            raise ConfigError("prescribed boundary needs a state function and coordinates")
        return spec.state_fn(x)

    raise ConfigError(f"boundary kind {kind!r} has no ghost-state rule (periodic "
                      "patches are resolved during mesh preparation)")


@dataclass
class SpongeZone:
    """Axis-aligned damping slab relaxing the state toward a reference."""

    axis: int
    lo: float
    hi: float
    ramp_width: float
    strength: float
    reference_state: np.ndarray
    from_side: str = "lo"  # slab edge facing the interior, where the ramp starts

    def sigma(self, x: np.ndarray) -> np.ndarray:
        """Smooth quintic ramp, zero outside the slab, sigma0 deep inside."""
        xi = x[..., self.axis]
        inside = (xi >= self.lo) & (xi <= self.hi)
        d = (xi - self.lo) if self.from_side == "lo" else (self.hi - xi)
        r = d / self.ramp_width
        r = _vmin(_vmax(r, 0.0), 1.0)
        ramp = r * r * r * (10.0 - 15.0 * r + 6.0 * r * r)
        return np.where(inside, self.strength * ramp, 0.0)


def sponge_source(Q: np.ndarray, zone: SpongeZone, x: np.ndarray) -> np.ndarray:
    """S = -sigma(x) (Q - Q_ref)."""
    neg_sig = -zone.sigma(x)
    S = np.empty_like(Q)
    for k in range(Q.shape[-1]):
        S[..., k] = neg_sig * (Q[..., k] - zone.reference_state[k])
    return S


def isentropic_mach(p, p0_ref: float, gas: GasModel):
    """Mach number implied by local static and reference total pressure."""
    gamma = gas.gamma
    return np.sqrt(
        _vmax((p0_ref / p) ** ((gamma - 1.0) / gamma) - 1.0, 0.0) * 2.0 / (gamma - 1.0)
    )


def q_criterion(dudx: np.ndarray, dim: int) -> np.ndarray:
    """Second invariant of the velocity gradient (vortex indicator)."""
    S2 = 0.0
    W2 = 0.0
    for i in range(dim):
        for j in range(dim):
            s = 0.5 * (dudx[..., i, j] + dudx[..., j, i])
            w = 0.5 * (dudx[..., i, j] - dudx[..., j, i])
            S2 = S2 + s * s
            W2 = W2 + w * w
    return 0.5 * (W2 - S2)
