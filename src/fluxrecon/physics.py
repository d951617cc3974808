"""Compressible Navier-Stokes physics: fluxes, Riemann solvers, LDG
interface treatment, boundary ghost states, and sponge-zone sources.

All point-wise kernels are written with element-wise numpy operations only
(no BLAS/einsum), so they run unchanged on object arrays of instrumented
scalars.  The solver's passes call them, and the FLOP census
(``perf.census_pointwise``) runs the same function for each ledger kernel:
``transformed_flux`` :func:`transformed_flux`, ``transformed_ns_flux`` the
same with the gradients, ``grad_transform`` :func:`transform`,
``riemann_rusanov``/``riemann_hllc`` :func:`riemann_flux`,
``viscous_interface`` :func:`ldg_interface`, ``viscous_wall``
:func:`wall_flux`, ``ghost_<kind>`` :func:`apply_boundary` and
``sponge_source`` :func:`sponge_sum`.  (The LDG common solution is a
gather in the solver, not a kernel here.)  State vectors are ordered
``[rho, rho*u_0 .. rho*u_{d-1}, E]``.  The fluxes split a state once:
:func:`primitives` gives rho, the velocity, E and the pressure together,
which :func:`transformed_flux`, :func:`inviscid_flux`,
:func:`viscous_flux` and :func:`check_positivity` also accept from the
caller (so the solver's volume pass splits each block once for its flux,
its positivity check and its signal speeds :func:`signal_speed`).  HLLC
forms each side's ``u.n``, sound speed and normal flux once from them;
Rusanov forms its common flux per variable in one pass from the states,
without either side's flux vector.  One helper forms the viscous stress
and heat flux for :func:`viscous_flux` and :func:`transformed_flux`
alike.

Layout contract.  Every function indexes its arrays as ``(..., nv)``
(fluxes and gradients ``(..., d, nv)``, normals ``(..., d)``) and accepts
any strides.  The bodies work one component at a time (``Q[..., k]``) and
never on whole ``(..., nv)`` blocks.  The solver keeps every buffer
variable-major and passes transposed views of it: a volume pass hands
``(n, Ns, nv)`` (flux and gradient ``(n, Ns, d, nv)``) views of an element
block, whose components are contiguous ``(n, Ns)`` rows, and a pair pass
hands ``(m, nv)`` views of gathered ``(nv, m)`` rows.  So each component
is one contiguous row, and no strided column or transposing copy is made.
:func:`transform` and :func:`transformed_flux` take their matrix as rows
of entries the same way: the solver passes its ``(d, d, n, Ns)`` metric
rows, one contiguous row per entry.  Outputs follow the input's layout: a
variable-major input gives a variable-major result (see ``_like``).
``transformed_flux``, ``inviscid_flux`` and ``viscous_flux`` also take
``out=``, a buffer of any strides to write the flux into.  The solver
passes a view of its block scratch ``Fhat_upts``, so the volume flux,
inviscid or viscous, is written in reference space where the divergence
reads it instead of being built C-ordered and copied back.  Component sums
run in index order (``(a0 + a1) + a2``), the order numpy's sum over a
length-d axis uses, so results do not depend on the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, PositivityError, check_range

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
        rules = [("gamma", 1.0, True), ("R", 0.0, True), ("Pr", 0.0, True), ("mu", 0.0, False)]
        if self.sutherland:
            rules += [("mu_ref", 0.0, True), ("T_ref", 0.0, True), ("S", 0.0, False)]
        for name, lo, strict in rules:
            check_range(f"gas.{name}", getattr(self, name), lo, strict)

    @property
    def cp(self) -> float:
        return self.gamma * self.R / (self.gamma - 1.0)

    def viscosity(self, T):
        """mu at temperature T: the constant ``mu`` as a scalar unless
        ``sutherland``, else Sutherland's law point by point."""
        if not self.sutherland:
            return self.mu
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


def transform(M, v) -> list:
    """Point-wise matrix times vector: ``[dot(M[k], v) for k]``, where ``M``
    is a sequence of rows of matrix entries and ``v`` a sequence of
    components (a Jacobian transform of the d flux or gradient rows)."""
    return [dot(row, v) for row in M]


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


def primitives(Q: np.ndarray, dim: int, gas: GasModel):
    """rho, the velocity components ``[u_0 .. u_{d-1}]``, E and the
    pressure from conserved variables, with one split of the state."""
    rho, vel, E = split_state(Q, dim)
    ke = 0.5 * rho * dot(vel, vel)
    return rho, vel, E, (gas.gamma - 1.0) * (E - ke)


def pressure(Q: np.ndarray, dim: int, gas: GasModel):
    return primitives(Q, dim, gas)[3]


def sound_speed(Q: np.ndarray, dim: int, gas: GasModel):
    return np.sqrt(gas.gamma * pressure(Q, dim, gas) / Q[..., 0])


def signal_speed(prim, gas: GasModel):
    """``|u| + c`` from a state's :func:`primitives`."""
    rho, vel, _, p = prim
    return np.sqrt(dot(vel, vel)) + np.sqrt(gas.gamma * p / rho)


def check_positivity(Q: np.ndarray, dim: int, gas: GasModel, cell_of_point=None,
                     prim=None):
    """Raise PositivityError naming the first offending cell, if any: a
    point whose rho or p is not positive (NaN included), the point index
    counted over Q's leading axes.  ``prim`` is Q's :func:`primitives`, if
    the caller has them."""
    rho, _, _, p = primitives(Q, dim, gas) if prim is None else prim
    ok = np.asarray((rho > 0.0) & (p > 0.0))
    if not ok.all():
        idx = int(np.argmin(ok.reshape(-1)))
        cell = -1 if cell_of_point is None else int(cell_of_point(idx))
        raise PositivityError(cell, f"rho or p non-positive at point {idx}")


def conserved(rho, vel, p, gas: GasModel) -> np.ndarray:
    """Assemble conserved variables from primitives.  Object arrays stay
    object arrays, so the operation census counts the assembly."""
    rho, vel, p = np.asarray(rho), np.asarray(vel), np.asarray(p)
    E = p / (gas.gamma - 1.0) + 0.5 * rho * np.sum(vel * vel, axis=-1)
    return np.concatenate(
        [rho[..., None], rho[..., None] * vel, E[..., None]], axis=-1
    )


def inviscid_flux(Q: np.ndarray, dim: int, gas: GasModel,
                  out: Optional[np.ndarray] = None, prim=None) -> np.ndarray:
    """Euler flux: shape (..., dim, nvars), written into ``out`` if given.
    ``prim`` is Q's :func:`primitives`, if the caller has them."""
    rho, vel, E, p = primitives(Q, dim, gas) if prim is None else prim
    F = _like(Q, dim, dim + 2) if out is None else out
    Ep = E + p
    for k in range(dim):
        uk = vel[k]
        ruk = rho * uk
        F[..., k, 0] = ruk
        for i in range(dim):
            m = ruk * vel[i]
            F[..., k, 1 + i] = m + p if i == k else m
        F[..., k, 1 + dim] = uk * Ep
    return F


def transformed_flux(Q: np.ndarray, M, dim: int, gas: GasModel,
                     out: Optional[np.ndarray] = None, prim=None,
                     grad: Optional[np.ndarray] = None) -> np.ndarray:
    """Euler flux in reference space, ``Fhat[k] = sum_l M[k][l] F[l]``, in
    one pass: with the contravariant velocity ``U_k = sum_l M[k][l] u_l``,
    ``Fhat_k = [rho U_k, rho u_i U_k + p M[k][i], U_k (E + p)]`` (Witherden,
    Farrington & Vincent, CPC 185, 2014).  With the conserved gradients
    ``grad`` (..., dim, nvars), the Navier-Stokes flux: each row also
    subtracts ``sum_l M[k][l] G_l`` of the viscous flux G (see
    :func:`viscous_flux`).  ``M`` is a sequence of rows of matrix entries,
    as :func:`transform` takes it.  Shape (..., dim, nvars), written into
    ``out`` if given; ``prim`` is Q's :func:`primitives`, if the caller has
    them."""
    rho, vel, E, p = primitives(Q, dim, gas) if prim is None else prim
    F = _like(Q, dim, dim + 2) if out is None else out
    Ep = E + p
    if grad is not None:
        tau, q = _stress_and_heat_flux(rho, vel, p, grad, gas)
    for k in range(dim):
        Uk = dot(M[k], vel)
        F[..., k, 0] = rho * Uk
        for i in range(dim):
            f = Q[..., 1 + i] * Uk + p * M[k][i]
            F[..., k, 1 + i] = f if grad is None else f - dot(M[k], [t[i] for t in tau])
        F[..., k, 1 + dim] = Uk * Ep if grad is None else Uk * Ep - dot(M[k], q)
    return F


def _flux_along(rho, vel, E, p, un, nc, out):
    """Euler flux along a unit normal (components ``nc``) from the
    primitives and ``un = u.n``, written into ``out`` (..., nvars)."""
    dim = len(vel)
    run = rho * un
    out[..., 0] = run
    for i in range(dim):
        out[..., 1 + i] = run * vel[i] + p * nc[i]
    out[..., 1 + dim] = un * (E + p)
    return out


def normal_flux(Q: np.ndarray, n: np.ndarray, dim: int, gas: GasModel) -> np.ndarray:
    """Euler flux dotted with a unit normal: shape (..., nvars)."""
    rho, vel, E, p = primitives(Q, dim, gas)
    nc = components(n, dim)
    return _flux_along(rho, vel, E, p, dot(vel, nc), nc, np.empty_like(Q))


class RiemannDiagnostics:
    """Counts HLLC fallbacks to rusanov."""

    def __init__(self):
        self.hllc_fallbacks = 0


def rusanov_flux(QL, QR, n, dim: int, gas: GasModel):
    """Local Lax-Friedrichs flux, the mean normal flux minus ``h``, half the
    larger signal speed ``|u.n| + c`` of the two sides, times the state
    jump, formed per variable in one pass: ``F_k = (u_n^L/2 + h) Q_k^L +
    (u_n^R/2 - h) Q_k^R``, plus ``(p^L + p^R)/2 n_i`` on momentum i and
    ``u_n^L/2 p^L + u_n^R/2 p^R`` on energy.  Each side's ``u.n`` is
    ``(m.n)/rho`` and its pressure takes ``|u|^2`` as ``|m|^2/rho``, so
    neither side's flux vector is formed (the point-wise form of Witherden,
    Farrington & Vincent, CPC 185, 2014)."""
    nc = components(n, dim)
    half_un, lam, p = [], [], []
    for Q in (QL, QR):
        rho = Q[..., 0]
        mom = [Q[..., 1 + i] for i in range(dim)]
        un = dot(mom, nc)
        un /= rho
        pk = dot(mom, mom)                    # |m|^2 / 2 / rho, then p
        pk *= 0.5
        pk /= rho
        np.subtract(Q[..., 1 + dim], pk, out=pk)
        pk *= gas.gamma - 1.0
        c = gas.gamma * pk                    # c, then |u.n| + c
        c /= rho
        np.sqrt(c, out=c)
        c += np.abs(un)
        un *= 0.5
        half_un.append(un)
        lam.append(c)
        p.append(pk)
    h = _vmax(*lam)
    h *= 0.5
    wL = half_un[0] + h
    wR = np.subtract(half_un[1], h, out=h)
    F = np.empty_like(QL)
    for k in range(dim + 2):
        f = F[..., k]
        np.multiply(wL, QL[..., k], out=f)
        f += wR * QR[..., k]
    p_mean = p[0] + p[1]
    p_mean *= 0.5
    for i in range(dim):
        F[..., 1 + i] += p_mean * nc[i]
    e = half_un[0] * p[0]
    e += half_un[1] * p[1]
    F[..., 1 + dim] += e
    return F


def hllc_flux(QL, QR, n, dim: int, gas: GasModel,
              diag: Optional[RiemannDiagnostics] = None):
    """HLLC with Davis wave-speed estimates; falls back to rusanov where
    the star-region construction degenerates."""
    rhoL, velL, EL, pL = primitives(QL, dim, gas)
    rhoR, velR, ER, pR = primitives(QR, dim, gas)
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

    FL = _flux_along(rhoL, velL, EL, pL, unL, nc, np.empty_like(QL))
    FR = _flux_along(rhoR, velR, ER, pR, unR, nc, np.empty_like(QR))

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
        F[degenerate] = rusanov_flux(QL[degenerate], QR[degenerate], n[degenerate], dim, gas)
    return F


RIEMANN_SOLVERS = ("rusanov", "hllc")


def riemann_flux(QL, QR, n, dim: int, gas: GasModel, solver: str = "rusanov",
                 diag: Optional[RiemannDiagnostics] = None):
    """Common normal flux from two interface states and a unit normal."""
    if solver == "rusanov":
        return rusanov_flux(QL, QR, n, dim, gas)
    if solver == "hllc":
        return hllc_flux(QL, QR, n, dim, gas, diag)
    raise ConfigError(f"unknown riemann solver {solver!r}")


def velocity_gradient(rho, vel, grad_Q: np.ndarray):
    """du_i/dx_j from rho, the velocity components and the conserved
    gradients grad_Q (..., dim, nvars); laid out like ``grad_Q[..., 0, :]``."""
    dim = len(vel)
    dudx = _like(grad_Q[..., 0, :], dim, dim)
    for i in range(dim):
        for j in range(dim):
            dudx[..., i, j] = (grad_Q[..., j, 1 + i] - vel[i] * grad_Q[..., j, 0]) / rho
    return dudx


def _stress_and_heat_flux(rho, vel, p, grad_Q: np.ndarray, gas: GasModel):
    """The viscous stress tensor ``tau[l][i]`` (Newtonian, Stokes
    hypothesis) and the energy component of the viscous flux along each
    axis, ``q[l] = tau[l] . u + kappa dT/dx_l`` (stress work and Fourier
    heat flux), from the primitives and the conserved gradients grad_Q
    (..., dim, nvars)."""
    dim = len(vel)
    T = p / (rho * gas.R)
    mu = gas.viscosity(T)
    k_cond = mu * gas.cp / gas.Pr

    dudx = velocity_gradient(rho, vel, grad_Q)
    divu = dudx[..., 0, 0]
    for i in range(1, dim):
        divu = divu + dudx[..., i, i]
    # the stress tensor is symmetric: form each entry once
    tau = [[None] * dim for _ in range(dim)]
    for k in range(dim):
        for i in range(k, dim):
            t = mu * (dudx[..., i, k] + dudx[..., k, i])
            if i == k:
                t = t - (2.0 / 3.0) * mu * divu
            tau[k][i] = tau[i][k] = t

    u2 = dot(vel, vel)
    rho2R = rho * rho * gas.R
    q = []
    for kdir in range(dim):
        # dT/dx_k via chain rule on p = (gamma-1)(E - 0.5 rho |u|^2)
        ke_grad = -0.5 * u2 * grad_Q[..., kdir, 0]
        for i in range(dim):
            ke_grad = ke_grad + vel[i] * grad_Q[..., kdir, 1 + i]
        dp = (gas.gamma - 1.0) * (grad_Q[..., kdir, 1 + dim] - ke_grad)
        dT = (dp * rho - p * grad_Q[..., kdir, 0]) / rho2R
        q.append(dot(tau[kdir], vel) + k_cond * dT)
    return tau, q


def viscous_flux(Q: np.ndarray, grad_Q: np.ndarray, dim: int, gas: GasModel,
                 out: Optional[np.ndarray] = None, prim=None) -> np.ndarray:
    """Physical viscous flux (Newtonian stress, Stokes hypothesis, Fourier
    heat flux); shape (..., dim, nvars), written into ``out`` if given.
    ``prim`` is Q's :func:`primitives`, if the caller has them.

    The residual subtracts it from the inviscid flux, so the momentum
    component here is the stress tensor tau itself.
    """
    rho, vel, E, p = primitives(Q, dim, gas) if prim is None else prim
    tau, q = _stress_and_heat_flux(rho, vel, p, grad_Q, gas)
    G = _like(Q, dim, dim + 2) if out is None else out
    G[..., 0] = 0.0
    for kdir in range(dim):
        for i in range(dim):
            G[..., kdir, 1 + i] = tau[kdir][i]
        G[..., kdir, 1 + dim] = q[kdir]
    return G


def ldg_switch(n: np.ndarray) -> np.ndarray:
    """Fixed global upwind side for LDG: sign of n . g, ties toward +1."""
    g = LDG_SWITCH_VECTOR[: n.shape[-1]]
    s = np.sum(n * g, axis=-1)
    return np.where(s >= 0.0, 1.0, -1.0)


def _add_penalty(Gn, tau, QL, QR):
    """``Gn += tau * (QR - QL)`` per component, with tau a scalar or one
    value per point ((n,) or (n, 1)): the LDG penalty, dissipative with the
    residual's sign convention."""
    taup = np.asarray(tau)
    taup = taup[..., 0] if taup.ndim == QL.ndim else taup
    for k in range(Gn.shape[-1]):
        Gn[..., k] = Gn[..., k] + taup * (QR[..., k] - QL[..., k])
    return Gn


def ldg_interface(Q, grad, QL, QR, n, tau, dim: int, gas: GasModel):
    """LDG common normal viscous flux of an interface pair (QL, QR).

    With the upwinding beta = 1/2 that the solver uses, the LDG flux of
    Cockburn & Shu is one side's normal viscous flux: the state ``Q`` and
    gradient ``grad`` are those of the side the switch selects (the right
    side where :func:`ldg_switch` is positive, else the left), and the
    common solution is the other side's state.  The penalty
    tau*(QR - QL) is added.
    """
    Gn = normal_component(viscous_flux(Q, grad, dim, gas), components(n, dim))
    return _add_penalty(Gn, tau, QL, QR)


def wall_flux(Q, ghost, grad, n, tau, dim: int, gas: GasModel, adiabatic: bool = False):
    """Viscous normal flux of a boundary pair (any kind but slip) from the
    interior and ghost states: the physical flux at their mean (on
    adiabatic walls the energy flux is the stress work alone), plus the
    penalty tau*(ghost - Q)."""
    Qb = 0.5 * (Q + ghost)
    Gn = normal_component(viscous_flux(Qb, grad, dim, gas), components(n, dim))
    if adiabatic:
        _, vel, _ = split_state(Qb, dim)
        Gn[..., 1 + dim] = dot(components(Gn[..., 1:], dim), vel)
    return _add_penalty(Gn, tau, Q, ghost)


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
        # only the fields that the kind's ghost state reads, named by their
        # config keys
        key = f"bc.{self.patch}."
        if self.kind == "riemann-inflow":
            check_range(key + "p0", self.total_pressure)
            check_range(key + "t0", self.total_temperature)
            d = np.asarray(self.direction, dtype=float)
            if not (np.isfinite(d).all() and (d != 0.0).any()):
                raise ConfigError(f"{key}direction must be finite and non-zero, "
                                  f"got {self.direction!r}")
        elif self.kind == "outflow":
            check_range(key + "p_out", self.static_pressure)
        elif self.kind == "noslip-isothermal":
            check_range(key + "t_wall", self.wall_temperature)


class BoundaryDiagnostics:
    """Flags raised while applying boundary conditions."""

    def __init__(self):
        self.reversed_supersonic_inflow = 0


def apply_boundary(spec: BoundarySpec, Q_int: np.ndarray, n: np.ndarray,
                   dim: int, gas: GasModel, x: Optional[np.ndarray] = None,
                   diag: Optional[BoundaryDiagnostics] = None) -> np.ndarray:
    """Ghost state enforcing the condition weakly through the interface
    flux.  ``n`` is the outward unit normal of the interior element."""
    kind = spec.kind
    # the kinds that never read the interior state
    if kind == "sponge-ref":
        ref = np.asarray(spec.reference_state, dtype=float)
        return np.broadcast_to(ref, Q_int.shape).copy()

    if kind == "prescribed":
        if spec.state_fn is None or x is None:
            raise ConfigError("prescribed boundary needs a state function and coordinates")
        return spec.state_fn(x)

    rho, vel, E = split_state(Q_int, dim)
    p = pressure(Q_int, dim, gas)
    nc = components(n, dim)

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

    def __post_init__(self):
        if self.from_side not in ("lo", "hi"):
            raise ConfigError(f"sponge side must be 'lo' or 'hi', got {self.from_side!r}")
        check_range("sponge ramp width", self.ramp_width)
        check_range("sponge strength", self.strength, strict=False)
        if not self.lo < self.hi:
            raise ConfigError(f"sponge lo must be below hi, got lo={self.lo!r}, hi={self.hi!r}")

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
    """S = -sigma(x) (Q - Q_ref), with the ramp evaluated at ``x``; the
    reference for the solver's :func:`sponge_sum` on precomputed ramps."""
    neg_sig = -zone.sigma(x)
    S = np.empty_like(Q)
    for k in range(Q.shape[-1]):
        S[..., k] = neg_sig * (Q[..., k] - zone.reference_state[k])
    return S


def sponge_sum(Q: np.ndarray, factors) -> np.ndarray:
    """Sum of the zones' sources ``-sigma (Q - Q_ref)`` in zone order, from
    precomputed ``(-sigma, Q_ref)`` pairs that broadcast against ``Q``."""
    S = 0.0
    for neg_sigma, ref in factors:
        S = S + neg_sigma * (Q - ref)
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
