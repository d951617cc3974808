"""Built-in meshes, initial conditions, and shipped test-case fixtures."""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import MeshError
from .mesh_core import BoundarySection, SerialMesh
from .physics import GasModel, conserved


VORTEX_BOX = 16.0
VORTEX_BETA = 2.0


def vortex_state(x: np.ndarray, t: float = 0.0, gas: Optional[GasModel] = None,
                 box: float = VORTEX_BOX, beta: float = VORTEX_BETA,
                 u_inf: Tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """Isentropic vortex advected by a uniform stream on a periodic box.

    Nondimensional: rho_inf = p_inf = T_inf = 1, R = 1.  The exact solution
    at time t is the initial field translated by u_inf t (box-wrapped).
    """
    gas = gas or GasModel(gamma=1.4, R=1.0)
    gamma = gas.gamma
    xr = x[..., 0] - u_inf[0] * t
    yr = x[..., 1] - u_inf[1] * t
    half = box / 2.0
    xr = (xr + half) % box - half
    yr = (yr + half) % box - half
    r2 = xr * xr + yr * yr
    f = beta / (2.0 * np.pi) * np.exp(0.5 * (1.0 - r2))
    u = u_inf[0] - f * yr
    v = u_inf[1] + f * xr
    T = 1.0 - (gamma - 1.0) * beta ** 2 / (8.0 * gamma * np.pi ** 2) * np.exp(1.0 - r2)
    rho = T ** (1.0 / (gamma - 1.0))
    p = rho * T
    return conserved(rho, np.stack([u, v], axis=-1), p, gas)


def vortex_mesh(n: int, box: float = VORTEX_BOX) -> SerialMesh:
    return box_mesh_2d(n, n, lengths=(box, box), origin=(-box / 2, -box / 2),
                       periodic=(True, True))


def taylor_green_state(x: np.ndarray, gas: Optional[GasModel] = None,
                       mach: float = 0.1,
                       drift: Tuple[float, float, float] = (0.0, 0.0, 0.0)) -> np.ndarray:
    """Smooth periodic 3-D field on [0, 2pi]^3 (Taylor-Green-like).

    ``drift`` superposes a uniform mean flow so all conserved totals are
    nonzero (useful for relative-drift conservation checks).
    """
    gas = gas or GasModel(gamma=1.4, R=1.0)
    p0 = 1.0 / (gas.gamma * mach * mach)
    u = drift[0] + np.sin(x[..., 0]) * np.cos(x[..., 1]) * np.cos(x[..., 2])
    v = drift[1] - np.cos(x[..., 0]) * np.sin(x[..., 1]) * np.cos(x[..., 2])
    w = drift[2] + np.zeros_like(u)
    p = p0 + (np.cos(2 * x[..., 0]) + np.cos(2 * x[..., 1])) * (np.cos(2 * x[..., 2]) + 2.0) / 16.0
    rho = np.ones_like(u)
    return conserved(rho, np.stack([u, v, w], axis=-1), p, gas)


def taylor_green_mesh(n: int) -> SerialMesh:
    L = 2.0 * np.pi
    return box_mesh_3d(n, n, n, lengths=(L, L, L), periodic=(True, True, True))


def sod_state(x: np.ndarray, gas: Optional[GasModel] = None) -> np.ndarray:
    """Sod shock-tube initial data on [0, 1], diaphragm at 0.5."""
    gas = gas or GasModel(gamma=1.4, R=1.0)
    left = x[..., 0] < 0.5
    rho = np.where(left, 1.0, 0.125)
    p = np.where(left, 1.0, 0.1)
    vel = np.zeros(x.shape[:-1] + (2,))
    return conserved(rho, vel, p, gas)


def sod_mesh(nx: int = 200) -> SerialMesh:
    """Quasi-1-D strip: nx cells along x, one periodic cell across."""
    return box_mesh_2d(nx, 1, lengths=(1.0, 1.0 / nx), periodic=(False, True))


# ---------------------------------------------------------------------------
# linear-cascade toy (flat-plate blade at stagger)
# ---------------------------------------------------------------------------

LS89_TABLE = {
    "chord_m": 0.067647,
    "pitch_per_chord": 0.85,
    "stagger_deg": 55.0,
    "mach_exit": 0.84,
    "mach_inlet": 0.15,
    "reynolds": 0.57e6,
}


def cascade_mesh_2d(nx: int = 24, ny: int = 8) -> SerialMesh:
    """Coarse 2-D linear-cascade stand-in: a sheared channel whose middle
    third of the lower/upper boundaries is a flat-plate blade at the
    stagger angle; the rest is pitch-periodic.  nx must be divisible by 3.
    """
    if nx % 3:
        raise MeshError("cascade mesh needs nx divisible by 3")
    chord = LS89_TABLE["chord_m"]
    stagger = math.radians(LS89_TABLE["stagger_deg"])
    pitch = LS89_TABLE["pitch_per_chord"] * chord
    cx = chord * math.cos(stagger)  # axial chord of the flat plate
    length = 3.0 * cx
    base = box_mesh_2d(nx, ny, lengths=(length, pitch))
    # shear the frame so blade segments lie along the stagger direction
    sheared = base.vertices.copy()
    sheared[:, 1] += np.tan(stagger) * sheared[:, 0]

    nvx = nx + 1

    def vid(i, j):
        return i + nvx * j

    third = nx // 3
    lower_per, lower_blade = [], []
    upper_per, upper_blade = [], []
    for i in range(nx):
        lo = (vid(i, 0), vid(i + 1, 0))
        hi = (vid(i, ny), vid(i + 1, ny))
        if third <= i < 2 * third:
            lower_blade.append(lo)
            upper_blade.append(hi)
        else:
            lower_per.append(lo)
            upper_per.append(hi)
    sections = [
        BoundarySection(0, "inlet", [(vid(0, j), vid(0, j + 1)) for j in range(ny)]),
        BoundarySection(1, "outlet", [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)]),
        BoundarySection(2, "blade", lower_blade + upper_blade),
        BoundarySection(3, "per_lo", lower_per),
        BoundarySection(4, "per_hi", upper_per),
    ]
    return SerialMesh(dim=2, vertices=sheared, cells=base.cells,
                      boundary_sections=sections, vertex_alias=None)


# ---------------------------------------------------------------------------
# shipped fixtures: mesh + config files
# ---------------------------------------------------------------------------

FIXTURE_CASES = ("vortex", "tgv", "sod", "ls89-2d")


def _vortex_config(n: int) -> str:
    return "\n".join([
        "# convecting isentropic vortex on a doubly periodic box",
        "gas.gamma = 1.4",
        "gas.R = 1.0",
        "solver.p = 3",
        "solver.cfl = 0.4",
        "solver.riemann = rusanov",
        "init.case = vortex",
        f"init.beta = {VORTEX_BETA}",
        f"init.box = {VORTEX_BOX}",
        "bc.xmin.kind = periodic",
        "bc.xmin.partner = xmax",
        f"bc.xmin.translation = {-VORTEX_BOX} 0",
        "bc.xmax.kind = periodic",
        "bc.xmax.partner = xmin",
        f"bc.xmax.translation = {VORTEX_BOX} 0",
        "bc.ymin.kind = periodic",
        "bc.ymin.partner = ymax",
        f"bc.ymin.translation = 0 {-VORTEX_BOX}",
        "bc.ymax.kind = periodic",
        "bc.ymax.partner = ymin",
        f"bc.ymax.translation = 0 {VORTEX_BOX}",
        "",
    ])


def _tgv_config() -> str:
    L = 2.0 * math.pi
    return "\n".join([
        "# Taylor-Green-like smooth periodic 3-D field, Re 1600, Mach 0.1",
        "gas.gamma = 1.4",
        "gas.R = 1.0",
        "gas.Pr = 0.72",
        f"gas.mu = {1.0 / 1600.0}",
        "solver.p = 3",
        "solver.cfl = 0.3",
        "solver.viscous = true",
        "init.case = tgv",
        "init.mach = 0.1",
        "bc.xmin.kind = periodic",
        "bc.xmin.partner = xmax",
        f"bc.xmin.translation = {-L} 0 0",
        "bc.xmax.kind = periodic",
        "bc.xmax.partner = xmin",
        f"bc.xmax.translation = {L} 0 0",
        "bc.ymin.kind = periodic",
        "bc.ymin.partner = ymax",
        f"bc.ymin.translation = 0 {-L} 0",
        "bc.ymax.kind = periodic",
        "bc.ymax.partner = ymin",
        f"bc.ymax.translation = 0 {L} 0",
        "bc.zmin.kind = periodic",
        "bc.zmin.partner = zmax",
        f"bc.zmin.translation = 0 0 {-L}",
        "bc.zmax.kind = periodic",
        "bc.zmax.partner = zmin",
        f"bc.zmax.translation = 0 0 {L}",
        "",
    ])


def _sod_config(nx: int) -> str:
    return "\n".join([
        "# Sod shock tube as a quasi-1-D periodic strip",
        "gas.gamma = 1.4",
        "gas.R = 1.0",
        "solver.p = 2",
        "solver.cfl = 0.4",
        "solver.riemann = rusanov",
        "init.case = sod",
        "bc.xmin.kind = slip",
        "bc.xmax.kind = slip",
        "bc.ymin.kind = periodic",
        "bc.ymin.partner = ymax",
        f"bc.ymin.translation = 0 {-1.0 / nx}",
        "bc.ymax.kind = periodic",
        "bc.ymax.partner = ymin",
        f"bc.ymax.translation = 0 {1.0 / nx}",
        "",
    ])


def _ls89_config() -> str:
    """Cascade operating point; the case.* block carries the published
    geometry/flow table verbatim, the bc values are derived from it."""
    gamma = 1.4
    p_exit = 101325.0
    m_exit = LS89_TABLE["mach_exit"]
    m_in = LS89_TABLE["mach_inlet"]
    p0 = p_exit * (1 + 0.5 * (gamma - 1) * m_exit ** 2) ** (gamma / (gamma - 1))
    t0 = 420.0
    chord = LS89_TABLE["chord_m"]
    pitch = LS89_TABLE["pitch_per_chord"] * chord
    stagger = math.radians(LS89_TABLE["stagger_deg"])
    cx = chord * math.cos(stagger)
    length = 3.0 * cx
    # sponge reference: the inlet static state
    t_in = t0 / (1 + 0.5 * (gamma - 1) * m_in ** 2)
    p_in = p0 / (1 + 0.5 * (gamma - 1) * m_in ** 2) ** (gamma / (gamma - 1))
    rho_in = p_in / (287.0 * t_in)
    u_in = m_in * math.sqrt(gamma * 287.0 * t_in)
    E_in = p_in / (gamma - 1) + 0.5 * rho_in * u_in ** 2
    ref = f"{rho_in:.10g} {rho_in * u_in:.10g} 0 {E_in:.10g}"
    return "\n".join([
        "# linear-cascade toy fixture; case.* holds the published table",
        f"case.chord_m = {LS89_TABLE['chord_m']}",
        f"case.pitch_per_chord = {LS89_TABLE['pitch_per_chord']}",
        f"case.stagger_deg = {LS89_TABLE['stagger_deg']}",
        f"case.mach_exit = {LS89_TABLE['mach_exit']}",
        f"case.mach_inlet = {LS89_TABLE['mach_inlet']}",
        f"case.reynolds = {LS89_TABLE['reynolds']}",
        "gas.gamma = 1.4",
        "gas.R = 287.0",
        "solver.p = 2",
        "solver.cfl = 0.4",
        "init.case = uniform",
        f"init.state = {ref}",
        "bc.inlet.kind = riemann-inflow",
        f"bc.inlet.p0 = {p0:.10g}",
        f"bc.inlet.t0 = {t0}",
        "bc.inlet.direction = 1 0",
        "bc.outlet.kind = outflow",
        f"bc.outlet.p_out = {p_exit}",
        "bc.blade.kind = slip",
        "bc.per_lo.kind = periodic",
        "bc.per_lo.partner = per_hi",
        f"bc.per_lo.translation = 0 {-pitch:.10g}",
        "bc.per_hi.kind = periodic",
        "bc.per_hi.partner = per_lo",
        f"bc.per_hi.translation = 0 {pitch:.10g}",
        "sponge.inlet.axis = 0",
        "sponge.inlet.lo = 0",
        f"sponge.inlet.hi = {0.5 * cx:.10g}",
        f"sponge.inlet.width = {0.5 * cx:.10g}",
        "sponge.inlet.strength = 50.0",
        f"sponge.inlet.ref = {ref}",
        "sponge.inlet.side = hi",
        f"sponge.outlet.axis = 0",
        f"sponge.outlet.lo = {length - 0.5 * cx:.10g}",
        f"sponge.outlet.hi = {length:.10g}",
        f"sponge.outlet.width = {0.5 * cx:.10g}",
        "sponge.outlet.strength = 50.0",
        f"sponge.outlet.ref = {ref}",
        "sponge.outlet.side = lo",
        f"output.p0_ref = {p0:.10g}",
        "",
    ])


def initial_state_fn(cfg, gas: GasModel):
    """Initial-condition callback (x -> conserved rows) from config keys."""
    case = cfg.get_str("init.case", "uniform")
    if case == "vortex":
        beta = cfg.get_float("init.beta", VORTEX_BETA)
        box = cfg.get_float("init.box", VORTEX_BOX)
        return lambda x: vortex_state(x, 0.0, gas, box=box, beta=beta)
    if case == "tgv":
        mach = cfg.get_float("init.mach", 0.1)
        return lambda x: taylor_green_state(x, gas, mach=mach)
    if case == "sod":
        return lambda x: sod_state(x, gas)
    if case == "uniform":
        state = cfg.get_vec("init.state")
        return lambda x: np.broadcast_to(state, x.shape[:-1] + state.shape).copy()
    raise MeshError(f"unknown init.case {case!r}")


def make_fixture(case: str, outdir: str, size: Optional[int] = None):
    """Write <case>.msh and <case>.cfg into outdir; returns both paths."""
    import os
    from .io.gmsh import write_gmsh_ascii

    os.makedirs(outdir, exist_ok=True)
    if case == "vortex":
        n = size or 24
        mesh = box_mesh_2d(n, n, lengths=(VORTEX_BOX, VORTEX_BOX),
                           origin=(-VORTEX_BOX / 2, -VORTEX_BOX / 2))
        config = _vortex_config(n)
    elif case == "tgv":
        n = size or 4
        L = 2.0 * math.pi
        mesh = box_mesh_3d(n, n, n, lengths=(L, L, L))
        config = _tgv_config()
    elif case == "sod":
        n = size or 200
        mesh = box_mesh_2d(n, 1, lengths=(1.0, 1.0 / n))
        config = _sod_config(n)
    elif case == "ls89-2d":
        mesh = cascade_mesh_2d(nx=size or 24)
        config = _ls89_config()
    else:
        raise MeshError(f"unknown fixture case {case!r} (pick from {FIXTURE_CASES})")
    stem = case.replace("-", "_")
    mesh_path = os.path.join(outdir, f"{stem}.msh")
    cfg_path = os.path.join(outdir, f"{stem}.cfg")
    write_gmsh_ascii(mesh, mesh_path)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(config)
    return mesh_path, cfg_path


def _close_alias(alias: np.ndarray) -> np.ndarray:
    while True:
        nxt = alias[alias]
        if np.array_equal(nxt, alias):
            return alias
        alias = nxt


def _check_periodic_counts(sizes, periodic):
    # two cells across a periodic direction alias two distinct faces onto
    # one vertex-set key, breaking key = geometric-coincidence
    for n, per in zip(sizes, periodic):
        if per and n == 2:
            raise MeshError("periodic directions need 1 or >= 3 cells")


def box_mesh_2d(
    nx: int,
    ny: int,
    lengths: Sequence[float] = (1.0, 1.0),
    origin: Sequence[float] = (0.0, 0.0),
    periodic: Sequence[bool] = (False, False),
    perturb: float = 0.0,
    seed: int = 0,
) -> SerialMesh:
    """Structured quad mesh with optional periodic directions.

    Periodic directions are realized by aliasing the high-side boundary
    vertices onto the low side; the wrap faces then match like any
    interior face.
    """
    _check_periodic_counts((nx, ny), periodic)
    nvx, nvy = nx + 1, ny + 1
    xs = origin[0] + lengths[0] * np.arange(nvx) / nx
    ys = origin[1] + lengths[1] * np.arange(nvy) / ny
    verts = np.empty((nvx * nvy, 2))
    for j in range(nvy):
        for i in range(nvx):
            verts[i + nvx * j] = (xs[i], ys[j])

    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        h = min(lengths[0] / nx, lengths[1] / ny)
        for j in range(1, ny):
            for i in range(1, nx):
                verts[i + nvx * j] += perturb * h * (rng.random(2) - 0.5)

    def vid(i, j):
        return i + nvx * j

    j, i = np.divmod(np.arange(nx * ny), nx)
    v0 = vid(i, j)
    cells = np.column_stack([v0, v0 + 1, v0 + 1 + nvx, v0 + nvx])

    alias = np.arange(nvx * nvy, dtype=np.int64)
    if periodic[0]:
        for j in range(nvy):
            alias[vid(nx, j)] = vid(0, j)
    if periodic[1]:
        for i in range(nvx):
            alias[vid(i, ny)] = vid(i, 0)
    alias = _close_alias(alias)
    has_alias = not np.array_equal(alias, np.arange(alias.size))

    sections = []
    pid = 0
    if not periodic[0]:
        sections.append(BoundarySection(pid, "xmin", [(vid(0, j), vid(0, j + 1)) for j in range(ny)]))
        sections.append(BoundarySection(pid + 1, "xmax", [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)]))
        pid += 2
    if not periodic[1]:
        sections.append(BoundarySection(pid, "ymin", [(vid(i, 0), vid(i + 1, 0)) for i in range(nx)]))
        sections.append(BoundarySection(pid + 1, "ymax", [(vid(i, ny), vid(i + 1, ny)) for i in range(nx)]))

    return SerialMesh(
        dim=2,
        vertices=verts,
        cells=cells,
        boundary_sections=sections,
        vertex_alias=alias if has_alias else None,
    )


def box_mesh_3d(
    nx: int,
    ny: int,
    nz: int,
    lengths: Sequence[float] = (1.0, 1.0, 1.0),
    origin: Sequence[float] = (0.0, 0.0, 0.0),
    periodic: Sequence[bool] = (False, False, False),
    perturb: float = 0.0,
    seed: int = 0,
) -> SerialMesh:
    """Structured hex mesh with optional periodic directions."""
    _check_periodic_counts((nx, ny, nz), periodic)
    nvx, nvy, nvz = nx + 1, ny + 1, nz + 1
    xs = origin[0] + lengths[0] * np.arange(nvx) / nx
    ys = origin[1] + lengths[1] * np.arange(nvy) / ny
    zs = origin[2] + lengths[2] * np.arange(nvz) / nz
    verts = np.empty((nvx * nvy * nvz, 3))

    def vid(i, j, k):
        return i + nvx * (j + nvy * k)

    for k in range(nvz):
        for j in range(nvy):
            for i in range(nvx):
                verts[vid(i, j, k)] = (xs[i], ys[j], zs[k])

    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        h = min(lengths[0] / nx, lengths[1] / ny, lengths[2] / nz)
        for k in range(1, nz):
            for j in range(1, ny):
                for i in range(1, nx):
                    verts[vid(i, j, k)] += perturb * h * (rng.random(3) - 0.5)

    k, rest = np.divmod(np.arange(nx * ny * nz), nx * ny)
    j, i = np.divmod(rest, nx)
    v0 = vid(i, j, k)
    corners = np.array([vid(0, 0, 0), vid(1, 0, 0), vid(1, 1, 0), vid(0, 1, 0),
                        vid(0, 0, 1), vid(1, 0, 1), vid(1, 1, 1), vid(0, 1, 1)])
    cells = v0[:, None] + corners

    alias = np.arange(verts.shape[0], dtype=np.int64)
    if periodic[0]:
        for k in range(nvz):
            for j in range(nvy):
                alias[vid(nx, j, k)] = vid(0, j, k)
    if periodic[1]:
        for k in range(nvz):
            for i in range(nvx):
                alias[vid(i, ny, k)] = vid(i, 0, k)
    if periodic[2]:
        for j in range(nvy):
            for i in range(nvx):
                alias[vid(i, j, nz)] = vid(i, j, 0)
    alias = _close_alias(alias)
    has_alias = not np.array_equal(alias, np.arange(alias.size))

    sections = []
    pid = 0

    def quad_records(fixed_axis, fixed_val):
        recs = []
        if fixed_axis == 0:
            for k in range(nz):
                for j in range(ny):
                    recs.append((vid(fixed_val, j, k), vid(fixed_val, j + 1, k),
                                 vid(fixed_val, j + 1, k + 1), vid(fixed_val, j, k + 1)))
        elif fixed_axis == 1:
            for k in range(nz):
                for i in range(nx):
                    recs.append((vid(i, fixed_val, k), vid(i + 1, fixed_val, k),
                                 vid(i + 1, fixed_val, k + 1), vid(i, fixed_val, k + 1)))
        else:
            for j in range(ny):
                for i in range(nx):
                    recs.append((vid(i, j, fixed_val), vid(i + 1, j, fixed_val),
                                 vid(i + 1, j + 1, fixed_val), vid(i, j + 1, fixed_val)))
        return recs

    names = (("xmin", "xmax"), ("ymin", "ymax"), ("zmin", "zmax"))
    sizes = (nx, ny, nz)
    for ax in range(3):
        if periodic[ax]:
            continue
        sections.append(BoundarySection(pid, names[ax][0], quad_records(ax, 0)))
        sections.append(BoundarySection(pid + 1, names[ax][1], quad_records(ax, sizes[ax])))
        pid += 2

    return SerialMesh(
        dim=3,
        vertices=verts,
        cells=cells,
        boundary_sections=sections,
        vertex_alias=alias if has_alias else None,
    )
