"""Built-in meshes, initial conditions, and shipped test-case fixtures.

Every built-in mesh is a structured box from :func:`box_mesh`: quads for
two cell counts, hexes for three.  Its tables come in a fixed order:

* vertex ids are mixed-radix indices over the vertex grid, x fastest;
* cells follow the cell grid in the same order; each row is the cell's
  base vertex plus the corner offsets (0,0), (1,0), (1,1), (0,1), then
  the same four at z + 1 in 3-D;
* each non-periodic axis gives a ``min`` then a ``max`` section (``xmin``,
  ``xmax``, ``ymin``, ...), patch ids counting from 0 in that order; a
  section's faces use the same corner table over the face's tangential
  axes, with the last tangential axis outermost.

A periodic axis aliases its max-side vertices onto the min side, so the
wrap faces match like interior faces.  The cascade is a sheared box whose
``ymin`` and ``ymax`` sections are split into blade and pitch-periodic
parts.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

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
    return box_mesh(n, n, lengths=(box, box), origin=(-box / 2, -box / 2),
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
    return box_mesh(n, n, n, lengths=(L, L, L), periodic=(True, True, True))


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
    _check_cells((nx, 1), (False, True))  # before the strip height 1 / nx
    return box_mesh(nx, 1, lengths=(1.0, 1.0 / nx), periodic=(False, True))


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
    base = box_mesh(nx, ny, lengths=(length, pitch))
    # shear the frame so blade segments lie along the stagger direction
    verts = base.vertices
    verts[:, 1] += np.tan(stagger) * verts[:, 0]
    box = {s.name: s.records for s in base.boundary_sections}
    lo, hi, third = box["ymin"], box["ymax"], nx // 3
    sections = [
        BoundarySection(0, "inlet", box["xmin"]),
        BoundarySection(1, "outlet", box["xmax"]),
        BoundarySection(2, "blade", lo[third:2 * third] + hi[third:2 * third]),
        BoundarySection(3, "per_lo", lo[:third] + lo[2 * third:]),
        BoundarySection(4, "per_hi", hi[:third] + hi[2 * third:]),
    ]
    return SerialMesh(dim=2, vertices=verts, cells=base.cells,
                      boundary_sections=sections, vertex_alias=None)


# ---------------------------------------------------------------------------
# shipped fixtures: mesh + config files
# ---------------------------------------------------------------------------

# default size of each fixture case: cells per axis (vortex, tgv), along
# the strip (sod) or axially (ls89-2d)
_FIXTURE_SIZES = {"vortex": 24, "tgv": 4, "sod": 200, "ls89-2d": 24}
FIXTURE_CASES = tuple(_FIXTURE_SIZES)


def _periodic_bcs(periods: Sequence[Optional[float]]) -> list:
    """Config lines pairing the min and max patch of each periodic axis;
    ``periods[a]`` is the period along axis ``a``, None where it is not
    periodic."""
    lines = []
    for a, period in enumerate(periods):
        if period is None:
            continue
        for side, partner, shift in (("min", "max", -period), ("max", "min", period)):
            vec = " ".join(str(shift) if b == a else "0" for b in range(len(periods)))
            lines += [f"bc.{_AXES[a]}{side}.kind = periodic",
                      f"bc.{_AXES[a]}{side}.partner = {_AXES[a]}{partner}",
                      f"bc.{_AXES[a]}{side}.translation = {vec}"]
    return lines


def _vortex_config() -> str:
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
        *_periodic_bcs((VORTEX_BOX, VORTEX_BOX)),
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
        *_periodic_bcs((L, L, L)),
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
        *_periodic_bcs((None, 1.0 / nx)),
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
    """Write <case>.msh and <case>.cfg into outdir; returns both paths.

    A size below 1, or of 2 across the periodic vortex and TGV boxes,
    raises MeshError before any file is written."""
    import os
    from .io.gmsh import write_gmsh_ascii

    if case not in _FIXTURE_SIZES:
        raise MeshError(f"unknown fixture case {case!r} (pick from {FIXTURE_CASES})")
    n = size if size is not None else _FIXTURE_SIZES[case]
    # the vortex and TGV configs make every axis periodic on import
    _check_cells((n,), (case in ("vortex", "tgv"),))
    if case == "vortex":
        mesh = box_mesh(n, n, lengths=(VORTEX_BOX, VORTEX_BOX),
                        origin=(-VORTEX_BOX / 2, -VORTEX_BOX / 2))
        config = _vortex_config()
    elif case == "tgv":
        L = 2.0 * math.pi
        mesh = box_mesh(n, n, n, lengths=(L, L, L))
        config = _tgv_config()
    elif case == "sod":
        mesh = box_mesh(n, 1, lengths=(1.0, 1.0 / n))
        config = _sod_config(n)
    else:
        mesh = cascade_mesh_2d(nx=n)
        config = _ls89_config()
    os.makedirs(outdir, exist_ok=True)
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


def _check_cells(cells: Sequence[int], periodic: Sequence[bool]):
    if any(n < 1 for n in cells):
        raise MeshError(f"a box needs at least 1 cell per axis, got {[int(n) for n in cells]}")
    # two cells across a periodic axis alias two distinct faces onto one
    # vertex-set key, breaking key = geometric coincidence
    if any(per and n == 2 for n, per in zip(cells, periodic)):
        raise MeshError("periodic directions need 1 or >= 3 cells")


# unit-cell corners in the mesh_core vertex order; a d-cube (or a face of
# a (d+1)-cube, over its tangential axes) takes the first 2**d rows and d
# columns
_CORNERS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                     (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])
_AXES = "xyz"


def _grid(counts: Sequence[int]) -> np.ndarray:
    """Mixed-radix indices of a grid, first axis fastest: row ``a`` holds
    every point's index along axis ``a``."""
    return np.indices(tuple(counts)[::-1]).reshape(len(counts), -1)[::-1]


def box_mesh(
    *cells: int,
    lengths: Optional[Sequence[float]] = None,
    origin: Optional[Sequence[float]] = None,
    periodic: Optional[Sequence[bool]] = None,
    perturb: float = 0.0,
    seed: int = 0,
) -> SerialMesh:
    """Structured quad (two cell counts) or hex (three) mesh of a box.

    ``lengths`` default to 1, ``origin`` to 0 and ``periodic`` to False on
    every axis.  ``perturb`` moves each interior vertex by up to
    ``perturb / 2`` of the smallest cell width per axis, from one draw of
    the generator seeded with ``seed``, in vertex-id order.  The table
    orders are in the module docstring.
    """
    d = len(cells)
    if d not in (2, 3):
        raise MeshError(f"a box mesh takes 2 or 3 cell counts, got {d}")
    lengths = (1.0,) * d if lengths is None else lengths
    origin = (0.0,) * d if origin is None else origin
    periodic = (False,) * d if periodic is None else periodic
    _check_cells(cells, periodic)
    nv = [n + 1 for n in cells]
    idx = _grid(nv)
    stride = np.cumprod([1] + nv[:-1])
    verts = np.column_stack([(origin[a] + lengths[a] * np.arange(nv[a]) / cells[a])[idx[a]]
                             for a in range(d)])
    if perturb > 0.0:
        inner = np.all((idx > 0) & (idx < np.array(cells)[:, None]), axis=0)
        h = min(length / n for length, n in zip(lengths, cells))
        rng = np.random.default_rng(seed)
        verts[inner] += perturb * h * (rng.random((np.count_nonzero(inner), d)) - 0.5)

    cell_table = (stride @ _grid(cells))[:, None] + _CORNERS[:2 ** d, :d] @ stride

    ids = np.arange(verts.shape[0], dtype=np.int64)
    alias = ids.copy()
    for a in np.flatnonzero(periodic):
        top = idx[a] == cells[a]
        alias[top] = ids[top] - cells[a] * stride[a]
    alias = _close_alias(alias)

    sections = []
    for a in range(d):
        if periodic[a]:
            continue
        tang = [b for b in range(d) if b != a]
        faces = ((stride[tang] @ _grid([cells[b] for b in tang]))[:, None]
                 + _CORNERS[:2 ** (d - 1), :d - 1] @ stride[tang])
        for side, at in (("min", 0), ("max", cells[a])):
            records = list(map(tuple, (faces + at * stride[a]).tolist()))
            sections.append(BoundarySection(len(sections), _AXES[a] + side, records))

    return SerialMesh(
        dim=d,
        vertices=verts,
        cells=cell_table,
        boundary_sections=sections,
        vertex_alias=None if np.array_equal(alias, ids) else alias,
    )
