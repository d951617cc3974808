"""Each benchmark check accepts a right answer and rejects a wrong one.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import math

import numpy as np
import pytest

import checks

GAMMA = 1.4


# ---------------------------------------------------------------------------
# face dictionary against real shards of a small cascade on 2 ranks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cascade(tmp_path_factory):
    from fluxrecon import driver, fixtures

    from fluxrecon.io.config import RunConfig
    from fluxrecon.io.shards import read_shards

    out = tmp_path_factory.mktemp("cascade")
    mesh_path, cfg_path = fixtures.make_fixture("ls89-2d", str(out), size=12)
    driver.partition_to_dir(mesh_path, 2, RunConfig.load(cfg_path), str(out / "shards"))
    return (checks.read_gmsh(mesh_path), checks.read_config(cfg_path),
            read_shards(str(out / "shards")))


def test_shards_pass(cascade):
    mesh, cfg, shards = cascade
    assert all(sh.remote_faces for sh in shards)
    assert checks.check_shards(mesh, cfg, shards) == []


def test_shards_reject_dropped_internal_face(cascade):
    mesh, cfg, shards = cascade
    broken = copy.deepcopy(shards)
    broken[0].internal_faces.pop(3)
    assert any("coupled 0 times" in e for e in checks.check_shards(mesh, cfg, broken))


def test_shards_reject_dropped_remote_face(cascade):
    mesh, cfg, shards = cascade
    broken = copy.deepcopy(shards)
    broken[1].remote_faces.pop(0)
    assert checks.check_shards(mesh, cfg, broken)


def test_shards_reject_wrong_patch(cascade):
    mesh, cfg, shards = cascade
    broken = copy.deepcopy(shards)
    face = broken[0].boundary_faces[0]
    face.patch_id = next(p for p in broken[0].patch_names if p != face.patch_id)
    assert any("landed" in e or "record is on" in e
               for e in checks.check_shards(mesh, cfg, broken))


def test_shards_reject_cell_in_two_shards(cascade):
    mesh, cfg, shards = cascade
    broken = copy.deepcopy(shards)
    broken[1].cells.append(broken[0].cells[0])
    assert any("in shards" in e for e in checks.check_shards(mesh, cfg, broken))


# ---------------------------------------------------------------------------
# vortex: L2 against the moved vortex, conservation
# ---------------------------------------------------------------------------


def _vortex_plot_grid(t, beta, n=16, order=3, box=16.0):
    """Exact density on each element's equispaced plot grid."""
    lin = np.linspace(-1.0, 1.0, order + 1)
    h = box / n
    pts = []
    for j in range(n):
        for i in range(n):
            cx, cy = -box / 2 + (i + 0.5) * h, -box / 2 + (j + 0.5) * h
            for s in range((order + 1) ** 2):
                u, v = lin[s % (order + 1)], lin[s // (order + 1)]
                pts.append((cx + 0.5 * h * u, cy + 0.5 * h * v, 0.0))
    pts = np.array(pts)
    return {"points": pts, "rho": checks.vortex_rho(pts[:, :2], t, beta)}


def test_vortex_pass_and_reject_perturbed_state():
    t, beta = 0.2, 2.0
    vtk = _vortex_plot_grid(t, beta)
    totals = np.array([256.0, 256.0, 256.0, 800.0])
    errors, info = checks.check_vortex(vtk, t, beta, 3, totals, totals.copy())
    assert errors == [] and info["l2_rho"] < 1e-15 < info["l2_unmoved"]

    bumped = dict(vtk, rho=vtk["rho"] + 1e-4 * np.exp(-np.sum(vtk["points"] ** 2, axis=1)))
    errors, _ = checks.check_vortex(bumped, t, beta, 3, totals, totals.copy())
    assert any("L2(rho)" in e for e in errors)

    unmoved = _vortex_plot_grid(0.0, beta)
    errors, _ = checks.check_vortex(unmoved, t, beta, 3, totals, totals.copy())
    assert any("L2(rho)" in e for e in errors)


def test_vortex_rejects_drift():
    t, beta = 0.2, 2.0
    vtk = _vortex_plot_grid(t, beta)
    totals = np.array([256.0, 256.0, 256.0, 800.0])
    drifted = totals * np.array([1.0, 1.0, 1.0 + 1e-10, 1.0])
    errors, _ = checks.check_vortex(vtk, t, beta, 3, totals, drifted)
    assert errors == ["y-momentum drifted by 1.000e-10 > 1e-12"]


def test_gauss_totals_integrate_the_polynomial_exactly():
    # Q = 1 + x^3 on one 2 x 2 element at Gauss points of degree 3
    x, _ = np.polynomial.legendre.leggauss(4)
    xs = np.array([x[s % 4] for s in range(16)])
    Q = (1.0 + xs ** 3)[None, None, :]
    assert checks.gauss_totals(Q, np.array([4.0]), 3, 2)[0] == pytest.approx(4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Taylor-Green: decay rate, monotone decay, conservation
# ---------------------------------------------------------------------------


def _tgv_history(rate, steps=16, dt=4e-3, k0=31.0):
    times = [i * dt for i in range(steps + 1)]
    return times, [k0 - rate * t - 0.3 * rate * t * t for t in times]


def test_tgv_pass_and_reject_wrong_rate():
    mu, volume = 1.0 / 1600.0, (2 * math.pi) ** 3
    totals = np.array([248.0, 0.0, 0.0, 0.0, 1.8e4])
    times, ks = _tgv_history(0.75 * mu * volume)
    errors, info = checks.check_tgv(times, ks, mu, volume, totals, totals.copy())
    assert errors == [] and info["decay_rate_rel_err"] < 1e-9

    times, ks = _tgv_history(0.75 * mu * volume * 1.05)
    errors, _ = checks.check_tgv(times, ks, mu, volume, totals, totals.copy())
    assert any("decay rate" in e for e in errors)


def test_tgv_rejects_rising_energy_and_drift():
    mu, volume = 1.0 / 1600.0, (2 * math.pi) ** 3
    totals = np.array([248.0, 0.0, 0.0, 0.0, 1.8e4])
    times, ks = _tgv_history(0.75 * mu * volume)
    ks[5] = ks[4]
    drifted = totals + np.array([0.0, 1e-7, 0.0, 0.0, 0.0])
    errors, _ = checks.check_tgv(times, ks, mu, volume, totals, drifted)
    assert any("did not fall" in e for e in errors)
    assert any("x-momentum drifted" in e for e in errors)


# ---------------------------------------------------------------------------
# cascade: uniform stream and the blade's isentropic Mach number
# ---------------------------------------------------------------------------


def test_stream_pass_and_reject_perturbed_state():
    q, _ = checks.stream_state(0.5, 420.0, 101325.0, 55.0, GAMMA, 287.0)
    Q = np.repeat(q[None, :, None], 9, axis=2).repeat(3, axis=0)
    assert checks.check_stream([Q, Q.copy()], q)[0] == []
    bad = Q.copy()
    bad[1, 2, 4] *= 1.0 + 1e-9
    errors, _ = checks.check_stream([Q, bad], q)
    assert errors and errors[0].startswith("rank 1")


def _surface_csv(path, pressures):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,p,T,mach_is\n")
        for i, p in enumerate(pressures):
            fh.write(f"{i},0,0,{p:.12g},300,0\n")


def test_surface_pass_and_reject_shifted_mach(tmp_path):
    mach = 0.6
    _, p0 = checks.stream_state(mach, 420.0, 101325.0, 55.0, GAMMA, 287.0)
    paths = [str(tmp_path / "s0.csv"), str(tmp_path / "s1.csv")]
    _surface_csv(paths[0], [101325.0] * 6)
    _surface_csv(paths[1], [101325.0] * 4)
    assert checks.check_surface(paths, p0, mach, GAMMA, 10)[0] == []
    errors, _ = checks.check_surface(paths, p0, mach + 1e-6, GAMMA, 10)
    assert any("isentropic Mach" in e for e in errors)
    errors, _ = checks.check_surface(paths, p0, mach, GAMMA, 12)
    assert errors == ["10 surface rows, expected 12"]
