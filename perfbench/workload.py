"""One benchmark workload, run in its own process by ``run.py``.

Usage (normally started by run.py, from the repository root, with
``src`` on PYTHONPATH):

    python3 perfbench/workload.py --spec JSON --seed N --seconds S \
        --trace 0|1 --workdir DIR

It writes the fixture files once, then repeats whole operations until
``--seconds`` have passed.  One operation is the user path of the CLI's
``partition`` and ``solve`` commands: import the mesh, match faces,
partition, prepare shards on the simulated cluster, write and read the
shards, build one solver per rank, take the time steps and write the
output.  Multi-rank solves run on the in-process ``SimCluster``.  After
the timed part, the operation's results are checked by ``checks.py``.

The last line of standard output is one JSON object with a record per
operation and the process's peak resident set size.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

from fluxrecon import driver, fixtures, mesh_core
from fluxrecon.io import shards as shard_io
from fluxrecon.io.config import RunConfig
from fluxrecon.prep import matching, partition
from fluxrecon.prep.transport import SimCluster

import checks
from tracing import Tracer

WARMUP_STEPS = 2


class _Untraced:
    def phase(self, name=None):
        return name


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_inputs(spec, seed, fixture_dir):
    """Write the fixture files and the seed's choices; return paths and
    the values the checks need."""
    mesh_path, cfg_path = fixtures.make_fixture(spec["case"], fixture_dir, size=spec["size"])
    rng = np.random.default_rng(seed)
    base = checks.read_config(cfg_path)
    extra = {"prep.seed": str(seed)}
    inputs = {}
    if spec["case"] == "vortex":
        inputs["beta"] = 1.5 + rng.random()
        extra["init.beta"] = repr(inputs["beta"])
    elif spec["case"] == "tgv":
        extra["init.mach"] = repr(0.08 + 0.04 * rng.random())
    elif spec["case"] == "ls89-2d":
        # a uniform stream along the stagger direction is a steady solution
        # of every boundary kind and sponge in the fixture when p0, T0, p_out
        # and the sponge references all describe it
        mach = 0.3 + 0.5 * rng.random()
        gamma, gas_r = float(base["gas.gamma"]), float(base["gas.R"])
        angle = float(base["case.stagger_deg"])
        t0, p = float(base["bc.inlet.t0"]), float(base["bc.outlet.p_out"])
        q, p0 = checks.stream_state(mach, t0, p, angle, gamma, gas_r)
        state = " ".join(repr(float(v)) for v in q)
        a = math.radians(angle)
        extra.update({
            "init.state": state,
            "sponge.inlet.ref": state,
            "sponge.outlet.ref": state,
            "bc.inlet.p0": repr(p0),
            "bc.inlet.direction": f"{math.cos(a)!r} {math.sin(a)!r}",
            "output.format": "csv-surface",
            "output.patch": "blade",
            "output.p0_ref": repr(p0),
        })
        inputs.update(mach=mach, gamma=gamma, q_stream=q, p0=p0)
    with open(cfg_path, "a", encoding="utf-8") as fh:
        fh.write(f"# benchmark inputs for seed {seed}\n")
        for key, value in extra.items():
            fh.write(f"{key} = {value}\n")
    return mesh_path, cfg_path, inputs


# ---------------------------------------------------------------------------
# one operation: the timed user path
# ---------------------------------------------------------------------------


def execute(spec, seed, mesh_path, cfg_path, opdir, tr):
    """Fixture files on disk -> output on disk.  Returns per-rank results
    and the wall-clock marks of the run."""
    t_start = time.perf_counter()
    tr.phase("setup")
    nranks = spec["ranks"]
    # the stages of driver.partition_to_dir, which fixes sim_seed at 0
    # where the benchmark takes it from --seed
    cfg = RunConfig.load(cfg_path)
    mesh = driver.load_mesh(mesh_path, cfg)
    faces = mesh_core.build_face_list(mesh.cells, mesh.vertex_alias)
    internal, uncoupled = mesh_core.match_local_faces(faces, mesh.vertex_alias)
    graph = mesh_core.build_dual_graph(mesh.cells, internal)
    assignment = partition.partition_mesh(graph, nranks, seed=cfg.get_int("prep.seed", 0))
    prepared = matching.prepare_shards(mesh, assignment, nranks,
                                       seed=cfg.get_int("prep.seed", 0),
                                       routing=cfg.get_str("prep.routing", "modulo"),
                                       sim_seed=seed)
    shard_dir = os.path.join(opdir, "shards")
    out_dir = os.path.join(opdir, "output")
    shard_io.write_shards(prepared, shard_dir)
    del prepared
    keep_states = spec["case"] == "tgv"

    def solve(ctx):
        rank = 0 if ctx is None else ctx.rank
        tr.phase("setup")
        shard = shard_io.read_shards(shard_dir, ranks=[rank])[0]
        solver = driver.build_solver(shard, cfg, ctx=ctx)
        driver.initialize(solver, cfg)
        ready = time.perf_counter()
        q0 = solver.Q_upts.copy()
        tr.phase("steps")
        ends, times, states, t_sim = [], [], [], 0.0
        for _ in range(spec["steps"]):
            t_sim += solver.run_steps(1)
            ends.append(time.perf_counter())
            times.append(t_sim)
            if keep_states:
                states.append(solver.Q_upts.copy())
        tr.phase("output")
        driver._write_outputs(solver, cfg, out_dir, rank=rank)
        done = time.perf_counter()
        return {"ready": ready, "ends": ends, "done": done, "times": times,
                "q0": q0, "q": solver.Q_upts.copy(), "states": states,
                "gids": solver.gids.copy(), "shard": shard, "p": solver.opt.p,
                "flops": solver.ledger.total_flops, "bytes": solver.ledger.total_bytes,
                "prefetches": solver.ledger.prefetches}

    if nranks == 1:
        ranks = [solve(None)]
    else:
        ranks = SimCluster(nranks, seed=seed).run(solve)
    ready = max(r["ready"] for r in ranks)
    ends = np.max([r["ends"] for r in ranks], axis=0)
    steps = np.diff(np.concatenate([[ready], ends]))
    timing = {
        "setup_s": ready - t_start,
        "run_s": max(r["done"] for r in ranks) - t_start,
        "steps": steps[WARMUP_STEPS:].tolist(),
    }
    sizes = {
        "mesh_bytes": os.path.getsize(mesh_path),
        "shard_bytes": _dir_bytes(shard_dir),
        "output_bytes": _dir_bytes(out_dir),
        "faces": len(internal) + len(uncoupled),
        "edge_cut": sum(1 for a, nbrs in graph.adjacency.items() for b in nbrs
                        if a < b and assignment[a] != assignment[b]),
        "imbalance": _imbalance(graph, assignment, nranks),
    }
    return ranks, timing, sizes, out_dir


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _imbalance(graph, assignment, nranks):
    loads = np.zeros(nranks)
    for cid, w in graph.weights.items():
        loads[assignment[cid]] += w
    return float(loads.max() / loads.mean())


# ---------------------------------------------------------------------------
# checks, independent of fluxrecon
# ---------------------------------------------------------------------------


def verify(spec, ranks, out_dir, mesh_ref, cfg_ref, inputs):
    errors = checks.check_shards(mesh_ref, cfg_ref, [r["shard"] for r in ranks])
    dim = mesh_ref["dim"]
    p = ranks[0]["p"]
    info = {}
    if spec["case"] == "vortex":
        r = ranks[0]
        vols = checks.box_volumes(mesh_ref, r["gids"])
        tot0 = checks.gauss_totals(r["q0"], vols, p, dim)
        tot1 = checks.gauss_totals(r["q"], vols, p, dim)
        vtk = checks.read_vtk(os.path.join(out_dir, "solution_0000.vtk"))
        errs, info = checks.check_vortex(vtk, r["times"][-1], inputs["beta"],
                                         min(p, 4), tot0, tot1)
        errors += errs
    elif spec["case"] == "tgv":
        r = ranks[0]
        vols = checks.box_volumes(mesh_ref, r["gids"])
        energies = [checks.kinetic_energy(q, vols, p, dim) for q in [r["q0"]] + r["states"]]
        errs, info = checks.check_tgv(
            [0.0] + r["times"], energies, float(cfg_ref["gas.mu"]), float(vols.sum()),
            checks.gauss_totals(r["q0"], vols, p, dim),
            checks.gauss_totals(r["q"], vols, p, dim))
        errors += errs
    else:
        errs, info = checks.check_stream([r["q"] for r in ranks], inputs["q_stream"])
        errors += errs
        paths = [os.path.join(out_dir, f"surface_{rank:04d}.csv") for rank in range(len(ranks))]
        blade_rows = len(mesh_ref["boundary"]["blade"]) * (p + 1)
        errs, more = checks.check_surface(paths, inputs["p0"], inputs["mach"],
                                          inputs["gamma"], blade_rows)
        errors += errs
        info.update(more)
    return errors, info


# ---------------------------------------------------------------------------
# per-layer figures of a traced operation
# ---------------------------------------------------------------------------


def layer_figures(tr, spec, ranks, sizes):
    nsteps = spec["steps"]

    def setup(span):
        return tr.self_time("setup", span)

    def per_step(span):
        return tr.self_time("steps", span) / nsteps

    def count(phase, name):
        return tr.counter(phase, name) / (nsteps if phase == "steps" else 1)

    flops = sum(r["flops"] for r in ranks) / nsteps
    nbytes = sum(r["bytes"] for r in ranks) / nsteps
    residual = tr.inclusive_time("steps", "solver.residual") / nsteps
    return {
        "gmsh.import_s": setup("gmsh.import"),
        "gmsh.mesh_bytes": sizes["mesh_bytes"],
        "mesh_core.faces_s": setup("mesh_core.faces"),
        "mesh_core.faces": sizes["faces"],
        "partition.partition_s": setup("partition.partition"),
        "partition.edge_cut": sizes["edge_cut"],
        "partition.imbalance": sizes["imbalance"],
        "prep.match_s": setup("prep.match"),
        "prep.nbx_calls": count("setup", "nbx_calls@prep.match"),
        "prep.nbx_bytes": count("setup", "nbx_bytes@prep.match"),
        "shards.write_s": setup("shards.write"),
        "shards.read_s": setup("shards.read"),
        "shards.bytes": sizes["shard_bytes"],
        "solver.build_s": setup("solver.build"),
        "operators.geometry_s": setup("operators.geometry"),
        "operators.geometry_calls": count("setup", "operators.geometry_calls"),
        "operators.face_geometry_calls": count("setup", "operators.face_geometry_calls"),
        "solver.residual_s": per_step("solver.residual"),
        "solver.residual_calls": count("steps", "solver.residual_calls"),
        "solver.dt_s": per_step("solver.dt"),
        "solver.positivity_s": per_step("solver.positivity"),
        "physics.riemann_s": per_step("physics.riemann"),
        "physics.flux_s": per_step("physics.flux"),
        "physics.viscous_s": per_step("physics.viscous"),
        "physics.boundary_s": per_step("physics.boundary"),
        "physics.sponge_s": per_step("physics.sponge"),
        "halo.exchange_s": per_step("halo.exchange"),
        "halo.exchanges": count("steps", "nbx_calls@halo.exchange"),
        "halo.bytes": count("steps", "nbx_bytes@halo.exchange"),
        "comm.allreduce_s": per_step("comm.allreduce"),
        "comm.allreduce_calls": count("steps", "comm.allreduce_calls"),
        "perf.flops_per_step": flops,
        "perf.bytes_per_step": nbytes,
        "perf.flops_per_byte": flops / nbytes,
        "perf.gflops": flops / residual / 1e9,
        "perf.prefetch_copies": sum(r["prefetches"] for r in ranks) / nsteps,
        "solution.write_s": tr.self_time("output", "solution.write"),
        "solution.bytes": sizes["output_bytes"],
    }


# ---------------------------------------------------------------------------


def run_operation(spec, seed, paths, refs, opdir, tracer):
    """One whole operation; a raised error or a failed check fails it."""
    mesh_path, cfg_path, inputs = paths
    record = {"traced": tracer is not None, "errors": []}
    gc.collect()  # start every operation from the same heap, not the last one's garbage
    try:
        if tracer is None:
            ranks, timing, sizes, out_dir = execute(spec, seed, mesh_path, cfg_path,
                                                    opdir, _Untraced())
        else:
            with tracer:
                ranks, timing, sizes, out_dir = execute(spec, seed, mesh_path, cfg_path,
                                                        opdir, tracer)
            record["layers"] = layer_figures(tracer, spec, ranks, sizes)
        record.update(timing)
        errors, record["checks"] = verify(spec, ranks, out_dir, *refs, inputs)
        record["errors"] = errors
    except Exception as exc:  # noqa: BLE001 - a failed operation, reported by run.py
        record["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    record["ok"] = not record["errors"]
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)

    paths = make_inputs(spec, args.seed, os.path.join(args.workdir, "fixture"))
    refs = (checks.read_gmsh(paths[0]), checks.read_config(paths[1]))
    ops, last_tracer = [], None
    begin = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced operations, so the
        # tracing overhead is measured in the same process
        tracer = Tracer() if args.trace and len(ops) % 2 == 1 else None
        opdir = os.path.join(args.workdir, f"op{len(ops)}")
        ops.append(run_operation(spec, args.seed, paths, refs, opdir, tracer))
        last_tracer = tracer or last_tracer
        done = time.perf_counter() - begin >= args.seconds
        if done and (not args.trace or len(ops) >= 2):
            break
    if last_tracer is not None and args.trace_file:
        last_tracer.write(args.trace_file)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ops": ops, "peak_rss_mb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
