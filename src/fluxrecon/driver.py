"""End-to-end run orchestration shared by the CLI and the test harness:
import, periodic pairing, partitioning, shard I/O, serial and
multi-process solves, and step benchmarking."""

from __future__ import annotations

import logging
import math
import multiprocessing as mp
import os
import time
from queue import Empty
from typing import List, Optional, Tuple

import numpy as np

from . import fixtures
from .errors import ConfigError
from .io.config import RunConfig
from .io.gmsh import apply_periodic, import_gmsh_ascii
from .io.shards import read_shards, write_shards
from .io import solution as solution_io
from .mesh_core import build_face_list, build_dual_graph, match_local_faces
from .perf import PerfLedger, bench_csv_row, summarize_steps
from .pipeline.solver import SolverOptions, SolverRank, interpolate_state
from .prep.matching import prepare_shards
from .prep.partition import partition_mesh
from .prep.transport import RankContext, SocketTransport

_POLL_S = 0.5               # how often the parent checks on its workers
_RESULT_TIMEOUT_S = 600.0   # longest wait for the next worker result
_GRACE_S = 2.0              # wait for the other workers after one fails

logger = logging.getLogger(__name__)


def load_mesh(mesh_path: str, cfg: RunConfig):
    """Import a Gmsh file and fold periodic patch pairs into the alias map."""
    mesh = import_gmsh_ascii(mesh_path)
    pairs = cfg.periodic_pairs()
    if pairs:
        mesh = apply_periodic(mesh, pairs)
    return mesh


def partition_to_dir(mesh_path: str, nranks: int, cfg: RunConfig, outdir: str):
    """The full pre-processing pipeline: read, partition, match, write."""
    mesh = load_mesh(mesh_path, cfg)
    seed = cfg.get_int("prep.seed", 0)
    routing = cfg.get_str("prep.routing", "modulo")
    faces = build_face_list(mesh.cells, mesh.vertex_alias)
    internal, _ = match_local_faces(faces, mesh.vertex_alias)
    graph = build_dual_graph(mesh.cells, internal)
    assignment = partition_mesh(graph, nranks, seed=seed)
    shards = prepare_shards(mesh, assignment, nranks, seed=seed, routing=routing)
    write_shards(shards, outdir)
    return shards


def build_solver(shard, cfg: RunConfig, ctx=None,
                 ledger: Optional[PerfLedger] = None,
                 options: Optional[SolverOptions] = None) -> SolverRank:
    gas = cfg.gas_model()
    opts = options if options is not None else cfg.solver_options()
    bcs = {name: spec for name, spec in cfg.boundary_specs().items()
           if spec.kind != "periodic"}
    sponges = cfg.sponge_zones()
    return SolverRank(shard, gas, opts, boundary_specs=bcs,
                      sponge_zones=sponges, ctx=ctx, ledger=ledger)


def initialize(solver: SolverRank, cfg: RunConfig):
    solver.set_state(fixtures.initial_state_fn(cfg, solver.gas))


def run_startup(solver: SolverRank, cfg: RunConfig, shard, ctx=None):
    """Order-switching start-up: flush transients at a low degree, then
    interpolate onto the target degree's points."""
    opts = cfg.solver_options()
    if opts.startup_steps <= 0:
        return solver
    low = cfg.solver_options()
    low.p = opts.startup_p
    s_low = build_solver(shard, cfg, ctx=ctx, options=low)
    initialize(s_low, cfg)
    s_low.run_steps(opts.startup_steps)
    kind = "hex" if shard.dim == 3 else "quad"
    solver.Q_upts = interpolate_state(s_low.Q_upts, kind, opts.startup_p, opts.p)
    return solver


def solve_serial(shards_dir: str, cfg: RunConfig, steps: int,
                 outdir: Optional[str] = None) -> SolverRank:
    shard = read_shards(shards_dir, ranks=[0])[0]
    if shard.nranks != 1:
        raise ConfigError("serial solve needs a 1-rank shard set; use workers")
    solver = build_solver(shard, cfg)
    if cfg.solver_options().startup_steps > 0:
        run_startup(solver, cfg, shard)
    else:
        initialize(solver, cfg)
    solver.run_steps(steps)
    if outdir:
        _write_outputs(solver, cfg, outdir, rank=0)
    return solver


def _write_outputs(solver: SolverRank, cfg: RunConfig, outdir: str, rank: int):
    os.makedirs(outdir, exist_ok=True)
    fmt = cfg.get_str("output.format", "vtk-legacy")
    order = cfg.get_int("output.order", min(solver.opt.p, 4))
    if fmt == "vtk-legacy":
        solution_io.write_vtk(os.path.join(outdir, f"solution_{rank:04d}.vtk"),
                              solver, order=order)
    elif fmt == "csv-surface":
        patch = cfg.get_str("output.patch", "blade")
        solution_io.write_surface_csv(
            os.path.join(outdir, f"surface_{rank:04d}.csv"), solver, patch,
            p0_ref=cfg.get_float("output.p0_ref", 1.0))
    else:
        raise ConfigError(f"unknown output.format {fmt!r}")
    if rank == 0:
        with open(os.path.join(outdir, "index.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"files = {solver.shard.nranks}\n")
            fh.write(f"format = {fmt}\n")


def benchmark_step(solver: SolverRank, cfg: RunConfig, nsteps: int = 50,
                   warmup: int = 3) -> Tuple[dict, PerfLedger]:
    """Timed steps with I/O and statistics off; per-step means exclude the
    warm-up steps."""
    solver.ledger.reset_counters()
    dt = solver.compute_dt(solver.Q_upts)
    solver.run_steps(nsteps, dt=dt)
    stats = summarize_steps(solver.ledger.step_times, warmup=warmup)
    return stats, solver.ledger


# ---------------------------------------------------------------------------
# multi-process execution over local sockets
# ---------------------------------------------------------------------------


def _worker(rank: int, nranks: int, base_port: int, shards_dir: str,
            cfg_text: str, steps: int, mode: str, outdir: Optional[str],
            queue):
    try:
        cfg = RunConfig.parse(cfg_text)
        shard = read_shards(shards_dir, ranks=[rank])[0]
        transport = SocketTransport(rank, nranks, base_port)
        ctx = RankContext(rank, nranks, transport)
        solver = build_solver(shard, cfg, ctx=ctx)
        if cfg.solver_options().startup_steps > 0:
            run_startup(solver, cfg, shard, ctx=ctx)
        else:
            initialize(solver, cfg)
        if mode == "bench":
            stats, ledger = benchmark_step(solver, cfg, nsteps=steps)
            queue.put((rank, {
                "stats": stats,
                "flops": ledger.total_flops,
                "bytes": ledger.total_bytes,
                "elements": solver.ne,
            }))
        else:
            solver.run_steps(steps)
            if outdir:
                _write_outputs(solver, cfg, outdir, rank=rank)
            queue.put((rank, {
                "gids": solver.gids.tolist(),
                "state": solver.Q_upts.tolist(),
            }))
        transport.close()
    except Exception as exc:  # noqa: BLE001 - ship it to the parent
        import traceback

        queue.put((rank, {"error": f"{type(exc).__name__}: {exc}\n"
                                   f"{traceback.format_exc()}"}))


def run_workers(shards_dir: str, cfg: RunConfig, steps: int, mode: str,
                outdir: Optional[str] = None, base_port: int = 29400):
    """Launch one OS process per shard rank; returns {rank: payload}."""
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    meta = read_shards(shards_dir, ranks=[0])[0]
    nranks = meta.nranks
    cfg_text = cfg.serialize()
    if nranks == 1 and mode != "bench":
        # run inline through the same worker body for identical behavior;
        # benches always spawn so every series point shares one BLAS
        # threading setup
        q = _InlineQueue()
        _worker(0, 1, base_port, shards_dir, cfg_text, steps, mode, outdir, q)
        results = dict(q.items)
        if "error" in results[0]:
            raise ConfigError(_failure_report(results, {}, 1))
        return results
    ctxmp = mp.get_context("spawn")
    queue = ctxmp.Queue()
    procs = []
    for r in range(nranks):
        p = ctxmp.Process(target=_worker, name=f"fluxrecon-rank-{r}", args=(
            r, nranks, base_port, shards_dir, cfg_text, steps, mode, outdir,
            queue))
        p.start()
        procs.append(p)
    try:
        return _collect(queue, procs)
    except ConfigError:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join(timeout=60)
            if p.is_alive():
                p.terminate()


def _collect(results_q, procs) -> dict:
    """{rank: payload} from every worker.  Raises ConfigError as soon as a
    worker has exited without posting, _GRACE_S after the first error
    payload (the caller then terminates the others), or after
    _RESULT_TIMEOUT_S without a result."""
    results, exited, lost = {}, {}, {}
    deadline = time.monotonic() + _RESULT_TIMEOUT_S
    failed = False
    while len(results) < len(procs) and not lost and time.monotonic() <= deadline:
        try:
            rank, payload = results_q.get(timeout=_POLL_S)
            results[rank] = payload
            if not failed:
                failed = "error" in payload
                deadline = time.monotonic() + (_GRACE_S if failed else _RESULT_TIMEOUT_S)
            continue
        except Empty:
            pass
        # a worker's result is in the pipe before the worker exits, so a
        # rank that had exited before this empty poll began posts nothing
        lost = {r: c for r, c in exited.items() if r not in results}
        exited = {r: p.exitcode for r, p in enumerate(procs) if p.exitcode is not None}
    if failed or lost:
        raise ConfigError(_failure_report(results, lost, len(procs)))
    if len(results) < len(procs):
        missing = sorted(set(range(len(procs))) - set(results))
        raise ConfigError(f"no result from ranks {missing} within {_RESULT_TIMEOUT_S:.0f} s")
    return results


def _failure_report(results: dict, lost: dict, nranks: int) -> str:
    """One line, root cause first: workers that exited without a result,
    then worker exceptions other than TransportError (in the order they were
    posted), then the transport failures that follow from them, then the
    ranks that posted nothing.  Full tracebacks go to the log."""
    errors = []
    for r, v in results.items():
        if "error" in v:
            logger.debug("rank %d failed: %s", r, v["error"])
            errors.append((r, v["error"].splitlines()[0]))
    root = [f"worker exited without a result: rank {r} (exit code {c})"
            for r, c in lost.items()]
    root += [f"rank {r}: {msg}" for r, msg in errors if not msg.startswith("TransportError")]
    then = [f"rank {r}: {msg}" for r, msg in errors if msg.startswith("TransportError")]
    if not root:
        root, then = then[:1], then[1:]
    parts = ["worker failures: " + "; ".join(root)]
    if then:
        parts.append("then " + "; ".join(then))
    silent = sorted(set(range(nranks)) - set(results) - set(lost))
    if silent:
        parts.append(f"no result from ranks {silent}")
    return "; ".join(parts)


class _InlineQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


def bench_to_row(shards_dir: str, cfg: RunConfig, steps: int = 50,
                 base_port: int = 29400) -> list:
    """Benchmark all ranks; one CSV row in the bench schema."""
    results = run_workers(shards_dir, cfg, steps, "bench", base_port=base_port)
    nranks = len(results)
    mean_step = max(v["stats"]["mean"] for v in results.values())
    total_flops = sum(v["flops"] for v in results.values())
    total_bytes = sum(v["bytes"] for v in results.values())
    elements = sum(v["elements"] for v in results.values())
    ledger = PerfLedger()
    ledger.stat("all").flops = total_flops
    ledger.stat("all").bytes_read = total_bytes
    ledger.step_times = [mean_step] * steps
    meta = {
        "ranks": nranks, "workers": nranks, "elements": elements,
        "p": cfg.get_int("solver.p", 3),
        "fusion": cfg.get_bool("solver.fusion", True),
    }
    return bench_csv_row(meta, mean_step, ledger)
