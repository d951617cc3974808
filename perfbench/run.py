"""Time-to-solution benchmark for fluxrecon.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` (the default) runs every workload in turn.  Each
workload runs in a child process (``workload.py``) with one BLAS thread;
the child is killed if it outlives its time limit, and the run then counts
as failed.  With ``--trace 0`` the result line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for what each metric means and which inputs are used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"

# name -> fixture case, fixture size, ranks, time steps per operation
WORKLOADS = {
    "vortex2d-p3": {"case": "vortex", "size": 64, "ranks": 1, "steps": 40},
    "tgv3d-viscous-p3": {"case": "tgv", "size": 6, "ranks": 1, "steps": 16},
    "cascade2d-r2": {"case": "ls89-2d", "size": 1500, "ranks": 2, "steps": 8},
}

END_TO_END = {"setup_s": "s", "step_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "gmsh.import_s": "s", "gmsh.mesh_bytes": "B",
    "mesh_core.faces_s": "s", "mesh_core.faces": "count",
    "partition.partition_s": "s", "partition.edge_cut": "count",
    "partition.imbalance": "ratio",
    "prep.match_s": "s", "prep.nbx_calls": "count", "prep.nbx_bytes": "B",
    "shards.write_s": "s", "shards.read_s": "s", "shards.bytes": "B",
    "solver.build_s": "s", "operators.geometry_s": "s",
    "operators.geometry_calls": "count", "operators.face_geometry_calls": "count",
    "solver.residual_s": "s/step", "solver.residual_calls": "count/step",
    "solver.dt_s": "s/step", "solver.positivity_s": "s/step",
    "physics.riemann_s": "s/step", "physics.flux_s": "s/step",
    "physics.viscous_s": "s/step", "physics.boundary_s": "s/step",
    "physics.sponge_s": "s/step",
    "halo.exchange_s": "s/step", "halo.exchanges": "count/step",
    "halo.bytes": "B/step",
    "comm.allreduce_s": "s/step", "comm.allreduce_calls": "count/step",
    "perf.flops_per_step": "flop/step", "perf.bytes_per_step": "B/step",
    "perf.flops_per_byte": "flop/B", "perf.gflops": "GFLOP/s",
    "perf.prefetch_copies": "count/step",
    "solution.write_s": "s", "solution.bytes": "B",
    "trace.overhead_s": "s/step",
}


def run_child(name, seed, seconds, trace):
    """Run one workload process; return its decoded result or None."""
    spec = WORKLOADS[name]
    workdir = os.path.join(OUT_DIR, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    src = os.path.abspath("src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--spec", json.dumps(spec), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir,
           "--trace-file", os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=seconds + 110)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded its time limit; killed", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(result, trace):
    """Result line for one workload: counts and medians over operations."""
    if result is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    ops = result["ops"]
    good = [op for op in ops if op["ok"]]
    for i, op in enumerate(ops):
        for err in op["errors"]:
            print(f"perfbench: operation {i} failed: {err}", file=sys.stderr)
    plain = [op for op in good if not op["traced"]]
    if trace:
        traced = [op for op in good if op["traced"]]
        values = {k: statistics.median(op["layers"][k] for op in traced)
                  for k in PER_LAYER if k != "trace.overhead_s"} if traced else {}
        if traced and plain:
            values["trace.overhead_s"] = (
                statistics.median(s for op in traced for s in op["steps"])
                - statistics.median(s for op in plain for s in op["steps"]))
        units = PER_LAYER
    else:
        values = {}
        if plain:
            values = {
                "setup_s": statistics.median(op["setup_s"] for op in plain),
                "step_s": statistics.median(s for op in plain for s in op["steps"]),
                "run_s": statistics.median(op["run_s"] for op in plain),
                "peak_rss_mb": result["peak_rss_mb"],
            }
        units = END_TO_END
    return {
        "correct": len(good) == len(ops) and set(values) == set(units),
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _stop(signum, _frame):
    sys.exit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description="fluxrecon time-to-solution benchmark")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fluxrecon", "__init__.py")):
        print("perfbench: run from the repository root; src/fluxrecon not found",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        began = time.perf_counter()
        results[name] = summarize(run_child(name, args.seed, args.seconds, args.trace),
                                  args.trace)
        res = results[name]
        print(f"{name}: {res['attempted']} operations, {res['failed']} failed, "
              f"{time.perf_counter() - began:.1f} s")
        for key, m in res["metrics"].items():
            print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
