"""Command-line surface: partition, solve, bench, report, make-fixture."""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .errors import FluxReconError
from .io.config import RunConfig
from .perf import BENCH_CSV_COLUMNS, scaling_report


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fluxrecon",
        description="High-order flux-reconstruction flow solver toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a mesh into rank shards")
    p.add_argument("--mesh", required=True)
    p.add_argument("--ranks", type=int, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="advance a sharded case in time")
    s.add_argument("--shards", required=True)
    s.add_argument("--config", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--out", default=None)

    b = sub.add_parser("bench", help="time steps and report FLOP rates")
    b.add_argument("--shards", required=True)
    b.add_argument("--config", required=True)
    b.add_argument("--steps", type=int, default=50)
    b.add_argument("--out", default=None, help="CSV to append the row to")

    r = sub.add_parser("report", help="strong/weak scaling report from bench CSVs")
    r.add_argument("--series", nargs="+", required=True)
    r.add_argument("--mode", choices=("strong", "weak"), required=True)
    r.add_argument("--out", default=None)

    f = sub.add_parser("make-fixture", help="emit a built-in mesh + config")
    f.add_argument("--case", required=True,
                   choices=("ls89-2d", "vortex", "tgv", "sod"))
    f.add_argument("--out", required=True)
    f.add_argument("--size", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except FluxReconError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    from . import driver, fixtures

    if args.command == "partition":
        cfg = RunConfig.load(args.config)
        shards = driver.partition_to_dir(args.mesh, args.ranks, cfg, args.out)
        print(f"wrote {len(shards)} shards to {args.out}")
        return 0

    if args.command == "solve":
        cfg = RunConfig.load(args.config)
        driver.run_workers(args.shards, cfg, args.steps, "solve", outdir=args.out)
        print(f"advanced {args.steps} steps"
              + (f"; output in {args.out}" if args.out else ""))
        return 0

    if args.command == "bench":
        cfg = RunConfig.load(args.config)
        row = driver.bench_to_row(args.shards, cfg, steps=args.steps)
        if args.out:
            new = not os.path.exists(args.out)
            with open(args.out, "a", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                if new:
                    w.writerow(BENCH_CSV_COLUMNS)
                w.writerow(row)
        print(",".join(str(v) for v in [*BENCH_CSV_COLUMNS]))
        print(",".join(str(v) for v in row))
        return 0

    if args.command == "report":
        resources, times = [], []
        for path in args.series:
            with open(path, newline="", encoding="utf-8") as fh:
                for rec in csv.DictReader(fh):
                    resources.append(int(rec["workers"]))
                    times.append(float(rec["mean_step_s"]))
        record = scaling_report(resources, times, mode=args.mode)
        out = record.to_csv()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        print(out, end="")
        return 0

    if args.command == "make-fixture":
        mesh_path, cfg_path = fixtures.make_fixture(args.case, args.out,
                                                    size=args.size)
        print(f"wrote {mesh_path} and {cfg_path}")
        return 0

    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
