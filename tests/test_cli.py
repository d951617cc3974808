import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from fluxrecon.cli import main
from fluxrecon.pipeline import SolverRank


def run_cli(*args):
    return main(list(args))


class TestMakeFixture:
    @pytest.mark.parametrize("case", ["vortex", "sod", "ls89-2d", "tgv"])
    def test_emits_mesh_and_config(self, case, tmp_path):
        assert run_cli("make-fixture", "--case", case, "--out", str(tmp_path)) == 0
        stem = case.replace("-", "_")
        assert (tmp_path / f"{stem}.msh").exists()
        assert (tmp_path / f"{stem}.cfg").exists()
        from fluxrecon.io.config import RunConfig
        from fluxrecon.io.gmsh import import_gmsh_ascii

        RunConfig.load(str(tmp_path / f"{stem}.cfg"))
        import_gmsh_ascii(str(tmp_path / f"{stem}.msh"))

    @pytest.mark.parametrize("case, size", [
        ("vortex", "0"), ("tgv", "-2"), ("sod", "-3"), ("ls89-2d", "-6"),
        ("vortex", "2"), ("tgv", "2"),
    ])
    def test_bad_size_exits_1(self, case, size, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("make-fixture", "--case", case, "--out", str(out),
                       "--size", size) == 1
        assert capsys.readouterr().err.startswith("error: MeshError: ")
        assert not out.exists()

    def test_ls89_config_carries_published_table(self, tmp_path):
        run_cli("make-fixture", "--case", "ls89-2d", "--out", str(tmp_path))
        from fluxrecon.io.config import RunConfig

        cfg = RunConfig.load(str(tmp_path / "ls89_2d.cfg"))
        assert cfg.get_float("case.chord_m", 0) == pytest.approx(0.067647)
        assert cfg.get_float("case.pitch_per_chord", 0) == pytest.approx(0.85)
        assert cfg.get_float("case.stagger_deg", 0) == pytest.approx(55.0)
        assert cfg.get_float("case.mach_exit", 0) == pytest.approx(0.84)
        assert cfg.get_float("case.mach_inlet", 0) == pytest.approx(0.15)
        assert cfg.get_float("case.reynolds", 0) == pytest.approx(0.57e6)


class TestPipelineCommands:
    def make_vortex(self, tmp_path, size=6):
        run_cli("make-fixture", "--case", "vortex", "--out", str(tmp_path),
                "--size", str(size))
        return str(tmp_path / "vortex.msh"), str(tmp_path / "vortex.cfg")

    def test_partition_solve_smoke(self, tmp_path):
        mesh, cfg = self.make_vortex(tmp_path)
        sh = str(tmp_path / "s1")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "1",
                       "--config", cfg, "--out", sh) == 0
        out = str(tmp_path / "out")
        assert run_cli("solve", "--shards", sh, "--config", cfg,
                       "--steps", "2", "--out", out) == 0
        assert os.path.exists(os.path.join(out, "solution_0000.vtk"))
        assert os.path.exists(os.path.join(out, "index.txt"))

    def test_bench_produces_csv_row(self, tmp_path):
        mesh, cfg = self.make_vortex(tmp_path)
        sh = str(tmp_path / "s1")
        run_cli("partition", "--mesh", mesh, "--ranks", "1",
                "--config", cfg, "--out", sh)
        out_csv = str(tmp_path / "bench.csv")
        assert run_cli("bench", "--shards", sh, "--config", cfg,
                       "--steps", "6", "--out", out_csv) == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 1
        assert float(rows[0]["gflops_rate"]) > 0
        assert int(rows[0]["elements"]) == 36
        assert rows[0]["fusion"] == "on"

    def test_report_from_series(self, tmp_path):
        b = tmp_path / "series.csv"
        with open(b, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ranks", "workers", "elements", "p", "fusion",
                        "mean_step_s", "flops", "gflops_rate", "bytes_moved"])
            w.writerow([1, 1, 100, 3, "on", 1.0, 100, 1, 10])
            w.writerow([2, 2, 100, 3, "on", 0.6, 100, 1, 10])
        out = str(tmp_path / "rep.csv")
        assert run_cli("report", "--series", str(b), "--mode", "strong",
                       "--out", out) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "resources,mean_step_s,speedup,efficiency"
        assert len(lines) == 3

    def test_startup_order_switch_runs(self, tmp_path):
        """At 1 rank the solved state is, bit for bit, a hand-run degree-0
        solve, interpolated onto the p=3 points, then the same steps."""
        from fluxrecon import driver
        from fluxrecon.io.config import RunConfig
        from fluxrecon.io.shards import read_shards
        from fluxrecon.pipeline import interpolate_state

        mesh, cfg = self.make_vortex(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("solver.startup_steps = 2\nsolver.startup_p = 0\n")
        sh = str(tmp_path / "s1")
        run_cli("partition", "--mesh", mesh, "--ranks", "1",
                "--config", cfg, "--out", sh)
        assert run_cli("solve", "--shards", sh, "--config", cfg,
                       "--steps", "2") == 0
        conf = RunConfig.load(cfg)
        got = driver.run_workers(sh, conf, 2, "solve")[0]["state"]

        shard = read_shards(sh, ranks=[0])[0]
        opts = conf.solver_options()
        low = driver.build_solver(shard, conf, options=dataclasses.replace(opts, p=0))
        driver.initialize(low, conf)
        low.run_steps(2)
        high = driver.build_solver(shard, conf)
        high.Q_upts = interpolate_state(low.Q_upts, "quad", 0, 3)
        high.run_steps(2)
        assert opts.p == 3
        assert np.array_equal(got, high.Q_upts)

    def test_unparsable_config_value_exits_1_with_one_error_line(self, tmp_path, capsys):
        mesh, cfg = self.make_vortex(tmp_path, size=3)
        sh = str(tmp_path / "s1")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "1",
                       "--config", cfg, "--out", sh) == 0
        with open(cfg, "a") as fh:
            fh.write("solver.p = 2.5\n")
        capsys.readouterr()
        assert run_cli("solve", "--shards", sh, "--config", cfg, "--steps", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "solver.p: cannot parse integer from '2.5'" in err

    @pytest.mark.parametrize("lines, match", [
        ("output.format = vtk\n", "output.format"),
        ("output.format = csv-surface\noutput.patch = blade\n", "output.patch"),
    ])
    def test_bad_output_config_fails_before_the_first_step(self, tmp_path, capsys,
                                                            monkeypatch, lines, match):
        mesh, cfg = self.make_vortex(tmp_path, size=3)
        with open(cfg, "a") as fh:
            fh.write(lines)
        sh = str(tmp_path / "s1")
        run_cli("partition", "--mesh", mesh, "--ranks", "1",
                "--config", cfg, "--out", sh)
        steps = []
        monkeypatch.setattr(SolverRank, "advance_step",
                            lambda self, Q, dt: steps.append(dt) or Q)
        capsys.readouterr()
        assert run_cli("solve", "--shards", sh, "--config", cfg, "--steps", "20",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and match in err
        assert steps == []

    def test_unknown_flag_usage_exit_2(self, tmp_path, capsys):
        # the second input pins that solve takes no port option
        for extra in (["--nonsense"], ["--base-port", "1"]):
            with pytest.raises(SystemExit) as exc:
                run_cli("solve", "--shards", str(tmp_path / "s"),
                        "--config", str(tmp_path / "c.cfg"), "--steps", "1", *extra)
            assert exc.value.code == 2

    def test_machine_parsable_error_line(self, tmp_path, capsys):
        code = run_cli("solve", "--shards", str(tmp_path / "missing"),
                       "--config", str(tmp_path / "missing.cfg"),
                       "--steps", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" == err[err.index("\n"):]

    def test_ls89_fixture_solves(self, tmp_path):
        run_cli("make-fixture", "--case", "ls89-2d", "--out", str(tmp_path))
        mesh = str(tmp_path / "ls89_2d.msh")
        cfg = str(tmp_path / "ls89_2d.cfg")
        sh = str(tmp_path / "s1")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "1",
                       "--config", cfg, "--out", sh) == 0
        assert run_cli("solve", "--shards", sh, "--config", cfg,
                       "--steps", "3") == 0

    def test_sod_fixture_solves(self, tmp_path):
        run_cli("make-fixture", "--case", "sod", "--out", str(tmp_path),
                "--size", "40")
        mesh = str(tmp_path / "sod.msh")
        cfg = str(tmp_path / "sod.cfg")
        sh = str(tmp_path / "s1")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "1",
                       "--config", cfg, "--out", sh) == 0
        assert run_cli("solve", "--shards", sh, "--config", cfg,
                       "--steps", "5") == 0


class TestMultiRank:
    def test_partition_multi_rank_then_solve_agrees_with_serial(self, tmp_path):
        """partition --ranks 4, solve over worker processes, compare the
        final state with the 1-rank run (rank-invariance through the CLI
        surface)."""
        run_cli("make-fixture", "--case", "vortex", "--out", str(tmp_path),
                "--size", "6")
        mesh = str(tmp_path / "vortex.msh")
        cfg_path = str(tmp_path / "vortex.cfg")
        with open(cfg_path, "a") as fh:
            fh.write("solver.deterministic = true\n")
        s1, s4 = str(tmp_path / "s1"), str(tmp_path / "s4")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "1",
                       "--config", cfg_path, "--out", s1) == 0
        assert run_cli("partition", "--mesh", mesh, "--ranks", "4",
                       "--config", cfg_path, "--out", s4) == 0
        from fluxrecon import driver
        from fluxrecon.io.config import RunConfig

        cfg = RunConfig.load(cfg_path)
        r1 = driver.run_workers(s1, cfg, 4, "solve")
        r4 = driver.run_workers(s4, cfg, 4, "solve")
        ref = {}
        for v in r1.values():
            for g, q in zip(v["gids"], v["state"]):
                ref[g] = np.array(q)
        for v in r4.values():
            for g, q in zip(v["gids"], v["state"]):
                assert np.array_equal(np.array(q), ref[g])

    def test_concurrent_solves_agree_with_serial(self, tmp_path):
        """Three 3-rank solves running at once share no resource: each
        final state equals the 1-rank run bit for bit."""
        import threading

        from fluxrecon import driver
        from fluxrecon.io.config import RunConfig

        run_cli("make-fixture", "--case", "vortex", "--out", str(tmp_path),
                "--size", "10")
        mesh = str(tmp_path / "vortex.msh")
        cfg_path = str(tmp_path / "vortex.cfg")
        with open(cfg_path, "a") as fh:
            fh.write("solver.deterministic = true\n")
        cfg = RunConfig.load(cfg_path)
        s1, s3 = str(tmp_path / "s1"), str(tmp_path / "s3")
        driver.partition_to_dir(mesh, 1, cfg, s1)
        driver.partition_to_dir(mesh, 3, cfg, s3)
        ref = {}
        for v in driver.run_workers(s1, cfg, 6, "solve").values():
            for g, q in zip(v["gids"], v["state"]):
                ref[g] = np.array(q)
        outcomes = [None] * 3

        def solve(i):
            try:
                outcomes[i] = driver.run_workers(s3, cfg, 6, "solve")
            except Exception as exc:  # noqa: BLE001 - reported below
                outcomes[i] = exc

        threads = [threading.Thread(target=solve, args=(i,), daemon=True)
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for res in outcomes:
            assert isinstance(res, dict), res
            got = {g: np.array(q) for v in res.values()
                   for g, q in zip(v["gids"], v["state"])}
            assert got.keys() == ref.keys()
            assert all(np.array_equal(got[g], ref[g]) for g in ref)


class TestWorkerFailure:
    def test_killed_worker_reported_within_seconds(self, tmp_path, capsys):
        """A worker killed without posting a result makes the CLI print one
        error line naming its rank and exit code, seconds after the kill."""
        import multiprocessing as mp
        import signal
        import threading
        import time

        run_cli("make-fixture", "--case", "vortex", "--out", str(tmp_path),
                "--size", "8")
        mesh, cfg = str(tmp_path / "vortex.msh"), str(tmp_path / "vortex.cfg")
        sh = str(tmp_path / "s2")
        assert run_cli("partition", "--mesh", mesh, "--ranks", "2",
                       "--config", cfg, "--out", sh) == 0
        codes = []
        solve = threading.Thread(target=lambda: codes.append(run_cli(
            "solve", "--shards", sh, "--config", cfg, "--steps", "100000")),
            daemon=True)
        solve.start()
        try:
            victim = None
            limit = time.monotonic() + 60
            while victim is None and time.monotonic() < limit:
                victim = next((p for p in mp.active_children()
                               if p.name == "fluxrecon-rank-1" and p.pid), None)
                time.sleep(0.1)
            assert victim is not None, "worker rank 1 never started"
            time.sleep(1.0)
            killed = time.monotonic()
            os.kill(victim.pid, signal.SIGKILL)
            solve.join(timeout=60)
            took = time.monotonic() - killed
        finally:
            for p in mp.active_children():
                p.terminate()
                p.join(timeout=10)
        assert not solve.is_alive()
        assert codes == [1]
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: worker failures: worker exited "
                              f"without a result: rank 1 (exit code {-signal.SIGKILL})")
        assert took < 10.0

    def test_raising_worker_reported_first_within_seconds(self, tmp_path, capsys):
        """A worker that raises (rank 1 reads a truncated shard) ends a
        3-rank solve within seconds.  The error line names rank 1's
        exception before any other rank; the other ranks, blocked in their
        first collective waiting for rank 1, are stopped."""
        import multiprocessing as mp
        import threading
        import time

        run_cli("make-fixture", "--case", "vortex", "--out", str(tmp_path),
                "--size", "8")
        mesh, cfg = str(tmp_path / "vortex.msh"), str(tmp_path / "vortex.cfg")
        sh = tmp_path / "s3"
        assert run_cli("partition", "--mesh", mesh, "--ranks", "3",
                       "--config", cfg, "--out", str(sh)) == 0
        shard = sh / "shard_0001.zfrm"
        data = shard.read_bytes()
        shard.write_bytes(data[:len(data) // 2])
        codes = []
        solve = threading.Thread(target=lambda: codes.append(run_cli(
            "solve", "--shards", str(sh), "--config", cfg, "--steps", "2")),
            daemon=True)
        start = time.monotonic()
        solve.start()
        try:
            solve.join(timeout=60)
            took = time.monotonic() - start
        finally:
            for p in mp.active_children():
                p.terminate()
                p.join(timeout=10)
        assert not solve.is_alive()
        assert codes == [1]
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith("error: ConfigError: worker failures: rank 1: ")
        others = [line.find(f"rank {r}") for r in (0, 2)]
        assert all(i == -1 or i > line.index("rank 1: ") for i in others)
        assert took < 15.0
