import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrecon.errors import MeshError, NonManifoldError, TransportError
from fluxrecon.fixtures import box_mesh
from fluxrecon.mesh_core import build_dual_graph, build_face_list, match_local_faces
from fluxrecon.prep import (
    SimCluster,
    distribute_entities,
    nbx_exchange,
    partition_mesh,
    prepare_shards,
)
from fluxrecon.prep.distribute import allreduce_min, allreduce_sum
from fluxrecon.prep.matching import flatten_boundary_records

from oracles import internal_keys, random_partition


class TestDistributeEntities:
    def test_single_rank(self):
        r = distribute_entities(10, 1, 0)
        assert (r.begin, r.end) == (0, 10)

    def test_balanced_split(self):
        assert (distribute_entities(10, 3, 0).begin, distribute_entities(10, 3, 0).end) == (0, 4)
        assert (distribute_entities(10, 3, 1).begin, distribute_entities(10, 3, 1).end) == (4, 7)
        assert (distribute_entities(10, 3, 2).begin, distribute_entities(10, 3, 2).end) == (7, 10)

    def test_paper_load_per_core(self):
        # 211e6 entities over 19.2e6 ranks: chunk sizes are 10 or 11
        total, ranks = 211_000_000, 19_200_000
        sizes = {distribute_entities(total, ranks, r).size
                 for r in (0, 1, total % ranks - 1, total % ranks, ranks - 1)}
        assert sizes == {10, 11}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 64))
    def test_cover_disjoint_balanced(self, count, nranks):
        ranges = [distribute_entities(count, nranks, r) for r in range(nranks)]
        assert ranges[0].begin == 0 and ranges[-1].end == count
        for a, b in zip(ranges, ranges[1:]):
            assert a.end == b.begin
        sizes = {r.size for r in ranges}
        assert max(sizes) - min(sizes) <= 1

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            distribute_entities(10, 2, 2)


class TestNbx:
    def test_all_empty(self):
        def prog(ctx):
            return nbx_exchange(ctx, {d: b"" for d in range(ctx.nranks)})

        for res in SimCluster(4, seed=0).run(prog):
            assert res == {}

    def test_two_rank_swap(self):
        def prog(ctx):
            peer = 1 - ctx.rank
            return nbx_exchange(ctx, {peer: b"x"})

        res = SimCluster(2, seed=3).run(prog)
        assert res[0] == {1: b"x"} and res[1] == {0: b"x"}

    def test_random_traffic_matrix_transposes(self, rng):
        n = 8
        traffic = {}
        for s in range(n):
            for d in range(n):
                if rng.random() < 0.4:
                    traffic[(s, d)] = rng.bytes(int(rng.integers(1, 50)))

        def prog(ctx):
            sbuf = {d: traffic.get((ctx.rank, d), b"") for d in range(n)}
            return nbx_exchange(ctx, sbuf)

        res = SimCluster(n, seed=11).run(prog)
        for d in range(n):
            for s in range(n):
                expect = traffic.get((s, d), b"")
                got = res[d].get(s, b"")
                assert got == expect

    def test_termination_under_random_schedules(self):
        # many seeds, messages delayed by the seeded scheduler, still finishes
        def prog(ctx):
            out = {}
            for r in range(3):  # chained collectives
                sbuf = {d: bytes([ctx.rank, r]) for d in range(ctx.nranks)
                        if d != ctx.rank}
                out[r] = nbx_exchange(ctx, sbuf)
            return out

        for seed in range(6):
            res = SimCluster(5, seed=seed, max_delay=4).run(prog)
            for r in range(3):
                for d in range(5):
                    for s in range(5):
                        if s != d:
                            assert res[d][r][s] == bytes([s, r])

    def test_deterministic_given_seed(self, rng):
        traffic = {(s, d): rng.bytes(8) for s in range(4) for d in range(4) if s != d}

        def prog(ctx):
            return nbx_exchange(ctx, {d: traffic[(ctx.rank, d)]
                                      for d in range(4) if d != ctx.rank})

        a = SimCluster(4, seed=9).run(prog)
        b = SimCluster(4, seed=9).run(prog)
        assert a == b

    def test_invalid_destination(self):
        def prog(ctx):
            return nbx_exchange(ctx, {7: b"x"})

        with pytest.raises(TransportError):
            SimCluster(2, seed=0).run(prog)

    def test_allreduce(self):
        def prog(ctx):
            return (allreduce_min(ctx, float(ctx.rank + 1)),
                    allreduce_sum(ctx, float(ctx.rank)))

        for mn, sm in SimCluster(4, seed=2).run(prog):
            assert mn == 1.0 and sm == 6.0


_random_partition = random_partition


def _record_on_shared_face():
    mesh = box_mesh(2, 1, 1)
    shared = set(mesh.cells[0].tolist()) & set(mesh.cells[1].tolist())
    mesh.boundary_sections[0].records.append(tuple(sorted(shared)))
    return mesh, [0, 1]


def _face_on_two_patches():
    mesh = box_mesh(2, 1, 1)
    mesh.boundary_sections[1].records.append(mesh.boundary_sections[0].records[0])
    return mesh, [0, 1]


def _edge_of_three_cells():
    """Three quads on three ranks share the edge (0, 1); every other
    edge has a boundary record."""
    from fluxrecon.mesh_core import BoundarySection, SerialMesh

    quads = [(0, 1, 2, 3), (1, 0, 4, 5), (0, 1, 6, 7)]
    edges = {tuple(sorted((q[i], q[(i + 1) % 4]))) for q in quads for i in range(4)}
    records = sorted(edges - {(0, 1)})
    mesh = SerialMesh(2, np.zeros((8, 2)), np.array(quads),
                      [BoundarySection(0, "wall", records)])
    return mesh, [0, 1, 2]


class TestDistributedMatching:
    def test_two_hexes_two_ranks(self, gas):
        mesh = box_mesh(2, 1, 1)
        shards = prepare_shards(mesh, np.array([0, 1]), 2)
        for sh in shards:
            assert len(sh.remote_faces) == 1
            face, cpl = sh.remote_faces[0]
            assert cpl.remote_rank == 1 - sh.rank
        a = shards[0].remote_faces[0][1]
        b = shards[1].remote_faces[0][1]
        assert a.canonical != b.canonical
        assert a.canonical_corners == b.canonical_corners

    def test_single_rank_degenerate(self):
        mesh = box_mesh(2, 2, 2)
        shards = prepare_shards(mesh, np.zeros(8, np.int64), 1)
        assert shards[0].remote_faces == []
        assert len(shards[0].boundary_faces) == 24

    def test_matches_serial_oracle_box(self, rng):
        mesh = box_mesh(4, 4, 4)
        assignment = _random_partition(rng, 64, 4)
        shards = prepare_shards(mesh, assignment, 4)
        serial_internal, _ = match_local_faces(build_face_list(mesh.cells))
        serial_keys = internal_keys(serial_internal)
        dist_keys = set()
        for sh in shards:
            dist_keys.update(f.key for f in sh.internal_faces)
            dist_keys.update(f.key for f, _ in sh.remote_faces)
        assert dist_keys == serial_keys
        assert sum(len(sh.boundary_faces) for sh in shards) == 96

    def test_boundary_round_trip_named_patches(self, rng):
        from fluxrecon.fixtures import cascade_mesh_2d
        from fluxrecon.io.gmsh import apply_periodic

        mesh = cascade_mesh_2d(nx=12, ny=4)
        pitch = 0.85 * 0.067647
        mesh = apply_periodic(mesh, [("per_lo", "per_hi", (0.0, pitch))])
        serial = prepare_shards(mesh, np.zeros(48, np.int64), 1)[0]
        parts = _random_partition(rng, 48, 4)
        shards = prepare_shards(mesh, parts, 4)
        serial_assign = {(f.left, f.patch_id) for f in serial.boundary_faces}
        dist_assign = set()
        for sh in shards:
            dist_assign.update((f.left, f.patch_id) for f in sh.boundary_faces)
        assert dist_assign == serial_assign
        names = set()
        for sh in shards:
            names.update(sh.patch_names[f.patch_id] for f in sh.boundary_faces)
        assert names == {"inlet", "outlet", "blade"}

    def test_block_routing_matches_modulo(self, rng):
        mesh = box_mesh(3, 3, 3)
        assignment = _random_partition(rng, 27, 3)
        a = prepare_shards(mesh, assignment, 3, routing="modulo")
        b = prepare_shards(mesh, assignment, 3, routing="block")
        for sa, sb in zip(a, b):
            ka = {(f.key) for f, _ in sa.remote_faces}
            kb = {(f.key) for f, _ in sb.remote_faces}
            assert ka == kb

    def test_coupling_involution(self, rng):
        mesh = box_mesh(6, 6, periodic=(True, True))
        assignment = _random_partition(rng, 36, 4)
        shards = prepare_shards(mesh, assignment, 4)
        seen = {}
        for sh in shards:
            for f, c in sh.remote_faces:
                key = tuple(sorted([(c.local_gid, c.local_face),
                                    (c.remote_tag[2], c.remote_tag[3])]))
                seen.setdefault(key, []).append((sh.rank, c))
        for key, pair in seen.items():
            assert len(pair) == 2
            (ra, ca), (rb, cb) = pair
            assert ca.canonical != cb.canonical
            assert ca.canonical_corners == cb.canonical_corners
            assert ca.remote_rank == rb and cb.remote_rank == ra

    @pytest.mark.parametrize("periodic", [False, True], ids=["patches", "periodic"])
    def test_disjoint_boxes_rank_without_remote_faces(self, periodic):
        """Two disjoint 4x4 quad boxes on 3 ranks, rank 2 owning one whole
        box: rank 2 has no face left to couple (and, periodic, no
        uncoupled face at all) yet must decode its peers' 2-D records."""
        from fluxrecon.mesh_core import BoundarySection, SerialMesh

        a = box_mesh(4, 4, periodic=(periodic, periodic))
        b = box_mesh(4, 4, origin=(2.0, 0.0), periodic=(periodic, periodic))
        nv = a.vertices.shape[0]
        cells = np.concatenate([a.cells, b.cells + nv])
        sections = [BoundarySection(sa.patch_id, sa.name,
                                    sa.records + [tuple(v + nv for v in r) for r in sb.records])
                    for sa, sb in zip(a.boundary_sections, b.boundary_sections)]
        alias = (np.concatenate([a.vertex_alias, b.vertex_alias + nv])
                 if periodic else None)
        mesh = SerialMesh(2, np.concatenate([a.vertices, b.vertices]), cells,
                          sections, alias)
        assignment = np.array([0] * 8 + [1] * 8 + [2] * 16)
        for sim_seed in (0, 1, 2):
            shards = prepare_shards(mesh, assignment, 3, sim_seed=sim_seed)
            assert shards[2].remote_faces == []
            assert len(shards[0].remote_faces) == len(shards[1].remote_faces) > 0
            nbound = sum(len(sh.boundary_faces) for sh in shards)
            assert nbound == (0 if periodic else 32)

    def test_hole_in_mesh_detected(self):
        # drop one boundary record: its face has no partner and no patch
        mesh = box_mesh(2, 2, 1)
        del mesh.boundary_sections[0].records[0]
        from fluxrecon.errors import MeshHoleError

        with pytest.raises(MeshHoleError):
            prepare_shards(mesh, np.array([0, 1, 0, 1]), 2)

    def test_record_of_wrong_arity_rejected(self):
        mesh = box_mesh(2, 2, 1)
        mesh.boundary_sections[0].records.append((0, 1))
        with pytest.raises(MeshError, match="arity 2 != face arity 4"):
            prepare_shards(mesh, np.array([0, 1, 0, 1]), 2)

    def test_dangling_boundary_detected(self):
        mesh = box_mesh(2, 2, 1)
        # a record naming a vertex set that is no face of any cell
        mesh.boundary_sections[0].records.append((0, 1, 2, 4))
        from fluxrecon.errors import DanglingBoundaryError, MeshError

        with pytest.raises((DanglingBoundaryError, MeshError)):
            prepare_shards(mesh, np.array([0, 1, 0, 1]), 2)

    @pytest.mark.parametrize("build, error", [
        (_record_on_shared_face, MeshError),
        (_face_on_two_patches, MeshError),
        (_edge_of_three_cells, NonManifoldError),
    ], ids=["record-on-shared-face", "face-on-two-patches", "edge-of-three-cells"])
    def test_rendezvous_errors(self, build, error):
        mesh, assignment = build()
        with pytest.raises(MeshError) as excinfo:
            prepare_shards(mesh, np.array(assignment), max(assignment) + 1)
        assert excinfo.type is error

    def test_three_exchanges_per_rank(self, monkeypatch, rng):
        """Cells to owners, then faces and records to their home rank and
        the results back: three NBX rounds on every rank."""
        from fluxrecon.prep import matching

        calls = {}
        exchange = matching.nbx_exchange

        def counting(ctx, sbuffers):
            calls[ctx.rank] = calls.get(ctx.rank, 0) + 1
            return exchange(ctx, sbuffers)

        monkeypatch.setattr(matching, "nbx_exchange", counting)
        mesh = box_mesh(6, 6, periodic=(True, False))
        prepare_shards(mesh, _random_partition(rng, 36, 3), 3)
        assert calls == {0: 3, 1: 3, 2: 3}


class TestPartition:
    def graph(self, mesh):
        internal, _ = match_local_faces(build_face_list(mesh.cells))
        return build_dual_graph(mesh.cells, internal)

    def test_single_part(self):
        g = self.graph(box_mesh(4, 4, 4))
        assert np.all(partition_mesh(g, 1) == 0)

    def test_box_into_four_balanced(self):
        g = self.graph(box_mesh(4, 4, 4))
        part = partition_mesh(g, 4)
        counts = np.bincount(part, minlength=4)
        assert counts.min() >= 15 and counts.max() <= 17

    def test_weighted_chain_exhaustive_oracle(self):
        mesh = box_mesh(8, 1, 1)
        internal, _ = match_local_faces(build_face_list(mesh.cells))
        weights = {i: w for i, w in enumerate((2, 2, 2, 2, 1, 1, 1, 1))}
        g = build_dual_graph(mesh.cells, internal)
        g.weight = np.array(list(weights.values()))
        part = partition_mesh(g, 2)
        loads = [sum(weights[i] for i in range(8) if part[i] == s) for s in (0, 1)]
        # exhaustive contiguous-split oracle: best achievable is 6/6
        best = min(max(sum(list(weights.values())[:k]), sum(list(weights.values())[k:]))
                   for k in range(1, 8))
        assert max(loads) == best == 6

    def test_imbalance_bound(self):
        g = self.graph(box_mesh(6, 6, 2))
        for nparts in (2, 3, 4, 6, 8):
            part = partition_mesh(g, nparts)
            loads = np.bincount(part, minlength=nparts)
            assert loads.min() > 0
            imbalance = loads.max() / loads.mean()
            ceil_bound = np.ceil(72 / nparts) * nparts / 72
            assert imbalance <= max(1.10, ceil_bound) + 1e-12

    def test_deterministic_seeded(self):
        g = self.graph(box_mesh(5, 5, 1))
        assert np.array_equal(partition_mesh(g, 3, seed=7), partition_mesh(g, 3, seed=7))

    def test_errors(self):
        g = self.graph(box_mesh(2, 1, 1))
        with pytest.raises(MeshError):
            partition_mesh(g, 3)
        with pytest.raises(MeshError):
            partition_mesh(g, 0)

    # sha256 of the int64 bytes of partition_mesh's output, taken from the
    # list-frontier partitioner that the CSR version replaced
    GOLDEN = {
        ("box", 2, 0): "7b0a2f92997a7cd172317f979b72c16428bd2a0bf1f7390c1c9d9138180a7f2d",
        ("box", 3, 0): "aaa5e35396ee20154cd88e148983e0bf6414a94578818fbebaebf4e5320ec923",
        ("box", 4, 0): "5144b23920ab2b7466138839f817fb3e3545572803e8d8cea24769da760d1e07",
        ("box", 6, 0): "f31e719f5c31e661913606b03a88675152417c3df7cadddb4ed4a20cdfd1d5b3",
        ("box", 8, 0): "6c0f0744ca044d0a6ab9df1b0e6293c441ffdb6827155ad03c382555742eb0d7",
        ("refined", 6, 0): "60fb20a5cf8bb76c81754259365a6fe8a738f794c38536c5c29dbd9c8279c98f",
        ("refined", 6, 1): "ffcdf50e283e04eb973d379baa23e63f8862a0e60063acb68ffd8e09ad6ef191",
        ("ls89-2d", 2, 0): "f341dd9289ba094ea36e32723134891e6f42ea3477d9bc8062f72c12f94ef651",
        ("vortex", 1, 0): "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479",
    }

    @staticmethod
    def _sha(part):
        import hashlib

        return hashlib.sha256(np.ascontiguousarray(part, dtype=np.int64).tobytes()).hexdigest()

    @pytest.mark.parametrize("case, nparts, seed", sorted(GOLDEN))
    def test_golden_assignments(self, tmp_path, case, nparts, seed):
        """box: box_mesh(6, 6, 2); refined: box_mesh(7, 3, 2), whose
        6 grown parts need boundary moves that depend on the seed;
        ls89-2d (size 1500, periodic) and vortex (64 x 64) through the
        fixture files, as the benchmark reads them."""
        from fluxrecon import driver, fixtures
        from fluxrecon.io.config import RunConfig

        if case in ("box", "refined"):
            mesh = box_mesh(6, 6, 2) if case == "box" else box_mesh(7, 3, 2)
        else:
            size = 1500 if case == "ls89-2d" else 64
            mesh_path, cfg_path = fixtures.make_fixture(case, str(tmp_path), size=size)
            mesh = driver.load_mesh(mesh_path, RunConfig.load(cfg_path))
        internal, _ = match_local_faces(build_face_list(mesh.cells, mesh.vertex_alias),
                                        mesh.vertex_alias)
        g = build_dual_graph(mesh.cells, internal)
        part = partition_mesh(g, nparts, seed=seed)
        assert self._sha(part) == self.GOLDEN[(case, nparts, seed)]

    def test_matches_list_frontier_reference(self):
        """Random boxes (2-D and 3-D, some periodic), random weights with a
        heavy tail, 2-8 parts and several seeds: the same assignment as the
        dict-and-list reference, refinement moves and part steals included.
        Where the reference fails (``min`` of an empty set: every cell is
        taken before the last part), partition_mesh raises MeshError."""
        from oracles import list_frontier_partition

        rng = np.random.default_rng(2024)
        compared = 0
        for _ in range(60):
            if rng.random() < 0.5:
                nx, ny = rng.integers(2, 9), rng.integers(1, 9)
                mesh = box_mesh(nx, ny, periodic=(nx >= 3 and rng.random() < 0.3, False))
            else:
                mesh = box_mesh(rng.integers(2, 5), *rng.integers(1, 5, 2))
            g = self.graph(mesh)
            n = len(mesh.cells)
            g.weight = np.where(rng.random(n) < 0.1, rng.integers(5, 30, n),
                                rng.integers(1, 4, n))
            nparts, seed = int(rng.integers(2, min(n, 8) + 1)), int(rng.integers(0, 5))
            try:
                want = list_frontier_partition(g.adjacency, g.weights, nparts, seed)
            except ValueError:
                with pytest.raises(MeshError, match="too uneven"):
                    partition_mesh(g, nparts, seed=seed)
                continue
            assert partition_mesh(g, nparts, seed=seed).tolist() == want
            compared += 1
        assert compared >= 50

    def test_golden_weighted_chain(self):
        mesh = box_mesh(8, 1, 1)
        g = self.graph(mesh)
        g.weight = np.array([2, 2, 2, 2, 1, 1, 1, 1])
        assert partition_mesh(g, 2).tolist() == [0, 0, 0, 1, 1, 1, 1, 1]


class TestRankCountInvariance:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    def test_union_equals_serial(self, nranks, rng):
        mesh = box_mesh(4, 3, 2, periodic=(False, True, False))
        ncells = len(mesh.cells)
        assignment = (np.zeros(ncells, np.int64) if nranks == 1
                      else _random_partition(rng, ncells, nranks))
        shards = prepare_shards(mesh, assignment, nranks)
        serial_internal, _ = match_local_faces(
            build_face_list(mesh.cells, mesh.vertex_alias), mesh.vertex_alias)
        serial = internal_keys(serial_internal, mesh.vertex_alias)
        got = set()
        for sh in shards:
            got.update(f.key for f in sh.internal_faces)
            got.update(f.key for f, _ in sh.remote_faces)
        assert got == serial
        nb = sum(len(sh.boundary_faces) for sh in shards)
        assert nb == sum(len(s.records) for s in mesh.boundary_sections)


def _exchange_then_close(rank, nranks, links, queue):
    """Socket rank body: per round (one links dict each) one all-to-all nbx
    exchange, then an immediate close.  Posts (rank, error text or None)."""
    from fluxrecon.prep.transport import RankContext, SocketTransport

    try:
        for r, ends in enumerate(links):
            t = SocketTransport(rank, nranks, ends)
            ctx = RankContext(rank, nranks, t)
            got = nbx_exchange(ctx, {d: bytes([rank, r]) for d in range(nranks)
                                     if d != rank})
            t.close()
            expect = {s: bytes([s, r]) for s in range(nranks) if s != rank}
            if got != expect:
                raise AssertionError(f"round {r}: got {got!r}")
        queue.put((rank, None))
    except Exception as exc:  # noqa: BLE001 - reported to the test
        queue.put((rank, f"{type(exc).__name__}: {exc}"))


def _socket_ranks(nranks, body, timeout):
    """Run ``body(ctx)`` for every rank on daemon threads over
    ``socket_links(nranks)``; join each for at most ``timeout`` seconds.
    Returns (results, alive): per-rank results (or the exception raised)
    and whether any rank is still running."""
    import threading

    from fluxrecon.prep.transport import RankContext, SocketTransport, socket_links

    links = socket_links(nranks)
    results = [None] * nranks

    def run(rank):
        t = SocketTransport(rank, nranks, links[rank])
        try:
            results[rank] = body(RankContext(rank, nranks, t))
            t.close()
        except Exception as exc:  # noqa: BLE001 - reported to the test
            results[rank] = exc

    threads = [threading.Thread(target=run, args=(r,), daemon=True)
               for r in range(nranks)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=timeout)
    alive = any(th.is_alive() for th in threads)
    if alive:
        for ends in links:
            for sock in ends.values():
                sock.close()
    return results, alive


class TestSocketTransport:
    def test_ranks_closing_right_after_a_collective(self):
        """A rank that finishes its last collective and closes must not
        make a peer that is still reading that collective's frames fail."""
        import multiprocessing as mp

        from fluxrecon.prep.transport import socket_links

        nranks, rounds = 3, 8
        ctx = mp.get_context("spawn")
        queue = ctx.Queue()
        links = [socket_links(nranks) for _ in range(rounds)]
        procs = [ctx.Process(target=_exchange_then_close,
                             args=(r, nranks, [ln[r] for ln in links], queue))
                 for r in range(nranks)]
        try:
            for p in procs:
                p.start()
        finally:
            for ln in links:
                for ends in ln:
                    for sock in ends.values():
                        sock.close()
        try:
            results = dict(queue.get(timeout=120) for _ in range(nranks))
        finally:
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():
                    p.terminate()
        assert results == {r: None for r in range(nranks)}
        assert all(p.exitcode == 0 for p in procs)

    def test_mutual_sends_beyond_kernel_buffers(self):
        """Two ranks sending each other 16 MB per round, more than a socket
        pair holds in flight, both finish: sends never block."""
        size, rounds = 16 << 20, 3

        def body(ctx):
            got = []
            for r in range(rounds):
                out = bytes([ctx.rank + 2 * r]) * size
                got.append(nbx_exchange(ctx, {1 - ctx.rank: out}))
            return got

        results, alive = _socket_ranks(2, body, timeout=60)
        assert not alive
        for rank, got in enumerate(results):
            assert isinstance(got, list), got
            peer = 1 - rank
            for r, msg in enumerate(got):
                assert msg == {peer: bytes([peer + 2 * r]) * size}

    def test_waiting_rank_does_not_spin(self):
        """A rank waiting in a collective for a late peer sleeps in select:
        its thread's CPU time stays below a quarter of its wait."""
        import time

        def body(ctx):
            if ctx.rank == 1:
                time.sleep(0.5)
            wall, cpu = time.monotonic(), time.thread_time()
            nbx_exchange(ctx, {1 - ctx.rank: b"x"})
            return time.monotonic() - wall, time.thread_time() - cpu

        results, alive = _socket_ranks(2, body, timeout=30)
        assert not alive
        assert all(isinstance(v, tuple) for v in results), results
        wall, cpu = results[0]
        assert wall >= 0.4
        assert cpu < wall / 4
