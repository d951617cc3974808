import os

import numpy as np
import pytest

from fluxrecon.errors import ConfigError, FormatError, MeshError
from fluxrecon.fixtures import (
    box_mesh,
    cascade_mesh_2d,
    vortex_mesh,
    vortex_state,
)
from fluxrecon.io.config import RunConfig
from fluxrecon.io.gmsh import apply_periodic, import_gmsh_ascii, write_gmsh_ascii
from fluxrecon.io.shards import read_shard, read_shards, write_shard, write_shards
from fluxrecon.io import solution as solution_io
from fluxrecon.physics import GasModel
from fluxrecon.pipeline import SolverOptions, SolverRank
from fluxrecon.prep import prepare_shards


SINGLE_HEX = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
8
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
5 0 0 1
6 1 0 1
7 1 1 1
8 0 1 1
$EndNodes
$Elements
1
1 5 2 1 1 1 2 3 4 5 6 7 8
$EndElements
"""


class TestGmsh:
    def test_single_hex(self, tmp_path):
        path = tmp_path / "one.msh"
        path.write_text(SINGLE_HEX)
        mesh = import_gmsh_ascii(str(path))
        assert mesh.dim == 3
        assert mesh.vertices.shape == (8, 3)
        assert len(mesh.cells) == 1
        assert tuple(mesh.cells[0].tolist()) == tuple(range(8))

    def test_repeated_vertex_in_cell_rejected(self, tmp_path):
        path = tmp_path / "rep.msh"
        path.write_text(SINGLE_HEX.replace("1 2 3 4 5 6 7 8\n$EndElements",
                                           "1 2 3 4 5 6 7 1\n$EndElements"))
        with pytest.raises(MeshError, match="cell 0: repeated vertex ids"):
            import_gmsh_ascii(str(path))

    def test_repeated_node_id_rejected(self, tmp_path):
        path = tmp_path / "dup.msh"
        path.write_text(SINGLE_HEX.replace("8 0 1 1\n", "7 0 1 1\n"))
        with pytest.raises(FormatError, match="repeated node ids"):
            import_gmsh_ascii(str(path))

    def test_undefined_vertex_in_cell_rejected(self, tmp_path):
        path = tmp_path / "missing.msh"
        path.write_text(SINGLE_HEX.replace("1 2 3 4 5 6 7 8\n$EndElements",
                                           "1 2 3 4 5 6 7 9\n$EndElements"))
        with pytest.raises(MeshError, match="node 9"):
            import_gmsh_ascii(str(path))

    def test_tetrahedron_rejected_by_type(self, tmp_path):
        bad = SINGLE_HEX.replace("1 5 2 1 1 1 2 3 4 5 6 7 8",
                                 "1 4 2 1 1 1 2 3 4")
        path = tmp_path / "tet.msh"
        path.write_text(bad)
        with pytest.raises(FormatError, match="unsupported element type 4"):
            import_gmsh_ascii(str(path))

    def test_malformed_section_reports_line(self, tmp_path):
        bad = SINGLE_HEX.replace("$EndNodes", "$EndElements")
        path = tmp_path / "bad.msh"
        path.write_text(bad)
        with pytest.raises(FormatError):
            import_gmsh_ascii(str(path))

    def test_box_roundtrip_counts(self, tmp_path):
        mesh = box_mesh(4, 4, 4)
        path = tmp_path / "box.msh"
        write_gmsh_ascii(mesh, str(path))
        back = import_gmsh_ascii(str(path))
        assert len(back.cells) == 64
        assert back.vertices.shape == (125, 3)
        assert sum(len(s.records) for s in back.boundary_sections) == 96
        assert {s.name for s in back.boundary_sections} == \
               {"xmin", "xmax", "ymin", "ymax", "zmin", "zmax"}
        assert np.array_equal(mesh.cells, back.cells)
        assert np.allclose(mesh.vertices, back.vertices)

    def test_2d_roundtrip(self, tmp_path):
        mesh = cascade_mesh_2d(nx=12, ny=4)
        path = tmp_path / "casc.msh"
        write_gmsh_ascii(mesh, str(path))
        back = import_gmsh_ascii(str(path))
        assert back.dim == 2
        assert len(back.cells) == 48
        assert {s.name for s in back.boundary_sections} == \
               {"inlet", "outlet", "blade", "per_lo", "per_hi"}

    def test_apply_periodic_matches_builtin_alias(self, tmp_path):
        named = box_mesh(4, 3)
        paired = apply_periodic(named, [("xmin", "xmax", (1.0, 0.0)),
                                        ("ymin", "ymax", (0.0, 1.0))])
        builtin = box_mesh(4, 3, periodic=(True, True))
        assert np.array_equal(paired.vertex_alias, builtin.vertex_alias)
        assert paired.boundary_sections == []

    TWO_QUADS = """$MeshFormat
2.2 0 8
$EndMeshFormat
$PhysicalNames
2
1 1 "wall"
2 2 "fluid"
$EndPhysicalNames
$Nodes
6
1 0 0 0
2 1 0 0
3 2 0 0
4 0 1 0
5 1 1 0
6 2 1 0
$EndNodes
$Elements
4
1 1 2 1 1 1 2
2 1 2 1 1 2 3
3 3 2 2 2 1 2 5 4
4 3 2 2 2 2 3 6 5
$EndElements
"""

    def test_two_quads(self, tmp_path):
        path = tmp_path / "two.msh"
        path.write_text(self.TWO_QUADS.replace("4 0 1 0\n", "4\t0  1 0 \n"))
        mesh = import_gmsh_ascii(str(path))
        assert mesh.cells.tolist() == [[0, 1, 4, 3], [1, 2, 5, 4]]
        assert mesh.vertices.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        assert [(s.patch_id, s.name, s.records) for s in mesh.boundary_sections] == \
               [(0, "wall", [(0, 1), (1, 2)])]

    @pytest.mark.parametrize("old, new, error, message", [
        ("4 0 1 0\n", "4 0 1\n", FormatError, "14: malformed node record"),
        ("$Nodes\n6\n", "$Nodes\n7\n", FormatError, "17: malformed node record"),
        ("3 3 2 2 2 1 2 5 4\n", "3 3 2 2 2 1 2 5\n", FormatError,
         "22: element type 3 expects 4 nodes"),
        ("2 1 2 1 1 2 3\n", "2 2 2 1 1 2 3 5\n", FormatError,
         "21: unsupported element type 2"),
        ("2 1 2 1 1 2 3\n", "2 1\n", FormatError, "21: malformed element record"),
        ("$Elements\n4\n", "$Elements\n6\n", FormatError, "24: malformed element record"),
        ("$Elements\n4\n", "$Elements\nfour\n", FormatError,
         "19: malformed $Elements count"),
        ("$EndNodes", "$EndElements", FormatError, "17: missing $EndNodes"),
        ("4 3 2 2 2 2 3 6 5", "4 3 2 2 2 2 3 9 5", MeshError,
         " element names node 9, which $Nodes does not define"),
        ("2 1 2 1 1 2 3\n", "2 1 2 1 1 2 7\n", MeshError,
         " element names node 7, which $Nodes does not define"),
        ("2 1 2 1 1 2 3\n", "2 5 2 1 1 1 2 3 4 5 6 1 2\n", FormatError,
         " element type 1 has the wrong dimension for this mesh"),
    ], ids=["short-node", "nodes-count-high", "node-count", "type-mid-block",
            "short-element", "elements-count-high", "elements-count-text",
            "missing-end", "undefined-node", "undefined-boundary-node", "wrong-dimension"])
    def test_error_names_line(self, tmp_path, old, new, error, message):
        """The error text and its line number; the undefined-node and
        dimension errors name no line."""
        assert old in self.TWO_QUADS
        path = tmp_path / "bad.msh"
        path.write_text(self.TWO_QUADS.replace(old, new, 1))
        with pytest.raises(error) as excinfo:
            import_gmsh_ascii(str(path))
        assert excinfo.type is error
        assert str(excinfo.value) == f"{path}:{message}"

    def test_truncated_elements_count(self, tmp_path):
        path = tmp_path / "cut.msh"
        text = self.TWO_QUADS
        path.write_text(text[:text.index("$Elements")] + "$Elements\n")
        with pytest.raises(FormatError) as excinfo:
            import_gmsh_ascii(str(path))
        assert str(excinfo.value) == f"{path}:19: malformed $Elements count"

    @pytest.mark.parametrize("old, new, line", [
        ("2 1 2 1 1 2 3\n", "2 1 2 1 1 2 x\n", 21),
        ("4 0 1 0\n", "4 0 y 0\n", 14),
        ("$Nodes\n6\n", "$Nodes\n-1\n", 10),
    ], ids=["element-token", "node-token", "negative-count"])
    def test_unparsable_record_names_line(self, tmp_path, old, new, line):
        path = tmp_path / "bad.msh"
        path.write_text(self.TWO_QUADS.replace(old, new, 1))
        with pytest.raises(FormatError, match=f"^{path}:{line}: malformed"):
            import_gmsh_ascii(str(path))

    @pytest.mark.parametrize("case, golden", [
        ("ls89-2d", (2, (225, 2),
                     "e438a7c4abc3c1a049d4737c99699567f66987d09bd9e1b3878e7a7dfde8c0ca",
                     "1c56d4703f95603d1694efc255070b06fe015d5c33ab033cf04338aea7b6f57a",
                     "7a69221a27b08e00bf6c8e494409fe18180e494b4a8e24c0f9467da526491c94")),
        ("tgv", (3, (125, 3),
                 "0ab3db4d15d991a19f272f868e3b5f33f8ac7d906efb8ff74af6a515fca1fa11",
                 "506749ba7be0e12acae91af0558ffd57813fc88b619b1bd69aea0c3f894aa650",
                 "9508916dd4a62536745c70f133795500bf0a2ede09771337310981efbd96c313")),
        ("vortex", (2, (625, 2),
                    "88056adf87862e10fc0a21ef67b7aa5ab8d27bbb2181d9a24ea7d4dd2587e5d3",
                    "29e5894eb9e508f85e954b97d50a2f0ea670ebe1c6c05bf68d3ba922db11a9cc",
                    "acc782e5908ed8d18789b687a0e31321bd036f1e9abf4c26a761225d858ff1b8")),
        ("sod", (2, (402, 2),
                 "94bafea94bc7b0a254f1bcdd664115094cc0c76f23c005f568916767201dac21",
                 "55c88469727d48aa7819760e9a61b6c1a5b41cad965e5463dbdc38e0feb4ba0f",
                 "301fa27cc8a17e5b41b0d9b936968c019d8313695aa31a394cf101f8cc82d431")),
    ])
    def test_fixture_import_golden(self, tmp_path, case, golden):
        """Cells, vertex bytes and boundary sections of the default-size
        fixture files, pinned from the line-by-line importer that the
        block parser replaced."""
        import hashlib

        from fluxrecon import fixtures

        mesh_path, _ = fixtures.make_fixture(case, str(tmp_path))
        mesh = import_gmsh_ascii(mesh_path)
        sections = repr([(s.patch_id, s.name, s.records) for s in mesh.boundary_sections])
        got = (mesh.dim, mesh.vertices.shape,
               hashlib.sha256(mesh.cells.astype(np.int64).tobytes()).hexdigest(),
               hashlib.sha256(mesh.vertices.tobytes()).hexdigest(),
               hashlib.sha256(sections.encode()).hexdigest())
        assert got == golden

    def test_apply_periodic_unmatched_vertex(self):
        mesh = box_mesh(3, 3)
        with pytest.raises(Exception):
            apply_periodic(mesh, [("xmin", "xmax", (0.5, 0.0))])


class TestShards:
    def roundtrip(self, mesh, nranks, tmp_path, rng):
        ncells = len(mesh.cells)
        from oracles import random_partition

        assignment = random_partition(rng, ncells, nranks)
        shards = prepare_shards(mesh, assignment, nranks)
        outdir = str(tmp_path / f"shards{nranks}")
        write_shards(shards, outdir)
        back = read_shards(outdir)
        assert len(back) == nranks
        for a, b in zip(shards, back):
            assert a.rank == b.rank and a.nranks == b.nranks
            assert [c.vertex_ids for c in a.cells] == [c.vertex_ids for c in b.cells]
            assert np.array_equal(a.vertex_ids, b.vertex_ids)
            assert np.array_equal(a.vertex_coords, b.vertex_coords)
            assert [(f.left, f.right, f.orientation) for f in a.internal_faces] == \
                   [(f.left, f.right, f.orientation) for f in b.internal_faces]
            assert [(f.left, f.patch_id) for f in a.boundary_faces] == \
                   [(f.left, f.patch_id) for f in b.boundary_faces]
            assert [c for _, c in a.remote_faces] == [c for _, c in b.remote_faces]
            assert a.patch_names == b.patch_names
            if a.vertex_alias is None:
                assert b.vertex_alias is None
            else:
                assert np.array_equal(a.vertex_alias, b.vertex_alias)
        return shards, back

    def test_single_rank_equals_serial(self, tmp_path, rng):
        mesh = box_mesh(3, 2, 2)
        shards, back = self.roundtrip(mesh, 1, tmp_path, rng)
        assert len(back[0].cells) == 12
        assert back[0].num_global_cells == 12

    def test_reassembly_covers_serial_mesh(self, tmp_path, rng):
        mesh = box_mesh(6, 5, periodic=(True, False), perturb=0.1, seed=3)
        shards, back = self.roundtrip(mesh, 4, tmp_path, rng)
        gids = sorted(c.id for sh in back for c in sh.cells)
        assert gids == list(range(30))
        verts = {}
        for sh in back:
            for vid, xy in zip(sh.vertex_ids, sh.vertex_coords):
                verts[int(vid)] = xy
        for vid, xy in verts.items():
            assert np.array_equal(xy, mesh.vertices[vid])

    def test_periodic_face_keys_survive_round_trip(self, tmp_path):
        """Preparation keys faces by aliased corners; a shard read back from
        disk must carry the same keys."""
        mesh = box_mesh(4, 3, periodic=(True, False))
        shards = prepare_shards(mesh, np.array([0, 0, 1, 1] * 3), 2)
        write_shards(shards, str(tmp_path / "s"))
        for a, b in zip(shards, read_shards(str(tmp_path / "s"))):
            for faces in ("internal_faces", "boundary_faces"):
                assert [f.key for f in getattr(a, faces)] == \
                       [f.key for f in getattr(b, faces)]
            assert [f.key for f, _ in a.remote_faces] == [f.key for f, _ in b.remote_faces]
            assert a.remote_faces

    def test_corrupt_magic_rejected_before_payload(self, tmp_path, rng):
        mesh = box_mesh(2, 2, 1)
        shards = prepare_shards(mesh, np.zeros(4, np.int64), 1)
        path = str(tmp_path / "x.zfrm")
        write_shard(shards[0], path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"NOPE"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_shard(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        mesh = box_mesh(2, 2, 1)
        shards = prepare_shards(mesh, np.zeros(4, np.int64), 1)
        path = str(tmp_path / "t.zfrm")
        write_shard(shards[0], path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(FormatError):
            read_shard(path)

    def test_version_mismatch(self, tmp_path):
        mesh = box_mesh(1, 1, 1)
        shards = prepare_shards(mesh, np.zeros(1, np.int64), 1)
        path = str(tmp_path / "v.zfrm")
        write_shard(shards[0], path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = (99).to_bytes(4, "little")
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_shard(path)

    def test_missing_index(self, tmp_path):
        with pytest.raises(FormatError):
            read_shards(str(tmp_path))

    def test_solver_runs_identically_from_file(self, tmp_path, rng, gas):
        mesh = vortex_mesh(6)
        shards = prepare_shards(mesh, np.zeros(36, np.int64), 1)
        outdir = str(tmp_path / "s")
        write_shards(shards, outdir)
        back = read_shards(outdir)
        a = SolverRank(shards[0], gas, SolverOptions(p=2, deterministic=True))
        b = SolverRank(back[0], gas, SolverOptions(p=2, deterministic=True))
        a.set_state(lambda x: vortex_state(x, 0.0, gas))
        b.set_state(lambda x: vortex_state(x, 0.0, gas))
        assert np.array_equal(a.compute_residual(a.Q_upts),
                              b.compute_residual(b.Q_upts))


class TestGoldenShards:
    """Shard files are pinned byte for byte: a change to preparation or to
    the shard format that moves any byte fails here."""

    GOLDEN = {
        "vortex-8-r1": {
            "index.zfri": "9b0b68e37bb140d0c2b86b4f04bdc49a5e3e4354d7a5a32d9a15528e97ba26f4",
            "shard_0000.zfrm": "1ff37f0078d0e4ffb0fcd26febbe26a05db82ed0a6756af9fadf05c2c7660c33",
        },
        "tgv-3-r1": {
            "index.zfri": "fdbe90bf9edbce3894115e84b5642fdbbe0b360fb9349a74e18479e7c73ad191",
            "shard_0000.zfrm": "6b6d415bbec72fe56900da5835d68e5eee780e4978ebb92c15aa3f55287ce65f",
        },
        "ls89-2d-12-r2": {
            "index.zfri": "0b28a5597fad2788041cc0a9291aa3579191dc96e17e3ee5da0faf1374d67e5f",
            "shard_0000.zfrm": "2294f2cf11040a26596073e1c81d6d38ae72c6b69ee34681395215a9e6226303",
            "shard_0001.zfrm": "5626c021fb527774383b9df1c646f73833c368ac8a18a1dacb5ce8aaca2757f9",
        },
        "box3d-periodic-r2": {
            "index.zfri": "5e9086c67bad943bb3ec9ddc3ca32a648b797a28ed72f0edd4d03c0de598beee",
            "shard_0000.zfrm": "c0c23c0a74f8ff8ac25be70f7986d3624f2820b345a8036f0cee8d2576325240",
            "shard_0001.zfrm": "e344e1d5232cebc8b50822feeb131a4cb8897a4391e02d46f37c9da95f8e0593",
        },
    }

    @staticmethod
    def _hashes(outdir):
        import hashlib

        return {f: hashlib.sha256(open(os.path.join(outdir, f), "rb").read()).hexdigest()
                for f in sorted(os.listdir(outdir))}

    @pytest.mark.parametrize("case, size, nranks", [
        ("vortex", 8, 1), ("tgv", 3, 1), ("ls89-2d", 12, 2)])
    def test_fixture_shards(self, tmp_path, case, size, nranks):
        from fluxrecon import driver, fixtures

        mesh_path, cfg_path = fixtures.make_fixture(case, str(tmp_path), size=size)
        outdir = str(tmp_path / "shards")
        driver.partition_to_dir(mesh_path, nranks, RunConfig.load(cfg_path), outdir)
        assert self._hashes(outdir) == self.GOLDEN[f"{case}-{size}-r{nranks}"]

    def test_periodic_hex_box_two_ranks(self, tmp_path):
        """Renumbered hexes on a mirrored periodic wrap: remote couplings in
        seven of the eight orientations, internal faces in the eighth."""
        from oracles import twisted_hex_box

        mesh = twisted_hex_box(lambda gid: (23 * gid + 5) % 24)
        shards = prepare_shards(mesh, np.array([0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1]), 2)
        codes = {int(c) for sh in shards for c in sh.internal_rows[:, 4]}
        codes |= {int(c) for sh in shards for c in sh.remote_rows[:, 3]}
        assert codes == set(range(8))
        write_shards(shards, str(tmp_path))
        assert self._hashes(str(tmp_path)) == self.GOLDEN["box3d-periodic-r2"]


class TestConfig:
    def test_parse_and_accessors(self):
        cfg = RunConfig.parse("""
            # a comment
            solver.p = 4
            solver.cfl = 0.7
            gas.gamma = 1.4   # trailing comment
            bc.inlet.kind = riemann-inflow
            bc.inlet.p0 = 2.5
            bc.inlet.t0 = 1.1
            bc.inlet.direction = 1 0
        """)
        assert cfg.get_int("solver.p", 0) == 4
        assert cfg.get_float("solver.cfl", 0) == 0.7
        specs = cfg.boundary_specs()
        assert specs["inlet"].kind == "riemann-inflow"
        assert np.allclose(specs["inlet"].direction, [1, 0])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("solver.warp_drive = on\n")

    @pytest.mark.parametrize("key", ["solver.rk", "output.cadence", "output.mean_start",
                                     "mesh.file", "bench.warmup", "bench.steps"])
    def test_removed_key_rejected(self, key):
        with pytest.raises(ConfigError):
            RunConfig.parse(f"{key} = 1\n")

    def test_round_trip_identical_maps(self):
        text = ("solver.p = 3\nsolver.cfl = 0.5\ngas.gamma = 1.4\n"
                "bc.w.kind = slip\nsponge.out.axis = 0\nsponge.out.lo = 1\n"
                "sponge.out.hi = 2\nsponge.out.width = 0.5\n"
                "sponge.out.strength = 3\nsponge.out.ref = 1 0 0 2.5\n")
        cfg = RunConfig.parse(text)
        again = RunConfig.parse(cfg.serialize())
        assert cfg.values == again.values
        assert RunConfig.parse(again.serialize()).values == cfg.values

    def test_defaults_logged_not_fatal(self, caplog):
        import logging

        cfg = RunConfig.parse("solver.p = 2\n")
        with caplog.at_level(logging.INFO, logger="fluxrecon.io.config"):
            assert cfg.get_float("solver.cfl", 1.0) == 1.0
        assert any("defaulted" in r.message for r in caplog.records)

    def test_missing_required(self):
        cfg = RunConfig.parse("bc.inlet.kind = riemann-inflow\n")
        with pytest.raises(ConfigError):
            cfg.boundary_specs()

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("solver.p 3\n")

    def test_periodic_pairs(self):
        cfg = RunConfig.parse(
            "bc.xmin.kind = periodic\nbc.xmin.partner = xmax\n"
            "bc.xmin.translation = -1 0\n"
            "bc.xmax.kind = periodic\nbc.xmax.partner = xmin\n"
            "bc.xmax.translation = 1 0\n")
        pairs = cfg.periodic_pairs()
        assert len(pairs) == 1
        a, b, t = pairs[0]
        assert {a, b} == {"xmin", "xmax"}

    def test_solver_defaults_are_the_dataclass_defaults(self):
        assert RunConfig.parse("").solver_options() == SolverOptions()

    def test_gas_defaults_are_the_dataclass_defaults(self):
        assert RunConfig.parse("").gas_model() == GasModel()

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_block_kb_below_one_rejected(self, value):
        cfg = RunConfig.parse(f"solver.block_kb = {value}\n")
        with pytest.raises(ConfigError, match="block_kb"):
            cfg.solver_options()

    @pytest.mark.parametrize("key, value", [
        ("solver.cfl", "nan"), ("solver.cfl", "inf"), ("solver.cfl", "0"),
        ("solver.riemann", "roe"), ("solver.p", "-1"), ("solver.p", "9"),
        ("solver.ldg_tau_scale", "nan"), ("solver.ldg_tau_scale", "-1"),
        ("gas.R", "0"), ("gas.R", "-1"), ("gas.gamma", "nan"), ("gas.gamma", "1"),
        ("gas.mu", "inf"), ("gas.mu", "-0.001"), ("gas.Pr", "inf"), ("gas.Pr", "0")])
    def test_bad_solver_value_rejected_naming_the_key(self, key, value):
        """A bad solver or gas value raises a ConfigError naming the key and
        the value."""
        cfg = RunConfig.parse(f"{key} = {value}\n")
        read = cfg.gas_model if key.startswith("gas.") else cfg.solver_options
        with pytest.raises(ConfigError, match=key) as err:
            read()
        assert value in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("gas.T_ref", "0"), ("gas.mu_ref", "0"), ("gas.mu_ref", "nan"), ("gas.S", "-1")])
    def test_bad_sutherland_constant_rejected_naming_the_key(self, key, value):
        """Sutherland's constants are checked when the law is on, and only
        then."""
        with pytest.raises(ConfigError, match=f"{key} .* got {value}"):
            RunConfig.parse(f"gas.sutherland = on\n{key} = {value}\n").gas_model()
        assert not RunConfig.parse(f"{key} = {value}\n").gas_model().sutherland

    _INFLOW = "bc.in.kind = riemann-inflow\nbc.in.p0 = 1.5\nbc.in.t0 = 1.1\n"

    @pytest.mark.parametrize("text, key", [
        (_INFLOW + "bc.in.direction = 1 0\nbc.in.p0 = 0", "bc.in.p0"),
        (_INFLOW + "bc.in.direction = 1 0\nbc.in.p0 = inf", "bc.in.p0"),
        (_INFLOW + "bc.in.direction = 1 0\nbc.in.t0 = -1", "bc.in.t0"),
        (_INFLOW + "bc.in.direction = 0 0", "bc.in.direction"),
        (_INFLOW + "bc.in.direction = nan 1", "bc.in.direction"),
        ("bc.out.kind = outflow\nbc.out.p_out = 0", "bc.out.p_out"),
        ("bc.w.kind = noslip-isothermal\nbc.w.t_wall = 0", "bc.w.t_wall"),
    ], ids=["inflow-p0", "inflow-p0-inf", "inflow-t0", "inflow-zero-direction",
            "inflow-nan-direction", "outflow-p_out", "isothermal-t_wall"])
    def test_bad_boundary_value_rejected_naming_the_key(self, text, key):
        """A boundary value that would make a NaN or inf ghost state fails
        when the config is read, naming its key and value."""
        value = text.splitlines()[-1].split(" = ")[1]
        with pytest.raises(ConfigError, match=key) as err:
            RunConfig.parse(text + "\n").boundary_specs()
        assert all(v in str(err.value) for v in value.split())

    @pytest.mark.parametrize("text, read", [
        ("solver.p = 2.5", lambda c: c.solver_options()),
        ("solver.ldg_tau_scale = abc", lambda c: c.solver_options()),
        ("bc.w.kind = sponge-ref\nbc.w.state = 1 0 x 2.5", lambda c: c.boundary_specs()),
    ], ids=["int", "float", "vector"])
    def test_unparsable_value_is_a_config_error_naming_key_and_value(self, text, read):
        key, value = text.splitlines()[-1].split(" = ")
        with pytest.raises(ConfigError, match=f"{key}: cannot parse .* from '{value}'"):
            read(RunConfig.parse(text + "\n"))

    def test_ldg_beta_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'solver.ldg_beta'"):
            RunConfig.parse("solver.ldg_beta = 0.5\n")

    def test_sponges(self):
        cfg = RunConfig.parse(
            "sponge.out.axis = 0\nsponge.out.lo = 1\nsponge.out.hi = 2\n"
            "sponge.out.width = 0.5\nsponge.out.strength = 3\n"
            "sponge.out.ref = 1 0 0 2.5\nsponge.out.side = hi\n")
        zones = cfg.sponge_zones()
        assert len(zones) == 1 and zones[0].from_side == "hi"


class TestSolutionOutput:
    def build(self, gas):
        mesh = vortex_mesh(4)
        shards = prepare_shards(mesh, np.zeros(16, np.int64), 1)
        s = SolverRank(shards[0], gas, SolverOptions(p=3))
        s.set_state(lambda x: vortex_state(x, 0.0, gas))
        s.compute_residual(s.Q_upts)
        return s

    def test_vtk_uniform_parses(self, tmp_path, gas):
        mesh = vortex_mesh(4)
        shards = prepare_shards(mesh, np.zeros(16, np.int64), 1)
        s = SolverRank(shards[0], gas, SolverOptions(p=2))
        from fluxrecon.physics import conserved

        s.set_state(lambda x: conserved(np.ones(x.shape[0]),
                                        np.zeros((x.shape[0], 2)),
                                        np.ones(x.shape[0]), gas))
        path = str(tmp_path / "u.vtk")
        solution_io.write_vtk(path, s, order=2, q_criterion=True)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        npts = int([l for l in lines if l.startswith("POINTS")][0].split()[1])
        assert npts == 16 * 9
        start = lines.index("SCALARS rho double") + 2
        rho = np.array([float(v) for v in lines[start:start + npts]])
        assert np.allclose(rho, 1.0, atol=1e-12)
        assert any(l.startswith("SCALARS qcriterion") for l in lines)

    def test_vtk_vortex_matches_in_memory_error(self, tmp_path, gas):
        s = self.build(gas)
        path = str(tmp_path / "v.vtk")
        solution_io.write_vtk(path, s, order=3)
        from fluxrecon.physics import pressure

        coords, vals = s.sample_solution(order=3)
        p_mem = pressure(vals, 2, gas)
        exact = vortex_state(coords.reshape(-1, 2), 0.0, gas)
        p_exact = pressure(exact, 2, gas)
        err_mem = np.abs(p_mem.reshape(-1) - p_exact).max()
        lines = open(path).read().splitlines()
        npts = int([l for l in lines if l.startswith("POINTS")][0].split()[1])
        start = lines.index("SCALARS p double") + 2
        p_file = np.array([float(v) for v in lines[start:start + npts]])
        err_file = np.abs(p_file - p_exact).max()
        assert abs(err_file - err_mem) < 1e-12

    @pytest.mark.parametrize("case, golden", [
        ("vortex", "bdb524bc83b942fbd4bcc1a61ebf367a182c39bc30c04773e771a10242f4572b"),
        ("tgv", "af3f440bf54040de07c2a7a1fcb4f2fba294d3a7a0e87c30893f47776379b95c"),
    ])
    def test_vtk_bytes_golden(self, tmp_path, gas, case, golden):
        """The file bytes of vortex 5x5 and of Taylor-Green 3^3 with the
        Q-criterion, p=3 initial states, pinned from the row-by-row
        writer that the chunked one replaced."""
        import hashlib

        from fluxrecon.fixtures import taylor_green_mesh, taylor_green_state

        if case == "vortex":
            mesh, state = vortex_mesh(5), lambda x: vortex_state(x, 0.0, gas)
        else:
            mesh, state = taylor_green_mesh(3), lambda x: taylor_green_state(x, gas)
        shard = prepare_shards(mesh, np.zeros(len(mesh.cells), np.int64), 1)[0]
        s = SolverRank(shard, gas, SolverOptions(p=3))
        s.set_state(state)
        path = str(tmp_path / "out.vtk")
        solution_io.write_vtk(path, s, q_criterion=case == "tgv")
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == golden

    def test_surface_csv_isentropic_mach_identity(self, tmp_path):
        gash = GasModel(gamma=1.4, R=287.0)
        mesh = box_mesh(4, 2, lengths=(2.0, 1.0))
        shards = prepare_shards(mesh, np.zeros(8, np.int64), 1)
        from fluxrecon.physics import BoundarySpec, conserved

        bcs = {n: BoundarySpec(n, "slip") for n in ("xmin", "xmax", "ymin", "ymax")}
        s = SolverRank(shards[0], gash, SolverOptions(p=2), boundary_specs=bcs)
        p0 = 1.4e5

        def init(x):
            n = x.shape[0]
            p = 1e5 * (1 + 0.1 * x[:, 0] / 2.0)
            rho = p / (287.0 * 300.0)
            return conserved(rho, np.zeros((n, 2)), p, gash)

        s.set_state(init)
        s.compute_residual(s.Q_upts)
        path = str(tmp_path / "s.csv")
        solution_io.write_surface_csv(path, s, "ymin", p0_ref=p0)
        import csv as csvmod

        rows = list(csvmod.DictReader(open(path)))
        assert rows
        for row in rows:
            p = float(row["p"])
            m = float(row["mach_is"])
            expect = np.sqrt(((p0 / p) ** (0.4 / 1.4) - 1) * 2 / 0.4)
            assert abs(m - expect) < 1e-9

    def test_surface_csv_rank_without_patch_faces(self, tmp_path):
        """On 4 ranks of the cascade, split into axial strips, the first and
        last strips hold no blade face: they write a header-only CSV, and the
        rows of all ranks are the 1-rank rows.  An unknown patch still
        raises on every rank."""
        from fluxrecon import driver, fixtures
        from fluxrecon.prep import RankContext, SimCluster

        mesh_path, cfg_path = fixtures.make_fixture("ls89-2d", str(tmp_path), size=24)
        cfg = RunConfig.load(cfg_path)
        mesh = driver.load_mesh(mesh_path, cfg)
        strips = np.arange(len(mesh.cells)) % 24 * 4 // 24

        def run(assignment, nranks):
            shards = prepare_shards(mesh, assignment, nranks)

            def prog(ctx):
                s = driver.build_solver(shards[ctx.rank], cfg, ctx=ctx)
                driver.initialize(s, cfg)
                s.compute_residual(s.Q_upts)
                path = str(tmp_path / f"blade_{nranks}_{ctx.rank}.csv")
                solution_io.write_surface_csv(path, s, "blade", p0_ref=2e5)
                with pytest.raises(ConfigError, match="nonesuch"):
                    solution_io.write_surface_csv(path + ".x", s, "nonesuch", p0_ref=2e5)
                return open(path).read().splitlines()

            if nranks == 1:
                return [prog(RankContext(0, 1, None))]
            return SimCluster(nranks, seed=0).run(prog)

        header = "x,y,z,p,T,mach_is"
        (serial,) = run(np.zeros(len(mesh.cells), np.int64), 1)
        parts = run(strips, 4)
        assert [len(lines) == 1 for lines in parts] == [True, False, False, True]
        assert all(lines[0] == header for lines in parts)
        assert sorted(sum((lines[1:] for lines in parts), [])) == sorted(serial[1:])
