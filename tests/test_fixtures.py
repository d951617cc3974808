"""Bit pins of the built-in meshes and fixture files, and the checks on
their cell counts and fixture sizes."""

import hashlib

import numpy as np
import pytest

from fluxrecon import fixtures
from fluxrecon.errors import MeshError
from fluxrecon.fixtures import (
    box_mesh,
    cascade_mesh_2d,
    sod_mesh,
    taylor_green_mesh,
    vortex_mesh,
)


def mesh_digest(mesh):
    """sha256 over the dimension, the dtype, shape and bytes of vertices,
    cells and alias map, and the section records."""
    h = hashlib.sha256(repr(mesh.dim).encode())
    for arr in (mesh.vertices, mesh.cells, mesh.vertex_alias):
        if arr is None:
            h.update(b"none")
        else:
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr([(s.patch_id, s.name, s.records) for s in mesh.boundary_sections]).encode())
    return h.hexdigest()


# pinned from the separate 2-D and 3-D builders, with per-vertex loops,
# that box_mesh replaced
@pytest.mark.parametrize("cells, kw, golden", [
    ((5, 4), {},
     "8f093329de0b8d3dccd3e2ca47ac819cf28a6f218ce5cb62eee7cd65d0cddc59"),
    ((6, 3), dict(lengths=(2.0, 3.0), origin=(-1.0, 0.5)),
     "e5a27f072ba4f2f746d4e1a10329f4f4c390ab0e656bfd78fb6da3c914e41aad"),
    ((6, 5), dict(periodic=(True, False), perturb=0.3, seed=4),
     "0f2b03505ca6d5d9c6242400c581f1e087b0b0017ffd5e658916d597ed89aa07"),
    ((4, 3), dict(periodic=(False, True)),
     "fadc239ad8de0bf4a83307fc9f8e1ad83f970d1598699ac8a8b865a138d6f0ee"),
    ((4, 4), dict(periodic=(True, True), perturb=0.25, seed=3),
     "69c075136533d0813dd3f77fcc77257346645c9c46a5148846ee60b0e8059723"),
    ((4, 1), dict(lengths=(4.0, 1.0), periodic=(True, True)),
     "644eb28fb8bb6d40fe763aafd2c0faa65476359f647b26a0eff14f9b66596c89"),
    ((1, 1), {},
     "6cfc97f3ffd9626c6994b2c7d2bbfe8949be81d8b0062a56d8f09d761e39623b"),
    ((3, 4, 2), {},
     "e23f853e4e6aa1e25b19d4fc29d0b7ec34ea00a29de77d655b469b06be1d53bc"),
    ((3, 3, 2), dict(perturb=0.3, seed=6),
     "b831c6f289e9f6587d258eabc38193dd4031c895806c7a1d33673670659426a6"),
    ((3, 3, 3), dict(periodic=(True, False, True)),
     "c8ab07d719db6556509a2503f700db1ad15b2ca847f4c55306feef476163f1a4"),
    ((3, 3, 2), dict(periodic=(True, True, False), perturb=0.1, seed=2),
     "a13ecf8a6280165384f82f32c4b69d1424a36e96bd5aba50745e98ecabbae17f"),
    ((3, 3, 3), dict(periodic=(True, True, True), perturb=0.2, seed=5),
     "b48bcb9d9ad0ff2fcfd696b6c374ca63e71479169dbbc8ee96ca9ed753d5ddad"),
    ((1, 1, 1), dict(periodic=(True, True, True)),
     "6c3ad419f3a72323ee0ceb50307f2c3a63d026553c0f1c5ff0ac85ce7b6150cd"),
    ((4, 3, 2), dict(lengths=(1.0, 2.0, 0.5), origin=(0.5, -1.0, 2.0),
                     periodic=(False, True, False), perturb=0.2, seed=9),
     "3d7f86b07689f0b4793029752535591da19c45dade3e4e701208be9ef44bd923"),
])
def test_box_mesh_digest(cells, kw, golden):
    assert mesh_digest(box_mesh(*cells, **kw)) == golden


@pytest.mark.parametrize("build, golden", [
    (lambda: vortex_mesh(5),
     "640d4f855a412c53db3de8a900e1ac0f9eab13fca656d3d91b1cb406b9d30be2"),
    (lambda: taylor_green_mesh(3),
     "02b482b4736d855dcf874001e4cc512215dd334e8e3f38d2c4521c48423d068e"),
    (lambda: sod_mesh(10),
     "3be8976e9fd6b82dcda00f91e4d16589d3c6d82ae0790c338c0f9b5f24f4807c"),
    (lambda: cascade_mesh_2d(),
     "31bb5ef427b70d17e62368ae657528a3250b1fd2a872b5ddc17cf04e61d280f9"),
    (lambda: cascade_mesh_2d(12, 4),
     "da5ecd2417b2ddcfb1f2bb083e87d7b98d3aa8c8bbfef60706d78c70d2128aa7"),
], ids=["vortex-5", "tgv-3", "sod-10", "cascade-24x8", "cascade-12x4"])
def test_named_mesh_digest(build, golden):
    assert mesh_digest(build()) == golden


@pytest.mark.parametrize("case, size, golden", [
    ("vortex", None, "2f87fa6e15cf9e94109daf2c753dbd5afcc3ea3acb740a24e8c25db65d7adb11"),
    ("tgv", None, "f70941beff9be1c87b3f66bacd4ce83330a8ded9b66ee7396a55ef52b1721bf4"),
    ("sod", None, "70a9327ec7d8e1d8eef83f47302718ba1f823451e7f4dce394ced9edfbded075"),
    ("sod", 6, "b83a4b81fbcea6825119509f2169c157660728284b6164cc9ebeb9e8701d5290"),
    ("ls89-2d", None, "443072efdb57901a10219a447ff02294b084595a5d3cb94aa5f8ab25373874e0"),
])
def test_fixture_config_digest(tmp_path, case, size, golden):
    """sha256 of the .cfg text, pinned from the hand-written periodic-bc
    blocks that one helper replaced."""
    _, cfg_path = fixtures.make_fixture(case, str(tmp_path), size=size)
    assert hashlib.sha256(open(cfg_path, "rb").read()).hexdigest() == golden


@pytest.mark.parametrize("cells, periodic, message", [
    ((0, 3), None, "at least 1 cell"),
    ((3, -1), None, "at least 1 cell"),
    ((2, 2, 0), None, "at least 1 cell"),
    ((-4, 1, 1), None, "at least 1 cell"),
    ((2, 3), (True, False), "1 or >= 3 cells"),
    ((3, 2, 3), (False, True, False), "1 or >= 3 cells"),
])
def test_box_mesh_rejects_bad_counts(cells, periodic, message):
    with pytest.raises(MeshError, match=message):
        box_mesh(*cells, periodic=periodic)


@pytest.mark.parametrize("nx", [0, -3])
def test_sod_mesh_rejects_bad_count(nx):
    with pytest.raises(MeshError, match="at least 1 cell"):
        sod_mesh(nx)


@pytest.mark.parametrize("case, size", [
    *[(case, size) for case in fixtures.FIXTURE_CASES for size in (0, -1, -6)],
    ("vortex", 2),
    ("tgv", 2),
])
def test_make_fixture_rejects_bad_size(tmp_path, case, size):
    """Sizes below 1, and 2 cells across the periodic vortex and TGV boxes,
    raise MeshError before any file is written."""
    out = tmp_path / "out"
    with pytest.raises(MeshError):
        fixtures.make_fixture(case, str(out), size=size)
    assert not out.exists()
