"""MSH reading and writing."""

import json

import numpy as np
import pytest

from boxdfm.cli import main
from boxdfm.errors import MeshFormatError, ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.mesh import FacetKind
from boxdfm.msh_io import load_msh, read_msh_arrays, write_msh22
from conftest import barrier_square

MSH_V2 = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
4
1 1 2 7 7 1 2
2 1 2 9 9 3 4
3 2 2 5 5 1 2 3
4 2 2 6 6 1 3 4
$EndElements
"""

MSH_V41 = """$MeshFormat
4.1 0 8
$EndMeshFormat
$Entities
0 2 1 0
1 0 0 0 1 0 0 1 1
2 0 1 0 1 1 0 1 2
1 0 0 0 1 1 0 1 5
$EndEntities
$Nodes
1 4 1 4
2 1 0 4
1
2
3
4
0 0 0
1 0 0
1 1 0
0 1 0
$EndNodes
$Elements
3 4 1 4
1 1 1 1
1 1 2
1 2 1 1
2 3 4
2 1 2 2
3 1 2 3
4 1 3 4
$EndElements
"""


def test_read_v2(tmp_path):
    p = tmp_path / "m.msh"
    p.write_text(MSH_V2)
    mesh = load_msh(p, tag_map={7: "dirichlet", 9: "neumann"})
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert mesh.n_tagged_facets == 2
    assert set(mesh.cell_region.tolist()) == {5, 6}


def test_read_v41(tmp_path):
    p = tmp_path / "m.msh"
    p.write_text(MSH_V41)
    mesh = load_msh(p, tag_map={1: "dirichlet", 2: "neumann"})
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert mesh.n_tagged_facets == 2
    assert mesh.facet_kinds[mesh.facet_tags == 1][0] == FacetKind.DIRICHLET
    assert mesh.facet_kinds[mesh.facet_tags == 2][0] == FacetKind.NEUMANN
    assert np.all(mesh.cell_region == 5)


def test_missing_section_rejected(tmp_path):
    p = tmp_path / "m.msh"
    p.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
    with pytest.raises(MeshFormatError):
        read_msh_arrays(p)


def test_nonplanar_triangles_rejected(tmp_path):
    text = MSH_V2.replace("4 0 1 0", "4 0 1 0.3")
    p = tmp_path / "m.msh"
    p.write_text(text)
    with pytest.raises(MeshFormatError):
        load_msh(p)


def test_roundtrip_exact(tmp_path):
    mesh = barrier_square(n=4, jitter=0.25, seed=4)
    p = tmp_path / "rt.msh"
    write_msh22(p, mesh.vertices, mesh.cells, mesh.cell_region,
                mesh.facets, mesh.facet_tags)
    back = load_msh(p, tag_map={1: "dirichlet", 2: "dirichlet",
                                3: "neumann", 4: "neumann", 10: "barrier"})
    # repr round-trips doubles, so coordinates come back bit-identical
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)
    assert np.array_equal(back.cell_region, mesh.cell_region)
    assert np.array_equal(back.facet_tags, mesh.facet_tags)
    assert np.array_equal(back.facet_kinds, mesh.facet_kinds)


def test_roundtrip_3d(tmp_path):
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
    cells = np.array([[0, 1, 2, 3]])
    facets = np.array([[0, 1, 2]])
    p = tmp_path / "t.msh"
    write_msh22(p, verts, cells, np.array([1]), facets, np.array([5]))
    back = load_msh(p, tag_map={5: "dirichlet"})
    assert back.dim == 3
    assert back.n_cells == 1
    assert back.n_tagged_facets == 1


@pytest.mark.parametrize("old, new, match", [
    ("$Nodes\n4\n", "$Nodes\nabc\n", r"m\.msh: malformed number or count .*'abc'"),
    ("$Nodes\n4\n", "$Nodes\n5\n", r"m\.msh: a section is shorter than its counts declare"),
    ("4 2 2 6 6 1 3 4", "4 2 2 6 6 1 3 9", r"m\.msh: .* unknown node tag 9"),
], ids=["non-numeric-count", "short-node-block", "unknown-node-tag"])
def test_malformed_text_names_the_file(tmp_path, old, new, match):
    p = tmp_path / "m.msh"
    p.write_text(MSH_V2.replace(old, new))
    with pytest.raises(MeshFormatError, match=match):
        read_msh_arrays(p)


def test_cli_run_on_a_malformed_mesh_exits_2(tmp_path, capsys):
    (tmp_path / "m.msh").write_text(MSH_V2.replace("$Nodes\n4\n", "$Nodes\nabc\n"))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"mesh": {"file": "m.msh"}, "tag_map": {"7": "dirichlet"}}))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "m.msh: malformed number or count" in err and "Traceback" not in err


@pytest.mark.parametrize("cut", ["cell_region", "facet_tags"])
def test_write_rejects_mismatched_lengths(tmp_path, cut):
    mesh = crossed_square_mesh(2, tag_map={1: "dirichlet"})
    arrays = {"cell_region": mesh.cell_region, "facet_tags": mesh.facet_tags}
    arrays[cut] = arrays[cut][:-3]
    with pytest.raises(ValidationError, match=r"\d+ (cells|facets) but \d+ (cell regions|facet tags)"):
        write_msh22(tmp_path / "m.msh", mesh.vertices, mesh.cells, arrays["cell_region"],
                    mesh.facets, arrays["facet_tags"])
    assert not (tmp_path / "m.msh").exists()


@pytest.mark.parametrize("dim, cells, facets, match", [
    (3, [[0, 1, 2]], [[0, 1, 2]], r"cells has shape \(1, 3\); 3d cells need 4 vertices"),
    (2, [[0, 1, 2, 3]], [[0, 1]], r"cells has shape \(1, 4\); 2d cells need 3 vertices"),
    (2, [[0, 1, 2]], [[0, 1, 2]], r"facets has shape \(1, 3\); 2d facets need 2 vertices"),
    (3, [[0, 1, 2, 3]], [[0, 1]], r"facets has shape \(1, 2\); 3d facets need 3 vertices"),
], ids=["3d-triangle-cells", "2d-tet-cells", "2d-triangle-facets", "3d-line-facets"])
def test_write_rejects_wrong_connectivity_width(tmp_path, dim, cells, facets, match):
    verts = np.eye(4, 3)[:, :dim]
    with pytest.raises(ValidationError, match=match):
        write_msh22(tmp_path / "m.msh", verts, np.array(cells), np.array([1]),
                    np.array(facets), np.array([5]))
    assert not (tmp_path / "m.msh").exists()
