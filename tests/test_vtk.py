"""Legacy VTK export: structure, determinism, dof-resolved points, the
32-bit limit of legacy ints. Files are parsed with conftest.read_vtk."""

import numpy as np
import pytest

from boxdfm.dofspace import build_dof_map
from boxdfm.errors import ValidationError
from boxdfm.generators import kuhn_cube_mesh
from boxdfm.mesh import FacetKind
from boxdfm.solution import SolutionField
from boxdfm.vtkout import write_facets_vtk, write_solution_vtk
from conftest import barrier_square, read_vtk


def field_on_barrier_square():
    mesh = barrier_square(n=4, jitter=0.2, seed=3)
    dm = build_dof_map(mesh, "barrier_cuts")
    values = np.linspace(0.0, 1.0, dm.n_dofs)
    return mesh, dm, SolutionField(mesh, dm.cell_dofs, dm.dof_vertex, values)


def test_solution_vtk_structure(tmp_path):
    mesh, dm, field = field_on_barrier_square()
    path = tmp_path / "solution.vtk"
    write_solution_vtk(path, field)
    head = path.read_bytes().split(b"\n")[:5]
    assert head == [b"# vtk DataFile Version 3.0", b"box method pressure field", b"BINARY",
                    b"DATASET UNSTRUCTURED_GRID", f"POINTS {dm.n_dofs} double".encode()]
    grid = read_vtk(path)

    coords = grid["points"]
    assert coords.dtype == np.dtype(">f8") and coords.shape == (dm.n_dofs, 3)
    assert np.array_equal(coords[:, :2], mesh.vertices[dm.dof_vertex])
    assert np.all(coords[:, 2] == 0.0)

    cells = grid["cells"].reshape(mesh.n_cells, 4)
    assert cells.dtype == np.dtype(">i4")
    assert np.all(cells[:, 0] == 3) and np.array_equal(cells[:, 1:], dm.cell_dofs)
    assert set(grid["cell_types"].tolist()) == {5}

    assert np.array_equal(grid["point_data"]["pressure"], field.values)
    assert np.array_equal(grid["cell_data"]["region"], mesh.cell_region)


def test_solution_vtk_deterministic(tmp_path):
    mesh, dm, field = field_on_barrier_square()
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_solution_vtk(a, field)
    write_solution_vtk(b, field)
    assert a.read_bytes() == b.read_bytes()


def test_facets_vtk_tags_and_kinds(tmp_path):
    mesh, dm, field = field_on_barrier_square()
    path = tmp_path / "facets.vtk"
    write_facets_vtk(path, mesh)
    grid = read_vtk(path)

    nf = mesh.n_tagged_facets
    cells = grid["cells"].reshape(nf, 3)
    assert np.all(cells[:, 0] == 2)
    used = np.unique(mesh.facets.ravel())
    assert np.array_equal(used[cells[:, 1:]], mesh.facets)
    assert np.array_equal(grid["points"][:, :2], mesh.vertices[used])

    tags = grid["cell_data"]["tag"]
    assert np.array_equal(tags, mesh.facet_tags)
    assert 10 in tags
    kinds = grid["cell_data"]["kind"]
    assert np.array_equal(kinds, mesh.facet_kinds)
    assert int(FacetKind.BARRIER) in kinds


def test_three_dimensional_cell_types(tmp_path):
    tags = {i: "dirichlet" for i in range(1, 7)}
    tags[40] = "barrier"
    mesh = kuhn_cube_mesh(2, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 40)],
                          tag_map=tags)
    dm = build_dof_map(mesh, "barrier_cuts")
    field = SolutionField(mesh, dm.cell_dofs, dm.dof_vertex,
                          np.zeros(dm.n_dofs))
    spath, fpath = tmp_path / "s.vtk", tmp_path / "f.vtk"
    write_solution_vtk(spath, field)
    write_facets_vtk(fpath, mesh)

    sgrid = read_vtk(spath)
    assert set(sgrid["cell_types"].tolist()) == {10}
    assert np.array_equal(sgrid["points"], mesh.vertices[dm.dof_vertex])
    assert np.all(sgrid["cells"].reshape(-1, 5)[:, 0] == 4)

    fgrid = read_vtk(fpath)
    assert set(fgrid["cell_types"].tolist()) == {5}
    assert np.all(fgrid["cells"].reshape(-1, 4)[:, 0] == 3)


def test_ids_beyond_int32_are_rejected(tmp_path):
    mesh, dm, field = field_on_barrier_square()
    cell_dofs = dm.cell_dofs.copy()
    cell_dofs[0, 0] = 2**31
    path = tmp_path / "solution.vtk"
    with pytest.raises(ValidationError, match=r"dof id 2147483648 .*32-bit"):
        write_solution_vtk(path, SolutionField(mesh, cell_dofs, dm.dof_vertex, field.values))
    assert not path.exists()

    mesh.facet_tags[0] = -2**31 - 1
    with pytest.raises(ValidationError, match=r"facet tag -2147483649 .*32-bit"):
        write_facets_vtk(tmp_path / "facets.vtk", mesh)
