"""Every output file, byte for byte, against the per-value writers that the
row formatter replaced (kept here as reference_* functions)."""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from boxdfm.benchmarks import get_scenario, scenario_names
from boxdfm.cli import main
from boxdfm.dofspace import POLICIES, VertexClass, _CLASS_NAMES, build_dof_map, write_vertex_report
from boxdfm.driver import load_solution, run_scenario
from boxdfm.generators import crossed_square_mesh, kuhn_cube_mesh
from boxdfm.mesh import build_mesh
from boxdfm.msh_io import write_msh22
from boxdfm.solution import SolutionField, sample_slice, write_profile_csv
from boxdfm.vtkout import write_facets_vtk, write_solution_vtk

SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e-300, 1e300,
           5e-324, -1.7976931348623157e308, 0.1, 1 / 3]


def _fmt(v):
    return repr(float(v))


def _write_points(out, coords, dim):
    out.append(f"POINTS {len(coords)} double")
    for p in coords:
        z = p[2] if dim == 3 else 0.0
        out.append(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(z)}")


def reference_write_solution_vtk(path, fieldobj, name="pressure"):
    mesh = fieldobj.mesh
    coords = mesh.vertices[fieldobj.dof_vertex]
    cells = fieldobj.cell_dofs
    nloc = mesh.dim + 1
    out = ["# vtk DataFile Version 3.0", "box method pressure field", "ASCII",
           "DATASET UNSTRUCTURED_GRID"]
    _write_points(out, coords, mesh.dim)
    out.append(f"CELLS {len(cells)} {len(cells) * (nloc + 1)}")
    for c in cells:
        out.append(f"{nloc} " + " ".join(str(int(v)) for v in c))
    out.append(f"CELL_TYPES {len(cells)}")
    out.extend([str({2: 5, 3: 10}[mesh.dim])] * len(cells))
    out.append(f"POINT_DATA {len(coords)}")
    out.append(f"SCALARS {name} double 1")
    out.append("LOOKUP_TABLE default")
    out.extend(_fmt(v) for v in fieldobj.values)
    out.append(f"CELL_DATA {len(cells)}")
    out.append("SCALARS region int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(int(r)) for r in mesh.cell_region)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def reference_write_facets_vtk(path, mesh):
    d = mesh.dim
    used = np.unique(mesh.facets.ravel()) if mesh.n_tagged_facets else np.zeros(0, np.int64)
    renum = np.full(mesh.n_vertices, -1, dtype=np.int64)
    renum[used] = np.arange(len(used))
    out = ["# vtk DataFile Version 3.0", "tagged facets", "ASCII", "DATASET UNSTRUCTURED_GRID"]
    _write_points(out, mesh.vertices[used], mesh.dim)
    nf = mesh.n_tagged_facets
    out.append(f"CELLS {nf} {nf * (d + 1)}")
    for f in mesh.facets:
        out.append(f"{d} " + " ".join(str(int(renum[v])) for v in f))
    out.append(f"CELL_TYPES {nf}")
    out.extend([str({2: 3, 3: 5}[mesh.dim])] * nf)
    out.append(f"CELL_DATA {nf}")
    out.append("SCALARS tag int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(int(t)) for t in mesh.facet_tags)
    out.append("SCALARS kind int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(int(k)) for k in mesh.facet_kinds)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def reference_write_vertex_report(mesh, dofmap, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        coords = ["x", "y", "z"][: mesh.dim]
        w.writerow(["vertex", *coords, "n_dofs", "class"])
        for v in range(mesh.n_vertices):
            name = _CLASS_NAMES[VertexClass(int(dofmap.vertex_class[v]))]
            w.writerow([v, *[repr(float(x)) for x in mesh.vertices[v]],
                        int(dofmap.vertex_ndofs[v]), name])


def _reference_profile(fh, sample):
    pts = sample["points"]
    w = csv.writer(fh)
    w.writerow(["s", *["x", "y", "z"][:pts.shape[1]], "p"])
    for s, p, v in zip(sample["s"], pts, sample["values"]):
        w.writerow([repr(float(s)), *[repr(float(c)) for c in p], repr(float(v))])


def reference_write_profile_csv(path, sample):
    if hasattr(path, "write"):
        _reference_profile(path, sample)
    else:
        with open(path, "w", newline="") as fh:
            _reference_profile(fh, sample)


def reference_write_msh22(path, vertices, cells, cell_region, facets, facet_tags):
    vertices = np.asarray(vertices, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    facets = np.asarray(facets, dtype=np.int64)
    dim = vertices.shape[1]
    ftype, ctype = (1, 2) if dim == 2 else (2, 4)
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(vertices))]
    for i, p in enumerate(vertices):
        z = float(p[2]) if dim == 3 else 0.0
        out.append(f"{i + 1} {float(p[0])!r} {float(p[1])!r} {z!r}")
    out += ["$EndNodes", "$Elements", str(len(facets) + len(cells))]
    eid = 1
    for f, t in zip(facets, facet_tags):
        out.append(f"{eid} {ftype} 2 {int(t)} {int(t)} " + " ".join(str(v + 1) for v in f))
        eid += 1
    for c, r in zip(cells, cell_region):
        out.append(f"{eid} {ctype} 2 {int(r)} {int(r)} " + " ".join(str(v + 1) for v in c))
        eid += 1
    out.append("$EndElements")
    Path(path).write_text("\n".join(out) + "\n")


def assert_same_bytes(tmp_path, new, old, *args):
    """Write one file with the new and the reference writer; compare bytes."""
    new(tmp_path / "got", *args)
    old(tmp_path / "want", *args)
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()


def assert_same_mesh_files(tmp_path, mesh):
    assert_same_bytes(tmp_path, write_facets_vtk, reference_write_facets_vtk, mesh)
    assert_same_bytes(tmp_path, write_msh22, reference_write_msh22, mesh.vertices,
                      mesh.cells, mesh.cell_region, mesh.facets, mesh.facet_tags)


def assert_same_field_files(tmp_path, field, dofmap, samples=()):
    mesh = field.mesh
    assert_same_bytes(tmp_path, write_solution_vtk, reference_write_solution_vtk, field)
    assert_same_bytes(tmp_path, lambda p: write_vertex_report(mesh, dofmap, p),
                      lambda p: reference_write_vertex_report(mesh, dofmap, p))
    for sample in samples:
        assert_same_bytes(tmp_path, write_profile_csv, reference_write_profile_csv, sample)


def field_with(mesh, dofmap, values):
    return SolutionField(mesh, dofmap.cell_dofs, dofmap.dof_vertex, values)


def special_values(n, seed=0):
    """n values that include every special float, the rest random."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    k = min(n, len(SPECIAL))
    v[:k] = SPECIAL[:k]
    return v


@pytest.mark.parametrize("name", [n for n in scenario_names() if n != "ex55"])
def test_every_builtin_scenario_writes_the_reference_bytes(tmp_path, name):
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    assert_same_mesh_files(tmp_path, mesh)
    for policy in POLICIES:
        dm = build_dof_map(mesh, policy)
        field = field_with(mesh, dm, special_values(dm.n_dofs))
        with np.errstate(invalid="ignore"):
            samples = [sample_slice(field, sl.start, sl.end, sl.n, side=sl.side)
                       for sl in sc.slices]
        assert_same_field_files(tmp_path, field, dm, samples)


def test_mesh_without_tagged_facets(tmp_path):
    base = crossed_square_mesh(3, jitter=0.2, seed=1)
    mesh = build_mesh(base.vertices, base.cells)
    assert mesh.n_tagged_facets == 0
    dm = build_dof_map(mesh, "barrier_cuts")
    assert_same_mesh_files(tmp_path, mesh)
    assert_same_field_files(tmp_path, field_with(mesh, dm, special_values(dm.n_dofs)), dm)


def test_three_dimensional_mesh(tmp_path):
    tags = {i: "dirichlet" for i in range(1, 7)}
    tags[40] = "barrier"
    mesh = kuhn_cube_mesh(2, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 40)], tag_map=tags)
    dm = build_dof_map(mesh, "barrier_cuts")
    field = field_with(mesh, dm, special_values(dm.n_dofs, seed=2))
    with np.errstate(invalid="ignore"):
        sample = sample_slice(field, (0.1, 0.2, 0.3), (0.9, 0.8, 0.7), 17)
    assert_same_mesh_files(tmp_path, mesh)
    assert_same_field_files(tmp_path, field, dm, [sample])


def test_special_values_in_every_float_field(tmp_path):
    n = len(SPECIAL)
    pts = np.column_stack([SPECIAL, SPECIAL[::-1], np.roll(SPECIAL, 3)])
    for dim in (2, 3):
        sample = {"s": np.array(SPECIAL), "points": pts[:, :dim], "values": np.roll(SPECIAL, 5)}
        assert_same_bytes(tmp_path, write_profile_csv, reference_write_profile_csv, sample)
        cells = np.arange(n - n % (dim + 1)).reshape(-1, dim + 1)
        facets = np.arange(2 * dim).reshape(2, dim)
        assert_same_bytes(tmp_path, write_msh22, reference_write_msh22, pts[:, :dim], cells,
                          np.arange(len(cells)) - 1, facets, np.array([-3, 10**12]))


def test_cli_slice_stdout_matches_reference(tmp_path, capsys):
    out = tmp_path / "run"
    run_scenario(get_scenario("ex52_vertical"), out_dir=out)
    code = main(["slice", str(out), "--from", "0,0.75", "--to", "1,0.75", "-n", "33",
                 "--side", "minus"])
    assert code == 0
    want = io.StringIO(newline="")
    sample = sample_slice(load_solution(out), (0.0, 0.75), (1.0, 0.75), 33, side="minus")
    reference_write_profile_csv(want, sample)
    assert capsys.readouterr().out == want.getvalue()
    assert want.getvalue().count("\r\n") == 34
