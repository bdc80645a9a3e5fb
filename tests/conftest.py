"""Shared helpers: small meshes and the acceptance summary hook."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boxdfm.generators import crossed_square_mesh, kuhn_cube_mesh

# one line per acceptance criterion, echoed after the test run so the
# verdicts are visible in plain `pytest -v` output
ACCEPTANCE_LINES = []


def record_criterion(number: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes of the allocations it traced."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def array_bytes(*values) -> int:
    """Bytes of the numpy arrays among values and their dataclass fields."""
    total = 0
    for v in values:
        fields = vars(v).values() if hasattr(v, "__dataclass_fields__") else [v]
        total += sum(a.nbytes for a in fields if isinstance(a, np.ndarray))
    return total


_VTK_TYPES = {"double": ">f8", "int": ">i4"}


def read_vtk(path) -> dict:
    """A legacy BINARY VTK unstructured grid, parsed independently of the writer.

    Returns title, points (n, 3), cells (the flat CELLS list: count, then
    ids, per cell), cell_types, and point_data / cell_data mapping each
    SCALARS name to its array, all as the big-endian dtypes of the file.
    Every block must be followed by one newline, and the file must end
    right after the last block.
    """
    data = Path(path).read_bytes()
    pos = 0

    def line() -> list[str]:
        nonlocal pos
        end = data.index(b"\n", pos)
        text = data[pos:end].decode("ascii")
        pos = end + 1
        return text.split(" ")

    def block(dtype: str, count: int) -> np.ndarray:
        nonlocal pos
        a = np.frombuffer(data, dtype, count, pos)
        pos += a.nbytes
        assert data[pos:pos + 1] == b"\n", f"no newline after a {dtype} block at byte {pos}"
        pos += 1
        return a

    assert line() == ["#", "vtk", "DataFile", "Version", "3.0"]
    grid = {"title": " ".join(line()), "point_data": {}, "cell_data": {}}
    assert line() == ["BINARY"]
    assert line() == ["DATASET", "UNSTRUCTURED_GRID"]
    word, n, kind = line()
    assert (word, kind) == ("POINTS", "double")
    grid["points"] = block(">f8", 3 * int(n)).reshape(-1, 3)
    word, nc, size = line()
    assert word == "CELLS"
    grid["cells"] = block(">i4", int(size))
    word, nt = line()
    assert (word, nt) == ("CELL_TYPES", nc)
    grid["cell_types"] = block(">i4", int(nc))
    section = count = None
    while pos < len(data):
        words = line()
        if words[0] in ("POINT_DATA", "CELL_DATA"):
            section, count = words[0].lower(), int(words[1])
            continue
        word, name, kind, ncomp = words
        assert (word, ncomp) == ("SCALARS", "1") and section is not None
        assert line() == ["LOOKUP_TABLE", "default"]
        grid[section][name] = block(_VTK_TYPES[kind], count)
    return grid


def assert_bitwise(got: np.ndarray, want) -> None:
    """got holds want's values exactly: floats bit for bit (nan, -0.0
    included), integers as the same numbers."""
    want = np.asarray(want)
    assert got.shape == want.shape
    if want.dtype.kind == "f":
        assert np.array_equal(got.astype(np.float64).view(np.int64),
                              want.astype(np.float64).view(np.int64))
    else:
        assert np.array_equal(got.astype(np.int64), want)


def vtk_cells(ids: np.ndarray) -> np.ndarray:
    """The flat CELLS list of the (n, k) vertex ids: k, then the ids, per cell."""
    n, k = ids.shape
    return np.column_stack([np.full(n, k), ids]).ravel()


def assert_solution_vtk(path, field) -> None:
    """solution.vtk at path holds field's grid and arrays exactly."""
    mesh = field.mesh
    grid = read_vtk(path)
    assert grid["title"] == "box method pressure field"
    assert_bitwise(grid["points"][:, :mesh.dim], mesh.vertices[field.dof_vertex])
    assert_bitwise(grid["points"][:, mesh.dim:], np.zeros((field.n_dofs, 3 - mesh.dim)))
    assert_bitwise(grid["cells"], vtk_cells(field.cell_dofs))
    assert_bitwise(grid["cell_types"], np.full(mesh.n_cells, {2: 5, 3: 10}[mesh.dim]))
    assert list(grid["point_data"]) == ["pressure"]
    assert_bitwise(grid["point_data"]["pressure"], field.values)
    assert list(grid["cell_data"]) == ["region"]
    assert_bitwise(grid["cell_data"]["region"], mesh.cell_region)


def assert_facets_vtk(path, mesh) -> None:
    """facets.vtk at path holds mesh's tagged facets, renumbered over the
    vertices they use in ascending order, with their tags and kinds."""
    grid = read_vtk(path)
    assert grid["title"] == "tagged facets"
    used = np.unique(mesh.facets.ravel())
    assert_bitwise(grid["points"][:, :mesh.dim], mesh.vertices[used])
    assert_bitwise(grid["points"][:, mesh.dim:], np.zeros((len(used), 3 - mesh.dim)))
    assert_bitwise(grid["cells"], vtk_cells(np.searchsorted(used, mesh.facets)))
    assert_bitwise(grid["cell_types"], np.full(mesh.n_tagged_facets, {2: 3, 3: 5}[mesh.dim]))
    assert grid["point_data"] == {}
    assert list(grid["cell_data"]) == ["tag", "kind"]
    assert_bitwise(grid["cell_data"]["tag"], mesh.facet_tags)
    assert_bitwise(grid["cell_data"]["kind"], mesh.facet_kinds)


TAGS_BARRIER = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann",
                10: "barrier"}


def barrier_square(n=4, jitter=0.0, seed=0, tag_map=None):
    """Crossed n x n square with a full-height barrier at x = 0.5."""
    def region(c):
        return np.where(c[:, 0] < 0.5, 1, 2)

    return crossed_square_mesh(
        n, jitter=jitter, seed=seed, keep_x=(0.5,),
        segments=[((0.5, 0.0), (0.5, 1.0), 10)],
        region_fn=region,
        tag_map=TAGS_BARRIER if tag_map is None else tag_map,
    )


@pytest.fixture
def barrier_square_mesh():
    return barrier_square()


def barrier_fracture_cube():
    """3d: a barrier plane x = 0.5 (tag 40) crossed by a fracture plane
    y = 0.5 (tag 41), Dirichlet on the x sides, Neumann on the others."""
    tags = {1: "dirichlet", 2: "dirichlet", 40: "barrier", 41: "fracture"}
    tags.update({t: "neumann" for t in range(3, 7)})
    return kuhn_cube_mesh(4, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 40),
                                     (1, 0.5, (0.0, 0.0), (1.0, 1.0), 41)],
                          tag_map=tags)
