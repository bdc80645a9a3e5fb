"""Legacy VTK output, BINARY.

The solution file carries one point per degree of freedom (vertices on a
barrier appear once per pressure component), so discontinuities render as
sharp jumps without any smoothing. A companion file exports the tagged
lower-dimensional facets as their own grid. Output is deterministic and
byte-identical across repeated runs.

Each data block is the raw big-endian bytes of one array followed by one
newline, as the legacy format's BINARY mode has it: float64 points and
pressures, int32 cells (count, then ids), cell types, regions, tags and
kinds. One array is converted at a time, so a file is never held whole.
Legacy `int` is 32-bit: an id or label outside that range raises
ValidationError before the file is opened.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .mesh import Mesh
from .solution import SolutionField

__all__ = ["write_solution_vtk", "write_facets_vtk"]

_CELL_TYPE = {2: 5, 3: 10}   # triangle, tetrahedron
_FACET_TYPE = {2: 3, 3: 5}   # line, triangle
_HEADER = "# vtk DataFile Version 3.0\n{}\nBINARY\nDATASET UNSTRUCTURED_GRID\n"
_I32 = np.iinfo(np.int32)


def _int32(what: str, a: np.ndarray) -> np.ndarray:
    """a, when every value fits a legacy VTK int; ValidationError otherwise."""
    if a.size:
        lo, hi = a.min(), a.max()
        if lo < _I32.min or hi > _I32.max:
            bad = lo if lo < _I32.min else hi
            raise ValidationError(f"{what} {bad} lies outside the 32-bit range "
                                  f"[{_I32.min}, {_I32.max}] of legacy VTK ints")
    return a


def _block(f, text: str, a: np.ndarray, dtype: str) -> None:
    """Write the section header text, then a as big-endian dtype bytes and a newline."""
    f.write(text.encode())
    f.write(np.ascontiguousarray(a, dtype=dtype))
    f.write(b"\n")


def _write_grid(f, title: str, coords: np.ndarray, ids: np.ndarray, cell_type: int) -> None:
    """Write the header, points and cells of an unstructured grid of simplices."""
    n, nloc = ids.shape
    points = np.zeros((len(coords), 3), ">f8")   # VTK points are 3d
    points[:, :coords.shape[1]] = coords
    _block(f, _HEADER.format(title) + f"POINTS {len(coords)} double\n", points, ">f8")
    del points
    cells = np.empty((n, nloc + 1), ">i4")
    cells[:, 0] = nloc
    cells[:, 1:] = ids
    _block(f, f"CELLS {n} {n * (nloc + 1)}\n", cells, ">i4")
    del cells
    _block(f, f"CELL_TYPES {n}\n", np.full(n, cell_type, ">i4"), ">i4")


def write_solution_vtk(path, fieldobj: SolutionField) -> None:
    mesh = fieldobj.mesh
    cells = _int32("dof id", fieldobj.cell_dofs)
    region = _int32("region id", mesh.cell_region)
    with open(path, "wb") as f:
        _write_grid(f, "box method pressure field", mesh.vertices[fieldobj.dof_vertex], cells,
                    _CELL_TYPE[mesh.dim])
        _block(f, f"POINT_DATA {len(fieldobj.values)}\nSCALARS pressure double 1\n"
               "LOOKUP_TABLE default\n", fieldobj.values, ">f8")
        _block(f, f"CELL_DATA {len(cells)}\nSCALARS region int 1\nLOOKUP_TABLE default\n",
               region, ">i4")


def write_facets_vtk(path, mesh: Mesh) -> None:
    """Tagged facets (fractures, barriers, boundary pieces) as a grid of
    their own, with tag and kind attached per facet."""
    used = np.unique(mesh.facets.ravel())
    renum = np.full(mesh.n_vertices, -1, dtype=np.int64)
    renum[used] = np.arange(len(used))
    ids = _int32("vertex id", renum[mesh.facets])
    tags = _int32("facet tag", mesh.facet_tags)
    kinds = _int32("facet kind", mesh.facet_kinds)
    with open(path, "wb") as f:
        _write_grid(f, "tagged facets", mesh.vertices[used], ids, _FACET_TYPE[mesh.dim])
        _block(f, f"CELL_DATA {mesh.n_tagged_facets}\nSCALARS tag int 1\n"
               "LOOKUP_TABLE default\n", tags, ">i4")
        _block(f, "SCALARS kind int 1\nLOOKUP_TABLE default\n", kinds, ">i4")
