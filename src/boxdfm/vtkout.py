"""Legacy ASCII VTK output.

The solution file carries one point per degree of freedom (vertices on a
barrier appear once per pressure component), so discontinuities render as
sharp jumps without any smoothing. A companion file exports the tagged
lower-dimensional facets as their own grid. Output is deterministic and
byte-identical across repeated runs. Rows are written to the open file in
chunks (write_rows), so a file's text never exists whole.
"""

from __future__ import annotations

import numpy as np

from ._rows import write_rows
from .mesh import Mesh
from .solution import SolutionField

__all__ = ["write_solution_vtk", "write_facets_vtk"]

_CELL_TYPE = {2: 5, 3: 10}   # triangle, tetrahedron
_FACET_TYPE = {2: 3, 3: 5}   # line, triangle
_POINT_ROW = {2: "%r %r 0.0\n", 3: "%r %r %r\n"}   # VTK points are 3d
_HEADER = "# vtk DataFile Version 3.0\n{}\nASCII\nDATASET UNSTRUCTURED_GRID\n"


def _write_grid(f, title: str, coords: np.ndarray, conn: np.ndarray, cell_type: int) -> None:
    """Write the header, points and cells of an unstructured grid of simplices."""
    n, nloc = conn.shape
    f.write(_HEADER.format(title) + f"POINTS {len(coords)} double\n")
    write_rows(f, _POINT_ROW[coords.shape[1]], coords)
    f.write(f"CELLS {n} {n * (nloc + 1)}\n")
    write_rows(f, f"{nloc}" + " %d" * nloc + "\n", conn)
    f.write(f"CELL_TYPES {n}\n" + f"{cell_type}\n" * n)


def write_solution_vtk(path, fieldobj: SolutionField) -> None:
    mesh = fieldobj.mesh
    cells = fieldobj.cell_dofs
    with open(path, "w", newline="\n") as f:
        _write_grid(f, "box method pressure field", mesh.vertices[fieldobj.dof_vertex], cells,
                    _CELL_TYPE[mesh.dim])
        f.write(f"POINT_DATA {len(fieldobj.values)}\nSCALARS pressure double 1\n"
                "LOOKUP_TABLE default\n")
        write_rows(f, "%r\n", fieldobj.values)
        f.write(f"CELL_DATA {len(cells)}\nSCALARS region int 1\nLOOKUP_TABLE default\n")
        write_rows(f, "%d\n", mesh.cell_region)


def write_facets_vtk(path, mesh: Mesh) -> None:
    """Tagged facets (fractures, barriers, boundary pieces) as a grid of
    their own, with tag and kind attached per facet."""
    used = np.unique(mesh.facets.ravel())
    renum = np.full(mesh.n_vertices, -1, dtype=np.int64)
    renum[used] = np.arange(len(used))
    with open(path, "w", newline="\n") as f:
        _write_grid(f, "tagged facets", mesh.vertices[used], renum[mesh.facets],
                    _FACET_TYPE[mesh.dim])
        f.write(f"CELL_DATA {mesh.n_tagged_facets}\nSCALARS tag int 1\nLOOKUP_TABLE default\n")
        write_rows(f, "%d\n", mesh.facet_tags)
        f.write("SCALARS kind int 1\nLOOKUP_TABLE default\n")
        write_rows(f, "%d\n", mesh.facet_kinds)
