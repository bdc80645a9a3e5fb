"""Legacy ASCII VTK output.

The solution file carries one point per degree of freedom (vertices on a
barrier appear once per pressure component), so discontinuities render as
sharp jumps without any smoothing. A companion file exports the tagged
lower-dimensional facets as their own grid. Output is deterministic and
byte-identical across repeated runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._rows import rows
from .mesh import Mesh
from .solution import SolutionField

__all__ = ["write_solution_vtk", "write_facets_vtk"]

_CELL_TYPE = {2: 5, 3: 10}   # triangle, tetrahedron
_FACET_TYPE = {2: 3, 3: 5}   # line, triangle
_POINT_ROW = {2: "%r %r 0.0\n", 3: "%r %r %r\n"}   # VTK points are 3d
_HEADER = "# vtk DataFile Version 3.0\n{}\nASCII\nDATASET UNSTRUCTURED_GRID\n"


def _grid(title: str, coords: np.ndarray, conn: np.ndarray, cell_type: int) -> str:
    """Header, points and cells of an unstructured grid of simplices."""
    n, nloc = conn.shape
    return (
        _HEADER.format(title)
        + f"POINTS {len(coords)} double\n" + rows(_POINT_ROW[coords.shape[1]], coords)
        + f"CELLS {n} {n * (nloc + 1)}\n" + rows(f"{nloc}" + " %d" * nloc + "\n", conn)
        + f"CELL_TYPES {n}\n" + f"{cell_type}\n" * n
    )


def write_solution_vtk(path, fieldobj: SolutionField) -> None:
    mesh = fieldobj.mesh
    coords = mesh.vertices[fieldobj.dof_vertex]
    cells = fieldobj.cell_dofs
    Path(path).write_text(
        _grid("box method pressure field", coords, cells, _CELL_TYPE[mesh.dim])
        + f"POINT_DATA {len(coords)}\nSCALARS pressure double 1\nLOOKUP_TABLE default\n"
        + rows("%r\n", fieldobj.values)
        + f"CELL_DATA {len(cells)}\nSCALARS region int 1\nLOOKUP_TABLE default\n"
        + rows("%d\n", mesh.cell_region),
        newline="\n",
    )


def write_facets_vtk(path, mesh: Mesh) -> None:
    """Tagged facets (fractures, barriers, boundary pieces) as a grid of
    their own, with tag and kind attached per facet."""
    used = np.unique(mesh.facets.ravel())
    renum = np.full(mesh.n_vertices, -1, dtype=np.int64)
    renum[used] = np.arange(len(used))
    nf = mesh.n_tagged_facets
    Path(path).write_text(
        _grid("tagged facets", mesh.vertices[used], renum[mesh.facets], _FACET_TYPE[mesh.dim])
        + f"CELL_DATA {nf}\nSCALARS tag int 1\nLOOKUP_TABLE default\n"
        + rows("%d\n", mesh.facet_tags)
        + "SCALARS kind int 1\nLOOKUP_TABLE default\n"
        + rows("%d\n", mesh.facet_kinds),
        newline="\n",
    )
