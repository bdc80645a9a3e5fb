"""Uniform red refinement of simplicial meshes with tag inheritance.

Each level works on the mesh arrays; only the finest becomes a Mesh.
_CELL_CHILDREN and _FACET_CHILDREN list each child as positions in its
parent row's nodes: the vertices, then the midpoints of the vertex pairs
(0, 1), (0, 2), ... in order. Child c of row p becomes row c*n + p. A
child's orientation is its parent's times a constant of its position, and
the cell table lists every child of a positive parent as positive (in 3d,
children 1, 3, 5 and 7 with their first two nodes swapped). The base went
through build_mesh, so every level is positive without a volume test, and
the final build_mesh swaps nothing.

Edges use the packed int64 keys of :mod:`.mesh`: the midpoint of edge
(a, b) is vertex n_vertices + the position of its key in the sorted unique
keys of all cell edges. Keys ascend in the lexicographic order of the
sorted edge rows, so midpoints are numbered in that order.
"""

from __future__ import annotations

import numpy as np

from .errors import as_int
from .mesh import Mesh, _facet_keys, _unpack_keys, build_mesh

__all__ = ["uniform_refine"]

# the Mesh arrays a level reads and returns, named as build_mesh takes them
_ARRAYS = ("vertices", "cells", "cell_region", "facets", "facet_tags", "facet_kinds")
# nodes 2d: v0 v1 v2 m01 m02 m12; 3d: v0 v1 v2 v3 m01 m02 m03 m12 m13 m23
# 3d: 4 corner tetrahedra, then the octahedron split along the m02-m13 diagonal
_CELL_CHILDREN = {
    2: np.array([(0, 3, 4), (1, 5, 3), (2, 4, 5), (3, 5, 4)]),
    3: np.array([(0, 4, 5, 6), (4, 1, 7, 8), (2, 5, 7, 9), (6, 3, 8, 9),
                 (4, 5, 6, 8), (5, 4, 7, 8), (5, 6, 8, 9), (7, 5, 8, 9)]),
}
_FACET_CHILDREN = {
    2: np.array([(0, 2), (2, 1)]),
    3: np.array([(0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 5, 4)]),
}


def uniform_refine(mesh: Mesh, levels: int = 1) -> Mesh:
    """Refine every cell into 2^dim children, levels times; tags and regions
    inherit. Tetrahedra split into 4 corner tetrahedra and 4 from the
    interior octahedron (fixed diagonal), tagged facets into their 2^(dim-1)
    sub-facets. Builds one Mesh, at the finest level; levels=0 returns mesh.
    """
    if as_int(levels, "refinement levels must be an integer", 0) == 0:
        return mesh
    arrays = [getattr(mesh, name) for name in _ARRAYS]
    for _ in range(levels):
        arrays = _refine_once(*arrays)
    return build_mesh(**dict(zip(_ARRAYS, arrays)))


def _refine_once(vertices, cells, cell_region, facets, facet_tags, facet_kinds):
    """The six arrays of a mesh with positive cells, one level finer."""
    nv, dim = vertices.shape
    key = _pair_keys(cells, nv)
    ekey = np.unique(key)
    edges = _unpack_keys(ekey, nv, 2)
    vertices = np.vstack([vertices, 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])])
    fmids = nv + np.searchsorted(ekey, _pair_keys(facets, nv))
    nfc = len(_FACET_CHILDREN[dim])
    return (vertices, _children(cells, nv + np.searchsorted(ekey, key), _CELL_CHILDREN[dim]),
            np.tile(cell_region, 2 ** dim), _children(facets, fmids, _FACET_CHILDREN[dim]),
            np.tile(facet_tags, nfc), np.tile(facet_kinds, nfc))


def _pair_keys(rows: np.ndarray, nv: int) -> np.ndarray:
    """Packed keys of each row's vertex pairs (0, 1), (0, 2), ...: (pairs, rows)."""
    k = rows.shape[1]
    pairs = np.stack([rows[:, [i, j]] for i in range(k) for j in range(i + 1, k)])
    return _facet_keys(np.sort(pairs, axis=2).reshape(-1, 2), nv).reshape(pairs.shape[:2])


def _children(rows: np.ndarray, mids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The child rows of table, child-major: row c*n + p is child c of row
    p, whose nodes are p's vertices, then the midpoint ids mids[:, p]."""
    nodes = np.concatenate([rows.T, mids])
    return nodes[table].transpose(0, 2, 1).reshape(-1, table.shape[1])
