"""Uniform red refinement of simplicial meshes with tag inheritance.

Edges use the packed int64 keys of the facet table in :mod:`.mesh`: the
edge table is the sorted unique keys of all cell edges, and the midpoint
of edge (a, b) is vertex n_vertices + the position of its key in that
table, found by one searchsorted. Keys ascend in the lexicographic order
of the sorted edge rows, so midpoints are numbered in that order.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, _facet_keys, _search_keys, _unpack_keys, build_mesh

__all__ = ["uniform_refine"]


def uniform_refine(mesh: Mesh, levels: int = 1) -> Mesh:
    """Refine every cell into 2^dim children; tags and regions inherit.

    Triangles split into 4 similar triangles through edge midpoints;
    tetrahedra split into 4 corner tetrahedra plus 4 from the interior
    octahedron (fixed diagonal). Tagged facets split into their 2 (2D) or
    4 (3D) sub-facets with the same tag and kind.
    """
    for _ in range(levels):
        mesh = _refine_once(mesh)
    return mesh


def _refine_once(mesh: Mesh) -> Mesh:
    cells = mesh.cells
    nv = mesh.n_vertices
    nloc = cells.shape[1]
    pairs = np.concatenate([cells[:, [i, j]] for i in range(nloc) for j in range(i + 1, nloc)])
    # edge keys ascend in the lexicographic order of the edge rows
    ekey = np.unique(_facet_keys(np.sort(pairs, axis=1), nv))
    edges = _unpack_keys(ekey, nv, 2)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    def mid(a, b):
        return nv + _search_keys(ekey, np.stack([a, b], axis=1), nv)[0]

    if mesh.dim == 2:
        v0, v1, v2 = cells[:, 0], cells[:, 1], cells[:, 2]
        m01, m02, m12 = mid(v0, v1), mid(v0, v2), mid(v1, v2)
        children = [
            (v0, m01, m02),
            (v1, m12, m01),
            (v2, m02, m12),
            (m01, m12, m02),
        ]
    else:
        v0, v1, v2, v3 = (cells[:, i] for i in range(4))
        m01, m02, m03 = mid(v0, v1), mid(v0, v2), mid(v0, v3)
        m12, m13, m23 = mid(v1, v2), mid(v1, v3), mid(v2, v3)
        children = [
            (v0, m01, m02, m03),
            (v1, m01, m12, m13),
            (v2, m02, m12, m23),
            (v3, m03, m13, m23),
            # octahedron, split along the m02-m13 diagonal
            (m01, m02, m03, m13),
            (m01, m02, m12, m13),
            (m02, m03, m13, m23),
            (m02, m12, m13, m23),
        ]
    new_cells = np.concatenate([np.stack(ch, axis=1) for ch in children], axis=0)
    new_region = np.tile(mesh.cell_region, len(children))

    facets = mesh.facets
    if facets.shape[0]:
        if mesh.dim == 2:
            a, b = facets[:, 0], facets[:, 1]
            m = mid(a, b)
            new_facets = np.concatenate(
                [np.stack([a, m], axis=1), np.stack([m, b], axis=1)], axis=0
            )
            reps = 2
        else:
            a, b, c = facets[:, 0], facets[:, 1], facets[:, 2]
            mab, mac, mbc = mid(a, b), mid(a, c), mid(b, c)
            new_facets = np.concatenate(
                [
                    np.stack([a, mab, mac], axis=1),
                    np.stack([b, mab, mbc], axis=1),
                    np.stack([c, mac, mbc], axis=1),
                    np.stack([mab, mbc, mac], axis=1),
                ],
                axis=0,
            )
            reps = 4
        new_tags = np.tile(mesh.facet_tags, reps)
        new_kinds = np.tile(mesh.facet_kinds, reps)
    else:
        new_facets = facets
        new_tags = mesh.facet_tags
        new_kinds = mesh.facet_kinds

    return build_mesh(
        vertices,
        new_cells,
        new_facets,
        new_tags,
        cell_region=new_region,
        facet_kinds=new_kinds,
    )
