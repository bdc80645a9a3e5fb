"""Degrees of freedom for the broken vertex space.

Away from barriers every vertex carries one pressure unknown. A vertex
touched by barrier facets carries one unknown per connected component of
its cell fan, where two cells incident to the vertex are fan-adjacent iff
they share a facet containing the vertex that is not tagged as a barrier.
Barrier tips keep a single unknown automatically (the fan wraps around the
tip); barrier endpoints on the domain boundary split.

Where a fracture crosses a barrier the policy decides: fracture_penetrates
merges all components at the crossing vertex (continuous pressure, the
fracture wins), barrier_cuts keeps them separate (the barrier cuts the
fracture).

facet_dofs is the one lookup from tagged facets to the dofs of their
vertices on a given side; components is the one connected-component
search, of the cell fans here and of assembly's compartments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ._rows import write_rows
from .errors import DofMapError, ValidationError
from .mesh import FacetKind, Mesh, _index_dtype

__all__ = ["POLICIES", "VertexClass", "DofMap", "build_dof_map", "components", "facet_dofs",
           "write_vertex_report"]

POLICIES = ("fracture_penetrates", "barrier_cuts")


class VertexClass(IntEnum):
    PLAIN = 0
    BARRIER_TIP = 1
    BARRIER_INTERIOR = 2
    INTERSECTION = 3


_CLASS_NAMES = {c: c.name.lower() for c in VertexClass}


@dataclass
class DofMap:
    policy: str
    n_dofs: int
    cell_dofs: np.ndarray      # (nc, dim+1) resolved dof per cell corner
    dof_vertex: np.ndarray     # (n_dofs,) owning vertex, sorted
    vertex_ndofs: np.ndarray   # (nv,) component count per vertex (0 if unused)
    vertex_class: np.ndarray   # (nv,) VertexClass values
    barrier_facet_rows: np.ndarray  # rows into mesh.facets tagged barrier
    barrier_minus: np.ndarray  # (nb, dim) dofs on the first-cell side
    barrier_plus: np.ndarray   # (nb, dim) dofs on the second-cell side
    fracture_facet_rows: np.ndarray
    fracture_dofs: np.ndarray  # (nfr, dim)

    def class_counts(self) -> dict:
        out = {}
        for c, name in _CLASS_NAMES.items():
            out[name] = int(np.count_nonzero(self.vertex_class == int(c)))
        return out


def _corner_nodes(cells: np.ndarray, cell_ids: np.ndarray,
                  facet_verts: np.ndarray) -> np.ndarray:
    """(n, dim) node ids cell * nloc + local of facet_verts[k] inside cell
    cell_ids[k], at the node width _index_dtype(cells.size) whatever the
    width of cell_ids; dofs are then cell_dofs.ravel()[nodes].

    Works in (dim, n) layout, one local corner at a time, so that each
    comparison of a corner with the facet vertices runs over contiguous
    rows of n entries.
    """
    nloc = cells.shape[1]
    verts = facet_verts.T.copy()
    found = np.zeros(verts.shape, dtype=bool)
    local = np.zeros(verts.shape, dtype=np.int8)
    for i in range(nloc):
        hit = verts == cells[:, i].take(cell_ids)
        found |= hit
        local += hit.view(np.int8) * np.int8(i)
    if not found.all():
        raise DofMapError("vertex not found in its supposed cell")
    node = cell_ids.astype(_index_dtype(cells.size), copy=False)
    return np.ascontiguousarray((node * nloc + local).T)


def facet_dofs(mesh: Mesh, cell_dofs: np.ndarray, facet_rows: np.ndarray, side: int = 0):
    """(dofs, cells) of the tagged facets mesh.facets[facet_rows]: the dofs
    (len(facet_rows), dim) of their vertices in the cell on one side (0: the
    first cell of the unique facet, 1: the second, interior facets only),
    and that cell per facet, for region-dependent data."""
    cells = mesh.ufacet_cells[mesh.facet_to_ufacet[facet_rows], side]
    return cell_dofs.ravel()[_corner_nodes(mesh.cells, cells, mesh.facets[facet_rows])], cells


def components(n: int, rows: np.ndarray, cols: np.ndarray):
    """(count, labels) of the connected components of the undirected graph
    on n nodes with the edges rows[k] - cols[k]."""
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=False)


def _policy_key(policy: str) -> str:
    """The POLICIES entry that policy names, hyphens read as underscores."""
    key = policy.replace("-", "_")
    if key not in POLICIES:
        raise ValidationError(f"unknown intersection policy {key!r}; expected one of {POLICIES}")
    return key


def build_dof_map(mesh: Mesh, policy: str) -> DofMap:
    policy = _policy_key(policy)
    nloc = mesh.dim + 1
    nc = mesh.n_cells
    nv = mesh.n_vertices
    cells = mesh.cells

    barrier_uf = mesh.ufacet_is_kind(FacetKind.BARRIER)
    interior = mesh.ufacet_cells[:, 1] >= 0
    link = interior & ~barrier_uf

    # node ids cell * nloc + local in int32 while they fit (_corner_nodes)
    n_nodes = nc * nloc
    node = _index_dtype(n_nodes)
    link_cells, link_verts = mesh.ufacet_cells[link], mesh.ufacets[link]
    rows = [_corner_nodes(cells, link_cells[:, 0], link_verts).ravel()]
    cols = [_corner_nodes(cells, link_cells[:, 1], link_verts).ravel()]
    del link_cells, link_verts

    bar_rows = mesh.facets_of_kind(FacetKind.BARRIER)
    fr_rows = mesh.facets_of_kind(FacetKind.FRACTURE)
    has_barrier = np.zeros(nv, dtype=bool)
    has_fracture = np.zeros(nv, dtype=bool)
    has_barrier[mesh.facets[bar_rows].ravel()] = True
    has_fracture[mesh.facets[fr_rows].ravel()] = True

    crossing = has_barrier & has_fracture
    if policy == "fracture_penetrates" and crossing.any():
        # chain the nodes of each crossing vertex: over the nodes sorted by
        # vertex, link each node to the next one of the same vertex
        order = np.argsort(cells.ravel(), kind="stable").astype(node)
        sorted_v = cells.ravel()[order]
        link_next = (sorted_v[:-1] == sorted_v[1:]) & crossing[sorted_v[:-1]]
        rows.append(order[:-1][link_next])
        cols.append(order[1:][link_next])

    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n_comp, labels = components(n_nodes, rows, cols)
    del rows, cols

    first = np.full(n_comp, n_nodes, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n_nodes, dtype=np.int64))
    vertex_of_label = cells.ravel()[first]
    order = np.lexsort((first, vertex_of_label))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[order] = np.arange(n_comp, dtype=np.int64)
    cell_dofs = rank[labels].reshape(nc, nloc)
    # the DofMap holds int64 ids; the mesh's cells come at their index width
    dof_vertex = vertex_of_label[order].astype(np.int64)

    # 0 at a vertex in no cell, so > 1 flags only the split fans
    vertex_ndofs = np.bincount(dof_vertex, minlength=nv)
    bad = ~has_barrier & (vertex_ndofs > 1)
    if np.any(bad):
        v = int(np.nonzero(bad)[0][0])
        raise DofMapError(
            f"vertex {v} is not on a barrier but its cell fan has "
            f"{vertex_ndofs[v]} components (non-manifold mesh?)"
        )

    vclass = np.full(nv, int(VertexClass.PLAIN), dtype=np.int64)
    vclass[has_barrier & (vertex_ndofs == 1)] = int(VertexClass.BARRIER_TIP)
    vclass[has_barrier & (vertex_ndofs > 1)] = int(VertexClass.BARRIER_INTERIOR)
    vclass[crossing] = int(VertexClass.INTERSECTION)

    minus = facet_dofs(mesh, cell_dofs, bar_rows)[0]
    plus = facet_dofs(mesh, cell_dofs, bar_rows, side=1)[0]
    dead = np.all(minus == plus, axis=1)
    if np.any(dead):
        i = int(np.nonzero(dead)[0][0])
        raise DofMapError(
            f"barrier facet {tuple(mesh.facets[bar_rows[i]].tolist())} has identical dofs on "
            "both sides; it cannot carry a pressure jump (isolated facet or "
            "merged by the intersection policy at every vertex)"
        )

    # a fracture facet is interior and no barrier, so it links its two
    # sides: either one resolves its dofs
    return DofMap(
        policy=policy,
        n_dofs=int(n_comp),
        cell_dofs=cell_dofs,
        dof_vertex=dof_vertex,
        vertex_ndofs=vertex_ndofs,
        vertex_class=vclass,
        barrier_facet_rows=bar_rows,
        barrier_minus=minus,
        barrier_plus=plus,
        fracture_facet_rows=fr_rows,
        fracture_dofs=facet_dofs(mesh, cell_dofs, fr_rows)[0],
    )


def write_vertex_report(mesh: Mesh, dofmap: DofMap, path) -> None:
    """Per-vertex classification and dof multiplicity as CSV."""
    names = np.array(list(_CLASS_NAMES.values()))[dofmap.vertex_class]
    with open(path, "w", newline="") as f:
        f.write(",".join(["vertex", *"xyz"[: mesh.dim], "n_dofs", "class"]) + "\r\n")
        write_rows(f, "%d," + "%r," * mesh.dim + "%d,%s\r\n", np.arange(mesh.n_vertices),
                   mesh.vertices, dofmap.vertex_ndofs, names)
