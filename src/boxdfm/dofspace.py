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

__all__ = ["POLICIES", "VertexClass", "DofMap", "build_dof_map", "boundary_dofs",
           "facet_vertex_dofs", "write_vertex_report"]

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
    cell_ids[k], in the dtype of cell_ids; dofs are then
    cell_dofs.ravel()[nodes].

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
    return np.ascontiguousarray((cell_ids * nloc + local).T)


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

    # node ids cell * nloc + local in int32 while they fit
    n_nodes = nc * nloc
    node = _index_dtype(n_nodes)
    link_cells, link_verts = mesh.ufacet_cells[link].astype(node), mesh.ufacets[link]
    rows = [_corner_nodes(cells, link_cells[:, 0], link_verts).ravel()]
    cols = [_corner_nodes(cells, link_cells[:, 1], link_verts).ravel()]
    del link_cells, link_verts

    has_barrier = np.zeros(nv, dtype=bool)
    has_fracture = np.zeros(nv, dtype=bool)
    has_barrier[mesh.facets[mesh.facets_of_kind(FacetKind.BARRIER)].ravel()] = True
    has_fracture[mesh.facets[mesh.facets_of_kind(FacetKind.FRACTURE)].ravel()] = True

    crossing = has_barrier & has_fracture
    if policy == "fracture_penetrates" and crossing.any():
        # chain the nodes of each crossing vertex: over the nodes sorted by
        # vertex, link each node to the next one of the same vertex
        order = np.argsort(cells.ravel(), kind="stable").astype(node)
        sorted_v = cells.ravel()[order]
        link_next = (sorted_v[:-1] == sorted_v[1:]) & crossing[sorted_v[:-1]]
        rows.append(order[:-1][link_next])
        cols.append(order[1:][link_next])

    graph = coo_matrix((np.ones(sum(map(len, rows)), dtype=np.int8),
                        (np.concatenate(rows), np.concatenate(cols))), shape=(n_nodes, n_nodes))
    del rows, cols
    n_comp, labels = connected_components(graph, directed=False)
    del graph

    first = np.full(n_comp, n_nodes, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n_nodes, dtype=np.int64))
    vertex_of_label = cells.ravel()[first]
    order = np.lexsort((first, vertex_of_label))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[order] = np.arange(n_comp, dtype=np.int64)
    cell_dofs = rank[labels].reshape(nc, nloc)
    dof_vertex = vertex_of_label[order]

    vertex_ndofs = np.bincount(dof_vertex, minlength=nv)
    in_use = np.zeros(nv, dtype=bool)
    in_use[cells.ravel()] = True
    bad = in_use & ~has_barrier & (vertex_ndofs != 1)
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

    bar_rows = mesh.facets_of_kind(FacetKind.BARRIER)
    bar_cells = mesh.ufacet_cells[mesh.facet_to_ufacet[bar_rows]]
    minus = cell_dofs.ravel()[_corner_nodes(cells, bar_cells[:, 0], mesh.facets[bar_rows])]
    plus = cell_dofs.ravel()[_corner_nodes(cells, bar_cells[:, 1], mesh.facets[bar_rows])]
    dead = np.all(minus == plus, axis=1)
    if np.any(dead):
        i = int(np.nonzero(dead)[0][0])
        raise DofMapError(
            f"barrier facet {tuple(mesh.facets[bar_rows[i]].tolist())} has identical dofs on "
            "both sides; it cannot carry a pressure jump (isolated facet or "
            "merged by the intersection policy at every vertex)"
        )

    fr_rows = mesh.facets_of_kind(FacetKind.FRACTURE)
    fr_cells = mesh.ufacet_cells[mesh.facet_to_ufacet[fr_rows]]
    fdofs = cell_dofs.ravel()[_corner_nodes(cells, fr_cells[:, 0], mesh.facets[fr_rows])]
    other = cell_dofs.ravel()[_corner_nodes(cells, fr_cells[:, 1], mesh.facets[fr_rows])]
    if not np.array_equal(fdofs, other):
        raise DofMapError("fracture facet resolves to different dofs from its two sides")

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
        fracture_dofs=fdofs,
    )


def facet_vertex_dofs(mesh: Mesh, dofmap: DofMap, facet_rows: np.ndarray):
    """Dofs of each facet vertex, resolved through the first adjacent cell.

    Returns (dofs, cells): dofs has shape (len(rows), dim); cells is the
    resolving cell per facet (used for region-dependent boundary values).
    """
    c = mesh.ufacet_cells[mesh.facet_to_ufacet[facet_rows], 0]
    return dofmap.cell_dofs.ravel()[_corner_nodes(mesh.cells, c, mesh.facets[facet_rows])], c


def boundary_dofs(mesh: Mesh, dofmap: DofMap, kind: FacetKind) -> np.ndarray:
    """Unique dofs sitting on tagged facets of the given boundary kind.

    A barrier terminating at such a facet contributes all of the endpoint
    vertex's dofs that belong to cells touching the facet.
    """
    rows = mesh.facets_of_kind(kind)
    dofs, _ = facet_vertex_dofs(mesh, dofmap, rows)
    return np.unique(dofs.ravel())


def write_vertex_report(mesh: Mesh, dofmap: DofMap, path) -> None:
    """Per-vertex classification and dof multiplicity as CSV."""
    names = np.array(list(_CLASS_NAMES.values()))[dofmap.vertex_class]
    with open(path, "w", newline="") as f:
        f.write(",".join(["vertex", *"xyz"[: mesh.dim], "n_dofs", "class"]) + "\r\n")
        write_rows(f, "%d," + "%r," * mesh.dim + "%d,%s\r\n", np.arange(mesh.n_vertices),
                   mesh.vertices, dofmap.vertex_ndofs, names)
