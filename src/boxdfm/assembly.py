"""Assembly of the box-method system on the broken vertex space.

The flux part of the box matrix coincides with the linear FEM stiffness
matrix cell by cell, so cells are assembled from hat-function gradients.
An alternative route through explicit dual sub-face fluxes is kept for
cross-checking (route="subfaces"); both must agree to rounding.

Fracture facets add tangential transmission along the facet; barrier
facets add the interface transfer term coupling the two pressure traces
through fixed sub-facet weights (3/8, 1/8 of the facet measure in 2D;
22/108, 7/108 in 3D). Sources integrate by midpoint rule per box piece;
Neumann data integrates per boundary sub-facet. Dirichlet conditions are
eliminated symmetrically, keeping the unconstrained operator for flux
recovery.

The operator is written straight into CSR arrays, with no COO list.
Each dof row's entry count comes first from the block dofs (a block row
of k dofs adds k entries to its dof), then int32 column indices (int64
only from 2**31 dofs or entries) and float64 values are allocated once.
Cell blocks are computed over ranges of _CELL_RANGE cells, then fracture
and barrier blocks follow; each block row writes its k entries after the
earlier block rows of its dof (_fill_rows). A row thus holds its entries
in the order cells, fractures, barriers, row-major within each block,
which is the row layout scipy's COO to CSR conversion builds from that
list, so the same sum_duplicates and sort_indices add the duplicates in
the same order, and A0 depends neither on the range size nor on the
route to CSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dofspace import DofMap, components, facet_dofs
from .dual import (DualBoxGeometry, _hat_gradients, boundary_subfaces, dual_geometry,
                   p1_gradients, subface_flux_matrices)
from .errors import ValidationError, finite_values
from .materials import MaterialModel
from .mesh import FacetKind, Mesh, _index_dtype, facet_measures

__all__ = [
    "SparseSystem",
    "local_cell_matrices",
    "local_fracture_matrices",
    "local_barrier_coupling",
    "local_barrier_matrices",
    "assemble_operator",
    "assemble_rhs",
    "apply_dirichlet",
    "floating_compartments",
    "scenario_warnings",
    "assemble_system",
    "flux_balance",
]

# sub-facet transfer weights: row vertex gets w0 of its own jump and w1 of
# the other facet vertices' jumps, times beta * facet measure
_TRANSFER_W = {
    2: np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0,
    3: np.array([[22.0, 7.0, 7.0], [7.0, 22.0, 7.0], [7.0, 7.0, 22.0]]) / 108.0,
}

# cells per range of the cell-block loop in assemble_operator
_CELL_RANGE = 2 ** 13

# a compartment's net supply counts as zero up to this fraction of its
# gross supply, far above the rounding of b0 and of its sum
_SUPPLY_RTOL = 1e-12


def local_cell_matrices(mesh: Mesh, K_cells: np.ndarray) -> np.ndarray:
    """(nc, dim+1, dim+1) stiffness |T| * grad_i . K grad_j per cell."""
    return _cell_matrices(mesh.vertices, mesh.cells, K_cells)


def _cell_matrices(vertices: np.ndarray, cells: np.ndarray, K_cells: np.ndarray) -> np.ndarray:
    """local_cell_matrices of the given cells over the vertex array."""
    grads, vol = p1_gradients(vertices, cells)
    Kg = np.einsum("cde,cje->cjd", K_cells, grads)
    return np.einsum("cid,cjd,c->cij", grads, Kg, vol)


def _inplane_stiffness(p: np.ndarray) -> np.ndarray:
    """P1 stiffness of 3D triangles within their own plane (unit coefficient)."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    l1 = np.linalg.norm(e1, axis=1)
    u = e1 / l1[:, None]
    x2 = np.einsum("fd,fd->f", e2, u)
    y2 = np.linalg.norm(e2 - x2[:, None] * u, axis=1)
    # local 2D coordinates (0,0), (l1,0), (x2,y2)
    q = np.zeros((len(p), 3, 2))
    q[:, 1, 0] = l1
    q[:, 2, 0] = x2
    q[:, 2, 1] = y2
    grads = _hat_gradients(q[:, 1:] - q[:, :1])
    area = 0.5 * l1 * y2
    return np.einsum("fid,fjd,f->fij", grads, grads, area)


def local_fracture_matrices(mesh: Mesh, facet_rows: np.ndarray,
                            transmissivity: np.ndarray) -> np.ndarray:
    """Tangential flow along fracture facets; transmissivity = aperture * k_f.

    2D facets (edges of length L) give (a k_f / L) [[1,-1],[-1,1]]; 3D
    facets give a k_f times the in-plane P1 stiffness of the triangle.
    Row sums vanish (pure tangential transport).
    """
    p = mesh.vertices[mesh.facets[facet_rows]]
    if mesh.dim == 2:
        L = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        base = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return (transmissivity / L)[:, None, None] * base
    return transmissivity[:, None, None] * _inplane_stiffness(p)


def local_barrier_coupling(measure: float, beta: float, dim: int = 2) -> np.ndarray:
    """Transfer matrix of a single barrier facet of the given measure.

    Dofs are ordered (minus side vertices..., plus side vertices...).
    In 2D the 4x4 matrix carries -3/8 of the facet measure times beta on
    same-vertex opposite-side pairs and -1/8 (+1/8 same side) on
    cross-vertex pairs.
    """
    return _barrier_blocks(np.array([beta * measure]), dim)[0]


def local_barrier_matrices(mesh: Mesh, facet_rows: np.ndarray,
                           beta: np.ndarray) -> np.ndarray:
    """Interface transfer across barrier facets; beta = k_b / aperture.

    Dof order is (minus side vertices..., plus side vertices...); the
    matrix is beta * measure * [[W, -W], [-W, W]] with W the fixed
    sub-facet weight block. beta = 0 yields exact zeros. PSD with kernel
    spanned by side-constant vectors (no jump, no transfer).
    """
    meas = facet_measures(mesh.vertices, mesh.facets[facet_rows])
    return _barrier_blocks(beta * meas, mesh.dim)


def _barrier_blocks(coef: np.ndarray, dim: int) -> np.ndarray:
    """coef * [[W, -W], [-W, W]] per entry of coef, W the weights of _TRANSFER_W."""
    block = coef[:, None, None] * _TRANSFER_W[dim]
    top = np.concatenate([block, -block], axis=2)
    bot = np.concatenate([-block, block], axis=2)
    return np.concatenate([top, bot], axis=1)


def assemble_operator(mesh: Mesh, dofmap: DofMap, materials: MaterialModel,
                      dual: DualBoxGeometry | None = None,
                      route: str = "gradients") -> sp.csr_matrix:
    """Unconstrained operator A0 (cells + fractures + barriers)."""
    if route not in ("gradients", "subfaces"):
        raise ValidationError(f"unknown assembly route {route!r}")
    n = dofmap.n_dofs
    d = mesh.dim
    nc = mesh.n_cells
    fr, br = dofmap.fracture_facet_rows, dofmap.barrier_facet_rows
    bd = np.concatenate([dofmap.barrier_minus, dofmap.barrier_plus], axis=1)
    kinds = [dofmap.cell_dofs, dofmap.fracture_dofs, bd]
    # each dof row's entries: a block row of k dofs adds k to its dof
    counts = sum(np.bincount(dofs.ravel(), minlength=n) * dofs.shape[1] for dofs in kinds)
    size = int(counts.sum())
    index = _index_dtype(max(n, size))
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    fill = indptr[:-1].copy()
    indices = np.empty(size, dtype=index)
    data = np.empty(size)

    if route == "gradients":
        for lo in range(0, nc, _CELL_RANGE):
            hi = min(lo + _CELL_RANGE, nc)
            block = _cell_matrices(mesh.vertices, mesh.cells[lo:hi],
                                   materials._region_tensors(mesh.cell_region[lo:hi], d))
            _fill_rows(indices, data, fill, dofmap.cell_dofs[lo:hi], block)
    else:
        if dual is None:
            dual = dual_geometry(mesh)
        blocks = subface_flux_matrices(mesh, dual, materials.cell_tensors(mesh))
        for lo in range(0, nc, _CELL_RANGE):
            _fill_rows(indices, data, fill, dofmap.cell_dofs[lo:lo + _CELL_RANGE],
                       blocks[lo:lo + _CELL_RANGE])
    if len(fr):
        trans = materials.fracture_transmissivity(mesh.facet_tags[fr])
        _fill_rows(indices, data, fill, dofmap.fracture_dofs,
                   local_fracture_matrices(mesh, fr, trans))
    if len(br):
        beta = materials.barrier_beta(mesh.facet_tags[br])
        _fill_rows(indices, data, fill, bd, local_barrier_matrices(mesh, br, beta))

    A0 = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    A0.sum_duplicates()
    A0.sort_indices()
    return A0


def _fill_rows(indices: np.ndarray, data: np.ndarray, fill: np.ndarray,
               dofs: np.ndarray, blocks: np.ndarray) -> None:
    """Write the local blocks (m, k, k) over dofs (m, k) into their CSR rows.

    Block row (b, i) puts its k entries at fill[dofs[b, i]] + k * rank + j,
    where rank counts the earlier block rows of the same dof among these m
    blocks; then fill moves past them. So the entries of a row stand in the
    order of their block rows, as in a COO list of the blocks converted
    to CSR.
    """
    m, k = dofs.shape
    at = (_block_row_starts(dofs.ravel(), fill, k)[:, None] + np.arange(k)).ravel()
    indices[at] = np.broadcast_to(dofs.astype(indices.dtype)[:, None, :], (m, k, k)).ravel()
    data[at] = blocks.ravel()


def _block_row_starts(row: np.ndarray, fill: np.ndarray, k: int) -> np.ndarray:
    """The positions fill[row] + k * rank as intp, where rank (in fill's
    dtype) counts the earlier entries of row equal to each; then fill moves
    k past each entry."""
    nrow = len(row)
    # row sorted by value, then position: one packed int64 key per entry
    shift = nrow.bit_length()
    key = (row.astype(np.int64) << shift) | np.arange(nrow)
    key.sort()
    srow = key >> shift
    order = np.bitwise_and(key, (1 << shift) - 1, out=key)
    new = np.empty(nrow, dtype=bool)
    new[0] = True
    np.not_equal(srow[1:], srow[:-1], out=new[1:])
    # a sorted entry's rank is its distance from the first of its value
    pos = np.arange(nrow, dtype=fill.dtype)
    rank = np.empty_like(pos)
    rank[order] = pos - np.maximum.accumulate(np.where(new, pos, 0))
    start = (fill[row] + k * rank).astype(np.intp)
    fill[srow[new]] += k * np.diff(np.flatnonzero(new), append=nrow).astype(fill.dtype)
    return start


def assemble_rhs(mesh: Mesh, dofmap: DofMap, dual: DualBoxGeometry,
                 source=None, neumann: dict | None = None) -> np.ndarray:
    """Source and Neumann contributions.

    source(points, regions) -> values, integrated by midpoint rule over
    each box piece. neumann maps facet tag -> g(points, regions) -> outward
    normal flux density, evaluated with the region of each facet's
    resolving cell as in collect_dirichlet; its contribution is -g *
    sub-facet measure at the sub-facet centroid (positive g drains the box).
    """
    b = np.zeros(dofmap.n_dofs)
    if source is not None:
        cent = dual.piece_centroids  # (nc, nloc, dim)
        nloc = mesh.dim + 1
        pts = cent.reshape(-1, mesh.dim)
        regs = np.repeat(mesh.cell_region, nloc)
        q = finite_values("source", source(pts, regs), pts).reshape(mesh.n_cells, nloc)
        np.add.at(b, dofmap.cell_dofs, q * dual.subvol)
    for tag, g in (neumann or {}).items():
        rows, dofs, regs = _tagged_facets(mesh, dofmap, FacetKind.NEUMANN, tag)
        meas, cents = boundary_subfaces(mesh, rows)
        pts = cents.reshape(-1, mesh.dim)
        vals = finite_values(f"neumann tag {tag}", g(pts, regs), pts)
        np.add.at(b, dofs.ravel(), -vals * meas.ravel())
    return b


def _tagged_facets(mesh: Mesh, dofmap: DofMap, kind: FacetKind, tag):
    """The rows of the facets of this kind and tag, the dofs of their
    vertices (facet_dofs) and the region of each vertex's resolving cell."""
    rows = np.nonzero((mesh.facet_tags == int(tag)) & (mesh.facet_kinds == int(kind)))[0]
    if len(rows) == 0:
        raise ValidationError(f"{kind.name.lower()} tag {tag} matches no facets")
    dofs, cells = facet_dofs(mesh, dofmap.cell_dofs, rows)
    return rows, dofs, np.repeat(mesh.cell_region[cells], mesh.dim)


def collect_dirichlet(mesh: Mesh, dofmap: DofMap, dirichlet: dict):
    """Resolve Dirichlet dof values from tag -> g(points, regions) callables.

    Every dof of a boundary vertex that belongs to a cell touching the
    facet receives the value; values are evaluated with the resolving
    cell's region so side-dependent data lands on the matching component.
    A dof assigned more than once keeps the last value in tag order; two
    successive values that differ by more than 1e-9 times the later tag's
    scale are contradictory and an error. Returns sorted dofs and values.
    """
    dofs, vals, scales = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    for tag, g in (dirichlet or {}).items():
        rows, d, regs = _tagged_facets(mesh, dofmap, FacetKind.DIRICHLET, tag)
        pts = mesh.vertices[mesh.facets[rows]].reshape(-1, mesh.dim)
        v = finite_values(f"dirichlet tag {tag}", g(pts, regs), pts)
        dofs.append(d.ravel())
        vals.append(v)
        scales.append(np.full(len(v), max(1.0, float(np.abs(v).max()))))
    dofs = np.concatenate(dofs)
    order = np.argsort(dofs, kind="stable")
    dofs, vals, scales = dofs[order], np.concatenate(vals)[order], np.concatenate(scales)[order]
    same = dofs[1:] == dofs[:-1]
    clash = same & (np.abs(np.diff(vals)) > 1e-9 * scales[1:])
    if clash.any():
        # the clash a tag-order sweep meets first
        i = np.flatnonzero(clash)[np.argmin(order[1:][clash])]
        raise ValidationError(
            f"dof {int(dofs[i])} receives contradictory Dirichlet values "
            f"{float(vals[i])!r} and {float(vals[i + 1])!r}"
        )
    last = np.ones(len(dofs), dtype=bool)
    last[:-1] = ~same
    return dofs[last], vals[last]


@dataclass
class SparseSystem:
    """Constrained system plus the unconstrained pieces for flux recovery.
    The Dirichlet dofs end with the pins of assemble_system, at value 0."""

    A: sp.csr_matrix
    b: np.ndarray
    A0: sp.csr_matrix
    b0: np.ndarray
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def residual_fluxes(self, x: np.ndarray) -> np.ndarray:
        """A0 x - b0: zero at interior dofs, boundary inflow at Dirichlet dofs."""
        return self.A0 @ x - self.b0


def apply_dirichlet(A0: sp.csr_matrix, b0: np.ndarray, dofs: np.ndarray,
                    values: np.ndarray):
    """Symmetric elimination: zero rows/cols, unit diagonal, shifted rhs.

    Works on a copy of A0 in place. Every dof's diagonal is stored (cell
    stiffness diagonals are positive), so it can be set to one; entries
    zeroed here and explicit zeros of A0 are dropped, so the pattern of
    tril(A) that IC(0) factors on holds no zero.
    """
    n = A0.shape[0]
    g = np.zeros(n)
    g[dofs] = values
    b = b0 - A0 @ g
    b[dofs] = values
    fixed = np.zeros(n, dtype=bool)
    fixed[dofs] = True
    A = A0.copy()
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    hit = fixed[rows] | fixed[A.indices]
    A.data[hit] = 0.0
    A.data[hit & (rows == A.indices)] = 1.0
    A.eliminate_zeros()
    return A, b


def floating_compartments(mesh: Mesh, dofmap: DofMap, materials: MaterialModel,
                          dirichlet_dofs: np.ndarray):
    """Compartments of the coupling graph (dofs couple within a cell and
    across barriers with k > 0) that hold no dof of dirichlet_dofs.

    Returns every dof's compartment label and, in label order, one dof of
    each such compartment, on a vertex no barrier splits where it has one,
    with a phrase naming the compartment.
    """
    n = dofmap.n_dofs
    index = _index_dtype(n)
    first, second = np.triu_indices(mesh.dim + 1, 1)
    live = materials.barrier_beta(mesh.facet_tags[dofmap.barrier_facet_rows]) > 0.0
    rows = np.concatenate([dofmap.cell_dofs[:, i] for i in first]
                          + [dofmap.barrier_minus[live].ravel()], dtype=index)
    cols = np.concatenate([dofmap.cell_dofs[:, j] for j in second]
                          + [dofmap.barrier_plus[live].ravel()], dtype=index)
    ncomp, labels = components(n, rows, cols)
    floating = np.bincount(labels[dirichlet_dofs], minlength=ncomp) == 0
    dofs = np.flatnonzero(floating[labels])
    dofs = dofs[np.lexsort((dofmap.vertex_ndofs[dofmap.dof_vertex[dofs]] > 1, labels[dofs]))]
    pins = dofs[np.unique(labels[dofs], return_index=True)[1]]
    where = [f"compartment with {size} dofs around vertex {v} "
             f"({', '.join(f'{x:g}' for x in mesh.vertices[v])}) has no Dirichlet data"
             for size, v in zip(np.bincount(labels)[labels[pins]], dofmap.dof_vertex[pins])]
    return labels, pins, where


def scenario_warnings(mesh: Mesh, dofmap: DofMap, materials: MaterialModel,
                      dirichlet_dofs: np.ndarray) -> list[str]:
    """The warnings of a run with these Dirichlet dofs: barriers whose
    tangential permeability exceeds the matrix permeability, then the
    compartments the dofs leave without Dirichlet data, which get pinned."""
    return _warnings(materials, floating_compartments(mesh, dofmap, materials, dirichlet_dofs)[2])


def _warnings(materials: MaterialModel, where: list[str]) -> list[str]:
    """scenario_warnings, given the phrases of floating_compartments."""
    kmax = materials.matrix_norm()
    barriers = [f"barrier tag {tag}: tangential permeability {law.k_tangential:g} exceeds "
                f"the matrix permeability {kmax:g}; the model neglects in-plane barrier "
                "flow, expect visible model error"
                for tag, law in sorted(materials.barriers.items())
                if law.k_tangential is not None and law.k_tangential > kmax]
    return barriers + [f"{w}; its pressure is pinned to 0 at that vertex" for w in where]


def assemble_system(mesh: Mesh, dofmap: DofMap, materials: MaterialModel,
                    source=None, neumann: dict | None = None,
                    dirichlet: dict | None = None) -> SparseSystem:
    """The system of one scenario's data, Dirichlet conditions eliminated.

    First each compartment of floating_compartments (the whole domain, if
    there is no Dirichlet data) is pinned to 0 at its dof, or, if its net
    supply exceeds _SUPPLY_RTOL of its gross supply, rejected with
    ValidationError, as no pressure field balances it.
    """
    return _assemble_system(mesh, dofmap, materials, source, neumann, dirichlet)[0]


def _assemble_system(mesh, dofmap, materials, source, neumann, dirichlet):
    """assemble_system, and the run's warnings (scenario_warnings)."""
    dual = dual_geometry(mesh)
    A0 = assemble_operator(mesh, dofmap, materials, dual)
    b0 = assemble_rhs(mesh, dofmap, dual, source=source, neumann=neumann)
    dofs, values = collect_dirichlet(mesh, dofmap, dirichlet or {})
    labels, pins, where = floating_compartments(mesh, dofmap, materials, dofs)
    net = np.bincount(labels, weights=b0)[labels[pins]]
    gross = np.bincount(labels, weights=np.abs(b0))[labels[pins]]
    bad = np.flatnonzero(np.abs(net) > _SUPPLY_RTOL * gross)
    if len(bad):
        i = bad[0]
        raise ValidationError(f"{where[i]} but net supply {net[i]:.6g}; "
                              "no pressure field balances it")
    dofs, values = np.concatenate([dofs, pins]), np.concatenate([values, np.zeros(len(pins))])
    A, b = apply_dirichlet(A0, b0, dofs, values)
    return (SparseSystem(A=A, b=b, A0=A0, b0=b0, dirichlet_dofs=dofs, dirichlet_values=values),
            _warnings(materials, where))


def flux_balance(system: SparseSystem, x: np.ndarray) -> dict:
    """Global conservation summary for a solved system.

    outflow (through Dirichlet boxes) should balance sources plus Neumann
    inflow; imbalance collects solver residual and is the conservation
    measure tests pin down.
    """
    r = system.residual_fluxes(x)
    rdir = r[system.dirichlet_dofs]
    inflow_dirichlet = float(rdir.sum())
    supplied = float(system.b0.sum())
    interior = np.ones(system.n, dtype=bool)
    interior[system.dirichlet_dofs] = False
    # row sums of A0 vanish, so supplied - outflow = -(interior residual sum);
    # the imbalance measures how far the solve is from exact conservation.
    # scale: gross boundary/source throughput, so opposing Dirichlet fluxes
    # that cancel in the net still count
    scale = max(float(np.abs(rdir).sum()), float(np.abs(system.b0).sum()))
    imbalance = supplied + inflow_dirichlet
    return {
        "dirichlet_outflow": -inflow_dirichlet,
        "supplied": supplied,
        "imbalance": imbalance,
        "flux_scale": scale,
        "relative_imbalance": abs(imbalance) / scale if scale > 0 else abs(imbalance),
        "max_interior_residual": float(np.abs(r[interior]).max()) if interior.any() else 0.0,
    }
