"""Barycentric dual (box) geometry over a simplicial mesh.

Each vertex owns a box; inside a cell the box piece around local vertex i
is the set where the i-th barycentric coordinate dominates the others. Its
corners are the vertex, adjacent edge midpoints, adjacent facet centroids,
and the cell centroid. All piece measures and centroids are fixed rational
multiples in barycentric coordinates, so everything here is exact up to
rounding (affine invariance).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .mesh import Mesh, _edge_volumes

__all__ = [
    "DualBoxGeometry",
    "dual_geometry",
    "p1_gradients",
    "boundary_subfaces",
    "subface_flux_matrices",
]

# Barycentric centroid of the box piece around vertex 0 of the reference
# simplex, per dimension of the simplex. Derived once by exact decomposition
# of the piece (a convex planar-faced polytope); see the dual geometry tests,
# which re-derive these from scratch.
_PIECE_CENTROID_W = {
    1: np.array([3.0, 1.0]) / 4.0,
    2: np.array([22.0, 7.0, 7.0]) / 36.0,
    3: np.array([75.0, 23.0, 23.0, 23.0]) / 144.0,
}

_PAIRS = {
    2: np.array([(0, 1), (0, 2), (1, 2)], dtype=np.int64),
    3: np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64),
}


def _centroid_weights(d: int) -> np.ndarray:
    w0 = _PIECE_CENTROID_W[d]
    nloc = d + 1
    W = np.full((nloc, nloc), w0[1])
    np.fill_diagonal(W, w0[0])
    return W


class DualBoxGeometry:
    """Box pieces of every cell. Each array is built on first access from one
    shared gather of the cell corners, so a run pays only for what it reads."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.pairs = _PAIRS[mesh.dim]  # (npairs, 2) local vertex pairs, i < j

    @cached_property
    def _corners(self) -> np.ndarray:  # (nc, dim+1, dim)
        return self.mesh.vertices[self.mesh.cells]

    @cached_property
    def subvol(self) -> np.ndarray:  # (nc, dim+1) piece volume, |T|/(dim+1) each
        p, nloc = self._corners, self.mesh.dim + 1
        vol = _edge_volumes(p[:, 1:, :] - p[:, :1, :])
        return np.repeat(vol[:, None] / nloc, nloc, axis=1)

    @cached_property
    def piece_centroids(self) -> np.ndarray:  # (nc, dim+1, dim)
        return np.einsum("ij,cjd->cid", _centroid_weights(self.mesh.dim), self._corners)

    @cached_property
    def subface_vectors(self) -> np.ndarray:  # (nc, npairs, dim) area vectors oriented i -> j
        return _subface_vectors(self._corners, self.pairs)


def dual_geometry(mesh: Mesh) -> DualBoxGeometry:
    return DualBoxGeometry(mesh)


def _subface_vectors(p: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    nc, nloc, dim = p.shape
    centroid = p.mean(axis=1)
    vecs = np.empty((nc, len(pairs), dim))
    for k, (i, j) in enumerate(pairs):
        mid = 0.5 * (p[:, i] + p[:, j])
        if dim == 2:
            t = centroid - mid
            n = np.stack([t[:, 1], -t[:, 0]], axis=1)
        else:
            others = [m for m in range(nloc) if m not in (i, j)]
            gk = (p[:, i] + p[:, j] + p[:, others[0]]) / 3.0
            gl = (p[:, i] + p[:, j] + p[:, others[1]]) / 3.0
            # planar quad (mid, gk, centroid, gl); sum of the two triangle
            # area vectors
            n = 0.5 * np.cross(gk - mid, centroid - mid) + 0.5 * np.cross(
                centroid - mid, gl - mid
            )
        sign = np.sign(np.einsum("cd,cd->c", n, p[:, j] - p[:, i]))
        vecs[:, k, :] = n * sign[:, None]
    return vecs


def p1_gradients(vertices: np.ndarray, cells: np.ndarray):
    """Gradients of the linear hat functions of the given cells over the
    vertex array.

    Returns (grads, vol): grads has shape (nc, dim+1, dim) with row i the
    constant gradient of the hat function of local vertex i; vol holds the
    signed cell volumes.
    """
    p = vertices[cells]
    edges = p[:, 1:, :] - p[:, :1, :]  # (nc, dim, dim)
    return _hat_gradients(edges), _edge_volumes(edges)


def _hat_gradients(edges: np.ndarray) -> np.ndarray:
    """(n, d+1, d) hat-function gradients of simplices from their (n, d, d)
    edges off corner 0, in the simplices' own d coordinates."""
    inv = np.linalg.inv(edges)
    # hat i (i >= 1) has gradient = column i-1 of inv; hat 0 = -sum
    g = np.transpose(inv, (0, 2, 1))
    return np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)


def boundary_subfaces(mesh: Mesh, facet_idx: np.ndarray):
    """Per-vertex portion of tagged facets: measures and centroids.

    For tagged facet rows facet_idx, returns (measures, centroids) of the
    piece of the facet owned by each of its vertices: shape (nf, d) and
    (nf, d, dim) with d vertices per facet. Piece measure is facet
    measure / d; centroids use the same fixed barycentric weights as cell
    pieces, one dimension down.
    """
    from .mesh import facet_measures

    facets = mesh.facets[facet_idx]
    d = facets.shape[1]
    meas = facet_measures(mesh.vertices, facets)
    sub = np.repeat(meas[:, None] / d, d, axis=1)
    W = _centroid_weights(d - 1)
    p = mesh.vertices[facets]
    cent = np.einsum("ij,fjd->fid", W, p)
    return sub, cent


def subface_flux_matrices(mesh: Mesh, dual: DualBoxGeometry, K_cells: np.ndarray) -> np.ndarray:
    """Local box matrices from explicit sub-face fluxes (reference path).

    Row i collects the fluxes -(K grad p) . a_ij over the sub-faces between
    box pieces i and j, for p linear on the cell. Kept as an independent
    second route to the same matrices the assembly produces from hat
    gradients; the two must agree to rounding.
    """
    grads, _ = p1_gradients(mesh.vertices, mesh.cells)
    Kg = np.einsum("cde,cme->cmd", K_cells, grads)  # (nc, nloc, dim)
    nloc = mesh.dim + 1
    out = np.zeros((mesh.n_cells, nloc, nloc))
    for k, (i, j) in enumerate(dual.pairs):
        a = dual.subface_vectors[:, k, :]
        # outward flux of box i through this sub-face, per hat function
        flux = -np.einsum("cd,cmd->cm", a, Kg)
        out[:, i, :] += flux
        out[:, j, :] -= flux
    return out
