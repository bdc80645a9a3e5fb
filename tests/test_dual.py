"""Dual box geometry: piece volumes, piece centroids, sub-face fluxes."""

import numpy as np
import pytest

from boxdfm.dual import (boundary_subfaces, dual_geometry, p1_gradients,
                         subface_flux_matrices)
from boxdfm.mesh import build_mesh
from conftest import barrier_square

REF_TRI = build_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                     np.array([[0, 1, 2]]))
REF_TET = build_mesh(
    np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
              [0.0, 0.0, 1.0]]),
    np.array([[0, 1, 2, 3]]),
)


def _tri_area(a, b, c):
    u, v = b - a, c - a
    return 0.5 * abs(u[0] * v[1] - u[1] * v[0])


def _polygon_centroid(tris):
    """Area-weighted centroid of a union of triangles (a, b, c)."""
    areas = np.array([_tri_area(*t) for t in tris])
    cents = np.array([np.mean(t, axis=0) for t in tris])
    return (areas[:, None] * cents).sum(axis=0) / areas.sum()


def test_piece_volume_is_cell_fraction():
    for mesh, nloc in ((REF_TRI, 3), (REF_TET, 4)):
        dual = dual_geometry(mesh)
        assert np.allclose(dual.subvol, mesh.cell_volumes()[0] / nloc)


def test_piece_centroid_2d_rederived():
    # the box piece of vertex 0 is the quad (v0, m01, g, m02); decompose
    # it into two triangles and compare with the frozen weights
    v = REF_TRI.vertices
    m01, m02 = 0.5 * (v[0] + v[1]), 0.5 * (v[0] + v[2])
    g = v.mean(axis=0)
    expect = _polygon_centroid([(v[0], m01, g), (v[0], g, m02)])
    dual = dual_geometry(REF_TRI)
    assert np.allclose(dual.piece_centroids[0, 0], expect, atol=1e-14)
    # frozen barycentric weights (22, 7, 7)/36
    assert np.allclose(dual.piece_centroids[0, 0],
                       (22 * v[0] + 7 * v[1] + 7 * v[2]) / 36, atol=1e-14)


def test_piece_centroid_3d_rederived():
    # Monte-Carlo oracle: the piece of vertex 0 collects the points whose
    # largest barycentric coordinate is the first one
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(4), size=400000)
    inside = pts[np.argmax(pts, axis=1) == 0]
    bary = inside.mean(axis=0)
    assert np.allclose(bary, np.array([75.0, 23.0, 23.0, 23.0]) / 144, atol=2e-3)
    v = REF_TET.vertices
    dual = dual_geometry(REF_TET)
    expect = (75 * v[0] + 23 * (v[1] + v[2] + v[3])) / 144
    assert np.allclose(dual.piece_centroids[0, 0], expect, atol=1e-14)


def test_subface_vectors_close_each_box():
    # per vertex, sub-face vectors plus the outer boundary of the cell
    # piece must sum to zero; equivalently the subface route reproduces
    # the Galerkin matrix, checked entrywise below
    mesh = barrier_square(n=4, jitter=0.3, seed=5)
    dual = dual_geometry(mesh)
    K = np.broadcast_to(np.eye(2), (mesh.n_cells, 2, 2))
    A_sub = subface_flux_matrices(mesh, dual, np.ascontiguousarray(K))
    grads, vol = p1_gradients(mesh.vertices, mesh.cells)
    A_gal = np.einsum("cid,cjd,c->cij", grads, grads, vol)
    assert np.allclose(A_sub, A_gal, atol=1e-13)


def test_subface_route_matches_galerkin_anisotropic_3d():
    rng = np.random.default_rng(7)
    verts = REF_TET.vertices + 0.1 * rng.standard_normal((4, 3))
    mesh = build_mesh(verts, np.array([[0, 1, 2, 3]]))
    M = rng.standard_normal((3, 3))
    K = (M @ M.T + 3 * np.eye(3))[None, :, :]
    dual = dual_geometry(mesh)
    A_sub = subface_flux_matrices(mesh, dual, np.ascontiguousarray(K))
    grads, vol = p1_gradients(mesh.vertices, mesh.cells)
    A_gal = np.einsum("cid,cde,cje,c->cij", grads, K, grads, vol)
    assert np.allclose(A_sub, A_gal, atol=1e-12)


def test_p1_gradients_reference_triangle():
    grads, vol = p1_gradients(REF_TRI.vertices, REF_TRI.cells)
    assert vol[0] == pytest.approx(0.5)
    assert np.allclose(grads[0], [[-1, -1], [1, 0], [0, 1]])


def test_boundary_subfaces_1d_weights():
    # piece of an edge endpoint is its half; centroid at 1/4 from the end
    mesh = barrier_square(n=2)
    rows = np.arange(mesh.n_tagged_facets)
    sub, cent = boundary_subfaces(mesh, rows)
    p = mesh.vertices[mesh.facets[rows]]
    L = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    assert np.allclose(sub.sum(axis=1), L)
    assert np.allclose(cent[:, 0], 0.75 * p[:, 0] + 0.25 * p[:, 1])
    assert np.allclose(cent[:, 1], 0.25 * p[:, 0] + 0.75 * p[:, 1])


def test_boundary_subfaces_2d_centroid():
    mesh = REF_TET
    # tag the z=0 face as boundary by constructing facets directly
    m = build_mesh(mesh.vertices, mesh.cells, np.array([[0, 1, 2]]),
                   np.array([3]), tag_map={3: "dirichlet"})
    sub, cent = boundary_subfaces(m, np.array([0]))
    assert np.allclose(sub, 0.5 / 3)
    v = m.vertices[m.facets[0]]
    assert np.allclose(cent[0, 0], (22 * v[0] + 7 * v[1] + 7 * v[2]) / 36)
