"""Uniform refinement in 2D and 3D."""

import numpy as np
import pytest

from boxdfm.benchmarks import get_scenario
from boxdfm.generators import crossed_square_mesh, kuhn_cube_mesh
from boxdfm.mesh import FacetKind, facet_measures
from boxdfm.refine import uniform_refine
from conftest import barrier_square
from test_mesh import _shuffled


def test_2d_counts_and_volume():
    m = barrier_square(n=4, jitter=0.2, seed=1)
    r = uniform_refine(m)
    assert r.n_cells == 4 * m.n_cells
    assert np.sum(r.cell_volumes()) == pytest.approx(np.sum(m.cell_volumes()))


def test_2d_facet_inheritance():
    m = barrier_square(n=4)
    r = uniform_refine(m)
    assert r.n_tagged_facets == 2 * m.n_tagged_facets
    for kind in (FacetKind.BARRIER, FacetKind.DIRICHLET, FacetKind.NEUMANN):
        parent = facet_measures(m.vertices, m.facets[m.facets_of_kind(kind)])
        child = facet_measures(r.vertices, r.facets[r.facets_of_kind(kind)])
        assert np.sum(child) == pytest.approx(np.sum(parent))
    rows = r.facets_of_kind(FacetKind.BARRIER)
    mids = r.vertices[r.facets[rows]].mean(axis=1)
    assert np.allclose(mids[:, 0], 0.5)


def test_region_inherited():
    m = barrier_square(n=2)
    r = uniform_refine(m, 2)
    c = r.cell_centroids()
    assert np.array_equal(r.cell_region, np.where(c[:, 0] < 0.5, 1, 2))


def test_3d_counts_and_volume():
    m = kuhn_cube_mesh(2, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 40)],
                       tag_map={1: "dirichlet", 2: "dirichlet", 3: "neumann",
                                4: "neumann", 5: "neumann", 6: "neumann",
                                40: "barrier"})
    r = uniform_refine(m)
    assert r.n_cells == 8 * m.n_cells
    assert np.sum(r.cell_volumes()) == pytest.approx(1.0)
    assert np.all(r.cell_volumes() > 0)
    # barrier triangles quadruple and still lie on the plane
    b = r.facets_of_kind(FacetKind.BARRIER)
    assert len(b) == 4 * len(m.facets_of_kind(FacetKind.BARRIER))
    assert np.allclose(r.vertices[r.facets[b]][:, :, 0], 0.5)
    assert np.sum(facet_measures(r.vertices, r.facets[b])) == pytest.approx(1.0)


def test_levels_zero_is_identity():
    m = barrier_square(n=2)
    r = uniform_refine(m, 0)
    assert r.n_cells == m.n_cells
    assert np.array_equal(r.vertices, m.vertices)


def reference_unique_edges(cells):
    """Edge table by row-wise unique, the lookup refinement used before
    it shared the packed facet keys."""
    nloc = cells.shape[1]
    pairs = [(i, j) for i in range(nloc) for j in range(i + 1, nloc)]
    e = np.sort(np.concatenate([cells[:, p] for p in pairs], axis=0), axis=1)
    return np.unique(e, axis=0)


def reference_mid(edges, nv, a, b):
    view = edges.view([("", edges.dtype)] * 2).ravel()
    q = np.ascontiguousarray(np.sort(np.stack([a, b], axis=1), axis=1))
    return nv + np.searchsorted(view, q.view([("", q.dtype)] * 2).ravel())


def _refine_meshes():
    ex56 = get_scenario("ex56")
    yield barrier_square(n=4, jitter=0.2, seed=1)
    yield _shuffled(crossed_square_mesh(5, jitter=0.2, seed=1), 2)
    yield ex56.mesh_factory(ex56.default_refine)
    yield _shuffled(ex56.mesh_factory(ex56.default_refine), 3)


def test_midpoints_follow_the_reference_edge_order():
    for m in _refine_meshes():
        r = uniform_refine(m)
        edges = reference_unique_edges(m.cells)
        mids = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
        want = np.vstack([m.vertices, mids])
        assert r.vertices.shape == want.shape
        assert r.vertices.tobytes() == want.tobytes()
        # the corner child of local vertex 0 holds that vertex's edge midpoints
        v = m.cells
        corner = [v[:, 0]] + [reference_mid(edges, m.n_vertices, v[:, 0], v[:, j])
                              for j in range(1, m.dim + 1)]
        corner = np.sort(np.stack(corner, axis=1), axis=1)
        assert np.array_equal(np.sort(r.cells[:m.n_cells], axis=1), corner)
