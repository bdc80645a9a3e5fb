"""Uniform refinement in 2D and 3D."""

import dataclasses
import re

import numpy as np
import pytest

import boxdfm.refine
from boxdfm.benchmarks import get_scenario
from boxdfm.errors import ValidationError
from boxdfm.generators import crossed_square_mesh, kuhn_cube_mesh
from boxdfm.mesh import FacetKind, _orientation_volumes, facet_measures
from boxdfm.refine import _ARRAYS, _CELL_CHILDREN, _refine_once, uniform_refine
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
    assert uniform_refine(m, np.int64(0)) is m
    assert uniform_refine(m, np.int32(1)).n_cells == 4 * m.n_cells


@pytest.mark.parametrize("levels", [-1, 1.5, "2", True, None])
def test_bad_levels_are_rejected_by_name(levels):
    with pytest.raises(ValidationError, match=re.escape(f"got {levels!r}")):
        uniform_refine(barrier_square(n=2), levels)


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


def _fields_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def test_two_levels_at_once_equal_two_calls():
    for m in _refine_meshes():
        _fields_equal(uniform_refine(m, 2), uniform_refine(uniform_refine(m, 1), 1))


def test_children_come_out_positively_oriented():
    for m in _refine_meshes():
        arrays = [getattr(m, name) for name in _ARRAYS]
        for _ in range(2):
            arrays = _refine_once(*arrays)
            vertices, cells = arrays[:2]
            assert np.all(_orientation_volumes(vertices, cells) > 0)


def test_corner_children_hold_their_parent_vertex_at_a_table_position():
    for m in _refine_meshes():
        r, nc, table = uniform_refine(m), m.n_cells, _CELL_CHILDREN[m.dim]
        for c in range(m.dim + 1):
            pos = list(table[c]).index(c)
            assert np.array_equal(r.cells[c * nc:(c + 1) * nc, pos], m.cells[:, c])


def test_one_mesh_is_built_per_call(monkeypatch):
    calls = []
    build = boxdfm.refine.build_mesh
    monkeypatch.setattr(boxdfm.refine, "build_mesh",
                        lambda *a, **k: calls.append(1) or build(*a, **k))
    for m in (barrier_square(n=2), kuhn_cube_mesh(1)):
        calls.clear()
        r = uniform_refine(m, 3)
        assert len(calls) == 1
        assert r.n_cells == 2 ** (3 * m.dim) * m.n_cells
