"""Mesh construction and validation."""

import re

import numpy as np
import pytest

import boxdfm.mesh
from boxdfm.benchmarks import get_scenario
from boxdfm.dofspace import build_dof_map
from boxdfm.errors import ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.mesh import (TOPOLOGY, FacetKind, _locate_tagged, _orientation_volumes,
                         _unique_facet_table, build_mesh, restore_mesh)
from conftest import array_bytes, traced_peak

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TWO_TRIS = np.array([[0, 1, 2], [0, 2, 3]])


def test_cells_reoriented_to_positive_volume():
    cells = np.array([[0, 2, 1], [0, 2, 3]])  # first one clockwise
    m = build_mesh(SQUARE, cells)
    assert np.all(m.cell_volumes() > 0)


def test_default_region_is_one():
    m = build_mesh(SQUARE, TWO_TRIS)
    assert np.all(m.cell_region == 1)


def test_tag_map_accepts_strings_and_kinds():
    facets = np.array([[0, 1], [0, 2]])
    tags = np.array([7, 9])
    m = build_mesh(SQUARE, TWO_TRIS, facets, tags,
                   tag_map={7: "dirichlet", 9: FacetKind.BARRIER})
    assert m.facet_kinds[m.facet_tags == 7][0] == FacetKind.DIRICHLET
    assert m.facet_kinds[m.facet_tags == 9][0] == FacetKind.BARRIER


def test_unknown_tags_dropped():
    facets = np.array([[0, 1], [1, 2]])
    tags = np.array([7, 99])
    m = build_mesh(SQUARE, TWO_TRIS, facets, tags, tag_map={7: "neumann"})
    assert m.n_tagged_facets == 1
    assert m.facet_tags[0] == 7


def test_duplicate_tag_on_one_facet_rejected():
    facets = np.array([[0, 1], [1, 0]])
    tags = np.array([7, 8])
    with pytest.raises(ValidationError):
        build_mesh(SQUARE, TWO_TRIS, facets, tags,
                   tag_map={7: "neumann", 8: "dirichlet"})


def test_interior_kind_needs_two_cells():
    facets = np.array([[0, 1]])  # boundary edge
    with pytest.raises(ValidationError):
        build_mesh(SQUARE, TWO_TRIS, facets, np.array([10]),
                   tag_map={10: "barrier"})


def test_boundary_kind_needs_one_cell():
    facets = np.array([[0, 2]])  # the shared diagonal
    with pytest.raises(ValidationError):
        build_mesh(SQUARE, TWO_TRIS, facets, np.array([3]),
                   tag_map={3: "dirichlet"})


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        build_mesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))


def test_facets_of_kind(barrier_square_mesh):
    m = barrier_square_mesh
    rows = m.facets_of_kind(FacetKind.BARRIER)
    assert len(rows) == 4  # n=4 grid: 4 edges along x=0.5
    mids = m.vertices[m.facets[rows]].mean(axis=1)
    assert np.allclose(mids[:, 0], 0.5)


def test_domain_diameter(barrier_square_mesh):
    assert barrier_square_mesh.domain_diameter() == pytest.approx(np.sqrt(2.0))


def test_tetrahedron_mesh_basics():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
    m = build_mesh(verts, cells)
    assert m.dim == 3
    assert np.all(m.cell_volumes() > 0)
    assert m.cell_volumes()[0] == pytest.approx(1.0 / 6.0)


def reference_unique_facet_table(cells, dim):
    """Facet table by a lexsort over the sorted facet rows, with the cell
    neighbours read off it row by row: the construction the packed-key
    sort replaced."""
    nc = cells.shape[0]
    nloc = dim + 1
    keep = [[j for j in range(nloc) if j != i] for i in range(nloc)]
    all_facets = np.sort(np.concatenate([cells[:, k] for k in keep], axis=0), axis=1)
    owners = np.tile(np.arange(nc, dtype=np.int64), nloc)
    local = np.repeat(np.arange(nloc, dtype=np.int64), nc)
    order = np.lexsort(all_facets.T[::-1])
    sf = all_facets[order]
    new = np.ones(sf.shape[0], dtype=bool)
    new[1:] = np.any(sf[1:] != sf[:-1], axis=1)
    group = np.cumsum(new) - 1
    nu = int(group[-1]) + 1
    ufacets = sf[new]
    ufacet_cells = np.full((nu, 2), -1, dtype=np.int64)
    counts = np.bincount(group, minlength=nu)
    first = np.nonzero(new)[0]
    ufacet_cells[:, 0] = owners[order][first]
    ufacet_cells[counts == 2, 1] = owners[order][first[counts == 2] + 1]
    cell_facet_index = np.empty((nc, nloc), dtype=np.int64)
    cell_facet_index[owners[order], local[order]] = group
    both = ufacet_cells[cell_facet_index]
    own = np.arange(nc, dtype=np.int64)[:, None]
    neigh = np.where(both[:, :, 0] == own, both[:, :, 1], both[:, :, 0])
    return ufacets, ufacet_cells, neigh


def _shuffled(mesh, seed):
    """The same mesh with vertex ids and cell order permuted."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.argsort(perm)
    cells = inv[mesh.cells][rng.permutation(mesh.n_cells)]
    return build_mesh(mesh.vertices[perm], cells)


def _table_meshes():
    ex56 = get_scenario("ex56")
    yield build_mesh(SQUARE, TWO_TRIS)
    yield crossed_square_mesh(7, jitter=0.3, seed=4)
    yield _shuffled(crossed_square_mesh(5, jitter=0.2, seed=1), 2)
    yield ex56.mesh_factory(ex56.default_refine)
    yield _shuffled(ex56.mesh_factory(ex56.default_refine), 3)


def test_facet_table_matches_lexsort_reference():
    for mesh in _table_meshes():
        got = _unique_facet_table(mesh.cells, mesh.dim, mesh.n_vertices)
        want = reference_unique_facet_table(mesh.cells, mesh.dim)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert mesh.cell_neighbors.tobytes() == want[2].tobytes()


def test_facet_key_limit():
    tet = np.array([[0, 1, 2, 3]])
    _unique_facet_table(tet, 3, 2**21 - 1)
    with pytest.raises(ValidationError, match="64-bit"):
        _unique_facet_table(tet, 3, 2**21)


def test_empty_facets_take_the_mesh_dimension():
    verts3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0]])
    for verts, cells in ((SQUARE, TWO_TRIS), (verts3, np.array([[0, 1, 2, 3]]))):
        dim = verts.shape[1]
        for facets, tags in ((np.zeros((0, 0)), np.zeros(0)), ([], [])):
            m = build_mesh(verts, cells, facets, tags)
            assert m.facets.shape == (0, dim)
            dm = build_dof_map(m, "barrier_cuts")
            for arr in (dm.barrier_minus, dm.barrier_plus, dm.fracture_dofs):
                assert arr.shape == (0, dim)
    with pytest.raises(ValidationError, match="facets must be"):
        build_mesh(SQUARE, TWO_TRIS, np.zeros((1, 3)), [7])


def test_closed_form_volumes_match_det_in_sign():
    rng = np.random.default_rng(5)
    n = 2000
    for dim in (2, 3):
        verts = rng.uniform(-1.0, 1.0, (n * (dim + 1), dim))
        cells = np.arange(n * (dim + 1)).reshape(n, dim + 1)
        p = verts[cells]
        det = np.linalg.det(p[:, 1:] - p[:, :1]) / (2.0 if dim == 2 else 6.0)
        got = _orientation_volumes(verts, cells)
        assert np.array_equal(np.sign(got), np.sign(det))
        assert np.allclose(got, det, rtol=1e-10, atol=0.0)
    # nearly flat tets: the apex sits 1e-12..1e-4 above or below the base plane
    base = rng.uniform(-1.0, 1.0, (n, 3, 3))
    normal = np.cross(base[:, 1] - base[:, 0], base[:, 2] - base[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    w = rng.dirichlet(np.ones(3), n)
    height = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12, -4, n)
    apex = np.einsum("nk,nkd->nd", w, base) + height[:, None] * normal
    verts = np.concatenate([base, apex[:, None]], axis=1).reshape(-1, 3)
    cells = np.arange(4 * n).reshape(n, 4)
    p = verts[cells]
    det = np.linalg.det(p[:, 1:] - p[:, :1])
    got = _orientation_volumes(verts, cells)
    assert np.all(np.sign(det) != 0)
    assert np.array_equal(np.sign(got), np.sign(det))


@pytest.mark.parametrize("dim", [2, 3])
def test_orientation_volumes_by_range_match_the_one_shot_formula(dim, monkeypatch):
    # 1000 cells are not a multiple of the range, so the last range is short
    monkeypatch.setattr(boxdfm.mesh, "_ORIENT_RANGE", 64)
    rng = np.random.default_rng(17)
    verts = rng.uniform(-1.0, 1.0, (300, dim))
    cells = np.argsort(rng.random((1000, 300)), axis=1)[:, :dim + 1]
    e = verts[cells[:, 1:]] - verts[cells[:, :1]]
    if dim == 2:
        want = (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]) / 2.0
    else:
        a, b, c = e[:, 0].T, e[:, 1].T, e[:, 2].T
        want = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
                + a[2] * (b[0] * c[1] - b[1] * c[0])) / 6.0
    got = _orientation_volumes(verts, cells)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.sign(got), np.sign(np.linalg.det(e)))


@pytest.mark.parametrize("facets, kinds, match", [
    # an explicit id keeps the regex escapes out of the test name
    pytest.param([[0, 1], [1, 0]], [FacetKind.NEUMANN, FacetKind.DIRICHLET],
                 r"facet \(0, 1\) is tagged more than once",
                 id="facets0-kinds0-tagged more than once"),
    ([[0, 1]], [FacetKind.BARRIER], "lies on the domain boundary"),
    ([[0, 2]], [FacetKind.DIRICHLET], "carries a boundary condition but is interior"),
])
def test_restore_mesh_applies_the_tag_rules_of_build_mesh(facets, kinds, match):
    facets, kinds = np.array(facets), np.array(kinds, dtype=np.int64)
    tags = np.arange(len(facets))
    with pytest.raises(ValidationError, match=match):
        build_mesh(SQUARE, TWO_TRIS, facets, tags, facet_kinds=kinds)
    m = build_mesh(SQUARE, TWO_TRIS)
    with pytest.raises(ValidationError, match=match):
        restore_mesh(m.vertices, m.cells, facets, tags, kinds, m.cell_region,
                     m.ufacets, m.ufacet_cells, _locate_tagged(m.ufacets, facets, 4),
                     m.cell_neighbors)


FLAT = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
# the two-triangle square with one Neumann edge; each case below replaces
# some of these arrays
VALID = {"vertices": SQUARE, "cells": TWO_TRIS, "facets": [[0, 1]], "facet_tags": [7],
         "facet_kinds": [int(FacetKind.NEUMANN)], "cell_region": [1, 1]}


@pytest.mark.parametrize("change, msg", [
    ({"cells": [[0, 1, 4], [0, 2, 3]]}, "cells holds values outside 0..3"),
    ({"cells": np.zeros((0, 3), dtype=np.int64)}, "mesh has no cells"),
    ({"facets": [[0, 4]]}, "facets holds values outside 0..3"),
    ({"facet_tags": [7, 8]}, "facet_tags has shape (2,), expected (1)"),
    ({"facet_kinds": [4, 4]}, "facet_kinds has shape (2,), expected (1)"),
    ({"cell_region": [1]}, "cell_region has shape (1,), expected (2)"),
    ({"vertices": FLAT, "cells": [[0, 1, 2], [0, 1, 3]]},
     "cell 0 is degenerate (volume 0.000e+00)"),
], ids=["cell-out-of-range", "no-cells", "facet-out-of-range", "facet-tags-length",
        "facet-kinds-length", "cell-region-length", "degenerate"])
def test_mesh_input_errors_are_named(change, msg):
    """Each input error has one message, whichever entry point meets it."""
    a = {k: np.asarray(v) for k, v in {**VALID, **change}.items()}
    with pytest.raises(ValidationError, match=re.escape(msg)):
        build_mesh(a["vertices"], a["cells"], a["facets"], a["facet_tags"],
                   facet_kinds=a["facet_kinds"], cell_region=a["cell_region"])
    m = build_mesh(**VALID)
    with pytest.raises(ValidationError, match=re.escape(msg)):
        restore_mesh(**a, **{k: getattr(m, k) for k in TOPOLOGY})
    with pytest.raises(ValidationError, match=re.escape(msg)):
        restore_mesh(**a)


def test_facet_out_of_range_is_an_error_even_when_its_tag_is_dropped():
    with pytest.raises(ValidationError, match=re.escape("facets holds values outside 0..3")):
        build_mesh(SQUARE, TWO_TRIS, [[0, 1], [2, 4]], [7, 99], tag_map={7: "neumann"})


def test_facet_table_peak_memory_stays_near_its_output():
    # ex56 r1: 24,576 tetrahedra. Keys packed one local vertex at a time
    # from each cell's sorted vertex ids measure 2.0 times the three output
    # arrays; sorting one (4 nc, 3) array of facet rows takes 4.3
    sc = get_scenario("ex56")
    mesh = sc.mesh_factory(sc.default_refine + 1)
    table, peak = traced_peak(_unique_facet_table, mesh.cells, mesh.dim, mesh.n_vertices)
    assert peak / array_bytes(*table) <= 2.2
