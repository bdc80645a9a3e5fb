"""Broken vertex space: component counts, policies, facet dof lookup."""

import numpy as np
import pytest

from boxdfm.benchmarks import get_scenario
from boxdfm.dofspace import (POLICIES, DofMap, _corner_nodes, build_dof_map, facet_dofs,
                             write_vertex_report)
from boxdfm.errors import DofMapError, ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.mesh import FacetKind, build_mesh
from conftest import (TAGS_BARRIER, array_bytes, barrier_fracture_cube, barrier_square,
                      traced_peak)


def fan_components(mesh, vertex):
    """Independent oracle: BFS over the cell fan of one vertex, where two
    cells connect through a shared non-barrier facet containing it."""
    cells = [c for c in range(mesh.n_cells) if vertex in mesh.cells[c]]
    barrier = set()
    for r in mesh.facets_of_kind(FacetKind.BARRIER):
        barrier.add(frozenset(mesh.facets[r].tolist()))
    comps = 0
    seen = set()
    for start in cells:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            c = stack.pop()
            for d in cells:
                if d in seen:
                    continue
                shared = set(mesh.cells[c]) & set(mesh.cells[d])
                if len(shared) == mesh.dim and vertex in shared \
                        and frozenset(shared) not in barrier:
                    seen.add(d)
                    stack.append(d)
    return comps


def test_plain_mesh_one_dof_per_vertex():
    mesh = crossed_square_mesh(3, tag_map={1: "dirichlet", 2: "dirichlet",
                                           3: "neumann", 4: "neumann"})
    dm = build_dof_map(mesh, "barrier_cuts")
    assert dm.n_dofs == mesh.n_vertices
    assert np.array_equal(np.sort(dm.dof_vertex), np.arange(mesh.n_vertices))
    assert np.array_equal(dm.dof_vertex[dm.cell_dofs], mesh.cells)


def test_full_height_barrier_splits_line():
    mesh = barrier_square(n=4)
    dm = build_dof_map(mesh, "barrier_cuts")
    on_line = np.nonzero(np.isclose(mesh.vertices[:, 0], 0.5)
                         & (np.abs(mesh.vertices[:, 1] % 0.25) < 1e-9))[0]
    grid_line = [v for v in on_line if dm.vertex_ndofs[v] > 0]
    # the five grid vertices on x=0.5 all split, including the two on the
    # boundary where the barrier meets it
    assert len(grid_line) >= 5
    assert dm.n_dofs == mesh.n_vertices + 5
    for v in np.nonzero(np.isclose(mesh.vertices[:, 0], 0.5))[0]:
        if dm.vertex_ndofs[v] == 2:
            assert fan_components(mesh, int(v)) == 2


def test_interior_tip_keeps_single_dof():
    def region(c):
        return np.where(c[:, 0] < 0.5, 1, 2)

    mesh = crossed_square_mesh(4, keep_x=(0.5,),
                               segments=[((0.5, 0.5), (0.5, 1.0), 10)],
                               region_fn=region, tag_map=TAGS_BARRIER)
    dm = build_dof_map(mesh, "barrier_cuts")
    tip = np.nonzero(np.all(np.isclose(mesh.vertices, [0.5, 0.5]), axis=1))[0][0]
    mid = np.nonzero(np.all(np.isclose(mesh.vertices, [0.5, 0.75]), axis=1))[0][0]
    top = np.nonzero(np.all(np.isclose(mesh.vertices, [0.5, 1.0]), axis=1))[0][0]
    assert dm.vertex_ndofs[tip] == 1
    assert dm.vertex_ndofs[mid] == 2
    assert dm.vertex_ndofs[top] == 2
    assert dm.n_dofs == mesh.n_vertices + 2


def crossing_mesh():
    tags = dict(TAGS_BARRIER)
    tags[20] = "fracture"
    return crossed_square_mesh(
        4, keep_x=(0.5,), keep_y=(0.5,),
        segments=[((0.5, 0.0), (0.5, 1.0), 20), ((0.0, 0.5), (1.0, 0.5), 10)],
        tag_map=tags,
    )


def test_policy_decides_crossing():
    mesh = crossing_mesh()
    cross = np.nonzero(np.all(np.isclose(mesh.vertices, [0.5, 0.5]), axis=1))[0][0]
    cuts = build_dof_map(mesh, "barrier_cuts")
    merged = build_dof_map(mesh, "fracture_penetrates")
    assert cuts.vertex_ndofs[cross] == 2
    assert merged.vertex_ndofs[cross] == 1
    assert cuts.n_dofs == merged.n_dofs + 1
    # dash-normalized spelling accepted
    assert build_dof_map(mesh, "barrier-cuts").n_dofs == cuts.n_dofs


def test_unknown_policy_rejected(barrier_square_mesh):
    with pytest.raises(ValidationError):
        build_dof_map(barrier_square_mesh, "weld-everything")


def test_component_counts_match_fan_oracle():
    mesh = barrier_square(n=4, jitter=0.25, seed=8)
    dm = build_dof_map(mesh, "barrier_cuts")
    for v in range(mesh.n_vertices):
        assert dm.vertex_ndofs[v] == fan_components(mesh, v)


def test_determinism():
    a = build_dof_map(barrier_square(n=4, jitter=0.2, seed=3), "barrier_cuts")
    b = build_dof_map(barrier_square(n=4, jitter=0.2, seed=3), "barrier_cuts")
    assert a.n_dofs == b.n_dofs
    assert np.array_equal(a.cell_dofs, b.cell_dofs)
    assert np.array_equal(a.dof_vertex, b.dof_vertex)
    assert np.array_equal(a.barrier_minus, b.barrier_minus)
    assert np.array_equal(a.barrier_plus, b.barrier_plus)


def test_barrier_sides_are_disjoint_and_consistent(barrier_square_mesh):
    mesh = barrier_square_mesh
    dm = build_dof_map(mesh, "barrier_cuts")
    rows = dm.barrier_facet_rows
    facets = mesh.facets[rows]
    for k in range(mesh.dim):
        assert np.array_equal(dm.dof_vertex[dm.barrier_minus[:, k]], facets[:, k])
        assert np.array_equal(dm.dof_vertex[dm.barrier_plus[:, k]], facets[:, k])
    # split vertices see different dofs on the two sides
    split = dm.vertex_ndofs[facets] == 2
    assert np.all((dm.barrier_minus != dm.barrier_plus) == split)
    # minus dofs all live on one geometric side: each one appears in some
    # cell whose centroid is left of the line
    left = set()
    cx = mesh.cell_centroids()[:, 0]
    for c in range(mesh.n_cells):
        if cx[c] < 0.5:
            left.update(dm.cell_dofs[c].tolist())
    minus_set = set(dm.barrier_minus.ravel().tolist())
    plus_set = set(dm.barrier_plus.ravel().tolist())
    assert minus_set <= left or plus_set <= left


def test_facet_vertex_dofs_resolves_boundary(barrier_square_mesh):
    mesh = barrier_square_mesh
    dm = build_dof_map(mesh, "barrier_cuts")
    rows = mesh.facets_of_kind(FacetKind.DIRICHLET)
    fd, cells = facet_dofs(mesh, dm.cell_dofs, rows)
    assert fd.shape == (len(rows), 2)
    assert np.array_equal(dm.dof_vertex[fd], mesh.facets[rows])
    # the resolving cell contains the facet's vertices
    for k, c in enumerate(cells):
        assert set(mesh.facets[rows[k]]) <= set(mesh.cells[c])
    # a facet vertex missing from its cell is a dof map error
    stranger = np.setdiff1d(np.arange(mesh.n_vertices), mesh.cells[cells[0]])[0]
    with pytest.raises(DofMapError, match="not found"):
        _corner_nodes(mesh.cells, cells[:1], np.array([[mesh.facets[rows[0], 0], stranger]]))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", ["ex54a", "ex54b", "cube-3d"])
def test_fracture_facets_link_their_sides_and_barrier_facets_split(name, policy):
    if name == "cube-3d":
        mesh = barrier_fracture_cube()
    else:
        sc = get_scenario(name)
        mesh = sc.mesh_factory(sc.default_refine)
    dm = build_dof_map(mesh, policy)
    fr = mesh.facets_of_kind(FacetKind.FRACTURE)
    br = mesh.facets_of_kind(FacetKind.BARRIER)
    assert len(fr) and len(br)
    # a fracture facet is interior and no barrier, so either side gives its dofs
    assert np.array_equal(facet_dofs(mesh, dm.cell_dofs, fr, side=1)[0],
                          facet_dofs(mesh, dm.cell_dofs, fr)[0])
    minus, plus = (facet_dofs(mesh, dm.cell_dofs, br, side=s)[0] for s in (0, 1))
    assert np.array_equal(minus, dm.barrier_minus) and np.array_equal(plus, dm.barrier_plus)
    assert np.all(np.any(minus != plus, axis=1))


def reference_corner_nodes(cells, cell_ids, facet_verts):
    """The broadcast search: every facet vertex against every cell corner."""
    eq = cells[cell_ids][:, None, :] == facet_verts[:, :, None]
    assert np.all(eq.any(axis=2))
    return cell_ids[:, None] * cells.shape[1] + np.argmax(eq, axis=2)


@pytest.mark.parametrize("name", ["ex54a", "ex56"])
def test_corner_nodes_match_broadcast_search(name):
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    # every unique facet from both sides, and the tagged facets in their
    # own vertex order and in two unsorted ones
    both = mesh.ufacet_cells[:, 1] >= 0
    tagged = mesh.ufacet_cells[mesh.facet_to_ufacet, 0]
    cases = [(mesh.ufacet_cells[:, 0], mesh.ufacets),
             (mesh.ufacet_cells[both, 1], mesh.ufacets[both]),
             (tagged, mesh.facets), (tagged, mesh.facets[:, ::-1]),
             (tagged, np.roll(mesh.facets, 1, axis=1)), (tagged.astype(np.int64), mesh.facets)]
    for cell_ids, verts in cases:
        got = _corner_nodes(mesh.cells, cell_ids, verts)
        want = reference_corner_nodes(mesh.cells, cell_ids, verts)
        # node ids at the node width, int32 below 2**31 nodes, whatever the
        # width of cell_ids
        assert got.dtype == np.int32 and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_boundary_dofs_kinds(barrier_square_mesh):
    mesh = barrier_square_mesh
    dm = build_dof_map(mesh, "barrier_cuts")
    d, n = (np.unique(facet_dofs(mesh, dm.cell_dofs, mesh.facets_of_kind(kind))[0])
            for kind in (FacetKind.DIRICHLET, FacetKind.NEUMANN))
    # left/right sides are Dirichlet (5 vertices each), but the barrier
    # meets top and bottom, so the split endpoints add Neumann dofs
    assert len(d) == 10
    assert len(n) == 2 * (5 - 2) + 2 + 2 * 2
    assert np.all(np.isin(mesh.vertices[dm.dof_vertex[d], 0], (0.0, 1.0)))


def test_vertex_report(tmp_path, barrier_square_mesh):
    mesh = barrier_square_mesh
    dm = build_dof_map(mesh, "barrier_cuts")
    path = tmp_path / "verts.csv"
    write_vertex_report(mesh, dm, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex,x,y,n_dofs,class"
    assert len(lines) == mesh.n_vertices + 1
    # all five vertices on the line split (the barrier spans the domain)
    assert dm.class_counts()["barrier_interior"] == 5


def test_dof_map_peak_memory_stays_near_its_output():
    # ex56 r1: 24,576 tetrahedra, 3 barrier planes. int32 corner nodes and
    # a graph built from one pair of node lists measure 5.7 times the
    # DofMap's arrays; int64 nodes with (nloc, n) corner tables take 11.7
    sc = get_scenario("ex56")
    mesh = sc.mesh_factory(sc.default_refine + 1)
    dm, peak = traced_peak(build_dof_map, mesh, sc.policy)
    assert peak / array_bytes(dm) <= 6.2
