"""Mesh generators: side tags, rejected inputs and the shipped MSH meshes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from boxdfm.errors import MeshGenerationError
from boxdfm.generators import _box_mesh, crossed_square_mesh, delaunay_rect_mesh, kuhn_cube_mesh
from boxdfm.msh_io import read_msh_arrays

ROOT = Path(__file__).resolve().parents[1]


def _make_meshes_script():
    spec = importlib.util.spec_from_file_location(
        "make_meshes", ROOT / "scripts" / "make_meshes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossed_square_edges_are_tagged_by_their_side():
    mesh = crossed_square_mesh(4, jitter=0.3, seed=2)
    mids = mesh.vertices[mesh.facets].mean(axis=1)
    # tags 1..4: x = 0, x = 1, y = 0, y = 1
    side = {1: (0, 0.0), 2: (0, 1.0), 3: (1, 0.0), 4: (1, 1.0)}
    assert np.bincount(mesh.facet_tags).tolist() == [0, 4, 4, 4, 4]
    for (x, y), tag in zip(mids, mesh.facet_tags):
        axis, coord = side[int(tag)]
        assert (x, y)[axis] == coord


def test_kuhn_cube_has_2n2_faces_per_side():
    n = 3
    mesh = kuhn_cube_mesh(n)
    assert np.bincount(mesh.facet_tags).tolist() == [0] + [2 * n * n] * 6
    for tag in range(1, 7):
        axis, at_hi = divmod(tag - 1, 2)
        assert np.all(mesh.vertices[mesh.facets[mesh.facet_tags == tag], axis] == at_hi)


def test_boundary_tag_fn_gets_the_edge_midpoints():
    seen = {}

    def retag(mids, tags):
        seen["mids"], seen["tags"] = mids, tags.copy()
        return np.where(mids[:, 0] < 0.5, tags, 7)

    mesh = crossed_square_mesh(2, boundary_tag_fn=retag)
    ends = mesh.vertices[mesh.facets]
    assert np.array_equal(seen["mids"], ends.mean(axis=1))
    assert len(seen["mids"]) == 8 and sorted(set(seen["tags"].tolist())) == [1, 2, 3, 4]
    assert np.array_equal(mesh.facet_tags == 7, ends.mean(axis=1)[:, 0] >= 0.5)


def test_box_mesh_names_a_boundary_facet_on_no_side():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    none = np.zeros((0, 2), dtype=np.int64)
    with pytest.raises(MeshGenerationError, match=r"^boundary facet \(1, 2\) lies on no box side$"):
        _box_mesh(vertices, cells, np.zeros(2), np.ones(2), none, np.zeros(0, dtype=np.int64),
                  None, None, None)


def test_feature_segment_through_quad_centres_is_not_recovered():
    # y = 1/8 runs through the centres of the bottom quad row; centres
    # connect only to quad corners, so no centre-to-centre edge exists
    with pytest.raises(MeshGenerationError, match="was not recovered by the triangulation"):
        crossed_square_mesh(4, segments=[((0.0, 0.125), (1.0, 0.125), 10)])


def test_feature_segment_must_hit_two_vertices():
    with pytest.raises(MeshGenerationError, match="hits < 2 vertices"):
        crossed_square_mesh(4, segments=[((0.1, 0.3), (0.2, 0.3), 10)])


def test_kuhn_plane_must_match_interior_faces():
    with pytest.raises(MeshGenerationError, match="matches no interior faces"):
        kuhn_cube_mesh(2, planes=[(0, 0.3, (0.0, 0.0), (1.0, 1.0), 40)])


@pytest.mark.parametrize("name", ["ex52_vertical.msh", "ex52_slanted.msh"])
def test_shipped_ex52_meshes_regenerate(name):
    script = _make_meshes_script()
    spec = dict(script.CASES[name])
    spec.pop("expect")
    mesh = delaunay_rect_mesh(((0.0, 0.0), (1.0, 1.0)), **spec)
    pts, conn, phys = read_msh_arrays(script.OUT / name)
    assert np.array_equal(pts[:, :2], mesh.vertices)
    assert np.array_equal(conn[2], mesh.cells)
    assert np.array_equal(conn[1], mesh.facets)
    assert np.array_equal(phys[1], mesh.facet_tags)


def test_delaunay_merges_chain_ends_into_side_and_corner_points():
    # a segment from the second division point of the left side (off by
    # 1e-12) to the corner (1, 1): both ends merge into the points already
    # there, so no vertex is duplicated and the chain starts and ends on them
    tags = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann", 10: "barrier"}
    mesh = delaunay_rect_mesh(((0.0, 0.0), (1.0, 1.0)), 0.2, boundary_div=(5, 5, 5, 5),
                              segments=[((1e-12, 0.4 + 1e-12), (1.0, 1.0), 10)],
                              tag_map=tags)
    v = mesh.vertices
    assert len(np.unique(np.round(v, 6), axis=0)) == mesh.n_vertices
    # corners first, then the side divisions from the left side's first
    corner, side = 2, 4 + 1
    assert v[corner].tolist() == [1.0, 1.0] and v[side].tolist() == [0.0, 0.4]
    chain = mesh.facets[mesh.facet_tags == 10]
    ends, counts = np.unique(chain, return_counts=True)
    assert sorted(ends[counts == 1].tolist()) == [corner, side]
