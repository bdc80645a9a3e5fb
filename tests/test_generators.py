"""Mesh generators: rejected inputs and the shipped MSH meshes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from boxdfm.errors import MeshGenerationError
from boxdfm.generators import crossed_square_mesh, delaunay_rect_mesh, kuhn_cube_mesh
from boxdfm.msh_io import read_msh_arrays

ROOT = Path(__file__).resolve().parents[1]


def _make_meshes_script():
    spec = importlib.util.spec_from_file_location(
        "make_meshes", ROOT / "scripts" / "make_meshes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
