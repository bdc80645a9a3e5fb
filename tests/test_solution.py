"""Quadrature, point evaluation, slices, error norms."""

import io
from math import factorial

import numpy as np
import pytest

from boxdfm.benchmarks import analytic_barrier_scenario, get_scenario
from boxdfm.dofspace import build_dof_map
from boxdfm.driver import run_scenario
from boxdfm.errors import ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.solution import (SolutionField, convergence_order, l2_error,
                             sample_slice, simplex_quadrature,
                             write_profile_csv)

TAGS = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann"}


def linear_field(n=5, jitter=0.3, seed=8):
    mesh = crossed_square_mesh(n, jitter=jitter, seed=seed, tag_map=TAGS)
    dm = build_dof_map(mesh, "barrier_cuts")
    pts = mesh.vertices[dm.dof_vertex]
    values = 2.0 * pts[:, 0] - pts[:, 1] + 0.25
    return mesh, SolutionField(mesh, dm.cell_dofs, dm.dof_vertex, values)


def test_triangle_quadrature_exact_to_degree_five():
    bary, w = simplex_quadrature(2, 3)
    assert bary.shape[1] == 3 and np.all(bary >= -1e-14)
    assert np.allclose(bary.sum(axis=1), 1.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    x, y = bary[:, 1], bary[:, 2]
    for a in range(6):
        for b in range(6 - a):
            num = 0.5 * float(w @ (x**a * y**b))
            ref = factorial(a) * factorial(b) / factorial(a + b + 2)
            assert num == pytest.approx(ref, rel=1e-13), (a, b)


def test_tetrahedron_quadrature_exact_to_degree_five():
    bary, w = simplex_quadrature(3, 3)
    assert bary.shape[1] == 4
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    x, y, z = bary[:, 1], bary[:, 2], bary[:, 3]
    for a in range(6):
        for b in range(6 - a):
            for c in range(6 - a - b):
                num = (1.0 / 6.0) * float(w @ (x**a * y**b * z**c))
                ref = (factorial(a) * factorial(b) * factorial(c)
                       / factorial(a + b + c + 3))
                assert num == pytest.approx(ref, rel=1e-12), (a, b, c)


def test_quadrature_unknown_dim():
    with pytest.raises(ValidationError):
        simplex_quadrature(1)


def test_evaluate_reproduces_linear_interpolant():
    mesh, field = linear_field()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    vals = field.evaluate(pts)
    assert np.abs(vals - (2 * pts[:, 0] - pts[:, 1] + 0.25)).max() <= 1e-12


def test_locate_returns_containing_cell():
    mesh, field = linear_field()
    rng = np.random.default_rng(1)
    for p in rng.uniform(0.02, 0.98, size=(25, 2)):
        c = field.locate(p)
        lam = field._barycentric(c, p)
        assert lam.min() >= -1e-12


def test_walk_cycle_falls_back_to_containing_cell(monkeypatch):
    # on ex57a's jittered mesh the adjacency walk toward this interior
    # point cycles; the fallback must still find the containing cell
    sc = get_scenario("ex57a")
    mesh = sc.mesh_factory(sc.default_refine)
    field = SolutionField(mesh, mesh.cells, np.arange(mesh.n_vertices),
                          np.zeros(mesh.n_vertices))
    routed = []
    brute = field._locate_brute
    monkeypatch.setattr(field, "_locate_brute",
                        lambda p: routed.append(p) or brute(p))
    p = np.array([0.015, 0.645])
    c = field.locate(p)
    assert len(routed) == 1
    assert field._barycentric(c, p).min() >= -1e-12
    assert field.evaluate(p[None])[0] == 0.0


def test_locate_brute_scans_every_cell():
    mesh, field = linear_field()
    rng = np.random.default_rng(2)
    for p in rng.uniform(0.02, 0.98, size=(10, 2)):
        assert field._barycentric(field._locate_brute(p), p).min() >= -1e-12
    # just past the hull: no nearby cell contains it, the full scan
    # admits it within the side-rule slack
    p = np.array([1.0 + 1e-9, 0.5])
    assert field._barycentric(field._locate_brute(p), p).min() >= -1e-6


def test_point_outside_the_mesh_rejected():
    mesh, field = linear_field()
    with pytest.raises(ValidationError, match="outside the mesh"):
        field.evaluate([[1.5, 0.5]])
    with pytest.raises(ValidationError, match="outside the mesh"):
        sample_slice(field, (0.5, 0.5), (0.5, 1.2), 5)


def test_l2_error_vanishes_on_interpolated_linear():
    mesh, field = linear_field()
    err = l2_error(field, lambda p, r: 2 * p[:, 0] - p[:, 1] + 0.25)
    assert err <= 1e-13


def test_l2_error_known_value():
    mesh, field = linear_field()
    zero = SolutionField(mesh, field.cell_dofs, field.dof_vertex,
                         np.zeros(field.n_dofs))
    err = l2_error(zero, lambda p, r: p[:, 0])
    assert err == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-13)


def test_slice_sides_differ_only_on_the_barrier():
    res = run_scenario(analytic_barrier_scenario(beta=1.0, h=0.2, seed=3))
    p0, p1 = (0.2, 0.31), (0.8, 0.31)
    plus = sample_slice(res.field, p0, p1, 7, side="plus")
    minus = sample_slice(res.field, p0, p1, 7, side="minus")
    assert np.array_equal(plus["s"], np.linspace(0, 1, 7))
    assert np.allclose(plus["points"][0], p0) and np.allclose(plus["points"][-1], p1)
    # sample 3 sits exactly on the barrier x = 0.5; beta = 1 gives the
    # piecewise solution x/2 and x/2 + 1/2
    on = np.isclose(plus["points"][:, 0], 0.5)
    assert on.sum() == 1
    assert plus["values"][on][0] == pytest.approx(0.75, abs=1e-9)
    assert minus["values"][on][0] == pytest.approx(0.25, abs=1e-9)
    assert np.abs(plus["values"][~on] - minus["values"][~on]).max() <= 1e-12


def test_vertex_value_spread_measures_the_jump():
    res = run_scenario(analytic_barrier_scenario(beta=1.0, h=0.2, seed=3))
    mesh = res.mesh
    onbar = np.nonzero(np.isclose(mesh.vertices[:, 0], 0.5))[0]
    assert len(onbar) >= 2
    spreads = [res.field.vertex_value_spread(int(v)) for v in onbar]
    assert np.allclose(spreads, 0.5, atol=1e-9)
    off = int(np.argmin(mesh.vertices[:, 0]))
    assert res.field.vertex_value_spread(off) == 0.0


def test_slice_argument_validation():
    mesh, field = linear_field()
    with pytest.raises(ValidationError):
        sample_slice(field, (0.1, 0.1), (0.1, 0.1), 5)
    with pytest.raises(ValidationError):
        sample_slice(field, (0.0, 0.0), (1.0, 1.0), 5, side="left")


def test_profile_csv_is_deterministic():
    mesh, field = linear_field()
    sample = sample_slice(field, (0.0, 0.2), (1.0, 0.8), 9)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_profile_csv(buf, sample)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].strip().splitlines()
    assert lines[0] == "s,x,y,p"
    assert len(lines) == 10
    s, x, y, p = (float(tok) for tok in lines[1].split(","))
    assert (s, x, y) == (0.0, 0.0, 0.2)
    assert p == pytest.approx(0.05, abs=1e-15)


def test_profile_csv_to_path(tmp_path):
    mesh, field = linear_field()
    sample = sample_slice(field, (0.0, 0.2), (1.0, 0.8), 5)
    target = tmp_path / "profile.csv"
    write_profile_csv(target, sample)
    assert target.read_text().startswith("s,x,y,p\n")


def test_convergence_order_math():
    orders = convergence_order([1.0, 0.25, 0.0625])
    assert np.allclose(orders, [2.0, 2.0])
    assert convergence_order([1.0, 1.0 / 3.0], ratio=3.0)[0] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        convergence_order([1.0, 0.0])
