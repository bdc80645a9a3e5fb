"""Quadrature, point evaluation, slices, error norms."""

import io
import re
from functools import lru_cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxdfm.solution
from boxdfm.benchmarks import analytic_barrier_scenario, get_scenario, scenario_names
from boxdfm.dofspace import POLICIES, build_dof_map
from boxdfm.driver import run_scenario
from boxdfm.errors import MissingDataError, ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.mesh import FacetKind
from boxdfm.solution import (_LOCATE_TOL, _SIDE_EPS_REL, SIDES, SolutionField,
                             _apply_side_rule, _canonical_normals,
                             l2_error, sample_slice,
                             simplex_quadrature, write_profile_csv)
from conftest import barrier_square

TAGS = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann"}


def linear_field(n=5, jitter=0.3, seed=8):
    mesh = crossed_square_mesh(n, jitter=jitter, seed=seed, tag_map=TAGS)
    dm = build_dof_map(mesh, "barrier_cuts")
    pts = mesh.vertices[dm.dof_vertex]
    values = 2.0 * pts[:, 0] - pts[:, 1] + 0.25
    return mesh, SolutionField(mesh, dm.cell_dofs, dm.dof_vertex, values)


def random_field(mesh, policy="barrier_cuts", seed=0):
    """Independent random dof values: a wrong cell shows in the value."""
    dm = build_dof_map(mesh, policy)
    values = np.random.default_rng(seed).standard_normal(dm.n_dofs)
    return SolutionField(mesh, dm.cell_dofs, dm.dof_vertex, values)


def reference_barycentric(field, cell, p):
    """Barycentric coordinates of p in one cell, one small solve."""
    verts = field.mesh.vertices[field.mesh.cells[cell]]
    T = (verts[1:] - verts[0]).T
    lam = np.linalg.solve(T, p - verts[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def reference_find(field, p):
    """Per-point walk, returning (cell, barycentric coordinates of p): the
    locator the batched walk replaced.

    The walk is deterministic, so it stops when it re-enters a cell it has
    visited (it would cycle) or leaves the mesh; _locate_brute takes over
    from there.
    """
    _, v = field._tree.query(p)
    cell = int(field._vertex_cell[v])
    max_steps = 4 * int(np.sqrt(field.mesh.n_cells)) + 50
    visited = set()
    while len(visited) < max_steps and cell not in visited:
        visited.add(cell)
        lam = reference_barycentric(field, cell, p)
        worst = int(np.argmin(lam))
        if lam[worst] >= _LOCATE_TOL:
            return cell, lam
        cell = int(field.mesh.cell_neighbors[cell, worst])
        if cell < 0:
            break
    cell = field._locate_brute(p)
    return cell, reference_barycentric(field, cell, p)


def reference_evaluate(field, points):
    """Point by point through the per-point walk: the evaluation loop the
    batched walk replaced."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.empty(points.shape[0])
    for i, p in enumerate(points):
        c, lam = reference_find(field, p)
        out[i] = float(lam @ field.values[field.cell_dofs[c]])
    return out


def barrier_facets(mesh):
    """Corner points and canonical normals of every barrier facet."""
    facets = mesh.facets[mesh.facets_of_kind(FacetKind.BARRIER)]
    return mesh.vertices[facets], _canonical_normals(mesh.vertices, facets)


def reference_side_rule(field, pts, side):
    """Facet by facet over every barrier facet: the side-rule loop the
    candidate-pair pass over the facets near the samples replaced."""
    mesh = field.mesh
    fpts, normals = barrier_facets(mesh)
    if len(fpts) == 0:
        return pts
    eps = _SIDE_EPS_REL * np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))
    sign = 1.0 if side == "plus" else -1.0
    out = pts.copy()
    moved = np.zeros(len(pts), dtype=bool)
    lo = fpts.min(axis=1) - eps
    hi = fpts.max(axis=1) + eps
    for f in range(len(normals)):
        d = np.abs((pts - fpts[f, 0]) @ normals[f])
        inside = np.all((pts >= lo[f]) & (pts <= hi[f]), axis=1)
        on = (d < eps) & inside & ~moved
        if np.any(on):
            out[on] += sign * eps * normals[f]
            moved |= on
    return out


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
        lam = reference_barycentric(field, c, p)
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
    assert reference_barycentric(field, c, p).min() >= -1e-12
    assert field.evaluate(p[None])[0] == 0.0


def test_locate_brute_scans_every_cell():
    mesh, field = linear_field()
    rng = np.random.default_rng(2)
    for p in rng.uniform(0.02, 0.98, size=(10, 2)):
        assert reference_barycentric(field, field._locate_brute(p), p).min() >= -1e-12
    # just past the hull: no nearby cell contains it, the full scan
    # admits it within the side-rule slack
    p = np.array([1.0 + 1e-9, 0.5])
    assert reference_barycentric(field, field._locate_brute(p), p).min() >= -1e-6


def test_locate_brute_names_the_point_in_plain_numbers():
    mesh, field = linear_field()
    with pytest.raises(ValidationError, match=r"point \(-0\.5, 0\.5\) lies outside the mesh"):
        field._locate_brute(np.array([-0.5, 0.5]))


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


@pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, "5"])
def test_slice_sample_count_must_be_a_positive_integer(n):
    mesh, field = linear_field()
    with pytest.raises(ValidationError, match="number of samples"):
        sample_slice(field, (0.0, 0.0), (1.0, 1.0), n)


def test_slice_endpoints_must_be_finite():
    mesh, field = linear_field()
    for p0, p1 in (((0.0, np.nan), (1.0, 1.0)), ((0.0, 0.0), (np.inf, 1.0))):
        with pytest.raises(ValidationError, match="finite"):
            sample_slice(field, p0, p1, 5)
    one = sample_slice(field, (0.2, 0.3), (0.9, 0.3), 1)
    assert one["points"].tolist() == [[0.2, 0.3]]


@pytest.mark.parametrize("p0, p1, counts", [
    ((0.0, 0.5, 0.1), (1.0, 0.5, 0.1), "3 and 3"),
    ((0.0,), (1.0,), "1 and 1"),
    ((0.0, 0.5), (1.0, 0.5, 0.1), "2 and 3"),
], ids=["3d-in-2d", "1d-in-2d", "mixed"])
def test_slice_endpoints_need_the_mesh_dimension(p0, p1, counts):
    mesh, field = linear_field()
    with pytest.raises(ValidationError, match=f"from and to need 2 coordinates each, got {counts}"):
        sample_slice(field, p0, p1, 10)


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


def _oracle_mesh(case):
    if case == "crossed":
        return barrier_square(n=8, jitter=0.3, seed=4)
    sc = get_scenario(case)
    return sc.mesh_factory(sc.default_refine)


@pytest.mark.parametrize("case", ["ex57a", "ex56", "crossed"])
def test_batched_walk_matches_per_point_walk(case):
    mesh = _oracle_mesh(case)
    field = random_field(mesh)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = np.random.default_rng(7).uniform(lo, hi, size=(10_000, mesh.dim))
    if case == "ex57a":
        pts[0] = (0.015, 0.645)  # the walk cycles here
    cells, lam = field._locate_all(pts)
    for i in range(0, len(pts), 97):
        c, ref_lam = reference_find(field, pts[i])
        assert cells[i] == c and lam[i].tobytes() == ref_lam.tobytes()
    assert field.evaluate(pts).tobytes() == reference_evaluate(field, pts).tobytes()


@pytest.mark.parametrize("case", ["ex57a", "ex56", "crossed"])
def test_single_point_evaluate_matches_reference(case):
    mesh = _oracle_mesh(case)
    field = random_field(mesh)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(lo, hi, size=(150, mesh.dim)),
                          mesh.vertices[rng.choice(mesh.n_vertices, 50, replace=False)]])
    if case == "ex57a":
        pts[0] = (0.015, 0.645)  # the walk cycles here
    for p in pts:
        c, _ = reference_find(field, p)
        assert field.locate(p) == c
        assert field.evaluate(p[None]).tobytes() == reference_evaluate(field, p).tobytes()


@pytest.mark.parametrize("case", ["ex57a", "ex56"])
def test_short_walk_budget_settles_points_by_brute_force(case, monkeypatch):
    mesh = _oracle_mesh(case)
    field = random_field(mesh)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pts = np.random.default_rng(5).uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo),
                                           size=(400, mesh.dim))
    ref = [reference_find(field, p) for p in pts]
    # with one step, only the points lying in their start cell settle in the walk
    start = field._vertex_cell[field._tree.query(pts)[1]]
    in_start = np.array([reference_barycentric(field, c, p).min() >= _LOCATE_TOL
                         for c, p in zip(start, pts)])
    assert 0 < in_start.sum() < len(pts)
    routed = []
    brute = field._locate_brute
    monkeypatch.setattr(field, "_locate_brute", lambda p: routed.append(p) or brute(p))
    monkeypatch.setattr(boxdfm.solution, "_WALK_STEPS", 1)
    cells, lam = field._locate_all(pts)
    assert np.array_equal(np.array(routed), pts[~in_start])
    assert cells.tolist() == [c for c, _ in ref]
    assert lam.tobytes() == np.array([r for _, r in ref]).tobytes()
    assert field.evaluate(pts).tobytes() == reference_evaluate(field, pts).tobytes()


def test_bundle_slices_match_reference_on_every_builtin_scenario():
    for name in scenario_names():
        try:
            sc = get_scenario(name)
        except MissingDataError:
            continue
        mesh = sc.mesh_factory(sc.default_refine)
        for policy in POLICIES:
            field = random_field(mesh, policy)
            for sl in sc.slices:
                for side in ("plus", "minus"):
                    got = sample_slice(field, sl.start, sl.end, sl.n, side=side)
                    pts = got["points"]
                    shifted = reference_side_rule(field, pts, side)
                    assert _apply_side_rule(field, pts, side).tobytes() == shifted.tobytes()
                    want = reference_evaluate(field, shifted)
                    assert got["values"].tobytes() == want.tobytes(), (name, policy, side)


@pytest.mark.parametrize("case", ["ex53", "ex56", "crossed"])
def test_scoped_side_rule_matches_the_full_facet_reference(case):
    # the rule keeps only the barrier facets near the samples; the reference
    # tests every facet
    mesh = _oracle_mesh(case)
    field = random_field(mesh)
    fpts, _ = barrier_facets(mesh)
    rng = np.random.default_rng(13)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    segments = [rng.uniform(lo, hi, (2, mesh.dim)) for _ in range(10)]
    # short segments, near few facets or none
    for _ in range(10):
        p0 = rng.uniform(lo, hi)
        segments.append([p0, p0 + rng.uniform(-0.05, 0.05, mesh.dim) * (hi - lo)])
    # segments in the plane of a barrier facet, centred on it and reaching
    # past its corners
    plane = len(segments)
    for f in rng.integers(0, len(fpts), 12):
        centre = fpts[f].mean(axis=0)
        along = rng.uniform(-3.0, 3.0, mesh.dim - 1) @ (fpts[f, 1:] - fpts[f, 0])
        segments.append([centre - along, centre + along])
    moved = np.zeros(len(segments), dtype=int)
    for i, (p0, p1) in enumerate(segments):
        pts = p0 + np.outer(np.linspace(0.0, 1.0, 101), np.subtract(p1, p0))
        for side in SIDES:
            want = reference_side_rule(field, pts, side)
            assert _apply_side_rule(field, pts, side).tobytes() == want.tobytes(), (i, side)
            moved[i] += np.any(want != pts, axis=1).sum()
    assert np.all(moved[plane:] > 0) and np.any(moved[:plane] == 0)


def test_side_rule_at_the_eps_threshold_matches_reference():
    # samples at distance ~eps from the slanted barrier, spaced by less than
    # the rounding of the distance, so the d < eps test goes both ways
    sc = get_scenario("ex52_slanted")
    mesh = sc.mesh_factory(sc.default_refine)
    field = random_field(mesh)
    fpts, normals = barrier_facets(mesh)
    eps = _SIDE_EPS_REL * mesh.domain_diameter()
    rng = np.random.default_rng(3)
    f = rng.integers(0, len(normals), 400)
    t = rng.uniform(0.05, 0.95, 400)[:, None]
    base = (1 - t) * fpts[f, 0] + t * fpts[f, 1]
    off = eps + rng.uniform(-1e-16, 1e-16, 400)
    pts = np.concatenate([base + off[:, None] * normals[f],
                          base - off[:, None] * normals[f]])
    for side in ("plus", "minus"):
        want = reference_side_rule(field, pts, side)
        assert _apply_side_rule(field, pts, side).tobytes() == want.tobytes()
        moved = np.any(want != pts, axis=1)
        assert moved.any() and not moved.all()


@pytest.mark.parametrize("name", ["ex53", "ex54a", "ex56"])
def test_side_rule_on_barrier_vertices_takes_the_first_facet(name):
    # a vertex lies on several barrier facets, at corners with different normals
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    field = random_field(mesh)
    rows = mesh.facets_of_kind(FacetKind.BARRIER)
    pts = mesh.vertices[np.unique(mesh.facets[rows])]
    for side in ("plus", "minus"):
        want = reference_side_rule(field, pts, side)
        assert _apply_side_rule(field, pts, side).tobytes() == want.tobytes()
        assert np.all(np.any(want != pts, axis=1))


@lru_cache(maxsize=1)
def _hypothesis_field():
    return random_field(barrier_square(n=6, jitter=0.25, seed=11), seed=5)


@st.composite
def special_point(draw):
    mesh = _hypothesis_field().mesh
    kind = draw(st.sampled_from(["vertex", "barrier", "outside"]))
    if kind == "vertex":
        return mesh.vertices[draw(st.integers(0, mesh.n_vertices - 1))]
    if kind == "barrier":
        rows = mesh.facets_of_kind(FacetKind.BARRIER)
        a, b = mesh.vertices[mesh.facets[rows[draw(st.integers(0, len(rows) - 1))]]]
        t = draw(st.floats(0.0, 1.0))
        return (1 - t) * a + t * b
    along = draw(st.floats(0.0, 1.0))
    past = draw(st.floats(1e-12, 1e-3))
    return [(-past, along), (1 + past, along), (along, -past), (along, 1 + past)][
        draw(st.integers(0, 3))]


@settings(max_examples=150, deadline=None)
@given(st.lists(special_point(), min_size=2, max_size=6))
def test_walk_agrees_with_reference_on_special_points(points):
    field = _hypothesis_field()
    pts = np.array(points, dtype=np.float64)
    for side in ("plus", "minus"):
        want = reference_side_rule(field, pts, side)
        assert _apply_side_rule(field, pts, side).tobytes() == want.tobytes()
    try:
        want = reference_evaluate(field, pts)
    except ValidationError as e:
        assert "outside the mesh" in str(e)
        with pytest.raises(ValidationError, match=re.escape(str(e))):
            field.evaluate(pts)
        return
    assert field.evaluate(pts).tobytes() == want.tobytes()
