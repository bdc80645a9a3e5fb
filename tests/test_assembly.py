"""Operator assembly, boundary data, and conservation."""

import numpy as np
import pytest
import scipy.sparse as sp

import boxdfm.assembly as assembly_module
import boxdfm.dual as dual_module
from boxdfm.assembly import (apply_dirichlet, assemble_operator, assemble_rhs,
                             assemble_system, collect_dirichlet, flux_balance,
                             local_barrier_coupling, local_cell_matrices,
                             local_fracture_matrices)
from boxdfm.benchmarks import analytic_barrier_scenario, get_scenario
from boxdfm.dofspace import build_dof_map, facet_vertex_dofs
from boxdfm.driver import run_scenario
from boxdfm.dual import dual_geometry
from boxdfm.errors import ValidationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.linalg import cg_solve, dense_spd_check
from boxdfm.materials import BarrierLaw, FractureLaw, MaterialModel
from boxdfm.mesh import FacetKind, facet_measures
from conftest import TAGS_BARRIER, barrier_square, traced_peak

TAGS_PLAIN = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann"}


def plain_mesh(n=4, jitter=0.2, seed=1):
    return crossed_square_mesh(n, jitter=jitter, seed=seed, tag_map=TAGS_PLAIN)


def matrix_only(dim=2, k=1.0):
    return MaterialModel(matrix={1: k, 2: k}, fractures={}, barriers={}, dim=dim)


def test_routes_agree_with_barriers():
    mesh = barrier_square(n=4, jitter=0.25, seed=6)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 2.0, 2: np.diag([3.0, 0.5])},
                         fractures={}, barriers={10: BarrierLaw(1e-2, 1e-4)},
                         dim=2)
    A1 = assemble_operator(mesh, dm, mats, route="gradients")
    A2 = assemble_operator(mesh, dm, mats, route="subfaces")
    scale = np.abs(A1.toarray()).max()
    assert np.abs((A1 - A2).toarray()).max() <= 1e-13 * scale


@pytest.mark.parametrize("name", ["ex56", "ex51"])
def test_solve_builds_only_the_dual_geometry_it_reads(monkeypatch, name):
    # the gradient route reads no sub-face vectors; only a source term
    # (ex51 has one, the 3d ex56 none) reads piece volumes and centroids
    def refuse(*args):
        raise AssertionError("sub-face vectors built")

    monkeypatch.setattr(dual_module, "_subface_vectors", refuse)
    built = []
    monkeypatch.setattr(assembly_module, "dual_geometry",
                        lambda mesh: built.append(dual_geometry(mesh)) or built[-1])
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    dm = build_dof_map(mesh, sc.policy)
    system = assemble_system(mesh, dm, sc.materials, source=sc.source,
                             neumann=sc.neumann, dirichlet=sc.dirichlet)
    assert system.A.shape == (dm.n_dofs, dm.n_dofs)
    (dual,) = built
    expect = {"subvol", "piece_centroids"} if sc.source is not None else set()
    assert set(vars(dual)) & {"subvol", "piece_centroids", "subface_vectors"} == expect
    # the patched function is the one the sub-face route calls
    with pytest.raises(AssertionError, match="sub-face vectors built"):
        assemble_operator(mesh, dm, sc.materials, route="subfaces")


def test_fracture_assembly_is_stiffness_plus_fracture_terms():
    # conductive fractures only: the operator must equal the plain P1
    # stiffness plus the lower-dimensional fracture terms, entrywise
    tags = dict(TAGS_PLAIN)
    tags[20], tags[21] = "fracture", "fracture"
    mesh = crossed_square_mesh(
        4, jitter=0.15, seed=2, keep_x=(0.5,), keep_y=(0.25,),
        segments=[((0.5, 0.0), (0.5, 1.0), 20), ((0.0, 0.25), (1.0, 0.25), 21)],
        tag_map=tags,
    )
    dm = build_dof_map(mesh, "barrier_cuts")
    assert dm.n_dofs == mesh.n_vertices
    mats = MaterialModel(matrix={1: 1.0},
                         fractures={20: FractureLaw(1e-3, 1e3),
                                    21: FractureLaw(1e-2, 5.0)},
                         barriers={}, dim=2)
    A = assemble_operator(mesh, dm, mats, dual_geometry(mesh)).toarray()

    K = mats.cell_tensors(mesh)
    cellmats = local_cell_matrices(mesh, K)
    manual = np.zeros((dm.n_dofs, dm.n_dofs))
    for c in range(mesh.n_cells):
        d = dm.cell_dofs[c]
        manual[np.ix_(d, d)] += cellmats[c]
    for tag, law in mats.fractures.items():
        rows = np.nonzero((mesh.facet_tags == tag)
                          & (mesh.facet_kinds == int(FacetKind.FRACTURE)))[0]
        t = np.full(len(rows), law.aperture * law.k)
        fm = local_fracture_matrices(mesh, rows, t)
        for k, r in enumerate(rows):
            d = [np.nonzero(dm.dof_vertex == v)[0][0] for v in mesh.facets[r]]
            manual[np.ix_(d, d)] += fm[k]
    assert np.abs(A - manual).max() <= 1e-12 * np.abs(A).max()


def test_row_sums_vanish_without_dirichlet():
    mesh = barrier_square(n=4, jitter=0.2, seed=9)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 2.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 1e-3)}, dim=2)
    A0 = assemble_operator(mesh, dm, mats)
    ones = np.ones(dm.n_dofs)
    assert np.abs(A0 @ ones).max() <= 1e-13 * np.abs(A0.toarray()).max()


def test_patch_test_linear_exact():
    # p = x solves the homogeneous equation; the scheme reproduces it to
    # rounding on a distorted mesh
    mesh = plain_mesh(n=5, jitter=0.3, seed=3)
    dm = build_dof_map(mesh, "barrier_cuts")

    def g(points, regions):
        return points[:, 0]

    system = assemble_system(mesh, dm, matrix_only(),
                             dirichlet={1: g, 2: g}, neumann={3: lambda p, r: np.zeros(len(p)),
                                                              4: lambda p, r: np.zeros(len(p))})
    x, rep = cg_solve(system.A, system.b, tol=1e-14, preconditioner="ic0")
    assert rep.converged
    exact = mesh.vertices[dm.dof_vertex, 0]
    assert np.abs(x - exact).max() <= 1e-12


def test_neumann_rhs_weights():
    mesh = crossed_square_mesh(4, tag_map={1: "dirichlet", 2: "neumann",
                                           3: "neumann", 4: "neumann"})
    dm = build_dof_map(mesh, "barrier_cuts")
    dual = dual_geometry(mesh)
    b = assemble_rhs(mesh, dm, dual, neumann={2: lambda p, r: np.ones(len(p)),
                                              3: lambda p, r: np.zeros(len(p)),
                                              4: lambda p, r: np.zeros(len(p))})
    # outflow-positive convention: g = 1 on the right side drains the
    # boxes there by their sub-edge measures
    assert b.sum() == pytest.approx(-1.0, abs=1e-14)
    corner = np.nonzero(np.all(np.isclose(mesh.vertices, [1.0, 0.0]), axis=1))[0][0]
    cdof = np.nonzero(dm.dof_vertex == corner)[0][0]
    assert b[cdof] == pytest.approx(-0.125, abs=1e-14)
    interior_side = np.nonzero(np.all(np.isclose(mesh.vertices, [1.0, 0.5]), axis=1))[0][0]
    idof = np.nonzero(dm.dof_vertex == interior_side)[0][0]
    assert b[idof] == pytest.approx(-0.25, abs=1e-14)


def test_unmatched_neumann_tag_rejected():
    mesh = crossed_square_mesh(2, tag_map=TAGS_PLAIN)
    dm = build_dof_map(mesh, "barrier_cuts")
    dual = dual_geometry(mesh)
    with pytest.raises(ValidationError):
        assemble_rhs(mesh, dm, dual, neumann={9: lambda p, r: np.ones(len(p))})


def test_source_midpoint_rule_exact_for_linear():
    mesh = plain_mesh(n=4, jitter=0.25, seed=5)
    dm = build_dof_map(mesh, "barrier_cuts")
    dual = dual_geometry(mesh)
    b1 = assemble_rhs(mesh, dm, dual, source=lambda p, r: np.ones(len(p)))
    assert b1.sum() == pytest.approx(1.0, abs=1e-13)
    bx = assemble_rhs(mesh, dm, dual, source=lambda p, r: p[:, 0])
    assert bx.sum() == pytest.approx(0.5, abs=1e-13)


def test_dirichlet_contradiction_detected():
    mesh = crossed_square_mesh(2, tag_map={1: "dirichlet", 2: "neumann",
                                           3: "dirichlet", 4: "neumann"})
    dm = build_dof_map(mesh, "barrier_cuts")
    # tags 1 (left) and 3 (bottom) share the origin corner
    with pytest.raises(ValidationError):
        collect_dirichlet(mesh, dm, {1: lambda p, r: np.zeros(len(p)),
                                     3: lambda p, r: np.ones(len(p))})
    dofs, vals = collect_dirichlet(mesh, dm, {1: lambda p, r: p[:, 1],
                                              3: lambda p, r: p[:, 1]})
    assert len(dofs) == len(vals) == 3 + 3 - 1


def test_pure_neumann_pins_one_dof_or_rejects_a_supply():
    mesh = crossed_square_mesh(2, tag_map={i: "neumann" for i in range(1, 5)})
    dm = build_dof_map(mesh, "barrier_cuts")
    with pytest.raises(ValidationError, match=r"compartment with 13 dofs around vertex "
                       r"0 \(0, 0\) has no Dirichlet data but net supply 1;"):
        assemble_system(mesh, dm, matrix_only(), source=lambda p, r: np.ones(len(p)))
    system = assemble_system(mesh, dm, matrix_only())
    assert system.dirichlet_values.tolist() == [0.0]
    assert mesh.vertices[dm.dof_vertex[system.dirichlet_dofs]].tolist() == [[0.0, 0.0]]
    assert dense_spd_check(system.A).cholesky_ok


def test_two_sealed_compartments_without_dirichlet_data_get_a_pin_each():
    mesh = barrier_square(n=4, tag_map={**{i: "neumann" for i in range(1, 5)}, 10: "barrier"})
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 0.0)}, dim=2)
    # zero net supply in each half
    def supply(p, r):
        return p[:, 0] - np.where(r == 1, 0.25, 0.75)

    system = assemble_system(mesh, dm, mats, source=supply)
    assert system.dirichlet_values.tolist() == [0.0, 0.0]
    pins = mesh.vertices[dm.dof_vertex[system.dirichlet_dofs]]
    assert sorted(pins[:, 0] < 0.5) == [False, True]
    assert dense_spd_check(system.A).cholesky_ok
    # with the barrier open the halves form one compartment
    mats.barriers[10] = BarrierLaw(1e-2, 1.0)
    assert len(assemble_system(mesh, dm, mats, source=supply).dirichlet_dofs) == 1


def test_sealed_barrier_decouples_sides():
    mesh = barrier_square(n=3 + 1)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 0.0)}, dim=2)
    A0 = assemble_operator(mesh, dm, mats)
    left = np.zeros(dm.n_dofs)
    for c in np.nonzero(mesh.cell_region == 1)[0]:
        left[dm.cell_dofs[c]] = 1.0
    # indicator of the left compartment is in the nullspace together with
    # the constant, so the nullspace has dimension two
    assert np.abs(A0 @ left).max() <= 1e-13 * np.abs(A0.toarray()).max()


def test_dirichlet_elimination_symmetric():
    mesh = barrier_square(n=4, jitter=0.15, seed=2)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 1e-3)}, dim=2)
    system = assemble_system(
        mesh, dm, mats,
        dirichlet={1: lambda p, r: np.zeros(len(p)),
                   2: lambda p, r: np.ones(len(p))},
        neumann={3: lambda p, r: np.zeros(len(p)), 4: lambda p, r: np.zeros(len(p))},
    )
    A = system.A.toarray()
    assert np.abs(A - A.T).max() == 0.0
    d = system.dirichlet_dofs
    off = A[d].copy()
    off[np.arange(len(d)), d] = 0.0
    assert np.all(off == 0.0)
    assert np.allclose(A[d, d], 1.0)


def test_flux_balance_reports_conservation():
    res = run_scenario(analytic_barrier_scenario(beta=1.0, h=0.2, seed=3))
    bal = flux_balance(res.system, res.field.values)
    assert bal["relative_imbalance"] <= 1e-10
    # slope s = 1/2 at beta = 1: half a unit of flux crosses the square
    assert bal["dirichlet_outflow"] == pytest.approx(0.0, abs=1e-10)
    assert bal["flux_scale"] == pytest.approx(1.0, abs=0.05)


def test_barrier_exactness_and_interface_fluxes():
    # piecewise-linear exact solution: nodal exactness and the interface
    # condition (transfer flux = beta * jump, matching -K grad p . n)
    scenario = analytic_barrier_scenario(beta=1e-5, h=0.17, seed=2)
    res = run_scenario(scenario)
    mesh, dm, x = res.mesh, res.dofmap, res.field.values
    beta = 1e-5
    s = 1.0 / (1.0 + 1.0 / beta)

    exact = scenario.exact
    pts = mesh.vertices[dm.dof_vertex]
    # region of a dof: via any cell that carries it
    reg = np.zeros(dm.n_dofs, dtype=np.int64)
    for c in range(mesh.n_cells):
        reg[dm.cell_dofs[c]] = mesh.cell_region[c]
    assert np.abs(x - exact(pts, reg)).max() <= 1e-10

    rows = dm.barrier_facet_rows
    meas = facet_measures(mesh.vertices, mesh.facets[rows])
    for k in range(len(rows)):
        M = local_barrier_coupling(float(meas[k]), beta)
        u = np.concatenate([x[dm.barrier_minus[k]], x[dm.barrier_plus[k]]])
        t = M @ u
        # transfer through each half facet carries the exact normal flux s
        half = s * float(meas[k]) / 2
        assert np.allclose(np.abs(t), half, atol=1e-9 * half)
        # what leaves one side enters the other
        assert np.abs(t[:2] + t[2:]).max() <= 1e-12 * half
        # flow exits through the high pressure side of the interface
        hi = np.sign(u[2:].mean() - u[:2].mean())
        assert np.all(np.sign(t[2:]) == hi)


def reference_elimination(A0, b0, dofs, values):
    """Dirichlet elimination as P A0 P + D with P, D diagonal masks: the
    oracle for apply_dirichlet's in-place masking."""
    n = A0.shape[0]
    g = np.zeros(n)
    g[dofs] = values
    b = b0 - A0 @ g
    free = np.ones(n)
    free[dofs] = 0.0
    P = sp.diags(free, format="csr")
    D = sp.diags(1.0 - free, format="csr")
    A = (P @ A0 @ P + D).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    b = free * b
    b[dofs] = values
    return A, b


def scenario_pieces(name):
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    dm = build_dof_map(mesh, sc.policy)
    dual = dual_geometry(mesh)
    A0 = assemble_operator(mesh, dm, sc.materials, dual)
    b0 = assemble_rhs(mesh, dm, dual, source=sc.source, neumann=sc.neumann)
    return mesh, dm, A0, b0, sc.dirichlet


def sealed_square_pieces():
    mesh = barrier_square(n=4, jitter=0.15, seed=2)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 0.0)}, dim=2)
    dual = dual_geometry(mesh)
    A0 = assemble_operator(mesh, dm, mats, dual)
    b0 = assemble_rhs(mesh, dm, dual, source=lambda p, r: np.ones(len(p)))
    dirichlet = {1: lambda p, r: np.zeros(len(p)), 2: lambda p, r: p[:, 1] + 1.0}
    return mesh, dm, A0, b0, dirichlet


@pytest.mark.parametrize("build, a0_zeros", [
    (lambda: scenario_pieces("ex51"), False),
    (lambda: scenario_pieces("ex56"), True),  # Kuhn cells' orthogonal edges
    (sealed_square_pieces, True),             # k = 0 barrier blocks
], ids=["ex51-r0", "ex56-r0", "sealed-barrier"])
def test_dirichlet_masking_matches_projection_oracle(build, a0_zeros):
    mesh, dm, A0, b0, dirichlet = build()
    assert np.any(A0.data == 0.0) == a0_zeros
    dofs, values = collect_dirichlet(mesh, dm, dirichlet)
    A, b = apply_dirichlet(A0, b0, dofs, values)
    ref, ref_b = reference_elimination(A0, b0, dofs, values)
    assert isinstance(A, sp.csr_matrix)
    for got, want in [(A.indptr, ref.indptr), (A.indices, ref.indices),
                      (A.data, ref.data), (b, ref_b)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.all(A.data != 0.0)


def reference_collect_dirichlet(mesh, dofmap, dirichlet):
    """Per-dof sweep in tag order: the oracle for the vectorized
    collect_dirichlet (last value wins, successive values must agree)."""
    vals = {}
    for tag, g in dirichlet.items():
        rows = np.nonzero((mesh.facet_tags == int(tag))
                          & (mesh.facet_kinds == int(FacetKind.DIRICHLET)))[0]
        dofs, cells_r = facet_vertex_dofs(mesh, dofmap, rows)
        pts = mesh.vertices[mesh.facets[rows]].reshape(-1, mesh.dim)
        regs = np.repeat(mesh.cell_region[cells_r], mesh.dim)
        g_vals = np.asarray(g(pts, regs), dtype=np.float64).ravel()
        scale = max(1.0, float(np.abs(g_vals).max()))
        for d, v in zip(dofs.ravel().tolist(), g_vals.tolist()):
            if d in vals and abs(vals[d] - v) > 1e-9 * scale:
                raise ValidationError(
                    f"dof {d} receives contradictory Dirichlet values "
                    f"{vals[d]!r} and {v!r}"
                )
            vals[d] = v
    dofs = np.array(sorted(vals), dtype=np.int64)
    return dofs, np.array([vals[int(d)] for d in dofs])


def dirichlet_cases():
    tags = {1: "dirichlet", 2: "dirichlet", 3: "dirichlet", 4: "neumann",
            10: "barrier"}
    mesh = barrier_square(n=4, jitter=0.1, seed=7, tag_map=tags)
    dm = build_dof_map(mesh, "barrier_cuts")
    side = lambda p, r: p[:, 1] + r  # noqa: E731  (splits the barrier foot)
    yield "side-dependent", mesh, dm, {1: side, 2: side, 3: side}
    # corners get a second value within rounding: the later tag's wins
    yield "rounding", mesh, dm, {1: side, 3: lambda p, r: side(p, r) + 1e-12, 2: side}
    # two clashes, (1, 0) met first in tag order, (0, 0) first by dof
    yield "contradiction", mesh, dm, {2: side, 3: lambda p, r: side(p, r) + 1e-3,
                                      1: lambda p, r: side(p, r) + 2e-3}
    for name in ("ex51", "ex53", "ex56"):
        mesh, dm, _, _, dirichlet = scenario_pieces(name)
        yield name, mesh, dm, dirichlet


def test_collect_dirichlet_matches_per_dof_sweep():
    raised = []
    for name, mesh, dm, dirichlet in dirichlet_cases():
        try:
            ref = reference_collect_dirichlet(mesh, dm, dirichlet)
        except ValidationError as e:
            with pytest.raises(ValidationError) as got:
                collect_dirichlet(mesh, dm, dirichlet)
            assert str(got.value) == str(e), name
            raised.append(name)
            continue
        dofs, values = collect_dirichlet(mesh, dm, dirichlet)
        assert dofs.dtype == ref[0].dtype and np.array_equal(dofs, ref[0]), name
        assert values.tobytes() == ref[1].tobytes(), name
    assert raised == ["contradiction"]


def test_callable_results_must_match_point_count():
    mesh = crossed_square_mesh(2, tag_map=TAGS_PLAIN)
    dm = build_dof_map(mesh, "barrier_cuts")
    dual = dual_geometry(mesh)
    # a scalar used to fix only the first of the tag's four points
    with pytest.raises(ValidationError, match=r"dirichlet tag 1 .* shape \(\) .* \(4,\)"):
        collect_dirichlet(mesh, dm, {1: lambda p, r: 1.0})
    with pytest.raises(ValidationError, match=r"neumann tag 3 .* shape \(5,\) .* \(4,\)"):
        assemble_rhs(mesh, dm, dual, neumann={3: lambda p, r: np.ones(len(p) + 1)})
    with pytest.raises(ValidationError, match=r"source .* shape \(3,\) .* \(48,\)"):
        assemble_rhs(mesh, dm, dual, source=lambda p, r: np.ones(3))


def test_facet_laws_resolved_per_tag():
    mats = MaterialModel(matrix={1: 1.0}, fractures={20: FractureLaw(1e-3, 7.0)},
                         barriers={10: BarrierLaw(1e-2, 3e-4), 11: BarrierLaw(0.5, 0.0)},
                         dim=2)
    tags = np.array([11, 10, 10, 11])
    assert mats.barrier_beta(tags).tolist() == [0.0, 3e-4 / 1e-2, 3e-4 / 1e-2, 0.0]
    assert mats.fracture_transmissivity(np.array([20, 20])).tolist() == [1e-3 * 7.0] * 2
    assert mats.barrier_beta(np.zeros(0, dtype=np.int64)).shape == (0,)
    with pytest.raises(ValidationError, match="no barrier law for tag 12"):
        mats.barrier_beta(np.array([10, 12]))
    with pytest.raises(ValidationError, match="no fracture law for tag 10"):
        mats.fracture_transmissivity(tags)


def reference_assemble_operator(mesh, dofmap, materials, dual=None, route="gradients"):
    """A0 as the list-and-concatenate route built it: whole-mesh cell
    blocks, int64 index lists per block kind, then one concatenation."""
    K = materials.cell_tensors(mesh)
    if route == "gradients":
        cellmats = local_cell_matrices(mesh, K)
    else:
        cellmats = dual_module.subface_flux_matrices(mesh, dual or dual_geometry(mesh), K)
    nloc = mesh.dim + 1
    cd = dofmap.cell_dofs
    rows = [np.repeat(cd, nloc, axis=1).ravel()]
    cols = [np.tile(cd, (1, nloc)).ravel()]
    data = [cellmats.ravel()]
    fr = dofmap.fracture_facet_rows
    if len(fr):
        trans = materials.fracture_transmissivity(mesh.facet_tags[fr])
        fd, d = dofmap.fracture_dofs, mesh.dim
        rows.append(np.repeat(fd, d, axis=1).ravel())
        cols.append(np.tile(fd, (1, d)).ravel())
        data.append(local_fracture_matrices(mesh, fr, trans).ravel())
    br = dofmap.barrier_facet_rows
    if len(br):
        beta = materials.barrier_beta(mesh.facet_tags[br])
        bd = np.concatenate([dofmap.barrier_minus, dofmap.barrier_plus], axis=1)
        d2 = 2 * mesh.dim
        rows.append(np.repeat(bd, d2, axis=1).ravel())
        cols.append(np.tile(bd, (1, d2)).ravel())
        data.append(assembly_module.local_barrier_matrices(mesh, br, beta).ravel())
    n = dofmap.n_dofs
    A0 = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    A0.sum_duplicates()
    A0.sort_indices()
    return A0


def builtin_pieces(name, refine):
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine + refine)
    return mesh, build_dof_map(mesh, sc.policy), sc.materials


def crossed_pieces(policy):
    # a fracture crossing a barrier, jittered, two anisotropic regions
    tags = dict(TAGS_BARRIER)
    tags[20] = "fracture"
    mesh = crossed_square_mesh(
        6, jitter=0.2, seed=4, keep_x=(0.5,), keep_y=(0.5,),
        segments=[((0.5, 0.0), (0.5, 1.0), 10), ((0.0, 0.5), (1.0, 0.5), 20)],
        region_fn=lambda c: np.where(c[:, 0] < 0.5, 1, 2), tag_map=tags,
    )
    mats = MaterialModel(matrix={1: 2.0, 2: np.diag([3.0, 0.5])},
                         fractures={20: FractureLaw(1e-3, 1e3)},
                         barriers={10: BarrierLaw(1e-2, 1e-4)}, dim=2)
    return mesh, build_dof_map(mesh, policy), mats


@pytest.mark.parametrize("build", [
    lambda: builtin_pieces("ex51", 1),
    lambda: builtin_pieces("ex54a", 0),
    lambda: builtin_pieces("ex56", 0),
    lambda: builtin_pieces("ex57a", 0),
    lambda: crossed_pieces("barrier_cuts"),
    lambda: crossed_pieces("fracture_penetrates"),
], ids=["ex51-r1", "ex54a-r0", "ex56-r0", "ex57a-r0", "crossed-cuts", "crossed-penetrates"])
def test_preallocated_assembly_matches_reference_bitwise(monkeypatch, build):
    # an odd range size gives many cell ranges and a ragged last one
    monkeypatch.setattr(assembly_module, "_CELL_RANGE", 37)
    mesh, dm, mats = build()
    assert mesh.n_cells > 2 * 37 and mesh.n_cells % 37
    for route in ("gradients", "subfaces"):
        got = assemble_operator(mesh, dm, mats, route=route)
        want = reference_assemble_operator(mesh, dm, mats, route=route)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (route, part)


def triplet_bytes(mesh, dm):
    """Bytes of the operator's entries as int32/int32/float64 triplets."""
    d = mesh.dim
    entries = (mesh.n_cells * (d + 1) ** 2 + len(dm.fracture_facet_rows) * d ** 2
               + len(dm.barrier_facet_rows) * (2 * d) ** 2)
    return entries * (4 + 4 + 8)


def test_assembly_peak_memory_stays_near_its_triplets(monkeypatch):
    # 3d Kuhn mesh of 24,576 cells in 12 ranges; the bound is on the peak
    # of traced allocations over the bytes of the int32/float64 triplets.
    # The fill holds int32 indices and float64 values, 12 of those 16
    # bytes per entry, and measures 1.02; the COO reference takes 1.97
    monkeypatch.setattr(assembly_module, "_CELL_RANGE", 2048)
    mesh, dm, mats = builtin_pieces("ex56", 1)
    peaks = {name: traced_peak(assemble, mesh, dm, mats)[1] / triplet_bytes(mesh, dm)
             for name, assemble in (("fill", assemble_operator),
                                    ("reference", reference_assemble_operator))}
    assert peaks["fill"] <= 1.1 < peaks["reference"], peaks


def test_assembly_peak_memory_of_a_mesh_in_one_range():
    # a 2d mesh of 8,072 cells fits in one range at the default _CELL_RANGE,
    # so the scratch of the fill spans the whole mesh. Ranking block rows
    # in int32 measures 2.20; ranking single entries with an int64 argsort
    # takes 5.5, and a COO list with its conversion to CSR 2.76
    mesh, dm, mats = builtin_pieces("ex54a", 1)
    assert mesh.n_cells < assembly_module._CELL_RANGE
    peak = traced_peak(assemble_operator, mesh, dm, mats)[1]
    assert peak / triplet_bytes(mesh, dm) <= 2.4
