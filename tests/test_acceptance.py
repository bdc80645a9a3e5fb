"""Acceptance suite: one test and one [PASS]/[FAIL] line per criterion.

Each test measures what the contract asks for, records a single summary
line through conftest.record_criterion, and asserts the verdict.
"""

import json
import math
import time
from itertools import combinations

import numpy as np

from boxdfm.assembly import (assemble_operator, assemble_system,
                             local_barrier_coupling, local_cell_matrices,
                             local_fracture_matrices)
from boxdfm.benchmarks import (analytic_barrier_scenario, builtin_scenarios,
                               ex52_scenario, ex57_equidim_scenario, get_scenario,
                               scenario_names)
from boxdfm.dofspace import build_dof_map
from boxdfm.driver import run_convergence, run_scenario
from boxdfm.errors import DofMapError, MeshGenerationError
from boxdfm.generators import crossed_square_mesh
from boxdfm.linalg import cg_solve, dense_spd_check
from boxdfm.materials import BarrierLaw, FractureLaw, MaterialModel
from boxdfm.mesh import FacetKind, build_mesh, facet_measures
from boxdfm.solution import SolutionField, sample_slice
from conftest import record_criterion

SIDES = (1, 2, 3, 4)


def ulps_between(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def dof_regions(mesh, dofmap) -> np.ndarray:
    """Region of each dof via a cell that carries it (sides are unambiguous
    for split dofs; unsplit dofs sit where the solution is continuous)."""
    reg = np.zeros(dofmap.n_dofs, dtype=np.int64)
    reg[dofmap.cell_dofs.ravel()] = np.repeat(mesh.cell_region, mesh.dim + 1)
    return reg


def max_cell_diameter(mesh) -> float:
    verts = mesh.vertices[mesh.cells]
    h = 0.0
    for i, j in combinations(range(mesh.dim + 1), 2):
        h = max(h, float(np.linalg.norm(verts[:, i] - verts[:, j], axis=1).max()))
    return h


def detect_jumps(s: np.ndarray, vals: np.ndarray) -> list[float]:
    """Midpoints of sample intervals whose value step towers over the
    smooth background (adjacent flagged intervals merge into one jump)."""
    d = np.abs(np.diff(vals))
    thr = max(10.0 * float(np.median(d)), 0.02 * float(vals.max() - vals.min()))
    idx = np.nonzero(d > thr)[0]
    groups: list[list[int]] = []
    for i in idx:
        if groups and i - groups[-1][-1] == 1:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return [0.5 * float(s[g[0]] + s[g[-1] + 1]) for g in groups]


def segment_crossings(p0, p1, segments) -> list[float]:
    """Arclength fractions where the slice p0 -> p1 meets the segments."""
    p0 = np.asarray(p0, float)
    d = np.asarray(p1, float) - p0
    out = []
    for a, b, _tag in segments:
        e = np.asarray(b, float) - np.asarray(a, float)
        M = np.array([d, -e]).T
        if abs(np.linalg.det(M)) < 1e-14:
            continue
        t, u = np.linalg.solve(M, np.asarray(a, float) - p0)
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            out.append(float(t))
    return sorted(out)


def test_criterion_1_manufactured_convergence():
    t0 = time.perf_counter()
    scenario = get_scenario("ex51")
    base_cells = scenario.mesh_factory(0).n_cells
    study = run_convergence(scenario, levels=4)
    dt = time.perf_counter() - t0
    orders = [r["order"] for r in study["rows"][1:]]
    e0 = study["rows"][0]["l2_error"]
    bound = 3 * 5.39e-4
    ok = (all(o is not None and 1.9 <= o <= 2.1 for o in orders)
          and e0 <= bound and dt < 30.0)
    record_criterion(
        1, ok,
        f"4 refinements on a {base_cells}-triangle base: orders "
        f"{', '.join(f'{o:.3f}' for o in orders)} all in [1.90, 2.10], "
        f"coarsest L2 {e0:.2e} <= {bound:.2e}, {dt:.1f}s < 30s")
    assert ok


def _random_barrier_system(case: int):
    """One randomized small scenario: jittered crossed grid, one vertical
    and one horizontal barrier of random extent, random Dirichlet sides,
    log-uniform transfer ratios. Degenerate draws raise and are skipped."""
    rng = np.random.default_rng(9000 + case)
    n = int(rng.integers(5, 9))
    j1, j2 = int(rng.integers(1, n)), int(rng.integers(1, n))
    x1, y2 = j1 / n, j2 / n
    jit = float(rng.uniform(0.05, 0.2)) if case % 2 == 0 else 0.0
    if jit > 0.0:
        # jitter pins only kept lines, so spans end on pinned intersections
        va, vb = sorted(rng.choice(sorted({0.0, y2, 1.0}), 2, replace=False))
        ha, hb = sorted(rng.choice(sorted({0.0, x1, 1.0}), 2, replace=False))
    else:
        a, b = sorted(rng.choice(n + 1, 2, replace=False))
        va, vb = a / n, b / n
        a, b = sorted(rng.choice(n + 1, 2, replace=False))
        ha, hb = a / n, b / n
    segments = [((x1, va), (x1, vb), 11), ((ha, y2), (hb, y2), 12)]
    dir_tags = sorted(rng.choice(SIDES, int(rng.integers(1, 5)), replace=False).tolist())
    tags = {t: ("dirichlet" if t in dir_tags else "neumann") for t in SIDES}
    tags[11] = tags[12] = "barrier"
    mesh = crossed_square_mesh(n, jitter=jit, seed=500 + case,
                               keep_x=(x1,), keep_y=(y2,),
                               segments=segments, tag_map=tags)
    ratios = 10.0 ** rng.uniform(-8, 8, size=2)
    materials = MaterialModel(
        matrix={1: 1.0},
        barriers={11: BarrierLaw(1e-2, 1e-2 * ratios[0]),
                  12: BarrierLaw(1e-2, 1e-2 * ratios[1])},
        dim=2)
    dofmap = build_dof_map(mesh, "barrier_cuts")

    def g(p, r):
        return p[:, 0] + 2 * p[:, 1]

    def zero(p, r):
        return np.zeros(len(p))

    system = assemble_system(
        mesh, dofmap, materials,
        dirichlet={t: g for t in dir_tags},
        neumann={t: zero for t in SIDES if t not in dir_tags})
    return dofmap, system, ratios


def test_criterion_2_symmetry_and_spd_randomized():
    t0 = time.perf_counter()
    done, case, skipped = 0, 0, 0
    worst_rel_asym, max_dofs, ratio_lo, ratio_hi = 0.0, 0, np.inf, 0.0
    all_spd = True
    while done < 24 and case < 200:
        case += 1
        try:
            dofmap, system, ratios = _random_barrier_system(case)
        except (DofMapError, MeshGenerationError):
            skipped += 1
            continue
        assert dofmap.n_dofs <= 500
        max_dofs = max(max_dofs, dofmap.n_dofs)
        ratio_lo = min(ratio_lo, ratios.min())
        ratio_hi = max(ratio_hi, ratios.max())
        A = system.A
        asym = np.abs((A - A.T).toarray()).max()
        scale = np.abs(A.toarray()).max()
        worst_rel_asym = max(worst_rel_asym, asym / scale)
        all_spd = all_spd and dense_spd_check(system.A).cholesky_ok
        done += 1
    dt = time.perf_counter() - t0
    ok = (done >= 20 and worst_rel_asym <= 1e-12 and all_spd and dt < 10.0)
    record_criterion(
        2, ok,
        f"{done} randomized scenarios (<= {max_dofs} dofs, k_b/a in "
        f"[{ratio_lo:.1e}, {ratio_hi:.1e}], {skipped} degenerate draws "
        f"skipped): max|A-A^T|/max|A| = {worst_rel_asym:.1e} <= 1e-12, "
        f"dense Cholesky passed on all, {dt:.1f}s < 10s")
    assert ok


def _fracture_only_identity(n: int, jitter: float, seed: int) -> float:
    tags = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann",
            20: "fracture", 21: "fracture"}
    mesh = crossed_square_mesh(
        n, jitter=jitter, seed=seed, keep_x=(0.5,), keep_y=(0.25,),
        segments=[((0.5, 0.0), (0.5, 1.0), 20), ((0.0, 0.25), (1.0, 0.25), 21)],
        tag_map=tags)
    dofmap = build_dof_map(mesh, "barrier_cuts")
    materials = MaterialModel(
        matrix={1: 1.0},
        fractures={20: FractureLaw(1e-3, 1e3), 21: FractureLaw(1e-2, 5.0)},
        dim=2)
    A = assemble_operator(mesh, dofmap, materials).toarray()

    # conductive fractures keep one dof per vertex, so the operator must be
    # the plain P1 Galerkin stiffness plus scattered per-edge fracture terms
    manual = np.zeros_like(A)
    cellmats = local_cell_matrices(mesh, materials.cell_tensors(mesh))
    for c in range(mesh.n_cells):
        d = dofmap.cell_dofs[c]
        manual[np.ix_(d, d)] += cellmats[c]
    vdof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vdof[dofmap.dof_vertex] = np.arange(dofmap.n_dofs)
    for tag, law in materials.fractures.items():
        rows = np.nonzero((mesh.facet_tags == tag)
                          & (mesh.facet_kinds == int(FacetKind.FRACTURE)))[0]
        fmats = local_fracture_matrices(mesh, rows,
                                        np.full(len(rows), law.aperture * law.k))
        for k, r in enumerate(rows):
            d = vdof[mesh.facets[r]]
            manual[np.ix_(d, d)] += fmats[k]
    return float(np.abs(A - manual).max() / np.abs(A).max())


def test_criterion_3_fracture_identity():
    rels = [_fracture_only_identity(4, 0.15, 2),
            _fracture_only_identity(8, 0.25, 7)]
    ok = max(rels) <= 1e-12
    record_criterion(
        3, ok,
        "fracture-only operator equals P1 stiffness + per-edge fracture "
        f"terms entrywise: rel. deviations {rels[0]:.1e}, {rels[1]:.1e} "
        "<= 1e-12")
    assert ok


def test_criterion_4_local_barrier_values():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(10):
        L = float(10.0 ** rng.uniform(-3.0, 1.0))
        beta = float(10.0 ** rng.uniform(-8.0, 8.0))
        M = local_barrier_coupling(L, beta)
        # -3/4 of the shared half-edge measure, same vertex across the
        # barrier; +-1/8 of the edge measure on cross pairs
        pairs = [
            (M[0, 2], -0.75 * (L / 2) * beta), (M[1, 3], -0.75 * (L / 2) * beta),
            (M[0, 3], -(L / 8) * beta), (M[1, 2], -(L / 8) * beta),
            (M[0, 1], (L / 8) * beta), (M[2, 3], (L / 8) * beta),
            (M[0, 0], (3 * L / 8) * beta), (M[3, 3], (3 * L / 8) * beta),
        ]
        worst = max(worst, max(ulps_between(a, b) for a, b in pairs))
        assert np.array_equal(M, M.T)
    ok = worst <= 2.0
    record_criterion(
        4, ok,
        "local barrier coupling reproduces -3/4 half-edge and +-1/8 edge "
        f"values for 10 random (L, beta): worst deviation {worst:.0f} ulp "
        "<= 2 ulp")
    assert ok


def test_criterion_5_exact_barrier_oracle():
    worst = 0.0
    for h, seed in ((0.15, 1), (0.11, 2), (0.08, 3)):
        for beta in (1e-5, 1.0, 1e5):
            res = run_scenario(analytic_barrier_scenario(beta=beta, h=h, seed=seed))
            pts = res.mesh.vertices[res.dofmap.dof_vertex]
            exact = res.scenario.exact(pts, dof_regions(res.mesh, res.dofmap))
            worst = max(worst, float(np.abs(res.field.values - exact).max()))
    ok = worst <= 1e-10
    record_criterion(
        5, ok,
        "series-resistance barrier solution on 3 unstructured grids x "
        f"k_b/a in {{1e-5, 1, 1e5}}: max nodal error {worst:.1e} <= 1e-10")
    assert ok


def test_criterion_6_limit_consistency():
    # transparent limit: k_b/a = 1e8 against the same mesh with the
    # barrier facets dropped entirely
    res_hi = run_scenario(ex52_scenario("vertical", k_b=1e6))
    m = res_hi.mesh
    keep = m.facet_kinds != int(FacetKind.BARRIER)
    mesh_free = build_mesh(m.vertices, m.cells, facets=m.facets[keep],
                           facet_tags=m.facet_tags[keep],
                           facet_kinds=m.facet_kinds[keep],
                           cell_region=m.cell_region)
    dm_free = build_dof_map(mesh_free, "barrier_cuts")
    system = assemble_system(
        mesh_free, dm_free, MaterialModel(matrix={1: 1.0}, dim=2),
        dirichlet={1: lambda p, r: np.zeros(len(p)),
                   2: lambda p, r: np.ones(len(p))},
        neumann={3: lambda p, r: np.zeros(len(p)), 4: lambda p, r: np.zeros(len(p))})
    x, rep = cg_solve(system.A, system.b, tol=1e-12, preconditioner="ic0")
    assert rep.converged
    free = SolutionField(mesh_free, dm_free.cell_dofs, dm_free.dof_vertex, x)
    grid = np.linspace(0.03, 0.97, 18)
    pts = np.array([(x_, y_) for x_ in grid for y_ in grid
                    if abs(x_ - 0.5) > 0.02])
    rel_hi = float(np.abs(res_hi.field.evaluate(pts) - free.evaluate(pts)).max())
    rel_hi /= float(np.abs(free.values).max())

    # sealed limit: k_b = 0 must push zero net flux through the barrier
    res0 = run_scenario(ex52_scenario("vertical", k_b=0.0))
    dm0 = res0.dofmap
    meas = facet_measures(res0.mesh.vertices,
                          res0.mesh.facets[dm0.barrier_facet_rows])
    net, peak = 0.0, 0.0
    for k in range(len(dm0.barrier_facet_rows)):
        u = np.concatenate([res0.field.values[dm0.barrier_minus[k]],
                            res0.field.values[dm0.barrier_plus[k]]])
        t = local_barrier_coupling(float(meas[k]), 0.0) @ u
        net += float(t[2:].sum())
        peak = max(peak, float(np.abs(t).max()))
    scale = res0.report["balance"]["flux_scale"]
    ok = rel_hi <= 1e-5 and abs(net) <= 1e-12 * scale and peak <= 1e-12 * scale
    record_criterion(
        6, ok,
        f"k_b/a=1e8 vs barrier-free: rel. difference {rel_hi:.1e} <= 1e-5; "
        f"k_b=0: net barrier flux {abs(net):.1e} <= 1e-12 x {scale:.2f}")
    assert ok


def test_criterion_7_conservation_on_all_benchmarks():
    worst_name, worst = "-", 0.0
    count = 0
    for name in scenario_names():
        if name == "ex55":  # geometry not shipped
            continue
        res = run_scenario(get_scenario(name))
        rel = res.report["balance"]["relative_imbalance"]
        count += 1
        if rel > worst:
            worst_name, worst = name, rel
    ok = worst <= 1e-8
    record_criterion(
        7, ok,
        f"flux balance on {count} benchmark runs: worst relative imbalance "
        f"{worst:.1e} ({worst_name}) <= 1e-8")
    assert ok


def test_criterion_8_qualitative_signatures():
    notes, ok = [], True

    # 5.2: one sharp jump where the slice crosses the barrier
    for name in ("ex52_vertical", "ex52_slanted"):
        res = run_scenario(get_scenario(name))
        sl = res.scenario.slices[0]
        sample = sample_slice(res.field, sl.start, sl.end, sl.n)
        jumps = detect_jumps(sample["s"], sample["values"])
        h_s = max_cell_diameter(res.mesh) / float(
            np.linalg.norm(np.subtract(sl.end, sl.start)))
        good = (res.mesh.n_cells <= 3000 and len(jumps) == 1
                and abs(jumps[0] - 0.5) <= h_s)
        ok = ok and good
        notes.append(f"{name}: {len(jumps)} jump at s={jumps[0]:.3f} "
                     f"(expect 0.500 +- {h_s:.3f}, {res.mesh.n_cells} cells)"
                     if jumps else f"{name}: no jump found")

    # 5.3: staircase with one step per barrier crossing of the slice
    res = run_scenario(get_scenario("ex53"))
    sl = res.scenario.slices[0]
    sample = sample_slice(res.field, sl.start, sl.end, sl.n)
    jumps = detect_jumps(sample["s"], sample["values"])
    with open(builtin_scenarios()["ex53"].path) as fh:
        rows = json.load(fh)["mesh"]["segments"]
    segs = [(s["from"], s["to"], s["tag"]) for s in rows]
    expected = segment_crossings(sl.start, sl.end, segs)
    h_s = max_cell_diameter(res.mesh) / float(
        np.linalg.norm(np.subtract(sl.end, sl.start)))
    good = (res.mesh.n_cells <= 3000 and len(jumps) == len(expected)
            and all(abs(j - e) <= h_s for j, e in zip(sorted(jumps), expected)))
    ok = ok and good
    notes.append(f"ex53: {len(jumps)}/{len(expected)} staircase steps within "
                 f"{h_s:.3f} of the crossings ({res.mesh.n_cells} cells)")

    # 5.4: the fracture-barrier crossing jumps or stays continuous with the
    # intersection policy
    spreads = {}
    for policy in ("barrier-cuts", "fracture-penetrates"):
        res = run_scenario(get_scenario("ex54a"), policy=policy)
        m = res.mesh
        fr = np.unique(m.facets[m.facet_kinds == int(FacetKind.FRACTURE)])
        br = np.unique(m.facets[m.facet_kinds == int(FacetKind.BARRIER)])
        crossing = np.intersect1d(fr, br)
        assert len(crossing) > 0 and m.n_cells <= 3000
        spreads[policy] = max(res.field.vertex_value_spread(int(v))
                              for v in crossing)
    good = spreads["barrier-cuts"] > 0.5 and spreads["fracture-penetrates"] == 0.0
    ok = ok and good
    notes.append(f"ex54a crossing spread {spreads['barrier-cuts']:.2f} under "
                 f"barrier-cuts vs {spreads['fracture-penetrates']:.1f} under "
                 "fracture-penetrates")

    record_criterion(8, ok, "; ".join(notes))
    assert ok


def test_criterion_9_validity_trend():
    t0 = time.perf_counter()
    box_lo = run_scenario(get_scenario("ex57a"))
    box_hi = run_scenario(get_scenario("ex57a_kt1e3"))
    eq_lo = run_scenario(ex57_equidim_scenario("a", k_tau=1e-3))
    eq_hi = run_scenario(ex57_equidim_scenario("a", k_tau=1e3))
    p0, p1 = (0.65, 0.00125), (0.65, 0.99875)

    def profile(res):
        return sample_slice(res.field, p0, p1, 400)["values"]

    dev_lo = float(np.abs(profile(box_lo) - profile(eq_lo)).max())
    dev_hi = float(np.abs(profile(box_hi) - profile(eq_hi)).max())
    ratio = dev_hi / dev_lo
    dt = time.perf_counter() - t0
    ok = ratio >= 10.0 and dt < 300.0
    record_criterion(
        9, ok,
        f"model-vs-oracle deviation {dev_lo:.2e} (k_t = k_n) -> {dev_hi:.2e} "
        f"(k_t = 1e3): ratio {ratio:.1f} >= 10 "
        f"(box {box_lo.mesh.n_cells} tris, oracle {eq_lo.mesh.n_cells} tris, "
        f"{dt:.0f}s < 300s)")
    assert ok
