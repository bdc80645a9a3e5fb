"""One process of the boxdfm benchmark: sets up one workload and runs it.

run.py starts this file with PYTHONPATH pointing at the checkout's src/ and
the BLAS/OpenMP thread caps set; it is not part of the boxdfm package. The
worker prints one JSON line with raw samples and gate failures, and run.py
turns those into metrics. Modes:

  setup    import boxdfm and build the scenario; a workload that queries a
           bundle also solves and writes it. Then exit.
  measure  set up, then time run_scenario calls and/or slice requests for
           --seconds (the untraced run).
  trace    set up, then call the public functions run_scenario calls, in its
           order, one span each; check the result bitwise against an
           untraced run_scenario and time the slice path layer by layer.

A slice request is what `boxdfm slice` does minus interpreter start:
load_solution of the bundle plus one sample_slice along a segment drawn from
the seed. Failed requests are counted, never skipped. A workload that queries
a bundle written in set-up screens its seeded segments before timing (see
`screened`), and every untraced run probes the solution on a fixed grid of
points, which counts the known locate defect (see perfbench/NOTES.md).
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import boxdfm
from boxdfm import (SolutionField, SparseSystem, assemble_operator,
                    assemble_rhs, build_dof_map, cg_solve, dual_geometry,
                    flux_balance, get_scenario, l2_error, load_solution,
                    run_scenario, sample_slice, uniform_refine,
                    write_facets_vtk, write_profile_csv, write_solution_vtk)
from boxdfm.assembly import apply_dirichlet, collect_dirichlet
from boxdfm.dofspace import write_vertex_report
from boxdfm.driver import scenario_warnings
from boxdfm.linalg import make_preconditioner
from boxdfm.scenario import validate_against_mesh

MIN_SOLVES = 3          # timed at least, whatever --seconds says, so that
MIN_REQUESTS = 10       # medians and p90 rest on more than one sample
SLICE_SHARE = 0.25      # a solve workload's slice requests after each solve
                        # take at least this share of the solve's time, so
                        # that cheap requests give many latency samples and
                        # dear ones (ex56, ~1.2 s each) do not swamp the run
TRACE_REQUESTS = 12     # traced slice requests
POINTS = 400            # sample points of one slice request
SCREEN = 40             # seeded segments a query workload screens
PROBE_PER_AXIS = {2: 100, 3: 22}  # probe grid, about 10,000 points


def segments(seed: int, dim: int):
    """Endless seeded stream of (p0, p1, side) slice requests.

    Endpoints are uniform in the unit square/cube, the domain of every
    workload; sides alternate plus/minus.
    """
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        p = rng.random((2, dim))
        yield p[0], p[1], ("plus" if i % 2 == 0 else "minus")
        i += 1


def screened(bundle: Path, seed: int, dim: int):
    """Requests of a workload that queries a bundle written in set-up: the
    first SCREEN seeded segments, each tried once before timing; those whose
    request succeeded are repeated endlessly. Returns (stream, number kept,
    errors of the others by error_key)."""
    field = load_solution(bundle)
    kept, errors = [], {}
    for p0, p1, side in itertools.islice(segments(seed, dim), SCREEN):
        try:
            sample_slice(field, p0, p1, POINTS, side=side)
        except Exception as e:  # the known defect, see NOTES.md
            errors[error_key(e)] = errors.get(error_key(e), 0) + 1
            continue
        kept.append((p0, p1, side))
    return itertools.cycle(kept), len(kept), errors


def probe_points(dim: int) -> np.ndarray:
    """Cell centres of a regular grid over the unit square/cube."""
    g = (np.arange(PROBE_PER_AXIS[dim]) + 0.5) / PROBE_PER_AXIS[dim]
    return np.stack(np.meshgrid(*[g] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def probe(bundle: Path) -> dict:
    """Evaluate the bundle's solution at every probe point, one at a time;
    the number of points and the errors of those that failed."""
    field = load_solution(bundle)
    pts = probe_points(field.mesh.dim)
    errors = {}
    for p in pts:
        try:
            field.evaluate(p[None])
        except Exception as e:  # the known defect, see NOTES.md
            errors[error_key(e)] = errors.get(error_key(e), 0) + 1
    return {"points": len(pts), "errors": errors}


def slice_request(bundle: Path, p0, p1, n: int, side: str):
    field = load_solution(bundle)
    return sample_slice(field, p0, p1, n, side=side)


def solve(scenario, wl: dict, out_dir: Path):
    return run_scenario(scenario, refine=wl["refine"],
                        preconditioner=wl["preconditioner"], out_dir=out_dir)


def check_report(report: dict, wl: dict, spec: dict) -> list[str]:
    """Correctness gates on one run_scenario report (CG convergence is
    gated by run_scenario itself, which raises SolverError otherwise)."""
    bad = []
    rel = report["balance"]["relative_imbalance"]
    if not rel <= spec["imbalance_limit"]:
        bad.append(f"relative imbalance {rel:.3e} above {spec['imbalance_limit']:g}")
    if report["n_dofs"] != wl["n_dofs"]:
        bad.append(f"n_dofs {report['n_dofs']} != recorded {wl['n_dofs']}")
    its = report["solver"]["iterations"]
    if its != wl["iterations"]:
        bad.append(f"CG iterations {its} != recorded {wl['iterations']}")
    if "l2_error" in wl:
        got = report.get("l2_error")
        ref = wl["l2_error"]
        if got is None or not abs(got - ref) <= spec["l2_rtol"] * ref:
            bad.append(f"l2_error {got!r} differs from recorded {ref!r} by more "
                       f"than {spec['l2_rtol']:g} relative")
    return bad


class SliceChecker:
    """Oracle for slice samples: each value is finite and lies within the
    dof-value range of a cell that contains its sample point."""

    def __init__(self, field: SolutionField):
        mesh = field.mesh
        verts = mesh.vertices[mesh.cells]
        cent = verts.mean(axis=1)
        self._tree = cKDTree(cent)
        self._radius = float(np.linalg.norm(verts - cent[:, None], axis=2).max())
        self._v0 = verts[:, 0]
        self._Tinv = np.linalg.inv(np.transpose(verts[:, 1:] - verts[:, :1], (0, 2, 1)))
        vals = field.values[field.cell_dofs]
        self._lo = vals.min(axis=1)
        self._hi = vals.max(axis=1)
        self._slack = 1e-9 * max(1.0, float(np.abs(field.values).max()))

    def n_bad(self, points: np.ndarray, values: np.ndarray) -> int:
        cand = self._tree.query_ball_point(points, r=self._radius * (1 + 1e-9))
        pi = np.repeat(np.arange(len(points)), [len(c) for c in cand])
        ci = np.concatenate([np.asarray(c, dtype=np.int64) for c in cand])
        lam = np.einsum("kij,kj->ki", self._Tinv[ci], points[pi] - self._v0[ci])
        inside = np.minimum(1.0 - lam.sum(axis=1), lam.min(axis=1)) >= -1e-6
        v = values[pi]
        ok = inside & (v >= self._lo[ci] - self._slack) & (v <= self._hi[ci] + self._slack)
        good = np.zeros(len(points), dtype=bool)
        good[pi[ok]] = True
        return int(np.count_nonzero(~(good & np.isfinite(values))))


def check_samples(bundle: Path, samples: list) -> list[str]:
    if not samples:
        return []
    checker = SliceChecker(load_solution(bundle))
    bad = sum(checker.n_bad(s["points"], s["values"]) for s in samples)
    if bad:
        total = sum(len(s["values"]) for s in samples)
        return [f"{bad} of {total} slice samples are non-finite or outside "
                "their cell's dof-value range"]
    return []


class Tracer:
    """In-memory spans: name, request id, start, end and parent span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, req: int = 0):
        rec = {"name": name, "req": req,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter()}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def root_sum(self, req: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["req"] == req)


def traced_run(tr: Tracer, scenario, wl: dict, out: Path, report: dict):
    """run_scenario and write_bundle, unrolled into their public calls.

    The mesh factory of every workload scenario is uniform_refine over a
    generated base mesh, so the base mesh and the refinement are timed as
    separate spans; the bitwise comparison with the untraced run proves the
    split changes nothing. `report` is the untraced run's report, written
    as report.json; compare_runs checks the traced values against it.
    """
    s = scenario.solver
    pc = wl["preconditioner"] or s.preconditioner
    with tr.span("generators.base_mesh"):
        base = scenario.mesh_factory(scenario.default_refine)
    with tr.span("refine.uniform_refine"):
        mesh = uniform_refine(base, wl["refine"])
    with tr.span("scenario.validate_against_mesh"):
        validate_against_mesh(scenario, mesh)
    with tr.span("dofspace.build_dof_map"):
        dofmap = build_dof_map(mesh, scenario.policy)
    with tr.span("dual.dual_geometry"):
        dual = dual_geometry(mesh)
    with tr.span("assembly.operator"):
        A0 = assemble_operator(mesh, dofmap, scenario.materials, dual)
    with tr.span("assembly.rhs"):
        b0 = assemble_rhs(mesh, dofmap, dual, source=scenario.source,
                          neumann=scenario.neumann)
    with tr.span("assembly.dirichlet"):
        dofs, values = collect_dirichlet(mesh, dofmap, scenario.dirichlet or {})
        A, b = apply_dirichlet(A0, b0, dofs, values)
    system = SparseSystem(A=A, b=b, A0=A0, b0=b0, dirichlet_dofs=dofs,
                          dirichlet_values=values)
    with tr.span("driver.scenario_warnings"):
        warn = scenario_warnings(mesh, dofmap, scenario.materials, dofs)
    with tr.span("linalg.cg"):
        x, rep = cg_solve(A, b, tol=s.tol, max_iter=s.max_iter, preconditioner=pc)
    field = SolutionField(mesh, dofmap.cell_dofs, dofmap.dof_vertex, x)
    with tr.span("assembly.flux_balance"):
        balance = flux_balance(system, x)
    l2 = None
    if scenario.exact is not None:
        with tr.span("solution.l2_error"):
            l2 = l2_error(field, scenario.exact)
    traced = {"n_vertices": mesh.n_vertices, "n_cells": mesh.n_cells,
              "n_dofs": dofmap.n_dofs, "iterations": rep.iterations,
              "converged": rep.converged, "balance": balance, "warnings": warn,
              "l2_error": l2}
    with tr.span("driver.write_bundle"):
        out.mkdir(parents=True, exist_ok=True)
        with tr.span("vtkout.solution_vtk"):
            write_solution_vtk(out / "solution.vtk", field)
        with tr.span("vtkout.facets_vtk"):
            write_facets_vtk(out / "facets.vtk", mesh)
        with tr.span("dofspace.vertex_report"):
            write_vertex_report(mesh, dofmap, out / "vertices.csv")
        with tr.span("solution.bundle_slices"):
            for sl in scenario.slices:
                sample = sample_slice(field, sl.start, sl.end, sl.n, side=sl.side)
                write_profile_csv(out / f"profile_{sl.name}.csv", sample)
        np.savez(
            out / "solution.npz",
            vertices=mesh.vertices, cells=mesh.cells, facets=mesh.facets,
            facet_tags=mesh.facet_tags, facet_kinds=mesh.facet_kinds,
            cell_region=mesh.cell_region, cell_dofs=field.cell_dofs,
            dof_vertex=field.dof_vertex, values=field.values,
            policy=np.array(scenario.policy),
        )
        with open(out / "report.json", "w", newline="\n") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return system, field, pc, traced


def compare_runs(res, traced: dict, field: SolutionField) -> list[str]:
    """Differences between the untraced RunResult and the traced pipeline."""
    rep = res.report
    want = {"n_vertices": rep["n_vertices"], "n_cells": rep["n_cells"],
            "n_dofs": rep["n_dofs"], "iterations": rep["solver"]["iterations"],
            "converged": True, "balance": rep["balance"],
            "warnings": rep["warnings"], "l2_error": rep.get("l2_error")}
    bad = [f"traced {k} {traced[k]!r} != untraced {v!r}"
           for k, v in want.items() if traced[k] != v]
    x = field.values
    if x.dtype != res.field.values.dtype or x.tobytes() != res.field.values.tobytes():
        bad.append("traced solution differs bitwise from the untraced one")
    return bad


def compare_bundles(untraced: Path, traced: Path) -> list[str]:
    """The traced bundle must hold the same files as the untraced one, with
    equal contents (arrays for the npz, whose zip headers carry timestamps;
    report.json is the untraced report itself)."""
    names_u = {f.name for f in untraced.iterdir()}
    names_t = {f.name for f in traced.iterdir()}
    bad = [f"traced bundle lacks {n}" for n in sorted(names_u - names_t)]
    bad += [f"untraced bundle lacks {n}" for n in sorted(names_t - names_u)]
    for name in sorted(names_t & names_u - {"report.json"}):
        f, g = traced / name, untraced / name
        if f.suffix == ".npz":
            with np.load(f) as a, np.load(g) as b:
                for k in a.files:
                    if k not in b.files or not np.array_equal(a[k], b[k]):
                        bad.append(f"solution.npz array {k!r} differs")
        elif f.read_bytes() != g.read_bytes():
            bad.append(f"{f.name} differs between traced and untraced bundles")
    return bad


def error_key(e: Exception) -> str:
    return f"{type(e).__name__}: {str(e)[:80]}"


def check_failures(errors: dict) -> list[str]:
    """Gate on failed operations: a run has none."""
    return [f"{count} operation(s) failed with {key}"
            for key, count in sorted(errors.items())]


def check_defect(errors: dict, spec: dict, what: str, recorded: int | None = None):
    """Gate on the screened segments and probe points that failed: only by
    the known defect, and, where a count is recorded, on no more of them."""
    known = spec["known_defect"]
    bad = [f"{count} {what} failed with {key}"
           for key, count in sorted(errors.items()) if not key.startswith(known)]
    hits = sum(c for k, c in errors.items() if k.startswith(known))
    if recorded is not None and hits > recorded:
        bad.append(f"{hits} {what} failed with the known defect, more than the "
                   f"recorded {recorded}")
    return bad


class Requests:
    """Closed loop, one client: the next slice request starts when the
    previous one has ended. Failed requests are counted, never retried."""

    def __init__(self, stream):
        self._stream = stream
        self.attempted = self.failed = self.ok_points = 0
        self.total_s = 0.0
        self.latencies, self.samples, self.errors = [], [], {}

    def run(self, bundle: Path, seconds: float, at_least: int) -> None:
        """Send requests for `seconds`, and at least `at_least` of them."""
        t_start, n = time.perf_counter(), 0
        while n < at_least or time.perf_counter() - t_start < seconds:
            n += 1
            p0, p1, side = next(self._stream)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                sample = slice_request(bundle, p0, p1, POINTS, side)
            except Exception as e:  # counted, and fails the run's gates
                self.total_s += time.perf_counter() - t0
                self.failed += 1
                key = error_key(e)
                self.errors[key] = self.errors.get(key, 0) + 1
                continue
            dt = time.perf_counter() - t0
            self.total_s += dt
            self.latencies.append(dt)
            self.ok_points += len(sample["values"])
            self.samples.append(sample)


def measure(scenario, wl: dict, spec: dict, args, work: Path) -> dict:
    """Untraced run: solves, each followed by slice requests on its bundle,
    or (for a workload that solved during set-up) slice requests alone,
    until --seconds have passed."""
    bundle = work / "bundle"
    t_start = time.perf_counter()
    run_s, gates = [], []
    out = {}
    if wl["solve_in_setup"]:
        stream, kept, errors = screened(bundle, args.seed, scenario.dim)
        out["screen"] = {"tried": SCREEN, "kept": kept, "errors": errors}
        gates += check_defect(errors, spec, "screened segment(s)")
        reqs = Requests(stream)
        if kept:  # else run.py reports that no slice request succeeded
            reqs.run(bundle, args.seconds, MIN_REQUESTS)
    else:
        reqs = Requests(segments(args.seed, scenario.dim))
        # interleaved, so that solves and requests both sample the whole run
        while len(run_s) < MIN_SOLVES or time.perf_counter() - t_start < args.seconds:
            t0 = time.perf_counter()
            res = solve(scenario, wl, bundle)
            run_s.append(time.perf_counter() - t0)
            gates += check_report(res.report, wl, spec)
            del res
            reqs.run(bundle, SLICE_SHARE * run_s[-1], 1)
    gates += check_samples(bundle, reqs.samples) + check_failures(reqs.errors)
    out["probe"] = probe(bundle)
    gates += check_defect(out["probe"]["errors"], spec, "probe point(s)",
                          wl["defect_points"])
    return {**out, "run_s": run_s, "slice_s": reqs.latencies,
            "slice_points": reqs.ok_points, "slice_total_s": reqs.total_s,
            "attempted": len(run_s) + reqs.attempted, "failed": reqs.failed,
            "errors": reqs.errors, "gates": gates}


def trace(scenario, wl: dict, spec: dict, args, work: Path, setup_run) -> dict:
    """Traced run: per-layer times, checked against an untraced run."""
    bundle_u, bundle_t = work / "bundle", work / "bundle-traced"
    # the first run_scenario in a process runs cold; the reference is the
    # warm call after the traced one
    cold = setup_run[0] if setup_run else solve(scenario, wl, bundle_u)
    report = cold.report
    del cold, setup_run
    tr = Tracer()
    system, field, pc, traced = traced_run(tr, scenario, wl, bundle_t, report)
    t0 = time.perf_counter()
    res = solve(scenario, wl, bundle_u)
    untraced_s = time.perf_counter() - t0
    gates = check_report(res.report, wl, spec)
    gates += compare_runs(res, traced, field) + compare_bundles(bundle_u, bundle_t)
    del res

    def once(name):
        return tr.durations(name)[0]

    t0 = time.perf_counter()
    make_preconditioner(system.A, pc)
    precond_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    get_scenario(wl["scenario"])
    get_scenario_s = time.perf_counter() - t0
    if scenario.exact is not None:
        l2_s = once("solution.l2_error")
    else:
        # run_scenario skips l2_error without an exact solution; time the
        # layer on this mesh against p = 0, outside the span sum
        t0 = time.perf_counter()
        l2_error(field, lambda pts, regs: np.zeros(len(pts)))
        l2_s = time.perf_counter() - t0
    metrics = {
        "linalg.precond_setup_s": precond_s,
        "linalg.cg_s": once("linalg.cg"),
        "linalg.cg_iterations": traced["iterations"],
        "linalg.iter_ms": 1e3 * (once("linalg.cg") - precond_s) / max(1, traced["iterations"]),
        "benchmarks.get_scenario_s": get_scenario_s,
        "generators.base_mesh_s": once("generators.base_mesh"),
        "refine.uniform_refine_s": once("refine.uniform_refine"),
        "mesh.n_cells": traced["n_cells"],
        "dofspace.build_dof_map_s": once("dofspace.build_dof_map"),
        "dofspace.n_dofs": traced["n_dofs"],
        "dual.dual_geometry_s": once("dual.dual_geometry"),
        "assembly.operator_s": once("assembly.operator"),
        "assembly.rhs_s": once("assembly.rhs"),
        "assembly.dirichlet_s": once("assembly.dirichlet"),
        "assembly.nnz": int(system.A0.nnz),
        "driver.scenario_warnings_s": once("driver.scenario_warnings"),
        "assembly.flux_balance_s": once("assembly.flux_balance"),
        "solution.l2_error_s": l2_s,
        "vtkout.solution_vtk_s": once("vtkout.solution_vtk"),
        "vtkout.facets_vtk_s": once("vtkout.facets_vtk"),
        "dofspace.vertex_report_s": once("dofspace.vertex_report"),
        "solution.bundle_slices_s": once("solution.bundle_slices"),
        "driver.write_bundle_s": once("driver.write_bundle"),
        "driver.bundle_bytes": sum(f.stat().st_size for f in bundle_t.iterdir()),
        "bench.trace_overhead_s": tr.root_sum(0) - untraced_s,
    }
    del system, field

    attempted, failed, errors = 1, 0, {}
    load_s, slice_s, eval_s, samples = [], [], [], []
    if wl["solve_in_setup"]:
        reqs, _, screen_errors = screened(bundle_t, args.seed, scenario.dim)
        gates += check_defect(screen_errors, spec, "screened segment(s)")
    else:
        reqs = segments(args.seed, scenario.dim)
    for req in range(1, TRACE_REQUESTS + 1):
        p0, p1, side = next(reqs)
        attempted += 1
        try:
            with tr.span("driver.load_solution", req):
                field = load_solution(bundle_t)
            with tr.span("solution.sample_slice", req):
                sample = sample_slice(field, p0, p1, POINTS, side=side)
        except Exception as e:  # counted, and fails the run's gates
            failed += 1
            errors[error_key(e)] = errors.get(error_key(e), 0) + 1
            continue
        load_s.append(tr.durations("driver.load_solution")[-1])
        slice_s.append(tr.durations("solution.sample_slice")[-1])
        samples.append(sample)
        # evaluate alone, without the side rule, outside the span sum
        attempted += 1
        t0 = time.perf_counter()
        try:
            field.evaluate(sample["points"])
        except Exception as e:  # as above
            failed += 1
            errors[error_key(e)] = errors.get(error_key(e), 0) + 1
            continue
        eval_s.append(time.perf_counter() - t0)
    gates += check_samples(bundle_t, samples) + check_failures(errors)
    if not (load_s and eval_s):
        gates.append("no traced slice request succeeded")
    else:
        metrics.update({
            "driver.load_solution_s": statistics.median(load_s),
            "solution.sample_slice_ms": 1e3 * statistics.median(slice_s),
            "solution.evaluate_ms": 1e3 * statistics.median(eval_s),
        })
    spans = [{**s, "start": s["start"] - tr.spans[0]["start"],
              "end": s["end"] - tr.spans[0]["start"]} for s in tr.spans]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": errors, "gates": gates, "spans": spans, "untraced_s": untraced_s,
            "span_sum_s": tr.root_sum(0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spec", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    wl = spec["workloads"][args.workload]
    scenario = get_scenario(wl["scenario"])
    setup_run = None
    if wl["solve_in_setup"]:
        t0 = time.perf_counter()
        setup_run = (solve(scenario, wl, args.work / "bundle"),
                     time.perf_counter() - t0)
    out = {"ready_at": time.monotonic(), "gates": [],
           "versions": {"python": sys.version.split()[0],
                        "numpy": np.__version__,
                        "scipy": scipy.__version__,
                        "boxdfm": boxdfm.__version__,
                        "boxdfm_path": str(Path(boxdfm.__file__).parent)}}
    if setup_run is not None:
        out["setup_run_s"] = setup_run[1]
        out["gates"] += check_report(setup_run[0].report, wl, spec)
    if args.mode == "measure":
        del setup_run  # the requests read the bundle, not this result
        res = measure(scenario, wl, spec, args, args.work)
    elif args.mode == "trace":
        res = trace(scenario, wl, spec, args, args.work, setup_run)
    if args.mode != "setup":
        out["gates"] += res.pop("gates")
        out.update(res)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
