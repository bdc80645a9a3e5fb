"""Scenario execution: mesh, assemble, solve, write artifacts.

run_scenario does one solve, timing each of its stages (_stage), and
optionally writes the output bundle (solution.vtk, facets.vtk,
vertices.csv, profile CSVs, solution.npz, report.json). run_convergence
repeats it over refinement levels and tabulates L2 errors and observed
orders. load_solution rebuilds a SolutionField from a bundle for later
slicing. Every load goes through restore_mesh: solution.npz stores the
mesh topology next to the mesh and the field, so a load only checks it,
and a bundle without it derives the topology as build_mesh does.
"""

from __future__ import annotations

import json
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # Windows
    resource = None

from ._rows import write_rows
from .assembly import (SparseSystem, _assemble_system, _pin_warning, floating_compartments,
                       flux_balance)
from .dofspace import DofMap, _policy_key, build_dof_map, write_vertex_report
from .errors import SolverError, ValidationError, as_int
from .linalg import cg_solve
from .materials import MaterialModel
from .mesh import TOPOLOGY, Mesh, _int_array, restore_mesh
from .scenario import Scenario, SolverSettings, validate_against_mesh
from .solution import (SolutionField, l2_error, sample_slice,
                       write_profile_csv)
from .vtkout import write_facets_vtk, write_solution_vtk

__all__ = ["RunResult", "run_scenario", "run_convergence", "load_solution",
           "scenario_warnings"]

# the arrays of solution.npz besides its policy and the mesh's TOPOLOGY
_MESH_ARRAYS = ("vertices", "cells", "facets", "facet_tags", "facet_kinds", "cell_region")
_FIELD_ARRAYS = ("cell_dofs", "dof_vertex", "values")


@dataclass
class RunResult:
    scenario: Scenario
    mesh: Mesh
    dofmap: DofMap
    system: SparseSystem
    field: SolutionField
    report: dict


def scenario_warnings(mesh: Mesh, dofmap: DofMap, materials: MaterialModel,
                      dirichlet_dofs: np.ndarray) -> list[str]:
    """The warnings run_scenario reports for these Dirichlet dofs: barriers
    whose tangential permeability exceeds the matrix permeability, then the
    compartments the dofs leave without Dirichlet data, which get pinned."""
    where = floating_compartments(mesh, dofmap, materials, dirichlet_dofs)[2]
    return _barrier_warnings(materials) + [_pin_warning(w) for w in where]


def _barrier_warnings(materials: MaterialModel) -> list[str]:
    kmax = materials.matrix_norm()
    return [f"barrier tag {tag}: tangential permeability {law.k_tangential:g} exceeds "
            f"the matrix permeability {kmax:g}; the model neglects in-plane barrier "
            "flow, expect visible model error"
            for tag, law in sorted(materials.barriers.items())
            if law.k_tangential is not None and law.k_tangential > kmax]


def run_scenario(scenario: Scenario, refine: int = 0, policy: str | None = None,
                 out_dir=None, tol: float | None = None,
                 preconditioner: str | None = None,
                 max_iter: int | None = None) -> RunResult:
    """Solve one scenario at the given extra refinement level.

    CLI-style overrides (policy, tol, preconditioner, max_iter) fall back
    to the scenario's own settings when None. A refinement level below 0,
    an unknown policy or bad solver settings raise ValidationError before
    the mesh is built, and a compartment without Dirichlet data that has
    a net supply raises it before the solve (assemble_system); SolverError
    if the iteration does not reach the requested tolerance.

    report["timings"] maps each stage to its seconds, in run order: mesh,
    dof_map, assembly, cg, balance, then write_bundle's files. runtime_s is
    the wall time from entry to the end, or to just before report.json.
    """
    t0 = time.perf_counter()
    refine = as_int(refine, "refine must be an integer")
    level = scenario.default_refine + refine
    if level < 0:
        raise ValidationError(
            f"refinement level {level} is below 0 (scenario level "
            f"{scenario.default_refine}, refine {refine})"
        )
    base = scenario.solver
    s = SolverSettings(tol=base.tol if tol is None else tol,
                       max_iter=base.max_iter if max_iter is None else max_iter,
                       preconditioner=base.preconditioner if preconditioner is None
                       else preconditioner)
    pol = policy if policy is not None else scenario.policy
    _policy_key(pol)
    timings = {}
    with _stage(timings, "mesh"):
        mesh = scenario.mesh_factory(level)
        validate_against_mesh(scenario, mesh)
    with _stage(timings, "dof_map"):
        dofmap = build_dof_map(mesh, pol)
    with _stage(timings, "assembly"):
        # the warnings of scenario_warnings, without building the compartment graph twice
        system, pinned = _assemble_system(mesh, dofmap, scenario.materials, scenario.source,
                                          scenario.neumann, scenario.dirichlet)
    with _stage(timings, "cg"):
        x, solver_report = cg_solve(system.A, system.b, tol=s.tol, max_iter=s.max_iter,
                                    preconditioner=s.preconditioner)
    if not solver_report.converged:
        raise SolverError(
            f"conjugate gradients stopped at relative residual "
            f"{solver_report.relative_residual:.3e} after "
            f"{solver_report.iterations} iterations (tol {s.tol:g})"
        )
    field = SolutionField(mesh, dofmap.cell_dofs, dofmap.dof_vertex, x)
    with _stage(timings, "balance"):
        balance = flux_balance(system, x)
        l2 = None if scenario.exact is None else l2_error(field, scenario.exact)
    report = {
        "scenario": scenario.name,
        "description": scenario.description,
        "dim": scenario.dim,
        "policy": pol,
        "refine": level,
        "n_vertices": mesh.n_vertices,
        "n_cells": mesh.n_cells,
        "n_dofs": dofmap.n_dofs,
        "vertex_classes": dofmap.class_counts(),
        "solver": {
            "preconditioner": solver_report.preconditioner,
            "tol": s.tol,
            "iterations": solver_report.iterations,
            "relative_residual": solver_report.relative_residual,
            "shift": solver_report.shift,
            "setup_s": solver_report.setup_s,
            "iterate_s": solver_report.iterate_s,
        },
        "balance": balance,
        "warnings": _barrier_warnings(scenario.materials) + pinned,
    }
    if l2 is not None:
        report["l2_error"] = l2
    report["timings"] = timings
    _note_peak_rss(report)
    report["runtime_s"] = time.perf_counter() - t0
    if out_dir is not None:
        write_bundle(Path(out_dir), scenario, mesh, dofmap, field, report, pol)
    return RunResult(scenario=scenario, mesh=mesh, dofmap=dofmap,
                     system=system, field=field, report=report)


@contextmanager
def _stage(timings: dict, name: str):
    """Time the block into timings[name], in perf_counter seconds."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def write_bundle(out: Path, scenario: Scenario, mesh: Mesh, dofmap: DofMap,
                 field: SolutionField, report: dict, policy: str) -> None:
    """Write the output bundle of one solve into out, file by file.

    solution.npz holds the mesh, its TOPOLOGY, the field and the policy;
    each integer array is stored as int32 when every value fits, which
    halves the bytes a load reads, and as int64 otherwise. Each file but
    report.json is timed into report["timings"] under its name (_stage).
    report.json is written last: report["runtime_s"] first grows by the
    time spent here, and peak_rss_mb is read again.
    """
    t0 = time.perf_counter()
    timings = report["timings"]
    out.mkdir(parents=True, exist_ok=True)
    with _stage(timings, "solution.vtk"):
        write_solution_vtk(out / "solution.vtk", field)
    with _stage(timings, "facets.vtk"):
        write_facets_vtk(out / "facets.vtk", mesh)
    with _stage(timings, "vertices.csv"):
        write_vertex_report(mesh, dofmap, out / "vertices.csv")
    for sl in scenario.slices:
        name = f"profile_{sl.name}.csv"
        with _stage(timings, name):
            write_profile_csv(out / name,
                              sample_slice(field, sl.start, sl.end, sl.n, side=sl.side))
    with _stage(timings, "solution.npz"):
        arrays = {**{k: getattr(mesh, k) for k in _MESH_ARRAYS},
                  **{k: getattr(field, k) for k in _FIELD_ARRAYS}, "policy": np.array(policy),
                  **{k: getattr(mesh, k) for k in TOPOLOGY}}
        # the zip np.savez writes, one entry at a time, so one narrowed copy lives at once
        with zipfile.ZipFile(out / "solution.npz", "w", zipfile.ZIP_STORED) as zf:
            for k, a in arrays.items():
                with zf.open(k + ".npy", "w", force_zip64=True) as f:
                    np.lib.format.write_array(f, _narrowed(a), allow_pickle=False)
    report["runtime_s"] += time.perf_counter() - t0
    _note_peak_rss(report)
    with open(out / "report.json", "w", newline="\n") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


def _note_peak_rss(report: dict) -> None:
    """Set report["peak_rss_mb"] where the peak is known (_peak_rss_mb)."""
    peak = _peak_rss_mb()
    if peak is not None:
        report["peak_rss_mb"] = peak


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far in MiB, from ru_maxrss
    (KiB on Linux, bytes on macOS); None without the resource module
    (Windows)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _narrowed(a: np.ndarray) -> np.ndarray:
    """An integer array as int32 when every value fits; any other as it is."""
    i32 = np.iinfo(np.int32)
    fits = a.dtype.kind in "iu" and (a.size == 0 or (a.min() >= i32.min and a.max() <= i32.max))
    return a.astype(np.int32) if fits else a


def load_solution(run_dir) -> SolutionField:
    """Rebuild the solved field from a run directory's solution.npz.

    The mesh comes from the stored arrays through restore_mesh, which
    checks the stored topology instead of deriving it again; for a bundle
    that stores none (the nine arrays of earlier versions) it derives the
    topology as build_mesh does, more slowly. The cells must be stored
    positively oriented. cell_dofs must index the values and dof_vertex
    the vertices. Integer arrays may be stored in any integer dtype (int32
    where they fit, int64 in earlier versions) and come back as int64. A
    broken bundle raises ValidationError naming solution.npz.
    """
    path = Path(run_dir) / "solution.npz"
    if not path.exists():
        raise ValidationError(f"no solution.npz under {run_dir}")
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with z:
            stored = any(k in z.files for k in TOPOLOGY)
            keys = _MESH_ARRAYS + _FIELD_ARRAYS + (TOPOLOGY if stored else ())
            missing = [k for k in keys if k not in z.files]
            if missing:
                raise ValidationError(f"{path} lacks the array(s) {', '.join(missing)}")
            a = {k: z[k] for k in keys}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        raise ValidationError(f"{path} is not a readable solution bundle") from None
    for k in ("vertices", "values"):
        if not np.issubdtype(a[k].dtype, np.floating):
            raise ValidationError(f"{path}: {k} must hold floats, got dtype {a[k].dtype}")
    values = a["values"]
    if values.ndim != 1 or values.shape != a["dof_vertex"].shape:
        raise ValidationError(f"{path}: values has shape {values.shape}, "
                              f"dof_vertex {a['dof_vertex'].shape}")
    try:
        mesh = restore_mesh(**{k: a[k] for k in _MESH_ARRAYS + TOPOLOGY if k in a})
        cell_dofs = _int_array("cell_dofs", a["cell_dofs"], mesh.cells.shape, 0, len(values))
        dof_vertex = _int_array("dof_vertex", a["dof_vertex"], values.shape, 0, mesh.n_vertices)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None
    return SolutionField(mesh, cell_dofs, dof_vertex, values)


def run_convergence(scenario: Scenario, levels: int, policy: str | None = None,
                    out_dir=None, tol: float | None = None,
                    preconditioner: str | None = None,
                    max_iter: int | None = None) -> dict:
    """Refinement study against the scenario's exact solution.

    Solves levels+1 times, reports L2 errors and the observed order
    between consecutive levels, and checks the orders (where the errors
    are above rounding) against the scenario's order window.
    """
    if scenario.exact is None:
        raise ValidationError(
            f"scenario {scenario.name!r} has no exact solution; "
            "a convergence study needs one"
        )
    levels = as_int(levels, "a convergence study needs levels", 1)
    ndofs, errors = [], []
    for level in range(levels + 1):
        res = run_scenario(scenario, refine=level, policy=policy, tol=tol,
                           preconditioner=preconditioner, max_iter=max_iter)
        ndofs.append(res.report["n_dofs"])
        errors.append(res.report["l2_error"])
    orders = [None]
    for i in range(1, len(errors)):
        # below ~1e-12 the error is solver/rounding noise, not discretization
        if errors[i] > 1e-12 and errors[i - 1] > 1e-12:
            orders.append(float(np.log2(errors[i - 1] / errors[i])))
        else:
            orders.append(None)
    table = [{"level": level, "ndof": ndofs[level], "l2_error": errors[level],
              "order": orders[level]} for level in range(levels + 1)]
    lo, hi = scenario.order_window
    measured = [o for o in orders if o is not None]
    result = {
        "scenario": scenario.name,
        "levels": levels,
        "rows": table,
        "orders_in_window": bool(measured) and all(lo <= o <= hi for o in measured),
        "order_window": [lo, hi],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "convergence.csv", "w", newline="") as f:
            f.write("level,ndof,l2_error,order\r\n")
            write_rows(f, "%d,%d,%r,%s\r\n", np.arange(levels + 1), ndofs, errors,
                       ["" if o is None else repr(o) for o in orders])
        with open(out / "convergence.json", "w", newline="\n") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
    return result
