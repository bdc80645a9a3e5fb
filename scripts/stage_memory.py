"""Memory of each stage of one run_scenario with its bundle, stage by stage.

    python3 scripts/stage_memory.py <builtin> <refine> [--precond NAME]

Imports boxdfm from this checkout's src/ and runs the builtin scenario at
its default level plus <refine>, with its own preconditioner or NAME, under
tracemalloc, calling the stages in run_scenario's order: mesh (mesh factory
and scenario check), dof map, assembly (operator, right-hand side,
compartment rule, Dirichlet elimination), CG, balance/L2, then each file of
the bundle, written into a temporary directory. For each stage it prints,
in MiB:

  live   traced allocations held when the stage starts
  peak   the peak of traced allocations while it runs
  rss    the process's ru_maxrss after it (never falls)

The traced numbers count numpy's array buffers and Python's objects. The
rss column also counts the interpreter and its libraries, freed memory the
allocator kept, and tracemalloc's own records, so it reads a few MiB above
an untraced run.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxdfm.assembly import _assemble_system, flux_balance  # noqa: E402
from boxdfm.benchmarks import get_scenario  # noqa: E402
from boxdfm.dofspace import build_dof_map  # noqa: E402
from boxdfm.driver import _bundle_files, _peak_rss_mb  # noqa: E402
from boxdfm.linalg import cg_solve  # noqa: E402
from boxdfm.scenario import validate_against_mesh  # noqa: E402
from boxdfm.solution import SolutionField, l2_error  # noqa: E402

MIB = 2.0 ** 20


class Stages:
    """Prints one row per stage: live, peak and rss in MiB."""

    def __init__(self):
        print(f"{'stage':<24}{'live':>9}{'peak':>9}{'rss':>9}")
        print(f"{'import':<24}{'':>9}{'':>9}{_peak_rss_mb():>9.1f}", flush=True)

    def run(self, name: str, fn, *args, **kwargs):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
        print(f"{name:<24}{live / MIB:>9.1f}{peak / MIB:>9.1f}{_peak_rss_mb():>9.1f}", flush=True)
        return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("builtin")
    ap.add_argument("refine", type=int)
    ap.add_argument("--precond", default=None, help="preconditioner override")
    args = ap.parse_args(argv)
    sc = get_scenario(args.builtin)
    level = sc.default_refine + args.refine
    pc = args.precond or sc.solver.preconditioner
    print(f"{sc.name} at level {level}, preconditioner {pc}")
    tracemalloc.start()
    st = Stages()

    def mesh_stage():
        mesh = sc.mesh_factory(level)
        validate_against_mesh(sc, mesh)
        return mesh

    mesh = st.run("mesh", mesh_stage)
    dofmap = st.run("dof map", build_dof_map, mesh, sc.policy)
    system, pinned = st.run("assembly", _assemble_system, mesh, dofmap, sc.materials,
                            sc.source, sc.neumann, sc.dirichlet)
    x, rep = st.run("CG", cg_solve, system.A, system.b, tol=sc.solver.tol,
                    max_iter=sc.solver.max_iter, preconditioner=pc)
    field = SolutionField(mesh, dofmap.cell_dofs, dofmap.dof_vertex, x)

    def balance_stage():
        report = {"scenario": sc.name, "refine": level, "n_cells": mesh.n_cells,
                  "n_dofs": dofmap.n_dofs, "iterations": rep.iterations,
                  "balance": flux_balance(system, x), "warnings": pinned}
        if sc.exact is not None:
            report["l2_error"] = l2_error(field, sc.exact)
        return report

    report = st.run("balance/L2", balance_stage)
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in _bundle_files(Path(tmp), sc, mesh, dofmap, field, report,
                                         sc.policy):
            st.run(name, write)
    print(f"{mesh.n_cells:,} cells, {dofmap.n_dofs:,} dofs, {rep.iterations} CG iterations")
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
