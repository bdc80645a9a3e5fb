"""Time and memory of each stage of one run_scenario with its bundle.

    python3 scripts/stage_memory.py <builtin> <refine> [--precond NAME]

Imports boxdfm from this checkout's src/ and runs the builtin scenario at
its default level plus <refine>, with its own preconditioner or NAME, under
tracemalloc: one run_scenario call, which writes its bundle into a
temporary directory. Each stage that run_scenario times (driver._stage,
the keys of report["timings"]: mesh, dof_map, assembly, cg, balance, then
each file of the bundle but report.json) prints one row:

  s      its seconds, slowed by the tracing
  live   traced allocations held when the stage starts, in MiB
  peak   the peak of traced allocations while it runs, in MiB
  rss    the process's ru_maxrss after it, in MiB (never falls)

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
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxdfm import driver  # noqa: E402
from boxdfm.benchmarks import get_scenario  # noqa: E402

MIB = 2.0 ** 20
ROW = "{:<24}{:>9}{:>9}{:>9}{:>9}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("builtin")
    ap.add_argument("refine", type=int)
    ap.add_argument("--precond", default=None, help="preconditioner override")
    args = ap.parse_args(argv)
    sc = get_scenario(args.builtin)
    print(f"{sc.name} at level {sc.default_refine + args.refine}, "
          f"preconditioner {args.precond or sc.solver.preconditioner}")
    print(ROW.format("stage", "s", "live", "peak", "rss"))
    print(ROW.format("import", "", "", "", f"{driver._peak_rss_mb():.1f}"), flush=True)
    stage = driver._stage

    @contextmanager
    def traced_stage(timings: dict, name: str):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with stage(timings, name):
            yield
        peak = tracemalloc.get_traced_memory()[1]
        print(ROW.format(name, f"{timings[name]:.3f}", f"{live / MIB:.1f}", f"{peak / MIB:.1f}",
                         f"{driver._peak_rss_mb():.1f}"), flush=True)

    tracemalloc.start()
    driver._stage = traced_stage
    try:
        with tempfile.TemporaryDirectory() as tmp:
            report = driver.run_scenario(sc, refine=args.refine, preconditioner=args.precond,
                                         out_dir=tmp).report
    finally:
        driver._stage = stage
        tracemalloc.stop()
    print(f"{report['n_cells']:,} cells, {report['n_dofs']:,} dofs, "
          f"{report['solver']['iterations']} CG iterations, "
          f"runtime_s {report['runtime_s']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
