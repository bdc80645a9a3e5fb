"""Bitwise fingerprint of the whole pipeline, one SHA-256 per case.

    python3 scripts/fingerprint.py [SRC]

Imports boxdfm from SRC (default: this checkout's src/) and runs every
builtin scenario except ex55 at its default level under both intersection
policies, plus ex51 r4, ex54a r2 and ex56 r2 with Jacobi. Each digest covers
the Mesh and DofMap arrays, A0, b0, A, the solution and the CG iteration
count, every bundle file except report.json (which carries timings), the
arrays of solution.npz, compared as arrays because its zip headers carry
timestamps, and the Mesh, cell_dofs, dof_vertex and values that
load_solution reads back from the bundle. One more digest per builtin
except ex55 covers the Mesh arrays of its mesh factory one level above the
default, without a solve, so every mesh source (generated, Delaunay,
crossed-square, MSH file) is checked through refinement.
Run it on two source trees and diff the outputs to show that a change keeps
the numbers bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC.resolve()))

from boxdfm.benchmarks import get_scenario, scenario_names  # noqa: E402
from boxdfm.dofspace import POLICIES  # noqa: E402
from boxdfm.driver import load_solution, run_scenario  # noqa: E402

LADDER = (("ex51", 4, None), ("ex54a", 2, None), ("ex56", 2, "jacobi"))


def _feed(h, name: str, value) -> None:
    h.update(name.encode() + b"\0")
    if hasattr(value, "tocsr"):
        value = value.tocsr()
        for part in ("indptr", "indices", "data"):
            _feed(h, f"{name}.{part}", getattr(value, part))
        value = np.array(value.shape)
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(value if isinstance(value, bytes) else repr(value).encode())


def _feed_fields(h, prefix: str, obj) -> None:
    for f in dataclasses.fields(obj):
        _feed(h, f"{prefix}.{f.name}", getattr(obj, f.name))


def mesh_fingerprint(name: str) -> str:
    scenario = get_scenario(name)
    h = hashlib.sha256()
    _feed_fields(h, "Mesh", scenario.mesh_factory(scenario.default_refine + 1))
    return h.hexdigest()


def fingerprint(name: str, refine: int, policy: str | None, preconditioner: str | None) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        res = run_scenario(get_scenario(name), refine=refine, policy=policy, out_dir=out,
                           preconditioner=preconditioner)
        _feed_fields(h, "Mesh", res.mesh)
        _feed_fields(h, "DofMap", res.dofmap)
        s = res.system
        for key, value in (("A0", s.A0), ("b0", s.b0), ("A", s.A), ("x", res.field.values),
                           ("iterations", res.report["solver"]["iterations"])):
            _feed(h, key, value)
        for path in sorted(out.iterdir()):
            if path.name == "solution.npz":
                with np.load(path) as z:
                    for key in sorted(z.files):
                        _feed(h, f"npz.{key}", z[key])
            elif path.name != "report.json":
                _feed(h, path.name, path.read_bytes())
        loaded = load_solution(out)
        _feed_fields(h, "loaded.Mesh", loaded.mesh)
        for key in ("cell_dofs", "dof_vertex", "values"):
            _feed(h, f"loaded.{key}", getattr(loaded, key))
    return h.hexdigest()


def main() -> None:
    names = [n for n in scenario_names() if n != "ex55"]
    cases = [(n, 0, p, None) for n in names for p in POLICIES]
    cases += [(n, r, None, pc) for n, r, pc in LADDER]
    for name, refine, policy, pc in cases:
        label = f"{name} r+{refine} {policy or 'default'} {pc or 'default'}"
        print(f"{fingerprint(name, refine, policy, pc)}  {label}", flush=True)
    for name in names:
        print(f"{mesh_fingerprint(name)}  {name} r+1 mesh", flush=True)


if __name__ == "__main__":
    main()
