"""Bitwise fingerprint of the whole pipeline, one SHA-256 per case.

    python3 scripts/fingerprint.py [SRC]

Imports boxdfm from SRC (default: this checkout's src/) and runs every
builtin scenario except ex55 at its default level under both intersection
policies, plus ex51 r4, ex54a r2 and ex56 r2 with Jacobi. Each digest covers
the Mesh and DofMap arrays, A0, b0, A, the solution and the CG iteration
count, every bundle file except report.json (which carries timings), the
arrays of solution.npz, compared as arrays because its zip headers carry
timestamps, and the Mesh, cell_dofs, dof_vertex and values that
load_solution reads back from the bundle.
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


def fingerprint(name: str, refine: int, policy: str | None, preconditioner: str | None) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        res = run_scenario(get_scenario(name), refine=refine, policy=policy, out_dir=out,
                           preconditioner=preconditioner)
        for obj in (res.mesh, res.dofmap):
            for f in dataclasses.fields(obj):
                _feed(h, f"{type(obj).__name__}.{f.name}", getattr(obj, f.name))
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
        for f in dataclasses.fields(loaded.mesh):
            _feed(h, f"loaded.Mesh.{f.name}", getattr(loaded.mesh, f.name))
        for key in ("cell_dofs", "dof_vertex", "values"):
            _feed(h, f"loaded.{key}", getattr(loaded, key))
    return h.hexdigest()


def main() -> None:
    cases = [(n, 0, p, None) for n in scenario_names() if n != "ex55" for p in POLICIES]
    cases += [(n, r, None, pc) for n, r, pc in LADDER]
    for name, refine, policy, pc in cases:
        label = f"{name} r+{refine} {policy or 'default'} {pc or 'default'}"
        print(f"{fingerprint(name, refine, policy, pc)}  {label}", flush=True)


if __name__ == "__main__":
    main()
