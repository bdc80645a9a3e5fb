"""Fast self-test of the benchmark code, with every workload at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it. It covers the metric names and units against BENCHMARK.json, the
correctness gates, failure counting, and the traced/untraced agreement.
Scratch files go to .bench_build/selftest in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import boxdfm  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "workloads.json").read_text())


@pytest.fixture(scope="module")
def tiny_spec():
    """workloads.json at base refinement (jacobi throughout, for speed), with
    gate values recorded from an in-process run_scenario."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    spec = {**SPEC, "workloads": {}}
    for name, wl in SPEC["workloads"].items():
        tiny = {**wl, "refine": 0, "preconditioner": "jacobi"}
        res = worker.solve(boxdfm.get_scenario(wl["scenario"]), tiny,
                           SCRATCH / "bundle" / name)
        tiny["n_dofs"] = res.report["n_dofs"]
        tiny["iterations"] = res.report["solver"]["iterations"]
        if "l2_error" in wl:
            tiny["l2_error"] = res.report["l2_error"]
        spec["workloads"][name] = tiny
    path = SCRATCH / "tiny.json"
    path.write_text(json.dumps(spec))
    yield spec, path
    shutil.rmtree(SCRATCH, ignore_errors=True)


def bench(workload: str, trace: int, spec_path: Path, cwd: Path = ROOT,
          runner: Path = HERE / "run.py"):
    p = subprocess.run([sys.executable, str(runner), "--workload", workload,
                        "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                        "--spec", str(spec_path)],
                       capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_run_reports_declared_metrics(tiny_spec, workload, trace):
    spec, path = tiny_spec
    code, out = bench(workload, trace, path)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert out["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in out["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
    if trace:
        wl = spec["workloads"][workload]
        assert out["metrics"]["dofspace.n_dofs"]["value"] == wl["n_dofs"]
        assert out["metrics"]["linalg.cg_iterations"]["value"] == wl["iterations"]
    else:
        assert all(out["metrics"][k]["value"] > 0 for k in out["metrics"])


@pytest.mark.parametrize("field,delta", [("iterations", 1), ("n_dofs", -1)])
def test_gate_failure_exits_nonzero_without_numbers(tiny_spec, field, delta):
    spec, _ = tiny_spec
    bad = json.loads(json.dumps(spec))
    bad["workloads"]["ex51-r4"][field] += delta
    path = SCRATCH / f"bad-{field}.json"
    path.write_text(json.dumps(bad))
    for trace in (0, 1):
        code, out = bench("ex51-r4", trace, path)
        assert code != 0
        assert out == {"correct": False, "attempted": out["attempted"],
                       "failed": out["failed"], "metrics": {}}


def test_l2_gate(tiny_spec):
    spec, _ = tiny_spec
    wl = spec["workloads"]["ex51-r4"]
    report = {"n_dofs": wl["n_dofs"], "solver": {"iterations": wl["iterations"]},
              "balance": {"relative_imbalance": 0.0}, "l2_error": wl["l2_error"]}
    assert worker.check_report(report, wl, spec) == []
    report["l2_error"] *= 1 + 10 * spec["l2_rtol"]
    assert len(worker.check_report(report, wl, spec)) == 1
    report["balance"]["relative_imbalance"] = 10 * spec["imbalance_limit"]
    assert len(worker.check_report(report, wl, spec)) == 2


def test_failed_requests_are_counted_not_raised(tiny_spec):
    spec, _ = tiny_spec
    bundle = SCRATCH / "bundle" / "ex51-r4"
    # the first segment leaves the mesh, which runs into the known defect
    reqs = iter([(np.array([-0.5, 0.5]), np.array([0.5, 0.5]), "plus"),
                 (np.array([0.1, 0.2]), np.array([0.9, 0.7]), "minus")])
    r = worker.Requests(reqs)
    r.run(bundle, 0.0, 2)
    assert (r.attempted, r.failed, r.ok_points, len(r.latencies), len(r.samples)) == \
        (2, 1, worker.POINTS, 1, 1)
    assert sum(r.errors.values()) == 1 and r.total_s >= r.latencies[0] > 0
    assert worker.check_samples(bundle, r.samples) == []
    # a timed request may not fail at all; a screened segment or a probe
    # point only by the known defect, and a probe no more often than recorded
    assert len(worker.check_failures(r.errors)) == 1
    assert list(r.errors)[0].startswith(spec["known_defect"])
    assert worker.check_defect(r.errors, spec, "x") == []
    assert worker.check_defect(r.errors, spec, "x", 1) == []
    assert len(worker.check_defect(r.errors, spec, "x", 0)) == 1
    assert len(worker.check_defect({"ValueError: other": 2, **r.errors}, spec, "x")) == 1


def test_screen_and_probe_count_the_known_defect(tiny_spec):
    spec, _ = tiny_spec
    bundle = SCRATCH / "bundle" / "ex57a-slice"
    stream, kept, errors = worker.screened(bundle, 3, 2)
    assert 0 < kept < worker.SCREEN and kept + sum(errors.values()) == worker.SCREEN
    assert all(k.startswith(spec["known_defect"]) for k in errors)
    r = worker.Requests(stream)
    r.run(bundle, 0.0, kept + 1)  # one full cycle and a repeat
    assert (r.attempted, r.failed) == (kept + 1, 0)
    assert np.array_equal(r.samples[0]["points"], r.samples[-1]["points"])
    res = worker.probe(bundle)
    assert res["points"] == worker.PROBE_PER_AXIS[2] ** 2
    assert sum(res["errors"].values()) == spec["workloads"]["ex57a-slice"]["defect_points"]
    assert worker.check_defect(res["errors"], spec, "probe point(s)",
                               spec["workloads"]["ex57a-slice"]["defect_points"]) == []
    assert worker.probe(SCRATCH / "bundle" / "ex54a-r2")["errors"] == {}


def test_slice_checker_flags_wrong_values(tiny_spec):
    bundle = SCRATCH / "bundle" / "ex57a-slice"
    field = boxdfm.load_solution(bundle)
    sample = boxdfm.sample_slice(field, (0.1, 0.05), (0.8, 0.95), 200, side="minus")
    checker = worker.SliceChecker(field)
    assert checker.n_bad(sample["points"], sample["values"]) == 0
    values = sample["values"].copy()
    values[7] = np.nan
    values[11] = field.values.max() + 1.0
    assert checker.n_bad(sample["points"], values) == 2


def test_traced_pipeline_matches_run_scenario_bitwise(tiny_spec):
    spec, _ = tiny_spec
    wl = spec["workloads"]["ex54a-r2"]
    scenario = boxdfm.get_scenario(wl["scenario"])
    res = worker.solve(scenario, wl, SCRATCH / "cmp-u")
    tr = worker.Tracer()
    _, field, _, traced = worker.traced_run(tr, scenario, wl, SCRATCH / "cmp-t",
                                            res.report)
    assert worker.compare_runs(res, traced, field) == []
    assert worker.compare_bundles(SCRATCH / "cmp-u", SCRATCH / "cmp-t") == []
    names = [s["name"] for s in tr.spans]
    parent = names.index("driver.write_bundle")
    children = [s for s in tr.spans if s["parent"] == parent]
    assert [s["name"] for s in children] == ["vtkout.solution_vtk", "vtkout.facets_vtk",
                                             "dofspace.vertex_report",
                                             "solution.bundle_slices"]
    assert 0 < sum(s["end"] - s["start"] for s in children) <= \
        tr.durations("driver.write_bundle")[0] < tr.root_sum(0)
    field.values[3] = np.nextafter(field.values[3], np.inf)
    assert worker.compare_runs(res, traced, field)
    (SCRATCH / "cmp-u" / "extra.csv").write_text("x\n")
    assert worker.compare_bundles(SCRATCH / "cmp-u", SCRATCH / "cmp-t") == \
        ["traced bundle lacks extra.csv"]
    (SCRATCH / "cmp-u" / "extra.csv").unlink()
    (SCRATCH / "cmp-t" / "vertices.csv").write_text("x\n")
    assert worker.compare_bundles(SCRATCH / "cmp-u", SCRATCH / "cmp-t")


def test_benchmark_code_does_not_shadow_the_package():
    assert Path(boxdfm.benchmarks.__file__).resolve() == \
        ROOT / "src" / "boxdfm" / "benchmarks.py"
    for name in ("boxdfm", "boxdfm.py", "benchmarks", "benchmarks.py"):
        assert not (HERE / name).exists()


def test_refuses_a_checkout_without_sources(tiny_spec):
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("ex51-r4", 0, HERE / "workloads.json", cwd=bare,
                      runner=bare / "perfbench" / "run.py")
    assert code != 0 and out is None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
