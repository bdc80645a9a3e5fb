"""Scenario registry, JSON scenarios, driver plumbing, CLI exit codes."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import boxdfm
import boxdfm.assembly as assembly_module
import boxdfm.driver as driver_module
from boxdfm.assembly import collect_dirichlet
from boxdfm.benchmarks import (SCENARIO_DIR, builtin_scenarios, ex52_scenario,
                               ex57_equidim_scenario, get_scenario, scenario_names)
from boxdfm.cli import build_parser, main
from boxdfm.dofspace import POLICIES, build_dof_map
from boxdfm.driver import (_narrowed, load_solution, run_convergence, run_scenario,
                           scenario_warnings)
from boxdfm.errors import MissingDataError, ValidationError
from boxdfm.generators import crossed_square_mesh, delaunay_rect_mesh, kuhn_cube_mesh
from boxdfm.linalg import PRECONDITIONERS, dense_spd_check
from boxdfm.materials import BarrierLaw, MaterialModel
from boxdfm.mesh import TOPOLOGY
from boxdfm.scenario import (Scenario, SliceSpec, SolverSettings, load_scenario_file,
                             scenario_from_dict, validate_against_mesh)
from boxdfm.refine import uniform_refine
from boxdfm.solution import SIDES, sample_slice
from conftest import barrier_square

EXPECTED_NAMES = {
    "ex51", "ex52_vertical", "ex52_slanted", "ex53", "ex54a", "ex54b",
    "ex55", "ex56", "ex57a", "ex57a_kt1", "ex57a_kt1e3",
    "ex57b", "ex57b_kt1", "ex57b_kt1e3",
}

TINY = {
    "name": "tiny",
    "description": "crossed grid with one vertical barrier",
    "dim": 2,
    "tag_map": {"1": "dirichlet", "2": "dirichlet",
                "3": "neumann", "4": "neumann", "10": "barrier"},
    "mesh": {"generator": "crossed_square", "n": 4,
             "segments": [{"from": [0.5, 0.0], "to": [0.5, 1.0], "tag": 10}],
             "regions": [{"box": [[0.5, 0.0], [1.0, 1.0]], "region": 2}]},
    "materials": {"matrix": {"1": 1.0, "2": 1.0},
                  "barriers": {"10": {"aperture": 1e-2, "k": 1e-2}}},
    "dirichlet": {"1": "0", "2": "1"},
    "neumann": {"3": "0", "4": "0"},
    "exact": {"by_region": {"1": "0.5*x", "2": "0.5*x + 0.5"}},
    "solver": {"tol": 1e-12},
    "slices": [{"name": "mid", "from": [0.0, 0.25], "to": [1.0, 0.25], "n": 9}],
}


def tiny_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def test_registry_names():
    assert set(scenario_names()) == EXPECTED_NAMES
    assert len(scenario_names()) == len(EXPECTED_NAMES)
    entries = builtin_scenarios().values()
    for entry in entries:
        assert entry.summary
    # every shipped file is a builtin; only ex55's file is not shipped
    assert {e.path for e in entries if e.available} == set(SCENARIO_DIR.glob("*.json"))
    assert [e.name for e in entries if not e.available] == ["ex55"]


def test_every_data_file_is_package_data():
    # a wheel ships only the files that match a package-data glob
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["boxdfm"]
    package = root / "src" / "boxdfm"
    files = [p.relative_to(package) for p in (package / "data").rglob("*") if p.is_file()]
    assert files
    assert [str(p) for p in files if not any(p.match(g) for g in globs)] == []


def test_registry_builds():
    for name in sorted(EXPECTED_NAMES):
        if name == "ex55":
            with pytest.raises(MissingDataError):
                get_scenario(name)
            continue
        scenario = get_scenario(name)
        assert isinstance(scenario, Scenario)
        assert scenario.dim in (2, 3)
    with pytest.raises(KeyError):
        get_scenario("ex99")


def test_scenario_json_loads_and_solves(tmp_path):
    sc = load_scenario_file(tiny_file(tmp_path))
    assert sc.name == "tiny"
    assert sc.policy == "barrier-cuts"
    assert sc.solver.tol == 1e-12
    mesh = sc.mesh_factory(0)
    validate_against_mesh(sc, mesh)
    assert set(np.unique(mesh.cell_region)) == {1, 2}

    res = run_scenario(sc)
    # beta = 1: the exact solution is piecewise linear, captured exactly
    assert res.report["l2_error"] <= 1e-12
    assert res.report["balance"]["relative_imbalance"] <= 1e-10
    assert res.report["policy"] == "barrier-cuts"


def test_scenario_dict_validation():
    with pytest.raises(ValidationError):
        scenario_from_dict({})
    with pytest.raises(ValidationError):
        scenario_from_dict({"mesh": {"generator": "hexgrid"}})
    with pytest.raises(ValidationError, match=r"tag 1\b.*'wall'.*'barrier', 'dirichlet', "
                       r"'fracture', 'neumann'"):
        scenario_from_dict({"mesh": {"generator": "crossed_square"},
                            "tag_map": {"1": "wall"}})


def test_scenario_file_errors(tmp_path):
    with pytest.raises(MissingDataError):
        load_scenario_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario_file(bad)


def _with(**changes):
    """TINY with top-level entries replaced."""
    return {**TINY, **changes}


def _slice(**changes):
    """TINY with entries of its one slice replaced."""
    return _with(slices=[{**TINY["slices"][0], **changes}])


NAN, INF = float("nan"), float("inf")  # json.dumps writes NaN and Infinity


def _law(kind: str, **changes):
    """TINY with one barrier or fracture law, its entries replaced."""
    law = {"aperture": 1e-2, "k": 1e-2, **changes}
    return _with(materials={**TINY["materials"], kind: {"10": law}})


def _matrix(k):
    """TINY with the permeability k in region 1."""
    return _with(materials={**TINY["materials"], "matrix": {"1": k, "2": 1.0}})


@pytest.mark.parametrize("raw, match", [
    (5, r"a scenario must be a JSON object with a 'mesh' entry"),
    (_with(mesh="oops"), r"mesh spec must be an object, got 'oops'"),
    (_with(materials={"barriers": {"10": {"k": 1e-2}}}),
     r"scenario entry 'materials' lacks the key 'aperture'"),
    (_with(mesh={**TINY["mesh"], "n": "x"}), r"scenario entry 'mesh' is malformed: .*'x'"),
    (_with(mesh={"generator": "delaunay_rect", "h": 0.2, "boundary_div": [3, 3, 3]}),
     r"boundary_div needs four positive integers .*got \[3, 3, 3\]"),
    (_with(mesh={"generator": "delaunay_rect", "h": 0.2, "boundary_div": [3, 0, 3, 3]}),
     r"boundary_div needs four positive integers .*got \[3, 0, 3, 3\]"),
    (_with(mesh={"generator": "delaunay_rect", "h": 0.2, "boundary_div": [2.5, 5, 5, 5]}),
     r"each boundary_div entry must be an integer, got 2\.5"),
    (_with(mesh={"generator": "delaunay_rect", "h": 0.2, "boundary_div": [True, 5, 5, 5]}),
     r"each boundary_div entry must be an integer, got True"),
    (_with(solver={"preconditioner": "ilu"}), r"unknown preconditioner 'ilu'"),
    (_with(solver={"preconditioner": "none"}), r"unknown preconditioner 'none'"),
    (_with(solver={"precond": "jacobi"}),
     r"scenario entry 'solver': unknown key\(s\) 'precond'; "
     r"known keys are 'tol', 'max_iter', 'preconditioner'"),
    (_with(policy="bogus"), r"unknown intersection policy 'bogus'"),
    (_with(solver={"tol": -1}), r"solver tolerance must be finite and > 0, got -1\.0"),
    (_with(solver={"tol": "nan"}), r"solver tolerance must be finite and > 0, got nan"),
    (_with(solver={"tol": 1}), r"solver tolerance must be below 1, got 1\.0"),
    (_with(solver={"tol": True}), r"solver tolerance must be below 1, got 1\.0"),
    (_with(solver={"max_iter": 0}), r"solver max_iter must be an integer >= 1, got 0"),
    (_with(solver={"max_iter": 2.5}), r"solver max_iter must be an integer >= 1, got 2\.5"),
    (_slice(n=0), r"slice 'mid': number of samples must be an integer >= 1, got 0"),
    (_slice(n=2.7), r"slice 'mid': number of samples must be an integer >= 1, got 2\.7"),
    (_slice(n=True), r"slice 'mid': number of samples must be an integer >= 1, got True"),
    (_slice(side="left"), r"slice 'mid': side must be 'plus' or 'minus', got 'left'"),
    (_slice(to=[1.0, 0.25, 0.0]), r"slice 'mid': from and to need 2 coordinates each"),
    (_slice(to=[1.0, float("inf")]), r"slice 'mid': slice endpoints must be finite"),
    (_slice(to=[0.0, 0.25]), r"slice 'mid': slice segment is degenerate"),
    (_slice(samples=5),
     r"slice 'mid': unknown key\(s\) 'samples'; known keys are 'name', 'from', 'to', 'n', 'side'"),
    (_with(sorce="1"), r"scenario: unknown key\(s\) 'sorce'; known keys are 'name', .*'source'"),
    (_with(allow_pure_neumann=True), r"scenario: unknown key\(s\) 'allow_pure_neumann'"),
    (_with(mesh={**TINY["mesh"], "sede": 3}),
     r"mesh generator 'crossed_square': unknown key\(s\) 'sede'; known keys are .*'seed'"),
    (_with(mesh={"generator": "kuhn_cube", "seed": 3}),
     r"mesh generator 'kuhn_cube': unknown key\(s\) 'seed'"),
    (_with(mesh={"file": "grid.msh", "n": 4}),
     r"mesh spec with a 'file': unknown key\(s\) 'n'; known keys are 'file'"),
    (_with(materials={"barriers": {"10": {"aperture": 1e-2, "k": 0.0, "kt": 1.0}}}),
     r"barrier law 10: unknown key\(s\) 'kt'; known keys are 'aperture', 'k', 'k_tangential'"),
    (_with(materials={"fractures": {"20": {"aperture": 1e-3, "k": 1e3, "k_n": 1.0}}}),
     r"fracture law 20: unknown key\(s\) 'k_n'; known keys are 'aperture', 'k'"),
    (_with(materials={"barrier": {"10": {"aperture": 1e-2, "k": 0.0}}}),
     r"scenario entry 'materials': unknown key\(s\) 'barrier'"),
    (_with(refine=1.5), r"scenario entry 'refine' must be an integer, got 1\.5"),
    (_with(refine=True), r"scenario entry 'refine' must be an integer, got True"),
    (_with(mesh={**TINY["mesh"], "n": 2.7}),
     r"scenario entry 'mesh' is malformed: n must be an integer >= 1, got 2\.7"),
    (_with(mesh={**TINY["mesh"], "n": 1.7}), r"n must be an integer >= 1, got 1\.7"),
    (_with(mesh={**TINY["mesh"], "n": True}), r"n must be an integer >= 1, got True"),
    (_with(mesh={**TINY["mesh"], "n": -2}), r"n must be an integer >= 1, got -2"),
    (_with(mesh={**TINY["mesh"], "seed": -1}), r"seed must be an integer >= 0, got -1"),
    (_with(mesh={"generator": "delaunay_rect"}), r"scenario entry 'mesh' lacks the key 'h'"),
    (_with(mesh={"generator": "delaunay_rect", "h": 0}),
     r"scenario entry 'mesh' is malformed: h must be finite and > 0, got 0\.0"),
    (_with(mesh={"generator": "delaunay_rect", "h": "nan"}), r"h must be finite and > 0, got nan"),
    (_with(mesh={"generator": "delaunay_rect", "h": -0.1}), r"h must be finite and > 0, got -0\.1"),
    (_with(mesh={"generator": "delaunay_rect", "h": "inf"}), r"h must be finite and > 0, got inf"),
    (_with(dim=4), r"scenario entry 'dim' must be 2 or 3, got 4"),
    (_with(dim="3d"), r"scenario entry 'dim' must be 2 or 3, got '3d'"),
    (_law("barriers", k=NAN), r"barrier permeability must be finite and >= 0, got nan"),
    (_law("barriers", k=INF), r"barrier permeability must be finite and >= 0, got inf"),
    (_law("barriers", aperture=INF), r"barrier aperture must be finite and > 0, got inf"),
    (_law("barriers", k_tangential=NAN),
     r"barrier tangential permeability must be finite and >= 0, got nan"),
    (_law("fractures", k=NAN), r"fracture permeability must be finite and > 0, got nan"),
    (_law("fractures", aperture=INF), r"fracture aperture must be finite and > 0, got inf"),
    (_matrix(NAN), r"permeability must be finite, got nan"),
    (_matrix(INF), r"permeability must be finite, got inf"),
    (_matrix([[1.0, INF], [INF, 1.0]]), r"permeability must be finite, got \[\[1\.0, inf\]"),
    (_with(order_window="ab"), r"'order_window' needs two finite numbers lo < hi, got 'ab'"),
    (_with(order_window=["x", "y"]), r"'order_window' needs two .*got \['x', 'y'\]"),
    (_with(order_window=[1]), r"'order_window' needs two finite numbers lo < hi, got \[1\]"),
    (_with(order_window=[2.1, 1.9]), r"'order_window' needs two .*got \[2\.1, 1\.9\]"),
    (_with(order_window=[1.9, INF]), r"'order_window' needs two .*got \[1\.9, inf\]"),
    (_with(dirichlet={"1": 10 ** 400, "2": "1"}), r"numeric constant out of range in expression"),
    (_with(source="2*1" + "0" * 400), r"numeric constant out of range in expression '2\*10"),
], ids=["not-an-object", "mesh-not-an-object", "barrier-without-aperture", "non-numeric-n",
        "boundary-div-of-three", "boundary-div-zero", "boundary-div-fractional",
        "boundary-div-bool", "unknown-preconditioner",
        "none-preconditioner", "unknown-solver-key", "unknown-policy",
        "negative-tol", "nan-tol", "unit-tol", "bool-tol", "zero-max-iter",
        "fractional-max-iter",
        "slice-zero-n", "slice-fractional-n", "slice-bool-n", "slice-bad-side",
        "slice-3d-endpoint", "slice-infinite-endpoint", "slice-degenerate",
        "slice-unknown-key", "unknown-top-level-key", "allow-pure-neumann",
        "unknown-generator-key", "seed-of-kuhn-cube", "unknown-file-spec-key",
        "unknown-barrier-law-key", "unknown-fracture-law-key", "unknown-materials-key",
        "fractional-refine", "bool-refine", "fractional-n", "fractional-n-below-2", "bool-n",
        "negative-n", "negative-seed", "delaunay-without-h", "zero-h", "nan-h", "negative-h",
        "infinite-h", "dim-4", "dim-text", "nan-barrier-k", "infinite-barrier-k",
        "infinite-barrier-aperture", "nan-barrier-k-tangential", "nan-fracture-k",
        "infinite-fracture-aperture", "nan-matrix-k", "infinite-matrix-k",
        "infinite-matrix-tensor", "text-order-window", "word-order-window",
        "one-number-order-window", "reversed-order-window", "infinite-order-window",
        "huge-integer-data", "huge-integer-literal"])
def test_scenario_of_the_wrong_shape_fails_on_load(tmp_path, capsys, raw, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match=match):
        load_scenario_file(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integral_float_slice_count_loads_as_int():
    (sl,) = scenario_from_dict(_slice(n=9.0)).slices
    assert sl.n == 9 and isinstance(sl.n, int)


@pytest.mark.parametrize("value", [2, 2.0, "2", " 2 "], ids=["int", "float", "text", "spaced"])
def test_file_integers_may_be_integral_floats_or_strings(value):
    sc = scenario_from_dict(_with(refine=value, dim=value, mesh={**TINY["mesh"], "n": value},
                                  solver={"max_iter": value}))
    assert (sc.default_refine, sc.dim, sc.solver.max_iter) == (2, 2, 2)
    assert sc.base_mesh().n_cells == 16


def test_file_policy_runs_with_that_policy():
    raw = json.loads((SCENARIO_DIR / "ex54a.json").read_text())
    sc = scenario_from_dict({**raw, "policy": "fracture-penetrates"}, base_dir=SCENARIO_DIR)
    res = run_scenario(sc)
    assert res.report["policy"] == "fracture-penetrates"
    want = run_scenario(get_scenario("ex54a"), policy="fracture_penetrates").report["n_dofs"]
    assert res.report["n_dofs"] == want
    # the policies differ on ex54a, so the count shows which one ran
    assert want != run_scenario(get_scenario("ex54a")).report["n_dofs"]


def test_file_order_window_reaches_the_convergence_study():
    sc = scenario_from_dict(_with(order_window=[1.5, 2.5]))
    assert run_convergence(sc, levels=1)["order_window"] == [1.5, 2.5]


def test_by_region_neumann_data_loads_and_is_evaluated_per_side():
    # tags 3 and 4 are the bottom and top edges; the barrier at x = 0.5
    # splits each into a half of region 1 and a half of region 2
    flux = {"by_region": {"1": "1", "2": "2"}}
    res = run_scenario(scenario_from_dict(_with(neumann={"3": flux, "4": flux})))
    assert res.system.b0.sum() == pytest.approx(-2 * (0.5 * 1 + 0.5 * 2), abs=1e-13)


def test_absent_entries_take_the_dataclass_defaults():
    sc = scenario_from_dict({"mesh": TINY["mesh"],
                             "slices": [{"from": [0.0, 0.5], "to": [1.0, 0.5]}]})
    (sl,) = sc.slices
    assert sl == SliceSpec("slice0", (0.0, 0.5), (1.0, 0.5))
    assert sc.solver == SolverSettings()
    default = Scenario(name="d", dim=2, base_mesh=None, materials=None)
    for f in dataclasses.fields(Scenario):
        if f.name not in ("name", "base_mesh", "materials", "slices"):
            assert getattr(sc, f.name) == getattr(default, f.name), f.name
    # the string coercions of the file format stay
    solver = scenario_from_dict(_with(solver={"tol": "1e-6", "preconditioner": "jacobi"})).solver
    assert solver == SolverSettings(tol=1e-6, preconditioner="jacobi")


@pytest.mark.parametrize("spec, direct", [
    ({"generator": "crossed_square", "n": 6.0, "jitter": "0.2", "seed": 3, "keep_x": [1],
      "domain": [[0, 0], [2, 1]], "segments": [{"from": [1, 0], "to": [1, 1], "tag": 10}]},
     lambda: crossed_square_mesh(6, jitter=0.2, seed=3, keep_x=(1.0,),
                                 domain=((0.0, 0.0), (2.0, 1.0)),
                                 segments=[((1.0, 0.0), (1.0, 1.0), 10)], tag_map={10: "barrier"})),
    ({"generator": "delaunay_rect", "h": "0.2", "seed": 2, "boundary_div": [5, 5, 6, 6],
      "fill_target": 8.0, "segments": [{"from": [0.5, 0.2], "to": [0.5, 0.8], "tag": 10}]},
     lambda: delaunay_rect_mesh(((0.0, 0.0), (1.0, 1.0)), 0.2, seed=2, boundary_div=(5, 5, 6, 6),
                                fill_target=8, segments=[((0.5, 0.2), (0.5, 0.8), 10)],
                                tag_map={10: "barrier"})),
    ({"generator": "kuhn_cube", "n": 2,
      "planes": [{"axis": 0, "coord": 0.5, "extent": [[0, 0], [1, 1]], "tag": 10}]},
     lambda: kuhn_cube_mesh(2, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 10)],
                            tag_map={10: "barrier"})),
], ids=["crossed_square", "delaunay_rect", "kuhn_cube"])
def test_generator_parameters_parse_to_the_same_mesh(spec, direct):
    got = scenario_from_dict({"mesh": spec, "tag_map": {"10": "barrier"}}).base_mesh()
    want = direct()
    for name in ("vertices", "cells", "facets", "facet_tags", "facet_kinds", "cell_region"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_convergence_on_exactly_resolved_scenario(tmp_path):
    sc = load_scenario_file(tiny_file(tmp_path))
    out = tmp_path / "conv"
    result = run_convergence(sc, levels=1, out_dir=out)
    assert [r["order"] for r in result["rows"]] == [None, None]
    # every error sits at rounding level, so no order is measurable
    assert result["orders_in_window"] is False
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "level,ndof,l2_error,order"
    assert all(ln.endswith(",") for ln in lines[1:])
    assert json.loads((out / "convergence.json").read_text())["levels"] == 1


def _unbuildable(tmp_path, **changes):
    """TINY whose mesh must not be built."""
    sc = scenario_from_dict({**TINY, **changes}, base_dir=tmp_path)

    def base_mesh():
        raise AssertionError("the mesh was built")

    sc.base_mesh = base_mesh
    return sc


@pytest.mark.parametrize("changes, kw, match", [
    ({}, {"refine": -1}, r"refinement level -1 is below 0 \(scenario level 0, refine -1\)"),
    ({"refine": -1}, {}, r"refinement level -1 is below 0 \(scenario level -1, refine 0\)"),
    ({}, {"tol": -1.0}, r"tolerance must be finite and > 0, got -1\.0"),
    ({}, {"tol": float("inf")}, r"tolerance must be finite and > 0, got inf"),
    ({}, {"tol": "abc"}, r"^solver tolerance must be a number, got 'abc'$"),
    ({}, {"max_iter": -5}, r"max_iter must be an integer >= 1, got -5"),
    ({}, {"preconditioner": "ilu"}, r"unknown preconditioner 'ilu'"),
    ({}, {"policy": "bogus"}, r"unknown intersection policy 'bogus'"),
    ({}, {"refine": 1.5}, r"^refine must be an integer, got 1\.5$"),
    ({}, {"refine": True}, r"^refine must be an integer, got True$"),
    ({}, {"refine": "1"}, r"^refine must be an integer, got '1'$"),
    ({}, {"refine": np.float64(1.0)}, r"^refine must be an integer, got 1\.0$"),
    ({}, {"max_iter": np.int64(0)}, r"^solver max_iter must be an integer >= 1, got 0$"),
], ids=["refine-override", "refine-entry", "negative-tol", "infinite-tol", "text-tol",
        "negative-max-iter", "unknown-preconditioner", "unknown-policy", "fractional-refine",
        "bool-refine", "text-refine", "numpy-float-refine", "numpy-zero-max-iter"])
def test_run_settings_fail_before_the_mesh_is_built(tmp_path, changes, kw, match):
    with pytest.raises(ValidationError, match=match):
        run_scenario(_unbuildable(tmp_path, **changes), **kw)


@pytest.mark.parametrize("tol", ["abc", None, [1e-8]], ids=["text", "none", "list"])
def test_non_numeric_solver_tolerance_is_a_validation_error(tol):
    with pytest.raises(ValidationError, match=r"^solver tolerance must be a number, got "):
        SolverSettings(tol=tol)


@pytest.mark.parametrize("build, value, error, match", [
    (ex52_scenario, "diagonal", ValidationError,
     r"^unknown ex52 orientation 'diagonal'; known are "),
    # sub-cases of ex54 and ex57 are builtin names, each a shipped file
    (lambda sub: get_scenario(f"ex54{sub}"), "c", KeyError, r"^'ex54c'$"),
    (lambda sub: get_scenario(f"ex57{sub}"), "c", KeyError, r"^'ex57c'$"),
    (ex57_equidim_scenario, "c", ValidationError,
     r"^unknown ex57 sub-case 'c'; known are 'a', 'b'$"),
], ids=["ex52", "ex54", "ex57", "ex57-equidim"])
def test_builtin_builders_reject_an_unknown_sub_case(build, value, error, match):
    with pytest.raises(error, match=match):
        build(value)


@pytest.mark.parametrize("levels", [0, -1, True, 1.0])
def test_convergence_levels_must_be_a_positive_integer(tmp_path, levels):
    with pytest.raises(ValidationError, match=r"levels >= 1"):
        run_convergence(_unbuildable(tmp_path), levels=levels)


@pytest.mark.parametrize("call, match", [
    (lambda sc: uniform_refine(sc.base_mesh(), np.int64(-1)),
     r"^refinement levels must be an integer >= 0, got -1$"),
    (lambda sc: run_convergence(sc, levels=np.int64(0)),
     r"^a convergence study needs levels >= 1, got 0$"),
    (lambda sc: sample_slice(run_scenario(sc).field, (0.0, 0.5), (1.0, 0.5), np.int32(0)),
     r"^number of samples must be an integer >= 1, got 0$"),
], ids=["uniform-refine", "run-convergence", "sample-slice"])
def test_numpy_integers_are_named_in_plain_numbers(tmp_path, call, match):
    sc = scenario_from_dict(TINY)
    with pytest.raises(ValidationError, match=match):
        call(sc)


@pytest.mark.parametrize("argv, match", [
    (["run", "--refine", "-1"], r"refinement level -1 is below 0"),
    (["run", "--tol", "-1", "--max-iter", "50"], r"tolerance must be finite and > 0"),
    (["run", "--tol", "nan"], r"tolerance must be finite and > 0"),
    (["run", "--tol", "1"], r"solver tolerance must be below 1, got 1\.0"),
    (["run", "--tol", "5"], r"solver tolerance must be below 1, got 5\.0"),
    (["run", "--max-iter", "-5"], r"max_iter must be an integer >= 1, got -5"),
    (["convergence", "--levels", "-1"], r"levels >= 1, got -1"),
    (["convergence", "--levels", "0"], r"levels >= 1, got 0"),
    (["convergence", "--levels", "1", "--max-iter", "0"], r"max_iter must be an integer >= 1"),
], ids=["refine", "negative-tol", "nan-tol", "unit-tol", "large-tol", "negative-max-iter",
        "negative-levels", "zero-levels", "convergence-max-iter"])
def test_cli_rejects_bad_run_settings(tmp_path, capsys, argv, match):
    out = tmp_path / "out"
    assert main([argv[0], str(tiny_file(tmp_path)), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("raw, match", [
    ({**{k: v for k, v in TINY.items() if k != "slices"}, "dim": 3},
     r"scenario 'tiny' is 3d, its mesh 2d"),
    ({"name": "cube", "mesh": {"generator": "kuhn_cube", "n": 1}},
     r"scenario 'cube' is 2d, its mesh 3d"),
], ids=["crossed-square-in-3d", "kuhn-cube-in-2d"])
def test_cli_rejects_a_mesh_of_the_other_dimension(tmp_path, capsys, raw, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert not out.exists()


def test_cli_choices_are_the_registries(tmp_path, capsys):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command in ("run", "convergence"):
        choices = {a.dest: a.choices for a in sub.choices[command]._actions}
        assert tuple(choices["precond"]) == PRECONDITIONERS
        assert tuple(choices["policy"]) == tuple(p.replace("_", "-") for p in POLICIES)
    assert tuple(next(a.choices for a in sub.choices["slice"]._actions
                      if a.dest == "side")) == SIDES
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main(["run", str(tiny_file(tmp_path)), "--precond", "none", "--out", str(out)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'none'" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_convergence_passes_max_iter(tmp_path, capsys):
    # one CG iteration cannot reach tol 1e-12 on the tiny scenario
    argv = ["convergence", str(tiny_file(tmp_path)), "--levels", "1", "--out", str(tmp_path / "c")]
    assert main([*argv, "--max-iter", "1"]) == 3
    assert "after 1 iterations" in capsys.readouterr().err
    assert main([*argv, "--max-iter", "500"]) == 0


def test_convergence_csv_rows_end_with_crlf(tmp_path):
    sc = get_scenario("ex51")
    out = tmp_path / "conv"
    result = run_convergence(sc, levels=1, out_dir=out)
    text = (out / "convergence.csv").read_bytes().decode()
    want = "level,ndof,l2_error,order\r\n" + "".join(
        f"{r['level']},{r['ndof']},{r['l2_error']!r},"
        f"{'' if r['order'] is None else repr(r['order'])}\r\n" for r in result["rows"])
    assert text == want
    assert result["rows"][0]["order"] is None and result["rows"][1]["order"] is not None


def test_convergence_requires_exact():
    sc = get_scenario("ex53")
    with pytest.raises(ValidationError):
        run_convergence(sc, levels=1)


def test_refine_override_scales_mesh(tmp_path):
    sc = load_scenario_file(tiny_file(tmp_path))
    r0 = run_scenario(sc)
    r1 = run_scenario(sc, refine=1)
    assert r1.report["n_cells"] == 4 * r0.report["n_cells"]
    assert r1.report["l2_error"] <= 1e-12


def test_load_solution_roundtrip(tmp_path):
    sc = load_scenario_file(tiny_file(tmp_path))
    out = tmp_path / "run"
    res = run_scenario(sc, out_dir=out)
    back = load_solution(out)
    assert np.array_equal(back.values, res.field.values)
    pts = np.array([[0.31, 0.62], [0.62, 0.31]])
    assert np.allclose(back.evaluate(pts), res.field.evaluate(pts), atol=1e-14)
    with pytest.raises(ValidationError):
        load_solution(tmp_path / "nowhere")


def test_load_solution_returns_the_mesh_the_run_wrote(tmp_path):
    dims = set()
    for name in scenario_names():
        if name == "ex55":  # needs mesh files that are not shipped
            continue
        sc = get_scenario(name)
        dims.add(sc.dim)
        out = tmp_path / name
        # the mesh does not depend on the solve; a loose tolerance is quick
        res = run_scenario(sc, out_dir=out, tol=1e-3, preconditioner="jacobi")
        with np.load(out / "solution.npz") as z:
            stored = {k: z[k] for k in z.files}
        assert set(TOPOLOGY) <= set(stored)
        assert all(v.dtype == np.int32 for v in stored.values() if v.dtype.kind in "iu")
        # every integer array as int64: the 14 arrays of earlier versions
        wide = {k: v.astype(np.int64) if v.dtype.kind in "iu" else v
                for k, v in stored.items()}
        bundles = [out]
        for suffix, arrays in (("wide", wide),
                               ("nine", {k: v for k, v in stored.items() if k not in TOPOLOGY})):
            bundles.append(tmp_path / f"{name}-{suffix}")
            bundles[-1].mkdir()
            np.savez(bundles[-1] / "solution.npz", **arrays)
        for bundle in bundles:
            back = load_solution(bundle)
            pairs = [(f.name, getattr(back.mesh, f.name), getattr(res.mesh, f.name))
                     for f in dataclasses.fields(res.mesh)]
            pairs += [(k, getattr(back, k), getattr(res.field, k))
                      for k in ("cell_dofs", "dof_vertex", "values")]
            for key, got, want in pairs:
                if isinstance(want, np.ndarray):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, key)
                    assert got.tobytes() == want.tobytes(), (name, key)
                else:
                    assert got == want, (name, key)
    assert dims == {2, 3}


def test_load_solution_returns_int64_indices_whatever_dtype_is_stored(tmp_path):
    sc = load_scenario_file(tiny_file(tmp_path))
    out = tmp_path / "run"
    res = run_scenario(sc, out_dir=out)
    with np.load(out / "solution.npz") as z:
        stored = {k: z[k] for k in z.files}
    for dtype in (np.uint16, np.int16, np.int32, np.uint64):
        d = tmp_path / np.dtype(dtype).name
        d.mkdir()
        # -1 pads (ufacet_cells, cell_neighbors) do not fit an unsigned dtype
        np.savez(d / "solution.npz", **{
            k: v.astype(dtype) if v.dtype.kind in "iu" and v.min() >= np.iinfo(dtype).min
            else v for k, v in stored.items()})
        back = load_solution(d)
        for got, want in ((back.cell_dofs, res.field.cell_dofs),
                          (back.dof_vertex, res.field.dof_vertex),
                          (back.mesh.cells, res.mesh.cells)):
            assert got.dtype == np.int64 and np.array_equal(got, want), dtype
    # write_bundle stores int32 only where every value fits
    for a, want in ((np.array([-2 ** 31, 2 ** 31 - 1]), np.int32),
                    (np.array([0, 2 ** 31]), np.int64), (np.array([-2 ** 31 - 1]), np.int64),
                    (np.zeros((0, 3), dtype=np.int64), np.int32), (np.zeros(3), np.float64)):
        assert _narrowed(a).dtype == want


def test_load_solution_rejects_broken_bundles(tmp_path, capsys):
    sc = load_scenario_file(tiny_file(tmp_path))
    out = tmp_path / "run"
    run_scenario(sc, out_dir=out)
    with np.load(out / "solution.npz") as z:
        arrays = {k: z[k] for k in z.files}

    def bundle(name, **arrs):
        d = tmp_path / name
        d.mkdir()
        np.savez(d / "solution.npz", **arrs)
        return d

    no_values = bundle("no_values", **{k: v for k, v in arrays.items() if k != "values"})
    short = bundle("short", **{**arrays, "values": arrays["values"][:-1]})
    cells_off = bundle("cells_off", **{**arrays, "cell_dofs": arrays["cell_dofs"][1:]})
    # the same field with every cell stored negatively oriented: build_mesh
    # would reorient the cells but not cell_dofs
    swapped = bundle("swapped", **{**arrays, "cells": arrays["cells"][:, [1, 0, 2]],
                                   "cell_dofs": arrays["cell_dofs"][:, [1, 0, 2]]})
    # the nine arrays of a bundle that stores no topology: build_mesh path
    nine = {k: v for k, v in arrays.items() if k not in TOPOLOGY}
    swapped_nine = bundle("swapped_nine", **{**nine, "cells": arrays["cells"][:, [1, 0, 2]],
                                             "cell_dofs": arrays["cell_dofs"][:, [1, 0, 2]]})
    part = bundle("part", **{k: v for k, v in arrays.items() if k != "cell_neighbors"})
    neigh = arrays["cell_neighbors"].copy()
    neigh[3, 1] = len(neigh)
    neigh_off = bundle("neigh_off", **{**arrays, "cell_neighbors": neigh})
    neigh_float = bundle("neigh_float", **{**arrays, "cell_neighbors":
                                           arrays["cell_neighbors"].astype(float)})
    text_vertices = bundle("text_vertices", **{**nine, "vertices":
                                               np.full(arrays["vertices"].shape, "abc")})
    ufacets_1 = bundle("ufacets_1", **{**arrays, "ufacets": arrays["ufacets"][:, :1]})
    f2u = arrays["facet_to_ufacet"].copy()
    f2u[0] = (f2u[0] + 1) % len(arrays["ufacets"])
    f2u_off = bundle("f2u_off", **{**arrays, "facet_to_ufacet": f2u})
    nv = len(arrays["vertices"])
    dv = arrays["dof_vertex"].copy()
    dv[0] = nv + 5
    dv_off = bundle("dv_off", **{**arrays, "dof_vertex": dv})
    cd = arrays["cell_dofs"].copy()
    cd[2, 1] = len(arrays["values"])
    cd_off = bundle("cd_off", **{**arrays, "cell_dofs": cd})
    cd_float = bundle("cd_float", **{**arrays, "cell_dofs": arrays["cell_dofs"].astype(float)})
    not_npz = tmp_path / "not_npz"
    not_npz.mkdir()
    (not_npz / "solution.npz").write_text("not an archive\n")
    for d, msg in ((no_values, "lacks the array(s) values"), (short, "values has shape"),
                   (cells_off, "cell_dofs has shape"),
                   (swapped, "cell 0 is negatively oriented"),
                   (swapped_nine, "cell 0 is negatively oriented"),
                   (part, "lacks the array(s) cell_neighbors"),
                   (neigh_off, f"cell_neighbors holds values outside -1..{len(neigh) - 1}"),
                   (neigh_float, "cell_neighbors must hold integers, got dtype float64"),
                   (text_vertices, "vertices must hold floats, got dtype <U3"),
                   (ufacets_1, "ufacets has shape"),
                   (f2u_off, f"is not the unique facet {f2u[0]} it points at"),
                   (dv_off, f"dof_vertex holds values outside 0..{nv - 1}"),
                   (cd_off, f"cell_dofs holds values outside 0..{len(arrays['values']) - 1}"),
                   (cd_float, "cell_dofs must hold integers, got dtype float64"),
                   (not_npz, "not a readable solution bundle")):
        with pytest.raises(ValidationError, match=re.escape(msg)) as caught:
            load_solution(d)
        assert "solution.npz" in str(caught.value)
        code = main(["slice", str(d), "--from", "0,0.25", "--to", "1,0.25"])
        assert code == 2
        err = capsys.readouterr().err
        assert msg in err and "solution.npz" in err and "Traceback" not in err


def test_cli_slice_rejects_bad_counts_and_endpoints(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_file(tmp_path)), "--out", str(out)]) == 0
    capsys.readouterr()
    target = tmp_path / "profile.csv"
    for args, msg in ((["-n", "-3"], "number of samples"),
                      (["-n", "0"], "number of samples"),
                      (["--from", "0,nan"], "finite"),
                      (["--to", "1,0.25,0"], "from and to need 2 coordinates each, got 2 and 3")):
        argv = ["slice", str(out), "--from", "0,0.25", "--to", "1,0.25",
                "--out", str(target), *args]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert msg in err and "Traceback" not in err
        assert not target.exists()


def test_cli_run_writes_bundle(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(tiny_file(tmp_path)), "--out", str(out)])
    assert code == 0
    for fname in ("report.json", "solution.vtk", "facets.vtk",
                  "vertices.csv", "solution.npz", "profile_mid.csv"):
        assert (out / fname).exists(), fname
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "tiny"
    assert report["solver"]["iterations"] > 0
    assert report["solver"]["setup_s"] >= 0.0
    assert report["solver"]["iterate_s"] >= 0.0
    stdout = capsys.readouterr().out
    assert "tiny" in stdout and "dofs" in stdout
    assert "setup" in stdout and "ms/iteration" in stdout


def test_report_peak_rss_is_read_again_for_the_bundle(tmp_path, monkeypatch):
    # ru_maxrss counts KiB on Linux and bytes on macOS; write_bundle reads it
    # again just before report.json, and without resource the key stays out
    readings = iter([100 * 2 ** 10, 120 * 2 ** 10, 150 * 2 ** 10, 200 * 2 ** 20])
    usage = SimpleNamespace(RUSAGE_SELF=0,
                            getrusage=lambda who: SimpleNamespace(ru_maxrss=next(readings)))
    monkeypatch.setattr(driver_module, "resource", usage)
    monkeypatch.setattr(driver_module, "sys", SimpleNamespace(platform="linux"))
    sc = load_scenario_file(tiny_file(tmp_path))
    assert run_scenario(sc).report["peak_rss_mb"] == 100.0
    res = run_scenario(sc, out_dir=tmp_path / "out")
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert on_disk["peak_rss_mb"] == res.report["peak_rss_mb"] == 150.0
    monkeypatch.setattr(driver_module, "sys", SimpleNamespace(platform="darwin"))
    assert run_scenario(sc).report["peak_rss_mb"] == 200.0
    monkeypatch.setattr(driver_module, "resource", None)
    run_scenario(sc, out_dir=tmp_path / "none")
    assert "peak_rss_mb" not in json.loads((tmp_path / "none" / "report.json").read_text())


@pytest.mark.parametrize("raw, match", [
    (_with(dirichlet={"1": "1/0", "2": "1"}), r"dirichlet tag 1 is not finite at point \(0\.0, "),
    (_with(dirichlet={"1": "0", "2": "x/0"}), r"dirichlet tag 2 is not finite at point \(1\.0, "),
    (_with(dirichlet={"1": NAN, "2": "1"}), r"dirichlet tag 1 is not finite at point .*: nan"),
    (_with(neumann={"3": "0", "4": "1/(x - x)"}), r"neumann tag 4 is not finite at point"),
    (_with(source="-1/0"), r"source is not finite at point .*: -inf"),
    (_with(exact="1/(x - x)"), r"exact is not finite at point .*: inf"),
], ids=["one-over-zero", "x-over-zero", "nan-number", "neumann", "source", "exact"])
def test_cli_non_finite_data_exits_2_where_it_enters(tmp_path, capsys, raw, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_non_finite_data_is_reported_once_without_a_numpy_warning(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_with(dirichlet={"1": "0", "2": "x/0"})))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "dirichlet tag 2 is not finite" in err and "Warning" not in err


STAGES = ["mesh", "dof_map", "assembly", "cg", "balance", "solution.vtk", "facets.vtk",
          "vertices.csv"]


def test_report_timings_are_the_stages_and_add_up_to_the_runtime(tmp_path):
    res = run_scenario(get_scenario("ex51"), refine=2, out_dir=tmp_path)
    timings, runtime = res.report["timings"], res.report["runtime_s"]
    assert list(timings) == STAGES + ["solution.npz"]
    assert all(t >= 0 for t in timings.values())
    assert 0.95 * runtime <= sum(timings.values()) <= runtime
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["timings"] == timings and on_disk["runtime_s"] == runtime


def test_stage_memory_prints_one_row_per_timed_stage(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "stage_memory.py"
    proc = subprocess.run([sys.executable, str(script), "ex52_vertical", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[3:-1]  # after the title, header and import rows
    names = run_scenario(get_scenario("ex52_vertical"), out_dir=tmp_path).report["timings"]
    assert [row.split()[0] for row in rows] == list(names)
    assert list(names) == STAGES + ["profile_profile.csv", "solution.npz"]
    assert all(len(row.split()) == 5 for row in rows)


def test_shipped_file_runs_as_its_builtin(tmp_path, monkeypatch):
    # the file a user would copy is the builtin's own definition, and its
    # relative mesh path resolves against the file's directory, not the cwd
    monkeypatch.chdir(tmp_path)
    shipped = builtin_scenarios()["ex52_vertical"].path
    assert main(["run", str(shipped), "--out", "by_file"]) == 0
    assert main(["run", "ex52_vertical", "--out", "by_name"]) == 0
    with np.load("by_file/solution.npz") as by_file, np.load("by_name/solution.npz") as by_name:
        assert sorted(by_file.files) == sorted(by_name.files)
        for key in by_file.files:
            assert np.array_equal(by_file[key], by_name[key]), key


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "nope"]) == 2
    assert main(["run", "nope.json"]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert main(["run", "ex55", "--out", str(tmp_path / "x")]) == 4
    assert "scenarios/ex55.json" in capsys.readouterr().err
    assert main(["run", "ex54c"]) == 2
    err = capsys.readouterr().err
    assert "boxdfm list" in err


@pytest.mark.parametrize("make, code, phrase", [
    (Path.mkdir, 4, "is a directory"),
    (lambda p: p.write_bytes(b'{"name": "caf\xe9"}'), 2, "is not UTF-8 text"),
], ids=["directory", "latin-1"])
def test_cli_unreadable_scenario_file_exits_without_traceback(tmp_path, make, code, phrase):
    path = tmp_path / "scenario.json"
    make(path)
    env = {**os.environ, "PYTHONPATH": str(Path(boxdfm.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "boxdfm.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert phrase in proc.stderr and str(path) in proc.stderr


def test_cli_list_marks_unavailable(capsys, monkeypatch):
    # list builds no scenario: a builtin is available iff its file ships
    def unbuildable(*args):
        raise AssertionError(f"list built {args}")

    monkeypatch.setattr("boxdfm.cli.get_scenario", unbuildable)
    assert main(["list"]) == 0
    stdout = capsys.readouterr().out
    for name in sorted(EXPECTED_NAMES):
        assert name in stdout
    assert [line for line in stdout.splitlines() if "unavailable" in line] == [
        "ex55           realistic 64-barrier network (geometry data required)"
        "  [unavailable: data not shipped]"]


def test_cli_slice_prints_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_file(tmp_path)), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["slice", str(out), "--from", "0,0.25", "--to", "1,0.25",
                 "-n", "5"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,x,y,p"
    assert len(lines) == 6
    code = main(["slice", str(out), "--from", "0,0.25", "--to", "2,0.25"])
    assert code == 2
    err = capsys.readouterr().err
    assert "outside the mesh" in err and "Traceback" not in err


def test_cli_convergence_writes_study(tmp_path, capsys):
    out = tmp_path / "conv"
    code = main(["convergence", str(tiny_file(tmp_path)),
                 "--levels", "1", "--out", str(out)])
    assert code == 0
    assert (out / "convergence.csv").exists()
    assert (out / "convergence.json").exists()


def test_warning_for_conductive_barrier_tangent():
    mesh = barrier_square(n=4)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-3, 1e-3, 1e3)}, dim=2)
    dofs, _ = collect_dirichlet(mesh, dm, {1: lambda p, r: np.zeros(len(p)),
                                           2: lambda p, r: np.ones(len(p))})
    notes = scenario_warnings(mesh, dm, mats, dofs)
    assert len(notes) == 1
    assert "tangential" in notes[0]


def test_warning_for_sealed_compartment():
    mesh = barrier_square(n=4)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 0.0)}, dim=2)
    dofs, _ = collect_dirichlet(mesh, dm, {1: lambda p, r: np.zeros(len(p))})
    notes = scenario_warnings(mesh, dm, mats, dofs)
    assert len(notes) == 1
    assert re.fullmatch(r"compartment with 23 dofs around vertex 15 \(0\.75, 0\) has no "
                        r"Dirichlet data; its pressure is pinned to 0 at that vertex", notes[0])
    # anchoring both sides clears it
    dofs2, _ = collect_dirichlet(mesh, dm, {1: lambda p, r: np.zeros(len(p)),
                                            2: lambda p, r: np.ones(len(p))})
    assert scenario_warnings(mesh, dm, mats, dofs2) == []


SEALED = {
    "name": "sealed",
    "description": "crossed grid cut by a k = 0 barrier, Dirichlet data on the left only",
    "dim": 2,
    "tag_map": {"1": "dirichlet", "2": "neumann", "3": "neumann", "4": "neumann",
                "10": "barrier"},
    "mesh": {"generator": "crossed_square", "n": 8,
             "segments": [{"from": [0.5, 0.0], "to": [0.5, 1.0], "tag": 10}]},
    "materials": {"matrix": {"1": 1.0}, "barriers": {"10": {"aperture": 1e-2, "k": 0.0}}},
    "dirichlet": {"1": "0"},
    "neumann": {"2": "0", "3": "0", "4": "0"},
}


@pytest.mark.parametrize("source, code", [("1", 2), ("0", 0), ("x - 0.75", 0)],
                         ids=["supplied", "no-supply", "balanced-supply"])
def test_cli_sealed_compartment_needs_zero_net_supply(tmp_path, capsys, source, code):
    # the right half has no Dirichlet data: a net supply there has no
    # solution and fails before the solve; a zero one (exactly, or up to
    # rounding for x - 0.75) solves with the half pinned at one vertex
    path = tmp_path / "sealed.json"
    path.write_text(json.dumps({**SEALED, "source": source}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert re.search(r"compartment with 77 dofs around vertex \d+ \(0\.[5-9]\d*, ", err)
        assert "net supply 0.5" in err and not out.exists()
    else:
        (warning,) = json.loads((out / "report.json").read_text())["warnings"]
        assert re.fullmatch(r"compartment with 77 dofs around vertex 45 \(0\.625, 0\) has "
                            r"no Dirichlet data; its pressure is pinned to 0 at that vertex",
                            warning)


NEUMANN_ONLY = {
    "name": "neumann-only",
    "description": "crossed grid with flux data on every side and no Dirichlet data",
    "tag_map": {str(t): "neumann" for t in range(1, 5)},
    "mesh": {"generator": "crossed_square", "n": 8},
    "neumann": {str(t): "0" for t in range(1, 5)},
}


def test_cli_pure_neumann_with_a_supply_fails(tmp_path, capsys):
    path = tmp_path / "neumann.json"
    path.write_text(json.dumps({**NEUMANN_ONLY, "source": "1"}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("compartment with 145 dofs around vertex 0 (0, 0) has no Dirichlet data but "
            "net supply 1; no pressure field balances it") in err
    assert "Traceback" not in err and not out.exists()


def test_run_builds_the_compartment_graph_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(assembly_module, "connected_components", counted)
    path = tmp_path / "sealed.json"
    path.write_text(json.dumps({**SEALED, "source": "0"}))
    assert len(run_scenario(load_scenario_file(path)).report["warnings"]) == 1
    assert len(calls) == 1


def test_balanced_pure_neumann_runs_with_one_pin(tmp_path):
    path = tmp_path / "neumann.json"
    path.write_text(json.dumps({**NEUMANN_ONLY, "source": "x - 0.5"}))
    res = run_scenario(load_scenario_file(path))
    assert res.report["warnings"] == ["compartment with 145 dofs around vertex 0 (0, 0) has no "
                                      "Dirichlet data; its pressure is pinned to 0 at that vertex"]
    assert res.system.dirichlet_dofs.tolist() == [0]
    assert res.field.values[0] == 0.0
    assert dense_spd_check(res.system.A).cholesky_ok


def test_bundle_keeps_its_array_order(tmp_path):
    out = tmp_path / "run"
    run_scenario(load_scenario_file(tiny_file(tmp_path)), out_dir=out)
    with np.load(out / "solution.npz") as z:
        assert z.files == ["vertices", "cells", "facets", "facet_tags", "facet_kinds",
                           "cell_region", "cell_dofs", "dof_vertex", "values", "policy",
                           "ufacets", "ufacet_cells", "facet_to_ufacet", "cell_neighbors"]
