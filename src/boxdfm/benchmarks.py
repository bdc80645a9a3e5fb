"""Builtin benchmark scenarios.

The suite covers a manufactured-solution convergence study (ex51), single
vertical/slanted barriers (ex52), a regular six-barrier network (ex53), a
mixed conductive/blocking network run under both intersection policies
(ex54), a realistic 64-barrier field whose geometry is not
redistributable (ex55, reported unavailable), a three-dimensional
nine-barrier cube (ex56), and a validity study with varying tangential
permeability including its equi-dimensional thin-strip reference (ex57).
Geometry that is not fixed by the setup itself ships as JSON data files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import ValidationError
from .generators import (crossed_square_mesh, delaunay_rect_mesh,
                         kuhn_cube_mesh, strip_grid_mesh)
from .materials import BarrierLaw, FractureLaw, MaterialModel
from .msh_io import load_msh
from .scenario import (Scenario, SliceSpec, SolverSettings, boundary_flux,
                       box_boundary_fn, box_region_fn, data_file,
                       load_geometry, parse_planes, parse_segments,
                       scalar_field)

__all__ = [
    "builtin_scenarios",
    "get_scenario",
    "scenario_names",
    "ex51_scenario",
    "ex52_scenario",
    "ex53_scenario",
    "ex54_scenario",
    "ex55_scenario",
    "ex56_scenario",
    "ex57_scenario",
    "ex57_equidim_scenario",
    "analytic_barrier_scenario",
]

def ex51_scenario() -> Scenario:
    """Convergence study: smooth two-sided solution with a unit-coupling
    jump across the barrier x = 0.5, Dirichlet data on all sides."""
    tag_map = {1: "dirichlet", 2: "dirichlet", 3: "dirichlet", 4: "dirichlet",
               10: "barrier"}

    def region(centroids):
        return np.where(centroids[:, 0] < 0.5, 1, 2)

    exact = {"by_region": {1: "sin(x)*sin(y)",
                           2: "sin(x)*sin(y) + cos(0.5)*sin(y)"}}
    source = {"by_region": {1: "2*sin(x)*sin(y)",
                            2: "2*sin(x)*sin(y) + cos(0.5)*sin(y)"}}
    g = scalar_field(exact, 2)
    return Scenario(
        name="ex51",
        description="convergence test: manufactured discontinuous solution, "
                    "barrier at x=0.5 with k_b/a=1",
        dim=2,
        # unstructured base: crossed patterns superconverge on the coarse
        # levels, which drags the first observed order below 1.9
        base_mesh=partial(delaunay_rect_mesh, ((0.0, 0.0), (1.0, 1.0)), 0.085, seed=2,
                          segments=[((0.5, 0.0), (0.5, 1.0), 10)],
                          region_fn=region, tag_map=tag_map),
        materials=MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                                barriers={10: BarrierLaw(1e-2, 1e-2)}, dim=2),
        dirichlet={1: g, 2: g, 3: g, 4: g},
        source=scalar_field(source, 2),
        exact=scalar_field(exact, 2),
        solver=SolverSettings(tol=1e-12),
    )


def ex52_scenario(orientation: str = "vertical", k_b: float = 1e-7) -> Scenario:
    """Single partial barrier in a left-to-right pressure drop.

    The shipped grids reproduce the published vertex/triangle counts
    (253/450 vertical, 229/404 slanted). The aperture is 1e-2, so the
    default k_b gives k_b/a = 1e-5; passing other k_b values covers the
    permeable and sealed limits.
    """
    aperture = 1e-2
    if orientation not in ("vertical", "slanted"):
        raise ValidationError(f"unknown ex52 orientation {orientation!r}; "
                              "known are 'vertical', 'slanted'")
    tag_map = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann",
               10: "barrier"}
    path = data_file(f"meshes/ex52_{orientation}.msh")
    slice_y = 0.75 if orientation == "vertical" else 0.5
    return Scenario(
        name=f"ex52_{orientation}",
        description=f"single {orientation} barrier, k_b/a={k_b / aperture:g}, "
                    "Dirichlet 0/1 left/right",
        dim=2,
        base_mesh=partial(load_msh, path, tag_map),
        materials=MaterialModel(matrix={1: 1.0}, fractures={},
                                barriers={10: BarrierLaw(aperture, k_b)}, dim=2),
        dirichlet={1: scalar_field("0", 2), 2: scalar_field("1", 2)},
        neumann={3: boundary_flux("0", 2), 4: boundary_flux("0", 2)},
        slices=(SliceSpec("profile", (0.0, slice_y), (1.0, slice_y), n=400),),
        solver=SolverSettings(tol=1e-11),
    )


def ex53_scenario() -> Scenario:
    """Regular six-barrier network, inflow of magnitude 1 on the left
    (stored as g_N = -1 under the outflow-positive convention), Dirichlet
    1 on the right."""
    geo = load_geometry("ex53_network.json")
    segments = parse_segments(geo["segments"])
    barrier_tags = sorted(s[2] for s in segments)
    tag_map = {1: "neumann", 2: "dirichlet", 3: "neumann", 4: "neumann"}
    tag_map.update({t: "barrier" for t in barrier_tags})
    return Scenario(
        name="ex53",
        description="regular six-barrier network, a=k_b=1e-4, "
                    "left inflow, right Dirichlet 1",
        dim=2,
        base_mesh=partial(delaunay_rect_mesh, geo["domain"], 0.07, segments=segments,
                          seed=2, tag_map=tag_map),
        materials=MaterialModel(
            matrix={1: 1.0}, fractures={},
            barriers={t: BarrierLaw(1e-4, 1e-4) for t in barrier_tags}, dim=2),
        dirichlet={2: scalar_field("1", 2)},
        neumann={1: boundary_flux("-1", 2), 3: boundary_flux("0", 2),
                 4: boundary_flux("0", 2)},
        slices=(SliceSpec("diag", (0.0, 0.1), (0.9, 1.0), n=600),),
        solver=SolverSettings(tol=1e-11),
    )


def ex54_scenario(sub: str = "a") -> Scenario:
    """Mixed network: 8 conductive fractures crossing 2 blocking barriers.

    Sub-case "a" drives flow top to bottom (Dirichlet 4/1), sub-case "b"
    left to right. The intersection policy decides whether pressure stays
    continuous where a fracture crosses a barrier; run with either.
    """
    if sub not in ("a", "b"):
        raise ValidationError(f"unknown ex54 sub-case {sub!r}; known are 'a', 'b'")
    geo = load_geometry("ex54_network.json")
    segments = parse_segments(geo["segments"])
    fract = [int(t) for t in geo["fracture_tags"]]
    barr = [int(t) for t in geo["barrier_tags"]]
    if sub == "a":
        side_map = {1: "neumann", 2: "neumann", 3: "dirichlet", 4: "dirichlet"}
        dirichlet = {4: scalar_field("4", 2), 3: scalar_field("1", 2)}
        neumann = {1: boundary_flux("0", 2), 2: boundary_flux("0", 2)}
    else:
        side_map = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann"}
        dirichlet = {1: scalar_field("4", 2), 2: scalar_field("1", 2)}
        neumann = {3: boundary_flux("0", 2), 4: boundary_flux("0", 2)}
    tag_map = dict(side_map)
    tag_map.update({t: "fracture" for t in fract})
    tag_map.update({t: "barrier" for t in barr})
    return Scenario(
        name=f"ex54{sub}",
        description="complex fracture-barrier network, k_f=1e4, k_b=1e-4, "
                    + ("flow top to bottom" if sub == "a" else "flow left to right"),
        dim=2,
        base_mesh=partial(delaunay_rect_mesh, geo["domain"], 0.03, segments=segments,
                          seed=4, tag_map=tag_map),
        materials=MaterialModel(
            matrix={1: 1.0},
            fractures={t: FractureLaw(1e-4, 1e4) for t in fract},
            barriers={t: BarrierLaw(1e-4, 1e-4) for t in barr}, dim=2),
        dirichlet=dirichlet,
        neumann=neumann,
        slices=(SliceSpec("diag", (0.0, 0.5), (1.0, 0.9), n=600),),
        solver=SolverSettings(tol=1e-11),
    )


def ex55_scenario() -> Scenario:
    """Realistic 64-barrier outcrop network on a 700 m x 600 m domain.

    The barrier coordinates are not redistributable with this package, so
    the geometry file is absent and building the scenario raises
    MissingDataError. Supplying data/ex55_network.json (same schema as the
    other network files) makes it runnable.
    """
    geo = load_geometry("ex55_network.json")
    segments = parse_segments(geo["segments"])
    barrier_tags = sorted({s[2] for s in segments})
    tag_map = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann"}
    tag_map.update({t: "barrier" for t in barrier_tags})
    return Scenario(
        name="ex55",
        description="realistic 64-barrier network, 700x600 m, "
                    "Dirichlet 1013250/0",
        dim=2,
        base_mesh=partial(delaunay_rect_mesh, geo["domain"], 18.0, segments=segments,
                          seed=6, tag_map=tag_map),
        materials=MaterialModel(
            matrix={1: 1e-14}, fractures={},
            barriers={t: BarrierLaw(1e-2, 1e-18) for t in barrier_tags}, dim=2),
        dirichlet={1: scalar_field("1013250", 2), 2: scalar_field("0", 2)},
        neumann={3: boundary_flux("0", 2), 4: boundary_flux("0", 2)},
        slices=(SliceSpec("diag", (0.0, 0.0), (700.0, 600.0), n=600),
                SliceSpec("x625", (625.0, 0.0), (625.0, 600.0), n=600)),
        solver=SolverSettings(tol=1e-11),
    )


def ex56_scenario() -> Scenario:
    """Nine axis-aligned barriers in the unit cube with two matrix blocks.

    Dirichlet 1 on the corner patch x,y,z > 0.875, inflow of magnitude 1
    on the corner patch x,y,z < 0.25 (stored as g_N = -1), no-flow
    elsewhere. The base grid has 8 cells per side, which resolves every
    plane and patch bound.
    """
    geo = load_geometry("ex56_geometry.json")
    planes = parse_planes(geo["planes"])
    region_fn = box_region_fn(geo["low_k_regions"])
    boundary_fn = box_boundary_fn(geo["boundary_boxes"])
    barrier_tags = sorted(p[4] for p in planes)
    tag_map = {i: "neumann" for i in range(1, 7)}
    tag_map.update({7: "dirichlet", 8: "neumann"})
    tag_map.update({t: "barrier" for t in barrier_tags})
    neumann = {i: boundary_flux("0", 3) for i in range(1, 7)}
    neumann[8] = boundary_flux("-1", 3)
    return Scenario(
        name="ex56",
        description="nine-barrier unit cube, two matrix blocks (k=1, 0.1), "
                    "corner inflow and corner Dirichlet",
        dim=3,
        base_mesh=partial(kuhn_cube_mesh, 8, planes=planes, region_fn=region_fn,
                          boundary_tag_fn=boundary_fn, tag_map=tag_map),
        materials=MaterialModel(
            matrix={1: 1.0, 2: 0.1}, fractures={},
            barriers={t: BarrierLaw(1e-4, 1e-4) for t in barrier_tags}, dim=3),
        dirichlet={7: scalar_field("1", 3)},
        neumann=neumann,
        slices=(SliceSpec("diag", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), n=300),),
        solver=SolverSettings(tol=1e-11),
    )


_EX57_BARRIERS = (
    ((0.3, 0.2), (1.0, 0.2), 51),
    ((0.0, 0.4), (0.7, 0.4), 52),
    ((0.3, 0.6), (1.0, 0.6), 53),
    ((0.0, 0.8), (0.7, 0.8), 54),
)
_EX57_APERTURE = 1e-3
_EX57_KN = 1e-3


def _ex57_bcs(sub: str):
    if sub == "a":
        side_map = {1: "neumann", 2: "neumann", 3: "dirichlet", 4: "dirichlet"}
        dirichlet = {4: scalar_field("1", 2), 3: scalar_field("0", 2)}
        neumann = {1: boundary_flux("0", 2), 2: boundary_flux("0", 2)}
    elif sub == "b":
        side_map = {i: "dirichlet" for i in range(1, 5)}
        g = scalar_field("(2*x - 1)*(3*x - 1)", 2)
        dirichlet = {i: g for i in range(1, 5)}
        neumann = {}
    else:
        raise ValidationError(f"unknown ex57 sub-case {sub!r}; known are 'a', 'b'")
    return side_map, dirichlet, neumann


def ex57_scenario(sub: str = "a", k_tau: float = 1e-3) -> Scenario:
    """Validity study: four barriers with varying tangential permeability.

    k_tau applies to the two right-anchored barriers and is recorded on
    their laws only; the model neglects tangential flow, so the discrete
    solution is k_tau-independent. Compare against ex57_equidim_scenario
    to measure the model error this neglect causes.
    """
    side_map, dirichlet, neumann = _ex57_bcs(sub)
    tag_map = dict(side_map)
    tag_map.update({t: "barrier" for _, _, t in _EX57_BARRIERS})
    a, kn = _EX57_APERTURE, _EX57_KN
    barriers = {
        51: BarrierLaw(a, kn, k_tau),
        52: BarrierLaw(a, kn, kn),
        53: BarrierLaw(a, kn, k_tau),
        54: BarrierLaw(a, kn, kn),
    }
    return Scenario(
        name=f"ex57{sub}",
        description=f"validity study, four barriers, k_n={kn:g}, "
                    f"k_tau={k_tau:g} on the right-anchored pair",
        dim=2,
        base_mesh=partial(crossed_square_mesh, 70, jitter=0.3, seed=11,
                          keep_x=(0.3, 0.7), keep_y=(0.2, 0.4, 0.6, 0.8),
                          segments=list(_EX57_BARRIERS), tag_map=tag_map),
        materials=MaterialModel(matrix={1: 1.0}, fractures={},
                                barriers=barriers, dim=2),
        dirichlet=dirichlet,
        neumann=neumann,
        slices=(SliceSpec("x065", (0.65, 0.0), (0.65, 1.0), n=400),),
        solver=SolverSettings(tol=1e-11),
    )


def ex57_equidim_scenario(sub: str = "a", k_tau: float = 1e-3) -> Scenario:
    """Equi-dimensional reference for ex57: barriers as meshed strips.

    Each barrier becomes a strip of width a around its axis, carrying the
    anisotropic tensor diag(k_tau, k_n); this resolves the tangential flow
    the reduced model drops. Region 2 holds the fixed-k_tau pair, region 3
    the varying pair.
    """
    side_map, dirichlet, neumann = _ex57_bcs(sub)
    a, kn = _EX57_APERTURE, _EX57_KN
    half = a / 2.0

    def merged(vals, tol=1e-9):
        # collapse float near-duplicates (0.3 vs linspace's 48/160)
        vals = np.sort(np.asarray(vals, dtype=np.float64))
        keep = np.ones(len(vals), dtype=bool)
        keep[1:] = np.diff(vals) > tol
        return vals[keep]

    xs = merged(np.concatenate([np.linspace(0.0, 1.0, 161), [0.3, 0.7]]))
    base_y = np.linspace(0.0, 1.0, 321)
    centers = np.array([0.2, 0.4, 0.6, 0.8])
    keep = np.all(np.abs(base_y[:, None] - centers[None, :]) > a, axis=1)
    ys = merged(np.concatenate([base_y[keep], centers - half, centers + half]))

    def region(c):
        out = np.ones(len(c), dtype=np.int64)
        right = c[:, 0] > 0.3
        left = c[:, 0] < 0.7
        var = ((np.abs(c[:, 1] - 0.2) < half) | (np.abs(c[:, 1] - 0.6) < half)) & right
        fix = ((np.abs(c[:, 1] - 0.4) < half) | (np.abs(c[:, 1] - 0.8) < half)) & left
        out[fix] = 2
        out[var] = 3
        return out

    return Scenario(
        name=f"ex57{sub}_equidim",
        description=f"thin-strip reference for ex57{sub}, k_tau={k_tau:g}",
        dim=2,
        base_mesh=partial(strip_grid_mesh, xs, ys, region_fn=region, tag_map=side_map),
        materials=MaterialModel(
            matrix={1: 1.0, 2: kn, 3: np.diag([k_tau, kn])},
            fractures={}, barriers={}, dim=2),
        dirichlet=dirichlet,
        neumann=neumann,
        slices=(SliceSpec("x065", (0.65, 0.0), (0.65, 1.0), n=400),),
        solver=SolverSettings(tol=1e-11),
    )


def analytic_barrier_scenario(beta: float = 1e-5, h: float = 0.11,
                              seed: int = 1) -> Scenario:
    """Full-height vertical barrier with the series-resistance solution.

    The exact solution is piecewise linear (slope s = 1/(1 + 1/beta), jump
    s/beta at x = 0.5), which the scheme reproduces to rounding on any
    conforming grid.
    """
    s = 1.0 / (1.0 + 1.0 / beta)
    jump = s / beta
    tag_map = {1: "dirichlet", 2: "dirichlet", 3: "neumann", 4: "neumann",
               10: "barrier"}

    def region(centroids):
        return np.where(centroids[:, 0] < 0.5, 1, 2)

    exact = {"by_region": {1: f"{s!r}*x", 2: f"{s!r}*x + {jump!r}"}}
    return Scenario(
        name="analytic_barrier",
        description=f"full-height vertical barrier, k_b/a={beta:g}, "
                    "exact piecewise-linear solution",
        dim=2,
        base_mesh=partial(delaunay_rect_mesh, ((0.0, 0.0), (1.0, 1.0)), h,
                          segments=[((0.5, 0.0), (0.5, 1.0), 10)],
                          seed=seed, region_fn=region, tag_map=tag_map),
        materials=MaterialModel(matrix={1: 1.0, 2: 1.0}, fractures={},
                                barriers={10: BarrierLaw(1e-2, beta * 1e-2)},
                                dim=2),
        dirichlet={1: scalar_field("0", 2), 2: scalar_field("1", 2)},
        neumann={3: boundary_flux("0", 2), 4: boundary_flux("0", 2)},
        exact=scalar_field(exact, 2),
        slices=(SliceSpec("profile", (0.0, 0.75), (1.0, 0.75), n=400),),
        solver=SolverSettings(tol=1e-13),
    )


@dataclass
class ScenarioEntry:
    name: str
    summary: str
    build: Callable[[], Scenario]


_REGISTRY = (
    ScenarioEntry("ex51", "convergence test, manufactured jump solution",
                  ex51_scenario),
    ScenarioEntry("ex52_vertical", "single vertical barrier, k_b/a=1e-5",
                  lambda: ex52_scenario("vertical")),
    ScenarioEntry("ex52_slanted", "single slanted barrier, k_b/a=1e-5",
                  lambda: ex52_scenario("slanted")),
    ScenarioEntry("ex53", "regular six-barrier network", ex53_scenario),
    ScenarioEntry("ex54a", "complex fracture-barrier network, top-down flow",
                  lambda: ex54_scenario("a")),
    ScenarioEntry("ex54b", "complex fracture-barrier network, left-right flow",
                  lambda: ex54_scenario("b")),
    ScenarioEntry("ex55", "realistic 64-barrier network (geometry data required)",
                  ex55_scenario),
    ScenarioEntry("ex56", "nine-barrier unit cube, two matrix blocks",
                  ex56_scenario),
    ScenarioEntry("ex57a", "validity study (a), k_tau=1e-3",
                  lambda: ex57_scenario("a", 1e-3)),
    ScenarioEntry("ex57a_kt1", "validity study (a), k_tau=1",
                  lambda: ex57_scenario("a", 1.0)),
    ScenarioEntry("ex57a_kt1e3", "validity study (a), k_tau=1e3",
                  lambda: ex57_scenario("a", 1e3)),
    ScenarioEntry("ex57b", "validity study (b), k_tau=1e-3",
                  lambda: ex57_scenario("b", 1e-3)),
    ScenarioEntry("ex57b_kt1", "validity study (b), k_tau=1",
                  lambda: ex57_scenario("b", 1.0)),
    ScenarioEntry("ex57b_kt1e3", "validity study (b), k_tau=1e3",
                  lambda: ex57_scenario("b", 1e3)),
)


def builtin_scenarios() -> dict[str, ScenarioEntry]:
    """All builtin entries by name; building one may raise MissingDataError
    when its geometry data is not shipped (ex55)."""
    return {e.name: e for e in _REGISTRY}


def scenario_names() -> list[str]:
    return [e.name for e in _REGISTRY]


def get_scenario(name: str) -> Scenario:
    entries = builtin_scenarios()
    if name not in entries:
        raise KeyError(name)
    return entries[name].build()
