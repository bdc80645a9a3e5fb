"""Builtin benchmark scenarios.

Each builtin is a scenario file shipped in data/scenarios and read by
load_scenario_file, the path a user's scenario takes: ex51 to ex57 of the
paper, except ex55, whose geometry is not redistributable (no file ships,
so it is reported unavailable). The variants below override one value of
a file's dict, or a literal dict; the thin-strip reference of ex57 needs
a mesh the schema has no generator for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import MissingDataError, ValidationError
from .generators import strip_grid_mesh
from .materials import MaterialModel
from .scenario import Scenario, box_region_fn, load_scenario_file, scenario_from_dict

__all__ = ["builtin_scenarios", "get_scenario", "scenario_names", "ex52_scenario",
           "ex57_equidim_scenario", "analytic_barrier_scenario"]

SCENARIO_DIR = Path(__file__).parent / "data" / "scenarios"


def _shipped(stem: str) -> dict:
    """The dict of the shipped scenario file <stem>.json."""
    with open(SCENARIO_DIR / f"{stem}.json") as fh:
        return json.load(fh)


# the right-anchored ex57 barriers, whose tangential permeability varies
_K_TAU_TAGS = ("51", "53")


def _with_k_tau(raw: dict, k_tau: float) -> dict:
    """An ex57 dict with k_tau on the right-anchored barriers."""
    laws = raw["materials"]["barriers"]
    old = laws[_K_TAU_TAGS[0]]["k_tangential"]
    for tag in _K_TAU_TAGS:
        laws[tag]["k_tangential"] = k_tau
    raw["description"] = raw["description"].replace(f"k_tau={old:g}", f"k_tau={k_tau:g}")
    return raw


def ex52_scenario(orientation: str = "vertical", k_b: float = 1e-7) -> Scenario:
    """ex52_<orientation> with barrier permeability k_b.

    The aperture is 1e-2, so the shipped k_b = 1e-7 gives k_b/a = 1e-5;
    other values cover the permeable and sealed limits.
    """
    if orientation not in ("vertical", "slanted"):
        raise ValidationError(f"unknown ex52 orientation {orientation!r}; "
                              "known are 'vertical', 'slanted'")
    raw = _shipped(f"ex52_{orientation}")
    law = raw["materials"]["barriers"]["10"]
    a, old = law["aperture"], law["k"]
    law["k"] = k_b
    raw["description"] = raw["description"].replace(f"k_b/a={old / a:g}", f"k_b/a={k_b / a:g}")
    # its mesh file is named relative to the shipped file
    return scenario_from_dict(raw, base_dir=SCENARIO_DIR)


def ex57_equidim_scenario(sub: str = "a", k_tau: float = 1e-3) -> Scenario:
    """Equi-dimensional reference for ex57: barriers as meshed strips.

    Each barrier becomes a strip of width a around its axis, carrying the
    anisotropic tensor diag(k_tau, k_n); this resolves the tangential flow
    the reduced model drops. Region 2 holds the fixed-k_tau pair, region 3
    the varying pair. Geometry, side tags, boundary data, slices and solver
    settings are those of ex57<sub>.
    """
    if sub not in ("a", "b"):
        raise ValidationError(f"unknown ex57 sub-case {sub!r}; known are 'a', 'b'")
    raw = _shipped(f"ex57{sub}")
    law = raw["materials"]["barriers"]["52"]
    a, kn = law["aperture"], law["k"]
    half = a / 2.0
    segments = raw["mesh"]["segments"]
    # each strip is the box around its segment; the strips of the k_tau pair are region 3
    region = box_region_fn([{"box": [[s["from"][0], s["from"][1] - half],
                                     [s["to"][0], s["to"][1] + half]],
                             "region": 3 if str(s["tag"]) in _K_TAU_TAGS else 2}
                            for s in segments])
    sides = {t: kind for t, kind in raw["tag_map"].items() if kind != "barrier"}

    def merged(vals, tol=1e-9):
        # collapse float near-duplicates (0.3 vs linspace's 48/160)
        vals = np.sort(np.asarray(vals, dtype=np.float64))
        keep = np.ones(len(vals), dtype=bool)
        keep[1:] = np.diff(vals) > tol
        return vals[keep]

    xs = merged(np.concatenate([np.linspace(0.0, 1.0, 161), raw["mesh"]["keep_x"]]))
    base_y = np.linspace(0.0, 1.0, 321)
    centers = np.array(sorted(s["from"][1] for s in segments))
    keep = np.all(np.abs(base_y[:, None] - centers[None, :]) > a, axis=1)
    ys = merged(np.concatenate([base_y[keep], centers - half, centers + half]))

    return replace(
        scenario_from_dict(raw),
        name=f"ex57{sub}_equidim",
        description=f"thin-strip reference for ex57{sub}, k_tau={k_tau:g}",
        base_mesh=partial(strip_grid_mesh, xs, ys, region_fn=region, tag_map=sides),
        materials=MaterialModel(matrix={1: 1.0, 2: kn, 3: np.diag([k_tau, kn])},
                                fractures={}, barriers={}, dim=2),
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
    return scenario_from_dict({
        "name": "analytic_barrier",
        "description": f"full-height vertical barrier, k_b/a={beta:g}, "
                       "exact piecewise-linear solution",
        "tag_map": {"1": "dirichlet", "2": "dirichlet", "3": "neumann", "4": "neumann",
                    "10": "barrier"},
        "mesh": {"generator": "delaunay_rect", "h": h, "seed": seed,
                 "segments": [{"from": [0.5, 0.0], "to": [0.5, 1.0], "tag": 10}],
                 "regions": [{"box": [[0.5, 0.0], [1.0, 1.0]], "region": 2}]},
        "materials": {"matrix": {"1": 1.0, "2": 1.0},
                      "barriers": {"10": {"aperture": 1e-2, "k": beta * 1e-2}}},
        "dirichlet": {"1": "0", "2": "1"},
        "neumann": {"3": "0", "4": "0"},
        "exact": {"by_region": {"1": f"{s!r}*x", "2": f"{s!r}*x + {jump!r}"}},
        "solver": {"tol": 1e-13},
        "slices": [{"name": "profile", "from": [0.0, 0.75], "to": [1.0, 0.75], "n": 400}],
    })


@dataclass(frozen=True)
class ScenarioEntry:
    """A builtin: the stem of its shipped file (default: its name) and, for
    an ex57 variant, the k_tau that overrides the file's."""
    name: str
    summary: str
    file: str = ""
    k_tau: float | None = None

    @property
    def path(self) -> Path:
        return SCENARIO_DIR / f"{self.file or self.name}.json"

    @property
    def available(self) -> bool:
        """Whether its file ships; ex55's geometry is not redistributable."""
        return self.path.is_file()


_REGISTRY = (
    ScenarioEntry("ex51", "convergence test, manufactured jump solution"),
    ScenarioEntry("ex52_vertical", "single vertical barrier, k_b/a=1e-5"),
    ScenarioEntry("ex52_slanted", "single slanted barrier, k_b/a=1e-5"),
    ScenarioEntry("ex53", "regular six-barrier network"),
    ScenarioEntry("ex54a", "complex fracture-barrier network, top-down flow"),
    ScenarioEntry("ex54b", "complex fracture-barrier network, left-right flow"),
    ScenarioEntry("ex55", "realistic 64-barrier network (geometry data required)"),
    ScenarioEntry("ex56", "nine-barrier unit cube, two matrix blocks"),
    ScenarioEntry("ex57a", "validity study (a), k_tau=1e-3"),
    ScenarioEntry("ex57a_kt1", "validity study (a), k_tau=1", "ex57a", 1.0),
    ScenarioEntry("ex57a_kt1e3", "validity study (a), k_tau=1e3", "ex57a", 1e3),
    ScenarioEntry("ex57b", "validity study (b), k_tau=1e-3"),
    ScenarioEntry("ex57b_kt1", "validity study (b), k_tau=1", "ex57b", 1.0),
    ScenarioEntry("ex57b_kt1e3", "validity study (b), k_tau=1e3", "ex57b", 1e3),
)


def builtin_scenarios() -> dict[str, ScenarioEntry]:
    """All builtin entries by name, available or not."""
    return {e.name: e for e in _REGISTRY}


def scenario_names() -> list[str]:
    return [e.name for e in _REGISTRY]


def get_scenario(name: str) -> Scenario:
    """The builtin name, read from its shipped file; KeyError for an unknown
    name, MissingDataError for a builtin whose file is not shipped (ex55)."""
    entry = builtin_scenarios()[name]
    if not entry.available:
        raise MissingDataError(
            f"scenario file scenarios/{entry.path.name} is not shipped with this package; "
            "its geometry comes from an external source (the README gives the JSON to supply)")
    if entry.k_tau is None:
        return load_scenario_file(entry.path)
    raw = _with_k_tau(_shipped(entry.file), entry.k_tau)
    return scenario_from_dict(raw, base_dir=SCENARIO_DIR)
