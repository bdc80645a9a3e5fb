"""Declarative problem descriptions.

A Scenario bundles everything one run needs: a builder of its base mesh,
whose uniform refinements give every level, material laws, boundary data
as expression strings, the source term, the intersection policy, solver
settings, and the profile slices to extract afterwards. Scenarios are JSON
files following the schema documented in the README; the builtin benchmarks
are such files, shipped in data/scenarios (see benchmarks.py).
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .dofspace import _policy_key
from .errors import MissingDataError, ValidationError, as_int
from .expressions import compile_expression
from .generators import crossed_square_mesh, delaunay_rect_mesh, kuhn_cube_mesh
from .linalg import _check_preconditioner
from .materials import BarrierLaw, FractureLaw, MaterialModel
from .mesh import FacetKind, Mesh, parse_kind
from .msh_io import load_msh
from .refine import uniform_refine
from .solution import SIDES, _check_slice

__all__ = [
    "Scenario",
    "SliceSpec",
    "SolverSettings",
    "scalar_field",
    "load_scenario_file",
    "validate_against_mesh",
]


def _positive(value, what: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
    if not (np.isfinite(x) and x > 0):
        raise ValidationError(f"{what} must be finite and > 0, got {x!r}")
    return x


@dataclass
class SolverSettings:
    """CG settings, checked on construction so a bad one fails before any
    mesh is built."""

    tol: float = 1e-10
    max_iter: int | None = None
    preconditioner: str = "ic0"

    def __post_init__(self):
        self.tol = _positive(self.tol, "solver tolerance")
        if self.tol >= 1:
            # CG starts from x = 0, where the relative residual is 1
            raise ValidationError(f"solver tolerance must be below 1, got {self.tol!r}")
        if self.max_iter is not None:
            self.max_iter = as_int(self.max_iter, "solver max_iter must be an integer", 1)
        _check_preconditioner(self.preconditioner)


@dataclass
class SliceSpec:
    name: str
    start: tuple
    end: tuple
    n: int = 200
    side: str = SIDES[0]


@dataclass
class Scenario:
    """One fully specified run.

    Every data callable takes (points, regions): dirichlet and neumann map
    tag -> g(points, regions), where the Neumann g is the outward normal
    flux density (positive drains the domain), and source and exact are
    such callables too. exact, when present, enables convergence studies
    and carries the target order window. base_mesh builds the level-0 mesh; level l is
    its uniform refinement l times (mesh_factory).
    """

    name: str
    dim: int
    base_mesh: Callable[[], Mesh]
    materials: MaterialModel
    description: str = ""
    dirichlet: dict = field(default_factory=dict)
    neumann: dict = field(default_factory=dict)
    source: Callable | None = None
    policy: str = "barrier-cuts"
    solver: SolverSettings = field(default_factory=SolverSettings)
    slices: tuple = ()
    exact: Callable | None = None
    order_window: tuple = (1.9, 2.1)
    default_refine: int = 0

    def mesh_factory(self, level: int) -> Mesh:
        """The base mesh refined uniformly level times."""
        return uniform_refine(self.base_mesh(), level)


def scalar_field(spec, dim: int) -> Callable:
    """(points, regions) callable from an expression or a by-region table.

    spec may be a number, an expression string over x,y,z, or
    {"by_region": {region: expression}} for side-dependent data.
    """
    if isinstance(spec, dict):
        table = spec.get("by_region")
        if not isinstance(table, dict) or not table:
            raise ValidationError(f"expected {{'by_region': {{...}}}}, got {spec!r}")
        fns = {int(r): compile_expression(e, dim) for r, e in table.items()}

        def by_region(points, regions):
            points = np.asarray(points, dtype=np.float64)
            regions = np.asarray(regions)
            out = np.empty(len(points))
            seen = np.zeros(len(points), dtype=bool)
            for r, fn in fns.items():
                m = regions == r
                out[m] = fn(points[m])
                seen |= m
            if not seen.all():
                missing = sorted(set(regions[~seen].tolist()))
                raise ValidationError(f"no expression for region(s) {missing}")
            return out

        return by_region

    fn = compile_expression(spec, dim)

    def uniform(points, regions):
        return fn(np.asarray(points, dtype=np.float64))

    return uniform


def parse_segments(rows) -> list:
    """[{from, to, tag}] -> [(p0, p1, tag)] as the generators expect."""
    out = []
    for r in rows:
        out.append((tuple(map(float, r["from"])), tuple(map(float, r["to"])), int(r["tag"])))
    return out


def parse_planes(rows) -> list:
    """[{axis, coord, extent, tag}] -> [(axis, coord, lo2, hi2, tag)]."""
    out = []
    for r in rows:
        lo2, hi2 = r["extent"]
        out.append((int(r["axis"]), float(r["coord"]),
                    tuple(map(float, lo2)), tuple(map(float, hi2)), int(r["tag"])))
    return out


def box_region_fn(boxes):
    """Cell-region classifier from [{box: [lo, hi], region: id}] rows.

    Later boxes override earlier ones; centroids outside every box get
    region 1.
    """
    parsed = [(np.asarray(b["box"][0], float), np.asarray(b["box"][1], float),
               int(b["region"])) for b in boxes]

    def fn(centroids):
        out = np.full(len(centroids), 1, dtype=np.int64)
        for lo, hi, reg in parsed:
            inside = np.all((centroids >= lo) & (centroids <= hi), axis=1)
            out[inside] = reg
        return out

    return fn


def box_boundary_fn(boxes):
    """Boundary-tag override from [{box: [lo, hi], tag: id}] rows, each box
    widened by 1e-9."""
    parsed = [(np.asarray(b["box"][0], float), np.asarray(b["box"][1], float),
               int(b["tag"])) for b in boxes]

    def fn(mids, tags):
        out = np.array(tags, dtype=np.int64)
        for lo, hi, tag in parsed:
            inside = np.all((mids >= lo - 1e-9) & (mids <= hi + 1e-9), axis=1)
            out[inside] = tag
        return out

    return fn


def _parse_tag_map(raw: dict) -> dict:
    out = {}
    for tag, kind in raw.items():
        try:
            out[int(tag)] = parse_kind(str(kind).strip())
        except ValidationError as e:
            raise ValidationError(f"tag {tag}: {e}") from None
    return out


def _file_int(value):
    """A JSON value as an integer where a scenario file may write one as an
    integral float or a string; any other value unchanged, for as_int."""
    with suppress(ValueError):
        if isinstance(value, str) or isinstance(value, float) and value.is_integer():
            return int(value)
    return value


def _integer(what: str, least: int | None) -> Callable:
    return lambda v: as_int(_file_int(v), f"{what} must be an integer", least)


def _boundary_div(div) -> tuple:
    div = tuple(map(_integer("each boundary_div entry", None), div))
    if len(div) != 4 or min(div) < 1:
        raise ValidationError(f"boundary_div needs four positive integers (left, right, "
                              f"bottom, top), got {list(div)}")
    return div


def _floats(values) -> tuple:
    return tuple(map(float, values))


def _domain(corners) -> tuple:
    return tuple(map(_floats, corners))


def _optional(parse: Callable) -> Callable:
    return lambda v: None if v is None else parse(v)


_REQUIRED = object()
# generator keys as {key: (parser, default)}, where the default is the value
# a file gets when it leaves the key out, or _REQUIRED; _BOX holds the keys
# of every generator, _PLANAR those of the 2d ones, _GRID those of the grids
_BOX = {"regions": (_optional(box_region_fn), None),
        "boundary_boxes": (_optional(box_boundary_fn), None)}
_PLANAR = {"domain": (_domain, [[0, 0], [1, 1]]), **_BOX,
           "segments": (parse_segments, []), "seed": (_integer("seed", 0), 0)}
_GRID = {"n": (_integer("n", 1), 8)}
# the generator parameters named otherwise than their keys
_PARAMETERS = {"regions": "region_fn", "boundary_boxes": "boundary_tag_fn"}
_GENERATORS = {
    "crossed_square": (crossed_square_mesh, {**_PLANAR, **_GRID, "jitter": (float, 0.0),
                                             "keep_x": (_floats, []), "keep_y": (_floats, [])}),
    "delaunay_rect": (delaunay_rect_mesh, {
        **_PLANAR, "h": (lambda h: _positive(h, "h"), _REQUIRED),
        "boundary_div": (_optional(_boundary_div), None),
        "fill_target": (_optional(_integer("fill_target", 0)), None)}),
    "kuhn_cube": (kuhn_cube_mesh, {"domain": (_domain, [[0, 0, 0], [1, 1, 1]]), **_BOX, **_GRID,
                                   "planes": (parse_planes, [])}),
}


def _base_mesh_from_spec(spec: dict, tag_map: dict, base_dir: Path) -> Callable:
    if not isinstance(spec, dict):
        raise ValidationError(f"mesh spec must be an object, got {spec!r}")
    if "file" in spec:
        _known_keys(spec, "mesh spec with a 'file'", ("file",))
        path = Path(spec["file"])
        if not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise MissingDataError(f"mesh file not found: {path}")
        return partial(load_msh, path, tag_map)

    # every generator parameter is parsed here, so a malformed one fails
    # when the scenario loads rather than when the mesh is first built
    gen = spec.get("generator")
    if gen not in _GENERATORS:
        raise ValidationError(f"mesh spec needs 'file' or a known 'generator', got {spec!r}")
    make, keys = _GENERATORS[gen]
    _known_keys(spec, f"mesh generator {gen!r}", ("generator",) + tuple(keys))
    try:
        # spec[key] raises the KeyError that names a required key
        kw = {_PARAMETERS.get(key, key):
              parse(spec[key] if default is _REQUIRED else spec.get(key, default))
              for key, (parse, default) in keys.items()}
    except ValidationError as e:
        raise ValidationError(f"scenario entry 'mesh' is malformed: {e}") from None
    return partial(make, tag_map=tag_map, **kw)


def _parse_materials(raw: dict, dim: int) -> MaterialModel:
    _known_keys(raw, "scenario entry 'materials'", ("matrix", "fractures", "barriers"))
    matrix = {int(r): v for r, v in raw.get("matrix", {"1": 1.0}).items()}
    fractures = {}
    for t, v in raw.get("fractures", {}).items():
        _known_keys(v, f"fracture law {t}", ("aperture", "k"))
        fractures[int(t)] = FractureLaw(float(v["aperture"]), float(v["k"]))
    barriers = {}
    for t, v in raw.get("barriers", {}).items():
        _known_keys(v, f"barrier law {t}", ("aperture", "k", "k_tangential"))
        kt = v.get("k_tangential")
        barriers[int(t)] = BarrierLaw(float(v["aperture"]), float(v["k"]),
                                      None if kt is None else float(kt))
    return MaterialModel(matrix=matrix, fractures=fractures, barriers=barriers, dim=dim)


def load_scenario_file(path) -> Scenario:
    """Scenario from a UTF-8 JSON file (schema in the README). A missing
    file or a directory raises MissingDataError, text that is not UTF-8 or
    not JSON ValidationError, each naming the path."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise MissingDataError(f"scenario file not found: {path}") from None
    except IsADirectoryError:
        raise MissingDataError(f"scenario file {path} is a directory") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(raw, base_dir=path.parent,
                              default_name=path.stem)


def _entry(raw: dict, key: str, parse: Callable, default=None):
    """parse(raw.get(key, default)); a value of the wrong shape raises
    ValidationError naming the entry."""
    try:
        return parse(raw.get(key, default))
    except KeyError as e:
        raise ValidationError(f"scenario entry {key!r} lacks the key {e.args[0]!r}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        raise ValidationError(f"scenario entry {key!r} is malformed: {e}") from None


def _known_keys(raw: dict, where: str, known: tuple) -> None:
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                              f"known keys are {', '.join(map(repr, known))}")


def _parse_solver(sv: dict) -> SolverSettings:
    coerce = {"tol": float, "max_iter": _file_int, "preconditioner": str}
    _known_keys(sv, "scenario entry 'solver'", tuple(coerce))
    return SolverSettings(**{k: coerce[k](v) for k, v in sv.items()})


def _parse_policy(policy) -> str:
    """The policy as written, once it names a known one."""
    _policy_key(str(policy))
    return str(policy)


def _parse_slice(s: dict, default_name: str, dim: int) -> SliceSpec:
    """SliceSpec from a JSON row, checked here so a bad one fails before the solve."""
    name = str(s.get("name", default_name))
    _known_keys(s, f"slice {name!r}", ("name", "from", "to", "n", "side"))
    spec = SliceSpec(name=name, start=_floats(s["from"]), end=_floats(s["to"]),
                     **{k: s[k] for k in ("n", "side") if k in s})
    spec.n = _file_int(spec.n)
    try:
        _check_slice(np.array(spec.start), np.array(spec.end), spec.n, spec.side, dim)
    except ValidationError as e:
        raise ValidationError(f"slice {spec.name!r}: {e}") from None
    return spec


def _order_window(window) -> tuple:
    """(lo, hi) from two finite numbers lo < hi."""
    with suppress(TypeError, ValueError):
        if isinstance(window, (list, tuple)):
            lo, hi = _floats(window)
            if -np.inf < lo < hi < np.inf:
                return lo, hi
    raise ValidationError(f"scenario entry 'order_window' needs two finite numbers lo < hi, "
                          f"got {window!r}")


def scenario_from_dict(raw: dict, base_dir: Path | None = None,
                       default_name: str = "scenario") -> Scenario:
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    if not isinstance(raw, dict) or "mesh" not in raw:
        raise ValidationError("a scenario must be a JSON object with a 'mesh' entry")
    dim = _entry(raw, "dim", _file_int, 2)
    if dim not in (2, 3):
        raise ValidationError(f"scenario entry 'dim' must be 2 or 3, got {raw['dim']!r}")
    tag_map = _entry(raw, "tag_map", _parse_tag_map, {})
    base_mesh = _entry(raw, "mesh", lambda m: _base_mesh_from_spec(m, tag_map, base_dir))
    materials = _entry(raw, "materials", lambda m: _parse_materials(m, dim), {})
    # the other entries are passed on only when given, so the Scenario,
    # SolverSettings and SliceSpec defaults apply
    parsers = {
        "description": str,
        "dirichlet": lambda d: {int(t): scalar_field(e, dim) for t, e in d.items()},
        "neumann": lambda d: {int(t): scalar_field(e, dim) for t, e in d.items()},
        "source": lambda e: scalar_field(e, dim),
        "exact": lambda e: scalar_field(e, dim),
        "policy": _parse_policy,
        "solver": _parse_solver,
        "slices": lambda rows: tuple(_parse_slice(s, f"slice{i}", dim) for i, s in enumerate(rows)),
        "order_window": _order_window,
        # negative is legal: run's refine may lift the level to 0 or more
        "refine": _integer("scenario entry 'refine'", None),
    }
    _known_keys(raw, "scenario", ("name", "dim", "tag_map", "mesh", "materials") + tuple(parsers))
    given = {"default_refine" if key == "refine" else key: _entry(raw, key, parse)
             for key, parse in parsers.items() if key in raw}
    return Scenario(name=str(raw.get("name", default_name)), dim=dim,
                    base_mesh=base_mesh, materials=materials, **given)


def validate_against_mesh(scenario: Scenario, mesh: Mesh) -> None:
    """Every cell region and tagged facet in the mesh must have matching data.

    Cell regions need matrix permeabilities, fracture and barrier tags
    material laws, Dirichlet and Neumann tags boundary expressions. Unused
    extra entries are fine for materials but boundary entries must match
    facets (checked during assembly).
    """
    if mesh.dim != scenario.dim:
        raise ValidationError(f"scenario {scenario.name!r} is {scenario.dim}d, "
                              f"its mesh {mesh.dim}d")
    lawless = ~np.isin(mesh.cell_region, list(scenario.materials.matrix))
    problems = [f"no matrix permeability for region {r}"
                for r in np.unique(mesh.cell_region[lawless]).tolist()]
    for kind, table, what in (
        (FacetKind.FRACTURE, scenario.materials.fractures, "fracture law"),
        (FacetKind.BARRIER, scenario.materials.barriers, "barrier law"),
        (FacetKind.DIRICHLET, scenario.dirichlet, "dirichlet value"),
        (FacetKind.NEUMANN, scenario.neumann, "neumann flux"),
    ):
        tags = np.unique(mesh.facet_tags[mesh.facet_kinds == int(kind)])
        for t in tags.tolist():
            if int(t) not in table:
                problems.append(f"no {what} for tag {t}")
    if problems:
        raise ValidationError("; ".join(problems))
