"""Vertex-centered control-volume solver for single-phase Darcy flow in
porous media with conductive fractures and low-permeable barriers.

Fractures and barriers live on facets of a conforming simplicial mesh.
Conductive fractures add a tangential transmissivity on the facet;
barriers break the pressure space across the facet and couple the sides
through a normal-transfer term, so pressure jumps are resolved without
meshing the barrier width.
"""

from .assembly import (SparseSystem, assemble_operator, assemble_rhs,
                       assemble_system, flux_balance, local_barrier_coupling)
from .benchmarks import builtin_scenarios, get_scenario, scenario_names
from .dofspace import POLICIES, DofMap, build_dof_map
from .driver import RunResult, load_solution, run_convergence, run_scenario
from .dual import DualBoxGeometry, dual_geometry
from .errors import (BoxDfmError, DofMapError, MeshFormatError,
                     MeshGenerationError, MissingDataError,
                     NotPositiveDefiniteError, SolverError, ValidationError)
from .generators import (crossed_square_mesh, delaunay_rect_mesh,
                         kuhn_cube_mesh, strip_grid_mesh)
from .linalg import SolverReport, cg_solve
from .materials import BarrierLaw, FractureLaw, MaterialModel
from .mesh import FacetKind, Mesh, build_mesh
from .msh_io import load_msh, read_msh_arrays, write_msh22
from .refine import uniform_refine
from .scenario import Scenario, SliceSpec, SolverSettings, load_scenario_file
from .solution import SolutionField, l2_error, sample_slice, write_profile_csv
from .vtkout import write_facets_vtk, write_solution_vtk

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mesh and geometry
    "Mesh", "FacetKind", "build_mesh", "load_msh", "read_msh_arrays",
    "write_msh22",
    "uniform_refine", "crossed_square_mesh", "delaunay_rect_mesh",
    "kuhn_cube_mesh", "strip_grid_mesh", "DualBoxGeometry", "dual_geometry",
    # unknowns and materials
    "POLICIES", "DofMap", "build_dof_map",
    "BarrierLaw", "FractureLaw", "MaterialModel",
    # discrete operator
    "SparseSystem", "assemble_operator", "assemble_rhs", "assemble_system",
    "flux_balance", "local_barrier_coupling",
    # linear algebra
    "SolverReport", "cg_solve",
    # solutions and studies
    "SolutionField", "l2_error", "sample_slice",
    "write_profile_csv", "write_solution_vtk", "write_facets_vtk",
    # scenarios
    "Scenario", "SliceSpec", "SolverSettings", "load_scenario_file",
    "builtin_scenarios", "get_scenario", "scenario_names",
    "RunResult", "run_scenario", "run_convergence", "load_solution",
    # errors
    "BoxDfmError", "ValidationError", "MeshFormatError",
    "MeshGenerationError", "DofMapError", "SolverError",
    "NotPositiveDefiniteError", "MissingDataError",
]
