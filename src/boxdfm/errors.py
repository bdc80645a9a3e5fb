"""Exception hierarchy shared across the package, the integer check every
integer argument goes through, and the check of every callable's data.

The CLI maps these onto exit codes: ValidationError and subclasses -> 2,
SolverError and subclasses -> 3, MissingDataError -> 4.
"""

import numpy as np


class BoxDfmError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BoxDfmError):
    """Invalid mesh, scenario, or material input."""


class MeshFormatError(ValidationError):
    """Unparseable or unsupported mesh file content."""


class MeshGenerationError(ValidationError):
    """A generator failed to produce a conforming mesh."""


class DofMapError(ValidationError):
    """Inconsistent degree-of-freedom topology."""


class SolverError(BoxDfmError):
    """Linear solve failed or stopped short of the requested tolerance."""


class NotPositiveDefiniteError(SolverError):
    """CG breakdown: the operator is not symmetric positive definite."""


class MissingDataError(BoxDfmError):
    """A scenario references a data file that is not present."""


def as_int(value, rule: str, least: int | None = None) -> int:
    """value as a Python int, when it is a Python or numpy integer (not a
    bool) and at least least; otherwise ValidationError reading
    "<rule> >= <least>, got <value>", the value in plain numbers."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        shown = value.item() if isinstance(value, np.generic) else value
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{rule}{bound}, got {shown!r}")
    return int(value)


def finite_values(what: str, result, pts: np.ndarray) -> np.ndarray:
    """A data callable's result at the (n, dim) points pts as n finite
    floats; otherwise ValidationError naming what and the first bad point.
    The one check of source, boundary and exact-solution data."""
    n = len(pts)
    v = np.asarray(result, dtype=np.float64)
    if v.size != n:
        raise ValidationError(
            f"{what} returned values of shape {v.shape} for {n} points; "
            f"expected shape ({n},)"
        )
    v = v.reshape(n)
    if not np.isfinite(v).all():
        i = int(np.argmin(np.isfinite(v)))
        raise ValidationError(f"{what} is not finite at point {tuple(pts[i].tolist())}: "
                              f"{v[i]}")
    return v
