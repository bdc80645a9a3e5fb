"""Material data: matrix permeability per region, fracture/barrier laws per tag."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .mesh import Mesh

__all__ = ["FractureLaw", "BarrierLaw", "MaterialModel"]


@dataclass(frozen=True)
class FractureLaw:
    aperture: float
    k: float  # tangential permeability of a conductive feature

    def __post_init__(self):
        if not 0 < self.aperture < np.inf:
            raise ValidationError(f"fracture aperture must be finite and > 0, got {self.aperture}")
        if not 0 < self.k < np.inf:
            raise ValidationError(f"fracture permeability must be finite and > 0, got {self.k}")


@dataclass(frozen=True)
class BarrierLaw:
    aperture: float
    k: float                     # normal permeability; 0 means sealed
    k_tangential: float | None = None  # recorded, not used by the hybrid operator

    def __post_init__(self):
        if not 0 < self.aperture < np.inf:
            raise ValidationError(f"barrier aperture must be finite and > 0, got {self.aperture}")
        if not 0 <= self.k < np.inf:
            raise ValidationError(f"barrier permeability must be finite and >= 0, got {self.k}")
        if self.k_tangential is not None and not 0 <= self.k_tangential < np.inf:
            raise ValidationError("barrier tangential permeability must be finite and >= 0, "
                                  f"got {self.k_tangential}")

    @property
    def beta(self) -> float:
        """Interface transfer coefficient k / aperture."""
        return self.k / self.aperture


def _as_tensor(value, dim: int) -> np.ndarray:
    K = np.asarray(value, dtype=np.float64)
    if not np.isfinite(K).all():
        raise ValidationError(f"permeability must be finite, got {K.tolist()}")
    if K.ndim == 0:
        K = float(K) * np.eye(dim)
    if K.shape != (dim, dim):
        raise ValidationError(f"permeability must be scalar or {dim}x{dim}, got shape {K.shape}")
    if not np.allclose(K, K.T, rtol=0, atol=1e-12 * max(1.0, float(np.abs(K).max()))):
        raise ValidationError("permeability tensor must be symmetric")
    if np.linalg.eigvalsh(K).min() <= 0:
        raise ValidationError("permeability tensor must be positive definite")
    return K


def _per_tag(tags: np.ndarray, laws: dict, kind: str, value) -> np.ndarray:
    """value(law) for each tag, resolved once per distinct tag."""
    uniq, inverse = np.unique(tags, return_inverse=True)
    out = np.empty(len(uniq))
    for i, tag in enumerate(uniq.tolist()):
        law = laws.get(tag)
        if law is None:
            raise ValidationError(f"no {kind} law for tag {tag}")
        out[i] = value(law)
    return out[inverse]


@dataclass
class MaterialModel:
    """Region and tag resolved material laws.

    matrix maps region id -> permeability (scalar or tensor); fractures and
    barriers map facet tag -> law, which checks its own values. Construction
    validates that each permeability is finite and SPD.
    """

    matrix: dict = field(default_factory=dict)
    fractures: dict = field(default_factory=dict)
    barriers: dict = field(default_factory=dict)
    dim: int = 2

    def __post_init__(self):
        self.matrix = {int(r): _as_tensor(K, self.dim) for r, K in self.matrix.items()}
        self.fractures = {int(t): law for t, law in self.fractures.items()}
        self.barriers = {int(t): law for t, law in self.barriers.items()}

    def cell_tensors(self, mesh: Mesh) -> np.ndarray:
        """(nc, dim, dim) permeability per cell, resolved by region."""
        return self._region_tensors(mesh.cell_region, mesh.dim)

    def _region_tensors(self, cell_region: np.ndarray, dim: int) -> np.ndarray:
        """cell_tensors of cells with the given regions."""
        out = np.empty((len(cell_region), dim, dim))
        for r in np.unique(cell_region):
            if int(r) not in self.matrix:
                raise ValidationError(f"no matrix permeability for region {int(r)}")
            out[cell_region == r] = self.matrix[int(r)]
        return out

    def fracture_transmissivity(self, tags: np.ndarray) -> np.ndarray:
        """aperture * k of the fracture law of each facet tag."""
        return _per_tag(tags, self.fractures, "fracture", lambda law: law.aperture * law.k)

    def barrier_beta(self, tags: np.ndarray) -> np.ndarray:
        """Transfer coefficient k / aperture of the barrier law of each facet tag."""
        return _per_tag(tags, self.barriers, "barrier", lambda law: law.beta)

    def matrix_norm(self) -> float:
        return max(float(np.linalg.norm(K, 2)) for K in self.matrix.values())
