"""Discrete solution fields: evaluation, line samples, errors, convergence.

The field is piecewise linear per cell on the broken vertex space, so it is
discontinuous across barriers. Point evaluation finds the containing cell
and uses that cell's dofs, so values take the side of the cell the point
falls into. All points of a call walk together from a cell of their
nearest vertex, one stacked barycentric solve per step; a point whose walk
leaves the mesh, steps back or runs long is located by a barycentric test
of the cells around it, then of every cell.
Slice samples lying on a barrier facet are first moved by a fixed offset
along the facet's normal; the (sample, facet) pairs to test come from a
k-d tree over the bounding boxes of the facets near the samples.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import roots_jacobi

from ._rows import write_rows
from .errors import ValidationError, as_int, finite_values
from .mesh import FacetKind, Mesh, _edge_volumes, facet_normals

__all__ = ["SIDES", "SolutionField", "sample_slice", "write_profile_csv", "l2_error",
           "convergence_order", "simplex_quadrature"]

SIDES = ("plus", "minus")  # which trace a slice reports on a barrier
_SIDE_EPS_REL = 1e-9  # side-rule offset relative to the domain diameter
_LOCATE_TOL = -1e-12  # smallest barycentric coordinate that counts as inside
_NEAR_VERTICES = 8    # nearest vertices whose cells are tested before a full scan
_WALK_STEPS = 32      # walk steps before a point goes to the brute-force scan
_L2_RANGE = 2 ** 14   # cells per range of l2_error


def _gauss_jacobi_01(n: int, alpha: int):
    """Gauss-Jacobi nodes/weights for weight (1-u)^alpha on [0, 1]."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def simplex_quadrature(dim: int, n: int = 3):
    """Conical-product quadrature on the reference simplex.

    Returns (bary, weights) with barycentric coordinates of shape
    (nq, dim+1) and weights summing to 1 (multiply by the cell measure).
    Exact for polynomials of degree <= 2n - 1 (degree 5 by default).
    """
    if dim == 2:
        u, wu = _gauss_jacobi_01(n, 1)
        v, wv = _gauss_jacobi_01(n, 0)
        U, V = np.meshgrid(u, v, indexing="ij")
        x = U.ravel()
        y = (V * (1 - U)).ravel()
        w = np.outer(wu, wv).ravel()
        bary = np.stack([1 - x - y, x, y], axis=1)
        return bary, w / 0.5
    if dim == 3:
        u, wu = _gauss_jacobi_01(n, 2)
        v, wv = _gauss_jacobi_01(n, 1)
        t, wt = _gauss_jacobi_01(n, 0)
        U, V, T = np.meshgrid(u, v, t, indexing="ij")
        x = U.ravel()
        y = (V * (1 - U)).ravel()
        z = (T * (1 - U) * (1 - V)).ravel()
        w = np.einsum("i,j,k->ijk", wu, wv, wt).ravel()
        bary = np.stack([1 - x - y - z, x, y, z], axis=1)
        return bary, w / (1.0 / 6.0)
    raise ValidationError(f"no quadrature for dim {dim}")


@dataclass
class SolutionField:
    """Pressure values on the broken vertex space of a mesh."""

    mesh: Mesh
    cell_dofs: np.ndarray   # (nc, dim+1)
    dof_vertex: np.ndarray  # (n_dofs,)
    values: np.ndarray      # (n_dofs,)

    @property
    def n_dofs(self) -> int:
        return len(self.values)

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.mesh.vertices)

    @cached_property
    def _vertex_cell(self) -> np.ndarray:  # (nv,) an incident cell, the walk start
        vc = np.full(self.mesh.n_vertices, -1, dtype=np.int64)
        vc[self.mesh.cells.ravel()] = np.repeat(
            np.arange(self.mesh.n_cells, dtype=np.int64), self.mesh.dim + 1
        )
        return vc

    def _barycentrics(self, cells: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Barycentric coordinates of (cell, point) pairs in one stacked solve."""
        verts = self.mesh.vertices[self.mesh.cells[cells]]
        T = (verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)
        lam = np.linalg.solve(T, (points - verts[:, 0])[..., None])[..., 0]
        return np.concatenate([1.0 - lam.sum(axis=1)[:, None], lam], axis=1)

    def locate(self, p: np.ndarray) -> int:
        """Containing cell of one point (see _locate_all)."""
        p = np.asarray(p, dtype=np.float64)
        return int(self._locate_all(p[None])[0][0])

    def _locate_all(self, points: np.ndarray):
        """Containing cells of many points and their barycentric coordinates.

        All points walk together from a cell of their nearest vertex: each
        step solves for the barycentrics of every point still walking at
        once and moves it across the facet opposite its smallest
        coordinate. A point that would leave the mesh, step back into the
        cell it came from, or walk more than _WALK_STEPS cells goes to
        _locate_brute instead.
        """
        n = points.shape[0]
        cells = np.full(n, -1, dtype=np.int64)
        lams = np.empty((n, self.mesh.dim + 1))
        _, v = self._tree.query(points)
        cur = self._vertex_cell[v]
        prev = np.full(n, -1, dtype=np.int64)
        walking, pts = np.arange(n), points
        for _ in range(_WALK_STEPS):
            lam = self._barycentrics(cur, pts)
            worst = lam.argmin(axis=1)
            inside = lam.min(axis=1) >= _LOCATE_TOL
            if inside.any():
                cells[walking[inside]] = cur[inside]
                lams[walking[inside]] = lam[inside]
            nxt = self.mesh.cell_neighbors[cur, worst]
            go = (nxt != prev) & (nxt >= 0)
            go[inside] = False
            if not go.any():
                break
            walking, pts, prev, cur = walking[go], pts[go], cur[go], nxt[go]
        lost = np.nonzero(cells < 0)[0]
        if len(lost):
            cells[lost] = [self._locate_brute(points[i]) for i in lost]
            lams[lost] = self._barycentrics(cells[lost], points[lost])
        return cells, lams

    def _locate_brute(self, p: np.ndarray) -> int:
        """Containing cell by barycentric tests: first the cells around the
        nearest vertices, then every cell."""
        _, near = self._tree.query(p, k=min(_NEAR_VERTICES, self.mesh.n_vertices))
        cand = np.nonzero(np.isin(self.mesh.cells, near).any(axis=1))[0]
        quality = self._barycentrics(cand, p).min(axis=1)
        best = int(np.argmax(quality))
        if quality[best] >= _LOCATE_TOL:
            return int(cand[best])
        quality = self._barycentrics(np.arange(self.mesh.n_cells), p).min(axis=1)
        best = int(np.argmax(quality))
        # slack admits side-rule samples nudged just past the hull
        if quality[best] < -1e-6:
            raise ValidationError(f"point {tuple(p.tolist())} lies outside the mesh")
        return best

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Field values at points; each point uses its containing cell's dofs."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        cells, lam = self._locate_all(points)
        dofvals = self.values[self.cell_dofs[cells]]
        # a stack of row-times-column products: one dot per point, like lam @ v
        return (lam[:, None, :] @ dofvals[:, :, None])[:, 0, 0]

    def vertex_value_spread(self, vertex: int) -> float:
        """Max difference between the dof values living at one vertex."""
        vals = self.values[np.nonzero(self.dof_vertex == vertex)[0]]
        return float(vals.max() - vals.min()) if len(vals) else 0.0


def _canonical_normals(vertices: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Unit normals of facet rows, flipped so the first nonzero component
    is positive (a reproducible 'plus' side)."""
    normals = facet_normals(vertices, facets)
    first = np.argmax(np.abs(normals) > 1e-12, axis=1)
    lead = normals[np.arange(len(normals)), first]
    normals[lead < 0] *= -1.0
    return normals


def _apply_side_rule(fieldobj: SolutionField, pts: np.ndarray, side: str) -> np.ndarray:
    """Shift samples lying on a barrier by eps along the barrier normal.

    A sample is on facet f when it lies in f's bounding box grown by eps
    and within eps of f's plane; a sample on several facets takes the one
    with the lowest index. Only the facets whose grown box meets the
    samples' bounding box can hold a sample, so the normals and the rest
    are computed for those alone; the lowest index among them is the
    lowest overall. Candidate (sample, facet) pairs come from a k-d tree
    over the kept boxes' centres, so no samples-by-facets array is formed.
    """
    mesh = fieldobj.mesh
    facets = mesh.facets[mesh.facets_of_kind(FacetKind.BARRIER)]
    if len(facets) == 0:
        return pts
    eps = _SIDE_EPS_REL * mesh.domain_diameter()
    sign = 1.0 if side == "plus" else -1.0
    # facet boxes as (dim, n_facets) rows, from elementwise min/max over the
    # corners: reductions along a short axis are slow
    xyz = mesh.vertices.T
    lo = hi = xyz[:, facets[:, 0]]
    for j in range(1, facets.shape[1]):
        corner = xyz[:, facets[:, j]]
        lo, hi = np.minimum(lo, corner), np.maximum(hi, corner)
    lo, hi = lo - eps, hi + eps
    keep = np.ones(len(facets), dtype=bool)
    for k, x in enumerate(pts.T):
        keep &= (lo[k] <= x.max()) & (hi[k] >= x.min())
    kept = np.nonzero(keep)[0]
    if len(kept) == 0:
        return pts
    facets, lo, hi = facets[kept], lo[:, kept].T, hi[:, kept].T
    fpts = mesh.vertices[facets]
    normals = _canonical_normals(mesh.vertices, facets)
    # every grown box lies within r of its centre in the max norm
    r = float((hi - lo).max()) / 2.0 + eps
    near = cKDTree((lo + hi) / 2.0).query_ball_point(pts, r, p=np.inf)
    pi = np.repeat(np.arange(len(pts)), [len(c) for c in near])
    fi = np.fromiter((f for c in near for f in c), dtype=np.int64, count=len(pi))
    q = pts[pi]
    inside = np.all((q >= lo[fi]) & (q <= hi[fi]), axis=1)
    d = np.abs(np.einsum("kd,kd->k", q - fpts[fi, 0], normals[fi]))
    # d may differ in the last bits (well under 1e-15 of the diameter) from
    # the per-facet matrix-vector product that defines the rule; where that
    # could flip d < eps, take the product itself
    tie = np.abs(d - eps) <= 1e-4 * eps
    for f in np.unique(fi[tie]):
        sel = tie & (fi == f)
        d[sel] = np.abs((pts - fpts[f, 0]) @ normals[f])[pi[sel]]
    on = inside & (d < eps)
    first = np.full(len(pts), len(normals))
    np.minimum.at(first, pi[on], fi[on])
    moved = first < len(normals)
    out = pts.copy()
    out[moved] += sign * eps * normals[first[moved]]
    return out


def sample_slice(fieldobj: SolutionField, p0, p1, n: int, side: str = SIDES[0]):
    """Sample along the segment p0 -> p1 at n evenly spaced points.

    Samples landing exactly on a barrier facet are nudged by eps (1e-9 of
    the domain diameter) along the facet's canonical normal: 'plus' toward
    it, 'minus' away. This pins down which pressure trace is reported on a
    discontinuity. Returns a dict of arrays: s (arclength fraction in
    [0, 1]), points, values. A bad side or n, endpoints that are not finite
    or whose coordinate count is not the mesh's dim, or a degenerate
    segment raise ValidationError (_check_slice).
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    _check_slice(p0, p1, n, side, fieldobj.mesh.dim)
    s = np.linspace(0.0, 1.0, n)
    pts = p0 + np.outer(s, p1 - p0)
    eval_pts = _apply_side_rule(fieldobj, pts, side)
    vals = fieldobj.evaluate(eval_pts)
    return {"s": s, "points": pts, "values": vals}


def _check_slice(p0: np.ndarray, p1: np.ndarray, n, side, dim: int) -> None:
    if side not in SIDES:
        raise ValidationError(f"side must be {SIDES[0]!r} or {SIDES[1]!r}, got {side!r}")
    as_int(n, "number of samples must be an integer", 1)
    if not p0.shape == p1.shape == (dim,):
        raise ValidationError(f"from and to need {dim} coordinates each, "
                              f"got {p0.size} and {p1.size}")
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise ValidationError(
            f"slice endpoints must be finite, got {p0.tolist()} and {p1.tolist()}"
        )
    if not np.linalg.norm(p1 - p0) > 0:
        raise ValidationError("slice segment is degenerate")


def write_profile_csv(path, sample: dict) -> None:
    """Deterministic CSV: s, coordinates, value with round-trip floats.

    path may also be an open text stream (stdout for the CLI).
    """
    dim = sample["points"].shape[1]
    with nullcontext(path) if hasattr(path, "write") else open(path, "w", newline="") as f:
        f.write(",".join(["s", *"xyz"[:dim], "p"]) + "\r\n")
        write_rows(f, "%r," * (dim + 1) + "%r\r\n", sample["s"], sample["points"],
                   sample["values"])


def l2_error(fieldobj: SolutionField, exact) -> float:
    """L2 distance between the field and exact(points, regions).

    Integrated cell by cell with the conical-product rule (degree 5), so
    the quadrature is exact for the squared error of linear fields against
    quadratic exact data and accurate far beyond the discretization error
    otherwise. exact is called once per range of _L2_RANGE cells, and a
    value that is not finite raises ValidationError naming the point; the
    quadrature sum runs once over all cells, so the value does not depend
    on the range size.
    """
    mesh = fieldobj.mesh
    bary, w = simplex_quadrature(mesh.dim, 3)
    nc, nq = mesh.n_cells, len(w)
    # squared errors at the quadrature points and cell volumes, range by range
    sq = np.empty((nc, nq))
    vol = np.empty(nc)
    for lo in range(0, nc, _L2_RANGE):
        hi = min(lo + _L2_RANGE, nc)
        verts = mesh.vertices[mesh.cells[lo:hi]]          # (n, nloc, dim)
        pts = np.einsum("qj,cjd->cqd", bary, verts)
        ph = np.einsum("qj,cj->cq", bary, fieldobj.values[fieldobj.cell_dofs[lo:hi]])
        regs = np.repeat(mesh.cell_region[lo:hi], nq)
        qpts = pts.reshape(-1, mesh.dim)
        pe = finite_values("exact", exact(qpts, regs), qpts).reshape(hi - lo, nq)
        sq[lo:hi] = (ph - pe) ** 2
        vol[lo:hi] = np.abs(_edge_volumes(verts[:, 1:, :] - verts[:, :1, :]))
    return float(np.sqrt(np.einsum("cq,q,c->", sq, w, vol)))


def convergence_order(errors, ratio: float = 2.0):
    """Observed orders log(e_i / e_{i+1}) / log(ratio) between levels."""
    errors = np.asarray(errors, dtype=np.float64)
    if np.any(errors <= 0):
        raise ValidationError("convergence orders need positive errors")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(ratio))
