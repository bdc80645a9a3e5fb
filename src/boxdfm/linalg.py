"""Preconditioned conjugate gradients on symmetric scipy CSR matrices.

The CG iteration, the Jacobi and zero-fill incomplete Cholesky
preconditioners, and the symmetry and SPD diagnostics are implemented
here. CG reports instead of raising on slow convergence; a breakdown
(non-SPD operator) is a distinct hard error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotPositiveDefiniteError, SolverError, ValidationError

__all__ = ["SolverReport", "check_symmetric", "cg_solve", "dense_spd_check",
           "PRECONDITIONERS"]


def check_symmetric(A: sp.csr_matrix) -> None:
    """Raise ValidationError unless A is numerically symmetric (to 1e-12
    relative to its largest entry) and its stored pattern is structurally
    symmetric."""
    m = sp.csr_matrix(A, copy=True)
    m.sum_duplicates()  # also sorts the column indices
    d = (m - m.T).tocoo()
    scale = float(np.abs(m.data).max()) if m.nnz else 0.0
    if d.nnz and np.abs(d.data).max() > 1e-12 * max(scale, 1e-300):
        raise ValidationError(
            f"matrix is not symmetric: max asymmetry {np.abs(d.data).max():.3e} "
            f"(scale {scale:.3e})"
        )
    pattern = sp.csr_matrix((np.ones_like(m.data), m.indices, m.indptr), shape=m.shape)
    pt = pattern.T.tocsr()
    pt.sort_indices()
    if not (np.array_equal(pattern.indptr, pt.indptr)
            and np.array_equal(pattern.indices, pt.indices)):
        raise ValidationError("sparsity pattern is not structurally symmetric")


@dataclass
class SolverReport:
    converged: bool
    iterations: int
    relative_residual: float
    preconditioner: str
    shift: float = 0.0  # diagonal shift an ic0 factorization needed, if any
    setup_s: float = 0.0    # preconditioner build time
    iterate_s: float = 0.0  # time spent in the CG iteration


class _Jacobi:
    shift = 0.0

    def __init__(self, A: sp.csr_matrix):
        d = A.diagonal()
        if np.any(d <= 0):
            i = int(np.argmin(d))
            raise NotPositiveDefiniteError(
                f"diagonal entry {i} is {d[i]:.3e}; operator cannot be SPD"
            )
        self._inv = 1.0 / d

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self._inv * r


class _IncompleteCholesky:
    """IC(0): lower factor on the pattern of tril(A), with diagonal-shift
    retries when a pivot fails (the factorization, unlike A, need not exist).

    The factorization is level scheduled: a row's level is one more than
    the highest level among its off-diagonal columns, so the rows of one
    level only read rows of lower levels. Entries are computed one group
    (level, position in row) at a time, diagonals after each level's
    off-diagonals, and every inner-product sum is accumulated in ascending
    column order. The factor is applied through a SuperLU object built once
    on L with natural ordering and no pivoting, so it holds L itself.
    """

    def __init__(self, A: sp.csr_matrix):
        base = sp.tril(A, format="csr")
        base.sort_indices()
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise NotPositiveDefiniteError("nonpositive diagonal; operator cannot be SPD")
        steps = _ic0_schedule(base)
        shift = 0.0
        for attempt in range(6):
            vals = base.data.astype(np.float64)
            if shift:
                vals[base.indptr[1:] - 1] += shift * diag
            if _ic0_numeric(vals, steps):
                self.L = sp.csr_matrix((vals, base.indices, base.indptr), shape=base.shape)
                self.shift = shift
                self.lu = spla.splu(self.L.tocsc(), permc_spec="NATURAL",
                                    diag_pivot_thresh=0.0,
                                    options={"SymmetricMode": True})
                ident = np.arange(A.shape[0])
                if not (np.array_equal(self.lu.perm_r, ident)
                        and np.array_equal(self.lu.perm_c, ident)):
                    raise SolverError("SuperLU permuted the ic0 factor")
                return
            shift = 1e-3 if shift == 0.0 else shift * 10.0
        raise NotPositiveDefiniteError("ic0 factorization failed even with diagonal shifts")

    def apply(self, r: np.ndarray) -> np.ndarray:
        return self.lu.solve(self.lu.solve(r), trans="T")


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges starts[t] : starts[t] + counts[t]."""
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    return np.repeat(starts - first, counts) + np.arange(total)


def _ic0_schedule(base: sp.csr_matrix) -> list:
    """Symbolic IC(0) pass on tril(A) (sorted, diagonal last in each row).

    Returns the steps of the numeric pass in order: ("off", E, D, left,
    right, T) computes the entries at CSR positions E, dividing by the
    diagonal positions D after subtracting the sums of data[left] *
    data[right] grouped by local target T; ("diag", P, O, T) computes the
    diagonals at positions P from the squares of data[O] grouped by T.
    """
    n = base.shape[0]
    indptr = base.indptr.astype(np.int64)
    cols = base.indices.astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    diagpos = indptr[1:] - 1  # A's diagonal is positive, so stored
    off = np.nonzero(cols < rows)[0]  # strict lower, row-major
    orow = rows[off]
    # strict lower part by columns: rows ascend within each column
    order = np.argsort(cols[off], kind="stable")
    colptr = np.concatenate([[0], np.cumsum(np.bincount(cols[off], minlength=n))])
    level = _ic0_levels(orow, orow[order], colptr)
    target, left, right = _ic0_triples(rows * n + cols, orow[order], off[order], colptr)
    del rows, order, colptr  # freed before the grouping arrays, which set the peak

    # off-diagonals grouped by (level, position in row), diagonal last
    width = int(np.diff(indptr).max())
    ekey = np.concatenate([level[orow] * width + (off - indptr[orow]),
                           level * width + (width - 1)])
    eorder = np.argsort(ekey, kind="stable")
    ekey = ekey[eorder]
    epos = np.concatenate([off, diagpos])[eorder]
    del eorder
    gstart = np.concatenate([[0], np.flatnonzero(np.diff(ekey)) + 1, [len(ekey)]])
    rank = np.empty(len(cols), dtype=np.int64)
    rank[epos] = np.arange(len(epos))

    tr = rank[target]
    torder = np.lexsort((cols[left], tr))  # by target, then ascending k
    tr, left, right = tr[torder], left[torder], right[torder]
    tptr = np.searchsorted(tr, gstart)

    # diagonal sums: a row's off-diagonals in ascending column order
    drank = rank[diagpos[orow]]
    dorder = np.argsort(drank, kind="stable")
    drank, dpos = drank[dorder], off[dorder]
    dptr = np.searchsorted(drank, gstart)

    divisor = diagpos[cols[epos]]
    tlocal = tr - np.repeat(gstart[:-1], np.diff(tptr))
    dlocal = drank - np.repeat(gstart[:-1], np.diff(dptr))
    steps = []
    for g in range(len(gstart) - 1):
        s, e = gstart[g], gstart[g + 1]
        if ekey[s] % width == width - 1:
            d = slice(dptr[g], dptr[g + 1])
            steps.append(("diag", epos[s:e], dpos[d], dlocal[d]))
        else:
            t = slice(tptr[g], tptr[g + 1])
            steps.append(("off", epos[s:e], divisor[s:e], left[t], right[t], tlocal[t]))
    return steps


def _ic0_levels(orow: np.ndarray, crow: np.ndarray, colptr: np.ndarray) -> np.ndarray:
    """Row levels from the strict lower pattern (rows orow by row, crow by
    column), found wavefront by wavefront."""
    n = len(colptr) - 1
    ccount = np.diff(colptr)
    level = np.empty(n, dtype=np.int64)
    waiting = np.bincount(orow, minlength=n)
    front = np.nonzero(waiting == 0)[0]
    nlev = 0
    while len(front):
        level[front] = nlev
        nlev += 1
        dep = crow[_segments(colptr[front], ccount[front])]
        np.subtract.at(waiting, dep, 1)
        front = np.unique(dep[waiting[dep] == 0])
    return level


def _ic0_triples(keys: np.ndarray, crow: np.ndarray, cpos: np.ndarray,
                 colptr: np.ndarray):
    """Update triples as CSR positions (target, left, right): pairs j < i
    within column k of the strict lower part give target (i, j), left
    (i, k) and right (j, k), kept when (i, j) is in the pattern. keys are
    row * n + col of the pattern, ascending; crow/cpos list the strict
    lower part by column."""
    n = len(colptr) - 1
    a = np.arange(len(crow), dtype=np.int64)
    after = np.repeat(colptr[1:], np.diff(colptr)) - 1 - a
    b = _segments(a + 1, after)
    a = np.repeat(a, after)
    want = crow[b] * n + crow[a]
    loc = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = keys[loc] == want
    return loc[hit], cpos[b[hit]], cpos[a[hit]]


def _ic0_numeric(vals: np.ndarray, steps: list) -> bool:
    """Run the scheduled IC(0) steps on vals in place; False on a failed pivot."""
    for step in steps:
        if step[0] == "off":
            _, E, D, left, right, T = step
            acc = np.bincount(T, weights=vals[left] * vals[right], minlength=len(E))
            vals[E] = (vals[E] - acc) / vals[D]
        else:
            _, P, O, T = step
            acc = np.bincount(T, weights=vals[O] * vals[O], minlength=len(P))
            d = vals[P]
            piv = d - acc
            if np.any((piv <= 1e-14 * np.abs(d)) | (piv <= 0.0)):
                return False
            vals[P] = np.sqrt(piv)
    return True


_PRECONDITIONER_CLASSES = {"jacobi": _Jacobi, "ic0": _IncompleteCholesky}
PRECONDITIONERS = tuple(_PRECONDITIONER_CLASSES)


def _check_preconditioner(name: str) -> None:
    if name not in PRECONDITIONERS:
        raise ValidationError(f"unknown preconditioner {name!r}; expected one of {PRECONDITIONERS}")


def make_preconditioner(A: sp.csr_matrix, name: str):
    _check_preconditioner(name)
    return _PRECONDITIONER_CLASSES[name](A)


def cg_solve(A: sp.csr_matrix, b: np.ndarray, *, tol: float, preconditioner: str,
             max_iter: int | None = None):
    """Preconditioned CG from x = 0. Returns (x, SolverReport).

    Convergence means ||b - Ax|| <= tol * ||b||; from x = 0 that takes at
    least one iteration unless b = 0, so a useful tol lies below 1. Hitting
    max_iter returns the best iterate with converged=False; a nonpositive
    curvature direction raises NotPositiveDefiniteError.
    """
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError(f"matrix must be square, got {A.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValidationError(f"rhs has shape {b.shape}, expected ({n},)")
    if max_iter is None:
        max_iter = max(5 * n, 100)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolverReport(True, 0, 0.0, preconditioner)

    t0 = time.perf_counter()
    M = make_preconditioner(A, preconditioner)
    t1 = time.perf_counter()

    def done(converged, it, relres):
        return x, SolverReport(converged, it, relres, preconditioner, M.shift,
                               setup_s=t1 - t0, iterate_s=time.perf_counter() - t1)

    x = np.zeros(n)
    r = b.copy()  # b - A @ x at x = 0
    relres = 1.0
    z = M.apply(r)
    p = z.copy()
    tmp = np.empty(n)
    rz = float(r @ z)
    it = 0
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp):
            raise SolverError(f"CG produced a non-finite value at iteration {it}")
        if pAp <= 0.0:
            raise NotPositiveDefiniteError(
                f"nonpositive curvature p'Ap = {pAp:.3e} at iteration {it}; "
                "operator is not positive definite"
            )
        alpha = rz / pAp
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(Ap, alpha, out=tmp)
        r -= tmp
        relres = float(np.linalg.norm(r)) / bnorm
        if relres <= tol:
            return done(True, it, relres)
        z = M.apply(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            # SPD preconditioner forces r'z > 0 unless r is numerically zero
            return done(relres <= tol, it, relres)
        p *= rz_new / rz  # p = z + beta * p, in place
        p += z
        rz = rz_new
    return done(False, it, relres)


@dataclass
class SpdCheckResult:
    n: int
    symmetric: bool
    cholesky_ok: bool
    min_eigenvalue: float | None


def dense_spd_check(A: sp.csr_matrix) -> SpdCheckResult:
    """Densify and verify SPD-ness; small systems only by design (n <= 500,
    the smallest eigenvalue for n <= 200)."""
    n = A.shape[0]
    if n > 500:
        raise ValidationError(f"dense SPD check limited to n <= 500, got {n}")
    D = A.toarray()
    scale = max(float(np.abs(D).max()), 1e-300)
    symmetric = bool(np.abs(D - D.T).max() <= 1e-12 * scale)
    try:
        np.linalg.cholesky(D)
        chol = True
    except np.linalg.LinAlgError:
        chol = False
    mineig = float(np.linalg.eigvalsh(D).min()) if n <= 200 else None
    return SpdCheckResult(n=n, symmetric=symmetric, cholesky_ok=chol, min_eigenvalue=mineig)
