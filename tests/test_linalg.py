"""Symmetry check, CG solver, preconditioners, diagnostics."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from boxdfm.assembly import assemble_system
from boxdfm.benchmarks import get_scenario
from boxdfm.dofspace import build_dof_map
from boxdfm.errors import NotPositiveDefiniteError, ValidationError
from boxdfm.generators import kuhn_cube_mesh
from boxdfm.linalg import (cg_solve, check_symmetric, dense_spd_check,
                           make_preconditioner)
from boxdfm.materials import BarrierLaw, FractureLaw, MaterialModel
from conftest import barrier_square


def assembled_system(n=6, beta_scale=1e-3):
    mesh = barrier_square(n=n, jitter=0.2, seed=4)
    dm = build_dof_map(mesh, "barrier_cuts")
    mats = MaterialModel(matrix={1: 1.0, 2: 3.0}, fractures={},
                         barriers={10: BarrierLaw(1e-2, 1e-2 * beta_scale)},
                         dim=2)
    return assemble_system(
        mesh, dm, mats,
        dirichlet={1: lambda p, r: np.zeros(len(p)),
                   2: lambda p, r: np.ones(len(p))},
        neumann={3: lambda p, r: np.zeros(len(p)), 4: lambda p, r: np.zeros(len(p))},
    )


def spd2(entries):
    return sp.csr_matrix(np.array(entries, dtype=float))


def test_cg_matches_direct_solve():
    system = assembled_system()
    x, report = cg_solve(system.A, system.b, tol=1e-12, preconditioner="ic0")
    assert report.converged
    assert report.iterations > 0
    assert report.relative_residual <= 1e-12
    direct = spla.spsolve(system.A.tocsc(), system.b)
    assert np.abs(x - direct).max() <= 1e-9 * np.abs(direct).max()


def test_preconditioners_agree():
    system = assembled_system()
    sols = {}
    for name in ("jacobi", "ic0"):
        x, report = cg_solve(system.A, system.b, tol=1e-12, preconditioner=name)
        assert report.converged, name
        assert report.preconditioner == name
        assert report.shift >= 0.0
        sols[name] = x
    assert np.abs(sols["jacobi"] - sols["ic0"]).max() <= 1e-9


def reference_cg(A, b, tol, M):
    """Textbook PCG with out-of-place updates, stopped as cg_solve stops."""
    x = np.zeros(len(b))
    r = b - A @ x
    z = M.apply(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, 5 * len(b)):
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        if np.linalg.norm(r) / np.linalg.norm(b) <= tol:
            return x, it
        z = M.apply(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference CG did not converge")


@pytest.mark.parametrize("name", ["jacobi", "ic0"])
def test_cg_in_place_updates_keep_the_iterates(name):
    system = assembled_system()
    x, report = cg_solve(system.A, system.b, tol=1e-12, preconditioner=name)
    ref, it = reference_cg(system.A, system.b, 1e-12, make_preconditioner(system.A, name))
    assert report.iterations == it
    assert np.array_equal(x, ref)


def test_unknown_preconditioner_rejected():
    system = assembled_system(n=4)
    for name in ("ilu", "none"):
        with pytest.raises(ValidationError, match=f"unknown preconditioner '{name}'"):
            cg_solve(system.A, system.b, tol=1e-10, preconditioner=name)


def test_zero_rhs_short_circuits():
    A = spd2([[2.0, -1.0], [-1.0, 2.0]])
    x, report = cg_solve(A, np.zeros(2), tol=1e-10, preconditioner="jacobi")
    assert report.converged and report.iterations == 0
    assert np.all(x == 0.0)


def test_rhs_shape_checked():
    A = spd2([[2.0, -1.0], [-1.0, 2.0]])
    with pytest.raises(ValidationError):
        cg_solve(A, np.ones(3), tol=1e-10, preconditioner="jacobi")
    with pytest.raises(ValidationError, match="square"):
        cg_solve(sp.csr_matrix(np.ones((2, 3))), np.ones(2), tol=1e-10, preconditioner="jacobi")


def test_max_iter_returns_unconverged():
    system = assembled_system()
    x, report = cg_solve(system.A, system.b, tol=1e-14, max_iter=1,
                         preconditioner="jacobi")
    assert not report.converged
    assert report.iterations == 1
    assert report.relative_residual > 1e-14


def test_indefinite_operator_raises():
    # eigenvalues 3 and -1; the unit diagonal makes Jacobi plain CG
    A = spd2([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="nonpositive curvature"):
        cg_solve(A, np.array([1.0, -1.0]), tol=1e-10, preconditioner="jacobi")


def test_nonpositive_diagonal_rejected():
    A = spd2([[1.0, 0.0], [0.0, -1.0]])
    for name in ("jacobi", "ic0"):
        with pytest.raises(NotPositiveDefiniteError):
            cg_solve(A, np.ones(2), tol=1e-10, preconditioner=name)


def test_dense_spd_check_verdicts():
    system = assembled_system(n=4)
    res = dense_spd_check(system.A)
    assert res.symmetric and res.cholesky_ok
    assert res.min_eigenvalue is not None and res.min_eigenvalue > 0.0

    bad = dense_spd_check(spd2([[1.0, 2.0], [2.0, 1.0]]))
    assert bad.symmetric and not bad.cholesky_ok
    assert bad.min_eigenvalue == pytest.approx(-1.0)

    big = sp.eye(501, format="csr")
    with pytest.raises(ValidationError):
        dense_spd_check(big)


def test_check_symmetric_rejects_asymmetry():
    with pytest.raises(ValidationError, match="not symmetric"):
        check_symmetric(spd2([[2.0, 1.0], [0.999, 2.0]]))
    # numerically symmetric but structurally one-sided pattern
    lop = sp.csr_matrix((np.array([2.0, 0.0, 2.0]),
                         (np.array([0, 0, 1]), np.array([0, 1, 1]))),
                        shape=(2, 2))
    with pytest.raises(ValidationError, match="structurally"):
        check_symmetric(lop)
    check_symmetric(assembled_system(n=4).A)


def reference_ic0(A, shift=0.0):
    """Row-by-row IC(0) on the pattern of tril(A), the oracle for the
    level-scheduled factorization: factor data, or None on a failed pivot."""
    L = sp.tril(A, format="csr")
    L.sort_indices()
    ptr, idx = L.indptr, L.indices
    vals = L.data.astype(np.float64)
    vals[ptr[1:] - 1] += shift * A.diagonal()
    for i in range(A.shape[0]):
        s, e = ptr[i], ptr[i + 1]
        for p in range(s, e - 1):
            j = idx[p]
            _, a, b = np.intersect1d(idx[s:p], idx[ptr[j]:ptr[j + 1] - 1],
                                     assume_unique=True, return_indices=True)
            vals[p] = (vals[p] - vals[s + a] @ vals[ptr[j] + b]) / vals[ptr[j + 1] - 1]
        piv = vals[e - 1] - vals[s:e - 1] @ vals[s:e - 1]
        if piv <= 1e-14 * abs(vals[e - 1]) or piv <= 0.0:
            return None
        vals[e - 1] = np.sqrt(piv)
    return vals


def scenario_system(name, policy):
    sc = get_scenario(name)
    mesh = sc.mesh_factory(sc.default_refine)
    return assemble_system(mesh, build_dof_map(mesh, policy), sc.materials,
                           source=sc.source, neumann=sc.neumann,
                           dirichlet=sc.dirichlet)


def cube_system(policy):
    """3d: a barrier plane x = 0.5 crossed by a fracture plane y = 0.5."""
    tags = {1: "dirichlet", 2: "dirichlet", 40: "barrier", 41: "fracture"}
    tags.update({t: "neumann" for t in range(3, 7)})
    mesh = kuhn_cube_mesh(4, planes=[(0, 0.5, (0.0, 0.0), (1.0, 1.0), 40),
                                     (1, 0.5, (0.0, 0.0), (1.0, 1.0), 41)],
                          tag_map=tags)
    mats = MaterialModel(matrix={1: 1.0}, fractures={41: FractureLaw(1e-2, 1e3)},
                         barriers={40: BarrierLaw(1e-3, 1e-4)}, dim=3)
    zero = lambda p, *r: np.zeros(len(p))  # noqa: E731
    return assemble_system(
        mesh, build_dof_map(mesh, policy), mats,
        dirichlet={1: zero, 2: lambda p, r: np.ones(len(p))},
        neumann={t: zero for t in range(3, 7)},
    )


@pytest.mark.parametrize("policy", ["barrier_cuts", "fracture_penetrates"])
@pytest.mark.parametrize("build", [lambda pol: scenario_system("ex54a", pol),
                                   cube_system], ids=["ex54a-2d", "cube-3d"])
def test_ic0_factor_matches_row_by_row_reference(build, policy):
    A = build(policy).A
    M = make_preconditioner(A, "ic0")
    ref = reference_ic0(A)
    assert M.shift == 0.0 and ref is not None
    assert np.abs(M.L.data - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ic0_long_dependency_chain():
    # a path graph: every row depends on the previous one, one level each
    n = 60
    T = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    A = T.tocsr() + sp.eye(n, format="csr") * 1e-3
    M = make_preconditioner(A, "ic0")
    ref = reference_ic0(A)
    assert np.abs(M.L.data - ref).max() <= 1e-14 * np.abs(ref).max()


def test_ic0_kershaw_needs_the_unit_shift():
    # SPD, but IC(0) breaks down until the retries reach shift 1
    K = spd2([[3, -2, 0, 2], [-2, 3, -2, 0], [0, -2, 3, -2], [2, 0, -2, 3]])
    assert dense_spd_check(K).cholesky_ok
    assert all(reference_ic0(K, s) is None for s in (0.0, 1e-3, 1e-2, 1e-1))
    M = make_preconditioner(K, "ic0")
    assert M.shift == 1.0
    ref = reference_ic0(K, 1.0)
    assert np.abs(M.L.data - ref).max() <= 1e-14 * np.abs(ref).max()
    b = np.array([1.0, -2.0, 0.5, 3.0])
    x, report = cg_solve(K, b, tol=1e-12, preconditioner="ic0")
    assert report.converged and report.shift == 1.0
    assert np.allclose(K.toarray() @ x, b, atol=1e-10)


def test_ic0_application_is_the_factor_itself():
    A = assembled_system().A
    M = make_preconditioner(A, "ic0")
    ident = np.arange(A.shape[0])
    assert np.array_equal(M.lu.perm_r, ident)
    assert np.array_equal(M.lu.perm_c, ident)
    r = np.random.default_rng(3).standard_normal(A.shape[0])
    y = spla.spsolve_triangular(M.L, r, lower=True)
    z = spla.spsolve_triangular(M.L.T.tocsr(), y, lower=False)
    assert np.abs(M.apply(r) - z).max() <= 1e-12 * np.abs(z).max()


def test_solver_report_times_setup_and_iterations():
    system = assembled_system()
    _, report = cg_solve(system.A, system.b, tol=1e-12, preconditioner="ic0")
    assert report.setup_s > 0.0 and report.iterate_s > 0.0
