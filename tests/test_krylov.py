"""Krylov loops against dense solves, their call contract, and scipy parity."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlab import (
    BundleSpec,
    DemaillyParams,
    State,
    build_curvature,
    make_grid,
    newton_at_t,
    solve_helmholtz,
    solve_t0,
)
from demlab import solvers
from demlab.krylov import LinearMap, cg, gmres

SRC = Path(__file__).resolve().parent.parent / "src"
_EPS = float(np.finfo(float).eps)


def _counted(matrix_or_op, calls: Counter, key: str) -> LinearMap:
    if isinstance(matrix_or_op, np.ndarray):
        size, action = matrix_or_op.shape[0], matrix_or_op.__matmul__
    else:
        size, action = matrix_or_op.size, matrix_or_op.matvec

    def matvec(x):
        calls[key] += 1
        return action(x)

    return LinearMap(size, matvec)


def _spd_system(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    # Diagonally scaled so that the Jacobi preconditioner matters.
    scale = np.exp(rng.uniform(-3.0, 3.0, size=n))
    a = scale[:, None] * (q @ np.diag(rng.uniform(1.0, 50.0, size=n)) @ q.T) * scale[None, :]
    return a, rng.normal(size=n)


def _nonsymmetric_system(n, seed):
    rng = np.random.default_rng(seed)
    a = np.diag(rng.uniform(1.0, 10.0, size=n)) + rng.normal(size=(n, n)) / np.sqrt(n)
    return a, rng.normal(size=n)


def _jacobi(a):
    return np.diag(1.0 / np.diag(a))


def _rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cg_matches_dense_solve(seed):
    a, b = _spd_system(30, seed)
    calls = Counter()
    x, info = cg(
        _counted(a, calls, "A"), b, rtol=1e-13, maxiter=500, M=_counted(_jacobi(a), calls, "M")
    )
    assert info == 0
    assert _rel_err(x, np.linalg.solve(a, b)) <= 1e-9
    assert np.linalg.norm(b - a @ x) <= 1e-13 * np.linalg.norm(b)
    # One operator and one preconditioner application per iteration.
    assert calls["A"] == calls["M"] > 0


@pytest.mark.parametrize("restart", [5, 30])
@pytest.mark.parametrize("seed", [0, 1])
def test_gmres_matches_dense_solve(seed, restart):
    a, b = _nonsymmetric_system(30, seed)
    calls = Counter()
    x, info = gmres(
        _counted(a, calls, "A"),
        b,
        rtol=1e-12,
        restart=restart,
        maxiter=200,
        M=_counted(_jacobi(a), calls, "M"),
    )
    assert info == 0
    assert _rel_err(x, np.linalg.solve(a, b)) <= 1e-10
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    # M b once, reused as the first cycle's starting vector, then M per
    # later restart and per inner step; the operator runs per inner step and
    # per restart (a cycle's true residual is updated from the products it
    # already took and taken afresh only to restart), so M runs once more
    # than A.
    assert calls["A"] == calls["M"] - 1
    if restart < 30:
        assert calls["A"] > restart + 1  # the restart path was taken


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    spread=st.floats(0.0, 4.0),
    restart=st.sampled_from([3, 10, 30]),
    rtol=st.sampled_from([1e-6, 1e-10]),
)
def test_gmres_convergence_holds_for_the_explicit_residual(seed, spread, restart, rtol):
    # gmres judges convergence on the residual updated from the products of
    # its inner steps; whenever it reports success, the residual taken
    # afresh must meet the tolerance too, up to rounding.
    a, b = _nonsymmetric_system(30, seed)
    scale = np.exp(np.random.default_rng(seed + 100).uniform(-spread, spread, 30))
    prec = LinearMap(30, (np.diag(scale) @ _jacobi(a)).__matmul__)
    x, info = gmres(LinearMap(30, a.__matmul__), b, rtol=rtol, restart=restart, maxiter=300, M=prec)
    if info == 0:
        assert np.linalg.norm(b - a @ x) <= 1.001 * rtol * np.linalg.norm(b)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    spread=st.floats(0.0, 4.0),
    rtol=st.sampled_from([3e-4, 1e-8, 1e-13]),
)
def test_cg_convergence_holds_for_the_explicit_residual(seed, spread, rtol):
    # cg judges convergence on the residual its recurrence updates, and the
    # inexact Helmholtz solve returns on that judgement alone; whenever cg
    # reports success, the residual taken afresh must meet the tolerance
    # too, up to rounding.  The recurrence drifts from b - A x by rounding
    # of the order eps |A| |x| (Greenbaum, Iterative Methods for Solving
    # Linear Systems, 1997, 7.3).  On these badly scaled systems the
    # explicit residual stayed within 1.001 rtol |b| at rtol 3e-4 and 1e-8
    # over 1200 draws; at 1e-13 the drift took it to 3.3 rtol |b|.
    a, b = _spd_system(30, seed)
    scale = np.exp(np.random.default_rng(seed + 100).uniform(-spread, spread, 30))
    prec = LinearMap(30, (scale / np.diag(a)).__mul__)
    x, info = cg(LinearMap(30, a.__matmul__), b, rtol=rtol, maxiter=500, M=prec)
    if info == 0:
        drift = _EPS * np.linalg.norm(a, 2) * np.linalg.norm(x)
        assert np.linalg.norm(b - a @ x) <= 1.001 * rtol * np.linalg.norm(b) + drift


def test_zero_right_hand_side_returns_zero():
    a, _ = _nonsymmetric_system(10, 3)
    calls = Counter()
    op, prec = _counted(a, calls, "A"), _counted(a, calls, "M")
    for x, info in (
        cg(op, np.zeros(10), rtol=1e-10, maxiter=10, M=prec),
        gmres(op, np.zeros(10), rtol=1e-10, restart=10, maxiter=10, M=prec),
    ):
        assert info == 0
        assert np.array_equal(x, np.zeros(10))
    assert not calls


def test_exhausted_maxiter_reports_failure():
    a, b = _spd_system(30, 4)
    jacobi = LinearMap(30, _jacobi(a).__matmul__)
    x, info = cg(LinearMap(30, a.__matmul__), b, rtol=1e-13, maxiter=3, M=jacobi)
    assert info == 3
    assert np.all(np.isfinite(x))
    a, b = _nonsymmetric_system(30, 4)
    jacobi = LinearMap(30, _jacobi(a).__matmul__)
    x, info = gmres(
        LinearMap(30, a.__matmul__), b, rtol=1e-13, restart=2, maxiter=2, M=jacobi
    )
    assert info == 2
    assert np.all(np.isfinite(x))


def test_linear_map_exposes_operator_attributes():
    op = LinearMap(7, lambda x: 2.0 * x)
    assert op.shape == (7, 7)
    assert op.dtype == np.float64
    assert np.array_equal(op.matvec(np.ones(7)), np.full(7, 2.0))


def test_import_keeps_scipy_out():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import demlab, demlab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------- scipy parity


def _capture(monkeypatch, name):
    systems = []
    real = getattr(solvers, name)

    def spy(A, b, **kwargs):
        systems.append((A, np.array(b), kwargs))
        return real(A, b, **kwargs)

    monkeypatch.setattr(solvers, name, spy)
    return systems


def _assert_parity(ours, theirs, system, m_saved=0, a_saved=0):
    # ``m_saved`` and ``a_saved`` are how many fewer preconditioner and
    # operator applications ours makes: scipy's gmres applies M to b twice,
    # ours once, and takes the first cycle's true residual with a fresh
    # matvec, where ours sums the products of its inner steps.
    op, b, kwargs = system
    results = []
    for solve in (ours, theirs):
        calls = Counter()
        args = dict(kwargs, M=_counted(kwargs["M"], calls, "M"))
        x, info = solve(_counted(op, calls, "A"), b, **args)
        results.append((x, info, calls))
    (x, info, calls), (x_ref, info_ref, calls_ref) = results
    calls_ref["M"] -= m_saved
    calls_ref["A"] -= a_saved
    assert calls == calls_ref
    assert info == info_ref
    assert _rel_err(x, x_ref) <= 1e-12


def test_gmres_matches_scipy_on_newton_system(monkeypatch):
    sp = pytest.importorskip("scipy.sparse.linalg")
    grid = make_grid(16, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    systems = _capture(monkeypatch, "gmres")
    newton_at_t(State(grid, state0.f, state0.u, 0.05), 0.05, curv, params)
    assert systems
    for system in systems:
        _assert_parity(gmres, sp.gmres, system, m_saved=1, a_saved=1)


def test_cg_matches_scipy_on_variable_helmholtz(monkeypatch):
    sp = pytest.importorskip("scipy.sparse.linalg")
    grid = make_grid(16, 4.0)
    c = grid.sample(lambda X, Y: 2.0 + np.cos(2 * np.pi * X) * np.sin(4 * np.pi * Y))
    rhs = grid.sample(lambda X, Y: np.sin(2 * np.pi * (X + 2 * Y)) + 0.3)
    systems = _capture(monkeypatch, "cg")
    solve_helmholtz(grid, c, rhs)
    assert systems
    for system in systems:
        _assert_parity(cg, sp.cg, system)


@pytest.mark.parametrize("seed, spread, restart", [(0, 2, 10), (0, 4, 10), (4, 2, 3)])
def test_gmres_matches_scipy_across_restarts(seed, spread, restart):
    # A badly scaled preconditioner makes the preconditioned residual a poor
    # guide to the true one, so restarts cut and relax the inner tolerance;
    # at spread 4 the run ends with maxiter exhausted.
    sp = pytest.importorskip("scipy.sparse.linalg")
    a, b = _nonsymmetric_system(30, seed)
    scale = np.exp(np.random.default_rng(seed + 100).uniform(-spread, spread, 30))
    op = LinearMap(30, a.__matmul__)
    prec = LinearMap(30, (np.diag(scale) @ _jacobi(a)).__matmul__)
    system = (op, b, dict(rtol=1e-10, restart=restart, maxiter=300, M=prec))
    _assert_parity(gmres, sp.gmres, system, m_saved=1, a_saved=1)


@pytest.mark.parametrize("rtol", [1e-6, 1e-10])
@pytest.mark.parametrize("seed", [0, 1])
def test_cg_matches_scipy_on_dense_system(seed, rtol):
    sp = pytest.importorskip("scipy.sparse.linalg")
    a, b = _spd_system(30, seed)
    op = LinearMap(30, a.__matmul__)
    prec = LinearMap(30, _jacobi(a).__matmul__)
    _assert_parity(cg, sp.cg, (op, b, dict(rtol=rtol, maxiter=500, M=prec)))
