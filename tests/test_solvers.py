"""Helmholtz kernel, t=0 construction, fixed-point map halves, and Newton."""

import functools
import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demlab import (
    BundleSpec,
    ConeViolationError,
    DemaillyParams,
    Grid,
    HelmholtzError,
    MaxIterationsError,
    NoDescentError,
    State,
    closed_form_state,
    build_curvature,
    cone_factors,
    l_inverse,
    make_grid,
    march,
    newton_at_t,
    picard_solve,
    picard_step,
    random_band_limited,
    residual,
    residual_sup,
    solve_helmholtz,
    solve_t0,
    state_distance,
    u_step,
    v_step,
)
from demlab import cli, model, solvers
from demlab.krylov import LinearMap
from dataclasses import replace

from test_homotopy import _positively_curved_cases

logger = logging.getLogger(__name__)


@pytest.fixture
def grid16():
    return make_grid(16, 4.0)


@pytest.fixture
def constant_setup(grid16):
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    return spec, curv, state0, params


# ---------------------------------------------------------------- Helmholtz


def test_helmholtz_constants(grid16):
    w = solve_helmholtz(grid16, 1.0, np.full((16, 16), -0.25))
    assert np.max(np.abs(w - 0.25)) < 1e-13
    w = solve_helmholtz(grid16, 1.0, np.full((16, 16), 0.25))
    assert np.max(np.abs(w + 0.25)) < 1e-13


def test_helmholtz_cosine_multiplier(grid16):
    rhs = grid16.sample(lambda X, Y: np.cos(2 * np.pi * X))
    w = solve_helmholtz(grid16, 2.0, rhs)
    expected = rhs / (-np.pi**2 / 2 - 2.0)
    assert np.max(np.abs(w - expected)) < 1e-13


def test_helmholtz_manufactured_variable_coefficient(grid16):
    rng = np.random.default_rng(8)
    w_exact = random_band_limited(grid16, rng, kmax=4, amplitude=0.7)
    c = np.exp(random_band_limited(grid16, rng, kmax=3, amplitude=0.9))
    rhs = grid16.laplacian(w_exact) - c * w_exact
    w = solve_helmholtz(grid16, c, rhs)
    assert np.max(np.abs(w - w_exact)) < 1e-10


def test_helmholtz_rejects_nonpositive_coefficient(grid16):
    with pytest.raises(ValueError):
        solve_helmholtz(grid16, 0.0, np.ones((16, 16)))
    c = np.ones((16, 16))
    c[3, 4] = -0.1
    with pytest.raises(ValueError):
        solve_helmholtz(grid16, c, np.ones((16, 16)))


def test_helmholtz_matches_dense_solve(grid16):
    # Small-instance oracle: assemble the dense matrix of (lap - c) column by
    # column and solve directly.
    rng = np.random.default_rng(17)
    c = 1.0 + np.exp(random_band_limited(grid16, rng, kmax=2, amplitude=0.5))
    rhs = random_band_limited(grid16, rng, kmax=5, amplitude=1.0)
    n = 16
    dense = np.empty((n * n, n * n))
    for j in range(n * n):
        e = np.zeros(n * n)
        e[j] = 1.0
        basis = e.reshape(n, n)
        dense[:, j] = (grid16.laplacian(basis) - c * basis).ravel()
    w_dense = np.linalg.solve(dense, rhs.ravel()).reshape(n, n)
    w = solve_helmholtz(grid16, c, rhs)
    assert np.max(np.abs(w - w_dense)) <= 1e-10


def _count_cg(monkeypatch):
    # Wraps solvers.cg; returns the list of each solve's info (0 converged,
    # 400 at the iteration cap of solve_helmholtz).
    infos = []
    real_cg = solvers.cg

    def counted(*args, **kwargs):
        x, info = real_cg(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(solvers, "cg", counted)
    return infos


def _wide_coefficient(grid, amplitude):
    return grid.sample(
        lambda X, Y: np.exp(amplitude * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    )


def test_helmholtz_stops_refining_without_progress(monkeypatch, grid16):
    # c spans e^-40 to e^40, beyond what the mean-coefficient preconditioner
    # lets CG resolve in 400 iterations.  The second round does not halve
    # the first round's residual, so the solve raises after 2 capped CG
    # solves instead of running all 5 rounds.
    infos = _count_cg(monkeypatch)
    rhs = grid16.sample(lambda X, Y: np.cos(2 * np.pi * X) + 0.5 * np.sin(4 * np.pi * Y))
    with pytest.raises(HelmholtzError):
        solve_helmholtz(grid16, _wide_coefficient(grid16, 40.0), rhs)
    assert infos == [400, 400]


def test_helmholtz_keeps_refining_while_rounds_progress(monkeypatch, grid16):
    # At e^+-35 every CG round hits its cap, but each refinement round at
    # least halves the residual, and the fifth reaches the target.
    infos = _count_cg(monkeypatch)
    c = _wide_coefficient(grid16, 35.0)
    rhs = grid16.sample(lambda X, Y: np.cos(2 * np.pi * X) + 0.5 * np.sin(4 * np.pi * Y))
    w = solve_helmholtz(grid16, c, rhs)
    assert infos == [400] * 5
    res = grid16.laplacian(w) - c * w - rhs
    assert grid16.sup(res) <= 1e-11 * (grid16.sup(rhs) + grid16.sup(w))


def test_helmholtz_inexact_solve_raises_on_a_miss(monkeypatch, grid16):
    # With rtol given, the solve is one CG solve with no refinement; at the
    # span e^+-40 it misses even the loose forcing tolerance 3e-4 within 400
    # iterations, and the miss raises instead of returning the last iterate.
    infos = _count_cg(monkeypatch)
    rhs = grid16.sample(lambda X, Y: np.cos(2 * np.pi * X) + 0.5 * np.sin(4 * np.pi * Y))
    for amplitude in (40.0, 35.0):
        with pytest.raises(HelmholtzError):
            solve_helmholtz(grid16, _wide_coefficient(grid16, amplitude), rhs, rtol=3e-4)
    assert infos == [400, 400]


def test_helmholtz_inexact_solve_meets_its_tolerance(monkeypatch, grid16):
    # One CG solve, whose 2-norm residual is at most rtol |rhs|.
    infos = _count_cg(monkeypatch)
    rng = np.random.default_rng(8)
    c = np.exp(random_band_limited(grid16, rng, kmax=3, amplitude=0.9))
    rhs = random_band_limited(grid16, rng, kmax=4, amplitude=0.7)
    for rtol in (3e-4, 1e-8):
        w = solve_helmholtz(grid16, c, rhs, rtol=rtol)
        res = grid16.laplacian(w) - c * w - rhs
        assert np.linalg.norm(res) <= rtol * np.linalg.norm(rhs)
    assert infos == [0, 0]


@pytest.mark.parametrize("rtol", [0.0, 1.0, -1e-3, 2.0, np.nan, np.inf])
def test_helmholtz_rejects_rtol_outside_the_unit_interval(grid16, rtol):
    rhs = np.ones((16, 16))
    for c in (2.0, _wide_coefficient(grid16, 1.0)):
        with pytest.raises(ValueError, match="rtol"):
            solve_helmholtz(grid16, c, rhs, rtol=rtol)


def _variable_case(grid, seed):
    rng = np.random.default_rng(seed)
    c = np.exp(random_band_limited(grid, rng, kmax=3, amplitude=0.9))
    rhs = random_band_limited(grid, rng, kmax=4, amplitude=0.7)
    return c, rhs, rng


def test_helmholtz_start_that_solves_takes_no_cg(monkeypatch, grid16):
    c, rhs, _ = _variable_case(grid16, 8)
    w = solve_helmholtz(grid16, c, rhs)
    infos = _count_cg(monkeypatch)
    assert np.array_equal(solve_helmholtz(grid16, c, rhs, start=w), w)
    assert infos == []


@pytest.mark.parametrize("seed", [3, 8, 21])
@pytest.mark.parametrize("distance", [1e-1, 1e-3])
def test_helmholtz_start_stops_within_its_share_of_the_step(grid16, seed, distance):
    # The maximum principle bounds the error by sup|r / c|, which a started
    # solve stops at _HELMHOLTZ_STEP_RTOL times the step from the start.
    # The spectral Laplacian keeps that principle only approximately, on
    # well-resolved fields, so the data are smooth on purpose (kmax <= 5 on
    # n = 16); there the error is at most 3e-4 of the tie.
    c, rhs, rng = _variable_case(grid16, seed)
    exact = solve_helmholtz(grid16, c, rhs)
    start = exact + random_band_limited(grid16, rng, kmax=5, amplitude=distance)
    w = solve_helmholtz(grid16, c, rhs, start=start)
    assert grid16.sup(w - exact) <= solvers._HELMHOLTZ_STEP_RTOL * grid16.sup(w - start)
    # The tie, not the residual target, stopped it.
    res = grid16.sup(grid16.laplacian(w) - c * w - rhs)
    assert res > 1e-11 * (grid16.sup(rhs) + grid16.sup(w))


def test_helmholtz_rejects_a_start_with_rtol(grid16):
    c, rhs, _ = _variable_case(grid16, 8)
    with pytest.raises(ValueError, match="takes no start"):
        solve_helmholtz(grid16, c, rhs, rtol=1e-3, start=np.zeros((16, 16)))


# --------------------------------------------------------------------- t=0


def test_solve_t0_constant_example(constant_setup):
    _, curv, state0, params = constant_setup
    assert np.max(np.abs(state0.f)) == 0.0
    assert np.allclose(state0.u[0], 0.25, atol=1e-12)
    assert np.allclose(state0.u[1], -0.25, atol=1e-12)
    assert params.alpha0 == 10.0
    assert np.allclose(params.a0, 10.25 * 10.75, atol=1e-12)
    r_f, r_u = residual(state0, curv, params)
    assert residual_sup(r_f, r_u) <= 1e-10


def test_solve_t0_rank_one():
    grid = make_grid(16, 5.0)
    curv = build_curvature(BundleSpec((5,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=6.0, alpha0=10.0))
    assert np.max(np.abs(state0.u)) < 1e-14
    assert np.allclose(params.a0, 11.0, atol=1e-14)


def test_solve_t0_cosine_pair(grid16):
    spec = BundleSpec.cosine_pair((2, 2), 0.1, ((1, 1),))
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    direct = solve_helmholtz(grid16, 1.0, spec.phi_fields(grid16)[0])
    assert np.max(np.abs(state0.u[0] - direct)) < 1e-12
    assert np.max(np.abs(state0.u[1] + direct)) < 1e-12
    r_f, r_u = residual(state0, curv, params)
    assert residual_sup(r_f, r_u) <= 1e-10


def test_solve_t0_state_is_trace_projected(monkeypatch):
    # u_r is rebuilt as -(u_1 + ... + u_{r-1}) bit for bit, so Newton from
    # the t=0 state keeps the lap f and lap u that solve_t0's residual check
    # took, and converges at once without a Laplacian.
    grid = make_grid(16, 6.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 2, 3), 0.3, ((1, 1), (2, 0))), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=10.0, alpha0=10.0))
    assert np.array_equal(state0.u[-1], -np.sum(state0.u[:-1], axis=0))
    calls = []
    real = Grid.laplacian

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Grid, "laplacian", counted)
    _, report = newton_at_t(state0, 0.0, curv, params)
    assert report.iterations == 0
    assert calls == []


def test_solve_t0_refuses_trace_free_parts_that_do_not_cancel(grid16):
    # Hand-built curvature data whose s_i miss sum_i s_i = 0 by 1e-9 cos:
    # no twist logs with zero trace solve the trace-free equations, so the
    # construction must refuse rather than return a state off the system.
    good = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid16)
    X, Y = grid16.coords()
    s = good.s.copy()
    s[0] += 1e-9 * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    bad = model.CurvatureData(grid16, good.degrees, s + 1.0 / good.rank, s)
    with pytest.raises(RuntimeError):
        solve_t0(bad, DemaillyParams(lam=8.0, alpha0=10.0))


def test_solve_t0_rejects_small_lambda(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    with pytest.raises(ValueError, match="lambda"):
        solve_t0(curv, DemaillyParams(lam=2.0, alpha0=10.0))


def test_solve_t0_alpha0_rule(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    # No requested offset: the rule gives max(2, 2 * max |u0|) = 2.
    _, params = solve_t0(curv, DemaillyParams(lam=8.0))
    assert params.alpha0 == 2.0
    # A small requested offset is raised to the rule's floor.
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=0.3))
    assert params.alpha0 == 2.0
    assert params.cone_floor == pytest.approx(1e-6 * 3.0)


@pytest.mark.parametrize("alpha0", [None, 0.3, 10.0])
def test_t0_construction_is_solve_t0_without_the_check(monkeypatch, alpha0):
    # cli.run_verify rebuilds alpha0 and a0 from the construction alone; they
    # are the bits solve_t0 returns, and no residual is evaluated.
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), make_grid(32, 4.0))
    params = DemaillyParams(lam=8.0, alpha0=alpha0)
    state, full = solve_t0(curv, params)
    monkeypatch.setattr(solvers, "residual", None)
    bare_state, bare = solvers._t0_construction(curv, params)
    assert bare.alpha0 == full.alpha0 and bare.cone_floor == full.cone_floor
    assert np.array_equal(bare.a0.view(np.uint64), full.a0.view(np.uint64))
    assert np.array_equal(bare_state.u, state.u) and np.array_equal(bare_state.f, state.f)


# ------------------------------------------------------------------- V step


def test_v_step_constant_cases(constant_setup):
    _, curv, _, params = constant_setup
    u = v_step(np.zeros((16, 16)), curv)
    assert np.max(np.abs(u + curv.s)) < 1e-12
    c = 0.7
    u = v_step(np.full((16, 16), c), curv)
    assert np.max(np.abs(u + curv.s * np.exp(-c))) < 1e-11


def test_v_step_trace_and_integral_identity(grid16):
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid16)
    rng = np.random.default_rng(23)
    for _ in range(3):
        f = random_band_limited(grid16, rng, kmax=3, amplitude=0.5)
        u = v_step(f, curv)
        assert np.max(np.abs(u.sum(axis=0))) <= 1e-10
        for i, d in enumerate(spec.degrees):
            value = grid16.integrate(np.exp(f) * u[i])
            target = sum(spec.degrees) / spec.rank - d
            assert abs(value - target) <= 1e-8


# ------------------------------------------------------------------- U step


def test_u_step_rank_one_closed_form():
    grid = make_grid(16, 5.0)
    curv = build_curvature(BundleSpec((5,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=6.0, alpha0=10.0))
    rng = np.random.default_rng(3)
    f_in = random_band_limited(grid, rng, kmax=2, amplitude=0.05)
    for t in (0.0, 0.5, 1.0):
        U = u_step(f_in, state0.u, t, curv, params)
        expected = np.log((1 + (1 - t) * 10.0) / (1 + 10.0)) / 6.0
        assert np.max(np.abs(U - expected)) < 1e-8


def test_u_step_constant_branch(constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    for t in (0.25, 0.75):
        cf = closed_form_state(spec, params, grid, t)
        U = u_step(cf.f, cf.u, t, curv, params)
        assert np.max(np.abs(U - cf.f)) < 1e-8


def test_u_step_solves_constant_data_without_a_helmholtz_solve(monkeypatch, constant_setup):
    # On constant data the closed-form start of the constant-mode solve,
    # mean((sum_i log A_i - log a0) / lambda - f_in), is exact.  From any
    # constant f_in, with the twist that gives the closed form's
    # w_i = e^f u_i, U is the closed-form potential, and Newton converges
    # at its start: no Helmholtz solve.  One Picard step from there lands
    # on the closed-form state.
    spec, curv, _, params = constant_setup
    grid = curv.grid
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    for t in (0.25, 0.75, 1.0):
        cf = closed_form_state(spec, params, grid, t)
        for level in (-0.5, 0.3):
            f_in = np.full((16, 16), level)
            u = np.exp(cf.f - f_in) * cf.u
            with np.errstate(all="raise"):
                U = u_step(f_in, u, t, curv, params)
                assert solves == []
                new, _ = picard_step(State(grid, f_in, u, t), curv, params)
            solves.clear()
            assert np.max(np.abs(U - cf.f)) <= 1e-14
            assert state_distance(new, cf) <= 1e-14


def test_u_step_identity_at_t0(constant_setup):
    _, curv, state0, params = constant_setup
    U = u_step(state0.f, state0.u, 0.0, curv, params)
    assert np.max(np.abs(U)) < 1e-9


def test_u_step_monotone_in_reference_density(constant_setup):
    _, curv, state0, params = constant_setup
    U = u_step(state0.f, state0.u, 0.5, curv, params)
    bigger = replace(params, a0=1.1 * params.a0)
    U_big = u_step(state0.f, state0.u, 0.5, curv, bigger)
    assert np.all(U_big < U)


def test_u_step_stalls_outside_admissible_set(monkeypatch, grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    # At t=1 the shifts are 1/r - e^f u_i; a large positive twist makes them
    # negative and no potential can satisfy lap(U) + A > 0: lap(U) has mean
    # zero, and here max_i(-A_i) has mean 0.1.  u_step says so before any
    # Helmholtz solve.
    u = np.stack([np.full((16, 16), 0.6), np.full((16, 16), -0.6)])
    solves = []
    monkeypatch.setattr(solvers, "solve_helmholtz", lambda *a, **k: solves.append(1))
    with pytest.raises(ConeViolationError):
        u_step(np.zeros((16, 16)), u, 1.0, curv, params)
    assert solves == []


def test_u_step_far_start_at_t1(grid16):
    # A far start at t=1.  U is checked against the equation it solves,
    # with the shifts A_i = 1/r - e^f_in u_i written out.
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    f_in = random_band_limited(grid16, np.random.default_rng(1), kmax=2, amplitude=0.05)
    U = u_step(f_in, state0.u, 1.0, curv, params)
    shifts = 0.5 - np.exp(f_in)[None, :, :] * state0.u
    lap_u = grid16.laplacian(U)
    target = l_inverse(shifts, np.exp(8.0 * U) * params.a0)
    assert np.max(np.abs(lap_u - target)) <= params.newton_tol
    assert np.min(lap_u[None, :, :] + shifts) > 0.0


def _assert_solves_u_equation(U, f_in, u, t, curv, params):
    # lap(U) = L^{-1}_A(e^(lambda U) a0) to newton_tol, and lap(U) + A_i > 0,
    # with the shifts A_i = 1/r - e^f_in u_i + alpha0 (1 - t) written out.
    grid = curv.grid
    shifts = 1.0 / curv.rank - np.exp(f_in)[None, :, :] * u + (1.0 - t) * params.alpha0
    lap_u = grid.laplacian(U)
    target = l_inverse(shifts, np.exp(params.lam * U) * params.a0)
    assert np.max(np.abs(lap_u - target)) <= params.newton_tol
    assert np.min(lap_u[None, :, :] + shifts) > 0.0


def test_u_step_solves_when_density_at_f_in_leaves_float_range(monkeypatch, grid16):
    # e^(lambda f_in) a0 overflows at lambda = 400, f_in = 2.  The twist
    # makes some shift A_i = 5.5 - e^2 u_i negative, so the constant-mode
    # solve has no closed-form start, and its first density, at f_in itself,
    # overflows: no density at f_in is handed to l_inverse, and Newton
    # starts from lap(f_in) raised into the domain, where U is closed form
    # and in range.  It solves the equation under strict numerics, as it
    # does for the same shifts from an in-range potential (f_in = 0,
    # twist e^2 u).
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=400.0, alpha0=10.0))
    psi = grid16.sample(lambda X, Y: np.cos(2 * np.pi * X))
    u = 0.8 * np.stack([psi, -psi])
    f_in = np.full((16, 16), 2.0)
    assert np.min(0.5 + 5.0 - np.exp(f_in) * u) < 0.0
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    with np.errstate(all="raise"):
        U = u_step(f_in, u, 0.5, curv, params)
    _assert_solves_u_equation(U, f_in, u, 0.5, curv, params)
    assert len(solves) <= 10
    monkeypatch.undo()
    zero = np.zeros((16, 16))
    with np.errstate(all="raise"):
        U = u_step(zero, np.exp(2.0) * u, 0.5, curv, params)
    _assert_solves_u_equation(U, zero, np.exp(2.0) * u, 0.5, curv, params)


def test_u_step_far_start_out_of_float_range_converges(grid16):
    # At f_in = 2, lambda = 400, the density e^(lambda f_in) a0 overflows.
    # Every shift is positive, and the constant-mode solve brings the
    # anchor back into range, where Newton solves the equation.
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=400.0, alpha0=10.0))
    f_in = np.full((16, 16), 2.0)
    with np.errstate(all="raise"):
        U = u_step(f_in, state0.u, 0.5, curv, params)
    _assert_solves_u_equation(U, f_in, state0.u, 0.5, curv, params)


def test_u_step_raises_a_missed_helmholtz_solve(monkeypatch, grid16):
    # A Newton correction whose Helmholtz solve misses its forcing tolerance
    # is not taken: the miss leaves u_step as HelmholtzError.  The miss is
    # forced on the first correction of a far start at lambda = 400.
    spec = BundleSpec.cosine_pair((1, 3), 0.2, ((1, 1),))
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=400.0, alpha0=1000.0))
    bump = random_band_limited(grid16, np.random.default_rng(0), kmax=2, amplitude=0.05)
    f_in = state0.f + bump
    rtols = []

    def missing_solve(grid, c, rhs, *, rtol=None):
        rtols.append(rtol)
        raise HelmholtzError("forced miss")

    monkeypatch.setattr(solvers, "solve_helmholtz", missing_solve)
    with pytest.raises(HelmholtzError, match="forced miss"):
        u_step(f_in, state0.u, 0.5, curv, params)
    assert rtols == [3e-4]


def test_u_step_solves_far_start_in_few_helmholtz_solves(monkeypatch, grid16):
    # A far start (a bump of amplitude 1 on the t=0 state, lambda = 40):
    # Newton in the density v = lap(U) takes 7 Helmholtz solves.
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=40.0, alpha0=50.0))
    bump = random_band_limited(grid16, np.random.default_rng(0), kmax=2, amplitude=1.0)
    f_in = state0.f + bump
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    U = u_step(f_in, state0.u, 0.5, curv, params)
    assert len(solves) <= 10
    shifts = 0.5 - np.exp(f_in)[None, :, :] * state0.u + 0.5 * params.alpha0
    lap_u = grid16.laplacian(U)
    target = l_inverse(shifts, np.exp(40.0 * U) * params.a0)
    assert np.max(np.abs(lap_u - target)) <= params.newton_tol
    assert np.min(lap_u[None, :, :] + shifts) > 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    case=_positively_curved_cases(),
    lam_scale=st.sampled_from([1.0, 5.0]),
    alpha0=st.floats(2.0, 20.0),
    t=st.floats(0.0, 1.0),
    bump=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_u_step_solves_its_equation_on_positively_curved_data(
    case, lam_scale, alpha0, t, bump, seed
):
    # Around the t=0 state of the positively curved family (see
    # test_homotopy), with lambda up to 5 times the family's (so up to 200)
    # and a bump up to 1, whichever start Newton takes, U solves its own
    # equation and stays admissible, under strict numerics.  Underflow is
    # let through: hypothesis draws subnormal bump amplitudes, and the FFT
    # of a subnormal field underflows harmlessly.
    spec, lam = case
    grid = make_grid(16, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=lam_scale * lam, alpha0=alpha0))
    rng = np.random.default_rng(seed)
    f_in = state0.f + random_band_limited(grid, rng, kmax=2, amplitude=bump)
    with np.errstate(all="raise", under="ignore"):
        U = u_step(f_in, state0.u, t, curv, params)
    _assert_solves_u_equation(U, f_in, state0.u, t, curv, params)


def test_u_step_solves_the_large_lambda_far_start_grid(monkeypatch, grid16):
    # 48 far starts at lambda = 400: the t=0 state plus a bump of amplitude
    # 0.15 or 0.2 (seeds 0-3), alpha0 in {10, 100, 1000}, t in {0.5, 1}.
    # Newton in the density solves every member to newton_tol, admissibly,
    # under strict numerics, in 3-6 Helmholtz solves each (about 0.3 s for
    # the grid).  The corrections' CG tolerances are floored at a tenth of
    # newton_tol over sup|F|, which costs no extra correction: 236 solves
    # and 1011 CG matvecs in all (1044 with the floor left out).
    spec = BundleSpec.cosine_pair((1, 3), 0.2, ((1, 1),))
    curv = build_curvature(spec, grid16)
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    matvecs = _count_cg_matvecs(monkeypatch)
    total_solves = 0
    for alpha0 in (10.0, 100.0, 1000.0):
        state0, params = solve_t0(curv, DemaillyParams(lam=400.0, alpha0=alpha0))
        for t in (0.5, 1.0):
            for amplitude in (0.15, 0.2):
                for seed in range(4):
                    rng = np.random.default_rng(seed)
                    f_in = state0.f + random_band_limited(grid16, rng, kmax=2, amplitude=amplitude)
                    solves.clear()
                    with np.errstate(all="raise"):
                        U = u_step(f_in, state0.u, t, curv, params)
                    _assert_solves_u_equation(U, f_in, state0.u, t, curv, params)
                    assert len(solves) <= 10
                    total_solves += len(solves)
    assert total_solves == 236
    assert len(matvecs) <= 1011


def test_u_step_anchor_costs_one_l_inverse_call(monkeypatch):
    # The README case at n=32, started from the t=0 state at t=1, under
    # strict numerics.  u_step's anchor f_in + c has a closed-form shift c,
    # so it costs one l_inverse call, and each Newton trial additive in U
    # one more: the first step takes no correction (1 call), each later step
    # one (2 calls).
    grid = make_grid(32, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid)
    state0, filled = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    calls = []
    real_l_inverse = solvers.l_inverse

    def counted_l_inverse(*args):
        calls.append(1)
        return real_l_inverse(*args)

    monkeypatch.setattr(solvers, "l_inverse", counted_l_inverse)
    state = State(grid, state0.f, state0.u, 1.0)
    per_step = []
    gap = np.inf
    with np.errstate(all="raise"):
        while not gap <= 1e-9:
            calls.clear()
            state, gap = picard_step(state, curv, filled)
            per_step.append(len(calls))
    assert per_step == [1, 2, 2, 2, 2]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    case=_positively_curved_cases(),
    alpha0=st.floats(2.0, 20.0),
    t=st.floats(0.0, 1.0),
    bump=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
)
@example(case=(BundleSpec.cosine_pair((1, 3), 0.2), 8.0), alpha0=10.0, t=1.0, bump=0.0, seed=0)
def test_u_step_step_rtol_stops_within_its_share_of_the_step(case, alpha0, t, bump, seed):
    # With step_rtol, Newton stops once the next correction would move U by
    # at most step_rtol sup|U - f_in|, a bound the maximum principle gives
    # for the correction's Helmholtz solve.  Around the t=0 state of the
    # positively curved family, and on the first Picard step of the README
    # case (the example; a step of 0.798, U lands 8.2e-4 from the exact U),
    # picard_step's tolerance keeps U within 2% of its step of the exact U.
    spec, lam = case
    grid = make_grid(16, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=lam, alpha0=alpha0))
    f_in = state0.f + random_band_limited(grid, np.random.default_rng(seed), kmax=2, amplitude=bump)
    exact = u_step(f_in, state0.u, t, curv, params)
    loose = u_step(f_in, state0.u, t, curv, params, step_rtol=solvers._PICARD_STEP_RTOL)
    assert grid.sup(loose - exact) <= 2e-2 * grid.sup(exact - f_in)


@pytest.mark.parametrize("step_rtol", [np.nan, np.inf, -1e-3, 1.0])
def test_u_step_rejects_step_rtol_outside_the_unit_interval(monkeypatch, grid16, step_rtol):
    # A NaN would turn the step test off and a tie of 1 or more could return
    # the start unsolved; either is refused before any Helmholtz solve, on a
    # far start that picard_step's tie solves with corrections.
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    f_in = random_band_limited(grid16, np.random.default_rng(1), kmax=2, amplitude=0.05)
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    u_step(f_in, state0.u, 1.0, curv, params, step_rtol=solvers._PICARD_STEP_RTOL)
    assert solves
    solves.clear()
    with pytest.raises(ValueError, match="step_rtol"):
        u_step(f_in, state0.u, 1.0, curv, params, step_rtol=step_rtol)
    assert solves == []


# ------------------------------------------------------------------- Picard


def test_picard_gap_vanishes_on_solutions(constant_setup):
    spec, curv, state0, params = constant_setup
    _, gap = picard_step(state0, curv, params)
    assert gap <= 1e-9
    exact = closed_form_state(spec, params, curv.grid, 0.5)
    _, gap = picard_step(exact, curv, params)
    assert gap <= 1e-9
    # On varying data too: from the README case's converged t=1 state, U's
    # step is at newton_tol level, so stopping U within 1% of it still
    # reports such a gap.
    cosine = BundleSpec.cosine_pair((1, 3), 0.2)
    report = march(cosine, DemaillyParams(lam=8.0, alpha0=10.0), curv.grid)
    _, gap = picard_step(report.final_state, build_curvature(cosine, curv.grid), report.params)
    assert gap <= 1e-9


def test_picard_contracts_near_solution(constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    rng = np.random.default_rng(77)
    base = closed_form_state(spec, params, grid, 0.1)
    noise_f = random_band_limited(grid, rng, kmax=2, amplitude=1e-3)
    noise_u = np.stack([random_band_limited(grid, rng, kmax=2, amplitude=1e-3) for _ in range(2)])
    noise_u -= noise_u.mean(axis=0)
    state = State(grid, base.f + noise_f, base.u + noise_u, 0.1)
    gaps = []
    for _ in range(3):
        state, gap = picard_step(state, curv, params)
        gaps.append(gap)
    # Empirical contraction near the solution; recorded, not a theorem.
    logger.info("picard gaps: %s", ["%.3e" % g for g in gaps])
    assert gaps[-1] <= 1e-10


def test_picard_takes_v_at_the_new_potential(constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    rng = np.random.default_rng(5)
    base = closed_form_state(spec, params, grid, 0.5)
    start = State(grid, base.f + random_band_limited(grid, rng, kmax=2, amplitude=0.05), base.u, 0.5)
    new, _ = picard_step(start, curv, params)
    # V is solved from the current twist to within _HELMHOLTZ_STEP_RTOL of
    # its step, so it lies within that tie of the exact V at the new
    # potential and far outside it of the exact V at the old one.
    tie = solvers._HELMHOLTZ_STEP_RTOL * grid.sup(new.u - start.u)
    assert grid.sup(new.u - v_step(new.f, curv)) <= tie
    assert grid.sup(new.u - v_step(start.f, curv)) >= 10.0 * tie


@settings(deadline=None, max_examples=12)
@given(
    a=st.floats(0.0, 0.3),
    mode=st.sampled_from([(1, 1), (2, 1), (1, 0), (3, 2)]),
    t=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_picard_solve_reaches_newtons_state(a, mode, t, seed):
    grid = make_grid(16, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), a, (mode,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    df = random_band_limited(grid, np.random.default_rng(seed), kmax=2, amplitude=0.05)
    start = State(grid, state0.f + df, state0.u, t)
    state, gap, steps = picard_solve(start, curv, params, gap_tol=1e-10, max_steps=10)
    assert gap <= 1e-10, f"gap {gap:.2e} after {steps} steps"
    # Newton starts from the exact t=0 state: from the offset start the t=1
    # cone factors, which lose (1 - t) alpha0, are negative.
    newton_sol, report = newton_at_t(state0, t, curv, params)
    assert report.converged
    assert state_distance(state, newton_sol) <= 1e-8


@functools.cache
def _t1_inverse_jacobian_norm(spec, lam, alpha0):
    """||J^{-1}||_inf of the Newton Jacobian at the march's t=1 state, n=16.

    J maps (df, du_1..du_{r-1}), with du_r = -(du_1 + ... + du_{r-1}), to
    the residual rows (R_f, R_1..R_{r-1}).  Its blocks, from the dense
    Laplacian and the coefficients apply_linearization documents, are
    [[D lap - (lambda + a), -diag(b_j)], [-diag(e_j), lap - e^f]] with the
    twist block the same for every j, so J^{-1} is assembled densely from
    that block's inverse and the Schur complement's, and checked against
    apply_linearization on a random direction.  The rows of J^{-1} for du_r
    are minus the sum of the twist rows and are included, so the norm
    bounds the sup over (f, u_1..u_r).
    """
    grid = make_grid(16, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    report = march(spec, DemaillyParams(lam=lam, alpha0=alpha0), grid)
    assert report.reached_t1
    lin = model.linearize(report.final_state, curv, report.params)
    n, r = grid.n, spec.rank
    nn = n * n
    lap = grid.laplacian(np.eye(nn).reshape(nn, n, n)).reshape(nn, nn).T
    d, lam_a, ef_inv_m = (c.reshape(-1, nn) for c in lin.potential_coefficients)
    b = ef_inv_m[:-1] - ef_inv_m[-1]
    e = lin.ef_u.reshape(r, nn)[:-1]
    twist = np.linalg.inv(lap - np.diag(lin.ef.ravel()))
    coupling = sum(b[j, :, None] * twist * e[j] for j in range(r - 1))
    schur = np.linalg.inv(d.T * lap - np.diag(lam_a[0]) - coupling)
    down = [twist * e[j] @ schur for j in range(r - 1)]
    inverse = np.block(
        [[schur, *(schur * b[k] @ twist for k in range(r - 1))]]
        + [[down[j], *((j == k) * twist + down[j] * b[k] @ twist for k in range(r - 1))]
           for j in range(r - 1)]
    )
    z = np.random.default_rng(0).normal(size=r * nn)
    du = z[nn:].reshape(r - 1, n, n)
    p = model.Perturbation(z[:nn].reshape(n, n), np.concatenate([du, -du.sum(axis=0)[None]]))
    dr_f, dr_u = model.apply_linearization(lin, p)
    assert np.allclose(inverse @ np.concatenate([dr_f.ravel(), dr_u[:-1].ravel()]), z)
    rows = np.concatenate([inverse, -inverse[nn:].reshape(r - 1, nn, -1).sum(axis=0)])
    return float(np.max(np.sum(np.abs(rows), axis=1)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    case=_positively_curved_cases(),
    lam_scale=st.sampled_from([1.0, 5.0]),
    alpha0=st.floats(2.0, 20.0),
    n=st.sampled_from([16, 32]),
    bump=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_picard_fixed_point_is_the_marchs_solution_on_positively_curved_data(
    case, lam_scale, alpha0, n, bump, seed
):
    # The paper's existence argument runs on the map T = (U, V), whose fixed
    # points are the solutions.  Over the positively curved family (see
    # test_homotopy), with lambda up to 5 times the family's (so up to 200),
    # Picard at t=1 from the t=0 state plus a bump of up to 1 reaches a gap
    # of 1e-10 and lands on the march's t=1 state.  The two states'
    # residuals differ by J times their distance, to first order, and the
    # march's is at most newton_tol, so the distance is at most
    # ||J^{-1}||_inf (res + newton_tol), with res the Picard state's
    # residual.  ||J^{-1}|| is that of the march's t=1 state at n=16: it is
    # mesh independent (on a sample of the family, the same to 6 digits at
    # n=32).  Numerics are strict but for underflow: hypothesis draws
    # subnormal bump amplitudes, and the FFT of a subnormal field underflows.
    spec, lam = case
    lam *= lam_scale
    grid = make_grid(n, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    report = march(spec, DemaillyParams(lam=lam, alpha0=alpha0), grid)
    assert report.reached_t1
    filled = report.params
    start = report.steps[0].state
    bumped = start.f + random_band_limited(grid, np.random.default_rng(seed), kmax=2, amplitude=bump)
    with np.errstate(all="raise", under="ignore"):
        state, gap, _ = picard_solve(
            State(grid, bumped, start.u, 1.0), curv, filled, gap_tol=1e-10, max_steps=20
        )
    assert gap <= 1e-10
    norm = _t1_inverse_jacobian_norm(spec, lam, alpha0)
    res = residual_sup(*residual(state, curv, filled))
    assert state_distance(state, report.final_state) <= norm * (res + filled.newton_tol)


# ------------------------------------------------------------------- Newton


def test_newton_from_exact_solution(constant_setup):
    spec, curv, _, params = constant_setup
    exact = closed_form_state(spec, params, curv.grid, 0.5)
    sol, report = newton_at_t(exact, 0.5, curv, params)
    assert report.converged
    assert report.iterations <= 2
    assert report.final_residual <= 1e-10


def test_newton_quadratic_tail(constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 1e-2 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)
    sol, report = newton_at_t(start, 0.5, curv, params)
    assert report.converged
    assert state_distance(sol, cf) < 1e-8
    # Rounding level of R_f: 4 ulps of the sup of the terms it sums.  A
    # quadratic bound below it cannot be met, so only the pairs whose bound
    # sits above it are checked.
    terms = (
        np.abs(np.log(params.require_a0()))
        + params.lam * np.abs(sol.f)
        + np.sum(np.abs(np.log(cone_factors(sol, params))), axis=0)
    )
    rounding = 4.0 * np.finfo(float).eps * float(np.max(terms))
    history = report.residual_history
    assert len(history) >= 3
    for prev, last in zip(history[1:], history[2:]):
        if 100.0 * prev**2 > rounding:
            assert last <= 100.0 * prev**2


def test_newton_rejects_inadmissible_initial(constant_setup):
    _, curv, state0, params = constant_setup
    grid = curv.grid
    bad = State(grid, state0.f, state0.u + 20.0, 0.0)
    with pytest.raises(ConeViolationError):
        newton_at_t(bad, 0.0, curv, params)


def test_newton_max_iterations(monkeypatch, constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 0.3 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)
    monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
    with pytest.raises(MaxIterationsError, match="after 1 iterations"):
        newton_at_t(start, 0.5, curv, params)


def test_every_convergence_test_is_the_params_rule(monkeypatch, constant_setup, tmp_path):
    # With DemaillyParams.converged refusing every residual, Newton cannot
    # converge and verify fails a clean snapshot: no site tests the
    # tolerance on its own.
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 0.1 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)
    config = cli.parse_config(
        "grid.n = 16\nbundle.r = 2\nbundle.degrees = 1,3\nparams.lambda = 8\nparams.alpha0 = 10\n"
    )
    assert cli.run_solve(config, tmp_path) == 0
    snapshot = tmp_path / "snapshots" / "state_0001.snap"
    assert cli.run_verify(snapshot, config) == 0
    monkeypatch.setattr(DemaillyParams, "converged", lambda self, res: False)
    with pytest.raises((MaxIterationsError, NoDescentError)):
        newton_at_t(start, 0.5, curv, params)
    assert cli.run_verify(snapshot, config) == 3


def test_newton_evaluates_each_state_once(monkeypatch, constant_setup):
    # One evaluation per state: the start and every trial get their margin,
    # residuals and linearization from a single set of cone factors, and the
    # accepted trial's linearization drives the next direction.  None of the
    # public cone, residual or linearization entry points runs in the solve.
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 0.3 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)

    def forbidden(*args):
        raise AssertionError("called inside newton_at_t")

    for name in ("cone_margin", "cone_factors", "residual", "linearize"):
        monkeypatch.setattr(model, name, forbidden)
        monkeypatch.setattr(solvers, name, forbidden, raising=False)
    trials, evaluated = [], []
    real_state, real_evaluate = solvers.State, solvers._evaluate

    def trial_state(*args):
        trials.append(real_state(*args))
        return trials[-1]

    def counted_evaluate(state, *args):
        evaluated.append(state)
        return real_evaluate(state, *args)

    monkeypatch.setattr(solvers, "State", trial_state)
    monkeypatch.setattr(solvers, "_evaluate", counted_evaluate)
    _, report = newton_at_t(start, 0.5, curv, params)
    assert report.converged
    assert len(trials) > report.iterations  # some trials were rejected
    assert len(evaluated) == 1 + len(trials)
    assert all(seen is trial for seen, trial in zip(evaluated[1:], trials))


def test_newton_rejects_non_finite_trials(monkeypatch, constant_setup):
    # A NaN direction makes every trial non-finite: each is rejected like a
    # trial below the cone floor, and backtracking ends in NoDescentError.
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    start = State(grid, cf.f + grid.sample(lambda X, Y: 0.1 * np.cos(2 * np.pi * X)), cf.u, 0.5)

    def nan_direction(state, *args):
        return np.full_like(state.f, np.nan), np.full_like(state.u, np.nan), False, 0

    monkeypatch.setattr(solvers, "_newton_direction", nan_direction)
    with pytest.raises(NoDescentError):
        newton_at_t(start, 0.5, curv, params)


def test_newton_counts_krylov_failures(monkeypatch, constant_setup):
    # The first direction comes from a GMRES cut short (info != 0); Newton
    # still uses it, converges, and reports the failure.
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 1e-2 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)
    _, clean = newton_at_t(start, 0.5, curv, params)
    assert clean.krylov_failures == 0
    infos = []
    real_gmres = solvers.gmres

    def short_first_solve(A, b, **kwargs):
        if not infos:
            kwargs = dict(kwargs, restart=1, maxiter=1)
        z, info = real_gmres(A, b, **kwargs)
        infos.append(info)
        return z, info

    monkeypatch.setattr(solvers, "gmres", short_first_solve)
    _, report = newton_at_t(start, 0.5, curv, params)
    assert report.converged
    assert infos[0] != 0 and all(info == 0 for info in infos[1:])
    assert report.krylov_failures == 1
    assert report.summary()["krylov_failures"] == 1


def _count_gmres_steps(monkeypatch):
    """Record (operator, preconditioner) applications per GMRES solve."""
    per_solve = []
    real = solvers.gmres

    def counted(A, b, **kwargs):
        calls = Counter()

        def tally(op, key):
            def matvec(x):
                calls[key] += 1
                return op.matvec(x)

            return LinearMap(op.size, matvec)

        out = real(tally(A, "A"), b, **dict(kwargs, M=tally(kwargs["M"], "M")))
        per_solve.append((calls["A"], calls["M"]))
        return out

    monkeypatch.setattr(solvers, "gmres", counted)
    return per_solve


def test_newton_preconditioner_exact_on_constant_data(monkeypatch):
    # On constant data the Jacobian has constant coefficients, so the
    # preconditioner, the Jacobian at the mean state with its coupling, is
    # its exact inverse: every GMRES solve of the (-1, 5) march takes one inner step,
    # one operator application, whose product also gives the true residual,
    # and two preconditioner ones (M b and the inner step).  A
    # preconditioner without the coupling between f and u takes more.
    per_solve = _count_gmres_steps(monkeypatch)
    report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=10.0), make_grid(16, 4.0))
    assert report.breakdown_t == 0.9749755859375
    assert len(per_solve) == 11
    assert per_solve == [(1, 2)] * 11


_SCHUR_CASES = [
    (BundleSpec((4,)), lam, alpha0) for lam in (2.5, 40.0) for alpha0 in (2.0, 100.0)
] + [
    (BundleSpec.cosine_pair(degrees, amplitude, modes), lam, alpha0)
    for degrees, modes, lams in (
        ((1, 3), ((1, 1),), (2.5, 40.0)),
        ((1, 2, 3), ((1, 1), (2, 0)), (3.5, 40.0)),
    )
    for amplitude in (0.2, 2.0)
    for lam in lams
    for alpha0 in (2.0, 100.0)
]


@pytest.mark.parametrize(
    "spec, lam, alpha0", _SCHUR_CASES, ids=[f"r{s.rank}-{i}" for i, (s, _, _) in enumerate(_SCHUR_CASES)]
)
def test_newton_schur_symbol_stays_below_minus_lambda(monkeypatch, spec, lam, alpha0):
    # The stress corners (amplitude 0.2/2, lambda low/40, alpha0 2/100) at
    # ranks 1-3: at every Newton state of the march, the Schur complement of
    # the preconditioner's per-mode arrow matrix, formed here from its
    # entries, is the one the preconditioner divides by, S <= -lambda and
    # |S| >= |sigma m - lambda| (the symbol without the coupling), all up to
    # rounding.  The proof is in _mean_jacobian_symbols.
    seen = []
    real = solvers._mean_jacobian_symbols

    def spy(lin):
        inv_schur, twist, b_bar, e_bar = real(lin)
        inv_m_bar = 1.0 / np.mean(lin.m, axis=(1, 2))
        a_bar = float(np.mean(lin.ef_u, axis=(1, 2)) @ inv_m_bar)
        plain = float(np.sum(inv_m_bar)) * lin.grid.laplacian_multiplier - lin.lam
        arrow = plain - a_bar - float(b_bar @ e_bar) * twist
        seen.append((1.0 / inv_schur, arrow, plain))
        return inv_schur, twist, b_bar, e_bar

    monkeypatch.setattr(solvers, "_mean_jacobian_symbols", spy)
    grid = make_grid(32, float(spec.degree_sum))
    report = march(spec, DemaillyParams(lam=lam, alpha0=alpha0), grid)
    assert report.reached_t1
    assert seen
    for schur, arrow, plain in seen:
        assert np.all(np.abs(schur - arrow) <= 1e-13 * np.abs(plain))
        for s in (schur, arrow):
            assert np.max(s) <= -lam * (1.0 - 1e-13)
            assert np.all(np.abs(s) >= np.abs(plain) * (1.0 - 1e-13))


def test_newton_does_not_reuse_lap_u_of_unprojected_start(grid16):
    # The start's u_2 is not -u_1, so newton_at_t projects it away and must
    # take lap u afresh rather than reuse the start's cached one: its first
    # residual is the one of a freshly built projected state, which differs
    # from the start's own.
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    bump = random_band_limited(grid16, np.random.default_rng(3), kmax=2, amplitude=1e-3)
    start = State(grid16, state0.f, state0.u + np.stack([np.zeros_like(bump), bump]), 0.0)
    own = residual_sup(*residual(start, curv, params))  # caches the start's lap u
    _, report = newton_at_t(start, 0.0, curv, params)
    fresh = State(grid16, start.f, np.stack([start.u[0], -start.u[0]]), 0.0)
    assert report.residual_history[0] == residual_sup(*residual(fresh, curv, params))
    assert report.residual_history[0] < 1e-3 * own


def test_newton_reuses_the_laplacians_of_a_solver_state(monkeypatch, grid16):
    # A Newton solution is trace-projected, so a new solve from it shares
    # its lap f and lap u: at the same t it converges at once, and at a t
    # where it leaves the cone it is rejected, without a Laplacian either way.
    curv = build_curvature(BundleSpec((-1, 5)), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    sol, _ = newton_at_t(state0, 0.0, curv, params)
    calls = []
    real = Grid.laplacian

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Grid, "laplacian", counted)
    _, report = newton_at_t(sol, 0.0, curv, params)
    assert report.iterations == 0
    with pytest.raises(ConeViolationError):
        newton_at_t(sol, 1.0, curv, params)
    assert calls == []


def test_newton_agrees_with_iterated_picard_at_t0(grid16):
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(10)
    df = random_band_limited(grid16, rng, kmax=2, amplitude=0.05)
    du = np.stack([random_band_limited(grid16, rng, kmax=2, amplitude=0.05) for _ in range(2)])
    du -= du.mean(axis=0)
    start = State(grid16, state0.f + df, state0.u + du, 0.0)
    newton_sol, report = newton_at_t(start, 0.0, curv, params)
    assert report.converged
    picard_sol, gap, _ = picard_solve(start, curv, params, gap_tol=1e-12, max_steps=20)
    assert gap <= 1e-12
    assert state_distance(newton_sol, picard_sol) <= 1e-8


# ------------------------------------------------------- two-grid corrector


def _single_grid(monkeypatch):
    """Switch the two-grid hand-off off: no grid resolves any iterate."""
    monkeypatch.setattr(solvers, "_coarse_size", lambda *args: None)


def _ample_bench_case(n):
    grid = make_grid(n, 4.0)
    return grid, BundleSpec.cosine_pair((1, 3), 0.2), DemaillyParams(lam=8.0, alpha0=10.0)


# The ample bench case's jump: (coarse grid, coarse iterations, iterations).
# At n=64 the attempt takes its first iteration on n, then finishes on 32;
# from n=128 up it hands the start itself to 16, which takes all four.
_AMPLE_JUMP = {64: (32, 3, 4), 128: (16, 4, 4)}


@pytest.mark.parametrize("n", [64, 128])
def test_two_grid_march_matches_single_grid(monkeypatch, n):
    # The ample bench case jumps to t=1; that attempt finishes on a coarse
    # grid and needs no polish, so it takes the single grid's decisions and
    # iterations to the same state.  At n=64 it runs one GMRES solve on the
    # requested grid first, at n=128 none.
    grid, spec, params = _ample_bench_case(n)
    sizes, real_gmres = [], solvers.gmres

    def recorded(A, b, **kwargs):
        sizes.append(b.size)
        return real_gmres(A, b, **kwargs)

    monkeypatch.setattr(solvers, "gmres", recorded)
    two = march(spec, params, grid)
    fine_solves = sizes.count(2 * n * n)
    _single_grid(monkeypatch)
    one = march(spec, params, grid)
    assert two.accepted_ts == one.accepted_ts == [0.0, 1.0]
    assert [s.newton.iterations for s in two.steps] == [s.newton.iterations for s in one.steps]
    jump = two.steps[-1].newton
    assert (jump.coarse_n, jump.coarse_iterations, jump.iterations) == _AMPLE_JUMP[n]
    assert fine_solves == (1 if n == 64 else 0)
    assert one.steps[-1].newton.coarse_n == 0
    # One damping per direction; one history entry per state the path
    # started a grid from or accepted: the start, the first iterate (at
    # n=64), the truncated start, the coarse iterates and the padded state.
    assert len(jump.damping) == 4 and len(jump.residual_history) == 7
    assert jump.residual_history[-1] == jump.final_residual <= params.newton_tol
    assert state_distance(two.final_state, one.final_state) <= 1e-12
    curv = build_curvature(spec, grid)
    assert residual_sup(*residual(two.final_state, curv, two.params)) <= params.newton_tol


@pytest.mark.parametrize(
    "n, failing",
    [
        pytest.param(64, "coarse", id="coarse"),
        pytest.param(64, "polish", id="polish"),
        pytest.param(128, "coarse", id="coarse-128"),
    ],
)
def test_failed_hand_off_leaves_the_single_grid_march(monkeypatch, n, failing):
    # A coarse solve or polish that fails after running is discarded: the
    # fine loop continues from the iterate it handed off (at n=128 the
    # start, with the w-line first step), so every decision, record and
    # state is the single grid's; only the Krylov effort counts the
    # discarded legs.
    grid, spec, params = _ample_bench_case(n)
    real = solvers._newton_on_grid
    legs = []

    def failing_leg(leg, *args, **kwargs):
        real(leg, *args, **kwargs)
        if leg.end.state.grid.n < n:
            legs.append("coarse")
        else:
            legs.append("polish" if legs and legs[-1] == "coarse" else "fine")
        if legs[-1] == failing:
            legs.append("failed")
            raise NoDescentError("forced")

    monkeypatch.setattr(solvers, "_newton_on_grid", failing_leg)
    two = march(spec, params, grid)
    assert failing in legs
    monkeypatch.setattr(solvers, "_newton_on_grid", real)
    _single_grid(monkeypatch)
    one = march(spec, params, grid)
    assert two.accepted_ts == one.accepted_ts and two.rejected == one.rejected
    for a, b in zip(two.steps, one.steps):
        assert a.newton.coarse_n == b.newton.coarse_n == 0
        assert a.newton.krylov_matvecs >= b.newton.krylov_matvecs
        for key in ("iterations", "final_residual", "damping", "cone_margins", "residual_history"):
            assert getattr(a.newton, key) == getattr(b.newton, key)
        assert np.array_equal(a.state.f, b.state.f) and np.array_equal(a.state.u, b.state.u)
    assert two.steps[-1].newton.krylov_matvecs > one.steps[-1].newton.krylov_matvecs


def test_polish_that_needs_more_than_two_iterations_is_discarded(monkeypatch):
    # The padded coarse state is pushed off the solution by a bump, so the
    # polish needs four fine iterations: capped at two, it is
    # discarded and the attempt returns the single grid's state.
    grid, spec, params = _ample_bench_case(128)
    curv = build_curvature(spec, grid)
    state0, params = solve_t0(curv, params)
    real_pad, real_leg = solvers._spectral_pad, solvers._newton_on_grid
    bump = grid.sample(lambda X, Y: 0.01 * np.cos(2 * np.pi * X))
    legs = []

    def bumped_pad(*args):
        padded = real_pad(*args)
        padded[0] += bump
        return padded

    def recorded_leg(leg, t, curv, params, budget, **kwargs):
        real_leg(leg, t, curv, params, budget, **kwargs)
        legs.append((leg.end.state.grid.n, budget, len(leg.damping), leg.converged(params)))

    monkeypatch.setattr(solvers, "_spectral_pad", bumped_pad)
    monkeypatch.setattr(solvers, "_newton_on_grid", recorded_leg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_POLISH_ITERS", solvers._MAX_ITERS)
        _, uncapped = newton_at_t(state0, 1.0, curv, params)
    assert uncapped.coarse_n == 16 and legs[-1][:3] == (128, solvers._MAX_ITERS - 4, 4)
    legs.clear()
    capped_state, capped = newton_at_t(state0, 1.0, curv, params)
    assert [leg[0] for leg in legs] == [128, 16, 128, 128]
    assert legs[2] == (128, 2, 2, False)  # the capped polish, discarded
    monkeypatch.setattr(solvers, "_newton_on_grid", real_leg)
    _single_grid(monkeypatch)
    single_state, single = newton_at_t(state0, 1.0, curv, params)
    assert capped.coarse_n == 0
    for key in ("iterations", "final_residual", "damping", "cone_margins", "residual_history"):
        assert getattr(capped, key) == getattr(single, key)
    assert np.array_equal(capped_state.f, single_state.f)
    assert np.array_equal(capped_state.u, single_state.u)


# Grid 1's members at lambda = 8 (amplitude x alpha0), with the ample bench
# case's other amplitudes; (0.2, 10) is the bench case at 0.2.
_COARSE_FIRST_CASES = [
    (a, alpha0) for a in (0.2, 0.8, 1.4, 2.0) for alpha0 in (2.0, 10.0, 100.0)
] + [(0.1, 10.0), (0.3, 10.0)]


def test_coarse_first_marches_keep_the_single_grid_decisions(monkeypatch):
    # An independent check of the coarse-first order at n=128: each march
    # makes the single grid's decisions and ends within 1e-12 of its state,
    # converged on n=128.
    grid = make_grid(128, 4.0)
    specs = [BundleSpec.cosine_pair((1, 3), a, ((1, 1),)) for a, _ in _COARSE_FIRST_CASES]

    def marches():
        return [
            march(spec, DemaillyParams(lam=8.0, alpha0=alpha0), grid)
            for spec, (_, alpha0) in zip(specs, _COARSE_FIRST_CASES)
        ]

    two_grid = marches()
    _single_grid(monkeypatch)
    single = marches()
    assert any(step.newton.coarse_n for r in two_grid for step in r.steps)
    for spec, two, one in zip(specs, two_grid, single):
        assert two.accepted_ts == one.accepted_ts and two.rejected == one.rejected
        assert (two.breakdown_t, two.breakdown_reason) == (one.breakdown_t, one.breakdown_reason)
        assert state_distance(two.final_state, one.final_state) <= 1e-12
        curv = build_curvature(spec, grid)
        assert residual_sup(*residual(two.final_state, curv, two.params)) <= two.params.newton_tol


def test_under_resolved_data_pick_no_coarse_grid(monkeypatch):
    # ROADMAP item 7's case at n=32: the data modes (5,5) and (7,1) sit at
    # |k|inf >= 16/3, so n=16 does not resolve them and no attempt hands off.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.6, ((5, 5), (7, 1)))
    real = solvers._coarse_size
    picked = []

    def recorded(*args):
        picked.append(real(*args))
        return picked[-1]

    monkeypatch.setattr(solvers, "_coarse_size", recorded)
    report = march(spec, DemaillyParams(lam=40.0, alpha0=10.0), grid)
    assert picked and set(picked) == {None}
    assert all(step.newton.coarse_n == 0 for step in report.steps)


@pytest.mark.parametrize("k, m", [(1, 16), (5, 16), (6, 32), (10, 32), (11, None)])
def test_coarse_size_is_the_first_grid_above_three_times_the_top_mode(k, m):
    # A grid m resolves a field when its coefficients at |k|inf >= m/3 are
    # at most 1e-13 (1 + sup); at n=64 the candidates are 16 and 32.
    grid = make_grid(64, 4.0)
    fields = np.stack(
        [grid.sample(lambda X, Y: np.cos(2 * np.pi * X) + 1e-3 * np.cos(2 * np.pi * k * Y)),
         grid.sample(lambda X, Y: 1e-14 * np.cos(2 * np.pi * 20 * X))]
    )
    assert solvers._coarse_size(grid, fields, grid.rfft2(fields)) == m


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 2**16),
    kmax=st.integers(1, 3),
    amplitude=st.floats(0.05, 0.2),
)
def test_two_grid_newton_agrees_with_single_grid(seed, kmax, amplitude):
    # Band-limited curvature data at n=64: the jump from t=0 to t=1 hands
    # off and returns the single grid's state, converged on n=64.
    grid = make_grid(64, 4.0)
    phi = random_band_limited(
        grid, np.random.default_rng(seed), kmax=kmax, amplitude=amplitude, zero_mean=True
    )
    rho = np.stack([0.25 + phi, 0.75 - phi])
    curv = model.CurvatureData(grid, (1, 3), rho, rho - 0.5)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    two, report = newton_at_t(state0, 1.0, curv, params)
    with pytest.MonkeyPatch.context() as mp:
        _single_grid(mp)
        one, single = newton_at_t(state0, 1.0, curv, params)
    assert report.coarse_n > 0 and single.coarse_n == 0
    assert report.iterations == single.iterations
    assert state_distance(two, one) <= 1e-12
    assert residual_sup(*residual(two, curv, params)) <= params.newton_tol


def _count_cg_matvecs(monkeypatch):
    # Wraps solvers.cg; returns a list that grows by one per operator application.
    applied = []
    real_cg = solvers.cg

    def counted(A, b, **kwargs):
        def matvec(x):
            applied.append(1)
            return A.matvec(x)

        return real_cg(LinearMap(A.size, matvec), b, **kwargs)

    monkeypatch.setattr(solvers, "cg", counted)
    return applied


def test_picard_readme_case_t1_work_pinned(monkeypatch):
    # The README case at n=32, started from the t=0 state at t=1, under
    # strict numerics.  Each step is one u_step and one v_step (r-1 = 1
    # Helmholtz solve).  u_step starts Newton in the density at its anchor
    # f_in + c, c the closed-form shift U takes where lap(U) = 0, and stops
    # once the next correction would move U by at most 1% of U - f_in, so
    # it takes 0, 1, 1, 1 and 1 solves.  Each stops at the Newton forcing
    # tolerance, floored at a tenth of the residual at which that stopping
    # test passes over sup|F|: 2, 2, 2 and 1 CG matvecs (7).  Without the
    # floor the last solve runs to 4e-8 and takes 3 (9 in all).
    # The first U is the constant f_in + c (f_in = 0), so the first v_step
    # is spectral.  Each later v_step refines from the current twist and
    # stops within 0.1% of its step: one CG solve to that relative
    # tolerance, 1 matvec each (4).  Solved to newton_tol on every step,
    # u_step takes 2, 2, 1, 1 and 1 solves, and with each later v_step
    # solved exactly from zero (3 matvecs) the run takes 28 matvecs.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid)
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    state0, filled = solve_t0(curv, params)
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args, **kwargs):
        solves.append(args[0].n)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    matvecs = _count_cg_matvecs(monkeypatch)
    state = State(grid, state0.f, state0.u, 1.0)
    with np.errstate(all="raise"):
        state, gap, steps = picard_solve(state, curv, filled, gap_tol=1e-9, max_steps=100)
    assert gap <= 1e-9
    assert steps == 5
    assert len(solves) - steps == 4  # u_step's inner Newton solves
    assert len(matvecs) == 11
    monkeypatch.undo()
    newton = march(spec, replace(params, dt0=1.0), grid).final_state
    assert state_distance(state, newton) <= 1e-8


def test_picard_step_laplacian_count_pinned(monkeypatch):
    # The first Picard step of the README case at n=32, from the t=0 state
    # taken to t=1, takes 2 Laplacians: u_step takes one of f_in, which is
    # also that of its anchor start f_in + c, and one of the potential of
    # its other start (lap(f_in) raised into the domain).  The anchor is
    # within picard_step's step tolerance, so no correction is taken, and
    # V at the constant potential f_in + c (f_in = 0) is solved spectrally.
    #
    # Solved exactly (u_step's default, then v_step), the same step takes
    # 12: the two above, none for the constant-mode solve, one per Newton
    # trial (2) and one per matvec of the 2 inexact CG solves (4).  V, taken
    # at the new potential U, has a varying Helmholtz coefficient e^U, so
    # its exact solve goes through CG (3 matvecs) and checks its residual
    # (1).  That count rises when a Helmholtz solve takes the Laplacian of
    # its zero start, when an inexact solve checks its residual, when u_step
    # takes the Laplacian of its anchor instead of reusing lap(f_in), or
    # when a full step is rejected and backtracked in the density.
    grid = make_grid(32, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid)
    state0, filled = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    calls = []
    real = Grid.laplacian

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Grid, "laplacian", counted)
    picard_step(State(grid, state0.f, state0.u, 1.0), curv, filled)
    assert len(calls) == 2
    calls.clear()
    v_step(u_step(state0.f, state0.u, 1.0, curv, filled), curv)
    assert len(calls) == 12
