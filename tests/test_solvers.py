"""Helmholtz kernel, t=0 construction, fixed-point map halves, and Newton."""

import logging

import numpy as np
import pytest

from demlab import (
    BundleSpec,
    ConeViolationError,
    DemaillyParams,
    MaxIterationsError,
    PathStallError,
    State,
    closed_form_state,
    build_curvature,
    l_inverse,
    make_grid,
    march,
    newton_at_t,
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
from demlab import solvers
from dataclasses import replace

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


def test_u_step_stalls_outside_admissible_set(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    # At t=1 the shifts are 1/r - e^f u_i; a large positive twist makes them
    # negative and no potential can satisfy lap(U) + A > 0.
    u = np.stack([np.full((16, 16), 0.6), np.full((16, 16), -0.6)])
    with pytest.raises(PathStallError):
        u_step(np.zeros((16, 16)), u, 1.0, curv, params)


def test_u_step_far_start_at_t1(grid16):
    # From this start every intermediate s-step fails, so the path stalls at
    # s=0 unless s=1 is tried first.  U is checked against the equation it
    # solves, with the shifts A_i = 1/r - e^f_in u_i written out.
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


def test_u_step_stalls_when_density_leaves_float_range(grid16):
    # e^(lambda f_in) a0 overflows at lambda = 400, f_in = 2; every s-step
    # fails on the range check instead of warning or raising ValueError.
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=400.0, alpha0=10.0))
    with pytest.raises(PathStallError):
        u_step(np.full((16, 16), 2.0), state0.u, 0.5, curv, params)


# ------------------------------------------------------------------- Picard


def test_picard_gap_vanishes_on_solutions(constant_setup):
    spec, curv, state0, params = constant_setup
    _, gap = picard_step(state0, curv, params)
    assert gap <= 1e-9
    exact = closed_form_state(spec, params, curv.grid, 0.5)
    _, gap = picard_step(exact, curv, params)
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
    for _ in range(5):
        state, gap = picard_step(state, curv, params)
        gaps.append(gap)
    # Empirical contraction near the solution; recorded, not a theorem.
    logger.info("picard gaps: %s", ["%.3e" % g for g in gaps])
    assert gaps[-1] < gaps[0]


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
    history = report.residual_history
    assert len(history) >= 3
    for prev, last in zip(history[1:], history[2:]):
        if prev > 1e-12:  # above the rounding floor the tail is quadratic
            assert last <= 100.0 * prev**2


def test_newton_rejects_inadmissible_initial(constant_setup):
    _, curv, state0, params = constant_setup
    grid = curv.grid
    bad = State(grid, state0.f, state0.u + 20.0, 0.0)
    with pytest.raises(ConeViolationError):
        newton_at_t(bad, 0.0, curv, params)


def test_newton_max_iterations(constant_setup):
    spec, curv, _, params = constant_setup
    grid = curv.grid
    cf = closed_form_state(spec, params, grid, 0.5)
    bump = grid.sample(lambda X, Y: 0.3 * np.cos(2 * np.pi * X))
    start = State(grid, cf.f + bump, cf.u, 0.5)
    with pytest.raises(MaxIterationsError):
        newton_at_t(start, 0.5, curv, replace(params, max_iters=1))


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
    picard_sol = start
    for _ in range(20):
        picard_sol, _ = picard_step(picard_sol, curv, params)
    assert state_distance(newton_sol, picard_sol) <= 1e-8


def test_picard_readme_case_t1_work_pinned(monkeypatch):
    # The README case at n=32, started from the t=0 state at t=1, under
    # strict numerics.  Each step is one u_step and one v_step (r-1 = 1
    # Helmholtz solve); every u_step is accepted at s=1.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid)
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    state0, filled = solve_t0(curv, params)
    solves = []
    real_solve = solvers.solve_helmholtz

    def counted_solve(*args):
        solves.append(args[0].n)
        return real_solve(*args)

    monkeypatch.setattr(solvers, "solve_helmholtz", counted_solve)
    state = State(grid, state0.f, state0.u, 1.0)
    with np.errstate(all="raise"):
        for steps in range(1, 101):
            state, gap = picard_step(state, curv, filled)
            if gap <= 1e-9:
                break
    assert gap <= 1e-9
    assert steps == 19
    assert len(solves) - steps == 37  # u_step's inner Newton solves
    monkeypatch.undo()
    newton = march(spec, replace(params, dt0=1.0), grid).final_state
    assert state_distance(state, newton) <= 1e-8
