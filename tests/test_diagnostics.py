"""Identity, inequality, and bound checks, plus the multistart experiment."""

import numpy as np
import pytest

from demlab import (
    BundleSpec,
    DemaillyParams,
    State,
    check_bounds,
    check_integral_identity,
    check_uy_inequality,
    closed_form_state,
    build_curvature,
    make_grid,
    march,
    multistart_uniqueness,
    run_diagnostics,
    solve_t0,
)
from demlab import diagnostics

F_ONE = -0.7970199867162201


@pytest.fixture
def grid16():
    return make_grid(16, 4.0)


@pytest.fixture
def constant_setup(grid16):
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    return spec, curv, params


def test_integral_identity_signed_values(grid16, constant_setup):
    # For degrees (1, 3): integral of e^f u_1 is 4/2 - 1 = +1 and of
    # e^f u_2 is 4/2 - 3 = -1 on any exact solution.
    spec, curv, params = constant_setup
    state = closed_form_state(spec, params, grid16, 0.6)
    got_1 = grid16.integrate(np.exp(state.f) * state.u[0])
    got_2 = grid16.integrate(np.exp(state.f) * state.u[1])
    assert got_1 == pytest.approx(+1.0, abs=1e-10)
    assert got_2 == pytest.approx(-1.0, abs=1e-10)
    errors = check_integral_identity(state, curv)
    assert np.max(errors) <= 1e-10


def test_integral_identity_matches_per_summand_integrals():
    # The stacked reduction gives each summand's grid integral bit for bit,
    # and an integral that overflows gives an infinite error.
    grid = make_grid(32, 6.0)
    spec = BundleSpec.cosine_pair((1, 2, 3), 0.3, ((1, 1), (2, 0)))
    curv = build_curvature(spec, grid)
    report = march(spec, DemaillyParams(lam=10.0, alpha0=10.0), grid)
    for step in report.steps:
        state = step.state
        errors = check_integral_identity(state, curv)
        for i, d_i in enumerate(spec.degrees):
            integral = grid.integrate(np.exp(state.f) * state.u[i])
            assert errors[i] == abs(integral - (6.0 / 3 - d_i))
    f = np.zeros((32, 32))
    f[3, 5] = 800.0
    with np.errstate(over="ignore", invalid="ignore"):
        errors = check_integral_identity(State(grid, f, report.final_state.u, 1.0), curv)
    assert np.all(np.isinf(errors))


def test_integral_identity_rank_one_trivial():
    grid = make_grid(16, 5.0)
    curv = build_curvature(BundleSpec((5,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=6.0, alpha0=10.0))
    errors = check_integral_identity(state0, curv)
    assert np.max(errors) < 1e-14


def test_uy_equality_on_constant_branch(grid16, constant_setup):
    spec, curv, params = constant_setup
    for t in (0.0, 0.5, 1.0):
        state = closed_form_state(spec, params, grid16, t)
        violation = check_uy_inequality(state, curv)
        assert abs(violation) <= 1e-10  # equality: both sides coincide


def test_uy_zero_twist(grid16, constant_setup):
    _, curv, params = constant_setup
    state = State(grid16, np.zeros((16, 16)), np.zeros((2, 16, 16)), 0.0)
    assert check_uy_inequality(state, curv) <= 1e-14


def test_uy_reports_positive_value_off_solutions(grid16, constant_setup):
    # On non-solution states the check only reports; a huge twist makes the
    # left side dominate and the returned value positive.
    _, curv, params = constant_setup
    u = np.stack([np.full((16, 16), 5.0), np.full((16, 16), -5.0)])
    state = State(grid16, np.zeros((16, 16)), u, 0.0)
    assert check_uy_inequality(state, curv) > 1.0


def test_check_bounds_constant_branch(grid16, constant_setup):
    spec, curv, params = constant_setup
    at_zero = closed_form_state(spec, params, grid16, 0.0)
    b0 = check_bounds(at_zero, params)
    assert b0["max_exp_lambda_f"] == pytest.approx(1.0, abs=1e-12)
    assert abs(b0["argmax_slack"]) <= 1e-12
    assert b0["amgm_excess"] <= 1e-12
    at_one = closed_form_state(spec, params, grid16, 1.0)
    b1 = check_bounds(at_one, params)
    assert b1["min_f"] == pytest.approx(F_ONE, abs=1e-12)


def test_run_diagnostics_passes_on_march_states(grid16):
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    curv = build_curvature(spec, grid16)
    for step in report.steps:
        diag = run_diagnostics(step.state, curv, report.params)
        assert diag.passed
        assert diag.trace_sup <= 1e-10
        assert np.max(diag.identity_errors) <= 1e-6
        assert diag.uy_violation <= diag.thresholds["uy"]
        assert diag.cone_margin >= diag.thresholds["cone_floor"]


def test_run_diagnostics_flags_corruption(grid16, constant_setup):
    spec, curv, params = constant_setup
    state = closed_form_state(spec, params, grid16, 0.5)
    broken = State(grid16, state.f, state.u + np.array([[[0.1]], [[0.0]]]), 0.5)
    diag = run_diagnostics(broken, curv, params)
    assert not diag.passed
    assert "integral_identity" in diag.failed
    assert "trace_constraint" in diag.failed
    doc = diag.to_dict()
    assert doc["passed"] is False
    assert set(doc["failed"]) == set(diag.failed)


def test_run_diagnostics_fails_overflowing_rank_one_state():
    # e^f overflows at one point of a u = 0 state: the cone margin and the
    # AM-GM excess come out NaN, and both checks fail instead of passing.
    grid = make_grid(16, 2.0)
    curv = build_curvature(BundleSpec((2,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    f = np.zeros((16, 16))
    f[3, 5] = 800.0
    with np.errstate(all="ignore"):
        diag = run_diagnostics(State(grid, f, state0.u, 0.5), curv, params)
    assert np.isnan(diag.cone_margin) and np.isnan(diag.amgm_excess)
    assert {"integral_identity", "cone_margin", "amgm_bound"} <= set(diag.failed)


def _nan_bound(key):
    real = diagnostics.check_bounds

    def patched(state, params):
        return {**real(state, params), key: np.nan}

    return patched


def _nan(*args):
    return np.nan


def _nan_identity(state, curv):
    return np.array([np.nan, 0.0])


# How to make each recorded value NaN: (owner, attribute, replacement).
_NAN_PLANTS = {
    "integral_identity": (diagnostics, "check_integral_identity", _nan_identity),
    "uy_inequality": (diagnostics, "check_uy_inequality", _nan),
    "trace_constraint": (State, "trace_sup", _nan),
    "cone_margin": (diagnostics, "cone_margin", _nan),
    "argmax_slack": (diagnostics, "check_bounds", _nan_bound("argmax_slack")),
    "amgm_bound": (diagnostics, "check_bounds", _nan_bound("amgm_excess")),
}


@pytest.mark.parametrize("check", list(_NAN_PLANTS))
def test_run_diagnostics_fails_each_nan_value(monkeypatch, grid16, constant_setup, check):
    # A NaN value passes no check: it fails exactly the check it feeds.
    spec, curv, params = constant_setup
    state = closed_form_state(spec, params, grid16, 0.5)
    assert run_diagnostics(state, curv, params).passed
    monkeypatch.setattr(*_NAN_PLANTS[check])
    assert run_diagnostics(state, curv, params).failed == (check,)


def _trace_witness(state, amount):
    """u_1 moved toward zero by ``amount``: the trace is off by that much,
    and every other recorded value moves by far less than its bound."""
    u = state.u.copy()
    u[0] -= np.sign(np.mean(u[0])) * amount
    return State(state.grid, state.f, u, state.t), lambda diag: diag.trace_sup


def _identity_witness(state, amount):
    """u_1 and u_2 moved toward each other, a trace-free shift whose
    integral against e^f is ``amount``: the identity is off by that much,
    the trace stays zero and the uy and AM-GM excesses only fall."""
    shift = amount / state.grid.integrate(np.exp(state.f))
    step = np.sign(np.mean(state.u[0] - state.u[1])) * shift
    u = state.u.copy()
    u[0] -= step
    u[1] += step
    return State(state.grid, state.f, u, state.t), lambda diag: max(diag.identity_errors)


def _uy_witness(state, amount):
    """u_1 and u_2 moved apart by delta cos(2 pi x), a trace-free wave whose
    integral against the constant e^f is zero.  On the constant branch
    u_1 = -u_2 = a > 0 with e^f a = |s_1|, so to first order the uy excess
    is 2 a delta (e^f + k^2) at the troughs, with lap cos(2 pi x) =
    -k^2 cos(2 pi x); delta makes it ``amount``.  The identity and the
    trace do not move, f and its argmax do not either, and at the argmax
    (a crest) the AM-GM excess only falls."""
    grid = state.grid
    a = float(np.mean(state.u[0]))
    k_sq = 2.0 * np.pi**2 / grid.total_area
    delta = amount / (2.0 * a * (float(np.exp(np.mean(state.f))) + k_sq))
    wave = delta * grid.sample(lambda X, Y: np.cos(2 * np.pi * X))
    u = state.u.copy()
    u[0] -= wave
    u[1] += wave
    return State(grid, state.f, u, state.t), lambda diag: diag.uy_violation


def _amgm_witness(state, amount):
    """f raised by delta psi, psi = cos(2 pi x) cos(2 pi y), which peaks at
    the grid argmax (0, 0).  There e^(lambda f) gains lambda delta and each
    cone factor M_i loses delta w_i (w_i = e^f u_i), so on the constant
    branch the AM-GM excess is, to first order, delta (lambda + a) with
    a = sum_i w_i / M_i; delta makes it ``amount``.  psi integrates to zero
    and u does not move, so the identity and the trace hold; lap f is
    negative at the argmax and the uy excess stays far below its bound."""
    grid = state.grid
    lam, alpha0 = 8.0, 10.0  # constant_setup's parameters
    w = np.exp(float(np.mean(state.f))) * np.mean(state.u, axis=(1, 2))
    m = 1.0 / state.rank - w + (1.0 - state.t) * alpha0
    delta = amount / (lam + float(np.sum(w / m)))
    psi = grid.sample(lambda X, Y: np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y))
    return State(grid, state.f + delta * psi, state.u, state.t), lambda diag: diag.amgm_excess


# Per check: its witness, and amounts 5 times its bound (TRACE_TOL = 1e-10,
# IDENTITY_TOL = 1e-6, UY_BASE_TOL (1 + sup|s|^2) = 1.125e-8 for degrees
# (1, 3), AMGM_REL_TOL = 1e-8) and 0.4 times it.
_THRESHOLD_WITNESSES = {
    "trace_constraint": (_trace_witness, 5e-10, 4e-11),
    "integral_identity": (_identity_witness, 5e-6, 4e-7),
    "uy_inequality": (_uy_witness, 5.625e-8, 4.5e-9),
    "amgm_bound": (_amgm_witness, 5e-8, 4e-9),
}


@pytest.mark.parametrize("check", list(_THRESHOLD_WITNESSES))
def test_threshold_witnesses_fail_only_their_check(grid16, constant_setup, check):
    # Derived from a solved state: five times the bound fails exactly this
    # check, and 0.4 times it passes every check.
    spec, curv, params = constant_setup
    solved = closed_form_state(spec, params, grid16, 0.5)
    witness, above, below = _THRESHOLD_WITNESSES[check]
    for amount, failed in ((above, (check,)), (below, ())):
        state, value = witness(solved, amount)
        diag = run_diagnostics(state, curv, params)
        assert value(diag) == pytest.approx(amount, rel=1e-3)
        assert diag.failed == failed


def test_diagnostics_deterministic(grid16, constant_setup):
    spec, curv, params = constant_setup
    state = closed_form_state(spec, params, grid16, 0.5)
    a = run_diagnostics(state, curv, params)
    b = run_diagnostics(state, curv, params)
    assert a == b


def test_multistart_uniqueness_constant_and_perturbed(grid16):
    for spec in (BundleSpec((1, 3)), BundleSpec.cosine_pair((1, 3), 0.2)):
        curv = build_curvature(spec, grid16)
        result = multistart_uniqueness(
            curv, DemaillyParams(lam=8.0, alpha0=10.0), k=5, seed=2
        )
        assert result.n_converged == 5
        assert result.n_failed == 0
        assert result.max_gap <= 1e-8


def test_multistart_zero_perturbation_gap_is_zero(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    result = multistart_uniqueness(
        curv, DemaillyParams(lam=8.0, alpha0=10.0), k=2, seed=0, amplitude=0.0
    )
    assert result.max_gap == 0.0


def test_multistart_requires_two_starts(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    with pytest.raises(ValueError):
        multistart_uniqueness(curv, DemaillyParams(lam=8.0, alpha0=10.0), k=1)
