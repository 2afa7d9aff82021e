"""Continuation marches and the constant-data closed form."""


import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demlab import homotopy, solvers
from demlab import (
    BundleSpec,
    ConeViolationError,
    CosineMode,
    DemaillyParams,
    Grid,
    MaxIterationsError,
    State,
    closed_form_state,
    build_curvature,
    cone_margin,
    make_grid,
    march,
    newton_at_t,
    residual,
    residual_sup,
    run_diagnostics,
    solve_t0,
    state_distance,
)
from demlab.model import above_cone_floor

# Frozen oracle values for degrees (1, 3), alpha0 = 10, lambda = 8, computed
# independently from the constant-coefficient formula at high precision.
F_HALF = -0.1618444410931622
U1_HALF = +0.2939193350033996
F_ONE = -0.7970199867162201
U1_ONE = +0.5547296647720260


@pytest.fixture
def grid16():
    return make_grid(16, 4.0)


@pytest.fixture
def constant_params(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    return params


def test_closed_form_matches_t0_construction(grid16, constant_params):
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid16)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    cf = closed_form_state(spec, params, grid16, 0.0)
    assert state_distance(cf, state0) < 1e-12


def test_closed_form_frozen_values(grid16, constant_params):
    spec = BundleSpec((1, 3))
    half = closed_form_state(spec, constant_params, grid16, 0.5)
    assert half.f[0, 0] == pytest.approx(F_HALF, abs=1e-14)
    assert half.u[0, 0, 0] == pytest.approx(U1_HALF, abs=1e-14)
    one = closed_form_state(spec, constant_params, grid16, 1.0)
    assert one.f[0, 0] == pytest.approx(F_ONE, abs=1e-14)
    assert one.u[0, 0, 0] == pytest.approx(U1_ONE, abs=1e-14)


def test_closed_form_rejects_wiggles(grid16, constant_params):
    wiggly = BundleSpec.cosine_pair((1, 3), 0.1)
    with pytest.raises(ValueError, match="wiggle"):
        closed_form_state(wiggly, constant_params, grid16, 0.5)


def test_march_constant_data_matches_closed_form(grid16):
    spec = BundleSpec((1, 3))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    assert report.reached_t1
    assert report.breakdown_t is None
    # The t=0 state clears the cone at t=1 (margin 0.25), so the march jumps
    # there.
    assert report.accepted_ts == [0.0, 1.0]
    worst = max(
        state_distance(s.state, closed_form_state(spec, report.params, grid16, s.t))
        for s in report.steps
    )
    assert worst <= 1e-8


def test_march_constant_branch_monotone_f(grid16):
    spec = BundleSpec((1, 3))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    f_means = [s.state.grid.mean_value(s.state.f) for s in report.steps]
    assert all(b <= a + 1e-10 for a, b in zip(f_means, f_means[1:]))
    # The overall minimum of f is attained at t=1 on the constant branch.
    assert report.min_f == pytest.approx(F_ONE, abs=1e-9)


def test_march_constant_branch_twist_size(grid16):
    # On the constant branch u_i e^f = -s_i, so the summed sup norms equal
    # sum_i |s_i| (= 1/2 for degrees (1, 3)) at every accepted state.
    spec = BundleSpec((1, 3))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    for step in report.steps:
        st = step.state
        total = sum(
            float(np.max(np.abs(st.u[i] * np.exp(st.f)))) for i in range(st.rank)
        )
        assert total == pytest.approx(0.5, abs=1e-8)


def test_march_rank_one():
    grid = make_grid(16, 5.0)
    report = march(BundleSpec((5,)), DemaillyParams(lam=6.0, alpha0=10.0), grid)
    assert report.reached_t1
    for step in report.steps:
        expected = np.log((1 + (1 - step.t) * 10.0) / 11.0) / 6.0
        assert np.max(np.abs(step.state.f - expected)) <= 1e-8
        assert np.max(np.abs(step.state.u)) <= 1e-10


def test_march_non_ample_breakdown(grid16):
    report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    assert report.breakdown_t is not None
    assert not report.reached_t1
    # The constant-branch cone zero sits at t = 1 - 1/40; the march lands
    # within one floor step of it (plus the cone-floor offset).
    predicted = 0.975
    assert 0.0 < predicted - report.breakdown_t <= 1.1 * report.params.dt_floor
    assert report.breakdown_t == report.steps[-1].t
    assert report.breakdown_reason == "cone"
    margins = [s.diagnostics.cone_margin for s in report.steps[-5:]]
    assert all(b < a for a, b in zip(margins, margins[1:]))
    assert margins[-1] < 0.01  # margin heading to zero at the breakdown
    # The closed-form branch stays the solution up to the breakdown.
    curv = build_curvature(BundleSpec((-1, 5)), grid16)
    last = report.steps[-1].state
    r_f, r_u = residual(last, curv, report.params)
    assert residual_sup(r_f, r_u) <= 1e-9


def test_march_non_ample_path_untouched():
    # No accepted state of a non-ample march is admissible at t=1, so the
    # jump never fires and the march keeps the doubling-and-halving path.
    grid = make_grid(64, 4.0)
    report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert report.accepted_ts == [
        0.0, 0.05, 0.15000000000000002, 0.35000000000000003, 0.75, 0.875, 0.9375,
        0.96875, 0.97265625, 0.974609375, 0.974853515625, 0.9749755859375,
    ]
    # Every accepted step converges in one Newton iteration.
    assert sum(step.newton.iterations for step in report.steps) == 11
    assert report.breakdown_t == 0.9749755859375
    assert report.breakdown_reason == "cone"


def test_march_breakdown_sweep_within_derived_bound(monkeypatch):
    # Criterion 7 across alpha0: the (-1, 5) constant-branch cone zero is
    # t = 1 - 1/(4 alpha0), and every march must stop for the cone within one
    # floor step plus the t-offset of the cone floor below it.  3806 GMRES
    # solves is what the sweep cost when Newton stepped additively in u.
    solves = []
    real = solvers.gmres

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "gmres", counted)
    grid = make_grid(64, 4.0)
    outside = []
    for alpha0 in np.linspace(8.0, 12.0, 33):
        report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=alpha0), grid)
        params = report.params
        predicted = 1.0 - 1.0 / (4.0 * alpha0)
        bound = params.dt_floor + params.cone_floor_value / alpha0
        t_star = report.breakdown_t
        if (
            t_star is None
            or not 0.0 < predicted - t_star <= bound
            or report.breakdown_reason != "cone"
        ):
            outside.append((float(alpha0), t_star, report.breakdown_reason))
    assert outside == []
    assert len(solves) <= 3806


@st.composite
def _constant_specs_and_times(draw):
    """A wiggle-free spec of rank 2-3, an alpha0, and two fractions of its cone range."""
    degrees = draw(st.lists(st.integers(-2, 5), min_size=2, max_size=3))
    if sum(degrees) <= 0:
        degrees[-1] += 1 - sum(degrees)
    alpha0 = draw(st.sampled_from([2.0, 10.0, 50.0]))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True))
    return BundleSpec(tuple(degrees)), alpha0, sorted(fractions)


@settings(deadline=None, max_examples=30)
@given(case=_constant_specs_and_times())
# Two t's 4e-11 apart: the start is already within newton_tol at t2, so
# Newton takes no iteration and the start is 8.4e-12 from the t2 closed form.
@example(case=(BundleSpec((0, 1)), 2.0, [0.0, 4.0577971836398754e-11]))
def test_newton_w_step_follows_constant_branch(case):
    # Along the constant branch w = e^f u = -s stays fixed in t, and at fixed
    # constant w the residual is affine in f.  Newton's first iteration tries
    # the full step in (f, w), so one iteration from the closed form at t1
    # lands on the closed form at t2.
    # Its match is 1e-12 up to two factors: near the cone 1/M_i amplifies the
    # inexact GMRES solve, and u = -s e^-f carries f's error relative to |u|.
    # When the start already meets newton_tol at t2, Newton takes no
    # iteration and returns the start, trace-projected, as it is.
    spec, alpha0, fractions = case
    grid = make_grid(8, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=alpha0))
    # Keep every cone factor d_i/deg(E) + (1 - t) alpha0 at least 1e-3.
    rho_min = min(spec.degrees) / spec.degree_sum
    t_max = min(1.0, 1.0 + (rho_min - 1e-3) / params.alpha0)
    t1, t2 = (t_max * x for x in fractions)
    start = closed_form_state(spec, params, grid, t1)
    sol, report = newton_at_t(start, t2, curv, params)
    assert report.converged
    assert report.iterations <= 1
    if report.iterations == 0:
        projected = np.array(start.u)
        projected[-1] = -np.sum(projected[:-1], axis=0)
        assert sol.t == t2
        assert np.array_equal(sol.f.view(np.uint64), start.f.view(np.uint64))
        assert np.array_equal(sol.u.view(np.uint64), projected.view(np.uint64))
        assert residual_sup(*residual(sol, curv, params)) <= params.newton_tol
        return
    exact = closed_form_state(spec, params, grid, t2)
    scale = max(1.0, 0.1 / cone_margin(exact, params))
    scale *= max(1.0, float(np.max(np.abs(exact.u))))
    assert state_distance(sol, exact) <= 1e-12 * scale


@st.composite
def _non_ample_specs(draw):
    """Rank 2 or 3 with one degree <= 0, constant or with a cosine wiggle."""
    low = draw(st.integers(-2, 0))
    highs = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    degrees = draw(st.permutations([low] + highs))
    if sum(degrees) <= 0:
        degrees = degrees[:-1] + [degrees[-1] + 1 - sum(degrees)]
    amplitude = draw(st.sampled_from([0.0, 0.05, 0.2]))
    return BundleSpec.cosine_pair(degrees, amplitude)


@settings(deadline=None, max_examples=20)
@given(spec=_non_ample_specs(), alpha0=st.sampled_from([2.0, 10.0]))
def test_march_never_jumps_without_ampleness(spec, alpha0):
    # Every accepted state's cone margin taken to t=1 (each factor falls at
    # rate alpha0) is below the floor: the condition for the jump fails.  A
    # coarse dt_floor keeps each march to breakdown short.
    assert not spec.is_ample
    grid = make_grid(16, float(spec.degree_sum))
    params = DemaillyParams(lam=8.0, alpha0=alpha0, dt_floor=1e-2)
    report = march(spec, params, grid)
    params = report.params
    for step in report.steps:
        margin_at_1 = step.diagnostics.cone_margin - params.alpha0 * (1.0 - step.t)
        assert margin_at_1 < params.cone_floor_value


def test_march_rejected_jump_halves_and_recovers(monkeypatch, caplog):
    # A jump that fails is an ordinary rejection: the next attempt halves
    # the step it tried, and the march still reaches t=1.  The t=0 state
    # jumps, so the halved step is 0.5.
    tried = []
    real = homotopy.newton_at_t

    def fail_first_jump(initial, t, curv, params):
        tried.append(t)
        if t == 1.0 and tried.count(1.0) == 1:
            raise MaxIterationsError("forced failure of the jump")
        return real(initial, t, curv, params)

    monkeypatch.setattr(homotopy, "newton_at_t", fail_first_jump)
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    with caplog.at_level(logging.DEBUG, logger=homotopy.__name__):
        report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert tried == [0.0, 1.0, 0.5, 1.0]
    assert "step to t=1.000000 rejected (max_iters)" in caplog.text
    assert report.reached_t1
    assert report.accepted_ts == [0.0, 0.5, 1.0]
    assert all(step.diagnostics.passed for step in report.steps)


def _diagnostics_failing_above(monkeypatch, t_bad, times=None):
    """Make the march's diagnostics fail on states with t > t_bad, ``times`` times at most."""
    real = homotopy.run_diagnostics
    failed = []

    def witness(state, curv, params):
        record = real(state, curv, params)
        if state.t > t_bad and (times is None or len(failed) < times):
            failed.append(state.t)
            return replace(record, failed=record.failed + ("witness",))
        return record

    monkeypatch.setattr(homotopy, "run_diagnostics", witness)
    return failed


def test_march_rejects_a_state_that_fails_diagnostics(monkeypatch):
    # A converged state whose diagnostics fail is a ``diagnostics``
    # rejection: the next attempt halves the step, and the march recovers.
    failed = _diagnostics_failing_above(monkeypatch, 0.5, times=1)
    report = march(BundleSpec.cosine_pair((1, 3), 0.2), DemaillyParams(lam=8.0, alpha0=10.0),
                   make_grid(16, 4.0))
    assert failed == [1.0]
    assert report.rejected == [(1.0, "diagnostics", False)]
    assert report.accepted_ts == [0.0, 0.5, 1.0]
    assert report.reached_t1


def test_march_breaks_down_on_diagnostics_at_the_floor(monkeypatch):
    # Diagnostics that fail on every state past t=0.5 halve the step down
    # to dt_floor, and the failure there is the breakdown, with its reason.
    _diagnostics_failing_above(monkeypatch, 0.5)
    params = DemaillyParams(lam=8.0, alpha0=10.0, dt_floor=0.01)
    report = march(BundleSpec.cosine_pair((1, 3), 0.2), params, make_grid(16, 4.0))
    assert report.accepted_ts == [0.0, 0.5]
    assert [t for t, _, _ in report.rejected] == [
        1.0, 1.0, 0.75, 0.625, 0.5625, 0.53125, 0.515625, 0.51
    ]
    assert {(reason, predicted) for _, reason, predicted in report.rejected} == {
        ("diagnostics", False)
    }
    assert report.breakdown_t == 0.5
    assert report.breakdown_reason == "diagnostics"


def test_march_records_non_finite_trial_as_no_descent(monkeypatch, caplog):
    # A Newton direction that is not finite rejects the attempt with reason
    # no_descent instead of ending the march; the halved step recovers.
    real = solvers._newton_direction
    calls = []

    def nan_first_direction(state, *args):
        df, du, *counts = real(state, *args)
        calls.append(state.t)
        if len(calls) == 1:
            return np.full_like(df, np.nan), np.full_like(du, np.nan), *counts
        return df, du, *counts

    monkeypatch.setattr(solvers, "_newton_direction", nan_first_direction)
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    with caplog.at_level(logging.DEBUG, logger=homotopy.__name__):
        report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert calls[0] == 1.0
    assert "step to t=1.000000 rejected (no_descent)" in caplog.text
    assert report.reached_t1
    assert report.accepted_ts == [0.0, 0.5, 1.0]


class _StopMarch(Exception):
    """Ends a march after its first attempt past t=0."""


@pytest.mark.parametrize("dt0", [DemaillyParams.dt0, 0.1])
@pytest.mark.parametrize(
    "spec, lam, alpha0",
    [
        (BundleSpec((-1, 5)), 8.0, 10.0),
        (BundleSpec.cosine_pair((1, 3), 3.0), 4.0, 2.0),
    ],
    ids=["non-ample", "strong-wiggle"],
)
def test_march_first_step_is_dt0_without_t0_jump(monkeypatch, spec, lam, alpha0, dt0):
    # When the t=0 state fails the jump test, the first attempt after t=0 is
    # t = dt0: the increment is neither grown nor doubled at t=0.
    tried = []
    real = homotopy.newton_at_t

    def stop_after_first_attempt(initial, t, curv, params):
        tried.append(t)
        if len(tried) == 2:
            raise _StopMarch
        return real(initial, t, curv, params)

    monkeypatch.setattr(homotopy, "newton_at_t", stop_after_first_attempt)
    grid = make_grid(32, float(spec.degree_sum))
    params = DemaillyParams(lam=lam, alpha0=alpha0, dt0=dt0)
    curv = build_curvature(spec, grid)
    state0, filled = solve_t0(curv, params)
    assert cone_margin(state0, filled) - filled.alpha0 < filled.cone_floor_value
    with pytest.raises(_StopMarch):
        march(spec, params, grid)
    assert tried == [0.0, dt0]


def test_march_readme_case_work_pinned():
    # The README cosine case at n=32 takes a fixed path: the t=0 state is
    # admissible at t=1, so the march jumps there, giving 2 accepted states
    # and 4 Newton iterations.  Any change to either is a change of
    # behaviour, not of speed.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert report.reached_t1
    assert report.breakdown_reason is None
    assert report.accepted_ts == [0.0, 1.0]
    assert sum(step.newton.iterations for step in report.steps) == 4


def test_march_laplacian_count_pinned(monkeypatch):
    # The README case at n=32 takes 17 Laplacians and the (-1, 5) breakdown
    # at n=16 takes 35.  Each state takes lap f and lap u once and keeps
    # them, the t=0 state included (solve_t0 returns it trace-projected),
    # in one transform of (f, u_1), since every state the solvers make is
    # trace-projected; each GMRES matvec transforms df and du_1 only, and
    # GMRES takes no matvec for the true residual of a cycle that
    # converges.  The counts rise when cone_margin, residual, linearize or
    # the diagnostics take their own Laplacian of f or u, when newton_at_t
    # recomputes the Laplacians of the state it starts from, when a state
    # transforms f and u apart, when apply_linearization transforms du_r as
    # well, or when GMRES takes more matvecs.
    calls = []
    real = Grid.laplacian

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Grid, "laplacian", counted)
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    march(BundleSpec.cosine_pair((1, 3), 0.2), params, make_grid(32, 4.0))
    assert len(calls) == 17
    calls.clear()
    report = march(BundleSpec((-1, 5)), params, make_grid(16, 4.0))
    assert len(calls) == 35
    # Only the predictor keeps its Laplacians; the report's states do not.
    assert not any("_laplacians" in vars(step.state) for step in report.steps)


def _march_record(report):
    return (
        report.accepted_ts,
        [step.newton.iterations for step in report.steps],
        report.breakdown_t,
        report.breakdown_reason,
        report.final_state.f.tobytes() + report.final_state.u.tobytes(),
    )


@pytest.mark.parametrize(
    "spec, n",
    [
        (BundleSpec.cosine_pair((1, 3), 0.2), 32),
        (BundleSpec((-1, 5)), 16),
        (BundleSpec.cosine_pair((-1, 5), 0.05), 32),
    ],
)
def test_march_cached_laplacians_match_recomputed(monkeypatch, spec, n):
    # Oracle for the Laplacian cache: with lap f and lap u recomputed on
    # every access, nothing is shared between states and nothing can be
    # stale, and the march must come out the same byte for byte.
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    grid = make_grid(n, 4.0)
    cached = _march_record(march(spec, params, grid))
    monkeypatch.setattr(State, "lap_f", property(lambda s: s.grid.laplacian(s.f)))
    monkeypatch.setattr(State, "lap_u", property(lambda s: s.grid.laplacian(s.u)))
    assert _march_record(march(spec, params, grid)) == cached


def _spy_attempts(mp):
    """Record a march's attempts in order as (t, outcome).

    The outcome is None for a Newton solve that returned, the exception's
    class name for one that raised, and "skipped" for an attempt the
    pre-check rejected without a Newton solve.
    """
    attempts = []
    real_newton = homotopy.newton_at_t
    real_check = homotopy._predicts_rejection

    def newton(initial, t, curv, params):
        try:
            out = real_newton(initial, t, curv, params)
        except Exception as exc:
            attempts.append((t, type(exc).__name__))
            raise
        attempts.append((t, None))
        return out

    def check(state, margin, t_try, params):
        skip = real_check(state, margin, t_try, params)
        if skip:
            attempts.append((t_try, "skipped"))
        return skip

    mp.setattr(homotopy, "newton_at_t", newton)
    mp.setattr(homotopy, "_predicts_rejection", check)
    return attempts


def _assert_skips_change_nothing(spec, params, grid):
    # Oracle for the pre-check: with it never predicting a rejection, every
    # attempt runs Newton, and the march must come out the same byte for
    # byte, with Newton refusing at its start exactly the skipped attempts.
    with pytest.MonkeyPatch.context() as mp:
        attempts = _spy_attempts(mp)
        skipping = march(spec, params, grid)
        order = [t for t, _ in attempts]
        skipped = [t for t, outcome in attempts if outcome == "skipped"]
        assert "ConeViolationError" not in [outcome for _, outcome in attempts]
        assert skipped == [t for t, _, predicted in skipping.rejected if predicted]
        attempts.clear()
        mp.setattr(homotopy, "_predicts_rejection", lambda *args: False)
        trying = march(spec, params, grid)
    assert _march_record(trying) == _march_record(skipping)
    assert [t for t, _ in attempts] == order
    assert [t for t, outcome in attempts if outcome == "ConeViolationError"] == skipped
    assert [entry[:2] for entry in trying.rejected] == [
        entry[:2] for entry in skipping.rejected
    ]
    return skipping


@pytest.mark.parametrize(
    "spec, lam, alpha0, n",
    [
        (BundleSpec((-1, 5)), 8.0, 10.0, 16),
        (BundleSpec.cosine_pair((-1, 5), 0.05), 8.0, 10.0, 32),
        # A grid-2 member whose march skips 5 of its 19 attempts.
        (BundleSpec.cosine_pair((1, 3), 3.0, ((3, 2), (1, 0))), 40.0, 2.0, 32),
    ],
    ids=["constant", "wiggled", "grid2"],
)
def test_march_predicted_rejections_match_newton(spec, lam, alpha0, n):
    report = _assert_skips_change_nothing(
        spec, DemaillyParams(lam=lam, alpha0=alpha0), make_grid(n, float(spec.degree_sum))
    )
    assert any(predicted for _, _, predicted in report.rejected)


@settings(deadline=None, max_examples=15)
@given(
    spec=_non_ample_specs(),
    alpha0=st.floats(2.0, 20.0),
    dt0=st.floats(0.01, 0.5),
)
def test_march_predicted_rejections_match_newton_drawn(spec, alpha0, dt0):
    grid = make_grid(8, float(spec.degree_sum))
    _assert_skips_change_nothing(spec, DemaillyParams(lam=8.0, alpha0=alpha0, dt0=dt0), grid)


def test_march_breakdown_skips_only_doomed_attempts(caplog):
    # The (-1, 5) breakdown at n=64 tries the same 25 t's in the same order
    # as when every attempt ran Newton; the 13 that Newton refused at its
    # start are now rejected from the accepted state's margin, and logged
    # as predicted, so 12 Newton solves remain, the t=0 one included.
    order = [
        0.0, 0.05, 0.15000000000000002, 0.35000000000000003, 0.75, 1.0, 0.875,
        1.0, 0.9375, 1.0, 0.96875, 1.0, 0.984375, 0.9765625, 0.97265625,
        0.9765625, 0.974609375, 0.9765625, 0.9755859375, 0.97509765625,
        0.974853515625, 0.97509765625, 0.9749755859375, 0.97509765625,
        0.9750755859375,
    ]
    grid = make_grid(64, 4.0)
    with pytest.MonkeyPatch.context() as mp, caplog.at_level(logging.DEBUG, homotopy.__name__):
        attempts = _spy_attempts(mp)
        report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert [t for t, _ in attempts] == order
    assert [outcome for _, outcome in attempts].count(None) == 12
    assert len(report.rejected) == 13
    assert all(reason == "cone" and predicted for _, reason, predicted in report.rejected)
    assert report.breakdown_t == 0.9749755859375
    assert report.breakdown_reason == "cone"
    for t_try, _, _ in report.rejected:
        assert f"step to t={t_try:.6f} rejected (cone): predicted from margin" in caplog.text


def test_margin_at_the_floor_is_refused_everywhere():
    # One floor rule: a margin exactly at the floor is refused by Newton's
    # evaluation, by the diagnostics and by the jump test alike, and one ulp
    # above it is admitted by all three; a NaN margin is refused.
    grid = make_grid(16, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    state, report = newton_at_t(state0, 0.0, curv, params)
    diag = run_diagnostics(state, curv, params)
    assert diag.passed and report.iterations <= homotopy._FAST_ITERS

    margin = diag.cone_margin
    at_floor = replace(params, cone_floor=margin)
    below = replace(params, cone_floor=float(np.nextafter(margin, -np.inf)))
    with pytest.raises(ConeViolationError):
        residual(state, curv, at_floor)
    residual(state, curv, below)
    assert "cone_margin" in run_diagnostics(state, curv, at_floor).failed
    assert run_diagnostics(state, curv, below).passed

    margin_at_1 = homotopy._margin_at(margin, 0.0, 1.0, params)
    at_floor = replace(params, cone_floor=margin_at_1)
    below = replace(params, cone_floor=float(np.nextafter(margin_at_1, -np.inf)))
    assert not homotopy._may_jump(0.0, report, diag, at_floor)
    assert homotopy._may_jump(0.0, report, diag, below)
    assert not homotopy._predicts_rejection(state, margin, 1.0, below)
    # The pre-check refuses only beyond the prediction's rounding bound, so
    # a prediction at the floor still gets its Newton attempt.
    assert not homotopy._predicts_rejection(state, margin, 1.0, at_floor)
    above = replace(params, cone_floor=margin_at_1 * (1.0 + 1e-9))
    assert homotopy._predicts_rejection(state, margin, 1.0, above)
    assert not above_cone_floor(float("nan"), params)


# Two grids over the range, of 9 and 14 points, which share only their ends:
# 21 amplitudes.
@pytest.mark.parametrize(
    "amplitude", np.union1d(np.linspace(0.1, 0.3, 9), np.linspace(0.1, 0.3, 14))
)
def test_march_ample_amplitudes_jump_from_t0(amplitude):
    # Over the benchmark's amplitude range the t=0 state jumps to t=1, and
    # the t=1 solve ends far below the tolerance, so the iteration count
    # does not hinge on where its last residual lands.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), float(amplitude))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert report.accepted_ts == [0.0, 1.0]
    assert sum(step.newton.iterations for step in report.steps) == 4
    assert report.steps[-1].newton.final_residual <= report.params.newton_tol / 50


@st.composite
def _positively_curved_cases(draw):
    """(spec, lambda): rank 2-3, degrees 1-4, lambda in [r + 0.5, 40].

    Each summand i < r carries one or two cosine modes and the last one
    their negated sum.  The amplitudes take the largest common scale at
    which every sup|phi_i|, at most the sum of phi_i's |amplitudes|, is at
    most 0.99 d_i/d: every curvature density rho_i = d_i/d + phi_i stays at
    least 0.01 d_i/d, and the one with the largest relative wiggle may come
    that close.
    """
    r = draw(st.integers(2, 3))
    degrees = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    amplitude = st.builds(float.__mul__, st.sampled_from([-1.0, 1.0]), st.floats(0.1, 1.0))
    mode = st.tuples(amplitude, st.integers(0, 3), st.integers(0, 3))
    mode = mode.filter(lambda m: m[1:] != (0, 0))
    raw = [draw(st.lists(mode, min_size=1, max_size=2)) for _ in range(r - 1)]
    sums = [sum(abs(a) for a, _, _ in modes) for modes in raw]
    sums.append(sum(sums))
    d = sum(degrees)
    scale = min(0.99 * d_i / d / s for d_i, s in zip(degrees, sums))
    plus = [tuple(CosineMode(scale * a, kx, ky) for a, kx, ky in modes) for modes in raw]
    minus = tuple(CosineMode(-m.amplitude, m.kx, m.ky) for modes in plus for m in modes)
    return BundleSpec(degrees, (*plus, minus)), draw(st.floats(r + 0.5, 40.0))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    case=_positively_curved_cases(),
    alpha0=st.floats(2.0, 20.0),
    n=st.sampled_from([16, 32]),
)
def test_ample_positively_curved_data_reach_t1(case, alpha0, n):
    # The paper's theorem on this family: positive degrees and positive
    # curvature densities give a solution at t=1.  Every accepted state is
    # converged and passes the diagnostics, recomputed from the state.
    spec, lam = case
    grid = make_grid(n, float(spec.degree_sum))
    curv = build_curvature(spec, grid)
    report = march(spec, DemaillyParams(lam=lam, alpha0=alpha0), grid)
    assert report.reached_t1
    for step in report.steps:
        assert residual_sup(*residual(step.state, curv, report.params)) <= report.params.newton_tol
        assert run_diagnostics(step.state, curv, report.params).passed


def test_march_fixed_step_path_pinned(monkeypatch):
    # With growth switched off (no Newton solve counts as fast, so neither
    # the doubling nor the jump to t=1 applies) the README case takes the
    # fixed 0.05 grid (21 states, 48 Newton iterations) and the (-1, 5)
    # breakdown lands at the fixed-step t*.  The count was 54 with the
    # block-diagonal preconditioner and a forcing cap of 1e-3, whose
    # looser directions cost some of the 20 solves a third iteration.
    monkeypatch.setattr(homotopy, "_FAST_ITERS", -1)
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    report = march(spec, params, grid)
    expected = [0.0]
    while expected[-1] < 1.0:
        expected.append(min(expected[-1] + 0.05, 1.0))
    assert report.accepted_ts == expected
    assert len(report.steps) == 21
    assert sum(step.newton.iterations for step in report.steps) == 48

    report = march(BundleSpec((-1, 5)), params, make_grid(16, 4.0))
    assert report.breakdown_t == pytest.approx(0.9749046875, abs=1e-12)
    assert report.breakdown_reason == "cone"


# The corners of the stress grid amplitude [0.2, 2] x lambda [2.5, 40] x
# alpha0 [2, 100].
@pytest.mark.parametrize("amplitude", [0.2, 2.0])
@pytest.mark.parametrize("lam", [2.5, 40.0])
@pytest.mark.parametrize("alpha0", [2.0, 100.0])
def test_march_stress_corners_match_fixed_step(monkeypatch, amplitude, lam, alpha0):
    tried = []
    real = homotopy.newton_at_t

    def counted(initial, t, curv, params):
        tried.append(t)
        return real(initial, t, curv, params)

    monkeypatch.setattr(homotopy, "newton_at_t", counted)
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), amplitude)
    params = DemaillyParams(lam=lam, alpha0=alpha0)
    report = march(spec, params, grid)
    assert report.reached_t1
    assert report.accepted_ts == [0.0, 1.0]
    assert tried == report.accepted_ts  # no rejected attempt
    monkeypatch.setattr(homotopy, "_FAST_ITERS", -1)
    fixed = march(spec, params, grid)
    assert fixed.reached_t1
    # 10x the worst distance over the 8 corners (1.8e-10, amplitude 0.2,
    # lambda 2.5, alpha0 100).
    assert state_distance(report.final_state, fixed.final_state) <= 2e-9


def test_march_records_wall_clock(grid16):
    report = march(BundleSpec((1, 3)), DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    assert all(s.wall_seconds >= 0.0 for s in report.steps)
    assert all(s.newton.converged for s in report.steps)
    assert all(s.diagnostics.passed for s in report.steps)
