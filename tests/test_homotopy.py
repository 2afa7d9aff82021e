"""Continuation marches and the constant-data closed form."""

import numpy as np
import pytest

from demlab import (
    BundleSpec,
    DemaillyParams,
    closed_form_state,
    build_curvature,
    make_grid,
    march,
    residual,
    residual_sup,
    solve_t0,
    state_distance,
)

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


def test_closed_form_rejects_wiggles_and_mu(grid16, constant_params):
    from dataclasses import replace

    wiggly = BundleSpec.cosine_pair((1, 3), 0.1)
    with pytest.raises(ValueError, match="wiggle"):
        closed_form_state(wiggly, constant_params, grid16, 0.5)
    with pytest.raises(ValueError, match="mu"):
        closed_form_state(
            BundleSpec((1, 3)), replace(constant_params, mu=1.5), grid16, 0.5
        )


def test_march_constant_data_matches_closed_form(grid16):
    spec = BundleSpec((1, 3))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    assert report.reached_t1
    assert report.breakdown_t is None
    assert len(report.steps) == 21  # t = 0, 0.05, ..., 1.0
    ts = report.accepted_ts
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)
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
    margins = [s.diagnostics.cone_margin for s in report.steps[-5:]]
    assert all(b < a for a, b in zip(margins, margins[1:]))
    assert margins[-1] < 0.01  # margin heading to zero at the breakdown
    # The closed-form branch stays the solution up to the breakdown.
    curv = build_curvature(BundleSpec((-1, 5)), grid16)
    last = report.steps[-1].state
    r_f, r_u = residual(last, curv, report.params)
    assert residual_sup(r_f, r_u) <= 1e-9


def test_march_readme_case_work_pinned():
    # The README cosine case at n=32 takes a fixed path: 21 accepted states
    # and 54 Newton iterations.  Any change to either is a change of
    # behaviour, not of speed.
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert report.reached_t1
    assert len(report.steps) == 21
    assert sum(step.newton.iterations for step in report.steps) == 54


def test_march_records_wall_clock(grid16):
    report = march(BundleSpec((1, 3)), DemaillyParams(lam=8.0, alpha0=10.0), grid16)
    assert all(s.wall_seconds >= 0.0 for s in report.steps)
    assert all(s.newton.converged for s in report.steps)
    assert all(s.diagnostics.passed for s in report.steps)
