"""Curvature data, residuals, the cone, L-inverse, and the linearization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlab import model
from demlab import (
    BundleSpec,
    ConeViolationError,
    CosineMode,
    DemaillyParams,
    Perturbation,
    State,
    apply_linearization,
    build_curvature,
    closed_form_state,
    cone_margin,
    l_inverse,
    linearize,
    make_grid,
    random_band_limited,
    residual,
    residual_sup,
    solve_t0,
)


@pytest.fixture
def grid16():
    return make_grid(16, 4.0)


def test_build_curvature_constant(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    assert np.allclose(curv.rho[0], 0.25, atol=1e-15)
    assert np.allclose(curv.rho[1], 0.75, atol=1e-15)
    assert np.allclose(curv.s[0], -0.25, atol=1e-15)
    assert np.allclose(curv.s[1], 0.25, atol=1e-15)
    for i, d in enumerate((1, 3)):
        assert grid16.integrate(curv.rho[i]) == pytest.approx(d, abs=1e-10)


def test_build_curvature_rank_one():
    grid = make_grid(16, 5.0)
    curv = build_curvature(BundleSpec((5,)), grid)
    assert np.allclose(curv.rho[0], 1.0, atol=1e-15)
    assert np.max(np.abs(curv.s[0])) < 1e-15


def test_build_curvature_equal_degrees_cosine(grid16):
    spec = BundleSpec.cosine_pair((2, 2), 0.1, ((1, 1),))
    curv = build_curvature(spec, grid16)
    phi = spec.phi_fields(grid16)[0]
    assert np.max(np.abs(curv.s[0] - phi)) < 1e-14
    assert np.max(np.abs(curv.s[1] + phi)) < 1e-14
    assert np.max(np.abs(curv.s.sum(axis=0))) < 1e-14


def test_build_curvature_rejects_area_mismatch():
    grid = make_grid(16, 5.0)
    with pytest.raises(ValueError, match="total degree"):
        build_curvature(BundleSpec((1, 3)), grid)


def test_build_curvature_rejects_unbalanced_wiggles(grid16):
    spec = BundleSpec((1, 3), ((CosineMode(0.1, 1, 0),), ()))
    with pytest.raises(ValueError, match="cancel"):
        build_curvature(spec, grid16)


def test_bundle_spec_validation():
    with pytest.raises(ValueError):
        BundleSpec(())
    with pytest.raises(ValueError):
        BundleSpec((1, -2))  # total degree not positive
    with pytest.raises(ValueError):
        BundleSpec.cosine_pair((5,), 0.1)
    with pytest.raises(ValueError):
        CosineMode(0.1, 0, 0)
    assert BundleSpec((-1, 5)).is_ample is False
    assert BundleSpec((1, 3)).is_ample is True


def test_residual_zero_at_t0(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    r_f, r_u = residual(state, curv, params)
    assert residual_sup(r_f, r_u) <= 1e-10


def test_residual_zero_on_constant_branch(grid16):
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    for t in (0.0, 0.3, 0.7, 1.0):
        state = closed_form_state(spec, params, grid16, t)
        r_f, r_u = residual(state, curv, params)
        assert residual_sup(r_f, r_u) <= 1e-10


def test_residual_rank_one_reduction():
    grid = make_grid(16, 5.0)
    curv = build_curvature(BundleSpec((5,)), grid)
    _, params = solve_t0(curv, DemaillyParams(lam=6.0, alpha0=10.0))
    rng = np.random.default_rng(4)
    f = random_band_limited(grid, rng, kmax=2, amplitude=0.05)
    t = 0.4
    state = State(grid, f, np.zeros((1, 16, 16)), t)
    r_f, r_u = residual(state, curv, params)
    expected = (
        np.log(grid.laplacian(f) + 1.0 + (1 - t) * params.alpha0)
        - params.lam * f
        - np.log(1.0 + params.alpha0)
    )
    assert np.max(np.abs(r_f - expected)) < 1e-12
    assert np.max(np.abs(r_u)) < 1e-12


def test_residual_raises_outside_cone(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    bad = State(grid16, state.f, state.u + 20.0 * np.exp(-state.f), 0.0)
    with pytest.raises(ConeViolationError):
        residual(bad, curv, params)


def test_cone_margin_constant_values(grid16):
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    at_one = closed_form_state(spec, params, grid16, 1.0)
    assert cone_margin(at_one, params) == pytest.approx(0.25, abs=1e-12)
    at_zero = closed_form_state(spec, params, grid16, 0.0)
    assert cone_margin(at_zero, params) == pytest.approx(10.25, abs=1e-12)


def test_cone_margin_non_ample_vanishes_at_critical_t(grid16):
    # Constant branch for degrees (-1, 5): margin -1/4 + (1-t)*10, zero at 0.975.
    spec = BundleSpec((-1, 5))
    curv = build_curvature(spec, grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    for t in (0.5, 0.9, 0.97):
        state = closed_form_state(spec, params, grid16, t)
        assert cone_margin(state, params) == pytest.approx(
            -0.25 + (1 - t) * 10.0, abs=1e-10
        )
    with pytest.raises(ConeViolationError):
        closed_form_state(spec, params, grid16, 0.9751)


def test_l_inverse_examples():
    assert l_inverse([1.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-13)
    assert l_inverse([2.0, 3.0], 12.0) == pytest.approx(1.0, abs=1e-12)
    a = 1.7
    for eta in (0.5, 1.0, 8.0):
        assert l_inverse([a], eta) == pytest.approx(eta - a, abs=1e-12)
    with pytest.raises(ValueError):
        l_inverse([1.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        l_inverse([1.0, 1.0], -3.0)


def test_l_inverse_round_trip():
    rng = np.random.default_rng(12)
    for r in (1, 2, 3, 5):
        a = rng.uniform(-2.0, 3.0, size=(r, 40))
        v = -np.min(a, axis=0) + rng.uniform(0.05, 4.0, size=40)
        eta = np.prod(v + a, axis=0)
        back = l_inverse(a, eta)
        assert np.max(np.abs(back - v)) <= 1e-12 * (1.0 + np.max(np.abs(v)))


def test_l_inverse_monotone_in_eta():
    a = np.array([0.3, 1.1, -0.4])
    etas = np.array([0.1, 0.5, 2.0, 10.0])
    vals = np.array([l_inverse(a, e) for e in etas])
    assert np.all(np.diff(vals) > 0)


_EPS = np.finfo(float).eps


@st.composite
def _l_inverse_inputs(draw):
    # Rank 1..4, shifts in [-5, 5], log(eta) in [-100, 100], 1..6 points.
    r = draw(st.integers(1, 4))
    shift = st.floats(-5.0, 5.0, allow_nan=False)
    points = draw(
        st.lists(
            st.tuples(st.lists(shift, min_size=r, max_size=r), st.floats(-100.0, 100.0)),
            min_size=1,
            max_size=6,
        )
    )
    a = np.array([p[0] for p in points]).T
    log_eta = np.array([p[1] for p in points])
    return a, log_eta


def _log_det_gap(v, a, log_eta):
    # sum_i log(v + a_i) - log(eta); -inf where a factor is not positive.
    w = v + a
    positive = np.all(w > 0, axis=0)
    logs = np.log(np.where(w > 0, w, 1.0))
    return np.where(positive, np.sum(logs, axis=0) - log_eta, -np.inf)


@settings(deadline=None, max_examples=300)
@given(inputs=_l_inverse_inputs())
def test_l_inverse_root_identity_property(inputs):
    a, log_eta = inputs
    v = l_inverse(a, np.exp(log_eta))
    w = v + a
    assert np.all(w > 0)
    # Rounding v costs up to a few ulps of |v| + |a_i| in each factor; where
    # that is below the smallest factor, the product is eta to 1e-12 relative.
    rounding = 4.0 * _EPS * (np.abs(v) + np.max(np.abs(a), axis=0))
    resolved = rounding * np.sum(1.0 / w, axis=0) <= 1e-13
    rel = np.abs(np.expm1(np.sum(np.log(w), axis=0) - log_eta))
    assert np.all(rel[resolved] <= 1e-12)
    # Everywhere, the exact root lies within that rounding plus a 1e-12
    # relative change of the product: the determinant gap changes sign.
    delta = 1e-12 / np.sum(1.0 / w, axis=0) + rounding
    assert np.all(_log_det_gap(v - delta, a, log_eta) < 0)
    assert np.all(_log_det_gap(v + delta, a, log_eta) > 0)


@settings(deadline=None, max_examples=200)
@given(inputs=_l_inverse_inputs(), rise=st.floats(1e-9, 1.0))
def test_l_inverse_monotone_in_eta_property(inputs, rise):
    a, log_eta = inputs
    low = l_inverse(a, np.exp(np.minimum(log_eta, 99.0)))
    high = l_inverse(a, np.exp(np.minimum(log_eta, 99.0) + rise))
    assert np.all(high >= low)


def test_l_inverse_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(model, "_L_INVERSE_MAX_ITERS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        l_inverse([2.0, 3.0], 12.0)


def test_l_inverse_rejects_non_finite_eta():
    with pytest.raises(ValueError, match="finite"):
        l_inverse([1.0, 1.0], np.inf)
    with pytest.raises(ValueError, match="finite"):
        l_inverse([1.0, 1.0], np.nan)


def _admissible_state(grid, spec, curv, params, rng):
    # Random t, anchored at the constant branch; the perturbation amplitude
    # scales with the anchor's cone margin so the draw stays admissible.
    for _ in range(50):
        t = rng.uniform(0.0, 1.0)
        anchor = closed_form_state(spec, params, grid, t)
        margin = cone_margin(anchor, params)
        amp = 0.01 * margin
        f = anchor.f + random_band_limited(grid, rng, kmax=2, amplitude=amp)
        du = np.stack(
            [
                random_band_limited(grid, rng, kmax=2, amplitude=amp)
                for _ in range(curv.rank)
            ]
        )
        du -= du.mean(axis=0)
        state = State(grid, f, anchor.u + du, t)
        if cone_margin(state, params) > 0.4 * margin:
            return state
    raise AssertionError("could not draw an admissible state")


def _random_direction(grid, rank, rng):
    df = random_band_limited(grid, rng, kmax=3)
    du = np.stack([random_band_limited(grid, rng, kmax=3) for _ in range(rank)])
    du -= du.mean(axis=0)
    return Perturbation(df, du)


def test_linearization_zero_direction(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    p = Perturbation(np.zeros((16, 16)), np.zeros((2, 16, 16)))
    dr_f, dr_u = apply_linearization(linearize(state, curv, params), p)
    assert np.max(np.abs(dr_f)) == 0.0
    assert np.max(np.abs(dr_u)) == 0.0


def test_linearization_matches_finite_differences(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(21)
    eps = 1e-5
    spec = BundleSpec((1, 3))
    for trial in range(3):
        state = _admissible_state(grid16, spec, curv, params, rng)
        p = _random_direction(grid16, 2, rng)
        dr_f, dr_u = apply_linearization(linearize(state, curv, params), p)
        plus = State(grid16, state.f + eps * p.df, state.u + eps * p.du, state.t)
        minus = State(grid16, state.f - eps * p.df, state.u - eps * p.du, state.t)
        rf_p, ru_p = residual(plus, curv, params)
        rf_m, ru_m = residual(minus, curv, params)
        fd_f = (rf_p - rf_m) / (2 * eps)
        fd_u = (ru_p - ru_m) / (2 * eps)
        scale = max(np.max(np.abs(fd_f)), np.max(np.abs(fd_u)))
        err = max(np.max(np.abs(dr_f - fd_f)), np.max(np.abs(dr_u - fd_u)))
        assert err / scale <= 1e-6


def test_linearization_at_t0_constant_data(grid16):
    # At the t=0 state with constant data f = 0, so the twist rows reduce to
    # lap(du_i) - du_i - u0_i * df.
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(31)
    p = _random_direction(grid16, 2, rng)
    _, dr_u = apply_linearization(linearize(state, curv, params), p)
    expected = grid16.laplacian(p.du) - p.du - state.u * p.df[None, :, :]
    assert np.max(np.abs(dr_u - expected)) < 1e-12


def _unfrozen_linearization(state, params, p):
    # Reference derivative that recomputes e^f, lap f and M_i from the state
    # on every application instead of freezing them.
    grid = state.grid
    r = state.rank
    ef = np.exp(state.f)
    m = grid.laplacian(state.f)[None, :, :] + 1.0 / r - ef[None, :, :] * state.u + (
        1.0 - state.t
    ) * params.alpha0
    lap_df = grid.laplacian(p.df)
    dm = lap_df[None, :, :] - ef[None, :, :] * state.u * p.df[None, :, :] - ef[
        None, :, :
    ] * p.du
    dr_f = np.sum(dm / m, axis=0) - params.lam * p.df
    dr_u = (
        grid.laplacian(p.du)
        - (ef * p.df)[None, :, :] * state.u
        - ef[None, :, :] * p.du
    )
    return dr_f, dr_u


@pytest.mark.parametrize("degrees", [(4,), (1, 3), (1, 2, 3)])
def test_frozen_linearization_matches_unfrozen_formula(degrees):
    spec = BundleSpec(degrees)
    grid = make_grid(32, float(sum(degrees)))
    curv = build_curvature(spec, grid)
    _, params = solve_t0(curv, DemaillyParams(lam=10.0, alpha0=10.0))
    rng = np.random.default_rng(71 + len(degrees))
    state = _admissible_state(grid, spec, curv, params, rng)
    lin = linearize(state, curv, params)
    # One frozen linearization serves every direction.
    for _ in range(3):
        p = _random_direction(grid, len(degrees), rng)
        dr_f, dr_u = apply_linearization(lin, p)
        ref_f, ref_u = _unfrozen_linearization(state, params, p)
        scale = max(np.max(np.abs(ref_f)), np.max(np.abs(ref_u)))
        err = max(np.max(np.abs(dr_f - ref_f)), np.max(np.abs(dr_u - ref_u)))
        assert err <= 1e-12 * scale


def test_linearize_rejects_state_outside_cone(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    # M_1 = 1/2 - 50 < 0 at t = 1, where the homotopy offset is gone.
    u = np.stack([np.full((16, 16), 50.0), np.full((16, 16), -50.0)])
    state = State(grid16, np.zeros((16, 16)), u, 1.0)
    with pytest.raises(ConeViolationError, match="at or below floor"):
        linearize(state, curv, params)


def test_residual_trace_compatibility(grid16):
    curv = build_curvature(BundleSpec((1, 3)), grid16)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(41)
    state = _admissible_state(grid16, BundleSpec((1, 3)), curv, params, rng)
    _, r_u = residual(state, curv, params)
    assert np.max(np.abs(np.sum(r_u, axis=0))) <= 1e-10


def test_residual_permutation_equivariance():
    grid = make_grid(16, 6.0)
    rng = np.random.default_rng(51)
    perm = [2, 0, 1]
    degrees = (1, 2, 3)
    curv = build_curvature(BundleSpec(degrees), grid)
    _, params = solve_t0(curv, DemaillyParams(lam=10.0, alpha0=10.0))
    u = np.stack([random_band_limited(grid, rng, kmax=2, amplitude=0.2) for _ in range(3)])
    u -= u.mean(axis=0)
    f = random_band_limited(grid, rng, kmax=2, amplitude=0.1)
    state = State(grid, f, u, 0.5)
    r_f, r_u = residual(state, curv, params)

    degrees_p = tuple(degrees[i] for i in perm)
    curv_p = build_curvature(BundleSpec(degrees_p), grid)
    _, params_p = solve_t0(curv_p, DemaillyParams(lam=10.0, alpha0=10.0))
    state_p = State(grid, f, u[perm], 0.5)
    r_f_p, r_u_p = residual(state_p, curv_p, params_p)
    assert np.max(np.abs(r_f - r_f_p)) < 1e-12
    assert np.max(np.abs(r_u[perm] - r_u_p)) < 1e-12


def test_perturbation_rejects_nonzero_trace():
    with pytest.raises(ValueError, match="trace-free"):
        Perturbation(np.zeros((8, 8)), np.ones((2, 8, 8)))


def test_params_validation():
    with pytest.raises(ValueError):
        DemaillyParams(lam=-1.0)
    with pytest.raises(ValueError):
        DemaillyParams(lam=8.0, newton_tol=0.0)
    with pytest.raises(ValueError):
        DemaillyParams(lam=8.0, cone_floor=-1.0)
    params = DemaillyParams(lam=8.0)
    with pytest.raises(ValueError, match="alpha0"):
        _ = params.cone_floor_value
    assert DemaillyParams(lam=8.0, alpha0=10.0).cone_floor_value == pytest.approx(
        1.1e-5
    )


def test_state_validation(grid16):
    with pytest.raises(ValueError):
        State(grid16, np.zeros((8, 8)), np.zeros((2, 16, 16)), 0.0)
    with pytest.raises(ValueError):
        State(grid16, np.zeros((16, 16)), np.zeros((2, 16, 16)), 1.5)
    with pytest.raises(ValueError):
        State(grid16, np.full((16, 16), np.nan), np.zeros((2, 16, 16)), 0.0)
