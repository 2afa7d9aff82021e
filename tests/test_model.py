"""Curvature data, residuals, the cone, L-inverse, and the linearization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlab import model
from demlab.geometry import Grid
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


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_cosine_mode_matches_meshgrid_form_bit_for_bit(n):
    # The separable evaluation multiplies in the order of the meshgrid form,
    # so every curvature field, and every state built on one, is unchanged.
    grid = make_grid(n, 4.0)
    X, Y = grid.coords()
    for amplitude in (0.2, -0.7, 1e-3, 3.3, 0.1234567):
        for kx, ky in ((1, 1), (1, 0), (0, 1), (3, 2), (5, 5), (7, 1), (2, 3)):
            mode = CosineMode(amplitude, kx, ky)
            meshgrid = amplitude * np.cos(2 * np.pi * kx * X) * np.cos(2 * np.pi * ky * Y)
            assert np.array_equal(mode.evaluate(grid), meshgrid)


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


def test_converged_means_at_most_newton_tol():
    # The one convergence rule: the tolerance itself converges, one ulp
    # above it does not, and neither does a NaN or an infinite residual.
    params = DemaillyParams(lam=8.0)
    tol = params.newton_tol
    assert params.converged(tol)
    assert not params.converged(np.nextafter(tol, np.inf))
    assert not params.converged(np.nan)
    assert not params.converged(np.inf)


def test_evaluation_rejects_nan_cone_factor():
    # A rank-one state (u = 0) whose e^f overflows at one point, where
    # e^f u is inf * 0 = NaN, and so is the cone factor.  NaN <= floor is
    # false as well, so only "not m_min > floor" catches it.
    grid = make_grid(16, 2.0)
    curv = build_curvature(BundleSpec((2,)), grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    f = np.zeros((16, 16))
    f[3, 5] = 800.0
    state = State(grid, f, state0.u, 0.5)
    with np.errstate(all="ignore"):
        with pytest.raises(ConeViolationError, match="cone margin nan"):
            residual(state, curv, params)
        with pytest.raises(ConeViolationError, match="cone margin nan"):
            linearize(state, curv, params)


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


def _assert_root_identity(a, log_eta, v):
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


@settings(deadline=None, max_examples=300)
@given(inputs=_l_inverse_inputs())
def test_l_inverse_root_identity_property(inputs):
    a, log_eta = inputs
    _assert_root_identity(a, log_eta, l_inverse(a, np.exp(log_eta)))


@settings(deadline=None, max_examples=200)
@given(inputs=_l_inverse_inputs(), rise=st.floats(1e-9, 1.0))
def test_l_inverse_monotone_in_eta_property(inputs, rise):
    a, log_eta = inputs
    low = l_inverse(a, np.exp(np.minimum(log_eta, 99.0)))
    high = l_inverse(a, np.exp(np.minimum(log_eta, 99.0) + rise))
    assert np.all(high >= low)


def test_l_inverse_iteration_cap_raises(monkeypatch):
    # Rank 3: rank 2 is solved in closed form and never reaches the cap.
    monkeypatch.setattr(model, "_L_INVERSE_MAX_ITERS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        l_inverse([2.0, 3.0, 4.0], 60.0)


def test_l_inverse_rank_two_runs_no_newton_sweep(monkeypatch):
    monkeypatch.setattr(model, "_L_INVERSE_MAX_ITERS", 0)
    assert l_inverse([2.0, 3.0], 12.0) == 1.0
    assert l_inverse([3.0, 2.0], 12.0) == 1.0


def test_l_inverse_rank_two_tiny_root_keeps_relative_precision():
    # x (x + 1) = 1e-20: the root 1e-20 (1 - 1e-20) cancels to 0 in the
    # textbook form (sqrt(d^2 + 4 eta) - d) / 2.
    assert l_inverse([0.0, 1.0], 1e-20) == pytest.approx(1e-20, rel=4 * _EPS, abs=0.0)


@pytest.mark.parametrize("log_eta", [-699.0, 699.0])
@pytest.mark.parametrize("d", [0.0, 1e-300, 1e6, 1e150])
@pytest.mark.parametrize("a_min", [0.0, -1.5, 2.5])
def test_l_inverse_rank_two_extremes(log_eta, d, a_min):
    # The closed form at the ends of the float range of eta and of the
    # shift gap d = a_max - a_min, in both orders of the shifts.
    a = np.array([[a_min, a_min + d], [a_min + d, a_min]])
    log_etas = np.full(2, log_eta)
    v = l_inverse(a, np.exp(log_etas))
    assert np.all(np.isfinite(v))
    # A subnormal factor v + a_i overflows the checker's 1 / w and expm1;
    # such a point is unresolved and only its bracket is checked.
    with np.errstate(over="ignore"):
        _assert_root_identity(a, log_etas, v)


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


_wiggle_modes = st.lists(
    st.builds(
        lambda amplitude, k: CosineMode(amplitude, *k),
        st.floats(-0.1, 0.1),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: k != (0, 0)),
    ),
    max_size=2,
)


@st.composite
def _permuted_specs(draw):
    """A random spec, its summands' wiggles cancelling, and a permutation."""
    r = draw(st.integers(2, 4))
    degrees = draw(
        st.lists(st.integers(-3, 6), min_size=r, max_size=r).filter(lambda d: sum(d) > 0)
    )
    perts = [draw(_wiggle_modes) for _ in range(r - 1)]
    last = [CosineMode(-m.amplitude, m.kx, m.ky) for mode_list in perts for m in mode_list]
    spec = BundleSpec(tuple(degrees), tuple(perts) + (tuple(last),))
    return spec, draw(st.permutations(range(r)))


@settings(deadline=None, max_examples=100)
@given(
    case=_permuted_specs(),
    t=st.floats(0.0, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_equivariant_under_summand_permutation(case, t, seed):
    # Relabelling the summands permutes the twist residuals the same way and
    # leaves the determinant residual unchanged up to summation order.
    spec, perm = case
    perm = list(perm)
    grid = make_grid(8, float(spec.degree_sum))
    rng = np.random.default_rng(seed)
    # With t <= 0.8 the shift (1-t) alpha0 is at least 2, and these sizes
    # keep |lap(f)| + e^f |u_i| below 2 on areas down to 1: inside the cone.
    f = random_band_limited(grid, rng, kmax=2, amplitude=0.005)
    u = np.stack(
        [random_band_limited(grid, rng, kmax=2, amplitude=0.2) for _ in range(spec.rank)]
    )
    a0 = np.exp(random_band_limited(grid, rng, kmax=2, amplitude=0.5))
    params = DemaillyParams(lam=8.0, alpha0=10.0, a0=a0)
    permuted = BundleSpec(
        tuple(spec.degrees[i] for i in perm), tuple(spec.perturbations[i] for i in perm)
    )
    r_f, r_u = residual(State(grid, f, u, t), build_curvature(spec, grid), params)
    p_f, p_u = residual(State(grid, f, u[perm], t), build_curvature(permuted, grid), params)
    scale = 1e-13 * (1.0 + residual_sup(r_f, r_u))
    assert np.max(np.abs(p_f - r_f)) <= scale
    assert np.max(np.abs(p_u - r_u[perm])) <= scale


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


def test_state_fields_and_laplacians_are_read_only(grid16):
    # A state's Laplacians are taken once and kept, so its fields must not
    # be written through; the caller's own arrays keep their flags.
    f = random_band_limited(grid16, np.random.default_rng(5), kmax=2, amplitude=0.1)
    u = np.stack([f, -f])
    state = State(grid16, f, u, 0.5)
    for field in (state.f, state.u, state.lap_f, state.lap_u):
        with pytest.raises(ValueError, match="read-only"):
            field[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.u += 1.0
    assert f.flags.writeable and u.flags.writeable


def _counted_laplacians(monkeypatch):
    calls = []
    real = Grid.laplacian

    def counted(self, v):
        calls.append(np.shape(v))
        return real(self, v)

    monkeypatch.setattr(Grid, "laplacian", counted)
    return calls


def _trace_projected(head):
    return np.concatenate([head, -np.sum(head, axis=0)[None]])


def test_state_laplacians_of_a_trace_projected_rank_two_state(monkeypatch, grid16):
    # u_2 = -u_1 bit for bit: lap f and lap u come from one transform of
    # (f, u_1) and equal the separate transforms bit for bit.
    rng = np.random.default_rng(71)
    f = random_band_limited(grid16, rng, kmax=3)
    u = _trace_projected(random_band_limited(grid16, rng, kmax=3)[None])
    lap_f, lap_u = grid16.laplacian(f), grid16.laplacian(u)
    calls = _counted_laplacians(monkeypatch)
    state = State(grid16, f, u, 0.5)
    assert np.array_equal(state.lap_u, lap_u)
    assert np.array_equal(state.lap_f, lap_f)
    assert calls == [(2, 16, 16)]


def test_state_laplacians_of_a_trace_projected_rank_three_state(monkeypatch, grid16):
    rng = np.random.default_rng(72)
    f = random_band_limited(grid16, rng, kmax=3)
    u = _trace_projected(np.stack([random_band_limited(grid16, rng, kmax=3) for _ in range(2)]))
    lap_f, lap_u = grid16.laplacian(f), grid16.laplacian(u)
    calls = _counted_laplacians(monkeypatch)
    state = State(grid16, f, u, 0.5)
    assert np.max(np.abs(state.lap_f - lap_f)) <= 1e-13 * np.max(np.abs(lap_f))
    assert np.max(np.abs(state.lap_u - lap_u)) <= 1e-13 * np.max(np.abs(lap_u))
    assert calls == [(3, 16, 16)]


def test_state_laplacians_of_a_rank_one_solver_state(monkeypatch, grid16):
    # At rank one the solvers set u_1 = -0.0, minus the empty sum, so a
    # solver state takes only the transform of f.
    curv = build_curvature(BundleSpec((4,)), grid16)
    state0, _ = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    calls = _counted_laplacians(monkeypatch)
    state = State(grid16, state0.f, state0.u, 0.5)
    assert np.array_equal(state.lap_u, np.zeros((1, 16, 16)))
    assert np.array_equal(state.lap_f, np.zeros((16, 16)))
    assert calls == [(1, 16, 16)]


def test_state_laplacians_of_an_unprojected_state_take_one_full_transform(monkeypatch, grid16):
    # u_2 is -u_1 only up to one ulp in one point: lap f and lap u come from
    # one transform of (f, u_1, u_2), whose slices equal the separate
    # transforms bit for bit.
    rng = np.random.default_rng(73)
    f = random_band_limited(grid16, rng, kmax=3)
    u = _trace_projected(random_band_limited(grid16, rng, kmax=3)[None])
    u[1, 3, 5] = np.nextafter(u[1, 3, 5], np.inf)
    lap_f, lap_u = grid16.laplacian(f), grid16.laplacian(u)
    calls = _counted_laplacians(monkeypatch)
    state = State(grid16, f, u, 0.5)
    assert np.array_equal(state.lap_u, lap_u)
    assert np.array_equal(state.lap_f, lap_f)
    assert calls == [(3, 16, 16)]


def test_state_at_shares_the_laplacians_only_for_an_unchanged_u(monkeypatch, grid16):
    # The same u moves with its pair, shared and not recomputed; a u that
    # differs in one ulp takes exactly one stacked transform of its own.
    rng = np.random.default_rng(74)
    f = random_band_limited(grid16, rng, kmax=3)
    u = _trace_projected(random_band_limited(grid16, rng, kmax=3)[None])
    bumped = u.copy()
    bumped[0, 3, 5] = np.nextafter(bumped[0, 3, 5], np.inf)
    lap_bumped = grid16.laplacian(bumped)
    state = State(grid16, f, u, 0.5)
    lap_f, lap_u = state.lap_f, state.lap_u
    calls = _counted_laplacians(monkeypatch)
    same = state.at(0.25, u.copy())
    assert same.t == 0.25
    assert same.lap_f is lap_f and same.lap_u is lap_u
    assert calls == []
    moved = state.at(0.25, bumped)
    assert moved.lap_f is not lap_f
    assert np.array_equal(moved.lap_f, lap_f)
    assert np.array_equal(moved.lap_u, lap_bumped)
    assert calls == [(3, 16, 16)]


def test_apply_linearization_rank_two_matches_full_transform(grid16):
    # At rank 2 lap(du_2) is taken as -lap(du_1), which is bit for bit the
    # transform of du_2 = -du_1.  dR_f is formed from the linearization's
    # coefficients D = sum_i 1/M_i, lambda + a with a = sum_i w_i / M_i, and
    # e^f / M_i; it agrees with the sum over the M_i to rounding.
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid16)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(61)
    df = random_band_limited(grid16, rng, kmax=3)
    du1 = random_band_limited(grid16, rng, kmax=3)
    lin = linearize(state, curv, params)
    dr_f, dr_u = apply_linearization(lin, Perturbation(df, np.stack([du1, -du1])))
    lap = grid16.laplacian(np.stack([df, du1, -du1]))
    ef_u_df = lin.ef_u * df
    ef_du = lin.ef * np.stack([du1, -du1])
    assert np.array_equal(dr_u, lap[1:] - ef_u_df - ef_du)
    inv_m = 1.0 / lin.m
    d = np.sum(inv_m, axis=0)
    lam_a = params.lam + np.sum(lin.ef_u * inv_m, axis=0)
    assert np.array_equal(
        dr_f, d * lap[0] - lam_a * df - np.sum(lin.ef * inv_m * np.stack([du1, -du1]), axis=0)
    )
    dm = lap[:1] - ef_u_df - ef_du
    summed = np.sum(dm * inv_m, axis=0) - params.lam * df
    assert np.max(np.abs(dr_f - summed)) <= 1e-13 * np.max(np.abs(summed))
