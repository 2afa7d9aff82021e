"""Elliptic building blocks and the nonlinear solvers.

Four layers, bottom up:

* ``solve_helmholtz``: the linear kernel (lap - c) w = rhs with c > 0,
  solved spectrally when c is constant and by preconditioned conjugate
  gradients otherwise.  Everything else reduces to it.
* ``solve_t0``: the explicit construction of the starting solution at t=0
  (f = 0, twist logs from one Helmholtz solve per summand) together with the
  offset alpha0 and the reference density a0 it determines.
* ``u_step`` / ``v_step``: the two halves of the fixed-point map whose zeros
  are solutions; U resolves the determinant equation for the potential at
  frozen twist (an auxiliary 0 <= s <= 1 continuation from the incoming
  potential, tried in one step to s = 1 first and halved only on failure),
  V resolves the trace-free equations at frozen potential (r-1 Helmholtz
  solves, the last twist log rebuilt from the trace constraint).
  ``picard_step`` applies both and reports the gap.
* ``newton_at_t``: damped Newton at fixed t on the reduced unknowns
  (f, u_1..u_{r-1}), with u_r eliminated so det g = 1 holds exactly.  The
  linear systems use the exact Frechet derivative and a constant-coefficient
  spectral preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, gmres

from .geometry import Grid, ScalarField
from .model import (
    ConeViolationError,
    CurvatureData,
    DemaillyParams,
    Perturbation,
    State,
    apply_linearization,
    cone_margin,
    cone_shift,
    l_inverse,
    linearize,
    residual,
    residual_sup,
)


class HelmholtzError(RuntimeError):
    """Inner linear solve failed to reach its residual target."""


class PathStallError(RuntimeError):
    """The auxiliary s-continuation could not reach s=1 above the step floor."""


class NoDescentError(RuntimeError):
    """Backtracking hit its floor without a residual decrease."""


class MaxIterationsError(RuntimeError):
    """Newton used its iteration budget without converging."""


_BACKTRACK_FLOOR = 2.0**-20
_MAX_F_STEP = 5.0  # |df| clamp per damped step, guards e^(lambda f) overflow


def solve_helmholtz(grid: Grid, c, rhs: ScalarField) -> ScalarField:
    """Solve lap(w) - c*w = rhs for strictly positive c.

    ``c`` may be a scalar or a field.  The operator is symmetric negative
    definite, so the solution is unique.  The result satisfies the equation
    with sup-norm residual at most 1e-11 * (|rhs| + |w|); failure to reach
    that target raises HelmholtzError.
    """
    rhs = grid.bind(rhs)
    c_arr = np.asarray(c, dtype=float)
    if c_arr.ndim == 0:
        c_arr = np.full((grid.n, grid.n), float(c_arr))
    else:
        c_arr = grid.bind(c_arr)
    c_min = float(np.min(c_arr))
    if c_min <= 0.0:
        raise ValueError(f"coefficient must be strictly positive, min is {c_min}")

    mult = grid.laplacian_multiplier
    if float(np.ptp(c_arr)) == 0.0:
        return grid.irfft2(grid.rfft2(rhs) / (mult - c_min))

    n = grid.n
    nn = n * n
    c_flat = c_arr.ravel()
    symbol = float(np.mean(c_arr)) - mult

    def matvec(x):
        v = x.reshape(n, n)
        return (c_flat * x) - grid.laplacian(v).ravel()

    def precond(y):
        return grid.irfft2(grid.rfft2(y.reshape(n, n)) / symbol).ravel()

    op = LinearOperator((nn, nn), matvec=matvec, dtype=float)
    prec = LinearOperator((nn, nn), matvec=precond, dtype=float)
    b = -rhs.ravel()
    x = np.zeros(nn)
    for _ in range(5):
        dx, _ = cg(op, b - matvec(x), rtol=1e-13, atol=0.0, maxiter=400, M=prec)
        x = x + dx
        w = x.reshape(n, n)
        res = grid.laplacian(w) - c_arr * w - rhs
        target = 1e-11 * (grid.sup(rhs) + grid.sup(w))
        if grid.sup(res) <= max(target, 1e-300):
            return w
    raise HelmholtzError(
        f"residual {grid.sup(res):.3e} above target {target:.3e} after refinement"
    )


def solve_t0(
    curv: CurvatureData, params: DemaillyParams
) -> tuple[State, DemaillyParams]:
    """Construct the exact t=0 solution and finish the parameter block.

    Sets f = 0 and solves (lap - 1) u_i = s_i per summand; the twist logs sum
    to zero automatically because the s_i do and the operator is injective
    (asserted).  The offset is alpha0 = max(requested, 2, 2 max_i |u_i|) so
    the cone factors 1/r + alpha0 - u_i stay positive with margin, and the
    reference density is their product.  The returned state has residual at
    most 1e-10 (verified).
    """
    grid = curv.grid
    r = curv.rank
    if params.lam <= r:
        raise ValueError(f"lambda must exceed the rank ({params.lam} <= {r})")
    u0 = np.stack([solve_helmholtz(grid, 1.0, curv.s[i]) for i in range(r)])
    trace = float(np.max(np.abs(np.sum(u0, axis=0))))
    if trace > 1e-10:
        raise RuntimeError(f"t=0 twist logs fail the trace constraint: {trace:.3e}")
    requested = params.alpha0 if params.alpha0 is not None else 0.0
    alpha0 = max(float(requested), 2.0, 2.0 * float(np.max(np.abs(u0))))
    state = State(grid, np.zeros((grid.n, grid.n)), u0, 0.0)
    a0 = np.prod(cone_shift(state.f, u0, 0.0, alpha0), axis=0)
    if float(np.min(a0)) <= 0.0:
        raise RuntimeError("reference density came out nonpositive")
    floor = replace(params, alpha0=alpha0).cone_floor_value
    filled = replace(params, alpha0=alpha0, a0=a0, cone_floor=floor)
    r_f, r_u = residual(state, curv, filled)
    res = residual_sup(r_f, r_u)
    if res > 1e-10:
        raise RuntimeError(f"t=0 construction residual {res:.3e} exceeds 1e-10")
    return state, filled


def _project_trace(u: np.ndarray) -> np.ndarray:
    """Rebuild the last twist log from the others so det g = 1 exactly."""
    out = np.array(u, dtype=float, copy=True)
    if out.shape[0] == 1:
        out[0] = 0.0
    else:
        out[-1] = -np.sum(out[:-1], axis=0)
    return out


def v_step(f: ScalarField, curv: CurvatureData) -> np.ndarray:
    """Resolve the trace-free equations at frozen potential.

    Returns the unique twist logs with lap(u_i) = s_i + e^f u_i.  Their sum
    vanishes because the s_i sum to zero, so only u_1..u_{r-1} are solved
    for, one Helmholtz solve each, and u_r = -(u_1 + ... + u_{r-1}) is
    rebuilt from them (zero at rank one, where s_1 = 0).
    """
    grid = curv.grid
    c = np.exp(grid.bind(f))
    u = np.zeros(curv.s.shape)
    for i in range(curv.rank - 1):
        u[i] = solve_helmholtz(grid, c, curv.s[i])
    return _project_trace(u)


def _l_inverse_slope(v: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    # d/dU of l_inverse(a, e^(lam U) a0) at v: lam / sum_i 1/(v + a_i);
    # l_inverse keeps every factor v + a_i positive.
    return lam / np.sum(1.0 / (v + a), axis=0)


_LOG_ETA_LIMIT = 700.0  # e^x is a normal, finite float for |x| below this


def u_step(
    f_in: ScalarField,
    u: np.ndarray,
    t: float,
    curv: CurvatureData,
    params: DemaillyParams,
) -> ScalarField:
    """Resolve the determinant equation for the potential at frozen twist.

    Solves lap(U) = L^{-1}_A(e^(lambda U) a0) with the shifts
    A_i = -e^{f_in} u_i + 1/r + alpha0 (1 - t).  Its right side strictly
    increases in U, so by the maximum principle the solution is unique and
    the auxiliary path

        lap(U) = (1-s) (U - f_in + lap(f_in)) + s L^{-1}_A(e^(lambda U) a0),

    whose exact solution at s = 0 is U = f_in, only globalizes the solve.
    The first s-step goes straight to s = 1 and a failed one is halved.  An
    inner Newton trial whose density e^(lambda U) a0 leaves the floating-point
    range is backtracked, and an inner solve that fails (no decrease, a
    coefficient that is not finite and positive, or no convergence in 30
    iterations) fails the s-step.  The pointwise admissibility
    lap(U) + A_i > 0 is asserted after every accepted s-step.  Raises
    PathStallError when the s-step falls below 1e-4.
    """
    grid = curv.grid
    log_a0 = np.log(params.require_a0())
    lam = params.lam
    f_in = grid.bind(f_in)
    a = cone_shift(f_in, u, t, params.alpha0)
    lap_f_in = grid.laplacian(f_in)

    def path_residual(cand: np.ndarray, s: float):
        log_eta = lam * cand + log_a0
        if not np.all(np.abs(log_eta) < _LOG_ETA_LIMIT):
            return None, None
        v = l_inverse(a, np.exp(log_eta))
        rho = (
            grid.laplacian(cand)
            - (1.0 - s) * (cand - f_in + lap_f_in)
            - s * v
        )
        return rho, v

    def inner_newton(cand: np.ndarray, s: float):
        rho, v = path_residual(cand, s)
        if rho is None:
            return cand, v, False
        res = grid.sup(rho)
        for _ in range(30):
            if res <= params.newton_tol:
                return cand, v, True
            coeff = (1.0 - s) + s * _l_inverse_slope(v, a, lam)
            if not (np.all(np.isfinite(coeff)) and np.min(coeff) > 0.0):
                return cand, v, False
            delta = solve_helmholtz(grid, coeff, -rho)
            top = grid.sup(delta)
            if top > _MAX_F_STEP:
                delta *= _MAX_F_STEP / top
            step = 1.0
            while step >= _BACKTRACK_FLOOR:
                trial = cand + step * delta
                rho_t, v_t = path_residual(trial, s)
                res_t = np.inf if rho_t is None else grid.sup(rho_t)
                if res_t < res:
                    cand, rho, v, res = trial, rho_t, v_t, res_t
                    break
                step *= 0.5
            else:
                return cand, v, False
        return cand, v, res <= params.newton_tol

    cand = f_in.copy()
    s = 0.0
    ds = 1.0
    while s < 1.0:
        s_try = min(s + ds, 1.0)
        trial, v, ok = inner_newton(cand, s_try)
        if ok:
            # Admissibility of the shifted-determinant argument along the path.
            gap = float(np.min(grid.laplacian(trial)[None, :, :] + a))
            ok = gap > 0.0
        if ok:
            cand, s = trial, s_try
        else:
            ds *= 0.5
            if ds < 1e-4:
                raise PathStallError(
                    f"auxiliary continuation stalled at s={s:.4f} (t={t})"
                )
    return cand


def picard_step(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> tuple[State, float]:
    """One application of the fixed-point map: replace (f, u) by (U, V).

    Returns the new state at the same t and the sup gap |(f, u) - (U, V)|.
    A state solves the system at its t exactly when the gap vanishes.
    """
    new_f = u_step(state.f, state.u, state.t, curv, params)
    new_u = v_step(state.f, curv)
    gap = max(
        float(np.max(np.abs(state.f - new_f))),
        float(np.max(np.abs(state.u - new_u))),
    )
    return State(state.grid, new_f, new_u, state.t), gap


@dataclass
class NewtonReport:
    """Convergence record of one damped Newton solve."""

    iterations: int
    final_residual: float
    damping: list[float]
    cone_margins: list[float]
    residual_history: list[float]
    converged: bool

    def summary(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "converged": self.converged,
            "damping": list(self.damping),
            "cone_margins": list(self.cone_margins),
            "residual_history": list(self.residual_history),
        }


def _newton_direction(state, curv, params, r_f, r_u, forcing):
    lin = linearize(state, curv, params)
    grid = state.grid
    n = grid.n
    nn = n * n
    r = state.rank
    nu = r - 1

    def unpack(z):
        df = z[:nn].reshape(n, n)
        if nu:
            du_part = z[nn:].reshape(nu, n, n)
            du = np.concatenate([du_part, -np.sum(du_part, axis=0)[None]], axis=0)
        else:
            du = np.zeros((1, n, n))
        return df, du

    def matvec(z):
        df, du = unpack(z)
        dr_f, dr_u = apply_linearization(lin, Perturbation(df, du))
        if nu:
            return np.concatenate([dr_f.ravel(), dr_u[:nu].ravel()])
        return dr_f.ravel()

    # Constant-coefficient symbols: sigma lap - lambda for the potential
    # block, lap - 1 for each twist block; one stacked transform per call.
    sigma = float(np.sum(1.0 / np.mean(lin.m, axis=(1, 2))))
    mult = grid.laplacian_multiplier
    symbols = np.stack([sigma * mult - params.lam] + [mult - 1.0] * nu)

    def precond(y):
        blocks = y.reshape(1 + nu, n, n)
        return grid.irfft2(grid.rfft2(blocks) / symbols).ravel()

    size = (1 + nu) * nn
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    prec = LinearOperator((size, size), matvec=precond, dtype=float)
    b = -r_f.ravel() if not nu else -np.concatenate([r_f.ravel(), r_u[:nu].ravel()])
    rtol = max(min(1e-3, forcing), 1e-13)
    z, _ = gmres(op, b, rtol=rtol, atol=0.0, restart=80, maxiter=5, M=prec)
    return unpack(z)


def newton_at_t(
    initial: State, t: float, curv: CurvatureData, params: DemaillyParams
) -> tuple[State, NewtonReport]:
    """Damped Newton at fixed t on the reduced unknowns (f, u_1..u_{r-1}).

    The last twist log is eliminated through the trace constraint, so every
    iterate has det g = 1 exactly.  Steps are halved until the cone margin
    stays at or above the floor and the residual decreases; the potential
    update is clamped to sup norm 5 per damped step.  Converged means the
    residual sup norm fell to params.newton_tol within params.max_iters.

    Raises ConeViolationError (inadmissible initial state at this t),
    NoDescentError (backtracking floor), or MaxIterationsError.
    """
    grid = initial.grid
    state = State(grid, initial.f, _project_trace(initial.u), t)
    floor = params.cone_floor_value
    margin = cone_margin(state, params)
    if margin < floor:
        raise ConeViolationError(
            f"initial cone margin {margin:.3e} below floor {floor:.3e} at t={t}"
        )
    r_f, r_u = residual(state, curv, params)
    res = residual_sup(r_f, r_u)
    damping: list[float] = []
    margins: list[float] = [margin]
    history: list[float] = [res]
    for it in range(params.max_iters + 1):
        if res <= params.newton_tol:
            return state, NewtonReport(it, res, damping, margins, history, True)
        if it == params.max_iters:
            break
        df_step, du_step = _newton_direction(state, curv, params, r_f, r_u, res)
        top = grid.sup(df_step)
        if top > _MAX_F_STEP:
            scale = _MAX_F_STEP / top
            df_step = df_step * scale
            du_step = du_step * scale
        alpha = 1.0
        accepted = None
        while alpha >= _BACKTRACK_FLOOR:
            trial = State(
                grid,
                state.f + alpha * df_step,
                _project_trace(state.u + alpha * du_step),
                t,
            )
            m_t = cone_margin(trial, params)
            if m_t >= floor:
                try:
                    rf_t, ru_t = residual(trial, curv, params)
                except ConeViolationError:
                    rf_t = None
                if rf_t is not None:
                    res_t = residual_sup(rf_t, ru_t)
                    if res_t < res:
                        accepted = (trial, m_t, rf_t, ru_t, res_t, alpha)
                        break
            alpha *= 0.5
        if accepted is None:
            raise NoDescentError(
                f"no residual decrease above the backtracking floor at t={t}"
            )
        state, margin, r_f, r_u, res, alpha = accepted
        damping.append(alpha)
        margins.append(margin)
        history.append(res)
    raise MaxIterationsError(
        f"residual {res:.3e} after {params.max_iters} iterations at t={t}"
    )
