"""Elliptic building blocks and the nonlinear solvers.

Four layers, bottom up:

* ``solve_helmholtz``: the linear kernel (lap - c) w = rhs with c > 0,
  solved spectrally when c is constant and by conjugate gradients
  (``krylov.cg``, preconditioned by the mean coefficient) otherwise: by
  default by iterative refinement to a checked sup residual of 1e-11
  (|rhs| + |w|), from zero or, given a start, until also within about
  0.1% of the step from it; or, given a relative tolerance ``rtol``, in
  one CG solve to that tolerance.  Everything else reduces to it.
* ``solve_t0``: the explicit construction of the starting solution at t=0
  (f = 0, twist logs from ``v_step`` at f = 0) together with the offset
  alpha0 and the reference density a0 it determines.
* ``u_step`` / ``v_step``: the two halves of the fixed-point map whose zeros
  are solutions; U resolves the determinant equation for the potential at
  frozen twist (damped Newton in the density v = lap U, where U is closed
  form and admissibility is the domain of a logarithm, after a check that
  an admissible density can exist, started from lap(f_in) raised into the
  domain or from f_in shifted by the closed-form constant U takes where
  lap(U) = 0; each correction solved inexactly to the forcing tolerance
  of ``newton_at_t``, floored at a tenth of the residual at which U stops
  over the current one; ConeViolationError, NoDescentError,
  MaxIterationsError or HelmholtzError when it cannot be solved),
  V resolves the trace-free equations at frozen potential (r-1 Helmholtz
  solves, the last twist log rebuilt from the trace constraint).
  ``picard_step`` applies U, then V at the new potential, and reports the
  gap; a zero gap means U(f, u) = f and V(U) = u, which is U(f, u) = f and
  V(f) = u, so the fixed points are exactly the solutions.  Its U step
  stops once the next correction would move U by at most 1% of the step
  U - f_in (Eisenstat & Walker 1996): that correction solves
  (lap - slope) w = lambda F with slope > 0, so by the maximum principle
  it moves U by at most sup|F / slope|.  Its V step refines each row
  from the current twist and stops within about 0.1% of its step, a
  bound the maximum principle gives the same way; both bounds hold about,
  as the spectral Laplacian keeps the maximum principle only
  approximately, on well-resolved fields.  At a fixed point both steps
  vanish and only the residual tests can stop.  ``picard_solve``
  repeats the step until the gap is small.
* ``newton_at_t``: damped Newton at fixed t on the reduced unknowns
  (f, u_1..u_{r-1}), with u_r eliminated so det g = 1 holds exactly.  The
  linear systems use the exact Frechet derivative, solved by restarted
  GMRES (``krylov.gmres``) to the forcing tolerance min(3e-4, residual)
  (``_forcing``, floored at 1e-13);
  GMRES applies the Jacobian once per inner step and once per restart, and
  ``NewtonReport.krylov_matvecs`` counts those applications.
  The preconditioner is the exact inverse of the Jacobian frozen at the
  grid means of M_i, e^f and e^f u_i, the coupling between f and u
  included: per Fourier mode an arrow matrix, inverted in closed form
  through its Schur complement (``_mean_jacobian_symbols``), so on constant
  data every GMRES solve takes one inner step and one Jacobian
  application.  A direction whose GMRES solve misses its tolerance is
  still tried and is counted in ``NewtonReport.krylov_failures``.  Full
  steps are additive in (f, u); a rejected full step is damped along the
  straight line in (f, w) with w_i = e^f u_i, where every cone factor M_i
  is affine, so a step toward the cone moves each M_i along a straight line.  The first
  iteration also tries the full step in (f, w) and keeps it when it
  converges, as it does on constant data, where the system is affine in
  (f, w) along the branch.  Each state is evaluated once: its cone factors
  give its margin, its residuals and the linearization of the next direction.
  The corrector is two-grid, as ``newton_at_t`` tells.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .geometry import Grid, ScalarField, _spectral_pad, _spectral_truncate
from .krylov import LinearMap, cg, gmres
from .model import (
    ConeViolationError,
    CurvatureData,
    DemaillyParams,
    Evaluated,
    Perturbation,
    State,
    _evaluate,
    _with_trace_row,
    apply_linearization,
    cone_shift,
    l_inverse,
    residual,
    residual_sup,
    state_distance,
)


# A started ``solve_helmholtz`` stops within about 0.1% of its step.  For
# ``picard_step``'s V step 1e-2 and 2e-3 each cost one of 20 drawn starts of
# the README case at n=64 a sixth Picard step, and 5e-4 took more matvecs.
_HELMHOLTZ_STEP_RTOL = 1e-3


class HelmholtzError(RuntimeError):
    """Inner linear solve failed to reach its residual target."""


class NoDescentError(RuntimeError):
    """Backtracking hit its floor without a residual decrease."""


class MaxIterationsError(RuntimeError):
    """Newton used its iteration budget without converging."""


_BACKTRACK_FLOOR = 2.0**-20
_MAX_ITERS = 50  # Newton iteration budget per solve
_MAX_F_STEP = 5.0  # |df| clamp per damped step, guards e^(lambda f) overflow


def _backtrack(trial_at, res: float):
    """The first trial of a halving backtrack whose residual falls below ``res``.

    ``trial_at(alpha)`` is tried at alpha = 1, 1/2, 1/4, ... down to
    _BACKTRACK_FLOOR; it returns a record whose ``res`` is the trial's
    residual sup, or None for an inadmissible trial.  Returns (trial,
    alpha) for the accepted trial, or None when no trial above the floor
    decreases the residual.
    """
    alpha = 1.0
    while alpha >= _BACKTRACK_FLOOR:
        trial = trial_at(alpha)
        if trial is not None and trial.res < res:
            return trial, alpha
        alpha *= 0.5
    return None


def solve_helmholtz(grid: Grid, c, rhs: ScalarField, *, rtol=None, start=None) -> ScalarField:
    """Solve lap(w) - c*w = rhs for strictly positive c.

    ``c`` may be a scalar or a field.  The operator is symmetric negative
    definite, so the solution is unique.  A constant coefficient is solved
    spectrally, to roundoff, whatever ``rtol`` and ``start`` are.

    By default (``rtol=None``) the result satisfies the equation with
    sup-norm residual at most 1e-11 * (|rhs| + |w|); failure to reach that
    target raises HelmholtzError.  A variable coefficient is then solved by
    iterative refinement from w = 0, or from ``start`` when given: each of
    up to 5 rounds solves for the correction by CG to a relative tolerance
    of 1e-13, preconditioned by the mean coefficient, and then takes the
    true residual r = lap(w) - c*w - rhs once, both to check w and as the
    next round's right side.  A ``start`` that meets the target is
    returned with no CG solve.  Refinement stops early, raising
    HelmholtzError, as soon as a round fails to halve the sup residual of
    the round before.

    Given a ``start``, each round's CG runs to the relative tolerance
    _HELMHOLTZ_STEP_RTOL (1e-3) instead, and refinement also stops once
    sup|r / c| <= _HELMHOLTZ_STEP_RTOL sup|w - start|.  The error e of w
    solves (lap - c) e = -r, so by the maximum principle sup|e| <=
    sup|r / c|, and w is within about 0.1% of its step from ``start`` of
    the exact solution: about, because the spectral Laplacian keeps the
    maximum principle only approximately, on well-resolved fields.  Where
    the step vanishes only the target stops the refinement.

    With ``rtol`` given, finite and in (0, 1), a variable coefficient is
    solved inexactly: one CG solve from zero with the same preconditioner
    to |rhs - (lap - c) w| <= rtol |rhs| in the 2-norm, as CG's recurrence
    residual measures it, with no refinement and no Laplacian to verify.
    It takes no ``start``.  A solve that misses within 400 iterations
    raises HelmholtzError.
    """
    if rtol is not None and not (np.isfinite(rtol) and 0.0 < rtol < 1.0):
        raise ValueError(f"rtol must be finite and in (0, 1), got {rtol}")
    if start is not None and rtol is not None:
        raise ValueError("an inexact solve (rtol given) takes no start")
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

    op = LinearMap(nn, matvec)
    prec = LinearMap(nn, precond)
    b = -rhs.ravel()
    if rtol is not None:
        x, info = cg(op, b, rtol=rtol, maxiter=400, M=prec)
        if info != 0:
            raise HelmholtzError(
                f"CG missed relative tolerance {rtol:.1e} in 400 iterations"
            )
        return x.reshape(n, n)
    # From x = 0 the residual is b, so the first round skips the check.  The
    # residual lap(w) - c*w - rhs is b - matvec(x) bit for bit, so it is also
    # the next round's right side.  A started solve's CG runs to the same
    # relative tolerance as its step test.
    x = np.zeros(nn) if start is None else grid.bind(start).flatten()
    step_rtol = 1e-13 if start is None else _HELMHOLTZ_STEP_RTOL
    r = b
    res_prev = np.inf
    for rounds in range(6):
        if rounds or start is not None:
            w = x.reshape(n, n)
            resid = grid.laplacian(w) - c_arr * w - rhs
            res = grid.sup(resid)
            target = 1e-11 * (grid.sup(rhs) + grid.sup(w))
            if res <= max(target, 1e-300):
                return w
            if start is not None and grid.sup(resid / c_arr) <= step_rtol * grid.sup(w - start):
                return w
            if res > 0.5 * res_prev or rounds == 5:
                break
            res_prev = res
            r = resid.ravel()
        dx, _ = cg(op, r, rtol=step_rtol, maxiter=400, M=prec)
        x = x + dx
    raise HelmholtzError(
        f"residual {res:.3e} above target {target:.3e} after refinement"
    )


def _t0_construction(
    curv: CurvatureData, params: DemaillyParams
) -> tuple[State, DemaillyParams]:
    """The t=0 state and the parameter block it fixes, without a residual check.

    See ``solve_t0``, which adds the check; ``cli.run_verify`` needs only
    the parameter block.
    """
    grid = curv.grid
    r = curv.rank
    if params.lam <= r:
        raise ValueError(f"lambda must exceed the rank ({params.lam} <= {r})")
    f0 = np.zeros((grid.n, grid.n))
    u0 = v_step(f0, curv)
    requested = params.alpha0 if params.alpha0 is not None else 0.0
    alpha0 = max(float(requested), 2.0, 2.0 * float(np.max(np.abs(u0))))
    # w = e^0 u0 = u0.
    a0 = np.prod(cone_shift(u0, 0.0, alpha0), axis=0)
    floor = replace(params, alpha0=alpha0).cone_floor_value
    filled = replace(params, alpha0=alpha0, a0=a0, cone_floor=floor)
    return State(grid, f0, u0, 0.0), filled


def solve_t0(
    curv: CurvatureData, params: DemaillyParams
) -> tuple[State, DemaillyParams]:
    """Construct the exact t=0 solution and finish the parameter block.

    Sets f = 0 and takes the twist logs from ``v_step`` at f = 0: they
    solve (lap - 1) u_i = s_i, u_r rebuilt as -(u_1 + ... + u_{r-1}), so
    the state is trace-projected bit for bit, like every state Newton
    returns, and Newton from it keeps its Laplacians.  The offset is
    alpha0 = max(requested, 2, 2 max_i |u_i|) so the cone factors
    1/r + alpha0 - u_i stay positive with margin, and the reference density
    is their product.  The returned state has residual at most 1e-10,
    verified on every row, so trace-free parts that do not cancel, which
    leave the rebuilt row unsolved, raise RuntimeError.
    """
    state, filled = _t0_construction(curv, params)
    r_f, r_u = residual(state, curv, filled)
    res = residual_sup(r_f, r_u)
    if res > 1e-10:
        raise RuntimeError(f"t=0 construction residual {res:.3e} exceeds 1e-10")
    return state, filled


def v_step(f: ScalarField, curv: CurvatureData, *, start=None) -> np.ndarray:
    """Resolve the trace-free equations at frozen potential.

    Returns the unique twist logs with lap(u_i) = s_i + e^f u_i.  Their sum
    vanishes because the s_i sum to zero, so only u_1..u_{r-1} are solved
    for, one Helmholtz solve each, and u_r = -(u_1 + ... + u_{r-1}) is
    rebuilt from them (zero at rank one, where s_1 = 0).

    Given the twist logs ``start``, each row's solve refines from its row
    of it and stops once that row is within about 0.1% of its step from
    ``start`` of the exact row (``solve_helmholtz`` with a start).  By
    default each row is solved from zero to the residual target.  A
    constant potential is solved spectrally either way.
    """
    grid = curv.grid
    c = np.exp(grid.bind(f))
    u = np.zeros(curv.s.shape)
    for i in range(curv.rank - 1):
        row = None if start is None else start[i]
        u[i] = solve_helmholtz(grid, c, curv.s[i], start=row)
    return _with_trace_row(u[:-1])


def _l_inverse_slope(v: np.ndarray, a: np.ndarray, lam: float) -> np.ndarray:
    # d/dU of l_inverse(a, e^(lam U) a0) at v: lam / sum_i 1/(v + a_i);
    # l_inverse keeps every factor v + a_i positive.
    return lam / np.sum(1.0 / (v + a), axis=0)


_LOG_ETA_LIMIT = 700.0  # e^x is a normal, finite float for |x| below this


def _in_float_range(log_eta: np.ndarray) -> bool:
    return bool(np.all(np.abs(log_eta) < _LOG_ETA_LIMIT))


def _forcing(res: float, stop: float = 0.0) -> float:
    """Relative tolerance of the linear solve of a Newton step at residual sup ``res``.

    The inexact-Newton rule (Dembo, Eisenstat & Steihaug 1982): the inner
    tolerance follows the nonlinear residual, so the last steps converge
    quadratically, and is capped at 3e-4: at 1e-3 the last residual of an
    ample march could land near newton_tol and cost a fifth iteration.
    Given the residual ``stop`` at which the Newton loop will stop, the
    tolerance is floored at 0.1 stop / res, the safeguard against
    oversolving (Eisenstat & Walker 1996; Kelley 1995, section 6.3): the
    solve then leaves a linear residual of about a tenth of ``stop``, and
    no tighter solve helps the stopping test pass.  ``newton_at_t`` passes
    no ``stop``.
    """
    return max(min(3e-4, res), 0.1 * stop / res, 1e-13)


class _UIterate(NamedTuple):
    """An iterate of ``u_step``'s Newton: the density, its potential and F."""

    v: np.ndarray  # the density, lap(U) at a solution
    U: np.ndarray  # (sum_i log(v + A_i) - log a0) / lambda
    F: np.ndarray  # v - lap(U)
    res: float  # sup |F|


def u_step(
    f_in: ScalarField,
    u: np.ndarray,
    t: float,
    curv: CurvatureData,
    params: DemaillyParams,
    *,
    step_rtol: float = 0.0,
) -> ScalarField:
    """Resolve the determinant equation for the potential at frozen twist.

    Solves lap(U) = L^{-1}_A(e^(lambda U) a0) with the shifts
    A_i = -e^{f_in} u_i + 1/r + alpha0 (1 - t).  Its right side strictly
    increases in U, so by the maximum principle the solution is unique.
    The unknown is the density v = lap(U): then e^(lambda U) a0 is
    prod_i (v + A_i), U(v) = (sum_i log(v + A_i) - log a0) / lambda is
    closed form, mean included, and damped Newton solves

        F(v) = v - lap(U(v)) = 0

    on its domain v + A_i > 0, the admissibility of the shifted
    determinant.  Every mean-zero field is a Laplacian, so an admissible v
    exists only if mean_x max_i(-A_i) < 0; ConeViolationError is raised
    otherwise, before any Helmholtz solve.

    Newton starts from the smaller sup|F| of two fields: lap(f_in), raised
    to floor - mean(floor)/2 where it is inadmissible (floor =
    max_i(-A_i)), and the density L^{-1}_A(e^(lambda U) a0) at the anchor
    U = f_in + c, whose Laplacian is that of f_in.  The shift
    c = mean(U(0) - f_in), U(0) = (sum_i log A_i - log a0) / lambda the
    potential of the zero density, is the one U takes where lap(U) = 0, as
    on constant data; c = 0 unless every A_i is positive.  With
    D = sum_i 1/(v + A_i), a correction solves (lap - lambda/D) w =
    lambda F, an inexact Helmholtz solve to the relative tolerance
    ``_forcing(sup|F|, stop)``: the rule ``newton_at_t`` applies to its
    GMRES solves, floored at 0.1 stop / sup|F| against oversolving
    (Eisenstat & Walker 1996; Kelley 1995, section 6.3), with stop the
    residual at which Newton stops (below).  It moves U by w/lambda and v
    by w/D.  The full step is tried additively in U, clamped to
    _MAX_F_STEP, with v = L^{-1}_A(e^(lambda U) a0) when that density is in
    the floating-point range; when it does not lower sup|F| the step is
    backtracked additively in v, inside the domain.  Raises NoDescentError when backtracking finds no decrease,
    MaxIterationsError after _MAX_ITERS corrections, and HelmholtzError
    when a correction misses its tolerance.

    Newton stops at sup|F| <= newton_tol, or, given ``step_rtol`` > 0, once
    sup|F / slope| <= step_rtol sup|U - f_in|, slope = lambda/D the
    coefficient of the next correction.  That correction would move U by
    w/lambda, and at the maximum of |w| the equation gives
    sup|w/lambda| <= sup|F / slope|, so U is within about step_rtol
    sup|U - f_in| of the exact U.  The default 0 stops only at newton_tol.
    As sup|F / slope| <= sup|F| / min(slope), both tests hold once sup|F|
    <= stop = max(newton_tol, step_rtol sup|U - f_in| min(slope)), and a
    correction is taken only above it, so its floor stays below 0.1.  A
    ``step_rtol`` that is not finite or not in [0, 1) raises ValueError.
    """
    if not 0.0 <= step_rtol < 1.0:
        raise ValueError(f"step_rtol must be finite and in [0, 1), got {step_rtol}")
    grid = curv.grid
    log_a0 = params.log_a0
    lam = params.lam
    f_in = grid.bind(f_in)
    a = cone_shift(np.exp(f_in) * u, t, params.alpha0)
    floor = np.max(-a, axis=0)
    floor_mean = float(np.mean(floor))
    if not floor_mean < 0.0:
        raise ConeViolationError(
            f"no admissible density: mean of max_i(-A_i) is {floor_mean:.3e} (t={t})"
        )
    lap_f_in = grid.laplacian(f_in)

    def iterate(v: np.ndarray, U: np.ndarray, lap_U: np.ndarray) -> _UIterate:
        F = v - lap_U
        return _UIterate(v, U, F, grid.sup(F))

    def at_density(v: np.ndarray) -> _UIterate | None:
        """The iterate at v, or None when v leaves the domain."""
        m = v + a
        if not np.min(m) > 0.0:
            return None
        U = (np.sum(np.log(m), axis=0) - log_a0) / lam
        return iterate(v, U, grid.laplacian(U))

    def at_potential(U: np.ndarray, lap_U=None) -> _UIterate | None:
        """The iterate at U, or None when e^(lambda U) a0 is out of range.

        ``lap_U`` is lap(U) when the caller has it; it is computed otherwise.
        """
        log_eta = lam * U + log_a0
        if not _in_float_range(log_eta):
            return None
        v = l_inverse(a, np.exp(log_eta))
        return iterate(v, U, grid.laplacian(U) if lap_U is None else lap_U)

    raised = at_density(np.where(lap_f_in > floor, lap_f_in, floor - 0.5 * floor_mean))
    c = 0.0
    if np.min(a) > 0.0:
        c = float(np.mean((np.sum(np.log(a), axis=0) - log_a0) / lam - f_in))
    anchor = at_potential(f_in + c, lap_f_in)
    point = raised if anchor is None or raised.res < anchor.res else anchor
    corrections = 0
    while not params.converged(point.res):
        slope = _l_inverse_slope(point.v, a, lam)
        # The next correction would move U by at most sup|F / slope|.
        step_tie = step_rtol * grid.sup(point.U - f_in)
        if grid.sup(point.F / slope) <= step_tie:
            break
        if corrections == _MAX_ITERS:
            raise MaxIterationsError(
                f"u_step: residual {point.res:.3e} after {_MAX_ITERS} corrections (t={t})"
            )
        corrections += 1
        # Both stopping tests hold once sup|F| <= stop, and point.res > stop.
        stop = max(params.newton_tol, step_tie * np.min(slope))
        w = solve_helmholtz(grid, slope, lam * point.F, rtol=_forcing(point.res, stop))
        dU = w / lam
        top = grid.sup(dU)
        if top > _MAX_F_STEP:
            dU *= _MAX_F_STEP / top
        trial = at_potential(point.U + dU)
        if trial is None or not trial.res < point.res:
            dv = w * slope / lam
            accepted = _backtrack(lambda alpha: at_density(point.v + alpha * dv), point.res)
            if accepted is None:
                raise NoDescentError(
                    f"u_step: no decrease from residual {point.res:.3e} (t={t})"
                )
            trial, _ = accepted
        point = trial
    return point.U


_PICARD_STEP_RTOL = 1e-2  # ``picard_step``'s U step stops within 1% of its step


def picard_step(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> tuple[State, float]:
    """One application of the fixed-point map: U, then V at the new potential.

    Replaces (f, u) by (U, V) with U = U(f, u) and V = V(U).  Returns the new
    state at the same t and the sup gap |(f, u) - (U, V)|.  U is solved to
    within about 1% of its step (``u_step`` with step_rtol
    _PICARD_STEP_RTOL), and V from the current twist u to within about
    0.1% of its step (``v_step`` with start u, which stops at
    _HELMHOLTZ_STEP_RTOL), so the gap is measured to a U and a V that
    close to the exact ones.  At a
    fixed point both steps vanish, U is solved to newton_tol and V to the
    Helmholtz residual target, and a zero gap still means U(f, u) = f and
    V(f) = u, that is, the state solves the system at its t.
    """
    new_f = u_step(state.f, state.u, state.t, curv, params, step_rtol=_PICARD_STEP_RTOL)
    new_u = v_step(new_f, curv, start=state.u)
    new_state = State(state.grid, new_f, new_u, state.t)
    return new_state, state_distance(state, new_state)


def picard_solve(
    state: State,
    curv: CurvatureData,
    params: DemaillyParams,
    gap_tol: float,
    max_steps: int,
) -> tuple[State, float, int]:
    """Apply ``picard_step`` until the gap is at most ``gap_tol``.

    Stops after ``max_steps`` applications at the latest and returns the last
    state, its gap and the number of applications; the caller judges a gap
    still above ``gap_tol``.  The gap does not bound the model residual:
    U solves its equation as v - lap(U), not in the log-determinant form
    of r_f, and on positively curved data a gap <= 1e-10 has left a
    ``residual_sup`` of 5.5e-9.  A caller that needs a converged state checks
    ``params.converged(residual_sup(*residual(state, curv, params)))``.
    """
    gap = np.inf
    steps = 0
    while steps < max_steps and not gap <= gap_tol:
        state, gap = picard_step(state, curv, params)
        steps += 1
    return state, gap, steps


@dataclass
class NewtonReport:
    """Convergence record of one damped Newton solve; field order is the summary layout.

    All but the Krylov counts describe the path to the returned state,
    over every grid it ran on: ``iterations`` counts its directions,
    ``damping`` holds one alpha per direction, and ``cone_margins`` and
    ``residual_history`` one entry per state it started a grid from or
    accepted.  ``coarse_n`` is the grid of its two-grid hand-off, 0
    without one, and ``coarse_iterations`` the directions taken there.
    ``krylov_failures`` and ``krylov_matvecs`` count every GMRES solve of
    the call, those of a discarded hand-off included.
    """

    iterations: int
    final_residual: float
    converged: bool
    krylov_failures: int
    krylov_matvecs: int  # Jacobian applications over all GMRES solves
    coarse_n: int
    coarse_iterations: int
    damping: list[float]
    cone_margins: list[float]
    residual_history: list[float]

    def summary(self) -> dict:
        return asdict(self)


def _mean_jacobian_symbols(lin):
    """Per-mode factors of the exact inverse of the Jacobian at the mean state.

    The Newton Jacobian in (df, du_1..du_{r-1}), with du_r = -sum_j du_j, is

        dR_f = D lap df - (lambda + a) df - sum_j b_j du_j
        dR_j = (lap - c) du_j - e_j df

    with D = sum_i 1/M_i, a = sum_i w_i / M_i, b_j = c (1/M_j - 1/M_r),
    e_j = w_j, c = e^f and w_i = e^f u_i.  Its coefficients are frozen at
    the grid means M_bar_i, c_bar and w_bar_i of M_i, e^f and w_i (D as
    sigma = sum_i 1/M_bar_i), so on the Fourier mode with Laplacian
    multiplier m it is the arrow matrix
    [[sigma m - lambda - a_bar, -b_bar^T], [-e_bar, (m - c_bar) I]].  Its
    twist block is invertible, since m <= 0 < c_bar.  Means of the
    coefficients themselves (mean(1/M_i) and the like) would weigh the few
    points next to the cone far above sigma does: on a march that creeps
    along the cone (lambda = 200) they took 36% more GMRES steps.

    The Schur complement on the potential cannot vanish.  lap f has mean
    zero, so M_bar_i = K - w_bar_i with K = 1/r + (1-t) alpha0 the same for
    every i, and sum_i w_bar_i = 0.  So w_bar_i and 1/M_bar_i are similarly
    ordered and a_bar = sum_i w_bar_i / M_bar_i >= 0 (Chebyshev's sum
    inequality), and b_bar . e_bar = c_bar a_bar exactly.  The Schur
    complement is then

        S = sigma m - lambda - a_bar - c_bar a_bar / (m - c_bar)
          = sigma m - lambda - a_bar m / (m - c_bar)  <=  sigma m - lambda,

    so S <= -lambda, with equality on the mean mode: the coupling only
    moves S away from zero.

    Returns (1/S, 1/(m - c_bar), b_bar, e_bar), with b_bar and e_bar of
    length r-1 (empty at rank one, where 1/S is 1/(sigma m - lambda)).
    """
    mult = lin.grid.laplacian_multiplier
    inv_m_bar = 1.0 / np.mean(lin.m, axis=(1, 2))
    w_bar = np.mean(lin.ef_u, axis=(1, 2))
    c_bar = float(np.mean(lin.ef))
    a_bar = float(w_bar @ inv_m_bar)
    twist = 1.0 / (mult - c_bar)
    schur = float(np.sum(inv_m_bar)) * mult - lin.lam - a_bar * mult * twist
    return 1.0 / schur, twist, c_bar * (inv_m_bar[:-1] - inv_m_bar[-1]), w_bar[:-1]


def _newton_direction(state, lin, r_f, r_u, res):
    grid = state.grid
    n = grid.n
    nn = n * n
    nu = state.rank - 1

    # Unknowns (df, du_1..du_{r-1}); du_r is minus their sum (zero at rank one).
    def unpack(z):
        return z[:nn].reshape(n, n), _with_trace_row(z[nn:].reshape(nu, n, n))

    matvecs = 0

    def matvec(z):
        nonlocal matvecs
        matvecs += 1
        dr_f, dr_u = apply_linearization(lin, Perturbation(*unpack(z)))
        return np.concatenate([dr_f.ravel(), dr_u[:nu].ravel()])

    # The exact inverse of the Jacobian at the mean state, coupling
    # included, by block elimination per Fourier mode: the potential from
    # its Schur complement, then each twist from the potential; one stacked
    # transform each way per call.
    inv_schur, twist, b_bar, e_bar = _mean_jacobian_symbols(lin)
    e_twist = e_bar[:, None, None] * twist

    def precond(y):
        y_hat = grid.rfft2(y.reshape(1 + nu, n, n))
        y_twist = y_hat[1:] * twist
        x_hat = np.empty_like(y_hat)
        x_hat[0] = (y_hat[0] + np.tensordot(b_bar, y_twist, axes=1)) * inv_schur
        x_hat[1:] = y_twist + e_twist * x_hat[0]
        return grid.irfft2(x_hat).ravel()

    size = (1 + nu) * nn
    op = LinearMap(size, matvec)
    prec = LinearMap(size, precond)
    b = -np.concatenate([r_f.ravel(), r_u[:nu].ravel()])
    z, info = gmres(op, b, rtol=_forcing(res), restart=80, maxiter=5, M=prec)
    return (*unpack(z), info != 0, matvecs)


@dataclass
class _Leg:
    """The record of one Newton loop on one grid, from its evaluated start.

    ``end`` is the last state reached; ``margins`` and ``history`` hold the
    cone margin and the residual of the start and of each accepted state,
    ``damping`` the alpha of each accepted step.
    """

    end: Evaluated
    damping: list[float] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    history: list[float] = field(default_factory=list)
    krylov_failures: int = 0
    krylov_matvecs: int = 0

    def __post_init__(self):
        self.record()

    def record(self) -> None:
        """Append the margin and the residual of ``end``."""
        self.margins.append(float(np.min(self.end.lin.m)))
        self.history.append(self.end.res)

    def converged(self, params: DemaillyParams) -> bool:
        return params.converged(self.end.res)


def _newton_on_grid(
    leg: _Leg,
    t: float,
    curv: CurvatureData,
    params: DemaillyParams,
    budget: int,
    *,
    w_line_first: bool = False,
) -> None:
    """Damped Newton at t from ``leg.end``, on its grid, recorded in ``leg``.

    ``leg.end`` is on the grid of ``curv`` and ``params``.  Stops at the
    first converged state or after ``budget`` iterations, and leaves that
    state in leg.end; the caller judges the budget.  With ``w_line_first``
    the first iteration of the call tries the full w-line step before
    anything else (see ``newton_at_t``).  Raises NoDescentError
    (backtracking floor).
    """
    grid = leg.end.state.grid

    def admissible(f_t, u_t):
        """The evaluated trial, or None when it is not finite or not above the cone floor."""
        if not (np.all(np.isfinite(f_t)) and np.all(np.isfinite(u_t))):
            return None
        try:
            return _evaluate(State(grid, f_t, _with_trace_row(u_t[:-1]), t), curv, params)
        except ConeViolationError:
            return None

    def line_search(start: Evaluated, w_full_first, df_step, du_step):
        """The accepted trial and its alpha, or None.

        Its own scope frees the rejected trials before the next direction.
        """
        state = start.state
        # e^-f dw, so the w-line is e^(-alpha df) (u + alpha dw_step).
        dw_step = du_step + state.u * df_step

        def along_w(alpha):
            return admissible(
                state.f + alpha * df_step,
                np.exp(-alpha * df_step) * (state.u + alpha * dw_step),
            )

        w_full = along_w(1.0) if w_full_first else None
        if w_full is not None and params.converged(w_full.res):
            return w_full, 1.0
        found = admissible(state.f + df_step, state.u + du_step)
        if found is not None and found.res < start.res:
            return found, 1.0
        return _backtrack(
            lambda alpha: w_full if w_full_first and alpha == 1.0 else along_w(alpha),
            start.res,
        )

    for it in range(budget):
        if leg.converged(params):
            return
        start = leg.end
        df_step, du_step, failed, matvecs = _newton_direction(*start)
        leg.krylov_failures += failed
        leg.krylov_matvecs += matvecs
        top = grid.sup(df_step)
        if top > _MAX_F_STEP:
            scale = _MAX_F_STEP / top
            df_step = df_step * scale
            du_step = du_step * scale
        accepted = line_search(start, w_line_first and it == 0, df_step, du_step)
        if accepted is None:
            raise NoDescentError(
                f"no residual decrease above the backtracking floor at t={t}"
            )
        leg.end, alpha = accepted
        leg.damping.append(alpha)
        leg.record()


# The two-grid corrector's constants; ``newton_at_t`` tells the design.
_COARSE_MIN = 16
_TAIL_TOL = 1e-13
_COARSE_FIRST_N = 128
_POLISH_ITERS = 2


def _coarse_size(grid: Grid, fields: np.ndarray, spectrum: np.ndarray) -> int | None:
    """The coarsest grid that resolves every field of the stack ``fields``, or None.

    ``spectrum`` holds their half spectra on ``grid``.  A grid m resolves
    them when m/3 exceeds the largest |k|inf of a coefficient above its
    field's bound.  The bound is on each coefficient, not on their sum: a
    sum over the n^2 roundoff coefficients grows with n.
    """
    n = grid.n
    bound = _TAIL_TOL * float(n * n) * (1.0 + np.max(np.abs(fields), axis=(1, 2)))
    above = np.any(np.abs(spectrum) > bound[:, None, None], axis=0)
    kx = np.abs(np.fft.fftfreq(n, d=1.0 / n))[:, None]
    k_inf = np.maximum(kx, np.fft.rfftfreq(n, d=1.0 / n)[None, :])
    k_top = float(np.max(k_inf[above], initial=0.0))
    m = _COARSE_MIN
    while m <= 3.0 * k_top:
        m *= 2
    return m if m <= n // 2 else None


def _hand_off(
    start: Evaluated,
    t: float,
    curv: CurvatureData,
    params: DemaillyParams,
    budget: int,
    *,
    w_line_first: bool,
) -> tuple[list[_Leg], bool]:
    """``newton_at_t``'s two-grid hand-off from ``start``: (legs run, polish converged)."""
    state = start.state
    grid = state.grid
    r = state.rank
    fields = np.concatenate(
        [state.f[None], state.u[:-1], curv.s[:-1], params.require_a0()[None]]
    )
    spectrum = grid.rfft2(fields)
    m = _coarse_size(grid, fields, spectrum)
    if m is None:
        return [], False
    coarse_grid = Grid(m, grid.total_area)
    low = _spectral_truncate(grid, spectrum, coarse_grid)
    s_low = _with_trace_row(low[r : 2 * r - 1])
    coarse_curv = CurvatureData(coarse_grid, curv.degrees, s_low + 1.0 / r, s_low)
    coarse_params = replace(params, a0=low[-1])
    legs = []
    try:
        coarse_start = State(coarse_grid, low[0], _with_trace_row(low[1:r]), t)
        coarse = _Leg(_evaluate(coarse_start, coarse_curv, coarse_params))
        legs.append(coarse)
        _newton_on_grid(
            coarse, t, coarse_curv, coarse_params, budget, w_line_first=w_line_first
        )
        if not coarse.converged(coarse_params):
            return legs, False
        solved = coarse.end.state
        head = np.concatenate([solved.f[None], solved.u[:-1]])
        fine = _spectral_pad(coarse_grid, coarse_grid.rfft2(head), grid)
        padded = State(grid, fine[0], _with_trace_row(fine[1:]), t)
        polish = _Leg(_evaluate(padded, curv, params))
        legs.append(polish)
        _newton_on_grid(
            polish, t, curv, params, min(_POLISH_ITERS, budget - len(coarse.damping))
        )
    except (ConeViolationError, NoDescentError):
        return legs, False
    return legs, polish.converged(params)


def newton_at_t(
    initial: State, t: float, curv: CurvatureData, params: DemaillyParams
) -> tuple[State, NewtonReport]:
    """Damped Newton at fixed t on the reduced unknowns (f, u_1..u_{r-1}).

    The last twist log is eliminated through the trace constraint, so every
    iterate has det g = 1 exactly.  The Newton direction (df, du) is
    followed along one of two curves, both with f + alpha df and both
    keeping the trace of u zero: the u-line u + alpha du, and the w-line
    w + alpha dw in w = e^f u with dw = e^f (du + u df), that is
    u = e^(-alpha df) (u + alpha (du + u df)).  The cone factors
    M_i = lap f + 1/r - w_i + (1-t) alpha0 are affine in (f, w), so along
    the w-line they move linearly in alpha.

    Each iteration tries the full step along the u-line; when it leaves the
    cone floor or does not decrease the residual, alpha is halved along the
    w-line until the cone margin stays above the floor and the residual
    decreases; a trial that is not finite is rejected the same
    way.  The first iteration tries the full w-line step
    before anything else and keeps it when it converges: on constant data
    w = -s holds all along the branch and the residual is affine in f at
    fixed w, so from a solution at another t that step lands on the
    solution.  Off the constant branch a full w-line step is no better
    than a full u-line step; on the ample cosine march its last residual
    lands at the tolerance, so the iteration count would hinge on the
    amplitude, and the u-line step is kept there.  The direction is
    clamped to potential sup norm 5 per step.  Converged means
    ``params.converged``, the residual sup norm at most params.newton_tol,
    within _MAX_ITERS iterations.

    Two-grid corrector (nested iteration, Brandt 1977): an iterate above
    the tolerance is handed to the coarsest power-of-two grid m,
    16 <= m <= n/2, on which f, u_1..u_{r-1}, s_1..s_{r-1} and a0 are
    resolved: each has its largest Fourier coefficient at |k|inf >= m/3 at
    most 1e-13 times 1 + its sup (``_coarse_size``).  Newton finishes there
    from the spectrally truncated iterate and data, u_r and s_r rebuilt
    from the trace, and the coarse solution, Fourier-padded back, is
    polished on the requested grid; by mesh independence (Allgower,
    Boehmer, Potra & Rheinboldt 1986) the polish has little or nothing left
    to do.  A polish that has not converged in _POLISH_ITERS = 2 iterations
    (or in what the coarse leg left of the budget) is discarded: on the
    near-cone (-1,5) marches every polish that converged took none.
    Which iterate is handed off depends on the requested grid size alone
    (_COARSE_FIRST_N = 128).  Below it, the first iteration runs on the
    requested grid and its iterate is handed off.  From it up, the start
    is handed off and the coarse leg takes the w-line first step: there
    the fine iteration it skips costs more than the coarse solve and the
    polish's evaluation that replace it.  When no grid resolves the
    iterate, or the coarse solve or the polish fails (a start below the
    cone floor, no descent or a spent budget), Newton continues on the
    requested grid from that iterate, as it would without a hand-off, so
    the hand-off never rejects an attempt.  Every returned state converged
    on the requested grid.  The report sums the iterations and Jacobian
    applications of every grid (``NewtonReport``).

    The initial state moves to t through ``State.at``, so its Laplacians
    carry over when the trace projection leaves u unchanged, as it does on
    every state this solver and ``solve_t0`` return.

    Each state, the start and every trial, is evaluated once
    (``model._evaluate``): one set of cone factors M_i gives its margin,
    its residuals and its linearization, and the accepted trial's
    linearization drives the next direction.

    Raises ConeViolationError (inadmissible initial state at this t),
    NoDescentError (backtracking floor), or MaxIterationsError.
    """
    state = initial.at(t, _with_trace_row(initial.u[:-1]))
    # Fine iterations before the hand-off; with none, the coarse leg (or the
    # fine loop after a failed hand-off) takes the w-line first step.
    head = 0 if state.grid.n >= _COARSE_FIRST_N else 1
    first = _Leg(_evaluate(state, curv, params))
    _newton_on_grid(first, t, curv, params, head, w_line_first=True)
    path, discarded = [first], []
    coarse_n = coarse_iterations = 0
    if not first.converged(params):
        budget = _MAX_ITERS - head
        legs, done = _hand_off(first.end, t, curv, params, budget, w_line_first=head == 0)
        if done:
            path += legs
            coarse_n, coarse_iterations = legs[0].end.state.grid.n, len(legs[0].damping)
        else:
            discarded = legs
            _newton_on_grid(first, t, curv, params, budget, w_line_first=head == 0)
            if not first.converged(params):
                raise MaxIterationsError(
                    f"residual {first.end.res:.3e} after {_MAX_ITERS} iterations at t={t}"
                )
    spent = path + discarded
    report = NewtonReport(
        iterations=sum(len(leg.damping) for leg in path),
        final_residual=path[-1].end.res,
        converged=True,
        krylov_failures=sum(leg.krylov_failures for leg in spent),
        krylov_matvecs=sum(leg.krylov_matvecs for leg in spent),
        coarse_n=coarse_n,
        coarse_iterations=coarse_iterations,
        damping=[alpha for leg in path for alpha in leg.damping],
        cone_margins=[margin for leg in path for margin in leg.margins],
        residual_history=[res for leg in path for res in leg.history],
    )
    return path[-1].end.state, report
