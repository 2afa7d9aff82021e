"""March the solution from t=0 to t=1, the constant-data oracle, and the
multistart uniqueness experiment.

The continuation is a predictor-corrector loop with an adaptive step: the
predictor is the previous accepted state, the corrector is the damped
two-grid Newton solve at the new t (``solvers.newton_at_t`` tells the
design).  At fixed (f, u) every cone factor M_i = lap f + 1/r - w_i +
(1-t) alpha0 falls by exactly alpha0 dt as t moves by dt, so the accepted
state's cone margin, less alpha0 dt, is the margin the next Newton solve
starts from.  An attempt whose predicted start margin
is below the cone floor by more than its rounding bound is a ``cone``
rejection without a Newton solve (step-length control as in Allgower &
Georg, Numerical Continuation Methods, 1990, ch. 6); Newton would refuse
that start, so the march takes the same decisions either way.

An accepted state whose Newton solve was fast (at most _FAST_ITERS
iterations) and which did not follow a rejection grows the t-increment:
straight to the rest of the range when the state, taken to t=1, still
clears the cone floor, and otherwise by doubling, up to the length 1 of the
t-range.  The exact t=0 state (0 iterations, no rejection before it) takes
the same jump test; when it fails, the first increment is params.dt0, not
doubled.  A rejected step, predicted or not, halves the increment it
actually tried, down to params.dt_floor.  A rejection at the floor is a
recorded breakdown, not an error, because losing the cone before t=1 is a
meaningful outcome (it is the expected behaviour for non-ample data).

The jump to t=1 never fires when some degree d_i <= 0: on an accepted state
the integral identity makes the mean of M_i at t=1 equal d_i/deg(E) <= 0
(to within the identity tolerance), so its minimum is below the positive
cone floor.  Non-ample marches therefore take the doubling path alone.

For wiggle-free specs the whole t-family is known in closed form, which is
the workhorse oracle of the test suite: with d = deg(E) and constant
densities rho_i = d_i/d,

    f(t) = log( prod_i (rho_i + (1-t) alpha0) / prod_i (rho_i + alpha0) ) / lambda,
    u_i(t) = -(rho_i - 1/r) e^(-f(t)),

whose cone factors rho_i + (1-t) alpha0 stay positive on all of [0,1]
exactly when every degree is positive.

The multistart experiment runs the same corrector at t=0 from several
admissible starts and measures how far apart its solutions land; a start
fails on the exception classes that reject a march attempt
(``_REJECT_REASON``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Grid, random_band_limited
from .model import (
    BundleSpec,
    ConeViolationError,
    CurvatureData,
    DemaillyParams,
    State,
    above_cone_floor,
    build_curvature,
    cone_margin,
    state_distance,
)
from .diagnostics import DiagnosticsRecord, run_diagnostics
from .solvers import (
    MaxIterationsError,
    NewtonReport,
    NoDescentError,
    newton_at_t,
    solve_t0,
)

logger = logging.getLogger(__name__)

# Step control: an accepted step whose Newton solve took at most _FAST_ITERS
# iterations jumps to t=1 or multiplies the t-increment by _GROW_FACTOR.
_GROW_FACTOR = 2.0
_FAST_ITERS = 3

# A predicted start margin is trusted to this many ulps of the largest term
# of M_i; a prediction closer to the floor than that still gets its Newton
# attempt.
_PREDICTION_ULPS = 16

# Rejection class of each exception a corrector attempt may raise.
_REJECT_REASON = {
    ConeViolationError: "cone",
    NoDescentError: "no_descent",
    MaxIterationsError: "max_iters",
}


@dataclass
class MarchStep:
    """One accepted continuation state with its records."""

    t: float
    state: State
    newton: NewtonReport
    diagnostics: DiagnosticsRecord
    wall_seconds: float


@dataclass
class MarchReport:
    """Everything the march produced, breakdown time and reason included.

    ``breakdown_reason`` is the rejection class of the failed attempt at the
    floor step (``cone``, ``max_iters``, ``no_descent`` or ``diagnostics``),
    or None when the march reached t=1.  ``rejected`` holds one
    ``(t_try, reason, predicted)`` per rejected attempt in march order, the
    breakdown's included; ``predicted`` marks a ``cone`` rejection taken
    from the accepted state's margin without a Newton solve.
    """

    steps: list[MarchStep]
    breakdown_t: float | None
    params: DemaillyParams
    breakdown_reason: str | None = None
    rejected: list[tuple[float, str, bool]] = field(default_factory=list)

    @property
    def accepted_ts(self) -> list[float]:
        return [s.t for s in self.steps]

    @property
    def reached_t1(self) -> bool:
        return self.breakdown_t is None and bool(self.steps) and self.steps[-1].t == 1.0

    @property
    def final_state(self) -> State:
        return self.steps[-1].state

    @property
    def min_f(self) -> float:
        """Smallest value of f over every accepted state."""
        return min(s.diagnostics.min_f for s in self.steps)


def closed_form_state(
    spec: BundleSpec, params: DemaillyParams, grid: Grid, t: float
) -> State:
    """Constant-field solution for wiggle-free data at parameter t.

    Requires every wiggle to vanish; raises when the constant
    branch leaves the cone (some rho_i + (1-t) alpha0 <= 0, which happens
    before t=1 only for non-ample degrees).  Substituting the result into
    the residuals gives zero identically.
    """
    if not spec.is_constant:
        raise ValueError("closed form requires wiggle-free curvature data")
    if params.alpha0 is None:
        raise ValueError("alpha0 not set")
    r = spec.rank
    d = float(spec.degree_sum)
    rho = np.array(spec.degrees, dtype=float) / d
    factors_t = rho + (1.0 - t) * params.alpha0
    factors_0 = rho + params.alpha0
    if np.min(factors_t) <= 0.0:
        raise ConeViolationError(
            f"constant branch leaves the cone at t={t}: min factor {np.min(factors_t):.3e}"
        )
    f_val = float(np.sum(np.log(factors_t)) - np.sum(np.log(factors_0))) / params.lam
    s_const = rho - 1.0 / r
    n = grid.n
    f = np.full((n, n), f_val)
    u = np.tile((-s_const * np.exp(-f_val))[:, None, None], (1, n, n))
    return State(grid, f, u, t)


def _margin_at(margin: float, t: float, t_try: float, params: DemaillyParams) -> float:
    """The cone margin of the state accepted at t with ``margin``, taken to t_try.

    Each cone factor falls at rate alpha0 in t at fixed (f, u), so this is
    the margin the predictor (the accepted state) starts from at t_try.
    """
    return margin - params.alpha0 * (t_try - t)


def _may_jump(
    t: float, report: NewtonReport, diag: DiagnosticsRecord, params: DemaillyParams
) -> bool:
    """Whether the next attempt from the state accepted at t goes straight to t=1.

    It does when the state's Newton solve was fast (at most _FAST_ITERS
    iterations) and the state, taken to t=1, still clears the cone floor.
    """
    return report.iterations <= _FAST_ITERS and above_cone_floor(
        _margin_at(diag.cone_margin, t, 1.0, params), params
    )


def _rounding_bound(state: State, params: DemaillyParams) -> float:
    """How far a predicted start margin may lie from the one Newton computes.

    Both are sums of the terms of M_i, so _PREDICTION_ULPS ulps of
    1/r + alpha0 + sup|lap f| + sup|w| at the accepted state bound their
    rounding apart.
    """
    grid = state.grid
    w_sup = grid.sup(np.exp(state.f) * state.u)
    scale = 1.0 / state.rank + params.alpha0 + grid.sup(state.lap_f) + w_sup
    return _PREDICTION_ULPS * float(np.finfo(float).eps) * scale


def _predicts_rejection(
    state: State, margin: float, t_try: float, params: DemaillyParams
) -> bool:
    """Whether Newton at t_try would refuse ``state``, accepted with ``margin``, as its start.

    True when the predicted start margin is below the cone floor by more
    than its rounding bound; the bound is taken only for a prediction that
    does not clear the floor outright.
    """
    predicted = _margin_at(margin, state.t, t_try, params)
    return not above_cone_floor(predicted, params) and not above_cone_floor(
        predicted + _rounding_bound(state, params), params
    )


def _record(state: State) -> State:
    """The state as kept in the report: f, u and t without the Laplacians.

    Only the predictor of the next attempt needs those, so a long march
    does not hold three extra fields per accepted state.
    """
    return State(state.grid, state.f, state.u, state.t)


def march(spec: BundleSpec, params: DemaillyParams, grid: Grid) -> MarchReport:
    """Adaptive predictor-corrector continuation from t=0 toward t=1.

    Starts from the exact t=0 construction and tries t + dt (clamped to 1),
    correcting with Newton from the previous accepted state.  An accepted
    state whose Newton solve took at most _FAST_ITERS iterations, and whose
    previous attempt was not rejected, may jump: dt becomes 1 - t when its
    cone margin minus alpha0 (1 - t), its margin at t=1, is above the cone
    floor.  The t=0 state takes this test too, and when it fails the
    first dt is params.dt0; at a later state dt otherwise doubles, up to 1.
    A failed jump is an ordinary rejection.  Before each attempt the
    accepted state's margin is taken to t + dt the same way; when it is
    below the cone floor by more than its rounding bound, the attempt is a
    ``cone`` rejection without a Newton solve, recorded as predicted.  A
    rejected attempt sets dt to half the step it tried, but not below
    params.dt_floor; when an attempt at the floor fails the march stops,
    recording the last accepted t as the breakdown time and the attempt's
    rejection class as the breakdown reason.  Every accepted state passed
    Newton at tolerance and the full diagnostics battery.
    """
    curv = build_curvature(spec, grid)
    state, params = solve_t0(curv, params)
    steps: list[MarchStep] = []

    begin = time.perf_counter()
    state, report = newton_at_t(state, 0.0, curv, params)
    diag = run_diagnostics(state, curv, params)
    if not diag.passed:
        raise RuntimeError(f"t=0 state failed diagnostics: {diag.failed}")
    steps.append(MarchStep(0.0, _record(state), report, diag, time.perf_counter() - begin))
    rejected: list[tuple[float, str, bool]] = []

    t = 0.0
    margin = diag.cone_margin
    dt = 1.0 if _may_jump(t, report, diag, params) else params.dt0
    after_rejection = False
    breakdown = reason = None
    clock = time.perf_counter()
    while t < 1.0:
        step = min(dt, 1.0 - t)
        t_try = min(t + dt, 1.0)
        reason = None
        predicted = _predicts_rejection(state, margin, t_try, params)
        if predicted:
            reason = "cone"
            logger.debug(
                "step to t=%.6f rejected (%s): predicted from margin %.3e at t=%.6f",
                t_try, reason, margin, t,
            )
        else:
            try:
                cand, report = newton_at_t(state, t_try, curv, params)
                diag = run_diagnostics(cand, curv, params)
                if not diag.passed:
                    reason = "diagnostics"
            except tuple(_REJECT_REASON) as exc:
                reason = _REJECT_REASON[type(exc)]
                logger.debug("step to t=%.6f rejected (%s): %s", t_try, reason, exc)
        if reason is None:
            now = time.perf_counter()
            steps.append(MarchStep(t_try, _record(cand), report, diag, now - clock))
            clock = now
            state, t = cand, t_try
            margin = diag.cone_margin
            logger.info(
                "accepted t=%.6f residual=%.2e margin=%.3e iters=%d",
                t, report.final_residual, diag.cone_margin, report.iterations,
            )
            if not after_rejection:
                if _may_jump(t, report, diag, params):
                    dt = 1.0 - t
                elif report.iterations <= _FAST_ITERS:
                    dt = min(_GROW_FACTOR * dt, 1.0)
            after_rejection = False
        else:
            rejected.append((t_try, reason, predicted))
            if step <= params.dt_floor:
                breakdown = t
                logger.info("breakdown recorded at t*=%.6f (%s)", t, reason)
                break
            dt = max(0.5 * step, params.dt_floor)
            after_rejection = True
    return MarchReport(steps, breakdown, params, reason, rejected)


@dataclass
class MultistartResult:
    """Outcome of the repeated-initialization uniqueness experiment."""

    max_gap: float
    n_converged: int
    n_failed: int
    reports: list[NewtonReport]


def multistart_uniqueness(
    curv: CurvatureData,
    params: DemaillyParams,
    k: int,
    seed: int = 0,
    amplitude: float = 0.1,
) -> MultistartResult:
    """Solve at t=0 from k admissible starts and measure the spread.

    The first start is the constructed t=0 state; the rest add band-limited
    perturbations of sup amplitude up to ``amplitude`` to f and to each twist
    log (trace-projected), resampling any draw that leaves the cone.  Returns
    the max pairwise sup distance between converged solutions; starts that
    fail to converge (any rejection class of the march but ``diagnostics``)
    are counted separately, since non-convergence is not a uniqueness
    violation.
    """
    if k < 2:
        raise ValueError("at least two starts are required")
    base, params = solve_t0(curv, params)
    grid = curv.grid
    r = curv.rank
    rng = np.random.default_rng(seed)
    starts = [base]
    attempts = 0
    while len(starts) < k:
        attempts += 1
        if attempts > 200 * k:
            raise RuntimeError("could not draw enough admissible starts")
        amp = rng.uniform(0.2 * amplitude, amplitude)
        df = random_band_limited(grid, rng, kmax=3, amplitude=amp)
        du = np.stack(
            [random_band_limited(grid, rng, kmax=3, amplitude=amp) for _ in range(r)]
        )
        du -= np.mean(du, axis=0)
        cand = State(grid, base.f + df, base.u + du, 0.0)
        if above_cone_floor(cone_margin(cand, params), params):
            starts.append(cand)
    solutions = []
    reports = []
    n_failed = 0
    for start in starts:
        try:
            sol, rep = newton_at_t(start, 0.0, curv, params)
        except tuple(_REJECT_REASON):
            n_failed += 1
            continue
        solutions.append(sol)
        reports.append(rep)
    max_gap = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            max_gap = max(max_gap, state_distance(solutions[i], solutions[j]))
    return MultistartResult(max_gap, len(solutions), n_failed, reports)
