"""Structural checks asserted on computed states.

Every accepted continuation state is pushed through the same battery:

* integral identity: the integral of e^f u_i against omega0 equals
  deg(E)/r - d_i (the trace-free equation integrated against the area form);
* pointwise curvature inequality: e^f |u|^2 - lap(|u|^2)/2 <= |u| |s|,
  with |u|^2 = sum u_i^2 and |s| the pointwise Euclidean norm of the
  trace-free densities;
* trace constraint sum_i u_i = 0;
* cone margin above its floor (``model.above_cone_floor``);
* maximum-point witnesses: the Laplacian of f is nonpositive (up to
  discretization slack) at the argmax of f, and the product bound
  e^(lambda max f) a0 <= prod_i (1/r - e^(max f) u_i + (1-t) alpha0) holds
  there.

``run_diagnostics`` returns a ``DiagnosticsRecord``: the measured values,
each check's bound in its ``thresholds`` dict, and the failed checks.

Inequalities are asserted on converged solution states only; on arbitrary
iterates the records are informational.  All checks are pure functions of
the state, so recomputing a record from a persisted state reproduces it.
The module reads ``model`` alone: it judges what the solvers return and
calls none of them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    CurvatureData,
    DemaillyParams,
    State,
    above_cone_floor,
    cone_margin,
    cone_shift,
)

IDENTITY_TOL = 1e-6
TRACE_TOL = 1e-10
UY_BASE_TOL = 1e-8
ARGMAX_SLACK_TOL = 1e-6
AMGM_REL_TOL = 1e-8


def check_integral_identity(state: State, curv: CurvatureData) -> np.ndarray:
    """Per-summand error |integral(e^f u_i omega0) - (deg(E)/r - d_i)|.

    The error is inf where e^f u_i overflows on a finite state.
    """
    targets = sum(curv.degrees) / state.rank - np.array(curv.degrees, dtype=float)
    integrals = np.sum(np.exp(state.f) * state.u, axis=(1, 2)) * state.grid.cell_weight
    return np.where(np.isfinite(integrals), np.abs(integrals - targets), np.inf)


def check_uy_inequality(state: State, curv: CurvatureData) -> float:
    """Max over the grid of e^f |u|^2 - lap(|u|^2)/2 - |u| |s|.

    Nonpositive (up to discretization) on solution states; equality holds on
    the constant branch.  The value is reported regardless of sign.
    """
    grid = state.grid
    u_sq = np.sum(state.u**2, axis=0)
    lhs = np.exp(state.f) * u_sq - 0.5 * grid.laplacian(u_sq)
    rhs = np.sqrt(u_sq) * curv.s_pointwise_norm
    return float(np.max(lhs - rhs))


def check_bounds(state: State, params: DemaillyParams) -> dict:
    """Extremal-point records for a converged solution state.

    Returns max e^(lambda f), min/max of f, the Laplacian slack at the
    argmax of f together with its scale, and the relative excess of the
    product bound at that point (negative excess means the bound holds
    strictly).
    """
    grid = state.grid
    lam = params.lam
    lap_f = state.lap_f
    idx = np.unravel_index(np.argmax(state.f), state.f.shape)
    f_max = float(state.f[idx])
    slack = float(lap_f[idx])
    slack_scale = 1.0 + grid.sup(lap_f)
    lhs = float(np.exp(lam * f_max) * params.require_a0()[idx])
    factors = cone_shift(np.exp(f_max) * state.u[(slice(None),) + idx], state.t, params.alpha0)
    rhs = float(np.prod(factors))
    return {
        "max_exp_lambda_f": float(np.exp(lam * np.max(state.f))),
        "min_f": float(np.min(state.f)),
        "max_f": f_max,
        "argmax_slack": slack,
        "argmax_slack_scale": slack_scale,
        "amgm_excess": (lhs - rhs) / abs(rhs),
    }


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One state's measured quantities, thresholds, and verdicts.

    ``thresholds`` holds each check's bound by name.  Pass/fail is a pure
    function of the recorded values and thresholds; ``failed`` lists the
    names of the checks that missed their bound.  The field order is the
    layout of ``to_dict``.
    """

    t: float
    identity_errors: tuple[float, ...]
    uy_violation: float
    trace_sup: float
    cone_margin: float
    min_f: float
    max_f: float
    max_exp_lambda_f: float
    argmax_slack: float
    amgm_excess: float
    thresholds: dict[str, float]
    failed: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failed

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def run_diagnostics(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> DiagnosticsRecord:
    """Full battery on one state, with the standard thresholds.

    A finite state whose e^f overflows fails the checks it breaks instead
    of raising or warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        identity = check_integral_identity(state, curv)
        uy = check_uy_inequality(state, curv)
        margin = cone_margin(state, params)
        bounds = check_bounds(state, params)
    s_sup = float(np.max(curv.s_pointwise_norm))
    trace = state.trace_sup()
    thresholds = {
        "identity": IDENTITY_TOL,
        "uy": UY_BASE_TOL * (1.0 + s_sup**2),
        "trace": TRACE_TOL,
        "cone_floor": params.cone_floor_value,
        "argmax_slack": ARGMAX_SLACK_TOL * bounds["argmax_slack_scale"],
        "amgm": AMGM_REL_TOL,
    }
    # A check passes only when value <= bound holds, so a NaN fails.  The
    # cone margin passes by the floor rule Newton applies: strictly above.
    checks = (
        ("integral_identity", float(np.max(identity)) <= thresholds["identity"]),
        ("uy_inequality", uy <= thresholds["uy"]),
        ("trace_constraint", trace <= thresholds["trace"]),
        ("cone_margin", above_cone_floor(margin, params)),
        ("argmax_slack", bounds["argmax_slack"] <= thresholds["argmax_slack"]),
        ("amgm_bound", bounds["amgm_excess"] <= thresholds["amgm"]),
    )
    failed = [name for name, passed in checks if not passed]
    return DiagnosticsRecord(
        t=state.t,
        identity_errors=tuple(float(e) for e in identity),
        uy_violation=uy,
        trace_sup=trace,
        cone_margin=margin,
        min_f=bounds["min_f"],
        max_f=bounds["max_f"],
        max_exp_lambda_f=bounds["max_exp_lambda_f"],
        argmax_slack=bounds["argmax_slack"],
        amgm_excess=bounds["amgm_excess"],
        thresholds=thresholds,
        failed=tuple(failed),
    )

