"""Bundle data, system parameters, states, residuals, and the linearization.

The unknowns are a conformal potential f and the logarithms u_1..u_r of a
determinant-one diagonal metric twist on a direct sum of r line bundles.
Writing s_i for the trace-free curvature densities and a0 for the reference
density fixed at the start of the continuation, a state (f, u, t) solves the
system at parameter t exactly when both residuals vanish:

    R_f = log(prod_i M_i) - lambda * f - log(a0),
          M_i = lap(f) + 1/r - e^f u_i + (1 - t) * alpha0,
    R_i = lap(u_i) - s_i - e^f u_i.

The M_i are the curvature eigen-quantities shifted by the homotopy term; all
of them must stay positive (the cone condition) for the determinant equation
to make sense.  That positivity is checked explicitly, never assumed.

Sign convention: the Laplacian of ``geometry`` is nonpositive at maxima and
the operator (lap - e^f) is strictly negative definite, which is what
makes the trace-free equations uniquely solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Grid, ScalarField


class ConeViolationError(RuntimeError):
    """An iterate left the positivity cone of the determinant equation."""


@dataclass(frozen=True)
class CosineMode:
    """One product-cosine Fourier mode, amplitude * cos(2 pi kx x) cos(2 pi ky y)."""

    amplitude: float
    kx: int
    ky: int

    def __post_init__(self):
        if self.kx == 0 and self.ky == 0:
            raise ValueError("constant modes are not zero-mean; (kx, ky) != (0, 0)")

    def evaluate(self, grid: Grid) -> np.ndarray:
        # Separable: one cosine per axis, multiplied in the order of the
        # meshgrid form, so the product is the same bit for bit.
        x = np.arange(grid.n) / grid.n
        return (
            self.amplitude
            * np.cos(2 * np.pi * self.kx * x)[:, None]
            * np.cos(2 * np.pi * self.ky * x)[None, :]
        )


@dataclass(frozen=True)
class BundleSpec:
    """A direct sum of line bundles: integer degrees plus curvature wiggles.

    ``perturbations[i]`` lists the cosine modes of the zero-mean wiggle
    phi_i added to the flat representative of the i-th curvature density.
    The wiggles must cancel across summands (sum_i phi_i = 0) so that the
    total curvature density stays equal to the area form.
    """

    degrees: tuple[int, ...]
    perturbations: tuple[tuple[CosineMode, ...], ...] = ()

    def __post_init__(self):
        degrees = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degrees)
        if len(degrees) < 1:
            raise ValueError("at least one line bundle is required")
        if sum(degrees) <= 0:
            raise ValueError("total degree must be positive for omega0 to be an area form")
        perts = tuple(tuple(p) for p in self.perturbations)
        object.__setattr__(self, "perturbations", perts)
        if perts and len(perts) != len(degrees):
            raise ValueError("perturbation list length must equal the rank")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree_sum(self) -> int:
        return int(sum(self.degrees))

    @property
    def is_ample(self) -> bool:
        """True when every summand has positive degree."""
        return all(d > 0 for d in self.degrees)

    @property
    def is_constant(self) -> bool:
        """True when all curvature wiggles vanish identically."""
        return all(len(p) == 0 for p in self.perturbations)

    def phi_fields(self, grid: Grid) -> np.ndarray:
        """Realize the wiggles phi_1..phi_r on a grid, shape (r, n, n)."""
        r, n = self.rank, grid.n
        phi = np.zeros((r, n, n))
        for i, modes in enumerate(self.perturbations):
            for mode in modes:
                phi[i] += mode.evaluate(grid)
        return phi

    @classmethod
    def cosine_pair(
        cls,
        degrees,
        amplitude: float,
        modes: tuple[tuple[int, int], ...] = ((1, 1),),
    ) -> "BundleSpec":
        """Spec with phi_1 = amplitude * sum of product cosines, phi_r = -phi_1.

        Rank one admits no nonzero wiggle (the zero-sum constraint forces
        phi_1 = 0), so a nonzero amplitude is rejected there.
        """
        degrees = tuple(int(d) for d in degrees)
        if amplitude == 0.0:
            return cls(degrees)
        if len(degrees) < 2:
            raise ValueError("rank-one specs admit no curvature wiggle; need rank >= 2")
        plus = tuple(CosineMode(amplitude, kx, ky) for kx, ky in modes)
        minus = tuple(CosineMode(-amplitude, kx, ky) for kx, ky in modes)
        perts = (plus,) + ((),) * (len(degrees) - 2) + (minus,)
        return cls(degrees, perts)


@dataclass(frozen=True, eq=False)
class CurvatureData:
    """Curvature densities rho_i and trace-free parts s_i = rho_i - 1/r.

    Invariants (enforced at construction): sum_i rho_i = 1 pointwise, the
    integral of rho_i equals the degree d_i, and sum_i s_i = 0.
    """

    grid: Grid
    degrees: tuple[int, ...]
    rho: np.ndarray  # (r, n, n)
    s: np.ndarray  # (r, n, n)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @cached_property
    def s_pointwise_norm(self) -> np.ndarray:
        """Pointwise Euclidean norm sqrt(sum_i s_i^2) of the trace-free part."""
        return np.sqrt(np.sum(self.s**2, axis=0))


def build_curvature(spec: BundleSpec, grid: Grid) -> CurvatureData:
    """Realize the curvature data of a bundle spec on a grid.

    Requires grid.total_area == sum of degrees, so that the flat parts
    d_i / deg(E) integrate to the right degrees.  Rejects specs whose
    wiggles fail the zero-mean or zero-sum constraints.
    """
    r = spec.rank
    d = float(spec.degree_sum)
    if grid.total_area != d:
        raise ValueError(
            f"grid total_area {grid.total_area} must equal the total degree {d}"
        )
    phi = spec.phi_fields(grid)
    scale = 1.0 + float(np.max(np.abs(phi)))
    means = np.mean(phi, axis=(1, 2))
    if np.max(np.abs(means)) > 1e-12 * scale:
        raise ValueError("curvature wiggles must have zero mean")
    total = np.sum(phi, axis=0)
    if np.max(np.abs(total)) > 1e-12 * scale:
        raise ValueError("curvature wiggles must cancel across summands")
    flat = np.array(spec.degrees, dtype=float)[:, None, None] / d
    rho = flat + phi
    s = rho - 1.0 / r
    return CurvatureData(grid, spec.degrees, rho, s)


def _positive_real(x) -> bool:
    """True for a finite x > 0; NaN and infinities fail."""
    return bool(np.isfinite(x)) and x > 0


@dataclass(frozen=True, eq=False)
class DemaillyParams:
    """Exponents, homotopy offset, reference density, and solver tolerances.

    ``alpha0`` and ``a0`` start unset and are filled by the t=0 construction;
    ``cone_floor`` defaults to the scale-aware value 1e-6 * (1 + alpha0).
    """

    lam: float
    alpha0: float | None = None
    a0: np.ndarray | None = None
    newton_tol: float = 1e-9
    cone_floor: float | None = None
    dt0: float = 0.05
    dt_floor: float = 1e-4

    def __post_init__(self):
        if not _positive_real(self.lam):
            raise ValueError(f"lambda must be a positive real, got {self.lam}")
        if self.alpha0 is not None and not np.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not _positive_real(self.newton_tol):
            raise ValueError("newton_tol must be positive")
        if not (_positive_real(self.dt0) and _positive_real(self.dt_floor)):
            raise ValueError("t-step controls must be positive")
        if self.cone_floor is not None and not _positive_real(self.cone_floor):
            raise ValueError("cone_floor must be positive when given")
        if self.a0 is not None and np.min(self.a0) <= 0:
            raise ValueError("reference density a0 must be positive pointwise")

    @property
    def cone_floor_value(self) -> float:
        if self.cone_floor is not None:
            return self.cone_floor
        if self.alpha0 is None:
            raise ValueError("cone floor undefined before alpha0 is fixed")
        return 1e-6 * (1.0 + self.alpha0)

    def converged(self, res: float) -> bool:
        """The convergence rule for a residual sup norm: at most newton_tol.

        Every convergence test goes through it, so NaN and inf never converge.
        """
        return bool(res <= self.newton_tol)

    def require_a0(self) -> np.ndarray:
        if self.a0 is None:
            raise ValueError("reference density a0 not set; run the t=0 construction first")
        return self.a0

    @cached_property
    def log_a0(self) -> np.ndarray:
        """log(a0), taken once on first use and kept, read-only."""
        return _read_only(np.log(self.require_a0()))


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that cannot be written through."""
    view = a.view()
    view.flags.writeable = False
    return view


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two float arrays hold the same bits (signed zeros told apart)."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _with_trace_row(head: np.ndarray) -> np.ndarray:
    """The stack ``head`` of rows 1..r-1 with row r = -(their sum) appended.

    Rebuilding the last twist log this way makes det g = 1 exactly.  At rank
    one ``head`` is empty and u_1 = -0.0, minus the empty sum, so every state
    the solvers make is trace-projected bit for bit and takes lap f and
    lap u in one transform (``State``).
    """
    return np.concatenate([head, -np.sum(head, axis=0)[None, :, :]])


@dataclass(frozen=True, eq=False)
class State:
    """A continuation iterate: potential f, twist logs u_1..u_r, parameter t.

    The determinant-one constraint sum_i u_i = 0 is a property of solver
    output, not a construction-time requirement: diagnostics measure it, so
    deliberately broken states (for verification tests) remain expressible.

    ``f`` and ``u`` are read-only views of the arrays passed in, not
    copies: those arrays keep their own flags, and writing to them after
    the state is built is not supported, since it would change the state
    under its kept Laplacians.  ``lap_f`` and ``lap_u`` are one pair, taken
    on first use in one stacked transform and kept.  When u is
    trace-projected (u_r equals -(u_1 + ... + u_{r-1}) bit for bit, as on
    every state the solvers make), the transform is of (f, u_1..u_{r-1})
    and lap(u_r) = -(lap(u_1) + ... + lap(u_{r-1})), which at rank 2 is bit
    for bit the transform of u_2; otherwise it is of (f, u_1..u_r).
    ``at`` moves a state to another t and shares the pair when u is
    unchanged.
    """

    grid: Grid
    f: np.ndarray
    u: np.ndarray  # (r, n, n)
    t: float

    def __post_init__(self):
        f = self.grid.bind(self.f)
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 3 or u.shape[1:] != (self.grid.n, self.grid.n):
            raise ValueError(f"u must have shape (r, n, n), got {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError("u contains non-finite values")
        if not (0.0 <= self.t <= 1.0):
            raise ValueError(f"t must lie in [0, 1], got {self.t}")
        object.__setattr__(self, "f", _read_only(f))
        object.__setattr__(self, "u", _read_only(u))

    @property
    def rank(self) -> int:
        return self.u.shape[0]

    @cached_property
    def _laplacians(self) -> tuple[ScalarField, np.ndarray]:
        """(lap f, lap u), read-only, from one stacked transform."""
        u = self.u
        projected = _bit_equal(u[-1], -np.sum(u[:-1], axis=0))
        head = u[:-1] if projected else u
        lap = self.grid.laplacian(np.concatenate([self.f[None, :, :], head]))
        lap_u = _with_trace_row(lap[1:]) if projected else lap[1:]
        return _read_only(lap[0]), _read_only(lap_u)

    @property
    def lap_f(self) -> ScalarField:
        """lap(f), read-only."""
        return self._laplacians[0]

    @property
    def lap_u(self) -> np.ndarray:
        """lap(u_i) stacked, shape (r, n, n), read-only."""
        return self._laplacians[1]

    def at(self, t: float, u: np.ndarray) -> "State":
        """The state (f, u) at parameter t, sharing this state's Laplacians when u is unchanged.

        The pair is shared only when ``u`` equals this state's u bit for
        bit; otherwise the moved state takes its own.
        """
        moved = State(self.grid, self.f, u, t)
        if _bit_equal(moved.u, self.u):
            moved.__dict__["_laplacians"] = self._laplacians
        return moved

    def trace_sup(self) -> float:
        """Sup norm of sum_i u_i (distance from det g = 1)."""
        return float(np.max(np.abs(np.sum(self.u, axis=0))))


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Tangent direction (df, du_1..du_r) with trace-free du."""

    df: np.ndarray
    du: np.ndarray

    def __post_init__(self):
        du = np.asarray(self.du, dtype=float)
        scale = 1.0 + float(np.max(np.abs(du))) if du.size else 1.0
        if float(np.max(np.abs(np.sum(du, axis=0)))) > 1e-12 * scale:
            raise ValueError("perturbation must be trace-free: sum_i du_i = 0")


def state_distance(a: State, b: State) -> float:
    """Sup distance over all components (f and each u_i)."""
    return max(
        float(np.max(np.abs(a.f - b.f))),
        float(np.max(np.abs(a.u - b.u))) if a.u.size else 0.0,
    )


def cone_shift(w, t: float, alpha0: float) -> np.ndarray:
    """The cone factors without lap(f): 1/r - w_i + (1-t) alpha0, with w_i = e^f u_i.

    ``w`` stacks w_1..w_r on its first axis, so the shift is taken on whole
    fields or at a single point; callers form w once and reuse it.
    """
    return 1.0 / len(w) - w + (1.0 - t) * alpha0


def _cone_terms(state: State, params: DemaillyParams):
    """(e^f, w, M) at a state, with w_i = e^f u_i and M the cone factors M_i."""
    if params.alpha0 is None:
        raise ValueError("alpha0 not set")
    ef = np.exp(state.f)
    w = ef[None, :, :] * state.u
    return ef, w, state.lap_f[None, :, :] + cone_shift(w, state.t, params.alpha0)


def cone_factors(state: State, params: DemaillyParams) -> np.ndarray:
    """The matrix entries M_i = lap(f) + 1/r - e^f u_i + (1-t) alpha0, shape (r, n, n)."""
    return _cone_terms(state, params)[2]


def cone_margin(state: State, params: DemaillyParams) -> float:
    """Minimum of the cone factors over summands and grid points.

    A positive margin certifies discrete Griffiths positivity of the shifted
    curvature; the value may be negative (the check reports, it does not raise).
    """
    return float(np.min(cone_factors(state, params)))


def above_cone_floor(margin: float, params: DemaillyParams) -> bool:
    """The admissibility rule for a cone margin: strictly above the floor.

    Every floor test goes through it, so a margin exactly at the floor is
    refused everywhere, and so is a NaN one.
    """
    return bool(margin > params.cone_floor_value)


def residual(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> tuple[ScalarField, np.ndarray]:
    """Both residuals at a state: (R_f, stacked R_1..R_r).

    Raises ConeViolationError unless every cone factor is above the floor
    (a NaN one is not); the log-determinant is not evaluated outside the cone.
    """
    evaluated = _evaluate(state, curv, params)
    return evaluated.r_f, evaluated.r_u


def residual_sup(r_f: ScalarField, r_u: np.ndarray) -> float:
    """Sup norm over all residual components."""
    return max(float(np.max(np.abs(r_f))), float(np.max(np.abs(r_u))))


@dataclass(frozen=True, eq=False)
class Linearization:
    """The derivative of ``residual`` frozen at one state.

    ``linearize`` keeps the cone factors M_i, e^f and w_i = e^f u_i.  The
    coefficients of dR_f that ``apply_linearization`` needs are formed from
    them on its first call and kept, so a state whose linearization is
    never applied (a rejected trial, a converged one) does not pay for
    them.  Each application then costs one stacked Laplacian of r fields
    (df, du_1..du_{r-1}) and pointwise products.
    """

    grid: Grid
    lam: float
    m: np.ndarray  # M_i, (r, n, n)
    ef: np.ndarray  # e^f, (n, n)
    ef_u: np.ndarray  # e^f u_i, (r, n, n)

    @cached_property
    def potential_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(D, lambda + a, e^f / M_i) with D = sum_i 1/M_i and a = sum_i w_i / M_i."""
        inv_m = 1.0 / self.m
        d = np.sum(inv_m, axis=0)
        lam_a = self.lam + np.sum(self.ef_u * inv_m, axis=0)
        return d, lam_a, self.ef[None, :, :] * inv_m


def linearize(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> Linearization:
    """Freeze the derivative of ``residual`` at ``state``.

    Raises ConeViolationError when the state is outside the cone, where the
    derivative of the log-determinant is undefined.
    """
    return _evaluate(state, curv, params).lin


class Evaluated(NamedTuple):
    """A state with its linearization, its residuals and their sup norm."""

    state: State
    lin: Linearization
    r_f: ScalarField
    r_u: np.ndarray
    res: float


def _evaluate(state: State, curv: CurvatureData, params: DemaillyParams) -> Evaluated:
    """The state evaluated: its residuals and linearization, from one set of cone factors.

    e^f, w = e^f u and the M_i are formed once.  Raises ConeViolationError
    unless every M_i is above the cone floor, so a NaN factor raises too.
    """
    log_a0 = params.log_a0
    ef, w, m = _cone_terms(state, params)
    m_min = float(np.min(m))
    if not above_cone_floor(m_min, params):
        raise ConeViolationError(
            f"cone margin {m_min:.3e} at or below floor {params.cone_floor_value:.3e}"
            f" (t={state.t})"
        )
    r_f = np.sum(np.log(m), axis=0) - params.lam * state.f - log_a0
    r_u = state.lap_u - curv.s - w
    lin = Linearization(grid=state.grid, lam=params.lam, m=m, ef=ef, ef_u=w)
    return Evaluated(state, lin, r_f, r_u, residual_sup(r_f, r_u))


def apply_linearization(
    lin: Linearization, p: Perturbation
) -> tuple[ScalarField, np.ndarray]:
    """Exact Frechet derivative of ``residual`` at the frozen state in direction ``p``.

    dR_f = sum_i (lap(df) - e^f u_i df - e^f du_i) / M_i - lambda df
         = D lap(df) - (lambda + a) df - sum_i (e^f / M_i) du_i
    dR_i = lap(du_i) - e^f u_i df - e^f du_i

    with D = sum_i 1/M_i and a = sum_i e^f u_i / M_i, the coefficients the
    linearization keeps.  Only df and du_1..du_{r-1} are transformed;
    lap(du_r) is taken as -(lap(du_1) + ... + lap(du_{r-1})), which is
    exact for trace-free du (bit for bit at rank 2, where it is -lap(du_1)).
    """
    grid = lin.grid
    df = grid.bind(p.df)
    du = np.asarray(p.du, dtype=float)
    lap = grid.laplacian(np.concatenate([df[None, :, :], du[:-1]]))
    d, lam_a, ef_inv_m = lin.potential_coefficients
    dr_f = d * lap[0] - lam_a * df - np.sum(ef_inv_m * du, axis=0)
    dr_u = _with_trace_row(lap[1:]) - lin.ef_u * df[None, :, :] - lin.ef[None, :, :] * du
    return dr_f, dr_u


_L_INVERSE_MAX_ITERS = 60
_EPS = float(np.finfo(float).eps)


def l_inverse(a, eta):
    """Invert the shifted determinant map: the unique v with prod_i(v + a_i) = eta.

    ``a`` has shape (r, ...) and ``eta`` broadcasts over the trailing shape;
    eta must be positive and finite.  The root satisfies v + a_i > 0 for
    every i and is strictly increasing in eta.  Scalar inputs return a float.

    At rank 2 the map is a quadratic in x = v + a_min: with d = a_max - a_min,
    x (x + d) = eta, whose positive root is taken in the cancellation-free
    form x = 2 eta / (d + hypot(d, 2 sqrt(eta))), finite for |log eta| < 700.

    At every other rank Newton runs in x = log(v + a_min) with
    d_i = a_i - a_min >= 0, on

        h(x) = sum_i log(e^x + d_i) - log(eta),

    which is convex and increasing with h' = sum_i e^x / (e^x + d_i) >= 1.
    It starts from x = log(eta) / r, where h >= 0, so the iterates decrease
    monotonically to the root and every factor e^x + d_i stays positive.  The
    iteration stops once h is at its rounding level; reaching the iteration
    cap raises RuntimeError.  At every rank, when v + a_min is below the
    rounding of a_min the returned v is the next float above -a_min, the
    nearest value with every v + a_i > 0.
    """
    a_arr = np.asarray(a, dtype=float)
    if a_arr.ndim == 0:
        a_arr = a_arr[None]
    eta_arr = np.asarray(eta, dtype=float)
    scalar = eta_arr.ndim == 0 and a_arr.ndim == 1
    if not np.all((eta_arr > 0) & np.isfinite(eta_arr)):
        raise ValueError("eta must be positive and finite")
    r = a_arr.shape[0]
    a_min = np.min(a_arr, axis=0)
    if r == 2:
        d = np.max(a_arr, axis=0) - a_min
        x = 2.0 * eta_arr / (d + np.hypot(d, 2.0 * np.sqrt(eta_arr)))
    else:
        x = np.exp(_l_inverse_log_newton(a_arr - a_min, np.log(eta_arr)))
    v = np.maximum(x - a_min, np.nextafter(-a_min, np.inf))
    return float(v) if scalar else v


def _l_inverse_log_newton(d, log_eta):
    """The root x = log(v + a_min) of h in ``l_inverse``, by Newton from log(eta) / r."""
    x = log_eta / d.shape[0]
    # Loop-invariant part of the rounding level of h below.
    noise_base = 1.0 + np.abs(log_eta)
    for _ in range(_L_INVERSE_MAX_ITERS):
        ex = np.exp(x)
        w = ex + d
        logs = np.log(w)
        h = np.sum(logs, axis=0) - log_eta
        x = x - h / np.sum(ex / w, axis=0)
        # Rounding level of h: a few ulps of the logs it sums.
        noise = 4.0 * _EPS * (noise_base + np.sum(np.abs(logs), axis=0))
        if np.all(np.abs(h) <= noise):
            return x
    raise RuntimeError(
        f"l_inverse did not converge in {_L_INVERSE_MAX_ITERS} iterations"
    )
