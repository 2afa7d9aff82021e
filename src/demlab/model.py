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
        X, Y = grid.coords()
        return self.amplitude * np.cos(2 * np.pi * self.kx * X) * np.cos(
            2 * np.pi * self.ky * Y
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
    max_iters: int = 50
    dt0: float = 0.05
    dt_floor: float = 1e-4

    def __post_init__(self):
        if not _positive_real(self.lam):
            raise ValueError(f"lambda must be a positive real, got {self.lam}")
        if self.alpha0 is not None and not np.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not _positive_real(self.newton_tol) or self.max_iters < 1:
            raise ValueError("newton_tol must be positive and max_iters >= 1")
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

    def require_a0(self) -> np.ndarray:
        if self.a0 is None:
            raise ValueError("reference density a0 not set; run the t=0 construction first")
        return self.a0


@dataclass(frozen=True, eq=False)
class State:
    """A continuation iterate: potential f, twist logs u_1..u_r, parameter t.

    The determinant-one constraint sum_i u_i = 0 is a property of solver
    output, not a construction-time requirement: diagnostics measure it, so
    deliberately broken states (for verification tests) remain expressible.
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
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "u", u)

    @property
    def rank(self) -> int:
        return self.u.shape[0]

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


def cone_shift(f, u, t: float, alpha0: float) -> np.ndarray:
    """The cone factors without lap(f): 1/r - e^f u_i + (1-t) alpha0.

    ``u`` stacks u_1..u_r on its first axis and ``f`` broadcasts against
    each u_i, so the shift is taken on whole fields or at a single point.
    """
    return 1.0 / len(u) - np.exp(f) * u + (1.0 - t) * alpha0


def cone_factors(state: State, params: DemaillyParams) -> np.ndarray:
    """The matrix entries M_i = lap(f) + 1/r - e^f u_i + (1-t) alpha0, shape (r, n, n)."""
    if params.alpha0 is None:
        raise ValueError("alpha0 not set")
    lap_f = state.grid.laplacian(state.f)
    return lap_f[None, :, :] + cone_shift(state.f, state.u, state.t, params.alpha0)


def cone_margin(state: State, params: DemaillyParams) -> float:
    """Minimum of the cone factors over summands and grid points.

    A positive margin certifies discrete Griffiths positivity of the shifted
    curvature; the value may be negative (the check reports, it does not raise).
    """
    return float(np.min(cone_factors(state, params)))


def _admissible_cone_factors(state: State, params: DemaillyParams) -> np.ndarray:
    """``cone_factors``, raising ConeViolationError at or below the cone floor."""
    m = cone_factors(state, params)
    floor = params.cone_floor_value
    m_min = float(np.min(m))
    if m_min <= floor:
        raise ConeViolationError(
            f"cone margin {m_min:.3e} at or below floor {floor:.3e} (t={state.t})"
        )
    return m


def residual(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> tuple[ScalarField, np.ndarray]:
    """Both residuals at a state: (R_f, stacked R_1..R_r).

    Raises ConeViolationError when any cone factor drops to the floor or
    below; the log-determinant is not evaluated outside the cone.
    """
    a0 = params.require_a0()
    m = _admissible_cone_factors(state, params)
    r_f = np.sum(np.log(m), axis=0) - params.lam * state.f - np.log(a0)
    r_u = state.grid.laplacian(state.u) - curv.s - np.exp(state.f)[None, :, :] * state.u
    return r_f, r_u


def residual_sup(r_f: ScalarField, r_u: np.ndarray) -> float:
    """Sup norm over all residual components."""
    return max(float(np.max(np.abs(r_f))), float(np.max(np.abs(r_u))))


@dataclass(frozen=True, eq=False)
class Linearization:
    """The derivative of ``residual`` frozen at one state.

    Everything that depends only on the state is computed once by
    ``linearize``, so each ``apply_linearization`` costs one stacked
    Laplacian and pointwise products.  ``m`` holds the cone factors M_i.
    """

    grid: Grid
    lam: float
    m: np.ndarray  # M_i, (r, n, n)
    inv_m: np.ndarray  # 1 / M_i
    ef: np.ndarray  # e^f, (n, n)
    ef_u: np.ndarray  # e^f u_i, (r, n, n)


def linearize(
    state: State, curv: CurvatureData, params: DemaillyParams
) -> Linearization:
    """Freeze the derivative of ``residual`` at ``state``.

    Raises ConeViolationError when the state is outside the cone, where the
    derivative of the log-determinant is undefined.  ``curv`` enters the
    residual only as a constant, so the derivative does not read it.
    """
    m = _admissible_cone_factors(state, params)
    ef = np.exp(state.f)
    return Linearization(
        grid=state.grid,
        lam=params.lam,
        m=m,
        inv_m=1.0 / m,
        ef=ef,
        ef_u=ef[None, :, :] * state.u,
    )


def apply_linearization(
    lin: Linearization, p: Perturbation
) -> tuple[ScalarField, np.ndarray]:
    """Exact Frechet derivative of ``residual`` at the frozen state in direction ``p``.

    dR_f = sum_i (lap(df) - e^f u_i df - e^f du_i) / M_i - lambda df
    dR_i = lap(du_i) - e^f u_i df - e^f du_i
    """
    grid = lin.grid
    df = grid.bind(p.df)
    du = np.asarray(p.du, dtype=float)
    lap = grid.laplacian(np.concatenate([df[None, :, :], du]))
    ef_u_df = lin.ef_u * df[None, :, :]
    ef_du = lin.ef[None, :, :] * du
    dm = lap[:1] - ef_u_df - ef_du
    dr_f = np.sum(dm * lin.inv_m, axis=0) - lin.lam * df
    dr_u = lap[1:] - ef_u_df - ef_du
    return dr_f, dr_u


_L_INVERSE_MAX_ITERS = 60
_EPS = float(np.finfo(float).eps)


def l_inverse(a, eta):
    """Invert the shifted determinant map: the unique v with prod_i(v + a_i) = eta.

    ``a`` has shape (r, ...) and ``eta`` broadcasts over the trailing shape;
    eta must be positive and finite.  The root satisfies v + a_i > 0 for
    every i and is strictly increasing in eta.  Scalar inputs return a float.

    Newton runs in x = log(v + a_min) with d_i = a_i - a_min >= 0, on

        h(x) = sum_i log(e^x + d_i) - log(eta),

    which is convex and increasing with h' = sum_i e^x / (e^x + d_i) >= 1.
    It starts from x = log(eta) / r, where h >= 0, so the iterates decrease
    monotonically to the root and every factor e^x + d_i stays positive.  The
    iteration stops once h is at its rounding level; reaching the iteration
    cap raises RuntimeError.  When e^x is below the rounding of a_min the
    returned v is the next float above -a_min, the nearest value with every
    v + a_i > 0.
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
    d = a_arr - a_min
    log_eta = np.log(eta_arr)
    x = log_eta / r
    for _ in range(_L_INVERSE_MAX_ITERS):
        ex = np.exp(x)
        w = ex + d
        logs = np.log(w)
        h = np.sum(logs, axis=0) - log_eta
        x = x - h / np.sum(ex / w, axis=0)
        # Rounding level of h: a few ulps of the logs it sums.
        noise = 4.0 * _EPS * (1.0 + np.abs(log_eta) + np.sum(np.abs(logs), axis=0))
        if np.all(np.abs(h) <= noise):
            break
    else:
        raise RuntimeError(
            f"l_inverse did not converge in {_L_INVERSE_MAX_ITERS} iterations"
        )
    v = np.maximum(np.exp(x) - a_min, np.nextafter(-a_min, np.inf))
    return float(v) if scalar else v
