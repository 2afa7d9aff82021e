"""Spectral calculus on the flat unit-square torus.

The base surface is the torus [0,1)^2 sampled on an n-by-n uniform grid,
carrying the area form ``omega0 = total_area * dx dy``.  With that
normalization, integrals of curvature densities come out as plain integer
degrees, with no stray factors of 2*pi.

The Laplacian is the constant multiple of the Euclidean one consistent with
the area form,

    lap(v) = (1 / (2 * total_area)) * (v_xx + v_yy),

so it is nonpositive at interior maxima.  All derivatives are computed as
Fourier multipliers on the half spectrum of real FFTs; band-limited fields
are therefore differentiated to machine precision, which keeps the test
tolerances tight.  ``Grid.rfft2`` and ``Grid.irfft2`` hold the transform
code (``numpy.fft``) of every derivative and solve; only
``random_band_limited`` calls ``numpy.fft.ifft2`` directly, to draw its
fields.

A scalar field is a plain ``numpy`` array of shape (n, n) bound to a Grid;
``Grid.bind`` enforces the binding (shape and finiteness).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ScalarField = np.ndarray


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n sampling of the unit-square torus with area ``total_area``.

    Points sit at coordinates (j/n, k/n).  The quadrature weight per point is
    ``total_area / n**2``, which makes ``integrate`` exact for trigonometric
    polynomials below the Nyquist frequency.
    """

    n: int
    total_area: float

    @cached_property
    def cell_weight(self) -> float:
        return self.total_area / float(self.n * self.n)

    @cached_property
    def laplacian_multiplier(self) -> np.ndarray:
        """Half-spectrum multiplier of the Laplacian: -(2*pi^2/total_area)*|k|^2.

        Shape (n, n//2 + 1), matching ``rfft2`` of an (n, n) field: integer
        frequencies 0..n/2-1, -n/2..-1 along rows and 0..n/2 along columns.
        """
        kx = np.fft.fftfreq(self.n, d=1.0 / self.n)[:, None]
        ky = np.fft.rfftfreq(self.n, d=1.0 / self.n)[None, :]
        return -(2.0 * np.pi**2 / self.total_area) * (kx**2 + ky**2)

    def rfft2(self, v: np.ndarray) -> np.ndarray:
        """Half spectrum of a field or a stack of fields (last two axes).

        Two 1-D passes: a real transform along the last axis, then a complex
        one along the one before.  ``numpy.fft.rfft2`` computes the same but
        runs slower.
        """
        half = np.fft.rfft(v, axis=-1)
        return np.fft.fft(half, axis=-2, out=half)

    def irfft2(self, v_hat: np.ndarray) -> np.ndarray:
        """Real fields from half spectra shaped like ``laplacian_multiplier``."""
        return np.fft.irfft(np.fft.ifft(v_hat, axis=-2), n=self.n, axis=-1)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (X, Y) of sample coordinates, 'ij' indexing."""
        x = np.arange(self.n) / self.n
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def sample(self, fn) -> np.ndarray:
        """Evaluate ``fn(X, Y)`` on the grid and bind the result."""
        X, Y = self.coords()
        return self.bind(fn(X, Y))

    def bind(self, v) -> np.ndarray:
        """Validate that ``v`` is an (n, n) array of finite reals."""
        arr = np.asarray(v, dtype=float)
        if arr.shape != (self.n, self.n):
            raise ValueError(
                f"field shape {arr.shape} does not match grid ({self.n}, {self.n})"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        return arr

    def laplacian(self, v: ScalarField) -> ScalarField:
        """Apply the normalized Laplacian spectrally.

        Stacked inputs of shape (..., n, n) are transformed along the last
        two axes, so families of fields go through one call.
        """
        arr = np.asarray(v, dtype=float)
        if arr.shape[-2:] != (self.n, self.n):
            raise ValueError(
                f"field shape {arr.shape} does not match grid ({self.n}, {self.n})"
            )
        return self.irfft2(self.laplacian_multiplier * self.rfft2(arr))

    def mean_value(self, v: ScalarField) -> float:
        """Area-form average: integral of v against omega0 over total_area."""
        return float(np.mean(self.bind(v)))

    def integrate(self, v: ScalarField) -> float:
        """Integral of v against omega0."""
        return float(np.sum(self.bind(v)) * self.cell_weight)

    def sup(self, v) -> float:
        """Sup norm of a field or a stack of fields."""
        return float(np.max(np.abs(v))) if np.size(v) else 0.0


def make_grid(n: int, total_area: float) -> Grid:
    """Construct a Grid, enforcing the sampling preconditions.

    ``n`` must be a power of two, at least 8 (fast transforms, enough
    resolution for the Green kernel to be nontrivial); ``total_area`` must be
    positive so that omega0 is an area form.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"grid size must be an integer, got {n!r}")
    if n < 8 or not _is_power_of_two(int(n)):
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")
    if not (float(total_area) > 0.0):
        raise ValueError(f"total area must be positive, got {total_area}")
    return Grid(int(n), float(total_area))


@dataclass(frozen=True, eq=False)
class GreenKernel:
    """Translation-invariant Green kernel G(x - y) for the grid Laplacian.

    Normalized so that max G = 0 (hence G <= 0 everywhere), matching the
    sign convention used in the reconstruction identity.
    """

    grid: Grid
    values: np.ndarray


def greens_kernel(grid: Grid) -> GreenKernel:
    """Kernel solving lap_y G(x,y) = delta_x(y) - 1/total_area.

    The delta is taken with respect to the omega0 measure, so the discrete
    spike carries value n^2/total_area at the base point.  The solve fixes
    zero mean on the kernel, then shifts by a constant so that max G = 0.
    """
    n = grid.n
    mult = grid.laplacian_multiplier.copy()
    mult[0, 0] = 1.0  # unused: rhs has no mean component
    g_hat = (n * n / grid.total_area) / mult
    g_hat[0, 0] = 0.0
    g = grid.irfft2(g_hat)
    g -= g.max()
    return GreenKernel(grid, g)


def green_reconstruct(kernel: GreenKernel, v: ScalarField) -> ScalarField:
    """Rebuild v from its average and its Laplacian through the kernel.

    Computes mean(v) + integral of G(x,y) * lap(v)(y) d omega0(y), which
    reproduces v exactly (to spectral accuracy) for smooth sampled fields.
    The result does not depend on the additive normalization of the kernel
    because lap(v) has zero integral.
    """
    grid = kernel.grid
    w = grid.laplacian(grid.bind(v))
    conv = grid.irfft2(grid.rfft2(kernel.values) * grid.rfft2(w))
    return grid.mean_value(v) + conv * grid.cell_weight


def spectral_resample(grid: Grid, v: ScalarField, n_new: int) -> np.ndarray:
    """Resample a field onto a finer n_new-by-n_new grid via Fourier padding.

    Exact for fields band-limited below the coarse Nyquist frequency; used
    for cross-grid comparisons in convergence studies.  The coarse Nyquist
    row and column are split evenly between +n/2 and -n/2 on the fine grid,
    so the padded spectrum stays Hermitian and the output real.
    """
    n = grid.n
    if n_new < n:
        raise ValueError("spectral_resample only refines: n_new >= grid.n required")
    arr = grid.bind(v)
    if n_new == n:
        return arr.copy()
    return _spectral_pad(grid, grid.rfft2(arr), Grid(n_new, grid.total_area))


def _spectral_rows(n_coarse: int, n_fine: int) -> np.ndarray:
    """Rows of an n_fine half spectrum that hold the rows of an n_coarse one, in order.

    Row j of the coarse spectrum holds the frequency j for j < n_coarse/2
    and j - n_coarse above, so it sits at row j or j - n_coarse + n_fine.
    """
    h = n_coarse // 2
    return np.r_[0:h, n_fine - h : n_fine]


def _spectral_pad(grid: Grid, spectrum: np.ndarray, fine: Grid) -> np.ndarray:
    """The fields with half spectra ``spectrum`` on ``grid``, Fourier-padded onto ``fine``.

    ``spectrum`` stacks half spectra on its leading axes; the coarse
    Nyquist row and column are split as ``spectral_resample`` describes.
    """
    h = grid.n // 2
    coarse = spectrum * (float(fine.n) / grid.n) ** 2
    coarse[..., h, :] *= 0.5
    coarse[..., h] *= 0.5
    padded = np.zeros(spectrum.shape[:-2] + (fine.n, fine.n // 2 + 1), dtype=complex)
    padded[..., _spectral_rows(grid.n, fine.n), : h + 1] = coarse
    # The other half of the split Nyquist row, at +n/2.
    padded[..., h, : h + 1] = coarse[..., h, :]
    return fine.irfft2(padded)


def _spectral_truncate(grid: Grid, spectrum: np.ndarray, coarse: Grid) -> np.ndarray:
    """The fields with half spectra ``spectrum`` on ``grid``, truncated onto ``coarse``.

    Keeps the modes with |kx|, |ky| below half the coarse size and drops
    the rest, the coarse Nyquist row and column included, so padding the
    result back gives the band-limited part of each field.  ``spectrum``
    stacks half spectra on its leading axes.
    """
    h = coarse.n // 2
    low = spectrum[..., _spectral_rows(coarse.n, grid.n), : h + 1]
    low *= (float(coarse.n) / grid.n) ** 2
    low[..., h, :] = 0.0
    low[..., h] = 0.0
    return coarse.irfft2(low)


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    kmax: int = 3,
    amplitude: float = 1.0,
    zero_mean: bool = False,
) -> np.ndarray:
    """Random smooth field supported on Fourier modes |kx|, |ky| <= kmax.

    Normalized to the requested sup amplitude.  Useful as a stress direction
    for gradient checks and multistart experiments.
    """
    n = grid.n
    if kmax >= n // 2:
        raise ValueError("kmax must stay below the Nyquist frequency")
    spec = np.zeros((n, n), dtype=complex)
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if zero_mean and kx == 0 and ky == 0:
                continue
            spec[kx % n, ky % n] = rng.normal() + 1j * rng.normal()
    field = np.real(np.fft.ifft2(spec)) * n
    if zero_mean:
        field -= field.mean()
    top = np.max(np.abs(field))
    if top > 0:
        field *= amplitude / top
    return field
