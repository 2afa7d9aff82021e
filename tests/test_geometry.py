"""Grid construction, spectral operators, and the Green kernel."""

import numpy as np
import pytest

from demlab import (
    green_reconstruct,
    greens_kernel,
    make_grid,
    random_band_limited,
    spectral_resample,
)
from demlab import geometry


def test_make_grid_normalization():
    grid = make_grid(8, 4.0)
    assert grid.integrate(np.ones((8, 8))) == pytest.approx(4.0, abs=1e-14)
    fine = make_grid(64, 4.0)
    assert fine.integrate(np.ones((64, 64))) == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize(
    "n, area",
    [(7, 4.0), (6, 4.0), (4, 4.0), (12, 4.0), (16, 0.0), (16, -1.0)],
)
def test_make_grid_rejects_bad_input(n, area):
    with pytest.raises(ValueError):
        make_grid(n, area)


def test_laplacian_of_constant_is_zero():
    grid = make_grid(16, 4.0)
    lap = grid.laplacian(np.full((16, 16), 2.7))
    assert np.max(np.abs(lap)) < 1e-13


def test_laplacian_fourier_multiplier():
    # With total area 4, the mode cos(2 pi x) is an eigenfunction with
    # eigenvalue -4 pi^2 / (2*4) = -pi^2/2.
    grid = make_grid(64, 4.0)
    v = grid.sample(lambda X, Y: np.cos(2 * np.pi * X))
    lap = grid.laplacian(v)
    assert np.max(np.abs(lap - (-np.pi**2 / 2) * v)) < 1e-12


def test_laplacian_nonpositive_at_argmax():
    grid = make_grid(64, 4.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = random_band_limited(grid, rng, kmax=4)
        idx = np.unravel_index(np.argmax(v), v.shape)
        assert grid.laplacian(v)[idx] <= 1e-10


def test_laplacian_stacked_fields():
    grid = make_grid(16, 4.0)
    rng = np.random.default_rng(0)
    fields = np.stack([random_band_limited(grid, rng) for _ in range(3)])
    stacked = grid.laplacian(fields)
    for i in range(3):
        assert np.array_equal(stacked[i], grid.laplacian(fields[i]))


def _complex_fft_laplacian(grid, v):
    # Reference: the full complex spectrum with the |k|^2 multiplier.
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    mult = -(2.0 * np.pi**2 / grid.total_area) * (kx**2 + ky**2)
    return np.real(np.fft.ifft2(mult * np.fft.fft2(v, axes=(-2, -1)), axes=(-2, -1)))


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_laplacian_matches_complex_fft_reference(n, shape):
    # White noise carries content up to and including the Nyquist row and
    # column, where the half spectrum differs most from the full one.
    grid = make_grid(n, 4.0)
    v = np.random.default_rng(n).normal(size=shape + (n, n))
    ref = _complex_fft_laplacian(grid, v)
    lap = grid.laplacian(v)
    assert lap.shape == v.shape
    assert np.max(np.abs(lap - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_mean_value_examples():
    grid = make_grid(32, 4.0)
    X, _ = grid.coords()
    assert grid.mean_value(np.full((32, 32), 3.0)) == pytest.approx(3.0, abs=1e-14)
    assert grid.mean_value(np.cos(2 * np.pi * X)) == pytest.approx(0.0, abs=1e-14)
    assert grid.mean_value(1 + np.cos(2 * np.pi * X)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_examples():
    grid = make_grid(32, 4.0)
    X, _ = grid.coords()
    assert grid.integrate(np.ones((32, 32))) == pytest.approx(4.0, abs=1e-14)
    assert grid.integrate(np.cos(2 * np.pi * X)) == pytest.approx(0.0, abs=1e-13)
    assert grid.integrate(np.full((32, 32), -0.25)) == pytest.approx(-1.0, abs=1e-14)


def test_laplacian_self_adjoint():
    grid = make_grid(32, 6.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_band_limited(grid, rng, kmax=5)
        v = random_band_limited(grid, rng, kmax=5)
        left = grid.integrate(u * grid.laplacian(v))
        right = grid.integrate(v * grid.laplacian(u))
        scale = max(abs(left), abs(right), 1e-30)
        assert abs(left - right) / scale < 1e-12


def test_laplacian_negative_semidefinite():
    grid = make_grid(32, 4.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = random_band_limited(grid, rng, kmax=5, zero_mean=True)
        quad = grid.integrate(v * grid.laplacian(v))
        assert quad < 0.0
    const = np.full((32, 32), 1.3)
    assert abs(grid.integrate(const * grid.laplacian(const))) < 1e-12


def test_laplacian_integrates_to_zero():
    grid = make_grid(32, 4.0)
    rng = np.random.default_rng(11)
    v = random_band_limited(grid, rng, kmax=6, amplitude=3.0)
    assert abs(grid.integrate(grid.laplacian(v))) < 1e-12 * np.max(np.abs(v))


def test_greens_kernel_normalization_and_symmetry():
    grid = make_grid(16, 4.0)
    kernel = greens_kernel(grid)
    g = kernel.values
    assert g.max() == 0.0
    assert g.min() < 0.0
    # G(w) = G(-w) up to grid indexing.
    flipped = np.roll(np.flip(g, axis=(0, 1)), shift=(1, 1), axis=(0, 1))
    assert np.max(np.abs(g - flipped)) < 1e-12


def test_greens_kernel_row_integrals_constant():
    # Translation invariance: the integral of G(x, .) is the same for all x.
    grid = make_grid(16, 4.0)
    g = greens_kernel(grid).values
    totals = []
    for x in [(0, 0), (3, 5), (8, 8), (15, 1)]:
        row = np.roll(g, shift=x, axis=(0, 1))  # G(x - y) as a field in y
        totals.append(grid.integrate(row))
    assert np.max(np.abs(np.diff(totals))) < 1e-12


def test_green_reconstruct_constant():
    grid = make_grid(16, 4.0)
    v = np.full((16, 16), -1.5)
    out = green_reconstruct(greens_kernel(grid), v)
    assert np.max(np.abs(out - v)) < 1e-13


def test_green_reconstruct_band_limited():
    grid = make_grid(64, 4.0)
    v = grid.sample(lambda X, Y: np.cos(2 * np.pi * X) + np.sin(2 * np.pi * Y))
    out = green_reconstruct(greens_kernel(grid), v)
    assert np.max(np.abs(out - v)) <= 1e-10


def test_green_reconstruct_kernel_shift_invariance():
    from demlab import GreenKernel

    grid = make_grid(32, 4.0)
    kernel = greens_kernel(grid)
    shifted = GreenKernel(grid, kernel.values + 17.3)
    rng = np.random.default_rng(2)
    v = random_band_limited(grid, rng, kmax=5)
    a = green_reconstruct(kernel, v)
    b = green_reconstruct(shifted, v)
    assert np.max(np.abs(a - b)) < 1e-11


def test_spectral_resample_band_limited_exact():
    coarse = make_grid(16, 4.0)
    fine = make_grid(64, 4.0)
    fn = lambda X, Y: np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y) + 0.3 * np.sin(
        2 * np.pi * 3 * X
    )
    up = spectral_resample(coarse, coarse.sample(fn), 64)
    assert np.max(np.abs(up - fine.sample(fn))) < 1e-12


def test_spectral_resample_nyquist_mode_exact():
    # cos(pi n x) sits on the coarse Nyquist row; splitting it between
    # +n/2 and -n/2 on the fine grid reproduces the same cosine.
    coarse = make_grid(16, 4.0)
    fine = make_grid(32, 4.0)
    fn = lambda X, Y: np.cos(2 * np.pi * 8 * X) + np.cos(2 * np.pi * 8 * X) * np.cos(
        2 * np.pi * 8 * Y
    )
    up = spectral_resample(coarse, coarse.sample(fn), 32)
    assert up.dtype == np.float64
    assert np.max(np.abs(up - fine.sample(fn))) < 1e-12


def test_spectral_resample_rejects_coarsening():
    grid = make_grid(16, 4.0)
    with pytest.raises(ValueError):
        spectral_resample(grid, np.zeros((16, 16)), 8)


def test_spectral_truncate_keeps_modes_below_the_coarse_nyquist():
    # Truncation to m keeps |kx|, |ky| < m/2 exactly and drops the rest, so
    # padding back gives the band-limited part; a stack goes through at once.
    fine = make_grid(64, 4.0)
    coarse = make_grid(16, 4.0)
    low = lambda X, Y: np.cos(2 * np.pi * (7 * X - 3 * Y)) + 0.5 * np.sin(2 * np.pi * 5 * Y)
    high = lambda X, Y: 1e-3 * np.cos(2 * np.pi * 8 * X) + 1e-3 * np.sin(2 * np.pi * 11 * Y)
    fields = np.stack([fine.sample(low), fine.sample(lambda X, Y: low(X, Y) + high(X, Y))])
    cut = geometry._spectral_truncate(fine, fine.rfft2(fields), coarse)
    assert cut.shape == (2, 16, 16)
    assert np.max(np.abs(cut - coarse.sample(low))) < 1e-13
    back = geometry._spectral_pad(coarse, coarse.rfft2(cut), fine)
    assert np.max(np.abs(back - fine.sample(low))) < 1e-13


def test_random_band_limited_properties():
    grid = make_grid(32, 4.0)
    rng = np.random.default_rng(9)
    v = random_band_limited(grid, rng, kmax=3, amplitude=0.5, zero_mean=True)
    assert np.max(np.abs(v)) == pytest.approx(0.5, rel=1e-12)
    assert abs(v.mean()) < 1e-15
    spec = np.fft.fft2(v)
    mask = np.ones((32, 32), dtype=bool)
    for kx in range(-3, 4):
        for ky in range(-3, 4):
            mask[kx % 32, ky % 32] = False
    assert np.max(np.abs(spec[mask])) < 1e-10 * np.max(np.abs(spec))
