"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The expensive n=64 marches are shared through session fixtures.
"""

import json
import time

import numpy as np
import pytest

from demlab import (
    BundleSpec,
    DemaillyParams,
    Perturbation,
    State,
    apply_linearization,
    closed_form_state,
    linearize,
    build_curvature,
    green_reconstruct,
    greens_kernel,
    make_grid,
    march,
    multistart_uniqueness,
    newton_at_t,
    picard_step,
    random_band_limited,
    residual,
    residual_sup,
    solve_helmholtz,
    solve_t0,
    spectral_resample,
    state_distance,
)
from demlab import homotopy
from demlab.cli import main as cli_main

# Independently recomputed constant-branch values for degrees (1, 3),
# alpha0 = 10, lambda = 8 (high-precision arithmetic on the closed form).
F_ONE = -0.7970199867162201
U1_ONE = +0.5547296647720260


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# The acceptance marches run with every floating-point warning raised, so an
# overflow or an invalid operation anywhere on their path fails the suite.


@pytest.fixture(scope="session")
def constant_march_64():
    grid = make_grid(64, 4.0)
    spec = BundleSpec((1, 3))
    start = time.perf_counter()
    with np.errstate(all="raise"):
        report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    elapsed = time.perf_counter() - start
    return grid, spec, report, elapsed


@pytest.fixture(scope="session")
def cosine_march_64():
    grid = make_grid(64, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    with np.errstate(all="raise"):
        report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    return grid, spec, report


@pytest.mark.parametrize(
    "spec, lam",
    [
        (BundleSpec((-1, 5)), 8.0),
        (BundleSpec.cosine_pair((1, 2, 3), 0.3, ((1, 1), (2, 0))), 10.0),
    ],
    ids=["non-ample", "rank-3"],
)
def test_march_strict_numerics(spec, lam):
    grid = make_grid(64, float(spec.degree_sum))
    with np.errstate(all="raise"):
        report = march(spec, DemaillyParams(lam=lam, alpha0=10.0), grid)
    assert report.reached_t1 == spec.is_ample


@pytest.fixture(scope="session")
def fixed_step_marches_64():
    # The adaptive step skips most of [0, 1]; with growth switched off the
    # constant and cosine marches also visit every state of the 0.05 grid,
    # which criteria 1, 3, 4 and 5 check as well.
    grid = make_grid(64, 4.0)
    params = DemaillyParams(lam=8.0, alpha0=10.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homotopy, "_GROW_FACTOR", 1.0)
        constant = march(BundleSpec((1, 3)), params, grid)
        cosine = march(BundleSpec.cosine_pair((1, 3), 0.2), params, grid)
    return constant, cosine


def test_criterion_01_closed_form_reproduction(constant_march_64, fixed_step_marches_64):
    grid, spec, report, elapsed = constant_march_64
    fixed = fixed_step_marches_64[0]
    worst = max(
        state_distance(s.state, closed_form_state(spec, report.params, grid, s.t))
        for s in report.steps + fixed.steps
    )
    final = report.final_state
    f1 = float(final.f[0, 0])
    u1 = float(final.u[0, 0, 0])
    ok = (
        report.reached_t1
        and len(fixed.steps) == 21
        and worst <= 1e-8
        and abs(f1 - F_ONE) <= 1e-8
        and abs(u1 - U1_ONE) <= 1e-8
        and elapsed <= 60.0
    )
    _report(
        1,
        ok,
        f"march reached t=1 in {elapsed:.1f}s, worst closed-form gap {worst:.2e} "
        f"over {len(report.steps)} + {len(fixed.steps)} fixed-step states, "
        f"f(1)={f1:.5f}, u1(1)={u1:.5f}",
    )


def test_criterion_02_t0_exactness_and_uniqueness():
    details = []
    ok = True
    for label, spec in [
        ("constant", BundleSpec((1, 3))),
        ("cosine", BundleSpec.cosine_pair((1, 3), 0.2)),
    ]:
        grid = make_grid(64, 4.0)
        curv = build_curvature(spec, grid)
        state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
        res = residual_sup(*residual(state0, curv, params))
        ok = ok and res <= 1e-10
        gap_grid = make_grid(32, 4.0)
        gap_curv = build_curvature(spec, gap_grid)
        result = multistart_uniqueness(
            gap_curv, DemaillyParams(lam=8.0, alpha0=10.0), k=5, seed=3
        )
        ok = ok and result.n_converged == 5 and result.max_gap <= 1e-8
        details.append(f"{label}: res={res:.1e} gap={result.max_gap:.1e}")
    _report(2, ok, "; ".join(details))


def test_criterion_03_integral_identity(cosine_march_64, fixed_step_marches_64):
    _, _, report = cosine_march_64
    fixed = fixed_step_marches_64[1]
    worst = max(max(s.diagnostics.identity_errors) for s in report.steps + fixed.steps)
    ok = report.reached_t1 and fixed.reached_t1 and len(fixed.steps) == 21 and worst <= 1e-6
    _report(3, ok, f"perturbed march worst identity error {worst:.2e} (<= 1e-6)")


def test_criterion_04_trace_constraint(constant_march_64, cosine_march_64, fixed_step_marches_64):
    worst = 0.0
    for report in (constant_march_64[2], cosine_march_64[2], *fixed_step_marches_64):
        worst = max(worst, max(s.diagnostics.trace_sup for s in report.steps))
    _report(4, worst <= 1e-10, f"worst |sum u_i| over accepted states {worst:.2e}")


def test_criterion_05_uy_inequality(constant_march_64, cosine_march_64, fixed_step_marches_64):
    worst_rel = -np.inf
    for report in (constant_march_64[2], cosine_march_64[2], *fixed_step_marches_64):
        for s in report.steps:
            worst_rel = max(worst_rel, s.diagnostics.uy_violation / s.diagnostics.uy_tol)
    constant_eq = max(
        abs(s.diagnostics.uy_violation)
        for s in constant_march_64[2].steps + fixed_step_marches_64[0].steps
    )
    ok = worst_rel <= 1.0 and constant_eq <= 1e-10
    _report(
        5,
        ok,
        f"worst violation {worst_rel:.2e} of tolerance; constant-branch equality "
        f"defect {constant_eq:.2e}",
    )


def test_criterion_06_jacobian_consistency():
    grid = make_grid(16, 4.0)
    spec = BundleSpec((1, 3))
    curv = build_curvature(spec, grid)
    _, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(6)
    eps = 1e-5
    worst = 0.0
    drawn = 0
    while drawn < 10:
        t = rng.uniform(0.0, 1.0)
        anchor = closed_form_state(spec, params, grid, t)
        from demlab import cone_margin

        margin = cone_margin(anchor, params)
        amp = 0.01 * margin
        f = anchor.f + random_band_limited(grid, rng, kmax=2, amplitude=amp)
        du = np.stack(
            [random_band_limited(grid, rng, kmax=2, amplitude=amp) for _ in range(2)]
        )
        du -= du.mean(axis=0)
        state = State(grid, f, anchor.u + du, t)
        if cone_margin(state, params) < 0.4 * margin:
            continue
        drawn += 1
        p_df = random_band_limited(grid, rng, kmax=3)
        p_du = np.stack([random_band_limited(grid, rng, kmax=3) for _ in range(2)])
        p_du -= p_du.mean(axis=0)
        p = Perturbation(p_df, p_du)
        dr_f, dr_u = apply_linearization(linearize(state, curv, params), p)
        plus = State(grid, state.f + eps * p.df, state.u + eps * p.du, t)
        minus = State(grid, state.f - eps * p.df, state.u - eps * p.du, t)
        rf_p, ru_p = residual(plus, curv, params)
        rf_m, ru_m = residual(minus, curv, params)
        fd_f = (rf_p - rf_m) / (2 * eps)
        fd_u = (ru_p - ru_m) / (2 * eps)
        scale = max(np.max(np.abs(fd_f)), np.max(np.abs(fd_u)))
        err = max(np.max(np.abs(dr_f - fd_f)), np.max(np.abs(dr_u - fd_u))) / scale
        worst = max(worst, err)
    _report(6, worst <= 1e-6, f"worst relative derivative error {worst:.2e} over 10 states")


def test_criterion_07_ampleness_necessity():
    grid = make_grid(16, 4.0)
    spec = BundleSpec((-1, 5))
    report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    params = report.params
    # Constant-branch cone zero 1 + min_i d_i / (deg E alpha0), to within
    # one floor step plus the t-offset of the cone floor.
    predicted = 1.0 + min(spec.degrees) / (spec.degree_sum * params.alpha0)
    bound = params.dt_floor + params.cone_floor_value / params.alpha0
    margins = [s.diagnostics.cone_margin for s in report.steps[-5:]]
    ok = (
        report.breakdown_t is not None
        and abs(report.breakdown_t - predicted) <= bound
        and all(b < a for a, b in zip(margins, margins[1:]))
    )
    _report(
        7,
        ok,
        f"breakdown t*={report.breakdown_t:.6f} within {bound:.2e} of {predicted:.6f}, "
        "last margins " + "->".join(f"{m:.1e}" for m in margins),
    )


def test_criterion_08_newton_picard_agreement():
    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    curv = build_curvature(spec, grid)
    state0, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    rng = np.random.default_rng(8)
    df = random_band_limited(grid, rng, kmax=2, amplitude=0.05)
    du = np.stack([random_band_limited(grid, rng, kmax=2, amplitude=0.05) for _ in range(2)])
    du -= du.mean(axis=0)
    start = State(grid, state0.f + df, state0.u + du, 0.0)
    with np.errstate(all="raise"):
        newton_sol, _ = newton_at_t(start, 0.0, curv, params)
        picard_sol = start
        for _ in range(20):
            picard_sol, _ = picard_step(picard_sol, curv, params)
    gap = state_distance(newton_sol, picard_sol)
    _report(8, gap <= 1e-8, f"fixed-point vs Newton distance {gap:.2e} at t=0")


def test_criterion_09_green_representation():
    grid = make_grid(64, 4.0)
    kernel = greens_kernel(grid)
    rng = np.random.default_rng(9)
    worst = 0.0
    fields = [
        grid.sample(lambda X, Y: np.cos(2 * np.pi * X) + np.sin(2 * np.pi * Y)),
        random_band_limited(grid, rng, kmax=10, amplitude=2.0),
    ]
    for v in fields:
        worst = max(worst, float(np.max(np.abs(green_reconstruct(kernel, v) - v))))
    _report(9, worst <= 1e-10, f"band-limited reconstruction sup error {worst:.2e}")


def test_criterion_10_helmholtz_dense_oracle():
    grid = make_grid(16, 4.0)
    rng = np.random.default_rng(10)
    c = np.exp(random_band_limited(grid, rng, kmax=3, amplitude=0.8))
    rhs = random_band_limited(grid, rng, kmax=5, amplitude=1.0)
    n = grid.n
    dense = np.empty((n * n, n * n))
    for j in range(n * n):
        e = np.zeros(n * n)
        e[j] = 1.0
        basis = e.reshape(n, n)
        dense[:, j] = (grid.laplacian(basis) - c * basis).ravel()
    w_dense = np.linalg.solve(dense, rhs.ravel()).reshape(n, n)
    w = solve_helmholtz(grid, c, rhs)
    err = float(np.max(np.abs(w - w_dense)))
    _report(10, err <= 1e-10, f"iterative vs dense solve sup gap {err:.2e}")


def test_criterion_11_grid_convergence(tmp_path):
    # The convergence study needs perturbation content that n=16 does not
    # fully resolve; the (5,3) mode keeps the successive differences in the
    # measurable regime while all three marches still reach t=1.
    config_text = (
        "grid.n = 16\n"
        "bundle.r = 2\n"
        "bundle.degrees = 1,3\n"
        "bundle.perturbation.preset = cosine\n"
        "bundle.perturbation.amplitude = 0.2\n"
        "bundle.perturbation.modes = 5,3\n"
        "params.lambda = 8\n"
        "params.alpha0 = 10\n"
    )
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(config_text)
    out = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--axis",
            "n",
            "--values",
            "16,32,64",
            "--out",
            str(out),
        ]
    )
    rows = json.loads((out / "sweep_report.json").read_text())
    assert code == 0 and all(r["exit_code"] == 0 for r in rows)

    from demlab.cli import load_snapshot

    finals = {}
    for n, row in zip((16, 32, 64), rows):
        run_doc = json.loads((out / f"n_{n}" / "report.json").read_text())
        snap = out / f"n_{n}" / run_doc["steps"][-1]["snapshot"]
        state, _ = load_snapshot(snap)
        finals[n] = state

    def gap(coarse, fine):
        sc, sf = finals[coarse], finals[fine]
        d = float(np.max(np.abs(spectral_resample(sc.grid, sc.f, fine) - sf.f)))
        for i in range(2):
            d = max(
                d,
                float(
                    np.max(np.abs(spectral_resample(sc.grid, sc.u[i], fine) - sf.u[i]))
                ),
            )
        return d

    e1, e2 = gap(16, 32), gap(32, 64)
    ratio = e1 / max(e2, 1e-300)
    _report(
        11,
        ratio >= 100.0,
        f"self-convergence {e1:.2e} -> {e2:.2e} per doubling (ratio {ratio:.0f})",
    )
