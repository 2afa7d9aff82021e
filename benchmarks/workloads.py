"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload draws plain numbers from the seed (``draw``), and every
operation rebuilds demlab's objects from them (``build``), as a CLI user
does, so no ``Grid`` cache carries over between repeats.  ``reference``
computes what the checks compare against; it runs outside the timed and
instrumented region.  ``check`` returns the failed checks of one operation.

Why these four: the march on the ample n=128 case is where the FFT
Laplacian and GMRES dominate; the breakdown case runs the same Newton layers
through rejections at a size where per-call overhead weighs more than FFT
work; the CLI case is the only one where snapshot I/O does real work; the
Picard case is the only path to ``l_inverse`` and the variable-coefficient CG.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import demlab
import demlab.cli

LAM = 8.0
ALPHA0 = 10.0
AMPLE_DEGREES = (1, 3)
# The README cosine case: one low mode, amplitude drawn from [0.1, 0.3].
# Drawing the mode as well moved krylov_matvecs by 20% across seeds.
MODE = (1, 1)
PICARD_GAP = 1e-9
PICARD_MAX_STEPS = 100
MATCH_TOL = 1e-8


def _draw_amplitude(rng: np.random.Generator) -> dict:
    return {"amplitude": float(rng.uniform(0.1, 0.3))}


def _ample_inputs(inputs: dict):
    grid = demlab.make_grid(inputs["n"], float(sum(AMPLE_DEGREES)))
    spec = demlab.BundleSpec.cosine_pair(AMPLE_DEGREES, inputs["amplitude"], (MODE,))
    return grid, spec, demlab.DemaillyParams(lam=LAM, alpha0=ALPHA0)


def _state_digest(state) -> str:
    return hashlib.sha256(state.f.tobytes() + state.u.tobytes()).hexdigest()


def _check_accepted_states(report, spec, grid) -> list[str]:
    """Every accepted state: residual at most newton_tol and diagnostics passed."""
    curv = demlab.build_curvature(spec, grid)
    params = report.params
    failures = []
    for step in report.steps:
        res = demlab.residual_sup(*demlab.residual(step.state, curv, params))
        if res > params.newton_tol:
            failures.append(f"t={step.t}: residual {res:.3e} above {params.newton_tol:.1e}")
        if not step.diagnostics.passed:
            failures.append(f"t={step.t}: diagnostics failed {step.diagnostics.failed}")
    return failures


def _fingerprint(diag) -> np.ndarray:
    return np.array([diag.min_f, diag.max_f, *diag.identity_errors])


class _March:
    """One library ``march``; the outcome is its MarchReport."""

    layers = (
        "geometry.laplacian",
        "solvers.gmres",
        "solvers.newton_precond",
        "model.apply_linearization",
        "model.residual",
        "model.cone_factors",
        "model.cone_margin",
        "solvers.newton_at_t",
        "solvers.solve_t0",
        "solvers.solve_helmholtz",
        "diagnostics.run_diagnostics",
    )

    def run(self, inputs: dict, workdir: Path):
        grid, spec, params = self.build(inputs)
        return demlab.march(spec, params, grid)

    def digest(self, report) -> str:
        return _state_digest(report.final_state)


class MarchAmple(_March):
    name = "march-ample-n128"
    why = "library march on the ample cosine case; FFT Laplacian and GMRES dominate"
    n = 128

    def draw(self, seed: int, n: int | None = None) -> dict:
        return {"n": n or self.n, **_draw_amplitude(np.random.default_rng(seed))}

    def build(self, inputs: dict):
        return _ample_inputs(inputs)

    def reference(self, inputs: dict):
        # The t=1 solution is unique, so a two-state march reaches the same
        # state as the 21-state one by another path.
        grid, spec, params = _ample_inputs(inputs)
        report = demlab.march(spec, dataclasses.replace(params, dt0=1.0), grid)
        return _fingerprint(report.steps[-1].diagnostics)

    def check(self, inputs: dict, report, reference) -> list[str]:
        if not report.reached_t1:
            return [f"march stopped at t={report.breakdown_t}"]
        grid, spec, _ = self.build(inputs)
        failures = _check_accepted_states(report, spec, grid)
        gap = float(np.max(np.abs(_fingerprint(report.steps[-1].diagnostics) - reference)))
        if gap > MATCH_TOL:
            failures.append(f"t=1 fingerprint differs from the reference by {gap:.3e}")
        return failures


class MarchBreakdown(_March):
    name = "march-breakdown-n64"
    why = "non-ample (-1,5) march to breakdown; Newton layers through rejections and dt halving"
    n = 64
    degrees = (-1, 5)

    def draw(self, seed: int, n: int | None = None) -> dict:
        # Fixed data: drawing alpha0 from [8, 12] moved solve_s by up to 6x
        # across seeds, so the seed does not vary this workload.
        return {"n": n or self.n}

    def build(self, inputs: dict):
        grid = demlab.make_grid(inputs["n"], float(sum(self.degrees)))
        params = demlab.DemaillyParams(lam=LAM, alpha0=ALPHA0)
        return grid, demlab.BundleSpec(self.degrees), params

    def reference(self, inputs: dict):
        return None

    def check(self, inputs: dict, report, reference) -> list[str]:
        if report.breakdown_t is None:
            return ["non-ample march reported no breakdown"]
        grid, spec, _ = self.build(inputs)
        failures = _check_accepted_states(report, spec, grid)
        params = report.params
        derived = 1.0 + min(self.degrees) / (sum(self.degrees) * params.alpha0)
        tol = params.dt_floor + params.cone_floor_value / params.alpha0
        if abs(report.breakdown_t - derived) > tol:
            failures.append(
                f"breakdown t*={report.breakdown_t:.6f} not within {tol:.3e} of {derived:.6f}"
            )
        return failures


class CliSolveVerify:
    name = "cli-solve-verify-n64"
    why = "cli.run_solve, then cli.run_verify of every snapshot; the only snapshot I/O workload"
    n = 64
    layers = _March.layers + (
        "cli.save_snapshot",
        "cli.load_snapshot",
        "cli.run_solve",
        "cli.run_verify",
    )

    def draw(self, seed: int, n: int | None = None) -> dict:
        return {"n": n or self.n, **_draw_amplitude(np.random.default_rng(seed))}

    def config_text(self, inputs: dict) -> str:
        kx, ky = MODE
        return (
            f"grid.n = {inputs['n']}\n"
            "bundle.r = 2\n"
            f"bundle.degrees = {AMPLE_DEGREES[0]},{AMPLE_DEGREES[1]}\n"
            "bundle.perturbation.preset = cosine\n"
            f"bundle.perturbation.amplitude = {inputs['amplitude']!r}\n"
            f"bundle.perturbation.modes = {kx},{ky}\n"
            f"params.lambda = {LAM}\n"
            f"params.alpha0 = {ALPHA0}\n"
        )

    def build(self, inputs: dict):
        return demlab.cli.parse_config(self.config_text(inputs))

    def reference(self, inputs: dict):
        return None

    def run(self, inputs: dict, workdir: Path):
        config_path = workdir / "run.cfg"
        config_path.write_text(self.config_text(inputs))
        config = demlab.cli.load_config(config_path)
        out = workdir / "out"
        solve_code = demlab.cli.run_solve(config, out)
        verified = []
        for snap in sorted((out / "snapshots").iterdir()):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = demlab.cli.run_verify(snap, config)
            verified.append((snap, code, printed.getvalue()))
        return solve_code, verified

    def digest(self, outcome) -> str:
        h = hashlib.sha256()
        for snap, _, _ in outcome[1]:
            h.update(snap.read_bytes())
        return h.hexdigest()

    def check(self, inputs: dict, outcome, reference) -> list[str]:
        solve_code, verified = outcome
        failures = [] if solve_code == 0 else [f"run_solve exit code {solve_code}"]
        if len(verified) < 2:
            failures.append(f"{len(verified)} snapshots written")
        last_t = None
        for snap, code, printed in verified:
            doc = json.loads(printed)
            last_t = doc["t"]
            if code != 0 or not doc["passed"]:
                failures.append(f"run_verify {snap.name}: exit {code}, {doc['failures']}")
        if last_t != 1.0:
            failures.append(f"last snapshot at t={last_t}")
        return failures


class PicardT1:
    name = "picard-t1-n64"
    why = "Picard map at t=1 from the t=0 state; the only path to l_inverse and CG Helmholtz"
    n = 64
    layers = (
        "geometry.laplacian",
        "model.l_inverse",
        "solvers.cg",
        "solvers.solve_helmholtz",
        "solvers.u_step",
        "solvers.v_step",
        "solvers.solve_t0",
        "model.residual",
    )

    def draw(self, seed: int, n: int | None = None) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "n": n or self.n,
            **_draw_amplitude(rng),
            "start_amplitude": float(rng.uniform(0.0, 0.01)),
            "start_seed": int(rng.integers(2**31)),
        }

    def build(self, inputs: dict):
        return _ample_inputs(inputs)

    def reference(self, inputs: dict):
        # Newton's t=1 state, reached by a two-state march.
        grid, spec, params = _ample_inputs(inputs)
        return demlab.march(spec, dataclasses.replace(params, dt0=1.0), grid).final_state

    def run(self, inputs: dict, workdir: Path):
        grid, spec, params = self.build(inputs)
        curv = demlab.build_curvature(spec, grid)
        state0, params = demlab.solve_t0(curv, params)
        rng = np.random.default_rng(inputs["start_seed"])
        df = demlab.random_band_limited(grid, rng, kmax=2, amplitude=inputs["start_amplitude"])
        state = demlab.State(grid, state0.f + df, state0.u, 1.0)
        gap = np.inf
        for _ in range(PICARD_MAX_STEPS):
            state, gap = demlab.picard_step(state, curv, params)
            if gap <= PICARD_GAP:
                break
        return state, gap

    def digest(self, outcome) -> str:
        return _state_digest(outcome[0])

    def check(self, inputs: dict, outcome, reference) -> list[str]:
        state, gap = outcome
        if gap > PICARD_GAP:
            return [f"gap {gap:.3e} after {PICARD_MAX_STEPS} Picard steps"]
        dist = demlab.state_distance(state, reference)
        return [] if dist <= MATCH_TOL else [f"Picard vs Newton distance {dist:.3e}"]


WORKLOADS = {w.name: w for w in (MarchAmple(), MarchBreakdown(), CliSolveVerify(), PicardT1())}
