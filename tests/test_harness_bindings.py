"""The benchmark's per-layer tracer still finds every demlab binding it wraps.

``benchmarks/layers.py`` wraps demlab functions by module and name, and a
renamed or removed binding would otherwise only surface in a traced bench run.
It also counts the Newton preconditioner through the ``M`` keyword of
``solvers.gmres``, so the call shape it relies on is checked here too.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import demlab.cli  # loaded up front: the tracer wraps its bindings too
import demlab.solvers
from demlab import BundleSpec, DemaillyParams, State, build_curvature, make_grid, march
from demlab.geometry import Grid
from demlab.krylov import LinearMap

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bindings():
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "demlab"]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_every_traced_binding_is_found_and_restored(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    gmres = demlab.solvers.gmres
    laplacian = Grid.__dict__["laplacian"]
    before = _bindings()
    with layers.instrument(layers.Probe(False), layers.TRACED):
        assert demlab.solvers.gmres is not gmres
    assert demlab.solvers.gmres is gmres
    assert Grid.__dict__["laplacian"] is laplacian
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_newton_directions_hand_gmres_a_separate_preconditioner(monkeypatch):
    # The tracer counts ``solvers.newton_precond`` from the ``M`` keyword of
    # ``solvers.gmres``.  Each Newton direction must therefore call it with
    # the preconditioner apart from the operator, and M must run on every
    # inner step: once more than the operator in a converged solve (M b,
    # then M and A per inner step and per restart).
    solves = []
    real_gmres = demlab.solvers.gmres

    def spy(A, b, **kwargs):
        assert kwargs.get("M") is not None
        calls = Counter()

        def tally(op, key):
            def matvec(x):
                calls[key] += 1
                return op.matvec(x)

            return LinearMap(op.size, matvec)

        out = real_gmres(tally(A, "A"), b, **dict(kwargs, M=tally(kwargs["M"], "M")))
        solves.append(calls)
        return out

    directions = []
    real_direction = demlab.solvers._newton_direction

    def counted_direction(*args):
        directions.append(1)
        return real_direction(*args)

    monkeypatch.setattr(demlab.solvers, "gmres", spy)
    monkeypatch.setattr(demlab.solvers, "_newton_direction", counted_direction)
    grid = make_grid(16, 4.0)
    curv = build_curvature(BundleSpec.cosine_pair((1, 3), 0.2), grid)
    state0, params = demlab.solvers.solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    _, report = demlab.solvers.newton_at_t(State(grid, state0.f, state0.u, 1.0), 1.0, curv, params)
    assert report.converged
    assert len(solves) == len(directions) == report.iterations > 0
    assert all(calls["M"] == calls["A"] + 1 >= 2 for calls in solves)


def test_counted_run_books_every_newton_direction_and_attempt(monkeypatch):
    # The end-to-end counts of ``bench.py`` come from the bindings the
    # untraced run wraps: newton_iters from ``solvers.gmres`` calls and
    # step_attempts from ``homotopy.attempts``, krylov_matvecs from the
    # operator handed to ``solvers.gmres``, which must agree with the
    # Jacobian applications Newton reports.  A solver call that moves off a
    # wrapped binding would read 0 there, which scores as better.
    # The README case at n=32 takes [0, 1] with 4 Newton iterations.
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    grid = make_grid(32, 4.0)
    spec = BundleSpec.cosine_pair((1, 3), 0.2)
    with layers.instrument(layers.Probe(False), layers.COUNTED) as probe:
        report = march(spec, DemaillyParams(lam=8.0, alpha0=10.0), grid)
    assert report.accepted_ts == [0.0, 1.0]
    iterations = sum(step.newton.iterations for step in report.steps)
    assert probe.counts["solvers.gmres.calls"] == iterations == 4
    assert probe.counts["homotopy.attempts"] == 2
    matvecs = sum(step.newton.krylov_matvecs for step in report.steps)
    assert probe.counts["solvers.gmres.matvecs"] == matvecs > 0


def test_traced_attempts_are_the_report_attempts_that_ran_newton(monkeypatch):
    # ``homotopy.attempts`` counts the Newton solves the march starts.  An
    # attempt rejected from its predicted cone margin starts none, so the
    # tracer misses it; ``MarchReport.rejected`` records it as predicted.
    pytest.importorskip("scipy")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    grid = make_grid(16, 4.0)
    with layers.instrument(layers.Probe(False), layers.TRACED) as probe:
        report = march(BundleSpec((-1, 5)), DemaillyParams(lam=8.0, alpha0=10.0), grid)
    ran_newton = [reason for _, reason, predicted in report.rejected if not predicted]
    assert len(ran_newton) < len(report.rejected)
    assert probe.counts["homotopy.attempts"] == len(report.steps) + len(ran_newton)
    assert probe.counts["homotopy.rejected.cone"] == ran_newton.count("cone")
