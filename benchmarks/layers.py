"""Per-layer counters and spans, installed on demlab from outside the package.

demlab's modules import each other's functions by name
(``from .model import residual``), so a function has one binding in its
defining module and one more in every module that imported it.  ``instrument``
finds every binding of each target across ``demlab.*`` by identity, replaces
it with a wrapper, and puts every original back on exit.  ``Grid.laplacian``
is wrapped on the class; scipy's ``gmres`` and ``cg`` are wrapped where
``demlab.solvers`` binds them, and the operators handed to them are wrapped
in turn, so matvecs and preconditioner applications are counted where they
happen.

A ``Probe`` collects one operation's record.  Every wrapper counts calls per
metric name and keeps a stack of open spans, so that calls are also counted
per caller (``"caller>callee"``); a target's ``after`` hook also sees the
binding site it was called through.  A timed probe also takes
``time.perf_counter`` around each call and books self time: the span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from scipy.sparse.linalg import LinearOperator


class Probe:
    """Counters, and with ``timed`` also self times, for one operation."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._names: list[str] = []
        self._child_s: list[float] = []

    @property
    def caller(self) -> str | None:
        return self._names[-1] if self._names else None

    def call(self, name: str, fn, args, kwargs):
        self.counts[name + ".calls"] += 1
        if self.caller is not None:
            self.counts[f"{self.caller}>{name}"] += 1
        self._names.append(name)
        if not self.timed:
            try:
                return fn(*args, **kwargs)
            finally:
                self._names.pop()
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._names.pop()
            self.self_s[name] += elapsed - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric name, where it is defined, and extra counts.

    ``adapt(probe, args, kwargs)`` may replace the arguments before the call;
    ``after(probe, site, args, result, exc)`` books counts from the outcome.
    """

    name: str
    module: str
    attr: str
    adapt: Callable | None = None
    after: Callable | None = None


def _counted_operator(probe: Probe, op, key: str):
    def matvec(x):
        probe.counts[key] += 1
        return op.matvec(x)

    return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)


def _spanned_operator(probe: Probe, op, name: str):
    def matvec(x):
        return probe.call(name, op.matvec, (x,), {})

    return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)


def _adapt_gmres(probe, args, kwargs):
    op, *rest = args
    op = _counted_operator(probe, op, "solvers.gmres.matvecs")
    if kwargs.get("M") is not None:
        kwargs = dict(kwargs, M=_spanned_operator(probe, kwargs["M"], "solvers.newton_precond"))
    return (op, *rest), kwargs


def _adapt_cg(probe, args, kwargs):
    op, *rest = args
    return (_counted_operator(probe, op, "solvers.cg.matvecs"), *rest), kwargs


def _after_krylov(name):
    def after(probe, site, args, result, exc):
        if exc is None and result[1] != 0:
            probe.counts[name + ".nonconverged"] += 1

    return after


def _after_laplacian(probe, site, args, result, exc):
    grid, v = args[0], args[1]
    nn = grid.n * grid.n
    fields = math.prod(getattr(v, "shape", ())) // nn
    probe.counts["geometry.laplacian.fields"] += fields
    # fft2 and ifft2 of n*n complex points at 5 N log2 N each, plus the
    # real-multiplier product at 2 flops per point.
    probe.counts["geometry.laplacian.flop"] += fields * (10 * nn * math.log2(nn) + 2 * nn)


_REJECT_REASON = {
    "ConeViolationError": "cone",
    "NoDescentError": "no_descent",
    "MaxIterationsError": "max_iters",
}


def _after_newton_at_t(probe, site, args, result, exc):
    if exc is not None:
        cls = type(exc).__name__
        probe.counts["solvers.newton_at_t.raised." + cls] += 1
    if site == "homotopy":
        probe.counts["homotopy.attempts"] += 1
        if exc is not None:
            reason = _REJECT_REASON.get(type(exc).__name__, "other")
            probe.counts["homotopy.rejected." + reason] += 1


def _after_run_diagnostics(probe, site, args, result, exc):
    if exc is None and not result.passed:
        probe.counts["diagnostics.run_diagnostics.failed"] += 1
        if site == "homotopy":
            probe.counts["homotopy.rejected.diagnostics"] += 1


def _file_mb(path) -> float:
    return Path(path).stat().st_size / 1e6


def _after_save_snapshot(probe, site, args, result, exc):
    if exc is None:
        probe.counts["cli.save_snapshot.mb"] += _file_mb(args[0])


def _after_load_snapshot(probe, site, args, result, exc):
    if exc is None:
        probe.counts["cli.load_snapshot.mb"] += _file_mb(args[0])


# Everything the traced run wraps.
TRACED = (
    Target("geometry.laplacian", "demlab.geometry", "Grid.laplacian", after=_after_laplacian),
    Target(
        "solvers.gmres", "demlab.solvers", "gmres", _adapt_gmres, _after_krylov("solvers.gmres")
    ),
    Target("solvers.cg", "demlab.solvers", "cg", _adapt_cg, _after_krylov("solvers.cg")),
    Target("model.apply_linearization", "demlab.model", "apply_linearization"),
    Target("model.l_inverse", "demlab.model", "l_inverse"),
    Target("model.residual", "demlab.model", "residual"),
    Target("model.cone_factors", "demlab.model", "cone_factors"),
    Target("model.cone_margin", "demlab.model", "cone_margin"),
    Target("solvers.solve_helmholtz", "demlab.solvers", "solve_helmholtz"),
    Target("solvers.u_step", "demlab.solvers", "u_step"),
    Target("solvers.v_step", "demlab.solvers", "v_step"),
    Target("solvers.picard_step", "demlab.solvers", "picard_step"),
    Target("solvers.solve_t0", "demlab.solvers", "solve_t0"),
    Target("solvers.newton_at_t", "demlab.solvers", "newton_at_t", after=_after_newton_at_t),
    Target("homotopy.march", "demlab.homotopy", "march"),
    Target(
        "diagnostics.run_diagnostics",
        "demlab.diagnostics",
        "run_diagnostics",
        after=_after_run_diagnostics,
    ),
    Target("cli.save_snapshot", "demlab.cli", "save_snapshot", after=_after_save_snapshot),
    Target("cli.load_snapshot", "demlab.cli", "load_snapshot", after=_after_load_snapshot),
    Target("cli.run_solve", "demlab.cli", "run_solve"),
    Target("cli.run_verify", "demlab.cli", "run_verify"),
)

# The untraced run wraps only what the end-to-end counts need.
COUNTED_NAMES = (
    "solvers.gmres",
    "solvers.cg",
    "solvers.solve_helmholtz",
    "solvers.u_step",
    "solvers.newton_at_t",
    "solvers.picard_step",
)
COUNTED = tuple(t for t in TRACED if t.name in COUNTED_NAMES)


def _wrapper(probe: Probe, target: Target, site: str, orig):
    def wrapped(*args, **kwargs):
        if target.adapt is not None:
            args, kwargs = target.adapt(probe, args, kwargs)
        try:
            result = probe.call(target.name, orig, args, kwargs)
        except BaseException as exc:
            if target.after is not None:
                target.after(probe, site, args, None, exc)
            raise
        if target.after is not None:
            target.after(probe, site, args, result, None)
        return result

    return wrapped


def _demlab_modules():
    return [
        (name, mod)
        for name, mod in sorted(sys.modules.items())
        if name == "demlab" or name.startswith("demlab.")
    ]


@contextlib.contextmanager
def instrument(probe: Probe, targets=TRACED):
    """Wrap every binding of each target for the duration of the block."""
    saved = []
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                saved.append((cls, meth, orig))
                setattr(cls, meth, _wrapper(probe, target, cls_name, orig))
                continue
            orig = getattr(module, target.attr)
            bound = 0
            for mod_name, mod in _demlab_modules():
                site = mod_name.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, _wrapper(probe, target, site, orig))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of {target.module}.{target.attr} found")
        yield probe
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
