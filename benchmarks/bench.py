"""demlab benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the repository root:

    python3 benchmarks/bench.py --workload march-ample-n128 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's metadata.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md).  The
package is imported from ``src/`` beside this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_work"
BLAS_THREADS = "1"
SETUP_REPEATS = 3

# Pin BLAS before numpy loads, here and in the set-up interpreters, and
# import demlab from the sources beside this directory.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

# name -> (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "solve_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "newton_iters": ("count", "lower", 0.1),
    "krylov_matvecs": ("count", "lower", 0.25),
    "step_attempts": ("count", "lower", 0.1),
    "ok_ratio": ("ratio", "higher", 0.05),
}

_CALLS_SELF = (
    "geometry.laplacian",
    "solvers.gmres",
    "solvers.newton_precond",
    "model.apply_linearization",
    "model.l_inverse",
    "solvers.cg",
    "solvers.solve_helmholtz",
    "solvers.u_step",
    "solvers.v_step",
    "model.residual",
    "model.cone_factors",
    "model.cone_margin",
    "solvers.newton_at_t",
    "diagnostics.run_diagnostics",
    "cli.save_snapshot",
    "cli.load_snapshot",
    "cli.run_verify",
)
_RAISED = ("ConeViolationError", "NoDescentError", "MaxIterationsError")
_REJECTED = ("cone", "no_descent", "max_iters", "diagnostics")

# name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.calls": ("count", "lower") for layer in _CALLS_SELF},
    **{f"{layer}.self_s": ("s", "lower") for layer in _CALLS_SELF},
    "geometry.laplacian.fields": ("count", "lower"),
    "geometry.laplacian.gflop_computed": ("GFLOP", "lower"),
    "solvers.gmres.matvecs": ("count", "lower"),
    "solvers.gmres.nonconverged": ("count", "lower"),
    "solvers.cg.matvecs": ("count", "lower"),
    "solvers.cg.nonconverged": ("count", "lower"),
    **{f"solvers.newton_at_t.raised.{cls}": ("count", "lower") for cls in _RAISED},
    "solvers.newton.backtracks": ("count", "lower"),
    "solvers.solve_t0.self_s": ("s", "lower"),
    "homotopy.march.self_s": ("s", "lower"),
    "homotopy.accepted": ("count", "higher"),
    **{f"homotopy.rejected.{reason}": ("count", "lower") for reason in _REJECTED},
    "homotopy.accept_ratio": ("ratio", "higher"),
    "diagnostics.run_diagnostics.failed": ("count", "lower"),
    "cli.save_snapshot.mb": ("MB", "lower"),
    "cli.load_snapshot.mb": ("MB", "lower"),
    "cli.run_solve.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def end_to_end_counts(counts) -> dict:
    """The counted end-to-end metrics of one operation, from its probe."""
    return {
        # GMRES solves are Newton directions of the march; on the Picard path
        # the directions are u_step's inner Helmholtz-Newton solves.
        "newton_iters": counts["solvers.gmres.calls"]
        + counts["solvers.u_step>solvers.solve_helmholtz"],
        "krylov_matvecs": counts["solvers.gmres.matvecs"] + counts["solvers.cg.matvecs"],
        "step_attempts": counts["homotopy.attempts"] + counts["solvers.picard_step.calls"],
    }


def per_layer_values(probe) -> dict:
    """Per-layer metrics of one traced operation, except trace.overhead_s."""
    c, s = probe.counts, probe.self_s
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = s[layer]
        elif name in c:
            values[name] = c[name]
    values["geometry.laplacian.gflop_computed"] = c["geometry.laplacian.flop"] / 1e9
    # Each Newton direction is followed by trials that each call cone_margin
    # once; newton_at_t also calls it once on its initial state.
    values["solvers.newton.backtracks"] = (
        c["solvers.newton_at_t>model.cone_margin"]
        - c["solvers.newton_at_t.calls"]
        - c["solvers.newton_at_t>solvers.gmres"]
    )
    attempts = c["homotopy.attempts"]
    accepted = attempts - sum(v for k, v in c.items() if k.startswith("homotopy.rejected."))
    values["homotopy.accepted"] = accepted
    values["homotopy.accept_ratio"] = accepted / attempts if attempts else 0.0
    return {name: values.get(name, 0) for name in PER_LAYER if name != "trace.overhead_s"}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibrate() -> float:
    """Median time of a fixed FFT kernel; recorded to show host drift, never used to scale."""
    import numpy as np

    # 64x64 keeps every buffer below malloc's mmap threshold, so the first
    # sample pays no page faults that later ones do not.
    field = np.cos(np.arange(64 * 64, dtype=float)).reshape(64, 64)
    np.fft.ifft2(np.fft.fft2(field))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(200):
            np.fft.ifft2(np.fft.fft2(field))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


_SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import demlab
from workloads import WORKLOADS
workload = WORKLOADS[{workload!r}]
workload.build(workload.draw({seed!r}, {n!r}))
"""


def measure_setup(workload: str, seed: int, n: int | None, repeats: int) -> list[float]:
    """Wall seconds of fresh interpreters that import demlab and build the inputs."""
    code = _SETUP_CHILD.format(
        src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed, n=n
    )
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL, check=True
        )
        times.append(time.perf_counter() - start)
    return times


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def _metadata(args, facts: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        **facts,
    }


class Runner:
    """Runs one workload's operations, checked, with or without tracing."""

    def __init__(self, workload, seed: int, n: int | None, work_root: Path):
        self.workload = workload
        self.inputs = workload.draw(seed, n)
        self.reference = workload.reference(self.inputs)
        self.work_root = work_root
        self.failures: list[str] = []
        self.attempted = 0
        self.failed_ops = 0
        self.solve_quantiles: dict = {}

    def op(self, timed: bool):
        """One checked operation: (seconds, probe, digest, failed)."""
        from layers import COUNTED, TRACED, Probe, instrument

        probe = Probe(timed)
        opdir = Path(tempfile.mkdtemp(dir=self.work_root))
        self.attempted += 1
        # An operation that raises is a failed operation, never the end of the run.
        try:
            with instrument(probe, TRACED if timed else COUNTED):
                start = time.perf_counter()
                try:
                    outcome, error = self.workload.run(self.inputs, opdir), None
                except Exception:
                    outcome, error = None, traceback.format_exc()
                seconds = time.perf_counter() - start
            if error is None:
                failed = self.workload.check(self.inputs, outcome, self.reference)
                digest = self.workload.digest(outcome)
            else:
                failed, digest = [error], None
        finally:
            shutil.rmtree(opdir)
        self.failed_ops += bool(failed)
        self.failures += [f"op {self.attempted}: {msg}" for msg in failed]
        return seconds, probe, digest, bool(failed)

    def ops(self, seconds: float, modes=(False,)):
        """Rounds of one operation per mode (traced or not) until ``seconds`` have passed.

        One untimed operation runs first, so lazy imports and first-call set-up
        inside numpy and scipy are not timed.  It is checked like the others.
        """
        self.op(False)
        records = []
        deadline = time.perf_counter() + seconds
        while not records or time.perf_counter() < deadline:
            records += [self.op(timed) for timed in modes]
        return records


def _fail_mismatch(runner: Runner, label: str, values: list) -> None:
    if any(v != values[0] for v in values):
        runner.failures.append(f"{label} differ between operations: {values}")


def solve_quantiles(seconds: list[float]) -> dict:
    """Median, upper quartile and 90th percentile of per-operation seconds."""
    import numpy as np

    return {f"p{q}": float(np.percentile(seconds, q)) for q in (50, 75, 90)}


def run_end_to_end(runner: Runner, seconds: float, setup_times: list[float]) -> dict:
    records = runner.ops(seconds)
    counts = [end_to_end_counts(probe.counts) for _, probe, _, _ in records]
    runner.solve_quantiles = solve_quantiles([s for s, *_ in records])
    metrics = {
        # The 90th percentile, not the median: the shared host runs this
        # process up to 1.5x faster for tens of seconds at a time, and such a
        # burst pulls a run's median down far more often than it reaches its
        # 90th percentile (see README.md, "Why solve_s is the 90th percentile").
        "solve_s": runner.solve_quantiles["p90"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        **{k: statistics.median_low(c[k] for c in counts) for k in counts[0]},
        "ok_ratio": (runner.attempted - runner.failed_ops) / runner.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}


def run_traced(runner: Runner, seconds: float) -> dict:
    """Alternating untraced and traced operations, so that host drift hits both alike.

    Tracing must not change counts or final states.
    """
    records = runner.ops(seconds, (False, True))
    plain = [r for r in records if not r[1].timed]
    traced = [r for r in records if r[1].timed]
    _fail_mismatch(runner, "final states", [d for *_, d, _ in records])
    _fail_mismatch(
        runner, "end-to-end counts", [end_to_end_counts(p.counts) for _, p, _, _ in records]
    )
    layer_values = [per_layer_values(p) for _, p, _, _ in traced]
    metrics = {}
    for name in layer_values[0]:
        if name.endswith("self_s"):
            metrics[name] = statistics.median(v[name] for v in layer_values)
        else:
            _fail_mismatch(runner, name, [v[name] for v in layer_values])
            metrics[name] = layer_values[0][name]
    # Each traced operation runs right after an untraced one; the median of
    # the pairwise differences cancels most host drift.
    metrics["trace.overhead_s"] = statistics.median(
        t[0] - p[0] for p, t in zip(plain, traced)
    )
    counts = traced[0][1].counts
    missed = [layer for layer in runner.workload.layers if counts[layer + ".calls"] == 0]
    if missed:
        raise RuntimeError(f"{runner.workload.name}: no calls traced for {missed}, binding missed")
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in metrics.items()}


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, n=None, setups=SETUP_REPEATS
):
    """One benchmark run: (result, failure messages, run facts for the metadata line)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    calibration = [_calibrate()]
    setup_times = [] if trace else measure_setup(workload_name, seed, n, setups)
    WORK_DIR.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        runner = Runner(workload, seed, n, work_root)
        if trace:
            metrics = run_traced(runner, seconds)
        else:
            metrics = run_end_to_end(runner, seconds, setup_times)
    finally:
        shutil.rmtree(work_root)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    calibration.append(_calibrate())
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed_ops,
        "metrics": metrics,
    }
    facts = {
        "calibration_s": calibration,
        "operations_timed": runner.attempted - 1,
        "solve_s_quantiles": runner.solve_quantiles,
    }
    return result, runner.failures, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "demlab" / "__init__.py").is_file():
        print(f"demlab sources not found under {SRC}", file=sys.stderr)
        return 2
    result, failures, facts = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"meta": _metadata(args, facts)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
