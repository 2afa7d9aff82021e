"""Batch front end: config parsing, snapshots, runs, and reports.

Configs are flat ``key = value`` text files with dotted keys; unknown keys
are errors so that experiment logs stay diff-exact.  Snapshots are plain
text, one header line plus the field blocks, lossless for 64-bit floats.

Exit codes: solve returns 0 when t=1 was reached, 2 on a recorded breakdown,
1 on a config error.  verify returns 0 when the snapshot re-checks clean,
1 on a malformed or inconsistent snapshot, 3 on a diagnostic failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Grid, make_grid
from .model import (
    BundleSpec,
    ConeViolationError,
    DemaillyParams,
    State,
    build_curvature,
    residual,
    residual_sup,
)
from .solvers import solve_t0
from .homotopy import MarchReport, march
from .diagnostics import run_diagnostics

SNAPSHOT_MAGIC = "DEMAILLY-FIELD"
SNAPSHOT_VERSION = "v1"


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


class SnapshotError(ValueError):
    """Base class for snapshot load failures."""


class SnapshotParseError(SnapshotError):
    pass


class SnapshotVersionError(SnapshotError):
    pass


class SnapshotDimensionError(SnapshotError):
    pass


@dataclass
class RunConfig:
    n: int
    rank: int
    degrees: tuple[int, ...]
    preset: str = "none"
    amplitude: float = 0.0
    modes: tuple[tuple[int, int], ...] = ((1, 1),)
    lam: float | None = None
    alpha0: float | None = None
    mu: float = 1.0
    dt0: float = 0.05
    dt_floor: float = 1e-4
    newton_tol: float = 1e-9
    cone_floor: float | None = None
    out_dir: str | None = None
    seed: int = 0

    @property
    def lam_value(self) -> float:
        # Default exponent: 2r + 4, the smallest setting at which the
        # standard runs converge comfortably.
        return self.lam if self.lam is not None else 2.0 * self.rank + 4.0

    def validate(self) -> None:
        if self.rank < 1:
            raise ConfigError("bundle.r must be at least 1")
        if len(self.degrees) != self.rank:
            raise ConfigError(
                f"bundle.degrees has {len(self.degrees)} entries, expected bundle.r = {self.rank}"
            )
        if sum(self.degrees) <= 0:
            raise ConfigError("total degree must be positive")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigError("grid.n must be a power of two >= 8")
        if self.lam_value <= self.rank:
            raise ConfigError(
                f"params.lambda must exceed the rank ({self.lam_value} <= {self.rank})"
            )
        if self.preset not in ("none", "cosine"):
            raise ConfigError(f"unknown perturbation preset {self.preset!r}")
        if self.preset == "cosine" and self.amplitude != 0.0 and self.rank < 2:
            raise ConfigError("cosine perturbations need rank >= 2")
        if self.dt0 <= 0 or self.dt_floor <= 0:
            raise ConfigError("march.dt0 and march.dt_floor must be positive")
        if self.newton_tol <= 0:
            raise ConfigError("tol.newton must be positive")
        if self.cone_floor is not None and self.cone_floor <= 0:
            raise ConfigError("tol.cone_floor must be positive when given")


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int_list(key, raw):
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def _parse_modes(key, raw):
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected kx,ky pairs separated by ';', got {raw!r}")
        pairs.append((_parse_int(key, parts[0]), _parse_int(key, parts[1])))
    if not pairs:
        raise ConfigError(f"{key}: empty mode list")
    return tuple(pairs)


def parse_config(text: str) -> RunConfig:
    """Parse a flat key=value document into a validated RunConfig."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    known = {
        "grid.n",
        "bundle.r",
        "bundle.degrees",
        "bundle.perturbation.preset",
        "bundle.perturbation.amplitude",
        "bundle.perturbation.modes",
        "params.lambda",
        "params.alpha0",
        "params.mu",
        "march.dt0",
        "march.dt_floor",
        "tol.newton",
        "tol.cone_floor",
        "output.dir",
        "seed",
    }
    unknown = sorted(set(entries) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("grid.n", "bundle.r", "bundle.degrees"):
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")

    config = RunConfig(
        n=_parse_int("grid.n", entries["grid.n"]),
        rank=_parse_int("bundle.r", entries["bundle.r"]),
        degrees=_parse_int_list("bundle.degrees", entries["bundle.degrees"]),
    )
    if "bundle.perturbation.preset" in entries:
        config.preset = entries["bundle.perturbation.preset"]
    if "bundle.perturbation.amplitude" in entries:
        config.amplitude = _parse_float(
            "bundle.perturbation.amplitude", entries["bundle.perturbation.amplitude"]
        )
    if "bundle.perturbation.modes" in entries:
        config.modes = _parse_modes(
            "bundle.perturbation.modes", entries["bundle.perturbation.modes"]
        )
    if "params.lambda" in entries:
        config.lam = _parse_float("params.lambda", entries["params.lambda"])
    if "params.alpha0" in entries:
        config.alpha0 = _parse_float("params.alpha0", entries["params.alpha0"])
    if "params.mu" in entries:
        config.mu = _parse_float("params.mu", entries["params.mu"])
    if "march.dt0" in entries:
        config.dt0 = _parse_float("march.dt0", entries["march.dt0"])
    if "march.dt_floor" in entries:
        config.dt_floor = _parse_float("march.dt_floor", entries["march.dt_floor"])
    if "tol.newton" in entries:
        config.newton_tol = _parse_float("tol.newton", entries["tol.newton"])
    if "tol.cone_floor" in entries:
        config.cone_floor = _parse_float("tol.cone_floor", entries["tol.cone_floor"])
    if "output.dir" in entries:
        config.out_dir = entries["output.dir"]
    if "seed" in entries:
        config.seed = _parse_int("seed", entries["seed"])
    config.validate()
    return config


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def build_inputs(config: RunConfig) -> tuple[Grid, BundleSpec, DemaillyParams]:
    """Realize the grid, bundle spec, and parameter block of a config."""
    grid = make_grid(config.n, float(sum(config.degrees)))
    if config.preset == "cosine" and config.amplitude != 0.0:
        spec = BundleSpec.cosine_pair(config.degrees, config.amplitude, config.modes)
    else:
        spec = BundleSpec(config.degrees)
    params = DemaillyParams(
        lam=config.lam_value,
        alpha0=config.alpha0,
        mu=config.mu,
        newton_tol=config.newton_tol,
        cone_floor=config.cone_floor,
        dt0=config.dt0,
        dt_floor=config.dt_floor,
    )
    return grid, spec, params


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_snapshot(path, state: State, lam: float, alpha0: float, degrees) -> None:
    """Write one state as text, lossless for 64-bit floats."""
    degrees = tuple(int(d) for d in degrees)
    header = (
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} n={state.grid.n} r={state.rank} "
        f"t={_fmt(state.t)} lambda={_fmt(lam)} alpha0={_fmt(alpha0)} "
        f"degrees={','.join(str(d) for d in degrees)}"
    )
    lines = [header]
    for block in [state.f] + [state.u[i] for i in range(state.rank)]:
        for row in block:
            lines.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_snapshot(path) -> tuple[State, dict]:
    """Read a snapshot back into a State plus its header metadata.

    Raises SnapshotVersionError on a version mismatch,
    SnapshotDimensionError when the payload does not match the header, and
    SnapshotParseError on anything else malformed.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SnapshotParseError(f"cannot read snapshot {path}: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SnapshotParseError("empty snapshot file")
    tokens = lines[0].split()
    if len(tokens) < 2 or tokens[0] != SNAPSHOT_MAGIC:
        raise SnapshotParseError(f"bad snapshot header: {lines[0]!r}")
    if tokens[1] != SNAPSHOT_VERSION:
        raise SnapshotVersionError(f"unsupported snapshot version {tokens[1]!r}")
    fields: dict[str, str] = {}
    for token in tokens[2:]:
        if "=" not in token:
            raise SnapshotParseError(f"bad header token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        n = int(fields["n"])
        r = int(fields["r"])
        t = float(fields["t"])
        lam = float(fields["lambda"])
        alpha0 = float(fields["alpha0"])
        degrees = tuple(int(d) for d in fields["degrees"].split(","))
    except (KeyError, ValueError) as exc:
        raise SnapshotParseError(f"bad header fields: {exc}") from None
    if len(degrees) != r:
        raise SnapshotDimensionError(
            f"header r={r} does not match {len(degrees)} degrees"
        )
    if not (0.0 <= t <= 1.0):
        raise SnapshotParseError(f"t={t} outside [0, 1]")
    payload = lines[1:]
    expected = (r + 1) * n
    if len(payload) != expected:
        raise SnapshotDimensionError(
            f"expected {expected} data rows for n={n}, r={r}, found {len(payload)}"
        )
    rows = []
    for ln in payload:
        parts = ln.split()
        if len(parts) != n:
            raise SnapshotDimensionError(
                f"row has {len(parts)} columns, header says n={n}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise SnapshotParseError(f"bad float in payload: {exc}") from None
    data = np.asarray(rows).reshape(r + 1, n, n)
    try:
        grid = make_grid(n, float(sum(degrees)))
    except ValueError as exc:
        raise SnapshotParseError(f"invalid header geometry: {exc}") from None
    state = State(grid, data[0], data[1:], t)
    meta = {"n": n, "r": r, "t": t, "lambda": lam, "alpha0": alpha0, "degrees": degrees}
    return state, meta


SUMMARY_COLUMNS = (
    "t",
    "min_f",
    "max_f",
    "cone_margin",
    "newton_iterations",
    "residual_sup",
)


def _write_summary(path, report: MarchReport, rank: int) -> None:
    header = list(SUMMARY_COLUMNS)
    header += [f"identity_err_{i + 1}" for i in range(rank)]
    header += ["uy_violation"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for step in report.steps:
            d = step.diagnostics
            row = [
                _fmt(step.t),
                _fmt(d.min_f),
                _fmt(d.max_f),
                _fmt(d.cone_margin),
                step.newton.iterations,
                _fmt(step.newton.final_residual),
            ]
            row += [_fmt(e) for e in d.identity_errors]
            row += [_fmt(d.uy_violation)]
            writer.writerow(row)


def _config_echo(config: RunConfig) -> dict:
    echo = dataclasses.asdict(config)
    echo["degrees"] = list(config.degrees)
    echo["modes"] = [list(m) for m in config.modes]
    return echo


def run_solve(config: RunConfig, out_dir) -> int:
    """Solve end to end and persist the artifacts; 0 reached t=1, 2 breakdown."""
    out = Path(out_dir)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    grid, spec, params = build_inputs(config)
    report = march(spec, params, grid)
    params = report.params

    step_docs = []
    for i, step in enumerate(report.steps):
        snap_name = f"snapshots/state_{i:04d}.snap"
        save_snapshot(
            out / snap_name, step.state, params.lam, params.alpha0, config.degrees
        )
        step_docs.append(
            {
                "t": step.t,
                "snapshot": snap_name,
                "wall_seconds": step.wall_seconds,
                "newton": step.newton.summary(),
                "diagnostics": step.diagnostics.to_dict(),
            }
        )
    _write_summary(out / "summary.csv", report, config.rank)
    doc = {
        "format_version": 1,
        "config": _config_echo(config),
        "lambda": params.lam,
        "alpha0": params.alpha0,
        "cone_floor": params.cone_floor,
        "reached_t1": report.reached_t1,
        "breakdown_t": report.breakdown_t,
        "breakdown_reason": report.breakdown_reason,
        "min_f_overall": report.min_f,
        "steps": step_docs,
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if report.reached_t1 else 2


def run_verify(snapshot_path, config: RunConfig) -> int:
    """Recheck a persisted state: residual plus the full diagnostics battery."""
    state, meta = load_snapshot(snapshot_path)
    mismatches = []
    if meta["n"] != config.n:
        mismatches.append(f"n: snapshot {meta['n']} vs config {config.n}")
    if meta["r"] != config.rank:
        mismatches.append(f"r: snapshot {meta['r']} vs config {config.rank}")
    if tuple(meta["degrees"]) != tuple(config.degrees):
        mismatches.append("degrees differ")
    if meta["lambda"] != config.lam_value:
        mismatches.append(
            f"lambda: snapshot {meta['lambda']} vs config {config.lam_value}"
        )
    if config.alpha0 is not None and meta["alpha0"] != config.alpha0:
        mismatches.append(
            f"alpha0: snapshot {meta['alpha0']} vs config {config.alpha0}"
        )
    if mismatches:
        raise SnapshotParseError("snapshot inconsistent with config: " + "; ".join(mismatches))

    grid, spec, params = build_inputs(config)
    curv = build_curvature(spec, grid)
    _, params = solve_t0(curv, dataclasses.replace(params, alpha0=meta["alpha0"]))
    if params.alpha0 != meta["alpha0"]:
        raise SnapshotParseError(
            f"stored alpha0 {meta['alpha0']} is below the admissible floor {params.alpha0}"
        )
    failures = []
    try:
        r_f, r_u = residual(state, curv, params)
        res = residual_sup(r_f, r_u)
    except ConeViolationError as exc:
        res = float("inf")
        failures.append(f"cone violation: {exc}")
    if res > params.newton_tol:
        failures.append(f"residual {res:.3e} exceeds tolerance {params.newton_tol:.1e}")
    diag = run_diagnostics(state, curv, params)
    failures.extend(diag.failed)
    doc = {
        "snapshot": str(snapshot_path),
        "t": state.t,
        "residual_sup": res,
        "diagnostics": diag.to_dict(),
        "failures": failures,
        "passed": not failures,
    }
    print(json.dumps(doc, indent=2))
    return 0 if not failures else 3


def _parse_axis_values(axis: str, raw: str):
    if axis in ("alpha0", "lambda"):
        values = [float(v) for v in raw.split(",") if v.strip()]
    elif axis == "n":
        values = [int(v) for v in raw.split(",") if v.strip()]
    elif axis == "degrees":
        values = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if chunk:
                values.append(tuple(int(v) for v in chunk.split(",")))
    else:
        raise ConfigError(
            f"sweep axis must be one of alpha0, lambda, n, degrees; got {axis!r}"
        )
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    return values


def _apply_axis(config: RunConfig, axis: str, value) -> RunConfig:
    cfg = dataclasses.replace(config)
    if axis == "alpha0":
        cfg.alpha0 = float(value)
    elif axis == "lambda":
        cfg.lam = float(value)
    elif axis == "n":
        cfg.n = int(value)
    elif axis == "degrees":
        cfg.degrees = tuple(int(v) for v in value)
        cfg.rank = len(cfg.degrees)
    cfg.validate()
    return cfg


def _axis_label(value) -> str:
    if isinstance(value, tuple):
        return "_".join(str(v) for v in value)
    return format(value, "g") if isinstance(value, float) else str(value)


def run_sweep(config: RunConfig, axis: str, values_raw: str, out_dir) -> int:
    """Run one solve per axis value; member failures are recorded, not fatal."""
    values = _parse_axis_values(axis, values_raw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        label = _axis_label(value)
        run_dir = out / f"{axis}_{label}"
        entry = {"axis": axis, "value": label, "dir": str(run_dir)}
        try:
            cfg = _apply_axis(config, axis, value)
            code = run_solve(cfg, run_dir)
            run_doc = json.loads((run_dir / "report.json").read_text())
            entry.update(
                {
                    "exit_code": code,
                    "reached_t1": run_doc["reached_t1"],
                    "breakdown_t": run_doc["breakdown_t"],
                    "final_t": run_doc["steps"][-1]["t"] if run_doc["steps"] else None,
                    "final_min_f": run_doc["steps"][-1]["diagnostics"]["min_f"]
                    if run_doc["steps"]
                    else None,
                    "error": None,
                }
            )
        except Exception as exc:  # member failures are data, not crashes
            entry.update(
                {
                    "exit_code": 1,
                    "reached_t1": False,
                    "breakdown_t": None,
                    "final_t": None,
                    "final_min_f": None,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        rows.append(entry)
    with open(out / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "axis",
                "value",
                "dir",
                "exit_code",
                "reached_t1",
                "breakdown_t",
                "final_t",
                "final_min_f",
                "error",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    (out / "sweep_report.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def _fail(reason: str, code: int = 1) -> int:
    print(json.dumps({"error": reason}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="demlab",
        description="Continuation solver and verification lab for the Demailly "
        "system on direct sums of line bundles over a flat torus.",
    )
    parser.add_argument("--verbose", action="store_true", help="log accepted steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the t=0 construction and the march")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="output directory (default: config output.dir)")

    p_verify = sub.add_parser("verify", help="recheck a persisted snapshot")
    p_verify.add_argument("--snapshot", required=True)
    p_verify.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="run one solve per axis value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=["alpha0", "lambda", "n", "degrees"])
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", help="output directory (default: config output.dir)")

    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    try:
        config = load_config(args.config)
        out_dir = None
        if args.command in ("solve", "sweep"):
            out_dir = args.out or config.out_dir
            if out_dir is None:
                raise ConfigError("no output directory: pass --out or set output.dir")
    except ConfigError as exc:
        return _fail(f"config error: {exc}")

    try:
        if args.command == "solve":
            return run_solve(config, out_dir)
        if args.command == "verify":
            try:
                return run_verify(args.snapshot, config)
            except SnapshotError as exc:
                return _fail(f"snapshot error: {exc}")
        if args.command == "sweep":
            return run_sweep(config, args.axis, args.values, out_dir)
    except ConfigError as exc:
        return _fail(f"config error: {exc}")
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    return _fail(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
