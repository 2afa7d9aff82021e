"""Batch front end: config parsing, snapshots, runs, and reports.

Configs are flat ``key = value`` text files with dotted keys; unknown keys
are errors so that experiment logs stay diff-exact.  A snapshot (format v2)
is one ASCII header line, readable with ``head -1``, then the fields as raw
little-endian float64, ``8 (r + 1) n^2`` bytes, an exact copy of the state.
v1 text snapshots are refused; re-running ``demlab solve`` on the run's
config regenerates them deterministically.

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
from .solvers import _t0_construction
from .homotopy import MarchReport, march
from .diagnostics import run_diagnostics

SNAPSHOT_MAGIC = "DEMAILLY-FIELD"
SNAPSHOT_VERSION = "v2"


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
    dt0: float = DemaillyParams.dt0
    dt_floor: float = DemaillyParams.dt_floor
    newton_tol: float = DemaillyParams.newton_tol
    cone_floor: float | None = None
    out_dir: str | None = None

    @property
    def wiggly(self) -> bool:
        """True when the config builds nonconstant curvature data."""
        return self.preset == "cosine" and self.amplitude != 0.0

    @property
    def lam_value(self) -> float:
        # Default exponent: 2r + 4, the smallest setting at which the
        # standard runs converge comfortably.
        return self.lam if self.lam is not None else 2.0 * self.rank + 4.0

    def validate(self) -> None:
        """Reject inconsistent configs; ranges are checked by the constructors."""
        if len(self.degrees) != self.rank:
            raise ConfigError(
                f"bundle.degrees has {len(self.degrees)} entries, expected bundle.r = {self.rank}"
            )
        if self.lam_value <= self.rank:
            raise ConfigError(
                f"params.lambda must exceed the rank ({self.lam_value} <= {self.rank})"
            )
        if self.preset not in ("none", "cosine"):
            raise ConfigError(f"unknown perturbation preset {self.preset!r}")
        if self.preset == "none" and self.amplitude != 0.0:
            raise ConfigError(f"perturbation amplitude {self.amplitude} needs preset = cosine")
        try:
            build_inputs(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_str(key, raw):
    return raw


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


# Every config key: the RunConfig field it sets and the parser of its value.
# Keys left out of a document keep the field's default.
CONFIG_KEYS = {
    "grid.n": ("n", _parse_int),
    "bundle.r": ("rank", _parse_int),
    "bundle.degrees": ("degrees", _parse_int_list),
    "bundle.perturbation.preset": ("preset", _parse_str),
    "bundle.perturbation.amplitude": ("amplitude", _parse_float),
    "bundle.perturbation.modes": ("modes", _parse_modes),
    "params.lambda": ("lam", _parse_float),
    "params.alpha0": ("alpha0", _parse_float),
    "march.dt0": ("dt0", _parse_float),
    "march.dt_floor": ("dt_floor", _parse_float),
    "tol.newton": ("newton_tol", _parse_float),
    "tol.cone_floor": ("cone_floor", _parse_float),
    "output.dir": ("out_dir", _parse_str),
}


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

    unknown = sorted(set(entries) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for required in ("grid.n", "bundle.r", "bundle.degrees"):
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")

    config = RunConfig(
        **{
            field: parse(key, entries[key])
            for key, (field, parse) in CONFIG_KEYS.items()
            if key in entries
        }
    )
    config.validate()
    if "bundle.perturbation.modes" in entries and not config.wiggly:
        raise ConfigError(
            "bundle.perturbation.modes needs preset = cosine and a nonzero amplitude"
        )
    return config


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def build_inputs(config: RunConfig) -> tuple[Grid, BundleSpec, DemaillyParams]:
    """Realize the grid, bundle spec, and parameter block of a config."""
    if config.wiggly:
        spec = BundleSpec.cosine_pair(config.degrees, config.amplitude, config.modes)
    else:
        spec = BundleSpec(config.degrees)
    grid = make_grid(config.n, float(sum(config.degrees)))
    params = DemaillyParams(
        lam=config.lam_value,
        alpha0=config.alpha0,
        newton_tol=config.newton_tol,
        cone_floor=config.cone_floor,
        dt0=config.dt0,
        dt_floor=config.dt_floor,
    )
    return grid, spec, params


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_snapshot(path, state: State, lam: float, alpha0: float, degrees) -> None:
    """Write one state: the ASCII header line, then the fields as raw bytes.

    The payload is ``f`` and then ``u_1..u_r``, each ``n x n`` in C order,
    as little-endian float64 on every host: ``8 (r + 1) n^2`` bytes, an
    exact copy of the state's bits.
    """
    degrees = tuple(int(d) for d in degrees)
    header = (
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} n={state.grid.n} r={state.rank} "
        f"t={_fmt(state.t)} lambda={_fmt(lam)} alpha0={_fmt(alpha0)} "
        f"degrees={','.join(str(d) for d in degrees)}"
    )
    payload = np.concatenate([state.f[None], state.u]).astype("<f8").tobytes()
    Path(path).write_bytes(header.encode("ascii") + b"\n" + payload)


def load_snapshot(path) -> tuple[State, dict]:
    """Read a snapshot back into a State plus its header metadata.

    Raises SnapshotVersionError on a version mismatch (v1 text snapshots
    included), SnapshotDimensionError when the payload does not match the
    header, and SnapshotParseError on anything else malformed, non-finite
    field values included.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotParseError(f"cannot read snapshot {path}: {exc}") from None
    if not data:
        raise SnapshotParseError("empty snapshot file")
    head, newline, payload = data.partition(b"\n")
    if not newline:
        raise SnapshotParseError("no newline after the snapshot header")
    try:
        header = head.decode("ascii")
    except UnicodeDecodeError:
        raise SnapshotParseError(f"non-ASCII snapshot header: {head[:80]!r}") from None
    tokens = header.split()
    if len(tokens) < 2 or tokens[0] != SNAPSHOT_MAGIC:
        raise SnapshotParseError(f"bad snapshot header: {header[:80]!r}")
    if tokens[1] == "v1":
        raise SnapshotVersionError(
            "v1 text snapshots are no longer read; re-running `demlab solve` "
            "on the run's config regenerates them deterministically"
        )
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
    expected = 8 * (r + 1) * n * n
    if len(payload) != expected:
        raise SnapshotDimensionError(
            f"expected {expected} payload bytes for n={n}, r={r}, found {len(payload)}"
        )
    try:
        grid = make_grid(n, float(sum(degrees)))
    except ValueError as exc:
        raise SnapshotParseError(f"invalid header geometry: {exc}") from None
    blocks = np.frombuffer(payload, dtype="<f8").reshape(r + 1, n, n)
    try:
        state = State(grid, blocks[0], blocks[1:], t)
    except ValueError as exc:
        raise SnapshotParseError(f"bad payload: {exc}") from None
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
        "config": dataclasses.asdict(config),
        "lambda": params.lam,
        "alpha0": params.alpha0,
        "cone_floor": params.cone_floor,
        "reached_t1": report.reached_t1,
        "breakdown_t": report.breakdown_t,
        "breakdown_reason": report.breakdown_reason,
        "min_f_overall": report.min_f,
        "steps": step_docs,
        "rejected_attempts": [
            {"t_try": t_try, "reason": reason, "predicted": predicted}
            for t_try, reason, predicted in report.rejected
        ],
    }
    (out / "report.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if report.reached_t1 else 2


# Snapshot header key -> the config's value it must equal; an unset alpha0
# (None) matches any stored one.
_SNAPSHOT_HEADER = {
    "n": lambda c: c.n,
    "r": lambda c: c.rank,
    "degrees": lambda c: tuple(c.degrees),
    "lambda": lambda c: c.lam_value,
    "alpha0": lambda c: c.alpha0,
}


def run_verify(snapshot_path, config: RunConfig) -> int:
    """Recheck a persisted state: residual plus the full diagnostics battery."""
    state, meta = load_snapshot(snapshot_path)
    mismatches = []
    for key, value in _SNAPSHOT_HEADER.items():
        want = value(config)
        if want is not None and meta[key] != want:
            mismatches.append(f"{key}: snapshot {meta[key]} vs config {want}")
    if mismatches:
        raise SnapshotParseError("snapshot inconsistent with config: " + "; ".join(mismatches))

    grid, spec, params = build_inputs(config)
    curv = build_curvature(spec, grid)
    _, params = _t0_construction(curv, dataclasses.replace(params, alpha0=meta["alpha0"]))
    if params.alpha0 != meta["alpha0"]:
        raise SnapshotParseError(
            f"stored alpha0 {meta['alpha0']} is below the admissible floor {params.alpha0}"
        )
    failures = []
    try:
        # A finite snapshot may still overflow e^f; the checks report it.
        with np.errstate(over="ignore", invalid="ignore"):
            r_f, r_u = residual(state, curv, params)
        res = residual_sup(r_f, r_u)
    except ConeViolationError as exc:
        res = float("inf")
        failures.append(f"cone violation: {exc}")
    if not params.converged(res):
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


# Sweep axis -> the config key it varies; degree tuples are separated by ';'.
SWEEP_AXES = {
    "alpha0": "params.alpha0",
    "lambda": "params.lambda",
    "n": "grid.n",
    "degrees": "bundle.degrees",
}


def _parse_axis_values(axis: str, raw: str):
    if axis not in SWEEP_AXES:
        raise ConfigError(
            f"sweep axis must be one of {', '.join(SWEEP_AXES)}; got {axis!r}"
        )
    key = SWEEP_AXES[axis]
    parse = CONFIG_KEYS[key][1]
    sep = ";" if axis == "degrees" else ","
    values = [parse(key, chunk) for chunk in raw.split(sep) if chunk.strip()]
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    return values


def _apply_axis(config: RunConfig, axis: str, value) -> RunConfig:
    changes = {CONFIG_KEYS[SWEEP_AXES[axis]][0]: value}
    if axis == "degrees":
        changes["rank"] = len(value)
    cfg = dataclasses.replace(config, **changes)
    cfg.validate()
    return cfg


def _axis_label(value) -> str:
    if isinstance(value, tuple):
        return "_".join(str(v) for v in value)
    return format(value, "g") if isinstance(value, float) else str(value)


# The outcome fields of a sweep row, as recorded for a member that failed.
_SWEEP_FAILURE = {
    "exit_code": 1,
    "reached_t1": False,
    "breakdown_t": None,
    "final_t": None,
    "final_min_f": None,
    "error": None,
}


def run_sweep(config: RunConfig, axis: str, values_raw: str, out_dir) -> int:
    """Run one solve per axis value; member failures are recorded, not fatal."""
    values = _parse_axis_values(axis, values_raw)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        label = _axis_label(value)
        run_dir = out / f"{axis}_{label}"
        row = {"axis": axis, "value": label, "dir": str(run_dir), **_SWEEP_FAILURE}
        try:
            code = run_solve(_apply_axis(config, axis, value), run_dir)
            run_doc = json.loads((run_dir / "report.json").read_text())
            steps = run_doc["steps"]
            row.update(
                exit_code=code,
                reached_t1=run_doc["reached_t1"],
                breakdown_t=run_doc["breakdown_t"],
                final_t=steps[-1]["t"] if steps else None,
                final_min_f=steps[-1]["diagnostics"]["min_f"] if steps else None,
            )
        except Exception as exc:  # member failures are data, not crashes
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    with open(out / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out", help="output directory (default: config output.dir)")

    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    try:
        config = load_config(args.config)
        if args.command == "verify":
            return run_verify(args.snapshot, config)
        out_dir = args.out or config.out_dir
        if out_dir is None:
            raise ConfigError("no output directory: pass --out or set output.dir")
        if args.command == "solve":
            return run_solve(config, out_dir)
        return run_sweep(config, args.axis, args.values, out_dir)
    except ConfigError as exc:
        return _fail(f"config error: {exc}")
    except SnapshotError as exc:
        return _fail(f"snapshot error: {exc}")
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
