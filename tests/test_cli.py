"""Config parsing, snapshot persistence, runs, and exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demlab import BundleSpec, DemaillyParams, build_curvature, make_grid, run_diagnostics, solve_t0
from demlab.cli import (
    CONFIG_KEYS,
    ConfigError,
    SnapshotDimensionError,
    SnapshotParseError,
    SnapshotVersionError,
    load_snapshot,
    main,
    parse_config,
    run_solve,
    save_snapshot,
)

CONSTANT_CONFIG = """
# constant ample benchmark
grid.n = 16
bundle.r = 2
bundle.degrees = 1,3
params.lambda = 8
params.alpha0 = 10
"""

NON_AMPLE_CONFIG = CONSTANT_CONFIG.replace("1,3", "-1,5")

# The required keys alone: the smallest valid document.
BASE = "grid.n=16\nbundle.r=2\nbundle.degrees=1,3\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# ------------------------------------------------------------------- config


def test_parse_config_full_document():
    config = parse_config(
        """
        grid.n = 32
        bundle.r = 2
        bundle.degrees = 2,2
        bundle.perturbation.preset = cosine
        bundle.perturbation.amplitude = 0.2
        bundle.perturbation.modes = 1,1;2,0
        params.lambda = 9.5
        params.alpha0 = 12
        march.dt0 = 0.1
        march.dt_floor = 1e-3
        tol.newton = 1e-8
        tol.cone_floor = 1e-5
        output.dir = out/run1
        """
    )
    assert config.n == 32
    assert config.degrees == (2, 2)
    assert config.preset == "cosine"
    assert config.modes == ((1, 1), (2, 0))
    assert config.lam_value == 9.5
    assert config.dt0 == 0.1
    assert config.out_dir == "out/run1"


def test_parse_config_defaults():
    config = parse_config("grid.n=16\nbundle.r=2\nbundle.degrees=1,3\n")
    assert config.lam_value == 8.0  # 2r + 4
    assert config.alpha0 is None
    assert config.preset == "none"
    assert config.newton_tol == 1e-9


def test_parse_config_dt0_past_t_range(tmp_path):
    # A first increment longer than [0, 1] is clamped to it: the run tries
    # t=1 straight from the t=0 state.
    config = parse_config(CONSTANT_CONFIG + "march.dt0 = 2\n")
    assert config.dt0 == 2.0
    out = tmp_path / "run"
    assert run_solve(config, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert [step["t"] for step in report["steps"]] == [0.0, 1.0]


@pytest.mark.parametrize(
    "text, match",
    [
        ("grid.n=16\nbundle.r=2\nbundle.degrees=1,3\nnot.a.key=1\n", "unknown"),
        ("grid.n=16\nbundle.r=2\n", "missing required"),
        ("grid.n=16\nbundle.r=3\nbundle.degrees=1,3\n", "entries"),
        ("grid.n=12\nbundle.r=2\nbundle.degrees=1,3\n", "power of two"),
        ("grid.n=16\nbundle.r=2\nbundle.degrees=1,3\nparams.lambda=2\n", "exceed"),
        ("grid.n=16\nbundle.r=2\nbundle.degrees=-3,1\n", "positive"),
        ("grid.n=16\nbundle.r=2\nbundle.degrees=1,3\ngrid.n=32\n", "duplicate"),
        (
            "grid.n=16\nbundle.r=1\nbundle.degrees=4\n"
            "bundle.perturbation.preset=cosine\nbundle.perturbation.amplitude=0.1\n",
            "rank >= 2",
        ),
        (BASE + "bundle.perturbation.preset=wiggle\n", "preset"),
        (BASE + "march.dt0=0\n", "positive"),
        (BASE + "march.dt_floor=-1\n", "positive"),
        (BASE + "tol.newton=0\n", "positive"),
        (BASE + "tol.cone_floor=0\n", "positive when given"),
        ("grid.n=abc\nbundle.r=2\nbundle.degrees=1,3\n", "integer"),
        (BASE + "bundle.perturbation.modes=1\n", "kx,ky"),
        (BASE + "params.mu=1\n", "unknown"),
        (BASE + "params.alpha0=nan\n", "finite"),
        (BASE + "params.alpha0=inf\n", "finite"),
        (BASE + "tol.newton=nan\n", "positive"),
        (BASE + "march.dt0=nan\n", "positive"),
        (BASE + "tol.cone_floor=inf\n", "positive when given"),
        (BASE + "seed=0\n", "unknown"),
    ],
)
def test_parse_config_rejects(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


_positive = st.floats(1e-12, 1e6)


@st.composite
def _valid_values(draw):
    """Every config key, mapped to its RunConfig field and one valid value."""
    degrees = draw(
        st.lists(st.integers(-5, 9), min_size=2, max_size=4).filter(lambda d: sum(d) > 0)
    )
    mode = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda m: m != (0, 0))
    return {
        "grid.n": ("n", 2 ** draw(st.integers(3, 8))),
        "bundle.r": ("rank", len(degrees)),
        "bundle.degrees": ("degrees", tuple(degrees)),
        "bundle.perturbation.preset": ("preset", draw(st.sampled_from(["none", "cosine"]))),
        "bundle.perturbation.amplitude": ("amplitude", draw(st.floats(-2.0, 2.0))),
        "bundle.perturbation.modes": (
            "modes",
            tuple(draw(st.lists(mode, min_size=1, max_size=3))),
        ),
        "params.lambda": ("lam", draw(st.floats(len(degrees), 1e3, exclude_min=True))),
        "params.alpha0": ("alpha0", draw(st.floats(-1e3, 1e3))),
        "march.dt0": ("dt0", draw(_positive)),
        "march.dt_floor": ("dt_floor", draw(_positive)),
        "tol.newton": ("newton_tol", draw(_positive)),
        "tol.cone_floor": ("cone_floor", draw(_positive)),
        "output.dir": (
            "out_dir",
            draw(st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
        ),
    }


def _value_text(value) -> str:
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        return ";".join(_value_text(v) for v in value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)  # str of a float round-trips through float()


def _document(keys: list, values: dict) -> str:
    return "".join(f"{key} = {_value_text(values[key][1])}\n" for key in keys)


@settings(deadline=None)
@given(values=_valid_values(), data=st.data())
def test_parse_config_table_round_trip(values, data):
    assert set(values) == set(CONFIG_KEYS)
    config = parse_config(_document(data.draw(st.permutations(list(values))), values))
    for key, (field, value) in values.items():
        assert getattr(config, field) == value, key


@settings(deadline=None)
@given(
    key=st.text("abcdefghijklmnopqrstuvwxyz._0123456789", min_size=1).filter(
        lambda k: k not in CONFIG_KEYS
    )
)
def test_parse_config_rejects_any_unknown_key(key):
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(BASE + f"{key} = 1\n")


@settings(deadline=None)
@given(values=_valid_values(), key=st.sampled_from(sorted(CONFIG_KEYS)))
def test_parse_config_rejects_any_repeated_key(values, key):
    text = _document(list(values) + [key], values)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


# ---------------------------------------------------------------- snapshots


def _t0_state():
    grid = make_grid(16, 4.0)
    curv = build_curvature(BundleSpec((1, 3)), grid)
    state, params = solve_t0(curv, DemaillyParams(lam=8.0, alpha0=10.0))
    return state, params


def test_snapshot_round_trip(tmp_path):
    state, params = _t0_state()
    path = tmp_path / "state.snap"
    save_snapshot(path, state, params.lam, params.alpha0, (1, 3))
    loaded, meta = load_snapshot(path)
    assert np.array_equal(loaded.f, state.f)
    assert np.array_equal(loaded.u, state.u)
    assert loaded.t == state.t
    assert meta["lambda"] == 8.0 and meta["alpha0"] == 10.0
    assert meta["degrees"] == (1, 3)


def test_snapshot_version_error(tmp_path):
    state, params = _t0_state()
    path = tmp_path / "state.snap"
    save_snapshot(path, state, params.lam, params.alpha0, (1, 3))
    text = path.read_text().replace("DEMAILLY-FIELD v1", "DEMAILLY-FIELD v2", 1)
    bad = _write(tmp_path, "v2.snap", text)
    with pytest.raises(SnapshotVersionError):
        load_snapshot(bad)


def test_snapshot_dimension_errors(tmp_path):
    state, params = _t0_state()
    path = tmp_path / "state.snap"
    save_snapshot(path, state, params.lam, params.alpha0, (1, 3))
    lines = path.read_text().splitlines()
    bad = _write(tmp_path, "wrong_n.snap", "\n".join([lines[0].replace("n=16", "n=32")] + lines[1:]))
    with pytest.raises(SnapshotDimensionError):
        load_snapshot(bad)
    truncated = _write(tmp_path, "short.snap", "\n".join(lines[:-5]))
    with pytest.raises(SnapshotDimensionError):
        load_snapshot(truncated)


def test_snapshot_parse_errors(tmp_path):
    with pytest.raises(SnapshotParseError):
        load_snapshot(_write(tmp_path, "garbage.snap", "not a snapshot\n1 2 3\n"))
    state, params = _t0_state()
    path = tmp_path / "state.snap"
    save_snapshot(path, state, params.lam, params.alpha0, (1, 3))
    lines = path.read_text().splitlines()
    parts = lines[1].split()
    parts[0] = "xx"
    corrupted = _write(tmp_path, "badfloat.snap", "\n".join([lines[0], " ".join(parts)] + lines[2:]))
    with pytest.raises(SnapshotParseError):
        load_snapshot(corrupted)


# --------------------------------------------------------------------- runs


def test_run_solve_constant(tmp_path):
    config = parse_config(CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert run_solve(config, out) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 7  # header + 6 accepted states
    assert summary[0].startswith("t,min_f,max_f,cone_margin,newton_iterations,")
    report = json.loads((out / "report.json").read_text())
    assert report["reached_t1"] is True
    assert report["breakdown_t"] is None
    assert report["breakdown_reason"] is None
    assert len(report["steps"]) == 6
    assert len(list((out / "snapshots").glob("*.snap"))) == 6


def test_run_solve_deterministic(tmp_path):
    config = parse_config(CONSTANT_CONFIG)
    run_solve(config, tmp_path / "a")
    run_solve(config, tmp_path / "b")
    assert (tmp_path / "a" / "summary.csv").read_text() == (
        tmp_path / "b" / "summary.csv"
    ).read_text()


def test_run_solve_non_ample_breakdown(tmp_path):
    config = parse_config(NON_AMPLE_CONFIG)
    out = tmp_path / "run"
    assert run_solve(config, out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["reached_t1"] is False
    assert abs(report["breakdown_t"] - 0.975) <= 0.01
    assert report["breakdown_reason"] == "cone"


def test_main_exit_codes_solve_and_verify(tmp_path, capsys):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0

    snap = out / "snapshots" / "state_0003.snap"
    assert main(["verify", "--snapshot", str(snap), "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["failures"] == []

    # Corrupt one twist log: the integral identity must flag it (exit 3).
    state, meta = load_snapshot(snap)
    from demlab import State

    broken = State(
        state.grid, state.f, state.u + np.array([[[0.1]], [[0.0]]]), state.t
    )
    bad = tmp_path / "bad.snap"
    save_snapshot(bad, broken, meta["lambda"], meta["alpha0"], meta["degrees"])
    assert main(["verify", "--snapshot", str(bad), "--config", str(config_path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert "integral_identity" in doc["diagnostics"]["failed"]

    # Truncated snapshot: malformed input is exit 1.
    trunc = _write(tmp_path, "trunc.snap", "\n".join(snap.read_text().splitlines()[:-4]))
    assert main(["verify", "--snapshot", str(trunc), "--config", str(config_path)]) == 1

    # Config inconsistent with the snapshot header is exit 1 too.
    other_cfg = _write(tmp_path, "other.cfg", CONSTANT_CONFIG.replace("= 8", "= 9"))
    assert main(["verify", "--snapshot", str(snap), "--config", str(other_cfg)]) == 1


def test_main_config_error_exit(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "grid.n = 16\nbundle.r = 2\n")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    missing = tmp_path / "nope.cfg"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "y")]) == 1
    # No --out and no output.dir in the config is a config error.
    cfg = _write(tmp_path, "no_out.cfg", CONSTANT_CONFIG)
    assert main(["solve", "--config", str(cfg)]) == 1


def test_main_out_defaults_to_config_dir(tmp_path):
    out = tmp_path / "from_config"
    cfg = _write(tmp_path, "run.cfg", CONSTANT_CONFIG + f"output.dir = {out}\n")
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (out / "report.json").exists()


def test_run_sweep_degrees(tmp_path):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--axis",
            "degrees",
            "--values",
            "1,3;2,2;-1,5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())
    assert [r["exit_code"] for r in rows] == [0, 0, 2]
    assert rows[2]["breakdown_t"] == pytest.approx(0.975, abs=0.01)
    assert (out / "sweep_summary.csv").exists()


def test_run_sweep_alpha0_all_reach_t1(tmp_path):
    # Ample constant data reaches t=1 for every offset; the reported final
    # min f follows the constant-branch formula per alpha0.
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--axis",
            "alpha0",
            "--values",
            "5,20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())
    assert all(r["exit_code"] == 0 and r["reached_t1"] for r in rows)
    for row, alpha0 in zip(rows, (5.0, 20.0)):
        rho = np.array([0.25, 0.75])
        expected = float(np.sum(np.log(rho) - np.log(rho + alpha0))) / 8.0
        assert row["final_min_f"] == pytest.approx(expected, abs=1e-8)


def test_run_sweep_records_member_failures(tmp_path):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(config_path),
            "--axis",
            "lambda",
            "--values",
            "1,8",  # lambda=1 violates lambda > r and must be recorded
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = json.loads((out / "sweep_report.json").read_text())
    assert rows[0]["exit_code"] == 1
    assert "lambda" in rows[0]["error"]
    assert rows[1]["exit_code"] == 0


def test_verify_diagnostics_reproducible_from_snapshot(tmp_path):
    # Re-running diagnostics on a persisted state reproduces the record.
    config = parse_config(CONSTANT_CONFIG)
    out = tmp_path / "run"
    run_solve(config, out)
    report = json.loads((out / "report.json").read_text())
    step = report["steps"][3]
    state, meta = load_snapshot(out / step["snapshot"])
    grid = make_grid(config.n, float(sum(config.degrees)))
    curv = build_curvature(BundleSpec(config.degrees), grid)
    _, params = solve_t0(
        curv, DemaillyParams(lam=meta["lambda"], alpha0=meta["alpha0"])
    )
    diag = run_diagnostics(state, curv, params)
    stored = step["diagnostics"]
    assert diag.to_dict()["passed"] == stored["passed"]
    for key in ("uy_violation", "trace_sup", "cone_margin", "min_f", "max_f"):
        a, b = getattr(diag, key), stored[key]
        assert a == pytest.approx(b, rel=1e-14, abs=1e-300) or a == b
    assert list(diag.identity_errors) == stored["identity_errors"]
