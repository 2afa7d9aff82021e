"""Config parsing, snapshot persistence, runs, and exit codes."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import demlab
from demlab import cli
from demlab import (
    BundleSpec,
    DemaillyParams,
    State,
    build_curvature,
    make_grid,
    run_diagnostics,
    solve_t0,
)
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


def _write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
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
        (BASE + "bundle.perturbation.amplitude=0.4\n", "needs preset = cosine"),
        (BASE + "march.dt0=0\n", "positive"),
        (BASE + "march.dt_floor=-1\n", "positive"),
        (BASE + "tol.newton=0\n", "positive"),
        (BASE + "tol.cone_floor=0\n", "positive when given"),
        ("grid.n=abc\nbundle.r=2\nbundle.degrees=1,3\n", "integer"),
        (BASE + "bundle.perturbation.modes=1\n", "kx,ky"),
        (BASE + "bundle.perturbation.modes=2,0\n", "modes needs preset = cosine"),
        (
            BASE + "bundle.perturbation.preset=cosine\nbundle.perturbation.modes=2,0\n",
            "modes needs preset = cosine",
        ),
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
    # Every key is present, modes included, and modes need nonconstant data:
    # the cosine preset with a nonzero amplitude.
    amplitude = draw(st.floats(-2.0, 2.0).filter(lambda a: a != 0.0))
    return {
        "grid.n": ("n", 2 ** draw(st.integers(3, 8))),
        "bundle.r": ("rank", len(degrees)),
        "bundle.degrees": ("degrees", tuple(degrees)),
        "bundle.perturbation.preset": ("preset", "cosine"),
        "bundle.perturbation.amplitude": ("amplitude", amplitude),
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


# Finite doubles, weighted towards the ones a text format gets wrong: signed
# zeros, the smallest subnormal and the largest finite magnitude.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_snapshot_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=60)
@given(
    r=st.integers(1, 3),
    n=st.sampled_from([8, 16]),
    t=st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0),
    data=st.data(),
)
def test_snapshot_round_trip_is_bit_exact(tmp_path_factory, r, n, t, data):
    f = data.draw(hnp.arrays(np.float64, (n, n), elements=_snapshot_floats))
    u = data.draw(hnp.arrays(np.float64, (r, n, n), elements=_snapshot_floats))
    state = State(make_grid(n, float(r)), f, u, t)
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    save_snapshot(path, state, 8.0, 10.0, (1,) * r)
    loaded, meta = load_snapshot(path)
    assert loaded.f.tobytes() == f.tobytes()
    assert loaded.u.tobytes() == u.tobytes()
    assert np.float64(loaded.t).tobytes() == np.float64(t).tobytes()
    assert (meta["n"], meta["r"], meta["degrees"]) == (n, r, (1,) * r)


def _header(state, lam, alpha0, degrees, version="v2") -> str:
    def fmt(x):
        return format(float(x), ".17g")

    return (
        f"DEMAILLY-FIELD {version} n={state.grid.n} r={state.rank} t={fmt(state.t)} "
        f"lambda={fmt(lam)} alpha0={fmt(alpha0)} degrees={','.join(map(str, degrees))}"
    )


def _per_value_snapshot_bytes(state, lam, alpha0, degrees) -> bytes:
    """The v2 snapshot written one struct.pack("<d", x) call per value."""
    values = [v for block in [state.f, *state.u] for row in block for v in row]
    payload = b"".join(struct.pack("<d", v) for v in values)
    return _header(state, lam, alpha0, degrees).encode() + b"\n" + payload


def _v1_snapshot_text(state, lam, alpha0, degrees) -> str:
    """A snapshot in the retired v1 text layout: 17-digit decimals, n per line."""
    lines = [_header(state, lam, alpha0, degrees, version="v1")]
    for block in [state.f, *state.u]:
        for row in block:
            lines.append(" ".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=60)
@given(
    r=st.integers(1, 3),
    n=st.sampled_from([8, 16]),
    t=st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0),
    data=st.data(),
)
def test_snapshot_bytes_match_per_value_writer(tmp_path_factory, r, n, t, data):
    f = data.draw(hnp.arrays(np.float64, (n, n), elements=_snapshot_floats))
    u = data.draw(hnp.arrays(np.float64, (r, n, n), elements=_snapshot_floats))
    state = State(make_grid(n, float(r)), f, u, t)
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    save_snapshot(path, state, 8.0, 10.0, (1,) * r)
    expected = _per_value_snapshot_bytes(state, 8.0, 10.0, (1,) * r)
    assert path.read_bytes() == expected


def _saved_t0_snapshot(tmp_path):
    state, params = _t0_state()
    path = tmp_path / "state.snap"
    save_snapshot(path, state, params.lam, params.alpha0, (1, 3))
    return path, state, params


def test_snapshot_version_error(tmp_path):
    path, state, params = _saved_t0_snapshot(tmp_path)
    head, _, payload = path.read_bytes().partition(b"\n")
    v3 = _write_bytes(tmp_path, "v3.snap", head.replace(b" v2 ", b" v3 ") + b"\n" + payload)
    with pytest.raises(SnapshotVersionError, match="'v3'"):
        load_snapshot(v3)
    v1 = _write(tmp_path, "v1.snap", _v1_snapshot_text(state, params.lam, params.alpha0, (1, 3)))
    with pytest.raises(SnapshotVersionError, match="v1 text snapshots.*demlab solve"):
        load_snapshot(v1)


@settings(deadline=None, max_examples=30)
@given(cut=st.integers(1, 17), extra=st.binary(min_size=1, max_size=17))
def test_snapshot_dimension_errors(tmp_path_factory, cut, extra):
    tmp_path = tmp_path_factory.mktemp("snap")
    path, _, _ = _saved_t0_snapshot(tmp_path)
    data = path.read_bytes()
    wrong_n = _write_bytes(tmp_path, "wrong_n.snap", data.replace(b" n=16 ", b" n=32 ", 1))
    with pytest.raises(SnapshotDimensionError):
        load_snapshot(wrong_n)
    # A payload short or long by a few bytes, the last value split included.
    for name, bad in (("short.snap", data[:-cut]), ("long.snap", data + extra)):
        with pytest.raises(SnapshotDimensionError, match="payload bytes"):
            load_snapshot(_write_bytes(tmp_path, name, bad))


def _with_value(path, index, value) -> bytes:
    """The snapshot bytes at ``path`` with payload value ``index`` replaced."""
    head, _, payload = path.read_bytes().partition(b"\n")
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[index] = value
    return head + b"\n" + values.astype("<f8").tobytes()


def test_snapshot_parse_errors(tmp_path):
    with pytest.raises(SnapshotParseError):
        load_snapshot(_write(tmp_path, "garbage.snap", "not a snapshot\n1 2 3\n"))
    path, _, _ = _saved_t0_snapshot(tmp_path)
    head, _, payload = path.read_bytes().partition(b"\n")
    with pytest.raises(SnapshotParseError, match="no newline"):
        load_snapshot(_write_bytes(tmp_path, "no_newline.snap", head))
    non_ascii = head.replace(b"degrees=1,3", "degrees=1,\u00b3".encode())
    with pytest.raises(SnapshotParseError, match="non-ASCII"):
        load_snapshot(_write_bytes(tmp_path, "non_ascii.snap", non_ascii + b"\n" + payload))
    # Bytes that decode to NaN or +-inf, in f and in a twist log.
    for index, value in ((0, np.nan), (16 * 16 + 5, np.inf), (3 * 16 * 16 - 1, -np.inf)):
        corrupted = _write_bytes(tmp_path, "non_finite.snap", _with_value(path, index, value))
        with pytest.raises(SnapshotParseError, match="non-finite"):
            load_snapshot(corrupted)


# --------------------------------------------------------------------- runs


def test_run_solve_constant(tmp_path):
    config = parse_config(CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert run_solve(config, out) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + 2 accepted states
    assert summary[0].startswith("t,min_f,max_f,cone_margin,newton_iterations,")
    report = json.loads((out / "report.json").read_text())
    assert report["reached_t1"] is True
    assert report["breakdown_t"] is None
    assert report["breakdown_reason"] is None
    assert [step["t"] for step in report["steps"]] == [0.0, 1.0]
    assert all(step["newton"]["krylov_failures"] == 0 for step in report["steps"])
    assert len(list((out / "snapshots").glob("*.snap"))) == 2


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
    # Every rejected attempt is on record, the skipped ones included, and
    # the last is the breakdown's; no entry carries a wall-clock field.
    rejected = report["rejected_attempts"]
    assert [list(entry) for entry in rejected] == [["t_try", "reason", "predicted"]] * len(
        rejected
    )
    assert rejected[-1]["reason"] == "cone"
    assert any(entry["predicted"] for entry in rejected)


def test_main_exit_codes_solve_and_verify(tmp_path, capsys):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0

    snap = out / "snapshots" / "state_0001.snap"
    assert main(["verify", "--snapshot", str(snap), "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["failures"] == []

    # Corrupt one twist log: the integral identity must flag it (exit 3).
    state, meta = load_snapshot(snap)
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
    trunc = _write_bytes(tmp_path, "trunc.snap", snap.read_bytes()[:-100])
    assert main(["verify", "--snapshot", str(trunc), "--config", str(config_path)]) == 1

    # Config inconsistent with the snapshot header is exit 1 too.
    other_cfg = _write(tmp_path, "other.cfg", CONSTANT_CONFIG.replace("= 8", "= 9"))
    assert main(["verify", "--snapshot", str(snap), "--config", str(other_cfg)]) == 1


@pytest.mark.parametrize(
    "old, new",
    [
        ("grid.n = 16", "grid.n = 32"),
        ("bundle.r = 2\nbundle.degrees = 1,3", "bundle.r = 3\nbundle.degrees = 1,1,2"),
        ("bundle.degrees = 1,3", "bundle.degrees = 2,2"),
        ("params.lambda = 8", "params.lambda = 9"),
        ("params.alpha0 = 10", "params.alpha0 = 12"),
    ],
)
def test_verify_refuses_a_config_that_differs_from_the_snapshot(tmp_path, capsys, old, new):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert old in CONSTANT_CONFIG
    other = _write(tmp_path, "other.cfg", CONSTANT_CONFIG.replace(old, new))
    snap = out / "snapshots" / "state_0001.snap"
    assert main(["verify", "--snapshot", str(snap), "--config", str(other)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("snapshot error:")


def test_verify_refuses_a_stored_alpha0_below_the_admissible_floor(tmp_path, capsys):
    # With no alpha0 in the config any stored value matches the header, but
    # 1.0 is below the t=0 rule's floor of 2.
    config_path = _write(
        tmp_path, "run.cfg", CONSTANT_CONFIG.replace("params.alpha0 = 10\n", "")
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    state, meta = load_snapshot(out / "snapshots" / "state_0001.snap")
    low = tmp_path / "low.snap"
    save_snapshot(low, state, meta["lambda"], 1.0, meta["degrees"])
    assert main(["verify", "--snapshot", str(low), "--config", str(config_path)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("snapshot error:") and "admissible floor" in error


def test_verify_fails_on_the_residual_alone(tmp_path, capsys):
    # f lowered by 1e-8 leaves every diagnostic passing but raises the
    # residual to about 8.7e-8, above newton_tol: that check alone gives exit 3.
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    state, meta = load_snapshot(out / "snapshots" / "state_0001.snap")
    nudged = tmp_path / "nudged.snap"
    save_snapshot(
        nudged, State(state.grid, state.f - 1e-8, state.u, state.t),
        meta["lambda"], meta["alpha0"], meta["degrees"],
    )
    assert main(["verify", "--snapshot", str(nudged), "--config", str(config_path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["passed"] is True
    assert 1e-8 < doc["residual_sup"] < 1e-7
    assert doc["failures"] == [f"residual {doc['residual_sup']:.3e} exceeds tolerance 1.0e-09"]


def test_verify_fails_on_a_diagnostic_alone(tmp_path, capsys, monkeypatch):
    # A solved state whose diagnostics record fails one check: that check
    # alone gives exit 3, with the residual within tolerance.
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    real = cli.run_diagnostics
    monkeypatch.setattr(
        cli, "run_diagnostics",
        lambda *args: dataclasses.replace(real(*args), failed=("amgm_bound",)),
    )
    snap = out / "snapshots" / "state_0001.snap"
    assert main(["verify", "--snapshot", str(snap), "--config", str(config_path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual_sup"] <= 1e-9
    assert doc["failures"] == ["amgm_bound"]


COSINE_CONFIG = CONSTANT_CONFIG + """
bundle.perturbation.preset = cosine
bundle.perturbation.amplitude = 0.2
"""


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_verify_non_finite_payload_is_snapshot_error(tmp_path, capsys, value):
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    snap = out / "snapshots" / "state_0001.snap"
    bad = _write_bytes(tmp_path, "bad.snap", _with_value(snap, 7, value))
    assert main(["verify", "--snapshot", str(bad), "--config", str(config_path)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("snapshot error:") and "non-finite" in error


def test_verify_overflowing_weight_is_diagnostic_failure(tmp_path, capsys):
    # A finite f whose e^f overflows at one point fails the integral identity
    # (exit 3) instead of raising; no RuntimeWarning escapes.
    config_path = _write(tmp_path, "run.cfg", COSINE_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    state, meta = load_snapshot(out / "snapshots" / "state_0001.snap")
    f = state.f.copy()
    f[3, 5] = 1e3
    bad = tmp_path / "bad.snap"
    broken = State(state.grid, f, state.u, state.t)
    save_snapshot(bad, broken, meta["lambda"], meta["alpha0"], meta["degrees"])
    assert main(["verify", "--snapshot", str(bad), "--config", str(config_path)]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert "integral_identity" in doc["diagnostics"]["failed"]
    assert doc["diagnostics"]["identity_errors"] == [float("inf")] * 2


def test_python_m_demlab_solve_and_verify(tmp_path):
    # The package runs as a module from an uninstalled checkout.
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    src = str(Path(demlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def demlab_cmd(*args):
        cmd = [sys.executable, "-m", "demlab", *args]
        return subprocess.run(cmd, env=env, capture_output=True, timeout=120).returncode

    out = tmp_path / "run"
    assert demlab_cmd("solve", "--config", str(config_path), "--out", str(out)) == 0
    snap = out / "snapshots" / "state_0001.snap"
    assert demlab_cmd("verify", "--snapshot", str(snap), "--config", str(config_path)) == 0


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
    step = report["steps"][1]
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


# ------------------------------------------------------------------ layouts


def _key_paths(doc: dict, prefix: str = "") -> list[str]:
    """Dotted key paths of a JSON object in document order, dicts recursed."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + key)
        if isinstance(value, dict):
            paths += _key_paths(value, prefix + key + ".")
    return paths


_NEWTON_KEYS = [
    "iterations",
    "final_residual",
    "converged",
    "krylov_failures",
    "krylov_matvecs",
    "coarse_n",
    "coarse_iterations",
    "damping",
    "cone_margins",
    "residual_history",
]
_DIAGNOSTICS_KEYS = [
    "t",
    "identity_errors",
    "uy_violation",
    "trace_sup",
    "cone_margin",
    "min_f",
    "max_f",
    "max_exp_lambda_f",
    "argmax_slack",
    "amgm_excess",
    "thresholds",
    "thresholds.identity",
    "thresholds.uy",
    "thresholds.trace",
    "thresholds.cone_floor",
    "thresholds.argmax_slack",
    "thresholds.amgm",
    "failed",
    "passed",
]
_SWEEP_KEYS = [
    "axis",
    "value",
    "dir",
    "exit_code",
    "reached_t1",
    "breakdown_t",
    "final_t",
    "final_min_f",
    "error",
]


def test_artifact_layouts(tmp_path, capsys):
    # The key order of every run record is part of its format: report.json,
    # the verify document and both sweep files must keep these layouts.
    config_path = _write(tmp_path, "run.cfg", CONSTANT_CONFIG)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(config_path), "--axis", "lambda"]
    assert main(argv + ["--values", "1,8", "--out", str(out)]) == 0

    report = json.loads((out / "lambda_8" / "report.json").read_text())
    assert _key_paths(report) == [
        "format_version",
        "config",
        "config.n",
        "config.rank",
        "config.degrees",
        "config.preset",
        "config.amplitude",
        "config.modes",
        "config.lam",
        "config.alpha0",
        "config.dt0",
        "config.dt_floor",
        "config.newton_tol",
        "config.cone_floor",
        "config.out_dir",
        "lambda",
        "alpha0",
        "cone_floor",
        "reached_t1",
        "breakdown_t",
        "breakdown_reason",
        "min_f_overall",
        "steps",
        "rejected_attempts",
    ]
    assert report["config"]["degrees"] == [1, 3]
    assert report["config"]["modes"] == [[1, 1]]
    step_keys = ["t", "snapshot", "wall_seconds", "newton"]
    step_keys += ["newton." + k for k in _NEWTON_KEYS] + ["diagnostics"]
    step_keys += ["diagnostics." + k for k in _DIAGNOSTICS_KEYS]
    assert all(_key_paths(step) == step_keys for step in report["steps"])

    snap = out / "lambda_8" / report["steps"][-1]["snapshot"]
    capsys.readouterr()
    assert main(["verify", "--snapshot", str(snap), "--config", str(config_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert _key_paths(doc) == [
        "snapshot",
        "t",
        "residual_sup",
        "diagnostics",
        *("diagnostics." + k for k in _DIAGNOSTICS_KEYS),
        "failures",
        "passed",
    ]

    rows = json.loads((out / "sweep_report.json").read_text())
    assert [_key_paths(row) for row in rows] == [_SWEEP_KEYS, _SWEEP_KEYS]
    failure, success = rows
    assert failure["exit_code"] == 1 and failure["final_t"] is None
    assert success["exit_code"] == 0 and success["error"] is None
    with open(out / "sweep_summary.csv", newline="") as fh:
        header, *csv_rows = csv.reader(fh)
    assert header == _SWEEP_KEYS
    assert csv_rows == [
        ["lambda", "1", failure["dir"], "1", "False", "", "", "", failure["error"]],
        ["lambda", "8", success["dir"], "0", "True", "", "1.0", str(success["final_min_f"]), ""],
    ]
