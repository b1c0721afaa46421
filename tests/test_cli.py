"""Command-line behavior: config parsing, exit codes, file outputs."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bathdyn
from bathdyn.cli import Manifest, main, write_csv, write_product_csv
from bathdyn.config import (
    ConfigError,
    RunConfig,
    as_choice,
    as_float,
    as_float_list,
    as_int,
    parse_config_text,
)
from bathdyn.decoherence import _RESOLVED, _odd_padded
from bathdyn.fokker_planck import KramersOperator, PhaseGrid, SmoluchowskiOperator
from bathdyn.kernels import BathParams
from bathdyn.potentials import Harmonic


def test_parse_config_text():
    text = """
    # comment line

    bath.gamma = 2.0
    run.steps=100
    potential.kind =  double_well
    """
    out = parse_config_text(text)
    assert out == {
        "bath.gamma": "2.0",
        "run.steps": "100",
        "potential.kind": "double_well",
    }

    with pytest.raises(ConfigError, match="line 2.*key=value"):
        parse_config_text("a=1\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("a=1\nb=2\na=3\n")
    with pytest.raises(ConfigError, match="malformed key"):
        parse_config_text("Bad.Key=1\n")
    with pytest.raises(ConfigError, match="malformed key"):
        parse_config_text("bath..gamma=1\n")


def test_value_casters():
    assert as_float("2.5e-3") == 2.5e-3
    with pytest.raises(ConfigError, match="expected a number"):
        as_float("two")
    assert as_int("42") == 42
    with pytest.raises(ConfigError, match="expected an integer"):
        as_int("4.2")
    assert as_float_list(" 1, 2.5 ,3 ") == (1.0, 2.5, 3.0)
    with pytest.raises(ConfigError, match="comma-separated"):
        as_float_list(" , ")
    cast = as_choice("a", "b")
    assert cast("a") == "a"
    with pytest.raises(ConfigError, match="expected one of"):
        cast("c")


def test_run_config_accounting():
    cfg = RunConfig({"bath.gamma": "2.0", "bath.mass": "1.0"})
    assert cfg.get("bath.gamma", as_float) == 2.0
    with pytest.raises(ConfigError, match="missing required config key"):
        cfg.get("run.steps", as_int)
    assert cfg.get("run.dt", as_float, 0.01) == 0.01
    assert cfg.resolved["run.dt"] == 0.01
    with pytest.raises(ConfigError, match="unknown config key: bath.mass"):
        cfg.finish()
    cfg.get("bath.mass", as_float, 1.0)
    cfg.finish()
    with pytest.raises(ConfigError, match="invalid value for bath.gamma"):
        RunConfig({"bath.gamma": "x"}).get("bath.gamma", as_float)


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_manifest(out_dir):
    lines = (out_dir / "manifest.json").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_det_check_default_run(tmp_path):
    rc = main(["det-check", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    rows = [json.loads(l) for l in
            (tmp_path / "det_checks.jsonl").read_text().splitlines()]
    assert len(rows) >= 8
    for row in rows:
        assert set(row) >= {"case", "computed", "target", "pass"}
        assert row["pass"] is True
    records = _read_manifest(tmp_path)
    kinds = [r["record"] for r in records]
    assert kinds[0] == "run"
    assert "config" in kinds and "output" in kinds and "check" in kinds


def test_kernels_drude_outputs_and_manifest(tmp_path):
    cfg = _write_config(
        tmp_path,
        "bath.model=drude\nbath.omega_d=10.0\nbath.gamma=1.0\n",
    )
    out = tmp_path / "out"
    rc = main(["kernels", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("noise_freq.csv", "spectral_density.csv",
                 "friction_time.csv", "noise_time.csv"):
        assert (out / name).exists(), name

    records = _read_manifest(out)
    run = records[0]
    assert run["record"] == "run"
    assert run["command"] == "kernels"
    assert run["version"] == bathdyn.__version__
    config_rec = next(r for r in records if r["record"] == "config")
    assert config_rec["values"]["bath.omega_d"] == 10.0
    outputs = {r["path"] for r in records if r["record"] == "output"}
    assert "noise_freq.csv" in outputs
    checks = [r for r in records if r["record"] == "check"]
    assert checks and all(c["pass"] for c in checks)

    header = (out / "noise_freq.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "omega"


def test_kernels_runs_are_reproducible(tmp_path):
    cfg = _write_config(tmp_path, "bath.model=drude\nbath.omega_d=5.0\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["kernels", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["kernels", "--config", cfg, "--out", str(b), "--quiet"]) == 0
    assert (a / "noise_freq.csv").read_bytes() == (b / "noise_freq.csv").read_bytes()
    assert (a / "noise_time.csv").read_bytes() == (b / "noise_time.csv").read_bytes()


def test_kernels_missing_cutoff_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bath.model=drude\n")
    rc = main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "bath.omega_d" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bath.model=ohmic\nbath.typo=1\n")
    rc = main(["kernels", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown config key: bath.typo" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["kernels", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_simulate_unstable_fp_dt_exits_1(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "sim.kind=smoluchowski\nfp.dt=10.0\ngrid.nx=64\n",
    )
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "suggested dt" in capsys.readouterr().err


def test_simulate_requires_kind(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.steps=10\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sim.kind" in capsys.readouterr().err

    bad = _write_config(tmp_path, "sim.kind=quantum\n", name="bad.cfg")
    rc = main(["simulate", "--config", bad, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sim.kind" in capsys.readouterr().err


def test_decohere_rejects_classical_limit(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bath.hbar=0.0\n")
    rc = main(["decohere", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "hbar" in capsys.readouterr().err


@pytest.mark.parametrize("key, bound, past", [
    ("state.sigma", _RESOLVED * 0.1, 0.0),
    ("state.separation", 8.0, math.inf),
], ids=["sigma", "separation"])
def test_decohere_grid_rules_stop_at_their_bounds(tmp_path, capsys, key, bound, past):
    """On the default 101 x 81 grid (dx = 0.08, dy = 0.2): the narrowest
    state the grid resolves has 2 sigma = 1.67 dy, and the widest
    superposition puts its centres on the outer x points, +-4. Each bound
    passes the rules; one float past it is a config error naming the key."""
    assert _RESOLVED == pytest.approx(math.sqrt(2.0 * math.log(1e6)) / math.pi, rel=1e-15)
    for value in (bound, math.nextafter(bound, past)):
        cfg = _write_config(tmp_path, f"{key}={value!r}\nrun.steps=1\n")
        rc = main(["decohere", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        if value == bound:
            assert rc != 2 and err == ""
        else:
            assert rc == 2 and err.startswith(f"config error: {key} ")


def test_decohere_fails_grid_fits_on_a_state_that_touches_the_edge(tmp_path, capsys):
    """The symmetric byte-identity case: a Gaussian of width 0.3 on a 33 x 25
    grid stands at 3.4e-4 of its peak on the y edges from the start. Every
    other check passes (its row of _CHECK_TABLE); grid_fits alone fails the
    run, exit 1, with all its outputs written."""
    from bathdyn import gaussian_pure_state
    from bathdyn.decoherence import _EDGE_TOL

    cfg = _write_config(tmp_path, _CHECK_TABLE["decohere", "symmetric", "harmonic"][1])
    out = tmp_path / "o"
    assert main(["decohere", "--config", cfg, "--out", str(out)]) == 1
    assert "check grid fits, edge measure <= 1e-06: FAIL" in capsys.readouterr().out
    checks = {r["name"]: r for r in _read_manifest(out) if r["record"] == "check"}
    fits = checks.pop("grid_fits")
    assert fits["pass"] is False and fits["threshold"] == _EDGE_TOL
    start = gaussian_pure_state(33, 0.08, 25, 0.2, sigma=0.3).edge_measure()
    assert fits["edge_start"] == start and 3e-4 < start
    assert fits["edge_max"] >= start
    assert {r["path"] for r in _read_manifest(out) if r["record"] == "output"} == {
        "decay.csv", "rho_final.csv", "wigner_final.csv"}


def test_simulate_ensemble_csv_roundtrip(tmp_path):
    cfg = _write_config(
        tmp_path,
        "sim.kind=ensemble\nrun.dt=0.01\nrun.steps=50\nrun.n_traj=400\n"
        "run.seed=77\nrun.x0=0.5\nbath.gamma=2.0\nbath.k_bt=0.5\n"
        "potential.kind=harmonic\n",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "moments.csv").read_text().splitlines()
    assert lines[0] == "key,value"
    for line in lines[1:]:
        cells = line.split(",")
        val = float(cells[1])
        # 17 significant digits reproduce the double exactly
        assert format(val, ".17g") == cells[1]
    assert (out / "histogram.csv").exists()

    hist = np.genfromtxt(out / "histogram.csv", delimiter=",", names=True)
    widths = hist["bin_right"] - hist["bin_left"]
    assert abs(float((hist["density"] * widths).sum()) - 1.0) < 1e-9


def test_seed_flag_overrides_config(tmp_path):
    base = ("sim.kind=ensemble\nrun.steps=40\nrun.n_traj=200\n"
            "run.seed=1\nrun.x0=0.3\n")
    cfg = _write_config(tmp_path, base)
    a, b, c = (tmp_path / n for n in "abc")
    assert main(["simulate", "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--quiet",
                 "--seed", "99"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(c), "--quiet",
                 "--seed", "99"]) == 0
    ma = (a / "moments.csv").read_bytes()
    mb = (b / "moments.csv").read_bytes()
    mc = (c / "moments.csv").read_bytes()
    assert mb == mc
    assert ma != mb
    rec = next(r for r in _read_manifest(b) if r["record"] == "config")
    assert rec["values"]["run.seed"] == 99


def test_seed_flag_replaces_run_seed_after_its_read():
    """--seed reaches run.seed through RunConfig: the file's value is still
    read and validated, then replaced; None replaces nothing."""
    cfg = RunConfig({"run.seed": "5"}, {"run.seed": 99})
    assert cfg.get("run.seed", as_int, 1234) == 99 and cfg.resolved["run.seed"] == 99
    assert RunConfig({}, {"run.seed": 7}).get("run.seed", as_int, 1234) == 7
    assert RunConfig({"run.seed": "5"}, {"run.seed": None}).get("run.seed", as_int) == 5
    with pytest.raises(ConfigError, match="invalid value for run.seed"):
        RunConfig({"run.seed": "x"}, {"run.seed": 99}).get("run.seed", as_int, 1234)


def test_seed_flag_is_validated_and_ignored_where_run_seed_is_not_read(tmp_path, capsys):
    bad = _write_config(tmp_path, "sim.kind=ensemble\nrun.steps=5\nrun.n_traj=10\n"
                        "run.seed=x\n")
    assert main(["simulate", "--config", bad, "--out", str(tmp_path / "a"), "--quiet",
                 "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith("config error: invalid value for run.seed")
    for command, text in (("kernels", "bath.model=ohmic\ngrid.nw=11\n"),
                          ("det-check", "det.n=10000\n")):
        cfg = _write_config(tmp_path, text, f"{command}.cfg")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet",
                     "--seed", "3"]) == 0
        values = next(r for r in _read_manifest(out) if r["record"] == "config")["values"]
        assert "run.seed" not in values


def test_readme_configs_run(tmp_path):
    """Each ini block of the README is a config that the command of its
    section runs to exit 0. The kernels example set bath.k_bt, which a
    classical run does not read, and a comment after a value, which no
    value may carry."""
    import pathlib
    import re

    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^### ([a-z-]+)\n(?:(?!^### ).)*?```ini\n(.*?)```", readme,
                        re.MULTILINE | re.DOTALL)
    assert [command for command, _ in blocks] == ["kernels", "simulate"]
    for command, text in blocks:
        out = tmp_path / command
        assert main([command, "--config", _write_config(tmp_path, text), "--out", str(out),
                     "--quiet"]) == 0


def _error_records(out_dir):
    return [r for r in _read_manifest(out_dir) if r["record"] == "error"]


def test_closed_stdout_ends_the_progress_lines_not_the_run(tmp_path, monkeypatch):
    """A reader that closed stdout (`bathdyn det-check | head -c0`): the first
    progress line raises BrokenPipeError, stdout is pointed at os.devnull, and
    the run finishes, writes its manifest and exits by its checks."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        with pytest.raises(BrokenPipeError):
            print("probe", file=closed, flush=True)
        assert main(["det-check", "--out", str(tmp_path / "o")]) == 0
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    records = _read_manifest(tmp_path / "o")
    assert _error_records(tmp_path / "o") == []
    assert [r for r in records if r["record"] == "check"]
    assert all(r["pass"] for r in records if r["record"] == "check")


def test_failed_run_manifest_records_the_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "sim.kind=smoluchowski\nfp.dt=10.0\ngrid.nx=64\n",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    line = capsys.readouterr().err.strip()
    records = _read_manifest(out)
    assert records[-1] == {"record": "error", "exit_code": 1, "message": line}
    config_rec = next(r for r in records if r["record"] == "config")
    assert config_rec["values"]["fp.dt"] == 10.0
    assert [r for r in records if r["record"] == "output"] == []


def test_recorded_kramers_run_builds_its_increment_kernel_once(tmp_path, monkeypatch):
    """A grid run is one records run: its kernel is built once, however many
    records it writes."""
    import bathdyn.fokker_planck as fp

    built = []
    kernel = fp.KramersOperator.increment_kernel
    monkeypatch.setattr(fp.KramersOperator, "increment_kernel",
                        lambda self, dt: built.append(1) or kernel(self, dt))
    cfg = _write_config(tmp_path, "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\n"
                        "fp.steps=10\nfp.record_every=3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert len((tmp_path / "o" / "mass.csv").read_text().splitlines()) == 1 + 5
    assert len(built) == 1


def test_histogram_of_a_lone_far_survivor_is_a_numerical_error(tmp_path, capsys):
    """The one survivor of this run ends near -7.6e21, where numpy cannot
    split a range of +-0.5 into finite bins: the run fails as numerical."""
    cfg = _write_config(
        tmp_path,
        "sim.kind=ensemble\nrun.mode=inertial\npotential.kind=polynomial\n"
        "potential.coeffs=0,0,1,0,-2\nbath.k_bt=1\nrun.dt=0.04\nrun.steps=23\n"
        "run.n_traj=1\nrun.seed=1\nrun.sigma_x=2\n",
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    line = capsys.readouterr().err.strip()
    assert line.startswith("error: ")
    assert _error_records(out) == [
        {"record": "error", "exit_code": 1, "message": line}]


def test_config_error_manifest_records_the_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bath.model=ohmic\nbath.typo=1\n")
    out = tmp_path / "o"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 2
    line = capsys.readouterr().err.strip()
    assert line == "config error: unknown config key: bath.typo"
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]


def test_successful_run_has_no_error_record(tmp_path):
    assert main(["det-check", "--out", str(tmp_path), "--quiet"]) == 0
    assert _error_records(tmp_path) == []


def test_unwritable_error_manifest_keeps_exit_code_and_message(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "sim.kind=smoluchowski\nfp.dt=10.0\ngrid.nx=64\n",
    )
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    rc = main(["simulate", "--config", cfg, "--out", str(blocker / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: drift-augmented stability bound exceeded")
    assert err.count("\n") == 1


def test_compare_l1_on_its_budget_fails(tmp_path, monkeypatch):
    """The L1 budget is strict: an L1 equal to 3 (stat_err + disc_err) fails."""
    import types

    import bathdyn.cli as cli
    from bathdyn import ComparisonRecord

    rec = ComparisonRecord(t=0.05, l1=2.25, sup=0.0, stat_err=0.25, disc_err=0.5,
                           ens_mean=0.0, ens_var=1.0, fp_mean=0.0, fp_var=1.0,
                           n_samples=10)
    assert rec.l1 == 3.0 * (rec.stat_err + rec.disc_err)
    stats = types.SimpleNamespace(n_traj=10, n_diverged=0, steps=10, dt=0.005,
                                  mean_x=0.0, var_x=1.0, se_x=0.3, final_v=None)
    monkeypatch.setattr(cli, "compare_langevin_fp",
                        lambda *args, **kwargs: ([rec], stats))
    cfg = _write_config(tmp_path, "sim.kind=compare\ncompare.times=0.05\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    [check] = [r for r in _read_manifest(out) if r["record"] == "check"
               and r["name"].startswith("l1_")]
    assert check["name"] == "l1_within_budget_t_0.05"
    assert check["pass"] is False
    assert check["l1"] == check["budget"] == 2.25


@pytest.mark.parametrize("times", ["0.05,0.1,0.05", "0.1,0.1000001"])
def test_compare_times_with_one_check_name_exit_2(tmp_path, monkeypatch, capsys, times):
    """Two times that name the same l1_within_budget_t_{t:g} check are a config
    error, raised before any work runs."""
    import bathdyn.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("compare ran")

    monkeypatch.setattr(cli, "compare_langevin_fp", never)
    cfg = _write_config(tmp_path, f"sim.kind=compare\ncompare.times={times}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith("config error: compare.times must differ")
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]
    assert not (out / "compare.jsonl").exists()


@pytest.mark.parametrize("kind, n_traj, key, edge", [
    ("ensemble", 1024, "run.steps", 131_072),
    ("compare", 128, "compare.times", 1 << 20),
])
def test_noise_rule_stops_at_its_bound(tmp_path, monkeypatch, capsys, kind, n_traj, key,
                                       edge):
    """A run's step noise, steps x _chunk_size(n_traj, steps) doubles, may fill
    _SIZE_LIMIT = 1 GiB: 131,072 steps of 1,024 trajectories, or 2^20 steps
    of 128. One step more is a config error naming the key; compare's, whose
    steps are max(compare.times) / run.dt, names run.dt in its text too. The
    work is stubbed on both sides, so no buffer is allocated."""
    import bathdyn.cli as cli

    def reached(*args, **kwargs):
        raise RuntimeError("reached the run")

    monkeypatch.setattr(cli, "run_ensemble", reached)
    monkeypatch.setattr(cli, "compare_langevin_fp", reached)
    assert cli._SIZE_LIMIT == 1 << 30
    for steps in (edge, edge + 1):
        length = (f"compare.times={steps * 0.001!r}\nrun.dt=0.001\n" if kind == "compare"
                  else f"run.steps={steps}\n")
        cfg = _write_config(tmp_path, f"sim.kind={kind}\nrun.n_traj={n_traj}\n{length}")
        out = tmp_path / f"out-{steps}"
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        if steps == edge:
            assert (rc, err) == (1, "error: reached the run\n")
        else:
            assert rc == 2 and err.startswith(f"config error: {key} must keep the step noise")
            assert (f"{steps} steps" if kind == "compare" else f"run.steps = {steps}") in err
            assert ("run.dt" in err) == (kind == "compare")
            assert _error_records(out) == [
                {"record": "error", "exit_code": 2, "message": err.strip()}]


@pytest.mark.parametrize("kind, edge", [("ensemble", 1 << 26), ("compare", (1 << 30) // 24)])
def test_trajectory_rule_stops_at_its_bound(tmp_path, monkeypatch, capsys, kind, edge):
    """A run's arrays of one double per trajectory, the final x and v and one
    per compare time, may fill _SIZE_LIMIT = 1 GiB: 2^26 trajectories of an
    ensemble (two arrays), or 44,739,242 of a compare run at one time (three).
    One trajectory more is a config error naming run.n_traj. The work is
    stubbed on both sides, so no array is allocated."""
    import bathdyn.cli as cli

    def reached(*args, **kwargs):
        raise RuntimeError("reached the run")

    monkeypatch.setattr(cli, "run_ensemble", reached)
    monkeypatch.setattr(cli, "compare_langevin_fp", reached)
    assert cli._SIZE_LIMIT == 1 << 30
    length = "compare.times=0.05\n" if kind == "compare" else "run.steps=10\n"
    for n_traj in (edge, edge + 1):
        cfg = _write_config(tmp_path, f"sim.kind={kind}\nrun.n_traj={n_traj}\n{length}")
        out = tmp_path / f"out-{n_traj}"
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        if n_traj == edge:
            assert (rc, err) == (1, "error: reached the run\n")
        else:
            assert rc == 2 and err.startswith(
                "config error: run.n_traj must keep the per-trajectory arrays, "
                f"{3 if kind == 'compare' else 2} x {n_traj} trajectories x 8 bytes")
            assert _error_records(out) == [
                {"record": "error", "exit_code": 2, "message": err.strip()}]


# (command, config with {} for the sized value, the largest value _SIZE_LIMIT
# admits, the key the next value names): the edge of every size rule beyond
# the step noise and the per-trajectory arrays, at 2^27 doubles over the
# count of arrays the rule states. A grid's rows count step 0 and each mark,
# so fp.steps = 2,581,109 records 2,581,110 rows of 52 values; decohere's
# nx = 103,125 = 3 5^5 11 pads to itself, and nx + 1 to 105,875; det.n =
# 22,369,620 steps have 22,369,621 nodes of 6 arrays
_SIZE_EDGES = {
    "smoluchowski-grid": ("simulate", "sim.kind=smoluchowski\ngrid.nx={}", 12_201_611,
                          "grid.nx"),
    "compare-grid": ("simulate", "sim.kind=compare\ncompare.times=0.05\ncompare.bins=1\n"
                     "grid.nx={}", 14_913_080, "grid.nx"),
    "kramers-grid": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv={}", 493_447,
                     "grid.nx * grid.nv"),
    "decohere-grid": ("decohere", "state.kind=gaussian\ngrid.ny=81\ngrid.nx={}", 103_125,
                      "grid.nx * grid.ny"),
    "kernels-nw": ("kernels", "grid.nw={}", 1 << 24, "grid.nw"),
    "kernels-nt": ("kernels", "bath.model=drude\nbath.omega_d=10\ngrid.nt={}", 19_173_961,
                   "grid.nt"),
    "ensemble-bins": ("simulate", "sim.kind=ensemble\noutput.bins={}", 22_369_621,
                      "output.bins"),
    "smoluchowski-rows": ("simulate", "sim.kind=smoluchowski\nfp.record_every=1\n"
                          "fp.steps={}", 2_581_109, "fp.record_every"),
    "decohere-rows": ("decohere", "run.record_every=1\nrun.steps={}", 2_581_109,
                      "run.record_every"),
    "det-n": ("det-check", "det.n={}", 22_369_620, "det.n"),
}


@pytest.mark.parametrize("case", sorted(_SIZE_EDGES))
def test_size_rule_stops_at_its_bound(tmp_path, monkeypatch, capsys, case):
    """At its edge a run reaches its work, stubbed where it would allocate its
    first sized array (the ensemble, the start field or state, the kernel
    tables' np.linspace, the determinant cases); one unit over, it is a config
    error naming the key, with a manifest ending in the error record. Neither
    side allocates."""
    import bathdyn.checks as checks
    import bathdyn.cli as cli

    def reached(*args, **kwargs):
        raise RuntimeError("reached the run")

    for name in ("run_ensemble", "compare_langevin_fp", "gaussian_field_1d",
                 "gaussian_field_2d", "gaussian_pure_state", "superposition_state"):
        monkeypatch.setattr(cli, name, reached)
    monkeypatch.setattr(cli.np, "linspace", reached)
    monkeypatch.setattr(checks, "det_cases", reached)
    command, text, edge, key = _SIZE_EDGES[case]
    for value in (edge, edge + 1):
        cfg = _write_config(tmp_path, text.format(value) + "\n")
        out = tmp_path / f"out-{value}"
        rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        if value == edge:
            assert (rc, err) == (1, "error: reached the run\n")
        else:
            assert rc == 2 and err.startswith(f"config error: {key} must keep ")
            assert f" x 8 bytes, within {cli._SIZE_LIMIT:,} bytes (got " in err
            assert int(err.rsplit("(got ", 1)[1].rstrip(")\n").replace(",", "")) > 1 << 30
            assert _error_records(out) == [
                {"record": "error", "exit_code": 2, "message": err.strip()}]


# (config with {} for the sized value, two sizes, the rule's units at a
# size) of each _SIZE_EDGES row: a small run of the same command, shaped so
# that the sized arrays hold its peak. compare runs 16 trajectories for one
# step of run.dt = 1e-8: at its default 20,000 trajectories the ensemble's
# buffers, which run_ensemble frees before the grid solve starts, held the
# peak of every grid up to a few thousand cells, and the peak grew by 0.7
# doubles per cell, not the grid's 9
_SIZE_SLOPES = {
    "smoluchowski-grid": ("sim.kind=smoluchowski\nfp.steps=1\ngrid.nx={}", (10_000, 30_000),
                          lambda v: v),
    "compare-grid": ("sim.kind=compare\nrun.n_traj=16\nrun.dt=1e-8\ncompare.times=1e-8\n"
                     "compare.bins=1\ngrid.nx={}", (16_384, 65_536), lambda v: v),
    "kramers-grid": ("sim.kind=kramers\nfp.steps=1\ngrid.nx=16\ngrid.nv={}", (512, 2_048),
                     lambda v: 16 * v),
    "decohere-grid": ("state.kind=gaussian\nrun.steps=1\ngrid.ny=81\ngrid.nx={}", (99, 189),
                      lambda v: _odd_padded(v) * 81),
    "kernels-nw": ("grid.nw={}", (10_000, 30_000), lambda v: v),
    "kernels-nt": ("bath.model=drude\nbath.omega_d=10\ngrid.nw=11\ngrid.nt={}",
                   (10_000, 30_000), lambda v: v),
    "ensemble-bins": ("sim.kind=ensemble\nrun.steps=1\nrun.n_traj=16\noutput.bins={}",
                      (10_000, 30_000), lambda v: v),
    "smoluchowski-rows": ("sim.kind=smoluchowski\ngrid.nx=16\nfp.record_every=1\nfp.steps={}",
                          (1_000, 3_000), lambda v: v + 1),
    "decohere-rows": ("state.kind=gaussian\ngrid.nx=41\ngrid.ny=21\nrun.record_every=1\n"
                      "run.steps={}", (250, 750), lambda v: v + 1),
    "det-n": ("det.n={}", (1_000, 2_200), lambda v: v + 1),
}
# bytes by which the traced peak of one run moves between reruns with the
# garbage collector paused (at most 1.6 KB over three reruns of every row's
# two sizes, on a 2-core x86 host), less than half an array of each row's
# step in size
_PEAK_NOISE = 1 << 12


@pytest.mark.parametrize("case", sorted(_SIZE_EDGES))
def test_size_rule_counts_the_arrays_its_run_holds(tmp_path, case):
    """A size rule admits 2^27 doubles at its edge, so its count of arrays
    per unit is 2^27 over the units at its _SIZE_EDGES edge. The traced peak
    of a run grows between two sizes by at most that count of doubles per
    unit, and by at least one: the sized arrays hold the peak. A change that
    adds a buffer of the sized shape must raise its rule."""
    import gc
    import tracemalloc

    command, _, edge, _ = _SIZE_EDGES[case]
    text, sizes, units = _SIZE_SLOPES[case]
    count = (1 << 27) // units(edge)

    def peak(value: int) -> int:
        cfg = _write_config(tmp_path, text.format(value) + "\n", name=f"{value}.cfg")
        out = tmp_path / f"out-{value}"
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rc in (0, 1) and _error_records(out) == []
        return peak

    peak(sizes[0] // 8)  # a first run's imports and caches stay out of the slope
    grown = peak(sizes[1]) - peak(sizes[0])
    doubles = 8 * (units(sizes[1]) - units(sizes[0]))
    assert doubles <= grown <= count * doubles + _PEAK_NOISE, (grown / doubles, count)


# small kramers, compare and Drude kernel runs
_KRAMERS_SMALL = "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\nfp.steps=5\n"
_COMPARE_SMALL = ("sim.kind=compare\ncompare.times=0.01\nrun.n_traj=50\ngrid.nx=64\n"
                  "compare.bins=8\n")
_DRUDE_SMALL = "bath.model=drude\nbath.omega_d=10\ngrid.nw=11\ngrid.nt=65\n"


# a quantum Drude bath with nu1 = 2 pi k_bt / hbar = 1 (to roundoff)
_NEAR_POLE = ("bath.model=drude\nbath.hbar=1\nbath.k_bt=0.15915494309189535\ngrid.nt=65\n"
              "grid.nw=11")


def _strict_records(out_dir) -> list[dict]:
    """The manifest's records, read by a JSON reader that refuses the NaN and
    Infinity constants."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    lines = (out_dir / "manifest.json").read_text().splitlines()
    return [json.loads(line, parse_constant=refuse) for line in lines]


_KRAMERS_BOUND = KramersOperator(PhaseGrid(-4.0, 4.0, 16, -4.0, 4.0, 16),
                                 Harmonic(mass=1.0, omega0=1.0), BathParams(1.0, 1.0, 1.0, 0.0)).dt_max


# (command, config, exit code, dt, its source, dt_max): an automatic Kramers
# step, a configured one over the bound, a Smoluchowski step, and decohere's
# friction CFL bound 1 / gamma (ny // 2), or none on a grid of one y column
@pytest.mark.parametrize("command, text, code, dt, source, dt_max", [
    ("simulate", _KRAMERS_SMALL, 0, 0.5 * _KRAMERS_BOUND, "auto", _KRAMERS_BOUND),
    ("simulate", _KRAMERS_SMALL + "fp.dt=0.05\n", 1, 0.05, "config", _KRAMERS_BOUND),
    ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=5\nfp.dt=0.01\n", 0, 0.01,
     "config", SmoluchowskiOperator(PhaseGrid(-4.0, 4.0, 16), Harmonic(mass=1.0, omega0=1.0),
                                    BathParams(1.0, 1.0, 1.0, 0.0)).dt_max),
    ("decohere", "state.kind=gaussian\ngrid.nx=33\ngrid.ny=25\nrun.steps=5\n", 1, 0.002,
     "config", 1.0 / (6.25e-3 * 12)),
    ("decohere", "state.kind=gaussian\ngrid.nx=33\ngrid.ny=1\nrun.steps=5\n", 1, 0.002,
     "config", None),
], ids=["kramers-auto", "kramers-over-bound", "smoluchowski", "decohere", "decohere-ny-1"])
def test_grid_run_records_the_dt_it_stepped_at(tmp_path, capsys, command, text, code, dt,
                                                source, dt_max):
    """A grid or decohere run's numerics record holds the dt it stepped at,
    its source (config, or auto where fp.dt <= 0 asks for half the bound),
    the stability bound dt_max and dt / dt_max, and the step count; an auto
    dt sits at 0.5 of the bound exactly. It comes before the first step, so
    a dt the bound refuses (exit 1) carries it, followed by the error
    record. An infinite bound (decohere without friction columns) is written
    null, so a strict JSON reader takes the manifest. Before 0.11.0 only
    stdout showed an automatic dt: the manifest held fp.dt = 0."""
    out = tmp_path / "o"
    assert main([command, "--config", _write_config(tmp_path, text), "--out", str(out),
                 "--quiet"]) == code
    records = _strict_records(out)
    kinds = [r["record"] for r in records]
    at = kinds.index("numerics")
    assert kinds.count("numerics") == 1 and kinds[at + 1] in {"check", "error"}
    ratio = 0.0 if dt_max is None else dt / dt_max
    assert records[at] == {"record": "numerics", "dt": dt, "dt_source": source,
                           "dt_max": dt_max, "dt_ratio": ratio, "steps": 5}
    if source == "auto":
        assert records[at]["dt_ratio"] == 0.5
    if ratio > 1.0:
        assert kinds[at + 1:] == ["error"] and "phase-space stability bound" in \
            capsys.readouterr().err


# (command, config, start of the stderr line after "config error: ") of runs
# that ended in a traceback with no manifest: an _ArrayMemoryError or a
# MemoryError (under ulimit -v 2000000) before their size rules, or an
# OverflowError from Harmonic.k or from a grid spacing's square; or that
# exited 2 naming no key; or that exited 1 after numpy warnings
_KEYLESS_FAILURES = {
    "smoluchowski-grid": ("simulate", "sim.kind=smoluchowski\ngrid.nx=2000000000",
                          "grid.nx must keep the grid, 2000000000 cells x 11 arrays"),
    "kramers-grid": ("simulate", "sim.kind=kramers\ngrid.nx=100000\ngrid.nv=100000",
                     "grid.nx * grid.nv must keep the grid, 100000 x 100000 cells x 17"),
    "compare-grid": ("simulate", "sim.kind=compare\ncompare.times=0.05\ngrid.nx=2000000000",
                     "grid.nx must keep the grid, 2000000000 cells x 9 arrays"),
    "decohere-grid": ("decohere", "grid.nx=200001\ngrid.ny=200001\nstate.kind=gaussian",
                      "grid.nx * grid.ny must keep the padded FFT grid, 40000400001 cells"),
    "kernels-nw": ("kernels", "grid.nw=1000000000", "grid.nw must keep the frequency table"),
    "kernels-nt": ("kernels", "bath.model=drude\nbath.omega_d=10\ngrid.nt=1000000000",
                   "grid.nt must keep the time tables"),
    "ensemble-bins": ("simulate", "sim.kind=ensemble\noutput.bins=1000000000",
                      "output.bins must keep the histogram"),
    "smoluchowski-rows": ("simulate", "sim.kind=smoluchowski\nfp.steps=10000000000\n"
                          "fp.record_every=1", "fp.record_every must keep the mass records"),
    "decohere-rows": ("decohere", "run.steps=10000000000\nrun.record_every=1",
                      "run.record_every must keep the decay records"),
    "det-n": ("det-check", "det.n=1000000000000",
              "det.n must keep the determinant tables, 1000000000001 nodes x 6 arrays"),
    "ensemble-omega0-1e200": ("simulate", "sim.kind=ensemble\npotential.omega0=1e200\n"
                              "run.steps=2\nrun.n_traj=4", "potential.omega0 must be > 0 with"),
    "kramers-omega0-1e200": ("simulate", "sim.kind=kramers\npotential.omega0=1e200\n"
                             "grid.nx=16\ngrid.nv=16", "potential.omega0 must be > 0 with"),
    "decohere-omega0-1e200": ("decohere", "potential.kind=harmonic\npotential.omega0=1e200",
                              "potential.omega0 must be > 0 with"),
    "omega0-0": ("simulate", "sim.kind=ensemble\npotential.omega0=0",
                 "potential.omega0 must be > 0 with mass omega0^2 finite and nonzero"),
    "omega0-inf": ("simulate", "sim.kind=smoluchowski\npotential.omega0=inf",
                   "potential.omega0 must be > 0 with"),
    "omega0-1e-200": ("simulate", "sim.kind=ensemble\npotential.omega0=1e-200",
                      "potential.omega0 must be > 0 with"),
    "double_well-a-nan": ("simulate", "sim.kind=smoluchowski\npotential.kind=double_well\n"
                          "potential.a=nan", "potential.a must be finite"),
    "double_well-b-0": ("simulate", "sim.kind=ensemble\npotential.kind=double_well\n"
                        "potential.b=0", "potential.b must be finite and > 0"),
    "polynomial-coeffs-nan": ("simulate", "sim.kind=ensemble\npotential.kind=polynomial\n"
                              "potential.coeffs=0,nan,1", "potential.coeffs must be finite"),
    "x_min-nan": ("simulate", "sim.kind=smoluchowski\ngrid.x_min=nan",
                  "grid.x_min must be finite"),
    "kramers-v_max": ("simulate", "sim.kind=kramers\ngrid.v_max=-5",
                      "grid.v_max must exceed v_min = -4 by a finite span (got -5)"),
    "kramers-x-span": ("simulate", "sim.kind=kramers\ngrid.x_min=-1e308\ngrid.x_max=1e308",
                       "grid.x_max must exceed x_min = -1e+308 by a finite span"),
    "ensemble-x0-nan": ("simulate", "sim.kind=ensemble\nrun.x0=nan", "run.x0 must be finite"),
    "ensemble-v0-inf": ("simulate", "sim.kind=ensemble\nrun.mode=inertial\nrun.v0=inf",
                        "run.v0 must be finite"),
    # the quantum Drude kernel's pole band (kernels._pole_roundoff): 3 + 1e-6
    # exited 0 with K(0.05) off by 8.7e-5 relative, an exact multiple exited 2
    # naming no key after writing three CSVs, and nu1 = 2 pi / 1e100 leaves
    # omega_d / nu1 no fractional part
    "drude-pole-1e-6": ("kernels", f"{_NEAR_POLE}\nbath.omega_d=3.000001",
                        "bath.omega_d must keep r = omega_d / nu1 = 3.000001 out of the pole"),
    "drude-pole-1e-9": ("kernels", f"{_NEAR_POLE}\nbath.omega_d=3.000000001",
                        "bath.omega_d must keep r = omega_d / nu1 = 3.000000001 out of the"),
    "drude-hbar-1e100": ("kernels", "bath.model=drude\nbath.hbar=1e100\nbath.k_bt=1\n"
                         "bath.omega_d=1\ngrid.nt=65\ngrid.nw=11\ngrid.t_max=1e120",
                         "bath.omega_d must keep r = omega_d / nu1 = 1.591549431e+99 out"),
    # state.separation was read with no rule: a Gaussian state ran on nan,
    # inf or -4, and a superposition's -4 exited with "separation must be > 0".
    # A Gaussian state reads no state.separation, so it is an unknown key
    "gaussian-separation-nan": ("decohere", "state.kind=gaussian\nstate.separation=nan",
                                "unknown config key: state.separation"),
    "gaussian-separation-inf": ("decohere", "state.kind=gaussian\nstate.separation=inf",
                                "unknown config key: state.separation"),
    "gaussian-separation--4": ("decohere", "state.kind=gaussian\nstate.separation=-4",
                               "unknown config key: state.separation"),
    "superposition-separation--4": ("decohere", "state.separation=-4",
                                    "state.separation must be finite and > 0"),
    # MasterOperator refused a y grid coarser than l_e / 2 after the run's
    # rules, "y grid too coarse to resolve the thermal length", naming no key
    # (l_e / 2 = 0.28 at the default bath, and 2.8e-4 at k_bt = 1e6)
    "decohere-dy-0.5": ("decohere", "grid.dy=0.5\nstate.sigma=2.0\nstate.kind=gaussian\n"
                        "run.steps=2", "grid.dy must resolve the thermal length l_e = "
                        "sqrt(2 pi hbar^2 / M k_bt): be <= l_e / 2 = 0.28025 (got 0.5)"),
    "decohere-k_bt-1e6": ("decohere", "bath.k_bt=1e6",
                          "grid.dy must resolve the thermal length l_e = sqrt(2 pi hbar^2 / "
                          "M k_bt): be <= l_e / 2 = 0.00028025 (got 0.2)"),
    # the quantum Drude series' 2,000,000-term cap cut the sum short and the
    # run exited 0: 43.4 at the default grid (nu1 = 1) needs 2,000,118 terms,
    # and r = 3000.3 138,270,702, where K was off by 6.3e-8 relative
    "drude-series-43.4": ("kernels", "bath.model=drude\nbath.hbar=1\n"
                          "bath.k_bt=0.15915494309189535\nbath.omega_d=43.4",
                          "grid.nt must keep the quantum kernel's thermal series within "
                          "2,000,000 terms: its tail needs 9,041,379 and the smallest |t| = "
                          "2.24987e-05 cuts it at 2,000,118"),
    "drude-series-3000.3": ("kernels", "bath.model=drude\nbath.hbar=1\n"
                            "bath.k_bt=0.15915494309189535\nbath.omega_d=3000.3",
                            "grid.nt must keep the quantum kernel's thermal series within "
                            "2,000,000 terms: its tail needs 5,196,931,867"),
    # a cell width whose square overflows: compare warned "overflow
    # encountered in multiply" and ended in an OverflowError traceback, and
    # smoluchowski and kramers named fp.sigma_x, the start's width; one whose
    # square vanishes printed two "divide by zero" warnings and exited 1 with
    # "error: dt must be > 0"
    "compare-x_max-1e300": ("simulate", f"{_COMPARE_SMALL}grid.x_max=1e300",
                            "grid.x_max must give cells of width (x_max - x_min) / nx a finite, "
                            "nonzero square (got 1.5625e+298)"),
    "compare-x_max-1e160": ("simulate", f"{_COMPARE_SMALL}grid.x_max=1e160",
                            "grid.x_max must give cells of width (x_max - x_min) / nx a finite, "
                            "nonzero square (got 1.5625e+158)"),
    "compare-x_min-1e300": ("simulate", f"{_COMPARE_SMALL}grid.x_min=-1e300",
                            "grid.x_max must give cells of width"),
    "smoluchowski-x_max-1e300": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                                 "grid.x_max=1e300", "grid.x_max must give cells of width"),
    "kramers-x_max-1e300": ("simulate", f"{_KRAMERS_SMALL}grid.x_max=1e300",
                            "grid.x_max must give cells of width"),
    "smoluchowski-x-1e-170": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                              "grid.x_min=-1e-170\ngrid.x_max=1e-170",
                              "grid.x_max must give cells of width (x_max - x_min) / nx a "
                              "finite, nonzero square (got 1.25e-171)"),
    "kramers-v-1e-170": ("simulate", f"{_KRAMERS_SMALL}grid.v_min=-1e-170\ngrid.v_max=1e-170",
                         "grid.v_max must give cells of width (v_max - v_min) / nv a finite, "
                         "nonzero square (got 1.25e-171)"),
    # a cell width whose square is subnormal passed the rule above, yet the
    # flux weights' D / width^2, or the Kramers x advection rate 2 max|v| /
    # width, overflowed: numpy overflow warnings (none for the advection
    # rate) and exit 1 with "error: dt must be > 0", or for compare
    # "run.dt must be at most 4,096 times the grid's stable step dt_max = 0"
    "smoluchowski-x-1e-160": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                              "grid.x_min=-1e-160\ngrid.x_max=1e-160",
                              "grid.x_max must give cells of width (x_max - x_min) / nx = "
                              "1.25e-161 a finite diffusion rate D / width^2 (D = 1)"),
    "kramers-v-1e-160": ("simulate", f"{_KRAMERS_SMALL}grid.v_min=-1e-160\ngrid.v_max=1e-160",
                         "grid.v_max must give cells of width (v_max - v_min) / nv = 1.25e-161 "
                         "a finite diffusion rate d_v / width^2 (d_v = 1)"),
    "compare-x-1e-155": ("simulate", f"{_COMPARE_SMALL}grid.x_min=-1e-155\ngrid.x_max=1e-155",
                         "grid.x_max must give cells of width (x_max - x_min) / nx = 3.125e-157 "
                         "a finite diffusion rate D / width^2"),
    "kramers-x-advection": ("simulate", f"{_KRAMERS_SMALL}grid.x_min=-2.4e-161\n"
                            "grid.x_max=2.4e-161\ngrid.v_min=-1e154\ngrid.v_max=1e154\n"
                            "fp.sigma_v=1e153", "grid.x_max must give cells of width (x_max - "
                            "x_min) / nx = 3e-162 a finite advection rate 2 max|v| / width "
                            "(max|v| = 9.375e+153)"),
    # a steep drift over fine cells overflowed the Scharfetter-Gummel
    # outflow rate, about |drift| / width: "overflow encountered in divide",
    # dt_max = 0 and exit 1 with "error: dt must be > 0"
    "smoluchowski-x-drift": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                             "grid.x_min=-1e-10\ngrid.x_max=1e-10\npotential.kind=polynomial\n"
                             "potential.coeffs=0,1e300", "grid.x_max must give cells of width "
                             "(x_max - x_min) / nx = 1.25e-11 a finite outflow rate through "
                             "the drift"),
    "kramers-v-drift": ("simulate", f"{_KRAMERS_SMALL}grid.v_min=-1e-10\ngrid.v_max=1e-10\n"
                        "fp.sigma_v=1e-11\npotential.kind=polynomial\npotential.coeffs=0,1e300",
                        "grid.v_max must give cells of width (v_max - v_min) / nv = 1.25e-11 "
                        "a finite outflow rate through the drift"),
    # a friction M gamma that underflows to 0: D = k_bt / (M gamma) ended
    # in a ZeroDivisionError traceback
    "smoluchowski-friction-underflow": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\n"
                                        "fp.steps=2\nbath.mass=1e-200\nbath.gamma=1e-200",
                                        "bath.gamma must be > 0 with mass gamma nonzero"),
    # a Drude frequency grid whose omega^2 overflows printed two numpy
    # "overflow encountered in square" warnings and exited 1
    "drude-w_max-1e160": ("kernels", f"{_DRUDE_SMALL}grid.w_max=1e160",
                          "grid.w_max must have a finite square, which the Drude Lorentzian "
                          "takes (got |omega| = 1e+160)"),
    "drude-w_max-1e300": ("kernels", f"{_DRUDE_SMALL}grid.w_max=1e300",
                          "grid.w_max must have a finite square"),
    "quantum-drude-w_max-1e160": ("kernels", f"{_DRUDE_SMALL}bath.hbar=1\ngrid.w_max=1e160",
                                  "grid.w_max must have a finite square"),
    "quantum-drude-w_max-1e300": ("kernels", f"{_DRUDE_SMALL}bath.hbar=1\ngrid.w_max=1e300",
                                  "grid.w_max must have a finite square"),
}


@pytest.mark.parametrize("case", sorted(_KEYLESS_FAILURES))
def test_keyless_failure_now_names_its_key(tmp_path, capfd, case):
    """Each exits 2 before any work with one stderr line naming its key, which
    its manifest's last record carries, and writes no output."""
    command, text, start = _KEYLESS_FAILURES[case]
    cfg = _write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capfd.readouterr().err
    assert err.startswith(f"config error: {start}") and err.count("\n") == 1
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": 2,
                                       "message": err.strip()}
    assert [r for r in _read_manifest(out) if r["record"] == "output"] == []


@pytest.mark.parametrize("text", ["grid.w_max=1e160", "grid.w_max=1e300",
                                  "bath.hbar=1\ngrid.w_max=1e300"],
                         ids=["1e160", "1e300", "quantum-1e300"])
def test_ohmic_kernels_keep_a_w_max_whose_square_overflows(tmp_path, text):
    """The Ohmic shape takes no omega^2, so grid.w_max's Drude rule leaves
    these runs as they were: exit 0 with finite K over the whole grid, and
    K = 1 classically."""
    cfg = _write_config(tmp_path, f"bath.model=ohmic\ngrid.nw=11\n{text}\n")
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    table = np.loadtxt(out / "noise_freq.csv", delimiter=",", skiprows=1)
    w_max = float(text.rsplit("=", 1)[1])
    np.testing.assert_array_equal(table[:, 0], np.linspace(-w_max, w_max, 11))
    assert np.all(np.isfinite(table[:, 1]))
    assert "hbar" in text or np.all(table[:, 1] == 1.0)


def test_drude_series_cap_stops_at_its_edge(tmp_path, monkeypatch, capsys):
    """At the default grid with nu1 = 1, omega_d = 43.39 needs 1,999,657 series
    terms and reaches the run, stubbed at the kernel tables' np.linspace;
    43.4 needs 2,000,118, one rule naming grid.nt refuses it before any work,
    and the same config with grid.nt = 8193 halves the count and is admitted.
    No series is summed: the time kernel is stubbed to fail the test, so a run
    that reached it before the frequency table's np.linspace would fail at
    once rather than sum 2,000,000 terms."""
    import bathdyn.cli as cli

    def reached(*args, **kwargs):
        raise RuntimeError("reached the run")

    def summed(*args, **kwargs):
        raise AssertionError("the time kernel's series was summed")

    monkeypatch.setattr(cli.np, "linspace", reached)
    monkeypatch.setattr(cli, "noise_kernel_time", summed)
    bath = "bath.model=drude\nbath.hbar=1\nbath.k_bt=0.15915494309189535\n"
    for extra, code in (("bath.omega_d=43.39\n", 1), ("bath.omega_d=43.4\n", 2),
                        ("bath.omega_d=43.4\ngrid.nt=8193\n", 1)):
        out = tmp_path / f"out-{code}-{len(extra)}"
        rc = main(["kernels", "--config", _write_config(tmp_path, bath + extra), "--out",
                   str(out), "--quiet"])
        err = capsys.readouterr().err
        assert rc == code
        if code == 1:
            assert err == "error: reached the run\n"
        else:
            assert err.startswith("config error: grid.nt must keep the quantum kernel's "
                                  "thermal series within 2,000,000 terms: ")
            assert err.endswith(" cuts it at 2,000,118\n")
            assert _error_records(out) == [
                {"record": "error", "exit_code": 2, "message": err.strip()}]


@pytest.mark.parametrize("command, text, code, start", [
    ("decohere", "bath.mass=1e-200\nbath.k_bt=1e-200\nbath.gamma=1e300\n", 2,
     "config error: bath.hbar must give a finite thermal length l_e^2 = 2 pi hbar^2 / M k_bt "
     "> 0 (got inf)\n"),
    ("simulate", _KRAMERS_SMALL + "bath.mass=1e-300\n", 0, ""),
    ("simulate", _KRAMERS_SMALL + "bath.mass=1e160\n", 0, ""),
], ids=["decohere-vanishing-m-kbt", "kramers-mass-1e-300", "kramers-mass-1e160"])
def test_bath_scales_end_in_an_exit_code_not_a_traceback(tmp_path, capfd, command, text,
                                                         code, start):
    """decohere divided 2 pi hbar^2 by an M k_bt that underflowed to 0, and
    the Kramers operator took d_v = w / 2 M^2 of a mass whose square under-
    or overflows: each ended in a ZeroDivisionError or OverflowError
    traceback and wrote no manifest. The thermal length's refusal names
    bath.hbar, as decoherence_params' others do; the Kramers operator takes
    d_v = gamma k_bt / M, the same bits at M = 1, and both runs finish."""
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, text), "--out", str(out),
                 "--quiet"]) == code
    assert capfd.readouterr().err == start
    last = _read_manifest(out)[-1]
    if code == 2:
        assert last == {"record": "error", "exit_code": 2, "message": start.strip()}
    else:
        assert last["record"] == "check" and last["pass"]


class _Overran(Exception):
    """The interval timer of a test that bounds its own run time fired."""


@pytest.mark.parametrize("bath", ["bath.k_bt=1e160", "bath.mass=1e-160"])
def test_compare_refuses_unbounded_substeps_before_any_work(tmp_path, monkeypatch, capfd,
                                                            bath):
    """A diffusion constant D = k_bt / M gamma of 1e160 puts the grid's stable
    step at 6.25e-163, so each Langevin step of 0.005 asked for about 8e159
    grid substeps: the run was killed after 60 s with no manifest. It exits 2
    naming run.dt before the ensemble runs (stubbed to fail the test), and an
    interval timer fails the test if it runs for 20 s."""
    import signal

    import bathdyn.fokker_planck as fokker_planck

    def ran(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    def overran(signum, frame):
        raise _Overran("still running after 20 s")

    monkeypatch.setattr(fokker_planck, "run_ensemble", ran)
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        out = tmp_path / "out"
        rc = main(["simulate", "--config", _write_config(tmp_path, _COMPARE_SMALL + bath),
                   "--out", str(out), "--quiet"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    err = capfd.readouterr().err
    assert (rc, err) == (2, "config error: run.dt must be at most 4,096 times the grid's "
                            "stable step dt_max = 6.25e-163 (got 0.005)\n")
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": 2,
                                       "message": err.strip()}


@pytest.mark.parametrize("text, key", [
    ("sim.kind=smoluchowski\ngrid.nx=32\nfp.steps=5\nfp.sigma_x=1e-300\n", "fp.sigma_x"),
    (_KRAMERS_SMALL + "fp.sigma_x=1e-300\n", "fp.sigma_x"),
    (_KRAMERS_SMALL + "fp.sigma_v=1e-300\n", "fp.sigma_v"),
    # each axis samples about 1e-200 at its two centres nearest 0, their
    # product underflows
    (_KRAMERS_SMALL + "fp.sigma_x=0.008237\nfp.sigma_v=0.008237\n", "fp.sigma_v"),
    (_COMPARE_SMALL + "run.sigma_x=1e-300\n", "run.sigma_x"),
], ids=["smoluchowski", "kramers-x", "kramers-v", "kramers-product", "compare"])
def test_gaussian_start_the_grid_cannot_sample_names_its_key(tmp_path, monkeypatch, capfd,
                                                             text, key):
    """A start width far below the grid spacing samples the Gaussian as zeros:
    the run printed numpy RuntimeWarnings and exited 1 with the unnamed
    "field values must be finite", compare only after its ensemble ran. It
    exits 2 naming the key, with no warning (the suite's filter would raise
    one), before any step or ensemble (stubbed to fail the test) and before
    any output."""
    import bathdyn.fokker_planck as fokker_planck

    def ran(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(fokker_planck, "run_ensemble", ran)
    monkeypatch.setattr(fokker_planck._Operator, "records", ran)
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write_config(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 2
    err = capfd.readouterr().err
    assert err == (f"config error: {key} must be resolved by the grid: the sampled Gaussian "
                   "must have a finite sum > 0 (got 0)\n")
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": 2,
                                       "message": err.strip()}
    assert [r for r in _read_manifest(out) if r["record"] == "output"] == []


def test_ensemble_moment_that_overflows_is_a_numerical_error(tmp_path, capfd):
    """Starts of width 1e300 square past the float range: the run exited 0
    with var_x = inf in moments.csv and numpy's "overflow encountered in
    square" on stderr. It exits 1 with one error line naming the moment,
    which the manifest's last record carries, writes no moments.csv and
    prints no warning (the suite's filter would raise one)."""
    cfg = _write_config(tmp_path, "sim.kind=ensemble\nrun.sigma_x=1e300\nrun.steps=2\n"
                        "run.n_traj=4\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    err = capfd.readouterr().err
    assert err == "error: var_x of the 4 surviving trajectories is not finite (got inf)\n"
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": 1,
                                       "message": err.strip()}
    assert not (out / "moments.csv").exists()


# (command, config) of one small run of each command and kind: the kernel
# tables (ohmic, classical and quantum Drude), det-check, each sim.kind and
# run.mode (the inertial ensemble on a double well) and a decohere run of each
# state in a harmonic well. Their manifests' config records list every key
# the run reads. The sweeps of key values below all run on these bases
_SWEEP_BASES = {
    "kernels-ohmic": ("kernels", "grid.nw=11"),
    "kernels-drude": ("kernels", "bath.model=drude\nbath.omega_d=10\ngrid.nw=11\ngrid.nt=65"),
    "kernels-quantum": ("kernels", "bath.model=drude\nbath.omega_d=1\nbath.hbar=1\n"
                        "grid.nw=11\ngrid.nt=65"),
    "det-check": ("det-check", "det.n=64"),
    "ensemble": ("simulate", "sim.kind=ensemble\nrun.steps=5\nrun.n_traj=20"),
    "ensemble-inertial": ("simulate", "sim.kind=ensemble\nrun.mode=inertial\n"
                          "potential.kind=double_well\nrun.steps=5\nrun.n_traj=20"),
    "ensemble-postpoint": ("simulate", "sim.kind=ensemble\nrun.mode=overdamped_postpoint\n"
                           "run.steps=5\nrun.n_traj=20"),
    "smoluchowski": ("simulate", "sim.kind=smoluchowski\ngrid.nx=32\nfp.steps=5"),
    "kramers": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\nfp.steps=5"),
    "compare": ("simulate", "sim.kind=compare\ncompare.times=0.01\nrun.n_traj=50\n"
                "grid.nx=64\ncompare.bins=8"),
    "decohere": ("decohere", "potential.kind=harmonic\ngrid.nx=61\ngrid.ny=25\n"
                 "run.steps=2\nrun.record_every=1"),
    "decohere-gaussian": ("decohere", "state.kind=gaussian\npotential.kind=harmonic\n"
                          "grid.nx=61\ngrid.ny=25\nrun.steps=2\nrun.record_every=1"),
}


def _sweep_run(tmp_path, command: str, values: dict, name: str) -> tuple:
    """One in-process run of command on the config of values, key -> text:
    (exit code, stdout, stderr, manifest records, {output file: bytes})."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()) as printed, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([command, "--config", str(cfg), "--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())
             if path.name != "manifest.json"}
    return code, printed.getvalue(), err.getvalue(), _read_manifest(out), files


def _base_values(base: str) -> dict:
    return dict(line.split("=") for line in _SWEEP_BASES[base][1].splitlines())


def _config_of(result) -> dict:
    """The config record of a _sweep_run result: every key the run read,
    with the value it read."""
    [config] = [r["values"] for r in result[3] if r["record"] == "config"]
    return config


def _read_keys(tmp_path, base: str) -> dict:
    """The config record of the base's run, which exits 0 or 1."""
    result = _sweep_run(tmp_path, _SWEEP_BASES[base][0], _base_values(base), base)
    assert result[0] in (0, 1)
    return _config_of(result)


def _assert_ends_in_an_exit_code(result, example) -> None:
    """A run ends in exit 0, 1 or 2 with a manifest (no traceback: main would
    raise it, and a warning would raise under the suite's filter). A run that
    raised prints one stderr line, which its manifest's last record, an
    error record, carries; a run that did not has no error record."""
    code, _, err, records, _ = result
    assert code in (0, 1, 2), example
    errors = [r for r in records if r["record"] == "error"]
    if err or code == 2:
        assert err.count("\n") == 1 and errors == [records[-1]], (example, err)
        assert errors[0]["exit_code"] == code and errors[0]["message"] == err.strip(), example
    else:
        assert errors == [], example


@pytest.mark.parametrize("base", sorted(_SWEEP_BASES))
def test_every_float_key_names_itself_on_nan_and_inf(tmp_path, base):
    """For every float key in the base run's manifest config record, nan, inf
    and -inf each exit 2 before any work with one stderr line "config error:
    <key> must ...", the manifest's last record; a traceback would fail the
    test, and a numpy warning would raise under the suite's warnings filter."""
    command, values = _SWEEP_BASES[base][0], _base_values(base)
    keys = sorted(k for k, v in _read_keys(tmp_path, base).items() if isinstance(v, float))
    assert keys
    for key in keys:
        for value in ("nan", "inf", "-inf"):
            code, _, err, records, _ = _sweep_run(tmp_path, command, {**values, key: value},
                                                  f"{key}-{value}")
            assert (code, err.count("\n")) == (2, 1), (key, value, err)
            assert err.startswith(f"config error: {key} must"), (key, value, err)
            assert records[-1] == {"record": "error", "exit_code": 2, "message": err.strip()}


# a valid value of each key whose base value times 1.5 (0.5 for 0), or plus
# 2, is refused or moves no output: run.dt must divide compare.times, fp.dt
# stay under the stable step, fp.record_every fall below fp.steps, grid.nx
# stay a multiple of compare.bins and compare.bins divide it, grid.dy resolve
# the thermal length and state.separation keep both packets on the x grid
_OTHER = {"run.dt": 0.0025, "fp.dt": 1e-4, "fp.record_every": 2, "grid.nx": 128,
          "compare.bins": 16, "grid.dy": 0.1, "state.separation": 2.0}


@pytest.mark.parametrize("base", sorted(_SWEEP_BASES))
def test_every_read_key_moves_an_output(tmp_path, base):
    """Each numeric key the base's run reads (its manifest's config record)
    set to another valid value moves an output file, stdout, a check or
    error record, or the exit code: a command reads only the keys that can
    move its outputs. The inert ones went: the Ohmic tables' bath.mass,
    grid.nt and grid.t_max, a classical kernel's bath.k_bt, det-check's
    run.seed, simulate's bath.hbar, an overdamped ensemble's run.v0 and
    run.sigma_v, and a Gaussian state's state.separation."""
    command = _SWEEP_BASES[base][0]
    values = _base_values(base)
    config = _read_keys(tmp_path, base)

    def outcome(result):
        code, printed, _, records, files = result
        return code, printed, [r for r in records if r["record"] not in ("run", "config")], files

    start = outcome(_sweep_run(tmp_path, command, values, "start"))
    inert = []
    for key, value in sorted(config.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if key in _OTHER:
            other = _OTHER[key]
        elif isinstance(value, float):
            other = 1.5 * value if value else 0.5
        else:
            other = value + 2
        assert other != value, key
        result = _sweep_run(tmp_path, command, {**values, key: repr(other)}, key)
        assert result[0] in (0, 1), (key, other, result[2])
        if outcome(result) == start:
            inert.append(key)
    assert inert == []


# the int values of the int-key sweep: small counts, 2^31, a value a float
# cannot hold, the int64 range's edges and one past every integer type
_INTS = (0, -1, 1, 2, 3, 2**31, 2**53 + 1, 2**63, -2**63, 10**30)


@pytest.mark.parametrize("base", sorted(_SWEEP_BASES))
def test_every_int_key_ends_in_an_exit_code(tmp_path, base):
    """Each int key the base's run reads, at each of _INTS, in process: the
    size rules and the library refusals stop every value that would run
    long or large before any work."""
    command = _SWEEP_BASES[base][0]
    values = _base_values(base)
    keys = sorted(k for k, v in _read_keys(tmp_path, base).items()
                  if isinstance(v, int) and not isinstance(v, bool))
    assert keys
    for key in keys:
        for value in _INTS:
            result = _sweep_run(tmp_path, command, {**values, key: str(value)}, f"{key}{value}")
            _assert_ends_in_an_exit_code(result, (key, value))


# list values tried by hand: compare times at 0, repeated, negative, nan and
# out of order; coefficients of 1e300 and 1e-300 on each power, and degree 11
_TIMES = ("0", "0.01,0.01", "-0.01", "nan", "0.01,nan", "0.02,0.01")
_COEFFS = ("0,0,1e300", "0,0,1e-300", "1e300,1e300,1", "0,1e-300,1",
           "0,0,1,0,0,0,0,0,0,0,0,1", "0,0,-1,0,0,0,0,0,0,0,0,1e-300")


@pytest.mark.parametrize("base", sorted(_SWEEP_BASES))
def test_list_keys_end_in_an_exit_code(tmp_path, base):
    """compare.times on the compare base, and potential.coeffs of a
    polynomial potential on each base that reads potential.kind, end in an
    exit code as the int keys do."""
    command = _SWEEP_BASES[base][0]
    values = _base_values(base)
    config = _read_keys(tmp_path, base)
    examples = [("compare.times", t) for t in _TIMES if "compare.times" in config]
    if "potential.kind" in config:
        examples += [("potential.coeffs", c) for c in _COEFFS]
    for n, (key, value) in enumerate(examples):
        extra = {"potential.kind": "polynomial"} if key == "potential.coeffs" else {}
        result = _sweep_run(tmp_path, command, {**values, **extra, key: value}, f"list{n}")
        _assert_ends_in_an_exit_code(result, (key, value))


@pytest.mark.parametrize("text", [
    "sim.kind=ensemble\nrun.steps=10\nrun.sigma_x=nan\n",
    "sim.kind=ensemble\nrun.mode=inertial\nrun.steps=10\nrun.sigma_v=inf\n",
    "sim.kind=compare\ncompare.times=0.05\nrun.sigma_x=inf\n",
    "sim.kind=compare\ncompare.times=0.05\nrun.sigma_x=nan\n",
], ids=["ensemble-sigma_x-nan", "ensemble-sigma_v-inf", "compare-sigma_x-inf",
        "compare-sigma_x-nan"])
def test_non_finite_initial_width_exits_2(tmp_path, capsys, text):
    """A NaN or infinite initial width is a config error that names its key,
    not a run of diverged trajectories or NaN moments."""
    cfg = _write_config(tmp_path, "run.n_traj=50\n" + text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    key = text.splitlines()[-1].split("=")[0]
    assert line == f"config error: {key} must be finite and >= 0"
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
def test_compare_bad_dt_exits_2(tmp_path, capsys, dt):
    """compare checks run.dt before it divides by it: a zero, negative or
    non-finite step is a config error that names the key, with a manifest."""
    cfg = _write_config(tmp_path, f"sim.kind=compare\ncompare.times=0.05\nrun.dt={dt}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    assert line == "config error: run.dt must be finite and > 0"
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]


@pytest.mark.parametrize("text, key", [
    ("bath.hbar=1e300\n", "bath.hbar"),
    ("bath.hbar=1e-300\n", "bath.hbar"),
    ("state.sigma=1e300\n", "state.sigma"),
    ("state.separation=1e-300\n", "state.separation"),
    ("bath.hbar=1e-160\n", "bath.hbar"),
], ids=["hbar-1e300", "hbar-1e-300", "sigma-1e300", "separation-1e-300", "hbar-1e-160"])
def test_decohere_value_out_of_range_exits_2_naming_its_key(tmp_path, capsys, text, key):
    """Values whose squares, or the Lambda they set, overflow or vanish are
    config errors, caught where they are read, not tracebacks from the
    arithmetic that uses them."""
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["decohere", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"config error: {key} ")
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]
    assert [r for r in _read_manifest(out) if r["record"] == "output"] == []


# (command, config, start of the stderr line): every single-key range rule
# rejects as "<key> must be <rule>"; the last cases are cross-key rules and
# values that once escaped as OverflowError tracebacks
_RANGE_ERRORS = {
    "kernels-nw": ("kernels", "grid.nw=1", "grid.nw must be"),
    "kernels-nt": ("kernels", "bath.model=drude\nbath.omega_d=10\ngrid.nt=1", "grid.nt must be"),
    "kernels-w_max": ("kernels", "grid.w_max=0", "grid.w_max must be"),
    "kernels-t_max": ("kernels", "bath.model=drude\nbath.omega_d=10\ngrid.t_max=nan",
                      "grid.t_max must be"),
    "det-gamma": ("det-check", "det.gamma=0", "det.gamma must be"),
    "det-t": ("det-check", "det.t=-1", "det.t must be"),
    "det-n": ("det-check", "det.n=3", "det.n must be"),
    "fp-steps": ("simulate", "sim.kind=smoluchowski\nfp.steps=0", "fp.steps must be"),
    "fp-record_every": ("simulate", "sim.kind=smoluchowski\nfp.record_every=0",
                        "fp.record_every must be"),
    "decohere-steps": ("decohere", "run.steps=0", "run.steps must be"),
    "decohere-record_every": ("decohere", "run.record_every=0", "run.record_every must be"),
    "decohere-hbar": ("decohere", "bath.hbar=-1", "bath.hbar must be"),
    "decohere-sigma": ("decohere", "state.sigma=-0.3", "state.sigma must be"),
    "det-gamma-1e300": ("det-check", "det.gamma=1e300", "det.gamma must be"),
    "det-gamma-t": ("det-check", "det.gamma=1e200\ndet.t=1e-200", "det.gamma must be"),
    "det-t-1e300": ("det-check", "det.t=1e300", "det.gamma * det.t must keep"),
    "drude-omega_d-1e300": ("kernels", "bath.model=drude\nbath.omega_d=1e300",
                            "bath.omega_d must be"),
    "drude-omega_d-inf": ("kernels", "bath.model=drude\nbath.omega_d=inf",
                          "bath.omega_d must be"),
    "decohere-mass-inf": ("decohere", "bath.mass=inf", "bath.mass must be"),
    "decohere-gamma-inf": ("decohere", "bath.gamma=inf", "bath.gamma must be"),
    "decohere-k_bt-inf": ("decohere", "bath.k_bt=inf", "bath.k_bt must be"),
    "drude-hbar-inf": ("kernels", "bath.model=drude\nbath.omega_d=10.0\nbath.hbar=inf",
                       "bath.hbar must be"),
    "ensemble-bins": ("simulate", "sim.kind=ensemble\noutput.bins=0", "output.bins must be"),
    "decohere-dx-inf": ("decohere", "grid.dx=inf", "grid.dx must be"),
    "decohere-dy-0": ("decohere", "grid.dy=0", "grid.dy must be"),
    # the state's width against the grid: too narrow for the x spacing alone,
    # for the y spacing alone, and for both (1e-3 once exited 2 with "state
    # has nonpositive norm on this grid", naming no key; 0.05 once ran and
    # failed trace_constant)
    "decohere-sigma-dx": ("decohere", "state.sigma=0.2\ngrid.dx=0.15", "state.sigma must be"),
    "decohere-sigma-dy": ("decohere", "state.sigma=0.15", "state.sigma must be"),
    "decohere-sigma-1e-3": ("decohere", "state.sigma=1e-3\ngrid.nx=21\ngrid.ny=11",
                            "state.sigma must be"),
    "decohere-sigma-0.05": ("decohere", "state.sigma=0.05", "state.sigma must be"),
    "decohere-separation-grid": ("decohere", "state.separation=9", "state.separation must"),
}


@pytest.mark.parametrize("case", sorted(_RANGE_ERRORS))
def test_out_of_range_value_exits_2_naming_its_key(tmp_path, capsys, case):
    """A value out of its range is a config error raised before any work, with
    a manifest whose error record carries the stderr line naming the key."""
    command, text, start = _RANGE_ERRORS[case]
    cfg = _write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith(f"config error: {start} ")
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]
    assert [r for r in _read_manifest(out) if r["record"] == "output"] == []


# (bath.hbar, bath.k_bt) of the Drude runs with omega_d = 1 whose thermal rate
# nu1 = 2 pi k_bt / hbar has an overflowing or vanishing cube: each once ended
# in an OverflowError or ZeroDivisionError traceback in the time kernel
_NU1_CUBE_OUT_OF_RANGE = [
    ("1e-300", "1e-160"), ("1e-300", "1"), ("1e-160", "1"), ("1", "1e160"),
    ("1", "1e300"), ("1e160", "1e-300"), ("1e160", "1e-160"), ("1e160", "1e300"),
    ("1e300", "1e-300"), ("1e300", "1e-160"),
]


@pytest.mark.parametrize("hbar, k_bt", _NU1_CUBE_OUT_OF_RANGE)
def test_drude_thermal_rate_out_of_range_exits_2_naming_hbar(tmp_path, capsys, hbar, k_bt):
    cfg = _write_config(tmp_path, f"bath.model=drude\ngrid.nt=65\ngrid.nw=11\n"
                        f"bath.omega_d=1\nbath.hbar={hbar}\nbath.k_bt={k_bt}\n")
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    line = capsys.readouterr().err.strip()
    assert line.startswith("config error: bath.hbar ")
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": line}]


@pytest.mark.parametrize("t_max, code", [("1e-15", 0), ("1e-16", 2), ("1e-300", 2)])
def test_drude_time_grid_too_fine_for_the_log_term_exits_2_naming_t_max(tmp_path, capsys,
                                                                         t_max, code):
    """At nt = 65 the smallest |t| is t_max / 66. Below about 5.8e-16,
    exp(-2 pi |t|) rounds to 1 and the kernel's log term is -inf: such a run
    exited 2 with a RuntimeWarning and "kernel values must be finite", naming
    no key. The rule splits where those runs failed."""
    cfg = _write_config(tmp_path, "bath.model=drude\nbath.omega_d=1\nbath.hbar=1\n"
                        f"grid.t_max={t_max}\ngrid.nt=65\ngrid.nw=11\n")
    out = tmp_path / "out"
    assert main(["kernels", "--config", cfg, "--out", str(out), "--quiet"]) == code
    line = capsys.readouterr().err.strip()
    if code:
        assert line.startswith("config error: grid.t_max ")
        assert _error_records(out) == [
            {"record": "error", "exit_code": 2, "message": line}]
    else:
        assert line == "" and _error_records(out) == []


def test_stiff_overdamped_start_exits_1_with_a_suggested_dt(tmp_path, capsys):
    """V = 30 x^2 at dt = 0.05 ran to var_x = 7e119 with no trajectory counted
    as diverged; the relaxation guard now refuses it over x0 +- 6 sigma_x. It
    raises StabilityError, a numerical abort (exit 1) like a grid or master
    operator's bound, where it exited 2 as a config error."""
    cfg = _write_config(tmp_path, "sim.kind=ensemble\nrun.mode=overdamped\n"
                        "potential.kind=polynomial\npotential.coeffs=0,0,30\n"
                        "bath.gamma=1\nrun.dt=0.05\nrun.sigma_x=0.5\n"
                        "run.n_traj=2000\nrun.steps=200\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    line = capsys.readouterr().err.strip()
    assert line.startswith("error: dt too large for the relaxation scale")
    assert line.endswith("got 3; suggested dt <= 0.0015")


@pytest.mark.parametrize("kind, text", [
    ("ensemble", "run.steps=4\nrun.n_traj=8\n"),
    ("compare", "compare.times=0.9\nrun.n_traj=8\n"),
])
def test_langevin_friction_bound_exits_1_with_a_dt_it_accepts(tmp_path, capsys, kind, text):
    """dt gamma = 0.2 is over the Langevin step's friction bound, dt gamma <
    0.1. It exited 2, "config error: dt too large for the friction scale",
    naming no key and suggesting no dt; it is a StabilityError now, exit 1
    with a suggested dt, and the same run at that dt passes the bound."""
    body = f"sim.kind={kind}\nbath.gamma=2\n{text}"
    cfg = _write_config(tmp_path, body + "run.dt=0.1\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    line = capsys.readouterr().err.strip()
    assert line == ("error: dt too large for the friction scale: need dt*gamma < 0.1, got 0.2; "
                    "suggested dt <= 0.045")
    assert _error_records(out) == [{"record": "error", "exit_code": 1, "message": line}]
    cfg = _write_config(tmp_path, body + "run.dt=0.045\n", name="ok.cfg")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ok"), "--quiet"]) == 0


def test_every_float_rule_rejects_nan():
    import bathdyn.cli as cli

    for test, text in (cli._FINITE, cli._FINITE_POSITIVE):
        assert not test(math.nan), text


def test_cli_raises_config_error_only_for_cross_key_rules():
    """A single-key range test lives with the library object that holds the
    value, which refuses it with a ParameterError naming its parameter
    (test_every_refused_parameter_has_a_key); a key that no library object
    receives before any work keeps a rule in the RunConfig.get that reads
    it (test_a_key_has_a_cli_rule_or_a_library_refusal). cli.py raises no
    ConfigError itself. Its cfg.require calls name 18 keys, each its own:
    the rules that join keys (compare.times names, det.gamma * det.t, fp.x0
    and fp.v0 inside their grids, and Lambda d^2), and the size rules, which
    pass _size_rule(key, what, doubles) to cfg.require, whose key is the one
    named: the step noise of an ensemble (run.steps) and of compare
    (compare.times), the per-trajectory arrays of each (run.n_traj), the
    histogram (output.bins), the grids of simulate (grid.nx, grid.nx *
    grid.nv) and decohere (grid.nx * grid.ny), the kernel tables (grid.nw,
    grid.nt), the determinant tables (det.n) and the recorded rows
    (fp.record_every, run.record_every, through the one rule of
    cli._recording). fp.sigma_x and fp.sigma_v had two more, restating the
    start field's refusal under the fp.* keys; that refusal now names the
    key its run read."""
    import bathdyn.cli as cli

    with open(cli.__file__, encoding="utf-8") as fh:
        assert "raise ConfigError" not in fh.read()

    def key(call):
        if isinstance(call.args[0], ast.Starred):
            helper = call.args[0].value
            assert len(call.args) == 1 and helper.func.id == "_size_rule"
            return helper.args[0]
        return call.args[1]

    assert sorted(k for k, _ in _cfg_keys("require", key)) == [
        "compare.times", "compare.times", "det.gamma * det.t", "det.n", "fp.record_every",
        "fp.v0", "fp.x0", "grid.nt", "grid.nw", "grid.nx",
        "grid.nx * grid.nv", "grid.nx * grid.ny", "output.bins", "run.n_traj", "run.n_traj",
        "run.record_every", "run.steps", "state.separation"]


def _cfg_keys(method: str, key_arg) -> list[tuple[str, ast.Call]]:
    """(key, call) of each key that a cfg.<method> call in cli.py can name.
    key_arg(call) is the call's key argument, or None to skip the call: a
    literal, or a parameter of the function around the call (cli._recording's),
    which names the literal that each call of that function passes for it."""
    import bathdyn.cli as cli

    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)]
    keys = []
    for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == method
                    and getattr(call.func.value, "id", None) == "cfg"):
                continue
            arg = key_arg(call)
            if arg is None:
                continue
            if isinstance(arg, ast.Constant):
                keys.append((arg.value, call))
                continue
            where = [a.arg for a in func.args.args].index(arg.id)
            keys += [(site.args[where].value, call) for site in sites
                     if site.func.id == func.name]
    return keys


def _refused_names() -> set[str]:
    """Every parameter name that a ParameterError raised in src/bathdyn can
    carry: the name argument of a call of ParameterError, or of a helper that
    passes one of its own parameters on to it as the name (kernels._require
    and _positive). That argument is a literal, or an f-string over
    parameters of the enclosing function, filled with each literal that a
    call of that function passes for them."""
    import pathlib

    src = pathlib.Path(bathdyn.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls = [node for node in nodes if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)]
    funcs = [node for node in nodes if isinstance(node, ast.FunctionDef)]

    def params(func):
        return [a.arg for a in func.args.args]

    # the position of the name argument of ParameterError and of each helper
    where = {"ParameterError": 0}
    for func in funcs:
        for raised in ast.walk(func):
            if (isinstance(raised, ast.Call) and getattr(raised.func, "id", None)
                    == "ParameterError" and isinstance(raised.args[0], ast.Name)):
                where[func.name] = params(func).index(raised.args[0].id)
    names = set()
    for func in funcs:
        for site in ast.walk(func):
            if not (isinstance(site, ast.Call) and getattr(site.func, "id", None) in where):
                continue
            name = site.args[where[site.func.id]]
            if isinstance(name, ast.Constant):
                names.add(name.value)
            elif isinstance(name, ast.Name):
                assert func.name in where and name.id in params(func), ast.dump(site)
            else:
                assert isinstance(name, ast.JoinedStr), ast.dump(name)
                for call in (c for c in calls if c.func.id == func.name):
                    given = {p: a.value for p, a in zip(params(func), call.args)
                             if isinstance(a, ast.Constant)}
                    names.add("".join(p.value if isinstance(p, ast.Constant)
                                      else given[p.value.id] for p in name.values))
    return names


def test_every_refused_parameter_has_a_key(tmp_path):
    """main reports a ParameterError under its parameter's entry in
    cli._ALIASES, the four names whose value a command derives from a key,
    or else under the last key its run read whose last dotted part is the
    parameter's name. Every name a library refusal can carry is one of the
    two: an alias, or the last part of a key that a run reads (a sweep
    base's, or a polynomial potential's potential.coeffs). Each alias names
    a key a run reads and is the last part of none, so no refusal named by
    a key's last part is taken for an alias."""
    import bathdyn.cli as cli

    names = _refused_names()
    assert names == {
        "mass", "gamma", "k_bt", "hbar", "omega_d", "omega0", "a", "b", "coeffs", "t_grid",
        "t_min", "omega", "x_min", "x_max", "nx", "v_min", "v_max", "nv", "dx", "dy", "dt",
        "steps", "n_traj", "x0", "v0", "sigma_x", "sigma_v", "times", "n_bins", "sigma",
        "separation", "autocorr_lags"}
    read = {key for base in _SWEEP_BASES for key in _read_keys(tmp_path, base)}
    polynomial = {"sim.kind": "smoluchowski", "grid.nx": "32", "fp.steps": "2",
                  "potential.kind": "polynomial", "potential.coeffs": "0,0,1"}
    read |= set(_config_of(_sweep_run(tmp_path, "simulate", polynomial, "polynomial")))
    last_parts = {key.rsplit(".", 1)[-1] for key in read}
    assert cli._ALIASES == {"t_grid": "grid.nt", "t_min": "grid.t_max", "omega": "grid.w_max",
                            "n_bins": "compare.bins"}
    assert set(cli._ALIASES.values()) <= read and not set(cli._ALIASES) & last_parts
    assert names - set(cli._ALIASES) <= last_parts


def test_a_key_has_a_cli_rule_or_a_library_refusal():
    """A key whose value a library refusal tests has no RunConfig.get rule,
    so each test has one home. A refusal names a key by the key's last part
    or by an alias (test_every_refused_parameter_has_a_key), and nine keys
    with a rule share a name with one. Six have two homes: decohere's
    grid.nx, run.dt and run.steps, which reach no library object before any
    work there (its dt goes to the master operator's run, whose plain dt
    test names no key), while PhaseGrid's nx and SimConfig's dt and steps
    name the same keys in simulate; and the kernel grid's grid.nt,
    grid.t_max and grid.w_max, whose rules (>= 2 points, finite and > 0)
    the library does not restate: its refusals that name them, the quantum
    series cap (t_grid), the log term at the smallest |t| (t_min) and the
    Drude Lorentzian's omega^2 (omega), test what the keys give together
    with the bath. fp.sigma_x and fp.sigma_v have their one home in the
    start field, which refuses a width that is not finite and > 0 or that
    the grid cannot sample. The other three share only the name: det.gamma,
    fp.dt and fp.steps reach no BathParams or SimConfig. state.separation
    has its one home in superposition_state, as a Gaussian state reads no
    separation."""
    import bathdyn.cli as cli

    ruled = {key for key, _ in _cfg_keys("get", lambda call: call.args[0] if len(call.args) == 4
                                          or any(k.arg == "rule" for k in call.keywords) else None)}
    assert "bath.gamma" not in ruled and "fp.dt" in ruled  # the scan reads both forms
    names = _refused_names()
    refused = {key for key in ruled if key.rsplit(".", 1)[-1] in names}
    assert sorted(refused | (ruled & set(cli._ALIASES.values()))) == [
        "det.gamma", "fp.dt", "fp.steps", "grid.nt", "grid.nx", "grid.t_max", "grid.w_max",
        "run.dt", "run.steps"]


@pytest.mark.parametrize("phase, target, text", [
    ("build", "MasterOperator", ""),
    ("step", "run_ensemble", "sim.kind=ensemble\nrun.steps=2\nrun.n_traj=4\n"),
    ("stats", "wigner_transform", "run.steps=2\n"),
    ("write", "write_csv", "sim.kind=smoluchowski\ngrid.nx=32\nfp.steps=2\n"),
], ids=["build", "step", "stats", "write"])
def test_unnamed_value_error_after_finish_fails_its_phase(tmp_path, monkeypatch, capsys,
                                                          phase, target, text):
    """A ValueError that names no parameter, raised once the config is read
    whole, is a failure of the run, not of its config: exit 1, an "error:"
    line, and an error record that names the phase it was raised in. (It
    exited 2 as a config error.)"""
    import bathdyn.cli as cli

    def unnamed(*args, **kwargs):
        raise ValueError("unnamed")

    monkeypatch.setattr(cli, target, unnamed)
    command = "simulate" if "sim.kind" in text else "decohere"
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, text), "--out", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == "error: unnamed\n"
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": 1,
                                       "message": "error: unnamed", "phase": phase}


def test_unnamed_value_error_before_finish_is_a_config_error(tmp_path, monkeypatch, capsys):
    """Until the config is read whole, a ValueError that names no parameter
    is still a config error, exit 2, and its record names no phase."""
    import bathdyn.cli as cli

    def unnamed(*args, **kwargs):
        raise ValueError("unnamed")

    monkeypatch.setattr(cli, "decoherence_params", unnamed)
    out = tmp_path / "out"
    assert main(["decohere", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: unnamed\n"
    assert _error_records(out) == [
        {"record": "error", "exit_code": 2, "message": "config error: unnamed"}]


# (command, config, exit code, start of the stderr line) of values that failed
# with a library message naming no key, a traceback or a numpy warning; each
# now names its key before any work, or, for the decay-slope fit and compare's
# samples outside the grid, fails the run as numerical
_NAMED_FAILURES = {
    "decohere-fit": ("decohere", "grid.nx=21\ngrid.ny=11\ngrid.dx=0.08\ngrid.dy=0.05\n"
                     "state.separation=1\nstate.sigma=0.3\nrun.steps=2\n"
                     "run.record_every=1\nrun.dt=1e-300", 1, "error: decay_slope fit "),
    "decohere-dt-0": ("decohere", "run.dt=0", 2, "config error: run.dt must "),
    "decohere-dt-nan": ("decohere", "run.dt=nan", 2, "config error: run.dt must "),
    "decohere-dt-inf": ("decohere", "run.dt=inf", 2, "config error: run.dt must "),
    "smoluchowski-x0": ("simulate", "sim.kind=smoluchowski\nfp.x0=1e6\nfp.steps=2", 2,
                        "config error: fp.x0 must "),
    "kramers-v0": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\nfp.v0=1e6\n"
                   "fp.steps=2", 2, "config error: fp.v0 must "),
    "compare-x0": ("simulate", "sim.kind=compare\ncompare.times=0.1\nrun.n_traj=100\n"
                   "run.x0=9", 2, "config error: run.x0 must "),
    "smoluchowski-sigma_x": ("simulate", "sim.kind=smoluchowski\nfp.sigma_x=0", 2,
                             "config error: fp.sigma_x must "),
    "kramers-sigma_v": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\n"
                        "fp.sigma_v=0", 2, "config error: fp.sigma_v must "),
    "ensemble-dt-0": ("simulate", "sim.kind=ensemble\nrun.dt=0", 2,
                      "config error: run.dt must "),
    "ensemble-dt-nan": ("simulate", "sim.kind=ensemble\nrun.dt=nan", 2,
                        "config error: run.dt must "),
    "ensemble-steps": ("simulate", "sim.kind=ensemble\nrun.steps=0", 2,
                       "config error: run.steps must "),
    "ensemble-n_traj": ("simulate", "sim.kind=ensemble\nrun.n_traj=0", 2,
                        "config error: run.n_traj must "),
    "compare-n_traj": ("simulate", "sim.kind=compare\ncompare.times=0.1\nrun.n_traj=0", 2,
                       "config error: run.n_traj must "),
    # 10^12 steps of 100 trajectories: 728 TiB of step noise
    "compare-noise": ("simulate", "sim.kind=compare\ncompare.times=1000\nrun.dt=1e-9\n"
                      "run.n_traj=100", 2, "config error: compare.times must keep the step "
                      "noise, max(compare.times) / run.dt = 1000000000000 steps x 100 "
                      "trajectories per chunk x 8 bytes, within 1,073,741,824 bytes (got "
                      "800,000,000,000,000)"),
    "ensemble-noise": ("simulate", "sim.kind=ensemble\nrun.steps=1000000000000", 2,
                       "config error: run.steps must keep the step noise, run.steps = "
                       "1000000000000 x 1000 trajectories per chunk x 8 bytes"),
    # 10^12 trajectories of one step: 7.28 TiB of final x alone
    "ensemble-trajectories": ("simulate", "sim.kind=ensemble\nrun.n_traj=1000000000000\n"
                              "run.steps=1", 2, "config error: run.n_traj must keep the "
                              "per-trajectory arrays, 2 x 1000000000000 trajectories x 8 "
                              "bytes, within 1,073,741,824 bytes (got 16,000,000,000,000)"),
    "compare-times-overflow": ("simulate", "sim.kind=compare\ncompare.times=1e300\n"
                               "run.dt=1e-10", 2, "config error: compare.times must be "
                               "multiples of dt = 1e-10 that are >= 0 (got 1e+300)"),
    "compare-times-negative": ("simulate", "sim.kind=compare\ncompare.times=-0.1", 2,
                               "config error: compare.times must be multiples of dt = "
                               "0.005 that are >= 0 (got -0.1)"),
    "compare-times-nan": ("simulate", "sim.kind=compare\ncompare.times=0.05,nan", 2,
                          "config error: compare.times must be multiples of dt = 0.005 "
                          "that are >= 0 (got nan)"),
    "compare-times-off-dt": ("simulate", "sim.kind=compare\ncompare.times=0.05,0.013", 2,
                             "config error: compare.times must be multiples of dt = 0.005"),
    "compare-bins-0": ("simulate", "sim.kind=compare\ncompare.times=0.05\ncompare.bins=0",
                       2, "config error: compare.bins must be >= 1"),
    "compare-bins-divide": ("simulate", "sim.kind=compare\ncompare.times=0.05\n"
                            "compare.bins=48", 2,
                            "config error: compare.bins must be >= 1 and divide nx = 512"),
    # a heavy tail of a hot ensemble on a narrow grid: a numerical failure of
    # the run, not of its config
    "compare-left-grid": ("simulate", "sim.kind=compare\ncompare.times=0.2\nrun.n_traj=50\n"
                          "run.seed=1\nbath.k_bt=4\ngrid.x_min=-1\ngrid.x_max=1\n"
                          "grid.nx=16\ncompare.bins=4", 1,
                          "error: mismatched domains: ensemble samples left the grid"),
    "ensemble-autocorr_lags": ("simulate", "sim.kind=ensemble\noutput.autocorr_lags=-1", 2,
                               "config error: output.autocorr_lags must "),
    "ensemble-sigma_x": ("simulate", "sim.kind=ensemble\nrun.sigma_x=nan", 2,
                         "config error: run.sigma_x must "),
    "ensemble-sigma_v": ("simulate", "sim.kind=ensemble\nrun.mode=inertial\nrun.sigma_v=nan", 2,
                         "config error: run.sigma_v must "),
    "smoluchowski-dt": ("simulate", "sim.kind=smoluchowski\nfp.dt=nan", 2,
                        "config error: fp.dt must "),
    "smoluchowski-nx": ("simulate", "sim.kind=smoluchowski\ngrid.nx=4", 2,
                        "config error: grid.nx must "),
    "kramers-nv": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=8", 2,
                   "config error: grid.nv must "),
    "decohere-ny": ("decohere", "grid.ny=10", 2, "config error: grid.ny must "),
    "decohere-nx": ("decohere", "grid.nx=0", 2, "config error: grid.nx must "),
    # D = k_bt / (M gamma) vanishes or overflows, which no cell width mends
    "smoluchowski-D-0": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                         "bath.mass=1e200\nbath.gamma=1e200", 2,
                         "config error: bath.gamma must "),
    "smoluchowski-D-inf": ("simulate", "sim.kind=smoluchowski\ngrid.nx=16\nfp.steps=2\n"
                           "bath.mass=1e-160\nbath.gamma=1e-160", 2,
                           "config error: bath.gamma must "),
    "compare-D-inf": ("simulate", "sim.kind=compare\ncompare.times=0.05\nrun.n_traj=50\n"
                      "bath.mass=1e-160\nbath.gamma=1e-160", 2, "config error: bath.gamma must "),
}


def test_kramers_run_takes_a_bath_whose_diffusion_constant_vanishes(tmp_path):
    """The Kramers operator never uses D = k_bt / (M gamma), so the bath that
    smoluchowski-D-0 refuses runs here."""
    cfg = _write_config(tmp_path, "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\nfp.steps=2\n"
                        "bath.mass=1e200\nbath.gamma=1e200\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0


@pytest.mark.parametrize("case", sorted(_NAMED_FAILURES))
def test_failure_names_its_key_or_its_fit(tmp_path, capfd, case):
    """Each run exits with its code and one stderr line naming the key (or the
    fit), which its manifest's last record carries; under the suite's
    warnings-as-errors a numpy warning would fail the run, and capfd would
    hold any line LAPACK prints."""
    command, text, code, start = _NAMED_FAILURES[case]
    cfg = _write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == code
    err = capfd.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1
    assert _read_manifest(out)[-1] == {"record": "error", "exit_code": code,
                                       "message": err.strip()}


# (command, ordering, potential) -> (subcommand, config, exit code, {check:
# pass}): the checks each kind of run writes in its manifest, and their
# verdicts. A run whose sink is uniform (every ordering of kramers and
# decohere, a harmonic smoluchowski run) writes one exact budget check, named
# for momenta-left's conservation or for the symmetric ordering's sink; a
# pointwise sink writes none. An ensemble, alone or in compare, writes
# none_diverged.
_CHECK_TABLE = {
    ("smoluchowski", "momenta_left", "double_well"): (
        "simulate", "sim.kind=smoluchowski\npotential.kind=double_well\ngrid.nx=32\n"
        "fp.steps=20\n", 0, {"mass_conserved": True}),
    ("smoluchowski", "symmetric", "harmonic"): (
        "simulate", "sim.kind=smoluchowski\nfp.ordering=symmetric\ngrid.nx=32\nfp.steps=20\n",
        0, {"mass_follows_sink": True}),
    ("smoluchowski", "symmetric", "double_well"): (
        "simulate", "sim.kind=smoluchowski\nfp.ordering=symmetric\n"
        "potential.kind=double_well\ngrid.nx=32\nfp.steps=20\n", 0, {}),
    ("kramers", "momenta_left", "harmonic"): (
        "simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\nfp.steps=10\n", 0,
        {"mass_conserved": True}),
    ("kramers", "symmetric", "double_well"): (
        "simulate", "sim.kind=kramers\nfp.ordering=symmetric\npotential.kind=double_well\n"
        "grid.nx=16\ngrid.nv=16\nfp.steps=10\n", 0, {"mass_follows_sink": True}),
    ("decohere", "momenta_left", "none"): (
        "decohere", "", 0,
        {"grid_fits": True, "hermitian": True, "trace_constant": True, "decay_slope": True}),
    ("decohere", "symmetric", "none"): (
        "decohere", "state.kind=gaussian\ndecohere.ordering=symmetric\nrun.steps=25\n", 0,
        {"grid_fits": True, "hermitian": True, "trace_follows_sink": True}),
    # the symmetric byte-identity case, whose state touches its grid's edges
    ("decohere", "symmetric", "harmonic"): (
        "decohere", "state.kind=gaussian\npotential.kind=harmonic\n"
        "decohere.ordering=symmetric\ngrid.nx=33\ngrid.ny=25\nrun.steps=25\n"
        "run.record_every=5\n", 1,
        {"grid_fits": False, "hermitian": True, "trace_follows_sink": True}),
    ("ensemble", None, "harmonic"): (
        "simulate", "sim.kind=ensemble\nrun.n_traj=200\nrun.steps=20\n", 0,
        {"none_diverged": True}),
    # every trajectory of this inertial start diverges
    ("ensemble", None, "double_well"): (
        "simulate", "sim.kind=ensemble\nrun.mode=inertial\npotential.kind=double_well\n"
        "run.x0=1e3\nrun.n_traj=8\nrun.steps=200\n", 1, {"none_diverged": False}),
    ("compare", None, "harmonic"): (
        "simulate", "sim.kind=compare\ncompare.times=0.05,0.1\nrun.n_traj=300\nrun.seed=3\n"
        "grid.nx=64\ngrid.x_min=-3\ngrid.x_max=3\n", 0,
        {"none_diverged": True, "l1_within_budget_t_0.05": True,
         "l1_within_budget_t_0.1": True}),
}


def _case_id(case) -> str:
    return "-".join(map(str, case))


def _checks_of(tmp_path, case) -> tuple[int, dict]:
    """The exit code of one _CHECK_TABLE run and its checks' verdicts by name."""
    command, text, _, _ = _CHECK_TABLE[case]
    out = tmp_path / "out"
    rc = main([command, "--config", _write_config(tmp_path, text), "--out", str(out), "--quiet"])
    return rc, {r["name"]: r["pass"] for r in _read_manifest(out) if r["record"] == "check"}


@pytest.mark.parametrize("case", sorted(_CHECK_TABLE, key=str), ids=_case_id)
def test_each_kind_of_run_writes_its_table_of_checks(tmp_path, case):
    assert _checks_of(tmp_path, case) == _CHECK_TABLE[case][2:]


@pytest.mark.parametrize("case", [("smoluchowski", "symmetric", "harmonic"),
                                  ("kramers", "symmetric", "double_well"),
                                  ("decohere", "symmetric", "none")], ids=_case_id)
def test_a_sink_applied_twice_fails_the_exact_budget(tmp_path, monkeypatch, case):
    """The budget's rate comes from the physics, not from the operator: an
    operator that applies its symmetric sink twice a step fails the sink
    check alone, and the run exits 1."""
    import bathdyn.fokker_planck as fp

    for cls in (fp._Operator, fp.SmoluchowskiOperator):
        monkeypatch.setattr(cls, "sink", lambda self, dt, sink=cls.sink: sink(self, dt) ** 2)
    expected = _CHECK_TABLE[case][3]
    budget = "trace_follows_sink" if case[0] == "decohere" else "mass_follows_sink"
    assert _checks_of(tmp_path, case) == (1, {**expected, budget: False})


def test_diverged_ensemble_fails_its_run(tmp_path, capsys):
    """Eight inertial trajectories started at x = 1000 in the double well all
    diverge: the run writes its outputs and a failed none_diverged check that
    carries the counts, and exits 1 (it exited 0 with no check before)."""
    command, text, _, _ = _CHECK_TABLE["ensemble", None, "double_well"]
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, text), "--out", str(out)]) == 1
    assert "check no trajectory diverged: FAIL (8 of 8)" in capsys.readouterr().out
    [check] = [r for r in _read_manifest(out) if r["record"] == "check"]
    assert check == {"record": "check", "name": "none_diverged", "pass": False,
                     "n_diverged": 8, "n_traj": 8}
    assert (out / "moments.csv").exists() and _error_records(out) == []


# one tiny config per subcommand (and per simulate kind); each runs in well
# under a second, and the decohere state is narrow enough to vanish at its
# grid's edges, as its grid_fits check asks
_REPRO_RUNS = {
    "smoluchowski": ("simulate", "sim.kind=smoluchowski\ngrid.nx=32\n"
                     "fp.steps=20\nfp.record_every=7\n"),
    "kramers": ("simulate", "sim.kind=kramers\ngrid.nx=16\ngrid.nv=16\n"
                "fp.ordering=symmetric\nfp.steps=10\nfp.record_every=4\n"),
    "compare": ("simulate", "sim.kind=compare\ncompare.times=0.05,0.1\n"
                "run.n_traj=300\nrun.seed=3\ngrid.nx=64\n"
                "grid.x_min=-3\ngrid.x_max=3\n"),
    "decohere": ("decohere", "state.kind=gaussian\nstate.sigma=0.2\ngrid.nx=41\n"
                 "grid.ny=25\nrun.steps=6\nrun.record_every=4\n"),
    "det-check": ("det-check", ""),
    "ensemble": ("simulate", "sim.kind=ensemble\nrun.mode=inertial\nrun.n_traj=1100\n"
                 "run.steps=20\nrun.seed=3\nrun.sigma_x=0.3\noutput.autocorr_lags=5\n"),
    "kernels": ("kernels", "bath.model=ohmic\ngrid.nw=101\n"),
}


@pytest.mark.parametrize("run", sorted(_REPRO_RUNS))
def test_every_subcommand_is_reproducible(tmp_path, run):
    command, text = _REPRO_RUNS[run]
    cfg = _write_config(tmp_path, text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(a), "--quiet"]) == 0
    assert main([command, "--config", cfg, "--out", str(b), "--quiet"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) >= 2
    for name in names:
        if name != "manifest.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def without_run(out):
        return [r for r in _read_manifest(out) if r["record"] != "run"]

    assert without_run(a) == without_run(b)


@pytest.mark.parametrize("module", ["bathdyn", "bathdyn.cli", "bathdyn.checks"])
def test_import_loads_no_scipy(module):
    """scipy is imported only by the code that calls it, not at start-up."""
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=_child_env())
    assert proc.stdout.strip() == "[]"


def test_paper_checks_verdicts_are_reproducible(tmp_path, monkeypatch):
    """checks.jsonl carries no wall-clock figure; the seconds go to stdout and
    to the manifest's check record."""
    import itertools
    import types

    import bathdyn.checks as checks

    # a clock whose every interval is longer than the last, so two runs of a
    # check never take the same time
    ticks = itertools.count()
    clock = types.SimpleNamespace(perf_counter=lambda: 0.01 * next(ticks) ** 2)
    monkeypatch.setattr(checks, "time", clock)
    monkeypatch.setattr(checks, "_SUITE", checks._SUITE[:1])
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["paper-checks", "--out", str(a), "--quiet"]) == 0
    assert main(["paper-checks", "--out", str(b), "--quiet"]) == 0
    assert (a / "checks.jsonl").read_bytes() == (b / "checks.jsonl").read_bytes()
    elapsed = []
    for out in (a, b):
        [rec] = [r for r in _read_manifest(out) if r["record"] == "check"]
        assert rec["name"] == "criterion_1"
        elapsed.append(rec["elapsed_s"])
    assert 0.0 < elapsed[0] < elapsed[1]
    ok1, detail1 = checks._retarded_identity()
    ok2, detail2 = checks._retarded_identity()
    assert ok1 and ok2 and detail1 == detail2


def test_criterion_over_its_wall_clock_limit_fails(tmp_path, monkeypatch):
    """run_all fails a criterion that returns at or over its limit and names
    the limit in the detail; a criterion that raises keeps its own detail."""
    import itertools
    import types

    import bathdyn.checks as checks

    # every reading of the clock is 6 s after the last: over criterion 1's 5 s
    ticks = itertools.count()
    monkeypatch.setattr(checks, "time",
                        types.SimpleNamespace(perf_counter=lambda: 6.0 * next(ticks)))
    monkeypatch.setattr(checks, "_SUITE", checks._SUITE[:1])
    out = tmp_path / "over"
    assert main(["paper-checks", "--out", str(out), "--quiet"]) == 1
    [rec] = [json.loads(line) for line in (out / "checks.jsonl").read_text().splitlines()]
    assert rec["pass"] is False
    assert rec["detail"] == ("300 random-coefficient ratios, max |r - 1| = 0 "
                             "(bitwise); over its 5s wall-clock limit")

    def crash():
        raise RuntimeError("boom")

    index, name, _, limit = checks._SUITE[0]
    monkeypatch.setattr(checks, "_SUITE", ((index, name, crash, limit),))
    [res] = checks.run_all()
    assert res.elapsed_s >= limit
    assert (res.passed, res.detail) == (False, "raised RuntimeError: boom")


def test_wall_clock_limits_are_pinned():
    """The acceptance suite's wall-clock limits, in seconds, by criterion;
    a change here is a change of the acceptance contract."""
    import bathdyn.checks as checks

    limits = {index: limit for index, _, _, limit in checks._SUITE if limit is not None}
    assert limits == {1: 5.0, 4: 30.0, 6: 60.0, 8: 20.0}
    assert [index for index, *_ in checks._SUITE] == list(range(1, 11))


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bathdyn", "det-check",
         "--out", str(tmp_path), "--quiet"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "det_checks.jsonl").exists()


def _child_env() -> dict:
    """The environment of a child Python: its PYTHONPATH starts with the src
    directory of the imported bathdyn, so the child imports the same package."""
    src = os.path.dirname(os.path.dirname(bathdyn.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _csv_bytes_0_2_0(path, header, rows):
    """The CSV writer of version 0.2.0, written out: every cell formatted
    alone, then the row through csv.writer."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    with open(path, "rb") as fh:
        return fh.read()


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1,
                                1.0 / 3.0, 1e300, math.nan, -math.nan, math.inf,
                                -math.inf])
_FLOATS = st.one_of(st.floats(), _EDGE_FLOATS)
# the three kinds of column write_csv takes: floats, integers, and nonempty
# text that csv.writer writes unquoted
_CELLS = {
    "float": _FLOATS,
    "float64": _FLOATS.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-(2**70), 2**70),
    "int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "uint8": st.integers(0, 255).map(np.uint8),
    "str": st.text(alphabet=list(' %\t a1.e\x00\u00e9\u2028'), min_size=1, max_size=6),
}


# the numpy dtype of the cell kinds that a column may also be passed as
_ARRAY_DTYPES = {"float64": np.float64, "float32": np.float32, "int64": np.int64,
                 "uint8": np.uint8}


@st.composite
def _tables(draw):
    """(header, columns): each column one cell kind; a column of numpy
    cells is a list or a 1-D array of their dtype. The header takes any
    text, which csv.writer quotes as it needs."""
    width = draw(st.integers(0, 5))
    kinds = [draw(st.sampled_from(sorted(_CELLS))) for _ in range(width)]
    header = tuple(draw(st.text(alphabet=list(',"\n\r %\t a1.e\x00\u00e9\u2028'),
                                max_size=6)) for _ in range(width))
    n_rows = draw(st.integers(0, 6))
    columns = []
    for kind in kinds:
        col = [draw(_CELLS[kind]) for _ in range(n_rows)]
        if kind in _ARRAY_DTYPES and draw(st.booleans()):
            col = np.array(col, dtype=_ARRAY_DTYPES[kind])
        columns.append(col)
    return header, columns


@settings(max_examples=200, deadline=None)
@given(_tables())
@example((("only",), [["a b", "%s", "1.5"]]))  # text alone in its row
@example((("x", "v"), [[], []]))  # an empty table
@example((("x", "v", "P"), [[-0.0], [np.float64("nan")], [5e-324]]))  # one row
def test_write_csv_bytes_equal_version_0_2_0(table):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_csv(new, header, columns)
        with open(new, "rb") as fh:
            assert fh.read() == _csv_bytes_0_2_0(old, header, list(zip(*columns)))


@pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2500])
def test_write_csv_batches_keep_the_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    vals = rng.standard_normal((n_rows, 2)) * 10.0 ** rng.integers(-320, 300, (n_rows, 2))
    rows = [(k, float(a), np.float64(b), "x%y" if k % 7 else f"{k / 3}")
            for k, (a, b) in enumerate(vals)]
    header = ("k", "a", "b", "note")
    write_csv(tmp_path / "new.csv", header, list(zip(*rows)))
    expected = _csv_bytes_0_2_0(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == expected


@pytest.mark.parametrize("column", [
    [True, False], [np.bool_(True)], ["a", ""], ["a,b"], ['say "a"'], ["a\nb"], ["a\rb"],
    [1.0, 2], [1, "a"], [0.5, "a"], [1j], [None], [np.longdouble(0.5)]],
    ids=["bool", "numpy-bool", "empty-text", "comma", "quote", "newline", "return",
         "float-and-int", "int-and-text", "float-and-text", "complex", "none", "longdouble"])
def test_write_csv_refuses_a_column_of_any_other_kind(tmp_path, column):
    """Beside a float column, a column of bools, of empty text or of text
    that csv.writer would quote, or of mixed kinds, raises TypeError: the
    program writes none of them (they went cell by cell through csv.writer)."""
    with pytest.raises(TypeError, match="^CSV columns must hold floats, integers or "
                       "unquoted nonempty text "):
        write_csv(tmp_path / "t.csv", ("x", "c"), (np.zeros(len(column)), column))


def test_write_csv_columns_of_unequal_length_raise(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "t.csv", ("a", "b"), (np.zeros(3), [1.0, 2.0]))


def test_write_csv_holds_one_batch_beside_its_columns(tmp_path):
    """The traced peak over the input columns stays within one batch.

    A batch is 1,024 rows of 3 cells. Each cell is a 32 B Python float from
    .tolist() plus about 26 B of its text (17 digits, sign, point, exponent,
    comma), so a batch holds about 1,024 * 3 * 58 B = 178 KB; 1 MiB of slack
    covers the per-batch lists, tuples and the open file. A writer that
    called .tolist() on whole columns would hold 200,000 * 3 * 32 B = 19 MB
    of floats."""
    import tracemalloc

    from bathdyn.cli import _BATCH_ROWS

    n = 200_000
    rng = np.random.default_rng(7)
    columns = (rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n))
    bound = _BATCH_ROWS * 3 * (32 + 26) + 2**20
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", ("a", "b", "c"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


_GRID_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                     -1e300, 1e-300, -1e-300, math.inf, -math.nan]),
    st.floats(allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(_GRID_FLOATS, max_size=6), st.lists(_GRID_FLOATS, max_size=6),
       st.integers(0, 3), st.data())
def test_product_csv_bytes_equal_write_csv_of_the_tiled_columns(a, b, n_fields, data):
    """Each coordinate formatted once gives the bytes of write_csv on a
    repeated per b, b tiled per a and each field raveled."""
    shape = (len(a), len(b))
    fields = [np.array(data.draw(st.lists(_GRID_FLOATS, min_size=len(a) * len(b),
                                          max_size=len(a) * len(b)))).reshape(shape)
              for _ in range(n_fields)]
    header = ("x", "y", *(f"f{k}" for k in range(n_fields)))
    with tempfile.TemporaryDirectory() as tmp:
        Manifest("test", tmp).product_csv("product.csv", header, a, b, *fields)
        path = os.path.join(tmp, "tiled.csv")
        write_csv(path, header, (np.repeat(np.array(a, dtype=float), len(b)),
                                 np.tile(np.array(b, dtype=float), len(a)),
                                 *(f.ravel() for f in fields)))
        with open(os.path.join(tmp, "product.csv"), "rb") as new, open(path, "rb") as old:
            assert new.read() == old.read()


@pytest.mark.parametrize("field", [np.array([[3], [-4]], dtype=np.int16),
                                   np.array([[3], [4]], dtype=np.uint64),
                                   np.array([[1j], [0.5]]), np.array([[True], [False]])],
                         ids=["int16", "uint64", "complex", "bool"])
def test_product_csv_refuses_fields_that_are_not_float(tmp_path, field):
    """Integer fields were written with %d; the program writes float fields
    only, so any other dtype raises TypeError, as complex fields did."""
    with pytest.raises(TypeError, match="^product table fields must be floats$"):
        write_product_csv(tmp_path / "p.csv", ("x", "y", "f"), [0.5, 1.5], [-1.0], field)
