"""Acceptance suite: one function per advertised numerical guarantee.

Each check runs at desk scale, compares against an analytic value, an
independent quadrature, or an exact structural identity, and reports a
one-line verdict. Criteria 4, 5, 6, 9 and 10 run the CLI on configs of their
own (``_cli_checks``) and read its outputs and its manifest's check records,
so the CLI's verdict on a contract is the criterion's too; 7 takes its
Boltzmann state from a ``simulate`` run's field.csv, and its equipartition
from a library ensemble, since the CLI writes no <v^2>; the others call the
public API. No criterion steps a grid itself: a grid's dt_max comes from its
operator, and criterion 9's pure-sink substep is one MasterOperator advance.
``run_all`` never raises: a crashed check, or one over its wall-clock limit
in ``_SUITE``, is a failure. The suite should finish well under five minutes.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np

from .decoherence import MasterOperator, decoherence_params, superposition_state
from .determinants import (
    FirstOrderOp,
    Scheme,
    SecondOrderOp,
    first_order_det_ratio,
    regularized_log_integral,
    second_order_det_ratio,
    trace_log_rate,
)
from .fokker_planck import KramersOperator, Ordering, PhaseGrid, SmoluchowskiOperator
from .kernels import BathParams, Drude, Ohmic, noise_kernel_freq, noise_kernel_time
from .langevin import SimConfig, run_ensemble
from .noise import NoiseSpec, colored_noise, derive_rng
from .potentials import DoubleWell, Harmonic


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one acceptance check.

    detail holds no wall-clock figure, only a note when a time limit is
    missed, so a same-seed rerun reproduces it; the check's wall-clock time
    is kept apart in elapsed_s.
    """

    index: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _cli_checks(command: str, lines, out: str) -> tuple[int, dict]:
    """Run the CLI subcommand on a config of the given key=value lines, with
    its outputs in the directory out. Returns the exit code and the manifest's
    check records by name; a run that ends in an error raises it."""
    from .cli import main as cli_main

    cfg = out + ".cfg"
    with open(cfg, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = cli_main([command, "--config", cfg, "--out", out, "--quiet"])
    with open(os.path.join(out, "manifest.json")) as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        if rec["record"] == "error":
            raise RuntimeError(rec["message"])
    return rc, {r["name"]: r for r in records if r["record"] == "check"}


def _retarded_identity():
    rng = derive_rng(101)
    worst = 0.0
    count = 0
    for n in (1 << 10, 1 << 12, 1 << 14):
        dt = 1.0 / n
        for _ in range(100):
            c = rng.uniform(-3.0, 3.0, n + 1)
            r = first_order_det_ratio(FirstOrderOp(c, dt), Scheme.RETARDED)
            worst = max(worst, abs(r - 1.0))
            count += 1
    return worst == 0.0, (f"{count} random-coefficient ratios, "
                          f"max |r - 1| = {worst:g} (bitwise)")


def _case(name: str, computed, target, ok) -> dict:
    return {"case": name, "computed": float(computed), "target": float(target),
            "pass": bool(ok)}


def _ratio(name: str, r: float, target: float, rel_tol: float) -> dict:
    # rel_tol = 0 demands r == target bitwise
    return _case(name, r, target, abs(r / target - 1.0) <= rel_tol)


def _first_order_cases(g: float, t_total: float, n: int) -> list[dict]:
    """Sliced first-order determinant ratios over n steps of [0, t_total].

    The coefficient is the constant friction g, or uniform on [-3, 3] from
    derive_rng(1234) for the random retarded case, whose ratio is 1 bitwise
    for any coefficients, so no figure depends on the seed. Retarded ratios
    must equal 1 bitwise; advanced and midpoint ratios e^{g t} and e^{g t / 2}
    within 1%.
    """
    dt = t_total / n
    const = np.full(n + 1, g)
    rand_c = derive_rng(1234).uniform(-3.0, 3.0, n + 1)

    def first(c, scheme):
        return first_order_det_ratio(FirstOrderOp(c, dt), scheme)

    return [
        _ratio("first_order_retarded_const", first(const, Scheme.RETARDED), 1.0, 0.0),
        _ratio("first_order_retarded_random", first(rand_c, Scheme.RETARDED), 1.0, 0.0),
        _ratio("first_order_advanced", first(const, Scheme.ADVANCED),
               math.exp(g * t_total), 0.01),
        _ratio("first_order_midpoint", first(const, Scheme.MIDPOINT),
               math.exp(g * t_total / 2.0), 0.01),
    ]


def _rate_cases(g: float) -> list[dict]:
    """Trace-log rate of a Drude symbol with cutoff 100 g (zero within 1e-3 g)
    and the regularized log integral against (gamma - mu)/2 (within 1e-6)."""
    omega_d = 100.0 * g
    rate = trace_log_rate([1.0, 1j * omega_d, -g * omega_d], [1.0, 1j * omega_d])
    cases = [_case("trace_log_drude_rate", rate, 0.0, abs(rate) < 1e-3 * g)]
    for ga, mu in ((3.0, 1.0), (5.0, 1.0)):
        val = regularized_log_integral(ga, mu)
        target = (ga - mu) / 2.0
        cases.append(_case(f"regularized_log_quadrature_{int(ga)}_{int(mu)}", val,
                           target, abs(val - target) <= 1e-6))
    return cases


def det_cases(g: float, t_total: float, n: int) -> list[dict]:
    """The determinant identity table, one {case, computed, target, pass} each:
    the first-order cases, the same three limits for a second-order operator
    with friction g and frequency 0.2 g, and the rate cases."""
    op2 = SecondOrderOp(np.full(n + 1, g), np.full(n + 1, (0.2 * g) ** 2), t_total / n)
    adv, mid = math.exp(g * t_total), math.exp(g * t_total / 2.0)
    return _first_order_cases(g, t_total, n) + [
        _ratio("second_order_retarded", second_order_det_ratio(op2, Scheme.RETARDED),
               1.0, 0.0),
        _ratio("second_order_advanced", second_order_det_ratio(op2, Scheme.ADVANCED),
               adv, 0.01),
        _ratio("second_order_midpoint", second_order_det_ratio(op2, Scheme.MIDPOINT),
               mid, 0.01),
    ] + _rate_cases(g)


def _rel_err(c: dict) -> float:
    return abs(c["computed"] / c["target"] - 1.0)


def _limit_values():
    def ratios(n):
        cases = {c["case"]: c for c in _first_order_cases(2.0, 1.0, n)}  # g = 2, t = 1
        return cases["first_order_advanced"], cases["first_order_midpoint"]

    adv, mid = ratios(10000)
    ok_val = adv["pass"] and mid["pass"]

    (a1, m1), (a2, m2) = ratios(1000), ratios(2000)
    order_adv = math.log2(_rel_err(a1) / _rel_err(a2))
    order_mid = math.log2(_rel_err(m1) / _rel_err(m2))
    ok_order = 0.8 <= order_adv <= 1.2 and 0.8 <= order_mid <= 1.2

    return ok_val and ok_order, (
        f"rel errors {_rel_err(adv):.2e} (target e^2), {_rel_err(mid):.2e} "
        f"(target e) at N = 1e4; convergence orders {order_adv:.3f}, {order_mid:.3f}"
    )


def _trace_log():
    g = 2.0
    rate, *quad = _rate_cases(g)
    dev = max(abs(c["computed"] - c["target"]) for c in quad)
    ok = rate["pass"] and all(c["pass"] for c in quad)
    return ok, (
        f"sharp-cutoff rate {rate['computed']:.2e} (bound {1e-3 * g:g}); quadrature "
        f"vs (gamma - mu)/2 off by {dev:.2e}"
    )


# the bath of criteria 4, 5 and 7, unit mass and friction at kT = 0.5, their
# harmonic well, unit frequency, and their double well V = -x^2 + x^4/4 on 256
# cells of [-3.2, 3.2], started from a Gaussian of width 0.5
_ORDERING_BATH = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
_SPRING, _HARMONIC = Harmonic(mass=1.0, omega0=1.0), ("potential.kind=harmonic",
                                                      "potential.omega0=1.0")
_WELL, _WELL_GRID = DoubleWell(a=-1.0, b=0.25), PhaseGrid(-3.2, 3.2, 256)
_WELL_START = ("potential.kind=double_well", "potential.a=-1.0", "potential.b=0.25",
               "fp.sigma_x=0.5")


def _fp_checks(grid: PhaseGrid, ordering: str, steps: int, dt: float, *lines):
    """The CLI's check records by name, and the final field's values (the last
    column of field.csv, x-major), of one simulate run of a grid solver on
    grid, in _ORDERING_BATH from x0 = 0 with the given lines: dt is passed
    exactly by repr, and the field recorded at the end only."""
    axes = [f"grid.{f.name}={getattr(grid, f.name)!r}" for f in fields(grid)
            if getattr(grid, f.name) is not None]
    lines = ("bath.mass=1.0", "bath.gamma=1.0", "bath.k_bt=0.5", "fp.x0=0.0",
             f"sim.kind={'kramers' if grid.is_2d else 'smoluchowski'}", *axes, *lines,
             f"fp.ordering={ordering}", f"fp.steps={steps}", f"fp.record_every={steps}",
             f"fp.dt={dt!r}")
    with tempfile.TemporaryDirectory() as top:
        out = os.path.join(top, ordering)
        checks = _cli_checks("simulate", lines, out)[1]
        return checks, np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1,
                                  usecols=-1)


def _kramers_ordering():
    # the harmonic well on 128 x 128 cells of [-4, 4]^2, from a Gaussian of
    # width 0.7 in x and v: 1000 conserving steps, and symmetric ones to t >= 2
    grid = PhaseGrid(-4.0, 4.0, 128, -4.0, 4.0, 128)
    dt = 0.9 * KramersOperator(grid, _SPRING, _ORDERING_BATH).dt_max
    n = math.ceil(2.0 / dt)
    start = (*_HARMONIC, "fp.sigma_x=0.7", "fp.v0=0.0", "fp.sigma_v=0.7")
    kept = _fp_checks(grid, "momenta_left", 1000, dt, *start)[0]["mass_conserved"]
    sink = _fp_checks(grid, "symmetric", n, dt, *start)[0]["mass_follows_sink"]
    ok = kept["pass"] and sink["pass"] and sink["sink_rate"] == _ORDERING_BATH.gamma / 2.0
    return ok, (f"conserving drift {kept['drift']:.2e} over 1000 steps; symmetric "
                f"mass(t={n * dt:.4g}) off e^(-gamma t/2) by {sink['drift']:.2e} on 128x128")


def _well_dt() -> float:
    """0.9 of the Smoluchowski dt_max on the double well of criteria 5 and 7."""
    return 0.9 * SmoluchowskiOperator(_WELL_GRID, _WELL, _ORDERING_BATH).dt_max


def _smoluchowski_ordering():
    # 1000 conserving steps in the double well, and symmetric ones to t >= 1
    # in the harmonic well on 256 cells of [-4, 4] from its Boltzmann state,
    # whose sink rate is w0^2 / 2 gamma
    grid_h = PhaseGrid(-4.0, 4.0, 256)
    dt_h = 0.9 * SmoluchowskiOperator(grid_h, _SPRING, _ORDERING_BATH).dt_max
    n = math.ceil(1.0 / dt_h)
    kept = _fp_checks(_WELL_GRID, "momenta_left", 1000, _well_dt(),
                      *_WELL_START)[0]["mass_conserved"]
    sink = _fp_checks(grid_h, "symmetric", n, dt_h, *_HARMONIC,
                      f"fp.sigma_x={math.sqrt(0.5)!r}")[0]["mass_follows_sink"]
    ok = kept["pass"] and sink["pass"] and sink["sink_rate"] == 1.0 / (2.0 * _ORDERING_BATH.gamma)
    return ok, (f"conserving drift {kept['drift']:.2e} over 1000 steps; symmetric mass(t="
                f"{n * dt_h:.4g}) off e^(-w0^2 t/2gamma) by {sink['drift']:.2e}")


def _ensemble_grid_agreement():
    # overdamped harmonic problem, unit mass and frequency: gamma 4, kT 0.5,
    # a point start at x0 = 1, compared at t = 1
    gamma, k_bt, x0, t = 4.0, 0.5, 1.0, 1.0
    lines = (
        "sim.kind=compare", "potential.kind=harmonic", "potential.omega0=1.0",
        "bath.mass=1.0", f"bath.gamma={gamma}", f"bath.k_bt={k_bt}",
        "grid.x_min=-2.0", "grid.x_max=4.0", "grid.nx=512",
        f"compare.times={t}", "compare.bins=64",
        "run.dt=0.005", "run.n_traj=100000", "run.seed=60001", f"run.x0={x0}",
        "run.sigma_x=0.0",
    )
    with tempfile.TemporaryDirectory() as top:
        out = os.path.join(top, "compare")
        _, checks = _cli_checks("simulate", lines, out)
        with open(os.path.join(out, "compare.jsonl")) as fh:
            rec = json.loads(fh.readline())
    budget_check = checks[f"l1_within_budget_t_{t:g}"]

    theta = 1.0 / gamma
    mean_t = math.exp(-theta * t) * x0
    var_t = k_bt * (1.0 - math.exp(-2.0 * theta * t))
    n, ens_var = rec["n_samples"], rec["ens_var"]
    se_mean = math.sqrt(ens_var / n)
    se_var = ens_var * math.sqrt(2.0 / (n - 1))
    devs = (abs(rec["ens_mean"] - mean_t) / (3.0 * se_mean),
            abs(ens_var - var_t) / (3.0 * se_var),
            abs(rec["fp_mean"] - mean_t) / (3.0 * se_mean),
            abs(rec["fp_var"] - var_t) / (3.0 * se_var))
    ok_moments = max(devs) <= 1.0
    return budget_check["pass"] and ok_moments, (
        f"L1 = {rec['l1']:.4f} vs budget {budget_check['budget']:.4f}; "
        f"worst moment deviation {max(devs):.2f} of its 3-s.e. allowance")


def _stationarity():
    # the ensemble half runs the library: the CLI writes neither <v^2> nor its
    # standard error
    config = SimConfig(potential=_SPRING, params=_ORDERING_BATH, dt=0.005, steps=1000,
                       n_traj=20000, master_seed=70001,
                       sigma_x=math.sqrt(0.5), sigma_v=math.sqrt(0.5))
    stats = run_ensemble(config, "inertial")
    v = stats.final_v[np.isfinite(stats.final_v)]
    v2 = v * v
    m2 = float(v2.mean())
    se = float(v2.std(ddof=1)) / math.sqrt(v2.size)
    target = _ORDERING_BATH.k_bt / _ORDERING_BATH.mass
    ok_equi = abs(m2 - target) <= 3.0 * se

    # the double well's conserving run to t >= 10 against its Boltzmann state
    dt = _well_dt()
    final = _fp_checks(_WELL_GRID, "momenta_left", math.ceil(10.0 / dt), dt, *_WELL_START)[1]
    q = np.exp(-np.asarray(_WELL.value(_WELL_GRID.x_centers)) / _ORDERING_BATH.k_bt)
    q /= q.sum() * _WELL_GRID.dx
    l1 = float(np.abs(final - q).sum() * _WELL_GRID.dx)
    ok_boltz = l1 < 0.02

    return ok_equi and ok_boltz, (
        f"<v^2> = {m2:.5f} vs kT/M = {target:g} ({abs(m2 - target) / se:.2f} "
        f"s.e.); double-well steady state L1 vs Boltzmann = {l1:.4f}"
    )


def _welch(x, fs: float, nperseg: int):
    """Two-sided Welch estimate (frequencies in FFT order, power spectral density)
    with a periodic Hann window, 50% overlap, no detrending and density scaling.
    It rounds as scipy.signal.welch does, so a bin that cancels to near zero agrees
    too: the window takes the density scale before a real FFT, its squares summed
    in order."""
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    window = window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::nperseg // 2]
    spectra = np.fft.rfft(segments * window, axis=-1)
    half = spectra.real**2 + spectra.imag**2
    power = np.concatenate((half, half[:, -2:0:-1]), axis=-1)
    return np.fft.fftfreq(nperseg, 1.0 / fs), power.mean(axis=0)


def _kernel_suite():
    classical = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=0.0)
    quantum = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=1.0)
    drude = Drude(gamma=1.0, omega_d=10.0)
    ohmic = Ohmic(gamma=1.0)
    k0s = (float(noise_kernel_freq(classical, ohmic, 0.0)),
           float(noise_kernel_freq(classical, drude, 0.0)),
           float(noise_kernel_freq(quantum, drude, 0.0)))
    ok_k0 = all(k == 1.0 for k in k0s)

    t_grid = np.linspace(-1.6, 1.6, 16385)
    k_t = noise_kernel_time(classical, drude, t_grid)
    area_err = abs(float(np.trapezoid(k_t, t_grid)) - 1.0)
    ok_area = area_err <= 1e-6

    spec = NoiseSpec(kernel=drude, w=2.0, dt=0.005, n=1_000_000, seed=80001)
    freqs, psd = _welch(colored_noise(spec), 1.0 / spec.dt, 1024)
    omega = 2.0 * np.pi * freqs
    fold = 2.0 * np.pi / spec.dt
    target = spec.w * (
        np.asarray(noise_kernel_freq(classical, drude, omega))
        + np.asarray(noise_kernel_freq(classical, drude, omega - fold))
        + np.asarray(noise_kernel_freq(classical, drude, omega + fold)))
    sel = np.abs(omega) < 5.0 * drude.omega_d
    order = np.argsort(omega[sel])
    meas = psd[sel][order]
    targ = target[sel][order]
    m = (meas.size // 4) * 4
    meas_b = meas[:m].reshape(-1, 4).mean(axis=1)
    targ_b = targ[:m].reshape(-1, 4).mean(axis=1)
    dev = float(np.max(np.abs(meas_b / targ_b - 1.0)))
    ok_psd = dev <= 0.05
    return ok_k0 and ok_area and ok_psd, (
        f"K(0) exact for all variants; |area - 1| = {area_err:.2e}; "
        f"periodogram max rel dev {dev:.3f} over |w| < 5 w_D (4-bin averages)")


def _interference_decay():
    params = BathParams(mass=20.0, gamma=6.25e-3, k_bt=1.0, hbar=1.0)
    dec = decoherence_params(params)

    ident = decoherence_params(BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=1.0))
    ok_ident = ident.lam * ident.l_e_sq == 2.0 * math.pi * 2.0

    sep, sigma, dt = 4.0, 0.3, 0.002
    rho0 = superposition_state(101, 0.08, 81, 0.2, separation=sep, sigma=sigma)
    rho1 = MasterOperator(rho0, None, params, terms=("decoherence",)).advance(
        rho0, Ordering.MOMENTA_LEFT, dt, 1)
    expected = rho0.values * np.exp(-dec.lam * rho0.y_grid**2 * dt)[None, :]
    sub_dev = float(np.max(np.abs(rho1.values - expected)))
    ok_sub = np.array_equal(rho1.values, expected) or (
        sub_dev <= 1e-14 * float(np.max(np.abs(expected))))

    # the same state, free and momenta-left, for 50 steps recorded every 5
    lines = (
        f"bath.mass={params.mass}", f"bath.gamma={params.gamma}",
        f"bath.k_bt={params.k_bt}", f"bath.hbar={params.hbar}", "potential.kind=none",
        "state.kind=superposition", f"state.separation={sep}", f"state.sigma={sigma}",
        "grid.nx=101", "grid.dx=0.08", "grid.ny=81", "grid.dy=0.2",
        f"run.dt={dt}", "run.steps=50", "run.record_every=5",
        "decohere.ordering=momenta_left",
    )
    with tempfile.TemporaryDirectory() as top:
        _, checks = _cli_checks("decohere", lines, os.path.join(top, "decohere"))
    slope, trace, fits = checks["decay_slope"], checks["trace_constant"], checks["grid_fits"]

    ok = ok_ident and ok_sub and trace["pass"] and slope["pass"] and fits["pass"]
    return ok, (f"pure-sink substep dev {sub_dev:.2e}; slope/(Lambda d^2) = "
                f"{slope['ratio']:.4f}; trace drift {trace['drift']:.2e}; "
                f"Lambda l_e^2 == 2 pi gamma {'exactly' if ok_ident else 'VIOLATED'}")


def _reproducibility():
    lines = (
        "sim.kind=ensemble", "potential.kind=harmonic", "potential.omega0=1.0",
        "bath.gamma=2.0", "bath.k_bt=0.5",
        "run.mode=overdamped", "run.dt=0.01", "run.steps=200", "run.n_traj=2000",
        "run.seed=4242", "run.x0=0.5", "output.bins=32", "output.autocorr_lags=16",
    )
    names = ("moments.csv", "histogram.csv", "autocorr.csv")
    with tempfile.TemporaryDirectory() as top:
        outs = [os.path.join(top, sub) for sub in ("a", "b")]
        for out in outs:
            rc, _ = _cli_checks("simulate", lines, out)
            if rc != 0:
                return False, f"simulate exited with {rc}"
        a, b = map(pathlib.Path, outs)
        same = [(a / name).read_bytes() == (b / name).read_bytes() for name in names]
    ok = all(same)
    listed = ", ".join(n for n, s in zip(names, same) if not s) or "none"
    return ok, (f"two seeded runs, {len(names)} CSV files byte-compared, "
                f"mismatches: {listed}")


# (index, name, check, wall-clock limit in seconds or None)
_SUITE = (
    (1, "retarded slicing determinant is exactly unity", _retarded_identity, 5.0),
    (2, "advanced and midpoint determinant limits", _limit_values, None),
    (3, "regularized trace-log rates", _trace_log, None),
    (4, "phase-space ordering dichotomy", _kramers_ordering, 30.0),
    (5, "overdamped ordering dichotomy", _smoluchowski_ordering, None),
    (6, "ensemble vs grid propagator agreement", _ensemble_grid_agreement, 60.0),
    (7, "stationary equipartition and Boltzmann state", _stationarity, None),
    (8, "kernel normalization and noise spectrum", _kernel_suite, 20.0),
    (9, "interference decay rate", _interference_decay, None),
    (10, "seeded run reproducibility", _reproducibility, None),
)


def run_all() -> list[CheckResult]:
    """Run every acceptance check. A raised exception counts as a failure, with
    its own detail; so does a check that returns at or over its limit."""
    results = []
    for index, name, fn, limit in _SUITE:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail, limit = False, f"raised {type(exc).__name__}: {exc}", None
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            passed, detail = False, f"{detail}; over its {limit:g}s wall-clock limit"
        results.append(CheckResult(index, name, bool(passed), detail, elapsed))
    return results
