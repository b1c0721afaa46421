"""Library refusals by name: each float argument that a constructor or pure
library function tests is refused on nan, +inf and -inf with a
ParameterError that names the argument, as are the values out of range that
the command line once refused by its own rules and every other argument a
library function tests; and kernels._require is the one place that raises
it."""

import ast
import math
import pathlib

import numpy as np
import pytest

import bathdyn
from bathdyn import (
    BathParams,
    DensityField,
    DiscreteBath,
    DoubleWell,
    Drude,
    FirstOrderOp,
    Harmonic,
    InertialState,
    KramersOperator,
    MasterOperator,
    NoiseSpec,
    Ohmic,
    Ordering,
    ParameterError,
    PhaseGrid,
    Polynomial,
    ProbField,
    Scheme,
    SecondOrderOp,
    SimConfig,
    SmoluchowskiOperator,
    colored_noise,
    decoherence_params,
    estimate_autocorr,
    first_order_det_ratio,
    friction_kernel_freq,
    friction_kernel_time,
    gaussian_field_1d,
    gaussian_field_2d,
    gaussian_pure_state,
    hbar_coth,
    noise_kernel_freq,
    noise_kernel_time,
    regularized_log_integral,
    run_ensemble,
    spectral_density,
    superposition_state,
    thermal_green,
    trace_log_rate,
    white_noise,
    wigner_transform,
)
from bathdyn.decoherence import _check_dy
from bathdyn.fokker_planck import _compare_steps
from bathdyn.kernels import Oscillator, _quantum_terms

_BATH = {"mass": 1.0, "gamma": 1.0, "k_bt": 1.0, "hbar": 1.0}
_RUN = {"potential": Harmonic(mass=1.0, omega0=1.0), "params": BathParams(1.0, 1.0, 1.0, 0.0),
        "dt": 0.01, "steps": 10, "n_traj": 10, "master_seed": 1}
_STATE = {"nx": 101, "dx": 0.08, "ny": 81, "dy": 0.2, "sigma": 0.3}


def _bath(**kw):
    return BathParams(**{**_BATH, **kw})


def _run(**kw):
    return SimConfig(**{**_RUN, **kw})


def _gaussian(**kw):
    return gaussian_pure_state(**{**_STATE, **kw})


def _superposition(**kw):
    return superposition_state(**{**_STATE, "separation": 4.0, **kw})


def _noise(**kw):
    return NoiseSpec(**{"kernel": None, "w": 1.0, "dt": 0.01, "n": 16, "seed": 1, **kw})


_CLASSICAL = BathParams(1.0, 1.0, 1.0, 0.0)
_QUANTUM = BathParams(1.0, 1.0, 1.0, 1.0)
_DRUDE = Drude(gamma=1.0, omega_d=10.0)
_LINE, _PLANE = PhaseGrid(-4.0, 4.0, 32), PhaseGrid(-4.0, 4.0, 16, -4.0, 4.0, 16)
_SMOLUCHOWSKI = SmoluchowskiOperator(_LINE, _RUN["potential"], _RUN["params"])
_START = gaussian_field_1d(_LINE, 0.0, 0.5)
_RHO = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
_MASTER = MasterOperator(_RHO, None, _QUANTUM)


# (refused name, an admitted value, the call with the value in that
# argument's place and every other argument admitted)
_FLOAT_ARGUMENTS = {
    "BathParams.mass": ("mass", 2.0, lambda v: _bath(mass=v)),
    "BathParams.gamma": ("gamma", 2.0, lambda v: _bath(gamma=v)),
    "BathParams.k_bt": ("k_bt", 2.0, lambda v: _bath(k_bt=v)),
    "BathParams.hbar": ("hbar", 0.0, lambda v: _bath(hbar=v)),
    "Ohmic.gamma": ("gamma", 2.0, lambda v: Ohmic(gamma=v)),
    "Drude.gamma": ("gamma", 2.0, lambda v: Drude(gamma=v, omega_d=10.0)),
    "Drude.omega_d": ("omega_d", 10.0, lambda v: Drude(gamma=1.0, omega_d=v)),
    "Harmonic.mass": ("mass", 2.0, lambda v: Harmonic(mass=v, omega0=1.0)),
    "Harmonic.omega0": ("omega0", 2.0, lambda v: Harmonic(mass=1.0, omega0=v)),
    "DoubleWell.a": ("a", 1.0, lambda v: DoubleWell(a=v, b=0.25)),
    "DoubleWell.b": ("b", 1.0, lambda v: DoubleWell(a=-1.0, b=v)),
    "Polynomial.coeffs": ("coeffs", -0.5, lambda v: Polynomial((0.0, v, 1.0))),
    "SimConfig.dt": ("dt", 0.02, lambda v: _run(dt=v)),
    "SimConfig.x0": ("x0", 1.0, lambda v: _run(x0=v)),
    "SimConfig.v0": ("v0", 1.0, lambda v: _run(v0=v)),
    "SimConfig.sigma_x": ("sigma_x", 0.5, lambda v: _run(sigma_x=v)),
    "SimConfig.sigma_v": ("sigma_v", 0.5, lambda v: _run(sigma_v=v)),
    "_compare_steps.dt": ("dt", 0.05, lambda v: _compare_steps(PhaseGrid(-4.0, 4.0, 64),
                                                               (0.1,), v, 0.0, 8)),
    "_check_dy.dy": ("dy", 0.2, lambda v: _check_dy(v, 1.0)),
    "NoiseSpec.dt": ("dt", 0.01, lambda v: NoiseSpec(kernel=None, w=1.0, dt=v, n=16, seed=1)),
    "gaussian_pure_state.dx": ("dx", 0.1, lambda v: _gaussian(dx=v)),
    "gaussian_pure_state.dy": ("dy", 0.1, lambda v: _gaussian(dy=v)),
    "gaussian_pure_state.sigma": ("sigma", 0.5, lambda v: _gaussian(sigma=v)),
    "superposition_state.dx": ("dx", 0.06, lambda v: _superposition(dx=v)),
    "superposition_state.dy": ("dy", 0.1, lambda v: _superposition(dy=v)),
    "superposition_state.sigma": ("sigma", 0.5, lambda v: _superposition(sigma=v)),
    "superposition_state.separation": ("separation", 3.0,
                                       lambda v: _superposition(separation=v)),
    # an infinite width samples a flat start, which only this test refuses
    "gaussian_field_1d.sigma_x": ("sigma_x", 0.5, lambda v: gaussian_field_1d(
        PhaseGrid(-4.0, 4.0, 32), 0.0, v)),
    "gaussian_field_2d.sigma_v": ("sigma_v", 0.5, lambda v: gaussian_field_2d(
        PhaseGrid(-4.0, 4.0, 16, -4.0, 4.0, 16), 0.0, 0.5, 0.0, v)),
    # the thermal rate nu1 = 2 pi k_bt / hbar names hbar, the smallest |t| t_min
    "_quantum_terms.nu1": ("hbar", 2.0, lambda v: _quantum_terms(1.5, v, 0.01)),
    "_quantum_terms.t_min": ("t_min", 0.02, lambda v: _quantum_terms(1.5, 1.0, v)),
    "noise_kernel_freq.omega": ("omega", 0.5, lambda v: noise_kernel_freq(_QUANTUM, _DRUDE, v)),
    "FirstOrderOp.c": ("c", 1.0, lambda v: FirstOrderOp([0.0, v, 1.0], 0.1)),
    "regularized_log_integral.gamma": ("gamma", 3.0, lambda v: regularized_log_integral(v, 1.0)),
    "regularized_log_integral.mu": ("mu", 1.0, lambda v: regularized_log_integral(3.0, v)),
    "NoiseSpec.w": ("w", 2.0, lambda v: _noise(w=v)),
    "InertialState.x": ("x", 1.0, lambda v: InertialState(v, 0.0)),
    "InertialState.v": ("v", 1.0, lambda v: InertialState(0.0, v)),
}


@pytest.mark.parametrize("case", sorted(_FLOAT_ARGUMENTS))
def test_every_float_argument_is_refused_by_name_on_nan_and_inf(case):
    """The admitted value passes; nan, inf and -inf each raise a
    ParameterError whose name is the argument's (hbar for the thermal rate
    nu1 it sets). Before the library owned these tests, BathParams took an
    infinite gamma or hbar, Drude an infinite cutoff, Harmonic an infinite
    omega0, DoubleWell a NaN a or an infinite b, and Polynomial a NaN
    coefficient."""
    name, admitted, call = _FLOAT_ARGUMENTS[case]
    call(admitted)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError) as exc:
            call(value)
        assert exc.value.name == name, (value, str(exc.value))
        assert str(exc.value).startswith(f"{name} must "), (value, str(exc.value))


# (refused name, the call, its message) of finite values out of range
_OUT_OF_RANGE = {
    # 1.67 grid spacings resolve a Gaussian's spectrum to grid_fits'
    # threshold; 0.001 on dx = 0.08 once gave "state has nonpositive norm"
    "unresolved-superposition": (
        "sigma", lambda: superposition_state(101, 0.08, 81, 0.2, separation=4.0, sigma=0.001),
        "sigma must be resolved by the grid: sigma >= 1.67 dx and 2 sigma >= 1.67 dy "
        "(got 0.001 on 0.08 x 0.2)"),
    "centre-outside-the-grid": (
        "separation", lambda: superposition_state(101, 0.08, 81, 0.2, separation=8.5, sigma=0.3),
        "separation must put each packet centre (+-4.25) inside the x grid [-4, 4]"),
    # w = 2 M gamma k_bt overflows, and with it Lambda = w / 2 hbar^2
    "overflowing-lambda": ("hbar", lambda: decoherence_params(_bath(mass=1e200, gamma=1e200)),
                           "hbar must give a finite Lambda = w / 2 hbar^2 > 0 (got inf)"),
    # hbar^2 = 1e-320 is nonzero, yet Lambda overflows
    "subnormal-square": ("hbar", lambda: decoherence_params(_bath(hbar=1e-160)),
                         "hbar must give a finite Lambda = w / 2 hbar^2 > 0 (got inf)"),
    "overflowing-square": ("hbar", lambda: decoherence_params(_bath(hbar=1e300)),
                           "hbar must be > 0 with a finite, nonzero square"),
    # M k_bt underflows to 0 (a ZeroDivisionError), and l_e^2 overflows
    "vanishing-m-kbt": ("hbar", lambda: decoherence_params(_bath(mass=1e-200, k_bt=1e-200,
                                                                 gamma=1e300)),
                        "hbar must give a finite thermal length l_e^2 = 2 pi hbar^2 / M k_bt "
                        "> 0 (got inf)"),
    "overflowing-thermal-length": (
        "hbar", lambda: decoherence_params(_bath(mass=1e-5, k_bt=1e-5, hbar=1e150)),
        "hbar must give a finite thermal length l_e^2 = 2 pi hbar^2 / M k_bt > 0 (got inf)"),
    # a width far below the spacing samples the start's Gaussian as zeros, on
    # one axis or, at about 1e-200 a sample on each, in their product
    "unsampled-gaussian-1d": (
        "sigma_x", lambda: gaussian_field_1d(PhaseGrid(-4.0, 4.0, 32), 0.0, 1e-300),
        "sigma_x must be resolved by the grid: the sampled Gaussian must have a finite sum > 0 "
        "(got 0)"),
    "unsampled-gaussian-product": (
        "sigma_v", lambda: gaussian_field_2d(PhaseGrid(-4.0, 4.0, 16, -4.0, 4.0, 16), 0.0,
                                             0.008237, 0.0, 0.008237),
        "sigma_v must be resolved by the grid: the sampled Gaussian must have a finite sum > 0 "
        "(got 0)"),
    "classical-limit": ("hbar", lambda: decoherence_params(_bath(hbar=0.0)),
                        "hbar must be > 0 with a finite, nonzero square"),
    "overflowing-fourth-power": ("omega_d", lambda: Drude(gamma=1.0, omega_d=1e100),
                                 "omega_d must be > 0 with a finite, nonzero fourth power"),
    "overflowing-k": ("omega0", lambda: Harmonic(mass=1.0, omega0=1e200),
                      "omega0 must be > 0 with mass omega0^2 finite and nonzero"),
    "vanishing-k": ("omega0", lambda: Harmonic(mass=1.0, omega0=1e-200),
                    "omega0 must be > 0 with mass omega0^2 finite and nonzero"),
    "overflowing-cube": ("hbar", lambda: _quantum_terms(1.5, 1e110, 0.01),
                         "hbar must give nu1 = 2 pi k_bt / hbar a finite, nonzero cube "
                         "(got nu1 = 1e+110)"),
    "log-term-at-t_min": ("t_min", lambda: _quantum_terms(1.5, 1.0, 1e-17),
                          "t_min must be finite and > 0 with log(1 - exp(-nu1 t_min)) finite "
                          "(got t_min = 1e-17)"),
    # a cell width whose square overflows or vanishes: the flux weights
    # divide by it (compare ended in an OverflowError traceback)
    "overflowing-cell-square": ("x_max", lambda: PhaseGrid(-4.0, 1e300, 64),
                                "x_max must give cells of width (x_max - x_min) / nx a finite, "
                                "nonzero square (got 1.5625e+298)"),
    "vanishing-cell-square": ("v_max", lambda: PhaseGrid(-4.0, 4.0, 16, -1e-170, 1e-170, 16),
                              "v_max must give cells of width (v_max - v_min) / nv a finite, "
                              "nonzero square (got 1.25e-171)"),
    # D = k_bt / (M gamma) vanishes or overflows, which no cell width mends
    "vanishing-diffusion": ("gamma", lambda: SmoluchowskiOperator(
        PhaseGrid(-4.0, 4.0, 16), _RUN["potential"], _bath(mass=1e200, gamma=1e200)),
        "gamma must give a finite diffusion constant D = k_bt / (M gamma) > 0 (got D = 0)"),
    "overflowing-diffusion": ("gamma", lambda: SmoluchowskiOperator(
        PhaseGrid(-4.0, 4.0, 16), _RUN["potential"], _bath(mass=1e-160, gamma=1e-160)),
        "gamma must give a finite diffusion constant D = k_bt / (M gamma) > 0 (got D = inf)"),
    "empty-polynomial": ("coeffs", lambda: Polynomial(()), "coeffs must not be empty"),
    "no-steps": ("steps", lambda: _run(steps=0), "steps must be >= 1"),
    "no-trajectories": ("n_traj", lambda: _run(n_traj=0), "n_traj must be >= 1"),
    # kernels
    "oscillator-mass": ("mass", lambda: Oscillator(c=1.0, mass=0.0, omega=1.0),
                        "mass must be > 0"),
    "oscillator-omega": ("omega", lambda: Oscillator(c=1.0, mass=1.0, omega=0.0),
                         "omega must be > 0: a mode of frequency 0 is a massless bath mode"),
    "one-point-t_grid": ("t_grid", lambda: noise_kernel_time(_CLASSICAL, _DRUDE, [0.1]),
                         "t_grid must be a 1d array with at least 2 points"),
    "uneven-t_grid": ("t_grid", lambda: noise_kernel_time(_CLASSICAL, _DRUDE, [0.1, 0.3, 0.4]),
                      "t_grid must be uniformly increasing"),
    "hbar_coth-omega": ("omega", lambda: hbar_coth(1.0, 1.0, 0.0), "omega must be > 0"),
    "hbar_coth-ground-state": ("k_bt", lambda: hbar_coth(0.0, 0.0, 1.0),
                               "k_bt must be nonzero where hbar = 0: the classical ground state "
                               "is degenerate"),
    "discrete-density": ("model", lambda: spectral_density(DiscreteBath(), 1.0, 0.5),
                         "model must be Ohmic or Drude, not a distributional density: a discrete "
                         "bath is a sum of delta functions and has no pointwise value"),
    "ohmic-friction-at-t-0": ("t", lambda: friction_kernel_time(Ohmic(gamma=1.0), 1.0, 0.0),
                              "t must be < 0 for the Ohmic friction kernel: it is the "
                              "distribution 2 gamma delta(t), with a pointwise value (0) at t < 0 "
                              "only"),
    "friction-freq-model": ("model", lambda: friction_kernel_freq(Ohmic(gamma=1.0), 0.0),
                            "model must be a Drude model"),
    "quantum-kernel-at-t-0": ("t_grid", lambda: noise_kernel_time(_QUANTUM, _DRUDE, [0.0, 0.1]),
                              "t_grid must exclude t = 0, where the quantum noise kernel "
                              "diverges logarithmically, or take the classical limit hbar = 0"),
    "classical-ohmic-kernel": ("model", lambda: noise_kernel_time(_CLASSICAL, Ohmic(gamma=1.0),
                                                                  [0.1, 0.2]),
                               "model must have a Drude cutoff: the classical Ohmic noise kernel "
                               "is a delta function; use the white-noise generator instead"),
    "quantum-ohmic-kernel": ("model", lambda: noise_kernel_time(_QUANTUM, Ohmic(gamma=1.0),
                                                                [0.1, 0.2]),
                             "model must have a Drude cutoff: the quantum Ohmic spectrum grows "
                             "linearly and has no integrable time kernel"),
    "thermal_green-omega": ("omega", lambda: thermal_green(0.0, 2.0, 0.0, 1.0, 1.0),
                            "omega must be > 0"),
    "thermal_green-beta": ("beta", lambda: thermal_green(1.0, 0.0, 0.0, 1.0, 1.0),
                           "beta must be > 0"),
    "thermal_green-hbar": ("hbar", lambda: thermal_green(1.0, 2.0, 0.0, 1.0, 0.0),
                           "hbar must be > 0"),
    # determinants
    "two-node-c": ("c", lambda: FirstOrderOp([1.0, 2.0], 0.1),
                   "c must be a 1d array of at least 3 node samples"),
    "two-node-gamma": ("gamma", lambda: SecondOrderOp([1.0, 2.0], [1.0, 2.0, 3.0], 0.1),
                       "gamma must be a 1d array of at least 3 node samples"),
    "nan-omega_sq": ("omega_sq", lambda: SecondOrderOp(np.zeros(3), [0.0, math.nan, 0.0], 0.1),
                     "omega_sq must be finite at every node"),
    "first-order-dt": ("dt", lambda: FirstOrderOp(np.zeros(3), 0.0), "dt must be > 0"),
    "second-order-dt": ("dt", lambda: SecondOrderOp(np.zeros(3), np.zeros(3), 0.0),
                        "dt must be > 0"),
    "second-order-nodes": ("omega_sq", lambda: SecondOrderOp(np.zeros(3), np.zeros(4), 0.1),
                           "omega_sq must be sampled on the same nodes as gamma"),
    "coarse-slicing": ("dt", lambda: first_order_det_ratio(FirstOrderOp(np.full(11, -25.0), 0.1),
                                                           Scheme.ADVANCED),
                       "dt must keep every diagonal factor 1 + dt c positive: the slicing step "
                       "is too coarse"),
    "zero-numerator": ("numerator", lambda: trace_log_rate([0.0, 0.0]),
                       "numerator must not be all zero"),
    "empty-denominator": ("denominator", lambda: trace_log_rate([1.0, 1j], []),
                          "denominator must not be all zero"),
    # noise
    "one-sample": ("n", lambda: _noise(n=1), "n must be >= 2"),
    "white-noise-kernel": ("kernel", lambda: white_noise(_noise(kernel=_DRUDE)),
                           "kernel must be None for white_noise"),
    "colored-noise-none": ("kernel", lambda: colored_noise(_noise()),
                           "kernel must be a model for colored_noise; use white_noise for None"),
    "colored-noise-ohmic": ("kernel", lambda: colored_noise(_noise(kernel=Ohmic(gamma=1.0))),
                            "kernel must have a Drude cutoff: the Ohmic kernel synthesizes white "
                            "noise; use white_noise"),
    "autocorr-max_lag": ("max_lag", lambda: estimate_autocorr(np.zeros(100), 10),
                         "max_lag must satisfy 0 <= max_lag < n/10"),
    # fokker_planck
    "missing-v_min": ("v_min", lambda: PhaseGrid(-4.0, 4.0, 16, v_max=4.0, nv=16),
                      "v_min must be given with v_max and nv"),
    "missing-v_max": ("v_max", lambda: PhaseGrid(-4.0, 4.0, 16, v_min=-4.0, nv=16),
                      "v_max must be given with v_min and nv"),
    "missing-nv": ("nv", lambda: PhaseGrid(-4.0, 4.0, 16, v_min=-4.0, v_max=4.0),
                   "nv must be given with v_min and v_max"),
    "field-shape": ("values", lambda: ProbField(np.ones(31), _LINE),
                    "values must have the grid's shape (32,) (got shape (31,))"),
    "gaussian-1d-on-a-plane": ("grid", lambda: gaussian_field_1d(_PLANE, 0.0, 0.5),
                               "grid must be 1D"),
    "gaussian-2d-on-a-line": ("grid", lambda: gaussian_field_2d(_LINE, 0.0, 0.5, 0.0, 0.5),
                              "grid must be 2D"),
    "smoluchowski-on-a-plane": ("grid", lambda: SmoluchowskiOperator(_PLANE, _RUN["potential"],
                                                                     _RUN["params"]),
                                "grid must be 1D"),
    "kramers-on-a-line": ("grid", lambda: KramersOperator(_LINE, _RUN["potential"],
                                                          _RUN["params"]), "grid must be 2D"),
    "compare-on-a-plane": ("grid", lambda: _compare_steps(_PLANE, (0.1,), 0.05, 0.0, 4),
                           "grid must be 1D"),
    "run-dt": ("dt", lambda: _SMOLUCHOWSKI.advance(_START, Ordering.MOMENTA_LEFT, 0.0, 1),
               "dt must be > 0"),
    "repeated-mark": ("marks", lambda: list(_SMOLUCHOWSKI.records(
        _START, Ordering.MOMENTA_LEFT, 1e-4, [1, 1])), "marks must increase from 1"),
    # decoherence
    "field-1d": ("values", lambda: DensityField(np.ones(8), 0.0, 0.1, 0.1),
                 "values must be 2D (x by y)"),
    "field-even-ny": ("ny", lambda: DensityField(np.ones((8, 6)), 0.0, 0.1, 0.1),
                      "ny must be odd so the y = 0 row exists"),
    "field-dx": ("dx", lambda: DensityField(np.ones((8, 7)), 0.0, -0.1, 0.1), "dx must be > 0"),
    "field-dy": ("dy", lambda: DensityField(np.ones((8, 7)), 0.0, 0.1, 0.0), "dy must be > 0"),
    "unknown-term": ("terms", lambda: MasterOperator(_RHO, None, _QUANTUM, terms=("noise",)),
                     "terms must be among ('kinetic', 'potential', 'friction', 'decoherence') "
                     "(got 'noise')"),
    "foreign-field": ("field", lambda: _MASTER.advance(
        gaussian_pure_state(41, 0.1, 29, 0.12, sigma=0.5), Ordering.MOMENTA_LEFT, 0.01, 1),
        "field must be on this operator's grid"),
    "wigner-hbar": ("hbar", lambda: wigner_transform(_RHO, 0.0), "hbar must be > 0"),
    "wigner-lopsided": ("rho", lambda: wigner_transform(DensityField(
        np.arange(21.0).reshape(3, 7), 0.0, 0.1, 0.1), 1.0),
        "rho must be Hermitian within 1e-08 for a Wigner transform"),
    # the state's x grid is refused first: at nx = 0 superposition_state
    # named separation, with the inverted grid [0, -0.08], and
    # gaussian_pure_state raised "state has nonpositive norm on this grid"
    "gaussian-nx": ("nx", lambda: _gaussian(nx=0), "nx must be >= 1"),
    "superposition-nx": ("nx", lambda: _superposition(nx=0), "nx must be >= 1"),
    # the normalized state's sums, about 2 mx my / dx (105 x 81 padded
    # cells), and pi / dy overflow: 5e-308 once overflowed in the transforms
    "tiny-dx": ("dx", lambda: _gaussian(dx=5e-308),
                "dx must keep 2 mx my / dx finite, with mx my = 8505 padded FFT cells, which "
                "bounds the normalized state's sums (got 5e-308)"),
    "tiny-dy": ("dy", lambda: _superposition(dy=1e-310),
                "dy must keep pi / dy, the largest y wavenumber, finite (got 1e-310)"),
    # langevin
    "unknown-mode": ("mode", lambda: run_ensemble(_run(), "underdamped"),
                     "mode must be one of ('inertial', 'overdamped', 'overdamped_postpoint')"),
    "late-snapshot": ("snapshot_steps", lambda: run_ensemble(_run(), snapshot_steps=(11,)),
                      "snapshot_steps must be in [0, steps]"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_values_out_of_range_are_refused_by_name(case):
    name, call, message = _OUT_OF_RANGE[case]
    with pytest.raises(ParameterError) as exc:
        call()
    assert (exc.value.name, str(exc.value)) == (name, message)


# each ValueError that src/bathdyn still raises by hand, (module, function)
# -> (count, reason); an argument a caller passed is refused through
# kernels._require, which alone raises ParameterError
_BARE_VALUE_ERRORS = {
    ("cli", "write_csv"): (1, "the CLI's own columns differ in length: a writer error, not a "
                              "caller's argument"),
    ("kernels", "noise_kernel_time"): (1, "kernel values must be finite: a numerical failure "
                                          "of the kernel's sum, not an argument"),
    ("fokker_planck", "_check_values"): (3, "checks constructor input and each step's raw "
                                            "field alike; the CLI maps the step case to exit 1 "
                                            "by its phase"),
    ("fokker_planck", "dv"): (1, "a 1-D grid has no v axis: a question put to the grid"),
    ("fokker_planck", "v_centers"): (1, "a 1-D grid has no v axis: a question put to the grid"),
    ("fokker_planck", "v_faces"): (1, "a 1-D grid has no v axis: a question put to the grid"),
}


def _raises_by_function(exception: str) -> dict:
    """(module, innermost function) -> count of the raise statements in
    src/bathdyn whose exception is exception(...) or the bare name."""
    found = {}

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                called = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(called, "id", None) == exception:
                    found[module, function] = found.get((module, function), 0) + 1
            visit(child, module, function)

    for path in sorted(pathlib.Path(bathdyn.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def test_each_hand_written_value_error_is_allowed_by_name():
    """A new hand-written refusal of an argument, `raise ValueError(...)`
    anywhere in src/bathdyn, fails here: it belongs in kernels._require.
    Each ValueError that stays is listed with its reason, and ParameterError
    is raised in _require alone."""
    assert _raises_by_function("ValueError") == {
        site: count for site, (count, _) in _BARE_VALUE_ERRORS.items()}
    assert _raises_by_function("ParameterError") == {("kernels", "_require"): 1}
