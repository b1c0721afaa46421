"""Library refusals by name: each float argument that a constructor or pure
library function tests is refused on nan, +inf and -inf with a
ParameterError that names the argument, as are the values out of range that
the command line once refused by its own rules."""

import math

import pytest

from bathdyn import (
    BathParams,
    DoubleWell,
    Drude,
    Harmonic,
    NoiseSpec,
    Ohmic,
    ParameterError,
    PhaseGrid,
    Polynomial,
    SimConfig,
    SmoluchowskiOperator,
    decoherence_params,
    gaussian_field_1d,
    gaussian_field_2d,
    gaussian_pure_state,
    superposition_state,
)
from bathdyn.decoherence import _check_dy
from bathdyn.fokker_planck import _compare_steps
from bathdyn.kernels import _quantum_terms

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
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_values_out_of_range_are_refused_by_name(case):
    name, call, message = _OUT_OF_RANGE[case]
    with pytest.raises(ParameterError) as exc:
        call()
    assert (exc.value.name, str(exc.value)) == (name, message)
