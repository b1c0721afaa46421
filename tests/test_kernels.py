"""Kernel module tests: shapes, normalization, time-domain oracles."""

import math

import numpy as np
import pytest

from bathdyn import (
    BathParams,
    DiscreteBath,
    Drude,
    KernelSamples,
    Ohmic,
    Oscillator,
    bath_correlators,
    freq_shift,
    friction_kernel_freq,
    friction_kernel_time,
    hbar_coth,
    noise_kernel_freq,
    noise_kernel_time,
    spectral_density,
    thermal_green,
    xcoth,
)

COTH_1 = 1.3130352854993312


def test_bath_params_validation():
    with pytest.raises(ValueError):
        BathParams(mass=0.0, gamma=1.0, k_bt=1.0, hbar=0.0)
    with pytest.raises(ValueError):
        BathParams(mass=1.0, gamma=1.0, k_bt=0.0, hbar=0.0)
    with pytest.raises(ValueError):
        BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=-1.0)
    p = BathParams(mass=2.0, gamma=3.0, k_bt=0.5, hbar=0.0)
    assert p.w == 2.0 * 2.0 * 3.0 * 0.5
    assert p.D == 0.5 / (2.0 * 3.0)


def test_xcoth_limits():
    assert xcoth(0.0) == 1.0
    assert abs(xcoth(1.0) - COTH_1) < 1e-14
    # even function, linear growth at large argument
    x = np.linspace(-8.0, 8.0, 41)
    np.testing.assert_allclose(xcoth(x), xcoth(-x), rtol=0, atol=0)
    assert abs(xcoth(50.0) - 50.0) < 1e-12
    # series branch joins the direct branch smoothly
    assert abs(xcoth(1.0001e-3) - xcoth(0.9999e-3)) < 1e-9


def test_hbar_coth_limits():
    # classical limit 2 kT / omega
    assert hbar_coth(0.0, 0.5, 2.0) == 0.5
    # ground state: coth -> 1
    assert hbar_coth(3.0, 0.0, 2.0) == 3.0
    assert abs(hbar_coth(1.0, 0.5, 1.0) - COTH_1) < 1e-14
    with pytest.raises(ValueError):
        hbar_coth(0.0, 0.0, 1.0)


def test_spectral_density_shapes():
    w = np.linspace(-5.0, 5.0, 11)
    sig = spectral_density(Ohmic(gamma=2.0), 1.5, w)
    np.testing.assert_allclose(sig, 2.0 * 1.5 * 2.0 * w, rtol=1e-15)
    d = Drude(gamma=2.0, omega_d=4.0)
    sig_d = spectral_density(d, 1.0, w)
    np.testing.assert_allclose(sig_d, 2.0 * 2.0 * w * 16.0 / (16.0 + w * w),
                               rtol=1e-15)
    # antisymmetric in omega
    np.testing.assert_allclose(sig_d, -spectral_density(d, 1.0, -w), rtol=0)


def test_friction_kernel_drude():
    d = Drude(gamma=1.0, omega_d=10.0)
    # gamma omega_d exp(-omega_d t), causal
    assert abs(friction_kernel_time(d, 1.0, 0.1) - 3.6787944117144233) < 1e-14
    assert friction_kernel_time(d, 1.0, -0.5) == 0.0
    # frequency partner at omega = 0 equals gamma
    g0 = friction_kernel_freq(d, 0.0)
    assert abs(complex(g0) - 1.0) < 1e-14


def test_scalar_in_scalar_out():
    """A scalar argument gives a Python float (a complex for the friction
    kernel in frequency); an array argument gives an ndarray of its shape."""
    drude = Drude(gamma=1.0, omega_d=10.0)
    quantum = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=1.0)
    calls = [
        (float, lambda w: xcoth(w)),
        (float, lambda w: spectral_density(drude, 1.0, w)),
        (float, lambda w: friction_kernel_time(drude, 1.0, w)),
        (complex, lambda w: friction_kernel_freq(drude, w)),
        (float, lambda w: noise_kernel_freq(quantum, drude, w)),
    ]
    for kind, call in calls:
        for scalar in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(call(scalar)) is kind
        out = call(np.array([0.0, 0.5, 2.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)
        assert out[1] == call(0.5)


def test_noise_kernel_freq_unit_at_zero():
    drude = Drude(gamma=1.0, omega_d=10.0)
    ohmic = Ohmic(gamma=1.0)
    for hbar in (0.0, 1.0, 2.5):
        p = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=hbar)
        assert float(noise_kernel_freq(p, ohmic, 0.0)) == 1.0
        assert float(noise_kernel_freq(p, drude, 0.0)) == 1.0


def test_noise_kernel_freq_values():
    p = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=1.0)
    # at omega = 1: Lorentzian shape times x coth x with x = 1
    d = Drude(gamma=1.0, omega_d=3.0)
    got = float(noise_kernel_freq(p, d, 1.0))
    assert abs(got - (9.0 / 10.0) * COTH_1) < 1e-14
    # classical Drude is the bare Lorentzian
    pc = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    got = float(noise_kernel_freq(pc, d, 1.0))
    assert abs(got - 0.9) < 1e-15


def test_classical_drude_time_kernel():
    p = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=0.0)
    d = Drude(gamma=1.0, omega_d=10.0)
    t = np.linspace(-1.6, 1.6, 16385)
    s = noise_kernel_time(p, d, t)
    np.testing.assert_allclose(s.values, 5.0 * np.exp(-10.0 * np.abs(t)),
                               rtol=1e-12, atol=1e-300)
    assert abs(s.area - 1.0) <= 1e-6
    assert not s.short_grid


def test_classical_drude_short_grid_flag():
    p = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=0.0)
    d = Drude(gamma=1.0, omega_d=10.0)
    t = np.linspace(-0.1, 0.1, 201)  # misses most of the tail? no: om_d t = 1
    s = noise_kernel_time(p, d, t)
    # area 1 - e^{-1} is far from one, the grid must be flagged
    assert s.short_grid
    assert abs(s.area - (1.0 - math.exp(-1.0))) < 1e-3


def test_quantum_drude_time_kernel_quadrature_oracle():
    """Sampled values agree with an independent Fourier quadrature."""
    p = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=1.0, omega_d=10.0)
    d = Drude(gamma=1.0, omega_d=10.0)
    t = np.arange(1, 2001) * 0.05
    s = noise_kernel_time(p, d, t)
    oracle = {
        0.05: 5.655533972083528,
        0.1: -0.305330487533093,
        0.5: -0.457330912515281,
        1.0: -0.01964730923857582,
    }
    for tt, val in oracle.items():
        i = int(np.argmin(np.abs(s.t_grid - tt)))
        assert abs(s.values[i] - val) < 1e-9


# K(0.01 / omega_d) and K(0.1 / omega_d) of the quantum Drude bath with hbar =
# 1 and k_bt = 1 / 2 pi (nu1 = 1 to roundoff), at each omega_d = N + delta of
# the pole grid below that the pole band admits: 40-digit values of the
# kernel's closed form, from tools/drude_reference.py
_POLE_GRID = [n + sign * d for n in (1, 3, 30, 300) for d in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
              for sign in (1, -1)]
_POLE_REFERENCE = {
    1.01: (4.18650764976709, 1.8537960231413277),
    0.99: (4.025188437774228, 1.7839446222451263),
    1.001: (4.113516257603566, 1.822191536311482),
    0.999: (4.09738433842212, 1.8152063982496704),
    3.01: (36.57863209379795, 15.86072702225684),
    2.99: (36.09523316005935, 15.651734285458689),
    3.001: (36.36070380491285, 15.766507907282708),
    2.999: (36.31236391156065, 15.745608633624656),
    30.01: (3627.9084946836683, 1568.4893410457184),
    29.99: (3623.0746175657036, 1566.3995264525702),
    300.01: (362565.0360439012, 156746.62613681893),
    299.99: (362516.6972728449, 156725.7279910114),
}


def test_quantum_drude_pole_band_oracle():
    """Near omega_d / nu1 = N, c_D's pole and the series term n = N cancel,
    and their roundoff grows like r eps / sin^2(pi delta). An omega_d the
    band admits agrees with the 40-digit reference within 1e-9 relative;
    every other omega_d of the grid is refused. For small delta the band is
    |delta| < sqrt(1.25 eps r / 1e-9) = 5.3e-4 sqrt(r): it admits delta =
    +-1e-2 at every N up to 300, +-1e-3 only up to N = 3, and nothing
    nearer. An exact multiple, and r beyond 2^53, are refused too."""
    from bathdyn.kernels import _POLE_TOL, _pole_roundoff

    assert _POLE_TOL == 1e-9
    eps = float(np.finfo(float).eps)
    assert sorted(_POLE_REFERENCE) == sorted(
        w for w in _POLE_GRID if abs(w - round(w)) > math.sqrt(1.25 * eps * w / _POLE_TOL))
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.15915494309189535, hbar=1.0)
    for omega_d in _POLE_GRID:
        t = np.array([0.01, 0.1]) / omega_d
        if omega_d in _POLE_REFERENCE:
            values = noise_kernel_time(params, Drude(gamma=1.0, omega_d=omega_d), t).values
            np.testing.assert_allclose(values, _POLE_REFERENCE[omega_d], rtol=1e-9, atol=0.0)
        else:
            with pytest.raises(ValueError, match="pole band"):
                noise_kernel_time(params, Drude(gamma=1.0, omega_d=omega_d), t)
    assert _pole_roundoff(3.0, 1.0) == math.inf and _pole_roundoff(2.0**53 + 0.7, 1.0) == math.inf
    assert _pole_roundoff(0.3, 1.0) == 0.0  # no pole below r = 1/2


def test_noise_kernel_time_error_contracts():
    d = Drude(gamma=1.0, omega_d=10.0)
    t = np.linspace(-1.0, 1.0, 101)
    pq = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=1.0)
    with pytest.raises(ValueError, match="t = 0"):
        noise_kernel_time(pq, d, t)  # grid contains the log singularity
    pc = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=0.0)
    with pytest.raises(ValueError, match="white-noise"):
        noise_kernel_time(pc, Ohmic(gamma=1.0), t)
    with pytest.raises(ValueError, match="Drude"):
        noise_kernel_time(pq, Ohmic(gamma=1.0), t)
    for grid in ([0.0, 0.1, 0.3], [0.3, 0.2, 0.1]):  # nonuniform, decreasing
        with pytest.raises(ValueError, match="^t_grid must be uniformly increasing$"):
            noise_kernel_time(pc, d, np.array(grid))
        with pytest.raises(ValueError, match="^t_grid must be uniformly increasing$"):
            KernelSamples(np.array(grid), np.zeros(3), 0.1, 0.0, True)


def test_discrete_bath_helpers():
    b = DiscreteBath((Oscillator(c=1.0, mass=1.0, omega=2.0),))
    assert freq_shift(b, 1.0) == -0.25
    assert freq_shift(DiscreteBath(), 1.0) == 0.0

    b1 = DiscreteBath((Oscillator(c=1.0, mass=1.0, omega=1.0),))
    p = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=1.0)
    a, g = bath_correlators(p, b1, 0.3, 0.0)
    assert abs(a - COTH_1 * math.cos(0.3)) < 1e-14
    assert abs(g - (-1j * math.sin(0.3))) < 1e-14
    # retarded part vanishes for reversed time order
    a2, g2 = bath_correlators(p, b1, 0.0, 0.3)
    assert g2 == 0.0j
    assert abs(a2 - a) < 1e-14  # symmetric correlator is even
    # classical limit kills the commutator part
    pc = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    _, gc = bath_correlators(pc, b1, 0.3, 0.0)
    assert gc == 0.0j


def test_thermal_green_values():
    g = thermal_green(1.0, 2.0, 0.0, 1.0, 1.0)
    assert abs(g - COTH_1 / 2.0) < 1e-12
    # zero-temperature limit: hbar / (2 M Omega)
    g0 = thermal_green(2.0, 500.0, 0.0, 1.0, 1.0)
    assert abs(g0 - 0.25) < 1e-12
    # real part even in the time split
    gp = thermal_green(1.0, 2.0, 0.4, 1.0, 1.0)
    gm = thermal_green(1.0, 2.0, -0.4, 1.0, 1.0)
    assert abs(gp.real - gm.real) < 1e-14
    assert abs(gp.imag + gm.imag) < 1e-14


def test_oscillator_validation():
    with pytest.raises(ValueError, match="frequency"):
        Oscillator(c=1.0, mass=1.0, omega=0.0)
    with pytest.raises(ValueError):
        Oscillator(c=1.0, mass=0.0, omega=1.0)
