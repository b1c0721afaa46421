"""Kernel module tests: shapes, normalization, time-domain oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdyn import (
    BathParams,
    DiscreteBath,
    Drude,
    KernelSamples,
    NoiseSpec,
    Ohmic,
    Oscillator,
    ParameterError,
    bath_correlators,
    colored_noise,
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


def test_friction_kernel_ohmic_is_its_delta_limit():
    """The Ohmic kernel is the paper's local limit 2 gamma delta(t): before
    t = 0 it is exactly zero, as an array or a scalar, and any t >= 0, where
    only the delta's weight is defined, is refused."""
    ohmic = Ohmic(gamma=2.5)
    t = np.array([-3.0, -1e-300, -0.0 - 1e-12])
    out = friction_kernel_time(ohmic, 1.0, t)
    assert out.shape == t.shape and out.dtype == float and np.all(out == 0.0)
    assert friction_kernel_time(ohmic, 1.0, -0.5) == 0.0
    assert type(friction_kernel_time(ohmic, 1.0, -0.5)) is float
    for bad in (0.0, -0.0, 1e-300, np.array([-1.0, 0.0]), np.array([-1.0, 2.0])):
        with pytest.raises(ValueError, match=r"^distributional kernel: the Ohmic friction "
                           r"kernel is 2 gamma delta\(t\); only t < 0 has a pointwise value"):
            friction_kernel_time(ohmic, 1.0, bad)


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
            with pytest.raises(ParameterError, match="^omega_d must keep r = omega_d / nu1 = "
                               ".* out of the pole band"):
                noise_kernel_time(params, Drude(gamma=1.0, omega_d=omega_d), t)
    assert _pole_roundoff(3.0, 1.0) == math.inf and _pole_roundoff(2.0**53 + 0.7, 1.0) == math.inf
    assert _pole_roundoff(0.3, 1.0) == 0.0  # no pole below r = 1/2


# K(m t_min), m = 1, 2, 3, of the quantum Drude bath of _POLE_REFERENCE at
# omega_d = 43.39, where t_min = (16 / omega_d) / 16386 is the smallest |t| of
# the kernels command's default grid: 40-digit values of the kernel's closed
# form, from tools/drude_reference.py
_CAP_EDGE_REFERENCE = (11963.428022613298, 10658.463961541871, 9895.126867186558)


def test_quantum_drude_series_cap_edge():
    """The residual series sums the smaller of its tail count and its
    exponential cut-off, 45 / (nu1 t_min) + 1 terms, which binds at the
    kernels command's default grid with nu1 = 1. omega_d = 43.39 sums
    1,999,657 terms, within _SERIES_CAP, and agrees with the 40-digit
    reference within 1e-9 relative. 43.4 needs 2,000,118 and is refused
    before any term is summed, and so is r = 3000.3, which the cap once cut
    short with K off by 6.3e-8 relative."""
    from bathdyn.kernels import _SERIES_CAP, _series_terms

    assert _SERIES_CAP == 2_000_000
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.15915494309189535, hbar=1.0)
    nu1 = 2.0 * math.pi * params.k_bt / params.hbar
    for omega_d, terms in ((43.39, 1_999_657), (43.4, 2_000_118), (3000.3, 138_270_702)):
        t_min = 16.0 / omega_d / 16386
        assert min(_series_terms(omega_d, nu1, t_min)) == terms
        t = np.array([1.0, 2.0, 3.0]) * t_min
        if terms <= _SERIES_CAP:
            values = noise_kernel_time(params, Drude(gamma=1.0, omega_d=omega_d), t).values
            np.testing.assert_allclose(values, _CAP_EDGE_REFERENCE, rtol=1e-9, atol=0.0)
        else:
            with pytest.raises(ParameterError, match="^t_grid must keep the quantum kernel's "
                               f"thermal series within 2,000,000 terms: .* cuts it at {terms:,}$"):
                noise_kernel_time(params, Drude(gamma=1.0, omega_d=omega_d), t)


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


_OSCILLATORS = st.builds(Oscillator, c=st.floats(-10.0, 10.0), mass=st.floats(0.1, 10.0),
                         omega=st.floats(0.01, 100.0))


@settings(max_examples=200, deadline=None)
@given(oscillators=st.lists(_OSCILLATORS, max_size=8), mass=st.floats(0.1, 10.0))
def test_discrete_friction_kernel_at_zero_is_minus_the_frequency_shift(oscillators, mass):
    """gamma(0) = (1/M) sum_i c_i^2 / (M_i Omega_i^2) = -Delta(omega^2): the
    two sums take the same terms in the same order, so they agree to the
    last bit."""
    bath = DiscreteBath(oscillators)
    assert friction_kernel_time(bath, mass, 0.0) == -freq_shift(bath, mass)


def test_discrete_friction_kernel_is_retarded_and_sums_cosines():
    osc = Oscillator(c=1.3, mass=0.7, omega=2.1)
    t = np.linspace(-3.0, 3.0, 61)
    kernel = friction_kernel_time(DiscreteBath((osc,)), 1.9, t)
    cosine = (osc.c ** 2 / (osc.mass * osc.omega ** 2)) * np.cos(osc.omega * t) / 1.9
    assert np.all(kernel[t < 0.0] == 0.0)
    np.testing.assert_array_equal(kernel[t >= 0.0], cosine[t >= 0.0])


def test_discrete_bath_sampling_a_drude_density_reproduces_its_friction_kernel():
    """N oscillators at the midpoints Omega_i = (i - 1/2) dOmega of [0,
    Omega_max], with c_i^2 = M_i Omega_i sigma(Omega_i) dOmega / pi, have the
    friction kernel sum_i a_i cos(Omega_i t), a_i = (2 gamma / pi) h(Omega_i)
    dOmega with h = wD^2 / (wD^2 + Omega^2): the midpoint rule for the Drude
    kernel gamma wD exp(-wD t) as a cosine integral. Its error is within the
    sum of three bounds:
    - aliasing: Poisson summation of the midpoint rule over the whole line,
      with the transform pi wD exp(-wD |s|) of h, leaves 2 gamma wD exp(wD t)
      q / (1 - q), q = exp(-2 pi wD / dOmega);
    - the tail i > N of the decreasing a_i: at most a_{N+1} / |sin(dOmega t /
      2)| by Abel summation, and at most (2 gamma / pi) wD^2 / Omega_max, the
      integral of h beyond Omega_max, which its midpoint sum cannot exceed
      where h is convex (Omega > wD / sqrt 3);
    - roundoff: (N + 20) eps of the sum of |a_i| <= gamma wD, twice over."""
    gamma, omega_d, mass, n, omega_max = 0.7, 3.0, 1.3, 2000, 400.0
    d_omega = omega_max / n
    nodes = (np.arange(1, n + 1) - 0.5) * d_omega
    sigma = spectral_density(Drude(gamma=gamma, omega_d=omega_d), mass, nodes)
    bath = DiscreteBath(Oscillator(c=math.sqrt(0.5 * w * s * d_omega / math.pi), mass=0.5,
                                   omega=w) for w, s in zip(nodes, sigma))
    t = np.linspace(0.0, 4.0, 41)
    error = np.abs(friction_kernel_time(bath, mass, t)
                   - friction_kernel_time(Drude(gamma=gamma, omega_d=omega_d), mass, t))

    q = math.exp(-2.0 * math.pi * omega_d / d_omega)
    alias = 2.0 * gamma * omega_d * np.exp(omega_d * t) * q / (1.0 - q)
    a_next = (2.0 * gamma / math.pi) * omega_d ** 2 / (omega_d ** 2 + (omega_max + d_omega / 2)
                                                       ** 2) * d_omega
    with np.errstate(divide="ignore"):
        abel = a_next / np.abs(np.sin(d_omega * t / 2.0))
    tail = np.minimum((2.0 * gamma / math.pi) * omega_d ** 2 / omega_max, abel)
    roundoff = (n + 20) * np.finfo(float).eps * 2.0 * gamma * omega_d
    assert np.all(error <= alias + tail + roundoff)
    # the bound is no formality: beyond t = 0.5 it is below 1e-4 of gamma wD
    assert np.all((alias + tail + roundoff)[t >= 0.5] < 1e-4 * gamma * omega_d)


_DISCRETE = DiscreteBath((Oscillator(c=1.0, mass=1.0, omega=2.0),))
_QUANTUM = BathParams(mass=1.0, gamma=1.0, k_bt=1.0, hbar=1.0)

# each function that needs a pointwise density or a smooth kernel, called on
# a model, and its refusal of a discrete bath after "distributional density: "
_REFUSALS = {
    "spectral_density": (lambda model: spectral_density(model, 1.0, 0.5),
                         "a discrete bath is a sum of delta functions and has no pointwise "
                         "value"),
    "noise_kernel_freq": (lambda model: noise_kernel_freq(_QUANTUM, model, 0.5),
                          "the discrete-bath noise kernel has no pointwise frequency value"),
    "noise_kernel_time": (lambda model: noise_kernel_time(_QUANTUM, model, [0.1, 0.2]),
                          "a discrete bath has no smooth noise kernel"),
    "colored_noise": (lambda model: colored_noise(NoiseSpec(kernel=model, w=1.0, dt=0.1, n=8,
                                                            seed=1)),
                      "discrete baths have no smooth spectrum"),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_discrete_and_unknown_models_are_refused_in_one_place(name):
    """kernels._continuous refuses for each: a discrete bath with a
    ValueError carrying the function's own text, any other object with one
    TypeError wording, which friction_kernel_time shares."""
    call, refusal = _REFUSALS[name]
    with pytest.raises(ValueError) as exc:
        call(_DISCRETE)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"distributional density: {refusal}"
    for func in (call, lambda model: friction_kernel_time(model, 1.0, 0.5)):
        with pytest.raises(TypeError) as exc:
            func("lorentzian")
        assert str(exc.value) == "unknown spectral density model: 'lorentzian'"


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
