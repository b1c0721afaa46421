"""Noise synthesis: seeding, white and colored statistics, error contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bathdyn import (
    Drude,
    NoiseSpec,
    Ohmic,
    ParameterError,
    colored_noise,
    derive_rng,
    estimate_autocorr,
    white_noise,
)
from bathdyn.noise import lagged_products


def test_derive_rng_is_deterministic_and_splits():
    a = derive_rng(42).standard_normal(8)
    b = derive_rng(42).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = derive_rng(42, 0).standard_normal(8)
    d = derive_rng(42, 1).standard_normal(8)
    assert not np.array_equal(c, d)
    assert not np.array_equal(a, c)  # master stream differs from children


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kernel=None, w=-1.0, dt=0.1, n=10, seed=1)
    with pytest.raises(ValueError):
        NoiseSpec(kernel=None, w=1.0, dt=0.0, n=10, seed=1)
    with pytest.raises(ValueError):
        NoiseSpec(kernel=None, w=1.0, dt=0.1, n=1, seed=1)


@pytest.mark.parametrize("kernel, dt", [(None, 1e-320), (Drude(1.0, 5.0), 1e-300),
                                        (Drude(1.0, 5.0), 1e-320)],
                         ids=["white-1e-320", "drude-1e-300", "drude-1e-320"])
def test_dt_whose_rates_leave_the_float_range_is_refused_by_name(kernel, dt):
    """white_noise at dt = 1e-320 returned +-inf samples with no warning;
    colored_noise at 1e-300 raised a ParameterError named omega, no field of
    NoiseSpec, and at 1e-320 printed numpy's "invalid value encountered in
    multiply" (an error under the suite's warnings filter). The spec now
    refuses dt by name before any draw; the runs at the edges' admitted
    sides draw finite samples."""
    with pytest.raises(ParameterError) as exc:
        NoiseSpec(kernel=kernel, w=1.0, dt=dt, n=16, seed=1)
    assert exc.value.name == "dt"
    draw, admitted = (white_noise, 1e-300) if kernel is None else (colored_noise, 1e-150)
    traj = draw(NoiseSpec(kernel=kernel, w=1.0, dt=admitted, n=16, seed=1))
    assert np.all(np.isfinite(traj.samples))


def test_white_noise_variance_and_reproducibility():
    spec = NoiseSpec(kernel=None, w=2.0, dt=0.01, n=100000, seed=11)
    traj = white_noise(spec)
    assert traj.samples.shape == (spec.n,)
    var = float(np.var(traj.samples))
    assert abs(var / (spec.w / spec.dt) - 1.0) < 0.02
    again = white_noise(spec)
    np.testing.assert_array_equal(traj.samples, again.samples)
    # time axis
    assert traj.times[1] - traj.times[0] == spec.dt
    with pytest.raises(ValueError):
        white_noise(NoiseSpec(kernel=Drude(1.0, 5.0), w=1.0, dt=0.1, n=10, seed=1))


def test_colored_noise_autocovariance():
    """Sampled covariance matches w K(t) for the classical memory kernel."""
    om_d = 4.0
    spec = NoiseSpec(kernel=Drude(gamma=1.0, omega_d=om_d), w=2.0, dt=0.01,
                     n=200000, seed=5)
    traj = colored_noise(spec)
    acov = estimate_autocorr(traj, 100)
    c0_target = spec.w * om_d / 2.0  # w K(0) with K(t) = (om_d/2) e^{-om_d|t|}
    assert abs(acov[0] / c0_target - 1.0) < 0.05
    lags = np.arange(101) * spec.dt
    target = np.exp(-om_d * lags)
    np.testing.assert_allclose(acov / acov[0], target, atol=0.05)


def test_colored_noise_reproducible():
    spec = NoiseSpec(kernel=Drude(gamma=1.0, omega_d=5.0), w=1.0, dt=0.02,
                     n=4096, seed=99)
    a = colored_noise(spec).samples
    b = colored_noise(spec).samples
    np.testing.assert_array_equal(a, b)


def test_colored_noise_error_contracts():
    with pytest.raises(ValueError, match="white_noise"):
        colored_noise(NoiseSpec(kernel=None, w=1.0, dt=0.1, n=16, seed=1))
    with pytest.raises(ValueError, match="Drude"):
        colored_noise(NoiseSpec(kernel=Ohmic(gamma=1.0), w=1.0, dt=0.1,
                                n=16, seed=1))


def test_estimate_autocorr_guards():
    spec = NoiseSpec(kernel=None, w=1.0, dt=0.1, n=100, seed=3)
    traj = white_noise(spec)
    with pytest.raises(ValueError):
        estimate_autocorr(traj, 50)  # more than a tenth of the record
    acov = estimate_autocorr(traj, 5)
    assert acov.shape == (6,)
    # white noise: off-zero lags small compared to lag zero
    assert abs(acov[0]) > 5.0 * max(abs(acov[1]), abs(acov[2]))


@st.composite
def _series_and_lag(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 40))
    series = draw(arrays(float, (rows, cols), elements=st.floats(-1e3, 1e3)))
    return series, draw(st.integers(0, cols - 1))


@settings(max_examples=80, deadline=None)
@given(_series_and_lag())
def test_lagged_products_match_a_naive_per_lag_mean(case):
    series, max_lag = case
    rows, cols = series.shape
    out = lagged_products(series, max_lag)
    assert out.shape == (max_lag + 1,)
    for k in range(max_lag + 1):
        prods = [float(series[i, t] * series[i, t + k])
                 for i in range(rows) for t in range(cols - k)]
        naive = math.fsum(prods) / len(prods)
        scale = math.fsum(abs(p) for p in prods) / len(prods)
        assert abs(out[k] - naive) <= 1e-13 * scale


def test_lagged_products_without_rows_are_nan():
    assert np.isnan(lagged_products(np.empty((0, 10)), 3)).all()
