"""Sliced determinant ratios: exactness, limits, regularized rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bathdyn import (
    FactorizationError,
    FirstOrderOp,
    MarginalRootError,
    Scheme,
    SecondOrderOp,
    first_order_det_ratio,
    regularized_log_integral,
    second_order_det_ratio,
    trace_log_rate,
)
from bathdyn.noise import derive_rng

E = math.e
E2 = math.exp(2.0)


def test_retarded_ratio_is_exactly_one():
    rng = derive_rng(7)
    for n in (64, 512, 4096):
        c = rng.uniform(-5.0, 5.0, n + 1)
        r = first_order_det_ratio(FirstOrderOp(c, 1.0 / n), Scheme.RETARDED)
        assert r == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.floats(1e-3, 1.0), st.data())
def test_retarded_ratios_are_one_bitwise_on_drawn_coefficients(n, t_total, data):
    """Retarded slicing puts every coefficient below the diagonal, so the
    first- and second-order ratios are 1.0 bit for bit, whatever the
    coefficients and N. gamma >= 1 and Omega^2 <= 1/4 keep the Riccati
    factorization real at every node."""

    def nodes(lo, hi):
        return data.draw(st.lists(st.floats(lo, hi), min_size=n + 1, max_size=n + 1))

    dt = t_total / n
    assert first_order_det_ratio(FirstOrderOp(nodes(-1e3, 1e3), dt), Scheme.RETARDED) == 1.0
    op2 = SecondOrderOp(nodes(1.0, 3.0), nodes(-1.0, 0.25), dt)
    assert second_order_det_ratio(op2, Scheme.RETARDED) == 1.0


def test_advanced_and_midpoint_limits():
    n = 10000
    c = np.full(n + 1, 2.0)
    adv = first_order_det_ratio(FirstOrderOp(c, 1.0 / n), Scheme.ADVANCED)
    mid = first_order_det_ratio(FirstOrderOp(c, 1.0 / n), Scheme.MIDPOINT)
    assert abs(adv / E2 - 1.0) < 1e-3
    assert abs(mid / E - 1.0) < 1e-3


def test_first_order_convergence_is_linear():
    errs = []
    for n in (500, 1000, 2000):
        c = np.full(n + 1, 2.0)
        adv = first_order_det_ratio(FirstOrderOp(c, 1.0 / n), Scheme.ADVANCED)
        errs.append(abs(adv / E2 - 1.0))
    assert 0.9 < math.log2(errs[0] / errs[1]) < 1.1
    assert 0.9 < math.log2(errs[1] / errs[2]) < 1.1


def test_first_order_varying_coefficient():
    # c(t) = t on [0, 1]: advanced limit e^{1/2}, midpoint e^{1/4}
    n = 20000
    t = np.linspace(0.0, 1.0, n + 1)
    adv = first_order_det_ratio(FirstOrderOp(t, 1.0 / n), Scheme.ADVANCED)
    mid = first_order_det_ratio(FirstOrderOp(t, 1.0 / n), Scheme.MIDPOINT)
    assert abs(adv - math.exp(0.5)) < 1e-4
    assert abs(mid - math.exp(0.25)) < 1e-4


def test_first_order_op_validation():
    with pytest.raises(ValueError):
        FirstOrderOp(np.array([1.0, 2.0]), 0.1)  # too few nodes
    with pytest.raises(ValueError):
        FirstOrderOp(np.array([1.0, 2.0, 3.0]), 0.0)


def test_coarse_slicing_raises():
    c = np.full(11, -25.0)
    with pytest.raises(ValueError, match="too coarse"):
        first_order_det_ratio(FirstOrderOp(c, 0.1), Scheme.ADVANCED)


def test_second_order_retarded_exact_and_limits():
    n = 10000
    g = np.full(n + 1, 2.0)
    osq = np.full(n + 1, 0.16)
    op = SecondOrderOp(g, osq, 1.0 / n)
    assert second_order_det_ratio(op, Scheme.RETARDED) == 1.0
    adv = second_order_det_ratio(op, Scheme.ADVANCED)
    mid = second_order_det_ratio(op, Scheme.MIDPOINT)
    assert abs(adv / E2 - 1.0) < 1e-3
    assert abs(mid / E - 1.0) < 1e-3


def test_second_order_needs_real_factorization():
    n = 100
    g = np.full(n + 1, 1.0)
    osq = np.full(n + 1, 4.0)  # gamma^2 < 4 Omega^2: underdamped
    with pytest.raises(FactorizationError):
        second_order_det_ratio(SecondOrderOp(g, osq, 0.01), Scheme.ADVANCED)


def test_trace_log_rate_known_roots():
    # w^2 + g^2 has roots +-i g, each contributing |Im|/2
    assert abs(trace_log_rate([1.0, 0.0, 4.0]) - 2.0) < 1e-12
    assert abs(trace_log_rate([1.0, 0.0, 9.0], [1.0, 0.0, 1.0]) - 2.0) < 1e-12
    # roots at the origin contribute nothing
    assert abs(trace_log_rate([1.0, 1.0j, 0.0]) - 0.5) < 1e-12
    # rescaling either polynomial changes nothing
    a = trace_log_rate([2.0, 0.0, 8.0], [3.0, 0.0, 3.0])
    b = trace_log_rate([1.0, 0.0, 4.0], [1.0, 0.0, 1.0])
    assert abs(a - b) < 1e-12


def test_trace_log_rate_drude_combination_vanishes():
    g, om_d = 2.0, 200.0
    rate = trace_log_rate([1.0, 1j * om_d, -g * om_d], [1.0, 1j * om_d])
    assert abs(rate) < 1e-3 * g


def test_trace_log_rate_marginal_root():
    with pytest.raises(MarginalRootError):
        trace_log_rate([1.0, 0.0, -1.0])  # roots +-1 on the real axis
    with pytest.raises(ValueError):
        trace_log_rate([0.0, 0.0])


def test_regularized_log_integral_matches_rule():
    for g, mu in ((3.0, 1.0), (5.0, 1.0), (2.0, 0.5)):
        val = regularized_log_integral(g, mu)
        assert abs(val - (g - mu) / 2.0) <= 1e-6
    for g, mu in ((-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            regularized_log_integral(g, mu)


_LOG_RATE = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(_LOG_RATE, _LOG_RATE)
def test_regularized_log_integral_on_random_rates(g, mu):
    """The trapezoid sum gives (gamma - mu)/2 to roundoff for rates drawn
    log-uniformly from [1e-3, 1e3], on either side of each other."""
    val = regularized_log_integral(g, mu)
    assert abs(val - (g - mu) / 2.0) <= 1e-12 * max(1.0, g, mu)


@pytest.mark.parametrize("g, mu", [(1e200, 1.0), (1.0, 1e200)])
def test_regularized_log_integral_overflow_raises(g, mu):
    """gamma^2 overflows: the non-finite sums raise instead of returning inf
    or NaN."""
    with pytest.raises(RuntimeError, match="did not converge"):
        regularized_log_integral(g, mu)
