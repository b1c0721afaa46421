"""Potential classes: closed forms, derivative consistency, validation."""

import numpy as np
import pytest

from bathdyn import DoubleWell, Harmonic, Polynomial, Potential
from bathdyn.noise import derive_rng


def _fd_grad(pot, x, h=1e-6):
    return (np.asarray(pot.value(x + h)) - np.asarray(pot.value(x - h))) / (2 * h)


def _fd_hess(pot, x, h=1e-5):
    return (np.asarray(pot.grad(x + h)) - np.asarray(pot.grad(x - h))) / (2 * h)


def test_harmonic_closed_forms():
    pot = Harmonic(mass=2.0, omega0=3.0)
    assert pot.k == 18.0
    assert pot.value(2.0) == 0.5 * 18.0 * 4.0
    assert pot.grad(2.0) == 18.0 * 2.0
    x = np.array([-1.0, 0.0, 0.5])
    np.testing.assert_allclose(pot.hess(x), 18.0 * np.ones(3), rtol=0)


def test_double_well_shape():
    pot = DoubleWell(a=-1.0, b=0.25)
    # minima at x^2 = -a/2b = 2
    xm = np.sqrt(2.0)
    assert abs(pot.grad(xm)) < 1e-14
    assert pot.value(xm) < pot.value(0.0)
    assert pot.hess(0.0) == -2.0
    with pytest.raises(ValueError):
        DoubleWell(a=-1.0, b=0.0)


def test_double_well_grad_matches_the_power_form():
    # the cube is taken by multiplication; against the closed form with the
    # power operator it may differ by a few ulp of the larger term's size
    rng = derive_rng(23)
    for _ in range(50):
        pot = DoubleWell(a=rng.uniform(-5.0, 5.0), b=rng.uniform(1e-3, 5.0))
        x = rng.uniform(-4.0, 4.0, 1000) * 10.0 ** rng.uniform(-3.0, 2.0)
        linear, cubic = 2.0 * pot.a * x, 4.0 * pot.b * x ** 3
        ulp = np.spacing(np.abs(linear) + np.abs(cubic))
        assert np.all(np.abs(pot.grad(x) - (linear + cubic)) <= 4 * ulp)
    # on small integers both cubes are exact, so the gradients are equal
    pot = DoubleWell(a=-1.3, b=0.7)
    x = np.arange(-1000.0, 1001.0)
    assert np.array_equal(pot.grad(x), 2.0 * pot.a * x + 4.0 * pot.b * x ** 3)


def test_polynomial_matches_harmonic():
    pot = Polynomial(coeffs=(0.0, 0.0, 9.0))  # 9 x^2
    h = Harmonic(mass=2.0, omega0=3.0)  # k = 18, V = 9 x^2
    x = np.linspace(-2.0, 2.0, 21)
    np.testing.assert_allclose(pot.value(x), h.value(x), rtol=1e-15)
    np.testing.assert_allclose(pot.grad(x), h.grad(x), rtol=1e-15)
    np.testing.assert_allclose(pot.hess(x), h.hess(x), rtol=1e-15)


def test_gradients_match_finite_differences():
    rng = derive_rng(17)
    pots = (
        Harmonic(mass=1.0, omega0=2.0),
        DoubleWell(a=-1.5, b=0.3),
        Polynomial(coeffs=(0.5, -1.0, 0.0, 0.25, 0.1)),
    )
    x = rng.uniform(-2.0, 2.0, 100)
    for pot in pots:
        scale = np.maximum(1.0, np.abs(np.asarray(pot.grad(x))))
        assert np.max(np.abs(np.asarray(pot.grad(x)) - _fd_grad(pot, x)) / scale) < 1e-6
        scale = np.maximum(1.0, np.abs(np.asarray(pot.hess(x))))
        assert np.max(np.abs(np.asarray(pot.hess(x)) - _fd_hess(pot, x)) / scale) < 1e-4


def test_vectorization_shapes():
    pot = DoubleWell(a=-1.0, b=0.5)
    x = np.ones((3, 4))
    assert np.asarray(pot.value(x)).shape == (3, 4)
    assert np.asarray(pot.grad(x)).shape == (3, 4)
    assert np.asarray(pot.hess(x)).shape == (3, 4)


def test_base_class_is_abstract():
    base = Potential()
    for method in (base.value, base.grad, base.hess):
        with pytest.raises(NotImplementedError):
            method(0.0)


def test_validation():
    with pytest.raises(ValueError):
        Harmonic(mass=-1.0, omega0=1.0)
    with pytest.raises(ValueError):
        Harmonic(mass=1.0, omega0=0.0)
    with pytest.raises(ValueError):
        Polynomial(coeffs=())
