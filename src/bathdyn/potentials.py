"""Potentials with exact value, gradient, and curvature, vectorized over x."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Potential", "Harmonic", "DoubleWell", "Polynomial"]


class Potential:
    """Interface: value(x), grad(x), hess(x) accept scalars or arrays."""

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(x) = (1/2) M omega0^2 x^2."""

    mass: float
    omega0: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be > 0")
        if not self.omega0 > 0:
            raise ValueError("omega0 must be > 0")

    @property
    def k(self) -> float:
        return self.mass * self.omega0 ** 2

    def value(self, x):
        return 0.5 * self.k * np.asarray(x, dtype=float) ** 2

    def grad(self, x):
        return self.k * np.asarray(x, dtype=float)

    def hess(self, x):
        return self.k * np.ones_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DoubleWell(Potential):
    """V(x) = a x^2 + b x^4 with b > 0 (a < 0 gives two wells)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("quartic coefficient b must be > 0")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.a * x ** 2 + self.b * x ** 4

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.a * x + 4.0 * self.b * (x * x * x)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * self.a + 12.0 * self.b * x ** 2


@dataclass(frozen=True)
class Polynomial(Potential):
    """V(x) = sum_k coeffs[k] x^k, coefficients in ascending order."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        if len(c) == 0:
            raise ValueError("coeffs must not be empty")
        object.__setattr__(self, "coeffs", c)

    def value(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)

    def grad(self, x):
        d1 = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), d1)

    def hess(self, x):
        d2 = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), d2)
