"""Time-sliced functional determinants and analytically regularized trace-logs.

A first-order operator d/dt + c(t) sliced on N uniform intervals becomes a
lower-bidiagonal matrix; its determinant relative to the free operator d/dt
is the product of the normalized diagonal and depends on where the slicing
places the coefficient:

    retarded  (coefficient on the earlier point)  -> exactly 1 at any N
    advanced  (coefficient on the later point)    -> prod_n (1 + dt c_n)
    midpoint  (coefficient on the average)        -> prod_n (1 + dt c_n / 2)

so the continuum limits are 1, exp(Int c dt) and exp((1/2) Int c dt).

A second-order operator -d^2/dt^2 - gamma(t) d/dt - Omega^2(t) is factorized
into (d/dt + Omega_1)(d/dt + Omega_2) with Omega_1 + Omega_2 = gamma and
d/dt Omega_2 + Omega_1 Omega_2 = Omega^2 (a Riccati initial-value problem),
and the sliced first-order rule is applied to both factors.

The frequency-integral regularization uses Int (dw/2pi) log(w + i c) = |c|/2
per factor, with log(w) factors contributing zero; roots on the real axis
away from zero are not covered by the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernels import _positive, _require

__all__ = [
    "Scheme",
    "FirstOrderOp",
    "SecondOrderOp",
    "FactorizationError",
    "MarginalRootError",
    "first_order_det_ratio",
    "second_order_det_ratio",
    "trace_log_rate",
    "regularized_log_integral",
]


class Scheme(Enum):
    """Slicing placement of the coefficient within each time step."""

    RETARDED = "retarded"
    ADVANCED = "advanced"
    MIDPOINT = "midpoint"


class FactorizationError(ValueError):
    """No real first-order factorization exists (complex roots or blow-up)."""


class MarginalRootError(ValueError):
    """Root on the real axis away from zero; the regularization is undefined."""


def _node_samples(values, name: str) -> np.ndarray:
    """values as a float array of at least 3 finite node samples; else a
    ParameterError names the coefficient, name."""
    v = np.asarray(values, dtype=float)
    _require(v.ndim == 1 and v.size >= 3, name, "be a 1d array of at least 3 node samples")
    _require(np.all(np.isfinite(v)), name, "be finite at every node")
    return v


@dataclass(frozen=True)
class FirstOrderOp:
    """d/dt + c(t) with c sampled on the N+1 nodes of N uniform intervals."""

    c: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "c", _node_samples(self.c, "c"))
        _require(self.dt > 0, "dt", "be > 0")

    @property
    def n_steps(self) -> int:
        return self.c.size - 1


@dataclass(frozen=True)
class SecondOrderOp:
    """-d^2/dt^2 - gamma(t) d/dt - Omega^2(t) on N uniform intervals."""

    gamma: np.ndarray
    omega_sq: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _node_samples(self.gamma, "gamma"))
        object.__setattr__(self, "omega_sq", _node_samples(self.omega_sq, "omega_sq"))
        _require(self.gamma.size == self.omega_sq.size, "omega_sq",
                 "be sampled on the same nodes as gamma")
        _require(self.dt > 0, "dt", "be > 0")

    @property
    def n_steps(self) -> int:
        return self.gamma.size - 1


def _step_factors(op: FirstOrderOp, scheme: Scheme) -> np.ndarray:
    """Normalized diagonal of the sliced matrix, one factor per interval.

    Every scheme yields a lower-triangular matrix, so the determinant ratio
    against the free operator is exactly the product of these factors.
    """
    c = op.c
    if scheme is Scheme.RETARDED:
        # coefficient multiplies the earlier point: it lands on the
        # subdiagonal and the normalized diagonal stays one
        return np.ones(op.n_steps)
    if scheme is Scheme.ADVANCED:
        factors = 1.0 + op.dt * c[1:]
    elif scheme is Scheme.MIDPOINT:
        factors = 1.0 + 0.5 * op.dt * (0.5 * (c[:-1] + c[1:]))
    else:
        raise TypeError(f"unknown scheme: {scheme!r}")
    _require(not np.any(factors <= 0.0), "dt", "keep every diagonal factor 1 + dt c positive: "
             "the slicing step is too coarse")
    return factors


def first_order_det_ratio(op: FirstOrderOp, scheme: Scheme) -> float:
    """Det[d/dt + c(t)] / Det[d/dt] for the sliced operator."""
    return float(np.prod(_step_factors(op, scheme)))


def _riccati_rhs(omega_sq, gamma, z):
    return omega_sq - gamma * z + z * z


def second_order_det_ratio(op: SecondOrderOp, scheme: Scheme) -> float:
    """Det[-d^2/dt^2 - gamma d/dt - Omega^2] / Det[-d^2/dt^2] via factorization.

    Solves the Riccati problem for Omega_2 (starting from the smaller real
    root of z^2 - gamma z + Omega^2 at the initial time, integrated with RK4
    on linearly interpolated coefficients) and multiplies the sliced
    first-order ratios of both factors under the requested scheme.
    """
    g, osq, dt = op.gamma, op.omega_sq, op.dt
    disc = g[0] ** 2 - 4.0 * osq[0]
    if disc < 0.0:
        raise FactorizationError(
            "factorization singular: gamma^2 < 4 Omega^2 at the initial time, "
            "no real factorization exists"
        )
    n = op.n_steps
    z = np.empty(n + 1)
    z[0] = 0.5 * (g[0] - np.sqrt(disc))
    bound = 1e12 * max(1.0, float(np.max(np.abs(g))), float(np.sqrt(np.max(np.abs(osq)))))
    for k in range(n):
        gh = 0.5 * (g[k] + g[k + 1])
        oh = 0.5 * (osq[k] + osq[k + 1])
        k1 = _riccati_rhs(osq[k], g[k], z[k])
        k2 = _riccati_rhs(oh, gh, z[k] + 0.5 * dt * k1)
        k3 = _riccati_rhs(oh, gh, z[k] + 0.5 * dt * k2)
        k4 = _riccati_rhs(osq[k + 1], g[k + 1], z[k] + dt * k3)
        z[k + 1] = z[k] + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(z[k + 1]) or abs(z[k + 1]) > bound:
            raise FactorizationError(
                f"factorization singular: Riccati blow-up near t = {(k + 1) * dt:g}"
            )
    omega1 = g - z
    r1 = first_order_det_ratio(FirstOrderOp(omega1, dt), scheme)
    r2 = first_order_det_ratio(FirstOrderOp(z, dt), scheme)
    return r1 * r2


def _root_rates(coeffs, tol: float, name: str) -> float:
    """Sum of |Im r| / 2 over the roots r of the polynomial coeffs away from
    zero; coefficients that are all zero are refused, naming the polynomial."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    _require(coeffs.size > 0 and not np.all(coeffs == 0), name, "not be all zero")
    roots = np.roots(coeffs)
    if roots.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(roots))))
    total = 0.0
    for r in roots:
        if abs(r) <= tol * scale:
            continue  # log(w) factor, regularizes to zero
        if abs(r.imag) <= tol * abs(r):
            raise MarginalRootError(
                f"marginal root, regularization undefined: root {r} sits on the "
                "real axis away from zero"
            )
        total += 0.5 * abs(r.imag)
    return total


def trace_log_rate(numerator, denominator=None, tol: float = 1e-9) -> float:
    """Regularized rate Int (dw/2pi) log[num(w)/den(w)] of a rational
    characteristic function.

    Each root w = r of the numerator contributes +|Im r|/2, each denominator
    root -|Im r|/2, and roots at the origin contribute nothing. Invariant
    under rescaling either polynomial by a constant. Roots on the real axis
    away from zero raise MarginalRootError.
    """
    rate = _root_rates(numerator, tol, "numerator")
    if denominator is not None:
        rate -= _root_rates(denominator, tol, "denominator")
    return rate


def regularized_log_integral(gamma: float, mu: float) -> float:
    """Numerical check value Int (dw/2pi) (1/2) log[(w^2+gamma^2)/(w^2+mu^2)].

    A trapezoid sum in t = log w, step 1/4, over 40 e-folds beyond each rate;
    the regularization rule predicts (gamma - mu)/2. Raises RuntimeError unless
    the step-1/8 sum agrees to 1e-8 relative (a non-finite sum never does).
    """
    _positive("gamma", gamma)
    _positive("mu", mu)
    # odd under gamma <-> mu; log1p of a ratio >= 1 stays accurate near 1
    big, small = max(gamma, mu), min(gamma, mu)
    t0 = math.log(small) - 40.0
    n = math.ceil(4.0 * (math.log(big) + 40.0 - t0))
    w = np.exp(t0 + np.arange(2 * n + 1) / 8.0)
    with np.errstate(all="ignore"):  # an overflow shows in the check below
        f = np.log1p((big - small) * (big + small) / (w * w + small * small)) * w
        coarse = float(np.trapezoid(f[::2], dx=0.25)) / (2.0 * np.pi)
        fine = float(np.trapezoid(f, dx=0.125)) / (2.0 * np.pi)
    if not abs(coarse - fine) <= 1e-8 * max(1.0, abs(coarse)):
        raise RuntimeError(
            f"trapezoid sum did not converge: steps 1/4 and 1/8 give {coarse:g} and {fine:g}"
        )
    return coarse if gamma >= mu else -coarse
