"""Gaussian noise generation with prescribed correlation <eta eta> = w K.

White noise is an iid normal sequence of variance w/dt (the delta function
discretized as delta_nm / dt). Colored noise with the classical Drude kernel
is synthesized by circulant spectral factorization: mode amplitudes
proportional to sqrt(w K(omega_k)) on a grid padded to twice the requested
length so wrap-around correlation is suppressed; alias images
K(omega + 2 pi m / dt), |m| <= 3, are folded into the mode powers so the
lag-0 covariance reproduces w K(0) without a Nyquist deficit.

Seeding: streams derive from numpy SeedSequence with the master seed as
entropy and a stream index as spawn key. Langevin ensembles use one stream per
fixed block of trajectories (the index is the block number; see langevin), so
blocks are order-independent and parallelizable, and every draw is
reproducible for a fixed numpy generation (PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Ohmic, SpectralDensity, _continuous, _kernel_shape_freq, _require

__all__ = [
    "NoiseSpec",
    "NoiseTrajectory",
    "derive_rng",
    "white_noise",
    "colored_noise",
    "estimate_autocorr",
]


def derive_rng(master_seed: int, index: int | None = None) -> np.random.Generator:
    """Generator for the master stream, or for derived stream `index`.

    Langevin ensembles pass a block number as `index`: each fixed block of
    trajectories (langevin._BLOCK of them) draws from one generator.
    """
    if index is None:
        ss = np.random.SeedSequence(entropy=master_seed)
    else:
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class NoiseSpec:
    """Recipe for one noise trajectory.

    kernel None means white noise; a Drude model selects the classical
    colored kernel. w >= 0 scales the correlation <eta eta> = w K; the
    temperature enters only through w = 2 M gamma k_bt. dt must be finite
    and > 0 with a finite variance w / dt and, for colored noise, a finite
    square of the largest folded frequency 7 pi / dt, which the Lorentzian
    takes; else a ParameterError names dt, before any draw.
    """

    kernel: SpectralDensity | None
    w: float
    dt: float
    n: int
    seed: int

    def __post_init__(self):
        w, dt = float(self.w), float(self.dt)
        if not 0.0 <= w < math.inf:
            raise ValueError("w must be finite and >= 0")
        top = 7.0 * math.pi / dt if dt > 0 else math.nan  # the largest folded frequency
        _require(0.0 < dt < math.inf and w / dt < math.inf
                 and (self.kernel is None or top * top < math.inf), "dt",
                 "be finite and > 0 with a finite variance w / dt and, for colored noise, "
                 f"a finite square of the largest folded frequency 7 pi / dt (got {dt:g})")
        if not self.n >= 2:
            raise ValueError("n must be >= 2")


@dataclass(frozen=True)
class NoiseTrajectory:
    """Sampled noise sequence together with the spec that produced it."""

    samples: np.ndarray
    spec: NoiseSpec

    @property
    def times(self) -> np.ndarray:
        return self.spec.dt * np.arange(self.spec.n)


def white_noise(spec: NoiseSpec) -> NoiseTrajectory:
    """iid N(0, w/dt) sequence of length n from the seeded stream."""
    if spec.kernel is not None:
        raise ValueError("white_noise requires spec.kernel = None")
    rng = derive_rng(spec.seed)
    samples = rng.standard_normal(spec.n) * np.sqrt(spec.w / spec.dt)
    return NoiseTrajectory(samples=samples, spec=spec)


def colored_noise(spec: NoiseSpec) -> NoiseTrajectory:
    """Stationary Gaussian sequence with spectrum w K(omega), classical Drude only."""
    model = spec.kernel
    if model is None:
        raise ValueError("colored_noise requires a kernel model; use white_noise for None")
    if isinstance(_continuous(model, "discrete baths have no smooth spectrum"), Ohmic):
        raise ValueError(
            "needs a Drude cutoff: the Ohmic kernel synthesizes white noise; "
            "use white_noise"
        )
    m = 2 * spec.n  # padding suppresses wrap-around correlation
    omega = 2.0 * np.pi * np.fft.fftfreq(m, spec.dt)
    power = np.zeros(m)
    for fold in range(-3, 4):
        power += _kernel_shape_freq(model, omega + fold * 2.0 * np.pi / spec.dt)
    power *= spec.w / spec.dt
    rng = derive_rng(spec.seed)
    half = m // 2
    re = rng.standard_normal(half + 1)
    im = rng.standard_normal(half + 1)
    amp = np.sqrt(power[: half + 1] / m)
    coef = amp * (re + 1j * im) / np.sqrt(2.0)
    coef[0] = amp[0] * re[0]  # DC and Nyquist modes are real
    coef[half] = amp[half] * re[half]
    samples = m * np.fft.irfft(coef, n=m)
    return NoiseTrajectory(samples=samples[: spec.n].copy(), spec=spec)


def estimate_autocorr(traj: NoiseTrajectory, max_lag: int) -> np.ndarray:
    """Autocovariance estimate c(k) = mean(eta_n eta_{n+k}), k = 0..max_lag.

    Unbiased lagged products without mean removal; max_lag must stay below
    a tenth of the record so every lag keeps ample averaging.
    """
    x = np.asarray(traj.samples, dtype=float)
    n = x.size
    if not 0 <= max_lag < n / 10:
        raise ValueError("max_lag must satisfy 0 <= max_lag < n/10")
    return lagged_products(x[None, :], max_lag)


def lagged_products(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Mean of series[i, t] * series[i, t + k] over rows i and times t, k = 0..max_lag.

    Direct lagged products, no mean removal; all NaN when series has no rows.
    Each lag's product fills one reused C-contiguous buffer, like a fresh one.
    """
    out = np.full(max_lag + 1, np.nan)
    rows, n = series.shape
    flat = np.empty(rows * n)
    for k in range(max_lag + 1 if rows else 0):
        prod = flat[: rows * (n - k)].reshape(rows, n - k)
        out[k] = np.mean(np.multiply(series[:, : n - k], series[:, k:], out=prod))
    return out
