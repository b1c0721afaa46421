"""Bath kernels for a particle coupled to a harmonic-oscillator reservoir.

Spectral densities (Ohmic, Drude, discrete oscillator lists) and the kernels
built from them: the retarded friction kernel in time and frequency, the
normalized noise kernel K in frequency and time, oscillator correlators, the
bath-induced frequency shift, and the finite-temperature oscillator Green
function.

Conventions: k_B is absorbed into the thermal energy k_bt, hbar is settable
(0 selects the classical limit), frequency transforms use
f(w) = Int dt f(t) exp(+i w t), and the kernel normalization is K(w=0) = 1
so the time kernel has unit area.

All functions are pure; models and parameter bundles are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Ohmic",
    "Drude",
    "Oscillator",
    "DiscreteBath",
    "SpectralDensity",
    "BathParams",
    "KernelSamples",
    "xcoth",
    "hbar_coth",
    "spectral_density",
    "friction_kernel_time",
    "friction_kernel_freq",
    "noise_kernel_freq",
    "noise_kernel_time",
    "bath_correlators",
    "freq_shift",
    "thermal_green",
    "ParameterError",
]


class ParameterError(ValueError):
    """A refused argument: `name` is the parameter and the message reads
    "<name> must <text>"."""

    def __init__(self, name: str, text: str):
        super().__init__(f"{name} must {text}")
        self.name, self.text = name, text


@dataclass(frozen=True)
class Ohmic:
    """Strictly Ohmic spectral density, sigma(w) = 2 M gamma w."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")


@dataclass(frozen=True)
class Drude:
    """Drude-regularized Ohmic density, sigma(w) = 2 M gamma w * wD^2/(wD^2+w^2)."""

    gamma: float
    omega_d: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.omega_d > 0:
            raise ValueError("omega_d must be > 0")


@dataclass(frozen=True)
class Oscillator:
    """One reservoir mode: coupling c, mass, frequency omega > 0."""

    c: float
    mass: float
    omega: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("oscillator mass must be > 0")
        if not self.omega > 0:
            raise ValueError("massless bath mode: oscillator frequency must be > 0")


@dataclass(frozen=True)
class DiscreteBath:
    """Finite list of reservoir oscillators; the density is a sum of deltas."""

    oscillators: tuple[Oscillator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "oscillators", tuple(self.oscillators))


SpectralDensity = Union[Ohmic, Drude, DiscreteBath]


@dataclass(frozen=True)
class BathParams:
    """System-plus-bath parameters.

    mass, gamma, k_bt strictly positive; hbar >= 0 (0 = classical limit);
    omega_d optional Drude cutoff (> 0 when given).

    Derived: w = 2 M gamma k_bt (noise strength), D = k_bt / (M gamma)
    (spatial diffusion constant). They satisfy w = 2 gamma^2 M^2 D.
    """

    mass: float
    gamma: float
    k_bt: float
    hbar: float
    omega_d: float | None = None

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be > 0")
        if not self.gamma > 0:
            raise ValueError("gamma must be > 0")
        if not self.k_bt > 0:
            raise ValueError("k_bt must be > 0")
        if self.hbar < 0:
            raise ValueError("hbar must be >= 0")
        if self.omega_d is not None and not self.omega_d > 0:
            raise ValueError("omega_d must be > 0 when given")

    @property
    def w(self) -> float:
        """Noise strength w = 2 M gamma k_bt."""
        return 2.0 * self.mass * self.gamma * self.k_bt

    @property
    def D(self) -> float:
        """Einstein diffusion constant D = k_bt / (M gamma)."""
        return self.k_bt / (self.mass * self.gamma)


@dataclass(frozen=True)
class KernelSamples:
    """Noise kernel sampled on a uniform time grid.

    area is the trapezoid integral over the grid (1 for a complete grid);
    short_grid flags grids capturing less than 1 - 1e-4 of the unit area.
    """

    t_grid: np.ndarray
    values: np.ndarray
    dt: float
    area: float
    short_grid: bool

    def __post_init__(self):
        t, _ = _time_grid(self.t_grid)
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("kernel values must be finite")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)


def _time_grid(t_grid) -> tuple[np.ndarray, float]:
    """t_grid as a float array and its step, if 1-D and uniformly increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1d array with at least 2 points")
    steps = np.diff(t)
    if not steps[0] > 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be uniformly increasing")
    return t, float(steps[0])


def _scalar_or_array(out: np.ndarray, kind=float):
    """A 0-d result as a Python scalar of the given kind; an array as it is."""
    return kind(out) if out.ndim == 0 else out


def xcoth(x):
    """x * coth(x), the thermal weight factor; equals 1 at x = 0.

    Series 1 + x^2/3 - x^4/45 below |x| = 1e-3 avoids the 0/0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-3
    xs = x[small]
    out[small] = 1.0 + xs * xs / 3.0 - xs ** 4 / 45.0
    xl = x[~small]
    out[~small] = xl / np.tanh(xl)
    return _scalar_or_array(out)


def hbar_coth(hbar: float, k_bt: float, omega: float) -> float:
    """Thermal average hbar * coth(hbar omega / 2 k_bt) for an oscillator.

    Classical limit (hbar = 0) gives 2 k_bt / omega. Both hbar and k_bt zero
    is the degenerate case with no scale left.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    if hbar == 0.0 and k_bt == 0.0:
        raise ValueError("degenerate classical ground state: hbar = 0 and k_bt = 0")
    if k_bt == 0.0:
        return hbar  # ground state, coth -> 1
    return (2.0 * k_bt / omega) * xcoth(hbar * omega / (2.0 * k_bt))


def _continuous(model: SpectralDensity, refusal: str) -> Ohmic | Drude:
    """model as it is if it is Ohmic or Drude, a continuum limit of the bath
    with a pointwise density. A DiscreteBath, a sum of delta functions, has
    no pointwise density or smooth kernel and raises ValueError
    "distributional density: <refusal>"; any other object raises TypeError."""
    if isinstance(model, DiscreteBath):
        raise ValueError(f"distributional density: {refusal}")
    if not isinstance(model, (Ohmic, Drude)):
        raise _unknown(model)
    return model


def _unknown(model) -> TypeError:
    """The error for an object that is no spectral density model."""
    return TypeError(f"unknown spectral density model: {model!r}")


def spectral_density(model: SpectralDensity, mass: float, omega):
    """Antisymmetric bath spectral density sigma(w) for system mass `mass`.

    Pointwise evaluation is defined for Ohmic and Drude; a discrete bath is a
    sum of delta functions and has no pointwise value.
    """
    omega = np.asarray(omega, dtype=float)
    model = _continuous(model, "a discrete bath is a sum of delta functions and has no "
                        "pointwise value")
    out = 2.0 * mass * model.gamma * omega
    if isinstance(model, Drude):
        out = out * model.omega_d ** 2 / (model.omega_d ** 2 + omega ** 2)
    return _scalar_or_array(out)


def friction_kernel_time(model: SpectralDensity, mass: float, t):
    """Retarded friction kernel gamma(t); zero for t < 0.

    Drude: Theta(t) gamma omega_d exp(-omega_d t).
    Discrete: Theta(t) (1/M) sum_i c_i^2 cos(Omega_i t) / (M_i Omega_i^2).
    The strictly Ohmic kernel is 2 gamma delta(t) and has no pointwise value
    at t >= 0.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(model, Ohmic):
        if np.any(t >= 0):
            raise ValueError(
                "distributional kernel: the Ohmic friction kernel is "
                "2 gamma delta(t); only t < 0 has a pointwise value (0)"
            )
        out = np.zeros_like(t)
    elif isinstance(model, Drude):
        out = np.where(
            t >= 0.0, model.gamma * model.omega_d * np.exp(-model.omega_d * np.maximum(t, 0.0)), 0.0
        )
    elif isinstance(model, DiscreteBath):
        out = np.zeros_like(t)
        for osc in model.oscillators:
            out = out + (osc.c ** 2 / (osc.mass * osc.omega ** 2)) * np.cos(osc.omega * t)
        out = np.where(t >= 0.0, out / mass, 0.0)
    else:
        raise _unknown(model)
    return _scalar_or_array(out)


def friction_kernel_freq(model: Drude, omega):
    """Drude friction kernel in frequency, gamma(w) = gamma i omega_d / (w + i omega_d).

    The pole sits in the lower half-plane (retarded response). Fourier partner
    of friction_kernel_time under f(w) = Int dt f(t) exp(+i w t).
    """
    if not isinstance(model, Drude):
        raise ValueError("friction_kernel_freq requires a Drude model")
    omega = np.asarray(omega, dtype=float)
    out = model.gamma * 1j * model.omega_d / (omega + 1j * model.omega_d)
    return _scalar_or_array(out, complex)


def _kernel_shape_freq(model: SpectralDensity, omega):
    """Dimensionless spectral shape sigma(w) / (2 M gamma w): 1 or a Lorentzian."""
    omega = np.asarray(omega, dtype=float)
    if isinstance(_continuous(model, "the discrete-bath noise kernel has no pointwise "
                              "frequency value"), Ohmic):
        return np.ones_like(omega)
    return model.omega_d ** 2 / (model.omega_d ** 2 + omega ** 2)


def noise_kernel_freq(params: BathParams, model: SpectralDensity, omega):
    """Normalized noise kernel K(w) = [sigma(w)/(2 M gamma w)] * x coth x,
    x = hbar w / (2 k_bt).

    K(0) = 1 exactly for every variant. hbar = 0 drops the quantum weight and
    leaves the classical shape (1 for Ohmic, the Drude Lorentzian otherwise).
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    shape = _kernel_shape_freq(model, omega)
    if params.hbar == 0.0:
        out = shape * np.ones_like(omega)
    else:
        out = shape * xcoth(params.hbar * omega / (2.0 * params.k_bt))
    return _scalar_or_array(out)


# largest roundoff, relative to the kernel scale omega_d^2 / nu1, that the
# quantum Drude kernel's cancelling pole pair may carry (_pole_roundoff)
_POLE_TOL = 1e-9


def _pole_roundoff(omega_d: float, nu1: float) -> float:
    """Bound on the roundoff of the quantum Drude kernel's pole pair, relative
    to its scale omega_d^2 / nu1 (the log term's weight), for r = omega_d / nu1
    at distance delta from the nearest integer N; 0 when N = 0, where c_D has
    no pole.

    Near r = N, c_D = (omega_d/2) pi r cot(pi r) and the series term n = N
    are each about omega_d r / 2 delta in size and cancel to a finite sum.
    With u = eps / 2 and s = sin^2(pi delta): c_D's argument pi r carries up
    to 3 u pi r of roundoff (the division, pi and the product), which cot's
    slope 1 / s turns into 1.5 pi^2 u r / s of the scale; the series term's
    nu_N^2 - omega_d^2 carries 4 u omega_d^2 on a difference of 2 omega_d^2
    |delta| / r, pi^2 u r / s of the scale. Their sum, 1.25 pi^2 eps r / s, is
    returned: infinite where s = 0, at an exact multiple and above r = 2^53,
    where no fractional part survives, and above 1e-9 for every r beyond
    3.7e5. Against 40-digit values of the closed form (tools/drude_reference.py)
    at omega_d |t| = 0.01 and 0.1, on 96 drawn r up to 1000.5, the error
    stayed below 0.3 of the bound wherever the bound exceeds 1e-11, and every
    r the bound admits within 5e-11 relative."""
    ratio = omega_d / nu1
    n = round(ratio)
    if n < 1:
        return 0.0
    s = math.sin(math.pi * (ratio - n)) ** 2
    return 1.25 * math.pi ** 2 * float(np.finfo(float).eps) * ratio / s if s > 0 else math.inf


# most terms of the quantum Drude kernel's residual series that a run sums
_SERIES_CAP = 2_000_000


def _series_terms(omega_d: float, nu1: float, t_min: float) -> tuple[int, int]:
    """The terms of the quantum Drude kernel's residual series: (the count
    whose 1/n^3 tail stays below 1e-9 of the kernel scale, the exponential
    cut-off at the smallest |t|, t_min). It sums the smaller count; one above
    _SERIES_CAP is refused."""
    tail_tol = 1e-9 * max(1.0, 0.5 * omega_d)
    n_tail = int(np.ceil(np.sqrt(omega_d ** 4 / (2.0 * nu1 ** 3 * tail_tol)))) + 1
    # terms beyond nu_n * t_min = 45 are below 3e-20
    return n_tail, int(np.ceil(45.0 / (nu1 * t_min))) + 1


def _quantum_terms(omega_d: float, nu1: float, t_min: float) -> int:
    """The count of residual-series terms that the quantum Drude kernel sums
    for r = omega_d / nu1 on a t_grid whose smallest |t| is t_min: the
    smaller of _series_terms' counts, at least 8. Raises ParameterError for
    an omega_d in the pole band, whose _pole_roundoff exceeds _POLE_TOL, and
    for a t_grid whose series needs more than _SERIES_CAP terms."""
    bound = _pole_roundoff(omega_d, nu1)
    if bound > _POLE_TOL:
        raise ParameterError("omega_d", f"keep r = omega_d / nu1 = {omega_d / nu1:.10g} out of "
                             "the pole band, where the kernel's pole-pair roundoff exceeds "
                             f"{_POLE_TOL:g} (got {bound:.3g})")
    n_tail, n_cut = _series_terms(omega_d, nu1, t_min)
    if min(n_tail, n_cut) > _SERIES_CAP:
        raise ParameterError("t_grid", "keep the quantum kernel's thermal series within "
                             f"{_SERIES_CAP:,} terms: its tail needs {n_tail:,} and the "
                             f"smallest |t| = {t_min:.6g} cuts it at {n_cut:,}")
    return max(8, min(n_tail, n_cut))


def _drude_time_kernel(omega_d: float, hbar: float, k_bt: float, abs_t: np.ndarray):
    """Exact inversion of the Drude K(w) as a sum of decaying exponentials.

    K(t) = c_D exp(-omega_d|t|) - (omega_d^2/nu_1) log(1 - exp(-nu_1|t|))
           + sum_n omega_d^4 / (nu_n (nu_n^2 - omega_d^2)) exp(-nu_n|t|)

    with nu_n = 2 pi n k_bt / hbar and c_D = (omega_d/2) x_D cot(x_D),
    x_D = hbar omega_d / (2 k_bt). The 1/n part of the thermal series is the
    log term; the remaining series falls off like 1/n^3 and is truncated with
    an absolute tail below 1e-9 of the kernel scale, or where its terms fall
    below 3e-20 at the smallest |t| (_series_terms); a run that needs more
    than _SERIES_CAP terms is refused (_quantum_terms). hbar = 0 keeps only
    the classical pole (omega_d/2) exp(-omega_d|t|).

    Where omega_d / nu_1 nears an integer N >= 1, c_D's pole and the n = N
    term's cancel; an omega_d whose _pole_roundoff exceeds _POLE_TOL is
    refused (_quantum_terms).
    """
    if hbar == 0.0:
        return 0.5 * omega_d * np.exp(-omega_d * abs_t)
    nu1 = 2.0 * np.pi * k_bt / hbar
    if np.any(abs_t == 0.0):
        raise ValueError(
            "the quantum noise kernel diverges logarithmically at t = 0; "
            "use a grid excluding t = 0 or the classical limit hbar = 0"
        )
    n_max = _quantum_terms(omega_d, nu1, float(np.min(abs_t)))
    x_d = np.pi * (omega_d / nu1)
    c_d = 0.5 * omega_d * x_d / np.tan(x_d)
    out = c_d * np.exp(-omega_d * abs_t)
    out -= (omega_d ** 2 / nu1) * np.log1p(-np.exp(-nu1 * abs_t))
    # residual series, terms omega_d^4 / (nu_n (nu_n^2 - omega_d^2)) ~ 1/n^3
    chunk = max(1, int(4_000_000 // max(abs_t.size, 1)))
    n0 = 1
    while n0 <= n_max:
        n = np.arange(n0, min(n0 + chunk, n_max + 1), dtype=float)
        nun = n * nu1
        coef = omega_d ** 4 / (nun * (nun ** 2 - omega_d ** 2))
        out += np.exp(-np.outer(abs_t, nun)) @ coef
        n0 += chunk
    return out


def noise_kernel_time(params: BathParams, model: SpectralDensity, t_grid) -> KernelSamples:
    """Noise kernel K(t) sampled on a uniform grid, with its trapezoid area.

    The full-line integral of K(t) is K(w=0) = 1; `area` reports the trapezoid
    integral over the supplied grid and `short_grid` flags grids that miss more
    than 1e-4 of it. Requires a Drude model: the strictly Ohmic kernel is a
    delta function classically and non-integrable quantum mechanically.
    """
    t, dt = _time_grid(t_grid)
    if isinstance(_continuous(model, "a discrete bath has no smooth noise kernel"), Ohmic):
        if params.hbar == 0.0:
            raise ValueError(
                "the classical Ohmic noise kernel is a delta function; "
                "use the white-noise generator instead"
            )
        raise ValueError(
            "needs a Drude cutoff: the quantum Ohmic spectrum grows linearly "
            "and has no integrable time kernel"
        )
    vals = _drude_time_kernel(model.omega_d, params.hbar, params.k_bt, np.abs(t))
    area = float(np.trapezoid(vals, t))
    return KernelSamples(t_grid=t, values=vals, dt=dt, area=area,
                         short_grid=bool(abs(area - 1.0) > 1e-4))


def bath_correlators(params: BathParams, model: DiscreteBath, t: float, tp: float):
    """Discrete-bath correlators at times (t, t').

    Returns (A, G_ret): the symmetric thermal correlator
    A = sum_i (c_i^2 / M_i Omega_i) hbar coth(hbar Omega_i / 2 k_bt)
        cos Omega_i (t - t')
    and the retarded commutator correlator
    G_ret = -i Theta(t - t') sum_i (hbar c_i^2 / M_i Omega_i)
            sin Omega_i (t - t'),
    which vanishes for t < t' and in the classical limit.
    """
    if not isinstance(model, DiscreteBath):
        raise TypeError("bath_correlators requires a DiscreteBath model")
    tau = t - tp
    a_val = 0.0
    g_val = 0.0j
    for osc in model.oscillators:
        weight = osc.c ** 2 / (osc.mass * osc.omega)
        a_val += weight * hbar_coth(params.hbar, params.k_bt, osc.omega) * np.cos(osc.omega * tau)
        if tau >= 0.0:
            g_val += -1j * weight * params.hbar * np.sin(osc.omega * tau)
    return float(a_val), complex(g_val)


def freq_shift(model: DiscreteBath, mass: float) -> float:
    """Bath-induced squared-frequency shift, Delta(omega^2) = -(1/M) sum_i
    c_i^2 / (M_i Omega_i^2). Zero for an empty bath, always <= 0."""
    if not isinstance(model, DiscreteBath):
        raise TypeError("freq_shift requires a DiscreteBath model")
    total = 0.0
    for osc in model.oscillators:
        total += osc.c ** 2 / (osc.mass * osc.omega ** 2)
    return -total / mass


def thermal_green(omega: float, beta: float, dt_diff: float, mass: float, hbar: float):
    """Finite-temperature oscillator Green function for time split dt_diff,

    G = (hbar / 2 M Omega) cosh[(Omega/2)(hbar beta - i dt)] / sinh(hbar beta Omega / 2),

    evaluated through exp differences so large hbar beta Omega cannot
    overflow. Its real part is even in dt_diff; beta -> infinity leaves the
    ground-state value hbar / (2 M Omega) at dt_diff = 0.
    """
    if not omega > 0:
        raise ValueError("omega must be > 0")
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if not hbar > 0:
        raise ValueError("thermal_green requires hbar > 0")
    a = 0.5 * hbar * beta * omega
    b = 0.5 * omega * dt_diff
    # cosh(a - i b)/sinh(a) = (exp(-i b) + exp(-2a) exp(i b)) / (1 - exp(-2a))
    num = np.exp(-1j * b) + np.exp(-2.0 * a) * np.exp(1j * b)
    den = -np.expm1(-2.0 * a)
    return complex((hbar / (2.0 * mass * omega)) * num / den)
