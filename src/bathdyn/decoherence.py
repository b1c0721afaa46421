"""High-temperature evolution of the position-space density matrix.

The density matrix is written in mean and relative coordinates,
rho(x, y) = <x + y/2| rho |x - y/2>, on a uniform grid with the y axis
symmetric about zero (odd point count). One evolution step splits the
generator

    i hbar d(rho)/dt = [ (1/M) p_y p_x + gamma y p_y
                         + V(x + y/2) - V(x - y/2) - i (w/2 hbar) y^2 ] rho

into four substeps: the mixed kinetic term by a spectral phase on a
zero-padded FFT grid, the potential difference by a pointwise phase, the
friction advection gamma y d/dy by first-order upwinding (the y = 0 row has
zero velocity and is never touched, so the trace integral of rho(x, 0) is
conserved exactly), and the decoherence term by its exact pointwise
exponential damping exp(-Lambda y^2 dt).

The friction term is ordered with the derivative acting last (momenta left).
The symmetric ordering differs by a constant and multiplies the field by
exp(-gamma dt / 2), so the trace then decays at rate gamma/2.

MasterOperator checks the inputs and builds the kinetic and potential phases
and the decoherence factor once per run, at one dt and ordering; its advance
still checks every step's result for finiteness and hermiticity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import Ordering, StabilityError, _check_values
from .kernels import BathParams
from .potentials import Potential

__all__ = [
    "DecoherenceParams",
    "DensityField",
    "decoherence_params",
    "gaussian_pure_state",
    "superposition_state",
    "MasterOperator",
    "master_step",
    "wigner_transform",
    "interference_amplitude",
]

_TERMS = ("kinetic", "potential", "friction", "decoherence")
# largest relative deviation from rho(x, y) = conj(rho(x, -y)) that a step's
# result, a Wigner transform's input or a run's final check accepts
_HERM_TOL = 1e-8


@dataclass(frozen=True)
class DecoherenceParams:
    """Derived high-temperature scales.

    lam is the decoherence rate per square distance, l_e the thermal length;
    lam * l_e_sq == 2 pi gamma holds by the definitions of the two lengths.
    """

    w: float
    D: float
    lam: float
    l_e: float
    l_e_sq: float


def decoherence_params(params: BathParams) -> DecoherenceParams:
    """Compute (w, D, Lambda, l_e) from the bath parameters; needs hbar > 0."""
    if params.hbar == 0:
        raise ValueError("hbar = 0: classical limit has infinite Lambda")
    hbar2 = params.hbar ** 2
    lam = params.w / (2.0 * hbar2)
    l_e_sq = 2.0 * math.pi * hbar2 / (params.mass * params.k_bt)
    return DecoherenceParams(
        w=params.w, D=params.D, lam=lam, l_e=math.sqrt(l_e_sq), l_e_sq=l_e_sq
    )


@dataclass
class DensityField:
    """Complex density-matrix samples rho[i, j] at x_i = x0 + i dx and
    y_j = (j - (ny-1)/2) dy; ny must be odd so the y = 0 row exists."""

    values: np.ndarray
    x0: float
    dx: float
    dy: float
    t: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2:
            raise ValueError("values must be 2D (x by y)")
        if vals.shape[1] % 2 == 0:
            raise ValueError("ny must be odd so the y = 0 row exists")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("spacings must be > 0")
        _check_values(vals, nonnegative=False)
        self.values = vals

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def x_grid(self) -> np.ndarray:
        return self.x0 + np.arange(self.nx) * self.dx

    @property
    def y_grid(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.dy

    def trace(self) -> complex:
        """Discrete integral of rho(x, 0) over x."""
        j0 = (self.ny - 1) // 2
        return complex(self.values[:, j0].sum() * self.dx)

    def herm_deviation(self) -> float:
        """Max |rho(x,y) - conj(rho(x,-y))| relative to the field scale."""
        flipped = np.conj(self.values[:, ::-1])
        scale = float(np.max(np.abs(self.values)))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.values - flipped))) / scale


def _pure_state_field(
    psi, nx: int, dx: float, ny: int, dy: float, x_center: float = 0.0
) -> DensityField:
    """rho(x, y) = psi(x + y/2) conj(psi(x - y/2)), trace-normalized."""
    x0 = x_center - (nx // 2) * dx
    x = x0 + np.arange(nx) * dx
    y = (np.arange(ny) - (ny - 1) / 2.0) * dy
    xp = x[:, None] + y[None, :] / 2.0
    xm = x[:, None] - y[None, :] / 2.0
    rho = psi(xp) * np.conj(psi(xm))
    field = DensityField(rho, x0, dx, dy, 0.0)
    tr = field.trace().real
    if tr <= 0:
        raise ValueError("state has nonpositive norm on this grid")
    field.values = field.values / tr
    return field


def gaussian_pure_state(
    nx: int, dx: float, ny: int, dy: float, center: float = 0.0, sigma: float = 1.0
) -> DensityField:
    """Pure Gaussian wavepacket with position spread sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be > 0")

    def psi(x):
        return np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)).astype(complex)

    return _pure_state_field(psi, nx, dx, ny, dy, x_center=center)


def superposition_state(
    nx: int,
    dx: float,
    ny: int,
    dy: float,
    separation: float,
    sigma: float,
) -> DensityField:
    """Symmetric superposition of two Gaussians centered at +-separation/2."""
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    if not separation > 0:
        raise ValueError("separation must be > 0")
    half = separation / 2.0

    def psi(x):
        g1 = np.exp(-((x - half) ** 2) / (4.0 * sigma ** 2))
        g2 = np.exp(-((x + half) ** 2) / (4.0 * sigma ** 2))
        return (g1 + g2).astype(complex)

    return _pure_state_field(psi, nx, dx, ny, dy)


def _odd_padded(n: int) -> int:
    """Zero-padding target: the smallest odd m >= n + n//2 whose prime factors
    are all <= 11. At least 1.5x the size, so the spectral phase wraps little;
    odd, so the discrete frequency grid is symmetric (no unpaired Nyquist
    mode); 11-smooth, so the FFTs never run on a large prime length."""
    m = (n + n // 2) | 1
    while True:
        k = m
        for p in (3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 2


def _kinetic_substep(vals: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Spectral step of the mixed kinetic term on the zero-padded grid of phase.

    Equal bit for bit to ifft2(fft2(padded) * phase)[:nx, :ny], whose 1-D
    transforms run along y first: the forward y transform skips the padding
    rows (all zero) and the inverse x transform the columns cut away.
    """
    nx, ny = vals.shape
    mx, my = phase.shape
    spectrum = np.fft.fft(np.fft.fft(vals, n=my, axis=1), n=mx, axis=0)
    spectrum *= phase
    return np.fft.ifft(np.fft.ifft(spectrum, axis=1)[:, :ny], axis=0)[:nx]


def _friction_substep(vals: np.ndarray, y: np.ndarray, gamma: float,
                      dy: float, dt: float) -> np.ndarray:
    """First-order upwind step of d(rho)/dt = -gamma y d(rho)/dy.

    The upwind direction points toward y = 0 (characteristics flow outward),
    so no boundary data is needed and the y = 0 row is exactly unchanged.
    """
    c = dt * gamma / dy
    out = vals.copy()
    j0 = len(y) // 2
    # y > 0: velocity positive, difference against the smaller-y neighbor
    jp = slice(j0 + 1, None)
    out[:, jp] -= c * y[jp] * (vals[:, jp] - vals[:, j0:-1])
    # y < 0: velocity negative, difference against the larger-y neighbor
    jm = slice(0, j0)
    out[:, jm] -= c * y[jm] * (vals[:, 1 : j0 + 1] - vals[:, jm])
    return out


class MasterOperator:
    """The master equation's split-step generator on rho's grid at one dt and
    ordering, validated and built once. dt is fixed here rather than passed to
    advance because the kinetic and potential phases depend on it."""

    def __init__(self, rho: DensityField, potential: Potential | None,
                 params: BathParams, dt: float,
                 ordering: Ordering = Ordering.MOMENTA_LEFT, terms=_TERMS):
        if params.hbar <= 0:
            raise ValueError("hbar must be > 0 for density-matrix evolution")
        if not dt > 0:
            raise ValueError("dt must be > 0")
        terms = tuple(terms)
        for name in terms:
            if name not in _TERMS:
                raise ValueError(f"unknown term {name!r}")
        dec = decoherence_params(params)
        if rho.dy > dec.l_e / 2.0:
            raise ValueError(
                "y grid too coarse to resolve the thermal length: need dy <= l_e/2"
            )
        y = rho.y_grid
        if "friction" in terms:
            y_max = float(np.max(np.abs(y)))
            if params.gamma * y_max * dt > rho.dy:
                raise StabilityError(
                    "friction advection violates its CFL bound",
                    rho.dy / (params.gamma * y_max),
                )

        substeps = []  # each maps the field values to the next substep's input
        if "kinetic" in terms:
            kx = 2.0 * np.pi * np.fft.fftfreq(_odd_padded(rho.nx), d=rho.dx)
            ky = 2.0 * np.pi * np.fft.fftfreq(_odd_padded(rho.ny), d=rho.dy)
            phase = np.exp(-1j * (params.hbar / params.mass) * dt * kx[:, None] * ky[None, :])
            substeps.append(lambda vals: _kinetic_substep(vals, phase))
        if "potential" in terms and potential is not None:
            x = rho.x_grid
            dv = np.asarray(potential.value(x[:, None] + y[None, :] / 2.0)) - np.asarray(
                potential.value(x[:, None] - y[None, :] / 2.0)
            )
            potential_phase = np.exp(-1j * dv * dt / params.hbar)
            substeps.append(lambda vals: vals * potential_phase)
        if "friction" in terms:
            substeps.append(lambda vals: _friction_substep(vals, y, params.gamma, rho.dy, dt))
        if "decoherence" in terms:
            damping = np.exp(-dec.lam * y ** 2 * dt)[None, :]
            substeps.append(lambda vals: vals * damping)
        if ordering is Ordering.SYMMETRIC:
            sink = math.exp(-params.gamma * dt / 2.0)
            substeps.append(lambda vals: vals * sink)
        self.dt, self._substeps = dt, substeps

    def advance(self, field: DensityField, n_steps: int) -> DensityField:
        """n_steps steps from field, each result checked for finiteness and
        hermiticity (within _HERM_TOL); field itself is left unchanged."""
        for _ in range(n_steps):
            vals = field.values
            for substep in self._substeps:
                vals = substep(vals)
            field = DensityField(vals, field.x0, field.dx, field.dy, field.t + self.dt)
            if field.herm_deviation() > _HERM_TOL:
                raise RuntimeError("unstable step: hermiticity violated")
        return field


def master_step(
    rho: DensityField,
    potential: Potential | None,
    params: BathParams,
    dt: float,
    ordering: Ordering = Ordering.MOMENTA_LEFT,
    terms=_TERMS,
) -> DensityField:
    """One split step of the high-temperature master equation.

    potential may be None for free evolution. terms selects the active
    substeps (subset of "kinetic", "potential", "friction", "decoherence"),
    which isolates single generators for diagnostics. ordering toggles the
    constant gamma/2 sink (fokker_planck.Ordering; default momenta-left).
    Each call builds the operator: to take many steps, build MasterOperator
    once and call its advance.
    """
    return MasterOperator(rho, potential, params, dt, ordering, terms).advance(rho, 1)


def wigner_transform(
    rho: DensityField, hbar: float, p_grid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """W(x, p) = (1/2 pi hbar) int e^{i p y / hbar} rho(x, y) dy.

    With the default momentum grid (the discrete conjugate of the y grid)
    the double Riemann sum of W equals the trace exactly. Returns (W, p_grid)
    with W real.
    """
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    if rho.herm_deviation() > _HERM_TOL:
        raise ValueError("Wigner transform needs a Hermitian field")
    y = rho.y_grid
    if p_grid is None:
        p_grid = np.sort(2.0 * np.pi * hbar * np.fft.fftfreq(rho.ny, d=rho.dy))
    p_grid = np.asarray(p_grid, dtype=float)
    phase = np.exp(1j * np.outer(p_grid, y) / hbar)
    w = (rho.dy / (2.0 * np.pi * hbar)) * (rho.values @ phase.T)
    return w.real, p_grid


def interference_amplitude(rho: DensityField, hbar: float) -> float:
    """Height of the phase-space interference ridge: max_p |W(x~0, p)|."""
    w, _ = wigner_transform(rho, hbar)
    ix = int(np.argmin(np.abs(rho.x_grid)))
    return float(np.max(np.abs(w[ix, :])))
