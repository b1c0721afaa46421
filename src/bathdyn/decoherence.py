"""High-temperature evolution of the position-space density matrix.

The density matrix is written in mean and relative coordinates,
rho(x, y) = <x + y/2| rho |x - y/2>, on a uniform grid with the y axis
symmetric about zero (odd point count). One evolution step splits the
generator

    i hbar d(rho)/dt = [ (1/M) p_y p_x + gamma y p_y
                         + V(x + y/2) - V(x - y/2) - i (w/2 hbar) y^2 ] rho

into four substeps: the mixed kinetic term by a spectral phase on an FFT
grid padded to the next odd 11-smooth length, the potential difference by a
pointwise phase, the friction advection gamma y d/dy by first-order
upwinding (the y = 0 row has zero velocity and is never touched, so the
trace integral of rho(x, 0) is conserved exactly), and the decoherence term
by its exact pointwise exponential damping exp(-Lambda y^2 dt).

The friction term is ordered with the derivative acting last (momenta left).
The symmetric ordering differs by a constant and multiplies the field by
exp(-gamma dt / 2), so the trace then decays at rate gamma/2.

rho is Hermitian, rho(x, -y) = conj rho(x, y), and every substep keeps that
symmetry, so the steps run on the y >= 0 half alone: columns j0 = ny // 2
onward, y = 0 first. MasterOperator is validated once per grid; it runs on
the stepping run every solver shares, records(field, ordering, dt, marks)
(fokker_planck._Operator), whose stepper builds the phases and factors on the
half once per run, checks once that its input is Hermitian, steps the half on
buffers made once per run (each step's raw half checked for finiteness) and
mirrors it into a full field at each recorded step, Hermitian by
construction, so no step checks hermiticity; advance is a run with one
record. The Wigner transform reads the half too, as one real
product, so W is real by construction. The kinetic substep puts
y = 0 at index 0 of the padded y axis, where the y spectrum is real, and runs
real FFTs (irfft along y, rfft and irfft along x, rfft back along y) on
buffers whose zero padding is never written, so no transform pads (numpy 2
runs a padded transform one line at a time).

The FFTs make the kinetic substep periodic on the padded grid, which stands
in for free space only while rho has vanished at the grid edge: what reaches
the edge wraps to the far side. DensityField.edge_measure is that guard, max
|rho| on the outer rows and columns over max |rho|; a field within _EDGE_TOL
of its peak at every edge moves by about that much or less between
paddings, so the padding adds only what keeps the transform lengths smooth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fokker_planck import Ordering, _check_values, _Operator
from .kernels import BathParams, ParameterError, _positive, _require
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
# largest relative deviation from rho(x, y) = conj(rho(x, -y)) that advance's
# input, a Wigner transform's input or a run's final check accepts
_HERM_TOL = 1e-8
# largest edge measure a decohere run accepts (its grid_fits check). What the
# kinetic substep wraps across the edge moves rho by at most about the edge
# measure of its peak (0.004 to 0.97 of it, measured against the 1.5x padding
# over 37 grids and states), so the threshold bounds the padding's share of
# the error: at most a tenth of the splitting error of the CLI's default
# dt = 0.002, 1.8e-5 of the peak on its default state and grid, rounded down
# to a decade
_EDGE_TOL = 1e-6
# a state's width sigma, in grid spacings, whose Gaussian spectrum has fallen
# to _EDGE_TOL at the Nyquist wavenumber (_check_state)
_RESOLVED = math.sqrt(2.0 * math.log(1.0 / _EDGE_TOL)) / math.pi


@dataclass(frozen=True)
class DecoherenceParams:
    """Derived high-temperature scales.

    lam is the decoherence rate per square distance, l_e the thermal length;
    lam * l_e_sq == 2 pi gamma holds by the definitions of the two lengths.
    """

    lam: float
    l_e: float
    l_e_sq: float


def decoherence_params(params: BathParams) -> DecoherenceParams:
    """Compute (Lambda, l_e, l_e^2) from the bath parameters, whose own w and
    D stay on BathParams. hbar^2 sets Lambda and l_e, so it must be finite
    and nonzero (hbar = 0, the classical limit, has infinite Lambda), and
    Lambda and l_e^2 finite and > 0; each refusal names hbar."""
    _require(0.0 < params.hbar * params.hbar < math.inf, "hbar",
             "be > 0 with a finite, nonzero square")
    hbar2 = params.hbar ** 2
    lam = params.w / (2.0 * hbar2)
    _require(0.0 < lam < math.inf, "hbar", f"give a finite Lambda = w / 2 hbar^2 > 0 (got {lam:g})")
    m_kt = params.mass * params.k_bt  # may underflow to 0 or overflow
    l_e_sq = 2.0 * math.pi * hbar2 / m_kt if m_kt > 0.0 else math.inf
    _require(0.0 < l_e_sq < math.inf, "hbar",
             f"give a finite thermal length l_e^2 = 2 pi hbar^2 / M k_bt > 0 (got {l_e_sq:g})")
    return DecoherenceParams(lam=lam, l_e=math.sqrt(l_e_sq), l_e_sq=l_e_sq)


def _check_dy(dy: float, l_e: float) -> None:
    """The y spacing is finite and > 0 and resolves the thermal length l_e:
    dy <= l_e / 2."""
    _positive("dy", dy)
    if not dy <= l_e / 2.0:
        raise ParameterError("dy", "resolve the thermal length l_e = sqrt(2 pi hbar^2 / M k_bt): "
                             f"be <= l_e / 2 = {l_e / 2.0:.6g} (got {dy:g})")


def _y_grid(ny: int, dy: float) -> np.ndarray:
    """The relative coordinates y_j = (j - (ny-1)/2) dy."""
    return (np.arange(ny) - (ny - 1) / 2.0) * dy


def _herm_deviation(vals: np.ndarray) -> float:
    """Max |rho(x,y) - conj(rho(x,-y))| relative to max |rho|; 0 for a zero field.

    Each column pair j, ny-1-j is compared once: |a - conj(b)| and
    |b - conj(a)| are the same number bit for bit, so the other half of the
    columns cannot change the max.
    """
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0.0
    half = (vals.shape[1] + 1) // 2
    mirrored = np.conj(vals[:, ::-1][:, :half])
    np.subtract(vals[:, :half], mirrored, out=mirrored)
    return float(np.max(np.abs(mirrored))) / scale


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
        return _y_grid(self.ny, self.dy)

    def trace(self) -> complex:
        """Discrete integral of rho(x, 0) over x."""
        j0 = (self.ny - 1) // 2
        return complex(self.values[:, j0].sum() * self.dx)

    def herm_deviation(self) -> float:
        """Max |rho(x,y) - conj(rho(x,-y))| relative to the field scale."""
        return _herm_deviation(self.values)

    def edge_measure(self) -> float:
        """Max |rho| on the outer rows and columns relative to max |rho|, 0 for
        a zero field: how far the field is from vanishing at the grid edge.
        One pass over the field finds the peak; the edge max reads the
        2 (nx + ny) edge samples alone."""
        vals = self.values
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0:
            return 0.0
        rows, cols = np.abs(vals[[0, -1], :]), np.abs(vals[:, [0, -1]])
        return max(float(np.max(rows)), float(np.max(cols))) / scale


def _pure_state_field(
    psi, nx: int, dx: float, ny: int, dy: float, x_center: float = 0.0
) -> DensityField:
    """rho(x, y) = psi(x + y/2) conj(psi(x - y/2)), trace-normalized."""
    x0 = x_center - (nx // 2) * dx
    x = x0 + np.arange(nx) * dx
    y = _y_grid(ny, dy)
    xp = x[:, None] + y[None, :] / 2.0
    xm = x[:, None] - y[None, :] / 2.0
    rho = psi(xp) * np.conj(psi(xm))
    field = DensityField(rho, x0, dx, dy, 0.0)
    tr = field.trace().real
    if tr <= 0:
        raise ValueError("state has nonpositive norm on this grid")
    field.values = field.values / tr
    return field


def _check_state(dx: float, dy: float, sigma: float) -> None:
    """A state's spacings, finite and > 0, and its position spread sigma: > 0
    with a finite, nonzero square, and resolved by the grid. rho's Gaussian
    profiles have standard deviations s = sigma along x and 2 sigma along y,
    so their spectra fall as exp(-(k s)^2 / 2); at each axis's Nyquist
    wavenumber pi / spacing that must be under grid_fits' threshold, or the
    spectral kinetic substep rings out to the grid edge: s >= sqrt(2 ln(1 /
    threshold)) / pi = 1.67 spacings (_RESOLVED)."""
    _positive("dx", dx)
    _positive("dy", dy)
    _require(sigma > 0.0 and 0.0 < sigma * sigma < math.inf, "sigma",
             "be > 0 with a finite, nonzero square")
    _require(sigma >= _RESOLVED * dx and 2.0 * sigma >= _RESOLVED * dy, "sigma",
             f"be resolved by the grid: sigma >= {_RESOLVED:.3g} dx and 2 sigma >= "
             f"{_RESOLVED:.3g} dy (got {sigma:g} on {dx:g} x {dy:g})")


def _gaussian_profile(d, sigma: float):
    """exp(-d^2 / 4 sigma^2) with d and sigma both scaled by the power of two
    that brings sigma into [0.5, 1): the scaling is exact, so the values are
    the plain formula's bit for bit, yet d^2 cannot overflow on a grid that
    resolves sigma, however large sigma is."""
    scale = 2.0 ** -math.frexp(sigma)[1]
    return np.exp(-((d * scale) ** 2) / (4.0 * (sigma * scale) ** 2))


def gaussian_pure_state(
    nx: int, dx: float, ny: int, dy: float, center: float = 0.0, sigma: float = 1.0
) -> DensityField:
    """Pure Gaussian wavepacket with position spread sigma; the spacings and
    sigma are tested first (_check_state)."""
    _check_state(dx, dy, sigma)

    def psi(x):
        return _gaussian_profile(x - center, sigma).astype(complex)

    return _pure_state_field(psi, nx, dx, ny, dy, x_center=center)


def superposition_state(nx: int, dx: float, ny: int, dy: float, separation: float,
                        sigma: float) -> DensityField:
    """Symmetric superposition of two Gaussians centered at +-separation/2.
    The spacings and sigma are tested first (_check_state), then separation:
    finite and > 0, with each packet centre inside the span [x_lo, x_hi] of
    the x grid, which _pure_state_field builds about 0."""
    _check_state(dx, dy, sigma)
    _positive("separation", separation)
    half = separation / 2.0
    x_lo = -(nx // 2) * dx
    x_hi = x_lo + (nx - 1) * dx
    _require(x_lo <= -half and half <= x_hi, "separation",
             f"put each packet centre (+-{half:g}) inside the x grid [{x_lo:g}, {x_hi:g}]")

    def psi(x):
        return (_gaussian_profile(x - half, sigma)
                + _gaussian_profile(x + half, sigma)).astype(complex)

    return _pure_state_field(psi, nx, dx, ny, dy)


def _odd_padded(n: int) -> int:
    """FFT length of an axis of n samples: the smallest odd m >= n whose prime
    factors are all <= 11. Odd, so the discrete frequency grid is symmetric
    (no unpaired Nyquist mode); 11-smooth, so the FFTs never run on a large
    prime length. The few zeros it adds are no guard against the spectral
    phase's wrap: the field must vanish at the grid edge
    (DensityField.edge_measure)."""
    m = n | 1
    while True:
        k = m
        for p in (3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 2


def _kinetic_kernel(nx: int, j0: int, phase: np.ndarray):
    """kinetic(half): the spectral step of the mixed kinetic term on the
    y >= 0 half, in an (nx, j0 + 1) buffer that the next call overwrites.
    phase holds the kx >= 0 rows of the padded grid's phase (mx is odd; the
    padded lengths mx >= nx and my >= ny are _odd_padded's, so on an axis
    whose length is already odd and 11-smooth there is no padding at all and
    the substep is periodic on the grid itself). Each call of this function
    makes new buffers.

    Equal up to roundoff to version 0.3.0's ifft2(fft2(padded) * phase):
    with y = 0 at index 0 and y < 0 wrapped to the end, the padded field is
    Hermitian along y, so irfft of the conjugate half is its real y spectrum
    (rows :nx), rfft and irfft along x apply the phase, and rfft of rows :nx
    along y, conjugated, is the y >= 0 half again. Every transform runs at
    its natural length with out=, on buffers whose padding stays zero.
    """
    hx, my = phase.shape
    mx, hy = 2 * hx - 1, my // 2 + 1
    y_half = np.zeros((nx, hy), dtype=complex)  # columns j0 + 1: stay zero
    y_spectrum = np.zeros((mx, my))  # rows nx: stay zero
    spectrum = np.empty((hx, my), dtype=complex)
    back = np.empty((mx, my))
    y_out = np.empty((nx, hy), dtype=complex)
    out = np.empty((nx, j0 + 1), dtype=complex)

    def kinetic(half: np.ndarray) -> np.ndarray:
        np.conjugate(half, out=y_half[:, :j0 + 1])
        np.fft.irfft(y_half, n=my, axis=1, norm="forward", out=y_spectrum[:nx])
        np.fft.rfft(y_spectrum, axis=0, out=spectrum)
        np.multiply(spectrum, phase, out=spectrum)
        np.fft.irfft(spectrum, n=mx, axis=0, out=back)
        np.fft.rfft(back[:nx], axis=1, norm="forward", out=y_out)
        return np.conjugate(y_out[:, :j0 + 1], out=out)

    return kinetic


def _friction_kernel(nx: int, y: np.ndarray, gamma: float, dy: float, dt: float):
    """friction(half): the first-order upwind step of
    d(rho)/dt = -gamma y d(rho)/dy on the y >= 0 half, in place. Each call of
    this function makes new buffers.

    The velocity points away from y = 0, so each column takes its difference
    against its smaller-y neighbor, and the y = 0 column is exactly unchanged.
    The y < 0 update is the mirror image with real coefficients, so the half
    carries it. The update is taken whole before it is written.
    """
    cy = (dt * gamma / dy) * y[1:]  # the Courant number of each y > 0 column
    change = np.empty((nx, len(y) - 1), dtype=complex)

    def friction(half: np.ndarray) -> None:
        np.subtract(half[:, 1:], half[:, :-1], out=change)
        np.multiply(cy, change, out=change)
        np.subtract(half[:, 1:], change, out=half[:, 1:])

    return friction


def _scaling(factor):
    """scale(half): half times factor, a pointwise substep's exact step, in
    place."""
    return lambda half: np.multiply(half, factor, out=half)


class MasterOperator(_Operator):
    """The master equation's split-step generator on rho's grid, validated
    once; each records run (fokker_planck._Operator) takes its ordering and
    dt. dt_max is friction's CFL bound, inf without friction."""

    bound = "friction advection CFL bound"

    def __init__(self, rho: DensityField, potential: Potential | None,
                 params: BathParams, terms=_TERMS):
        terms = tuple(terms)
        for name in terms:
            if name not in _TERMS:
                raise ValueError(f"unknown term {name!r}")
        dec = decoherence_params(params)
        _check_dy(rho.dy, dec.l_e)
        # friction's largest Courant number, gamma y_max dt / dy, is
        # gamma j0 dt exactly (y_max = j0 dy), so dt is checked against the
        # very bound the error suggests
        rate = params.gamma * (rho.ny // 2)
        self.dt_max = 1.0 / rate if "friction" in terms and rate > 0 else math.inf
        self.potential, self.params, self.terms, self.lam = potential, params, terms, dec.lam
        self.gamma = params.gamma  # the symmetric sink's rate is gamma / 2 (_Operator.sink)
        self._grid = (rho.values.shape, rho.x0, rho.dx, rho.dy)

    def stepper(self, field: DensityField, ordering: Ordering, dt: float):
        """One run from field, Hermitian within _HERM_TOL, on its y >= 0 half:
        the phases, factors and step buffers are built here. Each step reads
        the half and writes a buffer that the next step overwrites (the
        kinetic substep's own, or without it a copy of the half, its y = 0
        column made real as the kinetic substep leaves it), updating it in
        place in the order kinetic, potential, friction, decoherence, sink,
        and checks it for finiteness. Each mark mirrors the half into a field
        of its own, Hermitian by construction."""
        if (field.values.shape, field.x0, field.dx, field.dy) != self._grid:
            raise ValueError("field is not on this operator's grid")
        if _herm_deviation(field.values) > _HERM_TOL:
            raise RuntimeError("field to advance: hermiticity violated")
        (nx, ny), params, terms = field.values.shape, self.params, self.terms
        j0, hbar = ny // 2, params.hbar
        y = field.y_grid[j0:]  # the y >= 0 half, y = 0 first
        kinetic, in_place = None, []  # the substeps after the kinetic one, in order
        if "kinetic" in terms:
            kx = 2.0 * np.pi * np.fft.rfftfreq(_odd_padded(nx), d=field.dx)
            ky = 2.0 * np.pi * np.fft.fftfreq(_odd_padded(ny), d=field.dy)
            kinetic = _kinetic_kernel(nx, j0, np.exp(
                -1j * (hbar / params.mass) * dt * kx[:, None] * ky[None, :]))
        else:
            buffer = np.empty((nx, j0 + 1), dtype=complex)
        if "potential" in terms and self.potential is not None:
            x, value = field.x_grid, self.potential.value
            dv = np.asarray(value(x[:, None] + y[None, :] / 2.0)) - np.asarray(
                value(x[:, None] - y[None, :] / 2.0))
            in_place.append(_scaling(np.exp(-1j * dv * dt / hbar)))
        if "friction" in terms:
            in_place.append(_friction_kernel(nx, y, params.gamma, field.dy, dt))
        if "decoherence" in terms:
            in_place.append(_scaling(np.exp(-self.lam * y ** 2 * dt)[None, :]))
        if ordering is Ordering.SYMMETRIC:
            in_place.append(_scaling(self.sink(dt)))

        def step(half: np.ndarray) -> np.ndarray:
            if kinetic is None:
                out = buffer
                np.copyto(out, half)
                out[:, 0].imag = 0.0
            else:
                out = kinetic(half)
            for substep in in_place:
                substep(out)
            _check_values(out, nonnegative=False)
            return out

        def emit(half: np.ndarray, t: float) -> DensityField:
            vals = np.empty((nx, ny), dtype=complex)
            vals[:, j0:] = half
            np.conjugate(half[:, :0:-1], out=vals[:, :j0])
            return DensityField(vals, field.x0, field.dx, field.dy, t)

        return field.values[:, j0:], step, emit


def master_step(rho: DensityField, potential: Potential | None, params: BathParams,
                dt: float, ordering: Ordering = Ordering.MOMENTA_LEFT,
                terms=_TERMS) -> DensityField:
    """One split step of the high-temperature master equation.

    potential may be None for free evolution. terms selects the active
    substeps (subset of "kinetic", "potential", "friction", "decoherence"),
    which isolates single generators for diagnostics. ordering toggles the
    constant gamma/2 sink (fokker_planck.Ordering; default momenta-left).
    Each call builds the operator: to take many steps, build MasterOperator
    once and call its advance or records.
    """
    return MasterOperator(rho, potential, params, terms).advance(rho, ordering, dt, 1)


def _wigner_factor(p_grid: np.ndarray, ny: int, dy: float, hbar: float) -> np.ndarray:
    """The (2 j0 x n_p) right factor of the half-plane Wigner sum: rows
    2 cos(p y / hbar), then rows -2 sin(p y / hbar), for the y > 0 columns."""
    arg = np.outer(_y_grid(ny, dy)[ny // 2 + 1:], p_grid) / hbar
    return np.concatenate((2.0 * np.cos(arg), -2.0 * np.sin(arg)))


@functools.lru_cache(maxsize=8)
def _default_wigner_grid(ny: int, dy: float, hbar: float):
    """(p_grid, factor) of wigner_transform for the default momentum grid
    on one y grid: built once per (ny, dy, hbar) and read-only, since every
    caller shares them."""
    p_grid = np.sort(2.0 * np.pi * hbar * np.fft.fftfreq(ny, d=dy))
    factor = _wigner_factor(p_grid, ny, dy, hbar)
    p_grid.flags.writeable = factor.flags.writeable = False
    return p_grid, factor


def _wigner_half(values: np.ndarray, dy: float, hbar: float, factor) -> np.ndarray:
    """W of the rows of a Hermitian field, from their y >= 0 half alone."""
    j0 = values.shape[1] // 2
    half = values[:, j0 + 1:]
    w = np.concatenate((half.real, half.imag), axis=1) @ factor + values[:, j0:j0 + 1].real
    return (dy / (2.0 * np.pi * hbar)) * w


def _ridge_amplitude(rho: DensityField, hbar: float) -> float:
    """interference_amplitude of a field taken to be Hermitian: the one row
    nearest x = 0 is transformed."""
    ix = int(np.argmin(np.abs(rho.x_grid)))
    factor = _default_wigner_grid(rho.ny, rho.dy, hbar)[1]
    return float(np.max(np.abs(_wigner_half(rho.values[ix:ix + 1], rho.dy, hbar, factor))))


def _check_wigner_input(rho: DensityField, hbar: float) -> None:
    if hbar <= 0:
        raise ValueError("hbar must be > 0")
    if rho.herm_deviation() > _HERM_TOL:
        raise ValueError("Wigner transform needs a Hermitian field")


def wigner_transform(
    rho: DensityField, hbar: float, p_grid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """W(x, p) = (1/2 pi hbar) int e^{i p y / hbar} rho(x, y) dy.

    rho must be Hermitian, so W is one real product over y >= 0: (dy / 2 pi
    hbar) [Re rho(x, 0) + sum_{y > 0} (2 cos(p y / hbar) Re rho - 2 sin(p y /
    hbar) Im rho)]. With the default momentum grid (the discrete conjugate of
    the y grid) the double Riemann sum of W equals the trace; that grid and
    its factor are built once per grid and hbar, and the returned p_grid is
    then read-only. Returns (W, p_grid).
    """
    _check_wigner_input(rho, hbar)
    if p_grid is None:
        p_grid, factor = _default_wigner_grid(rho.ny, rho.dy, hbar)
    else:
        p_grid = np.asarray(p_grid, dtype=float)
        factor = _wigner_factor(p_grid, rho.ny, rho.dy, hbar)
    return _wigner_half(rho.values, rho.dy, hbar, factor), p_grid


def interference_amplitude(rho: DensityField, hbar: float) -> float:
    """Height of the phase-space interference ridge: max_p |W(x~0, p)|."""
    _check_wigner_input(rho, hbar)
    return _ridge_amplitude(rho, hbar)
