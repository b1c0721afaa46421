"""Conservative grid solvers for the inertial (phase-space) and overdamped
(position-space) Fokker-Planck equations, with selectable operator ordering.

Both solvers are flux-form explicit schemes with reflecting (zero-flux)
boundaries, so the momenta-left generator conserves total probability to
roundoff by construction. Drift-diffusion directions use the
Scharfetter-Gummel exponential-upwind face flux (centered diffusion at zero
drift, upwind at large cell Peclet number, positivity-preserving); the purely
advective position transport of the inertial equation uses van-Leer-limited
second-order upwind reconstruction.

The symmetric ordering differs from momenta-left by an exact multiplicative
sink applied after the conservative update: a constant rate gamma/2 for the
inertial equation, the pointwise rate V''(x)/(2 M gamma) for the overdamped
one. Toggling the ordering therefore changes only the mass budget, not the
transport stencil.

Each equation's generator (face weights, stability bound) is a public
operator, SmoluchowskiOperator or KramersOperator, built once per problem.
Their base _Operator, which decoherence.MasterOperator shares, holds the one
stepping run of every solver, records(field, ordering, dt, marks): it checks
dt against the operator's stability bound, builds the operator's stepper once
and yields a field at each mark, in a buffer of its own; advance is one
record of that run. A grid run builds the sink and the increment kernel once,
steps each mark's buffer in place and checks every step's raw result against
the ProbField rules (finite, no undershoot beyond 1e-10 of the largest value).
The increment kernel folds dt and the grid spacings into its face weights and
speeds when it is built, so a step is one array pass per term of the face
flux, one flux difference per direction and one add; the flux difference
telescopes, so momenta-left mass stays at roundoff.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .kernels import BathParams, ParameterError, _positive, _require
from .langevin import EnsembleStats, SimConfig, StabilityError, run_ensemble
from .potentials import Potential

__all__ = [
    "Ordering",
    "PhaseGrid",
    "ProbField",
    "ComparisonRecord",
    "gaussian_field_1d",
    "gaussian_field_2d",
    "SmoluchowskiOperator",
    "KramersOperator",
    "smoluchowski_step",
    "kramers_step",
    "compare_langevin_fp",
]


class Ordering(enum.Enum):
    """Operator ordering of the evolution generator."""

    MOMENTA_LEFT = "momenta_left"
    SYMMETRIC = "symmetric"


def _check_axis(axis: str, lo: float, hi: float, n: int) -> None:
    """One grid axis, x or v: a finite <axis>_min, an <axis>_max a finite
    span above it, at least 16 cells, and a cell width whose square, which
    the flux weights divide by, is finite and nonzero (named <axis>_max)."""
    if not math.isfinite(lo):
        raise ParameterError(f"{axis}_min", "be finite")
    if not 0.0 < hi - lo < math.inf:
        raise ParameterError(f"{axis}_max",
                             f"exceed {axis}_min = {lo:g} by a finite span (got {hi:g})")
    if n < 16:
        raise ParameterError(f"n{axis}", "be >= 16")
    width = (hi - lo) / n
    if not 0.0 < width * width < math.inf:
        raise ParameterError(f"{axis}_max", f"give cells of width ({axis}_max - {axis}_min) / "
                             f"n{axis} a finite, nonzero square (got {width:g})")


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform cell-centered grid, 1D in x or 2D in (x, v)."""

    x_min: float
    x_max: float
    nx: int
    v_min: float | None = None
    v_max: float | None = None
    nv: int | None = None

    def __post_init__(self):
        _check_axis("x", self.x_min, self.x_max, self.nx)
        v_fields = (self.v_min, self.v_max, self.nv)
        if any(f is not None for f in v_fields):
            if any(f is None for f in v_fields):
                raise ValueError("v_min, v_max, nv must be given together")
            _check_axis("v", *v_fields)

    @property
    def is_2d(self) -> bool:
        return self.nv is not None

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dv(self) -> float:
        if not self.is_2d:
            raise ValueError("1D grid has no v spacing")
        return (self.v_max - self.v_min) / self.nv

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    @property
    def x_faces(self) -> np.ndarray:
        """Interior cell faces (nx - 1 of them)."""
        return self.x_min + np.arange(1, self.nx) * self.dx

    @property
    def v_centers(self) -> np.ndarray:
        if not self.is_2d:
            raise ValueError("1D grid has no v axis")
        return self.v_min + (np.arange(self.nv) + 0.5) * self.dv

    @property
    def v_faces(self) -> np.ndarray:
        if not self.is_2d:
            raise ValueError("1D grid has no v axis")
        return self.v_min + np.arange(1, self.nv) * self.dv


def _check_values(vals: np.ndarray, nonnegative: bool = True) -> None:
    """Raise ValueError unless every value is finite and, if nonnegative, no
    value undershoots zero by more than 1e-10 times the largest value."""
    if not nonnegative:
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        return
    # a NaN reaches both extremes and an infinity one of them, so the two
    # reductions decide finiteness as well as the undershoot
    low, high = float(vals.min(initial=0.0)), float(vals.max(initial=0.0))
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("field values must be finite")
    if low < -1e-10 * max(high, 1e-300):
        raise ValueError("field has negative values beyond undershoot tolerance")


@dataclass
class ProbField:
    """Probability density sampled at cell centers, with a time stamp."""

    values: np.ndarray
    grid: PhaseGrid
    t: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expect = (self.grid.nx, self.grid.nv) if self.grid.is_2d else (self.grid.nx,)
        if vals.shape != expect:
            raise ValueError(f"values shape {vals.shape} does not match grid {expect}")
        _check_values(vals)
        self.values = vals

    @property
    def cell_volume(self) -> float:
        return self.grid.dx * (self.grid.dv if self.grid.is_2d else 1.0)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def moments(self) -> tuple[float, float]:
        """Mean and variance of x under the (normalized) field."""
        x = self.grid.x_centers
        w = self.values.sum(axis=1) if self.grid.is_2d else self.values
        total = w.sum()
        if total <= 0:
            return float("nan"), float("nan")
        mean = float((x * w).sum() / total)
        var = float(((x - mean) ** 2 * w).sum() / total)
        return mean, var


# largest mass drift, strictly, that a run's exact mass budget accepts
_MASS_TOL = 1e-8


def _gaussian(name: str, factor, centers: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    """factor (1.0, or the samples of the axes before) times the Gaussian
    exp(-(c - mean)^2 / 2 sigma^2) sampled at the centres c of one more grid
    axis, as an outer product. sigma must be finite and > 0 (an infinite
    one would sample a flat start), and the product's sum finite and > 0: a
    sigma far below the spacing samples the Gaussian as zeros. Each refusal
    is a ParameterError naming the sigma, name."""
    _positive(name, sigma)
    with np.errstate(over="ignore"):  # a square beyond the float range samples as 0
        vals = np.multiply.outer(factor, np.exp(-0.5 * ((centers - mean) / sigma) ** 2))
    total = float(vals.sum())
    if not 0.0 < total < math.inf:
        raise ParameterError(name, "be resolved by the grid: the sampled Gaussian must have a "
                             f"finite sum > 0 (got {total:g})")
    return vals


def gaussian_field_1d(grid: PhaseGrid, mean_x: float, sigma_x: float) -> ProbField:
    """Discretely normalized Gaussian density on a 1D grid."""
    if grid.is_2d:
        raise ValueError("expected a 1D grid")
    vals = _gaussian("sigma_x", 1.0, grid.x_centers, mean_x, sigma_x)
    vals /= vals.sum() * grid.dx
    return ProbField(vals, grid, 0.0)


def gaussian_field_2d(
    grid: PhaseGrid, mean_x: float, sigma_x: float, mean_v: float, sigma_v: float
) -> ProbField:
    """Discretely normalized product Gaussian on a 2D grid."""
    if not grid.is_2d:
        raise ValueError("expected a 2D grid")
    vals = _gaussian("sigma_v", _gaussian("sigma_x", 1.0, grid.x_centers, mean_x, sigma_x),
                     grid.v_centers, mean_v, sigma_v)
    vals /= vals.sum() * grid.dx * grid.dv
    return ProbField(vals, grid, 0.0)


def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting flux weight."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 - zs / 2.0 + zs * zs / 12.0
    big = z > 700.0
    out[big] = 0.0
    rest = ~(small | big)
    zr = z[rest]
    out[rest] = zr / np.expm1(zr)
    return out


def _check_rate(axis: str, rate: float, what: str, width: float) -> None:
    """Refuse a cell width whose rate, `what` over it, is not finite and > 0
    with a finite inverse: the flux weights and the stability bound take it,
    and dt_max would be 0, inf or a division by zero. A subnormal width
    passes _check_axis, yet D / width^2 overflows; a wide one with a small D
    underflows. The ParameterError names <axis>_max."""
    _require(0.0 < rate < math.inf and 1.0 / rate < math.inf, f"{axis}_max",
             f"give cells of width ({axis}_max - {axis}_min) / n{axis} = {width:g} a finite "
             f"{what} with a finite inverse (got {rate:g})")


def _sg_weights(drift: np.ndarray, spacing: float, diff: float):
    """Scharfetter-Gummel weights along the last axis, whose interior faces
    carry the given drift: (weight on the left cell, weight on the right
    cell, the largest outflow rate of any cell). The rate is about |drift| /
    spacing at a large cell Peclet number. An operator builds the drift and
    the weights with float overflow ignored, so a drift, Peclet number or
    rate beyond the float range gives a rate of inf or nan, which its
    _check_rate refuses."""
    pe = drift * spacing / diff
    bl, br = _bernoulli(-pe), _bernoulli(pe)
    # outflow rate of cell i: (diff/spacing^2) (B(pe at left face) + B(-pe at right face))
    out_rate = np.zeros(bl.shape[:-1] + (bl.shape[-1] + 1,))
    out_rate[..., 1:] += br * diff / spacing**2
    out_rate[..., :-1] += bl * diff / spacing**2
    return bl, br, float(out_rate.max())


def _sg_kernel(bl: np.ndarray, br: np.ndarray, inc: np.ndarray):
    """The exponential-upwind flux difference along the flat axis: a function
    of p that writes F_in - F_out of each cell into inc and returns it, with
    face fluxes bl p[:-1] - br p[1:] (dt and the spacings folded into the
    weights) and zero flux through the two boundary faces. inc[:-1] holds
    the outflow terms until the difference overwrites it."""
    flux = np.zeros(inc.size + 1)
    faces, outflow = flux[1:-1], inc[:-1]

    def flux_difference(p: np.ndarray) -> np.ndarray:
        np.multiply(bl, p[:-1], out=faces)
        np.multiply(br, p[1:], out=outflow)
        np.subtract(faces, outflow, out=faces)
        np.subtract(flux[:-1], flux[1:], out=inc)
        return inc

    return flux_difference


class _Operator:
    """One equation's generator on one problem: records(field, ordering, dt,
    marks) is the one stepping run of every solver, and advance one record of
    it. A subclass sets dt_max and bound (the name of its stability bound) and
    supplies stepper(field, ordering, dt) -> (state, step, emit): the run's
    start state, read only; step(state), the state one step on, checked; and
    emit(state, t), the field of a mark, in a buffer of its own. sink(dt) is
    the symmetric ordering's factor over one step; the default, the uniform
    exp(-gamma dt / 2) of the phase-space and master equations, reads the
    subclass's gamma."""

    def sink(self, dt: float):
        return math.exp(-self.gamma * dt / 2.0)

    def records(self, field, ordering: Ordering, dt: float, marks):
        """Yield the field after each step count in marks, which must increase
        from 1: explicit steps of this operator's equation from field, whose
        values are only read. dt is checked against the stability bound, and
        the stepper built, once per run; a failed check raises at the step
        where it appears."""
        if not dt > 0:
            raise ValueError("dt must be > 0")
        if dt > self.dt_max:
            raise StabilityError(f"{self.bound} exceeded", self.dt_max)
        state, step, emit = self.stepper(field, ordering, dt)
        t, done = field.t, 0
        for mark in marks:
            if mark <= done:
                raise ValueError("marks must increase from 1")
            for _ in range(mark - done):
                state, t = step(state), t + dt
            done = mark
            yield emit(state, t)

    def advance(self, field, ordering: Ordering, dt: float, n_steps: int):
        """n_steps steps from field: the one field of records(field, ordering,
        dt, [n_steps]), or field itself when n_steps < 1 (dt and the stepper's
        guards are checked either way)."""
        return next(self.records(field, ordering, dt, [n_steps] if n_steps >= 1 else []),
                    field)


class _GridOperator(_Operator):
    """A Fokker-Planck generator on a PhaseGrid. A subclass supplies
    increment_kernel(dt), and sink(dt) or gamma.

    increment_kernel(dt) returns increment(p): dt (F_in - F_out) / spacing
    summed over the directions, the explicit step's change of p, with dt and
    the spacings folded into the kernel's weights once. It writes a buffer
    that the next call overwrites, and each increment_kernel call makes new
    buffers. Boundary faces carry zero flux."""

    def stepper(self, field: ProbField, ordering: Ordering, dt: float):
        """Each step adds the increment, applies the symmetric sink and checks
        the raw result against the ProbField rules, in the buffer new. Each
        mark's field keeps new, and the steps after it write a buffer made for
        them: a copy per mark instead took about a sixth longer to step a
        128 x 128 Kramers run recorded at 20 marks (2-core x86 host)."""
        sink = self.sink(dt) if ordering is Ordering.SYMMETRIC else None
        increment = self.increment_kernel(dt)
        new = np.empty(field.values.shape)  # each step's increment is taken before new is written

        def step(p: np.ndarray) -> np.ndarray:
            np.add(p, increment(p), out=new)
            if sink is not None:
                np.multiply(new, sink, out=new)
            _check_values(new)
            return new

        def emit(p: np.ndarray, t: float) -> ProbField:
            nonlocal new
            new = np.empty(p.shape)
            return ProbField(p, field.grid, t)

        return field.values, step, emit


class SmoluchowskiOperator(_GridOperator):
    """The overdamped equation's generator on one 1-D problem: face weights,
    dt_max and the symmetric sink exp(-dt V''(x)/2 M gamma). A diffusion
    constant D = k_bt / (M gamma) that vanishes or overflows, which no cell
    width mends, is refused before the rates, by a ParameterError naming
    gamma."""

    bound = "drift-augmented stability bound"

    def __init__(self, grid: PhaseGrid, potential: Potential, params: BathParams):
        if grid.is_2d:
            raise ValueError("expected a 1D grid")
        self.d, self.dx = params.D, grid.dx
        _require(0.0 < self.d < math.inf, "gamma", "give a finite diffusion constant "
                 f"D = k_bt / (M gamma) > 0 (got D = {self.d:g})")
        _check_rate("x", self.d / self.dx**2, f"diffusion rate D / width^2 (D = {self.d:g})",
                    self.dx)
        with np.errstate(over="ignore", invalid="ignore"):  # see _sg_weights
            u = -np.asarray(potential.grad(grid.x_faces)) / (params.mass * params.gamma)
            self.bl, self.br, out_rate = _sg_weights(u, self.dx, self.d)
        _check_rate("x", out_rate, "outflow rate through the drift", self.dx)
        self.dt_max = min(0.4 * self.dx**2 / self.d, 0.9 / out_rate)
        self.grid, self.potential = grid, potential
        self.sink_scale = 2.0 * params.mass * params.gamma

    def increment_kernel(self, dt: float):
        rate = dt * self.d / self.dx**2
        return _sg_kernel(rate * self.bl, rate * self.br, np.empty(self.grid.nx))

    def sink(self, dt: float) -> np.ndarray:
        hess = np.asarray(self.potential.hess(self.grid.x_centers))
        return np.exp(-dt * hess / self.sink_scale)


class KramersOperator(_GridOperator):
    """The phase-space equation's generator on one 2-D problem: v face
    weights, dt_max and gamma, which sets the symmetric sink exp(-gamma dt / 2).

    The stepping kernel works on the flattened (x-major) field, so that each
    operation runs over one contiguous array; the v face weights carry a
    zero last column for the faces that would join one x row to the next.
    """

    bound = "phase-space stability bound"

    def __init__(self, grid: PhaseGrid, potential: Potential, params: BathParams):
        if not grid.is_2d:
            raise ValueError("expected a 2D grid")
        self.dx, self.dv, self.gamma = grid.dx, grid.dv, params.gamma
        self.shape = (grid.nx, grid.nv)
        # speed of every x face, row by row; the centers increase, so the
        # columns moving right (v > 0) are the last ones, from n_left on
        self.speed = np.tile(grid.v_centers, grid.nx - 1)
        self.n_left = grid.nv - int(np.count_nonzero(grid.v_centers > 0))
        # w / 2 M^2, in a form with no M^2 to over- or underflow
        self.d_v = params.gamma * params.k_bt / params.mass
        _check_rate("v", self.d_v / self.dv**2, f"diffusion rate d_v / width^2 (d_v = "
                    f"{self.d_v:g})", self.dv)
        v_top = float(np.max(np.abs(grid.v_centers)))
        adv_rate = 2.0 * v_top / grid.dx
        _check_rate("x", adv_rate, f"advection rate 2 max|v| / width (max|v| = {v_top:g})",
                    grid.dx)
        with np.errstate(over="ignore", invalid="ignore"):  # see _sg_weights
            grad = np.asarray(potential.grad(grid.x_centers))[:, None]
            a = -(params.gamma * grid.v_faces[None, :] + grad / params.mass)
            bl, br, out_rate = _sg_weights(a, self.dv, self.d_v)
        _check_rate("v", out_rate, "outflow rate through the drift", self.dv)
        self.bl, self.br = (np.pad(w, [(0, 0), (0, 1)]).ravel()[:-1] for w in (bl, br))
        self.dt_max = 0.8 / (adv_rate + out_rate)

    def increment_kernel(self, dt: float):
        nx, nv = self.shape
        n, jl = nx * nv, self.n_left
        speed, rate = (dt / self.dx) * self.speed, dt * self.d_v / self.dv**2
        diff, monotone = np.empty(n - nv), np.empty(n - 2 * nv, dtype=bool)
        half_slope = np.zeros(n)  # the first and last x rows stay zero
        # x face fluxes, led by the zero inflow faces of the first x row; the
        # last x row's outflow faces stay zero too
        flux_x, inc, inc_v = np.zeros(n + nv), np.empty(n), np.empty(n)
        face_x, inner = flux_x[nv:n], half_slope[nv:-nv]
        # v drift-diffusion, zero on the last v face of each x row, whose
        # weights are zero
        v_flux = _sg_kernel(rate * self.bl, rate * self.br, inc_v)
        # buffers reused once their first contents are spent
        prod, denom, upwind = inc[: n - 2 * nv], inc_v[: n - 2 * nv], diff

        def increment(p: np.ndarray) -> np.ndarray:
            p = p.reshape(-1)
            # x transport at speed v: half the van Leer (harmonic mean) slope,
            # prod / denom, zero at the boundary, and the upwind face value of
            # the limited second-order reconstruction: the left cell's where
            # v > 0, the right cell's elsewhere
            np.subtract(p[nv:], p[:-nv], out=diff)
            np.multiply(diff[:-nv], diff[nv:], out=prod)
            np.greater(prod, 0, out=monotone)
            np.add(diff[:-nv], diff[nv:], out=denom)
            inner.fill(0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(prod, denom, out=inner, where=monotone)
            np.add(p[:-nv], half_slope[:-nv], out=face_x)
            np.subtract(p[nv:], half_slope[nv:], out=upwind)
            face_x.reshape(nx - 1, nv)[:, :jl] = upwind.reshape(nx - 1, nv)[:, :jl]
            np.multiply(speed, face_x, out=face_x)
            np.subtract(flux_x[:-nv], flux_x[nv:], out=inc)
            np.add(inc, v_flux(p), out=inc)
            return inc.reshape(nx, nv)

        return increment


def smoluchowski_dt_max(
    grid: PhaseGrid, potential: Potential, params: BathParams
) -> float:
    """Largest stable explicit step for smoluchowski_step on this problem.
    Builds the operator; a caller that also steps keeps its dt_max instead."""
    return SmoluchowskiOperator(grid, potential, params).dt_max


def smoluchowski_step(field: ProbField, potential: Potential, params: BathParams,
                      ordering: Ordering, dt: float) -> ProbField:
    """One explicit step of the overdamped equation.

    Momenta-left: dP/dt = D d^2P/dx^2 + (1/M gamma) d/dx [V'(x) P] in flux
    form. Symmetric ordering multiplies the result by exp(-dt V''(x)/2 M gamma).
    Each call builds the operator: to take many steps, build
    SmoluchowskiOperator once and call its advance.
    """
    return SmoluchowskiOperator(field.grid, potential, params).advance(
        field, ordering, dt, 1)


def kramers_dt_max(grid: PhaseGrid, potential: Potential, params: BathParams) -> float:
    """Largest stable explicit step for kramers_step on this problem.
    Builds the operator; a caller that also steps keeps its dt_max instead."""
    return KramersOperator(grid, potential, params).dt_max


def kramers_step(field: ProbField, potential: Potential, params: BathParams,
                 ordering: Ordering, dt: float) -> ProbField:
    """One explicit step of the phase-space equation.

    Momenta-left: dP/dt = -d/dx(v P) + d/dv[(gamma v + V'(x)/M) P]
    + (w/2M^2) d^2P/dv^2 in flux form. Symmetric ordering multiplies the
    result by exp(-gamma dt / 2). Each call builds the operator: to take many
    steps, build KramersOperator once and call its advance.
    """
    return KramersOperator(field.grid, potential, params).advance(
        field, ordering, dt, 1)


@dataclass(frozen=True)
class ComparisonRecord:
    """Histogram-vs-grid distance at one time, with error budget."""

    t: float
    l1: float
    sup: float
    stat_err: float
    disc_err: float
    ens_mean: float
    ens_var: float
    fp_mean: float
    fp_var: float
    n_samples: int

    def as_dict(self) -> dict:
        return asdict(self)


def _step_count(t: float, dt: float) -> int:
    """The step k >= 0 at which a run of step dt reaches the compare time t,
    k dt = t within 1e-9 max(1, t); a t that is no such multiple raises the
    ParameterError of compare's times."""
    k = t / dt
    if 0.0 <= k < math.inf and abs(round(k) * dt - t) <= 1e-9 * max(1.0, t):
        return round(k)
    raise ParameterError("times", f"be multiples of dt = {dt:g} that are >= 0 (got {t})")


def _compare_steps(grid: PhaseGrid, times, dt: float, x0: float, n_bins: int) -> list[int]:
    """The step of dt at which a comparison reaches each of its times, for
    arguments that pass its checks: a finite dt > 0, tested first, since a
    caller may run this before any SimConfig tests dt; a 1-D grid, n_bins >= 1
    bins that divide its nx cells, times that are multiples of dt, and a
    start x0 inside the grid. Each refused parameter raises ParameterError;
    compare_langevin_fp runs this first, and a caller may run it before any
    work."""
    _positive("dt", dt)
    if grid.is_2d:
        raise ValueError("comparison runs on a 1D grid")
    if not (n_bins >= 1 and grid.nx % n_bins == 0):
        raise ParameterError("n_bins", f"be >= 1 and divide nx = {grid.nx}")
    steps = [_step_count(t, dt) for t in times]
    if not grid.x_min < x0 < grid.x_max:
        raise ParameterError("x0", f"lie inside the x grid ({grid.x_min:g}, {grid.x_max:g}) "
                             f"(got {x0:g})")
    return steps


# grid substeps per Langevin step that a comparison admits: a stated bound, not
# this host's speed. It is 341 times the 12 of the benchmark's compare and of
# criterion 6; at the bound a Langevin step takes about 28 ms of grid steps on
# 512 cells (6.8 us a substep, 2-core x86 host)
_MAX_SUBSTEPS = 4096


def _substeps(dt: float, dt_max: float) -> int:
    """The grid steps m = ceil(dt / dt_max) >= 1 that a comparison takes per
    Langevin step dt; more than _MAX_SUBSTEPS raise the ParameterError of
    dt, before any work."""
    if not dt <= _MAX_SUBSTEPS * dt_max:
        raise ParameterError("dt", f"be at most {_MAX_SUBSTEPS:,} times the grid's stable step "
                             f"dt_max = {dt_max:g} (got {dt:g})")
    return max(1, math.ceil(dt / dt_max))


def compare_langevin_fp(
    config: SimConfig,
    grid: PhaseGrid,
    times: tuple[float, ...],
    n_bins: int = 64,
) -> tuple[list[ComparisonRecord], EnsembleStats]:
    """Overdamped ensemble histogram vs grid solution at the given times.

    A point initial condition is widened to a Gaussian of width 2*dx on both
    sides so the two initializations agree. The grid solver substeps each
    Langevin dt as needed for stability. Returns the per-time records and the
    ensemble statistics (whose snapshots fed the histograms). Bad arguments
    raise ValueError before any work (_compare_steps, _substeps, the start
    field's width, and run_ensemble's test of the snapshot steps, for times
    beyond the run); ensemble samples outside the grid at a requested time
    raise RuntimeError after the run.
    """
    steps_at = _compare_steps(grid, times, config.dt, config.x0, n_bins)
    op = SmoluchowskiOperator(grid, config.potential, config.params)
    m = _substeps(config.dt, op.dt_max)
    dt_fp = config.dt / m
    sigma0 = config.sigma_x if config.sigma_x > 0 else 2.0 * grid.dx
    field = gaussian_field_1d(grid, config.x0, sigma0)
    stats = run_ensemble(replace(config, sigma_x=sigma0), "overdamped",
                         snapshot_steps=tuple(steps_at))

    marked = sorted(set(steps_at) - {0})
    fields = dict(zip(marked, op.records(field, Ordering.MOMENTA_LEFT, dt_fp,
                                         [m * k for k in marked])))
    fields[0] = field

    cells_per_bin = grid.nx // n_bins
    bin_width = grid.dx * cells_per_bin
    edges = grid.x_min + np.arange(n_bins + 1) * bin_width
    max_curv = float(np.max(np.abs(config.potential.hess(grid.x_centers))))

    records = []
    for t, k in zip(times, steps_at):
        samples = stats.snapshots[k]
        samples = samples[np.isfinite(samples)]
        if samples.size and (
            samples.min() < grid.x_min or samples.max() > grid.x_max
        ):
            raise RuntimeError("mismatched domains: ensemble samples left the grid")
        counts, _ = np.histogram(samples, bins=edges)
        dens_ens = counts / (samples.size * bin_width)
        fld = fields[k]
        bin_mass = fld.values.reshape(n_bins, cells_per_bin).sum(axis=1) * grid.dx
        dens_fp = bin_mass / bin_width
        l1 = float(np.sum(np.abs(dens_ens - dens_fp)) * bin_width)
        sup = float(np.max(np.abs(dens_ens - dens_fp)))
        q = np.clip(bin_mass, 0.0, 1.0)
        stat = float(np.sum(np.sqrt(2.0 * q * (1.0 - q) / (np.pi * samples.size))))
        fp_mean, fp_var = fld.moments()
        disc = (
            0.5 * config.dt * max_curv / (config.params.mass * config.params.gamma)
            + (bin_width**2 + grid.dx**2) / (12.0 * max(fp_var, 1e-300))
        )
        ens_mean = float(samples.mean()) if samples.size else float("nan")
        ens_var = float(samples.var(ddof=1)) if samples.size > 1 else float("nan")
        records.append(ComparisonRecord(
            t=float(t), l1=l1, sup=sup, stat_err=stat, disc_err=float(disc),
            ens_mean=ens_mean, ens_var=ens_var, fp_mean=fp_mean, fp_var=fp_var,
            n_samples=int(samples.size)))
    return records, stats
