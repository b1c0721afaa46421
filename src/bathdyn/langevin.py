"""Langevin integrators with inertia and overdamped, plus ensemble statistics.

All steppers use the pre-point (retarded) convention: friction and force are
evaluated at the earlier time point, which is what makes the trajectory-to-noise
Jacobian trivial and needs no drift correction for additive noise. A post-point
stepper is exposed as a diagnostic; at finite dt its stationary-moment bias has
the opposite sign. It solves its implicit relation by fixed-point iteration for
each trajectory separately; a trajectory whose iteration goes non-finite or has
not converged after 200 rounds is set to NaN, so it counts as diverged in an
ensemble and makes the single-step call raise.

Every mode has one update rule (_advance), applied to arrays of trajectories by
the ensemble routines and to a single trajectory by the step_* functions. Both
ensemble routines share one chunk driver (_chunks), and _evolve_chunk steps
each chunk on the caller's arrays and one spare pair, with no per-chunk copy.
In every mode a trajectory that diverges is non-finite from that step on, and
is counted from its state at the recorded steps and at the end.

The driving noise is white with per-step variance w/dt, w = 2 M gamma k_B T.
Trajectories are drawn in fixed blocks of _BLOCK: block b holds trajectories
b*_BLOCK .. (b+1)*_BLOCK - 1 and draws one array of shape (m, n0 + steps) from
derive_rng(master_seed, b), m the block's size. Row j belongs to trajectory
b*_BLOCK + j: first the initial-condition normals (n0 = 1 for overdamped, 2 for
inertial), then the step noise. A trajectory's numbers depend only on the seed,
its index and the step count, not on n_traj or the chunk size, so a shorter
ensemble is the prefix of a longer one and any routine that draws whole blocks
reproduces the ensemble bit for bit. The step noise is stored time-major,
(steps, trajectories), so each step reads one contiguous row. A run holds one
such buffer, sized for one chunk and reused by every chunk, and draws each
block into it through one small row-group buffer: a block's array is never
held whole, though its numbers are exactly those of the one call.

A chunk is at most _CHUNK_BLOCKS = 8 blocks, and within _CHUNK_BUDGET noise
values unless one block needs more. Noise that no step reads yet buys nothing
once a step's numpy calls are amortized over the chunk. Measured in process
(median of 9 interleaved runs, one CPU of a 2-core x86_64 host): a 20,000 x
100 overdamped run took the same time, within 2%, with chunks of 20 blocks
down to 5, while a 16,000 x 400 inertial double-well run took 8% longer at 4
blocks and 18% at 2. With the cap, the 20,000 x 100 run holds a 5.7 MB noise
buffer, not 16 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import BathParams, ParameterError, _positive, _require
from .noise import derive_rng, lagged_products
from .potentials import Potential

__all__ = [
    "InertialState",
    "SimConfig",
    "EnsembleStats",
    "ExpectationResult",
    "step_inertial",
    "step_overdamped",
    "step_overdamped_postpoint",
    "run_ensemble",
    "noise_expectation",
    "StabilityError",
]

# cap on trajectories*steps kept in memory per vectorized chunk; a chunk holds
# at least one block whatever the cap. A run's noise memory is one (steps,
# chunk) buffer, reused by every chunk, plus the row-group buffer each block is
# drawn through (see _noise_buffers)
_CHUNK_BUDGET = 1 << 22
# bytes of the row-group buffer, unless chunk // 64 rows need more
_GROUP_BYTES = 1 << 18
# trajectories per noise generator; fixed, so results do not depend on chunking
_BLOCK = 1024
# most blocks per chunk, however short the rows: the step kernel's per-call
# cost is amortized by then (see _chunk_size)
_CHUNK_BLOCKS = 8
_MODES = ("inertial", "overdamped", "overdamped_postpoint")


class StabilityError(ValueError):
    """Explicit-step stability bound violated; carries a usable dt. The
    Langevin steps' bounds raise it, as do the grid and master operators'."""

    def __init__(self, message: str, suggested_dt: float):
        super().__init__(f"{message}; suggested dt <= {suggested_dt:.6g}")
        self.suggested_dt = suggested_dt


@dataclass(frozen=True)
class InertialState:
    """Phase-space point (position, velocity)."""

    x: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.v)):
            raise ValueError("state must be finite")


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run description.

    Initial conditions are a Gaussian cloud centered at (x0, v0) with widths
    (sigma_x, sigma_v); zero width means a point start. dt must be finite and
    > 0, steps and n_traj >= 1, x0 and v0 finite and the widths finite and
    >= 0, each refused with a ParameterError naming it; then dt must keep
    within the friction bound (_check_dt, a StabilityError).
    """

    potential: Potential
    params: BathParams
    dt: float
    steps: int
    n_traj: int
    master_seed: int
    x0: float = 0.0
    v0: float = 0.0
    sigma_x: float = 0.0
    sigma_v: float = 0.0

    def __post_init__(self):
        _positive("dt", self.dt)
        _require(self.steps >= 1, "steps", "be >= 1")
        _require(self.n_traj >= 1, "n_traj", "be >= 1")
        _require(math.isfinite(self.x0), "x0", "be finite")
        _require(math.isfinite(self.v0), "v0", "be finite")
        _require(0.0 <= self.sigma_x < math.inf, "sigma_x", "be finite and >= 0")
        _require(0.0 <= self.sigma_v < math.inf, "sigma_v", "be finite and >= 0")
        _check_dt(self.params, self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


def _check_dt(params: BathParams, dt: float):
    """Refuse a dt at which dt gamma reaches 0.1, suggesting 0.09 / gamma."""
    if not dt * params.gamma < 0.1:
        raise StabilityError("dt too large for the friction scale: need dt*gamma < 0.1, "
                             f"got {dt * params.gamma:.3g}", 0.09 / params.gamma)


def _check_dt_overdamped(potential: Potential, params: BathParams, dt: float,
                         x0: float, sigma_x: float = 0.0):
    """Refuse a dt at which the overdamped relaxation rate V''(x)/(M gamma)
    reaches 0.1/dt on the initial support: x0 +- 6 sigma_x, sampled at 1,025
    points that include both ends, or x0 alone for a point start, and
    suggest 0.09 over that rate. For a harmonic well of the bath's mass the
    rate is omega0^2/gamma."""
    support = np.linspace(x0 - 6.0 * sigma_x, x0 + 6.0 * sigma_x, 1025 if sigma_x > 0 else 1)
    rate = float(np.max(potential.hess(support))) / (params.mass * params.gamma)
    if not dt * rate < 0.1:
        raise StabilityError("dt too large for the relaxation scale: need dt*V''/(M gamma) "
                             f"< 0.1 over the initial support, got {dt * rate:.3g}",
                             0.09 / rate)


def _advance(mode: str, potential: Potential, params: BathParams, dt: float,
             x: np.ndarray, v: np.ndarray, eta: np.ndarray, out: tuple | None = None):
    """One step of `mode` for every trajectory in the arrays x, v under noise eta.

    Returns (x_new, v_new), non-finite where the step diverged or the
    post-point solve did not converge. A pre-point step given out = (x_out,
    v_out) writes there, not into x or v; overdamped modes return v as v_new.
    The caller sets np.errstate.
    """
    m, gamma = params.mass, params.gamma
    if mode == "overdamped_postpoint":
        return _postpoint_solve(potential, x, dt / (m * gamma), eta), v
    x_new, v_new = out or (np.empty_like(x), np.empty_like(v))
    force = potential.grad(x)
    if mode == "inertial":
        # v + dt * (-gamma * v - force / m + eta / m), x + dt * v; x_new is scratch
        np.subtract(np.multiply(-gamma, v, out=v_new), np.divide(force, m, out=x_new),
                    out=v_new)
        np.add(v_new, np.divide(eta, m, out=x_new), out=v_new)
        np.add(v, np.multiply(dt, v_new, out=v_new), out=v_new)
        np.add(x, np.multiply(dt, v, out=x_new), out=x_new)
    else:  # overdamped: x + (dt / (m gamma)) * (-V'(x) + eta)
        np.subtract(eta, force, out=x_new)
        np.add(x, np.multiply(dt / (m * gamma), x_new, out=x_new), out=x_new)
        v_new = v
    return x_new, v_new


def _postpoint_solve(potential: Potential, x: np.ndarray, c: float, eta: np.ndarray):
    """Per-trajectory fixed point of y = x + c(-V'(y) + eta), starting at y = x.

    A trajectory stops once |y_next - y| <= 1e-14 max(1, |y_next|), or once
    y_next is non-finite, as it is after the first round for a dead (NaN) x;
    the others go on. Returns y, NaN where the solve was still iterating
    after 200 rounds.
    """
    y = x.copy()
    pending = np.ones(x.shape, dtype=bool)
    for _ in range(200):
        if not pending.any():
            break
        y_next = x + c * (-potential.grad(y) + eta)
        # NaN and inf compare False here, so a non-finite y_next stops too
        moving = np.abs(y_next - y) > 1e-14 * np.maximum(1.0, np.abs(y_next))
        np.copyto(y, y_next, where=pending)
        pending &= moving
    y[pending] = np.nan
    return y


def _step_one(mode: str, potential: Potential, params: BathParams, dt: float,
              x: float, v: float, eta: float) -> tuple[float, float]:
    """_advance on a single trajectory; a failed step raises RuntimeError."""
    with np.errstate(over="ignore", invalid="ignore"):
        x_new, v_new = _advance(mode, potential, params, dt, np.array([x], dtype=float),
                                np.array([v], dtype=float), np.array([eta], dtype=float))
    if not (math.isfinite(x_new[0]) and math.isfinite(v_new[0])):
        raise RuntimeError("trajectory diverged" + (", or its post-point solve did not converge"
                                                    if mode == "overdamped_postpoint" else ""))
    return float(x_new[0]), float(v_new[0])


def step_inertial(
    state: InertialState,
    potential: Potential,
    params: BathParams,
    eta: float,
    dt: float,
) -> InertialState:
    """One pre-point step of M dv = (-M gamma v - V'(x) + eta) dt, dx = v dt."""
    _check_dt(params, dt)
    x_new, v_new = _step_one("inertial", potential, params, dt, state.x, state.v, eta)
    return InertialState(x_new, v_new)


def step_overdamped(
    x: float, potential: Potential, params: BathParams, eta: float, dt: float
) -> float:
    """One pre-point step of M gamma dx = (-V'(x) + eta) dt."""
    _check_dt(params, dt)
    _check_dt_overdamped(potential, params, dt, x)
    return _step_one("overdamped", potential, params, dt, x, 0.0, eta)[0]


def step_overdamped_postpoint(
    x: float, potential: Potential, params: BathParams, eta: float, dt: float
) -> float:
    """Post-point (advanced) overdamped step, solved by fixed-point iteration.

    Diagnostic counterpart of step_overdamped: the force is evaluated at the
    LATER point, x+ = x + (dt/M gamma)(-V'(x+) + eta). Its stationary-variance
    bias on a harmonic well has the opposite sign to the pre-point stepper.
    """
    _check_dt(params, dt)
    _check_dt_overdamped(potential, params, dt, x)
    return _step_one("overdamped_postpoint", potential, params, dt, x, 0.0, eta)[0]


@dataclass
class EnsembleStats:
    """Moments, final-state samples, histogram, and optional autocorrelation.

    final_x/final_v hold one entry per trajectory, NaN where the trajectory
    diverged; moments and histograms use the surviving entries only.
    snapshots maps a step index to the per-trajectory positions at that step.
    """

    n_traj: int
    n_diverged: int
    steps: int
    dt: float
    final_x: np.ndarray
    final_v: np.ndarray | None
    mean_x: float
    var_x: float
    se_x: float
    mean_v: float
    var_v: float
    se_v: float
    cov_xv: float
    se_cov_xv: float
    hist_edges: np.ndarray
    hist_density: np.ndarray
    autocorr: np.ndarray | None = None
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


def _chunk_size(n: int, row: int) -> int:
    """Trajectories per chunk, at most n: the fewest chunks of whole blocks (one
    or more, at most _CHUNK_BLOCKS) whose `row` values per trajectory fit
    _CHUNK_BUDGET, split evenly.

    The budget bounds long rows; the cap bounds short ones, whose chunks the
    budget alone would let grow to the whole run. Eight blocks is where each
    step's numpy calls are amortized: a 20,000 x 100 overdamped run took the
    same time, within 2%, with chunks of 20 blocks down to 5, and a 16,000 x
    400 inertial run 8% longer at 4 blocks and 18% at 2 (module docstring).
    """
    blocks = -(-n // _BLOCK)
    per = min(_CHUNK_BLOCKS, max(1, _CHUNK_BUDGET // (row * _BLOCK)))
    return min(n, -(-blocks // -(-blocks // per)) * _BLOCK)


def _noise_buffers(config: SimConfig, mode: str, chunk: int):
    """A run's step-noise buffer, (steps, chunk), and row-group buffer,
    (rows, n0 + steps), 1 <= rows <= _BLOCK.

    rows fills _GROUP_BYTES but is at least chunk // 64: every group write
    touches each noise row, so on long runs, where _GROUP_BYTES holds a row
    or two, the floor keeps the writes from scattering single values. The
    group then costs at most 1/64 of the noise buffer.
    """
    row = (2 if mode == "inertial" else 1) + config.steps
    rows = min(_BLOCK, max(1, _GROUP_BYTES // (8 * row), chunk // 64))
    return np.empty((config.steps, chunk)), np.empty((rows, row))


def _draw_chunk(config: SimConfig, g0: int, g1: int, noise: np.ndarray,
                group: np.ndarray):
    """Initial conditions and step noise for trajectories g0..g1-1.

    g0 must be a multiple of _BLOCK. noise and group are the run's buffers
    from _noise_buffers; n0 = group.shape[1] - steps. Each block fills group
    from its one generator, a few rows at a time: a C-order fill in row
    groups continues the stream exactly as one (m, n0 + steps) draw would.
    Returns (x0s, v0s, eta) with eta = noise[:, :g1 - g0], scaled step noise
    of shape (steps, g1 - g0): eta[k] is every trajectory's noise at step k.
    eta stays valid until the next call overwrites the buffer.
    """
    n0 = group.shape[1] - config.steps
    scale = math.sqrt(config.params.w / config.dt)
    z0 = np.empty((g1 - g0, n0))
    eta = noise[:, : g1 - g0]
    for b0 in range(g0, g1, _BLOCK):
        b1 = min(g1, b0 + _BLOCK)
        rng = derive_rng(config.master_seed, b0 // _BLOCK)
        for r0 in range(b0 - g0, b1 - g0, len(group)):
            r1 = min(b1 - g0, r0 + len(group))
            z = group[: r1 - r0]
            rng.standard_normal(z.shape, out=z)
            z0[r0:r1] = z[:, :n0]
            np.multiply(z[:, n0:].T, scale, out=eta[:, r0:r1])
    x0s = config.x0 + config.sigma_x * z0[:, 0]
    if n0 == 2:
        v0s = config.v0 + config.sigma_v * z0[:, 1]
    else:
        v0s = np.full(g1 - g0, config.v0)
    return x0s, v0s, eta


def _chunks(config: SimConfig, mode: str, row: int):
    """The run's chunks of _chunk_size(n_traj, row) trajectories, in order, as
    (g0, g1, x0s, v0s, eta) from _draw_chunk. One pair of _noise_buffers
    serves them all: each eta is overwritten by the next chunk's draw, and
    the last one keeps the noise buffer alive until the caller drops it."""
    n = config.n_traj
    chunk = _chunk_size(n, row)
    noise, group = _noise_buffers(config, mode, chunk)
    for g0 in range(0, n, chunk):
        g1 = min(n, g0 + chunk)
        yield (g0, g1, *_draw_chunk(config, g0, g1, noise, group))


def _evolve_chunk(
    config: SimConfig,
    mode: str,
    x: np.ndarray,
    v: np.ndarray,
    eta: np.ndarray,
    snaps: dict[int, np.ndarray],
    series: np.ndarray | None = None,
    v_series: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized stepping of one chunk: x and v, its initial state, end as its final.

    The steps alternate between x, v and one spare pair of buffers. A
    trajectory that diverges is non-finite from that step on, in every mode,
    so alive is read from the state at recorded steps and at the end.
    eta has shape (steps, chunk). The caller owns the outputs: snaps maps a
    step to a chunk-long array for the positions then (NaN when dead); series
    and v_series, when given, are time-major (steps + 1, k) arrays for the
    first k trajectories' positions and velocities (NaN once dead). Returns alive.
    """
    pot, params, dt = config.potential, config.params, config.dt
    state, spare = (x, v), (np.empty_like(x), np.empty_like(v))
    stored = [(out, i) for i, out in enumerate((series, v_series)) if out is not None]

    def alive_in(n=None):  # alive among the first n trajectories now
        return np.isfinite(state[0][:n]) & np.isfinite(state[1][:n])

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.steps + 1):
            if k:
                new = _advance(mode, pot, params, dt, *state, eta[k - 1], spare)
                spare, state = state, new
            for out, i in stored:
                out[k] = np.where(alive_in(out.shape[1]), state[i][: out.shape[1]], np.nan)
            if k in snaps:
                snaps[k][:] = np.where(alive_in(), state[0], np.nan)
        x[:], v[:] = state
        return alive_in()


def _validate_run(config: SimConfig, mode: str, snapshot_steps):
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if mode != "inertial":
        _check_dt_overdamped(config.potential, config.params, config.dt, config.x0,
                             config.sigma_x)
    for s in snapshot_steps:
        if not 0 <= int(s) <= config.steps:
            raise ValueError("snapshot step out of range")


def run_ensemble(
    config: SimConfig,
    mode: str = "overdamped",
    *,
    snapshot_steps: tuple[int, ...] = (),
    histogram_bins: int = 64,
    autocorr_lags: int = 0,
) -> EnsembleStats:
    """Evolve n_traj independent trajectories and accumulate statistics.

    Deterministic given config.master_seed. Diverged trajectories are counted
    and excluded from every statistic. autocorr_lags > 0 adds a
    time-averaged position autocorrelation estimated from the first
    min(256, n_traj) trajectories. Each chunk steps its slice of the final
    state, the snapshots and the stored series in place. A count of
    histogram_bins that cannot split the survivors' range into finite bins
    (a lone survivor beyond 2^52, say) raises RuntimeError, a numerical
    failure of the run; invalid bins raise ValueError, and autocorr_lags
    outside [0, steps] a ParameterError before any work. A moment whose sums
    overflow over the survivors is returned as it is, inf or NaN.
    """
    snapshot_steps = tuple(int(s) for s in snapshot_steps)
    _validate_run(config, mode, snapshot_steps)
    if not 0 <= autocorr_lags <= config.steps:
        raise ParameterError("autocorr_lags", "be in [0, steps]")
    n, steps = config.n_traj, config.steps
    n_sub = min(256, n) if autocorr_lags > 0 else 0

    final_x, final_v = np.empty(n), np.empty(n)
    alive_all = np.empty(n, dtype=bool)
    snaps_all = {s: np.empty(n) for s in snapshot_steps}
    sub_series = np.empty((n_sub, steps + 1)) if n_sub else None

    for g0, g1, x0s, v0s, eta in _chunks(config, mode, steps):
        final_x[g0:g1], final_v[g0:g1] = x0s, v0s
        alive_all[g0:g1] = _evolve_chunk(
            config, mode, final_x[g0:g1], final_v[g0:g1], eta,
            {s: a[g0:g1] for s, a in snaps_all.items()},
            series=sub_series[g0:min(g1, n_sub)].T if g0 < n_sub else None,
        )
    # the noise buffer is the largest array of a long run; the statistics
    # below do not need it, and the last chunk's eta is its last reference
    del eta

    final_x[~alive_all] = np.nan
    final_v[~alive_all] = np.nan
    n_alive = int(alive_all.sum())

    xs = final_x[alive_all]
    # a moment that overflows over the survivors is returned as it is, with
    # no numpy warning: the caller judges it (cli._write_moments fails the run)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_x, var_x, se_x = _moments(xs)
        if mode == "inertial":
            vs = final_v[alive_all]
            mean_v, var_v, se_v = _moments(vs)
            cov_xv, se_cov = _cross(xs, vs)
        else:
            final_v = None
            mean_v = var_v = se_v = cov_xv = se_cov = float("nan")

    try:
        counts, edges = np.histogram(xs, bins=histogram_bins)
    except ValueError as exc:
        if np.ndim(histogram_bins) or not histogram_bins >= 1:
            raise  # the caller's bins, not the survivors, are at fault
        raise RuntimeError(f"histogram of the survivors: {exc}") from exc
    widths = np.diff(edges)
    total = counts.sum()
    density = counts / (total * widths) if total > 0 else np.zeros_like(widths)

    autocorr = None
    if n_sub:
        keep = alive_all[:n_sub]
        autocorr = lagged_products(sub_series if keep.all() else sub_series[keep],
                                   autocorr_lags)

    return EnsembleStats(
        n_traj=n, n_diverged=n - n_alive, steps=steps, dt=config.dt,
        final_x=final_x, final_v=final_v, mean_x=mean_x, var_x=var_x, se_x=se_x,
        mean_v=mean_v, var_v=var_v, se_v=se_v, cov_xv=cov_xv, se_cov_xv=se_cov,
        hist_edges=edges, hist_density=density,
        autocorr=autocorr, snapshots=snaps_all)


def _moments(vals: np.ndarray) -> tuple[float, float, float]:
    if vals.size == 0:
        return float("nan"), float("nan"), float("nan")
    mean = float(vals.mean())
    var = float(vals.var(ddof=1)) if vals.size > 1 else 0.0
    se = math.sqrt(var / vals.size)
    return mean, var, se


def _cross(xs: np.ndarray, vs: np.ndarray) -> tuple[float, float]:
    if xs.size < 2:
        return float("nan"), float("nan")
    prod = (xs - xs.mean()) * (vs - vs.mean())
    cov = float(prod.sum() / (xs.size - 1))
    se = float(prod.std(ddof=1) / math.sqrt(xs.size))
    return cov, se


@dataclass(frozen=True)
class ExpectationResult:
    """Monte-Carlo estimate of a noise-averaged functional."""

    value: float
    stderr: float
    n_used: int
    n_diverged: int


def noise_expectation(
    functional,
    config: SimConfig,
    mode: str = "overdamped",
) -> ExpectationResult:
    """Ensemble average of a trajectory functional with stderr s/sqrt(n).

    functional(times, xs, vs) -> float receives the full trajectory; vs is
    None outside inertial mode. No reweighting is applied: with pre-point
    stepping the trajectory measure already matches the noise measure (the
    discrete Jacobian is unity). Draws the same noise blocks as run_ensemble
    through the same chunk driver, so functionals of the final state
    reproduce its moments exactly. A diverged trajectory, or a non-finite
    functional value, is left out of the average.
    """
    _validate_run(config, mode, ())
    n, steps = config.n_traj, config.steps
    times = config.times
    vals = np.full(n, np.nan)

    for g0, g1, x0s, v0s, eta in _chunks(config, mode, steps + 1):
        series = np.empty((steps + 1, g1 - g0))
        v_series = np.empty_like(series) if mode == "inertial" else None
        alive = _evolve_chunk(config, mode, x0s, v0s, eta, {}, series, v_series)
        for j in np.flatnonzero(alive):
            vrow = v_series[:, j] if v_series is not None else None
            vals[g0 + j] = functional(times, series[:, j], vrow)

    used = vals[np.isfinite(vals)]
    n_used = int(used.size)
    mean, _, se = _moments(used)
    if n_used == 1:
        se = float("nan")
    return ExpectationResult(mean, se, n_used, n - n_used)
