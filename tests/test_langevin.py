"""Stochastic integrators: step algebra, determinism, stationary statistics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import bathdyn.langevin as lv
from bathdyn import (
    BathParams,
    DoubleWell,
    Harmonic,
    InertialState,
    ParameterError,
    Polynomial,
    SimConfig,
    noise_expectation,
    run_ensemble,
    step_inertial,
    step_overdamped,
    step_overdamped_postpoint,
)
from bathdyn.noise import lagged_products

PARAMS = BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=0.0)
POT = Harmonic(mass=1.0, omega0=1.0)


def _config(**kw):
    base = dict(potential=POT, params=PARAMS, dt=0.01, steps=100, n_traj=200,
                master_seed=123)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        _config(dt=0.0)
    with pytest.raises(ValueError):
        _config(steps=0)
    with pytest.raises(ValueError):
        _config(n_traj=0)
    with pytest.raises(ValueError):
        _config(sigma_x=-1.0)
    for width in ("sigma_x", "sigma_v"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=f"^{width} must be finite and >= 0$"):
                _config(**{width: bad})
    with pytest.raises(ValueError, match="friction scale"):
        _config(dt=0.06)  # dt * gamma = 0.12
    cfg = _config()
    assert cfg.times.shape == (101,)
    assert cfg.times[-1] == 100 * 0.01


@pytest.mark.parametrize("gamma", [2.0, 0.3, 7.0])
def test_friction_guard_raises_stability_error_with_a_dt_it_accepts(gamma):
    """dt gamma must stay under 0.1 in every Langevin step and ensemble: a dt
    at or over it raises StabilityError, which is the grid operators' class
    and a ValueError, suggesting 0.09 / gamma, which the guard accepts."""
    from bathdyn import StabilityError, fokker_planck

    assert StabilityError is fokker_planck.StabilityError and issubclass(StabilityError,
                                                                          ValueError)
    params = BathParams(mass=1.0, gamma=gamma, k_bt=0.5, hbar=0.0)
    for dt in (0.1 / gamma, 0.12 / gamma):
        with pytest.raises(StabilityError, match="^dt too large for the friction scale") as exc:
            _config(params=params, dt=dt)
        assert exc.value.suggested_dt == 0.09 / gamma
        _config(params=params, dt=exc.value.suggested_dt)
        with pytest.raises(StabilityError):
            step_inertial(InertialState(0.0, 0.0), POT, params, 0.0, dt)


def test_overdamped_relaxation_guard():
    stiff = Harmonic(mass=1.0, omega0=4.0)  # dt * omega0^2 / gamma = 0.08 ok
    params = BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=0.0)
    with pytest.raises(ValueError, match="relaxation"):
        step_overdamped(0.0, stiff, params, 0.0, 0.02)  # rate*dt = 0.16


@st.composite
def _curved_starts(draw):
    """A DoubleWell or a Polynomial of degree <= 4 with its ascending
    coefficients, a bath, a dt and an initial point and width."""
    if draw(st.booleans()):
        a, b = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 3.0))
        pot, coeffs = DoubleWell(a=a, b=b), (0.0, 0.0, a, 0.0, b)
    else:
        coeffs = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5)))
        pot = Polynomial(coeffs=coeffs)
    params = BathParams(mass=draw(st.floats(0.5, 2.0)), gamma=draw(st.floats(0.5, 3.0)),
                        k_bt=1.0, hbar=0.0)
    sigma_x = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    return pot, coeffs, params, draw(st.floats(1e-4, 0.5)), draw(st.floats(-3.0, 3.0)), sigma_x


def _largest_curvature(coeffs, lo, hi):
    """max V'' over [lo, hi] for the polynomial V: at an end, or where V'' is
    stationary inside. A subnormal leading coefficient sends a root past the
    largest float: it overflows to +-inf, outside [lo, hi]."""
    with np.errstate(over="ignore"):
        roots = P.polyroots(P.polyder(coeffs, 3))
    inner = [r.real for r in roots if r.imag == 0 and lo < r.real < hi]
    return max(P.polyval(x, P.polyder(coeffs, 2)) for x in (lo, hi, *inner))


_CONCAVE = (0.0, 0.0, 1.0, 0.0, -1.0)  # V'' = 2 - 12 x^2 peaks inside any support around 0
_TINY_QUARTIC = (0.0, 0.0, 0.0, 1.0, 2.2250738585e-313)  # V'' stationary near x = -1e312


@settings(max_examples=300, deadline=None)
@given(_curved_starts())
@example((Polynomial(_CONCAVE), _CONCAVE, BathParams(1.0, 1.0, 1.0, 0.0), 0.1, 0.0, 1.0))
@example((Polynomial(_TINY_QUARTIC), _TINY_QUARTIC, BathParams(1.0, 1.0, 1.0, 0.0), 0.5, 0.0, 0.0))
def test_overdamped_guard_reads_the_curvature_over_the_initial_support(start):
    """The guard refuses dt exactly when dt max V''/(M gamma) over x0 +- 6
    sigma_x reaches 0.1, up to two stated slacks. Its 1,025 samples include
    both ends, where a convex V'' (quartic coefficient c4 >= 0) peaks, and
    miss the interior peak of a concave one by at most |V''''| (h/2)^2 / 2 =
    3 |c4| h^2 at spacing h. And 1e-9 is far above the roundoff of
    evaluating V'' (terms below 1e4) in two orders. A refusal suggests a dt
    that passes."""
    pot, coeffs, params, dt, x0, sigma_x = start
    lo, hi = x0 - 6.0 * sigma_x, x0 + 6.0 * sigma_x
    scale = dt / (params.mass * params.gamma)
    rate = scale * _largest_curvature(coeffs, lo, hi)
    c4 = coeffs[4] if len(coeffs) == 5 else 0.0
    slack = scale * 3.0 * max(-c4, 0.0) * ((hi - lo) / 1024) ** 2
    if rate < 0.1 - 1e-9:
        lv._check_dt_overdamped(pot, params, dt, x0, sigma_x)
    elif rate - slack >= 0.1 + 1e-9:
        with pytest.raises(ValueError, match="^dt too large for the relaxation scale") as exc:
            lv._check_dt_overdamped(pot, params, dt, x0, sigma_x)
        suggested = float(str(exc.value).rsplit("<= ", 1)[1])
        lv._check_dt_overdamped(pot, params, suggested, x0, sigma_x)


def test_overdamped_guard_refuses_a_stiff_polynomial_start():
    """V = 30 x^2 at gamma = 1, k_bt = 0.5, dt = 0.05 and sigma_x = 0.5 used
    to run 2,000 trajectories for 200 steps to var_x = 7.1e119 with none
    counted as diverged, and V = 10 x^2 to var_x = 0.048 against an exact
    k_bt / V'' = 0.025. Both are refused. At the suggested dt the stiff run
    holds the stationary variance of its own discrete map."""
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    for c, got in ((10.0, "1"), (30.0, "3")):
        cfg = SimConfig(potential=Polynomial((0.0, 0.0, c)), params=params, dt=0.05,
                        steps=200, n_traj=2000, master_seed=1, sigma_x=0.5)
        with pytest.raises(ValueError, match=f"got {got}; suggested dt <= ") as exc:
            run_ensemble(cfg, "overdamped")
    stats = run_ensemble(replace(cfg, dt=float(str(exc.value).rsplit("<= ", 1)[1])),
                         "overdamped")
    # x' = (1 - lam dt) x + a normal of variance 2 k_bt dt, lam = V'' = 2 c (M = gamma = 1)
    lam_dt = 2.0 * c * stats.dt
    exact = 2.0 * params.k_bt * stats.dt / (1.0 - (1.0 - lam_dt) ** 2)
    assert stats.n_diverged == 0
    assert abs(stats.var_x - exact) <= 5.0 * math.sqrt(2.0 / (cfg.n_traj - 1)) * exact


@pytest.mark.parametrize("x, v", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_inertial_state_refuses_a_coordinate_that_is_not_finite(x, v):
    with pytest.raises(ValueError, match="^state must be finite$"):
        InertialState(x, v)


def test_run_ensemble_refuses_an_unknown_mode():
    cfg = SimConfig(potential=POT, params=PARAMS, dt=0.01, steps=2, n_traj=4, master_seed=1)
    with pytest.raises(ValueError, match="^mode must be one of"):
        run_ensemble(cfg, "underdamped")


def test_step_algebra_prepoint():
    """Forces multiply the earlier point: one step is exact arithmetic."""
    s = InertialState(x=1.0, v=0.5)
    dt, eta = 0.01, 0.3
    out = step_inertial(s, POT, PARAMS, eta, dt)
    v_expect = 0.5 + dt * (-2.0 * 0.5 - 1.0 * 1.0 + 0.3)
    x_expect = 1.0 + dt * 0.5  # advanced with the OLD velocity
    assert out.v == v_expect
    assert out.x == x_expect

    x1 = step_overdamped(1.0, POT, PARAMS, eta, dt)
    assert x1 == 1.0 + (dt / 2.0) * (-1.0 + 0.3)


def test_postpoint_solves_implicit_relation():
    dt, eta = 0.02, 0.4
    x1 = step_overdamped_postpoint(1.0, POT, PARAMS, eta, dt)
    c = dt / (PARAMS.mass * PARAMS.gamma)
    # fixed point of y = x + c(-k y + eta)
    assert abs(x1 - (1.0 + c * (-POT.k * x1 + eta))) < 1e-13


def test_single_step_divergence_raises():
    steep = Polynomial(coeffs=(0.0, 0.0, 0.0, 0.0, -1.0))  # V = -x^4
    with pytest.raises(RuntimeError, match="diverged"):
        x = 4.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(200):
                x = step_overdamped(x, steep, PARAMS, 0.0, 0.01)


def test_run_is_deterministic():
    cfg = _config(n_traj=300, sigma_x=0.5)
    a = run_ensemble(cfg, "overdamped")
    b = run_ensemble(cfg, "overdamped")
    np.testing.assert_array_equal(a.final_x, b.final_x)
    assert a.mean_x == b.mean_x
    c = run_ensemble(_config(n_traj=300, sigma_x=0.5, master_seed=124),
                     "overdamped")
    assert not np.array_equal(a.final_x, c.final_x)


def test_chunking_does_not_change_results(monkeypatch):
    """Results depend only on the per-trajectory streams, not chunk shape:
    post-point runs in chunks of two blocks, the last partial, give the same
    bits as one chunk."""
    cfg = _config(n_traj=3 * lv._BLOCK + 5, steps=4, sigma_x=0.3)
    assert lv._chunk_size(cfg.n_traj, cfg.steps) == cfg.n_traj
    # the fewest chunks the budget allows, in even whole blocks: 8,192 + 7,808
    assert lv._chunk_size(16_000, 400) == 8 * lv._BLOCK
    # short rows: at most _CHUNK_BLOCKS = 8 blocks a chunk, evenly. Compare's
    # 20,000 x 100 runs as 7,168 + 7,168 + 5,664 and criterion 6's 100,000 x
    # 200 in 8-block chunks; both ran in chunks of 20 blocks before the cap
    assert lv._CHUNK_BLOCKS == 8
    assert lv._chunk_size(20_000, 100) == 7 * lv._BLOCK
    assert lv._chunk_size(100_000, 200) == 8 * lv._BLOCK
    whole = run_ensemble(cfg, "overdamped_postpoint")
    monkeypatch.setattr(lv, "_CHUNK_BUDGET", cfg.steps * 2 * lv._BLOCK)
    assert lv._chunk_size(cfg.n_traj, cfg.steps) == 2 * lv._BLOCK
    pieces = run_ensemble(cfg, "overdamped_postpoint")
    np.testing.assert_array_equal(whole.final_x, pieces.final_x)
    assert whole.n_diverged == pieces.n_diverged


_ACROSS_BLOCKS = 2 * lv._BLOCK + 37


@pytest.mark.parametrize("mode", ["inertial", "overdamped"])
def test_chunks_of_one_block_match_a_single_chunk(monkeypatch, mode):
    """Three blocks, the last partial, give the same bits chunked or not."""
    cfg = _config(n_traj=_ACROSS_BLOCKS, steps=5, sigma_x=0.3, sigma_v=0.3)
    whole = run_ensemble(cfg, mode)
    monkeypatch.setattr(lv, "_CHUNK_BUDGET", cfg.steps * lv._BLOCK)
    assert lv._chunk_size(cfg.n_traj, cfg.steps) == lv._BLOCK
    pieces = run_ensemble(cfg, mode)
    np.testing.assert_array_equal(whole.final_x, pieces.final_x)
    if mode == "inertial":
        np.testing.assert_array_equal(whole.final_v, pieces.final_v)
    assert noise_expectation(lambda t, x, v: x[-1], cfg, mode).value == whole.mean_x


@settings(max_examples=20, deadline=None)
@given(mode=st.sampled_from(lv._MODES), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(2, 4), n_traj=st.integers(1, 9 * lv._BLOCK + lv._BLOCK // 2),
       log_width=st.floats(-0.3, 104.0))
@example(mode="inertial", seed=1, steps=2, n_traj=9 * lv._BLOCK + lv._BLOCK // 2,
         log_width=103.0)  # three quarters diverge
@example(mode="overdamped", seed=2, steps=2, n_traj=8 * lv._BLOCK + 1,
         log_width=34.0)  # a few diverge
@example(mode="overdamped_postpoint", seed=3, steps=3, n_traj=lv._BLOCK + 1,
         log_width=1.0)  # most diverge
@np.errstate(over="ignore", invalid="ignore")  # statistics of survivors still escaping
def test_ensemble_bits_do_not_depend_on_chunking(mode, seed, steps, n_traj, log_width):
    """The default chunks, chunks of one block and one chunk of the whole run
    give the same bits in every output. V = x^2 / 2 - x^4 throws starts
    outside its barrier out to overflow, within 2-4 steps for the widest of
    the drawn widths 10^log_width, so n_diverged and the NaNs of the dead are
    compared too; explicit histogram edges keep far survivors binnable."""
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    cfg = SimConfig(potential=Polynomial((0.0, 0.0, 0.5, 0.0, -1.0)), params=params,
                    dt=0.04, steps=steps, n_traj=n_traj, master_seed=seed,
                    sigma_x=10.0 ** log_width, sigma_v=10.0 ** log_width)
    blocks = -(-n_traj // lv._BLOCK)
    runs = []
    for cap, budget, chunk in (
            (lv._CHUNK_BLOCKS, lv._CHUNK_BUDGET, lv._chunk_size(n_traj, steps)),
            (1, steps * lv._BLOCK, min(n_traj, lv._BLOCK)),  # one block a chunk
            (blocks, blocks * steps * lv._BLOCK, n_traj)):  # one chunk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lv, "_CHUNK_BLOCKS", cap)
            mp.setattr(lv, "_CHUNK_BUDGET", budget)
            assert lv._chunk_size(n_traj, steps) == chunk
            runs.append(run_ensemble(cfg, mode, snapshot_steps=(1, steps),
                                     autocorr_lags=steps,
                                     histogram_bins=np.array([-1e308, 0.0, 1e308])))
    first = runs[0]
    for other in runs[1:]:
        assert other.n_diverged == first.n_diverged
        for name in ("final_x", "final_v", "autocorr"):
            a, b = getattr(first, name), getattr(other, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
        assert first.snapshots.keys() == other.snapshots.keys()
        for s, a in first.snapshots.items():
            assert a.tobytes() == other.snapshots[s].tobytes(), s


def test_ensemble_memory_is_one_noise_buffer(monkeypatch):
    """Traced peak of a three-chunk inertial run stays near one chunk's noise.

    The bound comes from the sizes, not from a measurement. With one block
    per chunk, a run holds:
      - the step-noise buffer, 8 * steps * chunk bytes (8.2 MB here), reused
        by every chunk;
      - one row-group buffer: 256 KiB, or 1/64 of the noise buffer when
        that is larger (256 KiB here);
      - O(n_traj) arrays: the final_x, final_v and alive outputs, each chunk's
        initial normals, x, v and alive, and the step's temporaries (force,
        x_new, v_new, the update mask): fewer than 32 float64 arrays of
        n_traj entries (0.5 MB);
      - 1 MB of slack for interpreter and tracemalloc bookkeeping.
    That is about 10.0 MB. Holding a second chunk's noise, or a block's whole
    (1024, 2 + steps) draw beside its time-major copy, adds 8.2 MB or more.
    """
    cfg = _config(n_traj=_ACROSS_BLOCKS, steps=1000, dt=0.001, sigma_x=0.3,
                  sigma_v=0.3)
    monkeypatch.setattr(lv, "_CHUNK_BUDGET", cfg.steps * lv._BLOCK)
    chunk = lv._chunk_size(cfg.n_traj, cfg.steps)
    assert chunk == lv._BLOCK
    group = max(1 << 18, 8 * (2 + cfg.steps) * (chunk // 64))
    bound = 8 * cfg.steps * chunk + group + 32 * 8 * cfg.n_traj + (1 << 20)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_ensemble(cfg, "inertial")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak} bytes > bound {bound} bytes"


def test_autocorrelation_run_holds_one_series(monkeypatch):
    """Traced peak of a three-chunk autocorrelation run: one stored series.

    The bound comes from the sizes, not from a measurement. With one block
    per chunk and 4,000 steps, a run holds:
      - the step-noise buffer, 8 * steps * chunk bytes (32.8 MB here);
      - one row-group buffer, 1/64 of the noise buffer here (0.5 MB);
      - the stored positions of the first 256 trajectories, one
        (256, steps + 1) series (8.2 MB), which each step fills in place;
      - O(n_traj) arrays, as in test_ensemble_memory_is_one_noise_buffer:
        fewer than 32 float64 arrays of n_traj entries (0.5 MB);
      - 1 MB of slack for interpreter and tracemalloc bookkeeping.
    That is about 43 MB. The statistics run after the noise buffer is
    freed, so their copies of the series do not set the peak. A second
    series beside the first while the noise is held adds 8.2 MB.
    """
    cfg = _config(n_traj=_ACROSS_BLOCKS, steps=4000, sigma_x=0.3)
    monkeypatch.setattr(lv, "_CHUNK_BUDGET", cfg.steps * lv._BLOCK)
    chunk = lv._chunk_size(cfg.n_traj, cfg.steps)
    assert chunk == lv._BLOCK
    group = max(1 << 18, 8 * (1 + cfg.steps) * (chunk // 64))
    series = 8 * 256 * (cfg.steps + 1)
    bound = (8 * cfg.steps * chunk + group + series + 32 * 8 * cfg.n_traj
             + (1 << 20))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stats = run_ensemble(cfg, "overdamped", autocorr_lags=10)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # all of the first 256 trajectories survive into the autocorrelation
    assert stats.n_diverged == 0 and stats.autocorr.shape == (11,)
    assert peak <= bound, f"peak {peak} bytes > bound {bound} bytes"


def test_compare_shaped_run_holds_one_capped_chunk_of_noise():
    """Traced peak of compare's ensemble, 20,000 overdamped trajectories x 100
    steps with 3 snapshots, stays under 8 MiB.

    The bound comes from the sizes. With chunks of 7 blocks, a run holds:
      - the step-noise buffer, 8 * 100 * 7,168 bytes (5.7 MB);
      - one row-group buffer of 256 KiB;
      - the final_x, final_v and alive outputs and the 3 snapshots: 5 float64
        and one bool array of 20,000 entries (0.8 MB);
      - each chunk's initial normals, state pair, spare pair and the step's
        temporaries, about 10 float64 arrays of 7,168 entries (0.6 MB);
      - 1 MB of slack for interpreter and tracemalloc bookkeeping.
    That is about 8.4 MB, or 8 MiB. One chunk of all 20 blocks, as the budget
    alone gives, holds 16 MB of noise.
    """
    cfg = _config(n_traj=20_000, steps=100, sigma_x=0.3)
    assert lv._chunk_size(cfg.n_traj, cfg.steps) == 7 * lv._BLOCK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_ensemble(cfg, "overdamped", snapshot_steps=(25, 50, 100))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak} bytes >= 8 MiB"


def _draw_030(config, g0, g1, mode):
    """The 0.3.0 draw: one (b1 - b0, n0 + steps) call per block, its step
    columns copied transposed into a fresh eta, then eta scaled in place."""
    n0 = 2 if mode == "inertial" else 1
    z0 = np.empty((g1 - g0, n0))
    eta = np.empty((config.steps, g1 - g0))
    for b0 in range(g0, g1, lv._BLOCK):
        b1 = min(g1, b0 + lv._BLOCK)
        rng = lv.derive_rng(config.master_seed, b0 // lv._BLOCK)
        z = rng.standard_normal((b1 - b0, n0 + config.steps))
        z0[b0 - g0 : b1 - g0] = z[:, :n0]
        eta[:, b0 - g0 : b1 - g0] = z[:, n0:].T
    x0s = config.x0 + config.sigma_x * z0[:, 0]
    if n0 == 2:
        v0s = config.v0 + config.sigma_v * z0[:, 1]
    else:
        v0s = np.full(g1 - g0, config.v0)
    eta *= math.sqrt(config.params.w / config.dt)
    return x0s, v0s, eta


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["inertial", "overdamped"]),
       first_block=st.integers(0, 3), n=st.integers(1, 2 * lv._BLOCK + 300),
       steps=st.integers(1, 30), rows=st.one_of(st.none(), st.integers(1, lv._BLOCK)),
       seed=st.integers(0, 2**32 - 1), spare=st.integers(0, 3))
@example(mode="overdamped", first_block=1, n=5, steps=40_000, rows=None,
         seed=3, spare=2)  # one-row groups from the run's own sizing
@example(mode="inertial", first_block=0, n=lv._BLOCK + 7, steps=3, rows=1,
         seed=4, spare=0)
@example(mode="inertial", first_block=2, n=3, steps=4, rows=100,
         seed=5, spare=0)  # fewer trajectories than one row group
def test_row_group_draw_equals_the_block_draw(mode, first_block, n, steps, rows,
                                              seed, spare):
    """spare > 0 draws a chunk narrower than the run's noise buffer, as the
    last chunk of a run does."""
    g0 = first_block * lv._BLOCK
    g1 = g0 + n
    cfg = _config(n_traj=g1, steps=steps, master_seed=seed, x0=0.2, v0=-0.1,
                  sigma_x=0.5, sigma_v=0.7)
    noise, group = lv._noise_buffers(cfg, mode, n + spare)
    if steps == 40_000:
        assert len(group) == 1
    if rows is not None:
        group = np.empty((rows, group.shape[1]))
    # the buffer the run reuses is dirty from its last chunk
    noise.fill(np.nan)
    group.fill(np.nan)
    got = lv._draw_chunk(cfg, g0, g1, noise, group)
    want = _draw_030(cfg, g0, g1, mode)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["inertial", "overdamped"])
def test_a_smaller_ensemble_is_a_prefix_of_a_larger_one(mode):
    """Trajectory i draws the same numbers whatever n_traj > i is, also when
    n_traj ends inside a block."""
    n1 = lv._BLOCK + 100
    small = run_ensemble(_config(n_traj=n1, steps=5, sigma_x=0.3, sigma_v=0.3), mode)
    large = run_ensemble(_config(n_traj=_ACROSS_BLOCKS, steps=5, sigma_x=0.3,
                                 sigma_v=0.3), mode)
    np.testing.assert_array_equal(small.final_x, large.final_x[:n1])
    if mode == "inertial":
        np.testing.assert_array_equal(small.final_v, large.final_v[:n1])


def test_ou_relaxation_moments():
    """Overdamped harmonic moments follow the analytic propagator."""
    cfg = _config(dt=0.01, steps=200, n_traj=5000, x0=1.0, master_seed=2024)
    stats = run_ensemble(cfg, "overdamped")
    theta = POT.omega0 ** 2 / PARAMS.gamma  # 0.5
    t = 200 * 0.01
    mean_t = math.exp(-theta * t)
    var_t = (PARAMS.k_bt / POT.k) * (1.0 - math.exp(-2.0 * theta * t))
    assert abs(stats.mean_x - mean_t) < 3.5 * stats.se_x
    se_var = stats.var_x * math.sqrt(2.0 / (stats.n_traj - 1))
    assert abs(stats.var_x - var_t) < 3.5 * se_var + 0.01 * var_t


def test_prepoint_postpoint_variance_dichotomy():
    """The two conventions bias the discrete stationary variance oppositely."""
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    pot = Harmonic(mass=1.0, omega0=1.0)
    dt, theta = 0.08, 1.0
    cfg = SimConfig(potential=pot, params=params, dt=dt, steps=500,
                    n_traj=20000, master_seed=31, sigma_x=math.sqrt(0.5))
    pre = run_ensemble(cfg, "overdamped")
    post = run_ensemble(cfg, "overdamped_postpoint")
    base = params.k_bt / pot.k
    target_pre = base / (1.0 - theta * dt / 2.0)
    target_post = base / (1.0 + theta * dt / 2.0)
    se = base * math.sqrt(2.0 / cfg.n_traj)
    assert abs(pre.var_x - target_pre) < 3.5 * se
    assert abs(post.var_x - target_post) < 3.5 * se
    assert pre.var_x > post.var_x


def test_inertial_velocity_moments():
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    pot = Harmonic(mass=1.0, omega0=1.0)
    cfg = SimConfig(potential=pot, params=params, dt=0.005, steps=600,
                    n_traj=8000, master_seed=77,
                    sigma_x=math.sqrt(0.5), sigma_v=math.sqrt(0.5))
    stats = run_ensemble(cfg, "inertial")
    assert stats.final_v is not None
    se = 0.5 * math.sqrt(2.0 / cfg.n_traj)
    assert abs(stats.var_v - 0.5) < 4.0 * se
    assert abs(stats.mean_v) < 4.0 * math.sqrt(0.5 / cfg.n_traj)
    # equilibrium position-velocity correlation vanishes
    assert abs(stats.cov_xv) < 4.0 * stats.se_cov_xv + 1e-3


def test_divergent_trajectories_are_counted_not_fatal():
    steep = Polynomial(coeffs=(0.0, 0.0, 0.0, 0.0, -1.0))  # V = -x^4, unstable
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.1, hbar=0.0)
    cfg = SimConfig(potential=steep, params=params, dt=0.01, steps=400,
                    n_traj=16, master_seed=5, x0=3.0)
    stats = run_ensemble(cfg, "overdamped")
    assert stats.n_diverged == 16
    assert np.isnan(stats.final_x).all()


def test_zero_noise_is_the_deterministic_map():
    cfg = _config(dt=0.01, steps=50, n_traj=8, x0=2.0)
    x = np.full(cfg.n_traj, cfg.x0)
    alive = lv._evolve_chunk(cfg, "overdamped", x, np.zeros(cfg.n_traj),
                             np.zeros((cfg.steps, cfg.n_traj)), {})
    assert alive.all()
    theta = POT.omega0 ** 2 / PARAMS.gamma
    expected = 2.0 * (1.0 - theta * 0.01) ** 50
    np.testing.assert_allclose(x, expected, rtol=1e-12)
    assert x.var(ddof=1) == 0.0


def test_snapshots_and_histogram():
    cfg = _config(n_traj=500, steps=60, sigma_x=0.4)
    stats = run_ensemble(cfg, "overdamped", snapshot_steps=(0, 30),
                         histogram_bins=16)
    assert set(stats.snapshots) == {0, 30}
    assert stats.snapshots[0].shape == (500,)
    # step-0 snapshot is the initial cloud
    assert abs(stats.snapshots[0].std() - 0.4) < 0.05
    assert stats.hist_edges.shape == (17,)
    dens_mass = float(np.sum(stats.hist_density * np.diff(stats.hist_edges)))
    assert abs(dens_mass - 1.0) < 1e-12


def test_invalid_histogram_bins_raise_value_error():
    """Bad bins are the caller's error, not a numerical failure of the run."""
    cfg = _config(n_traj=10, steps=5)
    for bins in (0, -3, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="bins"):
            run_ensemble(cfg, "overdamped", histogram_bins=bins)


def test_autocorr_lags_outside_the_run_are_refused_before_any_work(monkeypatch):
    """autocorr_lags outside [0, steps] is a ParameterError naming it, raised
    before any trajectory is set up."""
    cfg = _config(n_traj=10, steps=5)
    monkeypatch.setattr(lv, "_chunks", lambda *args: pytest.fail("the run started"))
    for lags in (-1, 6):
        with pytest.raises(ParameterError, match=r"^autocorr_lags must be in \[0, steps\]$"):
            run_ensemble(cfg, "overdamped", autocorr_lags=lags)


def test_autocorrelation_tracks_ou_decay():
    params = BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=0.0)
    cfg = SimConfig(potential=POT, params=params, dt=0.02, steps=800,
                    n_traj=256, master_seed=9, sigma_x=math.sqrt(0.5))
    stats = run_ensemble(cfg, "overdamped", autocorr_lags=40)
    acf = stats.autocorr
    assert acf is not None and acf.shape == (41,)
    theta = POT.omega0 ** 2 / params.gamma
    lags = np.arange(41) * cfg.dt
    np.testing.assert_allclose(acf / acf[0], np.exp(-theta * lags), atol=0.08)


def test_noise_expectation_constants_and_moments():
    cfg = _config(n_traj=400, steps=80, sigma_x=0.5)

    one = noise_expectation(lambda t, x, v: 1.0, cfg, "overdamped")
    assert one.value == 1.0
    assert one.stderr == 0.0
    assert one.n_used == 400

    final = noise_expectation(lambda t, x, v: x[-1], cfg, "overdamped")
    stats = run_ensemble(cfg, "overdamped")
    assert final.value == stats.mean_x
    assert abs(final.stderr - stats.se_x) < 1e-12 * max(1.0, stats.se_x)


def test_noise_expectation_inertial_velocity_series():
    cfg = _config(n_traj=100, steps=40, sigma_x=0.3, sigma_v=0.3)
    res = noise_expectation(lambda t, x, v: v[-1] ** 2, cfg, "inertial")
    stats = run_ensemble(cfg, "inertial")
    expected = float(np.mean(stats.final_v ** 2))
    assert abs(res.value - expected) < 1e-14
    # v is None outside inertial mode, so touching it fails loudly
    with pytest.raises(TypeError):
        noise_expectation(lambda t, x, v: v[-1], cfg, "overdamped")


def test_postpoint_chunk_mate_of_a_diverging_trajectory_is_exact():
    """A trajectory that blows up does not cut short its chunk-mates' solves."""
    pot = Polynomial(coeffs=(0.0, 0.0, 0.5, 0.0, -1.0))
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.01, hbar=0.0)
    cfg = SimConfig(potential=pot, params=params, dt=0.05, steps=4, n_traj=3,
                    master_seed=8)
    starts = np.array([0.3, -0.2, 50.0])
    eta = np.random.default_rng(8).standard_normal((3, 4)) * math.sqrt(params.w / cfg.dt)
    x = starts.copy()
    alive = lv._evolve_chunk(cfg, "overdamped_postpoint", x, np.zeros(3), eta.T, {})
    assert alive.tolist() == [True, True, False]
    for i in (0, 1):
        xi = starts[i]
        for k in range(cfg.steps):
            xi = step_overdamped_postpoint(xi, pot, params, eta[i, k], cfg.dt)
        assert x[i] == xi
    with pytest.raises(RuntimeError, match="diverged"):
        step_overdamped_postpoint(50.0, pot, params, eta[2, 0], cfg.dt)


def test_postpoint_solve_that_never_converges_counts_as_diverged():
    """c V'' = -1 leaves the implicit relation without a solution: the
    fixed-point map moves every iterate by the same step, so no step is
    accepted. (c V'' = 1, a 2-cycle, is refused by the relaxation guard.)"""
    pot = Polynomial(coeffs=(0.0, 0.0, -10.0))
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    cfg = SimConfig(potential=pot, params=params, dt=0.05, steps=3, n_traj=8,
                    master_seed=21, sigma_x=0.3)
    stats = run_ensemble(cfg, "overdamped_postpoint")
    assert stats.n_diverged == cfg.n_traj
    assert np.isnan(stats.final_x).all()
    with pytest.raises(RuntimeError, match="did not converge"):
        step_overdamped_postpoint(0.3, pot, params, 1.0, cfg.dt)


def test_postpoint_solve_skips_dead_trajectories():
    """Every trajectory dies in the 200-round solve of step 1; steps 2 and 3
    must not run the solve again for them."""
    calls = []

    class CountedPolynomial(Polynomial):
        def grad(self, x):
            calls.append(1)
            return super().grad(x)

    pot = CountedPolynomial(coeffs=(0.0, 0.0, -10.0))
    params = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
    cfg = SimConfig(potential=pot, params=params, dt=0.05, steps=3, n_traj=8,
                    master_seed=21, sigma_x=0.3)
    stats = run_ensemble(cfg, "overdamped_postpoint")
    assert stats.n_diverged == cfg.n_traj
    assert len(calls) <= 202


def _bits(value) -> str:
    return float(value).hex()


@st.composite
def _step_inputs(draw):
    """Potential, bath, a dt inside the guards and a batch of (x, v, eta)."""
    params = BathParams(mass=draw(st.floats(0.5, 2.0)), gamma=draw(st.floats(0.1, 5.0)),
                        k_bt=1.0, hbar=0.0)
    kind = draw(st.sampled_from(("harmonic", "double_well", "polynomial")))
    if kind == "harmonic":
        pot = Harmonic(mass=params.mass, omega0=draw(st.floats(0.1, 5.0)))
    elif kind == "double_well":
        pot = DoubleWell(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(0.01, 2.0)))
    else:
        pot = Polynomial(coeffs=tuple(draw(st.lists(st.floats(-2.0, 2.0),
                                                    min_size=1, max_size=5))))
    n = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n)))
    # the friction guard, and the relaxation guard at every x of the batch
    limit = 0.1 / params.gamma
    curvature = float(np.max(pot.hess(x))) / (params.mass * params.gamma)
    if curvature > 0:
        limit = min(limit, 0.1 / curvature)
    dt = draw(st.floats(0.01, 0.99)) * limit
    v = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    eta = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    return pot, params, dt, x, v, eta


@settings(max_examples=60, deadline=None)
@given(_step_inputs(), st.sampled_from(lv._MODES))
def test_scalar_steppers_are_one_step_of_the_shared_update(inputs, mode):
    pot, params, dt, x, v, eta = inputs
    with np.errstate(over="ignore", invalid="ignore"):  # as _advance's callers enter it
        x_new, v_new = lv._advance(mode, pot, params, dt, x, v, eta)
    for i in range(x.size):
        if mode == "inertial":
            def call():
                out = step_inertial(InertialState(x[i], v[i]), pot, params, eta[i], dt)
                return out.x, out.v
            expected = (x_new[i], v_new[i])
        else:
            stepper = (step_overdamped if mode == "overdamped"
                       else step_overdamped_postpoint)

            def call():
                return (stepper(x[i], pot, params, eta[i], dt),)
            expected = (x_new[i],)
        if np.isfinite(x_new[i]) and np.isfinite(v_new[i]):
            assert [_bits(a) for a in call()] == [_bits(b) for b in expected]
        else:
            with pytest.raises(RuntimeError, match="diverged"):
                call()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_traj=st.integers(1, 40),
       steps=st.integers(1, 20), mode=st.sampled_from(lv._MODES))
def test_noise_expectation_of_final_position_is_the_ensemble_mean(seed, n_traj, steps,
                                                                  mode):
    cfg = _config(n_traj=n_traj, steps=steps, master_seed=seed, sigma_x=0.5,
                  sigma_v=0.5)
    res = noise_expectation(lambda t, x, v: x[-1], cfg, mode)
    stats = run_ensemble(cfg, mode)
    assert res.n_used == n_traj - stats.n_diverged
    assert res.value == stats.mean_x
    if res.n_used == 1:
        assert math.isnan(res.stderr)
    else:
        assert res.stderr == stats.se_x


def _reference_paths(cfg, mode):
    """Each trajectory stepped alone by the scalar stepper until it raises,
    from the initial state and noise of the block draw (_draw_030). Returns,
    per trajectory, its positions and velocities at the steps before it
    diverged, and the draw."""
    x0s, v0s, eta = _draw_030(cfg, 0, cfg.n_traj, mode)
    paths = []
    for x, v, noise in zip(x0s, v0s, eta.T):
        xs, vs = [x], [v]
        for e in noise:
            try:
                if mode == "inertial":
                    state = step_inertial(InertialState(x, v), cfg.potential, cfg.params,
                                          e, cfg.dt)
                    x, v = state.x, state.v
                else:
                    x = step_overdamped(x, cfg.potential, cfg.params, e, cfg.dt)
            except RuntimeError:
                break
            xs.append(x)
            vs.append(v)
        paths.append((np.array(xs), np.array(vs)))
    return paths, (x0s, v0s, eta)


def _assert_path(got, path, died):
    """got holds a trajectory's values at steps 0..len(got)-1: the path's bits
    before the step it died at, NaN from that step on."""
    assert [_bits(a) for a in got[:died]] == [_bits(b) for b in path[:died]]
    assert np.isnan(got[died:]).all()


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(["inertial", "overdamped"]), n_traj=st.integers(1, 40),
       steps=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       a=st.floats(0.2, 2.0), b=st.floats(0.2, 2.0), sigma_x=st.floats(0.5, 2.0),
       sigma_v=st.floats(0.0, 2.0), k_bt=st.floats(0.1, 2.0), data=st.data())
@np.errstate(over="ignore", invalid="ignore")  # statistics of survivors still escaping
def test_divergence_matches_trajectories_stepped_alone(mode, n_traj, steps, seed, a, b,
                                                       sigma_x, sigma_v, k_bt, data):
    """V = a x^2 - b x^4 holds the trajectories that start inside its barrier
    and throws the others out to overflow within a few steps, so some of an
    ensemble diverge mid-run. Each must count, and read NaN, exactly from the
    step at which the scalar stepper raises for it; every survivor ends on the
    scalar stepper's bits."""
    params = BathParams(mass=1.0, gamma=1.0, k_bt=k_bt, hbar=0.0)
    cfg = SimConfig(potential=Polynomial((0.0, 0.0, a, 0.0, -b)), params=params,
                    dt=0.04, steps=steps, n_traj=n_traj, master_seed=seed,
                    sigma_x=sigma_x, sigma_v=sigma_v)
    if mode == "overdamped" and not cfg.dt * (2.0 * a) < 0.1:
        # V'' = 2a - 12 b x^2 is largest at the start x0 = 0, so the relaxation
        # guard refuses the run here and, where it accepts the run, accepts
        # every scalar step of it
        with pytest.raises(ValueError, match="^dt too large for the relaxation scale"):
            run_ensemble(cfg, mode)
        return
    snaps = tuple(data.draw(st.sets(st.integers(0, steps), max_size=4)))
    lags = data.draw(st.integers(0, steps))
    paths, (x, v, eta) = _reference_paths(cfg, mode)
    died = [len(xs) for xs, _ in paths]
    alive = np.array([d > steps for d in died])
    inertial = mode == "inertial"

    # explicit edges: numpy cannot split a lone survivor beyond 2^52 into
    # default bins, and run_ensemble then raises (FOUND in CHANGES.md)
    stats = run_ensemble(cfg, mode, snapshot_steps=snaps, autocorr_lags=lags,
                         histogram_bins=np.array([-1e308, 0.0, 1e308]))
    assert stats.n_diverged == n_traj - alive.sum()
    for j, (xs, vs) in enumerate(paths):
        _assert_path(stats.final_x[j : j + 1], xs[-1:], int(alive[j]))
        if inertial:
            _assert_path(stats.final_v[j : j + 1], vs[-1:], int(alive[j]))
        for s in snaps:
            _assert_path(stats.snapshots[s][j : j + 1], xs[s : s + 1], int(s < died[j]))
    if lags:
        want = lagged_products(np.array([xs for xs, _ in paths if len(xs) > steps]
                                        ).reshape(-1, steps + 1), lags)
        np.testing.assert_array_equal(stats.autocorr, want)

    # the chunk steps the caller's state in place and stores each series
    series, v_series = np.empty((steps + 1, n_traj)), np.empty((steps + 1, n_traj))
    got_alive = lv._evolve_chunk(cfg, mode, x, v, eta, {}, series, v_series)
    np.testing.assert_array_equal(got_alive, alive)
    for j, (xs, vs) in enumerate(paths):
        _assert_path(series[:, j], xs, died[j])
        _assert_path(v_series[:, j], vs, died[j])
        if alive[j]:
            assert (_bits(x[j]), _bits(v[j])) == (_bits(xs[-1]), _bits(vs[-1]))
