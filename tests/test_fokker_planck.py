"""Grid solver tests: exact fixed points, stability guards, convergence."""

import itertools
import math
import warnings
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathdyn.fokker_planck as fp
from bathdyn import (
    BathParams,
    ComparisonRecord,
    DoubleWell,
    Harmonic,
    KramersOperator,
    MasterOperator,
    Ordering,
    ParameterError,
    PhaseGrid,
    Polynomial,
    ProbField,
    SimConfig,
    SmoluchowskiOperator,
    StabilityError,
    compare_langevin_fp,
    decoherence_params,
    gaussian_field_1d,
    gaussian_field_2d,
    gaussian_pure_state,
    kramers_step,
    smoluchowski_step,
    superposition_state,
)
from bathdyn.decoherence import _RESOLVED
from bathdyn.fokker_planck import kramers_dt_max, smoluchowski_dt_max

PARAMS = BathParams(mass=1.0, gamma=1.0, k_bt=0.5, hbar=0.0)
HARMONIC = Harmonic(1.0, 1.0)


# every PhaseGrid rejection with its exact message, one case each; each but
# the v fields given apart is a ParameterError naming its field
_GRID_REJECTIONS = [
    ((-np.inf, 2.0, 64), {}, "x_min must be finite"),
    ((2.0, -2.0, 64), {}, "x_max must exceed x_min = 2 by a finite span (got -2)"),
    ((-2.0, np.inf, 64), {}, "x_max must exceed x_min = -2 by a finite span (got inf)"),
    ((-1e308, 1e308, 64), {}, "x_max must exceed x_min = -1e+308 by a finite span (got 1e+308)"),
    ((-2.0, 2.0, 8), {}, "nx must be >= 16"),
    ((-2.0, 2.0, 64), {"v_min": -1.0}, "v_max must be given with v_min and nv"),
    ((-2.0, 2.0, 64), {"v_min": -1.0, "v_max": np.nan, "nv": 32},
     "v_max must exceed v_min = -1 by a finite span (got nan)"),
    ((-2.0, 2.0, 64), {"v_min": 1.0, "v_max": 1.0, "nv": 32},
     "v_max must exceed v_min = 1 by a finite span (got 1)"),
    ((-2.0, 2.0, 64), {"v_min": -1.0, "v_max": 1.0, "nv": 4}, "nv must be >= 16"),
    # x is judged before the v fields, and each axis's range before its count
    ((2.0, -2.0, 8), {"v_min": -1.0}, "x_max must exceed x_min = 2 by a finite span (got -2)"),
    ((-2.0, 2.0, 8), {"v_min": 1.0, "v_max": -1.0, "nv": 4}, "nx must be >= 16"),
    ((-2.0, 2.0, 64), {"v_min": 1.0, "v_max": -1.0, "nv": 4},
     "v_max must exceed v_min = 1 by a finite span (got -1)"),
]


def test_phase_grid_validation():
    for args, kw, message in _GRID_REJECTIONS:
        with pytest.raises(ValueError) as exc:
            PhaseGrid(*args, **kw)
        assert str(exc.value) == message
        assert isinstance(exc.value, ParameterError)
        assert message.startswith(exc.value.name + " must ")

    g = PhaseGrid(-2.0, 2.0, 64)
    assert not g.is_2d
    assert g.dx == 4.0 / 64
    assert g.x_centers[0] == -2.0 + 0.5 * g.dx
    assert g.x_faces.shape == (63,)
    with pytest.raises(ValueError, match="no v"):
        g.dv
    with pytest.raises(ValueError, match="no v"):
        g.v_centers
    with pytest.raises(ValueError, match="no v"):
        g.v_faces

    g2 = PhaseGrid(-2.0, 2.0, 32, v_min=-3.0, v_max=3.0, nv=48)
    assert g2.is_2d
    assert g2.dv == 6.0 / 48
    assert g2.v_faces.shape == (47,)


def test_prob_field_validation_and_moments():
    grid = PhaseGrid(-5.0, 5.0, 512)
    with pytest.raises(ValueError, match="shape"):
        ProbField(np.ones(100), grid)
    bad = np.ones(512)
    bad[3] = -1e-3
    with pytest.raises(ValueError, match="negative"):
        ProbField(bad, grid)
    with pytest.raises(ValueError, match="finite"):
        ProbField(np.full(512, np.nan), grid)

    # a field of no mass has no mean or variance
    assert all(map(math.isnan, ProbField(np.zeros(512), grid).moments()))

    f = gaussian_field_1d(grid, 0.3, 0.7)
    assert abs(f.mass - 1.0) < 1e-12
    mean, var = f.moments()
    assert abs(mean - 0.3) < 1e-8
    assert abs(var - 0.49) < 1e-8

    g2 = PhaseGrid(-4.0, 4.0, 32, v_min=-4.0, v_max=4.0, nv=24)
    f2 = gaussian_field_2d(g2, 0.5, 0.6, -0.2, 0.8)
    assert abs(f2.mass - 1.0) < 1e-12
    mean2, _ = f2.moments()
    assert abs(mean2 - 0.5) < 1e-6


def test_gaussian_field_guards():
    grid = PhaseGrid(-2.0, 2.0, 64)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_field_1d(grid, 0.0, 0.0)
    g2 = PhaseGrid(-2.0, 2.0, 32, v_min=-1.0, v_max=1.0, nv=16)
    with pytest.raises(ValueError, match="1D"):
        gaussian_field_1d(g2, 0.0, 0.5)
    with pytest.raises(ValueError, match="2D"):
        gaussian_field_2d(grid, 0.0, 0.5, 0.0, 0.5)


def test_substeps_stop_at_their_bound():
    """A comparison takes ceil(dt / dt_max) grid steps per Langevin step, up to
    _MAX_SUBSTEPS; one ulp of dt over the bound, or a dt_max of 0 (which
    once divided by zero), raises the ParameterError of dt."""
    dt_max = 0.005 / 12.5
    assert fp._substeps(0.005, dt_max) == 13
    assert fp._substeps(dt_max / 2.0, dt_max) == 1
    edge = fp._MAX_SUBSTEPS * dt_max
    assert fp._substeps(edge, dt_max) == fp._MAX_SUBSTEPS
    for dt, limit in ((math.nextafter(edge, math.inf), dt_max), (0.005, 0.0)):
        with pytest.raises(ParameterError) as exc:
            fp._substeps(dt, limit)
        assert exc.value.name == "dt"


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_kramers_v_diffusion_keeps_its_bits_at_unit_mass(gamma, k_bt):
    """The v diffusion constant gamma k_bt / M is w / 2 M^2 bit for bit at
    M = 1, so grid runs of unit mass keep their bytes; at masses whose square
    under- or overflows, w / 2 M^2 raised ZeroDivisionError or OverflowError."""
    grid = PhaseGrid(-4.0, 4.0, 16, v_min=-4.0, v_max=4.0, nv=16)
    params = BathParams(mass=1.0, gamma=gamma, k_bt=k_bt, hbar=0.0)
    assert KramersOperator(grid, Harmonic(1.0, 1.0), params).d_v == params.w / 2.0
    for mass in (1e-300, 1e160):
        params = BathParams(mass=mass, gamma=gamma, k_bt=k_bt, hbar=0.0)
        op = KramersOperator(grid, Harmonic(mass, 1.0), params)
        assert op.d_v == gamma * k_bt / mass and 0.0 < op.dt_max < math.inf


def test_harmonic_boltzmann_is_exact_fixed_point():
    # midpoint face gradients make exp(-V/kT) at cell centers an exact
    # stationary state of the exponential-fitting flux for quadratic V
    grid = PhaseGrid(-4.0, 4.0, 64)
    q = np.exp(-HARMONIC.value(grid.x_centers) / PARAMS.k_bt)
    q /= q.sum() * grid.dx
    f0 = ProbField(q, grid)
    dt = 0.9 * smoluchowski_dt_max(grid, HARMONIC, PARAMS)
    f = f0
    for _ in range(50):
        f = smoluchowski_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, dt)
    rel = np.max(np.abs(f.values - f0.values)) / np.max(f0.values)
    assert rel < 1e-13
    assert f.t == pytest.approx(50 * dt, rel=1e-12)


def test_smoluchowski_mass_conservation():
    grid = PhaseGrid(-3.0, 3.0, 128)
    f = gaussian_field_1d(grid, 0.4, 0.5)
    dt = 0.9 * smoluchowski_dt_max(grid, HARMONIC, PARAMS)
    for _ in range(80):
        f = smoluchowski_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, dt)
    assert abs(f.mass - 1.0) < 1e-12
    assert f.values.min() >= -1e-10 * f.values.max()


def test_double_well_stationary_state_refines_quadratically():
    pot = DoubleWell(-1.0, 0.25)

    def l1_error(nx):
        g = PhaseGrid(-3.2, 3.2, nx)
        fld = gaussian_field_1d(g, 0.0, 0.8)
        op = SmoluchowskiOperator(g, pot, PARAMS)
        n = int(math.ceil(6.0 / (0.9 * op.dt_max)))
        fld = op.advance(fld, Ordering.MOMENTA_LEFT, 6.0 / n, n)
        ref = np.exp(-pot.value(g.x_centers) / PARAMS.k_bt)
        ref /= ref.sum() * g.dx
        return float(np.sum(np.abs(fld.values - ref)) * g.dx)

    coarse = l1_error(128)
    fine = l1_error(256)
    assert coarse < 2e-3
    assert coarse / fine > 3.0


def test_smoluchowski_stability_guard_and_recovery():
    grid = PhaseGrid(-4.0, 4.0, 64)
    f = gaussian_field_1d(grid, 0.0, 0.7)
    with pytest.raises(StabilityError, match="suggested dt") as exc:
        smoluchowski_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, 1.0)
    good = 0.999 * exc.value.suggested_dt
    out = smoluchowski_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, good)
    assert abs(out.mass - 1.0) < 1e-12
    with pytest.raises(ValueError, match="dt must be > 0"):
        smoluchowski_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, -0.1)
    g2 = PhaseGrid(-2.0, 2.0, 32, v_min=-2.0, v_max=2.0, nv=32)
    f2 = gaussian_field_2d(g2, 0.0, 0.5, 0.0, 0.5)
    with pytest.raises(ValueError, match="1D"):
        smoluchowski_step(f2, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, 1e-4)


def test_kramers_stability_guard_and_recovery():
    grid = PhaseGrid(-3.0, 3.0, 32, v_min=-3.0, v_max=3.0, nv=32)
    f = gaussian_field_2d(grid, 0.0, 0.6, 0.0, 0.6)
    with pytest.raises(StabilityError, match="phase-space") as exc:
        kramers_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, 0.5)
    good = 0.999 * exc.value.suggested_dt
    out = kramers_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, good)
    assert abs(out.mass - 1.0) < 1e-12
    grid1 = PhaseGrid(-3.0, 3.0, 32)
    f1 = gaussian_field_1d(grid1, 0.0, 0.6)
    with pytest.raises(ValueError, match="2D"):
        kramers_step(f1, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, 1e-4)
    with pytest.raises(ValueError, match="2D"):
        kramers_dt_max(grid1, HARMONIC, PARAMS)


def test_kramers_momenta_left_conserves_mass():
    grid = PhaseGrid(-4.0, 4.0, 48, v_min=-4.0, v_max=4.0, nv=48)
    f = gaussian_field_2d(grid, 0.5, 0.6, 0.0, 0.7)
    dt = 0.9 * kramers_dt_max(grid, HARMONIC, PARAMS)
    for _ in range(60):
        f = kramers_step(f, HARMONIC, PARAMS, Ordering.MOMENTA_LEFT, dt)
    assert abs(f.mass - 1.0) < 1e-10
    assert f.values.min() >= -1e-10 * f.values.max()


def test_kramers_symmetric_single_step_mass_factor():
    # transport is conservative, so one symmetric step scales the total
    # mass by exactly exp(-gamma dt / 2)
    grid = PhaseGrid(-3.0, 3.0, 32, v_min=-3.0, v_max=3.0, nv=32)
    f0 = gaussian_field_2d(grid, 0.0, 0.6, 0.0, 0.6)
    dt = 0.5 * kramers_dt_max(grid, HARMONIC, PARAMS)
    f1 = kramers_step(f0, HARMONIC, PARAMS, Ordering.SYMMETRIC, dt)
    expected = f0.mass * math.exp(-PARAMS.gamma * dt / 2.0)
    assert abs(f1.mass - expected) < 1e-13 * expected


def test_smoluchowski_symmetric_harmonic_decay_rate():
    # sink factor exp(-dt V''/2 M gamma) is constant for harmonic V, so
    # the mass decays at exactly omega0^2 / (2 gamma) per unit time
    grid = PhaseGrid(-4.0, 4.0, 64)
    f = gaussian_field_1d(grid, 0.0, 0.7)
    dt = 0.5 * smoluchowski_dt_max(grid, HARMONIC, PARAMS)
    n = 40
    for _ in range(n):
        f = smoluchowski_step(f, HARMONIC, PARAMS, Ordering.SYMMETRIC, dt)
    rate = -math.log(f.mass) / (n * dt)
    assert rate == pytest.approx(0.5, rel=1e-12)


def _compare_config(**over):
    base = dict(
        potential=HARMONIC,
        params=PARAMS,
        dt=0.01,
        steps=40,
        n_traj=4000,
        master_seed=909,
        x0=0.5,
        sigma_x=0.0,
    )
    base.update(over)
    return SimConfig(**base)


def test_compare_langevin_fp_budget_and_records():
    cfg = _compare_config()
    grid = PhaseGrid(-3.0, 3.0, 128)
    times = (0.0, 0.2, 0.4)
    records, stats = compare_langevin_fp(cfg, grid, times, n_bins=32)
    assert [r.t for r in records] == list(times)
    assert stats.n_traj == 4000
    for rec in records:
        assert rec.l1 < 3.0 * (rec.stat_err + rec.disc_err)
        assert rec.sup >= 0.0
        assert rec.n_samples == 4000
        d = rec.as_dict()
        assert set(d) == {
            "t", "l1", "sup", "stat_err", "disc_err",
            "ens_mean", "ens_var", "fp_mean", "fp_var", "n_samples",
        }
    # both descriptions start centered on x0
    assert records[0].ens_mean == pytest.approx(0.5, abs=0.02)
    assert records[0].fp_mean == pytest.approx(0.5, abs=1e-6)
    # later means relax toward the origin together
    assert records[-1].fp_mean < records[0].fp_mean
    assert abs(records[-1].ens_mean - records[-1].fp_mean) < 0.05


def test_compare_langevin_fp_records_follow_the_requested_times():
    """Unsorted and repeated times give the records of the sorted distinct
    times, bit for bit, in the order asked."""
    cfg = _compare_config()
    grid = PhaseGrid(-3.0, 3.0, 128)
    ref, _ = compare_langevin_fp(cfg, grid, (0.0, 0.2, 0.4), n_bins=32)
    by_t = {r.t: r for r in ref}
    times = (0.4, 0.0, 0.2, 0.2)
    records, _ = compare_langevin_fp(cfg, grid, times, n_bins=32)
    assert [r.t for r in records] == list(times)
    for rec in records:
        assert repr(rec.as_dict()) == repr(by_t[rec.t].as_dict())


def test_compare_langevin_fp_input_guards():
    cfg = _compare_config()
    grid = PhaseGrid(-3.0, 3.0, 128)
    g2 = PhaseGrid(-3.0, 3.0, 32, v_min=-1.0, v_max=1.0, nv=16)
    with pytest.raises(ValueError, match="^grid must be 1D$"):
        compare_langevin_fp(cfg, g2, (0.1,))
    for n_bins in (0, -4, 48):
        with pytest.raises(ParameterError, match="^n_bins must be >= 1 and divide nx = 128$"):
            compare_langevin_fp(cfg, grid, (0.1,), n_bins=n_bins)
    with pytest.raises(ParameterError, match="^times must be multiples of dt"):
        compare_langevin_fp(cfg, grid, (0.013,))
    with pytest.raises(ValueError, match=r"^snapshot_steps must be in \[0, steps\]$"):
        compare_langevin_fp(cfg, grid, (1.5,))  # beyond steps * dt
    bad = _compare_config(x0=10.0)
    with pytest.raises(ParameterError, match=r"^x0 must lie inside the x grid \(-3, 3\)"):
        compare_langevin_fp(bad, grid, (0.1,))


@pytest.mark.parametrize("grid, pot, params, limit", [
    # diffusion-limited, and D dt_max / dx^2 rounds to just above 0.4 here
    (PhaseGrid(-2.0, 2.0, 64), Harmonic(1.0, 0.5), BathParams(1.0, 1.3, 0.5, 0.0),
     "diffusion"),
    (PhaseGrid(-3.2, 3.2, 32), DoubleWell(-1.0, 0.25), PARAMS, "drift"),
    (PhaseGrid(-3.0, 3.0, 32, v_min=-3.0, v_max=3.0, nv=32), HARMONIC, PARAMS,
     "phase-space"),
])
def test_dt_max_is_the_one_stability_bound(grid, pot, params, limit):
    if grid.is_2d:
        step, dt_max = kramers_step, kramers_dt_max(grid, pot, params)
        field = gaussian_field_2d(grid, 0.0, 0.6, 0.0, 0.6)
    else:
        step, dt_max = smoluchowski_step, smoluchowski_dt_max(grid, pot, params)
        field = gaussian_field_1d(grid, 0.0, 0.6)
        diffusion_dt = 0.4 * grid.dx**2 / params.D
        assert (dt_max == diffusion_dt) is (limit == "diffusion")
    out = step(field, pot, params, Ordering.MOMENTA_LEFT, dt_max)
    assert out.t == dt_max
    with pytest.raises(StabilityError) as exc:
        step(field, pot, params, Ordering.MOMENTA_LEFT, np.nextafter(dt_max, np.inf))
    assert exc.value.suggested_dt == dt_max


@st.composite
def _fp_problems(draw, two_d=None):
    """A random potential, bath, 1-D or 2-D grid and Gaussian start."""
    params = BathParams(mass=draw(st.floats(0.5, 2.0)), gamma=draw(st.floats(0.5, 3.0)),
                        k_bt=draw(st.floats(0.2, 1.0)), hbar=0.0)
    kind = draw(st.sampled_from(("harmonic", "double_well", "polynomial")))
    if kind == "harmonic":
        pot = Harmonic(mass=params.mass, omega0=draw(st.floats(0.2, 3.0)))
    elif kind == "double_well":
        pot = DoubleWell(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(0.01, 1.0)))
    else:
        pot = Polynomial(coeffs=tuple(draw(st.lists(st.floats(-2.0, 2.0),
                                                    min_size=1, max_size=5))))
    half = draw(st.floats(1.5, 4.0))
    nx = draw(st.integers(16, 96))
    if two_d is None:
        two_d = draw(st.booleans())
    if two_d:
        v_half = draw(st.floats(1.5, 4.0))
        grid = PhaseGrid(-half, half, nx, -v_half, v_half, draw(st.integers(16, 96)))
        field = gaussian_field_2d(grid, 0.2 * half, 0.3 * half, 0.0, 0.4 * v_half)
    else:
        grid = PhaseGrid(-half, half, nx)
        field = gaussian_field_1d(grid, 0.2 * half, 0.3 * half)
    return pot, params, field


def _operator(field, pot, params):
    if field.grid.is_2d:
        return KramersOperator(field.grid, pot, params), kramers_step
    return SmoluchowskiOperator(field.grid, pot, params), smoluchowski_step


_FRACTIONS = st.floats(1e-6, 1.0)  # dt / dt_max


def _bits(field):
    return field.t.hex(), field.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(_fp_problems(), st.sampled_from(Ordering), st.integers(1, 8), _FRACTIONS)
def test_advance_equals_repeated_public_steps(problem, ordering, n, frac):
    pot, params, field = problem
    op, step = _operator(field, pot, params)
    dt = frac * op.dt_max

    stepwise = field
    for _ in range(n):
        stepwise = step(stepwise, pot, params, ordering, dt)
    assert _bits(op.advance(field, ordering, dt, n)) == _bits(stepwise)


@settings(max_examples=40, deadline=None)
@given(_fp_problems(), st.integers(1, 20), _FRACTIONS)
def test_momenta_left_conserves_mass_to_roundoff(problem, n, frac):
    pot, params, field = problem
    op, _ = _operator(field, pot, params)
    out = op.advance(field, Ordering.MOMENTA_LEFT, frac * op.dt_max, n)
    assert abs(out.mass - field.mass) <= 1e-12 * field.mass


@settings(max_examples=40, deadline=None)
@given(_fp_problems(two_d=True), _FRACTIONS)
def test_symmetric_kramers_step_scales_mass_by_the_sink(problem, frac):
    pot, params, field = problem
    dt = frac * kramers_dt_max(field.grid, pot, params)
    out = kramers_step(field, pot, params, Ordering.SYMMETRIC, dt)
    expected = field.mass * math.exp(-params.gamma * dt / 2.0)
    assert abs(out.mass - expected) <= 1e-12 * expected


def _step_0_6_0(op, p, ordering, dt):
    """One explicit step of op as version 0.6.0 took it, in plain numpy: face
    fluxes, their divergence (F_in - F_out) / spacing, then p + dt * div and,
    for the symmetric ordering, the sink."""
    if p.ndim == 1:
        flux = np.zeros(p.size + 1)
        flux[1:-1] = (op.d / op.dx) * (op.bl * p[:-1] - op.br * p[1:])
        div = (flux[:-1] - flux[1:]) / op.dx
    else:
        nx, nv = p.shape
        # x transport: van Leer slopes 2 d1 d2 / (d1 + d2) where the
        # differences agree in sign, zero on the first and last x rows, and the
        # upwind face value p +- slope / 2
        d = np.diff(p, axis=0)
        prod, denom = d[:-1] * d[1:], d[:-1] + d[1:]
        slope = np.zeros_like(p)
        slope[1:-1] = np.where(prod > 0, 2.0 * prod / np.where(prod > 0, denom, 1.0), 0.0)
        slope *= 0.5
        v = op.speed.reshape(nx - 1, nv)
        flux_x = np.zeros((nx + 1, nv))
        flux_x[1:-1] = v * np.where(v > 0, p[:-1] + slope[:-1], p[1:] - slope[1:])
        # v drift-diffusion: exponential-upwind faces, zero at both v ends
        bl, br = (np.append(w, 0.0).reshape(nx, nv)[:, :-1] for w in (op.bl, op.br))
        flux_v = np.zeros((nx, nv + 1))
        flux_v[:, 1:-1] = (op.d_v / op.dv) * (bl * p[:, :-1] - br * p[:, 1:])
        div = (flux_x[:-1] - flux_x[1:]) / op.dx + (flux_v[:, :-1] - flux_v[:, 1:]) / op.dv
    new = p + dt * div
    return new * op.sink(dt) if ordering is Ordering.SYMMETRIC else new


@settings(max_examples=40, deadline=None)
@given(_fp_problems(), st.sampled_from(Ordering), st.integers(1, 10), _FRACTIONS)
def test_records_match_the_unfolded_step_to_roundoff(problem, ordering, n, frac):
    """Folding dt and the spacings into the kernel's weights moves a step by
    roundoff only. Each face term is a few roundings of a number no larger
    than the peak (dt <= dt_max keeps every cell's outflow below its mass),
    so the fold moves a step by a few ulps of the peak per term: under 2e-15
    of it for the at most four faces and one add of a 2-D cell. Ten steps of
    a scheme that does not amplify such errors stay below 2e-14, and 1e-13
    leaves a factor of five."""
    pot, params, field = problem
    op, _ = _operator(field, pot, params)
    dt = frac * op.dt_max
    ref = field.values
    for _ in range(n):
        ref = _step_0_6_0(op, ref, ordering, dt)
    (out,) = op.records(field, ordering, dt, [n])
    assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(ref)


def _field_rule_0_2_0(vals):
    """The field rule of version 0.2.0, written out: the message of the error
    it raises, or None when it accepts."""
    if not np.all(np.isfinite(vals)):
        return "field values must be finite"
    scale = float(np.max(vals, initial=0.0))
    if vals.min(initial=0.0) < -1e-10 * max(scale, 1e-300):
        return "field has negative values beyond undershoot tolerance"
    return None


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1e-300, 1.0, -1e-10, 1.7976931348623157e308, -1.7976931348623157e308,
                math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def _undershoots(draw):
    """A field whose largest value is scale and whose smallest sits on, just
    inside or just outside the undershoot bound -1e-10 * max(scale, 1e-300)."""
    scale = draw(st.one_of(st.just(0.0), st.floats(5e-324, 1e300)))
    bound = -1e-10 * max(scale, 1e-300)
    low = draw(st.sampled_from([bound, np.nextafter(bound, 0.0),
                                np.nextafter(bound, -math.inf)]))
    rest = draw(st.lists(st.floats(0.0, scale), max_size=6))
    return np.array([scale, low, *rest])


_FIELDS = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_VALUES)),
             max_size=12).map(np.array),
    st.integers(0, 4).map(np.zeros),
    _undershoots(),
)


@settings(max_examples=200, deadline=None)
@given(_FIELDS, st.booleans())
def test_field_check_accepts_and_rejects_as_version_0_2_0(vals, as_grid):
    vals = np.asarray(vals, dtype=float)
    if as_grid:
        vals = vals.reshape(1, -1)  # the rule reads 2-D fields the same way
    expected = _field_rule_0_2_0(vals)
    if expected is None:
        fp._check_values(vals)
    else:
        with pytest.raises(ValueError) as exc:
            fp._check_values(vals)
        assert str(exc.value) == expected
    # the finiteness half is the density matrix's check
    complex_vals = vals.astype(complex)
    if np.all(np.isfinite(vals)):
        fp._check_values(complex_vals, nonnegative=False)
    else:
        with pytest.raises(ValueError, match="^field values must be finite$"):
            fp._check_values(complex_vals, nonnegative=False)


def test_advance_raises_at_the_first_bad_step():
    grid = PhaseGrid(-3.0, 3.0, 32)
    field = gaussian_field_1d(grid, 0.0, 0.5)
    calls = []

    class Jump(fp._GridOperator):  # an operator whose k-th increment breaks the field
        dt_max, bound = 1.0, "test bound"

        def __init__(self, k, value):
            self.k, self.value = k, value

        def increment_kernel(self, dt):
            inc = np.empty(grid.nx)

            def increment(p):
                calls.append(p)
                inc.fill(self.value if len(calls) == self.k else 0.0)
                return inc

            return increment

    for op, message in [(Jump(3, -1e6), "beyond undershoot tolerance"),
                        (Jump(2, math.nan), "must be finite"),
                        (Jump(4, math.inf), "must be finite")]:
        calls.clear()
        with pytest.raises(ValueError, match=message):
            op.advance(field, Ordering.MOMENTA_LEFT, 0.1, 10)
        assert len(calls) == op.k


def test_advance_leaves_its_input_and_earlier_results_alone():
    grid = PhaseGrid(-3.0, 3.0, 24, -3.0, 3.0, 20)
    field = gaussian_field_2d(grid, 0.3, 0.6, -0.2, 0.7)
    op = KramersOperator(grid, DoubleWell(-1.0, 0.25), PARAMS)
    dt = 0.5 * op.dt_max
    start = field.values.copy()
    first = op.advance(field, Ordering.SYMMETRIC, dt, 3)
    kept = first.values.copy()
    second = op.advance(first, Ordering.SYMMETRIC, dt, 4)
    again = op.advance(field, Ordering.SYMMETRIC, dt, 3)
    assert field.values.tobytes() == start.tobytes()
    assert first.values.tobytes() == kept.tobytes() == again.values.tobytes()
    assert not np.shares_memory(second.values, first.values)
    assert op.advance(field, Ordering.SYMMETRIC, dt, 0) is field


# the records contract, one set of tests for the three operators on the shared
# stepping run: a fixed small problem of each, and a random one

_MASTER_PARAMS = BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=1.0)


def _smoluchowski_run():
    field = gaussian_field_1d(PhaseGrid(-3.0, 3.0, 32), 0.0, 0.5)
    return SmoluchowskiOperator(field.grid, HARMONIC, PARAMS), field


def _kramers_run():
    grid = PhaseGrid(-3.0, 3.0, 24, -3.0, 3.0, 20)
    field = gaussian_field_2d(grid, 0.3, 0.6, -0.2, 0.7)
    return KramersOperator(grid, DoubleWell(-1.0, 0.25), PARAMS), field


def _master_run():
    rho = superposition_state(41, 0.08, 31, 0.1, separation=1.5, sigma=0.3)
    return MasterOperator(rho, HARMONIC, _MASTER_PARAMS), rho


_RUNS = {"smoluchowski": _smoluchowski_run, "kramers": _kramers_run,
         "master": _master_run}


@st.composite
def _random_runs(draw, kind):
    """(operator, start, dt): a random problem of one kind and a stable dt."""
    if kind != "master":
        pot, params, field = draw(_fp_problems(two_d=kind == "kramers"))
        op, _ = _operator(field, pot, params)
        return op, field, draw(_FRACTIONS) * op.dt_max
    pot = draw(st.none() | _fp_problems(two_d=False).map(lambda problem: problem[0]))
    ny = 2 * draw(st.integers(8, 20)) + 1
    rho = gaussian_pure_state(draw(st.integers(16, 48)), draw(st.floats(0.05, 0.15)),
                              ny, draw(st.floats(0.05, 0.2)),
                              sigma=draw(st.floats(0.3, 0.8)))
    terms = draw(st.lists(st.sampled_from(("kinetic", "potential", "friction",
                                           "decoherence")), unique=True))
    # friction's CFL bound, which dt_max is only with the friction term
    dt = draw(_FRACTIONS) / (_MASTER_PARAMS.gamma * (ny // 2))
    return MasterOperator(rho, pot, _MASTER_PARAMS, terms), rho, dt


@pytest.mark.parametrize("kind", sorted(_RUNS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_records_equal_chained_advance_calls(kind, data):
    """records(field, ordering, dt, marks) yields, bit for bit, what one
    advance call per mark, each from the last one's result, returns."""
    op, field, dt = data.draw(_random_runs(kind))
    ordering = data.draw(st.sampled_from(Ordering))
    marks = list(itertools.accumulate(data.draw(st.lists(st.integers(1, 4), min_size=1,
                                                         max_size=5))))
    chained, done = field, 0
    for mark, rec in zip(marks, op.records(field, ordering, dt, marks), strict=True):
        chained, done = op.advance(chained, ordering, dt, mark - done), mark
        assert _bits(rec) == _bits(chained)


@pytest.mark.parametrize("kind", sorted(_RUNS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symmetric_step_is_the_momenta_left_step_times_the_sink(kind, data):
    """The ordering's only difference: on a random problem, one symmetric
    step is one momenta-left step times the operator's sink, bit for bit.
    The sink is exp(-dt V''(x) / 2 M gamma) overdamped and exp(-gamma dt / 2)
    in phase space and for the density matrix."""
    op, field, dt = data.draw(_random_runs(kind))
    left = op.advance(field, Ordering.MOMENTA_LEFT, dt, 1)
    symmetric = op.advance(field, Ordering.SYMMETRIC, dt, 1)
    if kind == "smoluchowski":
        sink = np.exp(-dt * op.potential.hess(field.grid.x_centers) / op.sink_scale)
    else:
        sink = math.exp(-op.gamma * dt / 2.0)
    assert np.array_equal(op.sink(dt), sink)
    scaled = replace(left, values=left.values * sink)
    if kind == "master":
        # bit for bit on the y >= 0 half, which the steps run on; its mirror,
        # conj(half sink) against conj(half) sink, may differ in a zero's sign
        assert np.array_equal(symmetric.values, scaled.values)
        scaled.values[:, :field.ny // 2] = symmetric.values[:, :field.ny // 2]
    assert _bits(symmetric) == _bits(scaled)


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_records_reject_marks_that_do_not_increase(kind):
    op, field = _RUNS[kind]()
    for marks in ([0], [2, 2], [3, 1]):
        with pytest.raises(ValueError, match="increase"):
            list(op.records(field, Ordering.MOMENTA_LEFT, 0.5 * op.dt_max, marks))


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_records_own_their_buffers_and_check_dt_without_steps(kind):
    op, field = _RUNS[kind]()
    dt = 0.5 * op.dt_max
    start = field.values.tobytes()
    recs = list(op.records(field, Ordering.SYMMETRIC, dt, [1, 3, 4]))
    assert field.values.tobytes() == start
    for a, b in itertools.combinations([field, *recs], 2):
        assert not np.shares_memory(a.values, b.values)
    # stepping on from a result reads it and leaves it as it was
    kept = recs[0].values.tobytes()
    op.advance(recs[0], Ordering.SYMMETRIC, dt, 2)
    assert recs[0].values.tobytes() == kept
    with pytest.raises(ValueError, match="dt must be > 0"):
        op.advance(field, Ordering.MOMENTA_LEFT, -0.1, 0)


@pytest.mark.parametrize("kind", sorted(_RUNS))
def test_records_accept_dt_max_and_refuse_the_next_float_up(kind):
    op, field = _RUNS[kind]()
    assert 0.0 < op.dt_max < math.inf
    assert op.advance(field, Ordering.MOMENTA_LEFT, op.dt_max, 1).t == op.dt_max
    with pytest.raises(StabilityError, match=f"^{op.bound} exceeded") as exc:
        op.advance(field, Ordering.MOMENTA_LEFT, np.nextafter(op.dt_max, np.inf), 0)
    assert exc.value.suggested_dt == op.dt_max


# a magnitude over most of the float range, and a signed value or zero
_SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_VALUES = st.one_of(st.just(0.0), _SCALES, _SCALES.map(lambda v: -v))


@st.composite
def _admitted(draw, make, *args):
    """make(*drawn args), or a rejected example where make refuses one of
    them with a ParameterError: only values their constructor admits."""
    try:
        return make(*(draw(arg) for arg in args))
    except ParameterError:
        hypothesis.reject()


_AXES = st.tuples(_VALUES, _SCALES, st.integers(16, 40)).map(lambda a: (a[0], a[0] + a[1], a[2]))
_POTENTIALS = st.one_of(
    _admitted(Harmonic, _SCALES, _SCALES),
    _admitted(DoubleWell, _VALUES, _SCALES),
    _admitted(lambda c: Polynomial(tuple(c)), st.lists(_VALUES, min_size=1, max_size=5)))
_CLASSICAL = _admitted(BathParams, _SCALES, _SCALES, _SCALES, st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(_admitted(lambda x, v: PhaseGrid(*x, *v), _AXES, st.one_of(st.just((None,) * 3), _AXES)),
       _POTENTIALS, _CLASSICAL)
def test_an_admitted_grid_operator_has_a_bound_or_refuses_by_name(grid, pot, params):
    """Every grid, potential and bath that their constructors admit builds a
    Smoluchowski or Kramers operator with a finite dt_max > 0, under
    warnings-as-errors, or the operator refuses them with a ParameterError.
    A steep drift over fine cells once overflowed the Scharfetter-Gummel
    outflow rate with a numpy warning and gave dt_max = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            op = (KramersOperator if grid.is_2d else SmoluchowskiOperator)(grid, pot, params)
        except ParameterError:
            return
    assert 0.0 < op.dt_max < math.inf


@st.composite
def _master_problems(draw):
    """An admitted quantum bath and a Gaussian state on a grid that the
    state's sigma and the bath's thermal length l_e resolve: each spacing is
    a drawn fraction of its largest admitted value."""
    params = draw(_admitted(BathParams, _SCALES, _SCALES, _SCALES, _SCALES))
    sigma, fraction = draw(_SCALES), st.floats(1e-3, 1.0)
    try:
        dy = min(2.0 * sigma, _RESOLVED * decoherence_params(params).l_e / 2.0) / _RESOLVED
        rho = gaussian_pure_state(draw(st.integers(16, 24)), sigma / _RESOLVED * draw(fraction),
                                  draw(st.sampled_from([1, 3, 9])), dy * draw(fraction),
                                  sigma=sigma)
    except ParameterError:
        hypothesis.reject()
    return rho, params


@settings(max_examples=150, deadline=None)
@given(_master_problems(), st.one_of(st.none(), _POTENTIALS))
def test_an_admitted_master_operator_has_a_bound_or_refuses_by_name(problem, pot):
    """The master operator's friction CFL bound, 1 / gamma (ny // 2), is > 0,
    and finite but on a grid of one y column, which has no friction term;
    or the operator refuses the state's grid and the bath with a
    ParameterError."""
    rho, params = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            op = MasterOperator(rho, pot, params)
        except ParameterError:
            return
    assert op.dt_max > 0.0 and (op.dt_max < math.inf) is (rho.ny > 1)
