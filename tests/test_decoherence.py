"""Density-matrix evolution tests: exact substeps, scales, Wigner transform."""

import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bathdyn.decoherence as dc
from bathdyn import (
    BathParams,
    DensityField,
    DoubleWell,
    Harmonic,
    MasterOperator,
    Ordering,
    ParameterError,
    Polynomial,
    StabilityError,
    decoherence_params,
    gaussian_pure_state,
    interference_amplitude,
    master_step,
    superposition_state,
    wigner_transform,
)
from bathdyn.cli import main

PARAMS = BathParams(mass=1.0, gamma=2.0, k_bt=0.5, hbar=1.0)


def _unresolved_gaussian(nx, dx, ny, dy, sigma):
    """gaussian_pure_state(nx, dx, ny, dy, sigma=sigma), bit for bit, without
    its test that the grid resolves sigma (dc._check_state): the edge-measure
    and half-space tests draw grids coarser than that on purpose, and
    neither needs the spectral substep to resolve the state."""
    return dc._pure_state_field(
        lambda x: np.exp(-((x - 0.0) ** 2) / (4.0 * sigma ** 2)).astype(complex), nx, dx, ny, dy)


def test_decoherence_params_identities():
    d = decoherence_params(PARAMS)
    # w = 2 M gamma kT = 2, Lambda = w / 2 hbar^2; w and D stay on BathParams
    assert PARAMS.w == 2.0
    assert not hasattr(d, "w") and not hasattr(d, "D")
    assert d.lam == 1.0
    assert d.l_e_sq == 4.0 * math.pi
    assert d.l_e == math.sqrt(d.l_e_sq)
    # Lambda * l_e^2 == 2 pi gamma holds to the last bit at these values
    assert d.lam * d.l_e_sq == 2.0 * math.pi * PARAMS.gamma

    doubled = decoherence_params(BathParams(1.0, 2.0, 0.5, hbar=2.0))
    assert doubled.lam == d.lam / 4.0
    assert doubled.l_e_sq == 4.0 * d.l_e_sq

    with pytest.raises(ParameterError, match=r"^hbar must be > 0 with a finite, nonzero square$"):
        decoherence_params(BathParams(1.0, 2.0, 0.5, hbar=0.0))


def test_density_field_validation():
    with pytest.raises(ValueError, match="ny must be odd"):
        DensityField(np.ones((8, 6), dtype=complex), 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="2D"):
        DensityField(np.ones(8, dtype=complex), 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="spacings"):
        DensityField(np.ones((8, 7), dtype=complex), 0.0, -0.1, 0.1)
    bad = np.ones((8, 7), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityField(bad, 0.0, 0.1, 0.1)

    f = DensityField(np.ones((8, 7), dtype=complex), -0.35, 0.1, 0.2)
    assert f.nx == 8 and f.ny == 7
    assert f.x_grid[0] == -0.35
    assert f.y_grid[3] == 0.0
    assert f.y_grid[-1] == 3 * 0.2


def test_pure_states_are_normalized_and_hermitian():
    rho = gaussian_pure_state(81, 0.1, 61, 0.12, center=0.2, sigma=0.5)
    assert abs(rho.trace() - 1.0) < 1e-12
    assert rho.herm_deviation() == 0.0
    # diagonal is |psi|^2 with the same discrete normalization
    x = rho.x_grid
    q = np.exp(-((x - 0.2) ** 2) / (2 * 0.5 ** 2))
    q /= q.sum() * rho.dx
    j0 = (rho.ny - 1) // 2
    np.testing.assert_allclose(rho.values[:, j0].real, q, rtol=1e-12)
    assert np.max(np.abs(rho.values[:, j0].imag)) == 0.0

    sup = superposition_state(101, 0.08, 81, 0.2, separation=4.0, sigma=0.3)
    assert abs(sup.trace() - 1.0) < 1e-12
    assert sup.herm_deviation() == 0.0

    with pytest.raises(ValueError, match="sigma"):
        gaussian_pure_state(64, 0.1, 61, 0.1, sigma=0.0)
    with pytest.raises(ValueError, match="separation"):
        superposition_state(64, 0.1, 61, 0.1, separation=0.0, sigma=0.3)
    # a grid of no x points holds no norm to divide by
    with pytest.raises(ValueError, match="^state has nonpositive norm on this grid$"):
        gaussian_pure_state(0, 0.1, 61, 0.1, sigma=0.5)


def test_pure_states_scale_exactly_with_their_units():
    """A state built in units 2^510 times larger has the same profile: its
    values times 2^510 are the unit-scale state's bit for bit, though its
    squared distances leave the float range (numpy's "overflow encountered
    in square" before, an error under the suite's warnings filter)."""
    scale = 2.0 ** 510
    for build in (lambda s: gaussian_pure_state(17, 0.5 * s, 3, 1.0 * s, sigma=1.2 * s),
                  lambda s: superposition_state(17, 0.5 * s, 3, 1.0 * s, separation=3.0 * s,
                                                sigma=1.2 * s)):
        small, big = build(1.0), build(scale)
        np.testing.assert_array_equal(big.values * scale, small.values)


def test_decoherence_substep_is_exact():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    d = decoherence_params(PARAMS)
    dt = 0.01
    out = master_step(rho, None, PARAMS, dt, terms=("decoherence",))
    expected = rho.values * np.exp(-d.lam * rho.y_grid ** 2 * dt)[None, :]
    assert np.array_equal(out.values, expected)
    # the y = 0 row carries factor exp(0) = 1, so the trace cannot move
    assert out.trace() == rho.trace()
    assert out.t == dt


def test_friction_substep_leaves_diagonal_untouched():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    j0 = (rho.ny - 1) // 2
    out = master_step(rho, None, PARAMS, 0.01, terms=("friction",))
    assert np.array_equal(out.values[:, j0], rho.values[:, j0])
    assert out.trace() == rho.trace()


def test_kinetic_substep_conserves_trace_and_hermiticity():
    rho = gaussian_pure_state(81, 0.1, 61, 0.12, sigma=0.5)
    tr0 = rho.trace()
    r = rho
    for _ in range(20):
        r = master_step(r, None, PARAMS, 0.002, terms=("kinetic",))
    assert abs(r.trace() - tr0) < 1e-12
    assert r.herm_deviation() < 1e-12


def _smooth_odd_lengths(limit):
    """Every odd number up to limit with no prime factor above 11, built as
    products of powers of 3, 5, 7 and 11."""
    out = {1}
    for p in (3, 5, 7, 11):
        out |= {k * p ** e for k in out for e in range(1, 12) if k * p ** e <= limit}
    return sorted(out)


_SMOOTH = _smooth_odd_lengths(20_000)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4000))
def test_padded_length_is_the_smallest_odd_11_smooth_length(n):
    m = dc._odd_padded(n)
    floor = n
    assert m % 2 == 1 and m >= floor and m in _SMOOTH
    assert not any(floor <= k < m for k in _SMOOTH)


def _odd_padded_0_2_0(n):
    """The padding rule of version 0.2.0, written out: n + n//2, forced odd."""
    m = n + n // 2
    return m if m % 2 == 1 else m + 1


@pytest.mark.parametrize("state", [
    lambda nx, ny: superposition_state(nx, 0.08, ny, 0.2, separation=3.1, sigma=0.3),
    lambda nx, ny: gaussian_pure_state(nx, 0.08, ny, 0.2, sigma=0.3),
], ids=["superposition", "gaussian"])
def test_kinetic_substeps_do_not_depend_on_the_padding(monkeypatch, state):
    # the states of the two decohere byte-identity cases on the CLI's default
    # 101 x 81 grid, where both fall below 1e-12 of their peak at every edge:
    # zero padding stands in for free space only for a field that vanishes
    # there (on the cases' own 41 x 31 and 33 x 25 grids they do not, and the
    # two paddings differ by up to 4.8e-3 of the peak after these 30 steps)
    rho = state(101, 81)
    scale = np.max(np.abs(rho.values))
    edges = np.abs(np.concatenate([rho.values[[0, -1], :].ravel(),
                                   rho.values[:, [0, -1]].ravel()]))
    assert np.max(edges) < 1e-12 * scale
    heavy = BathParams(mass=20.0, gamma=6.25e-3, k_bt=1.0, hbar=1.0)
    op = MasterOperator(rho, None, heavy, terms=("kinetic",))
    smooth = op.advance(rho, Ordering.MOMENTA_LEFT, 0.002, 30)
    assert dc._odd_padded(101) == 105 != _odd_padded_0_2_0(101)
    # the padded lengths are taken per run, so the patch reaches the next run
    monkeypatch.setattr(dc, "_odd_padded", _odd_padded_0_2_0)
    diff = smooth.values - op.advance(rho, Ordering.MOMENTA_LEFT, 0.002, 30).values
    assert np.max(np.abs(diff)) <= 1e-12 * scale


def test_friction_cfl_guard():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    y_max = float(np.max(np.abs(rho.y_grid)))
    with pytest.raises(StabilityError, match="CFL") as exc:
        master_step(rho, None, PARAMS, 1.0, terms=("friction",))
    suggested = exc.value.suggested_dt
    assert suggested == pytest.approx(rho.dy / (PARAMS.gamma * y_max), rel=1e-14)
    out = master_step(rho, None, PARAMS, 0.999 * suggested, terms=("friction",))
    assert out.herm_deviation() < 1e-12


@pytest.mark.parametrize("ny, dy", [(27, 0.48677884615384615), (31, 0.12), (17, 0.3)])
def test_friction_cfl_guard_accepts_the_dt_it_suggests(ny, dy):
    """The suggested dt is the bound itself: accepted, and the next float up
    is not. At ny = 27, dy = 0.48677884615384615 the product gamma y_max dt
    of the suggestion dy / (gamma y_max) rounds above dy."""
    rho = gaussian_pure_state(1, 0.1, ny, dy, sigma=0.5)
    op = MasterOperator(rho, None, PARAMS, terms=("friction",))
    with pytest.raises(StabilityError, match="CFL") as exc:
        op.advance(rho, Ordering.MOMENTA_LEFT, 1.0, 0)
    suggested = exc.value.suggested_dt
    assert suggested == op.dt_max
    out = op.advance(rho, Ordering.MOMENTA_LEFT, suggested, 3)
    assert np.all(np.isfinite(out.values))
    with pytest.raises(StabilityError, match="CFL"):
        op.advance(rho, Ordering.MOMENTA_LEFT, math.nextafter(suggested, 1.0), 3)


def test_thermal_length_resolution_guard():
    heavy = BathParams(mass=20.0, gamma=6.25e-3, k_bt=1.0, hbar=1.0)
    d = decoherence_params(heavy)
    rho = gaussian_pure_state(41, 0.1, 31, 0.5, sigma=0.5)
    assert rho.dy > d.l_e / 2.0
    with pytest.raises(ParameterError, match="^dy must resolve the thermal length") as exc:
        master_step(rho, None, heavy, 0.001)
    assert exc.value.name == "dy" and exc.value.text.endswith(f"(got {rho.dy:g})")


def test_master_step_input_guards():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    with pytest.raises(ValueError, match="dt must be > 0"):
        master_step(rho, None, PARAMS, 0.0)
    with pytest.raises(ValueError, match="unknown term"):
        master_step(rho, None, PARAMS, 0.01, terms=("kinetic", "noise"))
    classical = BathParams(1.0, 2.0, 0.5, hbar=0.0)
    with pytest.raises(ValueError, match="hbar must be > 0"):
        master_step(rho, None, classical, 0.01)


def test_symmetric_ordering_scales_trace():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    dt = 0.01
    factor = math.exp(-PARAMS.gamma * dt / 2.0)
    r = rho
    for k in range(1, 6):
        r = master_step(r, None, PARAMS, dt, ordering=Ordering.SYMMETRIC,
                        terms=("decoherence",))
        assert r.trace().real == pytest.approx(factor ** k, rel=1e-12)


def test_potential_substep_is_pure_phase():
    pot = Harmonic(1.0, 1.0)
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    out = master_step(rho, pot, PARAMS, 0.01, terms=("potential",))
    # phase factor has unit modulus, so |rho| is unchanged everywhere
    np.testing.assert_allclose(np.abs(out.values), np.abs(rho.values),
                               rtol=1e-13)
    assert abs(out.trace() - rho.trace()) < 1e-13
    assert out.herm_deviation() < 1e-12


def test_hermiticity_violation_is_fatal():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(21, 15)) + 1j * rng.normal(size=(21, 15))
    vals /= np.abs(vals).max()
    rho = DensityField(vals, -1.0, 0.1, 0.12)
    assert rho.herm_deviation() > 1e-8
    with pytest.raises(RuntimeError, match="hermiticity violated"):
        master_step(rho, None, PARAMS, 0.001, terms=("decoherence",))


def _herm_deviation_0_3_0(vals):
    """The hermiticity rule of version 0.3.0, written out: every column
    against its mirror, so each pair is compared twice."""
    flipped = np.conj(vals[:, ::-1])
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(vals - flipped))) / scale


@st.composite
def _complex_fields(draw):
    """A complex (nx, ny) field, ny odd and possibly 1, made Hermitian (up
    to the rounding of the mean) or left as drawn."""
    nx, ny = draw(st.integers(1, 9)), 2 * draw(st.integers(0, 6)) + 1
    parts = hnp.arrays(np.float64, (2, nx, ny),
                       elements=st.floats(-1e6, 1e6, allow_subnormal=True))
    re, im = draw(parts)
    vals = re + 1j * im
    if draw(st.booleans()):
        vals = (vals + np.conj(vals[:, ::-1])) / 2.0
    return vals


@settings(max_examples=200, deadline=None)
@given(_complex_fields())
@example(np.zeros((4, 5), dtype=complex))
@example(np.array([[1.0 + 2.0j], [-3.0 + 0.5j]]))
@example(np.array([[1.0 + 1.0j, 2.0 - 1.0j, 1.0 - 1.0j]]))
@example(np.array([[1.0 + 1.0j, 2.0 - 1.0j, 1.0 + 1.0j]]))
def test_herm_deviation_compares_each_column_pair_once(vals):
    expected = _herm_deviation_0_3_0(vals)
    assert dc._herm_deviation(vals) == expected
    assert DensityField(vals, 0.0, 0.1, 0.1).herm_deviation() == expected


def test_herm_deviation_sees_a_non_hermitian_field():
    vals = np.ones((3, 5), dtype=complex)
    assert dc._herm_deviation(vals) == 0.0
    vals[1, 4] = 1.0 + 0.5j  # its mirror, vals[1, 0], stays 1
    assert dc._herm_deviation(vals) == 0.5 / abs(1.0 + 0.5j)
    vals[1, 4] = 1.0
    vals[2, 2] = 1.0 + 1e-3j  # the y = 0 column must be real
    assert dc._herm_deviation(vals) == abs(2e-3j) / abs(1.0 + 1e-3j)


def _edge_max_over_peak(vals):
    """The edge measure written out: the largest |rho| on each of the four
    edges, the largest of those over the largest |rho| anywhere."""
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        return 0.0
    edges = (vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1])
    return max(float(np.max(np.abs(edge))) for edge in edges) / float(peak)


@settings(max_examples=200, deadline=None)
@given(_complex_fields())
@example(np.zeros((4, 5), dtype=complex))
@example(np.array([[0.5 + 0.0j]]))
def test_edge_measure_is_the_largest_edge_sample_over_the_peak(vals):
    rho = DensityField(vals, 0.0, 0.1, 0.1)
    assert rho.edge_measure() == _edge_max_over_peak(vals)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 20), st.floats(0.02, 3.0),
       st.integers(0, 2**32 - 1))
@example(41, 15, 0.1, 0)  # clears the edges: 6.1e-13, at the y edges
@example(41, 15, 3.0, 0)  # touches them: 0.97, at the y edges
def test_edge_measure_of_gaussian_states_that_clear_or_touch_the_edge(nx, half_ny,
                                                                       sigma, seed):
    """A Gaussian state centred on its grid, under random unit phases: its
    peak is at x = y = 0 and |rho| = exp(-x^2 / 2 sigma^2 - y^2 / 8 sigma^2),
    so the measure is that at the nearer x edge (y = 0) or the y edge
    (x = 0), whichever is larger, whether the state clears the edges or
    touches them."""
    rho = _unresolved_gaussian(nx, 0.1, 2 * half_ny + 1, 0.1, sigma)
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, rho.values.shape)
    rho.values = rho.values * np.exp(1j * phases)
    measure = rho.edge_measure()
    assert measure == _edge_max_over_peak(rho.values)
    x_edge, y_edge = min(-rho.x_grid[0], rho.x_grid[-1]), rho.y_grid[-1]
    closed = max(math.exp(-x_edge ** 2 / (2.0 * sigma ** 2)),
                 math.exp(-y_edge ** 2 / (8.0 * sigma ** 2)))
    assert measure == pytest.approx(closed, rel=1e-12, abs=1e-300)


def test_wigner_of_gaussian_matches_closed_form():
    sigma = 0.5
    rho = gaussian_pure_state(81, 0.1, 201, 0.15, sigma=sigma)
    w, p = wigner_transform(rho, 1.0)
    x = rho.x_grid
    analytic = (1.0 / math.pi) * np.exp(
        -x[:, None] ** 2 / (2 * sigma ** 2) - 2 * sigma ** 2 * p[None, :] ** 2
    )
    assert np.max(np.abs(w - analytic)) < 1e-12
    # on the conjugate momentum grid the double Riemann sum is the trace
    dp = p[1] - p[0]
    assert abs(w.sum() * rho.dx * dp - rho.trace().real) < 1e-12


def test_wigner_shift_theorem():
    # multiplying rho by exp(i p0 y / hbar) shifts the transform argument
    rho = gaussian_pure_state(81, 0.1, 201, 0.15, sigma=0.5)
    p0 = 1.3
    phase = np.exp(1j * p0 * rho.y_grid / 1.0)
    rho2 = DensityField(rho.values * phase[None, :], rho.x0, rho.dx, rho.dy)
    assert rho2.herm_deviation() == 0.0
    pg = np.linspace(-3.0, 3.0, 41)
    w2, _ = wigner_transform(rho2, 1.0, p_grid=pg)
    w1, _ = wigner_transform(rho, 1.0, p_grid=pg + p0)
    assert np.max(np.abs(w2 - w1)) < 1e-12


def test_wigner_input_guards():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    with pytest.raises(ValueError, match="hbar"):
        wigner_transform(rho, 0.0)
    rng = np.random.default_rng(5)
    vals = (rng.normal(size=(21, 15)) + 1j * rng.normal(size=(21, 15)))
    lopsided = DensityField(vals, 0.0, 0.1, 0.12)
    with pytest.raises(ValueError, match="Hermitian"):
        wigner_transform(lopsided, 1.0)


def _wigner_complex(rho, hbar, p_grid):
    """W by the full complex sum over every y, as version 0.5.0 took it, but
    with the phase p y / hbar rounded in real arithmetic, as the half-plane
    sum rounds it (0.5.0 divided the complex i p y by hbar, which moves a
    large phase by more than the sums differ)."""
    phase = np.exp(1j * (np.outer(p_grid, rho.y_grid) / hbar))
    return ((rho.dy / (2.0 * np.pi * hbar)) * (rho.values @ phase.T)).real


def test_default_wigner_grid_is_built_once_and_read_only():
    hbar = 0.7
    rho = superposition_state(41, 0.08, 31, 0.1, separation=1.5, sigma=0.3)
    w, p = wigner_transform(rho, hbar)
    p_old = np.sort(2.0 * np.pi * hbar * np.fft.fftfreq(rho.ny, d=rho.dy))
    assert np.array_equal(p, p_old)
    w_full = _wigner_complex(rho, hbar, p_old)
    assert np.max(np.abs(w - w_full)) <= 1e-14 * np.max(np.abs(w_full))

    other = gaussian_pure_state(41, 0.08, 31, 0.1, sigma=0.4)
    _, p_again = wigner_transform(other, hbar)
    p_cached, factor = dc._default_wigner_grid(rho.ny, rho.dy, hbar)
    assert p_again is p is p_cached
    assert factor.shape == (2 * (rho.ny // 2), rho.ny)
    for shared in (p, factor, factor.T):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0

    # an explicit grid takes the uncached path and stays the caller's
    mine = np.linspace(-2.0, 2.0, 9)
    w_mine, p_mine = wigner_transform(rho, hbar, p_grid=mine)
    assert p_mine is mine and p_mine.flags.writeable
    w_full = _wigner_complex(rho, hbar, mine)
    assert np.max(np.abs(w_mine - w_full)) <= 1e-14 * np.max(np.abs(w_full))


@st.composite
def _hermitian_fields(draw):
    """A random exactly Hermitian field, rho(x, y) = (a(x, y) + conj a(x, -y)) / 2
    for a random complex a of random scale (the y = 0 column comes out real)."""
    nx, ny = draw(st.integers(1, 12)), 2 * draw(st.integers(0, 10)) + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny)))
    a *= 10.0 ** draw(st.integers(-30, 30))
    dx, dy = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
    return DensityField((a + np.conj(a[:, ::-1])) / 2.0, -0.5 * nx * dx, dx, dy)


@settings(max_examples=100, deadline=None)
@given(_hermitian_fields(), st.floats(0.05, 5.0), st.floats(-50.0, 50.0))
def test_half_plane_wigner_equals_the_full_complex_sum(rho, hbar, shift):
    """The default momentum grid and an explicit one, the default shifted by
    `shift` (a whole conjugate grid, so cancellation cannot make max |W| small
    against the sum's terms); the ridge amplitude is the largest |W| on the
    row nearest x = 0."""
    assert rho.herm_deviation() == 0.0
    w, p = wigner_transform(rho, hbar)
    w_full = _wigner_complex(rho, hbar, p)
    assert np.max(np.abs(w - w_full)) <= 1e-14 * np.max(np.abs(w_full))
    ix = int(np.argmin(np.abs(rho.x_grid)))
    amp = interference_amplitude(rho, hbar)
    assert abs(amp - np.max(np.abs(w_full[ix]))) <= 1e-14 * np.max(np.abs(w_full))
    w_mine, _ = wigner_transform(rho, hbar, p_grid=p + shift)
    w_full = _wigner_complex(rho, hbar, p + shift)
    assert np.max(np.abs(w_mine - w_full)) <= 1e-14 * np.max(np.abs(w_full))


def test_interference_amplitude_decays_monotonically():
    heavy = BathParams(mass=20.0, gamma=6.25e-3, k_bt=1.0, hbar=1.0)
    rho = superposition_state(101, 0.08, 81, 0.2, separation=4.0, sigma=0.3)
    amps = [interference_amplitude(rho, heavy.hbar)]
    r = rho
    for _ in range(10):
        r = master_step(r, None, heavy, 0.002, terms=("decoherence",))
        amps.append(interference_amplitude(r, heavy.hbar))
    assert all(a > b > 0.0 for a, b in zip(amps, amps[1:]))


def _draw_potential(draw):
    """No potential, or a random Harmonic, DoubleWell or Polynomial one."""
    kind = draw(st.sampled_from(("none", "harmonic", "double_well", "polynomial")))
    if kind == "harmonic":
        return Harmonic(mass=PARAMS.mass, omega0=draw(st.floats(0.2, 3.0)))
    if kind == "double_well":
        return DoubleWell(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(0.01, 1.0)))
    if kind == "polynomial":
        return Polynomial(coeffs=tuple(draw(st.lists(st.floats(-2.0, 2.0),
                                                     min_size=1, max_size=5))))
    return None


@st.composite
def _master_problems(draw):
    """A random potential (or none), grid, Gaussian state and stable dt."""
    pot = _draw_potential(draw)
    ny = 2 * draw(st.integers(8, 20)) + 1
    rho = gaussian_pure_state(draw(st.integers(16, 48)), draw(st.floats(0.05, 0.15)),
                              ny, draw(st.floats(0.05, 0.2)),
                              sigma=draw(st.floats(0.3, 0.8)))
    # friction's CFL bound as MasterOperator checks it, 1 / (gamma j0): the
    # same bound written dy / (gamma y_max) can round one ulp above it
    dt = draw(st.floats(1e-6, 1.0)) / (PARAMS.gamma * (ny // 2))
    return pot, rho, dt


@settings(max_examples=40, deadline=None)
@given(_master_problems(), st.sampled_from(Ordering),
       st.lists(st.sampled_from(dc._TERMS), unique=True), st.integers(1, 5))
def test_built_once_master_operator_equals_master_step(problem, ordering, terms, n):
    pot, rho, dt = problem
    stepwise = rho
    for _ in range(n):
        stepwise = master_step(stepwise, pot, PARAMS, dt, ordering, terms)
    start = rho.values.tobytes()
    op = MasterOperator(rho, pot, PARAMS, terms)
    out = op.advance(rho, ordering, dt, n)
    assert out.t.hex() == stepwise.t.hex()
    assert out.values.tobytes() == stepwise.values.tobytes()
    assert rho.values.tobytes() == start
    assert op.advance(rho, ordering, dt, 0) is rho


def _fft_roundoff_bound(nx, ny, n_steps):
    """Bound on ||half-space step - 0.3.0 step||_F / ||rho||_F after n_steps
    split steps on an nx x ny grid, stated from FFT roundoff alone.

    An FFT of length m is accurate to a relative 2-norm error of about
    eta log2(m), eta ~ 6.7 eps with correctly rounded twiddle factors
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 24), so a
    2-D transform on the padded mx x my grid, one 1-D transform along each
    axis, is accurate to eta log2(mx my). Take eta = 8 eps, and one log2
    more for the pointwise substeps' own roundings. Each step of each side
    runs a forward and an inverse transform (x2), the two sides err
    independently (x2), and the substeps are unitary or contracting except
    friction, whose upwind step grows the 2-norm by at most
    sqrt(1 + gamma dt): while (1 + gamma dt)^n_steps <= 2, errors and field
    grow together by at most 2 (x2). So 64 eps (log2(mx my) + 1) per step.
    """
    mx, my = dc._odd_padded(nx), dc._odd_padded(ny)
    return 64 * np.finfo(float).eps * (math.log2(mx * my) + 1) * n_steps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 20), st.floats(1e-5, 0.05),
       st.integers(0, 2**32 - 1))
def test_kinetic_substep_equals_the_padded_transform_rule(nx, half_ny, dt, seed):
    ny = 2 * half_ny + 1
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    v = v + np.conj(v[:, ::-1])  # exactly Hermitian
    rho = DensityField(v, -1.0, 0.08, 0.1)
    out = MasterOperator(rho, None, PARAMS, terms=("kinetic",)).advance(
        rho, Ordering.MOMENTA_LEFT, dt, 1)
    # the kinetic substep of version 0.3.0, written out
    mx, my = dc._odd_padded(nx), dc._odd_padded(ny)
    kx = 2.0 * np.pi * np.fft.fftfreq(mx, d=rho.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(my, d=rho.dy)
    phase = np.exp(-1j * (PARAMS.hbar / PARAMS.mass) * dt * kx[:, None] * ky[None, :])
    fft, ifft = np.fft.fft, np.fft.ifft
    expected = ifft(ifft(fft(fft(v, n=my, axis=1), n=mx, axis=0) * phase,
                         axis=1)[:, :ny], axis=0)[:nx]
    # 0.4.0 runs it with real transforms on the y >= 0 half: equal within
    # the stated FFT roundoff bound, no longer byte for byte
    error = np.linalg.norm(out.values - expected)
    assert error <= _fft_roundoff_bound(nx, ny, 1) * np.linalg.norm(v)


@settings(max_examples=40, deadline=None)
@given(_master_problems().filter(lambda p: dc._odd_padded(p[1].nx) == p[1].nx),
       st.integers(1, 5))
def test_momenta_left_master_trace_is_constant_to_roundoff(problem, n):
    """n momenta-left steps with all four terms keep the trace, sum_x rho(x, 0)
    dx, to roundoff on drawn problems whose x side the kinetic FFTs do not pad
    (odd and 11-smooth). There the kinetic substep is periodic on the grid and
    keeps each y column's x-sum, its kx = 0 mode, exactly; the potential,
    friction and decoherence substeps leave the y = 0 column as it is. (On a
    padded side a step drops what it carries into the padding rows: the wrap
    that grid_fits bounds, up to a tenth of the trace on these small grids.)

    Bound, from roundoff alone: the trace errs by at most dx sqrt(nx) times
    the 2-norm error of the y = 0 column, at most the field's, which
    _fft_roundoff_bound bounds relative to ||rho||_F (n <= 5 steps at
    dt <= 1 / (gamma j0), j0 >= 8, keep (1 + gamma dt)^n <= 1.8 <= 2, as it
    assumes); plus each trace sum's own rounding, nx eps times its sum of
    magnitudes."""
    pot, rho, dt = problem
    out = MasterOperator(rho, pot, PARAMS).advance(rho, Ordering.MOMENTA_LEFT, dt, n)
    j0, eps = rho.ny // 2, np.finfo(float).eps
    sums = np.abs(rho.values[:, j0]).sum() + np.abs(out.values[:, j0]).sum()
    bound = (rho.dx * math.sqrt(rho.nx) * np.linalg.norm(rho.values)
             * _fft_roundoff_bound(rho.nx, rho.ny, n) + rho.nx * eps * rho.dx * sums)
    assert abs(out.trace() - rho.trace()) <= bound


@pytest.mark.parametrize("terms, ordering", [
    (dc._TERMS, Ordering.MOMENTA_LEFT),
    (("kinetic",), Ordering.MOMENTA_LEFT),
    (dc._TERMS, Ordering.SYMMETRIC),
    (("friction", "decoherence"), Ordering.SYMMETRIC),
], ids=["default", "kinetic", "symmetric", "no-kinetic"])
def test_advance_results_own_their_buffers(terms, ordering):
    rho = superposition_state(41, 0.08, 31, 0.1, separation=1.5, sigma=0.3)
    start = rho.values.tobytes()
    op = MasterOperator(rho, Harmonic(1.0, 1.0), PARAMS, terms)
    first = op.advance(rho, ordering, 0.01, 3)
    kept = first.values.tobytes()
    second = op.advance(rho, ordering, 0.01, 3)
    assert second.values.tobytes() == kept and first.values.tobytes() == kept
    assert rho.values.tobytes() == start
    assert not np.shares_memory(first.values, second.values)
    assert not np.shares_memory(first.values, rho.values)
    # stepping on from a result reads it and leaves it as it was
    op.advance(first, ordering, 0.01, 2)
    assert first.values.tobytes() == kept


def test_advance_rejects_a_field_on_another_grid():
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    op = MasterOperator(rho, None, PARAMS)
    for other in (gaussian_pure_state(41, 0.1, 29, 0.12, sigma=0.5),
                  gaussian_pure_state(41, 0.1, 31, 0.1, sigma=0.5),
                  gaussian_pure_state(41, 0.1, 31, 0.12, center=0.3, sigma=0.5)):
        with pytest.raises(ValueError, match="grid"):
            op.advance(other, Ordering.MOMENTA_LEFT, 0.01, 1)


def _step_0_3_0(rho, pot, params, dt, ordering, terms):
    """One split step of version 0.3.0, written out: every substep on the
    full (nx, ny) field, the kinetic one by complex FFTs with y = 0 at index
    j0 of the padded grid."""
    v, y = rho.values, rho.y_grid
    nx, ny = v.shape
    j0 = ny // 2
    if "kinetic" in terms:
        mx, my = dc._odd_padded(nx), dc._odd_padded(ny)
        kx = 2.0 * np.pi * np.fft.fftfreq(mx, d=rho.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(my, d=rho.dy)
        phase = np.exp(-1j * (params.hbar / params.mass) * dt * kx[:, None] * ky[None, :])
        fft, ifft = np.fft.fft, np.fft.ifft
        v = ifft(ifft(fft(fft(v, n=my, axis=1), n=mx, axis=0) * phase,
                      axis=1)[:, :ny], axis=0)[:nx]
    if "potential" in terms and pot is not None:
        x = rho.x_grid
        dv = pot.value(x[:, None] + y[None, :] / 2.0) - pot.value(x[:, None] - y[None, :] / 2.0)
        v = v * np.exp(-1j * dv * dt / params.hbar)
    if "friction" in terms:
        c = dt * params.gamma / rho.dy
        new = v.copy()
        new[:, j0 + 1:] = v[:, j0 + 1:] - c * y[j0 + 1:] * (v[:, j0 + 1:] - v[:, j0:-1])
        new[:, :j0] = v[:, :j0] - c * y[:j0] * (v[:, 1:j0 + 1] - v[:, :j0])
        v = new
    if "decoherence" in terms:
        v = v * np.exp(-decoherence_params(params).lam * y ** 2 * dt)[None, :]
    if ordering is Ordering.SYMMETRIC:
        v = v * math.exp(-params.gamma * dt / 2.0)
    return DensityField(v, rho.x0, rho.dx, rho.dy, rho.t + dt)


@st.composite
def _clear_problems(draw):
    """A random potential (or none), a Gaussian state on a grid of 1 or
    16-40 x points and 1 or 17-33 y points whose edges it clears (below
    1e-12 of its peak: 7.5 sigma from x = 0, where exp(-x^2 / 2 sigma^2)
    is 6.5e-13, and 15 sigma from y = 0, where exp(-y^2 / 8 sigma^2) is),
    and a dt within friction's CFL bound."""
    pot = _draw_potential(draw)
    nx = draw(st.sampled_from((1,)) | st.integers(16, 40))
    j0 = draw(st.sampled_from((0,)) | st.integers(8, 16))
    sigma = draw(st.floats(0.3, 0.6))
    dx = draw(st.floats(1.0, 1.2)) * 7.5 * sigma / ((nx - 1) // 2) if nx > 1 else 0.1
    dy = draw(st.floats(1.0, 1.2)) * 15.0 * sigma / j0 if j0 else 0.1
    rho = _unresolved_gaussian(nx, dx, 2 * j0 + 1, dy, sigma)
    dt_max = 1.0 / (PARAMS.gamma * j0) if j0 else 0.05  # dy / (gamma y_max)
    return pot, rho, draw(st.floats(1e-6, 1.0)) * dt_max


_TERM_SUBSETS = [c for k in range(len(dc._TERMS) + 1)
                 for c in itertools.combinations(dc._TERMS, k)]


@settings(max_examples=100, deadline=None)
@given(_clear_problems(), st.integers(1, 5))
def test_half_space_step_equals_the_0_3_0_step(problem, n):
    """Every term subset under both orderings."""
    pot, rho, dt = problem
    peak = np.max(np.abs(rho.values))
    if rho.nx > 1:
        assert np.max(np.abs(rho.values[[0, -1], :])) < 1e-12 * peak
    if rho.ny > 1:
        assert np.max(np.abs(rho.values[:, [0, -1]])) < 1e-12 * peak
    assert (1.0 + PARAMS.gamma * dt) ** n <= 2.0  # the bound's friction growth
    bound = _fft_roundoff_bound(rho.nx, rho.ny, n) * np.linalg.norm(rho.values)
    for terms, ordering in itertools.product(_TERM_SUBSETS, Ordering):
        op = MasterOperator(rho, pot, PARAMS, terms)
        out = op.advance(rho, ordering, dt, n)
        expected = rho
        for _ in range(n):
            expected = _step_0_3_0(expected, pot, PARAMS, dt, ordering, terms)
        assert np.linalg.norm(out.values - expected.values) <= bound
        # Hermitian by construction: the y < 0 half mirrors the y >= 0 half
        # and the y = 0 column is real, exactly
        assert out.herm_deviation() == 0.0
        assert np.all(out.values[:, rho.ny // 2].imag == 0.0)
        # reading the half back from a mirrored field loses nothing
        stepwise = rho
        for _ in range(n):
            stepwise = op.advance(stepwise, ordering, dt, 1)
        assert stepwise.values.tobytes() == out.values.tobytes()
        assert stepwise.t.hex() == out.t.hex()


@pytest.mark.parametrize("terms", [(), ("potential",), ("friction", "decoherence"),
                                   dc._TERMS], ids=["none", "potential", "no-kinetic", "all"])
def test_advance_returns_a_hermitian_field_from_any_accepted_input(terms):
    rho = gaussian_pure_state(41, 0.1, 31, 0.12, sigma=0.5)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=rho.values.shape) + 1j * rng.normal(size=rho.values.shape)
    near = DensityField(rho.values + 1e-10 * noise, rho.x0, rho.dx, rho.dy)
    assert 0.0 < near.herm_deviation() <= dc._HERM_TOL
    out = MasterOperator(near, Harmonic(1.0, 1.0), PARAMS, terms).advance(
        near, Ordering.MOMENTA_LEFT, 0.01, 3)
    assert out.herm_deviation() == 0.0
    assert np.all(out.values[:, 15].imag == 0.0)
    if not terms:  # no substep: the y >= 0 half comes back, y = 0 made real
        expected = near.values[:, 15:].copy()
        expected[:, 0] = expected[:, 0].real
        assert np.array_equal(out.values[:, 15:], expected)


# decay_slope's ratio of the run below, as version 0.3.0 recorded it
_RATIO_0_3_0 = 1.0126981296608406


def test_decohere_run_is_hermitian_and_keeps_its_decay_slope(tmp_path):
    """A small superposition decohere run (the CLI's default state and grid):
    herm_dev is 0 in every recorded row, the hermitian check records 0, and
    decay_slope's ratio is 0.3.0's within the roundoff the field bound
    allows."""
    cfg = tmp_path / "dec.cfg"
    cfg.write_text("run.steps = 40\nrun.record_every = 4\n")
    assert main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0
    with open(tmp_path / "o" / "decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11 and all(float(r["herm_dev"]) == 0.0 for r in rows)
    checks = {r["name"]: r for r in map(json.loads, (tmp_path / "o" / "manifest.json")
                                        .read_text().splitlines()) if r["record"] == "check"}
    assert checks["hermitian"]["max_deviation"] == 0.0
    ratio = checks["decay_slope"]["ratio"]

    # the field moves by at most the stated bound; the ridge amplitude,
    # (dy / 2 pi hbar) |sum_y e^{i p y / hbar} rho(x0, y)|, then by at most
    # (dy / 2 pi hbar) sqrt(ny) (bound + 2 ny eps) |rho0|_F, the last term
    # each side's own rounding of the sum; log amplitude by that over the
    # amplitude, and the fitted slope by the least-squares weights times that
    params = BathParams(mass=20.0, gamma=6.25e-3, k_bt=1.0, hbar=1.0)
    rho0 = superposition_state(101, 0.08, 81, 0.2, separation=4.0, sigma=0.3)
    assert (1.0 + params.gamma * 0.002) ** 40 <= 2.0
    t = np.array([float(r["t"]) for r in rows])
    amp = np.array([float(r["amplitude"]) for r in rows])
    moved = _fft_roundoff_bound(101, 81, 40) + 2 * 81 * np.finfo(float).eps
    d_amp = 0.2 / (2.0 * np.pi) * math.sqrt(81) * moved * np.linalg.norm(rho0.values)
    weights = (t - t.mean()) / np.sum((t - t.mean()) ** 2)
    d_ratio = np.sum(np.abs(weights) * d_amp / amp) / (decoherence_params(params).lam * 16.0)
    assert abs(ratio - _RATIO_0_3_0) <= d_ratio


def test_decohere_run_builds_one_step_kernel_and_checks_each_record_once(
        tmp_path, monkeypatch):
    """A decohere run is one recording run: one stepper build, and one
    hermiticity measure per decay.csv row plus the run's input guard and the
    final Wigner transform's guard."""
    counts = {"kernel": 0, "herm": 0}
    stepper, herm_deviation = MasterOperator.stepper, dc._herm_deviation

    def counted_stepper(self, *args):
        counts["kernel"] += 1
        return stepper(self, *args)

    def counted_herm(vals):
        counts["herm"] += 1
        return herm_deviation(vals)

    monkeypatch.setattr(MasterOperator, "stepper", counted_stepper)
    monkeypatch.setattr(dc, "_herm_deviation", counted_herm)
    cfg = tmp_path / "dec.cfg"
    cfg.write_text("grid.nx=41\ngrid.ny=21\nrun.steps=23\nrun.record_every=5\n"
                   "state.separation=1.5\nstate.sigma=0.25\n")
    main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    with open(tmp_path / "o" / "decay.csv", newline="") as fh:
        records = len(list(csv.DictReader(fh)))
    assert records == 6  # steps 0, 5, 10, 15, 20 and 23
    assert counts["kernel"] == 1
    assert counts["herm"] <= records + 2
