"""Jacobi evaluation, wavefunction construction, normalization, ODE residual."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.special import binom

from mrey import (
    DomainError,
    NoRealDeltaError,
    NumericalError,
    PhysicalConstants,
    PotentialParams,
    ResolutionError,
    build_wave,
    count_nodes,
    default_node_grid,
    energy,
    spectral_coefficients,
)
from mrey import wavefunction
from mrey.verification import _recheck_norm
from mrey.wavefunction import JacobiParams, ode_residual

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
UNIT_YUKAWA = PotentialParams(0.0, 0.0, 1.0, 0.5)
DEEP_YUKAWA = PotentialParams(0.0, 0.0, 5.0, 0.5)
# 2 beta reaches 4e5 at n = 0
DEEPEST_WELL = PotentialParams(0.0, 0.0, 2000.0, 0.01)


def _jacobi_at(params, x):
    """P_n^{(a,b)}(x) from the library's recurrence in sigma = (1 - x) / 2."""
    p, _, log_scale = wavefunction._jacobi_scaled(params.n, params.a, params.b, (1.0 - x) / 2.0)
    return float(p * np.exp(log_scale))


def _jacobi_by_summation(n, a, b, x):
    # explicit finite sum, exact for polynomials; deliberately different
    # from the recurrence used by the library
    half_minus = (x - 1.0) / 2.0
    half_plus = (x + 1.0) / 2.0
    return sum(
        binom(n + a, n - k) * binom(n + b, k) * half_minus**k * half_plus ** (n - k)
        for k in range(n + 1)
    )


def _simpson_log_r(wave, f, points=4001):
    """Integral of f(r) over (1e-9/alpha, 1.5 r_tail] by Simpson's rule in
    ln r, which resolves narrow deep-well waves as well as wide ones."""
    alpha = wave.params.alpha
    u = np.linspace(math.log(1e-9 / alpha), math.log(1.5 * wave.r_tail), points)
    r = np.exp(u)
    return simpson(f(r) * r, x=u)


def test_jacobi_low_degrees():
    assert _jacobi_at(JacobiParams(0, 2.3, -0.4), 0.77) == 1.0
    assert _jacobi_at(JacobiParams(1, 2.0, 1.0), 0.5) == pytest.approx(1.75, rel=1e-15)
    # (a, b) = (0, 0) reduces to Legendre, P1(x) = x
    assert _jacobi_at(JacobiParams(1, 0.0, 0.0), 0.3) == pytest.approx(0.3, rel=1e-15)


def test_jacobi_endpoint_identity():
    for n in range(6):
        for a, b in ((0.0, 0.0), (1.5, -0.2), (3.0, 1.0)):
            value = _jacobi_at(JacobiParams(n, a, b), 1.0)
            assert value == pytest.approx(binom(n + a, n), rel=1e-13)


def test_jacobi_matches_explicit_summation():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-0.9, 5.0)
        b = rng.uniform(-0.9, 5.0)
        for x in rng.uniform(-1.0, 1.0, size=5):
            fast = _jacobi_at(JacobiParams(n, a, b), x)
            slow = _jacobi_by_summation(n, a, b, x)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


DEEPEST_JACOBI = (150, 4.0e5, 1.0)  # 2 beta of DEEPEST_WELL at n = 0; rescales


@pytest.mark.parametrize("n, a, b", [(0, 2.3, 0.4), (1, 2.3, 0.4), (7, 2.3, 0.4),
                                     DEEPEST_JACOBI])
@pytest.mark.parametrize("sigma", [np.array(0.3), np.linspace(1e-9, 1.0, 37),
                                   np.geomspace(1e-12, 1.0, 24).reshape(4, 6)])
def test_jacobi_buffers_are_private(n, a, b, sigma):
    # sigma untouched; p and p_prev of sigma's shape, sharing memory with
    # neither sigma nor each other
    before = sigma.copy()
    p, p_prev, log_scale = wavefunction._jacobi_scaled(n, a, b, sigma)
    np.testing.assert_array_equal(sigma, before)
    assert np.shape(p) == np.shape(p_prev) == sigma.shape
    assert not np.shares_memory(p, p_prev)
    assert not np.shares_memory(p, sigma) and not np.shares_memory(p_prev, sigma)
    if (n, a, b) == DEEPEST_JACOBI:
        assert np.max(log_scale) > 0.0  # the rescale path ran


def test_psi_leaves_r_unchanged():
    wave = build_wave(DEEPEST_WELL, CONSTS, energy(DEEPEST_WELL, CONSTS, 50, 0))
    for r in (default_node_grid(wave), np.array(0.2)):
        before = r.copy()
        wave.psi(r)
        np.testing.assert_array_equal(r, before)


def test_jacobi_params_validation():
    with pytest.raises(DomainError):
        JacobiParams(0, -1.0, 0.0)
    with pytest.raises(DomainError):
        JacobiParams(0, 0.0, -1.5)
    with pytest.raises(DomainError):
        JacobiParams(-1, 0.0, 0.0)
    with pytest.raises(DomainError, match="degree must be an integer"):
        JacobiParams(True, 0.0, 0.0)


def test_build_wave_anchor_exponents():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    assert wave.beta_exp == pytest.approx(1.5, rel=1e-12)
    assert wave.zeta_exp == pytest.approx(1.0, rel=1e-12)
    assert wave.jacobi.n == 0
    assert wave.jacobi.a == pytest.approx(3.0, rel=1e-12)
    assert wave.jacobi.b == pytest.approx(1.0, rel=1e-12)


def test_build_wave_rejects_non_bound_levels():
    marginal = energy(UNIT_YUKAWA, CONSTS, 1, 0)
    with pytest.raises(DomainError):
        build_wave(UNIT_YUKAWA, CONSTS, marginal)
    invalid = energy(PotentialParams(0.0, 0.0, 0.0, 0.5), CONSTS, 0, 0)
    with pytest.raises(DomainError):
        build_wave(PotentialParams(0.0, 0.0, 0.0, 0.5), CONSTS, invalid)


def test_exponent_tracks_delta():
    # the (1 - e^{-alpha r}) exponent must equal delta from the level algebra
    for l in range(2):  # l = 2 of this well is unbound
        coeffs = spectral_coefficients(DEEP_YUKAWA, CONSTS, l)
        level = energy(DEEP_YUKAWA, CONSTS, 0, l)
        wave = build_wave(DEEP_YUKAWA, CONSTS, level)
        assert abs(wave.zeta_exp - coeffs.delta) <= 1e-12


def test_normalization_self_consistent():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    r = np.linspace(wave.r_tail * 1.5 / 200000, wave.r_tail * 1.5, 200001)
    total = simpson(wave.psi(r) ** 2, x=r)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_wave_vanishes_at_boundaries():
    level = energy(DEEP_YUKAWA, CONSTS, 1, 0)
    wave = build_wave(DEEP_YUKAWA, CONSTS, level)
    alpha = DEEP_YUKAWA.alpha
    interior_peak = np.max(np.abs(wave.psi(np.linspace(0.1, 20.0, 400))))
    # near r = 0 psi shrinks like (alpha r)^zeta with zeta = 1 here, so the
    # drop at r = 2e-6 is linear in r, not abrupt
    assert abs(wave.psi(1e-6 / alpha)) < 1e-4 * interior_peak
    assert abs(wave.psi(100.0 / alpha)) < 1e-12 * interior_peak


def test_node_counts_match_quantum_number():
    for n in range(4):
        level = energy(DEEP_YUKAWA, CONSTS, n, 0)
        assert level.valid_bound_state
        wave = build_wave(DEEP_YUKAWA, CONSTS, level)
        assert count_nodes(wave, default_node_grid(wave)) == n


# count_nodes probes: on the former grid, uniform in r up to r_tail, the
# first raised ResolutionError and the second counted 0 nodes at n = 1
NODE_PROBES = (
    (PotentialParams(9.841691298364683e-08, -2.2338228310324652e-07,
                     91.79960954609237, 0.011497931669835109), 4, 0),
    (PotentialParams(1.9555538494703054e-05, -2.589938200401326e-05,
                     82.30161341989387, 0.03235739230426554), 1, 0),
)


@pytest.mark.parametrize("params, n, l", NODE_PROBES)
def test_node_probes_count_n(params, n, l):
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    assert count_nodes(wave, default_node_grid(wave)) == n


def test_node_count_sweep():
    # x1 = 2 a1 / alpha^2 and x2 = 2 a2 / alpha^2 within 0.05 of zero; the
    # grid uniform in r up to r_tail missed or merged nodes on ~3% of these.
    # Check 06's other two limits hold on every level too: a finite-difference
    # ODE residual failed 4 of them and a norm recheck uniform in r 53.
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 200:
        alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        a1, a2 = rng.uniform(-0.05, 0.05, 2) * alpha**2 / 2.0
        params = PotentialParams(a1, a2, math.exp(rng.uniform(0.0, math.log(100.0))), alpha)
        n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        try:
            level = energy(params, CONSTS, n, l)
        except NoRealDeltaError:
            continue
        if not level.valid_bound_state:
            continue
        wave = build_wave(params, CONSTS, level)
        assert count_nodes(wave, default_node_grid(wave)) == n, (params, n, l)
        assert ode_residual(wave) < 1e-6, (params, n, l)
        assert _recheck_norm(wave) == pytest.approx(1.0, abs=1e-8), (params, n, l)
        checked += 1


# fallback levels, where the Sturm bound on the theta-gap fails: just below
# threshold (2 beta = 0.2), and at l = 0 with x1 + x2 = 0.2 > 3/16
# (2 zeta - 1 = 0.447)
SMALL_A_LEVEL = (PotentialParams(0.0, 0.0, 1.1, 0.5), 1, 0)
SMALL_B_LEVEL = (PotentialParams(0.009, 0.0, 20.0, 0.3), 3, 0)


def _theta_grid(alpha, points):
    """points uniform in theta, theta_k = pi k / (points + 1), as r: -ln s at
    s = sin^2(theta_k / 2), as -ln(1 - cos^2) where s is near 1."""
    half = np.pi * np.arange(points, 0, -1) / (2 * (points + 1))
    alpha_r = np.where(half > 0.25 * np.pi, -np.log1p(-np.cos(half) ** 2),
                       -np.log(np.sin(half) ** 2))
    return alpha_r / alpha


def _parity_levels():
    """Seeded valid levels of the sweep box, the deep well at n = 0/50/100/150,
    a fallback level and a level on the floor of 64 points."""
    rng = np.random.default_rng(7)
    levels = []
    while len(levels) < 200:
        alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        a1, a2 = rng.uniform(-0.01, 0.01, 2)
        params = PotentialParams(a1, a2, math.exp(rng.uniform(0.0, math.log(100.0))), alpha)
        try:
            level = energy(params, CONSTS, int(rng.integers(0, 60)), int(rng.integers(0, 4)))
        except NoRealDeltaError:
            continue
        if level.valid_bound_state:
            levels.append((params, level))
    levels += [(DEEPEST_WELL, energy(DEEPEST_WELL, CONSTS, n, 0)) for n in (0, 50, 100, 150)]
    params, n, l = SMALL_A_LEVEL
    return levels + [(params, energy(params, CONSTS, n, l)),
                     (UNIT_YUKAWA, energy(UNIT_YUKAWA, CONSTS, 0, 0))]


def _verdict(wave, grid):
    try:
        return count_nodes(wave, grid)
    except ResolutionError as exc:
        return str(exc)


def test_node_grid_verdicts_match_the_full_theta_grid():
    # the level's grid of M points gives the verdict of 20001 points uniform
    # in theta: the count, or the error.  The grid is theta_k = pi k / (M + 1),
    # s = e^{-alpha r} = sin^2(theta / 2), and 1 - s = cos^2(theta / 2) keeps
    # its digits where alpha r is small; at the cap it is the 20001-point
    # grid byte for byte.  Every call makes a new, writable array.
    sizes = set()
    for params, level in _parity_levels():
        wave = build_wave(params, CONSTS, level)
        grid, full = default_node_grid(wave), _theta_grid(params.alpha, 20001)
        where = (params, level.n, level.l)
        jac = wave.jacobi  # 16 points per pi/N, N = n + (a + b + 1) / 2
        sturm = min(max(16 * math.ceil(jac.n + (jac.a + jac.b + 1.0) / 2.0), 64), 20001)
        assert grid.size == (sturm if min(jac.a, jac.b) >= 0.5 else 20001), where
        assert _verdict(wave, grid) == _verdict(wave, full), where
        half = np.pi * np.arange(grid.size, 0, -1) / (2 * (grid.size + 1))
        np.testing.assert_allclose(np.exp(-params.alpha * grid), np.sin(half) ** 2, rtol=1e-12)
        np.testing.assert_allclose(-np.expm1(-params.alpha * grid), np.cos(half) ** 2,
                                   rtol=1e-12)
        if grid.size == 20001:
            assert grid.tobytes() == full.tobytes(), where
        assert grid.flags.writeable and default_node_grid(wave) is not grid
        sizes.add(grid.size if grid.size in (64, 20001) else "between")
    assert sizes == {64, "between", 20001}  # the floor, the cap and between


@pytest.mark.parametrize("params, n, l", [SMALL_A_LEVEL, SMALL_B_LEVEL])
def test_node_grid_falls_back_where_the_sturm_bound_fails(params, n, l):
    # 16 ceil(N) would give 64 and 320 points
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    assert min(wave.jacobi.a, wave.jacobi.b) < 0.5
    grid = default_node_grid(wave)
    assert grid.size == 20001
    assert count_nodes(wave, grid) == n


@pytest.mark.parametrize("params, n", [(UNIT_YUKAWA, 0), (DEEP_YUKAWA, 3), (DEEPEST_WELL, 50)])
def test_node_grid_one_point_short_is_rejected(params, n):
    # M - 1 points uniform in theta, a step of pi/M: over the rule's pi/(M + 1)
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
    points = default_node_grid(wave).size
    assert count_nodes(wave, _theta_grid(params.alpha, points)) == n
    with pytest.raises(ResolutionError, match="theta-step"):
        count_nodes(wave, _theta_grid(params.alpha, points - 1))


def test_deep_well_psi_stays_finite():
    # s^beta underflows to 0 where P_n's scale e^{log_scale} overflows; psi
    # takes them in one exponent, so the product is never 0 * inf
    params = PotentialParams(0.0, 0.0, 5000.0, 0.01)
    wave = build_wave(params, CONSTS, energy(params, CONSTS, 150, 0))
    grid = default_node_grid(wave)
    assert np.all(np.isfinite(wave.psi(grid)))
    assert count_nodes(wave, grid) == 150

@pytest.mark.parametrize(
    "params, n",
    [
        (DEEPEST_WELL, 50),
        NODE_PROBES[0][:2],
        (UNIT_YUKAWA, 0),
    ],
)
def test_psi_matches_mpmath(params, n):
    # the closed form at 40 digits, with the wave's own exponents and norm
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
    r = np.geomspace(1e-6 / params.alpha, wave.r_tail, 400)
    psi = wave.psi(r)
    jac = wave.jacobi
    with mpmath.workdps(40):
        ref = np.array([
            float(
                wave.norm * s**wave.beta_exp * (1 - s) ** wave.zeta_exp
                * mpmath.jacobi(jac.n, jac.a, jac.b, 1 - 2 * s)
            )
            for s in (mpmath.exp(-params.alpha * mpmath.mpf(x)) for x in r)
        ])
    shown = np.abs(ref) >= 1e-3 * np.max(np.abs(ref))
    assert np.count_nonzero(shown) > 20
    assert np.max(np.abs(psi[shown] / ref[shown] - 1.0)) < 1e-9


class _SignPattern:
    """Stands in for a wave whose psi takes the given values on its grid,
    after `lead` samples of the first value."""

    params = PotentialParams(0.0, 0.0, 1.0, 1.0)
    jacobi = JacobiParams(0, 1.0, 1.0)  # count_nodes sizes its theta-step rule by N

    def __init__(self, values, lead=0):
        self.values = np.array([values[0]] * lead + list(values), dtype=float)
        self.grid = np.arange(1, self.values.size + 1) * 1e-4

    def psi(self, r):
        return self.values[np.rint(r * 1e4).astype(int) - 1]


@pytest.mark.parametrize("lead", [1, 2, 3, 5, 64])
def test_chunks_carry_the_last_sign_and_change(lead):
    # psi is read over the whole grid in one pass, so the last nonzero sign
    # and the last change carry to every later sample: both patterns give
    # the same result wherever they start in the grid
    # changes after samples 3 and 4 are within three samples
    close = _SignPattern([1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, 1], lead)
    with pytest.raises(ResolutionError):
        count_nodes(close, close.grid)
    # zero samples do not count as a change and do not hide one
    spaced = _SignPattern([1, 1, 1, -1, 0, 0, -1, -1, 0, 1, 1, 1], lead)
    assert count_nodes(spaced, spaced.grid) == 2


@pytest.mark.parametrize("values, nodes", [
    ([1, 0, 0, -1], 1),
    ([1, 0, 1], 0),  # touching zero without crossing
    ([0, 0, 1, -1, 0, 0], 1),  # zero runs at either end are not counted
    ([0, -1, -1, 0, 0], 0),
    ([1, 0, -5e-324], 1),  # a subnormal keeps its sign
    ([1, -1, -1, -1, 1], 2),  # three samples between the changes: resolved
])
def test_zero_samples_are_skipped(values, nodes):
    wave = _SignPattern(values)
    assert count_nodes(wave, wave.grid) == nodes


def _plain_scan(values):
    """count_nodes' verdict from a plain loop: the count, or "too close"."""
    befores, last, last_index = [], None, None
    for i, value in enumerate(values):
        if value == 0.0:
            continue
        if last is not None and (value < 0.0) != last:
            befores.append(last_index)
        last, last_index = value < 0.0, i
    if any(b - a < 3 for a, b in zip(befores, befores[1:])):
        return "too close"
    return len(befores)


@pytest.mark.parametrize("zeros", [False, True])
def test_count_nodes_matches_a_plain_scan(zeros):
    # seeded runs of one sign, with zero runs or without: both kinds of grid
    # give the loop's verdict
    rng = np.random.default_rng(31 + zeros)
    verdicts = set()
    for _ in range(300):
        runs = [(rng.choice((-1.0, 1.0)), int(rng.integers(1, 9)))
                for _ in range(rng.integers(2, 12))]
        if zeros:
            runs.insert(int(rng.integers(0, len(runs) + 1)), (0.0, int(rng.integers(1, 4))))
        values = [sign * rng.choice([1.0, 3e-300, 5e-324]) for sign, size in runs
                  for _ in range(size)]
        wave = _SignPattern(values)
        assert np.all(wave.values) != zeros
        try:
            verdict = count_nodes(wave, wave.grid)
        except ResolutionError:
            verdict = "too close"
        assert verdict == _plain_scan(wave.values), values
        verdicts.add(verdict if verdict == "too close" else min(verdict, 2))
    assert verdicts == {0, 1, 2, "too close"}


def test_flips_three_apart_across_a_zero_run_are_too_close():
    # the flips land on samples 2 and 5, but the nonzero samples before
    # them, 1 and 2, are adjacent: the zeros do not separate the changes
    wave = _SignPattern([1, 1, -1, 0, 0, 1])
    with pytest.raises(ResolutionError):
        count_nodes(wave, wave.grid)


def test_node_grid_validation():
    level = energy(DEEP_YUKAWA, CONSTS, 2, 0)
    wave = build_wave(DEEP_YUKAWA, CONSTS, level)
    with pytest.raises(ResolutionError):
        count_nodes(wave, np.linspace(0.1, 20.0, 200))  # theta-steps too wide
    with pytest.raises(DomainError):
        count_nodes(wave, np.array([0.0, 1.0, 2.0]))  # grid must stay positive
    with pytest.raises(DomainError):
        count_nodes(wave, np.array([2.0, 1.0]))  # not increasing


def test_psi_rejects_nan():
    wave = build_wave(UNIT_YUKAWA, CONSTS, energy(UNIT_YUKAWA, CONSTS, 0, 0))
    for r in (math.nan, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(DomainError):
            wave.psi(r)
    assert wave.psi(math.inf) == 0.0


def test_count_nodes_rejects_nan_grid():
    # a NaN sample once surfaced as "two sign changes within three samples"
    wave = build_wave(DEEP_YUKAWA, CONSTS, energy(DEEP_YUKAWA, CONSTS, 2, 0))
    grid = default_node_grid(wave).copy()
    grid[grid.size // 2] = math.nan
    with pytest.raises(DomainError):
        count_nodes(wave, grid)


def test_ode_radii_are_geomspace():
    # _ode_radii is np.geomspace without its argument checks; a numpy whose
    # geomspace builds its points differently fails here
    # at r_tail = max(2, 10 / alpha) 2^k, as build_wave sets it, and between
    rng = np.random.default_rng(17)
    for _ in range(2000):
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
        r_tail = max(2.0, 10.0 / alpha) * 2.0 ** rng.integers(0, 12)
        for r_tail in (r_tail, r_tail * rng.uniform(1.0, 2.0)):
            expected = np.geomspace(1e-12 / alpha, r_tail, wavefunction._ODE_SAMPLES)
            radii = wavefunction._ode_radii(alpha, r_tail)
            assert radii.tobytes() == expected.tobytes(), (alpha, r_tail)


def test_ode_residual_small_for_true_solution():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    assert ode_residual(wave) < 1e-6


def test_ode_residual_negative_control():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    spoiled = dataclasses.replace(wave, beta_exp=wave.beta_exp + 0.1)
    assert ode_residual(spoiled) > 1e-2
    # a relative 1e-5 off the exponent or the energy must show, in deep
    # wells too: the exact residual leaves no noise floor to hide it under
    for params, n in ((UNIT_YUKAWA, 0), (DEEPEST_WELL, 0), (DEEPEST_WELL, 150)):
        wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
        spoiled = dataclasses.replace(wave, beta_exp=wave.beta_exp * (1.0 + 1e-5))
        assert ode_residual(spoiled) > 1e-6, (params, n)
        level = dataclasses.replace(wave.level, energy=wave.level.energy * (1.0 + 1e-5))
        assert ode_residual(dataclasses.replace(wave, level=level)) > 1e-6, (params, n)


def test_ode_residual_against_unscreened_equation():
    # the construction solves the screened stand-in exactly; against the
    # true 1/r and 1/r^2 terms the residual is the approximation error and
    # must NOT be small
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    assert ode_residual(wave, screened=False) > 1e-3


@pytest.mark.parametrize(
    "params, l",
    [
        (UNIT_YUKAWA, 0),
        (DEEP_YUKAWA, 1),
        (PotentialParams(0.01, -0.02, 5.0, 0.05), 0),
        (PotentialParams(0.0, 0.0, 50.0, 0.02), 2),
        (PotentialParams(0.0, 0.0, 100.0, 0.01), 0),
        (DEEPEST_WELL, 0),
    ],
)
def test_ground_state_norm_is_a_beta_function(params, l):
    # at n = 0 the norm integral is B(2 beta, 2 zeta + 1) / alpha exactly
    wave = build_wave(params, CONSTS, energy(params, CONSTS, 0, l))
    with mpmath.workdps(30):
        exact = mpmath.beta(
            mpmath.mpf(2.0 * wave.beta_exp), mpmath.mpf(2.0 * wave.zeta_exp) + 1
        ) / params.alpha
        assert float(abs(1 / mpmath.mpf(wave.norm) ** 2 / exact - 1)) < 1e-13


@pytest.mark.parametrize(
    "params, n, l",
    [(DEEPEST_WELL, n, 0) for n in (0, 50, 150)]
    + [(DEEP_YUKAWA, n, l) for n in (0, 1) for l in (0, 1)]
    + [NODE_PROBES[0]],
)
def test_norm_is_the_gamma_closed_form(params, n, l):
    # ln I = ln[Gamma(n+a+1) Gamma(n+b+1) (n+zeta)
    #           / (n! Gamma(n+a+b+1) 2 alpha beta (n+beta+zeta))],
    # a = 2 beta, b = 2 zeta - 1, at 40 digits from the wave's own exponents
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    with mpmath.workdps(40):
        beta, zeta = mpmath.mpf(wave.beta_exp), mpmath.mpf(wave.zeta_exp)
        a, b = 2 * beta, 2 * zeta - 1
        exact = (
            mpmath.loggamma(n + a + 1) + mpmath.loggamma(n + b + 1)
            - mpmath.loggamma(n + 1) - mpmath.loggamma(n + a + b + 1)
            + mpmath.log((n + zeta) / (2 * mpmath.mpf(params.alpha) * beta * (n + beta + zeta)))
        )
        assert abs(float(-2 * mpmath.log(mpmath.mpf(wave.norm)) - exact)) < 1e-13


def test_deepest_well_builds():
    # r_tail as the adaptive-quadrature route found it; n = 0 used to raise
    # ZeroDivisionError.
    for n in (0, 50, 100, 150):
        wave = build_wave(DEEPEST_WELL, CONSTS, energy(DEEPEST_WELL, CONSTS, n, 0))
        assert wave.r_tail == 2000.0
        assert _simpson_log_r(wave, lambda r: wave.psi(r) ** 2) == pytest.approx(
            1.0, abs=1e-8
        )
        assert count_nodes(wave, default_node_grid(wave)) == n


def test_norm_outside_double_range_is_typed():
    # N = e^{6900} here; the adaptive route raised a bare ZeroDivisionError
    params = PotentialParams(0.0, 0.0, 1e8, 0.001)
    with pytest.raises(NumericalError):
        build_wave(params, CONSTS, energy(params, CONSTS, 3, 0))


def test_formerly_unconverged_level():
    # the adaptive route raised NumericalError here (n = 0, l = 2)
    params = PotentialParams(
        0.00018034108256850278, -0.0003047104113244009, 54.57323831627239,
        0.12214066435125673,
    )
    wave = build_wave(params, CONSTS, energy(params, CONSTS, 0, 2))
    assert _recheck_norm(wave) == pytest.approx(1.0, abs=1e-8)
    assert count_nodes(wave, default_node_grid(wave)) == 0


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    a1=st.floats(-0.01, 0.01),
    a2=st.floats(-0.01, 0.01),
    log_a3=st.floats(0.0, math.log(100.0)),
    log_alpha=st.floats(math.log(0.01), math.log(0.5)),
    n=st.integers(0, 5),
    l=st.integers(0, 3),
)
def test_norm_sweep_against_simpson(a1, a2, log_a3, log_alpha, n, l):
    # small alpha turns small a1, a2 into large x1, x2: narrow waves with
    # zeta up to ~15, where adaptive quadrature had returned wrong norms
    params = PotentialParams(a1, a2, math.exp(log_a3), math.exp(log_alpha))
    try:
        level = energy(params, CONSTS, n, l)
    except NoRealDeltaError:
        return
    if not level.valid_bound_state:
        return
    wave = build_wave(params, CONSTS, level)
    assert _simpson_log_r(wave, lambda r: wave.psi(r) ** 2) == pytest.approx(
        1.0, abs=1e-8
    )
    # the closed-form norm rests on a = 2 beta and b = 2 zeta - 1 and on the
    # Jacobi norm h_n; its oracle expands P_n(1 - 2s) = P_n(1) sum_j q_j s^j
    # (DLMF 18.5.7), so the norm integral is a finite sum of beta functions
    assert wave.jacobi.a == pytest.approx(2.0 * wave.beta_exp, rel=1e-12)
    assert wave.jacobi.b == pytest.approx(2.0 * wave.zeta_exp - 1.0, rel=1e-12)
    with mpmath.workdps(40):
        a, b = 2 * mpmath.mpf(wave.beta_exp), 2 * mpmath.mpf(wave.zeta_exp) - 1
        q = [mpmath.rf(-n, j) * mpmath.rf(n + a + b + 1, j)
             / (mpmath.rf(a + 1, j) * mpmath.factorial(j)) for j in range(n + 1)]
        p_one = mpmath.rf(a + 1, n) / mpmath.factorial(n)
        total = p_one**2 / params.alpha * mpmath.fsum(
            q[i] * q[j] * mpmath.beta(a + i + j, b + 2) for i in range(n + 1) for j in range(n + 1)
        )
        assert abs(float(mpmath.log(total)) + 2.0 * math.log(wave.norm)) < 1e-12


@pytest.mark.parametrize(
    "params, l, ns",
    [
        (DEEP_YUKAWA, 0, range(4)),
        (PotentialParams(0.01, -0.03, 5.0, 0.2), 0, range(6)),
        (PotentialParams(0.01, -0.03, 5.0, 0.2), 1, range(4)),
        (DEEPEST_WELL, 0, (0, 50, 100)),
    ],
)
def test_same_l_levels_are_orthogonal(params, l, ns):
    # the screened radial operator does not depend on the energy and is
    # self-adjoint, so distinct levels of one l are orthogonal although each
    # carries its own Jacobi weight
    waves = [build_wave(params, CONSTS, energy(params, CONSTS, n, l)) for n in ns]
    for i, first in enumerate(waves):
        for second in waves[i + 1:]:
            overlap = _simpson_log_r(
                max(first, second, key=lambda w: w.r_tail),
                lambda r: first.psi(r) * second.psi(r),
                points=20001,
            )
            assert abs(overlap) < 1e-10, (first.level.n, second.level.n)


def _mp_log_tail(wave, log_s):
    """ln T(R) at s_R = e^{log_s}: 30-digit quadrature of the t-integral with
    t = e^{-u / (2 beta)}, T = s_R^{2 beta} / (2 beta alpha) * integral over
    (0, inf) of e^{-u} (1 - s_R t)^{2 zeta} P_n(1 - 2 s_R t)^2 du."""
    jac = wave.jacobi
    with mpmath.workdps(30):
        two_beta, two_zeta = 2 * mpmath.mpf(wave.beta_exp), 2 * mpmath.mpf(wave.zeta_exp)
        s_r = mpmath.exp(mpmath.mpf(log_s))

        def integrand(u):
            s = s_r * mpmath.exp(-u / two_beta)
            return mpmath.exp(-u) * (1 - s) ** two_zeta * mpmath.jacobi(
                jac.n, jac.a, jac.b, 1 - 2 * s
            ) ** 2

        integral = mpmath.quad(integrand, [0, 1, 10, mpmath.inf])
        return two_beta * log_s - mpmath.log(two_beta * wave.params.alpha) + mpmath.log(integral)


@pytest.mark.parametrize(
    "params, n",
    [
        (PotentialParams(0.0, 0.0, 1.5, 0.02), 3),
        (DEEPEST_WELL, 0),
        (DEEPEST_WELL, 150),  # n^2 s_R = 1.02
        (PotentialParams(0.0, 0.0, 100.0, 0.01), 59),  # largest n of the sweep box
        (PotentialParams(0.0, 0.0, 100.0, 0.01), 140),  # its last level, beta = 0.42
    ],
)
def test_tail_series_matches_mpmath(params, n):
    # ln T at the first rung, s_R = e^{-10}: the series to 1e-12 of T, plus
    # the rounding of ln T's prefactor 2 beta ln s_R (-4e6 at the deepest well)
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
    log_s = -params.alpha * max(2.0, 10.0 / params.alpha)
    log_tail, rel = wavefunction._log_tail(wave, np.array([log_s]))
    exact = _mp_log_tail(wave, log_s)
    assert abs(float(log_tail[0] - exact)) < 1e-12 + 4.0 * np.finfo(float).eps * abs(float(exact))
    assert rel[0] < 1e-11


def test_tail_rung_with_lost_series_fails():
    # near threshold at n = 1410, S_abs / S reaches 1e13 at the first rung:
    # its error bound exceeds T itself, so that rung cannot pass and the
    # next one decides.  Simpson pieces of psi^2 agree: [R_0, 2 R_0] holds
    # most of the norm, [2 R_0, 4 R_0] under 1e-13 of it.
    params = PotentialParams(0.0, 0.0, 1e4, 0.01)
    wave = build_wave(params, CONSTS, energy(params, CONSTS, 1410, 0))
    _, rel = wavefunction._log_tail(wave, -params.alpha * np.array([1000.0, 2000.0]))
    assert rel[0] > 1.0 and rel[1] < 1e-10
    assert wave.r_tail == 4000.0
    for lo, hi, piece in ((1000.0, 2000.0, 0.78), (2000.0, 4000.0, 0.0)):
        r = np.linspace(lo, hi, 20001)
        assert simpson(wave.psi(r) ** 2, x=r) == pytest.approx(piece, abs=1e-2 * piece + 1e-13)
