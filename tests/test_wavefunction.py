"""Jacobi evaluation, wavefunction construction, normalization, ODE residual."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import binom, gammaln

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
# x3 = 2e11: xi^2 reaches 1e22 at n = 0
ABYSS = PotentialParams(0.0, 0.0, 1e8, 0.001)


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


DERIV_CASES = [(0, 2.3, 0.4), (1, 2.3, 0.4), (2, 2.3, 0.4), (7, 2.3, 0.4), (60, 2.3, 0.4),
               (150, 2.3, 0.4), DEEPEST_JACOBI]
DERIV_SIGMA = np.concatenate((np.geomspace(1e-12, 0.5, 16),
                              1.0 - np.geomspace(0.5, 1e-12, 16)[1:]))
# x = 1 - 2 sigma near -1, where at n = 150 the recurrence keeps fewer
# digits of P_n itself (against mpmath: ~2e-12 at a = 2.3, ~6e-10 at
# DEEPEST_JACOBI); there the derivative rows are held to P_n's own error
NEAR_ONE = DERIV_SIGMA > 0.99


def _derivative_rows(n, a, b, sigma):
    """(P, dP/dsigma, d^2P/dsigma^2, log_scale) from the kernel at derivs = 2,
    with its P and P_{n-1} checked against the kernel at derivs = 0."""
    p, p_prev, log_scale, d, e = wavefunction._jacobi_scaled(n, a, b, sigma, derivs=2)
    for got, want in zip((p, p_prev, log_scale), wavefunction._jacobi_scaled(n, a, b, sigma)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert np.shape(d) == np.shape(e) == sigma.shape
    return p, d, e, np.broadcast_to(log_scale, sigma.shape)


def _row_error(got, want):
    """max |got - want| over the largest |want|; max |got| where want is 0."""
    scale = np.abs(want).max()
    return np.abs(got - want).max() / scale if scale else float(np.abs(got).max())


@pytest.mark.parametrize("n, a, b", DERIV_CASES)
def test_jacobi_derivatives_are_the_shifted_families(n, a, b):
    # DLMF 18.9.15 in sigma = (1 - x) / 2: d^k P_n / dsigma^k = c_k
    # P_{n-k}^{(a+k,b+k)}, c_1 = -(n + a + b + 1), c_2 = (n + a + b + 1)(n + a
    # + b + 2); the families by the kernel at derivs = 0, on P_n's scale
    sigma = DERIV_SIGMA[~NEAR_ONE] if (n, a, b) == DEEPEST_JACOBI else DERIV_SIGMA
    _, d, e, log_scale = _derivative_rows(n, a, b, sigma)
    c = (-(n + a + b + 1.0), (n + a + b + 1.0) * (n + a + b + 2.0))
    for k, got in ((1, d), (2, e)):
        want = np.zeros(sigma.size)
        if n >= k:
            q, _, log_q = wavefunction._jacobi_scaled(n - k, a + k, b + k, sigma)
            want = c[k - 1] * q * np.exp(log_q - log_scale)
        assert _row_error(got, want) <= 1e-12, (n, k)


@pytest.mark.parametrize("n, a, b", DERIV_CASES)
def test_jacobi_derivatives_match_mpmath(n, a, b):
    # 30-digit derivatives of mpmath.jacobi in sigma, on the kernel's scale:
    # within 1e-12 of each row's max, or within twice P_n's own error where
    # that is larger, on sigma <= 0.99 and on sigma > 0.99 apart
    rows = _derivative_rows(n, a, b, DERIV_SIGMA)
    want = np.zeros((3, DERIV_SIGMA.size))
    with mpmath.workdps(30):
        for i, (t, scale) in enumerate(zip(DERIV_SIGMA, rows[3])):
            jacobi = lambda u: mpmath.jacobi(n, a, b, 1 - 2 * u)  # noqa: E731
            values = mpmath.diffs(jacobi, mpmath.mpf(float(t)), 2)
            want[:, i] = [float(v / mpmath.exp(scale)) for v in values]
    for part in (~NEAR_ONE, NEAR_ONE):
        p_error = _row_error(rows[0][part], want[0][part])
        assert p_error < (1e-8 if (n, a, b) == DEEPEST_JACOBI else 1e-11)
        for k in (1, 2):
            assert _row_error(rows[k][part], want[k][part]) <= max(1e-12, 2.0 * p_error), (n, k)


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
    # the (1 - e^{-alpha r}) exponent must equal delta from the level algebra;
    # at n = l = 0 of ABYSS a rounded c9 = -2097152 raised ComplexBranchError
    # from this valid level
    for params, l in ((DEEP_YUKAWA, 0), (DEEP_YUKAWA, 1), (ABYSS, 0)):
        coeffs = spectral_coefficients(params, CONSTS, l)
        wave = build_wave(params, CONSTS, energy(params, CONSTS, 0, l))
        assert abs(wave.zeta_exp - coeffs.delta) <= 1e-12
        assert ode_residual(wave) < 1e-12
        assert count_nodes(wave, default_node_grid(wave)) == 0


def test_deep_wells_keep_zeta():
    # x3 log-uniform in [1e3, 2e6] with x1 + x2 != 0, so delta is not 1 and
    # c9 = 1/4 - x1 - x2 + l(l+1) cancels xi^2 ~ (x3 / 2 rho)^2 out of its
    # addends; a rounded c9 put zeta 2.2e-4 off delta at (a1, a2, a3, alpha) =
    # (6.3724837888874386e-06, 4.494594872750357e-06, 9753.926083538472,
    # 0.011729699361949893), n = l = 0, and ode_residual over 1e-6
    rng = np.random.default_rng(32)
    levels = [(PotentialParams(6.3724837888874386e-06, 4.494594872750357e-06,
                               9753.926083538472, 0.011729699361949893), 0, 0)]
    while len(levels) < 200:
        alpha = math.exp(rng.uniform(math.log(0.005), math.log(0.05)))
        x1, x2 = rng.uniform(-0.05, 0.05, size=2)
        x3 = math.exp(rng.uniform(math.log(1e3), math.log(2e6)))
        params = PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, x3 * alpha / 2, alpha)
        n, l = int(rng.integers(0, 10)), int(rng.integers(0, 4))
        if energy(params, CONSTS, n, l).valid_bound_state:
            levels.append((params, n, l))
    for params, n, l in levels:
        wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
        delta = spectral_coefficients(params, CONSTS, l).delta
        assert abs(wave.zeta_exp - delta) <= 1e-9, (params, n, l)
        assert ode_residual(wave) < 1e-6, (params, n, l)


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
    return _span_grid(alpha, 0.0, 0.5 * np.pi, points)


def _span_grid(alpha, lo, hi, points):
    """points uniform in phi = theta/2 strictly inside (lo, hi), phi_k = lo +
    (hi - lo) k / (points + 1), as r."""
    return _half_grid(alpha, lo + (hi - lo) * np.arange(points, 0, -1) / (points + 1))


def _half_grid(alpha, half):
    """r at phi = half, decreasing in (0, pi/2): -ln s at s = sin^2(phi), as
    -ln(1 - cos^2) where s is near 1."""
    alpha_r = np.where(half > 0.25 * np.pi, -np.log1p(-np.cos(half) ** 2),
                       -np.log(np.sin(half) ** 2))
    return alpha_r / alpha


def _sturm_span(n, a, b):
    """(phi_lo, phi_hi, K) of the module docstring for a, b >= 1/2."""
    big_n = n + (a + b + 1.0) / 2.0
    root_a, root_b = math.sqrt(a * a - 0.25) / 2.0, math.sqrt(b * b - 0.25) / 2.0
    return (math.asin(root_a / big_n), math.acos(root_b / big_n),
            math.sqrt(big_n**2 - (root_a + root_b) ** 2))


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
    # in theta, read by count_nodes and by a plain scan: the count, or nodes
    # too close.  The grid is phi_k = phi_lo + (phi_hi - phi_lo) k / (M + 1),
    # phi = theta / 2, s = e^{-alpha r} = sin^2(phi), and 1 - s = cos^2(phi)
    # keeps its digits where alpha r is small; where the Sturm bound fails it
    # is the 20001-point grid byte for byte.  Every call makes a new, writable array.
    sizes = set()
    for params, level in _parity_levels():
        wave = build_wave(params, CONSTS, level)
        grid, full = default_node_grid(wave), _theta_grid(params.alpha, 20001)
        where = (params, level.n, level.l)
        jac = wave.jacobi
        if min(jac.a, jac.b) >= 0.5:  # 16 points per pi/K inside the span
            lo, hi, k = _sturm_span(jac.n, jac.a, jac.b)
            assert grid.size == min(max(math.ceil(32 * k * (hi - lo) / math.pi) - 1, 64),
                                    20001), where
        else:
            lo, hi = 0.0, 0.5 * np.pi
            assert grid.size == 20001, where
            assert grid.tobytes() == full.tobytes(), where
        verdict = _verdict(wave, grid)
        assert verdict == _verdict(wave, full), where
        if verdict == "two sign changes within three samples; refine the grid":
            verdict = "too close"
        assert verdict == _plain_scan(wave.psi(full).tolist()), where
        half = lo + (hi - lo) * np.arange(grid.size, 0, -1) / (grid.size + 1)
        np.testing.assert_allclose(np.exp(-params.alpha * grid), np.sin(half) ** 2, rtol=1e-12)
        np.testing.assert_allclose(-np.expm1(-params.alpha * grid), np.cos(half) ** 2,
                                   rtol=1e-12)
        assert grid.flags.writeable and default_node_grid(wave) is not grid
        sizes.add(grid.size if grid.size in (64, 20001) else "between")
    assert sizes == {64, "between", 20001}  # the floor, the cap and between


@pytest.mark.parametrize("seed", range(4))
def test_nodes_lie_inside_the_span_and_keep_their_least_gap(seed):
    # every zero of P_n^{(a, b)} lies strictly inside (phi_lo, phi_hi), and
    # adjacent zeros are at least pi/K apart in theta, so the grid puts at
    # least 16 steps between them below its cap.  The zeros are the
    # eigenvalues of the Jacobi matrix (Golub-Welsch), independent of the
    # library's recurrence; a, b span 0.5 to 1e5
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 151))
        a, b = np.exp(rng.uniform(math.log(0.5), math.log(1e5), 2))
        k = np.arange(1, n + 1)
        s = 2.0 * k + a + b  # recurrence in x = cos(theta), DLMF 18.9.2
        diag = (b * b - a * a) / ((s - 2.0) * s)
        off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
        x = eigvalsh_tridiagonal(diag, off[:-1])
        # theta from the half-angle forms, which keep the digits near x = +-1
        theta = 2.0 * np.arctan2(np.sqrt((1.0 - x) / 2.0), np.sqrt((1.0 + x) / 2.0))
        lo, hi, big_k = _sturm_span(n, a, b)
        where = (n, a, b)
        assert 2.0 * lo < theta.min() and theta.max() < 2.0 * hi, where
        gaps = np.diff(np.sort(theta))
        # the bound is nearly tight (to 4e-9) where a and b are large
        assert (gaps >= math.pi / big_k * (1.0 - 1e-6)).all(), where
        jac = JacobiParams(n, float(a), float(b))
        lo_lib, hi_lib, m, _ = wavefunction._node_span(jac)
        assert (lo_lib, hi_lib) == (lo, hi), where
        if m < 20001:
            assert 16.0 * 2.0 * (hi - lo) / (m + 1) <= math.pi / big_k * (1.0 + 1e-12), where


@pytest.mark.parametrize("params, n, l", [SMALL_A_LEVEL, SMALL_B_LEVEL])
def test_node_grid_falls_back_where_the_sturm_bound_fails(params, n, l):
    # 16 ceil(N) would give 64 and 320 points
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    assert min(wave.jacobi.a, wave.jacobi.b) < 0.5
    grid = default_node_grid(wave)
    assert grid.size == 20001
    assert count_nodes(wave, grid) == n


@pytest.mark.parametrize("params, n", [(UNIT_YUKAWA, 0), (DEEP_YUKAWA, 3), (DEEPEST_WELL, 50),
                                       (PotentialParams(0.0, 0.0, 1e4, 0.01), 1410)])
def test_node_grid_theta_step_limit(params, n):
    # count_nodes holds the theta-steps that overlap the span (2 phi_lo,
    # 2 phi_hi) to max(2 (phi_hi - phi_lo)/(M + 1), pi/(16 K)): pi/(16 K)
    # below the cap, the default grid's own step at it (the last level).
    # Theta-steps 2h from 2 phi_hi down past 2 phi_lo - 2h count n for 2h
    # 1e-6 under the limit and raise 1e-6 over it; a last, coarse step below
    # the span, to half its phi, is free
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
    lo, hi, k = _sturm_span(wave.jacobi.n, wave.jacobi.a, wave.jacobi.b)
    m = default_node_grid(wave).size
    limit = max(2.0 * (hi - lo) / (m + 1), math.pi / (16.0 * k))
    assert (m == 20001) == (limit > math.pi / (16.0 * k))
    for scale in (1.0 - 1e-6, 1.0 + 1e-6):
        h = 0.5 * limit * scale
        half = hi - h * np.arange(math.ceil((hi - lo) / h) + 2)
        assert half[-1] > limit  # the theta-step of the coarse step
        grid = _half_grid(params.alpha, np.append(half, 0.5 * half[-1]))
        if scale < 1.0:
            assert count_nodes(wave, grid) == n
        else:
            with pytest.raises(ResolutionError, match="theta-step"):
                count_nodes(wave, grid)


def test_fine_theta_grid_is_accepted_on_a_narrow_span():
    # 20001 points uniform in theta, a theta-step of 1.57e-4: coarser than
    # the level's own grid (64 points on a span of 6.2e-3 in theta, a step
    # of 9.7e-5) but under pi/(16 K) = 4.1e-4
    wave = build_wave(DEEPEST_WELL, CONSTS, energy(DEEPEST_WELL, CONSTS, 0, 0))
    lo, hi, k = _sturm_span(wave.jacobi.n, wave.jacobi.a, wave.jacobi.b)
    assert 2.0 * (hi - lo) / 65 < math.pi / 20002 < math.pi / (16.0 * k)
    assert count_nodes(wave, _theta_grid(DEEPEST_WELL.alpha, 20001)) == 0


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

    def _psi_at(self, x, s, one_minus):  # count_nodes hands it x = -alpha r, alpha = 1
        return self.values[np.rint(-x * 1e4).astype(int) - 1]


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


def test_node_grid_is_the_where_form():
    # default_node_grid evaluates each branch of alpha r only on its own
    # points: the log1p prefix (phi_k > pi/4) and the rest.  That is the
    # former np.where of both branches on every point, byte for byte, on
    # spans at the floor, between and at the cap, and on the fallback grid;
    # and _alpha_r on the grids where no point, and where every point, takes
    # the log1p branch
    def where_form(half):
        return np.where(half > 0.25 * np.pi, -np.log1p(-np.cos(half) ** 2),
                        -np.log(np.sin(half) ** 2))

    stand_in = _SignPattern([1.0])
    rng = np.random.default_rng(5)
    degrees = np.exp(rng.uniform(0.0, math.log(2000.0), 300)).astype(int) - 1
    indices = np.exp(rng.uniform(math.log(0.5), math.log(1e5), (300, 2)))
    jacobis = [JacobiParams(int(n), float(a), float(b)) for n, (a, b) in zip(degrees, indices)]
    sizes, parts = set(), set()
    for jacobi in jacobis + [JacobiParams(0, 0.0, 0.0)]:  # the last below the bound
        stand_in.jacobi = jacobi
        lo, hi, m, _ = wavefunction._node_span(jacobi)
        half = lo + (hi - lo) * np.arange(m, 0, -1) / (m + 1)
        grid = default_node_grid(stand_in)
        assert grid.tobytes() == where_form(half).tobytes(), jacobi
        head, tail = half[half > 0.25 * np.pi], half[half <= 0.25 * np.pi]
        for part in (head, tail):
            if part.size:
                assert wavefunction._alpha_r(part).tobytes() == where_form(part).tobytes(), jacobi
        sizes.add(m if m in (64, 20001) else "between")
        parts.add((head.size > 0, tail.size > 0))
    assert sizes == {64, "between", 20001}
    assert parts == {(True, True), (True, False), (False, True)}


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


@pytest.mark.parametrize("params, ns", [(UNIT_YUKAWA, (0,)), (DEEP_YUKAWA, (0, 1, 2, 3)),
                                        (DEEPEST_WELL, (0, 50, 100, 150))])
def test_ode_residual_at_the_rounding_floor(params, ns):
    # check 09's nine states: with P_s, P_ss from the differentiated
    # recurrence and k (1 - s)^2 a polynomial, the screened residual stays
    # near rounding even at n = 150 of the deepest well
    for n in ns:
        wave = build_wave(params, CONSTS, energy(params, CONSTS, n, 0))
        assert ode_residual(wave) <= 1e-12, (params, n)


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
    # the norm integral is e^{-3444.64} here, and N = e^{1722.32} would
    # overflow
    message = (r"^norm integral e\^-3444\.64 of level \(n=3, l=100\) is outside "
               r"double range$")
    with pytest.raises(NumericalError, match=message):
        build_wave(ABYSS, CONSTS, energy(ABYSS, CONSTS, 3, 100))


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


def _mp_log_bound(wave, log_s, q):
    """ln B(R) = ln[binom(n + q, n)^2 s_R^{2 beta} / (2 beta alpha)] at
    s_R = e^{log_s}, at 30 digits."""
    with mpmath.workdps(30):
        n, q, two_beta = wave.jacobi.n, mpmath.mpf(q), 2 * mpmath.mpf(wave.beta_exp)
        log_binom = mpmath.loggamma(n + q + 1) - mpmath.loggamma(q + 1) - mpmath.loggamma(n + 1)
        return 2 * log_binom + two_beta * log_s - mpmath.log(two_beta * wave.params.alpha)


# tail-bound levels: at n = 1410, near threshold, the piece [R_0, 2 R_0]
# holds most of the norm; at l = 3 the bound declines at R_0 although the
# true tail passes there; the third has b > a
THRESHOLD_LEVEL = (PotentialParams(0.0, 0.0, 1e4, 0.01), 1410, 0)
DECLINED_LEVEL = (PotentialParams(0.0, 0.0, 50.0, 0.02), 63, 3)
B_OVER_A_LEVEL = (PotentialParams(-0.002, -0.006, 4.0, 0.01), 13, 3)


def _tail_start(alpha):
    """R_0 = max(2, 10/alpha), the first radius _tail_radius tries."""
    return max(2.0, 10.0 / alpha)


@pytest.fixture
def tail_calls(monkeypatch):
    """((alpha, beta, jacobi), ln total, r_tail, j) of every build_wave,
    recorded around wavefunction._tail_radius: the bound proved the tail at
    R_j = 2^j R_0, and r_tail = 2 R_j."""
    calls = []
    tail = wavefunction._tail_radius

    def spy(*args):
        r_tail = tail(*args)
        j = round(math.log2(r_tail / _tail_start(args[0]))) - 1
        calls.append((args[:-1], args[-1], r_tail, j))
        return r_tail

    monkeypatch.setattr(wavefunction, "_tail_radius", spy)
    return calls


def _log_bound(args, r, q=None):
    """ln B(R) = ln[binom(n + q, n)^2 s_R^{2 beta} / (2 beta alpha)] by
    scipy's gammaln, q = _tail_q(args, r) unless given."""
    alpha, beta, jac = args
    n, two_beta = jac.n, 2.0 * beta
    q = _tail_q(args, r) if q is None else q
    log_binom = gammaln(n + q + 1.0) - gammaln(q + 1.0) - gammaln(n + 1.0)
    return 2.0 * log_binom - two_beta * alpha * r - math.log(two_beta * alpha)


def _tail_q(args, r):
    """a where the tail beyond R, x = 1 - 2 s >= 1 - 2 s_R, lies in Szego's
    range x >= (b - a)/(a + b + 1), in which |P_n| <= P_n(1); max(a, b)
    elsewhere."""
    alpha, _, jac = args
    x_r = 1.0 - 2.0 * math.exp(-alpha * r)
    return jac.a if x_r >= (jac.b - jac.a) / (jac.a + jac.b + 1.0) else max(jac.a, jac.b)


def _pass_line():
    """B <= f (total - B), f = _TAIL_FRACTION, as ln B - ln total <= this."""
    return math.log(wavefunction._TAIL_FRACTION / (1.0 + wavefunction._TAIL_FRACTION))


def _bound_levels():
    """Seeded valid levels of the stated box (alpha in [0.01, 0.5], a3 in
    [1, 100], |x1|, |x2| <= 0.05, n <= 5, l <= 3), the deepest well at
    n = 0 and 150, levels with b > a, the declined level and n = 1410."""
    rng = np.random.default_rng(27)
    levels = []
    while len(levels) < 80:
        alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        a1, a2 = rng.uniform(-0.05, 0.05, 2) * alpha**2 / 2.0
        params = PotentialParams(a1, a2, math.exp(rng.uniform(0.0, math.log(100.0))), alpha)
        try:
            level = energy(params, CONSTS, int(rng.integers(0, 6)), int(rng.integers(0, 4)))
        except NoRealDeltaError:
            continue
        if level.valid_bound_state:
            levels.append((params, level))
    return levels + [
        (params, energy(params, CONSTS, n, l))
        for params, n, l in ((DEEPEST_WELL, 0, 0), (DEEPEST_WELL, 150, 0), SMALL_A_LEVEL,
                             (PotentialParams(0.0, 0.0, 15.25, 0.1), 10, 3), B_OVER_A_LEVEL,
                             DECLINED_LEVEL, THRESHOLD_LEVEL)
    ]


def test_tail_radius_is_the_first_radius_whose_bound_passes(tail_calls):
    # the test's own ln B(R) - ln total, by scipy's gammaln with q chosen at
    # each R, declines at R_0 .. R_{j-1} and passes at R_j, where r_tail =
    # 2 R_j; Simpson pieces of psi^2 beyond r_tail hold under 1e-13 of the
    # norm, while near threshold [R_0, 2 R_0] holds most of it
    levels = _bound_levels()
    waves = [build_wave(params, CONSTS, level) for params, level in levels]
    assert len(tail_calls) == len(levels)
    for wave, (args, log_total, r_tail, j) in zip(waves, tail_calls):
        where = (wave.params, wave.level.n, wave.level.l)
        radii = _tail_start(args[0]) * 2.0 ** np.arange(j + 1)
        passed = [_log_bound(args, r) - log_total <= _pass_line() for r in radii]
        assert passed == [False] * j + [True], where
        assert wave.r_tail == r_tail == 2.0 * radii[-1], where
        for lo in (r_tail, 2.0 * r_tail):
            r = np.linspace(lo, 2.0 * lo, 20001)
            assert simpson(wave.psi(r) ** 2, x=r) < 1e-13, where
    wave = waves[-1]  # THRESHOLD_LEVEL
    r = np.linspace(1000.0, 2000.0, 20001)
    assert simpson(wave.psi(r) ** 2, x=r) == pytest.approx(0.78, abs=1e-2)
    # the bound settles most box levels at R_0, both deep ones and
    # B_OVER_A_LEVEL; SMALL_A_LEVEL (2 beta = 0.2) ends at R_4
    rungs = [call[3] for call in tail_calls]
    assert rungs[:80].count(0) == 79
    assert rungs[80:] == [0, 0, 4, 0, 0, 1, 1]


@pytest.mark.parametrize(
    "params, n, l, j, true_j",
    [
        (PotentialParams(0.0, 0.0, 1.5, 0.02), 3, 0, 0, 0),
        (DEEPEST_WELL, 0, 0, 0, 0),  # ln T = -4e6
        (PotentialParams(0.0, 0.0, 100.0, 0.01), 140, 0, 3, 3),  # beta = 0.42
        B_OVER_A_LEVEL + (0, 0),
        DECLINED_LEVEL + (1, 0),  # r_tail 2000, where the true tail gives 1000
        THRESHOLD_LEVEL + (1, 1),
    ],
)
def test_tail_bound_holds_against_mpmath(tail_calls, params, n, l, j, true_j):
    # B(R) >= T(R), both at 30 digits, T by quadrature, at R_j, where the
    # bound passed, and at R_{j-1}, where it declined; at R_3 of the n = 140
    # level, s_R = e^{-80}, they agree to the last of those digits.  The
    # true tail passes first at R_{true_j} <= R_j, so r_tail is never below
    # the radius that T itself would give
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    (args, log_total, r_tail, rung), = tail_calls
    assert rung == j
    for k in range(max(j - 1, 0), j + 1):
        r = _tail_start(params.alpha) * 2.0**k
        exact = _mp_log_tail(wave, -params.alpha * r)
        log_bound = _mp_log_bound(wave, -params.alpha * r, _tail_q(args, r))
        assert log_bound - exact >= -1e-20 * abs(exact), k
        assert (float(exact) - log_total <= _pass_line()) == (k >= true_j), k


def test_tail_bound_takes_p_n_at_1_on_the_tail(tail_calls):
    # b > a: P_n(-1) = (-1)^n binom(n + b, n) (DLMF 18.6.1) exceeds
    # P_n(1) = binom(n + a, n), so binom(n + a, n) bounds |P_n| on all of
    # [-1, 1] only for a >= b (DLMF 18.14.1).  On x >= (b - a)/(a + b + 1),
    # though, Szego's f = P_n^2 + (1 - x^2) P_n'^2 / (n (n + a + b + 1))
    # increases, so |P_n| <= P_n(1) there, and the tail, x >= 1 - 2 e^{-10},
    # lies in that range: the bound takes binom(n + a, n), which proves the
    # tail at R_0 where binom(n + b, n) would not.
    params, n, l = B_OVER_A_LEVEL
    wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
    jac = wave.jacobi
    assert jac.b > jac.a + 18.0
    sigma = np.linspace(0.0, 1.0, 2001)
    p, _, log_scale = wavefunction._jacobi_scaled(n, jac.a, jac.b, sigma)
    values = np.abs(p) * np.exp(log_scale)
    assert values[-1] == pytest.approx(binom(n + jac.b, n), rel=1e-12)
    assert values[0] == pytest.approx(binom(n + jac.a, n), rel=1e-12)
    assert values[-1] > 1e3 * values[0] and np.all(values <= values[-1] * (1.0 + 1e-12))
    szego = 1.0 - 2.0 * sigma >= (jac.b - jac.a) / (jac.a + jac.b + 1.0)
    assert 0.2 < szego.mean() < 0.3
    assert np.all(values[szego] <= values[0] * (1.0 + 1e-12))
    (args, log_total, _, j), = tail_calls
    r_0 = _tail_start(params.alpha)
    assert _tail_q(args, r_0) == jac.a
    assert _log_bound(args, r_0) - log_total < _pass_line() - 10.0
    assert _log_bound(args, r_0, jac.b) - log_total > _pass_line()
    assert j == 0 and wave.r_tail == 2.0 * r_0 == 2000.0


def test_tail_bound_takes_the_larger_jacobi_index():
    # where b is so far above a that the tail leaves Szego's range, about
    # b > (2 a + 1) / (2 s_R) - a - 1, the bound takes binom(n + b, n).
    # At alpha = 0.5, a = 0.2 the edge at R_0 = 20 is b = 0.7 e^{10} - 1.2;
    # with this ln total the a-bound passes there and the b-bound does not,
    # and at R_1 = 40 the tail is back in the range, where the a-bound passes
    alpha, a, n, log_total = 0.5, 0.2, 2, 35.0
    edge = 0.7 * math.exp(10.0) - 1.2
    for b, inside in ((edge * (1.0 - 1e-6), True), (edge * (1.0 + 1e-6), False)):
        args = (alpha, a / 2.0, JacobiParams(n, a, b))
        assert _tail_q(args, 20.0) == (a if inside else b)
        assert _tail_q(args, 40.0) == a
        assert (_log_bound(args, 20.0) - log_total <= _pass_line()) == inside
        assert _log_bound(args, 40.0) - log_total <= _pass_line()
        assert wavefunction._tail_radius(*args, log_total) == (40.0 if inside else 80.0)


def test_tail_that_never_passes_raises():
    # with 2 beta = 1e-21, s_R^{2 beta} falls only to e^{-0.18} at R_64 =
    # 2^64 R_0, the last radius tried, and to e^{-0.37} at R_65.  With this
    # ln total the bound would pass between them, so no radius tried passes;
    # 0.1 more, and R_64 passes
    alpha, two_beta = 0.5, 1e-21
    args = (alpha, two_beta / 2.0, JacobiParams(0, two_beta, 1.0))
    r_64 = _tail_start(alpha) * 2.0**64
    log_total = _log_bound(args, 1.5 * r_64) - _pass_line()
    assert _log_bound(args, r_64) - log_total > _pass_line()
    with pytest.raises(NumericalError, match="within 64 doublings"):
        wavefunction._tail_radius(*args, log_total)
    assert wavefunction._tail_radius(*args, log_total + 0.1) == 2.0 * r_64
