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
from mrey.wavefunction import JacobiParams, ode_residual, overlap_matrix

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


def test_jacobi_params_validation():
    with pytest.raises(DomainError):
        JacobiParams(0, -1.0, 0.0)
    with pytest.raises(DomainError):
        JacobiParams(0, 0.0, -1.5)
    with pytest.raises(DomainError):
        JacobiParams(-1, 0.0, 0.0)


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


# count_nodes probes: the first raises ResolutionError on its default grid,
# the second counts 0 nodes at n = 1
NODE_PROBES = (
    (PotentialParams(9.841691298364683e-08, -2.2338228310324652e-07,
                     91.79960954609237, 0.011497931669835109), 4, 0),
    (PotentialParams(1.9555538494703054e-05, -2.589938200401326e-05,
                     82.30161341989387, 0.03235739230426554), 1, 0),
)


def _nodes_or_error(wave, grid):
    try:
        return count_nodes(wave, grid)
    except ResolutionError:
        return ResolutionError


@pytest.mark.parametrize("chunk", [5, 64])
def test_node_count_is_independent_of_chunking(monkeypatch, chunk):
    well = PotentialParams(0.0, 0.0, 20.0, 0.5)
    cases = [(well, n, l) for n, l in ((0, 0), (2, 0), (5, 0), (3, 1), (2, 2))]
    counts = []
    for params, n, l in cases + list(NODE_PROBES):
        wave = build_wave(params, CONSTS, energy(params, CONSTS, n, l))
        grid = default_node_grid(wave)
        monkeypatch.setattr(wavefunction, "_NODE_CHUNK", grid.size)
        whole = _nodes_or_error(wave, grid)
        monkeypatch.setattr(wavefunction, "_NODE_CHUNK", chunk)
        assert _nodes_or_error(wave, grid) == whole
        counts.append(whole)
    # the probes' faults are reproduced, not mended
    assert counts == [0, 2, 5, 3, 2, ResolutionError, 0]


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
    """Stands in for a wave whose psi takes the given values on GRID."""

    GRID = np.arange(1, 13) * 1e-4
    params = PotentialParams(0.0, 0.0, 1.0, 1.0)

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def psi(self, r):
        return self.values[np.rint(r * 1e4).astype(int) - 1]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
def test_chunks_carry_the_last_sign_and_change(monkeypatch, chunk):
    monkeypatch.setattr(wavefunction, "_NODE_CHUNK", chunk)
    # changes after samples 3 and 4 are within three samples
    close = _SignPattern([1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(ResolutionError):
        count_nodes(close, close.GRID)
    # zero samples do not count as a change and do not hide one
    spaced = _SignPattern([1, 1, 1, -1, 0, 0, -1, -1, 0, 1, 1, 1])
    assert count_nodes(spaced, spaced.GRID) == 2


def test_node_grid_validation():
    level = energy(DEEP_YUKAWA, CONSTS, 2, 0)
    wave = build_wave(DEEP_YUKAWA, CONSTS, level)
    with pytest.raises(ResolutionError):
        count_nodes(wave, np.linspace(0.1, 20.0, 200))  # far below density floor
    with pytest.raises(DomainError):
        count_nodes(wave, np.array([0.0, 1.0, 2.0]))  # grid must stay positive
    with pytest.raises(DomainError):
        count_nodes(wave, np.array([2.0, 1.0]))  # not increasing


def test_ode_residual_small_for_true_solution():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    assert ode_residual(wave) < 1e-6


def test_ode_residual_negative_control():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    spoiled = dataclasses.replace(wave, beta_exp=wave.beta_exp + 0.1)
    assert ode_residual(spoiled) > 1e-2


def test_ode_residual_against_unscreened_equation():
    # the construction solves the screened stand-in exactly; against the
    # true 1/r and 1/r^2 terms the residual is the approximation error and
    # must NOT be small
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    wave = build_wave(UNIT_YUKAWA, CONSTS, level)
    assert ode_residual(wave, screened=False) > 1e-3


def test_overlap_matrix_diagnostic():
    waves = [
        build_wave(DEEP_YUKAWA, CONSTS, energy(DEEP_YUKAWA, CONSTS, n, 0))
        for n in range(3)
    ]
    overlap = overlap_matrix(waves)
    np.testing.assert_allclose(np.diag(overlap), 1.0, atol=1e-8)
    assert np.allclose(overlap, overlap.T)
    # distinct levels carry different weights, so exact orthogonality is not
    # expected; just record that the mixing stays modest
    off = overlap[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) < 0.5)


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
    "m, a, b",
    [(1, 0.5, 0.2), (6, 40.0, 3.0), (10, 0.1, -0.5), (17, 2526.4, 1.02),
     (16, 4.0e5, 1.5), (18, 1263.0, 0.0), (25, -0.5, 30.0)],
)
def test_gauss_jacobi_rule_matches_mpmath(m, a, b):
    # mpmath's rule is for (1 - x)^a (1 + x)^b on (-1, 1): with s = (1 - x)/2
    # its weights are ours times 2^{a + b + 1}
    s, v, log_w = wavefunction._gauss_jacobi(m, a, b)
    with mpmath.workdps(60):
        xs, ws = mpmath.mp.gauss_quadrature(m, "jacobi", mpmath.mpf(a), mpmath.mpf(b))
        log_scale = (a + b + 1) * mpmath.log(2)
        ref = sorted(((1 - x) / 2, (1 + x) / 2, mpmath.log(w) - log_scale)
                     for x, w in zip(xs, ws))
        for i, (s_ref, v_ref, log_w_ref) in zip(np.argsort(s), ref):
            # each node keeps its relative precision at the end it is near
            if s_ref <= v_ref:
                assert abs(s[i] / s_ref - 1) < 1e-14
            else:
                assert abs(v[i] / v_ref - 1) < 1e-14
            assert abs(mpmath.expm1(log_w[i] - log_w_ref)) < 1e-12


def test_deepest_well_builds():
    # r_tail as the adaptive-quadrature route found it; n = 0 used to raise
    # ZeroDivisionError.  The default node grid resolves only n = 0 here.
    for n in (0, 50, 100, 150):
        wave = build_wave(DEEPEST_WELL, CONSTS, energy(DEEPEST_WELL, CONSTS, n, 0))
        assert wave.r_tail == 2000.0
        assert _simpson_log_r(wave, lambda r: wave.psi(r) ** 2) == pytest.approx(
            1.0, abs=1e-8
        )
        if n == 0:
            assert count_nodes(wave, default_node_grid(wave)) == 0


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


def test_overlap_matrix_matches_simpson():
    params = PotentialParams(0.01, -0.03, 5.0, 0.2)
    waves = [
        build_wave(params, CONSTS, energy(params, CONSTS, n, l))
        for n, l in ((0, 0), (1, 0), (2, 0), (0, 1), (3, 1))
    ]
    overlap = overlap_matrix(waves)
    for i, j in ((0, 1), (0, 2), (1, 2), (0, 3), (2, 4)):
        value = _simpson_log_r(
            max(waves[i], waves[j], key=lambda w: w.r_tail),
            lambda r: waves[i].psi(r) * waves[j].psi(r),
            points=20001,
        )
        assert overlap[i, j] == pytest.approx(value, abs=1e-10)
    with pytest.raises(DomainError):
        other = PotentialParams(0.01, -0.03, 5.0, 0.25)
        overlap_matrix(
            [waves[0], build_wave(other, CONSTS, energy(other, CONSTS, 0, 0))]
        )
