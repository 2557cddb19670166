"""Partition function routes, derived properties, and their cross-checks.

Constant-spectrum cases (q2 = 0) have closed forms and pin the plumbing;
the screened-well cases hold the Dawson closed form against the direct
moment quadrature (thermo_direct, whose S0 alone is log_partition_direct),
finite differences of that ln Z in beta, and the 40-digit reference in
mrey.verification.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from mrey import (
    DomainError,
    PhysicalConstants,
    PotentialParams,
    RangeError,
    ThermoInput,
    compact_energy,
    spectral_coefficients,
    thermo_curve,
    thermo_state,
)
from mrey import thermo
from mrey.thermo import (
    level_energies,
    log_partition_direct,
    partition_discrete,
    thermo_direct,
)
from mrey.verification import _mp_thermo, check_quadrature_routes

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
UNIT_YUKAWA = PotentialParams(0.0, 0.0, 1.0, 0.5)
COEFFS = spectral_coefficients(UNIT_YUKAWA, CONSTS, 0)
# q2 = 0 switches off the n-dependence entirely: E(n) = q1 for all n
FLAT = replace(COEFFS, q2=0.0, q1=-1.0)


def test_input_validation():
    with pytest.raises(DomainError):
        ThermoInput(COEFFS, 0.0, 1.0)
    with pytest.raises(DomainError):
        ThermoInput(COEFFS, -2.0, 1.0)
    with pytest.raises(DomainError):
        ThermoInput(COEFFS, 5.0, -0.1)
    with pytest.raises(DomainError):
        ThermoInput(COEFFS, math.inf, 1.0)


def test_discrete_sum_constant_spectrum():
    energies = np.full(5, 0.7)
    assert partition_discrete(energies, 1.0) == pytest.approx(5.0 * math.exp(-0.7), rel=1e-14)
    assert partition_discrete(energies, 0.0) == pytest.approx(5.0, rel=1e-15)


def test_discrete_sum_hand_value():
    energies = level_energies(COEFFS, 1.0)  # n = 0, 1: E = -0.28125, 0
    assert energies == pytest.approx([-0.28125, 0.0], abs=1e-14)
    z = partition_discrete(energies, 1.0)
    assert z == pytest.approx(math.exp(0.28125) + 1.0, rel=1e-14)
    assert z == pytest.approx(2.324785, abs=5e-6)


def test_discrete_sum_overflow_policy():
    # the shift keeps the summation finite; the error fires only when the
    # final Z itself cannot be represented
    huge = partition_discrete(np.array([-500.0, -499.0]), 1.0)
    assert math.isfinite(huge)
    with pytest.raises(RangeError):
        partition_discrete(np.array([-1e6, -1e6 + 1.0]), 1.0)


def test_integral_constant_spectrum():
    z = thermo_state(ThermoInput(FLAT, 5.0, 1.0)).z
    assert z == pytest.approx(5.0 * math.e, rel=1e-12)


def test_integral_beta_zero_is_lambda():
    for lam in (1.0, 7.5, 100.0):
        z0 = thermo_state(ThermoInput(COEFFS, lam, 0.0)).z
        assert z0 == pytest.approx(lam, rel=1e-12)


def test_integral_routes_agree():
    # Dawson closed form vs direct e^{-beta E(n)} quadrature
    for lam, beta in ((1.0, 1.0), (20.0, 0.3), (100.0, 2.0), (700.0, 10.0)):
        inp = ThermoInput(COEFFS, lam, beta)
        gap = abs(thermo_state(inp).ln_z - log_partition_direct(inp))
        assert gap <= 1e-10 * max(1.0, abs(log_partition_direct(inp)))


def test_integral_against_plain_quadrature():
    # small case where scipy.quad needs no panel decomposition at all
    inp = ThermoInput(COEFFS, 1.0, 1.0)
    reference, err = quad(lambda n: math.exp(-compact_energy(COEFFS, n)), 0.0, 1.0,
                          epsabs=1e-14, epsrel=1e-12)
    assert err < 1e-12
    assert thermo_state(inp).z == pytest.approx(reference, rel=1e-11)
    assert math.exp(log_partition_direct(inp)) == pytest.approx(reference, rel=1e-11)


@pytest.mark.parametrize("lam", [1e-9, 1e-6])
def test_integral_keeps_small_lambda(lam):
    # a rho-space interval [delta, lambda + delta] rounds off lambda's digits
    reference = _mp_thermo(COEFFS, lam, 1.0)[0]
    assert abs(thermo_state(ThermoInput(COEFFS, lam, 1.0)).ln_z - reference) <= 1e-10


@pytest.mark.parametrize("lam, beta", [(1e-9, 1.0), (1e-8, 10.0), (4e-8, 100.0)])
def test_direct_moments_keep_small_lambda(lam, beta):
    # g = E(n) - E(n_ref) lies far below eps |E| here; formed as a difference
    # of energies it is rounding noise, and S1, S2 miss the 1e-10 gate
    ln_z, u, c = thermo_direct(ThermoInput(COEFFS, lam, beta))
    ln_z_ref, u_ref, c_ref = _mp_thermo(COEFFS, lam, beta)
    assert abs(ln_z - ln_z_ref) <= 1e-13 * max(1.0, abs(ln_z_ref))
    assert abs(u - u_ref) <= 1e-13 * max(1.0, abs(u_ref))
    assert abs(c - c_ref) <= 1e-13 * c_ref


def test_mean_energy_constant_and_bounds():
    assert thermo_state(ThermoInput(FLAT, 5.0, 2.0)).u == pytest.approx(-1.0, rel=1e-12)
    for beta in (0.1, 1.0, 10.0):
        u = thermo_state(ThermoInput(COEFFS, 5.0, beta)).u
        grid = compact_energy(COEFFS, np.linspace(0.0, 5.0, 20001))
        assert grid.min() - 1e-9 <= u <= grid.max() + 1e-9


def test_mean_energy_high_temperature_limit():
    # beta -> 0: the weight flattens and U tends to the unweighted average
    lam = 3.0
    u = thermo_state(ThermoInput(COEFFS, lam, 1e-8)).u
    flat_avg = quad(lambda n: compact_energy(COEFFS, n), 0.0, lam)[0] / lam
    assert u == pytest.approx(flat_avg, rel=1e-6)


def test_entropy_constant_spectrum():
    for beta in (0.5, 1.0, 4.0):
        s = thermo_state(ThermoInput(FLAT, 5.0, beta)).s
        assert s == pytest.approx(math.log(5.0), rel=1e-12)
    assert thermo_state(ThermoInput(FLAT, 5.0, 1.0), k=2.0).s == pytest.approx(
        2.0 * math.log(5.0), rel=1e-12
    )


def test_free_energy_identities():
    # F = -ln Z / beta; Z = 1 exactly when beta = ln(lam)/(-q1) on a flat
    # spectrum, where F must vanish
    flat_pos = replace(FLAT, q1=1.0)
    beta_star = math.log(5.0)  # lam e^{-beta q1} = 1 at q1 = 1, lam = 5
    f_star = thermo_state(ThermoInput(flat_pos, 5.0, beta_star)).f
    assert f_star == pytest.approx(0.0, abs=1e-12)
    assert thermo_state(ThermoInput(FLAT, 5.0, 2.0)).f == pytest.approx(
        -1.0 - math.log(5.0) / 2.0, rel=1e-12
    )
    # F is undefined at beta = 0: reported as None, never a silent NaN
    state = thermo_state(ThermoInput(FLAT, 5.0, 0.0))
    assert state.f is None
    assert state.z == pytest.approx(5.0, rel=1e-14)


def test_f_equals_u_minus_ts():
    for lam in (1.0, 20.0, 700.0):
        for beta in (0.1, 1.0, 10.0):
            state = thermo_state(ThermoInput(COEFFS, lam, beta))
            gap = abs(state.f - (state.u - state.s / beta))
            assert gap <= 1e-9 * max(1.0, abs(state.f))


def test_heat_capacity_constant_spectrum_and_sign():
    assert thermo_state(ThermoInput(FLAT, 5.0, 3.0)).c == pytest.approx(0.0, abs=1e-12)
    for lam in (1.0, 20.0, 100.0):
        for beta in (0.1, 1.0, 10.0):
            assert thermo_state(ThermoInput(COEFFS, lam, beta)).c >= 0.0


def test_moment_derivatives_match_finite_differences():
    # U = -d ln Z / d beta (central, h = 1e-4 beta) and C = beta^2 d^2 ln Z /
    # d beta^2 (five-point, h = 5e-3 beta) from the quadrature route's ln Z
    for lam, beta in ((5.0, 0.5), (20.0, 2.0), (100.0, 10.0)):
        state = thermo_state(ThermoInput(COEFFS, lam, beta))
        ln_z = lambda b: log_partition_direct(ThermoInput(COEFFS, lam, b))
        h = 1e-4 * beta
        u_fd = -(ln_z(beta + h) - ln_z(beta - h)) / (2.0 * h)
        assert abs(state.u - u_fd) <= 1e-6 * max(1.0, abs(state.u))
        h = 5e-3 * beta
        d2 = (
            -ln_z(beta - 2.0 * h)
            + 16.0 * ln_z(beta - h)
            - 30.0 * ln_z(beta)
            + 16.0 * ln_z(beta + h)
            - ln_z(beta + 2.0 * h)
        ) / (12.0 * h**2)
        c_fd = beta**2 * d2
        assert abs(state.c - c_fd) <= 1e-6 * max(1.0, abs(state.c))


def test_discrete_approaches_integral_when_smooth():
    # Euler-Maclaurin-scale agreement; the loose 0.5/lambda bound holds on
    # half-integer lambda (end half-cells cancel) at small beta
    for lam, beta in ((20.5, 0.01), (50.5, 0.005), (100.5, 0.001)):
        zi = thermo_state(ThermoInput(COEFFS, lam, beta)).z
        zd = partition_discrete(level_energies(COEFFS, lam), beta)
        assert abs(zd - zi) / zi <= 0.5 / lam


def test_extreme_corner_stays_finite():
    # lambda = 700, beta = 100 drives ln Z to ~1.5e6; both routes must hold
    inp = ThermoInput(COEFFS, 700.0, 100.0)
    ln_z = thermo_state(inp).ln_z
    assert abs(ln_z - log_partition_direct(inp)) <= 1e-9 * ln_z


def test_z_overflows_to_inf_while_ln_z_stays_finite():
    state = thermo_state(ThermoInput(COEFFS, 700.0, 100.0))
    assert math.isfinite(state.ln_z) and state.ln_z > 1e5
    assert state.z == math.inf
    assert all(math.isfinite(v) for v in (state.u, state.s, state.c, state.f))


def test_beta_sweep_curve():
    grid = np.geomspace(0.1, 100.0, 12)
    curve = thermo_curve(COEFFS, "beta", grid, fixed_lambda=1.0)
    assert curve.errors == []
    assert curve.sweep == "beta"
    # every level energy on [0, 1] is <= 0, so Z grows with beta
    assert np.all(np.diff(curve.z) > 0.0)
    assert np.all(curve.c >= 0.0)
    # F = U - TS pointwise
    np.testing.assert_allclose(curve.f, curve.u - curve.s / grid, rtol=1e-9, atol=1e-12)


def test_lambda_sweep_curve():
    grid = np.linspace(1.0, 50.0, 15)
    curve = thermo_curve(COEFFS, "lambda", grid, fixed_beta=0.5)
    assert curve.errors == []
    assert curve.sweep == "lambda"
    assert np.all(np.diff(curve.z) > 0.0)  # growing domain, positive integrand
    assert np.all(curve.c >= 0.0)


def test_curve_rejects_bad_sweep_requests():
    with pytest.raises(DomainError):
        thermo_curve(COEFFS, "beta", np.array([1.0]))  # fixed_lambda missing
    with pytest.raises(DomainError):
        thermo_curve(COEFFS, "lambda", np.array([1.0]))  # fixed_beta missing
    with pytest.raises(DomainError):
        thermo_curve(COEFFS, "temperature", np.array([1.0]), fixed_lambda=1.0)
    with pytest.raises(DomainError):
        thermo_curve(COEFFS, "beta", np.empty(0), fixed_lambda=1.0)


def test_curve_records_per_point_failures():
    # beta = 0 leaves F undefined; the point is flagged and the sweep goes on
    grid = np.array([0.0, 1.0])
    curve = thermo_curve(COEFFS, "beta", grid, fixed_lambda=1.0)
    assert len(curve.errors) == 1 and curve.errors[0][0] == 0
    assert math.isnan(curve.f[0]) and math.isfinite(curve.f[1])
    assert curve.z[0] == pytest.approx(1.0, rel=1e-12)  # Z(beta=0) = lambda


def _assert_columns_match_states(curve, inputs):
    for i, inp in enumerate(inputs):
        state = thermo_state(inp)
        assert (curve.z[i], curve.u[i], curve.s[i], curve.c[i]) == (
            state.z, state.u, state.s, state.c
        )
        if state.f is None:
            assert math.isnan(curve.f[i])
        else:
            assert curve.f[i] == state.f


def test_curve_columns_equal_thermo_state():
    # thermo_state is the sweep kernel's one-point call: bit-identical,
    # beta = 0 included
    betas = np.array([0.0, 0.5, 1.0, 10.0])
    curve = thermo_curve(COEFFS, "beta", betas, fixed_lambda=0.9)
    _assert_columns_match_states(curve, [ThermoInput(COEFFS, 0.9, b) for b in betas])
    assert [i for i, _ in curve.errors] == [0]
    lams = np.array([0.5, 3.0, 40.0])
    curve = thermo_curve(COEFFS, "lambda", lams, fixed_beta=2.0)
    _assert_columns_match_states(curve, [ThermoInput(COEFFS, lam, 2.0) for lam in lams])
    assert curve.errors == []


@pytest.mark.parametrize("k", [math.nan, math.inf, -1.0, 0.0])
def test_bad_boltzmann_constant_is_a_domain_error(k):
    # a NaN, infinite or non-positive k would give NaN, infinite or negative
    # S and C with no error recorded
    for beta in (0.5, 1.0):
        with pytest.raises(DomainError, match="k_boltzmann must be finite and > 0"):
            thermo_state(ThermoInput(COEFFS, 1.0, beta), k)
    with pytest.raises(DomainError, match="k_boltzmann must be finite and > 0"):
        thermo_curve(COEFFS, "beta", np.array([0.5, 1.0]), fixed_lambda=1.0, k=k)
    with pytest.raises(DomainError, match="k_boltzmann must be finite and > 0"):
        thermo_curve(COEFFS, "lambda", np.array([1.0, 2.0]), fixed_beta=0.5, k=k)


def _curve_bytes(curve):
    return [getattr(curve, name).tobytes() for name in ("grid", "z", "u", "s", "f", "c")]


def test_numpy_inputs_run_as_floats_with_the_same_bits():
    inp = ThermoInput(COEFFS, np.float64(2.0), np.float64(0.5))
    assert type(inp.lam) is float and type(inp.beta) is float
    with pytest.raises(TypeError):
        ThermoInput(COEFFS, "2", 1.0)
    betas = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 15)))
    lams = np.geomspace(1e-6, 700.0, 15)
    # beta = 0 leaves F undefined: one error on the beta sweep
    for sweep, grid, fixed, failed in (("beta", betas, 20.0, [0]), ("lambda", lams, 0.7, [])):
        key = "fixed_lambda" if sweep == "beta" else "fixed_beta"
        numpy_curve = thermo_curve(COEFFS, sweep, grid, **{key: np.float64(fixed)})
        float_curve = thermo_curve(COEFFS, sweep, grid.tolist(), **{key: fixed})
        assert type(getattr(numpy_curve, key)) is float
        assert _curve_bytes(numpy_curve) == _curve_bytes(float_curve)
        assert numpy_curve.errors == float_curve.errors
        assert [i for i, _ in numpy_curve.errors] == failed


def _recording_kernel(monkeypatch):
    """Record (lam, beta) of every call of the closed-form kernel."""
    calls = []
    kernel = thermo._closed_form

    def recording(coeffs, lam, beta, k):
        calls.append((lam, beta))
        return kernel(coeffs, lam, beta, k)

    monkeypatch.setattr(thermo, "_closed_form", recording)
    return calls


def test_inputs_reach_the_kernel_as_float64_arrays(monkeypatch):
    # lists, ints and numpy scalars of any float width run as one float64
    # array per sweep, with the same bits as floats
    calls = _recording_kernel(monkeypatch)
    values = [1, 2, 5, 20, 100]
    for sweep, key in (("beta", "fixed_lambda"), ("lambda", "fixed_beta")):
        curves = [thermo_curve(COEFFS, sweep, grid, **{key: fixed}) for grid, fixed in (
            (values, 2), ([float(v) for v in values], 2.0), (np.array(values), np.int64(2)),
            (np.array(values, dtype=np.float32), np.float32(2.0)),
            (np.array(values, dtype=np.float64), np.float64(2.0)))]
        for curve in curves:
            assert type(getattr(curve, key)) is float
            assert _curve_bytes(curve) == _curve_bytes(curves[0])
            assert curve.errors == []
    state = thermo_state(ThermoInput(COEFFS, np.float32(2.0), 1))
    assert state == thermo_state(ThermoInput(COEFFS, 2.0, 1.0))
    assert len(calls) == 12
    for lam, beta in calls:
        assert type(lam) is np.ndarray and type(beta) is np.ndarray
        assert lam.dtype == beta.dtype == np.float64
        assert lam.shape == beta.shape


@pytest.mark.parametrize("size", [1, 2, 20, 500])
def test_curve_calls_the_kernel_once_per_sweep(monkeypatch, size):
    # the whole grid goes through the kernel in one call, whatever its length
    calls = _recording_kernel(monkeypatch)
    thermo_curve(COEFFS, "beta", np.geomspace(0.1, 100.0, size), fixed_lambda=20.0)
    thermo_curve(COEFFS, "lambda", np.linspace(1.0, 100.0, size), fixed_beta=1.0)
    assert [lam.size for lam, _ in calls] == [size, size]


def test_curve_records_failures_at_exactly_their_points():
    # NaN, negative and infinite grid values fail with ThermoInput's messages
    # at their own indices only; the other points are computed as alone
    bad = [math.nan, -1.0, math.inf]
    lams = np.array([0.5] + bad + [1.0, 40.0])
    curve = thermo_curve(COEFFS, "lambda", lams, fixed_beta=2.0)
    assert curve.errors == [(1 + i, f"lambda must be finite and > 0, got {v!r}")
                            for i, v in enumerate(bad)]
    betas = np.array([0.0] + bad + [0.5, 10.0])
    curve_b = thermo_curve(COEFFS, "beta", betas, fixed_lambda=1.0)
    assert curve_b.errors == [(0, "F undefined at beta = 0")] + [
        (1 + i, f"beta must be finite and >= 0, got {v!r}") for i, v in enumerate(bad)]
    for curve, inputs in ((curve, [ThermoInput(COEFFS, lam, 2.0) for lam in lams[[0, 4, 5]]]),
                          (curve_b, [ThermoInput(COEFFS, 1.0, b) for b in betas[[0, 4, 5]]])):
        for name in "zusfc":
            assert np.isnan(getattr(curve, name)[1:4]).all()
        good = replace(curve, z=curve.z[[0, 4, 5]], u=curve.u[[0, 4, 5]], s=curve.s[[0, 4, 5]],
                       f=curve.f[[0, 4, 5]], c=curve.c[[0, 4, 5]])
        _assert_columns_match_states(good, inputs)
    # a bad fixed value fails every point
    curve = thermo_curve(COEFFS, "beta", [0.5, 1.0], fixed_lambda=-1.0)
    assert curve.errors == [(i, "lambda must be finite and > 0, got -1.0") for i in (0, 1)]
    assert np.isnan(curve.u).all()
    # q2 < 0 fails every valid point, and thermo_state raises it
    message = "closed-form thermodynamics needs q2 >= 0, got -0.5"
    curve = thermo_curve(replace(COEFFS, q2=-0.5), "lambda", [1.0, math.nan, 2.0], fixed_beta=1.0)
    assert curve.errors == [(0, message), (1, "lambda must be finite and > 0, got nan"),
                            (2, message)]
    assert np.isnan(curve.z).all() and np.isnan(curve.c).all()
    with pytest.raises(DomainError, match="needs q2 >= 0"):
        thermo_state(ThermoInput(replace(COEFFS, q2=-0.5), 1.0, 1.0))


def _phi(coeffs, rho):
    return rho**2 + coeffs.q3**2 / rho**2


def test_one_grid_across_every_branch_equals_its_points(monkeypatch):
    # a lambda sweep from the Gauss-Legendre window (lambda <= delta/4) through
    # the power series, dawson's Taylor series and the asymptotic series of h,
    # t = 0 at lambda = 1 (rho = sqrt(|q3|) = 2) and beta = 0: each point is
    # the kernel's one-point call, bit for bit
    seen = set()
    h = thermo._h

    def spy(a, t):
        w = a * t * t
        seen.update(np.where(w < 1.0, 0, np.where(w < 81.0, 1, 2)).tolist())
        return h(a, t)

    lams = np.concatenate((np.geomspace(0.01, 100.0, 40), [1.0, 250.0]))
    beta = 1.0
    window = [lam <= 0.25 * COEFFS.delta and beta * COEFFS.q2 * abs(
        _phi(COEFFS, COEFFS.delta + lam) - _phi(COEFFS, COEFFS.delta)) <= 2.0 for lam in lams]
    assert 0 < sum(window) < len(lams)
    monkeypatch.setattr(thermo, "_h", spy)
    curve = thermo_curve(COEFFS, "lambda", lams, fixed_beta=beta)
    monkeypatch.undo()
    assert seen == {0, 1, 2} and curve.errors == []
    _assert_columns_match_states(curve, [ThermoInput(COEFFS, lam, beta) for lam in lams])
    betas = np.concatenate(([0.0], np.geomspace(1e-4, 1e4, 30)))
    curve = thermo_curve(COEFFS, "beta", betas, fixed_lambda=0.2)
    assert [i for i, _ in curve.errors] == [0]
    _assert_columns_match_states(curve, [ThermoInput(COEFFS, 0.2, b) for b in betas])


# ---------------------------------------------------- closed form against mpmath

# (lambda, beta) on UNIT_YUKAWA where the former moment quadrature raised
# NumericalError, and the point it took ~3 s on
FORMER_FAILURES = ((1e-9, 1.0), (700.0, 1e4), (5000.0, 100.0), (700.0, 1000.0))
FORMER_SLOW = (700.0, 69.5)


def _domain_coeffs(rng, l, q3):
    """Coefficients at angular momentum l and the given Q3, with alpha
    log-uniform in [0.01, 0.25] and |x1|, |x2| <= 0.05."""
    alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.25)))
    x1, x2 = rng.uniform(-0.05, 0.05, 2)
    x3 = x2 + l * (l + 1) - q3
    params = PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, x3 * alpha / 2, alpha)
    return spectral_coefficients(params, CONSTS, l)


def _switch_points():
    """Seeded (coeffs, lambda, beta) just below and just above each switch:
    z^2 = a t^2 at 1 and 81 for t = x or y at the peak end, lambda at delta/4,
    and the window's depth at two e-folds, the last two also on windows
    around phi's minimum at rho = sqrt(b).  "deep" windows hold that minimum
    40 e-folds down, with both ends at the same height."""
    rng = np.random.default_rng(11)
    points = []
    for switch, around_min in (("z=1", False), ("z=9", False), ("window", False),
                               ("window", True), ("efolds", False), ("efolds", True),
                               ("deep", True)):
        for side in (-1e-9, 1e-9):
            coeffs = _domain_coeffs(rng, int(rng.integers(0, 4)), rng.uniform(-100.0, 20.0))
            r0 = coeffs.delta
            if switch.startswith("z="):
                lam = float(rng.choice([1.0, 20.0, 100.0]))
            else:
                lam = 0.25 * r0 * (1.0 + side if switch == "window" else rng.uniform(0.01, 1.0))
            if around_min:
                # phi(r0) = phi(r1) where r0 r1 = b
                centre = (math.sqrt(r0 * (r0 + lam)) if switch == "deep"
                          else r0 + rng.uniform(0.05, 0.95) * lam)
                coeffs = replace(coeffs, q3=-centre * centre)
            b, r1 = abs(coeffs.q3), r0 + lam
            r = r1 if r0 * r1 >= b else r0  # the end where phi peaks
            if switch.startswith("z="):
                t = r + b / r if rng.uniform() < 0.5 else r - b / r
                z2 = 1.0 if switch == "z=1" else 81.0
                beta = z2 * (1.0 + side) / (t * t * coeffs.q2)
            else:
                drop = abs((r1 * r1 - r0 * r0) * (1.0 - b * b / (r0 * r1) ** 2))
                depth = (r - b / r) ** 2 if around_min else drop
                efolds = {"window": rng.uniform(0.1, 2.0), "efolds": 2.0 * (1.0 + side),
                          "deep": 40.0}[switch]
                beta = efolds / (depth * coeffs.q2)
            name = switch + ("-around-min" if around_min else "")
            points.append(pytest.param(coeffs, lam, beta, id=f"{name}{side:+.0e}"))
    return points


@pytest.mark.parametrize(
    "coeffs, lam, beta",
    [pytest.param(COEFFS, lam, beta, id=f"lam{lam:g}-beta{beta:g}")
     for lam, beta in FORMER_FAILURES + (FORMER_SLOW,)]
    + [pytest.param(COEFFS, 1.0, 0.0, id="beta0"), pytest.param(COEFFS, 7.5, 0.0, id="beta0-7.5"),
       pytest.param(replace(COEFFS, q2=0.0), 3.0, 0.8, id="q2=0")]
    + _switch_points(),
)
def test_closed_form_matches_mpmath(coeffs, lam, beta):
    state = thermo_state(ThermoInput(coeffs, lam, beta))
    ln_z, u, c = _mp_thermo(coeffs, lam, beta)
    assert abs(state.ln_z - ln_z) <= 1e-13 * max(1.0, abs(ln_z))
    assert abs(state.u - u) <= 1e-12 * abs(u)
    if c == 0.0:
        assert state.c == 0.0
    else:
        assert abs(state.c - c) <= 1e-9 * c


def _h_at(a, t):
    """(h, h', h'') at each (a, t) by one call of the array kernel, as floats."""
    return tuple(np.asarray(thermo._h(np.asarray(a, dtype=float), np.asarray(t, dtype=float))))


@pytest.mark.parametrize("a", [0.0, 1e-4, 0.3, 50.0])
@pytest.mark.parametrize("z", [0.5, 1.0 - 1e-12, 1.0 + 1e-12, 7.0, 9.0 - 1e-12, 9.0 + 1e-12, 40.0])
def test_dawson_branches_match_mpmath(a, z):
    # h(a, t) = int_0^t e^{a (s^2 - t^2)} ds and its a-derivatives; the
    # closed-form derivatives through dawsn cancel z^2 and z^4 times near z = 9
    t = z / math.sqrt(a) if a > 0.0 else z
    with mpmath.workdps(40):
        am, tm = mpmath.mpf(a), mpmath.mpf(t)
        split = tm * (1 - 1 / (4 * am * tm * tm + 1))  # start of the layer at t
        want = [mpmath.quad(lambda s: (s * s - tm * tm) ** m * mpmath.exp(am * (s * s - tm * tm)),
                            [0, split, tm]) for m in range(3)]
    got = _h_at([a, a], [t, -t])
    for value, ref, tol in zip(got, want, (1e-15, 2e-13, 1e-11)):
        assert abs(value[0] - float(ref)) <= tol * abs(float(ref))
        assert value[1] == -value[0]  # h is odd in t


def _mp_dawson(x):
    """Dawson's integral F(x) = sqrt(pi)/2 e^{-x^2} erfi(x) in 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)


def test_dawson_anchors_are_correctly_rounded():
    anchors = thermo._DAWSON_ANCHORS
    assert len(anchors) == 65 and thermo._DAWSON_STEP == 8  # 1, 1 + 1/8, ..., 9
    for j, f in enumerate(anchors):
        assert f == float(_mp_dawson(mpmath.mpf(1) + mpmath.mpf(j) / 8)), j


def test_dawson_matches_mpmath_and_scipy():
    # at a = 1, h(1, x) is dawson(x) itself: |F - F_40 digits| <= 4e-16 F,
    # under 2 ulp, on random points of the Taylor branch, the midpoints
    # 1 + (j + 1/2)/8 between its anchors (the farthest from them) and both
    # sides of z^2 = 1 and 81, where the power and asymptotic series take
    # over; scipy's dawsn is a second reference, itself good to about 6e-16
    from scipy.special import dawsn

    edges = [v for c in (1.0, 9.0) for v in (math.nextafter(c, 0.0), c, math.nextafter(c, 10.0),
                                             c - 1e-12, c + 1e-12)]
    xs = np.concatenate((np.random.default_rng(26).uniform(1.0, 9.0, 3000),
                         1.0 + (np.arange(64) + 0.5) / 8, edges))
    got = _h_at(np.ones(xs.size), xs)[0]
    worst = max(float(abs((f - ref) / ref))
                for f, ref in zip(got.tolist(), map(_mp_dawson, xs.tolist())))
    assert worst <= 4e-16
    assert np.max(np.abs(got - dawsn(xs)) / got) <= 1e-15


def _rounded_past_the_end(rng, edge, count):
    """count (a, t) with 1 <= a t^2 < 81, the Taylor branch, where z = sqrt(a) t
    rounds past edge: under 1, or to 9 or over.  t steps into the branch from
    a few ulp outside it and stops at the first t inside."""
    pairs = []
    inward, outward = (math.inf, 0.0) if edge == 1.0 else (0.0, math.inf)
    while len(pairs) < count:
        a = math.exp(rng.uniform(math.log(1e-4), math.log(50.0)))
        t = edge / math.sqrt(a)
        for _ in range(3):
            t = math.nextafter(t, outward)
        while not 1.0 <= a * t * t < 81.0:
            t = math.nextafter(t, inward)
        if not 1.0 <= math.sqrt(a) * t < 9.0:
            pairs.append((a, t))
    return pairs


def test_dawson_end_anchors_and_odd_symmetry():
    assert _h_at([1.0], [1.0])[0][0] == thermo._DAWSON_ANCHORS[0]
    # z = sqrt(a) t may round just past either end of the branch 1 <= z^2 < 81
    rng = np.random.default_rng(27)
    a, t = np.array(_rounded_past_the_end(rng, 1.0, 20) + _rounded_past_the_end(rng, 9.0, 20)).T
    got = _h_at(a, t)[0]
    for a_i, t_i, h_i in zip(a.tolist(), t.tolist(), got.tolist()):
        ref = _mp_dawson(mpmath.sqrt(mpmath.mpf(a_i)) * t_i) / mpmath.sqrt(mpmath.mpf(a_i))
        assert float(abs((h_i - ref) / ref)) <= 6e-16, (a_i, t_i)
    # h and its derivatives are odd in t, bit for bit, on the Taylor branch
    a = np.exp(rng.uniform(math.log(1e-4), math.log(50.0), 200))
    t = np.sqrt(rng.uniform(1.0, 81.0, 200) / a)
    for plus, minus in zip(_h_at(a, t), _h_at(a, -t)):
        assert np.array_equal(minus, -plus)


def _scalar_h(a, t):
    """h, h' and h'' at one (a, t) by one branch's Horner loop on floats: the
    scalar coding the array kernel replaced, kept as its reference."""
    w = a * t * t
    table = thermo._HORNER
    if 1.0 <= w < 81.0:
        root = math.sqrt(a)
        z = root * t
        x = abs(z)
        j = int((x - 1.0) * 8 + 0.5)
        f = 0.0
        for c in table[9:, 0, j].tolist():
            f = f * (x - (1.0 + j / 8)) + c
        f = f if z >= 0.0 else -f
        return (f / root, (z - (2.0 * w + 1.0) * f) / (2.0 * a * root),
                (f * (4.0 * w * w + 4.0 * w + 3.0) - z * (2.0 * w + 3.0)) / (4.0 * a * a * root))
    series = w < 1.0
    x = w if series else 0.5 / w
    p = [0.0, 0.0, 0.0]
    for row in (table[:, :, -2] if series else table[4:, :, -1]).tolist():
        p = [p_m * x + c for p_m, c in zip(p, row)]
    if series:
        return t * p[0], t * (t * t) * p[1], t * (t * t) * (t * t) * p[2]
    g = 0.5 / (a * t)
    return g * p[0], -g * p[1] / a, g * p[2] / (a * a)


def test_h_equals_the_scalar_loop_bit_for_bit():
    # every branch, both signs of t, a = 0, t = 0 and both sides of each switch
    rng = np.random.default_rng(35)
    a = np.exp(rng.uniform(math.log(1e-6), math.log(1e3), 3000))
    t = np.sqrt(np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 3000)) / a)
    t[::2] *= -1.0
    edges = [(0.3, math.sqrt(w / 0.3)) for w in (1.0, 81.0)]
    edges = [(a_i, s * t_i) for a_i, t_i in edges for s in (1.0, -1.0)] + [
        (a_i, math.nextafter(t_i, 0.0)) for a_i, t_i in edges] + [(0.0, 2.5), (1.7, 0.0)]
    a = np.concatenate((a, [e[0] for e in edges]))
    t = np.concatenate((t, [e[1] for e in edges]))
    got = _h_at(a, t)
    for i, (a_i, t_i) in enumerate(zip(a.tolist(), t.tolist())):
        assert tuple(row[i] for row in got) == _scalar_h(a_i, t_i), (a_i, t_i)


def _benchmark_domain_points(seed, potentials):
    """(coeffs, lambda, beta) over the thermo-sweep benchmark's domain: alpha
    log-uniform in [0.01, 0.25], |x1|, |x2| <= 0.05, l <= 3, Q3 log-uniform
    in [-100, -0.1] or [0.1, 20] by turns, and per potential one of five beta
    sweeps at fixed lambda or four lambda sweeps at fixed beta."""
    betas = np.geomspace(0.1, 100.0, 20)
    lams = np.linspace(1.0, 100.0, 34)
    sweeps = ([(lam, betas) for lam in (1.0, 5.0, 20.0, 100.0, 700.0)]
              + [(lams, beta) for beta in (0.1, 1.0, 10.0, 100.0)])
    rng = np.random.default_rng(seed)
    for i in range(potentials):
        if i // 4 % 2 == 0:
            q3 = -math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        else:
            q3 = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
        coeffs = _domain_coeffs(rng, i % 4, q3)
        lam_grid, beta_grid = sweeps[i % len(sweeps)]
        for lam, beta in np.broadcast(lam_grid, beta_grid):
            yield coeffs, float(lam), float(beta)


def test_quadrature_routes_check_flags_closed_form_off_its_reference(monkeypatch):
    # check 08's escalated branch, where 4 eps |ln Z| > 1e-10: a closed-form
    # ln Z off by a relative 1e-13 there must fail against the 40-digit reference
    real = thermo.thermo_state

    def skewed(inp, k=1.0):
        state = real(inp, k)
        if 4.0 * np.finfo(float).eps * abs(state.ln_z) > 1e-10:
            state = replace(state, ln_z=state.ln_z * (1.0 + 1e-13))
        return state

    monkeypatch.setattr(thermo, "thermo_state", skewed)
    result = check_quadrature_routes()
    assert not result.passed
    drift = next(part for part in result.detail.split("; ") if "40-digit drift" in part)
    assert drift.endswith("(fails <= 1)")


def test_closed_form_agrees_with_direct_route_on_benchmark_domain():
    # the thermo-sweep benchmark compares ln Z with log_partition_direct at
    # 1e-10 and recomputes every miss in 40-digit arithmetic; a miss here is
    # a slow and failed benchmark point.  U and C are held against the same
    # route's first and second moments.
    points = list(_benchmark_domain_points(2, 81))
    assert len(points) >= 2000
    misses = []
    for coeffs, lam, beta in points:
        inp = ThermoInput(coeffs, lam, beta)
        state = thermo_state(inp)
        assert state.c >= 0.0, (coeffs, lam, beta)
        ln_z, u, c = thermo_direct(inp)
        assert abs(state.u - u) <= 1e-12 * max(1.0, abs(u)), (coeffs, lam, beta)
        assert abs(state.c - c) <= 1e-9 * c, (coeffs, lam, beta)
        gap = state.ln_z - ln_z
        if not abs(math.expm1(gap)) <= 1e-10:
            misses.append((coeffs, lam, beta, gap))
    assert misses == []
    # the benchmark's oracle is the S0 integral alone, bit for bit
    for coeffs, lam, beta in points[::500]:
        inp = ThermoInput(coeffs, lam, beta)
        assert thermo_direct(inp)[0] == log_partition_direct(inp)


def test_thermo_domain_sweep():
    # seeded sweep over lambda in [1e-9, 1e4] and beta in {0} U [1e-6, 1e4],
    # alpha in [0.01, 0.5], a3 in [0.1, 100], |x1|, |x2| <= 0.05, l <= 3: no
    # MreyError, C >= 0, F = U - S/beta, and ln Z non-decreasing in lambda
    # (not rising: it stays flat in doubles once the added stretch weighs
    # under an ulp of Z).  thermo_direct covers every point: U and C hold to
    # check 07's limits and ln Z to 1e-10 on Z, or to its round-off floor
    # 4 eps |ln Z| where that floor is above 1e-10.  At lambda = 1e4 the
    # Boltzmann layer at n = lambda is 4e-7 to 5e-6 wide while doubles there
    # are 1.8e-12 apart; integrated in n, QUADPACK's estimate for S0 stalled
    # at 2e-10 to 1.4e-8 of it at three points, while in u = |n - n_ref| the
    # layer sits at u = 0.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    lams = np.geomspace(1e-9, 1e4, 9)
    for _ in range(20):
        alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.5)))
        a3 = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
        x1, x2 = rng.uniform(-0.05, 0.05, 2)
        params = PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, a3, alpha)
        coeffs = spectral_coefficients(params, CONSTS, int(rng.integers(0, 4)))
        betas = [0.0] + list(np.exp(rng.uniform(math.log(1e-6), math.log(1e4), 5)))
        for beta in betas:
            inputs = [ThermoInput(coeffs, float(lam), beta) for lam in lams]
            states = [thermo_state(inp) for inp in inputs]
            ln_z = [state.ln_z for state in states]
            assert all(b >= a for a, b in zip(ln_z, ln_z[1:])), (params, beta, ln_z)
            for inp, state in zip(inputs, states):
                where = (params, inp.lam, beta)
                assert state.c >= 0.0, where
                if beta > 0.0:
                    gap = abs(state.f - (state.u - state.s / beta))
                    assert gap <= 1e-9 * max(1.0, abs(state.f)), where
                ln_z_direct, u, c = thermo_direct(inp)
                assert abs(state.u - u) <= 1e-9 * max(1.0, abs(state.u)), where
                assert abs(state.c - c) <= 1e-6 * max(abs(state.c), 1e-300), where
                diff = state.ln_z - ln_z_direct
                floor = 4.0 * eps * abs(ln_z_direct)
                if floor <= 1e-10:
                    assert abs(math.expm1(diff)) <= 1e-10, where
                else:
                    assert abs(diff) <= floor, where
