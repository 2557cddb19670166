"""Parametric NU machinery: derived constants, quantization condition, oracle.

The hand values here were worked out from the c4..c13 definitions with
c1 = c2 = c3 = 1; they pin the arithmetic independently of the physics
modules that consume it.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from mrey import (
    ComplexBranchError,
    DomainError,
    NoRootError,
    NumericalError,
    PhysicalConstants,
    PotentialParams,
)
from mrey import nu
from mrey.nu import solve_bound_state
from mrey.potential import _couplings, xi_squared
from mrey.spectrum import energy

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
UNIT_YUKAWA = PotentialParams(0.0, 0.0, 1.0, 0.5)


def _xi(xi1, xi2, xi3):
    """(xi1, xi2, xi3) as the addend tuples the float helpers take."""
    return (xi1,), (xi2, 0.0, 0.0), (xi3, 0.0)


def test_derived_constants_hand_case():
    # xi^2 = 1, x1 = x2 = x3 = 0, l = 0 in the screened-well mapping:
    # xi1 = 1, xi2 = 2, xi3 = 1, so c6 = 1.25, c7 = -2, c10 = 3, c11 = 5,
    # c12 = 1 and c13 = -2
    xi = nu._screened_xi(0.0, 0.0, 0.0, 0.0, 1.0)
    assert nu._constants(1.0, 1.0, 1.0, *xi) == (0.0, -0.5, 1.0, 0.25, 1.0, 0.5)
    # (c12, -c12 - c13/c3, c10 - 1, c11/c3 - c10 - 1)
    assert nu._wave_shape(1.0, 1.0, 1.0, *xi) == (1.0, 1.0, 2.0, 1.0)


def test_derived_constants_zero_case():
    assert nu._constants(1.0, 1.0, 1.0, *_xi(0.0, 0.0, 0.0)) == (0.0, -0.5, 0.0, 0.25, 0.0, 0.5)


def test_derived_constants_general_inputs():
    # c4 and c5 are plain linear combinations; spot-check at c1, c2, c3 != 1
    c4, c5, *_ = nu._constants(0.5, 2.0, 3.0, *_xi(0.1, 0.2, 0.3))
    assert c4 == pytest.approx(0.25, rel=1e-15)
    assert c5 == pytest.approx(-2.0, rel=1e-15)


def test_c9_internal_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c1, c2, c3 = rng.uniform(-2.0, 2.0, size=3)
        xi1, xi2, xi3 = rng.uniform(0.0, 3.0, size=3)
        try:
            c4, c5, c8, c9, *_ = nu._constants(c1, c2, c3, *_xi(xi1, xi2, xi3))
        except ComplexBranchError:
            continue
        assert (c4, c5) == (0.5 * (1.0 - c1), 0.5 * (c2 - 2.0 * c3))
        assert c8 == pytest.approx(c4 * c4 + xi3, rel=1e-15)
        rhs = c3 * (2.0 * c4 * c5 - xi2) + c3 * c3 * (c4 * c4 + xi3) + (c5 * c5 + xi1)
        assert c9 == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_c9_is_summed_exactly():
    # with c1 = c2 = c3 = 1 the screened xi^2 cancels out of
    # c9 = 1/4 - x1 - x2 + l(l+1): at xi^2 = 1e20 a rounded c9 would be 0 or
    # off by ~1e4, the exact sum is the float nearest 1/4 - x1 - x2 + 6
    x1, x2, x3 = 0.0123, -0.0456, 2e10
    xi = nu._screened_xi(x1, x2, x3, 6.0, 1e20)
    c9 = nu._constants(1.0, 1.0, 1.0, *xi)[3]
    assert c9 == float(mpmath.mpf(0.25) - mpmath.mpf(x1) - mpmath.mpf(x2) + 6)


def test_complex_branch_reported():
    # xi3 < -c4^2 forces c8 < 0
    with pytest.raises(ComplexBranchError) as info:
        nu._constants(1.0, 1.0, 1.0, *_xi(0.0, 0.0, -1.0))
    assert info.value.c8 == -1.0


def test_residual_zero_xi_hand_value():
    assert nu._residual(1.0, 1.0, 1.0, *_xi(0.0, 0.0, 0.0), 0) == 1.0


def test_residual_vanishes_at_closed_form_energy():
    # only strictly valid levels sit on the branch the printed condition
    # quantizes; invalid rows are formula values with no residual root
    params = PotentialParams(0.01, 0.005, 5.0, 0.5)
    exercised = 0
    for n in range(4):
        for l in range(3):
            level = energy(params, CONSTS, n, l)
            if not level.valid_bound_state:
                continue
            xi = nu._mrey_xi(params, CONSTS, float(l * (l + 1)), level.energy)
            assert abs(nu._residual(1.0, 1.0, 1.0, *xi, n)) < 1e-9
            exercised += 1
    assert exercised >= 4


def test_residual_monotone_in_binding():
    # at fixed n the residual grows with xi^2 (the sqrt(c8) coefficient is
    # 2n + 1 + 2 sqrt(c9) > 0), which is what makes the bracketing solver safe
    e_grid = -np.linspace(0.01, 2.0, 30)
    residuals = [nu._residual(1.0, 1.0, 1.0, *nu._mrey_xi(UNIT_YUKAWA, CONSTS, 0.0, e), 1)
                 for e in e_grid]
    assert all(b > a for a, b in zip(residuals, residuals[1:]))


def test_wave_shape_matches_spectral_exponents():
    params = PotentialParams(0.01, 0.02, 1.2, 0.5)
    level = energy(params, CONSTS, 0, 1)
    xi = nu._mrey_xi(params, CONSTS, 2.0, level.energy)  # l(l+1) = 2
    beta, zeta, jacobi_a, jacobi_b = nu._wave_shape(1.0, 1.0, 1.0, *xi)
    _, x1, x2, _ = _couplings(params, CONSTS)
    expected = 0.5 + math.sqrt(0.25 + 2.0 - x1 - x2)
    assert zeta == pytest.approx(expected, rel=1e-12)
    assert jacobi_b == pytest.approx(2.0 * (expected - 0.5), rel=1e-12)
    assert beta == pytest.approx(math.sqrt(xi_squared(params, CONSTS, level.energy) + 2.0),
                                 rel=1e-12)
    assert jacobi_a == pytest.approx(2.0 * beta, rel=1e-12)


def test_wave_shape_zero_case():
    # c10 = 1, c11 = 3 here, so jacobi_b = c11/c3 - c10 - 1 = 1
    # (equivalently 2 sqrt(1/4) via the screened-well identity)
    assert nu._wave_shape(1.0, 1.0, 1.0, *_xi(0.0, 0.0, 0.0)) == (0.0, 1.0, 0.0, 1.0)


def test_oracle_finds_anchor_root():
    root = solve_bound_state(UNIT_YUKAWA, CONSTS, 0, 0)
    assert root == pytest.approx(-0.28125, abs=1e-11)


def test_oracle_free_case_has_no_root():
    # with all couplings zero the formula still evaluates (E0 = -0.03125) but
    # u = -0.5 < 0: the value lies on the non-normalizable branch and the
    # quantization residual never crosses zero, matching the physics (a free
    # particle binds nothing)
    message = r"^no bound state for n=0, l=0: residual 1 at E=0$"
    with pytest.raises(NoRootError, match=message):
        solve_bound_state(PotentialParams(0.0, 0.0, 0.0, 0.5), CONSTS, 0, 0)


def test_bracket_free_solver_matches_closed_form():
    deep = PotentialParams(0.0, 0.0, 5.0, 0.5)
    for n in range(4):
        for l in range(3):
            level = energy(deep, CONSTS, n, l)
            if not level.valid_bound_state:
                continue
            found = solve_bound_state(deep, CONSTS, n, l)
            assert found == pytest.approx(level.energy, rel=1e-10)


def test_bracket_free_solver_reports_unbound():
    message = r"^no bound state for n=3, l=0: residual 15\.96 at E=0$"
    with pytest.raises(NoRootError, match=message):
        solve_bound_state(PotentialParams(0.0, 0.0, 0.01, 0.5), CONSTS, 3, 0)


def _brentq_root(params, n, l):
    """The oracle's bracket and residual, solved by scipy's brentq."""
    h2a2, x1, x2, x3 = _couplings(params, CONSTS)
    ll1 = float(l * (l + 1))

    def residual(xi_sq):
        return nu._residual(1.0, 1.0, 1.0, *nu._screened_xi(x1, x2, x3, ll1, xi_sq), n)

    hi = max(1.0, ((x1 + x3) / (2.0 * n + 1.0)) ** 2)
    assert residual(0.0) < 0.0 < residual(hi)
    root = brentq(
        residual, 0.0, hi,
        xtol=nu._BRENTQ_XTOL, rtol=nu._BRENTQ_RTOL, maxiter=nu._BRENTQ_MAXITER,
    )
    return -float(root) * (h2a2 / (2.0 * CONSTS.mu))


def _mp_energy(params, n, l):
    """The closed-form level E = Q1 - Q2 (rho + Q3/rho)^2 in 50 digits, from
    the exact values of the float parameters (hbar = mu = 1)."""
    with mpmath.workdps(50):
        a1, a2, a3, alpha = (mpmath.mpf(v) for v in (params.a1, params.a2, params.a3,
                                                     params.alpha))
        x1, x2, x3, ll1 = 2 * a1 / alpha**2, 2 * a2 / alpha**2, 2 * a3 / alpha, l * (l + 1)
        rho = n + (1 + mpmath.sqrt(1 + 4 * ll1 - 4 * x1 - 4 * x2)) / 2
        return alpha**2 * ll1 / 2 - alpha**2 / 8 * (rho + (x2 - x3 + ll1) / rho) ** 2


# xi^2 = 3.2e7; the oracle was 8.6e-9 off here while c9 was rounded
DOCSTRING_LEVEL = (PotentialParams(1.3038747019433676e-06, -2.993045207634939e-07,
                                   76.21960089335214, 0.01370259605402353), 0, 0)


def test_oracle_matches_50_digit_closed_form():
    # levels drawn by their xi^2, log-uniform in [1, 1e8]: the well depth
    # x3 = 2 rho sqrt(xi^2 + l(l+1)) + rho^2 + x2 + l(l+1) puts level (n, l)
    # there
    rng = np.random.default_rng(32)
    levels = [DOCSTRING_LEVEL]
    while len(levels) < 200:
        alpha = math.exp(rng.uniform(math.log(0.005), 0.0))
        x1, x2 = rng.uniform(-0.05, 0.05, size=2)
        n, l = int(rng.integers(0, 60)), int(rng.integers(0, 4))
        ll1 = l * (l + 1)
        rho = n + 0.5 + 0.5 * math.sqrt(1.0 + 4.0 * ll1 - 4.0 * x1 - 4.0 * x2)
        beta = math.sqrt(10.0 ** rng.uniform(0.0, 8.0) + ll1)
        x3 = 2.0 * rho * beta + rho * rho + x2 + ll1
        params = PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, x3 * alpha / 2, alpha)
        if energy(params, CONSTS, n, l).valid_bound_state:
            levels.append((params, n, l))
    largest_xi_sq = 0.0
    for params, n, l in levels:
        exact = _mp_energy(params, n, l)
        found = solve_bound_state(params, CONSTS, n, l)
        assert abs(float((found - exact) / exact)) <= 1e-13, (params, n, l)
        largest_xi_sq = max(largest_xi_sq, -2.0 * found / params.alpha**2)
    assert largest_xi_sq > 5e7


def test_oracle_evaluates_the_residual_once_at_zero(monkeypatch):
    # brentq over [0, hi] evaluates f(0) itself; the oracle hands its own
    # unbound test's f(0) to _brent, so it makes exactly brentq's evaluations,
    # one fewer than its unbound test plus brentq's, and finds brentq's root
    calls = []

    def counted(*args):
        calls.append(args)
        return residual(*args)

    residual = nu._residual
    monkeypatch.setattr(nu, "_residual", counted)
    rng = np.random.default_rng(26)
    levels = 0
    while levels < 100:
        alpha = rng.uniform(0.01, 0.5)
        a3 = math.exp(rng.uniform(math.log(0.5), math.log(500.0)))
        a1, a2 = rng.uniform(-0.05, 0.05, size=2) * alpha**2
        params = PotentialParams(float(a1), float(a2), a3, alpha)
        n, l = int(rng.integers(0, 30)), int(rng.integers(0, 4))
        if not energy(params, CONSTS, n, l).valid_bound_state:
            continue
        calls.clear()
        found = solve_bound_state(params, CONSTS, n, l)
        made = len(calls)
        calls.clear()
        expected = _brentq_root(params, n, l)  # its bracket check, then brentq
        assert made == len(calls) - 2, (params, n, l)
        assert found.hex() == expected.hex(), (params, n, l)
        levels += 1


def test_oracle_reports_complex_branch():
    # x1 = x2 = 1.6, x3 = 4 at l = 0: xi^2 = 0 gives c8 = 0, c9 = 2.65 - 5.6
    with pytest.raises(ComplexBranchError) as info:
        solve_bound_state(PotentialParams(0.2, 0.2, 1.0, 0.5), CONSTS, 0, 0)
    assert info.value.c8 == 0.0
    assert info.value.c9 == pytest.approx(-2.95, rel=1e-12)


@pytest.mark.parametrize(("n", "l", "message"), [
    (-1, 0, "n must be >= 0, got -1"),
    (0, 1.0, "l must be an integer, got 1.0"),
    # int(n) would quietly turn 1.5 into 1 and -0.5 into 0
    (1.5, 0, "n must be an integer, got 1.5"),
    (-0.5, 0, "n must be an integer, got -0.5"),
    (True, 0, "n must be an integer, got True"),
])
def test_oracle_rejects_bad_quantum_numbers(n, l, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        solve_bound_state(UNIT_YUKAWA, CONSTS, n, l)


def _logged(f):
    """f, and the list of float.hex of every point it is called at."""
    points = []

    def logged(x):
        points.append(x.hex())
        return f(x)

    return logged, points


def _brent_cases():
    """(f, a, b): a seeded generic family of brackets."""
    cases = [
        (lambda x: x - 0.3, 0.3, 2.0),  # exact zero at the lower end
        (lambda x: x - 0.3, -1.0, 0.3),  # exact zero at the upper end
        (lambda x: x * (2.0 + math.cos(x)), -0.7, 1.9),  # root at 0
    ]
    rng = np.random.default_rng(25)
    for _ in range(30):
        r = float(rng.uniform(-5.0, 5.0))
        width = 10.0 ** float(rng.uniform(-3.0, 2.0))
        a = r - width * float(rng.uniform(0.05, 3.0))
        b = r + width * float(rng.uniform(0.05, 3.0))
        if rng.uniform() < 0.5:
            a, b = b, a
        cases += [
            (lambda x, r=r: math.expm1(x - r) + 0.1 * (x - r), a, b),
            (lambda x, r=r: math.tanh(1e3 * (x - r)), a, b),  # steep
            (lambda x, r=r: 1e-8 * (x - r) * (1.0 + (x - r) ** 2), a, b),  # flat
            (lambda x, r=r: (x - r) ** 3, a, b),  # triple root: bisection steps
            # the extrapolation's denominator underflows to 0: a bisection
            (lambda x, r=r: 1e-300 * (x - r) * (1.0 + (x - r) ** 2), a, b),
        ]
    return cases


def test_brent_is_bit_identical_to_brentq():
    for f, a, b in _brent_cases():
        ours, our_points = _logged(f)
        ref, ref_points = _logged(f)
        root = nu._brent(ours, a, b, "n=0, l=0")
        expected = brentq(
            ref, a, b,
            xtol=nu._BRENTQ_XTOL, rtol=nu._BRENTQ_RTOL, maxiter=nu._BRENTQ_MAXITER,
        )
        assert type(root) is float
        assert root.hex() == expected.hex(), (a, b)
        assert our_points == ref_points, (a, b)


def test_brent_rejects_a_nan_residual():
    def f(x):  # the secant step from the ends lands on 0.7
        return math.nan if 0.65 < x < 0.75 else x - 0.7

    with pytest.raises(ValueError, match="NaN"):
        brentq(f, 0.0, 1.0, xtol=nu._BRENTQ_XTOL, rtol=nu._BRENTQ_RTOL)
    message = r"^root search for n=2, l=1: NaN residual at xi\^2 = 0\.7\d*$"
    with pytest.raises(NumericalError, match=message):
        nu._brent(f, 0.0, 1.0, "n=2, l=1")
    with pytest.raises(NumericalError, match=r"NaN residual at xi\^2 = 1\.0$"):
        nu._brent(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, "n=0, l=0")


def test_brent_rejects_a_same_signed_bracket():
    with pytest.raises(ValueError):
        brentq(lambda x: x + 1.0, 0.0, 1.0)
    message = (r"^root search for n=0, l=3: residual 1\.0 at xi\^2 = 0\.0 and "
               r"2\.0 at xi\^2 = 1\.0 have the same sign$")
    with pytest.raises(NumericalError, match=message):
        nu._brent(lambda x: x + 1.0, 0.0, 1.0, "n=0, l=3")


def test_brent_reports_running_out_of_steps(monkeypatch):
    def f(x):
        return x**3 - 0.3

    with pytest.raises(RuntimeError):
        brentq(f, 0.0, 1.0, xtol=nu._BRENTQ_XTOL, rtol=nu._BRENTQ_RTOL, maxiter=1)
    monkeypatch.setattr(nu, "_BRENTQ_MAXITER", 1)
    message = r"^root search for n=1, l=0: not converged at xi\^2 = \S+ after 1 steps$"
    with pytest.raises(NumericalError, match=message):
        nu._brent(f, 0.0, 1.0, "n=1, l=0")
    with pytest.raises(NumericalError, match=r"^root search for n=0, l=0: not converged"):
        solve_bound_state(UNIT_YUKAWA, CONSTS, 0, 0)
