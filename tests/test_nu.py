"""Parametric NU machinery: derived constants, quantization condition, oracle.

The hand values here were worked out from the c4..c13 definitions with
c1 = c2 = c3 = 1; they pin the arithmetic independently of the physics
modules that consume it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from mrey import (
    ComplexBranchError,
    DomainError,
    NoRootError,
    PhysicalConstants,
    PotentialParams,
)
from mrey import nu
from mrey.nu import (
    NuCoefficients,
    derive_constants,
    mrey_mapping,
    quantization_residual,
    solve_bound_state,
    wave_shape,
)
from mrey.potential import dimensionless_params
from mrey.spectrum import energy

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
UNIT_YUKAWA = PotentialParams(0.0, 0.0, 1.0, 0.5)


def test_derived_constants_hand_case():
    # xi^2 = 1, x1 = x2 = x3 = 0, l = 0 in the screened-well mapping
    coeffs = NuCoefficients(c1=1.0, c2=1.0, c3=1.0, xi1=1.0, xi2=2.0, xi3=1.0)
    d = derive_constants(coeffs)
    assert d.c4 == 0.0
    assert d.c5 == -0.5
    assert d.c6 == pytest.approx(1.25, rel=1e-15)
    assert d.c7 == pytest.approx(-2.0, rel=1e-15)
    assert d.c8 == pytest.approx(1.0, rel=1e-15)
    assert d.c9 == pytest.approx(0.25, rel=1e-15)
    assert d.c10 == pytest.approx(3.0, rel=1e-15)
    assert d.c11 == pytest.approx(5.0, rel=1e-15)
    assert d.c12 == pytest.approx(1.0, rel=1e-15)
    assert d.c13 == pytest.approx(-2.0, rel=1e-15)


def test_derived_constants_zero_case():
    d = derive_constants(NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert d.c6 == 0.25
    assert d.c7 == 0.0
    assert d.c8 == 0.0
    assert d.c9 == 0.25
    assert d.c12 == 0.0


def test_derived_constants_general_inputs():
    # c4 and c5 are plain linear combinations; spot-check at c1, c2, c3 != 1
    d = derive_constants(NuCoefficients(0.5, 2.0, 3.0, 0.1, 0.2, 0.3))
    assert d.c4 == pytest.approx(0.25, rel=1e-15)
    assert d.c5 == pytest.approx(-2.0, rel=1e-15)


def test_c9_internal_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c1, c2, c3 = rng.uniform(-2.0, 2.0, size=3)
        xi1, xi2, xi3 = rng.uniform(0.0, 3.0, size=3)
        coeffs = NuCoefficients(c1, c2, c3, xi1, xi2, xi3)
        try:
            d = derive_constants(coeffs)
        except ComplexBranchError:
            continue
        c4 = 0.5 * (1.0 - c1)
        c5 = 0.5 * (c2 - 2.0 * c3)
        lhs = d.c9
        rhs = c3 * (2.0 * c4 * c5 - xi2) + c3 * c3 * (c4 * c4 + xi3) + (c5 * c5 + xi1)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_complex_branch_reported():
    # xi3 < -c4^2 forces c8 < 0
    with pytest.raises(ComplexBranchError) as info:
        derive_constants(NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, -1.0))
    assert info.value.c8 == pytest.approx(-1.0, rel=1e-15)


def test_residual_zero_xi_hand_value():
    coeffs = NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    assert quantization_residual(coeffs, 0) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("n", [1.5, -0.5, True])
def test_residual_rejects_non_integer_or_negative_n(n):
    # int(n) would quietly turn 1.5 into 1 and -0.5 into 0
    with pytest.raises(DomainError, match="n must be"):
        quantization_residual(NuCoefficients(1.0, 1.0, 1.0, 1.0, 2.0, 1.0), n)


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
            coeffs = mrey_mapping(params, CONSTS, l)(level.energy)
            assert abs(quantization_residual(coeffs, n)) < 1e-9
            exercised += 1
    assert exercised >= 4


def test_residual_monotone_in_binding():
    # at fixed n the residual grows with xi^2 (the sqrt(c8) coefficient is
    # 2n + 1 + 2 sqrt(c9) > 0), which is what makes the bracketing solver safe
    mapping = mrey_mapping(UNIT_YUKAWA, CONSTS, 0)
    e_grid = -np.linspace(0.01, 2.0, 30)
    residuals = [quantization_residual(mapping(e), 1) for e in e_grid]
    assert all(b > a for a, b in zip(residuals, residuals[1:]))


def test_wave_shape_matches_spectral_exponents():
    params = PotentialParams(0.01, 0.02, 1.2, 0.5)
    level = energy(params, CONSTS, 0, 1)
    coeffs = mrey_mapping(params, CONSTS, 1)(level.energy)
    shape = wave_shape(coeffs)
    dim = dimensionless_params(params, CONSTS, level.energy)
    expected = 0.5 + math.sqrt(0.25 + 2.0 - dim.x1 - dim.x2)  # l(l+1) = 2
    assert shape.one_minus_s_exponent == pytest.approx(expected, rel=1e-12)
    assert shape.jacobi_b == pytest.approx(2.0 * (expected - 0.5), rel=1e-12)
    assert shape.s_exponent == pytest.approx(math.sqrt(dim.xi_sq + 2.0), rel=1e-12)
    assert shape.jacobi_a == pytest.approx(2.0 * shape.s_exponent, rel=1e-12)


def test_wave_shape_zero_case():
    # c10 = 1, c11 = 3 here, so jacobi_b = c11/c3 - c10 - 1 = 1
    # (equivalently 2 sqrt(1/4) via the screened-well identity)
    shape = wave_shape(NuCoefficients(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert shape.s_exponent == 0.0
    assert shape.jacobi_a == 0.0
    assert shape.jacobi_b == pytest.approx(1.0, rel=1e-15)
    assert shape.one_minus_s_exponent == pytest.approx(1.0, rel=1e-15)


def test_wave_shape_rejects_zero_c3():
    with pytest.raises(DomainError):
        wave_shape(NuCoefficients(1.0, 1.0, 0.0, 0.0, 0.0, 0.0))


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


def _public_path_root(params, n, l):
    """The oracle's doubling bracket and brentq, run on the public dataclass path."""
    mapping = mrey_mapping(params, CONSTS, l)
    e_scale = (CONSTS.hbar * params.alpha) ** 2 / (2.0 * CONSTS.mu)

    def residual(xi_sq):
        return quantization_residual(mapping(-xi_sq * e_scale), n)

    assert residual(0.0) < 0.0
    hi = 1.0
    while residual(hi) <= 0.0:
        hi *= 2.0
    root = brentq(
        residual, 0.0, hi,
        xtol=nu._BRENTQ_XTOL, rtol=nu._BRENTQ_RTOL, maxiter=nu._BRENTQ_MAXITER,
    )
    return -float(root) * e_scale


def test_oracle_is_bit_identical_to_the_public_path():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 200:
        alpha = rng.uniform(0.01, 0.5)
        a3 = math.exp(rng.uniform(math.log(0.5), math.log(500.0)))
        a1, a2 = rng.uniform(-0.05, 0.05, size=2) * alpha**2  # |x1|, |x2| <= 0.1
        params = PotentialParams(float(a1), float(a2), a3, alpha)
        n, l = int(rng.integers(0, 30)), int(rng.integers(0, 4))
        if not energy(params, CONSTS, n, l).valid_bound_state:
            continue
        found = solve_bound_state(params, CONSTS, n, l)
        assert found.hex() == _public_path_root(params, n, l).hex(), (params, n, l)
        checked += 1


def test_oracle_reports_complex_branch():
    # x1 = x2 = 1.6, x3 = 4 at l = 0: xi^2 = 0 gives c8 = 0, c9 = 2.65 - 5.6
    with pytest.raises(ComplexBranchError) as info:
        solve_bound_state(PotentialParams(0.2, 0.2, 1.0, 0.5), CONSTS, 0, 0)
    assert info.value.c8 == 0.0
    assert info.value.c9 == pytest.approx(-2.95, rel=1e-12)


@pytest.mark.parametrize(("n", "l", "message"), [
    (-1, 0, "n must be >= 0, got -1"),
    (0, 1.0, "l must be an integer, got 1.0"),
])
def test_oracle_rejects_bad_quantum_numbers(n, l, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        solve_bound_state(UNIT_YUKAWA, CONSTS, n, l)
