"""Potential evaluation, parameter validation, and coefficient construction."""

import dataclasses
import math

import numpy as np
import pytest

from mrey import (
    DomainError,
    build_wave,
    energy,
    energy_long_form,
    energy_manning_rosen,
    energy_yukawa,
    fit_couplings,
    spectrum_table,
    NoRealDeltaError,
    PhysicalConstants,
    PotentialParams,
    SpecialCase,
    classify_special_case,
    evaluate_potential,
    greene_aldrich,
    spectral_coefficients,
)
from mrey.nu import solve_bound_state
from mrey.potential import _couplings, xi_squared

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)


def test_constants_must_be_positive():
    for bad in ({"hbar": 0.0}, {"mu": -1.0}, {"k_boltzmann": 0.0}):
        with pytest.raises(DomainError):
            PhysicalConstants(**{"hbar": 1.0, "mu": 1.0, "k_boltzmann": 1.0, **bad})


def test_params_validation():
    with pytest.raises(DomainError):
        PotentialParams(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PotentialParams(1.0, 1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        PotentialParams(math.nan, 0.0, 0.0, 1.0)
    # any sign of the couplings is accepted
    PotentialParams(-1.0, 2.0, -3.0, 0.7)


# a well whose levels (n, l) <= (2, 2) are all bound
DEEP = PotentialParams(0.0, 0.0, 20.0, 0.5)
# every public entry that takes n or l, as f(n, l); spectral_coefficients
# takes l alone, spectrum_table n_max and l_max, fit_couplings them in a
# table row, and build_wave them on a level the caller may have made
TAKES_N_OR_L = {
    "energy": lambda n, l: energy(DEEP, CONSTS, n, l),
    "energy_long_form": lambda n, l: energy_long_form(DEEP, CONSTS, n, l),
    "energy_manning_rosen": lambda n, l: energy_manning_rosen(
        PotentialParams(0.01, 0.02, 0.0, 0.5), CONSTS, n, l),
    "energy_yukawa": lambda n, l: energy_yukawa(DEEP, CONSTS, n, l),
    "spectrum_table": lambda n, l: spectrum_table(DEEP, CONSTS, n, l),
    "spectral_coefficients": lambda n, l: spectral_coefficients(DEEP, CONSTS, l),
    "solve_bound_state": lambda n, l: solve_bound_state(DEEP, CONSTS, n, l),
    "fit_couplings": lambda n, l: fit_couplings([(n, l, -1.0)], 0.5, CONSTS),
    "build_wave": lambda n, l: build_wave(
        DEEP, CONSTS, dataclasses.replace(energy(DEEP, CONSTS, 2, 2), n=n, l=l)),
}
BAD_QUANTUM_NUMBERS = [
    (-1, "must be >= 0, got -1"),
    (1.5, "must be an integer, got 1.5"),
    (True, "must be an integer, got True"),
]


@pytest.mark.parametrize(("entry", "name"), [
    (entry, name) for entry in TAKES_N_OR_L for name in ("n", "l")
    if (entry, name) != ("spectral_coefficients", "n")
])
@pytest.mark.parametrize(("value", "message"), BAD_QUANTUM_NUMBERS,
                         ids=[repr(value) for value, _ in BAD_QUANTUM_NUMBERS])
def test_quantum_numbers_are_checked_where_they_enter(entry, name, value, message):
    args = {"n": 0, "l": 0, name: value}
    with pytest.raises(DomainError, match=f"^{name} {message}$"):
        TAKES_N_OR_L[entry](**args)


@pytest.mark.parametrize("entry", TAKES_N_OR_L)
def test_numpy_integer_quantum_numbers_are_accepted(entry):
    TAKES_N_OR_L[entry](np.int64(2), np.int64(2))


def test_potential_decays_at_large_r():
    params = PotentialParams(1.0, 1.0, 1.0, 1.0)
    assert abs(evaluate_potential(params, 100.0)) < 1e-12


def test_potential_hand_values():
    # pure screened-Coulomb term at r = 1
    yukawa = PotentialParams(0.0, 0.0, 1.0, 0.5)
    assert evaluate_potential(yukawa, 1.0) == pytest.approx(-math.exp(-0.5), rel=1e-14)
    # pure short-range well at e^{-alpha r} = 1/2: -(1 * 1/2) / (1/2)^2 = -2
    well = PotentialParams(1.0, 0.0, 0.0, 1.0)
    assert evaluate_potential(well, math.log(2.0)) == pytest.approx(-2.0, rel=1e-14)


def test_potential_rejects_bad_radius():
    params = PotentialParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        evaluate_potential(params, 0.0)
    with pytest.raises(DomainError):
        evaluate_potential(params, -1.0)
    # alpha * r below the denominator-underflow threshold
    with pytest.raises(DomainError):
        evaluate_potential(params, 1e-15)


def test_potential_additivity():
    # the full potential is the sum of its two-term part and its Yukawa part
    r = np.linspace(0.1, 10.0, 50)
    full = evaluate_potential(PotentialParams(0.8, -0.3, 1.7, 0.6), r)
    part1 = evaluate_potential(PotentialParams(0.8, -0.3, 0.0, 0.6), r)
    part2 = evaluate_potential(PotentialParams(0.0, 0.0, 1.7, 0.6), r)
    np.testing.assert_allclose(full, part1 + part2, rtol=1e-13)


def test_classification():
    assert classify_special_case(PotentialParams(1.0, 2.0, 0.0, 1.0)) is SpecialCase.MANNING_ROSEN
    assert classify_special_case(PotentialParams(0.0, 0.0, 3.0, 1.0)) is SpecialCase.EXPONENTIAL_YUKAWA
    assert classify_special_case(PotentialParams(0.0, 0.0, 0.0, 1.0)) is SpecialCase.FREE
    assert classify_special_case(PotentialParams(1.0, 0.0, 3.0, 1.0)) is SpecialCase.GENERAL


def test_greene_aldrich_values():
    inv_r2, inv_r = greene_aldrich(0.5, 1.0)
    one_minus = 1.0 - math.exp(-0.5)
    assert inv_r2 == pytest.approx(0.25 / one_minus**2, rel=1e-14)
    assert inv_r == pytest.approx(0.5 / one_minus, rel=1e-14)
    assert inv_r2 == pytest.approx(1.614798, abs=5e-6)
    assert inv_r == pytest.approx(1.270747, abs=5e-7)


def test_greene_aldrich_small_r_accuracy():
    inv_r2, inv_r = greene_aldrich(0.5, 0.001)
    assert abs(inv_r2 - 1.0 / 0.001**2) * 0.001**2 < 1e-3
    assert abs(inv_r - 1.0 / 0.001) * 0.001 < 1e-3


def test_greene_aldrich_error_grows_with_alpha_r():
    r = np.linspace(0.05, 2.0, 40)  # alpha r in (0, 1]
    inv_r2, _ = greene_aldrich(0.5, r)
    rel_err = np.abs(inv_r2 - 1.0 / r**2) * r**2
    assert np.all(np.diff(rel_err) > 0.0)


def test_dimensionless_values():
    params = PotentialParams(0.0, 0.0, 1.0, 0.5)
    _, x1, x2, x3 = _couplings(params, CONSTS)
    assert x3 == pytest.approx(4.0, rel=1e-15)
    assert x1 == 0.0 and x2 == 0.0
    assert xi_squared(params, CONSTS, 0.0) == 0.0
    assert xi_squared(params, CONSTS, -0.125) == pytest.approx(1.0, rel=1e-15)


def test_dimensionless_linearity():
    base = _couplings(PotentialParams(0.3, 0.4, 0.5, 0.7), CONSTS)
    doubled_a1 = _couplings(PotentialParams(0.6, 0.4, 0.5, 0.7), CONSTS)
    assert doubled_a1[1] == pytest.approx(2.0 * base[1], rel=1e-14)
    assert doubled_a1[2:] == base[2:]
    xi_sq = xi_squared(PotentialParams(0.3, 0.4, 0.5, 0.7), CONSTS, -0.2)
    doubled_e = xi_squared(PotentialParams(0.3, 0.4, 0.5, 0.7), CONSTS, -0.4)
    assert doubled_e == pytest.approx(2.0 * xi_sq, rel=1e-14)


def test_spectral_coefficients_hand_values():
    coeffs = spectral_coefficients(PotentialParams(0.0, 0.0, 1.0, 0.5), CONSTS, 0)
    assert coeffs.q1 == 0.0
    assert coeffs.q2 == pytest.approx(0.03125, rel=1e-15)
    assert coeffs.q3 == pytest.approx(-4.0, rel=1e-15)
    assert coeffs.delta == pytest.approx(1.0, rel=1e-15)

    # zero couplings, l = 1: radicand = 1 + 4 l(l+1) = 9, so delta = 2
    free_l1 = spectral_coefficients(PotentialParams(0.0, 0.0, 0.0, 0.3), CONSTS, 1)
    assert free_l1.delta == pytest.approx(2.0, rel=1e-15)
    assert free_l1.q3 == pytest.approx(2.0, rel=1e-15)


def test_spectral_coefficients_negative_radicand():
    with pytest.raises(NoRealDeltaError) as info:
        spectral_coefficients(PotentialParams(1.0, 1.0, 0.0, 0.5), CONSTS, 0)
    # 1 - 32 - 32; the offending value rides along on the error
    assert info.value.radicand == pytest.approx(-63.0, rel=1e-12)


def test_spectral_coefficients_are_plain_floats_from_numpy_inputs():
    # bit-identical to the plain-float inputs, and plain floats themselves
    plain = PotentialParams(0.001, -0.002, 1.0, 0.3)
    scalars = PotentialParams(*(np.float64(v) for v in (0.001, -0.002, 1.0, 0.3)))
    consts = PhysicalConstants(*(np.float64(v) for v in (1.0, 1.0, 1.0)))
    for l in range(3):
        expected = spectral_coefficients(plain, CONSTS, l)
        for params, c in ((scalars, CONSTS), (plain, consts), (scalars, consts)):
            coeffs = spectral_coefficients(params, c, l)
            for field in ("q1", "q2", "q3", "delta", "radicand"):
                value = getattr(coeffs, field)
                assert type(value) is float, (field, type(value))
                assert value.hex() == getattr(expected, field).hex(), field


def test_spectral_coefficient_invariants():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha = rng.uniform(0.1, 1.0)
        scale = (alpha * alpha) / 16.0  # keeps 4 x1 + 4 x2 within (-1, 1)
        params = PotentialParams(
            rng.uniform(-scale, scale), rng.uniform(-scale, scale),
            rng.uniform(-2.0, 2.0), alpha,
        )
        l = int(rng.integers(0, 4))
        coeffs = spectral_coefficients(params, CONSTS, l)
        assert coeffs.q2 > 0.0
        assert (coeffs.q1 == 0.0) == (l == 0)
        assert coeffs.delta >= 0.5
