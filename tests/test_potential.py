"""Potential evaluation, parameter validation, and coefficient construction."""

import math

import numpy as np
import pytest

from mrey import (
    DomainError,
    NoRealDeltaError,
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    SpecialCase,
    classify_special_case,
    evaluate_potential,
    greene_aldrich,
    spectral_coefficients,
)
from mrey.potential import dimensionless_params

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


def test_quantum_number_validation():
    QuantumNumbers(0, 0)
    QuantumNumbers(5, 3)
    with pytest.raises(DomainError):
        QuantumNumbers(-1, 0)
    with pytest.raises(DomainError):
        QuantumNumbers(0, -2)
    with pytest.raises(DomainError):
        QuantumNumbers(1.5, 0)


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
    dim = dimensionless_params(params, CONSTS, 0.0)
    assert dim.x3 == pytest.approx(4.0, rel=1e-15)
    assert dim.x1 == 0.0 and dim.x2 == 0.0
    assert dim.xi_sq == 0.0
    assert dimensionless_params(params, CONSTS, -0.125).xi_sq == pytest.approx(1.0, rel=1e-15)


def test_dimensionless_linearity():
    base = dimensionless_params(PotentialParams(0.3, 0.4, 0.5, 0.7), CONSTS, -0.2)
    doubled_a1 = dimensionless_params(PotentialParams(0.6, 0.4, 0.5, 0.7), CONSTS, -0.2)
    doubled_e = dimensionless_params(PotentialParams(0.3, 0.4, 0.5, 0.7), CONSTS, -0.4)
    assert doubled_a1.x1 == pytest.approx(2.0 * base.x1, rel=1e-14)
    assert doubled_a1.x2 == base.x2 and doubled_a1.x3 == base.x3
    assert doubled_e.xi_sq == pytest.approx(2.0 * base.xi_sq, rel=1e-14)


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
