"""Closed-form levels, special-case routes, validity flags, table assembly."""

import math

import numpy as np
import pytest

from mrey import (
    DomainError,
    NoRealDeltaError,
    PhysicalConstants,
    PotentialParams,
    compact_energy,
    energy,
    energy_long_form,
    energy_manning_rosen,
    energy_yukawa,
    lambda_max,
    spectral_coefficients,
    spectrum_table,
)
from mrey.nu import solve_bound_state

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)
UNIT_YUKAWA = PotentialParams(0.0, 0.0, 1.0, 0.5)


def test_ground_state_anchor():
    level = energy(UNIT_YUKAWA, CONSTS, 0, 0)
    assert level.energy == pytest.approx(-0.28125, abs=1e-13)
    assert level.u_value == pytest.approx(1.5, rel=1e-13)
    assert level.xi_sq == pytest.approx(2.25, rel=1e-13)
    assert level.valid_bound_state and not level.marginal


def test_free_case_is_flagged_invalid():
    level = energy(PotentialParams(0.0, 0.0, 0.0, 0.5), CONSTS, 0, 0)
    assert level.energy == pytest.approx(-0.03125, abs=1e-14)
    assert level.u_value == pytest.approx(-0.5, rel=1e-13)
    assert not level.valid_bound_state


def test_marginal_level():
    # n = 1 of the unit well: rho = 2, Q3 = -4, E = 0 and u = 0 exactly
    level = energy(UNIT_YUKAWA, CONSTS, 1, 0)
    assert level.energy == pytest.approx(0.0, abs=1e-14)
    assert level.u_value == pytest.approx(0.0, abs=1e-14)
    assert level.marginal and not level.valid_bound_state


def _random_params(rng):
    alpha = rng.uniform(0.1, 1.0)
    scale = (alpha * alpha) / 16.0
    return PotentialParams(
        rng.uniform(-scale, scale), rng.uniform(-scale, scale),
        rng.uniform(0.2, 4.0), alpha,
    )


def test_long_form_agrees_with_compact():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        params = _random_params(rng)
        n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        compact = energy(params, CONSTS, n, l).energy
        long_form = energy_long_form(params, CONSTS, n, l)
        worst = max(worst, abs(compact - long_form) / max(1.0, abs(compact)))
    assert worst < 1e-12


def test_manning_rosen_route():
    rng = np.random.default_rng(29)
    for _ in range(100):
        params = _random_params(rng)
        params = PotentialParams(params.a1, params.a2, 0.0, params.alpha)
        n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        special = energy_manning_rosen(params, CONSTS, n, l)
        general = energy(params, CONSTS, n, l).energy
        assert special == pytest.approx(general, rel=1e-12, abs=1e-12)


def test_manning_rosen_hand_value():
    params = PotentialParams(0.01, 0.01, 0.0, 0.5)
    value = energy_manning_rosen(params, CONSTS, 0, 0)
    # delta = 0.8, Q3 = 0.08, E = -0.03125 (0.8 + 0.1)^2
    assert value == pytest.approx(-0.0253125, abs=1e-14)


def test_manning_rosen_requires_zero_a3():
    with pytest.raises(DomainError):
        energy_manning_rosen(UNIT_YUKAWA, CONSTS, 0, 0)


def test_yukawa_route():
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha = rng.uniform(0.1, 1.0)
        params = PotentialParams(0.0, 0.0, rng.uniform(0.2, 4.0), alpha)
        n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        special = energy_yukawa(params, CONSTS, n, l)
        general = energy(params, CONSTS, n, l).energy
        assert special == pytest.approx(general, rel=1e-12, abs=1e-12)


def test_yukawa_hand_value_and_coulomb_limit():
    assert energy_yukawa(UNIT_YUKAWA, CONSTS, 0, 0) == pytest.approx(-0.28125, abs=1e-13)
    weak_screen = PotentialParams(0.0, 0.0, 1.0, 1e-4)
    assert abs(energy_yukawa(weak_screen, CONSTS, 0, 0) - (-0.5)) < 1e-3


def test_yukawa_requires_zero_mr_couplings():
    with pytest.raises(DomainError):
        energy_yukawa(PotentialParams(0.1, 0.0, 1.0, 0.5), CONSTS, 0, 0)


def test_energy_bounded_by_centrifugal_offset():
    # the squared bracket makes E <= Q1 for every real evaluation; this is
    # what rules out positive l = 0 entries no matter the couplings
    rng = np.random.default_rng(37)
    for _ in range(500):
        params = _random_params(rng)
        n, l = int(rng.integers(0, 6)), int(rng.integers(0, 4))
        coeffs = spectral_coefficients(params, CONSTS, l)
        assert energy(params, CONSTS, n, l).energy <= coeffs.q1 + 1e-12


def test_spectrum_sweep_holds_the_nu_root():
    # the sweep box of the parity runs: alpha in [0.005, 1] and a3 in
    # [0.5, 1e4] (log-uniform), |x1|, |x2| <= 0.05, n < 60, l <= 3.  Every
    # level keeps E <= Q1(l), and each strictly valid one sits within 1e-13
    # (relative) of the NU oracle's root, which never consults the closed form
    rng = np.random.default_rng(33)
    valid = 0
    for _ in range(400):
        alpha = math.exp(rng.uniform(math.log(0.005), 0.0))
        x1, x2 = rng.uniform(-0.05, 0.05, size=2)
        a3 = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        params = PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, a3, alpha)
        n, l = int(rng.integers(0, 60)), int(rng.integers(0, 4))
        level = energy(params, CONSTS, n, l)
        assert level.energy <= spectral_coefficients(params, CONSTS, l).q1, (params, n, l)
        if level.valid_bound_state:
            root = solve_bound_state(params, CONSTS, n, l)
            assert root == pytest.approx(level.energy, rel=1e-13), (params, n, l)
            valid += 1
    assert valid > 200


def test_lambda_max_values():
    coeffs = spectral_coefficients(UNIT_YUKAWA, CONSTS, 0)  # Q3 = -4, delta = 1
    assert lambda_max(coeffs) == pytest.approx(1.0, rel=1e-14)

    from dataclasses import replace
    assert lambda_max(replace(coeffs, q3=4.0, delta=0.8)) == pytest.approx(1.2, rel=1e-13)
    assert lambda_max(replace(coeffs, q3=0.25, delta=1.0)) == 0.0
    with pytest.raises(DomainError):
        lambda_max(replace(coeffs, q3=0.0))


def test_lambda_max_matches_numerical_argmax():
    for a3 in (1.0, 3.0, 7.5):
        coeffs = spectral_coefficients(
            PotentialParams(0.0, 0.0, a3, 0.5), CONSTS, 0
        )
        lam = lambda_max(coeffs)
        span = 10.0 * (math.sqrt(abs(coeffs.q3)) + coeffs.delta)
        grid = np.linspace(0.0, span, 2_000_001)
        best = grid[np.argmax(compact_energy(coeffs, grid))]
        assert abs(best - lam) < 1e-4  # grid spacing limits agreement here
        # refine by golden-section-free parabolic check: derivative sign flip
        h = 1e-8
        if lam > h:
            left = compact_energy(coeffs, lam - h)
            right = compact_energy(coeffs, lam + h)
            peak = compact_energy(coeffs, lam)
            assert peak >= left and peak >= right


def test_table_shape_and_order():
    table = spectrum_table(UNIT_YUKAWA, CONSTS, n_max=5, l_max=3)
    assert len(table.rows) == 24
    keys = [(row.l, row.n) for row in table.rows]
    assert keys == sorted(keys)
    assert not table.errors


def test_table_free_case_all_invalid():
    table = spectrum_table(PotentialParams(0.0, 0.0, 0.0, 0.5), CONSTS, 5, 3)
    assert all(not row.valid_bound_state for row in table.rows)


def test_table_unit_well_column():
    table = spectrum_table(UNIT_YUKAWA, CONSTS, 2, 0)
    by_n = {row.n: row for row in table.rows}
    assert by_n[0].energy == pytest.approx(-0.28125, abs=1e-13)
    assert by_n[1].energy == pytest.approx(0.0, abs=1e-14)
    assert by_n[2].energy == pytest.approx(-0.03125 * (3.0 - 4.0 / 3.0) ** 2, rel=1e-12)
    assert by_n[0].valid_bound_state
    assert not by_n[1].valid_bound_state and not by_n[2].valid_bound_state


def test_table_partial_failure_manifest():
    # strong a1 makes the l = 0 radicand negative while l >= 1 stays real
    params = PotentialParams(0.05, 0.0, 1.0, 0.5)
    with pytest.raises(NoRealDeltaError):
        spectral_coefficients(params, CONSTS, 0)
    table = spectrum_table(params, CONSTS, 2, 2)
    assert 0 in table.errors and 1 not in table.errors
    assert {row.l for row in table.rows} == {1, 2}


def test_zero_q3_second_difference_is_constant():
    # x2 = x3 cancels Q3 at l = 0; then E is quadratic in n with second
    # difference exactly -2 Q2 = -0.0625 at alpha = 0.5
    params = PotentialParams(0.0, 0.01, 0.02, 0.5)
    coeffs = spectral_coefficients(params, CONSTS, 0)
    assert coeffs.q3 == 0.0
    column = [energy(params, CONSTS, n, 0).energy for n in range(6)]
    second = np.diff(column, n=2)
    np.testing.assert_allclose(second, -0.0625, rtol=1e-12)


def test_table_rows_are_energy_bit_for_bit():
    # spectrum_table takes each l's coefficients once; each row equals
    # energy() at (n, l), and its E and u equal the numpy route
    # (compact_energy, and u on a numpy rho) bit for bit.  The last
    # potential skips l = 0 (negative radicand)
    rng = np.random.default_rng(29)
    potentials = [_random_params(rng) for _ in range(40)]
    potentials += [PotentialParams(0.05, 0.0, 1.0, 0.5)]
    for params in potentials:
        table = spectrum_table(params, CONSTS, 7, 3)
        for row in table.rows:
            assert row == energy(params, CONSTS, row.n, row.l), (params, row)
            coeffs = spectral_coefficients(params, CONSTS, row.l)
            rho = np.asarray(row.n, dtype=float) + coeffs.delta
            assert row.energy.hex() == compact_energy(coeffs, row.n).hex(), (params, row)
            assert row.u_value.hex() == float(-(rho**2 + coeffs.q3) / (2.0 * rho)).hex()
        assert len(table.rows) == 8 * (4 - len(table.errors))
    assert list(table.errors) == [0]
