"""Coupling recovery from tabulated levels.

The energy formula sees (a1, a2, a3) only through x1 + x2 and x2 - x3, so a
clean round trip recovers those combinations (and the energies), not the raw
triple.  Rows above the coupling-independent bound E <= Q1(l) must defeat
any fit and be called out as such.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrey import (
    DomainError,
    PhysicalConstants,
    PotentialParams,
    energy,
    fit_couplings,
    spectrum_table,
)
from mrey import recovery
from mrey.recovery import TableRow, channel_bound

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)

# l = 0 column of the positive-entry fixture that motivated the bound check
FIXTURE = (0.109375, 0.046875, -0.078125, -0.265625, -0.515625, -0.828125)


def test_row_validation():
    TableRow(0, 0, -1.0)
    with pytest.raises(DomainError):
        TableRow(-1, 0, -1.0)
    with pytest.raises(DomainError):
        TableRow(0, 0, math.nan)


def test_channel_bound_values():
    assert channel_bound(0, 0.5, CONSTS) == 0.0
    assert channel_bound(1, 0.5, CONSTS) == pytest.approx(0.25, rel=1e-15)
    assert channel_bound(2, 1.0, CONSTS) == pytest.approx(3.0, rel=1e-15)


def test_round_trip_recovers_energies_and_invariants():
    truth = PotentialParams(0.005, 0.002, 1.2, 0.4)
    rows = [
        TableRow(n, l, energy(truth, CONSTS, n, l).energy)
        for n in range(4)
        for l in range(3)
    ]
    report = fit_couplings(rows, alpha=0.4, consts=CONSTS)
    assert report.converged and report.feasible
    assert report.rms < 1e-8
    assert report.max_abs_residual < 1e-7
    assert report.verdict.startswith("feasible")
    # the identifiable combinations match the generating couplings
    h2a2 = 0.4**2
    x1 = 2.0 * truth.a1 / h2a2
    x2 = 2.0 * truth.a2 / h2a2
    x3 = 2.0 * truth.a3 / 0.4
    assert report.x1_plus_x2 == pytest.approx(x1 + x2, abs=1e-6)
    assert report.x2_minus_x3 == pytest.approx(x2 - x3, abs=1e-6)
    # and the fitted couplings themselves reproduce every level
    refit = [
        energy(report.params, CONSTS, row.n, row.l).energy for row in rows
    ]
    np.testing.assert_allclose(refit, [row.energy for row in rows], atol=1e-7)


def test_positive_entries_are_infeasible():
    rows = [TableRow(n, 0, e) for n, e in enumerate(FIXTURE)]
    report = fit_couplings(rows, alpha=0.5, consts=CONSTS)
    assert not report.feasible
    assert report.verdict.startswith("infeasible")
    # rows 0 and 1 sit above the l = 0 bound E <= 0
    assert set(report.infeasible_rows) == {0, 1}
    assert report.rms >= 0.01


def test_fixture_has_flat_second_differences():
    # the pattern that survives in the fixture: constant curvature -0.0625,
    # exactly the -2 Q2 signature of a Q3 = 0 column at alpha = 0.5
    second = np.diff(FIXTURE, n=2)
    np.testing.assert_allclose(second, -0.0625, rtol=0.0, atol=1e-15)


def test_fit_input_validation():
    with pytest.raises(DomainError):
        fit_couplings([], alpha=0.5, consts=CONSTS)
    with pytest.raises(DomainError):
        fit_couplings([TableRow(0, 0, -0.1)], alpha=0.0, consts=CONSTS)
    # plain (n, l, E) triples are accepted and coerced
    report = fit_couplings([(0, 0, -0.28125), (1, 0, -0.02)], alpha=0.5, consts=CONSTS)
    assert report.converged


def _from_x(x1, x2, x3, alpha):
    """Couplings with dimensionless (x1, x2, x3) at hbar = mu = 1."""
    return PotentialParams(x1 * alpha**2 / 2, x2 * alpha**2 / 2, x3 * alpha / 2, alpha)


def _valid_rows(params, n_max=5, l_max=3):
    return [
        (r.n, r.l, r.energy)
        for r in spectrum_table(params, CONSTS, n_max, l_max).rows
        if r.valid_bound_state
    ]


def _assert_recovers(rows, x1, x2, x3, alpha):
    report = fit_couplings(rows, alpha=alpha, consts=CONSTS)
    assert report.converged and report.feasible
    assert report.x1_plus_x2 == pytest.approx(x1 + x2, abs=1e-6)
    assert report.x2_minus_x3 == pytest.approx(x2 - x3, abs=1e-6)
    return report


@pytest.mark.parametrize(
    "x", [(0.01, -0.02, 200.0, 0.1), (0.03, -0.04, 22600.0, 0.0232)]
)
def test_deep_wells_are_recovered(x):
    # the 8-start fit in (A1, A2, A3) landed in wrong minima on both
    rows = _valid_rows(_from_x(*x))
    assert len(rows) == 24
    _assert_recovers(rows, *x)


def test_one_row_per_l_of_a_deep_well():
    # one level per channel: the fit sits on the lower of the two minima in
    # v, and following only the upper one misses it
    x = (-15.8, -19.6, 4470.0, 0.015)
    params = _from_x(*x)
    rows = [(2, l, energy(params, CONSTS, 2, l).energy) for l in range(4)]
    _assert_recovers(rows, *x)


def _perturbed_upper_branch_rows():
    """+-1% on alternate rows of a deep well's table (alpha 0.038), 8 rows."""
    x1, x2, x3, alpha = -15.5, -9.2, 5594.0, 0.038
    return [
        (n, l, e * (1 + 0.01 * (-1) ** i))
        for i, (n, l, e) in enumerate(_valid_rows(_from_x(x1, x2, x3, alpha), 3, 1))
    ], alpha


def test_best_fit_of_a_perturbed_table_on_the_upper_v_branch():
    # +-1% on alternate rows: no coupling fits, and the best fit has
    # x2 - x3 ~ +5255, on the upper of the two minima in v (the lower one
    # gives rms 1.013); the optimum came from a dense (u, v) grid and a
    # Nelder-Mead polish, independent of the fitter
    rows, alpha = _perturbed_upper_branch_rows()
    assert len(rows) == 8
    report = fit_couplings(rows, alpha=alpha, consts=CONSTS)
    assert report.rms == pytest.approx(0.98852465353584, rel=1e-9)
    assert report.x2_minus_x3 > 0.0


def _np_roots_outer(cubics):
    """Smallest and largest real root of each row, one np.roots call a row."""
    out = np.empty((2, len(cubics)))
    for i, coefficients in enumerate(cubics):
        roots = np.roots(coefficients)
        real = roots.real[roots.imag == 0.0]
        out[:, i] = real.min(), real.max()
    return out


@pytest.mark.parametrize("table", [
    lambda: ([(0, 0, -0.28125)], 0.5),  # one row
    lambda: (_valid_rows(_from_x(0.03, -0.04, 22600.0, 0.0232)), 0.0232),  # deep well
    _perturbed_upper_branch_rows,
    lambda: ([(n, 0, e) for n, e in enumerate(FIXTURE)], 0.5),  # complex pairs at every t
], ids=["one-row", "deep-well", "perturbed-upper-branch", "infeasible-fixture"])
def test_batched_cubic_roots_equal_np_roots(monkeypatch, table):
    # the fit's one batched eigvals call returns np.roots' roots bit for bit
    rows, alpha = table()
    batched, seen = recovery._outer_real_roots, []

    def spy(cubics):
        seen.append((cubics.copy(), batched(cubics)))
        return seen[-1][1]

    monkeypatch.setattr(recovery, "_outer_real_roots", spy)
    fit_couplings(rows, alpha=alpha, consts=CONSTS)
    [(cubics, roots)] = seen
    assert cubics.shape == (recovery._T_GRID.size, 4)
    np.testing.assert_array_equal(roots, _np_roots_outer(cubics))


def test_couplings_are_minimum_norm():
    # (-c3, c3, c12) moves (A1, A2, A3) without changing x1 + x2 or x2 - x3,
    # so the minimum-norm couplings are orthogonal to it
    alpha = 0.4
    truth = PotentialParams(0.005, 0.002, 1.2, alpha)
    rows = [(n, l, energy(truth, CONSTS, n, l).energy) for n in range(4) for l in range(3)]
    p = fit_couplings(rows, alpha=alpha, consts=CONSTS).params
    c12, c3 = 2.0 / alpha**2, 2.0 / alpha
    gauge = np.array([-c3, c3, c12])
    couplings = np.array([p.a1, p.a2, p.a3])
    cosine = couplings @ gauge / (np.linalg.norm(couplings) * np.linalg.norm(gauge))
    assert abs(cosine) <= 1e-12


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    x1=st.floats(-0.05, 0.05),
    x2=st.floats(-0.05, 0.05),
    log_a3=st.floats(0.0, math.log(316.0)),
    alpha=st.floats(0.01, 0.5),
)
def test_round_trip_sweep(x1, x2, log_a3, alpha):
    x3 = 2.0 * math.exp(log_a3) / alpha
    rows = _valid_rows(_from_x(x1, x2, x3, alpha))
    if len(rows) < 3:
        return
    _assert_recovers(rows, x1, x2, x3, alpha)
