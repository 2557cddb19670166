"""Coupling recovery from tabulated levels.

The energy formula sees (a1, a2, a3) only through x1 + x2 and x2 - x3, so a
clean round trip recovers those combinations (and the energies), not the raw
triple.  Rows above the coupling-independent bound E <= Q1(l) must defeat
any fit and be called out as such.
"""

import math

import mpmath
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
from mrey.recovery import channel_bound

CONSTS = PhysicalConstants(1.0, 1.0, 1.0)

# l = 0 column of the positive-entry fixture that motivated the bound check
FIXTURE = (0.109375, 0.046875, -0.078125, -0.265625, -0.515625, -0.828125)
# x2 - x3 of its best fit, which sits on the bound t = 0 (x1 + x2 = 1/4):
# the root of the cost's derivative in v at t = 0, to 50 digits with mpmath
FIXTURE_BEST_V = -0.785145878211361139


def test_channel_bound_values():
    assert channel_bound(0, 0.5, CONSTS) == 0.0
    assert channel_bound(1, 0.5, CONSTS) == pytest.approx(0.25, rel=1e-15)
    assert channel_bound(2, 1.0, CONSTS) == pytest.approx(3.0, rel=1e-15)


def test_round_trip_recovers_energies_and_invariants():
    truth = PotentialParams(0.005, 0.002, 1.2, 0.4)
    rows = [
        (n, l, energy(truth, CONSTS, n, l).energy)
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
    refit = [energy(report.params, CONSTS, n, l).energy for n, l, _ in rows]
    np.testing.assert_allclose(refit, [e for _, _, e in rows], atol=1e-7)


def test_positive_entries_are_infeasible():
    rows = [(n, 0, e) for n, e in enumerate(FIXTURE)]
    report = fit_couplings(rows, alpha=0.5, consts=CONSTS)
    assert not report.feasible
    assert report.verdict.startswith("infeasible")
    # rows 0 and 1 sit above the l = 0 bound E <= 0
    assert set(report.infeasible_rows) == {0, 1}
    assert report.rms >= 0.01
    # the best fit is on the bound t = 0, where the one channel has gap 0
    assert report.x1_plus_x2 == 0.25
    assert report.x2_minus_x3 == pytest.approx(FIXTURE_BEST_V, rel=1e-12)


def test_fixture_has_flat_second_differences():
    # the pattern that survives in the fixture: constant curvature -0.0625,
    # exactly the -2 Q2 signature of a Q3 = 0 column at alpha = 0.5
    second = np.diff(FIXTURE, n=2)
    np.testing.assert_allclose(second, -0.0625, rtol=0.0, atol=1e-15)


def test_fit_input_validation():
    with pytest.raises(DomainError):
        fit_couplings([], alpha=0.5, consts=CONSTS)
    with pytest.raises(DomainError):
        fit_couplings([(0, 0, -0.1)], alpha=0.0, consts=CONSTS)
    with pytest.raises(DomainError):
        fit_couplings([(0, 0, -0.1)], alpha=True, consts=CONSTS)
    with pytest.raises(DomainError, match="^table energy must be finite, got nan$"):
        fit_couplings([(0, 0, -0.1), (1, 0, math.nan)], alpha=0.5, consts=CONSTS)
    # (n, l, E) triples, E taken as a float and kept as one in the report
    report = fit_couplings([(0, 0, -0.28125), (1, 0, np.float32(-0.02))], alpha=0.5,
                           consts=CONSTS)
    assert report.converged
    assert report.rows == ((0, 0, -0.28125), (1, 0, float(np.float32(-0.02))))
    assert all(type(e) is float for _, _, e in report.rows)


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


@pytest.mark.parametrize("params", [
    PotentialParams(-2.2727405505718136e-07, -5.921636839535035e-06,
                    1.0193769081959325, 0.01902852965342139),
    PotentialParams(1.0294590698719617e-06, 2.748064085393586e-06,
                    1.0599754461259143, 0.01063717389661884),
])
def test_clean_tables_are_fitted_to_the_rounding_floor(params):
    # two clean 20- and 24-row tables where a fit that stops early leaves an
    # rms 150-1000 times above the rounding of the energies themselves
    rows = _valid_rows(params)
    report = fit_couplings(rows, alpha=params.alpha, consts=CONSTS)
    assert report.converged
    assert report.rms <= 4 * np.finfo(float).eps * max(abs(e) for _, _, e in rows)


def _seed_at_t0(monkeypatch, shift=0.0):
    """Scan t = 0 alone, with the scan's best v moved by shift."""
    batched = recovery._outer_real_roots
    monkeypatch.setattr(recovery, "_T_GRID", np.array([0.0]))
    monkeypatch.setattr(recovery, "_outer_real_roots", lambda cubics: batched(cubics) + shift)


@pytest.mark.parametrize("shift", [-1.0, 0.3, 10.0])
def test_polish_from_a_far_seed_holds_t_on_the_bound(monkeypatch, shift):
    # the infeasible fixture's best fit is on the bound t = 0; from a seed
    # there with v far off, the polish must reach it without leaving t = 0,
    # its v as exact as the rounding of the cost allows
    _seed_at_t0(monkeypatch, shift)
    report = fit_couplings([(n, 0, e) for n, e in enumerate(FIXTURE)], alpha=0.5, consts=CONSTS)
    assert report.converged
    assert report.x1_plus_x2 == 0.25
    assert report.x2_minus_x3 == pytest.approx(FIXTURE_BEST_V, rel=1e-7)


@pytest.mark.parametrize("shift", [0.0, 1.0])
def test_polish_from_t0_reaches_an_interior_fit(monkeypatch, shift):
    # a clean l = 0 table fitted at t = 0.6, seeded at t = 0, where w = |t|
    # is 0 and the Jacobian takes t/w = 1
    _seed_at_t0(monkeypatch, shift)
    x = (0.06, 0.1, 30.0, 0.4)
    params = _from_x(*x)
    _assert_recovers([(n, 0, energy(params, CONSTS, n, 0).energy) for n in range(4)], *x)


def _pool_table(rng):
    """A valid-level table of a seeded well in the benchmark's box: a3 in
    [1, 2], alpha in [0.01, 0.03], x1 and x2 in [-0.05, 0.05]."""
    alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.03)))
    x1, x2 = rng.uniform(-0.05, 0.05, 2)
    return _valid_rows(_from_x(x1, x2, 2.0 * math.exp(rng.uniform(0.0, math.log(2.0))) / alpha,
                               alpha)), alpha


_SCAN_TABLES = [
    lambda: ([(0, 0, -0.28125)], 0.5),  # one row
    lambda: (_valid_rows(_from_x(0.03, -0.04, 22600.0, 0.0232)), 0.0232),  # deep well
    _perturbed_upper_branch_rows,
    lambda: ([(n, 0, e) for n, e in enumerate(FIXTURE)], 0.5),  # complex pairs at every t
] + [lambda seed=seed: _pool_table(np.random.default_rng(seed)) for seed in range(3)]


@pytest.mark.parametrize("table", _SCAN_TABLES, ids=[
    "one-row", "deep-well", "perturbed-upper-branch", "infeasible-fixture",
    "pool-0", "pool-1", "pool-2"])
def test_outer_real_roots_match_mpmath(monkeypatch, table):
    # the scan's outer real roots against 50-digit mpmath.polyroots on the
    # same float cubics: each within 4 eps times the root's condition number
    # sum |c_k x^k| / |x c'(x)|, a few roundings of each coefficient.  On
    # 3660 cubics of seeded pool scans the closed form with its two Newton
    # steps reached 0.98 eps times it, and np.roots, the eigenvalues of the
    # companion matrix, 5.7.
    rows, alpha = table()
    batched, seen = recovery._outer_real_roots, []

    def spy(cubics):
        seen.append((cubics.copy(), batched(cubics)))
        return seen[-1][1]

    monkeypatch.setattr(recovery, "_outer_real_roots", spy)
    fit_couplings(rows, alpha=alpha, consts=CONSTS)
    [(cubics, roots)] = seen
    assert cubics.shape == (recovery._T_GRID.size, 4)
    with mpmath.workdps(50):
        for c, outer in zip(cubics, roots.T):
            found = mpmath.polyroots([mpmath.mpf(float(x)) for x in c], maxsteps=200,
                                     extraprec=200)
            real = [mpmath.re(x) for x in found if abs(mpmath.im(x)) <= 1e-40 * abs(x)]
            for x, exact in zip(outer, (min(real), max(real))):
                exact = float(exact)
                powers = exact ** np.arange(3.0, -1.0, -1.0)
                slope = abs(exact * (3.0 * c[0] * exact**2 + 2.0 * c[1] * exact + c[2]))
                cond = np.abs(c * powers).sum() / slope
                assert abs(x - exact) <= 4.0 * np.finfo(float).eps * cond * abs(exact), (
                    c, x, exact)


def test_fit_runs_without_lapack(monkeypatch):
    # the fit's roots, steps and couplings are all closed forms: the
    # round-trip tables pass with numpy's eigvals and lstsq made to raise
    def refuse(*args, **kwargs):
        raise AssertionError("fit_couplings called LAPACK")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    for x in [(0.0625, 0.025, 6.0, 0.4), (0.01, -0.02, 200.0, 0.1),
              (0.03, -0.04, 22600.0, 0.0232)]:
        _assert_recovers(_valid_rows(_from_x(*x)), *x)
    rows, alpha = _pool_table(np.random.default_rng(0))
    report = fit_couplings(rows, alpha=alpha, consts=CONSTS)
    assert report.converged
    assert report.rms <= 4 * np.finfo(float).eps * max(abs(e) for _, _, e in rows)


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
