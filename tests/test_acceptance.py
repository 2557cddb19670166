"""Acceptance gate: one test per top-level claim the package makes.

Each test drives a named check from mrey.verification (the same checks the
`mrey verify` subcommand runs) and prints a single PASS/FAIL line, so the
suite output doubles as an acceptance report.  Tolerances and budgets live
inside the checks themselves; a failure here means the claim is broken, not
that a test was flaky: every check is seeded or deterministic.
"""

from mrey import verification


def _drive(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_01_closed_form_matches_quantization_roots():
    # >= 100 randomized valid levels, closed form vs independent root solve,
    # relative 1e-9, under a 10 s budget
    _drive(verification.check_oracle_equivalence)


def test_02_compact_and_long_forms_agree():
    # two independent codings of the level formula, 1e-12 on 1000 points
    _drive(verification.check_form_equivalence)


def test_03_special_case_reductions():
    # a3 = 0 and a1 = a2 = 0 reductions each match their own code path
    _drive(verification.check_special_cases)


def test_04_coulomb_limit():
    # screened spectrum approaches -1/(2(n+1)^2) as alpha -> 0
    _drive(verification.check_coulomb_limit)


def test_05_ground_state_anchor_value():
    # hand-computed -0.28125 for the unit-coupling screened Coulomb well
    _drive(verification.check_anchor)


def test_06_table_diagnostics():
    # E <= Q1 bound, infeasible-fit verdict on the positive-entry fixture,
    # and the -0.0625 constant second difference for Q3 = 0
    _drive(verification.check_table_diagnostics)


def test_07_thermodynamic_identities():
    # F = U - TS, analytic C vs finite differences, C >= 0, Z(beta->0) -> lambda
    _drive(verification.check_thermo_identities)


def test_08_quadrature_routes():
    # Dawson closed form and direct quadrature agree to 1e-10 on Z; where
    # double precision cannot resolve that, each sits within 2x its round-off
    # floor of the 40-digit reference; constant-spectrum closed forms reproduced
    _drive(verification.check_quadrature_routes)


def test_09_wavefunction_suite():
    # normalization, node counts, ODE residual, exponent identity
    _drive(verification.check_wavefunctions)


def test_10_figure_series():
    # ten sweep CSVs generated end to end with provable monotonicity
    _drive(verification.check_figures)


def test_11_energy_trends():
    # level ordering in n and l on representative parameter sets
    _drive(verification.check_trends)
