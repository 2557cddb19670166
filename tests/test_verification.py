"""The acceptance checks' verdict rule, their list, and `mrey verify`'s exit code.

A check passes only if every measured value is within its limit and it has
no structural problem, so a NaN from any compared route must fail it.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

from mrey import cli, verification

_CHECK_NAMES = (
    "oracle_equivalence", "form_equivalence", "special_cases", "coulomb_limit",
    "anchor", "table_diagnostics", "thermo_identities", "quadrature_routes",
    "wavefunctions", "figures", "trends",
)


def _nan(*args, **kwargs):
    return math.nan


def _nan_energy(real):
    return lambda *args: replace(real(*args), energy=math.nan)


@pytest.mark.parametrize("check, route, fake", [
    ("check_oracle_equivalence", "solve_bound_state", _nan),
    ("check_form_equivalence", "energy_long_form", _nan),
    ("check_special_cases", "energy_manning_rosen", _nan),
    ("check_coulomb_limit", "energy", _nan_energy(verification.energy)),
    ("check_table_diagnostics", "compact_energy", _nan),
    ("check_thermo_identities", "thermo.thermo_direct", lambda inp: (math.nan,) * 3),
    ("check_quadrature_routes", "_mp_log_partition", _nan),
    ("check_wavefunctions", "ode_residual", _nan),
    ("check_wavefunctions", "_recheck_norm", _nan),
])
def test_nan_from_a_compared_route_fails_the_check(monkeypatch, check, route, fake):
    owner, _, name = route.rpartition(".")
    monkeypatch.setattr(getattr(verification, owner) if owner else verification, name, fake)
    result = getattr(verification, check)()
    assert not result.passed, f"{result.name}: {result.detail}"
    assert "nan" in result.detail


@pytest.mark.parametrize("measured, limit, problems, passed", [
    (0.5, "< 1", [], True), (1.0, "< 1", [], False), (1.0, "<= 1", [], True),
    (0.01, ">= 0.01", [], True), (0.0, ">= 0.01", [], False),
    (math.nan, "<= 1", [], False), (math.nan, ">= 0", [], False),
    ((0.5, math.nan), "< 1", [], False), (0.5, "< 1", ["broken"], False),
])
def test_verdict_rule(measured, limit, problems, passed):
    result = verification._verdict("rule", 0.0, [("value {}", measured, limit)], problems)
    assert result.passed is passed


def test_check_list_is_complete_and_driven():
    # the benchmark keys its per-check metrics on these names and this order
    listed = [check.__name__ for check in verification._ALL_CHECKS]
    assert listed == [f"check_{name}" for name in _CHECK_NAMES]
    defined = [name for name, obj in vars(verification).items()
               if name.startswith("check_") and callable(obj)]
    assert sorted(defined) == sorted(listed)
    drivers = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    for name in listed:
        assert f"_drive(verification.{name})" in drivers, name


def test_verify_exits_1_on_a_failing_check(monkeypatch, capsys):
    def passing():
        return verification.CheckResult("stub-pass", True, "fine", 0.0)

    def failing():
        return verification.CheckResult("stub-fail", False, "gap nan (fails <= 1)", 0.0)

    monkeypatch.setattr(verification, "_ALL_CHECKS", (passing, failing))
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["PASS stub-pass: fine", "FAIL stub-fail: gap nan (fails <= 1)",
                     "1/2 checks passed"]
