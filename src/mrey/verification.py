"""Self-contained acceptance checks, shared by the CLI and the test suite.

Each check returns a CheckResult instead of asserting, so the CLI can print
a report and the tests can both print and assert.  The checks are the
load-bearing validation of the package: closed forms against an independent
root solver, independently coded formula variants against each other,
closed-form thermodynamics against quadrature (escalating to high-precision
arithmetic where double precision provably cannot resolve the comparison),
and structural contracts of the command-line artifacts.

One rule, in _verdict, decides every check: it passes only if every
measured value is within its limit and it has no structural problem (a
wrong node count, a missing file, a feasible fixture).  Each limit is
written once and printed beside its measured value; a NaN fails, because
every worst value is taken with np.max or np.min, which keep a NaN.
"""

from __future__ import annotations

import math
import operator
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import thermo
from .errors import DomainError
from .nu import solve_bound_state
from .potential import (
    PhysicalConstants,
    PotentialParams,
    SpectralCoefficients,
    spectral_coefficients,
)
from .recovery import fit_couplings
from .spectrum import (
    compact_energy,
    energy,
    energy_long_form,
    energy_manning_rosen,
    energy_yukawa,
    spectrum_table,
)
from .wavefunction import build_wave, count_nodes, default_node_grid, ode_residual

_SEED = 20260814
_DEFAULT_POTENTIAL = PotentialParams(a1=0.0, a2=0.0, a3=1.0, alpha=0.5)
_CONSTS = PhysicalConstants()

# Deep-well companion to the default potential: four strictly valid levels
# at l = 0, used wherever a check needs several bound states.
_DEEP_POTENTIAL = PotentialParams(a1=0.0, a2=0.0, a3=5.0, alpha=0.5)

# Deeper still: valid levels at every l <= 3, for cross-l comparisons of
# genuine bound states.
_DEEPER_POTENTIAL = PotentialParams(a1=0.0, a2=0.0, a3=20.0, alpha=0.5)

# Shallow-well set with Q3 > 0 and sqrt(Q3) < delta at every l <= 3, so the
# raw closed-form values fall monotonically with n in every channel.
_TREND_POTENTIAL = PotentialParams(a1=0.0, a2=0.025, a3=0.01, alpha=0.5)

# Positive l = 0 entries make this six-row fixture unreachable by any
# couplings (the l = 0 bound is E <= 0); its second differences are exactly
# -0.0625 under hbar = mu = 1, alpha = 0.5.
_TABLE_FIXTURE = (0.109375, 0.046875, -0.078125, -0.265625, -0.515625, -0.828125)

_IDENTITY_BETAS = tuple(np.geomspace(0.1, 100.0, 20))
_IDENTITY_LAMBDAS = (1.0, 5.0, 20.0, 100.0, 700.0)

# Sample sizes of the three random-point checks, and the working precision
# of the high-precision thermodynamic reference.
_ORACLE_LEVELS = 100
_FORM_POINTS = 1000
_SPECIAL_POINTS = 100
_MP_DPS = 40


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}

# Two codings of one closed form, or a closed form and its exact value,
# agree to rounding.
_ROUNDOFF = "<= 1e-12"


def _verdict(name, t0, rows=(), problems=(), notes=()) -> CheckResult:
    """The one pass/fail rule of every check.

    Each row is (text, measured, limit): measured is a value or a tuple of
    values, put into text by str.format; limit reads "< x", "<= x" or
    ">= x" and is printed as written.  The check passes only if every
    measured value is within its limit and there is no structural problem.
    Any comparison with NaN is False, so a NaN fails the check.
    """
    passed = not problems
    parts = list(problems[:4] if problems else notes)
    for text, measured, limit in rows:
        op, bound = limit.split()
        values = np.atleast_1d(measured)
        ok = bool(np.all(_COMPARE[op](values, float(bound))))
        passed = passed and ok
        parts.append(f"{text.format(*values)} ({'limit' if ok else 'fails'} {limit})")
    return CheckResult(name=name, passed=passed, detail="; ".join(parts),
                       elapsed=time.perf_counter() - t0)


def _rel(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a))


def _random_params(rng) -> PotentialParams:
    """Couplings inside the real-delta domain for every l.

    x1 and x2 are drawn small (radicand stays >= 0.6 at l = 0 and grows
    with l); a3 is drawn large enough that low-l levels often bind.
    """
    alpha = rng.uniform(0.1, 1.0)
    h2a2 = alpha * alpha
    x1 = rng.uniform(-0.05, 0.05)
    x2 = rng.uniform(-0.05, 0.05)
    a3 = rng.uniform(0.5, 5.0)
    return PotentialParams(
        a1=x1 * h2a2 / 2.0, a2=x2 * h2a2 / 2.0, a3=a3, alpha=alpha
    )


def _random_levels(seed):
    """Endless seeded (params, n, l) draws, n < 6 and l < 4 (checks 01-03)."""
    rng = np.random.default_rng(seed)
    while True:
        params = _random_params(rng)
        yield params, int(rng.integers(0, 6)), int(rng.integers(0, 4))


def check_oracle_equivalence() -> CheckResult:
    """Closed-form energies against independent numerical quantization roots."""
    t0 = time.perf_counter()
    gaps = []
    draws = 200 * _ORACLE_LEVELS
    for params, n, l in islice(_random_levels(_SEED), draws):
        level = energy(params, _CONSTS, n, l)
        if level.valid_bound_state:
            e_oracle = solve_bound_state(params, _CONSTS, n, l)
            gaps.append(abs(level.energy - e_oracle) / abs(e_oracle))
            if len(gaps) == _ORACLE_LEVELS:
                break
    problems = [] if len(gaps) == _ORACLE_LEVELS else [
        f"could not sample {_ORACLE_LEVELS} valid levels in {draws} draws"]
    return _verdict(
        "oracle-equivalence", t0,
        [("worst relative gap {:.2e}", np.max(gaps, initial=0.0), "<= 1e-9"),
         ("runtime {:.1f}s", time.perf_counter() - t0, "< 10")],
        problems, [f"{len(gaps)} valid levels"],
    )


def check_form_equivalence() -> CheckResult:
    """Compact and long-form level expressions on random points."""
    t0 = time.perf_counter()
    gaps = [
        _rel(energy(params, _CONSTS, n, l).energy, energy_long_form(params, _CONSTS, n, l))
        for params, n, l in islice(_random_levels(_SEED + 1), _FORM_POINTS)
    ]
    return _verdict(
        "form-equivalence", t0,
        [("worst relative gap {:.2e}", np.max(gaps), _ROUNDOFF)],
        notes=[f"{_FORM_POINTS} points"],
    )


def check_special_cases() -> CheckResult:
    """Reductions onto the two single-family closed forms."""
    t0 = time.perf_counter()
    gaps_mr, gaps_yuk = [], []
    for params, n, l in islice(_random_levels(_SEED + 2), _SPECIAL_POINTS):
        mr_params = replace(params, a3=0.0)
        gaps_mr.append(_rel(energy(mr_params, _CONSTS, n, l).energy,
                            energy_manning_rosen(mr_params, _CONSTS, n, l)))
        yuk_params = replace(params, a1=0.0, a2=0.0)
        gaps_yuk.append(_rel(energy(yuk_params, _CONSTS, n, l).energy,
                             energy_yukawa(yuk_params, _CONSTS, n, l)))
    return _verdict(
        "special-case-reductions", t0,
        [("worst gaps {:.2e} (Manning-Rosen), {:.2e} (Yukawa)",
          (np.max(gaps_mr), np.max(gaps_yuk)), _ROUNDOFF)],
        notes=[f"{_SPECIAL_POINTS} points each"],
    )


def check_coulomb_limit() -> CheckResult:
    """Screening -> 0 approaches the hydrogenic spectrum linearly in alpha."""
    t0 = time.perf_counter()
    margins, notes = [], []
    for alpha in (1e-3, 1e-4):
        params = PotentialParams(a1=0.0, a2=0.0, a3=1.0, alpha=alpha)
        for n in (0, 1, 2):
            e = energy(params, _CONSTS, n, 0).energy
            gap = abs(e - (-1.0 / (2.0 * (n + 1) ** 2)))
            margins.append(gap / (5.0 * alpha))
            notes.append(f"n={n} alpha={alpha:g}: gap {gap:.2e}")
    return _verdict(
        "coulomb-limit", t0,
        [("worst gap / (5 alpha) = {:.3f}", np.max(margins), "<= 1")],
        notes=notes[:2],
    )


def check_anchor() -> CheckResult:
    """Hand-evaluated ground level of the default potential."""
    t0 = time.perf_counter()
    e = energy(_DEFAULT_POTENTIAL, _CONSTS, 0, 0).energy
    return _verdict(
        "hand-anchor", t0, [("gap {:.2e}", abs(e - (-0.28125)), _ROUNDOFF)],
        notes=[f"E(0,0) = {e!r}"],
    )


def check_table_diagnostics() -> CheckResult:
    """The published-style table values cannot come from the closed form.

    Three parts: the coupling-independent bound E <= Q1(l) (zero at l = 0)
    contradicts the positive fixture entries and the fit reports them
    infeasible with an irreducible residual; the fixture's second
    differences equal -2 Q2 = -0.0625; and the closed form reproduces that
    second-difference constant exactly for any Q3 = 0 configuration.
    """
    t0 = time.perf_counter()
    problems = []

    # E <= Q1 on random configurations, up to rounding
    rng = np.random.default_rng(_SEED + 3)
    excess = []
    for _ in range(200):
        params = _random_params(rng)
        for l in range(4):
            coeffs = spectral_coefficients(params, _CONSTS, l)
            for n in range(6):
                e = compact_energy(coeffs, float(n))
                excess.append((e - coeffs.q1) / max(1.0, abs(e)))

    report = fit_couplings(
        [(n, 0, e) for n, e in enumerate(_TABLE_FIXTURE)], alpha=0.5, consts=_CONSTS
    )
    if report.feasible:
        problems.append("fixture with positive l=0 entries labeled feasible")

    fixture_diff2 = {
        _TABLE_FIXTURE[i + 2] - 2.0 * _TABLE_FIXTURE[i + 1] + _TABLE_FIXTURE[i]
        for i in range(len(_TABLE_FIXTURE) - 2)
    }
    if fixture_diff2 != {-0.0625}:
        problems.append(f"fixture second differences {sorted(fixture_diff2)}")

    # Q3 = 0: x2 = x3 at l = 0, so E = Q1 - Q2 (n + delta)^2 and the
    # second difference is -2 Q2 for every n.
    q3zero = PotentialParams(a1=0.0, a2=0.01, a3=0.02, alpha=0.5)
    coeffs = spectral_coefficients(q3zero, _CONSTS, 0)
    levels = [compact_energy(coeffs, float(n)) for n in range(6)]
    diff2_gaps = [
        abs(levels[i + 2] - 2.0 * levels[i + 1] + levels[i] - (-2.0 * coeffs.q2))
        for i in range(4)
    ]
    return _verdict(
        "table-diagnostics", t0,
        [("worst (E - Q1) / max(1, |E|) {:.2e}", np.max(excess), _ROUNDOFF),
         ("infeasible fixture rms {:.2e}", report.rms, ">= 0.01"),
         ("constructed |Q3| {:.2e}", abs(coeffs.q3), "<= 1e-15"),
         ("worst second difference gap to -2 Q2 {:.2e}", np.max(diff2_gaps), _ROUNDOFF)],
        problems, [f"{len(excess)} random levels", "fixture second differences -0.0625"],
    )


def _identity_grid():
    coeffs = spectral_coefficients(_DEFAULT_POTENTIAL, _CONSTS, 0)
    for lam in _IDENTITY_LAMBDAS:
        for beta in _IDENTITY_BETAS:
            yield coeffs, lam, float(beta)


def check_thermo_identities() -> CheckResult:
    """F = U - TS, U and C against the direct moment quadrature, C >= 0, Z(0) = lambda."""
    t0 = time.perf_counter()
    gaps_f, gaps_u, gaps_c, heat = [], [], [], []
    for coeffs, lam, beta in _identity_grid():
        inp = thermo.ThermoInput(coeffs=coeffs, lam=lam, beta=beta)
        state = thermo.thermo_state(inp)
        _, u_direct, c_direct = thermo.thermo_direct(inp)
        gaps_f.append(_rel(state.f, state.u - state.s / beta))
        gaps_u.append(_rel(state.u, u_direct))
        gaps_c.append(abs(state.c - c_direct) / max(abs(state.c), 1e-300))
        heat.append(state.c)
    coeffs = spectral_coefficients(_DEFAULT_POTENTIAL, _CONSTS, 0)
    gaps_z0 = [
        abs(thermo.thermo_state(thermo.ThermoInput(coeffs, lam, 0.0)).z - lam) / lam
        for lam in _IDENTITY_LAMBDAS
    ]
    return _verdict(
        "thermo-identities", t0,
        [("F identity {:.2e}, U gap {:.2e}", (np.max(gaps_f), np.max(gaps_u)), "<= 1e-9"),
         ("C gap {:.2e}, Z(0) / lambda gap {:.2e}",
          (np.max(gaps_c), np.max(gaps_z0)), "<= 1e-6"),
         ("min C {:.2e}", np.min(heat), ">= 0"),
         ("runtime {:.1f}s", time.perf_counter() - t0, "< 60")],
        notes=[f"{len(heat)}-point grid"],
    )


def _mp_cuts(coeffs, lam, beta):
    """Endpoints, the stationary point of E and cuts at 4^k Boltzmann
    widths from each end, for mpmath's tanh-sinh panels."""
    cuts = {0.0, lam}
    n_star = math.sqrt(abs(coeffs.q3)) - coeffs.delta
    if 0.0 < n_star < lam:
        cuts.add(n_star)
    for end, sign in ((0.0, 1.0), (lam, -1.0)):
        rate = beta * abs(thermo._energy_slope(coeffs, end))
        width = 1.0 / rate if rate * lam > 1.0 else lam
        while width < lam:
            cuts.add(end + sign * width)
            width *= 4.0
    return sorted(cuts)


def _mp_moments(coeffs, lam, beta, count):
    """(e_ref, [S_0 .. S_{count-1}]) with S_m = integral g^m e^{-beta g} dn,
    g = E(n) - e_ref, by mpmath quadrature on _mp_cuts; call inside
    mpmath.workdps(_MP_DPS)."""
    import mpmath  # deferred: keeps it out of import mrey

    q1, q2, q3, delta, b = (mpmath.mpf(v) for v in (coeffs.q1, coeffs.q2, coeffs.q3,
                                                    coeffs.delta, beta))
    cuts = [mpmath.mpf(p) for p in _mp_cuts(coeffs, lam, beta)]

    def energy(n):
        return q1 - q2 * (n + delta + q3 / (n + delta)) ** 2

    e_ref = min(energy(p) for p in cuts)
    sums = [
        mpmath.quad(lambda n: (energy(n) - e_ref) ** m * mpmath.exp(-b * (energy(n) - e_ref)),
                    cuts)
        for m in range(count)
    ]
    return e_ref, sums


def _mp_thermo(coeffs, lam, beta):
    """(ln Z, U, C) at k = 1 from 40-digit quadrature of the n-space moments:
    the package's one high-precision thermodynamic reference, shared by
    check 08 (through _mp_log_partition) and the tests."""
    import mpmath

    with mpmath.workdps(_MP_DPS):
        b = mpmath.mpf(beta)
        e_ref, (s0, s1, s2) = _mp_moments(coeffs, lam, beta, 3)
        return (float(-b * e_ref + mpmath.log(s0)), float(e_ref + s1 / s0),
                float(b * b * (s2 / s0 - (s1 / s0) ** 2)))


def _mp_log_partition(coeffs, lam, beta):
    """The reference's ln Z alone, from S0 only (check 08)."""
    import mpmath

    with mpmath.workdps(_MP_DPS):
        e_ref, (s0,) = _mp_moments(coeffs, lam, beta, 1)
        return float(-mpmath.mpf(beta) * e_ref + mpmath.log(s0))


def check_quadrature_routes() -> CheckResult:
    """The closed-form (Dawson) ln Z and the direct quadrature agree.

    Where double precision cannot resolve 1e-10 on Z (4 eps |ln Z| exceeds
    the target), each double-precision route must instead sit within twice
    its round-off floor of the 40-digit reference ln Z.
    """
    t0 = time.perf_counter()
    target = 1e-10
    eps = np.finfo(float).eps
    gaps, drifts = [], []
    for coeffs, lam, beta in _identity_grid():
        inp = thermo.ThermoInput(coeffs=coeffs, lam=lam, beta=beta)
        ln_closed = thermo.thermo_state(inp).ln_z
        ln_direct = thermo.log_partition_direct(inp)
        diff = ln_closed - ln_direct
        floor = 4.0 * eps * max(1.0, abs(ln_direct))
        if floor <= target:
            gaps.append(abs(math.expm1(diff)) if abs(diff) < 1.0 else math.inf)
        else:
            ln_ref = _mp_log_partition(coeffs, lam, beta)
            drifts += [abs(value - ln_ref) / (2.0 * floor) for value in (ln_closed, ln_direct)]

    # constant spectrum: q2 = 0 collapses the closed forms
    const_coeffs = SpectralCoefficients(
        q1=0.7, q2=0.0, q3=-4.0, delta=1.0, radicand=1.0
    )
    const_gaps = []
    for lam, beta in ((3.0, 0.8), (10.0, 2.5)):
        state = thermo.thermo_state(thermo.ThermoInput(const_coeffs, lam, beta))
        z_exact = lam * math.exp(-beta * 0.7)
        const_gaps += [abs(state.z - z_exact) / z_exact, _rel(math.log(lam), state.s),
                       abs(state.c)]

    return _verdict(
        "quadrature-routes", t0,
        [("worst double-precision route gap {:.2e}, constant-spectrum Z, S, C gap {:.2e}",
          (np.max(gaps, initial=0.0), np.max(const_gaps)), f"<= {target:g}"),
         ("worst 40-digit drift / (2x floor) {:.2f}", np.max(drifts, initial=0.0), "<= 1")],
        notes=[f"{len(drifts) // 2} corner points verified in 40-digit arithmetic"],
    )


def _recheck_norm(wave) -> float:
    """Norm integral by Simpson in ln r from alpha r = 1e-12 (psi^2 holds under
    (1e-12 beta)^{2 zeta + 1} below, zeta >= 1/2) to 1.5 r_tail; no closed form."""
    from scipy.integrate import simpson

    u = np.linspace(math.log(1e-12 / wave.params.alpha), math.log(1.5 * wave.r_tail), 4001)
    r = np.exp(u)
    return float(simpson(wave.psi(r) ** 2 * r, x=u))


def check_wavefunctions() -> CheckResult:
    """Normalization, node counts, ODE residual, exponent identity."""
    t0 = time.perf_counter()
    problems, norm_gaps, residuals, zeta_gaps = [], [], [], []
    cases = [(_DEFAULT_POTENTIAL, (0,)), (_DEEP_POTENTIAL, (0, 1, 2, 3)),
             (PotentialParams(0.0, 0.0, 2000.0, 0.01), (0, 50, 100, 150))]
    for params, ns in cases:
        coeffs = spectral_coefficients(params, _CONSTS, 0)
        for n in ns:
            level = energy(params, _CONSTS, n, 0)
            if not level.valid_bound_state:
                problems.append(f"level n={n} of a3={params.a3:g} not valid")
                continue
            wave = build_wave(params, _CONSTS, level)
            norm_gaps.append(abs(_recheck_norm(wave) - 1.0))
            nodes = count_nodes(wave, default_node_grid(wave))
            if nodes != n:
                problems.append(f"{nodes} nodes at n={n}, a3={params.a3:g}")
            residuals.append(ode_residual(wave))
            zeta_gaps.append(abs(wave.zeta_exp - coeffs.delta))
    return _verdict(
        "wavefunction-suite", t0,
        [("worst norm gap {:.2e}", np.max(norm_gaps, initial=0.0), "<= 1e-8"),
         ("worst ODE residual {:.2e}", np.max(residuals, initial=0.0), "< 1e-6"),
         ("worst |zeta - delta| {:.2e}", np.max(zeta_gaps, initial=0.0), _ROUNDOFF)],
        problems, [f"{len(residuals)} states", "node counts equal n"],
    )


def _read_csv_columns(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, {
        name: np.array([float(row[i]) for row in rows])
        for i, name in enumerate(header)
    }


def check_figures() -> CheckResult:
    """The figures command end-to-end, plus provable monotonicity of Z."""
    t0 = time.perf_counter()
    problems = []
    expected = [f"fig{i:02d}_{q}_vs_beta.csv" for i, q in
                enumerate(("z", "u", "s", "c", "f"), start=1)]
    expected += [f"fig{i:02d}_{q}_vs_lambda.csv" for i, q in
                 enumerate(("z", "u", "s", "c", "f"), start=6)]
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "mrey", "figures", "--output-dir", tmp,
             "--lambda-fixed", "0.9"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            problems.append(f"figures exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        else:
            problems += [f"missing {name}" for name in expected + ["figures_config.json"]
                         if not os.path.exists(os.path.join(tmp, name))]
        if not problems:
            header, cols = _read_csv_columns(os.path.join(tmp, expected[0]))
            if header != ["beta", "lambda", "Z", "U", "S", "F", "C"]:
                problems.append(f"header {header}")
            if not np.all(np.diff(cols["beta"]) > 0.0):
                problems.append("beta grid not strictly increasing")
            # all levels on [0, 0.9] sit below zero, so Z must rise with beta
            if not np.all(np.diff(cols["Z"]) > 0.0):
                problems.append("Z not strictly increasing in beta")
            header, cols = _read_csv_columns(os.path.join(tmp, expected[5]))
            if not np.all(np.diff(cols["lambda"]) > 0.0):
                problems.append("lambda grid not strictly increasing")
            if not np.all(np.diff(cols["Z"]) > 0.0):
                problems.append("Z not strictly increasing in lambda")
            if np.any(cols["C"] < 0.0):
                problems.append("negative C on the lambda sweep")
    return _verdict("figure-generation", t0, problems=problems, notes=[
        "ten curve files plus config sidecar written; Z strictly increasing "
        "in lambda, and in beta on an all-negative-spectrum window"])


def check_trends() -> CheckResult:
    """Level trends matching the published tables, where each is provable.

    The falling-with-n column pattern is a theorem of the closed form for
    raw values whenever Q3 > 0 and sqrt(Q3) < delta, and shows up as
    strictly falling binding strength |E| on the valid window of a deep
    well.  The rising-with-l row pattern is a theorem for genuine bound
    states of a deep well, and holds for the default potential on its one
    valid row.  No single reading makes both patterns hold simultaneously
    on one set of signed valid levels; the diagnostics check documents why.
    """
    t0 = time.perf_counter()
    problems = []

    # shallow Q3 > 0 set: raw values fall with n in every channel
    table = spectrum_table(_TREND_POTENTIAL, _CONSTS, 5, 3)
    if table.errors:
        problems.append(f"trend set failed: {sorted(table.errors.items())[0]}")
    else:
        grid = {(row.n, row.l): row.energy for row in table.rows}
        for l in range(4):
            for n in range(5):
                if not grid[(n, l)] > grid[(n + 1, l)]:
                    problems.append(f"E not falling with n at l={l}, n={n}")

    # deep well: >= 3 valid levels per low-l channel; among valid levels,
    # signed E rises with l at fixed n and |E| falls with n at fixed l
    deep_table = spectrum_table(_DEEPER_POTENTIAL, _CONSTS, 5, 3)
    valid_grid = {
        (row.n, row.l): row.energy
        for row in deep_table.rows
        if row.valid_bound_state
    }
    per_l = {l: sorted(n for n, ll in valid_grid if ll == l) for l in range(4)}
    if len(per_l[0]) < 3 or len(per_l[1]) < 3:
        problems.append(f"deep set valid counts {[len(per_l[l]) for l in range(4)]}")
    for (n, l), e in valid_grid.items():
        if (n, l + 1) in valid_grid and not e < valid_grid[(n, l + 1)]:
            problems.append(f"valid E not rising with l at n={n}, l={l}")
    for l, ns in per_l.items():
        depths = [abs(valid_grid[(n, l)]) for n in ns]
        if not all(a > b for a, b in zip(depths, depths[1:])):
            problems.append(f"binding strength not falling at l={l}")

    # default potential: raw values fall once past the spectrum peak, and
    # its single valid row (n = 0) rises with l
    coeffs = spectral_coefficients(_DEFAULT_POTENTIAL, _CONSTS, 0)
    post_peak = [compact_energy(coeffs, float(n)) for n in range(1, 6)]
    if not all(a > b for a, b in zip(post_peak, post_peak[1:])):
        problems.append("default set not falling past the peak")
    ground_row = [
        energy(_DEFAULT_POTENTIAL, _CONSTS, 0, l).energy for l in range(4)
    ]
    if not all(a < b for a, b in zip(ground_row, ground_row[1:])):
        problems.append("default ground row not rising with l")

    return _verdict("trend-pattern", t0, problems=problems, notes=[
        f"raw values fall with n on the Q3 > 0 set (24 levels); deep set: "
        f"{len(valid_grid)} valid levels, E rises with l and |E| falls with n "
        f"throughout; default set falls past the peak and rises with l on "
        f"its valid row"])


_ALL_CHECKS = (
    check_oracle_equivalence,
    check_form_equivalence,
    check_special_cases,
    check_coulomb_limit,
    check_anchor,
    check_table_diagnostics,
    check_thermo_identities,
    check_quadrature_routes,
    check_wavefunctions,
    check_figures,
    check_trends,
)


def run_all() -> list:
    return [check() for check in _ALL_CHECKS]
