"""The benchmark workloads: inputs, ops, and correctness checks.

Every workload is a closed loop with one caller.  Inputs come only from the
seed (numpy's PCG64); the library sees nothing but the generated values.
Ops are grouped in rounds of fresh seeded inputs, stratified so that every
round has the same mix of costs.  ``Op.again(shift)`` gives the same op on
couplings scaled by ``1 + shift * PASS_STEP``: an input of the same cost
that no cache of earlier results can answer, for the measurement's repeat
passes.  A workload may also have fixed ops (``fixed_ops``) that run once
per measurement, after the timed passes.

Every seeded and fixed op succeeds at baseline.  The inputs on which the
library is known to fail are not ops: ``probes`` runs them in a traced run
only, and the number still failing is a per-layer figure, so a fix shows
there without a failing op in any run.

An op's ``run`` never raises: library exceptions are caught and kept in the
op's result, so a failing input is counted, not fatal.  ``check`` runs after
the timed passes and returns ``(failed_units, wrong)``: the units of the op
that failed (raised, returned NaN or missed a check) and the check misses.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import subprocess
import sys

import numpy as np

import mrey
from mrey import thermo, verification

from oracles import log_partition_mp

CONSTS = mrey.PhysicalConstants()
EPS = float(np.finfo(float).eps)
# relative change of the couplings from one pass over the same ops to the next
PASS_STEP = 1e-6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _params(x1, x2, x3, alpha) -> mrey.PotentialParams:
    """Couplings from dimensionless (x1, x2, x3) at hbar = mu = 1."""
    x1, x2, x3, alpha = float(x1), float(x2), float(x3), float(alpha)
    h2a2 = alpha * alpha
    return mrey.PotentialParams(
        a1=x1 * h2a2 / 2.0, a2=x2 * h2a2 / 2.0, a3=x3 * alpha / 2.0, alpha=alpha
    )


def _x(params: mrey.PotentialParams):
    h2a2 = params.alpha**2
    return 2.0 * params.a1 / h2a2, 2.0 * params.a2 / h2a2, 2.0 * params.a3 / params.alpha


def _shifted(params: mrey.PotentialParams, shift: int) -> mrey.PotentialParams:
    """The couplings scaled by 1 + shift * PASS_STEP (alpha kept)."""
    if not shift:
        return params
    scale = 1.0 + shift * PASS_STEP
    return mrey.PotentialParams(params.a1 * scale, params.a2 * scale, params.a3 * scale,
                                params.alpha)


class Op:
    """One call the benchmark times.  ``check``, when given, replaces the
    workload's own check for this op's result; ``again(shift)``, when given,
    makes the op's repeat on shifted couplings."""

    def __init__(self, label, fn, units=1, check=None, again=None):
        self.label = label
        self.fn = fn
        self.units = units
        self.check = check
        self.again = again

    def run(self):
        return self.fn()


# ---------------------------------------------------------------- thermo-sweep

BETA_GRID = tuple(float(b) for b in np.geomspace(0.1, 100.0, 20))
LAMBDA_GRID = tuple(float(v) for v in np.linspace(1.0, 100.0, 34))
# (sweep, grid, fixed value, regime): beta sweeps at fixed lambda, lambda
# sweeps at fixed beta, so each op stays inside one regime
SWEEPS = tuple(
    [("beta", BETA_GRID, lam, cls) for lam, cls in (
        (1.0, "lambda_small"), (5.0, "lambda_small"), (20.0, "lambda_medium"),
        (100.0, "lambda_medium"), (700.0, "lambda_large"))]
    + [("lambda", LAMBDA_GRID, beta, "lambda_sweep") for beta in (0.1, 1.0, 10.0, 100.0)]
)
# (lambda, beta) on the default potential that succeeds about 150x slower
# than its neighbours: a fixed op
SLOW_POINT = (700.0, 69.5)
# (lambda, beta) on the default potential where the moments raise
# NumericalError: probes
FAILING_POINTS = ((1e-9, 1.0), (700.0, 1e4), (5000.0, 100.0), (700.0, 1000.0))
DEFAULT_POTENTIAL = mrey.PotentialParams(0.0, 0.0, 1.0, 0.5)


class ThermoSweep:
    """One op is one thermo_curve call; its units are the sweep's points."""

    name = "thermo-sweep"

    def __init__(self, seed, tracer, lib=mrey):
        self.tracer = tracer
        self.lib = lib
        rng = _rng(seed, 1)
        self.pool = []
        for i in range(len(SWEEPS) * 200):
            # Real-delta domain (radicand >= 0.6 at every l), stratified
            # so that every round has the same mix of cost drivers: slot
            # s of a round takes log-alpha stratum s, and (l, sign of Q3
            # = x2 - x3 + l(l+1)) runs through its eight combinations.
            # Above alpha ~ 0.3 the lambda = 700 sweep cost jumps 20x
            # under a 2% change of the couplings, so that regime is pinned
            # by the fixed slow point instead of being drawn at random.
            r, slot = divmod(i, len(SWEEPS))
            stratum = (slot + rng.uniform()) / len(SWEEPS)
            alpha = math.exp(math.log(0.01) + stratum * math.log(0.25 / 0.01))
            x1, x2 = rng.uniform(-0.05, 0.05, size=2)
            l = (slot + r) % 4
            if (slot + r) // 4 % 2 == 0:
                q3 = -math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            else:
                q3 = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
            self.pool.append((_params(x1, x2, x2 + l * (l + 1) - q3, alpha), l))

    def _op(self, potential, sweep, grid, fixed, cls, shift=0):
        params, l = potential
        with self.tracer.span("potential.spectral_coefficients"):
            coeffs = self.lib.spectral_coefficients(_shifted(params, shift), CONSTS, l)

        def fn():
            with self.tracer.span("thermo.thermo_curve", points=len(grid), cls=cls) as a:
                if sweep == "beta":
                    curve = self.lib.thermo.thermo_curve(coeffs, "beta", grid,
                                                         fixed_lambda=fixed)
                else:
                    curve = self.lib.thermo.thermo_curve(coeffs, "lambda", grid,
                                                         fixed_beta=fixed)
                a["failed_points"] = len(curve.errors)
            return coeffs, curve

        label = f"{sweep}-sweep {cls} fixed={fixed:g}"
        return Op(label, fn, units=len(grid),
                  again=lambda j: self._op(potential, sweep, grid, fixed, cls, j))

    def _point_op(self, lam, beta):
        return self._op((DEFAULT_POTENTIAL, 0), "beta", (beta,), lam, "hard")

    def warmup_op(self):
        return self._op((DEFAULT_POTENTIAL, 0), *SWEEPS[0])

    def rounds(self):
        """Round r gives each of the nine sweeps to one potential, one per
        alpha stratum, pairing sweep k with stratum (k + r) mod 9."""
        size = len(SWEEPS)
        for r in itertools.count():
            start = size * (r % (len(self.pool) // size))
            yield [self._op(self.pool[start + (k + r) % size], *SWEEPS[k])
                   for k in range(size)]

    def fixed_ops(self):
        # A traced run also runs the acceptance checks, the oracle side of
        # this layer, for the verification layer's figures.
        return [self._point_op(*SLOW_POINT)] + (
            acceptance_ops(self.tracer) if self.tracer.enabled else [])

    def probes(self):
        return [self._point_op(lam, beta) for lam, beta in FAILING_POINTS]

    def check(self, op, result, oracle=True):
        """Every point: finite, C >= 0 and F = U - S/beta; with ``oracle``,
        also ln Z against the independent references."""
        coeffs, curve = result
        failed, wrong = 0, []
        for i, value in enumerate(curve.grid):
            beta = value if curve.sweep == "beta" else curve.fixed_beta
            lam = value if curve.sweep == "lambda" else curve.fixed_lambda
            row = (curve.u[i], curve.s[i], curve.f[i], curve.c[i])
            if not all(math.isfinite(v) for v in row):
                failed += 1
                continue
            u, s, f, c = row
            miss = _thermo_miss(coeffs, lam, beta, u, s, f, c, oracle)
            if miss:
                failed += 1
                wrong.append(f"{op.label} lambda={lam:g} beta={beta:g}: {miss}")
        return failed, wrong


def _thermo_miss(coeffs, lam, beta, u, s, f, c, oracle):
    if c < 0.0:
        return f"negative C {c:.3e}"
    if abs(f - (u - s / beta)) > 1e-9 * max(1.0, abs(f)):
        return f"F - (U - S/beta) = {f - (u - s / beta):.3e}"
    if not oracle:
        return None
    ln_z = -beta * f
    floor = 4.0 * EPS * max(1.0, abs(ln_z))
    if floor <= 1e-10:
        try:
            ref = thermo.log_partition_direct(thermo.ThermoInput(coeffs, lam, beta))
            if abs(ln_z - ref) < 1.0 and abs(math.expm1(ln_z - ref)) <= 1e-10:
                return None
        except mrey.NumericalError:
            pass
        # the direct route missed or failed: settle it in 40-digit arithmetic
        ref = log_partition_mp(coeffs, lam, beta)
        gap = abs(math.expm1(ln_z - ref)) if abs(ln_z - ref) < 1.0 else math.inf
        return None if gap <= 1e-10 else f"ln Z gap {gap:.2e} to the 40-digit reference"
    ref = log_partition_mp(coeffs, lam, beta)
    if abs(ln_z - ref) > 2.0 * floor:
        return f"ln Z {abs(ln_z - ref):.2e} from the 40-digit reference (floor {floor:.1e})"
    return None


# ---------------------------------------------------------------- levels-waves

# Known failures, run as probes.  The deep well at a few n up to 150:
DEEP_WELL = mrey.PotentialParams(0.0, 0.0, 2000.0, 0.01)
DEEP_NS = (0, 50, 100, 150)
# Levels found failing in a seeded sweep of alpha in [0.01, 0.5], a3 in
# [1, 100], l <= 3: build_wave quad non-convergence, count_nodes
# ResolutionError, and a node count that comes back wrong without an error.
KNOWN_BAD_LEVELS = (
    (mrey.PotentialParams(0.00018034108256850278, -0.0003047104113244009,
                          54.57323831627239, 0.12214066435125673), 0, 2),
    (mrey.PotentialParams(9.841691298364683e-08, -2.2338228310324652e-07,
                          91.79960954609237, 0.011497931669835109), 4, 0),
    (mrey.PotentialParams(1.9555538494703054e-05, -2.589938200401326e-05,
                          82.30161341989387, 0.03235739230426554), 1, 0),
)
# A well deeper than a3 ~ 2.5, where fit_couplings lands in a wrong minimum.
FIT_MISS_WELL = _params(0.01, -0.02, 200.0, 0.1)
# A level whose default node grid has 2.56 million points (about 200 MB):
# a fixed op that sets the workload's peak memory, which would otherwise
# depend on whether a seeded well happens to reach such a grid.
WIDE_GRID_LEVEL = (mrey.PotentialParams(0.0036724229781890647, -0.006925512500891054,
                                        14.408440675893315, 0.7926014403840177), 5, 0)
# a well with several valid levels in every channel l <= 1
WARMUP_POTENTIAL = mrey.PotentialParams(0.0, 0.0, 5.0, 0.5)
ROUND_SIZE = 3
ODE_LIMIT = 1e-6


class LevelsWaves:
    """One op analyses one seeded potential: table, NU roots, waves, fit."""

    name = "levels-waves"

    def __init__(self, seed, tracer, lib=mrey):
        self.tracer = tracer
        self.lib = lib
        self.fit_misses = 0
        rng = _rng(seed, 2)
        self.pool = []
        for i in range(2000):
            # Wells with a3 in [1, 2] and alpha in [0.01, 0.03]: dimensionless
            # depth x3 = 2 a3 / alpha from 67 to 400, so 18 to 24 of the 24
            # table rows are valid and waves are most of an op.  Shallower
            # wells have levels just below threshold, where build_wave's tail
            # quadrature can fail; above a3 ~ 2.5 fit_couplings misses (both
            # are probes).  The cost grows with a3, so log a3 is stratified:
            # slot s of each round takes stratum s.
            stratum = (i % ROUND_SIZE + rng.uniform()) / ROUND_SIZE
            a3 = math.exp(stratum * math.log(2.0))
            alpha = math.exp(rng.uniform(math.log(0.01), math.log(0.03)))
            x1, x2 = rng.uniform(-0.05, 0.05, size=2)
            self.pool.append(_params(x1, x2, 2.0 * a3 / alpha, alpha))

    def _wave(self, params, level, deep=False):
        """build_wave, then count_nodes on the default grid and ode_residual."""
        out = {"n": level.n, "l": level.l}
        try:
            with self.tracer.span("wavefunction.build_wave", deep=deep):
                wave = self.lib.build_wave(params, CONSTS, level)
        except Exception as exc:  # a bare exception is a finding, not a crash
            out["error"] = f"build_wave {type(exc).__name__}: {exc}"
            return out
        try:
            with self.tracer.span("wavefunction.count_nodes"):
                out["nodes"] = self.lib.count_nodes(wave, self.lib.default_node_grid(wave))
        except Exception as exc:
            out["error"] = f"count_nodes {type(exc).__name__}: {exc}"
        try:
            with self.tracer.span("wavefunction.ode_residual"):
                out["ode"] = self.lib.wavefunction.ode_residual(wave)
        except Exception as exc:
            out["error"] = f"ode_residual {type(exc).__name__}: {exc}"
        return out

    def _analysis(self, base, shift=0):
        params = _shifted(base, shift)

        def fn():
            with self.tracer.span("spectrum.spectrum_table") as a:
                table = self.lib.spectrum_table(params, CONSTS, 5, 3)
                valid = [r for r in table.rows if r.valid_bound_state]
                a["rows"], a["valid"] = len(table.rows), len(valid)
            roots = []
            for level in valid:
                try:
                    with self.tracer.span("nu.solve_bound_state"):
                        roots.append(self.lib.nu.solve_bound_state(params, CONSTS,
                                                                   level.n, level.l))
                except Exception as exc:
                    roots.append(f"{type(exc).__name__}: {exc}")
            waves = [self._wave(params, level) for level in valid]
            report = None
            if valid:
                try:
                    with self.tracer.span("recovery.fit_couplings") as a:
                        report = self.lib.fit_couplings(
                            [(r.n, r.l, r.energy) for r in valid], params.alpha, CONSTS
                        )
                        a["converged"] = report.converged
                except Exception as exc:
                    report = f"{type(exc).__name__}: {exc}"
            return params, valid, roots, waves, report

        return Op(f"analysis {params}", fn, again=lambda j: self._analysis(base, j))

    def _level_op(self, params, n, l, deep=False):
        def fn():
            with self.tracer.span("spectrum.energy"):
                level = self.lib.energy(params, CONSTS, n, l)
            return params, [level], None, [self._wave(params, level, deep)], None

        return Op(f"level n={n} l={l} {params}", fn)

    def warmup_op(self):
        return self._analysis(WARMUP_POTENTIAL)

    def rounds(self):
        for r in itertools.count():
            start = ROUND_SIZE * (r % (len(self.pool) // ROUND_SIZE))
            yield [self._analysis(p) for p in self.pool[start:start + ROUND_SIZE]]

    def fixed_ops(self):
        return [self._level_op(*WIDE_GRID_LEVEL)]

    def probes(self):
        return ([self._level_op(DEEP_WELL, n, 0, deep=True) for n in DEEP_NS]
                + [self._level_op(p, n, l) for p, n, l in KNOWN_BAD_LEVELS]
                + [self._analysis(FIT_MISS_WELL)])

    def check(self, op, result, oracle=True):
        """Every check here is cheap, so every pass gets all of them."""
        params, valid, roots, waves, report = result
        misses = []
        for i, level in enumerate(valid):
            if roots is not None:
                root = roots[i]
                if isinstance(root, str):
                    misses.append(f"solve_bound_state {root}")
                elif abs(root - level.energy) > 1e-9 * abs(level.energy):
                    misses.append(f"NU root {root!r} vs closed form {level.energy!r}")
            wave = waves[i]
            where = f"n={level.n} l={level.l}"
            if "nodes" in wave and wave["nodes"] != level.n:
                misses.append(f"{wave['nodes']} nodes at {where}")
            if "ode" in wave and not wave["ode"] < ODE_LIMIT:
                misses.append(f"ODE residual {wave['ode']:.2e} at {where}")
        if valid and report is not None and _fit_miss(params, valid, report):
            self.fit_misses += 1
            misses.append(f"fit_couplings missed: {getattr(report, 'verdict', report)}")
        errors = [w["error"] for w in waves if "error" in w]
        # an exception fails the op; a wrong value also makes it wrong
        return (1 if misses or errors else 0), [f"{op.label}: {m}" for m in misses]


def _fit_miss(params, valid, report) -> bool:
    """True when the fit fails to recover the identifiable combinations
    (three or more rows) or, with fewer rows, to reproduce them."""
    if isinstance(report, str):
        return True
    if len(valid) < 3:
        scale = max(1.0, max(abs(r.energy) for r in valid))
        return not report.rms <= 1e-8 * scale
    x1, x2, x3 = _x(params)
    return not (
        abs(report.x1_plus_x2 - (x1 + x2)) <= 1e-6
        and abs(report.x2_minus_x3 - (x2 - x3)) <= 1e-6 * max(1.0, abs(x2 - x3))
    )


# ---------------------------------------------------------------- the CLI

CLI_ROUND = ("spectrum1", "spectrum", "table", "wavefunction", "figures", "recover")
# one level: the first command of the round
CLI_WARMUP = ("spectrum", "--n", "0", "--l", "0")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


class _NanOutput(Exception):
    """The output holds NaN where the library also fails: a failure, not a
    wrong value."""


def cli_round(seed, tracer, workdir, env):
    """The six commands, one fresh ``python -m mrey`` process each, run one at
    a time on one seeded potential, writing into ``workdir``: fixed ops of a
    traced run, each with its own check against library calls."""
    rng = _rng(seed, 3)
    # every channel l <= 3 has a real delta and (n, l) = (0, 0) binds
    alpha = rng.uniform(0.1, 0.5)
    x1, x2 = rng.uniform(-0.05, 0.05, size=2)
    params = _params(x1, x2, 2.0 * rng.uniform(1.0, 5.0) / alpha, alpha)
    # --flag=value: argparse reads "-2e-05" after a space as an option
    flags = [f"--{name}={getattr(params, name)!r}" for name in ("a1", "a2", "a3", "alpha")]
    commands = {
        "spectrum1": [*CLI_WARMUP, *flags],
        "spectrum": ["spectrum", "--output-dir", workdir, *flags],
        "table": ["table", "--output-dir", workdir, *flags],
        "wavefunction": ["wavefunction", "--output-dir", workdir, *flags],
        "figures": ["figures", "--output-dir", workdir, *flags],
        "recover": ["recover-params", "--input", os.path.join(workdir, "session_table.csv"),
                    "--output-dir", workdir, *flags],
    }

    def op(kind):
        argv = [sys.executable, "-m", "mrey", *commands[kind]]

        def fn():
            if kind == "recover":
                _write_session_table(workdir)
            try:
                with tracer.span(f"cli.{kind}"):
                    return subprocess.run(argv, capture_output=True, text=True, env=env,
                                          timeout=60)
            except subprocess.TimeoutExpired:
                return None

        def verdict(proc):
            if proc is None or proc.returncode != 0:
                return 1, []
            try:
                miss = _CLI_CHECKS[kind](params, workdir, proc.stdout)
            except _NanOutput:
                return 1, []
            except (OSError, ValueError, IndexError, KeyError, mrey.MreyError) as exc:
                miss = f"unreadable output: {type(exc).__name__}: {exc}"
            return (1, [f"{kind} {params}: {miss}"]) if miss else (0, [])

        return Op(f"{kind} {params}", fn, check=verdict)

    return [op(kind) for kind in CLI_ROUND]


def _write_session_table(out):
    """The recover op's input: the valid rows of the session's spectrum file."""
    _, rows = _read_csv(os.path.join(out, "spectrum.csv"))
    with open(os.path.join(out, "session_table.csv"), "w", encoding="utf-8") as fh:
        fh.write("n,l,E\n")
        for n, l, e, valid in rows:
            if valid == "true":
                fh.write(f"{n},{l},{e}\n")


def _check_spectrum1(params, out, stdout):
    level = mrey.energy(params, CONSTS, 0, 0)
    text = stdout.strip()
    value, _, status = text.removeprefix("E = ").partition(", ")
    want = "valid" if level.valid_bound_state else ("marginal" if level.marginal else "invalid")
    if status != want or not _close(float(value), level.energy, 1e-11):
        return f"printed {text!r}, library E = {level.energy!r} ({want})"
    return None


def _check_levels_file(path, params):
    header, rows = _read_csv(path)
    table = mrey.spectrum_table(params, CONSTS, 5, 3)
    want = {(r.n, r.l): r for r in table.rows}
    if header != ["n", "l", "E", "valid"] or len(rows) != len(want):
        return f"{path}: header {header}, {len(rows)} rows"
    for n, l, e, valid in rows:
        level = want[(int(n), int(l))]
        if not _close(float(e), level.energy, 1e-13):
            return f"{path}: E({n},{l}) = {e}, library {level.energy!r}"
        if (valid == "true") != level.valid_bound_state:
            return f"{path}: validity of ({n},{l})"
    return None


def _check_spectrum(params, out, stdout):
    return _check_levels_file(os.path.join(out, "spectrum.csv"), params)


def _check_table(params, out, stdout):
    path = os.path.join(out, f"table_alpha{format(params.alpha, 'g')}.csv")
    return _check_levels_file(path, params)


def _check_wavefunction(params, out, stdout):
    _, rows = _read_csv(os.path.join(out, "wavefunction_n0_l0.csv"))
    r = np.array([float(row[0]) for row in rows])
    psi = np.array([float(row[1]) for row in rows])
    wave = mrey.build_wave(params, CONSTS, mrey.energy(params, CONSTS, 0, 0))
    want = wave.psi(r)
    gap = float(np.max(np.abs(psi - want)) / np.max(np.abs(want)))
    if len(rows) != 1001 or not gap <= 1e-9:
        return f"psi differs from the library by {gap:.2e} over {len(rows)} rows"
    return None


def _check_figures(params, out, stdout):
    coeffs = mrey.spectral_coefficients(params, CONSTS, 0)
    curves = {
        "beta": thermo.thermo_curve(coeffs, "beta", BETA_GRID,
                                    fixed_lambda=mrey.lambda_max(coeffs)),
        "lambda": thermo.thermo_curve(coeffs, "lambda", LAMBDA_GRID,
                                      fixed_beta=BETA_GRID[0]),
    }
    if not os.path.exists(os.path.join(out, "figures_config.json")):
        return "figures_config.json missing"
    for index, quantity in enumerate("zuscf"):
        for offset, sweep in ((1, "beta"), (6, "lambda")):
            path = os.path.join(out, f"fig{index + offset:02d}_{quantity}_vs_{sweep}.csv")
            header, rows = _read_csv(path)
            if header != ["beta", "lambda", "Z", "U", "S", "F", "C"]:
                return f"{path}: header {header}"
            curve = curves[sweep]
            for i, row in enumerate(rows):
                beta, _, z, u, s, f, c = (float(v) for v in row)
                if math.isnan(curve.u[i]) and math.isnan(u):
                    raise _NanOutput(path)
                for got, want in ((z, curve.z[i]), (u, curve.u[i]), (s, curve.s[i]),
                                  (f, curve.f[i]), (c, curve.c[i])):
                    if not (got == want or _close(got, want, 1e-12)):
                        return f"{path} row {i}: {got!r} vs library {want!r}"
                if abs(f - (u - s / beta)) > 1e-9 * max(1.0, abs(f)) or c < 0.0:
                    return f"{path} row {i}: F = U - S/beta or C >= 0 fails"
    return None


def _check_recover(params, out, stdout):
    _, rows = _read_csv(os.path.join(out, "session_table.csv"))
    table = [(int(n), int(l), float(e)) for n, l, e in rows]
    report = mrey.fit_couplings(table, params.alpha, CONSTS)
    _, fitted = _read_csv(os.path.join(out, "recovery.csv"))
    if len(fitted) != len(table):
        return f"{len(fitted)} fitted rows for {len(table)} table rows"
    for row, want in zip(fitted, report.fitted):
        if not _close(float(row[3]), want, 1e-9):
            return f"E_fit {row[3]} vs library {want!r}"
    if f"x1+x2 = {report.x1_plus_x2:.12g}" not in stdout:
        return "identifiable combinations differ from the library fit"
    return None


_CLI_CHECKS = {
    "spectrum1": _check_spectrum1,
    "spectrum": _check_spectrum,
    "table": _check_table,
    "wavefunction": _check_wavefunction,
    "figures": _check_figures,
    "recover": _check_recover,
}


# ---------------------------------------------------------------- acceptance checks

def acceptance_ops(tracer):
    """One op per acceptance check, in the order ``run_all`` uses.  The
    checks carry their own fixed inputs."""

    def op(check):
        name = check.__name__.removeprefix("check_")

        def fn():
            with tracer.span("verification.check", check=name) as a:
                try:
                    result = check()
                except Exception as exc:
                    a["failed"] = True
                    return f"{type(exc).__name__}: {exc}"
                a["failed"] = not result.passed
            return result

        def verdict(result):
            if isinstance(result, str) or not result.passed:
                detail = result if isinstance(result, str) else result.detail
                return 1, [f"{name}: {detail}"]
            return 0, []

        return Op(name, fn, check=verdict)

    return [op(check) for check in verification._ALL_CHECKS]


WORKLOADS = {w.name: w for w in (ThermoSweep, LevelsWaves)}
