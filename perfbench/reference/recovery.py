"""Least-squares recovery of potential couplings from an energy table.

Given rows (n, l, E) at a known screening alpha, fit (A1, A2, A3) so the
closed-form spectrum reproduces the table.  The fit doubles as a diagnostic:
every level obeys E <= Q1(l) = hbar^2 alpha^2 l(l+1) / (2 mu), and Q1 does
not involve the couplings, so a row above that bound is unreachable by any
coupling choice and the report says so instead of pretending the residual
is merely large.

The optimizer itself is scipy's trust-region least_squares.  Infeasible
coupling regions (negative delta radicand) are handled by clamping the
radicand at zero inside the model and adding a smooth one-sided penalty
per l channel, which pushes iterates back into the physical domain without
exceptions mid-optimization.

The spectrum constrains the couplings only through the two dimensionless
combinations x1 + x2 and x2 - x3, so three raw couplings are one gauge
direction short of identifiable.  A small ridge term selects the
minimum-norm representative deterministically; the report carries the two
identifiable combinations alongside the representative couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError
from .potential import PhysicalConstants, PotentialParams, QuantumNumbers

# Penalty weight for a negative delta radicand; large against typical
# energy residuals so the optimum sits in the physical domain.
_RADICAND_PENALTY = 1e3

# Ridge weight; breaks the gauge degeneracy without disturbing the fit
# (contributes ~1e-12 |A|^2 to the cost).
_RIDGE = 1e-6

# Deterministic multi-start points in (A1, A2, A3); the cost surface has
# local minima when rows conflict, one start is not enough.
_STARTS = (
    (0.0, 0.0, 1.0),
    (0.0, 0.0, 0.1),
    (0.1, 0.1, 0.1),
    (0.0, 0.5, 0.0),
    (0.5, 0.0, 0.0),
    (-0.1, 0.1, 0.5),
    (0.2, -0.2, 1.0),
    (1.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class TableRow:
    n: int
    l: int
    energy: float

    def __post_init__(self):
        QuantumNumbers(self.n, self.l)
        if not math.isfinite(self.energy):
            raise DomainError(f"table energy must be finite, got {self.energy!r}")


@dataclass(frozen=True)
class RecoveryReport:
    params: PotentialParams
    alpha: float
    rows: tuple
    fitted: tuple          # model energies at the fitted couplings
    residuals: tuple       # fitted - target, per row
    rms: float
    max_abs_residual: float
    x1_plus_x2: float      # identifiable combination fixing delta
    x2_minus_x3: float     # identifiable combination fixing Q3
    infeasible_rows: tuple  # indices with E > Q1(l), unreachable outright
    feasible: bool
    converged: bool
    verdict: str


def channel_bound(l: int, alpha: float, consts: PhysicalConstants) -> float:
    """Q1(l): hard upper bound on any bound-state energy in channel l."""
    return (consts.hbar * alpha) ** 2 * l * (l + 1) / (2.0 * consts.mu)


def _model_energies(x, rows, alpha, consts):
    """Closed-form E for each row with the radicand clamped at zero.

    Returns (energies, penalties) where penalties hold one entry per
    distinct l, zero inside the physical domain.
    """
    a1, a2, a3 = x
    h2a2 = (consts.hbar * alpha) ** 2
    x1 = 2.0 * consts.mu * a1 / h2a2
    x2 = 2.0 * consts.mu * a2 / h2a2
    x3 = 2.0 * consts.mu * a3 / (consts.hbar**2 * alpha)
    q2 = h2a2 / (8.0 * consts.mu)

    energies = []
    penalties = {}
    for row in rows:
        ll1 = float(row.l * (row.l + 1))
        radicand = 1.0 + 4.0 * ll1 - 4.0 * x1 - 4.0 * x2
        penalties.setdefault(row.l, _RADICAND_PENALTY * max(0.0, -radicand))
        delta = 0.5 + 0.5 * math.sqrt(max(radicand, 0.0))
        rho = row.n + delta
        q1 = h2a2 * ll1 / (2.0 * consts.mu)
        q3 = x2 - x3 + ll1
        energies.append(q1 - q2 * (rho + q3 / rho) ** 2)
    return np.array(energies), np.array([penalties[l] for l in sorted(penalties)])


def fit_couplings(
    rows,
    alpha: float,
    consts: PhysicalConstants = PhysicalConstants(),
    starts=_STARTS,
) -> RecoveryReport:
    """Fit (A1, A2, A3) to table rows at fixed alpha; best of all starts."""
    rows = tuple(
        r if isinstance(r, TableRow) else TableRow(int(r[0]), int(r[1]), float(r[2]))
        for r in rows
    )
    if not rows:
        raise DomainError("recovery needs at least one table row")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")

    targets = np.array([r.energy for r in rows])

    def residual_vec(x):
        energies, penalties = _model_energies(x, rows, alpha, consts)
        return np.concatenate([energies - targets, penalties, _RIDGE * np.asarray(x)])

    best = None
    for x0 in starts:
        result = least_squares(residual_vec, x0, method="trf", xtol=1e-14)
        if best is None or result.cost < best.cost:
            best = result

    fitted, _ = _model_energies(best.x, rows, alpha, consts)
    residuals = fitted - targets
    rms = float(np.sqrt(np.mean(residuals**2)))

    infeasible = tuple(
        i
        for i, r in enumerate(rows)
        if r.energy > channel_bound(r.l, alpha, consts)
    )
    feasible = not infeasible
    if feasible:
        verdict = f"feasible: all rows within the E <= Q1(l) bound, rms {rms:.3e}"
    else:
        listed = ", ".join(
            f"(n={rows[i].n}, l={rows[i].l}, E={rows[i].energy:g})" for i in infeasible
        )
        verdict = (
            f"infeasible: {len(infeasible)} row(s) exceed the coupling-independent "
            f"bound E <= Q1(l) and cannot be produced by any (A1, A2, A3): {listed}; "
            f"best rms {rms:.3e}"
        )

    h2a2 = (consts.hbar * alpha) ** 2
    x1 = 2.0 * consts.mu * float(best.x[0]) / h2a2
    x2 = 2.0 * consts.mu * float(best.x[1]) / h2a2
    x3 = 2.0 * consts.mu * float(best.x[2]) / (consts.hbar**2 * alpha)
    return RecoveryReport(
        params=PotentialParams(
            a1=float(best.x[0]), a2=float(best.x[1]), a3=float(best.x[2]), alpha=alpha
        ),
        alpha=alpha,
        rows=rows,
        fitted=tuple(float(e) for e in fitted),
        residuals=tuple(float(e) for e in residuals),
        rms=rms,
        max_abs_residual=float(np.max(np.abs(residuals))),
        x1_plus_x2=x1 + x2,
        x2_minus_x3=x2 - x3,
        infeasible_rows=infeasible,
        feasible=feasible,
        converged=bool(best.success),
        verdict=verdict,
    )
