"""Least-squares recovery of potential couplings from an energy table.

Given rows (n, l, E) at a known screening alpha, fit the couplings so the
closed-form spectrum reproduces the table.  The fit doubles as a diagnostic:
every level obeys E <= Q1(l) = hbar^2 alpha^2 l(l+1) / (2 mu), and Q1 does
not involve the couplings, so a row above that bound is unreachable by any
coupling choice and the report says so instead of pretending the residual
is merely large.

The spectrum sees the couplings only through u = x1 + x2 (in delta) and
v = x2 - x3 (in Q3 = v + l(l+1)), so those two are fitted, as (t, v) with
t = 2 delta - 1 at the lowest l of the table.  The real-delta domain is then
the bound t >= 0.  At fixed t each row's rho + Q3/rho is linear in v, so the
squared-residual sum is a quartic in v whose minima are the outer real roots
of a cubic.  Both minima are followed along a fixed grid in t, their cubics
solved together by one batched eigenvalue call on the companion matrices,
and each local minimum of either branch seeds one Gauss-Newton polish in
(t, v) on the closed-form Jacobian, with t clamped at 0; the best polish
wins.  The three raw couplings are one gauge direction short of
identifiable: the report gives the exact minimum-norm (A1, A2, A3) for the
fitted (u, v), plus u and v themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potential import PhysicalConstants, PotentialParams, QuantumNumbers

# t = 2 delta - 1 at the lowest l of the table is scanned on this grid; each
# local minimum of the best v along it seeds one polish in (t, v).
_T_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 121)))


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


def _outer_real_roots(cubics: np.ndarray) -> np.ndarray:
    """(smallest, largest) real root of each row c of cubics, c[0] != 0.

    The roots are the eigenvalues of each row's companion matrix, built as
    np.roots builds it, so they are np.roots' own; one batched eigvals call
    takes them all.  A real cubic has a real root, found with zero imaginary
    part.
    """
    companion = np.zeros((len(cubics), 3, 3))
    companion[:, 0] = -cubics[:, 1:] / cubics[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    real = roots.imag == 0.0
    return np.array([np.where(real, roots.real, np.inf).min(axis=1),
                     np.where(real, roots.real, -np.inf).max(axis=1)])


def fit_couplings(
    rows,
    alpha: float,
    consts: PhysicalConstants = PhysicalConstants(),
) -> RecoveryReport:
    """Fit the table at fixed alpha; report the minimum-norm (A1, A2, A3)."""
    rows = tuple(
        r if isinstance(r, TableRow) else TableRow(r[0], r[1], float(r[2]))
        for r in rows
    )
    if not rows:
        raise DomainError("recovery needs at least one table row")
    if isinstance(alpha, bool) or not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")

    targets = np.array([r.energy for r in rows])
    n = np.array([r.n for r in rows], dtype=float)
    ll1 = np.array([r.l * (r.l + 1) for r in rows], dtype=float)
    gap = 4.0 * (ll1 - ll1.min())  # radicand at each row's l minus t^2
    h2a2 = (consts.hbar * alpha) ** 2
    q1 = h2a2 * ll1 / (2.0 * consts.mu)
    q2 = h2a2 / (8.0 * consts.mu)
    y = (q1 - targets) / q2  # a row is fitted exactly when (a + b v)^2 = y

    def residual_jac(t, v):
        """Each row's closed-form energy at (t, v) minus its target, and the Jacobian."""
        w = np.sqrt(t * t + gap)
        rho = n + 0.5 + 0.5 * w
        q3 = ll1 + v
        z = rho + q3 / rho
        dw_dt = t / w if t > 0.0 else 1.0 * (gap == 0.0)  # t/w is 1 where w = 0
        slope = -2.0 * q2 * z
        jac = np.array((slope * (1.0 - q3 / rho**2) * 0.5 * dw_dt, slope / rho))
        return q1 - q2 * z * z - targets, jac.T

    def polish(t, v):
        """Gauss-Newton in (t, v), t held >= 0: (cost, (t, v), residuals, converged)."""
        p = np.array([t, v])
        r, jac = residual_jac(t, v)
        cost = r @ r
        for _ in range(50):
            step = np.linalg.lstsq(jac, -r, rcond=None)[0]
            if step[0] < -p[0]:  # t would pass 0: clamp it there and refit v alone
                step[0] = -p[0]
                step[1:] = np.linalg.lstsq(jac[:, 1:], jac[:, 0] * p[0] - r, rcond=None)[0]
            if np.all(np.abs(step) <= 1e-15 * np.abs(p)):
                return cost, p, r, True
            for _ in range(9):  # the step, then at most 8 halvings
                trial = p + step
                r_trial, jac_trial = residual_jac(*trial)
                cost_trial = r_trial @ r_trial
                if cost_trial < cost:
                    break
                step *= 0.5
            else:  # no halving lowers the cost: the rounding floor
                return cost, p, r, True
            p, r, jac, cost = trial, r_trial, jac_trial, cost_trial
        return cost, p, r, False

    # sum((a + b v)^2 - y)^2 is a quartic in v, with rho + Q3/rho = a + b v;
    # its minima are the outer real roots of its derivative's cubic (leading
    # term sum(b^4) > 0).
    rho = n + 0.5 + 0.5 * np.sqrt(np.square(_T_GRID)[:, None] + gap)
    a, b = rho + ll1 / rho, 1.0 / rho
    terms = [b**4, 3.0 * a * b**3, (3.0 * a**2 - y) * b**2, (a**2 - y) * a * b]
    branches = _outer_real_roots(np.sum(terms, axis=2).T)
    costs = np.sum(((a + b * branches[..., None]) ** 2 - y) ** 2, axis=2)

    polished = []
    for v, cost in zip(branches, costs):
        falls = np.r_[True, cost[1:] < cost[:-1]]
        rises = np.r_[cost[:-1] <= cost[1:], True]
        polished += [polish(_T_GRID[i], v[i]) for i in np.nonzero(falls & rises)[0]]
    _, (t, v), residuals, converged = min(polished, key=lambda result: result[0])

    fitted = targets + residuals
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

    # (x1 + x2, x2 - x3) = (u, v) fixes (A1, A2, A3) up to the gauge
    # direction (-c3, c3, c12); lstsq returns the minimum-norm solution.
    u = 0.25 + ll1.min() - 0.25 * t * t
    c12 = 2.0 * consts.mu / h2a2
    c3 = 2.0 * consts.mu / (consts.hbar**2 * alpha)
    matrix = [[c12, c12, 0.0], [0.0, c12, -c3]]
    couplings = np.linalg.lstsq(matrix, [u, v], rcond=None)[0]
    return RecoveryReport(
        params=PotentialParams(*(float(c) for c in couplings), alpha=alpha),
        alpha=alpha,
        rows=rows,
        fitted=tuple(float(e) for e in fitted),
        residuals=tuple(float(e) for e in residuals),
        rms=rms,
        max_abs_residual=float(np.max(np.abs(residuals))),
        x1_plus_x2=float(u),
        x2_minus_x3=float(v),
        infeasible_rows=infeasible,
        feasible=feasible,
        converged=converged,
        verdict=verdict,
    )
