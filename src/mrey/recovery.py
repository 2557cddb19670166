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
solved together in closed form, and each local minimum of either branch
seeds one Gauss-Newton polish in (t, v) on the closed-form Jacobian, its
steps from a two-column QR, with t clamped at 0; the best polish wins.  The
three raw couplings are one gauge direction short of identifiable: the
report gives the exact minimum-norm (A1, A2, A3) for the fitted (u, v), in
closed form, plus u and v themselves.  No LAPACK call is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potential import PhysicalConstants, PotentialParams, _check_quantum_numbers

# t = 2 delta - 1 at the lowest l of the table is scanned on this grid; each
# local minimum of the best v along it seeds one polish in (t, v).
_T_GRID = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 121)))
_HALVINGS = 0.5 ** np.arange(9.0)[:, None]  # a polish step, then at most 8 halvings
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RecoveryReport:
    params: PotentialParams
    rows: tuple            # the table's (n, l, E) rows, E as a float
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
    """(smallest, largest) real root of each row c of cubics, c[0] != 0: on
    the depressed cubic y^3 + p y + q, x = y - c1/(3 c0), the trigonometric
    form where (q/2)^2 + (p/3)^3 < 0 (three real roots), else Cardano's with
    no cancellation, then two Newton steps on the monic cubic."""
    b, c, d = (cubics[:, 1:] / cubics[:, :1]).T
    shift = b / 3.0
    p3, q = c / 3.0 - b * shift / 3.0, (2.0 * shift * shift - c) * shift + d  # p/3, q
    disc = 0.25 * q * q + p3 * p3 * p3
    three = disc < 0.0
    r = np.sqrt(np.where(three, -p3, 1.0))
    phi = np.arccos(np.minimum(np.maximum(-0.5 * q / (r * r * r), -1.0), 1.0)) / 3.0
    big = -np.copysign(np.cbrt(0.5 * np.abs(q) + np.sqrt(np.where(three, 0.0, disc))), q)
    one = big - p3 / np.where(big == 0.0, 1.0, big)  # big = 0 only at p = q = 0
    x = np.array([np.where(three, 2.0 * r * np.cos(phi + 2.0 * np.pi / 3.0), one),
                  np.where(three, 2.0 * r * np.cos(phi), one)]) - shift
    for _ in range(2):
        slope = (3.0 * x + 2.0 * b) * x + c
        x -= np.divide(((x + b) * x + c) * x + d, slope, out=np.zeros_like(x), where=slope != 0.0)
    return x


def fit_couplings(
    rows,
    alpha: float,
    consts: PhysicalConstants = PhysicalConstants(),
) -> RecoveryReport:
    """Fit the table's (n, l, E) rows at fixed alpha; report the minimum-norm
    (A1, A2, A3)."""
    checked = []
    for r in rows:
        n, l, e = r[0], r[1], float(r[2])
        _check_quantum_numbers(n, l)
        if not math.isfinite(e):
            raise DomainError(f"table energy must be finite, got {e!r}")
        checked.append((n, l, e))
    rows = tuple(checked)
    if not rows:
        raise DomainError("recovery needs at least one table row")
    if isinstance(alpha, bool) or not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")

    targets = np.array([e for _, _, e in rows])
    n = np.array([n for n, _, _ in rows], dtype=float)
    ll1 = np.array([l * (l + 1) for _, l, _ in rows], dtype=float)
    gap = 4.0 * (ll1 - ll1.min())  # radicand at each row's l minus t^2
    h2a2 = (consts.hbar * alpha) ** 2
    q1 = h2a2 * ll1 / (2.0 * consts.mu)
    q2 = h2a2 / (8.0 * consts.mu)
    y = (q1 - targets) / q2  # a row is fitted exactly when (a + b v)^2 = y

    n_half = n + 0.5

    def model(t, v):
        """(w, rho, Q3, z, energy - target) of each row at (t, v), w^2 = t^2 +
        gap, z = rho + Q3/rho; (k, 1) columns t and v give k rows of each."""
        w = np.sqrt(t * t + gap)
        rho = n_half + 0.5 * w
        q3 = ll1 + v
        z = rho + q3 / rho
        return w, rho, q3, z, q1 - q2 * z * z - targets

    def step_from(j0, j1, r):
        """min |j0 s0 + j1 s1 + r| by Gram-Schmidt, w = j1 - c j0 orthogonal to
        j0 (projected twice): j0 s0 + j1 s1 = j0 (s0 + c s1) + w s1; lstsq's
        minimum-norm step where j1 is parallel to j0 within rounding."""
        g00 = float(j0 @ j0)
        c = float(j0 @ j1) / g00
        w = j1 - c * j0
        again = float(j0 @ w) / g00
        c, w = c + again, w - again * j0
        ww, j0_r = float(w @ w), float(j0 @ r)
        if ww <= (_EPS * r.size) ** 2 * g00 * (1.0 + c * c):  # rank 1: j1 = c j0
            s0 = -j0_r / (g00 * (1.0 + c * c))
            return s0, c * s0
        s1 = -float(w @ r) / ww
        return -j0_r / g00 - c * s1, s1

    def polish(t, v):
        """Gauss-Newton in (t, v), t held >= 0: (cost, (t, v), residuals, converged).
        Each iteration tries a step and its 8 halvings at once and takes the
        first that lowers the cost."""
        w, rho, q3, z, r = model(t, v)
        cost = (r * r).sum()
        for _ in range(50):
            half_slope = -q2 * z  # the Jacobian's columns; dw/dt = t/w is 1 where w = 0
            j0 = half_slope * (1.0 - q3 / rho**2) * (t / w if t > 0.0 else 1.0 * (gap == 0.0))
            j1 = 2.0 * half_slope / rho
            s0, s1 = step_from(j0, j1, r)
            if s0 < -t:  # t would pass 0: clamp it there and refit v alone
                s0, s1 = -t, float(j1 @ (j0 * t - r) / (j1 @ j1))
            if abs(s0) <= 1e-15 * abs(t) and abs(s1) <= 1e-15 * abs(v):
                return cost, (t, v), r, True
            ts, vs = t + _HALVINGS * s0, v + _HALVINGS * s1
            *trial, r_trials = model(ts, vs)
            costs = (r_trials * r_trials).sum(axis=1)
            k = (costs < cost).argmax()
            if not costs[k] < cost:  # no halving lowers the cost: the rounding floor
                return cost, (t, v), r, True
            t, v, r, cost = float(ts[k, 0]), float(vs[k, 0]), r_trials[k], costs[k]
            w, rho, q3, z = (x[k] for x in trial)
        return cost, (t, v), r, False

    # sum((a + b v)^2 - y)^2 is a quartic in v, with rho + Q3/rho = a + b v;
    # its minima are the outer real roots of its derivative's cubic (leading
    # term sum(b^4) > 0).
    rho = n_half + 0.5 * np.sqrt(np.square(_T_GRID)[:, None] + gap)
    a, b = rho + ll1 / rho, 1.0 / rho
    b2, a2_y = b * b, a * a - y
    terms = [b2 * b2, 3.0 * a * b2 * b, (2.0 * a * a + a2_y) * b2, a2_y * a * b]
    ones = np.ones(len(rows))  # row sums as products, cheaper than np.sum here
    branches = _outer_real_roots((np.array(terms) @ ones).T)
    costs = (((a + b * branches[..., None]) ** 2 - y) ** 2) @ ones

    polished = []
    for v, cost in zip(branches, costs):
        falls = np.concatenate(([True], cost[1:] < cost[:-1]))
        rises = np.concatenate((cost[:-1] <= cost[1:], [True]))
        polished += [polish(float(_T_GRID[i]), float(v[i])) for i in np.nonzero(falls & rises)[0]]
    _, (t, v), residuals, converged = min(polished, key=lambda result: result[0])

    fitted = targets + residuals
    rms = float(np.sqrt(np.mean(residuals**2)))
    infeasible = tuple(
        i for i, (_, l, e) in enumerate(rows) if e > channel_bound(l, alpha, consts)
    )
    feasible = not infeasible
    if feasible:
        verdict = f"feasible: all rows within the E <= Q1(l) bound, rms {rms:.3e}"
    else:
        listed = ", ".join(
            f"(n={rows[i][0]}, l={rows[i][1]}, E={rows[i][2]:g})" for i in infeasible
        )
        verdict = (
            f"infeasible: {len(infeasible)} row(s) exceed the coupling-independent "
            f"bound E <= Q1(l) and cannot be produced by any (A1, A2, A3): {listed}; "
            f"best rms {rms:.3e}"
        )

    # (u, v) = (c12 (A1 + A2), c12 A2 - c3 A3), c3 = alpha c12, fixes (A1, A2, A3)
    # but for the gauge direction (-c3, c3, c12): the least norm is M^T (M M^T)^-1 (u, v)
    u = 0.25 + ll1.min() - 0.25 * t * t
    a2 = alpha * alpha
    scale = 2.0 * consts.mu / h2a2 * (1.0 + 2.0 * a2)  # c12 (1 + 2 alpha^2)
    couplings = ((1.0 + a2) * u - v, a2 * u + v, alpha * (u - 2.0 * v))
    return RecoveryReport(
        params=PotentialParams(*(float(c / scale) for c in couplings), alpha=alpha),
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
