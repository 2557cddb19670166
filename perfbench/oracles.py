"""Independent high-precision reference for ln Z.

Used where double precision cannot resolve the 1e-10 tolerance on Z
(4 eps |ln Z| > 1e-10), in the same spirit as the acceptance suite's
40-digit escalation.  The panel cuts are derived here from the spectrum
itself, not taken from the library's quadrature code.
"""

from __future__ import annotations

import math

from mpmath import exp, log, mp, mpf


def _energy(q1, q2, q3, delta, n):
    rho = n + delta
    return q1 - q2 * (rho + q3 / rho) ** 2


def _slope(coeffs, n: float) -> float:
    rho = n + coeffs.delta
    return -2.0 * coeffs.q2 * (rho + coeffs.q3 / rho) * (1.0 - coeffs.q3 / rho**2)


def _cuts(coeffs, lam: float, beta: float) -> list:
    """Endpoints, the interior stationary point of E, and geometric cuts
    through the Boltzmann boundary layer at each endpoint (the interior
    stationary point is a maximum of E, so the weight peaks at an end)."""
    points = {0.0, lam}
    if coeffs.q3 != 0.0:
        n_star = math.sqrt(abs(coeffs.q3)) - coeffs.delta
        if 0.0 < n_star < lam:
            points.add(n_star)
    for end, sign in ((0.0, 1.0), (lam, -1.0)):
        rate = beta * abs(_slope(coeffs, end))
        if rate * lam <= 1.0:
            continue
        width = 1.0 / rate
        while width < lam:
            cut = end + sign * width
            if 0.0 < cut < lam:
                points.add(cut)
            width *= 4.0
    return sorted(points)


def log_partition_mp(coeffs, lam: float, beta: float, dps: int = 40) -> float:
    """ln of integral_0^lambda e^{-beta E(n)} dn in dps-digit arithmetic."""
    with mp.workdps(dps):
        q1, q2, q3 = mpf(coeffs.q1), mpf(coeffs.q2), mpf(coeffs.q3)
        delta, b = mpf(coeffs.delta), mpf(beta)
        cuts = [mpf(p) for p in _cuts(coeffs, lam, beta)]
        e_ref = min(_energy(q1, q2, q3, delta, p) for p in cuts)
        total = mp.quad(
            lambda n: exp(-b * (_energy(q1, q2, q3, delta, n) - e_ref)), cuts
        )
        return float(-b * e_ref + log(total))
