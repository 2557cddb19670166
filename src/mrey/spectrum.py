"""Closed-form bound-state spectrum of the screened radial problem.

The compact form used throughout the package is

    E(n, l) = Q1 - Q2 * (rho + Q3 / rho)^2,    rho = n + delta,

with the coefficients of potential.spectral_coefficients.  The auxiliary
quantity u = -(rho^2 + Q3) / (2 rho) equals the s-exponent of the
eigenfunction, so a level is a genuine (normalizable) bound state only when
u > 0 and xi^2 = u^2 - l(l+1) > 0.  Levels with u = 0 or xi^2 = 0 sit exactly
on the continuum threshold and are flagged marginal.

Three more energy expressions are coded here as *independent* routes and are
never produced by delegation to the compact form: the explicit long form
(energy_long_form), the Manning-Rosen special case (energy_manning_rosen) and
the exponential-Yukawa special case (energy_yukawa).  Their mutual agreement
is part of the acceptance suite.

Note on trends: on the valid window (Q3 < 0, rho <= sqrt(-Q3)) the magnitude
|rho + Q3/rho| shrinks as n grows, so E strictly increases toward Q1 with n;
binding energies |E - Q1| strictly decrease.  Raw formula values past the
stationary point rho = sqrt(|Q3|) decrease with n instead; that branch has
u < 0 and is not normalizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NoRealDeltaError
from .potential import (
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    SpectralCoefficients,
    spectral_coefficients,
)


@dataclass(frozen=True)
class EnergyLevel:
    """One (n, l) level with validity metadata."""

    n: int
    l: int
    energy: float
    valid_bound_state: bool
    marginal: bool
    u_value: float
    xi_sq: float


@dataclass(frozen=True)
class SpectrumTable:
    """Levels for n = 0..n_max, l = 0..l_max, sorted by (l, n).

    Angular momenta whose delta radicand is negative are skipped; the reason
    is recorded per l in the errors manifest.
    """

    params: PotentialParams
    consts: PhysicalConstants
    n_max: int
    l_max: int
    rows: tuple[EnergyLevel, ...]
    errors: dict = field(default_factory=dict)


def compact_energy(coeffs: SpectralCoefficients, n):
    """E = Q1 - Q2 (rho + Q3/rho)^2 at (possibly non-integer, array) n."""
    rho = np.asarray(n, dtype=float) + coeffs.delta
    value = coeffs.q1 - coeffs.q2 * (rho + coeffs.q3 / rho) ** 2
    if np.ndim(n) == 0:
        return float(value)
    return value


def _level(coeffs: SpectralCoefficients, n: int, l: int, ll1: float) -> EnergyLevel:
    """Level (n, l) with its flags from l's coefficients, with u = -(rho^2 +
    Q3) / (2 rho) positive exactly for normalizable levels.  rho is a numpy
    float, as in compact_energy: ** 2 is C's pow, which z * z can miss by
    an ulp, and a huge n overflows to inf, not to OverflowError."""
    rho = np.float64(n) + coeffs.delta
    u = float(-(rho**2 + coeffs.q3) / (2.0 * rho))
    xi_sq = u * u - ll1
    valid = u > 0.0 and xi_sq > 0.0
    marginal = (u >= 0.0 and xi_sq >= 0.0) and not valid
    e = float(coeffs.q1 - coeffs.q2 * (rho + coeffs.q3 / rho) ** 2)
    return EnergyLevel(n, l, e, valid, marginal, u, xi_sq)


def energy(
    params: PotentialParams, consts: PhysicalConstants, n: int, l: int
) -> EnergyLevel:
    """Closed-form level (compact route) with validity flags."""
    QuantumNumbers(n, l)
    return _level(spectral_coefficients(params, consts, l), n, l, float(l * (l + 1)))


def energy_long_form(
    params: PotentialParams, consts: PhysicalConstants, n: int, l: int
) -> float:
    """Explicit long-form energy; independent coding of the compact route.

    E = Q1 - (hbar^2 alpha^2 / 2 mu)
        * [ ((n^2 + n + 1/2) + (n + 1/2) sqrt(R) + 2 l(l+1) - x1 - x3)
            / (2n + 1 + sqrt(R)) ]^2

    with R = 1 + 4 l(l+1) - 4 x1 - 4 x2.
    """
    QuantumNumbers(n, l)
    hbar, mu, alpha = consts.hbar, consts.mu, params.alpha
    h2a2 = (hbar * alpha) ** 2
    ll1 = float(l * (l + 1))
    x1 = 2.0 * mu * params.a1 / h2a2
    x2 = 2.0 * mu * params.a2 / h2a2
    x3 = 2.0 * mu * params.a3 / (hbar**2 * alpha)
    radicand = 1.0 + 4.0 * ll1 - 4.0 * x1 - 4.0 * x2
    if radicand < 0.0:
        raise NoRealDeltaError(radicand)
    sqrt_r = math.sqrt(radicand)
    numerator = (n * n + n + 0.5) + (n + 0.5) * sqrt_r + 2.0 * ll1 - x1 - x3
    denominator = 2.0 * n + 1.0 + sqrt_r
    return (
        h2a2 * ll1 / (2.0 * mu)
        - (h2a2 / (2.0 * mu)) * (numerator / denominator) ** 2
    )


def energy_manning_rosen(
    params: PotentialParams, consts: PhysicalConstants, n: int, l: int
) -> float:
    """Manning-Rosen (A3 = 0) energy as its own code path.

    E = Q1 - (hbar^2 alpha^2 / 8 mu) * [ (rho^2 + x2 + l(l+1)) / rho ]^2,
    rho = n + 1/2 + (1/2) sqrt(1 - 4 x1 - 4 x2 + 4 l(l+1)).
    """
    QuantumNumbers(n, l)
    if params.a3 != 0.0:
        raise DomainError("Manning-Rosen special case requires a3 = 0")
    hbar, mu, alpha = consts.hbar, consts.mu, params.alpha
    h2a2 = (hbar * alpha) ** 2
    ll1 = float(l * (l + 1))
    x1 = 2.0 * mu * params.a1 / h2a2
    x2 = 2.0 * mu * params.a2 / h2a2
    radicand = 1.0 - 4.0 * x1 - 4.0 * x2 + 4.0 * ll1
    if radicand < 0.0:
        raise NoRealDeltaError(radicand)
    rho = n + 0.5 + 0.5 * math.sqrt(radicand)
    numerator = rho * rho + x2 + ll1
    return h2a2 * ll1 / (2.0 * mu) - (h2a2 / (8.0 * mu)) * (numerator / rho) ** 2


def energy_yukawa(
    params: PotentialParams, consts: PhysicalConstants, n: int, l: int
) -> float:
    """Exponential-Yukawa (A1 = A2 = 0) energy as its own code path.

    E = Q1 - (hbar^2 alpha^2 / 2 mu)
        * [ ((n^2 + n + 1/2) + (n + 1/2) sqrt(1 + 4 l(l+1)) + 2 l(l+1) - x3)
            / (2n + 1 + sqrt(1 + 4 l(l+1))) ]^2

    For l = 0 this is the compact form with delta = 1, Q3 = -x3.
    """
    QuantumNumbers(n, l)
    if params.a1 != 0.0 or params.a2 != 0.0:
        raise DomainError("exponential-Yukawa special case requires a1 = a2 = 0")
    hbar, mu, alpha = consts.hbar, consts.mu, params.alpha
    h2a2 = (hbar * alpha) ** 2
    ll1 = float(l * (l + 1))
    x3 = 2.0 * mu * params.a3 / (hbar**2 * alpha)
    sqrt_r = math.sqrt(1.0 + 4.0 * ll1)
    numerator = (n * n + n + 0.5) + (n + 0.5) * sqrt_r + 2.0 * ll1 - x3
    denominator = 2.0 * n + 1.0 + sqrt_r
    return (
        h2a2 * ll1 / (2.0 * mu)
        - (h2a2 / (2.0 * mu)) * (numerator / denominator) ** 2
    )


def lambda_max(coeffs: SpectralCoefficients) -> float:
    """Largest n with dE/dn = 0, clamped to >= 0.

    dE/dn = -2 Q2 (rho + Q3/rho)(1 - Q3/rho^2) vanishes at rho^2 = |Q3|
    (either factor, depending on the sign of Q3), i.e. n = sqrt(|Q3|) - delta.
    Q3 = 0 leaves E = Q1 - Q2 rho^2 with no interior stationary point.
    """
    if coeffs.q3 == 0.0:
        raise DomainError("Q3 = 0: no interior stationary point")
    return max(0.0, math.sqrt(abs(coeffs.q3)) - coeffs.delta)


def spectrum_table(
    params: PotentialParams,
    consts: PhysicalConstants,
    n_max: int = 5,
    l_max: int = 3,
) -> SpectrumTable:
    """All levels n <= n_max, l <= l_max with per-l error propagation."""
    QuantumNumbers(n_max, l_max)
    rows = []
    errors = {}
    for l in range(l_max + 1):
        try:  # NoRealDeltaError depends on l alone
            coeffs = spectral_coefficients(params, consts, l)
        except NoRealDeltaError as exc:
            errors[l] = str(exc)
            continue
        ll1 = float(l * (l + 1))
        rows.extend([_level(coeffs, n, l, ll1) for n in range(n_max + 1)])
    return SpectrumTable(
        params=params, consts=consts, n_max=n_max, l_max=l_max,
        rows=tuple(rows), errors=errors,
    )
