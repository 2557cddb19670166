"""Parameters, potential and spectral coefficients of the Manning-Rosen plus
exponential Yukawa model.

The potential is

    V(r) = -(A1 e^{-alpha r} + A2 e^{-2 alpha r}) / (1 - e^{-alpha r})^2
           - A3 e^{-alpha r} / r

with screening parameter alpha > 0.  A1, A2 control the Manning-Rosen part
and A3 the exponentially screened (Yukawa-like) Coulomb part.  Setting A3 = 0
recovers a pure Manning-Rosen well, A1 = A2 = 0 a pure exponential Yukawa
well, and A1 = A2 = A3 = 0 the free particle.

Under the Greene-Aldrich replacement 1/r ~ alpha / (1 - e^{-alpha r}) the
radial problem becomes exactly solvable and the whole bound-state spectrum is
captured by four numbers per angular momentum l:

    Q1 = hbar^2 alpha^2 l(l+1) / (2 mu)          (centrifugal shift)
    Q2 = hbar^2 alpha^2 / (8 mu)                 (level-spacing scale)
    Q3 = x2 - x3 + l(l+1)                        (well-shape combination)
    delta = 1/2 + (1/2) sqrt(1 + 4 l(l+1) - 4 x1 - 4 x2)

where x1 = 2 mu A1 / (hbar alpha)^2, x2 = 2 mu A2 / (hbar alpha)^2 and
x3 = 2 mu A3 / (hbar^2 alpha) are the dimensionless couplings.  Everything
downstream (spectrum, wavefunctions, thermodynamics) is built from these.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoRealDeltaError

# (1 - e^{-alpha r}) underflows against rounding once alpha*r is this small;
# the Manning-Rosen denominator is then meaningless.
MIN_ALPHA_R = 1e-14


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, reduced mass and Boltzmann constant (natural units by default)."""

    hbar: float = 1.0
    mu: float = 1.0
    k_boltzmann: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mu", "k_boltzmann"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class PotentialParams:
    """Coupling strengths (a1, a2: Manning-Rosen; a3: Yukawa) and screening alpha."""

    a1: float
    a2: float
    a3: float
    alpha: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")


def _check_quantum_numbers(n, l) -> None:
    """DomainError unless n and l are integers (not bool) >= 0."""
    for name, value in (("n", n), ("l", l)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value!r}")


class SpecialCase(enum.Enum):
    GENERAL = "general"
    MANNING_ROSEN = "manning_rosen"
    EXPONENTIAL_YUKAWA = "exponential_yukawa"
    FREE = "free"


def classify_special_case(params: PotentialParams) -> SpecialCase:
    """Classify which limit of the combined potential the couplings select."""
    mr = params.a1 != 0.0 or params.a2 != 0.0
    yu = params.a3 != 0.0
    if mr and yu:
        return SpecialCase.GENERAL
    if mr:
        return SpecialCase.MANNING_ROSEN
    if yu:
        return SpecialCase.EXPONENTIAL_YUKAWA
    return SpecialCase.FREE


def evaluate_potential(params: PotentialParams, r):
    """V(r) for scalar or array r.

    Rejects r <= 0 and r with alpha*r below the underflow threshold, where the
    Manning-Rosen denominator (1 - e^{-alpha r})^2 has no floating-point
    meaning.
    """
    r_arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r_arr)):
        raise DomainError("r must be finite")
    if np.any(r_arr <= 0.0):
        raise DomainError("r must be > 0")
    if np.any(params.alpha * r_arr < MIN_ALPHA_R):
        raise DomainError(
            f"alpha*r < {MIN_ALPHA_R:g}: Manning-Rosen denominator underflows"
        )
    exp_ar = np.exp(-params.alpha * r_arr)
    one_minus = -np.expm1(-params.alpha * r_arr)  # 1 - e^{-alpha r}, stably
    value = (
        -(params.a1 * exp_ar + params.a2 * exp_ar**2) / one_minus**2
        - params.a3 * exp_ar / r_arr
    )
    if not np.all(np.isfinite(value)):
        raise DomainError("potential evaluation overflowed")
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(value)
    return value


def greene_aldrich(alpha: float, r):
    """Screened stand-ins for (1/r^2, 1/r).

    Returns the pair (alpha^2 / (1 - e^{-alpha r})^2, alpha / (1 - e^{-alpha r})).
    Good for alpha*r << 1; the relative error grows monotonically with alpha*r.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0) or not np.all(np.isfinite(r_arr)):
        raise DomainError("r must be finite and > 0")
    one_minus = -np.expm1(-alpha * r_arr)
    inv_r2 = alpha**2 / one_minus**2
    inv_r = alpha / one_minus
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(inv_r2), float(inv_r)
    return inv_r2, inv_r


def xi_squared(
    params: PotentialParams, consts: PhysicalConstants, energy: float
) -> float:
    """xi^2 = -2 mu E / (hbar alpha)^2; DomainError unless E is finite."""
    if not math.isfinite(energy):
        raise DomainError(f"energy must be finite, got {energy!r}")
    return -2.0 * consts.mu * energy / (consts.hbar * params.alpha) ** 2


def _couplings(params: PotentialParams, consts: PhysicalConstants):
    """(hbar alpha)^2 and the dimensionless couplings on floats:
    x1 = 2 mu A1 / (hbar alpha)^2, x2 = 2 mu A2 / (hbar alpha)^2 and
    x3 = 2 mu A3 / (hbar^2 alpha)."""
    h2a2 = (consts.hbar * params.alpha) ** 2
    return (h2a2, 2.0 * consts.mu * params.a1 / h2a2, 2.0 * consts.mu * params.a2 / h2a2,
            2.0 * consts.mu * params.a3 / (consts.hbar**2 * params.alpha))


@dataclass(frozen=True)
class SpectralCoefficients:
    """Compact spectrum coefficients (Q1, Q2, Q3, delta) for one l.

    The bound-state energies are E(n) = q1 - q2 * (rho + q3/rho)^2 with
    rho = n + delta.  radicand is the argument of delta's square root and is
    kept for diagnostics.  spectral_coefficients always returns Python floats,
    with q2 > 0 and radicand >= 0; synthetic instances (e.g. q2 = 0 for a
    constant spectrum) may be constructed directly in tests.
    """

    q1: float
    q2: float
    q3: float
    delta: float
    radicand: float


def spectral_coefficients(
    params: PotentialParams, consts: PhysicalConstants, l: int
) -> SpectralCoefficients:
    """Q1, Q2, Q3 and delta for angular momentum l.

    Raises NoRealDeltaError when the couplings push the delta radicand
    negative (too-strong attractive Manning-Rosen part for this l).
    """
    _check_quantum_numbers(0, l)
    h2a2, x1, x2, x3 = _couplings(params, consts)
    ll1 = float(l * (l + 1))
    # float() once here: numpy-scalar couplings give plain-float coefficients
    radicand = float(1.0 + 4.0 * ll1 - 4.0 * x1 - 4.0 * x2)
    if radicand < 0.0:
        raise NoRealDeltaError(radicand)
    return SpectralCoefficients(
        q1=float(h2a2 * ll1 / (2.0 * consts.mu)),
        q2=float(h2a2 / (8.0 * consts.mu)),
        q3=float(x2 - x3 + ll1),
        delta=0.5 + 0.5 * math.sqrt(radicand),
        radicand=radicand,
    )
