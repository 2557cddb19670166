"""Radial bound-state wavefunctions.

In the variable s = e^{-alpha r} a valid level (u > 0, xi^2 > 0) has the
reduced radial wavefunction

    psi(r) = N s^{beta} (1 - s)^{zeta} P_n^{(2 beta, 2 zeta - 1)}(1 - 2 s)

where beta = sqrt(xi^2 + l(l+1)) equals the closed-form u of the level and
zeta = 1/2 + sqrt(1/4 + l(l+1) - x1 - x2) equals the spectral delta.  The
exponents and Jacobi indices are taken from the generic NU shape (nu.wave_shape)
rather than re-derived here, so the zeta = delta identity is a genuine
cross-module check.

Normalization is numerical: the closed form of N in the source chain is not
available, so N is fixed by adaptive quadrature of psi^2 over (0, R] with R
pushed until the tail is negligible.  No orthogonality is asserted between
different n at fixed l: each level carries its own beta exponent (energy
enters the weight), so the Jacobi orthogonality relation does not apply
across levels.  overlap_matrix reports the actual overlaps as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericalError, ResolutionError
from .nu import derive_constants, mrey_mapping, wave_shape
from .potential import PhysicalConstants, PotentialParams
from .spectrum import EnergyLevel

_TAIL_FRACTION = 1e-13  # stop extending R once a doubling adds less than this


@dataclass(frozen=True)
class JacobiParams:
    """Degree and indices (n, a, b) of a Jacobi polynomial, a, b > -1."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise DomainError(f"degree must be an integer >= 0, got {self.n!r}")
        for name in ("a", "b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > -1.0):
                raise DomainError(f"{name} must be finite and > -1, got {value!r}")


def jacobi_eval(params: JacobiParams, x):
    """P_n^{(a,b)}(x) by the standard three-term recurrence.

    P_0 = 1, P_1 = (a - b)/2 + (a + b + 2) x / 2, and for k >= 2

      2k (k+a+b) (2k+a+b-2) P_k
        = (2k+a+b-1) [ (2k+a+b) (2k+a+b-2) x + a^2 - b^2 ] P_{k-1}
          - 2 (k+a-1) (k+b-1) (2k+a+b) P_{k-2}.

    Exact at the right endpoint: P_n(1) = binom(n + a, n).
    """
    x_arr = np.asarray(x, dtype=float)
    n, a, b = params.n, params.a, params.b
    p_prev = np.ones_like(x_arr)
    if n == 0:
        return float(p_prev) if np.ndim(x) == 0 else p_prev
    p_curr = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x_arr
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        lead = 2.0 * k * (k + a + b) * (s - 2.0)
        mid = (s - 1.0) * (s * (s - 2.0) * x_arr + a * a - b * b)
        trail = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p_curr, p_prev = (mid * p_curr - trail * p_prev) / lead, p_curr
    if np.ndim(x) == 0:
        return float(p_curr)
    return p_curr


@dataclass(frozen=True)
class RadialWave:
    """A bound-state radial wavefunction psi(r) = norm * profile(r).

    profile() is the raw (amplitude-scaled) shape; norm is the computed
    normalization constant; r_tail is the radius beyond which the tail of
    psi^2 was found negligible during normalization.
    """

    params: PotentialParams
    consts: PhysicalConstants
    level: EnergyLevel
    beta_exp: float
    zeta_exp: float
    jacobi: JacobiParams
    amplitude: float = 1.0
    norm: float = 1.0
    r_tail: float = math.nan

    def profile(self, r):
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr <= 0.0):
            raise DomainError("r must be > 0")
        s = np.exp(-self.params.alpha * r_arr)
        one_minus = -np.expm1(-self.params.alpha * r_arr)
        value = (
            self.amplitude
            * s**self.beta_exp
            * one_minus**self.zeta_exp
            * jacobi_eval(self.jacobi, 1.0 - 2.0 * s)
        )
        if np.ndim(r) == 0:
            return float(value)
        return value

    def psi(self, r):
        return self.norm * self.profile(r)

    def normalized(self) -> "RadialWave":
        """Fold the computed norm into the amplitude (norm becomes 1)."""
        return replace(self, amplitude=self.amplitude * self.norm, norm=1.0)


def build_wave(
    params: PotentialParams, consts: PhysicalConstants, level: EnergyLevel
) -> RadialWave:
    """Construct and normalize the wavefunction of a strictly valid level.

    The exponents come from the NU shape evaluated at the level's energy;
    marginal and invalid levels are rejected (u > 0 and xi^2 > 0 are needed
    for normalizability).
    """
    if not level.valid_bound_state:
        raise DomainError(
            f"level (n={level.n}, l={level.l}) is not a strictly valid bound "
            f"state (u = {level.u_value:g}, xi^2 = {level.xi_sq:g})"
        )
    mapping = mrey_mapping(params, consts, level.l)
    shape = wave_shape(mapping(level.energy), derive_constants(mapping(level.energy)))
    wave = RadialWave(
        params=params,
        consts=consts,
        level=level,
        beta_exp=shape.s_exponent,
        zeta_exp=shape.one_minus_s_exponent,
        jacobi=JacobiParams(n=level.n, a=shape.jacobi_a, b=shape.jacobi_b),
    )
    total, r_tail = _norm_integral(wave)
    return replace(wave, norm=1.0 / math.sqrt(total), r_tail=r_tail)


def _quad_checked(f, a, b):
    result = quad(f, a, b, epsabs=1e-14, epsrel=1e-10, limit=200, full_output=1)
    if len(result) > 3:
        raise NumericalError(f"quadrature on [{a:g}, {b:g}] did not converge: {result[3]}")
    return result[0]


def _norm_integral(wave: RadialWave):
    """Integral of profile^2 over (0, R] with R doubled until the tail dies."""
    f = lambda r: wave.profile(r) ** 2
    alpha = wave.params.alpha
    upper = max(2.0, 10.0 / alpha)
    total = _quad_checked(f, 0.0, upper)
    for _ in range(64):
        piece = _quad_checked(f, upper, 2.0 * upper)
        total += piece
        upper *= 2.0
        if piece <= _TAIL_FRACTION * total:
            return total, upper
    raise NumericalError("normalization tail did not converge")


def normalize(wave: RadialWave) -> float:
    """Constant N with integral of (N * profile)^2 equal to one.

    Scales inversely with the wave's amplitude; applied to an
    already-normalized() wave it returns 1.
    """
    total, _ = _norm_integral(wave)
    return 1.0 / math.sqrt(total)


def default_node_grid(wave: RadialWave) -> np.ndarray:
    """A grid over (0, r_tail] dense enough for count_nodes."""
    upper = wave.r_tail if math.isfinite(wave.r_tail) else 40.0 / wave.params.alpha
    count = int(math.ceil(1000.0 * wave.params.alpha * upper)) + 1
    return np.linspace(upper / count, upper, count)


def count_nodes(wave: RadialWave, grid: np.ndarray) -> int:
    """Strict sign changes of psi over the grid interior.

    Requires at least 1000 grid points per unit of alpha*r; adjacent sign
    changes closer than three samples raise ResolutionError since the grid
    cannot separate the roots.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise DomainError("grid must be strictly increasing with >= 2 points")
    if np.any(grid <= 0.0):
        raise DomainError("grid must lie in (0, R]")
    span = wave.params.alpha * (grid[-1] - grid[0])
    if grid.size / max(span, 1e-300) < 1000.0:
        raise ResolutionError(
            f"{grid.size} points over alpha*r span {span:g} is under "
            "1000 points per unit"
        )
    values = wave.psi(grid)
    signs = np.sign(values)
    nonzero_idx = np.nonzero(signs)[0]
    signs_nz = signs[nonzero_idx]
    change_pos = np.nonzero(signs_nz[1:] != signs_nz[:-1])[0]
    if change_pos.size > 1 and np.min(np.diff(nonzero_idx[change_pos])) < 3:
        raise ResolutionError("two sign changes within three samples; refine the grid")
    return int(change_pos.size)


def _stiffness(wave: RadialWave, r, screened: bool):
    """Coefficient k(r) of psi in psi'' + k(r) psi = 0 for this level."""
    p, c = wave.params, wave.consts
    s = np.exp(-p.alpha * r)
    one_minus = -np.expm1(-p.alpha * r)
    ll1 = float(wave.level.l * (wave.level.l + 1))
    if screened:
        yukawa = p.a3 * p.alpha * s / one_minus
        centrifugal = ll1 * p.alpha**2 / one_minus**2
    else:
        yukawa = p.a3 * s / r
        centrifugal = ll1 / r**2
    two_mu = 2.0 * c.mu / c.hbar**2
    well = (p.a1 * s + p.a2 * s**2) / one_minus**2
    return two_mu * (wave.level.energy + well + yukawa) - centrifugal


def ode_residual(wave: RadialWave, num_points: int = 150, screened: bool = True) -> float:
    """Normalized residual of the radial equation at sampled radii.

    Differentiates psi with a five-point central stencil of step
    h = min(1e-4/alpha, r/10) and returns
    max |psi'' + k psi| / max(|psi''|, |k psi|).  With screened=True the
    equation is the one the closed form solves exactly (Yukawa and
    centrifugal terms replaced by their screened stand-ins), so the residual
    is at the finite-difference noise floor; with screened=False the exact
    1/r and 1/r^2 appear and the residual is dominated by the O(alpha^2 r^2)
    approximation error instead.
    """
    if num_points < 100:
        raise DomainError("need at least 100 sample points")
    alpha = wave.params.alpha
    r_hi = min(
        wave.r_tail if math.isfinite(wave.r_tail) else np.inf,
        30.0 / (alpha * max(wave.beta_exp, 0.5)) + 10.0 / alpha,
    )
    r = np.geomspace(0.02 / alpha, r_hi, num_points)
    h = np.minimum(1e-4 / alpha, r / 10.0)
    psi_m2 = wave.psi(r - 2.0 * h)
    psi_m1 = wave.psi(r - h)
    psi_0 = wave.psi(r)
    psi_p1 = wave.psi(r + h)
    psi_p2 = wave.psi(r + 2.0 * h)
    second = (-psi_m2 + 16.0 * psi_m1 - 30.0 * psi_0 + 16.0 * psi_p1 - psi_p2) / (
        12.0 * h**2
    )
    k_psi = _stiffness(wave, r, screened) * psi_0
    scale = max(np.max(np.abs(second)), np.max(np.abs(k_psi)))
    if scale == 0.0:
        raise NumericalError("degenerate sample: psi vanished at all points")
    return float(np.max(np.abs(second + k_psi)) / scale)


def overlap_matrix(waves: list[RadialWave]) -> np.ndarray:
    """Pairwise integrals of psi_i psi_j (diagnostic; not expected diagonal)."""
    size = len(waves)
    out = np.eye(size)
    for i in range(size):
        for j in range(i + 1, size):
            upper = max(waves[i].r_tail, waves[j].r_tail)
            value = _quad_checked(
                lambda r: waves[i].psi(r) * waves[j].psi(r), 0.0, upper
            )
            out[i, j] = out[j, i] = value
    return out
