"""Radial bound-state wavefunctions.

In the variable s = e^{-alpha r} a valid level (u > 0, xi^2 > 0) has the
reduced radial wavefunction

    psi(r) = N s^{beta} (1 - s)^{zeta} P_n^{(2 beta, 2 zeta - 1)}(1 - 2 s)

where beta = sqrt(xi^2 + l(l+1)) equals the closed-form u of the level and
zeta = 1/2 + sqrt(1/4 + l(l+1) - x1 - x2) equals the spectral delta.  The
exponents and Jacobi indices are taken from the generic NU shape (nu.wave_shape)
rather than re-derived here, so the zeta = delta identity is a genuine
cross-module check.  N is the wave's only scale, and one three-term
recurrence for P_n, written in s rather than in x = 1 - 2 s, serves psi and
ode_residual.

Normalization is exact.  With s = e^{-alpha r}, a = 2 beta and
b = 2 zeta - 1 the norm integral is

    (1/alpha) * integral over (0, 1) of s^{a - 1} (1 - s)^{b + 1} P_n(1 - 2 s)^2 ds
      = Gamma(n + a + 1) Gamma(n + b + 1) (n + zeta)
        / (n! Gamma(n + a + b + 1) 2 alpha beta (n + beta + zeta)):

write (1 - s)^{b + 1} = (1 - s)^b - s (1 - s)^b, so the s-integral is the
one with weight s^{a - 1} (1 - s)^b, Gamma(n + a + 1) Gamma(n + b + 1) /
(n! a Gamma(n + a + b + 1)), less the Jacobi norm h_n (DLMF Table 18.3.1).
build_wave takes it in logs through _log_gamma_ratio, which keeps its digits
in deep wells (2 beta up to ~4e5).  The same integral over (0, s_R),
s_R = e^{-alpha R} <= e^{-10}, is the tail beyond R, and it is a short power
series in s_R: P_n(1 - 2 s) is a terminating 2F1, a degree-n polynomial in s
(DLMF 18.5.7).  From it comes r_tail, the radius past which doubling R adds
under 1e-13 of the norm.  The CLI's r range and both checks end there (the
node grid is uniform in theta = arccos(1 - 2 s)): ode_residual takes psi''
exactly, and verification.check_wavefunctions rechecks every norm by
Simpson's rule in ln r, both log-spaced in r from alpha r = 1e-12 however
narrow the wave.

default_node_grid sizes a level's grid by Sturm comparison in theta.  With
N = n + (a + b + 1) / 2, u(theta) = sin(theta/2)^{a+1/2} cos(theta/2)^{b+1/2}
P_n(cos theta) solves u'' + [N^2 + (1/4 - a^2) / (4 sin^2(theta/2))
+ (1/4 - b^2) / (4 cos^2(theta/2))] u = 0 (Szego, Orthogonal Polynomials,
4.24); for a, b >= 1/2 the bracket is at most N^2, so adjacent nodes are at
least pi/N apart in theta, and M = clip(16 ceil(N), 64, 20001) points uniform
in theta put 16 steps between them.  Below a or b = 1/2 the bound fails and
the grid keeps 20001 points.  count_nodes holds any grid to the same rule:
no theta-step over pi/(M + 1), with M from _node_points.

Levels of one l are orthogonal, although each has its own Jacobi weight
(beta depends on the energy): all solve -psi'' + U psi = (2 mu E / hbar^2) psi
with one screened U(r) that does not depend on E, an operator self-adjoint on
waves that vanish at 0 and at infinity.  The test
test_wavefunction.py::test_same_l_levels_are_orthogonal holds that to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError
from .nu import mrey_mapping, wave_shape
from .potential import PhysicalConstants, PotentialParams
from .spectrum import EnergyLevel

_TAIL_FRACTION = 1e-13  # stop extending R once a doubling adds less than this
_TAIL_DOUBLINGS = 64
# node grid points: 16 per pi/N in theta, within these bounds
_NODE_MIN, _NODE_MAX = 64, 20001
# rounding in a grid's theta-steps, relative; a grid one point short of the
# rule is 1/M, at least 5e-5, over it
_NODE_STEP_SLACK = 1e-9
# ode_residual samples the equation at this many log-spaced radii.
_ODE_SAMPLES = 150


@dataclass(frozen=True)
class JacobiParams:
    """Degree and indices (n, a, b) of a Jacobi polynomial, a, b > -1."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 0:
            raise DomainError(f"degree must be an integer >= 0, got {self.n!r}")
        for name in ("a", "b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > -1.0):
                raise DomainError(f"{name} must be finite and > -1, got {value!r}")


@dataclass(frozen=True)
class RadialWave:
    """A normalized bound-state radial wavefunction.

    psi(r) = norm * s^beta (1 - s)^zeta P_n(1 - 2 s) with s = e^{-alpha r};
    r_tail is the radius beyond which the tail of psi^2 was found negligible
    during normalization.
    """

    params: PotentialParams
    consts: PhysicalConstants
    level: EnergyLevel
    beta_exp: float
    zeta_exp: float
    jacobi: JacobiParams
    norm: float
    r_tail: float

    def psi(self, r):
        r_arr = np.asarray(r, dtype=float)
        if not np.all(r_arr > 0.0):
            raise DomainError("r must be > 0 (and not NaN)")
        x = -self.params.alpha * r_arr
        log_v = np.log(-np.expm1(x))  # ln(1 - s), with its digits where s is near 1
        p, _, log_scale = _jacobi_scaled(self.jacobi.n, self.jacobi.a, self.jacobi.b,
                                         np.exp(x))
        # s^beta (1 - s)^zeta e^{log_scale} in one exponent: the factors
        # apart can underflow and overflow at the same r
        values = self.norm * (p * np.exp(x * self.beta_exp + log_v * self.zeta_exp
                                          + log_scale))
        if np.ndim(r) == 0:
            return float(values)
        return values


def build_wave(
    params: PotentialParams, consts: PhysicalConstants, level: EnergyLevel
) -> RadialWave:
    """Construct and normalize the wavefunction of a strictly valid level.

    The exponents come from the NU shape evaluated at the level's energy;
    marginal and invalid levels are rejected (u > 0 and xi^2 > 0 are needed
    for normalizability).  The norm is the closed form of the module
    docstring, in logs; r_tail comes from the tail's power series.
    """
    if not level.valid_bound_state:
        raise DomainError(
            f"level (n={level.n}, l={level.l}) is not a strictly valid bound "
            f"state (u = {level.u_value:g}, xi^2 = {level.xi_sq:g})"
        )
    nu_coeffs = mrey_mapping(params, consts, level.l)(level.energy)
    shape = wave_shape(nu_coeffs)
    n, beta, zeta = level.n, shape.s_exponent, shape.one_minus_s_exponent
    # the unit-scale wave (norm 1) that the norm integral is taken over
    wave = RadialWave(
        params=params,
        consts=consts,
        level=level,
        beta_exp=beta,
        zeta_exp=zeta,
        jacobi=JacobiParams(n=n, a=shape.jacobi_a, b=shape.jacobi_b),
        norm=1.0,
        r_tail=math.nan,
    )
    # the norm integral in closed form, with a = 2 beta and b = 2 zeta - 1
    b = 2.0 * zeta - 1.0
    log_total = (
        _log_gamma_ratio(n + 1.0, b) - _log_gamma_ratio(n + 2.0 * beta + 1.0, b)
        + math.log((n + zeta) / (2.0 * params.alpha * beta * (n + beta + zeta)))
    )
    if not abs(log_total) < 1400.0:  # N = e^{-log_total / 2} must be a double
        raise NumericalError(
            f"norm integral e^{log_total:.6g} of level (n={level.n}, l={level.l}) "
            "is outside double range"
        )
    return replace(
        wave, norm=math.exp(-0.5 * log_total), r_tail=_tail_radius(wave, log_total)
    )


# Stirling coefficients B_2k / (2k (2k - 1)), highest order first; seven
# terms leave a truncation error below 1e-16 for x >= 10.
_STIRLING = (1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0, -1.0 / 1680.0,
             1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)


def _log_gamma_ratio(z: float, d: float) -> float:
    """ln Gamma(z + d) - ln Gamma(z) for z > 0, d >= 0.

    Two lgamma calls cancel once z >> d: at z = 4e5 their difference is off
    by ~5e-10.  For z >= 10 the Stirling series (DLMF 5.11.1) written as a
    difference keeps full precision.
    """
    if z < 10.0:
        return math.lgamma(z + d) - math.lgamma(z)

    def remainder(x):  # ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi) / 2
        y = 1.0 / (x * x)
        series = 0.0
        for c in _STIRLING:
            series = series * y + c
        return series / x

    return (z - 0.5) * math.log1p(d / z) + d * math.log(z + d) - d + (
        remainder(z + d) - remainder(z)
    )


def _jacobi_scaled(n: int, a: float, b: float, sigma):
    """P_n^{(a,b)}(1 - 2 sigma) and P_{n-1}^{(a,b)}(1 - 2 sigma), P_{-1} = 0.

    Returns (p_n, p_n_minus_1, log_scale) with both values = mantissa *
    e^{log_scale}, arrays of sigma's shape for floats a and b.  This is the
    three-term recurrence (DLMF 18.9.2) with x = 1 - 2 sigma substituted and
    its constant term expanded, so nothing cancels near sigma = 0 and small
    sigma keeps its relative precision.  Where P_n(1) = binom(n + a, n)
    could overflow (deep wells) the mantissas are rescaled as they grow.
    """
    p_prev, p_curr = np.zeros(np.shape(sigma)), np.ones(np.shape(sigma))
    if n > 0:
        p_prev, p_curr = p_curr, (a + 1.0) - (a + b + 2.0) * sigma
    # on [-1, 1], |P_n| <= binom(n + max(a, b), n) < (n + max(a, b) + 2)^n
    rescale = n * math.log(n + max(a, b, 0.0) + 2.0) > 300.0
    log_scale = 0.0
    for k in range(2, n + 1):  # P_k = (c0 - c1 sigma) P_{k-1} - c2 P_{k-2}
        s = 2.0 * k + a + b
        lead = 2.0 * k * (k + a + b) * (s - 2.0)
        c0 = (s - 1.0) * (2.0 * (a + b) * (a + 2.0 * k - 1.0) + 4.0 * k * (k - 1.0)) / lead
        c1 = 2.0 * (s - 1.0) * s * (s - 2.0) / lead
        c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s / lead
        p_curr, p_prev = (c0 - c1 * sigma) * p_curr - c2 * p_prev, p_curr
        if rescale:  # divide both by max(|p_curr|, 1), its log into log_scale
            factor = np.maximum(np.abs(p_curr), 1.0)
            p_curr, p_prev = p_curr / factor, p_prev / factor
            log_scale = log_scale + np.log(factor)
    return p_curr, p_prev, log_scale


def _tail_radius(wave: RadialWave, log_total: float) -> float:
    """R past which the tail of (psi / norm)^2 is negligible.

    R starts at max(2, 10/alpha) and doubles until the doubling adds at most
    _TAIL_FRACTION of the running total.  The piece over [R, 2R] is
    T(R) - T(2R); it is taken at its largest and the running total at its
    smallest within _log_tail's error bound, so a rung whose series has lost
    its digits never passes and R doubles on.
    """
    alpha = wave.params.alpha
    uppers = max(2.0, 10.0 / alpha) * 2.0 ** np.arange(_TAIL_DOUBLINGS + 1)
    log_tail, rel = _log_tail(wave, -alpha * uppers)
    step = log_tail[1:] - log_tail[:-1]
    with np.errstate(invalid="ignore"):  # NaN where the bounds swamp T: the rung fails
        log_piece = log_tail[:-1] + np.log(-np.expm1(step) + rel[:-1] + rel[1:] * np.exp(step))
        log_running = log_total + np.log1p(-np.exp(log_tail[1:] - log_total) * (1.0 + rel[1:]))
    done = np.nonzero(log_piece <= math.log(_TAIL_FRACTION) + log_running)[0]
    if done.size == 0:
        raise NumericalError(
            f"normalization tail did not converge within {_TAIL_DOUBLINGS} doublings"
        )
    return float(uppers[done[0] + 1])


def _log_tail(wave: RadialWave, log_s: np.ndarray):
    """(ln T(R), bound on the relative error of T(R)) at s_R = e^{log_s}, for
    e^{-10} >= s_{R_0} >= s_R with s_{R_0} = e^{log_s[0]}, where

      T(R) = integral from R to inf of (psi / norm)^2 dr
           = 1 / alpha * integral over (0, s_R) of s^{2 beta - 1} f(s) ds,
      f(s) = (1 - s)^{2 zeta} P_n(1 - 2 s)^2 = P_n(1)^2 sum_k g_k s^k.

    P_n(1 - 2 s) / P_n(1) = 2F1(-n, n + a + b + 1; a + 1; s) = sum_j q_j s^j
    terminates (DLMF 18.5.7), (1 - s)^{2 zeta} = sum_m c_m s^m is the binomial
    series, g = q * q * c, and term by term

      T(R) = s_R^{2 beta} P_n(1)^2 / alpha * S,  S = sum_k g_k s_R^k / (2 beta + k),

    with P_n(1) = (a + 1)_n / n!.  q and c are taken in units of s_{R_0}, so
    no coefficient overflows.

    - Rounding: in a term of S, q_i q_j takes at most 2n ratio steps of 10
      roundings (of eps / 2) and c_m 31 steps of 4; its power of s_R takes
      under 6n + 93 and the products and the three sums 3n + 66.  That is
      under 32 (n + 10) in all, so S is within 16 (n + 10) eps S_abs, S_abs
      the same sum over |q| * |q| * |c|.  q_j has the sign (-1)^j, so S
      alternates: near threshold (small a) S_abs / S grows as
      e^{4 n sqrt(s_R)}, to 1e13 at n = 1410 of the well a3 = 1e4,
      alpha = 0.01.
    - Truncation: c keeps 32 terms.  |c_m| <= (2 zeta + m)^m / m!, so the
      dropped terms sum to under 1e-17 of S_abs for zeta up to 4e4.
    """
    n, a, b = wave.jacobi.n, wave.jacobi.a, wave.jacobi.b
    two_beta = 2.0 * wave.beta_exp
    s0, j, m = math.exp(log_s[0]), np.arange(n), np.arange(31)
    q = np.cumprod(np.concatenate(([1.0], s0 * (j - n) * (j + n + a + b + 1.0)
                                   / ((j + a + 1.0) * (j + 1.0)))))
    c = np.cumprod(np.concatenate(([1.0], s0 * (m - 2.0 * wave.zeta_exp) / (m + 1.0))))
    g = np.array([np.convolve(np.convolve(u, u), v) for u, v in ((q, c), (np.abs(q), np.abs(c)))])
    k = np.arange(g.shape[1])
    # row R, column k: (s_R / s_{R_0})^k / (2 beta + k), built for the live
    # rungs only: once s_R / s_{R_0} underflows to 0 (from about the 8th
    # rung) a row is g[:, 0] / (2 beta) = 1 / (2 beta)
    ratio = np.exp(log_s) / s0
    live = np.count_nonzero(ratio)
    powers = np.vander(ratio[:live], k.size, increasing=True) / (two_beta + k)
    sums, bounds = table = np.full((2, ratio.size), 1.0 / two_beta)
    table[:, :live] = g @ powers.T
    log_p1 = _log_gamma_ratio(a + 1.0, n) - math.lgamma(n + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # S <= 0: all digits lost
        log_sums = np.log(sums)
    log_tail = two_beta * log_s + 2.0 * log_p1 - math.log(wave.params.alpha) + log_sums
    return log_tail, 16.0 * (n + 10) * np.finfo(float).eps * bounds / sums


def _node_points(wave: RadialWave) -> int:
    """M, the points of the level's node grid (module docstring)."""
    n, a, b = wave.jacobi.n, wave.jacobi.a, wave.jacobi.b
    if min(a, b) < 0.5:  # the Sturm bound does not hold
        return _NODE_MAX
    return min(max(16 * math.ceil(n + (a + b + 1.0) / 2.0), _NODE_MIN), _NODE_MAX)


def default_node_grid(wave: RadialWave) -> np.ndarray:
    """M points uniform in theta, x = 1 - 2 s = cos(theta), where the zeros of
    P_n^{(2 beta, 2 zeta - 1)}(x) spread out: theta_k = pi k / (M + 1), with
    M = clip(16 ceil(N), 64, 20001) and N = n + beta + zeta, 16 points per
    pi/N, the least theta-gap between nodes (module docstring); M = 20001
    where 2 beta or 2 zeta - 1 is below 1/2.  A new array on every call.

    Both Jacobi indices are >= 0, so every zero has s and 1 - s >= c / N^2,
    c from 1.1 at n = 1 to j_{0,1}^2 / 4 = 1.45 for large n (Bessel-zero
    asymptotics, DLMF 18.16).  Below the cap the grid's ends, s and 1 - s
    about (pi / 32 N)^2, lie outside every node; at M = 20001, s and 1 - s =
    6.2e-9, they miss a node only past N = 1.3e4.  Nodes within three
    theta-steps make count_nodes raise ResolutionError, which takes
    2 beta n >~ 5e7.
    """
    m = _node_points(wave)
    half = np.pi * np.arange(m, 0, -1) / (2 * (m + 1))  # theta_k / 2, k = M .. 1
    # alpha r = -ln s at s = sin^2(theta_k / 2), as -ln(1 - cos^2) where s is near 1
    alpha_r = np.where(half > 0.25 * np.pi, -np.log1p(-np.cos(half) ** 2),
                       -np.log(np.sin(half) ** 2))
    return alpha_r / wave.params.alpha


def count_nodes(wave: RadialWave, grid: np.ndarray) -> int:
    """Strict sign changes of psi over the grid interior.

    Requires every theta-step of the grid, theta = 2 atan2(sqrt(s),
    sqrt(1 - s)), to be at most pi/(M + 1) for the level's M, the step of
    default_node_grid; adjacent sign changes closer than three samples raise
    ResolutionError since the grid cannot separate the roots.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(grid[1:] <= grid[:-1]):
        raise DomainError("grid must be strictly increasing with >= 2 points")
    if not np.all(grid > 0.0):
        raise DomainError("grid must lie in (0, R]")
    x = -wave.params.alpha * grid
    theta = 2.0 * np.arctan2(np.sqrt(np.exp(x)), np.sqrt(-np.expm1(x)))
    step, m = np.max(theta[:-1] - theta[1:]), _node_points(wave)
    if not step <= math.pi / (m + 1) * (1.0 + _NODE_STEP_SLACK):
        raise ResolutionError(
            f"largest theta-step {step:.6g} of the grid is over pi/{m + 1}: "
            f"the level needs {m} points uniform in theta"
        )
    values = wave.psi(grid)
    idx = np.flatnonzero(values)  # zero samples neither count nor hide a change
    negative = values[idx] < 0.0
    before_change = idx[:-1][negative[:-1] != negative[1:]]  # nonzero sample before it
    if np.any(np.diff(before_change) < 3):
        raise ResolutionError("two sign changes within three samples; refine the grid")
    return before_change.size


def _stiffness(wave: RadialWave, r, s, one_minus, screened: bool):
    """Coefficient k(r) of psi in psi'' + k(r) psi = 0 for this level, with
    s = e^{-alpha r} and one_minus = 1 - s as the caller has them."""
    p, c = wave.params, wave.consts
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


def _ode_radii(alpha: float, r_tail: float) -> np.ndarray:
    """np.geomspace(1e-12 / alpha, r_tail, _ODE_SAMPLES) as numpy builds it,
    10^linspace of the log10 ends with both ends pinned, without its argument
    checks, which cost more than the radii."""
    lo = 1e-12 / alpha
    r = 10.0 ** np.linspace(np.log10(lo), np.log10(r_tail), _ODE_SAMPLES)
    r[0], r[-1] = lo, r_tail
    return r


def ode_residual(wave: RadialWave, screened: bool = True) -> float:
    """Normalized residual of the radial equation at sampled radii.

    psi'' = alpha^2 norm w [(A^2 + s A_s) P + (2 A + 1) s P_s + s^2 P_ss]
    exactly, with w = s^beta v^zeta, v = 1 - s, A = beta - zeta s / v and P's
    derivatives from DLMF 18.9.15.  At radii log-spaced from alpha r = 1e-12
    to r_tail, on one scale and times v^2 (its 1/v^2 terms cancel as r -> 0),
    it returns max |psi'' + k psi| / max(|psi''|, |k psi|): the rounding floor
    for the screened equation the closed form solves, and the O(alpha^2 r^2)
    error of the screened stand-ins with screened=False (exact 1/r, 1/r^2).
    """
    alpha, beta, zeta = wave.params.alpha, wave.beta_exp, wave.zeta_exp
    n, a, b = wave.jacobi.n, wave.jacobi.a, wave.jacobi.b
    r = _ode_radii(alpha, wave.r_tail)
    s, v = np.exp(-alpha * r), -np.expm1(-alpha * r)
    p, _, log_scale = _jacobi_scaled(n, a, b, s)
    # s^k d^k P / ds^k = s^k c_k P_{n-k}^{(a+k,b+k)}, on the scale of P
    c, s_derivs = np.cumprod([-(n + a + b + 1.0), -(n + a + b + 2.0)]), [0.0, 0.0]
    for k in range(1, min(n, 2) + 1):
        q, _, log_q = _jacobi_scaled(n - k, a + k, b + k, s)
        s_derivs[k - 1] = c[k - 1] * q * np.exp(log_q - log_scale) * s**k
    log_w = beta * -alpha * r + zeta * np.log(v) + log_scale
    weight = np.exp(log_w - np.max(log_w))  # w e^{log_scale}, one scale for all r
    va = beta * v - zeta * s  # v A
    second = alpha**2 * weight * ((va**2 - zeta * s) * p + v * (2.0 * va + v) * s_derivs[0]
                                  + v**2 * s_derivs[1])
    k_psi = _stiffness(wave, r, s, v, screened) * v**2 * weight * p
    return float(np.max(np.abs(second + k_psi)) / np.max(np.abs([second, k_psi])))
