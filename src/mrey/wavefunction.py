"""Radial bound-state wavefunctions.

In the variable s = e^{-alpha r} a valid level (u > 0, xi^2 > 0) has the
reduced radial wavefunction

    psi(r) = N s^{beta} (1 - s)^{zeta} P_n^{(2 beta, 2 zeta - 1)}(1 - 2 s)

where beta = sqrt(xi^2 + l(l+1)) equals the closed-form u of the level and
zeta = 1/2 + sqrt(1/4 + l(l+1) - x1 - x2) equals the spectral delta.  The
exponents and Jacobi indices come from the generic NU shape (nu._wave_shape,
whose c9 is summed exactly, so zeta keeps its digits in deep wells), not
re-derived here, so the zeta = delta identity is a genuine cross-module
check.  N is the wave's only scale; one three-term recurrence for P_n, in s
rather than x = 1 - 2 s, serves psi and, differentiated in s in the same
loop, gives ode_residual P_n's derivatives; psi's formula is
RadialWave._psi_at, which count_nodes calls with the s and 1 - s of its
theta-step rule.

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
s_R = e^{-alpha R} <= e^{-10}, is the tail T(R) beyond R; r_tail is the
radius past which doubling R adds under 1e-13 of the norm.  |P_n| <=
binom(n + q, n) on [-1, 1] for q = max(a, b) >= -1/2 (DLMF 18.14.1 with the
reflection 18.6.1; Szego, Orthogonal Polynomials, Thm 7.32.1), and q = a
serves on x >= (b - a)/(a + b + 1): there Szego's f = P_n^2 + (1 - x^2)
P_n'^2 / (n (n + a + b + 1)), with f' = 2 P_n'^2 ((a + b + 1) x - b + a) /
(n (n + a + b + 1)), rises to f(1) = P_n(1)^2.  That range holds the tail
beyond R, x >= 1 - 2 s_R, unless b >~ (a + 1/2) / s_R.  With (1 - s)^{2 zeta}
<= 1, T(R) <= B(R) = binom(n + q, n)^2 s_R^{2 beta} / (2 beta alpha), a
proven bound, so r_tail is 2 R at the first R = 2^j max(2, 10/alpha) where
B(R) settles the doubling (_tail_radius).  The CLI's r range and both checks
of a wave, ode_residual and the Simpson rule in ln r of
verification.check_wavefunctions, end at r_tail, log-spaced in r from
alpha r = 1e-12.

default_node_grid places a level's grid by Sturm comparison in theta.  With
N = n + (a + b + 1)/2, phi = theta/2, A = (a^2 - 1/4)/4 and B = (b^2 - 1/4)/4,
u = sin(phi)^{a+1/2} cos(phi)^{b+1/2} P_n(cos theta) solves u'' + f u = 0, f =
N^2 - A/sin^2(phi) - B/cos^2(phi) (Szego, Orthogonal Polynomials, 4.24).  For
a, b >= 1/2, f < 0 where sin(phi) < sqrt(A)/N or cos(phi) < sqrt(B)/N, and
there u'' = -f u keeps u, which grows from 0 at theta = 0 and pi, convex and
away from 0: every node lies strictly inside (phi_lo, phi_hi), sin(phi_lo) =
sqrt(A)/N, cos(phi_hi) = sqrt(B)/N.  As A/sin^2 + B/cos^2 >= (sqrt(A) +
sqrt(B))^2, f <= K^2 = N^2 - (sqrt(A) + sqrt(B))^2 and adjacent nodes are at
least pi/K apart in theta.  Below a or b = 1/2 the bound fails and the grid
keeps 20001 points on all of (0, pi).

Levels of one l are orthogonal, although each has its own Jacobi weight
(beta depends on the energy): all solve -psi'' + U psi = (2 mu E / hbar^2) psi
with one screened U(r) that does not depend on E, an operator self-adjoint on
waves that vanish at 0 and at infinity.  The test
test_wavefunction.py::test_same_l_levels_are_orthogonal holds that to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError
from .nu import _mrey_xi, _wave_shape
from .potential import PhysicalConstants, PotentialParams
from .spectrum import EnergyLevel

_TAIL_FRACTION = 1e-13  # stop extending R once a doubling adds less than this
_TAIL_DOUBLINGS = 64
_EPS = float(np.finfo(float).eps)
# node grid points: 16 per pi/K in theta, within these bounds
_NODE_MIN, _NODE_MAX = 64, 20001
# rounding in a grid's theta-steps, relative
_NODE_STEP_SLACK = 1e-9
# ode_residual samples the equation at this many log-spaced radii.
_ODE_SAMPLES = 150
_ODE_STEPS = np.arange(_ODE_SAMPLES, dtype=float)  # linspace's k, for _ode_radii


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
    r_tail is the radius beyond which the tail of psi^2 is proven negligible
    by the Jacobi maximum bound (module docstring).
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
        if not (r_arr > 0.0).all():
            raise DomainError("r must be > 0 (and not NaN)")
        x = -self.params.alpha * r_arr
        # 1 - s as -expm1, with its digits where s is near 1
        values = self._psi_at(x, np.exp(x), -np.expm1(x))
        return float(values) if np.ndim(r) == 0 else values

    def _psi_at(self, x, s, one_minus):
        """psi at x = -alpha r, given s = e^x and one_minus = 1 - s."""
        p, _, log_scale = _jacobi_scaled(self.jacobi.n, self.jacobi.a, self.jacobi.b, s)
        # s^beta (1 - s)^zeta e^{log_scale} in one exponent: the factors
        # apart can underflow and overflow at the same r
        return self.norm * (p * np.exp(x * self.beta_exp + np.log(one_minus) * self.zeta_exp
                                       + log_scale))


def build_wave(
    params: PotentialParams, consts: PhysicalConstants, level: EnergyLevel
) -> RadialWave:
    """Construct and normalize the wavefunction of a strictly valid level.

    The exponents come from the NU shape evaluated at the level's energy;
    marginal and invalid levels are rejected (u > 0 and xi^2 > 0 are needed
    for normalizability).  The norm is the closed form of the module
    docstring, in logs; r_tail comes from the tail's Jacobi maximum bound.
    """
    if not level.valid_bound_state:
        raise DomainError(f"level (n={level.n}, l={level.l}) is not a strictly valid bound "
                          f"state (u = {level.u_value:g}, xi^2 = {level.xi_sq:g})")
    n, ll1 = level.n, float(level.l * (level.l + 1))
    beta, zeta, jac_a, jac_b = _wave_shape(1.0, 1.0, 1.0,
                                           *_mrey_xi(params, consts, ll1, level.energy))
    # the norm integral in closed form, with a = 2 beta and b = 2 zeta - 1
    b = 2.0 * zeta - 1.0
    log_total = (_log_gamma_ratio(n + 1.0, b) - _log_gamma_ratio(n + 2.0 * beta + 1.0, b)
                 + math.log((n + zeta) / (2.0 * params.alpha * beta * (n + beta + zeta))))
    if not abs(log_total) < 1400.0:  # N = e^{-log_total / 2} must be a double
        raise NumericalError(f"norm integral e^{log_total:.6g} of level (n={level.n}, "
                             f"l={level.l}) is outside double range")
    jacobi = JacobiParams(n, jac_a, jac_b)
    return RadialWave(params, consts, level, beta, zeta, jacobi, math.exp(-0.5 * log_total),
                      _tail_radius(params.alpha, beta, jacobi, log_total))


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


def _jacobi_scaled(n: int, a: float, b: float, sigma, derivs: int = 0):
    """P_n^{(a,b)}(1 - 2 sigma) and P_{n-1}^{(a,b)}(1 - 2 sigma), P_{-1} = 0.

    Returns (p_n, p_n_minus_1, log_scale), with derivs = 2 then dP_n/dsigma
    and d^2 P_n/dsigma^2, each value = mantissa * e^{log_scale}, arrays of
    sigma's shape for floats a and b.  This is the three-term recurrence
    (DLMF 18.9.2) with x = 1 - 2 sigma substituted and its constant term
    expanded, so nothing cancels near sigma = 0 and small sigma keeps its
    relative precision; the derivatives run the same loop differentiated in
    sigma.  Where P_n(1) = binom(n + a, n) could overflow (deep wells) the
    mantissas are rescaled as they grow, every row by the same factor.
    """
    p_prev, p_curr = np.zeros(np.shape(sigma)), np.ones(np.shape(sigma))
    if derivs:  # their sigma-derivatives: all zero but P_1' = -(a + b + 2)
        d_prev = e_prev = p_prev
        d_curr, e_curr = np.full_like(p_prev, -(a + b + 2.0) if n else 0.0), np.zeros_like(p_prev)
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
        step = c0 - c1 * sigma
        if derivs:  # it differentiated in sigma; e, d, then p, each from the old rows
            e_curr, e_prev = step * e_curr - 2.0 * c1 * d_curr - c2 * e_prev, e_curr
            d_curr, d_prev = step * d_curr - c1 * p_curr - c2 * d_prev, d_curr
        p_curr, p_prev = step * p_curr - c2 * p_prev, p_curr
        if rescale:  # divide every row by max(|p_curr|, 1), its log into log_scale
            factor = np.maximum(np.abs(p_curr), 1.0)
            p_curr, p_prev = p_curr / factor, p_prev / factor
            if derivs:
                d_curr, d_prev = d_curr / factor, d_prev / factor
                e_curr, e_prev = e_curr / factor, e_prev / factor
            log_scale = log_scale + np.log(factor)
    return (p_curr, p_prev, log_scale) + ((d_curr, e_curr) if derivs else ())


def _tail_radius(alpha, beta, jac: JacobiParams, log_total: float) -> float:
    """R past which the tail of (psi / norm)^2 is negligible, for the wave of
    these exponents: 2 R_j at the first R_j = 2^j max(2, 10/alpha), j <=
    _TAIL_DOUBLINGS, whose doubling adds at most _TAIL_FRACTION of the running
    total.  As the piece over [R_j, 2 R_j] is at most B(R_j) (module
    docstring) and the running total at least total - B(R_j),
    B(R_j) <= _TAIL_FRACTION (total - B(R_j)) passes R_j; in logs, with 16 ulp
    of the largest term for rounding, and q chosen at each R_j."""
    two_beta, n, a, b = 2.0 * beta, jac.n, jac.a, jac.b
    pass_line = math.log(_TAIL_FRACTION / (1.0 + _TAIL_FRACTION))
    r = max(2.0, 10.0 / alpha)
    for _ in range(_TAIL_DOUBLINGS + 1):
        # q = a where the tail, x >= 1 - 2 s_R, lies in x >= (b - a)/(a + b + 1)
        q = a if (1.0 - 2.0 * math.exp(-alpha * r)) * (a + b + 1.0) >= b - a else b
        terms = (2.0 * _log_gamma_ratio(q + 1.0, n),  # ln B(R)
                 -2.0 * math.lgamma(n + 1.0), -two_beta * alpha * r,
                 -math.log(two_beta * alpha), -log_total)  # less ln total
        if sum(terms) + 16.0 * _EPS * max(map(abs, terms)) <= pass_line:
            return 2.0 * r
        r *= 2.0
    raise NumericalError(f"normalization tail did not converge within {_TAIL_DOUBLINGS} "
                         "doublings")


def _node_span(jac: JacobiParams):
    """(phi_lo, phi_hi, M, K) of the level's node grid, M + 1 = ceil(32 K (phi_hi -
    phi_lo) / pi) with M in [64, 20001] (module docstring); K = inf where the
    Sturm bound fails."""
    n, a, b = jac.n, jac.a, jac.b
    if min(a, b) < 0.5:  # the Sturm bound does not hold: all of (0, pi/2)
        return 0.0, 0.5 * math.pi, _NODE_MAX, math.inf
    root_a, root_b = 0.5 * math.sqrt(a * a - 0.25), 0.5 * math.sqrt(b * b - 0.25)
    big_n, least = n + 0.5 * (a + b + 1.0), root_a + root_b
    lo, hi = math.asin(root_a / big_n), math.acos(root_b / big_n)
    k = math.sqrt((big_n - least) * (big_n + least))
    return lo, hi, min(max(math.ceil(32.0 * k * (hi - lo) / math.pi) - 1, _NODE_MIN), _NODE_MAX), k


def default_node_grid(wave: RadialWave) -> np.ndarray:
    """M points uniform in phi = theta/2, x = 1 - 2 s = cos(theta), strictly
    inside the span (phi_lo, phi_hi) of the zeros of P_n^{(2 beta, 2 zeta - 1)}:
    phi_k = phi_lo + (phi_hi - phi_lo) k / (M + 1), 16 steps per pi/K, the least
    theta-gap between nodes (module docstring).  Where 2 beta or 2 zeta - 1 is
    below 1/2 it is theta_k = pi k / 20002, whose ends, s and 1 - s = 6.2e-9,
    miss a node only past N = 1.3e4 (DLMF 18.16).  A new array on every call.
    Nodes within three theta-steps, which needs M at the cap, make count_nodes
    raise ResolutionError.
    """
    lo, hi, m, _ = _node_span(wave.jacobi)
    half = lo + (hi - lo) * np.arange(m, 0, -1) / (m + 1)  # phi_k, k = M .. 1
    return _alpha_r(half) / wave.params.alpha


def _alpha_r(half: np.ndarray) -> np.ndarray:
    """alpha r = -ln s at s = sin^2(half) for decreasing half in (0, pi/2),
    as -ln(1 - cos^2) on the prefix half > pi/4, where s is near 1."""
    near_one = np.count_nonzero(half > 0.25 * np.pi)
    head, tail = half[:near_one], half[near_one:]
    return np.concatenate((-np.log1p(-np.cos(head) ** 2), -np.log(np.sin(tail) ** 2)))


def count_nodes(wave: RadialWave, grid: np.ndarray) -> int:
    """Strict sign changes of psi over the grid interior.

    Requires every theta-step of the grid, theta = 2 atan2(sqrt(s),
    sqrt(1 - s)), that overlaps the level's span (2 phi_lo, 2 phi_hi) to be at
    most max(2 (phi_hi - phi_lo)/(M + 1), pi/(16 K)): the step of
    default_node_grid, or 16 steps per least gap between nodes where that is
    coarser.  Steps outside the span hold no node; where the Sturm bound
    fails, the span is all of (0, pi).  Adjacent sign changes closer than
    three samples raise ResolutionError since the grid cannot separate the
    roots.
    """
    grid = np.asarray(grid, dtype=float)
    # a NaN fails the order test; in order, the first point is the least
    if grid.ndim != 1 or grid.size < 2 or not (grid[1:] > grid[:-1]).all():
        raise DomainError("grid must be strictly increasing with >= 2 points")
    if not grid[0] > 0.0:
        raise DomainError("grid must lie in (0, R]")
    x = -wave.params.alpha * grid
    s, one_minus = np.exp(x), -np.expm1(x)
    half = np.arctan2(np.sqrt(s), np.sqrt(one_minus))  # theta / 2; doubling is exact
    lo, hi, m, k = _node_span(wave.jacobi)
    steps = half[:-1] - half[1:]
    if not (half[0] < hi and half[-1] > lo):  # half decreases: some points lie outside
        steps = steps[(half[1:] < hi) & (half[:-1] > lo)]
    step = 2.0 * steps.max(initial=0.0)
    limit = max(2.0 * (hi - lo) / (m + 1), math.pi / (16.0 * k))
    if not step <= limit * (1.0 + _NODE_STEP_SLACK):
        raise ResolutionError(f"largest theta-step {step:.6g} of the grid is over {limit:.6g}: "
                              f"the level needs {m} points uniform in theta")
    values = wave._psi_at(x, s, one_minus)
    idx = values.nonzero()[0]  # zero samples neither count nor hide a change
    negative = values[idx] < 0.0
    before_change = idx[:-1][negative[:-1] != negative[1:]]  # nonzero sample before it
    if (before_change[1:] - before_change[:-1] < 3).any():
        raise ResolutionError("two sign changes within three samples; refine the grid")
    return before_change.size


def _ode_radii(alpha: float, r_tail: float) -> np.ndarray:
    """np.geomspace(1e-12 / alpha, r_tail, _ODE_SAMPLES) as numpy builds it:
    10^linspace of the log10 ends, k step + start, with both ends pinned, and
    without the argument checks of either, which cost more than the radii."""
    lo = 1e-12 / alpha
    start = np.log10(lo)
    r = 10.0 ** (_ODE_STEPS * ((np.log10(r_tail) - start) / (_ODE_SAMPLES - 1)) + start)
    r[0], r[-1] = lo, r_tail
    return r


def ode_residual(wave: RadialWave, screened: bool = True) -> float:
    """Normalized residual of the radial equation at sampled radii.

    psi'' = alpha^2 norm w [(A^2 + s A_s) P + (2 A + 1) s P_s + s^2 P_ss]
    exactly, with w = s^beta v^zeta, v = 1 - s, A = beta - zeta s / v, and
    P_s, P_ss from _jacobi_scaled's differentiated recurrence, not from the
    Jacobi equation this checks.  At radii log-spaced from alpha r = 1e-12 to
    r_tail, on one scale and times v^2, it returns max |psi'' + k psi| /
    max(|psi''|, |k psi|): the rounding floor for the screened equation the
    closed form solves, where k v^2 is a polynomial in s and v (no 1/v left
    to cancel as r -> 0), and the O(alpha^2 r^2) error of the screened
    stand-ins with screened=False (exact 1/r, 1/r^2).
    """
    pot, level, c = wave.params, wave.level, wave.consts
    alpha, beta, zeta = pot.alpha, wave.beta_exp, wave.zeta_exp
    r = _ode_radii(alpha, wave.r_tail)
    x = -alpha * r
    s, v = np.exp(x), -np.expm1(x)
    p, _, log_scale, p_s, p_ss = _jacobi_scaled(wave.jacobi.n, wave.jacobi.a, wave.jacobi.b, s,
                                                derivs=2)
    log_w = beta * x + zeta * np.log(v) + log_scale
    weight = np.exp(log_w - log_w.max())  # w e^{log_scale}, one scale for all r
    zs, vs, vv = zeta * s, v * s, v * v
    va = beta * v - zs  # v A
    second = alpha**2 * weight * ((va * va - zs) * p + vs * ((2.0 * va + v) * p_s + vs * p_ss))
    ll1 = float(level.l * (level.l + 1))
    if screened:
        yukawa, centrifugal = pot.a3 * alpha * v, ll1 * alpha**2
    else:
        yukawa, centrifugal = pot.a3 * vv / r, ll1 * vv / r**2
    k_vv = 2.0 * c.mu / c.hbar**2 * (level.energy * vv + s * (pot.a1 + pot.a2 * s + yukawa))
    k_psi = (k_vv - centrifugal) * weight * p
    return float(np.abs(second + k_psi).max() / max(np.abs(second).max(), np.abs(k_psi).max()))
