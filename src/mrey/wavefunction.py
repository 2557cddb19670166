"""Radial bound-state wavefunctions.

In the variable s = e^{-alpha r} a valid level (u > 0, xi^2 > 0) has the
reduced radial wavefunction

    psi(r) = N s^{beta} (1 - s)^{zeta} P_n^{(2 beta, 2 zeta - 1)}(1 - 2 s)

where beta = sqrt(xi^2 + l(l+1)) equals the closed-form u of the level and
zeta = 1/2 + sqrt(1/4 + l(l+1) - x1 - x2) equals the spectral delta.  The
exponents and Jacobi indices are taken from the generic NU shape (nu.wave_shape)
rather than re-derived here, so the zeta = delta identity is a genuine
cross-module check.  N is the wave's only scale, and one three-term
recurrence for P_n, written in s rather than in x = 1 - 2 s, serves psi, the
norm, the overlaps and the tail.

Normalization is exact.  With s = e^{-alpha r} the norm integral is

    (1/alpha) * integral over (0, 1) of
        s^{2 beta - 1} (1 - s)^{2 zeta} P_n(1 - 2 s)^2 ds,

a polynomial of degree 2n against a Jacobi weight, which an (n+1)-node
Gauss-Jacobi rule integrates exactly (Golub & Welsch, Math. Comp. 23, 1969).
The rule is built in log space, so deep wells (2 beta up to ~4e5) neither
overflow nor lose the tiny weights that carry the mass.  The same rule on
the tail of the integral fixes r_tail, the radius past which doubling R
adds under 1e-13 of the norm; node grids, ode_residual and the CLI's r
range use it.  verification.check_wavefunctions rechecks every norm on an
independent Simpson grid.

No orthogonality is asserted between different n at fixed l: each level
carries its own beta exponent (energy enters the weight), so the Jacobi
orthogonality relation does not apply across levels.  overlap_matrix
reports the actual overlaps, exact by the same quadrature, as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError
from .nu import derive_constants, mrey_mapping, wave_shape
from .potential import PhysicalConstants, PotentialParams
from .spectrum import EnergyLevel

_TAIL_FRACTION = 1e-13  # stop extending R once a doubling adds less than this
_TAIL_DOUBLINGS = 64
# Tail-rule nodes beyond n: (1 - s)^{2 zeta} is not a polynomial in s, but
# with s <= e^{-10} its Taylor terms past the 32nd are below double precision
# for zeta up to ~4e4.
_TAIL_EXTRA_NODES = 16
# count_nodes evaluates psi on at most this many grid points at a time, so
# its memory does not grow with the grid.
_NODE_CHUNK = 65536
# ode_residual samples the equation at this many log-spaced radii.
_ODE_SAMPLES = 150


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
        if np.any(r_arr <= 0.0):
            raise DomainError("r must be > 0")
        s = np.exp(-self.params.alpha * r_arr)
        one_minus = -np.expm1(-self.params.alpha * r_arr)
        p, _, log_scale = _jacobi_scaled(self.jacobi.n, self.jacobi.a, self.jacobi.b, s)
        value = self.norm * (
            s**self.beta_exp * one_minus**self.zeta_exp * (p * np.exp(log_scale))
        )
        if np.ndim(r) == 0:
            return float(value)
        return value


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
    nu_coeffs = mrey_mapping(params, consts, level.l)(level.energy)
    shape = wave_shape(nu_coeffs, derive_constants(nu_coeffs))
    # the unit-scale wave (norm 1) that the norm integral is taken over
    wave = RadialWave(
        params=params,
        consts=consts,
        level=level,
        beta_exp=shape.s_exponent,
        zeta_exp=shape.one_minus_s_exponent,
        jacobi=JacobiParams(n=level.n, a=shape.jacobi_a, b=shape.jacobi_b),
        norm=1.0,
        r_tail=math.nan,
    )
    log_total, _ = _log_overlap(wave, wave)
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


def _jacobi_scaled(n: int, a, b, sigma):
    """P_n^{(a,b)}(1 - 2 sigma) and P_{n-1}^{(a,b)}(1 - 2 sigma), P_{-1} = 0.

    Returns (p_n, p_n_minus_1, log_scale) with both values = mantissa *
    e^{log_scale}; a and b may be arrays broadcasting against sigma.  This
    is the three-term recurrence (DLMF 18.9.2) with x = 1 - 2 sigma substituted
    and its constant term expanded, so nothing cancels near sigma = 0 and small
    sigma keeps its relative precision.  Where P_n(1) = binom(n + a, n)
    could overflow (deep wells) the mantissas are rescaled as they grow.
    """
    p_prev, p_curr = np.zeros_like(sigma), np.ones_like(sigma)
    if n > 0:
        p_prev, p_curr = p_curr, (a + 1.0) - (a + b + 2.0) * sigma
    log_scale = 0.0
    # on [-1, 1], |P_n| <= binom(n + max(a, b), n) < (n + max(a, b) + 2)^n
    rescale = n * math.log(n + max(np.max(a), np.max(b), 0.0) + 2.0) > 300.0
    # P_k = (c0 - c1 sigma) P_{k-1} - c2 P_{k-2}, all coefficients at once
    k = np.arange(2.0, n + 1.0).reshape((-1,) + (1,) * np.ndim(p_curr))
    s = 2.0 * k + a + b
    lead = 2.0 * k * (k + a + b) * (s - 2.0)
    c0 = (s - 1.0) * (2.0 * (a + b) * (a + 2.0 * k - 1.0) + 4.0 * k * (k - 1.0)) / lead
    c1 = 2.0 * (s - 1.0) * s * (s - 2.0) / lead
    c2 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s / lead
    for i in range(n - 1):
        p_curr, p_prev = (c0[i] - c1[i] * sigma) * p_curr - c2[i] * p_prev, p_curr
        if rescale:
            factor = np.maximum(np.abs(p_curr), 1.0)
            p_curr, p_prev = p_curr / factor, p_prev / factor
            log_scale = log_scale + np.log(factor)
    return p_curr, p_prev, log_scale


def _log_sum_exp(terms, signs=1.0, axis=None):
    """(ln |sum signs * e^terms|, sign of the sum) along axis."""
    top = np.max(terms, axis=axis, keepdims=True)
    top[np.isneginf(top)] = 0.0  # every term zero: the sum is zero
    total = np.sum(signs * np.exp(terms - top), axis=axis)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(total)) + np.squeeze(top, axis=axis), np.sign(total)


def _gauss_jacobi(m: int, a: float, b: float):
    """m-point Gauss rule for the weight s^a (1 - s)^b on (0, 1), a, b > -1.

    Returns (s, v, log_w): the nodes s, their complements v = 1 - s and the
    log weights.  In deep wells a passes 1e5, the nodes crowd s = 1 and the
    weights span hundreds of e-folds, so:

    - nodes start from the eigenvalues of the Jacobi matrix (Golub & Welsch,
      Math. Comp. 23, 1969) and take one Newton step in sigma, the smaller
      of s and v, which restores its relative precision; where v < s the
      polynomial is P_m^{(b,a)}(1 - 2v) = (-1)^m P_m^{(a,b)}(1 - 2s);
    - weights come from the Christoffel formula in logs,
        w_i = G (2m+a+b)^2 s_i v_i / ((m+a)^2 (m+b)^2 P_{m-1}(s_i)^2),
        G = Gamma(m+a+1) Gamma(m+b+1) / (Gamma(m+a+b+1) m!),
      not from eigenvectors, which lose the e^{-200}-sized weights that
      carry the mass when the integrand is huge elsewhere.
    """
    ab = a + b
    k = np.arange(1.0, m)
    t = 2.0 * k + ab
    diag = np.concatenate(([(b - a) / (ab + 2.0)], (b - a) * ab / (t * (t + 2.0))))
    off = np.sqrt(
        4.0 * k * (k + a) * (k + b) * (k + ab) / (t * t * (t + 1.0) * (t - 1.0))
    )
    # the matrix is m-square with m <= n + 16, so a dense solve costs little
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    near = x >= 0.0
    sigma = 0.5 - 0.5 * np.abs(x)
    a_el, b_el = np.where(near, a, b), np.where(near, b, a)
    # Newton in sigma from (2m+a+b)(1-x^2) P_m' = m [(a-b) - (2m+a+b) x] P_m
    # + 2 (m+a) (m+b) P_{m-1}, with dx = -2 dsigma
    p, p_prev, _ = _jacobi_scaled(m, a_el, b_el, sigma)
    slope = m * (2.0 * (2.0 * m + ab) * sigma - 2.0 * (m + b_el)) * p + 2.0 * (
        m + a_el
    ) * (m + b_el) * p_prev
    sigma = sigma + 2.0 * (2.0 * m + ab) * sigma * (1.0 - sigma) * p / slope
    if not np.all(sigma > 0.0):
        raise NumericalError(
            f"Gauss-Jacobi nodes for the weight s^{a:g} (1 - s)^{b:g} lie closer "
            "to an end of (0, 1) than double precision resolves"
        )
    _, p_prev, log_scale = _jacobi_scaled(m, a_el, b_el, sigma)
    s, v = np.where(near, sigma, 1.0 - sigma), np.where(near, 1.0 - sigma, sigma)
    log_w = (
        _log_gamma_ratio(m + 1.0, b) - _log_gamma_ratio(m + a + 1.0, b)
        + 2.0 * math.log((2.0 * m + ab) / ((m + a) * (m + b)))
        + np.log(s) + np.log(v) - 2.0 * (np.log(np.abs(p_prev)) + log_scale)
    )
    return s, v, log_w


def _log_jacobi(jacobi: JacobiParams, s, v):
    """(ln |P_n^{(a,b)}(1 - 2s)|, sign) at points given as (s, v = 1 - s),
    the recurrence running in the smaller of s and v."""
    n, a, b = jacobi.n, jacobi.a, jacobi.b
    near = s <= 0.5
    p, _, log_scale = _jacobi_scaled(
        n, np.where(near, a, b), np.where(near, b, a), np.where(near, s, v)
    )
    p = np.where(near, p, (-1.0) ** n * p)
    with np.errstate(divide="ignore"):  # a node on a root of P_n adds nothing
        return np.log(np.abs(p)) + log_scale, np.sign(p)


def _log_overlap(first: RadialWave, second: RadialWave):
    """(ln |I|, sign of I) for I = integral of psi_1 psi_2 / (norm_1 norm_2)
    over (0, inf).

    In s = e^{-alpha r} the integral is

      1 / alpha * integral over (0, 1) of
          s^{beta_1 + beta_2 - 1} (1 - s)^{zeta_1 + zeta_2}
          * P^{(1)}(1 - 2s) P^{(2)}(1 - 2s) ds,

    a polynomial of degree n_1 + n_2 against a Jacobi weight, which
    (n_1 + n_2) // 2 + 1 Gauss-Jacobi nodes integrate exactly.
    """
    alpha = first.params.alpha
    if second.params.alpha != alpha:
        raise DomainError(
            f"overlap needs one alpha (got {alpha!r} and {second.params.alpha!r}): "
            "only then do the waves share the variable s = e^{-alpha r}"
        )
    s, v, log_w = _gauss_jacobi(
        (first.jacobi.n + second.jacobi.n) // 2 + 1,
        first.beta_exp + second.beta_exp - 1.0,
        first.zeta_exp + second.zeta_exp,
    )
    log_p1, sign1 = _log_jacobi(first.jacobi, s, v)
    log_p2, sign2 = _log_jacobi(second.jacobi, s, v)
    log_sum, sign = _log_sum_exp(log_w + log_p1 + log_p2, sign1 * sign2)
    return float(log_sum) - math.log(alpha), float(sign)


def _tail_radius(wave: RadialWave, log_total: float) -> float:
    """R past which the tail of (psi / norm)^2 is negligible.

    R starts at max(2, 10/alpha) and doubles until the doubling adds at most
    _TAIL_FRACTION of the running total.  The piece over [R, 2R] is
    T(R) - T(2R), with s_R = e^{-alpha R}, t = s / s_R and

      T(R) = 1 / alpha * s_R^{2 beta} * integral over (0, 1) of
             t^{2 beta - 1} (1 - s_R t)^{2 zeta} P_n(1 - 2 s_R t)^2 dt.

    One Gauss-Jacobi rule in t serves every R.
    """
    alpha, jac = wave.params.alpha, wave.jacobi
    two_beta, two_zeta = 2.0 * wave.beta_exp, 2.0 * wave.zeta_exp
    t, _, log_w = _gauss_jacobi(jac.n + _TAIL_EXTRA_NODES, two_beta - 1.0, 0.0)
    uppers = max(2.0, 10.0 / alpha) * 2.0 ** np.arange(_TAIL_DOUBLINGS + 1)
    log_s = -alpha * uppers
    sigma = np.exp(log_s)[:, None] * t
    p, _, log_scale = _jacobi_scaled(jac.n, jac.a, jac.b, sigma)
    terms = log_w + two_zeta * np.log1p(-sigma) + 2.0 * (np.log(np.abs(p)) + log_scale)
    log_tail = two_beta * log_s + _log_sum_exp(terms, axis=1)[0] - math.log(alpha)
    log_piece = log_tail[:-1] + np.log(-np.expm1(log_tail[1:] - log_tail[:-1]))
    log_running = log_total + np.log1p(-np.exp(log_tail[1:] - log_total))
    done = np.nonzero(log_piece <= math.log(_TAIL_FRACTION) + log_running)[0]
    if done.size == 0:
        raise NumericalError(
            f"normalization tail did not converge within {_TAIL_DOUBLINGS} doublings"
        )
    return float(uppers[done[0] + 1])


def default_node_grid(wave: RadialWave) -> np.ndarray:
    """A grid over (0, r_tail] dense enough for count_nodes."""
    upper = wave.r_tail
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
    # psi is evaluated chunk by chunk; the last nonzero sample and the last
    # change carry over, so the count and the gap test see the whole grid.
    carried_idx, carried_sign = np.empty(0, dtype=np.intp), np.empty(0)
    last_change = np.empty(0, dtype=np.intp)
    changes = 0
    for start in range(0, grid.size, _NODE_CHUNK):
        signs = np.sign(wave.psi(grid[start:start + _NODE_CHUNK]))
        nonzero = np.nonzero(signs)[0]
        idx = np.concatenate([carried_idx, nonzero + start])
        sign = np.concatenate([carried_sign, signs[nonzero]])
        before_change = idx[:-1][sign[1:] != sign[:-1]]  # nonzero sample before it
        changed = np.concatenate([last_change, before_change])
        if np.any(np.diff(changed) < 3):
            raise ResolutionError("two sign changes within three samples; refine the grid")
        changes += before_change.size
        last_change = changed[-1:]
        carried_idx, carried_sign = idx[-1:], sign[-1:]
    return changes


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


def ode_residual(wave: RadialWave, screened: bool = True) -> float:
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
    alpha = wave.params.alpha
    r_hi = min(wave.r_tail, 30.0 / (alpha * max(wave.beta_exp, 0.5)) + 10.0 / alpha)
    r = np.geomspace(0.02 / alpha, r_hi, _ODE_SAMPLES)
    h = np.minimum(1e-4 / alpha, r / 10.0)
    stencil = r + np.arange(-2.0, 3.0)[:, None] * h  # r - 2h .. r + 2h, one psi call
    psi_m2, psi_m1, psi_0, psi_p1, psi_p2 = wave.psi(stencil)
    second = (-psi_m2 + 16.0 * psi_m1 - 30.0 * psi_0 + 16.0 * psi_p1 - psi_p2) / (
        12.0 * h**2
    )
    k_psi = _stiffness(wave, r, screened) * psi_0
    scale = max(np.max(np.abs(second)), np.max(np.abs(k_psi)))
    if scale == 0.0:
        raise NumericalError("degenerate sample: psi vanished at all points")
    return float(np.max(np.abs(second + k_psi)) / scale)


def overlap_matrix(waves: list[RadialWave]) -> np.ndarray:
    """Pairwise integrals of psi_i psi_j (diagnostic; not expected diagonal).

    Exact by Gauss-Jacobi quadrature; all waves must share one alpha.
    """
    size = len(waves)
    log_norms = [math.log(wave.norm) for wave in waves]
    out = np.eye(size)
    for i in range(size):
        for j in range(i + 1, size):
            log_value, sign = _log_overlap(waves[i], waves[j])
            out[i, j] = out[j, i] = sign * math.exp(log_value + log_norms[i] + log_norms[j])
    return out
