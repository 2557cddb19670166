"""Canonical-ensemble thermodynamics over the bound spectrum.

The partition function treats the radial number as continuous up to a cap
lambda (normally spectrum.lambda_max):

    Z(beta, lambda) = integral_0^lambda e^{-beta E(n)} dn,
    E(n) = Q1 - Q2 (rho + Q3/rho)^2,  rho = n + delta.

Completing the square gives E = Q1 - 2 Q2 Q3 - Q2 phi with
phi = rho^2 + b^2/rho^2 and b = |Q3|, so with a = beta Q2 >= 0 everything
follows from

    S_m = d^m/da^m integral e^{a (phi - phi_p)} d rho,   m = 0, 1, 2,

phi_p being phi at the end of [delta, lambda + delta] where it peaks (phi is
convex, so the weight peaks at an end, and e^{a (phi - phi_p)} <= 1):

    ln Z = -beta E_p + ln S0          U = E_p - Q2 S1/S0
    C = k a^2 (S2/S0 - (S1/S0)^2)     S = k ln Z + k beta U,  F = -ln Z / beta

with E_p the energy at that end.  S_m is exact through Dawson's integral
dawson(z) = e^{-z^2} integral_0^z e^{u^2} du (DLMF 7.2.5): with
x = rho + b/rho and y = rho - b/rho, phi = x^2 - 2b = y^2 + 2b and
d rho = (dx + dy)/2, so

    integral f(phi) d rho = 1/2 integral f(x^2 - 2b) dx + 1/2 integral f(y^2 + 2b) dy,

and integral e^{a t^2} dt = e^{a t^2} h(a, t), h = dawson(sqrt(a) t)/sqrt(a).  Each
S_m is then a signed sum over the two ends and over t in {x, y} of
e^{-a D} {h, h' - D h, h'' - 2 D h' + D^2 h}, D = phi_p - phi at that end and
' = d/da.  h and its a-derivatives come from the power series for
z = sqrt(a)|t| < 1, a Taylor series of dawson about the nearest of 65
tabulated points for 1 <= z < 9 and the asymptotic series for z >= 9, each
with a fixed number of terms.  A window lambda <= delta/4 over which the
weight changes by at most two e-folds, where the two ends' terms nearly
cancel, is integrated by a fixed 16-point Gauss-Legendre rule instead.  Every
exponential is taken against the peak, so ln Z, U, S, F and C stay finite
even when Z itself overflows the double range (Z is then +inf).

Adaptive quadrature is the oracle only: thermo_direct integrates the literal
n-space moments integral g^m e^{-beta g} dn, m = 0, 1, 2, g = E(n) - E(n_ref)
with n_ref the argmin of E, by one QUADPACK call per moment, breakpoints at the
stationary point of E and through the Boltzmann boundary layers, and returns
ln Z, U and C from them; log_partition_direct is its m = 0 integral alone.  g
is taken in factored form, so it keeps its digits at tiny lambda.  On the
tests' domain sweep the route fails (NumericalError) at three points only,
lambda = 1e4 with beta near 513, 3848 and 9812, where QUADPACK meets round-off
in the boundary layer at n = lambda before its estimate reaches 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, RangeError
from .potential import SpectralCoefficients
from .spectrum import compact_energy, lambda_max

_LOG_MAX = math.log(np.finfo(float).max)
# e^{-x} is negligible against 1e-13 tolerances once x > 60
_LAYER_EFOLDS = 60.0


@dataclass(frozen=True)
class ThermoInput:
    """Coefficients, continuous level cap lambda > 0, inverse temperature beta >= 0;
    lam and beta are kept as floats (numpy scalars slow every point several-fold)."""

    coeffs: SpectralCoefficients
    lam: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"lambda must be finite and > 0, got {self.lam!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class ThermoState:
    """ln Z, U, S, C and F at one (lambda, beta) point.

    f is None at beta = 0, where F = -ln Z / beta is undefined.
    """

    ln_z: float
    u: float
    s: float
    c: float
    f: float | None

    @property
    def z(self) -> float:
        """Z itself; +inf if Z overflows the double range."""
        return math.exp(self.ln_z) if self.ln_z <= _LOG_MAX else math.inf


@dataclass
class ThermoCurve:
    """One sweep of (Z, U, S, F, C); per-point failures land in errors."""

    sweep: str
    grid: np.ndarray
    fixed_beta: float | None
    fixed_lambda: float | None
    k_boltzmann: float
    z: np.ndarray
    u: np.ndarray
    s: np.ndarray
    f: np.ndarray
    c: np.ndarray
    errors: list = field(default_factory=list)


# h(a, t) = dawson(sqrt(a) t)/sqrt(a) = integral_0^t e^{a (s^2 - t^2)} ds.  The
# branch follows z^2 = a t^2.  Below _Z2_SERIES, h = t sum_k c_k (a t^2)^k
# with c_k = (-2)^k/(2k+1)!!; 22 terms leave under 1e-18 of h, h' and h'' at
# z = 1.  From _Z2_ASYMPTOTIC on, h = sum_k (2k-1)!!/(2^{k+1} t^{2k+1} a^{k+1});
# 18 terms leave under 1e-17 at z = 9, far before the smallest term (k ~ 81).
# Rows run from the highest power down, for Horner's rule, and hold the
# coefficients of h, h' and h''.  In between, h, h' and h'' follow from
# dawson(z), which _dawson takes from its Taylor series about the nearest
# anchor c = 1 + j/8.
_Z2_SERIES = 1.0
_Z2_ASYMPTOTIC = 81.0
_C = [(-2) ** k / math.prod(range(2 * k + 1, 0, -2)) for k in range(22)] + [0.0, 0.0]
_SERIES = tuple(
    (_C[j], (j + 1) * _C[j + 1], (j + 2) * (j + 1) * _C[j + 2]) for j in reversed(range(22))
)
_D = [float(math.prod(range(2 * k - 1, 0, -2))) for k in range(18)]
_ASYMPTOTIC = tuple(
    (_D[k], (k + 1) * _D[k], (k + 1) * (k + 2) * _D[k]) for k in reversed(range(18))
)


# Dawson's integral F(1 + j/8), j = 0..64, each the double nearest the value
# (40-digit mpmath).
_DAWSON_STEP = 8
_DAWSON_ANCHORS = (
    0.5380795069127684, 0.5220504950180077, 0.4958270739643261, 0.4634169401539564,
    0.4282490710853986, 0.3929766153972907, 0.3594364206717429, 0.328724703146287,
    0.30134038892379195, 0.2773518558940047, 0.25655426284484917, 0.238598345334465,
    0.2230837221674355, 0.20961840443292779, 0.19785094717415452, 0.1874832020359483,
    0.1782710306105583, 0.17001871009157668, 0.162570914560687, 0.15580455513085378,
    0.14962159308075648, 0.14394320022365867, 0.1387052395935912, 0.13385486570593785,
    0.12934800123600512, 0.12514746807550867, 0.12122159429432365, 0.11754316343739785,
    0.11408861022682498, 0.11083739520678544, 0.1077715111802445, 0.10487508832225756,
    0.10213407442427684, 0.09953597324946795, 0.09706962847320189, 0.09472504382758852,
    0.09249323231075476, 0.09036608895026993, 0.08833628281447531, 0.08639716487021182,
    0.08454268897454385, 0.0827673438192903, 0.08106609406101173, 0.07943432919452531,
    0.07786781898606987, 0.07636267448842898, 0.07491531382621561, 0.07352243207385584,
    0.0721809746582363, 0.07088811380761201, 0.06964122764217069, 0.06843788156270939,
    0.06727581164463062, 0.0661529097868317, 0.06506721040057242, 0.06401687845328806,
    0.06300019870755338, 0.06201556601679339, 0.06106147655752788, 0.060136519893456565,
    0.05923937177997214, 0.05836878762908806, 0.057523596564578366, 0.056702696005594515,
    0.05590504672435046,
)


def _dawson_rows():
    """13 Taylor coefficients of F about each anchor, highest power first.

    F' = 1 - 2xF (DLMF 7.2.5) gives F^(k+1) = -2x F^(k) - 2k F^(k-1).  With
    c = p/8 and F(c) = num/den, N_k = F^(k)(c) den 8^k is an integer, so each
    coefficient F^(k)(c)/k! = N_k/(den 8^k k!) is rounded once, from exact
    integers.  13 terms leave under 2e-19 of F at |x - c| <= 1/16.
    """
    terms, rows = 13, []
    scale = [_DAWSON_STEP**k * math.factorial(k) for k in range(terms)]
    for j, f in enumerate(_DAWSON_ANCHORS):
        num, den = f.as_integer_ratio()
        p = _DAWSON_STEP + j
        n = [num, _DAWSON_STEP * den - 2 * p * num]
        for k in range(1, terms - 1):
            n.append(-2 * (p * n[k] + _DAWSON_STEP**2 * k * n[k - 1]))
        rows.append(tuple(n[k] / (den * scale[k]) for k in reversed(range(terms))))
    return tuple(rows)


_DAWSON_ROWS = _dawson_rows()


def _dawson(x: float) -> float:
    """Dawson's integral F(x) = e^{-x^2} integral_0^x e^{u^2} du for 1 <= |x| <= 9."""
    if x < 0.0:
        return -_dawson(-x)  # F is odd
    j = int((x - 1.0) * _DAWSON_STEP + 0.5)
    d = x - (1.0 + j / _DAWSON_STEP)
    f = 0.0
    for c in _DAWSON_ROWS[j]:
        f = f * d + c
    return f


# A window lambda <= _SMALL_WINDOW delta over which the weight changes by at
# most _SMALL_WINDOW_EFOLDS e-folds: the ends' terms of the closed form cancel
# there (its error grows like (rho + b/rho)/lambda), while the integrand is
# within rounding of a polynomial of degree 31, which this rule integrates.
_SMALL_WINDOW = 0.25
_SMALL_WINDOW_EFOLDS = 2.0


def _gauss_legendre(m: int):
    """(s, 1 - s, weight) of the m-point Gauss-Legendre rule on (0, 1), by
    Newton's method on P_m from Tricomi's first guesses: pure math, so that
    import mrey does not load LAPACK and its buffers."""
    rule = []
    for i in range(1, m + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(8):
            p_prev, p = 1.0, x
            for k in range(2, m + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = m * (p_prev - x * p) / (1.0 - x * x)
            x -= p / slope
        rule.append((0.5 - 0.5 * x, 0.5 + 0.5 * x, 1.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


_GL_RULE = _gauss_legendre(16)


def _h(a: float, t: float):
    """(h, dh/da, d^2h/da^2) of h(a, t) = dawson(sqrt(a) t)/sqrt(a), a >= 0."""
    w = a * t * t
    if w < _Z2_SERIES:
        p0 = p1 = p2 = 0.0
        for c0, c1, c2 in _SERIES:
            p0 = p0 * w + c0
            p1 = p1 * w + c1
            p2 = p2 * w + c2
        t2 = t * t
        return t * p0, t * t2 * p1, t * t2 * t2 * p2
    if w < _Z2_ASYMPTOTIC:
        root = math.sqrt(a)
        z = root * t
        f = _dawson(z)
        return (
            f / root,
            (z - (2.0 * w + 1.0) * f) / (2.0 * a * root),
            (f * (4.0 * w * w + 4.0 * w + 3.0) - z * (2.0 * w + 3.0)) / (4.0 * a * a * root),
        )
    v = 0.5 / w
    p0 = p1 = p2 = 0.0
    for d0, d1, d2 in _ASYMPTOTIC:
        p0 = p0 * v + d0
        p1 = p1 * v + d1
        p2 = p2 * v + d2
    g = 0.5 / (a * t)
    return g * p0, -g * p1 / a, g * p2 / (a * a)


def _phi_rise(r0: float, r1: float, gap: float, b: float) -> float:
    """phi(r1) - phi(r0) for phi = rho^2 + b^2/rho^2, given gap = r1 - r0,
    factored so that nearby ends do not cancel."""
    p = r0 * r1
    return gap * (r0 + r1) * (p - b) * (p + b) / (p * p)


def _window_sums(r0: float, lam: float, a: float, b: float, r_p: float, drop: float):
    """(S0, S1, S2) over rho in [r0, r0 + lambda]; r_p is the end where phi
    peaks and drop = phi_p - phi at the other end."""
    r1 = r0 + lam
    peak_upper = r_p > r0
    # phi_p less phi's minimum over the window: 2b at rho = sqrt(b) if inside
    depth = (r_p - b / r_p) ** 2 if r0 * r0 < b < r1 * r1 else drop
    if lam <= _SMALL_WINDOW * r0 and a * depth <= _SMALL_WINDOW_EFOLDS:
        s0 = s1 = s2 = 0.0
        for s, v, weight in _GL_RULE:
            n = lam * s
            if peak_upper:
                g = -_phi_rise(r0 + n, r1, lam * v, b)
            else:
                g = _phi_rise(r0, r0 + n, n, b)
            e = weight * math.exp(a * g)
            s0 += e
            s1 += e * g
            s2 += e * g * g
        return lam * s0, lam * s1, lam * s2
    s0 = s1 = s2 = 0.0
    d1, d0 = (0.0, drop) if peak_upper else (drop, 0.0)
    for r, sign, d in ((r1, 1.0, d1), (r0, -1.0, d0)):
        scale = sign * math.exp(-a * d)
        for t in (r + b / r, r - b / r):
            h0, h1, h2 = _h(a, t)
            s0 += scale * h0
            s1 += scale * (h1 - d * h0)
            s2 += scale * (h2 - d * (2.0 * h1 - d * h0))
    return 0.5 * s0, 0.5 * s1, 0.5 * s2


def _closed_form(coeffs: SpectralCoefficients, lam: float, beta: float):
    """(ln Z, U, Var(E)) at one point from the exact S0, S1, S2."""
    q2 = coeffs.q2
    if q2 < 0.0:
        raise DomainError(f"closed-form thermodynamics needs q2 >= 0, got {q2!r}")
    a = beta * q2
    b = abs(coeffs.q3)
    r0 = coeffs.delta
    rise = _phi_rise(r0, r0 + lam, lam, b)
    r_p = r0 + lam if rise >= 0.0 else r0
    e_p = coeffs.q1 - q2 * (r_p + coeffs.q3 / r_p) ** 2
    s0, s1, s2 = _window_sums(r0, lam, a, b, r_p, abs(rise))
    if a == 0.0:
        s0 = lam  # a flat weight: the exact integral, free of the ends' rounding
    if not s0 > 0.0:
        raise NumericalError(f"closed-form partition integral came out {s0!r}")
    m1 = s1 / s0
    m2 = s2 / s0
    var = m2 - m1 * m1
    if var < 0.0:
        if var < -1e-10 * m2:
            raise NumericalError(f"variance came out negative: {var:.3e}")
        var = 0.0
    return -beta * e_p + math.log(s0), e_p - q2 * m1, q2 * q2 * var


def _check_boltzmann(k: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k_boltzmann must be finite and > 0, got {k!r}")


def thermo_state(inp: ThermoInput, k: float = 1.0) -> ThermoState:
    """Z, U, S, F and C at one point from the closed-form S0, S1, S2."""
    _check_boltzmann(k)
    beta = inp.beta
    ln_z, u, var = _closed_form(inp.coeffs, inp.lam, beta)
    return ThermoState(
        ln_z=ln_z,
        u=u,
        s=k * (ln_z + beta * u),
        c=k * beta**2 * var,
        f=-ln_z / beta if beta > 0.0 else None,
    )


# ------------------------------------------------------------------ oracles


def _energy_slope(coeffs: SpectralCoefficients, n: float) -> float:
    rho = n + coeffs.delta
    return -2.0 * coeffs.q2 * (rho + coeffs.q3 / rho) * (1.0 - coeffs.q3 / rho**2)


def _split_points(coeffs: SpectralCoefficients, lam: float, beta: float) -> list:
    """Panel boundaries: endpoints, the interior stationary point of E, and
    geometric cuts resolving the Boltzmann boundary layers at each endpoint."""
    points = {0.0, lam}
    if coeffs.q3 != 0.0 and coeffs.q2 != 0.0:
        n_star = lambda_max(coeffs)
        if 0.0 < n_star < lam:
            points.add(n_star)
    if beta > 0.0:
        for end, sign in ((0.0, 1.0), (lam, -1.0)):
            rate = beta * abs(_energy_slope(coeffs, end))
            if rate * lam > _LAYER_EFOLDS:
                width = _LAYER_EFOLDS / rate
                for factor in (1.0, 30.0):
                    cut = end + sign * factor * width
                    if 0.0 < cut < lam:
                        points.add(cut)
    return sorted(points)


def _reference_energy(coeffs: SpectralCoefficients, lam: float):
    """(E(n_ref), n_ref) with n_ref the argmin of E over [0, lambda]
    (extrema sit at endpoints or the single interior stationary point)."""
    ends = [0.0, lam]
    if coeffs.q3 != 0.0:
        n_star = lambda_max(coeffs)
        if 0.0 < n_star < lam:
            ends.append(n_star)
    return min((compact_energy(coeffs, n), n) for n in ends)


def _direct_moments(inp: ThermoInput, count: int):
    """(e_ref, [S_0 .. S_{count-1}]) with S_m = integral_0^lambda g^m e^{-beta g} dn,
    g = E(n) - e_ref, each by one call of QUADPACK's QAGP (scipy.integrate.quad)
    with the interior _split_points cuts as breakpoints; QAGP subdivides from
    them and its one global error estimate must stay within 1e-10 of S_m.

    e_ref = E(n_ref) is the minimum of E, and g is taken in factored form,

        g = -q2 (n - n_ref)(1 - q3/(rho rho_ref))(t + t_ref),  t = rho + q3/rho,

    so that it keeps its digits far below eps |E| (tiny lambda); every input is a float.
    """
    from scipy.integrate import quad  # deferred: keeps it out of import mrey

    coeffs, lam, beta = inp.coeffs, inp.lam, inp.beta
    e_ref, n_ref = _reference_energy(coeffs, lam)
    q2, q3, delta = coeffs.q2, coeffs.q3, coeffs.delta
    rho_ref = n_ref + delta
    t_ref = rho_ref + q3 / rho_ref
    minus_q2, minus_beta = -q2, -beta

    def moment(n, m, exp=math.exp):
        rho = n + delta
        g = minus_q2 * (n - n_ref) * (1.0 - q3 / (rho * rho_ref)) * (rho + q3 / rho + t_ref)
        return g**m * exp(minus_beta * g)

    cuts = _split_points(coeffs, lam, beta)[1:-1]
    totals = []
    for m in range(count):
        # full_output keeps a missed target a number, not a warning
        total, err = quad(moment, 0.0, lam, args=(m,), points=cuts, epsabs=1e-280,
                          epsrel=1e-12, limit=2000, full_output=1)[:2]
        if err > 1e-10 * max(abs(total), 1e-300):
            raise NumericalError(
                f"quadrature error {err:.2e} too large for S{m} = {total:.2e}"
                f" at lambda = {lam!r}, beta = {beta!r}"
            )
        totals.append(total)
    if totals[0] <= 0.0:
        raise NumericalError(
            f"shifted integrand summed to zero at lambda = {lam!r}, beta = {beta!r}"
        )
    return e_ref, totals


def log_partition_direct(inp: ThermoInput) -> float:
    """ln Z via the literal n-space integrand (independent cross-check route)."""
    e_ref, (s0,) = _direct_moments(inp, 1)
    return -inp.beta * e_ref + math.log(s0)


def thermo_direct(inp: ThermoInput):
    """(ln Z, U, C) at k = 1 from the direct moments S0, S1, S2 (independent
    cross-check route for thermo_state)."""
    e_ref, (s0, s1, s2) = _direct_moments(inp, 3)
    m1 = s1 / s0
    return (-inp.beta * e_ref + math.log(s0), e_ref + m1,
            inp.beta**2 * (s2 / s0 - m1 * m1))


def level_energies(coeffs: SpectralCoefficients, lam: float) -> np.ndarray:
    """E(n) for the discrete levels n = 0 .. floor(lambda)."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise DomainError(f"lambda must be finite and >= 0, got {lam!r}")
    return compact_energy(coeffs, np.arange(math.floor(lam) + 1, dtype=float))


def partition_discrete(energies, beta: float) -> float:
    """Sum of e^{-beta E_n} with a max-shift; RangeError if Z itself overflows."""
    if not (math.isfinite(beta) and beta >= 0.0):
        raise DomainError(f"beta must be finite and >= 0, got {beta!r}")
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        raise DomainError("need at least one level")
    if not np.all(np.isfinite(e)):
        raise DomainError("energies must be finite")
    e_min = float(np.min(e))
    log_z = -beta * e_min + math.log(np.sum(np.exp(-beta * (e - e_min))))
    if log_z > _LOG_MAX:
        raise RangeError(f"discrete partition sum overflows: ln Z = {log_z:.6g}")
    return math.exp(log_z)


def thermo_curve(
    coeffs: SpectralCoefficients,
    sweep: str,
    grid,
    fixed_beta: float = None,
    fixed_lambda: float = None,
    k: float = 1.0,
) -> ThermoCurve:
    """Sweep beta at fixed lambda, or lambda at fixed beta.

    Points that fail (e.g. F at beta = 0) are recorded in the errors list and
    reported as NaN; the sweep continues.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array")
    if sweep == "beta":
        if fixed_lambda is None:
            raise DomainError("beta sweep needs fixed_lambda")
    elif sweep == "lambda":
        if fixed_beta is None:
            raise DomainError("lambda sweep needs fixed_beta")
    else:
        raise DomainError(f"sweep must be 'beta' or 'lambda', got {sweep!r}")
    _check_boltzmann(k)

    columns = {name: np.full(grid.size, np.nan) for name in "zusfc"}
    errors = []
    for i, value in enumerate(grid):
        beta = value if sweep == "beta" else fixed_beta
        lam = value if sweep == "lambda" else fixed_lambda
        try:
            state = thermo_state(ThermoInput(coeffs=coeffs, lam=lam, beta=beta), k)
        except (DomainError, NumericalError) as exc:
            errors.append((i, str(exc)))
            continue
        columns["z"][i] = state.z
        columns["u"][i] = state.u
        columns["s"][i] = state.s
        columns["c"][i] = state.c
        if state.f is None:
            errors.append((i, "F undefined at beta = 0"))
        else:
            columns["f"][i] = state.f
    return ThermoCurve(
        sweep=sweep,
        grid=grid,
        fixed_beta=float(fixed_beta) if sweep == "lambda" else None,
        fixed_lambda=float(fixed_lambda) if sweep == "beta" else None,
        k_boltzmann=k,
        z=columns["z"],
        u=columns["u"],
        s=columns["s"],
        f=columns["f"],
        c=columns["c"],
        errors=errors,
    )
