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
even when Z itself overflows the double range (Z is then +inf).  One numpy
pass (_closed_form) takes a whole sweep, four t lanes a point, h on every lane
by one Horner pass (about 9 us a point in-process on a 2-core x86-64 guest,
against 18 for a per-point loop); thermo_state is its one-point call.

Adaptive quadrature is the oracle only: thermo_direct integrates the literal
n-space moments integral g^m e^{-beta g} dn, m = 0, 1, 2, g = E(n) - E(n_ref)
with n_ref the argmin of E, in u = |n - n_ref| on each side of n_ref, and
returns ln Z, U and C from them; log_partition_direct is its m = 0 integral.
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
        return _partition(self.ln_z)


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
# branch follows w = z^2 = a t^2.  Below _Z2_SERIES, h = t sum_k c_k (a t^2)^k
# with c_k = (-2)^k/(2k+1)!!; 22 terms leave under 1e-18 of h, h' and h'' at
# z = 1.  From _Z2_ASYMPTOTIC on, h = sum_k (2k-1)!!/(2^{k+1} t^{2k+1} a^{k+1});
# 18 terms leave under 1e-17 at z = 9, far before the smallest term (k ~ 81).
# In between, they follow from dawson(z) by its Taylor series about 1 + j/8.
_Z2_SERIES, _Z2_ASYMPTOTIC = 1.0, 81.0


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


def _horner_table():
    """(22, 3, 67) coefficients of h, h' and h'', highest power first: column
    j < 65 holds dawson's Taylor series about anchor j (in row 0), column 65
    the power series in w, column 66 the asymptotic series in 1/(2w).  Leading
    zeros pad the shorter series: 0 x + 0 = 0 and 0 x + c = c, so one Horner
    pass serves all three branches, bit for bit as each alone.

    F' = 1 - 2xF (DLMF 7.2.5) gives F^(k+1) = -2x F^(k) - 2k F^(k-1).  With
    c = p/8 and F(c) = num/den, N_k = F^(k)(c) den 8^k is an integer, so each
    Taylor coefficient F^(k)(c)/k! = N_k/(den 8^k k!) is rounded once, from
    exact integers.  13 terms leave under 2e-19 of F at |x - c| <= 1/16.
    """
    table = np.zeros((22, 3, len(_DAWSON_ANCHORS) + 2))
    scale = [_DAWSON_STEP**k * math.factorial(k) for k in range(13)]
    for j, f in enumerate(_DAWSON_ANCHORS):
        num, den = f.as_integer_ratio()
        p = _DAWSON_STEP + j
        n = [num, _DAWSON_STEP * den - 2 * p * num]
        for k in range(1, 12):
            n.append(-2 * (p * n[k] + _DAWSON_STEP**2 * k * n[k - 1]))
        table[9:, 0, j] = [n[k] / (den * scale[k]) for k in reversed(range(13))]
    c = [(-2) ** k / math.prod(range(2 * k + 1, 0, -2)) for k in range(22)] + [0.0, 0.0]
    table[:, :, -2] = [(c[j], (j + 1) * c[j + 1], (j + 2) * (j + 1) * c[j + 2])
                       for j in reversed(range(22))]
    d = [float(math.prod(range(2 * k - 1, 0, -2))) for k in range(18)]
    table[4:, :, -1] = [(d[k], (k + 1) * d[k], (k + 1) * (k + 2) * d[k])
                        for k in reversed(range(18))]
    return table


_HORNER = _horner_table()
_ANCHOR_X = 1.0 + np.arange(len(_DAWSON_ANCHORS)) / _DAWSON_STEP


# A window lambda <= _SMALL_WINDOW delta over which the weight changes by at
# most _SMALL_WINDOW_EFOLDS e-folds: the ends' terms of the closed form cancel
# there (its error grows like (rho + b/rho)/lambda), while the integrand is
# within rounding of a polynomial of degree 31, which this rule integrates.
_SMALL_WINDOW = 0.25
_SMALL_WINDOW_EFOLDS = 2.0


def _gauss_legendre(m: int):
    """Columns s, 1 - s and weight of the m-point Gauss-Legendre rule on
    (0, 1), by Newton's method on P_m from Tricomi's first guesses: pure math,
    so that import mrey does not load LAPACK and its buffers."""
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
    return np.array(rule).T[:, :, None]


_GL_S, _GL_V, _GL_WEIGHT = _gauss_legendre(16)


def _math(fn, x) -> np.ndarray:
    """fn at each value of x, rounded as math and Python's ** round: numpy's
    exp, log and power differ from them in the last bit on up to 5% of values."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _square(x: float) -> float:
    return x**2


def _h(a, t):
    """(h, dh/da, d^2h/da^2) of h(a, t) = dawson(sqrt(a) t)/sqrt(a) on 1-d
    arrays of one size, a >= 0."""
    w = a * t * t
    series = w < _Z2_SERIES
    asymptotic = w >= _Z2_ASYMPTOTIC
    # 1 on the series lanes, the only ones where a, t or w can be 0
    a_ = np.where(series, 1.0, a)
    t_ = np.where(series, 1.0, t)
    w_ = np.where(series, 1.0, w)
    root = np.sqrt(a_)
    z = root * t_
    x = np.abs(z)  # dawson is odd
    last = len(_ANCHOR_X) - 1
    j = np.minimum((x - 1.0) * _DAWSON_STEP + 0.5, last).astype(np.intp)
    x = np.where(series, w, np.where(asymptotic, 0.5 / w_, x - _ANCHOR_X[j]))
    x = np.concatenate((x, x, x))
    p = np.zeros(x.size)
    column = np.where(series, last + 1, np.where(asymptotic, last + 2, j))
    for row in _HORNER[:, :, column].reshape(len(_HORNER), -1):
        p *= x
        p += row
    p0, p1, p2 = p.reshape(3, -1)
    f = np.copysign(p0, z)
    g, a2 = 0.5 / (a_ * t_), a_ * a_
    t2 = t * t
    t3, w2, w4 = t * t2, 2.0 * w_, 4.0 * w_
    return (
        np.where(series, t * p0, np.where(asymptotic, g * p0, f / root)),
        np.where(series, t3 * p1, np.where(
            asymptotic, -g * p1 / a_, (z - (w2 + 1.0) * f) / (2.0 * a_ * root))),
        np.where(series, t3 * t2 * p2, np.where(
            asymptotic, g * p2 / a2,
            (f * (w4 * w_ + w4 + 3.0) - z * (w2 + 3.0)) / (4.0 * a2 * root))),  # (4a) a exactly
    )


def _phi_rise(r0, r1, gap, b):
    """phi(r1) - phi(r0) for phi = rho^2 + b^2/rho^2, given gap = r1 - r0,
    factored so that nearby ends do not cancel."""
    p = r0 * r1
    return gap * (r0 + r1) * (p - b) * (p + b) / (p * p)


def _closed_form(coeffs: SpectralCoefficients, lam: np.ndarray, beta: np.ndarray, k: float):
    """(ln Z, U, S, C, F) at every point of the float64 arrays lam and beta,
    from the exact S0, S1, S2, and the failures as {index: exception}; a
    failed point is NaN in every column, and F is NaN at beta = 0."""
    failures = {}
    valid = np.isfinite(lam) & (lam > 0.0) & np.isfinite(beta) & (beta >= 0.0)
    if not valid.all():  # ThermoInput's rule; ThermoInput words each failure
        for i in np.flatnonzero(~valid).tolist():
            try:
                ThermoInput(coeffs, float(lam[i]), float(beta[i]))
            except DomainError as exc:
                failures[i] = exc
        lam, beta = np.where(valid, lam, 1.0), np.where(valid, beta, 1.0)  # stand-ins
    q2 = coeffs.q2
    if q2 < 0.0:
        exc = DomainError(f"closed-form thermodynamics needs q2 >= 0, got {q2!r}")
        return [np.full(lam.size, np.nan) for _ in range(5)], {
            i: failures.get(i, exc) for i in range(lam.size)}
    a, b, r0 = beta * q2, abs(coeffs.q3), coeffs.delta
    r1 = r0 + lam
    rise = _phi_rise(r0, r1, lam, b)
    upper = rise >= 0.0  # phi peaks at the upper end
    r_p = np.where(upper, r1, r0)
    e_p = coeffs.q1 - q2 * _math(_square, r_p + coeffs.q3 / r_p)
    drop = np.abs(rise)
    # the signed sum over the ends (r1 added, r0 subtracted) and t = rho +- b/rho,
    # each end weighed by e^{-a D}, D = phi_p - phi there: four lanes a point
    x1 = b / r1
    t = np.concatenate((r1 + x1, r1 - x1, np.full(lam.size, r0 + b / r0),
                        np.full(lam.size, r0 - b / r0)))
    d1, d0 = np.where(upper, 0.0, drop), np.where(upper, drop, 0.0)
    d = np.concatenate((d1, d1, d0, d0))
    far = _math(math.exp, -a * drop)
    e1, e0 = np.where(upper, 1.0, far), np.where(upper, -far, -1.0)
    h0, h1, h2 = _h(np.concatenate((a, a, a, a)), t)
    dh0 = d * h0
    terms = np.concatenate((e1, e1, e0, e0)) * np.array((h0, h1 - dh0, h2 - d * (2.0 * h1 - dh0)))
    s = 0.5 * sum(terms.reshape(3, 4, -1).swapaxes(0, 1), 0.0)  # lane by lane, in order
    window = lam <= _SMALL_WINDOW * r0
    if window.any():
        # phi_p less phi's minimum over the window: 2b at rho = sqrt(b) if inside
        depth = np.where((r0 * r0 < b) & (b < r1 * r1), _math(_square, r_p - b / r_p), drop)
        window &= a * depth <= _SMALL_WINDOW_EFOLDS
        i = np.flatnonzero(window)
        n = lam[i] * _GL_S
        g = np.where(upper[i], -_phi_rise(r0 + n, r1[i], lam[i] * _GL_V, b),
                     _phi_rise(r0, r0 + n, n, b))
        e = _GL_WEIGHT * _math(math.exp, a[i] * g)
        s[:, i] = lam[i] * sum(np.stack((e, e * g, e * g * g), axis=1), 0.0)
    s0, s1, s2 = s
    # a flat weight: the exact integral, free of the ends' rounding
    np.copyto(s0, lam, where=a == 0.0)
    positive = s0 > 0.0
    if not positive.all():
        for i in np.flatnonzero(~positive).tolist():
            failures.setdefault(i, NumericalError(
                f"closed-form partition integral came out {float(s0[i])!r}"))
        s0 = np.where(positive, s0, np.nan)
    m1, m2 = s1 / s0, s2 / s0
    var = m2 - m1 * m1
    negative = var < 0.0
    if negative.any():
        for i in np.flatnonzero(negative & (var < -1e-10 * m2)).tolist():
            failures.setdefault(i, NumericalError(f"variance came out negative: {var[i]:.3e}"))
        var[negative] = 0.0
    ln_z = -beta * e_p + _math(math.log, s0)
    u = e_p - q2 * m1
    columns = (ln_z, u, k * (ln_z + beta * u), k * _math(_square, beta) * (q2 * q2 * var),
               np.divide(-ln_z, beta, out=np.full(lam.size, np.nan), where=beta > 0.0))
    if failures:
        for column in columns:
            column[list(failures)] = np.nan
    return columns, failures


def _check_boltzmann(k: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k_boltzmann must be finite and > 0, got {k!r}")


def _partition(ln_z: float) -> float:
    """Z from ln Z; +inf once Z overflows the double range."""
    return math.inf if ln_z > _LOG_MAX else math.exp(ln_z)


def thermo_state(inp: ThermoInput, k: float = 1.0) -> ThermoState:
    """Z, U, S, F and C at one point: the one-point call of the sweep kernel."""
    _check_boltzmann(k)
    columns, failures = _closed_form(inp.coeffs, np.array([inp.lam]), np.array([inp.beta]), k)
    if failures:
        raise failures[0]
    ln_z, u, s, c, f = (float(column[0]) for column in columns)
    return ThermoState(ln_z=ln_z, u=u, s=s, c=c, f=f if inp.beta > 0.0 else None)


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
    g = E(n) - e_ref, e_ref = E(n_ref) the minimum of E.  Each side of n_ref is
    integrated in u = |n - n_ref| by one QUADPACK QAGP call (scipy.integrate.quad)
    with the _split_points cuts, mapped to u, as breakpoints; the sides' summed
    error estimates must stay within 1e-10 of S_m.  With n - n_ref = +-u exact in

        g = -q2 (n - n_ref)(1 - q3/(rho rho_ref))(t + t_ref),  t = rho + q3/rho,

    g keeps its digits far below eps |E| (tiny lambda), and the Boltzmann layer
    at n_ref lies at u = 0, where doubles are dense (at n = 1e4 they are 1.8e-12
    apart).  Every input is a float.
    """
    from scipy.integrate import quad  # deferred: keeps it out of import mrey

    coeffs, lam, beta = inp.coeffs, inp.lam, inp.beta
    e_ref, n_ref = _reference_energy(coeffs, lam)
    q2, q3, delta = coeffs.q2, coeffs.q3, coeffs.delta
    rho_ref = n_ref + delta
    t_ref = rho_ref + q3 / rho_ref
    minus_q2, minus_beta = -q2, -beta

    def moment(u, m, side, exp=math.exp):
        gap = side * u  # n - n_ref
        rho = rho_ref + gap
        g = minus_q2 * gap * (1.0 - q3 / (rho * rho_ref)) * (rho + q3 / rho + t_ref)
        return g**m * exp(minus_beta * g)

    cuts = _split_points(coeffs, lam, beta)[1:-1]
    sides = [(side, length, sorted({u for u in (side * (cut - n_ref) for cut in cuts)
                                    if 0.0 < u < length}))
             for side, length in ((-1.0, n_ref), (1.0, lam - n_ref)) if length > 0.0]
    totals = []
    for m in range(count):
        total = err = 0.0
        for side, length, points in sides:
            # full_output keeps a missed target a number, not a warning
            part, part_err = quad(moment, 0.0, length, args=(m, side), points=points,
                                  epsabs=1e-280, epsrel=1e-12, limit=2000, full_output=1)[:2]
            total += part
            err += part_err
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


def thermo_curve(coeffs: SpectralCoefficients, sweep: str, grid, fixed_beta: float = None,
                 fixed_lambda: float = None, k: float = 1.0) -> ThermoCurve:
    """Sweep beta at fixed lambda, or lambda at fixed beta, in one call of the
    closed-form kernel.

    Points that fail (e.g. F at beta = 0) are recorded in the errors list and
    reported as NaN; the sweep continues.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array")
    if sweep not in ("beta", "lambda"):
        raise DomainError(f"sweep must be 'beta' or 'lambda', got {sweep!r}")
    fixed, name = (fixed_lambda, "lambda") if sweep == "beta" else (fixed_beta, "beta")
    if fixed is None:
        raise DomainError(f"{sweep} sweep needs fixed_{name}")
    _check_boltzmann(k)
    fixed = float(fixed)
    other = np.full(grid.size, fixed)
    lam, beta = (grid, other) if sweep == "lambda" else (other, grid)
    (ln_z, u, s, c, f), failures = _closed_form(coeffs, lam, beta, k)
    errors = {i: str(exc) for i, exc in failures.items()}
    for i in np.flatnonzero(beta == 0.0).tolist():
        errors.setdefault(i, "F undefined at beta = 0")
    return ThermoCurve(
        sweep=sweep, grid=grid, fixed_beta=fixed if sweep == "lambda" else None,
        fixed_lambda=fixed if sweep == "beta" else None, k_boltzmann=k,
        z=_math(_partition, ln_z), u=u, s=s, f=f, c=c, errors=sorted(errors.items()))
