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
dawsn(z) = e^{-z^2} integral_0^z e^{u^2} du (DLMF 7.2.5): with
x = rho + b/rho and y = rho - b/rho, phi = x^2 - 2b = y^2 + 2b and
d rho = (dx + dy)/2, so

    integral f(phi) d rho = 1/2 integral f(x^2 - 2b) dx + 1/2 integral f(y^2 + 2b) dy,

and integral e^{a t^2} dt = e^{a t^2} h(a, t), h = dawsn(sqrt(a) t)/sqrt(a).  Each
S_m is then a signed sum over the two ends and over t in {x, y} of
e^{-a D} {h, h' - D h, h'' - 2 D h' + D^2 h}, D = phi_p - phi at that end and
' = d/da.  h and its a-derivatives come from the power series for
z = sqrt(a)|t| < 1, scipy's dawsn for 1 <= z < 9 and the asymptotic series
for z >= 9, each with a fixed number of terms.  A window lambda <= delta/4
over which the weight changes by at most two e-folds, where the two ends'
terms nearly cancel, is integrated by a fixed 16-point Gauss-Legendre rule
instead.  Every exponential is taken against the peak, so ln Z, U, S, F and
C stay finite even when Z itself overflows the double range (Z is then
+inf).

Adaptive quadrature is the oracle only: log_partition_direct integrates the
literal n-space integrand with QUADPACK on panels split at the stationary
point of E and through the Boltzmann boundary layers, and mean_energy_fd /
heat_capacity_fd difference that route in beta for U and C.
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
    """Coefficients, continuous level cap lambda > 0, inverse temperature beta >= 0."""

    coeffs: SpectralCoefficients
    lam: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"lambda must be finite and > 0, got {self.lam!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise DomainError(f"beta must be finite and >= 0, got {self.beta!r}")


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


# h(a, t) = dawsn(sqrt(a) t)/sqrt(a) = integral_0^t e^{a (s^2 - t^2)} ds.  The
# branch follows z^2 = a t^2.  Below _Z2_SERIES, h = t sum_k c_k (a t^2)^k
# with c_k = (-2)^k/(2k+1)!!; 22 terms leave under 1e-18 of h, h' and h'' at
# z = 1.  From _Z2_ASYMPTOTIC on, h = sum_k (2k-1)!!/(2^{k+1} t^{2k+1} a^{k+1});
# 18 terms leave under 1e-17 at z = 9, far before the smallest term (k ~ 81).
# Rows run from the highest power down, for Horner's rule, and hold the
# coefficients of h, h' and h''.
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
    """(h, dh/da, d^2h/da^2) of h(a, t) = dawsn(sqrt(a) t)/sqrt(a), a >= 0."""
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
        from scipy.special import dawsn  # deferred: keeps it out of import mrey

        root = math.sqrt(a)
        z = root * t
        f = float(dawsn(z))
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


def thermo_state(inp: ThermoInput, k: float = 1.0) -> ThermoState:
    """Z, U, S, F and C at one point from the closed-form S0, S1, S2."""
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
    """min and max of E over [0, lambda] (extrema sit at endpoints or the
    single interior stationary point)."""
    ends = [0.0, lam]
    if coeffs.q3 != 0.0:
        n_star = lambda_max(coeffs)
        if 0.0 < n_star < lam:
            ends.append(n_star)
    rhos = [n + coeffs.delta for n in ends]
    candidates = [coeffs.q1 - coeffs.q2 * (rho + coeffs.q3 / rho) ** 2 for rho in rhos]
    return min(candidates), max(candidates)


# Panels whose endpoint values sit below this are bounded, not integrated:
# the exponent of the partition integrand is convex between the chosen
# panel boundaries, so the panel maximum is at an endpoint, and a panel this
# small contributes < 1e-20 relative to the layer panel (whose peak is 1).
_PANEL_SKIP = 1e-25


def _panel_integrate(f, points) -> float:
    """Sum of integrals of the scalar f over consecutive panels, each by
    QUADPACK's adaptive Gauss-Kronrod rule (scipy.integrate.quad).

    Individual panels are allowed to miss their relative target (a boundary
    layer spanning ~60 e-folds bottoms out near the rule's round-off floor);
    what must hold is that the accumulated error estimate stays small against
    the assembled total.
    """
    from scipy.integrate import quad  # deferred: keeps it out of import mrey

    total = 0.0
    err_sum = 0.0
    for a, b in zip(points[:-1], points[1:]):
        bound = max(abs(f(a)), abs(f(b)))
        if bound < _PANEL_SKIP:
            piece = err = bound * (b - a)
        else:
            # full_output keeps a missed panel target a number, not a warning
            piece, err = quad(f, a, b, epsabs=1e-280, epsrel=1e-12, limit=2000,
                              full_output=1)[:2]
        err_sum += err
        total += piece
    if err_sum > 1e-10 * max(abs(total), 1e-300):
        raise NumericalError(
            f"quadrature error {err_sum:.2e} too large for integral {abs(total):.2e}"
        )
    return total


def _log_s0(coeffs, lam, beta, e_ref, points=None) -> float:
    """ln integral e^{-beta (E - e_ref)} dn with a caller-fixed reference."""
    q2, q3, delta = coeffs.q2, coeffs.q3, coeffs.delta
    # E - e_ref = c - Q2 (rho + Q3/rho)^2 in a few float operations (the
    # integrand is most of the oracle's cost); beta stays a factor outside,
    # so the rounding does not change along a finite-difference stencil
    c = coeffs.q1 - e_ref
    minus_beta = -beta

    def f(n, exp=math.exp):
        rho = n + delta
        t = rho + q3 / rho
        return exp(minus_beta * (c - q2 * t * t))

    if points is None:
        points = _split_points(coeffs, lam, beta)
    total = _panel_integrate(f, points)
    if total <= 0.0:
        raise NumericalError("shifted integrand summed to zero")
    return math.log(total)


def log_partition_direct(inp: ThermoInput) -> float:
    """ln Z via the literal n-space integrand (independent cross-check route)."""
    e_ref, _ = _reference_energy(inp.coeffs, inp.lam)
    return -inp.beta * e_ref + _log_s0(inp.coeffs, inp.lam, inp.beta, e_ref)


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


def mean_energy_fd(coeffs: SpectralCoefficients, lam: float, beta: float) -> float:
    """U = -d ln Z / d beta by central differencing at h = 1e-4 beta (independent oracle).

    The reference energy and the panel mesh are held fixed across the
    stencil, so the huge linear part of ln Z drops out analytically and the
    quadrature error varies smoothly with beta instead of jumping with each
    re-meshing; both would otherwise swamp the difference.
    """
    if beta <= 0.0:
        raise DomainError("finite-difference U requires beta > 0")
    h = 1e-4 * beta
    e_ref, _ = _reference_energy(coeffs, lam)
    points = _split_points(coeffs, lam, beta)
    g_plus = _log_s0(coeffs, lam, beta + h, e_ref, points)
    g_minus = _log_s0(coeffs, lam, beta - h, e_ref, points)
    return e_ref - (g_plus - g_minus) / (2.0 * h)


def heat_capacity_fd(
    coeffs: SpectralCoefficients, lam: float, beta: float, k: float = 1.0
) -> float:
    """C = k beta^2 d^2 ln Z / d beta^2 by finite differences (independent oracle).

    Five-point stencil at step h = 5e-3 beta: its O(h^4) truncation error
    allows a step large enough that the quadrature noise in ln Z, amplified
    by 1/h^2, stays small.  The reference energy and the panel mesh are held
    fixed as in mean_energy_fd.
    """
    if beta <= 0.0:
        raise DomainError("finite-difference C requires beta > 0")
    h = 5e-3 * beta
    e_ref, _ = _reference_energy(coeffs, lam)
    points = _split_points(coeffs, lam, beta)
    g = lambda b: _log_s0(coeffs, lam, b, e_ref, points)
    d2 = (
        -g(beta - 2.0 * h)
        + 16.0 * g(beta - h)
        - 30.0 * g(beta)
        + 16.0 * g(beta + h)
        - g(beta + 2.0 * h)
    ) / (12.0 * h**2)
    return k * beta**2 * d2


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
        fixed_beta=fixed_beta if sweep == "lambda" else None,
        fixed_lambda=fixed_lambda if sweep == "beta" else None,
        k_boltzmann=k,
        z=columns["z"],
        u=columns["u"],
        s=columns["s"],
        f=columns["f"],
        c=columns["c"],
        errors=errors,
    )
