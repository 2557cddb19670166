"""Canonical-ensemble thermodynamics over the bound spectrum.

The partition function treats the radial number as continuous up to a cap
lambda (normally spectrum.lambda_max):

    Z(beta, lambda) = integral_0^lambda e^{-beta E(n)} dn,
    E(n) = Q1 - Q2 (rho + Q3/rho)^2,  rho = n + delta.

Completing the square in the exponent gives the equivalent form implemented
by log_partition_integral,

    Z = e^{beta (2 Q2 Q3 - Q1)}
        * integral_delta^{lambda+delta} e^{beta Q2 (rho^2 + Q3^2 / rho^2)} d rho,

while log_partition_direct codes the n-space integrand literally; the two
routes agreeing is one of the package's acceptance checks.  thermo_state
derives every property at a point from one set of moments:

    U = -d ln Z / d beta          S = k ln Z + k beta U
    F = -(1/beta) ln Z            C = k beta^2 (<E^2> - <E>^2)

and mean_energy_fd / heat_capacity_fd are the independent finite-difference
oracles for U and C.

Overflow policy: every exponential is evaluated against a subtracted
reference exponent, so ln Z, U, S, F, C stay finite even when Z itself
overflows the double range (Z is then +inf).  Moments are computed on one
shared adaptive mesh (scipy quad_vec over analytically chosen panels) and
the variance from centered moments with a beta-adaptive energy scale, which
keeps C accurate when the Boltzmann weight concentrates in a boundary layer
many orders of magnitude narrower than the full [0, lambda] window.
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
    e0 = compact_energy(coeffs, 0.0)
    e1 = compact_energy(coeffs, lam)
    candidates = [e0, e1]
    if coeffs.q3 != 0.0:
        n_star = lambda_max(coeffs)
        if 0.0 < n_star < lam:
            candidates.append(compact_energy(coeffs, n_star))
    return min(candidates), max(candidates)


# Panels whose endpoint values sit below this are bounded, not integrated:
# the exponent of both partition integrands is convex between the chosen
# panel boundaries, so the panel maximum is at an endpoint, and a panel this
# small contributes < 1e-20 relative to the layer panel (whose peak is 1).
_PANEL_SKIP = 1e-25


def _panel_integrate(f, points):
    """Sum of integrals of (scalar or vector) f over consecutive panels.

    Individual panels are allowed to miss their relative target (a boundary
    layer spanning ~60 e-folds bottoms out near quad_vec's round-off floor);
    what must hold is that the accumulated error estimate stays small against
    the assembled total.
    """
    from scipy.integrate import quad_vec  # deferred: keeps it out of import mrey

    total = None
    err_sum = 0.0
    for a, b in zip(points[:-1], points[1:]):
        f_a = np.asarray(f(a), dtype=float)
        f_b = np.asarray(f(b), dtype=float)
        bound = np.maximum(np.abs(f_a), np.abs(f_b))
        if np.max(bound) < _PANEL_SKIP:
            piece = bound * (b - a)
            err = float(np.max(piece))
        else:
            piece, err, _ = quad_vec(
                f, a, b, epsabs=1e-280, epsrel=1e-12, limit=2000,
                norm="max", full_output=True,
            )
        err_sum += float(err)
        total = piece if total is None else total + piece
    scale = float(np.max(np.abs(total)))
    if err_sum > 1e-10 * max(scale, 1e-300):
        raise NumericalError(
            f"quadrature error {err_sum:.2e} too large for integral {scale:.2e}"
        )
    return total


def _shifted_log_integral(f, points) -> float:
    """log of integral of f over the panels, f expected in [0, ~1]."""
    total = float(_panel_integrate(f, points))
    if total <= 0.0:
        raise NumericalError("shifted integrand summed to zero")
    return math.log(total)


def _moments(coeffs: SpectralCoefficients, lam: float, beta: float):
    """(ln Z, U, Var(E)) from one shared adaptive mesh.

    The integrand vector is [w, w t, w t^2] with w = e^{-beta (E - E_ref)}
    and t = (E - E_ref)/scale, E_ref the minimum of E over the window and
    scale ~ min(energy range, 3/beta): all three components are O(1), so a
    single relative tolerance controls them jointly and their quadrature
    errors cancel in the ratios.
    """
    e_ref, e_top = _reference_energy(coeffs, lam)
    e_range = e_top - e_ref
    if e_range == 0.0:
        scale = 1.0
    elif beta == 0.0:
        scale = e_range
    else:
        scale = min(e_range, 3.0 / beta)

    def integrand(n):
        de = compact_energy(coeffs, n) - e_ref
        t = de / scale
        w = math.exp(-beta * de)
        return np.array([w, w * t, w * t * t])

    points = _split_points(coeffs, lam, beta)
    s0, s1, s2 = _panel_integrate(integrand, points)
    if s0 <= 0.0:
        raise NumericalError("partition integrand summed to zero")
    m1 = s1 / s0
    m2 = s2 / s0
    var = (m2 - m1 * m1) * scale**2
    if var < 0.0:
        if var < -1e-10 * max(m2, 1.0) * scale**2:
            raise NumericalError(f"variance came out negative: {var:.3e}")
        var = 0.0
    ln_z = -beta * e_ref + math.log(s0)
    return ln_z, e_ref + scale * m1, var


def thermo_state(inp: ThermoInput, k: float = 1.0) -> ThermoState:
    """Z, U, S, F and C at one point from a single pass of the moments."""
    beta = inp.beta
    ln_z, u, var = _moments(inp.coeffs, inp.lam, beta)
    return ThermoState(
        ln_z=ln_z,
        u=u,
        s=k * (ln_z + beta * u),
        c=k * beta**2 * var,
        f=-ln_z / beta if beta > 0.0 else None,
    )


def log_partition_integral(inp: ThermoInput) -> float:
    """ln Z via the completed-square rho-space form, integrated over n in
    [0, lambda] with rho = n + delta formed in the integrand: the ends delta
    and lambda + delta would lose lambda's digits when lambda << delta."""
    coeffs, lam, beta = inp.coeffs, inp.lam, inp.beta
    prefactor = beta * (2.0 * coeffs.q2 * coeffs.q3 - coeffs.q1)

    def g(n):
        rho = n + coeffs.delta
        return beta * coeffs.q2 * (rho * rho + coeffs.q3**2 / rho**2)

    g_max = max(g(0.0), g(lam))
    points = _split_points(coeffs, lam, beta)
    log_i = _shifted_log_integral(lambda n: math.exp(g(n) - g_max), points)
    return prefactor + g_max + log_i


def _log_s0(coeffs, lam, beta, e_ref, points=None) -> float:
    """ln integral e^{-beta (E - e_ref)} dn with a caller-fixed reference."""

    def f(n):
        return math.exp(-beta * (compact_energy(coeffs, n) - e_ref))

    if points is None:
        points = _split_points(coeffs, lam, beta)
    return _shifted_log_integral(f, points)


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
