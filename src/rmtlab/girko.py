"""Distribution of solutions of random linear systems B z = b - X u.

For a rotationally invariant joint ensemble over the coefficients and the
inhomogeneity, the solution vector z follows an m-dimensional Cauchy law of
width beta = sqrt(1 + u^T u), independently of the radial profile.  For
systems with i.i.d. stable entries (the classical setting), only the
closed-form exponents alpha = 1 (Cauchy entries) and alpha = 2 (normal
entries) are supported, and they bracket the rotationally invariant result
with exact oracles: the single component CDF is the Cauchy CDF of width
beta at alpha = 2 and an exact expression in the Legendre chi function
chi_2 at alpha = 1, both evaluated on whole arrays in numpy.  The component
density is available by adaptive quadrature: scipy's quad, imported on first
use as the module attribute quad, so that importing the package loads no
scipy.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import densities, ensembles

QUAD_ABS_TOL = 1e-10
QUAD_ERR_CAP = 1e-8


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature did not reach the requested accuracy."""


@dataclass(frozen=True)
class LinearSystemSpec:
    """An ensemble of m linear equations in m unknowns with n parameters.

    The joint law of (A, b) is radial in tr A^T A + b^T b; u holds the n
    fixed parameter values multiplying the non-unknown columns.
    """

    m: int
    n: int
    u: tuple[float, ...]
    radial: ensembles.RadialLaw = ensembles.GaussianEntries()

    def __init__(self, m, n, u=(), radial=ensembles.GaussianEntries()):
        object.__setattr__(self, "m", ensembles.as_integer(m, "m"))
        object.__setattr__(self, "n", ensembles.as_integer(n, "n"))
        object.__setattr__(self, "u", tuple(ensembles.as_reals(u, "u").ravel().tolist()))
        object.__setattr__(self, "radial", radial)
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if len(self.u) != self.n:
            raise ValueError(f"u has {len(self.u)} entries, expected n = {self.n}")


@dataclass(frozen=True)
class StableLaw:
    """Symmetric stable law with characteristic function exp(-|t|^alpha / 2).

    Only the closed-form members are accepted: alpha = 2 is the normal law
    of unit variance and alpha = 1 the Cauchy law of scale 1/2.  The
    solution z of B z = b - X u does not change when every entry is scaled
    alike, so one scale serves every solution law.
    """

    alpha: int

    def __post_init__(self):
        if self.alpha not in (1, 2):
            raise ValueError(f"only alpha in {{1, 2}} has a closed-form density, got {self.alpha}")

    def pdf(self, x: float) -> float:
        if self.alpha == 2:
            return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        return 0.5 / (math.pi * (x * x + 0.25))

    def cdf(self, x: float) -> float:
        if self.alpha == 2:
            return 0.5 * math.erfc(-x / math.sqrt(2.0))
        return 0.5 + math.atan2(x, 0.5) / math.pi

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        if self.alpha == 2:
            return rng.standard_normal(size)
        return 0.5 * np.tan(math.pi * (rng.random(size) - 0.5))


def beta_euclidean(u) -> float:
    """Width sqrt(1 + u^T u) of the solution law over a rotationally invariant ensemble.

    Where u^T u overflows a float, the width is math.hypot(1, *u) instead.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        beta = math.sqrt(1.0 + float(u @ u))
    return beta if beta < math.inf else math.hypot(1.0, *u)


def beta_alpha(u, alpha: float) -> float:
    """Width (1 + sum |u_p|^alpha)^(1/alpha) for i.i.d. stable entries.

    Where a power overflows a float, the largest |u_p| is factored out first.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    u = np.abs(np.asarray(u, dtype=float))
    with np.errstate(over="ignore"):
        beta = float((1.0 + np.sum(u**alpha)) ** (1.0 / alpha))
    if beta == math.inf and np.isfinite(u).all():
        top = float(u.max())
        beta = top * float(((1.0 / top) ** alpha + np.sum((u / top) ** alpha)) ** (1.0 / alpha))
    return beta


def girko_logdensity(z, u) -> float:
    """Log density of the solution vector z given the parameter vector u.

    This is the m-dimensional Cauchy law of width beta_euclidean(u); it
    depends on z and u only through z^T z and u^T u.
    """
    return densities.log_mdim_cauchy(z, beta_euclidean(u))


def _system_split(m: int, n: int, u) -> Callable:
    """Split flat (A, b) rows, A's m(m+n) entries row by row and then b, into B and b - X u."""
    u = np.asarray(u, dtype=float)

    def split(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        A = V[:, : m * (m + n)].reshape(len(V), m, m + n)
        rhs = V[:, m * (m + n):] - A[:, :, m:] @ u
        return A[:, :, :m], rhs[:, :, None]

    return split


def solution_sampler(spec: LinearSystemSpec) -> Callable:
    """The sampler (rng, k) -> (B, b - X u) of systems B z = b - X u, for draw_block.

    The flat (A, b) is radius times a uniform direction in dimension
    m(m+n+1), so the radial law applies to tr A^T A + b^T b.  Each system
    is drawn scaled to the mantissa of its radius, an exact power of two
    away from the true (A, b), which changes no solution z and keeps the
    elimination inside the float range at any radius.
    """
    d = spec.m * (spec.m + spec.n + 1)
    split = _system_split(spec.m, spec.n, spec.u)
    return lambda rng, k: split(ensembles._radial_rows(spec.radial, d, rng, k, mantissa=True))


def stable_sampler(m: int, n: int, u, law: StableLaw) -> Callable:
    """The sampler of systems B z = b - X u whose entries of A and b are i.i.d. from law.

    m, n and u are checked as LinearSystemSpec checks them.
    """
    spec = LinearSystemSpec(m, n, u)
    d = spec.m * (spec.m + spec.n + 1)
    split = _system_split(spec.m, spec.n, spec.u)
    return lambda rng, k: split(law.sample((k, d), rng))


def sample_stable_system(m: int, n: int, u, law: StableLaw, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Draw one solution z of B z = b - X u with i.i.d. stable entries."""
    z, rejects = ensembles.draw_block(stable_sampler(m, n, u, law), rng, 1)
    return z[0, :, 0], rejects


def __getattr__(name: str):
    # quad is looked up here on first use only, so that importing the package
    # loads no scipy; it is then cached as an ordinary attribute, which a
    # caller may replace (perfbench wraps it)
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad_checked(f, lo, hi, what: str, points=None) -> float:
    from scipy.integrate import IntegrationWarning

    integrate = globals().get("quad") or __getattr__("quad")
    with warnings.catch_warnings():
        # the error estimate is checked explicitly below
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = integrate(f, lo, hi, epsabs=QUAD_ABS_TOL, limit=500, points=points)
    if not math.isfinite(value) or err > QUAD_ERR_CAP:
        raise QuadratureFailure(f"{what}: estimated error {err:.2e}")
    return value


def _feature_points(zeta: float, beta: float) -> list[float]:
    # the integrand varies fastest where r*|zeta|/beta ~ 1; hand those
    # scales to the adaptive subdivision as explicit breakpoints
    pts = {math.atan(1.0)}
    if zeta != 0.0:
        pts.add(math.atan(beta / abs(zeta)))
        pts.add(math.atan(abs(zeta) / beta))
    return sorted(pts)


def girko_stable_density(zeta: float, law: StableLaw, beta: float) -> float:
    """Density of one solution component for i.i.d. stable entries.

    p(zeta; alpha, beta) = (2/beta) * int_0^inf r rho(r zeta / beta) rho(r) dr
    with rho the entry density, evaluated by adaptive quadrature after the
    compactifying substitution r = tan(theta).  For alpha = 1 the density
    has an integrable logarithmic singularity at zeta = 0, where the
    integral itself diverges and QuadratureFailure is raised.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")

    def integrand(theta: float) -> float:
        r = math.tan(theta)
        sec2 = 1.0 + r * r
        return sec2 * r * law.pdf(r * zeta / beta) * law.pdf(r)

    value = _quad_checked(integrand, 0.0, 0.5 * math.pi, f"stable density at {zeta}",
                          points=_feature_points(zeta, beta))
    return 2.0 / beta * value


def _girko_stable_cdf_quad(zeta: float, law: StableLaw, beta: float) -> float:
    """CDF matching girko_stable_density, as a single adaptive quadrature.

    Integrating the defining double integral in the other order gives
    CDF(zeta) = 2 int_0^inf rho(r) F(r zeta / beta) dr with F the entry
    CDF; unlike the density this is smooth in zeta everywhere.  The
    reference for girko_stable_cdf, good to about 3e-8.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")

    def integrand(theta: float) -> float:
        r = math.tan(theta)
        sec2 = 1.0 + r * r
        return sec2 * law.pdf(r) * law.cdf(r * zeta / beta)

    value = _quad_checked(integrand, 0.0, 0.5 * math.pi, f"stable cdf at {zeta}",
                          points=_feature_points(zeta, beta))
    return min(1.0, max(0.0, 2.0 * value))


# 1 / (2j + 1)^2 for j = 0..23: the odd series of chi_2, highest power first.
# At x = sqrt(2) - 1 the first term left out is below 1e-22 relative.
_CHI2_SERIES = 1.0 / (2.0 * np.arange(23, -1, -1) + 1.0) ** 2
_LANDEN_SPLIT = math.sqrt(2.0) - 1.0


def _chi2(x: np.ndarray) -> np.ndarray:
    """Legendre's chi_2(x) = sum_j x^(2j+1) / (2j+1)^2 for 0 < x < 1.

    The series is summed in Horner form in x^2 up to x = sqrt(2) - 1.  Above
    that point Landen's identity (Lewin, Polylogarithms and Associated
    Functions, 1981) maps x to y = (1 - x) / (1 + x) < sqrt(2) - 1:
    chi_2(x) = pi^2/8 + (1/2) ln y ln((1 + y)/(1 - y)) - chi_2(y), where
    (1 + y)/(1 - y) = 1/x.  Within 1e-15 relative of 30-digit mpmath on
    [1e-12, 1).
    """
    low = x <= _LANDEN_SPLIT
    y = np.where(low, x, (1.0 - x) / (1.0 + x))
    y2 = y * y
    series = np.full_like(y, _CHI2_SERIES[0])
    for c in _CHI2_SERIES[1:]:
        series *= y2
        series += c
    series *= y
    return np.where(low, series, 0.125 * math.pi**2 - 0.5 * np.log(y) * np.log(x) - series)


def _arctan_cauchy_integral(k: np.ndarray) -> np.ndarray:
    """I(k) = int_0^inf arctan(k t) / (1 + t^2) dt for 0 <= k <= 1.

    I'(k) = ln k / (k^2 - 1) integrates to chi_2(k) - ln k artanh k, with
    Legendre's chi function chi_2 evaluated in numpy by _chi2.  At the ends
    ln k artanh k is 0 * inf, so they take their limits: I(0) = 0 and
    I(1) = chi_2(1) = pi^2 / 8.
    """
    inner = (k > 0.0) & (k < 1.0)
    kin = np.where(inner, k, 0.5)
    value = _chi2(kin) - np.log(kin) * np.arctanh(kin)
    return np.where(inner, value, np.where(k == 1.0, 0.125 * math.pi**2, 0.0))


def girko_stable_cdf(zeta, law: StableLaw, beta: float):
    """Exact CDF of one solution component for i.i.d. stable entries.

    zeta may be a scalar (a float is returned) or an array (an array of the
    same shape is returned).  At alpha = 2 the component is Cauchy of width
    beta.  At alpha = 1, substituting r = t / 2 in CDF(zeta) =
    2 int_0^inf rho(r) F(r zeta / beta) dr gives
    CDF(zeta) = 1/2 + (2/pi^2) sgn(k) I(|k|) with k = zeta / beta and
    I(k) = int_0^inf arctan(k t) / (1 + t^2) dt, which is exact in chi_2
    for k <= 1 and follows from I(k) = pi^2/4 - I(1/k) for k > 1.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    z = np.asarray(zeta, dtype=float)
    if law.alpha == 2:
        cdf = densities.cauchy_cdf(z, densities.CauchyParams(0.0, beta))
    else:
        k = z / beta
        a = np.abs(k)
        with np.errstate(divide="ignore"):
            inv = 1.0 / a
        big = a > 1.0
        small = _arctan_cauchy_integral(np.where(big, inv, a))
        integral = np.where(big, 0.25 * math.pi**2 - small, small)
        cdf = 0.5 + (2.0 / math.pi**2) * np.sign(k) * integral
    cdf = np.clip(cdf, 0.0, 1.0)
    return float(cdf) if cdf.ndim == 0 else cdf
