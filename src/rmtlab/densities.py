"""Closed-form densities and exact gamma-product constants.

Everything here is an exact formula: the universal law of Z = B^-1 X over a
rotationally invariant real or complex parent ensemble, the general matrix
variate t family it belongs to, the Cauchy families appearing for single
components and vector solutions, sphere areas, the orthogonal-group volume
constant, and the gamma-product identities that tie them together.

All gamma products are evaluated through log-gamma, with the summands
added by math.fsum, which rounds their exact sum once, so the constants stay
exact to machine precision well past m = n = 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore

LOG_PI = math.log(math.pi)
LN2 = math.log(2.0)


@dataclass(frozen=True)
class CauchyParams:
    """Location and width of a one-dimensional Cauchy law."""

    location: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


@dataclass(frozen=True)
class TDistParams:
    """Parameters (M, Sigma, Omega, q) of the matrix variate t family.

    M is the m x n location, Sigma (m x m) and Omega (n x n) are symmetric
    positive definite scale matrices, and q > 0 tunes the tail exponent.
    The universal law of Z = B^-1 X is the member (0, I, I, 1).  Only q is
    checked here; log_matrix_t checks the matrices against its Z.
    """

    M: np.ndarray
    Sigma: np.ndarray
    Omega: np.ndarray
    q: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "M", np.atleast_2d(np.asarray(self.M, dtype=float)))
        object.__setattr__(self, "Sigma", np.atleast_2d(np.asarray(self.Sigma, dtype=float)))
        object.__setattr__(self, "Omega", np.atleast_2d(np.asarray(self.Omega, dtype=float)))
        if not 0.0 < self.q < math.inf:
            raise ValueError(f"q: must be positive and finite, got {self.q}")

    @staticmethod
    def spherical(m: int, n: int) -> "TDistParams":
        return TDistParams(M=np.zeros((m, n)), Sigma=np.eye(m), Omega=np.eye(n), q=1.0)


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere embedded in d dimensions."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return math.exp(math.log(2.0) + 0.5 * d * LOG_PI - math.lgamma(0.5 * d))


def log_universal_real_norm(m: int, n: int) -> float:
    """log of the constant normalizing det(1 + Z Z^T)^{-(m+n)/2}.

    The universal law is the matrix t member (0, I, I, 1), so this is the
    matrix t constant at q = 1.
    """
    return _log_matrix_t_norm(m, n, 1.0)


@lru_cache(maxsize=None)
def log_universal_complex_norm(m: int, n: int) -> float:
    """log of the constant normalizing det(1 + Z Z^dag)^{-(m+n)}.

    Obtained from the Selberg-type reduction over singular values in the
    complex case: 1/C = pi^{mn} prod_{j=1..n} Gamma(j) / Gamma(m+j).
    Validated against Monte Carlo moments of the complex Gaussian ensemble
    in the test suite.
    """
    terms = [-float(m * n) * LOG_PI]
    for j in range(1, n + 1):
        terms.append(math.lgamma(float(m + j)))
        terms.append(-math.lgamma(float(j)))
    return math.fsum(terms)


def _gram_logdet(Z: np.ndarray, e: int = 0) -> float:
    """log det(1 + W W^H), W = 2^e Z with e >= 0, as the sum of log(1 + sigma^2) over W's singular values.

    Above sigma = 1 each term is 2 (log(2^-e sigma) + e log 2) + log1p(sigma^-2),
    so the value stays finite and accurate for any finite Z and e.  Forming
    W W^H instead would overflow past |W| ~ 1e154, and a Cholesky
    factorization of it loses the small singular values once the large ones
    pass ~1e8.
    """
    if not np.isfinite(Z).all():
        raise ValueError("Z contains non-finite entries")
    tau = np.linalg.svd(Z, compute_uv=False)  # W's singular values over 2^e
    small, large = np.ldexp(tau[tau <= 2.0**-e], e), tau[tau > 2.0**-e]
    inv = np.ldexp(1.0 / large, -e)  # 1 / sigma, below 1
    return float(np.log1p(small * small).sum() + (2.0 * (np.log(large) + e * LN2) + np.log1p(inv * inv)).sum())


def log_universal_real(Z) -> float:
    """Log density of the universal law of Z = B^-1 X, real case.

    P(Z) = C * det(1 + Z Z^T)^{-(m+n)/2}; independent of the parent
    ensemble's radial profile.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    m, n = Z.shape
    return log_universal_real_norm(m, n) - 0.5 * (m + n) * _gram_logdet(Z)


def log_universal_complex(Z) -> float:
    """Log density of the universal law of Z = B^-1 X, complex case.

    P(Z) = C_c * det(1 + Z Z^dag)^{-(m+n)} with respect to the measure
    prod d(Re Z_ip) d(Im Z_ip).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    m, n = Z.shape
    return log_universal_complex_norm(m, n) - float(m + n) * _gram_logdet(Z)


# Smallest argument x at which lgamma(x + a) - lgamma(x) is taken from
# Stirling's series: from there on two lgammas near x log x would cancel to
# a fraction of their size
STIRLING_FROM = 1024.0
# Largest relative asymmetry max |S - S^T| / max |S| of an accepted scale
# matrix; A Sigma A^T formed in floats is asymmetric by ~1e-16
SYMMETRY_RTOL = 1e-12


@lru_cache(maxsize=None)
def _log_matrix_t_norm(m: int, n: int, q: float) -> float:
    """log D = -(mn/2) log pi + sum over j = 1..n of lgamma(x_j + m/2) - lgamma(x_j), x_j = (n - j + q)/2.

    x_j is formed from an exact integer and q, so it rounds once and stays
    positive for every q > 0; where the last, q/2, rounds to 0, lgamma(q/2)
    is log 2 - log q to the last bit.  From x_j = STIRLING_FROM on, the
    difference is Stirling's series (x - 1/2) log1p(a/x) + a log(x + a) - a
    - a/(12 x (x + a)), a = m/2, which leaves out 1e-15 of it at most for
    a <= 32; below, it is the two lgammas.
    """
    a = m / 2
    terms = [-0.5 * m * n * LOG_PI]
    for j in range(1, n + 1):
        x = ((n - j) + q) / 2
        if x == 0.0:
            terms += [math.lgamma(a), math.log(q) - LN2]
        elif x < STIRLING_FROM:
            terms += [math.lgamma(x + a), -math.lgamma(x)]
        else:
            terms += [(x - 0.5) * math.log1p(a / x), a * math.log(x + a), -a, -a / (12.0 * x * (x + a))]
    return math.fsum(terms)


def _scale_factor(name: str, S: np.ndarray, d: int) -> np.ndarray:
    """Lower Cholesky factor of the scale matrix S, which must be d x d, symmetric and positive definite.

    Symmetric means to SYMMETRY_RTOL: the factorization reads S's lower
    triangle alone, so without the check an upper triangle would be
    ignored.  Errors lead with name.
    """
    try:
        if S.shape != (d, d):
            raise ValueError(f"expected shape {(d, d)}, got {S.shape}")
        if not np.isfinite(S).all():
            raise ValueError("contains non-finite entries")
        if np.abs(S - S.T).max() > SYMMETRY_RTOL * np.abs(S).max():
            raise ValueError("must be symmetric")
        return matcore.cholesky(S)
    except ValueError as exc:  # NotPositiveDefinite is a ValueError
        raise ValueError(f"{name}: {exc}") from None


def log_matrix_t(Z, params: TDistParams) -> float:
    """Log density of the matrix variate t distribution.

    log D - (n/2) log det Sigma - (m/2) log det Omega
          - (m+n+q-1)/2 * log det(1 + Sigma^-1 (Z-M) Omega^-1 (Z-M)^T).

    This is where the parameters are checked against Z's shape m x n: M
    must be a finite m x n matrix, Sigma (m x m) and Omega (n x n)
    symmetric positive definite; a ValueError leads with the parameter's
    name.  With Cholesky factors Sigma = L L^T and Omega = R R^T, K = Z - M
    is whitened to Y = L^-1 K R^-T, whose det(1 + Y Y^T) is the determinant
    above; _gram_logdet takes it from Y's singular values, so no product of
    K is formed.  Z and M are halved before the subtraction where it could
    overflow, and K is scaled to 2^-e K, at most 1, before the solves, so
    the value stays finite for any finite Z and M even where Y would
    overflow.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    m, n = Z.shape
    M = params.M
    if M.shape != (m, n):
        raise ValueError(f"M: expected shape {(m, n)}, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("M: contains non-finite entries")
    L, R = _scale_factor("Sigma", params.Sigma, m), _scale_factor("Omega", params.Omega, n)
    logdet_sigma = 2.0 * float(np.log(np.diagonal(L)).sum())
    logdet_omega = 2.0 * float(np.log(np.diagonal(R)).sum())
    h = int(max(np.abs(Z).max(), np.abs(M).max()) >= 2.0**1023)  # Z - M could pass the largest float
    K = np.ldexp(Z, -h) - np.ldexp(M, -h)  # 2^-h (Z - M): exact but for subnormals
    e = max(0, math.frexp(np.abs(K).max())[1] + h)  # |2^-e (Z - M)| <= 1: the solves overflow only on L's and R's size
    Y = np.linalg.solve(L, np.linalg.solve(R, np.ldexp(K, h - e).T).T)
    core = _gram_logdet(Y, e)
    return (
        _log_matrix_t_norm(m, n, params.q)
        - 0.5 * n * logdet_sigma
        - 0.5 * m * logdet_omega
        - 0.5 * (m + n + params.q - 1.0) * core
    )


@lru_cache(maxsize=None)
def selberg_Z_integral(m: int, n: int) -> float:
    """Value of the integral of det(1 + Z Z^T)^{-(m+n)/2} over all real Z.

    Equals pi^{mn/2} prod_{j=1..n} Gamma(j/2) / Gamma((m+j)/2), i.e. the
    reciprocal of the universal normalization constant.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return math.exp(-log_universal_real_norm(m, n))


@lru_cache(maxsize=None)
def gaussian_detn_integral(m: int, n: int) -> float:
    """Value of the integral of exp(-tr B B^T) |det B|^n over real m x m B.

    Equals pi^{m^2/2} prod_{j=1..n} Gamma((m+j)/2) / Gamma(j/2).  A Monte
    Carlo oracle for the same quantity is pi^{m^2/2} E|det G|^n with the
    entries of G i.i.d. normal of variance 1/2.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    terms = [0.5 * m * m * LOG_PI]
    for j in range(1, n + 1):
        terms.append(math.lgamma(0.5 * (m + j)))
        terms.append(-math.lgamma(0.5 * j))
    return math.exp(math.fsum(terms))


def gamma_identity_residual(m: int, n: int) -> float:
    """Absolute log-scale residual of the two-sided gamma product identity.

    prod_{j=1..m} Gamma((n+j)/2)/Gamma(j/2) equals
    prod_{j=1..n} Gamma((m+j)/2)/Gamma(j/2); the residual is the absolute
    difference of the two log products and is ~1e-15 in exact arithmetic.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    half = [math.inf] + [math.lgamma(0.5 * k) for k in range(1, m + n + 1)]  # half[k] = lgamma(k/2)
    left = [half[n + j] - half[j] for j in range(1, m + 1)]
    right = [half[m + j] - half[j] for j in range(1, n + 1)]
    return abs(math.fsum(left + [-t for t in right]))


@lru_cache(maxsize=None)
def ortho_volume(m: int) -> float:
    """Normalized volume of the two-sided orthogonal rotation factor.

    pi^{m(m+1)/2} / (2^m prod_{j=1..m} Gamma(1 + j/2) Gamma(j/2)); this is
    the constant making the singular-value decomposition of the flat
    matrix measure count every matrix exactly once.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = [0.5 * m * (m + 1) * LOG_PI, -m * math.log(2.0)]
    for j in range(1, m + 1):
        terms.append(-math.lgamma(1.0 + 0.5 * j))
        terms.append(-math.lgamma(0.5 * j))
    return math.exp(math.fsum(terms))


def _log_square_sum(beta: float, zz: float, z) -> float:
    """log(beta^2 + zz) for zz = z^T z, as 2 log hypot(beta, *z) where the sum overflows a float."""
    try:
        s = beta**2 + zz
    except OverflowError:  # a float's ** raises where numpy's would give inf
        s = math.inf
    return math.log(s) if s < math.inf else 2.0 * math.log(math.hypot(beta, *z))


def cauchy_logpdf(x: float, params: CauchyParams = CauchyParams()) -> float:
    """Log density of the Cauchy law with the given location and width."""
    dx = x - params.location
    return math.log(params.width) - LOG_PI - _log_square_sum(params.width, dx * dx, (dx,))


def cauchy_cdf(x, params: CauchyParams = CauchyParams()):
    """CDF of the Cauchy law: 1/2 + arctan((x - loc)/width)/pi, elementwise."""
    return 0.5 + np.arctan2(np.asarray(x, dtype=float) - params.location, params.width) / math.pi


def log_mdim_cauchy(z, beta: float = 1.0) -> float:
    """Log density of the m-dimensional Cauchy law of width beta.

    P(z) = C * beta / (beta^2 + z^T z)^{(m+1)/2} with C = 2 / S_{m+1},
    fixed by normalization.  At m = 1, beta = 1 this is the standard
    Cauchy law.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = z.size
    log_c = math.log(2.0) - math.log(sphere_area(m + 1))
    with np.errstate(over="ignore"):
        zz = float(z @ z)
    return log_c + math.log(beta) - 0.5 * (m + 1) * _log_square_sum(beta, zz, z)
