"""Tests for the closed-form densities and exact constants.

Wherever a constant admits an independent route (adaptive quadrature of
the density, Monte Carlo moments, a classical special value), that route
is computed here and the formula is required to match it.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rmtlab import densities as de
from rmtlab import ensembles as en
from rmtlab import matcore, stats


def polar_integral(radial_profile, dim: int) -> float:
    """Quadrature oracle: integral over R^dim of a rotation-invariant density."""
    area = de.sphere_area(dim)
    val, err = quad(lambda r: area * r ** (dim - 1) * radial_profile(r), 0.0, np.inf, limit=200)
    assert err < 1e-9
    return val


class TestSphereArea:
    def test_circle(self):
        assert abs(de.sphere_area(2) - 2 * math.pi) < 1e-12

    def test_sphere(self):
        assert abs(de.sphere_area(3) - 4 * math.pi) < 1e-12

    def test_two_points(self):
        assert abs(de.sphere_area(1) - 2.0) < 1e-12


class TestUniversalReal:
    def test_scalar_at_zero(self):
        assert abs(de.log_universal_real([[0.0]]) - math.log(1 / math.pi)) < 1e-12

    def test_zero_matrix_gives_norm_constant(self):
        for m, n in [(1, 1), (2, 3), (4, 2)]:
            assert de.log_universal_real(np.zeros((m, n))) == de.log_universal_real_norm(m, n)

    def test_norm_is_the_matrix_t_norm_at_q1(self):
        # the universal law's own sum, log Gamma((m + j)/2) - log Gamma(j/2) over j,
        # holds the matrix t terms at q = 1, and fsum rounds each exact sum once
        for m in range(1, 65):
            for n in range(1, 65):
                terms = [-0.5 * m * n * de.LOG_PI]
                for j in range(1, n + 1):
                    terms += [math.lgamma(0.5 * (m + j)), -math.lgamma(0.5 * j)]
                assert de.log_universal_real_norm(m, n) == math.fsum(terms) == de._log_matrix_t_norm(m, n, 1.0)

    def test_normalization_by_quadrature(self):
        # (1,1): density over the line; (2,1): polar quadrature over the plane
        val = polar_integral(lambda r: 0.5 * (
            math.exp(de.log_universal_real([[r]])) + math.exp(de.log_universal_real([[-r]]))
        ), 1)
        assert abs(val - 1.0) < 1e-6
        val2 = polar_integral(lambda r: math.exp(de.log_universal_real([[r], [0.0]])), 2)
        assert abs(val2 - 1.0) < 1e-6

    def test_rotation_invariance(self):
        # depends on Z only through its singular values
        rng = np.random.default_rng(21)
        for _ in range(25):
            m, n = 3, 2
            Z = rng.standard_normal((m, n))
            O1, _ = np.linalg.qr(rng.standard_normal((m, m)))
            O2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            assert abs(de.log_universal_real(O1 @ Z @ O2) - de.log_universal_real(Z)) < 1e-9

    def test_exactness_gaussian_ensemble(self):
        # scalar case: 2e4 ensemble draws against the arctan CDF
        spec = en.EnsembleSpec(m=1, n=1)
        draws, _ = en.draw_rows(en.ratio_sampler(spec), 20260808, 0, 20_000, lambda Z: Z[:, 0, 0])
        rep = stats.ks_one_sample(draws, de.cauchy_cdf)
        assert rep.p_value > 1e-3


    def test_finite_at_huge_entries(self):
        # det(1 + Z Z^T) = 1 + 1e400 overflows when formed; log(1 + 1e400) = 400 log 10
        big = 400.0 * math.log(10.0)
        for Z, m, n in (([[1e200], [0.0]], 2, 1), ([[1e200, 0.0], [0.0, 0.0]], 2, 2), ([[1e200, 1e200]], 1, 2)):
            want = de.log_universal_real_norm(m, n) - 0.5 * (m + n) * (big + (math.log(2.0) if m == 1 else 0.0))
            assert abs(de.log_universal_real(Z) - want) <= 1e-12 * abs(want)
            # the matrix t member (0, I, I, 1) is the same law and stays as finite
            assert abs(de.log_matrix_t(Z, de.TDistParams.spherical(m, n)) - want) <= 1e-12 * abs(want)

    def test_matches_gram_cholesky(self):
        rng = np.random.default_rng(23)
        for m, n in ((1, 1), (3, 2), (2, 5)):
            Z = 3.0 * rng.standard_normal((m, n))
            want = de.log_universal_real_norm(m, n) - 0.5 * (m + n) * matcore.spd_logdet(np.eye(m) + Z @ Z.T)
            assert abs(de.log_universal_real(Z) - want) < 1e-12 * max(1.0, abs(want))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            de.log_universal_real([[np.inf], [0.0]])


class TestUniversalComplex:
    def test_finite_at_huge_entries(self):
        want = de.log_universal_complex_norm(1, 1) - 2.0 * 400.0 * math.log(10.0)
        assert abs(de.log_universal_complex([[1e200j]]) - want) <= 1e-12 * abs(want)


    def test_scalar_at_zero(self):
        assert abs(de.log_universal_complex([[0.0]]) - math.log(1 / math.pi)) < 1e-12

    def test_scalar_norm_constant_by_quadrature(self):
        # integral over the complex plane of (1 + |z|^2)^-2 equals pi
        val, err = quad(lambda r: 2 * math.pi * r * (1 + r * r) ** -2, 0.0, np.inf)
        assert abs(val - math.pi) < 1e-9
        assert abs(de.log_universal_complex_norm(1, 1) + math.log(val)) < 1e-9

    def test_frozen_constant_table(self):
        # 1/C = pi^{mn} prod_j Gamma(j)/Gamma(m+j), frozen for small (m, n)
        table = {
            (1, 1): math.pi,
            (2, 1): math.pi**2 / 2,
            (1, 2): math.pi**2 / 2,
            (2, 2): math.pi**4 / 12,
            (3, 2): math.pi**6 / 144,
        }
        for (m, n), inv_c in table.items():
            assert abs(math.exp(-de.log_universal_complex_norm(m, n)) - inv_c) < 1e-10 * inv_c

    def test_constant_against_monte_carlo_moments(self):
        # E|det G|^{2n} over the complex Gaussian ensemble must reproduce
        # the gamma product behind the normalization constant:
        # E|det G|^{2n} = pi^{mn} * C
        rng = np.random.default_rng(22)
        for m, n in [(1, 1), (2, 1), (2, 2)]:
            N = 100_000
            G = (rng.standard_normal((N, m, m)) + 1j * rng.standard_normal((N, m, m))) * math.sqrt(0.5)
            vals = np.abs(np.linalg.det(G)) ** (2 * n)
            est = stats.mc_mean(vals)
            target = math.pi ** (m * n) * math.exp(de.log_universal_complex_norm(m, n))
            assert abs(est.mean - target) < 3.0 * est.stderr

    def test_modulus_squared_cdf(self):
        # |z|^2 for m=n=1 has CDF s/(1+s); verified against quadrature of the density
        for s in (0.1, 1.0, 4.0):
            val, err = quad(
                lambda r: 2 * math.pi * r * math.exp(de.log_universal_complex([[r]])),
                0.0,
                math.sqrt(s),
            )
            assert abs(val - s / (1 + s)) < 1e-9

    def test_zero_matrix_gives_norm_constant(self):
        for m, n in [(1, 2), (3, 2)]:
            Z = np.zeros((m, n), dtype=complex)
            assert de.log_universal_complex(Z) == de.log_universal_complex_norm(m, n)


class TestMatrixT:
    def test_reduces_to_universal_law(self):
        rng = np.random.default_rng(23)
        params = de.TDistParams.spherical(3, 2)
        for _ in range(20):
            Z = rng.standard_normal((3, 2))
            assert abs(de.log_matrix_t(Z, params) - de.log_universal_real(Z)) < 1e-12

    def test_value_at_location(self):
        m, n = 2, 3
        rng = np.random.default_rng(24)
        M = rng.standard_normal((m, n))
        A = rng.standard_normal((m, m + 2))
        B = rng.standard_normal((n, n + 2))
        params = de.TDistParams(M=M, Sigma=np.eye(m) + A @ A.T, Omega=np.eye(n) + B @ B.T, q=2.5)
        expected = (
            de._log_matrix_t_norm(m, n, 2.5)
            - 0.5 * n * matcore.spd_logdet(params.Sigma)
            - 0.5 * m * matcore.spd_logdet(params.Omega)
        )
        assert abs(de.log_matrix_t(M, params) - expected) < 1e-12

    def test_scalar_value(self):
        params = de.TDistParams.spherical(1, 1)
        assert abs(de.log_matrix_t([[1.0]], params) - math.log(1 / (2 * math.pi))) < 1e-12

    def test_finite_at_a_tiny_scale(self):
        # Sigma = 1e-300 I: the log density at the location is 450 log 10 above the norm constant
        params = de.TDistParams(M=np.zeros((3, 1)), Sigma=1e-300 * np.eye(3), Omega=np.eye(1))
        want = de._log_matrix_t_norm(3, 1, 1.0) + 450.0 * math.log(10.0)
        assert abs(de.log_matrix_t(np.zeros((3, 1)), params) - want) <= 1e-12 * want

    def test_general_family_normalizes(self):
        # scalar member with q = 3 is a rescaled Student t; quadrature = 1
        params = de.TDistParams(M=[[0.5]], Sigma=[[2.0]], Omega=[[0.7]], q=3.0)
        val, err = quad(lambda z: math.exp(de.log_matrix_t([[z]], params)), -np.inf, np.inf)
        assert abs(val - 1.0) < 1e-8

    def test_rejects_bad_shapes(self):
        params = de.TDistParams.spherical(2, 2)
        with pytest.raises(ValueError, match=r"^M: expected shape \(3, 2\), got \(2, 2\)$"):
            de.log_matrix_t(np.zeros((3, 2)), params)

    @pytest.mark.parametrize(("changes", "message"), [
        ({"Sigma": np.eye(3)}, r"Sigma: expected shape \(2, 2\), got \(3, 3\)"),
        ({"Omega": np.eye(2)}, r"Omega: expected shape \(1, 1\), got \(2, 2\)"),
        ({"Sigma": [[1.0, 5.0], [0.0, 1.0]]}, "Sigma: must be symmetric"),
        ({"Sigma": [[1.0, 0.0], [5.0, 1.0]]}, "Sigma: must be symmetric"),
        ({"Sigma": [[1.0, 2.0], [2.0, 1.0]]}, "Sigma: Matrix is not positive definite"),
        ({"Sigma": np.zeros((2, 2))}, "Sigma: Matrix is not positive definite"),
        ({"Omega": [[-1.0]]}, "Omega: Matrix is not positive definite"),
        ({"Sigma": [[1.0, 0.0], [0.0, np.inf]]}, "Sigma: contains non-finite entries"),
        ({"M": [[np.nan], [0.0]]}, "M: contains non-finite entries"),
    ])
    def test_names_the_bad_parameter(self, changes, message):
        params = {"M": np.zeros((2, 1)), "Sigma": np.eye(2), "Omega": np.eye(1)} | changes
        with pytest.raises(ValueError, match=f"^{message}$"):
            de.log_matrix_t(np.zeros((2, 1)), de.TDistParams(**params))

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    def test_q_must_be_positive_and_finite(self, q):
        with pytest.raises(ValueError, match="^q: must be positive and finite"):
            de.TDistParams(M=[[0.0]], Sigma=[[1.0]], Omega=[[1.0]], q=q)

    def test_round_off_asymmetry_is_accepted_as_it_stands(self):
        # A Sigma A^T formed in floats is symmetric only to round-off; the
        # value is that of the symmetric matrix with the same lower triangle, bit for bit
        rng = np.random.default_rng(31)
        for m in range(2, 9):
            A, G = rng.standard_normal((m, m)), rng.standard_normal((m, m + 2))
            S = A @ (G @ G.T) @ A.T
            Z = rng.standard_normal((m, 2))
            lower = np.tril(S) + np.tril(S, -1).T
            got = de.log_matrix_t(Z, de.TDistParams(M=np.zeros((m, 2)), Sigma=S, Omega=np.eye(2), q=2.5))
            want = de.log_matrix_t(Z, de.TDistParams(M=np.zeros((m, 2)), Sigma=lower, Omega=np.eye(2), q=2.5))
            assert got == want
        assert np.abs(S - S.T).max() > 0.0  # the last S is not symmetric in floats

    @pytest.mark.parametrize(("m", "n"), [(1, 1), (3, 2), (8, 4)])
    def test_norm_is_accurate_for_every_q(self, m, n):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):
            for q in [5e-324, 1e-320, 1e-6, 0.5, 1.0, 2.5, 1e4, 1e8, 1e12, 1e20, 1e300, 1e308]:
                mq = mpmath.mpf(q)
                want = -m * n * mpmath.log(mpmath.pi) / 2 + mpmath.fsum(
                    mpmath.loggamma((m + n - j + mq) / 2) - mpmath.loggamma((n - j + mq) / 2) for j in range(1, n + 1)
                )
                got = de._log_matrix_t_norm(m, n, q)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), q


class TestSelbergIntegral:
    def test_scalar_value(self):
        # integral of (1+z^2)^-1 over the line is pi
        assert abs(de.selberg_Z_integral(1, 1) - math.pi) < 1e-12

    def test_m2_n1_value(self):
        # polar quadrature gives 2 pi for the (2,1) det-power integral
        val, err = quad(lambda r: 2 * math.pi * r * (1 + r * r) ** -1.5, 0.0, np.inf)
        assert abs(val - 2 * math.pi) < 1e-8
        assert abs(de.selberg_Z_integral(2, 1) - 2 * math.pi) < 1e-12

    def test_reciprocal_of_normalization(self):
        for m in range(1, 13):
            for n in range(1, 13):
                prod = math.exp(de.log_universal_real_norm(m, n)) * de.selberg_Z_integral(m, n)
                assert abs(prod - 1.0) < 1e-12


class TestGaussianDetIntegral:
    def test_scalar(self):
        assert abs(de.gaussian_detn_integral(1, 1) - 1.0) < 1e-12

    def test_m1_n2(self):
        assert abs(de.gaussian_detn_integral(1, 2) - math.sqrt(math.pi) / 2) < 1e-12

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(25)
        for m in range(1, 4):
            for n in range(1, 4):
                N = 100_000
                G = rng.standard_normal((N, m, m)) * math.sqrt(0.5)
                vals = np.abs(np.linalg.det(G)) ** n
                est = stats.mc_mean(vals)
                scale = math.pi ** (m * m / 2)
                target = de.gaussian_detn_integral(m, n)
                assert abs(scale * est.mean - target) < 3.0 * scale * est.stderr


class TestGammaIdentity:
    def test_half_value(self):
        left = math.gamma(1.0) / math.gamma(0.5) * math.gamma(1.5) / math.gamma(1.0)
        assert abs(left - 0.5) < 1e-15
        assert de.gamma_identity_residual(2, 1) < 1e-12

    def test_symmetric_case(self):
        for m in range(1, 13):
            assert de.gamma_identity_residual(m, m) == 0.0

    def test_grid(self):
        for m in range(1, 13):
            for n in range(1, 13):
                assert de.gamma_identity_residual(m, n) < 1e-10

    def test_specific(self):
        assert de.gamma_identity_residual(5, 3) < 1e-10


class TestOrthoVolume:
    def test_m1(self):
        assert abs(de.ortho_volume(1) - 1.0) < 1e-12

    def test_m2_against_quadrature(self):
        # the rotation volume must balance the singular-value side of the
        # Gaussian integral: V_2 * I = (2 pi)^2 with
        # I = int |w1^2 - w2^2| exp(-(w1^2+w2^2)/2) dw over the plane
        def angular(theta):
            return abs(math.cos(2 * theta))

        # 2-D quadrature in polar form: radial and angular factors
        rad, err1 = quad(lambda r: r**3 * math.exp(-r * r / 2.0), 0.0, np.inf)
        ang, err2 = quad(angular, 0.0, 2 * math.pi, limit=200)
        integral = rad * ang
        lhs = de.ortho_volume(2) * integral
        assert abs(lhs - (2 * math.pi) ** 2) < 1e-6 * (2 * math.pi) ** 2

    def test_positive_up_to_12(self):
        for m in range(1, 13):
            assert de.ortho_volume(m) > 0.0


class TestCauchy:
    def test_standard_values(self):
        p = de.CauchyParams()
        assert abs(math.exp(de.cauchy_logpdf(0.0, p)) - 1 / math.pi) < 1e-12
        assert abs(de.cauchy_cdf(0.0, p) - 0.5) < 1e-12

    def test_quartile(self):
        p = de.CauchyParams(0.0, 2.0)
        assert abs(de.cauchy_cdf(2.0, p) - 0.75) < 1e-12

    def test_limits(self):
        p = de.CauchyParams()
        assert de.cauchy_cdf(1e12, p) > 1.0 - 1e-9
        assert de.cauchy_cdf(-1e12, p) < 1e-9

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            de.CauchyParams(0.0, 0.0)

    def test_finite_at_huge_width_and_point(self):
        # width^2 and x^2 overflow a float past ~1.3e154
        assert abs(de.cauchy_logpdf(0.0, de.CauchyParams(0.0, 1e160)) + de.LOG_PI + 160 * math.log(10.0)) < 1e-12
        assert abs(de.cauchy_logpdf(1e200) + de.LOG_PI + 400 * math.log(10.0)) < 1e-12


class TestMdimCauchy:
    def test_reduces_to_standard(self):
        for z in (-2.0, 0.0, 1.5):
            assert abs(de.log_mdim_cauchy([z], 1.0) - de.cauchy_logpdf(z)) < 1e-12

    def test_two_dim_at_origin(self):
        assert abs(de.log_mdim_cauchy([0.0, 0.0], 1.0) - math.log(1 / (2 * math.pi))) < 1e-12

    def test_finite_at_huge_entries(self):
        # z^T z = 2e400 overflows a float; log(1 + 2e400) = log 2 + 400 log 10
        want = math.log(1 / (2 * math.pi)) - 1.5 * (math.log(2.0) + 400 * math.log(10.0))
        assert abs(de.log_mdim_cauchy([1e200, 1e200], 1.0) - want) <= 1e-12 * abs(want)

    def test_normalization_by_quadrature(self):
        val = polar_integral(lambda r: math.exp(de.log_mdim_cauchy([r, 0.0], 1.0)), 2)
        assert abs(val - 1.0) < 1e-6
        val2 = polar_integral(lambda r: math.exp(de.log_mdim_cauchy([r, 0.0, 0.0], 0.7)), 3)
        assert abs(val2 - 1.0) < 1e-6
