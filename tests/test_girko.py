"""Tests for the random linear system laws and stable oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rmtlab import densities as de
from rmtlab import ensembles as en
from rmtlab import cli, girko, matcore, stats


def gen(stream=0, seed=20260808):
    return en.RngStream(seed, stream).generator()


def block_draws(sampler, stream, count, seed=20260808):
    """count solved systems (count, m, c) pooled by draw_rows on (seed, stream)."""
    return en.draw_rows(sampler, seed, stream, count, lambda Z: Z)[0]


def closed_form_cauchy_ratio(z):
    """Ratio of two independent standard Cauchy variables, by partial fractions."""
    if z * z == 1.0:
        return 1.0 / math.pi**2
    return math.log(z * z) / (math.pi**2 * (z * z - 1.0))


class TestBetaWidths:
    def test_empty_parameters(self):
        assert girko.beta_euclidean(()) == 1.0

    def test_three_quarters(self):
        assert abs(girko.beta_euclidean([0.75]) - 1.25) < 1e-15

    def test_unit_vector(self):
        assert abs(girko.beta_euclidean([1.0, 1.0, 1.0]) - 2.0) < 1e-15

    def test_alpha_two_matches_euclidean(self):
        for u in ([0.75], [1.0, -2.0], []):
            assert abs(girko.beta_alpha(u, 2.0) - girko.beta_euclidean(u)) < 1e-15

    def test_alpha_one(self):
        assert girko.beta_alpha([1.0, 1.0], 1.0) == 3.0

    def test_zero_parameters(self):
        for alpha in (0.5, 1.0, 2.0):
            assert girko.beta_alpha([0.0, 0.0], alpha) == 1.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            girko.beta_alpha([1.0], 2.5)

    def test_finite_at_huge_parameters(self):
        # u^T u and |u|^alpha overflow a float past ~1.3e154
        assert girko.beta_euclidean([1e160]) == girko.beta_alpha([1e160], 2) == 1e160
        assert abs(girko.beta_euclidean([3e200, 4e200]) / 5e200 - 1.0) < 1e-15
        assert abs(girko.beta_alpha([3e200, 4e200], 2) / 5e200 - 1.0) < 1e-15
        assert abs(girko.beta_alpha([1e300], 1.5) / 1e300 - 1.0) < 1e-15


class TestGirkoDensity:
    def test_scalar_is_standard_cauchy(self):
        for z in (-1.0, 0.0, 2.0):
            assert abs(girko.girko_logdensity([z], ()) - de.cauchy_logpdf(z)) < 1e-14

    def test_finite_at_huge_entries(self):
        # m = 1: log(beta / (beta^2 + z^2) / pi) with beta = 1e200 or z = 1e200
        assert abs(girko.girko_logdensity([0.5], [1e200]) + de.LOG_PI + 200 * math.log(10.0)) < 1e-12
        want = math.log(1.0 / (2 * math.pi)) + math.log(1.25) - 1.5 * (math.log(2.0) + 400 * math.log(10.0))
        assert abs(girko.girko_logdensity([1e200, 1e200], [0.75]) - want) <= 1e-12 * abs(want)

    def test_plugin_value(self):
        # at the origin the density is C / beta^m with C = 1/(2 pi) for m = 2
        beta = 1.25
        expected = math.log(1.0 / (2 * math.pi)) - 2 * math.log(beta)
        assert abs(girko.girko_logdensity([0.0, 0.0], [0.75]) - expected) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            z = rng.standard_normal(3)
            u = rng.standard_normal(2)
            O1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            O2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            assert abs(girko.girko_logdensity(O1 @ z, O2 @ u) - girko.girko_logdensity(z, u)) < 1e-10

    def test_marginal_is_cauchy_by_quadrature(self):
        # integrating out the other components leaves Cauchy(beta)
        u = [0.75]
        beta = girko.beta_euclidean(u)
        for z1 in (-1.0, 0.3, 2.0):
            val, err = quad(
                lambda s: 2 * math.pi * s * math.exp(girko.girko_logdensity([z1, s, 0.0], u)),
                0.0,
                np.inf,
                limit=200,
            )
            want = math.exp(de.cauchy_logpdf(z1, de.CauchyParams(0.0, beta)))
            assert abs(val - want) < 1e-6
        # m = 2: one remaining component, integrated over the line
        for z1 in (0.0, 1.2):
            val, err = quad(
                lambda s: 2 * math.exp(girko.girko_logdensity([z1, s], u)), 0.0, np.inf
            )
            want = math.exp(de.cauchy_logpdf(z1, de.CauchyParams(0.0, beta)))
            assert abs(val - want) < 1e-6

    def test_normalization_small_m(self):
        for m, beta_u in [(1, ()), (2, (0.75,)), (3, (1.0, 1.0))]:
            area = de.sphere_area(m) if m > 1 else 2.0
            val, err = quad(
                lambda r: area * r ** (m - 1) * math.exp(girko.girko_logdensity([r] + [0.0] * (m - 1), beta_u)),
                0.0,
                np.inf,
                limit=200,
            )
            assert abs(val - 1.0) < 1e-6


class TestRatioDensity:
    def test_empirical_ratio(self):
        spec = girko.LinearSystemSpec(m=3, n=2, u=(0.5, -1.0))
        z = block_draws(girko.solution_sampler(spec), 32, 20_000)
        ratios = z[:, 0, 0] / z[:, 1, 0]
        rep = stats.ks_one_sample(ratios, de.cauchy_cdf)
        assert rep.p_value > 1e-3


class TestSampleSolution:
    def test_component_matches_cauchy_width(self):
        spec = girko.LinearSystemSpec(m=2, n=1, u=(0.75,))
        draws = block_draws(girko.solution_sampler(spec), 33, 20_000)[:, 0, 0]
        rep = stats.ks_one_sample(draws, lambda x: de.cauchy_cdf(x, de.CauchyParams(0.0, 1.25)))
        assert rep.p_value > 1e-3

    def test_universality_across_radial_laws(self):
        u = (0.75,)
        gauss = girko.LinearSystemSpec(m=2, n=1, u=u)
        shell = girko.LinearSystemSpec(m=2, n=1, u=u, radial=en.FixedShell(3.0))
        a = block_draws(girko.solution_sampler(gauss), 34, 20_000)[:, 0, 0]
        b = block_draws(girko.solution_sampler(shell), 35, 20_000)[:, 0, 0]
        rep = stats.ks_two_sample(a, b)
        assert rep.p_value > 1e-3

    def test_homogeneous_case_matches_mdim_cauchy(self):
        # n = 0, u = (): B z = b, so z follows the m-dim Cauchy law of width 1
        spec = girko.LinearSystemSpec(m=2, n=0, u=())
        draws = block_draws(girko.solution_sampler(spec), 36, 20_000)[:, 0, 0]
        rep = stats.ks_one_sample(draws, de.cauchy_cdf)
        assert rep.p_value > 1e-3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            girko.LinearSystemSpec(m=2, n=1, u=())

    @pytest.mark.parametrize(("m", "n", "field"), [(2.7, 1, "m"), (2, 1.5, "n"), (True, 1, "m"), ("2", 1, "m")])
    def test_spec_refuses_fractional_dimensions(self, m, n, field):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
            girko.LinearSystemSpec(m=m, n=n, u=(1.0,))
        assert girko.LinearSystemSpec(m=2.0, n=1, u=(1.0,)).m == 2

    @pytest.mark.parametrize(("u", "error"), [((math.inf,), "entries must be finite"),
                                              ((math.nan,), "entries must be finite"),
                                              ((-math.inf,), "entries must be finite"),
                                              ((True,), "expected numbers"),
                                              (np.array([False]), "expected numbers"),
                                              (("0.5",), "expected numbers")])
    def test_spec_and_stable_sampler_refuse_bad_parameters(self, u, error):
        with pytest.raises(ValueError, match=f"^u: {error}"):
            girko.LinearSystemSpec(m=2, n=1, u=u)
        with pytest.raises(ValueError, match=f"^u: {error}"):
            girko.stable_sampler(2, 1, u, girko.StableLaw(alpha=1))
        assert girko.LinearSystemSpec(m=2, n=1, u=np.array([0.5])).u == (0.5,)

    @pytest.mark.parametrize(("m", "n", "field"), [(0, 1, "m"), (2.5, 1, "m"), (-1, 1, "m"), (2, 1.5, "n")])
    def test_stable_sampler_refuses_bad_dimensions(self, m, n, field):
        # read as LinearSystemSpec reads them; these once failed late, as an
        # IndexError, a TypeError or numpy's reshape error
        law = girko.StableLaw(alpha=1)
        with pytest.raises(ValueError, match=f"^{field}[: ]"):
            girko.stable_sampler(m, n, (0.5,), law)
        with pytest.raises(ValueError, match=f"^{field}[: ]"):
            girko.sample_stable_system(m, n, (0.5,), law, gen(40))


class TestSystemBlocks:
    @pytest.mark.parametrize(("m", "n"), [(1, 0), (2, 1), (8, 4)])
    def test_solves_the_regenerated_system(self, m, n):
        # a one-draw block consumes the substream exactly like one sampler call
        sampler = girko.solution_sampler(girko.LinearSystemSpec(m, n, np.linspace(-1.0, 1.0, n)))
        z, rej = en.draw_block(sampler, gen(47), 1)
        B, R = sampler(gen(47), 1)
        assert rej == 0 and z.shape == (1, m, 1)
        assert np.abs(B @ z - R).max() <= 1e-10 * np.abs(B).max() * np.abs(z).max()

    def test_stable_block_bytes(self):
        sampler = girko.stable_sampler(3, 1, (0.5,), girko.StableLaw(alpha=1))
        z, _ = en.draw_block(sampler, gen(48), en.BLOCK)
        assert z.shape == (en.BLOCK, 3, 1) and np.isfinite(z).all()
        assert en.draw_block(sampler, gen(48), en.BLOCK)[0].tobytes() == z.tobytes()

    @pytest.mark.parametrize("kind", ["girko", "girko-stable"])
    def test_forced_rejections_reproducible_across_shards(self, monkeypatch, kind):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        raw = {"kind": kind, "m": 2, "n": 1, "u": [0.75], "samples": 1000, "seed": 49}  # alpha 2 is the default
        one = cli.run(cli.parse_config(dict(raw, shards=1)))
        three = cli.run(cli.parse_config(dict(raw, shards=3)))
        assert one.resamples > 0 and one.resamples == three.resamples
        assert all(math.isfinite(v) for row in one.rows for v in row if not isinstance(v, str))
        assert np.array_equal(one.rows, three.rows) and one.label_runs == three.label_runs


@pytest.mark.parametrize("raw", [
    {"kind": "girko", "m": 2, "n": 1, "u": [1e160], "radial": ["gaussian", "shell:2"]},
    {"kind": "girko-stable", "m": 1, "n": 1, "u": [1e160], "alpha": 2},
    {"kind": "girko-stable", "m": 1, "n": 1, "u": [1e300], "alpha": 2},
])
def test_suites_pass_at_huge_parameters(raw):
    # the widths once overflowed to inf here: D = 0.5, or a quadrature at nan
    report = cli.run(cli.parse_config(dict(raw, samples=2000, seed=5)))
    assert report.passed, report.failing


@pytest.mark.parametrize("u", [[0.75], [1e160]])
def test_alpha2_quadrature_check_fails_a_density_one_percent_off(monkeypatch, u):
    # the densities on the grid are of order 1/beta; the residual is taken
    # relative to that scale, so it still sees a 1% error at beta = 1e160
    exact = girko.girko_stable_density
    monkeypatch.setattr(girko, "girko_stable_density", lambda *args: 1.01 * exact(*args))
    raw = {"kind": "girko-stable", "m": 1, "n": 1, "u": u, "alpha": 2, "samples": 200, "seed": 5}
    entry = next(e for e in cli.run(cli.parse_config(raw)).entries if e["name"] == "quadrature-vs-cauchy-grid")
    assert not entry["passed"] and entry["value"] > 1e-3


class TestStableDensityQuadrature:
    def test_alpha2_at_zero(self):
        law = girko.StableLaw(alpha=2)
        assert abs(girko.girko_stable_density(0.0, law, 1.0) - 1 / math.pi) < 1e-8

    def test_alpha2_matches_cauchy_grid(self):
        law = girko.StableLaw(alpha=2)
        for beta in (1.0, 1.25):
            for z in np.linspace(-4.0, 4.0, 10):
                got = girko.girko_stable_density(float(z), law, beta)
                want = math.exp(de.cauchy_logpdf(float(z), de.CauchyParams(0.0, beta)))
                assert abs(got - want) < 1e-6

    def test_alpha1_matches_closed_form(self):
        # ratio of two standard Cauchy variables, derived by partial fractions
        law = girko.StableLaw(alpha=1)
        for z in (0.25, 0.999999, 2.0, 10.0):
            got = girko.girko_stable_density(z, law, 1.0)
            assert abs(got - closed_form_cauchy_ratio(z)) < 1e-8

    def test_alpha1_normalizes(self):
        law = girko.StableLaw(alpha=1)
        for beta in (1.0, 2.0):
            val, err = quad(
                lambda t: (1 + math.tan(t) ** 2) * girko.girko_stable_density(math.tan(t), law, beta),
                1e-9,
                math.pi / 2 - 1e-12,
                limit=300,
            )
            assert abs(2 * val - 1.0) < 1e-6

    def test_quad_is_looked_up_at_call_time(self, monkeypatch):
        # girko.quad stays a replaceable attribute, as perfbench's tracer needs
        real, calls = girko.quad, []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(girko, "quad", counted)
        girko.girko_stable_density(0.5, girko.StableLaw(alpha=2), 1.0)
        assert calls == [(0.0, 0.5 * math.pi)]

    def test_alpha1_diverges_at_zero(self):
        with pytest.raises(girko.QuadratureFailure):
            girko.girko_stable_density(0.0, girko.StableLaw(alpha=1), 1.0)

    def test_only_closed_form_exponents(self):
        with pytest.raises(ValueError):
            girko.StableLaw(alpha=3)


class TestChi2:
    def test_matches_mpmath(self):
        # 30-digit reference chi_2(x) = (Li_2(x) - Li_2(-x)) / 2, on both
        # sides of the switch at sqrt(2) - 1 and up to the last float below 1
        mpmath = pytest.importorskip("mpmath")
        split = math.sqrt(2.0) - 1.0
        xs = np.concatenate([np.geomspace(1e-12, 1.0 - 1e-12, 300), np.linspace(0.40, 0.43, 31),
                             [np.nextafter(split, 0.0), split, np.nextafter(split, 1.0), 1.0 - 2.0**-53]])
        got = girko._chi2(xs)
        with mpmath.workdps(30):
            want = [(mpmath.polylog(2, x) - mpmath.polylog(2, -x)) / 2 for x in map(mpmath.mpf, xs)]
            worst = max(abs((mpmath.mpf(g) - w) / w) for g, w in zip(got, want))
        assert worst <= 1e-15


class TestStableCdf:
    def test_matches_density_by_differentiation(self):
        law = girko.StableLaw(alpha=1)
        h = 1e-5
        for z in (0.5, 2.0, -1.5):
            num = (girko.girko_stable_cdf(z + h, law, 1.0) - girko.girko_stable_cdf(z - h, law, 1.0)) / (2 * h)
            assert abs(num - girko.girko_stable_density(z, law, 1.0)) < 1e-6

    def test_alpha2_is_cauchy_cdf(self):
        law = girko.StableLaw(alpha=2)
        for z in np.linspace(-5, 5, 11):
            got = girko.girko_stable_cdf(float(z), law, 1.25)
            assert abs(got - girko._girko_stable_cdf_quad(float(z), law, 1.25)) < 1e-8

    def test_alpha1_closed_form_matches_quadrature(self):
        # the adaptive reference is itself good to about 3e-8
        pos = np.geomspace(1e-8, 1e6, 43)
        zs = np.concatenate([-pos[::-1], pos])
        # k = zeta / beta on both sides of chi_2's switch to Landen's identity at
        # sqrt(2) - 1, and of its image under I(k) = pi^2/4 - I(1/k)
        split = math.sqrt(2.0) - 1.0
        switch = np.outer([0.999, 1.001], [split, 1.0 / split, -split]).ravel()
        law = girko.StableLaw(alpha=1)
        for beta in (1.0, 1.75, 2.0):
            points = np.concatenate([zs, beta * switch])
            got = girko.girko_stable_cdf(points, law, beta)
            want = np.array([girko._girko_stable_cdf_quad(float(z), law, beta) for z in points])
            assert np.max(np.abs(got - want)) < 1e-7

    def test_alpha1_exact_values(self):
        # I(1) = chi_2(1) = pi^2 / 8 puts zeta = +-beta at the quartiles
        law = girko.StableLaw(alpha=1)
        for beta in (1.0, 1.75):
            assert abs(girko.girko_stable_cdf(0.0, law, beta) - 0.5) < 1e-15
            assert abs(girko.girko_stable_cdf(beta, law, beta) - 0.75) < 1e-15
            assert abs(girko.girko_stable_cdf(-beta, law, beta) - 0.25) < 1e-15
            assert girko.girko_stable_cdf(math.inf, law, beta) == 1.0
            assert girko.girko_stable_cdf(-math.inf, law, beta) == 0.0

    def test_array_call_equals_scalar_calls(self):
        zs = np.tan(math.pi * (gen(41).random((7, 11)) - 0.5))
        zs[0, :4] = (0.0, 1.75, -1.75, 1e-300)
        for alpha in (1, 2):
            law = girko.StableLaw(alpha=alpha)
            got = girko.girko_stable_cdf(zs, law, 1.75)
            assert got.shape == zs.shape
            scalar = [girko.girko_stable_cdf(float(z), law, 1.75) for z in zs.ravel()]
            assert all(isinstance(v, float) for v in scalar)
            assert np.array_equal(got.ravel(), np.array(scalar))

    def test_limits_and_symmetry(self):
        law = girko.StableLaw(alpha=1)
        assert girko.girko_stable_cdf(0.0, law, 1.0) == 0.5
        assert girko.girko_stable_cdf(1e9, law, 1.0) > 1 - 1e-6
        for z in (0.7, 3.0):
            s = girko.girko_stable_cdf(z, law, 1.0) + girko.girko_stable_cdf(-z, law, 1.0)
            assert abs(s - 1.0) < 1e-9


class TestSampleStableSystem:
    def test_alpha2_component_law(self):
        u = (0.75,)
        law = girko.StableLaw(alpha=2)
        beta = girko.beta_alpha(u, 2)
        draws = block_draws(girko.stable_sampler(2, 1, u, law), 37, 20_000)[:, 0, 0]
        rep = stats.ks_one_sample(draws, lambda x: de.cauchy_cdf(x, de.CauchyParams(0.0, beta)))
        assert rep.p_value > 1e-3

    def test_alpha1_scalar_ratio_against_quadrature(self):
        # m=1, n=0: z = b / B is a ratio of two Cauchy variables
        law = girko.StableLaw(alpha=1)
        draws = block_draws(girko.stable_sampler(1, 0, (), law), 38, 20_000)[:, 0, 0]
        rep = stats.ks_one_sample(draws, lambda x: girko.girko_stable_cdf(x, law, 1.0))
        assert rep.p_value > 1e-3

    def test_alpha1_with_parameter(self):
        # u = (1,): beta = 2 for alpha = 1
        law = girko.StableLaw(alpha=1)
        u = (1.0,)
        beta = girko.beta_alpha(u, 1)
        assert beta == 2.0
        draws = block_draws(girko.stable_sampler(1, 1, u, law), 39, 20_000)[:, 0, 0]
        rep = stats.ks_one_sample(draws, lambda x: girko.girko_stable_cdf(x, law, beta))
        assert rep.p_value > 1e-3

    def test_validates_u_length(self):
        with pytest.raises(ValueError):
            girko.sample_stable_system(2, 2, (1.0,), girko.StableLaw(alpha=2), gen(40))
