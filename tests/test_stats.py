"""Tests for the Kolmogorov-Smirnov and Monte Carlo summaries."""

import math

import numpy as np
import pytest

from rmtlab import stats
from rmtlab.densities import cauchy_cdf


def uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


class TestKsOneSample:
    def test_exact_quantile_construction(self):
        # data at the (i - 1/2)/n model quantiles gives D = 1/(2n) exactly
        n = 100
        data = [math.tan(math.pi * ((i - 0.5) / n - 0.5)) for i in range(1, n + 1)]
        rep = stats.ks_one_sample(data, cauchy_cdf)
        assert abs(rep.statistic - 1.0 / (2 * n)) < 1e-12

    def test_null_self_test(self):
        # under the null, p > 1e-3 should hold in at least 99% of runs
        hits = 0
        runs = 200
        for s in range(runs):
            rng = np.random.default_rng(1000 + s)
            data = rng.random(10_000)
            rep = stats.ks_one_sample(data, uniform_cdf)
            hits += rep.p_value > 1e-3
        assert hits >= 0.99 * runs

    def test_gross_mismatch(self):
        rng = np.random.default_rng(2)
        data = rng.random(10_000)
        rep = stats.ks_one_sample(data, cauchy_cdf)
        assert rep.p_value < 1e-6
        assert not rep.passed

    def test_too_few_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.ks_one_sample(np.zeros(34), uniform_cdf)

    def test_cdf_of_wrong_shape_rejected(self):
        data = np.linspace(0.1, 0.9, 100)
        with pytest.raises(ValueError, match="shape"):
            stats.ks_one_sample(data, lambda x: 0.5)
        with pytest.raises(ValueError, match="shape"):
            stats.ks_one_sample(data, lambda x: uniform_cdf(x)[:-1])

    def test_unsorted_input_accepted(self):
        rng = np.random.default_rng(3)
        data = rng.random(1000)
        a = stats.ks_one_sample(data, uniform_cdf)
        b = stats.ks_one_sample(np.sort(data), uniform_cdf)
        assert a.statistic == b.statistic


class TestKsTwoSample:
    def test_identical_samples(self):
        data = np.linspace(0.0, 1.0, 500)
        rep = stats.ks_two_sample(data, data)
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_shift_detected(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(2000)
        rep = stats.ks_two_sample(a, a + 10.0)
        assert rep.p_value < 1e-6

    def test_null_self_test(self):
        hits = 0
        runs = 200
        for s in range(runs):
            rng = np.random.default_rng(5000 + s)
            rep = stats.ks_two_sample(rng.random(10_000), rng.random(10_000))
            hits += rep.p_value > 1e-3
        assert hits >= 0.99 * runs

    def test_too_few_samples(self):
        with pytest.raises(stats.TooFewSamples):
            stats.ks_two_sample(np.zeros(10), np.ones(100))


class TestKsProperties:
    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        data = rng.random(5000)
        base = stats.ks_one_sample(data, uniform_cdf)
        transformed = stats.ks_one_sample(
            np.exp(data), lambda y: uniform_cdf(np.log(np.maximum(y, np.finfo(float).tiny)))
        )
        assert abs(base.statistic - transformed.statistic) < 1e-12

    def test_pvalue_monotone_in_statistic(self):
        n = 10_000
        grid = np.linspace(0.002, 0.2, 50)
        ps = [stats._ks_pvalue(d, n) for d in grid]
        assert all(p1 >= p2 for p1, p2 in zip(ps, ps[1:]))
        assert stats._ks_pvalue(0.0, n) == 1.0

    def test_heavy_tailed_data_safe(self):
        # Cauchy draws have no mean; the CDF-scale statistic must not care
        rng = np.random.default_rng(7)
        data = np.tan(math.pi * (rng.random(20_000) - 0.5))
        rep = stats.ks_one_sample(data, cauchy_cdf)
        assert math.isfinite(rep.statistic)
        assert rep.p_value > 1e-3


class TestMcMean:
    def test_constant(self):
        est = stats.mc_mean([1.0, 1.0, 1.0, 1.0])
        assert est.mean == 1.0 and est.stderr == 0.0 and est.n == 4

    def test_two_points(self):
        est = stats.mc_mean([0.0, 2.0])
        assert est.mean == 1.0
        assert abs(est.stderr - 1.0) < 1e-15

    def test_normal_coverage(self):
        hits = 0
        runs = 200
        for s in range(runs):
            rng = np.random.default_rng(9000 + s)
            est = stats.mc_mean(rng.standard_normal(10_000))
            hits += abs(est.mean) < 3.0 * est.stderr
        assert hits >= 0.99 * runs

    def test_too_few(self):
        with pytest.raises(stats.TooFewSamples):
            stats.mc_mean([1.0])


class TestHistogram:
    def test_single_point(self):
        h = stats.histogram([0.5], bins=1, value_range=(0.0, 1.0))
        assert h.counts.tolist() == [1]
        assert h.densities.tolist() == [1.0]

    def test_uniform_multinomial(self):
        rng = np.random.default_rng(8)
        n, bins = 100_000, 10
        h = stats.histogram(rng.random(n), bins=bins, value_range=(0.0, 1.0))
        assert h.counts.sum() == n
        expected = n / bins
        sigma = math.sqrt(n * (1 / bins) * (1 - 1 / bins))
        assert np.abs(h.counts - expected).max() < 4 * sigma

    def test_out_of_range_mass(self):
        h = stats.histogram([-5.0, 0.5, 5.0], bins=2, value_range=(0.0, 1.0))
        assert h.counts.sum() == 1
        # densities integrate to the in-range fraction
        width = 0.5
        assert abs(float(h.densities.sum()) * width - 1.0 / 3.0) < 1e-12

    def test_empty_data(self):
        h = stats.histogram([], bins=3, value_range=(0.0, 1.0))
        assert h.counts.tolist() == [0, 0, 0]

    def test_bad_range(self):
        with pytest.raises(stats.BadRange):
            stats.histogram([1.0], bins=2, value_range=(1.0, 1.0))
