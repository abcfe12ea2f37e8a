"""Tests for the rotationally invariant samplers."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from rmtlab import cli, matcore, stats
from rmtlab import densities as de
from rmtlab import ensembles as en


def gen(stream=0, seed=20260808):
    return en.RngStream(seed, stream).generator()


class TestUnitDirection:
    def test_unit_norm_every_draw(self):
        g = gen(1)
        for d in (1, 2, 7, 40):
            for _ in range(50):
                v = en.sample_unit_direction(d, g)
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_d1_is_fair_sign(self):
        g = gen(2)
        draws = np.array([en.sample_unit_direction(1, g)[0] for _ in range(4000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 4.0 / math.sqrt(4000)

    def test_d3_coordinate_moments(self):
        # each coordinate of a uniform point on S^2 has mean 0, variance 1/3
        g = gen(3)
        N = 100_000
        total = np.zeros(3)
        for _ in range(N):
            total += en.sample_unit_direction(3, g)
        sigma = math.sqrt(1.0 / (3 * N))
        assert np.abs(total / N).max() < 3.0 * sigma


class TestRadialLaws:
    def test_fixed_shell_constant(self):
        g = gen(4)
        for _ in range(100):
            assert en.sample_radius(en.FixedShell(2.5), 6, g) == 2.5

    def test_uniform_ball_cdf(self):
        # in the plane, the radius CDF of a uniform disc point is r^2
        g = gen(5)
        draws = [en.sample_radius(en.UniformBall(1.0), 2, g) for _ in range(20_000)]
        rep = stats.ks_one_sample(draws, lambda r: np.clip(r * r, 0.0, 1.0))
        assert rep.p_value > 1e-3

    def test_gaussian_radius_mean_square(self):
        g = gen(6)
        sq = np.array([en.sample_radius(en.GaussianEntries(), 4, g) ** 2 for _ in range(20_000)])
        est = stats.mc_mean(sq)
        assert abs(est.mean - 4.0) < 4.0 * est.stderr

    def test_two_shell_mixture(self):
        g = gen(7)
        draws = np.array([en.sample_radius(en.TwoShellMixture(1.0, 3.0, 0.25), 5, g) for _ in range(20_000)])
        assert set(np.unique(draws)) == {1.0, 3.0}
        frac = (draws == 1.0).mean()
        assert abs(frac - 0.25) < 4.0 * math.sqrt(0.25 * 0.75 / 20_000)

    def test_invalid_parameters(self):
        with pytest.raises(en.InvalidLaw):
            en.FixedShell(0.0)
        with pytest.raises(en.InvalidLaw):
            en.UniformBall(-1.0)
        with pytest.raises(en.InvalidLaw):
            en.TwoShellMixture(1.0, 2.0, 1.5)


class TestSampleMatrix:
    def test_fixed_shell_trace(self):
        spec = en.EnsembleSpec(m=2, n=1, radial=en.FixedShell(1.0))
        g = gen(8)
        for _ in range(200):
            A = en.sample_matrix(spec, g)
            assert abs(np.sum(A * A) - 1.0) < 1e-12

    def test_gaussian_entries_are_standard_normal(self):
        # Gaussian radius times uniform direction is the i.i.d. normal ensemble
        spec = en.EnsembleSpec(m=2, n=2)
        g = gen(9)
        entries = np.array([en.sample_matrix(spec, g)[0, 1] for _ in range(20_000)])
        rep = stats.ks_one_sample(entries, lambda x: 0.5 * erfc(-x / math.sqrt(2.0)))
        assert rep.p_value > 1e-3

    def test_rotational_invariance(self):
        # the law of A and of O @ A agree for a fixed rotation O
        spec = en.EnsembleSpec(m=2, n=1, radial=en.UniformBall(2.0))
        rng = np.random.default_rng(1)
        O, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        g = gen(10)
        stat, stat_rot = [], []
        for _ in range(20_000):
            A = en.sample_matrix(spec, g)
            stat.append(A[:2, :2].trace())
            stat_rot.append((O @ en.sample_matrix(spec, g))[:2, :2].trace())
        rep = stats.ks_two_sample(stat, stat_rot)
        assert rep.p_value > 1e-3

    def test_complex_shell(self):
        spec = en.EnsembleSpec(m=2, n=1, field="complex", radial=en.FixedShell(1.0))
        g = gen(11)
        A = en.sample_matrix(spec, g)
        assert A.shape == (2, 3) and np.iscomplexobj(A)
        assert abs(np.sum(np.abs(A) ** 2) - 1.0) < 1e-12


class TestPartition:
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_leading_columns(self):
        B, X = en.partition(self.A, en.PartitionSpec([1, 2]))
        assert B.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert X.tolist() == [[3.0], [6.0]]

    def test_ordered_selection(self):
        B, X = en.partition(self.A, en.PartitionSpec([3, 1]))
        assert B.tolist() == [[3.0, 1.0], [6.0, 4.0]]
        assert X.tolist() == [[2.0], [5.0]]

    def test_n_zero(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B, X = en.partition(A, en.PartitionSpec([1, 2]))
        assert X.shape == (2, 0)

    def test_bad_partitions(self):
        with pytest.raises(en.BadPartition):
            en.partition(self.A, en.PartitionSpec([1, 1]))
        with pytest.raises(en.BadPartition):
            en.partition(self.A, en.PartitionSpec([0, 2]))
        with pytest.raises(en.BadPartition):
            en.partition(self.A, en.PartitionSpec([1, 4]))
        with pytest.raises(en.BadPartition):
            en.partition(self.A, en.PartitionSpec([1, 2, 3]))


class TestSampleZ:
    def test_scalar_ratio_is_cauchy(self):
        spec = en.EnsembleSpec(m=1, n=1)
        g = gen(12)
        draws = np.array([en.sample_z(spec, None, g)[0][0, 0] for _ in range(20_000)])
        rep = stats.ks_one_sample(draws, de.cauchy_cdf)
        assert rep.statistic < 0.015
        assert rep.p_value > 1e-3

    def test_vector_component_is_cauchy(self):
        # m=2, n=1: each component of the 2-dim Cauchy vector is standard Cauchy
        spec = en.EnsembleSpec(m=2, n=1)
        g = gen(13)
        draws = np.array([en.sample_z(spec, None, g)[0][0, 0] for _ in range(20_000)])
        rep = stats.ks_one_sample(draws, de.cauchy_cdf)
        assert rep.p_value > 1e-3

    def test_solution_property(self):
        spec = en.EnsembleSpec(m=3, n=2, radial=en.TwoShellMixture(1.0, 2.0, 0.5))
        g = gen(14)
        part = en.PartitionSpec([2, 4, 1])
        for _ in range(20):
            A = en.sample_matrix(spec, g)
            B, X = en.partition(A, part)
            Z = matcore.solve_multi(B, X)
            assert np.abs(B @ Z - X).max() <= 1e-8 * max(np.abs(X).max(), 1e-300)

    def test_resample_rate_tiny(self):
        spec = en.EnsembleSpec(m=5, n=1)
        g = gen(15)
        total = 0
        for _ in range(10_000):
            _, rej = en.sample_z(spec, None, g)
            total += rej
        assert total / 10_000 < 1e-3

    def test_needs_n_at_least_one(self):
        with pytest.raises(ValueError):
            en.sample_z(en.EnsembleSpec(m=2, n=0), None, gen(16))

    def test_resample_limit(self, monkeypatch):
        # force every draw to look singular: the sampler must give up
        # after 100 consecutive rejections instead of spinning forever
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 1e12)
        with pytest.raises(en.ResampleLimit):
            en.sample_z(en.EnsembleSpec(m=2, n=1), None, gen(17))


class TestDrawBlock:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_block_shape_and_bytes(self, field):
        spec = en.EnsembleSpec(m=3, n=2, field=field, radial=en.UniformBall(2.0))
        sampler = en.ratio_sampler(spec, en.PartitionSpec([2, 5, 1]))
        Z, rej = en.draw_block(sampler, gen(41), en.BLOCK)
        again, rej_again = en.draw_block(sampler, gen(41), en.BLOCK)
        assert Z.shape == (en.BLOCK, 3, 2) and np.iscomplexobj(Z) == (field == "complex")
        assert Z.tobytes() == again.tobytes() and rej == rej_again == 0
        assert en.draw_block(sampler, gen(41), 5)[0].shape == (5, 3, 2)
        assert not np.array_equal(en.draw_block(sampler, gen(42), en.BLOCK)[0], Z)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(("m", "n"), [(1, 1), (2, 2), (8, 4)])
    def test_solves_the_regenerated_draw(self, field, m, n):
        # a one-draw block consumes the substream exactly like sample_matrix
        spec = en.EnsembleSpec(m=m, n=n, field=field)
        Z, rej = en.sample_z(spec, None, gen(43))
        B, X = en.partition(en.sample_matrix(spec, gen(43)), en.PartitionSpec.leading(m))
        assert rej == 0 and Z.shape == (m, n)
        assert np.abs(B @ Z - X).max() <= 1e-10 * np.abs(B).max() * np.abs(Z).max()

    def test_forced_rejections_are_redrawn(self, monkeypatch):
        # at ratio 0.3 many 2 x 2 B blocks are flagged and redrawn
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        sampler = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
        Z, rej = en.draw_block(sampler, gen(44), en.BLOCK)
        assert rej > 0 and Z.shape == (en.BLOCK, 2, 1) and np.isfinite(Z).all()
        assert en.draw_block(sampler, gen(44), en.BLOCK)[0].tobytes() == Z.tobytes()

    def test_forced_rejections_reproducible_across_shards(self, monkeypatch):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        raw = {"kind": "exactness", "m": 2, "n": 1, "samples": 1000, "seed": 45}
        one = cli.run(cli.parse_config(dict(raw, shards=1)))
        three = cli.run(cli.parse_config(dict(raw, shards=3)))
        assert one.resamples > 0 and one.resamples == three.resamples
        assert np.isfinite(one.rows).all()
        assert np.array_equal(one.rows, three.rows)
        assert one.to_json().replace('"shards": 1', '"shards": 3') == three.to_json()

    def test_resample_limit_in_a_block(self, monkeypatch):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 1e12)
        with pytest.raises(en.ResampleLimit):
            en.draw_block(en.ratio_sampler(en.EnsembleSpec(m=2, n=1)), gen(46), en.BLOCK, max_rejects=5)


class TestScaleAndPartitionInvariance:
    def statistic(self, spec, part, stream, count=20_000):
        """log det(I + Z Z^T) of count draws from gen(stream), BLOCK at a time."""
        sampler, g = en.ratio_sampler(spec, part), gen(stream)
        return np.concatenate([matcore.gram_logdet(en.draw_block(sampler, g, min(en.BLOCK, count - i))[0])
                               for i in range(0, count, en.BLOCK)])

    def test_scale_invariance_across_shells(self):
        # FixedShell(r0) and FixedShell(2 r0) give the same law of Z
        base = en.EnsembleSpec(m=2, n=2, radial=en.FixedShell(1.0))
        double = en.EnsembleSpec(m=2, n=2, radial=en.FixedShell(2.0))
        a = self.statistic(base, None, 17)
        b = self.statistic(double, None, 18)
        rep = stats.ks_two_sample(a, b)
        assert rep.p_value > 1e-3

    def test_partition_independence(self):
        spec = en.EnsembleSpec(m=2, n=2)
        a = self.statistic(spec, en.PartitionSpec([1, 2]), 19)
        b = self.statistic(spec, en.PartitionSpec([4, 2]), 20)
        rep = stats.ks_two_sample(a, b)
        assert rep.p_value > 1e-3


class TestReproducibility:
    def test_identical_streams_identical_draws(self):
        spec = en.EnsembleSpec(m=2, n=2)
        a = [en.sample_z(spec, None, gen(21))[0] for _ in range(20)]
        b = [en.sample_z(spec, None, gen(21))[0] for _ in range(20)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_distinct_streams_differ(self):
        spec = en.EnsembleSpec(m=2, n=2)
        a = en.sample_z(spec, None, gen(22))[0]
        b = en.sample_z(spec, None, gen(23))[0]
        assert not np.array_equal(a, b)

    def test_merge_order_independent(self):
        # pooled statistics must not care how per-stream shards are merged
        spec = en.EnsembleSpec(m=1, n=1)
        chunks = {}
        for stream in range(4):
            g = gen(stream, seed=99)
            chunks[stream] = [en.sample_z(spec, None, g)[0][0, 0] for _ in range(500)]
        fwd = np.sort(np.concatenate([chunks[s] for s in range(4)]))
        rev = np.sort(np.concatenate([chunks[s] for s in reversed(range(4))]))
        assert np.array_equal(fwd, rev)


class TestSampleSystem:
    def test_fixed_shell_joint_norm(self):
        g = gen(24)
        for _ in range(100):
            A, b = en.sample_system(2, 1, en.FixedShell(1.0), g)
            assert abs(np.sum(A * A) + b @ b - 1.0) < 1e-12

    def test_gaussian_entries(self):
        g = gen(25)
        scalars = []
        for _ in range(5000):
            A, b = en.sample_system(1, 1, en.GaussianEntries(), g)
            scalars.extend([A[0, 0], A[0, 1], b[0]])
        rep = stats.ks_one_sample(scalars, lambda x: 0.5 * erfc(-x / math.sqrt(2.0)))
        assert rep.p_value > 1e-3

    def test_n_zero_shapes(self):
        A, b = en.sample_system(3, 0, en.GaussianEntries(), gen(26))
        assert A.shape == (3, 3) and b.shape == (3,)
