"""Tests for the rotationally invariant samplers."""

import math
import weakref

import numpy as np
import pytest
from scipy.special import erfc

from rmtlab import cli, girko, matcore, stats
from rmtlab import densities as de
from rmtlab import ensembles as en


def gen(stream=0, seed=20260808):
    return en.RngStream(seed, stream).generator()


def block_draws(sampler, stream, count, seed=20260808):
    """count solved systems pooled by draw_rows on (seed, stream): (Z, rejections)."""
    return en.draw_rows(sampler, seed, stream, count, lambda Z: Z)


def per_block_rows(sampler, stream, count, row_of, seed=20260808):
    """count rows pooled with one draw_block call per substream block of (seed, stream): (rows, rejections)."""
    rows, rejected = [], 0
    for b, k in enumerate(block_sizes(sampler, count)):
        Z, rej = en.draw_block(sampler, gen((stream << 32) | b, seed), k)
        rows.append(row_of(Z))
        rejected += rej
    return np.concatenate(rows), rejected


def statistic_rows(Z):
    """The Gram log-det statistic next to every solution entry, one row per draw."""
    return np.column_stack([matcore.gram_logdet(Z), Z.reshape(len(Z), -1)])


def block_sizes(sampler, count):
    """The systems in each substream block of count draws from sampler."""
    k = en.block_size(sampler)
    return [min(k, count - first) for first in range(0, count, k)]


def parent_draws(spec, g, count):
    """count parent matrices (count, m, m + n) drawn from g in sampler calls of BLOCK draws each."""
    return np.concatenate([en._matrices(spec, g, min(en.BLOCK, count - i)) for i in range(0, count, en.BLOCK)])


def unit_directions(d, g, k):
    """k uniform directions in d dimensions: the rows the samplers draw on the unit shell."""
    return en.sample_radial_rows(en.FixedShell(1.0), d, g, k)


class TestUnitDirection:
    def test_unit_norm_every_draw(self):
        g = gen(1)
        for d in (1, 2, 7, 40):
            V = unit_directions(d, g, 50)
            assert np.abs(np.linalg.norm(V, axis=1) - 1.0).max() < 1e-12

    def test_d1_is_fair_sign(self):
        # rows are scaled by r / |v| in one multiply, so +-1 may come out one ulp short
        draws = unit_directions(1, gen(2), 4000)[:, 0]
        assert np.abs(np.abs(draws) - 1.0).max() <= 2.0**-53
        assert abs(np.sign(draws).mean()) < 4.0 / math.sqrt(4000)

    def test_d3_coordinate_moments(self):
        # each coordinate of a uniform point on S^2 has mean 0, variance 1/3
        N = 100_000
        mean = unit_directions(3, gen(3), N).mean(axis=0)
        sigma = math.sqrt(1.0 / (3 * N))
        assert np.abs(mean).max() < 3.0 * sigma


class TestRadialLaws:
    def test_fixed_shell_constant(self):
        radii = en.sample_radius(en.FixedShell(2.5), 6, gen(4), size=100)
        assert radii.shape == (100,) and (radii == 2.5).all()

    def test_uniform_ball_cdf(self):
        # in the plane, the radius CDF of a uniform disc point is r^2
        draws = en.sample_radius(en.UniformBall(1.0), 2, gen(5), size=20_000)
        rep = stats.ks_one_sample(draws, lambda r: np.clip(r * r, 0.0, 1.0))
        assert rep.p_value > 1e-3

    def test_gaussian_radius_mean_square(self):
        sq = en.sample_radius(en.GaussianEntries(), 4, gen(6), size=20_000) ** 2
        est = stats.mc_mean(sq)
        assert abs(est.mean - 4.0) < 4.0 * est.stderr

    def test_two_shell_mixture(self):
        draws = en.sample_radius(en.TwoShellMixture(1.0, 3.0, 0.25), 5, gen(7), size=20_000)
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

    @pytest.mark.parametrize("law", [lambda r: en.FixedShell(r), lambda r: en.UniformBall(r),
                                     lambda r: en.TwoShellMixture(1.0, r, 0.5)])
    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_refused(self, law, radius):
        with pytest.raises(en.InvalidLaw, match="finite"):
            law(radius)


class TestSpecs:
    @pytest.mark.parametrize(("m", "n", "field"), [(2.5, 1, "m"), (2, 0.5, "n"), (True, 1, "m"), (2, False, "n"),
                                                   ("2", 1, "m")])
    def test_ensemble_spec_refuses_fractional_dimensions(self, m, n, field):
        with pytest.raises(ValueError, match=f"^{field}: expected an integer"):
            en.EnsembleSpec(m=m, n=n)

    def test_ensemble_spec_keeps_integral_numbers_as_ints(self):
        spec = en.EnsembleSpec(m=2.0, n=np.int64(1))
        assert (spec.m, spec.n, spec.dim) == (2, 1, 6) and type(spec.m) is type(spec.n) is int

    @pytest.mark.parametrize("cols", [[1.9, 2], [True, 2], [1, np.float64(2.5)], ["1", "2"]])
    def test_partition_spec_refuses_fractional_columns(self, cols):
        with pytest.raises(en.BadPartition, match="^b_columns: expected an integer"):
            en.PartitionSpec(cols)
        assert en.PartitionSpec([2.0, 1]).b_columns == (2, 1)


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
        stat = np.trace(parent_draws(spec, g, 20_000)[:, :2, :2], axis1=1, axis2=2)
        stat_rot = np.trace((O @ parent_draws(spec, g, 20_000))[:, :2, :2], axis1=1, axis2=2)
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

    def test_stack_splits_each_matrix(self):
        stack = np.stack([self.A, -self.A, 2.0 * self.A])
        B, X = en.partition(stack, en.PartitionSpec([3, 1]))
        assert B.shape == (3, 2, 2) and X.shape == (3, 2, 1)
        for A, b, x in zip(stack, B, X):
            want_b, want_x = en.partition(A, en.PartitionSpec([3, 1]))
            assert np.array_equal(b, want_b) and np.array_equal(x, want_x)

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
        with pytest.raises(en.BadPartition):  # when the sampler is built, before any draw
            en.ratio_sampler(en.EnsembleSpec(m=2, n=1), en.PartitionSpec([1, 1]))


class TestPartitionViews:
    @staticmethod
    def gathered(monkeypatch):
        """Make partition gather every index set into a copy, slices included."""
        indices = en._partition_indices
        monkeypatch.setattr(en, "_partition_indices",
                            lambda cols, m, total: tuple(np.arange(total)[i] for i in indices(cols, m, total)))

    @pytest.mark.parametrize(("m", "n", "b_columns", "views"), [
        (2, 2, None, (True, True)),  # the leading partition
        (2, 2, (2, 3), (True, False)),  # contiguous B in the middle: X = columns 1 and 4 is gathered
        (3, 1, (2, 3, 4), (True, True)),
        (2, 2, (3, 1), (False, False)),
    ])
    def test_views_draw_the_blocks_that_copies_draw(self, monkeypatch, m, n, b_columns, views):
        # at ratio 0.3 about half the draws are redrawn, through the views
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        spec = en.EnsembleSpec(m=m, n=n, radial=en.UniformBall(2.0))
        p = en.PartitionSpec(b_columns or range(1, m + 1))
        indices = en._partition_indices(p.b_columns, m, m + n)
        assert [isinstance(i, slice) for i in indices] == list(views)
        B, X = en.ratio_sampler(spec, p)(gen(60), 4)
        assert np.may_share_memory(B, X) == all(views)
        Z, rejects = en.draw_block(en.ratio_sampler(spec, p), gen(61), en.BLOCK)
        self.gathered(monkeypatch)
        assert not np.may_share_memory(*en.ratio_sampler(spec, p)(gen(60), 4))
        Z_copies, rejects_copies = en.draw_block(en.ratio_sampler(spec, p), gen(61), en.BLOCK)
        assert rejects > 0 and rejects == rejects_copies and Z.tobytes() == Z_copies.tobytes()


class TestSampleZ:
    def test_scalar_ratio_is_cauchy(self):
        spec = en.EnsembleSpec(m=1, n=1)
        draws = block_draws(en.ratio_sampler(spec), 12, 20_000)[0][:, 0, 0]
        rep = stats.ks_one_sample(draws, de.cauchy_cdf)
        assert rep.statistic < 0.015
        assert rep.p_value > 1e-3

    def test_vector_component_is_cauchy(self):
        # m=2, n=1: each component of the 2-dim Cauchy vector is standard Cauchy
        spec = en.EnsembleSpec(m=2, n=1)
        draws = block_draws(en.ratio_sampler(spec), 13, 20_000)[0][:, 0, 0]
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
        _, total = block_draws(en.ratio_sampler(spec), 15, 10_000)
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
        # at ratio 0.3 many 2 x 2 B blocks are flagged and redrawn, in several rounds
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        sampler = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
        drawn = []

        def recording(rng, k):
            B, R = sampler(rng, k)
            drawn.append((B.copy(), R.copy()))
            return B, R

        Z, rej = en.draw_block(recording, gen(44), en.BLOCK)
        assert rej > 0 and Z.shape == (en.BLOCK, 2, 1) and np.isfinite(Z).all()
        assert en.draw_block(sampler, gen(44), en.BLOCK)[0].tobytes() == Z.tobytes()
        # replay the rounds: each redraw replaces the rows still flagged
        B, R = (a.copy() for a in drawn[0])
        redrawn = rows = np.flatnonzero(matcore.solve_flagged(B, R)[1])
        for B_again, R_again in drawn[1:]:
            B[rows], R[rows] = B_again, R_again
            rows = rows[matcore.solve_flagged(B_again, R_again)[1]]
        assert rows.size == 0 and len(drawn) > 2 and rej == sum(len(b) for b, _ in drawn[1:])
        # every row's Z solves its own final system, not the draw it replaced
        assert np.abs(B @ Z - R).max() <= 1e-10 * np.abs(B).max() * np.abs(Z).max()
        first_B, first_R = drawn[0]
        assert (np.abs(first_B[redrawn] @ Z[redrawn] - first_R[redrawn]).max(axis=(1, 2)) > 1e-6).all()

    def test_forced_rejections_reproducible_across_shards(self, monkeypatch):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        raw = {"kind": "exactness", "m": 2, "n": 1, "samples": 1000, "seed": 45}
        one = cli.run(cli.parse_config(dict(raw, shards=1)))
        three = cli.run(cli.parse_config(dict(raw, shards=3)))
        assert one.resamples > 0 and one.resamples == three.resamples
        assert np.isfinite(one.rows).all()
        assert np.array_equal(one.rows, three.rows)
        assert one.to_json().replace('"shards": 1', '"shards": 3') == three.to_json()

    def test_pooled_rows_do_not_keep_the_solutions(self):
        # Z is a view of a block's (m, m + c, k) work array, and the first
        # column is a view of Z; pooling that view would keep every block's
        # whole work array alive until the rows are concatenated
        work = []

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        def first_column(Z):
            assert all(ref() is None for ref in work)
            work.append(weakref.ref(owner(Z)))
            return Z[:, :, 0]

        # (3, 2): 72 + 48 bytes a system, so 2184 systems to a block, and three blocks
        sampler = en.ratio_sampler(en.EnsembleSpec(m=3, n=2))
        n = 3 * en.block_size(sampler)
        rows, _ = en.draw_rows(sampler, 20260808, 0, n, first_column)
        assert len(work) == len(block_sizes(sampler, n)) == 3 and rows.shape == (n, 3)
        assert np.array_equal(rows, per_block_rows(sampler, 0, n, lambda Z: Z[:, :, 0])[0])

    def test_resample_limit_in_a_block(self, monkeypatch):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 1e12)
        monkeypatch.setattr(en, "MAX_REJECTS", 5)
        with pytest.raises(en.ResampleLimit, match="^5 consecutive"):
            en.draw_block(en.ratio_sampler(en.EnsembleSpec(m=2, n=1)), gen(46), en.BLOCK)


class TestDrawRowsBlocks:
    """draw_rows pools the rows of one draw_block call per substream block of block_size systems."""

    SHAPES = {  # sampler and the systems in its blocks
        "real (1, 1)": (en.ratio_sampler(en.EnsembleSpec(m=1, n=1)), 16384),
        "real (2, 2)": (en.ratio_sampler(en.EnsembleSpec(m=2, n=2)), 4096),
        "real (3, 1)": (en.ratio_sampler(en.EnsembleSpec(m=3, n=1)), 2730),
        "complex (1, 1)": (en.ratio_sampler(en.EnsembleSpec(m=1, n=1, field="complex")), 8192),
        "girko (2, 1)": (girko.solution_sampler(girko.LinearSystemSpec(2, 1, (0.75,))), 5461),
        "stable (2, 1)": (girko.stable_sampler(2, 1, (0.75,), girko.StableLaw(alpha=1)), 5461),
        "real (8, 4)": (en.ratio_sampler(en.EnsembleSpec(m=8, n=4)), en.BLOCK),
        "complex (4, 2)": (en.ratio_sampler(en.EnsembleSpec(m=4, n=2, field="complex")), 682),
    }

    @staticmethod
    def counted(monkeypatch):
        """Count the solve_flagged calls of the first pass of each block, by their size."""
        sizes = []
        solve = matcore.solve_flagged

        def counting(B, R):
            sizes.append(len(B))
            return solve(B, R)

        monkeypatch.setattr(matcore, "solve_flagged", counting)
        return sizes

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_block_size(self, shape):
        # BLOCK_BYTES of one system's B and R stacks, or BLOCK systems when
        # a system takes more than BLOCK_BYTES / BLOCK bytes, as at (8, 4)
        sampler, size = self.SHAPES[shape]
        B, R = sampler(gen(7), 1)
        assert en.block_size(sampler) == size == max(en.BLOCK, en.BLOCK_BYTES // (B.nbytes + R.nbytes))

    def test_block_size_floor_for_wide_systems(self):
        # one complex (64, 64) system takes 128 KiB, so a block of BLOCK systems takes 67 MB
        sampler = en.ratio_sampler(en.EnsembleSpec(m=64, n=64, field="complex"))
        B, R = sampler(gen(7), 1)
        assert B.nbytes + R.nbytes == en.BLOCK_BYTES // 2 and en.block_size(sampler) == en.BLOCK

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(("blocks", "extra"), [(0, 1), (1, 0), (3, 7)])
    def test_blocks_give_the_rows_of_one_draw_block_per_block(self, monkeypatch, shape, blocks, extra):
        sampler, size = self.SHAPES[shape]
        n = blocks * size + extra
        want, want_rejected = per_block_rows(sampler, 5, n, statistic_rows)
        sizes = self.counted(monkeypatch)
        reduced = []

        def counting_rows(Z):
            reduced.append(len(Z))
            return statistic_rows(Z)

        rows, rejected = en.draw_rows(sampler, 20260808, 5, n, counting_rows)
        assert rows.tobytes() == want.tobytes() and rejected == want_rejected == 0
        assert sizes == reduced == block_sizes(sampler, n) and len(sizes) == blocks + (extra > 0)

    @pytest.mark.parametrize("shape", ["real (2, 2)", "girko (2, 1)", "stable (2, 1)"])
    def test_forced_rejections_in_several_blocks(self, monkeypatch, shape):
        # at ratio 0.3 about half of the 2 x 2 systems are redrawn, in several rounds,
        # each from its own block's substream
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 0.3)
        sampler, size = self.SHAPES[shape]
        n = 3 * size + 100
        per_block = [en.draw_block(sampler, gen((6 << 32) | b), k)[1]
                     for b, k in enumerate(block_sizes(sampler, n))]
        assert len(per_block) == 4 and all(rej > 0 for rej in per_block)
        want, want_rejected = per_block_rows(sampler, 6, n, statistic_rows)
        rows, rejected = en.draw_rows(sampler, 20260808, 6, n, statistic_rows)
        assert rows.tobytes() == want.tobytes() and rejected == want_rejected == sum(per_block)
        assert np.isfinite(rows).all()

    def test_resample_limit_in_draw_rows(self, monkeypatch):
        monkeypatch.setattr(matcore, "NEAR_SINGULAR_RATIO", 1e12)
        monkeypatch.setattr(en, "MAX_REJECTS", 5)
        sampler = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
        with pytest.raises(en.ResampleLimit, match="^5 consecutive near-singular draws$"):
            en.draw_rows(sampler, 20260808, 0, 3 * en.block_size(sampler), cli._first_column)

    @pytest.mark.parametrize(("name", "seed", "stream"), [
        ("stream", 20260808, 2**32),  # would draw the substreams of stream 0
        ("stream", 20260808, -1),
        ("stream", 20260808, 1.5),
        ("stream", 20260808, True),
        ("seed", 5 + 2**64, 0),  # would draw the substreams of seed 5
        ("seed", -3, 0),  # would draw the substreams of seed 2**64 - 3
        ("seed", 5.5, 0),
        ("seed", True, 0),  # would draw as seed 1
        ("seed", "5", 0),
        ("seed", None, 0),
    ])
    def test_seed_and_stream_checked(self, name, seed, stream):
        with pytest.raises(ValueError, match=f"^{name}: |^{name} must lie in"):
            en.draw_rows(en.ratio_sampler(en.EnsembleSpec(m=2, n=1)), seed, stream, 10, cli._first_column)

    def test_largest_seed_and_stream_accepted(self):
        sampler = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
        rows, _ = en.draw_rows(sampler, 2**64 - 1, 2**32 - 1, 10.0, cli._first_column)
        assert rows.tobytes() == per_block_rows(sampler, 2**32 - 1, 10, cli._first_column, seed=2**64 - 1)[0].tobytes()

    @pytest.mark.parametrize("n", [0, -3, True, 2.5, "2", None])
    def test_count_checked(self, n):
        with pytest.raises(ValueError, match="^n: |^n must be"):
            en.draw_rows(en.ratio_sampler(en.EnsembleSpec(m=2, n=1)), 20260808, 0, n, cli._first_column)

    def test_integral_count_accepted(self):
        sampler = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
        rows, _ = en.draw_rows(sampler, 20260808, 0, 600.0, cli._first_column)
        assert rows.tobytes() == en.draw_rows(sampler, 20260808, 0, 600, cli._first_column)[0].tobytes()


class TestScaleAndPartitionInvariance:
    def statistic(self, spec, part, stream, count=20_000):
        """log det(I + Z Z^T) of count draws pooled on stream."""
        return matcore.gram_logdet(block_draws(en.ratio_sampler(spec, part), stream, count)[0])

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

    @pytest.mark.parametrize(("name", "seed", "stream_id"), [
        ("seed", -3, 0),  # would draw as seed 2**64 - 3
        ("stream_id", 5, 2**64 + 7),  # would draw as stream 7
        ("seed", True, 0),  # would draw as seed 1
        ("seed", 5.5, 0),
        ("stream_id", 5, "7"),
    ])
    def test_aliasing_keys_refused(self, name, seed, stream_id):
        with pytest.raises(ValueError, match=f"^{name}: |^{name} must lie in"):
            en.RngStream(seed, stream_id)

    def test_largest_keys_accepted(self):
        key = en.RngStream(2**64 - 1, 2**64 - 1).generator().bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 2**64 - 1]

    def test_integral_keys_read_as_ints(self):
        stream = en.RngStream(np.uint64(7), 3.0)
        assert stream == en.RngStream(7, 3) and type(stream.seed) is int and type(stream.stream_id) is int
        assert np.array_equal(stream.generator().random(4), en.RngStream(7, 3).generator().random(4))


class TestSampleSystem:
    """The (B, R) stacks of the joint (A, b) sampler, girko.solution_sampler."""

    @staticmethod
    def up_to_powers_of_two(true, B, R):
        """True when each flat (B, R) row times one power of two is the row of true, bit for bit."""
        stacks = np.concatenate([B.reshape(len(B), -1), R.reshape(len(R), -1)], axis=1)
        scale = true[:, :1] / stacks[:, :1]
        return bool((np.frexp(scale)[0] == 0.5).all() and np.array_equal(true, scale * stacks))

    def test_fixed_shell_joint_norm(self):
        # at n = 0, A is B and R is b, so the stacks hold the whole (A, b) up to a
        # power of two a row; the true rows are drawn from the same generator state
        spec = girko.LinearSystemSpec(2, 0, (), radial=en.FixedShell(1.0))
        B, R = girko.solution_sampler(spec)(gen(24), 100)
        true = en.sample_radial_rows(spec.radial, 6, gen(24), 100)
        assert self.up_to_powers_of_two(true, B, R)
        assert np.abs(np.sum(true * true, axis=1) - 1.0).max() < 1e-12

    def test_gaussian_entries(self):
        # B = A[0, 0] and R = b - A[0, 1], with variance 2, from i.i.d. standard normal
        # entries, up to a power of two a row
        B, R = girko.solution_sampler(girko.LinearSystemSpec(1, 1, (1.0,)))(gen(25), 5000)
        A00, A01, b = en.sample_radial_rows(en.GaussianEntries(), 3, gen(25), 5000).T
        true = np.column_stack([A00, b - A01])
        assert self.up_to_powers_of_two(true, B, R)
        scalars = np.concatenate([true[:, 0], true[:, 1] / math.sqrt(2.0)])
        rep = stats.ks_one_sample(scalars, lambda x: 0.5 * erfc(-x / math.sqrt(2.0)))
        assert rep.p_value > 1e-3

    @pytest.mark.parametrize("radius", [1.7e308, 1e-320])
    def test_any_radius_gives_the_mantissa_norm(self, radius):
        # the true (A, b) would overflow the elimination, or hold subnormal entries
        spec = girko.LinearSystemSpec(3, 0, (), radial=en.FixedShell(radius))
        B, R = girko.solution_sampler(spec)(gen(27), 100)
        squares = np.sum(B * B, axis=(1, 2)) + np.sum(R * R, axis=(1, 2))
        assert np.abs(squares - np.frexp(radius)[0] ** 2).max() < 1e-12

    def test_n_zero_shapes(self):
        B, R = girko.solution_sampler(girko.LinearSystemSpec(3, 0))(gen(26), 1)
        assert B.shape == (1, 3, 3) and R.shape == (1, 3, 1)
