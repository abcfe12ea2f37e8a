"""Property tests of the paper's symmetries (stable CDF reflection and
monotonicity, Z -> O Z Q invariance, the (m, n) transpose symmetry) and of
the reproducibility contract: a block's draws depend on its generator's state
alone, and stacking substream blocks into one kernel call, reusing a block's
generator and the shard count change no draw and no report byte."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import cli
from rmtlab import densities as de
from rmtlab import ensembles as en
from rmtlab import girko, matcore

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)
log_scales = st.floats(-3.0, 3.0)


def haar(rng, d, field=float):
    """A Haar-distributed orthogonal (unitary for complex) d x d matrix."""
    G = rng.standard_normal((d, d)).astype(field)
    if field is complex:
        G += 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def spd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T + 0.5 * np.eye(d)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@PROPERTY
@given(
    alpha=st.sampled_from([1, 2]),
    beta=st.floats(0.1, 10.0),
    zeta=st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=64),
)
def test_stable_cdf_reflects_and_increases(alpha, beta, zeta):
    law = girko.StableLaw(alpha=alpha)
    z = np.sort(np.asarray(zeta))
    F = girko.girko_stable_cdf(z, law, beta)
    assert np.all(np.diff(F) >= 0.0)
    assert np.abs(girko.girko_stable_cdf(-z, law, beta) - (1.0 - F)).max() <= 1e-15


@PROPERTY
@given(m=dims, n=dims, seed=seeds, log_scale=log_scales)
def test_universal_laws_invariant_under_rotations(m, n, seed, log_scale):
    rng = np.random.default_rng(seed)
    Z = 10.0**log_scale * rng.standard_normal((m, n))
    assert close(de.log_universal_real(haar(rng, m) @ Z @ haar(rng, n)), de.log_universal_real(Z))
    Zc = Z + 1j * 10.0**log_scale * rng.standard_normal((m, n))
    rotated = haar(rng, m, complex) @ Zc @ haar(rng, n, complex)
    assert close(de.log_universal_complex(rotated), de.log_universal_complex(Zc))


@PROPERTY
@given(m=dims, n=dims, seed=seeds, log_scale=log_scales, q=st.floats(0.5, 5.0))
def test_transpose_swaps_m_and_n(m, n, seed, log_scale, q):
    rng = np.random.default_rng(seed)
    Z = 10.0**log_scale * rng.standard_normal((m, n))
    assert close(de.log_universal_real(Z.T), de.log_universal_real(Z))
    assert close(de.selberg_Z_integral(n, m), de.selberg_Z_integral(m, n))
    M = rng.standard_normal((m, n))
    Sigma, Omega = spd(rng, m), spd(rng, n)
    assert close(
        de.log_matrix_t(Z.T, de.TDistParams(M=M.T, Sigma=Omega, Omega=Sigma, q=q)),
        de.log_matrix_t(Z, de.TDistParams(M=M, Sigma=Sigma, Omega=Omega, q=q)),
    )


# ---------------------------------------------------------------------------
# reproducibility of the block-batched sampling path

radial_laws = st.sampled_from(
    [en.GaussianEntries(), en.FixedShell(1.0), en.UniformBall(3.0), en.TwoShellMixture(0.5, 5.0, 0.3)]
)
# around one block (BLOCK = 64) and around one stacked run of blocks (512)
sample_counts = st.sampled_from([35, 64, 65, 511, 513, 1100])


def make_sampler(kind, m, n, law, alpha):
    u = np.linspace(0.5, 1.0, n)
    if kind in ("real", "complex"):
        return en.ratio_sampler(en.EnsembleSpec(m=m, n=max(n, 1), field=kind, radial=law))
    if kind == "girko":
        return girko.solution_sampler(girko.LinearSystemSpec(m=m, n=n, u=u, radial=law))
    return girko.stable_sampler(m, n, u, girko.StableLaw(alpha=alpha))


# generator calls a block may make, sized by k; 32-bit integers leave half a
# 64-bit word buffered in the bit generator
GENERATOR_CALLS = {
    "chisquare": lambda g, k: g.chisquare(3.0, k),
    "standard_normal": lambda g, k: g.standard_normal(k),
    "random": lambda g, k: g.random(k),
    "integers": lambda g, k: g.integers(0, 10, k, dtype=np.int32),
    "standard_cauchy": lambda g, k: g.standard_cauchy(k),
}
generator_calls = st.tuples(st.sampled_from(sorted(GENERATOR_CALLS)), st.integers(1, 9))
keys = st.integers(0, 2**64 - 1)


@PROPERTY
@given(
    old=st.tuples(keys, keys),
    new=st.tuples(keys, keys),
    earlier=st.lists(generator_calls, max_size=6),
    later=st.lists(generator_calls, min_size=1, max_size=6),
)
def test_reset_generator_draws_what_a_new_one_draws(old, new, earlier, later):
    gen = en.RngStream(*old).generator()
    for name, k in earlier:
        GENERATOR_CALLS[name](gen, k)
    reset = en.RngStream(*new).generator(gen)
    fresh = en.RngStream(*new).generator()
    assert reset is gen
    for name, k in later:
        assert GENERATOR_CALLS[name](reset, k).tobytes() == GENERATOR_CALLS[name](fresh, k).tobytes()


@PROPERTY
@given(
    kind=st.sampled_from(["real", "complex", "girko", "girko-stable"]),
    m=st.integers(1, 3),
    n=st.integers(0, 2),
    law=radial_laws,
    alpha=st.sampled_from([1, 2]),
    k=st.integers(1, 2 * en.BLOCK),
    ratio=st.sampled_from([matcore.NEAR_SINGULAR_RATIO, 0.3]),
    seed=seeds,
    earlier=st.lists(generator_calls, max_size=6),
)
def test_draw_block_depends_on_the_generator_state_alone(kind, m, n, law, alpha, k, ratio, seed, earlier):
    gen = en.RngStream(seed).generator()
    for name, size in earlier:
        GENERATOR_CALLS[name](gen, size)
    twin = np.random.Generator(np.random.Philox())
    twin.bit_generator.state = gen.bit_generator.state
    sampler = make_sampler(kind, m, n, law, alpha)
    with mock.patch.object(matcore, "NEAR_SINGULAR_RATIO", ratio):
        Z, rejected = en.draw_block(sampler, gen, k)
        again, rejected_again = en.draw_block(sampler, twin, k)
    assert Z.shape[0] == k and Z.tobytes() == again.tobytes() and rejected == rejected_again
    assert gen.random(4).tobytes() == twin.random(4).tobytes()  # and leaves equal states


def statistic_rows(Z):
    """The Gram log-det statistic next to every solution entry, one row per draw."""
    return np.column_stack([matcore.gram_logdet(Z), Z.reshape(len(Z), -1)])


def per_block_rows(seed, samples, arm, sampler, row_of):
    """Pooled rows drawn with one draw_block call per substream block."""
    rows, rejected = [], 0
    for b, start in enumerate(range(0, samples, en.BLOCK)):
        gen = en.RngStream(seed, (arm << 32) | b).generator()
        Z, rej = en.draw_block(sampler, gen, min(en.BLOCK, samples - start))
        rows.append(row_of(Z))
        rejected += rej
    return np.concatenate(rows), rejected


@PROPERTY
@given(
    kind=st.sampled_from(["real", "complex", "girko", "girko-stable"]),
    m=st.integers(1, 3),
    n=st.integers(0, 2),
    law=radial_laws,
    alpha=st.sampled_from([1, 2]),
    samples=sample_counts,
    ratio=st.sampled_from([matcore.NEAR_SINGULAR_RATIO, 0.3]),
    seed=seeds,
    arm=st.integers(0, 3),
)
def test_stacked_blocks_draw_what_single_blocks_draw(kind, m, n, law, alpha, samples, ratio, seed, arm):
    sampler = make_sampler(kind, m, n, law, alpha)
    cfg = cli.ExperimentConfig(kind="exactness", seed=seed, samples=samples)
    report = cli.RunReport(config={})
    with mock.patch.object(matcore, "NEAR_SINGULAR_RATIO", ratio):
        rows = cli._pooled_rows(cfg, report, arm, sampler, statistic_rows)
        want, rejected = per_block_rows(seed, samples, arm, sampler, statistic_rows)
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    assert report.resamples == rejected and report.arm_resamples == [rejected]


@settings(PROPERTY, max_examples=10)
@given(bad_block=st.integers(1, 17), seed=seeds)
def test_resample_limit_in_a_later_block_raises(bad_block, seed):
    # every draw of one block's substream is singular; the blocks before it,
    # in its stacked run or in an earlier one, are ordinary
    base = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))

    def draw(rng, k):
        block = int(rng.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF
        return base.draw(rng, k) * (0.0 if block == bad_block else 1.0)

    sampler = en.SystemSampler(draw=draw, split=base.split)
    cfg = cli.ExperimentConfig(kind="exactness", seed=seed, samples=1100)
    with pytest.raises(en.ResampleLimit):
        cli._pooled_rows(cfg, cli.RunReport(config={}), 0, sampler, cli._first_column)
    with pytest.raises(en.ResampleLimit):
        per_block_rows(seed, 1100, 0, sampler, cli._first_column)


@settings(PROPERTY, max_examples=20)
@given(
    kind=st.sampled_from(["exactness", "universality", "complex", "girko", "girko-stable"]),
    m=st.integers(1, 3),
    alpha=st.sampled_from([1, 2]),
    shards=st.integers(1, 5),
    seed=seeds,
)
def test_any_shard_count_gives_the_same_bytes(kind, m, alpha, shards, seed):
    raw = {"kind": kind, "m": m, "n": 1, "seed": seed, "samples": 150}
    if kind in ("universality", "complex", "girko"):
        raw.update(radial=["gaussian", "shell:1"])
    if kind in ("girko", "girko-stable"):
        raw.update(u=[0.75])
    if kind == "girko-stable":
        raw.update(alpha=alpha)
    with tempfile.TemporaryDirectory() as tmp:
        reports, csv = [], []
        for s in (1, shards):
            cfg = cli.parse_config(dict(raw, shards=s, out=f"{tmp}/shards{s}", format="csv"))
            reports.append(cli.run(cfg))
            csv.append(Path(cli.emit(reports[-1], cfg.format, cfg.out)[0]).read_bytes())
    single, sharded = reports
    assert sharded.config["shards"] == shards
    assert sharded.entries == single.entries and sharded.resamples == single.resamples
    assert csv[1] == csv[0]
