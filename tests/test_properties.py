"""Property tests of the paper's symmetries (stable CDF reflection and
monotonicity, Z -> O Z Q invariance, the (m, n) transpose symmetry, of the
Gram log-det among them, and the solve's invariance under a common scale,
so that a power of two in a shell's radius changes no draw) and of the
reproducibility contract: a block's draws depend on its generator's state
alone, draw_rows pools the rows of one draw_block call per keyed substream,
and the shard count changes no draw and no report byte.  The two-sample KS
statistic's merge gives the searchsorted statistic bit for bit."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmtlab import cli
from rmtlab import densities as de
from rmtlab import ensembles as en
from rmtlab import girko, matcore, stats

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
@given(m=st.integers(1, 8), n=st.integers(1, 8), seed=seeds, log_scale=st.floats(-3.0, 1.0), is_complex=st.booleans())
def test_gram_logdet_is_symmetric_in_m_and_n(m, n, seed, log_scale, is_complex):
    # log det(I + Z Z^H) = log det(I + Z^H Z): Z^H gives the same statistic,
    # through the other side's Gram where m = n
    rng = np.random.default_rng(seed)
    Z = 10.0**log_scale * rng.standard_normal((16, m, n))
    if is_complex:
        Z = Z + 1j * 10.0**log_scale * rng.standard_normal(Z.shape)
    got, flipped = matcore.gram_logdet(Z), matcore.gram_logdet(np.swapaxes(Z, 1, 2).conj())
    assert (np.abs(got - flipped) <= 1e-13 * np.abs(got)).all()


@PROPERTY
@given(m=st.integers(1, 8), e=st.integers(-400, 400), seed=seeds, is_complex=st.booleans())
def test_solve_is_scale_free(m, e, seed, is_complex):
    # scaling B and R alike by 2^e is exact and leaves every multiplier, every
    # pivot ratio and Z unchanged, so the stable entries need no scale of their own
    rng = np.random.default_rng(seed)
    B, R = rng.standard_normal((16, m, m)), rng.standard_normal((16, m, 2))
    if is_complex:
        B, R = B + 1j * rng.standard_normal(B.shape), R + 1j * rng.standard_normal(R.shape)
    Z, flags = matcore.solve_flagged(B, R)
    scaled_Z, scaled_flags = matcore.solve_flagged(2.0**e * B, 2.0**e * R)
    assert scaled_Z.tobytes() == Z.tobytes() and scaled_flags.tobytes() == flags.tobytes()


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
# (blocks, extra): 35 draws, or below, at and just past one, two and three
# blocks of the sampler's block_size
sample_counts = st.sampled_from([(0, 35)] + [(blocks, extra) for blocks in (1, 2, 3) for extra in (-1, 0, 1)])


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


@PROPERTY
@given(
    kind=st.sampled_from(["real", "complex", "girko", "girko-stable"]),
    m=st.integers(1, 3),
    n=st.integers(0, 2),
    law=radial_laws,
    alpha=st.sampled_from([1, 2]),
    blocks=st.floats(0.0, 2.0),
    ratio=st.sampled_from([matcore.NEAR_SINGULAR_RATIO, 0.3]),
    seed=seeds,
    earlier=st.lists(generator_calls, max_size=6),
)
def test_draw_block_depends_on_the_generator_state_alone(kind, m, n, law, alpha, blocks, ratio, seed, earlier):
    gen = en.RngStream(seed).generator()
    for name, size in earlier:
        GENERATOR_CALLS[name](gen, size)
    twin = np.random.Generator(np.random.Philox())
    twin.bit_generator.state = gen.bit_generator.state
    sampler = make_sampler(kind, m, n, law, alpha)
    k = max(1, round(blocks * en.block_size(sampler)))  # up to two of draw_rows' blocks
    with mock.patch.object(matcore, "NEAR_SINGULAR_RATIO", ratio):
        Z, rejected = en.draw_block(sampler, gen, k)
        again, rejected_again = en.draw_block(sampler, twin, k)
    assert Z.shape[0] == k and Z.tobytes() == again.tobytes() and rejected == rejected_again
    assert gen.random(4).tobytes() == twin.random(4).tobytes()  # and leaves equal states


def statistic_rows(Z):
    """The Gram log-det statistic next to every solution entry, one row per draw."""
    return np.column_stack([matcore.gram_logdet(Z), Z.reshape(len(Z), -1)])


def per_block_rows(seed, samples, arm, sampler, row_of):
    """Pooled rows drawn with one draw_block call per substream block of block_size systems."""
    rows, rejected = [], 0
    k = en.block_size(sampler)
    for b, start in enumerate(range(0, samples, k)):
        gen = en.RngStream(seed, (arm << 32) | b).generator()
        Z, rej = en.draw_block(sampler, gen, min(k, samples - start))
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
    count=sample_counts,
    ratio=st.sampled_from([matcore.NEAR_SINGULAR_RATIO, 0.3]),
    seed=seeds,
    arm=st.integers(0, 3),
)
def test_pooled_rows_are_one_draw_block_per_substream(kind, m, n, law, alpha, count, ratio, seed, arm):
    sampler = make_sampler(kind, m, n, law, alpha)
    blocks, extra = count
    samples = blocks * en.block_size(sampler) + extra
    with mock.patch.object(matcore, "NEAR_SINGULAR_RATIO", ratio):
        rows, rejected = en.draw_rows(sampler, seed, arm, samples, statistic_rows)
        want, want_rejected = per_block_rows(seed, samples, arm, sampler, statistic_rows)
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    assert rejected == want_rejected


@settings(PROPERTY, max_examples=20)
@given(
    kind=st.sampled_from(["real", "complex", "girko"]),
    m=st.integers(1, 3),
    n=st.integers(0, 2),
    radius=st.floats(1e-300, 1e300),
    e=st.integers(-1100, 1100),
    seed=seeds,
)
def test_a_power_of_two_in_the_radius_changes_no_row(kind, m, n, radius, e, seed):
    # the samplers scale each draw to its radius's mantissa, so shell:r and
    # shell:2^e r draw the same systems; 2^e r is kept exact and finite
    with np.errstate(over="ignore"):
        scaled = float(np.ldexp(radius, e))
    assume(0.0 < scaled < math.inf and math.ldexp(scaled, -e) == radius)
    rows = [en.draw_rows(make_sampler(kind, m, n, en.FixedShell(r), 1), seed, 0, 600, statistic_rows)
            for r in (radius, scaled)]
    assert rows[0][0].tobytes() == rows[1][0].tobytes() and rows[0][1] == rows[1][1]


def searchsorted_ks(a, b):
    """The two-sample KS statistic by counting each sample's points <= every point of both."""
    xa, xb = np.sort(a), np.sort(b)
    merged = np.concatenate([xa, xb])
    return float(np.max(np.abs(np.searchsorted(xa, merged, side="right") / xa.size
                               - np.searchsorted(xb, merged, side="right") / xb.size)))


# few distinct values, so that ties within and across the samples are common
ks_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(PROPERTY, max_examples=100)
@given(
    a=st.lists(ks_values, min_size=stats.MIN_SAMPLES, max_size=90),
    b=st.lists(ks_values, min_size=stats.MIN_SAMPLES, max_size=60),
)
def test_two_sample_statistic_is_the_searchsorted_one(a, b):
    a, b = np.array(a), np.array(b)
    assert stats.ks_two_sample(a, b).statistic == searchsorted_ks(a, b)
    assert stats.ks_two_sample(b, a).statistic == searchsorted_ks(b, a)


@settings(PROPERTY, max_examples=10)
@given(bad_block=st.integers(1, 2), seed=seeds)
def test_resample_limit_in_a_later_block_raises(bad_block, seed):
    # every draw of one block's substream is singular; the blocks before it
    # are ordinary, and the draws span three blocks
    base = en.ratio_sampler(en.EnsembleSpec(m=2, n=1))
    samples = 3 * en.block_size(base)

    def sampler(rng, k):
        key = rng.bit_generator.state["state"].get("key")  # None on block_size's throwaway generator
        B, X = base(rng, k)
        scale = 0.0 if key is not None and int(key[1]) & 0xFFFFFFFF == bad_block else 1.0
        return B * scale, X * scale

    with pytest.raises(en.ResampleLimit, match="^100 consecutive near-singular draws$"):
        en.draw_rows(sampler, seed, 0, samples, cli._first_column)
    with pytest.raises(en.ResampleLimit, match="^100 consecutive near-singular draws$"):
        per_block_rows(seed, samples, 0, sampler, cli._first_column)


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
