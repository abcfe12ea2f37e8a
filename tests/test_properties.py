"""Property tests of the paper's symmetries: stable CDF reflection and
monotonicity, Z -> O Z Q invariance, and the (m, n) transpose symmetry."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtlab import densities as de
from rmtlab import girko

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
