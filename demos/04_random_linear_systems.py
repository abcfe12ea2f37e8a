# ## Solutions of random linear systems
#
# Take m equations B z = b - X u where all coefficients (A, b) = (B, X, b)
# share a rotationally invariant density f(tr A^T A + b^T b), and u is a
# fixed parameter vector.  The solution z follows an m-dimensional Cauchy
# law of width beta = sqrt(1 + u^T u), for every admissible f; component
# ratios z_i / z_j are standard Cauchy regardless of u.

import math

import numpy as np

import rmtlab

N = 5000


def solutions(sampler, seed, stream):
    """N solution vectors (N, m), pooled by draw_rows on (seed, stream)."""
    return rmtlab.draw_rows(sampler, seed, stream, N, lambda z: z[:, :, 0])[0]

u = (0.75,)
beta = rmtlab.beta_euclidean(u)
print(f"parameters u = {u}, width beta = {beta}\n")

# ## Component and ratio laws under two radial profiles
for stream, law in enumerate([rmtlab.GaussianEntries(), rmtlab.FixedShell(2.0)]):
    spec = rmtlab.LinearSystemSpec(m=2, n=1, u=u, radial=law)
    z = solutions(rmtlab.solution_sampler(spec), 6, stream)
    z1, ratio = z[:, 0], z[:, 0] / z[:, 1]
    width = rmtlab.CauchyParams(0.0, beta)
    rep1 = rmtlab.ks_one_sample(z1, lambda x: rmtlab.cauchy_cdf(x, width))
    rep2 = rmtlab.ks_one_sample(ratio, rmtlab.cauchy_cdf)
    print(f"{type(law).__name__:15s} z1 ~ Cauchy({beta:g}): p = {rep1.p_value:.3f}   "
          f"z1/z2 ~ Cauchy(1): p = {rep2.p_value:.3f}")

# ## The classical i.i.d.-entry setting with stable laws
# alpha = 2 (normal entries) admits the closed Cauchy form; alpha = 1
# (Cauchy entries) is evaluated by quadrature of the component density.
law2 = rmtlab.StableLaw(alpha=2)
print("\nalpha = 2 component density vs closed Cauchy form at a few points:")
for zeta in (0.0, 1.0, 2.5):
    got = rmtlab.girko_stable_density(zeta, law2, beta)
    want = math.exp(rmtlab.cauchy_logpdf(zeta, rmtlab.CauchyParams(0.0, beta)))
    print(f"  zeta = {zeta:4.1f}: quadrature {got:.8f}  exact {want:.8f}")

law1 = rmtlab.StableLaw(alpha=1)
draws = solutions(rmtlab.stable_sampler(1, 0, (), law1), 7, 0)[:, 0]
rep = rmtlab.ks_one_sample(draws, lambda x: rmtlab.girko_stable_cdf(x, law1, 1.0))
print(f"\nalpha = 1, m = 1: z = b/B against the exact CDF: p = {rep.p_value:.3f}")
