# ## The scalar warm-up: a ratio of rotationally invariant coordinates
#
# Draw (x, y) from any density of the form f(x^2 + y^2) and look at
# z = x / y.  Whatever f is, z follows the standard Cauchy law: the pair
# (x, y) is a radius times a uniform direction on the circle, and the ratio
# only sees the direction.

import numpy as np

import rmtlab

N = 5000


def first_entries(spec, seed):
    """z11 of N block ratios Z = B^-1 X, pooled by draw_rows on stream 0 of seed."""
    return rmtlab.draw_rows(rmtlab.ratio_sampler(spec), seed, 0, N, lambda Z: Z[:, 0, 0])[0]


# ## Three very different radial profiles
laws = {
    "gaussian entries": rmtlab.GaussianEntries(),
    "fixed shell": rmtlab.FixedShell(2.5),
    "uniform ball": rmtlab.UniformBall(1.0),
}

print(f"{N} draws of z = x/y per radial law, KS against the arctan CDF:\n")
for name, law in laws.items():
    spec = rmtlab.EnsembleSpec(m=1, n=1, radial=law)
    draws = first_entries(spec, 1)
    report = rmtlab.ks_one_sample(draws, rmtlab.cauchy_cdf)
    print(f"  {name:18s} D = {report.statistic:.4f}  p = {report.p_value:.3f}")

# ## The histogram against the exact density
spec = rmtlab.EnsembleSpec(m=1, n=1, radial=rmtlab.TwoShellMixture(1.0, 4.0, 0.5))
draws = first_entries(spec, 2)
hist = rmtlab.histogram(draws, bins=9, value_range=(-3.0, 3.0))
centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])

print("\ntwo-shell mixture parent, density over [-3, 3]:")
print(f"  {'center':>7s} {'empirical':>10s} {'exact':>8s}")
for c, d in zip(centers, hist.densities):
    exact = np.exp(rmtlab.cauchy_logpdf(float(c)))
    print(f"  {c:7.2f} {d:10.4f} {exact:8.4f}")
