# ## The complex case
#
# For complex A with density f(tr A A^dag), the block ratio Z = B^-1 X
# follows C * det(1 + Z Z^dag)^{-(m+n)}: the exponent doubles because each
# complex entry carries two real dimensions.  For m = n = 1 this gives a
# neat scalar law: s = |z|^2 has CDF s / (1 + s).

import numpy as np

import rmtlab

N = 5000

# ## Scalar complex ratio under two radial laws
for stream, law in enumerate([rmtlab.GaussianEntries(), rmtlab.FixedShell(1.5)]):
    spec = rmtlab.EnsembleSpec(m=1, n=1, field="complex", radial=law)
    s, _ = rmtlab.draw_rows(rmtlab.ratio_sampler(spec), 5, stream, N, lambda Z: np.abs(Z[:, 0, 0]) ** 2)
    rep = rmtlab.ks_one_sample(s, lambda t: t / (1.0 + t))
    print(f"{type(law).__name__:15s} |z|^2 vs s/(1+s):  D = {rep.statistic:.4f}  p = {rep.p_value:.3f}")

# ## The normalization constant is an explicit gamma product
print("\nlog normalization constants of the complex law:")
for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
    print(f"  m={m}, n={n}:  log C = {rmtlab.densities.log_universal_complex_norm(m, n):+.10f}")

# ## Density evaluation at a complex point
Z = np.array([[0.2 + 0.1j, -0.3j], [0.5, 0.4 - 0.2j]])
print(f"\nlog P(Z) at a complex 2x2 point: {rmtlab.log_universal_complex(Z):+.10f}")
