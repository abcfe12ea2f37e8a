# ## The universal law of Z = B^-1 X
#
# Draw an m x (m+n) matrix A with density f(tr A A^T), split its columns
# into a square block B and the rest X, and form Z = B^-1 X.  The law of Z
# is C * det(1 + Z Z^T)^{-(m+n)/2}: a spherically symmetric matrix variate
# t-distribution, identical for every admissible f.

import numpy as np

import rmtlab

m, n, N = 2, 2, 4000


def log_dets(spec, part, seed, stream):
    """log det(1 + Z Z^T) of N block ratios, pooled by draw_rows on (seed, stream)."""
    return rmtlab.draw_rows(rmtlab.ratio_sampler(spec, part), seed, stream, N, rmtlab.matcore.gram_logdet)[0]


# ## Sample the log det statistic under four dissimilar radial laws
laws = {
    "gaussian": rmtlab.GaussianEntries(),
    "shell": rmtlab.FixedShell(1.0),
    "ball": rmtlab.UniformBall(3.0),
    "two-shell": rmtlab.TwoShellMixture(0.5, 5.0, 0.3),
}

statistics = {}
for stream, (name, law) in enumerate(laws.items()):
    spec = rmtlab.EnsembleSpec(m=m, n=n, radial=law)
    statistics[name] = log_dets(spec, None, 3, stream)

print("pairwise two-sample KS on log det(1 + Z Z^T):\n")
names = list(statistics)
for i, a in enumerate(names):
    for b in names[i + 1:]:
        rep = rmtlab.ks_two_sample(statistics[a], statistics[b])
        print(f"  {a:10s} vs {b:10s}  D = {rep.statistic:.4f}  p = {rep.p_value:.3f}")

# ## The density itself, and its matrix variate t form
Z = np.array([[0.3, -0.1], [0.7, 0.2]])
log_p = rmtlab.log_universal_real(Z)
params = rmtlab.TDistParams.spherical(m, n)
print(f"\nlog P(Z)            = {log_p:.10f}")
print(f"matrix-t at (0,I,I,1) = {rmtlab.log_matrix_t(Z, params):.10f}")

# ## Partition independence: any m columns can play the role of B
spec = rmtlab.EnsembleSpec(m=m, n=n)
for cols in ([1, 2], [4, 2]):
    statistics[str(cols)] = log_dets(spec, rmtlab.PartitionSpec(cols), 4, cols[0])
rep = rmtlab.ks_two_sample(statistics["[1, 2]"], statistics["[4, 2]"])
print(f"\npartition [1,2] vs [4,2]: D = {rep.statistic:.4f}  p = {rep.p_value:.3f}")
