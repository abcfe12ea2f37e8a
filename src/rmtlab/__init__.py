"""rmtlab: universal laws of block ratios of rotationally invariant random matrices.

Sample m x (m+n) matrices A whose density depends only on tr A A^T, split
A -> (B, X), and study Z = B^-1 X: its law is a spherically symmetric
matrix variate t-distribution, the same for every radial profile.  The
package provides the samplers, the closed-form densities and constants,
the analogous law for solutions of random linear systems, and a
Kolmogorov-Smirnov / Monte Carlo verification kit with a reproducible
experiment runner.
"""

from .densities import (
    CauchyParams,
    TDistParams,
    cauchy_cdf,
    cauchy_logpdf,
    gamma_identity_residual,
    gaussian_detn_integral,
    log_matrix_t,
    log_mdim_cauchy,
    log_universal_complex,
    log_universal_real,
    ortho_volume,
    selberg_Z_integral,
    sphere_area,
)
from .ensembles import (
    EnsembleSpec,
    FixedShell,
    GaussianEntries,
    PartitionSpec,
    RngStream,
    TwoShellMixture,
    UniformBall,
    draw_block,
    draw_rows,
    partition,
    ratio_sampler,
    sample_matrix,
    sample_radius,
    sample_z,
)
from .girko import (
    LinearSystemSpec,
    StableLaw,
    beta_alpha,
    beta_euclidean,
    girko_logdensity,
    girko_stable_cdf,
    girko_stable_density,
    sample_stable_system,
    solution_sampler,
    stable_sampler,
)
from .matcore import solve_multi, spd_logdet
from .stats import Histogram, KsReport, McEstimate, histogram, ks_one_sample, ks_two_sample, mc_mean

__version__ = "0.1.0"

__all__ = [
    "CauchyParams",
    "EnsembleSpec",
    "FixedShell",
    "GaussianEntries",
    "Histogram",
    "KsReport",
    "LinearSystemSpec",
    "McEstimate",
    "PartitionSpec",
    "RngStream",
    "StableLaw",
    "TDistParams",
    "TwoShellMixture",
    "UniformBall",
    "beta_alpha",
    "beta_euclidean",
    "cauchy_cdf",
    "cauchy_logpdf",
    "draw_block",
    "draw_rows",
    "gamma_identity_residual",
    "gaussian_detn_integral",
    "girko_logdensity",
    "girko_stable_cdf",
    "girko_stable_density",
    "histogram",
    "ks_one_sample",
    "ks_two_sample",
    "log_matrix_t",
    "log_mdim_cauchy",
    "log_universal_complex",
    "log_universal_real",
    "mc_mean",
    "ortho_volume",
    "partition",
    "ratio_sampler",
    "sample_matrix",
    "sample_radius",
    "sample_stable_system",
    "sample_z",
    "selberg_Z_integral",
    "solution_sampler",
    "solve_multi",
    "spd_logdet",
    "sphere_area",
    "stable_sampler",
]
