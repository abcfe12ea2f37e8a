"""Goodness-of-fit and Monte Carlo summaries.

Every distributional claim in this library is heavy-tailed (Cauchy-type
laws have no mean), so all verification happens on the CDF scale through
Kolmogorov-Smirnov statistics, never through raw moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_SAMPLES = 35  # asymptotic p-value approximation is unreliable below this


class TooFewSamples(ValueError):
    """Sample too small for the requested statistic."""


class BadRange(ValueError):
    """Histogram range is empty or inverted."""


@dataclass(frozen=True)
class KsReport:
    statistic: float
    n: int
    p_value: float
    threshold: float
    passed: bool
    n2: int | None = None


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray


def kolmogorov_pvalue(lam: float) -> float:
    """Two-sided Kolmogorov survival function Q(lam) = 2 sum (-1)^{k-1} e^{-2 k^2 lam^2}."""
    if lam < 0.18:
        return 1.0  # Q is 1 to far beyond double precision here
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = math.exp(-2.0 * (k * lam) ** 2)
        total += sign * term
        if term < 1e-16 * abs(total) or term == 0.0:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def _ks_pvalue(d: float, n_effective: float) -> float:
    sqrt_n = math.sqrt(n_effective)
    return kolmogorov_pvalue((sqrt_n + 0.12 + 0.11 / sqrt_n) * d)


def ks_one_sample(data, cdf, threshold: float = 1e-3) -> KsReport:
    """One-sample Kolmogorov-Smirnov test of data against a model CDF.

    cdf is called once, on the whole sorted sample, and must return one
    value per point (an elementwise numpy expression, for instance).
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    if n < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != (n,):
        raise ValueError(f"cdf must map the {n} sorted points to shape ({n},), got {f.shape}")
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    p = _ks_pvalue(d, n)
    return KsReport(statistic=d, n=n, p_value=p, threshold=threshold, passed=p > threshold)


def ks_two_sample(a, b, threshold: float = 1e-3) -> KsReport:
    """Two-sample Kolmogorov-Smirnov test that a and b share one law."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    n1, n2 = xa.size, xb.size
    if min(n1, n2) < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} samples per side")
    # one stable merge of the two sorted samples: after the last of a run of
    # equal values, the counts so far are each sample's count <= that value,
    # as searchsorted(side="right") counts them; NaN sorts last and equals NaN
    merged = np.concatenate([xa, xb])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    from_a = np.cumsum(order < n1)
    from_b = np.arange(1, n1 + n2 + 1) - from_a
    last = np.ones(n1 + n2, dtype=bool)
    last[:-1] = (merged[1:] != merged[:-1]) & ~np.isnan(merged[:-1])
    d = float(np.max(np.abs(from_a[last] / n1 - from_b[last] / n2)))
    n_eff = n1 * n2 / (n1 + n2)
    p = _ks_pvalue(d, n_eff)
    return KsReport(statistic=d, n=n1, n2=n2, p_value=p, threshold=threshold, passed=p > threshold)


def mc_mean(values) -> McEstimate:
    """Sample mean with its standard error."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise TooFewSamples(f"need at least 2 values, got {v.size}")
    return McEstimate(
        mean=float(v.mean()),
        stderr=float(v.std(ddof=1) / math.sqrt(v.size)),
        n=int(v.size),
    )


def histogram(data, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Bin counts plus densities normalized by the total sample size.

    Densities integrate to the in-range fraction of the sample, so a
    histogram of heavy-tailed data over a finite window reports how much
    mass the window actually captured.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    if not lo < hi:
        raise BadRange(f"empty range [{lo}, {hi}]")
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    v = np.asarray(data, dtype=float)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(v, bins=edges)
    width = (hi - lo) / bins
    densities = counts / (max(v.size, 1) * width)
    return Histogram(edges=edges, counts=counts, densities=densities)
