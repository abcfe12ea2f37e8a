"""Throughput of single layers at the ROADMAP's sampling shapes.

Each layer function is called directly, untraced, on inputs drawn once per
shape from the seed.  Rates are the median over timed batches.  The matcore
operation counts and bytes moved are computed from array sizes (see
tracer.*_cost), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import cholesky_cost, solve_multi_cost

SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (8, 4))
INPUTS_PER_SHAPE = 256
KS_POINTS = 2048
MIN_BATCHES = 3
MIN_SECONDS = 0.15


def _rate(batch, items_per_batch: int) -> float:
    """Median items per second over batches run for at least MIN_SECONDS."""
    rates = []
    started = time.perf_counter()
    while len(rates) < MIN_BATCHES or time.perf_counter() - started < MIN_SECONDS:
        t0 = time.perf_counter()
        batch()
        rates.append(items_per_batch / (time.perf_counter() - t0))
    return statistics.median(rates)


def sweep(rmtlab, seed: int) -> dict[str, tuple[float, str]]:
    """Per-shape layer metrics, keyed like 'ensembles.draws_per_s.m2n2'."""
    en, mc, st, gk, de = rmtlab.ensembles, rmtlab.matcore, rmtlab.stats, rmtlab.girko, rmtlab.densities
    out: dict[str, tuple[float, str]] = {}
    for i, (m, n) in enumerate(SHAPES):
        tag = f"m{m}n{n}"
        spec = en.EnsembleSpec(m=m, n=n)
        part = en.PartitionSpec.leading(m)
        gen = en.RngStream(seed, i).generator()
        blocks = [en.partition(en.sample_matrix(spec, gen), part) for _ in range(INPUTS_PER_SHAPE)]
        zs = [mc.solve_multi(B, X) for B, X in blocks]
        grams = [np.eye(m) + Z @ Z.T for Z in zs]
        z11 = np.array([en.sample_z(spec, part, gen)[0][0, 0] for _ in range(KS_POINTS)])
        law = gk.StableLaw(alpha=1)
        u = [0.75] * n
        beta = gk.beta_alpha(u, 1)
        stable = [float(gk.sample_stable_system(m, n, u, law, gen)[0][0]) for _ in range(64)]

        def draws():
            for _ in range(INPUTS_PER_SHAPE):
                en.sample_z(spec, part, gen)

        def solves():
            for B, X in blocks:
                mc.solve_multi(B, X)

        def logdets():
            for S in grams:
                mc.spd_logdet(S)

        def ks():
            st.ks_one_sample(z11, de.cauchy_cdf, threshold=1e-6)

        def oracle():
            for z in stable:
                gk.girko_stable_cdf(z, law, beta)

        out[f"ensembles.draws_per_s.{tag}"] = (_rate(draws, INPUTS_PER_SHAPE), "1/s")
        out[f"matcore.solve_draws_per_s.{tag}"] = (_rate(solves, INPUTS_PER_SHAPE), "1/s")
        out[f"matcore.logdet_draws_per_s.{tag}"] = (_rate(logdets, INPUTS_PER_SHAPE), "1/s")
        out[f"stats.ks_points_per_s.{tag}"] = (_rate(ks, KS_POINTS), "1/s")
        out[f"girko.oracle_points_per_s.{tag}"] = (_rate(oracle, len(stable)), "1/s")
        solve_flops, solve_bytes = solve_multi_cost(m, n)
        logdet_flops, logdet_bytes = cholesky_cost(m)
        out[f"matcore.solve_flops_computed.{tag}"] = (solve_flops, "flop")
        out[f"matcore.solve_bytes_computed.{tag}"] = (solve_bytes, "B")
        out[f"matcore.logdet_flops_computed.{tag}"] = (logdet_flops, "flop")
        out[f"matcore.logdet_bytes_computed.{tag}"] = (logdet_bytes, "B")
    return out
