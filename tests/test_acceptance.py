"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with pytest -v via the
test outcome, and on stdout under -s).  Every expected value is either an
exact formula checked elsewhere against an independent oracle, or the
oracle is computed inline (quadrature, Monte Carlo, batched LAPACK).
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from rmtlab import cli
from rmtlab import densities as de
from rmtlab import ensembles as en
from rmtlab import girko, stats

SEED = 20260808


def note(line: str) -> None:
    print(line, flush=True)


def run_config(**raw):
    raw.setdefault("seed", SEED)
    return cli.run(cli.parse_config(raw))


def test_criterion_1_gamma_identity_grid():
    started = time.perf_counter()
    worst = max(
        de.gamma_identity_residual(m, n) for m in range(1, 13) for n in range(1, 13)
    )
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 1.0
    note(f"criterion 1 PASS: gamma identity residual max {worst:.2e} on [1,12]^2 in {elapsed:.3f} s")


def test_criterion_2_normalization_consistency():
    started = time.perf_counter()
    worst = 0.0
    for m in range(1, 13):
        for n in range(1, 13):
            prod = math.exp(de.log_universal_real_norm(m, n)) * de.selberg_Z_integral(m, n)
            worst = max(worst, abs(prod - 1.0))
    assert worst <= 1e-12

    # quadrature side: the det-power integrals are pi and 2 pi, and the
    # normalized density integrates to one
    raw_11, _ = quad(lambda z: (1.0 + z * z) ** -1.0, -np.inf, np.inf)
    assert abs(raw_11 - math.pi) < 1e-6 * math.pi
    raw_21, _ = quad(lambda r: 2 * math.pi * r * (1.0 + r * r) ** -1.5, 0.0, np.inf)
    assert abs(raw_21 - 2 * math.pi) < 1e-6 * 2 * math.pi
    total_11, _ = quad(lambda z: math.exp(de.log_universal_real([[z]])), -np.inf, np.inf)
    assert abs(total_11 - 1.0) < 1e-6
    total_21, _ = quad(
        lambda r: 2 * math.pi * r * math.exp(de.log_universal_real([[r], [0.0]])), 0.0, np.inf
    )
    assert abs(total_21 - 1.0) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    note(
        f"criterion 2 PASS: C*selberg off by {worst:.2e} max; quadrature norms "
        f"{total_11:.8f}, {total_21:.8f} in {elapsed:.3f} s"
    )


def test_criterion_3_gaussian_determinant_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pulls = []
    for m in range(1, 4):
        for n in range(1, 4):
            N = 100_000
            G = rng.standard_normal((N, m, m)) * math.sqrt(0.5)
            vals = np.abs(np.linalg.det(G)) ** n
            est = stats.mc_mean(vals)
            scale = math.pi ** (m * m / 2)
            target = de.gaussian_detn_integral(m, n)
            pull = (scale * est.mean - target) / (scale * est.stderr)
            pulls.append(pull)
            assert abs(scale * est.mean - target) < 3.0 * scale * est.stderr, (m, n, pull)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(
        f"criterion 3 PASS: det moment MC within 3 sigma for m,n<=3 "
        f"(worst pull {max(abs(p) for p in pulls):+.2f}) in {elapsed:.2f} s"
    )


def test_criterion_4_exactness_of_universal_law():
    started = time.perf_counter()
    bonferroni = 1e-3 / 6  # six component tests across m = 1, 2, 3
    p_values = []
    for m in (1, 2, 3):
        report = run_config(kind="exactness", m=m, n=1, samples=20_000)
        assert report.passed, report.failing
        for entry in report.entries:
            p_values.append(entry["p_value"])
            assert entry["p_value"] > bonferroni, entry
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    note(
        f"criterion 4 PASS: {len(p_values)} component KS tests vs Cauchy, "
        f"min p = {min(p_values):.4f} in {elapsed:.2f} s"
    )


def test_criterion_5_universality_across_radial_laws():
    started = time.perf_counter()
    report = run_config(
        kind="universality",
        m=2,
        n=2,
        samples=20_000,
        radial=["gaussian", "shell:1", "ball:3", "two-shell:0.5,5,0.3"],
    )
    assert report.passed, report.failing
    p_values = [e["p_value"] for e in report.entries]
    assert len(p_values) == 12  # 6 law pairs x 2 statistics
    assert min(p_values) > 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    note(
        f"criterion 5 PASS: 12 pairwise two-sample KS tests, min p = {min(p_values):.4f} "
        f"in {elapsed:.2f} s"
    )


def test_criterion_6_complex_case():
    report = run_config(
        kind="complex", m=1, n=1, samples=20_000, radial=["gaussian", "shell:1.5"]
    )
    assert report.passed, report.failing
    one_sample = [e for e in report.entries if e["name"].startswith("modulus-sq-cdf")]
    two_sample = [e for e in report.entries if e["kind"] == "ks2"]
    assert len(one_sample) == 2 and len(two_sample) == 2
    assert all(e["p_value"] > 1e-3 for e in report.entries)
    note(
        "criterion 6 PASS: |z|^2 matches s/(1+s) and complex universality holds "
        f"(min p = {min(e['p_value'] for e in report.entries):.4f})"
    )


def test_criterion_7_girko_extension():
    started = time.perf_counter()
    beta = girko.beta_euclidean([0.75])
    assert abs(beta - 1.25) < 1e-15
    report = run_config(
        kind="girko", m=2, n=1, u=[0.75], samples=20_000, radial=["gaussian", "shell:2"]
    )
    assert report.passed, report.failing
    component = [e for e in report.entries if "z1-vs-cauchy-width-1.25" in e["name"]]
    ratio = [e for e in report.entries if "ratio-z1-z2" in e["name"]]
    assert len(component) == 2 and len(ratio) == 2  # one of each per radial law
    assert all(e["p_value"] > 1e-3 for e in component + ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(
        f"criterion 7 PASS: z1 ~ Cauchy(5/4) and z1/z2 ~ Cauchy(1) for both laws, "
        f"min p = {min(e['p_value'] for e in component + ratio):.4f} in {elapsed:.2f} s"
    )


def test_criterion_8_girko_stable_oracle():
    # alpha = 2: the quadrature of the component density must reproduce the
    # Cauchy law on a 10-point grid
    law2 = girko.StableLaw(alpha=2)
    beta2 = girko.beta_alpha([0.75], 2)
    grid = np.linspace(-3.0, 3.0, 10)
    worst = max(
        abs(
            girko.girko_stable_density(float(z), law2, beta2)
            - math.exp(de.cauchy_logpdf(float(z), de.CauchyParams(0.0, beta2)))
        )
        for z in grid
    )
    assert worst < 1e-6

    # alpha = 1: solutions of systems with i.i.d. Cauchy entries against the
    # quadrature CDF
    report = run_config(kind="girko-stable", m=1, n=0, u=[], alpha=1, samples=20_000)
    assert report.passed, report.failing
    ks = [e for e in report.entries if e["kind"] == "ks1"]
    assert len(ks) == 1 and ks[0]["p_value"] > 1e-3
    note(
        f"criterion 8 PASS: alpha=2 quadrature off Cauchy by {worst:.2e}; "
        f"alpha=1 sample KS p = {ks[0]['p_value']:.4f}"
    )


def test_criterion_9_reproducibility(tmp_path):
    raw = {
        "kind": "exactness",
        "m": 2,
        "n": 1,
        "samples": 5000,
        "seed": SEED,
        "out": None,
        "format": "json",
    }
    first = cli.run(cli.parse_config(dict(raw)))
    second = cli.run(cli.parse_config(dict(raw)))
    cli.emit(first, "json", str(tmp_path / "a"))
    cli.emit(second, "json", str(tmp_path / "b"))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    sharded = cli.run(cli.parse_config(dict(raw, shards=5)))
    assert np.array_equal(sharded.rows, first.rows)
    assert json.dumps(sharded.entries, sort_keys=True) == json.dumps(first.entries, sort_keys=True)
    note("criterion 9 PASS: byte-identical JSON on rerun; shard count changes nothing")
