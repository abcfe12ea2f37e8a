"""Reproducible experiment runner.

Experiments are described by a flat JSON config (kind, dimensions, radial
laws, sample count, seed, ...).  Sampling is split into fixed-size blocks of
draws; block b of arm a always consumes the substream keyed by (seed, a, b),
so the pooled sample is bit-identical for a given seed whatever the shard
count in the config.  Eight consecutive blocks are drawn, flagged, solved
and reduced to report rows in one stacked kernel call, which draws exactly
what eight one-block calls would.  Suites that compare radial laws
(universality and complex, one suite for both fields, and girko) pool one
arm per law through _arms; every sampled suite passes each of its KS tests
at significance over their count through _check.  A report keeps its rows
as one 2-D array, one row per draw, with the law label of each row beside
it for suites that pool arms.  Reports are emitted as schema-stable JSON
(byte-identical across reruns of the same config+seed) and as CSV holding
the raw per-draw statistics for external plotting, written column by column
EMIT_ROWS rows at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import densities, ensembles, girko, matcore, stats
from .densities import CauchyParams, TDistParams
from .ensembles import (
    BLOCK,
    EnsembleSpec,
    FixedShell,
    GaussianEntries,
    PartitionSpec,
    RadialLaw,
    RngStream,
    TwoShellMixture,
    UniformBall,
)

KINDS = ("universality", "exactness", "girko", "girko-stable", "identities", "complex")
DENSITY_KINDS = ("universal-real", "universal-complex", "matrix-t", "girko")
# Substream blocks drawn, flagged and solved per stacked kernel call: long
# enough to amortise numpy's per-call overhead, fixed so that a call's memory
# does not grow with samples.  Draws do not depend on it.
RUN_BLOCKS = 8
# CSV rows formatted per write: fixed, so the writer holds one chunk's strings
# whatever the number of draws.  The bytes do not depend on it.
EMIT_ROWS = 4096
# Largest m, n and samples a config may ask for; README gives the reasons.
MAX_DIM = 64
MAX_SAMPLES = 10_000_000
MAX_MN = 20  # largest identities grid; beyond it a Gaussian determinant integral overflows
MAX_SEED = 2**64 - 1  # Philox keys on 64 bits, so a wider seed would alias a narrower one


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""


# ---------------------------------------------------------------------------
# config


def parse_radial(desc) -> RadialLaw:
    """Parse a radial law descriptor.

    Accepted forms: "gaussian", "shell:R", "ball:R", "two-shell:r1,r2,w".
    """
    if isinstance(desc, (GaussianEntries, FixedShell, UniformBall, TwoShellMixture)):
        return desc
    if not isinstance(desc, str):
        raise ConfigError(f"radial: expected a descriptor string, got {desc!r}")
    name, _, arg = desc.partition(":")
    try:
        if name == "gaussian" and not arg:
            return GaussianEntries()
        if name == "shell":
            return FixedShell(float(arg))
        if name == "ball":
            return UniformBall(float(arg))
        if name == "two-shell":
            r1, r2, w = (float(x) for x in arg.split(","))
            return TwoShellMixture(r1, r2, w)
    except (ValueError, ensembles.InvalidLaw) as exc:
        raise ConfigError(f"radial: bad descriptor {desc!r} ({exc})") from exc
    raise ConfigError(f"radial: unknown law {desc!r}")


def radial_label(law: RadialLaw) -> str:
    if isinstance(law, GaussianEntries):
        return "gaussian"
    if isinstance(law, FixedShell):
        return f"shell:{law.r0:g}"
    if isinstance(law, UniformBall):
        return f"ball:{law.R:g}"
    return f"two-shell:{law.r1:g},{law.r2:g},{law.w:g}"


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    m: int = 2
    n: int = 1
    radial: tuple[RadialLaw, ...] = (GaussianEntries(),)
    b_columns: tuple[int, ...] | None = None
    u: tuple[float, ...] = ()
    alpha: int = 2
    scale: float = 0.5
    samples: int = 20000
    shards: int = 1  # validated and echoed in the report; the draws do not depend on it
    out: str | None = None
    format: str = "json"
    significance: float = 1e-3
    max_mn: int = 12

    def echo(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "m": self.m,
            "n": self.n,
            "radial": [radial_label(r) for r in self.radial],
            "b_columns": list(self.b_columns) if self.b_columns else None,
            "u": list(self.u),
            "alpha": self.alpha,
            "scale": self.scale,
            "samples": self.samples,
            "shards": self.shards,
            "significance": self.significance,
            "max_mn": self.max_mn,
        }


def _integer(value) -> int:
    """An integer field's value: bools and numbers with a fraction are refused, never cut."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A real field's value: bools are refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _take(raw: dict, key: str, kind, default=None, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"{key}: required field is missing")
        return default
    try:
        return kind(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _take_list(raw: dict, key: str, item) -> tuple:
    value = raw[key]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    try:
        return tuple(item(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


# The kinds that read each kind-specific field.  Every kind reads kind, seed,
# significance, shards, out and format.
_SAMPLED = tuple(k for k in KINDS if k != "identities")
_READ_BY = {
    "m": _SAMPLED,
    "n": _SAMPLED,
    "samples": _SAMPLED,
    "radial": ("universality", "exactness", "girko", "complex"),  # girko-stable entries are i.i.d. stable
    "b_columns": ("universality", "exactness", "complex"),
    "u": ("girko", "girko-stable"),
    "alpha": ("girko-stable",),
    "scale": ("girko-stable",),
    "max_mn": ("identities",),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a flat config dict; errors name the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object with flat keys")
    unknown = set(raw) - {"kind", "seed", "shards", "out", "format", "significance", *_READ_BY}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
    kind = _take(raw, "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError(f"kind: must be one of {KINDS}, got {kind!r}")
    seed = _take(raw, "seed", _integer, required=(kind != "identities"), default=0)
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(f"seed: must lie in 0..2**64 - 1, got {seed}")
    cfg = ExperimentConfig(kind=kind, seed=seed)
    cfg.m = _take(raw, "m", _integer, cfg.m)
    cfg.n = _take(raw, "n", _integer, cfg.n)
    if not 1 <= cfg.m <= MAX_DIM:
        raise ConfigError(f"m: must lie in 1..{MAX_DIM}, got {cfg.m}")
    if not 0 <= cfg.n <= MAX_DIM:
        raise ConfigError(f"n: must lie in 0..{MAX_DIM}, got {cfg.n}")
    laws = raw.get("radial", ["gaussian"])
    if isinstance(laws, str):
        laws = [laws]
    if not isinstance(laws, (list, tuple)):
        raise ConfigError(f"radial: expected a descriptor string or a list of them, got {laws!r}")
    if not laws:
        raise ConfigError("radial: needs at least one law")
    cfg.radial = tuple(parse_radial(d) for d in laws)
    if raw.get("b_columns") is not None:
        cfg.b_columns = _take_list(raw, "b_columns", _integer)
    if "u" in raw:
        cfg.u = _take_list(raw, "u", _real)
    cfg.alpha = _take(raw, "alpha", _integer, cfg.alpha)
    cfg.scale = _take(raw, "scale", _real, cfg.scale)
    cfg.samples = _take(raw, "samples", _integer, cfg.samples)
    cfg.shards = _take(raw, "shards", _integer, cfg.shards)
    cfg.out = _take(raw, "out", str, cfg.out)
    cfg.format = _take(raw, "format", str, cfg.format)
    cfg.significance = _take(raw, "significance", _real, cfg.significance)
    cfg.max_mn = _take(raw, "max_mn", _integer, cfg.max_mn)
    if cfg.shards < 1:
        raise ConfigError(f"shards: must be >= 1, got {cfg.shards}")
    if kind != "identities" and cfg.samples < stats.MIN_SAMPLES:
        raise ConfigError(f"samples: must be >= {stats.MIN_SAMPLES}, got {cfg.samples}")
    if cfg.samples > MAX_SAMPLES:
        raise ConfigError(f"samples: must be <= {MAX_SAMPLES}, got {cfg.samples}")
    if kind == "identities" and not 1 <= cfg.max_mn <= MAX_MN:
        raise ConfigError(f"max_mn: must lie in 1..{MAX_MN}, got {cfg.max_mn}")
    if cfg.format not in ("json", "csv", "both"):
        raise ConfigError(f"format: must be json, csv or both, got {cfg.format!r}")
    if not 0.0 < cfg.significance < 1.0:
        raise ConfigError(f"significance: must lie in (0,1), got {cfg.significance}")
    if kind in ("girko", "girko-stable") and len(cfg.u) != cfg.n:
        raise ConfigError(f"u: needs {cfg.n} entries to match n, got {len(cfg.u)}")
    if kind == "girko-stable" and cfg.alpha not in (1, 2):
        raise ConfigError(f"alpha: only 1 and 2 are supported, got {cfg.alpha}")
    if kind == "girko-stable" and not (math.isfinite(cfg.scale) and cfg.scale > 0):
        raise ConfigError(f"scale: must be finite and positive, got {cfg.scale}")
    if kind == "exactness" and cfg.n != 1:
        raise ConfigError(f"n: exactness compares components to the Cauchy law and needs n = 1, got {cfg.n}")
    if kind in ("universality", "complex") and len(cfg.radial) < 2 and (kind, cfg.m, cfg.n) != ("complex", 1, 1):
        raise ConfigError(f"radial: {kind} at m = {cfg.m}, n = {cfg.n} needs at least two laws to compare")
    if kind == "exactness" and len(cfg.radial) > 1:
        raise ConfigError(f"radial: exactness samples one law, got {len(cfg.radial)}")
    if kind in ("universality", "complex") and cfg.n < 1:
        raise ConfigError(f"n: {kind} draws m x n block ratios and needs n >= 1, got {cfg.n}")
    if not all(math.isfinite(x) for x in cfg.u):
        raise ConfigError(f"u: entries must be finite, got {list(cfg.u)}")
    if cfg.b_columns is not None:
        try:
            ensembles._partition_indices(cfg.b_columns, cfg.m, cfg.m + cfg.n)
        except ensembles.BadPartition as exc:
            raise ConfigError(f"b_columns: {exc}") from None
    for key in raw:
        if kind not in _READ_BY.get(key, KINDS):
            raise ConfigError(f"{key}: the {kind} suite does not read this field")
    return cfg


# ---------------------------------------------------------------------------
# report


@dataclass
class RunReport:
    config: dict
    entries: list = field(default_factory=list)
    resamples: int = 0
    columns: list = field(default_factory=list)
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # 2-D: a row per draw (identities: per m, n)
    row_labels: list = field(default_factory=list)  # CSV column before rows, one per row; not in payload()
    wall_time_s: float = 0.0  # console only; excluded from emitted files
    arm_resamples: list = field(default_factory=list)  # per arm; console only, like wall_time_s

    @property
    def passed(self) -> bool:
        return all(e.get("passed", False) for e in self.entries)

    @property
    def failing(self) -> list[str]:
        return [e["name"] for e in self.entries if not e.get("passed", False)]

    def payload(self) -> dict:
        return {
            "config": self.config,
            "entries": self.entries,
            "n_entries": len(self.entries),
            "n_failed": len(self.failing),
            "passed": self.passed,
            "resamples": self.resamples,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2, sort_keys=True) + "\n"


def _ks_entry(name: str, report: stats.KsReport) -> dict:
    entry = {
        "kind": "ks2" if report.n2 is not None else "ks1",
        "n": report.n,
        "name": name,
        "p_value": report.p_value,
        "passed": report.passed,
        "statistic": report.statistic,
        "threshold": report.threshold,
    }
    if report.n2 is not None:
        entry["n2"] = report.n2
    return entry


def _residual_entry(name: str, value: float, tolerance: float) -> dict:
    return {
        "kind": "residual",
        "name": name,
        "passed": bool(value < tolerance),
        "tolerance": tolerance,
        "value": value,
    }


# ---------------------------------------------------------------------------
# block sampling


def _pooled_rows(cfg: ExperimentConfig, report: RunReport, arm: int,
                 sampler: ensembles.SystemSampler, row_of) -> np.ndarray:
    """Stack row_of(Z) over cfg.samples solved systems of one arm.

    Block b of this arm always draws its BLOCK systems from the substream
    (seed, arm << 32 | b), so the pooled rows depend on the seed alone.
    RUN_BLOCKS consecutive blocks share one stacked kernel call, and row_of
    maps that call's (k, m, c) solution stack to its k report rows, so only
    the rows, never all solutions, are pooled.  The call's RUN_BLOCKS
    generators are reset to each next call's substreams, not rebuilt.  The
    arm's rejections are added to the report.
    """
    n = cfg.samples
    n_blocks = -(-n // BLOCK)
    rows = []
    rejected = 0
    gens = [None] * RUN_BLOCKS
    for first in range(0, n_blocks, RUN_BLOCKS):
        chunk = range(first, min(first + RUN_BLOCKS, n_blocks))
        gens = [RngStream(cfg.seed, (arm << 32) | b).generator(g) for b, g in zip(chunk, gens)]
        sizes = [min(BLOCK, n - b * BLOCK) for b in chunk]
        Z, rej = ensembles.draw_blocks(sampler, gens, sizes)
        rows.append(row_of(Z))
        rejected += rej
    report.resamples += rejected
    report.arm_resamples.append(rejected)
    return np.concatenate(rows)


def _first_column(Z: np.ndarray) -> np.ndarray:
    return Z[:, :, 0]


def _partition(cfg: ExperimentConfig) -> PartitionSpec:
    return PartitionSpec(cfg.b_columns) if cfg.b_columns else PartitionSpec.leading(cfg.m)


def _arms(cfg: ExperimentConfig, report: RunReport, sampler_of, row_of) -> tuple[list[str], list[np.ndarray]]:
    """Pool one arm per radial law, in law order, and return (labels, arms).

    Arm a draws its systems from sampler_of(cfg.radial[a]) and reduces them
    with row_of, as _pooled_rows does.  The report's rows are the arms in
    order, each row labelled with its arm's law; the arms returned are views
    of them.
    """
    labels = [radial_label(r) for r in cfg.radial]
    report.rows = np.concatenate([_pooled_rows(cfg, report, a, sampler_of(law), row_of)
                                  for a, law in enumerate(cfg.radial)])
    for label in labels:
        report.row_labels += [label] * cfg.samples
    return labels, np.split(report.rows, len(labels))


def _check(cfg: ExperimentConfig, report: RunReport, one: list, two: list) -> None:
    """Run one-sample tests (name, data, cdf), then two-sample tests (name, a, b).

    Bonferroni: each passes at cfg.significance over the number of tests, so a
    suite whose laws all hold fails with probability at most cfg.significance.
    """
    threshold = cfg.significance / (len(one) + len(two))
    for name, data, cdf in one:
        report.entries.append(_ks_entry(name, stats.ks_one_sample(data, cdf, threshold=threshold)))
    for name, a, b in two:
        report.entries.append(_ks_entry(name, stats.ks_two_sample(a, b, threshold=threshold)))


# ---------------------------------------------------------------------------
# suites


def _run_identities(cfg: ExperimentConfig, report: RunReport) -> None:
    report.columns = ["m", "n", "gamma_residual", "norm_consistency", "det_consistency"]
    rows = []
    for m in range(1, cfg.max_mn + 1):
        for n in range(1, cfg.max_mn + 1):
            gamma_res = densities.gamma_identity_residual(m, n)
            consistency = abs(
                math.exp(densities.log_universal_real_norm(m, n))
                * densities.selberg_Z_integral(m, n)
                - 1.0
            )
            # det-power integral times Gaussian determinant integral must
            # reproduce the plain Gaussian normalization pi^{m(m+n)/2}
            det_res = abs(
                math.log(densities.gaussian_detn_integral(m, n))
                + math.log(densities.selberg_Z_integral(m, n))
                - 0.5 * m * (m + n) * densities.LOG_PI
            )
            report.entries.append(
                _residual_entry(f"gamma-identity:m={m},n={n}", gamma_res, 1e-10)
            )
            report.entries.append(
                _residual_entry(f"norm-consistency:m={m},n={n}", consistency, 1e-12)
            )
            report.entries.append(
                _residual_entry(f"det-consistency:m={m},n={n}", det_res, 1e-10)
            )
            rows.append([m, n, gamma_res, consistency, det_res])
    report.rows = np.array(rows, dtype=object)  # object, so m and n print as ints
    for m in range(1, cfg.max_mn + 1):
        v = densities.ortho_volume(m)
        report.entries.append(
            {
                "kind": "positivity",
                "name": f"rotation-volume:m={m}",
                "passed": bool(math.isfinite(v) and v > 0.0),
                "value": v,
            }
        )


def _run_exactness(cfg: ExperimentConfig, report: RunReport) -> None:
    spec = EnsembleSpec(m=cfg.m, n=1, field="real", radial=cfg.radial[0])
    rows = _pooled_rows(cfg, report, 0, ensembles.ratio_sampler(spec, _partition(cfg)), _first_column)
    report.columns = [f"z{i + 1}" for i in range(cfg.m)]
    report.rows = rows
    one = [(f"component-z{i + 1}-vs-cauchy", rows[:, i], densities.cauchy_cdf) for i in range(cfg.m)]
    _check(cfg, report, one, [])


def _run_universality(cfg: ExperimentConfig, report: RunReport) -> None:
    """Gram log-det and first entry of Z across the laws, for real or complex parents.

    For complex parents the entry is |z11|^2, whose CDF at m = n = 1 is s/(1+s).
    """
    is_complex = cfg.kind == "complex"

    def statistics(Z):
        z11 = Z[:, 0, 0]
        return np.column_stack([matcore.gram_logdet(Z), np.abs(z11) ** 2 if is_complex else z11])

    labels, arms = _arms(cfg, report, lambda law: ensembles.ratio_sampler(EnsembleSpec(
        m=cfg.m, n=cfg.n, field="complex" if is_complex else "real", radial=law), _partition(cfg)), statistics)
    report.columns = ["radial", "logdet_gram", "abs_z11_sq" if is_complex else "z11"]
    one = []
    if is_complex and cfg.m == cfg.n == 1:
        one = [(f"modulus-sq-cdf:{label}", rows[:, 1], lambda s: s / (1.0 + s)) for label, rows in zip(labels, arms)]
    pairs = [(i, j) for i in range(len(arms)) for j in range(i + 1, len(arms))]
    tests = ((0, "logdet-gram"), (1, "modulus-sq" if is_complex else "entry-z11"))
    two = [(f"{statname}:{labels[i]}-vs-{labels[j]}", arms[i][:, col], arms[j][:, col])
           for i, j in pairs for col, statname in tests]
    _check(cfg, report, one, two)


def _run_girko(cfg: ExperimentConfig, report: RunReport) -> None:
    beta = girko.beta_euclidean(cfg.u)
    labels, arms = _arms(cfg, report, lambda law: girko.solution_sampler(
        girko.LinearSystemSpec(m=cfg.m, n=cfg.n, u=cfg.u, radial=law)), _first_column)
    report.columns = ["radial"] + [f"z{i + 1}" for i in range(cfg.m)]
    cauchy_beta = CauchyParams(0.0, beta)
    one = []
    for label, rows in zip(labels, arms):
        one.append((f"z1-vs-cauchy-width-{beta:g}:{label}", rows[:, 0],
                    lambda x: densities.cauchy_cdf(x, cauchy_beta)))
        if cfg.m >= 2:
            one.append((f"ratio-z1-z2-vs-cauchy:{label}", rows[:, 0] / rows[:, 1], densities.cauchy_cdf))
    pairs = [(i, j) for i in range(len(arms)) for j in range(i + 1, len(arms))]
    _check(cfg, report, one, [(f"z1:{labels[i]}-vs-{labels[j]}", arms[i][:, 0], arms[j][:, 0]) for i, j in pairs])


def _run_girko_stable(cfg: ExperimentConfig, report: RunReport) -> None:
    law = girko.StableLaw(alpha=cfg.alpha, c=cfg.scale)
    beta = girko.beta_alpha(cfg.u, cfg.alpha)

    rows = _pooled_rows(cfg, report, 0, girko.stable_sampler(cfg.m, cfg.n, cfg.u, law), _first_column)
    report.columns = [f"z{i + 1}" for i in range(cfg.m)]
    report.rows = rows
    if cfg.alpha == 2:
        # closed form available: quadrature must agree with the Cauchy law
        grid = np.linspace(-3.0 * beta, 3.0 * beta, 10)
        worst = max(
            abs(girko.girko_stable_density(float(x), law, beta)
                - math.exp(densities.cauchy_logpdf(float(x), CauchyParams(0.0, beta))))
            for x in grid
        )
        report.entries.append(_residual_entry("quadrature-vs-cauchy-grid", worst, 1e-6))
    cdf = lambda x: girko.girko_stable_cdf(x, law, beta)  # noqa: E731
    _check(cfg, report, [(f"z1-vs-stable-solution-cdf-beta-{beta:g}", rows[:, 0], cdf)], [])


_SUITES = {
    "identities": _run_identities,
    "exactness": _run_exactness,
    "universality": _run_universality,
    "complex": _run_universality,
    "girko": _run_girko,
    "girko-stable": _run_girko_stable,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Execute the configured suite.  Suite errors land in the report."""
    report = RunReport(config=cfg.echo())
    started = time.perf_counter()
    try:
        _SUITES[cfg.kind](cfg, report)
    except Exception as exc:  # propagate into the report, never crash the harness
        report.entries.append(
            {"kind": "error", "name": f"suite-error:{type(exc).__name__}", "passed": False, "detail": str(exc)}
        )
    report.wall_time_s = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# emission


def emit(report: RunReport, fmt: str, out: str) -> list[str]:
    """Write the report; returns the paths written.

    JSON is schema-stable with fixed key order and excludes wall time, so
    identical config+seed reproduces identical bytes.  CSV holds the raw
    per-draw statistics, one row per draw, led by the row's label in suites
    that have them; it is formatted column by column and written EMIT_ROWS
    rows at a time.
    """
    paths = []
    base = out[:-5] if out.endswith(".json") else out
    if fmt in ("json", "both"):
        path = base + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        paths.append(path)
    if fmt in ("csv", "both"):
        path = base + ".csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(report.columns) + "\n")
            for first in range(0, len(report.rows), EMIT_ROWS):
                columns = [map(str, col) for col in report.rows[first:first + EMIT_ROWS].T.tolist()]
                if report.row_labels:
                    columns.insert(0, report.row_labels[first:first + EMIT_ROWS])
                fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# density evaluation


def _parse_point(kind: str, at) -> np.ndarray:
    """The point at as an array of the shape kind takes; errors name at."""
    try:
        arr = np.asarray(at, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"at: expected numbers, got {at!r}") from None
    if kind == "universal-complex":
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ConfigError("at: complex points use [re, im] pairs, e.g. [[[0.1, 0.2]]]")
        return arr[..., 0] + 1j * arr[..., 1]
    most = 1 if kind == "girko" else 2  # a solution vector, else a matrix
    if arr.ndim > most or arr.size == 0:
        raise ConfigError(f"at: {kind} takes a non-empty array of at most {most} dimensions, got shape {arr.shape}")
    return arr


def density_value(kind: str, params: dict, at) -> float:
    """Evaluate one of the closed-form log densities at a point."""
    if not isinstance(params, dict):
        raise ConfigError(f"params: expected a JSON object, got {params!r}")
    if kind == "universal-real":
        return densities.log_universal_real(_parse_point(kind, at))
    if kind == "universal-complex":
        return densities.log_universal_complex(_parse_point(kind, at))
    if kind == "matrix-t":
        Z = np.atleast_2d(_parse_point(kind, at))
        m, n = Z.shape
        p = TDistParams(
            M=np.asarray(params.get("M", np.zeros((m, n))), dtype=float),
            Sigma=np.asarray(params.get("Sigma", np.eye(m)), dtype=float),
            Omega=np.asarray(params.get("Omega", np.eye(n)), dtype=float),
            q=float(params.get("q", 1.0)),
        )
        return densities.log_matrix_t(Z, p)
    if kind == "girko":
        try:
            u = np.asarray(params.get("u", ()), dtype=float)
        except (TypeError, ValueError):
            u = None
        if u is None or u.ndim != 1:
            raise ConfigError(f"params: u must be a list of numbers, got {params.get('u')!r}")
        return girko.girko_logdensity(_parse_point(kind, at), u)
    raise ConfigError(f"kind: must be one of {DENSITY_KINDS}, got {kind!r}")


# ---------------------------------------------------------------------------
# entry point


def _summarize(report: RunReport, stream=None) -> None:
    stream = stream or sys.stdout
    for e in report.entries:
        mark = "pass" if e.get("passed") else "FAIL"
        if e["kind"].startswith("ks"):
            detail = f"D={e['statistic']:.5f} p={e['p_value']:.3e} (threshold {e['threshold']:.1e})"
        elif e["kind"] == "residual":
            detail = f"residual={e['value']:.3e} (tolerance {e['tolerance']:.1e})"
        elif e["kind"] == "error":
            detail = e.get("detail", "")
        else:
            detail = f"value={e.get('value')}"
        print(f"[{mark}] {e['name']}: {detail}", file=stream)
    verdict = "PASS" if report.passed else "FAIL"
    per_arm = f" (per arm: {', '.join(map(str, report.arm_resamples))})" if report.arm_resamples else ""
    print(
        f"{verdict}: {len(report.entries) - len(report.failing)}/{len(report.entries)} checks"
        f" in {report.wall_time_s:.2f} s, {report.resamples} resamples{per_arm}",
        file=stream,
    )


def _execute(raw: dict, args) -> int:
    """Run the config raw with the flags set in args laid over it.

    Prints the verdicts, writes the report when an out path is set and
    returns the exit code: 0 if every check passed, 1 if one failed, 2 for a
    bad config or a report that cannot be written.
    """
    for key in ("seed", "shards", "out", "format"):
        value = getattr(args, key, None)
        if value is not None and isinstance(raw, dict):
            raw[key] = value
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg)
    _summarize(report)
    if cfg.out:
        try:
            for path in emit(report, cfg.format, cfg.out):
                print(f"wrote {path}")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    if not report.passed:
        for name in report.failing:
            print(f"failed: {name}", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    return _execute(raw, args)


def _cmd_identities(args) -> int:
    return _execute({"kind": "identities", "max_mn": args.max}, args)


def _cmd_density(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
        at = json.loads(args.at)
        logp = density_value(args.kind, params, at)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"at": at, "density": math.exp(logp), "kind": args.kind, "log_density": logp},
                     sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rmtlab",
        description="Sample rotationally invariant random-matrix ensembles and "
        "verify the universal laws of B^-1 X and of random linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a JSON config")
    p_run.add_argument("config", help="path to the flat JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--shards", type=int, default=None, help="override the echoed shard count")
    p_run.add_argument("--out", default=None, help="report path stem")
    p_run.add_argument("--format", choices=["json", "csv", "both"], default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_id = sub.add_parser("identities", help="check the exact gamma-product identities")
    p_id.add_argument("--max", type=int, default=12, help="largest m and n in the grid")
    p_id.add_argument("--out", default=None, help="report path stem")
    p_id.add_argument("--format", choices=["json", "csv", "both"], default="json")
    p_id.set_defaults(fn=_cmd_identities)

    p_den = sub.add_parser("density", help="evaluate a closed-form density at a point")
    p_den.add_argument("--kind", required=True, choices=list(DENSITY_KINDS))
    p_den.add_argument("--params", default="", help="inline JSON parameters")
    p_den.add_argument("--at", required=True, help="evaluation point as inline JSON")
    p_den.set_defaults(fn=_cmd_density)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
