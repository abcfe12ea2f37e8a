"""Reproducible experiment runner.

Experiments are described by a flat JSON config (kind, dimensions, radial
laws, sample count, seed, ...).  Every sampled suite pools its draws
through _arms, one arm per sampler in order: arm a is ensembles.draw_rows on
stream a, which draws block b of ensembles.block_size(sampler) systems from
the substream keyed by (seed, a << 32 | b), redraws its rejected systems
from that substream and reduces it to report rows, so the pooled sample is
bit-identical for a given seed whatever the shard count in the config.  exactness and girko-stable pool one arm;
the suites that compare radial laws (universality and complex, one suite for
both fields, and girko) pool one arm per law and compare every pair of arms
through _pairs.  Every sampled suite passes each of its KS tests at
significance over their count through _check.  A report keeps its rows as
one 2-D array, one row per draw, with one (law label, row count) run per arm
beside it for suites that compare laws.  Reports are emitted as
schema-stable JSON (byte-identical across reruns of the same config+seed),
whose entries RunReport.to_json writes with json's C encoder, and as CSV
holding the raw per-draw statistics.  floatfmt formats the CSV's float rows,
at most EMIT_VALUES values of one label at a time, into the bytes
str(float) would give.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import densities, ensembles, girko, matcore, stats
from .densities import CauchyParams, TDistParams
from .ensembles import (
    EnsembleSpec,
    FixedShell,
    GaussianEntries,
    PartitionSpec,
    RadialLaw,
    TwoShellMixture,
    UniformBall,
    as_integer,
    as_reals,
)

KINDS = ("universality", "exactness", "girko", "girko-stable", "identities", "complex")
DENSITY_KINDS = ("universal-real", "universal-complex", "matrix-t", "girko")
# Most CSV values formatted per write: fixed, so the writer's temporaries stay
# near a megabyte whatever the number of draws or columns.  The bytes do not
# depend on it.
EMIT_VALUES = 6144
# Largest m, n and samples a config may ask for; README gives the reasons.
MAX_DIM = 64
MAX_WIDTH = 1e300  # largest solution width of girko and girko-stable: the draws' Cauchy tails stay finite
MAX_SAMPLES = 10_000_000
MAX_MN = 20  # largest identities grid; beyond it a Gaussian determinant integral overflows
MAX_SEED = 2**64 - 1  # Philox keys on 64 bits, so a wider seed would alias a narrower one
# json's C encoder runs only without indent, so the entries' indents come in the separators
_ENTRIES = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


class ConfigError(ValueError):
    """Config rejected; the message names the offending field."""


# ---------------------------------------------------------------------------
# config


# Each radial law's descriptor name; a descriptor is the name, then ":" and
# the law's fields in order, comma-separated, each a plain ASCII decimal number
_LAWS = {"gaussian": GaussianEntries, "shell": FixedShell, "ball": UniformBall, "two-shell": TwoShellMixture}
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_radial(desc) -> RadialLaw:
    """Parse a radial law descriptor.

    Accepted forms: "gaussian", "shell:R", "ball:R", "two-shell:r1,r2,w",
    the values plain decimal numbers such as 2, 0.5 or 1e+06.  A bad
    descriptor raises ValueError; parse_config prefixes "radial: ".
    """
    if type(desc) in _LAWS.values():
        return desc
    if not isinstance(desc, str):
        raise ValueError(f"expected a descriptor string, got {desc!r}")
    name, colon, arg = desc.partition(":")
    law = _LAWS.get(name)
    if law is None:
        raise ValueError(f"unknown law {desc!r}")
    try:
        texts = arg.split(",") if colon else []
        if not all(_DECIMAL.fullmatch(x) for x in texts):
            raise ValueError("values must be plain decimal numbers")
        if len(texts) != len(fields(law)):
            raise ValueError(f"{name} takes {len(fields(law))} values")
        return law(*map(float, texts))
    except ValueError as exc:  # InvalidLaw is a ValueError
        raise ValueError(f"bad descriptor {desc!r} ({exc})") from None


def _shortest_g(value: float) -> str:
    """value in %g form with the fewest significant digits, six at least, that read back as value."""
    return next(text for text in (f"{value:.{digits}g}" for digits in range(6, 18)) if float(text) == value)


def radial_label(law: RadialLaw) -> str:
    """The descriptor of law, which parse_radial reads back as law."""
    name = next(name for name, cls in _LAWS.items() if type(law) is cls)
    values = ",".join(_shortest_g(getattr(law, f.name)) for f in fields(law))
    return f"{name}:{values}" if values else name


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    m: int = 2
    n: int = 1
    radial: tuple[RadialLaw, ...] = (GaussianEntries(),)
    b_columns: tuple[int, ...] | None = None
    u: tuple[float, ...] = ()
    alpha: int = 2
    samples: int = 20000
    shards: int = 1  # validated and echoed in the report; the draws do not depend on it
    out: str | None = None
    format: str = "json"
    significance: float = 1e-3
    max_mn: int = 12

    def echo(self) -> dict:
        """The fields that shape the report: those its kind reads, radial laws by label.

        out and format only say where the report goes, so they are left out.
        """
        echo = {name: getattr(self, name) for name, (_, kinds) in _FIELDS.items()
                if self.kind in kinds and name not in ("out", "format")}
        if "radial" in echo:
            echo["radial"] = [radial_label(law) for law in self.radial]
        return echo


# ---------------------------------------------------------------------------
# JSON readers: a table per command gives each key's reader and the kinds that
# read it.  Readers take JSON numbers only, by the rule of ensembles.as_integer
# and ensembles.as_reals, and raise ValueError; the command names the key.


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _real(value) -> float:
    reals = as_reals(value)
    if reals.ndim:
        raise ValueError(f"expected a number, got {value!r}")
    return float(reals)


def _list(read):
    """The reader of a list whose items read reads."""
    def read_list(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(read(item) for item in value)
    return read_list


def _or_null(read):
    """read, with null read as the key's default, None."""
    return lambda value: None if value is None else read(value)


def _laws(value) -> tuple[RadialLaw, ...]:
    if not isinstance(value, (str, list, tuple)):
        raise ValueError(f"expected a descriptor string or a list of them, got {value!r}")
    laws = tuple(map(parse_radial, [value] if isinstance(value, str) else value))
    if not laws:
        raise ValueError("needs at least one law")
    return laws


def _refuse_unknown(raw: dict, table: dict, prefix: str = "") -> None:
    """Refuse a key of raw that table does not hold."""
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"{prefix}{sorted(unknown)[0]}: unknown field")


def _read_keys(raw: dict, table: dict, kind: str, prefix: str = "") -> dict:
    """The keys of raw that kind reads, each through its reader; errors name the key."""
    values = {}
    for key, (read, kinds) in table.items():
        if key in raw and kind in kinds:
            try:
                values[key] = read(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{prefix}{key}: {exc}") from None
    return values


def _refuse_unread(raw: dict, table: dict, kind: str, who: str, prefix: str = "") -> None:
    """Refuse a key of raw that kind does not read, so that no ignored setting passes."""
    for key in raw:
        if kind not in table[key][1]:
            raise ConfigError(f"{prefix}{key}: {who} does not read this field")


_SAMPLED = tuple(k for k in KINDS if k != "identities")
# Every ExperimentConfig field: its reader and the kinds that read it.  A kind
# refuses every other field, and its report echoes the fields it reads
_FIELDS = {
    "kind": (_text, KINDS),
    "seed": (as_integer, KINDS),
    "m": (as_integer, _SAMPLED),
    "n": (as_integer, _SAMPLED),
    "radial": (_laws, ("universality", "exactness", "girko", "complex")),  # girko-stable entries are i.i.d. stable
    "b_columns": (_or_null(_list(as_integer)), ("universality", "exactness", "complex")),
    "u": (_list(_real), ("girko", "girko-stable")),
    "alpha": (as_integer, ("girko-stable",)),
    "samples": (as_integer, _SAMPLED),
    "shards": (as_integer, KINDS),
    "out": (_or_null(_text), KINDS),
    "format": (_text, KINDS),
    "significance": (_real, KINDS),
    "max_mn": (as_integer, ("identities",)),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a flat config dict; errors name the offending field."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object with flat keys")
    _refuse_unknown(raw, _FIELDS)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"kind: must be one of {KINDS}, got {kind!r}")
    if kind != "identities" and "seed" not in raw:
        raise ConfigError("seed: required field is missing")
    cfg = ExperimentConfig(**_read_keys(raw, _FIELDS, kind))
    if not 0 <= cfg.seed <= MAX_SEED:
        raise ConfigError(f"seed: must lie in 0..2**64 - 1, got {cfg.seed}")
    if not 1 <= cfg.m <= MAX_DIM:
        raise ConfigError(f"m: must lie in 1..{MAX_DIM}, got {cfg.m}")
    if not 0 <= cfg.n <= MAX_DIM:
        raise ConfigError(f"n: must lie in 0..{MAX_DIM}, got {cfg.n}")
    if cfg.shards < 1:
        raise ConfigError(f"shards: must be >= 1, got {cfg.shards}")
    if not stats.MIN_SAMPLES <= cfg.samples <= MAX_SAMPLES:
        raise ConfigError(f"samples: must lie in {stats.MIN_SAMPLES}..{MAX_SAMPLES}, got {cfg.samples}")
    if not 1 <= cfg.max_mn <= MAX_MN:
        raise ConfigError(f"max_mn: must lie in 1..{MAX_MN}, got {cfg.max_mn}")
    if cfg.format not in ("json", "csv", "both"):
        raise ConfigError(f"format: must be json, csv or both, got {cfg.format!r}")
    if not 0.0 < cfg.significance < 1.0:
        raise ConfigError(f"significance: must lie in (0,1), got {cfg.significance}")
    if kind in ("girko", "girko-stable") and len(cfg.u) != cfg.n:
        raise ConfigError(f"u: needs {cfg.n} entries to match n, got {len(cfg.u)}")
    if cfg.alpha not in (1, 2):
        raise ConfigError(f"alpha: only 1 and 2 are supported, got {cfg.alpha}")
    if kind in ("girko", "girko-stable"):
        width = girko.beta_euclidean(cfg.u) if kind == "girko" else girko.beta_alpha(cfg.u, cfg.alpha)
        if not width <= MAX_WIDTH:
            raise ConfigError(f"u: the solution width {width:g} passes {MAX_WIDTH:g}")
    if kind == "exactness" and cfg.n != 1:
        raise ConfigError(f"n: exactness compares components to the Cauchy law and needs n = 1, got {cfg.n}")
    if kind in ("universality", "complex") and len(cfg.radial) < 2 and (kind, cfg.m, cfg.n) != ("complex", 1, 1):
        raise ConfigError(f"radial: {kind} at m = {cfg.m}, n = {cfg.n} needs at least two laws to compare")
    if kind == "exactness" and len(cfg.radial) > 1:
        raise ConfigError(f"radial: exactness samples one law, got {len(cfg.radial)}")
    if kind in ("universality", "complex") and cfg.n < 1:
        raise ConfigError(f"n: {kind} draws m x n block ratios and needs n >= 1, got {cfg.n}")
    if cfg.b_columns is not None:
        try:
            ensembles._partition_indices(cfg.b_columns, cfg.m, cfg.m + cfg.n)
        except ensembles.BadPartition as exc:
            raise ConfigError(f"b_columns: {exc}") from None
    _refuse_unread(raw, _FIELDS, kind, f"the {kind} suite")
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
    label_runs: list = field(default_factory=list)  # (label, count) per arm: the CSV's first column; not in payload()
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
        """json.dumps(self.payload(), indent=2, sort_keys=True) + "\n", the entries C-encoded.

        Entries are flat dicts of JSON scalars and JSON escapes newlines in
        strings, so _ENTRIES writes "},\n      {" only between two entries.
        """
        head = json.dumps(dict(self.payload(), entries=[]), indent=2, sort_keys=True)
        entries = _ENTRIES.encode(self.entries)
        if self.entries:
            inner = entries[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            entries = "[\n    {\n      " + inner + "\n    }\n  ]"
        return head.replace('\n  "entries": [],', '\n  "entries": ' + entries + ",", 1) + "\n"


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
# pooled arms


def _first_column(Z: np.ndarray) -> np.ndarray:
    return Z[:, :, 0]


def _partition(cfg: ExperimentConfig) -> PartitionSpec:
    return PartitionSpec(cfg.b_columns) if cfg.b_columns else PartitionSpec.leading(cfg.m)


def _arms(cfg: ExperimentConfig, report: RunReport, samplers: list, row_of) -> list[np.ndarray]:
    """Pool cfg.samples rows from each sampler, one arm each, and return the arms.

    Arm a draws its systems through ensembles.draw_rows on stream a and
    reduces them with row_of; its rejections are added to the report.  The
    report's rows are the arms in order; the arms returned are views of them.
    """
    arms = []
    for a, sampler in enumerate(samplers):
        rows, rejected = ensembles.draw_rows(sampler, cfg.seed, a, cfg.samples, row_of)
        arms.append(rows)
        report.resamples += rejected
        report.arm_resamples.append(rejected)
    report.rows = np.concatenate(arms)
    return np.split(report.rows, len(arms))


def _pairs(labels: list[str], arms: list[np.ndarray], tests: list) -> list:
    """Two-sample tests (name, a, b) of column col of every pair of arms, for each (col, name) in tests."""
    return [(f"{name}:{labels[i]}-vs-{labels[j]}", arms[i][:, col], arms[j][:, col])
            for i in range(len(arms)) for j in range(i + 1, len(arms)) for col, name in tests]


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
    [rows] = _arms(cfg, report, [ensembles.ratio_sampler(spec, _partition(cfg))], _first_column)
    report.columns = [f"z{i + 1}" for i in range(cfg.m)]
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

    field = "complex" if is_complex else "real"
    samplers = [ensembles.ratio_sampler(EnsembleSpec(m=cfg.m, n=cfg.n, field=field, radial=law), _partition(cfg))
                for law in cfg.radial]
    arms = _arms(cfg, report, samplers, statistics)
    labels = [radial_label(law) for law in cfg.radial]
    report.label_runs = [(label, cfg.samples) for label in labels]
    report.columns = ["radial", "logdet_gram", "abs_z11_sq" if is_complex else "z11"]
    one = []
    if is_complex and cfg.m == cfg.n == 1:
        one = [(f"modulus-sq-cdf:{label}", rows[:, 1], lambda s: s / (1.0 + s)) for label, rows in zip(labels, arms)]
    two = _pairs(labels, arms, [(0, "logdet-gram"), (1, "modulus-sq" if is_complex else "entry-z11")])
    _check(cfg, report, one, two)


def _run_girko(cfg: ExperimentConfig, report: RunReport) -> None:
    beta = girko.beta_euclidean(cfg.u)
    samplers = [girko.solution_sampler(girko.LinearSystemSpec(m=cfg.m, n=cfg.n, u=cfg.u, radial=law))
                for law in cfg.radial]
    arms = _arms(cfg, report, samplers, _first_column)
    labels = [radial_label(law) for law in cfg.radial]
    report.label_runs = [(label, cfg.samples) for label in labels]
    report.columns = ["radial"] + [f"z{i + 1}" for i in range(cfg.m)]
    cauchy_beta = CauchyParams(0.0, beta)
    one = []
    for label, rows in zip(labels, arms):
        one.append((f"z1-vs-cauchy-width-{beta:g}:{label}", rows[:, 0],
                    lambda x: densities.cauchy_cdf(x, cauchy_beta)))
        if cfg.m >= 2:
            one.append((f"ratio-z1-z2-vs-cauchy:{label}", rows[:, 0] / rows[:, 1], densities.cauchy_cdf))
    _check(cfg, report, one, _pairs(labels, arms, [(0, "z1")]))


def _run_girko_stable(cfg: ExperimentConfig, report: RunReport) -> None:
    law = girko.StableLaw(alpha=cfg.alpha)
    beta = girko.beta_alpha(cfg.u, cfg.alpha)
    [rows] = _arms(cfg, report, [girko.stable_sampler(cfg.m, cfg.n, cfg.u, law)], _first_column)
    report.columns = [f"z{i + 1}" for i in range(cfg.m)]
    if cfg.alpha == 2:
        # quadrature must agree with the Cauchy law; both are f(x / beta) / beta, so compare f
        grid = np.linspace(-3.0 * beta, 3.0 * beta, 10)
        worst = beta * max(
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


def _csv_rows(block: np.ndarray, label: str | None) -> bytes:
    """CSV lines of block's rows, each led by label when one is given."""
    prefix = "" if label is None else label + ","
    if block.dtype == object:  # identities: m and n print as integers
        return "".join(prefix + ",".join(map(str, row)) + "\n" for row in block.tolist()).encode()
    from . import floatfmt  # on the first CSV, so that importing the runner compiles no printer

    return floatfmt.format_rows(block, prefix)


def emit(report: RunReport, fmt: str, out: str) -> list[str]:
    """Write the report; returns the paths written.

    out is a path stem; a trailing .json or .csv is dropped from it.  JSON is
    schema-stable with fixed key order and excludes wall time, so identical
    config+seed reproduces identical bytes.  CSV holds the raw per-draw
    statistics, one row per draw, led by the row's label in suites that have
    them; each call formats rows of one label, at most EMIT_VALUES values.
    """
    paths = []
    base = out.rsplit(".", 1)[0] if out.endswith((".json", ".csv")) else out
    if fmt in ("json", "both"):
        path = base + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        paths.append(path)
    if fmt in ("csv", "both"):
        path = base + ".csv"
        runs = report.label_runs or [(None, len(report.rows))]
        step = max(1, EMIT_VALUES // max(1, report.rows.shape[1]))
        with open(path, "wb") as fh:
            fh.write((",".join(report.columns) + "\n").encode())
            first = 0
            for label, count in runs:
                for start in range(first, first + count, step):
                    fh.write(_csv_rows(report.rows[start:min(start + step, first + count)], label))
                first += count
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# density evaluation


# Every density parameter: its reader and the kinds that read it
_PARAMS = {
    "M": (as_reals, ("matrix-t",)),
    "Sigma": (as_reals, ("matrix-t",)),
    "Omega": (as_reals, ("matrix-t",)),
    "q": (_real, ("matrix-t",)),
    "u": (_list(_real), ("girko",)),
}


def density_value(kind: str, params: dict, at) -> float:
    """Evaluate one of the closed-form log densities at a point; errors name the parameter or at."""
    if not isinstance(params, dict):
        raise ConfigError(f"params: expected a JSON object, got {params!r}")
    _refuse_unknown(params, _PARAMS, "params: ")
    if kind not in DENSITY_KINDS:
        raise ConfigError(f"kind: must be one of {DENSITY_KINDS}, got {kind!r}")
    given = _read_keys(params, _PARAMS, kind, "params: ")
    _refuse_unread(params, _PARAMS, kind, f"the {kind} density", "params: ")
    try:
        Z = as_reals(at)
    except ValueError as exc:
        raise ConfigError(f"at: {exc}") from None
    if kind == "universal-complex":
        if Z.ndim != 3 or Z.shape[2] != 2:
            raise ConfigError("at: complex points use [re, im] pairs, e.g. [[[0.1, 0.2]]]")
        return densities.log_universal_complex(Z[..., 0] + 1j * Z[..., 1])
    most = 1 if kind == "girko" else 2  # a solution vector, else a matrix
    if Z.ndim > most or Z.size == 0:
        raise ConfigError(f"at: {kind} takes a non-empty array of at most {most} dimensions, got shape {Z.shape}")
    if kind == "universal-real":
        return densities.log_universal_real(Z)
    if kind == "girko":
        return girko.girko_logdensity(Z, given.get("u", ()))
    Z = np.atleast_2d(Z)
    m, n = Z.shape
    try:
        t_params = TDistParams(M=given.get("M", np.zeros((m, n))), Sigma=given.get("Sigma", np.eye(m)),
                               Omega=given.get("Omega", np.eye(n)), q=given.get("q", 1.0))
        return densities.log_matrix_t(Z, t_params)
    except ValueError as exc:  # TDistParams and log_matrix_t name the parameter
        raise ConfigError(f"params: {exc}") from None


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
    for key in ("seed", "out", "format"):
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
        given = {}
        for name, text in (("params", args.params or "{}"), ("at", args.at)):
            try:
                given[name] = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        logp = density_value(args.kind, given["params"], given["at"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        density = math.exp(logp)
    except OverflowError:  # a finite log density past the largest float
        density = math.inf
    print(json.dumps({"at": given["at"], "density": density, "kind": args.kind, "log_density": logp}, sort_keys=True))
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
