"""Tests for the experiment runner, report emission, and command line."""

import dataclasses
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmtlab
from rmtlab import cli
from rmtlab.ensembles import FixedShell, GaussianEntries, TwoShellMixture, UniformBall


def small_config(**overrides):
    raw = {"kind": "exactness", "m": 2, "n": 1, "samples": 2000, "seed": 11}
    raw.update(overrides)
    return raw


def per_row_csv(report) -> bytes:
    """The CSV as a per-row loop writes it: a label first where the suite has them."""
    rows = report.rows.tolist()
    labels = [label for label, count in report.label_runs for _ in range(count)]
    if labels:
        assert len(labels) == len(rows)
        rows = [[label, *r] for label, r in zip(labels, rows)]
    return "".join(",".join(str(v) for v in row) + "\n" for row in [report.columns, *rows]).encode()


def emitted_csv(report, tmp_path) -> bytes:
    return Path(cli.emit(report, "csv", str(tmp_path / "report"))[0]).read_bytes()


# a small valid config of every kind; labelled kinds pool two arms of 2100
# draws, so their tables hold more values than one CSV chunk
EVERY_KIND = {
    "exactness": {"kind": "exactness", "m": 3, "n": 1, "samples": 300, "seed": 5},
    "universality": {"kind": "universality", "m": 2, "n": 2, "samples": 2100, "seed": 5,
                     "radial": ["gaussian", "shell:1"]},
    "complex": {"kind": "complex", "m": 1, "n": 1, "samples": 2100, "seed": 5, "radial": ["gaussian", "ball:2"]},
    "girko": {"kind": "girko", "m": 2, "n": 1, "u": [0.75], "samples": 2100, "seed": 5,
              "radial": ["gaussian", "shell:2"]},
    "girko-stable": {"kind": "girko-stable", "m": 2, "n": 1, "u": [0.75], "alpha": 1, "samples": 300, "seed": 5},
    "identities": {"kind": "identities", "max_mn": 3},
}


# sha256 of the JSON and the CSV each EVERY_KIND config writes.  Any change to
# the draws, the formatting or the schema moves them; a deliberate one updates
# them here and says so in CHANGES.md.  Z and the Gram statistic come from
# matcore's written-out elimination and LDL^H, with no BLAS or LAPACK call, so
# a different LAPACK build does not move them; a different numpy or libm (its
# log1p, say) may still move last bits, and these digests.
REPORT_DIGESTS = {
    "exactness": ("c4655e2b0a7117366a88dc0296f4219c0a5643cb3fd138036423a8544c77b782",
                  "153dde49105685870d9f147f178b8930864e57ce8e1ba7c38ed349bbaa70bebc"),
    "universality": ("365564db2a967968f566864441e035357e1e68878a8037b71bfe0da3334ff602",
                     "8755f116563b973c51b191699eb7a1c9decb1a2e426110975a490d3a4152dffb"),
    "complex": ("53e6d8a98482fc29b0a7355180753ab530002f30f2e1f9b354bc38fc8f6b35d0",
                "1fb566c7827a3386088e823992a74a7c8302e790cc861d197459825eff6c1bd6"),
    "girko": ("f4610f83c8d439bff3777964b0f1d6ebe5ea2882be382137fd4187782825f74c",
              "3a92fb4f3eb85670612a56280b40144aa31b279611b6f793b8ca8044ccbf39c6"),
    "girko-stable": ("f9fbbcf703c8e0be5034411c6ee24962ccd44a43d5f47f7b519d2c2f0a2713cc",
                     "6bb6d3c74cf5d4132c93c06af27c87909a238531cb0d709eb29f6cdb603a1dfb"),
    "identities": ("c51ea9b2de1becd560d5ecc72493ab0514f1d9fe33b6aba7ee4883f118dfb6fe",
                   "894012837b4b2871ed9229714d5d04ae59c11321edb735eff2106ac8f8c8955e"),
}


# sha256 of the JSON and the CSV of the alpha = 2 girko-stable report, whose
# quadrature-vs-cauchy-grid residual is beta times the density residual
ALPHA2_RAW = dict(EVERY_KIND["girko-stable"], alpha=2)
ALPHA2_DIGESTS = ("a968ca4c03e97ee0c19b1fa6f2815865601a0e521513e1d80cf89c7787663b56",
                  "6c6ed58487625940e7310d61f4e81c32b72281f61a9460bc9d4cb04ea98cd576")


# sha256 of the JSON and the CSV of the identities report on the largest grid,
# which holds every gamma-product constant the runner checks
IDENTITIES_20_DIGESTS = ("13bbcb7db8bac43aabc8a3dfc760c805e65271f4f572517f0afa121d9e2d40a3",
                         "44bf85041f777e5ae337f5429b03f7ac6017eb31f7386aa0b2ef409beda90d93")


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
radial_laws = st.one_of(
    st.just(GaussianEntries()),
    st.builds(FixedShell, positive),
    st.builds(UniformBall, positive),
    st.builds(TwoShellMixture, positive, positive, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(law=radial_laws)
def test_radial_label_reads_back_as_the_law(law):
    assert cli.parse_radial(cli.radial_label(law)) == law


def fresh_python(code: str, *args: str) -> str:
    """stdout of code run with args in a new interpreter that imports rmtlab from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout


class TestImportCost:
    def test_import_and_parse_load_no_scipy(self):
        # scipy costs most of the start-up time; only adaptive quadrature needs it.
        # numpy.random loads on first use too, unless an annotation is evaluated at import
        code = ("import json, sys\n"
                "from rmtlab import cli\n"
                "for raw in json.loads(sys.argv[1]):\n"
                "    cli.parse_config(raw)\n"
                "print(json.dumps([sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'),"
                " 'numpy.random' in sys.modules]))\n")
        assert json.loads(fresh_python(code, json.dumps(list(EVERY_KIND.values())))) == [[], False]

    def test_alpha2_quadrature_loads_scipy_on_first_use(self):
        code = ("import json, sys\n"
                "from rmtlab import cli\n"
                "report = cli.run(cli.parse_config(json.loads(sys.argv[1])))\n"
                "print(json.dumps([report.passed, [e['name'] for e in report.entries],"
                " 'scipy.integrate' in sys.modules]))\n")
        passed, names, loaded = json.loads(fresh_python(code, json.dumps(ALPHA2_RAW)))
        assert passed and "quadrature-vs-cauchy-grid" in names and loaded


def test_exports_are_sorted_unique_and_resolve():
    names = rmtlab.__all__
    assert names == sorted(set(names))
    assert all(hasattr(rmtlab, name) for name in names)


class TestConfigParsing:
    def test_roundtrip(self):
        cfg = cli.parse_config(small_config())
        assert cfg.kind == "exactness" and cfg.samples == 2000 and cfg.seed == 11

    def test_missing_seed_named(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.parse_config({"kind": "exactness", "m": 2, "n": 1, "samples": 2000})

    def test_identities_needs_no_seed(self):
        cfg = cli.parse_config({"kind": "identities", "max_mn": 3})
        assert cfg.kind == "identities"

    def test_unknown_kind_named(self):
        with pytest.raises(cli.ConfigError, match="kind"):
            cli.parse_config(small_config(kind="mystery"))

    def test_unknown_field_named(self):
        # no kind reads a scale: the solution law does not depend on the entries' common scale
        for key in ("bogus", "scale"):
            with pytest.raises(cli.ConfigError, match=f"^{key}: unknown field$"):
                cli.parse_config(small_config(**{key: 0.5}))

    def test_samples_shards_floor(self):
        # shards no longer split the draws, so only the KS floor applies
        assert cli.parse_config(small_config(samples=100, shards=4)).samples == 100
        with pytest.raises(cli.ConfigError, match="^samples:"):
            cli.parse_config(small_config(samples=34))

    def test_radial_descriptors(self):
        cfg = cli.parse_config(
            small_config(kind="universality", n=2,
                         radial=["gaussian", "shell:2.5", "ball:1", "two-shell:1,3,0.25"])
        )
        assert cfg.radial == (
            GaussianEntries(),
            FixedShell(2.5),
            UniformBall(1.0),
            TwoShellMixture(1.0, 3.0, 0.25),
        )

    def test_bad_radial_named(self):
        with pytest.raises(cli.ConfigError, match="radial"):
            cli.parse_config(small_config(radial="donut:1"))

    @pytest.mark.parametrize("desc", ["shell:1_0", "shell: 2 ", "ball:\u0663", "gaussian:"])
    def test_radial_values_are_plain_decimals(self, desc):
        # float() reads each of these, but none is written as a plain decimal number
        with pytest.raises(cli.ConfigError, match="^radial: "):
            cli.parse_config(small_config(kind="universality", radial=[desc, "gaussian"]))

    def test_radial_echo_keeps_every_digit(self):
        raw = small_config(kind="universality", samples=35, radial=["shell:1", "shell:1.0000001", "ball:1234567.5"])
        report = cli.run(cli.parse_config(raw))
        assert report.config["radial"] == ["shell:1", "shell:1.0000001", "ball:1234567.5"]
        assert "logdet-gram:shell:1-vs-shell:1.0000001" in [e["name"] for e in report.entries]
        # labels that %g already wrote exactly keep their bytes
        for label in ("shell:1e+06", "two-shell:0.5,5,0.3", "ball:4.94066e-324", "gaussian"):
            assert cli.radial_label(cli.parse_radial(label)) == label

    def test_girko_u_length_checked(self):
        with pytest.raises(cli.ConfigError, match="u"):
            cli.parse_config(small_config(kind="girko", n=2, u=[1.0]))

    @pytest.mark.parametrize(
        ("overrides", "field"),
        [
            ({"b_columns": "xy"}, "b_columns"),
            ({"b_columns": [1, 1]}, "b_columns"),
            ({"b_columns": [1, 1.5]}, "b_columns"),
            ({"u": ["a"]}, "u"),
            ({"kind": "universality", "n": 0, "radial": ["gaussian", "shell:1"]}, "n"),
            ({"kind": "complex", "n": 0, "radial": ["gaussian", "shell:1"]}, "n"),
            ({"kind": "girko-stable", "alpha": 1, "u": [0.75], "scale": 0.5}, "scale"),
            ({"significance": float("nan")}, "significance"),
            ({"kind": "identities", "max_mn": 0}, "max_mn"),
            ({"kind": "identities", "max_mn": -3}, "max_mn"),
            ({"radial": []}, "radial"),
            ({"radial": 5}, "radial"),
            ({"m": 65}, "m"),
            ({"kind": "universality", "n": 65, "radial": ["gaussian", "shell:1"]}, "n"),
            ({"samples": 10**7 + 1}, "samples"),
            ({"kind": "identities", "max_mn": 21}, "max_mn"),
            # a suite that would check nothing, or ignore some of its laws
            ({"kind": "complex", "radial": ["gaussian"]}, "radial"),
            ({"radial": ["gaussian", "shell:1"]}, "radial"),
            ({"kind": "girko-stable", "alpha": 1, "u": [0.75], "radial": ["gaussian"]}, "radial"),
            # a field the kind never reads, which the report would echo
            ({"kind": "identities", "max_mn": 2}, "m"),
            ({"max_mn": 500}, "max_mn"),
            ({"u": [1, 2]}, "u"),
            ({"alpha": 7}, "alpha"),
            ({"scale": 2.0}, "scale"),
            ({"kind": "girko", "u": [0.5], "radial": ["gaussian", "shell:1"], "b_columns": [1, 2]}, "b_columns"),
            ({"kind": "girko", "u": [0.5], "radial": ["gaussian", "shell:1"], "alpha": 2}, "alpha"),
            ({"kind": "universality", "radial": ["gaussian", "shell:1"], "u": [0.5]}, "u"),
            ({"kind": "girko-stable", "u": [0.5], "b_columns": [1, 2]}, "b_columns"),
            # integer fields are never truncated, and booleans are not numbers
            ({"kind": "girko-stable", "alpha": 1.9, "u": [0.75]}, "alpha"),
            ({"m": 2.7}, "m"),
            ({"seed": 1.5}, "seed"),
            ({"m": True}, "m"),
            ({"samples": 2000.5}, "samples"),
            ({"shards": 2.5}, "shards"),
            ({"kind": "identities", "max_mn": 3.5}, "max_mn"),
            ({"b_columns": [True, 2]}, "b_columns"),
            ({"kind": "girko", "u": [True], "radial": ["gaussian", "shell:1"]}, "u"),
            # a seed outside Philox's 64-bit key would alias one inside it
            ({"seed": 2**64}, "seed"),
            ({"seed": -1}, "seed"),
            # a radius law needs finite radii; an infinite one was redrawn forever or ignored
            ({"kind": "universality", "radial": ["shell:inf", "gaussian"]}, "radial"),
            ({"kind": "universality", "radial": ["ball:inf", "gaussian"]}, "radial"),
            ({"kind": "universality", "radial": ["two-shell:1,inf,0.5", "gaussian"]}, "radial"),
            # a field takes JSON numbers and strings as such, never a quoted number or a number as a path
            ({"out": 5}, "out"),
            ({"m": "2"}, "m"),
            ({"seed": "7"}, "seed"),
            ({"samples": "100"}, "samples"),
            ({"kind": "girko", "u": ["0.75"], "radial": ["gaussian", "shell:1"]}, "u"),
            ({"significance": "0.01"}, "significance"),
            # an integer past the largest float is not a finite real
            ({"kind": "girko-stable", "alpha": 1, "u": [10**400]}, "u"),
            # every read field's type is checked before any field's bound
            ({"seed": -1, "m": "x"}, "m"),
        ],
    )
    def test_bad_input_fails_at_parse_time(self, tmp_path, capsys, overrides, field):
        raw = small_config(**overrides)
        with pytest.raises(cli.ConfigError, match=f"^{field}:"):
            cli.parse_config(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["run", str(cfg_path)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_upper_bounds_accepted(self):
        assert cli.parse_config(small_config(m=64, samples=10**7)).samples == 10**7
        cfg = cli.parse_config(small_config(kind="universality", n=64, radial=["gaussian", "shell:1"]))
        assert cfg.n == 64
        assert cli.parse_config({"kind": "identities", "max_mn": 20}).max_mn == 20

    def test_integral_numbers_and_the_seed_range_accepted(self):
        cfg = cli.parse_config(small_config(m=3.0, seed=2**64 - 1))
        assert (cfg.m, cfg.seed) == (3, 2**64 - 1) and type(cfg.m) is int
        assert cli.parse_config(small_config(seed=0)).seed == 0

    def test_complex_scalar_takes_one_law(self):
        # at m = n = 1 each arm is tested against the exact |z|^2 law
        cfg = cli.parse_config(small_config(kind="complex", m=1, radial=["gaussian"]))
        assert cfg.radial == (GaussianEntries(),)

    def test_shipped_configs_parse(self):
        # the benchmark workloads and the README example stay inside the bounds
        root = Path(__file__).resolve().parent.parent
        workloads = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]
        raws = [dict(raw, seed=1) for w in workloads.values() for raw in w["configs"]]
        readme = (root / "README.md").read_text()
        raws += [json.loads(block.split("```")[0]) for block in readme.split("```json\n")[1:]]
        assert len(raws) > 11
        for raw in raws:
            cli.parse_config(raw)

    def test_b_columns_accepted(self):
        cfg = cli.parse_config(small_config(b_columns=[3, 1]))
        assert cfg.b_columns == (3, 1)
        assert cli.parse_config(small_config(b_columns=None)).b_columns is None

    @pytest.mark.parametrize("kind", list(EVERY_KIND))
    def test_shared_fields_valid_for_every_kind(self, kind):
        raw = dict(EVERY_KIND[kind], seed=3, significance=1e-4, shards=2, out="x", format="both")
        assert cli.parse_config(raw).echo()["shards"] == 2

    def test_key_table_matches_the_config(self):
        names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
        assert list(cli._FIELDS) == names
        for kind, raw in EVERY_KIND.items():
            read = {name for name, (_, kinds) in cli._FIELDS.items() if kind in kinds}
            assert sorted(cli.parse_config(raw).echo()) == sorted(read - {"out", "format"})
        assert sorted(cli.parse_config(EVERY_KIND["identities"]).echo()) == [
            "kind", "max_mn", "seed", "shards", "significance"]

    def test_identities_refuses_sampling_fields(self):
        for key, value in [("samples", 7), ("n", 1), ("radial", ["gaussian", "shell:1"])]:
            with pytest.raises(cli.ConfigError, match=f"^{key}: the identities suite does not read"):
                cli.parse_config({"kind": "identities", "max_mn": 2, key: value})

    def test_exactness_needs_n1(self):
        with pytest.raises(cli.ConfigError, match="n"):
            cli.parse_config(small_config(n=2))


class TestSuites:
    def test_identities_all_pass(self):
        cfg = cli.parse_config({"kind": "identities", "max_mn": 12})
        report = cli.run(cfg)
        assert report.passed
        assert all(e["value"] < 1e-10 for e in report.entries if e["name"].startswith("gamma-identity"))

    def test_exactness_small(self):
        report = cli.run(cli.parse_config(small_config()))
        assert report.passed
        assert len(report.rows) == 2000
        assert [e["name"] for e in report.entries] == [
            "component-z1-vs-cauchy",
            "component-z2-vs-cauchy",
        ]

    def test_universality_small(self):
        cfg = cli.parse_config(
            small_config(kind="universality", n=2, radial=["gaussian", "shell:1"])
        )
        report = cli.run(cfg)
        assert report.passed
        assert len(report.entries) == 2  # one pair, two statistics

    def test_complex_small(self):
        cfg = cli.parse_config(
            small_config(kind="complex", m=1, radial=["gaussian", "shell:1"])
        )
        report = cli.run(cfg)
        assert report.passed
        names = [e["name"] for e in report.entries]
        assert any(name.startswith("modulus-sq-cdf") for name in names)

    def test_girko_small(self):
        cfg = cli.parse_config(small_config(kind="girko", u=[0.75], radial=["gaussian", "shell:2"]))
        report = cli.run(cfg)
        assert report.passed
        names = [e["name"] for e in report.entries]
        assert any("ratio" in name for name in names)
        assert any("z1-vs-cauchy-width-1.25" in name for name in names)

    def test_girko_stable_alpha2(self):
        cfg = cli.parse_config(small_config(kind="girko-stable", u=[0.75], alpha=2))
        report = cli.run(cfg)
        assert report.passed

    @pytest.mark.parametrize(
        ("overrides", "n_ks"),
        [
            ({"m": 3}, 3),
            ({"kind": "universality", "n": 2, "radial": ["gaussian", "shell:1", "ball:3"]}, 6),
            ({"kind": "complex", "m": 1, "radial": ["gaussian", "shell:1"]}, 4),
            ({"kind": "complex", "radial": ["gaussian", "shell:1"]}, 2),
            ({"kind": "girko", "m": 1, "u": [0.75], "radial": ["gaussian", "shell:2"]}, 3),
            ({"kind": "girko", "u": [0.75], "radial": ["gaussian", "shell:2"]}, 5),
            ({"kind": "girko-stable", "u": [0.75], "alpha": 1}, 1),
            ({"kind": "girko-stable", "u": [0.75], "alpha": 2}, 1),
        ],
    )
    def test_one_bonferroni_rule(self, overrides, n_ks):
        # every KS entry passes at significance over the number of KS entries;
        # residual entries do not count
        report = cli.run(cli.parse_config(small_config(samples=100, significance=0.01, **overrides)))
        ks = [e for e in report.entries if e["kind"] in ("ks1", "ks2")]
        assert len(ks) == n_ks
        assert all(e["threshold"] == 0.01 / n_ks for e in ks)
        residuals = [e for e in report.entries if e["kind"] == "residual"]
        assert len(residuals) == (overrides.get("alpha") == 2)
        assert len(report.entries) == n_ks + len(residuals)

    @pytest.mark.parametrize("radius", ["1.7e308", "1e-320"])
    @pytest.mark.parametrize("overrides", [
        {"kind": "universality", "m": 8, "n": 4},
        {"kind": "complex", "m": 2, "n": 2},
        {"kind": "girko", "m": 3, "n": 2, "u": [0.5, -1.0]},
        {"kind": "exactness", "m": 3},
    ])
    def test_any_radius_passes(self, overrides, radius):
        # near 1.7e308 the true draws overflow the elimination, and near 1e-320
        # their entries are subnormal; the samplers draw them scaled to the mantissa
        radial = [f"shell:{radius}"] if overrides["kind"] == "exactness" else ["gaussian", f"shell:{radius}"]
        report = cli.run(cli.parse_config(small_config(seed=3, samples=600, radial=radial, **overrides)))
        assert report.passed, [e for e in report.entries if not e["passed"]]
        assert report.resamples == 0 and np.isfinite(report.rows[:, -1].astype(float)).all()

    def test_suite_error_lands_in_report(self):
        cfg = cli.parse_config(small_config())
        cfg.radial = ()  # break it after validation
        report = cli.run(cfg)
        assert not report.passed
        assert any(e["kind"] == "error" for e in report.entries)


class TestReproducibility:
    def test_same_config_same_json(self):
        a = cli.run(cli.parse_config(small_config())).to_json()
        b = cli.run(cli.parse_config(small_config())).to_json()
        assert a == b

    def test_shard_count_changes_nothing(self):
        a = cli.run(cli.parse_config(small_config(shards=1)))
        b = cli.run(cli.parse_config(small_config(shards=8)))
        assert np.array_equal(a.rows, b.rows)
        a_entries = json.dumps(a.entries, sort_keys=True)
        b_entries = json.dumps(b.entries, sort_keys=True)
        assert a_entries == b_entries

    def test_different_seed_differs(self):
        a = cli.run(cli.parse_config(small_config(seed=1)))
        b = cli.run(cli.parse_config(small_config(seed=2)))
        assert not np.array_equal(a.rows, b.rows)

    def test_thread_cap_changes_nothing(self, monkeypatch):
        # shards is echoed but starts no worker threads: a run that cannot
        # start a thread gives the rows of a single-shard run
        a = cli.run(cli.parse_config(small_config(shards=1)))

        def no_threads(self):
            raise AssertionError("the runner started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        b = cli.run(cli.parse_config(small_config(shards=4)))
        assert b.passed and b.config["shards"] == 4
        assert np.array_equal(a.rows, b.rows)


class TestEmission:
    def test_json_and_csv(self, tmp_path):
        report = cli.run(cli.parse_config(small_config()))
        out = tmp_path / "report"
        paths = cli.emit(report, "both", str(out))
        assert [p.endswith(".json") for p in paths] == [True, False]
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["passed"] is True
        assert "wall_time" not in json.dumps(payload)
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "z1,z2"
        assert len(csv_lines) == 1 + 2000  # header + one row per draw

    def test_empty_report_valid_json(self, tmp_path):
        report = cli.RunReport(config={"kind": "none"})
        cli.emit(report, "json", str(tmp_path / "empty"))
        payload = json.loads((tmp_path / "empty.json").read_text())
        assert payload["entries"] == [] and payload["n_entries"] == 0

    @pytest.mark.parametrize("kind", list(EVERY_KIND))
    def test_to_json_is_indented_json(self, kind):
        report = cli.run(cli.parse_config(EVERY_KIND[kind]))
        assert report.to_json() == json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("n_entries", [0, 1, 3])
    def test_to_json_of_special_values_and_text(self, n_entries):
        # the text between two encoded entries, inside a string, with a quote,
        # a backslash, a newline and characters beyond ASCII around it
        detail = 'a "quote" \\ a backslash\n },\n      {\n    },\n    { \u00e9\u221e\U0001d53c'
        entries = [
            {"kind": "residual", "name": "nan", "passed": False, "tolerance": math.inf, "value": math.nan},
            {"kind": "residual", "name": "inf", "passed": True, "tolerance": 1e-6, "value": -math.inf},
            {"kind": "error", "name": "suite-error:ValueError", "passed": False, "detail": detail},
        ][:n_entries]
        report = cli.RunReport(config={"kind": "girko", "u": [], "radial": ["gaussian"]}, entries=entries)
        text = report.to_json()
        assert text == json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"
        assert [e["name"] for e in json.loads(text)["entries"]] == [e["name"] for e in entries]

    def test_rejections_per_arm_on_console_only(self, monkeypatch):
        # at ratio 0.3 every arm rejects draws; the counts reach the console
        # and leave the JSON as it was
        raw = small_config(kind="universality", n=2, samples=200, radial=["gaussian", "shell:1", "ball:3"])
        report = cli.run(cli.parse_config(raw))
        payload = report.to_json()
        assert report.arm_resamples == [0, 0, 0]
        report.arm_resamples = [4, 5, 6]
        assert report.to_json() == payload
        monkeypatch.setattr(cli.matcore, "NEAR_SINGULAR_RATIO", 0.3)
        report = cli.run(cli.parse_config(raw))
        assert len(report.arm_resamples) == 3 and min(report.arm_resamples) > 0
        assert sum(report.arm_resamples) == report.resamples
        assert "arm_resamples" not in report.to_json()
        out = io.StringIO()
        cli._summarize(report, out)
        per_arm = ", ".join(map(str, report.arm_resamples))
        assert f"{report.resamples} resamples (per arm: {per_arm})" in out.getvalue()

    @pytest.mark.parametrize("kind", [k for k in EVERY_KIND if k != "identities"])
    def test_every_sampled_kind_counts_rejections_per_arm(self, monkeypatch, kind):
        # the single-arm suites pool through the same path as the labelled
        # ones; a 1 x 1 B is never flagged, so m is at least 2
        monkeypatch.setattr(cli.matcore, "NEAR_SINGULAR_RATIO", 0.3)
        raw = dict(EVERY_KIND[kind], samples=300, m=max(2, EVERY_KIND[kind]["m"]))
        report = cli.run(cli.parse_config(raw))
        assert len(report.arm_resamples) == len(raw.get("radial", ["gaussian"]))
        assert report.resamples == sum(report.arm_resamples) > 0 and report.passed

    @pytest.mark.parametrize("kind", list(EVERY_KIND))
    def test_csv_matches_per_row_writer(self, tmp_path, kind):
        report = cli.run(cli.parse_config(EVERY_KIND[kind]))
        assert report.passed
        assert (report.rows.size > cli.EMIT_VALUES) == (kind in ("universality", "complex", "girko"))
        assert emitted_csv(report, tmp_path) == per_row_csv(report)

    def test_identities_dimensions_print_as_integers(self, tmp_path):
        report = cli.run(cli.parse_config({"kind": "identities", "max_mn": 1}))
        assert emitted_csv(report, tmp_path).decode().splitlines()[1].startswith("1,1,")

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_csv_across_the_chunk_edge(self, tmp_path, extra):
        rows = np.random.default_rng(extra + 2).standard_cauchy((cli.EMIT_VALUES // 3 + extra, 3))
        report = cli.RunReport(config={}, columns=["a", "b", "c"], rows=rows)
        csv = emitted_csv(report, tmp_path)
        assert csv == per_row_csv(report) and csv.count(b"\n") == 1 + len(rows)

    def test_labelled_csv_with_arm_boundary_inside_a_chunk(self, tmp_path):
        first, second = cli.EMIT_VALUES // 4 + 1, cli.EMIT_VALUES // 2
        rows = np.random.default_rng(9).standard_normal((first + second, 2))
        report = cli.RunReport(config={}, columns=["radial", "x", "y"], rows=rows,
                               label_runs=[("gaussian", first), ("shell:1", second)])
        csv = emitted_csv(report, tmp_path)
        assert csv == per_row_csv(report)
        lines = csv.decode().splitlines()
        assert lines[first].startswith("gaussian,") and lines[first + 1].startswith("shell:1,")

    def test_csv_of_special_values(self, tmp_path):
        rows = np.array([[-0.0, 1e-05, 1e16], [np.inf, -np.inf, np.nan], [0.1, 1.0, -2.5e-300],
                         [5e-324, -1e-323, 2.2250738585072014e-308], [2.225073858507201e-308, 0.0, -4e-320]])
        report = cli.RunReport(config={}, columns=["a", "b", "c"], rows=rows)
        csv = emitted_csv(report, tmp_path)
        assert csv == per_row_csv(report)
        assert csv.splitlines()[1:3] == [b"-0.0,1e-05,1e+16", b"inf,-inf,nan"]
        assert csv.splitlines()[4] == b"5e-324,-1e-323,2.2250738585072014e-308"

    @pytest.mark.parametrize("kind", list(EVERY_KIND))
    def test_report_bytes_pinned(self, tmp_path, kind):
        paths = cli.emit(cli.run(cli.parse_config(EVERY_KIND[kind])), "both", str(tmp_path / kind))
        assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths) == REPORT_DIGESTS[kind]

    def test_alpha2_report_bytes_pinned(self, tmp_path):
        paths = cli.emit(cli.run(cli.parse_config(ALPHA2_RAW)), "both", str(tmp_path / "alpha2"))
        assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths) == ALPHA2_DIGESTS

    def test_identities_largest_grid_bytes_pinned(self, tmp_path):
        cfg = cli.parse_config({"kind": "identities", "max_mn": 20})
        paths = cli.emit(cli.run(cfg), "both", str(tmp_path / "identities20"))
        assert tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths) == IDENTITIES_20_DIGESTS

    @pytest.mark.parametrize("suffix", ["", ".json", ".csv"])
    def test_out_suffix_is_dropped(self, tmp_path, suffix):
        report = cli.RunReport(config={}, columns=["a"], rows=np.ones((2, 1)))
        assert cli.emit(report, "both", str(tmp_path / "x") + suffix) == [str(tmp_path / "x.json"),
                                                                          str(tmp_path / "x.csv")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.json"]

    def test_byte_identical_files(self, tmp_path):
        cfg_dict = small_config()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        cli.emit(cli.run(cli.parse_config(cfg_dict)), "json", str(p1))
        cli.emit(cli.run(cli.parse_config(cfg_dict)), "json", str(p2))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCommandLine:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        code = cli.main(["run", str(cfg_path), "--out", str(tmp_path / "rep"), "--format", "both"])
        assert code == 0
        assert (tmp_path / "rep.json").exists() and (tmp_path / "rep.csv").exists()
        assert "PASS" in capsys.readouterr().out

    def test_run_null_out_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(small_config(samples=100, out=None)))
        assert cli.main(["run", "cfg.json"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"] and "wrote" not in capsys.readouterr().out

    def test_readme_density_examples_run(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        commands = [shlex.split(line, comments=True) for line in readme.splitlines() if line.startswith("rmtlab density ")]
        assert len(commands) == 4
        for argv in commands:
            assert cli.main(argv[1:]) == 0, argv
            assert math.isfinite(json.loads(capsys.readouterr().out)["log_density"])

    def test_run_flag_overrides_seed(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config()))
        code = cli.main(["run", str(cfg_path), "--seed", "999", "--out", str(tmp_path / "rep")])
        assert code == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["config"]["seed"] == 999

    def test_run_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "exactness"}))
        code = cli.main(["run", str(cfg_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_identities_command(self, capsys):
        code = cli.main(["identities", "--max", "6"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_identities_empty_grid_exit_two(self, capsys):
        assert cli.main(["identities", "--max", "0"]) == 2
        assert "config error: max_mn:" in capsys.readouterr().err

    def test_identities_grid_past_float_range_exit_two(self, capsys):
        # beyond m, n = 20 the Gaussian determinant integral overflows a float
        assert cli.main(["identities", "--max", "21"]) == 2
        assert "config error: max_mn:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "identities"])
    def test_unwritable_report_exit_two(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(samples=100)))
        argv = ["run", str(cfg_path)] if command == "run" else ["identities", "--max", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
        assert "error: cannot write report" in capsys.readouterr().err

    def test_non_object_config_with_flags_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert cli.main(["run", str(cfg_path), "--seed", "3"]) == 2
        assert "config error: config:" in capsys.readouterr().err

    def test_density_command(self, capsys):
        code = cli.main(["density", "--kind", "universal-real", "--at", "[[0.0]]"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["density"] - 1 / math.pi) < 1e-12

    def test_density_at_huge_entries(self, capsys):
        code = cli.main(["density", "--kind", "universal-real", "--at", "[[1e200],[0]]"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["log_density"]) and payload["density"] == 0.0

    @pytest.mark.parametrize(("params", "at", "want"), [
        ({"u": [1e200]}, [0.5], -math.log(math.pi) - 200 * math.log(10.0)),
        ({"u": [0.75]}, [1e200, 1e200],
         math.log(1.25 / (2 * math.pi)) - 1.5 * (math.log(2.0) + 400 * math.log(10.0))),
    ])
    def test_density_girko_at_huge_values(self, capsys, params, at, want):
        assert cli.main(["density", "--kind", "girko", "--params", json.dumps(params), "--at", json.dumps(at)]) == 0
        assert abs(json.loads(capsys.readouterr().out)["log_density"] - want) <= 1e-12 * abs(want)

    def test_density_matrix_t_at_huge_entries(self, capsys):
        densities = []
        for kind in ("matrix-t", "universal-real"):
            assert cli.main(["density", "--kind", kind, "--at", "[[1e200]]"]) == 0
            densities.append(json.loads(capsys.readouterr().out)["log_density"])
        assert math.isfinite(densities[0]) and abs(densities[0] - densities[1]) <= 1e-12 * abs(densities[1])

    def test_density_past_the_largest_float(self, capsys):
        params = {"Sigma": (1e-300 * np.eye(3)).tolist()}
        assert cli.main(["density", "--kind", "matrix-t", "--params", json.dumps(params), "--at", "[[0],[0],[0]]"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["log_density"]) and payload["density"] == math.inf

    def test_density_matrix_t_past_the_largest_whitened_value(self, capsys):
        # Y = K / sqrt(Sigma) = 1e350 passes the largest float; at m = n = 1,
        # q = 1 the law is log p = -log(pi) - log(Sigma)/2 - log(1 + K^2 / Sigma)
        params = {"Sigma": [[1e-300]]}
        assert cli.main(["density", "--kind", "matrix-t", "--params", json.dumps(params), "--at", "[[1e200]]"]) == 0
        got = json.loads(capsys.readouterr().out)["log_density"]
        log_y2 = 2 * math.log(1e200) - math.log(1e-300)
        want = -math.log(math.pi) - 0.5 * math.log(1e-300) - (log_y2 + math.log1p(math.exp(-log_y2)))
        assert math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want)

    def test_density_matrix_t_indefinite_sigma_exit_two(self, capsys):
        params = {"Sigma": [[1.0, 2.0], [2.0, 1.0]]}
        assert cli.main(["density", "--kind", "matrix-t", "--params", json.dumps(params), "--at", "[[1e200],[0]]"]) == 2
        assert capsys.readouterr().err.startswith("error: params: Sigma: ")

    def test_density_matrix_t(self, capsys):
        code = cli.main([
            "density", "--kind", "matrix-t",
            "--params", json.dumps({"Sigma": [[1.0]], "Omega": [[1.0]], "q": 1.0}),
            "--at", "[[1.0]]",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["log_density"] - math.log(1 / (2 * math.pi))) < 1e-12

    def test_density_girko(self, capsys):
        code = cli.main(["density", "--kind", "girko", "--params", '{"u": [0.75]}', "--at", "[0.0, 0.0]"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        want = math.log(1.0 / (2 * math.pi)) - 2 * math.log(1.25)
        assert abs(payload["log_density"] - want) < 1e-12

    def test_density_complex(self, capsys):
        code = cli.main(["density", "--kind", "universal-complex", "--at", "[[[0.0, 0.0]]]"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["density"] - 1 / math.pi) < 1e-12

    @pytest.mark.parametrize(
        ("argv", "field"),
        [
            (["--kind", "girko", "--params", "[1]", "--at", "[1]"], "params"),
            (["--kind", "girko", "--at", "[[1,2],[3,4]]"], "at"),
            (["--kind", "girko", "--params", '{"u": [[1]]}', "--at", "[1, 2]"], "params"),
            (["--kind", "universal-real", "--at", "[[[1]]]"], "at"),
            (["--kind", "matrix-t", "--at", "[]"], "at"),
            (["--kind", "universal-real", "--at", '[1, "x"]'], "at"),
            (["--kind", "matrix-t", "--params", '{"q": "x"}', "--at", "[[1]]"], "params: q"),
            (["--kind", "matrix-t", "--params", '{"Sigma": [[-1]]}', "--at", "[[1]]"], "params: Sigma"),
            (["--kind", "universal-real", "--at", "[[1, null]]"], "at"),
            (["--kind", "girko", "--params", '{"u": [true]}', "--at", "[0.5]"], "params: u"),
            (["--kind", "girko", "--params", '{"u": ["0.5"]}', "--at", "[0.5]"], "params: u"),
            (["--kind", "universal-real", "--at", "[true, false]"], "at"),
            (["--kind", "universal-real", "--at", '[["0.5"]]'], "at"),
            (["--kind", "matrix-t", "--params", '{"q": "2"}', "--at", "[[1]]"], "params: q"),
            (["--kind", "matrix-t", "--params", '{"Sigma": [[true]]}', "--at", "[[1]]"], "params: Sigma"),
            (["--kind", "universal-real", "--params", '{"bogus": 1}', "--at", "[[1]]"], "params: bogus"),
            (["--kind", "universal-real", "--params", '{"u": [0.5]}', "--at", "[[1]]"], "params: u"),
            (["--kind", "universal-real", "--params", "{", "--at", "[[1]]"], "params"),
            (["--kind", "universal-real", "--at", "[[1]"], "at"),
            (["--kind", "universal-real", "--at", "[[1" + "0" * 400 + "]]"], "at"),
            # the params are read before the point
            (["--kind", "matrix-t", "--params", '{"q": "x"}', "--at", "[[null]]"], "params: q"),
        ],
    )
    def test_density_bad_input_exit_two(self, capsys, argv, field):
        assert cli.main(["density", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_failing_run_exit_one(self, tmp_path, capsys):
        # an absurd pass threshold flips a true-null KS verdict to fail
        cfg = small_config(m=1, significance=0.9999)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["run", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed: component-z1-vs-cauchy" in err
