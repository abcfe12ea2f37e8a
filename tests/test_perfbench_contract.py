"""The names and call shapes that perfbench/ relies on.

The benchmark imports rmtlab from outside the package: its layer sweep
calls public functions directly and its tracer wraps module attributes by
name.  These tests run both at a tiny size, so a rename or deletion in
src/ that would break ``perfbench/run.py --trace 1`` fails here first.
"""

import importlib
import math
from pathlib import Path

import pytest

import rmtlab
from rmtlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layersweep"), importlib.import_module("tracer"), importlib.import_module("run")


def test_layer_sweep_runs(bench, monkeypatch):
    layersweep, _, _ = bench
    for name, value in (("SHAPES", ((2, 1),)), ("INPUTS_PER_SHAPE", 8), ("KS_POINTS", 64),
                        ("MIN_SECONDS", 0), ("MIN_BATCHES", 1)):
        monkeypatch.setattr(layersweep, name, value)
    metrics = layersweep.sweep(rmtlab, 1)
    assert metrics and all(math.isfinite(value) for value, _ in metrics.values())


def test_tracer_wraps_a_run_and_restores(bench, tmp_path):
    _, tracer, run = bench
    tr = tracer.Tracer(rmtlab)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tr.targets()]
    raw = {"kind": "girko-stable", "m": 2, "n": 1, "u": [0.75], "alpha": 1, "samples": 64,
           "seed": 1, "out": str(tmp_path / "out"), "format": "both"}
    with tr:
        tr.run_id = 0
        cfg = cli.parse_config(raw)
        report = cli.run(cfg)
        cli.emit(report, cfg.format, cfg.out)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
    assert report.passed
    table = tracer.SpanTable(tr.spans(), tr.names)
    assert table.calls("cli.run") == 1 and table.calls("girko.girko_stable_cdf") > 0
    assert table.calls("matcore.solve_flagged") > 0  # the block kernel shows in a traced run
    metrics = run.layer_metrics(table, [cfg.kind], 1.0, 1.0)
    assert all(math.isfinite(value) for value, _ in metrics.values())
