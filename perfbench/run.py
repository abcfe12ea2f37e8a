"""rmtlab benchmark: time to verdict on the runner's own suites.

Usage, from the repository root:

    python3 perfbench/run.py --workload sampling-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run does what a user does: parse the workload's configs (workloads.json),
then call ``cli.run`` and ``cli.emit`` (JSON and CSV) for each.  One pass
over all configs is one verdict.  With ``--trace 0`` the run makes one
untimed warm-up verdict, then repeats verdicts for ``--seconds`` and
reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced verdict from the same
seed, checks that both wrote identical bytes, and reports the per-layer
metrics from the trace plus a sweep of single layers (layersweep.py).
Every suite must pass; on wide-sharded, shards=1 must reproduce the
shards=2 rows and entries.  Any failure exits non-zero.  The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layersweep import sweep
from tracer import SpanTable, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # timed setup probes per run, after one untimed warm-up
SIGNIFICANCE = 1e-6  # see significance_note in workloads.json
# one cli.run_s.<kind> metric each; fixed here so the per_layer list in
# BENCHMARK.json does not follow changes to the runner
KINDS = ("exactness", "universality", "complex", "girko", "girko-stable", "identities")


class BenchFailure(Exception):
    """The benchmark could not run; no result is printed."""


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def make_configs(name: str, workload: dict, seed: int) -> list[dict]:
    outdir = OUT / name
    return [
        dict(base, seed=seed * 1000 + k, significance=SIGNIFICANCE, out=str(outdir / str(k)), format="both")
        for k, base in enumerate(workload["configs"])
    ]


def import_rmtlab():
    """Import rmtlab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import rmtlab
    import rmtlab.cli  # noqa: F401

    if Path(rmtlab.__file__).resolve().parent != (SRC / "rmtlab").resolve():
        raise BenchFailure(f"imported rmtlab from {rmtlab.__file__}, not from {SRC}")
    return rmtlab


def measure_setup(raws: list[dict], outdir: Path) -> list[float]:
    """Seconds from process start until rmtlab is imported and all configs parsed."""
    configs = outdir / "configs.json"
    configs.write_text(json.dumps(raws), encoding="utf-8")
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(configs)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchFailure("setup probe did not exit") from None
        if proc.returncode != 0 or not line.startswith("ready "):
            raise BenchFailure(f"setup probe failed: {err.strip()}")
        if Path(line.split(" ", 1)[1].strip()).resolve().parent != (SRC / "rmtlab").resolve():
            raise BenchFailure(f"setup probe imported {line.strip()}")
        if i:
            times.append(t1 - t0)
    return times


def verdict(cli, cfgs, tracer=None) -> tuple[float, int]:
    """Run and emit every config once; returns (seconds, pooled draws)."""
    draws = 0
    t0 = time.perf_counter()
    for k, cfg in enumerate(cfgs):
        if tracer is not None:
            tracer.run_id = k
        report = cli.run(cfg)
        cli.emit(report, cfg.format, cfg.out)
        if cfg.kind != "identities":
            draws += len(report.rows)
    return time.perf_counter() - t0, draws


class Checks:
    """Tallies report entries and collects every failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def reports(self, cfgs) -> list[str]:
        """Check the reports the last verdict wrote; returns their digests."""
        digests = []
        for cfg in cfgs:
            payload, csv = read_report(cfg.out)
            self.attempted += payload["n_entries"]
            self.failed += payload["n_failed"]
            if not payload["passed"]:
                failing = [e["name"] for e in payload["entries"] if not e.get("passed", False)]
                self.problems.append(f"{cfg.kind} seed {cfg.seed}: failed {failing}")
            digests.append(hashlib.sha256(json.dumps(payload, sort_keys=True).encode() + csv).hexdigest())
        return digests

    def same(self, what: str, a, b) -> None:
        if a != b:
            self.problems.append(what)


def read_report(out: str) -> tuple[dict, bytes]:
    with open(out + ".json", "rb") as fh:
        raw = fh.read()
    with open(out + ".csv", "rb") as fh:
        csv = fh.read()
    return json.loads(raw), csv


def shard_check(cli, raws: list[dict], checks: Checks) -> None:
    """shards=1 must reproduce the rows and entries the timed shards=2 runs wrote."""
    for raw in raws:
        sharded, sharded_csv = read_report(raw["out"])
        single_out = raw["out"] + "-shards1"
        cfg = cli.parse_config(dict(raw, shards=1, out=single_out))
        cli.emit(cli.run(cfg), cfg.format, cfg.out)
        single, single_csv = read_report(single_out)
        checks.attempted += single["n_entries"]
        checks.failed += single["n_failed"]
        checks.same(f"{raw['kind']}: shards=1 entries differ from shards={raw['shards']}",
                    single["entries"], sharded["entries"])
        checks.same(f"{raw['kind']}: shards=1 rows differ from shards={raw['shards']}", single_csv, sharded_csv)


def end_to_end(name: str, workload: dict, raws: list[dict], seconds: float, checks: Checks) -> dict:
    outdir = OUT / name
    setup = measure_setup(raws, outdir)
    cli = import_rmtlab().cli
    cfgs = [cli.parse_config(raw) for raw in raws]
    # untimed warm-up verdict: fills lazy caches and gives the reference bytes
    _, draws = verdict(cli, cfgs)
    reference = checks.reports(cfgs)
    times: list[float] = []
    started = time.perf_counter()
    while True:
        seconds_taken, _ = verdict(cli, cfgs)
        times.append(seconds_taken)
        checks.same("a repeated verdict from the same seed wrote different bytes", checks.reports(cfgs), reference)
        if time.perf_counter() - started + statistics.fmean(times) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload["shard_check"]:
        shard_check(cli, raws, checks)
    # The mean, not the median: the host's speed moves between states that
    # last tens of seconds, longer than a verdict, and the mean weighs each
    # state by the time the run spent in it where the median picks one.
    verdict_s = statistics.fmean(times)
    print(f"# verdicts: {len(times)}, seconds each: {[round(t, 3) for t in times]}")
    print(f"# setup probes, seconds: {[round(t, 3) for t in setup]}")
    print(f"# failed_check_ratio: {checks.failed / max(checks.attempted, 1)} "
          f"({checks.failed} of {checks.attempted} entries)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (verdict_s, "s"),
        "draws_per_s": (draws / verdict_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(name: str, workload: dict, raws: list[dict], seed: int, checks: Checks) -> dict:
    rmtlab = import_rmtlab()
    cli = rmtlab.cli
    cfgs = [cli.parse_config(raw) for raw in raws]
    untraced_s, _ = verdict(cli, cfgs)
    untraced_digests = checks.reports(cfgs)
    tracer = Tracer(rmtlab)
    with tracer:
        traced_cfgs = []
        for k, raw in enumerate(raws):
            tracer.run_id = k
            traced_cfgs.append(cli.parse_config(raw))
        traced_s, _ = verdict(cli, traced_cfgs, tracer)
    checks.same("traced same-seed rerun wrote different report bytes", checks.reports(cfgs), untraced_digests)
    if workload["shard_check"]:
        shard_check(cli, raws, checks)
    tracer.write(str(OUT / name / "trace.npz"))
    table = SpanTable(tracer.spans(), tracer.names)
    metrics = layer_metrics(table, [cfg.kind for cfg in cfgs], traced_s, untraced_s)
    metrics.update(sweep(rmtlab, seed))
    return metrics


def layer_metrics(t, kinds: list[str], traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of one traced verdict; kinds[k] is the kind of run id k."""

    def ratio(part, whole):
        return part / whole if whole > 0 else 0.0

    z_rejects = t.total_count("ensembles.sample_z")
    rejected = z_rejects + t.total_count("girko.sample_solution")
    attempts = t.calls("ensembles.sample_z") + z_rejects + t.calls("ensembles.sample_system")
    draws = attempts - rejected
    ens = t.layer_mask("ensembles")
    mat = t.layer_mask("matcore")
    matcore_s = t.outer_time(mat)
    flops = float(t.count[mat].sum())
    systems = t.mask("girko.sample_solution", "girko.sample_stable_system")
    oracles = t.mask("girko.girko_stable_cdf", "girko.girko_stable_density")
    oracle_s = t.outer_time(oracles)
    ks = t.mask("stats.ks_one_sample", "stats.ks_two_sample")
    dens = t.layer_mask("densities")
    runs = t.mask("cli.run")
    cli_self_s = t.self_s(runs)
    sampling_s = t.self_s(ens) + t.self_s(mat) + cli_self_s
    # self times summed over all spans: wall time covered by spans, added up
    # over threads, so shard pool workers waiting on each other count twice
    busy_s = float(t.self_time.sum())
    out = {
        "ensembles.draws": (draws, "count"),
        "ensembles.resample_ratio": (ratio(rejected, attempts), "ratio"),
        "ensembles.self_s": (t.self_s(ens), "s"),
        "ensembles.draws_per_s": (ratio(draws, t.outer_time(ens)), "1/s"),
        "matcore.calls": (int(mat.sum()), "count"),
        "matcore.solve_s": (t.outer_time(t.mask("matcore.lu_factor", "matcore.lu_solve", "matcore.solve_multi")), "s"),
        "matcore.logdet_s": (t.outer_time(t.mask("matcore.spd_logdet")), "s"),
        "matcore.self_s": (t.self_s(mat), "s"),
        "matcore.flops_computed": (flops, "flop"),
        "matcore.gflops_computed": (ratio(flops, matcore_s) / 1e9, "Gflop/s"),
        "girko.system_draws": (int(systems.sum()), "count"),
        "girko.system_draw_s": (t.outer_time(systems), "s"),
        "girko.oracle_calls": (int(oracles.sum()), "count"),
        "girko.quad_calls": (t.calls("girko.quad"), "count"),
        "girko.oracle_s": (oracle_s, "s"),
        "girko.self_s": (t.self_s(t.layer_mask("girko")), "s"),
        "stats.ks_calls": (int(ks.sum()), "count"),
        "stats.ks_s": (t.outer_time(ks), "s"),
        "stats.cdf_evals": (t.total_count("stats.ks_one_sample"), "count"),
        "stats.self_s": (t.self_s(t.layer_mask("stats")), "s"),
        "densities.calls": (int(dens.sum()), "count"),
        "densities.s": (t.outer_time(dens), "s"),
        "cli.parse_s": (t.outer_time(t.mask("cli.parse_config")), "s"),
        "cli.self_s": (cli_self_s, "s"),
        "cli.emit_s": (t.outer_time(t.mask("cli.emit")), "s"),
        "cli.emit_bytes": (t.total_count("cli.emit"), "B"),
    }
    run_kind = [kinds[r] for r in t.run[runs]]
    run_dur = t.dur[runs]
    for kind in KINDS:
        out[f"cli.run_s.{kind}"] = (float(sum(d for d, k in zip(run_dur, run_kind) if k == kind)), "s")
    out.update({
        "trace.spans": (len(t.dur), "count"),
        "trace.verdict_s": (traced_s, "s"),
        "trace.untraced_verdict_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.busy_s": (busy_s, "s"),
        "trace.sampling_share": (ratio(sampling_s, busy_s), "ratio"),
        "trace.oracle_share": (ratio(oracle_s, busy_s), "ratio"),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> subprocess.CompletedProcess:
    """Run one workload in a fresh process, as the benchmark's driver would."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def run_all(args) -> int:
    """Run every workload in its own process and print its end-to-end metrics."""
    status = 0
    for name in load_workloads():
        proc = run_workload(name, args.seed, args.seconds, args.trace)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}: exit {proc.returncode}")
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            print(proc.stdout + proc.stderr)
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"   failed_check_ratio {ratio} ratio ({result['failed']} of {result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"   {metric} {v['value']} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name from workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)} or 'all'")
    if not (SRC / "rmtlab" / "__init__.py").is_file():
        print(f"benchmark error: no rmtlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    raws = make_configs(args.workload, workload, args.seed)
    checks = Checks()
    try:
        if args.trace:
            metrics = traced(args.workload, workload, raws, args.seed, checks)
        else:
            metrics = end_to_end(args.workload, workload, raws, args.seconds, checks)
    except BenchFailure as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 1 if checks.problems else 0


if __name__ == "__main__":
    sys.exit(main())
