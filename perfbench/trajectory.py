"""Repeat the benchmark over seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/trajectory.py --runs 10 --seconds 30 --label <commit> \
        --out perfbench/trajectory/<commit>.json

Runs run.py once per (workload, seed) with --trace 0, cycling through the
workloads so that slow drift of the machine spreads over all of them, then
one --trace 1 run per workload.  For each end-to-end metric it reports the
median, the quartiles from statistics.quantiles(n=4), the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and the
sample count.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from run import ROOT, run_workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = run_workload(workload, seed, seconds, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values), "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            result = run_once(w, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
    }
    worst = 0.0
    for w in workloads:
        e2e = {name: summarise(v, bounds.get(name)) for name, v in values[w].items()}
        summary["workloads"][w] = {"end_to_end": e2e}
        for name, s in e2e.items():
            share = s["spread"] / s["bound"] if name != "setup_s" else 0.0
            worst = max(worst, share)
            print(f"{w:15s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {s.get('bound')}  n {s['n']}")
        traced = run_once(w, args.first_seed, seconds, 1)
        summary["workloads"][w]["per_layer"] = {name: [m["value"], m["unit"]] for name, m in traced["metrics"].items()}
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
