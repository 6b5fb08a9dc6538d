"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/collect.py --workloads opa_scan --seeds 1-5
    python3 bench/collect.py --seeds 1-10 --traced-seed 1 --write bench/baseline.json

Runs the command of BENCHMARK.json once per (workload, seed), one run at a
time, and prints for each end-to-end metric the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound.  ``--traced-seed``
adds one ``--trace 1`` run per workload for the per-layer numbers.
``--write`` saves every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(spec, runs):
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median, "bound": metric["bound"],
                                   "unit": metric["unit"]}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs, machine = [], None
        for seed in _seeds(args.seeds):
            result, record = _run(spec, workload, seed, 0)
            machine = record["machine"]
            runs.append({"seed": seed, **result, "commands": record["commands"],
                         "nonfinite_cells": record["nonfinite_cells"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"machine": machine, "runs": runs}
        if len(runs) >= 2:
            entry["summary"] = summarise(spec, runs)
            for name, s in entry["summary"].items():
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
                print(f"  {name}: median {s['median']:.5g} {s['unit']}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}  "
                      f"bound {s['bound']}  {flag}", flush=True)
        if args.traced_seed is not None:
            result, record = _run(spec, workload, args.traced_seed, 1)
            entry["traced"] = {"seed": args.traced_seed, **result}
            print(f"{workload} traced seed {args.traced_seed}: correct={result['correct']}",
                  flush=True)
        report["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
