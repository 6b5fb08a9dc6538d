"""qillum benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fock_bright --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qillum is imported from ``src/``.
The run starts fresh worker processes (``worker.py``) with the BLAS thread
count pinned; each prints ``ready`` once its imports and one warm-up command
on a tiny scenario are done, and the median time from start to that line is
``setup_s``.  The last worker runs the workload as a closed loop with one
client for ``--seconds``.  Every command's outputs are then checked
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A full record of the run goes to ``bench/out/``.

Only this process tree is measured: no system-wide tracing, no cache
dropping.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5
BLAS_THREADS_MAX = 2
DEADLINE_S = 170.0

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def _worker(args, work: Path, env, extra, deadline: float):
    """Start a worker, time it until it prints ``ready``, wait for its exit."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError("worker did not get ready")
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(spans, rounds: int):
    """Per-layer metrics of the traced pass, per round of the workload."""
    from tracing import KERNELS, LAYERS

    total = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    children = defaultdict(float)
    for name, start, end, parent, _command, n in spans:
        total[name] += end - start
        calls[name] += 1
        if n is not None:
            info[name].append(n)
        if parent is not None and name.rsplit(".", 1)[1] not in KERNELS:
            children[parent] += end - start
    self_s = defaultdict(float)
    for i, (name, start, end, _parent, _command, _n) in enumerate(spans):
        if name.rsplit(".", 1)[1] not in KERNELS:
            self_s[name.split(".", 1)[0]] += end - start - children[i]

    def seconds(name):
        return total[name] / rounds, "s"

    def count(value):
        return value / rounds, "count"

    def kernel(layer):
        """(calls, seconds, sum of n^3) of the eigensolver calls made by a layer."""
        names = (f"{layer}.eigh", f"{layer}.eigvalsh")
        return (count(sum(calls[n] for n in names)),
                (sum(total[n] for n in names) / rounds, "s"),
                count(sum(x ** 3 for n in names for x in info[n])))

    rho1 = info["fockspace.build_rho1"]
    b_calls, b_s, b_n3 = kernel("bounds")
    r_calls, r_s, _ = kernel("receivers")
    metrics = {
        "fockspace.build_displaced_thermal.s": seconds("fockspace.build_displaced_thermal"),
        "fockspace.expm.s": seconds("fockspace.expm"),
        "fockspace.expm.n3": count(sum(x ** 3 for x in info["fockspace.expm"])),
        "fockspace.coherent_dim": (max(info["fockspace.build_displaced_thermal"], default=0),
                                   "count"),
        "fockspace.build_rho0.s": seconds("fockspace.build_rho0"),
        "fockspace.build_rho1.s": seconds("fockspace.build_rho1"),
        "fockspace.build_rho1.calls": count(calls["fockspace.build_rho1"]),
        "fockspace.blocks": count(sum(b for b, _ in rho1)),
        "fockspace.rho1_elements": count(sum(e for _, e in rho1)),
        "bounds.qcb.s": seconds("bounds.qcb"),
        "bounds.qcb.calls": count(calls["bounds.qcb"]),
        "bounds.q_s.s": seconds("bounds.q_s"),
        "bounds.q_s.calls": count(calls["bounds.q_s"]),
        "bounds.eigh.calls": b_calls,
        "bounds.eigh.s": b_s,
        "bounds.eigh.n3": b_n3,
        "bounds.error_prob_bounds.calls": count(calls["bounds.error_prob_bounds"]),
        "gss.golden_section_min.calls": count(calls["gss.golden_section_min"]),
        "gss.objective_evals": count(sum(info["gss.golden_section_min"])),
        "receivers.helstrom_single_shot.s": seconds("receivers.helstrom_single_shot"),
        "receivers.eigh.calls": r_calls,
        "receivers.eigh.s": r_s,
        "receivers.opa_error_exact.s": seconds("receivers.opa_error_exact"),
        "receivers.opa_error_exact.calls": count(calls["receivers.opa_error_exact"]),
        "receivers.betainc.elements": count(sum(info["receivers.betainc"])),
        "receivers.betainc.s": seconds("receivers.betainc"),
        "receivers.majority_vote_error.s": seconds("receivers.majority_vote_error"),
        "receivers.optimize_gain.s": seconds("receivers.optimize_gain"),
        "receivers.optimize_gain.calls": count(calls["receivers.optimize_gain"]),
        "receivers.opa_error_gaussian.s": seconds("receivers.opa_error_gaussian"),
        "receivers.homodyne_error.calls": count(calls["receivers.homodyne_error"]),
        "scenario.parse_config.s": seconds("scenario.parse_config"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
    return metrics


def _csv_bytes(directory: Path):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _measure(args, work: Path, spans_path: Path, threads: int):
    """Set-up samples and the measuring worker's results."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    deadline = time.perf_counter() + DEADLINE_S
    setup = [_worker(args, work, env, ["--setup-only"], deadline)
             for _ in range(SETUP_SAMPLES - 1)]
    setup.append(_worker(args, work, env, ["--spans", str(spans_path)], deadline))
    results = json.loads((work / "results.json").read_text(encoding="ascii"))
    spans = json.loads(spans_path.read_text(encoding="ascii"))["spans"] if args.trace else []
    return setup, results, spans


def _check(args, results, spans):
    """Check every command against the inputs the seed generated."""
    import checks
    import workloads

    sizes = defaultdict(set)  # command id -> state sizes the traced pass built
    for name, _start, _end, _parent, command, n in spans:
        if name == "fockspace.build_displaced_thermal":
            sizes[command].add(("coherent_dim", n))
        elif name == "fockspace.build_rho1":
            sizes[command].add(("blocks", n[0]))
    plan = list(itertools.islice(workloads.rounds(args.workload, args.seed),
                                 max(c["round"] for c in results["commands"]) + 1))
    found = {"failures": [], "per_command": defaultdict(list), "nonfinite": 0, "csv_bytes": 0}
    for command_id, c in enumerate(results["commands"]):
        cmd = plan[c["round"]][c["index"]]
        out = Path(c["dir"])
        problems = ([f"exit {c['code']!r}"] if c["code"] != 0
                    else checks.check_command(cmd, out))
        if c["pass"] == "traced":
            plain = out.parent.parent / "plain" / out.name
            if _csv_bytes(out) != _csv_bytes(plain):
                problems.append("traced CSV bytes differ from the untraced run")
            found["csv_bytes"] += sum(len(b) for b in _csv_bytes(out).values())
            cut = workloads.cutoffs(*cmd.params())
            expected = {("coherent_dim", cut["coherent_dim"]),
                        ("blocks", cut["n_r_max"] + cut["n_i_max"] + 1)}
            if not sizes[command_id] <= expected:
                problems.append(f"traced state sizes {sorted(sizes[command_id])} "
                                f"differ from the cutoffs {cut}")
        elif c["pass"] == "plain":
            found["per_command"][c["name"]].append(c["seconds"])
            found["nonfinite"] += sum(checks.nonfinite_cells(p) for p in out.glob("*.csv"))
        if problems:
            found["failures"].append({"round": c["round"], "pass": c["pass"],
                                      "command": c["name"], "problems": problems})
    found["reference_problems"] = checks.check_reference()
    return found


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    spans_path = OUT / f"spans-{tag}.json"
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, BLAS_THREADS_MAX)
    work.mkdir(parents=True)
    try:
        setup, results, spans = _measure(args, work, spans_path, threads)
        found = _check(args, results, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain_rounds = [r for r in results["rounds"] if r["pass"] == "plain"]
    n_rounds = len(plain_rounds)
    plain_s = [r["seconds"] for r in plain_rounds]
    failures = found["failures"]
    if args.trace:
        metrics = _layer_metrics(spans, n_rounds)
        traced_s = [r["seconds"] for r in results["rounds"] if r["pass"] == "traced"]
        metrics["trace.overhead_s"] = (_median([t - p for t, p in zip(traced_s, plain_s)]), "s")
        metrics["cli.csv_bytes"] = (found["csv_bytes"] / n_rounds, "bytes")
        metrics["cli.nonfinite_cells"] = (found["nonfinite"] / n_rounds, "count")
    else:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "wall_s": (_median(plain_s), "s"),
            "scenarios_per_s": (sum(r["commands"] for r in plain_rounds) / sum(plain_s), "1/s"),
            "peak_rss_mb": (results["peak_rss_mb"], "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": nproc, "blas_threads_pinned": threads, **results["machine"],
                    "note": "only this process tree is measured; no system-wide tracing, "
                            "no cache dropping"},
        "setup_s_samples": setup,
        "rounds": n_rounds,
        "round_s": plain_s,
        "commands": {name: {"median_s": _median(v), "max_s": max(v), "n": len(v)}
                     for name, v in sorted(found["per_command"].items())},
        "error_rate": len(failures) / len(results["commands"]),
        "nonfinite_cells": found["nonfinite"],
        "failures": failures[:20],
        "reference_problems": found["reference_problems"],
        "correct": not failures and not found["reference_problems"],
        "attempted": len(results["commands"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qillum" / "cli.py").is_file():
        print(f"run.py: no qillum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    try:
        record = run(args)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(f"qillum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={record['rounds']}")
    print("machine: " + json.dumps(record["machine"]))
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in record["setup_s_samples"]))
    for name, stats in record["commands"].items():
        print(f"{name}_s: median {stats['median_s']:.4f} s  max {stats['max_s']:.4f} s  "
              f"n {stats['n']}")
    print(f"error_rate: {record['failed']}/{record['attempted']}  "
          f"nonfinite_cells: {record['nonfinite_cells']}")
    for failure in record["failures"]:
        print("FAILED: " + json.dumps(failure))
    for problem in record["reference_problems"]:
        print("REFERENCE: " + problem)
    for name, metric in record["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
