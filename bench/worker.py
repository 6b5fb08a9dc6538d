"""The measured process of one benchmark run.

It imports qillum from the checkout, runs one warm-up command on a tiny
scenario and prints ``ready``; the parent times process start to that line
as one set-up sample.  Unless ``--setup-only`` is given it then runs the
workload as a closed loop: one client calls ``qillum.cli.main(argv)``
in-process and starts each command only after the previous one returned,
round after round, until ``--seconds`` have passed (at least one round).  With ``--trace 1`` each
round runs twice on the same inputs, untraced and then traced, so the CSV
bytes and wall times of the two can be compared; one unmeasured round on the
first inputs comes before them.

Results go to ``<work>/results.json``, spans to ``--spans``; the parent
checks the outputs and computes the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _run(cli, command, out_dir: Path, tracer=None):
    """Run one command in its own directory; returns (exit code or error text, seconds)."""
    out_dir.mkdir(parents=True)
    config = out_dir / "scenario.cfg"
    config.write_text(command.config_text(), encoding="ascii")
    argv = [command.name, "--config", str(config), "--out", str(out_dir), *command.args]
    sink = io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:  # the loop must go on; the failure is recorded and counted
        code = traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    return code, seconds


def _blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from qillum import cli

    code, _ = _run(cli, workloads.WARMUP, args.work / f"warmup-{os.getpid()}")
    if code != 0:
        print(f"warm-up command failed: {code}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plan = workloads.rounds(args.workload, args.seed)
    first = next(plan)
    commands, rounds = [], []

    def run_pass(index, cmds, mode):
        total = 0.0
        for i, command in enumerate(cmds):
            out_dir = args.work / f"r{index:03d}" / mode / f"{i:02d}-{command.name}"
            if mode == "traced":
                tracer.command = len(commands)
            code, seconds = _run(cli, command, out_dir, tracer if mode == "traced" else None)
            total += seconds
            commands.append({"round": index, "pass": mode, "index": i, "name": command.name,
                             "dir": str(out_dir), "code": code, "seconds": seconds})
        rounds.append({"round": index, "pass": mode, "seconds": total, "commands": len(cmds)})

    if tracer is not None:
        # The first large command in a process runs slower (heap growth), so
        # the traced comparison starts after one unmeasured round.
        run_pass(0, first, "warm")
    passes = ("plain", "traced") if tracer else ("plain",)
    loop_start = time.perf_counter()
    for index, cmds in enumerate(itertools.chain([first], plan)):
        if index and time.perf_counter() - loop_start >= args.seconds:
            break
        for mode in passes:
            run_pass(index, cmds, mode)

    results = {
        "commands": commands,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        from tracing import FIELDS
        with open(args.spans, "w", encoding="ascii") as fh:
            json.dump({"fields": FIELDS, "spans": tracer.spans}, fh, separators=(",", ":"))
    (args.work / "results.json").write_text(json.dumps(results), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
