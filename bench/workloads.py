"""Seeded inputs of the benchmark workloads.

A workload is an endless sequence of rounds; a round is one pass over the
workload's command list.  Every command invocation gets a scenario of its
own, drawn from the seed, so no two invocations share work.  The draws move
kappa (and n_s where the workload allows) inside bands that leave every Fock
cutoff unchanged, so the amount of work per round does not depend on the
seed.  The program sees only the config files written from these draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

TAIL_TOL = 1e-9

# Why each workload exists:
#   fock_bright   -- one huge state pair (n_b=100, n_r_max=2082): dense state
#                    building, the padded expm and the per-block spectra in
#                    fockspace/bounds do nearly all the work; receiver
#                    thresholds are O(1) per K.  Leaves out `bounds`, which at
#                    this n_b repeats the `exponents` overlaps.
#   opa_scan      -- the bright-return scenario (kappa~0.3, n_b=1) with
#                    optimal_scan: threshold scans in receivers take nearly all
#                    the time while the Fock states are tiny (n_r_max=29).  The
#                    full K grid 1e4..1e8 keeps the deep-tail underflow visible.
#   scenario_grid -- many small problems on a fixed n_b ladder plus one long
#                    sweep per axis: per-call set-up, many optimize_gain calls
#                    and small states.  A change that helps fock_bright but
#                    costs small problems shows here.
WORKLOADS = ("fock_bright", "opa_scan", "scenario_grid")

BAND = 0.2  # relative half-width of the kappa and n_s draws
# opa_scan's scan window, and so its time and memory, grows with kappa; a
# narrow band keeps run-to-run differences in its work small.
OPA_BAND = 0.05

_GRID_LADDER = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0)
_SWEEP_POINTS = 120
_SWEEP_RANGES = {  # axis -> (low, high) of a log-spaced grid; for gain, of G - 1
    "kappa": (1e-3, 0.1),
    "n_s": (1e-3, 0.1),
    "n_b": (10.0, 1e4),
    "gain": (1e-4, 0.05),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, scenario file contents, extra flags."""

    name: str
    config: Tuple[Tuple[str, str], ...]
    args: Tuple[str, ...] = ()

    def params(self) -> Tuple[float, float, float]:
        """(n_s, kappa, n_b) of the scenario file."""
        config = dict(self.config)
        return tuple(float(config[k]) for k in ("n_s", "kappa", "n_b"))

    def config_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.config)


def thermal_cutoff(mean: float, tail_tol: float = TAIL_TOL) -> int:
    """Smallest n with (mean/(mean+1))**(n+1) <= tail_tol."""
    x = mean / (mean + 1.0)
    n = max(0, math.ceil(math.log(tail_tol) / math.log(x)) - 1)
    while x ** (n + 1) > tail_tol:
        n += 1
    while n > 0 and x ** n <= tail_tol:
        n -= 1
    return n


def cutoffs(n_s: float, kappa: float, n_b: float) -> Dict[str, int]:
    """Fock cutoffs the CLI derives for a scenario at the benchmark's tail_tol."""
    return {
        "n_r_max": thermal_cutoff(n_b),
        "n_i_max": thermal_cutoff(n_s),
        "coherent_dim": thermal_cutoff(kappa * n_s + n_b) + 1,
    }


class _Scenarios:
    """Draws (n_s, kappa) around a nominal point, checking the cutoff band."""

    def __init__(self, rng: random.Random, n_s: float, kappa: float, n_b: float,
                 kappa_band: float, ns_band: float = 0.0):
        self.rng, self.n_s, self.kappa, self.n_b = rng, n_s, kappa, n_b
        self.kappa_band, self.ns_band = kappa_band, ns_band
        corners = {
            tuple(cutoffs(n_s * (1 + a * ns_band), kappa * (1 + b * kappa_band), n_b).items())
            for a in (-1, 1) for b in (-1, 1)
        }
        if len(corners) != 1:
            raise AssertionError(f"draw band around n_b={n_b} changes a cutoff: {corners}")
        self.expected = dict(corners.pop())

    def draw(self) -> Tuple[float, float]:
        n_s = self.n_s * (1.0 + self.ns_band * self.rng.uniform(-1.0, 1.0))
        kappa = self.kappa * (1.0 + self.kappa_band * self.rng.uniform(-1.0, 1.0))
        if cutoffs(n_s, kappa, self.n_b) != self.expected:
            raise AssertionError(f"draw n_s={n_s!r} kappa={kappa!r} moved a cutoff")
        return n_s, kappa

    def command(self, name: str, policy: str, args: Tuple[str, ...] = ()) -> Command:
        n_s, kappa = self.draw()
        config = (("n_s", repr(n_s)), ("kappa", repr(kappa)), ("n_b", repr(self.n_b)),
                  ("threshold_policy", policy))
        return Command(name, config, ("--tail-tol", repr(TAIL_TOL)) + args)


def _sweep(rng: random.Random, base: _Scenarios, axis: str) -> Command:
    lo, hi = _SWEEP_RANGES[axis]
    shift = rng.uniform(0.9, 1.0)  # seeded grid placement, same point count
    values = [lo * shift * (hi / lo) ** (i / (_SWEEP_POINTS - 1)) for i in range(_SWEEP_POINTS)]
    if axis == "gain":
        values = [1.0 + v for v in values]
    grid = ",".join(repr(v) for v in values)
    return base.command("sweep", "paper_formula", ("--axis", axis, "--grid", grid))


def rounds(workload: str, seed: int) -> Iterator[List[Command]]:
    """The workload's rounds for a seed; the same seed gives the same rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fock_bright":
        pair = _Scenarios(rng, n_s=0.01, kappa=0.01, n_b=100.0, kappa_band=BAND)
        while True:
            yield [pair.command("exponents", "paper_formula"),
                   pair.command("helstrom", "paper_formula")]
    elif workload == "opa_scan":
        pair = _Scenarios(rng, n_s=0.01, kappa=0.3, n_b=1.0, kappa_band=OPA_BAND)
        while True:
            yield [pair.command("bounds", "optimal_scan"),
                   pair.command("helstrom", "optimal_scan")]
    else:
        ladder = [_Scenarios(rng, n_s=0.01, kappa=0.01, n_b=n_b, kappa_band=BAND, ns_band=BAND)
                  for n_b in _GRID_LADDER]
        sweep_base = _Scenarios(rng, n_s=0.01, kappa=0.01, n_b=20.0, kappa_band=BAND,
                                ns_band=BAND)
        while True:
            cmds = [point.command(name, "paper_formula")
                    for point in ladder for name in ("exponents", "bounds", "helstrom")]
            cmds += [_sweep(rng, sweep_base, axis) for axis in _SWEEP_RANGES]
            yield cmds


WARMUP = Command("exponents", (("n_s", "0.01"), ("kappa", "0.01"), ("n_b", "1.0")),
                 ("--tail-tol", repr(TAIL_TOL)))
