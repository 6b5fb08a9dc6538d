"""Output checks of every benchmark command.

Each check returns a list of problems; a command with any problem counts as
failed.  Closed-form columns are recomputed here, and the numeric Chernoff
exponents and bound columns are compared with the Gaussian-state reference
in ``gaussian.py``.  The comparison allows the Fock route's truncation bias
(about tail_tol in each overlap) and a relative 1e-3, so a fix of that bias
still passes while a wrong state or overlap does not.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

from scipy.special import erfcx

import gaussian
from workloads import TAIL_TOL, Command, cutoffs

LOG10_HALF = math.log10(0.5)
_LN10 = math.log(10.0)
_REL = 1e-3              # relative tolerance on a numeric exponent
_ABS = 3.0 * TAIL_TOL    # absolute tolerance on an overlap / exponent
_CLOSED_REL = 1e-12

_COLUMNS = {
    "bounds": ["K", "lower_classical", "upper_classical", "lower_quantum",
               "upper_quantum", "homodyne", "opa_exact", "opa_gaussian"],
    "helstrom": ["K", "opa_exact", "helstrom_majority_exact", "helstrom_majority_clt"],
    "exponents": ["quantity", "value", "note"],
}


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or not re.fullmatch(r"# params=[0-9a-f]{12}", lines[0]):
        raise ValueError(f"{path.name}: missing '# params=' digest line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def nonfinite_cells(path: Path) -> int:
    """Numeric cells reading -inf, inf or nan."""
    _, rows = read_csv(path)
    return sum(cell in ("-inf", "inf", "nan") for row in rows for cell in row)


@lru_cache(maxsize=256)
def reference(n_s: float, kappa: float, n_b: float) -> Dict[str, Tuple[float, float, float]]:
    return gaussian.reference(n_s, kappa, n_b)


def _close(value: float, expected: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(value - expected) <= rel * abs(expected) + absolute


def _exponent_ok(r_numeric: float, q_ref: float) -> bool:
    r_ref = -math.log(q_ref)
    return _close(r_numeric, r_ref, _REL, _ABS)


def _closed_forms(n_s: float, kappa: float, n_b: float) -> Dict[str, float]:
    kns = kappa * n_s
    return {"r_q": kns / n_b, "r_c": kns / (4.0 * n_b), "r_c_hom": kns / (4.0 * n_b + 2.0)}


def _log10_homodyne(n_s: float, kappa: float, n_b: float, k: int) -> float:
    # log10(erfc(x)/2) through the scaled erfc, independent of the CLI's log_ndtr route
    x = math.sqrt(kappa * n_s * k / (4.0 * n_b + 2.0))
    return (math.log(erfcx(x)) - x * x - math.log(2.0)) / _LN10


def _curves(columns, rows, problems) -> Dict[str, List[float]]:
    """Columns of a K-indexed CSV as floats, with the shape checks of every curve."""
    data = {name: [float(row[i]) for row in rows] for i, name in enumerate(columns)}
    ks = data["K"]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        problems.append("K grid not strictly increasing")
    for name in columns[1:]:
        values = data[name]
        if any(math.isnan(v) for v in values):
            problems.append(f"{name}: nan log10 P_e")
            continue
        if any(math.isfinite(v) and v > LOG10_HALF + 1e-12 for v in values):
            problems.append(f"{name}: log10 P_e above log10(1/2)")
        if any(b > a + 1e-12 * max(1.0, abs(a)) for a, b in zip(values, values[1:])):
            problems.append(f"{name}: increases with K")
    return data


def _check_bounds(cmd: Command, out: Path, problems: List[str]) -> None:
    n_s, kappa, n_b = cmd.params()
    columns, rows = read_csv(out / "bounds.csv")
    data = _curves(columns, rows, problems)
    ref = reference(n_s, kappa, n_b)
    for side, key in (("classical", "c"), ("quantum", "q")):
        lower, upper = data[f"lower_{side}"], data[f"upper_{side}"]
        if any(lo > up for lo, up in zip(lower, upper)):
            problems.append(f"lower_{side} above upper_{side}")
        # exponents implied by each row: upper = Q_min^K / 2, and
        # lower = (1 - sqrt(1 - Q_half^(2K)))/2  <=>  Q_half^(2K) = 4 lower (1 - lower)
        _, q_min, q_half = ref[key]
        for k, lo, up in zip(data["K"], lower, upper):
            r_min = -(up * _LN10 + math.log(2.0)) / k
            if not _exponent_ok(r_min, q_min):
                problems.append(f"upper_{side} at K={int(k)} implies exponent {r_min!r}, "
                                f"reference {-math.log(q_min)!r}")
                break
            r_half = -(math.log(4.0) + lo * _LN10 + math.log1p(-10.0 ** lo)) / (2.0 * k)
            if not _exponent_ok(r_half, q_half):
                problems.append(f"lower_{side} at K={int(k)} implies exponent {r_half!r}, "
                                f"reference {-math.log(q_half)!r}")
                break
    for k, value in zip(data["K"], data["homodyne"]):
        expected = _log10_homodyne(n_s, kappa, n_b, int(k))
        if not _close(value, expected, 1e-9, 1e-12):
            problems.append(f"homodyne at K={int(k)}: {value!r} vs closed form {expected!r}")
            break
    meta = (out / "meta.txt").read_text(encoding="ascii")
    found = re.search(r"trunc: n_r_max=(\d+) n_i_max=(\d+)", meta)
    expected = cutoffs(n_s, kappa, n_b)
    if found is None or (int(found[1]), int(found[2])) != (expected["n_r_max"],
                                                           expected["n_i_max"]):
        problems.append(f"recorded cutoffs {found and found.group(0)!r} differ from {expected}")


def _check_helstrom(cmd: Command, out: Path, problems: List[str]) -> None:
    n_s, kappa, n_b = cmd.params()
    columns, rows = read_csv(out / "helstrom.csv")
    _curves(columns, rows, problems)
    meta = (out / "meta.txt").read_text(encoding="ascii")
    found = re.search(r"helstrom single shot: pe=(\S+)", meta)
    if found is None:
        problems.append("meta.txt has no single-shot Helstrom error")
        return
    # one copy: (1 - sqrt(1 - Q_half^2))/2 <= P_e <= Q_min/2
    _, q_min, q_half = reference(n_s, kappa, n_b)["q"]
    pe = float(found[1])
    lower = 0.5 * (1.0 - math.sqrt(1.0 - q_half ** 2))
    if not lower - _ABS <= pe <= 0.5 * q_min + _ABS:
        problems.append(f"single-shot Helstrom error {pe!r} outside [{lower!r}, {q_min / 2!r}]")


def _check_exponents(cmd: Command, out: Path, problems: List[str]) -> None:
    n_s, kappa, n_b = cmd.params()
    _, rows = read_csv(out / "exponents.csv")
    values = {row[0]: float(row[1]) for row in rows}
    for name, expected in _closed_forms(n_s, kappa, n_b).items():
        if not _close(values.get(f"{name}_closed", math.nan), expected, _CLOSED_REL):
            problems.append(f"{name}_closed differs from its formula {expected!r}")
    if not _close(values.get("db_r_q_vs_r_c", math.nan), 10.0 * math.log10(4.0), 1e-9):
        problems.append("db_r_q_vs_r_c differs from 10 log10(4)")
    ref = reference(n_s, kappa, n_b)
    for name, key in (("r_q_numeric", "q"), ("r_c_numeric", "c")):
        if not _exponent_ok(values.get(name, math.nan), ref[key][1]):
            problems.append(f"{name} {values.get(name)!r} disagrees with the Gaussian "
                            f"reference {-math.log(ref[key][1])!r}")


def _check_sweep(cmd: Command, out: Path, problems: List[str]) -> None:
    n_s, kappa, n_b = cmd.params()
    axis = cmd.args[cmd.args.index("--axis") + 1]
    columns, rows = read_csv(out / "sweep.csv")
    grid = [float(v) for v in cmd.args[cmd.args.index("--grid") + 1].split(",")]
    if len(rows) != len(grid):
        problems.append(f"sweep has {len(rows)} rows for {len(grid)} grid values")
    for row, value in zip(rows, grid):
        cells = dict(zip(columns, row))
        point = {"n_s": n_s, "kappa": kappa, "n_b": n_b}
        if axis != "gain":
            point[axis] = value
        for name, expected in _closed_forms(**point).items():
            if not _close(float(cells[name]), expected, _CLOSED_REL):
                problems.append(f"{name} at {axis}={value!r} differs from its formula")
                return
        regime = point["n_s"] <= 0.1 and point["kappa"] <= 0.1 and point["n_b"] >= 10.0
        if int(cells["regime_ok"]) != int(regime):
            problems.append(f"regime_ok at {axis}={value!r} is {cells['regime_ok']}")
            return


_CHECKS = {"bounds": _check_bounds, "helstrom": _check_helstrom,
           "exponents": _check_exponents, "sweep": _check_sweep}


def check_command(cmd: Command, out: Path) -> List[str]:
    """Problems with one command's outputs; empty when all checks pass."""
    problems: List[str] = []
    try:
        if cmd.name in _COLUMNS:
            columns, _ = read_csv(out / f"{cmd.name}.csv")
            if columns != _COLUMNS[cmd.name]:
                return [f"{cmd.name}.csv columns {columns}"]
        _CHECKS[cmd.name](cmd, out, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def check_reference(tail_tol: float = TAIL_TOL) -> List[str]:
    """Compare the Gaussian reference with the Fock route on one small scenario."""
    from qillum import ScenarioParams, TruncationSpec, bounds, fockspace

    n_s, kappa, n_b = 0.01, 0.3, 1.0
    params = ScenarioParams(n_s=n_s, kappa=kappa, n_b=n_b)
    trunc = TruncationSpec.for_params(params, tail_tol=tail_tol)
    fock_q = bounds.qcb(fockspace.build_rho0(params, trunc), fockspace.build_rho1(params, trunc))
    cutoff = fockspace.thermal_cutoff(kappa * n_s + n_b, tail_tol)
    fock_c = bounds.qcb(
        fockspace.thermal_state(n_b, cutoff),
        fockspace.build_displaced_thermal(math.sqrt(kappa * n_s), n_b, cutoff, tail_tol=tail_tol),
    )
    ref = reference(n_s, kappa, n_b)
    problems = []
    for label, fock, key in (("entangled", fock_q, "q"), ("coherent", fock_c, "c")):
        if abs(fock[1] - ref[key][1]) > 10.0 * tail_tol:
            problems.append(f"{label} pair: Fock Q_min {fock[1]!r} vs Gaussian {ref[key][1]!r}")
    return problems
