"""Command-line front end producing reproducible CSV artifacts.

Four subcommands cover the standard plots and tables:

    bounds     error-probability sandwich for both transmitters vs K
    helstrom   per-pair optimal measurement with majority vote vs the OPA
    exponents  closed-form and numeric error exponents for one scenario
    sweep      exponent report along a one-parameter grid

All data files are plain CSV with a single ``# params=<digest>`` comment
line; identical inputs produce byte-identical outputs (run metadata,
which may vary, goes to a ``meta.txt`` sidecar).  Exit codes: 0 success,
1 computation failure, 2 usage or configuration error.

``main`` builds its parser on its first call and reuses it for the life of
the process; it looks up ``cmd_<name>`` on every call, so a wrapper
installed on a ``cmd_*`` function sees each command.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bounds import asymptotic_exponents, error_prob_bounds, gaussian_chernoff
from .errors import DomainError, ParseError, QIError
from .fockspace import TruncationSpec, build_rho0, build_rho1
from .receivers import (
    _r_opa,
    half_erfc_sqrt,
    helstrom_single_shot,
    homodyne_error,
    majority_vote_error,
    opa_bhattacharyya,
    opa_error_exact,
    optimize_gain,
    resolve_gain,
)
from .scenario import (
    GAIN_AUTO,
    GAIN_BHATT,
    CountModel,
    ReceiverConfig,
    ScenarioParams,
    ThresholdPolicy,
    _in_regime,
    parse_config,
    parse_value,
    render_config,
)

_LOG10_HALF = math.log10(0.5)

_DEFAULT_CONFIG = "n_s=0.01\nkappa=0.01\nn_b=20.0\n"

_UNDEF = "-"  # stdout placeholder for quantities with no defined value


# --- plumbing -----------------------------------------------------------------


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _digest(params: ScenarioParams, receiver: ReceiverConfig, extra: Dict[str, object]) -> str:
    text = render_config(params, receiver)
    text += "".join(f"{key}={extra[key]}\n" for key in sorted(extra))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def _write_outputs(args, params: ScenarioParams, receiver: ReceiverConfig,
                   columns: Sequence[str], rows: Sequence[Sequence], notes: List[str],
                   count_rows: bool = True, **extra: str) -> None:
    """Write <command>.csv and its meta.txt sidecar to --out and name the CSV
    on stdout.  The digest covers the scenario, the command, the tail
    tolerance and the command's own extra keys."""
    extra.update(command=args.command, tail_tol=repr(args.tail_tol))
    digest = _digest(params, receiver, extra)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.command}.csv"
    lines = [f"# params={digest}", ",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    meta = [f"tool=qillum {__version__}", f"command={args.command}", f"params_digest={digest}"]
    meta.extend(render_config(params, receiver).splitlines())
    meta.extend(f"{key}={extra[key]}" for key in sorted(extra) if key != "command")
    meta.extend(f"note={note}" for note in notes)
    (out_dir / "meta.txt").write_text("\n".join(meta) + "\n", encoding="ascii")
    print(f"wrote {path}" + (f" ({len(rows)} rows)" if count_rows else ""))


def _k_grid(k_min: float, k_max: float, k_points: int) -> List[int]:
    if not (math.isfinite(k_min) and math.isfinite(k_max)):
        raise DomainError("K grid endpoints must be finite")
    if k_min < 1.0 or k_max < k_min:
        raise DomainError(f"need 1 <= k-min <= k-max, got {k_min}, {k_max}")
    if not 1 <= k_points <= 100000:
        raise DomainError(f"k-points must lie in [1, 100000], got {k_points}")
    if k_points == 1:
        return [int(round(k_min))]
    raw = np.logspace(math.log10(k_min), math.log10(k_max), k_points)
    return sorted({max(1, int(k)) for k in np.rint(raw).tolist()})


def _check_error_curves(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Guard a [K, log10 P_e, ...] table: K strictly increasing, every
    value at or below log10(1/2)."""
    ks = [row[0] for row in rows]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("K grid must be strictly increasing")
    for row in rows:
        for name, v in zip(columns[1:], row[1:]):
            if v > _LOG10_HALF + 1e-12:
                raise DomainError(f"{name}: log10 P_e = {v} above log10(1/2) at K={row[0]}")


def _log10_or_inf(ps: np.ndarray) -> List[float]:
    return [math.log10(p) if p > 0.0 else -math.inf for p in ps.tolist()]


# --- configuration ------------------------------------------------------------


def _load_setup(args) -> Tuple[ScenarioParams, ReceiverConfig]:
    config = _DEFAULT_CONFIG if args.config is None else Path(args.config).read_text("utf-8")
    params, receiver = parse_config(config)
    # each receiver flag takes its config key's text and replaces the file's value
    flags = {field.name: getattr(args, field.name) for field in dataclasses.fields(ReceiverConfig)}
    receiver = dataclasses.replace(receiver, **{
        key: parse_value(key, text) for key, text in flags.items() if text is not None})
    if not (math.isfinite(args.tail_tol) and 0.0 < args.tail_tol <= 1e-3):
        raise DomainError(f"--tail-tol must lie in (0, 1e-3], got {args.tail_tol}")
    return params, receiver


def _parse_grid(text: str) -> List[float]:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise ParseError(f"--grid entry {piece!r} is not a number") from None
    if not values:
        raise ParseError("--grid is empty")
    return values


def _sweep_points(params: ScenarioParams, axis: str,
                  values: List[float]) -> List[Tuple[float, ScenarioParams]]:
    """Pair each grid value with its scenario, checking every value up front."""
    if axis == "gain":
        for v in values:
            if not (math.isfinite(v) and v > 1.0):
                raise DomainError(f"gain grid value {v} must satisfy G > 1")
        return [(v, params) for v in values]
    fields = dataclasses.asdict(params)
    return [(v, ScenarioParams(**{**fields, axis: v})) for v in values]


# --- coherent-state benchmark -------------------------------------------------


def _coherent_exponent(params: ScenarioParams) -> float:
    """Exact Chernoff exponent -ln Q_min of the coherent-state benchmark.

    Thermal and displaced-thermal states differ only by a displacement, so
    Q_s = Q_(1-s), the minimum sits at s* = 1/2 and
    -ln Q_min = kappa n_s (sqrt(n_b+1) - sqrt(n_b))**2 (Tan et al., PRL 101,
    253601 (2008)).  The equivalent sum form used here does not cancel at
    large n_b.
    """
    root = math.sqrt(params.n_b + 1.0) + math.sqrt(params.n_b)
    return params.kappa * params.n_s / (root * root)


# --- subcommands ----------------------------------------------------------------


def _k_table(args, params: ScenarioParams, receiver: ReceiverConfig, ks: List[int],
             columns: Sequence[str], pair_columns) -> None:
    """Write one row of log10 error probabilities per K.

    pair_columns(trunc, gain) returns a note for meta.txt and
    cells(ks, log10_opa_exact), the columns after K, each one call over the
    whole grid, with the exact OPA errors in their slot.
    """
    notes = [f"count_model: {receiver.count_model.value}"]
    if params.kappa == 0.0:
        # Identical hypotheses: every receiver and bound sits at chance.  The
        # numeric route has no OPA gain under gain=auto (resolve_gain gives
        # None), and helstrom's vote would amplify the truncation deficit by K.
        rows = [[k] + [_LOG10_HALF] * (len(columns) - 1) for k in ks]
        notes.append("kappa=0: all columns analytic log10(1/2)")
    else:
        trunc = TruncationSpec.for_params(params, tail_tol=args.tail_tol)
        gain, gain_note = resolve_gain(params, receiver.gain)
        note, cells = pair_columns(trunc, gain)
        notes += [f"gain: {gain_note}", note]
        pe_opa, _ = opa_error_exact(params, gain, ks, receiver.threshold_policy,
                                    receiver.count_model)
        rows = list(zip(ks, *(np.asarray(col).tolist()
                              for col in cells(ks, _log10_or_inf(pe_opa)))))
        _check_error_curves(columns, rows)
    _write_outputs(args, params, receiver, columns, rows, notes,
                   k_grid=",".join(str(k) for k in ks))


def cmd_bounds(args, params: ScenarioParams, receiver: ReceiverConfig, ks: List[int]) -> None:
    def pair_columns(trunc, gain):
        _, ln_q_min, ln_q_half = gaussian_chernoff(params)
        ln_q_c = -_coherent_exponent(params)  # Q_half = Q_min at s* = 1/2
        r_opa = _r_opa(params, gain)

        def cells(ks, log10_opa):
            b_c = error_prob_bounds(ln_q_c, ln_q_c, ks)
            b_q = error_prob_bounds(ln_q_half, ln_q_min, ks)
            _, log10_hom = homodyne_error(params, ks)
            # the log leg stays finite where the probability underflows
            _, log10_gauss = half_erfc_sqrt(r_opa * np.array(ks, dtype=float))
            return [b_c.log10_lower, b_c.log10_upper_qcb, b_q.log10_lower,
                    b_q.log10_upper_qcb, log10_hom, log10_opa, log10_gauss]
        return f"trunc: n_r_max={trunc.n_r_max} n_i_max={trunc.n_i_max}", cells

    _k_table(args, params, receiver, ks,
             ["K", "lower_classical", "upper_classical", "lower_quantum",
              "upper_quantum", "homodyne", "opa_exact", "opa_gaussian"], pair_columns)


def cmd_helstrom(args, params: ScenarioParams, receiver: ReceiverConfig, ks: List[int]) -> None:
    def pair_columns(trunc, gain):
        result = helstrom_single_shot(build_rho0(params, trunc), build_rho1(params, trunc))
        # Majority voting needs both conditional rates at or below 1/2; the
        # raw split can put one leg above, so the vote uses the average error
        # as a symmetric per-pair flip probability.
        p_flip = result.pe_single

        def cells(ks, log10_opa):
            pe_maj = majority_vote_error(p_flip, p_flip, ks, method="exact_binomial")
            pe_clt = majority_vote_error(p_flip, p_flip, ks, method="clt")
            return [log10_opa, _log10_or_inf(pe_maj), _log10_or_inf(pe_clt)]
        return (f"helstrom single shot: pe={result.pe_single!r} "
                f"p01={result.p01!r} p10={result.p10!r}"), cells

    _k_table(args, params, receiver, ks,
             ["K", "opa_exact", "helstrom_majority_exact", "helstrom_majority_clt"],
             pair_columns)


def _opa_exponents(params: ScenarioParams, gain: Optional[float]) -> Tuple[float, ...]:
    """(r_opa, r_b_exact, r_b_small_gain, r_b_ratio) of the OPA at gain G,
    for one scenario or for arrays of them.

    G is None only for the flat kappa = 0 search, where every exponent is
    zero.  r_b_ratio is r_b_exact over its weak-signal limit
    kappa n_s / (2 n_b), and nan where that limit is zero.  Callers have
    run asymptotic_exponents on params, which rejects n_b <= 0.
    """
    if gain is None:
        return 0.0, 0.0, 0.0, math.nan
    r_opa = _r_opa(params, gain)
    _, r_b_exact, r_b_small = opa_bhattacharyya(params, gain)
    half_limit = params.kappa * params.n_s / (2.0 * params.n_b)
    if not isinstance(half_limit, np.ndarray):  # exponents stays free of numpy calls
        return r_opa, r_b_exact, r_b_small, r_b_exact / half_limit if half_limit > 0.0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        r_b_ratio = np.where(half_limit > 0.0, np.divide(r_b_exact, half_limit), math.nan)
    return r_opa, r_b_exact, r_b_small, r_b_ratio


def _db_gain(value: Optional[float], r_c: float) -> Optional[float]:
    if value is None or value <= 0.0 or r_c <= 0.0:
        return None
    return 10.0 * math.log10(value / r_c)


def cmd_exponents(args, params: ScenarioParams, receiver: ReceiverConfig, _grid) -> None:
    report = asymptotic_exponents(params)
    notes: List[str] = []
    rows: List[Tuple[str, Optional[float], str]] = [
        ("r_q_closed", report.r_q, "kappa*n_s/n_b"),
        ("r_c_closed", report.r_c, "kappa*n_s/(4 n_b)"),
        ("r_c_hom_closed", report.r_c_hom, "kappa*n_s/(4 n_b + 2)"),
    ]

    s_q, ln_q_min, _ = gaussian_chernoff(params)
    rows.append(("r_q_numeric", -ln_q_min, f"gaussian chernoff, s*={s_q:.4f}"))
    rows.append(("r_c_numeric", _coherent_exponent(params), "exact closed form, s*=0.5000"))

    gain, gain_note = resolve_gain(params, receiver.gain)
    notes.append(f"gain: {gain_note}")
    r_opa, r_b_exact, r_b_small, r_b_ratio = _opa_exponents(params, gain)
    if gain is None:
        rows.append(("g_star", None, gain_note))
        rows.append(("r_opa", r_opa, "degenerate (kappa=0)"))
        rows.append(("r_b_exact", r_b_exact, "degenerate (kappa=0)"))
        rows.append(("r_b_small_gain", r_b_small, "degenerate (kappa=0)"))
    else:
        # under gain=auto resolve_gain already ran the search
        g_star = gain if receiver.gain == GAIN_AUTO else optimize_gain(params)[0]
        rows.append(("g_star", g_star, "argmax of r_opa"))
        rows.append(("r_opa", r_opa, f"at G={gain!r}"))
        rows.append(("r_b_exact", r_b_exact, "-ln Q_B"))
        rows.append(("r_b_small_gain", r_b_small, "series form"))
    if not math.isnan(r_b_ratio):
        rows.append(("r_b_ratio", r_b_ratio, "r_b_exact/(kappa*n_s/2n_b)"))

    rows.append(("db_opa_vs_r_c", _db_gain(r_opa, report.r_c), "10 log10(r_opa/r_c)"))
    rows.append(("db_r_b_vs_r_c", _db_gain(r_b_exact, report.r_c), "10 log10(r_b/r_c)"))
    rows.append(("db_r_q_vs_r_c", _db_gain(report.r_q, report.r_c), "10 log10(r_q/r_c)"))

    width = max(len(name) for name, _, _ in rows)
    for name, value, note in rows:
        shown = _UNDEF if value is None else repr(float(value))
        print(f"{name:<{width}}  {shown:<24} {note}")

    if args.out is not None:
        _write_outputs(args, params, receiver, ["quantity", "value", "note"], rows, notes,
                       count_rows=False)


def cmd_sweep(args, params: ScenarioParams, receiver: ReceiverConfig,
              points: List[Tuple[float, ScenarioParams]]) -> None:
    columns = [args.axis, "r_q", "r_c", "r_c_hom", "regime_ok",
               "gain", "r_opa", "r_b_exact", "r_b_small_gain", "r_b_ratio"]
    scenarios = SimpleNamespace(**{name: np.array([getattr(p, name) for _, p in points])
                                   for name in ("n_s", "kappa", "n_b")})
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = list(zip(*(np.asarray(col).tolist() for col in _sweep_row(
                args.axis, receiver.gain, np.array([v for v, _ in points]), scenarios))))
    except (QIError, OverflowError):
        # one point at a time: its row, or the refusal of the first point that fails
        rows = [_sweep_row(args.axis, receiver.gain, v, point) for v, point in points]
    _write_outputs(args, params, receiver, columns, rows, [],
                   axis=args.axis, grid=",".join(repr(v) for v, _ in points))


def _sweep_row(axis: str, gain_spec, value, point) -> list:
    """One sweep row, or with arrays in value and point's fields, its columns."""
    report = asymptotic_exponents(point)
    gain = value if axis == "gain" else resolve_gain(point, gain_spec)[0]
    regime_ok = 1 * _in_regime(point.n_s, point.kappa, point.n_b)  # 0 or 1
    return [value, report.r_q, report.r_c, report.r_c_hom, regime_ok, gain,
            *_opa_exponents(point, gain)]


# --- argument parsing -----------------------------------------------------------


def _enum_metavar(enum) -> str:
    """The {a,b} that argparse would show for choices; parse_value checks the text."""
    return "{" + ",".join(member.value for member in enum) + "}"


# (flag, add_argument options) that every subcommand takes, ahead of --out
_COMMON_FLAGS = (
    ("--config", dict(metavar="PATH",
                      help="flat key=value scenario file (default: built-in example scenario)")),
    ("--tail-tol", dict(type=float, default=1e-9, metavar="TOL",
                        help="truncation tail tolerance (default 1e-9)")),
    ("--gain", dict(metavar="G", help=f"OPA gain: number > 1, '{GAIN_AUTO}' or '{GAIN_BHATT}'")),
    ("--threshold-policy", dict(metavar=_enum_metavar(ThresholdPolicy),
                                help="threshold selection rule for the OPA receiver")),
    ("--count-model", dict(metavar=_enum_metavar(CountModel),
                           help="photon counting statistics at the OPA output")),
)

# A grid: the flags after --out that set it, and the reader that main calls
# on (args, params) before any work, so that a bad grid is a usage error.
_NO_GRID = ((), lambda args, params: None)
_K_GRID = ((
    ("--k-min", dict(type=float, default=1e4, help="smallest K (default 1e4)")),
    ("--k-max", dict(type=float, default=1e8, help="largest K (default 1e8)")),
    ("--k-points", dict(type=int, default=30,
                        help="log-spaced grid size before integer dedup (default 30)")),
), lambda args, params: _k_grid(args.k_min, args.k_max, args.k_points))
_SWEEP_GRID = ((
    ("--axis", dict(required=True, choices=["kappa", "n_s", "n_b", "gain"],
                    help="parameter to vary")),
    ("--grid", dict(required=True, metavar="V1,V2,...", help="comma-separated grid values")),
), lambda args, params: _sweep_points(params, args.axis, _parse_grid(args.grid)))


def _out_flag(default: Optional[str]):
    text = ("also write CSV artifacts to DIR" if default is None
            else f"output directory (default {default!r})")
    return "--out", dict(metavar="DIR", default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Entangled vs classical target-detection error bounds and receivers.",
    )
    parser.add_argument("--version", action="version", version=f"qillum {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    # Each subcommand once: help line, --out default (None: the CSV only on
    # request) and grid.  Its runner is cmd_<name>.
    for name, help_line, out, (grid_flags, read_grid) in (
        ("bounds", "error-probability sandwich for both transmitters over a K grid", ".",
         _K_GRID),
        ("helstrom", "per-pair optimal measurement + majority vote vs the OPA receiver", ".",
         _K_GRID),
        ("exponents", "closed-form and numeric error exponents for one scenario", None,
         _NO_GRID),
        ("sweep", "exponent report along a grid of one parameter", ".", _SWEEP_GRID),
    ):
        sub = commands.add_parser(name, help=help_line)
        for flag, options in (*_COMMON_FLAGS, _out_flag(out), *grid_flags):
            sub.add_argument(flag, **options)
        sub.set_defaults(read_grid=read_grid)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        params, receiver = _load_setup(args)
        grid = args.read_grid(args, params)
    except (ParseError, DomainError) as exc:
        print(f"qillum: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qillum: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        # looked up on every call, so wrappers installed on cmd_* see each command
        globals()["cmd_" + args.command](args, params, receiver, grid)
    except QIError as exc:
        print(f"qillum: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, OSError) as exc:
        print(f"qillum: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"qillum: float overflow ({exc})", file=sys.stderr)
        return 1
    return 0
