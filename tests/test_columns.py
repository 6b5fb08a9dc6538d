"""K-tables, sweeps and rho1 evaluated as whole arrays, against the scalar
code they replaced (tests/oracles.py): every value must match bit for bit,
and each column must be one call."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import oracles
import qillum.cli
import qillum.fockspace
import qillum.receivers
from qillum import (
    CountModel,
    ScenarioParams,
    ThresholdPolicy,
    TruncationSpec,
    build_rho1,
    error_prob_bounds,
    half_erfc_sqrt,
    homodyne_error,
    majority_vote_error,
    opa_error_exact,
    opa_output_means,
    optimize_gain,
)
from qillum.cli import _k_grid, _sweep_points, _sweep_row, main
from qillum.receivers import _lr_threshold, _threshold_error

SCENARIOS = [ScenarioParams(0.01, 0.01, 20.0), ScenarioParams(0.01, 0.3, 1.0),
             ScenarioParams(1e-4, 0.01, 1e4), ScenarioParams(1.0, 0.95, 0.05)]
GAINS = [1.005, 1.0 + 1e-6, 1.3, 1e3]
# the benchmark grid, small K where thresholds hit their edges, and K past 2**53
KS = sorted(set(_k_grid(1e4, 1e8, 30)) | {1, 2, 3, 7, 10, 99, 1000, 2**53 + 2, 10**20})


def same(a, b) -> bool:
    """Equal as floats bit for bit, or both undefined (None or nan)."""
    undefined = (a is None or a != a), (b is None or b != b)
    return undefined == (True, True) or (not any(undefined) and a == b)


@pytest.mark.parametrize("count_model", list(CountModel))
@pytest.mark.parametrize("policy", list(ThresholdPolicy))
@pytest.mark.parametrize("params", SCENARIOS, ids=lambda p: f"{p.n_s}-{p.kappa}-{p.n_b}")
def test_opa_error_exact_per_k(params, policy, count_model):
    for gain in GAINS:
        try:
            want = [oracles.opa_error_exact(params, gain, k, policy, count_model) for k in KS]
        except qillum.DomainError as exc:
            with pytest.raises(qillum.DomainError, match=str(exc)[:20]):
                opa_error_exact(params, gain, KS, policy, count_model)
            continue
        pe, t = opa_error_exact(params, gain, KS, policy, count_model)
        assert pe.tolist() == [p for p, _ in want]
        assert t.tolist() == [tk for _, tk in want]
        assert all(type(tk) is int for tk in t.tolist())
        for k, (p, tk) in zip(KS[:12], want):  # the int form is the same function
            assert opa_error_exact(params, gain, k, policy, count_model) == (p, tk)


def test_identical_laws_give_chance_per_k():
    params = ScenarioParams(0.01, 0.0, 5.0)
    pe, t = opa_error_exact(params, 1.005, [1, 10, 100], "optimal_scan")
    assert pe.tolist() == [0.5] * 3 and t is None
    assert opa_error_exact(params, 1.005, 10, "optimal_scan") == (0.5, None)


@pytest.fixture()
def exact_calls(monkeypatch):
    calls = []
    exact = qillum.receivers._lr_threshold_exact

    def recording(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(qillum.receivers, "_lr_threshold_exact", recording)
    return calls


@pytest.mark.parametrize("clicks", [False, True])
def test_near_tie_takes_the_decimal_route_alone(clicks, exact_calls):
    """Put K = 1000 within 1e-13 of a tie, next to K that the float ratio
    certifies: only the tie takes the decimal route, and every element is
    the threshold that its K alone gets."""
    n0, n1_ref = opa_output_means(SCENARIOS[0], 1.005)

    def ratio(x):
        m1, m0 = mpmath.mpf(x), mpmath.mpf(n0)
        r = m1 / m0 if clicks else m1 * (1 + m0) / (m0 * (1 + m1))
        return 1000 * mpmath.log((1 + m1) / (1 + m0)) / mpmath.log(r)

    with mpmath.workdps(50):
        m = int(mpmath.nint(ratio(n1_ref)))
        n1 = float(mpmath.findroot(lambda x: ratio(x) - m, mpmath.mpf(n1_ref)))
    ks = [10, 999, 1000, 1001]
    t = _lr_threshold(n0, n1, ks, clicks)
    assert [k for _, _, k, _ in exact_calls] == [1000]
    assert t.tolist() == [oracles.lr_threshold(n0, n1, k, clicks) for k in ks]


@pytest.mark.parametrize("clicks", [False, True])
def test_threshold_edges(clicks):
    """t < 1 always decides target-present and a click threshold t > K never
    does: both at 1/2, next to ordinary thresholds."""
    t = np.array([0, 1, 5, 12, 11, 3], dtype=object)
    ks = np.array([4, 4, 10, 11, 11, 2], dtype=object)
    got = _threshold_error(t, ks, 0.2, 0.7, clicks)
    assert got.tolist() == [oracles.threshold_error(a, b, 0.2, 0.7, clicks)
                            for a, b in zip(t.tolist(), ks.tolist())]
    assert got[0] == 0.5 and (got[3] == 0.5) == clicks


@pytest.mark.parametrize("method", ["exact_binomial", "clt"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.4990375, 0.5, 0.5 + 5e-9])
def test_majority_vote_per_k(p, method):
    """Includes the p > 1/2 clip."""
    got = majority_vote_error(p, p, KS, method)
    assert got.tolist() == [oracles.majority_vote_error(p, p, k, method) for k in KS]
    assert majority_vote_error(p, p, 1001, method) == oracles.majority_vote_error(p, p, 1001, method)


@pytest.mark.parametrize("ln_q", [(-1e-5, -2e-5), (-0.3, -0.5), (0.0, 0.0), (-1e-12, -1e-12)])
def test_error_prob_bounds_per_k(ln_q):
    got = error_prob_bounds(*ln_q, KS)
    want = [oracles.error_prob_bounds(*ln_q, k) for k in KS]
    assert [got.log10_lower.tolist(), got.log10_upper_qcb.tolist(),
            got.log10_upper_bhatt.tolist()] == [list(leg) for leg in zip(*want)]
    one = error_prob_bounds(*ln_q, 7)
    assert (one.log10_lower, one.log10_upper_qcb, one.log10_upper_bhatt) == \
        oracles.error_prob_bounds(*ln_q, 7)


@pytest.mark.parametrize("params", SCENARIOS, ids=lambda p: f"{p.n_s}-{p.kappa}-{p.n_b}")
def test_homodyne_and_erfc_per_k(params):
    p, log10_p = homodyne_error(params, KS)
    want = [oracles.homodyne_error(params, k) for k in KS]
    assert (p.tolist(), log10_p.tolist()) == tuple(list(leg) for leg in zip(*want))
    ys = [0.0, 1e-300, 0.3, 10.0, 1e6]
    p, log10_p = half_erfc_sqrt(np.array(ys))
    assert list(zip(p.tolist(), log10_p.tolist())) == [oracles.half_erfc_sqrt(y) for y in ys]


def columns_of(points):
    return SimpleNamespace(**{name: np.array([getattr(p, name) for p in points])
                              for name in ("n_s", "kappa", "n_b")})


def test_gain_search_over_columns():
    """One search for all scenarios, element by element the scalar search's
    G* and R_OPA."""
    points = [ScenarioParams(n_s, kappa, n_b) for n_s in (1e-3, 0.01, 0.5)
              for kappa in (1e-3, 0.3, 1.0) for n_b in (0.01, 1.0, 20.0, 1e4)]
    g_star, r_opa = optimize_gain(columns_of(points))
    for p, g, r in zip(points, g_star.tolist(), r_opa.tolist()):
        assert (g, r) == oracles.optimize_gain(p) == optimize_gain(p)


def test_gain_search_over_columns_refuses_a_flat_objective():
    """kappa = 0 has no optimum: one scenario says so with None, arrays refuse."""
    assert optimize_gain(ScenarioParams(0.01, 0.0, 20.0)) == (None, 0.0)
    with pytest.raises(qillum.DomainError, match="kappa > 0"):
        optimize_gain(columns_of([ScenarioParams(0.01, 0.01, 20.0), ScenarioParams(0.01, 0.0, 20.0)]))


SWEEPS = {"kappa": [0.0, 1e-3, 0.01, 0.5, 1.0], "n_s": [1e-3, 0.01, 0.5, 3.0],
          "n_b": [0.5, 1.0, 10.0, 1e4, 1e6], "gain": [1.0001, 1.005, 1.3, 2.0, 1e20]}


@pytest.mark.parametrize("gain", ["auto", "bhatt", 1.005])
@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_columns(axis, gain):
    """A sweep's columns in one call, and each point's row on its own,
    against the per-point loop."""
    base = ScenarioParams(0.01, 0.01, 20.0)
    points = _sweep_points(base, axis, SWEEPS[axis])
    want = oracles.sweep_rows(axis, gain, points)
    if axis == "kappa" and gain == "auto":  # kappa = 0 has no gain: one point at a time
        with pytest.raises(qillum.DomainError, match="kappa > 0"):
            _sweep_row(axis, gain, np.array(SWEEPS[axis]), columns_of([p for _, p in points]))
    else:
        got = _sweep_row(axis, gain, np.array(SWEEPS[axis]), columns_of([p for _, p in points]))
        for row, ref in zip(zip(*(np.asarray(col).tolist() for col in got)), want):
            assert all(same(a, b) for a, b in zip(row, ref)), (row, ref)
            assert [type(v) for v in row] == [float, float, float, float, int] + [float] * 5
    for (value, point), ref in zip(points, want):
        assert all(same(a, b) for a, b in zip(_sweep_row(axis, gain, value, point), ref))


@pytest.mark.parametrize("gain", ["auto", "bhatt", "1.005"])
@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_csv_rows(tmp_path, capsys, axis, gain):
    """The CSV rows, also where a kappa = 0 point sends the sweep one point at a time."""
    grid = ",".join(repr(v) for v in SWEEPS[axis])
    assert main(["sweep", "--axis", axis, "--grid", grid, "--gain", gain,
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    points = _sweep_points(ScenarioParams(0.01, 0.01, 20.0), axis, SWEEPS[axis])
    spec = gain if gain in ("auto", "bhatt") else float(gain)
    assert rows == [",".join(qillum.cli._fmt(v) for v in row)
                    for row in oracles.sweep_rows(axis, spec, points)]


RHO1_GRID = [(n_s, kappa, n_b) for n_b in (1.0, 8.0, 20.0, 100.0)
             for kappa in (0.0, 0.01, 0.3, 1.0) for n_s in (0.01, 0.5)]


@pytest.mark.parametrize("n_s, kappa, n_b", RHO1_GRID)
def test_build_rho1_matches_positions(n_s, kappa, n_b):
    params = ScenarioParams(n_s, kappa, n_b)
    trunc = TruncationSpec.for_params(params, tail_tol=1e-9)
    assert np.array_equal(build_rho1(params, trunc).stack,
                          oracles.build_rho1(params, trunc).stack)


# --- one call per column -----------------------------------------------------

@pytest.fixture()
def betainc_calls(monkeypatch):
    calls = []
    kernel = qillum.receivers.betainc

    def counting(*args):
        calls.append(np.size(args[0]))
        return kernel(*args)

    monkeypatch.setattr(qillum.receivers, "betainc", counting)
    return calls


@pytest.mark.parametrize("command, columns", [("bounds", 1), ("helstrom", 2)])
def test_one_betainc_pair_per_column(tmp_path, capsys, betainc_calls, command, columns):
    """The exact OPA column (and helstrom's exact vote) take their tails
    in one betainc pair over the whole K grid."""
    assert main([command, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert betainc_calls == [30] * (2 * columns)


@pytest.mark.parametrize("axis, searches", [("n_b", 1), ("kappa", 1), ("n_s", 1), ("gain", 0)])
def test_one_gain_search_per_sweep(tmp_path, capsys, monkeypatch, axis, searches):
    calls = []
    search = qillum.receivers.golden_section_min

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(qillum.receivers, "golden_section_min", counting)
    grid = ",".join(repr(v) for v in SWEEPS[axis][1:])
    assert main(["sweep", "--axis", axis, "--grid", grid, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == searches


def test_build_rho1_passes(monkeypatch):
    """One exp per series index t in the summing round, and one for the
    elements: n_i_max + 2 in all, where one (column, offset) position at a
    time took two per position."""
    params = ScenarioParams(0.01, 0.01, 20.0)
    trunc = TruncationSpec.for_params(params, tail_tol=1e-9)
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            calls.append(np.shape(args[0]))
            return np.exp(*args, **kwargs)

    monkeypatch.setattr(qillum.fockspace, "np", CountingNumpy())
    build_rho1(params, trunc)
    assert len(calls) <= trunc.n_i_max + 2


# --- kappa = 1 with 1 + n_b rounding to 1 ------------------------------------

@pytest.mark.parametrize("n_s, n_b, pe", [(0.0258, 3.9e-105, 0.41517), (0.5, 1e-20, 0.16667)])
def test_lossless_return_in_a_dark_background(tmp_path, capsys, n_s, n_b, pe):
    """eta = kappa/(1 + n_b) rounds to 1, and ln(1 - eta) is taken as
    ln(n_b/(1 + n_b)): helstrom runs, and pe_single lies inside the K = 1
    Gaussian sandwich."""
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"n_s = {n_s!r}\nkappa = 1\nn_b = {n_b!r}\n", encoding="ascii")
    assert main(["helstrom", "--config", str(cfg), "--out", str(tmp_path), "--k-points", "3"]) == 0
    capsys.readouterr()
    note = [line for line in (tmp_path / "meta.txt").read_text().splitlines()
            if line.startswith("note=helstrom single shot:")][0]
    pe_single = float(note.split("pe=")[1].split()[0])
    assert pe_single == pytest.approx(pe, abs=1e-5)
    _, ln_q_min, ln_q_half = qillum.gaussian_chernoff(ScenarioParams(n_s, 1.0, n_b))
    sandwich = error_prob_bounds(ln_q_half, ln_q_min, 1)
    assert 10 ** sandwich.log10_lower <= pe_single <= 10 ** sandwich.log10_upper_qcb
    assert math.isfinite(pe_single)
