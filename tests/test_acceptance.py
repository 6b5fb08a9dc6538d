"""Acceptance checks at the reference operating point.

Each test prints exactly one line, criterion number first, then PASS or
FAIL with the measured numbers, so the terminal log doubles as a report.
Three criteria fail for reasons documented next to the assertions: the
numeric Chernoff exponent of the entangled pair sits 21% below its
bright-background asymptote at n_b=20 (criterion 2), the exact
Bhattacharyya exponent at the eps^2 = n_s/sqrt(n_b) gain walks away from
kappa n_s / 2 n_b instead of approaching it (criterion 6), and the
majority vote over per-pair optimal measurements trails the collective
photon-count receiver at every tested K (criterion 7, middle clause).
"""

import math
import time

import numpy as np
import pytest

from qillum import (
    ScenarioParams,
    asymptotic_exponents,
    error_prob_bounds,
    homodyne_error,
    majority_vote_error,
    opa_bhattacharyya,
    opa_error_exact,
    opa_output_means,
    optimize_gain,
    q_s,
    qcb,
)
from qillum.cli import _k_grid, main

from oracles import hermiticity_defect, min_eigenvalue, moments_check, opa_count_pmf


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def ref_overlaps(spdc_pair, coherent_pair):
    """(q_half, q_qcb) per transmitter, shared by criteria 2 and 8."""
    _, q_qcb_q, _ = qcb(*spdc_pair)
    _, q_qcb_c, _ = qcb(*coherent_pair)
    return {
        "quantum": (q_s(*spdc_pair, 0.5), q_qcb_q),
        "classical": (q_s(*coherent_pair, 0.5), q_qcb_c),
    }


def test_criterion_01_closed_form_exponents(ref_params):
    rep = asymptotic_exponents(ref_params)
    ok = (
        rep.r_q == 5.0e-6
        and rep.r_c == 1.25e-6
        and abs(rep.r_c_hom - 1.2195e-6) <= 1e-10
    )
    assert report(
        1, "closed-form exponents", ok,
        f"r_q={rep.r_q!r} r_c={rep.r_c!r} r_c_hom={rep.r_c_hom!r}",
    )


def test_criterion_02_numeric_chernoff(spdc_pair, coherent_pair):
    t0 = time.perf_counter()
    _, _, exp_q = qcb(*spdc_pair)
    t_q = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, _, exp_c = qcb(*coherent_pair)
    t_c = time.perf_counter() - t0

    ok_q = abs(exp_q - 5e-6) <= 0.10 * 5e-6
    ok_c = abs(exp_c - 1.25e-6) <= 0.10 * 1.25e-6
    ok_time = t_q <= 60.0 and t_c <= 60.0
    ok = ok_q and ok_c and ok_time
    # The entangled-pair exponent approaches kappa n_s/n_b only as n_b -> inf
    # and n_s -> 0 together; at n_s = 0.01 the ratio saturates near 0.827.
    # At n_b=20 the exact value is 21% short, so ok_q is genuinely false.
    # The classical pair is within 2.4%.
    assert report(
        2, "numeric chernoff vs asymptotes", ok,
        f"quantum {exp_q:.6e} ({exp_q / 5e-6:.4f} of 5e-6), "
        f"classical {exp_c:.6e} ({exp_c / 1.25e-6:.4f} of 1.25e-6), "
        f"runtimes {t_q:.2f}s/{t_c:.2f}s",
    )


def test_criterion_03_gain_optimization(ref_params):
    g_star, r_opa = optimize_gain(ref_params)
    excess = g_star - 1.0
    ok = abs(excess - 5e-3) <= 0.25 * 5e-3 and abs(r_opa - 2e-6) <= 0.10 * 2e-6
    assert report(
        3, "gain optimization", ok,
        f"g*-1={excess:.6e}, r_opa={r_opa:.6e}",
    )


def test_criterion_04_bhattacharyya_consistency(ref_params):
    q_b, _, _ = opa_bhattacharyya(ref_params, 1.005)
    n0, n1 = opa_output_means(ref_params, 1.005)
    n = np.arange(0, 2001)
    series = float(
        np.sqrt(opa_count_pmf(n0, 1, n) * opa_count_pmf(n1, 1, n)).sum()
    )
    ok_series = abs(q_b - series) <= 1e-10
    worst_margin = math.inf
    for k in (1, 10, 10**3, 10**6):
        pe, _ = opa_error_exact(ref_params, 1.005, k, "optimal_scan")
        worst_margin = min(worst_margin, 0.5 * q_b**k - pe)
    ok = ok_series and worst_margin >= 0.0
    assert report(
        4, "bhattacharyya consistency", ok,
        f"|closed-series|={abs(q_b - series):.2e}, "
        f"min(bound-error)={worst_margin:.3e}",
    )


def test_criterion_05_exponent_sandwich(ref_params):
    g_star, _ = optimize_gain(ref_params)
    pe, _ = opa_error_exact(ref_params, g_star, 10**7, "optimal_scan")
    measured = -math.log(2.0 * pe) / 1e7
    ratio = measured / 1.25e-6
    ok = 1.25e-6 < measured < 5e-6 and 1.4 <= ratio <= 2.2
    assert report(
        5, "measured exponent sandwich", ok,
        f"measured={measured:.6e}, ratio to classical={ratio:.4f}",
    )


def test_criterion_06_bright_background_bhattacharyya():
    ratios = {}
    for n_b in (1e2, 1e3, 1e4):
        params = ScenarioParams(0.01, 0.01, n_b)
        g = 1.0 + params.n_s / math.sqrt(params.n_b)
        _, r_b_exact, _ = opa_bhattacharyya(params, g)
        ratios[n_b] = r_b_exact / (params.kappa * params.n_s / (2.0 * params.n_b))
    ok = (
        0.7 <= ratios[1e2] <= 1.0
        and 0.97 <= ratios[1e4] <= 1.0
        and ratios[1e2] < ratios[1e3] < ratios[1e4]
    )
    # The exact exponent at this gain preset moves away from the
    # kappa n_s / 2 n_b limit as n_b grows (the discarded eps^4 term scales
    # like n_s^2 n_b), so the monotone approach genuinely does not happen.
    assert report(
        6, "bright-background exponent ratio", ok,
        "ratios " + ", ".join(f"{k:g}:{v:.4f}" for k, v in ratios.items()),
    )


def test_criterion_07_separable_helstrom(ref_params, ref_helstrom):
    g_star, _ = optimize_gain(ref_params)
    pe_opa_single, _ = opa_error_exact(ref_params, g_star, 1, "optimal_scan")
    single_ok = ref_helstrom.pe_single < pe_opa_single

    grid = [10**4, 10**5, 10**6, 3 * 10**6, 10**7]
    excess = []
    for k in grid:
        maj = majority_vote_error(ref_helstrom.pe_single, ref_helstrom.pe_single, k)
        opa, _ = opa_error_exact(ref_params, g_star, k, "optimal_scan")
        excess.append(maj - opa)
    curve_ok = all(e <= 0.0 for e in excess)

    fit_ks = np.array([10**6, 2 * 10**6, 5 * 10**6, 10**7], dtype=float)
    ln_maj = np.array([
        math.log(majority_vote_error(ref_helstrom.pe_single, ref_helstrom.pe_single, int(k)))
        for k in fit_ks
    ])
    ln_opa = np.array([
        math.log(opa_error_exact(ref_params, g_star, int(k), "optimal_scan")[0])
        for k in fit_ks
    ])
    slope_ratio = float(np.polyfit(fit_ks, ln_maj, 1)[0] / np.polyfit(fit_ks, ln_opa, 1)[0])
    slope_ok = 0.85 <= slope_ratio <= 1.15

    ok = single_ok and curve_ok and slope_ok
    # The middle clause fails: one-pair projective measurements followed by
    # a vote discard likelihood weight, and here that costs more than the
    # small per-pair advantage buys, at every K on the grid.
    assert report(
        7, "separable helstrom vs photon counting", ok,
        f"single-shot strict={single_ok}, vote<=opa at all K={curve_ok} "
        f"(max excess {max(excess):.3e}), slope ratio={slope_ratio:.4f}",
    )


def test_criterion_08_bound_sandwich(ref_params, ref_overlaps):
    ks = _k_grid(1e4, 1e8, 30)
    slack = 1e-12
    order_ok = True
    hom_ok = True
    for k in ks:
        triples = {
            name: error_prob_bounds(math.log(q_half), math.log(q_qcb), k)
            for name, (q_half, q_qcb) in ref_overlaps.items()
        }
        for b in triples.values():
            lower, upper_qcb, upper_bhatt = (
                10.0**leg for leg in (b.log10_lower, b.log10_upper_qcb, b.log10_upper_bhatt))
            if not (lower <= upper_qcb + slack and upper_qcb <= upper_bhatt + slack):
                order_ok = False
        _, log10_hom = homodyne_error(ref_params, k)
        b_c = triples["classical"]
        if not (b_c.log10_lower - slack <= log10_hom <= b_c.log10_upper_qcb + slack):
            hom_ok = False
    ok = order_ok and hom_ok
    assert report(
        8, "bound ordering and homodyne placement", ok,
        f"{len(ks)} grid points, ordering={order_ok}, homodyne between "
        f"classical bounds={hom_ok}",
    )


def test_criterion_09_state_construction(ref_params, ref_trunc, spdc_pair):
    from qillum import build_rho0, build_rho1

    rho0, rho1 = spdc_pair
    herm = max(hermiticity_defect(rho0), hermiticity_defect(rho1))
    trace_min = min(rho0.trace(), rho1.trace())
    eig_min = min(min_eigenvalue(rho0), min_eigenvalue(rho1))

    dark = ScenarioParams(ref_params.n_s, 0.0, ref_params.n_b)
    a = build_rho0(dark, ref_trunc)
    b = build_rho1(dark, ref_trunc)
    dark_diff = max(float(np.abs(a.blocks[d] - b.blocks[d]).max()) for d in a.blocks)

    rep = moments_check(rho1)
    targets = {
        "mean_n_r": ref_params.kappa * ref_params.n_s + ref_params.n_b,
        "mean_n_i": ref_params.n_s,
        "cross_corr": math.sqrt(
            ref_params.kappa * ref_params.n_s * (1.0 + ref_params.n_s)
        ),
    }
    moment_dev = max(
        abs(getattr(rep, name) - want) / want for name, want in targets.items()
    )

    ok = (
        herm <= 1e-12
        and trace_min >= 1.0 - 1e-6
        and eig_min >= -1e-10
        and dark_diff <= 1e-14
        and moment_dev <= 1e-4
    )
    assert report(
        9, "state construction", ok,
        f"herm={herm:.1e}, trace>={trace_min:.9f}, min_eig={eig_min:.1e}, "
        f"kappa0_diff={dark_diff:.1e}, moment_dev={moment_dev:.1e}",
    )


def test_criterion_10_artifact_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_s = 0.01\nkappa = 0.01\nn_b = 20.0\n", encoding="ascii")
    args = ["bounds", "--config", str(cfg)]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    same = (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    assert report(
        10, "artifact determinism", ok,
        f"exit codes {rc1}/{rc2}, byte-identical={same}",
    )
