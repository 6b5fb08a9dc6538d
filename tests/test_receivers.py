"""Receiver error probabilities against enumeration, closed forms and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import betainc

from qillum import (
    CountModel,
    DomainError,
    ScenarioParams,
    TruncationSpec,
    error_prob_bounds,
    half_erfc_sqrt,
    helstrom_single_shot,
    homodyne_error,
    majority_vote_error,
    opa_bhattacharyya,
    opa_error_exact,
    opa_error_gaussian,
    opa_output_means,
    optimize_gain,
    q_s,
    qcb,
    resolve_gain,
)
from qillum import receivers
from qillum.fockspace import JointState
from qillum.receivers import _lr_threshold

from oracles import idler_photon_pmf, min_eigenvalue, opa_count_pmf

REF = ScenarioParams(n_s=0.01, kappa=0.01, n_b=20.0)
G_REF = 1.005
BRIGHT = ScenarioParams(n_s=0.01, kappa=0.3, n_b=1.0)
BENCH_KS = sorted({int(round(v)) for v in np.logspace(4, 8, 30)})

SCAN_SIGMAS = 12.0


def _first_minimizer(ts, upper, lower):
    pe = 0.5 * (upper + lower)
    i = int(np.argmin(pe))
    return int(ts[i]), float(pe[i])


def scan_count_threshold(stats, K):
    """Brute-force oracle: every integer threshold within 12 pooled deviations
    of the means, first minimizer of the negative-binomial error wins."""
    sk = math.sqrt(K)
    lo = max(0, math.floor(K * stats.n0 - SCAN_SIGMAS * stats.sigma0 * sk))
    hi = math.ceil(K * stats.n1 + SCAN_SIGMAS * stats.sigma1 * sk)
    ts = np.arange(lo, hi + 1, dtype=float)
    upper, lower = np.ones_like(ts), np.zeros_like(ts)
    pos = ts >= 1.0
    upper[pos] = betainc(ts[pos], float(K), stats.n0 / (1.0 + stats.n0))
    lower[pos] = betainc(float(K), ts[pos], 1.0 / (1.0 + stats.n1))
    return _first_minimizer(ts, upper, lower)


def scan_click_threshold(stats, K):
    """The same oracle for Binomial(K, q_m) click counts, q_m = N_m/(1+N_m)."""
    q0 = stats.n0 / (1.0 + stats.n0)
    q1 = stats.n1 / (1.0 + stats.n1)
    sk = math.sqrt(K)
    lo = max(0, math.floor(K * q0 - SCAN_SIGMAS * math.sqrt(q0 * (1.0 - q0)) * sk))
    hi = min(K + 1, math.ceil(K * q1 + SCAN_SIGMAS * math.sqrt(q1 * (1.0 - q1)) * sk) + 1)
    ts = np.arange(lo, hi + 1, dtype=float)
    upper, lower = np.ones_like(ts), np.zeros_like(ts)
    upper[ts > K], lower[ts > K] = 0.0, 1.0
    mid = (ts >= 1.0) & (ts <= K)
    upper[mid] = betainc(ts[mid], K - ts[mid] + 1.0, q0)
    lower[mid] = betainc(K - ts[mid] + 1.0, ts[mid], 1.0 - q1)
    return _first_minimizer(ts, upper, lower)


def mp_lr_ratio(n0, n1, K, clicks):
    """K ln((1+N1)/(1+N0)) / ln r to 50 digits: t ln r >= K ln(...) iff
    t >= this ratio."""
    with mpmath.workdps(50):
        m0, m1 = mpmath.mpf(n0), mpmath.mpf(n1)
        r = m1 / m0 if clicks else m1 * (1 + m0) / (m0 * (1 + m1))
        return K * mpmath.log((1 + m1) / (1 + m0)) / mpmath.log(r)


class TestHalfErfcSqrt:
    @pytest.mark.parametrize("y", [0.0, 1e-6, 0.3, 1.0, 10.0, 100.0, 700.0])
    def test_against_mpmath(self, y):
        p, log10_p = half_erfc_sqrt(y)
        want = mpmath.erfc(mpmath.sqrt(y)) / 2
        assert p == pytest.approx(float(want), rel=1e-12)
        assert log10_p == pytest.approx(float(mpmath.log10(want)), abs=1e-10)

    def test_log_leg_survives_underflow(self):
        p, log10_p = half_erfc_sqrt(10000.0)
        assert p == 0.0
        want = mpmath.log10(mpmath.erfc(mpmath.sqrt(10000.0)) / 2)
        assert log10_p == pytest.approx(float(want), abs=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            half_erfc_sqrt(-1e-12)


class TestHomodyne:
    def test_kappa_zero_is_chance(self):
        p, log10_p = homodyne_error(ScenarioParams(0.01, 0.0, 20.0), 10**6)
        assert p == 0.5
        assert log10_p == pytest.approx(math.log10(0.5), abs=1e-15)

    def test_single_mode_reference(self):
        p, _ = homodyne_error(REF, 1)
        assert p == pytest.approx(0.4993769570862024, rel=1e-12)
        assert p == pytest.approx(0.499377, abs=1e-6)

    def test_exponent_times_k_equals_five(self):
        # kappa n_s K / (4 n_b + 2) = 1e-4 * 4.1e6 / 82 = 5 exactly
        p, _ = homodyne_error(REF, 4_100_000)
        want, _ = half_erfc_sqrt(5.0)
        assert p == want
        assert p == pytest.approx(float(mpmath.erfc(mpmath.sqrt(5)) / 2), rel=1e-12)

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            homodyne_error(REF, 0)


class TestOpaOutputMeans:
    def test_reference_hand_values(self):
        st = opa_output_means(REF, G_REF)
        # N0 = 1.005*0.01 + 0.005*21, N1 adds the amplified cross term
        assert st.n0 == pytest.approx(0.11505, rel=1e-12)
        assert st.n1 == pytest.approx(0.1164753157775634, rel=1e-12)
        assert st.n1 - st.n0 == pytest.approx(1.425e-3, rel=1e-3)

    def test_sigma_identity(self):
        st = opa_output_means(REF, 1.02)
        assert st.sigma0**2 == pytest.approx(st.n0 * (st.n0 + 1.0), rel=1e-15)
        assert st.sigma1**2 == pytest.approx(st.n1 * (st.n1 + 1.0), rel=1e-15)
        assert st.n1 >= st.n0

    def test_kappa_zero_collapses(self):
        st = opa_output_means(ScenarioParams(0.01, 0.0, 20.0), 1.3)
        assert st.n1 == st.n0

    def test_gain_off_limit(self):
        st = opa_output_means(REF, 1.0 + 1e-12)
        assert st.n0 == pytest.approx(REF.n_s, abs=1e-9)
        assert st.n1 == pytest.approx(REF.n_s, abs=1e-7)

    @pytest.mark.parametrize("g", [1.0, 0.5, math.inf])
    def test_rejects_bad_gain(self, g):
        with pytest.raises(DomainError):
            opa_output_means(REF, g)


class TestOpaCountPmf:
    def test_dark_mode(self):
        assert opa_count_pmf(0.0, 5, 0) == 1.0
        assert opa_count_pmf(0.0, 5, 3) == 0.0

    def test_k_one_is_thermal(self):
        for n in range(6):
            assert opa_count_pmf(0.115, 1, n) == pytest.approx(
                idler_photon_pmf(0.115, n), rel=1e-13
            )

    def test_normalization(self):
        total = float(opa_count_pmf(0.115, 10, np.arange(201)).sum())
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [10, 1000])
    def test_moments_by_summation(self, k):
        n = np.arange(0, 3001)
        pmf = opa_count_pmf(0.115, k, n)
        mean = float(pmf @ n)
        var = float(pmf @ n**2) - mean**2
        assert mean == pytest.approx(k * 0.115, rel=1e-8)
        assert var == pytest.approx(k * 0.115 * 1.115, rel=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            opa_count_pmf(-0.1, 5, 0)
        with pytest.raises(DomainError):
            opa_count_pmf(0.1, 0, 0)
        with pytest.raises(DomainError):
            opa_count_pmf(0.1, 5, -1)
        with pytest.raises(DomainError):
            opa_count_pmf(0.1, 5, 1.5)


class TestOpaErrorExact:
    def test_kappa_zero_degenerate(self):
        pe, rule = opa_error_exact(ScenarioParams(0.01, 0.0, 20.0), G_REF, 5, "optimal_scan")
        assert pe == 0.5
        assert rule.degenerate

    def test_k_one_three_threshold_enumeration(self):
        """At K=1 the optimal threshold must be the best of {0, 1, 2}."""
        st = opa_output_means(REF, G_REF)
        p0 = [1.0 / (1.0 + st.n0), st.n0 / (1.0 + st.n0) ** 2]
        p1 = [1.0 / (1.0 + st.n1), st.n1 / (1.0 + st.n1) ** 2]
        candidates = {
            0: 0.5,  # always decide target-present
            1: 0.5 * ((1.0 - p0[0]) + p1[0]),
            2: 0.5 * ((1.0 - p0[0] - p0[1]) + p1[0] + p1[1]),
        }
        pe, rule = opa_error_exact(REF, G_REF, 1, "optimal_scan")
        assert pe == min(candidates.values())
        assert rule.threshold == 1
        assert pe == 0.5 * (st.n0 / (1.0 + st.n0) + 1.0 / (1.0 + st.n1))

    FROZEN_SCAN = {
        1: 0.49942754990836263,
        10: 0.4975623116704141,
        10**3: 0.47500066615000824,
        10**6: 0.023686178604069196,
    }

    def test_frozen_reference_curve(self):
        for k, want in self.FROZEN_SCAN.items():
            pe, _ = opa_error_exact(REF, G_REF, k, "optimal_scan")
            assert pe == pytest.approx(want, rel=1e-10)

    def test_scan_never_loses_to_formula_threshold(self):
        for k in (1, 10, 10**3, 10**5):
            pe_scan, _ = opa_error_exact(REF, G_REF, k, "optimal_scan")
            pe_formula, _ = opa_error_exact(REF, G_REF, k, "paper_formula")
            assert pe_scan <= pe_formula + 1e-12

    def test_monotone_in_copies(self):
        pes = [opa_error_exact(REF, G_REF, 2**j, "optimal_scan")[0] for j in range(15)]
        assert all(a >= b - 1e-15 for a, b in zip(pes, pes[1:]))

    def test_bhattacharyya_domination(self):
        q_b, _, _ = opa_bhattacharyya(REF, G_REF)
        for k in (1, 10, 10**3, 10**6):
            pe, _ = opa_error_exact(REF, G_REF, k, "optimal_scan")
            assert pe <= 0.5 * q_b**k

    @pytest.mark.parametrize("k", [10**5, 10**6])
    def test_log10_agreement_with_gaussian(self, k):
        pe, _ = opa_error_exact(REF, G_REF, k, "optimal_scan")
        pe_g, _ = opa_error_gaussian(REF, G_REF, k)
        assert abs(math.log10(pe) - math.log10(pe_g)) <= 0.15

    def test_measured_exponent_at_ten_million(self):
        """Exponent read off K=1e7 at the optimized gain: sits between the
        classical and quantum closed forms, about 1.74x the classical one."""
        opt = optimize_gain(REF)
        pe, _ = opa_error_exact(REF, opt.g_star, 10**7, "optimal_scan")
        assert pe == pytest.approx(1.7975858127120299e-10, rel=1e-6)
        measured = -math.log(2.0 * pe) / 1e7
        assert 1.25e-6 < measured < 5e-6
        assert measured / 1.25e-6 == pytest.approx(1.7397007359897965, rel=1e-6)

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            opa_error_exact(REF, G_REF, 0, "optimal_scan")

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            opa_error_exact(REF, G_REF, 1, "grid_search")

    @pytest.mark.parametrize("model", list(CountModel))
    def test_count_model_enum_or_string(self, model):
        for k in (1, 10**3, 10**6):
            by_enum = opa_error_exact(REF, G_REF, k, "optimal_scan", count_model=model)
            assert by_enum == opa_error_exact(REF, G_REF, k, "optimal_scan", model.value)

    def test_rejects_unknown_count_model(self):
        with pytest.raises(ValueError):
            opa_error_exact(REF, G_REF, 1, "optimal_scan", count_model="analog")


class TestHugeGain:
    """N1 >= N0, so every threshold test has P_e <= 1/2.  At huge explicit
    gains the tail arguments N0/(1+N0) and 1/(1+N1) round the two count
    laws together; opa_error_exact must then refuse, never return noise."""

    @pytest.mark.parametrize("params", [REF, BRIGHT], ids=["ref", "bright"])
    @pytest.mark.parametrize("model", list(CountModel))
    @pytest.mark.parametrize("policy", ["paper_formula", "optimal_scan"])
    def test_refuses_or_stays_at_most_half(self, params, model, policy):
        refused = 0
        for g in np.logspace(3, 20, 69):
            for k in (1, 10, 10**4, 10**8):
                try:
                    pe, _ = opa_error_exact(params, float(g), k, policy, model)
                except DomainError:
                    refused += 1
                    continue
                assert pe <= 0.5, (g, k, pe)
        assert refused > 0

    @pytest.mark.parametrize("params", [REF, BRIGHT], ids=["ref", "bright"])
    @pytest.mark.parametrize("model", list(CountModel))
    @pytest.mark.parametrize("policy", ["paper_formula", "optimal_scan"])
    def test_accepts_every_gain_up_to_one_and_a_half(self, params, model, policy):
        for g in 1.0 + np.logspace(-9, math.log10(0.5), 25):
            for k in (1, 10, 10**4, 10**8):
                pe, _ = opa_error_exact(params, float(g), k, policy, model)
                assert pe <= 0.5


@pytest.fixture()
def exact_calls(monkeypatch):
    """Arguments of every threshold that takes the 50-digit Decimal route."""
    calls = []
    exact = receivers._lr_threshold_exact

    def recording(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(receivers, "_lr_threshold_exact", recording)
    return calls


class TestLikelihoodRatioThreshold:
    """optimal_scan's closed-form threshold against the brute-force scan and
    against its defining inequality evaluated in mpmath."""

    def assert_matches_scan(self, params, G, K):
        stats = opa_output_means(params, G)
        t_scan, pe_scan = scan_count_threshold(stats, K)
        pe, rule = opa_error_exact(params, G, K, "optimal_scan")
        if pe_scan > 0.0:
            assert rule.threshold == t_scan
            assert pe == pe_scan
        t_scan, pe_scan = scan_click_threshold(stats, K)
        if pe_scan > 0.0:
            assert _lr_threshold(stats.n0, stats.n1, K, clicks=True) == t_scan
            pe, rule = opa_error_exact(params, G, K, "optimal_scan", count_model="on_off")
            assert rule.threshold == t_scan
            assert pe == pe_scan

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 10**3, 10**6])
    def test_matches_scan_at_reference(self, k):
        self.assert_matches_scan(REF, G_REF, k)

    @pytest.mark.parametrize("k", BENCH_KS)
    def test_matches_scan_on_bright_return(self, k):
        self.assert_matches_scan(BRIGHT, optimize_gain(BRIGHT).g_star, k)

    @pytest.mark.parametrize("clicks", [False, True])
    @pytest.mark.parametrize("k", [1, 10, 10**3, 10**6, 10**8])
    def test_smallest_integer_solving_the_inequality(self, k, clicks, exact_calls):
        stats = opa_output_means(REF, G_REF)
        t = _lr_threshold(stats.n0, stats.n1, k, clicks)
        assert t - 1 < mp_lr_ratio(stats.n0, stats.n1, k, clicks) <= t
        assert exact_calls == []  # the float route certifies ordinary ratios

    def test_oracle_sweep(self, exact_calls):
        """Seeded draws with n_b up to 1e4, G - 1 down to 1e-9 and K from 1
        to 1e8: every threshold, from the float route or the Decimal
        fallback, is the smallest integer at or above the 50-digit ratio."""
        rng = np.random.default_rng(20091105)
        draws = 2000
        for i in range(draws):
            params = ScenarioParams(n_s=10 ** rng.uniform(-4, 0), kappa=10 ** rng.uniform(-4, 0),
                                    n_b=10 ** rng.uniform(-2, 4))
            stats = opa_output_means(params, 1.0 + 10 ** rng.uniform(-9, math.log10(0.5)))
            k, clicks = int(10 ** rng.uniform(0, 8)), bool(i % 2)
            t = _lr_threshold(stats.n0, stats.n1, k, clicks)
            assert t - 1 < mp_lr_ratio(stats.n0, stats.n1, k, clicks) <= t
        assert len(exact_calls) <= draws // 100  # near ties are rare

    @pytest.mark.parametrize("clicks", [False, True])
    def test_near_integer_ratio(self, clicks, exact_calls):
        """Pick N1 so that K ln((1+N1)/(1+N0)) / ln r lands within 1e-13 of
        an integer, on either side; a float evaluation cannot resolve that."""
        k = 1000
        stats = opa_output_means(REF, G_REF)
        n0 = stats.n0
        m = int(mpmath.nint(mp_lr_ratio(n0, stats.n1, k, clicks)))
        with mpmath.workdps(50):
            root = float(mpmath.findroot(
                lambda x: mp_lr_ratio(n0, x, k, clicks) - m, mpmath.mpf(stats.n1)))
        sides = set()
        for n1 in (math.nextafter(root, 0.0), root, math.nextafter(root, 1.0)):
            gap = mp_lr_ratio(n0, n1, k, clicks) - m
            assert 0 < abs(gap) < 1e-13
            sides.add(gap > 0)
            assert _lr_threshold(n0, n1, k, clicks) == (m + 1 if gap > 0 else m)
        assert sides == {False, True}
        assert len(exact_calls) == 3  # no float ratio resolves a gap below 1e-13

    def test_numpy_integer_copies(self):
        pe, rule = opa_error_exact(REF, G_REF, np.int64(1000), "optimal_scan")
        assert (pe, rule) == opa_error_exact(REF, G_REF, 1000, "optimal_scan")
        assert opa_error_exact(REF, G_REF, np.int64(1000), "optimal_scan", "on_off") == \
            opa_error_exact(REF, G_REF, 1000, "optimal_scan", "on_off")

    def test_rule_is_the_bayes_threshold_where_the_scan_underflows(self):
        """Deep in the tail every threshold's error underflows to 0.0, so a
        scan cannot locate the minimum; the rule still reports the Bayes
        threshold."""
        g = optimize_gain(BRIGHT).g_star
        stats = opa_output_means(BRIGHT, g)
        pe, rule = opa_error_exact(BRIGHT, g, 10**8, "optimal_scan")
        assert pe == 0.0
        ratio = mp_lr_ratio(stats.n0, stats.n1, 10**8, clicks=False)
        assert rule.threshold - 1 < ratio <= rule.threshold


class TestOpaErrorGaussian:
    def test_reference_exponent(self):
        _, r_opa = opa_error_gaussian(REF, G_REF, 1)
        assert r_opa == pytest.approx(1.9660528658030234e-6, rel=1e-12)
        assert abs(r_opa - 2e-6) / 2e-6 <= 0.10

    def test_probability_matches_own_exponent(self):
        pe, r_opa = opa_error_gaussian(REF, G_REF, 5 * 10**6)
        want, _ = half_erfc_sqrt(r_opa * 5 * 10**6)
        assert pe == want
        # R_OPA*K = 9.83, not 10, so the erfc(sqrt(10)) waypoint is only coarse
        ref_point, _ = half_erfc_sqrt(10.0)
        assert abs(pe - ref_point) / ref_point <= 0.25

    def test_kappa_zero_is_chance(self):
        pe, r_opa = opa_error_gaussian(ScenarioParams(0.01, 0.0, 20.0), G_REF, 7)
        assert r_opa == 0.0
        assert pe == 0.5


class TestOptimizeGain:
    def test_reference_optimum(self):
        opt = optimize_gain(REF)
        assert opt.g_star is not None
        assert opt.g_star == pytest.approx(1.0050090653144212, rel=1e-9)
        assert opt.r_opa == pytest.approx(1.966053381836999e-6, rel=1e-9)

    def test_optimum_dominates_nearby_gains(self):
        opt = optimize_gain(REF)
        for g in (1.002, 1.005, 1.01):
            _, r = opa_error_gaussian(REF, g, 1)
            assert opt.r_opa >= r - 1e-18

    def test_unimodal_bracket(self):
        rs = [opa_error_gaussian(REF, g, 1)[1] for g in (1.002, 1.005, 1.01)]
        assert rs[0] < rs[1] and rs[1] > rs[2]

    def test_small_gain_window_at_bright_background(self):
        """n_b = 1000: the optimum lands in [n_s/n_b, 10/n_b] and beats a
        200-point log-spaced scan of the same objective."""
        params = ScenarioParams(0.01, 0.01, 1000.0)
        opt = optimize_gain(params)
        excess = opt.g_star - 1.0
        assert 1e-5 <= excess <= 1e-2
        grid = np.logspace(-6, math.log10(0.5), 200)
        scan = [opa_error_gaussian(params, 1.0 + float(e), 1)[1] for e in grid]
        i = int(np.argmax(scan))
        assert opt.r_opa >= max(scan) - 1e-18
        step = grid[1] / grid[0]
        assert grid[i] / step <= excess <= grid[i] * step

    def test_kappa_zero_degenerate(self):
        opt = optimize_gain(ScenarioParams(0.01, 0.0, 20.0))
        assert opt.g_star is None
        assert opt.r_opa == 0.0


class TestOpaBhattacharyya:
    def test_kappa_zero(self):
        q_b, r_ex, r_sm = opa_bhattacharyya(ScenarioParams(0.01, 0.0, 20.0), 1.3)
        assert q_b == pytest.approx(1.0, rel=1e-15)
        assert abs(r_ex) <= 1e-15
        assert r_sm == 0.0

    @pytest.mark.parametrize("gain", [1.0001, 1.005, 1.3, "bhatt"])
    def test_kappa_zero_is_exactly_zero(self, gain):
        """Identical count laws give q_b = 1 and r_b_exact = 0 exactly; the
        closed form would round 1/((1+N0) - N0) above one at some gains."""
        params = ScenarioParams(0.01, 0.0, 5.0)
        g, _ = resolve_gain(params, gain)
        assert opa_bhattacharyya(params, g)[:2] == (1.0, 0.0)

    def test_closed_form_equals_series(self):
        """Q_B from the closed form against a direct sqrt(p0 p1) summation."""
        q_b, _, _ = opa_bhattacharyya(REF, G_REF)
        st = opa_output_means(REF, G_REF)
        n = np.arange(0, 2001)
        series = float(
            np.sqrt(opa_count_pmf(st.n0, 1, n) * opa_count_pmf(st.n1, 1, n)).sum()
        )
        assert abs(q_b - series) <= 1e-10
        assert q_b == pytest.approx(0.9999980339452015, rel=1e-12)

    def test_small_gain_form_at_preset(self):
        g, note = resolve_gain(REF, "bhatt")
        assert g == pytest.approx(1.0022360679774998, rel=1e-15)
        _, r_ex, r_sm = opa_bhattacharyya(REF, g)
        assert r_sm == pytest.approx(1.946270800106587e-6, rel=1e-9)
        assert abs(r_sm - 1.95e-6) <= 5e-9
        assert r_ex == pytest.approx(1.8636441303760594e-6, rel=1e-9)

    def test_exact_form_matches_gaussian_exponent_at_optimum(self):
        opt = optimize_gain(REF)
        _, r_ex, _ = opa_bhattacharyya(REF, opt.g_star)
        assert abs(r_ex - opt.r_opa) / opt.r_opa <= 1e-4

    EXACT_RATIOS = {
        1e2: 0.817421767095974,
        1e3: 0.737175276114391,
        1e4: 0.49746251500642985,
    }
    SMALL_RATIOS = {
        1e2: 0.8927766414273025,
        1e3: 0.9591923446673868,
        1e4: 0.9803892828813479,
    }

    def test_bright_background_limit_of_both_forms(self):
        """At eps^2 = n_s/sqrt(n_b) only the small-gain form approaches the
        kappa n_s / 2 n_b limit; the exact exponent walks away from it
        because the dropped eps^4 terms grow like n_s^2 n_b.  Both trends
        are frozen so neither regression nor wishful reading slips through.
        """
        bands = {1e2: 0.30, 1e3: 0.10, 1e4: 0.03}
        exact, small = {}, {}
        for n_b in self.EXACT_RATIOS:
            params = ScenarioParams(0.01, 0.01, n_b)
            g = 1.0 + params.n_s / math.sqrt(params.n_b)
            _, r_ex, r_sm = opa_bhattacharyya(params, g)
            half_limit = params.kappa * params.n_s / (2.0 * params.n_b)
            exact[n_b] = r_ex / half_limit
            small[n_b] = r_sm / half_limit
        for n_b in self.EXACT_RATIOS:
            assert exact[n_b] == pytest.approx(self.EXACT_RATIOS[n_b], rel=1e-9)
            assert small[n_b] == pytest.approx(self.SMALL_RATIOS[n_b], rel=1e-9)
            assert abs(1.0 - small[n_b]) <= bands[n_b]
        assert small[1e2] < small[1e3] < small[1e4] < 1.0
        assert exact[1e2] > exact[1e3] > exact[1e4]


class TestOpaErrorOnoff:
    def test_kappa_zero(self):
        pe, rule = opa_error_exact(ScenarioParams(0.01, 0.0, 20.0), G_REF, 9, "optimal_scan",
                                   count_model="on_off")
        assert pe == 0.5
        assert rule.degenerate

    def test_k_one_click_enumeration(self):
        st = opa_output_means(REF, G_REF)
        q0 = st.n0 / (1.0 + st.n0)
        q1 = st.n1 / (1.0 + st.n1)
        candidates = {0: 0.5, 1: 0.5 * (q0 + 1.0 - q1), 2: 0.5 * 1.0}
        pe = opa_error_exact(REF, G_REF, 1, "optimal_scan", count_model="on_off")[0]
        assert pe == pytest.approx(min(candidates.values()), rel=1e-12)
        assert min(candidates, key=candidates.get) == 1

    def test_exponent_close_to_full_counting(self):
        """A click detector keeps 92% of the full-counting exponent at
        K=1e6; the often-quoted 5% figure is not met at this depth."""
        k = 10**6
        pe_oo = opa_error_exact(REF, G_REF, k, "optimal_scan", count_model="on_off")[0]
        pe_full, _ = opa_error_exact(REF, G_REF, k, "optimal_scan")
        assert pe_oo == pytest.approx(0.030240238497112343, rel=1e-9)
        ratio = math.log(2.0 * pe_oo) / math.log(2.0 * pe_full)
        assert 0.85 <= ratio <= 0.95


def synthetic_orthogonal_pair():
    """Hand-built two-block states with disjoint supports."""
    trunc = TruncationSpec(1, 1, 0.5)
    zero = np.zeros((1, 1))
    rho0 = JointState(
        blocks={-1: zero.copy(), 0: np.diag([1.0, 0.0]), 1: zero.copy()},
        trunc=trunc,
    )
    rho1 = JointState(
        blocks={-1: zero.copy(), 0: np.diag([0.0, 1.0]), 1: zero.copy()},
        trunc=trunc,
    )
    return rho0, rho1


def helstrom_oracle(rho0, rho1):
    """(pe_single, p01, p10) from one eigh of rho1 - rho0 per block, summed
    block by block in d order."""
    decomps, w_max = [], 0.0
    for d in sorted(rho0.blocks):
        b0, b1 = rho0.blocks[d], rho1.blocks[d]
        w, v = np.linalg.eigh(b1 - b0)
        decomps.append((w, v, b0, b1))
        w_max = max(w_max, float(np.abs(w).max()))
    ztol = max(1e-12 * w_max, 1e-14)
    gamma_plus = p01 = tr_pi_rho1 = 0.0
    for w, v, b0, b1 in decomps:
        pos = w > ztol
        zero = np.abs(w) <= ztol
        gamma_plus += float(w[pos].sum()) + 0.5 * float(w[zero].sum())
        if pos.any():
            vp = v[:, pos]
            p01 += float(np.trace(vp.T @ b0 @ vp))
            tr_pi_rho1 += float(np.trace(vp.T @ b1 @ vp))
        if zero.any():
            vz = v[:, zero]
            p01 += 0.5 * float(np.trace(vz.T @ b0 @ vz))
            tr_pi_rho1 += 0.5 * float(np.trace(vz.T @ b1 @ vz))
    return 0.5 * (1.0 - gamma_plus), p01, 1.0 - tr_pi_rho1


class TestHelstromOracle:
    """Helstrom on the padded block stack against the per-block loop."""

    def _check(self, rho0, rho1):
        got = helstrom_single_shot(rho0, rho1)
        pe, p01, p10 = helstrom_oracle(rho0, rho1)
        assert abs(got.pe_single - pe) <= 1e-15
        assert abs(got.p01 - p01) <= 1e-14
        assert abs(got.p10 - p10) <= 1e-14

    @pytest.mark.parametrize("n_b", [1.0, 20.0, 100.0])
    def test_spdc_pairs(self, nb_pairs, n_b):
        self._check(*nb_pairs[n_b])

    def test_identical_states(self, spdc_pair):
        self._check(spdc_pair[0], spdc_pair[0])

    def test_every_block_padded(self, padded_pair):
        self._check(*padded_pair)

    def test_orthogonal_supports(self):
        self._check(*synthetic_orthogonal_pair())

    def test_leaky_pair(self, spdc_pair):
        """Push the tail blocks of rho1 slightly negative: the batched
        solve still matches the per-block one."""
        rho0, rho1 = spdc_pair
        leaky = JointState(
            blocks={d: b - 1e-13 * np.eye(b.shape[0]) if d > 400 else b
                    for d, b in rho1.blocks.items()},
            trunc=rho1.trunc,
        )
        got = helstrom_single_shot(rho0, leaky)
        pe, _, _ = helstrom_oracle(rho0, leaky)
        assert min_eigenvalue(leaky) < 0.0
        assert abs(got.pe_single - pe) <= 1e-15


class TestHelstrom:
    def test_reference_frozen_values(self, ref_helstrom):
        assert ref_helstrom.pe_single == pytest.approx(0.49903753839011, rel=1e-8)
        assert ref_helstrom.p01 == pytest.approx(0.5001764513576041, rel=1e-8)
        assert ref_helstrom.p10 == pytest.approx(0.49789862542261576, rel=1e-8)

    def test_rate_consistency(self, ref_helstrom):
        avg = 0.5 * (ref_helstrom.p01 + ref_helstrom.p10)
        assert abs(ref_helstrom.pe_single - avg) <= 1e-12

    def test_identical_pair_is_chance(self, spdc_pair):
        rho0, _ = spdc_pair
        res = helstrom_single_shot(rho0, rho0)
        assert res.pe_single == pytest.approx(0.5, abs=1e-12)
        assert res.p01 == pytest.approx(0.5, abs=1e-9)
        assert res.p10 == pytest.approx(0.5, abs=1e-9)

    def test_orthogonal_supports_are_perfectly_distinguished(self):
        res = helstrom_single_shot(*synthetic_orthogonal_pair())
        assert res.pe_single == 0.0
        assert res.p01 == 0.0
        assert res.p10 == 0.0

    def test_beats_opa_at_any_gain(self, ref_helstrom):
        opt = optimize_gain(REF)
        for g in (1.0005, G_REF, opt.g_star, 1.05, 1.3):
            pe_opa, _ = opa_error_exact(REF, g, 1, "optimal_scan")
            assert ref_helstrom.pe_single <= pe_opa + 1e-9

    def test_strictly_better_at_reference(self, ref_helstrom):
        pe_opa, _ = opa_error_exact(REF, G_REF, 1, "optimal_scan")
        assert ref_helstrom.pe_single < pe_opa

    def test_sits_above_overlap_lower_bound(self, ref_helstrom, spdc_pair):
        q_half = q_s(*spdc_pair, 0.5)
        _, q_min, _ = qcb(*spdc_pair)
        lower = error_prob_bounds(q_half, q_min, 1).lower
        assert ref_helstrom.pe_single >= lower - 1e-12

    def test_rejects_non_joint_states(self):
        with pytest.raises(DomainError):
            helstrom_single_shot(np.eye(2), np.eye(2))

    def test_rejects_leaky_states(self, spdc_pair):
        rho0, _ = spdc_pair
        half = JointState(
            blocks={d: 0.5 * b for d, b in rho0.blocks.items()},
            trunc=rho0.trunc,
        )
        with pytest.raises(DomainError):
            helstrom_single_shot(half, rho0)


class TestMajorityVote:
    def test_three_voter_enumeration(self):
        want = 0.5 * 2 * (3 * 0.01 * 0.9 + 0.001)
        got = majority_vote_error(0.1, 0.1, 3)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.028, rel=1e-12)

    def test_tie_goes_to_target_absent(self):
        # K=2, t=2: err0 = 0.3^2, err1 = 1 - 0.7^2; average is 0.3 again
        assert majority_vote_error(0.3, 0.3, 2) == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("k", [4, 7])
    def test_coin_flip_voters_stay_at_chance(self, k):
        assert majority_vote_error(0.5, 0.5, k) == pytest.approx(0.5, abs=1e-15)

    def test_perfect_voters(self):
        assert majority_vote_error(0.0, 0.0, 5) == 0.0

    def test_truncation_slack_clipped_not_rejected(self):
        pe = majority_vote_error(0.5 + 5e-10, 0.5, 3)
        assert pe == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.51, -0.01])
    def test_rejects_out_of_range_rates(self, bad):
        with pytest.raises(DomainError):
            majority_vote_error(bad, 0.3, 3)

    @pytest.mark.parametrize("k, rel_cap", [(10**6, 1e-3), (10**7, 1e-3)])
    def test_clt_matches_exact_near_chance(self, k, rel_cap):
        exact = majority_vote_error(0.499, 0.499, k, method="exact_binomial")
        clt = majority_vote_error(0.499, 0.499, k, method="clt")
        assert clt == pytest.approx(exact, rel=rel_cap)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            majority_vote_error(0.1, 0.1, 3, method="bootstrap")

    def test_rejects_k_zero(self):
        with pytest.raises(DomainError):
            majority_vote_error(0.1, 0.1, 0)


class TestResolveGain:
    def test_explicit(self):
        assert resolve_gain(REF, 1.005) == (1.005, "explicit")

    def test_auto_matches_optimizer(self):
        g, note = resolve_gain(REF, "auto")
        assert g == pytest.approx(1.0050090653144212, rel=1e-9)
        assert note.startswith("auto-optimized")

    def test_bhatt_preset(self):
        g, note = resolve_gain(REF, "bhatt")
        assert g == 1.0 + REF.n_s / math.sqrt(REF.n_b)
        assert "sqrt" in note

    def test_auto_degenerate_without_return(self):
        g, note = resolve_gain(ScenarioParams(0.01, 0.0, 20.0), "auto")
        assert g is None
        assert "degenerate" in note

    def test_rejections(self):
        with pytest.raises(DomainError):
            resolve_gain(REF, "fastest")
        with pytest.raises(DomainError):
            resolve_gain(REF, 1.0)
        with pytest.raises(DomainError):
            resolve_gain(REF, math.nan)
        with pytest.raises(DomainError):
            resolve_gain(ScenarioParams(0.01, 0.01, 0.0), "bhatt")
