"""Overlap functionals and K-copy bounds against closed forms."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from qillum import (
    BoundTriple,
    DomainError,
    ScenarioParams,
    TruncationSpec,
    asymptotic_exponents,
    build_rho0,
    build_rho1,
    error_prob_bounds,
    gaussian_chernoff,
    q_s,
    qcb,
)
from qillum.bounds import _FLAT_Q_TOL, _S_TOL, _SpectralPair, _gaussian_ln_q
from qillum.cli import _coherent_exponent
from qillum.gss import golden_section_min

from conftest import TAIL
from oracles import gaussian_ln_q_s, overlaps


def displaced_thermal_overlap(delta_sq: float, n_b: float, s: float) -> float:
    """Closed-form Q_s for a thermal state vs its displaced copy.

    With x = n_b/(n_b+1) the fractional powers of a thermal state are again
    thermal, and the Gaussian overlap integral collapses to

        Q_s = exp(-delta_sq (1-x^s)(1-x^(1-s)) / (1-x)).
    """
    x = n_b / (n_b + 1.0)
    return math.exp(-delta_sq * (1.0 - x**s) * (1.0 - x ** (1.0 - s)) / (1.0 - x))


class TestQs:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_coherent_pair_matches_closed_form(self, ref_params, coherent_pair, s):
        want = displaced_thermal_overlap(
            ref_params.kappa * ref_params.n_s, ref_params.n_b, s
        )
        assert q_s(*coherent_pair, s) == pytest.approx(want, rel=5e-9)

    def test_endpoints_are_traces(self, spdc_pair):
        rho0, rho1 = spdc_pair
        assert q_s(rho0, rho1, 0.0) == pytest.approx(rho1.trace(), rel=1e-12)
        assert q_s(rho0, rho1, 1.0) == pytest.approx(rho0.trace(), rel=1e-12)

    def test_identical_states_near_one(self, spdc_pair):
        rho0, _ = spdc_pair
        v = q_s(rho0, rho0, 0.37)
        assert 1.0 - 5 * TAIL <= v <= 1.0 + 5 * TAIL

    def test_identical_states_tight_truncation(self):
        """With a 1e-12 tail the identity Q_s = 1 holds to 1e-9 literally."""
        params = ScenarioParams(0.01, 0.01, 1.0)
        trunc = TruncationSpec.for_params(params, tail_tol=1e-12)
        rho0 = build_rho0(params, trunc)
        assert q_s(rho0, rho0, 0.37) == pytest.approx(1.0, abs=1e-9)

    def test_kappa_zero_pair_half(self, ref_params, ref_trunc):
        params = ScenarioParams(ref_params.n_s, 0.0, ref_params.n_b)
        pair = build_rho0(params, ref_trunc), build_rho1(params, ref_trunc)
        assert q_s(*pair, 0.5) == pytest.approx(1.0, abs=5 * TAIL)

    def test_spdc_bhattacharyya_exponent_bracket(self, spdc_pair):
        exponent = -math.log(q_s(*spdc_pair, 0.5))
        assert 2.5e-6 <= exponent <= 5e-6

    @pytest.mark.parametrize("s", [-0.1, 1.1])
    def test_rejects_s_outside_unit_interval(self, spdc_pair, s):
        with pytest.raises(DomainError):
            q_s(*spdc_pair, s)

    def test_rejects_mismatched_truncations(self, ref_params, spdc_pair):
        other = build_rho0(ref_params, TruncationSpec(424, 5, TAIL))
        with pytest.raises(DomainError):
            q_s(spdc_pair[0], other, 0.5)

    def test_rejects_ragged_dense_pair(self):
        with pytest.raises(DomainError):
            q_s(np.eye(3), np.eye(4), 0.5)


def q_s_oracle(rho0, rho1, svals):
    """Q_s from one eigh per block and per state, block by block: a list
    over svals.  Per-block terms are summed with math.fsum."""
    if isinstance(rho0, np.ndarray):
        pairs = [(rho0, rho1)]
    else:
        pairs = [(rho0.blocks[d], rho1.blocks[d]) for d in sorted(rho0.blocks)]
    terms = []
    for b0, b1 in pairs:
        w0, u0 = np.linalg.eigh(b0)
        w1, u1 = np.linalg.eigh(b1)
        terms.append((np.clip(w0, 0.0, None), np.clip(w1, 0.0, None), (u0.T @ u1) ** 2))
    return [math.fsum(float(np.power(w0, s) @ m @ np.power(w1, 1.0 - s))
                      for w0, w1, m in terms) for s in svals]


class TestSpectralCacheOracle:
    """The spectral cache on the padded block stack against the per-block loop."""

    SVALS = np.linspace(0.0, 1.0, 11).tolist()

    def _check(self, rho0, rho1):
        pair = _SpectralPair(rho0, rho1)
        for s, want in zip(self.SVALS, q_s_oracle(rho0, rho1, self.SVALS)):
            assert abs(pair.q_s(s) - want) <= 1e-15
        return pair

    @pytest.mark.parametrize("n_b", [1.0, 20.0, 100.0])
    def test_spdc_pairs(self, nb_pairs, n_b):
        rho0, rho1 = nb_pairs[n_b]
        pair = self._check(rho0, rho1)
        assert abs(pair.q_s(0.0) - rho1.trace()) <= 1e-15
        assert abs(pair.q_s(1.0) - rho0.trace()) <= 1e-15
        # one batch that covers every block, at the width of the widest one
        width = max(b.shape[0] for b in rho0.blocks.values())
        assert pair.w0.shape == pair.w1.shape == (len(rho0.blocks), width)
        assert pair.overlap_sq.shape == (len(rho0.blocks), width, width)

    def test_dense_coherent_pair_is_one_group(self, coherent_pair):
        pair = self._check(*coherent_pair)
        assert pair.w0.shape[0] == 1 and pair.overlap_sq.shape[0] == 1

    def test_identical_states(self, spdc_pair):
        self._check(spdc_pair[0], spdc_pair[0])

    def test_overlaps_share_one_decomposition(self, spdc_pair):
        q_half, q_min = overlaps(*spdc_pair)
        assert q_half == q_s(*spdc_pair, 0.5)
        assert q_min == qcb(*spdc_pair)[1]


class TestPaddedStack:
    """Q_s on a pair whose every block is zero-padded in the stack."""

    def test_pair_is_padded_everywhere(self, padded_pair):
        rho0, _ = padded_pair
        assert (rho0.trunc.n_r_max, rho0.trunc.n_i_max) == (11, 14)
        m = rho0.stack.shape[1]
        sizes = [b.shape[0] for b in rho0.blocks.values()]
        assert len(sizes) == 26 and max(sizes) < m and len(set(sizes)) == 12

    def test_endpoints_are_traces(self, padded_pair):
        """0**0 = 1 at s = 0 and 1 lets every padded eigenvalue in; the
        row and column sums of M keep the endpoints at the traces."""
        rho0, rho1 = padded_pair
        pair = _SpectralPair(rho0, rho1)
        assert abs(pair.q_s(0.0) - rho1.trace()) <= 1e-15
        assert abs(pair.q_s(1.0) - rho0.trace()) <= 1e-15


class TestQcb:
    def test_spdc_exponent(self, spdc_pair):
        s_star, q_min, exponent = qcb(*spdc_pair)
        assert exponent == pytest.approx(3.95767964520738e-6, rel=1e-6)
        assert s_star == pytest.approx(0.5, abs=1e-2)
        assert exponent == pytest.approx(-math.log(q_min), rel=1e-12)

    def test_coherent_exponent(self, coherent_pair):
        s_star, _, exponent = qcb(*coherent_pair)
        assert exponent == pytest.approx(1.2206811684392367e-6, rel=1e-6)
        assert s_star == pytest.approx(0.5, abs=1e-2)

    def test_identical_states_flat_profile(self, spdc_pair):
        rho0, _ = spdc_pair
        s_star, q_min, exponent = qcb(rho0, rho0)
        assert s_star == 0.5
        assert q_min == pytest.approx(1.0, abs=5 * TAIL)
        assert 0.0 <= exponent <= 5 * TAIL

    def test_minimum_dominates_grid(self, spdc_pair):
        _, q_min, _ = qcb(*spdc_pair)
        for s in np.linspace(0.0, 1.0, 21):
            assert q_min <= q_s(*spdc_pair, float(s)) + 1e-12

    def test_never_above_bhattacharyya(self, coherent_pair):
        _, q_min, _ = qcb(*coherent_pair)
        assert q_min <= q_s(*coherent_pair, 0.5)


def chernoff_scan_oracle(pair):
    """The scan-backed Chernoff search that _SpectralPair.chernoff replaced:
    golden section, then a 101-point scan of Q_s, and a second golden
    section around the scan minimum if the scan went more than 1e-12
    deeper; then the s = 0.5 candidate and the flat-profile rule."""
    s_best, q_best = golden_section_min(pair.q_s, 0.0, 1.0, _S_TOL)
    grid = np.linspace(0.0, 1.0, 101)
    q_grid = [pair.q_s(float(s)) for s in grid]
    i_min = int(np.argmin(q_grid))
    if q_grid[i_min] < q_best - 1e-12:
        lo = grid[max(i_min - 1, 0)]
        hi = grid[min(i_min + 1, len(grid) - 1)]
        s_best, q_best = golden_section_min(pair.q_s, float(lo), float(hi), _S_TOL)
        if q_grid[i_min] < q_best:
            s_best, q_best = float(grid[i_min]), q_grid[i_min]
    q_half = pair.q_s(0.5)
    if q_half <= q_best:
        s_best, q_best = 0.5, q_half
    if 1.0 - q_best <= _FLAT_Q_TOL:
        s_best = 0.5
    return s_best, q_best, q_half


GRID_NB = (0.1, 1.0, 20.0, 100.0)
GRID_KAPPA = (0.01, 0.3, 1.0)


@pytest.fixture(scope="module")
def grid_pairs(nb_pairs):
    """SPDC pairs at n_s = 0.01 keyed by (n_b, kappa); kappa = 0.01 reuses nb_pairs."""
    pairs = {(n_b, 0.01): pair for n_b, pair in nb_pairs.items()}
    for n_b in GRID_NB:
        for kappa in GRID_KAPPA:
            if (n_b, kappa) not in pairs:
                params = ScenarioParams(n_s=0.01, kappa=kappa, n_b=n_b)
                trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
                pairs[n_b, kappa] = build_rho0(params, trunc), build_rho1(params, trunc)
    return pairs


class TestChernoffSearch:
    """One golden section over [0, 1]: Q_s is log-convex on (0, 1), so the
    scan-backed search it replaced returns the same (s*, q_min, q_half)."""

    def test_evaluation_count(self, spdc_pair, monkeypatch):
        calls = [0]
        q_s_cached = _SpectralPair.q_s

        def counted(self, s):
            calls[0] += 1
            return q_s_cached(self, s)

        pair = _SpectralPair(*spdc_pair)
        monkeypatch.setattr(_SpectralPair, "q_s", counted)
        pair.chernoff()
        assert 0 < calls[0] <= 30

    @pytest.mark.parametrize("kappa", GRID_KAPPA)
    @pytest.mark.parametrize("n_b", GRID_NB)
    def test_matches_scan_oracle(self, grid_pairs, n_b, kappa):
        rho0, rho1 = grid_pairs[n_b, kappa]
        for a, b in ((rho0, rho1), (rho0, rho0), (rho1, rho1)):
            pair = _SpectralPair(a, b)
            assert pair.chernoff() == chernoff_scan_oracle(pair)

    @pytest.mark.parametrize("rho0, rho1", [
        (np.diag([1.0, 0.0]), np.diag([0.5, 0.5])),
        (np.diag([0.9, 0.1, 0.0]), np.diag([0.0, 0.2, 0.8])),
    ], ids=["jump_at_0", "jump_at_1"])
    def test_endpoint_jump_matches_scan_oracle(self, rho0, rho1):
        # the infimum is a one-sided limit at an endpoint, where 0**0 = 1
        # lifts Q_s back up to a trace
        pair = _SpectralPair(rho0, rho1)
        result = pair.chernoff()
        assert result == chernoff_scan_oracle(pair)
        assert 0.0 < min(result[0], 1.0 - result[0]) <= _S_TOL

    def test_coherent_pair_matches_scan_oracle(self, coherent_pair):
        pair = _SpectralPair(*coherent_pair)
        assert pair.chernoff() == chernoff_scan_oracle(pair)

    @pytest.mark.parametrize("kappa", [0.01, 0.3])
    @pytest.mark.parametrize("n_b", [1.0, 20.0, 100.0])
    def test_log_convex(self, grid_pairs, n_b, kappa):
        pair = _SpectralPair(*grid_pairs[n_b, kappa])
        ln_q = np.log([pair.q_s(s) for s in np.linspace(0.02, 0.98, 49).tolist()])
        assert np.diff(ln_q, 2).min() >= 0.0


class TestGaussianChernoff:
    """The closed-form ln Q_s of the SPDC pair against the mpmath
    Pirandola-Lloyd oracle, and against the Fock route it replaces in the CLI."""

    GRID_NS = (1e-6, 1e-2, 1.0)
    GRID_KAPPA = (1e-4, 1e-2, 0.3, 1.0)
    GRID_S = (0.05, 0.5, 0.95)

    @pytest.mark.parametrize("n_b", [0.01, 1.0, 20.0, 100.0, 1e3, 1e6])
    def test_against_mpmath(self, n_b):
        for n_s, kappa in itertools.product(self.GRID_NS, self.GRID_KAPPA):
            ln_q = _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))
            for s in self.GRID_S:
                want = gaussian_ln_q_s(n_s, kappa, n_b, s)
                assert abs(ln_q(s) - want) <= 1e-12 * abs(want), (n_s, kappa, s)

    @pytest.mark.parametrize("n_s, kappa, n_b", [
        (0.3, 0.5, 0.0),
        (0.3, 0.5, 1e-14),
        (1.5536547237749636e-06, 1.0, 1.7499016521315267e-08),
        (2.484815295073345e-05, 1.0, 5.318654551743987e-08),
    ], ids=["dark", "nearly_dark", "pure_return", "pure_idler"])
    def test_near_the_vacuum(self, n_s, kappa, n_b):
        """A mode mean that is a small difference of large ones (N+ - n_b,
        N-) or a step far from the mean (delta, ln(1 - e^-beta)) keeps its
        digits when a mode nears the vacuum."""
        ln_q = _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))
        for s in (0.3, 0.43, 0.5, 0.72):
            want = gaussian_ln_q_s(n_s, kappa, n_b, s)
            assert abs(ln_q(s) - want) <= 1e-12 * abs(want), s

    @pytest.mark.parametrize("n_s, kappa, n_b", [
        (1e8, 1.0, 1e-10), (1e8, 1.0, 1.0), (1e6, 1.0, 1e-3),
    ])
    def test_lossless_bright_signal(self, n_s, kappa, n_b):
        """At kappa = 1 and n_s >> n_b, (a' + b)^2 - 16 kappa n_s (n_s + 1)
        is a small difference of large terms; R^2 = D^2 + 16 n_b (n_s + 1)
        is a sum of two terms >= 0 and keeps its digits."""
        ln_q = _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))
        for s in self.GRID_S:
            want = gaussian_ln_q_s(n_s, kappa, n_b, s)
            assert abs(ln_q(s) - want) <= 1e-12 * abs(want), s

    @pytest.mark.parametrize("n_s, n_b", [(1e16, 1e-10), (1e20, 1e-10), (1e20, 0.0)])
    def test_lossless_signal_beyond_two_to_the_53(self, n_s, n_b):
        """At kappa = 1 and n_s >= 2**53, n_s + 1 rounds to n_s.  Both d are
        taken through (1 - kappa) n_s, exactly 0 here, so they keep the +1;
        at n_b = 0 the return d is 2, where it used to round to 0 and the
        search divided by zero.  Checked at 800 digits, where the oracle
        holds n_s + 1 exactly."""
        ln_q = _gaussian_ln_q(ScenarioParams(n_s, 1.0, n_b))
        for s in self.GRID_S:
            want = gaussian_ln_q_s(n_s, 1.0, n_b, s, dps=800)
            assert abs(ln_q(s) - want) <= 1e-12 * abs(want), s
        _, ln_q_min, ln_q_half = gaussian_chernoff(ScenarioParams(n_s, 1.0, n_b))
        assert -math.inf < ln_q_min <= ln_q_half < 0.0

    @pytest.mark.parametrize("s", [0.05, 0.5, 0.9999])
    @pytest.mark.parametrize("n_s, pin", [(1.0, -1.3862250464018346), (1e8, -36.83951943982934)])
    def test_pure_lossless_return(self, n_s, pin, s):
        """n_b = 0, kappa = 1: the return is a pure mode, where the oracle
        holds x - 1 at 0 (s = 1 exactly stays outside its domain).  It is
        real there and meets the closed form; at s = 0.9999 both give the
        pinned values."""
        want = gaussian_ln_q_s(n_s, 1.0, 0.0, s)
        assert isinstance(want, mpmath.mpf)
        got = _gaussian_ln_q(ScenarioParams(n_s, 1.0, 0.0))(s)
        assert abs(got - want) <= 1e-12 * abs(want)
        if s == 0.9999:
            assert got == pin and abs(want - pin) <= 1e-12 * abs(pin)

    def test_endpoints_are_exactly_one(self):
        for n_b, n_s, kappa in itertools.product((0.0, 0.01, 20.0, 1e6), self.GRID_NS,
                                                 self.GRID_KAPPA):
            ln_q = _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))
            assert math.exp(ln_q(0.0)) == 1.0 and math.exp(ln_q(1.0)) == 1.0

    @pytest.mark.parametrize("n_b", [0.01, 20.0, 1e6])
    def test_kappa_zero_is_exactly_flat(self, n_b):
        params = ScenarioParams(0.01, 0.0, n_b)
        ln_q = _gaussian_ln_q(params)
        assert all(ln_q(s) == 0.0 for s in np.linspace(0.0, 1.0, 11).tolist())
        assert gaussian_chernoff(params) == (0.5, 0.0, 0.0)

    @pytest.mark.parametrize("n_s, kappa, n_b", [
        (0.01, 0.01, 1.0), (0.01, 0.3, 1.0), (0.01, 0.01, 100.0), (1.0, 0.95, 0.05),
        (1e-6, 1.0, 1e-2), (1.0, 1e-4, 1e6),
    ])
    def test_log_convex(self, n_s, kappa, n_b):
        ln_q = _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))
        values = np.array([ln_q(s) for s in np.linspace(0.02, 0.98, 49).tolist()])
        assert np.diff(values, 2).min() >= 0.0

    # -min_s ln Q_s by golden section on the oracle at 80 digits, s to 1e-12
    @pytest.mark.parametrize("n_s, kappa, n_b, want", [
        (0.01, 0.01, 20.0, 3.9565971923709483e-6),
        (0.01, 0.01, 100.0, 8.1975367321575483e-7),
        (0.01, 0.01, 1e3, 8.264424096874433e-8),
        (0.01, 0.3, 1.0, 1.3452414989369065e-3),
    ])
    def test_chernoff_minimum(self, n_s, kappa, n_b, want):
        s_star, ln_q_min, ln_q_half = gaussian_chernoff(ScenarioParams(n_s, kappa, n_b))
        assert -ln_q_min == pytest.approx(want, rel=1e-8)
        assert ln_q_min <= ln_q_half == _gaussian_ln_q(ScenarioParams(n_s, kappa, n_b))(0.5)
        assert 0.0 < s_star < 1.0

    @pytest.mark.parametrize("n_s, kappa, n_b", [
        (0.01, 0.01, 1.0), (0.01, 0.3, 1.0), (0.01, 0.01, 20.0), (0.1, 0.3, 20.0),
    ])
    def test_matches_fock_route(self, n_s, kappa, n_b):
        """The Fock Q_s differs only by the truncated tails, about tail_tol."""
        params = ScenarioParams(n_s, kappa, n_b)
        trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
        pair = _SpectralPair(build_rho0(params, trunc), build_rho1(params, trunc))
        ln_q = _gaussian_ln_q(params)
        for s in (0.25, 0.5, 0.75):
            assert abs(math.exp(ln_q(s)) - pair.q_s(s)) <= 3.0 * TAIL


class TestGaussianChernoffRange:
    """Where (a' + b)^2 of the closed form overflows, gaussian_chernoff
    refuses the scenario instead of raising OverflowError or returning nan."""

    @pytest.mark.parametrize("n_s, kappa, n_b", [
        (1.0, 1.0, 1e308),
        (1e300, 1.0, 1e300),
        (1.0, 1.0, 1e154),
    ])
    def test_overflow_is_a_domain_error(self, n_s, kappa, n_b):
        with pytest.raises(DomainError, match="^float overflow") as exc:
            gaussian_chernoff(ScenarioParams(n_s, kappa, n_b))
        assert f"n_s={n_s!r}, kappa={kappa!r}, n_b={n_b!r}" in str(exc.value)

    def test_finite_below_the_overflow(self):
        assert gaussian_chernoff(ScenarioParams(1.0, 1.0, 1e150)) == (
            0.5, -3.431457505076164e-151, -3.431457505076164e-151)


class TestCoherentClosedForm:
    """The CLI's coherent-state exponent kappa n_s / (sqrt(n_b+1) + sqrt(n_b))**2,
    the exact Chernoff exponent of thermal vs displaced thermal (s* = 1/2)."""

    @pytest.mark.parametrize("n_b", [1e-3, 1.0, 20.0, 100.0, 1e4, 1e8])
    def test_against_mpmath(self, n_b):
        params = ScenarioParams(0.01, 0.01, n_b)
        with mpmath.workdps(50):
            nb = mpmath.mpf(n_b)
            kns = mpmath.mpf(params.kappa * params.n_s)
            want = kns * (mpmath.sqrt(nb + 1) - mpmath.sqrt(nb)) ** 2
            got = _coherent_exponent(params)
            assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("n_b", [1.0, 20.0, 100.0])
    def test_matches_overlap_at_half(self, n_b):
        """-ln Q_half of the closed-form overlap, and Q_s = Q_(1-s) >= Q_half."""
        params = ScenarioParams(0.01, 0.3, n_b)
        delta_sq = params.kappa * params.n_s
        q_half = displaced_thermal_overlap(delta_sq, n_b, 0.5)
        assert _coherent_exponent(params) == pytest.approx(-math.log(q_half), rel=1e-9)
        for s in (0.1, 0.3, 0.45):
            q = displaced_thermal_overlap(delta_sq, n_b, s)
            assert q == pytest.approx(displaced_thermal_overlap(delta_sq, n_b, 1.0 - s),
                                      rel=1e-12)
            assert q > q_half

    def test_dense_fock_route_sits_just_above(self, ref_params, coherent_pair):
        """The truncated dense pair overstates the exponent: by 8.1e-4 rel at
        the reference point, so its bias is bounded here by 1e-3 rel."""
        _, _, fock = qcb(*coherent_pair)
        bias = fock / _coherent_exponent(ref_params) - 1.0
        assert 0.0 < bias < 1e-3


class TestErrorProbBounds:
    def test_indistinguishable_states(self):
        b = error_prob_bounds(0.0, 0.0, 7)
        legs = (b.log10_lower, b.log10_upper_qcb, b.log10_upper_bhatt)
        assert tuple(10.0**leg for leg in legs) == (0.5, 0.5, 0.5)
        assert b.log10_lower == pytest.approx(math.log10(0.5), abs=1e-15)

    def test_upper_bound_is_half_q_to_the_k(self):
        r = 1e-5
        b = error_prob_bounds(-r / 2, -r, 10**6)
        assert 10.0**b.log10_upper_qcb == pytest.approx(math.exp(-10.0) / 2, rel=1e-9)
        assert 10.0**b.log10_upper_bhatt == pytest.approx(math.exp(-5.0) / 2, rel=1e-9)

    def test_lower_bound_closed_form(self):
        ln_q = math.log(0.999999)
        b = error_prob_bounds(ln_q, ln_q, 10**6)
        want = (1.0 - math.sqrt(1.0 - math.exp(-2.0))) / 2.0
        assert 10.0**b.log10_lower == pytest.approx(want, rel=1e-5)

    def test_deep_tail_stays_finite_in_log10(self):
        ln_q = math.log(0.9999)
        b = error_prob_bounds(ln_q, ln_q, 10**8)
        assert 10.0**b.log10_lower == 0.0 and 10.0**b.log10_upper_qcb == 0.0
        assert b.log10_lower == pytest.approx(-8686.926, abs=1e-2)
        assert math.isfinite(b.log10_upper_qcb)
        assert b.log10_lower <= b.log10_upper_qcb <= b.log10_upper_bhatt

    @pytest.mark.parametrize("q_qcb", [0.99, 0.99999998])
    @pytest.mark.parametrize("u", [0.5, 0.6, 0.75, 0.9, 1.0])
    @pytest.mark.parametrize("k", [1, 10**3, 10**6])
    def test_ordering_on_physical_pairs(self, q_qcb, u, k):
        """Log-convexity of Q_s pins Q_half between Q_qcb and sqrt(Q_qcb);
        the sandwich must be ordered on that whole strip."""
        ln_q = math.log(q_qcb)
        b = error_prob_bounds(u * ln_q, ln_q, k)
        lower, upper_qcb, upper_bhatt = (
            10.0**leg for leg in (b.log10_lower, b.log10_upper_qcb, b.log10_upper_bhatt))
        assert -1e-12 <= lower <= upper_qcb + 1e-12
        assert upper_qcb <= upper_bhatt <= 0.5 + 1e-12
        assert b.log10_lower <= b.log10_upper_qcb + 1e-12
        assert b.log10_upper_qcb <= b.log10_upper_bhatt + 1e-12

    def test_log_overlaps_taken_as_given(self):
        """ln Q_half = -1e-9 at K = 1e6: the legs are exact functions of
        K ln Q, with no round trip through Q = exp(ln Q)."""
        b = error_prob_bounds(-1e-9, -2e-9, 10**6)
        assert b.log10_upper_qcb == pytest.approx(-2e-3 / math.log(10.0) + math.log10(0.5),
                                                  rel=1e-15)
        assert b.log10_upper_bhatt == pytest.approx(-1e-3 / math.log(10.0) + math.log10(0.5),
                                                    rel=1e-15)

    def test_rejects_inverted_and_invalid_inputs(self):
        with pytest.raises(DomainError):
            error_prob_bounds(math.log(0.5), math.log(0.9), 10)  # ln_q_min above ln_q_half
        with pytest.raises(DomainError):
            error_prob_bounds(0.0, -math.inf, 10)
        with pytest.raises(DomainError):
            error_prob_bounds(math.log(1.1), 0.0, 10)
        with pytest.raises(DomainError):
            error_prob_bounds(math.nan, -1.0, 10)
        with pytest.raises(DomainError):
            error_prob_bounds(math.log(0.9), math.log(0.8), 0)

    def test_unphysical_pair_breaks_the_sandwich(self):
        # 2 ln q_half > ln q_qcb violates log-convexity; lower tops upper_qcb
        with pytest.raises(DomainError):
            error_prob_bounds(math.log(0.9), math.log(0.5), 1)

    def test_triple_ordering_enforced_on_construction(self):
        with pytest.raises(DomainError):
            BoundTriple(
                log10_lower=math.log10(0.3),
                log10_upper_qcb=math.log10(0.2),
                log10_upper_bhatt=math.log10(0.25),
            )

    @pytest.mark.parametrize("logs", [(-400.0, -500.0, -450.0),   # lower > upper_qcb
                                      (-500.0, -400.0, -450.0),   # upper_qcb > upper_bhatt
                                      (-500.0, -450.0, -0.1)],    # upper_bhatt > 1/2
                             ids=["lower", "upper_qcb", "upper_bhatt"])
    def test_ordering_checked_on_log_legs_past_underflow(self, logs):
        """At large K every bound underflows to 0.0 as a probability; the
        log legs keep the order, so an out-of-order triple there must still
        be rejected."""
        with pytest.raises(DomainError):
            BoundTriple(
                log10_lower=logs[0],
                log10_upper_qcb=logs[1],
                log10_upper_bhatt=logs[2],
            )

    def test_unphysical_pair_rejected_past_underflow(self):
        # 2 ln q_half > ln q_qcb again, at a K where every bound underflows
        with pytest.raises(DomainError):
            error_prob_bounds(math.log(0.99), math.log(0.98), 10**8)

    def test_underflowed_legs_accepted_in_order(self):
        b = error_prob_bounds(math.log(0.99), math.log(0.985), 10**8)
        legs = (b.log10_lower, b.log10_upper_qcb, b.log10_upper_bhatt)
        assert all(10.0**leg == 0.0 for leg in legs)
        assert b.log10_lower < b.log10_upper_qcb < b.log10_upper_bhatt < -300.0


class TestAsymptoticExponents:
    def test_reference_closed_forms(self, ref_params):
        rep = asymptotic_exponents(ref_params)
        assert rep.r_q == 5e-6
        assert rep.r_c == 1.25e-6
        assert abs(rep.r_c_hom - 1.2195e-6) <= 1e-10
        assert rep.r_c_hom == pytest.approx(1e-4 / 82.0, rel=1e-15)

    def test_kappa_zero_all_vanish(self, ref_params):
        rep = asymptotic_exponents(ScenarioParams(ref_params.n_s, 0.0, ref_params.n_b))
        assert rep.r_q == rep.r_c == rep.r_c_hom == 0.0

    def test_rejects_dark_background(self):
        with pytest.raises(DomainError):
            asymptotic_exponents(ScenarioParams(0.01, 0.01, 0.0))


GROWTH_RATIOS = {
    10.0: 0.7585979107810147,
    50.0: 0.8129931124839935,
    200.0: 0.825636384482344,
}


@pytest.fixture(scope="module")
def growth_ratios():
    out = {}
    for n_b in GROWTH_RATIOS:
        params = ScenarioParams(0.01, 0.01, n_b)
        trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
        pair = build_rho0(params, trunc), build_rho1(params, trunc)
        _, _, exponent = qcb(*pair)
        out[n_b] = exponent / (params.kappa * params.n_s / params.n_b)
    return out


class TestBrightBackgroundConvergence:
    """Numeric SPDC exponent over kappa n_s / n_b along a growing-n_b path.

    The ratio rises with n_b but saturates below 1: at n_s = 0.01 it levels
    off near 0.827 (the Gaussian-state exponent gives 0.8264 at n_b = 1e3
    and 0.8272 at 1e4), and it reaches 1 only as n_s -> 0 as well.  Only
    the first checkpoint sits inside a 25% band.  The frozen values keep
    the trend honest instead of asserting a closeness the exact exponent
    does not have.
    """

    def test_frozen_values(self, growth_ratios):
        for n_b, want in GROWTH_RATIOS.items():
            assert growth_ratios[n_b] == pytest.approx(want, rel=1e-6)

    def test_monotone_approach_from_below(self, growth_ratios):
        assert growth_ratios[10.0] < growth_ratios[50.0] < growth_ratios[200.0] < 1.0

    def test_within_quarter_at_first_checkpoint(self, growth_ratios):
        assert abs(1.0 - growth_ratios[10.0]) <= 0.25
