"""Truncated state construction against hand values and exact oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qillum import (
    DomainError,
    ScenarioParams,
    TruncationError,
    TruncationSpec,
    build_displaced_thermal,
    build_rho0,
    build_rho1,
    helstrom_single_shot,
    thermal_cutoff,
    thermal_state,
)
from qillum.bounds import _SpectralPair, qcb
from qillum.fockspace import JointState

from conftest import TAIL
from oracles import (
    hermiticity_defect,
    hypergeom_2f1_terminating,
    idler_photon_pmf,
    min_eigenvalue,
    moments_check,
    overlaps,
    to_dense,
)


class TestThermalCutoff:
    def test_zero_mean(self):
        assert thermal_cutoff(0.0, 1e-9) == 0

    def test_reference_values(self):
        assert thermal_cutoff(20.0, 1e-9) == 424
        assert thermal_cutoff(0.01, 1e-9) == 4

    @pytest.mark.parametrize("mean", [0.3, 1.0, 20.0, 333.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_minimality(self, mean, tol):
        """Returned n is the smallest cutoff whose tail fits the tolerance."""
        n = thermal_cutoff(mean, tol)
        x = mean / (mean + 1.0)
        assert x ** (n + 1) <= tol
        if n > 0:
            assert x ** n > tol

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            thermal_cutoff(-1.0, 1e-9)
        with pytest.raises(DomainError):
            thermal_cutoff(1.0, 0.0)


def test_thermal_cutoff_mean_too_large():
    """At mean 1e16, mean/(mean+1) rounds to 1: no cutoff reaches the tolerance."""
    with pytest.raises(DomainError, match=r"1e\+16.*tail_tol=1e-09"):
        thermal_cutoff(1e16, 1e-9)


class TestTruncationSpec:
    def test_for_params_reference(self, ref_trunc):
        assert (ref_trunc.n_r_max, ref_trunc.n_i_max) == (424, 4)

    def test_validate_for_rejects_short_cutoff(self, ref_params):
        with pytest.raises(TruncationError):
            TruncationSpec(300, 4, 1e-9).validate_for(ref_params)

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            TruncationSpec(-1, 4, 1e-9)
        with pytest.raises(DomainError):
            TruncationSpec(10, 4, 1.5)


CUT_MEANS = [1e-3, 0.01, 0.3, 1.0, 20.0, 100.0, 1e3]


def _mode_case(mode, mean):
    """Params whose return (H1 mean kappa n_s + n_b) or idler (n_s) cut
    mean is ``mean``, with the other mode's mean held small."""
    if mode == "return":
        return ScenarioParams(1e-3, 0.5, mean), 0.5 * 1e-3 + mean
    return ScenarioParams(mean, 0.01, 1.0), mean


class TestTruncationRule:
    """Each mode is cut at the smallest level whose thermal tail at the cut
    mean fits tail_tol, and validate_for refuses exactly the levels below."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("mean", CUT_MEANS)
    @pytest.mark.parametrize("mode", ["return", "idler"])
    def test_cut_is_the_validation_threshold(self, mode, mean, tol):
        params, cut_mean = _mode_case(mode, mean)
        trunc = TruncationSpec.for_params(params, tail_tol=tol)
        n = trunc.n_r_max if mode == "return" else trunc.n_i_max
        assert n == thermal_cutoff(cut_mean, tol) > 0
        trunc.validate_for(params)
        short = (TruncationSpec(n - 1, trunc.n_i_max, tol) if mode == "return"
                 else TruncationSpec(trunc.n_r_max, n - 1, tol))
        tail = (cut_mean / (cut_mean + 1.0)) ** n
        text = f"{mode} cutoff {n - 1} leaves tail mass {tail:.3e} > {tol:.3e}"
        with pytest.raises(TruncationError) as err:
            short.validate_for(params)
        assert str(err.value) == text


class TestIdlerPmf:
    def test_hand_values(self):
        assert idler_photon_pmf(0.01, 0) == pytest.approx(1 / 1.01, rel=1e-15)
        assert idler_photon_pmf(1.0, 1) == 0.25

    def test_normalization(self):
        total = sum(idler_photon_pmf(0.01, n) for n in range(41))
        assert abs(total - 1.0) <= 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            idler_photon_pmf(-0.1, 0)
        with pytest.raises(DomainError):
            idler_photon_pmf(0.1, -1)


def hyp2f1_fraction_oracle(n1, n2, c_mag, z):
    """Exact rational evaluation of the terminating Gauss series.

    Accumulates term ratios t_{j+1}/t_j = -(n1-j)(n2-j) z / ((c-j)(j+1)),
    everything in Fraction arithmetic.
    """
    z = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    top = min(n1, n2)
    for j in range(top + 1):
        total += term
        if j < top:
            term *= Fraction(-(n1 - j) * (n2 - j), (c_mag - j) * (j + 1)) * z
    return total


class TestHypergeometric:
    def test_empty_series(self):
        assert hypergeom_2f1_terminating(0, 0, 0, 0.7) == 1.0

    def test_two_term_series_by_hand(self):
        # 2F1(-1,-1;-2;z) = 1 - z/2
        assert hypergeom_2f1_terminating(1, 1, 2, 0.4) == pytest.approx(0.8, rel=1e-14)

    def test_three_halves_case(self):
        got = hypergeom_2f1_terminating(2, 1, 4, 0.5)
        want = float(hyp2f1_fraction_oracle(2, 1, 4, Fraction(1, 2)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_against_fraction_oracle(self):
        zs = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
        for n1 in range(11):
            for n2 in range(11):
                for l in range(6):
                    c = n1 + n2 + l
                    for z in zs:
                        want = hyp2f1_fraction_oracle(n1, n2, c, z)
                        got = hypergeom_2f1_terminating(n1, n2, c, float(z))
                        if want == 0:
                            assert abs(got) <= 1e-12
                        else:
                            assert got == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("z", [1.5, 2.0, 3.0])
    def test_rejects_z_above_one(self, z):
        """The rho1 closed form only needs z = 1 - kappa/(n_b (n_b+1-kappa))
        <= 1; the alternating z > 1 series is refused rather than summed."""
        with pytest.raises(DomainError, match="z must be <= 1"):
            hypergeom_2f1_terminating(3, 2, 6, z)

    @pytest.mark.parametrize(
        "args",
        [(2, 2, 3, 0.5), (-1, 0, 0, 0.5), (1, 1, 2.0, 0.5), (True, 0, 0, 0.5)],
    )
    def test_rejects_bad_indices(self, args):
        with pytest.raises(DomainError):
            hypergeom_2f1_terminating(*args)

    def test_rejects_non_finite_z(self):
        with pytest.raises(DomainError):
            hypergeom_2f1_terminating(1, 1, 2, math.inf)


def _log_thermal_weight(n, mean):
    if mean == 0.0:
        return 0.0 if n == 0 else -math.inf
    return n * math.log(mean) - (n + 1) * math.log1p(mean)


def _oracle_block_ds(trunc):
    for d in range(-trunc.n_i_max, trunc.n_r_max + 1):
        yield d, max(0, -d), min(trunc.n_i_max, trunc.n_r_max - d)


def build_rho0_oracle(params, trunc):
    """Scalar element-by-element rho0: {d: block}."""
    blocks = {}
    for d, lo, hi in _oracle_block_ds(trunc):
        diag = np.empty(hi - lo + 1)
        for i, n2 in enumerate(range(lo, hi + 1)):
            lw = _log_thermal_weight(n2 + d, params.n_b) + _log_thermal_weight(n2, params.n_s)
            diag[i] = math.exp(lw) if lw > -math.inf else 0.0
        blocks[d] = np.diag(diag)
    return blocks


def build_rho1_oracle(params, trunc):
    """Scalar element-by-element rho1 with one hypergeom_2f1_terminating call
    per element: {d: block}."""
    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    log_kappa = math.log(kappa) if kappa > 0.0 else -math.inf
    log_nb, log_nb1 = math.log(n_b), math.log1p(n_b)
    log_nbk = math.log(n_b + 1.0 - kappa)
    z = 1.0 - kappa / (n_b * (n_b + 1.0 - kappa))
    lg = math.lgamma
    log_pmf = [_log_thermal_weight(n, n_s) for n in range(trunc.n_i_max + 1)]
    blocks = {}
    for d, lo, hi in _oracle_block_ds(trunc):
        size = hi - lo + 1
        block = np.zeros((size, size))
        for c, n2 in enumerate(range(lo, hi + 1)):
            n1 = n2 + d
            for r in range(c, size):
                l = r - c
                if l > 0 and kappa == 0.0:
                    continue
                log_elem = (
                    0.5 * (lg(n1 + 1) + lg(n2 + 1) - lg(n1 + l + 1) - lg(n2 + l + 1))
                    + 0.5 * (log_pmf[n2 + l] + log_pmf[n2])
                    + (0.5 * l * log_kappa if l > 0 else 0.0)
                    + lg(n1 + n2 + l + 1) - lg(n1 + 1) - lg(n2 + 1)
                    + n2 * log_nbk + n1 * log_nb - (n1 + n2 + l + 1) * log_nb1
                )
                if log_elem == -math.inf:
                    continue
                elem = math.exp(log_elem) * hypergeom_2f1_terminating(n1, n2, n1 + n2 + l, z)
                block[r, c] = block[c, r] = elem
        blocks[d] = block
    return blocks


ORACLE_CASES = {
    "z<0": (ScenarioParams(0.01, 0.3, 0.1), None),
    "z=0": (ScenarioParams(0.01, 0.5, 0.5), None),
    "nb=1": (ScenarioParams(0.01, 0.01, 1.0), None),
    "nb=20": (ScenarioParams(0.01, 0.01, 20.0), None),
    "nb=100": (ScenarioParams(0.01, 0.01, 100.0), None),
    "kappa=0": (ScenarioParams(0.01, 0.0, 20.0), None),
    "m=1": (ScenarioParams(1e-12, 0.01, 1.0), None),
    "trunc40x4": (ScenarioParams(0.01, 0.01, 1.0), TruncationSpec(40, 4, 1e-9)),
}


class TestArrayBuildersAgainstScalarOracle:
    """The array-built stacks against element-by-element scalar builds: same
    zero pattern, elements within 1e-11 relative."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("which", ["rho0", "rho1"])
    def test_elements(self, case, which):
        params, trunc = ORACLE_CASES[case]
        trunc = trunc or TruncationSpec.for_params(params, tail_tol=TAIL)
        build, oracle = {"rho0": (build_rho0, build_rho0_oracle),
                         "rho1": (build_rho1, build_rho1_oracle)}[which]
        got, want = build(params, trunc).blocks, oracle(params, trunc)
        assert sorted(got) == sorted(want)
        for d, block in want.items():
            assert got[d].shape == block.shape
            assert np.array_equal(got[d] == 0.0, block == 0.0)
            nz = block != 0.0
            assert np.all(np.abs(got[d][nz] - block[nz]) <= 1e-11 * np.abs(block[nz]))

    def test_case_branches(self):
        """The cases reach every branch of the scalar oracle (z < 0, z = 0,
        0 < z < 1, z = 1) and the one-level idler; the library's series has
        no branch."""
        z = {name: 1.0 - p.kappa / (p.n_b * (p.n_b + 1.0 - p.kappa))
             for name, (p, _) in ORACLE_CASES.items()}
        assert z["z<0"] < 0.0 < z["nb=1"] < 1.0 and z["kappa=0"] == 1.0
        assert z["z=0"] == 0.0
        assert TruncationSpec.for_params(ORACLE_CASES["m=1"][0], TAIL).n_i_max == 0


def rho1_element_mpmath(params, d, i, j):
    """Element (row (i+d, i), column (j+d, j)), i >= j, of rho1 from the 2F1
    closed form at 50 digits:

        sqrt(n1! n2! / ((n1+l)! (n2+l)!) p_{n2+l} p_{n2}) kappa**(l/2)
        * (n1+n2+l)! / (n1! n2!) * (n_b+1-kappa)**n2 n_b**n1 / (n_b+1)**(n1+n2+l+1)
        * 2F1(-n1, -n2; -(n1+n2+l); 1 - kappa/(n_b (n_b+1-kappa)))

    with n1 = j + d, n2 = j, l = i - j and p_n the idler pmf.  mpmath sums
    the terminating 2F1 with its own cancellation control.
    """
    with mpmath.workdps(50):
        n_s, kappa, n_b = (mpmath.mpf(x) for x in (params.n_s, params.kappa, params.n_b))
        n1, n2, l = j + d, j, i - j
        f = mpmath.factorial
        pmf = lambda n: n_s**n / (n_s + 1) ** (n + 1)
        z = 1 - kappa / (n_b * (n_b + 1 - kappa))
        return (
            mpmath.sqrt(f(n1) * f(n2) / (f(n1 + l) * f(n2 + l)) * pmf(n2 + l) * pmf(n2))
            * (kappa ** (mpmath.mpf(l) / 2) if l else 1)
            * f(n1 + n2 + l) / (f(n1) * f(n2))
            * (n_b + 1 - kappa) ** n2 * n_b ** n1 / (n_b + 1) ** (n1 + n2 + l + 1)
            * mpmath.hyp2f1(-n1, -n2, -(n1 + n2 + l), z)
        )


MPMATH_CASES = [(n_b, kappa) for n_b in (0.1, 1.0, 20.0, 100.0)
                for kappa in (0.01, 0.3, 0.95)] + [(20.0, 0.0)]


class TestBuildRho1AgainstMpmath:
    """Seeded samples of 100 nonzero rho1 elements per scenario, at n_s = 0.1
    (nine idler levels, so up to nine series terms), against the 2F1 closed
    form at 50 digits: within 1e-13 relative."""

    @pytest.mark.parametrize("n_b,kappa", MPMATH_CASES)
    def test_sampled_elements(self, n_b, kappa):
        params = ScenarioParams(0.1, kappa, n_b)
        trunc = TruncationSpec.for_params(params, tail_tol=TAIL)
        stack = build_rho1(params, trunc).stack
        nonzero = np.argwhere(np.tril(stack) != 0.0)
        rng = np.random.default_rng(15)
        picks = nonzero[rng.choice(len(nonzero), size=100, replace=False)]
        for k, r, c in picks.tolist():
            d = k - trunc.n_i_max
            lo = max(0, -d)
            want = rho1_element_mpmath(params, d, lo + r, lo + c)
            assert abs((stack[k, r, c] - want) / want) <= 1e-13


class TestReadOnlyBlocks:
    def test_built_blocks_reject_writes(self, spdc_pair):
        for state in spdc_pair:
            with pytest.raises(ValueError):
                state.blocks[0][0, 0] = 1.0
            assert not state.stack.flags.writeable

    def test_hand_built_blocks_are_copied_and_frozen(self, small_pair):
        rho0 = small_pair[0]
        source = {d: b.copy() for d, b in rho0.blocks.items()}
        state = JointState.from_blocks(blocks=source, trunc=rho0.trunc)
        source[0][0, 0] = 1.0
        assert state.blocks[0][0, 0] == rho0.blocks[0][0, 0]
        with pytest.raises(ValueError):
            state.blocks[0][0, 0] = 1.0

    def test_hand_built_layout_is_checked(self, small_pair):
        rho0 = small_pair[0]
        missing = {d: b for d, b in rho0.blocks.items() if d != 3}
        with pytest.raises(DomainError):
            JointState.from_blocks(blocks=missing, trunc=rho0.trunc)
        wrong = {**rho0.blocks, 0: np.eye(2)}
        with pytest.raises(DomainError):
            JointState.from_blocks(blocks=wrong, trunc=rho0.trunc)


class TestJointState:
    """The padded stack is the state: identity equality, a shape check
    against the truncation, and block views only on demand."""

    PARAMS = ScenarioParams(0.01, 0.3, 1.0)

    def test_equality_and_hash_are_identity(self):
        trunc = TruncationSpec.for_params(self.PARAMS)
        a, b = build_rho0(self.PARAMS, trunc), build_rho0(self.PARAMS, trunc)
        assert a == a and not a != a
        assert not a == b and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_stack_must_match_truncation(self):
        trunc = TruncationSpec.for_params(self.PARAMS)
        assert (trunc.n_r_max, trunc.n_i_max) == (29, 4)
        with pytest.raises(DomainError):
            JointState(np.zeros((3, 2, 2)), trunc)
        state = JointState(np.zeros((34, 5, 5)), trunc)
        assert not state.stack.flags.writeable

    def test_run_path_builds_no_block_views(self):
        trunc = TruncationSpec.for_params(self.PARAMS)
        rho0, rho1 = build_rho0(self.PARAMS, trunc), build_rho1(self.PARAMS, trunc)
        qcb(rho0, rho1)
        overlaps(rho0, rho1)
        helstrom_single_shot(rho0, rho1)
        for state in (rho0, rho1):
            assert "blocks" not in vars(state)


class TestBuildRho0:
    def test_vacuum_corner_entry(self, spdc_pair):
        rho0, _ = spdc_pair
        assert rho0.blocks[0][0, 0] == pytest.approx(1 / (21.0 * 1.01), rel=1e-12)

    def test_blocks_are_diagonal(self, spdc_pair):
        rho0, _ = spdc_pair
        for block in rho0.blocks.values():
            assert np.all(block == np.diag(np.diag(block)))

    def test_trace_near_one(self, spdc_pair):
        rho0, _ = spdc_pair
        assert rho0.trace() >= 1 - 1e-7

    def test_cold_limit_is_vacuum(self):
        params = ScenarioParams(n_s=1e-12, kappa=0.0, n_b=0.0)
        state = build_rho0(params, TruncationSpec(0, 0, 1e-9))
        assert set(state.blocks) == {0}
        assert state.blocks[0].shape == (1, 1)
        assert state.blocks[0][0, 0] == pytest.approx(1.0, abs=2e-12)


class TestBuildRho1:
    def test_vacuum_corner_entry(self, spdc_pair):
        _, rho1 = spdc_pair
        assert rho1.blocks[0][0, 0] == pytest.approx(1 / (1.01 * 21.0), rel=1e-12)

    def test_kappa_zero_equals_rho0(self, ref_params, ref_trunc):
        params = ScenarioParams(ref_params.n_s, 0.0, ref_params.n_b)
        a = build_rho0(params, ref_trunc)
        b = build_rho1(params, ref_trunc)
        worst = max(
            float(np.abs(a.blocks[d] - b.blocks[d]).max()) for d in a.blocks
        )
        assert worst <= 1e-14

    def test_rejects_zero_background(self):
        params = ScenarioParams(0.01, 0.01, 0.0)
        with pytest.raises(DomainError):
            build_rho1(params, TruncationSpec(5, 5, 1e-9))

    @pytest.mark.parametrize("which", [0, 1])
    def test_state_health(self, spdc_pair, which):
        state = spdc_pair[which]
        assert hermiticity_defect(state) <= 1e-12
        assert 1 - 1e-6 <= state.trace() <= 1 + 1e-12
        assert min_eigenvalue(state) >= -1e-10

    def test_selection_rule_in_dense_form(self):
        """Entries coupling different photon-number differences never exist."""
        params = ScenarioParams(0.2, 0.3, 1.5)
        state = build_rho1(params, TruncationSpec(9, 3, 1e-2))
        dense = to_dense(state)
        ni = 4
        dim = dense.shape[0]
        for row in range(dim):
            for col in range(dim):
                if (row // ni - row % ni) != (col // ni - col % ni):
                    assert dense[row, col] == 0.0


class TestMoments:
    def test_rho1_reproduces_covariance_moments(self, ref_params, spdc_pair):
        _, rho1 = spdc_pair
        report = moments_check(rho1)
        tol = 10 * TAIL * (ref_params.n_b + 1)  # relative budget from the tails
        n_r = ref_params.kappa * ref_params.n_s + ref_params.n_b
        cross = math.sqrt(ref_params.kappa * ref_params.n_s * (1 + ref_params.n_s))
        assert report.mean_n_r == pytest.approx(n_r, rel=tol)
        assert report.mean_n_i == pytest.approx(ref_params.n_s, rel=tol)
        assert report.cross_corr == pytest.approx(cross, rel=tol)

    def test_product_state_has_no_cross_correlation(self, spdc_pair):
        rho0, _ = spdc_pair
        assert moments_check(rho0).cross_corr == 0.0

    def test_rejects_leaky_state(self, ref_trunc, spdc_pair):
        rho0, _ = spdc_pair
        half = JointState.from_blocks(
            blocks={d: 0.5 * b for d, b in rho0.blocks.items()},
            trunc=ref_trunc,
        )
        with pytest.raises(DomainError):
            moments_check(half)


@pytest.fixture(scope="module")
def small_pair():
    """Cheap low-background pair where a dense eigensolve is feasible."""
    params = ScenarioParams(0.01, 0.01, 1.0)
    trunc = TruncationSpec(40, 4, 1e-9)
    return build_rho0(params, trunc), build_rho1(params, trunc)


def block_difference_spectra(rho0, rho1):
    """eigh of rho1 - rho0 block by block: {d: (eigenvalues, eigenvectors)}."""
    return {d: np.linalg.eigh(rho1.blocks[d] - rho0.blocks[d]) for d in sorted(rho0.blocks)}


class TestBlockEigendecompose:
    """Per-block spectra of a state pair, as the Chernoff and Helstrom layers
    take them, against dense and closed-form oracles."""

    def test_identical_difference_is_zero(self, small_pair):
        rho0, _ = small_pair
        spectra = block_difference_spectra(rho0, rho0)
        worst = max(float(np.abs(w).max()) for w, _ in spectra.values())
        assert worst <= 1e-14
        assert helstrom_single_shot(rho0, rho0).pe_single == pytest.approx(0.5, abs=1e-14)

    def test_difference_reconstruction(self, small_pair):
        rho0, rho1 = small_pair
        for d, (w, v) in block_difference_spectra(rho0, rho1).items():
            target = rho1.blocks[d] - rho0.blocks[d]
            back = v @ np.diag(w) @ v.T
            assert float(np.abs(back - target).max()) <= 1e-10

    def test_trace_distance_matches_dense_oracle(self, small_pair):
        """Blockwise |eigenvalue| sum equals the one-shot dense eigensolve."""
        rho0, rho1 = small_pair
        spectra = block_difference_spectra(rho0, rho1)
        t_block = sum(float(np.abs(w).sum()) for w, _ in spectra.values())
        dense = to_dense(rho1) - to_dense(rho0)
        t_dense = float(np.abs(np.linalg.eigvalsh(dense)).sum())
        assert t_block == pytest.approx(t_dense, abs=1e-13)
        assert 0.0 < t_block <= 2.0

    def test_positive_part_matches_helstrom(self, small_pair):
        rho0, rho1 = small_pair
        spectra = block_difference_spectra(rho0, rho1)
        gamma_plus = sum(float(w[w > 0].sum()) for w, _ in spectra.values())
        pe = helstrom_single_shot(rho0, rho1).pe_single
        assert (1 - gamma_plus) / 2 == pytest.approx(pe, abs=1e-12)

    def test_each_mode_clamps_and_reports(self, small_pair):
        """The Chernoff layer clamps each state's spectrum at zero."""
        pair = _SpectralPair(*small_pair)
        assert np.all(pair.w0 >= 0.0) and np.all(pair.w1 >= 0.0)

    def test_rejects_mismatched_truncation(self, small_pair, spdc_pair):
        with pytest.raises(DomainError):
            helstrom_single_shot(small_pair[0], spdc_pair[1])
        with pytest.raises(DomainError):
            _SpectralPair(small_pair[0], spdc_pair[1])


class TestThermalState:
    def test_diagonal_matches_pmf(self):
        rho = thermal_state(2.0, 30)
        n = np.arange(31)
        want = 2.0 ** n / 3.0 ** (n + 1)
        assert np.allclose(np.diag(rho), want, rtol=1e-13, atol=0)
        assert np.all(rho == np.diag(np.diag(rho)))

    def test_zero_mean_is_vacuum(self):
        rho = thermal_state(0.0, 5)
        assert rho[0, 0] == 1.0 and float(np.abs(rho).sum()) == 1.0

    @pytest.mark.parametrize("mean", [0.01, 1.0, 100.0])
    def test_diagonal_is_the_log_weight_formula_bit_for_bit(self, mean):
        cutoff = thermal_cutoff(mean, 1e-12)
        n = np.arange(cutoff + 1)
        want = np.exp(n * math.log(mean) - (n + 1) * math.log1p(mean))
        assert np.array_equal(thermal_state(mean, cutoff), np.diag(want))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            thermal_state(-1.0, 5)
        with pytest.raises(DomainError):
            thermal_state(1.0, -1)


class TestDisplacedThermal:
    def test_zero_displacement_is_thermal(self):
        assert np.array_equal(
            build_displaced_thermal(0.0, 2.0, 60), thermal_state(2.0, 60)
        )

    def test_pure_coherent_state(self):
        alpha = 0.7
        rho = build_displaced_thermal(alpha, 0.0, 30)
        n = np.arange(31)
        assert float(np.diag(rho) @ n) == pytest.approx(alpha**2, rel=1e-12)
        assert float(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-12)
        want3 = math.exp(-alpha**2) * alpha**6 / 6
        assert rho[3, 3] == pytest.approx(want3, rel=1e-12)

    def test_mean_identity_at_reference(self):
        cutoff = thermal_cutoff(20.0001, 1e-9)
        rho = build_displaced_thermal(0.01, 20.0, cutoff)
        mean = float(np.diag(rho) @ np.arange(cutoff + 1))
        assert mean == pytest.approx(20.0001, abs=2e-5)
        assert float(np.abs(rho - rho.T).max()) <= 1e-12
        assert float(np.linalg.eigvalsh(rho).min()) >= -1e-10

    def test_tight_cutoff_rejected(self):
        # tail mass at mean 20.0001 beyond level 300 is about 4e-7
        with pytest.raises(TruncationError):
            build_displaced_thermal(0.01, 20.0, 300)

    def test_rejects_negative_arguments(self):
        with pytest.raises(DomainError):
            build_displaced_thermal(-0.1, 1.0, 30)
        with pytest.raises(DomainError):
            build_displaced_thermal(0.1, -1.0, 30)
