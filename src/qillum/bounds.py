"""Overlap functionals and K-copy error-probability bounds.

The s-overlap Q_s = Tr(rho0^s rho1^(1-s)) is evaluated spectrally: both
states are eigendecomposed once, after which every s costs one weighted
quadratic form per block.  Each state takes one batched ``eigh`` over
its zero-padded block stack, and each Q_s one ``einsum``; a dense
single-mode benchmark is the one-block case.  Padding only adds zero
eigenvalues: they vanish on 0 < s < 1, and at s = 0 or 1 (0**0 = 1) the
rows and columns of M still sum to one, so Q_0 = Tr rho1, Q_1 = Tr rho0.
The cached form Q_s = sum_ij M_ij w0_i^s w1_j^(1-s) has
M >= 0 and clipped w >= 0, so on (0, 1) every nonzero term is log-linear in
s and the sum is log-convex, hence unimodal: one golden section finds the
Chernoff minimum.  Zero eigenvalues enter only at s = 0 or 1 (0**0 = 1),
where they can only raise Q_s, and the search keeps both endpoints.

For K independent mode pairs the minimum error probability is sandwiched by

    lower  = (1 - sqrt(1 - Q_half**(2K))) / 2
    upper  = Q_chernoff**K / 2   <=   Q_half**K / 2

all of which are evaluated in the log domain so K up to 1e8 is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError
from .fockspace import JointState
from .gss import golden_section_min

__all__ = [
    "ExponentReport",
    "BoundTriple",
    "q_s",
    "qcb",
    "overlaps",
    "error_prob_bounds",
    "asymptotic_exponents",
]

_LN10 = math.log(10.0)
_LOG10_HALF = math.log10(0.5)
_S_TOL = 1e-4        # bracket width for the Chernoff s-search
_FLAT_Q_TOL = 1e-12  # treat 1 - Q below this as "states indistinguishable"


# --- spectral plumbing -------------------------------------------------------

def _pair_stacks(rho0, rho1) -> Tuple[np.ndarray, np.ndarray]:
    """The pair as two matching (n_blocks, m, m) stacks; a dense pair is one block."""
    if isinstance(rho0, JointState) and isinstance(rho1, JointState):
        if rho0.trunc != rho1.trunc:
            raise DomainError("state pair must share one TruncationSpec")
        return rho0.stack, rho1.stack
    a = np.asarray(rho0, dtype=float)
    b = np.asarray(rho1, dtype=float)
    if a.ndim != 2 or a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DomainError("single-mode states must be equal-shape square matrices")
    return a[np.newaxis], b[np.newaxis]


class _SpectralPair:
    """Cached eigensystems of a state pair for repeated Q_s evaluation.

    Keeps the stacked clamped spectra w0, w1 of the two states and the
    squared overlap matrices M_ij = |<u_i | v_j>|^2, one per block, so that
    Q_s = sum over blocks of w0^s . M . w1^(1-s).
    """

    def __init__(self, rho0, rho1):
        b0, b1 = _pair_stacks(rho0, rho1)
        w0, u0 = np.linalg.eigh(b0)
        w1, u1 = np.linalg.eigh(b1)
        self.w0 = np.clip(w0, 0.0, None, out=w0)
        self.w1 = np.clip(w1, 0.0, None, out=w1)
        overlap_sq = np.matmul(u0.transpose(0, 2, 1), u1)
        self.overlap_sq = np.square(overlap_sq, out=overlap_sq)

    def q_s(self, s: float) -> float:
        # per-block contributions, summed exactly so their order cannot matter
        return math.fsum(np.einsum("bi,bij,bj->b", np.power(self.w0, s), self.overlap_sq,
                                   np.power(self.w1, 1.0 - s)).tolist())

    def chernoff(self) -> Tuple[float, float, float]:
        """(s_star, q_min, q_half): the search behind qcb."""
        s_best, q_best = golden_section_min(self.q_s, 0.0, 1.0, _S_TOL)
        q_half = self.q_s(0.5)
        if q_half <= q_best:
            s_best, q_best = 0.5, q_half

        if 1.0 - q_best <= _FLAT_Q_TOL:
            s_best = 0.5
        return s_best, q_best, q_half


def q_s(rho0, rho1, s: float) -> float:
    """Tr(rho0^s rho1^(1-s)) for s in [0, 1].

    Accepts two JointStates on one truncation, or two plain single-mode
    density matrices.  Negative truncation leakage is clamped to zero
    before fractional powers; 0**0 counts as 1, so s=0 and s=1 reduce to
    the traces of the truncated states.
    """
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"s must lie in [0, 1], got {s}")
    return _SpectralPair(rho0, rho1).q_s(s)


def qcb(rho0, rho1) -> Tuple[float, float, float]:
    """Chernoff minimum of Q_s over s in [0, 1].

    Returns (s_star, q_min, exponent) with exponent = -ln q_min clamped at
    zero.  Q_s is log-convex, hence unimodal, on (0, 1), and zero
    eigenvalues can only raise its endpoint values, so one golden section
    over [0, 1] with both endpoints as candidates finds the minimum.
    s = 0.5 is always a candidate, so q_min <= Q_half holds exactly.
    Indistinguishable states report s_star = 0.5 by convention.
    """
    s_star, q_min, _ = _SpectralPair(rho0, rho1).chernoff()
    return s_star, q_min, max(0.0, -math.log(q_min))


def overlaps(rho0, rho1) -> Tuple[float, float]:
    """(Q_half, Q_min): q_s(rho0, rho1, 0.5) and qcb's q_min from one
    spectral decomposition of the pair."""
    _, q_min, q_half = _SpectralPair(rho0, rho1).chernoff()
    return q_half, q_min


# --- K-copy sandwich ---------------------------------------------------------

@dataclass(frozen=True)
class BoundTriple:
    """Lower and upper bounds on the K-copy minimum error probability,
    with log10 companions computed without underflow."""

    lower: float
    upper_qcb: float
    upper_bhatt: float
    log10_lower: float
    log10_upper_qcb: float
    log10_upper_bhatt: float

    def __post_init__(self):
        # The ordering is checked on the log legs: deep in the tail the linear
        # legs all underflow to 0.0 and would pass any order.
        def at_most(a: float, b: float) -> bool:
            return a <= b + 1e-12 * (1.0 + abs(b))

        if not (
            at_most(self.log10_lower, self.log10_upper_qcb)
            and at_most(self.log10_upper_qcb, self.log10_upper_bhatt)
            and at_most(self.log10_upper_bhatt, _LOG10_HALF)
        ):
            raise DomainError(
                "bound ordering violated; inputs are not a physical overlap pair "
                f"(lower={self.lower}, upper_qcb={self.upper_qcb}, "
                f"upper_bhatt={self.upper_bhatt})"
            )


def error_prob_bounds(q_half: float, q_qcb: float, K: int) -> BoundTriple:
    """Sandwich the K-copy optimal error probability between the overlap bounds.

    Requires 0 < q_qcb <= q_half <= 1.  For overlaps of genuine state pairs
    log-convexity also gives q_half**2 <= q_qcb, which is what makes the
    lower bound sit below the Chernoff upper bound.
    """
    if not (0.0 < q_qcb <= q_half <= 1.0):
        raise DomainError(
            f"need 0 < q_qcb <= q_half <= 1, got q_qcb={q_qcb}, q_half={q_half}"
        )
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")

    ln_qcb = K * math.log(q_qcb)
    ln_bhatt = K * math.log(q_half)
    ln_upper_qcb = ln_qcb - math.log(2.0)
    ln_upper_bhatt = ln_bhatt - math.log(2.0)

    # lower = (1 - sqrt(1 - Q^2K))/2 rewritten as Q^2K / (2 (1 + sqrt(1 - Q^2K)))
    t = 2.0 * ln_bhatt
    one_minus = -math.expm1(t)  # 1 - Q^2K without cancellation
    ln_lower = t - math.log(2.0 * (1.0 + math.sqrt(max(one_minus, 0.0))))

    return BoundTriple(
        lower=math.exp(ln_lower),
        upper_qcb=math.exp(ln_upper_qcb),
        upper_bhatt=math.exp(ln_upper_bhatt),
        log10_lower=ln_lower / _LN10,
        log10_upper_qcb=ln_upper_qcb / _LN10,
        log10_upper_bhatt=ln_upper_bhatt / _LN10,
    )


# --- closed-form exponents ---------------------------------------------------

@dataclass(frozen=True)
class ExponentReport:
    """Error exponents of one scenario.

    The closed forms hold in the weak-signal / bright-background regime
    (ScenarioParams.regime_ok reports whether the scenario sits there):

        r_q      = kappa n_s / n_b          entangled transmitter, optimal measurement
        r_c      = kappa n_s / (4 n_b)      coherent transmitter, optimal measurement
        r_c_hom  = kappa n_s / (4 n_b + 2)  coherent transmitter, homodyne readout
    """

    r_q: float
    r_c: float
    r_c_hom: float

    def __post_init__(self):
        for name in ("r_q", "r_c", "r_c_hom"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and >= 0, got {v}")


def asymptotic_exponents(params) -> ExponentReport:
    """Closed-form error exponents for a scenario (requires n_b > 0)."""
    if params.n_b <= 0.0:
        raise DomainError("asymptotic exponents need n_b > 0")
    kns = params.kappa * params.n_s
    return ExponentReport(
        r_q=kns / params.n_b,
        r_c=kns / (4.0 * params.n_b),
        r_c_hom=kns / (4.0 * params.n_b + 2.0),
    )
