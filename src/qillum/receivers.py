"""Structured receivers: homodyne, optical parametric amplifier, Helstrom.

The OPA receiver mixes the retained idler with the return on a weak
parametric amplifier of gain G; its output mode is thermal under either
hypothesis, with mean photon number

    N0 = G n_s + (G-1)(1 + n_b)
    N1 = G n_s + (G-1)(1 + n_b + kappa n_s)
         + 2 sqrt(G(G-1)) sqrt(kappa n_s (n_s+1))

so deciding between hypotheses reduces to thresholding a total count over
K mode pairs: negative binomial for a photon-number-resolving detector,
Binomial(K, N/(1+N)) for a click detector.  The count likelihood ratio
grows with the count, so the error-minimizing threshold is the first count
at which it reaches one, a closed form evaluated once per K.  It is taken
in floats, and kept when the ratio it ceils lies farther from an integer
than a wide margin over its rounding-error bound (which assumes a libm
log1p within 1 ulp); the rare near ties fall back to 50-digit decimal
logs.  Both count laws, and the binomial
majority vote over single-pair Helstrom decisions, have regularized
incomplete-beta tails, so one threshold test (_threshold_error) serves all
three and keeps far tails accurate in a relative sense; Gaussian
approximations and log-domain variants are provided for cross-checks and
large K.  Every per-K function also takes an integer array of K, and the
gain search and the exponents at a gain a scenario of arrays (one gain per
element): each element gets the float it would get alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal
from typing import Optional, Tuple

import numpy as np
from scipy.special import betainc, log_ndtr, ndtr

from .bounds import _all, _copies, _each, _like
from .errors import DomainError
from .fockspace import JointState
from .gss import golden_section_min
from .scenario import GAIN_AUTO, GAIN_BHATT, CountModel, ThresholdPolicy

__all__ = [
    "HelstromResult",
    "half_erfc_sqrt",
    "homodyne_error",
    "opa_output_means",
    "opa_error_exact",
    "opa_error_gaussian",
    "optimize_gain",
    "opa_bhattacharyya",
    "helstrom_single_shot",
    "majority_vote_error",
    "resolve_gain",
]

_LN10 = math.log(10.0)
_LR_CONTEXT = Context(prec=50)  # decimal arithmetic for likelihood-ratio thresholds
_LR_MARGIN = 1e-12  # relative distance from an integer that certifies a float threshold
_GAIN_MIN_EXCESS = 1e-9
_GAIN_MAX = 1.5
_GAIN_REL_TOL = 1e-4
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # smallest normal float


def half_erfc_sqrt(y) -> Tuple[float, float]:
    """(p, log10 p) for p = erfc(sqrt(y)) / 2, stable for large y.

    erfc(x)/2 is the upper Gaussian tail at x*sqrt(2), so the log route
    goes through the log normal CDF and never underflows.
    """
    arg = np.asarray(y, dtype=float)
    if (arg < 0.0).any():
        raise DomainError(f"need y >= 0, got {y}")
    x = -np.sqrt(arg) * math.sqrt(2.0)
    p, log10_p = ndtr(x), log_ndtr(x) / _LN10
    return (p, log10_p) if np.ndim(y) else (float(p), float(log10_p))


def homodyne_error(params, K) -> Tuple[float, float]:
    """Error probability of coherent-state transmission with homodyne
    readout over K modes: erfc(sqrt(kappa n_s K / (4 n_b + 2))) / 2.

    Returns (probability, log10 probability).
    """
    k = _copies(K).astype(float)
    with np.errstate(over="ignore"):
        p, log10_p = half_erfc_sqrt(params.kappa * params.n_s * k / (4.0 * params.n_b + 2.0))
    return _like(K, p), _like(K, log10_p)


# --- OPA receiver ------------------------------------------------------------

def _opa_means(params, G):
    """(N0, N1, N1 - N0); N1 - N0 is the sum of its two non-negative terms,
    so it keeps its digits however close N1 is to N0."""
    one = type(G) is float  # the gain search's hot path: no numpy call
    if not (1.0 < G < math.inf if one else _all((G > 1.0) & (G < math.inf))):
        raise DomainError(f"gain must satisfy G > 1, got {G}")
    sqrt = math.sqrt if one else np.sqrt
    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    n0 = G * n_s + (G - 1.0) * (1.0 + n_b)
    a = (G - 1.0) * kappa * n_s
    b = 2.0 * sqrt(G * (G - 1.0)) * sqrt(kappa * n_s * (n_s + 1.0))
    n1 = n0 + a + b
    spread = n1 * (n1 + 1.0)
    if not (spread < math.inf if one else _all(spread < math.inf)):
        raise DomainError(f"OPA output statistics overflow at G={G!r}: n0={n0}, n1={n1}")
    return n0, n1, a + b


def opa_output_means(params, G) -> Tuple[float, float]:
    """Thermal means (N0, N1) of the OPA output mode under H0 and H1.

    N1 is N0 plus two non-negative terms, so N1 >= N0.  The deviation of a
    thermal mode of mean N is sqrt(N (N+1)); the larger one, at N1,
    overflows first, so a non-finite N1 (N1 + 1) raises DomainError.
    """
    n0, n1, _ = _opa_means(params, G)
    return n0, n1


def _lr_threshold(n0: float, n1: float, K, clicks: bool):
    """First count at which target-present is at least as likely as absent.

    Over K modes the count likelihood ratio is r^n ((1+N0)/(1+N1))^K, with
    r = N1(1+N0) / (N0(1+N1)) for photon counts and r = N1/N0 for click
    counts (q/(1-q) = N).  It grows with n, so the smallest integer t with

        t ln r >= K ln((1+N1)/(1+N0))

    is the Bayes threshold at equal priors; on a tie the lower threshold
    wins.  For clicks ln r exceeds the right-hand log, so t <= K.

    The ratio is first taken in floats from D = N1 - N0, through logs that
    cannot cancel: ln((1+N1)/(1+N0)) = log1p(D/(1+N0)), and ln r =
    log1p(D/(N0(1+N1))) for counts (r - 1 = D/(N0(1+N1)) exactly) or
    log1p(D/N0) for clicks.  Rounding bound, with u = 2**-53 and both
    log1p arguments normal floats, to first order in u:

      - each float operation adds at most u of relative error: D one, the
        numerator's argument two more (1+N0, the division), the count
        denominator's three more (1+N1, the product, the division; the
        click denominator's one);
      - log1p has condition number a/((1+a) log1p(a)) <= 1 for a > 0, so
        it passes that error on undiminished, and adds 1 ulp (2u) of its
        own, assuming a libm log1p within 1 ulp (glibc's measured bound,
        not a guarantee; other libms are unchecked): 5u and 6u on the
        two logs;
      - K (exact below 2**53, else one more u), the product and the
        quotient bring the float ratio within 14u < 1.6e-15 of the exact
        ratio, relatively.

    So when the float ratio lies farther than _LR_MARGIN * max(1, ratio),
    about 600 times that bound, from every integer, its ceiling is the
    exact one; the headroom covers a log1p a few ulps worse than assumed.
    Every other case takes _lr_threshold_exact: a near tie, a ratio above
    5e11 (where the margin reaches 1/2), a subnormal log1p argument, an
    overflow, N0 <= 0 or N1 <= N0.  Over an array of K each element keeps
    or fails its own certificate.
    """
    ks = _copies(K)
    ratio = np.full(ks.shape, math.nan)
    if n0 > 0.0 and n1 > n0:
        delta = n1 - n0
        a = delta / (1.0 + n0)
        b = delta / n0 if clicks else delta / (n0 * (1.0 + n1))
        if a >= _TINY and b >= _TINY:
            with np.errstate(over="ignore"):
                ratio = ks.astype(float) * math.log1p(a) / math.log1p(b)
    t = np.ceil(ratio)
    with np.errstate(invalid="ignore"):  # inf - inf: not certified
        sure = np.minimum(t - ratio, ratio - t + 1.0) > _LR_MARGIN * np.maximum(1.0, ratio)
    return _like(K, np.array([int(tk) if ok else _lr_threshold_exact(n0, n1, k, clicks)
                              for k, ok, tk in zip(ks.tolist(), sure.tolist(), t.tolist())],
                             dtype=object))


def _lr_threshold_exact(n0: float, n1: float, K: int, clicks: bool) -> int:
    """_lr_threshold with the logs taken in 50-digit decimal arithmetic on
    the exact binary inputs, so a ratio that lands within float rounding of
    an integer still rounds up the right way."""
    c = _LR_CONTEXT
    d0, d1 = Decimal(n0), Decimal(n1)
    e0, e1 = c.add(d0, 1), c.add(d1, 1)
    if clicks:
        r = c.divide(d1, d0)
    else:
        r = c.divide(c.multiply(d1, e0), c.multiply(d0, e1))
    ratio = c.divide(c.multiply(int(K), c.ln(c.divide(e1, e0))), c.ln(r))
    return int(ratio.to_integral_value(rounding=ROUND_CEILING))


def _threshold_error(t: np.ndarray, ks: np.ndarray, x0: float, y1: float, clicks: bool):
    """Equal-prior error (P0(X >= t) + P1(X < t)) / 2 of the test X >= t,
    per element of the arrays of thresholds t and copies K.

    Both count laws have incomplete-beta tails.  With x = N/(1+N) for a
    thermal mode of mean N, or the per-trial probability p of a binomial
    count, and y = 1 - x:

        photon counts (negative binomial):  P(X >= t) = I_x(t, K),
                                            P(X < t)  = I_y(K, t)
        clicks or votes, Binomial(K, p):    P(X >= t) = I_p(t, K-t+1),
                                            P(X < t)  = I_y(K-t+1, t)

    x0 is x (or p) under H0 and y1 is y under H1.  Callers pass y1 in the
    form they compute it (1/(1+N1) for counts, 1 - q1 for clicks), since
    the forms differ in the last bit.  betainc evaluates the incomplete
    beta directly on each tail, so tiny values keep relative accuracy.
    t < 1 always decides target-present and a click t > K never does.
    """
    pe = np.full(t.shape, 0.5)
    live = (t >= 1) & (t <= ks) if clicks else t >= 1
    a = t[live].astype(float)
    b = (ks - t + 1.0 if clicks else ks)[live].astype(float)
    upper = 0.0 if x0 == 0.0 else betainc(a, b, x0)
    lower = 0.0 if y1 == 0.0 else betainc(b, a, y1)
    pe[live] = 0.5 * (upper + lower)
    return pe


def opa_error_exact(
    params, G: float, K, policy, count_model=CountModel.FULL_COUNTING
) -> Tuple[float, Optional[int]]:
    """Exact threshold-test error of the OPA receiver over K mode pairs.

    count_model 'full_counting' thresholds the negative-binomial photon
    count; 'on_off' thresholds the Binomial(K, N/(1+N)) click count.
    policy 'paper_formula' uses the Gaussian crossing threshold of the
    count law, from its per-mode mean and deviation; 'optimal_scan' uses
    the exact likelihood-ratio threshold, which minimizes the error over
    all integer thresholds (the lowest minimizer on a tie).  Returns
    (P_e, t): the error and the integer threshold t of the test "decide
    target-present when the K-mode total count is >= t".  kappa = 0 makes
    both count laws identical; that case returns (1/2, None) instead of
    pretending to decide.

    The tails see N0 and N1 only through 1 - x0 = 1/(1+N0) and y1 ~ 1/(1+N1),
    each rounded by at most eps.  At huge gains their gap shrinks to that
    size, the two laws are no longer resolved and the error would be noise
    (even above 1/2), so that raises DomainError.
    """
    ks = _copies(K)
    policy = ThresholdPolicy(policy)
    clicks = CountModel(count_model) is CountModel.ON_OFF
    n0, n1 = opa_output_means(params, G)
    if n1 == n0:
        return _like(K, np.full(ks.shape, 0.5)), None
    # per-mode mean and deviation of the count law, and its tail arguments
    q0 = n0 / (1.0 + n0)
    if clicks:
        q1 = n1 / (1.0 + n1)
        m0, m1, y1 = q0, q1, 1.0 - q1
        s0, s1 = math.sqrt(q0 * (1.0 - q0)), math.sqrt(q1 * (1.0 - q1))
    else:
        m0, m1, y1 = n0, n1, 1.0 / (1.0 + n1)
        s0, s1 = math.sqrt(n0 * (n0 + 1.0)), math.sqrt(n1 * (n1 + 1.0))
    if (1.0 - q0) - y1 <= 2.0 * _EPS:
        raise DomainError(
            f"gain G={G!r} too large: the count tails no longer resolve "
            f"N0={n0!r} from N1={n1!r}"
        )

    if policy is ThresholdPolicy.PAPER_FORMULA:
        with np.errstate(over="ignore"):
            crossing = ks.astype(float) * (s1 * m0 + s0 * m1) / (s0 + s1)
        t = np.array([math.ceil(x) for x in crossing.tolist()], dtype=object)
    else:
        t = _lr_threshold(n0, n1, ks, clicks)
    return _like(K, _threshold_error(t, ks, q0, y1, clicks)), _like(K, t)


def _r_opa(params, G):
    """R_OPA = (N1-N0)^2 / (2 (sigma0+sigma1)^2), sigma = sqrt(N (N+1)).
    The square overflows below opa_output_means's guard: DomainError."""
    n0, n1, _ = _opa_means(params, G)
    try:
        if type(G) is float:
            return (n1 - n0) ** 2 / (2.0 * (math.sqrt(n0 * (n0 + 1.0)) + math.sqrt(n1 * (n1 + 1.0))) ** 2)
        # arrays: float ** 2 per element, as numpy's square can differ from libm's pow
        sigmas = np.sqrt(n0 * (n0 + 1.0)) + np.sqrt(n1 * (n1 + 1.0))
        return _each(pow, n1 - n0, 2) / (2.0 * _each(pow, sigmas, 2))
    except OverflowError:
        raise DomainError(f"float overflow in R_OPA at G={G!r}: n0={n0}, n1={n1}") from None


def opa_error_gaussian(params, G: float, K: int) -> Tuple[float, float]:
    """Gaussian-approximation error of the OPA threshold test and its
    exponent R_OPA = (N1-N0)^2 / (2 (sigma0+sigma1)^2).

    Returns (probability, r_opa); probability = erfc(sqrt(r_opa K)) / 2.
    """
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    r_opa = _r_opa(params, G)
    pe, _ = half_erfc_sqrt(r_opa * K)
    return pe, r_opa


def optimize_gain(params) -> Tuple[Optional[float], float]:
    """Maximize R_OPA over G in (1, 1.5] by golden section on log(G-1).

    Returns (g_star, r_opa).  The objective is flat when kappa = 0; that
    returns (None, 0.0) rather than a fake optimum.  Scenarios in arrays,
    each with kappa > 0, share one golden section, each element taking the
    steps of its own search.
    """
    exp = math.exp
    if isinstance(params.kappa, np.ndarray):
        if not _all(params.kappa > 0.0):
            raise DomainError("a gain search over arrays needs kappa > 0 everywhere")
        exp = lambda t: _each(math.exp, np.full(params.kappa.shape, t))  # t may be a bracket end
    elif params.kappa == 0.0:
        return None, 0.0
    t_star, neg_best = golden_section_min(
        lambda t: -_r_opa(params, 1.0 + exp(t)),
        math.log(_GAIN_MIN_EXCESS), math.log(_GAIN_MAX - 1.0), _GAIN_REL_TOL,
    )
    return 1.0 + exp(t_star), -neg_best


def opa_bhattacharyya(params, G: float) -> Tuple[float, float, float]:
    """Per-mode Bhattacharyya overlap of the two OPA count laws.

    Returns (q_b, r_b_exact, r_b_small_gain) where r_b_exact = -ln q_b and

        1/q_b = sqrt((1+N0)(1+N1)) - sqrt(N0 N1),
        1/q_b**2 = 1 + ((N1 - N0) / S)**2,   S = sqrt(N1 (1+N0)) + sqrt(N0 (1+N1)),

    the second since (sqrt(N1 (1+N0)) - sqrt(N0 (1+N1))) S = N1 - N0.  It is
    the one evaluated, with N1 - N0 summed from its two non-negative terms:
    the amplified return (G-1) kappa n_s, and 2 sqrt(G(G-1)) sqrt(kappa n_s
    (n_s+1)) from the return's phase-sensitive correlation with the idler.
    So nothing cancels, and identical laws (kappa = 0) give exactly (1.0, 0.0).

    r_b_small_gain is the weak-gain expansion with eps^2 = G - 1:

        eps^2 kappa n_s (n_s+1) /
            (2 n_s (n_s+1) + 2 eps^2 (1+2 n_s)(1+n_s+n_b))
    """
    n0, n1, gap = _opa_means(params, G)
    root = _each(math.sqrt, n1 * (1.0 + n0)) + _each(math.sqrt, n0 * (1.0 + n1))
    r_b_exact = 0.5 * _each(math.log1p, _each(pow, gap / root, 2))

    eps2 = G - 1.0
    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    r_b_small = (
        eps2 * kappa * n_s * (n_s + 1.0)
        / (
            2.0 * n_s * (n_s + 1.0)
            + 2.0 * eps2 * (1.0 + 2.0 * n_s) * (1.0 + n_s + n_b)
        )
    )
    return _each(math.exp, -r_b_exact), r_b_exact, r_b_small


# --- optimal joint measurement ----------------------------------------------

@dataclass(frozen=True)
class HelstromResult:
    """Single-copy optimal-measurement error and its conditional rates."""

    pe_single: float
    p01: float
    p10: float

    def __post_init__(self):
        slack = 1e-9
        if not -slack <= self.pe_single <= 0.5 + slack:
            raise DomainError(f"pe_single must lie in [0, 1/2], got {self.pe_single}")
        # The conditional rates are individually only bounded by 1: the optimal
        # projector minimizes the average, and one leg may sit slightly above
        # 1/2 when the two states are nearly identical.
        for name in ("p01", "p10"):
            v = getattr(self, name)
            if not -slack <= v <= 1.0 + slack:
                raise DomainError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.pe_single - 0.5 * (self.p01 + self.p10)) > 1e-12:
            raise DomainError("pe_single inconsistent with (p01 + p10)/2")


def helstrom_single_shot(rho0: JointState, rho1: JointState) -> HelstromResult:
    """Optimal-measurement error for one mode pair.

    Decides target-present on the positive eigenspace of rho1 - rho0 and
    target-absent on the negative one; the zero eigenspace (relevant only
    for identical states) is split by a fair coin, which leaves

        pe_single = (1 - sum of positive eigenvalues) / 2 = (p01 + p10) / 2

    intact.  Only the average is guaranteed to stay at or below 1/2; for
    nearly identical states one conditional rate can land slightly above.
    One batched eigensolve covers the zero-padded stack of rho1 - rho0,
    and every sum is exact (math.fsum, over a memoryview of floats).  Padded
    eigenvalues join the half-weight zero cluster, where the states vanish,
    so they add nothing whatever basis the solver picks there.
    """
    if not (isinstance(rho0, JointState) and isinstance(rho1, JointState)):
        raise DomainError("helstrom_single_shot needs two JointStates")
    if rho0.trunc != rho1.trunc:
        raise DomainError("state pair must share one TruncationSpec")
    tr0, tr1 = rho0.trace(), rho1.trace()
    if tr0 < 1.0 - 1e-6 or tr1 < 1.0 - 1e-6:
        raise DomainError(f"state traces too small ({tr0:.8f}, {tr1:.8f})")

    w, v = np.linalg.eigh(rho1.stack - rho0.stack)

    # Absolute floor: for identical states every eigenvalue is cancellation
    # noise (~1e-15) and a purely relative cut would classify that noise as
    # signal, biasing p01/p10 arbitrarily.  Genuine eigenvalues below 1e-14
    # contribute less than dim * 1e-14 to any reported probability.
    ztol = max(1e-12 * float(np.abs(w).max()), 1e-14)
    # projector weight per eigenvector: 1 positive, 1/2 zero, 0 negative
    weight = np.where(w > ztol, 1.0, np.where(np.abs(w) <= ztol, 0.5, 0.0))
    margin = math.fsum(memoryview((weight * w).ravel()))
    p01 = math.fsum(memoryview((weight * np.einsum("bji,bjk,bki->bi", v, rho0.stack, v)).ravel()))
    # v^T rho1 v = v^T rho0 v + diag(w), so 1 - p10 = p01 + margin
    return HelstromResult(pe_single=0.5 * (1.0 - margin), p01=p01, p10=1.0 - p01 - margin)


def majority_vote_error(p01: float, p10: float, K, method: str = "exact_binomial"):
    """Error of a majority vote over K independent single-pair decisions.

    Votes for target-present are Binomial(K, p01) under H0 and
    Binomial(K, 1 - p10) under H1; the vote decides target-present only on
    a strict majority, so ties (even K) go to target-absent.  'exact_binomial'
    uses incomplete-beta tails; 'clt' the midpoint-corrected Gaussian.
    """
    ks = _copies(K)
    # Identical truncated states put half the tail deficit on p10, landing it
    # a few 1e-10 above 1/2; tolerate that much and clip, reject real excess.
    slack = 1e-8
    clipped = []
    for name, p in (("p01", p01), ("p10", p10)):
        if not 0.0 <= p <= 0.5 + slack:
            raise DomainError(f"{name} must lie in [0, 1/2], got {p}")
        clipped.append(min(p, 0.5))
    p01, p10 = clipped
    t = ks // 2 + 1  # smallest winning vote count for target-present

    if method == "exact_binomial":
        return _like(K, _threshold_error(t, ks, p01, 1.0 - (1.0 - p10), clicks=True))
    if method == "clt":
        k, votes = ks.astype(float), t.astype(float)
        err0 = err1 = np.zeros(k.shape)
        if p01 != 0.0:
            err0 = ndtr(-((votes - 0.5 - k * p01) / np.sqrt(k * p01 * (1.0 - p01))))
        if p10 != 0.0:
            q = 1.0 - p10
            err1 = ndtr(-((k * q - (votes - 0.5)) / np.sqrt(k * q * (1.0 - q))))
        return _like(K, 0.5 * (err0 + err1))
    raise DomainError(f"method must be 'exact_binomial' or 'clt', got {method!r}")


def resolve_gain(params, gain_spec) -> Tuple[Optional[float], str]:
    """Turn a gain spec (float, 'auto' or 'bhatt') into a concrete G.

    Returns (G, note).  G is None when the optimization is degenerate
    (kappa = 0), in which case every OPA quantity collapses to chance.
    Scenarios in arrays get arrays, and a note without R_OPA.
    """
    if isinstance(gain_spec, str):
        if gain_spec == GAIN_AUTO:
            g_star, r_opa = optimize_gain(params)
            if g_star is None:
                return None, "gain optimization degenerate (kappa = 0)"
            return g_star, ("auto-optimized" if isinstance(r_opa, np.ndarray)
                            else f"auto-optimized, R_OPA={r_opa:.6e}")
        if gain_spec == GAIN_BHATT:
            if not _all(params.n_b > 0.0):
                raise DomainError("gain preset 'bhatt' needs n_b > 0")
            return (1.0 + params.n_s / _each(math.sqrt, params.n_b),
                    "preset G = 1 + n_s/sqrt(n_b)")
        raise DomainError(f"unknown gain spec {gain_spec!r}")
    if not math.isfinite(gain_spec) or gain_spec <= 1.0:
        raise DomainError(f"explicit gain must satisfy G > 1, got {gain_spec}")
    return float(gain_spec) + 0.0 * params.n_s, "explicit"
