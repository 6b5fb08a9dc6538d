"""Overlap functionals and K-copy error-probability bounds.

The return-idler pair is Gaussian under both hypotheses, so its overlap
Q_s = Tr(rho0^s rho1^(1-s)) has a closed form (Pirandola & Lloyd, PRA 78,
012331 (2008)), which ``gaussian_chernoff`` evaluates.  rho1 is a two-mode
squeeze, sinh^2 r = w/R, of thermal modes of means N+ = n_b + kappa n_s - w/2
and N- = n_s - w/2, where a' + b = 2 (kappa n_s + n_b + n_s + 1),
w = (a' + b - R)/2 and R^2 = (a' + b)^2 - 16 kappa n_s (n_s + 1) is taken as

    R^2 = D^2 + 16 n_b (n_s + 1),   D = 2 (n_s + 1 - kappa n_s - n_b),

a sum of two terms >= 0, so R keeps its digits where the first form
cancels (kappa = 1, n_s >> n_b) and never vanishes.  With
E_s(N, M) = (N+1)^s (M+1)^(1-s) - N^s M^(1-s), the inverse overlap of two
geometric laws, and H_p(X, Y) = ((X+1)(Y+1))^p - (XY)^p,

    1/Q_s = E_s(n_b, N+) E_s(n_s, N-) + sinh^2 r H_s(n_b, n_s) H_(1-s)(N+, N-).

1/Q_s - 1 is then a sum of terms >= 0, and E_s - 1 = expm1(J) with J the
Jensen gap of the concave f(b) = ln(1 - e^-b) at b = ln(1 + 1/N), ln(1 + 1/M),
summed near their mean as a Taylor series, f^(k) = (-1)^(k-1) Nbar
(Nbar+1)^(k-1) A_(k-1)(e^-b) (Eulerian A).  Nothing cancels; Q_0 = Q_1 = 1.

The Fock route (q_s, qcb) is the cross-check oracle of the closed form: one
batched ``eigh`` per state over its zero-padded block stack, then one
``einsum`` per s.  Its Q_s is log-convex on (0, 1), so one golden section
over [0, 1], endpoints kept as candidates, finds the minimum.

For K independent mode pairs the minimum error probability is sandwiched by

    lower  = (1 - sqrt(1 - Q_half**(2K))) / 2
    upper  = Q_chernoff**K / 2   <=   Q_half**K / 2

``error_prob_bounds`` takes ln Q_half and ln Q_chernoff, as ``gaussian_chernoff``
returns them, and gives the log10 of each bound, so no overlap passes
through exp and back and K up to 1e8 is safe.  K may be an int or an
integer array, as in every per-K function of the package; an array gives
one value per element.
"""

from __future__ import annotations

import functools
import itertools
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
    "gaussian_chernoff",
    "q_s",
    "qcb",
    "error_prob_bounds",
    "asymptotic_exponents",
]

_LN10 = math.log(10.0)
_LOG10_HALF = math.log10(0.5)
_S_TOL = 1e-4        # bracket width for the Chernoff s-search
_FLAT_Q_TOL = 1e-12  # treat 1 - Q below this as "states indistinguishable"
_SERIES_RATIO = 0.6  # Taylor branch of a Jensen gap: step / radius of convergence
_SERIES_TERMS = 90   # 0.6**88 < 1e-19, so the series stops well before this


# --- closed-form Gaussian overlap ---------------------------------------------

@functools.lru_cache(maxsize=None)
def _eulerian(n: int) -> Tuple[float, ...]:
    """Coefficients of A_n(z) / n!, A_n the Eulerian polynomial, lowest order first."""
    if n == 0:
        return (1.0,)
    prev = (0.0,) + _eulerian(n - 1) + (0.0,)
    return tuple(((m + 1) * prev[m + 1] + (n - m) * prev[m]) / n for m in range(n))


def _log1mexp(beta: float) -> float:
    """ln(1 - e^-beta) for beta > 0, to full relative accuracy."""
    return math.log1p(-math.exp(-beta)) if beta > math.log(2.0) else math.log(-math.expm1(-beta))


def _geometric_gap(n: float, m: float, gap: float):
    """s -> E_s(n, m) - 1 for geometric laws of means n and m = n + gap, the
    gap passed on its own so that it keeps its digits when m is near n."""
    if n == 0.0 or m == 0.0:  # N^s M^(1-s) vanishes on (0, 1)
        ln_n, ln_m = math.log1p(n), math.log1p(m)
        return lambda s: math.expm1(s * ln_n + (1.0 - s) * ln_m) if 0.0 < s < 1.0 else 0.0
    beta_n, beta_m = math.log1p(1.0 / n), math.log1p(1.0 / m)
    f_n, f_m = _log1mexp(beta_n), _log1mexp(beta_m)
    # beta_n - beta_m, through a log1p argument >= 0 on either side
    delta = (math.log1p(gap / (n * (m + 1.0))) if gap >= 0.0
             else -math.log1p(-gap / (m * (n + 1.0))))

    def expm1_jensen(s: float) -> float:
        t = 1.0 - s
        beta = s * beta_n + t * beta_m
        if max(s, t) * abs(delta) > _SERIES_RATIO * beta:
            return math.expm1(_log1mexp(beta) - s * f_n - t * f_m)
        z, step = math.exp(-beta), delta / -math.expm1(-beta)  # step = (Nbar + 1) delta
        total, power, s_pow, t_pow = 0.0, -step, -s, t
        for k in range(2, _SERIES_TERMS):
            power, s_pow, t_pow = -power * step, -s_pow * s, t_pow * t
            poly = 0.0
            for coeff in reversed(_eulerian(k - 1)):
                poly = poly * z + coeff
            term = (s * t_pow + t * s_pow) * poly * power / k
            total += term
            if k % 2 == 0 and abs(term) <= 1e-17 * total:  # odd terms vanish at s = 1/2
                break
        return math.expm1(z * total)
    return expm1_jensen


def _cross_gap(x: float, y: float):
    """p -> H_p(x, y) = ((x+1)(y+1))^p - (xy)^p."""
    ln_a = math.log1p(x) + math.log1p(y)
    ln_ratio = math.log1p((x + y + 1.0) / (x * y)) if x * y > 0.0 else math.inf
    return lambda p: -math.exp(p * ln_a) * math.expm1(-p * ln_ratio) if p > 0.0 else 0.0


def _gaussian_ln_q(params):
    """s -> ln Q_s of the SPDC return-idler pair, in closed form."""
    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    kns = kappa * n_s
    a_plus_b = 2.0 * (kns + n_b + n_s + 1.0)
    if not math.isfinite(a_plus_b * a_plus_b):  # no product below is larger
        raise DomainError(f"float overflow in the Gaussian overlap at n_s={n_s!r}, "
                          f"kappa={kappa!r}, n_b={n_b!r}")
    d_ret, r2_minus_d_ret2 = 2.0 * (n_s + 1.0 - kns - n_b), 16.0 * n_b * (n_s + 1.0)
    root = math.sqrt(d_ret * d_ret + r2_minus_d_ret2)  # two terms >= 0: nothing cancels
    half_w = 4.0 * kns * (n_s + 1.0) / (root + a_plus_b)

    def shrunk(x, d, r2_minus_d2):  # x - half_w as x (R - D) / (R + a' + b), exact near vacuum
        return x * (r2_minus_d2 / (root + d) if d > 0.0 else root - d) / (root + a_plus_b)

    gap = shrunk(kns, d_ret, r2_minus_d_ret2)  # N+ - n_b
    n_minus = shrunk(n_s, 2.0 * (kns + 2.0 * kappa - n_b - n_s - 1.0),
                     16.0 * kappa * (n_s + 1.0) * (n_b + (1.0 - kappa)))
    e_ret, e_idl = _geometric_gap(n_b, n_b + gap, gap), _geometric_gap(n_s, n_minus, -half_w)
    h_0, h_1 = _cross_gap(n_b, n_s), _cross_gap(n_b + gap, n_minus)

    def ln_q(s: float) -> float:
        e1, e2 = e_ret(s), e_idl(s)
        return -math.log1p(e1 + e2 + e1 * e2 + 2.0 * half_w / root * h_0(s) * h_1(1.0 - s))
    return ln_q


def _chernoff_min(overlap, log: bool) -> Tuple[float, float, float]:
    """(s_star, minimum, value at s = 1/2) of s -> Q_s, or of s -> ln Q_s if log:
    the golden section of qcb, with s = 1/2 as a candidate and as s_star
    where 1 - Q_min <= _FLAT_Q_TOL."""
    s_best, best = golden_section_min(overlap, 0.0, 1.0, _S_TOL)
    half = overlap(0.5)
    if half <= best:
        s_best, best = 0.5, half
    if (-math.expm1(best) if log else 1.0 - best) <= _FLAT_Q_TOL:
        s_best = 0.5
    return s_best, best, half


def gaussian_chernoff(params) -> Tuple[float, float, float]:
    """(s_star, ln_q_min, ln_q_half) of the SPDC return-idler pair: the search
    of qcb, run on the convex closed-form ln Q_s."""
    return _chernoff_min(_gaussian_ln_q(params), log=True)


# --- Fock cross-check --------------------------------------------------------

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
        return _chernoff_min(self.q_s, log=False)


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


# --- K-copy sandwich ---------------------------------------------------------

def _copies(K) -> np.ndarray:
    """K, an int or an integer array, as a 1-d array of Python ints, so that
    integer arithmetic on copy counts stays exact at any size; DomainError
    unless every K >= 1."""
    ks = np.array(K.tolist() if isinstance(K, (np.ndarray, np.generic)) else K,
                  dtype=object, ndmin=1)
    if not (ks >= 1).all():
        raise DomainError(f"K must be >= 1, got {K}")
    return ks


def _like(K, column):
    """column in the shape of K: the array itself, or its one element as a
    Python scalar."""
    return column.tolist()[0] if np.isscalar(K) else column


def _all(holds) -> bool:
    """A condition on floats or on arrays of them: does it hold everywhere?"""
    return holds if type(holds) is bool else bool(holds.all())


def _each(fn, x, *args):
    """fn(x, *args), fn a math function or pow, on a float, or element by
    element on a float array: numpy's own exp, log and power can differ from
    libm's in the last bit."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, x.size)


@dataclass(frozen=True)
class BoundTriple:
    """log10 of the lower and the two upper bounds on the K-copy minimum
    error probability.  They are taken from ln Q, never from Q**K, so they
    stay finite where the probabilities underflow."""

    log10_lower: float
    log10_upper_qcb: float
    log10_upper_bhatt: float

    def __post_init__(self):
        def at_most(a, b) -> bool:
            return _all(a <= b + 1e-12 * (1.0 + abs(b)))

        if not (
            at_most(self.log10_lower, self.log10_upper_qcb)
            and at_most(self.log10_upper_qcb, self.log10_upper_bhatt)
            and at_most(self.log10_upper_bhatt, _LOG10_HALF)
        ):
            raise DomainError(
                "bound ordering violated; inputs are not a physical overlap pair "
                f"(log10 legs {self.log10_lower}, {self.log10_upper_qcb}, "
                f"{self.log10_upper_bhatt})"
            )


def error_prob_bounds(ln_q_half: float, ln_q_min: float, K) -> BoundTriple:
    """Sandwich the K-copy optimal error probability between the overlap
    bounds, from the log overlaps ln Q_half and ln Q_min.

    Requires -inf < ln_q_min <= ln_q_half <= 0.  For overlaps of genuine
    state pairs log-convexity also gives 2 ln_q_half <= ln_q_min, which is
    what makes the lower bound sit below the Chernoff upper bound.  For an
    array of K each leg is an array over K.
    """
    if not (-math.inf < ln_q_min <= ln_q_half <= 0.0):
        raise DomainError(f"need -inf < ln_q_min <= ln_q_half <= 0, "
                          f"got ln_q_min={ln_q_min}, ln_q_half={ln_q_half}")
    k = _copies(K).astype(float)

    # lower = (1 - sqrt(1 - Q^2K))/2 rewritten as Q^2K / (2 (1 + sqrt(1 - Q^2K)))
    with np.errstate(over="ignore"):
        t = 2.0 * k * ln_q_half
        return BoundTriple(
            log10_lower=_like(K, t / _LN10 - _each(
                math.log10, 2.0 * (1.0 + np.sqrt(-_each(math.expm1, t))))),
            log10_upper_qcb=_like(K, k * ln_q_min / _LN10 + _LOG10_HALF),
            log10_upper_bhatt=_like(K, k * ln_q_half / _LN10 + _LOG10_HALF),
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
            if not _all((v >= 0.0) & (v < math.inf)):
                raise DomainError(f"{name} must be finite and >= 0, got {v}")


def asymptotic_exponents(params) -> ExponentReport:
    """Closed-form error exponents for a scenario (requires n_b > 0).

    params may also hold arrays n_s, kappa and n_b, one element per
    scenario; every exponent is then an array.
    """
    if not _all(params.n_b > 0.0):
        raise DomainError("asymptotic exponents need n_b > 0")
    kns = params.kappa * params.n_s
    return ExponentReport(
        r_q=kns / params.n_b,
        r_c=kns / (4.0 * params.n_b),
        r_c_hom=kns / (4.0 * params.n_b + 2.0),
    )
