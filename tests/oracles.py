"""Scalar reference implementations that the tests compare the library against.

None of these runs in a CLI command, so they live with the tests: the
terminating 2F1 series of the closed form that build_rho1's elements are
checked against, the moment and dense-matrix probes of a JointState, its
health checks, the Fock-route overlap pair, the mpmath Pirandola-Lloyd
overlap of the Gaussian pair, the mpmath Bhattacharyya exponent of the OPA
count laws, and the two photon-count pmfs.  The library never imports
this module.

It also keeps the scalar code that the library's column functions
replaced, one call per K, per sweep point or per rho1 position: the
threshold test, the OPA error and the majority vote per K, the K-copy
sandwich and the homodyne error per K, the gain search as one loop per
scenario with its sweep rows, and build_rho1 filled one (column, offset)
position at a time.  Their results must match the library's bit for bit.
"""

import math
from collections import namedtuple

import mpmath
import numpy as np
from scipy.special import gammaln

from scipy.special import betainc, log_ndtr, ndtr

from qillum import CountModel, DomainError, JointState, ThresholdPolicy, asymptotic_exponents
from qillum.bounds import _LN10, _LOG10_HALF, _SpectralPair
from qillum.fockspace import _block_layout, _log_thermal_weights
from qillum.gss import INVPHI
from qillum.receivers import (
    _EPS,
    _GAIN_MAX,
    _GAIN_MIN_EXCESS,
    _GAIN_REL_TOL,
    _LR_MARGIN,
    _TINY,
    _lr_threshold_exact,
    _r_opa,
    opa_bhattacharyya,
    opa_output_means,
)
from qillum.scenario import GAIN_AUTO, GAIN_BHATT

# First moments of a joint state: mode occupations and the magnitude of the
# phase-sensitive cross correlation <a_R a_I>.
MomentReport = namedtuple("MomentReport", ["mean_n_r", "mean_n_i", "cross_corr"])


# --- terminating Gauss hypergeometric -------------------------------------

def _logsumexp_pos(logs) -> float:
    """log(sum(exp(l))) for a short list of finite-or--inf logs of positives."""
    m = max(logs)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in logs))


def _hyp2f1_chu_vandermonde(n1: int, n2: int, c_mag: int) -> float:
    # 2F1(-n1, -n2; -c; 1) = (c - n2)! (c - n1)! / (c! (c - n1 - n2)!)
    lg = math.lgamma
    return math.exp(
        lg(c_mag - n2 + 1) + lg(c_mag - n1 + 1) - lg(c_mag + 1) - lg(c_mag - n1 - n2 + 1)
    )


def hypergeom_2f1_terminating(n1: int, n2: int, c_mag: int, z: float) -> float:
    """Gauss series 2F1(-n1, -n2; -c_mag; z) for integers n1, n2 >= 0.

    The sum terminates after min(n1, n2) + 1 terms.  Requires
    c_mag >= n1 + n2 so no denominator Pochhammer vanishes early.

    For 0 < z < 1 the direct series alternates and can cancel many digits,
    so it is rerouted through the Pfaff transform
    2F1(-n1,-n2;-c;z) = (1-z)**nb * 2F1(-nb, -(c-na); -c; z/(z-1))
    (na, nb the larger/smaller of n1, n2), whose terms are all positive and
    are accumulated as a log-sum-exp.  z == 1 uses the Chu-Vandermonde
    closed form.  Negative z makes the direct series positive term by term.
    z > 1 is rejected: there the series alternates without a positive
    rewrite, and the rho1 closed form never asks for it (its
    z = 1 - kappa/(n_b (n_b + 1 - kappa)) stays at or below 1).

    The scalar oracle of the closed-form rho1 elements that
    ``fockspace.build_rho1`` is checked against; the library itself sums a
    different, positive series and evaluates no 2F1.
    """
    for name, v in (("n1", n1), ("n2", n2), ("c_mag", c_mag)):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
            raise DomainError(f"{name} must be a non-negative integer, got {v!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z > 1.0:
        raise DomainError(f"z must be <= 1, got {z}")
    if c_mag < n1 + n2:
        raise DomainError(
            f"need c_mag >= n1 + n2 for a well-defined terminating series, "
            f"got c_mag={c_mag}, n1+n2={n1 + n2}"
        )
    if min(n1, n2) == 0 or z == 0.0:
        return 1.0
    if z == 1.0:
        return _hyp2f1_chu_vandermonde(n1, n2, c_mag)

    lg = math.lgamma
    if 0.0 < z < 1.0:
        # Pfaff transform on the smaller index: positive terms only.
        na, nb = (n1, n2) if n1 >= n2 else (n2, n1)
        m = c_mag - na  # second falling index; m >= nb by the c_mag check
        logw = math.log(z) - math.log1p(-z)  # log|z/(z-1)|
        logs = []
        for j in range(nb + 1):
            logs.append(
                (lg(nb + 1) - lg(nb - j + 1))
                + (lg(m + 1) - lg(m - j + 1))
                - (lg(c_mag + 1) - lg(c_mag - j + 1))
                - lg(j + 1)
                + j * logw
            )
        return math.exp(nb * math.log1p(-z) + _logsumexp_pos(logs))

    # z < 0: direct series; (-1)^j from the Pochhammers cancels sign(z)^j
    logz = math.log(-z)
    logs = []
    for j in range(min(n1, n2) + 1):
        logs.append(
            (lg(n1 + 1) - lg(n1 - j + 1))
            + (lg(n2 + 1) - lg(n2 - j + 1))
            - (lg(c_mag + 1) - lg(c_mag - j + 1))
            - lg(j + 1)
            + j * logz
        )
    return math.exp(_logsumexp_pos(logs))


# --- joint-state probes ---------------------------------------------------

def _block_bases(trunc):
    """(d, return numbers, idler numbers) labelling the rows of each block, in d order."""
    for d, lo, size in zip(*(a.tolist() for a in _block_layout(trunc))):
        n2 = np.arange(lo, lo + size)
        yield d, n2 + d, n2


def to_dense(state) -> np.ndarray:
    """Assemble the full two-mode matrix, index (n1, n2) -> n1*(n_i_max+1)+n2."""
    ni = state.trunc.n_i_max + 1
    dim = (state.trunc.n_r_max + 1) * ni
    out = np.zeros((dim, dim))
    for d, n1s, n2s in _block_bases(state.trunc):
        idx = n1s * ni + n2s
        out[np.ix_(idx, idx)] = state.blocks[d]
    return out


def moments_check(state) -> MomentReport:
    """Read occupations and |<a_R a_I>| straight off the block elements.

    Independent of how the state was built, so it doubles as a consistency
    probe of the element formulas against the known covariance.
    """
    tr = state.trace()
    if tr < 0.999:
        raise DomainError(f"state trace {tr:.6f} too small for a moment check")
    mean_r = 0.0
    mean_i = 0.0
    cross = 0.0
    for d, n1s, n2s in _block_bases(state.trunc):
        block = state.blocks[d]
        diag = np.diag(block)
        mean_r += float(diag @ n1s)
        mean_i += float(diag @ n2s)
        # <a_R a_I> picks up the first subdiagonal: <n1+1, n2+1| rho |n1, n2>
        if block.shape[0] > 1:
            sub = np.diag(block, -1)
            cross += float(
                np.sum(sub * np.sqrt((n1s[:-1] + 1.0) * (n2s[:-1] + 1.0)))
            )
    return MomentReport(mean_n_r=mean_r, mean_n_i=mean_i, cross_corr=abs(cross))


def hermiticity_defect(state) -> float:
    # the zero padding is symmetric, so it adds only zeros
    return float(np.abs(state.stack - state.stack.transpose(0, 2, 1)).max())


def min_eigenvalue(state) -> float:
    return float(min(np.linalg.eigvalsh(b).min() for b in state.blocks.values()))


# --- overlaps -------------------------------------------------------------

def overlaps(rho0, rho1):
    """(Q_half, Q_min) of a Fock state pair: q_s(rho0, rho1, 0.5) and qcb's
    q_min from one spectral decomposition of the pair."""
    _, q_min, q_half = _SpectralPair(rho0, rho1).chernoff()
    return q_half, q_min


def gaussian_ln_q_s(n_s, kappa, n_b, s, dps=80):
    """ln Tr(rho0^s rho1^(1-s)) of the SPDC return-idler pair at dps digits.

    The Pirandola-Lloyd form (PRA 78, 012331 (2008)) for zero-mean states:
    Q_s = 4 prod G_s(nu0) G_(1-s)(nu1) / sqrt(det(V0(s) + V1(1-s))), with
    G_p(x) = 2^p / ((x+1)^p - (x-1)^p), V(p) = S diag(Lambda_p(nu)) S^T and
    Lambda_p(x) = ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p) over the
    Williamson form V = S diag(nu) S^T.  H0 is diagonal; H1 is a two-mode
    squeeze S(r) of the symplectic eigenvalues nu+- = (R +- (a' - b)) / 2,
    R^2 = (a' + b)^2 - 16 kappa n_s (n_s + 1).  The inputs are taken as exact
    binary floats.  A pure mode (n_b = 0 under H0, or nu = 1) has x - 1 = 0,
    held there against rounding below it; s = 1 exactly stays outside the
    domain there, where 0**0 would enter.
    """
    with mpmath.workdps(dps):
        n_s, kappa, n_b, s = (mpmath.mpf(v) for v in (n_s, kappa, n_b, s))
        a0, a1, b = 2 * n_b + 1, 2 * (kappa * n_s + n_b) + 1, 2 * n_s + 1
        root = mpmath.sqrt((a1 + b) ** 2 - 16 * kappa * n_s * (n_s + 1))
        nu_plus, nu_minus = (root + a1 - b) / 2, (root - a1 + b) / 2
        cosh_2r = (a1 + b) / root
        ch, sh = mpmath.sqrt((cosh_2r + 1) / 2), mpmath.sqrt((cosh_2r - 1) / 2)

        def g(p, x):
            return 2 ** p / ((x + 1) ** p - max(x - 1, 0) ** p)

        def lam(p, x):
            return ((x + 1) ** p + max(x - 1, 0) ** p) / ((x + 1) ** p - max(x - 1, 0) ** p)

        squeeze = mpmath.matrix([[ch, 0, sh, 0], [0, ch, 0, -sh],
                                 [sh, 0, ch, 0], [0, -sh, 0, ch]])
        l0, l1 = lam(s, a0), lam(s, b)
        lp, lm = lam(1 - s, nu_plus), lam(1 - s, nu_minus)
        sigma = (mpmath.diag([l0, l0, l1, l1])
                 + squeeze * mpmath.diag([lp, lp, lm, lm]) * squeeze.T)
        q = (4 * g(s, a0) * g(s, b) * g(1 - s, nu_plus) * g(1 - s, nu_minus)
             / mpmath.sqrt(mpmath.det(sigma)))
        return mpmath.log(q)


def opa_bhattacharyya_exponent(n_s, kappa, n_b, G, dps=60):
    """-ln Q_B = ln(sqrt((1+N0)(1+N1)) - sqrt(N0 N1)) of the two OPA count
    laws at dps digits, with N0 and N1 built from the exact binary inputs.
    The difference cancels about log10(N0) digits, so those are added."""
    with mpmath.workdps(dps + int(math.log10(1.0 + G * (1.0 + n_s + n_b)))):
        n_s, kappa, n_b, G = (mpmath.mpf(v) for v in (n_s, kappa, n_b, G))
        n0 = G * n_s + (G - 1) * (1 + n_b)
        n1 = (n0 + (G - 1) * kappa * n_s
              + 2 * mpmath.sqrt(G * (G - 1)) * mpmath.sqrt(kappa * n_s * (n_s + 1)))
        return mpmath.log(mpmath.sqrt((1 + n0) * (1 + n1)) - mpmath.sqrt(n0 * n1))


# --- photon-count pmfs ----------------------------------------------------

def idler_photon_pmf(n_s: float, n: int) -> float:
    """Photon-number distribution of the retained idler: n_s**n / (n_s+1)**(n+1)."""
    if n_s < 0.0:
        raise DomainError(f"n_s must be >= 0, got {n_s}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0 / (1.0 + n_s)
    if n_s == 0.0:
        return 0.0
    return math.exp(n * math.log(n_s) - (n + 1) * math.log1p(n_s))


def opa_count_pmf(n_mean: float, K: int, n) -> np.ndarray:
    """Negative-binomial pmf of the total count over K thermal modes:
    C(n+K-1, n) N^n / (1+N)^(n+K).  Vectorized over n."""
    if n_mean < 0.0:
        raise DomainError(f"n_mean must be >= 0, got {n_mean}")
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    n_arr = np.atleast_1d(np.asarray(n, dtype=float))
    if np.any(n_arr < 0) or np.any(n_arr != np.floor(n_arr)):
        raise DomainError("counts must be non-negative integers")
    if n_mean == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0)
    else:
        log_pmf = (
            gammaln(n_arr + K)
            - gammaln(n_arr + 1.0)
            - gammaln(K)
            + n_arr * (math.log(n_mean) - math.log1p(n_mean))
            - K * math.log1p(n_mean)
        )
        out = np.exp(log_pmf)
    if np.isscalar(n) or np.asarray(n).ndim == 0:
        return float(out[0])
    return out


# --- the scalar code behind the column functions ------------------------------

def threshold_error(t, K, x0, y1, clicks):
    """Equal-prior error of the count test X >= t for one threshold and one K."""
    if t < 1:
        return 0.5
    if clicks and t > K:
        return 0.5
    b = K - t + 1.0 if clicks else float(K)
    upper = 0.0 if x0 == 0.0 else float(betainc(float(t), b, x0))
    lower = 0.0 if y1 == 0.0 else float(betainc(b, float(t), y1))
    return 0.5 * (upper + lower)


def lr_threshold(n0, n1, K, clicks):
    """The likelihood-ratio threshold for one K: the float ratio where its
    certificate holds, else the 50-digit decimal route."""
    if n0 > 0.0 and n1 > n0:
        delta = n1 - n0
        a = delta / (1.0 + n0)
        b = delta / n0 if clicks else delta / (n0 * (1.0 + n1))
        if a >= _TINY and b >= _TINY:
            ratio = K * math.log1p(a) / math.log1p(b)
            if math.isfinite(ratio):
                t = math.ceil(ratio)
                if min(t - ratio, ratio - t + 1.0) > _LR_MARGIN * max(1.0, ratio):
                    return t
    return _lr_threshold_exact(n0, n1, K, clicks)


def opa_error_exact(params, G, K, policy, count_model=CountModel.FULL_COUNTING):
    """(P_e, t) of the OPA count test for one K."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    policy = ThresholdPolicy(policy)
    clicks = CountModel(count_model) is CountModel.ON_OFF
    n0, n1 = opa_output_means(params, G)
    if n1 == n0:
        return 0.5, None
    q0 = n0 / (1.0 + n0)
    if clicks:
        q1 = n1 / (1.0 + n1)
        m0, m1, y1 = q0, q1, 1.0 - q1
        s0, s1 = math.sqrt(q0 * (1.0 - q0)), math.sqrt(q1 * (1.0 - q1))
    else:
        m0, m1, y1 = n0, n1, 1.0 / (1.0 + n1)
        s0, s1 = math.sqrt(n0 * (n0 + 1.0)), math.sqrt(n1 * (n1 + 1.0))
    if (1.0 - q0) - y1 <= 2.0 * _EPS:
        raise DomainError(f"gain G={G!r} too large: the count tails no longer resolve")
    if policy is ThresholdPolicy.PAPER_FORMULA:
        t = int(math.ceil(K * (s1 * m0 + s0 * m1) / (s0 + s1)))
    else:
        t = lr_threshold(n0, n1, K, clicks)
    return threshold_error(t, K, q0, y1, clicks), t


def majority_vote_error(p01, p10, K, method="exact_binomial"):
    """Majority-vote error over K single-pair decisions, for one K."""
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    for name, p in (("p01", p01), ("p10", p10)):
        if not 0.0 <= p <= 0.5 + 1e-8:
            raise DomainError(f"{name} must lie in [0, 1/2], got {p}")
    p01, p10 = min(p01, 0.5), min(p10, 0.5)
    t = K // 2 + 1
    if method == "exact_binomial":
        return threshold_error(t, K, p01, 1.0 - (1.0 - p10), clicks=True)
    err0 = err1 = 0.0
    if p01 != 0.0:
        err0 = float(ndtr(-((t - 0.5 - K * p01) / math.sqrt(K * p01 * (1.0 - p01)))))
    if p10 != 0.0:
        q = 1.0 - p10
        err1 = float(ndtr(-((K * q - (t - 0.5)) / math.sqrt(K * q * (1.0 - q)))))
    return 0.5 * (err0 + err1)


def half_erfc_sqrt(y):
    """(p, log10 p) of erfc(sqrt(y)) / 2 for one y."""
    x = math.sqrt(y)
    return float(ndtr(-x * math.sqrt(2.0))), float(log_ndtr(-x * math.sqrt(2.0))) / _LN10


def homodyne_error(params, K):
    """Homodyne error of the coherent transmitter for one K."""
    return half_erfc_sqrt(params.kappa * params.n_s * K / (4.0 * params.n_b + 2.0))


def error_prob_bounds(ln_q_half, ln_q_min, K):
    """(log10 lower, log10 upper_qcb, log10 upper_bhatt) for one K."""
    t = 2.0 * K * ln_q_half
    return (t / _LN10 - math.log10(2.0 * (1.0 + math.sqrt(-math.expm1(t)))),
            K * ln_q_min / _LN10 + _LOG10_HALF,
            K * ln_q_half / _LN10 + _LOG10_HALF)


def golden_section_min(f, a, b, xtol, max_iter=200):
    """The golden section as one plain loop over scalars."""
    best_x, best_f = a, f(a)
    fb = f(b)
    if fb < best_f:
        best_x, best_f = b, fb
    h = b - a
    c = b - INVPHI * h
    d = a + INVPHI * h
    fc, fd = f(c), f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_f:
            best_x, best_f = x, fx
    for _ in range(max_iter):
        if h <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - INVPHI * h
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def optimize_gain(params):
    """(G*, R_OPA) of one scenario by its own golden section."""
    if params.kappa == 0.0:
        return None, 0.0
    t_star, neg_best = golden_section_min(
        lambda t: -_r_opa(params, 1.0 + math.exp(t)),
        math.log(_GAIN_MIN_EXCESS), math.log(_GAIN_MAX - 1.0), _GAIN_REL_TOL)
    return 1.0 + math.exp(t_star), -neg_best


def sweep_rows(axis, gain_spec, points):
    """A sweep's rows, one point at a time; None marks an undefined cell."""
    rows = []
    for value, point in points:
        report = asymptotic_exponents(point)
        if axis == "gain":
            gain = value
        elif gain_spec == GAIN_AUTO:
            gain = optimize_gain(point)[0]
        elif gain_spec == GAIN_BHATT:
            gain = 1.0 + point.n_s / math.sqrt(point.n_b)
        else:
            gain = float(gain_spec)
        if gain is None:
            exps = [0.0, 0.0, 0.0, None]
        else:
            _, r_b_exact, r_b_small = opa_bhattacharyya(point, gain)
            half_limit = point.kappa * point.n_s / (2.0 * point.n_b)
            exps = [_r_opa(point, gain), r_b_exact, r_b_small,
                    r_b_exact / half_limit if half_limit > 0.0 else None]
        rows.append([value, report.r_q, report.r_c, report.r_c_hom, int(point.regime_ok),
                     gain, *exps])
    return rows


def build_rho1(params, trunc):
    """build_rho1 filled one (column c, offset l) position at a time, each
    across all blocks, with its series over t as one log-sum-exp."""
    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    log_g = math.log1p(n_b)
    log_eta_g = math.log(kappa) - 2.0 * log_g if kappa > 0.0 else 0.0
    eta = kappa / (1.0 + n_b)
    log_loss = math.log1p(-eta) if eta < 1.0 else math.log(n_b) - math.log1p(n_b)
    log_gain = -math.log1p(1.0 / n_b)
    d, lo, size = _block_layout(trunc)
    q0 = lo + d
    m = trunc.n_i_max + 1
    lf = np.array([math.lgamma(n + 1.0) for n in range(m)])
    lr = np.pad(np.cumsum(np.log(q0[:, None] + np.arange(1.0, m)), axis=1), ((0, 0), (1, 0)))
    half = 0.5 * (_log_thermal_weights(np.arange(m), n_s) + lf)
    stack = np.zeros((d.size, m, m))
    for c in range(m):
        for l in range(m - c if kappa > 0.0 else 1):
            rows = size > c + l
            j = lo[rows] + c
            i = j + l
            lr_rows = lr[rows]
            fixed = half[i] + half[j] + 0.5 * (lr_rows[:, c + l] + lr_rows[:, c]) - log_g
            t = np.arange(0 if kappa > 0.0 else c, c + 1)
            k = lo[rows] + t[:, None]
            terms = (
                -lf[k] - lf[i - k] - lf[j - k] - lr_rows[:, t].T
                + (c + 0.5 * l - t[:, None]) * log_eta_g
                + k * log_loss + (q0[rows] + t[:, None]) * log_gain
            )
            top = terms.max(axis=0)
            elem = np.exp(fixed + (top + np.log(np.exp(terms - top).sum(axis=0))))
            stack[rows, c + l, c] = elem
            stack[rows, c, c + l] = elem
    return JointState(stack, trunc)
