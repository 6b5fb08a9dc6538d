"""Scalar reference implementations that the tests compare the library against.

None of these runs in a CLI command, so they live with the tests: the
terminating 2F1 series of the closed form that build_rho1's elements are
checked against, the moment and dense-matrix probes of a JointState, its
health checks, the Fock-route overlap pair, the mpmath Pirandola-Lloyd
overlap of the Gaussian pair, the mpmath Bhattacharyya exponent of the OPA
count laws, and the two photon-count pmfs.  The library never imports
this module.
"""

import math
from collections import namedtuple

import mpmath
import numpy as np
from scipy.special import gammaln

from qillum import DomainError
from qillum.bounds import _SpectralPair
from qillum.fockspace import _block_layout

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
    squeeze S(r) of the symplectic eigenvalues nu+- = (R +- (a' - b)) / 2.
    The inputs are taken as exact binary floats.
    """
    with mpmath.workdps(dps):
        n_s, kappa, n_b, s = (mpmath.mpf(v) for v in (n_s, kappa, n_b, s))
        a0, a1, b = 2 * n_b + 1, 2 * (kappa * n_s + n_b) + 1, 2 * n_s + 1
        c = 2 * mpmath.sqrt(kappa * n_s * (n_s + 1))
        root = mpmath.sqrt((a1 + b) ** 2 - 4 * c ** 2)
        nu_plus, nu_minus = (root + a1 - b) / 2, (root - a1 + b) / 2
        cosh_2r = (a1 + b) / root
        ch, sh = mpmath.sqrt((cosh_2r + 1) / 2), mpmath.sqrt((cosh_2r - 1) / 2)

        def g(p, x):
            return 2 ** p / ((x + 1) ** p - (x - 1) ** p)

        def lam(p, x):
            return ((x + 1) ** p + (x - 1) ** p) / ((x + 1) ** p - (x - 1) ** p)

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
