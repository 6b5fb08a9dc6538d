"""Chernoff overlaps of Gaussian states, independent of the Fock route.

Q_s = Tr(rho_A^s rho_B^(1-s)) for Gaussian states follows from their means
and covariance matrices alone (Pirandola & Lloyd, PRA 78, 012331 (2008)).
Quadratures are q = a + a^dag, p = -i(a - a^dag), so the vacuum covariance
is the identity and a thermal mode of mean n has covariance (2n + 1) I.

The benchmark uses these values as its oracle for the exponents and bounds
the CLI computes in a truncated Fock space.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

_OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _omega(modes: int) -> np.ndarray:
    return np.kron(np.eye(modes), _OMEGA1)


def _lambda(x, p):
    # ((x+1)^p + (x-1)^p) / ((x+1)^p - (x-1)^p), with the x -> 1 limit 1
    r = np.where(x > 1.0, (x - 1.0) / (x + 1.0), 0.0) ** p
    return (1.0 + r) / (1.0 - r)


def _log_g(x, p):
    # log of 2^p / ((x+1)^p - (x-1)^p)
    r = np.where(x > 1.0, (x - 1.0) / (x + 1.0), 0.0) ** p
    return p * math.log(2.0) - p * np.log(x + 1.0) - np.log1p(-r)


def _powered(v: np.ndarray, p: float):
    """(V(p), sum of log G_p over the symplectic spectrum of V).

    V(p) = S diag(Lambda_p(nu)) S^T for the Williamson form V = S diag(nu) S^T.
    With K = V i Omega, an odd function f gives f(K) = V(p) i Omega, so V(p)
    is read off an eigendecomposition of K without constructing S.
    """
    modes = v.shape[0] // 2
    j = 1j * _omega(modes)
    w, u = np.linalg.eig(v @ j)
    nu = np.abs(w.real)
    f = np.sign(w.real) * _lambda(nu, p)
    vp = (u @ np.diag(f) @ np.linalg.inv(u) @ j).real
    # each symplectic eigenvalue appears twice in the spectrum of K
    return 0.5 * (vp + vp.T), 0.5 * float(np.sum(_log_g(nu, p)))


def q_s(mean_a, cov_a, mean_b, cov_b, s: float) -> float:
    """Tr(rho_A^s rho_B^(1-s)) for Gaussian states given by mean and covariance."""
    cov_a = np.asarray(cov_a, dtype=float)
    cov_b = np.asarray(cov_b, dtype=float)
    modes = cov_a.shape[0] // 2
    va, lga = _powered(cov_a, s)
    vb, lgb = _powered(cov_b, 1.0 - s)
    sigma = va + vb
    d = np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float)
    _, logdet = np.linalg.slogdet(sigma)
    log_q = modes * math.log(2.0) + lga + lgb - 0.5 * logdet
    log_q -= 0.5 * float(d @ np.linalg.solve(sigma, d))
    return math.exp(log_q)


def chernoff(mean_a, cov_a, mean_b, cov_b):
    """(s_star, Q_min, Q_half) with Q_min the minimum of Q_s over s in [0, 1]."""
    def f(s):
        return q_s(mean_a, cov_a, mean_b, cov_b, s)

    res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-7})
    q_half = f(0.5)
    if q_half <= res.fun:
        return 0.5, q_half, q_half
    return float(res.x), float(res.fun), q_half


def entangled_pair(n_s: float, kappa: float, n_b: float):
    """(mean, cov) of H0 and H1 for the return-idler pair, return mode first.

    H0: thermal background n_b in the return, idler thermal n_s.
    H1: the return mixes kappa of the signal with background, keeping mean
    kappa n_s + n_b and the cross correlation <a_R a_I> = sqrt(kappa n_s (n_s+1)).
    """
    z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    a0, b = 2.0 * n_b + 1.0, 2.0 * n_s + 1.0
    a1 = 2.0 * (kappa * n_s + n_b) + 1.0
    c = 2.0 * math.sqrt(kappa * n_s * (n_s + 1.0))
    cov0 = np.block([[a0 * eye, 0 * eye], [0 * eye, b * eye]])
    cov1 = np.block([[a1 * eye, c * z], [c * z, b * eye]])
    return (np.zeros(4), cov0), (np.zeros(4), cov1)


def coherent_pair(n_s: float, kappa: float, n_b: float):
    """(mean, cov) of thermal n_b versus thermal n_b displaced by sqrt(kappa n_s)."""
    cov = (2.0 * n_b + 1.0) * np.eye(2)
    mean1 = np.array([2.0 * math.sqrt(kappa * n_s), 0.0])
    return (np.zeros(2), cov), (mean1, cov)


def reference(n_s: float, kappa: float, n_b: float) -> dict:
    """Chernoff data of both transmitters: {'q': (s*, Q_min, Q_half), 'c': ...}."""
    (m0, v0), (m1, v1) = entangled_pair(n_s, kappa, n_b)
    (c0, w0), (c1, w1) = coherent_pair(n_s, kappa, n_b)
    return {"q": chernoff(m0, v0, m1, v1), "c": chernoff(c0, w0, c1, w1)}
