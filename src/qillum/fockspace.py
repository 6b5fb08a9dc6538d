"""Truncated Fock-space representation of the return-idler state pair.

Under both hypotheses the joint state of one return-idler mode pair only
connects number states with equal photon-number difference
``d = n_R - n_I``, so each density operator is stored as a map from d to a
small dense real-symmetric block over the basis ``{|n2 + d, n2>}``.  The
return mode may need several hundred levels when the background is bright,
while the idler stays within a handful, so this layout keeps everything at
desk scale.

The blocks live in one read-only ``(n_blocks, m, m)`` stack with
m = n_i_max + 1, each block in the top-left corner of its slice and zeros
outside it.  The builders fill it one (column, offset) pair at a time
across all blocks at once, so no Python loop runs per block.
Matrix elements are accumulated as log magnitudes (log-factorials from one
``gammaln`` table) and exponentiated once; factorials of a few hundred
never appear in linear form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, TruncationError

__all__ = [
    "TruncationSpec",
    "JointState",
    "thermal_cutoff",
    "build_rho0",
    "build_rho1",
    "thermal_state",
    "build_displaced_thermal",
]


def thermal_cutoff(mean: float, tail_tol: float) -> int:
    """Smallest cutoff n such that a thermal state of the given mean has
    tail mass (mean/(mean+1))**(n+1) <= tail_tol beyond n."""
    if mean < 0.0:
        raise DomainError(f"mean must be >= 0, got {mean}")
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    if mean == 0.0:
        return 0
    x = mean / (mean + 1.0)
    n = max(0, math.ceil(math.log(tail_tol) / math.log(x)) - 1)
    # one-step fixups against floating-point edge cases
    while x ** (n + 1) > tail_tol:
        n += 1
    while n > 0 and x ** n <= tail_tol:
        n -= 1
    return n


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs of the two-mode Fock space and the tail tolerance behind them."""

    n_r_max: int
    n_i_max: int
    tail_tol: float

    def __post_init__(self):
        if self.n_r_max < 0 or self.n_i_max < 0:
            raise DomainError("cutoffs must be >= 0")
        if not 0.0 < self.tail_tol < 1.0:
            raise DomainError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")

    @classmethod
    def for_params(cls, params, tail_tol: float = 1e-9) -> "TruncationSpec":
        """Tolerance-driven cutoffs for a scenario: the return mode is cut
        where the thermal background tail drops below tail_tol, the idler
        where the signal marginal does.  The return cutoff bounds the H0
        tail only: under H1 the return mean is kappa n_s + n_b."""
        return cls(
            n_r_max=thermal_cutoff(params.n_b, tail_tol),
            n_i_max=thermal_cutoff(params.n_s, tail_tol),
            tail_tol=tail_tol,
        )

    def validate_for(self, params) -> None:
        """Raise TruncationError if either cutoff leaves more than tail_tol."""
        for label, mean, n in (
            ("return", params.n_b, self.n_r_max),
            ("idler", params.n_s, self.n_i_max),
        ):
            if mean == 0.0:
                continue
            x = mean / (mean + 1.0)
            tail = x ** (n + 1)
            if tail > self.tail_tol:
                raise TruncationError(
                    f"{label} cutoff {n} leaves tail mass {tail:.3e} > {self.tail_tol:.3e}"
                )


def _log_thermal_weights(n: np.ndarray, mean: float) -> np.ndarray:
    """log of mean**n / (mean+1)**(n+1) elementwise; -inf where mean == 0 and n > 0."""
    if mean == 0.0:
        return np.where(n == 0, 0.0, -math.inf)
    return n * math.log(mean) - (n + 1) * math.log1p(mean)


# --- joint states ----------------------------------------------------------

def _block_layout(trunc: TruncationSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, lo, size) for every block, indexed by stack position k = d + n_i_max;
    block d covers idler numbers lo .. lo + size - 1."""
    d = np.arange(-trunc.n_i_max, trunc.n_r_max + 1)
    lo = np.maximum(0, -d)
    size = np.minimum(trunc.n_i_max, trunc.n_r_max - d) - lo + 1
    return d, lo, size


def _stack_from_blocks(blocks: Dict[int, np.ndarray], trunc: TruncationSpec) -> np.ndarray:
    """Copy hand-built blocks into a zero-padded stack, checking their layout."""
    d, _, size = _block_layout(trunc)
    if set(blocks) != set(d.tolist()):
        raise DomainError("blocks must cover d = -n_i_max .. n_r_max exactly")
    m = trunc.n_i_max + 1
    stack = np.zeros((d.size, m, m))
    for k, (dk, sk) in enumerate(zip(d.tolist(), size.tolist())):
        block = np.asarray(blocks[dk], dtype=float)
        if block.shape != (sk, sk):
            raise DomainError(f"block {dk} must be {sk}x{sk}, got shape {block.shape}")
        stack[k, :sk, :sk] = block
    return stack


def _block_views(stack: np.ndarray, trunc: TruncationSpec) -> Dict[int, np.ndarray]:
    """Freeze the stack and map each d to its (size, size) corner."""
    stack.flags.writeable = False
    d, _, size = _block_layout(trunc)
    return {dk: stack[k, :sk, :sk] for k, (dk, sk) in enumerate(zip(d.tolist(), size.tolist()))}


@dataclass(frozen=True)
class JointState:
    """One return-idler density operator, block-diagonal in d = n_R - n_I.

    blocks[d] is a real-symmetric matrix over idler numbers
    n2 = max(0,-d) .. min(n_i_max, n_r_max - d); the paired return number is
    n2 + d.  Every block is a read-only view into ``stack``, the blocks
    zero-padded into one (n_blocks, n_i_max+1, n_i_max+1) array at position
    k = d + n_i_max: zeros outside each block's corner, which the spectral
    layers rely on.  Hand-built states pass only blocks (one per d, of the
    right size); they are copied into a fresh stack.
    """

    blocks: Dict[int, np.ndarray]
    trunc: TruncationSpec
    stack: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stack is None:
            stack = _stack_from_blocks(self.blocks, self.trunc)
            object.__setattr__(self, "stack", stack)
            object.__setattr__(self, "blocks", _block_views(stack, self.trunc))

    def trace(self) -> float:
        return math.fsum(self.stack.diagonal(axis1=1, axis2=2).ravel().tolist())


def _new_state(stack: np.ndarray, trunc: TruncationSpec) -> JointState:
    return JointState(blocks=_block_views(stack, trunc), trunc=trunc, stack=stack)


def build_rho0(params, trunc: TruncationSpec) -> JointState:
    """Target-absent state: thermal background in the return mode times the
    idler marginal.  Diagonal in the number basis."""
    trunc.validate_for(params)
    d, lo, size = _block_layout(trunc)
    m = trunc.n_i_max + 1
    stack = np.zeros((d.size, m, m))
    for c in range(m):
        rows = size > c
        n2 = lo[rows] + c
        n1 = n2 + d[rows]
        lw = _log_thermal_weights(n1, params.n_b) + _log_thermal_weights(n2, params.n_s)
        stack[rows, c, c] = np.exp(lw)
    return _new_state(stack, trunc)


def _hyp2f1_rows(n1: np.ndarray, n2: np.ndarray, l: int, z: float,
                 log_fact: np.ndarray) -> np.ndarray:
    """Terminating Gauss series 2F1(-n1, -n2; -(n1 + n2 + l); z) elementwise
    over index arrays; log_fact[n] = ln n!.

    For 0 < z < 1 the direct series alternates and can cancel many digits,
    so it goes through the Pfaff transform on the smaller index, whose terms
    are all positive; z = 1 is the Chu-Vandermonde closed form, and z < 0
    makes the direct series positive term by term.  build_rho1 never asks
    for z > 1.  The at most n_i_max + 1 series terms are summed in log form,
    one logaddexp per term index j across all elements.  The scalar
    reference it is tested against, hypergeom_2f1_terminating, lives in
    tests/oracles.py.
    """
    nb = np.minimum(n1, n2)
    c = n1 + n2 + l
    if z == 0.0:
        return np.ones(nb.shape)
    if z == 1.0:  # Chu-Vandermonde
        cv = np.exp(log_fact[c - n2] + log_fact[c - n1] - log_fact[c] - log_fact[c - n1 - n2])
        return np.where(nb == 0, 1.0, cv)
    if z < 0.0:  # direct series, all terms positive
        a, b = n1, n2
        log_w, log_pre = math.log(-z), 0.0
    else:  # Pfaff transform on the smaller index
        a, b = nb, c - np.maximum(n1, n2)
        log_w, log_pre = math.log(z) - math.log1p(-z), math.log1p(-z)
    acc = np.zeros(nb.shape)  # the j = 0 term is exactly 1
    for j in range(1, int(nb.max(initial=0)) + 1):
        term = (
            (log_fact[a] - log_fact[np.maximum(a - j, 0)])
            + (log_fact[b] - log_fact[np.maximum(b - j, 0)])
            - (log_fact[c] - log_fact[np.maximum(c - j, 0)])
            - log_fact[j]
            + j * log_w
        )
        acc = np.where(nb >= j, np.logaddexp(acc, term), acc)
    return np.exp(nb * log_pre + acc)


def build_rho1(params, trunc: TruncationSpec) -> JointState:
    """Target-present state: the reflected signal mixes with the background
    at transmissivity kappa while the idler is retained.

    Element with row (n1+l, n2+l) and column (n1, n2), l >= 0:

        sqrt(n1! n2! / ((n1+l)! (n2+l)!)) * sqrt(p_{n2+l} p_{n2}) * kappa**(l/2)
        * (n1+n2+l)! / (n1! n2!)
        * (n_b+1-kappa)**n2 * n_b**n1 / (n_b+1)**(n1+n2+l+1)
        * 2F1(-n1, -n2; -(n1+n2+l); 1 - kappa/(n_b (n_b+1-kappa)))

    with p_n the idler pmf; l < 0 follows from symmetry.  Each (column c,
    offset l) position is filled in every block that has it with one array
    expression.  Requires n_b > 0 (the zero-background limit concentrates
    the series argument and is rejected rather than approximated).
    """
    if params.n_b == 0.0:
        raise DomainError("build_rho1 requires n_b > 0")
    trunc.validate_for(params)

    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    log_kappa = math.log(kappa) if kappa > 0.0 else -math.inf
    log_nb = math.log(n_b)
    log_nb1 = math.log1p(n_b)
    log_nbk = math.log(n_b + 1.0 - kappa)
    z = 1.0 - kappa / (n_b * (n_b + 1.0 - kappa))
    lf = gammaln(np.arange(trunc.n_r_max + trunc.n_i_max + 1) + 1.0)  # lf[n] = ln n!

    d, lo, size = _block_layout(trunc)
    m = trunc.n_i_max + 1
    log_pmf = _log_thermal_weights(np.arange(m), n_s)
    stack = np.zeros((d.size, m, m))
    for c in range(m):
        for l in range(m - c if kappa > 0.0 else 1):
            rows = size > c + l
            n2 = lo[rows] + c
            n1 = n2 + d[rows]
            log_elem = (
                0.5 * (lf[n1] + lf[n2] - lf[n1 + l] - lf[n2 + l])
                + 0.5 * (log_pmf[n2 + l] + log_pmf[n2])
                + (0.5 * l * log_kappa if l > 0 else 0.0)
                + lf[n1 + n2 + l] - lf[n1] - lf[n2]
                + n2 * log_nbk + n1 * log_nb - (n1 + n2 + l + 1) * log_nb1
            )
            elem = np.exp(log_elem) * _hyp2f1_rows(n1, n2, l, z, lf)
            stack[rows, c + l, c] = elem
            stack[rows, c, c + l] = elem  # state is real-symmetric
    return _new_state(stack, trunc)


# --- single-mode states for the classical benchmark -------------------------

def thermal_state(mean: float, cutoff: int) -> np.ndarray:
    """Truncated thermal density matrix with the given mean occupation."""
    if mean < 0.0:
        raise DomainError(f"mean must be >= 0, got {mean}")
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    n = np.arange(cutoff + 1)
    if mean == 0.0:
        diag = np.zeros(cutoff + 1)
        diag[0] = 1.0
    else:
        diag = np.exp(n * math.log(mean) - (n + 1) * math.log1p(mean))
    return np.diag(diag)


class _ScipyExpm:
    """scipy.linalg.expm, imported on the first call.

    Only build_displaced_thermal needs it and no CLI command reaches that,
    while importing scipy.linalg costs every process about 0.06 s and 6 MB.
    An instance rather than a function: like numpy's eigh it is a kernel,
    not one of this module's own functions, and it stays replaceable as
    ``fockspace.expm``.
    """

    def __call__(self, a: np.ndarray) -> np.ndarray:
        from scipy.linalg import expm as scipy_expm

        return scipy_expm(a)


expm = _ScipyExpm()


def build_displaced_thermal(
    mean_field: float,
    n_b: float,
    cutoff: int,
    tail_tol: float = 1e-9,
    pad: int = 20,
) -> np.ndarray:
    """Displace a truncated thermal state by a real field amplitude.

    The displacement is the matrix exponential of mean_field * (adag - a)
    on a space padded by ``pad`` extra levels, cropped back to ``cutoff``
    afterwards; the padding absorbs edge reflection.  The cutoff must leave
    less than tail_tol of a thermal tail at mean mean_field**2 + n_b.
    """
    if mean_field < 0.0:
        raise DomainError(f"mean_field must be >= 0, got {mean_field}")
    if n_b < 0.0:
        raise DomainError(f"n_b must be >= 0, got {n_b}")
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    mean_total = mean_field**2 + n_b
    if mean_total > 0.0:
        x = mean_total / (mean_total + 1.0)
        tail = x ** (cutoff + 1)
        if tail > tail_tol:
            raise TruncationError(
                f"cutoff {cutoff} leaves tail mass {tail:.3e} > {tail_tol:.3e} "
                f"for mean occupation {mean_total:.6g}"
            )
    if mean_field == 0.0:
        return thermal_state(n_b, cutoff)

    dim = cutoff + 1 + pad
    th = thermal_state(n_b, dim - 1)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), -1)  # adag in the number basis
    disp = expm(mean_field * (lower - lower.T))
    rho = disp @ th @ disp.T
    return np.ascontiguousarray(rho[: cutoff + 1, : cutoff + 1])
