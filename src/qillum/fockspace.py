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

The target-present channel is pure loss then a quantum-limited amplifier,
both with positive Kraus sums, so each rho1 element is one short positive
series: no branch, no cancellation.  Elements are summed as log magnitudes
and exponentiated once; large factorials enter only as ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

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


def build_rho1(params, trunc: TruncationSpec) -> JointState:
    """Target-present state: the reflected signal mixes with the background
    at transmissivity kappa while the idler is retained.

    That channel is pure loss eta = kappa/G followed by a quantum-limited
    amplifier of gain G = 1 + n_b (Caruso, Giovannetti & Holevo, NJP 8, 310
    (2006)).  Loss takes k photons and the amplifier adds q = k + d, so in
    block d the element with row (i+d, i) and column (j+d, j), i = j + l,
    l >= 0, is a sum of positive Kraus products (p_n the idler pmf):

        sqrt(p_i p_j) / G * sum_t sqrt(i! j! (i+d)! (j+d)!) / (k! q! (i-k)! (j-k)!)
                              * (eta/G)**((i+j)/2 - k) * (1-eta)**k * (n_b/G)**q

    with k = lo + t, q = q0 + t, t = 0 .. j - lo, lo = max(0, -d) and
    q0 = max(d, 0); l < 0 follows from symmetry.  No term is negative, so
    nothing cancels and no argument range needs its own formula.  The
    return factorials enter only as (i+d)!/q! and (j+d)!/q!, from one
    cumulative sum of ln(q0 + r) per block, so no log-factorial above
    n_i_max appears.  Each (column c, offset l) position is filled in every
    block at once; at kappa = 0 only t = c, l = 0 survives.  Requires n_b > 0.
    """
    if params.n_b == 0.0:
        raise DomainError("build_rho1 requires n_b > 0")
    trunc.validate_for(params)

    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    log_g = math.log1p(n_b)
    log_eta_g = math.log(kappa) - 2.0 * log_g if kappa > 0.0 else 0.0  # kappa = 0: eta**0 terms only
    log_loss = math.log1p(-kappa / (1.0 + n_b))  # ln(1 - eta)
    log_gain = -math.log1p(1.0 / n_b)  # ln(n_b / G)

    d, lo, size = _block_layout(trunc)
    q0 = lo + d
    m = trunc.n_i_max + 1
    lf = np.array([math.lgamma(n + 1.0) for n in range(m)])  # lf[n] = ln n!
    log_rise = np.log(q0[:, None] + np.arange(1.0, m))
    lr = np.pad(np.cumsum(log_rise, axis=1), ((0, 0), (1, 0)))  # lr[:, a] = ln((q0+a)!/q0!)
    half = 0.5 * (_log_thermal_weights(np.arange(m), n_s) + lf)  # ln sqrt(p_n n!)
    stack = np.zeros((d.size, m, m))
    for c in range(m):
        for l in range(m - c if kappa > 0.0 else 1):
            rows = size > c + l
            j = lo[rows] + c
            i = j + l
            lr_rows = lr[rows]
            fixed = half[i] + half[j] + 0.5 * (lr_rows[:, c + l] + lr_rows[:, c]) - log_g
            # the series over t, one row per term, summed as a log-sum-exp
            t = np.arange(0 if kappa > 0.0 else c, c + 1)
            k = lo[rows] + t[:, None]
            terms = (
                -lf[k] - lf[i - k] - lf[j - k] - lr_rows[:, t].T
                + (c + 0.5 * l - t[:, None]) * log_eta_g
                + k * log_loss + (q0[rows] + t[:, None]) * log_gain
            )
            top = terms.max(axis=0)
            acc = top + np.log(np.exp(terms - top).sum(axis=0))
            elem = np.exp(fixed + acc)
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
