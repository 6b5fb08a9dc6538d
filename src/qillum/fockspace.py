"""Truncated Fock-space representation of the return-idler state pair.

Under both hypotheses the joint state of one return-idler mode pair only
connects number states with equal photon-number difference
``d = n_R - n_I``, so each density operator is block-diagonal in d: one
small dense real-symmetric block per d over the basis ``{|n2 + d, n2>}``.
The return mode may need several hundred levels when the background is
bright, while the idler stays within a handful, so blocks of idler size keep
everything at desk scale.

A state is its read-only ``(n_blocks, m, m)`` stack, m = n_i_max + 1, with
each block in the top-left corner of its slice and zeros outside it.
build_rho0 fills its diagonal in one pass over all blocks, and build_rho1
one series index at a time across all blocks and positions.  Every
consumer reads the stack; ``JointState.blocks`` builds per-d views on
demand, for the tests and the benchmark tracer only.

The target-present channel is pure loss then a quantum-limited amplifier,
both with positive Kraus sums, so each rho1 element is one short positive
series: no branch, no cancellation.  Elements are summed as log magnitudes
and exponentiated once; large factorials enter only as ratios.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Tuple

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
    if not x < 1.0:  # log(x) would be 0: no finite cutoff reaches the tolerance
        raise DomainError(f"thermal mean {mean!r} too large for a cutoff at "
                          f"tail_tol={tail_tol!r}: mean/(mean+1) rounds to 1")
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
        """Tolerance-driven cutoffs for a scenario: each mode is cut where
        the thermal tail of its cut mean drops below tail_tol."""
        n_r, n_i = (thermal_cutoff(mean, tail_tol) for mean in _cut_means(params))
        return cls(n_r_max=n_r, n_i_max=n_i, tail_tol=tail_tol)

    def validate_for(self, params) -> None:
        """Raise TruncationError if either cutoff lies below the one
        for_params picks, i.e. leaves more than tail_tol of its cut mean's tail."""
        for label, mean, n in zip(("return", "idler"), _cut_means(params),
                                  (self.n_r_max, self.n_i_max)):
            if n < thermal_cutoff(mean, self.tail_tol):
                tail = (mean / (mean + 1.0)) ** (n + 1)
                raise TruncationError(
                    f"{label} cutoff {n} leaves tail mass {tail:.3e} > {self.tail_tol:.3e}"
                )


def _cut_means(params) -> Tuple[float, float]:
    """(return, idler) means the modes are cut on: the return mode at its H1 mean
    kappa n_s + n_b, never below the H0 mean n_b; the idler at the signal marginal n_s."""
    return params.kappa * params.n_s + params.n_b, params.n_s


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


@dataclass(frozen=True, eq=False)
class JointState:
    """One return-idler density operator, block-diagonal in d = n_R - n_I.

    ``stack`` is the state: slice k = d + n_i_max of the read-only
    (n_blocks, n_i_max+1, n_i_max+1) array holds block d, a real-symmetric
    matrix over idler numbers n2 = max(0,-d) .. min(n_i_max, n_r_max - d)
    (return number n2 + d), in its top-left corner and zeros elsewhere,
    which the spectral layers rely on.  Equality and hashing go by identity.
    """

    stack: np.ndarray
    trunc: TruncationSpec

    def __post_init__(self):
        m = self.trunc.n_i_max + 1
        if self.stack.shape != (self.trunc.n_r_max + m, m, m):
            raise DomainError(f"stack shape {self.stack.shape} does not fit {self.trunc}")
        self.stack.flags.writeable = False

    @classmethod
    def from_blocks(cls, blocks: Dict[int, np.ndarray], trunc: TruncationSpec) -> "JointState":
        """A hand-built state: one block per d, of the right size, copied into a fresh stack."""
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
        return cls(stack, trunc)

    @functools.cached_property
    def blocks(self) -> Dict[int, np.ndarray]:
        """d -> read-only (size, size) corner view of the stack, built on
        first access; for the tests and the benchmark tracer, not the run path."""
        d, _, size = _block_layout(self.trunc)
        return {dk: self.stack[k, :sk, :sk]
                for k, (dk, sk) in enumerate(zip(d.tolist(), size.tolist()))}

    def trace(self) -> float:
        return math.fsum(memoryview(self.stack.diagonal(axis1=1, axis2=2).ravel()))


def build_rho0(params, trunc: TruncationSpec) -> JointState:
    """Target-absent state: thermal background in the return mode times the
    idler marginal.  Diagonal in the number basis."""
    trunc.validate_for(params)
    d, lo, size = _block_layout(trunc)
    m = trunc.n_i_max + 1
    diag = np.arange(m)
    n2 = lo[:, None] + diag  # idler number of each diagonal slot, past the block's end too
    lw = _log_thermal_weights(n2 + d[:, None], params.n_b) + _log_thermal_weights(n2, params.n_s)
    stack = np.zeros((d.size, m, m))
    stack[:, diag, diag] = np.where(diag < size[:, None], np.exp(lw), 0.0)
    return JointState(stack, trunc)


# Blocks go through build_rho1 in runs whose work arrays hold at most this
# many elements (128 KiB).  One run of all blocks raised the peak RSS of a
# helstrom run at n_b = 100 by about 0.2 MB, though fewer bytes were live.
_WORK_ELEMENTS = 16384


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
    n_i_max appears.

    Each element is a log-sum-exp over its terms.  Blocks go in runs of at
    most _WORK_ELEMENTS elements, and for each run the build makes two
    rounds of passes over t = 0 .. n_i_max: pass t takes term t of every
    (column c, offset l) position with c >= t in every block of the run at
    once, the first round for the largest term of each element, the second
    for the sum of exp(term - largest), added in order of t.  Positions
    past the end of a block take placeholder values and are left out of
    the stack.  At kappa = 0 only t = c, l = 0 survives.  Requires n_b > 0.
    """
    if params.n_b == 0.0:
        raise DomainError("build_rho1 requires n_b > 0")
    trunc.validate_for(params)

    n_s, kappa, n_b = params.n_s, params.kappa, params.n_b
    log_g = math.log1p(n_b)
    log_eta_g = math.log(kappa) - 2.0 * log_g if kappa > 0.0 else 0.0  # kappa = 0: eta**0 terms only
    eta = kappa / (1.0 + n_b)
    # ln(1 - eta); eta rounds to 1 only at kappa = 1 with 1 + n_b == 1, where
    # 1 - eta = n_b / (1 + n_b)
    log_loss = math.log1p(-eta) if eta < 1.0 else math.log(n_b) - math.log1p(n_b)
    log_gain = -math.log1p(1.0 / n_b)  # ln(n_b / G)

    d, lo, size = _block_layout(trunc)
    q0 = lo + d
    m = trunc.n_i_max + 1
    lf = np.array([math.lgamma(n + 1.0) for n in range(m)])  # lf[n] = ln n!
    # (a, block) tables: lr[a] = ln((q0+a)!/q0!), and ln sqrt(p_n n!) and ln n!
    # at idler number n = lo + a, held at n_i_max past the block's end
    lr = np.pad(np.cumsum(np.log(q0 + np.arange(1.0, m)[:, None]), axis=0), ((1, 0), (0, 0)))
    idler = np.minimum(lo + np.arange(m)[:, None], m - 1)
    half_idler = (0.5 * (_log_thermal_weights(np.arange(m), n_s) + lf))[idler]
    lf_idler = lf[idler]
    # the positions (row c + l, column c) by column; pass t covers pos[t]
    col, off = np.array([(c, l) for c in range(m) for l in range(m - c if kappa > 0.0 else 1)]).T
    row = col + off
    start = np.searchsorted(col, np.arange(m + 1)).tolist()
    pos = [slice(a, a + 1 if kappa == 0.0 else col.size) for a in start[:-1]]

    def series_term(t, blocks):
        """Term t of every element of pass t, one (position, block) array."""
        c, l = col[pos[t], None], off[pos[t], None]
        term = np.subtract(-lf_idler[t, blocks], lf[c + l - t])
        term -= lf[c - t]
        term -= lr[t, blocks]
        term += (c + 0.5 * l - t) * log_eta_g
        term += (lo[blocks] + t) * log_loss
        term += (q0[blocks] + t) * log_gain
        return term

    stack = np.zeros((d.size, m, m))
    step = max(1, _WORK_ELEMENTS // col.size)
    for blocks in (slice(b, b + step) for b in range(0, d.size, step)):
        top = np.full((col.size, lo[blocks].size), -math.inf)
        for t in range(m):
            np.maximum(top[pos[t]], series_term(t, blocks), out=top[pos[t]])
        acc = np.zeros_like(top)
        for t in range(m):
            term = series_term(t, blocks)
            term -= top[pos[t]]
            acc[pos[t]] += np.exp(term, out=term)
            del term  # before the next pass allocates its own
        np.log(acc, out=acc)
        acc += top
        for c in range(m):  # the t-independent factor, column by column
            rows = slice(c, c + start[c + 1] - start[c])
            acc[start[c]:start[c + 1]] += (half_idler[rows, blocks] + half_idler[c, blocks]
                                           + 0.5 * (lr[rows, blocks] + lr[c, blocks]) - log_g)
        np.exp(acc, out=acc)
        acc[row[:, None] >= size[blocks]] = 0.0
        stack[blocks, row, col] = acc.T
        stack[blocks, col, row] = acc.T  # state is real-symmetric
    return JointState(stack, trunc)


# --- single-mode states for the classical benchmark -------------------------

def thermal_state(mean: float, cutoff: int) -> np.ndarray:
    """Truncated thermal density matrix with the given mean occupation."""
    if mean < 0.0:
        raise DomainError(f"mean must be >= 0, got {mean}")
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    return np.diag(np.exp(_log_thermal_weights(np.arange(cutoff + 1), mean)))


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

# Extra levels under the displacement exponential, cropped off afterwards;
# the padding absorbs edge reflection.
_DISPLACEMENT_PAD = 20


def build_displaced_thermal(
    mean_field: float,
    n_b: float,
    cutoff: int,
    tail_tol: float = 1e-9,
) -> np.ndarray:
    """Displace a truncated thermal state by a real field amplitude.

    The displacement is the matrix exponential of mean_field * (adag - a)
    on a space padded by ``_DISPLACEMENT_PAD`` extra levels, cropped back to
    ``cutoff`` afterwards.  The cutoff must leave less than tail_tol of a
    thermal tail at mean mean_field**2 + n_b.
    """
    if mean_field < 0.0:
        raise DomainError(f"mean_field must be >= 0, got {mean_field}")
    if n_b < 0.0:
        raise DomainError(f"n_b must be >= 0, got {n_b}")
    if cutoff < 0:
        raise DomainError(f"cutoff must be >= 0, got {cutoff}")
    mean_total = mean_field**2 + n_b
    if cutoff < thermal_cutoff(mean_total, tail_tol):
        tail = (mean_total / (mean_total + 1.0)) ** (cutoff + 1)
        raise TruncationError(
            f"cutoff {cutoff} leaves tail mass {tail:.3e} > {tail_tol:.3e} "
            f"for mean occupation {mean_total:.6g}"
        )
    if mean_field == 0.0:
        return thermal_state(n_b, cutoff)

    dim = cutoff + 1 + _DISPLACEMENT_PAD
    th = thermal_state(n_b, dim - 1)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), -1)  # adag in the number basis
    disp = expm(mean_field * (lower - lower.T))
    rho = disp @ th @ disp.T
    return np.ascontiguousarray(rho[: cutoff + 1, : cutoff + 1])
