"""Golden-section search for scalar minimization on a bracket."""

import math

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200  # bracket shrinks by INVPHI per step; far more than any xtol needs


def golden_section_min(f, a, b, xtol):
    """Minimize a unimodal function f on [a, b] to bracket width xtol.

    Returns (x_min, f_min).  All evaluated points, including the bracket
    endpoints, are kept as candidates, so a monotone objective still
    returns the best sampled point rather than an interior one.
    """
    if not b > a:
        raise ValueError(f"bad bracket [{a}, {b}]")
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

    for _ in range(_MAX_ITER):
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
