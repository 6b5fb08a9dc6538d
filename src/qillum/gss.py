"""Golden-section search for minimization on a bracket, one or many at once."""

import math

from ._lazy import is_array, np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 200  # bracket shrinks by INVPHI per step; far more than any xtol needs


def _section(a, b, xtol):
    """The search as a generator: yields each point to evaluate, is sent its
    value and returns (x_min, f_min)."""
    best_x, best_f = a, (yield a)
    fb = yield b
    if fb < best_f:
        best_x, best_f = b, fb

    h = b - a
    c = b - INVPHI * h
    d = a + INVPHI * h
    fc = yield c
    fd = yield d
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
            fc = yield c
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INVPHI * h
            fd = yield d
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def golden_section_min(f, a, b, xtol):
    """Minimize a unimodal function f on [a, b] to bracket width xtol.

    Returns (x_min, f_min).  All evaluated points, including the bracket
    endpoints, are kept as candidates, so a monotone objective still
    returns the best sampled point rather than an interior one.

    If f(a) is an array, f stands for one objective per element: it maps
    an array of points, one per element, to their values.  Each element
    then runs its own search, taking exactly the steps it would take alone,
    and f is called once per step for all of them; x_min and f_min are
    arrays.  An element whose search has ended is evaluated again at its
    last point until all have ended.
    """
    if not b > a:
        raise ValueError(f"bad bracket [{a}, {b}]")
    fa = f(a)
    if not is_array(fa):
        send = _section(a, b, xtol).send
        send(None)
        fx = fa
        try:
            while True:
                fx = f(send(fx))
        except StopIteration as end:
            return end.value

    sends = [_section(a, b, xtol).send for _ in range(fa.size)]
    xs = [send(None) for send in sends]
    x_min, f_min = xs[:], fa.tolist()
    live, values = range(len(sends)), f_min[:]
    while live:
        going = []
        for i in live:
            try:
                xs[i] = sends[i](values[i])
                going.append(i)
            except StopIteration as end:
                x_min[i], f_min[i] = end.value
        live = going
        if live:
            values = f(np.array(xs)).tolist()
    return np.array(x_min), np.array(f_min)
