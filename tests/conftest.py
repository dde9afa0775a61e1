import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def rel_err(a, b):
    """Relative difference with a zero-safe scale."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff / scale if scale > 0.0 else 0.0


def golden_section_min(f, lo, hi, tol=1e-12, max_iter=300):
    """Golden-section minimum of a unimodal scalar f on [lo, hi]; returns (x, f(x)).

    The tests' independent reference minimiser; tol is the relative width
    of the final bracket.
    """
    a, b = float(lo), float(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * (abs(a) + abs(b)) / 2.0:
            break
        if fc < fd:  # keep [a, d]; the old c becomes the new d
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # keep [c, b]; the old d becomes the new c
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def floored_rel_err(a, b, floor):
    """Relative difference that ignores cancellation noise below `floor`."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def angle_dist_mod_pi(a, b):
    """Distance between two angles identified modulo pi."""
    d = math.fmod(a - b, math.pi)
    if d < 0.0:
        d += math.pi
    return min(d, math.pi - d)


def dense_matrix(op):
    """The (2S+1) x (2S+1) matrix of a tridiagonal operator, from its bands."""
    return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)
