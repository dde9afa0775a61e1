import math

import numpy as np


def rel_err(a, b):
    """Relative difference with a zero-safe scale."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff / scale if scale > 0.0 else 0.0


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
