"""Dicke-basis states and collective spin operators.

Index convention: vectors and matrices in the S_z eigenbasis are indexed by
m = +S down to -S, i.e. row/column 0 holds m = +S, which fixes the sign
conventions of sy and of the y-z covariance.  oracle.oracle_moments_sum
indexes ascending m = k - S instead, valid only because CSS amplitudes are
symmetric under m <-> -m.

Coherent-spin-state amplitudes are binomial, sqrt(C(2S, S+m)) 2^-S, built in
log space so ensembles up to S ~ 1e6 construct without overflow.  They fall
as e^{-m^2/2S} and are exactly 0.0 in float64 past |m| ~ 38.6 sqrt(S), so
css_support builds only the window around m = 0 that holds the nonzero ones
(O(sqrt(S)) work; the whole range while 2S < 5980); make_css pads it with
0.0.  It, m_values and raising_coefficients (S_+'s ladder coefficients c_m)
are all that the oracle module reads.  S_z and S_x are stored as bands, so
applying one is O(S), in plain NamedTuples (Tridiagonal, SpinOperators).
"""

import math
from typing import NamedTuple

import numpy as np

from .params import twice_spin

# 4001 (S <= 2000) caps state-vector work for memory
STATE_DIM_CAP = 4001

# exp(x / 2) is exactly 0.0 in float64 for x < -1490.27; 1494 leaves a margin
_LOG_UNDERFLOW = 1494.0


def m_values(total_spin):
    """Eigenvalues of S_z ordered +S..-S (the storage order), as floats."""
    return float(total_spin) - np.arange(int(twice_spin(total_spin)) + 1)


class Tridiagonal(NamedTuple):
    """Tridiagonal operator; upper[i] is element (i, i+1), lower[i] is (i+1, i)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __matmul__(self, v):
        out = self.diag * v
        out[:-1] += self.upper * v[1:]
        out[1:] += self.lower * v[:-1]
        return out


class SpinOperators(NamedTuple):
    """S_z and S_x as complex tridiagonal bands of length ~2S+1."""

    sz: Tridiagonal
    sx: Tridiagonal


def raising_coefficients(total_spin):
    """c_m = sqrt((S-m)(S+m+1)), the element <m+1|S_+|m>, for m = +S-1..-S (the storage order)."""
    s, m = float(total_spin), m_values(total_spin)[1:]
    return np.sqrt((s - m) * (s + m + 1.0))


def build_operators(spec):
    """Construct S_z and S_x for the given ensemble.

    S_x = (S_+ + S_-)/2 from raising_coefficients, in the m-descending
    storage order.  Raises ValueError when 2S+1 exceeds STATE_DIM_CAP.
    """
    dim = spec.dicke_dim
    if dim > STATE_DIM_CAP:
        raise ValueError(f"Dicke dimension {dim} exceeds cap {STATE_DIM_CAP}")
    c = raising_coefficients(spec.total_spin).astype(complex)
    off = np.zeros(dim - 1, dtype=complex)
    return SpinOperators(
        sz=Tridiagonal(off, m_values(spec.total_spin).astype(complex), off),
        sx=Tridiagonal(c / 2.0, np.zeros(dim, dtype=complex), c / 2.0),
    )


def css_support(total_spin):
    """(first_k, a): entries first_k..2S-first_k of the 2S+1 CSS amplitudes; every other entry is 0.0.

    log C(2S, k) is a cumulative sum of log((2S-k)/(k+1)) from the centre
    out, mirrored by k <-> 2S-k, so either order of m reads the same.  After
    j steps the sum is at most -j^2/(S+j+1) (log x <= x - 1); it stops where
    that bound passes -_LOG_UNDERFLOW.
    """
    two_s = int(twice_spin(total_spin))
    half = two_s // 2
    c = _LOG_UNDERFLOW
    first_k = max(0, half - math.ceil((c + math.sqrt(c * c + 2.0 * c * (two_s + 2.0))) / 2.0))
    k = np.arange(two_s - half, two_s - first_k)
    right = np.concatenate(([0.0], np.cumsum(np.log((two_s - k) / (k + 1.0)))))
    log_binom = np.concatenate((right[::-1][:two_s - half - first_k], right))
    a = np.exp(0.5 * log_binom)
    return first_k, a / np.sqrt(np.sum(a * a))


def make_css(spec):
    """Coherent spin state along +x, <S_x> = S: amplitudes sqrt(C(2S, S+m)) 2^-S as complex, m = +S..-S."""
    first_k, a = css_support(spec.total_spin)
    full = np.zeros(spec.dicke_dim, dtype=complex)
    full[first_k:first_k + len(a)] = a
    return full


def expectation(v, op):
    """<v|op|v> for a complex amplitude vector v and any operator that supports op @ v."""
    return complex(v.conj() @ (op @ v))


def variance(v, op):
    """<op^2> - <op>^2 on the pure state with complex amplitude vector v (op Hermitian)."""
    ov = op @ v
    second = float(np.real(ov.conj() @ ov))
    mean = float(np.real(v.conj() @ ov))
    return second - mean * mean
