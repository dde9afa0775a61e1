"""Brute-force validation engine for the sheared-moment closed forms.

Two independent numerical routes to the same moments:

  * oracle_moments_sum: explicit finite sums over Dicke amplitudes of the
    sheared coherence moments, with the S_z-dependent phase factor standing
    to the LEFT of the powers of S_+ (matrix element at the higher m),
  * channel_moments: a Schroedinger-picture map on the density matrix
    multiplying each coherence <m|rho|m'> (n = m' - m > 0) by
    channel_factors' exp(-(n^2-n)(1+i)Q/(2S)) exp(i n Q m'/S), the unique
    matrix-element assignment that reproduces those sums on arbitrary
    states, applied to the CSS and traced against the spin operators.

Numerical care: the sums run in float64 on the normalised amplitudes of
dicke.css_support, up to S ~ 1e5; their cancellation error stays ~1e-12
relative even at Q = S/2 on the validate-oracle grid (S <= 200).  They run
over the product window alone: css_support's window less the ends where
even the widest pair a_k a_{k+2} underflows to 0.0, so every term dropped
is exactly 0.  That is O(sqrt(S)) terms: 17,183 of css_support's 25,987 at
S = 1e5, and all 2S+1 below 2S = 1085.  They are elementwise over Q: one
call builds the weights once, the phases of all Q form one array and each
row is summed on its own.  The channel forms only the -1 and -2 diagonals
of the sheared density matrix (the populations are a * a, the +1 diagonal
the -1's conjugate): O(S) work and memory, up to DENSITY_DIM_CAP, on the
same css_support form as the sums, whose window is the whole range there.
"""

import math

import numpy as np

from .dicke import DENSITY_DIM_CAP, css_support, m_values, raising_coefficients
from .feedback import MomentSet
from .params import nonnegative, twice_spin

# Largest Dicke dimension 2S+1 the sums accept (S <= 1e5), not their length.
ORACLE_SUM_CAP = 200_001


def oracle_moments_sum(total_spin, q):
    """Sheared-state moments on a CSS by explicit Dicke sums, elementwise over a scalar or 1-D array of Q.

    Computes <e^{iQ S_z/S} S_+>, e^{-(1+i)Q/S} <e^{2iQ S_z/S} S_+^2> and the
    anticommutator sum behind the y-z covariance term by term; assembles
    Delta S~_y^2 = <S~_y^2> - <S~_y>^2 through the conserved
    S_+S_- + S_-S_+ = 2(S(S+1) - S_z^2), with conjugate moments taken as
    Hermitian conjugates; Delta S_z^2 is S/2, S_z a constant of motion.  The
    sums index ascending m = k - S against the m = +S..-S order of
    css_support, valid only because CSS amplitudes are symmetric in m, and
    run over the product window k = first_k+cut..2S-first_k-cut alone, cut
    the first offset into css_support's window where a_k a_{k+2} > 0.0 (0
    below 2S = 1085, so there the sums are the full-range sums to the bit).
    The phases of all Q form one (Q, window) array and each row is summed
    on its own, bit for bit as a call at its Q alone.  A scalar Q gives
    Python scalars, an array Q arrays, as the closed forms do.
    """
    s = float(total_spin)
    two_s = int(twice_spin(s))
    if two_s + 1 > ORACLE_SUM_CAP:
        raise ValueError(f"Dicke dimension {two_s + 1} exceeds oracle cap {ORACLE_SUM_CAP}")
    qs = np.atleast_1d(nonnegative("shearing strength", q))

    first_k, a = css_support(s)
    # the widest pair is a_k a_{k+2}; where it underflows to 0.0 (a rises on the left tail), so does every term
    cut = int(np.argmax(a[:-2] * a[2:] > 0.0)) if len(a) > 2 else 0
    a, first_k = a[cut:len(a) - cut], first_k + cut
    k = np.arange(first_k, first_k + len(a), dtype=float)
    m = k - s
    # first coherence: a_{m+1} a_m sqrt(P_k) e^{iQ(m+1)/S}, P_k = (S-m)(S+m+1) = (2S-k)(k+1) an exact integer
    p_k = (two_s - k[:-1]) * (k[:-1] + 1.0)
    w1 = a[1:] * a[:-1] * np.sqrt(p_k)
    w1_cov = w1 * (2.0 * m[:-1] + 1.0)
    # second coherence: a_{m+2} a_m sqrt(P_k P_{k+1}) e^{2iQ(m+2)/S}; P_k P_{k+1} rounds the exact product once,
    # as (2S-k)(k+1)(2S-k-1)(k+2) taken in order does while its first three factors are exact: (2S)^3 < 2^53
    w2 = a[2:] * a[:-2] * np.sqrt(p_k[:-1] * p_k[1:])
    # Re, Im <S_+>, cov_w, Re, Im of the raw <S_+^2>: each row of the (Q, window) phases summed on its own
    u = qs[:, None] / s
    ph1 = u * (m[:-1] + 1.0)
    sin1 = np.sin(ph1)
    totals = [np.sum(w1 * np.cos(ph1), axis=-1), np.sum(w1 * sin1, axis=-1), np.sum(w1_cov * sin1, axis=-1)]
    ph2 = 2.0 * u * (m[:-2] + 2.0)
    totals += [np.sum(w2 * np.cos(ph2), axis=-1), np.sum(w2 * np.sin(ph2), axis=-1)]
    re1, im1, cov_w, re2, im2 = (row.tolist() for row in totals)

    # the S_z-independent photon shot-noise factor e^{-(1+i)Q/S} and var_y, per Q in math
    shot = [complex(math.exp(-x)) * complex(math.cos(x), -math.sin(x)) for x in (qs / s).tolist()]
    mean_sp, mean_sp2 = list(map(complex, re1, im1)), [z * f for z, f in zip(map(complex, re2, im2), shot)]
    ladder = (s * (s + 1.0) - float(np.sum(a * a * m * m))) / 2.0  # <S_+S_- + S_-S_+> / 4
    var_y = [ladder - sp2.real / 2.0 - sp.imag ** 2 for sp, sp2 in zip(mean_sp, mean_sp2)]
    scalar = np.ndim(q) == 0
    mean_sp, mean_sp2, var_y, cov_w = (c[0] if scalar else np.array(c) for c in (mean_sp, mean_sp2, var_y, cov_w))
    return MomentSet(total_spin=s, mean_sp=mean_sp, mean_sp2=mean_sp2, var_y=var_y, cov_w=cov_w)


def channel_factors(total_spin, q, m, m_prime):
    """Coherence factor F(m, m') of the feedback map, element-wise on broadcastable arrays of m and m'.

    <m|rho|m'> with n = m' - m > 0 picks up exp(-(n^2-n)(1+i)Q/(2S)) times
    exp(i n Q m'/S); the n < 0 elements are the Hermitian mirror and the
    populations (n = 0) get 1.  All magnitudes are <= 1; anything larger is
    a sign/ordering bug and raises.
    """
    s = float(total_spin)
    n = m_prime - m
    n_abs = np.abs(n)
    damp = np.exp(-(n_abs * n_abs - n_abs) * q / (2.0 * s))
    phase = n * q * np.maximum(m, m_prime) / s - np.sign(n) * (n_abs * n_abs - n_abs) * q / (2.0 * s)
    factors = damp * np.exp(1j * phase)
    if np.any(np.abs(factors) > 1.0 + 1e-12):
        raise RuntimeError("channel factor exceeds unit magnitude: sign/ordering bug")
    return factors


def channel_moments(total_spin, q):
    """Moments via the density-matrix channel on the CSS, traced on the diagonals of rho.

    Every operator is banded, so each trace tr(rho A) takes the populations
    and the -2..+1 diagonals of rho times dicke.raising_coefficients' c_m,
    on dicke.m_values' m; <S_y^2> goes through the diagonal S_+S_- + S_-S_+.
    Only the -1 and -2 diagonals are formed, entry (i+d, i) as
    a_{i+d} a_i F(m_{i+d}, m_i) on the CSS amplitudes a: the populations are
    a * a (F(m, m) = 1) and the +1 diagonal is the conjugate of the -1.  So
    this route shares no arithmetic with oracle_moments_sum beyond the amplitudes.
    """
    dim = int(twice_spin(total_spin)) + 1
    if dim > DENSITY_DIM_CAP:
        raise ValueError(f"Dicke dimension {dim} exceeds cap {DENSITY_DIM_CAP}")
    nonnegative("shearing strength", q)
    c = raising_coefficients(total_spin)
    m = m_values(total_spin)
    _, a = css_support(total_spin)  # the whole range: below DENSITY_DIM_CAP the window starts at k = 0

    def lower(d):
        """Diagonal -d of the sheared CSS density matrix, entry (i+d, i), in np.diagonal's order."""
        return channel_factors(total_spin, q, m[d:], m[:-d]) * (a[d:] * a[:-d])

    pop = a * a
    below = lower(1)
    mean_sp = complex(np.sum(below * c))
    mean_sp2 = complex(np.sum(lower(2) * c[:-1] * c[1:]))
    # rho_{i+1,i} <i|S_y|i+1> + rho_{i,i+1} <i+1|S_y|i>, term by term
    sy_terms = (below - below.conj()) * c / 2j
    ladder = float(np.sum((pop[:-1] + pop[1:]) * c * c))  # <S_+S_- + S_-S_+>
    var_y = (ladder - 2.0 * mean_sp2.real) / 4.0 - mean_sp.imag * mean_sp.imag  # <S_y> = Im <S_+>
    # {S_y, S_z} has the S_y bands times m_i + m_{i+1}
    cov_w = float(np.sum(sy_terms * (m[:-1] + m[1:])).real)
    return MomentSet(total_spin=float(total_spin), mean_sp=mean_sp, mean_sp2=mean_sp2, var_y=var_y, cov_w=cov_w)
