"""Closed-form second moments of the cavity-sheared collective spin.

After the pulse, in the frame rotated back about z by the S_z = 0 light
shift, the coherence moments of the sheared spin on a CSS along +x are
(exact finite sums of the binomial amplitudes, evaluated in closed form):

    <S~_+>   =  S G(Q/2) e^{i Q/(2S)}
    <S~_+^2> = (S(2S-1)/2) cos^{2S-2}(Q/S) e^{-Q/S} e^{i Q/S}
    <S~_y^2> =  S^2/2 + S/4 - (S^2/2 - S/4) e^{-Q/S} G(Q)
    W = <{S~_y, S_z}> = (2S^2 - S) sin(Q/(2S)) G(Q/2)

with G(u) = cos^{2S-1}(u/S) and Q the dimensionless shearing strength.
The e^{-Q/S} damping is photon shot noise on the second coherence; the
G factors carry the Bloch-sphere curvature.  The residual mean rotation
Q/(2S) makes <S~_y> = S G(Q/2) sin(Q/(2S)) slightly nonzero, and the
variance proper subtracts it:  Delta S~_y^2 = <S~_y^2> - <S~_y>^2.  The
subtraction is O(1/S) relative at large S but matters for exact-oracle
agreement at small S.

raman_modified_moments evaluates these forms, broadcast over (S, Q, r), with
the Raman-scattering substitution below; analytic_moments is its r = 0 case.
Inputs are checked once, where they enter: raman_modified_moments checks Q,
then r, then S, and its body _moment_set takes them and the 2S of
params.twice_spin as checked; correlation_integrals checks r around the same
unchecked _integrals.  modified_min_variance, the entry at (S, eta, Q),
checks S, eta, Q and r = Q/(4 S eta) itself, refuses a Q_eff / S past the G
factors' principal branch and calls the body.  _curvature_optimum forms the
curvature limit, Q_curv and sigma_curv^2, for design and raman.fig2_curve.

Substitution recipe: Raman flips make the spin precess with the time
average Sbar_z (the raman module has the telegraph model), whose normalized
moments c_bar_sq and c_bar_fin come from correlation_integrals.  In the
large-S limit (Sbar_z, S_z(t)) is jointly Gaussian, so Sbar_z =
c_bar_fin S_z(t) + xi with xi independent of S_z(t) and Var(xi) =
(S/2)(c_bar_sq - c_bar_fin^2).  The Dicke sums are then evaluated at the
reduced coupling Q_eff = Q c_bar_fin while xi contributes classical Gaussian
dephasing exp(-n^2 Q^2 (c_bar_sq - c_bar_fin^2) / (4S)) on the n-th
coherence.  In the large-S, small-r regime the minimum variance reduces to
1/Q + 4r/3 with r = Q/(4 S eta).

The variance of the spin component measured after rotating the state about
x by -alpha is

    sigma^2(alpha) = (V+ - V- cos 2alpha - W sin 2alpha) / 2
                   = (V+ - sqrt(V-^2 + W^2) cos[2(alpha - alpha_0)]) / 2,

V+- = Delta S~_y^2 +- Delta S_z^2, tan(2 alpha_0) = W / V-; the measured
quadrature at angle alpha is cos(alpha) S_z - sin(alpha) S~_y.  Delta S_z^2
is S/2 on every route, formed from total_spin: the map leaves the
populations alone, and the telegraph process is stationary on the CSS.
"""

import math
from typing import NamedTuple

import numpy as np

from .params import nonnegative, positive, twice_spin

# The G-factor domain |Q_eff / S| < pi/2: the principal branch, on which
# every cosine behind the G factors stays positive.
_G_DOMAIN = np.pi / 2.0

# Series of the correlation integrals below a = 2r = 0.5:  c_bar_sq =
# 2 sum_j (-a)^j/(j+2)!,  c_bar_fin = sum_j (-a)^j/(j+1)!.  16 terms leave a
# remainder under 1e-19; the (c_bar_sq, c_bar_fin) coefficient pairs are
# listed highest power first for Horner's rule.
_SERIES = [(2.0 / math.factorial(j + 2), 1.0 / math.factorial(j + 1)) for j in reversed(range(16))]


def _scalar(value):
    """A 0-d result as a Python scalar, so scalar calls keep returning float, complex or bool."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def _curvature_optimum(s):
    """(Q_curv, sigma_curv^2) = (6^{1/5} S^{2/5}, (5/4) 6^{-1/5} S^{-2/5}) at a checked S, elementwise: the minimizer
    and minimum of the two-term form 1/Q + Q^4/(24 S^2), the paper's curvature limit."""
    return 6.0 ** 0.2 * np.power(s, 0.4), 1.25 * 6.0 ** (-0.2) * np.power(s, -0.4)


def _cos_power(half, half_sin, power):
    """cos(2 half)**power elementwise for integer-valued power >= 0 and any argument, given half_sin = sin(half).

    exp(power ln cos 2half) inside the G-factor domain, which keeps full precision at large powers (cos^19999 at
    S = 1e4); the signed integer power past it, where the caller ignores the warnings of ln cos 2half <= 0.
    """
    # ln cos 2h through 1 - cos 2h = 2 sin^2(h): full relative precision at
    # small h, where cos(2h) - 1 would vanish into the last bits of 1.0
    inside = np.abs(half) < _G_DOMAIN / 2.0
    log_form = np.exp(power * np.log1p(-2.0 * half_sin * half_sin))
    if inside.all():
        return log_form
    return np.where(inside, log_form, np.power(np.cos(2.0 * half), power))


def correlation_integrals(r):
    """Normalized moments (c_bar_sq, c_bar_final) of the time-averaged S_z, elementwise.

    Closed forms of the exponential-kernel time integrals (the raman module
    derives them); a series is used below 2r = 0.5, where the closed forms
    lose digits to cancellation.  Past the float range of 2r they read
    c_bar_fin = 1/(2r) and c_bar_sq = (1 - c_bar_fin)/r, formed from r.
    """
    c_sq, c_fin = _integrals(nonnegative("r", r))
    return _scalar(c_sq), _scalar(c_fin)


def _integrals(r):
    """correlation_integrals at a checked r, as arrays or numpy scalars; a branch is formed only if some r takes it."""
    small = r < 0.25
    if small.all():
        return _series(r)
    # 2 max(r, 1/4) is exactly max(2r, 1/2) = a, and halving a numerator in [0, 2] is exact, so each quotient over
    # r is the one over a, bit for bit, wherever 2r is finite; past that, -2r is -inf and e^-2r is 0
    r_closed = np.maximum(r, 0.25)
    with np.errstate(over="ignore"):
        closed_fin = 0.5 * (1.0 - np.exp(-2.0 * r_closed)) / r_closed
    # c_bar_sq = 2 (a - 1 + e^-a) / a^2 = (1 - c_bar_fin) / r, without the a^2 that overflows past a = 1.3e154
    closed_sq = (1.0 - closed_fin) / r_closed
    if not small.any():
        return closed_sq, closed_fin
    sq_series, fin_series = _series(np.minimum(r, 0.25))  # capped, so the discarded terms cannot overflow
    return np.where(small, sq_series, closed_sq), np.where(small, fin_series, closed_fin)


def _series(r):
    """The series (c_bar_sq, c_bar_fin) at r <= 1/4 by Horner's rule, in Python floats at a 0-d r."""
    x = _scalar(-2.0 * r)
    sq_series, fin_series = _SERIES[0]
    for sq_coef, fin_coef in _SERIES[1:]:
        sq_series = sq_series * x + sq_coef
        fin_series = fin_series * x + fin_coef
    return sq_series, fin_series


class MomentSet(NamedTuple):
    """Second moments of one sheared state, in raw spin units.

    var_y is the mean-subtracted Delta S~_y^2, cov_w the symmetrized
    <{S~_y, S_z}>; Delta S_z^2 is S/2, from total_spin.  mean_sp / mean_sp2
    are the complex coherence moments behind them.  Scalar inputs give Python
    scalars; array inputs give arrays that broadcast against each other
    (total_spin keeps the shape of its own input).
    """

    total_spin: float
    mean_sp: complex
    mean_sp2: complex
    var_y: float
    cov_w: float


def raman_modified_moments(total_spin, q, r):
    """Closed-form MomentSet with the time-averaged-S_z substitution, broadcast over (S, Q, r).

    This is the one closed-form body: analytic_moments is its r = 0 case by
    construction.  Q, then r, then S are checked, in that order.
    """
    q, r = nonnegative("shearing strength", q), nonnegative("r", r)
    return _moment_set(twice_spin(total_spin), q, r)


def _moment_set(two_s, q, r):
    """raman_modified_moments at a checked 2S (params.twice_spin), Q and r: only the dephasing is refused here."""
    s = two_s / 2.0
    c_sq, c_fin = _integrals(r)
    q_eff = q * c_fin
    # the mean rotation Q_eff/(2S) is the half angle of cos^{2S-2}(Q_eff/S); its sine also enters <S~_+> and W
    phase = q_eff / two_s
    sin_phase = np.sin(phase)
    quarter = phase / 2.0
    # Q^2 past the float range gives an exponent of -inf, the right limit (d1 = 0); inf * 0 where c_bar_sq -
    # c_bar_fin^2 (>= 0 by Cauchy-Schwarz) is 0 as well is refused below.  The G factors' ln cos <= 0 past the
    # branch is discarded (_cos_power)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        exponent = -q * q * np.maximum(c_sq - c_fin * c_fin, 0.0)
        g_half = _cos_power(quarter, np.sin(quarter), two_s - 1.0)  # G(Q_eff/2)
        # the factor 2S - 1 makes <S_+^2> vanish on a single spin-1/2
        cos_power = _cos_power(phase, sin_phase, np.maximum(two_s - 2.0, 0.0))
    undefined = exponent != exponent
    if undefined.any():
        raise ValueError(f"Q = {float(np.broadcast_to(q, undefined.shape)[undefined][0])!r}: the dephasing "
                         "Q^2 (c_bar_sq - c_bar_fin^2) is inf * 0, Q^2 past the float range where "
                         "c_bar_sq - c_bar_fin^2 is 0 (at r = 0 or below ~5e-17)")
    d1 = np.exp(exponent / (4.0 * s))
    del c_sq, c_fin, quarter, exponent, undefined  # freed before the moments: a call's memory peaks at the return
    mean_sp = _polar(d1 * s * g_half, np.cos(phase), sin_phase)
    mag = np.power(d1, 4.0) * (s * (two_s - 1.0) / 2.0) * cos_power * np.exp(-q / s)
    phase_2 = (2.0 * q_eff - q) / s
    mean_sp2 = _polar(mag, np.cos(phase_2), np.sin(phase_2))
    second_y = (2.0 * s * s + s) / 4.0 - mean_sp2.real / 2.0
    return MomentSet(
        total_spin=_scalar(s),
        mean_sp=_scalar(mean_sp),
        mean_sp2=_scalar(mean_sp2),
        var_y=_scalar(second_y - np.square(mean_sp.imag)),
        cov_w=_scalar(d1 * (2.0 * s * s - s) * sin_phase * g_half),
    )


def _polar(mag, cos, sin):
    """mag (cos + i sin), each part one real product into one complex array: mag e^{ix} but for a zero's sign."""
    z = np.empty(cos.shape, complex)
    np.multiply(mag, cos, out=z.real)
    np.multiply(mag, sin, out=z.imag)
    return z


def analytic_moments(total_spin, q):
    """Closed-form MomentSet at (S, Q) without scattering: raman_modified_moments at r = 0."""
    return raman_modified_moments(total_spin, q, 0.0)


def min_variance(moments):
    """Minimum over alpha of sigma^2(alpha) / (S/2), elementwise: the short axis (V+ - sqrt(V-^2 + W^2)) / 2."""
    var_z = moments.total_spin / 2.0
    radius = np.hypot(moments.var_y - var_z, moments.cov_w)
    return _scalar(0.5 * (moments.var_y + var_z - radius) / var_z)


def modified_min_variance(total_spin, eta, q):
    """Normalized minimum variance at shearing Q including Raman scattering, elementwise.

    The scattered-photon number follows from Q = 4 S eta r; the full
    G-factor forms keep shot noise, feedback and curvature, and the
    correlation integrals carry the decorrelation.

    The value is normalized to the CSS variance S/2 and not divided by the
    squared contrast C^2 = |<S~_+>|^2 / S^2, so it can fall below the
    closed-form floors of the design module, which are large-S limits of
    xi^2 = sigma^2 / C^2, by about C^2.

    Q must keep Q_eff / S = 2 eta (1 - e^{-2r}) inside the G-factor domain
    (below pi/2, so every Q is allowed for eta <= pi/4); any element outside
    it raises ValueError before the moments are evaluated, for every S, as
    does an r = Q / (4 S eta) that overflows.
    """
    return min_variance(_modified_moments(total_spin, eta, q))


def _modified_moments(total_spin, eta, q):
    """The MomentSet behind modified_min_variance, with its checks: the body takes 2S, Q and r as checked here."""
    # S first, so a non-spin gets the spin message before r is formed
    two_s = twice_spin(total_spin)
    s = two_s / 2.0
    eta, q = positive("eta", eta), positive("shearing strength", q)
    with np.errstate(over="ignore"):
        r = nonnegative("Q / (4 S eta)", q / (4.0 * s * eta))
    x = -2.0 * eta * np.expm1(-2.0 * r)  # Q_eff / S
    outside = np.abs(x) >= _G_DOMAIN
    if outside.any():
        raise ValueError(f"Q_eff / S = {float(np.asarray(x)[outside][0])!r}: outside the principal branch "
                         "|Q_eff / S| < pi/2 of the G factor")
    return _moment_set(two_s, q, r)
