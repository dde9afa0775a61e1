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
Inputs are checked where they enter: raman_modified_moments checks Q, then
r, and its body _moment_set takes them as checked, so only S is checked
there, once, by g_factor; correlation_integrals checks r around the same
unchecked _integrals.  raman.modified_min_variance checks S, eta, Q and r
itself and calls the body directly.

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
quadrature at angle alpha is cos(alpha) S_z - sin(alpha) S~_y.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import nonnegative, twice_spin

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


def _cos_power(x, power):
    """cos(x)**power elementwise for integer-valued power >= 0 and any argument.

    exp(power ln cos x) inside the G-factor domain, which keeps full precision
    at large powers (cos^19999 at S = 1e4); the signed integer power past it.
    """
    # ln cos x through 1 - cos x = 2 sin^2(x/2): full relative precision at
    # small x, where cos(x) - 1 would vanish into the last bits of 1.0
    half_sin = np.sin(x / 2.0)
    inside = np.abs(x) < _G_DOMAIN
    with np.errstate(divide="ignore", invalid="ignore"):  # ln of cos x <= 0 past the branch, discarded
        log_form = np.exp(power * np.log1p(-2.0 * half_sin * half_sin))
    if inside.all():
        return log_form
    return np.where(inside, log_form, np.power(np.cos(x), power))


def g_factor(total_spin, u):
    """Binomial coherence factor G(u) = cos^{2S-1}(u/S), elementwise, at half-integer S (params.twice_spin).

    Finite for every finite argument: exp((2S-1) ln cos(u/S)) inside the
    G-factor domain |u/S| < pi/2, the signed integer power past it (the
    exact moments use both); raman.modified_min_variance is what refuses
    Q_eff / S past the domain.  G(0) = 1, and G == 1 identically at S = 1/2.
    """
    s = np.asarray(total_spin, dtype=float)[()]
    return _scalar(_cos_power(u / s, twice_spin(s) - 1.0))


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


@dataclass(frozen=True)
class MomentSet:
    """Second moments of one sheared state, in raw spin units.

    var_y is the mean-subtracted Delta S~_y^2, var_z = S/2, cov_w the
    symmetrized <{S~_y, S_z}>.  mean_sp / mean_sp2 are the complex coherence
    moments behind them.  Scalar inputs give Python scalars; array inputs give
    arrays that broadcast against each other (total_spin and var_z keep
    the shape of their own input).
    """

    total_spin: float
    mean_sp: complex
    mean_sp2: complex
    var_y: float
    var_z: float
    cov_w: float


def raman_modified_moments(total_spin, q, r):
    """Closed-form MomentSet with the time-averaged-S_z substitution, broadcast over (S, Q, r).

    This is the one closed-form body: analytic_moments is its r = 0 case by
    construction.  var_z stays S/2 (the telegraph process is stationary on
    the CSS ensemble).  Q, then r, then S are checked, in that order.
    """
    # 0-d inputs become numpy scalars, whose arithmetic costs less than 0-d arrays'
    s, q = np.asarray(total_spin, dtype=float)[()], nonnegative("shearing strength", q)
    return _moment_set(s, q, nonnegative("r", r))


def _moment_set(s, q, r):
    """raman_modified_moments at a float S, a checked Q and a checked r: only S is checked here."""
    c_sq, c_fin = _integrals(r)
    q_eff = q * c_fin
    # g_factor is where S is checked (params.twice_spin), so 2S below is exact
    g_half = g_factor(s, q_eff / 2.0)
    two_s = 2.0 * s
    xi_var = np.maximum(c_sq - c_fin * c_fin, 0.0)  # >= 0 by Cauchy-Schwarz
    # Q^2 past the float range gives an exponent of -inf, the right limit (d1 = 0); inf * 0 where xi_var is 0
    # as well is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -q * q * xi_var
    undefined = exponent != exponent
    if undefined.any():
        raise ValueError(f"Q = {float(np.broadcast_to(q, undefined.shape)[undefined][0])!r}: the dephasing "
                         "Q^2 (c_bar_sq - c_bar_fin^2) is inf * 0, Q^2 past the float range where "
                         "c_bar_sq - c_bar_fin^2 is 0 (at r = 0 or below ~5e-17)")
    d1 = np.exp(exponent / (4.0 * s))

    mean_sp = d1 * s * g_half * np.exp(1j * (q_eff / (2.0 * s)))
    # the factor 2S - 1 makes <S_+^2> vanish on a single spin-1/2
    cos_power = _cos_power(q_eff / s, np.maximum(two_s - 2.0, 0.0))
    mag = np.power(d1, 4.0) * (s * (two_s - 1.0) / 2.0) * cos_power * np.exp(-q / s)
    mean_sp2 = mag * np.exp(1j * ((2.0 * q_eff - q) / s))
    second_y = (2.0 * s * s + s) / 4.0 - mean_sp2.real / 2.0
    return MomentSet(
        total_spin=_scalar(s),
        mean_sp=_scalar(mean_sp),
        mean_sp2=_scalar(mean_sp2),
        var_y=_scalar(second_y - np.square(mean_sp.imag)),
        var_z=_scalar(s / 2.0),
        cov_w=_scalar(d1 * (2.0 * s * s - s) * np.sin(q_eff / (2.0 * s)) * g_half),
    )


def analytic_moments(total_spin, q):
    """Closed-form MomentSet at (S, Q) without scattering: raman_modified_moments at r = 0."""
    return raman_modified_moments(total_spin, q, 0.0)


def min_variance(moments):
    """Minimum over alpha of sigma^2(alpha) / (S/2), elementwise: the short axis (V+ - sqrt(V-^2 + W^2)) / 2."""
    v_plus = moments.var_y + moments.var_z
    radius = np.hypot(moments.var_y - moments.var_z, moments.cov_w)
    return _scalar(0.5 * (v_plus - radius) / (moments.total_spin / 2.0))
