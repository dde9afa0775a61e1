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

raman.raman_modified_moments evaluates these forms, broadcast over (S, Q, r),
with the scattering substitution; analytic_moments is its r = 0 case.

The variance of the spin component measured after rotating the state about
x by -alpha is

    sigma^2(alpha) = (V+ - V- cos 2alpha - W sin 2alpha) / 2
                   = (V+ - sqrt(V-^2 + W^2) cos[2(alpha - alpha_0)]) / 2,

V+- = Delta S~_y^2 +- Delta S_z^2, tan(2 alpha_0) = W / V-; the measured
quadrature at angle alpha is cos(alpha) S_z - sin(alpha) S~_y.
"""

from dataclasses import dataclass

import numpy as np

# Direct signed integer cosine powers below this spin (valid for any
# argument); log-space evaluation above (principal branch only, raises
# outside it).  cos^19999 underflows in naive evaluation, hence the split.
_DIRECT_POWER_MAX_SPIN = 50.0

# The G-factor domain |Q_eff / S| < pi/2: the principal branch, on which
# every cosine behind the G factors stays positive.
_G_DOMAIN = np.pi / 2.0


def _scalar(value):
    """A 0-d result as a Python scalar, so scalar calls keep returning float, complex or bool."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def _check_g_domain(x, where=True):
    """Raise ValueError where `where` holds and x = Q_eff / S leaves the G-factor domain |x| < pi/2."""
    outside = (np.abs(x) >= _G_DOMAIN) & where
    if outside.any():
        first = np.broadcast_to(x, outside.shape)[outside][0]
        raise ValueError(f"Q_eff / S = {float(first)!r}: outside the principal branch |Q_eff / S| < pi/2 "
                         "of the G factor")


def _cos_power(x, power):
    """cos(x)**power elementwise for integer-valued power >= 0, stable for large powers."""
    cos = np.cos(x)
    big = power > 2 * _DIRECT_POWER_MAX_SPIN
    if not big.any():
        return np.power(cos, power)
    _check_g_domain(x, big)
    # ln cos x through 1 - cos x = 2 sin^2(x/2): full relative precision at
    # small x, where cos(x) - 1 would vanish into the last bits of 1.0
    half_sin = np.sin(x / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # direct-power elements past the branch
        log_form = np.exp(power * np.log1p(-2.0 * half_sin * half_sin))
    return np.where(big, log_form, np.power(cos, power))


def g_factor(total_spin, u):
    """Binomial coherence factor G(u) = cos^{2S-1}(u/S), elementwise.

    For S <= 50 the integer power is evaluated directly and stays valid for
    any argument (the exact moments at small S use that); for larger S the
    value is exp((2S-1) ln cos(u/S)), which requires |u/S| < pi/2, the
    G-factor domain, and raises ValueError otherwise.  The squeezing curve,
    raman.modified_min_variance, refuses Q_eff / S past the domain for
    every S.  G(0) = 1 for any S, and G == 1 identically at S = 1/2
    (exponent zero).
    """
    s = np.asarray(total_spin, dtype=float)[()]
    return _scalar(_cos_power(u / s, np.rint(2.0 * s) - 1.0))


@dataclass(frozen=True)
class MomentSet:
    """Second moments of one sheared state, in raw spin units.

    var_y is the mean-subtracted Delta S~_y^2, var_z = S/2, cov_w the
    symmetrized <{S~_y, S_z}>.  mean_sp / mean_sp2 are the complex coherence
    moments behind them.  Scalar inputs give Python scalars; array inputs give
    arrays that broadcast against each other (total_spin, shearing_q and
    var_z keep the shape of their own input).
    """

    total_spin: float
    shearing_q: float
    mean_sp: complex
    mean_sp2: complex
    var_y: float
    var_z: float
    cov_w: float


def analytic_moments(total_spin, q):
    """Closed-form MomentSet at (S, Q) without scattering: raman_modified_moments at r = 0."""
    from .raman import raman_modified_moments  # the one closed-form body; raman imports this module

    return raman_modified_moments(total_spin, q, 0.0)


@dataclass(frozen=True)
class RotatedVariance:
    """Extrema of sigma^2(alpha) over the measurement angle.

    sigma_min_sq / sigma_max_sq are normalized to the CSS variance S/2;
    v_plus, v_minus and w are the raw intermediates.  degenerate marks the
    isotropic case V- = W = 0, where alpha0 is returned as 0.
    """

    alpha0: float
    sigma_min_sq: float
    sigma_max_sq: float
    v_plus: float
    v_minus: float
    w: float
    degenerate: bool = False


def extremal_variances(moments):
    """Principal axes of the sheared uncertainty ellipse in the y-z plane, elementwise.

    alpha0 = atan2(W, V-)/2, the quadrant-correct branch on which the cosine
    term is subtracted at the minimum.
    """
    v_plus = moments.var_y + moments.var_z
    v_minus = moments.var_y - moments.var_z
    w = moments.cov_w
    radius = np.hypot(v_minus, w)
    degenerate = radius <= 1e-15 * np.maximum(v_plus, 1e-300)
    alpha0 = np.where(degenerate, 0.0, 0.5 * np.arctan2(w, v_minus))
    half_css = moments.total_spin / 2.0
    return RotatedVariance(
        alpha0=_scalar(alpha0),
        sigma_min_sq=_scalar(0.5 * (v_plus - radius) / half_css),
        sigma_max_sq=_scalar(0.5 * (v_plus + radius) / half_css),
        v_plus=_scalar(v_plus),
        v_minus=_scalar(v_minus),
        w=_scalar(w),
        degenerate=_scalar(degenerate),
    )
