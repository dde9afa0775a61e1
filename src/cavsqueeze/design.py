"""Operating-point calculator: squeezing limits, optima and design reports.

Two mechanisms floor the attainable normalized variance (feedback's
_curvature_optimum forms the first, which fig2 also prints):

  * Bloch-sphere curvature (no scattering):
      sigma_curv^2 = (5/4) 6^{-1/5} S^{-2/5}  at  Q_curv = 6^{1/5} S^{2/5},
    the analytic minimizer of the two-term form 1/Q + Q^4/(24 S^2),
  * free-space Raman scattering (curvature negligible):
      sigma^2 = 2/sqrt(3 S eta)  at  Q_scatt = sqrt(3 S eta),
      r_opt = sqrt(3/(16 S eta)),  with the identity Q = 4 S eta r.

Both floors are large-S limits of the contrast-normalized squeezing
parameter xi^2 = sigma^2 / C^2, with C = |<S~_+>| / S the mean-spin
contrast (Wineland et al., PRA 50, 67 (1994)).  The raw sigma^2 that
full_curve_minimum and feedback.modified_min_variance return and minimize is
normalized to S/2 only, so it can fall below a floor by about the factor
C^2: at (S, eta) = (1e3, 0.1) the raw minimum is 7% under the scattering
floor, while xi^2 stays above it.

The binding limit is the larger floor.  operating_point calls curvature
binding iff S eta^5 >= 1; the floors themselves cross at S eta^5 =
36 (64/75)^5 ~ 16.3, inside the factor-3^5 near_boundary band, so the
rule and a direct comparison of the floors may disagree only within that
band.  Both floors are asymptotic, so the recommended operating point comes
from numerical minimization of the full modified curve, with the closed
forms reported alongside.  full_curve_minimum scans the logarithmic
bracket [0.05 min(Q_curv, Q_scatt), min(4 max(Q_curv, Q_scatt), Q_edge)],
Q_edge = -2 S eta ln(1 - pi/(4 eta)) the G-factor domain edge (Q_eff / S =
pi/2; infinite for eta <= pi/4), which holds the minimiser for every S
down to S eta = 1e-3 (at S = 1/2 and eta >~ 2 it is Q_edge), and rescans
the neighbourhood of the best point four times, five array calls of the
curve in all: Q to a few 1e-7 relative up to S ~ 1e3, and above that to
the precision the curve's own rounding allows (full_curve_minimum).

The dispersive readout: the drive, at omega = omega_c + kappa/2 (half a
linewidth above the bare cavity), sees a resonance pulled by the atomic
index of refraction to omega_c + Omega S_z, so the transmitted photon
number has the relative slope 2 Omega / kappa at S_z = 0.  design_report
checks the treatment's conditions (linear in S_z, adiabatic in the cavity
field, low saturation) against the limits below and the one settable
limit, max_excited_pop, and returns the dict that design writes to
design_report.json, those checks under "validity".
"""

import sys
import warnings

import numpy as np

from . import __version__
from .feedback import _G_DOMAIN, _curvature_optimum, _modified_moments, _scalar, min_variance, modified_min_variance
from .params import nonnegative, population, positive, twice_spin
from .serialize import SCHEMA_VERSION

# full_curve_minimum: points of each logarithmic scan, and the rescans of
# the two grid steps around the best point that follow the first scan.
# Each rescan narrows the bracket by (_SCAN_POINTS - 1) / 2 = 31.5 times.
_SCAN_POINTS = 64
_REFINE_ROUNDS = 4
_SCAN_STEPS = np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)

# operating_point: curvature binds iff S eta^5 >= _REGIME_BOUNDARY (1 by
# convention); near_boundary within a factor _BOUNDARY_BAND^5 of it.
_REGIME_BOUNDARY = 1.0
_BOUNDARY_BAND = 3.0

# Relative slack on the S eta^5 >= boundary test.  S eta^5 evaluated at an
# eta derived from S (S**-0.2, (1/S)**0.2, exp(-0.2 log S)) lands between
# 1 - 22 eps and 1 + 14 eps (eps = machine epsilon) for S in [1, 1e9];
# 64 eps absorbs that rounding and is far too narrow to act as a band.
_BOUNDARY_RTOL = 64.0 * sys.float_info.epsilon

# design_report: pass/fail limits of the operating conditions besides low
# saturation, whose limit is the max_excited_pop argument
MIN_KAPPA_T = 10.0  # resolve the cavity line, kappa t >> 1
MAX_LINEARITY_RATIO = 0.1  # Omega sqrt(S/2) / kappa small
MIN_DETUNING_MARGIN = 10.0  # |Delta| >> kappa, Gamma, g


def operating_point(total_spin, eta):
    """The closed-form floors, optima and regime of (S, eta), elementwise: the dict sweep writes after S and eta.

    Keys, in sweep's column order: s_eta5, regime and near_boundary (module
    docstring), q_curv, sigma_curv_sq, q_scatt, r_opt and sigma_scatt_sq.  S
    and eta are checked once; an S eta^5 or 3 / (16 S eta) that overflows is
    refused by name, an S eta^5 that underflows to 0.0 kept.  Warns when
    r_opt >= 0.3, where the small-r expansion behind Q_scatt is unreliable.
    """
    s, eta = positive("S", total_spin), positive("eta", eta)
    with np.errstate(over="ignore"):
        s_eta5 = nonnegative("S eta^5", s * np.power(eta, 5.0))
    s_eta = s * eta
    with np.errstate(over="ignore", divide="ignore"):  # an S eta that under- or overflows is refused
        r_opt = np.sqrt(nonnegative("3 / (16 S eta)", 3.0 / (16.0 * s_eta)))
    if (r_opt >= 0.3).any():
        warnings.warn(f"r_opt = {np.max(r_opt):.3g} is not small; the low-scattering expansion behind this "
                      "optimum is unreliable", RuntimeWarning, stacklevel=2)
    curvature = s_eta5 >= _REGIME_BOUNDARY * (1.0 - _BOUNDARY_RTOL)
    band = _BOUNDARY_BAND ** 5
    q_curv, sigma_curv_sq = _curvature_optimum(s)
    return {
        "s_eta5": _scalar(s_eta5),
        "regime": _scalar(np.where(curvature, "curvature", "scattering")),
        "near_boundary": _scalar((_REGIME_BOUNDARY / band <= s_eta5) & (s_eta5 <= _REGIME_BOUNDARY * band)),
        "q_curv": _scalar(q_curv),
        "sigma_curv_sq": _scalar(sigma_curv_sq),
        "q_scatt": _scalar(np.sqrt(3.0 * s_eta)),
        "r_opt": _scalar(r_opt),
        "sigma_scatt_sq": _scalar(2.0 / np.sqrt(3.0 * s_eta)),
    }


def full_curve_minimum(total_spin, eta):
    """Numerical minimum over Q of the full scattering-modified curve, elementwise in (S, eta).

    Returns (q_min, sigma_min_sq), the best grid point and its value.  The
    bracket (module docstring) spans both closed-form optima with a wide
    margin and ends just inside the G-factor domain; it is fixed, not a
    parameter.  At S = 1/2 and eta >~ 2 the minimum is its last point.  A
    logarithmic scan of _SCAN_POINTS values over it finds the minimum among
    the coarse steps (the curve saturates at sigma^2 = 1 for very large Q,
    and a local search alone can lose an interior minimum against that
    plateau); _REFINE_ROUNDS rescans of the two steps around the best point,
    with the same number of points, then narrow it 31.5 times each.  That is
    _REFINE_ROUNDS + 1 = 5 modified_min_variance calls whatever the shape
    of (S, eta).

    Precision: the last grid steps are ln(q_hi / q_lo) (2/63)^4 / 63
    relative in Q, 7e-8 to 1.4e-7 over the default sweep grid.  The curve is
    flat near its minimum (sigma^2 moves ~1e-14 relative for 1e-7 in Q at
    (S, eta) = (1e3, 0.1)), so its rounding, which grows with S (ROADMAP.md
    item 15), sets how well Q is defined.  Against the vertex of a polynomial
    fit over Q e^{+-0.05}, the worst relative error of Q over eta in [1e-4,
    10] is <= 3.6e-7 for S from 1 to 300, 5.6e-7 at 1e3, 1.7e-6 at 1e4,
    3.5e-5 at 1e6 and 5.3e-4 at 1e8; at S = 1/2, eta = 1e-4 the curve is
    flat to rounding over +-5% in Q.  sigma^2 at the returned point is within
    the curve's rounding of its minimum.

    The minimized value is the raw sigma^2 normalized to S/2, not the
    contrast-normalized xi^2 = sigma^2 / C^2 that the closed-form floors
    approximate; it can sit below those floors by about C^2 (7% at
    (S, eta) = (1e3, 0.1)), and the xi^2 minimizer lies 5-15% lower in Q.
    """
    s, eta = (twice_spin(total_spin) / 2.0)[..., None], positive("eta", eta)[..., None]  # both before np.sqrt
    (q_curv, _), q_scatt = _curvature_optimum(s), np.sqrt(3.0 * s * eta)
    lo = 0.05 * np.minimum(q_curv, q_scatt)
    # Q_edge at Q_eff / S = (1 - 1e-12) pi/2, inf where never reached; a margin on Q
    # instead would vanish in Q_eff / S as eta -> pi/4, and the edge point be refused
    with np.errstate(divide="ignore"):
        q_edge = -2.0 * s * eta * np.log1p(-np.minimum((1.0 - 1e-12) * _G_DOMAIN / (2.0 * eta), 1.0))
    hi = np.minimum(4.0 * np.maximum(q_curv, q_scatt), q_edge)
    for _ in range(_REFINE_ROUNDS + 1):
        grid = lo * np.power(hi / lo, _SCAN_STEPS)
        values = modified_min_variance(s, eta, grid)
        best = np.argmin(values, axis=-1)[..., None]
        lo = np.take_along_axis(grid, np.maximum(best - 1, 0), axis=-1)
        hi = np.take_along_axis(grid, np.minimum(best + 1, _SCAN_POINTS - 1), axis=-1)
    return (_scalar(np.take_along_axis(grid, best, axis=-1)[..., 0]),
            _scalar(np.take_along_axis(values, best, axis=-1)[..., 0]))


def design_report(total_spin, params, pulse_time, max_excited_pop, q_target=None):
    """Limits, optima and validity of one parameter set, as the dict design writes.

    The spin S sits in the cavity of params, a cavity_params dict, and is
    sheared by a pulse of length pulse_time (s).  max_excited_pop is the
    low-saturation limit, epsilon <= max_excited_pop.  The recommended Q is
    min(full-curve minimizer, Q_curv); a q_target of zero is rejected ("no
    shearing requested"), any other positive value overrides the
    recommendation.  The Q_curv cap moves Q from the raw-sigma^2 minimizer
    (sweep --full-minimum's q_full) toward the lower xi^2 minimizer: on the
    default sweep grid it binds at 27 of 99 points (every S, at eta = 1,
    3.16 and 10), where Q sits up to 4.9% below q_full, raw sigma^2 rises by
    at most 0.67% and xi^2 falls by up to 3.5%; ROADMAP item 2 decides
    whether it stays.  The report gives the raw sigma^2 there and the
    contrast-normalized xi^2 = sigma^2 / C^2, which the floors bound; both
    come from one MomentSet, evaluated once at the recommended Q with
    modified_min_variance's checks.

    Each number has one home: no key repeats another key, a constant, a
    condition a flag answers or an identity that holds by algebra; derived
    quantities the paper or a flag names stay.  "validity" holds each checked
    quantity of the dispersive, linearized, adiabatic treatment with its
    flag and threshold: excited_pop is epsilon = <c^dag c> (g / Delta)^2 at
    S_z = 0, with <c^dag c> the drive rate 2 p0 / (kappa t); ratio_linearity
    is Omega sqrt(S/2) / kappa.  "t_constraints" holds the pulse length the
    budget needs, "provenance" the inputs.  Out-of-regime inputs only clear
    flags; a product with S or a kappa t that over- or underflows, or a
    quantity derived from them that overflows, is refused by name.
    """
    twice_spin(total_spin)
    s = float(total_spin)
    eta = params["eta"]
    g, kappa, gamma, delta = params["g_rad_s"], params["kappa_rad_s"], params["gamma_rad_s"], params["delta_rad_s"]
    positive("S eta", s * eta)
    shear_per_photon = s * (2.0 * params["omega_shift_rad_s"] / kappa) ** 2
    positive("S (2 Omega / kappa)^2", shear_per_photon)
    if q_target is not None and q_target <= 0.0:
        raise ValueError("no shearing requested: q_target must be positive")
    positive("pulse_time", pulse_time)
    population("max_excited_pop", max_excited_pop)

    point = operating_point(s, eta)  # sweep's columns after S and eta, its s_eta5 left out
    del point["s_eta5"]
    point["limiting_regime"] = point.pop("regime")

    if q_target is not None:
        q_rec = float(q_target)
    else:
        q_full, _ = full_curve_minimum(s, eta)
        q_rec = min(q_full, point["q_curv"])
    # one MomentSet gives sigma^2 and C^2, with modified_min_variance's refusals of r and of the G-factor domain
    moments = _modified_moments(s, eta, q_rec)
    sigma_rec = min_variance(moments)
    r_rec = q_rec / (4.0 * s * eta)
    contrast_sq = abs(moments.mean_sp) ** 2 / (s * s)

    # p0 = Q / (S (2 Omega / kappa)^2) photons transmitted at S_z = 0 reach q_rec; epsilon is set there
    p0 = q_rec / shear_per_photon
    kappa_t = kappa * pulse_time
    positive("kappa t (kappa_hz, t_s)", kappa_t)
    drive_rate = 2.0 * p0 / kappa_t
    nonnegative("drive rate 2 p0 / (kappa t) (t_s)", drive_rate)
    g_delta_sq = (g / delta) * (g / delta)
    nonnegative("(g / Delta)^2 (g_hz, delta_hz or delta_over_gamma)", g_delta_sq)
    excited_pop = drive_rate * g_delta_sq
    nonnegative("excited_pop (g_hz, delta_hz or delta_over_gamma, t_s)", excited_pop)
    kappa_g_sq = (kappa / g) * (kappa / g)
    nonnegative("(kappa / g)^2 (kappa_hz, g_hz)", kappa_g_sq)
    # epsilon <= max_excited_pop at this Q needs kappa t >= (kappa / g)^2 Q / (8 S max_excited_pop)
    kt_saturation = kappa_g_sq * q_rec / (8.0 * s * max_excited_pop)
    nonnegative("kappa_t_min_saturation (kappa_hz, g_hz, --eps-max)", kt_saturation)
    t_min = max(kt_saturation, MIN_KAPPA_T) / kappa
    nonnegative("t_min_seconds (kappa_hz, --eps-max)", t_min)
    positive("contrast_sq = |<S~_+>|^2 / S^2 (--q-target)", contrast_sq)  # underflows to 0 at a large Q

    ratio_linearity = params["omega_shift_rad_s"] * (s / 2.0) ** 0.5 / kappa
    detuning_margin = abs(delta) / max(kappa, gamma, g)
    flags = {
        "excited_pop": excited_pop <= max_excited_pop,
        "kappa_t": kappa_t >= MIN_KAPPA_T,
        "linearity": ratio_linearity <= MAX_LINEARITY_RATIO,
        "detuning_margin": detuning_margin >= MIN_DETUNING_MARGIN,
    }
    return {
        **point,
        "q_recommended": q_rec,
        "sigma_recommended_sq": sigma_rec,  # raw sigma^2, normalized to S/2
        "contrast_sq": contrast_sq,  # C^2 = |<S~_+>|^2 / S^2 at the recommended point
        "xi_recommended_sq": sigma_rec / contrast_sq,  # what the floors bound
        "r_recommended": r_rec,
        "spin_shortening_flag": r_rec > 0.1,  # r beyond ~0.1: neglected vector shortening suspect
        "p0_required": p0,
        "t_constraints": {"kappa_t_min_saturation": kt_saturation, "t_min_seconds": t_min},
        "validity": {
            "ratio_linearity": ratio_linearity,
            "excited_pop": excited_pop,
            "kappa_t": kappa_t,
            "detuning_margin": detuning_margin,
            "flags": flags,
            "all_ok": all(flags.values()),
            "thresholds": {"max_excited_pop": max_excited_pop, "min_kappa_t": MIN_KAPPA_T,
                           "max_linearity_ratio": MAX_LINEARITY_RATIO, "min_detuning_margin": MIN_DETUNING_MARGIN},
        },
        "provenance": {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "total_spin": s,
            "pulse_time_s": pulse_time,
            "params": params,
        },
    }
