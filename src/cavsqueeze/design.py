"""Operating-point calculator: squeezing limits, optima and design reports.

Two mechanisms floor the attainable normalized variance:

  * Bloch-sphere curvature (no scattering):
      sigma_curv^2 = (5/4) 6^{-1/5} S^{-2/5}  at  Q_curv = 6^{1/5} S^{2/5},
    the analytic minimizer of the two-term form 1/Q + Q^4/(24 S^2),
  * free-space Raman scattering (curvature negligible):
      sigma^2 = 2/sqrt(3 S eta)  at  Q_scatt = sqrt(3 S eta),
      r_opt = sqrt(3/(16 S eta)),  with the identity Q = 4 S eta r.

Both floors are large-S limits of the contrast-normalized squeezing
parameter xi^2 = sigma^2 / C^2, with C = |<S~_+>| / S the mean-spin
contrast (Wineland et al., PRA 50, 67 (1994)).  The raw sigma^2 that
full_curve_minimum and raman.modified_min_variance return and minimize is
normalized to S/2 only, so it can fall below a floor by about the factor
C^2: at (S, eta) = (1e3, 0.1) the raw minimum is 7% under the scattering
floor, while xi^2 stays above it.

The binding limit is the larger floor.  classify_regime calls curvature
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
curve in all: Q to ~1e-7 relative, the precision to which the flat,
rounded curve defines it.

The dispersive readout: the drive, at omega = omega_c + kappa/2 (half a
linewidth above the bare cavity), sees a resonance pulled by the atomic
index of refraction to omega_c + Omega S_z, so the transmitted photon
number has the relative slope 2 Omega / kappa at S_z = 0.  validate_regime
checks the treatment's conditions (linear in S_z, adiabatic in the cavity
field, low saturation) against the limits below and the one settable
limit, max_excited_pop.  validate_regime and design_report return the dicts
that design writes to design_report.json, the first under "validity".
"""

import sys
import warnings

import numpy as np

from . import __version__
from .feedback import _G_DOMAIN, _scalar, raman_modified_moments
from .params import nonnegative, population, positive, twice_spin
from .raman import modified_min_variance
from .serialize import SCHEMA_VERSION

# full_curve_minimum: points of each logarithmic scan, and the rescans of
# the two grid steps around the best point that follow the first scan.
# Each rescan narrows the bracket by (_SCAN_POINTS - 1) / 2 = 31.5 times.
_SCAN_POINTS = 64
_REFINE_ROUNDS = 4
_SCAN_STEPS = np.arange(_SCAN_POINTS) / (_SCAN_POINTS - 1)

# classify_regime: curvature binds iff S eta^5 >= _REGIME_BOUNDARY (1 by
# convention); near_boundary within a factor _BOUNDARY_BAND^5 of it.
_REGIME_BOUNDARY = 1.0
_BOUNDARY_BAND = 3.0

# Relative slack on the S eta^5 >= boundary test.  S eta^5 evaluated at an
# eta derived from S (S**-0.2, (1/S)**0.2, exp(-0.2 log S)) lands between
# 1 - 22 eps and 1 + 14 eps (eps = machine epsilon) for S in [1, 1e9];
# 64 eps absorbs that rounding and is far too narrow to act as a band.
_BOUNDARY_RTOL = 64.0 * sys.float_info.epsilon

# validate_regime: pass/fail limits of the operating conditions besides low
# saturation, whose limit is the max_excited_pop argument
MIN_KAPPA_T = 10.0  # resolve the cavity line, kappa t >> 1
MAX_LINEARITY_RATIO = 0.1  # Omega sqrt(S/2) / kappa small
MIN_DETUNING_MARGIN = 10.0  # |Delta| >> kappa, Gamma, g


def curvature_optimum(total_spin):
    """(Q_curv, sigma_curv_sq): closed-form optimum of 1/Q + Q^4/(24 S^2), elementwise."""
    s = positive("S", total_spin)
    q_curv = 6.0 ** 0.2 * np.power(s, 0.4)
    sigma_curv_sq = 1.25 * 6.0 ** (-0.2) * np.power(s, -0.4)
    return _scalar(q_curv), _scalar(sigma_curv_sq)


def scattering_optimum(total_spin, eta):
    """(Q_scatt, r_opt, sigma_sq): closed-form optimum of 1/Q + Q/(3 S eta), elementwise.

    Warns when r_opt >= 0.3, where the small-r expansion behind the
    two-term form stops being trustworthy.
    """
    s_eta = positive("S", total_spin) * positive("eta", eta)
    q_scatt = np.sqrt(3.0 * s_eta)
    r_opt = np.sqrt(3.0 / (16.0 * s_eta))
    sigma_sq = 2.0 / np.sqrt(3.0 * s_eta)
    if (r_opt >= 0.3).any():
        warnings.warn(
            f"r_opt = {np.max(r_opt):.3g} is not small; the low-scattering expansion "
            "behind this optimum is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return _scalar(q_scatt), _scalar(r_opt), _scalar(sigma_sq)


def classify_regime(total_spin, eta):
    """(s_eta5, regime, near_boundary), elementwise: regime is "curvature" iff S eta^5 >= 1, else "scattering".

    The threshold 1 is the convention, _REGIME_BOUNDARY.  The comparison
    allows a relative rounding slack of 64 machine epsilons (_BOUNDARY_RTOL,
    about 1.4e-14), so eta = S**-0.2 counts as on the boundary whichever way
    S eta^5 rounds; S eta^5 = 1 - 1e-9 is still scattering-limited.

    The criterion is an order-of-magnitude rule; points with S eta^5 within
    a factor _BOUNDARY_BAND^5 of the threshold (i.e. eta within a factor
    _BOUNDARY_BAND of the boundary coupling) carry near_boundary = True.
    """
    s, eta = positive("S", total_spin), positive("eta", eta)
    s_eta5 = s * np.power(eta, 5.0)
    curvature = s_eta5 >= _REGIME_BOUNDARY * (1.0 - _BOUNDARY_RTOL)
    band = _BOUNDARY_BAND ** 5
    return (_scalar(s_eta5), _scalar(np.where(curvature, "curvature", "scattering")),
            _scalar((_REGIME_BOUNDARY / band <= s_eta5) & (s_eta5 <= _REGIME_BOUNDARY * band)))


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
    relative in Q, from 7e-8 to 1.4e-7 over the default sweep grid (bracket
    ratios 83 to 4.2e3).  Finer steps would add nothing: near its minimum
    the curve is flat to rounding (sigma^2 changes by ~1e-14 relative when
    Q moves by 1e-7 at (S, eta) = (1e3, 0.1)), so Q has about 7 meaningful
    digits, and sigma^2 at the returned point is within rounding of the
    minimum.

    The minimized value is the raw sigma^2 normalized to S/2, not the
    contrast-normalized xi^2 = sigma^2 / C^2 that the closed-form floors
    approximate; it can sit below those floors by about C^2 (7% at
    (S, eta) = (1e3, 0.1)), and the xi^2 minimizer lies 5-15% lower in Q.
    """
    s, eta = (twice_spin(total_spin) / 2.0)[..., None], positive("eta", eta)[..., None]  # both before np.sqrt
    q_curv, _ = curvature_optimum(s)
    q_scatt = np.sqrt(3.0 * s * eta)
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


def _photon_budget(total_spin, params, shearing_q):
    """p0, the photons transmitted at S_z = 0 over the pulse, that gives Q = S p0 (2 Omega / kappa)^2."""
    return shearing_q / (total_spin * (2.0 * params["omega_shift_rad_s"] / params["kappa_rad_s"]) ** 2)


def kappa_t_required(total_spin, params, shearing_q, max_excited_pop):
    """Minimum kappa*t so the excited-state population stays below the cap.

    From epsilon * kappa * t = (kappa/g)^2 Q / (8 S): at fixed Q the pulse
    must stretch as (kappa/g)^2 / epsilon_max.  params is a cavity_params dict.
    """
    twice_spin(total_spin)
    nonnegative("shearing strength", shearing_q)
    population("max_excited_pop", max_excited_pop)
    return (params["kappa_rad_s"] / params["g_rad_s"]) ** 2 * shearing_q / (8.0 * total_spin * max_excited_pop)


def validate_regime(total_spin, params, pulse_time, shearing_q, max_excited_pop):
    """Validity checks of the dispersive, linearized, adiabatic treatment, as the report's "validity" dict.

    The pulse of length pulse_time (s) shears the spin S by Q = shearing_q,
    on the cavity of params (a cavity_params dict); max_excited_pop is the
    low-saturation limit (design --eps-max in a report), and the other
    limits, in thresholds, are the module constants.  Refuses a non-spin S,
    a pulse time that is not positive, a negative Q and a max_excited_pop
    outside (0, 1]; never raises for out-of-regime inputs: all failures are
    carried as flags, and all_ok says every flag passes.  excited_pop is
    epsilon = <c^dag c> g^2 / Delta^2 at S_z = 0; ratio_linearity is
    Omega sqrt(S/2) / kappa; identity_rel_err is how well epsilon kappa t =
    (kappa/g)^2 Q/(8S) closes numerically.
    """
    twice_spin(total_spin)
    positive("pulse_time", pulse_time)
    nonnegative("shearing strength", shearing_q)
    population("max_excited_pop", max_excited_pop)
    s = total_spin
    g, kappa, gamma, delta = params["g_rad_s"], params["kappa_rad_s"], params["gamma_rad_s"], params["delta_rad_s"]

    # epsilon at S_z = 0: intracavity <c^dag c> = |beta|^2, the drive rate 2 p0/(kappa t)
    drive_rate = 2.0 * _photon_budget(s, params, shearing_q) / (kappa * pulse_time)
    excited_pop = drive_rate * (g / delta) ** 2

    kappa_t = kappa * pulse_time
    ratio_linearity = params["omega_shift_rad_s"] * (s / 2.0) ** 0.5 / kappa
    detuning_margin = abs(delta) / max(kappa, gamma, g)

    # internal identity: epsilon kappa t = (kappa/g)^2 Q / (8S)
    lhs = excited_pop * kappa_t
    rhs = (kappa / g) ** 2 * shearing_q / (8.0 * s)
    scale = max(abs(lhs), abs(rhs))
    identity_rel_err = abs(lhs - rhs) / scale if scale > 0.0 else 0.0

    flags = {
        "excited_pop": excited_pop <= max_excited_pop,
        "kappa_t": kappa_t >= MIN_KAPPA_T,
        "linearity": ratio_linearity <= MAX_LINEARITY_RATIO,
        "detuning_margin": detuning_margin >= MIN_DETUNING_MARGIN,
    }
    return {
        "ratio_linearity": ratio_linearity,
        "excited_pop": excited_pop,
        "kappa_t": kappa_t,
        "detuning_margin": detuning_margin,
        "shearing_q": shearing_q,
        "flags": flags,
        "all_ok": all(flags.values()),
        "identity_rel_err": identity_rel_err,
        "thresholds": {"max_excited_pop": max_excited_pop, "min_kappa_t": MIN_KAPPA_T,
                       "max_linearity_ratio": MAX_LINEARITY_RATIO, "min_detuning_margin": MIN_DETUNING_MARGIN},
    }


def design_report(total_spin, params, pulse_time, max_excited_pop, q_target=None):
    """Limits, optima and validity of one parameter set, as the dict design writes.

    The spin S sits in the cavity of params, a cavity_params dict, and is
    sheared by a pulse of length pulse_time (s).  max_excited_pop is the
    low-saturation limit, epsilon <= max_excited_pop.  The recommended Q is
    min(full-curve minimizer, Q_curv); a q_target of zero is rejected ("no
    shearing requested"), any other positive value overrides the
    recommendation.  The report gives the raw sigma^2 there and the
    contrast-normalized xi^2 = sigma^2 / C^2, which the floors bound.
    """
    atom_count = int(twice_spin(total_spin))
    if q_target is not None and q_target <= 0.0:
        raise ValueError("no shearing requested: q_target must be positive")
    positive("pulse_time", pulse_time)
    population("max_excited_pop", max_excited_pop)
    s = float(total_spin)
    eta = params["eta"]

    q_curv, sigma_curv_sq = curvature_optimum(s)
    q_scatt, r_opt, sigma_scatt_sq = scattering_optimum(s, eta)
    _, regime, near_boundary = classify_regime(s, eta)

    if q_target is not None:
        q_rec = float(q_target)
    else:
        q_full, _ = full_curve_minimum(s, eta)
        q_rec = min(q_full, q_curv)
    sigma_rec = modified_min_variance(s, eta, q_rec)
    r_rec = q_rec / (4.0 * s * eta)
    contrast_sq = abs(raman_modified_moments(s, q_rec, r_rec).mean_sp) ** 2 / (s * s)

    kappa = params["kappa_rad_s"]
    kt_saturation = kappa_t_required(s, params, q_rec, max_excited_pop)
    kt_actual = kappa * pulse_time
    return {
        "q_curv": q_curv,
        "sigma_curv_sq": sigma_curv_sq,
        "q_scatt": q_scatt,
        "r_opt": r_opt,
        "sigma_scatt_sq": sigma_scatt_sq,
        "limiting_regime": regime,
        "near_boundary": near_boundary,
        "q_recommended": q_rec,
        "sigma_recommended_sq": sigma_rec,  # raw sigma^2, normalized to S/2
        "contrast_sq": contrast_sq,  # C^2 = |<S~_+>|^2 / S^2 at the recommended point
        "xi_recommended_sq": sigma_rec / contrast_sq,  # what the floors bound
        "r_recommended": r_rec,
        "spin_shortening_flag": r_rec > 0.1,  # r beyond ~0.1: neglected vector shortening suspect
        "p0_required": _photon_budget(s, params, q_rec),
        "t_constraints": {
            "kappa_t_actual": kt_actual,
            "kappa_t_min_resolve": MIN_KAPPA_T,
            "kappa_t_min_saturation": kt_saturation,
            "t_min_seconds": max(kt_saturation, MIN_KAPPA_T) / kappa,
            "satisfied": kt_actual >= max(kt_saturation, MIN_KAPPA_T),
        },
        "validity": validate_regime(s, params, pulse_time, q_rec, max_excited_pop),
        "provenance": {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "total_spin": s,
            "atom_count": atom_count,
            "eta": eta,
            "pulse_time_s": pulse_time,
            "max_excited_pop": max_excited_pop,
            "params": params,
        },
    }
