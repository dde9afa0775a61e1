"""Operating-regime validation of the dispersive cavity readout.

The drive, at omega = omega_c + kappa/2 (half a linewidth above the bare
cavity), sees a resonance pulled by the atomic index of refraction to
omega_c + Omega S_z, so the transmitted photon number has the relative
slope 2 Omega / kappa at S_z = 0.  The treatment is linear in S_z and
adiabatic in the cavity field; validate_regime reports how well a drive
pulse satisfies those conditions.
"""

from dataclasses import dataclass

from .params import RegimeThresholds


def kappa_t_required(ensemble, params, shearing_q, max_excited_pop):
    """Minimum kappa*t so the excited-state population stays below the cap.

    From epsilon * kappa * t = (kappa/g)^2 Q / (8 S): at fixed Q the pulse
    must stretch as (kappa/g)^2 / epsilon_max.
    """
    if max_excited_pop <= 0.0:
        raise ValueError("max_excited_pop must be positive")
    return (params.kappa / params.g) ** 2 * shearing_q / (8.0 * ensemble.total_spin * max_excited_pop)


@dataclass(frozen=True)
class RegimeReport:
    """Validity checks of the dispersive, linearized, adiabatic treatment.

    excited_pop is epsilon = <c^dag c> g^2 / Delta^2 at S_z = 0;
    ratio_linearity is Omega sqrt(S/2) / kappa; identity_rel_err records how
    well epsilon kappa t = (kappa/g)^2 Q/(8S) closes numerically.
    """

    ratio_linearity: float
    excited_pop: float
    kappa_t: float
    detuning_margin: float
    shearing_q: float
    flags: dict
    all_ok: bool  # every flag passes
    identity_rel_err: float
    thresholds: RegimeThresholds


def validate_regime(ensemble, params, drive, thresholds=None):
    """Evaluate the low-saturation / adiabaticity / linearity conditions.

    Never raises for out-of-regime inputs; all failures are carried as flags.
    """
    thr = thresholds if thresholds is not None else RegimeThresholds()
    s = ensemble.total_spin

    # epsilon at S_z = 0: intracavity <c^dag c> = |beta|^2 = 2 p0/(kappa t),
    # which is exactly the stored drive_rate
    excited_pop = drive.drive_rate * (params.g / params.delta) ** 2

    kappa_t = params.kappa * drive.pulse_time
    ratio_linearity = params.omega_shift * (s / 2.0) ** 0.5 / params.kappa
    detuning_margin = abs(params.delta) / max(params.kappa, params.gamma, params.g)

    # internal identity: epsilon kappa t = (kappa/g)^2 Q / (8S)
    lhs = excited_pop * kappa_t
    rhs = (params.kappa / params.g) ** 2 * drive.shearing_q / (8.0 * s)
    scale = max(abs(lhs), abs(rhs))
    identity_rel_err = abs(lhs - rhs) / scale if scale > 0.0 else 0.0

    flags = {
        "excited_pop": excited_pop <= thr.max_excited_pop,
        "kappa_t": kappa_t >= thr.min_kappa_t,
        "linearity": ratio_linearity <= thr.max_linearity_ratio,
        "detuning_margin": detuning_margin >= thr.min_detuning_margin,
    }
    return RegimeReport(
        ratio_linearity=ratio_linearity,
        excited_pop=excited_pop,
        kappa_t=kappa_t,
        detuning_margin=detuning_margin,
        shearing_q=drive.shearing_q,
        flags=flags,
        all_ok=all(flags.values()),
        identity_rel_err=identity_rel_err,
        thresholds=thr,
    )
