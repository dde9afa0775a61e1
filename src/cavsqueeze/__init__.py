"""Cavity-feedback spin squeezing toolkit.

Closed-form predictions of the sheared uncertainty ellipse of a collective
spin driven through a detuned optical resonator, an exact Dicke-basis oracle
that validates them by brute force, a telegraph-jump Monte Carlo model of
Raman-scattering degradation, and an operating-point calculator, all exposed
through the ``cavsqueeze`` command line tool.
"""

__version__ = "0.1.0"

from .params import (
    TWO_PI,
    DEFAULT_GAMMA,
    EnsembleSpec,
    CavityAtomParams,
    DrivePulse,
    RegimeThresholds,
    load_config,
    system_from_config,
)
from .dicke import DickeState, SpinOperators, build_operators, make_css
from .cavity import RegimeReport, cavity_field_photon_number, kappa_t_required, validate_regime
from .feedback import (
    CoherenceCoefficient,
    MomentSet,
    RotatedVariance,
    analytic_moments,
    coherence_coefficient,
    curvature_corrected_min,
    extremal_variances,
    g_factor,
    large_s_variance,
    rotated_variance,
)
from .oracle import (
    apply_feedback_channel,
    brute_force_min_variance,
    channel_moments,
    oracle_moments_sum,
)
from .raman import (
    RamanProcess,
    TrajectoryStats,
    correlation_integrals,
    fig2_curve,
    modified_min_variance,
    raman_modified_moments,
    sample_trajectories,
)
from .design import (
    DesignTargets,
    SqueezeReport,
    classify_regime,
    curvature_optimum,
    design_report,
    full_curve_minimum,
    scattering_optimum,
)
