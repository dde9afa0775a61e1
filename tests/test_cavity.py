import json

import numpy as np
import pytest

from cavsqueeze.design import design_report
from cavsqueeze.params import cavity_params

WORKED = dict(g_hz=0.4e6, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=500.0)
EPS_MAX = 1e-5


def cavity_field_photon_number(params, p0, sz_value):
    """Mean photon number transmitted over the pulse at fixed S_z: p0 L(S_z).

    The drive sits half a linewidth above the bare cavity, whose resonance
    the atoms pull to omega_c + Omega S_z, so the Lorentzian transmission
    factor is L(S_z) = (kappa^2/2) / ((kappa/2)^2 + (Omega S_z - kappa/2)^2),
    normalized so L(0) = 1 and d L/d S_z |_0 = 2 Omega / kappa.
    """
    kappa = params["kappa_rad_s"]
    detune = params["omega_shift_rad_s"] * sz_value - kappa / 2.0
    return p0 * (kappa ** 2 / 2.0) / ((kappa / 2.0) ** 2 + detune ** 2)


def _worked_report(s=1e4, p0=100.0, t=400e-6, **hz):
    """design_report of a pulse that transmits p0 photons at S_z = 0: Q = S p0 (2 Omega / kappa)^2."""
    params = cavity_params({**WORKED, **hz})
    q = s * p0 * (2.0 * params["omega_shift_rad_s"] / params["kappa_rad_s"]) ** 2
    return design_report(s, params, t, EPS_MAX, q_target=q)


def test_photon_number_at_sz_zero_is_p0():
    params = cavity_params(WORKED)
    assert cavity_field_photon_number(params, 100.0, 0.0) == pytest.approx(100.0, rel=1e-15)


def test_photon_number_slope_matches_finite_differences():
    # oracle: central differences on the exact Lorentzian
    params, p0 = cavity_params(WORKED), 100.0
    analytic = p0 * 2.0 * params["omega_shift_rad_s"] / params["kappa_rad_s"]
    h = 1e-3  # in units of S_z; curvature scale is kappa/Omega ~ 1e4
    fd = (cavity_field_photon_number(params, p0, h)
          - cavity_field_photon_number(params, p0, -h)) / (2.0 * h)
    assert fd == pytest.approx(analytic, rel=1e-6)


def test_photon_number_monotone_up_to_peak():
    # transmission peaks at S_z = kappa/(2 Omega); strictly monotone before it
    params, p0 = cavity_params(WORKED), 100.0
    sz_peak = params["kappa_rad_s"] / (2.0 * params["omega_shift_rad_s"])
    grid = np.linspace(-0.5 * sz_peak, 0.9 * sz_peak, 101)
    vals = [cavity_field_photon_number(params, p0, sz) for sz in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # and it is not an even function
    assert cavity_field_photon_number(params, p0, 100.0) != pytest.approx(
        cavity_field_photon_number(params, p0, -100.0), rel=1e-6
    )


def test_worked_example_linearity_ratio():
    # Omega sqrt(S/2)/kappa quoted as 7e-3 for the standard parameters
    report = _worked_report()["validity"]
    assert report["ratio_linearity"] == pytest.approx(7e-3, rel=0.15)


def test_excited_pop_identity():
    # eps * kappa * t = (kappa/g)^2 Q / (8S) as an exact identity: the report's epsilon and kappa t against the params
    params = cavity_params(WORKED)
    for p0, t in [(10.0, 1e-4), (1234.5, 7e-4), (0.3, 3e-5)]:
        report = _worked_report(p0=p0, t=t)
        s, q = report["provenance"]["total_spin"], report["q_recommended"]
        lhs = report["validity"]["excited_pop"] * report["validity"]["kappa_t"]
        rhs = (params["kappa_rad_s"] / params["g_rad_s"]) ** 2 * q / (8.0 * s)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kappa_t_requirement_worked_example():
    # eps <= 1e-5 at Q = 50 forces kappa t around 400
    params = cavity_params(WORKED)
    kt = design_report(1e4, params, 400e-6, 1e-5, q_target=50.0)["t_constraints"]["kappa_t_min_saturation"]
    assert kt == pytest.approx(400.0, rel=0.1)
    with pytest.raises(ValueError):
        design_report(1e4, params, 400e-6, 0.0, q_target=50.0)


def test_kappa_t_requirement_scales_as_inverse_g_squared():
    params = cavity_params(WORKED)
    weak = cavity_params({**WORKED, "g_hz": WORKED["g_hz"] / 10.0})
    strong_kt, weak_kt = (design_report(1e4, p, 400e-6, 1e-5, q_target=50.0)["t_constraints"]["kappa_t_min_saturation"]
                          for p in (params, weak))
    assert weak_kt == pytest.approx(100.0 * strong_kt, rel=1e-12)


def test_flags_fire_under_tight_thresholds():
    # every condition broken at the default limits: |Delta| = 2 Gamma (margin 2,
    # Omega sqrt(S/2) / kappa ~ 0.19 at S = 100), kappa t ~ 0.06 and epsilon ~ 35
    report = _worked_report(s=100.0, p0=1e3, t=1e-8, delta_over_gamma=2.0)["validity"]
    assert not any(report["flags"].values())
    assert not report["all_ok"]
    assert report["flags"]["kappa_t"] is False
    assert report["thresholds"] == {"max_excited_pop": 1e-5, "min_kappa_t": 10.0,
                                    "max_linearity_ratio": 0.1, "min_detuning_margin": 10.0}


def test_report_serializable():
    report = _worked_report()
    # each number once: no key repeats another key, a constant, a flag's condition or an algebraic identity
    assert set(report["validity"]) == {"ratio_linearity", "excited_pop", "kappa_t", "detuning_margin",
                                       "flags", "all_ok", "thresholds"}
    assert set(report["t_constraints"]) == {"kappa_t_min_saturation", "t_min_seconds"}
    assert set(report["provenance"]) == {"schema_version", "tool_version", "total_spin", "pulse_time_s", "params"}
    json.dumps(report, allow_nan=False)
