import math

import numpy as np
import pytest

from cavsqueeze import cli
from cavsqueeze.design import (classify_regime, curvature_optimum, design_report, full_curve_minimum,
                               kappa_t_required, scattering_optimum, validate_regime)
from cavsqueeze.dicke import css_amplitudes, css_support, m_values
from cavsqueeze.feedback import analytic_moments, correlation_integrals, g_factor, raman_modified_moments
from cavsqueeze.oracle import channel_moments, oracle_moments_sum
from cavsqueeze.params import (TWO_PI, CavityAtomParams, DrivePulse, EnsembleSpec, load_config, nearest_spin,
                               system_from_config, twice_spin)
from cavsqueeze.raman import RamanProcess, fig2_curve, modified_min_variance


def test_ensemble_derived_quantities():
    spec = EnsembleSpec(total_spin=7.5)
    assert spec.atom_count == 15
    assert spec.dicke_dim == 16


@pytest.mark.parametrize("bad", [0.0, -1.0, 0.3, 1.25, 0.49, math.inf, math.nan])
def test_ensemble_rejects_non_half_integer(bad):
    with pytest.raises(ValueError):
        EnsembleSpec(total_spin=bad)


# every public function that reads S, called at S; the array-valued ones also take S as an array
READS_S = {
    "twice_spin": lambda s: twice_spin(s),
    "EnsembleSpec": lambda s: EnsembleSpec(total_spin=s),
    "g_factor": lambda s: g_factor(s, 0.1),
    "raman_modified_moments": lambda s: raman_modified_moments(s, 1.0, 0.1),
    "analytic_moments": lambda s: analytic_moments(s, 1.0),
    "modified_min_variance": lambda s: modified_min_variance(s, 0.1, 1.0),
    "full_curve_minimum": lambda s: full_curve_minimum(s, 0.1),
    "fig2_curve": lambda s: fig2_curve(s, 0.1, [1.0, 2.0]),
    "oracle_moments_sum": lambda s: oracle_moments_sum(s, 1.0),
    "channel_moments": lambda s: channel_moments(s, 1.0),
    "m_values": lambda s: m_values(s),
    "css_amplitudes": lambda s: css_amplitudes(s),
    "css_support": lambda s: css_support(s),
}
ARRAY_VALUED = ("twice_spin", "g_factor", "raman_modified_moments", "analytic_moments", "modified_min_variance",
                "full_curve_minimum")


def _refuses(call, s):
    try:
        call(s)
    except ValueError as exc:
        return str(exc) == "total spin must be a positive half-integer, got 2.3"
    return False


def test_every_function_that_reads_s_refuses_a_non_spin():
    for call in READS_S.values():
        call(2.5)  # a spin passes
    accepted = [name for name, call in READS_S.items() if not _refuses(call, 2.3)]
    accepted += [f"{name}([1.5, 2.3])" for name in ARRAY_VALUED if not _refuses(READS_S[name], np.array([1.5, 2.3]))]
    assert accepted == []


SPEC = EnsembleSpec(total_spin=100.0)
PARAMS = CavityAtomParams(g=1.0, kappa=1.0, gamma=1.0, delta=10.0)
DRIVE = DrivePulse.from_photon_budget(1.0, 1.0, SPEC, PARAMS)
Q = "shearing strength"

# every public function that takes Q, r, eta, p0, a pulse time, g, kappa, Gamma or max_excited_pop (and design's
# optima, S), once per such input: (name in the message, rule, a valid value, call at that input).  design_report's
# q_target is left out: q_target <= 0 is its own refusal ("no shearing requested")
TAKES_AN_INPUT = {
    "raman_modified_moments(Q)": (Q, "nonnegative", 1.0, lambda x: raman_modified_moments(5.0, x, 0.1)),
    "raman_modified_moments(r)": ("r", "nonnegative", 0.1, lambda x: raman_modified_moments(5.0, 1.0, x)),
    "analytic_moments(Q)": (Q, "nonnegative", 1.0, lambda x: analytic_moments(5.0, x)),
    "correlation_integrals(r)": ("r", "nonnegative", 0.1, lambda x: correlation_integrals(x)),
    "modified_min_variance(eta)": ("eta", "positive", 0.1, lambda x: modified_min_variance(10.0, x, 1.0)),
    "modified_min_variance(Q)": (Q, "positive", 1.0, lambda x: modified_min_variance(10.0, 0.1, x)),
    "fig2_curve(eta)": ("eta", "positive", 0.1, lambda x: fig2_curve(10.0, x, [1.0, 2.0])),
    "fig2_curve(Q)": (Q, "positive", 2.0, lambda x: fig2_curve(10.0, 0.1, [1.0, x])),
    "RamanProcess(r)": ("r", "nonnegative", 0.1, lambda x: RamanProcess(r=x, n_atoms=10)),
    "curvature_optimum(S)": ("S", "positive", 1e4, lambda x: curvature_optimum(x)),
    "scattering_optimum(S)": ("S", "positive", 1e4, lambda x: scattering_optimum(x, 0.1)),
    "scattering_optimum(eta)": ("eta", "positive", 0.1, lambda x: scattering_optimum(1e4, x)),
    "classify_regime(S)": ("S", "positive", 1e4, lambda x: classify_regime(x, 0.1)),
    "classify_regime(eta)": ("eta", "positive", 0.1, lambda x: classify_regime(1e4, x)),
    "full_curve_minimum(eta)": ("eta", "positive", 0.1, lambda x: full_curve_minimum(10.0, x)),
    "kappa_t_required(Q)": (Q, "nonnegative", 1.0, lambda x: kappa_t_required(SPEC, PARAMS, x, 1e-5)),
    "kappa_t_required(max_excited_pop)": ("max_excited_pop", "positive", 1e-5,
                                          lambda x: kappa_t_required(SPEC, PARAMS, 1.0, x)),
    "validate_regime(max_excited_pop)": ("max_excited_pop", "positive", 1e-5,
                                         lambda x: validate_regime(SPEC, PARAMS, DRIVE, x)),
    "design_report(pulse_time)": ("pulse_time", "positive", 1e-3, lambda x: design_report(SPEC, PARAMS, x, 1e-5)),
    "design_report(max_excited_pop)": ("max_excited_pop", "positive", 1e-5,
                                       lambda x: design_report(SPEC, PARAMS, 1e-3, x)),
    "oracle_moments_sum(Q)": (Q, "nonnegative", 1.0, lambda x: oracle_moments_sum(5.0, x)),
    "channel_moments(Q)": (Q, "nonnegative", 1.0, lambda x: channel_moments(5.0, x)),
    "CavityAtomParams(g)": ("g", "positive", 1.0, lambda x: CavityAtomParams(g=x, kappa=1.0, gamma=1.0, delta=10.0)),
    "CavityAtomParams(kappa)": ("kappa", "positive", 1.0,
                                lambda x: CavityAtomParams(g=1.0, kappa=x, gamma=1.0, delta=10.0)),
    "CavityAtomParams(gamma)": ("gamma", "positive", 1.0,
                                lambda x: CavityAtomParams(g=1.0, kappa=1.0, gamma=x, delta=10.0)),
    "CavityAtomParams.from_hz(g_hz)": ("g", "positive", 4e5,
                                       lambda x: CavityAtomParams.from_hz(x, 1e6, delta_over_gamma=500.0)),
    "CavityAtomParams.from_hz(kappa_hz)": ("kappa", "positive", 1e6,
                                           lambda x: CavityAtomParams.from_hz(4e5, x, delta_over_gamma=500.0)),
    "CavityAtomParams.from_hz(gamma_hz)": ("gamma", "positive", 6e6,
                                           lambda x: CavityAtomParams.from_hz(4e5, 1e6, x, delta_hz=3e9)),
    "DrivePulse(p0)": ("p0", "nonnegative", 1.0,
                       lambda x: DrivePulse(p0=x, pulse_time=1.0, drive_rate=1.0, shearing_q=1.0)),
    "DrivePulse(pulse_time)": ("pulse_time", "positive", 1.0,
                               lambda x: DrivePulse(p0=1.0, pulse_time=x, drive_rate=1.0, shearing_q=1.0)),
    "DrivePulse(shearing_q)": (Q, "nonnegative", 1.0,
                               lambda x: DrivePulse(p0=1.0, pulse_time=1.0, drive_rate=1.0, shearing_q=x)),
    "DrivePulse.from_photon_budget(p0)": ("p0", "nonnegative", 1.0,
                                          lambda x: DrivePulse.from_photon_budget(x, 1.0, SPEC, PARAMS)),
    "DrivePulse.from_photon_budget(pulse_time)": ("pulse_time", "positive", 1.0,
                                                  lambda x: DrivePulse.from_photon_budget(1.0, x, SPEC, PARAMS)),
    "DrivePulse.from_shearing(Q)": (Q, "nonnegative", 1.0, lambda x: DrivePulse.from_shearing(x, 1.0, SPEC, PARAMS)),
    "DrivePulse.from_shearing(pulse_time)": ("pulse_time", "positive", 1.0,
                                             lambda x: DrivePulse.from_shearing(1.0, x, SPEC, PARAMS)),
}
ARRAY_INPUTS = ("raman_modified_moments(Q)", "raman_modified_moments(r)", "analytic_moments(Q)",
                "correlation_integrals(r)", "modified_min_variance(eta)", "modified_min_variance(Q)",
                "curvature_optimum(S)", "scattering_optimum(S)", "scattering_optimum(eta)", "classify_regime(S)",
                "classify_regime(eta)", "full_curve_minimum(eta)", "oracle_moments_sum(Q)")


def _refuses_with(call, x, message):
    try:
        call(x)
    except Exception as exc:  # a RuntimeWarning made an error counts as let through
        return isinstance(exc, ValueError) and str(exc) == message
    return False


def test_every_function_that_takes_a_physical_input_refuses_it_out_of_domain():
    accepted = []
    for label, (name, rule, good, call) in TAKES_AN_INPUT.items():
        call(good)  # a valid value passes, and so does 0 where the rule is nonnegative
        if rule == "nonnegative":
            call(0.0)
        message = f"{name} must be {rule} and finite"
        bad = [-1.0, math.nan, math.inf] + ([0.0] if rule == "positive" else [])
        accepted += [f"{label} at {x}" for x in bad if not _refuses_with(call, x, message)]
        if label in ARRAY_INPUTS:
            accepted += [f"{label} at [{good}, {x}]" for x in bad
                         if not _refuses_with(call, np.array([good, x]), message)]
    assert accepted == []


def test_detuning_is_refused_only_at_zero_or_non_finite():
    assert CavityAtomParams(g=1.0, kappa=1.0, gamma=1.0, delta=-10.0).omega_shift == 0.2
    for bad in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^\|delta\| must be positive and finite$"):
            CavityAtomParams(g=1.0, kappa=1.0, gamma=1.0, delta=bad)


def test_twice_spin_is_exact_and_elementwise():
    assert twice_spin(0.5) == 1.0
    assert twice_spin(np.array([[0.5], [1e5 + 0.5]])).tolist() == [[1.0], [200001.0]]
    for bad in (0.0, -0.5, 0.25, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive half-integer"):
            twice_spin(np.array([1.0, bad]))


def test_nearest_spin_rounds_to_half_integers():
    assert nearest_spin(np.array([0.3, 316.2277660168379, 3162.2776601683795])).tolist() == [0.5, 316.0, 3162.5]
    with pytest.raises(ValueError, match="positive half-integer, got 0.0"):
        nearest_spin(np.array([0.2, 1.0]))


def test_cavity_params_derived_exact():
    p = CavityAtomParams(g=2.0, kappa=3.0, gamma=5.0, delta=-7.0)
    assert p.omega_shift == 2.0 * 2.0**2 / 7.0
    assert p.eta == 4.0 * 2.0**2 / (3.0 * 5.0)


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityAtomParams(g=0.0, kappa=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        CavityAtomParams(g=1.0, kappa=1.0, gamma=1.0, delta=0.0)


def test_from_hz_applies_two_pi():
    p = CavityAtomParams.from_hz(g_hz=0.4e6, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=500.0)
    assert p.g == pytest.approx(TWO_PI * 0.4e6, rel=1e-15)
    assert p.kappa == pytest.approx(TWO_PI * 1e6, rel=1e-15)
    assert p.delta == pytest.approx(500.0 * TWO_PI * 6.07e6, rel=1e-15)
    with pytest.raises(ValueError):
        CavityAtomParams.from_hz(g_hz=1.0, kappa_hz=1.0, delta_hz=1.0, delta_over_gamma=2.0)
    with pytest.raises(ValueError):
        CavityAtomParams.from_hz(g_hz=1.0, kappa_hz=1.0)


def test_worked_example_eta():
    # S = 1e4, kappa = 2pi 1 MHz, g = 2pi 0.4 MHz, Delta/Gamma = 500
    p = CavityAtomParams.from_hz(g_hz=0.4e6, kappa_hz=1e6, delta_over_gamma=500.0)
    assert p.eta == pytest.approx(4 * 0.4**2 / (1.0 * 6.07), rel=1e-12)


def test_drive_pulse_q_identity_exact():
    spec = EnsembleSpec(total_spin=100.0)
    params = CavityAtomParams(g=2.0, kappa=11.0, gamma=3.0, delta=400.0)
    drive = DrivePulse.from_photon_budget(p0=7.0, pulse_time=2.5, ensemble=spec, params=params)
    q_expected = 100.0 * 7.0 * (2.0 * params.omega_shift / params.kappa) ** 2
    assert drive.shearing_q == q_expected
    assert drive.drive_rate == 2.0 * 7.0 / (params.kappa * 2.5)
    # p0 = |beta|^2 kappa t / 2 closes
    assert drive.drive_rate * params.kappa * drive.pulse_time / 2.0 == pytest.approx(7.0, rel=1e-15)
    # round trip through the target-Q constructor
    again = DrivePulse.from_shearing(drive.shearing_q, 2.5, spec, params)
    assert again.p0 == pytest.approx(7.0, rel=1e-12)


def test_drive_pulse_validation():
    spec = EnsembleSpec(total_spin=1.0)
    params = CavityAtomParams(g=1.0, kappa=1.0, gamma=1.0, delta=10.0)
    with pytest.raises(ValueError):
        DrivePulse.from_photon_budget(-1.0, 1.0, spec, params)
    with pytest.raises(ValueError):
        DrivePulse.from_photon_budget(1.0, 0.0, spec, params)


def test_config_round_trip(tmp_path):
    cfg_text = """
# worked example
S = 10000
g_hz = 0.4e6
kappa_hz = 1e6          # cavity linewidth
gamma_hz = 6.07e6
delta_over_gamma = 500
p0 = 100
t_s = 100e-6
"""
    path = tmp_path / "sys.cfg"
    path.write_text(cfg_text)
    cfg = load_config(path)
    assert cfg["S"] == 10000.0
    ensemble, params = system_from_config(cfg)
    assert ensemble.atom_count == 20000
    assert params.kappa == pytest.approx(TWO_PI * 1e6, rel=1e-15)
    assert cfg["p0"] == 100.0
    assert cfg["t_s"] == 100e-6


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("S = 1\n", "missing required keys"),
        ("nonsense_key = 3\nS=1\ng_hz=1\nkappa_hz=1\np0=1\nt_s=1\n", "unknown key"),
        ("S one\n", "expected 'key = value'"),
        ("S = abc\n", "not a number"),
        ("S=1\ng_hz=1\nkappa_hz=1\np0=-1\nt_s=1\n", "p0 must be nonnegative"),
    ],
)
def test_config_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_config(path)


def test_config_refuses_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("S = 100\ng_hz = 4e5\nkappa_hz = 1e6\ndelta_over_gamma = 500.0\nt_s = 4e-4\nS = 1000\n")
    message = f"{path}:6: key 'S' given twice (first on line 1)"
    with pytest.raises(ValueError) as caught:
        load_config(path)
    assert str(caught.value) == message
    out = tmp_path / "out"
    assert cli.run(["design", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"design: {message}\n"
    assert not out.exists()
