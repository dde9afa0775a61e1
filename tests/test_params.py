import math

import numpy as np
import pytest

from cavsqueeze import cli
from cavsqueeze.design import (classify_regime, curvature_optimum, design_report, full_curve_minimum,
                               kappa_t_required, scattering_optimum, validate_regime)
from cavsqueeze.dicke import css_amplitudes, css_support, m_values
from cavsqueeze.feedback import analytic_moments, correlation_integrals, g_factor, raman_modified_moments
from cavsqueeze.oracle import channel_moments, oracle_moments_sum
from cavsqueeze.params import TWO_PI, EnsembleSpec, cavity_params, load_config, nearest_spin, twice_spin
from cavsqueeze.raman import RamanProcess, fig2_curve, modified_min_variance


def test_ensemble_derived_quantities():
    spec = EnsembleSpec(total_spin=7.5)
    assert spec.atom_count == 15
    assert spec.dicke_dim == 16


@pytest.mark.parametrize("bad", [0.0, -1.0, 0.3, 1.25, 0.49, math.inf, math.nan])
def test_ensemble_rejects_non_half_integer(bad):
    with pytest.raises(ValueError):
        EnsembleSpec(total_spin=bad)


# g = kappa = Gamma = 2 pi rad/s and |Delta| = 10 Gamma: eta = 4, so S eta >= 2 and r_opt < 0.3 at every S used here
PARAMS = cavity_params({"g_hz": 1.0, "kappa_hz": 1.0, "gamma_hz": 1.0, "delta_over_gamma": 10.0})

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
    "kappa_t_required": lambda s: kappa_t_required(s, PARAMS, 1.0, 1e-5),
    "validate_regime": lambda s: validate_regime(s, PARAMS, 1.0, 1.0, 1e-5),
    "design_report": lambda s: design_report(s, PARAMS, 1.0, 1e-5),
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


Q = "shearing strength"
HZ = {"g_hz": 4e5, "kappa_hz": 1e6, "delta_hz": 3e9}  # a config's cavity, the detuning independent of Gamma

# every public function that takes Q, r, eta, a pulse time, g, kappa, Gamma or max_excited_pop (and design's optima,
# S), once per such input: (name in the message, rule, a valid value, call at that input).  design_report's q_target
# is left out: q_target <= 0 is its own refusal ("no shearing requested").  load_config's p0 has its own message
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
    "kappa_t_required(Q)": (Q, "nonnegative", 1.0, lambda x: kappa_t_required(100.0, PARAMS, x, 1e-5)),
    "kappa_t_required(max_excited_pop)": ("max_excited_pop", "population", 1e-5,
                                          lambda x: kappa_t_required(100.0, PARAMS, 1.0, x)),
    "validate_regime(pulse_time)": ("pulse_time", "positive", 1.0,
                                    lambda x: validate_regime(100.0, PARAMS, x, 1.0, 1e-5)),
    "validate_regime(Q)": (Q, "nonnegative", 1.0, lambda x: validate_regime(100.0, PARAMS, 1.0, x, 1e-5)),
    "validate_regime(max_excited_pop)": ("max_excited_pop", "population", 1e-5,
                                         lambda x: validate_regime(100.0, PARAMS, 1.0, 1.0, x)),
    "design_report(pulse_time)": ("pulse_time", "positive", 1e-3, lambda x: design_report(100.0, PARAMS, x, 1e-5)),
    "design_report(max_excited_pop)": ("max_excited_pop", "population", 1e-5,
                                       lambda x: design_report(100.0, PARAMS, 1e-3, x)),
    "oracle_moments_sum(Q)": (Q, "nonnegative", 1.0, lambda x: oracle_moments_sum(5.0, x)),
    "channel_moments(Q)": (Q, "nonnegative", 1.0, lambda x: channel_moments(5.0, x)),
    "cavity_params(g_hz)": ("g", "positive", 4e5, lambda x: cavity_params({**HZ, "g_hz": x})),
    "cavity_params(kappa_hz)": ("kappa", "positive", 1e6, lambda x: cavity_params({**HZ, "kappa_hz": x})),
    "cavity_params(gamma_hz)": ("gamma", "positive", 6e6, lambda x: cavity_params({**HZ, "gamma_hz": x})),
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
        call(good)  # a valid value passes, and so does 0 where the rule is nonnegative and 1 where it is population
        if rule != "positive":
            call(0.0 if rule == "nonnegative" else 1.0)
        # a population is positive and finite first, then at most 1
        message = f"{name} must be {'positive' if rule == 'population' else rule} and finite"
        bad = [-1.0, math.nan, math.inf] + ([0.0] if rule != "nonnegative" else [])
        accepted += [f"{label} at {x}" for x in bad if not _refuses_with(call, x, message)]
        if rule == "population":
            accepted += [f"{label} at {x}" for x in (1.0 + 2e-16, 2.0, 1e300)
                         if not _refuses_with(call, x, f"{name} must be at most 1")]
        if label in ARRAY_INPUTS:
            accepted += [f"{label} at [{good}, {x}]" for x in bad
                         if not _refuses_with(call, np.array([good, x]), message)]
    assert accepted == []


def test_detuning_is_refused_only_at_zero_or_non_finite():
    cavity = {"g_hz": 1.0, "kappa_hz": 1.0, "gamma_hz": 1.0}
    # a negative detuning keeps its sign, and Omega = 2 g^2 / |Delta|
    params = cavity_params({**cavity, "delta_hz": -10.0})
    assert params["delta_rad_s"] == -10.0 * TWO_PI
    assert params["omega_shift_rad_s"] == pytest.approx(0.2 * TWO_PI, rel=1e-15)
    for bad in (0.0, math.nan, math.inf, -math.inf):
        for key in ("delta_hz", "delta_over_gamma"):
            with pytest.raises(ValueError, match=r"^\|delta\| must be positive and finite$"):
                cavity_params({**cavity, key: bad})


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
    p = cavity_params({"g_hz": 2.0, "kappa_hz": 3.0, "gamma_hz": 5.0, "delta_hz": -7.0})
    g, kappa, gamma, delta = TWO_PI * 2.0, TWO_PI * 3.0, TWO_PI * 5.0, TWO_PI * -7.0
    assert p == {"g_rad_s": g, "kappa_rad_s": kappa, "gamma_rad_s": gamma, "delta_rad_s": delta,
                 "omega_shift_rad_s": 2.0 * g * g / -delta, "eta": 4.0 * g * g / (kappa * gamma)}


def test_cavity_params_validation():
    with pytest.raises(ValueError, match="^g must be positive and finite$"):
        cavity_params({"g_hz": 0.0, "kappa_hz": 1.0, "gamma_hz": 1.0, "delta_hz": 1.0})
    with pytest.raises(ValueError, match=r"^\|delta\| must be positive and finite$"):
        cavity_params({"g_hz": 1.0, "kappa_hz": 1.0, "gamma_hz": 1.0, "delta_hz": 0.0})
    # the detuning rule comes first, then g, kappa and Gamma, then |delta|
    with pytest.raises(ValueError, match="^give exactly one of delta_hz or delta_over_gamma$"):
        cavity_params({"g_hz": 0.0, "kappa_hz": 1.0})
    with pytest.raises(ValueError, match="^kappa must be positive and finite$"):
        cavity_params({"g_hz": 1.0, "kappa_hz": 0.0, "gamma_hz": 0.0, "delta_hz": 0.0})


def test_from_hz_applies_two_pi():
    p = cavity_params({"g_hz": 0.4e6, "kappa_hz": 1e6, "gamma_hz": 6.07e6, "delta_over_gamma": 500.0})
    assert p["g_rad_s"] == pytest.approx(TWO_PI * 0.4e6, rel=1e-15)
    assert p["kappa_rad_s"] == pytest.approx(TWO_PI * 1e6, rel=1e-15)
    assert p["delta_rad_s"] == pytest.approx(500.0 * TWO_PI * 6.07e6, rel=1e-15)
    with pytest.raises(ValueError):
        cavity_params({"g_hz": 1.0, "kappa_hz": 1.0, "delta_hz": 1.0, "delta_over_gamma": 2.0})
    with pytest.raises(ValueError):
        cavity_params({"g_hz": 1.0, "kappa_hz": 1.0})


def test_worked_example_eta():
    # S = 1e4, kappa = 2pi 1 MHz, g = 2pi 0.4 MHz, Delta/Gamma = 500, Gamma the default 2pi 6.07 MHz
    p = cavity_params({"g_hz": 0.4e6, "kappa_hz": 1e6, "delta_over_gamma": 500.0})
    assert p["eta"] == pytest.approx(4 * 0.4**2 / (1.0 * 6.07), rel=1e-12)


def test_drive_pulse_q_identity_exact():
    # the report's p0 gives Q = S p0 (2 Omega / kappa)^2, and its epsilon is the drive rate |beta|^2 = 2 p0 / (kappa t)
    # times (g / Delta)^2, with p0 = |beta|^2 kappa t / 2 closing
    params = cavity_params({"g_hz": 2.0, "kappa_hz": 11.0, "gamma_hz": 3.0, "delta_hz": 400.0})
    g, kappa, delta, omega = (params[k] for k in ("g_rad_s", "kappa_rad_s", "delta_rad_s", "omega_shift_rad_s"))
    report = design_report(100.0, params, 2.5, 1e-5, q_target=7.0)
    p0 = report["p0_required"]
    assert p0 == 7.0 / (100.0 * (2.0 * omega / kappa) ** 2)
    assert 100.0 * p0 * (2.0 * omega / kappa) ** 2 == pytest.approx(7.0, rel=1e-15)
    rate = 2.0 * p0 / (kappa * 2.5)
    assert report["validity"]["excited_pop"] == rate * (g / delta) ** 2
    assert rate * kappa * 2.5 / 2.0 == pytest.approx(p0, rel=1e-15)
    # Q reaches the validity checks as given, not recomputed from p0
    assert report["validity"]["shearing_q"] == report["q_recommended"] == 7.0


def test_drive_pulse_validation():
    # a pulse needs a positive time and a nonnegative Q; p0 is derived from Q, and a config's p0 is load_config's
    with pytest.raises(ValueError, match="^shearing strength must be nonnegative and finite$"):
        validate_regime(1.0, PARAMS, 1.0, -1.0, 1e-5)
    with pytest.raises(ValueError, match="^pulse_time must be positive and finite$"):
        validate_regime(1.0, PARAMS, 0.0, 1.0, 1e-5)


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
    assert twice_spin(cfg["S"]) == 20000
    assert cavity_params(cfg)["kappa_rad_s"] == pytest.approx(TWO_PI * 1e6, rel=1e-15)
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
