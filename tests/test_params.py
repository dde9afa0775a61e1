import math

import pytest

from cavsqueeze.params import TWO_PI, CavityAtomParams, DrivePulse, EnsembleSpec, load_config, system_from_config


def test_ensemble_derived_quantities():
    spec = EnsembleSpec(total_spin=7.5)
    assert spec.atom_count == 15
    assert spec.dicke_dim == 16


@pytest.mark.parametrize("bad", [0.0, -1.0, 0.3, 1.25, 0.49, math.inf, math.nan])
def test_ensemble_rejects_non_half_integer(bad):
    with pytest.raises(ValueError):
        EnsembleSpec(total_spin=bad)


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
    ensemble, params, drive = system_from_config(cfg)
    assert ensemble.atom_count == 20000
    assert params.kappa == pytest.approx(TWO_PI * 1e6, rel=1e-15)
    assert drive.p0 == 100.0
    assert drive.pulse_time == 100e-6


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("S = 1\n", "missing required keys"),
        ("nonsense_key = 3\nS=1\ng_hz=1\nkappa_hz=1\np0=1\nt_s=1\n", "unknown key"),
        ("S one\n", "expected 'key = value'"),
        ("S = abc\n", "not a number"),
    ],
)
def test_config_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_config(path)
