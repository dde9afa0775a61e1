import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import complex_moment_reference, golden_section_min, rel_err

from cavsqueeze import design, feedback
from cavsqueeze.design import design_report, full_curve_minimum, operating_point
from cavsqueeze.feedback import min_variance, raman_modified_moments
from cavsqueeze.params import cavity_params, nearest_spin
from cavsqueeze.raman import fig2_curve, modified_min_variance

WORKED = dict(g_hz=0.4e6, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=500.0)


class TestGoldenSection:
    def test_quadratic(self):
        x, fx = golden_section_min(lambda x: (x - 3.7) ** 2 + 1.0, 0.0, 10.0)
        assert x == pytest.approx(3.7, abs=1e-7)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_cosine(self):
        x, _ = golden_section_min(math.cos, 2.0, 4.5)
        assert x == pytest.approx(math.pi, abs=1e-7)


def _curvature(s):
    """operating_point's (q_curv, sigma_curv_sq) at eta = 10, where r_opt < 0.3 (no warning) for every S >= 1/2."""
    point = operating_point(s, 10.0)
    return point["q_curv"], point["sigma_curv_sq"]


def _scattering(s, eta):
    """operating_point's (q_scatt, r_opt, sigma_scatt_sq)."""
    point = operating_point(s, eta)
    return point["q_scatt"], point["r_opt"], point["sigma_scatt_sq"]


def _regime(s, eta):
    """operating_point's (s_eta5, regime, near_boundary)."""
    point = operating_point(s, eta)
    return point["s_eta5"], point["regime"], point["near_boundary"]


class TestCurvatureOptimum:
    def test_closed_form_values_reference_spin(self):
        q_curv, sigma_curv = _curvature(1e4)
        assert q_curv == pytest.approx(56.968, rel=1e-4)
        assert sigma_curv == pytest.approx(0.021942, rel=1e-4)

    def test_matches_numerical_minimizer(self):
        # golden-section oracle on the two-term form
        for s in (100.0, 1e4, 1e6):
            q_curv, sigma_curv = _curvature(s)
            q_num, val_num = golden_section_min(
                lambda q: 1.0 / q + q**4 / (24.0 * s * s), 0.5 * q_curv, 2.0 * q_curv
            )
            assert rel_err(q_num, q_curv) < 1e-6
            assert rel_err(val_num, sigma_curv) < 1e-6

    def test_algebraic_identity(self):
        q_curv, sigma_curv = _curvature(777.0)
        assert sigma_curv == pytest.approx(1.25 / q_curv, rel=1e-12)

    def test_refuses_only_nonpositive_spin(self):
        # no S >= 1 rule of its own: S = 1/2 gets the closed form, as in fig2's curvature column
        for s in (0.0, -1.0, np.array([100.0, 0.0])):
            with pytest.raises(ValueError, match="positive"):
                _curvature(s)
        q_curv, sigma_curv = _curvature(0.5)
        assert q_curv == pytest.approx(6.0 ** 0.2 * 0.5 ** 0.4, rel=1e-15)
        assert sigma_curv == pytest.approx(1.25 * 6.0 ** (-0.2) * 0.5 ** (-0.4), rel=1e-15)


class TestScatteringOptimum:
    def test_reference_values(self):
        q_scatt, r_opt, sigma_sq = _scattering(1e4, 0.1)
        assert q_scatt == pytest.approx(54.772, rel=1e-4)
        assert r_opt == pytest.approx(0.013693, rel=1e-4)
        assert sigma_sq == pytest.approx(0.036515, rel=1e-4)

    def test_identity_q_equals_4_s_eta_r(self):
        for s, eta in [(1e4, 0.1), (100.0, 2.0), (1e6, 1e-3)]:
            q_scatt, r_opt, _ = _scattering(s, eta)
            assert rel_err(q_scatt, 4.0 * s * eta * r_opt) < 1e-12

    def test_unbounded_improvement(self):
        _, _, big = _scattering(1e3, 0.1)
        _, _, small = _scattering(1e12, 0.1)
        assert small < 1e-3 * big

    def test_warns_when_r_opt_large(self):
        with pytest.warns(RuntimeWarning, match="r_opt"):
            operating_point(10.0, 0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            operating_point(10.0, 0.0)


class TestClassifyRegime:
    def test_reference_points(self):
        assert operating_point(1e4, 0.001)["regime"] == "scattering"
        assert operating_point(1e4, 1.0)["regime"] == "curvature"

    def test_boundary_convention(self):
        s = 1e4
        eta_boundary = s ** (-0.2)
        s_eta5, regime, near_boundary = _regime(s, eta_boundary)
        assert s_eta5 == pytest.approx(1.0, rel=1e-10)
        assert regime == "curvature"
        assert near_boundary

    def test_boundary_rounding_tolerance_width(self):
        # eta = S**-0.2 puts S eta^5 at or a few eps below 1: always curvature
        for s in (3.0, 316.2277660168379, 1e4, 1e5, 7.7e6, 1e9):
            assert operating_point(s, s ** (-0.2))["regime"] == "curvature", s
        # the two boundary points of the default sweep grid before its S is rounded to spins
        s_grid = np.geomspace(1e2, 1e6, 9)
        eta_grid = np.geomspace(1e-4, 10.0, 11)
        for s, eta in ((s_grid[1], eta_grid[7]), (s_grid[6], eta_grid[6])):
            assert operating_point(s, eta)["regime"] == "curvature", (s, eta)
        # the slack is rounding-sized, not a band: at most ~64 eps
        eps = np.finfo(float).eps
        for deficit in (1e-9, 128.0 * eps):
            with pytest.warns(RuntimeWarning, match="r_opt"):  # S eta ~ 1 puts r_opt at ~0.43
                s_eta5, regime, _ = _regime(1.0, (1.0 - deficit) ** 0.2)
            assert s_eta5 < 1.0 - 0.75 * deficit
            assert regime == "scattering", deficit

    def test_agrees_with_direct_floor_comparison(self):
        # outside a factor-3 band in eta around the S eta^5 = 1 boundary the
        # rule must agree with comparing the two floors directly
        s, eta = (g.ravel() for g in np.meshgrid(np.geomspace(1e2, 1e6, 13), np.geomspace(1e-4, 10.0, 13)))
        with pytest.warns(RuntimeWarning, match="r_opt"):  # the small-S eta corner
            point = operating_point(s, eta)
        sigma_curv, sigma_scatt = point["sigma_curv_sq"], point["sigma_scatt_sq"]
        regime, near_boundary = point["regime"], point["near_boundary"]
        direct = np.where(sigma_curv >= sigma_scatt, "curvature", "scattering")
        total = agree = banded = 0
        for i in range(s.size):
            total += 1
            if regime[i] == direct[i]:
                agree += 1
            elif near_boundary[i]:
                banded += 1  # logged, not failed
            else:
                raise AssertionError(f"disagree outside band: S={s[i]}, eta={eta[i]}")
        assert (agree + banded) / total == 1.0
        assert agree / total >= 0.95


# the default sweep grid: 9 x 11 (S, eta) points, flattened, S rounded to the nearest half-integer
SWEEP_GRID = tuple(g.ravel() for g in np.meshgrid(np.rint(2.0 * np.geomspace(1e2, 1e6, 9)) / 2.0,
                                                  np.geomspace(1e-4, 10.0, 11), indexing="ij"))


def _domain_edge(s, eta, margin=0.0):
    """Q at which Q_eff / S = 2 eta (1 - e^{-2r}), r = Q / (4 S eta), reaches (1 - margin) pi/2; inf if never."""
    reach = (1.0 - margin) * math.pi / (4.0 * eta)
    return -2.0 * s * eta * math.log1p(-reach) if reach < 1.0 else math.inf


def _search_bracket(s, eta):
    """The Q bracket documented in full_curve_minimum."""
    q_curv, _ = _curvature(s)
    q_scatt = math.sqrt(3.0 * s * eta)
    return 0.05 * min(q_curv, q_scatt), min(4.0 * max(q_curv, q_scatt), _domain_edge(s, eta, 1e-12))


def _xi_sq(s, eta, q):
    """Contrast-normalized squeezing xi^2 = sigma_min^2 / C^2 at shearing q."""
    moments = raman_modified_moments(s, q, q / (4.0 * s * eta))
    contrast = abs(moments.mean_sp) / s
    return min_variance(moments) / contrast ** 2


class TestFullCurveMinimum:
    def test_floors_respected_where_asymptotics_hold(self):
        # the closed-form floors are large-S limits of xi^2 = sigma^2/C^2 (the
        # raw sigma^2 sits lower by ~C^2): check the xi^2 minimum against them
        # only where the optimum Q is large enough (Q* >= 15) for the
        # expansions to apply
        for s in np.geomspace(1e2, 1e6, 5):
            for eta in np.geomspace(1e-4, 10.0, 6):
                q_curv, sigma_curv = _curvature(s)
                q_scatt = math.sqrt(3.0 * s * eta)
                sigma_scatt = 2.0 / q_scatt
                floor = max(sigma_curv, sigma_scatt)
                binding_q = q_curv if sigma_curv >= sigma_scatt else q_scatt
                if binding_q < 15.0:
                    continue
                q_full, _ = full_curve_minimum(s, eta)
                q_lo, q_hi = 0.5 * q_full, 1.5 * q_full
                q_xi, xi_min = golden_section_min(lambda q: _xi_sq(s, eta, q), q_lo, q_hi)
                # an interior minimum: the bracket cannot hide a lower value
                assert q_lo < q_xi < q_hi, (s, eta)
                assert xi_min < min(_xi_sq(s, eta, q_lo), _xi_sq(s, eta, q_hi)), (s, eta)
                assert xi_min >= floor * (1.0 - 0.05), (s, eta)

    def test_array_call_equals_scalar_calls(self):
        # every rescan narrows each element's own bracket elementwise, so an
        # element of an array call takes exactly the grids of its scalar run
        s = np.array([1e2, 3e3, 1e5])[:, None]
        eta = np.array([1e-3, 0.1, 10.0])[None, :]
        q_batch, sigma_batch = full_curve_minimum(s, eta)
        assert q_batch.shape == sigma_batch.shape == (3, 3)
        for i, j in np.ndindex(q_batch.shape):
            assert (q_batch[i, j], sigma_batch[i, j]) == full_curve_minimum(s[i, 0], eta[0, j]), (i, j)

    def test_at_most_five_curve_calls(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return modified_min_variance(*args)

        monkeypatch.setattr(design, "modified_min_variance", counted)
        full_curve_minimum(1e4, 0.1)
        assert 0 < len(calls) <= 5
        calls.clear()
        full_curve_minimum(*SWEEP_GRID)
        assert 0 < len(calls) <= 5

    def test_no_higher_than_golden_section_on_the_scan_bracket(self):
        # reference: the 64-point scan of the documented bracket, then the
        # scalar golden section on the two scan steps around its best point
        pairs = [(1e2, 0.05), (1e3, 0.1), (1e4, 0.1), (3e4, 2.0), (2e5, 1e-3), (1e6, 0.1), (1e6, 7.0)]
        for s, eta in [*zip(*SWEEP_GRID), *pairs]:
            lo, hi = _search_bracket(s, eta)
            grid = np.geomspace(lo, hi, 64)
            best = int(np.argmin(modified_min_variance(s, eta, grid)))
            _, sigma_ref = golden_section_min(lambda q: modified_min_variance(s, eta, q),
                                              grid[max(best - 1, 0)], grid[min(best + 1, 63)])
            q_full, sigma_full = full_curve_minimum(s, eta)
            assert modified_min_variance(s, eta, q_full) == sigma_full, (s, eta)
            assert sigma_full <= (1.0 + 1e-9) * sigma_ref, (s, eta)

    def test_sweep_minima_are_local_minima_on_the_bracket(self):
        # f(q_full (1 +- 1e-3)), clamped to the bracket, is no lower (up to
        # 1e-9 relative, the benchmark's sweep rule), and no minimum sits on
        # a bracket edge
        edges = []
        for s, eta, q, sigma in zip(*SWEEP_GRID, *full_curve_minimum(*SWEEP_GRID)):
            lo, hi = _search_bracket(s, eta)
            assert lo <= q <= hi, (s, eta)
            for edge, neighbour in ((lo, q * (1.0 - 1e-3)), (hi, q * (1.0 + 1e-3))):
                f1 = modified_min_variance(s, eta, min(max(neighbour, lo), hi))
                assert f1 >= sigma * (1.0 - 1e-9), (s, eta, neighbour)
                if abs(q - edge) <= 1e-12 * edge:
                    edges.append((s, eta))
        assert edges == []

    def test_within_1e9_of_a_dense_scan(self):
        # seeded random half-integer S >= 3/2 and S eta in [1e-3, 1e5] (eta <= 10), scanned over
        # (0, 1.4 S], and S = 1/2 and 1 at eta from 1e-3 to 10, scanned up to just inside the
        # G-factor domain edge (or 100 S where eta <= pi/4 leaves every Q in the domain): no
        # 200,000-point log scan finds a value 1e-9 below the minimum, down to the small-S eta
        # corner where the minimiser falls far below Q = 1
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(12):
            s = max(round(2.0 * math.exp(rng.uniform(math.log(1.5), math.log(1e6)))) / 2.0, 1.5)
            eta = min(math.exp(rng.uniform(math.log(1e-3), math.log(1e5))) / s, 10.0)
            cases.append((s, eta, 1.4 * s))
        cases += [(s, eta, min(_domain_edge(s, eta, 1e-9), 100.0 * s))
                  for s in (0.5, 1.0) for eta in (1e-3, 0.3, 1.0, 3.0, 10.0)]
        for s, eta, top in cases:
            scan = np.min(modified_min_variance(s, eta, np.geomspace(1e-6, top, 200_000)))
            q_full, sigma_full = full_curve_minimum(s, eta)
            assert sigma_full <= scan * (1.0 + 1e-9), (s, eta)
            if s == 0.5 and eta >= 3.0:
                # the curve falls all the way to the domain edge
                assert q_full == pytest.approx(_domain_edge(s, eta), rel=1e-9), (s, eta)

    def test_asymptotic_location_agreement(self):
        # full-curve minimum vs asymptotic Q_scatt at the reference point
        q_full, _ = full_curve_minimum(1e4, 0.1)
        q_scatt = math.sqrt(3.0 * 1e4 * 0.1)
        assert abs(q_full - q_scatt) / q_scatt <= 0.15


# the default sweep grid's 99 points, and a fig2 file's 3 x 200 curve
SWEEP_S, SWEEP_ETA = (g.ravel() for g in np.meshgrid(nearest_spin(np.geomspace(1e2, 1e6, 9)),
                                                     np.geomspace(1e-4, 10.0, 11), indexing="ij"))


def _traced_peak(call):
    """tracemalloc's peak over one call, after one untraced call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda: full_curve_minimum(SWEEP_S, SWEEP_ETA),
    lambda: fig2_curve(1e4, [0.01, 0.1, 1.0], np.geomspace(1.0, 1000.0, 200))], ids=["sweep", "fig2"])
def test_the_closed_forms_peak_no_higher_than_the_complex_exponential_forms(call, monkeypatch):
    peak = _traced_peak(call)
    # the same call through the complex-exponential body, in this process
    monkeypatch.setattr(feedback, "_moment_set", lambda two_s, q, r: complex_moment_reference(two_s / 2.0, q, r))
    bound = _traced_peak(call)
    assert peak <= bound, (peak, bound)


class TestDesignReport:
    def _system(self, s=1e4):
        return s, cavity_params(WORKED)

    def test_worked_example(self):
        s, params = self._system()
        report = design_report(s, params, pulse_time=400e-6, max_excited_pop=1e-5)
        # recommended shearing close to 50 for these parameters
        assert report["q_recommended"] == pytest.approx(50.0, rel=0.15)
        # saturation bound: kappa t around 400 at eps <= 1e-5 and Q = 50
        kt = report["t_constraints"]["kappa_t_min_saturation"]
        kt_at_50 = kt * 50.0 / report["q_recommended"]
        assert kt_at_50 == pytest.approx(400.0, rel=0.10)
        assert report["limiting_regime"] == "scattering"
        assert not report["spin_shortening_flag"]
        # p0 round-trips through Q = S p0 (2 Omega/kappa)^2
        q_back = s * report["p0_required"] * (2.0 * params["omega_shift_rad_s"] / params["kappa_rad_s"]) ** 2
        assert rel_err(q_back, report["q_recommended"]) < 1e-12

    def test_rejects_zero_shearing_target(self):
        s, params = self._system()
        with pytest.raises(ValueError, match="no shearing requested"):
            design_report(s, params, 1e-4, 1e-5, q_target=0.0)

    def test_explicit_target_used(self):
        s, params = self._system()
        report = design_report(s, params, 1e-4, 1e-5, q_target=20.0)
        assert report["q_recommended"] == 20.0
        assert report["r_recommended"] == pytest.approx(
            20.0 / (4.0 * 1e4 * params["eta"]), rel=1e-12)

    def test_report_serializes_with_provenance(self):
        s, params = self._system()
        payload = design_report(s, params, 400e-6, 1e-5)
        text = json.dumps(payload)  # must be JSON-clean
        assert "schema_version" in payload["provenance"]
        assert payload["provenance"]["params"] == params
        assert payload["validity"]["flags"]
        assert payload["validity"]["kappa_t"] == pytest.approx(
            params["kappa_rad_s"] * 400e-6, rel=1e-12)

    def test_xi_squared_respects_binding_floor(self):
        # at (S, eta) = (1e3, 0.1) the raw sigma^2 falls under the scattering
        # floor; the report's xi^2 = sigma^2 / C^2, which the floors bound, does not
        params = cavity_params(dict(g_hz=1e5, kappa_hz=1e5, gamma_hz=4e6, delta_over_gamma=500.0))
        assert params["eta"] == pytest.approx(0.1, rel=1e-12)
        report = design_report(1e3, params, 400e-6, 1e-5)
        floor = max(report["sigma_scatt_sq"], report["sigma_curv_sq"])
        assert report["sigma_recommended_sq"] < floor
        assert report["xi_recommended_sq"] >= floor
        assert 0.0 < report["contrast_sq"] < 1.0
        assert report["xi_recommended_sq"] * report["contrast_sq"] == pytest.approx(
            report["sigma_recommended_sq"], rel=1e-14)

    @pytest.mark.parametrize("q_target, evaluations", [(20.0, 1), (None, 6)])
    def test_the_recommended_point_is_evaluated_once(self, monkeypatch, q_target, evaluations):
        # the closed-form body runs once an evaluation: full_curve_minimum's five rounds, then one MomentSet at
        # the recommended Q for both sigma^2 and C^2
        calls = []
        body = feedback._moment_set
        monkeypatch.setattr(feedback, "_moment_set", lambda *args: calls.append(args) or body(*args))
        s, params = self._system()
        design_report(s, params, 400e-6, 1e-5, q_target=q_target)
        assert len(calls) == evaluations

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(twice_s=st.integers(20, 2_000_000), g_hz=st.floats(1e4, 2e6), kappa_hz=st.floats(1e5, 1e7),
           delta_over_gamma=st.floats(20.0, 5e3), fraction=st.none() | st.floats(0.05, 2.0))
    def test_sigma_and_contrast_are_the_closed_forms_at_the_recommended_point(self, twice_s, g_hz, kappa_hz,
                                                                               delta_over_gamma, fraction):
        # S eta > 3 keeps r_opt under its 0.3 warning; a Q at most 2 Q_curv keeps Q_eff / S <= Q / S < pi / 2
        s = twice_s / 2.0
        params = cavity_params(dict(g_hz=g_hz, kappa_hz=kappa_hz, gamma_hz=6.07e6, delta_over_gamma=delta_over_gamma))
        eta = params["eta"]
        assume(s * eta > 3.0)
        q_target = None if fraction is None else fraction * min(_curvature(s)[0], math.sqrt(3.0 * s * eta))
        report = design_report(s, params, 400e-6, 1e-5, q_target=q_target)
        q_rec, r_rec = report["q_recommended"], report["r_recommended"]
        assert report["sigma_recommended_sq"].hex() == modified_min_variance(s, eta, q_rec).hex()
        contrast_sq = abs(raman_modified_moments(s, q_rec, r_rec).mean_sp) ** 2 / (s * s)
        assert report["contrast_sq"].hex() == contrast_sq.hex()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(twice_s=st.integers(20, 2_000_000), g_hz=st.floats(1e4, 2e6), kappa_hz=st.floats(1e5, 1e7),
           gamma_hz=st.floats(1e6, 3e7), delta_over_gamma=st.floats(20.0, 5e3), pulse_time=st.floats(1e-6, 1e-2),
           fraction=st.none() | st.floats(0.05, 2.0))
    def test_photons_scattered_per_atom_are_twice_r(self, twice_s, g_hz, kappa_hz, gamma_hz, delta_over_gamma,
                                                     pulse_time, fraction):
        # epsilon Gamma t = Q / (2 S eta) = 2 r by algebra; which of the two is the model's photon count per atom
        # is still open (ROADMAP item 24).  S eta > 3 and Q <= 2 min(Q_curv, Q_scatt) as above
        s = twice_s / 2.0
        params = cavity_params(dict(g_hz=g_hz, kappa_hz=kappa_hz, gamma_hz=gamma_hz, delta_over_gamma=delta_over_gamma))
        assume(s * params["eta"] > 3.0)
        q_target = None if fraction is None else fraction * min(_curvature(s)[0], math.sqrt(3.0 * s * params["eta"]))
        report = design_report(s, params, pulse_time, 1e-5, q_target=q_target)
        inputs = report["provenance"]
        scattered = report["validity"]["excited_pop"] * inputs["params"]["gamma_rad_s"] * inputs["pulse_time_s"]
        assert scattered == pytest.approx(2.0 * report["r_recommended"], rel=1e-12)

    def test_regime_flags_surface_not_raise(self):
        # hopeless parameters must produce a report with failing flags
        params = cavity_params(dict(g_hz=1e3, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=5.0))
        with pytest.warns(RuntimeWarning, match="not small"):
            report = design_report(10.0, params, 1e-9, 1e-5)
        assert not report["validity"]["all_ok"]

    def test_shortening_flag_fires(self):
        # weak collective cooperativity pushes the optimum r beyond 0.1
        params = cavity_params(dict(g_hz=0.05e6, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=500.0))
        with pytest.warns(RuntimeWarning):
            report = design_report(100.0, params, 400e-6, 1e-5)
        assert report["spin_shortening_flag"]
