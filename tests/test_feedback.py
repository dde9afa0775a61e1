import cmath
import math

import numpy as np
import pytest

from conftest import floored_rel_err, golden_section_min, rel_err

from cavsqueeze.feedback import analytic_moments, g_factor, min_variance
from cavsqueeze.oracle import oracle_moments_sum
from cavsqueeze.params import cavity_params


def coherence_coefficient(n, sz, params, drive_rate):
    """Evolution rate f_n(S_z) = n Omega |beta|^2 (1 + n(i-1) Omega/kappa + 2(Omega/kappa) S_z) (rad/s).

    The rate of the n-th spin coherence <S_+^n>, to lowest order in
    (Omega/kappa)|S_z|: Re f_n accumulates phase, Im f_n damps.
    """
    omega = params["omega_shift_rad_s"]
    ratio = omega / params["kappa_rad_s"]
    return n * omega * drive_rate * (1.0 + n * (1j - 1.0) * ratio + 2.0 * ratio * sz)


def large_s_variance(total_spin, q):
    """Large-ensemble limit (S/2)(1 + Q + Q^2): CSS + shot noise + feedback."""
    return (total_spin / 2.0) * (1.0 + q + q * q)


def rotated_variance(moments, alpha):
    """sigma^2(alpha) = (V+ - V- cos 2alpha - W sin 2alpha) / 2 in raw spin units; period pi in alpha."""
    v_plus = moments.var_y + moments.var_z
    v_minus = moments.var_y - moments.var_z
    return 0.5 * (v_plus - v_minus * math.cos(2.0 * alpha) - moments.cov_w * math.sin(2.0 * alpha))


def curvature_corrected_min(total_spin, q):
    """Two-term normalized minimum 1/Q + Q^4/(24 S^2): shot noise plus the leading curvature penalty."""
    if q <= 0.0:
        raise ValueError("shearing strength must be positive")
    return 1.0 / q + q ** 4 / (24.0 * total_spin * total_spin)


class TestGFactor:
    def test_unity_at_zero(self):
        for s in (0.5, 1.0, 17.5, 1e4):
            assert g_factor(s, 0.0) == 1.0

    def test_spin_half_identity(self):
        for u in np.linspace(-0.3, 0.3, 7):
            assert g_factor(0.5, u) == 1.0

    def test_log_space_matches_direct_power(self):
        # S = 1e4, u = 50: direct evaluation is still stable here
        s, u = 1e4, 50.0
        direct = math.cos(u / s) ** (round(2 * s) - 1)
        assert g_factor(s, u) == pytest.approx(direct, rel=1e-12)

    def test_value_in_unit_interval_on_domain(self):
        for s in (1.0, 10.0, 1000.0):
            for u in np.linspace(0.0, 1.5 * s * 0.99, 9):
                val = g_factor(s, u)
                # deep in the domain the power can underflow to exactly 0
                assert 0.0 <= val <= 1.0
                if (2 * s - 1) * abs(math.log(max(math.cos(u / s), 1e-300))) < 700:
                    assert val > 0.0

    def test_signed_power_beyond_branch_at_any_spin(self):
        # one rule for every S: past |u/S| = pi/2, the signed integer power
        for s in (50.5, 100.0, 1e3):
            for x in (1.6, 1.7, 2.0, 2.5, 3.0, 4.0, -2.2):
                u = x * s
                direct = math.cos(u / s) ** (round(2 * s) - 1)
                got = g_factor(s, u)
                assert math.isfinite(got)
                if abs(direct) > 1e-300:
                    assert got == pytest.approx(direct, rel=1e-12), (s, x)
                else:  # the power underflows
                    assert abs(got) <= 1e-300, (s, x)

    def test_small_spin_signed_power_beyond_branch(self):
        assert g_factor(2.0, 5.0) == pytest.approx(math.cos(2.5) ** 3, rel=1e-14)


class TestCoherenceCoefficient:
    WORKED = dict(g_hz=0.4e6, kappa_hz=1e6, gamma_hz=6.07e6, delta_over_gamma=500.0)

    def _system(self, s=1e4, p0=100.0, t=4e-4):
        """(S, params, t, drive rate |beta|^2 = 2 p0 / (kappa t), Q = S p0 (2 Omega / kappa)^2)."""
        params = cavity_params(self.WORKED)
        kappa = params["kappa_rad_s"]
        q = s * p0 * (2.0 * params["omega_shift_rad_s"] / kappa) ** 2
        return s, params, t, 2.0 * p0 / (kappa * t), q

    def test_vanishes_with_coupling(self):
        _, params, _, rate, _ = self._system()
        weak = cavity_params({**self.WORKED, "delta_over_gamma": 500.0 * 1e12})  # Omega -> 0
        f = coherence_coefficient(1, 0.0, weak, rate)
        assert abs(f) < 1e-9 * abs(coherence_coefficient(1, 0.0, params, rate))

    def test_damping_structure_at_sz_zero(self):
        _, params, _, rate, _ = self._system()
        for n in (1, 2, 3):
            f = coherence_coefficient(n, 0.0, params, rate)
            expected_im = n * n * params["omega_shift_rad_s"] ** 2 * rate / params["kappa_rad_s"]
            assert f.imag == pytest.approx(expected_im, rel=1e-12)

    def test_accumulated_second_coherence_damping_is_q_over_s(self):
        # exp(i f_2(0) t - 2 i f_1(0) t) must equal exp(-(1+i) Q/S)
        s, params, t, rate, q = self._system()
        f1 = coherence_coefficient(1, 0.0, params, rate)
        f2 = coherence_coefficient(2, 0.0, params, rate)
        accumulated = cmath.exp(1j * (f2 - 2.0 * f1) * t)
        expected = cmath.exp(-(1.0 + 1j) * q / s)
        assert abs(accumulated - expected) < 1e-12 * abs(expected)
        assert abs(accumulated) == pytest.approx(math.exp(-q / s), rel=1e-12)


class TestAnalyticMoments:
    def test_css_limit(self):
        for s in (0.5, 1.0, 5.0, 300.0):
            m = analytic_moments(s, 0.0)
            assert m.var_y == s / 2.0
            assert m.cov_w == 0.0
            assert m.var_z == s / 2.0
            assert m.mean_sp == pytest.approx(s, abs=0.0)

    def test_matches_oracle_small_grid(self):
        for s in (1.0, 5.0, 50.0):
            for q in (0.1, 1.0, 5.0):
                closed = analytic_moments(s, q)
                oracle = oracle_moments_sum(s, q)
                assert rel_err(closed.var_y, oracle.var_y) < 1e-10, (s, q)
                assert rel_err(closed.cov_w, oracle.cov_w) < 1e-10, (s, q)
                assert rel_err(closed.mean_sp, oracle.mean_sp) < 1e-10, (s, q)

    def test_matches_oracle_beyond_branch(self):
        # past Q/S = pi/2 the closed forms stay the exact sums at every S; the
        # floor S/2 absorbs the sums' absolute rounding where cov_w is tiny
        for s in (50.5, 60.0, 100.0, 200.0):
            q = s * np.array([1.7, 2.0, 2.5])
            closed = analytic_moments(s, q)
            for i, qi in enumerate(q.tolist()):
                oracle = oracle_moments_sum(s, qi)
                assert floored_rel_err(closed.var_y[i], oracle.var_y, s / 2.0) < 1e-11, (s, qi)
                assert floored_rel_err(closed.cov_w[i], oracle.cov_w, s / 2.0) < 1e-11, (s, qi)

    def test_large_s_shot_noise_plus_feedback(self):
        # S = 1e4, Q = 10: (S/2)(1 + Q + Q^2) within 1%
        m = analytic_moments(1e4, 10.0)
        assert m.var_y == pytest.approx(large_s_variance(1e4, 10.0), rel=0.01)

    def test_second_moment_nondecreasing_in_q(self):
        # <S~_y^2> = Delta S~_y^2 + <S~_y>^2
        for s in (0.5, 2.0, 10.0, 200.0):
            qs = np.linspace(0.0, s, 40)
            m = analytic_moments(s, qs)
            vals = (m.var_y + m.mean_sp.imag ** 2).tolist()
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), s

    def test_variance_nondecreasing_in_q_moderate_spin(self):
        # with the mean rotation subtracted, monotonicity holds for S >= 5
        for s in (5.0, 20.0, 100.0):
            qs = np.linspace(0.0, s, 60)
            vals = [analytic_moments(s, q).var_y for q in qs]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), s

    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            analytic_moments(10.0, -1.0)


class TestLargeSVariance:
    def test_css_and_balance_points(self):
        assert large_s_variance(123.0, 0.0) == 123.0 / 2.0
        # Q = 1: shot-noise and feedback terms equal, total 3S/2
        assert large_s_variance(8.0, 1.0) == 3.0 * 8.0 / 2.0

    def test_agrees_with_exact_form_at_huge_s(self):
        s, q = 1e6, 3.0
        exact = analytic_moments(s, q).var_y
        assert rel_err(large_s_variance(s, q), exact) < 1e-4


def max_variance(moments):
    """Maximum of sigma^2(alpha) over alpha, normalized to S/2: V+ less the minimum, since the two axes sum to V+."""
    return (moments.var_y + moments.var_z) / (moments.total_spin / 2.0) - min_variance(moments)


class TestRotatedVariance:
    def test_extrema_positions(self):
        # the minimum sits at alpha_0 = atan2(W, V-)/2 (tan 2 alpha_0 = W / V-), the maximum pi/2 away
        m = analytic_moments(40.0, 3.0)
        half = m.total_spin / 2.0
        alpha0 = 0.5 * math.atan2(m.cov_w, m.var_y - m.var_z)
        assert rotated_variance(m, alpha0) == pytest.approx(min_variance(m) * half, rel=1e-12)
        assert rotated_variance(m, alpha0 + math.pi / 2) == pytest.approx(max_variance(m) * half, rel=1e-12)
        # period pi
        assert rotated_variance(m, 0.3) == pytest.approx(rotated_variance(m, 0.3 + math.pi), rel=1e-12)

    def test_isotropic_css(self):
        m = analytic_moments(25.0, 0.0)
        for alpha in np.linspace(0.0, math.pi, 17):
            assert rotated_variance(m, alpha) == pytest.approx(25.0 / 2.0, rel=1e-12)
        assert min_variance(m) == pytest.approx(1.0, rel=1e-12)

    def test_grid_never_beats_minimum(self):
        # a dense alpha grid never goes under the minimum, and its best point, at most half a
        # step d from alpha_0, lies above it by at most (max - min) sin^2 d
        for s, q in [(50.0, 2.0), (1e4, 20.0), (7.5, 0.5)]:
            m = analytic_moments(s, q)
            half = s / 2.0
            grid = np.linspace(0.0, math.pi, 1000, endpoint=False)
            vals = np.array([rotated_variance(m, a) for a in grid]) / half
            assert np.all(vals >= min_variance(m) - 1e-12)
            slack = (max_variance(m) - min_variance(m)) * math.sin(math.pi / 2000.0) ** 2
            assert np.min(vals) <= min_variance(m) + slack + 1e-12


class TestAsymptoticExtremes:
    def test_moderate_squeezing_scalings(self):
        # S=1e4, Q=20: sigma_min^2 ~ 1/Q and sigma_max^2 ~ Q^2 within 15%
        m = analytic_moments(1e4, 20.0)
        assert min_variance(m) == pytest.approx(1.0 / 20.0, rel=0.15)
        assert max_variance(m) == pytest.approx(400.0, rel=0.15)
        # uncertainty product ~ sqrt(Q) within 10%
        product = math.sqrt(min_variance(m) * max_variance(m))
        assert product == pytest.approx(math.sqrt(20.0), rel=0.10)

    def test_heisenberg_bound_on_oracle_states(self):
        # Robertson-Schroedinger for S~_y, S_z with [S~_y, S_z] = i S~_x and <S_z> = 0:
        # var_y var_z - (cov_w / 2)^2 >= (<S~_x> / 2)^2, <S~_x> = Re <S~_+>
        for s in (2.0, 10.0, 60.0):
            for q in (0.2, 1.0, 0.3 * s):
                for m in (oracle_moments_sum(s, q), analytic_moments(s, q)):
                    det = m.var_y * m.var_z - (m.cov_w / 2.0) ** 2
                    assert det >= (m.mean_sp.real / 2.0) ** 2 * (1 - 1e-12), (s, q)


class TestCurvatureCorrectedMin:
    def test_closed_form_value_at_optimum(self):
        for s in (100.0, 1e4, 1e6):
            q_curv = 6.0**0.2 * s**0.4
            sigma_curv = 1.25 * 6.0 ** (-0.2) * s ** (-0.4)
            assert curvature_corrected_min(s, q_curv) == pytest.approx(sigma_curv, rel=1e-12)
            # the two published forms satisfy sigma = (5/4)/Q_curv
            assert sigma_curv == pytest.approx(1.25 / q_curv, rel=1e-12)

    def test_shot_noise_divergence_at_small_q(self):
        assert curvature_corrected_min(1e4, 1e-6) > 1e5
        with pytest.raises(ValueError):
            curvature_corrected_min(1e4, 0.0)

    def test_two_term_minimizer_matches_closed_form(self):
        s = 1e4
        q_star, val = golden_section_min(lambda q: curvature_corrected_min(s, q), 1.0, 500.0)
        assert rel_err(q_star, 6.0**0.2 * s**0.4) < 1e-6
        assert rel_err(val, 1.25 * 6.0 ** (-0.2) * s ** (-0.4)) < 1e-6

    def test_full_pipeline_minimizer_location(self):
        # golden-section on the exact moments pipeline: the Q location lands
        # within 5% of 6^{1/5} S^{2/5} (the raw value sits lower by ~C^2;
        # tests/test_design.py::TestFullCurveMinimum::
        # test_floors_respected_where_asymptotics_hold checks the
        # contrast-normalized xi^2 against the floors)
        s = 1e4

        def sigma_min(q):
            return min_variance(analytic_moments(s, q))

        q_star, _ = golden_section_min(sigma_min, 5.0, 500.0, tol=1e-10)
        assert rel_err(q_star, 6.0**0.2 * s**0.4) < 0.05


class TestResidualMeanRotation:
    def test_mean_rotates_by_q_over_2s(self):
        # the sheared mean picks up the half-step phase Q/(2S)
        s, q = 200.0, 4.0
        mean = analytic_moments(s, q).mean_sp
        assert cmath.phase(mean) == pytest.approx(q / (2.0 * s), rel=1e-12)

    def test_spin_half_pure_rotation(self):
        # a single spin-1/2 only precesses: |<S~_+>| stays 1/2
        for q in (0.3, 1.0, 2.0):
            m = analytic_moments(0.5, q)
            assert abs(m.mean_sp) == pytest.approx(0.5, rel=1e-14)
            assert m.var_y == pytest.approx(0.25 - 0.25 * math.sin(q) ** 2, rel=1e-12)
