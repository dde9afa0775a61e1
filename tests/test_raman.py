import math

import numpy as np
import pytest

from conftest import golden_section_min, lockstep_exact_reference, rel_err

from cavsqueeze import (
    RamanProcess,
    analytic_moments,
    correlation_integrals,
    extremal_variances,
    fig2_curve,
    full_curve_minimum,
    modified_min_variance,
    raman_modified_moments,
    sample_trajectories,
)
from cavsqueeze import raman


class TestCorrelationIntegrals:
    def test_no_scattering(self):
        assert correlation_integrals(0.0) == (1.0, 1.0)

    def test_complete_decorrelation(self):
        c_sq, c_fin = correlation_integrals(100.0)
        assert c_sq < 0.011
        assert c_fin < 0.006

    @pytest.mark.parametrize("r", [0.01, 0.1, 0.25, 0.5, 2.0, 8.0])
    def test_against_quadrature(self, r):
        # oracle: 40-point Gauss-Legendre quadrature of the exponential kernel;
        # v = u s maps the triangle 0 <= v <= u <= 1 onto the unit square,
        # where the integrand 2 u e^{-2 r u (1 - s)} is smooth
        x, w = np.polynomial.legendre.leggauss(40)
        x, w = (x + 1.0) / 2.0, w / 2.0
        u, s = x[:, None], x[None, :]
        c_sq_quad = np.sum(w[:, None] * w[None, :] * 2.0 * u * np.exp(-2.0 * r * u * (1.0 - s)))
        c_fin_quad = np.sum(w * np.exp(-2.0 * r * (1.0 - x)))
        c_sq, c_fin = correlation_integrals(r)
        assert rel_err(c_sq, c_sq_quad) < 1e-12
        assert rel_err(c_fin, c_fin_quad) < 1e-12

    def test_small_r_taylor(self):
        # leading orders: c_fin = 1 - r + ..., c_sq = 1 - 2r/3 + ...
        for r in (1e-9, 1e-7, 1e-5):
            c_sq, c_fin = correlation_integrals(r)
            assert (1.0 - c_fin) / r == pytest.approx(1.0, rel=1e-4)
            assert (1.0 - c_sq) / r == pytest.approx(2.0 / 3.0, rel=1e-4)

    def test_series_closed_form_crossover(self):
        # the series (a < 0.5) and closed form (a >= 0.5) must agree at the seam
        for r in (0.2499, 0.25, 0.2501):
            a = 2.0 * r
            closed_sq = 2.0 * (a - 1.0 + math.exp(-a)) / (a * a)
            closed_fin = (1.0 - math.exp(-a)) / a
            c_sq, c_fin = correlation_integrals(r)
            assert rel_err(c_sq, closed_sq) < 1e-13
            assert rel_err(c_fin, closed_fin) < 1e-13

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            correlation_integrals(-0.1)


class TestModifiedMoments:
    def test_continuous_at_zero_r(self):
        # r = 0 runs through the same series as small r > 0; the moments move
        # at first order in r (Q_eff = Q (1 - r + ...)), so r = 1e-14 must
        # agree with r = 0 to 1e-13
        for s, q in [(10.0, 2.0), (1e4, 40.0)]:
            at_zero = raman_modified_moments(s, q, 0.0)
            near_zero = raman_modified_moments(s, q, 1e-14)
            for name in ("var_y", "cov_w", "mean_sp", "mean_sp2"):
                assert rel_err(getattr(near_zero, name), getattr(at_zero, name)) < 1e-13, (s, q, name)

    def test_var_z_stationary(self):
        m = raman_modified_moments(100.0, 5.0, 0.3)
        assert m.var_z == 50.0

    def test_eq13_consistency_large_s(self):
        # plugging the correlation integrals into the ellipse minimum must
        # reproduce 1/Q + 4r/3 in the large-S, small-r, large-Q regime
        s = 1e10
        q = 1000.0
        r = 1e-3
        eta = q / (4.0 * s * r)
        full = modified_min_variance(s, eta, q)
        two_term = 1.0 / q + 4.0 * r / 3.0
        assert rel_err(full, two_term) < 2e-3

    def test_scattering_never_helps(self):
        for s in (100.0, 1e4):
            for q in (1.0, 10.0, 0.002 * s):
                base = extremal_variances(raman_modified_moments(s, q, 0.0)).sigma_min_sq
                for r in (0.01, 0.1, 0.5):
                    val = extremal_variances(raman_modified_moments(s, q, r)).sigma_min_sq
                    assert val >= base - 1e-12, (s, q, r)

    def test_monotone_in_r(self):
        s, q = 1e4, 30.0
        vals = [extremal_variances(raman_modified_moments(s, q, r)).sigma_min_sq
                for r in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            raman_modified_moments(10.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            raman_modified_moments(10.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            modified_min_variance(10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            modified_min_variance(10.0, 0.1, 0.0)


# Spins covering both power branches (direct up to 2S = 101, log space above)
# and half-integers; r straddles the series/closed-form seam at 2r = 0.5.
ARRAY_SPINS = np.array([0.5, 2.5, 50.0, 50.5, 1e4])
ARRAY_R = np.array([0.0, 1e-9, 0.1, 0.2499, 0.25, 0.2501, 0.7, 3.0])


class TestArrayCalls:
    def test_moments_equal_scalar_calls_bitwise(self):
        s = ARRAY_SPINS[:, None, None]
        q = np.array([0.0, 0.01, 0.2, 0.5, 1.2])[None, :, None] * np.maximum(s, 1.0)
        r = ARRAY_R[None, None, :]
        batch = raman_modified_moments(s, q, r)
        shape = np.broadcast_shapes(s.shape, q.shape, r.shape)
        for idx in np.ndindex(shape):
            one = raman_modified_moments(s[idx[0], 0, 0], q[idx[0], idx[1], 0], r[0, 0, idx[2]])
            for name in ("var_y", "cov_w", "mean_sp", "mean_sp2"):
                assert np.broadcast_to(getattr(batch, name), shape)[idx] == getattr(one, name), (idx, name)

    def test_min_variance_equals_scalar_calls_bitwise(self):
        # Q = 4 S eta r: each (S, Q) pairs with an eta putting r on the ARRAY_R grid
        s = ARRAY_SPINS[:, None]
        q = 0.3 * np.maximum(s, 1.0)
        eta = q / (4.0 * s * ARRAY_R[None, 1:])
        batch = modified_min_variance(s, eta, q)
        for i, j in np.ndindex(batch.shape):
            assert batch[i, j] == modified_min_variance(s[i, 0], eta[i, j], q[i, 0]), (i, j)

    def test_one_element_past_the_branch_raises(self):
        # S = 100: Q_eff / S = 2 > pi/2 in one element of the array
        with pytest.raises(ValueError, match="principal branch"):
            raman_modified_moments(100.0, np.array([10.0, 200.0, 20.0]), 0.0)
        with pytest.raises(ValueError, match="principal branch"):
            modified_min_variance(np.array([60.0, 100.0]), 1e3, np.array([10.0, 200.0]))
        # the direct-power branch (S <= 50) refuses the same domain
        with pytest.raises(ValueError, match="principal branch"):
            modified_min_variance(10.0, 100.0, np.array([1.0, 200.0]))


class TestModifiedMinimum:
    def test_optimum_near_50_for_reference_parameters(self):
        q_star, _ = full_curve_minimum(1e4, 0.1)
        assert q_star == pytest.approx(50.0, rel=0.15)

    def test_recovers_curvature_limit_at_large_eta(self):
        # eta -> infinity turns scattering off; the minimum must match the
        # no-scattering pipeline's own numerical optimum within 2%
        s = 1e4

        def no_scatter(q):
            return extremal_variances(analytic_moments(s, q)).sigma_min_sq

        q_ns, val_ns = golden_section_min(no_scatter, 5.0, 500.0)
        q_big_eta, val_big_eta = full_curve_minimum(s, 1e9)
        assert rel_err(val_big_eta, val_ns) < 0.02
        assert rel_err(q_big_eta, q_ns) < 0.02

    def test_two_term_numerical_minimizer(self):
        # derivative bisection on f(Q) = 1/Q + Q/(3 S eta): the argmin and
        # value must reproduce the closed forms to 1e-10
        for s_eta in (1e3, 3e4):
            f = lambda q: 1.0 / q + q / (3.0 * s_eta)
            fprime = lambda q: -1.0 / (q * q) + 1.0 / (3.0 * s_eta)
            lo, hi = 1e-3, 1e5
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if fprime(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            q_star = 0.5 * (lo + hi)
            assert rel_err(q_star, math.sqrt(3.0 * s_eta)) < 1e-10
            assert rel_err(f(q_star), 2.0 / math.sqrt(3.0 * s_eta)) < 1e-10

    def test_five_percent_band_in_deep_scattering_regime(self):
        # the two-term form is trustworthy once S*eta >> 1 (finite-Q
        # corrections ~1/Q*) and curvature is negligible (S eta^5 << 1)
        for s, eta in [(3e4, 0.01), (1e5, 0.02), (1e6, 0.003)]:
            assert s * eta >= 300.0 and s * eta**5 <= 1e-3
            q_star = math.sqrt(3.0 * s * eta)
            for q in np.linspace(0.8 * q_star, 1.2 * q_star, 5):
                r = q / (4.0 * s * eta)
                full = modified_min_variance(s, eta, q)
                two_term = 1.0 / q + q / (3.0 * s * eta)
                assert abs(full - two_term) / two_term <= 0.05, (s, eta, q)


class TestFig2Curve:
    def test_ideal_curve_is_inverse_q(self):
        rows = fig2_curve(1e4, 0.1, [100.0])
        q, sig, sig_curv, sig_ideal = rows[0]
        assert sig_ideal == 0.01

    def test_reference_columns(self):
        rows = fig2_curve(1e4, 0.1, np.geomspace(1.0, 1000.0, 50))
        sigma_curv = 1.25 * 6.0 ** (-0.2) * 1e4 ** (-0.4)
        assert all(r[2] == pytest.approx(sigma_curv, rel=1e-12) for r in rows)
        assert all(r[1] > 0.0 for r in rows)

    def test_minima_ordered_in_eta(self):
        grid = np.geomspace(1.0, 1000.0, 200)
        minima = []
        for eta in (0.001, 0.01, 0.1, 1.0):
            rows = fig2_curve(1e4, eta, grid)
            minima.append(min(r[1] for r in rows))
        assert minima == sorted(minima, reverse=True)


class TestRamanProcess:
    def test_flip_rate_identity(self):
        p = RamanProcess(r=0.25, pulse_time=2.0, n_atoms=100)
        assert p.flip_rate * p.pulse_time == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RamanProcess(r=-1.0, pulse_time=1.0, n_atoms=10)
        for r in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                RamanProcess(r=r, pulse_time=1.0, n_atoms=10)
        with pytest.raises(ValueError):
            RamanProcess(r=0.1, pulse_time=0.0, n_atoms=10)
        with pytest.raises(ValueError):
            RamanProcess(r=0.1, pulse_time=1.0, n_atoms=0)


class TestMonteCarlo:
    def _run(self, r=0.1, s=50.0, n_traj=4000, steps=4, seed=42, **kw):
        process = RamanProcess(r=r, pulse_time=1.0, n_atoms=round(2 * s))
        return sample_trajectories(process, s, n_traj, steps, seed=seed, **kw)

    def test_zero_rate_trajectories_constant(self):
        stats = self._run(r=0.0, n_traj=2000)
        # no flips: the lag correlation is exactly flat
        assert np.all(stats.corr == stats.corr[0])
        assert stats.cov_bar_final == pytest.approx(stats.mean_sz_bar_sq, rel=1e-12)
        # and the estimate sits on S/2 within errors
        assert abs(stats.mean_sz_bar_sq - 25.0) < 3.0 * stats.mean_sz_bar_sq_se

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    def test_correlation_matches_telegraph_kernel(self, mode):
        r = 0.1
        stats = self._run(r=r, n_traj=20000, mode=mode)
        for lag, c, se in zip(stats.lags, stats.corr, stats.corr_se):
            target = math.exp(-2.0 * r * lag)
            assert abs(c - target) <= 3.0 * max(se, 1e-12), (mode, lag)

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    def test_time_average_moments_match_integrals(self, mode):
        r, s = 0.2, 50.0
        stats = self._run(r=r, s=s, n_traj=20000, mode=mode)
        c_sq, c_fin = correlation_integrals(r)
        assert abs(stats.mean_sz_bar_sq - (s / 2.0) * c_sq) <= 3.0 * stats.mean_sz_bar_sq_se
        assert abs(stats.cov_bar_final - (s / 2.0) * c_fin) <= 3.0 * stats.cov_bar_final_se

    def test_deterministic_and_worker_independent(self):
        # streams are keyed by (seed, chunk), so the seed alone fixes the bits
        a = self._run(seed=7)
        b = self._run(seed=7)
        assert a.mean_sz_bar_sq == b.mean_sz_bar_sq
        assert a.cov_bar_final == b.cov_bar_final
        assert a.n_events == b.n_events
        assert np.array_equal(a.corr, b.corr)
        assert np.array_equal(a.corr_se, b.corr_se)
        d = self._run(seed=8)
        assert d.mean_sz_bar_sq != a.mean_sz_bar_sq

    @pytest.mark.parametrize("r, s, n_traj", [
        (0.1, 50.0, 513),  # the last chunk holds one trajectory
        (0.3, 2.5, 4000),  # half-integer spin: five atoms
        (0.05, 0.5, 4000),  # one atom: most trajectories of a chunk never jump
    ])
    def test_chunk_edge_cases_match_telegraph_kernel(self, r, s, n_traj):
        stats = self._run(r=r, s=s, n_traj=n_traj, seed=11)
        assert stats.n_trajectories == n_traj
        assert 0 < stats.n_events < 3.0 * r * round(2 * s) * n_traj
        for lag, c, se in zip(stats.lags, stats.corr, stats.corr_se):
            target = math.exp(-2.0 * r * lag)
            assert abs(c - target) <= 3.0 * max(se, 1e-12), (s, lag)

    def test_event_count(self):
        # jumps arrive at the total rate r N per pulse; gaussian mode has none
        r, s, n_traj = 0.1, 50.0, 4000
        stats = self._run(r=r, s=s, n_traj=n_traj)
        mean = r * 2.0 * s * n_traj
        assert abs(stats.n_events - mean) <= 4.0 * math.sqrt(mean)
        assert self._run(r=r, s=s, n_traj=100, mode="gaussian").n_events == 0
        assert self._run(r=0.0, s=s, n_traj=100).n_events == 0

    def test_input_validation(self):
        process = RamanProcess(r=0.1, pulse_time=1.0, n_atoms=100)
        with pytest.raises(ValueError, match="seed"):
            sample_trajectories(process, 50.0, 10, 4, seed=None)
        with pytest.raises(ValueError, match="step"):
            sample_trajectories(process, 50.0, 10, 0, seed=1)
        with pytest.raises(ValueError, match="trajectory"):
            sample_trajectories(process, 50.0, 0, 4, seed=1)
        with pytest.raises(ValueError, match="mode"):
            sample_trajectories(process, 50.0, 10, 4, seed=1, mode="fancy")
        with pytest.raises(ValueError, match="n_atoms"):
            sample_trajectories(process, 49.0, 10, 4, seed=1)

    def test_exact_vs_gaussian_cross_check(self):
        r, s = 0.15, 200.0
        ex = self._run(r=r, s=s, n_traj=20000, mode="exact")
        ga = self._run(r=r, s=s, n_traj=20000, mode="gaussian", seed=43)
        joint = math.hypot(ex.mean_sz_bar_sq_se, ga.mean_sz_bar_sq_se)
        assert abs(ex.mean_sz_bar_sq - ga.mean_sz_bar_sq) <= 4.0 * joint


def _philox(key):
    return np.random.Generator(np.random.Philox(key=key))


def _replay_blocks(rng, process, s, lag_times, m):
    """The block kernel's draws replayed event by event, one trajectory at a time.

    Draws in the kernel's order (initial binomial, then per block an
    (m, _BLOCK) exponential array and a (_BLOCK, m) pick array, until every
    trajectory's last block time reaches t) and steps each trajectory alone;
    needs r > 0.
    """
    n, t = process.n_atoms, process.pulse_time
    rate = process.flip_rate * n
    sz0 = rng.binomial(n, 0.5, size=m) - s
    times, picks = [], []
    now = np.zeros(m)
    while (now < t).any():
        times.append(now[:, None] + np.cumsum(rng.standard_exponential((m, raman._BLOCK)), axis=1) / rate)
        picks.append((rng.random((raman._BLOCK, m)) * n).T)
        now = times[-1][:, -1]
    times, picks = np.concatenate(times, axis=1), np.concatenate(picks, axis=1)
    samples = np.empty((m, len(lag_times)))
    sbar = np.empty(m)
    n_events = 0
    for j in range(m):
        levels, edges = [sz0[j]], [0.0]
        for tau, pick in zip(times[j], picks[j]):
            if tau >= t:
                break
            levels.append(levels[-1] + (-1.0 if pick < levels[-1] + s else 1.0))
            edges.append(tau)
        n_events += len(edges) - 1
        samples[j] = np.array(levels)[np.searchsorted(edges, lag_times, side="right") - 1]
        sbar[j] = math.fsum(lv * (b - a) for lv, a, b in zip(levels, edges, edges[1:] + [t])) / t
    return samples, sbar, n_events


class TestExactBlockKernel:
    # pulse_time 0.7 so the per-row offsets of the lag lookup are not integers
    @pytest.mark.parametrize("s, r, m", [
        (50.0, 2.0, 1), (50.0, 2.0, 3),  # r N = 200: several blocks per trajectory
        (2.5, 20.0, 1), (2.5, 20.0, 3),  # half-integer spin, r N = 100
        (2.5, 0.1, 3),  # r N = 0.5: most trajectories never jump
    ])
    def test_block_bookkeeping(self, s, r, m):
        process = RamanProcess(r=r, pulse_time=0.7, n_atoms=round(2 * s))
        lag_times = np.linspace(0.0, 0.7, 17)
        for seed in range(8):
            samples, sbar, n_events = raman._simulate_exact(_philox(seed), process, s, lag_times, m)
            assert np.array_equal(samples[:, 0], _philox(seed).binomial(round(2 * s), 0.5, size=m) - s)
            assert np.array_equal(samples + s, np.rint(samples + s))  # integer numbers of atoms up
            assert np.all(np.abs(samples) <= s)
            assert np.all(np.abs(sbar) <= s * (1.0 + 1e-12))  # durations sum to t up to rounding
            # every jump is +-1, so the summed net change has the parity of the jump count
            assert (round(np.sum(samples[:, -1] - samples[:, 0])) - n_events) % 2 == 0
            ref_samples, ref_sbar, ref_events = _replay_blocks(_philox(seed), process, s, lag_times, m)
            assert np.array_equal(samples, ref_samples)
            assert np.allclose(sbar, ref_sbar, rtol=0.0, atol=1e-12 * s)
            assert n_events == ref_events

    @pytest.mark.parametrize("s, r", [(50.0, 1.0), (2.5, 0.3), (0.5, 2.0)])
    def test_agrees_with_lockstep_reference(self, s, r):
        # two samples on independent Philox keys: every estimate within 4 joint se
        m = 8192
        process = RamanProcess(r=r, pulse_time=1.0, n_atoms=round(2 * s))
        lag_times = np.linspace(0.0, 1.0, 9)
        runs = [kernel(_philox(key), process, s, lag_times, m)
                for kernel, key in ((raman._simulate_exact, 101), (lockstep_exact_reference, 202))]
        products = []
        for samples, sbar, _ in runs:
            products.append([sbar * sbar, sbar * samples[:, -1]] + [samples[:, 0] * col for col in samples.T])
        for i, (a, b) in enumerate(zip(*products)):
            joint = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(m)
            assert abs(a.mean() - b.mean()) <= 4.0 * joint, (s, r, i)
        # the jump count is Poisson with mean r N per trajectory in both
        mean = r * round(2 * s) * m
        assert abs(runs[0][2] - runs[1][2]) <= 4.0 * math.sqrt(2.0 * mean)
