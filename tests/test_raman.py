import decimal
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (fsum_mean_se_reference, gaussian_per_step_reference, golden_section_min, lockstep_exact_reference,
                      ou_step_moments_reference, rel_err)

from cavsqueeze import raman
from cavsqueeze.design import full_curve_minimum
from cavsqueeze.feedback import analytic_moments, correlation_integrals, min_variance, raman_modified_moments
from cavsqueeze.raman import RamanProcess, fig2_curve, modified_min_variance, sample_trajectories


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

    def test_an_array_on_one_side_or_both_of_the_seam_equals_scalar_calls_bitwise(self):
        # the series is formed only where some r < 1/4 takes it and the closed form only where some r >= 1/4
        # does, in Python floats at a scalar r
        below, above = [0.0, 5e-324, 1e-9, 0.1, np.nextafter(0.25, 0.0)], [0.25, 0.7, 30.0, 8e307, 1.7e308]
        for rs in (below, above, below + above):
            batch = correlation_integrals(np.array(rs))
            for i, r in enumerate(rs):
                assert [float(c[i]).hex() for c in batch] == [c.hex() for c in correlation_integrals(r)], r

    @pytest.mark.parametrize("r", [9e307, 1e308, 1.7976931348623157e308])
    def test_past_the_float_range_of_2r(self, r):
        # c_bar_fin = 1/(2r) and c_bar_sq = (1 - c_bar_fin)/r, formed from r: they read 0.0 once 2r overflowed
        c_sq, c_fin = correlation_integrals(r)
        assert c_fin == 0.5 / r and c_sq == (1.0 - c_fin) / r and c_sq > 0.0


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
                base = min_variance(raman_modified_moments(s, q, 0.0))
                for r in (0.01, 0.1, 0.5):
                    val = min_variance(raman_modified_moments(s, q, r))
                    assert val >= base - 1e-12, (s, q, r)

    def test_monotone_in_r(self):
        s, q = 1e4, 30.0
        vals = [min_variance(raman_modified_moments(s, q, r))
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


# Small and large, integer and half-integer spins (at S = 1/2 the larger Q
# pass the G-factor branch); r straddles the series/closed-form seam at 2r = 0.5.
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
            modified_min_variance(np.array([60.0, 100.0]), 1e3, np.array([10.0, 200.0]))
        # and the same domain at S = 10
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
            return min_variance(analytic_moments(s, q))

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
        (block,) = fig2_curve(1e4, 0.1, [100.0])
        eta, q, sig, sig_curv, sig_ideal = block
        assert sig_ideal == [0.01]

    def test_reference_columns(self):
        (block,) = fig2_curve(1e4, 0.1, np.geomspace(1.0, 1000.0, 50))
        sigma_curv = 1.25 * 6.0 ** (-0.2) * 1e4 ** (-0.4)
        assert block[3] == pytest.approx(sigma_curv, rel=1e-12)
        assert all(v > 0.0 for v in block[2])

    def test_minima_ordered_in_eta(self):
        grid = np.geomspace(1.0, 1000.0, 200)
        minima = [min(block[2]) for block in fig2_curve(1e4, (0.001, 0.01, 0.1, 1.0), grid)]
        assert minima == sorted(minima, reverse=True)

    def test_one_call_over_all_etas_is_the_per_eta_curves_to_the_bit(self):
        # S, eta sets and Q grids drawn like the benchmark's fig2 runs, a linear grid included
        rng = np.random.default_rng(19)
        for _ in range(40):
            s = rng.integers(2, 2_000_000) / 2.0
            etas = (10.0 ** rng.uniform(-4.0, -0.2, rng.integers(1, 5))).tolist()
            grid = (np.linspace if rng.random() < 0.3 else np.geomspace)(1.0, 10.0 ** rng.uniform(1, 4), 97)
            blocks = fig2_curve(s, etas, grid)
            assert [b[0] for b in blocks] == etas
            for eta, block in zip(etas, blocks):
                expected = modified_min_variance(s, eta, grid)
                assert np.array_equal(np.array(block[2]).view(np.int64), expected.view(np.int64))
                assert block[1] is blocks[0][1] and block[1] == grid.tolist()
                assert block[4] is blocks[0][4] and block[4] == [1.0 / q for q in grid.tolist()]


class TestRamanProcess:
    def test_flip_rate_is_derived_not_settable(self):
        with pytest.raises(TypeError, match="flip_rate"):
            RamanProcess(r=0.25, n_atoms=100, flip_rate=99.0)

    def test_validation(self):
        # r, then N, is refused ahead of the seed, trajectory and step counts, which are bad here too
        for r in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^r must be nonnegative and finite$"):
                sample_trajectories(RamanProcess(r=r, n_atoms=0), 0, 0, seed=None)
        with pytest.raises(ValueError, match="^need at least one atom$"):
            sample_trajectories(RamanProcess(r=0.1, n_atoms=0), 0, 0, seed=None)
        # N = 2S: a fractional atom count is no spin, refused through twice_spin
        with pytest.raises(ValueError, match=r"^total spin must be a positive half-integer, got 5\.25$"):
            sample_trajectories(RamanProcess(r=0.1, n_atoms=10.5), 2, 1, seed=1)


class TestMonteCarlo:
    def _run(self, r=0.1, s=50.0, n_traj=4000, steps=4, seed=42, **kw):
        process = RamanProcess(r=r, n_atoms=round(2 * s))
        return sample_trajectories(process, n_traj, steps, seed=seed, **kw)

    def test_zero_rate_trajectories_constant(self):
        stats = self._run(r=0.0, n_traj=2000)
        # no flips: the lag correlation is exactly flat
        assert np.all(np.asarray(stats["corr"]) == stats["corr"][0])
        assert stats["cov_bar_final"] == pytest.approx(stats["mean_sz_bar_sq"], rel=1e-12)
        # and the estimate sits on S/2 within errors
        assert abs(stats["mean_sz_bar_sq"] - 25.0) < 3.0 * stats["mean_sz_bar_sq_se"]

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    def test_correlation_matches_telegraph_kernel(self, mode):
        r = 0.1
        stats = self._run(r=r, n_traj=20000, mode=mode)
        for lag, c, se in zip(stats["lags"], stats["corr"], stats["corr_se"]):
            target = math.exp(-2.0 * r * lag)
            assert abs(c - target) <= 3.0 * max(se, 1e-12), (mode, lag)

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    def test_time_average_moments_match_integrals(self, mode):
        r, s = 0.2, 50.0
        stats = self._run(r=r, s=s, n_traj=20000, mode=mode)
        c_sq, c_fin = correlation_integrals(r)
        assert abs(stats["mean_sz_bar_sq"] - (s / 2.0) * c_sq) <= 3.0 * stats["mean_sz_bar_sq_se"]
        assert abs(stats["cov_bar_final"] - (s / 2.0) * c_fin) <= 3.0 * stats["cov_bar_final_se"]

    def test_deterministic_and_worker_independent(self):
        # streams are keyed by (seed, chunk), so the seed alone fixes the bits
        a = self._run(seed=7)
        b = self._run(seed=7)
        assert a["mean_sz_bar_sq"] == b["mean_sz_bar_sq"]
        assert a["cov_bar_final"] == b["cov_bar_final"]
        assert a["n_events"] == b["n_events"]
        assert np.array_equal(a["corr"], b["corr"])
        assert np.array_equal(a["corr_se"], b["corr_se"])
        d = self._run(seed=8)
        assert d["mean_sz_bar_sq"] != a["mean_sz_bar_sq"]

    @pytest.mark.parametrize("r, s, n_traj", [
        (0.1, 50.0, 513),  # one partial chunk
        (0.1, 50.0, 2049),  # the last chunk holds one trajectory
        (0.3, 2.5, 4000),  # half-integer spin: five atoms
        (0.05, 0.5, 4000),  # one atom: most trajectories of a chunk never jump
    ])
    def test_chunk_edge_cases_match_telegraph_kernel(self, r, s, n_traj):
        stats = self._run(r=r, s=s, n_traj=n_traj, seed=11)
        assert stats["n_trajectories"] == n_traj
        assert 0 < stats["n_events"] < 3.0 * r * round(2 * s) * n_traj
        for lag, c, se in zip(stats["lags"], stats["corr"], stats["corr_se"]):
            target = math.exp(-2.0 * r * lag)
            assert abs(c - target) <= 3.0 * max(se, 1e-12), (s, lag)

    def test_event_count(self):
        # jumps arrive at the total rate r N per pulse; gaussian mode has none
        r, s, n_traj = 0.1, 50.0, 4000
        stats = self._run(r=r, s=s, n_traj=n_traj)
        mean = r * 2.0 * s * n_traj
        assert abs(stats["n_events"] - mean) <= 4.0 * math.sqrt(mean)
        assert self._run(r=r, s=s, n_traj=100, mode="gaussian")["n_events"] == 0
        assert self._run(r=0.0, s=s, n_traj=100)["n_events"] == 0

    def test_input_validation(self):
        process = RamanProcess(r=0.1, n_atoms=100)
        with pytest.raises(ValueError, match="seed"):
            sample_trajectories(process, 10, 4, seed=None)
        with pytest.raises(ValueError, match="step"):
            sample_trajectories(process, 10, 0, seed=1)
        with pytest.raises(ValueError, match="trajectory"):
            sample_trajectories(process, 0, 4, seed=1)
        with pytest.raises(ValueError, match="mode"):
            sample_trajectories(process, 10, 4, seed=1, mode="fancy")

    def test_lockstep_limit_counts_512_trajectory_units(self, monkeypatch):
        # 1537 trajectories are one stream chunk but four 512-trajectory units of the cost limit:
        # r N = MAX_LOCKSTEP / 4 runs, and a little more is refused before any work
        class Ran(Exception):
            pass

        def run_chunks(*args):
            raise Ran

        monkeypatch.setattr(raman, "_run_chunks", run_chunks)
        r_limit = raman.MAX_LOCKSTEP / 4 / 1000
        with pytest.raises(Ran):
            sample_trajectories(RamanProcess(r=r_limit, n_atoms=1000), 1537, 1, seed=1)
        with pytest.raises(ValueError, match="MAX_LOCKSTEP"):
            sample_trajectories(RamanProcess(r=1.001 * r_limit, n_atoms=1000), 1537, 1, seed=1)

    def test_exact_vs_gaussian_cross_check(self):
        r, s = 0.15, 200.0
        ex = self._run(r=r, s=s, n_traj=20000, mode="exact")
        ga = self._run(r=r, s=s, n_traj=20000, mode="gaussian", seed=43)
        joint = math.hypot(ex["mean_sz_bar_sq_se"], ga["mean_sz_bar_sq_se"])
        assert abs(ex["mean_sz_bar_sq"] - ga["mean_sz_bar_sq"]) <= 4.0 * joint


def _stream(seed, chunk=0):
    """The generator of chunk `chunk` of a run seeded with `seed`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,))))


def _one_chunk(kernel):
    """A kernel with its output arrays: (rng, process, s, lag_times, m) -> (S_z at the lags, Sbar_z, jumps)."""
    def run(rng, process, s, lag_times, m):
        samples, sbar = np.empty((m, len(lag_times))), np.empty(m)
        return samples, sbar, kernel(rng, process, s, lag_times, samples, sbar)
    return run


def _chunked_samples(process, s, n_traj, time_steps, seed, mode):
    """S_z samples and Sbar_z of sample_trajectories, from one kernel call per chunk on its own stream."""
    lag_times = np.linspace(0.0, 1.0, time_steps + 1)
    simulate = _one_chunk(raman._simulate_exact if mode == "exact" else raman._simulate_gaussian)
    parts = [simulate(_stream(seed, chunk), process, s, lag_times, min(raman._CHUNK, n_traj - start))
             for chunk, start in enumerate(range(0, n_traj, raman._CHUNK))]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


class TestChunkGroups:
    # _run_chunks runs a run's chunks as one group, one kernel call each.  1 to 2048: one partial or one
    # full chunk; 2049 ends on a one-row chunk; 2567 on a partial second chunk; 4097 and 4103 run two full
    # chunks and a one-row or a seven-row chunk
    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    @pytest.mark.parametrize("r", [0.0, 0.7])  # r N = 0, and 70: several blocks per trajectory
    @pytest.mark.parametrize("n_traj", [1, 511, 513, 1025, 1537, 2047, 2048, 2049, 2560 + 7, 4097, 4103])
    def test_groups_equal_one_chunk_per_call(self, mode, r, n_traj):
        process, steps = RamanProcess(r=r, n_atoms=100), 8
        for seed in range(8):
            samples, sbar, _ = raman._run_chunks(process, n_traj, np.linspace(0.0, 1.0, steps + 1), seed,
                                                 mode == "exact")
            ref_samples, ref_sbar = _chunked_samples(process, 50.0, n_traj, steps, seed, mode)
            assert np.array_equal(samples, ref_samples), seed
            assert np.array_equal(sbar, ref_sbar), seed


class TestReduction:
    # 513 trajectories: one partial chunk
    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    @pytest.mark.parametrize("s, r, n_traj, steps", [
        (20.0, 0.5, 600, 4), (50.0, 1.0, 513, 16), (2.5, 0.3, 4096, 8), (1000.0, 0.1, 2048, 64),
    ])
    def test_matches_fsum_reference(self, mode, s, r, n_traj, steps):
        process = RamanProcess(r=r, n_atoms=round(2 * s))
        for seed in (3, 4):
            stats = sample_trajectories(process, n_traj, steps, seed=seed, mode=mode)
            samples, sbar = _chunked_samples(process, s, n_traj, steps, seed, mode)
            ref = [fsum_mean_se_reference(sbar * sbar), fsum_mean_se_reference(sbar * samples[:, -1])]
            got = [(stats["mean_sz_bar_sq"], stats["mean_sz_bar_sq_se"]),
                   (stats["cov_bar_final"], stats["cov_bar_final_se"])]
            for col, c, se in zip(samples.T, stats["corr"], stats["corr_se"]):
                mean, ref_se = fsum_mean_se_reference(samples[:, 0] * col)
                ref.append((2.0 / s * mean, 2.0 / s * ref_se))
                got.append((c, se))
                if mode == "exact":  # sums of quarter-integers: exact in both
                    assert c == 2.0 / s * mean, (seed, col)
            for (mean, se), (ref_mean, ref_se) in zip(got, ref):
                assert rel_err(mean, ref_mean) <= 1e-13, (seed, mean, ref_mean)
                assert rel_err(se, ref_se) <= 1e-13, (seed, se, ref_se)


class TestGaussianStep:
    # the bound was fixed from the reference before the kernel ran: the kernel forms each moment to a few eps on
    # its scale (S/2, (S/2) h^2), so a noise gain sqrt(V) carries ~eps / min(theta h, 1) of relative error, where
    # V is O(theta h) of that scale.  Each term of an output may be off by 64 times that
    @pytest.mark.parametrize("theta_h", [1e-12, 1e-9, 1e-3, 1.5625e-3, 0.5, 3.0])
    def test_one_step_matches_the_decimal_moments(self, theta_h):
        # one step (time_steps = 1, so h = 1 and theta h = 2r) on scripted draws, one (S_z(0), x1, x2) a row:
        # S_z(end) = d S_z(0) + sd_z x1 and the integral m S_z(0) + (cov / sd_z) x1 + sqrt(var_i - cov^2 / var_z) x2
        draws = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [3.5, -1.2, 0.7], [-5.0, 2.0, -1.5]]

        class Scripted:
            def normal(self, loc, scale, size):
                assert (loc, scale, size) == (0.0, 5.0, len(draws))  # S = 50
                return np.array([z0 for z0, _, _ in draws])

            def standard_normal(self, out):
                out[...] = np.array([x for _, *x in draws]).T

        samples, sbar, _ = _one_chunk(raman._simulate_gaussian)(
            Scripted(), RamanProcess(r=theta_h / 2.0, n_atoms=100), 50.0, np.array([0.0, 1.0]), len(draws))
        d, mean, var_z, cov, var_i = ou_step_moments_reference(25.0, theta_h, 1.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            gain_z = cov / var_z.sqrt()
            gains = [(d, var_z.sqrt()), (mean, gain_z, (var_i - gain_z * gain_z).sqrt())]
            tol = 64 * decimal.Decimal(np.finfo(float).eps) / decimal.Decimal(min(theta_h, 1.0))
            for row, z0_x in enumerate(draws):
                z0_x = [decimal.Decimal(v) for v in z0_x]
                for got, output_gains, inputs in ((samples[row, 1], gains[0], [z0_x[0], z0_x[1]]),
                                                  (sbar[row], gains[1], z0_x)):
                    terms = [g * v for g, v in zip(output_gains, inputs)]
                    err = abs(decimal.Decimal(float(got)) - sum(terms))
                    assert err <= tol * sum(abs(term) for term in terms), (row, float(got), float(sum(terms)))


class TestGaussianRolls:
    # the kernel draws the normals of up to _ROLL steps at once and copies their S_z into samples once a roll;
    # the stream fills in order, so every bit must equal one (2, m) draw and one samples column a step
    @pytest.mark.parametrize("steps", sorted({1, raman._ROLL - 1, raman._ROLL, raman._ROLL + 1,
                                              2 * raman._ROLL + 1, 64}))
    @pytest.mark.parametrize("m", [1, 3, raman._CHUNK])
    @pytest.mark.parametrize("r", [0.0, 0.7])
    def test_rolls_equal_the_per_step_draws_bitwise(self, steps, m, r):
        process, lag_times = RamanProcess(r=r, n_atoms=100), np.linspace(0.0, 1.0, steps + 1)
        for seed in range(2):
            samples, sbar, _ = _one_chunk(raman._simulate_gaussian)(_stream(seed), process, 50.0, lag_times, m)
            ref_samples, ref_sbar, _ = _one_chunk(gaussian_per_step_reference)(_stream(seed), process, 50.0,
                                                                               lag_times, m)
            assert samples.tobytes() == ref_samples.tobytes(), seed
            assert sbar.tobytes() == ref_sbar.tobytes(), seed

    def test_two_chunks_the_second_of_width_1_equal_the_per_step_run(self, monkeypatch):
        process, n_traj, steps = RamanProcess(r=0.7, n_atoms=100), raman._CHUNK + 1, 2 * raman._ROLL + 1
        stats = sample_trajectories(process, n_traj, steps, seed=11, mode="gaussian")
        monkeypatch.setattr(raman, "_simulate_gaussian", gaussian_per_step_reference)
        ref = sample_trajectories(process, n_traj, steps, seed=11, mode="gaussian")
        assert json.dumps(stats) == json.dumps(ref)

    def test_transient_memory_is_bounded_by_the_roll(self):
        # a full chunk over 1,024 steps: the roll buffer holds 2 _ROLL m doubles, the per-step gains and their
        # lists ~2 _ROLL m more at this step count.  Drawing every step's normals at once would take 2 * 1024 m
        # doubles, 256 times the bound's unit at _ROLL = 8
        m, lag_times = raman._CHUNK, np.linspace(0.0, 1.0, 1025)
        samples, sbar, rng = np.empty((m, len(lag_times))), np.empty(m), _stream(1)
        tracemalloc.start()
        try:
            raman._simulate_gaussian(rng, RamanProcess(r=0.05, n_atoms=1000), 500.0, lag_times, samples, sbar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * raman._ROLL * m * 8


def _replay_blocks(rng, process, s, lag_times, m):
    """The block kernel's draws replayed event by event, one trajectory at a time.

    Draws in the kernel's order (initial binomial, then per block a
    (_BLOCK, k) exponential array and a (_BLOCK, k) pick array for the k
    trajectories whose last block time is still before the pulse end 1) and
    steps each trajectory alone; needs r > 0.  Also returns the number of
    blocks each trajectory drew.
    """
    n = process.n_atoms
    rate = process.r * n
    sz0 = rng.binomial(n, 0.5, size=m) - s
    times, picks = [[] for _ in range(m)], [[] for _ in range(m)]
    live = list(range(m))
    while live:
        block_times = np.cumsum(rng.standard_exponential((raman._BLOCK, len(live))), axis=0) / rate
        block_picks = rng.random((raman._BLOCK, len(live))) * n
        for i, j in enumerate(live):
            times[j].extend((block_times[:, i] + (times[j][-1] if times[j] else 0.0)).tolist())
            picks[j].extend(block_picks[:, i].tolist())
        live = [j for j in live if times[j][-1] < 1.0]
    samples = np.empty((m, len(lag_times)))
    sbar = np.empty(m)
    n_events = 0
    blocks = [len(times[j]) // raman._BLOCK for j in range(m)]
    for j in range(m):
        levels, edges = [sz0[j]], [0.0]
        for tau, pick in zip(times[j], picks[j]):
            if tau >= 1.0:
                break
            levels.append(levels[-1] + (-1.0 if pick < levels[-1] + s else 1.0))
            edges.append(tau)
        n_events += len(edges) - 1
        samples[j] = np.array(levels)[np.searchsorted(edges, lag_times, side="right") - 1]
        sbar[j] = math.fsum(lv * (b - a) for lv, a, b in zip(levels, edges, edges[1:] + [1.0]))
    return samples, sbar, n_events, blocks


class TestExactBlockKernel:
    @pytest.mark.parametrize("s, r, m", [
        (50.0, 2.0, 1), (50.0, 2.0, 3),  # r N = 200: several blocks per trajectory
        (2.5, 20.0, 1), (2.5, 20.0, 3),  # half-integer spin, r N = 100
        (2.5, 0.1, 3),  # r N = 0.5: most trajectories never jump
        (50.0, 6.0, 3),  # r N = 600: ~19 blocks, rows of the chunk leave in different blocks
        # a full chunk at r N = 100: no row ends in its first block, which runs with every row live and nothing to
        # clip (fewer than 32 events in the pulse: P ~ 7e-16 a row)
        (50.0, 1.0, raman._CHUNK),
    ])
    def test_block_bookkeeping(self, s, r, m):
        process = RamanProcess(r=r, n_atoms=round(2 * s))
        lag_times = np.linspace(0.0, 1.0, 17)
        staggered = 0  # seeds on which the rows drew different numbers of blocks
        for seed in range(8):
            samples, sbar, n_events = _one_chunk(raman._simulate_exact)(_stream(seed), process, s, lag_times, m)
            assert np.array_equal(samples[:, 0], _stream(seed).binomial(round(2 * s), 0.5, size=m) - s)
            assert np.array_equal(samples + s, np.rint(samples + s))  # integer numbers of atoms up
            assert np.all(np.abs(samples) <= s)
            assert np.all(np.abs(sbar) <= s * (1.0 + 1e-12))  # durations sum to the pulse up to rounding
            # every jump is +-1, so the summed net change has the parity of the jump count
            assert (round(np.sum(samples[:, -1] - samples[:, 0])) - n_events) % 2 == 0
            ref_samples, ref_sbar, ref_events, blocks = _replay_blocks(_stream(seed), process, s, lag_times, m)
            assert np.array_equal(samples, ref_samples)
            assert np.allclose(sbar, ref_sbar, rtol=0.0, atol=1e-12 * s)
            assert n_events == ref_events
            staggered += len(set(blocks)) > 1
        # several blocks per row: finished rows must drop out while the others draw on
        assert (staggered > 0) == (m > 1 and r * round(2 * s) > raman._BLOCK)

    def test_a_block_in_which_every_row_ends(self):
        # one block of scripted draws at rate r N = 2 on 3 rows with S_z(0) = 0: row 0 has no event in the pulse,
        # row 1 ten (0.05, ..., 0.5) and row 2 thirty-one (0.03, ..., 0.93), and each row's later events come past
        # 1.  Every row ends in this block, so its times are clipped and only the 41 events before 1 count
        m, lag_times = 3, np.linspace(0.0, 1.0, 17)
        waits = np.full((raman._BLOCK, m), 4.0)
        waits[:10, 1], waits[:31, 2] = 0.1, 0.06
        picks = np.random.default_rng(7).random((raman._BLOCK, m))

        def fill(values, size, out):
            assert (size or out.shape) == values.shape  # one block of all 3 rows
            if out is None:
                return values.copy()
            out[...] = values

        class Scripted:
            def binomial(self, n, p, size):
                return np.ones(size)  # one of the two atoms up

            def standard_exponential(self, size=None, out=None):
                return fill(waits, size, out)

            def random(self, size=None, out=None):
                return fill(picks, size, out)

        process = RamanProcess(r=1.0, n_atoms=2)
        samples, sbar, n_events = _one_chunk(raman._simulate_exact)(Scripted(), process, 1.0, lag_times, m)
        ref_samples, ref_sbar, ref_events, blocks = _replay_blocks(Scripted(), process, 1.0, lag_times, m)
        assert blocks == [1, 1, 1]
        assert n_events == ref_events == 41
        assert np.array_equal(samples, ref_samples)
        assert np.allclose(sbar, ref_sbar, rtol=0.0, atol=1e-12)

    def test_lag_lookup_at_an_event_next_to_a_lag(self):
        # one block of scripted draws at rate r N = 2: the first and last rows of a full chunk jump at
        # one ulp past lag 0.25 and exactly at lag 0.5; no other row jumps.  A lag sample is the level
        # after the events at or before it: the pre-event level at 0.25, the post-event level at 0.5
        m, lag_times = raman._CHUNK, np.linspace(0.0, 1.0, 5)
        waits = np.full((raman._BLOCK, m), 4.0)  # first event at 2.0, past the pulse
        first = 2.0 * np.nextafter(0.25, 1.0)
        waits[:2, [0, m - 1]] = [[first], [1.0 - first]]  # events at nextafter(0.25, 1) and 0.5

        class Scripted:
            def binomial(self, n, p, size):
                return np.zeros(size)  # S_z = -1: no atom up

            def standard_exponential(self, out):
                assert out.shape == waits.shape  # every row leaves after one block
                out[...] = waits

            def random(self, out):
                out[...] = 1.0  # u N = N >= n_up: every jump flips an atom up

        samples, sbar, n_events = _one_chunk(raman._simulate_exact)(Scripted(), RamanProcess(r=1.0, n_atoms=2),
                                                                    1.0, lag_times, m)
        expected = np.full((m, 5), -1.0)
        expected[[0, m - 1], 2:] = 1.0  # -1 up to 0.25 + ulp, 0 up to 0.5, then +1
        assert np.array_equal(samples, expected)
        assert n_events == 4
        assert np.array_equal(sbar[[0, m - 1]], [0.5 - first / 2.0] * 2)  # -(0.25 + ulp) + 0.5 + 0

    def test_lag_lookup_with_the_scripted_chunk_second_in_a_group(self, monkeypatch):
        # the scripted block above as the second chunk of a two-chunk run, behind the stream of chunk 0:
        # its events sit on rows m and 2m - 1 of the run.  At r N = 2 every row leaves after one block
        m, lag_times = raman._CHUNK, np.linspace(0.0, 1.0, 5)
        waits = np.full((raman._BLOCK, m), 4.0)
        first = 2.0 * np.nextafter(0.25, 1.0)
        waits[:2, [0, m - 1]] = [[first], [1.0 - first]]

        class Scripted:
            def binomial(self, n, p, size):
                return np.zeros(size)

            def standard_exponential(self, out):
                assert out.shape == waits.shape
                out[...] = waits

            def random(self, out):
                out[...] = 1.0

        simulate, streams = raman._simulate_exact, []

        def second_scripted(rng, *args):
            streams.append(rng)
            return simulate(rng if len(streams) == 1 else Scripted(), *args)

        monkeypatch.setattr(raman, "_simulate_exact", second_scripted)
        process = RamanProcess(r=1.0, n_atoms=2)
        samples, sbar, n_events = raman._run_chunks(process, 2 * m, lag_times, 3, True)
        assert len(streams) == 2
        alone_samples, alone_sbar, alone_events = _one_chunk(simulate)(_stream(3), process, 1.0, lag_times, m)
        assert np.array_equal(samples[:m], alone_samples)
        assert np.array_equal(sbar[:m], alone_sbar)
        expected = np.full((m, 5), -1.0)
        expected[[0, m - 1], 2:] = 1.0
        assert np.array_equal(samples[m:], expected)
        assert n_events == alone_events + 4
        assert np.array_equal(sbar[[m, 2 * m - 1]], [0.5 - first / 2.0] * 2)

    def test_a_block_whose_last_event_lands_on_1_samples_t_1_after_all_its_events(self):
        # S = 1, r = 1: every waiting time 2/32 at rate r N = 2 puts event j at j/32, the 32nd on 1.0 exactly, and
        # every pick u N = 1.5 steps the up count 0 -> 1 -> 2 -> 1 -> ... to 2 after 32 events.  The t = 1 sample is
        # not in the block's [now, last) and the trajectory leaves with it: it read the starting S_z = -1
        class Scripted:
            def binomial(self, n, p, size):
                return np.zeros(size)  # S_z = -1: no atom up

            def standard_exponential(self, out):
                out[...] = 2.0 / 32.0

            def random(self, out):
                out[...] = 0.75

        samples, sbar, n_events = _one_chunk(raman._simulate_exact)(Scripted(), RamanProcess(r=1.0, n_atoms=2),
                                                                    1.0, np.linspace(0.0, 1.0, 5), 1)
        assert samples.tolist() == [[-1.0, 1.0, 1.0, 1.0, 1.0]]
        assert n_events == 31  # the event on 1.0 is the pulse's end, as before
        assert sbar.tolist() == [(-1.0 + 0.0 + 15 * (1.0 + 0.0)) / 32.0]

    def test_lag_lookup_in_several_passes(self, monkeypatch):
        # 3 lag samples per pass: a block (0.16 of the pulse at r N = 200) holds ~8 samples of its
        # 3 rows, so most blocks take several passes, often ending on a partial one
        monkeypatch.setattr(raman, "_LOOKUP", 3)
        process, lag_times = RamanProcess(r=2.0, n_atoms=100), np.linspace(0.0, 1.0, 17)
        for seed in range(4):
            samples, _, _ = _one_chunk(raman._simulate_exact)(_stream(seed), process, 50.0, lag_times, 3)
            assert np.array_equal(samples, _replay_blocks(_stream(seed), process, 50.0, lag_times, 3)[0])

    def test_lag_lookup_memory_is_bounded(self):
        # r N = 1: the first block of a full chunk spans all 1025 lags, 2.1e6 lag samples that would copy
        # 32 event times each (512 MiB) in one pass.  The passes of a binary search hold a few arrays of
        # _LOOKUP samples: with the block buffers, the kernel's own transient stays under a quarter of the
        # samples
        lag_times = np.linspace(0.0, 1.0, 1025)
        tracemalloc.start()
        try:
            samples, _, _ = _one_chunk(raman._simulate_exact)(_stream(1), RamanProcess(r=0.01, n_atoms=100),
                                                              50.0, lag_times, raman._CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - samples.nbytes < 0.25 * samples.nbytes

    @pytest.mark.parametrize("s, r", [(50.0, 1.0), (2.5, 0.3), (0.5, 2.0)])
    def test_agrees_with_lockstep_reference(self, s, r):
        # two samples on independent streams: every estimate within 4 joint se
        m = 8192
        process = RamanProcess(r=r, n_atoms=round(2 * s))
        lag_times = np.linspace(0.0, 1.0, 9)
        runs = [kernel(_stream(key), process, s, lag_times, m)
                for kernel, key in ((_one_chunk(raman._simulate_exact), 101), (lockstep_exact_reference, 202))]
        products = []
        for samples, sbar, _ in runs:
            products.append([sbar * sbar, sbar * samples[:, -1]] + [samples[:, 0] * col for col in samples.T])
        for i, (a, b) in enumerate(zip(*products)):
            joint = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(m)
            assert abs(a.mean() - b.mean()) <= 4.0 * joint, (s, r, i)
        # the jump count is Poisson with mean r N per trajectory in both
        mean = r * round(2 * s) * m
        assert abs(runs[0][2] - runs[1][2]) <= 4.0 * math.sqrt(2.0 * mean)
