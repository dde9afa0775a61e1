import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (apply_feedback_channel, brute_force_min_variance, channel_factor_matrix, css_amplitudes_reference,
                      css_density_matrix, dense_channel_moments, dense_spin_matrices, dicke_sums_reference,
                      floored_rel_err, rel_err)

from cavsqueeze import oracle
from cavsqueeze.dicke import m_values
from cavsqueeze.feedback import analytic_moments, min_variance
from cavsqueeze.oracle import channel_factors, channel_moments, oracle_moments_sum

GRID_S = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 200.0)


def q_grid(s):
    return (0.0, 0.1, 1.0, 5.0, 0.5 * s)


def test_css_moments_at_zero_shearing():
    for s in (0.5, 3.0, 120.0):
        o = oracle_moments_sum(s, 0.0)
        assert o.mean_sp == pytest.approx(s, rel=1e-13)
        assert o.var_y == pytest.approx(s / 2.0, rel=1e-11)
        assert o.cov_w == 0.0


def test_var_y_is_css_variance_at_zero_shearing_for_every_accepted_spin():
    # random S, half of them off the half-integers: either route refuses a
    # non-spin, and any S it accepts gives the CSS variance S/2 at Q = 0
    rng = np.random.default_rng(11)
    spins = np.exp(rng.uniform(math.log(0.5), math.log(1e5), 40))
    spins[::2] = np.maximum(np.rint(2.0 * spins[::2]) / 2.0, 0.5)
    accepted = 0
    for s in spins.tolist():
        for route in (analytic_moments, oracle_moments_sum):
            try:
                m = route(s, 0.0)
            except ValueError as exc:
                assert "positive half-integer" in str(exc) and 2.0 * s != round(2.0 * s), (route, s)
                continue
            accepted += 1
            assert m.var_y == pytest.approx(s / 2.0, rel=1e-9), (route, s)
    assert accepted == 40


def test_closed_forms_match_oracle_full_grid():
    # the central equivalence: closed forms vs brute-force Dicke sums
    worst = 0.0
    for s in GRID_S:
        for q in q_grid(s):
            closed = analytic_moments(s, q)
            oracle = oracle_moments_sum(s, q)
            err = max(rel_err(closed.var_y, oracle.var_y), rel_err(closed.cov_w, oracle.cov_w))
            worst = max(worst, err)
            assert err < 1e-10, (s, q, err)
            # first coherence agrees in both quadratures
            assert floored_rel_err(closed.mean_sp, oracle.mean_sp, 1e-8 * s) < 1e-10, (s, q)
            # second coherence: the floor covers cancellation noise of the
            # sums, which scales with the operator norm ~S^2
            assert floored_rel_err(closed.mean_sp2, oracle.mean_sp2,
                                   1e-3 * s * s) < 1e-10, (s, q)
    assert worst < 1e-10


def moments_disagreement(a, b, s):
    """Largest floored relative difference: floor S/2, and S^2/2 for <S_+^2>."""
    half = s / 2.0
    return max(
        floored_rel_err(a.var_y, b.var_y, half),
        floored_rel_err(a.cov_w, b.cov_w, half),
        floored_rel_err(a.mean_sp, b.mean_sp, half),
        floored_rel_err(a.mean_sp2, b.mean_sp2, s * half),
    )


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_float64_sum_matches_closed_forms_at_large_spin(s):
    # var_y cancels S^2/2-sized moments against S(S+1)/2, so a log-weight
    # error of 5e-10 with no normalisation costs ~1e-5 at S = 1e5
    for q in (1.0, 3.0, 10.0, math.sqrt(s), 2.0 * math.sqrt(s)):
        err = moments_disagreement(oracle_moments_sum(s, q), analytic_moments(s, q), s)
        assert err <= 1e-9, (s, q, err)


# The worst disagreement over these 100 examples is 2.7e-11 (S = 71199,
# Q ~ 0, float64 sums); the bound is about ten times that.
PROPERTY_TOL = 3e-10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(two_s=st.integers(1, 200_000), frac=st.floats(0.0, 1.0))
def test_closed_forms_match_oracle_property(two_s, frac):
    # random S = n/2 up to 1e5, half-integers included, Q <= min(2 sqrt(S), S/2)
    s = two_s / 2.0
    q = frac * min(2.0 * math.sqrt(s), s / 2.0)
    err = moments_disagreement(analytic_moments(s, q), oracle_moments_sum(s, q), s)
    assert err <= PROPERTY_TOL, (s, q, err)


def test_large_spin_log_space_sum():
    # S = 1e4 at Q = 50 through the float64 sums on normalised amplitudes
    s, q = 1e4, 50.0
    oracle = oracle_moments_sum(s, q)
    closed = analytic_moments(s, q)
    second_closed = closed.var_y + closed.mean_sp.imag ** 2
    second_oracle = oracle.var_y + oracle.mean_sp.imag ** 2
    assert rel_err(second_oracle, second_closed) < 1e-8
    assert rel_err(oracle.var_y, closed.var_y) < 1e-8
    assert rel_err(oracle.cov_w, closed.cov_w) < 1e-8


def test_oracle_dimension_cap():
    with pytest.raises(ValueError, match="cap"):
        oracle_moments_sum(2e5, 1.0)
    with pytest.raises(ValueError):
        oracle_moments_sum(10.0, -0.5)


@pytest.mark.parametrize("route", [oracle_moments_sum, channel_moments])
@pytest.mark.parametrize("q", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_shearing_is_refused_by_both_routes(route, q):
    # nan once returned nan moments, inf a "math domain error" and a negative
    # Q on the channel a RuntimeError from its factor guard
    with pytest.raises(ValueError, match="^shearing strength must be nonnegative and finite$"):
        route(50.0, q)


def test_oracle_sum_equals_the_full_range_sum_on_the_grid(monkeypatch):
    # on the validate-oracle grid the window of nonzero amplitudes is the
    # whole range, so the sums are the full-range sums to the bit
    fields = ("mean_sp", "mean_sp2", "var_y", "cov_w")
    windowed = {(s, q): oracle_moments_sum(s, q) for s in GRID_S for q in q_grid(s)}
    monkeypatch.setattr(oracle, "css_support", lambda s: (0, css_amplitudes_reference(s)))
    for (s, q), got in windowed.items():
        full = oracle_moments_sum(s, q)
        assert [getattr(got, f) for f in fields] == [getattr(full, f) for f in fields], (s, q)


def test_oracle_sum_is_the_full_range_sum_to_the_bit_below_2s_1085():
    # below 2S = 1085 no product of two amplitudes underflows to 0.0, so the product window is the whole range;
    # 2S = 1 has no pair (k, k+2) at all
    for two_s in range(1, 1085):
        s = two_s / 2.0
        qs = [0.0, 1.0, math.sqrt(s), s / 2.0]
        row = oracle_moments_sum(s, np.array(qs))
        for i, q in enumerate(qs):
            full = dicke_sums_reference(s, q)
            for name in ("mean_sp", "mean_sp2", "var_y", "cov_w"):
                assert getattr(row, name)[i].tobytes() == np.array(getattr(full, name)).tobytes(), (s, q, name)


@pytest.mark.parametrize("s, kept", [(542.5, 1084), (1e3, 1607), (1e4, 5409), (1e5, 17183)])
def test_oracle_sum_drops_only_products_that_are_exactly_zero(s, kept):
    # the widest pair (k, k+2) sets the product window lo..2S-lo; every ladder (k, k), first (k, k+1) and second
    # (k, k+2) coherence product with an index outside it is 0.0, so only the summation grouping changes
    a = css_amplitudes_reference(s)
    lo = int(np.argmax(a[:-2] * a[2:] > 0.0))
    hi = len(a) - 1 - lo
    assert hi - lo + 1 == kept
    for d in (0, 1, 2):
        k = np.arange(len(a) - d)
        assert not (a[:len(a) - d] * a[d:])[(k < lo) | (k + d > hi)].any(), d
    # var_y cancels two ~S^2/2 sums, so a regrouping moves it by ~S eps on the S/2 floor: the worst point, S = 1e5 at
    # Q = 1, reads 6.4e-12, and there the full-range sum is itself 1.3e-11 from the closed form
    tol = max(1e-12, s * np.finfo(float).eps)
    for q in (1.0, math.sqrt(s), 2.0 * math.sqrt(s), s / 2.0):
        assert moments_disagreement(oracle_moments_sum(s, q), dicke_sums_reference(s, q), s) <= tol, (s, q)


# every 2S below 400, where the window is the full range, the windows of four spins, 12 drawn 2S up to the cap and the
# cap's 2S = 199,999 and 200,000: the weights' sqrt(P_k P_{k+1}) (oracle) rounds the reference's four factors
# (2S - k)(k + 1)(2S - k - 1)(k + 2), exact until the last while (2S)^3 < 2^53, to the same bits
WINDOW_SPINS = sorted({n / 2.0 for n in range(1, 400)} | {542.5, 1e3, 1e4, 99_999.5, 1e5}
                      | {n / 2.0 for n in np.random.default_rng(3).integers(400, 200_000, 12).tolist()})


@pytest.mark.parametrize("s", WINDOW_SPINS)
def test_oracle_sum_runs_over_exactly_the_product_window(monkeypatch, s):
    # on the full-range amplitudes the sums are the reference summed over lo..2S-lo to the bit: a window one term
    # wider or narrower at each end, or none at all, regroups the pairwise sums or drops nonzero terms
    assert oracle.ORACLE_SUM_CAP == 2 * WINDOW_SPINS[-1] + 1
    a = css_amplitudes_reference(s)
    lo = int(np.argmax(a[:-2] * a[2:] > 0.0)) if len(a) > 2 else 0
    monkeypatch.setattr(oracle, "css_support", lambda s: (0, css_amplitudes_reference(s)))
    qs = [1.0, math.sqrt(s), 2.0 * math.sqrt(s), s / 2.0]
    row = oracle_moments_sum(s, np.array(qs))
    for i, q in enumerate(qs):
        window = dicke_sums_reference(s, q, lo)
        for name in ("mean_sp", "mean_sp2", "var_y", "cov_w"):
            assert getattr(row, name)[i].tobytes() == np.array(getattr(window, name)).tobytes(), (q, name)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(s=st.integers(1, 400).map(lambda two_s: two_s / 2.0) | st.sampled_from([1e4, 1e5]),
       fracs=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=7))
def test_one_call_over_q_repeats_the_call_per_q_bit_for_bit(s, fracs):
    # Q up to S/2, with 0 and repeats: each row of the one (Q, window) phase array is summed on its own
    qs = np.array([f * s / 2.0 for f in fracs])
    row = oracle_moments_sum(s, qs)
    each = [oracle_moments_sum(s, q) for q in qs.tolist()]
    for name in ("mean_sp", "mean_sp2", "var_y", "cov_w"):
        assert getattr(row, name).tobytes() == np.array([getattr(m, name) for m in each]).tobytes(), name


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_one_call_over_fifty_q_repeats_the_call_per_q_bit_for_bit(s):
    # 50 rows of 17,183 terms at S = 1e5 and of 5,409 at S = 1e4, every row as the call at its Q alone
    qs = np.linspace(0.0, s / 2.0, 50)
    row = oracle_moments_sum(s, qs)
    each = [oracle_moments_sum(s, q) for q in qs.tolist()]
    for name in ("mean_sp", "mean_sp2", "var_y", "cov_w"):
        assert getattr(row, name).tobytes() == np.array([getattr(m, name) for m in each]).tobytes(), name


# the bit-identity spins: half-integers, the grid and the cap S = 200
BIT_S = (0.5, 1.0, 2.5, 10.0, 37.5, 50.0, 100.0, 200.0)


def moment_bits(moments):
    """The float64 bit patterns of every moment, real and imaginary parts apart."""
    values = [moments.mean_sp, moments.mean_sp2, moments.var_y, moments.cov_w]
    return np.array([[complex(v).real, complex(v).imag] for v in values]).tobytes()


def channel_disagreement(a, b, s):
    """Largest difference of two moment sets: relative for var_y and cov_w, floored at 1e-8 S for <S_+>
    and at 1e-3 S^2 for <S_+^2>."""
    return max(
        rel_err(a.var_y, b.var_y),
        rel_err(a.cov_w, b.cov_w),
        floored_rel_err(a.mean_sp, b.mean_sp, 1e-8 * s),
        floored_rel_err(a.mean_sp2, b.mean_sp2, 1e-3 * s * s),
    )


class TestChannel:
    def test_identity_at_zero_shearing(self):
        rho = css_density_matrix(20.0)
        out = apply_feedback_channel(rho, 20.0, 0.0)
        assert np.array_equal(out, rho)

    def test_diagonal_invariant(self):
        rng = np.random.default_rng(7)
        for s, q in [(5.0, 1.3), (40.0, 12.0)]:
            rho = _random_density_matrix(rng, round(2 * s) + 1)
            out = apply_feedback_channel(rho, s, q)
            assert np.max(np.abs(np.diag(out) - np.diag(rho))) < 1e-14

    def test_preserves_trace_hermiticity(self):
        rng = np.random.default_rng(11)
        for s in (1.0, 7.5, 50.0):
            for q in (0.4, 3.0, 20.0):
                rho = _random_density_matrix(rng, round(2 * s) + 1)
                out = apply_feedback_channel(rho, s, q)
                assert abs(np.trace(out) - np.trace(rho)) < 1e-14
                assert np.max(np.abs(out - out.conj().T)) < 1e-14

    def test_factor_magnitude_guard(self):
        # a negative shearing flips the damping into growth: hard failure
        with pytest.raises(RuntimeError, match="unit magnitude"):
            channel_factor_matrix(10.0, -1.0)

    def test_second_coherence_damping_exact(self):
        for s, q in [(5.0, 0.7), (100.0, 13.0)]:
            f = channel_factor_matrix(s, q)
            # |factor| on the n = 2 line is e^{-Q/S}, n = 1 is undamped
            two_line = np.abs(np.diagonal(f, offset=2))
            one_line = np.abs(np.diagonal(f, offset=1))
            assert np.max(np.abs(two_line - math.exp(-q / s))) < 1e-14
            assert np.max(np.abs(one_line - 1.0)) < 1e-14

    def test_shape_check(self):
        with pytest.raises(ValueError, match="density matrix"):
            apply_feedback_channel(np.eye(4), 10.0, 1.0)

    def test_channel_reproduces_oracle_s50(self):
        direct = oracle_moments_sum(50.0, 2.0)
        chained = channel_moments(50.0, 2.0)
        assert rel_err(direct.var_y, chained.var_y) < 1e-10
        assert rel_err(direct.cov_w, chained.cov_w) < 1e-10
        assert rel_err(direct.mean_sp, chained.mean_sp) < 1e-10
        assert rel_err(direct.mean_sp2, chained.mean_sp2) < 1e-10

    def test_diagonal_traces_match_dense_traces(self):
        # reference: dense operators assembled from m and c_m, tr(rho A) of products
        for s in (0.5, 1.0, 2.5, 10.0, 37.5, 50.0):
            sp, sy, sz = dense_spin_matrices(s)
            for q in q_grid(s):
                rho = apply_feedback_channel(css_density_matrix(s), s, q)

                def tr(a):
                    return complex(np.trace(rho @ a))

                got = channel_moments(s, q)
                mean_y, mean_z = tr(sy).real, tr(sz).real
                assert abs(got.mean_sp - tr(sp)) < 1e-13 * s, (s, q)
                assert abs(got.mean_sp2 - tr(sp @ sp)) < 1e-13 * s * s, (s, q)
                assert abs(got.var_y - (tr(sy @ sy).real - mean_y ** 2)) < 1e-13 * s, (s, q)
                assert abs(s / 2.0 - (tr(sz @ sz).real - mean_z ** 2)) < 1e-13 * s, (s, q)  # Delta S_z^2 = S/2
                assert abs(got.cov_w - tr(sy @ sz + sz @ sy).real) < 1e-13 * s, (s, q)

    def test_two_oracle_paths_agree_on_grid(self):
        for s in GRID_S:
            for q in q_grid(s):
                err = channel_disagreement(oracle_moments_sum(s, q), channel_moments(s, q), s)
                assert err < 1e-10, (s, q, err)

    def test_banded_channel_is_the_dense_route_to_the_bit(self):
        # the dense map on the dense CSS, traced by the same diagonal code
        for s in BIT_S:
            for q in q_grid(s):
                assert moment_bits(channel_moments(s, q)) == moment_bits(dense_channel_moments(s, q)), (s, q)

    def test_factors_on_a_band_are_the_full_grid_diagonal(self):
        for s in BIT_S:
            m = m_values(s)
            for q in q_grid(s):
                full = channel_factor_matrix(s, q)
                for d in (-2, -1, 0, 1, 2):
                    rows, cols = m[max(0, -d):len(m) - max(0, d)], m[max(0, d):len(m) - max(0, -d)]
                    band = channel_factors(s, q, rows, cols)
                    assert band.tobytes() == np.diagonal(full, d).tobytes(), (s, q, d)

    def test_the_map_leaves_the_populations_untouched(self):
        # F(m, m) is exactly 1 at every m of every spin the channel runs, so Delta S_z^2 stays the CSS's S/2
        # and no route needs to trace it
        for two_s in range(1, 401):
            s = two_s / 2.0
            m = m_values(s)
            for q in q_grid(s):
                assert np.all(channel_factors(s, q, m, m) == 1.0), (s, q)

    def test_the_upper_coherences_are_the_conjugates_of_the_lower(self):
        # channel_moments takes the +1 diagonal as the -1's conjugate; == since the sides differ in signs of zeros
        for two_s in range(1, 401):
            s = two_s / 2.0
            m = m_values(s)
            for q in q_grid(s):
                upper, lower = channel_factors(s, q, m[:-1], m[1:]), channel_factors(s, q, m[1:], m[:-1])
                assert np.array_equal(upper, lower.conj()), (s, q)

    def test_memory_peak_is_banded_at_the_cap(self):
        # the dense route peaks at ~14 MB here: a 401 x 401 complex matrix is 2.6 MB
        tracemalloc.start()
        try:
            channel_moments(200.0, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


# Over 2,000 uniform random draws of the same (2S, Q) the worst disagreement is
# 1.1e-11 (S = 198.5, Q = 97); the bound is the grid test's.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(two_s=st.integers(1, 400), frac=st.floats(0.0, 1.0))
def test_channel_matches_the_sums_property(two_s, frac):
    # every spin up to the channel's cap, half-integers included, Q <= S/2
    s = two_s / 2.0
    q = frac * s / 2.0
    err = channel_disagreement(oracle_moments_sum(s, q), channel_moments(s, q), s)
    assert err < 1e-10, (s, q, err)


class TestDensityMatrixValidation:
    def test_accepts_css(self):
        # Hermitian, unit trace and positive semidefinite
        rho = css_density_matrix(30.0)
        assert rho.shape == (61, 61)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert abs(complex(np.trace(rho)) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_density_matrix_cap(self):
        # the channel refuses a Dicke dimension past DENSITY_DIM_CAP = 401 before any work; S = 200 is the last it runs
        for s, dim in [(500.0, 1001), (200.5, 402)]:
            with pytest.raises(ValueError, match=f"^Dicke dimension {dim} exceeds cap 401$"):
                channel_moments(s, 1.0)
        assert channel_moments(200.0, 0.0).var_y == pytest.approx(100.0, rel=1e-12)


class TestBruteForceMinimum:
    def test_isotropic_at_zero_shearing(self):
        alpha, sig = brute_force_min_variance(10.0, 0.0)
        assert sig == pytest.approx(1.0, rel=1e-12)

    def test_matches_min_variance(self):
        for s, q in [(100.0, 5.0), (30.0, 1.0), (7.5, 0.3)]:
            _, sig = brute_force_min_variance(s, q)
            assert abs(sig - min_variance(analytic_moments(s, q))) < 1e-8, (s, q)

    def test_curvature_penalty_at_large_shearing(self):
        # S=100, Q=60: Q^2 >> S, the minimum stays well above 1/Q
        _, sig = brute_force_min_variance(100.0, 60.0)
        assert sig > 1.0 / 60.0 * 1.5


def _random_density_matrix(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_channel_on_random_mixed_states_preserves_structure():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        dim = int(rng.integers(2, 41))
        s = (dim - 1) / 2.0
        rho = _random_density_matrix(rng, dim)
        out = apply_feedback_channel(rho, s, float(rng.uniform(0.0, 2.0 * s)))
        assert abs(np.trace(out) - 1.0) < 1e-13
        assert np.max(np.abs(out - out.conj().T)) < 1e-14
        assert np.max(np.abs(np.diag(out) - np.diag(rho))) < 1e-14
