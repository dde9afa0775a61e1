"""Raman-scattering degradation of cavity-feedback squeezing.

Raman scattering flips atoms between the two ground states during the
pulse, so the spin precession is driven by the time average Sbar_z rather
than the final S_z.  In units of the pulse, which spans [0, 1], each atom
flips at rate lambda = r (r = mean Raman-scattered photons per atom over the
pulse), and the collective correlation function of independent flips is

    2 <S_z(t1) S_z(t2)> / S = e^{-2 r |t1 - t2|},

which fixes the two normalized moments used by the modified variance:

    c_bar_sq  = 2 <Sbar_z^2> / S      = (2r - 1 + e^{-2r}) / (2 r^2)
    c_bar_fin = 2 <Sbar_z S_z(1)> / S = (1 - e^{-2r}) / (2r)

(double / single time integrals of the exponential kernel; both -> 1 as
r -> 0, and to first order 1 - 2r/3 and 1 - r).

feedback.correlation_integrals evaluates them and
feedback.raman_modified_moments substitutes them into the closed forms;
modified_min_variance and fig2_curve give the resulting squeezing curve.

The Monte Carlo model simulates the telegraph process directly: exact
per-event jumps Delta S_z = +-1 for modest atom numbers, or an
Ornstein-Uhlenbeck aggregate (exact joint sampling of S_z and its running
integral) for large ones.  Trajectories run as arrays in fixed chunks of
_CHUNK, one kernel call each, and chunk c draws from its own PCG64 stream,
child c of the seed's SeedSequence.  Exact mode draws a chunk's events in
blocks of _BLOCK per trajectory still in the pulse: the waiting times and
atom picks of a block are arrays drawn straight into the block buffers, and
only the +-1 chain of the up-atom count steps event by event.  _CHUNK,
_BLOCK and the draw order fix the stream layout, so a seed and a trajectory
count fix the output bits.  sample_trajectories returns its estimates as the
plain dict that raman-mc writes under "stats".
"""

import math
from dataclasses import dataclass

import numpy as np

from .feedback import _G_DOMAIN, min_variance, raman_modified_moments
from .params import nonnegative, positive, twice_spin

# Trajectories per chunk: one kernel call and one PCG64 stream each, ~0.5 MiB a block buffer; exact
# mode draws the events of a chunk in blocks of _BLOCK per trajectory.  Both values are part of the
# stream layout, so changing either changes seeded output.
_CHUNK = 2048
_BLOCK = 32
_LOOKUP = 2 ** 14  # lag samples per pass of the exact-mode lookup; each copies _BLOCK times, ~4 MiB a pass
# Gaussian-mode steps with u = theta h below this take 1 - d and 1 - d^2 (d = e^-u) from expm1 and the var_i
# bracket u - 2(1 - d) + (1 - d^2)/2 ~ u^3/3 from its series, exact to rounding there.  The direct bracket loses
# ~3 eps / u^3 relative: 1.6e-7 at the switch, far below Monte Carlo noise, but 2e27 at u = 1e-15.
_SERIES_BELOW = 1e-3

# Refusal limits from costs measured on a 2-vCPU host.  Exact mode costs ~16-27 us per _PASS_ROWS trajectories x
# r N event on 512 to 4,096 trajectories at 4 lags (~8-13 s at the limit), and ~6-8 us per event on one trajectory;
# gaussian mode ~14 us per step on one trajectory (~7 s; full chunks meet the sample limit first).  A sample costs
# 8 B and ~65-90 ns with its share of the reduction (256 MiB, ~3 s), ~150-160 ns in exact mode at 2,048 lags.
MAX_LOCKSTEP = 500_000  # ceil(n_traj / _PASS_ROWS) * (r N exact, time_steps gaussian)
_PASS_ROWS = 512  # trajectories a lockstep pass counts: a cost unit, not the stream chunk
MAX_SAMPLE_ELEMENTS = 2 ** 25  # n_traj * (time_steps + 1)


def modified_min_variance(total_spin, eta, q):
    """Normalized minimum variance at shearing Q including Raman scattering, elementwise.

    The scattered-photon number follows from Q = 4 S eta r; the full
    G-factor forms keep shot noise, feedback and curvature, and the
    correlation integrals carry the decorrelation.

    The value is normalized to the CSS variance S/2 and not divided by the
    squared contrast C^2 = |<S~_+>|^2 / S^2, so it can fall below the
    closed-form floors of the design module, which are large-S limits of
    xi^2 = sigma^2 / C^2, by about C^2.

    Q must keep Q_eff / S = 2 eta (1 - e^{-2r}) inside the G-factor domain
    (below pi/2, so every Q is allowed for eta <= pi/4); any element outside
    it raises ValueError before the moments are evaluated, for every S.
    """
    # S first, so a non-spin gets the spin message before r is formed
    s = twice_spin(total_spin) / 2.0
    eta, q = positive("eta", eta), positive("shearing strength", q)
    r = q / (4.0 * s * eta)
    x = -2.0 * eta * np.expm1(-2.0 * r)  # Q_eff / S
    outside = np.abs(x) >= _G_DOMAIN
    if outside.any():
        raise ValueError(f"Q_eff / S = {float(np.asarray(x)[outside][0])!r}: outside the principal branch "
                         "|Q_eff / S| < pi/2 of the G factor")
    return min_variance(raman_modified_moments(s, q, r))


def fig2_curve(total_spin, etas, q_grid):
    """Squeezing-vs-Q curves for several cooperativities plus the two reference curves, from one array call.

    Returns one block of CSV columns per eta, (eta, q, sigma_min_sq,
    sigma_curv_sq, sigma_ideal_sq): the scattering-degraded minimum, the
    flat curvature floor (5/4) 6^{-1/5} S^{-2/5}, and the ideal 1/Q line.
    The q and 1/Q lists are the same objects in every block.  A refused
    input raises the ValueError that one curve per eta, in order, meets
    first.
    """
    s = float(total_spin)
    sigma_curv_sq = 1.25 * 6.0 ** (-0.2) * s ** (-0.4)
    eta = np.asarray(etas, dtype=float).ravel()
    q = np.asarray(q_grid, dtype=float).ravel()
    try:
        sigma = modified_min_variance(s, eta[:, None], q)
    except ValueError:
        for e in eta:
            modified_min_variance(s, e, q)
        raise
    q_list, ideal = q.tolist(), (1.0 / q).tolist()
    return [(e, q_list, row, sigma_curv_sq, ideal) for e, row in zip(eta.tolist(), sigma.tolist())]


@dataclass(frozen=True)
class RamanProcess:
    """Telegraph flip process: r scattered photons per atom over the pulse, the unit of time."""

    r: float
    n_atoms: int

    def __post_init__(self):
        nonnegative("r", self.r)
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")


def _defined(x):
    """x as a float, or None where it is nan (undefined)."""
    return None if math.isnan(x) else float(x)


def _simulate_exact(rng, process, s, lag_times, samples, sbar):
    """Exact per-event jumps of one chunk, drawn in blocks of _BLOCK events.

    samples (S_z at the lags) and sbar (Sbar_z) hold one row per trajectory
    and are filled in place.  The N atoms jump at the total rate r N
    whatever the state, so each event is one exponential waiting time and
    one uniform atom pick u, a down-flip iff u N < n_up.  In each block the
    k live rows (those whose last block time is before the pulse end, 1)
    draw the next _BLOCK waiting times, then the _BLOCK picks, each straight
    into a (_BLOCK, k) buffer, and the only per-event Python step is the +-1
    chain of n_up.  The integral of S_z and each lag sample (the level after
    the events at or before the lag) are array operations over the block,
    scattered back through the live index.  Returns the number of jumps.
    """
    m = len(sbar)
    n = process.n_atoms
    rate = process.r * n
    sz = rng.binomial(n, 0.5, size=m) - s
    samples[:] = sz[:, None]
    sbar[:] = sz if rate == 0.0 else 0.0  # S_z held over the pulse, or the start of its running integral
    if rate == 0.0:
        return 0
    # flat block buffers: with k live trajectories the first _BLOCK * k elements are a (_BLOCK, k) array,
    # one row per event and one column per live trajectory
    times_at, picks_at = np.empty(_BLOCK * m), np.empty(_BLOCK * m)
    n_up = np.empty((_BLOCK + 1, m))  # n_up[j]: atoms up before the block's event j
    step = np.empty(m)
    clipped_at = np.empty((_BLOCK + 1, m))  # block start, then event times clipped at 1
    live = np.arange(m)
    now = np.zeros(m)  # block start of each live trajectory, always before 1
    up = sz + s
    n_events = 0
    while live.size:
        k = live.size
        times, picks = (buf[:_BLOCK * k].reshape(_BLOCK, k) for buf in (times_at, picks_at))
        rng.standard_exponential(out=times)
        rng.random(out=picks)
        for prev, row in zip(times, times[1:]):  # the running sum of the waiting times, event row by row
            np.add(prev, row, out=row)
        times /= rate
        times += now
        picks *= n
        live_up, live_step = n_up[:, :k], step[:k]
        live_up[0] = up
        for pick, before, after in zip(picks, live_up, live_up[1:]):
            # copysign(1, 0) = +1: a pick on the boundary u N = n_up flips up
            np.subtract(pick, before, out=live_step)
            np.copysign(1.0, live_step, out=live_step)
            np.add(before, live_step, out=after)
        level = live_up[:_BLOCK]  # live_up[_BLOCK] keeps the count carried to the next block
        level -= s  # S_z held from event j - 1 (or now) to event j
        clipped, held_for = clipped_at[:, :k], picks  # the chain has spent the picks
        clipped[0] = now
        np.minimum(times, 1.0, out=clipped[1:])
        np.subtract(clipped[1:], clipped[:-1], out=held_for)
        sbar[live] += np.einsum("jk,jk->k", level, held_for)
        n_events += int(np.count_nonzero(times < 1.0))
        last = times[-1]
        # the block's lag samples: each live trajectory's lags in [now, last), one run of lag indices;
        # the runs are numbered end to end, and a pass takes _LOOKUP of those numbers
        stop = np.searchsorted(lag_times, last)
        ends = np.cumsum(stop - np.searchsorted(lag_times, now))  # number past each trajectory's run
        shift = stop - ends
        for at in range(0, ends[-1], _LOOKUP):
            number = np.arange(at, min(at + _LOOKUP, ends[-1]))
            rows = np.searchsorted(ends, number, side="right")
            lags = number + shift[rows]
            passed = (times[:, rows] <= lag_times[lags]).sum(axis=0, dtype=np.uint8)  # at most _BLOCK events
            samples[live[rows], lags] = level[passed, rows]
        going = last < 1.0
        live, now, up = live[going], last[going], live_up[_BLOCK][going]
    return n_events


def _simulate_gaussian(rng, process, s, lag_times, samples, sbar):
    """Ornstein-Uhlenbeck aggregate trajectories of one chunk, with exact joint sampling.

    samples and sbar are as in _simulate_exact.  theta = 2 r, stationary
    variance S/2; per step the pair (S_z(end), integral of S_z) is drawn
    from its exact joint Gaussian, whose coefficients are scalars shared by
    the whole chunk, with (2, m) standard normals drawn straight into one
    buffer.
    """
    theta = 2.0 * process.r
    var_st = s / 2.0
    z = rng.normal(0.0, math.sqrt(var_st), size=len(sbar))
    samples[:, 0] = z
    sbar[:] = 0.0  # the running integral of S_z
    x = np.empty((2, len(sbar)))
    for i in range(1, len(lag_times)):
        h = lag_times[i] - lag_times[i - 1]
        decay = math.exp(-theta * h)
        if decay == 1.0:  # theta = 0, or so small that the step's decay rounds to 1 (var_z would be 0)
            sbar += z * h
            samples[:, i] = z
            continue
        u = theta * h
        if u < _SERIES_BELOW:
            # u - 2(1 - d) + (1 - d^2)/2 = sum_{n>=3} (-1)^(n+1) (2^(n-1) - 2) u^n / n!, to u^7
            one_m_d, one_m_d2 = -math.expm1(-u), -math.expm1(-2.0 * u)
            var_i = 2.0 * var_st * theta * h ** 3 * (1 / 3 - u * (1 / 4 - u * (7 / 60 - u * (1 / 24 - u * 31 / 2520))))
        else:
            one_m_d, one_m_d2 = 1.0 - decay, 1.0 - decay * decay
            var_i = (2.0 * var_st / theta) * (h - 2.0 * one_m_d / theta + one_m_d2 / (2.0 * theta))
        var_z = var_st * one_m_d2
        cov_zi = var_st * one_m_d ** 2 / theta
        sd_z = math.sqrt(var_z)
        resid = max(var_i - cov_zi * cov_zi / var_z, 0.0)
        rng.standard_normal(out=x)
        x1, x2 = x
        sbar += z * (one_m_d / theta) + (cov_zi / sd_z) * x1 + math.sqrt(resid) * x2
        z = z * decay + sd_z * x1
        samples[:, i] = z
    return 0


def _mean_se(values):
    """Column means and standard errors of an (n, k) sample array, one pass per moment.

    Overwrites values with the squared deviations.  The standard error is
    nan (undefined) for n < 2.
    """
    n = len(values)
    mean = values.sum(axis=0) / n
    if n < 2:
        return mean, np.full_like(mean, np.nan)
    values -= mean
    np.square(values, out=values)
    return mean, np.sqrt(values.sum(axis=0) / (n - 1) / n)


def _run_chunks(process, n_traj, lag_times, seed, exact):
    """S_z at the lags, Sbar_z and the jump count of n_traj trajectories, one kernel call a chunk."""
    simulate = _simulate_exact if exact else _simulate_gaussian
    sz_samples, sbar = np.empty((n_traj, len(lag_times))), np.empty(n_traj)
    n_events = 0
    for chunk, start in enumerate(range(0, n_traj, _CHUNK)):
        # the only streams of the program: chunk c draws from child c of the seed's SeedSequence
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(chunk,))))
        rows = slice(start, start + _CHUNK)
        n_events += simulate(rng, process, process.n_atoms / 2.0, lag_times, sz_samples[rows], sbar[rows])
    return sz_samples, sbar, n_events


def sample_trajectories(process, n_traj, time_steps, seed, mode="exact"):
    """Monte Carlo statistics of the telegraph-driven collective S_z of S = n_atoms / 2.

    Parameters
    ----------
    process : RamanProcess
    n_traj, time_steps : int
        Trajectory count (>= 1) and number of lag intervals (>= 1); S_z is
        sampled at time_steps + 1 uniform times spanning the pulse [0, 1].
    seed : int
        Base seed in [0, 2**128), required; trajectories run in chunks of
        _CHUNK, one kernel call each, and chunk c draws from a PCG64 stream
        seeded by child c of SeedSequence(seed), so the seed and n_traj fix
        the output bits.
    mode : {"exact", "gaussian"}
        Both modes refuse runs of more than MAX_LOCKSTEP lockstep passes
        (r N events in exact mode, time_steps in gaussian mode, per started
        _PASS_ROWS trajectories) or MAX_SAMPLE_ELEMENTS samples (ValueError,
        no work done).

    Returns the JSON-ready estimates, floats and lists of floats, with their
    standard errors: corr[l] estimates 2 <S_z(0) S_z(lags[l])> / S, lags in
    units of the pulse, target e^{-2 r lag}; mean_sz_bar_sq and cov_bar_final
    estimate <Sbar_z^2> and <Sbar_z S_z(1)> (raw spin units, target (S/2)
    c_bar_*); n_events counts the jumps simulated (0 in gaussian mode).  A
    standard error is None where it is undefined (one trajectory).
    """
    if seed is None:
        raise ValueError("seed is required for reproducible Monte Carlo")
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if time_steps < 1:
        raise ValueError("invalid step count")
    if mode not in ("exact", "gaussian"):
        raise ValueError(f"unknown mode {mode!r}")
    s = process.n_atoms / 2.0
    elements = n_traj * (time_steps + 1)
    if elements > MAX_SAMPLE_ELEMENTS:
        raise ValueError(f"{elements} S_z samples (trajectories x (steps + 1)) exceed the limit "
                         f"MAX_SAMPLE_ELEMENTS = {MAX_SAMPLE_ELEMENTS}; use fewer trajectories or steps")
    exact = mode == "exact"
    lockstep = math.ceil(n_traj / _PASS_ROWS) * (process.r * process.n_atoms if exact else time_steps)
    if lockstep > MAX_LOCKSTEP:
        per_unit, advice = (("r N events", "use --mode gaussian") if exact
                            else ("steps", "use fewer trajectories or steps"))
        raise ValueError(f"{mode} mode would take ~{lockstep:.4g} lockstep passes ({_PASS_ROWS}-trajectory units x "
                         f"{per_unit}), above the limit MAX_LOCKSTEP = {MAX_LOCKSTEP}; {advice}")

    lag_times = np.linspace(0.0, 1.0, time_steps + 1)
    sz_samples, sbar, n_events = _run_chunks(process, n_traj, lag_times, seed, exact)
    (sbar_sq, covf), (sbar_sq_se, covf_se) = _mean_se(np.stack((sbar * sbar, sbar * sz_samples[:, -1]), axis=1))
    # a copied column 0: multiplying by a view of it would copy the whole array
    sz_samples *= sz_samples[:, :1].copy()
    corr, corr_se = _mean_se(sz_samples)
    scale = 2.0 / s
    return {
        "n_trajectories": n_traj,
        "n_events": n_events,
        "mean_sz_bar_sq": float(sbar_sq),
        "mean_sz_bar_sq_se": _defined(sbar_sq_se),
        "cov_bar_final": float(covf),
        "cov_bar_final_se": _defined(covf_se),
        "lags": lag_times.tolist(),
        "corr": (scale * corr).tolist(),
        "corr_se": [_defined(x) for x in (scale * corr_se).tolist()],
    }
