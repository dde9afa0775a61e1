"""Raman-scattering degradation of cavity-feedback squeezing: the telegraph Monte Carlo and fig2.

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

feedback.correlation_integrals evaluates them, and feedback's closed forms
take them: feedback.modified_min_variance gives the resulting squeezing
curve at (S, eta, Q), and fig2_curve lays it out for fig2.

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
count fix the output bits.  RamanProcess is a plain NamedTuple (r, n_atoms)
and sample_trajectories checks every input of a run in one block, r and N
first; it returns its estimates as the plain dict raman-mc writes under "stats".
"""

import math
from typing import NamedTuple

import numpy as np

from .feedback import _curvature_optimum, correlation_integrals, modified_min_variance
from .params import nonnegative

# Trajectories per chunk: one kernel call and one PCG64 stream each, ~0.5 MiB a block buffer; exact
# mode draws the events of a chunk in blocks of _BLOCK per trajectory.  Both values are part of the
# stream layout, so changing either changes seeded output.
_CHUNK = 2048
_BLOCK = 32
_ROLL = 8  # gaussian steps per normal draw and per copy into the samples: not part of the stream layout
_LOOKUP = 2 ** 14  # lag samples per pass of the exact-mode lookup; each holds ~6 index or time arrays, ~1 MiB a pass
_PROBES = [_BLOCK >> i for i in range(1, _BLOCK.bit_length())]  # its search steps _BLOCK / 2, ..., 1 (_BLOCK = 2^5)

# Refusal limits from costs measured on a 2-vCPU host.  Exact mode costs ~11-35 us per _PASS_ROWS trajectories x
# r N event on 512 to 4,096 trajectories at 4 lags (~6-17 s at the limit), and ~5-10 us per event on one trajectory;
# gaussian mode ~7-14 us per step on one trajectory (~4-7 s; full chunks meet the sample limit first).  A sample costs
# 8 B and ~65-90 ns with its share of the reduction (256 MiB, ~3 s), ~60-75 ns in exact mode at 2,048 lags.
MAX_LOCKSTEP = 500_000  # ceil(n_traj / _PASS_ROWS) * (r N exact, time_steps gaussian)
_PASS_ROWS = 512  # trajectories a lockstep pass counts: a cost unit, not the stream chunk
MAX_SAMPLE_ELEMENTS = 2 ** 25  # n_traj * (time_steps + 1)


def fig2_curve(total_spin, etas, q_grid):
    """Squeezing-vs-Q curves for several cooperativities plus the two reference curves, from one array call.

    Returns one block of CSV columns per eta, (eta, q, sigma_min_sq,
    sigma_curv_sq, sigma_ideal_sq): the scattering-degraded minimum, the
    flat curvature floor (5/4) 6^{-1/5} S^{-2/5} of feedback's
    _curvature_optimum, the one design and sweep print, and the ideal 1/Q
    line.  The q and 1/Q lists are the same objects in every block.  A
    refused input raises modified_min_variance's ValueError.
    """
    s = float(total_spin)
    eta = np.asarray(etas, dtype=float).ravel()
    q = np.asarray(q_grid, dtype=float).ravel()
    sigma = modified_min_variance(s, eta[:, None], q)
    sigma_curv_sq = float(_curvature_optimum(s)[1])  # after the call has checked S: np.power warns on a bad one
    with np.errstate(over="ignore"):  # past the float range at a subnormal Q: refused
        ideal = nonnegative("sigma_ideal_sq = 1 / Q (--qmin)", 1.0 / q)
    q_list, ideal = q.tolist(), ideal.tolist()
    return [(e, q_list, row, sigma_curv_sq, ideal) for e, row in zip(eta.tolist(), sigma.tolist())]


class RamanProcess(NamedTuple):
    """Telegraph flip process of n_atoms atoms: r scattered photons per atom over the pulse, the unit of time."""

    r: float
    n_atoms: int


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
    chain of n_up.  Each lag sample (the level after the events at or before
    the lag) comes from a binary search over the block's sorted event times,
    from the lag where the row's last block stopped; those times are then
    clipped at 1 in place, unless none reaches 1 and all _BLOCK k events
    count, and their differences, held in the spent pick buffer, integrate
    S_z.  Both are array operations over the block, scattered back through
    the live index.  Returns the number of jumps.
    """
    m = len(sbar)
    n = process.n_atoms
    rate = process.r * n
    sz = rng.binomial(n, 0.5, size=m) - s
    samples[:] = sz[:, None]
    sbar[:] = sz if rate == 0.0 else 0.0  # S_z held over the pulse, or the start of its running integral
    if rate == 0.0:
        return 0
    # flat block buffers: with k live trajectories the first _BLOCK * k elements (_BLOCK + 1 rows of up_at)
    # are a (_BLOCK, k) array, one row per event and one column per live trajectory
    times_at, picks_at, up_at = np.empty(_BLOCK * m), np.empty(_BLOCK * m), np.empty((_BLOCK + 1) * m)
    step = np.empty(m)
    live = np.arange(m)
    now = np.zeros(m)  # block start of each live trajectory, always before 1
    up = sz + s
    start = np.zeros(m, dtype=np.intp)  # first lag index at or after now: the stop of the row's last block
    n_events = 0
    while live.size:
        k = live.size
        times, picks = (buf[:_BLOCK * k].reshape(_BLOCK, k) for buf in (times_at, picks_at))
        live_up = up_at[:(_BLOCK + 1) * k].reshape(_BLOCK + 1, k)  # live_up[j]: atoms up before the block's event j
        rng.standard_exponential(out=times)
        rng.random(out=picks)
        for prev, row in zip(times, times[1:]):  # the running sum of the waiting times, event row by row
            np.add(prev, row, out=row)
        with np.errstate(over="ignore"):  # past the float range at a subnormal rate: inf, no event in the pulse
            times /= rate
        times += now
        picks *= n
        live_step = step[:k]
        live_up[0] = up
        for pick, before, after in zip(picks, live_up, live_up[1:]):
            # copysign(1, 0) = +1: a pick on the boundary u N = n_up flips up
            np.subtract(pick, before, out=live_step)
            np.copysign(1.0, live_step, out=live_step)
            np.add(before, live_step, out=after)
        level = live_up[:_BLOCK]  # live_up[_BLOCK] keeps the count carried to the next block
        level -= s  # S_z held from event j - 1 (or now) to event j
        last = times[-1]
        going = last < 1.0
        stay = going.all()  # no time reaches 1: nothing to clip, and every event counts
        # the block's lag samples: each live trajectory's lags in [now, last), one run of lag indices;
        # the runs are numbered end to end, and a pass takes _LOOKUP of those numbers
        stop = np.searchsorted(lag_times, last)
        ends = np.cumsum(stop - start)  # number past each trajectory's run
        shift = stop - ends
        for at in range(0, ends[-1], _LOOKUP):
            number = np.arange(at, min(at + _LOOKUP, ends[-1]))
            rows = np.searchsorted(ends, number, side="right")
            lags = number + shift[rows]
            at_lag = lag_times[lags]
            # a lag sample lies before last = times[-1], so at most _BLOCK - 1 events come at or before it, and
            # log2(_BLOCK) probes of a binary search over the sorted times count them: unclipped, so a lag at 1
            # passes no event after the pulse end
            event = rows.copy()  # flat index j k + row into the block buffers: j events come at or before the lag
            for probe in _PROBES:
                event += (probe * k) * (times_at.take(event + (probe - 1) * k) <= at_lag)
            samples[live[rows], lags] = up_at.take(event)  # level[j]
        # a block whose last event lands on 1 exactly ends the trajectory before its t = 1 sample, which comes
        # after all _BLOCK events: the carried count, where the search above reaches only _BLOCK - 1 of them
        ends_at_1 = last == 1.0
        if ends_at_1.any():
            samples[live[ends_at_1], -1] = live_up[_BLOCK][ends_at_1] - s
        if not stay:  # only times >= 1 change: times < 1 and last < 1 (a view) read as before
            np.minimum(times, 1.0, out=times)
        held_for = picks  # the chain has spent the picks
        np.subtract(times[0], now, out=held_for[0])
        np.subtract(times[1:], times[:-1], out=held_for[1:])
        sbar[live] += np.einsum("jk,jk->k", level, held_for)
        n_events += _BLOCK * k if stay else int(np.count_nonzero(times < 1.0))
        live, now, up, start = live[going], last[going], live_up[_BLOCK][going], stop[going]
    return n_events


def _simulate_gaussian(rng, process, s, lag_times, samples, sbar):
    """Ornstein-Uhlenbeck aggregate trajectories of one chunk, with exact joint sampling.

    samples and sbar are as in _simulate_exact.  theta = 2 r, stationary
    variance S/2; a step of length h draws (S_z(end), integral of S_z) from
    their exact joint Gaussian given S_z(start), whose moments come from
    correlation_integrals(r h) at a = theta h, d = e^-a: the integral's mean
    S_z(start) h c_bar_fin and variance (S/2) h^2 (c_bar_sq - c_bar_fin^2),
    Var S_z(end) = (S/2)(1 - d^2) and the covariance (S/2) h c_bar_fin (1 - d).
    Their gains are formed once, as arrays over the steps.  The steps go in
    rolls of _ROLL: one draw fills a (_ROLL, 2, m) buffer, the bits of one
    (2, m) draw a step as the stream fills in order; each step's S_z takes
    the contiguous row of its spent first normals, and the roll's rows are
    copied into samples at once.
    """
    var_st = s / 2.0
    h = np.diff(lag_times)
    c_sq, c_fin = correlation_integrals(process.r * h)
    with np.errstate(over="ignore"):  # -2 r h past the float range is -inf: the step forgets S_z(start)
        decay = np.exp(-2.0 * (process.r * h))
    mean_gain = h * c_fin
    sd_z = np.sqrt(var_st * (1.0 - decay * decay))
    cov_zi = var_st * mean_gain * (1.0 - decay)
    # where d rounds to 1, sd_z and cov_zi are 0 and both noise gains 0: S_z holds bit for bit, as at r = 0
    gain_z = cov_zi / np.where(sd_z > 0.0, sd_z, 1.0)
    var_resid = var_st * h * h * (c_sq - c_fin * c_fin) - gain_z * gain_z  # Var of the integral given both ends
    gain_i = np.sqrt(np.where(sd_z > 0.0, np.maximum(var_resid, 0.0), 0.0))
    z = rng.normal(0.0, math.sqrt(var_st), size=len(sbar))
    samples[:, 0] = z
    sbar[:] = 0.0  # the running integral of S_z
    x = np.empty((_ROLL, 2, len(sbar)))
    views = list(zip(x[:, 0], x[:, 1]))
    steps = zip(mean_gain.tolist(), gain_z.tolist(), gain_i.tolist(), decay.tolist(), sd_z.tolist())
    for a in range(1, len(h) + 1, _ROLL):
        roll, z = views[:len(h) + 1 - a], z.copy()  # the draw overwrites the row z ended the last roll in
        rng.standard_normal(out=x[:len(roll)])
        for (x1, x2), (mean, g_z, g_i, d, sd) in zip(roll, steps):  # roll first: its end takes no step
            sbar += z * mean + g_z * x1 + g_i * x2
            z = np.add(z * d, sd * x1, out=x1)  # x1 is spent: the step's S_z takes its row
        samples[:, a:a + len(roll)] = x[:len(roll), 0].T
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
        Refused first (ValueError): an r that is negative or not finite, then N = n_atoms < 1.
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
    nonnegative("r", process.r)
    if process.n_atoms < 1:
        raise ValueError("need at least one atom")
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
