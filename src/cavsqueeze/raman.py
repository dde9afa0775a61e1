"""Raman-scattering degradation of cavity-feedback squeezing.

Raman scattering flips atoms between the two ground states during the
pulse, so the spin precession is driven by the time average Sbar_z rather
than the final S_z(t).  For independent per-atom telegraph flips at rate
lambda = r/t (r = mean Raman-scattered photons per atom over the pulse) the
collective correlation function is

    2 <S_z(t1) S_z(t2)> / S = e^{-2 r |t1 - t2| / t},

which fixes the two normalized moments used by the modified variance:

    c_bar_sq  = 2 <Sbar_z^2> / S      = (2r - 1 + e^{-2r}) / (2 r^2)
    c_bar_fin = 2 <Sbar_z S_z(t)> / S = (1 - e^{-2r}) / (2r)

(double / single time integrals of the exponential kernel; both -> 1 as
r -> 0, and to first order 1 - 2r/3 and 1 - r).

Substitution recipe for the closed forms: in the large-S limit the pair
(Sbar_z, S_z(t)) is jointly Gaussian, so Sbar_z = c_bar_fin S_z(t) + xi
with xi independent of S_z(t) and Var(xi) = (S/2)(c_bar_sq - c_bar_fin^2).
The quantum Dicke sums are then evaluated at the reduced coupling
Q_eff = Q c_bar_fin while xi contributes classical Gaussian dephasing
exp(-n^2 Q^2 (c_bar_sq - c_bar_fin^2) / (4S)) on the n-th coherence.  At
r = 0 this is the no-scattering form (feedback.analytic_moments is this
body at r = 0), and in the large-S, small-r regime the minimum variance
reduces to 1/Q + 4r/3 with r = Q/(4 S eta).

The Monte Carlo model simulates the telegraph process directly: exact
per-event jumps Delta S_z = +-1 for modest atom numbers, or an
Ornstein-Uhlenbeck aggregate (exact joint sampling of S_z and its running
integral) for large ones.  Trajectories run as arrays in fixed chunks of
_CHUNK, and each chunk draws from one counter-based Philox stream keyed by
(seed, chunk index).  Exact mode draws a chunk's events in blocks of _BLOCK
per trajectory: the waiting times and atom picks of a block are arrays, and
only the +-1 chain of the up-atom count steps event by event.  _CHUNK and
_BLOCK fix the stream layout, so a seed and a trajectory count fix the
output bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .feedback import MomentSet, _check_g_domain, _cos_power, _scalar, extremal_variances, g_factor

# Trajectories per chunk: one array pass and one Philox stream each; exact
# mode draws the events of a chunk in blocks of _BLOCK per trajectory.  Both
# values are part of the stream layout, so changing either changes seeded output.
_CHUNK = 512
_BLOCK = 32

# Refusal limits from costs measured on a 2-vCPU host.  Exact mode costs
# ~30-35 us per r N event on a full chunk at 4 lags (~17 s at the limit) and
# ~5 us on a one-trajectory chunk; gaussian mode ~20 us per step on a
# one-trajectory chunk (~10 s; full chunks meet the sample limit first); a
# sample costs 8 B and ~220 ns (256 MiB, ~7 s).
MAX_LOCKSTEP = 500_000  # ceil(n_traj / _CHUNK) * (r N exact, time_steps gaussian)
MAX_SAMPLE_ELEMENTS = 2 ** 25  # n_traj * (time_steps + 1)

# Series of the correlation integrals below a = 2r = 0.5:  c_bar_sq =
# 2 sum_j (-a)^j/(j+2)!,  c_bar_fin = sum_j (-a)^j/(j+1)!.  16 terms leave a
# remainder under 1e-19; the (c_bar_sq, c_bar_fin) coefficient pairs are
# listed highest power first for Horner's rule.
_SERIES = [(2.0 / math.factorial(j + 2), 1.0 / math.factorial(j + 1)) for j in reversed(range(16))]


def correlation_integrals(r):
    """Normalized moments (c_bar_sq, c_bar_final) of the time-averaged S_z, elementwise.

    Closed forms of the exponential-kernel time integrals; a series is used
    below 2r = 0.5, where the closed forms lose digits to cancellation.
    """
    r = np.asarray(r, dtype=float)[()]
    if (r < 0.0).any():
        raise ValueError("r must be nonnegative")
    a = 2.0 * r
    x = -np.minimum(a, 0.5)
    sq_series = fin_series = 0.0
    for sq_coef, fin_coef in _SERIES:
        sq_series = sq_series * x + sq_coef
        fin_series = fin_series * x + fin_coef
    a_closed = np.maximum(a, 0.5)
    ea = np.exp(-a_closed)
    small = a < 0.5
    c_sq = np.where(small, sq_series, (a_closed - 1.0 + ea) * 2.0 / (a_closed * a_closed))
    c_fin = np.where(small, fin_series, (1.0 - ea) / a_closed)
    return _scalar(c_sq), _scalar(c_fin)


def raman_modified_moments(total_spin, q, r):
    """Closed-form MomentSet with the time-averaged-S_z substitution, broadcast over (S, Q, r).

    This is the one closed-form body: feedback.analytic_moments is its r = 0
    case by construction.  var_z stays S/2 (the telegraph process is
    stationary on the CSS ensemble).
    """
    # 0-d inputs become numpy scalars, whose arithmetic costs less than 0-d arrays'
    s, q, r = (np.asarray(v, dtype=float)[()] for v in (total_spin, q, r))
    if (q < 0.0).any() or (r < 0.0).any():
        raise ValueError("q and r must be nonnegative")
    two_s = np.rint(2.0 * s)
    c_sq, c_fin = correlation_integrals(r)
    xi_var = np.maximum(c_sq - c_fin * c_fin, 0.0)  # >= 0 by Cauchy-Schwarz
    d1 = np.exp(-q * q * xi_var / (4.0 * s))
    q_eff = q * c_fin

    g_half = g_factor(s, q_eff / 2.0)
    mean_sp = d1 * s * g_half * np.exp(1j * (q_eff / (2.0 * s)))
    # the factor 2S - 1 makes <S_+^2> vanish on a single spin-1/2
    cos_power = _cos_power(q_eff / s, np.maximum(two_s - 2.0, 0.0))
    mag = np.power(d1, 4.0) * (s * (two_s - 1.0) / 2.0) * cos_power * np.exp(-q / s)
    mean_sp2 = mag * np.exp(1j * ((2.0 * q_eff - q) / s))
    second_y = (2.0 * s * s + s) / 4.0 - mean_sp2.real / 2.0
    return MomentSet(
        total_spin=_scalar(s),
        shearing_q=_scalar(q),
        mean_sp=_scalar(mean_sp),
        mean_sp2=_scalar(mean_sp2),
        var_y=_scalar(second_y - np.square(mean_sp.imag)),
        var_z=_scalar(s / 2.0),
        cov_w=_scalar(d1 * (2.0 * s * s - s) * np.sin(q_eff / (2.0 * s)) * g_half),
    )


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
    s, eta, q = (np.asarray(v, dtype=float)[()] for v in (total_spin, eta, q))
    if (q <= 0.0).any():
        raise ValueError("shearing strength must be positive")
    if (s * eta <= 0.0).any():
        raise ValueError("collective cooperativity S*eta must be positive")
    r = q / (4.0 * s * eta)
    _check_g_domain(-2.0 * eta * np.expm1(-2.0 * r))
    return extremal_variances(raman_modified_moments(s, q, r)).sigma_min_sq


def fig2_curve(total_spin, eta, q_grid):
    """Squeezing-vs-Q curve plus the two reference curves, from one array call.

    Returns a list of rows (q, sigma_min_sq, sigma_curv_sq, sigma_ideal_sq):
    the scattering-degraded minimum, the flat curvature floor
    (5/4) 6^{-1/5} S^{-2/5}, and the ideal 1/Q line.
    """
    s = float(total_spin)
    sigma_curv_sq = 1.25 * 6.0 ** (-0.2) * s ** (-0.4)
    q = np.asarray(q_grid, dtype=float).ravel()
    sigma = modified_min_variance(s, eta, q)
    return [(qi, si, sigma_curv_sq, 1.0 / qi) for qi, si in zip(q.tolist(), sigma.tolist())]


@dataclass(frozen=True)
class RamanProcess:
    """Telegraph flip process: r scattered photons per atom over pulse_time."""

    r: float
    pulse_time: float
    n_atoms: int
    flip_rate: float = 0.0  # per atom, derived: r / pulse_time

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("r must be nonnegative")
        if not math.isfinite(self.r):
            raise ValueError("r must be finite")
        if self.pulse_time <= 0.0:
            raise ValueError("pulse_time must be positive")
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        object.__setattr__(self, "flip_rate", self.r / self.pulse_time)


@dataclass(frozen=True)
class TrajectoryStats:
    """Monte Carlo estimates with standard errors.

    corr[l] estimates 2 <S_z(0) S_z(lag_l)> / S on the lag grid; the target
    is e^{-2 r lag / t}.  mean_sz_bar_sq and cov_bar_final estimate
    <Sbar_z^2> and <Sbar_z S_z(t)> (raw spin units, target (S/2) c_bar_*).
    n_events is the number of jumps simulated (0 in gaussian mode).
    """

    n_trajectories: int
    n_events: int
    mean_sz_bar_sq: float
    mean_sz_bar_sq_se: float
    cov_bar_final: float
    cov_bar_final_se: float
    lags: np.ndarray
    corr: np.ndarray
    corr_se: np.ndarray

    def as_dict(self):
        return {
            "n_trajectories": self.n_trajectories,
            "n_events": self.n_events,
            "mean_sz_bar_sq": self.mean_sz_bar_sq,
            "mean_sz_bar_sq_se": self.mean_sz_bar_sq_se,
            "cov_bar_final": self.cov_bar_final,
            "cov_bar_final_se": self.cov_bar_final_se,
            "lags": [float(x) for x in self.lags],
            "corr": [float(x) for x in self.corr],
            "corr_se": [float(x) for x in self.corr_se],
        }


def _simulate_exact(rng, process, s, lag_times, m):
    """m trajectories of exact per-event jumps, drawn in blocks of _BLOCK events.

    The N atoms jump at the total rate N lambda whatever the state, so each
    event is one exponential waiting time and one uniform atom pick u, a
    down-flip iff u N < n_up.  A block draws the next _BLOCK waiting times
    of every trajectory as an (m, _BLOCK) array and the picks as a
    (_BLOCK, m) array; the only per-event Python step is the +-1 chain of
    n_up, after which S_z(lag) and the running integral of S_z come from
    array operations over the block.  Events past t are drawn but not used;
    blocks repeat until every trajectory's last event time reaches t.
    Returns (S_z at the lags, Sbar_z, number of jumps).
    """
    n = process.n_atoms
    t = process.pulse_time
    rate = process.flip_rate * n
    sz = rng.binomial(n, 0.5, size=m) - s
    samples = np.repeat(sz[:, None], len(lag_times), axis=1)
    if rate == 0.0:
        return samples, sz, 0
    rows = np.arange(m)[:, None]
    # times clipped at 2t and offset by 4t per row: one searchsorted serves every row
    offset = (4.0 * t) * rows
    queries = (lag_times + offset).ravel()
    n_up = np.empty((_BLOCK + 1, m))  # n_up[k]: atoms up before the block's event k
    n_up[_BLOCK] = sz + s  # the last row carries into the next block's first
    step = np.empty(m)
    now = np.zeros(m)
    integral = np.zeros(m)
    n_events = 0
    while True:
        times = np.cumsum(rng.standard_exponential((m, _BLOCK)), axis=1)
        times /= rate
        times += now[:, None]
        picks = rng.random((_BLOCK, m)) * n
        n_up[0] = n_up[_BLOCK]
        for k in range(_BLOCK):
            # copysign(1, 0) = +1: a pick on the boundary u N = n_up flips up
            np.subtract(picks[k], n_up[k], out=step)
            np.copysign(1.0, step, out=step)
            np.add(n_up[k], step, out=n_up[k + 1])
        level = n_up[:_BLOCK] - s  # S_z held from event k - 1 (or now) to event k
        # a trajectory that finished in an earlier block has now > t: clip the start too
        held_for = np.diff(np.minimum(times, t), axis=1, prepend=np.minimum(now, t)[:, None])
        integral += np.einsum("km,mk->m", level, held_for)
        keys = np.minimum(times, 2.0 * t)
        keys += offset
        k_lag = np.searchsorted(keys.ravel(), queries, side="right").reshape(m, -1) - _BLOCK * rows
        last = times[:, -1]
        in_block = (lag_times >= now[:, None]) & (lag_times < last[:, None])
        np.copyto(samples, level[np.minimum(k_lag, _BLOCK - 1), rows], where=in_block)
        n_events += int(np.count_nonzero(times < t))
        if (last >= t).all():
            return samples, integral / t, n_events
        now = last


def _simulate_gaussian(rng, process, s, lag_times, m):
    """m Ornstein-Uhlenbeck aggregate trajectories with exact joint sampling.

    theta = 2 lambda, stationary variance S/2; per step the pair
    (S_z(end), integral of S_z) is drawn from its exact joint Gaussian, whose
    coefficients are scalars shared by the whole chunk.
    """
    t = process.pulse_time
    theta = 2.0 * process.flip_rate
    var_st = s / 2.0
    z = rng.normal(0.0, math.sqrt(var_st), size=m)
    samples = np.empty((m, len(lag_times)))
    samples[:, 0] = z
    integral = np.zeros(m)
    for i in range(1, len(lag_times)):
        h = lag_times[i] - lag_times[i - 1]
        if theta == 0.0:
            integral += z * h
            samples[:, i] = z
            continue
        decay = math.exp(-theta * h)
        var_z = var_st * (1.0 - decay * decay)
        var_i = (2.0 * var_st / theta) * (
            h - 2.0 * (1.0 - decay) / theta + (1.0 - decay * decay) / (2.0 * theta)
        )
        cov_zi = var_st * (1.0 - decay) ** 2 / theta
        sd_z = math.sqrt(var_z)
        resid = max(var_i - cov_zi * cov_zi / var_z, 0.0)
        x1, x2 = rng.standard_normal((2, m))
        integral += z * ((1.0 - decay) / theta) + (cov_zi / sd_z) * x1 + math.sqrt(resid) * x2
        z = z * decay + sd_z * x1
        samples[:, i] = z
    return samples, integral / t, 0


def _mean_se(values):
    """Mean and standard error with compensated summation."""
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    if n < 2:
        return mean, float("inf")
    var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
    return mean, math.sqrt(var / n)


def sample_trajectories(process, total_spin, n_traj, time_steps, seed, mode="exact"):
    """Monte Carlo statistics of the telegraph-driven collective S_z.

    Parameters
    ----------
    process : RamanProcess
    total_spin : float
        Must equal n_atoms / 2.
    n_traj, time_steps : int
        Trajectory count (>= 1) and number of lag intervals (>= 1); S_z is
        sampled at time_steps + 1 uniform times spanning [0, t].
    seed : int
        Base seed, required; trajectories run in chunks of _CHUNK, chunk c
        drawing from the (seed, c) Philox stream.
    mode : {"exact", "gaussian"}
        Both modes refuse runs of more than MAX_LOCKSTEP lockstep passes
        (chunks x r N events in exact mode, chunks x time_steps in gaussian
        mode) or MAX_SAMPLE_ELEMENTS samples (ValueError, no work done).
    """
    if seed is None:
        raise ValueError("seed is required for reproducible Monte Carlo")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if time_steps < 1:
        raise ValueError("invalid step count")
    if mode not in ("exact", "gaussian"):
        raise ValueError(f"unknown mode {mode!r}")
    s = float(total_spin)
    if round(2.0 * s) != process.n_atoms:
        raise ValueError("total_spin must equal n_atoms / 2")
    elements = n_traj * (time_steps + 1)
    if elements > MAX_SAMPLE_ELEMENTS:
        raise ValueError(f"{elements} S_z samples (trajectories x (steps + 1)) exceed the limit "
                         f"MAX_SAMPLE_ELEMENTS = {MAX_SAMPLE_ELEMENTS}; use fewer trajectories or steps")
    exact = mode == "exact"
    lockstep = math.ceil(n_traj / _CHUNK) * (process.r * process.n_atoms if exact else time_steps)
    if lockstep > MAX_LOCKSTEP:
        per_chunk, advice = (("r N events", "use --mode gaussian") if exact
                             else ("steps", "use fewer trajectories or steps"))
        raise ValueError(f"{mode} mode would take ~{lockstep:.4g} lockstep passes (chunks x {per_chunk}), "
                         f"above the limit MAX_LOCKSTEP = {MAX_LOCKSTEP}; {advice}")

    lag_times = np.linspace(0.0, process.pulse_time, time_steps + 1)
    simulate = _simulate_exact if exact else _simulate_gaussian

    sz_samples = np.empty((n_traj, time_steps + 1))
    sbar = np.empty(n_traj)
    n_events = 0
    for chunk, start in enumerate(range(0, n_traj, _CHUNK)):
        stop = min(start + _CHUNK, n_traj)
        # counter-based stream: identity = (key=seed, counter hi-word=chunk)
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, chunk]))
        sz_samples[start:stop], sbar[start:stop], events = simulate(rng, process, s, lag_times, stop - start)
        n_events += events

    sbar_sq, sbar_sq_se = _mean_se(sbar * sbar)
    covf, covf_se = _mean_se(sbar * sz_samples[:, -1])
    lag_stats = np.array([_mean_se(sz_samples[:, 0] * col) for col in sz_samples.T])
    scale = 2.0 / s
    return TrajectoryStats(
        n_trajectories=n_traj,
        n_events=n_events,
        mean_sz_bar_sq=sbar_sq,
        mean_sz_bar_sq_se=sbar_sq_se,
        cov_bar_final=covf,
        cov_bar_final_se=covf_se,
        lags=lag_times,
        corr=scale * lag_stats[:, 0],
        corr_se=scale * lag_stats[:, 1],
    )
