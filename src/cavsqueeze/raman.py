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
r = 0 this reduces exactly to the no-scattering forms, and in the large-S,
small-r regime the minimum variance reduces to 1/Q + 4r/3 with r = Q/(4 S eta).

The Monte Carlo model simulates the telegraph process directly: exact
per-event jumps Delta S_z = +-1 for modest atom numbers, or an
Ornstein-Uhlenbeck aggregate (exact joint sampling of S_z and its running
integral) for large ones.  Trajectories run as arrays in fixed chunks of
_CHUNK, and each chunk draws from one counter-based Philox stream keyed by
(seed, chunk index), so a seed and a trajectory count fix the output bits.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .feedback import MomentSet, _cos_power, extremal_variances, g_factor

# Trajectories per chunk: one array pass and one Philox stream each.  The
# value is part of the stream layout, so changing it changes seeded output.
_CHUNK = 512

# Refusal limits from costs measured on a 2-vCPU host: ~60 us per exact lockstep
# event on a full chunk at 4 lags (~30 s); 8 B and ~220 ns per sample (256 MiB, ~7 s).
MAX_EXACT_LOCKSTEP = 500_000  # ceil(n_traj / _CHUNK) * r N
MAX_SAMPLE_ELEMENTS = 2 ** 25  # n_traj * (time_steps + 1)


def correlation_integrals(r):
    """Normalized moments (c_bar_sq, c_bar_final) of the time-averaged S_z.

    Closed forms of the exponential-kernel time integrals; a series is used
    at small r where the closed forms lose digits to cancellation.
    """
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return 1.0, 1.0
    a = 2.0 * r
    if a < 0.5:
        # c_bar_sq = 2 sum_{j>=0} (-a)^j/(j+2)!,  c_bar_fin = sum_{j>=0} (-a)^j/(j+1)!
        c_sq = 0.0
        c_fin = 0.0
        num = 1.0
        fact1 = 1.0  # (j+1)!
        fact2 = 2.0  # (j+2)!
        for j in range(40):
            c_fin += num / fact1
            c_sq += 2.0 * num / fact2
            term = abs(num) / fact1
            num *= -a
            fact1 = fact2
            fact2 *= j + 3
            if term < 1e-18:
                break
        return c_sq, c_fin
    ea = math.exp(-a)
    return (a - 1.0 + ea) * 2.0 / (a * a), (1.0 - ea) / a


def raman_modified_moments(total_spin, q, r):
    """Closed-form MomentSet with the time-averaged-S_z substitution.

    r = 0 reproduces analytic_moments exactly; var_z stays S/2 (the
    telegraph process is stationary on the CSS ensemble).
    """
    if q < 0.0 or r < 0.0:
        raise ValueError("q and r must be nonnegative")
    s = float(total_spin)
    two_s = round(2.0 * s)
    c_sq, c_fin = correlation_integrals(r)
    xi_var = max(c_sq - c_fin * c_fin, 0.0)  # >= 0 by Cauchy-Schwarz
    d1 = math.exp(-q * q * xi_var / (4.0 * s))
    d2 = d1 ** 4
    q_eff = q * c_fin

    mean_sp = d1 * s * g_factor(s, q_eff / 2.0) * cmath.exp(1j * q_eff / (2.0 * s))
    if two_s >= 2:
        mag = d2 * (s * (two_s - 1) / 2.0) * _cos_power(q_eff / s, two_s - 2) * math.exp(-q / s)
        mean_sp2 = mag * cmath.exp(1j * (2.0 * q_eff - q) / s)
    else:
        mean_sp2 = 0j
    second_y = (2.0 * s * s + s) / 4.0 - mean_sp2.real / 2.0
    var_y = second_y - mean_sp.imag ** 2
    cov_w = d1 * (2.0 * s * s - s) * math.sin(q_eff / (2.0 * s)) * g_factor(s, q_eff / 2.0)
    return MomentSet(
        total_spin=s,
        shearing_q=float(q),
        mean_sp=mean_sp,
        mean_sp2=mean_sp2,
        var_y=var_y,
        var_z=s / 2.0,
        cov_w=cov_w,
    )


def modified_min_variance(total_spin, eta, q):
    """Normalized minimum variance at shearing Q including Raman scattering.

    The scattered-photon number follows from Q = 4 S eta r; the full
    G-factor forms keep shot noise, feedback and curvature, and the
    correlation integrals carry the decorrelation.

    The value is normalized to the CSS variance S/2 and not divided by the
    squared contrast C^2 = |<S~_+>|^2 / S^2, so it can fall below the
    closed-form floors of the design module, which are large-S limits of
    xi^2 = sigma^2 / C^2, by about C^2.
    """
    if q <= 0.0:
        raise ValueError("shearing strength must be positive")
    if total_spin * eta <= 0.0:
        raise ValueError("collective cooperativity S*eta must be positive")
    r = q / (4.0 * total_spin * eta)
    moments = raman_modified_moments(total_spin, q, r)
    return extremal_variances(moments).sigma_min_sq


def fig2_curve(total_spin, eta, q_grid):
    """Pointwise squeezing-vs-Q curve plus the two reference curves.

    Returns a list of rows (q, sigma_min_sq, sigma_curv_sq, sigma_ideal_sq):
    the scattering-degraded minimum, the flat curvature floor
    (5/4) 6^{-1/5} S^{-2/5}, and the ideal 1/Q line.
    """
    s = float(total_spin)
    sigma_curv_sq = 1.25 * 6.0 ** (-0.2) * s ** (-0.4)
    rows = []
    for q in q_grid:
        q = float(q)
        rows.append((q, modified_min_variance(s, eta, q), sigma_curv_sq, 1.0 / q))
    return rows


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
    """m trajectories of exact per-event jumps, stepped in lockstep.

    The N atoms jump at the total rate N lambda whatever the state, so each
    step draws one exponential waiting time and one uniform atom pick per
    trajectory (a down-flip with probability n_up / N).  A trajectory whose
    next event falls past t holds its level while the others finish.
    Returns (S_z at the lags, Sbar_z, number of jumps).
    """
    n = process.n_atoms
    t = process.pulse_time
    rate = process.flip_rate * n
    sz = rng.binomial(n, 0.5, size=m) - s
    samples = np.repeat(sz[:, None], len(lag_times), axis=1)
    if rate == 0.0:
        return samples, sz, 0
    now = np.zeros(m)
    integral = np.zeros(m)
    n_events = 0
    while True:
        nxt = now + rng.standard_exponential(m) / rate
        end = np.minimum(nxt, t)
        integral += sz * (end - now)
        # S_z at a lag is the level held over [now, next event)
        held = (lag_times >= now[:, None]) & (lag_times < nxt[:, None])
        np.copyto(samples, sz[:, None], where=held)
        jump = nxt < t
        n_jumps = int(np.count_nonzero(jump))
        if n_jumps == 0:
            return samples, integral / t, n_events
        n_events += n_jumps
        down = rng.random(m) * n < sz + s
        sz = sz + jump * np.where(down, -1.0, 1.0)
        now = end


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
        Exact mode refuses runs of more than MAX_EXACT_LOCKSTEP lockstep events,
        both modes more than MAX_SAMPLE_ELEMENTS samples (ValueError, no work done).
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
    lockstep = math.ceil(n_traj / _CHUNK) * process.r * process.n_atoms
    if mode == "exact" and lockstep > MAX_EXACT_LOCKSTEP:
        raise ValueError(f"exact mode would step ~{lockstep:.4g} events in lockstep (chunks x r N), above "
                         f"the limit MAX_EXACT_LOCKSTEP = {MAX_EXACT_LOCKSTEP}; use --mode gaussian")

    lag_times = np.linspace(0.0, process.pulse_time, time_steps + 1)
    simulate = _simulate_exact if mode == "exact" else _simulate_gaussian

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
