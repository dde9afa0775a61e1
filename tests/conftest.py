import decimal
import math

import numpy as np

from cavsqueeze.dicke import m_values, make_css, raising_coefficients
from cavsqueeze.feedback import MomentSet, _scalar, correlation_integrals
from cavsqueeze.oracle import channel_factors, oracle_moments_sum
from cavsqueeze.params import EnsembleSpec, nonnegative, twice_spin

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the keys of every CLI manifest; raman-mc's adds mc_health
MANIFEST_KEYS = {"command", "seed", "config", "environment", "outputs", "schema_version", "tool_version",
                 "wall_time_s", "warnings"}


def rel_err(a, b):
    """Relative difference with a zero-safe scale."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff / scale if scale > 0.0 else 0.0


def golden_section_min(f, lo, hi, tol=1e-12, max_iter=300):
    """Golden-section minimum of a unimodal scalar f on [lo, hi]; returns (x, f(x)).

    The tests' independent reference minimiser; tol is the relative width
    of the final bracket.
    """
    a, b = float(lo), float(hi)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * (abs(a) + abs(b)) / 2.0:
            break
        if fc < fd:  # keep [a, d]; the old c becomes the new d
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:  # keep [c, b]; the old d becomes the new c
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def css_amplitudes_reference(total_spin):
    """All 2S+1 normalised CSS amplitudes, built over the full range of k.

    The tests' reference for the real part of dicke.make_css, which builds
    only the window of nonzero amplitudes: the same centre-out cumulative sum of
    log((2S-k)/(k+1)), mirrored by k <-> 2S-k, exponentiated and normalised.
    """
    two_s = int(twice_spin(total_spin))
    half = two_s // 2
    k = np.arange(two_s - half, two_s)
    right = np.concatenate(([0.0], np.cumsum(np.log((two_s - k) / (k + 1.0)))))
    log_binom = np.concatenate((right[::-1][:two_s - half], right))
    a = np.exp(0.5 * log_binom)
    return a / np.sqrt(np.sum(a * a))


def dicke_sums_reference(total_spin, q, cut=0):
    """The MomentSet of oracle.oracle_moments_sum at one Q, summed over k = cut..2S-cut of the full range.

    The tests' reference for oracle.oracle_moments_sum, which sums only where
    a product of two amplitudes is not exactly 0.0: the same float64 terms,
    in the same order, on css_amplitudes_reference less cut amplitudes at
    each end (none by default, so no term is dropped).
    """
    s = float(total_spin)
    two_s = int(twice_spin(s))
    a = css_amplitudes_reference(s)[cut:two_s + 1 - cut]
    k = np.arange(cut, two_s + 1 - cut, dtype=float)
    m = k - s
    w1 = a[1:] * a[:-1] * np.sqrt((two_s - k[:-1]) * (k[:-1] + 1.0))
    k2 = k[:-2]
    w2 = a[2:] * a[:-2] * np.sqrt((two_s - k2) * (k2 + 1.0) * (two_s - k2 - 1.0) * (k2 + 2.0))
    u = q / s
    ph1, ph2 = u * (m[:-1] + 1.0), 2.0 * u * (m[:-2] + 2.0)
    mean_sp = complex(np.sum(w1 * np.cos(ph1)), np.sum(w1 * np.sin(ph1)))
    cov_w = float(np.sum(w1 * (2.0 * m[:-1] + 1.0) * np.sin(ph1)))
    shot = complex(math.exp(-u)) * complex(math.cos(u), -math.sin(u))
    mean_sp2 = complex(np.sum(w2 * np.cos(ph2)), np.sum(w2 * np.sin(ph2))) * shot
    ladder = (s * (s + 1.0) - float(np.sum(a * a * m * m))) / 2.0
    return MomentSet(total_spin=s, mean_sp=mean_sp, mean_sp2=mean_sp2,
                     var_y=ladder - mean_sp2.real / 2.0 - mean_sp.imag ** 2, cov_w=cov_w)


def floored_rel_err(a, b, floor):
    """Relative difference that ignores cancellation noise below `floor`."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def dense_matrix(op):
    """The (2S+1) x (2S+1) matrix of a tridiagonal operator, from its bands."""
    return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)


def channel_factor_matrix(total_spin, q):
    """oracle.channel_factors on the full (2S+1) x (2S+1) grid: row m, column m', both +S..-S."""
    m = m_values(total_spin)
    return channel_factors(total_spin, q, m[:, None], m[None, :])


def apply_feedback_channel(rho, total_spin, q):
    """The feedback map on a whole density matrix, the tests' dense reference.

    Each entry <m|rho|m'> is multiplied by its factor F(m, m'), so the
    populations are untouched (S_z is conserved) and Hermiticity is kept by
    the conjugate factors of the lower triangle.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = int(twice_spin(total_spin)) + 1
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim}x{dim} for S = {total_spin}")
    return channel_factor_matrix(total_spin, q) * rho


def dense_spin_matrices(total_spin):
    """Dense S_+, S_y and S_z, (2S+1) x (2S+1) in the m = +S..-S order, from m_values and raising_coefficients."""
    sp = np.diag(raising_coefficients(total_spin), 1).astype(complex)
    return sp, (sp - sp.T) / 2j, np.diag(m_values(total_spin)).astype(complex)


def css_density_matrix(total_spin):
    """|CSS_+x><CSS_+x| as a dense matrix."""
    amps = make_css(EnsembleSpec(total_spin=total_spin))
    return np.outer(amps, amps.conj())


def dense_channel_moments(total_spin, q):
    """The tests' reference for oracle.channel_moments: the dense map on the dense CSS, traced on its diagonals.

    Every operator is banded, so each trace tr(rho A) takes the populations
    and the -2..+1 diagonals of rho times the ladder coefficients c_m of
    dicke.raising_coefficients, on m from dicke.m_values; <S_y^2> goes
    through the diagonal S_+S_- + S_-S_+.  <S_y> is traced on its own bands,
    where channel_moments reads Im <S_+>, so the two agree to the bit only
    if the map's coherences are Hermitian to the bit.
    """
    rho = apply_feedback_channel(css_density_matrix(total_spin), total_spin, q)
    c = raising_coefficients(total_spin)
    m = m_values(total_spin)
    pop = np.diagonal(rho).real

    below = np.diagonal(rho, -1)
    mean_sp = complex(np.sum(below * c))
    mean_sp2 = complex(np.sum(np.diagonal(rho, -2) * c[:-1] * c[1:]))
    # rho_{i+1,i} <i|S_y|i+1> + rho_{i,i+1} <i+1|S_y|i>, term by term
    sy_terms = (below - np.diagonal(rho, 1)) * c / 2j
    mean_y = float(np.sum(sy_terms).real)
    ladder = float(np.sum((pop[:-1] + pop[1:]) * c * c))  # <S_+S_- + S_-S_+>
    var_y = (ladder - 2.0 * mean_sp2.real) / 4.0 - mean_y * mean_y
    # {S_y, S_z} has the S_y bands times m_i + m_{i+1}
    cov_w = float(np.sum(sy_terms * (m[:-1] + m[1:])).real)
    return MomentSet(total_spin=float(total_spin), mean_sp=mean_sp, mean_sp2=mean_sp2, var_y=var_y, cov_w=cov_w)


def lockstep_exact_reference(rng, process, s, lag_times, m):
    """m trajectories of exact per-event jumps, one event of each per array pass.

    The tests' reference for raman._simulate_exact (same model and return
    value, different draw order).  Time is in units of the pulse, so the N
    atoms jump at the total rate r N whatever the state, and each step draws
    one exponential waiting time and one uniform atom pick per trajectory (a
    down-flip with probability n_up / N).  A trajectory whose next event
    falls past the pulse end 1 holds its level while the others finish.
    Returns (S_z at the lags, Sbar_z, number of jumps).
    """
    n = process.n_atoms
    rate = process.r * n
    sz = rng.binomial(n, 0.5, size=m) - s
    samples = np.repeat(sz[:, None], len(lag_times), axis=1)
    if rate == 0.0:
        return samples, sz, 0
    now = np.zeros(m)
    integral = np.zeros(m)
    n_events = 0
    while True:
        nxt = now + rng.standard_exponential(m) / rate
        end = np.minimum(nxt, 1.0)
        integral += sz * (end - now)
        # S_z at a lag is the level held over [now, next event)
        held = (lag_times >= now[:, None]) & (lag_times < nxt[:, None])
        np.copyto(samples, sz[:, None], where=held)
        jump = nxt < 1.0
        n_jumps = int(np.count_nonzero(jump))
        if n_jumps == 0:
            return samples, integral, n_events
        n_events += n_jumps
        down = rng.random(m) * n < sz + s
        sz = sz + jump * np.where(down, -1.0, 1.0)
        now = end


def gaussian_per_step_reference(rng, process, s, lag_times, samples, sbar):
    """The gaussian kernel one step at a time, with the kernel's signature and return value.

    The tests' bit-for-bit reference for raman._simulate_gaussian, which
    draws the normals of several steps at once and copies their S_z into
    samples once per roll: the same gains and update expressions, with one
    (2, m) standard_normal draw per step and each step's S_z written as one
    column of samples.
    """
    var_st = s / 2.0
    h = np.diff(lag_times)
    c_sq, c_fin = correlation_integrals(process.r * h)
    with np.errstate(over="ignore"):
        decay = np.exp(-2.0 * (process.r * h))
    mean_gain = h * c_fin
    sd_z = np.sqrt(var_st * (1.0 - decay * decay))
    cov_zi = var_st * mean_gain * (1.0 - decay)
    gain_z = cov_zi / np.where(sd_z > 0.0, sd_z, 1.0)
    var_resid = var_st * h * h * (c_sq - c_fin * c_fin) - gain_z * gain_z
    gain_i = np.sqrt(np.where(sd_z > 0.0, np.maximum(var_resid, 0.0), 0.0))
    z = rng.normal(0.0, math.sqrt(var_st), size=len(sbar))
    samples[:, 0] = z
    sbar[:] = 0.0
    x = np.empty((2, len(sbar)))
    x1, x2 = x
    steps = zip(mean_gain.tolist(), gain_z.tolist(), gain_i.tolist(), decay.tolist(), sd_z.tolist())
    for i, (mean, g_z, g_i, d, sd) in enumerate(steps, start=1):
        rng.standard_normal(out=x)
        sbar += z * mean + g_z * x1 + g_i * x2
        z = z * d + sd * x1
        samples[:, i] = z
    return 0


def _cos_power_reference(x, power):
    """cos(x)**power as the complex-exponential body below takes it: its own sin(x / 2) and its own warnings."""
    half_sin = np.sin(x / 2.0)
    inside = np.abs(x) < np.pi / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_form = np.exp(power * np.log1p(-2.0 * half_sin * half_sin))
    if inside.all():
        return log_form
    return np.where(inside, log_form, np.power(np.cos(x), power))


def complex_moment_reference(total_spin, q, r):
    """feedback.raman_modified_moments through complex exponentials, with the same checks and return value.

    The tests' bit-for-bit reference for feedback._moment_set, which takes
    each sine and cosine once and writes the real and imaginary parts of
    <S~_+> and <S~_+^2> as real products: the same expressions with
    e^{i phase} as numpy's complex exp, sin(Q_eff/(2S)) taken three times
    and the G factor checking S, so var_y, cov_w and their minimum
    variance agree to the bit and the complex moments up to the sign of a
    zero part.
    """
    s, q = np.asarray(total_spin, dtype=float)[()], nonnegative("shearing strength", q)
    c_sq, c_fin = correlation_integrals(r)
    q_eff = q * c_fin
    g_half = _cos_power_reference(q_eff / 2.0 / s, twice_spin(s) - 1.0)
    two_s = 2.0 * s
    xi_var = np.maximum(c_sq - c_fin * c_fin, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -q * q * xi_var
    undefined = exponent != exponent
    if undefined.any():
        raise ValueError(f"Q = {float(np.broadcast_to(q, undefined.shape)[undefined][0])!r}: the dephasing "
                         "Q^2 (c_bar_sq - c_bar_fin^2) is inf * 0, Q^2 past the float range where "
                         "c_bar_sq - c_bar_fin^2 is 0 (at r = 0 or below ~5e-17)")
    d1 = np.exp(exponent / (4.0 * s))
    mean_sp = d1 * s * g_half * np.exp(1j * (q_eff / (2.0 * s)))
    cos_power = _cos_power_reference(q_eff / s, np.maximum(two_s - 2.0, 0.0))
    mag = np.power(d1, 4.0) * (s * (two_s - 1.0) / 2.0) * cos_power * np.exp(-q / s)
    mean_sp2 = mag * np.exp(1j * ((2.0 * q_eff - q) / s))
    second_y = (2.0 * s * s + s) / 4.0 - mean_sp2.real / 2.0
    return MomentSet(
        total_spin=_scalar(s),
        mean_sp=_scalar(mean_sp),
        mean_sp2=_scalar(mean_sp2),
        var_y=_scalar(second_y - np.square(mean_sp.imag)),
        cov_w=_scalar(d1 * (2.0 * s * s - s) * np.sin(q_eff / (2.0 * s)) * g_half),
    )


def ou_step_moments_reference(var_st, theta, h):
    """The moments of one Ornstein-Uhlenbeck step given S_z(start), as Decimals at 60 digits.

    The tests' reference for raman._simulate_gaussian.  For rate theta,
    stationary variance var_st and step h, with d = e^{-theta h}, returns
    (d, (1 - d) / theta, var_st (1 - d^2), var_st (1 - d)^2 / theta,
    (2 var_st / theta)(h - 2 (1 - d) / theta + (1 - d^2) / (2 theta))): the
    mean of S_z(end) and of the integral of S_z over the step per unit
    S_z(start), Var S_z(end), their covariance and Var of the integral.
    These are the textbook forms; the bracket of the last is O((theta h)^3)
    built from O(theta h) terms, which costs ~3 log10(1 / (theta h)) of the
    60 digits, so 24 or more remain down to theta h = 1e-12.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        var_st, theta, h = (decimal.Decimal(x) for x in (var_st, theta, h))
        d = (-theta * h).exp()
        one_m_d, one_m_d2 = 1 - d, 1 - d * d
        return (d, one_m_d / theta, var_st * one_m_d2, var_st * one_m_d * one_m_d / theta,
                2 * var_st / theta * (h - 2 * one_m_d / theta + one_m_d2 / (2 * theta)))


def fsum_mean_se_reference(values):
    """Mean and standard error of a 1-d sample with compensated summation.

    The tests' reference for raman._mean_se: math.fsum over each moment,
    one sample column at a time.
    """
    n = len(values)
    mean = math.fsum(values.tolist()) / n
    if n < 2:
        return mean, float("inf")
    var = math.fsum(((values - mean) ** 2).tolist()) / (n - 1)
    return mean, math.sqrt(var / n)


def _quadrature_variance(moments, alpha):
    """Var(cos(a) S_z - sin(a) S~_y) from oracle moments."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    return ca * ca * moments.total_spin / 2.0 + sa * sa * moments.var_y - sa * ca * moments.cov_w


def brute_force_min_variance(total_spin, q, grid_points=720):
    """Minimum normalized quadrature variance by grid scan plus refinement.

    The tests' reference for feedback.min_variance.  Scans alpha over
    [0, pi) on a uniform grid of the oracle-sum moments (sigma^2(alpha) is a
    pure cosine in 2 alpha, so the grid guards against branch errors), then
    ternary-searches the bracketing interval down to 1e-10 rad.  Returns
    (alpha_min, sigma_min_sq) with the variance normalized to S/2.
    """
    moments = oracle_moments_sum(total_spin, q)
    alphas = np.linspace(0.0, math.pi, grid_points, endpoint=False)
    values = [_quadrature_variance(moments, a) for a in alphas]
    best = int(np.argmin(values))
    step = math.pi / grid_points
    lo = alphas[best] - step
    hi = alphas[best] + step
    while hi - lo > 1e-10:
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if _quadrature_variance(moments, m1) <= _quadrature_variance(moments, m2):
            hi = m2
        else:
            lo = m1
    alpha_min = math.fmod((lo + hi) / 2.0, math.pi)
    if alpha_min < 0.0:
        alpha_min += math.pi
    sigma_min_sq = _quadrature_variance(moments, alpha_min) / (total_spin / 2.0)
    return alpha_min, sigma_min_sq
