"""Domain rules for every physical input, and config-file ingestion.

Conventions used throughout the package:

  * every frequency-like quantity is angular (rad/s); config files accept
    plain Hz, and cavity_params applies the 2*pi at that boundary,
  * the collective spin S describes N = 2S two-level atoms, so S is a positive
    half-integer: twice_spin alone decides which S is a spin and gives its 2S,
    for every function that evaluates a spin state, channel_factors and the
    Monte Carlo's N = 2S included (design's optima take S > 0), and refuses
    2S > MAX_TWICE_SPIN = 2**53, past which every float is an integer,
  * nonnegative and positive alone decide the other physical inputs (Q, r,
    eta, pulse time, g, kappa, Gamma, design's S), and population decides
    max_excited_pop, an excited-state population epsilon in (0, 1]; two
    refusals stay elsewhere: design_report's q_target <= 0 ("no shearing
    requested") and oracle.channel_factors' RuntimeError on a factor above 1,
  * the dispersive cavity shift per unit S_z is Omega = 2 g^2 / |Delta|
    (single-photon Rabi frequency 2g, detuning Delta),
  * single-atom cooperativity eta = 4 g^2 / (kappa Gamma),
  * a drive pulse is summarised by p0, the mean photon number transmitted
    at S_z = 0 during the pulse time t, with p0 = |beta|^2 kappa t / 2, and
    by the dimensionless shearing strength Q = S p0 (2 Omega / kappa)^2,
  * design_report's excited population epsilon gives epsilon Gamma t =
    Q / (2 S eta) = 2 r photons scattered per atom over the pulse, twice the
    telegraph flip rate r = Q / (4 S eta): the factor 2 holds by algebra,
    from eta = 4 g^2 / (kappa Gamma) and p0 = Q / (S (2 Omega / kappa)^2).
    Which of the two is the model's photon count per atom is still open
    (ROADMAP item 24),
  * EnsembleSpec, a plain record, derives dicke_dim = 2S + 1 through
    twice_spin (refusing a non-spin), then stores total_spin as a float.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_TWICE_SPIN = 2.0 ** 53  # the largest 2S twice_spin accepts

# Rb D2 population decay rate 2*pi * 6.07 MHz.  Worked examples in this
# domain usually quote only Delta/Gamma, so Gamma is a configurable default
# that gets echoed into every serialized report.
DEFAULT_GAMMA = TWO_PI * 6.07e6


def twice_spin(total_spin):
    """2S as float, elementwise; ValueError names the first S that is no positive half-integer with 2S <= 2**53."""
    s = np.asarray(total_spin, dtype=float)
    two_s = 2.0 * s
    if s.ndim == 0 and 1.0 <= float(two_s) <= MAX_TWICE_SPIN and float(two_s).is_integer():
        return two_s[()]  # a spin given as a scalar, checked in Python floats
    spin = (two_s >= 1.0) & (two_s <= MAX_TWICE_SPIN) & (two_s == np.rint(two_s))
    if not spin.all():
        bad = s[~spin][0].item()
        cap = " with 2S <= 2**53" if 2.0 * bad > MAX_TWICE_SPIN else ""
        raise ValueError(f"total spin must be a positive half-integer{cap}, got {bad!r}")
    return two_s[()]


def nonnegative(name, x):
    """x as float, elementwise; ValueError unless every element is >= 0 and finite (nan refused)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 and 0.0 <= float(v) < math.inf:
        return v[()]  # a scalar, checked in Python floats
    if not ((v >= 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be nonnegative and finite")
    return v[()]


def positive(name, x):
    """x as float, elementwise; ValueError unless every element is > 0 and finite (nan refused)."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 and 0.0 < float(v) < math.inf:
        return v[()]  # a scalar, checked in Python floats
    if not ((v > 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite")
    return v[()]


def population(name, x):
    """x as float, elementwise; ValueError unless every element is in (0, 1] (nan refused)."""
    v = positive(name, x)
    if (v > 1.0).any():
        raise ValueError(f"{name} must be at most 1")
    return v


def nearest_spin(x):
    """The half-integer S nearest each element of x; an x that rounds to S = 0 is refused through twice_spin.

    An x past the spin cap is refused as given, before doubling it could overflow to inf.
    """
    x = np.asarray(x, dtype=float)
    twice_spin(x[x > MAX_TWICE_SPIN / 2.0])
    return twice_spin(np.rint(2.0 * x) / 2.0) / 2.0


class EnsembleSpec:
    """Collective spin S of an ensemble of N = 2S identical two-level atoms, and its Dicke dimension 2S + 1."""

    def __init__(self, total_spin):
        self.dicke_dim = int(twice_spin(total_spin)) + 1
        self.total_spin = float(total_spin)


# Config file schema: flat "key = value" lines, '#' comments.  Frequencies in
# Hz.  Exactly one of delta_over_gamma / delta_hz; gamma_hz optional (default
# DEFAULT_GAMMA).  t_s is the pulse time.  p0 is optional: design recommends
# its own Q and gives the p0 that reaches it, so a p0 in the file is only
# validated (>= 0) and echoed in the manifest.
CONFIG_KEYS = ("S", "g_hz", "kappa_hz", "gamma_hz", "delta_over_gamma", "delta_hz", "p0", "t_s")
_REQUIRED_KEYS = ("S", "g_hz", "kappa_hz", "t_s")


def load_config(path):
    """Parse a flat key = value config file into a dict of floats; each key may appear once."""
    cfg, first_line = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(CONFIG_KEYS)})")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice (first on line {first_line[key]})")
            first_line[key] = lineno
            try:
                cfg[key] = float(value.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: value for {key!r} is not a number") from None
            if not math.isfinite(cfg[key]):
                raise ValueError(f"{path}:{lineno}: value for {key!r} must be finite, got {cfg[key]!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in cfg]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    if cfg.get("p0", 0.0) < 0.0:
        raise ValueError(f"{path}: p0 must be nonnegative, got {cfg['p0']!r}")
    return cfg


def cavity_params(cfg):
    """The coupling of a config dict's system in rad/s, as design_report writes it under provenance.params.

    Converts g_hz, kappa_hz, gamma_hz (default DEFAULT_GAMMA) and delta_hz or
    delta_over_gamma (exactly one) to g, kappa, Gamma and the signed Delta,
    and derives omega_shift_rad_s = 2 g^2 / |Delta| and eta = 4 g^2 / (kappa
    Gamma).  Refuses two or no detunings, then a g, kappa or Gamma that is
    not positive, then a zero |Delta|, then a kappa Gamma, an Omega, an eta
    or a shearing per photon (2 Omega / kappa)^2 that over- or underflows,
    naming the keys it came from.
    """
    gamma = TWO_PI * cfg["gamma_hz"] if "gamma_hz" in cfg else DEFAULT_GAMMA
    if ("delta_hz" in cfg) == ("delta_over_gamma" in cfg):
        raise ValueError("give exactly one of delta_hz or delta_over_gamma")
    delta = TWO_PI * cfg["delta_hz"] if "delta_hz" in cfg else cfg["delta_over_gamma"] * gamma
    g, kappa = TWO_PI * cfg["g_hz"], TWO_PI * cfg["kappa_hz"]
    for name, x in (("g", g), ("kappa", kappa), ("gamma", gamma)):
        positive(name, x)
    positive("|delta|", abs(delta))
    positive("kappa Gamma (kappa_hz, gamma_hz)", kappa * gamma)
    omega, eta = 2.0 * g * g / abs(delta), 4.0 * g * g / (kappa * gamma)
    detuning = "delta_hz" if "delta_hz" in cfg else "delta_over_gamma, gamma_hz"
    positive(f"Omega = 2 g^2 / |Delta| (g_hz, {detuning})", omega)
    positive("eta = 4 g^2 / (kappa Gamma) (g_hz, kappa_hz, gamma_hz)", eta)
    per_photon = 2.0 * omega / kappa
    positive(f"(2 Omega / kappa)^2 (g_hz, kappa_hz, {detuning})", per_photon * per_photon)
    return {
        "g_rad_s": g,
        "kappa_rad_s": kappa,
        "gamma_rad_s": gamma,
        "delta_rad_s": delta,
        "omega_shift_rad_s": omega,
        "eta": eta,
    }
