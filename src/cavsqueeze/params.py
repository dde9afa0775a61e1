"""Physical parameter bundles and config-file ingestion.

Conventions used throughout the package:

  * every frequency-like quantity is angular (rad/s); config files and the
    CLI accept plain Hz and the 2*pi is applied here, at the boundary,
  * the collective spin S describes N = 2S two-level atoms, so S is a positive
    half-integer: twice_spin alone decides which S is a spin and gives its 2S,
    for every function that evaluates a spin state (design's optima take S > 0),
    and refuses 2S > MAX_TWICE_SPIN = 2**53, past which every float is an integer,
  * nonnegative and positive alone decide the other physical inputs (Q, r,
    eta, p0, pulse time, g, kappa, Gamma, max_excited_pop, design's S); two
    refusals stay elsewhere: design_report's q_target <= 0 ("no shearing
    requested") and oracle.channel_factors' RuntimeError on a factor above 1,
  * the dispersive cavity shift per unit S_z is Omega = 2 g^2 / |Delta|
    (single-photon Rabi frequency 2g, detuning Delta),
  * single-atom cooperativity eta = 4 g^2 / (kappa Gamma),
  * a drive pulse is summarised by p0, the mean photon number transmitted
    at S_z = 0 during the pulse time t, with p0 = |beta|^2 kappa t / 2, and
    by the dimensionless shearing strength Q = S p0 (2 Omega / kappa)^2.
"""

import math
from dataclasses import dataclass, field

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
    spin = (two_s >= 1.0) & (two_s <= MAX_TWICE_SPIN) & (two_s == np.rint(two_s))
    if not spin.all():
        bad = s[~spin][0].item()
        cap = " with 2S <= 2**53" if 2.0 * bad > MAX_TWICE_SPIN else ""
        raise ValueError(f"total spin must be a positive half-integer{cap}, got {bad!r}")
    return two_s[()]


def nonnegative(name, x):
    """x as float, elementwise; ValueError unless every element is >= 0 and finite (nan refused)."""
    v = np.asarray(x, dtype=float)
    if not ((v >= 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be nonnegative and finite")
    return v[()]


def positive(name, x):
    """x as float, elementwise; ValueError unless every element is > 0 and finite (nan refused)."""
    v = np.asarray(x, dtype=float)
    if not ((v > 0.0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite")
    return v[()]


def nearest_spin(x):
    """The half-integer S nearest each element of x; an x that rounds to S = 0 is refused through twice_spin."""
    return twice_spin(np.rint(2.0 * np.asarray(x, dtype=float)) / 2.0) / 2.0


@dataclass(frozen=True)
class EnsembleSpec:
    """Collective spin S of an ensemble of N = 2S identical two-level atoms."""

    total_spin: float
    atom_count: int = field(init=False)
    dicke_dim: int = field(init=False)

    def __post_init__(self):
        two_s = int(twice_spin(self.total_spin))
        object.__setattr__(self, "total_spin", float(self.total_spin))
        object.__setattr__(self, "atom_count", two_s)
        object.__setattr__(self, "dicke_dim", two_s + 1)


@dataclass(frozen=True)
class CavityAtomParams:
    """Cavity-atom coupling parameters, all angular frequencies in rad/s.

    Attributes
    ----------
    g : float
        Atom-cavity coupling; the single-photon Rabi frequency is 2g.
    kappa : float
        Cavity linewidth (FWHM).
    gamma : float
        Excited-state population decay rate.
    delta : float
        Laser-atom detuning, sign carried.
    omega_shift : float
        Derived dispersive shift per unit S_z, 2 g^2 / |delta|.
    eta : float
        Derived single-atom cooperativity 4 g^2 / (kappa gamma).
    """

    g: float
    kappa: float
    gamma: float
    delta: float
    omega_shift: float = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        for name in ("g", "kappa", "gamma"):
            positive(name, getattr(self, name))
        positive("|delta|", abs(self.delta))
        object.__setattr__(self, "omega_shift", 2.0 * self.g * self.g / abs(self.delta))
        object.__setattr__(self, "eta", 4.0 * self.g * self.g / (self.kappa * self.gamma))

    @classmethod
    def from_hz(cls, g_hz, kappa_hz, gamma_hz=None, delta_hz=None, delta_over_gamma=None):
        """Build from plain-Hz inputs; exactly one of delta_hz/delta_over_gamma."""
        gamma = TWO_PI * gamma_hz if gamma_hz is not None else DEFAULT_GAMMA
        if (delta_hz is None) == (delta_over_gamma is None):
            raise ValueError("give exactly one of delta_hz or delta_over_gamma")
        delta = TWO_PI * delta_hz if delta_hz is not None else delta_over_gamma * gamma
        return cls(g=TWO_PI * g_hz, kappa=TWO_PI * kappa_hz, gamma=gamma, delta=delta)

    def as_dict(self):
        return {
            "g_rad_s": self.g,
            "kappa_rad_s": self.kappa,
            "gamma_rad_s": self.gamma,
            "delta_rad_s": self.delta,
            "omega_shift_rad_s": self.omega_shift,
            "eta": self.eta,
        }


@dataclass(frozen=True)
class DrivePulse:
    """Drive pulse: photon budget p0 over pulse_time, with derived rate and Q.

    p0 is the mean photon number transmitted at S_z = 0, drive_rate is
    |beta|^2 = 2 p0 / (kappa t) in photons/s, and shearing_q is
    Q = S p0 (2 Omega / kappa)^2 for the system the pulse was built against.
    """

    p0: float
    pulse_time: float
    drive_rate: float
    shearing_q: float

    def __post_init__(self):
        nonnegative("p0", self.p0)
        positive("pulse_time", self.pulse_time)
        nonnegative("shearing strength", self.shearing_q)

    @classmethod
    def from_photon_budget(cls, p0, pulse_time, ensemble, params):
        positive("pulse_time", pulse_time)  # before the rate divides by it
        q = ensemble.total_spin * p0 * (2.0 * params.omega_shift / params.kappa) ** 2
        rate = 2.0 * p0 / (params.kappa * pulse_time)
        return cls(p0=p0, pulse_time=pulse_time, drive_rate=rate, shearing_q=q)

    @classmethod
    def from_shearing(cls, q, pulse_time, ensemble, params):
        nonnegative("shearing strength", q)  # named as Q, not as the p0 derived from it
        p0 = q / (ensemble.total_spin * (2.0 * params.omega_shift / params.kappa) ** 2)
        return cls.from_photon_budget(p0, pulse_time, ensemble, params)


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


def system_from_config(cfg):
    """Build (EnsembleSpec, CavityAtomParams) from a config dict."""
    ensemble = EnsembleSpec(total_spin=cfg["S"])
    params = CavityAtomParams.from_hz(
        g_hz=cfg["g_hz"],
        kappa_hz=cfg["kappa_hz"],
        gamma_hz=cfg.get("gamma_hz"),
        delta_hz=cfg.get("delta_hz"),
        delta_over_gamma=cfg.get("delta_over_gamma"),
    )
    return ensemble, params
