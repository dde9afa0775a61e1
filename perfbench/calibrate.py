"""Reference kernel that turns measured times into calibrated seconds.

The benchmark's host is a share of a machine whose speed drifts: the same
pure-Python loop runs up to 1.5x slower for tens of seconds while other
tenants are busy.  That drift would swamp any change to the program, so the
benchmark times this fixed kernel beside the program (before every
invocation, and after each set-up) and reports

    calibrated seconds = measured seconds * REF_S / reference seconds,

the time the work would take on a host where the kernel takes REF_S.  The
kernel mixes the kinds of work the workloads do: scalar Python float math,
numpy element-wise transcendental functions and numpy random draws.  It is
benchmark code: no change to cavsqueeze can make it faster or slower.
"""

import math
import statistics
import time

import numpy as np

# The kernel's time on a quiet 2-vCPU x86_64 VM (Python 3.11, numpy 2.4),
# so calibrated seconds read close to wall seconds there.
REF_S = 0.0022

# Before a call expected to take t seconds the kernel runs about
# REF_SHARE * t / REF_S times (1 to REF_MAX_REPEATS): one 2 ms run would
# catch a momentary stall rather than the host's speed over a long call.
REF_SHARE = 0.05
REF_MAX_REPEATS = 9

_X = np.linspace(0.0, 1.0, 20_000)


def _kernel():
    s = 0.0
    for i in range(1, 8_000):
        s += math.exp(-i * 1e-5) * math.sqrt(i)
    x = _X
    for _ in range(10):
        x = np.exp(-x)
    draws = np.random.default_rng(0).exponential(size=50_000)
    return s + float(x[0]) + float(draws[0])


def reference_s():
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale_for(expected_s):
    """REF_S over the kernel's median time, from as many runs as expected_s of work warrants."""
    repeats = max(1, min(REF_MAX_REPEATS, round(REF_SHARE * expected_s / REF_S)))
    return REF_S / statistics.median(reference_s() for _ in range(repeats))


def calibrated(seconds, ref_seconds):
    """Measured seconds converted to seconds on a host where the kernel takes REF_S."""
    return seconds * REF_S / ref_seconds
