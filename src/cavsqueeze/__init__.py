"""Cavity-feedback spin squeezing toolkit.

Closed-form predictions of the sheared uncertainty ellipse of a collective
spin driven through a detuned optical resonator, an exact Dicke-basis oracle
that validates them by brute force, a telegraph-jump Monte Carlo model of
Raman-scattering degradation, and an operating-point calculator, all exposed
through the ``cavsqueeze`` command line tool.
"""

__version__ = "0.1.0"

# loads every module but cli, so cavsqueeze.<module> works after a plain import; only cli imports raman
from . import design, oracle, raman
