"""Quantum-illumination target detection: states, bounds, receivers, CLI.

The package models the binary decision between "background only" and
"weakly reflected signal plus background" for an entangled signal-idler
transmitter and its coherent-state benchmark, at desk scale.  Chernoff
overlaps come in closed form from the Gaussian states and the OPA receiver
from exact photon-count tails; only the per-pair Helstrom measurement, and
the Fock overlaps that cross-check the closed form, build the states in a
truncated Fock space.
"""

from . import errors, scenario, fockspace, bounds, receivers
from .errors import *
from .scenario import *
from .fockspace import *
from .bounds import *
from .receivers import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *scenario.__all__, *fockspace.__all__,
           *bounds.__all__, *receivers.__all__]
