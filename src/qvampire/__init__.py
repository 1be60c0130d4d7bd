"""Simulator for heralded photon subtraction acting on a whole light beam.

Subtracting a photon from a sub-region of a single-mode beam removes it
from the entire beam mode: the transverse profile keeps its shape (no
shadow appears) while the brightness changes by the input state's g2
factor, doubling for thermal light.  This package verifies that exactly
in a truncated Fock space and reproduces it statistically with a Monte
Carlo model of the tap-and-trigger single-pixel imaging apparatus.
"""

from . import analysis, errors, fock, montecarlo, spatial, verify

__version__ = "0.1.0"
