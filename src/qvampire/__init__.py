"""Simulator for heralded photon subtraction acting on a whole light beam.

Subtracting a photon from a sub-region of a single-mode beam removes it
from the entire beam mode: the transverse profile keeps its shape (no
shadow appears) while the brightness changes by the input state's g2
factor, doubling for thermal light.  This package verifies that exactly
in a truncated Fock space and reproduces it statistically with a Monte
Carlo model of the tap-and-trigger single-pixel imaging apparatus.

``import qvampire`` loads no submodule: each of the documented ones below
loads on first access (``qvampire.fock.make_thermal``), so a command pays
only for the modules it runs.

No matrix the package hands to BLAS or LAPACK is large enough to share, so
``import qvampire`` before numpy sets ``OPENBLAS_NUM_THREADS=1`` (a second
thread would only spin), unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
or ``OMP_NUM_THREADS`` is set: then, as when numpy loaded first, it sets none.
"""

import importlib
import os
import sys

__version__ = "0.1.0"

if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & {*os.environ}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

_SUBMODULES = frozenset({"analysis", "errors", "fock", "montecarlo", "spatial", "verify"})


def __getattr__(name):
    # PEP 562: called only for names the module does not hold yet
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
