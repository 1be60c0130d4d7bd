"""Exception and warning types shared across the simulation engine.

Every failure is a ``QVampireError`` whose message names the rule it broke
(and, for a config value, its key); the CLI prints it and exits 1.  Only
``ConfigMismatch`` is caught by type: ``analyze`` turns a sidecar value it
rejects into a note instead of a failure.
"""


class QVampireError(Exception):
    """Base class for all errors raised by this package."""


class ConfigMismatch(QVampireError):
    """Inconsistent simulation configuration (dimensions, timing, modes)."""


class WeakCouplingViolated(UserWarning):
    """Effective coupling too large for the weak-coupling analytic formula."""
