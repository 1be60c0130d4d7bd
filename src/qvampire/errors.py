"""Exception and warning types shared across the simulation engine."""


class QVampireError(Exception):
    """Base class for all errors raised by this package."""


class InvalidState(QVampireError):
    """A density matrix violates Hermiticity, trace or positivity bounds."""


class TailMassExceeded(QVampireError):
    """Truncated construction would drop more probability than tolerated."""


class OutOfTruncation(QVampireError):
    """Requested Fock level lies above the truncation."""


class VacuumSubtraction(QVampireError):
    """Photon subtraction attempted on a state with no photons."""


class NonUnitaryParams(QVampireError):
    """Beam-splitter amplitudes do not satisfy t^2 + r^2 = 1."""


class DimensionMismatch(QVampireError):
    """Operands live in different-sized spaces or grids."""


class DegenerateShape(QVampireError):
    """A profile or mask construction produced an empty active area."""


class HeraldImpossible(QVampireError):
    """Heralding weight is zero; no conditional state exists."""


class ResidualOrthogonalPopulation(QVampireError):
    """Population leaked out of the beam mode where none is allowed."""


class ConfigMismatch(QVampireError):
    """Inconsistent simulation configuration (dimensions, timing, modes)."""


class QuadratureUnresolved(QVampireError):
    """A quadrature rule disagrees with its own refinement by more than its bound."""


class NoHeralds(QVampireError):
    """A superpixel recorded zero herald counts; conditional rates undefined."""


class InsufficientCounts(QVampireError):
    """Count levels too low for the requested estimator."""


class GridMismatch(QVampireError):
    """Superpixel grids of two maps do not match."""


class InsufficientData(QVampireError):
    """Fewer than two usable entries; no fit possible."""


class EmptyRegion(QVampireError):
    """Inside or outside region holds no usable superpixels."""


class BandOutOfRange(QVampireError):
    """Requested row band lies outside the map."""


class WeakCouplingViolated(UserWarning):
    """Effective coupling too large for the weak-coupling analytic formula."""
