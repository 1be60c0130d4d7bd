"""Exact truncated Fock-space engine: states, photon subtraction, statistics.

States are dense single-mode density matrices over the number basis
|0>..|nmax>.  Two-mode operators, such as the beam-splitter unitary,
conserve the total photon number and are kept as one block per total;
applying them to a state is the job of ``verify``.  All operations are
pure functions; the backing arrays are frozen so values can be shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    NonUnitaryParams,
    OutOfTruncation,
    TailMassExceeded,
    UndefinedG2,
    VacuumSubtraction,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-8
DEFAULT_NMAX = 40
VACUUM_WEIGHT_FLOOR = 1e-14
UNITARY_PARAM_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate_density(elements: np.ndarray, what: str) -> np.ndarray:
    arr = np.array(elements, dtype=complex)
    if not np.isfinite(arr).all():
        raise InvalidState(f"{what}: elements must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidState(f"{what}: elements must be a square matrix")
    if np.abs(arr - arr.conj().T).max() > HERMITICITY_TOL:
        raise InvalidState(f"{what}: not Hermitian within {HERMITICITY_TOL}")
    tr = arr.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidState(f"{what}: trace {tr} differs from 1 beyond {TRACE_TOL}")
    if np.linalg.eigvalsh(arr).min() < -PSD_TOL:
        raise InvalidState(f"{what}: negative eigenvalue below -{PSD_TOL}")
    return _freeze(arr)


@dataclass(frozen=True)
class DensityMatrix:
    """Truncated single-mode quantum state in the Fock basis.

    ``tail_mass`` records the probability the untruncated state carries
    above the cutoff (exact for the constructors, an estimate after
    photon subtraction).
    """

    elements: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "elements", _validate_density(self.elements, "DensityMatrix")
        )

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def populations(self) -> np.ndarray:
        return np.diag(self.elements).real.copy()

    def mean_photons(self) -> float:
        n = np.arange(self.dim)
        return float(np.dot(n, self.populations()))


@dataclass(frozen=True)
class StateStats:
    """Mean photon number and normalized second-order correlation."""

    mean_n: float
    g2: float


# ---------------------------------------------------------------------------
# constructors


def make_thermal(nbar: float, nmax: int = DEFAULT_NMAX) -> DensityMatrix:
    """Thermal state with Bose-Einstein weights, renormalized over 0..nmax."""
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if nbar == 0:
        return make_fock(0, nmax)
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(nmax + 1) / (1.0 + nbar)
    tail = q ** (nmax + 1)
    if tail > DEFAULT_TAIL_TOL:
        raise TailMassExceeded(
            f"thermal nbar={nbar} at nmax={nmax}: tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    return DensityMatrix(np.diag(weights / weights.sum()), tail_mass=float(tail))


def make_coherent(alpha: complex, nmax: int = DEFAULT_NMAX) -> DensityMatrix:
    """Pure coherent state, renormalized over 0..nmax."""
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if alpha == 0:
        return make_fock(0, nmax)
    n = np.arange(nmax + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)
    norm2 = float(np.vdot(amp, amp).real)
    tail = 1.0 - norm2
    if tail > DEFAULT_TAIL_TOL:
        raise TailMassExceeded(
            f"coherent |alpha|={abs(alpha)} at nmax={nmax}: "
            f"tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    amp = amp / math.sqrt(norm2)
    return DensityMatrix(np.outer(amp, amp.conj()), tail_mass=max(tail, 0.0))


def make_fock(n: int, nmax: int = DEFAULT_NMAX) -> DensityMatrix:
    """Number state |n><n|."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > nmax:
        raise OutOfTruncation(f"Fock level {n} above truncation {nmax}")
    mat = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    mat[n, n] = 1.0
    return DensityMatrix(mat, tail_mass=0.0)


# ---------------------------------------------------------------------------
# operators and statistics


def stats(rho: DensityMatrix) -> StateStats:
    """Mean photon number and g2 = <a+ a+ a a> / <n>^2."""
    p = rho.populations()
    n = np.arange(rho.dim)
    mean_n = float(np.dot(n, p))
    if mean_n < VACUUM_WEIGHT_FLOOR:
        raise UndefinedG2("g2 undefined: mean photon number is zero")
    second = float(np.dot(n * (n - 1), p))
    return StateStats(mean_n=mean_n, g2=second / mean_n**2)


def subtract_photon(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Heralded single-photon subtraction: a rho a+ renormalized.

    The success weight Tr(a rho a+) equals the input mean photon number.
    The output tail_mass is the estimate (nmax+1) * tail_in / <n>, the
    leading term of the subtracted weight lost above the cutoff.
    """
    weight = rho.mean_photons()
    if weight < VACUUM_WEIGHT_FLOOR:
        raise VacuumSubtraction("cannot subtract a photon from (near-)vacuum")
    s = np.sqrt(np.arange(1.0, rho.dim))  # a[n-1, n] = sqrt(n)
    out = np.zeros_like(rho.elements)
    out[:-1, :-1] = s[:, None] * rho.elements[1:, 1:] * s / weight
    tail = rho.tail_mass * rho.dim / weight
    return DensityMatrix(out, tail_mass=tail), float(weight)


def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity (squared overlap convention), in [0, 1].

    F = ||sqrt(rho1) sqrt(rho2)||_1^2, the squared sum of singular values
    (Jozsa, J. Mod. Opt. 41, 2315, 1994); symmetric by construction.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} vs {rho2.dim}")
    product = _sqrt_psd(rho1.elements) @ _sqrt_psd(rho2.elements)
    root = np.linalg.svd(product, compute_uv=False).sum()
    return float(min(root * root, 1.0))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T  # w >= -1e-10 by construction


# ---------------------------------------------------------------------------
# two-mode unitaries, one block per total photon number N


@lru_cache(maxsize=4)
def _hop_eigenbases(dim_i: int, dim_j: int) -> tuple:
    """(evals, evecs) of i * (ai+ aj - ai aj+) on each block N, N = 0 .. dim_i + dim_j - 2.

    The generator does not depend on the splitter's angle, so one
    eigendecomposition per block serves every (t, r).
    """
    bases = []
    for total in range(dim_i + dim_j - 1):
        # ai+ aj |n, N-n> = hop |n+1, N-n-1>: one photon per step, N conserved
        n = np.arange(max(0, total - dim_j + 1), min(total, dim_i - 1), dtype=float)
        hop = np.sqrt((n + 1) * (total - n))
        evals, evecs = np.linalg.eigh(1j * (np.diag(hop, -1) - np.diag(hop, 1)))
        bases.append((_freeze(evals), _freeze(evecs)))
    return tuple(bases)


@lru_cache(maxsize=64)
def beamsplitter_blocks(dim_i: int, dim_j: int, t: float, r: float) -> tuple:
    """exp(theta (ai+ aj - ai aj+)), t = cos, r = sin, as blocks of total N.

    Block N = 0 .. dim_i + dim_j - 2 acts on |n, N - n> for
    n = max(0, N - dim_j + 1) .. min(N, dim_i - 1).  The blocks are cached
    on (dim_i, dim_j, t, r); each one is exp(theta gen) formed from the
    eigenbasis of the Hermitian i*gen, which ``_hop_eigenbases`` caches on
    (dim_i, dim_j) alone.
    """
    if abs(t * t + r * r - 1.0) > UNITARY_PARAM_TOL:
        raise NonUnitaryParams(f"t^2 + r^2 = {t * t + r * r} != 1")
    theta = math.atan2(r, t)
    blocks = []
    for evals, evecs in _hop_eigenbases(dim_i, dim_j):
        # the generator is real, so the unitary is too
        u = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
        blocks.append(_freeze(u.real))
    return tuple(blocks)


def beamsplitter_unitary(dim_i: int, dim_j: int, t: float, r: float) -> np.ndarray:
    """exp(theta (ai+ aj - ai aj+)) as a dense matrix over |n_i, n_j>, n_i slow."""
    u = np.zeros((dim_i * dim_j,) * 2)
    for total, block in enumerate(beamsplitter_blocks(dim_i, dim_j, t, r)):
        n_i = max(0, total - dim_j + 1) + np.arange(len(block))
        u[np.ix_(n_i * dim_j + total - n_i, n_i * dim_j + total - n_i)] = block
    return u
