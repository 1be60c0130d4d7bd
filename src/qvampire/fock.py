"""Exact truncated Fock-space engine: states, photon subtraction, fidelity.

States are dense single-mode density matrices over the number basis
|0>..|nmax>.  Two-mode operators, such as the beam-splitter unitary,
conserve the total photon number and are kept as one block per total;
applying them to a state is the job of ``verify``, which reads only the
blocks N < dim that the truncation leaves whole.  The truncated blocks
N >= dim are built only for the dense ``beamsplitter_unitary``.  A square
splitter's blocks are real: in the gauge diag(i^k) each block's generator
is a real tridiagonal matrix that the mode exchange splits into two
eigenproblems of half the order.  All operations are pure functions; the
backing arrays are frozen so values can be shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import QVampireError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-8
VACUUM_WEIGHT_FLOOR = 1e-14
UNITARY_PARAM_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _validate_density(elements: np.ndarray, what: str):
    """The elements as a frozen complex array, with their eigenvalues and
    eigenvectors from the one ``eigh`` that checks them positive semidefinite."""
    arr = np.array(elements, dtype=complex)
    if not np.isfinite(arr).all():
        raise QVampireError(f"{what}: elements must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QVampireError(f"{what}: elements must be a square matrix")
    if np.abs(arr - arr.conj().T).max() > HERMITICITY_TOL:
        raise QVampireError(f"{what}: not Hermitian within {HERMITICITY_TOL}")
    tr = arr.trace().real
    if abs(tr - 1.0) > TRACE_TOL:
        raise QVampireError(f"{what}: trace {tr} differs from 1 beyond {TRACE_TOL}")
    eigh = np.linalg.eigh(arr)
    if eigh[0].min() < -PSD_TOL:
        raise QVampireError(f"{what}: negative eigenvalue below -{PSD_TOL}")
    return _freeze(arr), eigh


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
        elements, eigh = _validate_density(self.elements, "DensityMatrix")
        object.__setattr__(self, "elements", elements)
        # kept for ``_sqrt``, so a state is decomposed once
        object.__setattr__(self, "_eigh", eigh)

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def populations(self) -> np.ndarray:
        return np.diag(self.elements).real.copy()

    def mean_photons(self) -> float:
        n = np.arange(self.dim)
        return float(np.dot(n, self.populations()))

    @cached_property
    def _sqrt(self) -> np.ndarray:
        """The PSD square root, taken once per state for ``fidelity`` from the
        eigenpairs its validation found."""
        w, v = self._eigh  # w >= -1e-10 by construction
        return _freeze((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


# ---------------------------------------------------------------------------
# constructors


def make_thermal(nbar: float, nmax: int) -> DensityMatrix:
    """Thermal state with Bose-Einstein weights, renormalized over 0..nmax."""
    if not math.isfinite(nbar):
        raise QVampireError(f"nbar must be finite, got {nbar}")
    if nbar < 0:
        raise QVampireError("nbar must be non-negative")
    if nmax < 1:
        raise QVampireError("nmax must be at least 1")
    if nbar == 0:
        return make_fock(0, nmax)
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(nmax + 1) / (1.0 + nbar)
    tail = q ** (nmax + 1)
    if tail > DEFAULT_TAIL_TOL:
        raise QVampireError(
            f"thermal nbar={nbar} at nmax={nmax}: tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    return DensityMatrix(np.diag(weights / weights.sum()), tail_mass=float(tail))


def make_coherent(alpha: complex, nmax: int) -> DensityMatrix:
    """Pure coherent state, renormalized over 0..nmax."""
    if not np.isfinite(alpha):
        raise QVampireError(f"alpha must be finite, got {alpha}")
    if nmax < 1:
        raise QVampireError("nmax must be at least 1")
    if alpha == 0:
        return make_fock(0, nmax)
    n = np.arange(nmax + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact)
    norm2 = float(np.vdot(amp, amp).real)
    tail = 1.0 - norm2
    if tail > DEFAULT_TAIL_TOL:
        raise QVampireError(
            f"coherent |alpha|={abs(alpha)} at nmax={nmax}: "
            f"tail {tail:.3e} > {DEFAULT_TAIL_TOL:.1e}"
        )
    amp = amp / math.sqrt(norm2)
    return DensityMatrix(np.outer(amp, amp.conj()), tail_mass=max(tail, 0.0))


def make_fock(n: int, nmax: int) -> DensityMatrix:
    """Number state |n><n|."""
    if n < 0:
        raise QVampireError("n must be non-negative")
    if n > nmax:
        raise QVampireError(f"Fock level {n} above truncation {nmax}")
    mat = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    mat[n, n] = 1.0
    return DensityMatrix(mat, tail_mass=0.0)


# ---------------------------------------------------------------------------
# photon subtraction and fidelity


def subtract_photon(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Heralded single-photon subtraction: a rho a+ renormalized.

    The success weight Tr(a rho a+) equals the input mean photon number.
    The output tail_mass is the estimate (nmax+1) * tail_in / <n>, the
    leading term of the subtracted weight lost above the cutoff.
    """
    weight = rho.mean_photons()
    if weight < VACUUM_WEIGHT_FLOOR:
        raise QVampireError("cannot subtract a photon from (near-)vacuum")
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
        raise QVampireError(f"dims {rho1.dim} vs {rho2.dim}")
    root = np.linalg.svd(rho1._sqrt @ rho2._sqrt, compute_uv=False).sum()
    return float(min(root * root, 1.0))


# ---------------------------------------------------------------------------
# two-mode unitaries, one block per total photon number N


def _exchange_basis(order: int) -> np.ndarray:
    """Orthogonal Q whose first ceil(order/2) columns are even and the rest odd
    under the site reversal k <-> order - 1 - k."""
    half = order // 2
    q = np.zeros((order, order))
    k = np.arange(half)
    q[k, k] = q[order - 1 - k, k] = q[k, order - half + k] = math.sqrt(0.5)
    q[order - 1 - k, order - half + k] = -math.sqrt(0.5)
    if order % 2:
        q[half, half] = 1.0  # the middle site is its own mirror image
    return q


def _hop_eigenbasis(dim: int, total: int) -> tuple:
    """(evals, D W) of i * (ai+ aj - ai aj+) on block N = total.

    Over the block's sites k (n = n_min + k) the gauge D = diag(i^k) turns
    the Hermitian generator H into the real tridiagonal T = D+ H D, whose
    off-diagonal is the hop sequence sqrt((n + 1)(N - n)).  On a square
    splitter that sequence is a palindrome, truncated blocks included, so
    the mode exchange n <-> N - n commutes with T, and ``_exchange_basis``
    splits T = W L W^T into an even and an odd problem of half the order
    (Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976).  The gauged
    eigenvectors D W hold a real entry on even sites and an imaginary one
    on odd sites.  The generator does not depend on the splitter's angle,
    so one eigendecomposition per block serves every (t, r).
    """
    # ai+ aj |n, N-n> = hop |n+1, N-n-1>: one photon per step, N conserved
    n = np.arange(max(0, total - dim + 1), min(total, dim - 1), dtype=float)
    hop = np.sqrt((n + 1) * (total - n))
    order = len(hop) + 1
    q = _exchange_basis(order)
    split = q.T @ (np.diag(hop, -1) + np.diag(hop, 1)) @ q
    half = order - order // 2
    even_vals, even_vecs = np.linalg.eigh(split[:half, :half])
    odd_vals, odd_vecs = np.linalg.eigh(split[half:, half:])
    w = np.hstack((q[:, :half] @ even_vecs, q[:, half:] @ odd_vecs))
    gauge = np.array([1, 1j, -1, -1j])[np.arange(order) % 4]  # i^k
    return _freeze(np.concatenate((even_vals, odd_vals))), _freeze(gauge[:, None] * w)


@lru_cache(maxsize=4)
def _hop_eigenbases(dim: int) -> tuple:
    """``_hop_eigenbasis`` of the blocks the truncation leaves whole, N = 0 .. dim - 1."""
    return tuple(_hop_eigenbasis(dim, total) for total in range(dim))


def _rotated_block(evals: np.ndarray, gauged: np.ndarray, theta: float) -> np.ndarray:
    """Re(D W e^{-i theta L} W^T D+), one block of the splitter at angle theta."""
    # with D W = A + iB and e^{-i theta L} = c - is, the float views
    # interleave the columns of [Ac + Bs, Bc - As] and [A B]: their
    # product is the real part, and the imaginary part is never formed
    rotated = gauged * np.exp(-1j * theta * evals)
    return _freeze(rotated.view(np.float64) @ gauged.view(np.float64).T)


@lru_cache(maxsize=64)
def beamsplitter_blocks(dim: int, t: float, r: float) -> tuple:
    """exp(theta (ai+ aj - ai aj+)), t = cos, r = sin, on the blocks the
    truncation leaves whole.

    Both modes are truncated to dim levels.  Block N = 0 .. dim - 1 acts on
    all of |n, N - n>, n = 0 .. N.  The blocks are cached on (dim, t, r) as
    C-contiguous real arrays, each one ``_rotated_block`` of the angle-free
    eigenbasis that ``_hop_eigenbases`` caches on dim alone.  The blocks
    N >= dim, which the truncation cuts, are built only by
    ``beamsplitter_unitary``.
    """
    if abs(t * t + r * r - 1.0) > UNITARY_PARAM_TOL:
        raise QVampireError(f"t^2 + r^2 = {t * t + r * r} != 1")
    theta = math.atan2(r, t)
    return tuple(_rotated_block(*basis, theta) for basis in _hop_eigenbases(dim))


def beamsplitter_unitary(dim_i: int, dim_j: int, t: float, r: float) -> np.ndarray:
    """exp(theta (ai+ aj - ai aj+)) as a dense matrix, laid out by ``_scatter_blocks``.

    Only square splitters (dim_i == dim_j) are built.  The blocks N < d come from
    ``beamsplitter_blocks``; the truncated blocks N = d .. 2 d - 2 are built here,
    uncached, by the same per-block code.
    """
    if dim_i != dim_j:
        raise QVampireError(f"beam splitter needs equal dims, got {dim_i} vs {dim_j}")
    d = dim_i
    whole = beamsplitter_blocks(d, t, r)  # checks t^2 + r^2 = 1
    theta = math.atan2(r, t)
    cut = [_rotated_block(*_hop_eigenbasis(d, total), theta) for total in range(d, 2 * d - 1)]
    return _scatter_blocks(d, (*whole, *cut))


def _scatter_blocks(d: int, blocks) -> np.ndarray:
    """Blocks N = 0, 1, .. as one dense matrix over |n_i, n_j>, n_i slow; the rest is zero."""
    u = np.zeros((d * d,) * 2)
    for total, block in enumerate(blocks):
        n_i = max(0, total - d + 1) + np.arange(len(block))
        u[np.ix_(n_i * d + total - n_i, n_i * d + total - n_i)] = block
    return u
